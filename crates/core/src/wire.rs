//! The JSON text of a decision, as the decision service's replies carry
//! it: the `decision` object of an `ok` or `shed` reply.
//!
//! One renderer, [`DecisionFields::write_json`], writes it straight from
//! the fields, byte-identical to what `serde_json` writes for the
//! service's reply types (held to it by `hetsel-serve`'s
//! `tests/reply_json.rs`). The engine renders each cached decision with it
//! once, on the entry's first hit
//! ([`CachedDecision::json`](crate::engine::CachedDecision::json)), and
//! the service renders every other reply's decision with it; the string,
//! float and flag writers are the ones the service's reply envelopes use.

use std::io::Write;

use crate::selector::Decision;

/// A decision's wire fields, borrowed from an engine [`Decision`] or from
/// the service's owned reply form.
#[derive(Debug, Clone, Copy)]
pub struct DecisionFields<'a> {
    /// Region name.
    pub region: &'a str,
    /// Kind-level device (`host` / `gpu`).
    pub device: &'a str,
    /// Fleet label of the chosen device.
    pub device_name: &'a str,
    /// The [`Policy::name`](crate::Policy::name) spelling of the policy.
    pub policy: &'a str,
    /// Predicted host seconds.
    pub predicted_cpu_s: Option<f64>,
    /// Predicted accelerator seconds.
    pub predicted_gpu_s: Option<f64>,
    /// True when online calibration applied corrections to the verdict.
    pub calibrated: bool,
}

impl<'a> From<&'a Decision> for DecisionFields<'a> {
    fn from(d: &'a Decision) -> DecisionFields<'a> {
        DecisionFields {
            region: &d.region,
            device: d.device_id.kind().name(),
            device_name: &d.device_name,
            policy: d.policy.name(),
            predicted_cpu_s: d.predicted_cpu_s,
            predicted_gpu_s: d.predicted_gpu_s,
            calibrated: d.calibration.is_some_and(|t| t.applied),
        }
    }
}

impl DecisionFields<'_> {
    /// Appends the decision's JSON object to `out`.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"region\":");
        write_str(out, self.region);
        out.extend_from_slice(b",\"device\":");
        write_str(out, self.device);
        out.extend_from_slice(b",\"device_name\":");
        write_str(out, self.device_name);
        out.extend_from_slice(b",\"policy\":");
        write_str(out, self.policy);
        out.extend_from_slice(b",\"predicted_cpu_s\":");
        write_opt_f64(out, self.predicted_cpu_s);
        out.extend_from_slice(b",\"predicted_gpu_s\":");
        write_opt_f64(out, self.predicted_gpu_s);
        out.extend_from_slice(b",\"calibrated\":");
        write_bool(out, self.calibrated);
        out.push(b'}');
    }
}

/// Appends `true` or `false`.
pub fn write_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// A float as `serde_json` writes it: `Debug`, the shortest form that
/// parses back to the same bits; `null` for none and for NaN and ±∞,
/// which JSON cannot spell.
pub fn write_opt_f64(out: &mut Vec<u8>, x: Option<f64>) {
    match x {
        Some(x) if x.is_finite() => write!(out, "{x:?}").expect("writing to a Vec cannot fail"),
        _ => out.extend_from_slice(b"null"),
    }
}

/// A JSON string literal with `serde_json`'s escapes: `\"`, `\\`, `\n`,
/// `\r` and `\t` by name, every other control byte as `\u00XX`, and
/// everything else — multi-byte UTF-8 included — verbatim.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut copied = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let named: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => &[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ],
            _ => continue,
        };
        out.extend_from_slice(&bytes[copied..i]);
        out.extend_from_slice(named);
        copied = i + 1;
    }
    out.extend_from_slice(&bytes[copied..]);
    out.push(b'"');
}
