//! `perfbench`: the wire-level benchmark of `hetsel-serve`.
//!
//! ```text
//! perfbench --serve-bin PATH --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! With `--trace 0` it starts the release server binary, drives it over
//! stdio or loopback TCP with the workload's seeded traffic, checks every
//! reply against an in-process engine, and prints the end-to-end metrics.
//! With `--trace 1` it prints the per-layer metrics of a traced run, and
//! writes that run's spans as JSONL under `--out`. The last line of stdout
//! is always the JSON result; the human-readable report goes to stderr.

mod check;
mod gen;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gen::{Loop, Traffic, Workload};
use wire::{Exchange, WireRun};

pub struct Args {
    pub serve_bin: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut serve_bin = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(gen::workload(&value).ok_or(format!(
                    "unknown workload {value:?} (known: {})",
                    gen::WORKLOADS.map(|w| w.name).join(", ")
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Server starts whose median is `setup_s` (the measured run's included).
const SETUP_STARTS: usize = 21;

/// The result line: correctness, request counts and named metrics.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        ))
    }
}

/// A checked wire run: per-phase tallies plus the latency figures the
/// end-to-end metrics and the traced run share.
pub struct Checked {
    pub run: WireRun,
    pub tallies: Vec<check::Tally>,
    pub mismatches: Vec<String>,
    /// The measured phase whose latency the workload reports: the
    /// closed-loop phase, or the open loop's reference rung.
    pub latency_phase: usize,
    pub latency_ns: Vec<f64>,
}

impl Checked {
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.run.unsolicited == 0
    }

    pub fn attempted(&self) -> u64 {
        self.tallies.iter().map(|t| t.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.tallies.iter().map(|t| t.failed()).sum()
    }

    pub fn p50_ns(&self) -> f64 {
        stats::median(&self.latency_ns)
    }

    pub fn p99_ns(&self) -> f64 {
        stats::windowed_p99(&self.latency_ns)
    }
}

/// Runs the workload over the wire and checks every reply.
pub fn wire_checked(args: &Args, secs: f64, traced: bool) -> Result<Checked, String> {
    let mut traffic = Traffic::new(&args.workload, args.seed);
    let names = traffic.region_names();
    let run = wire::run(&args.serve_bin, &args.workload, &mut traffic, secs, traced)
        .map_err(|e| format!("wire run failed: {e}"))?;
    let (tallies, mismatches) = check::verify(&run.exchanges, run.phases.len(), &names);
    let latency_phase = match args.workload.drive {
        Loop::OpenLadder { .. } => run
            .phases
            .iter()
            .position(|p| p.rate == Some(wire::REFERENCE_RPS))
            .unwrap_or(run.phases.len() - 1),
        _ => 1,
    };
    let latency_ns = wire::phase_latencies(&run.exchanges, latency_phase);
    let checked = Checked {
        run,
        tallies,
        mismatches,
        latency_phase,
        latency_ns,
    };
    print_phases(&checked);
    Ok(checked)
}

/// Sent / ok / shed / errored / missing and latency for every phase.
fn print_phases(c: &Checked) {
    eprintln!(
        "{:<22} {:>7} {:>7} {:>5} {:>5} {:>7} {:>10} {:>10} {:>10} {:>8} slo",
        "phase",
        "sent",
        "ok",
        "shed",
        "err",
        "missing",
        "p50_us",
        "p99_us",
        "lag_p99_us",
        "backlog"
    );
    for (i, (phase, t)) in c.run.phases.iter().zip(&c.tallies).enumerate() {
        let lat = wire::phase_latencies(&c.run.exchanges, i);
        let lag: Vec<f64> = c
            .run
            .exchanges
            .iter()
            .filter(|e| e.phase == i)
            .map(Exchange::lag_ns)
            .collect();
        let slo = match phase.rate {
            Some(_) if wire::rung_passes(&c.run.exchanges, i, phase) => "met",
            Some(_) => "missed",
            None => "-",
        };
        eprintln!(
            "{:<22} {:>7} {:>7} {:>5} {:>5} {:>7} {:>10.1} {:>10.1} {:>10.1} {:>8} {}",
            phase.label,
            t.sent,
            t.ok,
            t.shed,
            t.errored,
            t.missing,
            stats::median(&lat) / 1e3,
            stats::windowed_p99(&lat) / 1e3,
            stats::quantile(&lag, 0.99) / 1e3,
            phase.backlog_at_end,
            slo
        );
    }
    for m in c.mismatches.iter().take(10) {
        eprintln!("MISMATCH {m}");
    }
    if c.run.unsolicited > 0 {
        eprintln!(
            "MISMATCH {} reply lines answered no request",
            c.run.unsolicited
        );
    }
}

/// The highest ladder rate that met the SLO, refined toward the next rung
/// up: between a passing rung (p99 below the SLO) and the next one (above
/// it), the rate where the SLO is crossed, interpolating p99 log-linearly
/// in log rate. A bare ladder step would make the metric jump by 2× when
/// a rung's p99 drifts across the limit; the refinement moves it smoothly.
/// A closed loop cannot build a backlog, so its rate under the SLO is its
/// completion rate when its p99 meets the SLO. 0 when nothing met it.
pub fn max_rate_under_slo(c: &Checked, drive: Loop) -> f64 {
    let run = &c.run;
    if !matches!(drive, Loop::OpenLadder { .. }) {
        return if c.p99_ns() <= wire::SLO_NS {
            throughput(run, drive)
        } else {
            0.0
        };
    }
    let rungs: Vec<(f64, f64, bool)> = (1..run.phases.len())
        .filter_map(|i| {
            let rate = run.phases[i].rate?;
            let p99 = stats::windowed_p99(&wire::phase_latencies(&run.exchanges, i));
            Some((
                rate,
                p99,
                wire::rung_passes(&run.exchanges, i, &run.phases[i]),
            ))
        })
        .collect();
    let Some(best) = rungs.iter().rposition(|&(_, _, passed)| passed) else {
        return 0.0;
    };
    let (rate, p99) = (rungs[best].0, rungs[best].1);
    match rungs.get(best + 1) {
        Some(&(next_rate, next_p99, _)) if next_p99.is_finite() && next_p99 > wire::SLO_NS => {
            let t = ((wire::SLO_NS / p99).ln() / (next_p99 / p99).ln()).clamp(0.0, 1.0);
            rate * (next_rate / rate).powf(t)
        }
        _ => rate,
    }
}

/// Replies (or only ok replies) of the measured phases read in [from, to).
fn read_in(run: &WireRun, from: Instant, to: Instant, ok_only: bool) -> f64 {
    run.exchanges
        .iter()
        .filter(|e| e.phase > 0 && e.received.is_some_and(|r| r >= from && r < to))
        .filter(|e| !ok_only || wire::ok_latency_ns(e).is_finite())
        .count() as f64
}

/// Per CPU-sample window: server CPU µs per reply, and ok replies per second.
fn cpu_windows(run: &WireRun) -> Vec<(f64, f64)> {
    run.cpu_samples
        .windows(2)
        .map(|w| {
            let ((t0, c0), (t1, c1)) = (w[0], w[1]);
            let replies = read_in(run, t0, t1, false).max(1.0);
            let ok_rate = read_in(run, t0, t1, true) / t1.duration_since(t0).as_secs_f64();
            ((c1 - c0) * 1e6 / replies, ok_rate)
        })
        .collect()
}

/// Ok replies per second: the median window of a closed loop; in the open
/// loop, during the last rung run, which is the first whose backlog grew
/// (its completion rate is the server's capacity) or the top rung.
fn throughput(run: &WireRun, drive: Loop) -> f64 {
    match drive {
        Loop::OpenLadder { .. } => {
            let last = &run.phases[run.phases.len() - 1];
            read_in(run, last.start, last.end, true)
                / last.end.duration_since(last.start).as_secs_f64()
        }
        _ => stats::median(&cpu_windows(run).iter().map(|w| w.1).collect::<Vec<_>>()),
    }
}

/// The end-to-end metrics of one untraced run.
fn end_to_end(args: &Args) -> Result<Report, String> {
    // Set-up time is the median of 21 server starts: ten before the
    // measured run, its own, and ten after, so that a slow spell of the
    // machine during one part of the run does not set it.
    let setup = |n| {
        wire::setup_samples(&args.serve_bin, &args.workload, args.seed, n)
            .map_err(|e| format!("set-up probe failed: {e}"))
    };
    let mut setup_s = setup(SETUP_STARTS / 2)?;
    let c = wire_checked(args, args.seconds, false)?;
    let run = &c.run;
    if run.server_peak_rss_kb == 0 {
        return Err("could not read the server's peak RSS from /proc".into());
    }
    let measured = 1..run.phases.len();
    let cpu_per_req = stats::median(&cpu_windows(run).iter().map(|w| w.0).collect::<Vec<_>>());
    let sent_measured: u64 = c.tallies[measured.clone()].iter().map(|t| t.sent).sum();
    let ok_measured: u64 = c.tallies[measured].iter().map(|t| t.ok).sum();
    setup_s.push(run.setup_s);
    setup_s.extend(setup(SETUP_STARTS / 2)?);
    // Tail and SLO-rate figures spread too widely run to run on a small
    // shared machine to carry a bound; the traced run reports them.
    eprintln!(
        "latency from phase {:?}: {} samples, windowed p99 {:.1} us; max rate under SLO {:.0}/s",
        run.phases[c.latency_phase].label,
        c.latency_ns.len(),
        c.p99_ns() / 1e3,
        max_rate_under_slo(&c, args.workload.drive)
    );
    Ok(Report {
        correct: c.correct(),
        attempted: c.attempted(),
        failed: c.failed(),
        metrics: vec![
            ("latency_p50_us", c.p50_ns() / 1e3, "us"),
            (
                "throughput_rps",
                throughput(run, args.workload.drive),
                "1/s",
            ),
            (
                "ok_frac",
                ok_measured as f64 / sent_measured.max(1) as f64,
                "ratio",
            ),
            ("server_cpu_us_per_req", cpu_per_req, "us"),
            (
                "server_peak_rss_mb",
                run.server_peak_rss_kb as f64 / 1024.0,
                "MB",
            ),
            ("setup_s", stats::median(&setup_s), "s"),
        ],
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        trace::per_layer(&args)
    } else {
        end_to_end(&args)
    };
    if let Ok(r) = &report {
        for (name, value, unit) in &r.metrics {
            eprintln!("{name:<28} {value:>14.3} {unit}");
        }
    }
    let report = match report.and_then(|r| r.to_json().map(|json| (r.correct, json))) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.1);
    if report.0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: reply mismatches, see MISMATCH lines above");
        ExitCode::FAILURE
    }
}
