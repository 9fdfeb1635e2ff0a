//! The decision flight recorder: a fixed-capacity, lock-free ring buffer
//! of structured [`DecisionEvent`]s.
//!
//! Aggregate counters answer "how many"; the flight recorder answers
//! "what happened, in order": every decide verdict, dispatch completion,
//! fallback and breaker transition lands in the ring as a fixed-size
//! event, and an operator can [`drain`](FlightRecorder::drain) or
//! [`snapshot`](FlightRecorder::snapshot) the last `capacity` of them at
//! any time — including while writers are still recording.
//!
//! The recorder follows the crate's gating discipline:
//!
//! * **Disabled** (the default), [`record_event`] is a single relaxed
//!   atomic load and the event-building closure never runs — the decide
//!   hot path stays allocation-free and effectively untouched (pinned by
//!   `zero_alloc.rs` in `hetsel-core`).
//! * **Enabled**, recording is *lock-free and allocation-free*: a writer
//!   takes a ticket with one `fetch_add` on the write cursor, claims the
//!   ticket's slot by swapping the slot's sequence word to a busy marker,
//!   serializes the event into the slot's fixed array of atomic words and
//!   publishes it by storing its sequence number. No mutex, no heap, no
//!   syscall — writers can never block each other or a reader.
//!
//! Tickets `t` and `t + capacity` share a slot, so a ring that laps a
//! writer preempted mid-write sends a second writer to a slot still being
//! filled. The claim keeps it out: a writer that finds its slot busy drops
//! its event and never waits. Readers validate each slot's sequence word
//! before and after copying the payload, so a concurrent overwrite is
//! detected and the slot is skipped rather than surfaced torn, and busy
//! slots are skipped outright. (Dropped events, and events overwritten
//! while the ring wraps during a read, are simply gone — it is a flight
//! recorder, not a reliable log.)

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::json_escape;

/// Bytes of region name stored inline in an event (longer names truncate).
pub const REGION_BYTES: usize = 24;

/// Number of payload words a slot carries (excluding the sequence word).
const WORDS: usize = 9;

/// Default capacity of the process-wide recorder (events, power of two).
/// Sized so the whole ring (80 B/slot) stays L2-resident: a writer that
/// cycles through the ring re-touches warm lines instead of streaming
/// through megabytes, which is what keeps the recorded cache-hit decide
/// within its overhead budget (see `results/obs_report.json`).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1 << 12;

/// What a [`DecisionEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A `DecisionEngine` verdict (cache hit or miss — see
    /// [`DecisionEvent::cache_hit`]).
    Decide = 0,
    /// A dispatch that ran to completion on some device;
    /// [`DecisionEvent::simulated_s`] holds the observed runtime.
    DispatchComplete = 1,
    /// A dispatch fallback; [`DecisionEvent::detail`] holds the reason
    /// code (`FallbackReason` ordinal in `hetsel-core`).
    Fallback = 2,
    /// A circuit-breaker state transition; [`DecisionEvent::detail`]
    /// holds the *new* state's gauge value (0 closed, 1 open, 2 half-open).
    BreakerTransition = 3,
    /// A request shed by an admission-controlled front-end (`hetsel-serve`)
    /// before it reached the engine; [`DecisionEvent::detail`] holds the
    /// shed-reason code (`ShedReason` ordinal in `hetsel-serve`).
    Shed = 4,
    /// An online-calibration correction changed (or, in shadow mode,
    /// would have changed) a freshly evaluated verdict relative to the
    /// uncalibrated models. [`DecisionEvent::detail`] is 1 when the
    /// correction was actually applied (active mode), 0 for a shadow-mode
    /// would-flip; the predicted fields carry the *raw* (uncorrected)
    /// predictions the flip was measured against.
    CalibrationFlip = 5,
}

impl EventKind {
    /// Stable lowercase name (used in JSON).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Decide => "decide",
            EventKind::DispatchComplete => "dispatch",
            EventKind::Fallback => "fallback",
            EventKind::BreakerTransition => "breaker",
            EventKind::Shed => "shed",
            EventKind::CalibrationFlip => "calib_flip",
        }
    }

    fn from_u8(v: u8) -> EventKind {
        match v {
            1 => EventKind::DispatchComplete,
            2 => EventKind::Fallback,
            3 => EventKind::BreakerTransition,
            4 => EventKind::Shed,
            5 => EventKind::CalibrationFlip,
            _ => EventKind::Decide,
        }
    }
}

/// One structured entry in the flight recorder. Fixed-size and `Copy` so
/// recording never allocates; the region name is stored inline (truncated
/// to [`REGION_BYTES`] on a UTF-8 boundary).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionEvent {
    /// Recorder-assigned global sequence number (filled on read; writers
    /// need not set it). Establishes the total order across threads.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Caller's logical-tick timestamp (the dispatcher's logical clock for
    /// dispatch/breaker events; 0 where no logical clock applies).
    pub tick: u64,
    /// Region name bytes, NUL-padded (see [`DecisionEvent::region_str`]).
    pub region: [u8; REGION_BYTES],
    /// The decision cache key's precomputed binding hash (0 when the
    /// event is not tied to a specific binding).
    pub binding_hash: u64,
    /// The `DeviceId` payload the event concerns (`u16::MAX` when none).
    pub device: u16,
    /// True when the verdict offloads to the accelerator named by
    /// `device`; false for a host verdict. Meaningful for decide and
    /// dispatch events.
    pub verdict_accel: bool,
    /// Whether the decision was answered from the cache (decide events).
    pub cache_hit: bool,
    /// Kind-specific detail code: fallback reason ordinal for
    /// [`EventKind::Fallback`], new breaker-state gauge value for
    /// [`EventKind::BreakerTransition`], 0 otherwise.
    pub detail: u8,
    /// Predicted host runtime, seconds (NaN when unknown).
    pub predicted_cpu_s: f64,
    /// Predicted accelerator runtime, seconds (NaN when unknown).
    pub predicted_accel_s: f64,
    /// Simulated/observed runtime, seconds (dispatch events; NaN
    /// otherwise).
    pub simulated_s: f64,
}

impl DecisionEvent {
    /// A blank event of the given kind for `region`, everything else
    /// zeroed/NaN. Callers fill the fields that apply.
    #[inline]
    pub fn new(kind: EventKind, region: &str) -> DecisionEvent {
        DecisionEvent {
            seq: 0,
            kind,
            tick: 0,
            region: pack_region(region),
            binding_hash: 0,
            device: u16::MAX,
            verdict_accel: false,
            cache_hit: false,
            detail: 0,
            predicted_cpu_s: f64::NAN,
            predicted_accel_s: f64::NAN,
            simulated_s: f64::NAN,
        }
    }

    /// The stored region name (truncation-aware, never panics).
    pub fn region_str(&self) -> &str {
        let end = self
            .region
            .iter()
            .position(|&b| b == 0)
            .unwrap_or(REGION_BYTES);
        std::str::from_utf8(&self.region[..end]).unwrap_or("")
    }

    /// One-line JSON rendering (the JSONL snapshot format).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"kind\":\"{}\",\"tick\":{},\"region\":\"{}\",\"binding_hash\":{},\"device\":{}",
            self.seq,
            self.kind.name(),
            self.tick,
            json_escape(self.region_str()),
            self.binding_hash,
            self.device,
        );
        out.push_str(&format!(
            ",\"verdict\":\"{}\",\"cache_hit\":{},\"detail\":{}",
            if self.verdict_accel { "accel" } else { "host" },
            self.cache_hit,
            self.detail,
        ));
        for (key, v) in [
            ("predicted_cpu_s", self.predicted_cpu_s),
            ("predicted_accel_s", self.predicted_accel_s),
            ("simulated_s", self.simulated_s),
        ] {
            if v.is_finite() {
                out.push_str(&format!(",\"{key}\":{v:?}"));
            } else {
                out.push_str(&format!(",\"{key}\":null"));
            }
        }
        out.push('}');
        out
    }

    #[inline]
    fn encode(&self) -> [u64; WORDS] {
        let packed = self.kind as u64
            | (self.device as u64) << 8
            | (self.verdict_accel as u64) << 24
            | (self.cache_hit as u64) << 25
            | (self.detail as u64) << 32;
        let mut w = [0u64; WORDS];
        w[0] = packed;
        w[1] = self.tick;
        w[2] = self.binding_hash;
        w[3] = self.predicted_cpu_s.to_bits();
        w[4] = self.predicted_accel_s.to_bits();
        w[5] = self.simulated_s.to_bits();
        for (i, chunk) in self.region.chunks_exact(8).enumerate() {
            w[6 + i] = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        w
    }

    fn decode(seq: u64, w: &[u64; WORDS]) -> DecisionEvent {
        let mut region = [0u8; REGION_BYTES];
        for (i, slot) in region.chunks_exact_mut(8).enumerate() {
            slot.copy_from_slice(&w[6 + i].to_le_bytes());
        }
        DecisionEvent {
            seq,
            kind: EventKind::from_u8((w[0] & 0xff) as u8),
            tick: w[1],
            region,
            binding_hash: w[2],
            device: ((w[0] >> 8) & 0xffff) as u16,
            verdict_accel: (w[0] >> 24) & 1 == 1,
            cache_hit: (w[0] >> 25) & 1 == 1,
            detail: ((w[0] >> 32) & 0xff) as u8,
            predicted_cpu_s: f64::from_bits(w[3]),
            predicted_accel_s: f64::from_bits(w[4]),
            simulated_s: f64::from_bits(w[5]),
        }
    }
}

/// Truncates `region` onto a UTF-8 boundary and NUL-pads it.
#[inline]
fn pack_region(region: &str) -> [u8; REGION_BYTES] {
    let mut out = [0u8; REGION_BYTES];
    let mut end = region.len().min(REGION_BYTES);
    while end > 0 && !region.is_char_boundary(end) {
        end -= 1;
    }
    out[..end].copy_from_slice(&region.as_bytes()[..end]);
    out
}

/// A slot's sequence word while a writer holds it.
const BUSY: u64 = u64::MAX;

/// One ring slot: a per-slot sequence lock over a fixed word array.
/// `seq == 0` means empty, `seq == BUSY` that a writer is filling it, and
/// `seq == ticket + 1` that it holds the event with global sequence
/// number `ticket`.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    const fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; WORDS],
        }
    }
}

/// The fixed-capacity, lock-free event ring. See the module docs for the
/// write/read protocol.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
    mask: usize,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("total_recorded", &self.total_recorded())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` events; `capacity` is
    /// rounded up to a power of two (minimum 2).
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(2).next_power_of_two();
        FlightRecorder {
            slots: (0..cap).map(|_| Slot::empty()).collect(),
            cursor: AtomicU64::new(0),
            mask: cap - 1,
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (monotone; survives drains).
    pub fn total_recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records one event: takes a ticket, claims its slot and publishes
    /// the event there — or drops the event when a writer the ring lapped
    /// still holds the slot. Lock-free, wait-free and allocation-free.
    #[inline]
    pub fn record(&self, ev: &DecisionEvent) {
        if let Some((ticket, slot)) = self.claim() {
            Self::publish(slot, ticket, ev);
        }
    }

    /// Takes the next ticket and claims its slot by swapping the slot's
    /// sequence word to [`BUSY`]; `None` when it was busy already (another
    /// writer holds it, and keeps it). The swap acquires the previous
    /// publication, so this writer's payload stores follow the last
    /// writer's, and being one atomic read-modify-write it lets exactly
    /// one writer in.
    #[inline]
    fn claim(&self) -> Option<(u64, &Slot)> {
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & self.mask];
        (slot.seq.swap(BUSY, Ordering::Acquire) != BUSY).then_some((ticket, slot))
    }

    /// Fills a slot [`claim`](FlightRecorder::claim)ed for `ticket` and
    /// publishes it. Each payload word is stored with Release after the
    /// claim, so a reader whose (relaxed-load + acquire-fence) copy
    /// observed any new word also observes the busy marker — or the final
    /// sequence number — on its re-check, and a torn copy never validates.
    #[inline]
    fn publish(slot: &Slot, ticket: u64, ev: &DecisionEvent) {
        for (w, v) in slot.words.iter().zip(ev.encode()) {
            w.store(v, Ordering::Release);
        }
        slot.seq.store(ticket + 1, Ordering::Release);
    }

    /// Copies out every currently-valid event, oldest first, without
    /// consuming them. Safe to call while writers are recording: slots
    /// mid-overwrite are skipped, never surfaced torn.
    pub fn snapshot(&self) -> Vec<DecisionEvent> {
        let mut out: Vec<DecisionEvent> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 == BUSY {
                continue;
            }
            let mut w = [0u64; WORDS];
            for (dst, src) in w.iter_mut().zip(slot.words.iter()) {
                *dst = src.load(Ordering::Relaxed);
            }
            // The acquire fence orders the payload loads before the
            // re-check: an unchanged sequence proves the copy is whole.
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 == s2 {
                out.push(DecisionEvent::decode(s1 - 1, &w));
            }
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }

    /// As [`snapshot`](FlightRecorder::snapshot), but consumes: each
    /// returned event's slot is atomically cleared (a slot that a writer
    /// claimed or overwrote in the meantime is left alone, so no new event
    /// is lost and no writer loses its claim).
    pub fn drain(&self) -> Vec<DecisionEvent> {
        let events = self.snapshot();
        for ev in &events {
            let slot = &self.slots[(ev.seq as usize) & self.mask];
            // Clear only if the slot still holds the event we returned.
            let _ = slot
                .seq
                .compare_exchange(ev.seq + 1, 0, Ordering::AcqRel, Ordering::Relaxed);
        }
        events
    }

    /// Drops all retained events (the total-recorded count is preserved).
    /// A slot a writer holds keeps its claim, and the event it is writing
    /// survives the clear.
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Relaxed);
            if seq != 0 && seq != BUSY {
                let _ = slot
                    .seq
                    .compare_exchange(seq, 0, Ordering::AcqRel, Ordering::Relaxed);
            }
        }
    }

    /// Number of currently-valid events (point-in-time estimate under
    /// concurrent writes).
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !matches!(s.seq.load(Ordering::Relaxed), 0 | BUSY))
            .count()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// --- the global recorder --------------------------------------------------

/// Fast-path switch: every [`record_event`] call starts (and, while
/// disabled, ends) with this single relaxed load.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// Enables or disables flight recording process-wide (default off).
pub fn set_flight_recording(on: bool) {
    RECORDING.store(on, Ordering::Release);
}

/// True while [`record_event`] forwards events to the global recorder.
#[inline]
pub fn flight_recording_enabled() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// The process-wide recorder ([`DEFAULT_FLIGHT_CAPACITY`] events).
pub fn flight_recorder() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(|| FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY))
}

/// Records an event into the global recorder. The closure runs only when
/// recording is enabled, so callers may gather fields freely — the
/// disabled path is one relaxed atomic load and constructs nothing.
#[inline]
pub fn record_event(build: impl FnOnce() -> DecisionEvent) {
    if !flight_recording_enabled() {
        return;
    }
    flight_recorder().record(&build());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool as StdAtomicBool;
    use std::sync::Arc;
    use std::thread;

    fn ev(region: &str, tick: u64) -> DecisionEvent {
        let mut e = DecisionEvent::new(EventKind::Decide, region);
        e.tick = tick;
        e.binding_hash = 0xdead_beef;
        e.device = 1;
        e.verdict_accel = true;
        e.cache_hit = true;
        e.predicted_cpu_s = 1.5;
        e.predicted_accel_s = 0.25;
        e
    }

    #[test]
    fn event_roundtrips_through_words() {
        let e = ev("gemm", 42);
        let decoded = DecisionEvent::decode(7, &e.encode());
        assert_eq!(decoded.seq, 7);
        assert_eq!(decoded.kind, EventKind::Decide);
        assert_eq!(decoded.tick, 42);
        assert_eq!(decoded.region_str(), "gemm");
        assert_eq!(decoded.binding_hash, 0xdead_beef);
        assert_eq!(decoded.device, 1);
        assert!(decoded.verdict_accel && decoded.cache_hit);
        assert_eq!(decoded.predicted_cpu_s, 1.5);
        assert_eq!(decoded.predicted_accel_s, 0.25);
        assert!(decoded.simulated_s.is_nan());
    }

    #[test]
    fn region_truncates_on_char_boundary() {
        let long = "a".repeat(REGION_BYTES + 10);
        assert_eq!(
            DecisionEvent::new(EventKind::Decide, &long)
                .region_str()
                .len(),
            REGION_BYTES
        );
        // A multi-byte char straddling the boundary is dropped whole.
        let tricky = format!("{}é", "a".repeat(REGION_BYTES - 1));
        let packed = DecisionEvent::new(EventKind::Decide, &tricky);
        assert_eq!(packed.region_str(), &"a".repeat(REGION_BYTES - 1));
    }

    #[test]
    fn ring_keeps_newest_in_seq_order() {
        let r = FlightRecorder::new(4);
        for i in 0..10 {
            r.record(&ev("r", i));
        }
        assert_eq!(r.total_recorded(), 10);
        let got = r.snapshot();
        assert_eq!(got.len(), 4);
        let seqs: Vec<u64> = got.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(got[0].tick, 6);
    }

    #[test]
    fn drain_consumes_and_preserves_totals() {
        let r = FlightRecorder::new(8);
        r.record(&ev("a", 1));
        r.record(&ev("b", 2));
        let drained = r.drain();
        assert_eq!(drained.len(), 2);
        assert!(r.is_empty());
        assert_eq!(r.total_recorded(), 2);
        assert!(r.drain().is_empty());
        r.record(&ev("c", 3));
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    fn event_json_is_wellformed() {
        let j = ev("gemm", 9).to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"kind\":\"decide\""));
        assert!(j.contains("\"region\":\"gemm\""));
        assert!(j.contains("\"simulated_s\":null"));
        assert!(j.contains("\"predicted_accel_s\":0.25"));
    }

    #[test]
    fn disabled_gate_skips_the_build_closure() {
        set_flight_recording(false);
        let ran = StdAtomicBool::new(false);
        record_event(|| {
            ran.store(true, Ordering::Relaxed);
            ev("never", 0)
        });
        assert!(!ran.load(Ordering::Relaxed));
    }

    #[test]
    fn a_lapping_writer_drops_its_event_instead_of_sharing_a_held_slot() {
        let r = FlightRecorder::new(2);
        // Writer 0 claims slot 0 and stalls mid-write.
        let (ticket, held) = r.claim().expect("a fresh slot is free");
        assert_eq!(ticket, 0);
        r.record(&ev("other", 1));
        // The ring laps: ticket 2 maps to the held slot, and its event is
        // dropped. Neither a clear nor a drain frees the held slot.
        r.clear();
        assert!(r.drain().is_empty());
        r.record(&ev("lapper", 2));
        assert_eq!(r.total_recorded(), 3);
        assert!(r.is_empty(), "a held slot counts as no event");
        assert!(r.snapshot().is_empty());
        FlightRecorder::publish(held, ticket, &ev("held", 7));
        let got = r.snapshot();
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].seq, got[0].encode()), (0, ev("held", 7).encode()));
    }

    /// Writers that lap each other on a 4-slot ring, beside a reader that
    /// snapshots, drains and clears: no surfaced event mixes the words of
    /// two writes.
    #[test]
    #[ignore = "release-mode stress soak (CI: --ignored stress)"]
    fn stress_lapping_writers_never_surface_a_torn_event() {
        const WRITERS: u64 = 4;
        const EVENTS: u64 = 2_000_000;
        let r = Arc::new(FlightRecorder::new(4));
        let done = Arc::new(StdAtomicBool::new(false));
        // Every payload word of writer `t`'s event `i` derives from one
        // stamp, so a mix of two writes cannot decode consistently.
        let whole = |e: &DecisionEvent| {
            let stamp = e.binding_hash;
            e.tick == stamp
                && e.predicted_cpu_s == stamp as f64
                && e.predicted_accel_s == (stamp / 2) as f64
                && e.simulated_s == (stamp % 1_000) as f64
                && e.region_str() == format!("w{}", stamp >> 32)
        };
        let reader = {
            let (r, done) = (Arc::clone(&r), Arc::clone(&done));
            thread::spawn(move || {
                let (mut seen, mut round) = (0u64, 0u64);
                while !done.load(Ordering::Relaxed) {
                    round += 1;
                    let events = if round % 3 == 0 {
                        r.drain()
                    } else {
                        r.snapshot()
                    };
                    for e in &events {
                        assert!(whole(e), "torn event surfaced: {e:?}");
                    }
                    seen += events.len() as u64;
                    if round % 7 == 0 {
                        r.clear();
                    }
                    assert!(r.len() <= r.capacity());
                }
                seen
            })
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                let r = Arc::clone(&r);
                thread::spawn(move || {
                    let region = format!("w{t}");
                    for i in 0..EVENTS {
                        let stamp = t << 32 | i;
                        let mut e = DecisionEvent::new(EventKind::Decide, &region);
                        e.tick = stamp;
                        e.binding_hash = stamp;
                        e.predicted_cpu_s = stamp as f64;
                        e.predicted_accel_s = (stamp / 2) as f64;
                        e.simulated_s = (stamp % 1_000) as f64;
                        r.record(&e);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        assert!(reader.join().unwrap() > 0);
        assert_eq!(r.total_recorded(), WRITERS * EVENTS);
        assert!(r.snapshot().iter().all(whole));
    }

    #[test]
    fn concurrent_writers_and_reader_never_tear() {
        let r = Arc::new(FlightRecorder::new(64));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let r = Arc::clone(&r);
                thread::spawn(move || {
                    for i in 0..5_000u64 {
                        // Each writer stamps a self-consistent pair so a
                        // torn read is detectable.
                        let mut e = ev("stress", i);
                        e.binding_hash = t * 1_000_000 + i;
                        e.predicted_cpu_s = e.binding_hash as f64;
                        r.record(&e);
                    }
                })
            })
            .collect();
        let reader = {
            let r = Arc::clone(&r);
            thread::spawn(move || {
                let mut seen = 0usize;
                for _ in 0..200 {
                    for e in r.snapshot() {
                        assert_eq!(
                            e.predicted_cpu_s, e.binding_hash as f64,
                            "torn event surfaced"
                        );
                        seen += 1;
                    }
                }
                seen
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        assert!(reader.join().unwrap() > 0);
        assert_eq!(r.total_recorded(), 20_000);
    }
}
