//! The correctness check: every reply is decoded and compared with an
//! in-process `DecisionEngine::decide_request` on the same request, on the
//! same platform the server runs (`Platform::power9_v100()`).

use hetsel_core::{DecisionEngine, Platform, Selector};
use hetsel_ir::Kernel;
use hetsel_serve::ServeReply;

use crate::wire::Exchange;

/// Reply outcomes of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub errored: u64,
    pub missing: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.shed + self.errored + self.missing
    }
}

/// The engine the server runs, built the way `hetsel-serve` builds it.
pub fn reference_engine() -> DecisionEngine {
    let kernels: Vec<Kernel> = hetsel_polybench::all_kernels()
        .into_iter()
        .map(|(_, kernel, _)| kernel)
        .collect();
    DecisionEngine::new(Selector::new(Platform::power9_v100()), &kernels)
}

/// Checks every exchange and tallies outcomes per phase. Returns the
/// tallies (indexed by phase) and one message per mismatch.
pub fn verify(
    exchanges: &[Exchange],
    phases: usize,
    names: &[String],
) -> (Vec<Tally>, Vec<String>) {
    let engine = reference_engine();
    let mut tallies = vec![Tally::default(); phases];
    let mut mismatches = Vec::new();
    for ex in exchanges {
        let tally = &mut tallies[ex.phase];
        tally.sent += 1;
        let Some(line) = &ex.reply else {
            tally.missing += 1;
            continue;
        };
        let id = ex.req.id;
        let reply: ServeReply = match serde_json::from_str(line) {
            Ok(reply) => reply,
            Err(e) => {
                mismatches.push(format!("request {id}: undecodable reply ({e}): {line}"));
                continue;
            }
        };
        if reply.id() != Some(id) {
            mismatches.push(format!("request {id}: reply carries id {:?}", reply.id()));
            continue;
        }
        match reply {
            ServeReply::Ok {
                decision,
                dispatched,
                ..
            } => {
                tally.ok += 1;
                let request = ex.req.decision_request(names);
                let Some(expected) = engine.decide_request(&request) else {
                    mismatches.push(format!("request {id}: in-process engine knows no region"));
                    continue;
                };
                if decision.device_name != *expected.device_name
                    || decision.predicted_cpu_s != expected.predicted_cpu_s
                    || decision.predicted_gpu_s != expected.predicted_gpu_s
                {
                    mismatches.push(format!(
                        "request {id}: wire ({}, {:?}, {:?}) vs in-process ({}, {:?}, {:?})",
                        decision.device_name,
                        decision.predicted_cpu_s,
                        decision.predicted_gpu_s,
                        expected.device_name,
                        expected.predicted_cpu_s,
                        expected.predicted_gpu_s
                    ));
                }
                match (ex.req.dispatch, dispatched) {
                    (true, Some(d)) if d.attempts >= 1 => {}
                    (false, None) => {}
                    (asked, got) => mismatches.push(format!(
                        "request {id}: dispatch asked {asked}, reply evidence {got:?}"
                    )),
                }
            }
            ServeReply::Shed { .. } => tally.shed += 1,
            ServeReply::Error { .. } => tally.errored += 1,
        }
    }
    (tallies, mismatches)
}
