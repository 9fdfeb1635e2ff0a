//! Seeded traffic generator and the workload table.
//!
//! Every request is drawn from generators seeded by `--seed`: a region by
//! Zipf(1.1) popularity over the 24 Polybench regions (in `all_kernels()`
//! order, so the seed changes the draws, not which region is popular), a
//! paper dataset, an optional fresh binding, and the workload's dispatch
//! flag. The same seed always yields the same request sequence, which is
//! what lets the traced run replay the wire run's inputs.
//!
//! Region, dataset and fresh-binding choices are stratified: each walks a Weyl
//! sequence (`phase + k·α mod 1`, with a seeded phase) through the inverse
//! CDF, so any run of a few hundred requests holds each region, each
//! dataset and the fresh share in their exact proportions. Per-region costs differ by four
//! orders of magnitude once requests dispatch (a host simulation takes tens
//! of milliseconds), and i.i.d. draws would make a run's totals depend on
//! how many rare, costly regions the seed happened to draw.

use hetsel_core::DecisionRequest;
use hetsel_ir::Binding;
use hetsel_polybench::{BindingFn, Dataset};
use hetsel_serve::ServeRequest;

/// Zipf exponent of region popularity.
pub const ZIPF_S: f64 = 1.1;

/// Weyl-sequence steps: the golden-ratio conjugate for regions, √2 − 1 for
/// fresh bindings, √3 − 1 for datasets, π − 3 for fresh sizes. Irrational
/// and independent over the rationals, so the sequences are jointly
/// equidistributed.
const REGION_STEP: f64 = 0.618_033_988_749_894_9;
const FRESH_STEP: f64 = 0.414_213_562_373_095_1;
const DATASET_STEP: f64 = 0.732_050_807_568_877_3;
/// π − 3, for the fresh size offset.
const SIZE_STEP: f64 = 0.141_592_653_589_793_1;

/// How a workload's client drives the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// One request in flight over stdio.
    ClosedSeq,
    /// A writer and a reader thread over stdio, up to `depth` in flight.
    ClosedPipe { depth: usize },
    /// Poisson arrivals over TCP connections on a fixed rate ladder.
    OpenLadder { connections: usize },
}

/// One benchmark workload: how it drives the server and what it sends.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub drive: Loop,
    /// Share of requests whose size parameters are drawn fresh from a key
    /// space far larger than the engine's decision cache.
    pub fresh_share: f64,
    /// Share of requests sent with `"dispatch":true`.
    pub dispatch_share: f64,
}

impl Workload {
    pub fn tcp(&self) -> bool {
        matches!(self.drive, Loop::OpenLadder { .. })
    }

    /// Client sessions (stdio sessions or TCP connections) the workload opens.
    pub fn sessions(&self) -> usize {
        match self.drive {
            Loop::OpenLadder { connections } => connections,
            _ => 1,
        }
    }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "stdio-seq-hot",
        drive: Loop::ClosedSeq,
        fresh_share: 0.0,
        dispatch_share: 0.0,
    },
    Workload {
        name: "tcp-open-mixed",
        drive: Loop::OpenLadder { connections: 2 },
        fresh_share: 0.25,
        dispatch_share: 0.0,
    },
    Workload {
        name: "stdio-pipe-dispatch",
        drive: Loop::ClosedPipe { depth: 64 },
        fresh_share: 0.75,
        dispatch_share: 1.0,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// splitmix64: tiny, seedable, and good enough for traffic shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0f4e_75e1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap, seconds, for a Poisson process.
    pub fn exp_gap(&mut self, rate_per_s: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate_per_s
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct GenRequest {
    pub id: u64,
    pub region: usize,
    pub binding: Binding,
    pub dispatch: bool,
}

/// The seeded request stream of one workload.
pub struct Traffic {
    regions: Vec<(String, BindingFn)>,
    cdf: Vec<f64>,
    rng: Rng,
    /// Seeded starting points of the region, fresh-binding and dataset
    /// sequences.
    region_phase: f64,
    fresh_phase: f64,
    dataset_phase: f64,
    size_phase: f64,
    /// Requests drawn by [`Traffic::next`] so far.
    drawn: u64,
    fresh_share: f64,
    dispatch_share: f64,
    next_id: u64,
}

impl Traffic {
    pub fn new(workload: &Workload, seed: u64) -> Traffic {
        let regions: Vec<(String, BindingFn)> = hetsel_polybench::all_kernels()
            .into_iter()
            .map(|(_, kernel, binding)| (kernel.name, binding))
            .collect();
        let weights: Vec<f64> = (1..=regions.len())
            .map(|rank| (rank as f64).powf(-ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut rng = Rng::new(seed);
        Traffic {
            regions,
            cdf,
            region_phase: rng.unit(),
            fresh_phase: rng.unit(),
            dataset_phase: rng.unit(),
            size_phase: rng.unit(),
            rng,
            drawn: 0,
            fresh_share: workload.fresh_share,
            dispatch_share: workload.dispatch_share,
            next_id: 1,
        }
    }

    pub fn region_names(&self) -> Vec<String> {
        self.regions.iter().map(|(name, _)| name.clone()).collect()
    }

    /// A request for `region` under `dataset`. With `grow = Some(f)`, f in
    /// [0, 1), each size parameter v becomes `v + 1 + ⌊f·v/2⌋`: the
    /// paper-scale shape is kept (so no model or simulator leaves its valid
    /// range) while the key space is tens of thousands of bindings, far
    /// beyond DEFAULT_DECISION_CACHE.
    fn request(&mut self, region: usize, dataset: Dataset, grow: Option<f64>) -> GenRequest {
        let mut binding = (self.regions[region].1)(dataset);
        if let Some(f) = grow {
            let params: Vec<(String, i64)> =
                binding.iter().map(|(k, v)| (k.to_string(), v)).collect();
            for (name, value) in params {
                binding.set(name, value + 1 + (f * (value / 2) as f64) as i64);
            }
        }
        let dispatch = self.dispatch_share > 0.0 && self.rng.unit() < self.dispatch_share;
        let id = self.next_id;
        self.next_id += 1;
        GenRequest {
            id,
            region,
            binding,
            dispatch,
        }
    }

    /// The next request of the stream.
    pub fn next(&mut self) -> GenRequest {
        let k = self.drawn as f64;
        self.drawn += 1;
        let u = (self.region_phase + k * REGION_STEP).fract();
        let region = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        let dataset = if (self.dataset_phase + k * DATASET_STEP).fract() < 0.5 {
            Dataset::Test
        } else {
            Dataset::Benchmark
        };
        let fresh = (self.fresh_phase + k * FRESH_STEP).fract() < self.fresh_share;
        let grow = fresh.then(|| (self.size_phase + k * SIZE_STEP).fract());
        self.request(region, dataset, grow)
    }

    /// Warm-up requests: every region under both paper datasets, once each,
    /// so the hot keys are cached before measurement starts.
    pub fn warmup(&mut self) -> Vec<GenRequest> {
        let mut out = Vec::with_capacity(self.regions.len() * 2);
        for region in 0..self.regions.len() {
            for dataset in Dataset::paper_modes() {
                out.push(self.request(region, dataset, None));
            }
        }
        out
    }

    /// Draws Poisson arrivals at `rate` for `secs` seconds: (offset_s, request).
    pub fn arrivals(&mut self, rate: f64, secs: f64) -> Vec<(f64, GenRequest)> {
        let mut out = Vec::with_capacity((rate * secs * 1.1) as usize + 16);
        let mut t = self.rng.exp_gap(rate);
        while t < secs {
            let req = self.next();
            out.push((t, req));
            t += self.rng.exp_gap(rate);
        }
        out
    }
}

impl GenRequest {
    /// The wire line (without the trailing newline).
    pub fn line(&self, regions: &[String]) -> String {
        let mut binding = String::new();
        for (i, (name, value)) in self.binding.iter().enumerate() {
            if i > 0 {
                binding.push(',');
            }
            binding.push_str(&format!("\"{name}\":{value}"));
        }
        format!(
            "{{\"id\":{},\"request\":{{\"region\":\"{}\",\"binding\":{{{}}}}},\"dispatch\":{}}}",
            self.id, regions[self.region], binding, self.dispatch
        )
    }

    pub fn decision_request(&self, regions: &[String]) -> DecisionRequest {
        DecisionRequest::new(regions[self.region].clone(), self.binding.clone())
    }

    pub fn serve_request(&self, regions: &[String]) -> ServeRequest {
        let serve = ServeRequest::new(self.decision_request(regions)).with_id(self.id);
        if self.dispatch {
            serve.with_dispatch()
        } else {
            serve
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let w = workload("tcp-open-mixed").unwrap();
        let (mut a, mut b) = (Traffic::new(&w, 7), Traffic::new(&w, 7));
        let names = a.region_names();
        for _ in 0..500 {
            assert_eq!(a.next().line(&names), b.next().line(&names));
        }
        let mut c = Traffic::new(&w, 8);
        let differ = (0..50).any(|_| a.next().line(&names) != c.next().line(&names));
        assert!(differ, "a different seed draws a different stream");
    }

    #[test]
    fn lines_parse_as_the_requests_they_render() {
        for w in WORKLOADS {
            let mut t = Traffic::new(&w, 3);
            let names = t.region_names();
            assert_eq!(names.len(), 24);
            for _ in 0..200 {
                let r = t.next();
                let parsed = hetsel_serve::parse_request_line(&r.line(&names)).unwrap();
                assert_eq!(parsed, r.serve_request(&names));
            }
        }
    }

    #[test]
    fn shares_and_popularity_follow_the_workload() {
        let w = workload("stdio-pipe-dispatch").unwrap();
        let mut t = Traffic::new(&w, 11);
        let reqs: Vec<GenRequest> = (0..4000).map(|_| t.next()).collect();
        assert!(reqs.iter().all(|r| r.dispatch));
        // Stratified: the rank-1 share is exact to within a request or two.
        let weights: Vec<f64> = (1..=24).map(|k| (k as f64).powf(-ZIPF_S)).collect();
        let expected = weights[0] / weights.iter().sum::<f64>();
        let top = reqs.iter().filter(|r| r.region == 0).count() as f64 / 4000.0;
        assert!(
            (top - expected).abs() < 1e-3,
            "rank-1 share {top} vs {expected}"
        );
        let hot = workload("stdio-seq-hot").unwrap();
        let mut t = Traffic::new(&hot, 11);
        assert!((0..1000).all(|_| !t.next().dispatch));
    }
}
