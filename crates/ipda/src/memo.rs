//! Process-wide memoization of IPDA results.
//!
//! The paper's architecture runs the symbolic analyses **once per kernel at
//! compile time** and stores the results in the program attribute database
//! (Section III). In this reproduction several consumers — the CPU model's
//! vectorization assessment, its TLB estimator, the GPU model's coalescing
//! census and the attribute database itself — each need the same
//! [`KernelAccessInfo`]. Before this module existed every consumer re-ran
//! [`analyze`] from scratch, so a single cold prediction paid for the
//! analysis three times over.
//!
//! [`analyze_cached`] gives all consumers one shared, immutable copy behind
//! an [`Arc`]. The memo is keyed on the kernel's *structure*, not just its
//! name: property tests and fuzzers generate many distinct kernels under the
//! same name, and two structurally different kernels must never share an
//! analysis. Structure is fingerprinted by hashing the kernel's compact
//! snapshot encoding (a `Debug`-rendering hash before that — the snap bytes
//! are ~4× faster to produce and hash, which matters because the compile
//! path fingerprints every kernel several times), and hash buckets are
//! disambiguated by structural equality, so collisions cost a comparison,
//! never a wrong answer. The table is bounded; on overflow it is cleared
//! wholesale, which keeps the worst case simple and is harmless because
//! entries are pure functions of the key.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use hetsel_ir::{Kernel, Snap};

use crate::analysis::{analyze, KernelAccessInfo};

/// Upper bound on memoized kernels. The Polybench suite has a few dozen
/// regions; the bound only matters for generative tests, which would
/// otherwise grow the table without limit.
const MEMO_CAPACITY: usize = 256;

type Bucket = Vec<(Kernel, Arc<KernelAccessInfo>)>;

static MEMO: OnceLock<Mutex<HashMap<u64, Bucket>>> = OnceLock::new();

/// Structural fingerprint of a kernel: the checksum of its snapshot
/// encoding. The encoding is injective over kernel structure (it is what
/// snapshot round-trips rely on), so structurally different kernels get
/// different byte strings; the hash itself is the snapshot checksum family.
fn structural_hash(kernel: &Kernel) -> u64 {
    let mut w = hetsel_ir::SnapWriter::new();
    kernel.snap(&mut w);
    hetsel_ir::snap::checksum(w.bytes())
}

/// Memoized [`analyze`]: returns a shared copy of the IPDA result for this
/// kernel, computing it at most once per distinct kernel structure.
///
/// The returned value is identical to what `analyze(kernel)` would produce;
/// only the sharing differs. A hit allocates one short-lived fingerprint
/// buffer and nothing else.
pub fn analyze_cached(kernel: &Kernel) -> Arc<KernelAccessInfo> {
    let key = structural_hash(kernel);
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    {
        let map = memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(bucket) = map.get(&key) {
            if let Some((_, hit)) = bucket.iter().find(|(k, _)| k == kernel) {
                hetsel_obs::static_counter!("hetsel.ipda.memo.hit").inc();
                return Arc::clone(hit);
            }
        }
    }
    hetsel_obs::static_counter!("hetsel.ipda.memo.miss").inc();
    // Analyze outside the lock; a racing thread may duplicate the work but
    // the results are equal and only one lands in the table.
    let info = {
        let _timer = hetsel_obs::static_histogram!("hetsel.ipda.analyze.ns").start_timer();
        Arc::new(analyze(kernel))
    };
    let mut map = memo
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if map.values().map(Vec::len).sum::<usize>() >= MEMO_CAPACITY {
        map.clear();
    }
    let bucket = map.entry(key).or_default();
    if let Some((_, hit)) = bucket.iter().find(|(k, _)| k == kernel) {
        return Arc::clone(hit);
    }
    bucket.push((kernel.clone(), Arc::clone(&info)));
    info
}

/// Seeds the memo with a precomputed analysis result without running the
/// analysis.
///
/// Used by the snapshot loader: a reloaded attribute database carries each
/// region's [`KernelAccessInfo`], and seeding it here means the first
/// decision after a snapshot load takes the memo hit path instead of paying
/// for a fresh IPDA pass. An entry already present for this kernel structure
/// wins (it is equal by construction — both are pure functions of the
/// kernel), so seeding never replaces live shared state.
pub fn seed(kernel: &Kernel, info: Arc<KernelAccessInfo>) {
    let key = structural_hash(kernel);
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = memo
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if map.values().map(Vec::len).sum::<usize>() >= MEMO_CAPACITY {
        map.clear();
    }
    let bucket = map.entry(key).or_default();
    if bucket.iter().any(|(k, _)| k == kernel) {
        return;
    }
    bucket.push((kernel.clone(), info));
}

/// Empties the memo. For cold-start benchmarks that must measure what a
/// genuinely fresh process pays: the memo is process-global, so without
/// this a second in-process "cold" compile silently reuses the first one's
/// analyses. Correctness is unaffected — entries are pure functions of the
/// kernel and repopulate on demand.
pub fn clear() {
    if let Some(memo) = MEMO.get() {
        memo.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsel_ir::{cexpr, Expr, KernelBuilder, Transfer};

    /// `for (i) a[s*i] = 1.0` with a parallel `i` loop.
    fn tiny_kernel(name: &str, scale: i64) -> Kernel {
        let mut kb = KernelBuilder::new(name);
        let arr = kb.array("a", 8, &[Expr::param("n")], Transfer::Out);
        let i = kb.parallel_loop(0, "n");
        kb.store(arr, &[Expr::var(i) * Expr::Const(scale)], cexpr::lit(1.0));
        kb.end_loop();
        kb.finish()
    }

    #[test]
    fn cached_result_matches_direct_analysis() {
        let k = tiny_kernel("memo_direct", 1);
        let cached = analyze_cached(&k);
        let direct = analyze(&k);
        assert_eq!(cached.kernel, direct.kernel);
        assert_eq!(cached.accesses.len(), direct.accesses.len());
        for (c, d) in cached.accesses.iter().zip(&direct.accesses) {
            assert_eq!(format!("{c:?}"), format!("{d:?}"));
        }
    }

    #[test]
    fn repeated_calls_share_one_allocation() {
        let k = tiny_kernel("memo_shared", 1);
        let a = analyze_cached(&k);
        let b = analyze_cached(&k);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn same_name_different_structure_not_conflated() {
        let unit = tiny_kernel("memo_clash", 1);
        let strided = tiny_kernel("memo_clash", 2);
        let i1 = analyze_cached(&unit);
        let i2 = analyze_cached(&strided);
        assert_ne!(
            format!("{:?}", i1.accesses[0].thread_stride),
            format!("{:?}", i2.accesses[0].thread_stride),
        );
    }
}
