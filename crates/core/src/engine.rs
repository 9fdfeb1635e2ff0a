//! The compile-once decision engine: a [`Selector`] bound to a compiled
//! [`AttributeDatabase`], with a sharded LRU cache of its decisions.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::attributes::{AttributeDatabase, RegionAttributes, RegionId};
use crate::calib::CalibrationMode;
use crate::fleet::DeviceId;
use crate::selector::{Decision, DecisionRequest, Policy, Selector};
use crate::wire::DecisionFields;
use hetsel_ir::{Binding, Kernel};
use hetsel_models::ModelError;
use parking_lot::{Mutex, MutexGuard};

/// Hit/miss statistics and occupancy of a [`DecisionEngine`]'s cache,
/// aggregated over every shard. Counters are shard-local atomics summed at
/// read time — taking a snapshot never stops the world; each shard's lock
/// is taken briefly and one at a time only for `len` and `evictions`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionCacheStats {
    /// Decisions served from the cache.
    pub hits: u64,
    /// Decisions computed by model evaluation.
    pub misses: u64,
    /// Entries currently cached, summed over shards.
    pub len: usize,
    /// Maximum entries the cache holds in total. Sharding never inflates
    /// the memory bound: per-shard capacities sum to exactly this value.
    pub capacity: usize,
    /// Entries evicted to make room since the engine was built.
    pub evictions: u64,
    /// Number of lock-striped shards the cache is split into.
    pub shards: usize,
}

/// Number of parameter slots a [`CacheKey`] stores inline. Polybench
/// regions need at most three; eight covers any realistic region without
/// touching the heap.
const INLINE_KEY_SLOTS: usize = 8;

/// The engine's own configured policy — the default [`CacheKey`]
/// partition every plain `decide`/`decide_for` call lives in.
const OWN_POLICY: u8 = 0;

/// Stable non-zero partition tag for a per-request policy override.
/// Distinct from [`OWN_POLICY`] even when the override names the policy
/// the engine is already configured with: the cheap constant tag keeps
/// the plain path free of a comparison, at the cost of (at most) one
/// duplicate cache entry per key for redundant overrides.
fn policy_code(policy: Policy) -> u8 {
    match policy {
        Policy::AlwaysHost => 1,
        Policy::AlwaysOffload => 2,
        Policy::ModelDriven => 3,
    }
}

/// Key of a cached decision: the region's dense [`RegionId`], the
/// [`DeviceId`] scope the decision was taken under ([`DeviceId::FLEET`]
/// for the default whole-fleet `decide`, a concrete device id for
/// `decide_for`), a policy-partition tag (0 for the engine's configured
/// policy, a [`policy_code`] for per-request overrides), plus the
/// resolved values of exactly the parameters that region requires, in
/// declaration order, with the hash precomputed at construction. Bindings that differ only in irrelevant symbols share an
/// entry; an unbound required parameter is part of the key too (`None`),
/// so fallback decisions are cached with the same fidelity as successful
/// ones.
///
/// Keys with at most [`INLINE_KEY_SLOTS`] parameters are built, hashed and
/// compared without a single heap allocation — this is what makes the
/// cache-hit `decide` path allocation-free. Longer parameter lists spill to
/// a boxed slice.
#[derive(Debug, Clone)]
struct CacheKey {
    region: RegionId,
    /// Decision scope: whole fleet or one device.
    scope: DeviceId,
    /// Policy partition: 0 for the engine's own configured policy, a
    /// [`policy_code`] for a per-request override. Overridden decisions
    /// are cached too, but in their own partition — they can never
    /// answer (or be answered by) a plain request.
    policy: u8,
    /// Calibration epoch the decision was taken under: the calibrator's
    /// epoch in Active mode, 0 otherwise. A published correction bumps
    /// the epoch, so every cached verdict that might depend on it is
    /// lazily invalidated (its key no longer matches) without touching
    /// the cache — and *only* then: per-sample churn never invalidates.
    epoch: u64,
    /// Number of inline slots in use (only meaningful when `spill` is
    /// `None`; always `<= INLINE_KEY_SLOTS`).
    len: u8,
    inline: [Option<i64>; INLINE_KEY_SLOTS],
    spill: Option<Box<[Option<i64>]>>,
    /// FNV-1a over the region id and slots, computed once at construction.
    /// `Hash` writes this value verbatim and shard selection masks it
    /// directly, so a key is hashed exactly once in its life.
    hash: u64,
}

impl CacheKey {
    /// The key of `region`'s decision under a binding given as a lookup:
    /// `binding` returns a parameter's value by name, so a key is built as
    /// well from a [`Binding`] as from a request line's borrowed entries.
    fn new(
        region: RegionId,
        scope: DeviceId,
        policy: u8,
        epoch: u64,
        attrs: &RegionAttributes,
        binding: impl Fn(&str) -> Option<i64>,
    ) -> CacheKey {
        let params = &attrs.required_params;
        let mut inline = [None; INLINE_KEY_SLOTS];
        let mut spill = None;
        if params.len() <= INLINE_KEY_SLOTS {
            for (slot, p) in inline.iter_mut().zip(params) {
                *slot = binding(p);
            }
        } else {
            spill = Some(params.iter().map(|p| binding(p)).collect());
        }
        let mut key = CacheKey {
            region,
            scope,
            policy,
            epoch,
            len: params.len().min(INLINE_KEY_SLOTS) as u8,
            inline,
            spill,
            hash: 0,
        };
        key.hash = key.compute_hash();
        key
    }

    /// The resolved parameter values, in the region's declaration order.
    fn slots(&self) -> &[Option<i64>] {
        match &self.spill {
            Some(slots) => slots,
            None => &self.inline[..self.len as usize],
        }
    }

    fn compute_hash(&self) -> u64 {
        // FNV-1a with the standard constants: cheap, allocation-free, and
        // deterministic within and across processes (shard placement and
        // therefore per-shard accounting are reproducible).
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(PRIME);
        };
        mix(u64::from(self.region.0));
        mix(u64::from(self.scope.0));
        mix(u64::from(self.policy));
        // Folded only when nonzero so epoch-0 keys (Off/Shadow mode, or
        // Active before any publication) hash — and therefore shard —
        // exactly as they did before calibration existed. FNV-1a folds a
        // zero too (the multiply still runs), which would silently reshuffle
        // every cached entry's placement.
        if self.epoch != 0 {
            mix(self.epoch);
        }
        for slot in self.slots() {
            // Distinct tags keep `Some(0)` and `None` from colliding.
            match slot {
                Some(v) => {
                    mix(1);
                    mix(*v as u64);
                }
                None => mix(2),
            }
        }
        // MurmurHash3 finalizer: raw FNV concentrates its entropy in the
        // high bits, but shard selection masks the *low* bits — fmix64
        // gives them full avalanche.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &CacheKey) -> bool {
        self.hash == other.hash
            && self.region == other.region
            && self.scope == other.scope
            && self.policy == other.policy
            && self.epoch == other.epoch
            && self.slots() == other.slots()
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Pass-through hasher for [`CacheKey`]-keyed maps: the key's `hash` field
/// is already a well-mixed 64-bit value (fmix64-finalised FNV-1a), so
/// running it through SipHash again would only add latency to the hot
/// path. `CacheKey::hash` feeds exactly one `write_u64`.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    #[inline]
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("CacheKey hashes via write_u64 only");
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type PrehashedBuild = std::hash::BuildHasherDefault<Prehashed>;

/// Sentinel index for "no node" in the intrusive LRU list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct LruNode {
    key: CacheKey,
    decision: Decision,
    /// The decision's JSON object ([`DecisionFields::write_json`]), sized
    /// to fit: rendered on the entry's first [`CachedDecision::json`] and
    /// dropped with the decision it renders, when a refresh replaces it or
    /// the slot is reused for another key.
    json: Option<Box<[u8]>>,
    prev: u32,
    next: u32,
}

/// A bounded LRU map backed by an intrusive doubly linked list threaded
/// through a slab of nodes: a hit relinks two `u32` indices — no key
/// clone, no queue record, no allocation at all — and an insert at
/// capacity reuses the evicted node's slot, so a full cache stops
/// allocating entirely (each entry's rendering aside, made once per
/// entry). Eviction order is exact LRU.
#[derive(Debug)]
struct LruCache {
    capacity: usize,
    map: HashMap<CacheKey, u32, PrehashedBuild>,
    nodes: Vec<LruNode>,
    free: Vec<u32>,
    /// Most recently used node, or [`NIL`] when empty.
    head: u32,
    /// Least recently used node, or [`NIL`] when empty.
    tail: u32,
    evictions: u64,
}

impl LruCache {
    fn new(capacity: usize) -> LruCache {
        LruCache {
            capacity: capacity.max(1),
            map: HashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            evictions: 0,
        }
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.map.contains_key(key)
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let n = &mut self.nodes[idx as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Finds `key`'s node and makes it the most recently used.
    fn touch(&mut self, key: &CacheKey) -> Option<u32> {
        let idx = *self.map.get(key)?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(idx)
    }

    fn get(&mut self, key: &CacheKey) -> Option<Decision> {
        let idx = self.touch(key)?;
        Some(self.nodes[idx as usize].decision.clone())
    }

    fn insert(&mut self, key: CacheKey, decision: Decision) {
        if let Some(&idx) = self.map.get(&key) {
            // Same key: refresh the value in place and the recency.
            let n = &mut self.nodes[idx as usize];
            n.decision = decision;
            n.json = None;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return;
        }
        while self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "non-empty map must have a tail");
            if lru == NIL {
                break;
            }
            self.unlink(lru);
            self.map.remove(&self.nodes[lru as usize].key);
            self.free.push(lru);
            self.evictions += 1;
            hetsel_obs::static_counter!("hetsel.core.cache.eviction").inc();
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                let n = &mut self.nodes[idx as usize];
                n.key = key.clone();
                n.decision = decision;
                n.json = None;
                idx
            }
            None => {
                let idx = self.nodes.len() as u32;
                self.nodes.push(LruNode {
                    key: key.clone(),
                    decision,
                    json: None,
                    prev: NIL,
                    next: NIL,
                });
                idx
            }
        };
        self.push_front(idx);
        self.map.insert(key, idx);
    }
}

/// Default decision-cache capacity: generous for a program with tens of
/// regions and a handful of binding regimes each.
pub const DEFAULT_DECISION_CACHE: usize = 1024;

/// Default shard count for the decision cache: a power of two sized for the
/// core counts this runtime targets (the build environment is offline, so
/// this is a constant rather than a `num_cpus` probe). Sixteen stripes keep
/// eight to sixteen deciding threads almost always on disjoint locks.
pub const DEFAULT_DECISION_SHARDS: usize = 16;

/// One lock stripe of the sharded cache: a bounded LRU behind its own
/// mutex, with the hit/miss tallies kept *outside* the lock so the
/// aggregated [`DecisionCacheStats`] never needs a stop-the-world pass.
#[derive(Debug)]
struct CacheShard {
    lru: Mutex<LruCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A sharded, lock-striped decision cache: `CacheKey`s are hashed onto a
/// power-of-two number of independent [`LruCache`]s so concurrent
/// `decide()` calls for different keys almost never contend on the same
/// mutex. The total memory bound is unchanged by sharding — per-shard
/// capacities are carved out of the requested capacity and sum to exactly
/// it.
#[derive(Debug)]
struct ShardedCache {
    shards: Box<[CacheShard]>,
    mask: usize,
}

impl ShardedCache {
    /// Builds `shards` stripes (rounded down to a power of two, clamped to
    /// `[1, capacity]` so every shard holds at least one entry and the
    /// stripes sum to exactly `capacity`).
    fn new(capacity: usize, shards: usize) -> ShardedCache {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        // Round down to a power of two so shard selection is a mask.
        let shards = 1usize << shards.ilog2();
        let base = capacity / shards;
        let extra = capacity % shards;
        let stripes: Vec<CacheShard> = (0..shards)
            .map(|i| CacheShard {
                lru: Mutex::new(LruCache::new(base + usize::from(i < extra))),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            })
            .collect();
        ShardedCache {
            shards: stripes.into_boxed_slice(),
            mask: shards - 1,
        }
    }

    /// The shard a key lives in: a mask over the key's precomputed FNV-1a
    /// hash — no hasher runs here, so shard selection costs two
    /// instructions and placement is deterministic within and across
    /// processes.
    fn shard(&self, key: &CacheKey) -> &CacheShard {
        &self.shards[(key.hash as usize) & self.mask]
    }
}

/// Emits one flight-recorder event for an engine verdict. The disabled
/// path is a single relaxed atomic load inside
/// [`hetsel_obs::record_event`] — the closure (and therefore every field
/// read below) runs only while recording is on, and even then allocates
/// nothing: the event is a fixed-size stack value serialized into the
/// recorder's preallocated ring.
#[inline]
fn record_decide_event(decision: &Decision, binding_hash: u64, cache_hit: bool) {
    hetsel_obs::record_event(|| {
        let mut ev =
            hetsel_obs::DecisionEvent::new(hetsel_obs::EventKind::Decide, &decision.region);
        ev.binding_hash = binding_hash;
        ev.device = decision.device_id.0;
        ev.verdict_accel = !decision.device_id.is_host();
        ev.cache_hit = cache_hit;
        ev.predicted_cpu_s = decision.predicted_cpu_s.unwrap_or(f64::NAN);
        ev.predicted_accel_s = decision.predicted_gpu_s.unwrap_or(f64::NAN);
        ev
    });
    // A calibration flip on a *freshly evaluated* verdict gets its own
    // event (cached copies of a flipped decision do not re-announce it):
    // `detail` 1 = the correction was applied (Active), 0 = a shadow-mode
    // would-flip; the predicted fields carry the raw predictions the flip
    // was measured against.
    if !cache_hit {
        if let Some(tag) = decision.calibration.filter(|t| t.flipped) {
            hetsel_obs::record_event(|| {
                let mut ev = hetsel_obs::DecisionEvent::new(
                    hetsel_obs::EventKind::CalibrationFlip,
                    &decision.region,
                );
                ev.binding_hash = binding_hash;
                ev.device = decision.device_id.0;
                ev.verdict_accel = !decision.device_id.is_host();
                ev.detail = u8::from(tag.applied);
                ev.predicted_cpu_s = tag.raw_cpu_s.unwrap_or(f64::NAN);
                ev.predicted_accel_s = tag.raw_gpu_s.unwrap_or(f64::NAN);
                ev
            });
        }
    }
}

/// Counts and flight-records one cache hit served from `shard`. Every hit
/// site goes through here, so a hit is observable the same way whichever
/// path served it.
#[inline]
fn note_hit(shard: &CacheShard, decision: &Decision, key_hash: u64) {
    shard.hits.fetch_add(1, Ordering::Relaxed);
    hetsel_obs::static_counter!("hetsel.core.cache.hit").inc();
    record_decide_event(decision, key_hash, true);
}

/// A region [`DecisionEngine::resolve`] found by name: its dense id and
/// compiled attributes, so one name lookup serves a cache probe and, on a
/// miss, the decision.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedRegion<'e> {
    id: RegionId,
    attrs: &'e RegionAttributes,
}

/// What a [`DecisionEngine::lookup`] found.
#[derive(Debug)]
pub enum Lookup<'e> {
    /// The cache entry holding the decision.
    Hit(CachedDecision<'e>),
    /// Nothing cached under the probed key.
    Miss(CacheMiss<'e>),
}

/// The decision-cache entry a [`DecisionEngine::lookup`] hit, lent under
/// its shard's lock: drop it promptly, and probe or decide nothing else
/// through the engine while holding it.
pub struct CachedDecision<'e> {
    lru: MutexGuard<'e, LruCache>,
    idx: u32,
}

impl CachedDecision<'_> {
    /// The cached decision.
    pub fn decision(&self) -> &Decision {
        &self.lru.nodes[self.idx as usize].decision
    }

    /// The decision's JSON object, as [`DecisionFields::write_json`]
    /// writes it: rendered on the entry's first call and kept with the
    /// entry, so every later hit on it formats nothing.
    pub fn json(&mut self) -> &[u8] {
        let node = &mut self.lru.nodes[self.idx as usize];
        node.json.get_or_insert_with(|| {
            let mut json = Vec::with_capacity(256);
            DecisionFields::from(&node.decision).write_json(&mut json);
            json.into_boxed_slice()
        })
    }
}

impl std::fmt::Debug for CachedDecision<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CachedDecision")
            .field(self.decision())
            .finish()
    }
}

/// A [`DecisionEngine::lookup`] that missed: the key it probed and the
/// policy to decide under, for [`DecisionEngine::decide_miss`].
#[derive(Debug)]
pub struct CacheMiss<'e> {
    key: CacheKey,
    attrs: &'e RegionAttributes,
    policy: Policy,
}

/// The compile-once decision engine: a [`Selector`] bound to a precompiled
/// [`AttributeDatabase`] plus a bounded LRU cache of decisions.
///
/// This is the paper's runtime component in full: regions were compiled
/// once (models, IPDA, loadouts all precomputed); at execution time
/// [`DecisionEngine::decide`] binds the runtime values, and because a
/// program re-reaches the same region with the same extents over and over,
/// the decision itself is memoized on `(region, resolved parameter values)`.
/// Cached and freshly evaluated decisions are identical — the cache stores
/// the full [`Decision`], evidence and errors included.
#[derive(Debug)]
pub struct DecisionEngine {
    selector: Selector,
    database: AttributeDatabase,
    cache: ShardedCache,
}

impl DecisionEngine {
    /// Compiles `kernels` under `selector`'s configuration and wraps the
    /// result with a decision cache of [`DEFAULT_DECISION_CACHE`] entries
    /// striped over [`DEFAULT_DECISION_SHARDS`] shards.
    pub fn new(selector: Selector, kernels: &[Kernel]) -> DecisionEngine {
        DecisionEngine::with_capacity(selector, kernels, DEFAULT_DECISION_CACHE)
    }

    /// As [`DecisionEngine::new`] with an explicit cache capacity
    /// (minimum 1).
    pub fn with_capacity(
        selector: Selector,
        kernels: &[Kernel],
        capacity: usize,
    ) -> DecisionEngine {
        let database = AttributeDatabase::compile(kernels, &selector);
        DecisionEngine::from_database(selector, database, capacity)
    }

    /// Wraps an already-compiled database. The database must have been
    /// compiled with this selector's configuration for decisions to match
    /// cold [`Selector::decide`] calls on the bare kernels.
    pub fn from_database(
        selector: Selector,
        database: AttributeDatabase,
        capacity: usize,
    ) -> DecisionEngine {
        DecisionEngine::from_database_sharded(selector, database, capacity, DEFAULT_DECISION_SHARDS)
    }

    /// As [`DecisionEngine::from_database`] with an explicit shard count.
    /// `shards` is rounded down to a power of two and clamped to
    /// `[1, capacity]`; `shards == 1` reproduces the old single-mutex cache
    /// (the baseline the contention benchmark compares against).
    pub fn from_database_sharded(
        selector: Selector,
        database: AttributeDatabase,
        capacity: usize,
        shards: usize,
    ) -> DecisionEngine {
        DecisionEngine {
            selector,
            database,
            cache: ShardedCache::new(capacity, shards),
        }
    }

    /// The selector the engine decides with.
    pub fn selector(&self) -> &Selector {
        &self.selector
    }

    /// The compiled attribute database.
    pub fn database(&self) -> &AttributeDatabase {
        &self.database
    }

    /// The calibration epoch cache keys are stamped with: the calibrator's
    /// current epoch in Active mode (one relaxed atomic load), 0 in Off
    /// and Shadow modes — those verdicts never depend on corrections, so
    /// their cache entries must survive publications untouched.
    #[inline]
    fn calib_epoch(&self) -> u64 {
        match self.selector.calibration {
            CalibrationMode::Active => self.selector.calibrator.epoch(),
            _ => 0,
        }
    }

    /// Takes (or recalls) the offloading decision for `region` under
    /// `binding`. Returns `None` only for a region the database does not
    /// know. A cached decision is bit-identical to what evaluation would
    /// produce, because the models are deterministic in the key.
    pub fn decide(&self, region: &str, binding: &Binding) -> Option<Decision> {
        let _timer = hetsel_obs::static_histogram!("hetsel.core.decide.ns").start_timer();
        Some(self.decide_resolved(self.resolve(region)?, binding, None))
    }

    /// The engine's one decision path: [`DecisionEngine::lookup`], and on
    /// a miss [`DecisionEngine::decide_miss`]. A hit clones the cached
    /// decision.
    fn decide_resolved(
        &self,
        region: ResolvedRegion<'_>,
        binding: &Binding,
        policy_override: Option<Policy>,
    ) -> Decision {
        match self.lookup(region, |p| binding.get(p), policy_override) {
            Lookup::Hit(cached) => cached.decision().clone(),
            Lookup::Miss(miss) => self.decide_miss(miss, binding),
        }
    }

    /// Inserts the `decision` evaluated for a probe of `key` that missed,
    /// re-probing under the insert lock: another thread may have completed
    /// the same miss while this one was evaluating. The loser takes the
    /// cached copy (bit-identical — the models are deterministic in the
    /// key) and counts a late hit, so `misses == insertions` holds exactly
    /// even under concurrent duplicate misses. Together with
    /// [`DecisionEngine::probe`] it is the only code that takes a decision
    /// from the cache or puts one in, so every decision is counted and
    /// flight-recorded the same way.
    fn insert_miss(&self, key: CacheKey, decision: Decision) -> Decision {
        let shard = self.cache.shard(&key);
        let mut lru = shard.lru.lock();
        if let Some(cached) = lru.get(&key) {
            drop(lru);
            note_hit(shard, &cached, key.hash);
            return cached;
        }
        let binding_hash = key.hash;
        lru.insert(key, decision.clone());
        drop(lru);
        shard.misses.fetch_add(1, Ordering::Relaxed);
        hetsel_obs::static_counter!("hetsel.core.cache.miss").inc();
        record_decide_event(&decision, binding_hash, false);
        decision
    }

    /// Looks `key` up without evaluating anything. A hit is counted and
    /// flight-recorded, and its entry lent under the shard lock; a miss
    /// leaves the cache and its statistics as they were.
    fn probe(&self, key: &CacheKey) -> Option<CachedDecision<'_>> {
        let shard = self.cache.shard(key);
        let mut lru = shard.lru.lock();
        let idx = lru.touch(key)?;
        note_hit(shard, &lru.nodes[idx as usize].decision, key.hash);
        Some(CachedDecision { lru, idx })
    }

    /// Looks `region` up by name, once: the handle serves
    /// [`DecisionEngine::lookup`] and, on a miss,
    /// [`DecisionEngine::decide_miss`] without a second name lookup.
    /// `None` for a region the database does not know.
    pub fn resolve(&self, region: &str) -> Option<ResolvedRegion<'_>> {
        let (id, attrs) = self.database.region_entry(region)?;
        Some(ResolvedRegion { id, attrs })
    }

    /// The key of `region`'s decision under `binding` in the cache
    /// partition of `scope` and `policy_override`, stamped with the
    /// current calibration epoch: the one key builder, shared by
    /// [`DecisionEngine::lookup`], [`DecisionEngine::decide_for`] and
    /// [`DecisionEngine::explain`].
    fn key(
        &self,
        region: ResolvedRegion<'_>,
        scope: DeviceId,
        policy_override: Option<Policy>,
        binding: impl Fn(&str) -> Option<i64>,
    ) -> CacheKey {
        CacheKey::new(
            region.id,
            scope,
            policy_override.map_or(OWN_POLICY, policy_code),
            self.calib_epoch(),
            region.attrs,
            binding,
        )
    }

    /// Probes the cache for a request to `region` with no deadline, keyed
    /// as [`DecisionEngine::decide_request`] keys it: `binding` returns a
    /// parameter's value by name, and `policy_override` picks the cache
    /// partition. A hit is counted and flight-recorded as a hit of
    /// `decide_request`, allocates nothing, and lends the caller the entry
    /// under its shard's lock ([`CachedDecision`]): a caller clones the
    /// decision only if it wants one. A miss evaluates, inserts and counts
    /// nothing; it hands back the key it probed, for
    /// [`DecisionEngine::decide_miss`].
    pub fn lookup<'e>(
        &'e self,
        region: ResolvedRegion<'e>,
        binding: impl Fn(&str) -> Option<i64>,
        policy_override: Option<Policy>,
    ) -> Lookup<'e> {
        let key = self.key(region, DeviceId::FLEET, policy_override, binding);
        match self.probe(&key) {
            Some(cached) => Lookup::Hit(cached),
            None => Lookup::Miss(CacheMiss {
                key,
                attrs: region.attrs,
                policy: policy_override.unwrap_or(self.selector.policy),
            }),
        }
    }

    /// Decides the request whose [`DecisionEngine::lookup`] missed: the
    /// models evaluate `binding`, which must bind the values the probe's
    /// lookup returned, and the decision is cached under the probed key.
    /// Counted and flight-recorded as a miss of
    /// [`DecisionEngine::decide_request`] with no deadline (a late hit
    /// when another thread cached the key meanwhile).
    pub fn decide_miss(&self, miss: CacheMiss<'_>, binding: &Binding) -> Decision {
        let decision = self.selector.decide_under(miss.policy, miss.attrs, binding);
        self.insert_miss(miss.key, decision)
    }

    /// Takes (or recalls) the decision for `region` with the candidate set
    /// restricted to the host plus the one device `device` names
    /// ([`DeviceId::HOST`] restricts to the host alone). Returns `None`
    /// for an unknown region, a device id the fleet does not register, or
    /// an accelerator the database carries no compiled model for.
    ///
    /// Scoped decisions share the engine's cache under a
    /// `(RegionId, DeviceId, values)` key and are as allocation-free on a
    /// hit as [`DecisionEngine::decide`] (proven by
    /// `core/tests/zero_alloc.rs`). With the fleet's primary accelerator
    /// as scope the answer is bit-identical to `decide` on a pair fleet.
    pub fn decide_for(
        &self,
        region: &str,
        binding: &Binding,
        device: DeviceId,
    ) -> Option<Decision> {
        let _timer = hetsel_obs::static_histogram!("hetsel.core.decide.ns").start_timer();
        let region = self.resolve(region)?;
        let scope = if device.is_host() {
            None
        } else {
            let fleet_idx = self.selector.fleet.accel_index(device)?;
            // The database must carry a compiled model for this
            // accelerator (index 0 is `gpu_model`, the rest are extras).
            if fleet_idx > region.attrs.extra_accel_models.len() {
                return None;
            }
            Some(fleet_idx)
        };
        let key = self.key(region, device, None, |p| binding.get(p));
        if let Some(cached) = self.probe(&key) {
            return Some(cached.decision().clone());
        }
        let decision = self
            .selector
            .decide_restricted(region.attrs, binding, scope);
        Some(self.insert_miss(key, decision))
    }

    /// Takes (or recalls) the decision for one [`DecisionRequest`],
    /// honouring its policy override and deadline. Returns `None` only for
    /// a region the database does not know.
    ///
    /// * No override, no deadline: exactly [`DecisionEngine::decide`]
    ///   (cache included) — a plain request adds nothing to the hot path.
    /// * Policy override: decided under the overridden policy in its own
    ///   policy-tagged cache partition — warm, recorded in the flight
    ///   recorder, and never cross-answering a plain request.
    /// * Deadline: a zero budget skips model evaluation entirely; a missed
    ///   budget degrades the reply to the compiler default (offload) with
    ///   [`ModelError::DeadlineExceeded`] recorded on both sides. The
    ///   degraded reply itself is never cached, but a late *computed*
    ///   answer already went into the cache before the budget check, so a
    ///   retry of the same key is a warm hit instead of a second blown
    ///   budget.
    pub fn decide_request(&self, request: &DecisionRequest) -> Option<Decision> {
        self.decide_request_inner(request).map(|(d, _)| d)
    }

    /// Request path with the degrade flag exposed, for the dispatcher: the
    /// `bool` is true iff the decision was deadline-degraded.
    pub(crate) fn decide_request_inner(
        &self,
        request: &DecisionRequest,
    ) -> Option<(Decision, bool)> {
        let deadline = request.deadline();
        if deadline.is_some_and(|d| d.is_zero()) {
            // No budget at all: don't even evaluate.
            return self.degraded(request.region()).map(|d| (d, true));
        }
        // Only a request with a budget reads the clock.
        let budget = deadline.map(|d| (Instant::now(), d));
        let decision = {
            let _timer = hetsel_obs::static_histogram!("hetsel.core.decide.ns").start_timer();
            let region = self.resolve(request.region())?;
            self.decide_resolved(region, request.binding(), request.policy_override())
        };
        // The computed decision is cached above, so a blown budget does
        // not waste the ~µs cold evaluation: the reply degrades, but a
        // retry of the same key is a warm hit.
        if budget.is_some_and(|(start, d)| start.elapsed() > d) {
            return Some((self.deadline_degraded(request.region()), true));
        }
        Some((decision, false))
    }

    /// What a request for `region` decides with no budget at all: the
    /// deadline-degraded compiler default [`DecisionEngine::decide_request`]
    /// returns for a zero deadline, taken from the region's name alone.
    /// `None` for an unknown region.
    pub fn degraded(&self, region: &str) -> Option<Decision> {
        self.database.region(region)?;
        Some(self.deadline_degraded(region))
    }

    /// The decision a deadline miss degrades to: the compiler default
    /// (offload to the primary accelerator; the host for a host-only
    /// fleet) with the reason recorded on both model sides — nothing was
    /// predicted, not because the models failed, but because the budget
    /// ran out before they could answer.
    fn deadline_degraded(&self, region: &str) -> Decision {
        hetsel_obs::static_counter!("hetsel.core.decide.deadline_exceeded").inc();
        let fleet = &self.selector.fleet;
        let (device_id, device_name) = match fleet.primary_accelerator() {
            Some(id) => (
                id,
                fleet.label_arc(id).expect("primary id resolves").clone(),
            ),
            None => (DeviceId::HOST, fleet.host_label_arc().clone()),
        };
        Decision {
            region: Arc::from(region),
            device_id,
            device_name,
            policy: Policy::AlwaysOffload,
            predicted_cpu_s: None,
            predicted_gpu_s: None,
            cpu_error: Some(ModelError::DeadlineExceeded),
            gpu_error: Some(ModelError::DeadlineExceeded),
            calibration: None,
        }
    }

    /// Takes the decision and explains it in the same call: the
    /// explanation is the full evidence behind exactly that decision (see
    /// [`Explanation::describes`](crate::explain::Explanation::describes)).
    /// The decision goes through the cache as usual; the explanation is
    /// always freshly evaluated, with its `cached` flag reporting whether
    /// the decision key now sits in the cache.
    pub fn decide_explained(
        &self,
        region: &str,
        binding: &Binding,
    ) -> Option<(Decision, crate::explain::Explanation)> {
        let decision = self.decide(region, binding)?;
        let explanation = self.explain(region, binding)?;
        Some((decision, explanation))
    }

    /// Produces the full [`Explanation`](crate::explain::Explanation) for a
    /// known region under `binding`, without consulting or populating the
    /// decision cache (the `cached` field reports whether a decision for
    /// this key is currently cached). Returns `None` for an unknown region.
    pub fn explain(&self, region: &str, binding: &Binding) -> Option<crate::explain::Explanation> {
        let region = self.resolve(region)?;
        let mut explanation = self.selector.explain(region.attrs, binding);
        let key = self.key(region, DeviceId::FLEET, None, |p| binding.get(p));
        explanation.cached = self.cache.shard(&key).lru.lock().contains(&key);
        Some(explanation)
    }

    /// Cache statistics so far, aggregated over every shard. Hit and miss
    /// tallies are shard-local atomics summed without taking any lock; each
    /// shard's mutex is held briefly, one at a time, only to read its
    /// occupancy and eviction count.
    pub fn stats(&self) -> DecisionCacheStats {
        let mut stats = DecisionCacheStats {
            hits: 0,
            misses: 0,
            len: 0,
            capacity: 0,
            evictions: 0,
            shards: self.cache.shards.len(),
        };
        for shard in self.cache.shards.iter() {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            let lru = shard.lru.lock();
            stats.len += lru.map.len();
            stats.capacity += lru.capacity;
            stats.evictions += lru.evictions;
        }
        stats
    }

    /// Publishes the current cache statistics as gauges in the process-wide
    /// metrics registry: the aggregates under
    /// `hetsel.core.cache.{hits,misses,len,capacity,evictions,shards}` plus
    /// per-shard occupancy under
    /// `hetsel.core.cache.shard.<i>.{hits,misses,len,evictions}`, so a
    /// metrics snapshot taken by a harness reflects this engine — shard
    /// balance included — without holding a reference to it. Counter values
    /// saturate at `i64::MAX` instead of wrapping negative.
    pub fn publish_stats(&self) -> DecisionCacheStats {
        let stats = self.stats();
        let registry = hetsel_obs::registry();
        registry
            .gauge("hetsel.core.cache.hits")
            .set(saturating_i64(stats.hits));
        registry
            .gauge("hetsel.core.cache.misses")
            .set(saturating_i64(stats.misses));
        registry
            .gauge("hetsel.core.cache.len")
            .set(saturating_i64(stats.len as u64));
        registry
            .gauge("hetsel.core.cache.capacity")
            .set(saturating_i64(stats.capacity as u64));
        registry
            .gauge("hetsel.core.cache.evictions")
            .set(saturating_i64(stats.evictions));
        registry
            .gauge("hetsel.core.cache.shards")
            .set(saturating_i64(stats.shards as u64));
        for (i, shard) in self.cache.shards.iter().enumerate() {
            let (len, evictions) = {
                let lru = shard.lru.lock();
                (lru.map.len() as u64, lru.evictions)
            };
            for (leaf, value) in [
                ("hits", shard.hits.load(Ordering::Relaxed)),
                ("misses", shard.misses.load(Ordering::Relaxed)),
                ("len", len),
                ("evictions", evictions),
            ] {
                registry
                    .gauge(&hetsel_obs::metrics::shard_metric_name(
                        "hetsel.core.cache.shard",
                        i,
                        leaf,
                    ))
                    .set(saturating_i64(value));
            }
        }
        stats
    }
}

/// Narrows a counter value into a gauge without wrapping: values above
/// `i64::MAX` clamp to `i64::MAX` instead of going negative.
fn saturating_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Calibrator;
    use crate::fleet::Fleet;
    use crate::platform::Platform;
    use crate::selector::tests::selector;
    use crate::selector::Device;
    use hetsel_polybench::{find_kernel, Dataset};
    use std::time::Duration;

    fn engine_with(kernels: &[Kernel], capacity: usize) -> DecisionEngine {
        DecisionEngine::with_capacity(selector(), kernels, capacity)
    }

    #[test]
    fn cached_decision_identical_to_uncached() {
        // Acceptance criterion: for every suite kernel, the engine's cached
        // answer equals both its own first (uncached) answer and what a cold
        // selector computes from scratch.
        let kernels: Vec<Kernel> = hetsel_polybench::suite()
            .into_iter()
            .flat_map(|b| b.kernels)
            .collect();
        let engine = DecisionEngine::new(selector(), &kernels);
        let s = selector();
        for bench in hetsel_polybench::suite() {
            for ds in [Dataset::Mini, Dataset::Test, Dataset::Benchmark] {
                let b = (bench.binding)(ds);
                for k in &bench.kernels {
                    let first = engine.decide(&k.name, &b).unwrap();
                    let second = engine.decide(&k.name, &b).unwrap();
                    assert_eq!(first, second, "{} {:?} cache changed answer", k.name, ds);
                    let cold = s.decide(k, &b);
                    assert_eq!(first, cold, "{} {:?} engine != cold path", k.name, ds);
                }
            }
        }
        let stats = engine.stats();
        assert!(
            stats.hits >= stats.misses,
            "every miss was re-hit: {stats:?}"
        );
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        assert!(engine.decide("gemm", &b).is_some());
        assert!(engine.decide("gemm", &b).is_some());
        assert!(engine.decide("gemm", &b).is_some());
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (2, 1, 1));
        // Unknown regions neither decide nor touch the counters.
        assert!(engine.decide("missing", &b).is_none());
        assert_eq!(engine.stats().hits, 2);
    }

    #[test]
    fn distinct_bindings_get_distinct_entries() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let d_small = engine.decide("gemm", &binding(Dataset::Mini)).unwrap();
        let d_large = engine.decide("gemm", &binding(Dataset::Benchmark)).unwrap();
        assert_eq!(engine.stats().misses, 2);
        assert_ne!(d_small.predicted_cpu_s, d_large.predicted_cpu_s);
        // Irrelevant extra symbols do not split the cache key.
        let mut padded = binding(Dataset::Mini);
        padded = padded.with("unrelated", 999);
        let d_padded = engine.decide("gemm", &padded).unwrap();
        assert_eq!(d_padded, d_small);
        assert_eq!(engine.stats().misses, 2);
    }

    #[test]
    fn unresolved_bindings_cache_the_fallback() {
        let (k, _) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let d1 = engine.decide("gemm", &Binding::new()).unwrap();
        let d2 = engine.decide("gemm", &Binding::new()).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(d1.device_id.kind(), Device::Gpu);
        assert!(d1.cpu_error.is_some());
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn cache_stays_bounded_and_evicts_lru() {
        // Recency ordering is a per-stripe guarantee, so this test pins the
        // engine to a single shard to observe it end to end.
        let (k, binding) = find_kernel("gemm").unwrap();
        let sel = selector();
        let db = AttributeDatabase::compile(std::slice::from_ref(&k), &sel);
        let engine = DecisionEngine::from_database_sharded(sel, db, 2, 1);
        let mini = binding(Dataset::Mini);
        let test = binding(Dataset::Test);
        let bench = binding(Dataset::Benchmark);
        engine.decide("gemm", &mini).unwrap();
        engine.decide("gemm", &test).unwrap();
        // Touch `mini` so `test` is the least recently used...
        engine.decide("gemm", &mini).unwrap();
        // ...then overflow: `test` must be the one evicted.
        engine.decide("gemm", &bench).unwrap();
        assert_eq!(engine.stats().len, 2);
        engine.decide("gemm", &mini).unwrap();
        assert_eq!(engine.stats().misses, 3, "mini survived eviction");
        engine.decide("gemm", &test).unwrap();
        assert_eq!(engine.stats().misses, 4, "test was evicted");
        assert!(engine.stats().len <= 2);
        assert!(
            engine.stats().evictions >= 2,
            "both overflows evicted a live entry: {:?}",
            engine.stats()
        );
    }

    #[test]
    fn stats_publish_to_the_metrics_registry() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        engine.decide("gemm", &b).unwrap();
        engine.decide("gemm", &b).unwrap();
        let stats = engine.publish_stats();
        assert_eq!(stats.evictions, 0);
        let registry = hetsel_obs::registry();
        assert_eq!(
            registry.gauge("hetsel.core.cache.hits").get(),
            stats.hits as i64
        );
        assert_eq!(
            registry.gauge("hetsel.core.cache.misses").get(),
            stats.misses as i64
        );
        // (`hetsel.core.cache.len` is also written by concurrent tests'
        // engines, so only the single-writer gauges are asserted on.)
    }

    #[test]
    fn decide_for_restricts_the_candidate_set() {
        let kernels: Vec<Kernel> = vec![find_kernel("gemm").unwrap().0];
        let fleet = Fleet::pair_labeled(&Platform::power9_v100(), "v100")
            .with_accelerator_from("k80", &Platform::power8_k80());
        let sel = Selector::new(Platform::power9_v100()).with_fleet(fleet);
        let engine = DecisionEngine::new(sel, &kernels);
        let (_, binding) = find_kernel("gemm").unwrap();
        let b = binding(Dataset::Benchmark);
        let full = engine.decide("gemm", &b).unwrap();
        // Restricting to the primary accelerator is the classic pair.
        let primary = engine.decide_for("gemm", &b, DeviceId(1)).unwrap();
        assert_eq!(&*primary.device_name, full.device_name.as_ref());
        // A host-scoped decision cannot offload.
        let host = engine.decide_for("gemm", &b, DeviceId::HOST).unwrap();
        assert_eq!(host.device_id.kind(), Device::Host);
        assert!(host.predicted_cpu_s.is_some());
        // The k80 scope carries the true fleet identity.
        let k80 = engine.decide_for("gemm", &b, DeviceId(2)).unwrap();
        if k80.device_id.kind() == Device::Gpu {
            assert_eq!((&*k80.device_name, k80.device_id), ("k80", DeviceId(2)));
        }
        // Scoped and whole-fleet decisions are cached under distinct keys.
        let stats = engine.stats();
        assert_eq!(stats.misses, 4, "{stats:?}");
        assert_eq!(engine.decide_for("gemm", &b, DeviceId(2)).unwrap(), k80);
        assert_eq!(engine.stats().hits, 1);
        // Unregistered ids refuse rather than guess.
        assert!(engine.decide_for("gemm", &b, DeviceId(9)).is_none());
    }

    #[test]
    fn shard_capacities_sum_to_the_requested_capacity() {
        for capacity in [1, 2, 3, 7, 16, 100, 1000, 1024] {
            for shards in [1, 2, 3, 5, 8, 16, 64] {
                let cache = ShardedCache::new(capacity, shards);
                assert!(cache.shards.len().is_power_of_two());
                assert!(cache.shards.len() <= capacity.max(1));
                let total: usize = cache.shards.iter().map(|s| s.lru.lock().capacity).sum();
                assert_eq!(
                    total, capacity,
                    "capacity {capacity} over {shards} shards inflated to {total}"
                );
                assert!(cache.shards.iter().all(|s| s.lru.lock().capacity >= 1));
            }
        }
    }

    #[test]
    fn sharded_engine_reports_shard_count_and_stays_bounded() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 8);
        let stats = engine.stats();
        assert_eq!(stats.shards, 8, "8 entries cap the stripes at 8");
        assert_eq!(stats.capacity, 8);
        // Thrash with far more distinct bindings than capacity.
        let mut base = binding(Dataset::Mini);
        for n in 1..200 {
            base.set("n", n);
            engine.decide("gemm", &base).unwrap();
        }
        let stats = engine.stats();
        assert!(stats.len <= stats.capacity, "{stats:?}");
        assert_eq!(stats.hits + stats.misses, 199, "{stats:?}");
    }

    #[test]
    fn saturating_i64_clamps_instead_of_wrapping() {
        assert_eq!(saturating_i64(0), 0);
        assert_eq!(saturating_i64(42), 42);
        assert_eq!(saturating_i64(i64::MAX as u64), i64::MAX);
        assert_eq!(saturating_i64(i64::MAX as u64 + 1), i64::MAX);
        assert_eq!(saturating_i64(u64::MAX), i64::MAX);
    }

    #[test]
    fn cache_queue_compaction_keeps_hits_working() {
        // Hammer a single entry far past the compaction threshold; the
        // entry must remain a hit throughout and the cache stay bounded.
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 2);
        let b = binding(Dataset::Test);
        for _ in 0..500 {
            assert!(engine.decide("gemm", &b).is_some());
        }
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (499, 1, 1));
    }

    #[test]
    fn plain_requests_match_decide_exactly() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        let request = DecisionRequest::new("gemm", b.clone());
        let via_request = engine.decide_request(&request).unwrap();
        let via_decide = engine.decide("gemm", &b).unwrap();
        assert_eq!(via_request, via_decide);
        // The plain request went through the cache like any decide call.
        assert_eq!(engine.stats().hits, 1);
        // Unknown regions refuse, deadline or not.
        assert!(engine
            .decide_request(&DecisionRequest::new("missing", b.clone()))
            .is_none());
        assert!(engine
            .decide_request(&DecisionRequest::new("missing", b).with_deadline(Duration::ZERO))
            .is_none());
    }

    #[test]
    fn policy_overrides_use_a_scoped_cache_partition() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        let request = DecisionRequest::new("gemm", b.clone()).with_policy(Policy::AlwaysHost);
        let host = engine.decide_request(&request).unwrap();
        assert_eq!(
            (host.device_id.kind(), host.policy),
            (Device::Host, Policy::AlwaysHost)
        );
        // The override populated its own policy partition...
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 1, 1));
        // ...which a repeat of the same override answers warm...
        let again = engine.decide_request(&request).unwrap();
        assert_eq!(again, host);
        assert_eq!(engine.stats().hits, 1);
        // ...while the engine's own policy still evaluates independently:
        // the foreign-policy entry can never answer a plain decide.
        let own = engine.decide("gemm", &b).unwrap();
        assert_eq!(own.policy, Policy::ModelDriven);
        let stats = engine.stats();
        assert_eq!((stats.misses, stats.len), (2, 2));
    }

    #[test]
    fn deadline_missed_computation_is_cached_for_retry() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        // One nanosecond is a budget no cold evaluation can meet, but —
        // unlike zero — it does not short-circuit evaluation, so the
        // computed decision exists by the time the deadline check fires.
        let tight = DecisionRequest::new("gemm", b.clone()).with_deadline(Duration::from_nanos(1));
        let degraded = engine.decide_request(&tight).unwrap();
        assert_eq!(degraded.cpu_error, Some(ModelError::DeadlineExceeded));
        // The blown budget did not waste the evaluation: the computed
        // decision went into the cache before the reply degraded, so the
        // retry (with or without a deadline) is a warm hit.
        assert_eq!((engine.stats().misses, engine.stats().len), (1, 1));
        let retried = engine
            .decide_request(&DecisionRequest::new("gemm", b.clone()))
            .unwrap();
        assert_eq!(engine.stats().hits, 1);
        assert_eq!(retried.policy, Policy::ModelDriven);
        assert_eq!(retried.cpu_error, None);
        // Same story for the override branch: tight-deadline override
        // misses its budget, but warms its policy partition for the retry.
        let tight_host = DecisionRequest::new("gemm", b)
            .with_policy(Policy::AlwaysHost)
            .with_deadline(Duration::from_nanos(1));
        let degraded = engine.decide_request(&tight_host).unwrap();
        assert_eq!(degraded.cpu_error, Some(ModelError::DeadlineExceeded));
        assert_eq!((engine.stats().misses, engine.stats().len), (2, 2));
        let retried = engine
            .decide_request(&tight_host.clone().with_deadline(Duration::from_secs(3600)))
            .unwrap();
        assert_eq!(engine.stats().hits, 2);
        assert_eq!(retried.device_id.kind(), Device::Host);
        assert_eq!(retried.policy, Policy::AlwaysHost);
    }

    #[test]
    fn overridden_decisions_reach_the_flight_recorder() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        hetsel_obs::set_flight_recording(true);
        engine
            .decide_request(&DecisionRequest::new("gemm", b).with_policy(Policy::AlwaysOffload))
            .unwrap();
        hetsel_obs::set_flight_recording(false);
        // The override went through the recorded path: at least one
        // Decide event for this region sits in the (process-global) ring.
        // Other tests may be recording concurrently, so scan rather than
        // count.
        let seen = hetsel_obs::flight_recorder()
            .snapshot()
            .iter()
            .any(|ev| ev.kind == hetsel_obs::EventKind::Decide && ev.region_str() == "gemm");
        assert!(seen, "override emitted no flight-recorder Decide event");
    }

    /// A decision's JSON object, as the renderer writes it.
    fn rendered(decision: &Decision) -> Vec<u8> {
        let mut json = Vec::new();
        DecisionFields::from(decision).write_json(&mut json);
        json
    }

    /// The bytes a `lookup` hit on `region` under `binding` serves; they
    /// must render the entry's own decision.
    fn hit_json(engine: &DecisionEngine, region: &str, binding: &Binding) -> Vec<u8> {
        let region = engine.resolve(region).expect("known region");
        match engine.lookup(region, |p| binding.get(p), None) {
            Lookup::Hit(mut cached) => {
                let json = cached.json().to_vec();
                assert_eq!(json, rendered(cached.decision()));
                json
            }
            Lookup::Miss(_) => panic!("not cached"),
        }
    }

    #[test]
    fn a_refreshed_entry_serves_its_new_decisions_bytes() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        let first = engine.decide("gemm", &b).unwrap();
        assert_eq!(hit_json(&engine, "gemm", &b), rendered(&first));
        // Insert another decision under the cached key: the entry's
        // decision is replaced in place, and its rendering with it.
        let mut replaced = first.clone();
        replaced.device_id = DeviceId::HOST;
        replaced.predicted_cpu_s = first.predicted_cpu_s.map(|s| s / 3.0);
        assert_ne!(rendered(&replaced), rendered(&first));
        let (id, attrs) = engine.database.region_entry("gemm").unwrap();
        let key = CacheKey::new(id, DeviceId::FLEET, OWN_POLICY, 0, attrs, |p| b.get(p));
        engine
            .cache
            .shard(&key)
            .lru
            .lock()
            .insert(key, replaced.clone());
        assert_eq!(engine.stats().len, 1);
        assert_eq!(hit_json(&engine, "gemm", &b), rendered(&replaced));
    }

    #[test]
    fn a_reused_slot_serves_its_new_entrys_bytes() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 1);
        let (mini, test) = (binding(Dataset::Mini), binding(Dataset::Test));
        let evicted = engine.decide("gemm", &mini).unwrap();
        assert_eq!(hit_json(&engine, "gemm", &mini), rendered(&evicted));
        // The one slot goes to the next key, and the rendering it held is
        // freed with the evicted entry.
        let next = engine.decide("gemm", &test).unwrap();
        assert_ne!(rendered(&next), rendered(&evicted));
        {
            let lru = engine.cache.shards[0].lru.lock();
            assert_eq!(lru.nodes.len(), 1, "the slot was reused");
            assert!(lru.nodes[0].json.is_none(), "the old rendering was kept");
        }
        assert_eq!(hit_json(&engine, "gemm", &test), rendered(&next));
        assert_eq!(engine.stats().evictions, 1);
    }

    #[test]
    fn an_active_epoch_bump_serves_the_new_verdicts_bytes() {
        let calibrator = Arc::new(Calibrator::new(crate::calib::CalibratorConfig {
            min_samples: 1,
            ..Default::default()
        }));
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = DecisionEngine::with_capacity(
            selector()
                .with_calibration(CalibrationMode::Active)
                .with_calibrator(Arc::clone(&calibrator)),
            std::slice::from_ref(&k),
            16,
        );
        let b = binding(Dataset::Benchmark);
        let cold = engine.decide("gemm", &b).unwrap();
        let stale = hit_json(&engine, "gemm", &b);
        assert_eq!(stale, rendered(&cold));
        let tag = cold.calibration.expect("active mode tags decisions");
        let raw = tag.raw_cpu_s.expect("fully-bound gemm predicts the host");
        calibrator.observe("gemm", "host", tag.class, raw, raw * 1.5);
        assert!(calibrator.epoch() > 0, "the correction published");
        let corrected = engine.decide("gemm", &b).unwrap();
        assert!(corrected.calibration.expect("tagged").applied);
        let fresh = hit_json(&engine, "gemm", &b);
        assert_ne!(fresh, stale);
        assert_eq!(fresh, rendered(&corrected));
    }

    #[test]
    fn zero_deadline_degrades_to_the_compiler_default() {
        let (k, binding) = find_kernel("gemm").unwrap();
        let engine = engine_with(std::slice::from_ref(&k), 16);
        let b = binding(Dataset::Test);
        let request = DecisionRequest::new("gemm", b).with_deadline(Duration::ZERO);
        let d = engine.decide_request(&request).unwrap();
        assert_eq!(d.device_id.kind(), Device::Gpu);
        assert_eq!(d.policy, Policy::AlwaysOffload);
        assert_eq!(d.cpu_error, Some(ModelError::DeadlineExceeded));
        assert_eq!(d.gpu_error, Some(ModelError::DeadlineExceeded));
        assert_eq!(d.predicted_speedup(), None);
        // Degraded decisions are not cached.
        assert_eq!(engine.stats().len, 0);
        // A generous deadline decides normally.
        let request = request.with_deadline(Duration::from_secs(3600));
        let d = engine.decide_request(&request).unwrap();
        assert_eq!(d.policy, Policy::ModelDriven);
    }
}
