//! Memoization of the estimate phase's expensive trio.
//!
//! The Fig. 1 search — and any §3.5 sweep over objective factors —
//! requests the same (cluster set, resource set) synthesis over and
//! over: [`schedule_cluster`](crate::binding::schedule_cluster),
//! [`bind`](crate::binding::bind) and
//! [`utilization`](crate::binding::utilization) do not depend on the
//! objective weights at all, only on the application, the profile, the
//! blocks and the candidate datapath. [`ScheduleCache`] memoizes the
//! trio under a caller-chosen key (the partitioner keys by cluster-id
//! list plus resource-set identity).
//!
//! Concurrency: each key's entry is backed by its own [`OnceLock`], so
//! racing lookups block on the single computation instead of computing
//! twice. Exactly one miss is therefore charged per distinct key no
//! matter how many threads race, which keeps the hit/miss counters —
//! and everything derived from them — deterministic for a fixed
//! workload regardless of thread count.

use std::collections::HashMap;
use std::hash::Hash;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::binding::{Binding, ClusterSchedule, Utilization};
use crate::list::{OpSlot, SchedError};

/// The memoized product of one cluster-on-datapath synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledCluster {
    /// The list schedule of every block.
    pub sched: ClusterSchedule,
    /// The instance binding and `GEQ_RS`.
    pub binding: Binding,
    /// The utilization rate `U_R^core`.
    pub util: Utilization,
}

/// Approximate owned heap footprint of a memoized value, in bytes.
///
/// The artifact store charges every cached entry against a global byte
/// budget; this trait is how [`MemoCache::bytes`] asks a value what it
/// weighs. Implementations count owned allocations (vector capacities,
/// string capacities, map entries at a fixed per-node estimate) — the
/// goal is stable, deterministic accounting for eviction decisions, not
/// allocator-exact numbers.
pub trait HeapBytes {
    /// Owned heap bytes, excluding `size_of::<Self>()` unless noted.
    fn heap_bytes(&self) -> usize;
}

/// Per-entry estimate for one `BTreeMap`/`HashMap` node (key + value +
/// node overhead) used when a container does not expose its capacity.
const MAP_NODE_EST: usize = 48;

impl HeapBytes for ScheduledCluster {
    fn heap_bytes(&self) -> usize {
        let sched = self.sched.blocks.capacity() * size_of::<corepart_ir::op::BlockId>()
            + self.sched.set_name.capacity()
            + self.sched.schedules.capacity() * size_of::<crate::list::BlockSchedule>()
            + self
                .sched
                .schedules
                .iter()
                .map(|s| s.slots.capacity() * size_of::<OpSlot>())
                .sum::<usize>();
        let binding = self.binding.instances.len() * MAP_NODE_EST
            + self.binding.assignment.len() * MAP_NODE_EST
            + self
                .binding
                .assignment
                .values()
                .map(|v| v.capacity() * size_of::<u32>())
                .sum::<usize>();
        let util = self.util.busy.len() * MAP_NODE_EST;
        size_of::<Self>() + sched + binding + util
    }
}

type Slot<V, E> = Arc<OnceLock<Result<Arc<V>, E>>>;
/// A key's slot and its charge (0 until it completes in a weighing cache).
type Entry<V, E> = (Slot<V, E>, u64);

/// A concurrent, compute-once memo table: each key's value (or error)
/// is computed exactly once, and every later lookup shares the same
/// `Arc`. [`ScheduleCache`] is the instantiation for the schedule trio;
/// the trace-replay engine reuses the same structure for verified runs,
/// keyed by (trace fingerprint, hardware-block set).
///
/// Errors are cached too: a resource set that cannot execute a cluster
/// never will, and greedy growth keeps re-asking about the same
/// infeasible combinations.
///
/// A cache built by [`MemoCache::new`] (values that declare
/// [`HeapBytes`]: the schedule caches and the replay memo) weighs each
/// entry once, as it completes, and keeps the running total that
/// [`MemoCache::bytes`] reads. A [`Default`] cache weighs nothing: the
/// engine's artifact pools, whose entries the store weighs itself.
pub struct MemoCache<K, V, E> {
    map: Mutex<HashMap<K, Entry<V, E>>>,
    /// The charges summed; changed only under the `map` lock.
    bytes: AtomicU64,
    weigh: Option<fn(&V) -> usize>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A concurrent, compute-once cache of [`ScheduledCluster`]s — the
/// schedule-trio instantiation of [`MemoCache`].
pub type ScheduleCache<K> = MemoCache<K, ScheduledCluster, SchedError>;

impl<K, V, E> Default for MemoCache<K, V, E> {
    fn default() -> Self {
        MemoCache {
            map: Mutex::new(HashMap::new()),
            bytes: AtomicU64::new(0),
            weigh: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K, V, E> std::fmt::Debug for MemoCache<K, V, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoCache")
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Fixed bookkeeping charge per cache entry (key, `Arc`, `OnceLock`,
/// hash-map slot) on top of the value's own [`HeapBytes`]. A failed
/// computation is charged the overhead only (the error is small and
/// worth keeping).
pub const CACHE_ENTRY_OVERHEAD: usize = 96;

fn charge<V, E>(weigh: fn(&V) -> usize, result: &Result<Arc<V>, E>) -> u64 {
    (CACHE_ENTRY_OVERHEAD + result.as_ref().map_or(0, |v| weigh(v))) as u64
}

impl<K: Eq + Hash, V, E: Clone> MemoCache<K, V, E> {
    /// Returns the entry for `key`, running `compute` on the first
    /// request. Concurrent lookups of the same key block on the one
    /// computation rather than repeating it; exactly one miss is
    /// charged per distinct key no matter how many threads race.
    ///
    /// # Errors
    ///
    /// The (cached) `E` when the computation failed.
    pub fn get_or_compute<F>(&self, key: K, compute: F) -> Result<Arc<V>, E>
    where
        K: Clone,
        F: FnOnce() -> Result<V, E>,
    {
        let slot: Slot<V, E> = {
            let mut map = self.map.lock().expect("memo cache poisoned");
            match map.get(&key) {
                Some((slot, _)) => Arc::clone(slot),
                None => Arc::clone(&map.entry(key.clone()).or_default().0),
            }
        };
        let mut computed = false;
        let result = slot.get_or_init(|| {
            computed = true;
            compute().map(Arc::new)
        });
        if !computed {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return result.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(weigh) = self.weigh {
            let bytes = charge(weigh, result);
            let mut map = self.map.lock().expect("memo cache poisoned");
            // Unless an eviction or a poisoning replaced it meanwhile.
            if let Some((held, charged)) = map.get_mut(&key) {
                if Arc::ptr_eq(held, &slot) {
                    *charged = bytes;
                    self.bytes.fetch_add(bytes, Ordering::Relaxed);
                }
            }
        }
        result.clone()
    }

    /// Returns `key`'s entry only if its computation already finished.
    /// Charges neither a hit nor a miss — this is a *planning* probe
    /// (the batched replay uses it to split a candidate list into
    /// already-memoized sets and sets worth batching), not a lookup;
    /// the later [`MemoCache::get_or_compute`] that consumes the entry
    /// does the counting.
    pub fn peek(&self, key: &K) -> Option<Result<Arc<V>, E>> {
        self.map
            .lock()
            .expect("memo cache poisoned")
            .get(key)
            .and_then(|(slot, _)| slot.get())
            .cloned()
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the computation (= distinct keys seen).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct keys stored.
    pub fn len(&self) -> usize {
        self.map.lock().expect("memo cache poisoned").len()
    }

    /// Drops `key`'s entry and its charge, forcing the next
    /// [`MemoCache::get_or_compute`] to recompute (and charge a miss).
    /// Returns whether an entry was present.
    ///
    /// This is the primitive of the artifact store's budget path: an
    /// evicted entry is recomputed bit-identically on the next request
    /// — never served stale — because every cached value is a pure
    /// function of its key. The conformance harness uses the same hook
    /// for fault injection.
    pub fn evict(&self, key: &K) -> bool {
        let mut map = self.map.lock().expect("memo cache poisoned");
        let removed = map.remove(key);
        if let Some((_, charged)) = removed {
            self.bytes.fetch_sub(charged, Ordering::Relaxed);
        }
        removed.is_some()
    }

    /// Fault-injection hook for the conformance harness: installs a
    /// pre-resolved entry for `key`, replacing any existing one. Later
    /// lookups are served the poisoned value (charged as hits) — the
    /// harness uses this to prove its differential oracles detect a
    /// cache serving wrong values. [`peek`](MemoCache::peek) serves it
    /// too, so in a schedule cache a poisoned single-cluster entry also
    /// flows into every multi-cluster entry merged from it afterwards
    /// ([`merge_trios`](crate::binding::merge_trios)).
    pub fn poison(&self, key: K, value: V) {
        let value = Ok(Arc::new(value));
        let bytes = self.weigh.map_or(0, |weigh| charge(weigh, &value));
        let mut map = self.map.lock().expect("memo cache poisoned");
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        if let Some((_, charged)) = map.insert(key, (Arc::new(OnceLock::from(value)), bytes)) {
            self.bytes.fetch_sub(charged, Ordering::Relaxed);
        }
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Eq + Hash, V: HeapBytes, E: Clone> MemoCache<K, V, E> {
    /// An empty cache that weighs its values by [`HeapBytes`].
    pub fn new() -> Self {
        MemoCache {
            weigh: Some(V::heap_bytes),
            ..Self::default()
        }
    }

    /// Accounted bytes of every completed entry: the running total of
    /// their [`CACHE_ENTRY_OVERHEAD`] plus each successful value's
    /// [`HeapBytes`].
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::{bind, schedule_cluster, utilization};
    use corepart_ir::interp::Interpreter;
    use corepart_ir::lower::lower;
    use corepart_ir::parser::parse;
    use corepart_tech::resource::{ResourceLibrary, ResourceSet};

    fn fixture() -> (
        corepart_ir::cdfg::Application,
        corepart_ir::interp::ExecProfile,
    ) {
        let app = lower(
            &parse(
                r#"app cachetest; var x[32]; var y[32];
                func main() {
                    for (var i = 1; i < 32; i = i + 1) {
                        y[i] = x[i] * 5 + x[i - 1] * 3;
                    }
                    return y[7];
                }"#,
            )
            .unwrap(),
        )
        .unwrap();
        let profile = Interpreter::new(&app).run(1_000_000).unwrap();
        (app, profile)
    }

    #[test]
    fn second_lookup_hits_and_shares_the_value() {
        let (app, profile) = fixture();
        let lib = ResourceLibrary::cmos6();
        let set = &ResourceSet::default_family()[2];
        let blocks = app
            .structure()
            .iter()
            .find(|n| n.is_loop())
            .unwrap()
            .blocks()
            .to_vec();

        let cache: ScheduleCache<u32> = ScheduleCache::new();
        let compute = || {
            let sched = schedule_cluster(&app, &blocks, set, &lib)?;
            let binding = bind(&sched, &lib);
            let util = utilization(&sched, &binding, &profile, &lib);
            Ok(ScheduledCluster {
                sched,
                binding,
                util,
            })
        };
        let first = cache.get_or_compute(7, compute).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let mut ran_again = false;
        let second = cache
            .get_or_compute(7, || {
                ran_again = true;
                unreachable!("cached key must not recompute")
            })
            .unwrap();
        assert!(!ran_again);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&first, &second));
        // The cached trio equals a fresh computation.
        let fresh = schedule_cluster(&app, &blocks, set, &lib).unwrap();
        assert_eq!(first.sched, fresh);
        assert_eq!(first.binding, bind(&fresh, &lib));
        assert_eq!(
            first.util,
            utilization(&fresh, &first.binding, &profile, &lib)
        );
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn peek_serves_completed_entries_without_counting() {
        let cache: MemoCache<u32, u64, SchedError> = MemoCache::default();
        assert!(cache.peek(&9).is_none());
        let stored = cache.get_or_compute(9, || Ok(81)).unwrap();
        let peeked = cache.peek(&9).expect("completed").unwrap();
        assert!(Arc::ptr_eq(&stored, &peeked));
        assert!(cache.peek(&10).is_none());
        // Planning probes leave the counters untouched.
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    #[test]
    fn infeasible_results_are_cached() {
        let (app, _profile) = fixture();
        // An empty resource set cannot execute anything.
        let empty = ResourceSet::builder("empty").build();
        let lib = ResourceLibrary::cmos6();
        let blocks = app
            .structure()
            .iter()
            .find(|n| n.is_loop())
            .unwrap()
            .blocks()
            .to_vec();

        let cache: ScheduleCache<&str> = ScheduleCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let r = cache.get_or_compute("empty", || {
                calls += 1;
                let sched = schedule_cluster(&app, &blocks, &empty, &lib)?;
                let binding = bind(&sched, &lib);
                unreachable!("{binding:?}")
            });
            assert!(r.is_err());
        }
        assert_eq!(calls, 1);
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }

    /// A payload with a known, controllable heap footprint.
    #[derive(Debug, Clone, PartialEq)]
    struct Blob(Vec<u8>);

    impl HeapBytes for Blob {
        fn heap_bytes(&self) -> usize {
            self.0.capacity()
        }
    }

    #[test]
    fn bytes_counts_completed_values_plus_overhead() {
        let cache: MemoCache<u32, Blob, SchedError> = MemoCache::new();
        assert_eq!(cache.bytes(), 0);
        cache
            .get_or_compute(1, || Ok(Blob(Vec::with_capacity(1000))))
            .unwrap();
        cache
            .get_or_compute(2, || Ok(Blob(Vec::with_capacity(500))))
            .unwrap();
        assert_eq!(
            cache.bytes(),
            (1000 + 500 + 2 * CACHE_ENTRY_OVERHEAD) as u64
        );
        // Errors are charged bookkeeping overhead only.
        let _ = cache.get_or_compute(3, || {
            Err(SchedError::NoResource {
                class: corepart_tech::resource::OpClass::Multiply,
                set: "none".into(),
            })
        });
        assert_eq!(
            cache.bytes(),
            (1000 + 500 + 3 * CACHE_ENTRY_OVERHEAD) as u64
        );
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn evicted_entry_recomputes_identically_and_releases_bytes() {
        let cache: MemoCache<u32, Blob, SchedError> = MemoCache::new();
        let first = cache.get_or_compute(7, || Ok(Blob(vec![42; 64]))).unwrap();
        let full = cache.bytes();
        assert!(full > CACHE_ENTRY_OVERHEAD as u64);

        // The budget path drops the entry; accounted bytes fall to zero
        // and the next lookup recomputes (a fresh miss, never stale).
        assert!(cache.evict(&7));
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.len(), 0);
        assert!(!cache.evict(&7), "double evict finds nothing");

        let mut recomputed = false;
        let second = cache
            .get_or_compute(7, || {
                recomputed = true;
                Ok(Blob(vec![42; 64]))
            })
            .unwrap();
        assert!(recomputed, "evicted key must recompute");
        assert_eq!(*first, *second, "recomputation is bit-identical");
        assert!(!Arc::ptr_eq(&first, &second), "fresh allocation");
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.bytes(), full, "same value, same accounting");
    }

    #[test]
    fn poisoned_entry_is_flushed_by_eviction() {
        let cache: MemoCache<u32, Blob, SchedError> = MemoCache::new();
        cache.get_or_compute(5, || Ok(Blob(vec![1; 16]))).unwrap();
        // Poison with a wrong value (and a different footprint): served
        // as a hit, and visible to the byte ledger.
        cache.poison(5, Blob(vec![9; 32]));
        let poisoned = cache
            .get_or_compute(5, || unreachable!("poisoned key must not recompute"))
            .unwrap();
        assert_eq!(poisoned.0, vec![9; 32]);
        assert_eq!(cache.bytes(), (32 + CACHE_ENTRY_OVERHEAD) as u64);
        // Budget eviction flushes the poison: the next lookup recomputes
        // the true value instead of serving the stale one.
        assert!(cache.evict(&5));
        let healed = cache.get_or_compute(5, || Ok(Blob(vec![1; 16]))).unwrap();
        assert_eq!(healed.0, vec![1; 16]);
    }

    /// The walk `bytes()` replaced, kept as the reference: every stored
    /// key's overhead plus each completed `Ok` value's weight.
    fn walked_bytes(cache: &MemoCache<u32, Blob, SchedError>) -> u64 {
        let map = cache.map.lock().unwrap();
        map.values()
            .map(|(slot, _)| {
                let value = match slot.get() {
                    Some(Ok(v)) => v.heap_bytes(),
                    _ => 0,
                };
                (CACHE_ENTRY_OVERHEAD + value) as u64
            })
            .sum()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// After every step of a random sequence of successful and
        /// failed computations, evictions and poisonings, the running
        /// total equals the walk.
        #[test]
        fn running_total_equals_the_walk_after_every_step(
            ops in proptest::collection::vec((0u32..4, 0u32..6, 0usize..300), 1..80),
        ) {
            let cache: MemoCache<u32, Blob, SchedError> = MemoCache::new();
            for (op, key, size) in ops {
                match op {
                    0 => {
                        let _ = cache.get_or_compute(key, || Ok(Blob(Vec::with_capacity(size))));
                    }
                    1 => {
                        let _ = cache.get_or_compute(key, || {
                            Err(SchedError::NoResource {
                                class: corepart_tech::resource::OpClass::Multiply,
                                set: "none".into(),
                            })
                        });
                    }
                    2 => {
                        cache.evict(&key);
                    }
                    _ => cache.poison(key, Blob(Vec::with_capacity(size))),
                }
                proptest::prop_assert_eq!(cache.bytes(), walked_bytes(&cache));
            }
        }
    }
}
