//! The sharded, budgeted, warm artifact store behind `corepart serve`.
//!
//! An [`ArtifactStore`] keeps [`Engine`] pools alive across a request
//! stream so repeated fingerprints skip preparation and the baseline
//! simulation — the two stages that dominate a cold run. Three design
//! rules shape it:
//!
//! * **Sharding.** The `(application, workload)` fingerprint space is
//!   split across `S` shards, each owning a full [`Engine`] (its own
//!   slice of the prepared-app / baseline+trace / schedule-cache
//!   pools). A request locks only its shard's ledger — a memo hit
//!   from the connection reader that looked it up, a compute from the
//!   shard's one serve worker — so there is no global lock on the hot
//!   lookup path; the only store-global state is a
//!   pair of atomics (byte ledger total and LRU clock).
//! * **Byte budget.** Every pool entry is charged its measured
//!   `heap_bytes()` against one store-wide budget (the per-run
//!   `trace_cap_bytes` idea promoted to a per-store budget). The
//!   reserve path is compare-and-swap — accounted bytes can never
//!   exceed the budget, even across racing shards.
//! * **Settle by key.** A computed request uses three pool entries, the
//!   prepared app, baseline and schedule cache of its identity under
//!   the shard engine's stage hashes. One ledger pass after the compute
//!   admits, touches and re-measures those three (a read: memos keep
//!   running byte totals) and admits the result text. It walks no other
//!   entry, so its cost does not grow with what the store holds.
//! * **LRU + admission control.** When a reservation fails, the shard
//!   evicts its own least-recently-used *cold* entries first. Hot
//!   entries (touched by `HOT_TOUCHES` or more requests) are
//!   never evicted to admit a cold, first-time artifact — a one-shot
//!   trace cannot flush a hot baseline; the newcomer is declined
//!   instead (computed, served, and dropped). Ties are broken by
//!   the entries' keys so eviction order never depends on hash-map
//!   iteration order.
//! * **Result memoization.** The whole flow is deterministic, so the
//!   store also memoizes the rendered `result` payload per *exact*
//!   request ([`ArtifactStore::memoized_result`]): a repeated request
//!   is answered by a map lookup without touching the engine at all.
//!   The map is keyed by a [`ResultKey`]'s precomputed `bucket` hash,
//!   and the exact key text is compared within the bucket, so a resize
//!   rehashes no text and no answer is ever served by hash alone.
//!   Result entries live in the same byte ledger under the same
//!   budget/LRU/admission rules (each holds its request key once, next
//!   to its text); only result-missing requests (new knobs on a warm
//!   app) touch — and thereby keep hot — the underlying artifacts.
//!
//! Evicted entries are recomputed bit-identically on the next request
//! — every artifact is a pure function of its key (see
//! [`MemoCache::evict`](corepart_sched::cache::MemoCache::evict)).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::engine::{ArtifactKind, Engine, PoolKey};
use crate::error::CorepartError;
use crate::system::SystemConfig;

/// Construction knobs of an [`ArtifactStore`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Fingerprint shards (= warm engines = serve worker threads).
    pub shards: usize,
    /// Store-wide byte budget over all accounted artifacts.
    pub budget_bytes: u64,
}

/// Touch count from which an entry counts as *hot* (protected from
/// eviction by cold, first-time admissions).
const HOT_TOUCHES: u64 = 2;

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            shards: 4,
            budget_bytes: 128 << 20,
        }
    }
}

/// The key of one memoized serve `result`: the exact request text,
/// plus two hashes of it (the serve layer builds it, for a request line
/// in the pass that reads the line; see `serve::KeyWriter`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultKey {
    /// The shard-routing fingerprint: which shard holds the entry.
    pub(crate) fingerprint: u64,
    /// The entry's bucket in the shard's result map. Equal texts must
    /// carry equal buckets; unequal texts may share one, since the text
    /// itself is compared within the bucket.
    pub(crate) bucket: u64,
    /// The exact key text. A result is only ever served to a request
    /// whose text equals the one it was computed for.
    pub(crate) text: String,
}

/// Ledger key of one accounted entry: an engine pool entry, or a
/// memoized serve `result` by its bucket and exact request text (`S`
/// is `&str` while the ledger is scanned, `String` once a victim is
/// chosen). The derived order is the eviction tie-break: artifact kinds
/// first, in ledger order, then results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EntryKey<S = String> {
    Artifact(ArtifactKind, PoolKey),
    Result(u64, S),
}

/// Ledger record of one accounted pool entry.
#[derive(Debug, Clone)]
struct EntryMeta {
    /// Accounted bytes (reserved against the global budget).
    bytes: u64,
    /// Global LRU clock value of the last touching request.
    tick: u64,
    /// Requests that touched this entry.
    touches: u64,
}

/// One memoized serve `result` payload, its exact request key and its
/// ledger record.
#[derive(Debug)]
struct MemoEntry {
    key: String,
    text: Arc<str>,
    meta: EntryMeta,
}

/// One shard's byte ledger: every accounted entry, engine artifacts and
/// memoized results alike, under one LRU.
#[derive(Debug, Default)]
struct Ledger {
    /// Engine pool entries by `(kind, pool key)`.
    artifacts: HashMap<(ArtifactKind, PoolKey), EntryMeta>,
    /// Memoized deterministic serve `result` payloads by
    /// [`ResultKey::bucket`], each bucket's entries told apart by their
    /// exact key text. The key — as large as the request's source — is
    /// held here and nowhere else, and never hashed.
    results: HashMap<u64, Vec<MemoEntry>>,
}

impl Ledger {
    /// The memoized entry of `key`, if any.
    fn result_mut(&mut self, key: &ResultKey) -> Option<&mut MemoEntry> {
        let bucket = self.results.get_mut(&key.bucket)?;
        bucket.iter_mut().find(|memo| memo.key == key.text)
    }

    /// Removes the entry of `text` in `bucket`, returning its record.
    fn remove_result(&mut self, bucket: u64, text: &str) -> Option<EntryMeta> {
        let entries = self.results.get_mut(&bucket)?;
        let at = entries.iter().position(|memo| memo.key == text)?;
        let memo = entries.swap_remove(at);
        if entries.is_empty() {
            self.results.remove(&bucket);
        }
        Some(memo.meta)
    }

    /// Every accounted entry with its record.
    fn entries(&self) -> impl Iterator<Item = (EntryKey<&str>, &EntryMeta)> {
        let artifacts = self
            .artifacts
            .iter()
            .map(|(&(kind, key), e)| (EntryKey::Artifact(kind, key), e));
        let results = self.results.iter().flat_map(|(&bucket, entries)| {
            entries
                .iter()
                .map(move |m| (EntryKey::Result(bucket, m.key.as_str()), &m.meta))
        });
        artifacts.chain(results)
    }
}

/// One shard: a warm engine plus the ledger of its accounted entries.
#[derive(Debug)]
struct StoreShard {
    engine: Engine,
    ledger: Mutex<Ledger>,
    latencies: Mutex<LatencyWindow>,
    requests: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
    declined: AtomicU64,
    /// Jobs currently enqueued on (or being drained by) this shard's
    /// serve worker.
    depth: AtomicU64,
    /// High-water mark of `depth`.
    depth_max: AtomicU64,
}

/// How many of its most recent request latencies a shard keeps for the
/// `stats` percentiles. A constant-size ring: a long-lived daemon's
/// memory and `stats` sort cost stay flat however many requests it
/// answers.
pub const LATENCY_WINDOW: usize = 4096;

/// The last [`LATENCY_WINDOW`] request latencies of one shard, plus
/// the total count of requests ever recorded.
#[derive(Debug, Default)]
struct LatencyWindow {
    samples: Vec<u64>,
    count: u64,
}

impl LatencyWindow {
    fn push(&mut self, nanos: u64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(nanos);
        } else {
            self.samples[(self.count % LATENCY_WINDOW as u64) as usize] = nanos;
        }
        self.count += 1;
    }
}

/// The accounting of one answered request.
#[derive(Debug, Clone, Copy)]
pub struct RequestStats {
    /// The shard that served the request.
    pub shard: usize,
    /// True when the shard already held a memoized result for the
    /// exact request, or a baseline artifact for the request's
    /// `(application, workload)` identity — the expensive work was
    /// served warm.
    pub store_hit: bool,
    /// Wall time of the request inside the store, nanoseconds.
    pub elapsed_nanos: u64,
}

/// Request-latency percentiles (nearest-rank) over each shard's last
/// [`LATENCY_WINDOW`] requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyStats {
    /// Completed requests, all of them (not only the window's).
    pub count: u64,
    /// 50th percentile, nanoseconds.
    pub p50_nanos: u64,
    /// 95th percentile, nanoseconds.
    pub p95_nanos: u64,
    /// 99th percentile, nanoseconds.
    pub p99_nanos: u64,
}

/// A point-in-time snapshot of one shard's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Requests routed to this shard.
    pub requests: u64,
    /// Requests that found their baseline already warm.
    pub hits: u64,
    /// Entries evicted by the budget path.
    pub evictions: u64,
    /// Admissions declined to protect hot entries.
    pub declined: u64,
    /// Accounted entries currently held.
    pub entries: u64,
    /// Accounted bytes currently held.
    pub bytes: u64,
    /// Jobs currently queued on the shard's serve worker.
    pub depth: u64,
    /// High-water mark of the shard's queue depth.
    pub depth_max: u64,
}

/// Pipelining counters over every serve worker: how much of each
/// request's latency was queueing vs compute, and how large the
/// coalesced verify batches ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Total nanoseconds compute jobs spent queued before a worker
    /// picked them up.
    pub queue_wait_nanos: u64,
    /// Total nanoseconds workers spent computing responses.
    pub compute_nanos: u64,
    /// Same-fingerprint verify groups of exactly one request. Only
    /// routed requests drain in groups: a memo hit answered by the
    /// connection reader is in none.
    pub coalesced_k1: u64,
    /// Verify groups coalesced at 2–4 lanes.
    pub coalesced_k2_4: u64,
    /// Verify groups coalesced at 5–16 lanes.
    pub coalesced_k5_16: u64,
}

/// A point-in-time snapshot of the whole store.
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// The configured byte budget.
    pub budget_bytes: u64,
    /// Accounted bytes across all shards (≤ `budget_bytes`, always).
    pub bytes: u64,
    /// Requests served.
    pub requests: u64,
    /// Requests whose baseline was already warm.
    pub hits: u64,
    /// Entries evicted by the budget path, summed over shards.
    pub evictions: u64,
    /// Declined admissions, summed over shards.
    pub declined: u64,
    /// Request-latency percentiles over all shards.
    pub latency: LatencyStats,
    /// Pipelining counters (queue-wait/compute split, coalescing).
    pub pipeline: PipelineStats,
    /// Per-shard counters.
    pub shards: Vec<ShardStats>,
}

impl StoreStats {
    /// Hit rate over all requests, in [0, 1] (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// The warm artifact store: `S` sharded engines behind one byte
/// budget. See the module docs for the sharding/budget/LRU rules.
#[derive(Debug)]
pub struct ArtifactStore {
    shards: Vec<StoreShard>,
    budget: u64,
    /// Accounted bytes across all shards (CAS-reserved, never above
    /// `budget`).
    used: AtomicU64,
    /// Global LRU clock, advanced once per request.
    tick: AtomicU64,
    /// Queue-wait nanoseconds summed over every compute job.
    queue_wait_nanos: AtomicU64,
    /// Compute nanoseconds summed over every compute job.
    compute_nanos: AtomicU64,
    /// Coalesced-verify-group size histogram: K=1 / 2–4 / 5–16+.
    coalesced: [AtomicU64; 3],
}

impl ArtifactStore {
    /// A store of `opts.shards` warm engines over `base` (each shard's
    /// engine owns a clone; per-request configs may still override the
    /// searchable knobs).
    ///
    /// # Errors
    ///
    /// [`CorepartError::Config`] when `base` is invalid or `shards`
    /// is 0.
    pub fn new(base: SystemConfig, opts: &StoreOptions) -> Result<Self, CorepartError> {
        if opts.shards == 0 {
            return Err(CorepartError::Config {
                message: "artifact store needs at least one shard".into(),
            });
        }
        let mut shards = Vec::with_capacity(opts.shards);
        for _ in 0..opts.shards {
            shards.push(StoreShard {
                engine: Engine::new(base.clone())?,
                ledger: Mutex::new(Ledger::default()),
                latencies: Mutex::new(LatencyWindow::default()),
                requests: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                declined: AtomicU64::new(0),
                depth: AtomicU64::new(0),
                depth_max: AtomicU64::new(0),
            });
        }
        Ok(ArtifactStore {
            shards,
            budget: opts.budget_bytes,
            used: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            queue_wait_nanos: AtomicU64::new(0),
            compute_nanos: AtomicU64::new(0),
            coalesced: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        })
    }

    /// The number of fingerprint shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index a fingerprint routes to.
    pub fn shard_of(&self, fingerprint: u64) -> usize {
        (fingerprint % self.shards.len() as u64) as usize
    }

    /// The base configuration every shard engine was built over.
    pub fn base_config(&self) -> &SystemConfig {
        self.shards[0].engine.config()
    }

    /// The warm engine of `fingerprint`'s shard, *without* a settle: the
    /// coalescing prewarm's door. The solo computes that follow a
    /// prewarm on the same worker settle what it published.
    pub fn shard_engine(&self, fingerprint: u64) -> &Engine {
        &self.shards[self.shard_of(fingerprint)].engine
    }

    /// Records one compute job entering shard `shard`'s worker queue.
    pub fn note_enqueued(&self, shard: usize) {
        let s = &self.shards[shard];
        let depth = s.depth.fetch_add(1, Ordering::Relaxed) + 1;
        s.depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records one compute job leaving shard `shard`'s worker queue.
    pub fn note_dequeued(&self, shard: usize) {
        self.shards[shard].depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records one drained same-fingerprint verify group of `group`
    /// requests in the coalescing histogram.
    pub fn note_coalesced(&self, group: usize) {
        let bucket = match group {
            0 | 1 => 0,
            2..=4 => 1,
            _ => 2,
        };
        self.coalesced[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one compute job's queue-wait vs compute latency split.
    pub fn note_request_split(&self, queue_nanos: u64, compute_nanos: u64) {
        self.queue_wait_nanos
            .fetch_add(queue_nanos, Ordering::Relaxed);
        self.compute_nanos
            .fetch_add(compute_nanos, Ordering::Relaxed);
    }

    /// Whether `key`'s shard memoizes a result under it; a probe that
    /// touches and records nothing.
    pub fn holds_result(&self, key: &ResultKey) -> bool {
        let shard = &self.shards[self.shard_of(key.fingerprint)];
        let mut ledger = shard.ledger.lock().expect("shard ledger poisoned");
        ledger.result_mut(key).is_some()
    }

    /// Answers a request from the result memo: the memoized `result`
    /// text under `key` on its shard, if any. This is the store's one
    /// hit path. A hit touches the entry for LRU/heat and is recorded as
    /// a served request and a store hit; a miss changes nothing, so a
    /// caller may look up before it has parsed the request at all.
    pub fn memoized_result(&self, key: &ResultKey) -> Option<(Arc<str>, RequestStats)> {
        let started = Instant::now();
        let shard_idx = self.shard_of(key.fingerprint);
        let shard = &self.shards[shard_idx];
        let text = {
            let mut ledger = shard.ledger.lock().expect("shard ledger poisoned");
            let memo = ledger.result_mut(key)?;
            memo.meta.tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
            memo.meta.touches += 1;
            Arc::clone(&memo.text)
        };
        Some((text, record_request(shard_idx, shard, started, true)))
    }

    /// Runs `f` against the warm engine of `key`'s shard and settles
    /// the request in one ledger pass: the three pool entries of
    /// `identity` (its `(application, workload)` content identity) and,
    /// on success, the `String` half of the output, memoized under
    /// `key`. It always computes: callers look the key up with
    /// [`ArtifactStore::memoized_result`] first.
    ///
    /// Sound because every response `result` is a pure function of the
    /// full request against the store's base configuration, which
    /// `key.text` must encode exactly. The serve layer runs one
    /// worker per shard; other callers may race, and settle under the
    /// shard ledger lock.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns. The ledger is settled either way (a failed
    /// preparation is a memoized pool entry), but no error is memoized
    /// as a result.
    pub fn compute_and_memoize<T>(
        &self,
        identity: u64,
        key: &ResultKey,
        f: impl FnOnce(&Engine) -> Result<(String, T), CorepartError>,
    ) -> (Result<(String, T), CorepartError>, RequestStats) {
        let started = Instant::now();
        let shard_idx = self.shard_of(key.fingerprint);
        let shard = &self.shards[shard_idx];
        let keys = shard.engine.request_keys(identity);
        let [_, baseline, _] = &keys;
        let store_hit = {
            let ledger = shard.ledger.lock().expect("shard ledger poisoned");
            ledger.artifacts.contains_key(baseline)
        };
        let outcome = f(&shard.engine);
        let text = outcome.as_ref().ok().map(|(text, _)| text.as_str());
        self.settle(shard, &keys, text.map(|text| (key, text)));
        (
            outcome,
            record_request(shard_idx, shard, started, store_hit),
        )
    }

    /// Settles one request: each pool entry of `keys` is admitted when
    /// new (or declined), else touched and, if it grows, re-measured;
    /// then `result`, a `(request key, text)`, is admitted.
    fn settle(
        &self,
        shard: &StoreShard,
        keys: &[(ArtifactKind, PoolKey)],
        result: Option<(&ResultKey, &str)>,
    ) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut ledger = shard.ledger.lock().expect("shard ledger poisoned");
        for &(kind, key) in keys {
            let ekey = EntryKey::Artifact(kind, key);
            let grown = match ledger.artifacts.get_mut(&(kind, key)) {
                Some(entry) => {
                    entry.tick = tick;
                    entry.touches += 1;
                    // A prepared app never grows: weighed once, at admission.
                    let grows = kind != ArtifactKind::Prepared;
                    match grows
                        .then(|| shard.engine.artifact_bytes(kind, key))
                        .flatten()
                    {
                        Some(now) if now < entry.bytes => {
                            self.used.fetch_sub(entry.bytes - now, Ordering::Relaxed);
                            entry.bytes = now;
                            None
                        }
                        Some(now) if now > entry.bytes => {
                            Some((now, now - entry.bytes, entry.touches >= HOT_TOUCHES))
                        }
                        _ => None,
                    }
                }
                None => {
                    let Some(bytes) = shard.engine.artifact_bytes(kind, key) else {
                        continue;
                    };
                    if self.reserve_or_evict(shard, &mut ledger, bytes, ekey, false) {
                        let meta = EntryMeta {
                            bytes,
                            tick,
                            touches: 1,
                        };
                        ledger.artifacts.insert((kind, key), meta);
                    } else {
                        // Admission declined: the artifact was
                        // computed and served, but is not worth a hot
                        // entry's seat.
                        shard.engine.evict_artifact(kind, key);
                        shard.declined.fetch_add(1, Ordering::Relaxed);
                    }
                    None
                }
            };
            let Some((now, delta, hot)) = grown else {
                continue;
            };
            if self.reserve_or_evict(shard, &mut ledger, delta, ekey, hot) {
                if let Some(entry) = ledger.artifacts.get_mut(&(kind, key)) {
                    entry.bytes = now;
                }
            } else {
                // The entry outgrew what the budget can host: drop it
                // entirely (releases its old reservation; the delta was
                // never reserved).
                self.evict_entry(shard, &mut ledger, &EntryKey::Artifact(kind, key));
            }
        }
        if let Some((key, text)) = result {
            self.admit_result(shard, &mut ledger, key, text);
        }
    }

    /// Admits one freshly computed result payload to the ledger (or
    /// declines it when only hot entries could make room). It is charged
    /// its key text, its result text and a fixed bookkeeping overhead.
    fn admit_result(&self, shard: &StoreShard, ledger: &mut Ledger, key: &ResultKey, text: &str) {
        /// Map/ledger bookkeeping charge per memoized result.
        const RESULT_OVERHEAD: u64 = 64;
        let bytes = (key.text.len() + text.len()) as u64 + RESULT_OVERHEAD;
        let tick = self.tick.load(Ordering::Relaxed);
        if ledger.result_mut(key).is_some() {
            // A racing identical request already admitted it.
            return;
        }
        let protect = EntryKey::Result(key.bucket, key.text.as_str());
        if self.reserve_or_evict(shard, ledger, bytes, protect, false) {
            let memo = MemoEntry {
                key: key.text.clone(),
                text: text.into(),
                meta: EntryMeta {
                    bytes,
                    tick,
                    touches: 1,
                },
            };
            ledger.results.entry(key.bucket).or_default().push(memo);
        } else {
            shard.declined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// CAS-reserves `need` bytes, evicting this shard's LRU entries
    /// (cold first; hot ones only when `allow_hot`) until the
    /// reservation fits. `protect` is never chosen as a victim. Returns
    /// whether the reservation succeeded; on failure nothing is
    /// reserved (but evictions performed along the way stand).
    fn reserve_or_evict(
        &self,
        shard: &StoreShard,
        ledger: &mut Ledger,
        need: u64,
        protect: EntryKey<&str>,
        allow_hot: bool,
    ) -> bool {
        loop {
            if self.try_reserve(need) {
                return true;
            }
            let Some(victim) = pick_victim(ledger, Some(protect), allow_hot) else {
                return false;
            };
            self.evict_entry(shard, ledger, &victim);
        }
    }

    /// Reserves `need` bytes iff the total stays within budget.
    fn try_reserve(&self, need: u64) -> bool {
        let mut used = self.used.load(Ordering::Relaxed);
        loop {
            if used.saturating_add(need) > self.budget {
                return false;
            }
            match self.used.compare_exchange_weak(
                used,
                used + need,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => used = actual,
            }
        }
    }

    /// Drops one accounted entry: pool, ledger, byte reservation.
    fn evict_entry(&self, shard: &StoreShard, ledger: &mut Ledger, key: &EntryKey) {
        let bytes = match *key {
            EntryKey::Result(bucket, ref text) => {
                ledger.remove_result(bucket, text).map(|meta| meta.bytes)
            }
            EntryKey::Artifact(kind, key) => {
                shard.engine.evict_artifact(kind, key);
                ledger
                    .artifacts
                    .remove(&(kind, key))
                    .map(|entry| entry.bytes)
            }
        };
        if let Some(bytes) = bytes {
            self.used.fetch_sub(bytes, Ordering::Relaxed);
            shard.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time snapshot of hit rates, evictions, occupancy and
    /// latency percentiles.
    pub fn stats(&self) -> StoreStats {
        let mut out = StoreStats {
            budget_bytes: self.budget,
            ..StoreStats::default()
        };
        let mut window = Vec::new();
        for shard in &self.shards {
            let (entries, bytes) = {
                let ledger = shard.ledger.lock().expect("shard ledger poisoned");
                ledger
                    .entries()
                    .fold((0, 0), |(n, bytes), (_, e)| (n + 1, bytes + e.bytes))
            };
            let s = ShardStats {
                requests: shard.requests.load(Ordering::Relaxed),
                hits: shard.hits.load(Ordering::Relaxed),
                evictions: shard.evictions.load(Ordering::Relaxed),
                declined: shard.declined.load(Ordering::Relaxed),
                entries,
                bytes,
                depth: shard.depth.load(Ordering::Relaxed),
                depth_max: shard.depth_max.load(Ordering::Relaxed),
            };
            out.requests += s.requests;
            out.hits += s.hits;
            out.evictions += s.evictions;
            out.declined += s.declined;
            out.bytes += s.bytes;
            out.shards.push(s);
            let latencies = shard.latencies.lock().expect("latency ledger poisoned");
            window.extend_from_slice(&latencies.samples);
            out.latency.count += latencies.count;
        }
        out.latency = LatencyStats {
            count: out.latency.count,
            ..latency_stats(&mut window)
        };
        out.pipeline = PipelineStats {
            queue_wait_nanos: self.queue_wait_nanos.load(Ordering::Relaxed),
            compute_nanos: self.compute_nanos.load(Ordering::Relaxed),
            coalesced_k1: self.coalesced[0].load(Ordering::Relaxed),
            coalesced_k2_4: self.coalesced[1].load(Ordering::Relaxed),
            coalesced_k5_16: self.coalesced[2].load(Ordering::Relaxed),
        };
        out
    }
}

/// Records one answered request in its shard's counters and latency
/// window, and returns its accounting.
fn record_request(
    shard_idx: usize,
    shard: &StoreShard,
    started: Instant,
    store_hit: bool,
) -> RequestStats {
    let elapsed_nanos = started.elapsed().as_nanos() as u64;
    shard
        .latencies
        .lock()
        .expect("latency ledger poisoned")
        .push(elapsed_nanos);
    shard.requests.fetch_add(1, Ordering::Relaxed);
    if store_hit {
        shard.hits.fetch_add(1, Ordering::Relaxed);
    }
    RequestStats {
        shard: shard_idx,
        store_hit,
        elapsed_nanos,
    }
}

/// Deterministic victim selection: the least-recently-used *cold*
/// entry first (touches below `HOT_TOUCHES`); hot entries only when
/// `allow_hot`. Ties on the LRU tick — e.g. two entries admitted by
/// one request — break by the [`EntryKey`] order, never by hash-map
/// iteration order.
fn pick_victim(
    ledger: &Ledger,
    protect: Option<EntryKey<&str>>,
    allow_hot: bool,
) -> Option<EntryKey> {
    let candidate = |hot_pass: bool| {
        ledger
            .entries()
            .filter(|&(key, _)| Some(key) != protect)
            .filter(|(_, e)| (e.touches >= HOT_TOUCHES) == hot_pass)
            .min_by_key(|&(key, e)| (e.tick, key))
            .map(|(key, _)| match key {
                EntryKey::Artifact(kind, key) => EntryKey::Artifact(kind, key),
                EntryKey::Result(bucket, key) => EntryKey::Result(bucket, key.to_owned()),
            })
    };
    candidate(false).or_else(|| if allow_hot { candidate(true) } else { None })
}

/// Nearest-rank percentiles; sorts `samples` in place.
fn latency_stats(samples: &mut [u64]) -> LatencyStats {
    if samples.is_empty() {
        return LatencyStats::default();
    }
    samples.sort_unstable();
    let rank = |p: u64| {
        let n = samples.len() as u64;
        let idx = (p * n).div_ceil(100).max(1) - 1;
        samples[idx.min(n - 1) as usize]
    };
    LatencyStats {
        count: samples.len() as u64,
        p50_nanos: rank(50),
        p95_nanos: rank(95),
        p99_nanos: rank(99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An engine pool entry's ledger key; `identity` names it.
    fn artifact<S>(kind: ArtifactKind, identity: u64) -> EntryKey<S> {
        EntryKey::Artifact(kind, PoolKey { identity, stage: 0 })
    }

    fn ledger_of(entries: &[(EntryKey<&str>, u64, u64)]) -> Ledger {
        let mut ledger = Ledger::default();
        for &(key, tick, touches) in entries {
            let meta = EntryMeta {
                bytes: 100,
                tick,
                touches,
            };
            match key {
                EntryKey::Artifact(kind, key) => {
                    ledger.artifacts.insert((kind, key), meta);
                }
                EntryKey::Result(bucket, key) => {
                    let key = key.to_owned();
                    let text = "".into();
                    let memo = MemoEntry { key, text, meta };
                    ledger.results.entry(bucket).or_default().push(memo);
                }
            }
        }
        ledger
    }

    #[test]
    fn victim_is_lru_cold_with_deterministic_tie_break() {
        use ArtifactKind::{Baseline, Prepared, Schedule};
        // Two cold entries share the oldest tick: the (kind, key) order
        // decides, independent of hash-map iteration order.
        let ledger = ledger_of(&[
            (artifact(Baseline, 2), 1, 1),
            (artifact(Baseline, 1), 1, 1),
            (artifact(Baseline, 3), 2, 1),
        ]);
        for _ in 0..8 {
            let v = pick_victim(&ledger, None, false);
            assert_eq!(v, Some(artifact(Baseline, 1)));
        }
        // Same tick, different kinds: ledger order (Prepared < Baseline
        // < Schedule) breaks the tie.
        let ledger = ledger_of(&[(artifact(Schedule, 7), 5, 0), (artifact(Prepared, 7), 5, 0)]);
        let v = pick_victim(&ledger, None, false);
        assert_eq!(v, Some(artifact(Prepared, 7)));
    }

    #[test]
    fn hot_entries_survive_cold_pressure() {
        use ArtifactKind::Baseline;
        // The hot entry (identity 1) is older (tick 1) than the cold one
        // (identity 2, tick 9): plain LRU would evict it first,
        // admission control does not.
        let ledger = ledger_of(&[(artifact(Baseline, 1), 1, 5), (artifact(Baseline, 2), 9, 1)]);
        assert_eq!(
            pick_victim(&ledger, None, false),
            Some(artifact(Baseline, 2))
        );
        // With only hot entries left, a cold admission finds no victim…
        let ledger = ledger_of(&[(artifact(Baseline, 1), 1, 5)]);
        assert!(pick_victim(&ledger, None, false).is_none());
        // …while a hot requester may reclaim from its peers.
        assert_eq!(
            pick_victim(&ledger, None, true),
            Some(artifact(Baseline, 1))
        );
    }

    #[test]
    fn protected_entry_is_never_the_victim() {
        let only = artifact(ArtifactKind::Baseline, 1);
        let ledger = ledger_of(&[(only, 1, 0)]);
        assert!(pick_victim(&ledger, Some(only), true).is_none());
    }

    #[test]
    fn memoized_results_share_the_lru_with_engine_artifacts() {
        use ArtifactKind::{Baseline, Schedule};
        // An older cold result goes before a younger artifact; on a tie
        // the artifact kinds sort first.
        let req = EntryKey::Result(5, "req");
        let ledger = ledger_of(&[(req, 1, 1), (artifact(Baseline, 1), 2, 1)]);
        let v = pick_victim(&ledger, None, false);
        assert_eq!(v, Some(EntryKey::Result(5, "req".to_owned())));
        let ledger = ledger_of(&[(req, 3, 1), (artifact(Schedule, 1), 3, 1)]);
        let v = pick_victim(&ledger, None, false);
        assert_eq!(v, Some(artifact(Schedule, 1)));
        let v = pick_victim(&ledger, Some(req), false);
        assert_eq!(v, Some(artifact(Schedule, 1)));
    }

    #[test]
    fn result_memo_charges_key_and_text_once_and_evicts_both() {
        let store = ArtifactStore::new(
            SystemConfig::new(),
            &StoreOptions {
                shards: 1,
                budget_bytes: 1000,
            },
        )
        .unwrap();
        // Every key shares one bucket: only the exact text tells them
        // apart.
        let key = |text: String| ResultKey {
            fingerprint: 0,
            bucket: 9,
            text,
        };
        let admit =
            |key: &ResultKey, text: &str| store.settle(&store.shards[0], &[], Some((key, text)));
        let first = key("a".repeat(300));
        admit(&first, "answer");
        assert_eq!(store.used.load(Ordering::Relaxed), 300 + 6 + 64);
        assert!(store.memoized_result(&key("other".into())).is_none());
        assert!(store.memoized_result(&key("a".repeat(299))).is_none());

        // A cold entry makes room for a newcomer: key and text leave
        // together and the whole charge is released.
        let second = key("b".repeat(600));
        admit(&second, "x");
        assert!(store.memoized_result(&first).is_none());
        assert_eq!(store.stats().evictions, 1);
        assert_eq!(store.used.load(Ordering::Relaxed), 600 + 1 + 64);

        // One hit makes it hot: a cold newcomer is declined instead.
        let (text, stats) = store.memoized_result(&second).unwrap();
        assert_eq!(&*text, "x");
        assert!(stats.store_hit);
        admit(&first, "answer");
        assert_eq!(store.stats().declined, 1);
        assert!(store.memoized_result(&first).is_none());
        assert!(store.memoized_result(&second).is_some());
    }

    /// Every request kind the daemon computes, on one shard: after
    /// each, the ledger holds exactly the engine's pool entries, each
    /// charged what a fresh measure gives, and `used` is their sum.
    #[test]
    fn settle_by_key_accounts_every_pool_entry_exactly() {
        use crate::serve::{respond_compute, ComputeKind, ComputeRequest, CorpusMeta};
        use corepart_tech::scaling::OperatingPoint;

        const SRC: &str = r#"app settle; var x[32]; var y[32];
            func main() {
                for (var i = 1; i < 32; i = i + 1) { y[i] = x[i] * 3 + x[i - 1]; }
                return y[9];
            }"#;
        let request = |kind| {
            let mut req = ComputeRequest::new(kind, SRC);
            req.arrays = vec![("x".into(), (0..32).collect())];
            req
        };
        let mut requests = vec![request(ComputeKind::Partition)];
        let mut explore = request(ComputeKind::Explore);
        explore.weights = Some(vec![0.0, 1.0]);
        requests.push(explore);
        let mut verify = request(ComputeKind::Verify);
        verify.clusters = vec![0];
        requests.push(verify.clone());
        verify.clusters = vec![99];
        requests.push(verify);
        let mut corpus = request(ComputeKind::Corpus);
        corpus.weights = Some(vec![0.0, 0.5]);
        corpus.corpus = Some(CorpusMeta {
            index: 0,
            seed: 1,
            name: "settle".into(),
        });
        requests.push(corpus);
        let mut n_max = request(ComputeKind::Partition);
        n_max.n_max = Some(2);
        requests.push(n_max);
        let mut point = request(ComputeKind::Partition);
        point.operating_point = Some(OperatingPoint {
            node_nm: 180,
            vdd: 1.8,
        });
        requests.push(point);

        let store = ArtifactStore::new(
            SystemConfig::new(),
            &StoreOptions {
                shards: 1,
                budget_bytes: 64 << 20,
            },
        )
        .unwrap();
        let shard = &store.shards[0];
        for req in &requests {
            respond_compute(&store, req);
            let ledger = shard.ledger.lock().unwrap();
            for kind in [
                ArtifactKind::Prepared,
                ArtifactKind::Baseline,
                ArtifactKind::Schedule,
            ] {
                let held = ledger.artifacts.keys().filter(|(k, _)| *k == kind).count();
                let pooled = crate::engine::tests::pool_len(&shard.engine, kind);
                assert_eq!(held, pooled, "{kind:?} after {req:?}");
            }
            for (&(kind, key), entry) in &ledger.artifacts {
                let fresh = shard.engine.artifact_bytes(kind, key);
                assert_eq!(Some(entry.bytes), fresh, "{kind:?} after {req:?}");
            }
            let sum: u64 = ledger.entries().map(|(_, e)| e.bytes).sum();
            assert_eq!(store.used.load(Ordering::Relaxed), sum, "after {req:?}");
        }
        assert_eq!(store.stats().declined, 0);
    }

    #[test]
    fn latency_percentiles_nearest_rank() {
        let mut empty: [u64; 0] = [];
        assert_eq!(latency_stats(&mut empty).count, 0);
        let mut one = [7u64];
        let l = latency_stats(&mut one);
        assert_eq!((l.p50_nanos, l.p95_nanos, l.p99_nanos), (7, 7, 7));
        let mut hundred: Vec<u64> = (1..=100).rev().collect();
        let l = latency_stats(&mut hundred);
        assert_eq!(l.count, 100);
        assert_eq!((l.p50_nanos, l.p95_nanos, l.p99_nanos), (50, 95, 99));
    }

    #[test]
    fn latency_window_is_constant_size_and_counts_every_request() {
        let mut window = LatencyWindow::default();
        let total = 3 * LATENCY_WINDOW as u64 + 17;
        for nanos in 0..total {
            window.push(nanos);
        }
        assert_eq!(window.count, total);
        assert_eq!(window.samples.len(), LATENCY_WINDOW);
        assert!(window.samples.capacity() <= 2 * LATENCY_WINDOW);
        // The ring holds exactly the most recent window of samples.
        let mut held = window.samples.clone();
        held.sort_unstable();
        let recent: Vec<u64> = (total - LATENCY_WINDOW as u64..total).collect();
        assert_eq!(held, recent);

        // Through the store: `count` stays exact past the window while
        // the percentiles cover the window only.
        let store = ArtifactStore::new(SystemConfig::new(), &StoreOptions::default()).unwrap();
        for shard in &store.shards {
            let mut latencies = shard.latencies.lock().unwrap();
            for _ in 0..LATENCY_WINDOW + 5 {
                latencies.push(1);
            }
        }
        let l = store.stats().latency;
        assert_eq!(l.count, 4 * (LATENCY_WINDOW as u64 + 5));
        assert_eq!((l.p50_nanos, l.p99_nanos), (1, 1));
    }

    #[test]
    fn budget_reservation_is_a_hard_ceiling() {
        let store = ArtifactStore::new(
            SystemConfig::new(),
            &StoreOptions {
                shards: 1,
                budget_bytes: 1000,
            },
        )
        .unwrap();
        assert!(store.try_reserve(600));
        assert!(!store.try_reserve(600), "601..1200 exceeds the budget");
        assert!(store.try_reserve(400));
        assert!(!store.try_reserve(1));
        store.used.fetch_sub(500, Ordering::Relaxed);
        assert!(store.try_reserve(500));
    }
}
