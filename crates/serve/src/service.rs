//! [`LookupService`]: the request lifecycle — admission, batching,
//! dispatch, writes, response routing, metrics.
//!
//! The paper's interleaving only pays off when lookups arrive in
//! batches large enough to keep a miss in flight per stream; a serving
//! workload instead delivers many small concurrent requests. This
//! module closes that gap with **admission batching**: each shard owns
//! a bounded queue; client threads enqueue one operation and block on
//! a ticket; a per-shard dispatcher thread drains whatever is queued
//! (at most `max_batch` entries) the moment it is free, drives the
//! reads through the morsel-parallel interleaved engine and routes
//! results back through the tickets. Dispatch is **work-conserving**:
//! the dispatcher parks only on an empty queue and never holds a
//! partial batch back. Batches still grow with load, because entries
//! pile up while the previous batch runs — the same leader/follower
//! shape as the WAL's group commit.
//!
//! **Writes ride the same queues.** `put`/`remove` enqueue on the
//! owning shard alongside reads, and the dispatcher preserves FIFO
//! order within a batch: consecutive reads form engine runs, and
//! consecutive writes form **write runs** applied as one
//! [`ShardedStore::apply_write_run`] call — which, on a durable store,
//! is the **group-commit unit**: one WAL record and one fsync cover
//! the whole run before any of its tickets resolve, amortizing the
//! fsync exactly like batching amortizes the interleaved engine. One
//! client's `put` happens-before its next `get` of the same key
//! (read-your-writes per client), and all mutation of a shard funnels
//! through its one dispatcher thread.
//!
//! **`get_many`** pre-partitions a key slice by shard on the client
//! side and submits one admission entry per shard, so an n-key lookup
//! costs one queue round-trip per touched shard instead of n — the
//! client manufactures the batch the engine wants.
//!
//! **`get_range`** rides the same admission queues: one entry per
//! shard, executed in FIFO position (so a client's completed writes
//! are visible to its next scan), each answering with the shard's
//! merge-joined Main/Delta slice; the client reorders the per-shard
//! runs into one sorted result.
//!
//! **Dispatched reads are planned.** Each read run is resolved against
//! the shard's delta before the engine sees it (see [`crate::plan`]):
//! delta-decided keys are answered from the sorted run and only the
//! residual probes the main index. The split shows up in
//! [`ServeStats::delta_hits`] and [`ServeStats::residual_frac`].
//!
//! **Merges never run here.** A threshold-crossing write enqueues a
//! job for the store's background merger thread; the dispatcher
//! applies the write to the delta and moves on, so no request's
//! latency absorbs a rebuild.
//!
//! An optional per-shard **hot-key cache** sits in front of the
//! admission queue: a tiny direct-mapped map filled by the dispatcher
//! with single-`get` results and invalidated by the write path before
//! a write is acknowledged. A hit answers without dispatch.
//!
//! Per-request latency (enqueue → response) is recorded into a
//! log-bucketed [`LatencyHist`], and every dispatched batch's size
//! into the `BatchFlush` trace event, so the batch sizes that load
//! actually produces are observable.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use isi_core::par::ParConfig;
use isi_core::policy::Interleave;
use isi_core::sched::RunStats;
use isi_core::stats::LatencyHist;
use isi_core::sync::{CondvarExt, MutexExt};
use isi_hash::table::HashKey;
use isi_obs::{chrome_trace_json, Counter, Hist, Obs, SpanTimer, Stage, TraceKind};

use crate::store::{LookupScratch, ShardedStore, WriteScratch};

/// Service configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Interleave policy for every dispatched read run: a calibration
    /// (e.g. `isi_search::autotune::autotune_group_size` on a pilot
    /// sample), fixed for the service's lifetime.
    pub policy: Interleave,
    /// Most entries one dispatch drains from a shard's admission
    /// queue (default 64). The dispatcher never waits for a batch to
    /// fill: it takes whatever is queued, up to this cap.
    pub max_batch: usize,
    /// Per-shard admission-queue bound; requests block when the owning
    /// shard's queue is full (backpressure).
    pub queue_cap: usize,
    /// Morsel-engine configuration for each dispatched batch. The
    /// default is one worker per dispatch (the dispatcher thread
    /// itself); raise `threads` only when shards outnumber cores.
    pub par: ParConfig,
    /// Per-shard hot-key cache slots; 0 disables the cache. A hit
    /// answers a `get` without admission; the write path invalidates
    /// a key's slot before the write is acknowledged.
    pub hot_cache_slots: usize,
    /// Per-shard trace-ring capacity for structured events (batch
    /// flushes, merges, WAL syncs, backpressure stalls, …); 0 — the
    /// default — disables tracing entirely, leaving the emit sites as
    /// one relaxed load each. Enables both the service's and the
    /// store's rings; export the merged timeline with
    /// [`LookupService::export_chrome_trace`].
    pub trace_events: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            policy: Interleave::default(),
            max_batch: 64,
            queue_cap: 1024,
            par: ParConfig::with_threads(1),
            hot_cache_slots: 0,
            trace_events: 0,
        }
    }
}

/// A one-shot response slot; the caller blocks on `wait`, the
/// dispatcher fills it with `fulfill`.
struct Ticket<T> {
    slot: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> Ticket<T> {
    fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fulfill(&self, result: T) {
        *self.slot.plock("ticket slot") = Some(result);
        self.ready.notify_one();
    }

    fn wait(&self) -> T {
        let mut slot = self.slot.plock("ticket slot");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.ready.pwait(slot, "ticket slot (await result)");
        }
    }
}

/// The ticket type of one shard's `get_many` slice: one result per
/// submitted key, in submission order.
type ManyTicket = Arc<Ticket<Vec<Option<u64>>>>;

/// The ticket type of one shard's `get_range` slice: that shard's
/// pairs in the range, sorted by key.
type RangeTicket = Arc<Ticket<Vec<(u64, u64)>>>;

/// One queued operation.
enum Op {
    Get {
        key: u64,
        ticket: Arc<Ticket<Option<u64>>>,
    },
    Put {
        key: u64,
        val: u64,
        ticket: Arc<Ticket<Option<u64>>>,
    },
    Remove {
        key: u64,
        ticket: Arc<Ticket<Option<u64>>>,
    },
    /// One shard's slice of a client `get_many` call: all keys route
    /// to this shard; the ticket receives one result per key, in key
    /// order.
    GetMany { keys: Vec<u64>, ticket: ManyTicket },
    /// One shard's slice of a client `get_range` call: the ticket
    /// receives this shard's live pairs with `lo <= key <= hi`,
    /// sorted.
    Range {
        lo: u64,
        hi: u64,
        ticket: RangeTicket,
    },
}

/// One admission entry: the operation and its admission time.
struct Entry {
    op: Op,
    enqueued: Instant,
}

/// The hot-key result cache: direct-mapped, one `(key, result)` pair
/// per slot. Only the shard's dispatcher thread mutates it (inserts
/// after a read run, invalidates when applying a write), so its
/// contents always reflect a prefix of the shard's serialized
/// operation order; clients only probe.
struct HotCache {
    slots: Vec<Option<(u64, Option<u64>)>>,
}

impl HotCache {
    fn new(slots: usize) -> Self {
        Self {
            slots: vec![None; slots],
        }
    }

    /// Slot index: hash bits 16.. keep the map independent of both
    /// shard routing (top bits) and hash-backend bucketing (bits 32..
    /// of the same hash, which matter only inside the backend).
    #[inline]
    fn idx(&self, key: u64) -> usize {
        (key.hash64() >> 16) as usize % self.slots.len()
    }

    fn probe(&self, key: u64) -> Option<Option<u64>> {
        self.slots[self.idx(key)]
            .filter(|&(k, _)| k == key)
            .map(|(_, result)| result)
    }

    fn insert(&mut self, key: u64, result: Option<u64>) {
        let i = self.idx(key);
        self.slots[i] = Some((key, result));
    }

    fn invalidate(&mut self, key: u64) {
        let i = self.idx(key);
        if self.slots[i].is_some_and(|(k, _)| k == key) {
            self.slots[i] = None;
        }
    }
}

/// Mutable queue state behind each shard's mutex.
struct QueueState {
    reqs: VecDeque<Entry>,
    open: bool,
}

/// One shard's admission queue and its wakeup channels.
struct ShardState {
    q: Mutex<QueueState>,
    /// Dispatcher parks here while the queue is empty.
    work: Condvar,
    /// Producers wait here for queue space (backpressure).
    space: Condvar,
    /// Interleaved-engine counters, merged once per read run. A plain
    /// struct behind a small mutex: only this shard's dispatcher
    /// writes it, and [`LookupService::stats`] reads it.
    engine: Mutex<RunStats>,
    /// Registry handles for this shard's counters (see
    /// [`ShardCounters`]); lock-free, so the client cache-hit fast
    /// path never contends with a dispatching batch.
    m: ShardCounters,
    /// `None` when `hot_cache_slots == 0`.
    cache: Option<Mutex<HotCache>>,
}

/// One shard's handles into the service metrics registry, resolved
/// once at start so the hot path never touches the registry lock.
///
/// Registration order is load-bearing (see `isi_obs::registry`): the
/// flush-flavor counters are registered *before* `batches` and the
/// dispatcher bumps `batches` first, so no snapshot can show
/// `full_flushes + timeout_flushes > batches`.
struct ShardCounters {
    full_flushes: Counter,
    timeout_flushes: Counter,
    batches: Counter,
    requests: Counter,
    gets: Counter,
    puts: Counter,
    removes: Counter,
    many_keys: Counter,
    range_scans: Counter,
    delta_hits: Counter,
    cache_hits: Counter,
    /// Per-entry latency (enqueue → response routed), nanoseconds.
    latency: Hist,
}

/// Aggregated service metrics (summed over shards, plus the store's
/// write-side counters).
///
/// **Admission entries vs client calls.** [`requests`](Self::requests)
/// counts *admission entries* — what the dispatchers actually answer.
/// A single-key `get`/`put`/`remove` is one entry; a `get_many` or
/// `get_range` call fans out into one entry *per shard it touches*
/// (so one `get_range` on an 8-shard store adds 8 to `requests` and 8
/// to `range_scans`). Cache hits never reach a queue and are counted
/// only in [`cache_hits`](Self::cache_hits). The client-call view is
/// `gets + cache_hits` single-key reads, `many_keys` keys through
/// `get_many`, plus the write counters.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Admission entries answered (see the type docs: one per shard
    /// touched for `get_many`/`get_range`; cache hits excluded).
    pub requests: u64,
    /// Single-key reads answered via dispatch.
    pub gets: u64,
    /// Upserts applied.
    pub puts: u64,
    /// Removes applied.
    pub removes: u64,
    /// Keys answered through `get_many` entries.
    pub many_keys: u64,
    /// Range-scan admission entries answered (one per shard per
    /// client `get_range` call).
    pub range_scans: u64,
    /// `get`s answered by the hot-key cache, without admission.
    pub cache_hits: u64,
    /// Dispatched read keys decided by the delta in the plan stage —
    /// these never reached the engine.
    pub delta_hits: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Batches dispatched with at least `max_batch` entries queued
    /// (the batch was capped at `max_batch`).
    pub full_flushes: u64,
    /// Batches dispatched with fewer than `max_batch` entries queued
    /// (the batch took the whole queue). The name predates
    /// work-conserving dispatch; no timer is involved.
    pub timeout_flushes: u64,
    /// Per-entry latency (enqueue → response routed), nanoseconds.
    pub latency: LatencyHist,
    /// Merged interleaved-engine counters across all dispatches
    /// (`engine.lookups` counts only residual keys — the batch minus
    /// `delta_hits`).
    pub engine: RunStats,
    /// Delta-to-main merges the store's background merger performed
    /// since build.
    pub merges: u64,
    /// Merge jobs queued or in flight at the moment `stats()` was
    /// called (a point-in-time gauge, not a counter).
    pub merge_backlog: u64,
    /// Merge wall latency (nanoseconds).
    pub merge_latency: LatencyHist,
    /// Current delta entries across all shards of the store (run
    /// lengths summed — an upper bound on distinct overridden keys).
    pub delta_keys: u64,
    /// Delta runs the store's write path published since build (one
    /// per effective shard sub-run of a write run).
    pub delta_runs: u64,
    /// Run-stack folds the write path performed past
    /// `StoreConfig::max_runs` (≤ `delta_runs`).
    pub compactions: u64,
    /// WAL records the store's write path appended (0 with durability
    /// off). Group commit packs a whole write run into one record.
    pub wal_records: u64,
    /// Write-path WAL fsyncs the store issued (0 with durability off
    /// or `FsyncMode::Off`); `wal_records / wal_syncs` ≈ the group
    /// size the fsync cost was amortized over.
    pub wal_syncs: u64,
}

impl ServeStats {
    /// Mean entries per dispatched batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Fraction of dispatched read keys that reached the engine
    /// (`engine.lookups / (engine.lookups + delta_hits)`). 1.0 when
    /// the delta decided nothing (or nothing was dispatched); a
    /// write-heavy shard with a warm delta drives this below 1.
    pub fn residual_frac(&self) -> f64 {
        let total = self.engine.lookups + self.delta_hits;
        if total == 0 {
            1.0
        } else {
            self.engine.lookups as f64 / total as f64
        }
    }
}

/// A multi-tenant read/write point-lookup service over a
/// [`ShardedStore`].
///
/// `get`, `get_many`, `put` and `remove` are safe to call from any
/// number of threads; each call blocks until its batch is dispatched
/// and answered. Per shard, operations apply in admission order, so a
/// client that completed a `put` observes it in every later read it
/// issues (read-your-writes per client). Dropping the service drains
/// queued entries, answers them, and joins the dispatchers.
///
/// # Panics
/// All request methods panic if called after [`close`](Self::close);
/// callers must not race requests against `close`.
pub struct LookupService {
    store: Arc<ShardedStore>,
    shards: Vec<Arc<ShardState>>,
    cfg: ServeConfig,
    /// Service-side observability hub: `serve_*` metrics, per-shard
    /// stage histograms (admission wait, commit, writeback, queue
    /// backpressure) and the service trace ring. Store-side spans live
    /// on [`ShardedStore::obs`]; the export methods merge both.
    obs: Arc<Obs>,
    dispatchers: Vec<JoinHandle<()>>,
    /// Set by `close`; request paths that can answer without touching
    /// an admission queue (cache hits, empty `get_many`) check it so
    /// the use-after-close panic contract holds on every entry point.
    closed: std::sync::atomic::AtomicBool,
}

impl LookupService {
    /// Start one dispatcher thread per shard of `store`. Accepts the
    /// store by value or as an `Arc`.
    ///
    /// With an `Arc`, other holders may keep calling the store's read
    /// API (epoch snapshots keep that consistent), but they must not
    /// write to it directly — the service's read-your-writes and
    /// cache-invalidation guarantees hold only for writes that go
    /// through the service.
    ///
    /// # Panics
    /// Panics if `queue_cap` or `max_batch` is 0.
    pub fn start(store: impl Into<Arc<ShardedStore>>, cfg: ServeConfig) -> Self {
        assert!(cfg.queue_cap > 0, "queue_cap must be positive");
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        let store = store.into();
        let obs = Arc::new(Obs::new("serve", store.num_shards()));
        if cfg.trace_events > 0 {
            obs.trace().enable(cfg.trace_events);
            store.obs().trace().enable(cfg.trace_events);
        }
        let shards: Vec<Arc<ShardState>> = (0..store.num_shards())
            .map(|shard| {
                let reg = obs.registry();
                let tag = shard.to_string();
                let l = [("shard", tag.as_str())];
                let counter = |name| reg.counter(name, &l);
                Arc::new(ShardState {
                    q: Mutex::new(QueueState {
                        reqs: VecDeque::new(),
                        open: true,
                    }),
                    work: Condvar::new(),
                    space: Condvar::new(),
                    engine: Mutex::new(RunStats::default()),
                    m: ShardCounters {
                        // Flush flavors before `batches`: registration
                        // order is the snapshot-coherence contract.
                        full_flushes: counter("serve_full_flushes"),
                        timeout_flushes: counter("serve_timeout_flushes"),
                        batches: counter("serve_batches"),
                        requests: counter("serve_requests"),
                        gets: counter("serve_gets"),
                        puts: counter("serve_puts"),
                        removes: counter("serve_removes"),
                        many_keys: counter("serve_many_keys"),
                        range_scans: counter("serve_range_scans"),
                        delta_hits: counter("serve_delta_hits"),
                        cache_hits: counter("serve_cache_hits"),
                        latency: reg.hist("serve_latency_ns", &l),
                    },
                    cache: (cfg.hot_cache_slots > 0)
                        .then(|| Mutex::new(HotCache::new(cfg.hot_cache_slots))),
                })
            })
            .collect();
        let dispatchers = shards
            .iter()
            .enumerate()
            .map(|(shard, state)| {
                let store = Arc::clone(&store);
                let state = Arc::clone(state);
                let obs = Arc::clone(&obs);
                std::thread::Builder::new()
                    .name(format!("isi-serve-{shard}"))
                    .spawn(move || dispatch_loop(&store, shard, &state, cfg, &obs))
                    .expect("spawn dispatcher thread")
            })
            .collect();
        Self {
            store,
            shards,
            cfg,
            obs,
            dispatchers,
            closed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Panic if `close` already ran (requests must not outlive it).
    fn assert_open(&self) {
        assert!(
            !self.closed.load(Ordering::Relaxed),
            "request on a closed LookupService"
        );
    }

    /// The underlying store.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Enqueue `op` on `shard`'s admission queue, blocking while the
    /// queue holds `queue_cap` entries (backpressure).
    fn enqueue(&self, shard: usize, op: Op) {
        let state = &self.shards[shard];
        let mut q = state.q.plock("admission queue");
        assert!(q.open, "request on a closed LookupService");
        if q.reqs.len() >= self.cfg.queue_cap {
            // Stalled on a full queue: the wait is a Backpressure span
            // (payload 0 = admission-queue flavor; the store's delta
            // bound emits the same kind with payload 1).
            let t = SpanTimer::start();
            loop {
                q = state.space.pwait(q, "admission queue (backpressure)");
                assert!(q.open, "request on a closed LookupService");
                if q.reqs.len() < self.cfg.queue_cap {
                    break;
                }
            }
            let dur = t.elapsed_ns();
            self.obs.record_stage(shard, Stage::Backpressure, dur);
            self.obs
                .trace()
                .emit(shard, TraceKind::Backpressure, t.start_ns(), dur, 0, 0);
        }
        q.reqs.push_back(Entry {
            op,
            enqueued: Instant::now(),
        });
        // The dispatcher parks only on an empty queue, so only the
        // empty → non-empty transition can have it to wake.
        if q.reqs.len() == 1 {
            state.work.notify_one();
        }
    }

    /// Look up one key: enqueue on the owning shard, block until the
    /// dispatcher answers. A hot-key cache hit (if the cache is
    /// enabled) answers immediately without admission.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.assert_open();
        let shard = self.store.shard_of(key);
        let cached = self.shards[shard]
            .cache
            .as_ref()
            .and_then(|cache| cache.plock("hot-key cache").probe(key));
        if let Some(result) = cached {
            self.shards[shard].m.cache_hits.inc();
            return result;
        }
        let ticket = Arc::new(Ticket::new());
        self.enqueue(
            shard,
            Op::Get {
                key,
                ticket: Arc::clone(&ticket),
            },
        );
        ticket.wait()
    }

    /// Look up many keys with one admission entry per owning shard:
    /// the slice is partitioned client-side, each shard's sub-batch
    /// rides its dispatcher once, and the results come back in `keys`
    /// order. Far cheaper than n `get` calls for multi-key requests —
    /// the client pre-forms the batch the engine wants.
    pub fn get_many(&self, keys: &[u64]) -> Vec<Option<u64>> {
        self.assert_open();
        let mut results = vec![None; keys.len()];
        if keys.is_empty() {
            return results;
        }
        // positions[s] = indices into `keys` owned by shard s.
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); self.store.num_shards()];
        for (i, &k) in keys.iter().enumerate() {
            positions[self.store.shard_of(k)].push(i);
        }
        let mut waits: Vec<(usize, ManyTicket)> = Vec::new();
        for (shard, idxs) in positions.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let ticket = Arc::new(Ticket::new());
            self.enqueue(
                shard,
                Op::GetMany {
                    keys: idxs.iter().map(|&i| keys[i]).collect(),
                    ticket: Arc::clone(&ticket),
                },
            );
            waits.push((shard, ticket));
        }
        for (shard, ticket) in waits {
            for (&i, v) in positions[shard].iter().zip(ticket.wait()) {
                results[i] = v;
            }
        }
        results
    }

    /// All live pairs with `lo <= key <= hi`, sorted by key.
    ///
    /// Hash partitioning scatters a key range across every shard, so
    /// the call submits one admission entry per shard, waits for all
    /// of them, and reorders the per-shard sorted runs into one sorted
    /// result. Riding the FIFO queues means a client's completed
    /// writes are visible to its next scan; the cross-shard cut is not
    /// atomic (same contract as `get_many`). An inverted range returns
    /// an empty result without admission.
    pub fn get_range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.assert_open();
        if lo > hi {
            return Vec::new();
        }
        let waits: Vec<RangeTicket> = (0..self.store.num_shards())
            .map(|shard| {
                let ticket = Arc::new(Ticket::new());
                self.enqueue(
                    shard,
                    Op::Range {
                        lo,
                        hi,
                        ticket: Arc::clone(&ticket),
                    },
                );
                ticket
            })
            .collect();
        let mut out = Vec::new();
        for ticket in waits {
            out.extend(ticket.wait());
        }
        // Per-shard runs are sorted but interleave arbitrarily under
        // hash partitioning; one global reorder restores key order.
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Upsert `key = val` through the owning shard's queue; blocks
    /// until applied and returns the previously visible value.
    pub fn put(&self, key: u64, val: u64) -> Option<u64> {
        let ticket = Arc::new(Ticket::new());
        self.enqueue(
            self.store.shard_of(key),
            Op::Put {
                key,
                val,
                ticket: Arc::clone(&ticket),
            },
        );
        ticket.wait()
    }

    /// Remove `key` through the owning shard's queue; blocks until
    /// applied and returns the value it held, if any.
    pub fn remove(&self, key: u64) -> Option<u64> {
        let ticket = Arc::new(Ticket::new());
        self.enqueue(
            self.store.shard_of(key),
            Op::Remove {
                key,
                ticket: Arc::clone(&ticket),
            },
        );
        ticket.wait()
    }

    /// Aggregated metrics over all shards (latency histograms merged),
    /// plus the store's merge/delta counters.
    ///
    /// Built from one coherent snapshot of each registry (see
    /// `isi_obs::registry`): within the returned struct,
    /// `full_flushes + timeout_flushes <= batches`,
    /// `wal_syncs <= wal_records` and `compactions <= delta_runs` hold
    /// even while dispatchers and mergers race the call.
    pub fn stats(&self) -> ServeStats {
        let snap = self.obs.snapshot();
        let store_snap = self.store.obs().snapshot();
        let mut total = ServeStats {
            requests: snap.counter_sum("serve_requests"),
            gets: snap.counter_sum("serve_gets"),
            puts: snap.counter_sum("serve_puts"),
            removes: snap.counter_sum("serve_removes"),
            many_keys: snap.counter_sum("serve_many_keys"),
            range_scans: snap.counter_sum("serve_range_scans"),
            cache_hits: snap.counter_sum("serve_cache_hits"),
            delta_hits: snap.counter_sum("serve_delta_hits"),
            batches: snap.counter_sum("serve_batches"),
            full_flushes: snap.counter_sum("serve_full_flushes"),
            timeout_flushes: snap.counter_sum("serve_timeout_flushes"),
            latency: snap.hist_merged("serve_latency_ns", |_| true),
            merges: store_snap.counter_sum("store_merges"),
            delta_runs: store_snap.counter_sum("store_delta_runs"),
            compactions: store_snap.counter_sum("store_compactions"),
            wal_records: store_snap.counter_sum("store_wal_records"),
            wal_syncs: store_snap.counter_sum("store_wal_syncs"),
            merge_backlog: self.store.merge_backlog() as u64,
            merge_latency: self.store.merge_latency(),
            delta_keys: self.store.delta_len() as u64,
            ..ServeStats::default()
        };
        for state in &self.shards {
            total
                .engine
                .merge(&state.engine.plock("shard engine stats"));
        }
        total
    }

    /// The service-side observability hub (`serve_*` metrics, the
    /// service trace ring). The store's hub is at
    /// [`ShardedStore::obs`].
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Every store- and service-side metric in the Prometheus text
    /// exposition format: two coherent snapshots, concatenated (metric
    /// names are disjoint by prefix, `store_*` vs `serve_*`).
    pub fn metrics_prometheus(&self) -> String {
        let mut out = self.store.obs().snapshot().to_prometheus();
        out.push_str(&self.obs.snapshot().to_prometheus());
        out
    }

    /// Every store- and service-side metric as one JSON document.
    pub fn metrics_json(&self) -> String {
        self.store
            .obs()
            .snapshot()
            .concat(&self.obs.snapshot())
            .to_json()
    }

    /// The merged store+service event timeline rendered as
    /// chrome://tracing JSON (load it at `chrome://tracing` or in
    /// Perfetto; one row per shard). Events are ordered by timestamp —
    /// the two rings share a clock but not a sequence counter. Empty
    /// when [`ServeConfig::trace_events`] is 0.
    pub fn export_chrome_trace(&self) -> String {
        let mut events = self.store.obs().trace().events();
        events.extend(self.obs.trace().events());
        events.sort_by_key(|e| e.ts_ns);
        chrome_trace_json(&events)
    }

    /// Per-shard per-stage latency breakdown, indexed by
    /// [`Stage::index`]: the union of the store's spans (plan, engine,
    /// WAL append/fsync, merge, range scan, delta backpressure) and
    /// the service's (admission wait, commit, writeback, queue
    /// backpressure).
    pub fn stage_breakdown(&self) -> Vec<[LatencyHist; Stage::COUNT]> {
        let mut rows = self.obs.stage_breakdown();
        for (row, store_row) in rows.iter_mut().zip(self.store.obs().stage_breakdown()) {
            for (hist, store_hist) in row.iter_mut().zip(store_row) {
                hist.merge(&store_hist);
            }
        }
        rows
    }

    /// Stop accepting requests, answer everything still queued
    /// (including writes, which are applied in order), and join the
    /// dispatchers. Idempotent; also run by `Drop`.
    pub fn close(&mut self) {
        self.closed.store(true, Ordering::Relaxed);
        for state in &self.shards {
            let mut q = state.q.plock("admission queue");
            q.open = false;
            state.work.notify_all();
            state.space.notify_all();
        }
        for handle in self.dispatchers.drain(..) {
            handle.join().expect("dispatcher thread panicked");
        }
    }
}

impl Drop for LookupService {
    fn drop(&mut self) {
        self.close();
    }
}

/// Reusable dispatch buffers (one set per dispatcher thread).
struct DispatchBufs {
    batch: Vec<Entry>,
    /// Keys of the current read run.
    run_keys: Vec<u64>,
    /// `(entry index, start offset in run_keys, key count)` per read
    /// entry of the current run.
    run_spans: Vec<(usize, usize, usize)>,
    out: Vec<Option<u64>>,
    scratch: LookupScratch,
    /// Ops of the current write run (the group-commit unit).
    write_ops: Vec<(u64, Option<u64>)>,
    /// Entry index per op of the current write run.
    write_idx: Vec<usize>,
    /// Previously visible value per op, filled by the store.
    write_prevs: Vec<Option<u64>>,
    /// Per-shard grouping scratch for the store's write path.
    write_scratch: WriteScratch,
}

/// The per-shard dispatcher: park while the queue is empty, otherwise
/// drain up to `max_batch` entries at once, execute the batch FIFO
/// (read runs through the interleaved engine, writes in admission
/// order between runs), route responses, record latency.
fn dispatch_loop(
    store: &ShardedStore,
    shard: usize,
    state: &ShardState,
    cfg: ServeConfig,
    obs: &Obs,
) {
    let mut bufs = DispatchBufs {
        batch: Vec::with_capacity(cfg.max_batch),
        run_keys: Vec::with_capacity(cfg.max_batch),
        run_spans: Vec::with_capacity(cfg.max_batch),
        out: Vec::with_capacity(cfg.max_batch),
        scratch: LookupScratch::default(),
        write_ops: Vec::with_capacity(cfg.max_batch),
        write_idx: Vec::with_capacity(cfg.max_batch),
        write_prevs: Vec::with_capacity(cfg.max_batch),
        write_scratch: WriteScratch::default(),
    };
    let mut q = state.q.plock("admission queue");
    loop {
        if q.reqs.is_empty() {
            if !q.open {
                return;
            }
            q = state.work.pwait(q, "admission queue (dispatcher idle)");
            continue;
        }
        let full = q.reqs.len() >= cfg.max_batch;
        let n = q.reqs.len().min(cfg.max_batch);
        bufs.batch.clear();
        bufs.batch.extend(q.reqs.drain(..n));
        state.space.notify_all();
        drop(q);

        execute_batch(store, shard, state, cfg, obs, &mut bufs, full);

        q = state.q.plock("admission queue");
    }
}

/// Execute one drained batch in admission order: maximal runs of
/// consecutive point reads are planned against the delta and the
/// residual goes through the interleaved engine as one batch; writes
/// and range scans apply one at a time between runs (each write
/// invalidating its hot-cache slot *before* its ticket is fulfilled).
/// Writes only append to the delta — a threshold crossing enqueues a
/// background merge job, it never rebuilds here.
///
/// An entry's counters and latency sample land *before* its ticket is
/// fulfilled (the counters are lock-free `Release` bumps, the stats
/// snapshot reads `Acquire`), so the moment a caller's wait returns,
/// [`LookupService::stats`] already includes its request. No lock is
/// held across engine runs or store writes (a write can trigger a
/// whole-shard merge rebuild), so a monitoring thread reading stats
/// never blocks behind the slow work itself.
///
/// Stage spans recorded here: `admission_wait` per entry at drain,
/// `writeback` around each write run (store call + cache
/// invalidation), `commit` around each fulfill pass. The store records
/// `plan`/`engine`/`wal_*`/`merge` inside its own calls.
fn execute_batch(
    store: &ShardedStore,
    shard: usize,
    state: &ShardState,
    cfg: ServeConfig,
    obs: &Obs,
    bufs: &mut DispatchBufs,
    full: bool,
) {
    let batch_t = SpanTimer::start();
    // Count the flush up front: no ticket from this batch can resolve
    // before the batch itself is visible in the stats. `batches` bumps
    // before its flavor (the registration-order counterpart lives in
    // `ShardCounters`).
    state.m.batches.inc();
    if full {
        state.m.full_flushes.inc();
    } else {
        state.m.timeout_flushes.inc();
    }
    // Queue residency ends now; what follows is execution.
    for entry in &bufs.batch {
        obs.record_stage(
            shard,
            Stage::AdmissionWait,
            entry.enqueued.elapsed().as_nanos() as u64,
        );
    }
    let mut i = 0;
    while i < bufs.batch.len() {
        // Collect the maximal read run starting at i.
        bufs.run_keys.clear();
        bufs.run_spans.clear();
        while i < bufs.batch.len() {
            match &bufs.batch[i].op {
                Op::Get { key, .. } => {
                    bufs.run_spans.push((i, bufs.run_keys.len(), 1));
                    bufs.run_keys.push(*key);
                }
                Op::GetMany { keys, .. } => {
                    bufs.run_spans.push((i, bufs.run_keys.len(), keys.len()));
                    bufs.run_keys.extend_from_slice(keys);
                }
                _ => break,
            }
            i += 1;
        }
        if !bufs.run_keys.is_empty() {
            bufs.out.clear();
            bufs.out.resize(bufs.run_keys.len(), None);
            let outcome = store.lookup_batch(
                shard,
                &bufs.run_keys,
                cfg.policy,
                cfg.par,
                &mut bufs.scratch,
                &mut bufs.out,
            );
            // Fill the cache before fulfilling: the dispatcher is the
            // only mutator of this shard, so these results are current
            // until the next write it applies.
            if let Some(cache) = &state.cache {
                let mut cache = cache.plock("hot-key cache");
                for &(ei, start, _) in &bufs.run_spans {
                    if let Op::Get { key, .. } = &bufs.batch[ei].op {
                        cache.insert(*key, bufs.out[start]);
                    }
                }
            }
            state
                .engine
                .plock("shard engine stats")
                .merge(&outcome.engine);
            state.m.delta_hits.add(outcome.delta_hits);
            let commit_t = SpanTimer::start();
            for &(ei, start, len) in &bufs.run_spans {
                let entry = &bufs.batch[ei];
                // Counters and the latency sample land before the
                // fulfill: a caller whose wait returned is already in
                // the stats.
                state.m.requests.inc();
                state
                    .m
                    .latency
                    .record(entry.enqueued.elapsed().as_nanos() as u64);
                match &entry.op {
                    Op::Get { ticket, .. } => {
                        state.m.gets.inc();
                        ticket.fulfill(bufs.out[start]);
                    }
                    Op::GetMany { ticket, .. } => {
                        state.m.many_keys.add(len as u64);
                        ticket.fulfill(bufs.out[start..start + len].to_vec());
                    }
                    _ => unreachable!("write in read run"),
                }
            }
            obs.record_stage(shard, Stage::Commit, commit_t.elapsed_ns());
        }
        // Apply the writes and range scans that ended the run, in
        // admission order. Consecutive writes form one write run —
        // one `apply_write_run` call, which on a durable store is one
        // WAL record + one fsync (group commit) covering every op in
        // the run before any of its tickets resolve. The store call
        // (which may block briefly at the max_delta bound), the range
        // scan and the cache invalidation run unlocked; only the
        // counter-update + fulfill pass takes the metrics lock.
        while i < bufs.batch.len() {
            match &bufs.batch[i].op {
                Op::Get { .. } | Op::GetMany { .. } => break,
                Op::Put { .. } | Op::Remove { .. } => {
                    bufs.write_ops.clear();
                    bufs.write_idx.clear();
                    while i < bufs.batch.len() {
                        match &bufs.batch[i].op {
                            Op::Put { key, val, .. } => bufs.write_ops.push((*key, Some(*val))),
                            Op::Remove { key, .. } => bufs.write_ops.push((*key, None)),
                            _ => break,
                        }
                        bufs.write_idx.push(i);
                        i += 1;
                    }
                    let wb_t = SpanTimer::start();
                    store.apply_write_run_with(
                        &bufs.write_ops,
                        &mut bufs.write_prevs,
                        &mut bufs.write_scratch,
                    );
                    // Invalidate before fulfilling: a client whose
                    // write just acked must not then read a stale
                    // cached value.
                    if let Some(cache) = &state.cache {
                        let mut cache = cache.plock("hot-key cache");
                        for &(key, _) in &bufs.write_ops {
                            cache.invalidate(key);
                        }
                        obs.trace().emit_now(
                            shard,
                            TraceKind::CacheInvalidate,
                            bufs.write_ops.len() as u64,
                            0,
                        );
                    }
                    obs.record_stage(shard, Stage::Writeback, wb_t.elapsed_ns());
                    let commit_t = SpanTimer::start();
                    for (&ei, &prev) in bufs.write_idx.iter().zip(&bufs.write_prevs) {
                        let entry = &bufs.batch[ei];
                        state.m.requests.inc();
                        state
                            .m
                            .latency
                            .record(entry.enqueued.elapsed().as_nanos() as u64);
                        match &entry.op {
                            Op::Put { ticket, .. } => {
                                state.m.puts.inc();
                                ticket.fulfill(prev);
                            }
                            Op::Remove { ticket, .. } => {
                                state.m.removes.inc();
                                ticket.fulfill(prev);
                            }
                            _ => unreachable!("read in write run"),
                        }
                    }
                    obs.record_stage(shard, Stage::Commit, commit_t.elapsed_ns());
                }
                Op::Range { lo, hi, ticket } => {
                    let pairs = store.scan_range(shard, *lo, *hi);
                    let entry = &bufs.batch[i];
                    state.m.range_scans.inc();
                    state.m.requests.inc();
                    state
                        .m
                        .latency
                        .record(entry.enqueued.elapsed().as_nanos() as u64);
                    ticket.fulfill(pairs);
                    i += 1;
                }
            }
        }
    }
    obs.trace().emit(
        shard,
        TraceKind::BatchFlush,
        batch_t.start_ns(),
        batch_t.elapsed_ns(),
        bufs.batch.len() as u64,
        u64::from(full),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Backend, StoreConfig};

    fn pairs(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i * 2, i)).collect()
    }

    fn expect(key: u64) -> Option<u64> {
        (key.is_multiple_of(2) && key < 4000).then_some(key / 2)
    }

    #[test]
    fn single_client_hits_and_misses_all_backends() {
        for backend in Backend::ALL {
            let store = ShardedStore::build(backend, 2, &pairs(2000));
            let svc = LookupService::start(
                store,
                ServeConfig {
                    max_batch: 8,
                    ..ServeConfig::default()
                },
            );
            for key in [0u64, 2, 3, 1998, 3998, 4000, 9999] {
                assert_eq!(svc.get(key), expect(key), "{} key={key}", backend.name());
            }
            let stats = svc.stats();
            assert_eq!(stats.requests, 7);
            assert_eq!(stats.gets, 7);
            assert!(stats.batches >= 1);
            assert_eq!(stats.latency.count(), 7);
            assert!(stats.latency.p99() >= stats.latency.p50());
        }
    }

    #[test]
    fn batches_never_exceed_max_batch() {
        // Eight closed-loop clients against max_batch 4: the queue
        // often holds more than a batch, and the dispatcher must cap
        // every drain at max_batch without ever waiting for one to
        // fill.
        let store = ShardedStore::build(Backend::Hash, 1, &pairs(2000));
        let mut svc = LookupService::start(
            store,
            ServeConfig {
                max_batch: 4,
                trace_events: 4096,
                ..ServeConfig::default()
            },
        );
        std::thread::scope(|scope| {
            for c in 0..8u64 {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..32u64 {
                        let key = (c * 32 + i) * 7 % 1100;
                        assert_eq!(svc.get(key), expect(key));
                    }
                });
            }
        });
        // A batch's `BatchFlush` event is emitted after its tickets
        // resolve: join the dispatchers before counting events.
        svc.close();
        let stats = svc.stats();
        assert_eq!(stats.requests, 8 * 32);
        assert_eq!(stats.full_flushes + stats.timeout_flushes, stats.batches);
        let flushes: Vec<u64> = svc
            .obs()
            .trace()
            .events()
            .iter()
            .filter(|e| e.kind == TraceKind::BatchFlush)
            .map(|e| e.a)
            .collect();
        assert_eq!(flushes.len() as u64, stats.batches);
        assert!(
            flushes.iter().all(|&n| (1..=4).contains(&n)),
            "batch sizes {flushes:?} exceed max_batch 4"
        );
    }

    #[test]
    fn lone_request_dispatches_without_waiting() {
        // A batch cap no load can reach: the lone request must still
        // dispatch at once, as a partial batch.
        let store = ShardedStore::build(Backend::Csb, 1, &pairs(100));
        let svc = LookupService::start(
            store,
            ServeConfig {
                max_batch: 1_000_000,
                ..ServeConfig::default()
            },
        );
        assert_eq!(svc.get(42), Some(21));
        assert_eq!(svc.stats().timeout_flushes, 1);
    }

    #[test]
    fn tiny_queue_cap_applies_backpressure_without_deadlock() {
        let store = ShardedStore::build(Backend::Sorted, 2, &pairs(1000));
        let svc = LookupService::start(
            store,
            ServeConfig {
                queue_cap: 1,
                max_batch: 2,
                ..ServeConfig::default()
            },
        );
        std::thread::scope(|scope| {
            for c in 0..6u64 {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let key = (c * 50 + i) % 2100;
                        assert_eq!(svc.get(key), expect(key));
                    }
                });
            }
        });
        assert_eq!(svc.stats().requests, 300);
    }

    #[test]
    fn drop_drains_and_joins() {
        let store = ShardedStore::build(Backend::Hash, 4, &pairs(100));
        let svc = LookupService::start(store, ServeConfig::default());
        assert_eq!(svc.get(4), Some(2));
        drop(svc); // must not hang
    }

    #[test]
    fn stats_engine_counters_flow_through() {
        let store = ShardedStore::build(Backend::Csb, 1, &pairs(5000));
        let svc = LookupService::start(
            store,
            ServeConfig {
                policy: Interleave::from_group(6),
                max_batch: 16,
                ..ServeConfig::default()
            },
        );
        for key in 0..64u64 {
            svc.get(key * 2);
        }
        let stats = svc.stats();
        assert_eq!(stats.engine.lookups, 64);
        // Interleaved tree descents switch at least once per lookup.
        assert!(stats.engine.switches >= 64);
    }

    #[test]
    fn writes_are_read_your_writes_per_client() {
        for backend in Backend::ALL {
            let store =
                ShardedStore::build_with(backend, 2, &pairs(500), StoreConfig::with_threshold(4));
            let svc = LookupService::start(
                store,
                ServeConfig {
                    max_batch: 8,
                    ..ServeConfig::default()
                },
            );
            // Overwrite, fresh insert, remove — every completed write
            // is visible to the same client's next read.
            assert_eq!(svc.put(0, 777), Some(0), "{}", backend.name());
            assert_eq!(svc.get(0), Some(777));
            assert_eq!(svc.put(1_000_001, 5), None);
            assert_eq!(svc.get(1_000_001), Some(5));
            assert_eq!(svc.remove(2), Some(1));
            assert_eq!(svc.get(2), None);
            assert_eq!(svc.remove(2), None);
            let stats = svc.stats();
            assert_eq!(stats.puts, 2);
            assert_eq!(stats.removes, 2);
            assert_eq!(stats.gets, 3);
            assert_eq!(stats.requests, 7);
            // merge_threshold 4: the three effective writes forced at
            // least one merge across the two shards... only if one
            // shard saw 4 deltas; with 3 writes no merge is
            // guaranteed, but the counters must at least be coherent.
            assert_eq!(stats.merges, svc.store().merges());
            assert!(stats.delta_keys <= 3);
        }
    }

    #[test]
    fn get_many_partitions_and_restores_order() {
        for backend in Backend::ALL {
            let store = ShardedStore::build(backend, 4, &pairs(3000));
            let svc = LookupService::start(
                store,
                ServeConfig {
                    max_batch: 64,
                    ..ServeConfig::default()
                },
            );
            let keys: Vec<u64> = (0..500u64).map(|i| i * 13 % 7000).collect();
            let got = svc.get_many(&keys);
            assert_eq!(got.len(), keys.len());
            for (&k, &r) in keys.iter().zip(&got) {
                let want = (k.is_multiple_of(2) && k < 6000).then_some(k / 2);
                assert_eq!(r, want, "{} key={k}", backend.name());
            }
            assert_eq!(svc.get_many(&[]), Vec::<Option<u64>>::new());
            let stats = svc.stats();
            assert_eq!(stats.many_keys, 500);
            // One admission entry per touched shard, not per key.
            assert!(stats.requests <= 4);
            assert_eq!(stats.engine.lookups, 500);
        }
    }

    #[test]
    fn get_many_sees_prior_writes() {
        let store = ShardedStore::build_with(
            Backend::Hash,
            2,
            &pairs(100),
            StoreConfig::with_threshold(2),
        );
        let svc = LookupService::start(
            store,
            ServeConfig {
                max_batch: 4,
                ..ServeConfig::default()
            },
        );
        svc.put(0, 111);
        svc.put(500_001, 222);
        svc.remove(4);
        let got = svc.get_many(&[0, 500_001, 4, 6, 9999]);
        assert_eq!(got, vec![Some(111), Some(222), None, Some(3), None]);
    }

    #[test]
    fn hot_cache_hits_skip_dispatch_and_writes_invalidate() {
        let store = ShardedStore::build(Backend::Sorted, 2, &pairs(200));
        let svc = LookupService::start(
            store,
            ServeConfig {
                max_batch: 4,
                hot_cache_slots: 64,
                ..ServeConfig::default()
            },
        );
        // First read misses the cache and dispatches; repeats hit.
        assert_eq!(svc.get(10), Some(5));
        for _ in 0..5 {
            assert_eq!(svc.get(10), Some(5));
        }
        let stats = svc.stats();
        assert_eq!(stats.cache_hits, 5);
        assert_eq!(stats.gets, 1);
        // A write invalidates before it is acknowledged: the next
        // read must see the new value, then repopulate the cache.
        assert_eq!(svc.put(10, 99), Some(5));
        assert_eq!(svc.get(10), Some(99));
        assert_eq!(svc.get(10), Some(99));
        let stats = svc.stats();
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.cache_hits, 6);
        // Misses are cached too.
        assert_eq!(svc.get(11), None);
        assert_eq!(svc.get(11), None);
        assert_eq!(svc.stats().cache_hits, 7);
    }

    #[test]
    fn mixed_batch_preserves_fifo_under_concurrency() {
        // Concurrent clients on disjoint keys: each client's own
        // sequence of put/get/remove must read its own writes even
        // while batches mix clients and writes force merges.
        let store = ShardedStore::build_with(Backend::Csb, 2, &[], StoreConfig::with_threshold(3));
        let svc = LookupService::start(
            store,
            ServeConfig {
                max_batch: 8,
                queue_cap: 16,
                ..ServeConfig::default()
            },
        );
        std::thread::scope(|scope| {
            for c in 0..4u64 {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..40u64 {
                        let key = c + i * 4; // disjoint per client
                        assert_eq!(svc.put(key, i), None);
                        assert_eq!(svc.get(key), Some(i));
                        assert_eq!(svc.remove(key), Some(i));
                        assert_eq!(svc.get(key), None);
                    }
                });
            }
        });
        // Merges run behind the dispatchers; settle before counting.
        svc.store().quiesce();
        let stats = svc.stats();
        assert_eq!(stats.requests, 4 * 40 * 4);
        assert_eq!(stats.puts, 160);
        assert_eq!(stats.removes, 160);
        assert!(stats.merges > 0);
        assert_eq!(stats.merge_backlog, 0);
        assert!(svc.store().is_empty());
    }

    #[test]
    fn get_range_rides_the_queues_and_sees_writes() {
        for backend in Backend::ALL {
            let store =
                ShardedStore::build_with(backend, 4, &pairs(500), StoreConfig::with_threshold(8));
            let svc = LookupService::start(
                store,
                ServeConfig {
                    max_batch: 8,
                    ..ServeConfig::default()
                },
            );
            // A client's completed writes are visible to its next scan.
            assert_eq!(svc.put(10, 777), Some(5));
            assert_eq!(svc.put(11, 888), None);
            assert_eq!(svc.remove(12), Some(6));
            let got = svc.get_range(8, 16);
            assert_eq!(
                got,
                vec![(8, 4), (10, 777), (11, 888), (14, 7), (16, 8)],
                "{}",
                backend.name()
            );
            // Inverted and empty ranges.
            assert_eq!(svc.get_range(16, 8), Vec::new());
            assert_eq!(svc.get_range(1_000_000, 2_000_000), Vec::new());
            let stats = svc.stats();
            // One admission entry per shard per (non-inverted) call.
            assert_eq!(stats.range_scans, 2 * 4);
            assert_eq!(stats.requests, 3 + 2 * 4);
        }
    }

    #[test]
    fn delta_decided_reads_skip_the_engine() {
        // With a cold cache and a warm delta, repeat reads of written
        // keys must be answered by the plan stage: delta_hits grows,
        // engine lookups do not, residual_frac < 1.
        let store = ShardedStore::build_with(
            Backend::Sorted,
            1,
            &pairs(500),
            StoreConfig::with_threshold(1 << 20),
        );
        let svc = LookupService::start(
            store,
            ServeConfig {
                max_batch: 4,
                ..ServeConfig::default()
            },
        );
        for k in 0..16u64 {
            svc.put(k, 9_000 + k);
        }
        for k in 0..16u64 {
            assert_eq!(svc.get(k), Some(9_000 + k));
        }
        assert_eq!(svc.get(100), Some(50)); // untouched key: engine
        let stats = svc.stats();
        assert_eq!(stats.delta_hits, 16);
        assert_eq!(stats.engine.lookups, 1);
        assert!(stats.residual_frac() < 1.0);
        assert!((stats.residual_frac() - 1.0 / 17.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "closed LookupService")]
    fn cache_hit_after_close_still_panics() {
        // The hot-cache fast path must honor the use-after-close
        // contract even though it never touches an admission queue.
        let store = ShardedStore::build(Backend::Sorted, 1, &pairs(10));
        let mut svc = LookupService::start(
            store,
            ServeConfig {
                hot_cache_slots: 8,
                ..ServeConfig::default()
            },
        );
        assert_eq!(svc.get(2), Some(1));
        assert_eq!(svc.get(2), Some(1)); // cached now
        svc.close();
        let _ = svc.get(2);
    }

    #[test]
    #[should_panic(expected = "closed LookupService")]
    fn empty_get_many_after_close_panics() {
        let store = ShardedStore::build(Backend::Sorted, 1, &pairs(10));
        let mut svc = LookupService::start(store, ServeConfig::default());
        svc.close();
        let _ = svc.get_many(&[]);
    }

    #[test]
    #[should_panic(expected = "queue_cap must be positive")]
    fn rejects_zero_queue_cap() {
        let store = ShardedStore::build(Backend::Sorted, 1, &[]);
        LookupService::start(
            store,
            ServeConfig {
                queue_cap: 0,
                ..ServeConfig::default()
            },
        );
    }

    #[test]
    fn stats_snapshots_stay_coherent_under_concurrent_writes() {
        // Regression for the pre-registry skew: reading wal_records
        // and wal_syncs as two independent atomic loads could observe
        // a sync without the record it covered. A monitor hammering
        // stats() against a durable write load must never see any
        // cross-counter invariant inverted, mid-flight or after.
        use isi_durable::{Fs, FsyncMode, MemFs};
        use std::sync::atomic::AtomicBool;

        let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
        let store = ShardedStore::build_with_fs(
            Backend::Sorted,
            2,
            &pairs(100),
            StoreConfig {
                fsync: FsyncMode::Group,
                ..StoreConfig::with_threshold(4)
            },
            fs,
        );
        let svc = LookupService::start(
            store,
            ServeConfig {
                max_batch: 8,
                ..ServeConfig::default()
            },
        );
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let svc = &svc;
            let done = &done;
            let monitor = scope.spawn(move || {
                let mut snaps = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let s = svc.stats();
                    assert!(
                        s.wal_syncs <= s.wal_records,
                        "skewed snapshot: {} syncs > {} records",
                        s.wal_syncs,
                        s.wal_records
                    );
                    assert!(
                        s.compactions <= s.delta_runs,
                        "skewed snapshot: {} compactions > {} delta runs",
                        s.compactions,
                        s.delta_runs
                    );
                    assert!(
                        s.full_flushes + s.timeout_flushes <= s.batches,
                        "skewed snapshot: {} + {} flushes > {} batches",
                        s.full_flushes,
                        s.timeout_flushes,
                        s.batches
                    );
                    snaps += 1;
                }
                snaps
            });
            std::thread::scope(|writers| {
                for c in 0..3u64 {
                    writers.spawn(move || {
                        for i in 0..200u64 {
                            svc.put(c + i * 3, i);
                        }
                    });
                }
            });
            done.store(true, Ordering::Relaxed);
            assert!(monitor.join().expect("monitor thread") > 0);
        });
        svc.store().quiesce();
        let s = svc.stats();
        assert_eq!(s.puts, 600);
        assert!(s.wal_records > 0);
        assert!(s.wal_syncs > 0);
        assert!(s.wal_syncs <= s.wal_records);
    }

    #[test]
    fn stage_breakdown_and_exports_cover_the_pipeline() {
        let store =
            ShardedStore::build_with(Backend::Csb, 2, &pairs(500), StoreConfig::with_threshold(4));
        let svc = LookupService::start(
            store,
            ServeConfig {
                max_batch: 8,
                trace_events: 256,
                ..ServeConfig::default()
            },
        );
        for k in 0..64u64 {
            svc.put(k * 2 + 1, k);
            assert_eq!(svc.get(k * 2 + 1), Some(k));
        }
        assert!(!svc.get_range(0, 50).is_empty());
        svc.store().quiesce();

        let rows = svc.stage_breakdown();
        assert_eq!(rows.len(), 2);
        let count = |stage: Stage| {
            rows.iter()
                .map(|row| row[stage.index()].count())
                .sum::<u64>()
        };
        // Every admission entry got exactly one admission-wait sample.
        assert_eq!(count(Stage::AdmissionWait), svc.stats().requests);
        assert!(count(Stage::Commit) > 0);
        assert!(count(Stage::Writeback) > 0);
        assert!(
            count(Stage::Merge) > 0,
            "threshold 4 under 64 puts must merge"
        );
        assert_eq!(count(Stage::RangeScan), 2);
        // Reads went through the plan stage, the engine, or both.
        assert!(count(Stage::Plan) + count(Stage::Engine) > 0);

        let trace = svc.export_chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("batch_flush"));
        assert!(trace.contains("merge_publish"));

        let prom = svc.metrics_prometheus();
        assert!(prom.contains("serve_requests"));
        assert!(prom.contains("store_merges"));
        let json = svc.metrics_json();
        assert!(json.contains("serve_latency_ns"));
        assert!(json.contains("store_merges"));
    }
}
