//! The traced run's cost ladder.
//!
//! The traced phase records one span per client call. Afterwards a
//! sample of those calls, spread evenly over the phase, is replayed on
//! one thread through each lower layer's public function, one layer per
//! rung:
//!
//! 1. store: `ShardedStore::lookup_batch` / `scan_range` on the
//!    service's own store (its final delta included), and `put` /
//!    `remove` on the recovered durable store;
//! 2. backend: `ShardBackend::probe_batch` on a backend built from the
//!    workload's initial pairs, interleaved (the service's policy) and
//!    sequential;
//! 3. engine: the `isi_search` bulk rank functions (branch-free, GP, AMAC,
//!    CORO; one thread) over the same shard's sorted key column.
//!
//! A layer's self time is its rung minus the rung below. Each replayed
//! operation is recorded as a span whose parent is the client call it
//! replays. Nothing inside the program is instrumented.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use isi_core::backend::ShardBackend;
use isi_core::mem::DirectMem;
use isi_core::par::ParConfig;
use isi_core::policy::Interleave;
use isi_core::sched::RunStats;
use isi_search::par::{
    bulk_rank_amac_par, bulk_rank_branchfree_par, bulk_rank_coro_par, bulk_rank_gp_par,
};
use isi_search::SortedShard;
use isi_serve::{Backend, LookupScratch, ServeConfig, ShardedStore};

use crate::gen::{self, KvOp, RANGE_SPAN};
use crate::ident::json_str;
use crate::oracle::join_ok;

/// One traced interval: a client call, or a replayed operation whose
/// parent is the call it replays. Spans of one request share `req`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// A client call span; the call sets the name and times.
    pub fn call(id: u64, parent: u64) -> Self {
        Self {
            id,
            parent,
            req: id,
            name: "",
            start_ns: 0,
            end_ns: 0,
        }
    }
}

/// What a replayed client call asked for.
#[derive(Debug, Clone)]
pub enum Call {
    Many(Vec<u64>),
    Kv(KvOp),
}

impl Call {
    /// The keys a call looks up (none for writes and ranges).
    fn lookup_keys(&self) -> &[u64] {
        match self {
            Call::Many(keys) => keys,
            Call::Kv(KvOp::Get(k)) => std::slice::from_ref(k),
            Call::Kv(_) => &[],
        }
    }
}

/// Rung timings and counts, summed over the replayed calls.
pub struct Ladder {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
    /// Replayed answers that disagreed with the oracle.
    pub wrong: u64,
    /// Per replayed call: its client span, and the store rung's time on
    /// the call's critical path (slowest shard), once measured.
    call_ns: Vec<u64>,
    store_ns: Vec<Option<u64>>,
    store_lookup_ns: u64,
    store_keys: u64,
    delta_hits: u64,
    scan_ns: u64,
    scan_rows: u64,
    backend_ns: u64,
    backend_seq_ns: u64,
    backend_keys: u64,
    engine: RunStats,
    /// branchfree, GP, AMAC, CORO.
    engine_ns: [u64; 4],
    engine_keys: u64,
}

fn per(num: u64, den: u64) -> f64 {
    crate::stats::ratio(num as f64, den as f64)
}

impl Ladder {
    fn new(epoch: Instant, calls: usize) -> Self {
        Self {
            epoch,
            next_id: 1 << 60,
            spans: Vec::new(),
            wrong: 0,
            call_ns: Vec::with_capacity(calls),
            store_ns: vec![None; calls],
            store_lookup_ns: 0,
            store_keys: 0,
            delta_hits: 0,
            scan_ns: 0,
            scan_rows: 0,
            backend_ns: 0,
            backend_seq_ns: 0,
            backend_keys: 0,
            engine: RunStats::default(),
            engine_ns: [0; 4],
            engine_keys: 0,
        }
    }

    /// Time `f`, record it as a span under `parent`, return its result
    /// and nanoseconds.
    fn timed<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.next_id += 1;
        self.spans.push(Span {
            id: self.next_id,
            parent,
            req: parent,
            name,
            start_ns: (t0 - self.epoch).as_nanos() as u64,
            end_ns: (t1 - self.epoch).as_nanos() as u64,
        });
        (out, (t1 - t0).as_nanos() as u64)
    }

    /// Mean over replayed calls of client span minus the store work the
    /// call waited for. A call is answered when its whole batch is, and
    /// a batch holds `mean_batch` entries (measured by the service) of
    /// the same shape, so the call waits for `mean_batch` times its own
    /// store rung.
    pub fn service_self_us(&self, mean_batch: f64) -> f64 {
        let pairs: Vec<(u64, u64)> = self
            .call_ns
            .iter()
            .zip(&self.store_ns)
            .filter_map(|(&c, s)| s.map(|s| (c, s)))
            .collect();
        let diff: f64 = pairs
            .iter()
            .map(|&(c, s)| c as f64 - mean_batch.max(1.0) * s as f64)
            .sum();
        crate::stats::ratio(diff, pairs.len() as f64) / 1e3
    }
    pub fn store_ns_per_key(&self) -> f64 {
        per(self.store_lookup_ns, self.store_keys)
    }
    pub fn delta_decided_frac(&self) -> f64 {
        per(self.delta_hits, self.store_keys)
    }
    pub fn scan_ns_per_row(&self) -> f64 {
        per(self.scan_ns, self.scan_rows)
    }
    pub fn backend_ns_per_key(&self) -> f64 {
        per(self.backend_ns, self.backend_keys)
    }
    pub fn backend_seq_ns_per_key(&self) -> f64 {
        per(self.backend_seq_ns, self.backend_keys)
    }
    pub fn switches_per_lookup(&self) -> f64 {
        per(self.engine.switches, self.engine.lookups)
    }
    pub fn resumes_per_lookup(&self) -> f64 {
        per(self.engine.resumes, self.engine.lookups)
    }
    pub fn engine_ns_per_key(&self, variant: usize) -> f64 {
        per(self.engine_ns[variant], self.engine_keys)
    }
}

/// Split `keys` by owning shard.
fn by_shard(keys: &[u64], shards: usize, shard_of: impl Fn(u64) -> usize) -> Vec<Vec<u64>> {
    let mut parts = vec![Vec::new(); shards];
    for &k in keys {
        parts[shard_of(k)].push(k);
    }
    parts
}

/// Rung 1 for reads: replay the traced calls' lookups and range scans
/// on the service's store, after the service has stopped.
pub fn read_rungs(
    store: &ShardedStore,
    serve: ServeConfig,
    replay: &[(Span, Call)],
    epoch: Instant,
    join_pairs: Option<usize>,
) -> Ladder {
    let join = join_pairs.is_some();
    let mut l = Ladder::new(epoch, replay.len());
    let mut scratch = LookupScratch::default();
    let shards = store.num_shards();
    for (i, (span, call)) in replay.iter().enumerate() {
        l.call_ns.push(span.end_ns - span.start_ns);
        // The store rung on the call's critical path: its slowest shard.
        let mut crit: Option<u64> = None;
        for (shard, keys) in by_shard(call.lookup_keys(), shards, |k| store.shard_of(k))
            .into_iter()
            .enumerate()
        {
            if keys.is_empty() {
                continue;
            }
            let mut out = vec![None; keys.len()];
            let (outcome, ns) = l.timed("store.lookup_batch", span.id, || {
                store.lookup_batch(
                    shard,
                    &keys,
                    serve.policy,
                    serve.par,
                    &mut scratch,
                    &mut out,
                )
            });
            if join && !join_ok(&keys, &out) {
                l.wrong += 1;
            }
            l.store_lookup_ns += ns;
            l.store_keys += keys.len() as u64;
            l.delta_hits += outcome.delta_hits;
            crit = crit.max(Some(ns));
        }
        if let Call::Kv(KvOp::Range(lo, hi)) = *call {
            for shard in 0..shards {
                let (rows, ns) = l.timed("store.scan_range", span.id, || {
                    store.scan_range(shard, lo, hi)
                });
                l.scan_ns += ns;
                l.scan_rows += rows.len() as u64;
                crit = crit.max(Some(ns));
            }
        }
        l.store_ns[i] = crit;
    }
    if let Some(pairs) = join_pairs {
        // The join workloads issue no range calls; scan ranges that
        // start at the first traced call's keys instead.
        let top = 2 * pairs as u64 - 2;
        if let Some((span, Call::Many(keys))) = replay.first() {
            for &lo in keys.iter().take(256) {
                let hi = lo + RANGE_SPAN - 1;
                // Every even key of the range up to the largest is present.
                let expect = (hi.min(top) / 2 + 1).saturating_sub(lo.div_ceil(2));
                let mut rows = 0;
                for shard in 0..shards {
                    let (r, ns) = l.timed("store.scan_range", span.id, || {
                        store.scan_range(shard, lo, hi)
                    });
                    l.scan_ns += ns;
                    rows += r.len() as u64;
                }
                if rows != expect {
                    l.wrong += 1;
                }
                l.scan_rows += rows;
            }
        }
    }
    l
}

/// Rung 1 for writes: replay the traced puts and removes on the
/// recovered durable store (each one WAL append and fsync).
pub fn write_rung(store: &ShardedStore, replay: &[(Span, Call)], l: &mut Ladder) {
    for (i, (span, call)) in replay.iter().enumerate() {
        let ns = match *call {
            Call::Kv(KvOp::Put(k, v)) => l.timed("store.put", span.id, || store.put(k, v)).1,
            Call::Kv(KvOp::Remove(k)) => l.timed("store.remove", span.id, || store.remove(k)).1,
            _ => continue,
        };
        l.store_ns[i] = Some(ns);
    }
}

/// Rungs 2 and 3: per shard, build the backend and a sorted key column
/// from the workload's initial pairs, and replay every traced lookup
/// slice through `probe_batch` and the four bulk rank functions.
pub fn lower_rungs(
    backend: Backend,
    shards: usize,
    pairs: usize,
    kv: bool,
    serve: ServeConfig,
    replay: &[(Span, Call)],
    l: &mut Ladder,
) {
    // An empty store routes keys exactly like the measured one.
    let router = ShardedStore::build(backend, shards, &[]);
    let group = serve.policy.group_or_one();
    let one = ParConfig::with_threads(1);
    for shard in 0..shards {
        let slices: Vec<(u64, Vec<u64>)> = replay
            .iter()
            .map(|(span, call)| {
                let keys = call
                    .lookup_keys()
                    .iter()
                    .copied()
                    .filter(|&k| router.shard_of(k) == shard)
                    .collect();
                (span.id, keys)
            })
            .filter(|(_, keys): &(u64, Vec<u64>)| !keys.is_empty())
            .collect();
        if slices.is_empty() {
            continue;
        }
        let shard_pairs: Vec<(u64, u64)> = if kv {
            gen::kv_pairs(pairs)
        } else {
            gen::join_pairs(pairs)
        }
        .into_iter()
        .filter(|&(k, _)| router.shard_of(k) == shard)
        .collect();
        let sorted = SortedShard::build(&shard_pairs);
        let other = (backend != Backend::Sorted).then(|| backend.build_shard(&shard_pairs));
        drop(shard_pairs);
        let main: &dyn ShardBackend = match &other {
            Some(b) => &**b,
            None => &sorted,
        };
        let mem = DirectMem::new(sorted.keys());
        let mut scratch = Vec::new();
        for (n, (parent, keys)) in slices.iter().enumerate() {
            let mut out = vec![None; keys.len()];
            let mut seq_out = vec![None; keys.len()];
            // Alternate which policy runs first, so neither always finds
            // the other's cache lines.
            for step in 0..2 {
                if (step + n) % 2 == 0 {
                    let (stats, ns) = l.timed("backend.probe_batch", *parent, || {
                        main.probe_batch(keys, serve.policy, serve.par, &mut scratch, &mut out)
                    });
                    l.engine.merge(&stats);
                    l.backend_ns += ns;
                } else {
                    let (_, ns) = l.timed("backend.probe_batch.seq", *parent, || {
                        main.probe_batch(
                            keys,
                            Interleave::Sequential,
                            serve.par,
                            &mut scratch,
                            &mut seq_out,
                        )
                    });
                    l.backend_seq_ns += ns;
                }
            }
            l.backend_keys += keys.len() as u64;
            if out != seq_out || (!kv && !join_ok(keys, &out)) {
                l.wrong += 1;
            }
            let mut ranks: [Vec<u32>; 4] = std::array::from_fn(|_| vec![0; keys.len()]);
            for step in 0..4 {
                let variant = (step + n) % 4;
                let dst = &mut ranks[variant];
                let ns = match variant {
                    0 => {
                        l.timed("engine.branchfree", *parent, || {
                            bulk_rank_branchfree_par(&mem, keys, one, dst)
                        })
                        .1
                    }
                    1 => {
                        l.timed("engine.gp", *parent, || {
                            bulk_rank_gp_par(&mem, keys, group, one, dst)
                        })
                        .1
                    }
                    2 => {
                        l.timed("engine.amac", *parent, || {
                            bulk_rank_amac_par(&mem, keys, group, one, dst)
                        })
                        .1
                    }
                    _ => {
                        l.timed("engine.coro", *parent, || {
                            bulk_rank_coro_par(mem, keys, group, one, dst)
                        })
                        .1
                    }
                };
                l.engine_ns[variant] += ns;
            }
            l.engine_keys += keys.len() as u64;
            if ranks.iter().any(|r| *r != ranks[0]) {
                l.wrong += 1;
            }
        }
    }
}

/// Write the traced phase's call spans and the replay spans as JSON
/// lines, the first line identifying the run.
pub fn write_spans(path: &Path, run_id: &str, calls: &[Span], replay: &[Span]) {
    let mut text = format!("{{\"run\": {run_id}}}\n");
    for s in calls.iter().chain(replay) {
        text.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.id,
            s.parent,
            s.req,
            json_str(s.name),
            s.start_ns,
            s.end_ns
        ));
    }
    let written = fs::File::create(path).and_then(|mut f| f.write_all(text.as_bytes()));
    if let Err(e) = written {
        println!(
            "# warning: could not write spans to {}: {e}",
            path.display()
        );
    }
}
