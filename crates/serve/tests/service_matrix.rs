//! The whole service under a short mixed closed loop, cell by cell.
//!
//! Every cell of backend × {1, 2} shards × {read-only, 25% writes} ×
//! {WAL off, WAL on with group commit} runs two clients through
//! `get`/`put`/`remove`/`get_range` with tracing and the hot-key cache
//! on, quiesces the merger, and checks that the service's counters,
//! per-stage spans, latency histogram and trace export agree with each
//! other and with what the clients issued. WAL-on cells then shut
//! down and must recover the store they left.
//!
//! Rules asserted elsewhere are not repeated: `compactions ≤
//! delta_runs` (`prop_mixed`, `prop_range`) and the exact
//! `admission_wait == requests` count without cache or range fan-out
//! (`service::tests::stage_breakdown_and_exports_cover_the_pipeline`).

use isi_core::policy::Interleave;
use isi_serve::{Backend, FsyncMode, LookupService, ServeConfig, ShardedStore, Stage, StoreConfig};

/// Pairs `(2i, i)` seeded into every store; probes cover
/// `[0, 2 · STORE_KEYS)`, so half the reads miss.
const STORE_KEYS: u64 = 512;
const CLIENTS: u64 = 2;
const OPS_PER_CLIENT: u64 = 64;
/// Share of ops that are range scans, in parts per million.
const RANGE_PPM: u64 = 150_000;
/// Key-space width of each scan: `[key, key + RANGE_SPAN]`.
const RANGE_SPAN: u64 = 64;

/// One cell of the matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    backend: Backend,
    shards: usize,
    /// Share of ops that are writes (1 in 8 a remove), in ppm.
    write_ppm: u64,
    wal: bool,
    merge_threshold: usize,
}

impl Cell {
    fn name(&self) -> String {
        format!(
            "{}/shards={}/writes={}ppm/wal={}/threshold={}",
            self.backend.name(),
            self.shards,
            self.write_ppm,
            if self.wal { "on" } else { "off" },
            self.merge_threshold
        )
    }
}

/// Client calls issued, by kind.
#[derive(Debug, Default, Clone, Copy)]
struct Issued {
    gets: u64,
    puts: u64,
    removes: u64,
    ranges: u64,
}

impl Issued {
    fn writes(&self) -> u64 {
        self.puts + self.removes
    }

    fn calls(&self) -> u64 {
        self.gets + self.writes() + self.ranges
    }
}

/// SplitMix64: a deterministic per-client op stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The store config of a cell, with the WAL directory when it has one.
fn store_config(cell: &Cell) -> StoreConfig {
    let cfg = StoreConfig::with_threshold(cell.merge_threshold);
    if !cell.wal {
        return cfg;
    }
    let dir = std::env::temp_dir().join(format!(
        "isi-service-matrix-{}-{}-{}-{}",
        std::process::id(),
        cell.backend.name(),
        cell.shards,
        cell.write_ppm
    ));
    let _ = std::fs::remove_dir_all(&dir);
    cfg.durable(dir, FsyncMode::Group)
}

/// Start a traced service for `cell`, drive the closed loop to the end
/// and quiesce the merger.
fn run(cell: &Cell, store_cfg: &StoreConfig) -> (LookupService, Issued) {
    let pairs: Vec<(u64, u64)> = (0..STORE_KEYS).map(|i| (i * 2, i)).collect();
    let store = ShardedStore::build_with(cell.backend, cell.shards, &pairs, store_cfg.clone());
    let svc = LookupService::start(
        store,
        ServeConfig {
            policy: Interleave::from_group(4),
            max_batch: 8,
            queue_cap: 64,
            hot_cache_slots: 16,
            trace_events: 4096,
            ..ServeConfig::default()
        },
    );
    let range_below = cell.write_ppm + RANGE_PPM;
    let issued = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let svc = &svc;
                scope.spawn(move || {
                    let mut rng = 0x5EED_0001 + c;
                    let mut issued = Issued::default();
                    for i in 0..OPS_PER_CLIENT {
                        let key = splitmix(&mut rng) % (2 * STORE_KEYS);
                        let roll = splitmix(&mut rng) % 1_000_000;
                        if roll < cell.write_ppm {
                            if roll.is_multiple_of(8) {
                                svc.remove(key);
                                issued.removes += 1;
                            } else {
                                svc.put(key, i);
                                issued.puts += 1;
                            }
                        } else if roll < range_below {
                            svc.get_range(key, key + RANGE_SPAN);
                            issued.ranges += 1;
                        } else {
                            svc.get(key);
                            issued.gets += 1;
                        }
                    }
                    issued
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .fold(Issued::default(), |a, b| Issued {
                gets: a.gets + b.gets,
                puts: a.puts + b.puts,
                removes: a.removes + b.removes,
                ranges: a.ranges + b.ranges,
            })
    });
    svc.store().quiesce();
    (svc, issued)
}

/// Check every counter, stage and trace rule on a quiesced cell.
fn check(cell: &Cell, svc: &LookupService, issued: &Issued) {
    let name = cell.name();
    let stats = svc.stats();
    assert!(issued.ranges > 0, "{name}: the op mix ran no range scans");

    // Write path: every published run carries at least one write.
    assert!(
        stats.delta_runs <= issued.writes(),
        "{name}: {} delta runs for {} writes",
        stats.delta_runs,
        issued.writes()
    );
    if cell.write_ppm == 0 {
        assert_eq!(issued.writes(), 0, "{name}");
        for (counter, value) in [
            ("merges", stats.merges),
            ("delta_runs", stats.delta_runs),
            ("compactions", stats.compactions),
            ("delta_hits", stats.delta_hits),
        ] {
            assert_eq!(value, 0, "{name}: read-only cell recorded {counter}");
        }
    } else {
        assert!(issued.writes() > 0, "{name}: the op mix ran no writes");
        assert!(stats.delta_runs > 0, "{name}: writes published no run");
    }

    // Durability counters follow the WAL mode: group commit syncs at
    // most once per record, and nothing is logged without a WAL or
    // without writes.
    if cell.wal && issued.writes() > 0 {
        assert!(
            stats.wal_syncs > 0,
            "{name}: WAL on with writes but no syncs"
        );
        assert!(
            stats.wal_syncs <= stats.wal_records,
            "{name}: {} WAL syncs > {} records",
            stats.wal_syncs,
            stats.wal_records
        );
    } else {
        assert_eq!(stats.wal_records, 0, "{name}: WAL records");
        assert_eq!(stats.wal_syncs, 0, "{name}: WAL syncs");
    }

    // Read-side counters and the latency histogram.
    let residual = stats.residual_frac();
    assert!(
        (0.0..=1.0).contains(&residual),
        "{name}: residual_frac {residual}"
    );
    assert!(stats.cache_hits <= issued.gets, "{name}: cache hits > gets");
    let (p50, p95, p99) = (
        stats.latency.p50(),
        stats.latency.p95(),
        stats.latency.p99(),
    );
    assert!(
        p50 <= p95 && p95 <= p99,
        "{name}: latency p50={p50} p95={p95} p99={p99}"
    );

    // Stage spans, summed over shards, reconcile with the counters.
    let rows = svc.stage_breakdown();
    assert_eq!(rows.len(), cell.shards, "{name}: one stage row per shard");
    for (shard, row) in rows.iter().enumerate() {
        for stage in Stage::ALL {
            let h = &row[stage.index()];
            assert!(
                h.count() == 0 || (h.p50() <= h.p95() && h.p95() <= h.p99()),
                "{name}: shard {shard} {} quantiles p50={} p95={} p99={}",
                stage.name(),
                h.p50(),
                h.p95(),
                h.p99()
            );
        }
    }
    let count = |stage: Stage| -> u64 { rows.iter().map(|r| r[stage.index()].count()).sum() };
    let sum_ns = |stage: Stage| -> u64 { rows.iter().map(|r| r[stage.index()].sum()).sum() };
    for (stage, counter, value) in [
        (Stage::WalAppend, "wal_records", stats.wal_records),
        (Stage::WalFsync, "wal_syncs", stats.wal_syncs),
        (Stage::Merge, "merges", stats.merges),
    ] {
        assert_eq!(
            count(stage),
            value,
            "{name}: {} {} spans for {counter} = {value}",
            count(stage),
            stage.name()
        );
    }
    // Every dispatched call was answered as one admission entry with
    // one admission wait: cache hits never enqueue, and a range call
    // enqueues once per shard it spans.
    let dispatched = issued.calls() - stats.cache_hits;
    let entries = dispatched..=dispatched + issued.ranges * (cell.shards as u64 - 1);
    assert!(
        entries.contains(&stats.requests),
        "{name}: {} admission entries answered, outside {entries:?}",
        stats.requests
    );
    let admission = count(Stage::AdmissionWait);
    assert!(
        entries.contains(&admission),
        "{name}: {admission} {} spans outside {entries:?}",
        Stage::AdmissionWait.name()
    );
    // The stages between admission and response cannot outlast the
    // end-to-end latency they decompose. Merge, WAL and backpressure
    // spans overlap writeback or run on the merger, so stay out.
    let request_path = [
        Stage::AdmissionWait,
        Stage::Plan,
        Stage::Engine,
        Stage::Writeback,
    ];
    let stage_ns: u64 = request_path.into_iter().map(sum_ns).sum();
    assert!(
        stage_ns <= stats.latency.sum(),
        "{name}: request-path stage time {stage_ns} ns ({}) exceeds the latency sum {} ns",
        request_path.map(Stage::name).join(" + "),
        stats.latency.sum()
    );

    let trace = svc.export_chrome_trace();
    assert!(
        trace.contains("\"traceEvents\"") && trace.contains("\"ph\":"),
        "{name}: empty chrome-trace export"
    );
}

#[test]
fn every_cell_reconciles_counters_stages_and_trace() {
    for backend in Backend::ALL {
        for shards in [1, 2] {
            for write_ppm in [0, 250_000] {
                for wal in [false, true] {
                    let cell = Cell {
                        backend,
                        shards,
                        write_ppm,
                        wal,
                        merge_threshold: 16,
                    };
                    let store_cfg = store_config(&cell);
                    let (svc, issued) = run(&cell, &store_cfg);
                    check(&cell, &svc, &issued);
                    let Some(dir) = store_cfg.wal_dir.clone() else {
                        continue;
                    };
                    // Clean shutdown, then recovery restores the store
                    // the service left behind.
                    let live = svc.store().get_range(0, u64::MAX);
                    drop(svc);
                    let recovered = ShardedStore::recover(backend, store_cfg).expect("recover");
                    assert_eq!(
                        recovered.get_range(0, u64::MAX),
                        live,
                        "{}: recovered store differs",
                        cell.name()
                    );
                    drop(recovered);
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
        }
    }
}

#[test]
fn merge_threshold_decides_whether_writes_merge() {
    let cell = |merge_threshold| Cell {
        backend: Backend::Sorted,
        shards: 1,
        write_ppm: 250_000,
        wal: false,
        merge_threshold,
    };
    let merging = cell(8);
    let (svc, issued) = run(&merging, &store_config(&merging));
    check(&merging, &svc, &issued);
    assert!(svc.stats().merges > 0, "threshold 8 must merge");

    // A deep delta never merges, yet its writes still publish runs.
    let deep = cell(1 << 16);
    let (svc, issued) = run(&deep, &store_config(&deep));
    check(&deep, &svc, &issued);
    let stats = svc.stats();
    assert_eq!(stats.merges, 0, "threshold 2^16 must not merge");
    assert!(stats.delta_runs > 0, "the deep delta must publish runs");
}
