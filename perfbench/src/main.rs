//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <join_oocache|join_incache|kv_zipf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process starts an `isi_serve::LookupService` with
//! `ServeConfig::default()` and drives it from two closed-loop client
//! threads, checking every answer. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs an untraced and a traced phase, records one
//! span per client call, replays the traced calls through each lower
//! layer's public function (the cost ladder, see `ladder.rs`) and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` for the workloads and what each metric should move.

mod gen;
mod ident;
mod ladder;
mod oracle;
mod stats;

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use isi_serve::{
    Backend, FsyncMode, LookupService, ServeConfig, ServeStats, ShardedStore, StoreConfig,
};

use crate::gen::{KvGen, KvOp, Rng, Zipf};
use crate::ladder::{Call, Span};
use crate::oracle::KvOracle;
use crate::stats::{median, pct, ratio, Pct};

/// Closed-loop client threads.
const CLIENTS: u64 = 2;
/// Shards of every workload's store.
const SHARDS: usize = 2;
/// Set-ups per run: at least `MIN_SETUPS`, then more (up to
/// `MAX_SETUPS`) until `SETUP_BUDGET` has been spent; `setup_s` is
/// their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 1000;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// How long past its deadline a client may stay in one call before the
/// call counts as never returning.
const GRACE: Duration = Duration::from_secs(60);
/// Keys of one join `get_many` call.
const JOIN_CALL_KEYS: usize = 16_384;
/// KV workload: Zipf exponent and merge threshold.
const KV_THETA: f64 = 0.99;
const KV_MERGE_THRESHOLD: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Join,
    Kv,
}

struct Workload {
    name: &'static str,
    backend: Backend,
    pairs: usize,
    shape: Shape,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "join_oocache",
        backend: Backend::Sorted,
        pairs: 1 << 26,
        shape: Shape::Join,
    },
    Workload {
        name: "join_incache",
        backend: Backend::Csb,
        pairs: 1 << 16,
        shape: Shape::Join,
    },
    Workload {
        name: "kv_zipf",
        backend: Backend::Hash,
        pairs: 1 << 20,
        shape: Shape::Kv,
    },
];

/// Client call kinds; the index into per-class sample vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Many,
    Get,
    Put,
    Remove,
    Range,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Many => "get_many",
            Class::Get => "get",
            Class::Put => "put",
            Class::Remove => "remove",
            Class::Range => "get_range",
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == val)
                        .ok_or_else(|| format!("unknown workload {val}"))?,
                )
            }
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// One answered call: when it started (ns since the run's epoch), how
/// long it took, and its kind.
#[derive(Debug, Clone, Copy)]
struct Sample {
    start_ns: u64,
    lat_ns: u64,
    class: Class,
}

/// What one client saw in one measured phase.
#[derive(Default)]
struct PhaseOut {
    /// Every correctly answered call.
    samples: Vec<Sample>,
    calls: u64,
    failed: u64,
    spans: Vec<Span>,
    /// Traced calls kept for the layer replay, spread evenly over the
    /// phase.
    replay: Vec<(Span, Call)>,
}

/// How a client makes its calls.
enum Caller {
    Join { rng: Rng, pairs: usize },
    Kv { gen: KvGen, oracle: KvOracle },
}

struct ClientOut {
    phases: Vec<PhaseOut>,
    oracle: Option<KvOracle>,
}

/// Progress counters a client publishes so the main thread can count a
/// call that never returns.
#[derive(Default)]
struct Progress {
    attempted: AtomicU64,
    returned: AtomicU64,
    done: AtomicBool,
}

struct Phase {
    end: Instant,
    traced: bool,
    /// Traced calls per client to keep for the layer replay.
    replay_calls: u64,
}

impl Caller {
    /// Make one call, check its answer and record it into `out`. A
    /// traced call that was answered correctly is returned with its span.
    fn call(
        &mut self,
        svc: &LookupService,
        out: &mut PhaseOut,
        epoch: Instant,
        span: Option<Span>,
    ) -> Option<(Span, Call)> {
        let (class, call, t0, t1, ok) = match self {
            Caller::Join { rng, pairs } => {
                let keys = gen::join_call(rng, *pairs, JOIN_CALL_KEYS);
                let t0 = Instant::now();
                let got = catch_unwind(AssertUnwindSafe(|| svc.get_many(&keys)));
                let t1 = Instant::now();
                let ok = got.is_ok_and(|a| oracle::join_ok(&keys, &a));
                (Class::Many, Call::Many(keys), t0, t1, ok)
            }
            Caller::Kv { gen, oracle } => {
                let op = gen.next_op();
                let t0 = Instant::now();
                let (class, ok) = match op {
                    KvOp::Get(k) => {
                        let got = catch_unwind(AssertUnwindSafe(|| svc.get(k)));
                        (Class::Get, got.is_ok_and(|v| oracle.get(k, v)))
                    }
                    KvOp::Put(k, v) => {
                        let got = catch_unwind(AssertUnwindSafe(|| svc.put(k, v)));
                        (Class::Put, got.is_ok_and(|p| oracle.write(k, Some(v), p)))
                    }
                    KvOp::Remove(k) => {
                        let got = catch_unwind(AssertUnwindSafe(|| svc.remove(k)));
                        (Class::Remove, got.is_ok_and(|p| oracle.write(k, None, p)))
                    }
                    KvOp::Range(lo, hi) => {
                        let got = catch_unwind(AssertUnwindSafe(|| svc.get_range(lo, hi)));
                        (Class::Range, got.is_ok_and(|r| oracle.range(lo, hi, &r)))
                    }
                };
                (class, Call::Kv(op), t0, Instant::now(), ok)
            }
        };
        out.calls += 1;
        if !ok {
            out.failed += 1;
            return None;
        }
        out.samples.push(Sample {
            start_ns: (t0 - epoch).as_nanos() as u64,
            lat_ns: (t1 - t0).as_nanos() as u64,
            class,
        });
        let mut span = span?;
        span.name = class.name();
        span.start_ns = (t0 - epoch).as_nanos() as u64;
        span.end_ns = (t1 - epoch).as_nanos() as u64;
        out.spans.push(span);
        Some((span, call))
    }
}

fn client_main(
    svc: &LookupService,
    mut caller: Caller,
    client: u64,
    phases: &[Phase],
    progress: &Progress,
    epoch: Instant,
) -> ClientOut {
    let root = (client + 1) << 40;
    let mut outs = Vec::new();
    let mut seq = 0u64;
    for phase in phases {
        let mut out = PhaseOut::default();
        // The previous phase lasted as long, so its call count predicts
        // this one's: keep every `every`-th traced call.
        let prev_calls = outs.last().map_or(0, |p: &PhaseOut| p.calls);
        let every = (prev_calls / phase.replay_calls.max(1)).max(1);
        let phase_start = Instant::now();
        while Instant::now() < phase.end {
            progress.attempted.fetch_add(1, Ordering::Relaxed);
            let span = phase.traced.then(|| {
                seq += 1;
                Span::call(root + seq, root)
            });
            let traced = caller.call(svc, &mut out, epoch, span);
            progress.returned.fetch_add(1, Ordering::Relaxed);
            if let Some(rec) = traced {
                if seq.is_multiple_of(every) && (out.replay.len() as u64) < phase.replay_calls {
                    out.replay.push(rec);
                }
            }
        }
        if phase.traced {
            // The client's root span: the parent of all its call spans.
            out.spans.push(Span {
                name: "client",
                start_ns: (phase_start - epoch).as_nanos() as u64,
                end_ns: (Instant::now() - epoch).as_nanos() as u64,
                ..Span::call(root, 0)
            });
        }
        outs.push(out);
    }
    progress.done.store(true, Ordering::Release);
    ClientOut {
        phases: outs,
        oracle: match caller {
            Caller::Kv { oracle, .. } => Some(oracle),
            Caller::Join { .. } => None,
        },
    }
}

/// The store configuration a workload runs with; `wal` is the fresh
/// directory of a durable (KV) store.
fn store_config(w: &Workload, wal: Option<&Path>) -> StoreConfig {
    match (w.shape, wal) {
        (Shape::Kv, Some(dir)) => {
            StoreConfig::with_threshold(KV_MERGE_THRESHOLD).durable(dir, FsyncMode::Group)
        }
        _ => StoreConfig::default(),
    }
}

fn fresh_wal_dir(w: &Workload, seed: u64, i: usize) -> Option<PathBuf> {
    (w.shape == Shape::Kv).then(|| {
        let dir = out_dir().join(format!("wal-{}-{seed}-{}-{i}", w.name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    })
}

/// Build the store and start the service several times (see
/// `MIN_SETUPS`), timing each (`ShardedStore::build_with` +
/// `LookupService::start`); keep the last.
fn setup(
    w: &Workload,
    seed: u64,
    pairs: &[(u64, u64)],
    serve: ServeConfig,
) -> (LookupService, Vec<f64>, Option<PathBuf>) {
    let mut times = Vec::new();
    let mut last = None;
    let mut spent = Duration::ZERO;
    for i in 0..MAX_SETUPS {
        if i >= MIN_SETUPS && spent >= SETUP_BUDGET {
            break;
        }
        if let Some((svc, dir)) = last.take() {
            drop(svc);
            if let Some(dir) = dir {
                let _ = fs::remove_dir_all(dir);
            }
        }
        let dir = fresh_wal_dir(w, seed, i);
        let cfg = store_config(w, dir.as_deref());
        let t = Instant::now();
        let store = ShardedStore::build_with(w.backend, SHARDS, pairs, cfg);
        let svc = LookupService::start(store, serve);
        spent += t.elapsed();
        times.push(t.elapsed().as_secs_f64());
        last = Some((svc, dir));
    }
    let (svc, dir) = last.expect("at least one set-up");
    (svc, times, dir)
}

/// Everything a run measured, for the metric formulas.
struct Measured {
    /// Per-phase client output, both clients merged.
    phases: Vec<PhaseOut>,
    phase_secs: Vec<f64>,
    /// Start of each measured phase, ns since the run's epoch.
    phase_start_ns: Vec<u64>,
    /// Service stats at each phase boundary (start of first measured
    /// phase .. end of last).
    stats: Vec<ServeStats>,
    /// `bytes_written()` at the same boundaries.
    written: Vec<u64>,
}

fn merge_phase(into: &mut PhaseOut, from: PhaseOut) {
    into.samples.extend(from.samples);
    into.calls += from.calls;
    into.failed += from.failed;
    into.spans.extend(from.spans);
    into.replay.extend(from.replay);
}

/// One metric of the final JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                ident::json_str(m.name),
                ident::json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn describe_pct(label: &str, p: &Pct) -> String {
    format!(
        "{label}={:.1}us (n={}, beyond={}{})",
        p.value / 1e3,
        p.samples,
        p.beyond,
        if p.enough() { "" } else { ", <10 beyond" }
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <join_oocache|join_incache|kv_zipf> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let serve = ServeConfig::default();
    fs::create_dir_all(out_dir()).expect("create the benchmark's output directory");
    let run_id = ident::describe(
        w.name,
        args.seed,
        args.trace,
        &[
            ("clients", CLIENTS.to_string()),
            ("loop", "closed".into()),
            ("backend", w.backend.name().into()),
            ("shards", SHARDS.to_string()),
            ("pairs", w.pairs.to_string()),
            ("serve_config", format!("{serve:?}")),
            (
                "store_config",
                format!("{:?}", store_config(w, Some(Path::new("<fresh dir>")))),
            ),
        ],
    );
    println!("# run {run_id}");

    let pairs = match w.shape {
        Shape::Join => gen::join_pairs(w.pairs),
        Shape::Kv => gen::kv_pairs(w.pairs),
    };
    let (mut svc, setup_times, wal_dir) = setup(w, args.seed, &pairs, serve);
    drop(pairs);
    let svc_ref = &svc;

    // Phases: warm-up, then one measured phase (untraced run) or an
    // untraced and a traced half (traced run).
    let warm = Duration::from_secs_f64((args.seconds * 0.1).clamp(0.2, 2.0));
    let secs = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut bounds = vec![start + warm];
    let mut phases = vec![Phase {
        end: start + warm,
        traced: false,
        replay_calls: 0,
    }];
    let replay_calls = match w.shape {
        Shape::Join => 32,
        Shape::Kv => 1000,
    };
    if args.trace {
        let half = secs / 2;
        for traced in [false, true] {
            let end = *bounds.last().unwrap() + half;
            bounds.push(end);
            phases.push(Phase {
                end,
                traced,
                replay_calls: if traced { replay_calls } else { 0 },
            });
        }
    } else {
        bounds.push(start + warm + secs);
        phases.push(Phase {
            end: start + warm + secs,
            traced: false,
            replay_calls: 0,
        });
    }
    let epoch = start;
    let zipf = (w.shape == Shape::Kv).then(|| Zipf::new(w.pairs as u64 / CLIENTS, KV_THETA));
    let progress: Vec<Arc<Progress>> = (0..CLIENTS).map(|_| Arc::default()).collect();

    let outcome = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let caller = match w.shape {
                    Shape::Join => Caller::Join {
                        rng: Rng::stream(args.seed, c, 1),
                        pairs: w.pairs,
                    },
                    Shape::Kv => Caller::Kv {
                        gen: KvGen::new(
                            args.seed,
                            c,
                            CLIENTS,
                            w.pairs as u64,
                            zipf.clone().expect("kv zipf"),
                        ),
                        oracle: KvOracle::new(c, CLIENTS, w.pairs as u64),
                    },
                };
                let progress = Arc::clone(&progress[c as usize]);
                let phases = &phases;
                scope.spawn(move || client_main(svc_ref, caller, c, phases, &progress, epoch))
            })
            .collect();
        let mut stats = Vec::new();
        let mut written = Vec::new();
        let mut ticks = Vec::new();
        for &b in &bounds {
            std::thread::sleep(b.saturating_duration_since(Instant::now()));
            stats.push(svc_ref.stats());
            written.push(ident::bytes_written());
            ticks.push(ident::cpu_ticks());
        }
        let deadline = *bounds.last().unwrap() + GRACE;
        while progress.iter().any(|p| !p.done.load(Ordering::Acquire)) {
            if Instant::now() > deadline {
                // A call never returned: report it and leave without
                // joining the stuck client.
                let attempted: u64 = progress
                    .iter()
                    .map(|p| p.attempted.load(Ordering::Relaxed))
                    .sum();
                let returned: u64 = progress
                    .iter()
                    .map(|p| p.returned.load(Ordering::Relaxed))
                    .sum();
                println!("# error: {} call(s) did not return", attempted - returned);
                print_result(false, attempted, attempted - returned, &[]);
                std::process::exit(0);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked outside a call"))
            .collect();
        (outs, stats, written, ticks)
    });
    let (client_outs, stats, written, ticks) = outcome;

    let mut attempted = 0;
    let mut failed = 0;
    let mut merged: Vec<PhaseOut> = (0..phases.len()).map(|_| PhaseOut::default()).collect();
    let mut oracles = Vec::new();
    for out in client_outs {
        for (m, p) in merged.iter_mut().zip(out.phases) {
            attempted += p.calls;
            failed += p.failed;
            merge_phase(m, p);
        }
        oracles.extend(out.oracle);
    }
    merged.remove(0); // warm-up
    let phase_secs: Vec<f64> = bounds
        .windows(2)
        .map(|b| (b[1] - b[0]).as_secs_f64())
        .collect();
    let phase_start_ns = bounds
        .iter()
        .map(|&b| (b - epoch).as_nanos() as u64)
        .collect();
    let measured = Measured {
        phases: merged,
        phase_secs,
        phase_start_ns,
        stats,
        written,
    };

    // Teardown: stop the service, then (durable store) recover and check
    // that every acknowledged write survived.
    svc.close();
    let end_stats = svc.stats();
    let join = w.shape == Shape::Join;
    let layer = args.trace.then(|| {
        let join_pairs = join.then_some(w.pairs);
        ladder::read_rungs(
            svc.store(),
            serve,
            &measured.phases[1].replay,
            epoch,
            join_pairs,
        )
    });
    drop(svc);
    let mut recover_ms = 0.0;
    let mut recovered: Option<ShardedStore> = None;
    if let Some(dir) = &wal_dir {
        let t = Instant::now();
        let store = ShardedStore::recover(w.backend, store_config(w, Some(dir)))
            .expect("recover the durable store");
        recover_ms = t.elapsed().as_secs_f64() * 1e3;
        let lost = oracle::recovered_mismatches(&oracles, |k| store.get(k));
        if lost > 0 {
            println!("# error: {lost} key(s) differ from the acknowledged writes after recovery");
        }
        failed += lost;
        recovered = Some(store);
    }

    let (metrics, report) = if let Some(mut l) = layer {
        if let Some(store) = recovered {
            ladder::write_rung(&store, &measured.phases[1].replay, &mut l);
        }
        ladder::lower_rungs(
            w.backend,
            SHARDS,
            w.pairs,
            !join,
            serve,
            &measured.phases[1].replay,
            &mut l,
        );
        failed += l.wrong;
        let m = layer_metrics(&measured, &end_stats, &l, recover_ms, w.shape);
        let spans_path = out_dir().join(format!("trace-{}-seed{}.jsonl", w.name, args.seed));
        ladder::write_spans(&spans_path, &run_id, &measured.phases[1].spans, &l.spans);
        (m, format!("# spans written to {}", spans_path.display()))
    } else {
        drop(recovered);
        end_to_end_metrics(&measured, &setup_times)
    };
    if let Some(dir) = &wal_dir {
        let _ = fs::remove_dir_all(dir);
    }

    println!("{report}");
    // Time the hypervisor gave to other guests: the host's noise level.
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks[0], ticks[ticks.len() - 1]) {
        let steal = ratio((s1 - s0) as f64, (t1 - t0) as f64);
        println!(
            "# cpu steal during the measured phase(s): {:.1}%",
            steal * 100.0
        );
    }
    println!(
        "# setup_s samples: {:?}",
        setup_times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
    );
    for m in &metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    let failed_frac = ratio(failed as f64, attempted.max(1) as f64);
    println!("# failed_frac = {failed_frac} ({failed} of {attempted} calls)");
    print_result(failed == 0, attempted.max(1), failed, &metrics);
}

/// Sorted latencies of the samples `keep` selects.
fn lats(samples: &[Sample], keep: impl Fn(Class) -> bool) -> Vec<u64> {
    let mut v: Vec<u64> = samples
        .iter()
        .filter(|s| keep(s.class))
        .map(|s| s.lat_ns)
        .collect();
    v.sort_unstable();
    v
}

fn is_read(c: Class) -> bool {
    matches!(c, Class::Many | Class::Get)
}

/// Fewest calls in one measurement window.
const WINDOW_SAMPLES: usize = 200;
/// Most windows a phase is cut into.
const MAX_WINDOWS: usize = 20;

/// Per-window figures of one measured phase.
struct Window {
    calls_per_s: f64,
    keys_per_s: f64,
    call_p50_ns: f64,
    get_p50_ns: f64,
}

/// Cut a phase of `secs` starting at `start_ns` into equal windows of
/// at least [`WINDOW_SAMPLES`] calls each (as many as the phase holds,
/// at most [`MAX_WINDOWS`]) and measure each. Reporting the median over
/// windows keeps one disturbed stretch of a run from moving its figures.
fn windows(p: &PhaseOut, start_ns: u64, secs: f64) -> Vec<Window> {
    let n = (p.samples.len() / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    let len_s = secs / n as f64;
    let mut per: Vec<Vec<Sample>> = vec![Vec::new(); n];
    for s in &p.samples {
        let i = (s.start_ns.saturating_sub(start_ns) as f64 / 1e9 / len_s) as usize;
        per[i.min(n - 1)].push(*s);
    }
    per.iter()
        .map(|w| {
            let keys: u64 = w
                .iter()
                .map(|s| match s.class {
                    Class::Many => JOIN_CALL_KEYS as u64,
                    Class::Get => 1,
                    _ => 0,
                })
                .sum();
            Window {
                calls_per_s: w.len() as f64 / len_s,
                keys_per_s: keys as f64 / len_s,
                call_p50_ns: pct(&lats(w, |_| true), 0.5).value,
                get_p50_ns: pct(&lats(w, is_read), 0.5).value,
            }
        })
        .collect()
}

/// The untraced run's metrics, over its one measured phase: throughput
/// and medians as the median over windows, and (printed, not in the
/// result) p99s over the whole phase with their sample counts.
fn end_to_end_metrics(m: &Measured, setup_times: &[f64]) -> (Vec<Metric>, String) {
    let p = &m.phases[0];
    let wins = windows(p, m.phase_start_ns[0], m.phase_secs[0]);
    let med = |f: fn(&Window) -> f64| median(&wins.iter().map(f).collect::<Vec<_>>());
    let mut report = vec![format!(
        "{} window(s) of {:.2}s",
        wins.len(),
        m.phase_secs[0] / wins.len() as f64
    )];
    for (label, keep) in [("call", (|_| true) as fn(Class) -> bool), ("get", is_read)] {
        let s = lats(&p.samples, keep);
        report.push(describe_pct(&format!("{label}_p50"), &pct(&s, 0.5)));
        report.push(describe_pct(&format!("{label}_p99"), &pct(&s, 0.99)));
    }
    for class in [Class::Put, Class::Remove, Class::Range] {
        let s = lats(&p.samples, |c| c == class);
        if !s.is_empty() {
            report.push(describe_pct(
                &format!("{}_p50", class.name()),
                &pct(&s, 0.5),
            ));
            report.push(describe_pct(
                &format!("{}_p99", class.name()),
                &pct(&s, 0.99),
            ));
        }
    }
    let metrics = vec![
        metric("setup_s", median(setup_times), "s"),
        metric("ops_per_s", med(|w| w.calls_per_s), "1/s"),
        metric("lookups_per_s", med(|w| w.keys_per_s), "1/s"),
        metric("call_p50_us", med(|w| w.call_p50_ns) / 1e3, "us"),
        metric("get_p50_us", med(|w| w.get_p50_ns) / 1e3, "us"),
        metric("peak_rss_mb", ident::peak_rss_mb(), "MiB"),
    ];
    (metrics, format!("# latency {}", report.join("; ")))
}

/// The traced run's per-layer metrics.
fn layer_metrics(
    m: &Measured,
    end: &ServeStats,
    l: &ladder::Ladder,
    recover_ms: f64,
    shape: Shape,
) -> Vec<Metric> {
    let (s0, s2) = (&m.stats[0], &m.stats[2]);
    let batches = (s2.batches - s0.batches) as f64;
    let requests = (s2.requests - s0.requests) as f64;
    let timeouts = (s2.timeout_flushes - s0.timeout_flushes) as f64;
    let merges = (s2.merges - s0.merges) as f64;
    let merge_ns = end.merge_latency.sum() as f64;
    let records = (s2.wal_records - s0.wal_records) as f64;
    let syncs = (s2.wal_syncs - s0.wal_syncs) as f64;
    let acked_writes: u64 = m
        .phases
        .iter()
        .flat_map(|p| &p.samples)
        .filter(|s| matches!(s.class, Class::Put | Class::Remove))
        .count() as u64;
    let bytes = (m.written[2] - m.written[0]) as f64;
    let untraced = m.phases[0].calls as f64 / m.phase_secs[0];
    let traced = m.phases[1].calls as f64 / m.phase_secs[1];
    let durable = shape == Shape::Kv;
    vec![
        metric("service.mean_batch", ratio(requests, batches), "entries"),
        metric(
            "service.timeout_flush_frac",
            ratio(timeouts, batches),
            "ratio",
        ),
        metric(
            "service.self_us_per_call",
            l.service_self_us(ratio(requests, batches)),
            "us",
        ),
        metric("store.lookup_ns_per_key", l.store_ns_per_key(), "ns"),
        metric(
            "store.plan_ns_per_key",
            l.store_ns_per_key() - l.backend_ns_per_key(),
            "ns",
        ),
        metric("store.delta_decided_frac", l.delta_decided_frac(), "ratio"),
        metric("store.scan_ns_per_row", l.scan_ns_per_row(), "ns"),
        metric("store.merges", merges, "count"),
        metric(
            "store.merge_mean_ms",
            ratio(merge_ns, end.merge_latency.count() as f64) / 1e6,
            "ms",
        ),
        metric(
            "store.compactions_per_run",
            ratio(end.compactions as f64, end.delta_runs as f64),
            "ratio",
        ),
        metric("store.delta_keys_end", end.delta_keys as f64, "count"),
        metric("backend.probe_ns_per_key", l.backend_ns_per_key(), "ns"),
        metric(
            "backend.seq_probe_ns_per_key",
            l.backend_seq_ns_per_key(),
            "ns",
        ),
        metric(
            "backend.interleave_gain",
            ratio(l.backend_seq_ns_per_key(), l.backend_ns_per_key()),
            "ratio",
        ),
        metric(
            "engine.switches_per_lookup",
            l.switches_per_lookup(),
            "ratio",
        ),
        metric("engine.resumes_per_lookup", l.resumes_per_lookup(), "ratio"),
        metric("engine.branchfree_ns_per_key", l.engine_ns_per_key(0), "ns"),
        metric("engine.gp_ns_per_key", l.engine_ns_per_key(1), "ns"),
        metric("engine.amac_ns_per_key", l.engine_ns_per_key(2), "ns"),
        metric("engine.coro_ns_per_key", l.engine_ns_per_key(3), "ns"),
        metric("durable.records_per_sync", ratio(records, syncs), "ratio"),
        metric(
            "durable.bytes_per_user_byte",
            if durable {
                ratio(bytes, 16.0 * acked_writes as f64)
            } else {
                0.0
            },
            "ratio",
        ),
        metric("durable.recover_ms", recover_ms, "ms"),
        metric(
            "trace.overhead_frac",
            1.0 - ratio(traced, untraced),
            "ratio",
        ),
    ]
}
