//! Steady-state allocation discipline of the store's write path.
//!
//! A dispatched write run should cost a small, constant number of
//! heap allocations: the run buffer, its published `Arc` run, the
//! cloned run-list and the new `ShardVersion` — never anything
//! proportional to the delta's size (the old clone-the-whole-delta
//! write path) and never fresh per-shard grouping buffers (the old
//! `vec![Vec::new(); num_shards]` in `apply_write_run`). This test
//! pins both with a counting global allocator: per-run allocations
//! are bounded by a small constant and do not grow as the delta
//! accumulates hundreds of runs. Only the calling thread is counted:
//! the write path under test is synchronous, while the store's merger
//! thread and the test harness's threads allocate on their own.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use isi_serve::{Backend, ShardedStore, StoreConfig, WriteScratch};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set only on the thread inside [`count_allocs`]: everything the
    /// counted sections exercise runs on the calling thread, and the
    /// merger thread and the test harness's own threads must not be
    /// charged to it.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Is the allocating thread inside a counted section? A const,
/// drop-free thread local, so the check itself never allocates.
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: pure pass-through to the `System` allocator (which upholds
// the GlobalAlloc contract); the only additions are a const
// thread-local read and a relaxed counter bump, which allocate
// nothing and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as ours; layout is forwarded verbatim.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from our `alloc`, which forwarded
        // to `System`, so returning them to `System` is well-paired.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` came from our pass-through `alloc`;
        // the caller guarantees `new_size` per the trait contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-global, so tests in this binary must not
/// overlap: each one holds this lock around its counted sections.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Count allocations during `f`.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.set(true);
    let r = f();
    COUNTING.set(false);
    (ALLOCS.load(Ordering::SeqCst), r)
}

/// Write-run cost per shard sub-run: the run `Vec`, its `Arc` run,
/// the cloned run-list `Vec`, the `ShardVersion` `Arc`, plus slack
/// for allocator-internal bookkeeping.
const PER_SUB_RUN: u64 = 8;

/// Apply `n_runs` runs of `ops_per_run` distinct-key ops each through
/// a reusable scratch, returning the allocation count.
fn run_block(
    store: &ShardedStore,
    scratch: &mut WriteScratch,
    prevs: &mut Vec<Option<u64>>,
    key_base: u64,
    n_runs: u64,
    ops_per_run: u64,
) -> u64 {
    // Op buffers are prepared outside the counted section: the cost
    // under test is the store's, not the test harness's.
    let runs: Vec<Vec<(u64, Option<u64>)>> = (0..n_runs)
        .map(|r| {
            (0..ops_per_run)
                .map(|i| (key_base + r * ops_per_run + i, Some(r * 1_000 + i)))
                .collect()
        })
        .collect();
    let (allocs, ()) = count_allocs(|| {
        for ops in &runs {
            store.apply_write_run_with(ops, prevs, scratch);
        }
    });
    allocs
}

/// Per-run allocations are a small constant — independent of how many
/// runs the delta has already stacked (the old write path cloned the
/// whole delta per run) and free of per-call grouping buffers (the
/// reusable `WriteScratch`).
#[test]
fn write_runs_allocate_a_small_constant() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The huge threshold and unbounded run stack mean no merges and no
    // folds — pure run-publish cost.
    let cfg = StoreConfig::with_threshold(1 << 20).with_max_runs(usize::MAX);
    let store = ShardedStore::build_with(Backend::Sorted, 1, &[], cfg);
    let mut scratch = WriteScratch::default();
    let mut prevs = Vec::new();

    // Warm up: establishes the scratch's shard buckets and `prevs`.
    run_block(&store, &mut scratch, &mut prevs, 0, 8, 8);

    let early = run_block(&store, &mut scratch, &mut prevs, 1_000_000, 64, 8);
    assert!(
        early <= 64 * PER_SUB_RUN,
        "64 single-shard runs took {early} allocations \
         (> {PER_SUB_RUN} per run): write dispatch is not \
         allocation-disciplined"
    );

    // Stack up several hundred more runs, then measure again: the
    // per-run cost must not have grown with the delta (the clone-on-
    // write delta would now copy hundreds of runs' entries per write;
    // an entry-cloning regression would also show up as realloc
    // traffic).
    run_block(&store, &mut scratch, &mut prevs, 2_000_000, 400, 8);
    let late = run_block(&store, &mut scratch, &mut prevs, 3_000_000, 64, 8);
    assert!(
        late <= 64 * PER_SUB_RUN,
        "after 400 stacked runs, 64 runs took {late} allocations: \
         per-run cost grew with delta size"
    );

    store.quiesce();
    assert_eq!(store.len(), (8 + 64 + 400 + 64) * 8);
}

/// Multi-shard grouping through the scratch adds no per-call buffers:
/// runs spanning 8 shards stay within the per-sub-run budget.
#[test]
fn grouping_scratch_is_reused_across_shards() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = StoreConfig::with_threshold(1 << 20).with_max_runs(usize::MAX);
    let store = ShardedStore::build_with(Backend::Sorted, 8, &[], cfg);
    let mut scratch = WriteScratch::default();
    let mut prevs = Vec::new();

    run_block(&store, &mut scratch, &mut prevs, 0, 8, 16);
    let allocs = run_block(&store, &mut scratch, &mut prevs, 1_000_000, 64, 16);
    // 16 ops scatter over at most 8 sub-runs per call.
    assert!(
        allocs <= 64 * 8 * PER_SUB_RUN,
        "64 eight-shard runs took {allocs} allocations: the grouping \
         scratch is not being reused"
    );
}
