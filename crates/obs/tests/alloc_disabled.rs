//! Allocation discipline of the observability hot path.
//!
//! The license for threading `isi_obs` through every serve-path stage
//! is that it costs (almost) nothing when you are not looking:
//! counter bumps, stage recording, and disabled trace emission must
//! not allocate, and even *enabled* trace emission must be
//! allocation-free in steady state because rings are preallocated at
//! enable time. This test pins all of that with a counting global
//! allocator, the same pattern as `isi_core`'s `alloc_steady` test.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use isi_obs::{Obs, Stage, TraceKind};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set only on the thread inside [`count_allocs`]: everything the
    /// counted sections exercise runs on the calling thread, and the
    /// test harness's own threads (which report a finished test while
    /// the next one counts) must not be charged to it.
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

#[test]
fn disabled_observability_hot_path_never_allocates() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let obs = Obs::new("t", 2);
    let requests = obs.registry().counter("t_requests", &[("shard", "0")]);
    let backlog = obs.registry().gauge("t_backlog", &[]);
    let latency = obs.registry().hist("t_latency_ns", &[]);

    let (allocs, _) = count_allocs(|| {
        for i in 0..10_000u64 {
            requests.inc();
            backlog.set(i as i64);
            latency.record(i);
            obs.record_stage((i % 2) as usize, Stage::Engine, i);
            obs.record_stage((i % 2) as usize, Stage::WalFsync, i * 3);
            // Tracing is off: each emit must be one relaxed load.
            obs.trace().emit(0, TraceKind::BatchFlush, i, 5, 4, 1);
            obs.trace().emit_now(1, TraceKind::WalSync, 1, 0);
        }
    });
    assert_eq!(
        allocs, 0,
        "metric recording / disabled tracing allocated on the hot path"
    );
    assert!(obs.trace().events().is_empty());
    assert_eq!(obs.snapshot().counter_sum("t_requests"), 10_000);
}

#[test]
fn enabled_trace_emission_is_allocation_free_in_steady_state() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let obs = Obs::new("t", 2);
    // Rings are preallocated here, outside the counted section.
    obs.trace().enable(64);

    let (allocs, _) = count_allocs(|| {
        // 10k events through 64-slot rings: fills, then wraps — both
        // paths must reuse the preallocated storage.
        for i in 0..10_000u64 {
            obs.trace()
                .emit((i % 2) as usize, TraceKind::BatchFlush, i, 3, 8, 1);
        }
    });
    assert_eq!(allocs, 0, "enabled trace emission allocated per event");
    assert_eq!(obs.trace().events().len(), 128);
    assert_eq!(obs.trace().dropped(), 10_000 - 128);
}
