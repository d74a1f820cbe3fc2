//! Group-size auto-tuning: pick the interleaving group size at runtime.
//!
//! The paper derives the optimal group size from a profiling session
//! plus Inequality 1 (§5.4.5) — fine for a lab, awkward in production.
//! A database engine would rather calibrate on a small sample of the
//! actual lookup stream. [`autotune_group_size`] does exactly that:
//! measure the bulk-lookup throughput of a pilot sample at increasing
//! group sizes and stop when an additional stream stops paying for
//! itself, mirroring the flattening the paper observes in Figure 7.

use std::time::Instant;

use isi_core::mem::IndexedMem;

use crate::coro::bulk_rank_coro;
use crate::key::SearchKey;

/// Result of one calibration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunePoint {
    /// Group size measured.
    pub group: usize,
    /// Nanoseconds per lookup at that group size.
    pub ns_per_lookup: f64,
}

/// Outcome of the calibration sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// Chosen group size.
    pub best_group: usize,
    /// The whole measured curve, for diagnostics.
    pub curve: Vec<TunePoint>,
}

/// Calibrate the coroutine group size on a pilot sample.
///
/// Sweeps `G = 1..=max_group`, measuring the pilot's per-lookup time,
/// and returns the smallest group whose time is within `tolerance`
/// (e.g. 0.05 = 5%) of the best seen — preferring smaller groups, which
/// use less cache, when the curve has flattened (§5.4.5: beyond the
/// optimum "performance may deteriorate due to cache conflicts").
///
/// # Panics
/// Panics if `pilot` is empty or `max_group` is 0.
pub fn autotune_group_size<K: SearchKey, M: IndexedMem<K> + Copy>(
    mem: M,
    pilot: &[K],
    max_group: usize,
    tolerance: f64,
) -> TuneResult {
    assert!(!pilot.is_empty(), "need a non-empty pilot sample");
    assert!(max_group >= 1, "max_group must be at least 1");
    let mut out = vec![0u32; pilot.len()];
    // Warm-up pass so the first measured point is not penalized.
    bulk_rank_coro(mem, pilot, 1, &mut out);

    let mut curve = Vec::with_capacity(max_group);
    let mut best = f64::INFINITY;
    for group in 1..=max_group {
        let t = Instant::now();
        bulk_rank_coro(mem, pilot, group, &mut out);
        std::hint::black_box(&mut out);
        let ns = t.elapsed().as_nanos() as f64 / pilot.len() as f64;
        best = best.min(ns);
        curve.push(TunePoint {
            group,
            ns_per_lookup: ns,
        });
    }
    let best_group = curve
        .iter()
        .find(|p| p.ns_per_lookup <= best * (1.0 + tolerance))
        .map(|p| p.group)
        .unwrap_or(1);
    TuneResult { best_group, curve }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isi_core::mem::DirectMem;

    #[test]
    fn tuner_returns_a_valid_group() {
        let table: Vec<u32> = (0..1 << 20).collect();
        let pilot: Vec<u32> = (0..2000).map(|i| i * 523 % (1 << 20)).collect();
        let mem = DirectMem::new(&table);
        let r = autotune_group_size(mem, &pilot, 12, 0.05);
        assert!((1..=12).contains(&r.best_group));
        assert_eq!(r.curve.len(), 12);
        assert!(r.curve.iter().all(|p| p.ns_per_lookup > 0.0));
    }

    #[test]
    fn tolerance_prefers_smaller_groups() {
        // With an enormous tolerance, group 1 is always "good enough".
        let table: Vec<u32> = (0..1 << 16).collect();
        let pilot: Vec<u32> = (0..500).collect();
        let mem = DirectMem::new(&table);
        let r = autotune_group_size(mem, &pilot, 8, 1000.0);
        assert_eq!(r.best_group, 1);
    }

    #[test]
    #[should_panic(expected = "non-empty pilot")]
    fn empty_pilot_rejected() {
        let table: Vec<u32> = vec![1];
        let mem = DirectMem::new(&table);
        autotune_group_size(mem, &[], 8, 0.05);
    }
}
