//! # isi-memsim — a software model of the memory hierarchy
//!
//! The paper's microarchitectural evaluation (Tables 1-2, Figures 5-6)
//! relies on Intel VTune reading hardware performance counters on a
//! Haswell Xeon. Those counters are neither portable nor available in
//! virtualized environments, so this crate substitutes a deterministic
//! software model of the same machine (the README's "Paper figure /
//! table binaries" table marks the binaries that run on it):
//!
//! * set-associative L1D / L2 / L3 data caches with true-LRU replacement,
//! * 10 line-fill buffers tracking in-flight misses — software prefetches
//!   allocate one, and loads that arrive before the fill completes are
//!   *LFB hits* that stall only for the residual latency (Section 5.4.2),
//! * DTLB / STLB and final-level page walks whose cost depends on where
//!   the page-table entry currently resides in the data caches
//!   (Section 5.4.3),
//! * a 2-bit branch predictor plus a speculation model that lets branchy
//!   code overlap load stalls at the price of wasted work on mispredicts
//!   (Sections 2.2 and 5.4.1),
//! * TMAM-style cycle accounting: every elapsed cycle is attributed to
//!   Retiring / Memory / Core / Bad-speculation / Front-end.
//!
//! The model is driven through [`isi_core::mem::IndexedMem`], so the
//! *same* lookup implementations measured wall-clock on real hardware run
//! unmodified on the simulator.
//!
//! ```
//! use isi_core::mem::IndexedMem;
//! use isi_memsim::{SharedMachine, SimArray};
//!
//! let machine = SharedMachine::haswell();
//! let table = SimArray::new(&machine, (0..1_000_000u32).collect());
//! let mem = table.mem();
//! let _ = *mem.at(999_999); // cold: DRAM access + page walk
//! let _ = *mem.at(999_999); // warm: L1 hit
//! let stats = machine.stats();
//! assert_eq!(stats.dram_loads, 1);
//! assert_eq!(stats.l1_hits, 1);
//! assert!(stats.memory > 180.0); // the paper's 182-cycle DRAM latency
//! ```

pub mod cache;
pub mod config;
pub mod machine;
pub mod simmem;

pub use cache::Cache;
pub use config::{CacheLevelConfig, MachineConfig};
pub use machine::{HitLevel, Machine, MachineStats, WalkLevel};
pub use simmem::{SharedMachine, SimArray, SimMem};
