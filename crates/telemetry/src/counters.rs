//! Process-wide kernel profiling counters for the scan engine.
//!
//! The scan planner already proves *fusion* with the `FACT_SCANS` counter;
//! these counters make the rest of the kernel's behavior observable: how
//! many 4096-row chunks a workload actually scanned, whether the staging
//! buffers and probe fast paths PR 4 built are firing, and how much work
//! the cross-query shared-mask program is saving.
//!
//! Everything is a relaxed [`AtomicU64`] on a process-wide static
//! (mirroring the engine's `fact_scan_count` idiom), and the engine
//! flushes **per scan, not per row**: probe classifications are tallied at
//! plan time, and the chunk/gather tallies are computed once from the plan
//! geometry and added with a handful of atomic adds per `execute` call —
//! zero cost inside the chunk loop, so the kernel's measured throughput is
//! untouched.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// The kernel counter set (one process-wide instance, [`kernel_counters`]).
#[derive(Debug, Default)]
pub struct KernelCounters {
    /// 4096-row fact chunks scanned (fused scans + histogram builds).
    pub chunks_scanned: AtomicU64,
    /// Per-chunk staged dimension copies (`ChunkStage::begin` memcpys —
    /// one per staged dimension per chunk).
    pub staged_chunk_copies: AtomicU64,
    /// Mask/axis gathers served from a stage buffer (dimension referenced
    /// ≥ 2× per chunk).
    pub staged_gathers: AtomicU64,
    /// Mask/axis gathers served straight from the source fk array.
    pub direct_gathers: AtomicU64,
    /// Bytes of fact fk columns the scans' gathers read from memory: per
    /// dimension, column width × fact rows × (one staging copy, or one
    /// pass per direct gather). Computed from the plan, so word-level
    /// early exits and per-row group-by lookups are not reflected.
    pub fk_bytes_read: AtomicU64,
    /// Filters classified to the ≤ 64-row register-word probe.
    pub probe_word: AtomicU64,
    /// Filters classified to the ≤ 2^16-row byte-LUT probe.
    pub probe_bytes: AtomicU64,
    /// Filters classified to the wide packed-bitset probe.
    pub probe_bitset: AtomicU64,
    /// Distinct filters promoted to a fused scan's shared-mask program
    /// (used by ≥ 2 queries, gathered once per chunk).
    pub shared_mask_filters: AtomicU64,
    /// Per-chunk gather passes those promotions eliminated
    /// (Σ (uses − 1) over promoted filters, × chunks scanned).
    pub shared_mask_gathers_saved: AtomicU64,
}

static KERNEL: KernelCounters = KernelCounters {
    chunks_scanned: AtomicU64::new(0),
    staged_chunk_copies: AtomicU64::new(0),
    staged_gathers: AtomicU64::new(0),
    direct_gathers: AtomicU64::new(0),
    fk_bytes_read: AtomicU64::new(0),
    probe_word: AtomicU64::new(0),
    probe_bytes: AtomicU64::new(0),
    probe_bitset: AtomicU64::new(0),
    shared_mask_filters: AtomicU64::new(0),
    shared_mask_gathers_saved: AtomicU64::new(0),
};

/// The process-wide kernel counters (the engine's flush target).
pub fn kernel_counters() -> &'static KernelCounters {
    &KERNEL
}

/// The cost-model counter set (one process-wide instance,
/// [`cost_counters`]): sampling walks, estimate-cache traffic, and the
/// plan-shape decisions the estimates drove. Same discipline as
/// [`KernelCounters`] — relaxed atomics, flushed per build/plan, never
/// touched inside the chunk loop.
#[derive(Debug, Default)]
pub struct CostCounters {
    /// Wander-join-style row walks executed while building cost models
    /// (one per sampled fact row per build).
    pub walks: AtomicU64,
    /// Cost models served from the per-(schema, data version) cache.
    pub cache_hits: AtomicU64,
    /// Cost models built by sampling (cache misses + explicit builds).
    pub cache_builds: AtomicU64,
    /// Private filters answered by AND-refining a subsuming shared mask
    /// instead of a standalone gather pass.
    pub subsumption_merges: AtomicU64,
    /// Coalescer drain rounds whose adaptive window differed from the
    /// configured fixed window (shrunk when idle, stretched under burst).
    pub window_adjustments: AtomicU64,
}

static COST: CostCounters = CostCounters {
    walks: AtomicU64::new(0),
    cache_hits: AtomicU64::new(0),
    cache_builds: AtomicU64::new(0),
    subsumption_merges: AtomicU64::new(0),
    window_adjustments: AtomicU64::new(0),
};

/// The process-wide cost-model counters.
pub fn cost_counters() -> &'static CostCounters {
    &COST
}

impl CostCounters {
    /// Adds `n` to a counter (relaxed; these are tallies, not
    /// synchronization points).
    pub fn add(counter: &AtomicU64, n: u64) {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            walks: self.walks.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_builds: self.cache_builds.load(Ordering::Relaxed),
            subsumption_merges: self.subsumption_merges.load(Ordering::Relaxed),
            window_adjustments: self.window_adjustments.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the cost-model counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostSnapshot {
    /// See [`CostCounters::walks`].
    pub walks: u64,
    /// See [`CostCounters::cache_hits`].
    pub cache_hits: u64,
    /// See [`CostCounters::cache_builds`].
    pub cache_builds: u64,
    /// See [`CostCounters::subsumption_merges`].
    pub subsumption_merges: u64,
    /// See [`CostCounters::window_adjustments`].
    pub window_adjustments: u64,
}

impl CostSnapshot {
    /// `(name, value)` pairs in declaration order — the single source the
    /// Prometheus and JSON expositions both iterate.
    pub fn entries(&self) -> [(&'static str, u64); 5] {
        [
            ("walks", self.walks),
            ("cache_hits", self.cache_hits),
            ("cache_builds", self.cache_builds),
            ("subsumption_merges", self.subsumption_merges),
            ("window_adjustments", self.window_adjustments),
        ]
    }

    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            walks: self.walks.saturating_sub(earlier.walks),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_builds: self.cache_builds.saturating_sub(earlier.cache_builds),
            subsumption_merges: self.subsumption_merges.saturating_sub(earlier.subsumption_merges),
            window_adjustments: self.window_adjustments.saturating_sub(earlier.window_adjustments),
        }
    }

    /// The snapshot as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries()
                .iter()
                .map(|&(name, v)| (name.to_string(), Json::Num(v as f64)))
                .collect(),
        )
    }
}

impl KernelCounters {
    /// Adds `n` to a counter (relaxed; these are tallies, not
    /// synchronization points).
    pub fn add(counter: &AtomicU64, n: u64) {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> KernelSnapshot {
        KernelSnapshot {
            chunks_scanned: self.chunks_scanned.load(Ordering::Relaxed),
            staged_chunk_copies: self.staged_chunk_copies.load(Ordering::Relaxed),
            staged_gathers: self.staged_gathers.load(Ordering::Relaxed),
            direct_gathers: self.direct_gathers.load(Ordering::Relaxed),
            fk_bytes_read: self.fk_bytes_read.load(Ordering::Relaxed),
            probe_word: self.probe_word.load(Ordering::Relaxed),
            probe_bytes: self.probe_bytes.load(Ordering::Relaxed),
            probe_bitset: self.probe_bitset.load(Ordering::Relaxed),
            shared_mask_filters: self.shared_mask_filters.load(Ordering::Relaxed),
            shared_mask_gathers_saved: self.shared_mask_gathers_saved.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the kernel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelSnapshot {
    /// See [`KernelCounters::chunks_scanned`].
    pub chunks_scanned: u64,
    /// See [`KernelCounters::staged_chunk_copies`].
    pub staged_chunk_copies: u64,
    /// See [`KernelCounters::staged_gathers`].
    pub staged_gathers: u64,
    /// See [`KernelCounters::direct_gathers`].
    pub direct_gathers: u64,
    /// See [`KernelCounters::fk_bytes_read`].
    pub fk_bytes_read: u64,
    /// See [`KernelCounters::probe_word`].
    pub probe_word: u64,
    /// See [`KernelCounters::probe_bytes`].
    pub probe_bytes: u64,
    /// See [`KernelCounters::probe_bitset`].
    pub probe_bitset: u64,
    /// See [`KernelCounters::shared_mask_filters`].
    pub shared_mask_filters: u64,
    /// See [`KernelCounters::shared_mask_gathers_saved`].
    pub shared_mask_gathers_saved: u64,
}

impl KernelSnapshot {
    /// `(name, value)` pairs in declaration order — the single source the
    /// Prometheus and JSON expositions both iterate.
    pub fn entries(&self) -> [(&'static str, u64); 10] {
        [
            ("chunks_scanned", self.chunks_scanned),
            ("staged_chunk_copies", self.staged_chunk_copies),
            ("staged_gathers", self.staged_gathers),
            ("direct_gathers", self.direct_gathers),
            ("fk_bytes_read", self.fk_bytes_read),
            ("probe_word", self.probe_word),
            ("probe_bytes", self.probe_bytes),
            ("probe_bitset", self.probe_bitset),
            ("shared_mask_filters", self.shared_mask_filters),
            ("shared_mask_gathers_saved", self.shared_mask_gathers_saved),
        ]
    }

    /// Counter deltas since an earlier snapshot (process-wide counters
    /// only move forward, so saturating is exact under correct use).
    pub fn since(&self, earlier: &KernelSnapshot) -> KernelSnapshot {
        KernelSnapshot {
            chunks_scanned: self.chunks_scanned.saturating_sub(earlier.chunks_scanned),
            staged_chunk_copies: self
                .staged_chunk_copies
                .saturating_sub(earlier.staged_chunk_copies),
            staged_gathers: self.staged_gathers.saturating_sub(earlier.staged_gathers),
            direct_gathers: self.direct_gathers.saturating_sub(earlier.direct_gathers),
            fk_bytes_read: self.fk_bytes_read.saturating_sub(earlier.fk_bytes_read),
            probe_word: self.probe_word.saturating_sub(earlier.probe_word),
            probe_bytes: self.probe_bytes.saturating_sub(earlier.probe_bytes),
            probe_bitset: self.probe_bitset.saturating_sub(earlier.probe_bitset),
            shared_mask_filters: self
                .shared_mask_filters
                .saturating_sub(earlier.shared_mask_filters),
            shared_mask_gathers_saved: self
                .shared_mask_gathers_saved
                .saturating_sub(earlier.shared_mask_gathers_saved),
        }
    }

    /// The snapshot as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries()
                .iter()
                .map(|&(name, v)| (name.to_string(), Json::Num(v as f64)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_snapshot_delta_and_json() {
        let before = cost_counters().snapshot();
        CostCounters::add(&cost_counters().walks, 7);
        CostCounters::add(&cost_counters().subsumption_merges, 3);
        CostCounters::add(&cost_counters().window_adjustments, 0);
        let delta = cost_counters().snapshot().since(&before);
        assert_eq!(delta.walks, 7);
        assert_eq!(delta.subsumption_merges, 3);
        assert_eq!(delta.window_adjustments, 0);
        let json = delta.to_json();
        assert_eq!(json.get("walks").and_then(Json::as_f64), Some(7.0));
        assert_eq!(delta.entries().len(), 5);
    }

    #[test]
    fn snapshot_delta_and_json() {
        let before = kernel_counters().snapshot();
        KernelCounters::add(&kernel_counters().chunks_scanned, 5);
        KernelCounters::add(&kernel_counters().probe_word, 2);
        KernelCounters::add(&kernel_counters().staged_gathers, 0);
        let delta = kernel_counters().snapshot().since(&before);
        assert_eq!(delta.chunks_scanned, 5);
        assert_eq!(delta.probe_word, 2);
        assert_eq!(delta.staged_gathers, 0);
        let json = delta.to_json();
        assert_eq!(json.get("chunks_scanned").and_then(Json::as_f64), Some(5.0));
        assert_eq!(delta.entries().len(), 10);
    }
}
