//! Process-global resource counters for the GP fitting hot paths.
//!
//! Same design as [`linalg::counters`]: one relaxed atomic add per call
//! at call-granularity aggregation points, snapshotted and differenced by
//! consumers (see `obs::Event::ResourceSample`). Deltas are exact for a
//! single-run process and approximate when several runs share it. The
//! `work_counts` integration test (`crates/gp/tests/work_counts.rs`)
//! serializes its tests so its deltas are exact, and pins the work of
//! each hot path there.

use std::sync::atomic::{AtomicU64, Ordering};

pub use linalg::LinalgCounters;

/// Hyperparameter-search objective evaluations served from a
/// [`crate::cache::FitCache`]'s pre-validated, dimension-major inputs (no
/// data clone, no per-point kernel dispatch).
pub static FITCACHE_HITS: AtomicU64 = AtomicU64::new(0);

/// Full transfer-GP model constructions from raw data — the path a cache
/// hit avoids (the final build after a search, warm refits, and any
/// legacy clone-per-eval evaluation).
pub static FITCACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Dense joint-kernel matrix assemblies (cache-based or from raw points).
pub static KERNEL_ASSEMBLIES: AtomicU64 = AtomicU64::new(0);

/// Candidate predictions served from a [`crate::PredictCache`] entry
/// (tail-extended solve instead of a from-scratch column).
pub static PREDICT_CACHE_HITS: AtomicU64 = AtomicU64::new(0);

/// Candidate predictions computed from scratch during a cached sweep
/// (first sight of the candidate, or after an invalidating refit).
pub static PREDICT_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Cache entries dropped — stale epoch (refit/standardization change) or
/// candidate no longer undecided (classified/pruned since last sweep).
pub static PREDICT_CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Chunks dispatched by the data-parallel predict sweep (serial sweeps
/// count their chunks too, so the counter tracks total chunking work).
pub static PREDICT_CHUNKS: AtomicU64 = AtomicU64::new(0);

#[inline]
pub(crate) fn add_fitcache_hits(n: u64) {
    FITCACHE_HITS.fetch_add(n, Ordering::Relaxed);
}

#[inline]
pub(crate) fn add_fitcache_misses(n: u64) {
    FITCACHE_MISSES.fetch_add(n, Ordering::Relaxed);
}

#[inline]
pub(crate) fn add_kernel_assemblies(n: u64) {
    KERNEL_ASSEMBLIES.fetch_add(n, Ordering::Relaxed);
}

#[inline]
pub(crate) fn add_predict_cache_hits(n: u64) {
    PREDICT_CACHE_HITS.fetch_add(n, Ordering::Relaxed);
}

#[inline]
pub(crate) fn add_predict_cache_misses(n: u64) {
    PREDICT_CACHE_MISSES.fetch_add(n, Ordering::Relaxed);
}

#[inline]
pub(crate) fn add_predict_cache_evictions(n: u64) {
    PREDICT_CACHE_EVICTIONS.fetch_add(n, Ordering::Relaxed);
}

#[inline]
pub(crate) fn add_predict_chunks(n: u64) {
    PREDICT_CHUNKS.fetch_add(n, Ordering::Relaxed);
}

/// A point-in-time reading of the GP **and** linalg counters, so one
/// snapshot captures the whole surrogate-fitting resource picture.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpCounters {
    /// FitCache-served objective evaluations.
    pub fitcache_hits: u64,
    /// Fresh model constructions from raw data.
    pub fitcache_misses: u64,
    /// Dense joint-kernel assemblies.
    pub kernel_assemblies: u64,
    /// PredictCache-served candidate predictions.
    pub predict_cache_hits: u64,
    /// From-scratch candidate predictions during cached sweeps.
    pub predict_cache_misses: u64,
    /// PredictCache entries dropped (stale epoch or pruned candidate).
    pub predict_cache_evictions: u64,
    /// Chunks dispatched by the predict sweep.
    pub predict_chunks: u64,
    /// The underlying linear-algebra counters.
    pub linalg: LinalgCounters,
}

impl GpCounters {
    /// Reads the current counter values.
    pub fn snapshot() -> Self {
        GpCounters {
            fitcache_hits: FITCACHE_HITS.load(Ordering::Relaxed),
            fitcache_misses: FITCACHE_MISSES.load(Ordering::Relaxed),
            kernel_assemblies: KERNEL_ASSEMBLIES.load(Ordering::Relaxed),
            predict_cache_hits: PREDICT_CACHE_HITS.load(Ordering::Relaxed),
            predict_cache_misses: PREDICT_CACHE_MISSES.load(Ordering::Relaxed),
            predict_cache_evictions: PREDICT_CACHE_EVICTIONS.load(Ordering::Relaxed),
            predict_chunks: PREDICT_CHUNKS.load(Ordering::Relaxed),
            linalg: LinalgCounters::snapshot(),
        }
    }

    /// Counter increments since `earlier` (saturating).
    pub fn since(&self, earlier: &GpCounters) -> GpCounters {
        GpCounters {
            fitcache_hits: self.fitcache_hits.saturating_sub(earlier.fitcache_hits),
            fitcache_misses: self.fitcache_misses.saturating_sub(earlier.fitcache_misses),
            kernel_assemblies: self
                .kernel_assemblies
                .saturating_sub(earlier.kernel_assemblies),
            predict_cache_hits: self
                .predict_cache_hits
                .saturating_sub(earlier.predict_cache_hits),
            predict_cache_misses: self
                .predict_cache_misses
                .saturating_sub(earlier.predict_cache_misses),
            predict_cache_evictions: self
                .predict_cache_evictions
                .saturating_sub(earlier.predict_cache_evictions),
            predict_chunks: self.predict_chunks.saturating_sub(earlier.predict_chunks),
            linalg: self.linalg.since(&earlier.linalg),
        }
    }
}
