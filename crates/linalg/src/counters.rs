//! Process-global resource counters for the linear-algebra hot paths.
//!
//! The counters are deliberately coarse: each routine adds one aggregate
//! increment per *call* (never per inner-loop iteration), so the cost is
//! a handful of relaxed atomic adds per factorization or solve —
//! unmeasurable next to the O(n³) work being counted. Consumers snapshot
//! the counters around a region of interest and report the delta (see
//! `obs::Event::ResourceSample`).
//!
//! Being process-global, the counters mix contributions when several
//! runs share a process (e.g. parallel tests); deltas are exact only for
//! a single-run process. `gp`'s `work_counts` integration test
//! (`crates/gp/tests/work_counts.rs`) runs its tests one at a time, so
//! its deltas are exact: it pins the factorization, solve and tail-solve
//! counts of the GP hot paths as equalities.

use std::sync::atomic::{AtomicU64, Ordering};

/// Floating-point operations spent in Cholesky factorizations
/// (≈ n³/3 per full factorization, ≈ n²k + nk² + k³/3 per extension).
pub static CHOL_FLOPS: AtomicU64 = AtomicU64::new(0);

/// Panel factorizations performed by the blocked Cholesky
/// (⌈n / block⌉ per factorization).
pub static CHOL_PANELS: AtomicU64 = AtomicU64::new(0);

/// Right-hand sides pushed through triangular substitutions (a multi-RHS
/// solve counts once per column).
pub static TRI_SOLVE_RHS: AtomicU64 = AtomicU64::new(0);

/// Rows appended by partial-tail forward substitutions
/// (`solve_lower_tail_pages`, once per row and lane), i.e. the incremental
/// work the predict cache pays instead of a full O(n²) re-solve.
pub static TRI_SOLVE_TAIL_ROWS: AtomicU64 = AtomicU64::new(0);

#[inline]
pub(crate) fn add_chol_flops(n: u64) {
    CHOL_FLOPS.fetch_add(n, Ordering::Relaxed);
}

#[inline]
pub(crate) fn add_chol_panels(n: u64) {
    CHOL_PANELS.fetch_add(n, Ordering::Relaxed);
}

#[inline]
pub(crate) fn add_tri_solve_rhs(n: u64) {
    TRI_SOLVE_RHS.fetch_add(n, Ordering::Relaxed);
}

#[inline]
pub(crate) fn add_tri_solve_tail_rows(n: u64) {
    TRI_SOLVE_TAIL_ROWS.fetch_add(n, Ordering::Relaxed);
}

/// A point-in-time reading of every linalg counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinalgCounters {
    /// Cholesky floating-point operations.
    pub chol_flops: u64,
    /// Blocked-Cholesky panel factorizations.
    pub chol_panels: u64,
    /// Triangular-solve right-hand sides.
    pub tri_solve_rhs: u64,
    /// Partial-tail forward-substitution rows.
    pub tri_solve_tail_rows: u64,
}

impl LinalgCounters {
    /// Reads the current counter values.
    pub fn snapshot() -> Self {
        LinalgCounters {
            chol_flops: CHOL_FLOPS.load(Ordering::Relaxed),
            chol_panels: CHOL_PANELS.load(Ordering::Relaxed),
            tri_solve_rhs: TRI_SOLVE_RHS.load(Ordering::Relaxed),
            tri_solve_tail_rows: TRI_SOLVE_TAIL_ROWS.load(Ordering::Relaxed),
        }
    }

    /// Counter increments since `earlier` (saturating, in case another
    /// thread interleaved).
    pub fn since(&self, earlier: &LinalgCounters) -> LinalgCounters {
        LinalgCounters {
            chol_flops: self.chol_flops.saturating_sub(earlier.chol_flops),
            chol_panels: self.chol_panels.saturating_sub(earlier.chol_panels),
            tri_solve_rhs: self.tri_solve_rhs.saturating_sub(earlier.tri_solve_rhs),
            tri_solve_tail_rows: self
                .tri_solve_tail_rows
                .saturating_sub(earlier.tri_solve_tail_rows),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cholesky, Matrix};

    #[test]
    fn factorization_and_solves_advance_counters() {
        // Deltas are lower-bounded, not exact: other tests in this binary
        // run concurrently and advance the same globals.
        let before = LinalgCounters::snapshot();
        let n = 24;
        let mut a = Matrix::from_fn(n, n, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        a.add_diag(n as f64);
        let chol = Cholesky::new(&a).unwrap();
        chol.solve_vec(&vec![1.0; n]).unwrap();
        chol.solve_lower_only_multi(&mut Matrix::zeros(n, 3))
            .unwrap();
        let delta = LinalgCounters::snapshot().since(&before);
        let n3 = (n * n * n) as u64;
        assert!(delta.chol_flops >= n3 / 3, "flops {delta:?}");
        assert!(delta.chol_panels >= 1, "panels {delta:?}");
        // solve_vec = 2 RHS (forward + transposed), multi = 3 columns.
        assert!(delta.tri_solve_rhs >= 5, "rhs {delta:?}");
    }

    #[test]
    fn since_saturates() {
        let a = LinalgCounters {
            chol_flops: 1,
            chol_panels: 0,
            tri_solve_rhs: 0,
            tri_solve_tail_rows: 0,
        };
        let b = LinalgCounters {
            chol_flops: 5,
            chol_panels: 2,
            tri_solve_rhs: 3,
            tri_solve_tail_rows: 4,
        };
        assert_eq!(a.since(&b), LinalgCounters::default());
    }
}
