//! Exact work counts of the GP hot paths.
//!
//! `GpCounters` (with the `LinalgCounters` it embeds) are process
//! globals, so a delta is exact only while nothing else in the process
//! runs GP or linear-algebra code. Every test here holds [`SERIAL`] for
//! its whole body, and this binary holds no other tests, so the deltas
//! below are equalities, not lower bounds. Each expected value follows
//! from the call structure of the path under test and the counter
//! increment sites it reaches; a path that silently falls back to a
//! more expensive route (a full refit, an uncached sweep, a per-query
//! loop, a search that rebuilds its model per evaluation) changes them.

use std::sync::{Mutex, MutexGuard};

use gp::cache::FitCache;
use gp::optimize::{fit_transfer_gp, FitBudget};
use gp::{GpCounters, PredictCache, TaskData, TransferGp, TransferGpConfig, PREDICT_BLOCK};
use rand::rngs::StdRng;
use rand::SeedableRng;

static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the binary-wide lock; a test that panicked while holding it
/// leaves nothing the counters depend on, so a poisoned lock is reused.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counter increments made by `f`.
fn delta<T>(f: impl FnOnce() -> T) -> (T, GpCounters) {
    let before = GpCounters::snapshot();
    let out = f();
    (out, GpCounters::snapshot().since(&before))
}

/// `count` seeded points in `[0, 1)^dim` with a smooth response.
fn task(count: usize, dim: usize, salt: usize, shift: f64) -> TaskData {
    let x: Vec<Vec<f64>> = (0..count)
        .map(|i| {
            (0..dim)
                .map(|d| ((i * 37 + d * 59 + salt) % 97) as f64 / 97.0)
                .collect()
        })
        .collect();
    let y = x
        .iter()
        .map(|p| p.iter().map(|v| (3.0 * v).sin()).sum::<f64>() + shift)
        .collect();
    TaskData::new(x, y)
}

/// A transfer GP fitted on `n` source and `m` target rows over 2-D
/// inputs.
fn model(n: usize, m: usize) -> TransferGp {
    let source = task(n, 2, 3, 0.0);
    let target = task(m, 2, 11, 0.4);
    TransferGp::fit(source, target, TransferGpConfig::default_for_dim(2)).unwrap()
}

/// A query sweep spanning several [`PREDICT_BLOCK`] chunks, the last one
/// partial.
fn queries() -> Vec<Vec<f64>> {
    let q = 2 * PREDICT_BLOCK + 37;
    (0..q)
        .map(|i| vec![(i % 41) as f64 / 41.0, (i % 53) as f64 / 53.0])
        .collect()
}

/// The full factorization's flop count `Cholesky::new` records for an
/// `n × n` matrix.
fn chol_flops(n: u64) -> u64 {
    n.pow(3) / 3
}

#[test]
fn fit_and_cache_objective_count_one_assembly_each() {
    let _serial = serial();
    let target = task(8, 1, 5, 0.0);
    let source = TaskData::default();
    let cfg = TransferGpConfig::default_for_dim(1);

    // A fit builds the model from raw data: one miss, one assembly, one
    // factorization and one forward solve for `w` (an empty source has no
    // source likelihood to solve for).
    let (_, fit) = delta(|| TransferGp::fit(source.clone(), target.clone(), cfg.clone()).unwrap());
    assert_eq!(fit.fitcache_misses, 1, "{fit:?}");
    assert_eq!(fit.fitcache_hits, 0, "{fit:?}");
    assert_eq!(fit.kernel_assemblies, 1, "{fit:?}");
    assert_eq!(fit.linalg.chol_flops, chol_flops(8), "{fit:?}");
    assert_eq!(fit.linalg.chol_panels, 1, "{fit:?}");
    assert_eq!(fit.linalg.tri_solve_rhs, 1, "{fit:?}");

    // Building the cache computes distances only; one objective is one
    // hit, one assembly, one factorization and one two-sided solve.
    let (cache, build) = delta(|| FitCache::new(&source, &target, 1).unwrap());
    assert_eq!(build, GpCounters::default(), "{build:?}");
    let (value, eval) = delta(|| cache.objective(&cfg));
    assert!(value.is_finite());
    assert_eq!(eval.fitcache_hits, 1, "{eval:?}");
    assert_eq!(eval.fitcache_misses, 0, "{eval:?}");
    assert_eq!(eval.kernel_assemblies, 1, "{eval:?}");
    assert_eq!(eval.linalg.chol_flops, chol_flops(8), "{eval:?}");
    assert_eq!(eval.linalg.tri_solve_rhs, 2, "{eval:?}");
}

#[test]
fn fitcache_search_assembles_once_per_evaluation() {
    let _serial = serial();
    let source = task(20, 2, 3, 0.0);
    let target = task(12, 2, 11, 0.4);
    let budget = FitBudget {
        restarts: 2,
        evals_per_restart: 30,
    };
    let mut rng = StdRng::seed_from_u64(7);
    let ((model, report), d) =
        delta(|| fit_transfer_gp(&source, &target, 2, budget, &mut rng).unwrap());
    assert_eq!(model.target_len(), 12);
    assert!(report.evals >= budget.restarts, "{report:?}");
    let evals = report.evals as u64;
    // Every objective evaluation is served by the FitCache and assembles
    // the kernel once; the winner's model is the search's only build from
    // raw data, with one more assembly.
    assert_eq!(d.fitcache_hits, evals, "{d:?} after {report:?}");
    assert_eq!(d.fitcache_misses, 1, "{d:?}");
    assert_eq!(d.kernel_assemblies, evals + 1, "{d:?}");
    assert_eq!(d.predict_chunks, 0, "{d:?}");
    // No candidate here needs jitter, so each evaluation factors the
    // p × p joint kernel once (one panel) and solves four right-hand
    // sides: `solve_vec` on the joint factor, then the source term's two
    // solves on its leading rows, in place. The final build factors once
    // more and solves three (the forward solve for `w` and the source
    // term's two), and the report's log marginal likelihood back-solves
    // `w` once. A search whose workspace re-assembled, re-factored or
    // re-solved would add to these.
    let p = (source.len() + target.len()) as u64;
    assert_eq!(report.jitter, 0.0, "{report:?}");
    assert_eq!(d.linalg.chol_flops, (evals + 1) * chol_flops(p), "{d:?}");
    assert_eq!(d.linalg.chol_panels, evals + 1, "{d:?}");
    assert_eq!(d.linalg.tri_solve_rhs, 4 * evals + 4, "{d:?}");
}

#[test]
fn condition_on_adds_exactly_the_extension_work() {
    let _serial = serial();
    let (n, m, k) = (30u64, 20u64, 3u64);
    let mut gp = model(n as usize, m as usize);
    let epoch = gp.fit_epoch();
    let new = task(k as usize, 2, 71, 0.4);
    let ((), d) = delta(|| gp.condition_on(&new.x, &new.y).unwrap());
    let p = n + m;
    // `extend` records p²k + pk² for its own sweep and factors the k × k
    // Schur complement (k³/3, one panel); its multi-RHS solve takes the k
    // cross columns, and the new weights `w = L⁻¹z` one more right-hand
    // side. No kernel is assembled and nothing is refitted.
    assert_eq!(
        d.linalg.chol_flops,
        p * p * k + p * k * k + chol_flops(k),
        "{d:?}"
    );
    assert_eq!(d.linalg.chol_panels, 1, "{d:?}");
    assert_eq!(d.linalg.tri_solve_rhs, k + 1, "{d:?}");
    assert_eq!(d.kernel_assemblies, 0, "{d:?}");
    assert_eq!(d.fitcache_misses, 0, "{d:?}");
    assert_eq!(gp.fit_epoch(), epoch);
    assert_eq!(gp.target_len(), (m + k) as usize);
}

#[test]
fn warm_cached_sweep_pays_only_the_appended_rows() {
    let _serial = serial();
    let mut gp = model(30, 20);
    let xs = queries();
    let count = xs.len() as u64;
    let blocks = xs.len().div_ceil(PREDICT_BLOCK) as u64;
    let ids: Vec<u64> = (0..count).collect();
    let mut cache = PredictCache::new();

    cache.begin_sweep();
    let (_, cold) = delta(|| {
        gp.predict_latent_batch_cached(&ids, &xs, 1, &mut cache)
            .unwrap()
    });
    assert_eq!(cold.predict_cache_misses, count, "{cold:?}");
    assert_eq!(cold.predict_cache_hits, 0, "{cold:?}");
    assert_eq!(cold.linalg.tri_solve_rhs, count, "{cold:?}");

    let q = 4u64;
    let new = task(q as usize, 2, 71, 0.4);
    gp.condition_on(&new.x, &new.y).unwrap();
    for workers in [1, 3] {
        cache.begin_sweep();
        let (_, warm) = delta(|| {
            gp.predict_latent_batch_cached(&ids, &xs, workers, &mut cache)
                .unwrap()
        });
        // The first warm sweep after conditioning extends every block by
        // the q new rows; a later one finds the blocks current.
        let tail = if workers == 1 { q * count } else { 0 };
        assert_eq!(warm.predict_cache_hits, count, "{warm:?}");
        assert_eq!(warm.predict_cache_misses, 0, "{warm:?}");
        assert_eq!(warm.predict_cache_evictions, 0, "{warm:?}");
        assert_eq!(warm.predict_chunks, blocks, "{warm:?}");
        assert_eq!(warm.linalg.tri_solve_tail_rows, tail, "{warm:?}");
        assert_eq!(warm.linalg.tri_solve_rhs, 0, "{warm:?}");
        assert_eq!(warm.linalg.chol_flops, 0, "{warm:?}");
        assert_eq!(warm.kernel_assemblies, 0, "{warm:?}");
    }
}

#[test]
fn chunked_sweep_dispatches_one_solve_per_block() {
    let _serial = serial();
    let gp = model(30, 20);
    let xs = queries();
    let blocks = xs.len().div_ceil(PREDICT_BLOCK) as u64;
    for workers in [1, 2, 4, 8] {
        let (out, d) = delta(|| gp.predict_latent_batch(&xs, workers).unwrap());
        assert_eq!(out.len(), xs.len());
        assert_eq!(d.predict_chunks, blocks, "workers {workers}: {d:?}");
        assert_eq!(
            d.linalg.tri_solve_rhs,
            xs.len() as u64,
            "workers {workers}: {d:?}"
        );
        assert_eq!(d.linalg.tri_solve_tail_rows, 0, "{d:?}");
        assert_eq!(d.linalg.chol_flops, 0, "{d:?}");
        assert_eq!(d.predict_cache_hits + d.predict_cache_misses, 0, "{d:?}");
    }
}
