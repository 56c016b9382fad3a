//! Differential suite for the predict-sweep fast paths: the cached
//! incremental predict ([`gp::TransferGp::predict_latent_batch_cached`])
//! and the data-parallel batch predict
//! ([`gp::TransferGp::predict_latent_batch`] at `workers > 1`) against
//! testkit's dense reference posterior and against each other.
//!
//! Two layers of guarantees are pinned:
//!
//! - **Correctness (1e-9 vs the dense reference)**: the cached sweep —
//!   before *and after* incremental conditioning, i.e. through the
//!   `Cholesky::extend` + `solve_lower_only_tail_pages` path — agrees with a
//!   from-scratch dense-inverse posterior of the same (conditioned)
//!   training set within [`testkit::diff::DIFF_TOL`].
//! - **Bitwise equivalence**: the cached sweep and the parallel sweep
//!   return exactly the bits of the scalar `predict_latent` path — at
//!   every worker count, on sweeps spanning several `PREDICT_BLOCK`
//!   chunks with a partial last one. The tuner's determinism contract
//!   (traces independent of `workers` and cache warmth) rests on this.
//! - **Lane-panel churn**: one cache driven through many sweeps of
//!   conditioning, retirements (block compaction), appended ids, second
//!   calls within a sweep and a refit still answers every query with the
//!   scalar path's bits, and holds exactly the candidates the
//!   invalidation laws keep. Conditioning steps of different sizes give
//!   blocks different page boundaries, and compaction packs them
//!   together.
//! - **Several objectives**: two or three models, each with its own
//!   cache, swept in objective order as the tuner does, under the same
//!   churn plus an objective that lags its peers by some rows and a
//!   refit of one objective only; every model's answers carry the bits
//!   of its own uncached batch predict. A call that fails returns the
//!   first failing objective's error and leaves every cache whole.
//!
//! Each case re-seeds its own generator from the shared
//! [`testkit::test_seed`] and the case index, so a failure message alone
//! reproduces the input. The `#[ignore]`d deep suites re-run the drivers
//! with 10× the cases; CI runs them in the `--include-ignored` step.

use std::collections::BTreeSet;

use gp::{GpError, PredictCache, TaskData, TransferGp};
use rand::seq::SliceRandom;
use testkit::diff::{assert_close, assert_close_tol};
use testkit::{gen, refgp};

const CASES: u64 = 1000;

/// Tolerance for the post-conditioning dense comparison. The fast path
/// *extends* its Cholesky factor in place while the reference inverts a
/// freshly assembled matrix, so the two accumulate rounding differently;
/// the worst drift observed across the seeded case set is ≈1.1e-9,
/// pinned with small headroom. The cold comparison (same factorization
/// order on both sides) stays at the suite-wide 1e-9, and the cached
/// path is *bitwise* identical to from-scratch either way.
const EXTEND_TOL: f64 = 5e-9;

/// Asserts two batch-prediction outputs are bit-for-bit identical.
fn assert_bitwise(what: &str, case: u64, a: &[(f64, f64)], b: &[(f64, f64)]) {
    assert_eq!(a.len(), b.len(), "{what} case {case}: length mismatch");
    for (q, ((am, av), (bm, bv))) in a.iter().zip(b).enumerate() {
        assert!(
            am.to_bits() == bm.to_bits() && av.to_bits() == bv.to_bits(),
            "{what} case {case} q{q}: ({am}, {av}) vs ({bm}, {bv})"
        );
    }
}

/// Cached-incremental predict vs the dense reference and vs the serial
/// from-scratch batch, across a fit → sweep → condition → sweep cycle.
fn cached_predict_driver(cases: u64, queries_per_case: usize) {
    for case in 0..cases {
        let mut rng = gen::case_rng(testkit::test_seed(), case);
        use rand::Rng;
        let dim = rng.gen_range(1..=3usize);
        let (source, target, config) = gen::gp_problem(&mut rng, dim);
        let mut fast = gp::TransferGp::fit(source.clone(), target.clone(), config.clone())
            .expect("fast transfer GP fits well-conditioned fuzz input");
        let queries = gen::gp_queries(&mut rng, &target, dim, queries_per_case);
        let ids: Vec<usize> = (0..queries.len()).collect();
        let workers = rng.gen_range(1..=4usize);

        let mut cache = PredictCache::new();
        cache.begin_sweep();
        let cold = fast
            .predict_latent_batch_cached(&ids, &queries, workers, &mut cache)
            .expect("cold cached sweep");
        let scratch = fast
            .predict_latent_batch(&queries, 1)
            .expect("serial from-scratch batch");
        assert_bitwise("cold cached sweep", case, &cold, &scratch);
        assert_eq!(
            cache.len(),
            queries.len(),
            "case {case}: cold sweep must cache every candidate"
        );

        // The dense reference inverts the same matrix the fast path
        // factored, so it takes the jitter the Cholesky actually added.
        let dense = refgp::ReferenceTransferGp::fit(&source, &target, &config, fast.jitter());
        for (q, x) in queries.iter().enumerate() {
            let (rm, rv) = dense.predict_latent(x);
            let input = (&source, &target, &config, x);
            assert_close(
                &format!("cached latent mean q{q}"),
                case,
                &input,
                cold[q].0,
                rm,
            );
            assert_close(
                &format!("cached latent var q{q}"),
                case,
                &input,
                cold[q].1,
                rv,
            );
        }

        // Incrementally condition on 1–3 fresh observations, then sweep
        // again: every cached candidate takes the extend + tail-solve
        // path, which must stay bitwise identical to from-scratch and
        // 1e-9-close to a dense refit of the extended training set.
        let q_new = rng.gen_range(1..=3usize);
        let new_x: Vec<Vec<f64>> = (0..q_new)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let new_y: Vec<f64> = (0..q_new).map(|_| rng.gen_range(-2.0..2.0)).collect();
        fast.condition_on(&new_x, &new_y)
            .expect("incremental conditioning on fuzz points");

        cache.begin_sweep();
        let warm = fast
            .predict_latent_batch_cached(&ids, &queries, workers, &mut cache)
            .expect("warm cached sweep");
        let scratch = fast
            .predict_latent_batch(&queries, 1)
            .expect("serial from-scratch batch after conditioning");
        assert_bitwise("warm cached sweep", case, &warm, &scratch);

        let mut ext_x = target.x.as_ref().clone();
        ext_x.extend(new_x.iter().cloned());
        let mut ext_y = target.y.clone();
        ext_y.extend_from_slice(&new_y);
        let ext_target = TaskData::new(ext_x, ext_y);
        let dense = refgp::ReferenceTransferGp::fit(&source, &ext_target, &config, fast.jitter());
        for (q, x) in queries.iter().enumerate() {
            let (rm, rv) = dense.predict_latent(x);
            let input = (&source, &ext_target, &config, x);
            assert_close_tol(
                &format!("warm latent mean q{q}"),
                case,
                &input,
                warm[q].0,
                rm,
                EXTEND_TOL,
            );
            assert_close_tol(
                &format!("warm latent var q{q}"),
                case,
                &input,
                warm[q].1,
                rv,
                EXTEND_TOL,
            );
        }
    }
}

/// Every sweep — exact, cached, and subset-of-data — must return the
/// scalar path's exact bits at every worker count, on a pool of
/// `pool` queries (several `PREDICT_BLOCK` chunks, the last partial).
fn parallel_invariance_driver(cases: u64, pool: usize) {
    for case in 0..cases {
        let mut rng = gen::case_rng(testkit::test_seed(), case);
        use rand::Rng;
        let dim = rng.gen_range(1..=3usize);
        let (source, target, config) = gen::gp_problem(&mut rng, dim);
        let fast = gp::TransferGp::fit(source.clone(), target.clone(), config.clone())
            .expect("fast transfer GP fits well-conditioned fuzz input");
        let queries = gen::gp_queries(&mut rng, &target, dim, pool);
        let ids: Vec<usize> = (0..queries.len()).collect();
        let sod = fast
            .subset_predictor((source.len() + target.len()).div_ceil(2))
            .expect("subset predictor builds on fuzz input");
        let base: Vec<(f64, f64)> = queries
            .iter()
            .map(|x| fast.predict_latent(x).expect("scalar predict"))
            .collect();
        let sod_base: Vec<(f64, f64)> = queries
            .iter()
            .map(|x| sod.predict_latent(x).expect("scalar subset predict"))
            .collect();
        for workers in [1, 2, 4, 8] {
            let par = fast
                .predict_latent_batch(&queries, workers)
                .expect("parallel batch");
            assert_bitwise(&format!("exact workers={workers}"), case, &par, &base);
            let mut cache = PredictCache::new();
            cache.begin_sweep();
            let cached = fast
                .predict_latent_batch_cached(&ids, &queries, workers, &mut cache)
                .expect("cached batch");
            assert_bitwise(&format!("cached workers={workers}"), case, &cached, &base);
            let par = sod
                .predict_latent_batch(&queries, workers)
                .expect("parallel subset batch");
            assert_bitwise(&format!("sod workers={workers}"), case, &par, &sod_base);
        }
    }
}

/// Asserts a cached sweep's answers against the scalar path, query by
/// query.
fn assert_scalar_bits(
    what: &str,
    case: u64,
    model: &TransferGp,
    xs: &[Vec<f64>],
    got: &[(f64, f64)],
) {
    let want: Vec<(f64, f64)> = xs
        .iter()
        .map(|x| model.predict_latent(x).expect("scalar predict"))
        .collect();
    assert_bitwise(what, case, got, &want);
}

/// One [`PredictCache`] over `sweeps` sweeps of a growing model. Each
/// sweep may condition on q ∈ {0..5} points (one sweep refits instead,
/// a new epoch), retires random candidates, queries the survivors in a
/// random order (sometimes with a repeated id), then makes a second call
/// within the sweep with appended ids, some candidates retired in this
/// sweep and some already answered. Sweeps 1 and 2 condition on 1 and 4
/// points and sweeps 0–2 append ids, so blocks started in different
/// sweeps carry different page boundaries (pages of n, 1 and 4 rows
/// against n + 1 and 4, or one of n + 5) when the retirements chosen in
/// sweep 2 pack them together at sweep 3. Every answer must carry the scalar
/// path's bits, and the cache must hold exactly the candidates the
/// previous sweep queried plus those queried since (all of them dropped
/// at a refit).
fn lane_panel_driver(cases: u64, sweeps: usize) {
    use rand::Rng;
    for case in 0..cases {
        let mut rng = gen::case_rng(testkit::test_seed(), case ^ 0x1a9e);
        let dim = rng.gen_range(1..=3usize);
        let (source, target, config) = gen::gp_problem(&mut rng, dim);
        let mut model = TransferGp::fit(source.clone(), target.clone(), config.clone())
            .expect("fast transfer GP fits well-conditioned fuzz input");
        let (mut tx, mut ty) = (target.x.as_ref().clone(), target.y.clone());
        let workers = [1, 2, 4][case as usize % 3];
        let pool = rng.gen_range(1..=2 * gp::PREDICT_BLOCK + 40);
        let mut xs = gen::gp_queries(&mut rng, &target, dim, pool);
        let mut active: Vec<usize> = (0..pool).collect();
        let refit_at = rng.gen_range(1..sweeps);
        let mut cache = PredictCache::new();
        // The ids queried since the last sweep boundary (or refit), and
        // the fit epoch the cache was last used at.
        let mut now = BTreeSet::new();
        let mut epoch = model.fit_epoch();
        for sweep in 0..sweeps {
            let q = match sweep {
                0 => 0,
                1 => 1,
                2 => 4,
                _ => rng.gen_range(0..=5usize),
            };
            let new_x: Vec<Vec<f64>> = (0..q)
                .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
                .collect();
            let new_y: Vec<f64> = (0..q).map(|_| rng.gen_range(-2.0..2.0)).collect();
            tx.extend(new_x.iter().cloned());
            ty.extend_from_slice(&new_y);
            if sweep == refit_at {
                let grown = TaskData::new(tx.clone(), ty.clone());
                model = TransferGp::fit(source.clone(), grown, config.clone())
                    .expect("refit on the grown target");
            } else if q > 0 {
                model
                    .condition_on(&new_x, &new_y)
                    .expect("incremental conditioning on fuzz points");
            }

            cache.begin_sweep();
            // The ids the cache must hold.
            let mut cached = std::mem::take(&mut now);
            assert_eq!(
                cache.len(),
                cached.len(),
                "case {case} sweep {sweep}: retained"
            );
            let fresh = rng.gen_range(usize::from(sweep < 3)..=9);
            let base = xs.len();
            xs.extend(gen::gp_queries(&mut rng, &target, dim, fresh));
            let mut call = |ids: &[usize], what: &str, cache: &mut PredictCache| {
                if model.fit_epoch() != epoch {
                    // A refit (or condition_on's full-refit fallback)
                    // clears the cache at the next call.
                    epoch = model.fit_epoch();
                    cached.clear();
                    now.clear();
                }
                let queries: Vec<Vec<f64>> = ids.iter().map(|&id| xs[id].clone()).collect();
                let got = model
                    .predict_latent_batch_cached(ids, &queries, workers, cache)
                    .expect("cached sweep");
                let what = format!("{what} sweep {sweep} q={q} workers={workers}");
                assert_scalar_bits(&what, case, &model, &queries, &got);
                now.extend(ids.iter().copied());
                cached.extend(ids.iter().copied());
                assert_eq!(cache.len(), cached.len(), "case {case} {what}: cached ids");
            };

            // Retire a random share, then query the rest in random order.
            let retire = rng.gen_range(if sweep == 2 { 0.1 } else { 0.0 }..0.3);
            let (kept, retired): (Vec<usize>, Vec<usize>) =
                active.iter().partition(|_| !rng.gen_bool(retire));
            active = kept;
            let mut first = active.clone();
            first.shuffle(&mut rng);
            if !first.is_empty() && rng.gen_bool(0.2) {
                let dup = first[rng.gen_range(0..first.len())];
                first.push(dup);
            }
            call(&first, "first call", &mut cache);

            // Second call: appended ids, plus some retired this sweep
            // (still cached: the previous sweep queried them) and some
            // already answered in this sweep (no tail left).
            let mut second: Vec<usize> = (base..base + fresh).collect();
            second.extend(retired.iter().filter(|_| rng.gen_bool(0.5)));
            second.extend(active.iter().filter(|_| rng.gen_bool(0.05)));
            second.shuffle(&mut rng);
            if !second.is_empty() {
                call(&second, "second call", &mut cache);
            }
            active.extend(base..base + fresh);
        }
    }
}

/// One cached sweep of every objective's model through its own cache,
/// in objective order, as the tuner's surrogate runs it: the first
/// objective that fails ends the call with its error.
fn sweep_objectives(
    models: &[TransferGp],
    caches: &mut [PredictCache],
    ids: &[usize],
    xs: &[Vec<f64>],
    workers: usize,
) -> gp::Result<Vec<Vec<(f64, f64)>>> {
    models
        .iter()
        .zip(caches)
        .map(|(model, cache)| model.predict_latent_batch_cached(ids, xs, workers, cache))
        .collect()
}

/// Asserts every model's answers against its own uncached batch
/// predict of `xs`.
fn assert_batch_bits(
    what: &str,
    case: u64,
    models: &[TransferGp],
    xs: &[Vec<f64>],
    got: &[Vec<(f64, f64)>],
) {
    assert_eq!(
        got.len(),
        models.len(),
        "{what} case {case}: one answer per model"
    );
    for (k, (model, got)) in models.iter().zip(got).enumerate() {
        let want = model.predict_latent_batch(xs, 1).expect("uncached batch");
        assert_bitwise(&format!("{what} model {k}"), case, got, &want);
    }
}

/// Two or three models (one per objective), each with its own cache,
/// swept together over `sweeps` sweeps. Each sweep conditions every
/// model on the same wave of q ∈ {0..3} points, except that the last
/// model freezes for a stretch of sweeps and then catches up on every
/// row it skipped at once, so its factor lags its peers' and then gains
/// a multi-row tail; one objective alone is refit at a random sweep (a
/// new epoch for its cache only). Each sweep retires candidates, queries
/// the rest, then makes a second call with appended ids; once, a call
/// carrying one query of the wrong dimension fails, and the valid calls
/// that follow must read every cache as it was. Every answer must equal
/// each model's uncached batch predict bit for bit, and each cache must
/// hold exactly the candidates its invalidation laws keep.
fn multi_model_driver(cases: u64, sweeps: usize) {
    use rand::Rng;
    for case in 0..cases {
        let mut rng = gen::case_rng(testkit::test_seed(), case ^ 0x3b0f);
        let dim = rng.gen_range(1..=3usize);
        let k = 2 + case as usize % 2;
        let workers = [1, 2, 8][case as usize / 2 % 3];
        let problems: Vec<_> = (0..k).map(|_| gen::gp_problem(&mut rng, dim)).collect();
        let mut models: Vec<TransferGp> = problems
            .iter()
            .map(|(s, t, c)| {
                TransferGp::fit(s.clone(), t.clone(), c.clone()).expect("model fits fuzz input")
            })
            .collect();
        // Each model's target rows so far, and the rows the lagging model
        // has yet to condition on.
        let mut rows: Vec<(Vec<Vec<f64>>, Vec<f64>)> = problems
            .iter()
            .map(|(_, t, _)| (t.x.as_ref().clone(), t.y.clone()))
            .collect();
        let mut lag: (Vec<Vec<f64>>, Vec<f64>) = (Vec::new(), Vec::new());
        let lagging = k - 1;
        let frozen = 1 + rng.gen_range(0..sweeps / 2)..sweeps - 1 - rng.gen_range(0..sweeps / 3);
        let (refit_obj, refit_at) = (rng.gen_range(0..k), rng.gen_range(1..sweeps));
        let fail_at = rng.gen_range(1..sweeps);

        let pool = rng.gen_range(1..=2 * gp::PREDICT_BLOCK + 40);
        let mut xs = gen::gp_queries(&mut rng, &problems[0].1, dim, pool);
        let mut active: Vec<usize> = (0..pool).collect();
        let mut caches: Vec<PredictCache> = (0..k).map(|_| PredictCache::new()).collect();
        // Per model: the ids queried since the last sweep boundary (or
        // refit), the ids its cache must hold, and its cache's epoch.
        let mut now = vec![BTreeSet::new(); k];
        let mut cached = vec![BTreeSet::new(); k];
        let mut epochs: Vec<u64> = models.iter().map(TransferGp::fit_epoch).collect();
        for sweep in 0..sweeps {
            let q = if sweep == 0 {
                0
            } else {
                rng.gen_range(0..=3usize)
            };
            let new_x: Vec<Vec<f64>> = (0..q)
                .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
                .collect();
            for (j, model) in models.iter_mut().enumerate() {
                let new_y: Vec<f64> = (0..q).map(|_| rng.gen_range(-2.0..2.0)).collect();
                rows[j].0.extend(new_x.iter().cloned());
                rows[j].1.extend_from_slice(&new_y);
                if j == refit_obj && sweep == refit_at {
                    let (s, _, c) = &problems[j];
                    let grown = TaskData::new(rows[j].0.clone(), rows[j].1.clone());
                    *model = TransferGp::fit(s.clone(), grown, c.clone())
                        .expect("refit on the grown target");
                    if j == lagging {
                        lag = (Vec::new(), Vec::new());
                    }
                    continue;
                }
                let (x, y) = if j == lagging {
                    lag.0.extend(new_x.iter().cloned());
                    lag.1.extend_from_slice(&new_y);
                    if frozen.contains(&sweep) {
                        continue;
                    }
                    std::mem::take(&mut lag)
                } else {
                    (new_x.clone(), new_y)
                };
                if !x.is_empty() {
                    model
                        .condition_on(&x, &y)
                        .expect("incremental conditioning on fuzz points");
                }
            }

            for (j, cache) in caches.iter_mut().enumerate() {
                cache.begin_sweep();
                cached[j] = std::mem::take(&mut now[j]);
                assert_eq!(
                    cache.len(),
                    cached[j].len(),
                    "case {case} sweep {sweep} model {j}: retained"
                );
            }
            let fresh = rng.gen_range(usize::from(sweep < 3)..=9);
            let base = xs.len();
            xs.extend(gen::gp_queries(&mut rng, &problems[0].1, dim, fresh));
            let retire = rng.gen_range(0.0..0.3);
            let (kept, retired): (Vec<usize>, Vec<usize>) =
                active.iter().partition(|_| !rng.gen_bool(retire));
            active = kept;
            if sweep == fail_at {
                // Cached and fresh ids plus one query of the wrong
                // dimension: the call fails before any cache changes.
                let lens: Vec<usize> = caches.iter().map(PredictCache::len).collect();
                let mut ids = active.clone();
                ids.extend(base..base + fresh);
                let mut queries: Vec<Vec<f64>> = ids.iter().map(|&id| xs[id].clone()).collect();
                let bad = rng.gen_range(0..=ids.len());
                ids.insert(bad, xs.len() + 1);
                queries.insert(bad, vec![0.5; dim + 1]);
                let err = sweep_objectives(&models, &mut caches, &ids, &queries, workers)
                    .expect_err("a wrong-dimension query fails the call");
                assert_eq!(
                    err,
                    GpError::DimensionMismatch {
                        expected: dim,
                        got: dim + 1
                    },
                    "case {case}"
                );
                let after: Vec<usize> = caches.iter().map(PredictCache::len).collect();
                assert_eq!(
                    after, lens,
                    "case {case} sweep {sweep}: a failed call keeps every cache"
                );
            }
            let mut call = |ids: &[usize], what: &str, caches: &mut [PredictCache]| {
                for (j, model) in models.iter().enumerate() {
                    if model.fit_epoch() != epochs[j] {
                        epochs[j] = model.fit_epoch();
                        cached[j].clear();
                        now[j].clear();
                    }
                }
                let queries: Vec<Vec<f64>> = ids.iter().map(|&id| xs[id].clone()).collect();
                let got = sweep_objectives(&models, caches, ids, &queries, workers)
                    .expect("cached sweep");
                let what = format!("{what} sweep {sweep} q={q} k={k} workers={workers}");
                assert_batch_bits(&what, case, &models, &queries, &got);
                for j in 0..k {
                    now[j].extend(ids.iter().copied());
                    cached[j].extend(ids.iter().copied());
                    assert_eq!(
                        caches[j].len(),
                        cached[j].len(),
                        "case {case} {what} model {j}: cached ids"
                    );
                }
            };

            let mut first = active.clone();
            first.shuffle(&mut rng);
            if !first.is_empty() && rng.gen_bool(0.2) {
                let dup = first[rng.gen_range(0..first.len())];
                first.push(dup);
            }
            call(&first, "first call", &mut caches);
            let mut second: Vec<usize> = (base..base + fresh).collect();
            second.extend(retired.iter().filter(|_| rng.gen_bool(0.5)));
            second.shuffle(&mut rng);
            if !second.is_empty() {
                call(&second, "second call", &mut caches);
            }
            active.extend(base..base + fresh);
        }
    }
}

/// One model of dimension 2 and one of dimension 3, each with a warm
/// cache of the same ids, swept together on queries that each model
/// partly rejects: the error is the first failing objective's, whichever
/// model comes first, and both caches keep every lane and still answer
/// with their model's bits.
#[test]
fn objective_sweep_reports_the_first_failure_and_keeps_every_cache() {
    use rand::Rng;
    let mut rng = gen::case_rng(testkit::test_seed(), 0x5e11);
    let mut models = Vec::new();
    let mut warm = Vec::new();
    for dim in [2, 3] {
        let (source, target, config) = gen::gp_problem(&mut rng, dim);
        models
            .push(TransferGp::fit(source, target.clone(), config).expect("model fits fuzz input"));
        warm.push(gen::gp_queries(&mut rng, &target, dim, 100));
    }
    let ids: Vec<usize> = (0..230).collect();
    let mut caches: Vec<PredictCache> = Vec::new();
    for (model, xs) in models.iter_mut().zip(&warm) {
        let mut cache = PredictCache::new();
        cache.begin_sweep();
        model
            .predict_latent_batch_cached(&ids[..100], xs, 2, &mut cache)
            .expect("warm sweep");
        let dim = xs[0].len();
        let x: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
            .collect();
        model
            .condition_on(&x, &[0.1, -0.4, 0.7])
            .expect("conditioning");
        caches.push(cache);
    }
    // Dimension-2 queries, except query 120 (dimension 3) and query 170
    // (dimension 5): model 0 fails at query 120, model 1 at query 0.
    let mut queries: Vec<Vec<f64>> = warm[0].clone();
    queries.extend((100..230).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]));
    queries[120] = vec![0.5; 3];
    queries[170] = vec![0.5; 5];
    for order in [[0, 1], [1, 0]] {
        let ordered: Vec<TransferGp> = order.iter().map(|&k| models[k].clone()).collect();
        let mut taken: Vec<PredictCache> = order
            .iter()
            .map(|&k| std::mem::take(&mut caches[k]))
            .collect();
        for workers in [1, 2, 8] {
            let err = sweep_objectives(&ordered, &mut taken, &ids, &queries, workers)
                .expect_err("each model rejects some query");
            let want = match order[0] {
                0 => GpError::DimensionMismatch {
                    expected: 2,
                    got: 3,
                },
                _ => GpError::DimensionMismatch {
                    expected: 3,
                    got: 2,
                },
            };
            assert_eq!(err, want, "order {order:?} workers {workers}");
            for cache in &taken {
                assert_eq!(
                    cache.len(),
                    100,
                    "order {order:?} workers {workers}: every lane kept"
                );
            }
        }
        for (&k, cache) in order.iter().zip(taken) {
            caches[k] = cache;
        }
    }
    for (k, (model, xs)) in models.iter().zip(&warm).enumerate() {
        let model = std::slice::from_ref(model);
        let got = sweep_objectives(model, &mut caches[k..=k], &ids[..100], xs, 2)
            .expect("valid sweep after the failures");
        assert_eq!(caches[k].len(), 100, "model {k}: every lane stayed");
        assert_batch_bits(&format!("model {k} after failures"), 0, model, xs, &got);
    }
}

#[test]
fn multi_model_sweep_matches_each_model_bitwise() {
    multi_model_driver(18, 10);
}

#[test]
fn lane_panel_cache_survives_churn_bitwise() {
    lane_panel_driver(24, 10);
}

#[test]
fn cached_incremental_predict_matches_dense_reference() {
    cached_predict_driver(CASES, 4);
}

#[test]
fn parallel_predict_is_chunk_and_worker_invariant() {
    parallel_invariance_driver(60, 2 * gp::PREDICT_BLOCK + 17);
}

// --- deep stress variants (nightly-style: `cargo test -- --include-ignored`)

#[test]
#[ignore = "10x-depth stress suite, run via --include-ignored"]
fn deep_cached_incremental_predict() {
    cached_predict_driver(10_000, 5);
}

#[test]
#[ignore = "10x-depth stress suite, run via --include-ignored"]
fn deep_lane_panel_churn() {
    lane_panel_driver(240, 10);
}

#[test]
#[ignore = "10x-depth stress suite, run via --include-ignored"]
fn deep_parallel_invariance() {
    parallel_invariance_driver(600, 3 * gp::PREDICT_BLOCK + 29);
}

#[test]
#[ignore = "10x-depth stress suite, run via --include-ignored"]
fn deep_multi_model_sweep() {
    multi_model_driver(180, 10);
}
