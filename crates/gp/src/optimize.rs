//! Hyper-parameter optimization: a Nelder–Mead simplex minimizer and
//! multi-start marginal-likelihood training for the transfer GP.

use std::time::Instant;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::cache::FitCache;
use crate::fan_out;
use crate::transfer::{TaskData, TransferGp, TransferGpConfig};
use crate::Result;

/// Options of the Nelder–Mead simplex minimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadOptions {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Convergence tolerance on the simplex's objective spread.
    pub f_tol: f64,
    /// Initial simplex step per coordinate.
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_evals: 200,
            f_tol: 1e-8,
            initial_step: 0.5,
        }
    }
}

/// Minimizes `f` from `x0` with the Nelder–Mead simplex method.
///
/// Returns the best point and its objective value. Objective values that
/// are NaN are treated as `+∞`, so `f` may signal infeasibility that way.
///
/// # Example
///
/// ```
/// use gp::optimize::{nelder_mead, NelderMeadOptions};
///
/// let (x, fx) = nelder_mead(
///     |p| (p[0] - 2.0).powi(2) + (p[1] + 1.0).powi(2),
///     &[0.0, 0.0],
///     NelderMeadOptions::default(),
/// );
/// assert!((x[0] - 2.0).abs() < 1e-3 && (x[1] + 1.0).abs() < 1e-3);
/// assert!(fx < 1e-6);
/// ```
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    opts: NelderMeadOptions,
) -> (Vec<f64>, f64) {
    let n = x0.len();
    assert!(n > 0, "nelder_mead needs at least one coordinate");
    let clean = |v: f64| if v.is_nan() { f64::INFINITY } else { v };

    // Initial simplex: x0 plus a step along each axis.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut p = x0.to_vec();
        p[i] += opts.initial_step;
        simplex.push(p);
    }
    let mut values: Vec<f64> = simplex.iter().map(|p| clean(f(p))).collect();
    let mut evals = simplex.len();

    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);

    while evals < opts.max_evals {
        // Order the simplex.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&a, &b| {
            values[a]
                .partial_cmp(&values[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];
        if (values[worst] - values[best]).abs() < opts.f_tol {
            break;
        }

        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for &i in &order[..n] {
            for (c, &x) in centroid.iter_mut().zip(&simplex[i]) {
                *c += x / n as f64;
            }
        }

        let lerp = |t: f64| -> Vec<f64> {
            centroid
                .iter()
                .zip(&simplex[worst])
                .map(|(&c, &w)| c + t * (c - w))
                .collect()
        };

        // Reflection.
        let xr = lerp(alpha);
        let fr = clean(f(&xr));
        evals += 1;
        if fr < values[best] {
            // Expansion.
            let xe = lerp(gamma);
            let fe = clean(f(&xe));
            evals += 1;
            if fe < fr {
                simplex[worst] = xe;
                values[worst] = fe;
            } else {
                simplex[worst] = xr;
                values[worst] = fr;
            }
        } else if fr < values[second_worst] {
            simplex[worst] = xr;
            values[worst] = fr;
        } else {
            // Contraction.
            let xc = lerp(-rho);
            let fc = clean(f(&xc));
            evals += 1;
            if fc < values[worst] {
                simplex[worst] = xc;
                values[worst] = fc;
            } else {
                // Shrink toward the best point.
                let best_point = simplex[best].clone();
                for i in 0..=n {
                    if i == best {
                        continue;
                    }
                    for (x, &b) in simplex[i].iter_mut().zip(&best_point) {
                        *x = b + sigma * (*x - b);
                    }
                    values[i] = clean(f(&simplex[i]));
                    evals += 1;
                }
            }
        }
    }

    let mut best_i = 0;
    for i in 1..values.len() {
        if values[i] < values[best_i] {
            best_i = i;
        }
    }
    (simplex.swap_remove(best_i), values[best_i])
}

/// Budget of the transfer-GP hyper-parameter search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitBudget {
    /// Random multi-start restarts.
    pub restarts: usize,
    /// Nelder–Mead evaluations per restart.
    pub evals_per_restart: usize,
}

impl Default for FitBudget {
    fn default() -> Self {
        FitBudget {
            restarts: 3,
            evals_per_restart: 120,
        }
    }
}

/// Internal: negative log of a log-normal(ln 0.5, 0.75) prior over the
/// lengthscales (up to a constant).
fn lengthscale_penalty(lengthscales: &[f64]) -> f64 {
    let mu = 0.5f64.ln();
    let sigma = 0.75;
    lengthscales
        .iter()
        .map(|&l| {
            let d = l.ln() - mu;
            d * d / (2.0 * sigma * sigma)
        })
        .sum()
}

/// Internal: decode an unconstrained optimizer vector into a config.
fn decode(theta: &[f64], dim: usize) -> TransferGpConfig {
    let ls: Vec<f64> = theta[..dim]
        .iter()
        .map(|&t| t.exp().clamp(1e-3, 1e3))
        .collect();
    TransferGpConfig {
        lengthscales: ls,
        signal_var: theta[dim].exp().clamp(1e-6, 1e4),
        lambda: theta[dim + 1].tanh().clamp(-0.999, 0.999),
        noise_source: theta[dim + 2].exp().clamp(1e-8, 1.0),
        noise_target: theta[dim + 3].exp().clamp(1e-8, 1.0),
    }
}

/// How much work a [`fit_transfer_gp`] call actually did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitReport {
    /// Multi-start restarts executed.
    pub restarts: usize,
    /// MAP-objective evaluations consumed across all restarts.
    pub evals: usize,
    /// Objective evaluations served from the [`FitCache`] (no data
    /// clone, no per-point kernel rebuild).
    pub cached_evals: usize,
    /// Full `TransferGp::fit` constructions from raw data (the final
    /// model build after the search picks a winner).
    pub fresh_evals: usize,
    /// Best (lowest) MAP objective value found.
    pub best_objective: f64,
    /// Log marginal likelihood of the returned model.
    pub log_marginal: f64,
    /// Diagonal jitter the returned model's factorization needed.
    pub jitter: f64,
    /// Worker seconds this fit took: its distance cache, its restart
    /// searches and its final model build, summed over whichever threads
    /// ran them (so a parallel fit can report more than its wall-clock).
    /// A measurement, not a result: it varies run to run.
    pub duration_s: f64,
}

/// Draws the multi-start initial points for a transfer-GP search:
/// restart 0 is a deterministic sensible default, later restarts are
/// randomized from `rng` (same stream as the sequential search always
/// used). Drawing the starts **up front** is what lets restarts — and
/// whole per-objective fits in the tuner — run on worker threads while
/// staying bit-reproducible at any worker count: the RNG is consumed
/// sequentially here, never inside a thread.
pub fn restart_starts<R: Rng + ?Sized>(dim: usize, restarts: usize, rng: &mut R) -> Vec<Vec<f64>> {
    (0..restarts.max(1))
        .map(|restart| {
            if restart == 0 {
                let mut v = vec![(0.4f64).ln(); dim];
                v.push(0.0); // signal_var = 1
                v.push(1.0); // λ = tanh(1) ≈ 0.76
                v.push((1e-3f64).ln());
                v.push((1e-3f64).ln());
                v
            } else {
                let mut v: Vec<f64> = (0..dim)
                    .map(|_| rng.gen_range(-2.0..0.5)) // ℓ ∈ [e⁻², e^0.5]
                    .collect();
                v.push(rng.gen_range(-1.0..1.0));
                v.push(rng.gen_range(-1.5..1.5));
                v.push(rng.gen_range(-9.0..-2.0));
                v.push(rng.gen_range(-9.0..-2.0));
                v
            }
        })
        .collect()
}

/// One hyper-parameter search of [`fit_transfer_gps`]: a source/target
/// task pair and its pre-drawn restart starts (see [`restart_starts`]).
#[derive(Debug, Clone, Copy)]
pub struct FitJob<'a> {
    /// Source-task data.
    pub source: &'a TaskData,
    /// Target-task data.
    pub target: &'a TaskData,
    /// Initial points, one per restart (at least one).
    pub starts: &'a [Vec<f64>],
}

/// Runs several multi-start searches at once — in the tuner, one per QoR
/// objective — as (job × restart) tasks over `workers` threads
/// ([`fan_out`]), returning one result per job, in job order.
///
/// Each job's [`FitCache`] is built once and shared by its restarts:
/// every objective evaluation assembles the kernel from its pre-validated,
/// dimension-major inputs instead of rebuilding it point by point. A job's winner is the lowest MAP objective in restart order
/// (ties keep the earlier restart); its final model is fitted from the
/// raw data. Every task computes what a serial loop would and the merge
/// is by position, so results are bit-identical at any `workers` value.
///
/// # Errors
///
/// Per job: data-validation errors from building its distance cache, and
/// fitting errors of its final model (the search itself treats failed
/// factorizations as infinitely bad candidates).
///
/// # Panics
///
/// Panics when a job has no starts.
pub fn fit_transfer_gps(
    jobs: &[FitJob<'_>],
    dim: usize,
    budget: FitBudget,
    workers: usize,
) -> Vec<Result<(TransferGp, FitReport)>> {
    assert!(
        jobs.iter().all(|job| !job.starts.is_empty()),
        "need at least one restart start"
    );
    let opts = NelderMeadOptions {
        max_evals: budget.evals_per_restart,
        ..Default::default()
    };
    let caches = fan_out(jobs.len(), workers, |j| {
        timed(|| FitCache::new(jobs[j].source, jobs[j].target, dim))
    });
    let tasks: Vec<(usize, usize)> = jobs
        .iter()
        .enumerate()
        .filter(|&(j, _)| caches[j].0.is_ok())
        .flat_map(|(j, job)| (0..job.starts.len()).map(move |r| (j, r)))
        .collect();
    let searches = fan_out(tasks.len(), workers, |t| {
        let (j, r) = tasks[t];
        let cache = caches[j].0.as_ref().expect("tasks only cover built caches");
        timed(|| {
            let evals = std::cell::Cell::new(0usize);
            let (theta, value) = nelder_mead(
                |theta| {
                    evals.set(evals.get() + 1);
                    let cfg = decode(theta, dim);
                    // MAP objective: a log-normal prior on the lengthscales
                    // keeps the few-shot fit from collapsing onto noise.
                    cache.objective(&cfg) + lengthscale_penalty(&cfg.lengthscales)
                },
                &jobs[j].starts[r],
                opts,
            );
            (theta, value, evals.get())
        })
    });

    fan_out(jobs.len(), workers, |j| {
        let (cache, cache_s) = &caches[j];
        cache.as_ref().map_err(Clone::clone)?;
        // Best-of in restart order (tasks are job-major; ties keep the
        // earlier restart), exactly as the sequential loop resolved them.
        let mut best: Option<&(Vec<f64>, f64, usize)> = None;
        let (mut evals, mut busy_s) = (0, *cache_s);
        for (&(k, _), (search, search_s)) in tasks.iter().zip(&searches) {
            if k == j {
                evals += search.2;
                busy_s += search_s;
                if best.is_none_or(|b| search.1 < b.1) {
                    best = Some(search);
                }
            }
        }
        let (theta, best_objective, _) = best.expect("every job runs a restart");
        let (model, final_s) = timed(|| {
            TransferGp::fit(
                jobs[j].source.clone(),
                jobs[j].target.clone(),
                decode(theta, dim),
            )
        });
        let model = model?;
        let report = FitReport {
            restarts: jobs[j].starts.len(),
            evals,
            cached_evals: evals,
            fresh_evals: 1,
            best_objective: *best_objective,
            log_marginal: model.log_marginal_likelihood(),
            jitter: model.jitter(),
            duration_s: busy_s + final_s,
        };
        Ok((model, report))
    })
}

/// `f()` and the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs one multi-start search from pre-drawn initial points (see
/// [`restart_starts`]): [`fit_transfer_gps`] with a single job, its
/// restarts spread over `workers` threads. Bit-identical for any
/// `workers` value.
///
/// # Errors
///
/// Propagates data-validation errors and fitting errors of the final
/// model (the search treats failed factorizations as infinitely bad).
///
/// # Panics
///
/// Panics when `starts` is empty.
pub fn fit_transfer_gp_from_starts(
    source: &TaskData,
    target: &TaskData,
    dim: usize,
    budget: FitBudget,
    starts: &[Vec<f64>],
    workers: usize,
) -> Result<(TransferGp, FitReport)> {
    let job = FitJob {
        source,
        target,
        starts,
    };
    fit_transfer_gps(&[job], dim, budget, workers)
        .pop()
        .expect("one result per job")
}

/// Trains a [`TransferGp`] by maximizing the log marginal likelihood of
/// the **target** data conditioned on the source (the paper's training
/// objective) over ARD lengthscales, signal variance, cross-task factor
/// λ, and per-task noises, with multi-start Nelder–Mead.
///
/// `dim` is the input dimension; `rng` drives the restart initialization
/// (pass a seeded RNG for reproducibility). The [`FitReport`] describes
/// the budget actually consumed.
///
/// # Errors
///
/// Propagates fitting errors of the final model (the search itself treats
/// failed factorizations as infinitely bad candidates).
pub fn fit_transfer_gp<R: Rng + ?Sized>(
    source: &TaskData,
    target: &TaskData,
    dim: usize,
    budget: FitBudget,
    rng: &mut R,
) -> Result<(TransferGp, FitReport)> {
    let starts = restart_starts(dim, budget.restarts, rng);
    fit_transfer_gp_from_starts(source, target, dim, budget, &starts, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nelder_mead_minimizes_quadratic() {
        let (x, fx) = nelder_mead(
            |p| p.iter().map(|v| (v - 1.0) * (v - 1.0)).sum(),
            &[5.0, -3.0, 0.0],
            NelderMeadOptions {
                max_evals: 500,
                ..Default::default()
            },
        );
        for v in &x {
            assert!((v - 1.0).abs() < 1e-2, "{x:?}");
        }
        assert!(fx < 1e-3);
    }

    #[test]
    fn nelder_mead_minimizes_rosenbrock_2d() {
        let rosen = |p: &[f64]| {
            let (a, b) = (p[0], p[1]);
            (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
        };
        let (x, fx) = nelder_mead(
            rosen,
            &[-1.0, 1.0],
            NelderMeadOptions {
                max_evals: 2000,
                f_tol: 1e-12,
                initial_step: 0.5,
            },
        );
        assert!(fx < 1e-3, "f={fx} at {x:?}");
    }

    #[test]
    fn nelder_mead_handles_nan_objective() {
        // NaN outside the unit disc; optimum at origin is reachable.
        let (x, fx) = nelder_mead(
            |p| {
                let r2 = p[0] * p[0] + p[1] * p[1];
                if r2 > 1.0 {
                    f64::NAN
                } else {
                    r2
                }
            },
            &[0.4, 0.3],
            NelderMeadOptions {
                max_evals: 300,
                ..Default::default()
            },
        );
        assert!(fx < 1e-3, "f={fx} at {x:?}");
    }

    #[test]
    fn decode_clamps_ranges() {
        let cfg = decode(&[100.0, 100.0, 100.0, 100.0, 100.0], 1);
        assert!(cfg.lengthscales[0] <= 1e3);
        assert!(cfg.signal_var <= 1e4);
        assert!(cfg.lambda <= 0.999);
        assert!(cfg.noise_source <= 1.0);
        let cfg = decode(&[-100.0, -100.0, -100.0, -100.0, -100.0], 1);
        assert!(cfg.lengthscales[0] >= 1e-3);
        assert!(cfg.lambda >= -0.999);
        assert!(cfg.noise_target >= 1e-8);
    }

    #[test]
    fn fit_recovers_positive_transfer() {
        // Source and target are the same function: training should pick a
        // clearly positive λ.
        let f = |x: f64| (4.0 * x).sin();
        let source = TaskData::new(
            (0..25).map(|i| vec![i as f64 / 24.0]).collect(),
            (0..25).map(|i| f(i as f64 / 24.0)).collect(),
        );
        let target = TaskData::new(
            vec![vec![0.1], vec![0.4], vec![0.7], vec![1.0]],
            vec![f(0.1), f(0.4), f(0.7), f(1.0)],
        );
        let mut rng = StdRng::seed_from_u64(3);
        let (model, _) = fit_transfer_gp(
            &source,
            &target,
            1,
            FitBudget {
                restarts: 2,
                evals_per_restart: 150,
            },
            &mut rng,
        )
        .unwrap();
        assert!(
            model.lambda() > 0.3,
            "expected positive transfer, got λ = {}",
            model.lambda()
        );
        // And the fit should predict well off the target observations.
        let (m, _) = model.predict(&[0.25]).unwrap();
        assert!((m - f(0.25)).abs() < 0.2, "mean {m} vs {}", f(0.25));
    }

    #[test]
    fn reported_fit_accounts_for_budget() {
        let f = |x: f64| (4.0 * x).sin();
        let source = TaskData::new(
            (0..20).map(|i| vec![i as f64 / 19.0]).collect(),
            (0..20).map(|i| f(i as f64 / 19.0)).collect(),
        );
        let target = TaskData::new(
            vec![vec![0.1], vec![0.5], vec![0.9]],
            vec![f(0.1), f(0.5), f(0.9)],
        );
        let budget = FitBudget {
            restarts: 2,
            evals_per_restart: 40,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let (model, report) = fit_transfer_gp(&source, &target, 1, budget, &mut rng).unwrap();
        assert_eq!(report.restarts, 2);
        // Each restart consumes at least the initial simplex (dim + 5
        // points) and at most the per-restart cap plus one last shrink
        // round's overshoot.
        assert!(report.evals >= 2 * 6, "evals {}", report.evals);
        assert!(report.evals <= 2 * (40 + 6), "evals {}", report.evals);
        assert!(report.best_objective.is_finite());
        assert!((report.log_marginal - model.log_marginal_likelihood()).abs() < 1e-12);
        assert!(report.jitter >= 0.0);
    }

    #[test]
    fn search_is_worker_count_invariant() {
        let f = |x: f64| (4.0 * x).sin();
        let source = TaskData::new(
            (0..20).map(|i| vec![i as f64 / 19.0]).collect(),
            (0..20).map(|i| f(i as f64 / 19.0)).collect(),
        );
        let target = TaskData::new(
            vec![vec![0.1], vec![0.5], vec![0.9]],
            vec![f(0.1), f(0.5), f(0.9)],
        );
        let budget = FitBudget {
            restarts: 5,
            evals_per_restart: 60,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let starts = restart_starts(1, budget.restarts, &mut rng);

        // Reports agree on everything but the wall-clock measurement.
        let result = |r: FitReport| FitReport {
            duration_s: 0.0,
            ..r
        };
        let (m1, r1) =
            fit_transfer_gp_from_starts(&source, &target, 1, budget, &starts, 1).unwrap();
        for workers in [2, 4, 16] {
            let (mw, rw) =
                fit_transfer_gp_from_starts(&source, &target, 1, budget, &starts, workers).unwrap();
            assert_eq!(m1.config(), mw.config(), "workers={workers}");
            assert_eq!(result(r1), result(rw), "workers={workers}");
        }

        // And the RNG-drawing entry point matches the pre-drawn path.
        let mut rng2 = StdRng::seed_from_u64(7);
        let (m2, r2) = fit_transfer_gp(&source, &target, 1, budget, &mut rng2).unwrap();
        assert_eq!(m1.config(), m2.config());
        assert_eq!(result(r1), result(r2));
    }

    #[test]
    fn batched_jobs_match_one_at_a_time_fits() {
        let source = TaskData::new(
            (0..16).map(|i| vec![i as f64 / 15.0]).collect(),
            (0..16).map(|i| (3.0 * i as f64 / 15.0).sin()).collect(),
        );
        let targets: Vec<TaskData> = (0..3)
            .map(|k| {
                let xs = [0.1, 0.45, 0.8];
                TaskData::new(
                    xs.iter().map(|&x| vec![x]).collect(),
                    xs.iter()
                        .map(|&x| (3.0 * x).sin() + 0.1 * k as f64)
                        .collect(),
                )
            })
            .collect();
        let budget = FitBudget {
            restarts: 3,
            evals_per_restart: 30,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let starts: Vec<Vec<Vec<f64>>> = (0..3)
            .map(|_| restart_starts(1, budget.restarts, &mut rng))
            .collect();
        let jobs: Vec<FitJob<'_>> = (0..3)
            .map(|k| FitJob {
                source: &source,
                target: &targets[k],
                starts: &starts[k],
            })
            .collect();
        for workers in [1, 2, 8] {
            let batched = fit_transfer_gps(&jobs, 1, budget, workers);
            assert_eq!(batched.len(), 3);
            for (k, got) in batched.into_iter().enumerate() {
                let (mb, rb) = got.unwrap();
                let (ms, rs) =
                    fit_transfer_gp_from_starts(&source, &targets[k], 1, budget, &starts[k], 1)
                        .unwrap();
                assert_eq!(mb.config(), ms.config(), "job {k} workers={workers}");
                assert_eq!(rb.evals, rs.evals, "job {k} workers={workers}");
                assert_eq!(rb.best_objective, rs.best_objective);
                assert!(rb.duration_s >= 0.0);
            }
        }
        // A job whose data fails validation fails alone.
        let bad = TaskData::new(vec![vec![0.1, 0.2]], vec![1.0]);
        let mixed = [
            jobs[0],
            FitJob {
                target: &bad,
                ..jobs[1]
            },
        ];
        let out = fit_transfer_gps(&mixed, 1, budget, 2);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
    }

    #[test]
    fn report_counts_cached_and_fresh_evals() {
        let f = |x: f64| x * x;
        let source = TaskData::new(
            (0..10).map(|i| vec![i as f64 / 9.0]).collect(),
            (0..10).map(|i| f(i as f64 / 9.0)).collect(),
        );
        let target = TaskData::new(vec![vec![0.2], vec![0.8]], vec![f(0.2), f(0.8)]);
        let budget = FitBudget {
            restarts: 2,
            evals_per_restart: 30,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let (_, report) = fit_transfer_gp(&source, &target, 1, budget, &mut rng).unwrap();
        // The search itself never constructs a model from raw data: every
        // objective evaluation runs off the distance cache, and only the
        // winning θ is fit for real.
        assert_eq!(report.cached_evals, report.evals);
        assert_eq!(report.fresh_evals, 1);
        assert!(report.evals > 0);
    }

    #[test]
    fn restart_starts_first_is_deterministic_default() {
        let mut rng = StdRng::seed_from_u64(0);
        let starts = restart_starts(2, 0, &mut rng);
        assert_eq!(starts.len(), 1, "restarts are clamped to at least one");
        let ln04 = (0.4f64).ln();
        let ln1e3 = (1e-3f64).ln();
        assert_eq!(starts[0], vec![ln04, ln04, 0.0, 1.0, ln1e3, ln1e3]);
    }

    #[test]
    fn fit_detects_unrelated_tasks() {
        // Source is pure noise w.r.t. the target function: λ should stay
        // small in magnitude (the model declines to transfer).
        let source = TaskData::new(
            (0..25).map(|i| vec![i as f64 / 24.0]).collect(),
            (0..25)
                .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
        );
        let f = |x: f64| x;
        let target = TaskData::new(
            (0..8).map(|i| vec![i as f64 / 7.0]).collect(),
            (0..8).map(|i| f(i as f64 / 7.0)).collect(),
        );
        let mut rng = StdRng::seed_from_u64(9);
        let (model, _) = fit_transfer_gp(
            &source,
            &target,
            1,
            FitBudget {
                restarts: 3,
                evals_per_restart: 150,
            },
            &mut rng,
        )
        .unwrap();
        assert!(
            model.lambda().abs() < 0.6,
            "unrelated tasks should get weak transfer, got λ = {}",
            model.lambda()
        );
    }
}
