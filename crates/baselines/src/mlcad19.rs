//! MLCAD'19: classical Bayesian optimization with the lower-confidence-
//! bound acquisition (Ma, Yu & Yu, *CAD tool design space exploration via
//! Bayesian optimization*).

use rand::rngs::StdRng;
use rand::SeedableRng;

use gp::kernel::SquaredExponential;
use gp::GpRegressor;
use ppatuner::QorOracle;

use crate::common::{
    check_inputs, distinct_indices, evaluate_all, objective_ranges, BaselineResult,
};
use crate::Result;

/// Options of the [`Mlcad19`] tuner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mlcad19Params {
    /// Total tool-run budget (the paper's fixed 400 / 70).
    pub budget: usize,
    /// Runs spent on random initialization.
    pub initial_samples: usize,
    /// Exploration weight κ of the LCB `μ − κ·σ`.
    pub kappa: f64,
    /// Unevaluated candidates screened per iteration (acquisition is
    /// argmin over this random subset — keeps iterations cheap on
    /// 5000-point benchmarks).
    pub screen_size: usize,
    /// Re-select the GP lengthscale every this many iterations.
    pub refit_every: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Mlcad19Params {
    fn default() -> Self {
        Mlcad19Params {
            budget: 100,
            initial_samples: 20,
            kappa: 2.0,
            screen_size: 512,
            refit_every: 20,
            seed: 0,
        }
    }
}

/// The MLCAD'19 baseline: per-objective GP surrogates, equal-weight
/// scalarized LCB acquisition, fixed budget.
///
/// This is the faithful reading of MLCAD'19's *classical* BO-LCB flow:
/// one acquisition, one preference. Each iteration sums the
/// per-objective range-normalized LCB values with equal weights and
/// evaluates the screened candidate minimizing that sum. Concentrating
/// the budget on one front region is why the original underperforms on
/// whole-front metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mlcad19 {
    params: Mlcad19Params,
}

impl Mlcad19 {
    /// Creates the tuner.
    pub fn new(params: Mlcad19Params) -> Self {
        Mlcad19 { params }
    }

    /// Runs BO-LCB on the target task.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BaselineError`] for unusable inputs or surrogate
    /// failures.
    pub fn tune<O: QorOracle>(
        &self,
        candidates: &[Vec<f64>],
        oracle: &mut O,
    ) -> Result<BaselineResult> {
        check_inputs(candidates, self.params.budget)?;
        let n = candidates.len();
        let dim = candidates[0].len();
        let mut rng = StdRng::seed_from_u64(self.params.seed);

        let init = self
            .params
            .initial_samples
            .clamp(2, self.params.budget)
            .min(n);
        let mut evaluated: Vec<(usize, Vec<f64>)> = Vec::new();
        let mut flag = vec![false; n];
        let picks = distinct_indices(init, n, &mut rng);
        evaluate_all(&picks, oracle, &mut evaluated, &mut flag);
        let n_obj = evaluated[0].1.len();

        let mut lengthscales = vec![0.5; n_obj];
        let mut iter = 0usize;
        while oracle.runs() < self.params.budget && evaluated.len() < n {
            // Fit one GP per objective; periodically re-select the
            // lengthscale by marginal likelihood over a small grid.
            let x: Vec<Vec<f64>> = evaluated
                .iter()
                .map(|(i, _)| candidates[*i].clone())
                .collect();
            let mut gps = Vec::with_capacity(n_obj);
            for k in 0..n_obj {
                let y: Vec<f64> = evaluated.iter().map(|(_, v)| v[k]).collect();
                if iter.is_multiple_of(self.params.refit_every.max(1)) {
                    lengthscales[k] = select_lengthscale(&x, &y, dim)?;
                }
                let kernel = SquaredExponential::isotropic(dim, 1.0, lengthscales[k])?;
                gps.push(GpRegressor::fit(x.clone(), y, kernel, 1e-4)?);
            }

            // Screen a random subset of unevaluated candidates.
            let unevaluated: Vec<usize> = (0..n).filter(|&i| !flag[i]).collect();
            if unevaluated.is_empty() {
                break;
            }
            let screened: Vec<usize> = if unevaluated.len() <= self.params.screen_size {
                unevaluated
            } else {
                distinct_indices(self.params.screen_size, unevaluated.len(), &mut rng)
                    .into_iter()
                    .map(|j| unevaluated[j])
                    .collect()
            };

            // Equal-weight, range-normalized LCB.
            let w = 1.0 / n_obj as f64;
            let ranges = objective_ranges(&evaluated);
            let mut best: Option<(usize, f64)> = None;
            for &i in &screened {
                let mut acq = 0.0;
                for (k, gpk) in gps.iter().enumerate() {
                    let (mu, var) = gpk.predict(&candidates[i])?;
                    let sd = var.max(0.0).sqrt();
                    let (lo, range) = ranges[k];
                    acq += w * ((mu - lo) / range - self.params.kappa * sd / range);
                }
                match best {
                    Some((_, bv)) if bv <= acq => {}
                    _ => best = Some((i, acq)),
                }
            }
            let (pick, _) = best.expect("screened set is non-empty");
            evaluate_all(&[pick], oracle, &mut evaluated, &mut flag);
            iter += 1;
        }

        Ok(BaselineResult::from_evaluations(evaluated, oracle.runs()))
    }
}

/// Small marginal-likelihood grid search for an isotropic lengthscale.
fn select_lengthscale(x: &[Vec<f64>], y: &[f64], dim: usize) -> Result<f64> {
    let mut best = (0.5, f64::NEG_INFINITY);
    for ls in [0.15, 0.3, 0.5, 0.8, 1.3] {
        let kernel = SquaredExponential::isotropic(dim, 1.0, ls)?;
        if let Ok(model) = GpRegressor::fit(x.to_vec(), y.to_vec(), kernel, 1e-4) {
            let lml = model.log_marginal_likelihood();
            if lml > best.1 {
                best = (ls, lml);
            }
        }
    }
    Ok(best.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppatuner::VecOracle;

    fn toy(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let candidates: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let truth = candidates
            .iter()
            .map(|p| vec![p[0] + 0.1, (1.0 - p[0]).powi(2) + 0.1])
            .collect();
        (candidates, truth)
    }

    fn quick() -> Mlcad19Params {
        Mlcad19Params {
            budget: 20,
            initial_samples: 8,
            screen_size: 64,
            refit_every: 5,
            seed: 11,
            ..Default::default()
        }
    }

    #[test]
    fn stays_within_budget() {
        let (candidates, truth) = toy(60);
        let mut oracle = VecOracle::new(truth);
        let r = Mlcad19::new(quick())
            .tune(&candidates, &mut oracle)
            .unwrap();
        assert_eq!(r.runs, 20);
        assert!(!r.pareto_indices.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let (candidates, truth) = toy(40);
        let run = || {
            let mut oracle = VecOracle::new(truth.clone());
            Mlcad19::new(quick())
                .tune(&candidates, &mut oracle)
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rejects_zero_budget() {
        let (candidates, truth) = toy(10);
        let mut oracle = VecOracle::new(truth);
        let p = Mlcad19Params {
            budget: 0,
            ..quick()
        };
        assert!(Mlcad19::new(p).tune(&candidates, &mut oracle).is_err());
    }
}
