//! Stagewise least-squares gradient boosting.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::tree::{RegressionTree, TreeParams};
use crate::{BoostError, Result};

/// Hyper-parameters of [`GradientBoosting`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbmParams {
    /// Number of boosting stages (trees).
    pub n_trees: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Fraction of rows sampled (without replacement) per stage.
    pub subsample: f64,
    /// Limits of each stage's tree.
    pub tree: TreeParams,
}

impl Default for GbmParams {
    fn default() -> Self {
        GbmParams {
            n_trees: 80,
            learning_rate: 0.1,
            subsample: 0.8,
            tree: TreeParams::default(),
        }
    }
}

/// A gradient-boosted regression-tree ensemble for least-squares loss.
///
/// Each stage fits a shallow [`RegressionTree`] to the current residuals
/// on a row subsample and adds it with shrinkage — the classic GBM
/// recipe. Feature importances aggregate split gains across all trees
/// (normalized to sum to 1), which is what the FIST baseline's
/// importance-guided sampling consumes.
///
/// # Example
///
/// ```
/// use boost::{GradientBoosting, GbmParams};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), boost::BoostError> {
/// let x: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 / 79.0, 0.5]).collect();
/// let y: Vec<f64> = x.iter().map(|p| 3.0 * p[0]).collect();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let model = GradientBoosting::fit(&x, &y, GbmParams::default(), &mut rng)?;
/// let imp = model.feature_importances();
/// assert!(imp[0] > 0.9); // all signal is in feature 0
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoosting {
    base: f64,
    learning_rate: f64,
    trees: Vec<RegressionTree>,
    dim: usize,
}

impl GradientBoosting {
    /// Fits the ensemble to `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`BoostError::InvalidTrainingData`] for empty/inconsistent
    /// data and [`BoostError::InvalidParameter`] for out-of-range options.
    pub fn fit<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        y: &[f64],
        params: GbmParams,
        rng: &mut R,
    ) -> Result<Self> {
        if x.is_empty() || x.len() != y.len() {
            return Err(BoostError::InvalidTrainingData {
                reason: "need non-empty x and y of equal length",
            });
        }
        if params.n_trees == 0 {
            return Err(BoostError::InvalidParameter {
                name: "n_trees",
                value: 0.0,
            });
        }
        if !(params.learning_rate > 0.0 && params.learning_rate <= 1.0) {
            return Err(BoostError::InvalidParameter {
                name: "learning_rate",
                value: params.learning_rate,
            });
        }
        if !(params.subsample > 0.0 && params.subsample <= 1.0) {
            return Err(BoostError::InvalidParameter {
                name: "subsample",
                value: params.subsample,
            });
        }
        let dim = x[0].len();
        let n = x.len();
        let base = y.iter().sum::<f64>() / n as f64;
        let mut residuals: Vec<f64> = y.iter().map(|&v| v - base).collect();
        let mut trees = Vec::with_capacity(params.n_trees);
        let sample_size = ((n as f64 * params.subsample).round() as usize).clamp(1, n);
        let mut all: Vec<usize> = (0..n).collect();

        for _ in 0..params.n_trees {
            all.shuffle(rng);
            let chosen = &all[..sample_size];
            let xs: Vec<Vec<f64>> = chosen.iter().map(|&i| x[i].clone()).collect();
            let rs: Vec<f64> = chosen.iter().map(|&i| residuals[i]).collect();
            let tree = RegressionTree::fit(&xs, &rs, params.tree)?;
            for (i, r) in residuals.iter_mut().enumerate() {
                *r -= params.learning_rate * tree.predict(&x[i]);
            }
            trees.push(tree);
        }
        Ok(GradientBoosting {
            base,
            learning_rate: params.learning_rate,
            trees,
            dim,
        })
    }

    /// Predicts one point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimension.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.base + self.learning_rate * self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }

    /// Normalized feature importances (split-gain shares, summing to 1;
    /// all-zero when no split was ever made).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.dim];
        for tree in &self.trees {
            tree.accumulate_importances(&mut imp);
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Number of boosting stages.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn fits_smooth_function_better_than_mean() {
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 99.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (6.0 * p[0]).sin()).collect();
        let model = GradientBoosting::fit(&x, &y, GbmParams::default(), &mut rng()).unwrap();
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let mse_model: f64 = x
            .iter()
            .zip(&y)
            .map(|(xi, yi)| (model.predict(xi) - yi).powi(2))
            .sum::<f64>()
            / y.len() as f64;
        let mse_mean: f64 = y.iter().map(|yi| (mean - yi).powi(2)).sum::<f64>() / y.len() as f64;
        assert!(mse_model < 0.2 * mse_mean, "{mse_model} vs {mse_mean}");
    }

    #[test]
    fn importances_identify_signal_feature() {
        let x: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![(i % 11) as f64, i as f64 / 119.0, (i % 3) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|p| 5.0 * p[1]).collect();
        let model = GradientBoosting::fit(&x, &y, GbmParams::default(), &mut rng()).unwrap();
        let imp = model.feature_importances();
        assert!(imp[1] > 0.8, "{imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_target_gives_zero_importances() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![3.0; 20];
        let model = GradientBoosting::fit(&x, &y, GbmParams::default(), &mut rng()).unwrap();
        assert!(model.feature_importances().iter().all(|&v| v == 0.0));
        assert_eq!(model.predict(&[5.0]), 3.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 49.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| p[0] * p[0]).collect();
        let a = GradientBoosting::fit(&x, &y, GbmParams::default(), &mut rng()).unwrap();
        let b = GradientBoosting::fit(&x, &y, GbmParams::default(), &mut rng()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn validates_parameters() {
        let x = vec![vec![1.0]];
        let y = vec![1.0];
        let mut r = rng();
        let mut bad = |p: GbmParams| GradientBoosting::fit(&x, &y, p, &mut r).is_err();
        assert!(bad(GbmParams {
            n_trees: 0,
            ..Default::default()
        }));
        assert!(bad(GbmParams {
            learning_rate: 0.0,
            ..Default::default()
        }));
        assert!(bad(GbmParams {
            learning_rate: 1.5,
            ..Default::default()
        }));
        assert!(bad(GbmParams {
            subsample: 0.0,
            ..Default::default()
        }));
        assert!(GradientBoosting::fit(&[], &[], GbmParams::default(), &mut r).is_err());
    }

    #[test]
    fn fitted_model_reports_its_shape() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| p[0]).collect();
        let model = GradientBoosting::fit(&x, &y, GbmParams::default(), &mut rng()).unwrap();
        assert_eq!(model.n_trees(), GbmParams::default().n_trees);
        assert_eq!(model.dim(), 1);
    }
}
