use linalg::{Cholesky, Matrix};

use crate::kernel::SquaredExponential;
use crate::standardize::Standardizer;
use crate::transfer::check_training;
use crate::{GpError, Result};

/// Exact Gaussian-process regressor (Eq. 1 of the paper).
///
/// Fitting factors the kernel matrix `K + σ²I` once (with escalating
/// jitter if needed); prediction then costs one kernel row plus two
/// triangular solves per query. Outputs are standardized internally, so
/// callers work in natural units.
///
/// # Example
///
/// ```
/// use gp::{GpRegressor, kernel::SquaredExponential};
///
/// # fn main() -> Result<(), gp::GpError> {
/// let x: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 / 14.0]).collect();
/// let y: Vec<f64> = x.iter().map(|p| p[0] * p[0]).collect();
/// let gp = GpRegressor::fit(x, y, SquaredExponential::isotropic(1, 1.0, 0.3)?, 1e-6)?;
/// let (mean, _var) = gp.predict(&[0.5])?;
/// assert!((mean - 0.25).abs() < 0.02);
/// # Ok(())
/// # }
/// ```
pub struct GpRegressor {
    kernel: SquaredExponential,
    x_train: Vec<Vec<f64>>,
    /// `(K + σ²I)⁻¹ z` in standardized output space.
    alpha: Vec<f64>,
    chol: Cholesky,
    standardizer: Standardizer,
    z_train: Vec<f64>,
}

impl GpRegressor {
    /// Fits the regressor to `(x, y)`.
    ///
    /// # Errors
    ///
    /// - [`GpError::InvalidTrainingData`] when `x` is empty, lengths
    ///   disagree, or a value is non-finite;
    /// - [`GpError::InvalidHyperparameter`] when `noise_var < 0`;
    /// - [`GpError::DimensionMismatch`] when a row of `x` does not match
    ///   the kernel dimension;
    /// - [`GpError::Factorization`] when the kernel matrix cannot be
    ///   factored even with jitter.
    pub fn fit(
        x: Vec<Vec<f64>>,
        y: Vec<f64>,
        kernel: SquaredExponential,
        noise_var: f64,
    ) -> Result<Self> {
        if x.is_empty() {
            return Err(GpError::InvalidTrainingData {
                reason: "need at least one training point",
            });
        }
        if x.len() != y.len() {
            return Err(GpError::InvalidTrainingData {
                reason: "x and y lengths differ",
            });
        }
        if !(noise_var.is_finite() && noise_var >= 0.0) {
            return Err(GpError::InvalidHyperparameter {
                name: "noise_var",
                value: noise_var,
            });
        }
        check_training(kernel.dim(), &x, &y)?;

        let standardizer = Standardizer::fit(&y);
        let z_train = standardizer.transform_vec(&y);

        let n = x.len();
        let mut k = Matrix::from_fn(n, n, |i, j| kernel.eval(&x[i], &x[j]));
        k.add_diag(noise_var);
        let (chol, _jitter) = Cholesky::new_with_jitter(&k, 1e-10, 12)?;
        let alpha = chol.solve_vec(&z_train)?;

        Ok(GpRegressor {
            kernel,
            x_train: x,
            alpha,
            chol,
            standardizer,
            z_train,
        })
    }

    /// Predictive mean and variance at a query point, in natural units.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::DimensionMismatch`] when the query dimension
    /// does not match the kernel.
    pub fn predict(&self, x: &[f64]) -> Result<(f64, f64)> {
        if x.len() != self.kernel.dim() {
            return Err(GpError::DimensionMismatch {
                expected: self.kernel.dim(),
                got: x.len(),
            });
        }
        let k_star: Vec<f64> = self
            .x_train
            .iter()
            .map(|xi| self.kernel.eval(xi, x))
            .collect();
        let mean_z = linalg::vecops::dot(&k_star, &self.alpha);
        // var = k(x,x) − ‖L⁻¹ k*‖².
        let v = self.chol.solve_lower_only(&k_star)?;
        let var_z = (self.kernel.eval(x, x) - linalg::vecops::dot(&v, &v)).max(0.0);
        Ok((
            self.standardizer.inverse(mean_z),
            self.standardizer.inverse_var(var_z),
        ))
    }

    /// Exact log marginal likelihood of the (standardized) training data:
    /// `−½ zᵀα − ½ log|K+σ²I| − (n/2) log 2π`.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.x_train.len() as f64;
        let fit = -0.5 * linalg::vecops::dot(&self.z_train, &self.alpha);
        let complexity = -0.5 * self.chol.log_det();
        fit + complexity - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }
}

impl std::fmt::Debug for GpRegressor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpRegressor")
            .field("kernel", &self.kernel)
            .field("n_train", &self.x_train.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;

    fn grid(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points_with_small_noise() {
        let x = grid(10);
        let y: Vec<f64> = x.iter().map(|p| (4.0 * p[0]).cos()).collect();
        let gp = GpRegressor::fit(
            x.clone(),
            y.clone(),
            SquaredExponential::isotropic(1, 1.0, 0.3).unwrap(),
            1e-8,
        )
        .unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let (m, v) = gp.predict(xi).unwrap();
            assert!((m - yi).abs() < 1e-3, "mean {m} vs {yi}");
            assert!(v < 1e-2);
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let x = vec![vec![0.0], vec![0.1]];
        let y = vec![1.0, 1.1];
        let gp = GpRegressor::fit(
            x,
            y,
            SquaredExponential::isotropic(1, 1.0, 0.2).unwrap(),
            1e-6,
        )
        .unwrap();
        let (_, v_near) = gp.predict(&[0.05]).unwrap();
        let (_, v_far) = gp.predict(&[0.9]).unwrap();
        assert!(v_far > v_near);
    }

    #[test]
    fn reverts_to_prior_far_from_data() {
        let x = vec![vec![0.0]];
        let y = vec![42.0];
        let gp = GpRegressor::fit(
            x,
            y,
            SquaredExponential::isotropic(1, 1.0, 0.05).unwrap(),
            1e-6,
        )
        .unwrap();
        let (m, v) = gp.predict(&[1.0]).unwrap();
        // Prior mean is the standardizer's mean (42); prior var ≈ σ²·scale².
        assert!((m - 42.0).abs() < 1e-6);
        assert!(v > 0.5);
    }

    #[test]
    fn fit_rejects_bad_inputs() {
        let k = SquaredExponential::isotropic(1, 1.0, 0.3).unwrap();
        assert!(GpRegressor::fit(vec![], vec![], k.clone(), 1e-6).is_err());
        assert!(GpRegressor::fit(vec![vec![0.0]], vec![1.0, 2.0], k.clone(), 1e-6).is_err());
        assert!(GpRegressor::fit(vec![vec![0.0]], vec![1.0], k.clone(), -1.0).is_err());
        assert!(GpRegressor::fit(vec![vec![0.0, 1.0]], vec![1.0], k.clone(), 1e-6).is_err());
        assert!(GpRegressor::fit(vec![vec![f64::NAN]], vec![1.0], k.clone(), 1e-6).is_err());
        assert!(GpRegressor::fit(vec![vec![0.0]], vec![f64::INFINITY], k, 1e-6).is_err());
    }

    #[test]
    fn predict_rejects_wrong_dimension() {
        let gp = GpRegressor::fit(
            vec![vec![0.0]],
            vec![1.0],
            SquaredExponential::isotropic(1, 1.0, 0.3).unwrap(),
            1e-6,
        )
        .unwrap();
        assert!(matches!(
            gp.predict(&[0.0, 1.0]).unwrap_err(),
            GpError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn log_marginal_likelihood_prefers_correct_lengthscale() {
        // Data drawn from a smooth function: a sensible lengthscale should
        // beat a wildly small one.
        let x = grid(20);
        let y: Vec<f64> = x.iter().map(|p| (3.0 * p[0]).sin()).collect();
        let good = GpRegressor::fit(
            x.clone(),
            y.clone(),
            SquaredExponential::isotropic(1, 1.0, 0.3).unwrap(),
            1e-4,
        )
        .unwrap();
        let bad = GpRegressor::fit(
            x,
            y,
            SquaredExponential::isotropic(1, 1.0, 0.001).unwrap(),
            1e-4,
        )
        .unwrap();
        assert!(good.log_marginal_likelihood() > bad.log_marginal_likelihood());
    }

    #[test]
    fn works_in_natural_units() {
        // Outputs in the thousands: standardization must keep the fit
        // stable and predictions in natural units.
        let x = grid(12);
        let y: Vec<f64> = x.iter().map(|p| 5000.0 + 800.0 * p[0]).collect();
        let gp = GpRegressor::fit(
            x,
            y,
            SquaredExponential::isotropic(1, 1.0, 0.4).unwrap(),
            1e-6,
        )
        .unwrap();
        let (m, _) = gp.predict(&[0.5]).unwrap();
        assert!((m - 5400.0).abs() < 30.0, "mean {m}");
    }
}
