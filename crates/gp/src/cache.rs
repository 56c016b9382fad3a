//! Distance-cached hyper-parameter search support.
//!
//! The Nelder–Mead MAP objective evaluates the transfer-GP conditional
//! likelihood hundreds of times per fit, and every candidate θ shares the
//! same training inputs: only the lengthscales re-weight the pairwise
//! distances, and only the scalar factors (signal variance, λ, noises)
//! scale the result. [`FitCache`] exploits that by precomputing the
//! per-dimension pairwise squared-difference tensor over the joint
//! source+target point set **once per fit call**, together with the
//! θ-independent standardized outputs, and then re-assembling the
//! (N+M)² kernel from the cache per candidate: a dot product and one
//! `exp` per upper-triangle entry, mirrored by symmetry, with no data
//! cloning, no re-validation, and no per-point kernel dispatch.

use linalg::{Cholesky, Matrix};

use crate::standardize::Standardizer;
use crate::transfer::{check_training, joint_rows, TaskData, TransferGpConfig};
use crate::{GpError, Result};

/// Precomputed, θ-independent state of one transfer-GP fitting problem.
///
/// Borrows the task data for the lifetime of the search — no clones per
/// objective evaluation. Construction performs the same validation as
/// [`crate::TransferGp::fit`], so a successful `FitCache::new` guarantees
/// every later [`FitCache::objective`] failure is numerical (a
/// non-positive-definite kernel), matching the search's treatment of
/// failed candidates as infinitely bad.
#[derive(Debug)]
pub struct FitCache<'a> {
    source: &'a TaskData,
    target: &'a TaskData,
    dim: usize,
    /// Source observation count; joint points `[0, n)` are source-task.
    n: usize,
    /// Total joint point count (source + target).
    p: usize,
    /// Pair-major squared differences: for upper-triangle pair index `q`
    /// (row-major over `i ≤ j`), `d2[q·dim .. (q+1)·dim]` holds
    /// `(x_i[t] − x_j[t])²` per input dimension `t`.
    d2: Vec<f64>,
    /// Standardized joint outputs (θ-independent).
    z_joint: Vec<f64>,
}

impl<'a> FitCache<'a> {
    /// Builds the cache: validates the data once and precomputes the
    /// pairwise squared-difference tensor over the joint point set.
    ///
    /// # Errors
    ///
    /// The data-validation errors of [`crate::TransferGp::fit`]:
    /// [`GpError::InvalidTrainingData`] and [`GpError::DimensionMismatch`].
    pub fn new(source: &'a TaskData, target: &'a TaskData, dim: usize) -> Result<Self> {
        if target.is_empty() {
            return Err(GpError::InvalidTrainingData {
                reason: "target task needs at least one observation",
            });
        }
        if source.x.len() != source.y.len() || target.x.len() != target.y.len() {
            return Err(GpError::InvalidTrainingData {
                reason: "x and y lengths differ",
            });
        }
        if dim == 0 {
            return Err(GpError::InvalidTrainingData {
                reason: "kernel needs at least one lengthscale",
            });
        }
        check_training(
            dim,
            source.x.iter().chain(target.x.iter()),
            source.y.iter().chain(&target.y),
        )?;

        let n = source.len();
        let p = n + target.len();
        let rows = joint_rows(&source.x, &target.x);
        let mut d2 = Vec::with_capacity(p * (p + 1) / 2 * dim);
        for i in 0..p {
            let xi = rows(i).0;
            for j in i..p {
                let xj = rows(j).0;
                for t in 0..dim {
                    let d = xi[t] - xj[t];
                    d2.push(d * d);
                }
            }
        }

        let std_source = if source.is_empty() {
            Standardizer::identity()
        } else {
            Standardizer::fit(&source.y)
        };
        let std_target = Standardizer::fit(&target.y);
        let mut z_joint = Vec::with_capacity(p);
        z_joint.extend(source.y.iter().map(|&v| std_source.transform(v)));
        z_joint.extend(target.y.iter().map(|&v| std_target.transform(v)));

        Ok(FitCache {
            source,
            target,
            dim,
            n,
            p,
            d2,
            z_joint,
        })
    }

    /// The borrowed source task.
    pub fn source(&self) -> &'a TaskData {
        self.source
    }

    /// The borrowed target task.
    pub fn target(&self) -> &'a TaskData {
        self.target
    }

    /// Assembles the joint transfer kernel matrix `K̃` (Eq. 7; **without**
    /// the noise diagonal) at the given hyper-parameters from the cached
    /// distances: each upper-triangle entry is
    /// `σ²·exp(−½ Σ_t d²_t/ℓ_t²)` (×λ across tasks), mirrored to the
    /// lower triangle by symmetry.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidHyperparameter`] for out-of-range
    /// hyper-parameters (the same ranges [`crate::TransferGp::fit`]
    /// enforces through its kernel constructors).
    pub fn joint_kernel(&self, config: &TransferGpConfig) -> Result<Matrix> {
        if config.lengthscales.len() != self.dim {
            return Err(GpError::DimensionMismatch {
                expected: self.dim,
                got: config.lengthscales.len(),
            });
        }
        if !(config.signal_var.is_finite() && config.signal_var > 0.0) {
            return Err(GpError::InvalidHyperparameter {
                name: "signal_var",
                value: config.signal_var,
            });
        }
        for &l in &config.lengthscales {
            if !(l.is_finite() && l > 0.0) {
                return Err(GpError::InvalidHyperparameter {
                    name: "lengthscale",
                    value: l,
                });
            }
        }
        if !(config.lambda.is_finite() && config.lambda > -1.0 && config.lambda <= 1.0) {
            return Err(GpError::InvalidHyperparameter {
                name: "lambda",
                value: config.lambda,
            });
        }
        crate::counters::add_kernel_assemblies(1);
        let inv_l2: Vec<f64> = config.lengthscales.iter().map(|&l| 1.0 / (l * l)).collect();
        let (n, p, dim) = (self.n, self.p, self.dim);
        let mut k = Matrix::zeros(p, p);
        let mut pair = 0usize;
        for i in 0..p {
            for j in i..p {
                let d2 = &self.d2[pair * dim..(pair + 1) * dim];
                pair += 1;
                let mut s = 0.0;
                for (d, w) in d2.iter().zip(&inv_l2) {
                    s += d * w;
                }
                let mut v = config.signal_var * (-0.5 * s).exp();
                // With i ≤ j and source points first, the cross-task
                // pairs are exactly i < n ≤ j.
                if i < n && j >= n {
                    v *= config.lambda;
                }
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        Ok(k)
    }

    /// The search objective at one candidate θ: the **negative** log
    /// conditional likelihood `−log p(y_T | y_S, θ)` of the standardized
    /// data (the caller adds its hyper-prior terms). Returns `+∞` when the
    /// hyper-parameters are out of range or the kernel cannot be factored
    /// even with jitter escalation — exactly how the clone-per-eval path
    /// treated infeasible candidates.
    pub fn objective(&self, config: &TransferGpConfig) -> f64 {
        crate::counters::add_fitcache_hits(1);
        match self.neg_log_conditional(config) {
            Ok(v) if !v.is_nan() => v,
            _ => f64::INFINITY,
        }
    }

    fn neg_log_conditional(&self, config: &TransferGpConfig) -> Result<f64> {
        for v in [config.noise_source, config.noise_target] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(GpError::InvalidHyperparameter {
                    name: "noise",
                    value: v,
                });
            }
        }
        let mut k = self.joint_kernel(config)?;
        let n = self.n;
        for i in 0..self.p {
            let noise = if i < n {
                config.noise_source
            } else {
                config.noise_target
            };
            k[(i, i)] += noise;
        }
        let ln_2pi = (2.0 * std::f64::consts::PI).ln();
        let (chol, _) = Cholesky::new_with_jitter(&k, 1e-10, 12)?;
        let alpha = chol.solve_vec(&self.z_joint)?;
        let lml = -0.5 * linalg::vecops::dot(&self.z_joint, &alpha)
            - 0.5 * chol.log_det()
            - 0.5 * self.p as f64 * ln_2pi;
        let source_lml = if n == 0 {
            0.0
        } else {
            let k_ss = k.submatrix(0, n, 0, n);
            let (chol_s, _) = Cholesky::new_with_jitter(&k_ss, 1e-10, 12)?;
            let z_s = &self.z_joint[..n];
            let alpha_s = chol_s.solve_vec(z_s)?;
            -0.5 * linalg::vecops::dot(z_s, &alpha_s)
                - 0.5 * chol_s.log_det()
                - 0.5 * n as f64 * ln_2pi
        };
        Ok(-(lml - source_lml))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Task, TransferKernel};
    use crate::TransferGp;

    fn problem() -> (TaskData, TaskData, TransferGpConfig) {
        let f = |x: &[f64]| (4.0 * x[0]).sin() + 0.5 * x[1];
        let sx: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![i as f64 / 11.0, (i as f64 * 0.37) % 1.0])
            .collect();
        let sy: Vec<f64> = sx.iter().map(|p| 2.0 * f(p) + 0.3).collect();
        let tx: Vec<Vec<f64>> = (0..5)
            .map(|i| vec![(i as f64 * 0.21) % 1.0, i as f64 / 4.0])
            .collect();
        let ty: Vec<f64> = tx.iter().map(|p| f(p)).collect();
        let cfg = TransferGpConfig {
            lengthscales: vec![0.3, 0.7],
            signal_var: 1.2,
            lambda: 0.6,
            noise_source: 1e-3,
            noise_target: 2e-3,
        };
        (TaskData::new(sx, sy), TaskData::new(tx, ty), cfg)
    }

    #[test]
    fn joint_kernel_matches_direct_evaluation() {
        let (source, target, cfg) = problem();
        let cache = FitCache::new(&source, &target, 2).unwrap();
        let k = cache.joint_kernel(&cfg).unwrap();
        let base = crate::kernel::SquaredExponential::new(cfg.signal_var, cfg.lengthscales.clone())
            .unwrap();
        let kernel = TransferKernel::with_lambda(base, cfg.lambda).unwrap();
        let n = source.len();
        let point = |i: usize| -> (&[f64], Task) {
            if i < n {
                (&source.x[i], Task::Source)
            } else {
                (&target.x[i - n], Task::Target)
            }
        };
        let p = n + target.len();
        for i in 0..p {
            for j in 0..p {
                let (a, ta) = point(i);
                let (b, tb) = point(j);
                let direct = kernel.eval_task(a, ta, b, tb);
                assert!(
                    (k[(i, j)] - direct).abs() <= 1e-12 * direct.abs().max(1.0),
                    "entry ({i},{j}): cached {} vs direct {direct}",
                    k[(i, j)]
                );
            }
        }
    }

    #[test]
    fn objective_matches_clone_per_eval_path() {
        let (source, target, cfg) = problem();
        let cache = FitCache::new(&source, &target, 2).unwrap();
        let model = TransferGp::fit(source.clone(), target.clone(), cfg.clone()).unwrap();
        let direct = -model.log_conditional_likelihood();
        let cached = cache.objective(&cfg);
        assert!(
            (cached - direct).abs() <= 1e-9 * direct.abs().max(1.0),
            "cached {cached} vs direct {direct}"
        );
    }

    #[test]
    fn objective_is_infinite_for_invalid_hyperparameters() {
        let (source, target, cfg) = problem();
        let cache = FitCache::new(&source, &target, 2).unwrap();
        for bad in [
            TransferGpConfig {
                signal_var: -1.0,
                ..cfg.clone()
            },
            TransferGpConfig {
                lambda: 1.5,
                ..cfg.clone()
            },
            TransferGpConfig {
                noise_target: f64::NAN,
                ..cfg.clone()
            },
            TransferGpConfig {
                lengthscales: vec![0.3],
                ..cfg
            },
        ] {
            assert_eq!(cache.objective(&bad), f64::INFINITY);
        }
    }

    #[test]
    fn construction_validates_data() {
        let (source, target, _) = problem();
        assert!(FitCache::new(&source, &TaskData::default(), 2).is_err());
        assert!(FitCache::new(&source, &target, 3).is_err());
        assert!(FitCache::new(&source, &target, 0).is_err());
        let ragged = TaskData::new(vec![vec![0.1, 0.2]], vec![1.0, 2.0]);
        assert!(FitCache::new(&ragged, &target, 2).is_err());
        let nan = TaskData::new(vec![vec![f64::NAN, 0.0]], vec![1.0]);
        assert!(FitCache::new(&nan, &target, 2).is_err());
        // Empty source is fine (no-transfer case).
        let empty = TaskData::default();
        let cache = FitCache::new(&empty, &target, 2).unwrap();
        let cfg = TransferGpConfig::default_for_dim(2);
        assert!(cache.objective(&cfg).is_finite());
    }
}
