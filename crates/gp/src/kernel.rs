//! Covariance functions: the squared-exponential ARD base kernel and the
//! transfer kernel of PPATuner §3.1.

use crate::{GpError, Result};

/// Squared-exponential (RBF) kernel with ARD lengthscales:
/// `k(a, b) = σ² · exp(−½ Σ_j ((a_j − b_j)/ℓ_j)²)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SquaredExponential {
    signal_var: f64,
    lengthscales: Vec<f64>,
}

impl SquaredExponential {
    /// Creates an ARD kernel with per-dimension lengthscales.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidHyperparameter`] when `signal_var <= 0`,
    /// any lengthscale is `<= 0`, or `lengthscales` is empty.
    pub fn new(signal_var: f64, lengthscales: Vec<f64>) -> Result<Self> {
        if !(signal_var.is_finite() && signal_var > 0.0) {
            return Err(GpError::InvalidHyperparameter {
                name: "signal_var",
                value: signal_var,
            });
        }
        if lengthscales.is_empty() {
            return Err(GpError::InvalidTrainingData {
                reason: "kernel needs at least one lengthscale",
            });
        }
        for &l in &lengthscales {
            if !(l.is_finite() && l > 0.0) {
                return Err(GpError::InvalidHyperparameter {
                    name: "lengthscale",
                    value: l,
                });
            }
        }
        Ok(SquaredExponential {
            signal_var,
            lengthscales,
        })
    }

    /// Creates an isotropic kernel (one shared lengthscale in `dim`
    /// dimensions).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SquaredExponential::new`].
    pub fn isotropic(dim: usize, signal_var: f64, lengthscale: f64) -> Result<Self> {
        SquaredExponential::new(signal_var, vec![lengthscale; dim.max(1)])
    }

    /// The signal variance σ².
    pub fn signal_var(&self) -> f64 {
        self.signal_var
    }

    /// The ARD lengthscales.
    pub fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    /// Covariance between two points.
    ///
    /// # Panics
    ///
    /// May panic if the points do not have the kernel's dimension.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.lengthscales.len());
        debug_assert_eq!(b.len(), self.lengthscales.len());
        let mut s = 0.0;
        for ((&x, &y), &l) in a.iter().zip(b).zip(&self.lengthscales) {
            let d = (x - y) / l;
            s += d * d;
        }
        self.signal_var * (-0.5 * s).exp()
    }

    /// Input dimension the kernel expects.
    pub fn dim(&self) -> usize {
        self.lengthscales.len()
    }

    /// `k(a, b_l)` against many points at once: `b` holds them
    /// dimension-major (`b[t·stride + l]` is coordinate `t` of point `l`),
    /// and `out[l]` receives lane `l` for `l < out.len()`. The
    /// lengthscale-weighted squared differences are summed across the lanes
    /// one dimension at a time (a loop that vectorises), and each lane
    /// accumulates in [`SquaredExponential::eval`]'s order, so `out[l]` is
    /// bit-identical to `eval(a, b_l)`.
    pub fn eval_lanes(&self, a: &[f64], b: &[f64], stride: usize, out: &mut [f64]) {
        out.fill(0.0);
        for ((&x, &l), col) in a.iter().zip(&self.lengthscales).zip(b.chunks(stride)) {
            for (s, &y) in out.iter_mut().zip(col) {
                let d = (x - y) / l;
                *s += d * d;
            }
        }
        for s in out.iter_mut() {
            *s = self.signal_var * (-0.5 * *s).exp();
        }
    }
}

/// Which task a training/query point belongs to in a transfer setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// The source (historical) task.
    Source,
    /// The target (current) task.
    Target,
}

/// The transfer kernel of PPATuner (Eqs. 5–7).
///
/// The kernel `K(x, x') = k(x, x')·(2e^{−ηφ} − 1)` couples two tasks with a
/// dissimilarity parameter φ (`η = 1` across tasks, `0` within). With a
/// `Gamma(b, a)` prior on φ, integrating φ out gives the closed form
///
/// `K̃(x, x') = k(x, x') · λ` across tasks, `k(x, x')` within,
///
/// where `λ = 2(1/(1+a))^b − 1 ∈ (−1, 1]`. λ near 1 transfers source
/// knowledge almost directly; λ near 0 transfers nothing; λ < 0 exploits
/// anti-correlated tasks.
///
/// # Example
///
/// ```
/// use gp::kernel::{SquaredExponential, TransferKernel, Task};
///
/// # fn main() -> Result<(), gp::GpError> {
/// let base = SquaredExponential::isotropic(2, 1.0, 0.5)?;
/// let tk = TransferKernel::from_gamma_prior(base, 0.2, 1.0)?;
/// let x = [0.3, 0.4];
/// let within = tk.eval_task(&x, Task::Source, &x, Task::Source);
/// let across = tk.eval_task(&x, Task::Source, &x, Task::Target);
/// assert!(across < within); // cross-task correlation is attenuated
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransferKernel {
    base: SquaredExponential,
    lambda: f64,
}

impl TransferKernel {
    /// Builds the kernel from a Gamma(b, a) prior over the dissimilarity
    /// φ, i.e. with cross-task factor `λ = 2(1/(1+a))^b − 1` (Eq. 7).
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidHyperparameter`] when `a <= 0` or
    /// `b <= 0`.
    pub fn from_gamma_prior(base: SquaredExponential, a: f64, b: f64) -> Result<Self> {
        if !(a.is_finite() && a > 0.0) {
            return Err(GpError::InvalidHyperparameter {
                name: "a",
                value: a,
            });
        }
        if !(b.is_finite() && b > 0.0) {
            return Err(GpError::InvalidHyperparameter {
                name: "b",
                value: b,
            });
        }
        let lambda = 2.0 * (1.0 / (1.0 + a)).powf(b) - 1.0;
        Ok(TransferKernel { base, lambda })
    }

    /// Builds the kernel with an explicit cross-task factor
    /// `λ ∈ (−1, 1]` (useful when λ is itself trained).
    ///
    /// # Errors
    ///
    /// Returns [`GpError::InvalidHyperparameter`] when λ is outside
    /// `(−1, 1]`.
    pub fn with_lambda(base: SquaredExponential, lambda: f64) -> Result<Self> {
        if !(lambda.is_finite() && lambda > -1.0 && lambda <= 1.0) {
            return Err(GpError::InvalidHyperparameter {
                name: "lambda",
                value: lambda,
            });
        }
        Ok(TransferKernel { base, lambda })
    }

    /// The cross-task correlation factor λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Borrows the base kernel.
    pub fn base(&self) -> &SquaredExponential {
        &self.base
    }

    /// Covariance between two points with task labels (Eq. 7).
    pub fn eval_task(&self, a: &[f64], ta: Task, b: &[f64], tb: Task) -> f64 {
        let k = self.base.eval(a, b);
        if ta == tb {
            k
        } else {
            k * self.lambda
        }
    }

    /// [`TransferKernel::eval_task`] of `(a, ta)` against many points of
    /// task `tb`, laid out as for [`SquaredExponential::eval_lanes`];
    /// `out[l]` is bit-identical to `eval_task(a, ta, b_l, tb)`.
    pub fn eval_task_lanes(
        &self,
        a: &[f64],
        ta: Task,
        b: &[f64],
        tb: Task,
        stride: usize,
        out: &mut [f64],
    ) {
        self.base.eval_lanes(a, b, stride, out);
        if ta != tb {
            for k in out.iter_mut() {
                *k *= self.lambda;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_evaluation_is_bitwise_the_pairwise_one() {
        let base = SquaredExponential::new(1.7, vec![0.3, 0.9, 2.1]).unwrap();
        let tk = TransferKernel::with_lambda(base, -0.35).unwrap();
        let a = [0.12, -0.7, 3.3];
        let pts: Vec<[f64; 3]> = (0..7)
            .map(|l| {
                let l = l as f64;
                [0.37 * l, 1.0 - 0.11 * l * l, (l * 0.9).sin()]
            })
            .collect();
        // Dimension-major with a stride wider than the lane count.
        let stride = 9;
        let mut b = vec![f64::NAN; 3 * stride];
        for (l, p) in pts.iter().enumerate() {
            for t in 0..3 {
                b[t * stride + l] = p[t];
            }
        }
        for ta in [Task::Source, Task::Target] {
            let mut out = vec![0.0; pts.len()];
            tk.eval_task_lanes(&a, ta, &b, Task::Target, stride, &mut out);
            for (l, p) in pts.iter().enumerate() {
                let want = tk.eval_task(&a, ta, p, Task::Target);
                assert_eq!(out[l].to_bits(), want.to_bits(), "{ta:?} lane {l}");
            }
        }
    }

    #[test]
    fn se_kernel_basic_properties() {
        let k = SquaredExponential::isotropic(2, 2.0, 0.5).unwrap();
        let a = [0.1, 0.2];
        let b = [0.4, 0.9];
        assert!((k.eval(&a, &a) - 2.0).abs() < 1e-12);
        assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
        assert!(k.eval(&a, &b) < k.eval(&a, &a));
        assert_eq!(k.dim(), 2);
    }

    #[test]
    fn se_decays_with_distance() {
        let k = SquaredExponential::isotropic(1, 1.0, 0.3).unwrap();
        let near = k.eval(&[0.0], &[0.1]);
        let far = k.eval(&[0.0], &[0.9]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn ard_lengthscales_weight_dimensions() {
        let k = SquaredExponential::new(1.0, vec![0.1, 10.0]).unwrap();
        // Displacement along the short-lengthscale axis decays faster.
        let along_0 = k.eval(&[0.0, 0.0], &[0.5, 0.0]);
        let along_1 = k.eval(&[0.0, 0.0], &[0.0, 0.5]);
        assert!(along_0 < along_1);
    }

    #[test]
    fn kernel_validation() {
        assert!(SquaredExponential::new(0.0, vec![1.0]).is_err());
        assert!(SquaredExponential::new(1.0, vec![-1.0]).is_err());
        assert!(SquaredExponential::new(1.0, vec![]).is_err());
    }

    #[test]
    fn transfer_lambda_from_gamma_prior() {
        // a → 0⁺ (prior mass at φ = 0): tasks identical, λ → 1.
        let base = SquaredExponential::isotropic(1, 1.0, 1.0).unwrap();
        let tk = TransferKernel::from_gamma_prior(base.clone(), 1e-9, 1.0).unwrap();
        assert!((tk.lambda() - 1.0).abs() < 1e-6);
        // Large a·b (very dissimilar): λ → −1.
        let tk = TransferKernel::from_gamma_prior(base.clone(), 100.0, 5.0).unwrap();
        assert!(tk.lambda() < -0.99);
        // Eq. 7 closed form at a = 1, b = 1: λ = 2·(1/2) − 1 = 0.
        let tk = TransferKernel::from_gamma_prior(base, 1.0, 1.0).unwrap();
        assert!(tk.lambda().abs() < 1e-12);
    }

    #[test]
    fn transfer_kernel_attenuates_cross_task() {
        let base = SquaredExponential::isotropic(2, 1.5, 0.7).unwrap();
        let tk = TransferKernel::with_lambda(base, 0.6).unwrap();
        let x = [0.2, 0.8];
        let y = [0.3, 0.5];
        let within = tk.eval_task(&x, Task::Source, &y, Task::Source);
        let across = tk.eval_task(&x, Task::Source, &y, Task::Target);
        assert!((across - 0.6 * within).abs() < 1e-12);
        // Within-target equals within-source (same base kernel).
        assert_eq!(tk.eval_task(&x, Task::Target, &y, Task::Target), within);
    }

    #[test]
    fn transfer_kernel_validation() {
        let base = SquaredExponential::isotropic(1, 1.0, 1.0).unwrap();
        assert!(TransferKernel::from_gamma_prior(base.clone(), -1.0, 1.0).is_err());
        assert!(TransferKernel::from_gamma_prior(base.clone(), 1.0, 0.0).is_err());
        assert!(TransferKernel::with_lambda(base.clone(), -1.0).is_err());
        assert!(TransferKernel::with_lambda(base.clone(), 1.5).is_err());
        assert!(TransferKernel::with_lambda(base, 1.0).is_ok());
    }
}
