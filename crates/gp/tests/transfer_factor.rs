//! Unit tests pinning the transfer kernel's cross-task factor
//! `λ = 2(1/(1+a))^b − 1` (Eq. 7) at analytically known `(a, b)` values
//! and in its `a → 0⁺` / `b → ∞` limits, so a silent sign or exponent
//! slip in the closed form cannot survive.

use gp::kernel::{SquaredExponential, Task, TransferKernel};

fn lambda_of(a: f64, b: f64) -> f64 {
    let base = SquaredExponential::isotropic(1, 1.0, 0.5).expect("base kernel");
    TransferKernel::from_gamma_prior(base, a, b)
        .expect("valid gamma prior")
        .lambda()
}

#[test]
fn lambda_at_analytically_known_points() {
    // a = 1, b = 1: 2·(1/2)¹ − 1 = 0 — source and target uncorrelated.
    assert!(lambda_of(1.0, 1.0).abs() < 1e-15);
    // a = 1, b = 2: 2·(1/2)² − 1 = −1/2.
    assert!((lambda_of(1.0, 2.0) + 0.5).abs() < 1e-15);
    // a = 3, b = 1: 2·(1/4)¹ − 1 = −1/2.
    assert!((lambda_of(3.0, 1.0) + 0.5).abs() < 1e-15);
    // a = 1, b = 1/2: 2·2^{−1/2} − 1 = √2 − 1.
    assert!((lambda_of(1.0, 0.5) - (std::f64::consts::SQRT_2 - 1.0)).abs() < 1e-15);
    // a = e − 1, b = 1: 2·e⁻¹ − 1.
    let expect = 2.0 / std::f64::consts::E - 1.0;
    assert!((lambda_of(std::f64::consts::E - 1.0, 1.0) - expect).abs() < 1e-15);
    // a = 1/3, b = 3: 2·(3/4)³ − 1 = 27/32 − 1 = −5/32.
    assert!((lambda_of(1.0 / 3.0, 3.0) + 5.0 / 32.0).abs() < 1e-15);
}

#[test]
fn lambda_limit_a_to_zero_is_full_transfer() {
    // a → 0⁺ (zero expected dissimilarity): (1/(1+a))^b → 1, so λ → 1
    // for any fixed b — identical tasks, full correlation.
    for &b in &[0.5, 1.0, 2.0, 7.0] {
        assert!((lambda_of(1e-14, b) - 1.0).abs() < 1e-12, "b = {b}");
    }
    // The approach is monotone from below.
    let seq: Vec<f64> = [1e-1, 1e-2, 1e-4, 1e-8]
        .iter()
        .map(|&a| lambda_of(a, 2.0))
        .collect();
    for w in seq.windows(2) {
        assert!(w[0] < w[1], "λ must increase as a shrinks: {seq:?}");
    }
    assert!(seq.iter().all(|&l| l < 1.0));
}

#[test]
fn lambda_limit_b_to_infinity_is_full_anticorrelation() {
    // b → ∞ with a > 0: (1/(1+a))^b → 0, so λ → −1 from above — the
    // paper's maximally dissimilar regime. In exact arithmetic λ > −1
    // for finite b; in f64 the 2(1+a)^{−b} term underflows below one
    // ulp of −1, so only closure of the (−1, 1] domain is observable.
    for &a in &[0.1, 1.0, 4.0] {
        assert!((lambda_of(a, 1e4) + 1.0).abs() < 1e-12, "a = {a}");
        let seq: Vec<f64> = [1.0, 4.0, 16.0, 64.0]
            .iter()
            .map(|&b| lambda_of(a, b))
            .collect();
        for w in seq.windows(2) {
            assert!(
                w[0] > w[1] || (w[0] == -1.0 && w[1] == -1.0),
                "λ must decrease as b grows: {seq:?}"
            );
        }
        assert!(seq.iter().all(|&l| l >= -1.0));
    }
}

#[test]
fn lambda_is_strictly_decreasing_in_dissimilarity_scale() {
    // Larger a means more expected dissimilarity, hence weaker transfer.
    for &b in &[0.3, 1.0, 2.5] {
        let seq: Vec<f64> = [0.01, 0.1, 1.0, 10.0]
            .iter()
            .map(|&a| lambda_of(a, b))
            .collect();
        for w in seq.windows(2) {
            assert!(w[0] > w[1], "λ must decrease as a grows (b = {b}): {seq:?}");
        }
    }
}

#[test]
fn cross_task_covariance_scales_by_lambda_exactly() {
    let base = SquaredExponential::isotropic(2, 1.3, 0.4).expect("base kernel");
    let tk = TransferKernel::from_gamma_prior(base.clone(), 0.25, 1.5).expect("kernel");
    let (x, y) = ([0.2, 0.7], [0.6, 0.1]);
    let within = tk.eval_task(&x, Task::Source, &y, Task::Source);
    let across = tk.eval_task(&x, Task::Source, &y, Task::Target);
    assert_eq!(
        within,
        base.eval(&x, &y),
        "same-task covariance is the base kernel"
    );
    assert!((across - tk.lambda() * within).abs() < 1e-15);
    // Symmetric in the task labels.
    assert_eq!(across, tk.eval_task(&x, Task::Target, &y, Task::Source));
}

#[test]
fn degenerate_gamma_priors_are_rejected() {
    let base = || SquaredExponential::isotropic(1, 1.0, 0.5).expect("base kernel");
    for (a, b) in [
        (0.0, 1.0),
        (-0.5, 1.0),
        (1.0, 0.0),
        (1.0, -2.0),
        (f64::NAN, 1.0),
        (1.0, f64::INFINITY),
    ] {
        assert!(
            TransferKernel::from_gamma_prior(base(), a, b).is_err(),
            "(a, b) = ({a}, {b}) must be rejected"
        );
    }
}
