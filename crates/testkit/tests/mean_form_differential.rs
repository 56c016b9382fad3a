//! Differential suite for the transfer-GP posterior mean form.
//!
//! `gp` computes a latent mean as `v·w`, with `v = L⁻¹k*` and
//! `w = L⁻¹z` on the joint factor `L Lᵀ = K̃ + Λ`, so one panel `v`
//! serves both the mean and the variance `‖v‖²`. This suite checks that
//! form against the two it must agree with:
//!
//! - **the `k*·α` form it replaced** (`α = L⁻ᵀL⁻¹z`). [`OldForm`]
//!   rebuilds the posterior from `gp`'s public kernel and standardizer and
//!   `linalg::Cholesky` in the operation order `TransferGp` uses: the
//!   same noisy joint kernel, the same jitter ladder, the same
//!   extend-or-refit on conditioning. Its factor is therefore the model's
//!   own factor: the variances, which did not change form, must agree bit
//!   for bit, and `v·w` recomputed from that factor must give the model's
//!   mean bit for bit. The two mean forms then differ by rounding alone.
//! - **testkit's dense-inverse posterior** ([`refgp`]), which shares
//!   nothing numerical with the fast path.
//!
//! Both mean comparisons are relative to `max(1, Σ|k*ᵢαᵢ|)` in
//! standardized units: the magnitude of the old form's dot product, the
//! scale its own rounding error is proportional to. A near-singular
//! kernel makes `α` large and the mean a small difference of large
//! terms; then every form, the dense one too, resolves the mean only to
//! about `ε·Σ|k*ᵢαᵢ|`, and an absolute tolerance would fail on rounding
//! rather than on a wrong formula. (In a jittered case the two forms were
//! seen to differ by 7e-8 on a mean of 1.45, where `Σ|k*ᵢαᵢ|` is about
//! 1e10.)
//!
//! Cases rotate over four flavours, so each is covered by a quarter of
//! the cases: plain `gen::gp_problem` input; jittered factors (duplicate
//! rows and zero noise make the joint kernel singular); hyper-parameters
//! at the MAP search's clamps; and λ at or near ±1. Every case also
//! queries near-duplicates of its training inputs, and half the cases
//! condition on new points before predicting, which takes the
//! `Cholesky::extend` path or its refit fallback. Each case re-seeds its
//! generator from [`testkit::test_seed`] and its index; the `#[ignore]`d
//! deep variant runs 10× the cases.

use gp::kernel::{SquaredExponential, Task, TransferKernel};
use gp::standardize::Standardizer;
use gp::{TaskData, TransferGp, TransferGpConfig};
use linalg::{Cholesky, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use testkit::{gen, refgp};

const CASES: u64 = 600;

/// `|v·w − k*·α| ≤ FORM_TOL · max(1, Σ|k*ᵢαᵢ|)` in standardized units.
/// Both forms read the same factor, so they differ by the rounding of
/// the solves and the dot products: measured at most 3.6e-16 over the
/// seeded cases (8.4e-16 in the deep variant).
const FORM_TOL: f64 = 1e-13;

/// `|v·w − μ_dense| ≤ DENSE_TOL · max(1, Σ|k*ᵢαᵢ|)` in standardized
/// units. The Gauss–Jordan inverse loses digits in proportion to the
/// kernel's condition number, so this bound is looser: measured at most
/// 4.7e-13 over the seeded cases (3.6e-12 in the deep variant).
const DENSE_TOL: f64 = 1e-10;

/// The posterior as `TransferGp` built it before its mean became `v·w`:
/// it keeps `α` and reduces `k*·α`.
struct OldForm {
    kernel: TransferKernel,
    config: TransferGpConfig,
    source: TaskData,
    target: TaskData,
    chol: Cholesky,
    jitter: f64,
    std_target: Standardizer,
    z: Vec<f64>,
    alpha: Vec<f64>,
}

impl OldForm {
    /// `TransferGp::fit`'s steps: standardize per task, assemble the lower
    /// triangle of `K̃ + Λ`, factor with the jitter ladder, `α` by two
    /// solves. `None` when the factorization fails.
    fn fit(source: &TaskData, target: &TaskData, config: &TransferGpConfig) -> Option<Self> {
        let base = SquaredExponential::new(config.signal_var, config.lengthscales.clone()).ok()?;
        let kernel = TransferKernel::with_lambda(base, config.lambda).ok()?;
        let std_source = if source.is_empty() {
            Standardizer::identity()
        } else {
            Standardizer::fit(&source.y)
        };
        let std_target = Standardizer::fit(&target.y);
        let mut z: Vec<f64> = source.y.iter().map(|&v| std_source.transform(v)).collect();
        z.extend(target.y.iter().map(|&v| std_target.transform(v)));
        let p = z.len();
        let mut old = OldForm {
            kernel,
            config: config.clone(),
            source: source.clone(),
            target: target.clone(),
            chol: Cholesky::new(&Matrix::identity(1)).expect("identity factors"),
            jitter: 0.0,
            std_target,
            z,
            alpha: Vec::new(),
        };
        let mut k = Matrix::zeros(p, p);
        for i in 0..p {
            let (xi, ti) = old.row(i);
            for j in 0..=i {
                let (xj, tj) = old.row(j);
                k[(i, j)] = old.kernel.eval_task(xi, ti, xj, tj);
            }
            k[(i, i)] += match ti {
                Task::Source => config.noise_source,
                Task::Target => config.noise_target,
            };
        }
        let (chol, jitter) = Cholesky::new_with_jitter(&k, 1e-10, 12).ok()?;
        old.alpha = chol.solve_vec(&old.z).expect("factor solves z");
        old.chol = chol;
        old.jitter = jitter;
        Some(old)
    }

    /// Joint row `i`, source first.
    fn row(&self, i: usize) -> (&[f64], Task) {
        match i.checked_sub(self.source.len()) {
            None => (&self.source.x[i], Task::Source),
            Some(t) => (&self.target.x[t], Task::Target),
        }
    }

    /// `TransferGp::condition_on`'s steps: extend the factor by the new
    /// target rows (the stored jitter on the new diagonal), or refit from
    /// scratch when the extension is rejected; then re-standardize the
    /// target block and solve for `α` again.
    fn condition(&mut self, new_x: &[Vec<f64>], new_y: &[f64]) -> Option<()> {
        let (p, k) = (self.z.len(), new_x.len());
        let cross = Matrix::from_fn(p, k, |i, j| {
            let (xi, ti) = self.row(i);
            self.kernel.eval_task(xi, ti, &new_x[j], Task::Target)
        });
        let mut corner = Matrix::from_fn(k, k, |i, j| {
            self.kernel
                .eval_task(&new_x[i], Task::Target, &new_x[j], Task::Target)
        });
        for i in 0..k {
            corner[(i, i)] += self.config.noise_target + self.jitter;
        }
        let mut x = self.target.x.to_vec();
        x.extend(new_x.iter().cloned());
        let mut y = self.target.y.clone();
        y.extend_from_slice(new_y);
        let target = TaskData::new(x, y);
        if self.chol.extend(&cross, &corner).is_err() {
            *self = OldForm::fit(&self.source, &target, &self.config)?;
            return Some(());
        }
        let n = self.source.len();
        self.std_target = Standardizer::fit(&target.y);
        self.z.truncate(n);
        let std = self.std_target;
        self.z.extend(target.y.iter().map(|&v| std.transform(v)));
        self.alpha = self.chol.solve_vec(&self.z).expect("factor solves z");
        self.target = target;
        Some(())
    }

    /// Per query: the old `k*·α` mean and the `‖v‖²` variance, both in
    /// natural units, plus `k*·α`, its magnitude `Σ|k*ᵢαᵢ|` and `v·w` in
    /// standardized units.
    fn predict(&self, x: &[f64]) -> OldPrediction {
        let k_star: Vec<f64> = (0..self.z.len())
            .map(|i| {
                let (xi, ti) = self.row(i);
                self.kernel.eval_task(xi, ti, x, Task::Target)
            })
            .collect();
        let v = self
            .chol
            .solve_lower_only(&k_star)
            .expect("factor solves k*");
        let w = self
            .chol
            .solve_lower_only(&self.z)
            .expect("factor solves z");
        let old_z = linalg::vecops::dot(&k_star, &self.alpha);
        let c = self.kernel.eval_task(x, Task::Target, x, Task::Target);
        let var_z = (c - linalg::vecops::dot(&v, &v)).max(0.0);
        OldPrediction {
            old_mean: self.std_target.inverse(old_z),
            var: self.std_target.inverse_var(var_z),
            old_z,
            vw_z: linalg::vecops::dot(&v, &w),
            magnitude: k_star
                .iter()
                .zip(&self.alpha)
                .map(|(a, b)| (a * b).abs())
                .sum(),
        }
    }
}

struct OldPrediction {
    old_mean: f64,
    var: f64,
    old_z: f64,
    vw_z: f64,
    magnitude: f64,
}

/// One case's problem, shaped by its flavour (`case % 4`).
fn problem(rng: &mut StdRng, dim: usize, flavour: u64) -> (TaskData, TaskData, TransferGpConfig) {
    let (source, mut target, mut config) = gen::gp_problem(rng, dim);
    match flavour {
        // Jittered: a target row duplicating a source row (or another
        // target row), a second duplicating that one, and zero noise make
        // the joint kernel singular.
        1 => {
            let mut x = target.x.to_vec();
            x[0] = source.x.first().unwrap_or(&x[1]).clone();
            x[1] = x[0].clone();
            target = TaskData::new(x, target.y.clone());
            config.noise_source = 0.0;
            config.noise_target = 0.0;
        }
        // Hyper-parameters at the MAP search's clamps
        // (`gp::optimize`'s `decode`), mixed with in-range values.
        2 => {
            for l in &mut config.lengthscales {
                *l = [1e-3, 1e3, *l][rng.gen_range(0..3usize)];
            }
            config.signal_var = [1e-6, 1e4, config.signal_var][rng.gen_range(0..3usize)];
            config.lambda = [-0.999, 0.999, config.lambda][rng.gen_range(0..3usize)];
            config.noise_source = [1e-8, 1.0][rng.gen_range(0..2usize)];
            config.noise_target = [1e-8, 1.0][rng.gen_range(0..2usize)];
        }
        // λ at or near ±1.
        3 => {
            config.lambda = [1.0, 1.0 - 1e-9, 0.999, -0.999, -1.0 + 1e-9][rng.gen_range(0..5usize)]
        }
        _ => {}
    }
    (source, target, config)
}

/// Uniform queries, exact training inputs (from `gen::gp_queries`) and
/// near-duplicates of training inputs, offset by at most 1e-9 per
/// coordinate.
fn queries(rng: &mut StdRng, source: &TaskData, target: &TaskData, dim: usize) -> Vec<Vec<f64>> {
    let mut qs = gen::gp_queries(rng, target, dim, 6);
    let train: Vec<&Vec<f64>> = source.x.iter().chain(target.x.iter()).collect();
    for _ in 0..6 {
        let base = train[rng.gen_range(0..train.len())];
        qs.push(
            base.iter()
                .map(|&v| v + rng.gen_range(-1e-9..1e-9))
                .collect(),
        );
    }
    qs
}

/// Worst normalized mean error seen per flavour, for the report line.
#[derive(Default)]
struct Worst {
    form: [f64; 4],
    dense: [f64; 4],
    jittered: u64,
    refits: u64,
}

fn mean_form_driver(cases: u64) {
    let mut worst = Worst::default();
    for case in 0..cases {
        let mut rng = gen::case_rng(testkit::test_seed(), case);
        let flavour = case % 4;
        let dim = rng.gen_range(1..=3usize);
        let (source, target, config) = problem(&mut rng, dim, flavour);
        let input = (&source, &target, &config);
        let fast = TransferGp::fit(source.clone(), target.clone(), config.clone());
        let old = OldForm::fit(&source, &target, &config);
        let (mut fast, mut old) = match (fast, old) {
            (Ok(f), Some(o)) => (f, o),
            (Err(_), None) => continue,
            (f, o) => panic!(
                "case {case}: fit outcomes differ (fast ok {}, old ok {}); input {input:?}",
                f.is_ok(),
                o.is_some()
            ),
        };
        assert_eq!(
            fast.jitter().to_bits(),
            old.jitter.to_bits(),
            "case {case}: jitter"
        );
        let mut ext_target = target.clone();
        if rng.gen_bool(0.5) {
            let q_new = rng.gen_range(1..=3usize);
            // Jittered cases append duplicates of target rows, which the
            // jittered corner may not hold: that takes the refit fallback.
            let new_x: Vec<Vec<f64>> = (0..q_new)
                .map(|_| match flavour {
                    1 => target.x[rng.gen_range(0..target.len())].clone(),
                    _ => (0..dim).map(|_| rng.gen::<f64>()).collect(),
                })
                .collect();
            let new_y: Vec<f64> = (0..q_new).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let epoch = fast.fit_epoch();
            fast.condition_on(&new_x, &new_y)
                .unwrap_or_else(|e| panic!("case {case}: conditioning failed: {e}"));
            old.condition(&new_x, &new_y)
                .unwrap_or_else(|| panic!("case {case}: old-form conditioning failed"));
            worst.refits += u64::from(fast.fit_epoch() != epoch);
            let mut x = ext_target.x.to_vec();
            x.extend(new_x);
            let mut y = ext_target.y.clone();
            y.extend(new_y);
            ext_target = TaskData::new(x, y);
        }
        worst.jittered += u64::from(fast.jitter() > 0.0);
        // A duplicated row with zero noise is singular. The jitter ladder
        // must catch it even where rounding lets a plain factorization
        // through on a tiny positive pivot (the dense inverse would then
        // meet an exact zero pivot).
        assert!(
            flavour != 1 || fast.jitter() > 0.0,
            "case {case}: singular kernel factored without jitter; input {input:?}"
        );
        let dense = refgp::ReferenceTransferGp::fit(&source, &ext_target, &config, fast.jitter());
        let scale = old.std_target.scale();
        for (q, x) in queries(&mut rng, &source, &ext_target, dim)
            .iter()
            .enumerate()
        {
            let (mean, var) = fast
                .predict_latent(x)
                .expect("query has the model's dimension");
            let old_pred = old.predict(x);
            // Same factor: the variance and the `v·w` mean are the model's
            // bits.
            assert_eq!(
                var.to_bits(),
                old_pred.var.to_bits(),
                "case {case} q{q}: variance {var} vs rebuilt {}; input {input:?}",
                old_pred.var
            );
            assert_eq!(
                mean.to_bits(),
                old.std_target.inverse(old_pred.vw_z).to_bits(),
                "case {case} q{q}: mean {mean} is not v·w; input {input:?}"
            );
            let norm = old_pred.magnitude.max(1.0);
            let form = (old_pred.vw_z - old_pred.old_z).abs() / norm;
            assert!(
                form <= FORM_TOL,
                "case {case} q{q}: v·w {} vs k*·α {} (means {mean} vs {}), \
                 normalized error {form:.3e} > {FORM_TOL:.0e}; input {input:?}",
                old_pred.vw_z,
                old_pred.old_z,
                old_pred.old_mean
            );
            let f = flavour as usize;
            worst.form[f] = worst.form[f].max(form);
            let (dense_mean, _) = dense.predict_latent(x);
            let dense_err = (mean - dense_mean).abs() / scale / norm;
            assert!(
                dense_err <= DENSE_TOL,
                "case {case} q{q}: mean {mean} vs dense {dense_mean}, normalized error \
                 {dense_err:.3e} > {DENSE_TOL:.0e}; input {input:?}"
            );
            worst.dense[f] = worst.dense[f].max(dense_err);
        }
    }
    let show = |xs: &[f64; 4]| xs.map(|x| format!("{x:.1e}")).join(", ");
    println!(
        "mean form: worst normalized error per flavour (plain, jittered, clamped, λ edge): \
         v·w vs k*·α [{}], vs dense [{}]; {} jittered factors, {} conditioning refits",
        show(&worst.form),
        show(&worst.dense),
        worst.jittered,
        worst.refits
    );
    assert!(
        worst.jittered * 6 >= cases,
        "only {} of {cases} cases had a jittered factor",
        worst.jittered
    );
}

#[test]
fn mean_form_matches_the_alpha_form_and_the_dense_posterior() {
    mean_form_driver(CASES);
}

#[test]
#[ignore = "deep variant: 10x cases, run with --include-ignored"]
fn deep_mean_form() {
    mean_form_driver(10 * CASES);
}
