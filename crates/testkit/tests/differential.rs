//! Differential fuzzing: the optimized `pareto` and `gp` implementations
//! against testkit's naive reference oracles, ≥1000 random cases per
//! suite, agreement within 1e-9 relative tolerance.
//!
//! Each case re-seeds its own generator from the shared
//! [`testkit::test_seed`] and the case index (see [`gen::case_rng`]), so
//! a failure message alone reproduces the input. The `#[ignore]`d deep
//! suites re-run the same drivers with 10× the cases and larger inputs;
//! CI runs them in the nightly-style `--include-ignored` step.

use testkit::diff::{assert_close, assert_same_indices, DIFF_TOL};
use testkit::gen;
use testkit::{reference, refgp};

const CASES: u64 = 1200;

fn dominance_driver(cases: u64, max_points: usize) {
    for case in 0..cases {
        let mut rng = gen::case_rng(testkit::test_seed(), case);
        use rand::Rng;
        let dim = rng.gen_range(2..=3usize);
        let n = rng.gen_range(2..=max_points);
        let pts = gen::point_set(&mut rng, n, dim);
        // Pairwise dominance relations.
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                assert_eq!(
                    pareto::dominance::dominates(&pts[i], &pts[j]),
                    reference::dominates(&pts[i], &pts[j]),
                    "dominates mismatch, case {case}, pair ({i},{j}): {pts:?}"
                );
                assert_eq!(
                    pareto::dominance::weakly_dominates(&pts[i], &pts[j]),
                    reference::weakly_dominates(&pts[i], &pts[j]),
                    "weak dominance mismatch, case {case}, pair ({i},{j}): {pts:?}"
                );
                let delta: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..0.2)).collect();
                assert_eq!(
                    pareto::dominance::delta_dominates(&pts[i], &pts[j], &delta),
                    reference::delta_dominates(&pts[i], &pts[j], &delta),
                    "δ-dominance mismatch, case {case}, pair ({i},{j}), δ={delta:?}: {pts:?}"
                );
            }
        }
        // Front extraction and layered sorting.
        assert_same_indices(
            "pareto_front",
            case,
            &pts,
            &pareto::front::pareto_front(&pts),
            &reference::pareto_front(&pts),
        );
        let fast_layers = pareto::front::non_dominated_sort(&pts);
        let ref_layers = reference::non_dominated_sort(&pts);
        assert_eq!(
            fast_layers.len(),
            ref_layers.len(),
            "layer count mismatch, case {case}: {pts:?}"
        );
        for (k, (f, r)) in fast_layers.iter().zip(&ref_layers).enumerate() {
            let mut f = f.clone();
            let mut r = r.clone();
            f.sort_unstable();
            r.sort_unstable();
            assert_same_indices(&format!("nds layer {k}"), case, &pts, &f, &r);
        }
    }
}

fn hypervolume_driver(cases: u64, max_points: usize) {
    for case in 0..cases {
        let mut rng = gen::case_rng(testkit::test_seed(), case);
        use rand::Rng;
        let dim = rng.gen_range(2..=3usize);
        let n = rng.gen_range(1..=max_points);
        let (pts, reference_pt) = gen::point_set_with_reference(&mut rng, n, dim);
        let fast = pareto::hypervolume::hypervolume(&pts, &reference_pt)
            .expect("fast hypervolume accepts finite inputs");
        let slow = reference::hypervolume(&pts, &reference_pt);
        assert_close("hypervolume", case, &(&pts, &reference_pt), fast, slow);
    }
}

fn adrs_driver(cases: u64) {
    for case in 0..cases {
        let mut rng = gen::case_rng(testkit::test_seed(), case);
        use rand::Rng;
        let dim = rng.gen_range(2..=3usize);
        let (golden, approx) = gen::front_pair(&mut rng, dim);
        let fast = pareto::metrics::adrs(&golden, &approx).expect("fast adrs");
        let slow = reference::adrs(&golden, &approx);
        assert_close("adrs", case, &(&golden, &approx), fast, slow);
    }
}

fn gp_posterior_driver(cases: u64, queries_per_case: usize) {
    for case in 0..cases {
        let mut rng = gen::case_rng(testkit::test_seed(), case);
        use rand::Rng;
        let dim = rng.gen_range(1..=3usize);
        let (source, target, config) = gen::gp_problem(&mut rng, dim);
        let fast = gp::TransferGp::fit(source.clone(), target.clone(), config.clone())
            .expect("fast transfer GP fits well-conditioned fuzz input");
        // The reference must invert the *same* matrix, so it takes the
        // jitter the fast path's Cholesky actually added (usually 0).
        let slow = refgp::ReferenceTransferGp::fit(&source, &target, &config, fast.jitter());
        for (q, x) in gen::gp_queries(&mut rng, &target, dim, queries_per_case)
            .iter()
            .enumerate()
        {
            let (fm, fv) = fast.predict_latent(x).expect("fast predict_latent");
            let (rm, rv) = slow.predict_latent(x);
            let input = (&source, &target, &config, x);
            assert_close(&format!("gp latent mean q{q}"), case, &input, fm, rm);
            assert_close(&format!("gp latent var q{q}"), case, &input, fv, rv);
            let (fm, fv) = fast.predict(x).expect("fast predict");
            let (rm, rv) = slow.predict(x);
            assert_close(&format!("gp mean q{q}"), case, &input, fm, rm);
            assert_close(&format!("gp var q{q}"), case, &input, fv, rv);
        }
    }
}

/// A random symmetric positive-definite matrix `GᵀG + cI`, with the
/// diagonal boost keeping every leading principal submatrix comfortably
/// factorable (any principal submatrix of an SPD matrix is SPD).
fn random_spd(rng: &mut rand::rngs::StdRng, p: usize) -> linalg::Matrix {
    use rand::Rng;
    let g = linalg::Matrix::from_fn(p, p, |_, _| rng.gen_range(-1.0..1.0));
    let mut s = g.transpose().matmul(&g).expect("square matmul");
    s.add_diag(0.1 + rng.gen_range(0.0..1.0));
    s
}

/// A random SPD matrix built in O(p²): symmetric entries in `(−1, 1)`
/// under a diagonal of `p`, strictly diagonally dominant. For the sizes
/// where [`random_spd`]'s O(p³) product would dominate the test time.
fn dominant_spd(rng: &mut rand::rngs::StdRng, p: usize) -> linalg::Matrix {
    use rand::Rng;
    let mut s = linalg::Matrix::zeros(p, p);
    for i in 0..p {
        for j in 0..i {
            let v = rng.gen_range(-1.0..1.0);
            s[(i, j)] = v;
            s[(j, i)] = v;
        }
        s[(i, i)] = p as f64;
    }
    s
}

/// The leading-block law of `Cholesky::leading`, bit for bit: the joint
/// factor's leading `n × n` block is the factorization of the leading
/// `n × n` block of the matrix.
fn assert_leading_block_law(case: u64, s: &linalg::Matrix, n: usize) {
    let full = linalg::Cholesky::new(s).expect("SPD full factorization");
    let prefix = linalg::Cholesky::new(&s.submatrix(0, n, 0, n)).expect("SPD prefix");
    assert_eq!(
        full.leading(n).factor(),
        prefix.factor(),
        "leading block case {case}: n={n} of p={}",
        s.rows()
    );
}

fn cached_kernel_driver(cases: u64) {
    use gp::kernel::{SquaredExponential, Task, TransferKernel};
    let mut jittered = 0u64;
    for case in 0..cases {
        let mut rng = gen::case_rng(testkit::test_seed(), case);
        use rand::Rng;
        let dim = rng.gen_range(1..=3usize);
        let (source, mut target, mut config) = gen::gp_problem(&mut rng, dim);
        // About a third of the cases take the objective's jitter branch:
        // a target row duplicating a source row, a second target row
        // duplicating that one, and zero noise make the joint kernel
        // singular.
        let singular = rng.gen_bool(1.0 / 3.0);
        if singular {
            let mut x = target.x.to_vec();
            x[0] = source.x.first().unwrap_or(&x[1]).clone();
            x[1] = x[0].clone();
            target = gp::TaskData::new(x, target.y.clone());
            config.noise_source = 0.0;
            config.noise_target = 0.0;
        }
        let cache = gp::cache::FitCache::new(&source, &target, dim)
            .expect("fuzz gp problem passes fit validation");
        let k = cache
            .joint_kernel(&config)
            .expect("fuzz config is in range");
        let k_ref = reference::fit_kernel(&source, &target, &config);
        let base = SquaredExponential::new(config.signal_var, config.lengthscales.clone())
            .expect("fuzz lengthscales are positive");
        let kernel = TransferKernel::with_lambda(base, config.lambda).expect("fuzz lambda");
        let n = source.len();
        let point = |i: usize| -> (&[f64], Task) {
            if i < n {
                (&source.x[i], Task::Source)
            } else {
                (&target.x[i - n], Task::Target)
            }
        };
        for i in 0..n + target.len() {
            for j in 0..n + target.len() {
                let (a, ta) = point(i);
                let (b, tb) = point(j);
                let direct = kernel.eval_task(a, ta, b, tb);
                let input = (&source, &target, &config, i, j);
                assert!(
                    k[(i, j)].to_bits() == k_ref[(i, j)].to_bits(),
                    "cached kernel case {case}, entry ({i},{j}): {} vs reference {}; \
                     input {input:?}",
                    k[(i, j)],
                    k_ref[(i, j)]
                );
                assert_close(
                    &format!("cached kernel entry ({i},{j})"),
                    case,
                    &input,
                    k[(i, j)],
                    direct,
                );
            }
        }
        // The objective reuses the joint factor for the source term, but
        // its bits must be those of the two-factorization reference.
        let (objective, jitter) = reference::fit_objective(&source, &target, &config);
        let input = (&source, &target, &config);
        assert!(
            cache.objective(&config).to_bits() == objective.to_bits(),
            "cached objective case {case}: {} vs reference {objective}; input {input:?}",
            cache.objective(&config)
        );
        if jitter > 0.0 {
            jittered += 1;
        }
        if singular {
            // Near a singular kernel the last-bit differences between the
            // cache's and the model's kernel entries are amplified far
            // beyond DIFF_TOL, so only the bitwise pin above applies.
            continue;
        }
        // The search objective built on the cache must agree with the old
        // clone-per-eval path (a fresh model per candidate θ).
        let model = gp::TransferGp::fit(source.clone(), target.clone(), config.clone())
            .expect("fuzz gp problem fits");
        assert_close(
            "cached objective",
            case,
            &input,
            cache.objective(&config),
            -model.log_conditional_likelihood(),
        );
    }
    println!("cached objective: {jittered} of {cases} cases took the jitter branch");
    assert!(
        jittered * 5 >= cases,
        "only {jittered} of {cases} cases took the jitter branch"
    );
}

fn cholesky_extend_driver(cases: u64, max_n: usize) {
    for case in 0..cases {
        let mut rng = gen::case_rng(testkit::test_seed(), case);
        use rand::Rng;
        let p = rng.gen_range(2..=max_n);
        let n = rng.gen_range(1..p);
        let s = random_spd(&mut rng, p);
        let full = linalg::Cholesky::new(&s).expect("SPD full factorization");
        let mut extended =
            linalg::Cholesky::new(&s.submatrix(0, n, 0, n)).expect("SPD prefix factorization");
        extended
            .extend(&s.submatrix(0, n, n, p), &s.submatrix(n, p, n, p))
            .expect("rank-k append of an SPD extension");
        assert_eq!(extended.dim(), p, "extend case {case}: wrong dimension");
        for i in 0..p {
            for j in 0..=i {
                assert_close(
                    &format!("extended cholesky factor ({i},{j})"),
                    case,
                    &(&s, n),
                    extended.factor()[(i, j)],
                    full.factor()[(i, j)],
                );
            }
        }
        assert_close(
            "extended cholesky log_det",
            case,
            &(&s, n),
            extended.log_det(),
            full.log_det(),
        );
        assert_leading_block_law(case, &s, n);
    }
}

/// A squared-exponential kernel matrix over `p` random points in
/// `[0, 1]^d`, the shape the tuner factors. Long lengthscales and a
/// noise floor of 1e-12..1e-6 make it near-singular; with `duplicates`
/// about one row in six copies an earlier point and the noise is zero,
/// so it is singular outright.
fn kernel_like(rng: &mut rand::rngs::StdRng, p: usize, duplicates: bool) -> linalg::Matrix {
    use rand::Rng;
    let d = rng.gen_range(1..=9usize);
    let inv_l2 = 1.0 / rng.gen_range(0.2f64..3.0).powi(2);
    let mut x: Vec<Vec<f64>> = (0..p)
        .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let noise = if duplicates {
        for r in 1..p {
            if rng.gen_bool(1.0 / 6.0) {
                x[r] = x[rng.gen_range(0..r)].clone();
            }
        }
        0.0
    } else {
        10f64.powf(rng.gen_range(-12.0..-6.0))
    };
    linalg::Matrix::from_fn(p, p, |i, j| {
        let s: f64 = x[i].iter().zip(&x[j]).map(|(a, b)| (a - b) * (a - b)).sum();
        let k = (-0.5 * s * inv_l2).exp();
        if i == j {
            k + noise
        } else {
            k
        }
    })
}

/// A factorization outcome in bits: the factor's entries, or the
/// failing pivot and its value.
fn outcome_bits(
    r: Result<&linalg::Matrix, &linalg::LinalgError>,
) -> Result<Vec<u64>, (usize, u64)> {
    match r {
        Ok(l) => Ok(l.as_slice().iter().map(|v| v.to_bits()).collect()),
        Err(linalg::LinalgError::NotPositiveDefinite { pivot, value }) => {
            Err((*pivot, value.to_bits()))
        }
        Err(e) => panic!("square non-empty input cannot fail with {e:?}"),
    }
}

/// `Cholesky::new` against the right-looking panel schedule it replaced
/// (`reference::cholesky_right_looking`), bit for bit: the factor, the
/// failing pivot and its value, and the jitter `new_with_jitter` ends on
/// (with the ladder `gp` uses). Returns whether the case failed and
/// whether jitter rescued it.
fn assert_same_cholesky(case: u64, a: &linalg::Matrix) -> (bool, bool) {
    use linalg::Cholesky;
    let p = a.rows();
    let got = outcome_bits(Cholesky::new(a).as_ref().map(Cholesky::factor));
    let want = outcome_bits(reference::cholesky_right_looking(a).as_ref());
    assert!(
        got == want,
        "cholesky schedule case {case}, p={p}: {:?} vs reference {:?}",
        got.err(),
        want.err()
    );
    if got.is_ok() {
        return (false, false);
    }
    // `Cholesky::new_with_jitter(a, 1e-10, 12)`'s ladder over the
    // reference schedule.
    let mut jitter = 1e-10;
    let (mut want, mut want_jitter) = (Err((0, 0)), f64::NAN);
    for _ in 0..12 {
        let mut aj = a.clone();
        aj.add_diag(jitter);
        want = outcome_bits(reference::cholesky_right_looking(&aj).as_ref());
        if want.is_ok() {
            want_jitter = jitter;
            break;
        }
        jitter *= 10.0;
    }
    let fast = Cholesky::new_with_jitter(a, 1e-10, 12);
    let got_jitter = fast.as_ref().map_or(f64::NAN, |(_, j)| *j);
    let got = outcome_bits(fast.as_ref().map(|(c, _)| c.factor()));
    assert!(
        got == want && got_jitter.to_bits() == want_jitter.to_bits(),
        "cholesky jitter case {case}, p={p}: jitter {got_jitter:e} ({:?}) vs reference \
         {want_jitter:e} ({:?})",
        got.err(),
        want.err()
    );
    (true, got.is_ok())
}

/// Sizes around 4 and around the 256-column panel boundaries at 256 and
/// 512, each window covering every residue mod 4, so the factorization
/// ends on every length of short last row tile.
const CHOLESKY_EDGE_SIZES: [std::ops::RangeInclusive<usize>; 3] = [1..=8, 255..=258, 511..=514];

fn cholesky_schedule_driver(cases: u64, max_p: usize, every_kind_at_edges: bool) {
    use rand::Rng;
    let (mut failed, mut jittered, mut total) = (0u64, 0u64, 0u64);
    let mut check = |case: u64, a: &linalg::Matrix| {
        let (f, j) = assert_same_cholesky(case, a);
        failed += u64::from(f);
        jittered += u64::from(j);
        total += 1;
    };
    // Input kinds: 0 random SPD, 1 near-singular kernel, 2 duplicate-row
    // zero-noise kernel.
    let matrix = |rng: &mut rand::rngs::StdRng, p: usize, kind: u64| match kind {
        0 if p <= 64 => random_spd(rng, p),
        0 => dominant_spd(rng, p),
        k => kernel_like(rng, p, k == 2),
    };
    for (e, p) in CHOLESKY_EDGE_SIZES.iter().cloned().flatten().enumerate() {
        for kind in (0..3).filter(|&k| every_kind_at_edges || k == e as u64 % 3) {
            let case = 1_000_000 + (p as u64) * 3 + kind;
            let mut rng = gen::case_rng(testkit::test_seed(), case);
            check(case, &matrix(&mut rng, p, kind));
        }
    }
    for case in 0..cases {
        let mut rng = gen::case_rng(testkit::test_seed(), case);
        let p = rng.gen_range(1..=max_p);
        check(case, &matrix(&mut rng, p, case % 3));
    }
    println!(
        "cholesky schedule: {failed} of {total} cases failed, {jittered} recovered with jitter"
    );
    assert!(
        failed * 10 >= total,
        "only {failed} of {total} cases failed, too few to pin pivots and jitter"
    );
}

fn multi_rhs_driver(cases: u64, max_n: usize) {
    for case in 0..cases {
        let mut rng = gen::case_rng(testkit::test_seed(), case);
        use rand::Rng;
        let n = rng.gen_range(1..=max_n);
        let m = rng.gen_range(1..=6usize);
        let s = random_spd(&mut rng, n);
        let chol = linalg::Cholesky::new(&s).expect("SPD factorization");
        let b = linalg::Matrix::from_fn(n, m, |_, _| rng.gen_range(-2.0..2.0));
        let mut multi = b.clone();
        chol.solve_lower_only_multi(&mut multi)
            .expect("multi-RHS lower solve");
        // The batched path promises *bitwise* per-column equivalence (the
        // thread-determinism guarantee of batched prediction rests on it),
        // so the comparison here is exact, not DIFF_TOL.
        for j in 0..m {
            let col = chol
                .solve_lower_only(&b.col(j))
                .expect("per-vector lower solve");
            for i in 0..n {
                assert!(
                    multi[(i, j)].to_bits() == col[i].to_bits(),
                    "multi-RHS solve case {case}, entry ({i},{j}): \
                     batched {} vs per-vector {}",
                    multi[(i, j)],
                    col[i]
                );
            }
        }
        // Same contract for the free-function triangular solve.
        let l = chol.factor();
        let mut free_multi = b.clone();
        linalg::solve::solve_lower_multi(l, &mut free_multi).expect("free multi solve");
        for j in 0..m {
            let col = linalg::solve::solve_lower(l, &b.col(j)).expect("free per-vector solve");
            for i in 0..n {
                assert!(
                    free_multi[(i, j)].to_bits() == col[i].to_bits(),
                    "solve_lower_multi case {case}, entry ({i},{j}): \
                     batched {} vs per-vector {}",
                    free_multi[(i, j)],
                    col[i]
                );
            }
        }
    }
}

#[test]
fn dominance_and_fronts_match_reference() {
    dominance_driver(CASES, 10);
}

#[test]
fn hypervolume_matches_inclusion_exclusion() {
    hypervolume_driver(CASES, 12);
}

#[test]
fn adrs_matches_brute_force() {
    adrs_driver(CASES);
}

#[test]
fn gp_posterior_matches_dense_inverse() {
    gp_posterior_driver(1000, 3);
}

#[test]
fn cached_kernel_assembly_matches_direct_evaluation() {
    cached_kernel_driver(1000);
}

#[test]
fn cholesky_extend_matches_full_refactorization() {
    cholesky_extend_driver(CASES, 10);
}

#[test]
fn cholesky_leading_block_straddles_the_panel_width() {
    // Prefixes ending one before, on and one after the 256-column panel
    // boundary, inside a full matrix of one more row and of 600 rows.
    for n in 255..=257 {
        for p in [n + 1, 600] {
            let case = (n * 1000 + p) as u64;
            let mut rng = gen::case_rng(testkit::test_seed(), case);
            assert_leading_block_law(case, &dominant_spd(&mut rng, p), n);
        }
    }
}

#[test]
fn cholesky_matches_the_right_looking_schedule_bitwise() {
    cholesky_schedule_driver(24, 600, false);
}

#[test]
fn multi_rhs_solve_matches_per_vector_solve() {
    multi_rhs_driver(CASES, 12);
}

#[test]
fn transfer_lambda_closed_form_matches_quadrature() {
    // Fuzzed (a, b) over the range the tuner's hyper-prior uses; the
    // quadrature reference is good to ~1e-8, so the tolerance is looser
    // than DIFF_TOL.
    for case in 0..CASES {
        let mut rng = gen::case_rng(testkit::test_seed(), case);
        use rand::Rng;
        let a = rng.gen_range(0.05..5.0);
        let b = rng.gen_range(0.2..5.0);
        let fast = gp::kernel::TransferKernel::from_gamma_prior(
            gp::kernel::SquaredExponential::isotropic(1, 1.0, 1.0).expect("base kernel"),
            a,
            b,
        )
        .expect("transfer kernel")
        .lambda();
        let closed = reference::lambda_closed_form(a, b);
        assert_close("lambda closed form", case, &(a, b), fast, closed);
        // The quadrature oracle costs 400k integrand evaluations, so it
        // spot-checks a deterministic 1-in-50 subsample of the cases.
        if case % 50 == 0 {
            let quad = reference::lambda_by_quadrature(a, b);
            testkit::diff::assert_close_tol("lambda quadrature", case, &(a, b), fast, quad, 1e-6);
        }
    }
    const { assert!(DIFF_TOL <= 1e-9, "acceptance tolerance must stay at 1e-9") };
}

// --- deep stress variants (nightly-style: `cargo test -- --include-ignored`)

#[test]
#[ignore = "10x-depth stress suite, run via --include-ignored"]
fn deep_dominance_and_fronts() {
    dominance_driver(6_000, 14);
}

#[test]
#[ignore = "10x-depth stress suite, run via --include-ignored"]
fn deep_hypervolume() {
    // The 2^n inclusion–exclusion oracle caps how far the point count can
    // stretch; depth comes from the case count instead.
    hypervolume_driver(5_000, 14);
}

#[test]
#[ignore = "10x-depth stress suite, run via --include-ignored"]
fn deep_adrs() {
    adrs_driver(12_000);
}

#[test]
#[ignore = "10x-depth stress suite, run via --include-ignored"]
fn deep_gp_posterior() {
    gp_posterior_driver(3_000, 5);
}

#[test]
#[ignore = "10x-depth stress suite, run via --include-ignored"]
fn deep_cached_kernel_assembly() {
    cached_kernel_driver(10_000);
}

#[test]
#[ignore = "10x-depth stress suite, run via --include-ignored"]
fn deep_cholesky_extend() {
    cholesky_extend_driver(6_000, 16);
}

#[test]
#[ignore = "10x-depth stress suite, run via --include-ignored"]
fn deep_multi_rhs_solve() {
    multi_rhs_driver(8_000, 20);
}

#[test]
#[ignore = "10x-depth stress suite, run via --include-ignored"]
fn deep_cholesky_schedule() {
    cholesky_schedule_driver(240, 600, true);
}
