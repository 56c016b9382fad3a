//! Naive reference implementations of the `pareto` crate's algorithms,
//! of `ppatuner`'s ε-PAL decision pass, of `gp`'s hyper-parameter
//! search objective, and of `linalg`'s blocked Cholesky schedule.
//!
//! Everything here is written for obviousness, not speed: quadratic (or
//! exponential) scans whose correctness can be read off the definition.
//! The differential suites in `tests/` fuzz the optimized implementations
//! against these oracles.

use gp::standardize::Standardizer;
use gp::{TaskData, TransferGpConfig};
use linalg::{Cholesky, LinalgError, Matrix};
use ppatuner::{DecisionOutcome, Status, UncertaintyRegion};

/// Reference dominance test: `a` dominates `b` iff `a ≤ b` componentwise
/// with at least one strict improvement, computed by explicit counting.
/// Any NaN coordinate makes the pair incomparable (matching the fast
/// path's convention).
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "reference dominates: length mismatch");
    if a.iter().chain(b).any(|v| v.is_nan()) {
        return false;
    }
    let leq = a.iter().zip(b).filter(|(x, y)| x <= y).count();
    let strict = a.iter().zip(b).filter(|(x, y)| x < y).count();
    leq == a.len() && strict >= 1
}

/// Reference weak dominance: `a ≤ b` componentwise (false on any NaN).
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn weakly_dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "reference weak dominance: length");
    if a.iter().chain(b).any(|v| v.is_nan()) {
        return false;
    }
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Reference δ-relaxed weak dominance: `a[i] ≤ b[i] + delta[i]` for all
/// `i` (Eq. 11's comparison).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn delta_dominates(a: &[f64], b: &[f64], delta: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "reference delta dominance: length");
    assert_eq!(a.len(), delta.len(), "reference delta dominance: delta");
    a.iter().zip(b).zip(delta).all(|((&x, &y), &d)| x <= y + d)
}

/// Reference Pareto front: O(n²) scan marking every point that no other
/// point dominates, keeping only the first of exactly-equal duplicates
/// (the fast path's dedup rule). Returns indices in ascending order.
pub fn pareto_front(points: &[Vec<f64>]) -> Vec<usize> {
    let mut keep = Vec::new();
    for i in 0..points.len() {
        let mut kept = true;
        for j in 0..points.len() {
            if i == j {
                continue;
            }
            if dominates(&points[j], &points[i]) {
                kept = false;
                break;
            }
            if j < i && points[j] == points[i] && !points[i].iter().any(|v| v.is_nan()) {
                kept = false;
                break;
            }
        }
        if kept {
            keep.push(i);
        }
    }
    keep
}

/// Reference non-dominated sort: repeatedly peel the [`pareto_front`] of
/// the remaining points. Quadratic per layer, cubic overall.
pub fn non_dominated_sort(points: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let mut remaining: Vec<usize> = (0..points.len()).collect();
    let mut fronts = Vec::new();
    while !remaining.is_empty() {
        // Peeling must not re-apply the duplicate rule the flat front
        // uses — the fast NSGA-II sort keeps equal points in the same
        // layer — so membership is "not dominated within the remainder".
        let front: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| !remaining.iter().any(|&j| dominates(&points[j], &points[i])))
            .collect();
        assert!(!front.is_empty(), "non-dominated sort: cycle impossible");
        remaining.retain(|i| !front.contains(i));
        fronts.push(front);
    }
    fronts
}

/// Reference hypervolume by inclusion–exclusion over *all* nonempty
/// subsets of the point set:
///
/// `HV = Σ_{∅≠S⊆P} (−1)^{|S|+1} · Π_j max(0, r_j − max_{p∈S} p_j)`.
///
/// Valid for any point set (dominated and duplicate points included — the
/// union measure is insensitive to them), exact in any dimension, and
/// exponential in `|P|`; keep inputs at ≤ ~16 points.
///
/// # Panics
///
/// Panics on dimension mismatches, NaN coordinates, or more than 24
/// points (2²⁴ subsets is the sanity cap).
pub fn hypervolume(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    let n = points.len();
    assert!(n <= 24, "reference hypervolume: too many points ({n})");
    let d = reference.len();
    for p in points {
        assert_eq!(p.len(), d, "reference hypervolume: dimension");
        assert!(!p.iter().any(|v| v.is_nan()), "reference hypervolume: NaN");
    }
    let mut total = 0.0;
    for mask in 1u32..(1u32 << n) {
        let mut vol = 1.0;
        for j in 0..d {
            let mut worst = f64::NEG_INFINITY;
            for (i, p) in points.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    worst = worst.max(p[j]);
                }
            }
            vol *= (reference[j] - worst).max(0.0);
        }
        if mask.count_ones() % 2 == 1 {
            total += vol;
        } else {
            total -= vol;
        }
    }
    total.max(0.0)
}

/// Reference hypervolume error (Eq. 2): `(H(P) − H(P̂)) / H(P)` with both
/// sets measured by [`hypervolume`] against the same reference point.
///
/// # Panics
///
/// Panics when the golden hypervolume is not positive, or on the
/// conditions of [`hypervolume`].
pub fn hypervolume_error(golden: &[Vec<f64>], approx: &[Vec<f64>], reference: &[f64]) -> f64 {
    let h_golden = hypervolume(golden, reference);
    assert!(h_golden > 0.0, "reference hv error: golden HV must be > 0");
    (h_golden - hypervolume(approx, reference)) / h_golden
}

/// Reference ADRS (Eq. 3): materialize the full |golden| × |approx|
/// deviation matrix `δ(a, p̂) = max_j |a_j − p̂_j| / |a_j|`, then take the
/// row minima and average them.
///
/// # Panics
///
/// Panics on empty sets, dimension mismatches, NaN, or a zero golden
/// coordinate.
pub fn adrs(golden: &[Vec<f64>], approx: &[Vec<f64>]) -> f64 {
    assert!(!golden.is_empty() && !approx.is_empty(), "reference adrs");
    let d = golden[0].len();
    let mut matrix = vec![vec![0.0f64; approx.len()]; golden.len()];
    for (gi, a) in golden.iter().enumerate() {
        assert_eq!(a.len(), d, "reference adrs: golden dimension");
        assert!(!a.iter().any(|v| v.is_nan() || *v == 0.0), "reference adrs");
        for (ai, p) in approx.iter().enumerate() {
            assert_eq!(p.len(), d, "reference adrs: approx dimension");
            assert!(!p.iter().any(|v| v.is_nan()), "reference adrs: NaN");
            let mut worst = 0.0f64;
            for j in 0..d {
                worst = worst.max(((a[j] - p[j]) / a[j]).abs());
            }
            matrix[gi][ai] = worst;
        }
    }
    let total: f64 = matrix
        .iter()
        .map(|row| row.iter().copied().fold(f64::INFINITY, f64::min))
        .sum();
    total / golden.len() as f64
}

/// Reference additive ε-indicator:
/// `max_{a∈A} min_{p̂∈P̂} max_j (p̂_j − a_j)` via three explicit loops.
///
/// # Panics
///
/// Panics on empty sets or dimension mismatches.
pub fn epsilon_indicator(golden: &[Vec<f64>], approx: &[Vec<f64>]) -> f64 {
    assert!(
        !golden.is_empty() && !approx.is_empty(),
        "reference epsilon"
    );
    let d = golden[0].len();
    let mut worst = f64::NEG_INFINITY;
    for a in golden {
        assert_eq!(a.len(), d, "reference epsilon: dimension");
        let mut best = f64::INFINITY;
        for p in approx {
            assert_eq!(p.len(), d, "reference epsilon: dimension");
            let mut gap = f64::NEG_INFINITY;
            for j in 0..d {
                gap = gap.max(p[j] - a[j]);
            }
            best = best.min(gap);
        }
        worst = worst.max(best);
    }
    worst
}

/// The transfer kernel's cross-task correlation factor
/// `λ = 2(1/(1+a))^b − 1` (Eq. 7), in closed form. The independent
/// reference for it is [`lambda_by_quadrature`].
pub fn lambda_closed_form(a: f64, b: f64) -> f64 {
    2.0 * (1.0 / (1.0 + a)).powf(b) - 1.0
}

/// The same factor computed from its definition, `λ = 2·E[e^{−φ}] − 1`
/// with `φ ~ Gamma(shape b, scale a)`, by trapezoidal quadrature of the
/// ratio `∫ e^{−φ} φ^{b−1} e^{−φ/a} dφ / ∫ φ^{b−1} e^{−φ/a} dφ` (the
/// normalizing constant cancels, so no Γ function is needed).
///
/// Accurate to ~1e-8 for moderate `(a, b)`; used to pin the closed form.
///
/// # Panics
///
/// Panics when `a ≤ 0` or `b ≤ 0`.
pub fn lambda_by_quadrature(a: f64, b: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "lambda quadrature: a, b must be > 0");
    // Integrate over [0, cut] where the Gamma density is negligible
    // beyond: mean + many standard deviations, floor-bounded for tiny a·b.
    let cut = (a * b + 12.0 * a * b.sqrt().max(1.0))
        .max(20.0 * a)
        .max(1.0);
    // Substitute φ = u^p with p ≥ 2/b: the transformed weight
    // p·u^{pb−1}·e^{−u^p/a} vanishes at u = 0, removing the integrable
    // singularity of φ^{b−1} for b < 1 that the trapezoid rule cannot
    // handle. The constant p cancels in the ratio.
    let p = (2.0f64).max(2.0 / b);
    let u_max = cut.powf(1.0 / p);
    let steps = 400_000usize;
    let h = u_max / steps as f64;
    let mut numer = 0.0;
    let mut denom = 0.0;
    for k in 0..=steps {
        let u = (k as f64) * h;
        let phi = u.powf(p);
        // log-space weight avoids overflow for large b.
        let w = if u == 0.0 {
            0.0
        } else {
            ((p * b - 1.0) * u.ln() - phi / a).exp()
        };
        let trapz = if k == 0 || k == steps { 0.5 } else { 1.0 };
        numer += trapz * w * (-phi).exp();
        denom += trapz * w;
    }
    assert!(denom > 0.0, "lambda quadrature: degenerate density");
    2.0 * (numer / denom) - 1.0
}

/// Reference joint transfer kernel `K̃` (Eq. 7, no noise) in the operation
/// order `gp::cache::FitCache` used before its lower-triangle layout: pair
/// by pair over `i ≤ j`, `d = x_i[t] − x_j[t]`, `s += d·d · (1/ℓ_t²)` in
/// ascending `t`, then `σ²·exp(−½s)`, ×λ across tasks, mirrored. Source
/// rows come first. `tests/differential.rs` holds `FitCache::joint_kernel`
/// to it bit for bit.
pub fn fit_kernel(source: &TaskData, target: &TaskData, config: &TransferGpConfig) -> Matrix {
    let n = source.len();
    let x: Vec<&Vec<f64>> = source.x.iter().chain(target.x.iter()).collect();
    let p = x.len();
    let inv_l2: Vec<f64> = config.lengthscales.iter().map(|&l| 1.0 / (l * l)).collect();
    let mut k = Matrix::zeros(p, p);
    for i in 0..p {
        for j in i..p {
            let mut s = 0.0;
            for ((a, b), w) in x[i].iter().zip(x[j]).zip(&inv_l2) {
                let d = a - b;
                s += d * d * w;
            }
            let mut v = config.signal_var * (-0.5 * s).exp();
            if i < n && j >= n {
                v *= config.lambda;
            }
            k[(i, j)] = v;
            k[(j, i)] = v;
        }
    }
    k
}

/// Reference search objective `−log p(y_T | y_S, θ)`: the joint likelihood
/// of the per-task standardized outputs over [`fit_kernel`] plus the noise
/// diagonal, minus the source likelihood from a **separate** factorization
/// of `K_ss`, each factored with the jitter ladder. Returns the objective
/// (`+∞` where `gp::cache::FitCache::objective` gives up) and the jitter
/// the joint factorization needed.
pub fn fit_objective(
    source: &TaskData,
    target: &TaskData,
    config: &TransferGpConfig,
) -> (f64, f64) {
    let n = source.len();
    let std_source = if n == 0 {
        Standardizer::identity()
    } else {
        Standardizer::fit(&source.y)
    };
    let std_target = Standardizer::fit(&target.y);
    let z: Vec<f64> = source
        .y
        .iter()
        .map(|&v| std_source.transform(v))
        .chain(target.y.iter().map(|&v| std_target.transform(v)))
        .collect();
    let mut k = fit_kernel(source, target, config);
    for i in 0..z.len() {
        k[(i, i)] += if i < n {
            config.noise_source
        } else {
            config.noise_target
        };
    }
    let lml = |k: &Matrix, z: &[f64]| -> Option<(f64, f64)> {
        let (chol, jitter) = Cholesky::new_with_jitter(k, 1e-10, 12).ok()?;
        let alpha = chol.solve_vec(z).ok()?;
        let v = -0.5 * linalg::vecops::dot(z, &alpha)
            - 0.5 * chol.log_det()
            - 0.5 * z.len() as f64 * (2.0 * std::f64::consts::PI).ln();
        Some((v, jitter))
    };
    let Some((joint, jitter)) = lml(&k, &z) else {
        return (f64::INFINITY, 0.0);
    };
    let source_lml = if n == 0 {
        Some(0.0)
    } else {
        lml(&k.submatrix(0, n, 0, n), &z[..n]).map(|(v, _)| v)
    };
    match source_lml.map(|s| -(joint - s)) {
        Some(v) if !v.is_nan() => (v, jitter),
        _ => (f64::INFINITY, jitter),
    }
}

/// Reference ε-PAL decision pass: the O(P²·m) pairwise drop and promote
/// scans that `ppatuner::classify` ran before its orthant sweep, kept
/// verbatim except that [`delta_dominates`] stands in for its private
/// copy of the same comparison. `tests/classify_differential.rs` holds
/// the sweep to it.
///
/// Runs one decision pass over the candidates (Eqs. 11–12), in place.
///
/// For every undecided candidate `x`:
///
/// - **Drop** (Eq. 11) when some other active candidate `x'` satisfies
///   `max(U(x')) ≤ min(U(x)) + δ`: even `x'`'s worst case δ-dominates
///   `x`'s best case, so `x` cannot be needed for the front.
/// - **Promote** (Eq. 12) when *no* other active candidate `x'` satisfies
///   `min(U(x')) + δ ≤ max(U(x))` componentwise: no rival's best case can
///   beat `x`'s worst case by more than δ, so `x` is at most δ-worse than
///   any true Pareto point.
///
/// "Active" means `Undecided` or `Pareto` (dropped and quarantined
/// candidates no longer influence decisions). Promotion is checked after
/// dropping, as in Algorithm 1 (lines 8–9).
///
/// # Panics
///
/// Panics when `regions`, `statuses` lengths differ or `delta` does not
/// match the QoR dimension.
pub fn classify(
    regions: &[UncertaintyRegion],
    statuses: &mut [Status],
    delta: &[f64],
) -> DecisionOutcome {
    assert_eq!(regions.len(), statuses.len(), "classify: length mismatch");
    let n = regions.len();
    let mut outcome = DecisionOutcome::default();
    if n == 0 {
        return outcome;
    }
    assert_eq!(regions[0].dim(), delta.len(), "classify: delta dimension");

    // Pass 1: dropping (Eq. 11). Compare against the statuses as of the
    // start of the pass so the result does not depend on index order.
    // When two candidates δ-dominate each other (near-duplicates within
    // the slack), only the less preferred one drops: preference is the
    // smaller pessimistic-corner sum, then the smaller index.
    let before: Vec<Status> = statuses.to_vec();
    let prefer = |a: usize, b: usize| -> bool {
        let sa: f64 = regions[a].pessimistic().iter().sum();
        let sb: f64 = regions[b].pessimistic().iter().sum();
        match sa.partial_cmp(&sb) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => a < b,
        }
    };
    for i in 0..n {
        if before[i] != Status::Undecided {
            continue;
        }
        let opt_i = regions[i].optimistic();
        let dominated = (0..n).any(|j| {
            j != i
                && before[j].is_active()
                && delta_dominates(regions[j].pessimistic(), opt_i, delta)
                && !(delta_dominates(regions[i].pessimistic(), regions[j].optimistic(), delta)
                    && prefer(i, j))
        });
        if dominated {
            statuses[i] = Status::Dropped;
            outcome.dropped.push(i);
        }
    }

    // Pass 2: promotion (Eq. 12), against post-drop statuses.
    let after_drop: Vec<Status> = statuses.to_vec();
    for i in 0..n {
        if after_drop[i] != Status::Undecided {
            continue;
        }
        let pess_i = regions[i].pessimistic();
        let might_be_beaten = (0..n).any(|j| {
            j != i && after_drop[j].is_active() && {
                // x' might δ-dominate x: opt(x') + δ ≤ pess(x).
                regions[j]
                    .optimistic()
                    .iter()
                    .zip(pess_i)
                    .zip(delta)
                    .all(|((&oj, &pi), &d)| oj + d <= pi)
            }
        });
        if !might_be_beaten {
            statuses[i] = Status::Pareto;
            outcome.promoted.push(i);
        }
    }
    outcome
}

/// The right-looking blocked Cholesky schedule `linalg::Cholesky::new`
/// used before its left-looking row tiles: per 256-column panel, factor
/// the diagonal block, forward-solve the panel below it, then subtract
/// the panel's contribution from the trailing triangle four rows at a
/// time, through its own copy of the 32-lane `dot_unrolled`. Returns
/// the lower-triangular factor, or the first failing pivot as
/// [`LinalgError::NotPositiveDefinite`]. `tests/differential.rs` holds
/// the left-looking factor, pivots and jitters to it bit for bit.
///
/// # Panics
///
/// Panics when `a` is not square.
pub fn cholesky_right_looking(a: &Matrix) -> Result<Matrix, LinalgError> {
    const BLOCK: usize = 256;
    const TILE: usize = 4;
    assert!(a.is_square(), "cholesky_right_looking: square input");
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
    }
    let data = l.as_mut_slice();
    let mut k = 0;
    while k < n {
        let b = BLOCK.min(n - k);
        let kb = k + b;
        // Diagonal block: only the in-panel prefix is left to subtract.
        for i in k..kb {
            let (prev, cur) = data.split_at_mut(i * n);
            let row_i = &mut cur[..n];
            for j in k..i {
                let row_j = &prev[j * n..j * n + n];
                let s = row_i[j] - dot_unrolled(&row_i[k..j], &row_j[k..j]);
                row_i[j] = s / row_j[j];
            }
            let s = row_i[i] - dot_unrolled(&row_i[k..i], &row_i[k..i]);
            if !(s.is_finite() && s > 0.0) {
                return Err(LinalgError::NotPositiveDefinite { pivot: i, value: s });
            }
            row_i[i] = s.sqrt();
        }
        // Panel solve below the block.
        for i in kb..n {
            let (prev, cur) = data.split_at_mut(i * n);
            let row_i = &mut cur[..n];
            for j in k..kb {
                let row_j = &prev[j * n..j * n + n];
                let s = row_i[j] - dot_unrolled(&row_i[k..j], &row_j[k..j]);
                row_i[j] = s / row_j[j];
            }
        }
        // Trailing update, a tile of rows at a time over stack copies
        // of their panel segments.
        let mut i0 = kb;
        while i0 < n {
            let tile = TILE.min(n - i0);
            let mut segs = [[0.0f64; BLOCK]; TILE];
            for (t, seg) in segs[..tile].iter_mut().enumerate() {
                let r = (i0 + t) * n;
                seg[..b].copy_from_slice(&data[r + k..r + kb]);
            }
            let (prev, cur) = data.split_at_mut(i0 * n);
            for j in kb..i0 {
                let seg_j = &prev[j * n + k..j * n + kb];
                for t in 0..tile {
                    cur[t * n + j] -= dot_unrolled(&segs[t][..b], seg_j);
                }
            }
            for t in 0..tile {
                for u in 0..=t {
                    cur[t * n + i0 + u] -= dot_unrolled(&segs[t][..b], &segs[u][..b]);
                }
            }
            i0 += tile;
        }
        k = kb;
    }
    Ok(l)
}

/// The 32-accumulator inner product [`cholesky_right_looking`] was
/// written against: 32 lanes over the 32-multiple prefix, one 8-lane
/// pass over the rest of the 8-multiple, a pairwise fold 32 → 8, the
/// 8-lane pass merged, a fold to one, then a serial tail.
fn dot_unrolled(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let n32 = n & !31;
    let n8 = n & !7;
    let mut acc = [0.0f64; 32];
    for (ca, cb) in a[..n32].chunks_exact(32).zip(b[..n32].chunks_exact(32)) {
        for l in 0..32 {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut mid = [0.0f64; 8];
    for (ca, cb) in a[n32..n8].chunks_exact(8).zip(b[n32..n8].chunks_exact(8)) {
        for l in 0..8 {
            mid[l] += ca[l] * cb[l];
        }
    }
    for w in [16usize, 8] {
        for l in 0..w {
            acc[l] += acc[l + w];
        }
    }
    for l in 0..8 {
        acc[l] += mid[l];
    }
    for w in [4usize, 2, 1] {
        for l in 0..w {
            acc[l] += acc[l + w];
        }
    }
    let mut s = acc[0];
    for (x, y) in a[n8..].iter().zip(&b[n8..]) {
        s += x * y;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_front_matches_hand_example() {
        let pts = vec![
            vec![1.0, 4.0],
            vec![2.0, 2.0],
            vec![4.0, 1.0],
            vec![3.0, 3.0],
            vec![1.0, 4.0], // duplicate of index 0: dropped by dedup rule
        ];
        assert_eq!(pareto_front(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn reference_hypervolume_hand_cases() {
        assert!((hypervolume(&[vec![1.0, 1.0]], &[3.0, 4.0]) - 6.0).abs() < 1e-12);
        // Two overlapping boxes: 3 + 3 − 1.
        let hv = hypervolume(&[vec![1.0, 3.0], vec![3.0, 1.0]], &[4.0, 4.0]);
        assert!((hv - 5.0).abs() < 1e-12);
        // Dominated point changes nothing.
        let hv2 = hypervolume(
            &[vec![1.0, 3.0], vec![3.0, 1.0], vec![3.5, 3.5]],
            &[4.0, 4.0],
        );
        assert!((hv2 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn reference_adrs_and_epsilon_hand_cases() {
        let golden = vec![vec![2.0, 2.0]];
        let approx = vec![vec![2.2, 2.0]];
        assert!((adrs(&golden, &approx) - 0.1).abs() < 1e-12);
        assert!((epsilon_indicator(&golden, &approx) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn lambda_quadrature_matches_closed_form() {
        for &(a, b) in &[(1.0, 1.0), (0.5, 2.0), (2.0, 0.5), (0.2, 1.0), (3.0, 3.0)] {
            let cf = lambda_closed_form(a, b);
            let qd = lambda_by_quadrature(a, b);
            assert!(
                (cf - qd).abs() < 1e-6,
                "a={a} b={b}: closed {cf} vs quadrature {qd}"
            );
        }
    }

    #[test]
    fn nds_layers_partition_everything() {
        let pts: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![(i % 3) as f64, (i / 3) as f64])
            .collect();
        let fronts = non_dominated_sort(&pts);
        let mut all: Vec<usize> = fronts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
    }
}
