//! Deterministic fuzz-input generators for the differential suites.
//!
//! Every generator takes an explicit [`rand::rngs::StdRng`], seeded from
//! [`crate::test_seed`] by the callers, so a failing case is reproducible
//! from its case index alone. Generators deliberately over-sample the
//! nasty corners (exact duplicates, points pinned to the reference
//! boundary, near-singular GP designs) that a plain uniform sampler would
//! almost never hit.

use gp::{TaskData, TransferGpConfig};
use rand::rngs::StdRng;
use rand::Rng;

/// A fresh generator for fuzz case `case` of the suite seeded by `seed`.
///
/// Mixing the case index into the seed (instead of drawing cases from one
/// shared stream) means any single failing case can be re-run in
/// isolation.
pub fn case_rng(seed: u64, case: u64) -> StdRng {
    use rand::SeedableRng;
    StdRng::seed_from_u64(seed ^ case.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

/// A random objective-space point set: `n` points in `dim` dimensions,
/// coordinates uniform in `[0, 1)`. With probability ~1/2 the set is then
/// salted with degenerate structure: exact duplicates of earlier points
/// and coordinates snapped to other points' values (ties).
pub fn point_set(rng: &mut StdRng, n: usize, dim: usize) -> Vec<Vec<f64>> {
    let mut pts: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
        .collect();
    if n >= 2 && rng.gen_bool(0.5) {
        let dupes = rng.gen_range(1..=(n / 2).max(1));
        for _ in 0..dupes {
            let src = rng.gen_range(0..pts.len());
            let dst = rng.gen_range(0..pts.len());
            if rng.gen_bool(0.5) {
                pts[dst] = pts[src].clone();
            } else {
                let j = rng.gen_range(0..dim);
                pts[dst][j] = pts[src][j];
            }
        }
    }
    pts
}

/// A point set plus a hypervolume reference point. The reference sits
/// beyond the unit cube most of the time, but with probability ~1/3 some
/// points are snapped *onto* the reference boundary in one coordinate
/// (zero-width slabs) and occasionally pushed beyond it (clamped to zero
/// contribution), the documented degenerate cases of Eq. 2.
pub fn point_set_with_reference(
    rng: &mut StdRng,
    n: usize,
    dim: usize,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut pts = point_set(rng, n, dim);
    let reference: Vec<f64> = (0..dim).map(|_| 1.0 + rng.gen_range(0.0..0.5)).collect();
    if rng.gen_bool(1.0 / 3.0) && !pts.is_empty() {
        let salted = rng.gen_range(1..=pts.len());
        for _ in 0..salted {
            let i = rng.gen_range(0..pts.len());
            let j = rng.gen_range(0..dim);
            pts[i][j] = if rng.gen_bool(0.25) {
                reference[j] + rng.gen_range(0.0..0.3)
            } else {
                reference[j]
            };
        }
    }
    (pts, reference)
}

/// A golden/approx front pair for the ADRS differential.
/// Coordinates are bounded away from zero (ADRS divides by the golden
/// coordinates), and the approx set is a jittered resample of the golden
/// set so the metrics exercise their interesting (small-deviation) regime.
pub fn front_pair(rng: &mut StdRng, dim: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let n_golden = rng.gen_range(1..=8usize);
    let n_approx = rng.gen_range(1..=8usize);
    let golden: Vec<Vec<f64>> = (0..n_golden)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.2..2.0)).collect())
        .collect();
    let approx: Vec<Vec<f64>> = (0..n_approx)
        .map(|_| {
            let base = &golden[rng.gen_range(0..n_golden)];
            base.iter()
                .map(|&v| (v + rng.gen_range(-0.15..0.15)).max(0.05))
                .collect()
        })
        .collect();
    (golden, approx)
}

/// A random transfer-GP fitting problem: source and target tasks drawn
/// from noisy trigonometric surfaces over the unit cube, plus a
/// well-conditioned hyper-parameter configuration (noise floors ≥ 1e-4 so
/// the fast path's Cholesky succeeds without jitter escalation in
/// practice). Source is empty ~1/4 of the time to cover the no-transfer
/// degenerate case.
pub fn gp_problem(rng: &mut StdRng, dim: usize) -> (TaskData, TaskData, TransferGpConfig) {
    let surface = |x: &[f64], phase: f64| -> f64 {
        x.iter()
            .enumerate()
            .map(|(j, &v)| ((2.0 + j as f64) * v + phase).sin())
            .sum::<f64>()
    };
    let phase = rng.gen_range(0.0..3.0);
    let scale = rng.gen_range(0.5..20.0);
    let offset = rng.gen_range(-5.0..5.0);
    fn draw_task(
        rng: &mut StdRng,
        dim: usize,
        count: usize,
        task_phase: f64,
        task_scale: f64,
        offset: f64,
        surface: impl Fn(&[f64], f64) -> f64,
    ) -> TaskData {
        let x: Vec<Vec<f64>> = (0..count)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|p| task_scale * surface(p, task_phase) + offset + rng.gen_range(-0.05..0.05))
            .collect();
        TaskData::new(x, y)
    }
    let n_source = if rng.gen_bool(0.25) {
        0
    } else {
        rng.gen_range(2..=10usize)
    };
    let source = draw_task(rng, dim, n_source, phase, scale, offset, surface);
    let n_target = rng.gen_range(2..=8usize);
    let target = draw_task(
        rng,
        dim,
        n_target,
        phase + 0.3,
        scale * 1.5,
        offset,
        surface,
    );
    let config = TransferGpConfig {
        lengthscales: (0..dim).map(|_| rng.gen_range(0.2..1.0)).collect(),
        signal_var: rng.gen_range(0.5..2.0),
        lambda: rng.gen_range(-0.9..=1.0f64).min(1.0),
        noise_source: rng.gen_range(1e-4..1e-2),
        noise_target: rng.gen_range(1e-4..1e-2),
    };
    (source, target, config)
}

/// Query points for a fitted GP: a mix of fresh uniform draws and exact
/// copies of training inputs (where the posterior is most sensitive to
/// factorization differences).
pub fn gp_queries(rng: &mut StdRng, train: &TaskData, dim: usize, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| {
            if !train.x.is_empty() && rng.gen_bool(0.3) {
                train.x[rng.gen_range(0..train.x.len())].clone()
            } else {
                (0..dim).map(|_| rng.gen::<f64>()).collect()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_rngs_are_deterministic_and_case_sensitive() {
        let a: Vec<f64> = {
            let mut r = case_rng(1, 2);
            (0..4).map(|_| r.gen::<f64>()).collect()
        };
        let b: Vec<f64> = {
            let mut r = case_rng(1, 2);
            (0..4).map(|_| r.gen::<f64>()).collect()
        };
        let c: Vec<f64> = {
            let mut r = case_rng(1, 3);
            (0..4).map(|_| r.gen::<f64>()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generators_respect_shapes() {
        let mut rng = case_rng(crate::test_seed(), 0);
        let pts = point_set(&mut rng, 7, 3);
        assert_eq!(pts.len(), 7);
        assert!(pts.iter().all(|p| p.len() == 3));
        let (pts, reference) = point_set_with_reference(&mut rng, 5, 2);
        assert_eq!(pts.len(), 5);
        assert_eq!(reference.len(), 2);
        let (source, target, config) = gp_problem(&mut rng, 2);
        assert_eq!(config.lengthscales.len(), 2);
        assert!(!target.is_empty());
        assert!(source.x.len() == source.y.len());
        let queries = gp_queries(&mut rng, &target, 2, 6);
        assert_eq!(queries.len(), 6);
    }
}
