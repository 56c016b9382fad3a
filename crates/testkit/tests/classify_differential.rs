//! Differential fuzz: `ppatuner::classify`'s orthant sweep against the
//! O(P²) pairwise reference (`testkit::reference::classify`), exactly.
//!
//! Every case runs a few decision passes on shrinking boxes, carrying the
//! statuses from pass to pass as the tuner does, and after each pass the
//! statuses and the `DecisionOutcome` (which indices dropped and promoted,
//! in order) must be equal. The generator over-samples what the sweep has
//! to get right beyond the plain orthant query:
//!
//! - tie-heavy corners snapped to a coarse grid, so sort keys collide;
//! - exact duplicate boxes and clusters of mutual near-duplicates within
//!   δ, which the `prefer` tie-break (smaller pessimistic sum, then
//!   smaller index) decides;
//! - point boxes, fully unbounded boxes and half-unbounded coordinates;
//! - δ = 0 and zero-width coordinates;
//! - `Undecided`, `Pareto`, `Dropped` and `Quarantined` inputs.
//!
//! The `#[ignore]`d cases run pool-sized problems (P = 2000 and 5000,
//! m ∈ {1, 2, 3}, so each sweep path has one: the running minimum for
//! m ≤ 2 and the Fenwick tree for m = 3);
//! CI runs them with `cargo test --release -p testkit -- --include-ignored`.

use ppatuner::{classify, Status, UncertaintyRegion};
use rand::rngs::StdRng;
use rand::Rng;
use testkit::gen::case_rng;
use testkit::reference;

/// One random classification problem: the boxes of every pass share a
/// centre and shrink pass by pass.
struct Case {
    centres: Vec<Vec<f64>>,
    widths: Vec<Vec<f64>>,
    statuses: Vec<Status>,
    delta: Vec<f64>,
    tie_heavy: bool,
}

fn snap(v: f64) -> f64 {
    (v * 4.0).round() / 4.0
}

fn draw_case(rng: &mut StdRng, m: usize) -> Case {
    let n = rng.gen_range(0..28usize);
    let tie_heavy = rng.gen_bool(0.4);
    // A single unbounded rival blocks every promotion, so only some cases
    // carry them.
    let unbounded = rng.gen_bool(0.3);
    let q = |v: f64| if tie_heavy { snap(v) } else { v };
    let delta: Vec<f64> = if rng.gen_bool(0.25) {
        vec![0.0; m]
    } else {
        (0..m).map(|_| q(rng.gen_range(0.0..0.4))).collect()
    };
    let mut centres: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..m).map(|_| q(rng.gen_range(-2.0..2.0))).collect())
        .collect();
    let mut widths: Vec<Vec<f64>> = (0..n)
        .map(|_| match rng.gen_range(0..10u32) {
            // A point box: an evaluated candidate.
            0 | 1 => vec![0.0; m],
            // Fully unbounded: not yet predicted.
            2 if unbounded => vec![f64::INFINITY; m],
            _ => (0..m)
                .map(|_| match rng.gen_range(0..12u32) {
                    0 => 0.0,
                    1 if unbounded => f64::INFINITY,
                    _ => q(rng.gen_range(0.0..1.5)),
                })
                .collect(),
        })
        .collect();
    if n >= 2 {
        // Exact duplicates: same centre, same widths.
        for _ in 0..rng.gen_range(0..=n / 4) {
            let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
            centres[dst] = centres[src].clone();
            widths[dst] = widths[src].clone();
        }
        // A cluster of mutual near-duplicates within δ/2 of one centre,
        // so every pair δ-dominates the other and `prefer` decides.
        if rng.gen_bool(0.5) {
            let src = rng.gen_range(0..n);
            let narrow: Vec<f64> = delta.iter().map(|d| 0.25 * d).collect();
            for _ in 0..rng.gen_range(2..6usize) {
                let dst = rng.gen_range(0..n);
                centres[dst] = centres[src]
                    .iter()
                    .zip(&delta)
                    .map(|(&c, &d)| c + rng.gen_range(-0.25..=0.25) * d)
                    .collect();
                widths[dst] = narrow.clone();
            }
        }
    }
    let statuses = (0..n)
        .map(|_| match rng.gen_range(0..10u32) {
            0 => Status::Dropped,
            1 => Status::Quarantined,
            2 => Status::Pareto,
            _ => Status::Undecided,
        })
        .collect();
    Case {
        centres,
        widths,
        statuses,
        delta,
        tie_heavy,
    }
}

/// The boxes of pass `pass`: each half-width scaled by `shrink^pass`.
fn regions_at(case: &Case, pass: i32, shrink: f64) -> Vec<UncertaintyRegion> {
    let scale = shrink.powi(pass);
    case.centres
        .iter()
        .zip(&case.widths)
        .map(|(c, w)| {
            if w.iter().all(|&w| w == 0.0) {
                return UncertaintyRegion::point(c);
            }
            let half: Vec<f64> = w
                .iter()
                .map(|&w| {
                    let h = 0.5 * w * scale;
                    if case.tie_heavy {
                        snap(h)
                    } else {
                        h
                    }
                })
                .collect();
            let lo: Vec<f64> = c.iter().zip(&half).map(|(c, h)| c - h).collect();
            let hi: Vec<f64> = c.iter().zip(&half).map(|(c, h)| c + h).collect();
            let mut u = UncertaintyRegion::unbounded(c.len());
            u.intersect(&lo, &hi);
            u
        })
        .collect()
}

/// Runs `passes` decision passes through both implementations and
/// asserts that they agree after each one.
fn assert_agrees(case: &Case, passes: i32, shrink: f64, label: &str) {
    let mut fast = case.statuses.clone();
    let mut slow = case.statuses.clone();
    for pass in 0..passes {
        let regions = regions_at(case, pass, shrink);
        let got = classify(&regions, &mut fast, &case.delta);
        let want = reference::classify(&regions, &mut slow, &case.delta);
        // Name the first diverging candidate: at pool scale the whole
        // vectors are too long to read.
        if let Some(i) = (0..fast.len()).find(|&i| fast[i] != slow[i]) {
            panic!(
                "{label} pass {pass}: candidate {i} is {:?}, reference {:?}",
                fast[i], slow[i]
            );
        }
        assert_eq!(got, want, "{label} pass {pass}: outcome");
    }
}

fn run_suite(m: usize, cases: u64) {
    for case in 0..cases {
        let mut rng = case_rng(testkit::test_seed() ^ (m as u64) << 32, case);
        let c = draw_case(&mut rng, m);
        assert_agrees(&c, 3, 0.5, &format!("m={m} case {case}"));
    }
}

#[test]
fn sweep_matches_pairwise_reference_m1() {
    run_suite(1, 1200);
}

#[test]
fn sweep_matches_pairwise_reference_m2() {
    run_suite(2, 1200);
}

#[test]
fn sweep_matches_pairwise_reference_m3() {
    run_suite(3, 1200);
}

#[test]
fn sweep_matches_pairwise_reference_m4() {
    run_suite(4, 1200);
}

#[test]
fn fuzz_exercises_drops_promotions_and_the_tie_break() {
    // Guards the generator: a suite whose cases never drop, never
    // promote, or never reach a mutual-δ tie would pass vacuously.
    let (mut dropped, mut promoted, mut mutual) = (0, 0, 0);
    for case in 0..400u64 {
        let mut rng = case_rng(testkit::test_seed() ^ 2 << 32, case);
        let c = draw_case(&mut rng, 2);
        let mut statuses = c.statuses.clone();
        for pass in 0..3 {
            let regions = regions_at(&c, pass, 0.5);
            let leq = |a: &[f64], b: &[f64]| reference::delta_dominates(a, b, &c.delta);
            for i in 0..regions.len() {
                for j in 0..i {
                    let (ri, rj) = (&regions[i], &regions[j]);
                    if statuses[i] == Status::Undecided
                        && statuses[j].is_active()
                        && leq(ri.pessimistic(), rj.optimistic())
                        && leq(rj.pessimistic(), ri.optimistic())
                    {
                        mutual += 1;
                    }
                }
            }
            let out = classify(&regions, &mut statuses, &c.delta);
            dropped += out.dropped.len();
            promoted += out.promoted.len();
        }
    }
    assert!(dropped > 1000, "only {dropped} drops");
    assert!(promoted > 250, "only {promoted} promotions");
    assert!(mutual > 200, "only {mutual} mutual-δ pairs");
}

/// A pool-like problem: `p` candidates around a concave front in
/// `[0, 1]^m`, with predicted boxes a few percent of the range wide,
/// a tenth of them evaluated (point boxes), and δ = 1 % of the range.
fn pool_case(rng: &mut StdRng, p: usize, m: usize) -> Case {
    let centres = (0..p)
        .map(|_| {
            let u: Vec<f64> = (0..m).map(|_| rng.gen_range(0.05..1.0)).collect();
            let norm = u.iter().map(|v| v * v).sum::<f64>().sqrt();
            let lift = rng.gen_range(0.0..0.4);
            u.iter().map(|v| v / norm + lift).collect()
        })
        .collect();
    let widths = (0..p)
        .map(|_| {
            if rng.gen_bool(0.1) {
                vec![0.0; m]
            } else {
                (0..m).map(|_| rng.gen_range(0.005..0.08)).collect()
            }
        })
        .collect();
    Case {
        centres,
        widths,
        statuses: vec![Status::Undecided; p],
        delta: vec![0.01; m],
        tie_heavy: false,
    }
}

fn run_pool_suite(p: usize) {
    for m in [1, 2, 3] {
        for case in 0..3u64 {
            let mut rng = case_rng(testkit::test_seed() ^ p as u64, case * 8 + m as u64);
            let c = pool_case(&mut rng, p, m);
            assert_agrees(&c, 4, 0.6, &format!("P={p} m={m} case {case}"));
        }
    }
}

#[test]
#[ignore = "pool-scale differential, run via --include-ignored"]
fn sweep_matches_pairwise_reference_at_p2000() {
    run_pool_suite(2000);
}

#[test]
#[ignore = "pool-scale differential, run via --include-ignored"]
fn sweep_matches_pairwise_reference_at_p5000() {
    run_pool_suite(5000);
}
