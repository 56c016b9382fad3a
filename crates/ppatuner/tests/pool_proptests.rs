//! Property-based tests of the adaptive candidate pool: refinement must
//! grow the pool strictly by appending — it never rewrites existing
//! candidates and never splits a cell whose representative has already
//! been decided (so a dropped or quarantined configuration can never be
//! resurrected by the pool). The pool's maintained leaf state (live
//! leaves, their diameters, the count and the effective pool size) must
//! equal a fresh rescan of its tree after any sequence of passes.

use ppatuner::{AdaptivePool, Status, UncertaintyRegion};
use proptest::prelude::*;

fn arb_status() -> impl Strategy<Value = Status> {
    (0u8..4).prop_map(|k| match k {
        0 => Status::Undecided,
        1 => Status::Pareto,
        2 => Status::Dropped,
        _ => Status::Quarantined,
    })
}

/// A finite uncertainty region of the given half-width, centered at 0.
fn region(half_width: f64) -> UncertaintyRegion {
    let mut r = UncertaintyRegion::unbounded(2);
    r.intersect(&[-half_width, -half_width], &[half_width, half_width]);
    r
}

/// Asserts that the pool's maintained leaves, leaf count and effective
/// pool size equal a rescan of its tree, bit for bit.
fn assert_matches_rescan(pool: &AdaptivePool) -> Result<(), TestCaseError> {
    let tree = pool.tree();
    let mut kept: Vec<(usize, Option<usize>, u64)> = pool
        .leaves()
        .iter()
        .map(|l| (l.cell, l.rep, l.diameter.to_bits()))
        .collect();
    kept.sort_unstable();
    let scanned: Vec<(usize, Option<usize>, u64)> = tree
        .leaf_cells()
        .into_iter()
        .map(|c| (c, tree.rep(c), tree.diameter(c).to_bits()))
        .collect();
    prop_assert_eq!(kept, scanned);
    prop_assert_eq!(pool.leaf_count(), tree.leaf_count());
    prop_assert_eq!(
        pool.effective_pool().to_bits(),
        tree.effective_pool().to_bits()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn refinement_appends_and_never_resurrects(
        coords in prop::collection::vec(
            prop::collection::vec(0.0f64..1.0, 2..=2), 1..10),
        statuses in prop::collection::vec(arb_status(), 10),
        widths in prop::collection::vec(0.0f64..50.0, 10),
        ceiling in 1.0f64..120.0,
        max_refines in 1usize..6,
    ) {
        let n = coords.len();
        let statuses = statuses[..n].to_vec();
        let regions: Vec<UncertaintyRegion> =
            widths[..n].iter().map(|&w| region(w)).collect();

        let mut candidates = coords.clone();
        let mut pool = AdaptivePool::new(&candidates).unwrap();
        let leaves_before = pool.leaf_count();
        let out = pool.refine(
            &mut candidates, &regions, &statuses, 0.5, ceiling, max_refines, 64);

        // Growth is append-only: the original candidates are untouched.
        prop_assert_eq!(&candidates[..n], &coords[..]);
        prop_assert_eq!(candidates.len(), n + out.splits);
        prop_assert_eq!(out.leaves, leaves_before + out.splits);
        prop_assert!(out.splits <= max_refines);

        // Splits can only come from active representatives whose region
        // diameter sits below the prior-dominated ceiling.
        let eligible = statuses
            .iter()
            .zip(&regions)
            .filter(|(s, r)| s.is_active() && r.diameter() < ceiling)
            .count();
        prop_assert!(out.splits <= eligible.min(max_refines));

        // A zero ceiling admits no leaf at all: refinement is a no-op
        // regardless of status or uncertainty.
        let mut frozen_c = coords.clone();
        let mut pool_c = AdaptivePool::new(&frozen_c).unwrap();
        let out_c = pool_c.refine(
            &mut frozen_c, &regions, &statuses, 0.5, 0.0, max_refines, 64);
        prop_assert_eq!(out_c.splits, 0);
        prop_assert_eq!(&frozen_c[..], &coords[..]);

        // With every candidate decided, refinement is a no-op: nothing
        // appended, no cell split — a decided candidate stays decided.
        let decided: Vec<Status> = statuses
            .iter()
            .map(|s| match s {
                Status::Quarantined => Status::Quarantined,
                _ => Status::Dropped,
            })
            .collect();
        let mut frozen = coords.clone();
        let mut pool2 = AdaptivePool::new(&frozen).unwrap();
        let out2 = pool2.refine(
            &mut frozen, &regions, &decided, 0.5, f64::INFINITY, max_refines, 64);
        prop_assert_eq!(out2.splits, 0);
        prop_assert_eq!(&frozen[..], &coords[..]);
        prop_assert_eq!(pool2.leaf_count(), leaves_before);
    }

    #[test]
    fn refinement_is_deterministic_for_any_input(
        coords in prop::collection::vec(
            prop::collection::vec(0.0f64..1.0, 2..=2), 1..8),
        widths in prop::collection::vec(0.0f64..20.0, 8),
    ) {
        let n = coords.len();
        let statuses = vec![Status::Undecided; n];
        let regions: Vec<UncertaintyRegion> =
            widths[..n].iter().map(|&w| region(w)).collect();
        let run = || {
            let mut candidates = coords.clone();
            let mut pool = AdaptivePool::new(&candidates).unwrap();
            let out = pool.refine(
                &mut candidates, &regions, &statuses, 0.5, f64::INFINITY, 4, 64);
            (candidates, out.splits, out.leaves)
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn maintained_leaves_match_a_rescan_of_the_tree(
        dim in 1usize..=4,
        seeds in prop::collection::vec(0.0f64..1.0, 4..=160),
        passes in prop::collection::vec(
            (prop::collection::vec((0u8..8, 0.0f64..30.0), 48), 0.05f64..2.0, 1usize..24),
            1..=8),
    ) {
        let coords: Vec<Vec<f64>> = seeds.chunks_exact(dim).map(<[f64]>::to_vec).collect();
        let mut candidates = coords;
        let mut pool = AdaptivePool::new(&candidates).unwrap();
        assert_matches_rescan(&pool)?;
        for (draws, scale, max_refines) in passes {
            // Statuses and region widths for every candidate, appended
            // ones included, cycled from this pass's draws; most are
            // undecided so that passes split.
            let (statuses, regions): (Vec<Status>, Vec<UncertaintyRegion>) = (0..candidates.len())
                .map(|i| {
                    let (s, w) = draws[i % draws.len()];
                    let status = match s {
                        0 => Status::Pareto,
                        1 => Status::Dropped,
                        _ => Status::Undecided,
                    };
                    (status, region(w))
                })
                .unzip();
            let before = candidates.len();
            let out = pool.refine(
                &mut candidates, &regions, &statuses, scale, 50.0, max_refines, 4000);
            prop_assert_eq!(candidates.len(), before + out.splits);
            prop_assert_eq!(out.leaves, pool.tree().leaf_count());
            prop_assert_eq!(out.effective_pool.to_bits(), pool.tree().effective_pool().to_bits());
            assert_matches_rescan(&pool)?;
        }
    }
}
