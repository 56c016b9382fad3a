//! Property-based tests for the multi-objective utilities.

use pareto::dominance::{compare, dominates, Dominance};
use pareto::front::{crowding_distance, non_dominated_sort, pareto_front};
use pareto::hypervolume::{hypervolume, hypervolume_error, reference_point};
use pareto::metrics::adrs;
use proptest::prelude::*;

fn points_strategy(n: usize, d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.1f64..10.0, d), 1..=n)
}

proptest! {
    #[test]
    fn dominance_is_antisymmetric(a in prop::collection::vec(0.0f64..10.0, 3),
                                  b in prop::collection::vec(0.0f64..10.0, 3)) {
        let ab = compare(&a, &b);
        let ba = compare(&b, &a);
        match ab {
            Dominance::Dominates => prop_assert_eq!(ba, Dominance::DominatedBy),
            Dominance::DominatedBy => prop_assert_eq!(ba, Dominance::Dominates),
            Dominance::Equal => prop_assert_eq!(ba, Dominance::Equal),
            Dominance::Incomparable => prop_assert_eq!(ba, Dominance::Incomparable),
        }
    }

    #[test]
    fn front_members_are_mutually_incomparable(pts in points_strategy(20, 2)) {
        let idx = pareto_front(&pts);
        for (k, &i) in idx.iter().enumerate() {
            for &j in &idx[k + 1..] {
                prop_assert!(!dominates(&pts[i], &pts[j]));
                prop_assert!(!dominates(&pts[j], &pts[i]));
            }
        }
    }

    #[test]
    fn every_non_front_point_is_dominated(pts in points_strategy(20, 3)) {
        let idx = pareto_front(&pts);
        for i in 0..pts.len() {
            if idx.contains(&i) {
                continue;
            }
            let covered = idx.iter().any(|&j| dominates(&pts[j], &pts[i]))
                || idx.iter().any(|&j| j < i && pts[j] == pts[i]);
            prop_assert!(covered, "point {i} neither dominated nor duplicate");
        }
    }

    #[test]
    fn nds_first_front_is_pareto_front(pts in points_strategy(15, 2)) {
        let fronts = non_dominated_sort(&pts);
        let mut f0 = fronts[0].clone();
        f0.sort_unstable();
        prop_assert_eq!(f0, pareto_front(&pts));
    }

    #[test]
    fn hypervolume_is_monotone_in_set_inclusion(pts in points_strategy(12, 2)) {
        let r = reference_point(&pts, 1.2).unwrap();
        let partial = &pts[..pts.len().max(1)].to_vec(); // full set
        let hv_full = hypervolume(partial, &r).unwrap();
        let hv_sub = hypervolume(&pts[..1.max(pts.len() / 2)], &r).unwrap();
        prop_assert!(hv_sub <= hv_full + 1e-9, "sub {hv_sub} > full {hv_full}");
    }

    #[test]
    fn hypervolume_nonnegative_and_bounded(pts in points_strategy(10, 3)) {
        let r = reference_point(&pts, 1.5).unwrap();
        let hv = hypervolume(&pts, &r).unwrap();
        prop_assert!(hv >= 0.0);
        // Bounded by the total reference box from the ideal corner.
        let ideal: Vec<f64> = (0..3)
            .map(|j| pts.iter().map(|p| p[j]).fold(f64::INFINITY, f64::min))
            .collect();
        let bound: f64 = ideal.iter().zip(&r).map(|(&i, &rr)| (rr - i).max(0.0)).product();
        prop_assert!(hv <= bound + 1e-9);
    }

    #[test]
    fn hv_error_of_self_is_zero(pts in points_strategy(10, 2)) {
        let r = reference_point(&pts, 1.2).unwrap();
        if hypervolume(&pts, &r).unwrap() > 0.0 {
            let e = hypervolume_error(&pts, &pts, &r).unwrap();
            prop_assert!(e.abs() < 1e-9);
        }
    }

    #[test]
    fn adrs_nonnegative_and_zero_on_superset(pts in points_strategy(8, 2)) {
        let golden = pareto_front(&pts)
            .into_iter()
            .map(|i| pts[i].clone())
            .collect::<Vec<_>>();
        let v = adrs(&golden, &pts).unwrap();
        prop_assert!(v.abs() < 1e-12);
        let single = vec![pts[0].clone()];
        let v2 = adrs(&golden, &single).unwrap();
        prop_assert!(v2 >= -1e-12);
    }

    #[test]
    fn crowding_lengths_match(pts in points_strategy(12, 2)) {
        prop_assert_eq!(crowding_distance(&pts).len(), pts.len());
    }
}
