//! Property-based tests of parameter spaces, samplers, and the
//! bisection cell tree behind the adaptive candidate pool.

use doe::{CellTree, LatinHypercube, ParamDef, ParamSpace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_space() -> impl Strategy<Value = ParamSpace> {
    // 1-4 parameters with assorted kinds.
    prop::collection::vec(0u8..4, 1..5).prop_map(|kinds| {
        let defs = kinds
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let name = format!("p{i}");
                match k % 4 {
                    0 => ParamDef::float(&name, -1.0, 3.0).unwrap(),
                    1 => ParamDef::int(&name, 2, 9).unwrap(),
                    2 => ParamDef::enumeration(&name, &["a", "b", "c"]).unwrap(),
                    _ => ParamDef::boolean(&name),
                }
            })
            .collect();
        ParamSpace::new(defs).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn encode_decode_roundtrip_is_stable(space in arb_space(), seed in 0u64..1000) {
        // decode(encode(c)) == c for sampled configurations.
        let mut rng = StdRng::seed_from_u64(seed);
        for c in LatinHypercube::new().sample(&space, 10, &mut rng) {
            let z = space.encode(&c).unwrap();
            prop_assert!(z.iter().all(|&u| (0.0..=1.0).contains(&u)));
            let back = space.decode(&z).unwrap();
            // Floats may round; re-encoding must agree.
            let z2 = space.encode(&back).unwrap();
            for (a, b) in z.iter().zip(&z2) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn lhs_samples_are_valid_and_stratified(space in arb_space(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 12;
        let samples = LatinHypercube::new().sample(&space, n, &mut rng);
        prop_assert_eq!(samples.len(), n);
        for c in &samples {
            prop_assert!(space.validate(c).is_ok());
        }
        // Continuous axes are perfectly stratified.
        for (axis, def) in space.iter().enumerate() {
            if def.levels().is_none() {
                let mut hits = vec![0usize; n];
                for c in &samples {
                    let u = space.encode(c).unwrap()[axis];
                    hits[((u * n as f64) as usize).min(n - 1)] += 1;
                }
                prop_assert!(hits.iter().all(|&h| h == 1), "axis {axis}: {hits:?}");
            }
        }
    }

    #[test]
    fn cell_tree_is_an_exact_partition(
        coords in prop::collection::vec(
            prop::collection::vec(0.0f64..1.0, 2..=2), 1..10),
        split_picks in prop::collection::vec(0usize..1024, 0..8),
        queries in prop::collection::vec(
            prop::collection::vec(0.0f64..=1.0, 2..=2), 1..8),
    ) {
        let mut points = coords;
        let mut tree = CellTree::build(&[0.0, 0.0], &[1.0, 1.0], &points).unwrap();

        // Refine at arbitrary represented leaves.
        for pick in &split_picks {
            let leaves: Vec<usize> = tree
                .leaf_cells()
                .into_iter()
                .filter(|&c| tree.rep(c).is_some())
                .collect();
            let leaf = leaves[pick % leaves.len()];
            let rep = tree.rep(leaf).unwrap();
            if let Some(split) = tree.split(leaf, &points[rep].clone()) {
                let idx = points.len();
                points.push(split.new_center);
                tree.set_rep(split.new_child, idx);
            }
        }

        // Law 1: leaf volumes tile the root box exactly.
        let total: f64 = tree
            .leaf_cells()
            .iter()
            .map(|&c| {
                let (lo, hi) = tree.bounds(c);
                lo.iter().zip(hi).map(|(&l, &h)| h - l).product::<f64>()
            })
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "leaf volumes sum to {total}");

        // Law 2: every in-box point belongs to exactly one leaf under the
        // half-open containment rule (upper faces closed only at the
        // root boundary), and leaf_of agrees with it.
        for q in &queries {
            let claimed = tree.leaf_of(q);
            prop_assert!(claimed.is_some(), "in-box point must land in a leaf");
            let holders: Vec<usize> = tree
                .leaf_cells()
                .into_iter()
                .filter(|&c| {
                    let (lo, hi) = tree.bounds(c);
                    q.iter().enumerate().all(|(d, &v)| {
                        v >= lo[d] && (v < hi[d] || (hi[d] == 1.0 && v <= 1.0))
                    })
                })
                .collect();
            prop_assert_eq!(holders.len(), 1, "point {:?} held by {:?}", q, holders);
            prop_assert_eq!(claimed, Some(holders[0]));
        }

        // Law 3: every representative lies inside its own cell.
        for c in tree.leaf_cells() {
            if let Some(rep) = tree.rep(c) {
                prop_assert_eq!(
                    tree.leaf_of(&points[rep]),
                    Some(c),
                    "rep {} strayed from its leaf", rep
                );
            }
        }
    }
}
