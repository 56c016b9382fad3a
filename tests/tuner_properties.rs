//! Property-based tests of the tuner's invariants on randomized toy
//! landscapes.

use ppatuner::{PpaTuner, PpaTunerConfig, SourceData, VecOracle};
use proptest::prelude::*;

/// Strategy: a random bi-objective landscape over 1-D candidates with
/// values in (0, 3).
fn landscape(n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec((0.05f64..3.0, 0.05f64..3.0), n)
        .prop_map(|pts| pts.into_iter().map(|(a, b)| vec![a, b]).collect())
}

/// Derives the tuner seed from the workspace-wide base seed
/// ([`testkit::test_seed`]) and the case's salt, so every randomized test
/// reseeds through the same helper instead of ad-hoc constants.
fn quick_config(salt: u64) -> PpaTunerConfig {
    PpaTunerConfig {
        initial_samples: 6,
        max_iterations: 8,
        refit_every: 10,
        fit_budget: gp::optimize::FitBudget {
            restarts: 1,
            evals_per_restart: 40,
        },
        workers: 1,
        seed: testkit::test_seed() ^ salt,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn final_set_is_mutually_nondominated(truth in landscape(24), seed in 0u64..50) {
        let candidates: Vec<Vec<f64>> =
            (0..truth.len()).map(|i| vec![i as f64 / 23.0]).collect();
        let mut oracle = VecOracle::new(truth.clone());
        let result = PpaTuner::new(quick_config(seed))
            .run(&SourceData::empty(), &candidates, &mut oracle)
            .unwrap();
        prop_assert!(!result.pareto_indices.is_empty());
        for &i in &result.pareto_indices {
            for &j in &result.pareto_indices {
                if i != j {
                    prop_assert!(!pareto::dominance::dominates(&truth[i], &truth[j]));
                }
            }
        }
    }

    #[test]
    fn runs_are_bounded_by_budget(truth in landscape(20), seed in 0u64..50) {
        let candidates: Vec<Vec<f64>> =
            (0..truth.len()).map(|i| vec![i as f64 / 19.0]).collect();
        let mut oracle = VecOracle::new(truth);
        let cfg = quick_config(seed);
        let budget = cfg.initial_samples + cfg.max_iterations * cfg.batch_size;
        let result = PpaTuner::new(cfg)
            .run(&SourceData::empty(), &candidates, &mut oracle)
            .unwrap();
        prop_assert!(result.runs <= budget, "runs {} > budget {budget}", result.runs);
        prop_assert_eq!(result.runs, result.evaluated.len());
    }

    #[test]
    fn final_set_covers_the_best_measured_point(truth in landscape(20), seed in 0u64..50) {
        // The measured front is always folded into the final set, so the
        // scalarization-best measured point must be weakly covered.
        let candidates: Vec<Vec<f64>> =
            (0..truth.len()).map(|i| vec![i as f64 / 19.0]).collect();
        let mut oracle = VecOracle::new(truth.clone());
        let result = PpaTuner::new(quick_config(seed))
            .run(&SourceData::empty(), &candidates, &mut oracle)
            .unwrap();
        let best_measured = result
            .evaluated
            .iter()
            .min_by(|a, b| {
                (a.1[0] + a.1[1])
                    .partial_cmp(&(b.1[0] + b.1[1]))
                    .unwrap()
            })
            .map(|(i, _)| *i)
            .unwrap();
        let covered = result.pareto_indices.iter().any(|&i| {
            i == best_measured
                || pareto::dominance::weakly_dominates(&truth[i], &truth[best_measured])
        });
        prop_assert!(covered, "best measured point neither kept nor dominated");
    }
}
