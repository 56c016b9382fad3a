//! Workspace integration tests: the full pipeline from netlist generation
//! through benchmark construction, tuning, and metric evaluation.

use benchgen::{Benchmark, BenchmarkId, Scenario};
use pdsim::{Design, ObjectiveSpace, PdFlow, ToolParams};
use ppatuner::{PpaTuner, PpaTunerConfig, SourceData, VecOracle};

/// A reduced-scale Scenario Two shared by several tests.
fn small_scenario() -> Scenario {
    Scenario::two_with_counts(9, 120, 100).with_source_budget(60)
}

#[test]
fn benchmarks_feed_the_tuner_end_to_end() {
    let scenario = small_scenario();
    let space = ObjectiveSpace::PowerDelay;
    let candidates = scenario.target_candidates();
    let table = scenario.target_table(space);
    let (sx, sy) = scenario.source_xy(space);
    let source = SourceData::new(sx, sy).expect("consistent source");

    let mut oracle = VecOracle::new(table.clone());
    let config = PpaTunerConfig {
        initial_samples: 10,
        max_iterations: 10,
        seed: testkit::test_seed(),
        ..Default::default()
    };
    let result = PpaTuner::new(config)
        .run(&source, &candidates, &mut oracle)
        .expect("tuning succeeds");

    assert!(!result.pareto_indices.is_empty());
    assert!(result.runs <= 20);
    // The final set must be mutually non-dominated in golden values.
    for &i in &result.pareto_indices {
        for &j in &result.pareto_indices {
            if i != j {
                assert!(
                    !pareto::dominance::dominates(&table[i], &table[j]),
                    "{i} dominates {j} in the final set"
                );
            }
        }
    }
}

/// Tool runs are deterministic per seed, so a change in any of the three
/// counts is a change in the tuner's behaviour. The scenario is large
/// enough that the loop iterates past a refit and verifies candidates.
#[test]
fn tool_runs_are_pinned_on_a_looping_scenario() {
    let scenario = Scenario::two_with_counts(7, 200, 200).with_source_budget(60);
    let space = ObjectiveSpace::PowerDelay;
    let (sx, sy) = scenario.source_xy(space);
    let source = SourceData::new(sx, sy).expect("consistent source");
    let mut oracle = VecOracle::new(scenario.target_table(space));
    let config = PpaTunerConfig {
        initial_samples: 24,
        max_iterations: 12,
        refit_every: 8,
        seed: 7,
        ..Default::default()
    };
    let result = PpaTuner::new(config)
        .run(&source, &scenario.target_candidates(), &mut oracle)
        .expect("tuning succeeds");
    assert_eq!(result.runs, 36);
    assert_eq!(result.verification_runs, 9);
    assert_eq!(result.iterations, 12);
}

#[test]
fn tuning_beats_random_search_on_average() {
    let scenario = small_scenario();
    let space = ObjectiveSpace::AreaPowerDelay;
    let candidates = scenario.target_candidates();
    let table = scenario.target_table(space);
    let golden = scenario.target().golden_front(space);
    let reference = pareto::hypervolume::reference_point(&table, 1.1).expect("ref");
    let (sx, sy) = scenario.source_xy(space);
    let source = SourceData::new(sx, sy).expect("source");

    let hv_of = |indices: &[usize]| {
        let pts: Vec<Vec<f64>> = indices.iter().map(|&i| table[i].clone()).collect();
        pareto::hypervolume::hypervolume_error(&golden, &pts, &reference).expect("hv")
    };

    let mut tuner_sum = 0.0;
    let mut random_sum = 0.0;
    let seeds = testkit::test_seeds(3);
    for &seed in &seeds {
        let mut oracle = VecOracle::new(table.clone());
        let config = PpaTunerConfig {
            initial_samples: 10,
            max_iterations: 12,
            seed,
            ..Default::default()
        };
        let r = PpaTuner::new(config)
            .run(&source, &candidates, &mut oracle)
            .expect("tuning succeeds");
        tuner_sum += hv_of(&r.pareto_indices);

        let mut oracle = VecOracle::new(table.clone());
        let rs = baselines::RandomSearch::new(22, seed)
            .tune(&candidates, &mut oracle)
            .expect("random search");
        random_sum += hv_of(&rs.pareto_indices);
    }
    assert!(
        tuner_sum <= random_sum + 1e-9,
        "tuner mean HV {} should not lose to random {}",
        tuner_sum / seeds.len() as f64,
        random_sum / seeds.len() as f64
    );
}

#[test]
fn all_baselines_run_on_generated_benchmarks() {
    let scenario = small_scenario();
    let space = ObjectiveSpace::PowerDelay;
    let candidates = scenario.target_candidates();
    let table = scenario.target_table(space);
    let (sx, sy) = scenario.source_xy(space);
    let source = SourceData::new(sx, sy).expect("source");

    let mut o = VecOracle::new(table.clone());
    assert!(baselines::Tcad19::new(baselines::Tcad19Params {
        budget: 20,
        initial_samples: 8,
        seed: testkit::test_seed(),
        ..Default::default()
    })
    .tune(&candidates, &mut o)
    .is_ok());

    let mut o = VecOracle::new(table.clone());
    assert!(baselines::Mlcad19::new(baselines::Mlcad19Params {
        budget: 16,
        initial_samples: 8,
        seed: testkit::test_seed(),
        ..Default::default()
    })
    .tune(&candidates, &mut o)
    .is_ok());

    let mut o = VecOracle::new(table.clone());
    assert!(baselines::Dac19::new(baselines::Dac19Params {
        budget: 20,
        initial_samples: 10,
        seed: testkit::test_seed(),
        ..Default::default()
    })
    .tune(&candidates, &mut o)
    .is_ok());

    let mut o = VecOracle::new(table.clone());
    assert!(baselines::Aspdac20::new(baselines::Aspdac20Params {
        budget: 16,
        initial_samples: 8,
        seed: testkit::test_seed(),
        ..Default::default()
    })
    .tune(&source, &candidates, &mut o)
    .is_ok());
}

#[test]
fn table1_spaces_bind_onto_the_flow() {
    // Every benchmark's configurations must be convertible to ToolParams
    // and runnable through the matching design's flow.
    for id in BenchmarkId::ALL {
        let bench = Benchmark::generate_with_count(id, 12);
        let space = id.space();
        let flow = PdFlow::new(id.design());
        for c in bench.configs() {
            let params = ToolParams::from_config(&space, c).expect("config binds");
            let qor = flow.run(&params);
            assert!(qor.is_valid(), "{id}: invalid QoR {qor}");
        }
    }
}

#[test]
fn scenario_candidates_are_jointly_encoded() {
    let scenario = small_scenario();
    // Joint encoding: all coordinates in the unit cube, dimension equals
    // the Table 1 space dimension.
    for p in scenario.target_candidates() {
        assert_eq!(p.len(), 9);
        assert!(p.iter().all(|&u| (0.0..=1.0).contains(&u)));
    }
    let (sx, _) = scenario.source_xy(ObjectiveSpace::PowerDelay);
    for p in sx {
        assert_eq!(p.len(), 9);
        assert!(p.iter().all(|&u| (0.0..=1.0).contains(&u)));
    }
}

#[test]
fn live_flow_oracle_counts_runs() {
    use ppatuner::{FallibleOracle, QorOracle};
    let flow = PdFlow::new(Design::mac_small(3));
    let space = BenchmarkId::Source2.space();
    let bench = Benchmark::generate_with_count(BenchmarkId::Source2, 5);
    let configs: Vec<_> = bench.configs().to_vec();
    let mut oracle = FallibleOracle::new(|i: usize| {
        let params = ToolParams::from_config(&space, &configs[i]).expect("valid");
        Ok(flow.run(&params).project(ObjectiveSpace::AreaPowerDelay))
    });
    let y = oracle.evaluate(0).expect("the flow itself never fails");
    assert_eq!(y.len(), 3);
    assert_eq!(oracle.runs(), 1);
}

#[test]
fn golden_fronts_are_stable_across_regeneration() {
    let a = Benchmark::generate_with_count(BenchmarkId::Target2, 80);
    let b = Benchmark::generate_with_count(BenchmarkId::Target2, 80);
    assert_eq!(
        a.golden_front(ObjectiveSpace::PowerDelay),
        b.golden_front(ObjectiveSpace::PowerDelay)
    );
}
