//! Diagnostic harness (not a paper artifact): inspects the tuner's
//! trajectory, the learned transfer factor, and GP prediction quality on
//! one scenario.
//!
//! Usage: `cargo run -p bench --release --bin diagnose [target_points]`

use benchgen::Scenario;
use gp::optimize::{fit_transfer_gp, FitBudget};
use gp::TaskData;
use pdsim::ObjectiveSpace;
use ppatuner::{PpaTuner, PpaTunerConfig, SourceData, VecOracle};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let points: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    let which = std::env::args().nth(2).unwrap_or_else(|| "two".into());
    let evals: usize = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(80);
    let scenario = if which == "one" {
        Scenario::one_with_counts(1, 1000, points).with_source_budget(200)
    } else {
        Scenario::two_with_counts(1, 500, points).with_source_budget(200)
    };
    let space = ObjectiveSpace::PowerDelay;
    let candidates = scenario.target_candidates();
    let table = scenario.target_table(space);

    // --- GP quality probe: fit the transfer GP on a random subset and
    // report holdout error with and without source data.
    let (sx, sy) = scenario.source_xy(space);
    let mut rng = StdRng::seed_from_u64(9);
    let mut idx: Vec<usize> = (0..candidates.len()).collect();
    idx.shuffle(&mut rng);
    let (train_idx, test_idx) = idx.split_at((points / 20).max(30));
    for k in 0..space.dim() {
        let source = TaskData::new(sx.clone(), sy.iter().map(|v| v[k]).collect());
        let target = TaskData::new(
            train_idx.iter().map(|&i| candidates[i].clone()).collect(),
            train_idx.iter().map(|&i| table[i][k]).collect(),
        );
        let budget = FitBudget {
            restarts: 2,
            evals_per_restart: evals,
        };
        let (with_src, _) =
            fit_transfer_gp(&source, &target, candidates[0].len(), budget, &mut rng).unwrap();
        let (no_src, _) = fit_transfer_gp(
            &TaskData::default(),
            &target,
            candidates[0].len(),
            budget,
            &mut rng,
        )
        .unwrap();
        let spread = {
            let vals: Vec<f64> = table.iter().map(|r| r[k]).collect();
            let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            hi - lo
        };
        let rmse = |m: &gp::TransferGp| {
            let mut s = 0.0;
            for &i in test_idx.iter().take(200) {
                let (mu, _) = m.predict(&candidates[i]).unwrap();
                s += (mu - table[i][k]).powi(2);
            }
            (s / test_idx.len().min(200) as f64).sqrt()
        };
        println!(
            "objective {k}: lambda={:+.3} rmse_transfer={:.4} rmse_alone={:.4} (range {:.4})",
            with_src.lambda(),
            rmse(&with_src),
            rmse(&no_src),
            spread
        );
        println!(
            "  lengthscales: {:?}",
            with_src
                .config()
                .lengthscales
                .iter()
                .map(|v| (v * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
    }

    // --- Tuner trajectory.
    let source = SourceData::new(sx, sy).unwrap();
    let mut oracle = VecOracle::new(table.clone());
    let config = PpaTunerConfig {
        initial_samples: (points / 20).max(8),
        max_iterations: 30,
        refit_every: 25,
        fit_budget: FitBudget {
            restarts: 2,
            evals_per_restart: evals,
        },
        seed: 17,
        ..Default::default()
    };
    let result = PpaTuner::new(config)
        .run(&source, &candidates, &mut oracle)
        .unwrap();
    println!(
        "tuner: runs={} verify={} iterations={} |P|={}",
        result.runs,
        result.verification_runs,
        result.iterations,
        result.pareto_indices.len()
    );
    for rec in result.history.iter().step_by(3) {
        println!(
            "  it {:>3}: undecided={:<5} pareto={:<4} dropped={:<5} runs={}",
            rec.iteration, rec.undecided, rec.pareto, rec.dropped, rec.runs
        );
    }
    let golden = scenario.target().golden_front(space);
    let predicted: Vec<Vec<f64>> = result
        .pareto_indices
        .iter()
        .map(|&i| table[i].clone())
        .collect();
    let reference = pareto::hypervolume::reference_point(&table, 1.1).unwrap();
    println!(
        "HV={:.4} ADRS={:.4} golden |front|={}",
        pareto::hypervolume::hypervolume_error(&golden, &predicted, &reference).unwrap(),
        pareto::metrics::adrs(&golden, &predicted).unwrap(),
        golden.len()
    );
}
