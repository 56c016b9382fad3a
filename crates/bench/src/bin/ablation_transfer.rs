//! Ablation A1: transfer GP vs. independent GP (no source data), on both
//! scenarios. Isolates the contribution of the paper's transfer kernel.
//!
//! Usage: `cargo run -p bench --release --bin ablation_transfer [seed]
//!         [--trace <path>] [-q|-v]`

use bench::{ablation_runs, BinArgs, MethodScore, Sinks};
use benchgen::Scenario;
use pdsim::ObjectiveSpace;
use ppatuner::{PpaTunerConfig, TuneResult};

fn main() {
    let args = BinArgs::parse(17);
    let sinks = Sinks::from_args(&args);
    let seed = args.seed;
    let cases = [
        (
            "scenario-one",
            Scenario::one_with_counts(seed, 1500, 1200),
            60,
            20,
        ),
        ("scenario-two", Scenario::two(seed), 36, 26),
    ];
    println!("A1: transfer vs no-transfer (3-seed means)");
    for (name, scenario, init, iters) in cases {
        // A source budget of 0 hands the tuner no source data.
        let no_source = scenario.clone().with_source_budget(0);
        for space in [ObjectiveSpace::PowerDelay, ObjectiveSpace::AreaPowerDelay] {
            for (label, tuned) in [("transfer", &scenario), ("no-transfer", &no_source)] {
                let config = |sd| PpaTunerConfig {
                    initial_samples: init,
                    max_iterations: iters,
                    seed: sd,
                    ..Default::default()
                };
                let runs = ablation_runs(tuned, space, seed, config, &sinks);
                let n = runs.len() as f64;
                let mean = |f: fn(&(TuneResult, MethodScore)) -> f64| {
                    runs.iter().map(f).fold(0.0, |acc, v| acc + v) / n
                };
                println!(
                    "{name} {space} {label:<12} HV={:.4} ADRS={:.4} runs={:.0}",
                    mean(|(_, s)| s.hv_error),
                    mean(|(_, s)| s.adrs),
                    mean(|(r, _)| r.runs as f64)
                );
            }
        }
    }
    sinks.flush();
}
