//! Ablation A2: the relaxation δ — the paper's "precision controller" —
//! swept over the accuracy-vs-tool-runs trade-off on Scenario Two.
//!
//! Usage: `cargo run -p bench --release --bin ablation_delta [seed]
//!         [--trace <path>] [-q|-v]`

use bench::{ablation_runs, BinArgs, MethodScore, Sinks};
use benchgen::Scenario;
use pdsim::ObjectiveSpace;
use ppatuner::{PpaTunerConfig, TuneResult};

fn main() {
    let args = BinArgs::parse(17);
    let sinks = Sinks::from_args(&args);
    let seed = args.seed;
    let scenario = Scenario::two(seed);
    let space = ObjectiveSpace::PowerDelay;

    println!("A2: delta sweep on {} ({space})", scenario.name());
    println!(
        "{:>8} {:>8} {:>8} {:>6} {:>8} {:>8}",
        "delta", "HV", "ADRS", "runs", "verify", "iters"
    );
    for delta_rel in [0.0, 0.01, 0.02, 0.05, 0.10, 0.20] {
        let config = |sd| PpaTunerConfig {
            initial_samples: 36,
            // Generous cap: δ controls where classification stops.
            max_iterations: 60,
            delta_rel,
            seed: sd,
            ..Default::default()
        };
        let runs = ablation_runs(&scenario, space, seed, config, &sinks);
        let n = runs.len() as f64;
        let mean = |f: fn(&(TuneResult, MethodScore)) -> f64| {
            runs.iter().map(f).fold(0.0, |acc, v| acc + v) / n
        };
        println!(
            "{:>8.2} {:>8.4} {:>8.4} {:>6.0} {:>8.0} {:>8.0}",
            delta_rel,
            mean(|(_, s)| s.hv_error),
            mean(|(_, s)| s.adrs),
            mean(|(r, _)| r.runs as f64),
            mean(|(r, _)| r.verification_runs as f64),
            mean(|(r, _)| r.iterations as f64)
        );
    }
    sinks.flush();
}
