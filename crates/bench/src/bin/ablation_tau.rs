//! Ablation A3: the region-scale coefficient τ of Eq. (9), swept on
//! Scenario Two. Small τ classifies aggressively (fast, riskier); large τ
//! is conservative (slow, safer).
//!
//! Usage: `cargo run -p bench --release --bin ablation_tau [seed]
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
    let space = ObjectiveSpace::AreaPowerDelay;

    println!("A3: tau sweep on {} ({space})", scenario.name());
    println!(
        "{:>6} {:>8} {:>8} {:>6} {:>8}",
        "tau", "HV", "ADRS", "runs", "dropped@end"
    );
    for tau in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0] {
        let config = |sd| PpaTunerConfig {
            initial_samples: 36,
            max_iterations: 26,
            tau,
            seed: sd,
            ..Default::default()
        };
        let runs = ablation_runs(&scenario, space, seed, config, &sinks);
        let n = runs.len() as f64;
        let mean = |f: fn(&(TuneResult, MethodScore)) -> f64| {
            runs.iter().map(f).fold(0.0, |acc, v| acc + v) / n
        };
        println!(
            "{:>6.1} {:>8.4} {:>8.4} {:>6.0} {:>8.0}",
            tau,
            mean(|(_, s)| s.hv_error),
            mean(|(_, s)| s.adrs),
            mean(|(r, _)| r.runs as f64),
            mean(|(r, _)| r.history.last().map_or(0.0, |h| h.dropped as f64))
        );
    }
    sinks.flush();
}
