//! Ablation A3: the region-scale coefficient τ of Eq. (9), swept on
//! Scenario Two. Small τ classifies aggressively (fast, riskier); large τ
//! is conservative (slow, safer).
//!
//! Usage: `cargo run -p bench --release --bin ablation_tau [seed]
//!         [--trace <path>] [-q|-v]`

use bench::{run_ppatuner, score, BinArgs, Sinks};
use benchgen::Scenario;
use pdsim::ObjectiveSpace;
use ppatuner::PpaTunerConfig;

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
        let mut hv = 0.0;
        let mut ad = 0.0;
        let mut runs = 0.0;
        let mut dropped = 0.0;
        let seeds = [seed, seed + 7, seed + 19];
        for &sd in &seeds {
            let config = PpaTunerConfig {
                initial_samples: 36,
                max_iterations: 26,
                tau,
                seed: sd,
                ..Default::default()
            };
            let r = run_ppatuner(&scenario, space, config, &sinks.observer());
            let s = score(&scenario, space, &r.pareto_indices, r.runs);
            hv += s.hv_error;
            ad += s.adrs;
            runs += r.runs as f64;
            dropped += r.history.last().map_or(0.0, |h| h.dropped as f64);
        }
        let n = seeds.len() as f64;
        println!(
            "{:>6.1} {:>8.4} {:>8.4} {:>6.0} {:>8.0}",
            tau,
            hv / n,
            ad / n,
            runs / n,
            dropped / n
        );
    }
    sinks.flush();
}
