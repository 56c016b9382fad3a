//! Ablation A2: the relaxation δ — the paper's "precision controller" —
//! swept over the accuracy-vs-tool-runs trade-off on Scenario Two.
//!
//! Usage: `cargo run -p bench --release --bin ablation_delta [seed]
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
    let space = ObjectiveSpace::PowerDelay;

    println!("A2: delta sweep on {} ({space})", scenario.name());
    println!(
        "{:>8} {:>8} {:>8} {:>6} {:>8} {:>8}",
        "delta", "HV", "ADRS", "runs", "verify", "iters"
    );
    for delta_rel in [0.0, 0.01, 0.02, 0.05, 0.10, 0.20] {
        let mut hv = 0.0;
        let mut ad = 0.0;
        let mut runs = 0.0;
        let mut verify = 0.0;
        let mut iters = 0.0;
        let seeds = [seed, seed + 7, seed + 19];
        for &sd in &seeds {
            let config = PpaTunerConfig {
                initial_samples: 36,
                // Generous cap: δ controls where classification stops.
                max_iterations: 60,
                delta_rel,
                seed: sd,
                ..Default::default()
            };
            let r = run_ppatuner(&scenario, space, config, &sinks.observer());
            let s = score(&scenario, space, &r.pareto_indices, r.runs);
            hv += s.hv_error;
            ad += s.adrs;
            runs += r.runs as f64;
            verify += r.verification_runs as f64;
            iters += r.iterations as f64;
        }
        let n = seeds.len() as f64;
        println!(
            "{:>8.2} {:>8.4} {:>8.4} {:>6.0} {:>8.0} {:>8.0}",
            delta_rel,
            hv / n,
            ad / n,
            runs / n,
            verify / n,
            iters / n
        );
    }
    sinks.flush();
}
