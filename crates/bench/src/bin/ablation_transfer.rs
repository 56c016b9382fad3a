//! Ablation A1: transfer GP vs. independent GP (no source data), on both
//! scenarios. Isolates the contribution of the paper's transfer kernel.
//!
//! Usage: `cargo run -p bench --release --bin ablation_transfer [seed]
//!         [--trace <path>] [-q|-v]`

use bench::{run_ppatuner, score, BinArgs, Sinks};
use benchgen::Scenario;
use pdsim::ObjectiveSpace;
use ppatuner::PpaTunerConfig;

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
                let mut hv = 0.0;
                let mut ad = 0.0;
                let mut runs = 0;
                let seeds = [seed, seed + 7, seed + 19];
                for &sd in &seeds {
                    let config = PpaTunerConfig {
                        initial_samples: init,
                        max_iterations: iters,
                        seed: sd,
                        ..Default::default()
                    };
                    let r = run_ppatuner(tuned, space, config, &sinks.observer());
                    let s = score(tuned, space, &r.pareto_indices, r.runs);
                    hv += s.hv_error;
                    ad += s.adrs;
                    runs += r.runs;
                }
                let n = seeds.len() as f64;
                println!(
                    "{name} {space} {label:<12} HV={:.4} ADRS={:.4} runs={:.0}",
                    hv / n,
                    ad / n,
                    runs as f64 / n
                );
            }
        }
    }
    sinks.flush();
}
