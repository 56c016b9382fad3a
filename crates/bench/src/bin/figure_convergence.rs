//! Supplementary figure (not in the paper): the tuner's classification
//! trajectory — undecided / Pareto / dropped candidates and tool runs per
//! iteration — on Scenario Two. This visualizes Algorithm 1's engine: the
//! monotone shrinkage of the undecided set.
//!
//! Usage: `cargo run -p bench --release --bin figure_convergence [seed]
//!         [--trace <path>] [-q|-v]`
//! Writes `figure_convergence.csv`; the optional JSONL trace feeds
//! `trace_report`.

use bench::{run_ppatuner, BinArgs, Sinks};
use benchgen::Scenario;
use pdsim::ObjectiveSpace;
use ppatuner::PpaTunerConfig;

fn main() {
    let args = BinArgs::parse(17);
    let sinks = Sinks::from_args(&args);
    let config = PpaTunerConfig {
        initial_samples: 36,
        max_iterations: 60,
        seed: args.seed,
        ..Default::default()
    };
    let result = run_ppatuner(
        &Scenario::two(args.seed),
        ObjectiveSpace::PowerDelay,
        config,
        &sinks.observer(),
    );

    let mut csv = String::from("iteration,undecided,pareto,dropped,runs,duration_s,gp_fit_s\n");
    for rec in &result.history {
        csv.push_str(&format!(
            "{},{},{},{},{},{:.6},{:.6}\n",
            rec.iteration,
            rec.undecided,
            rec.pareto,
            rec.dropped,
            rec.runs,
            rec.duration_s,
            rec.gp_fit_s
        ));
    }
    std::fs::write("figure_convergence.csv", &csv).expect("write csv");
    sinks.message(format!(
        "wrote figure_convergence.csv: runs={} verification={} |P|={}",
        result.runs,
        result.verification_runs,
        result.pareto_indices.len()
    ));
    sinks.flush();
}
