//! Driving the tuner against a **live** PD flow instead of a precomputed
//! table: define a custom design and parameter space, wrap `pdsim` in a
//! [`ppatuner::FallibleOracle`], and tune.
//!
//! Run with: `cargo run --release --example custom_flow`

use doe::{LatinHypercube, ParamDef, ParamSpace};
use pdsim::{Design, MacConfig, ObjectiveSpace, PdFlow, ToolParams};
use ppatuner::{FallibleOracle, PpaTuner, PpaTunerConfig, QorOracle, SourceData};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A custom design: a narrow 4-lane MAC.
    let netlist = MacConfig {
        width: 12,
        lanes: 4,
        accum_guard: 6,
        two_stage_adders: false,
    }
    .generate();
    let design = Design::from_stats("my-mac", netlist.stats(&pdsim::CellLibrary::sevennm()), 123);
    println!(
        "custom design `{}`: {} cells, depth {}",
        design.name(),
        design.stats().cells,
        design.stats().comb_depth
    );
    let flow = PdFlow::new(design);

    // A custom 5-knob tuning space.
    let space = ParamSpace::new(vec![
        ParamDef::float("freq", 900.0, 1250.0)?,
        ParamDef::enumeration("flowEffort", &["standard", "extreme"])?,
        ParamDef::float("max_Density", 0.55, 0.95)?,
        ParamDef::int("max_fanout", 20, 48)?,
        ParamDef::float("max_transition", 0.12, 0.32)?,
    ])?;

    // Candidate configurations by Latin hypercube.
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let configs = LatinHypercube::new().sample(&space, 200, &mut rng);
    let encoded: Vec<Vec<f64>> = configs
        .iter()
        .map(|c| space.encode(c))
        .collect::<Result<_, _>>()?;

    // A live oracle: each evaluation actually runs the flow.
    let objective = ObjectiveSpace::AreaPowerDelay;
    let mut oracle = FallibleOracle::new(|i: usize| {
        let params = ToolParams::from_config(&space, &configs[i]).expect("valid config");
        Ok(flow.run(&params).project(objective))
    });

    let config = PpaTunerConfig {
        initial_samples: 15,
        max_iterations: 15,
        seed: 3,
        ..Default::default()
    };
    // No historical data for a brand-new space: tune from scratch.
    let result = PpaTuner::new(config).run(&SourceData::empty(), &encoded, &mut oracle)?;

    println!(
        "live flow evaluated {} times; {} Pareto configurations found:",
        oracle.runs(),
        result.pareto_indices.len()
    );
    for &i in result.pareto_indices.iter().take(8) {
        let params = ToolParams::from_config(&space, &configs[i])?;
        let qor = flow.run(&params);
        println!("  {} -> {}", configs[i], qor);
    }
    Ok(())
}
