//! Regenerates **Table 1** of the paper: the statistics (min/max per
//! benchmark) of the PD-tool parameters.
//!
//! Usage: `cargo run -p bench --release --bin table1` (no arguments; any
//! argument prints the usage line and exits with code 2).

use benchgen::BenchmarkId;
use doe::ParamKind;

/// The union of parameter names, in the paper's row order.
const ROWS: [&str; 15] = [
    "freq",
    "place_rcfactor",
    "place_uncertainty",
    "flowEffort",
    "timing_effort",
    "clock_power_driven",
    "uniform_density",
    "cong_effort",
    "max_density",
    "max_Length",
    "max_Density",
    "max_transition",
    "max_capacitance",
    "max_fanout",
    "max_AllowedDelay",
];

fn cell(id: BenchmarkId, name: &str) -> (String, String) {
    let space = id.space();
    match space.index_of(name) {
        None => ("-".into(), "-".into()),
        Some(i) => match space.param(i).kind() {
            ParamKind::Float { min, max } => (format!("{min}"), format!("{max}")),
            ParamKind::Int { min, max } => (format!("{min}"), format!("{max}")),
            ParamKind::Enum { choices } => (
                choices.first().cloned().unwrap_or_default(),
                choices.last().cloned().unwrap_or_default(),
            ),
            ParamKind::Bool => ("FALSE".into(), "TRUE".into()),
        },
    }
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unexpected argument {arg:?}\nusage: table1");
        std::process::exit(2);
    }
    println!("Table 1: The statistics of parameters of the PD tool on benchmarks.");
    print!("{:<20}", "Parameters");
    for id in BenchmarkId::ALL {
        print!(" | {:^21}", id.name());
    }
    println!();
    print!("{:<20}", "");
    for _ in BenchmarkId::ALL {
        print!(" | {:>10} {:>10}", "Min", "Max");
    }
    println!();
    for name in ROWS {
        print!("{name:<20}");
        for id in BenchmarkId::ALL {
            let (lo, hi) = cell(id, name);
            print!(" | {lo:>10} {hi:>10}");
        }
        println!();
    }
    println!();
    println!(
        "Point counts: Source1={} Target1={} Source2={} Target2={}",
        BenchmarkId::Source1.point_count(),
        BenchmarkId::Target1.point_count(),
        BenchmarkId::Source2.point_count(),
        BenchmarkId::Target2.point_count(),
    );
    println!(
        "Designs: Source1/Target1/Source2 -> {} ({} cells), Target2 -> {} ({} cells)",
        BenchmarkId::Source1.design().name(),
        BenchmarkId::Source1.design().stats().cells,
        BenchmarkId::Target2.design().name(),
        BenchmarkId::Target2.design().stats().cells,
    );
}
