//! Regenerates **Table 2** of the paper: the whole-performance comparison
//! on the Target1 benchmark (Scenario One — same design, different
//! parameter spaces/preferences). Five methods × three objective spaces,
//! reporting hypervolume error, ADRS, and tool runs.
//!
//! Usage: `cargo run -p bench --release --bin table2 [seed]
//!         [--trace <path>] [-q|-v]`
//! Writes `table2.txt` and `table2.json` in the working directory.

use bench::{write_table, BinArgs, Budgets, Sinks};
use benchgen::Scenario;

fn main() {
    let args = BinArgs::parse(17);
    let sinks = Sinks::from_args(&args);
    write_table(
        Scenario::one,
        &Budgets::scenario_one(),
        args.seed,
        "Table 2: The whole performance comparison on Target1 benchmark.",
        "table2",
        &sinks,
    );
}
