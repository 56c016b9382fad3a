//! Regenerates **Table 3** of the paper: the whole-performance comparison
//! on the Target2 benchmark (Scenario Two — similar but larger design).
//!
//! Usage: `cargo run -p bench --release --bin table3 [seed]
//!         [--trace <path>] [-q|-v]`
//! Writes `table3.txt` and `table3.json` in the working directory.

use bench::{write_table, BinArgs, Budgets, Sinks};
use benchgen::Scenario;

fn main() {
    let args = BinArgs::parse(17);
    let sinks = Sinks::from_args(&args);
    write_table(
        Scenario::two,
        &Budgets::scenario_two(),
        args.seed,
        "Table 3: The whole performance comparison on Target2 benchmark.",
        "table3",
        &sinks,
    );
}
