//! Regenerates **Figure 3** of the paper: the Pareto fronts in the power
//! vs. delay space on the Target2 benchmark — the golden ("real") front
//! and the front each method learned.
//!
//! Every method's front comes from [`bench::run_method_observed`] at
//! Table 3's budgets and parameters, on the given seed.
//!
//! Usage: `cargo run -p bench --release --bin figure3 [seed]
//!         [--trace <path>] [-q|-v]`
//! Writes `figure3.csv` (series: method, power_mw, delay_ns) and prints
//! an ASCII rendering.

use bench::{run_method_observed, BinArgs, Budgets, Method, Sinks};
use benchgen::Scenario;
use pdsim::ObjectiveSpace;

fn main() {
    let args = BinArgs::parse(17);
    let sinks = Sinks::from_args(&args);
    let space = ObjectiveSpace::PowerDelay;
    let scenario = Scenario::two(args.seed);
    let table = scenario.target_table(space);
    let mut series = vec![("golden".to_string(), scenario.target().golden_front(space))];
    for m in Method::ALL {
        let run = run_method_observed(
            &scenario,
            space,
            m,
            &Budgets::scenario_two(),
            args.seed,
            &sinks.observer(),
        );
        sinks.message(format!(
            "{:<10} HV={:.4} ADRS={:.4} runs={}",
            m.label(),
            run.score.hv_error,
            run.score.adrs,
            run.score.runs
        ));
        let pts = run.pareto_indices.iter().map(|&i| table[i].clone());
        series.push((m.label().to_lowercase().replace('\'', ""), pts.collect()));
    }

    // CSV output.
    let mut csv = String::from("series,power_mw,delay_ns\n");
    for (name, pts) in &series {
        for p in pts {
            csv.push_str(&format!("{name},{:.6},{:.6}\n", p[0], p[1]));
        }
    }
    std::fs::write("figure3.csv", &csv).expect("write figure3.csv");
    sinks.message(format!("wrote figure3.csv ({} series)", series.len()));
    sinks.flush();

    // ASCII rendering: golden front (G) vs PPATuner front (P).
    println!("Figure 3: Pareto fronts in power vs delay space on Target2 (ASCII).");
    println!("G = golden front, P = PPATuner, . = other methods");
    let all: Vec<&Vec<f64>> = series.iter().flat_map(|(_, pts)| pts.iter()).collect();
    let (p_lo, p_hi) = min_max(all.iter().map(|p| p[0]));
    let (d_lo, d_hi) = min_max(all.iter().map(|p| p[1]));
    const W: usize = 72;
    const H: usize = 24;
    let mut grid = vec![vec![' '; W]; H];
    let plot = |pts: &[Vec<f64>], ch: char, grid: &mut Vec<Vec<char>>| {
        for p in pts {
            let x = ((p[0] - p_lo) / (p_hi - p_lo).max(1e-12) * (W - 1) as f64) as usize;
            let y = ((p[1] - d_lo) / (d_hi - d_lo).max(1e-12) * (H - 1) as f64) as usize;
            let row = H - 1 - y.min(H - 1);
            let col = x.min(W - 1);
            if grid[row][col] == ' ' || ch != '.' {
                grid[row][col] = ch;
            }
        }
    };
    for (name, pts) in &series[1..] {
        let ch = if name.starts_with("ppatuner") {
            'P'
        } else {
            '.'
        };
        plot(pts, ch, &mut grid);
    }
    plot(&series[0].1, 'G', &mut grid);
    println!("delay {d_hi:.3} ns");
    for row in grid {
        println!("|{}", row.into_iter().collect::<String>());
    }
    println!("+{}", "-".repeat(W));
    println!("delay {d_lo:.3} ns / power: {p_lo:.2} .. {p_hi:.2} mW");
}

fn min_max(iter: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in iter {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}
