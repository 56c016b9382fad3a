//! Experiment harness for the PPATuner reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §4 for the index); this library holds the one
//! method protocol they share: the method runner at paper-scale budgets,
//! metric evaluation (hypervolume error, ADRS, tool runs), and the table
//! routine of Tables 2–3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod fleet;

use std::time::Instant;

use benchgen::Scenario;
use gp::optimize::FitBudget;
use obs::Observer;
use pareto::hypervolume::{hypervolume_error, reference_point};
use pareto::metrics::adrs;
use pdsim::ObjectiveSpace;
use ppatuner::{PpaTuner, PpaTunerConfig, SourceData, TuneResult, VecOracle};

pub use cli::{BinArgs, Sinks};

/// One method's scores on one objective space: the three columns of
/// Tables 2–3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodScore {
    /// Hypervolume error (Eq. 2) against the golden front.
    pub hv_error: f64,
    /// ADRS (Eq. 3) against the golden front.
    pub adrs: f64,
    /// Tool runs consumed.
    pub runs: usize,
}

/// The five tabulated methods, in the paper's column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// TCAD'19 active-learning GP.
    Tcad19,
    /// MLCAD'19 BO with LCB.
    Mlcad19,
    /// DAC'19 recommender.
    Dac19,
    /// ASPDAC'20 FIST.
    Aspdac20,
    /// PPATuner (this paper).
    PpaTuner,
}

impl Method {
    /// All methods in table order.
    pub const ALL: [Method; 5] = [
        Method::Tcad19,
        Method::Mlcad19,
        Method::Dac19,
        Method::Aspdac20,
        Method::PpaTuner,
    ];

    /// The paper's column label.
    pub fn label(self) -> &'static str {
        match self {
            Method::Tcad19 => "TCAD'19",
            Method::Mlcad19 => "MLCAD'19",
            Method::Dac19 => "DAC'19",
            Method::Aspdac20 => "ASPDAC'20",
            Method::PpaTuner => "PPATuner",
        }
    }
}

/// Per-scenario experiment budgets, mirroring the paper's run counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budgets {
    /// Fixed budget of MLCAD'19 and ASPDAC'20 (400 / 70 in the paper).
    pub fixed: usize,
    /// Budget cap of TCAD'19 (it stops on convergence; ~508 / ~92).
    pub tcad_cap: usize,
    /// Budget of DAC'19 (the hungriest method; ~600 / ~131).
    pub dac_budget: usize,
    /// PPATuner initialization samples (≤ 5 % of the target data).
    pub ppatuner_init: usize,
    /// PPATuner iteration cap.
    pub ppatuner_iters: usize,
}

impl Budgets {
    /// Paper-scale budgets for Scenario One (Target1, 5000 points).
    pub fn scenario_one() -> Self {
        Budgets {
            fixed: 400,
            tcad_cap: 520,
            dac_budget: 600,
            ppatuner_init: 200,
            ppatuner_iters: 60,
        }
    }

    /// Paper-scale budgets for Scenario Two (Target2, 727 points).
    pub fn scenario_two() -> Self {
        Budgets {
            fixed: 70,
            tcad_cap: 95,
            dac_budget: 131,
            ppatuner_init: 36,
            ppatuner_iters: 26,
        }
    }
}

/// Scores the true QoR values of a predicted Pareto set against the
/// golden front of the target benchmark.
///
/// # Panics
///
/// Panics when the metric computation fails (degenerate golden front) —
/// which would indicate a broken benchmark, not user error.
pub fn score(
    scenario: &Scenario,
    space: ObjectiveSpace,
    pareto_indices: &[usize],
    runs: usize,
) -> MethodScore {
    let table = scenario.target_table(space);
    let golden = scenario.target().golden_front(space);
    let reference = reference_point(&table, 1.1).expect("non-empty target table");
    let predicted: Vec<Vec<f64>> = pareto_indices.iter().map(|&i| table[i].clone()).collect();
    let hv = hypervolume_error(&golden, &predicted, &reference)
        .expect("golden front has positive hypervolume");
    let dist = adrs(&golden, &predicted).expect("metric inputs are valid");
    MethodScore {
        hv_error: hv,
        adrs: dist,
        runs,
    }
}

/// One method's run on one objective space: the front it returned and
/// that front's scores.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodRun {
    /// Candidate indices of the returned front.
    pub pareto_indices: Vec<usize>,
    /// The front's table cells.
    pub score: MethodScore,
}

/// Runs one method on one objective space of a scenario at the tables'
/// parameters, streaming PPATuner's trace events to `observer` (the
/// baseline methods are not instrumented and run silently). Tables 2–3
/// and Figure 3 take every method's front from here.
///
/// # Panics
///
/// Panics when a method errors — budgets and inputs are
/// harness-controlled, so an error is a bug worth crashing on.
pub fn run_method_observed(
    scenario: &Scenario,
    space: ObjectiveSpace,
    method: Method,
    budgets: &Budgets,
    seed: u64,
    observer: &dyn Observer,
) -> MethodRun {
    let candidates = || scenario.target_candidates();
    let oracle = || VecOracle::new(scenario.target_table(space));
    let front = |r: baselines::BaselineResult| (r.pareto_indices, r.runs);
    let run = match method {
        Method::Tcad19 => baselines::Tcad19::new(baselines::Tcad19Params {
            budget: budgets.tcad_cap,
            initial_samples: (budgets.tcad_cap / 3).max(8),
            seed,
            ..Default::default()
        })
        .tune(&candidates(), &mut oracle())
        .map(front),
        Method::Mlcad19 => baselines::Mlcad19::new(baselines::Mlcad19Params {
            budget: budgets.fixed,
            initial_samples: (budgets.fixed / 8).max(8),
            screen_size: 512,
            refit_every: 25,
            seed,
            ..Default::default()
        })
        .tune(&candidates(), &mut oracle())
        .map(front),
        Method::Dac19 => baselines::Dac19::new(baselines::Dac19Params {
            budget: budgets.dac_budget,
            initial_samples: (budgets.dac_budget / 6).max(8),
            batch: (budgets.dac_budget / 40).max(2),
            seed,
            ..Default::default()
        })
        .tune(&candidates(), &mut oracle())
        .map(front),
        Method::Aspdac20 => baselines::Aspdac20::new(baselines::Aspdac20Params {
            budget: budgets.fixed,
            initial_samples: (budgets.fixed / 5).max(8),
            batch: (budgets.fixed / 30).max(2),
            seed,
            ..Default::default()
        })
        .tune(&source_data(scenario, space), &candidates(), &mut oracle())
        .map(front),
        Method::PpaTuner => {
            let config = PpaTunerConfig {
                initial_samples: budgets.ppatuner_init,
                max_iterations: budgets.ppatuner_iters,
                refit_every: 25,
                fit_budget: FitBudget {
                    restarts: 2,
                    evals_per_restart: 80,
                },
                seed,
                ..Default::default()
            };
            let r = run_ppatuner(scenario, space, config, observer);
            Ok((r.pareto_indices, r.runs))
        }
    };
    let (pareto_indices, runs) = run.unwrap_or_else(|e| panic!("{} fails: {e}", method.label()));
    MethodRun {
        score: score(scenario, space, &pareto_indices, runs),
        pareto_indices,
    }
}

/// Runs PPATuner with `config` on one objective space of a scenario, the
/// target's golden table standing in for the tool, and streams its trace
/// events to `observer`. A scenario with a source budget of 0 gives the
/// tuner no source data (an independent GP per objective).
///
/// # Panics
///
/// Panics when the tuner errors (see [`run_method_observed`]).
pub fn run_ppatuner(
    scenario: &Scenario,
    space: ObjectiveSpace,
    config: PpaTunerConfig,
    observer: &dyn Observer,
) -> TuneResult {
    let mut oracle = VecOracle::new(scenario.target_table(space));
    PpaTuner::new(config)
        .run_observed(
            &source_data(scenario, space),
            &scenario.target_candidates(),
            &mut oracle,
            observer,
        )
        .expect("ppatuner runs")
}

/// One ablation point: PPATuner with `config(seed)` on one objective
/// space of a scenario, at each of the ablations' three seeds `seed`,
/// `seed + 7` and `seed + 19`, each run scored against the golden front.
/// Returns the runs in seed order; each ablation averages what it
/// reports.
///
/// # Panics
///
/// Panics when the tuner errors (see [`run_method_observed`]).
pub fn ablation_runs(
    scenario: &Scenario,
    space: ObjectiveSpace,
    seed: u64,
    config: impl Fn(u64) -> PpaTunerConfig,
    sinks: &Sinks,
) -> Vec<(TuneResult, MethodScore)> {
    [seed, seed + 7, seed + 19]
        .into_iter()
        .map(|sd| {
            let r = run_ppatuner(scenario, space, config(sd), &sinks.observer());
            let s = score(scenario, space, &r.pareto_indices, r.runs);
            (r, s)
        })
        .collect()
}

fn source_data(scenario: &Scenario, space: ObjectiveSpace) -> SourceData {
    let (sx, sy) = scenario.source_xy(space);
    SourceData::new(sx, sy).expect("source data is consistent")
}

/// Builds `scenario(seed)`, runs the five methods on every objective
/// space of it, each cell the mean over three seeds derived from `seed`,
/// prints the table and writes `{stem}.txt` and `{stem}.json` in the
/// working directory: the one protocol of Tables 2 and 3.
///
/// # Panics
///
/// Panics when a method errors or an output file cannot be written.
pub fn write_table(
    scenario: fn(u64) -> Scenario,
    budgets: &Budgets,
    seed: u64,
    title: &str,
    stem: &str,
    sinks: &Sinks,
) {
    let t0 = Instant::now();
    sinks.message(format!("generating the benchmarks of {stem}..."));
    let scenario = scenario(seed);
    sinks.message(format!("{} ready in {:.1?}", scenario.name(), t0.elapsed()));
    // Every cell is averaged over three seeds to damp selection luck.
    let seeds = [seed, seed.wrapping_add(12), seed.wrapping_add(26)];
    let mut rows: Vec<(ObjectiveSpace, Vec<MethodScore>)> = Vec::new();
    for space in ObjectiveSpace::ALL {
        let mut scores = Vec::new();
        for m in Method::ALL {
            let t = Instant::now();
            let mut hv = 0.0;
            let mut ad = 0.0;
            let mut runs = 0usize;
            for &sd in &seeds {
                let s = run_method_observed(&scenario, space, m, budgets, sd, &sinks.observer());
                hv += s.score.hv_error;
                ad += s.score.adrs;
                runs += s.score.runs;
            }
            let n = seeds.len() as f64;
            let s = MethodScore {
                hv_error: hv / n,
                adrs: ad / n,
                runs: (runs as f64 / n).round() as usize,
            };
            sinks.message(format!(
                "{space} / {:<10} HV={:.3} ADRS={:.3} runs={} ({:.1?})",
                m.label(),
                s.hv_error,
                s.adrs,
                s.runs,
                t.elapsed()
            ));
            scores.push(s);
        }
        rows.push((space, scores));
    }

    let table = render_table(title, &rows);
    println!("{table}");
    std::fs::write(format!("{stem}.txt"), &table).expect("write the table's .txt");
    let json: Vec<_> = rows
        .iter()
        .map(|(space, scores)| {
            serde_json::json!({
                "space": space.label(),
                "methods": Method::ALL.iter().zip(scores).map(|(m, s)| {
                    serde_json::json!({
                        "method": m.label(),
                        "hv_error": s.hv_error,
                        "adrs": s.adrs,
                        "runs": s.runs,
                    })
                }).collect::<Vec<_>>(),
            })
        })
        .collect();
    let json = serde_json::to_string_pretty(&json).expect("serialize");
    std::fs::write(format!("{stem}.json"), json).expect("write the table's .json");
    sinks.message(format!(
        "total {:.1?}; wrote {stem}.txt and {stem}.json",
        t0.elapsed()
    ));
    sinks.flush();
}

/// Renders a Tables-2/3-shaped comparison as plain text: one row per
/// objective space, HV/ADRS/Runs per method, plus Average and Ratio rows.
pub fn render_table(title: &str, rows: &[(ObjectiveSpace, Vec<MethodScore>)]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<18}", "Multi-objective");
    for m in Method::ALL {
        let _ = write!(out, " | {:^26}", m.label());
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<18}", "");
    for _ in Method::ALL {
        let _ = write!(out, " | {:>8} {:>8} {:>8}", "HV", "ADRS", "Runs");
    }
    let _ = writeln!(out);

    let mut sums = vec![(0.0, 0.0, 0.0); Method::ALL.len()];
    for (space, scores) in rows {
        let _ = write!(out, "{:<18}", space.label());
        for (j, s) in scores.iter().enumerate() {
            let _ = write!(out, " | {:>8.3} {:>8.3} {:>8}", s.hv_error, s.adrs, s.runs);
            sums[j].0 += s.hv_error;
            sums[j].1 += s.adrs;
            sums[j].2 += s.runs as f64;
        }
        let _ = writeln!(out);
    }
    let n = rows.len().max(1) as f64;
    let _ = write!(out, "{:<18}", "Average");
    for (hv, ad, r) in &sums {
        let _ = write!(out, " | {:>8.3} {:>8.3} {:>8.1}", hv / n, ad / n, r / n);
    }
    let _ = writeln!(out);
    // Ratio row: each method relative to PPATuner (last column).
    let base = sums.last().copied().unwrap_or((1.0, 1.0, 1.0));
    let _ = write!(out, "{:<18}", "Ratio");
    for (hv, ad, r) in &sums {
        let _ = write!(
            out,
            " | {:>8.3} {:>8.3} {:>8.3}",
            hv / base.0.max(1e-12),
            ad / base.1.max(1e-12),
            r / base.2.max(1e-12)
        );
    }
    let _ = writeln!(out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_labels_match_paper() {
        assert_eq!(Method::Tcad19.label(), "TCAD'19");
        assert_eq!(Method::PpaTuner.label(), "PPATuner");
        assert_eq!(Method::ALL.len(), 5);
    }

    #[test]
    fn render_table_shape() {
        let rows = vec![(
            ObjectiveSpace::AreaDelay,
            vec![
                MethodScore {
                    hv_error: 0.1,
                    adrs: 0.05,
                    runs: 100
                };
                Method::ALL.len()
            ],
        )];
        let txt = render_table("Table X", &rows);
        assert!(txt.contains("Table X"));
        assert!(txt.contains("Area-Delay"));
        assert!(txt.contains("Average"));
        assert!(txt.contains("Ratio"));
        assert!(txt.contains("PPATuner"));
    }

    #[test]
    fn smoke_scenario_two_tiny() {
        // End-to-end harness smoke test at a tiny scale: every method
        // completes and produces finite metrics for the front it returns.
        let scenario = benchgen::Scenario::two_with_counts(3, 80, 60).with_source_budget(40);
        let budgets = Budgets {
            fixed: 12,
            tcad_cap: 14,
            dac_budget: 18,
            ppatuner_init: 8,
            ppatuner_iters: 6,
        };
        let space = ObjectiveSpace::PowerDelay;
        for m in Method::ALL {
            let run = run_method_observed(&scenario, space, m, &budgets, 1, &obs::NULL_SINK);
            let s = run.score;
            // The returned front is the one scored (Figure 3 plots it).
            assert!(!run.pareto_indices.is_empty(), "{m:?}");
            assert_eq!(s, score(&scenario, space, &run.pareto_indices, s.runs));
            assert!(s.hv_error.is_finite(), "{m:?}");
            assert!(s.adrs.is_finite(), "{m:?}");
            assert!(s.runs > 0, "{m:?}");
        }
    }
}
