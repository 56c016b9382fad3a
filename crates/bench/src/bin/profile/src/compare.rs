//! `--compare A.json B.json`: one verdict per (workload, end-to-end
//! metric) between two sets of runs, using the bounds in
//! `BENCHMARK.json`.
//!
//! A set file holds the `record` of every run in a set (see `--out`).
//! Verdicts follow the choosing-metrics rules: a metric whose
//! run-to-run spread (interquartile distance over median, on either
//! side) is wider than its bound is unresolved unless every run of B
//! reads better than every run of A; otherwise it regressed when B's
//! median is worse than A's by more than the bound, and improved when B
//! wins at least nine tenths of the seed pairs and the medians differ by
//! more than A's interquartile distance. The `quality.*` metrics depend
//! on the seed alone, so they must be identical seed by seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::Value;

use crate::analysis::{median, quartiles, spread};

/// An end-to-end metric's regression bound, as `BENCHMARK.json` states it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Metric unit.
    pub unit: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// Reads the `end_to_end` table of a `BENCHMARK.json` text.
pub fn bounds_from(text: &str) -> Result<Vec<Bound>, String> {
    let file: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let rows = file
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("no end_to_end array")?;
    rows.iter()
        .map(|row| {
            let field = |key: &str| row.get(key).ok_or(format!("end_to_end row without {key}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                unit: field("unit")?
                    .as_str()
                    .ok_or("unit is not a string")?
                    .into(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better, beyond A's own spread, in nearly every pair.
    Improved,
    /// B is no worse than A by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares samples `(seed, value)` of B against A.
pub fn verdict(a: &[(u64, f64)], b: &[(u64, f64)], bound: &Bound) -> Verdict {
    // Work in "lower is better" terms throughout.
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let va: Vec<f64> = a.iter().map(|&(_, v)| sign * v).collect();
    let vb: Vec<f64> = b.iter().map(|&(_, v)| sign * v).collect();
    let (ma, mb) = (median(&va), median(&vb));
    let worse = (mb - ma) / ma.abs();
    let b_all_better =
        vb.iter().copied().fold(f64::MIN, f64::max) < va.iter().copied().fold(f64::MAX, f64::min);
    if spread(&va).max(spread(&vb)) > bound.bound && !b_all_better {
        return Verdict::Unresolved;
    }
    if worse > bound.bound {
        return Verdict::Regressed;
    }
    // Pair runs by seed; sets without common seeds compare every pair.
    let mut pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|&(s, x)| b.iter().find(|&&(t, _)| t == s).map(|&(_, y)| (x, y)))
        .map(|(x, y)| (sign * x, sign * y))
        .collect();
    if pairs.is_empty() {
        pairs = va
            .iter()
            .flat_map(|&x| vb.iter().map(move |&y| (x, y)))
            .collect();
    }
    let wins = pairs.iter().filter(|(x, y)| y < x).count();
    let iqr_a = quartiles(&va).map_or(0.0, |(q1, q3)| q3 - q1);
    if wins * 10 >= pairs.len() * 9 && ma - mb > iqr_a {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// `(workload, metric)` → `(seed, value)` samples of a set file.
type Samples = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn samples(text: &str) -> Result<Samples, String> {
    let file: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let runs = file
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("no runs array")?;
    let mut out = Samples::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without workload")?;
        let seed = run
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or("run without seed")?;
        let Some(Value::Object(metrics)) = run.get("metrics") else {
            return Err(format!("{workload} seed {seed}: no metrics object"));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push((seed, v));
            }
        }
    }
    Ok(out)
}

/// Renders the verdict table for two set files. The flag is `true` when
/// every verdict is "within bound" or "improved".
pub fn compare(bounds: &[Bound], a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (samples(a_text)?, samples(b_text)?);
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = a.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    let mut out = String::new();
    let mut all_ok = true;
    for workload in workloads {
        for bound in bounds {
            let key = (workload.clone(), bound.name.clone());
            let (Some(sa), Some(sb)) = (a.get(&key), b.get(&key)) else {
                let _ = writeln!(out, "{workload:<14} {:<13} missing", bound.name);
                all_ok = false;
                continue;
            };
            let values = |s: &[(u64, f64)]| s.iter().map(|&(_, v)| v).collect::<Vec<f64>>();
            let (va, vb) = (values(sa), values(sb));
            let v = verdict(sa, sb, bound);
            all_ok &= matches!(v, Verdict::WithinBound | Verdict::Improved);
            let _ = writeln!(
                out,
                "{workload:<14} {:<13} {:>12.6} {:<3} (±{:>5.1}%, n={:<2}) -> {:>12.6} (±{:>5.1}%, n={:<2}) {:>+7.2}%  bound {:>4.1}%  {}",
                bound.name,
                median(&va),
                bound.unit,
                spread(&va) * 100.0,
                va.len(),
                median(&vb),
                spread(&vb) * 100.0,
                vb.len(),
                (median(&vb) / median(&va) - 1.0) * 100.0,
                bound.bound * 100.0,
                v.label()
            );
        }
        // Solution quality is a function of the seed alone: the same seeds
        // must score the same in both sets.
        for ((_, name), sa) in a.range((workload.clone(), "quality.".to_string())..) {
            if !name.starts_with("quality.") {
                break;
            }
            let by_seed = |s: &[(u64, f64)]| s.iter().copied().collect::<BTreeMap<u64, f64>>();
            let sb = b.get(&(workload.clone(), name.clone()));
            let same = sb.is_some_and(|sb| by_seed(sa) == by_seed(sb));
            all_ok &= same;
            let verdict = if same { "identical" } else { "DIFFERENT" };
            let _ = writeln!(out, "{workload:<14} {name:<18} {verdict}");
        }
    }
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "tune_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound,
        }
    }

    fn seeded(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn regression_starts_just_past_the_bound() {
        let a = seeded(&[100.0; 5]);
        // Exactly 10 % worse is still within a 10 % bound.
        assert_eq!(
            verdict(&a, &seeded(&[110.0; 5]), &lower(0.1)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&a, &seeded(&[110.01; 5]), &lower(0.1)),
            Verdict::Regressed
        );
    }

    #[test]
    fn spread_equal_to_the_bound_is_still_resolved() {
        // Exclusive quartiles of [90, 90, 100, 110, 110] are 90 and 110:
        // a spread of exactly 20 % of the median.
        let a = seeded(&[90.0, 90.0, 100.0, 110.0, 110.0]);
        assert_eq!(verdict(&a, &a, &lower(0.2)), Verdict::WithinBound);
        assert_eq!(verdict(&a, &a, &lower(0.19)), Verdict::Unresolved);
        // Unless every run of B beats every run of A.
        let b = seeded(&[60.0, 61.0, 62.0, 63.0, 64.0]);
        assert_eq!(verdict(&a, &b, &lower(0.19)), Verdict::Improved);
    }

    #[test]
    fn improvement_needs_pair_wins_and_a_gap_beyond_the_spread() {
        let a = seeded(&[100.0, 101.0, 102.0, 99.0, 100.0]);
        let b = seeded(&[95.0, 96.0, 97.0, 94.0, 95.0]);
        assert_eq!(verdict(&a, &b, &lower(0.1)), Verdict::Improved);
        // One pair lost out of five: 80 % wins is not enough.
        let b = seeded(&[95.0, 96.0, 97.0, 100.0, 95.0]);
        assert_eq!(verdict(&a, &b, &lower(0.1)), Verdict::WithinBound);
        // Higher-is-better metrics flip the direction.
        let higher = Bound {
            lower_is_better: false,
            ..lower(0.1)
        };
        let b = seeded(&[105.0, 106.0, 107.0, 104.0, 105.0]);
        assert_eq!(verdict(&a, &b, &higher), Verdict::Improved);
        assert_eq!(verdict(&b, &a, &lower(0.1)), Verdict::Improved);
    }

    #[test]
    fn compare_reads_set_files_and_bounds() {
        let bounds = bounds_from(
            r#"{"end_to_end": [{"name": "tune_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds, vec![lower(0.1)]);
        let set = |v: f64, hv: f64| {
            format!(
                r#"{{"runs": [{{"workload": "t3_paper", "seed": 1, "metrics": {{"tune_s": {{"value": {v}, "unit": "s"}}, "quality.hv_error": {{"value": {hv}, "unit": "ratio"}}}}}}]}}"#
            )
        };
        let (table, ok) = compare(&bounds, &set(1.0, 0.5), &set(1.05, 0.5)).unwrap();
        assert!(ok, "{table}");
        assert!(table.contains("within bound"), "{table}");
        assert!(table.contains("quality.hv_error   identical"), "{table}");
        let (table, ok) = compare(&bounds, &set(1.0, 0.5), &set(1.2, 0.5)).unwrap();
        assert!(!ok);
        assert!(table.contains("regressed"), "{table}");
        let (table, ok) = compare(&bounds, &set(1.0, 0.5), &set(1.0, 0.25)).unwrap();
        assert!(!ok);
        assert!(table.contains("DIFFERENT"), "{table}");
    }
}
