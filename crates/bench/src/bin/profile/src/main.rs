//! `profile` — end-to-end and per-layer benchmark of PPATuner runs on
//! paper-scale workloads (see `README.md` beside this package for the
//! workloads, metrics and bounds).
//!
//! ```text
//! profile --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--trace-dir D]
//! profile [--seed S1,S2,...] [--seconds N] [--smoke] [--trace-dir D] [--out FILE]
//! profile --compare A.json B.json
//! ```
//!
//! With `--workload`, one workload is measured. Every pass runs in a
//! fresh process of this binary (`--pass K --role R`, see [`pass`]): one
//! warm-up run, then timed passes with tracing off until `--seconds` have
//! passed (at least [`Workload::min_passes`], and enough tool-idle gaps
//! for a p90), then with `--trace 1` one traced pass whose spans and
//! counters give the per-layer metrics. The last stdout line is
//! `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`);
//! the line before it, prefixed `record `, holds every metric measured
//! and the sample counts. A violated output check exits with code 1.
//!
//! Without `--workload`, every workload is measured once per seed, each
//! in a child process, and a table of all metrics is printed; `--out`
//! saves the records as a set file for `--compare`.

mod analysis;
mod compare;
mod pass;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde_json::Value;

use analysis::{median, spread, tail_percentile, TAIL_SAMPLES};
use pass::{median_or_zero, metric, ratio, Metric, PassReport, Role, RunSummary};
use workload::Workload;

/// Default measured seconds per run (the `run_seconds` of
/// `BENCHMARK.json`).
const RUN_SECONDS: f64 = 10.0;
/// The tail percentile of the tool-idle gaps.
const IDLE_TAIL: f64 = 0.9;
/// Timed passes stop here even without enough samples, leaving room
/// inside the 180 s a run may take.
const TIMED_CAP_S: f64 = 120.0;
/// Where pass processes keep their temporary files (the durable workload's
/// checkpoint chains), under the working directory.
const WORK_DIR: &str = ".profile-work";

/// Sample counts behind the end-to-end metrics.
struct Samples {
    passes: usize,
    runs: usize,
    idle_gaps: usize,
}

/// Everything one workload measurement produced.
struct Measured {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    attempted: usize,
    failed: usize,
    samples: Samples,
    problems: Vec<String>,
}

/// Runs one pass of the workload being measured and returns its report.
type Spawn<'a> = dyn Fn(Role, usize) -> Result<PassReport, String> + 'a;

fn measure(
    workload: Workload,
    seconds: f64,
    traced: bool,
    smoke: bool,
    spawn: &Spawn,
) -> Result<Measured, String> {
    let min_passes = workload.min_passes(smoke);
    let warm = spawn(Role::WarmUp, 0)?;
    let origin = Instant::now();
    let mut passes: Vec<PassReport> = Vec::new();
    let mut gap_count = 0usize;
    let mut problems = Vec::new();
    loop {
        let p = spawn(Role::Timed, passes.len())?;
        gap_count += p.runs.iter().map(|r| r.steady_s.len()).sum::<usize>();
        eprintln!(
            "[profile] {} pass {}: setup {:.3} s, tune {:.3} s",
            workload.name(),
            passes.len(),
            p.setup_s,
            p.wall_s
        );
        passes.push(p);
        let elapsed = origin.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        let enough = passes.len() >= min_passes
            && gap_count as f64 * (1.0 - IDLE_TAIL) >= TAIL_SAMPLES as f64;
        if enough && elapsed + per_pass > seconds {
            break;
        }
        if elapsed > TIMED_CAP_S {
            problems.push(format!(
                "stopped after {} passes with {gap_count} idle gaps, short of a p90",
                passes.len()
            ));
            break;
        }
    }
    let traced_pass = if traced {
        Some(spawn(Role::Traced, 0)?)
    } else {
        None
    };

    let first = &passes[0];
    let digests = |p: &PassReport| p.runs.iter().map(|r| r.digest.clone()).collect::<Vec<_>>();
    if digests(&warm).first() != digests(first).first() {
        problems.push("the warm-up run and the first timed run returned different results".into());
    }
    if let Some(t) = &traced_pass {
        if digests(t) != digests(first) {
            problems.push("the traced pass returned other results than the untraced one".into());
        }
    }
    let labelled = std::iter::once(("warm-up".to_string(), &warm))
        .chain(
            passes
                .iter()
                .enumerate()
                .map(|(i, p)| (format!("pass {i}"), p)),
        )
        .chain(traced_pass.iter().map(|p| ("traced pass".to_string(), p)));
    for (label, p) in labelled {
        problems.extend(p.problems.iter().map(|e| format!("{label}: {e}")));
        for r in &p.runs {
            problems.extend(
                r.problems
                    .iter()
                    .map(|e| format!("{label}, {}: {e}", r.label)),
            );
        }
        if p.cpu_s.is_none() || p.peak_rss_mb.is_none() {
            problems.push(format!(
                "{label}: cannot read /proc/self/stat or /proc/self/status"
            ));
        }
    }

    let runs: Vec<&RunSummary> = passes.iter().flat_map(|p| &p.runs).collect();
    let first_picks: Vec<f64> = runs.iter().filter_map(|r| r.first_pick_s).collect();
    let steady: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.steady_s.iter().copied())
        .collect();
    if first_picks.is_empty() {
        problems.push("no run selected a configuration after its initial design".into());
    }
    let column =
        |f: fn(&PassReport) -> Option<f64>| passes.iter().filter_map(f).collect::<Vec<_>>();
    let end_to_end = vec![
        metric("setup_s", "s", median(&column(|p| Some(p.setup_s)))),
        metric("tune_s", "s", median(&column(|p| Some(p.wall_s)))),
        metric("cpu_s", "s", median(&column(|p| p.cpu_s))),
        metric("first_pick_s", "s", median(&first_picks)),
        metric("peak_rss_mb", "MB", median(&column(|p| p.peak_rss_mb))),
    ];

    let mut per_layer = Vec::new();
    if let Some(t) = &traced_pass {
        per_layer.extend(t.layers.iter().cloned());
        per_layer.push(metric(
            "obs.overhead",
            "ratio",
            t.wall_s / first.wall_s - 1.0,
        ));
    }
    // Tool-idle gaps of the untraced passes. Their tail moves with the
    // seed's decision-layer work and with machine load by more than any
    // bound this benchmark may set, so it is a layer metric, not an
    // end-to-end one.
    let idle_tail_ms = tail_percentile(&steady, IDLE_TAIL).map_or(f64::NAN, |v| v * 1e3);
    per_layer.push(metric(
        "loop.idle_p50_ms",
        "ms",
        median_or_zero(&steady) * 1e3,
    ));
    per_layer.push(metric("loop.idle_p90_ms", "ms", idle_tail_ms));
    per_layer.extend(quality(&passes[..min_passes.min(passes.len())]));

    Ok(Measured {
        end_to_end,
        per_layer,
        attempted: runs.len(),
        failed: runs.iter().filter(|r| !r.ok).count(),
        samples: Samples {
            passes: passes.len(),
            runs: runs.len(),
            idle_gaps: steady.len(),
        },
        problems,
    })
}

/// Solution quality over the first [`Workload::min_passes`] timed
/// passes: a function of the seed alone, however many passes a run fits.
fn quality(passes: &[PassReport]) -> Vec<Metric> {
    let runs: Vec<&RunSummary> = passes.iter().flat_map(|p| &p.runs).collect();
    let mean = |f: fn(&RunSummary) -> Option<f64>| {
        let v: Vec<f64> = runs.iter().filter_map(|r| f(r)).collect();
        ratio(v.iter().sum(), v.len() as f64)
    };
    let ok = runs.iter().filter(|r| r.ok).count();
    let tool_runs: usize = runs.iter().map(|r| r.tool_runs).sum();
    let failures: usize = runs.iter().map(|r| r.eval_failures).sum::<usize>() + runs.len() - ok;
    vec![
        metric("quality.hv_error", "ratio", mean(|r| r.hv_error)),
        metric("quality.adrs", "ratio", mean(|r| r.adrs)),
        metric(
            "quality.tool_runs",
            "runs",
            ratio(tool_runs as f64, ok as f64),
        ),
        metric(
            "quality.fail_rate",
            "ratio",
            ratio(failures as f64, (tool_runs + runs.len()) as f64),
        ),
    ]
}

fn metrics_object(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let entry = Value::Object(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]);
                (m.name.clone(), entry)
            })
            .collect(),
    )
}

fn result_line(m: &Measured, metrics: &[Metric], head: Vec<(String, Value)>) -> String {
    let mut fields = head;
    fields.extend([
        ("correct".into(), Value::Bool(m.problems.is_empty())),
        ("attempted".into(), Value::U64(m.attempted as u64)),
        ("failed".into(), Value::U64(m.failed as u64)),
        ("metrics".into(), metrics_object(metrics)),
    ]);
    serde_json::to_string(&Value::Object(fields)).expect("values serialize")
}

struct Args {
    workload: Option<Workload>,
    seeds: Vec<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
    trace_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    /// Run one pass in this process (`--pass K --role R`).
    pass: Option<(usize, Role)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seeds: vec![17],
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        trace_dir: None,
        out: None,
        compare: None,
        pass: None,
    };
    let mut role = Role::Timed;
    let mut pass = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seeds = value()?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u64>()
                            .map_err(|e| format!("--seed {s}: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--seconds" => {
                let s = value()?;
                args.seconds = s
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .ok_or(format!("--seconds {s}: not a duration"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--smoke" => args.smoke = true,
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value()?)),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let a = PathBuf::from(value()?);
                args.compare = Some((a, PathBuf::from(value()?)));
            }
            "--pass" => {
                let k = value()?;
                pass = Some(k.parse::<usize>().map_err(|e| format!("--pass {k}: {e}"))?);
            }
            "--role" => {
                let name = value()?;
                role = Role::parse(name).ok_or(format!("unknown role {name}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_some() && args.seeds.len() != 1 {
        return Err("--workload takes a single --seed".into());
    }
    if pass.is_some() && args.workload.is_none() {
        return Err("--pass needs --workload".into());
    }
    args.pass = pass.map(|k| (k, role));
    Ok(args)
}

/// Runs one pass in this process and prints its report.
fn run_pass(args: &Args, workload: Workload, pass: usize, role: Role) -> ExitCode {
    let work_dir = Path::new(WORK_DIR).join(std::process::id().to_string());
    let report = pass::run(
        workload,
        args.seeds[0],
        pass,
        role,
        args.smoke,
        &work_dir,
        args.trace_dir.as_deref(),
    );
    let _ = std::fs::remove_dir_all(&work_dir);
    println!(
        "{}",
        serde_json::to_string(&report).expect("reports serialize")
    );
    ExitCode::SUCCESS
}

/// Runs one pass in a fresh process of this binary and reads its report.
fn spawn_pass(
    exe: &Path,
    args: &Args,
    workload: Workload,
    role: Role,
    pass: usize,
) -> Result<PassReport, String> {
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload.name(),
        "--seed",
        &args.seeds[0].to_string(),
    ])
    .args(["--pass", &pass.to_string(), "--role", role.name()])
    .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let (Role::Traced, Some(dir)) = (role, &args.trace_dir) {
        cmd.arg("--trace-dir").arg(dir);
    }
    let what = format!("{} {} pass {pass}", workload.name(), role.name());
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {what}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{what} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{what} printed no report"))?;
    serde_json::from_str(line).map_err(|e| format!("{what} printed an unreadable report: {e}"))
}

fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let measured = std::env::current_exe()
        .map_err(|e| format!("cannot locate own executable: {e}"))
        .and_then(|exe| {
            let spawn = |role, pass| spawn_pass(&exe, args, workload, role, pass);
            measure(workload, args.seconds, args.trace, args.smoke, &spawn)
        });
    let _ = std::fs::remove_dir(WORK_DIR);
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("[profile] {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    for p in &m.problems {
        eprintln!("[profile] {}: CHECK FAILED: {p}", workload.name());
    }
    let everything: Vec<Metric> = m.end_to_end.iter().chain(&m.per_layer).cloned().collect();
    let samples = Value::Object(vec![
        ("passes".into(), Value::U64(m.samples.passes as u64)),
        ("runs".into(), Value::U64(m.samples.runs as u64)),
        ("idle_gaps".into(), Value::U64(m.samples.idle_gaps as u64)),
    ]);
    let head = vec![
        ("workload".into(), Value::Str(workload.name().into())),
        ("seed".into(), Value::U64(args.seeds[0])),
        ("samples".into(), samples),
    ];
    println!("record {}", result_line(&m, &everything, head));
    let shown = if args.trace {
        &m.per_layer
    } else {
        &m.end_to_end
    };
    println!("{}", result_line(&m, shown, Vec::new()));
    if m.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Measures every workload once per seed, each in a child process, and
/// prints every metric.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("profile: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut records: Vec<Value> = Vec::new();
    let mut ok = true;
    for &seed in &args.seeds {
        for w in Workload::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "1"])
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            if let Some(dir) = &args.trace_dir {
                cmd.arg("--trace-dir").arg(dir);
            }
            let t = Instant::now();
            let out = match cmd.output() {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("profile: cannot start {}: {e}", w.name());
                    ok = false;
                    continue;
                }
            };
            ok &= out.status.success();
            let stdout = String::from_utf8_lossy(&out.stdout);
            match stdout
                .lines()
                .find_map(|l| l.strip_prefix("record "))
                .map(serde_json::from_str::<Value>)
            {
                Some(Ok(record)) => records.push(record),
                _ => {
                    eprintln!("profile: {} seed {seed} printed no record", w.name());
                    ok = false;
                }
            }
            eprintln!(
                "[profile] {} seed {seed}: {:.1} s, {}",
                w.name(),
                t.elapsed().as_secs_f64(),
                if out.status.success() { "ok" } else { "FAILED" }
            );
        }
    }
    print!("{}", render_records(&records));
    if let Some(path) = &args.out {
        let set = Value::Object(vec![
            ("seconds".into(), Value::F64(args.seconds)),
            ("smoke".into(), Value::Bool(args.smoke)),
            ("runs".into(), Value::Array(records)),
        ]);
        let text = serde_json::to_string_pretty(&set).expect("values serialize");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("profile: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One table per workload: each metric's median over seeds, its spread
/// and sample count.
fn render_records(records: &[Value]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for w in Workload::ALL {
        let runs: Vec<&Value> = records
            .iter()
            .filter(|r| r.get("workload").and_then(Value::as_str) == Some(w.name()))
            .collect();
        let Some(Value::Object(first)) = runs.first().and_then(|r| r.get("metrics")) else {
            continue;
        };
        let correct = runs
            .iter()
            .all(|r| r.get("correct").and_then(Value::as_bool) == Some(true));
        let count = |key: &str| {
            runs.iter()
                .filter_map(|r| r.get("samples")?.get(key)?.as_u64())
                .sum::<u64>()
        };
        let _ = writeln!(
            out,
            "\n{} ({} seed{}, {} timed passes, {} tuner runs, {} idle gaps; outputs {})",
            w.name(),
            runs.len(),
            if runs.len() == 1 { "" } else { "s" },
            count("passes"),
            count("runs"),
            count("idle_gaps"),
            if correct { "correct" } else { "NOT correct" }
        );
        for (name, m) in first {
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            let _ = writeln!(
                out,
                "  {name:<28} {:>14.6} {unit:<8} ±{:>5.1}%  n={}",
                median(&values),
                spread(&values) * 100.0,
                values.len()
            );
        }
    }
    out
}

fn compare_sets(a: &Path, b: &Path) -> ExitCode {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let outcome = read(Path::new("BENCHMARK.json"))
        .and_then(|text| compare::bounds_from(&text))
        .and_then(|bounds| compare::compare(&bounds, &read(a)?, &read(b)?));
    match outcome {
        Ok((table, all_ok)) => {
            print!("{table}");
            if all_ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("profile --compare: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("profile: {e}");
            eprintln!(
                "usage: profile --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke] \
                 [--trace-dir D]\n       profile [--seed S1,S2,...] [--seconds N] [--smoke] \
                 [--trace-dir D] [--out FILE]\n       profile --compare A.json B.json"
            );
            return ExitCode::from(2);
        }
    };
    match (&args.compare, args.workload, args.pass) {
        (Some((a, b)), _, _) => compare_sets(a, b),
        (None, Some(w), Some((k, role))) => run_pass(&args, w, k, role),
        (None, Some(w), None) => run_one(&args, w),
        (None, None, _) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn command_line_arguments_parse() {
        let a = parse_args(&argv("--workload pool_sod --seed 3 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload, Some(Workload::PoolSod));
        assert_eq!(a.seeds, vec![3]);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
        assert!(a.pass.is_none());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--workload t3_paper --seed 1,2")).is_err());
        assert_eq!(
            parse_args(&argv("--seed 1,2,3")).unwrap().seeds,
            vec![1, 2, 3]
        );
        let p = parse_args(&argv("--workload t3_paper --pass 2 --role traced")).unwrap();
        assert_eq!(p.pass, Some((2, Role::Traced)));
        assert!(parse_args(&argv("--pass 2")).is_err());
    }

    /// A timed pass of `runs` runs whose values all derive from `x`.
    fn fake_pass(x: f64, runs: usize, digest: &str) -> PassReport {
        PassReport {
            setup_s: x / 10.0,
            wall_s: x,
            cpu_s: Some(2.0 * x),
            peak_rss_mb: Some(100.0 * x),
            runs: (0..runs)
                .map(|k| RunSummary {
                    label: format!("run {k}"),
                    digest: digest.into(),
                    ok: true,
                    first_pick_s: Some(x / 2.0),
                    steady_s: vec![x / 100.0; 40],
                    hv_error: Some(0.1),
                    adrs: Some(0.05),
                    tool_runs: 10,
                    eval_failures: 1,
                    problems: Vec::new(),
                })
                .collect(),
            layers: Vec::new(),
            problems: Vec::new(),
        }
    }

    #[test]
    fn measure_takes_medians_and_checks_determinism() {
        let times = [3.0, 1.0, 2.0, 5.0, 4.0];
        let spawn = |role: Role, k: usize| {
            Ok(match role {
                Role::WarmUp => fake_pass(9.0, 1, "a"),
                Role::Timed => fake_pass(times[k], 1, if k == 0 { "a" } else { "b" }),
                Role::Traced => fake_pass(1.5, 1, "c"),
            })
        };
        let m = measure(Workload::T3Paper, 0.0, true, false, &spawn).unwrap();
        assert_eq!(m.samples.passes, 5);
        let get = |ms: &[Metric], name: &str| ms.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get(&m.end_to_end, "tune_s"), 3.0);
        assert_eq!(get(&m.end_to_end, "cpu_s"), 6.0);
        assert_eq!(get(&m.end_to_end, "peak_rss_mb"), 300.0);
        assert_eq!(get(&m.end_to_end, "first_pick_s"), 1.5);
        assert!((get(&m.per_layer, "loop.idle_p90_ms") - 50.0).abs() < 1e-9);
        assert!((get(&m.per_layer, "loop.idle_p50_ms") - 30.0).abs() < 1e-9);
        assert!((get(&m.per_layer, "obs.overhead") + 0.5).abs() < 1e-12);
        assert!((get(&m.per_layer, "quality.fail_rate") - 5.0 / 55.0).abs() < 1e-12);
        // The warm-up agrees with pass 0; the traced pass does not.
        assert_eq!(m.problems.len(), 1, "{:?}", m.problems);
        assert!(m.problems[0].contains("traced"), "{:?}", m.problems);

        let broken = |role: Role, k: usize| match role {
            Role::WarmUp => Ok(fake_pass(1.0, 1, "x")),
            _ => spawn(role, k),
        };
        let m = measure(Workload::T3Paper, 0.0, false, false, &broken).unwrap();
        assert!(
            m.problems.iter().any(|p| p.contains("warm-up")),
            "{:?}",
            m.problems
        );
        let failing = |_: Role, _: usize| Err("no such pass".to_string());
        assert!(measure(Workload::T3Paper, 0.0, false, false, &failing).is_err());
    }

    #[test]
    fn benchmark_json_names_the_metrics_this_program_prints() {
        let text = include_str!("../../../../../../BENCHMARK.json");
        let file: Value = serde_json::from_str(text).unwrap();
        let table = |key: &str| -> Vec<(String, String)> {
            file.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        // A smoke measurement, in this process, yields the same metric
        // names as a full one.
        let dir = std::env::temp_dir().join(format!("profile-names-{}", std::process::id()));
        let spawn = |role, k| Ok(pass::run(Workload::T3Paper, 1, k, role, true, &dir, None));
        let m = measure(Workload::T3Paper, 0.0, true, true, &spawn).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(m.problems.is_empty(), "{:?}", m.problems);
        let printed = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        assert_eq!(table("end_to_end"), printed(&m.end_to_end));
        assert_eq!(table("per_layer"), printed(&m.per_layer));
    }
}
