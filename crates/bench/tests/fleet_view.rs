//! End-to-end fleet view: record three real (small) tuning runs through
//! `JsonlSink`, ingest the directory the way `trace_report --fleet`
//! does, and check every aggregate section materializes.

use bench::fleet::{parse_jsonl, summarize_run, FleetReport};
use obs::JsonlSink;
use ppatuner::{PpaTuner, PpaTunerConfig, SourceData, VecOracle};

fn record_fleet(dir: &std::path::Path, seeds: &[u64]) {
    let scenario = benchgen::Scenario::two_with_counts(5, 80, 60).with_source_budget(40);
    let space = pdsim::ObjectiveSpace::PowerDelay;
    let candidates = scenario.target_candidates();
    let (sx, sy) = scenario.source_xy(space);
    let source = SourceData::new(sx, sy).expect("source");
    for &seed in seeds {
        let config = PpaTunerConfig {
            initial_samples: 8,
            max_iterations: 4,
            seed,
            ..Default::default()
        };
        let mut oracle = VecOracle::new(scenario.target_table(space));
        let path = dir.join(format!("seed-{seed}.jsonl"));
        let sink = JsonlSink::create(&path).expect("create trace");
        PpaTuner::new(config)
            .run_observed(&source, &candidates, &mut oracle, &sink)
            .expect("tuning run");
        sink.try_flush().expect("trace flushes cleanly");
    }
}

#[test]
fn fleet_of_three_recorded_runs_aggregates() {
    let dir = std::env::temp_dir().join(format!("ppatuner-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp fleet dir");
    record_fleet(&dir, &[1, 2, 3]);

    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("read fleet dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 3, "three traces recorded");

    let mut report = FleetReport::default();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("read trace");
        let parsed = parse_jsonl(&text, false).expect("recorded trace parses strictly");
        assert_eq!(parsed.skipped, 0);
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        report.runs.push(summarize_run(&name, &parsed.events));
    }
    let text = report.render(5);

    assert!(text.contains("fleet report: 3 runs"), "{text}");
    assert!(text.contains("hypervolume convergence (3 runs)"), "{text}");
    assert!(text.contains("median"), "{text}");
    assert!(text.contains("evaluation health:"), "{text}");
    assert!(
        text.contains("per-phase time (causal spans, all runs):"),
        "{text}"
    );
    for phase in ["gp_fit", "classify", "eval_attempt", "iteration"] {
        assert!(text.contains(phase), "missing phase {phase}: {text}");
    }
    assert!(text.contains("slowest spans (top 5):"), "{text}");
    assert!(text.contains("Cholesky flops"), "{text}");

    // A corrupted copy of a real trace fails strict parsing with the
    // right line number but survives lenient ingestion.
    let mut corrupt = std::fs::read_to_string(&files[0]).expect("read trace");
    corrupt.insert_str(0, "garbage line\n");
    let err = parse_jsonl(&corrupt, false).unwrap_err();
    assert_eq!(err.line, 1);
    let lenient = parse_jsonl(&corrupt, true).expect("lenient parse");
    assert_eq!(lenient.skipped, 1);
    assert!(!lenient.events.is_empty());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_run_view_renders_every_golden() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("read golden dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 4, "four golden traces: {files:?}");
    for path in &files {
        let text = std::fs::read_to_string(path).expect("read golden");
        let events = parse_jsonl(&text, false).expect("golden parses").events;
        let run_end = events
            .iter()
            .rev()
            .find(|e| matches!(e, obs::Event::RunEnd { .. }));
        let Some(obs::Event::RunEnd {
            iterations,
            runs,
            verification_runs,
            pareto,
            duration_s,
        }) = run_end
        else {
            panic!("{path:?} has a RunEnd");
        };
        let name = path.display().to_string();
        let report = summarize_run(&name, &events).render();
        let mut lines = report.lines();
        assert_eq!(
            lines.next(),
            Some(format!("trace report: {name} ({} events)", events.len()).as_str())
        );
        assert!(
            lines.next().is_some_and(|l| l.starts_with("run:   ")),
            "{report}"
        );
        assert_eq!(
            lines.next(),
            Some(
                format!(
                    "done:  {iterations} iterations, {runs} runs (+{verification_runs} \
                     verification), {pareto} pareto points, {duration_s:.3} s total"
                )
                .as_str()
            ),
            "{path:?}"
        );
    }
}

/// `trace_report` renders one view: a trace file given together with
/// `--fleet` is refused with the usage line and exit code 2 instead of
/// being dropped, while a plain file still renders.
#[test]
fn trace_report_refuses_a_file_together_with_fleet() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    let trace = format!("{golden}/scenario_two_seeded.jsonl");
    let run = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_trace_report"))
            .args(args)
            .output()
            .expect("trace_report starts")
    };
    let both = run(&[&trace, "--fleet", golden]);
    assert_eq!(both.status.code(), Some(2));
    assert!(both.stdout.is_empty());
    assert!(String::from_utf8_lossy(&both.stderr).starts_with("usage: trace_report"));
    let plain = run(&[&trace]);
    assert_eq!(plain.status.code(), Some(0));
    assert!(!plain.stdout.is_empty());
}

/// `--fleet` takes the next argument as its directory: followed by a
/// flag or by nothing, it is refused with the usage line and exit code 2
/// instead of reading `--lenient` as a directory name, and both views
/// still accept `--lenient`.
#[test]
fn trace_report_refuses_a_fleet_flag_without_a_directory() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    let trace = format!("{golden}/scenario_two_seeded.jsonl");
    let run = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_trace_report"))
            .args(args)
            .output()
            .expect("trace_report starts")
    };
    for args in [
        &["--fleet", "--lenient"][..],
        &["--fleet"],
        &["--lenient", "--fleet"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with("usage: trace_report"),
            "{args:?}"
        );
    }
    for args in [
        &["--fleet", golden, "--lenient"][..],
        &["--lenient", &trace],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(!out.stdout.is_empty(), "{args:?}");
    }
}
