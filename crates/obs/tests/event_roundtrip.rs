//! Every [`Event`] variant must survive the JSONL sink: what `trace_report`
//! parses back has to equal what the tuner emitted.

use obs::{Event, JsonlSink, Observer};

fn one_of_each() -> Vec<Event> {
    vec![
        Event::RunStart {
            candidates: 727,
            objectives: 2,
            dim: 9,
            initial_samples: 36,
            max_iterations: 60,
            seed: 17,
        },
        Event::GpFit {
            iteration: 3,
            objective: 1,
            refit: true,
            lengthscales: vec![0.4, 1.5, 0.9],
            signal_var: 1.25,
            noise_target: 1e-4,
            lambda: 0.83,
            restarts: 3,
            evals: 412,
            cached_evals: 412,
            fresh_evals: 1,
            log_marginal: -58.31,
            jitter: 1e-8,
            duration_s: 0.072,
        },
        Event::ToolEval {
            iteration: 3,
            candidate: 215,
            qor: vec![1.82, 0.47],
            duration_s: 0.0031,
        },
        Event::Classify {
            iteration: 3,
            pareto: 4,
            dropped: 690,
            undecided: 33,
            delta: vec![0.012, 0.02],
        },
        Event::BatchSelect {
            iteration: 3,
            q: 2,
            chosen: vec![215, 12],
            diameters: vec![0.31, 0.22],
            scores: vec![0.31, 0.2],
        },
        Event::IterationEnd {
            iteration: 3,
            runs: 41,
            pareto: 4,
            dropped: 690,
            undecided: 33,
            hypervolume: 1.8116,
            duration_s: 0.151,
            gp_fit_s: 0.144,
            predict_s: 0.004,
        },
        Event::RunEnd {
            iterations: 19,
            runs: 54,
            verification_runs: 1,
            pareto: 5,
            duration_s: 2.85,
        },
        Event::Message {
            text: "wrote table2.txt".to_string(),
        },
    ]
}

#[test]
fn every_variant_round_trips_through_json() {
    for event in one_of_each() {
        let line = serde_json::to_string(&event).expect("serialize");
        let back: Event = serde_json::from_str(&line).expect("parse");
        assert_eq!(back, event, "variant {} changed in transit", event.kind());
    }
}

#[test]
fn jsonl_sink_writes_one_parseable_line_per_event() {
    let path = std::env::temp_dir().join(format!("obs-roundtrip-{}.jsonl", std::process::id()));
    let events = one_of_each();
    {
        let sink = JsonlSink::create(&path).expect("create sink");
        for e in &events {
            sink.emit(e);
        }
        sink.flush();
    }
    let text = std::fs::read_to_string(&path).expect("read trace");
    std::fs::remove_file(&path).ok();
    let parsed: Vec<Event> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("parseable line"))
        .collect();
    assert_eq!(parsed, events);
}

/// Traces written while `EvalRetry` still carried an advisory
/// `backoff_s` must stay readable by `trace_report`: the retired field
/// is ignored on parse.
#[test]
fn an_eval_retry_line_with_a_retired_backoff_still_parses() {
    let line = r#"{"EvalRetry":{"iteration":2,"candidate":7,"attempt":2,"backoff_s":2.0}}"#;
    let event: Event = serde_json::from_str(line).expect("old EvalRetry line parses");
    assert_eq!(
        event,
        Event::EvalRetry {
            iteration: 2,
            candidate: 7,
            attempt: 2,
        }
    );
}
