//! Golden-trace replay: run the deterministic reference scenario, record
//! its `obs` event stream, canonicalize it, and diff it against the
//! committed snapshot under `tests/golden/`.
//!
//! Canonicalization makes the trace byte-stable across machines:
//! wall-clock fields (`duration_s`, `gp_fit_s`) are zeroed, and every
//! float is rounded to 12 significant digits so cross-platform `libm`
//! ulp-level differences cannot flip a digit. Algorithmic drift — a
//! different candidate chosen, one more iteration, a changed λ — still
//! changes the canonical text and fails the diff.
//!
//! To accept an intentional behavior change, regenerate the snapshots:
//!
//! ```text
//! TESTKIT_BLESS=1 cargo test -p testkit
//! ```
//!
//! and review the resulting `tests/golden/*.jsonl` diff like any other
//! code change.

use std::path::PathBuf;

use obs::{Event, RecordingSink};
use ppatuner::{
    FnOracle, PpaTuner, PpaTunerConfig, SharedOracle, SourceData, TuneResult, VecOracle,
};
use serde_json::Value;

/// The environment variable that switches golden-trace tests from
/// *diff* mode to *regenerate* mode.
pub const BLESS_ENV: &str = "TESTKIT_BLESS";

/// Absolute path of the workspace-level `tests/golden/` directory where
/// blessed traces are committed.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Everything a golden run produces: the recorded trace, the tuner's
/// result, and the scenario's ground truth for invariant checking.
#[derive(Debug)]
pub struct GoldenRun {
    /// The recorded event stream, in emission order.
    pub events: Vec<Event>,
    /// The tuner's reported result.
    pub result: TuneResult,
    /// Golden QoR vectors of every candidate (the oracle's backing table).
    pub table: Vec<Vec<f64>>,
}

/// The reduced Scenario Two every golden run tunes, with the shared
/// configuration and seed.
#[derive(Debug)]
pub struct GoldenScenario {
    /// The benchmark scenario, for scoring fronts against its golden front.
    pub scenario: benchgen::Scenario,
    /// The objective space tuned.
    pub space: pdsim::ObjectiveSpace,
    /// The source-design observations the transfer GP starts from.
    pub source: SourceData,
    /// Joint-encoded target candidates.
    pub candidates: Vec<Vec<f64>>,
    /// Golden QoR of every candidate (the table oracle's backing data).
    pub table: Vec<Vec<f64>>,
    /// The golden configuration: `workers: 1`, the shared seed.
    pub config: PpaTunerConfig,
}

/// The golden scenario, unrun: what [`run_golden`] and its variants tune,
/// for tests that run it under other oracles (fault plans, a watchdog).
pub fn golden_scenario() -> GoldenScenario {
    let scenario = benchgen::Scenario::two_with_counts(9, 120, 100).with_source_budget(60);
    let space = pdsim::ObjectiveSpace::PowerDelay;
    let (sx, sy) = scenario.source_xy(space);
    GoldenScenario {
        source: SourceData::new(sx, sy).expect("golden scenario source data"),
        candidates: scenario.target_candidates(),
        table: scenario.target_table(space),
        config: PpaTunerConfig {
            initial_samples: 10,
            max_iterations: 20,
            // The default τ = 1.5 (≈1.2σ regions) trades accuracy for
            // speed; the golden scenario widens the regions so the
            // δ-accuracy law of Eq. 12 — which assumes the regions cover
            // the truth — holds deterministically and the invariant checker
            // can assert it. The matching longer budget lets classification
            // still conclude.
            tau: 3.0,
            seed: crate::test_seed(),
            workers: 1,
            ..Default::default()
        },
        scenario,
        space,
    }
}

/// Tunes the golden scenario at `batch_size` and `workers` through the
/// serial entry point and a table oracle, recording the trace.
fn run_serial(batch_size: usize, workers: usize) -> GoldenRun {
    let g = golden_scenario();
    let config = PpaTunerConfig {
        batch_size,
        workers,
        ..g.config
    };
    let mut oracle = VecOracle::new(g.table.clone());
    let sink = RecordingSink::new();
    let result = PpaTuner::new(config)
        .run_observed(&g.source, &g.candidates, &mut oracle, &sink)
        .expect("golden scenario tuning run");
    GoldenRun {
        events: sink.events(),
        result,
        table: g.table,
    }
}

/// Runs the reference golden scenario: a reduced Scenario Two tuned with
/// a fixed configuration, `workers: 1`, and the shared
/// [`crate::test_seed`]. Deterministic — the same binary produces the
/// same event stream on every run (the workspace's
/// `deterministic_given_seed` test guards the tuner side of that
/// contract).
///
/// # Panics
///
/// Panics when scenario construction or the tuning run fails; both are
/// deterministic, so a panic here is a real regression.
pub fn run_golden() -> GoldenRun {
    run_golden_with_workers(1)
}

/// [`run_golden`] with an explicit `workers` budget. The trace is
/// required to be identical for every value — restart starts are
/// pre-drawn from the sequential RNG stream and batch prediction is
/// chunk-invariant — so the golden snapshot doubles as a
/// worker-determinism regression gate.
///
/// # Panics
///
/// Same conditions as [`run_golden`].
pub fn run_golden_with_workers(workers: usize) -> GoldenRun {
    run_serial(1, workers)
}

/// The golden scenario tuned in q-batch mode through a concurrent
/// oracle: same scenario, configuration, and seed as [`run_golden`] but
/// with `batch_size: q` and `workers: workers`, driven through
/// [`ppatuner::PpaTuner::run_observed`] on a `&`[`SharedOracle`], so every
/// wave member runs on its own thread.
///
/// The trace is required to be identical for every `workers` value and
/// to [`run_golden_serial_batch`] — wave results are merged in
/// deterministic batch order regardless of which thread produced them —
/// and at `q = 1` it must be byte-identical to [`run_golden`]'s trace.
///
/// # Panics
///
/// Panics when scenario construction or the tuning run fails; both are
/// deterministic, so a panic here is a real regression.
pub fn run_golden_batch(q: usize, workers: usize) -> GoldenRun {
    let g = golden_scenario();
    let config = PpaTunerConfig {
        batch_size: q,
        workers,
        ..g.config
    };
    let oracle = SharedOracle::new(VecOracle::new(g.table.clone()));
    let sink = RecordingSink::new();
    let result = PpaTuner::new(config)
        .run_observed(&g.source, &g.candidates, &oracle, &sink)
        .expect("golden batch scenario tuning run");
    GoldenRun {
        events: sink.events(),
        result,
        table: g.table,
    }
}

/// [`run_golden_batch`] through a serial oracle (`&mut`[`VecOracle`]):
/// the same waves, evaluated one member at a time.
///
/// # Panics
///
/// Same conditions as [`run_golden_batch`].
pub fn run_golden_serial_batch(q: usize) -> GoldenRun {
    run_serial(q, 1)
}

/// The golden scenario with the adaptive candidate pool and the
/// subset-of-data predict path both enabled: same reduced Scenario Two
/// and seed as [`run_golden`], but candidates grow in-loop (cell-tree
/// refinement) and the posterior switches to subset-of-data once the
/// training set crosses `sod_threshold`. Because grown candidates have no
/// row in the offline QoR table, the oracle is a [`FnOracle`] that decodes
/// joint-encoded points and runs the PD flow directly — the same flow
/// that generated the table, so original candidates get identical QoR.
///
/// Deterministic like the other golden runs; its snapshot pins the
/// refinement sequence (which leaf splits when) byte-for-byte.
///
/// # Panics
///
/// Panics when scenario construction or the tuning run fails; both are
/// deterministic, so a panic here is a real regression.
pub fn run_golden_pool() -> GoldenRun {
    let g = golden_scenario();
    let config = PpaTunerConfig {
        adaptive_pool: true,
        pool_refine_scale: 0.05,
        pool_max_refines: 4,
        pool_max_size: 160,
        sod_threshold: 64,
        sod_subset: 48,
        ..g.config
    };
    let joint = g.scenario.joint().clone();
    let flow = pdsim::PdFlow::new(g.scenario.target().id().design());
    let space = g.space;
    let mut oracle = FnOracle::new(move |x: &[f64]| {
        let config = joint
            .decode(x)
            .expect("pool candidates decode in the joint space");
        let params = pdsim::ToolParams::from_config(&joint, &config)
            .expect("decoded configs belong to their space");
        flow.run(&params).project(space)
    });
    let sink = RecordingSink::new();
    let result = PpaTuner::new(config)
        .run_observed(&g.source, &g.candidates, &mut oracle, &sink)
        .expect("golden pool scenario tuning run");
    GoldenRun {
        events: sink.events(),
        result,
        table: g.table,
    }
}

/// Renders an event stream as canonical JSONL: one event per line, with
/// wall-clock fields zeroed and floats rounded to 12 significant digits.
pub fn canonical_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        let mut value = serde_json::to_value(e);
        canonicalize(&mut value);
        out.push_str(&serde_json::to_string(&value).expect("canonical value serializes"));
        out.push('\n');
    }
    out
}

/// Fields whose values are wall-clock measurements, not behavior.
const VOLATILE_FIELDS: [&str; 3] = ["duration_s", "gp_fit_s", "predict_s"];

/// `ResourceSample` counter fields. The counters are process-global
/// atomics, so concurrently running tests (or a second run in the same
/// process) pollute the per-iteration deltas — the *presence* of the
/// sample is behavior, its magnitudes are not.
const VOLATILE_COUNTER_FIELDS: [&str; 6] = [
    "chol_flops",
    "chol_panels",
    "tri_solve_rhs",
    "fitcache_hits",
    "fitcache_misses",
    "kernel_assemblies",
];

/// `ResourceSample` counter fields added *after* the goldens above were
/// blessed. Dropping them (rather than zeroing) keeps every committed
/// snapshot byte-identical without a re-bless; they parse back as zero
/// via `#[serde(default)]`. Fold a field into
/// [`VOLATILE_COUNTER_FIELDS`] instead the next time the goldens are
/// re-blessed for a real behavior change.
const VOLATILE_DROPPED_FIELDS: [&str; 4] = [
    "predict_cache_hits",
    "predict_cache_misses",
    "predict_cache_evictions",
    "predict_chunks",
];

fn canonicalize(v: &mut Value) {
    match v {
        Value::F64(x) => *x = round_sig(*x),
        Value::Array(items) => items.iter_mut().for_each(canonicalize),
        Value::Object(fields) => {
            fields.retain(|(key, _)| !VOLATILE_DROPPED_FIELDS.contains(&key.as_str()));
            for (key, val) in fields.iter_mut() {
                if VOLATILE_FIELDS.contains(&key.as_str()) {
                    *val = Value::F64(0.0);
                } else if VOLATILE_COUNTER_FIELDS.contains(&key.as_str()) {
                    *val = Value::U64(0);
                } else {
                    canonicalize(val);
                }
            }
        }
        _ => {}
    }
}

/// Rounds to 12 significant digits through the decimal representation
/// (`{:.11e}`), which is platform-independent. Non-finite values pass
/// through untouched.
fn round_sig(x: f64) -> f64 {
    if !x.is_finite() {
        return x;
    }
    format!("{x:.11e}").parse().expect("rounded float parses")
}

/// Compares `content` against the committed golden file `name`, or
/// rewrites the file when [`BLESS_ENV`] is set.
///
/// # Panics
///
/// Panics (failing the test) when the golden file is missing or differs,
/// with the first differing line and bless instructions in the message.
pub fn check_or_bless(name: &str, content: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os(BLESS_ENV).is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, content).expect("write golden file");
        return;
    }
    let golden = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!(
            "golden file {} unreadable ({e}); generate it with \
             `{BLESS_ENV}=1 cargo test -p testkit` and commit it",
            path.display()
        ),
    };
    if golden == content {
        return;
    }
    // Locate the first divergence for an actionable message.
    let mut lineno = 0usize;
    let mut detail = String::from("traces have different lengths");
    for (i, (g, c)) in golden.lines().zip(content.lines()).enumerate() {
        if g != c {
            lineno = i + 1;
            detail = format!("golden: {g}\n   got: {c}");
            break;
        }
    }
    if lineno == 0 {
        lineno = golden.lines().count().min(content.lines().count()) + 1;
    }
    panic!(
        "golden trace `{name}` drifted at line {lineno} \
         ({} golden lines vs {} recorded):\n{detail}\n\
         If this change is intentional, re-bless with \
         `{BLESS_ENV}=1 cargo test -p testkit` and commit the diff.",
        golden.lines().count(),
        content.lines().count()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_zeroes_wall_clock_and_rounds() {
        let events = [
            Event::ToolEval {
                iteration: 1,
                candidate: 3,
                qor: vec![0.1 + 0.2, 1.0],
                duration_s: 123.456,
            },
            Event::Message { text: "hi".into() },
        ];
        let text = canonical_jsonl(&events);
        let mut lines = text.lines();
        let first = lines.next().unwrap();
        assert!(
            first.contains("\"duration_s\":0"),
            "wall clock must be zeroed: {first}"
        );
        // 0.1 + 0.2 = 0.30000000000000004 rounds to exactly 0.3 at 12
        // significant digits.
        assert!(first.contains("0.3,"), "rounding failed: {first}");
        assert_eq!(lines.next().unwrap(), r#"{"Message":{"text":"hi"}}"#);
        assert!(lines.next().is_none());
    }

    #[test]
    fn canonicalization_zeroes_resource_counters_as_integers() {
        let events = [Event::ResourceSample {
            iteration: 2,
            chol_flops: 12345,
            chol_panels: 7,
            tri_solve_rhs: 99,
            fitcache_hits: 3,
            fitcache_misses: 1,
            kernel_assemblies: 4,
            predict_cache_hits: 40,
            predict_cache_misses: 8,
            predict_cache_evictions: 3,
            predict_chunks: 12,
        }];
        let text = canonical_jsonl(&events);
        let line = text.lines().next().unwrap();
        // Counters are zeroed but stay integers (no `.0` suffix), and the
        // iteration — real behavior — survives.
        assert!(line.contains("\"chol_flops\":0,"), "{line}");
        assert!(line.contains("\"kernel_assemblies\":0"), "{line}");
        assert!(line.contains("\"iteration\":2"), "{line}");
        assert!(!line.contains("12345"), "{line}");
        // Post-bless counters are dropped entirely so committed goldens
        // stay byte-identical.
        assert!(!line.contains("predict_cache"), "{line}");
        assert!(!line.contains("predict_chunks"), "{line}");
    }

    #[test]
    fn round_sig_is_stable_and_idempotent() {
        for &x in &[0.1, 1.0 / 3.0, 6.02e23, -2.5e-7, 0.0, f64::INFINITY] {
            let once = round_sig(x);
            assert_eq!(round_sig(once), once, "idempotence at {x}");
        }
        assert!(round_sig(f64::NAN).is_nan());
    }
}
