//! Summarizes JSONL event traces (written via `--trace <path>` by the
//! experiment bins, or by any [`obs::JsonlSink`]): where the wall-clock
//! went per phase and causal span, how the δ-dominance classification
//! progressed, how the GP fits behaved, and what resources the hot paths
//! consumed.
//!
//! Usage:
//!
//! ```text
//! trace_report <trace.jsonl> [--lenient]
//! trace_report --fleet <dir> [--lenient]
//! ```
//!
//! A trace file together with `--fleet`, or a `--fleet` followed by a
//! flag or by nothing, is refused with the usage line (exit 2).
//! Malformed lines abort with a nonzero exit and a line number;
//! `--lenient` skips and counts them instead. `--fleet <dir>` ingests
//! every `*.jsonl` in the directory and prints cross-run aggregates
//! (hv-convergence quantiles, failure/retry/quarantine rates, per-phase
//! time, slowest spans). Both views render [`fleet::RunSummary`], the
//! one fold over a trace's events; this bin only parses arguments,
//! reads files and prints.

use std::io::Write;

use bench::fleet::{self, FleetReport};
use obs::Event;

/// Slowest-span entries shown by the fleet view.
const FLEET_TOP_K: usize = 10;

fn parse_file(path: &str, lenient: bool) -> Vec<Event> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read trace {path}: {e}");
        std::process::exit(1);
    });
    match fleet::parse_jsonl(&text, lenient) {
        Ok(parsed) => {
            if parsed.skipped > 0 {
                eprintln!(
                    "warning: {path}: skipped {} malformed line(s)",
                    parsed.skipped
                );
            }
            parsed.events
        }
        Err(e) => {
            eprintln!(
                "error: {path}:{}: {} (rerun with --lenient to skip)",
                e.line, e.message
            );
            std::process::exit(1);
        }
    }
}

/// Reads every `*.jsonl` in `dir`, in name order, and renders the fleet view.
fn fleet_text(dir: &str, lenient: bool) -> String {
    let mut files: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect(),
        Err(e) => {
            eprintln!("error: cannot read fleet directory {dir}: {e}");
            std::process::exit(1);
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!("error: fleet directory {dir} contains no *.jsonl traces");
        std::process::exit(1);
    }
    let mut report = FleetReport::default();
    for path in &files {
        let events = parse_file(&path.to_string_lossy(), lenient);
        let name = path.file_stem().map_or_else(
            || path.to_string_lossy().into_owned(),
            |s| s.to_string_lossy().into_owned(),
        );
        report.runs.push(fleet::summarize_run(&name, &events));
    }
    report.render(FLEET_TOP_K)
}

const USAGE: &str = "usage: trace_report <trace.jsonl> [--lenient] | --fleet <dir> [--lenient]";

/// Prints the usage line and exits with code 2.
fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut lenient = false;
    let mut fleet_dir: Option<String> = None;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--lenient" => lenient = true,
            // `--fleet` takes the next argument as its directory; a flag
            // or nothing there is a usage error, not a directory name.
            "--fleet" => match args.next() {
                Some(dir) if !dir.starts_with("--") => fleet_dir = Some(dir),
                _ => usage(),
            },
            other if path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("error: unexpected argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let report = match (fleet_dir, path) {
        (Some(dir), None) => fleet_text(&dir, lenient),
        (None, Some(path)) => {
            let events = parse_file(&path, lenient);
            if events.is_empty() {
                eprintln!("trace {path} contains no events");
                std::process::exit(1);
            }
            fleet::summarize_run(&path, &events).render()
        }
        // Neither view, or both: a file given with `--fleet` would be
        // dropped silently.
        _ => usage(),
    };
    // A reader that stops early (`| head`) closes the pipe; that ends
    // the program quietly.
    let mut out = std::io::stdout().lock();
    match out.write_all(report.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("error: cannot write the report: {e}");
            std::process::exit(1);
        }
        _ => {}
    }
}
