//! Shared CLI plumbing for the experiment binaries: seed parsing plus the
//! observability flags every bin understands.
//!
//! Flags (in any order, mixed with the positional seed):
//!
//! - `--trace <path>` — write a JSONL event trace (analyze it with the
//!   `trace_report` bin);
//! - `-q` / `--quiet` — only run-level progress on stderr;
//! - `-v` / `--verbose` — per-fit and per-evaluation progress on stderr.
//!
//! Anything else — an unknown flag, a seed that is not an integer, a
//! second positional argument, `--trace` without a path — prints the
//! usage line and exits with code 2.

use obs::{JsonlSink, MultiSink, Observer, StderrSink, Verbosity};

/// Parsed command line of an experiment binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinArgs {
    /// Experiment seed (first positional integer; default per bin).
    pub seed: u64,
    /// `--trace <path>`: where to write the JSONL trace, if anywhere.
    pub trace: Option<String>,
    /// Stderr verbosity (`-q` / default / `-v`).
    pub verbosity: Verbosity,
}

impl BinArgs {
    /// Parses `std::env::args()`, falling back to `default_seed`; a
    /// command line it does not understand prints the usage line and
    /// exits with code 2.
    pub fn parse(default_seed: u64) -> Self {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        Self::parse_from(argv, default_seed).unwrap_or_else(|e| {
            let name = std::path::Path::new(&bin).file_name().unwrap_or_default();
            eprintln!(
                "error: {e}\nusage: {} [seed] [--trace <path>] [-q|-v]",
                name.display()
            );
            std::process::exit(2);
        })
    }

    fn parse_from(
        mut args: impl Iterator<Item = String>,
        default_seed: u64,
    ) -> Result<Self, String> {
        let (mut seed, mut trace, mut verbosity) = (None, None, Verbosity::Normal);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--trace" => match args.next() {
                    Some(path) if !path.starts_with('-') => trace = Some(path),
                    _ => return Err("--trace needs a path".into()),
                },
                "-q" | "--quiet" => verbosity = Verbosity::Quiet,
                "-v" | "--verbose" => verbosity = Verbosity::Verbose,
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
                extra if seed.is_some() => return Err(format!("unexpected argument {extra:?}")),
                s => {
                    seed = Some(
                        s.parse()
                            .map_err(|_| format!("seed {s:?} is not an integer"))?,
                    )
                }
            }
        }
        Ok(BinArgs {
            seed: seed.unwrap_or(default_seed),
            trace,
            verbosity,
        })
    }
}

/// The sinks an experiment binary writes to, built from [`BinArgs`].
///
/// Owns the underlying sinks; borrow a combined observer with
/// [`Sinks::observer`] and pass it to `PpaTuner::run_observed` (or emit
/// progress events directly).
pub struct Sinks {
    stderr: StderrSink,
    jsonl: Option<JsonlSink>,
}

impl Sinks {
    /// Opens the trace file (if requested) and configures stderr.
    ///
    /// # Panics
    ///
    /// Panics when the trace file cannot be created — a misspelled path
    /// should fail the experiment up front, not silently drop the trace.
    pub fn from_args(args: &BinArgs) -> Self {
        Sinks {
            stderr: StderrSink::new(args.verbosity),
            jsonl: args.trace.as_ref().map(|p| {
                JsonlSink::create(p).unwrap_or_else(|e| panic!("cannot create trace {p}: {e}"))
            }),
        }
    }

    /// A fan-out observer over stderr + the optional JSONL trace.
    pub fn observer(&self) -> MultiSink<'_> {
        let mut multi = MultiSink::new();
        multi.push(&self.stderr);
        if let Some(j) = &self.jsonl {
            multi.push(j);
        }
        multi
    }

    /// Emits a run-level progress message (replaces bespoke `eprintln!`).
    pub fn message(&self, text: impl Into<String>) {
        self.observer()
            .emit(&obs::Event::Message { text: text.into() });
    }

    /// Flushes the trace file, if one is open.
    pub fn flush(&self) {
        if let Some(j) = &self.jsonl {
            j.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BinArgs, String> {
        BinArgs::parse_from(args.iter().map(|s| s.to_string()), 17)
    }

    #[test]
    fn default_seed_and_flags() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.seed, 17);
        assert_eq!(a.trace, None);
        assert_eq!(a.verbosity, Verbosity::Normal);
    }

    #[test]
    fn seed_trace_and_verbosity_in_any_order() {
        let a = parse(&["--trace", "t.jsonl", "42", "-v"]).unwrap();
        assert_eq!(a.seed, 42);
        assert_eq!(a.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(a.verbosity, Verbosity::Verbose);
        let b = parse(&["7", "--quiet"]).unwrap();
        assert_eq!(b.seed, 7);
        assert_eq!(b.verbosity, Verbosity::Quiet);
    }

    #[test]
    fn a_second_positional_is_refused() {
        assert_eq!(
            parse(&["5", "9"]),
            Err("unexpected argument \"9\"".to_string())
        );
    }

    #[test]
    fn unknown_flags_and_non_integer_seeds_are_refused() {
        assert_eq!(
            parse(&["--trce", "t.jsonl"]),
            Err("unknown flag \"--trce\"".to_string())
        );
        assert_eq!(
            parse(&["seventeen"]),
            Err("seed \"seventeen\" is not an integer".to_string())
        );
        assert!(parse(&["-1"]).is_err());
        assert!(parse(&["17", "-x"]).is_err());
    }

    #[test]
    fn trace_without_a_path_is_refused() {
        for args in [
            &["--trace"][..],
            &["--trace", "-q"],
            &["--trace", "--verbose", "3"],
        ] {
            assert_eq!(
                parse(args),
                Err("--trace needs a path".to_string()),
                "{args:?}"
            );
        }
    }
}
