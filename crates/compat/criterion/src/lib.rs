//! Offline drop-in subset of the [`criterion`](https://bheisler.github.io/criterion.rs)
//! benchmarking API.
//!
//! The build environment has no access to crates.io, so the small slice of
//! criterion this workspace's benches use is reimplemented here: groups,
//! `bench_function` / `bench_with_input`, [`BenchmarkId`], `Bencher::iter`,
//! `Bencher::iter_batched` with [`BatchSize`], [`black_box`], and the `criterion_group!` / `criterion_main!` macros.
//!
//! As upstream, `cargo bench -- <filter>` runs only the benchmarks whose
//! full id (`group/name`) contains `filter`; flag arguments, such as the
//! `--bench` that cargo passes, are skipped.
//!
//! Instead of criterion's statistical engine, each benchmark is warmed up
//! briefly and then timed over a fixed wall-clock window; the mean, best,
//! and worst per-iteration times are printed to stderr. That is enough to
//! compare orders of magnitude and spot regressions by eye, which is what
//! the in-repo micro benches are for.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Prevents the optimizer from discarding a value (stable-Rust variant).
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Times closures for one benchmark.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    measure_for: Duration,
}

impl Bencher {
    /// Runs `f` repeatedly, recording one sample per call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: a few unrecorded calls to populate caches/allocator.
        let warm_until = Instant::now() + self.measure_for / 10;
        while Instant::now() < warm_until {
            black_box(f());
        }
        let measure_until = Instant::now() + self.measure_for;
        while Instant::now() < measure_until || self.samples.is_empty() {
            let t0 = Instant::now();
            black_box(f());
            self.samples.push(t0.elapsed());
        }
    }
}

/// How many inputs `Bencher::iter_batched` prepares per batch. Upstream
/// sizes batches by it; this shim always prepares one input per timed
/// call, so every variant behaves like `PerIteration`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Cheap inputs.
    SmallInput,
    /// Inputs too large to keep many of.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

impl Bencher {
    /// Runs `routine` on a fresh input from `setup` per call, timing the
    /// routine alone: for routines that consume or mutate their input.
    /// Samples are taken until the routine's own time fills the window.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        let mut timed = Duration::ZERO;
        while timed < self.measure_for || self.samples.is_empty() {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            let dt = t0.elapsed();
            timed += dt;
            self.samples.push(dt);
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// The first positional argument in `args` (flags start with `-`): the
/// substring filter of upstream's `cargo bench -- <filter>`.
fn filter_from_args(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| !a.starts_with('-'))
}

fn run_one(c: &Criterion, id: &str, f: impl FnOnce(&mut Bencher)) {
    if c.filter.as_ref().is_some_and(|s| !id.contains(s.as_str())) {
        return;
    }
    let mut b = Bencher {
        samples: Vec::new(),
        measure_for: c.measure_for,
    };
    f(&mut b);
    let mut line = format!("bench {id:<40}");
    if b.samples.is_empty() {
        let _ = write!(line, " (no samples — did the bench call iter()?)");
    } else {
        let total: Duration = b.samples.iter().sum();
        let mean = total / b.samples.len() as u32;
        let best = *b.samples.iter().min().expect("non-empty");
        let worst = *b.samples.iter().max().expect("non-empty");
        let _ = write!(
            line,
            " mean {:>10}  best {:>10}  worst {:>10}  ({} iters)",
            fmt_duration(mean),
            fmt_duration(best),
            fmt_duration(worst),
            b.samples.len()
        );
    }
    eprintln!("{line}");
}

/// An identifier combining a function name and a parameter value.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// An id rendered as `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            full: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id that is just the parameter (used inside groups).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            full: parameter.to_string(),
        }
    }
}

/// A named group of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a Criterion,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks `f`, passing it `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher, &I),
    {
        run_one(self.criterion, &format!("{}/{}", self.name, id.full), |b| {
            f(b, input)
        });
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F: FnOnce(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_one(self.criterion, &format!("{}/{id}", self.name), f);
        self
    }

    /// Finishes the group (upstream flushes reports here; a no-op shim).
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
#[derive(Debug)]
pub struct Criterion {
    measure_for: Duration,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            // Short window: these benches run in CI as a smoke test, not
            // for publication-grade statistics.
            measure_for: Duration::from_millis(300),
            filter: None,
        }
    }
}

impl Criterion {
    /// Sets the per-benchmark measurement window.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measure_for = d;
        self
    }

    /// Runs only the benchmarks whose full id contains `filter`.
    pub fn with_filter(mut self, filter: impl Into<String>) -> Self {
        self.filter = Some(filter.into());
        self
    }

    /// Reads the filter from the process's command line, as upstream's
    /// `criterion_group!` does.
    pub fn configure_from_args(self) -> Self {
        match filter_from_args(std::env::args().skip(1)) {
            Some(filter) => self.with_filter(filter),
            None => self,
        }
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            criterion: self,
        }
    }

    /// Benchmarks a single function.
    pub fn bench_function<F: FnOnce(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_one(self, id, f);
        self
    }
}

/// Declares a group of benchmark functions (`criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark `main` (`criterion_main!`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Criterion {
        Criterion::default().measurement_time(Duration::from_millis(5))
    }

    #[test]
    fn bench_function_collects_samples() {
        let mut c = tiny();
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
    }

    #[test]
    fn iter_batched_times_fresh_inputs() {
        let mut c = tiny();
        c.bench_function("drain", |b| {
            b.iter_batched(
                || vec![1u64; 64],
                |v| v.into_iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
    }

    #[test]
    fn the_filter_is_the_first_positional_argument() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            filter_from_args(args(&["--bench", "classify"])),
            Some("classify".into())
        );
        assert_eq!(filter_from_args(args(&["--bench"])), None);
        assert_eq!(filter_from_args(args(&[])), None);
    }

    #[test]
    fn a_filter_runs_only_matching_ids() {
        // The filter matches the full `group/name` id, so the group's
        // name is part of what it matches.
        let mut c = tiny().with_filter("tuner/cl");
        let mut ran = Vec::new();
        let mut g = c.benchmark_group("tuner");
        for name in ["classify_10_m2", "loop_null_sink"] {
            g.bench_function(name, |b| {
                ran.push(name);
                b.iter(|| 0)
            });
        }
        g.finish();
        c.bench_function("classify_ungrouped", |b| {
            ran.push("classify_ungrouped");
            b.iter(|| 0)
        });
        assert_eq!(ran, ["classify_10_m2"]);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = tiny();
        let mut g = c.benchmark_group("g");
        g.bench_with_input(BenchmarkId::new("sum", 4), &4u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();
    }
}
