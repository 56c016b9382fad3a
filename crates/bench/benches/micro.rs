//! Criterion micro-benchmarks of the reproduction's building blocks:
//! GP fit/predict scaling, transfer-GP fitting, the joint-kernel
//! Cholesky, the cached predict sweep, the thread fan-out, hypervolume,
//! LHS sampling, one PD-flow run, and one tuner decision pass.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::Rng;

fn gp_benches(c: &mut Criterion) {
    use gp::kernel::SquaredExponential;
    use gp::GpRegressor;
    use rand::SeedableRng;

    let mut group = c.benchmark_group("gp");
    for &n in &[50usize, 100, 200] {
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..8).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let y: Vec<f64> = x.iter().map(|p| p.iter().sum::<f64>().sin()).collect();
        group.bench_with_input(BenchmarkId::new("fit", n), &n, |b, _| {
            b.iter(|| {
                let kernel = SquaredExponential::isotropic(8, 1.0, 0.5).unwrap();
                GpRegressor::fit(x.clone(), y.clone(), kernel, 1e-4).unwrap()
            })
        });
        let kernel = SquaredExponential::isotropic(8, 1.0, 0.5).unwrap();
        let model = GpRegressor::fit(x.clone(), y.clone(), kernel, 1e-4).unwrap();
        let q: Vec<f64> = (0..8).map(|i| i as f64 / 8.0).collect();
        group.bench_with_input(BenchmarkId::new("predict", n), &n, |b, _| {
            b.iter(|| model.predict(&q).unwrap())
        });
    }
    group.finish();
}

fn transfer_gp_bench(c: &mut Criterion) {
    use gp::{TaskData, TransferGp, TransferGpConfig};
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(2);
    let mk = |n: usize, rng: &mut StdRng| -> TaskData {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..8).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let y: Vec<f64> = x.iter().map(|p| p.iter().sum::<f64>().cos()).collect();
        TaskData::new(x, y)
    };
    let source = mk(150, &mut rng);
    let target = mk(60, &mut rng);
    c.bench_function("transfer_gp/fit_150s_60t", |b| {
        b.iter(|| {
            TransferGp::fit(
                source.clone(),
                target.clone(),
                TransferGpConfig::default_for_dim(8),
            )
            .unwrap()
        })
    });
}

fn cholesky_bench(c: &mut Criterion) {
    use linalg::{Cholesky, Matrix};
    use rand::SeedableRng;

    // The joint kernel sizes of `t3_paper` (n + m = 200 + 62) and
    // `t2_paper` (about 460): one factorization per likelihood
    // evaluation. SE kernel over 9-dimensional points plus a small noise
    // diagonal. A single timing window drifts by tens of percent on a
    // shared or virtualized host, so compare two builds by the best
    // time of several interleaved runs of this group, not by one run.
    let mut group = c.benchmark_group("cholesky");
    for &p in &[262usize, 460] {
        let mut rng = StdRng::seed_from_u64(6);
        let x: Vec<Vec<f64>> = (0..p)
            .map(|_| (0..9).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let mut k = Matrix::from_fn(p, p, |i, j| {
            let s: f64 = x[i].iter().zip(&x[j]).map(|(a, b)| (a - b) * (a - b)).sum();
            (-2.0 * s).exp()
        });
        k.add_diag(1e-4);
        group.bench_with_input(BenchmarkId::new("se_kernel", p), &p, |b, _| {
            b.iter(|| Cholesky::new(&k).unwrap())
        });
    }
    group.finish();
}

fn predict_sweep_bench(c: &mut Criterion) {
    use gp::{PredictCache, TaskData, TransferGp, TransferGpConfig};
    use rand::SeedableRng;

    // One objective's predict sweep at `t2_durable_q4` scale: 4,500
    // undecided candidates against a joint factor of p = 404 rows
    // (200 source + 204 target points, d = 12), on one worker.
    // - `cold`: every candidate is a miss (the sweep after a refit);
    // - `warm_q4`: a cache filled at p = 400, read after conditioning on
    //   a wave of 4 (q new rows per candidate);
    // - `uncached`: the same queries through the uncached batch predict.
    // Compare builds by best-of over interleaved runs, as for `cholesky`.
    let dim = 12;
    let mut rng = StdRng::seed_from_u64(8);
    let mut points = |n: usize| -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
            .collect()
    };
    let (sx, tx, wave, xs) = (points(200), points(200), points(4), points(4500));
    let f = |p: &Vec<f64>| -> f64 {
        p.iter()
            .enumerate()
            .map(|(t, v)| v * (t as f64 + 1.0).sin())
            .sum()
    };
    let data = |x: &[Vec<f64>]| TaskData::new(x.to_vec(), x.iter().map(f).collect());
    let mut config = TransferGpConfig::default_for_dim(dim);
    config.lengthscales = vec![0.6; dim];
    let before = TransferGp::fit(data(&sx), data(&tx), config).unwrap();
    let mut after = before.clone();
    let wave_y: Vec<f64> = wave.iter().map(f).collect();
    after.condition_on(&wave, &wave_y).unwrap();
    let ids: Vec<u64> = (0..xs.len() as u64).collect();

    let mut group = c.benchmark_group("predict_sweep");
    group.bench_function("cold/404", |b| {
        b.iter_batched(
            PredictCache::new,
            |mut cache| {
                after
                    .predict_latent_batch_cached(&ids, &xs, 1, &mut cache)
                    .unwrap()
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("warm_q4/404", |b| {
        b.iter_batched(
            || {
                let mut cache = PredictCache::new();
                before
                    .predict_latent_batch_cached(&ids, &xs, 1, &mut cache)
                    .unwrap();
                cache
            },
            |mut cache| {
                after
                    .predict_latent_batch_cached(&ids, &xs, 1, &mut cache)
                    .unwrap()
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("uncached/404", |b| {
        b.iter(|| after.predict_latent_batch(&xs, 1).unwrap())
    });
    group.finish();
}

fn fanout_bench(c: &mut Criterion) {
    // What one small fan-out of the loop pays for its threads alone: 16
    // trivial tasks at the 2-worker budget of a 2-vCPU host.
    let mut group = c.benchmark_group("fanout");
    group.bench_function("16_trivial_tasks_2_workers", |b| {
        b.iter(|| gp::fan_out(16, 2, |i| i * i))
    });
    group.finish();
}

fn hypervolume_bench(c: &mut Criterion) {
    use pareto::hypervolume::hypervolume;
    use rand::SeedableRng;

    let mut group = c.benchmark_group("hypervolume");
    for &(d, n) in &[(2usize, 100usize), (3, 60)] {
        let mut rng = StdRng::seed_from_u64(3);
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let reference = vec![1.2; d];
        group.bench_with_input(BenchmarkId::new(format!("{d}d"), n), &n, |b, _| {
            b.iter(|| hypervolume(&pts, &reference).unwrap())
        });
    }
    group.finish();
}

fn lhs_bench(c: &mut Criterion) {
    use benchgen::BenchmarkId as Bid;
    use doe::LatinHypercube;
    use rand::SeedableRng;

    let space = Bid::Target1.space();
    c.bench_function("lhs/target1_space_500", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(4);
            LatinHypercube::new().sample(&space, 500, &mut rng)
        })
    });
}

fn pdsim_bench(c: &mut Criterion) {
    use pdsim::{Design, PdFlow, ToolParams};

    let flow = PdFlow::new(Design::mac_small(42));
    let params = ToolParams::default();
    c.bench_function("pdsim/flow_run_small_mac", |b| b.iter(|| flow.run(&params)));

    c.bench_function("pdsim/generate_small_mac_netlist", |b| {
        b.iter(|| pdsim::MacConfig::small().generate().cell_count())
    });
}

fn tuner_decision_bench(c: &mut Criterion) {
    use ppatuner::{classify, Status, UncertaintyRegion};
    use rand::SeedableRng;

    // Workload-sized passes: `pool_sod`'s final pool (3780 candidates,
    // power–delay) and `t2_durable_q4`'s pool (5000, three objectives).
    // Boxes a few percent of the range wide around a concave front, a
    // tenth of them evaluated points, δ = 1 % of the range.
    let mut group = c.benchmark_group("tuner");
    for &(p, m) in &[(3780usize, 2usize), (5000, 3)] {
        let mut rng = StdRng::seed_from_u64(5);
        let regions: Vec<UncertaintyRegion> = (0..p)
            .map(|_| {
                let u: Vec<f64> = (0..m).map(|_| rng.gen_range(0.05..1.0)).collect();
                let norm = u.iter().map(|v| v * v).sum::<f64>().sqrt();
                let lift = rng.gen_range(0.0..0.4);
                let centre: Vec<f64> = u.iter().map(|v| v / norm + lift).collect();
                if rng.gen_bool(0.1) {
                    return UncertaintyRegion::point(&centre);
                }
                let half: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0025..0.04)).collect();
                let lo: Vec<f64> = centre.iter().zip(&half).map(|(c, h)| c - h).collect();
                let hi: Vec<f64> = centre.iter().zip(&half).map(|(c, h)| c + h).collect();
                let mut u = UncertaintyRegion::unbounded(m);
                u.intersect(&lo, &hi);
                u
            })
            .collect();
        let delta = vec![0.01; m];
        let name = format!("classify_{p}_candidates_m{m}");
        group.bench_function(name.as_str(), |b| {
            b.iter(|| {
                let mut statuses = vec![Status::Undecided; regions.len()];
                classify(&regions, &mut statuses, &delta)
            })
        });
        // Every pass after a run's first starts from the statuses the
        // previous one left: decided candidates leave the active set.
        let mut carried = vec![Status::Undecided; regions.len()];
        classify(&regions, &mut carried, &delta);
        group.bench_function(format!("{name}_carried").as_str(), |b| {
            b.iter_batched(
                || carried.clone(),
                |mut statuses| classify(&regions, &mut statuses, &delta),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn tuner_observability_bench(c: &mut Criterion) {
    use benchgen::Scenario;
    use obs::{RecordingSink, NULL_SINK};
    use pdsim::ObjectiveSpace;
    use ppatuner::{PpaTuner, PpaTunerConfig, SourceData, VecOracle};

    let scenario = Scenario::two_with_counts(42, 200, 160);
    let space = ObjectiveSpace::PowerDelay;
    let candidates = scenario.target_candidates();
    let table = scenario.target_table(space);
    let (sx, sy) = scenario.source_xy(space);
    let source = SourceData::new(sx, sy).expect("source");
    let config = PpaTunerConfig {
        initial_samples: 12,
        max_iterations: 4,
        seed: 9,
        ..Default::default()
    };

    // The null sink must be free: `run` and `run_observed(&NULL_SINK)` are
    // the same code path, and event construction is skipped when the
    // observer is disabled. These two benches should be within noise
    // (<2%); the recording variant shows the cost of actually tracing.
    let mut group = c.benchmark_group("tuner");
    group.bench_function("loop_null_sink", |b| {
        b.iter(|| {
            let mut oracle = VecOracle::new(table.clone());
            PpaTuner::new(config.clone())
                .run_observed(&source, &candidates, &mut oracle, &NULL_SINK)
                .expect("tuning succeeds")
                .runs
        })
    });
    group.bench_function("loop_recording_sink", |b| {
        b.iter(|| {
            let sink = RecordingSink::new();
            let mut oracle = VecOracle::new(table.clone());
            PpaTuner::new(config.clone())
                .run_observed(&source, &candidates, &mut oracle, &sink)
                .expect("tuning succeeds")
                .runs
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    gp_benches,
    transfer_gp_bench,
    cholesky_bench,
    predict_sweep_bench,
    fanout_bench,
    hypervolume_bench,
    lhs_bench,
    pdsim_bench,
    tuner_decision_bench,
    tuner_observability_bench
);
criterion_main!(benches);
