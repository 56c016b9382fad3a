//! Ablation A4: sensitivity of the cross-task factor `λ = 2(1/(1+a))^b − 1`
//! (Eq. 7) to the Gamma-prior hyper-parameters (a, b), and the accuracy
//! of the transfer GP at fixed λ values.
//!
//! Usage: `cargo run -p bench --release --bin ablation_gamma [seed]`

use bench::BinArgs;
use benchgen::Scenario;
use gp::kernel::{SquaredExponential, TransferKernel};
use gp::{TaskData, TransferGp, TransferGpConfig};
use pdsim::ObjectiveSpace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let seed = BinArgs::parse(17).seed;

    // Part 1: the (a, b) → λ map of Eq. (7).
    println!("A4a: cross-task factor lambda = 2(1/(1+a))^b - 1");
    println!("{:>8} {:>8} {:>8}", "a", "b", "lambda");
    for (a, b) in [
        (0.01, 1.0),
        (0.1, 1.0),
        (0.5, 1.0),
        (1.0, 1.0),
        (2.0, 1.0),
        (0.1, 0.5),
        (0.1, 2.0),
        (0.1, 5.0),
    ] {
        let base = SquaredExponential::isotropic(1, 1.0, 0.5).expect("kernel");
        let tk = TransferKernel::from_gamma_prior(base, a, b).expect("prior");
        println!("{a:>8.2} {b:>8.1} {:>8.4}", tk.lambda());
    }

    // Part 2: holdout RMSE of the transfer GP at fixed λ on Scenario Two
    // (power objective), 40 target training points.
    let scenario = Scenario::two(seed);
    let space = ObjectiveSpace::PowerDelay;
    let candidates = scenario.target_candidates();
    let table = scenario.target_table(space);
    let (sx, sy) = scenario.source_xy(space);
    let dim = candidates[0].len();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..candidates.len()).collect();
    idx.shuffle(&mut rng);
    let (train, test) = idx.split_at(40);

    println!("\nA4b: holdout RMSE (power) vs fixed lambda, scenario-two");
    println!("{:>8} {:>10}", "lambda", "rmse");
    for lambda in [-0.5, 0.0, 0.25, 0.5, 0.75, 0.9, 0.99] {
        let source = TaskData::new(sx.clone(), sy.iter().map(|v| v[0]).collect());
        let target = TaskData::new(
            train.iter().map(|&i| candidates[i].clone()).collect(),
            train.iter().map(|&i| table[i][0]).collect(),
        );
        let cfg = TransferGpConfig {
            lambda,
            ..TransferGpConfig::default_for_dim(dim)
        };
        let model = TransferGp::fit(source, target, cfg).expect("fit");
        let mut sq = 0.0;
        let m = test.len().min(300);
        for &i in test.iter().take(m) {
            let (mu, _) = model.predict(&candidates[i]).expect("predict");
            sq += (mu - table[i][0]).powi(2);
        }
        println!("{lambda:>8.2} {:>10.4}", (sq / m as f64).sqrt());
    }
}
