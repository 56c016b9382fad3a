//! Design-of-experiments samplers over a [`ParamSpace`].

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Config, ParamSpace, ParamValue};

/// Latin hypercube sampler.
///
/// This is the scheme the paper uses to construct its offline benchmarks
/// (§4.1): each of the `d` axes is divided into `n` equal strata and every
/// stratum is hit exactly once, giving much better marginal coverage than
/// i.i.d. uniform sampling for the same budget.
///
/// # Example
///
/// ```
/// use doe::{ParamSpace, ParamDef, LatinHypercube};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), doe::DoeError> {
/// let space = ParamSpace::new(vec![ParamDef::float("x", 0.0, 1.0)?])?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let pts = LatinHypercube::new().sample(&space, 10, &mut rng);
/// assert_eq!(pts.len(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatinHypercube;

impl LatinHypercube {
    /// Creates a sampler; each point sits at a uniformly random position
    /// inside its stratum.
    pub fn new() -> Self {
        LatinHypercube
    }

    /// Draws `n` configurations from `space`.
    ///
    /// Duplicates are possible in *configuration* space when a discrete
    /// parameter has fewer than `n` levels (several strata then share a
    /// level); callers that need distinct configurations should deduplicate
    /// (see [`sample_distinct`](Self::sample_distinct)).
    pub fn sample<R: Rng + ?Sized>(
        &self,
        space: &ParamSpace,
        n: usize,
        rng: &mut R,
    ) -> Vec<Config> {
        if n == 0 {
            return Vec::new();
        }
        let d = space.dim();
        // One independent stratum permutation per axis.
        let mut perms: Vec<Vec<usize>> = Vec::with_capacity(d);
        for _ in 0..d {
            let mut p: Vec<usize> = (0..n).collect();
            p.shuffle(rng);
            perms.push(p);
        }
        (0..n)
            .map(|i| {
                let unit: Vec<f64> = (0..d)
                    .map(|j| {
                        let stratum = perms[j][i] as f64;
                        (stratum + rng.gen::<f64>()) / n as f64
                    })
                    .collect();
                space.decode(&unit).expect("unit point has space dimension")
            })
            .collect()
    }

    /// Draws configurations until `n` *distinct* ones are collected (or the
    /// space is exhausted for fully discrete spaces). At most
    /// `max_rounds` LHS rounds are attempted.
    pub fn sample_distinct<R: Rng + ?Sized>(
        &self,
        space: &ParamSpace,
        n: usize,
        max_rounds: usize,
        rng: &mut R,
    ) -> Vec<Config> {
        let cap = space.cardinality().unwrap_or(usize::MAX).min(n);
        let mut out: Vec<Config> = Vec::with_capacity(cap);
        // Positions in `out` by `config_hash`; a bucket is confirmed with
        // `PartialEq`, so the result equals a linear `out.contains` scan.
        let mut seen: HashMap<u64, Vec<usize>> = HashMap::with_capacity(cap);
        for _ in 0..max_rounds.max(1) {
            for c in self.sample(space, n, rng) {
                if out.len() >= cap {
                    return out;
                }
                let bucket = seen.entry(config_hash(&c)).or_default();
                if !bucket.iter().any(|&k| out[k] == c) {
                    bucket.push(out.len());
                    out.push(c);
                }
            }
            if out.len() >= cap {
                break;
            }
        }
        out
    }
}

/// A hash consistent with `Config`'s `PartialEq`: equal configurations
/// hash alike. Floats hash their bits with `−0.0` folded into `+0.0`
/// (the two compare equal); a NaN hashes to whatever its bits give, which
/// is harmless because it equals nothing.
fn config_hash(c: &Config) -> u64 {
    let mut h = DefaultHasher::new();
    for v in c.values() {
        std::mem::discriminant(v).hash(&mut h);
        match *v {
            ParamValue::Float(x) => (if x == 0.0 { 0.0 } else { x }).to_bits().hash(&mut h),
            ParamValue::Int(k) => k.hash(&mut h),
            ParamValue::Enum(k) => k.hash(&mut h),
            ParamValue::Bool(b) => b.hash(&mut h),
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParamDef, ParamValue};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn float_space(d: usize) -> ParamSpace {
        ParamSpace::new(
            (0..d)
                .map(|i| ParamDef::float(&format!("x{i}"), 0.0, 1.0).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn lhs_stratifies_each_axis() {
        let space = float_space(3);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20;
        let pts = LatinHypercube::new().sample(&space, n, &mut rng);
        assert_eq!(pts.len(), n);
        // Each axis: exactly one sample per stratum [k/n, (k+1)/n).
        for axis in 0..3 {
            let mut hits = vec![0usize; n];
            for c in &pts {
                let v = c.values()[axis].as_float().unwrap();
                let k = ((v * n as f64).floor() as usize).min(n - 1);
                hits[k] += 1;
            }
            assert!(hits.iter().all(|&h| h == 1), "axis {axis}: {hits:?}");
        }
    }

    #[test]
    fn lhs_zero_points() {
        let space = float_space(2);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(LatinHypercube::new().sample(&space, 0, &mut rng).is_empty());
    }

    #[test]
    fn lhs_is_deterministic_per_seed() {
        let space = float_space(2);
        let a = LatinHypercube::new().sample(&space, 8, &mut StdRng::seed_from_u64(9));
        let b = LatinHypercube::new().sample(&space, 8, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let c = LatinHypercube::new().sample(&space, 8, &mut StdRng::seed_from_u64(10));
        assert_ne!(a, c);
    }

    #[test]
    fn sample_distinct_respects_cardinality() {
        let space = ParamSpace::new(vec![ParamDef::boolean("a"), ParamDef::boolean("b")]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pts = LatinHypercube::new().sample_distinct(&space, 100, 20, &mut rng);
        assert_eq!(pts.len(), 4);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                assert_ne!(pts[i], pts[j]);
            }
        }
    }

    /// The linear-scan de-duplication `sample_distinct` used before its
    /// hash index, kept as the reference the index must reproduce.
    fn sample_distinct_quadratic(
        space: &ParamSpace,
        n: usize,
        max_rounds: usize,
        rng: &mut StdRng,
    ) -> Vec<Config> {
        let cap = space.cardinality().unwrap_or(usize::MAX).min(n);
        let mut out: Vec<Config> = Vec::with_capacity(cap);
        for _ in 0..max_rounds.max(1) {
            for c in LatinHypercube::new().sample(space, n, rng) {
                if out.len() >= cap {
                    return out;
                }
                if !out.contains(&c) {
                    out.push(c);
                }
            }
            if out.len() >= cap {
                break;
            }
        }
        out
    }

    #[test]
    fn sample_distinct_matches_the_quadratic_scan() {
        let continuous = float_space(3);
        let discrete = ParamSpace::new(vec![
            ParamDef::int("k", 0, 6).unwrap(),
            ParamDef::enumeration("e", &["a", "b", "c"]).unwrap(),
            ParamDef::boolean("f"),
        ])
        .unwrap();
        let mixed = ParamSpace::new(vec![
            ParamDef::float("x", -1.0, 1.0).unwrap(),
            ParamDef::int("k", 1, 4).unwrap(),
            ParamDef::boolean("f"),
        ])
        .unwrap();
        // Runs out of distinct points: 2 · 3 = 6 configurations.
        let tiny = ParamSpace::new(vec![
            ParamDef::boolean("f"),
            ParamDef::enumeration("e", &["a", "b", "c"]).unwrap(),
        ])
        .unwrap();
        for (space, n, rounds) in [
            (&continuous, 300, 2),
            (&discrete, 40, 3),
            (&discrete, 500, 5),
            (&mixed, 200, 2),
            (&tiny, 50, 4),
            (&tiny, 4, 1),
        ] {
            for seed in 0..4 {
                let fast = LatinHypercube::new().sample_distinct(
                    space,
                    n,
                    rounds,
                    &mut StdRng::seed_from_u64(seed),
                );
                let slow =
                    sample_distinct_quadratic(space, n, rounds, &mut StdRng::seed_from_u64(seed));
                assert_eq!(fast, slow, "n {n}, rounds {rounds}, seed {seed}");
            }
        }
    }

    #[test]
    fn config_hash_agrees_with_equality_on_signed_zero() {
        let pos = Config::new(vec![ParamValue::Float(0.0)]);
        let neg = Config::new(vec![ParamValue::Float(-0.0)]);
        assert_eq!(pos, neg);
        assert_eq!(config_hash(&pos), config_hash(&neg));
    }
}
