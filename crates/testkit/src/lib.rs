//! Correctness tooling for the PPATuner reproduction: reference oracles,
//! differential fuzzing, golden-trace replay, and trace invariant checks.
//!
//! The tuner's headline claims are mathematical — monotonically shrinking
//! uncertainty rectangles (Eq. 10), δ-dominance discards (Eq. 11), and an
//! ε-accurate Pareto front measured by hypervolume error and ADRS
//! (Eqs. 2–3). The optimized implementations in `pareto`, `gp`, and
//! `ppatuner` are therefore checked here against independent ground truth,
//! four ways:
//!
//! 1. **Reference oracles** ([`reference`](mod@reference), [`refgp`]):
//!    naive, obviously correct reimplementations — O(n²) dominance and
//!    Pareto filtering, inclusion–exclusion hypervolume, brute-force ADRS,
//!    and a dense-inverse exact transfer-GP posterior with no Cholesky
//!    fast path, including the transfer kernel's `λ = 2(1/(1+a))^b − 1`
//!    correlation factor cross-checked by numerical quadrature.
//! 2. **Differential drivers** ([`diff`], fed by [`gen`]): fuzz random
//!    inputs through the fast and reference paths and assert agreement
//!    within tight tolerance, with reproducible per-case dumps on
//!    mismatch.
//! 3. **Golden-trace replay** ([`trace`]): run the full seeded tuner loop,
//!    canonicalize its `obs` JSONL event stream, and diff it against a
//!    committed snapshot under `tests/golden/`; regenerate with
//!    `TESTKIT_BLESS=1` (the bless path).
//! 4. **Invariant checks** ([`invariants`]): consume a recorded trace and
//!    assert the algorithmic laws across iterations — regions never grow,
//!    discarded candidates never resurrect, classified points are
//!    δ-accurate against the final front, and selection always picks the
//!    max-diameter undecided candidate.
//!
//! Together these form the safety net that lets later performance work
//! (caching, parallel GP fits, incremental Cholesky updates) refactor the
//! hot paths freely: any behavioral drift fails a differential suite, a
//! golden diff, or an invariant check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batchsel;
pub mod chaos;
pub mod diff;
pub mod gen;
pub mod invariants;
pub mod reference;
pub mod refgp;
pub mod trace;

/// The single shared base seed of the workspace's deterministic tests.
///
/// Integration tests seed tuner configurations and fuzz drivers through
/// this helper (directly, or via [`test_seeds`]) instead of scattering
/// magic constants, so reseeding the whole suite is a one-line change.
pub fn test_seed() -> u64 {
    0x9e37_79b9_7f4a_7c15
}

/// `n` distinct deterministic seeds derived from [`test_seed`], for tests
/// that average over several runs.
pub fn test_seeds(n: usize) -> Vec<u64> {
    // SplitMix64 over the base seed: well-distributed, stable derivation.
    let mut state = test_seed();
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(test_seed(), test_seed());
        let seeds = test_seeds(8);
        assert_eq!(seeds, test_seeds(8));
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Prefixes are consistent: the k-th seed does not depend on n.
        assert_eq!(test_seeds(3), test_seeds(8)[..3].to_vec());
    }
}
