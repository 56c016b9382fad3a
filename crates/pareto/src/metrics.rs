//! Quality indicators for approximated Pareto sets.

use crate::{ParetoError, Result};

/// Average Distance from Reference Set (ADRS), Eq. (3) of the paper.
///
/// For every golden point `a`, find the approximation point `p̂` with the
/// smallest worst-case *relative* coordinate deviation
/// `δ(a, p̂) = max_j |a_j − p̂_j| / |a_j|`, then average over the golden set:
///
/// `ADRS(A, P̂) = (1/|A|) Σ_{a∈A} min_{p̂∈P̂} δ(a, p̂)`.
///
/// Zero means the approximation covers the golden front exactly; the value
/// is unit-free because deviations are normalized by the golden
/// coordinates.
///
/// # Errors
///
/// - [`ParetoError::EmptySet`] when either set is empty;
/// - [`ParetoError::DimensionMismatch`] when point dimensions disagree;
/// - [`ParetoError::NanCoordinate`] when a coordinate is NaN;
/// - [`ParetoError::ZeroReferenceCoordinate`] when a golden coordinate is
///   zero (the relative deviation would divide by zero).
pub fn adrs(golden: &[Vec<f64>], approx: &[Vec<f64>]) -> Result<f64> {
    if golden.is_empty() {
        return Err(ParetoError::EmptySet { what: "golden set" });
    }
    if approx.is_empty() {
        return Err(ParetoError::EmptySet {
            what: "approximation set",
        });
    }
    let d = golden[0].len();
    for (i, p) in golden.iter().chain(approx.iter()).enumerate() {
        if p.len() != d {
            return Err(ParetoError::DimensionMismatch {
                expected: d,
                got: p.len(),
            });
        }
        if p.iter().any(|x| x.is_nan()) {
            return Err(ParetoError::NanCoordinate { index: i });
        }
    }
    let mut total = 0.0;
    for (i, a) in golden.iter().enumerate() {
        if a.contains(&0.0) {
            return Err(ParetoError::ZeroReferenceCoordinate { index: i });
        }
        let mut best = f64::INFINITY;
        for p in approx {
            let dev = a
                .iter()
                .zip(p)
                .map(|(&aj, &pj)| ((aj - pj) / aj).abs())
                .fold(0.0f64, f64::max);
            best = best.min(dev);
        }
        total += best;
    }
    Ok(total / golden.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adrs_zero_when_covered() {
        let golden = vec![vec![1.0, 4.0], vec![2.0, 2.0]];
        let approx = golden.clone();
        assert!(adrs(&golden, &approx).unwrap().abs() < 1e-15);
    }

    #[test]
    fn adrs_zero_when_superset() {
        let golden = vec![vec![1.0, 4.0]];
        let approx = vec![vec![9.0, 9.0], vec![1.0, 4.0]];
        assert!(adrs(&golden, &approx).unwrap().abs() < 1e-15);
    }

    #[test]
    fn adrs_matches_hand_computation() {
        // golden (2,2); approx (2.2, 2.0): deviation max(0.1, 0) = 0.1.
        let golden = vec![vec![2.0, 2.0]];
        let approx = vec![vec![2.2, 2.0]];
        let v = adrs(&golden, &approx).unwrap();
        assert!((v - 0.1).abs() < 1e-12);
    }

    #[test]
    fn adrs_takes_min_over_approx() {
        let golden = vec![vec![2.0, 2.0]];
        let approx = vec![vec![4.0, 4.0], vec![2.2, 2.0]];
        let v = adrs(&golden, &approx).unwrap();
        assert!((v - 0.1).abs() < 1e-12);
    }

    #[test]
    fn adrs_averages_over_golden() {
        // Two golden points: one covered (0), one off by 0.2 → mean 0.1.
        let golden = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        let approx = vec![vec![1.0, 1.0], vec![2.4, 2.0]];
        let v = adrs(&golden, &approx).unwrap();
        assert!((v - 0.1).abs() < 1e-12);
    }

    #[test]
    fn adrs_rejects_bad_inputs() {
        assert!(adrs(&[], &[vec![1.0]]).is_err());
        assert!(adrs(&[vec![1.0]], &[]).is_err());
        assert!(matches!(
            adrs(&[vec![1.0, 2.0]], &[vec![1.0]]).unwrap_err(),
            ParetoError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            adrs(&[vec![0.0, 1.0]], &[vec![1.0, 1.0]]).unwrap_err(),
            ParetoError::ZeroReferenceCoordinate { .. }
        ));
        assert!(matches!(
            adrs(&[vec![f64::NAN, 1.0]], &[vec![1.0, 1.0]]).unwrap_err(),
            ParetoError::NanCoordinate { .. }
        ));
    }
}
