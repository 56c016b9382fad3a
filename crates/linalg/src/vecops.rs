//! Free functions on `&[f64]` slices.
//!
//! Dot products and distances for the GP and tuner crates, with the shape
//! `assert!`s in one place.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    sq_dist(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_sums_products() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn distances() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }
}
