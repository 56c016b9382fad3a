//! Free functions on `&[f64]` slices.
//!
//! These helpers keep the hot inner loops of the GP and tuner crates free of
//! ad-hoc iterator chains, and centralize the shape `assert!`s.

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

/// In-place `y ← y + alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place scaling `x ← alpha * x`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Elementwise difference `a - b` as a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Elementwise sum `a + b` as a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Arithmetic mean (`0.0` for an empty slice).
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Minimum value (`f64::INFINITY` for an empty slice). NaN entries are
/// ignored.
pub fn min(a: &[f64]) -> f64 {
    a.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum value (`f64::NEG_INFINITY` for an empty slice). NaN entries are
/// ignored.
pub fn max(a: &[f64]) -> f64 {
    a.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Index of the largest element, or `None` for an empty slice. NaN entries
/// never win.
pub fn argmax(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the smallest element, or `None` for an empty slice. NaN entries
/// never win.
pub fn argmin(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if v >= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
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

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn add_sub_elementwise() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn mean_of_empty_and_pair() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn min_max() {
        assert_eq!(min(&[2.0, -1.0, 3.0]), -1.0);
        assert_eq!(max(&[2.0, -1.0, 3.0]), 3.0);
        assert_eq!(min(&[]), f64::INFINITY);
        assert_eq!(max(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn argext() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some(1));
        assert_eq!(argmin(&[1.0, 5.0, 3.0]), Some(0));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN, 1.0]), Some(1));
        assert_eq!(argmin(&[f64::NAN, 1.0]), Some(1));
    }

    #[test]
    fn argext_ties_take_first() {
        assert_eq!(argmax(&[2.0, 2.0]), Some(0));
        assert_eq!(argmin(&[2.0, 2.0]), Some(0));
    }
}
