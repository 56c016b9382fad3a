//! Per-candidate uncertainty hyper-rectangles (Eqs. 9–10).

/// The running uncertainty hyper-rectangle `U_t(x)` of one candidate in
/// QoR space (minimization convention).
///
/// The region starts as all of `R^n` and is shrunk each iteration by
/// intersecting with the model's `[μ − √τ·σ, μ + √τ·σ]` box (Eq. 10), so
/// it never grows. Once the candidate is evaluated on the real tool, the
/// region collapses to the observed point.
///
/// Terminology (minimization): [`UncertaintyRegion::optimistic`] is the
/// lower corner (best case), [`UncertaintyRegion::pessimistic`] the upper
/// corner (worst case).
///
/// # Example
///
/// ```
/// use ppatuner::UncertaintyRegion;
///
/// let mut u = UncertaintyRegion::unbounded(2);
/// u.intersect(&[1.0, 2.0], &[3.0, 4.0]);
/// u.intersect(&[0.5, 2.5], &[2.5, 5.0]); // only tightens
/// assert_eq!(u.optimistic(), &[1.0, 2.5]);
/// assert_eq!(u.pessimistic(), &[2.5, 4.0]);
/// assert!(u.diameter() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UncertaintyRegion {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl UncertaintyRegion {
    /// The initial region `U_{−1} = R^n`.
    pub fn unbounded(dim: usize) -> Self {
        UncertaintyRegion {
            lo: vec![f64::NEG_INFINITY; dim],
            hi: vec![f64::INFINITY; dim],
        }
    }

    /// A region that is a single point (an evaluated candidate).
    pub fn point(value: &[f64]) -> Self {
        UncertaintyRegion {
            lo: value.to_vec(),
            hi: value.to_vec(),
        }
    }

    /// Dimension of the QoR space.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Intersects with a new `[lo, hi]` box (Eq. 10). If the boxes are
    /// disjoint in some coordinate (model moved outside the old region —
    /// possible with noisy refits), the region collapses to the tightest
    /// non-empty interval: the point nearest the new box.
    ///
    /// # Panics
    ///
    /// Panics when the box dimensions do not match the region.
    pub fn intersect(&mut self, lo: &[f64], hi: &[f64]) {
        assert_eq!(lo.len(), self.dim(), "intersect: lo dimension");
        assert_eq!(hi.len(), self.dim(), "intersect: hi dimension");
        for i in 0..self.lo.len() {
            let new_lo = self.lo[i].max(lo[i]);
            let new_hi = self.hi[i].min(hi[i]);
            if new_lo <= new_hi {
                self.lo[i] = new_lo;
                self.hi[i] = new_hi;
            } else {
                // Disjoint: collapse to the midpoint of the gap, which is
                // inside neither box but the most defensible single value.
                let mid = 0.5 * (new_lo + new_hi);
                self.lo[i] = mid;
                self.hi[i] = mid;
            }
        }
    }

    /// Collapses the region to an observed value.
    ///
    /// # Panics
    ///
    /// Panics when the value dimension does not match the region.
    pub fn collapse_to(&mut self, value: &[f64]) {
        assert_eq!(value.len(), self.dim(), "collapse_to: dimension");
        self.lo.copy_from_slice(value);
        self.hi.copy_from_slice(value);
    }

    /// The optimistic (lower, best-case) corner `min(U_t(x))`.
    pub fn optimistic(&self) -> &[f64] {
        &self.lo
    }

    /// The pessimistic (upper, worst-case) corner `max(U_t(x))`.
    pub fn pessimistic(&self) -> &[f64] {
        &self.hi
    }

    /// The diameter `‖max(U) − min(U)‖₂` (Eq. 13's selection score).
    /// Infinite while any coordinate is still unbounded.
    pub fn diameter(&self) -> f64 {
        let mut s = 0.0;
        for (l, h) in self.lo.iter().zip(&self.hi) {
            let d = h - l;
            if !d.is_finite() {
                return f64::INFINITY;
            }
            s += d * d;
        }
        s.sqrt()
    }

    /// `true` once the region is a single point.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_has_infinite_diameter() {
        let u = UncertaintyRegion::unbounded(3);
        assert_eq!(u.dim(), 3);
        assert_eq!(u.diameter(), f64::INFINITY);
        assert!(!u.is_point());
    }

    #[test]
    fn intersect_only_shrinks() {
        let mut u = UncertaintyRegion::unbounded(2);
        u.intersect(&[0.0, 0.0], &[10.0, 10.0]);
        let d1 = u.diameter();
        u.intersect(&[-5.0, 2.0], &[8.0, 20.0]);
        let d2 = u.diameter();
        assert!(d2 <= d1);
        assert_eq!(u.optimistic(), &[0.0, 2.0]);
        assert_eq!(u.pessimistic(), &[8.0, 10.0]);
    }

    #[test]
    fn disjoint_intersection_collapses_coordinate() {
        let mut u = UncertaintyRegion::unbounded(1);
        u.intersect(&[0.0], &[1.0]);
        u.intersect(&[2.0], &[3.0]); // disjoint
        assert!(u.is_point());
        assert!((u.optimistic()[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn collapse_and_point() {
        let mut u = UncertaintyRegion::unbounded(2);
        u.collapse_to(&[1.0, 2.0]);
        assert!(u.is_point());
        assert_eq!(u.diameter(), 0.0);
        let p = UncertaintyRegion::point(&[3.0, 4.0]);
        assert!(p.is_point());
        assert_eq!(p.optimistic(), p.pessimistic());
    }

    #[test]
    fn diameter_is_euclidean() {
        let mut u = UncertaintyRegion::unbounded(2);
        u.intersect(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((u.diameter() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "intersect: lo dimension")]
    fn intersect_checks_dimensions() {
        let mut u = UncertaintyRegion::unbounded(2);
        u.intersect(&[0.0], &[1.0, 1.0]);
    }
}
