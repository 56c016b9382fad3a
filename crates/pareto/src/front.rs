//! Pareto-front extraction and non-dominated sorting.

use crate::dominance::{compare, Dominance};

/// Indices of the non-dominated points of `points` (minimization), in
/// ascending index order.
///
/// Duplicate optimal points are all kept (they dominate nothing and are
/// dominated by nothing). Points with NaN coordinates never enter the
/// front of a set that contains a finite point dominating them — but since
/// NaN compares incomparable, callers should filter NaN beforehand if they
/// want them excluded.
pub fn pareto_front(points: &[Vec<f64>]) -> Vec<usize> {
    let mut keep = Vec::new();
    'outer: for (i, p) in points.iter().enumerate() {
        for (j, q) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            match compare(q, p) {
                Dominance::Dominates => continue 'outer,
                // Of equal points keep only the first occurrence.
                Dominance::Equal if j < i => continue 'outer,
                _ => {}
            }
        }
        keep.push(i);
    }
    keep
}

/// The non-dominated points themselves (owned copies), deduplicated.
pub fn pareto_front_points(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    pareto_front(points)
        .into_iter()
        .map(|i| points[i].clone())
        .collect()
}

/// Fast non-dominated sort (the NSGA-II ranking): partitions `points` into
/// fronts `F0, F1, ...` where `F0` is the Pareto front, `F1` the front of
/// the remainder, and so on. Returns the fronts as index lists.
pub fn non_dominated_sort(points: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    // dominated_by[i]: how many points dominate i.
    // dominates_list[i]: indices that i dominates.
    let mut dominated_by = vec![0usize; n];
    let mut dominates_list: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            match compare(&points[i], &points[j]) {
                Dominance::Dominates => {
                    dominates_list[i].push(j);
                    dominated_by[j] += 1;
                }
                Dominance::DominatedBy => {
                    dominates_list[j].push(i);
                    dominated_by[i] += 1;
                }
                _ => {}
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominates_list[i] {
                dominated_by[j] -= 1;
                if dominated_by[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// NSGA-II crowding distance of each point *within one front*.
///
/// Boundary points of each objective get `f64::INFINITY`. Used by the
/// baseline implementations for diversity-aware selection.
pub fn crowding_distance(points: &[Vec<f64>]) -> Vec<f64> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let m = points[0].len();
    let mut dist = vec![0.0f64; n];
    if n <= 2 {
        return vec![f64::INFINITY; n];
    }
    #[allow(clippy::needless_range_loop)] // `obj` is a column index, not a row.
    for obj in 0..m {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            points[a][obj]
                .partial_cmp(&points[b][obj])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let lo = points[order[0]][obj];
        let hi = points[order[n - 1]][obj];
        dist[order[0]] = f64::INFINITY;
        dist[order[n - 1]] = f64::INFINITY;
        let range = hi - lo;
        if range <= 0.0 {
            continue;
        }
        for k in 1..(n - 1) {
            let gap = points[order[k + 1]][obj] - points[order[k - 1]][obj];
            dist[order[k]] += gap / range;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_filters_dominated() {
        let pts = vec![
            vec![1.0, 4.0],
            vec![2.0, 2.0],
            vec![4.0, 1.0],
            vec![3.0, 3.0], // dominated by (2,2)
            vec![5.0, 5.0], // dominated by all front members
        ];
        assert_eq!(pareto_front(&pts), vec![0, 1, 2]);
        assert_eq!(pareto_front_points(&pts).len(), 3);
    }

    #[test]
    fn front_of_single_point() {
        assert_eq!(pareto_front(&[vec![1.0, 1.0]]), vec![0]);
    }

    #[test]
    fn front_deduplicates_equal_points() {
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert_eq!(pareto_front(&pts), vec![0]);
    }

    #[test]
    fn front_empty_input() {
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn nds_ranks_layers() {
        let pts = vec![
            vec![1.0, 1.0], // F0
            vec![2.0, 2.0], // F1
            vec![3.0, 3.0], // F2
            vec![0.5, 4.0], // F0 (incomparable with (1,1))
        ];
        let fronts = non_dominated_sort(&pts);
        assert_eq!(fronts.len(), 3);
        assert_eq!(fronts[0], vec![0, 3]);
        assert_eq!(fronts[1], vec![1]);
        assert_eq!(fronts[2], vec![2]);
    }

    #[test]
    fn nds_union_is_everything() {
        let pts: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![(i % 4) as f64, (i / 4) as f64])
            .collect();
        let fronts = non_dominated_sort(&pts);
        let mut all: Vec<usize> = fronts.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nds_empty() {
        assert!(non_dominated_sort(&[]).is_empty());
    }

    #[test]
    fn crowding_boundary_is_infinite() {
        let pts = vec![
            vec![1.0, 4.0],
            vec![2.0, 3.0],
            vec![3.0, 2.0],
            vec![4.0, 1.0],
        ];
        let d = crowding_distance(&pts);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
        assert!(d[1].is_finite() && d[1] > 0.0);
        assert!(d[2].is_finite() && d[2] > 0.0);
    }

    #[test]
    fn crowding_small_fronts_all_infinite() {
        assert_eq!(crowding_distance(&[vec![1.0, 1.0]]), vec![f64::INFINITY]);
        assert_eq!(
            crowding_distance(&[vec![1.0, 2.0], vec![2.0, 1.0]]),
            vec![f64::INFINITY, f64::INFINITY]
        );
        assert!(crowding_distance(&[]).is_empty());
    }

    #[test]
    fn crowding_degenerate_objective_range() {
        // All equal in objective 0: the range-0 objective contributes
        // nothing, but boundary markers still apply.
        let pts = vec![vec![1.0, 1.0], vec![1.0, 2.0], vec![1.0, 3.0]];
        let d = crowding_distance(&pts);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[2], f64::INFINITY);
    }
}
