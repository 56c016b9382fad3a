//! Property-based tests for the dense linear-algebra substrate.

use linalg::{vecops, Cholesky, Matrix};
use proptest::prelude::*;

/// Strategy: a random matrix with entries in [-10, 10].
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("len matches"))
}

/// Strategy: a random SPD matrix built as `B·Bᵀ + n·I`.
fn spd_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(n, n).prop_map(move |b| {
        let mut a = b.matmul(&b.transpose()).expect("square product");
        a.add_diag(n as f64 + 1.0);
        a
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(m in matrix_strategy(4, 3)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associates_with_identity(m in matrix_strategy(3, 5)) {
        let left = Matrix::identity(3).matmul(&m).unwrap();
        let right = m.matmul(&Matrix::identity(5)).unwrap();
        prop_assert!(left.sub(&m).unwrap().max_abs() < 1e-12);
        prop_assert!(right.sub(&m).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn matmul_transpose_identity(a in matrix_strategy(3, 4), b in matrix_strategy(4, 2)) {
        // (A·B)ᵀ == Bᵀ·Aᵀ
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.sub(&rhs).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn cholesky_reconstructs(a in spd_strategy(5)) {
        let c = Cholesky::new(&a).unwrap();
        let l = c.factor();
        let rebuilt = l.matmul(&l.transpose()).unwrap();
        let scale = a.max_abs().max(1.0);
        prop_assert!(rebuilt.sub(&a).unwrap().max_abs() / scale < 1e-10);
    }

    #[test]
    fn cholesky_solve_is_inverse_application(a in spd_strategy(4), x in prop::collection::vec(-5.0f64..5.0, 4)) {
        let c = Cholesky::new(&a).unwrap();
        let b = a.matvec(&x).unwrap();
        let got = c.solve_vec(&b).unwrap();
        for (g, t) in got.iter().zip(&x) {
            prop_assert!((g - t).abs() < 1e-7, "got {g}, want {t}");
        }
    }

    #[test]
    fn dot_is_symmetric(v in prop::collection::vec(-10.0f64..10.0, 6),
                        w in prop::collection::vec(-10.0f64..10.0, 6)) {
        prop_assert!((vecops::dot(&v, &w) - vecops::dot(&w, &v)).abs() < 1e-12);
    }

    #[test]
    fn triangle_inequality(v in prop::collection::vec(-10.0f64..10.0, 6),
                           w in prop::collection::vec(-10.0f64..10.0, 6)) {
        let zero = vec![0.0; 6];
        let d_vw = vecops::dist(&v, &w);
        let d_v = vecops::dist(&v, &zero);
        let d_w = vecops::dist(&w, &zero);
        prop_assert!(d_vw <= d_v + d_w + 1e-12);
    }

    #[test]
    fn symmetrize_makes_symmetric(m in matrix_strategy(5, 5)) {
        let mut s = m;
        s.symmetrize();
        for i in 0..5 {
            for j in 0..5 {
                prop_assert_eq!(s[(i, j)], s[(j, i)]);
            }
        }
    }
}
