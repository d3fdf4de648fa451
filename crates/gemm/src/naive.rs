//! Triple-loop reference multiplication — the semantic oracle for tests.

use crate::matrix::{Mat, MatRef};
use crate::scalar::Scalar;

/// `C = A · B` by the ijk triple loop. Quadratically slower than the
/// blocked kernel; only used to validate it. Either operand may be a
/// transposed view (elements are read through [`MatRef::at`]).
pub fn matmul_naive<T: Scalar>(a: MatRef<'_, T>, b: MatRef<'_, T>) -> Mat<T> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must match");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Mat::zeros(m, n);
    for i in 0..m {
        let crow = &mut c.as_mut_slice()[i * n..(i + 1) * n];
        for p in 0..k {
            let aip = a.at(i, p);
            for (j, cij) in crow.iter_mut().enumerate() {
                *cij = aip.mul_add(b.at(p, j), *cij);
            }
        }
    }
    c
}

/// `C = A · B` in f64 regardless of the input scalar type — the
/// high-precision reference used for APA error measurement (the paper
/// measures f32 algorithms against a double-precision classical result).
pub fn matmul_naive_f64<T: Scalar>(a: MatRef<'_, T>, b: MatRef<'_, T>) -> Mat<f64> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must match");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Mat::zeros(m, n);
    for i in 0..m {
        let crow = &mut c.as_mut_slice()[i * n..(i + 1) * n];
        for p in 0..k {
            let aip = a.at(i, p).to_f64();
            for (j, cij) in crow.iter_mut().enumerate() {
                *cij += aip * b.at(p, j).to_f64();
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat;

    #[test]
    fn identity_multiplication() {
        let i3 = Mat::<f64>::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        let a = Mat::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let c = matmul_naive(i3.as_ref(), a.as_ref());
        assert_eq!(c, a);
        let c2 = matmul_naive(a.as_ref(), i3.as_ref());
        assert_eq!(c2, a);
    }

    #[test]
    fn known_small_product() {
        let a = Mat::from_vec(2, 2, vec![1.0f32, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(2, 2, vec![5.0f32, 6.0, 7.0, 8.0]);
        let c = matmul_naive(a.as_ref(), b.as_ref());
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn rectangular_shapes() {
        let a = Mat::from_fn(2, 3, |i, j| (i + j) as f64);
        let b = Mat::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let c = matmul_naive(a.as_ref(), b.as_ref());
        assert_eq!((c.rows(), c.cols()), (2, 4));
        // c[1][2] = Σ_p a[1][p]·b[p][2] = 1·2 + 2·6 + 3·10 = 44
        assert_eq!(c.at(1, 2), 44.0);
    }

    #[test]
    fn transposed_views_match_materialized_transposes() {
        let a = Mat::from_fn(3, 4, |i, j| (i * 4 + j) as f64 - 5.0);
        let b = Mat::from_fn(2, 4, |i, j| (i + 2 * j) as f64 * 0.5);
        let bt = b.as_ref().t().to_owned();
        let at = a.as_ref().t().to_owned();
        assert_eq!(
            matmul_naive(a.as_ref(), b.as_ref().t()),
            matmul_naive(a.as_ref(), bt.as_ref())
        );
        assert_eq!(
            matmul_naive_f64(at.as_ref().t(), bt.as_ref()),
            matmul_naive_f64(a.as_ref(), bt.as_ref())
        );
    }

    #[test]
    fn f64_reference_matches_for_f64_inputs() {
        let a = Mat::from_fn(3, 3, |i, j| (i as f64 - j as f64) * 0.5);
        let b = Mat::from_fn(3, 3, |i, j| (i * j) as f64 + 1.0);
        let c1 = matmul_naive(a.as_ref(), b.as_ref());
        let c2 = matmul_naive_f64(a.as_ref(), b.as_ref());
        assert_eq!(c1, c2);
    }
}
