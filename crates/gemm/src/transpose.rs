//! Materialized transposition.
//!
//! A product never needs it: `Aᵀ·B` and `A·Bᵀ` pass the zero-copy view
//! [`MatRef::t`](crate::MatRef::t) and the packers read it in place (NN
//! backpropagation's `dW = Xᵀ·dZ`, `dX = dZ·Wᵀ` do exactly that). This
//! cache-blocked copy is for callers that want an owned row-major
//! transpose, and is the reference the transposed-view tests compare
//! against.

use crate::matrix::{Mat, MatMut, MatRef};
use crate::scalar::Scalar;

/// Cache-blocked transposition: `dst = srcᵀ`. The transpose of a
/// transposed view is the plain view it transposes, copied row by row.
pub fn transpose_into<T: Scalar>(src: MatRef<'_, T>, mut dst: MatMut<'_, T>) {
    let (r, c) = (src.rows(), src.cols());
    assert_eq!(dst.rows(), c, "transpose shape mismatch");
    assert_eq!(dst.cols(), r, "transpose shape mismatch");
    if src.is_transposed() {
        dst.copy_from(src.t());
        return;
    }
    const B: usize = 32;
    for i0 in (0..r).step_by(B) {
        let imax = (i0 + B).min(r);
        for j0 in (0..c).step_by(B) {
            let jmax = (j0 + B).min(c);
            for i in i0..imax {
                let row = src.row(i);
                for (j, &v) in row.iter().enumerate().take(jmax).skip(j0) {
                    dst.set(j, i, v);
                }
            }
        }
    }
}

/// Allocate-and-return transpose.
pub fn transpose<T: Scalar>(src: MatRef<'_, T>) -> Mat<T> {
    let mut dst = Mat::zeros(src.cols(), src.rows());
    transpose_into(src, dst.as_mut());
    dst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbered(rows: usize, cols: usize) -> Mat<f64> {
        Mat::from_fn(rows, cols, |i, j| (i * cols + j) as f64 + 1.0)
    }

    #[test]
    fn transpose_small_and_blocked() {
        for (r, c) in [(3, 5), (33, 40), (64, 64), (1, 7)] {
            let a = numbered(r, c);
            let t = transpose(a.as_ref());
            assert_eq!((t.rows(), t.cols()), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t.at(j, i), a.at(i, j));
                }
            }
            // A transposed view transposes back to its source.
            assert_eq!(transpose(a.as_ref().t()), a);
        }
        let wide = numbered(4, 100);
        assert_eq!(transpose(wide.as_ref().t()), wide);
        let v = wide.as_ref().subview(1, 2, 3, 90);
        assert_eq!(transpose(v.t()), v.to_owned());
    }

    #[test]
    fn transpose_of_subview() {
        let big = numbered(10, 10);
        let v = big.as_ref().subview(2, 3, 4, 5);
        let t = transpose(v);
        assert_eq!(t.at(0, 0), big.at(2, 3));
        assert_eq!(t.at(4, 3), big.at(5, 7));
    }
}
