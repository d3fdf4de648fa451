//! Transposition.
//!
//! The blocked GEMM consumes row-major, non-transposed operands; a caller
//! that needs `Aᵀ·B` or `A·Bᵀ` materializes the transpose here with a
//! cache-blocked kernel. NN backpropagation (`dW = Xᵀ·dZ`, `dX = dZ·Wᵀ`)
//! is the primary consumer.

use crate::matrix::{Mat, MatMut, MatRef};
use crate::scalar::Scalar;

/// Cache-blocked transposition: `dst = srcᵀ`.
pub fn transpose_into<T: Scalar>(src: MatRef<'_, T>, mut dst: MatMut<'_, T>) {
    let (r, c) = (src.rows(), src.cols());
    assert_eq!(dst.rows(), c, "transpose shape mismatch");
    assert_eq!(dst.cols(), r, "transpose shape mismatch");
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
        }
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
