//! Small dense-tensor helpers on top of `apa_gemm::Mat<f32>`: bias
//! broadcast, column reductions, elementwise maps. None of them
//! transposes — a transposed matmul operand is the zero-copy view
//! [`apa_gemm::MatRef::t`], which the gemm packers read in place where
//! BLAS would take a `trans` flag — and none allocates: outputs go to
//! caller-owned buffers, so a training step reuses them.

use apa_gemm::{Mat, MatRef};

/// `X[i][j] += bias[j]` for every row — the dense-layer bias broadcast.
pub fn add_bias_rows(x: &mut Mat<f32>, bias: &[f32]) {
    assert_eq!(x.cols(), bias.len());
    let cols = x.cols();
    for i in 0..x.rows() {
        let row = &mut x.as_mut_slice()[i * cols..(i + 1) * cols];
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Column sums into `out` (resized to `x.cols()`) — the bias gradient
/// `db[j] = Σ_i dZ[i][j]`, each summed in row order. A transposed `x` is
/// read a contiguous column at a time, with the same per-sum order.
pub fn col_sums(x: MatRef<'_, f32>, out: &mut Vec<f32>) {
    out.clear();
    out.resize(x.cols(), 0.0);
    if x.is_transposed() {
        for (j, o) in out.iter_mut().enumerate() {
            for &v in x.col(j) {
                *o += v;
            }
        }
        return;
    }
    for i in 0..x.rows() {
        for (o, &v) in out.iter_mut().zip(x.row(i)) {
            *o += v;
        }
    }
}

/// In-place elementwise map.
pub fn map_inplace(x: &mut Mat<f32>, f: impl Fn(f32) -> f32) {
    for v in x.as_mut_slice() {
        *v = f(*v);
    }
}

/// `y ← y ⊙ mask` where `mask` is 1 where `z > 0` — the ReLU backward.
/// `z` may be the pre-activation or the ReLU output: they are `≤ 0` (or
/// NaN) at exactly the same entries.
pub fn relu_backward_inplace(grad: &mut Mat<f32>, z: &Mat<f32>) {
    assert_eq!(grad.rows(), z.rows());
    assert_eq!(grad.cols(), z.cols());
    for (g, &z) in grad.as_mut_slice().iter_mut().zip(z.as_slice()) {
        if z <= 0.0 {
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_broadcast() {
        let mut x = Mat::zeros(3, 2);
        add_bias_rows(&mut x, &[1.0, -2.0]);
        for i in 0..3 {
            assert_eq!(x.at(i, 0), 1.0);
            assert_eq!(x.at(i, 1), -2.0);
        }
    }

    #[test]
    fn column_sums() {
        let x = Mat::from_fn(4, 3, |i, _| i as f32);
        let mut out = vec![9.0; 7];
        col_sums(x.as_ref(), &mut out);
        assert_eq!(out, vec![6.0, 6.0, 6.0]);
        // A transposed view sums like its materialized transpose.
        let y = Mat::from_fn(3, 50, |i, j| ((i * 50 + j) as f32).sin());
        let yt = Mat::from_fn(50, 3, |i, j| y.at(j, i));
        let mut want = Vec::new();
        col_sums(yt.as_ref(), &mut want);
        col_sums(y.as_ref().t(), &mut out);
        assert_eq!(out, want);
    }

    #[test]
    fn relu_backward_masks_nonpositive() {
        let z = Mat::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        let mut g = Mat::from_vec(1, 4, vec![10.0, 10.0, 10.0, 10.0]);
        relu_backward_inplace(&mut g, &z);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 10.0, 10.0]);
        // Masking by the ReLU output instead of Z zeroes the same entries,
        // −0.0 and NaN included.
        let z = Mat::from_vec(1, 5, vec![-1.0, -0.0, 0.5, f32::NAN, -3.0]);
        let a = Mat::from_fn(1, 5, |_, j| {
            let v = z.at(0, j);
            if v < 0.0 {
                0.0
            } else {
                v
            }
        });
        let (mut by_z, mut by_a) = (
            Mat::from_fn(1, 5, |_, _| 1.0),
            Mat::from_fn(1, 5, |_, _| 1.0),
        );
        relu_backward_inplace(&mut by_z, &z);
        relu_backward_inplace(&mut by_a, &a);
        assert_eq!(by_z, by_a);
    }
}
