//! Output checks that do not trust the code under test: seeded operands,
//! an f64 reference computed by the harness's own loop, and the relative
//! Frobenius error of §2.3 over a 64-row sample.

use apa_gemm::Mat;
use apa_nn::MatmulBackend;

/// Rows of a verification product compared against the reference.
pub const SAMPLE_ROWS: usize = 64;
/// Tolerance for an exact (classical) product in f32.
pub const CLASSICAL_TOLERANCE: f64 = 1e-5;
/// An APA product may err by this multiple of the §2.3 model bound.
pub const APA_TOLERANCE_FACTOR: f64 = 4.0;

/// splitmix64: the harness's own generator, so inputs depend on `--seed`
/// and nothing else.
#[derive(Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (−1, 1).
    pub fn next_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f64 / (1u64 << 23) as f64 - 1.0) as f32
    }
}

pub fn uniform_mat(rows: usize, cols: usize, rng: &mut SplitMix) -> Mat<f32> {
    Mat::from_fn(rows, cols, |_, _| rng.next_f32())
}

/// Squared Frobenius norms `(‖c − a·b‖², ‖a·b‖²)` against the f64 product,
/// over at most [`SAMPLE_ROWS`] evenly spaced rows.
fn sampled_norms(a: &Mat<f32>, b: &Mat<f32>, c: &Mat<f32>) -> (f64, f64) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!((b.rows(), c.rows(), c.cols()), (k, m, n));
    let rows = m.min(SAMPLE_ROWS);
    let (mut num, mut den) = (0.0f64, 0.0f64);
    let mut reference = vec![0.0f64; n];
    for s in 0..rows {
        let i = s * m / rows;
        reference.fill(0.0);
        for p in 0..k {
            let aip = a.at(i, p) as f64;
            for (r, &bv) in reference.iter_mut().zip(b.as_ref().row(p)) {
                *r += aip * bv as f64;
            }
        }
        for (&r, &got) in reference.iter().zip(c.as_ref().row(i)) {
            let d = got as f64 - r;
            num += d * d;
            den += r * r;
        }
    }
    (num, den)
}

/// Multiply seeded operands of `shape` through `backend` and return the
/// sampled error of what came back. A shape with fewer than
/// [`SAMPLE_ROWS`] rows is multiplied several times on fresh operands
/// until that many rows are pooled, so every error rests on a sample of
/// the same size.
pub fn product_error(backend: &dyn MatmulBackend, shape: (usize, usize, usize), seed: u64) -> f64 {
    let (m, k, n) = shape;
    let mut rng = SplitMix(seed ^ ((m as u64) << 42) ^ ((k as u64) << 21) ^ n as u64);
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for _ in 0..SAMPLE_ROWS.div_ceil(m) {
        let a = uniform_mat(m, k, &mut rng);
        let b = uniform_mat(k, n, &mut rng);
        let c = backend.matmul(a.as_ref(), b.as_ref());
        let (e, r) = sampled_norms(&a, &b, &c);
        num += e;
        den += r;
    }
    (num / den).sqrt()
}

/// Tolerance for a multiplier built on `alg`-style parameters: 4× the
/// model bound for an approximate rule, the classical tolerance for an
/// exact one.
pub fn apa_tolerance(sigma: Option<u32>, phi: u32, steps: u32) -> f64 {
    match sigma {
        Some(sigma) => {
            APA_TOLERANCE_FACTOR
                * apa_core::error_model::error_bound(
                    sigma,
                    phi,
                    apa_core::error_model::D_SINGLE,
                    steps,
                )
        }
        None => CLASSICAL_TOLERANCE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_repeats_per_seed_and_stays_in_range() {
        let mut a = SplitMix(7);
        let mut b = SplitMix(7);
        let mut c = SplitMix(8);
        let xs: Vec<f32> = (0..1000).map(|_| a.next_f32()).collect();
        assert!(xs.iter().all(|x| (-1.0..1.0).contains(x)));
        assert!(xs
            .iter()
            .zip((0..1000).map(|_| b.next_f32()))
            .all(|(x, y)| *x == y));
        assert!(xs
            .iter()
            .zip((0..1000).map(|_| c.next_f32()))
            .any(|(x, y)| *x != y));
    }

    #[test]
    fn classical_products_pass_and_a_corrupted_one_does_not() {
        let be = apa_nn::classical(1);
        let err = product_error(be.as_ref(), (96, 70, 33), 3);
        assert!(err > 0.0 && err < CLASSICAL_TOLERANCE, "{err}");
        assert_eq!(err, product_error(be.as_ref(), (96, 70, 33), 3));

        let mut rng = SplitMix(1);
        let a = uniform_mat(8, 16, &mut rng);
        let b = uniform_mat(16, 8, &mut rng);
        let mut c = be.matmul(a.as_ref(), b.as_ref());
        c.set(3, 3, c.at(3, 3) + 1.0);
        let (num, den) = sampled_norms(&a, &b, &c);
        assert!((num / den).sqrt() > 1e-2);
    }

    #[test]
    fn apa_tolerance_follows_the_error_model() {
        // bini322: σ = 1, φ = 1 → bound 2^(−23/2).
        let tol = apa_tolerance(Some(1), 1, 1);
        assert!((tol - 4.0 * 2f64.powf(-11.5)).abs() < 1e-12);
        assert_eq!(apa_tolerance(None, 0, 1), CLASSICAL_TOLERANCE);
    }
}
