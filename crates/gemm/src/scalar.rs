//! The scalar abstraction: the GEMM stack is generic over `f32`/`f64`.
//!
//! The paper runs all experiments in single precision (d = 23) and uses
//! double precision for reference results, so both instantiations matter.

/// Floating-point element type usable by the kernels.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + PartialEq
    + std::fmt::Debug
    + std::fmt::Display
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + 'static
{
    const ZERO: Self;
    const ONE: Self;
    /// Register-tile rows used by the microkernel for this type.
    const MR: usize;
    /// Register-tile columns used by the microkernel for this type.
    const NR: usize;
    /// Machine epsilon of this type, widened to f64 — the unit used by
    /// the ABFT residual tolerance.
    const EPS64: f64;

    fn from_f64(v: f64) -> Self;
    fn to_f64(self) -> f64;
    /// Fused (or contracted) multiply-add `self * b + c`.
    fn mul_add(self, b: Self, c: Self) -> Self;
    fn abs(self) -> Self;
    /// Flip one bit of the IEEE-754 representation (`bit` wraps to the
    /// element width). SDC injection and drill helper.
    fn flip_bit(self, bit: u32) -> Self;
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    // 8×8 f32 accumulator tile: 8 YMM registers on AVX2, 4 ZMM on AVX-512.
    const MR: usize = 8;
    const NR: usize = 8;
    const EPS64: f64 = f32::EPSILON as f64;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn mul_add(self, b: Self, c: Self) -> Self {
        // `mul_add` maps to an FMA instruction under target-cpu=native.
        f32::mul_add(self, b, c)
    }

    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }

    #[inline(always)]
    fn flip_bit(self, bit: u32) -> Self {
        f32::from_bits(self.to_bits() ^ (1u32 << (bit % 32)))
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    // 4×8 f64 tile: 8 YMM accumulators, leaving registers for the panels.
    const MR: usize = 4;
    const NR: usize = 8;
    const EPS64: f64 = f64::EPSILON;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn mul_add(self, b: Self, c: Self) -> Self {
        f64::mul_add(self, b, c)
    }

    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }

    #[inline(always)]
    fn flip_bit(self, bit: u32) -> Self {
        f64::from_bits(self.to_bits() ^ (1u64 << (bit % 64)))
    }
}

/// ±0, ± the smallest subnormal, ±∞ and NaN of `T`: the inputs on which a
/// copy and a multiply by one could be told apart.
#[cfg(test)]
pub(crate) fn special_values<T: Scalar>() -> [T; 7] {
    let tiny = if T::EPS64 == f64::EPSILON {
        5e-324
    } else {
        1e-45
    };
    [
        0.0,
        -0.0,
        tiny,
        -tiny,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ]
    .map(T::from_f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check<T: Scalar>() {
        assert_eq!(T::ZERO + T::ONE, T::ONE);
        assert_eq!(T::ONE.mul_add(T::ONE, T::ONE).to_f64(), 2.0);
        assert_eq!(T::from_f64(-1.5).abs().to_f64(), 1.5);
        assert!(T::MR > 0 && T::NR > 0);
        assert!(T::EPS64 > 0.0);
        // Flipping the sign bit negates; double flip restores bitwise.
        let v = T::from_f64(3.25);
        let neg = v.flip_bit(if T::EPS64 == f64::EPSILON { 63 } else { 31 });
        assert_eq!(neg.to_f64(), -3.25);
        assert_eq!(
            neg.flip_bit(if T::EPS64 == f64::EPSILON { 63 } else { 31 }),
            v
        );
    }

    #[test]
    fn f32_contract() {
        check::<f32>();
    }

    #[test]
    fn f64_contract() {
        check::<f64>();
    }
}
