//! Row-major matrices and borrowed strided views.
//!
//! The APA execution engine works on *sub-blocks* of its operands (the
//! quadrants of a one-step ⟨4,4,4⟩ split, the rim of a peeled odd
//! dimension, …), so the core types are views with an explicit row stride:
//! a sub-block of a matrix is a zero-copy [`MatRef`]/[`MatMut`] whose rows
//! remain contiguous slices. Disjoint mutable sub-blocks of one matrix are
//! obtained through the splitting APIs, which encapsulate the aliasing
//! reasoning in one place.
//!
//! A transposed operand is a view too: [`MatRef::t`] swaps rows and
//! columns over the same storage, so `Xᵀ·dZ` is `gemm` on `x.t()` with no
//! copy of X. The packers read a transposed view in place (see
//! [`crate::pack`]); everything above them reaches operands only through
//! [`MatRef::subview`], which maps coordinates for either orientation.

use crate::scalar::Scalar;
use std::marker::PhantomData;

/// An owned, row-major, densely packed matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Mat<T> {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Reshape in place, reusing the existing storage. Newly exposed
    /// elements are zero; surviving elements keep their *linear* position
    /// (callers that care about contents should refill after resizing).
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, T::ZERO);
        self.rows = rows;
        self.cols = cols;
    }

    /// Take ownership of a row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Self { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Underlying row-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Immutable full view.
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef {
            ptr: self.data.as_ptr(),
            rows: self.rows,
            cols: self.cols,
            rs: self.cols,
            trans: false,
            _marker: PhantomData,
        }
    }

    /// Mutable full view.
    pub fn as_mut(&mut self) -> MatMut<'_, T> {
        MatMut {
            ptr: self.data.as_mut_ptr(),
            rows: self.rows,
            cols: self.cols,
            rs: self.cols,
            _marker: PhantomData,
        }
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Fill with a constant.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Relative Frobenius-norm distance to `other` (both in this scalar
    /// type), computed in f64: ‖self − other‖_F / ‖other‖_F.
    pub fn rel_frobenius_error(&self, other: &Mat<T>) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (x, y) in self.data.iter().zip(other.data.iter()) {
            let d = x.to_f64() - y.to_f64();
            num += d * d;
            den += y.to_f64() * y.to_f64();
        }
        (num / den.max(f64::MIN_POSITIVE)).sqrt()
    }
}

/// An immutable view of a (sub-)matrix: `rows × cols` over row-major
/// storage with stride `rs` between stored rows. A plain view's rows are
/// contiguous slices of length `cols` ([`Self::row`]); a transposed view
/// ([`Self::t`]) reads the same storage with the roles swapped, so its
/// *columns* are the contiguous slices ([`Self::col`]).
#[derive(Clone, Copy, Debug)]
pub struct MatRef<'a, T> {
    ptr: *const T,
    rows: usize,
    cols: usize,
    rs: usize,
    /// Element `(i, j)` is stored at `ptr + j·rs + i` instead of
    /// `ptr + i·rs + j`.
    trans: bool,
    _marker: PhantomData<&'a T>,
}

// SAFETY: MatRef is a read-only view; sharing it across threads is sharing
// &[T].
unsafe impl<T: Sync> Send for MatRef<'_, T> {}
unsafe impl<T: Sync> Sync for MatRef<'_, T> {}

impl<'a, T: Scalar> MatRef<'a, T> {
    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stride between stored rows: rows of a plain view, columns of a
    /// transposed one.
    pub fn row_stride(&self) -> usize {
        self.rs
    }

    /// The transpose, as a zero-copy view of the same storage: rows and
    /// columns swap, and `t().t()` is the original view.
    #[inline]
    pub fn t(&self) -> MatRef<'a, T> {
        MatRef {
            ptr: self.ptr,
            rows: self.cols,
            cols: self.rows,
            rs: self.rs,
            trans: !self.trans,
            _marker: PhantomData,
        }
    }

    /// Whether this view reads its storage transposed (see [`Self::t`]).
    #[inline]
    pub fn is_transposed(&self) -> bool {
        self.trans
    }

    /// Row `i` as a slice. Only a plain view has contiguous rows: panics
    /// on a transposed one (use [`Self::col`] or [`Self::at`]).
    #[inline]
    pub fn row(&self, i: usize) -> &'a [T] {
        assert!(!self.trans, "row() of a transposed view: use col()");
        assert!(i < self.rows, "row index out of bounds");
        // SAFETY: checked just above.
        unsafe { self.row_unchecked(i) }
    }

    /// Column `j` of a transposed view as a slice — one contiguous stored
    /// row of the source it transposes. Panics on a plain view.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [T] {
        assert!(self.trans, "col() of a plain view: use row()");
        assert!(j < self.cols, "column index out of bounds");
        // SAFETY: checked just above.
        unsafe { self.col_unchecked(j) }
    }

    /// [`Self::row`] without its checks, for the crate's sweeps that have
    /// already dispatched on [`Self::is_transposed`].
    ///
    /// # Safety
    /// The view must be plain (`!self.is_transposed()`) and `i < rows`.
    #[inline]
    pub(crate) unsafe fn row_unchecked(&self, i: usize) -> &'a [T] {
        debug_assert!(!self.trans, "row() of a transposed view: use col()");
        debug_assert!(i < self.rows);
        // SAFETY: the view invariant guarantees `ptr + i·rs .. + cols` is
        // in-bounds of the underlying allocation for every i < rows of a
        // plain view.
        std::slice::from_raw_parts(self.ptr.add(i * self.rs), self.cols)
    }

    /// [`Self::col`] without its checks.
    ///
    /// # Safety
    /// The view must be transposed and `j < cols`.
    #[inline]
    pub(crate) unsafe fn col_unchecked(&self, j: usize) -> &'a [T] {
        debug_assert!(self.trans, "col() of a plain view: use row()");
        debug_assert!(j < self.cols);
        // SAFETY: as `row_unchecked`, for the transposed source: `ptr +
        // j·rs .. + rows` is in-bounds for every j < cols.
        std::slice::from_raw_parts(self.ptr.add(j * self.rs), self.rows)
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        let (r, c) = if self.trans { (j, i) } else { (i, j) };
        unsafe { *self.ptr.add(r * self.rs + c) }
    }

    /// Zero-copy sub-block starting at `(r0, c0)`.
    pub fn subview(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> MatRef<'a, T> {
        assert!(r0 + rows <= self.rows, "subview rows out of bounds");
        assert!(c0 + cols <= self.cols, "subview cols out of bounds");
        let (sr, sc) = if self.trans { (c0, r0) } else { (r0, c0) };
        MatRef {
            // SAFETY: offset stays inside the parent view.
            ptr: unsafe { self.ptr.add(sr * self.rs + sc) },
            rows,
            cols,
            rs: self.rs,
            trans: self.trans,
            _marker: PhantomData,
        }
    }

    /// Partition into an `mb × nb` grid of equal blocks (dims must divide).
    pub fn grid(&self, mb: usize, nb: usize) -> Vec<MatRef<'a, T>> {
        assert_eq!(
            self.rows % mb,
            0,
            "rows {} not divisible by {mb}",
            self.rows
        );
        assert_eq!(
            self.cols % nb,
            0,
            "cols {} not divisible by {nb}",
            self.cols
        );
        let (br, bc) = (self.rows / mb, self.cols / nb);
        let mut out = Vec::with_capacity(mb * nb);
        for bi in 0..mb {
            for bj in 0..nb {
                out.push(self.subview(bi * br, bj * bc, br, bc));
            }
        }
        out
    }

    /// Copy into an owned (row-major) matrix.
    pub fn to_owned(&self) -> Mat<T> {
        let mut m = Mat::zeros(self.rows, self.cols);
        m.as_mut().copy_from(*self);
        m
    }
}

/// A mutable view of a (sub-)matrix. Unlike `&mut`, several `MatMut`s into
/// one allocation can coexist — but only the splitting APIs hand them out,
/// and those guarantee disjointness.
#[derive(Debug)]
pub struct MatMut<'a, T> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    rs: usize,
    _marker: PhantomData<&'a mut T>,
}

// SAFETY: a MatMut is an exclusive view of its (disjoint) block; moving it
// to another thread moves the exclusivity with it.
unsafe impl<T: Send> Send for MatMut<'_, T> {}
unsafe impl<T: Sync> Sync for MatMut<'_, T> {}

impl<'a, T: Scalar> MatMut<'a, T> {
    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn row_stride(&self) -> usize {
        self.rs
    }

    /// Raw mutable pointer to the `(0,0)` element (row stride
    /// [`Self::row_stride`]). For handing tiles to the microkernel.
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr
    }

    /// Reassemble a view from raw parts — the seam the 2D parallel driver
    /// uses to hand each worker its disjoint output cell.
    ///
    /// # Safety
    /// `ptr` must point at the `(0,0)` element of a live allocation such
    /// that `ptr + i·rs .. + cols` is in-bounds for every `i < rows`, and
    /// the caller must guarantee exclusivity of the viewed elements for
    /// lifetime `'a` (no other live view, mutable or shared, overlaps it).
    pub(crate) unsafe fn from_raw_parts(
        ptr: *mut T,
        rows: usize,
        cols: usize,
        rs: usize,
    ) -> MatMut<'a, T> {
        MatMut {
            ptr,
            rows,
            cols,
            rs,
            _marker: PhantomData,
        }
    }

    /// Reborrow: a shorter-lived mutable view of the same block.
    pub fn rb(&mut self) -> MatMut<'_, T> {
        MatMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            rs: self.rs,
            _marker: PhantomData,
        }
    }

    /// Immutable view of the same block.
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            rs: self.rs,
            trans: false,
            _marker: PhantomData,
        }
    }

    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        debug_assert!(i < self.rows);
        // SAFETY: exclusive view; row i is in-bounds and rows never alias
        // (rs ≥ cols by construction).
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.rs), self.cols) }
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        unsafe { *self.ptr.add(i * self.rs + j) }
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        unsafe { *self.ptr.add(i * self.rs + j) = v }
    }

    /// Consume into a sub-block (keeps exclusivity — no aliasing possible).
    pub fn into_subview(self, r0: usize, c0: usize, rows: usize, cols: usize) -> MatMut<'a, T> {
        assert!(r0 + rows <= self.rows, "subview rows out of bounds");
        assert!(c0 + cols <= self.cols, "subview cols out of bounds");
        MatMut {
            ptr: unsafe { self.ptr.add(r0 * self.rs + c0) },
            rows,
            cols,
            rs: self.rs,
            _marker: PhantomData,
        }
    }

    /// Shorter-lived sub-block view (borrows `self` mutably).
    pub fn subview_mut(&mut self, r0: usize, c0: usize, rows: usize, cols: usize) -> MatMut<'_, T> {
        self.rb().into_subview(r0, c0, rows, cols)
    }

    /// Split into (top, bottom) at row `r`.
    pub fn split_at_row(self, r: usize) -> (MatMut<'a, T>, MatMut<'a, T>) {
        assert!(r <= self.rows);
        let top = MatMut {
            ptr: self.ptr,
            rows: r,
            cols: self.cols,
            rs: self.rs,
            _marker: PhantomData,
        };
        let bottom = MatMut {
            // SAFETY: rows r.. are disjoint from rows ..r.
            ptr: unsafe { self.ptr.add(r * self.rs) },
            rows: self.rows - r,
            cols: self.cols,
            rs: self.rs,
            _marker: PhantomData,
        };
        (top, bottom)
    }

    /// Split into (left, right) at column `c`.
    pub fn split_at_col(self, c: usize) -> (MatMut<'a, T>, MatMut<'a, T>) {
        assert!(c <= self.cols);
        let left = MatMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: c,
            rs: self.rs,
            _marker: PhantomData,
        };
        let right = MatMut {
            // SAFETY: columns c.. are disjoint from columns ..c within
            // every row; both halves keep the parent stride.
            ptr: unsafe { self.ptr.add(c) },
            rows: self.rows,
            cols: self.cols - c,
            rs: self.rs,
            _marker: PhantomData,
        };
        (left, right)
    }

    /// Partition into an `mb × nb` grid of equal, disjoint mutable blocks
    /// (dims must divide). Row-major block order.
    pub fn into_grid(self, mb: usize, nb: usize) -> Vec<MatMut<'a, T>> {
        assert_eq!(
            self.rows % mb,
            0,
            "rows {} not divisible by {mb}",
            self.rows
        );
        assert_eq!(
            self.cols % nb,
            0,
            "cols {} not divisible by {nb}",
            self.cols
        );
        let (br, bc) = (self.rows / mb, self.cols / nb);
        let mut out = Vec::with_capacity(mb * nb);
        for bi in 0..mb {
            for bj in 0..nb {
                out.push(MatMut {
                    // SAFETY: blocks are pairwise disjoint by construction.
                    ptr: unsafe { self.ptr.add(bi * br * self.rs + bj * bc) },
                    rows: br,
                    cols: bc,
                    rs: self.rs,
                    _marker: PhantomData,
                });
            }
        }
        out
    }

    /// Split into horizontal stripes of at most `chunk` rows each —
    /// the unit of row-parallel work distribution.
    pub fn into_row_chunks(self, chunk: usize) -> Vec<MatMut<'a, T>> {
        assert!(chunk > 0);
        let mut out = Vec::new();
        let mut rest = self;
        while rest.rows > chunk {
            let (head, tail) = rest.split_at_row(chunk);
            out.push(head);
            rest = tail;
        }
        if rest.rows > 0 {
            out.push(rest);
        }
        out
    }

    /// Fill the block with a constant.
    pub fn fill(&mut self, v: T) {
        for i in 0..self.rows {
            self.row_mut(i).fill(v);
        }
    }

    /// Copy from a same-shaped source view (plain or transposed).
    pub fn copy_from(&mut self, src: MatRef<'_, T>) {
        assert_eq!(self.rows, src.rows());
        assert_eq!(self.cols, src.cols());
        if src.is_transposed() {
            for j in 0..self.cols {
                for (i, &v) in src.col(j).iter().enumerate() {
                    self.set(i, j, v);
                }
            }
            return;
        }
        for i in 0..self.rows {
            self.row_mut(i).copy_from_slice(src.row(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(rows: usize, cols: usize) -> Mat<f64> {
        Mat::from_fn(rows, cols, |i, j| (i * cols + j) as f64)
    }

    #[test]
    fn owned_basics() {
        let mut m = Mat::<f32>::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.at(1, 2), 5.0);
        assert_eq!(m.as_slice()[5], 5.0);
    }

    #[test]
    fn subview_reads_correct_entries() {
        let m = iota(4, 4);
        let v = m.as_ref().subview(1, 2, 2, 2);
        assert_eq!(v.at(0, 0), 6.0);
        assert_eq!(v.at(1, 1), 11.0);
        assert_eq!(v.row(0), &[6.0, 7.0]);
        assert_eq!(v.row_stride(), 4);
    }

    #[test]
    fn transposed_view_maps_coordinates() {
        let m = iota(3, 5);
        let t = m.as_ref().t();
        assert!(t.is_transposed() && !t.t().is_transposed());
        assert_eq!((t.rows(), t.cols()), (5, 3));
        for i in 0..5 {
            for j in 0..3 {
                assert_eq!(t.at(i, j), m.at(j, i));
            }
        }
        // Column j of the transpose is stored row j of the source.
        assert_eq!(t.col(1), m.as_ref().row(1));
        let s = t.subview(1, 1, 3, 2);
        assert_eq!(s.at(0, 0), m.at(1, 1));
        assert_eq!(s.at(2, 1), m.at(2, 3));
        assert_eq!(s.col(0), &[6.0, 7.0, 8.0]);
        assert_eq!(s.t().row(1), &[11.0, 12.0, 13.0]);
        assert_eq!(t.grid(5, 1)[4].at(0, 2), m.at(2, 4));
        let owned = t.to_owned();
        assert_eq!(owned, Mat::from_fn(5, 3, |i, j| m.at(j, i)));
        assert_eq!(owned.as_ref().t().to_owned(), m);
    }

    #[test]
    fn grid_partitions_quadrants() {
        let m = iota(4, 4);
        let g = m.as_ref().grid(2, 2);
        assert_eq!(g.len(), 4);
        assert_eq!(g[0].at(0, 0), 0.0);
        assert_eq!(g[1].at(0, 0), 2.0);
        assert_eq!(g[2].at(0, 0), 8.0);
        assert_eq!(g[3].at(1, 1), 15.0);
    }

    #[test]
    fn mutable_grid_blocks_are_disjoint_and_writable() {
        let mut m = Mat::<f64>::zeros(4, 6);
        {
            let blocks = m.as_mut().into_grid(2, 3);
            let mut blocks = blocks;
            for (idx, b) in blocks.iter_mut().enumerate() {
                b.fill(idx as f64);
            }
        }
        assert_eq!(m.at(0, 0), 0.0);
        assert_eq!(m.at(0, 2), 1.0);
        assert_eq!(m.at(0, 4), 2.0);
        assert_eq!(m.at(2, 0), 3.0);
        assert_eq!(m.at(3, 5), 5.0);
    }

    #[test]
    fn split_at_row_and_col() {
        let mut m = iota(4, 4);
        let (mut top, mut bottom) = m.as_mut().split_at_row(1);
        assert_eq!(top.rows(), 1);
        assert_eq!(bottom.rows(), 3);
        top.set(0, 0, -1.0);
        bottom.set(0, 0, -2.0);
        assert_eq!(m.at(0, 0), -1.0);
        assert_eq!(m.at(1, 0), -2.0);

        let (left, right) = m.as_mut().split_at_col(3);
        assert_eq!(left.cols(), 3);
        assert_eq!(right.cols(), 1);
        assert_eq!(right.at(2, 0), 11.0);
    }

    #[test]
    fn row_chunks_cover_all_rows() {
        let mut m = Mat::<f32>::zeros(7, 2);
        let chunks = m.as_mut().into_row_chunks(3);
        assert_eq!(
            chunks.iter().map(|c| c.rows()).collect::<Vec<_>>(),
            vec![3, 3, 1]
        );
    }

    #[test]
    fn copy_from_roundtrip() {
        let src = iota(3, 3);
        let mut dst = Mat::<f64>::zeros(3, 3);
        dst.as_mut().copy_from(src.as_ref());
        assert_eq!(dst, src);
    }

    #[test]
    fn rel_frobenius_error_zero_for_equal() {
        let a = iota(3, 2);
        assert_eq!(a.rel_frobenius_error(&a), 0.0);
        let mut b = a.clone();
        b.set(0, 0, 1.0);
        assert!(a.rel_frobenius_error(&b) > 0.0);
    }

    #[test]
    #[should_panic(expected = "row() of a transposed view")]
    fn row_of_transposed_view_panics() {
        let m = iota(4, 100);
        let _ = m.as_ref().t().row(99);
    }

    #[test]
    #[should_panic(expected = "col() of a plain view")]
    fn col_of_plain_view_panics() {
        let m = iota(4, 100);
        let _ = m.as_ref().col(0);
    }

    #[test]
    #[should_panic(expected = "subview rows out of bounds")]
    fn subview_bounds_checked() {
        let m = iota(2, 2);
        let _ = m.as_ref().subview(1, 0, 2, 1);
    }
}
