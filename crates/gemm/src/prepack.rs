//! A B operand packed once, for a matrix multiplied many times unchanged —
//! a served layer's frozen weights.
//!
//! [`Mat::prepack`](crate::Mat::prepack) builds a [`PackedB`]: every
//! KC×NC panel the blocked driver would pack for the matrix, laid out
//! byte for byte as the driver's B packer lays them out for the dispatched
//! kernel's `nr` and the process [`block_sizes`], each with its fused ABFT
//! row sums. [`Mat::as_ref`](crate::Mat::as_ref) carries the pack on the
//! view, and the driver reads a panel from it instead of packing whenever
//! the B operand is exactly that view (see [`crate::blocked`]). The panels
//! are the very bytes a per-call pack writes, so every result is bitwise
//! that of the per-call path.

use crate::blocked::{BlockSizes, PackedPanel};
use crate::blocktune::block_sizes;
use crate::kernel::kernel_spec;
use crate::matrix::MatRef;
use crate::pack::pack_b_terms;
use crate::scalar::Scalar;

/// One packed `(jc, pc)` block of B and its ABFT `(b_sum, b_mag)` rows.
struct Panel<T> {
    data: Vec<T>,
    sum: Vec<f64>,
    mag: Vec<f64>,
}

/// Every B panel of one matrix, packed for one kernel width and one
/// blocking. Panel `jc_idx · slabs + slab` is the `(jc, pc)` block with
/// `jc = jc_idx · nc` and `pc = slab · kc`.
pub struct PackedB<T> {
    nr: usize,
    kc: usize,
    nc: usize,
    slabs: usize,
    panels: Vec<Panel<T>>,
}

impl<T: Scalar> PackedB<T> {
    /// Pack all of `b` for the dispatched kernel and the process blocking.
    pub(crate) fn new(b: MatRef<'_, T>) -> Self {
        let (nr, bs) = (kernel_spec::<T>().nr, block_sizes::<T>());
        let (k, n) = (b.rows(), b.cols());
        let slabs = k.div_ceil(bs.kc);
        let mut panels = Vec::with_capacity(n.div_ceil(bs.nc) * slabs);
        for jc in (0..n).step_by(bs.nc) {
            let nc = bs.nc.min(n - jc);
            for pc in (0..k).step_by(bs.kc) {
                let kc = bs.kc.min(k - pc);
                let mut p = Panel {
                    data: Vec::new(),
                    sum: Vec::new(),
                    mag: Vec::new(),
                };
                let sub = [(T::ONE, b.subview(pc, jc, kc, nc))];
                pack_b_terms(&sub, &mut p.data, nr, Some((&mut p.sum, &mut p.mag)));
                panels.push(p);
            }
        }
        Self {
            nr,
            kc: bs.kc,
            nc: bs.nc,
            slabs,
            panels,
        }
    }

    /// The pack a B term list carries, if the driver may read its panels
    /// instead of packing: the list is the unit list `[(1, b)]`, `b` is the
    /// view [`crate::Mat::as_ref`] of a prepacked matrix (no other view
    /// carries a pack), and the pack was built for this kernel width and
    /// blocking.
    pub(crate) fn of<'a>(
        b_terms: &[(T, MatRef<'a, T>)],
        nr: usize,
        bs: BlockSizes,
    ) -> Option<&'a PackedB<T>> {
        match b_terms {
            [(coeff, b)] if *coeff == T::ONE => b
                .prepacked()
                .filter(|p| (p.nr, p.kc, p.nc) == (nr, bs.kc, bs.nc)),
            _ => None,
        }
    }

    /// Panel `(jc_idx, slab)` and its ABFT row sums.
    pub(crate) fn panel(&self, jc_idx: usize, slab: usize) -> PackedPanel<'_, T> {
        let p = &self.panels[jc_idx * self.slabs + slab];
        (&p.data, Some((&p.sum, &p.mag)))
    }
}

impl<T> std::fmt::Debug for PackedB<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedB")
            .field("nr", &self.nr)
            .field("kc", &self.kc)
            .field("nc", &self.nc)
            .finish_non_exhaustive()
    }
}
