//! Multithreaded GEMM: 2D cache-aware decomposition over a shared pool.
//!
//! The output is tiled into the (MC × NC) grid of the tuned blocking and
//! the cells are drained through an atomic work-queue (round-robin start,
//! steal from the most-loaded lane), so ragged shapes never idle trailing
//! workers. Within one call the packed B panels are shared: for every
//! `(jc, pc)` block the *first* worker to need the panel claims it with a
//! CAS, packs it once into a per-call arena, and publishes it; every other
//! worker reuses the published bytes. A packing is worker-local (its MC×KC
//! slivers live in L2 of the consuming core). This is the BLIS-style
//! cooperative decomposition — the old row-stripe driver re-packed the
//! whole of B once *per worker*, which capped scaling at the packing
//! bandwidth.
//!
//! **Bitwise contract.** Each cell is exactly one (ic, jc) block pair of
//! the single-threaded driver's loop nest and runs the same
//! `blocked::gemm_core` over the full depth `k` in the same pc order, with
//! the same `β` handling (caller's β on the first rank-k update, 1 after)
//! and the same packed layouts (a shared panel is packed by the same
//! `pack_b_terms` sweep from the same addresses a local pack would read).
//! Operands are term lists throughout; a plain matrix is `[(1, a)]`.
//! Cells write disjoint output blocks, so the result is bitwise equal to
//! the single-threaded run regardless of which worker computes which cell
//! and in which order — the property the `parallel2d` proptests pin down.
//!
//! A B operand that carries a [`crate::PackedB`] ([`crate::Mat::prepack`])
//! builds no arena: every cell reads the prepacked panels directly, the
//! same bytes a claim would have packed.
//!
//! First-touch NUMA placement falls out of the claim protocol: arena
//! buffers start empty and are grown/written by the claiming worker, so
//! with pinned workers (see [`crate::pool`]) the pages land on the
//! consuming core's node without any explicit placement call.

use crate::abft::{self, AbftSession};
use crate::blocked::{
    gemm_combined_st, gemm_core, pack_b_flip_armed, with_cached_scratch, with_subviews,
    BPanelSource, BlockSizes, PackedPanel,
};
use crate::blocktune::block_sizes;
use crate::kernel::kernel_spec;
use crate::matrix::{MatMut, MatRef};
use crate::pack::{pack_b_terms, terms_shape};
use crate::pool::{pool, Par, PoolError};
use crate::prepack::PackedB;
use crate::scalar::Scalar;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Process-wide counters of the cooperative-packing machinery (monotone;
/// read with [`par_stats`]). `panels_packed`/`panels_reused` measure the
/// sharing win directly: the old row-stripe driver would have packed
/// `panels_packed + panels_reused` panels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Shared B panels packed into arenas (once per `(jc, pc)` per call).
    pub panels_packed: u64,
    /// Panel fetches served from an already-published arena slot.
    pub panels_reused: u64,
    /// Cells a worker stole from another lane's chunk.
    pub cells_stolen: u64,
    /// CAS attempts on panel slots (claim traffic).
    pub claim_ops: u64,
}

static PANELS_PACKED: AtomicU64 = AtomicU64::new(0);
static PANELS_REUSED: AtomicU64 = AtomicU64::new(0);
static CELLS_STOLEN: AtomicU64 = AtomicU64::new(0);
static CLAIM_OPS: AtomicU64 = AtomicU64::new(0);
/// Arenas currently alive (diagnostics: must be 0 whenever no parallel
/// call is in flight, including after a lane panic).
static LIVE_ARENAS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Parallel-machinery operations performed *by this thread*: arena
    /// builds, slot claims, queue pops. The `Par::Seq` path must leave it
    /// untouched — the zero-atomics regression test keys off it (global
    /// counters would race with concurrent tests).
    static THREAD_PAR_OPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn note_par_op() {
    THREAD_PAR_OPS.with(|c| c.set(c.get() + 1));
}

/// Snapshot of the process-wide cooperative-packing counters.
pub fn par_stats() -> ParStats {
    ParStats {
        panels_packed: PANELS_PACKED.load(Ordering::Relaxed),
        panels_reused: PANELS_REUSED.load(Ordering::Relaxed),
        cells_stolen: CELLS_STOLEN.load(Ordering::Relaxed),
        claim_ops: CLAIM_OPS.load(Ordering::Relaxed),
    }
}

/// Number of shared packing arenas currently alive (0 when no parallel
/// call is in flight — the lane-panic drill asserts this).
pub fn live_arenas() -> usize {
    LIVE_ARENAS.load(Ordering::SeqCst)
}

/// Parallel-machinery operations performed by the calling thread so far
/// (see `THREAD_PAR_OPS`).
pub fn thread_par_ops() -> u64 {
    THREAD_PAR_OPS.with(|c| c.get())
}

const SLOT_EMPTY: u8 = 0;
const SLOT_CLAIMED: u8 = 1;
const SLOT_READY: u8 = 2;
const SLOT_POISONED: u8 = 3;

/// One shared B panel: a `(jc, pc)` block packed at most once per call.
/// The state machine `EMPTY → CLAIMED → READY` (or `POISONED` if the
/// packer unwinds) handshakes all access to the `UnsafeCell` buffers:
/// exclusive while CLAIMED, immutable-shared once READY.
struct PanelSlot<T> {
    state: AtomicU8,
    buf: UnsafeCell<Vec<T>>,
    /// Fused ABFT row sums / magnitudes of the packed panel (filled only
    /// when the call runs under an ABFT session).
    sum: UnsafeCell<Vec<f64>>,
    mag: UnsafeCell<Vec<f64>>,
}

// SAFETY: the contents of the UnsafeCells are only written by the worker
// that won the EMPTY→CLAIMED CAS and only read after an Acquire load of
// READY (published with a Release store) — the state machine serializes
// every access.
unsafe impl<T: Send + Sync> Sync for PanelSlot<T> {}

impl<T> PanelSlot<T> {
    fn new() -> Self {
        Self {
            state: AtomicU8::new(SLOT_EMPTY),
            buf: UnsafeCell::new(Vec::new()),
            sum: UnsafeCell::new(Vec::new()),
            mag: UnsafeCell::new(Vec::new()),
        }
    }
}

/// Per-call arena of shared B panels: `jcb × slabs` slots, slot
/// `jc_idx · slabs + slab` holding the packed `(jc, pc)` block. Dropped
/// (and with it every packed buffer) when the driving call returns — on
/// success *and* on a lane panic, which the drill test pins down. The
/// embedded counters are per-call (race-free to assert on); the driver
/// folds them into the process-wide totals when it returns.
struct PanelArena<T> {
    slots: Vec<PanelSlot<T>>,
    slabs: usize,
    packed: AtomicU64,
    reused: AtomicU64,
    claims: AtomicU64,
}

impl<T> PanelArena<T> {
    fn new(jcb: usize, slabs: usize) -> Self {
        note_par_op();
        LIVE_ARENAS.fetch_add(1, Ordering::SeqCst);
        let mut slots = Vec::with_capacity(jcb * slabs);
        slots.resize_with(jcb * slabs, PanelSlot::new);
        Self {
            slots,
            slabs,
            packed: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            claims: AtomicU64::new(0),
        }
    }
}

impl<T> Drop for PanelArena<T> {
    fn drop(&mut self) {
        LIVE_ARENAS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Sets the slot POISONED if the packing sweep unwinds, so sibling
/// workers spinning on CLAIMED fail fast (with a typed panic that drains
/// through the pool's barrier) instead of spinning forever.
struct PoisonGuard<'a>(&'a AtomicU8);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        self.0.store(SLOT_POISONED, Ordering::Release);
    }
}

/// The [`BPanelSource`] a worker hands to `gemm_core` for one cell:
/// resolves KC-slab indices to the B operand's own panels when it carries
/// a matching pack, else to shared arena slots of the cell's jc block,
/// claiming + packing on first demand.
struct SharedPanels<'a, T: Scalar> {
    /// The call's arena; `None` exactly when `prepacked` is read instead.
    arena: Option<&'a PanelArena<T>>,
    /// The full B operand (the cell's column window is cut per slab).
    b_terms: &'a [(T, MatRef<'a, T>)],
    /// jc block index and its column window in the full operand.
    jc_idx: usize,
    jc0: usize,
    cols: usize,
    kc: usize,
    k: usize,
    nr: usize,
    /// The call's ABFT session: pack fused row sums alongside the panel.
    session: Option<&'a AbftSession>,
    /// The B operand's own panels, when it carries a matching pack and no
    /// pack-B flip is armed for the call.
    prepacked: Option<&'a PackedB<T>>,
}

impl<T: Scalar> SharedPanels<'_, T> {
    /// Pack slab `slab` into `slot` of `arena` (exclusive access granted
    /// by the EMPTY→CLAIMED CAS), then publish READY.
    fn pack_into(&self, arena: &PanelArena<T>, slot: &PanelSlot<T>, slab: usize) {
        let pc = slab * self.kc;
        let kc = self.kc.min(self.k - pc);
        let guard = PoisonGuard(&slot.state);
        // SAFETY: this worker won the CAS; no other thread touches the
        // cells until the READY store below.
        unsafe {
            let buf = &mut *slot.buf.get();
            let sums = self
                .session
                .is_some()
                .then(|| (&mut *slot.sum.get(), &mut *slot.mag.get()));
            with_subviews(self.b_terms, pc, self.jc0, kc, self.cols, |sub| {
                pack_b_terms(sub, buf, self.nr, sums)
            });
            // The single pack site of the call: injected pack-B flips
            // land here (and are then seen by every consumer, exactly as
            // a single-threaded run would propagate them).
            #[cfg(feature = "fault-inject")]
            crate::blocked::flip_pack_b(buf, self.cols, kc, self.nr, self.session);
        }
        arena.packed.fetch_add(1, Ordering::Relaxed);
        std::mem::forget(guard);
        slot.state.store(SLOT_READY, Ordering::Release);
    }
}

impl<T: Scalar> BPanelSource<T> for SharedPanels<'_, T> {
    fn panel(&self, slab: usize) -> PackedPanel<'_, T> {
        let Some(arena) = self.arena else {
            let p = self
                .prepacked
                .expect("a call without an arena reads a pack");
            let (buf, sums) = p.panel(self.jc_idx, slab);
            return (buf, sums.filter(|_| self.session.is_some()));
        };
        let slot = &arena.slots[self.jc_idx * arena.slabs + slab];
        let mut packed_here = false;
        let mut spins = 0u32;
        loop {
            match slot.state.load(Ordering::Acquire) {
                SLOT_READY => break,
                SLOT_EMPTY => {
                    note_par_op();
                    arena.claims.fetch_add(1, Ordering::Relaxed);
                    if slot
                        .state
                        .compare_exchange(
                            SLOT_EMPTY,
                            SLOT_CLAIMED,
                            Ordering::Acquire,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                    {
                        self.pack_into(arena, slot, slab);
                        packed_here = true;
                        break;
                    }
                }
                SLOT_CLAIMED => {
                    // Another worker is packing; on oversubscribed or
                    // single-core machines it may be descheduled, so
                    // yield periodically instead of pure spinning.
                    spins += 1;
                    if spins.is_multiple_of(64) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                _ => panic!("shared B panel poisoned by a packing-lane panic"),
            }
        }
        if !packed_here {
            arena.reused.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: READY was published with Release by the packer and
        // loaded with Acquire above; the slot is never written again.
        unsafe {
            let buf: &[T] = &*slot.buf.get();
            let sums = if self.session.is_some() {
                Some(((*slot.sum.get()).as_slice(), (*slot.mag.get()).as_slice()))
            } else {
                None
            };
            (buf, sums)
        }
    }
}

/// Atomic cell queue: the cell list (jc-major, so one lane's contiguous
/// chunk shares jc panels) is split into one balanced contiguous chunk per
/// worker, each encoded `head << 32 | tail` in a single atomic. A worker
/// pops from its own chunk's front; when dry it steals one cell from the
/// *back* of the most-loaded victim (back-stealing keeps the victim's
/// panel locality intact longest).
struct CellQueue {
    chunks: Vec<AtomicU64>,
    steals: AtomicU64,
}

impl CellQueue {
    fn new(cells: usize, workers: usize) -> Self {
        let chunks = (0..workers)
            .map(|w| {
                let lo = (cells * w / workers) as u64;
                let hi = (cells * (w + 1) / workers) as u64;
                AtomicU64::new(lo << 32 | hi)
            })
            .collect();
        Self {
            chunks,
            steals: AtomicU64::new(0),
        }
    }

    fn pop(&self, w: usize) -> Option<usize> {
        note_par_op();
        let me = &self.chunks[w];
        loop {
            let cur = me.load(Ordering::Acquire);
            let (h, t) = ((cur >> 32) as u32, cur as u32);
            if h >= t {
                break;
            }
            let next = (u64::from(h) + 1) << 32 | u64::from(t);
            if me
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(h as usize);
            }
        }
        loop {
            let mut best: Option<(usize, u64, u32)> = None;
            for (i, ch) in self.chunks.iter().enumerate() {
                if i == w {
                    continue;
                }
                let cur = ch.load(Ordering::Acquire);
                let (h, t) = ((cur >> 32) as u32, cur as u32);
                if t > h && best.is_none_or(|(_, _, rem)| t - h > rem) {
                    best = Some((i, cur, t - h));
                }
            }
            let (i, cur, _) = best?;
            let (h, t) = ((cur >> 32) as u32, cur as u32);
            let next = u64::from(h) << 32 | u64::from(t - 1);
            if self.chunks[i]
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some((t - 1) as usize);
            }
        }
    }
}

/// Disjoint mutable cell views of the output, handed out by raw parts.
/// Disjointness holds because the queue yields every cell index exactly
/// once and cells tile `C` without overlap.
struct CellGrid<T> {
    ptr: *mut T,
    rs: usize,
}

// SAFETY: workers receive views of pairwise-disjoint cells (see above);
// the pointer itself is Send/Sync-neutral data.
unsafe impl<T: Send> Sync for CellGrid<T> {}

impl<T: Scalar> CellGrid<T> {
    /// # Safety
    /// The caller must pass each `(ic0, jc0)` cell at most once per queue
    /// drain so no two live views overlap.
    unsafe fn cell(&self, ic0: usize, jc0: usize, rows: usize, cols: usize) -> MatMut<'_, T> {
        MatMut::from_raw_parts(self.ptr.add(ic0 * self.rs + jc0), rows, cols, self.rs)
    }
}

/// Run one operand pair single-threaded with explicit blocking — the
/// ≤1-worker fast path of the 2D driver and the reference the bitwise
/// tests compare against. Touches none of the arena/queue machinery.
fn run_st_with_blocks<T: Scalar>(
    alpha: T,
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    beta: T,
    c: MatMut<'_, T>,
    bs: BlockSizes,
) {
    let spec = kernel_spec::<T>();
    let session = abft::current();
    with_cached_scratch(|scratch| {
        gemm_core(
            &spec,
            bs,
            alpha,
            a_terms,
            b_terms,
            beta,
            c,
            scratch,
            session.as_deref(),
            None,
        );
    });
}

/// The 2D parallel driver. Returns this call's cooperative-packing stats
/// (also folded into the process totals) so tests can assert pack-once
/// behaviour race-free.
fn gemm_2d<T: Scalar>(
    alpha: T,
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    beta: T,
    mut c: MatMut<'_, T>,
    threads: usize,
    bs: BlockSizes,
) -> Result<ParStats, PoolError> {
    let ((m, k), (kb, n)) = (terms_shape(a_terms), terms_shape(b_terms));
    assert_eq!(k, kb, "inner dimensions must match");
    assert_eq!(m, c.rows(), "C row count mismatch");
    assert_eq!(n, c.cols(), "C column count mismatch");

    if m == 0 || n == 0 {
        return Ok(ParStats::default());
    }

    if threads <= 1 {
        // A degenerate thread budget gains nothing from claim machinery;
        // run the sequential core directly (no arena, no atomics —
        // asserted by the Seq-path regression test).
        run_st_with_blocks(alpha, a_terms, b_terms, beta, c, bs);
        return Ok(ParStats::default());
    }

    let icb = m.div_ceil(bs.mc);
    let jcb = n.div_ceil(bs.nc);
    let cells = icb * jcb;
    // A multi-lane request always dispatches through the pool, even when
    // the tuned blocking collapses the grid to fewer cells than lanes:
    // callers asking for threads >= 2 are buying the pool's panic
    // isolation and watchdog (a classical `try_multiply_into` must
    // surface a lane death as a typed error on any shape), not just
    // throughput.
    let workers = threads.min(cells);

    let queue = CellQueue::new(cells, workers);
    let grid = CellGrid {
        ptr: c.as_mut_ptr(),
        rs: c.row_stride(),
    };
    // One session grab for the whole call; every cell checks under it.
    let session = abft::current();
    let session_ref = session.as_deref();
    // A B with a matching pack needs no arena — unless a pack-B flip is
    // armed for the call: it must land in the call's own pack, never in
    // the panels every later call reads.
    let prepacked =
        PackedB::of(b_terms, kernel_spec::<T>().nr, bs).filter(|_| !pack_b_flip_armed(session_ref));
    let arena = prepacked
        .is_none()
        .then(|| PanelArena::<T>::new(jcb, k.div_ceil(bs.kc)));

    let arena_ref = arena.as_ref();
    let queue_ref = &queue;
    let grid_ref = &grid;

    let result = pool(workers).try_scope(|s| {
        for w in 0..workers {
            s.spawn(move |_| {
                let spec = kernel_spec::<T>();
                with_cached_scratch::<T, _>(|scratch| {
                    while let Some(cell) = queue_ref.pop(w) {
                        // jc-major: consecutive cells of a chunk share
                        // the jc block and therefore its shared panels.
                        let jc_idx = cell / icb;
                        let ic_idx = cell % icb;
                        let ic0 = ic_idx * bs.mc;
                        let jc0 = jc_idx * bs.nc;
                        let rows = bs.mc.min(m - ic0);
                        let cols = bs.nc.min(n - jc0);
                        let panels = SharedPanels {
                            arena: arena_ref,
                            b_terms,
                            jc_idx,
                            jc0,
                            cols,
                            kc: bs.kc,
                            k,
                            nr: spec.nr,
                            session: session_ref,
                            prepacked,
                        };
                        // SAFETY: the queue yields each cell exactly once.
                        let c_cell = unsafe { grid_ref.cell(ic0, jc0, rows, cols) };
                        with_subviews(a_terms, ic0, 0, rows, k, |a_sub| {
                            with_subviews(b_terms, 0, jc0, k, cols, |b_sub| {
                                gemm_core(
                                    &spec,
                                    bs,
                                    alpha,
                                    a_sub,
                                    b_sub,
                                    beta,
                                    c_cell,
                                    scratch,
                                    session_ref,
                                    Some(&panels),
                                );
                            })
                        });
                    }
                });
            });
        }
    });

    let arena_count = |f: fn(&PanelArena<T>) -> &AtomicU64| {
        arena.as_ref().map_or(0, |a| f(a).load(Ordering::Relaxed))
    };
    let stats = ParStats {
        panels_packed: arena_count(|a| &a.packed),
        panels_reused: arena_count(|a| &a.reused),
        cells_stolen: queue.steals.load(Ordering::Relaxed),
        claim_ops: arena_count(|a| &a.claims),
    };
    PANELS_PACKED.fetch_add(stats.panels_packed, Ordering::Relaxed);
    PANELS_REUSED.fetch_add(stats.panels_reused, Ordering::Relaxed);
    CELLS_STOLEN.fetch_add(stats.cells_stolen, Ordering::Relaxed);
    CLAIM_OPS.fetch_add(stats.claim_ops, Ordering::Relaxed);
    result.map(|_| stats)
}

/// `C ← α·A·B + β·C` with the requested parallelism: [`gemm_combined`] on
/// the unit term lists. Panics if a worker lane panics; [`try_gemm`] is
/// the non-panicking variant.
pub fn gemm<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
    par: Par,
) {
    try_gemm(alpha, a, b, beta, c, par).unwrap_or_else(|e| panic!("apa_gemm::gemm: {e}"));
}

/// [`gemm`] surfacing a panicked worker lane as a typed
/// [`PoolError::WorkerPanicked`] instead of unwinding. On `Err` the pool
/// has already drained (no lane is left running, the shared packing arena
/// is released) and stays usable, but `C` may be partially written.
pub fn try_gemm<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
    par: Par,
) -> Result<(), PoolError> {
    try_gemm_combined(alpha, &[(T::ONE, a)], &[(T::ONE, b)], beta, c, par)
}

/// GEMM with the requested parallelism:
/// `C ← α·(Σ cᵃᵢ·Aᵢ)·(Σ cᵇⱼ·Bⱼ) + β·C`, operand combinations formed inside
/// the pack sweep (see [`gemm_combined_st`]). The B panels are packed
/// once per `(jc, pc)` block per call, not once per worker. Panics if a
/// worker lane panics; [`try_gemm_combined`] is the non-panicking variant.
pub fn gemm_combined<T: Scalar>(
    alpha: T,
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    beta: T,
    c: MatMut<'_, T>,
    par: Par,
) {
    try_gemm_combined(alpha, a_terms, b_terms, beta, c, par)
        .unwrap_or_else(|e| panic!("apa_gemm::gemm_combined: {e}"));
}

/// [`gemm_combined`] surfacing a panicked worker lane as a typed
/// [`PoolError::WorkerPanicked`]. Same drain/partial-write semantics as
/// [`try_gemm`].
pub fn try_gemm_combined<T: Scalar>(
    alpha: T,
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    beta: T,
    c: MatMut<'_, T>,
    par: Par,
) -> Result<(), PoolError> {
    match par.normalize() {
        Par::Seq => {
            gemm_combined_st(alpha, a_terms, b_terms, beta, c);
            Ok(())
        }
        Par::Threads(t) => {
            gemm_2d(alpha, a_terms, b_terms, beta, c, t, block_sizes::<T>()).map(|_| ())
        }
    }
}

/// Test seams: the 2D driver and its single-threaded reference with
/// *explicit* block sizes, so integration tests can force multi-cell
/// grids (and real panel sharing) on shapes small enough to proptest.
/// Semantics match the public entry points, which always use the tuned
/// [`block_sizes`].
#[doc(hidden)]
pub mod hooks {
    use super::*;

    /// 2D-parallel gemm with explicit blocking. Returns the call's
    /// cooperative-packing stats.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_2d_with_blocks<T: Scalar>(
        alpha: T,
        a_terms: &[(T, MatRef<'_, T>)],
        b_terms: &[(T, MatRef<'_, T>)],
        beta: T,
        c: MatMut<'_, T>,
        threads: usize,
        bs: BlockSizes,
    ) -> Result<ParStats, PoolError> {
        gemm_2d(alpha, a_terms, b_terms, beta, c, threads, bs)
    }

    /// Single-threaded reference with the same explicit blocking.
    pub fn gemm_st_with_blocks<T: Scalar>(
        alpha: T,
        a_terms: &[(T, MatRef<'_, T>)],
        b_terms: &[(T, MatRef<'_, T>)],
        beta: T,
        c: MatMut<'_, T>,
        bs: BlockSizes,
    ) {
        run_st_with_blocks(alpha, a_terms, b_terms, beta, c, bs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat;
    use crate::naive::matmul_naive;

    fn matmul_par<T: Scalar>(a: MatRef<'_, T>, b: MatRef<'_, T>, par: Par) -> Mat<T> {
        let mut c = Mat::zeros(a.rows(), b.cols());
        gemm(T::ONE, a, b, T::ZERO, c.as_mut(), par);
        c
    }

    fn rand_mat<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Mat<T> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Mat::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            T::from_f64(((state >> 32) as u32 as f64 / (1u64 << 31) as f64) - 1.0)
        })
    }

    #[test]
    fn parallel_matches_sequential() {
        let a = rand_mat::<f32>(97, 53, 1);
        let b = rand_mat::<f32>(53, 41, 2);
        let seq = matmul_par(a.as_ref(), b.as_ref(), Par::Seq);
        for threads in [2, 3, 4] {
            let par = matmul_par(a.as_ref(), b.as_ref(), Par::Threads(threads));
            assert!(par.rel_frobenius_error(&seq) < 1e-6, "threads={threads}");
        }
    }

    #[test]
    fn parallel_matches_naive_f64() {
        let a = rand_mat::<f64>(64, 80, 3);
        let b = rand_mat::<f64>(80, 48, 4);
        let got = matmul_par(a.as_ref(), b.as_ref(), Par::Threads(4));
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(got.rel_frobenius_error(&expect) < 1e-12);
    }

    #[test]
    fn beta_accumulation_under_parallelism() {
        let a = rand_mat::<f64>(32, 32, 5);
        let b = rand_mat::<f64>(32, 32, 6);
        let c0 = rand_mat::<f64>(32, 32, 7);
        let mut c = c0.clone();
        gemm(
            1.0,
            a.as_ref(),
            b.as_ref(),
            1.0,
            c.as_mut(),
            Par::Threads(3),
        );
        let ab = matmul_naive(a.as_ref(), b.as_ref());
        for i in 0..32 {
            for j in 0..32 {
                assert!((c.at(i, j) - (ab.at(i, j) + c0.at(i, j))).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn more_threads_than_rows() {
        let a = rand_mat::<f32>(3, 10, 8);
        let b = rand_mat::<f32>(10, 5, 9);
        let got = matmul_par(a.as_ref(), b.as_ref(), Par::Threads(8));
        let expect = matmul_naive(a.as_ref(), b.as_ref());
        assert!(got.rel_frobenius_error(&expect) < 1e-6);
    }

    #[test]
    fn combined_parallel_matches_sequential_bitwise() {
        let a0 = rand_mat::<f32>(67, 41, 30);
        let a1 = rand_mat::<f32>(67, 41, 31);
        let b0 = rand_mat::<f32>(41, 53, 32);
        let b1 = rand_mat::<f32>(41, 53, 33);
        let a_terms = [(1.0f32, a0.as_ref()), (-0.5, a1.as_ref())];
        let b_terms = [(0.25f32, b0.as_ref()), (2.0, b1.as_ref())];
        let mut seq = Mat::<f32>::zeros(67, 53);
        gemm_combined(1.0, &a_terms, &b_terms, 0.0, seq.as_mut(), Par::Seq);
        for threads in [2, 3, 4] {
            let mut par = Mat::<f32>::zeros(67, 53);
            gemm_combined(
                1.0,
                &a_terms,
                &b_terms,
                0.0,
                par.as_mut(),
                Par::Threads(threads),
            );
            // Cells run the same per-element FMA chains as the ST loop
            // nest, so the decomposition never changes a single bit.
            for i in 0..67 {
                for j in 0..53 {
                    assert_eq!(
                        par.at(i, j).to_bits(),
                        seq.at(i, j).to_bits(),
                        "threads={threads} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn awkward_shapes_match_naive_under_parallelism() {
        for &(m, threads) in &[(64usize, 6usize), (65, 7), (17, 5), (9, 8), (33, 2)] {
            let a = rand_mat::<f64>(m, 40, m as u64);
            let b = rand_mat::<f64>(40, 31, threads as u64);
            let got = matmul_par(a.as_ref(), b.as_ref(), Par::Threads(threads));
            let expect = matmul_naive(a.as_ref(), b.as_ref());
            assert!(
                got.rel_frobenius_error(&expect) < 1e-12,
                "m={m} threads={threads}"
            );
        }
    }

    #[test]
    fn empty_matrices_are_noops() {
        let a = Mat::<f32>::zeros(0, 5);
        let b = Mat::<f32>::zeros(5, 4);
        let mut c = Mat::<f32>::zeros(0, 4);
        gemm(
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
            Par::Threads(2),
        );
    }

    #[test]
    fn k_zero_scales_in_parallel() {
        // k = 0 means the cells only apply β; the arena has zero slabs
        // and must never be consulted.
        let a = Mat::<f64>::zeros(40, 0);
        let b = Mat::<f64>::zeros(0, 40);
        let mut c = Mat::from_fn(40, 40, |i, j| (i + 2 * j) as f64);
        let orig = c.clone();
        let bs = BlockSizes {
            mc: 16,
            kc: 16,
            nc: 16,
        };
        let (at, bt) = ([(1.0, a.as_ref())], [(1.0, b.as_ref())]);
        hooks::gemm_2d_with_blocks(1.0, &at, &bt, 0.5, c.as_mut(), 4, bs).unwrap();
        for i in 0..40 {
            for j in 0..40 {
                assert_eq!(c.at(i, j), 0.5 * orig.at(i, j));
            }
        }
    }

    #[test]
    fn multi_cell_grid_is_bitwise_equal_to_st() {
        // Small blocks force a real multi-cell grid (3×3 cells, 2 slabs)
        // so panel sharing and stealing actually engage.
        let bs = BlockSizes {
            mc: 24,
            kc: 32,
            nc: 24,
        };
        let a = rand_mat::<f32>(70, 50, 40);
        let b = rand_mat::<f32>(50, 60, 41);
        let mut want = rand_mat::<f32>(70, 60, 42);
        let mut got = want.clone();
        let (at, bt) = ([(1.0, a.as_ref())], [(1.0, b.as_ref())]);
        hooks::gemm_st_with_blocks(1.25, &at, &bt, -0.5, want.as_mut(), bs);
        hooks::gemm_2d_with_blocks(1.25, &at, &bt, -0.5, got.as_mut(), 4, bs).unwrap();
        for i in 0..70 {
            for j in 0..60 {
                assert_eq!(got.at(i, j).to_bits(), want.at(i, j).to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn shared_panels_are_packed_once_per_call() {
        let bs = BlockSizes {
            mc: 16,
            kc: 64,
            nc: 32,
        };
        let a = rand_mat::<f64>(64, 64, 50);
        let b = rand_mat::<f64>(64, 64, 51);
        let mut c = Mat::<f64>::zeros(64, 64);
        let (at, bt) = ([(1.0, a.as_ref())], [(1.0, b.as_ref())]);
        let stats = hooks::gemm_2d_with_blocks(1.0, &at, &bt, 0.0, c.as_mut(), 4, bs).unwrap();
        // Grid: icb=4, jcb=2, slabs=1 → exactly jcb·slabs = 2 panels
        // packed once each; every one of the 8 cells fetches its panel
        // exactly once.
        assert_eq!(
            stats.panels_packed, 2,
            "each (jc, pc) panel must be packed exactly once: {stats:?}"
        );
        assert_eq!(
            stats.panels_packed + stats.panels_reused,
            8,
            "every cell fetches its panel exactly once (4 ic × 2 jc × 1 slab): {stats:?}"
        );
    }

    #[test]
    fn seq_path_performs_zero_parallel_ops() {
        let a = rand_mat::<f32>(40, 30, 60);
        let b = rand_mat::<f32>(30, 20, 61);
        let mut c = Mat::<f32>::zeros(40, 20);
        // Warm caches so lazy init doesn't count.
        gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut(), Par::Seq);
        let before = thread_par_ops();
        gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut(), Par::Seq);
        gemm(
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
            Par::Threads(1),
        );
        gemm(
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
            Par::Threads(0),
        );
        assert_eq!(
            thread_par_ops(),
            before,
            "single-threaded calls must never touch claim/queue machinery"
        );
    }
}
