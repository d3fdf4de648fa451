//! Reusable execution workspaces: every buffer a (possibly recursive,
//! possibly peeled) APA multiplication needs, allocated **once** per
//! `(chain shape, operand shape, strategy, threads, peel mode)` and reused
//! across calls.
//!
//! The paper's training workloads call the same multiplication shape
//! thousands of times (three matmuls per layer per step, fixed batch and
//! widths). Allocating the `r` product buffers `M_t`, the `S_t`/`T_t`
//! combination scratch and the padded operands on every call puts the
//! allocator — not the gemm — on the hot path. A [`Workspace`] hoists all
//! of it:
//!
//! * per level: the `r` product matrices (`r·bm·bn` elements) plus one
//!   *lane* per concurrently executing task, each lane holding the
//!   `S_t` (`bm·bk`) and `T_t` (`bk·bn`) combination buffers — lanes are
//!   only allocated when the plan actually materializes combinations;
//! * per lane: a child workspace for the next recursion level (recursive
//!   sub-products always execute sequentially, so children carry one lane);
//! * for [`PeelMode::Pad`]: the three padded operand buffers.
//!
//! Total footprint per level ≈ `r·bm·bn + lanes·(bm·bk + bk·bn)` elements;
//! see [`Workspace::footprint_bytes`]. Combined with the thread-local gemm
//! pack cache in `apa-gemm`, a warm workspace makes repeated
//! multiplications allocation-free (pinned by the `zero_alloc` integration
//! test using `apa_gemm::CountingAlloc`).

use crate::exec::divisible;
use crate::peel::PeelMode;
use crate::plan::{Combo, ExecPlan};
use crate::schedule::{effective_strategy, FusionPolicy, Strategy};
use apa_gemm::{Mat, Scalar};
use std::borrow::Borrow;

/// One recursion level of preallocated buffers.
pub(crate) struct LevelWs<T> {
    /// The product matrices `M_t`, each `bm×bn` — except epilogue-fused
    /// products, whose slot is an empty `0×0` placeholder (their
    /// contribution lands in `C` straight from the gemm epilogue).
    pub(crate) products: Vec<Mat<T>>,
    /// One lane per concurrently executing task at this level.
    pub(crate) lanes: Vec<LaneWs<T>>,
    /// The fused-execution schedule, fixed at build time.
    pub(crate) fusion: FusionSpec,
    /// CSE temporaries (see [`crate::cse`]): A-side shared combinations
    /// (`bm×bk` each), materialized once per call before the product loop.
    pub(crate) a_temps: Vec<Mat<T>>,
    /// B-side CSE temporaries (`bk×bn` each).
    pub(crate) b_temps: Vec<Mat<T>>,
    /// W-side CSE temporaries (`bm×bn` each), formed from the products
    /// before the output pass.
    pub(crate) w_temps: Vec<Mat<T>>,
}

/// Per-level fusion decisions, computed once when the buffer tree is
/// built so the hot path takes no decisions and performs no allocations.
///
/// The spec deliberately stores only *structural* placement — product →
/// (output block, init flag) — and never the plan's output weights: a
/// workspace may be shared by any plan with the same structure (same rule
/// recompiled at a different λ, or a structurally identical sibling rule),
/// and the executor always reads the weight `w` from the *caller's* plan.
pub(crate) struct FusionSpec {
    pub(crate) policy: FusionPolicy,
    /// Per product `t`: `Some((block, init))` when the product's single
    /// output contribution lands in `block` straight from the gemm
    /// epilogue; `init` marks the block's first writer in execution order
    /// (β = 0; later writers accumulate with β = 1). Empty when no product
    /// at this level epilogue-fuses.
    epilogue: Vec<Option<(usize, bool)>>,
    /// Per output block: every contribution was epilogue-fused, so
    /// `write_outputs` skips the block. Empty iff `epilogue` is empty.
    block_fused: Vec<bool>,
}

impl FusionSpec {
    pub(crate) fn materialized(policy: FusionPolicy) -> Self {
        FusionSpec {
            policy,
            epilogue: Vec::new(),
            block_fused: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn epilogue_of(&self, t: usize) -> Option<(usize, bool)> {
        self.epilogue.get(t).copied().flatten()
    }

    #[inline]
    pub(crate) fn is_block_fused(&self, block: usize) -> bool {
        self.block_fused.get(block).copied().unwrap_or(false)
    }

    /// How many products at this level epilogue-fuse.
    pub(crate) fn fused_products(&self) -> usize {
        self.epilogue.iter().flatten().count()
    }

    /// Any epilogue fusion in the product index range `[0, owned)`.
    pub(crate) fn any_fused_below(&self, owned: usize) -> bool {
        self.epilogue
            .iter()
            .take(owned)
            .any(|placement| placement.is_some())
    }
}

/// Scratch owned by one executor lane (a spawned task, or the single
/// sequential executor).
pub(crate) struct LaneWs<T> {
    /// `S_t` combination buffer (`bm×bk`; `0×0` when never materialized).
    pub(crate) s_buf: Mat<T>,
    /// `T_t` combination buffer (`bk×bn`; `0×0` when never materialized).
    pub(crate) t_buf: Mat<T>,
    /// Sub-workspace for the next recursion level (sequential).
    pub(crate) child: Option<Box<LevelWs<T>>>,
}

/// Padded-operand buffers for [`PeelMode::Pad`]. The zero borders are
/// written once at construction and never touched again: calls only
/// overwrite the live top-left regions.
pub(crate) struct PadBufs<T> {
    pub(crate) ap: Mat<T>,
    pub(crate) bp: Mat<T>,
    pub(crate) cp: Mat<T>,
}

/// Shape signature of one chain level, used to validate reuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelKey {
    /// The rule's base dims `(m, k, n)`.
    pub base: (usize, usize, usize),
    pub rank: usize,
    /// Whether any A-side / B-side combination materializes at this level.
    pub need_s: bool,
    pub need_t: bool,
    /// CSE temp buffer counts `(a, b, w)`. Only the *counts* matter for
    /// sharing: the executor reads temp term lists from the caller's plan
    /// (like the output weights), so the buffers are shape-compatible
    /// whenever the counts match.
    pub temps: (usize, usize, usize),
    /// FNV-1a digest of the epilogue-fusion structure (0 when nothing
    /// fuses at this level). The product-buffer layout depends on which
    /// products fuse, so two plans may share a workspace only when they
    /// fuse the same products into the same blocks; the digest makes that
    /// check allocation-free (structurally different plans collide with
    /// probability ~2⁻⁶⁴).
    pub epilogue: u64,
}

/// Everything a [`Workspace`] was sized for. Two calls may share a
/// workspace iff their keys are equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WsKey {
    pub levels: Vec<LevelKey>,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub strategy: Strategy,
    pub threads: usize,
    pub peel: PeelMode,
    pub fusion: FusionPolicy,
}

/// A preallocated arena for one multiplication configuration. Build with
/// [`Workspace::for_chain`] (or [`crate::ApaMatmul::make_workspace`]) and
/// pass to the `*_ws` execution entry points; results are bitwise
/// identical to the allocate-per-call paths.
pub struct Workspace<T: Scalar> {
    pub(crate) key: WsKey,
    pub(crate) root: LevelWs<T>,
    pub(crate) pad: Option<PadBufs<T>>,
    pub(crate) runs: u64,
}

/// Whether the executor folds this combination into the gemm pack sweep
/// at a leaf level: under `Auto`, whenever its term list fits the
/// executor's inline (stack) stage, which keeps the steady state
/// allocation-free.
pub(crate) fn combo_pack_fusable(combo: &Combo, policy: FusionPolicy) -> bool {
    match policy {
        FusionPolicy::Never => false,
        FusionPolicy::Auto => match combo {
            Combo::Single { .. } => true,
            Combo::Multi(v) => v.len() <= crate::exec::MAX_INLINE_TERMS,
        },
    }
}

/// Whether `exec::with_combo_terms` materializes this combination into the
/// lane's `S`/`T` buffer — the one predicate both the executor and the
/// buffer sizing below consult.
pub(crate) fn combo_needs_buffer(combo: &Combo, recursive: bool, fusion: FusionPolicy) -> bool {
    match combo {
        // A singleton is used in place unless the product recurses and
        // the coefficient cannot fold into gemm's α.
        Combo::Single { coeff, .. } => recursive && *coeff != 1.0,
        // Recursive products consume real matrices; leaf products only
        // materialize combinations the pack sweep cannot absorb.
        Combo::Multi(_) => recursive || !combo_pack_fusable(combo, fusion),
    }
}

fn level_key(
    plan: &ExecPlan,
    recursive: bool,
    fusion: FusionPolicy,
    strategy: Strategy,
    threads: usize,
) -> LevelKey {
    let mask = fused_block_mask(plan, strategy, threads, recursive, fusion);
    LevelKey {
        base: (plan.dims.m, plan.dims.k, plan.dims.n),
        rank: plan.rank,
        need_s: plan
            .a_combos
            .iter()
            .any(|c| combo_needs_buffer(c, recursive, fusion)),
        need_t: plan
            .b_combos
            .iter()
            .any(|c| combo_needs_buffer(c, recursive, fusion)),
        temps: (plan.a_temps.len(), plan.b_temps.len(), plan.w_temps.len()),
        epilogue: epilogue_digest(plan, mask),
    }
}

/// Fan-out of product `t`: how many `C` blocks it feeds. Allocation-free.
fn fanout_of(plan: &ExecPlan, t: usize) -> usize {
    plan.c_outputs
        .iter()
        .flat_map(|c| c.iter())
        .filter(|&&(tt, _)| tt == t)
        .count()
}

/// Bitmask of the output blocks whose contributions all write into `C`
/// straight from the gemm epilogue. A block fuses iff **every** product
/// feeding it has fan-out 1 (a shared product written through the epilogue
/// would replay its gemm flops once per block) and, under Hybrid, all of
/// the block's owned-phase writers live in one thread's contiguous chunk
/// `[i·q, (i+1)·q)` — the β = 1 read-modify-writes of a shared block would
/// otherwise race across lanes. Remainder-phase writers (`t ≥ p·q`) run
/// sequentially after the owned phase, so they always accumulate safely.
/// BFS never epilogue-fuses (its lanes share no ordering to anchor β = 0
/// on), recursion levels never fuse (their products feed the parent, not
/// `C`), and plans with more than 64 output blocks never fuse.
///
/// Allocation-free so [`Workspace::matches`] can recompute it per
/// candidate plan.
pub(crate) fn fused_block_mask(
    plan: &ExecPlan,
    strategy: Strategy,
    threads: usize,
    recursive: bool,
    policy: FusionPolicy,
) -> u64 {
    let r = plan.rank;
    let (eff, eff_threads) = effective_strategy(strategy, threads, r);
    if recursive
        || policy == FusionPolicy::Never
        || eff == Strategy::Bfs
        || plan.c_outputs.len() > 64
        // W-side CSE temps are shared partial sums over products — the
        // products they read must materialize, so the level cannot
        // epilogue-fuse. (A/B-side temps are formed *before* the product
        // loop and coexist with pack fusion.)
        || !plan.w_temps.is_empty()
    {
        return 0;
    }
    // Owned-phase geometry (Seq/Dfs run everything as one ordered chunk;
    // Hybrid guarantees q ≥ 1 — `effective_strategy` coerces it to Dfs
    // whenever threads > rank).
    let q = if eff == Strategy::Hybrid {
        r / eff_threads
    } else {
        r
    };
    let owned = if eff == Strategy::Hybrid {
        eff_threads * q
    } else {
        r
    };
    let mut mask = 0u64;
    'blocks: for (block, contrib) in plan.c_outputs.iter().enumerate() {
        if contrib.is_empty() {
            continue;
        }
        let mut chunk = None;
        for &(t, _) in contrib {
            if fanout_of(plan, t) != 1 {
                continue 'blocks;
            }
            if t < owned {
                let c = t / q;
                if *chunk.get_or_insert(c) != c {
                    continue 'blocks;
                }
            }
        }
        mask |= 1 << block;
    }
    mask
}

/// FNV-1a fold of the fused-block structure (which blocks fuse, fed by
/// which products). 0 is reserved for "nothing fuses".
fn epilogue_digest(plan: &ExecPlan, mask: u64) -> u64 {
    if mask == 0 {
        return 0;
    }
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let fold = |h: &mut u64, x: u64| {
        for byte in x.to_le_bytes() {
            *h = (*h ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    };
    for (block, contrib) in plan.c_outputs.iter().enumerate() {
        if mask & (1 << block) == 0 {
            continue;
        }
        fold(&mut h, block as u64);
        for &(t, _) in contrib {
            fold(&mut h, t as u64);
        }
        fold(&mut h, u64::MAX); // block separator
    }
    h.max(1)
}

/// Expand [`fused_block_mask`] into the per-product placement table the
/// executor reads on the hot path. Returns empty vectors when nothing
/// fuses.
fn epilogue_schedule(
    plan: &ExecPlan,
    strategy: Strategy,
    threads: usize,
    recursive: bool,
    policy: FusionPolicy,
) -> (Vec<Option<(usize, bool)>>, Vec<bool>) {
    let mask = fused_block_mask(plan, strategy, threads, recursive, policy);
    if mask == 0 {
        return (Vec::new(), Vec::new());
    }
    let mut epilogue = vec![None; plan.rank];
    let mut block_fused = vec![false; plan.c_outputs.len()];
    for (block, contrib) in plan.c_outputs.iter().enumerate() {
        if mask & (1 << block) == 0 {
            continue;
        }
        // The lowest-t writer always executes first (owned phases run in
        // t order within a chunk, the remainder phase runs after, also in
        // t order), so it takes β = 0 and later writers accumulate.
        let init_t = contrib.iter().map(|&(t, _)| t).min().expect("non-empty");
        for &(t, _) in contrib {
            epilogue[t] = Some((block, t == init_t));
        }
        block_fused[block] = true;
    }
    (epilogue, block_fused)
}

/// Elementwise product of the chain's base dims — the divisor arbitrary
/// shapes are peeled/padded against.
pub(crate) fn chain_divisor<P: Borrow<ExecPlan>>(chain: &[P]) -> (usize, usize, usize) {
    let (mut dm, mut dk, mut dn) = (1usize, 1usize, 1usize);
    for plan in chain {
        let d = plan.borrow().dims;
        dm *= d.m;
        dk *= d.k;
        dn *= d.n;
    }
    (dm, dk, dn)
}

impl<T: Scalar> LevelWs<T> {
    /// A level that executes as a plain gemm leaf (no buffers).
    pub(crate) fn leaf() -> Self {
        LevelWs {
            products: Vec::new(),
            lanes: Vec::new(),
            fusion: FusionSpec::materialized(FusionPolicy::Never),
            a_temps: Vec::new(),
            b_temps: Vec::new(),
            w_temps: Vec::new(),
        }
    }

    pub(crate) fn elems(&self) -> usize {
        let area = |ms: &[Mat<T>]| ms.iter().map(|p| p.rows() * p.cols()).sum::<usize>();
        let products = area(&self.products);
        let temps = area(&self.a_temps) + area(&self.b_temps) + area(&self.w_temps);
        let lanes: usize = self
            .lanes
            .iter()
            .map(|l| {
                l.s_buf.rows() * l.s_buf.cols()
                    + l.t_buf.rows() * l.t_buf.cols()
                    + l.child.as_ref().map_or(0, |c| c.elems())
            })
            .sum();
        products + temps + lanes
    }
}

/// Build the buffer tree for `chain` on an `m×k·k×n` product. Stops at the
/// first level whose dims don't divide (the executor gemms there).
pub(crate) fn build_level<T: Scalar, P: Borrow<ExecPlan>>(
    chain: &[P],
    m: usize,
    k: usize,
    n: usize,
    strategy: Strategy,
    threads: usize,
    fusion: FusionPolicy,
) -> LevelWs<T> {
    let Some(plan) = chain.first().map(Borrow::borrow) else {
        return LevelWs::leaf();
    };
    if !divisible(plan, m, k, n) {
        return LevelWs::leaf();
    }
    let d = plan.dims;
    let (bm, bk, bn) = (m / d.m, k / d.k, n / d.n);
    let r = plan.rank;
    let rest = &chain[1..];
    let recursive = !rest.is_empty();
    let key = level_key(plan, recursive, fusion, strategy, threads);
    let (eff, eff_threads) = effective_strategy(strategy, threads, r);
    let lane_count = match eff {
        Strategy::Seq | Strategy::Dfs => 1,
        Strategy::Bfs | Strategy::Hybrid => eff_threads,
    };
    let lanes = (0..lane_count)
        .map(|_| LaneWs {
            s_buf: if key.need_s {
                Mat::zeros(bm, bk)
            } else {
                Mat::zeros(0, 0)
            },
            t_buf: if key.need_t {
                Mat::zeros(bk, bn)
            } else {
                Mat::zeros(0, 0)
            },
            child: recursive
                .then(|| Box::new(build_level(rest, bm, bk, bn, Strategy::Seq, 1, fusion))),
        })
        .collect();
    let (epilogue, block_fused) = epilogue_schedule(plan, strategy, threads, recursive, fusion);
    let products = (0..r)
        .map(|t| {
            if epilogue.get(t).is_some_and(Option::is_some) {
                Mat::zeros(0, 0)
            } else {
                Mat::zeros(bm, bn)
            }
        })
        .collect();
    LevelWs {
        products,
        lanes,
        fusion: FusionSpec {
            policy: fusion,
            epilogue,
            block_fused,
        },
        a_temps: (0..key.temps.0).map(|_| Mat::zeros(bm, bk)).collect(),
        b_temps: (0..key.temps.1).map(|_| Mat::zeros(bk, bn)).collect(),
        w_temps: (0..key.temps.2).map(|_| Mat::zeros(bm, bn)).collect(),
    }
}

impl<T: Scalar> Workspace<T> {
    /// Workspace for a uniform `steps`-deep recursion of a single plan.
    #[allow(clippy::too_many_arguments)]
    pub fn for_plan(
        plan: &ExecPlan,
        m: usize,
        k: usize,
        n: usize,
        steps: u32,
        strategy: Strategy,
        threads: usize,
        peel: PeelMode,
        fusion: FusionPolicy,
    ) -> Self {
        crate::exec::with_uniform_chain(plan, steps, |chain| {
            Self::for_chain(chain, m, k, n, strategy, threads, peel, fusion)
        })
    }

    /// Workspace for a non-stationary chain (one plan per level).
    #[allow(clippy::too_many_arguments)]
    pub fn for_chain<P: Borrow<ExecPlan>>(
        chain: &[P],
        m: usize,
        k: usize,
        n: usize,
        strategy: Strategy,
        threads: usize,
        peel: PeelMode,
        fusion: FusionPolicy,
    ) -> Self {
        // Only the root level runs the requested schedule; recursion levels
        // always execute sequentially inside their lane.
        let mut levels = Vec::with_capacity(chain.len());
        for (i, plan) in chain.iter().enumerate() {
            let (s, t) = if i == 0 {
                (strategy, threads)
            } else {
                (Strategy::Seq, 1)
            };
            levels.push(level_key(plan.borrow(), i + 1 < chain.len(), fusion, s, t));
        }
        let key = WsKey {
            levels,
            m,
            k,
            n,
            strategy,
            threads,
            peel,
            fusion,
        };

        let (dm, dk, dn) = chain_divisor(chain);
        let (root, pad) = if m.is_multiple_of(dm) && k.is_multiple_of(dk) && n.is_multiple_of(dn) {
            (build_level(chain, m, k, n, strategy, threads, fusion), None)
        } else {
            match peel {
                PeelMode::Dynamic => {
                    let (mc, kc, nc) = (m / dm * dm, k / dk * dk, n / dn * dn);
                    let root = if mc == 0 || kc == 0 || nc == 0 {
                        LevelWs::leaf()
                    } else {
                        build_level(chain, mc, kc, nc, strategy, threads, fusion)
                    };
                    (root, None)
                }
                PeelMode::Pad => {
                    let (mp, kp, np) = (
                        m.div_ceil(dm) * dm,
                        k.div_ceil(dk) * dk,
                        n.div_ceil(dn) * dn,
                    );
                    let pad = PadBufs {
                        ap: Mat::zeros(mp, kp),
                        bp: Mat::zeros(kp, np),
                        cp: Mat::zeros(mp, np),
                    };
                    (
                        build_level(chain, mp, kp, np, strategy, threads, fusion),
                        Some(pad),
                    )
                }
            }
        };

        Workspace {
            key,
            root,
            pad,
            runs: 0,
        }
    }

    /// Whether this workspace was sized for exactly this call. The
    /// comparison is allocation-free (no key is built for the candidate).
    #[allow(clippy::too_many_arguments)]
    pub fn matches<P: Borrow<ExecPlan>>(
        &self,
        chain: &[P],
        m: usize,
        k: usize,
        n: usize,
        strategy: Strategy,
        threads: usize,
        peel: PeelMode,
        fusion: FusionPolicy,
    ) -> bool {
        self.key.m == m
            && self.key.k == k
            && self.key.n == n
            && self.key.strategy == strategy
            && self.key.threads == threads
            && self.key.peel == peel
            && self.key.fusion == fusion
            && self.key.levels.len() == chain.len()
            && self
                .key
                .levels
                .iter()
                .zip(chain)
                .enumerate()
                .all(|(i, (lk, plan))| {
                    let (s, t) = if i == 0 {
                        (strategy, threads)
                    } else {
                        (Strategy::Seq, 1)
                    };
                    *lk == level_key(plan.borrow(), i + 1 < chain.len(), fusion, s, t)
                })
    }

    /// The configuration this workspace was built for.
    pub fn key(&self) -> &WsKey {
        &self.key
    }

    /// Completed runs through this workspace.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Runs beyond the first — i.e. how often the one-time allocation was
    /// amortized.
    pub fn reuses(&self) -> u64 {
        self.runs.saturating_sub(1)
    }

    pub(crate) fn note_run(&mut self) {
        self.runs += 1;
    }

    /// Bytes of matrix storage held (products + lane scratch across all
    /// levels, plus pad buffers). Per level this is
    /// `r·bm·bn + lanes·(bm·bk + bk·bn)` elements.
    pub fn footprint_bytes(&self) -> usize {
        let pad = self.pad.as_ref().map_or(0, |p| {
            p.ap.rows() * p.ap.cols() + p.bp.rows() * p.bp.cols() + p.cp.rows() * p.cp.cols()
        });
        (self.root.elems() + pad) * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apa_core::bilinear::Dims;
    use apa_core::catalog;

    #[test]
    fn strassen_workspace_shapes() {
        // FusionPolicy::Never pins the fully materialized reference layout.
        let plan = ExecPlan::compile(&catalog::strassen(), 0.0);
        let ws = Workspace::<f64>::for_plan(
            &plan,
            64,
            64,
            64,
            1,
            Strategy::Seq,
            1,
            PeelMode::Dynamic,
            FusionPolicy::Never,
        );
        assert_eq!(ws.root.products.len(), 7);
        assert_eq!(
            (ws.root.products[0].rows(), ws.root.products[0].cols()),
            (32, 32)
        );
        assert_eq!(ws.root.lanes.len(), 1);
        // Strassen has multi-term combos on both sides.
        assert_eq!(
            (ws.root.lanes[0].s_buf.rows(), ws.root.lanes[0].s_buf.cols()),
            (32, 32)
        );
        assert!(ws.root.lanes[0].child.is_none());
        // 7 products + 2 combo buffers, all 32×32 f64.
        assert_eq!(ws.footprint_bytes(), 9 * 32 * 32 * 8);
    }

    #[test]
    fn auto_pack_fusion_drops_combo_buffers() {
        // Under Auto, leaf combinations fold into the gemm pack sweep, so
        // the S/T buffers vanish. Strassen epilogue-fuses nothing (every
        // block has a fan-out > 1 writer), so the products stay.
        let plan = ExecPlan::compile(&catalog::strassen(), 0.0);
        let ws = Workspace::<f64>::for_plan(
            &plan,
            64,
            64,
            64,
            1,
            Strategy::Seq,
            1,
            PeelMode::Dynamic,
            FusionPolicy::Auto,
        );
        assert_eq!(ws.root.lanes[0].s_buf.rows(), 0);
        assert_eq!(ws.root.lanes[0].t_buf.rows(), 0);
        assert_eq!(ws.root.fusion.fused_products(), 0);
        assert_eq!(ws.footprint_bytes(), 7 * 32 * 32 * 8);
    }

    #[test]
    fn classical_plan_needs_no_combo_buffers() {
        let plan = ExecPlan::compile(&catalog::classical(Dims::new(2, 2, 2)), 0.0);
        let ws = Workspace::<f32>::for_plan(
            &plan,
            8,
            8,
            8,
            1,
            Strategy::Seq,
            1,
            PeelMode::Dynamic,
            FusionPolicy::Never,
        );
        assert_eq!(ws.root.lanes[0].s_buf.rows(), 0);
        assert_eq!(ws.root.lanes[0].t_buf.rows(), 0);
        assert_eq!(ws.root.products.len(), 8);
    }

    #[test]
    fn classical_epilogue_fuses_every_block() {
        // ⟨2,2,2;8⟩: every product feeds exactly one block, so under Auto
        // every contribution lands in C from the gemm epilogue and the
        // workspace holds no matrix storage at all.
        let plan = ExecPlan::compile(&catalog::classical(Dims::new(2, 2, 2)), 0.0);
        let ws = Workspace::<f32>::for_plan(
            &plan,
            8,
            8,
            8,
            1,
            Strategy::Seq,
            1,
            PeelMode::Dynamic,
            FusionPolicy::Auto,
        );
        assert_eq!(ws.root.fusion.fused_products(), 8);
        assert!(ws.root.products.iter().all(|p| p.rows() == 0));
        assert_eq!(ws.footprint_bytes(), 0);
        // Exactly one β = 0 initializer per output block.
        let inits = (0..8)
            .filter(|&t| matches!(ws.root.fusion.epilogue_of(t), Some((_, true))))
            .count();
        assert_eq!(inits, 4);
        for block in 0..4 {
            assert!(ws.root.fusion.is_block_fused(block));
        }
    }

    #[test]
    fn recursion_levels_never_epilogue_fuse() {
        // The root of a 2-step classical chain computes its products by
        // recursion (no single gemm to fuse into); the leaf child writes
        // the parent's product buffers and may fuse fully.
        let plan = ExecPlan::compile(&catalog::classical(Dims::new(2, 2, 2)), 0.0);
        let ws = Workspace::<f32>::for_plan(
            &plan,
            16,
            16,
            16,
            2,
            Strategy::Seq,
            1,
            PeelMode::Dynamic,
            FusionPolicy::Auto,
        );
        assert_eq!(ws.root.fusion.fused_products(), 0);
        assert!(ws.root.products.iter().all(|p| p.rows() == 8));
        let child = ws.root.lanes[0].child.as_ref().expect("child level");
        assert_eq!(child.fusion.fused_products(), 8);
    }

    /// A hand-built plan whose only interesting content is the C-output
    /// structure (the combos are placeholders; these plans are sized, never
    /// executed).
    fn synthetic(rank: usize, c_outputs: Vec<Vec<(usize, f64)>>) -> ExecPlan {
        ExecPlan {
            dims: Dims::new(2, 1, 1),
            rank,
            lambda: 0.0,
            a_combos: (0..rank)
                .map(|_| Combo::Single {
                    block: 0,
                    coeff: 1.0,
                })
                .collect(),
            b_combos: (0..rank)
                .map(|_| Combo::Single {
                    block: 0,
                    coeff: 1.0,
                })
                .collect(),
            c_outputs,
            name: "synthetic".into(),
            a_temps: Vec::new(),
            b_temps: Vec::new(),
            w_temps: Vec::new(),
        }
    }

    #[test]
    fn hybrid_demotes_blocks_spanning_owned_chunks() {
        // r = 4, 2 threads → q = 2, chunks {0,1} and {2,3}. Both blocks
        // straddle the chunks, so Hybrid demotes them; Seq fuses both.
        let plan = synthetic(4, vec![vec![(0, 1.0), (2, 1.0)], vec![(1, 1.0), (3, 1.0)]]);
        let auto = FusionPolicy::Auto;
        assert_eq!(fused_block_mask(&plan, Strategy::Seq, 1, false, auto), 0b11);
        assert_eq!(fused_block_mask(&plan, Strategy::Dfs, 2, false, auto), 0b11);
        assert_eq!(fused_block_mask(&plan, Strategy::Hybrid, 2, false, auto), 0);
        // BFS, recursion levels and Never all disable epilogue fusion.
        assert_eq!(fused_block_mask(&plan, Strategy::Bfs, 2, false, auto), 0);
        assert_eq!(fused_block_mask(&plan, Strategy::Seq, 1, true, auto), 0);
        assert_eq!(
            fused_block_mask(&plan, Strategy::Seq, 1, false, FusionPolicy::Never),
            0
        );
    }

    #[test]
    fn hybrid_remainder_writers_accumulate_safely() {
        // r = 5, 2 threads → q = 2, owned = 4, remainder = {4}. Block 0's
        // writers are chunk 0 plus the remainder (runs after both chunks,
        // sequentially) → fused. Block 1 straddles chunks 0/1 → demoted.
        let plan = synthetic(5, vec![vec![(0, 1.0), (4, 1.0)], vec![(1, 1.0), (3, 1.0)]]);
        assert_eq!(
            fused_block_mask(&plan, Strategy::Hybrid, 2, false, FusionPolicy::Auto),
            0b01
        );
    }

    #[test]
    fn fanout_gt_one_blocks_never_fuse() {
        // t = 0 feeds both blocks: writing it through the epilogue would
        // run its gemm twice, so neither block fuses.
        let plan = synthetic(2, vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0)]]);
        assert_eq!(
            fused_block_mask(&plan, Strategy::Seq, 1, false, FusionPolicy::Auto),
            0
        );
    }

    #[test]
    fn epilogue_structure_gates_workspace_sharing() {
        // Same dims, rank and buffer needs — but the products land in
        // different blocks, so the placement table cannot be shared.
        let plan_a = synthetic(4, vec![vec![(0, 1.0), (1, 1.0)], vec![(2, 1.0), (3, 1.0)]]);
        let plan_b = synthetic(4, vec![vec![(0, 1.0), (2, 1.0)], vec![(1, 1.0), (3, 1.0)]]);
        let ws = Workspace::<f32>::for_chain(
            &[&plan_a],
            8,
            4,
            4,
            Strategy::Seq,
            1,
            PeelMode::Dynamic,
            FusionPolicy::Auto,
        );
        let ok =
            |p: &ExecPlan, f| ws.matches(&[p], 8, 4, 4, Strategy::Seq, 1, PeelMode::Dynamic, f);
        assert!(ok(&plan_a, FusionPolicy::Auto));
        assert!(!ok(&plan_b, FusionPolicy::Auto));
        // Under Never both plans are structure-compatible (nothing fuses),
        // but a Never workspace is a different key than an Auto one.
        assert!(!ok(&plan_a, FusionPolicy::Never));
    }

    #[test]
    fn recursive_workspace_carries_children() {
        let plan = ExecPlan::compile(&catalog::strassen(), 0.0);
        let ws = Workspace::<f64>::for_plan(
            &plan,
            32,
            32,
            32,
            2,
            Strategy::Seq,
            1,
            PeelMode::Dynamic,
            FusionPolicy::Never,
        );
        let child = ws.root.lanes[0].child.as_ref().expect("child level");
        assert_eq!(child.products.len(), 7);
        assert_eq!((child.products[0].rows(), child.products[0].cols()), (8, 8));
        assert!(child.lanes[0].child.is_none());
    }

    #[test]
    fn parallel_strategies_get_one_lane_per_task() {
        let plan = ExecPlan::compile(&catalog::bini322(), 1e-4); // r = 10
        let mk = |strategy, threads| {
            Workspace::<f32>::for_plan(
                &plan,
                12,
                12,
                12,
                1,
                strategy,
                threads,
                PeelMode::Dynamic,
                FusionPolicy::Auto,
            )
        };
        assert_eq!(mk(Strategy::Seq, 4).root.lanes.len(), 1);
        assert_eq!(mk(Strategy::Dfs, 4).root.lanes.len(), 1);
        assert_eq!(mk(Strategy::Hybrid, 4).root.lanes.len(), 4);
        assert_eq!(mk(Strategy::Bfs, 4).root.lanes.len(), 4);
        // More threads than products: BFS caps lanes, Hybrid becomes DFS.
        assert_eq!(mk(Strategy::Bfs, 16).root.lanes.len(), 10);
        assert_eq!(mk(Strategy::Hybrid, 16).root.lanes.len(), 1);
        // One thread is sequential whatever was asked.
        assert_eq!(mk(Strategy::Hybrid, 1).root.lanes.len(), 1);
    }

    #[test]
    fn pad_mode_preallocates_padded_operands() {
        let plan = ExecPlan::compile(&catalog::strassen(), 0.0);
        let ws = Workspace::<f64>::for_plan(
            &plan,
            9,
            9,
            9,
            1,
            Strategy::Seq,
            1,
            PeelMode::Pad,
            FusionPolicy::Auto,
        );
        let pad = ws.pad.as_ref().expect("pad buffers");
        assert_eq!((pad.ap.rows(), pad.ap.cols()), (10, 10));
        assert_eq!((pad.cp.rows(), pad.cp.cols()), (10, 10));
        assert_eq!(ws.root.products.len(), 7);
    }

    #[test]
    fn matches_validates_shape_strategy_and_plan_structure() {
        let strassen = ExecPlan::compile(&catalog::strassen(), 0.0);
        let winograd = ExecPlan::compile(&catalog::winograd(), 0.0);
        let ws = Workspace::<f64>::for_chain(
            &[&strassen],
            16,
            16,
            16,
            Strategy::Seq,
            1,
            PeelMode::Dynamic,
            FusionPolicy::Auto,
        );
        let ok = |chain: &[&ExecPlan], m, strategy, threads, peel, fusion| {
            ws.matches(chain, m, 16, 16, strategy, threads, peel, fusion)
        };
        let (dyn_, auto) = (PeelMode::Dynamic, FusionPolicy::Auto);
        assert!(ok(&[&strassen], 16, Strategy::Seq, 1, dyn_, auto));
        assert!(!ok(&[&strassen], 18, Strategy::Seq, 1, dyn_, auto));
        assert!(!ok(&[&strassen], 16, Strategy::Hybrid, 2, dyn_, auto));
        assert!(!ok(&[&strassen], 16, Strategy::Seq, 1, PeelMode::Pad, auto));
        assert!(!ok(
            &[&strassen],
            16,
            Strategy::Seq,
            1,
            dyn_,
            FusionPolicy::Never
        ));
        assert!(!ok(&[], 16, Strategy::Seq, 1, dyn_, auto));
        // Same base dims and rank (⟨2,2,2;7⟩), and neither rule epilogue-
        // fuses — structure still compatible, so a same-shape rule may
        // share the workspace.
        assert!(ok(&[&winograd], 16, Strategy::Seq, 1, dyn_, auto));
    }

    #[test]
    fn run_counters_track_reuse() {
        let plan = ExecPlan::compile(&catalog::strassen(), 0.0);
        let mut ws = Workspace::<f64>::for_plan(
            &plan,
            8,
            8,
            8,
            1,
            Strategy::Seq,
            1,
            PeelMode::Dynamic,
            FusionPolicy::Auto,
        );
        assert_eq!((ws.runs(), ws.reuses()), (0, 0));
        ws.note_run();
        assert_eq!((ws.runs(), ws.reuses()), (1, 0));
        ws.note_run();
        assert_eq!((ws.runs(), ws.reuses()), (2, 1));
    }
}
