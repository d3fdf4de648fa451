//! Reusable execution workspaces: every buffer a (possibly recursive,
//! possibly peeled) APA multiplication needs, allocated **once** per
//! `(chain shape, operand shape, strategy, threads, peel mode, fusion)` and
//! reused across calls.
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
//! * for a ragged M under [`PeelMode::Dynamic`]: the zero-padded copy of
//!   A's last block row(s) (see [`MTail`]);
//! * for [`PeelMode::Pad`]: the three padded operand buffers.
//!
//! [`crate::ApaMatmul`] keeps one workspace per `(element type, shape)` in
//! its cache. Combined with the thread-local gemm pack cache in `apa-gemm`,
//! a warm workspace makes repeated multiplications allocation-free (pinned
//! by the `zero_alloc` integration test using `apa_gemm::CountingAlloc`).

use crate::exec::divisible;
use crate::peel::PeelMode;
use crate::plan::{Combo, ExecPlan};
use crate::schedule::{effective_strategy, FusionPolicy, Strategy};
use apa_gemm::{Mat, Scalar};
use std::borrow::Borrow;

/// One recursion level of preallocated buffers.
pub(crate) struct LevelWs<T> {
    /// The product matrices `M_t`, each `bm×bn`.
    pub(crate) products: Vec<Mat<T>>,
    /// One lane per concurrently executing task at this level.
    pub(crate) lanes: Vec<LaneWs<T>>,
    /// Whether leaf combinations fold into the gemm pack sweep; the lane
    /// buffers above are sized for it.
    pub(crate) policy: FusionPolicy,
    /// CSE temporaries (see [`crate::cse`]): A-side shared combinations
    /// (`bm×bk` each), materialized once per call before the product loop.
    pub(crate) a_temps: Vec<Mat<T>>,
    /// B-side CSE temporaries (`bk×bn` each).
    pub(crate) b_temps: Vec<Mat<T>>,
    /// W-side CSE temporaries (`bm×bn` each), formed from the products
    /// before the output pass.
    pub(crate) w_temps: Vec<Mat<T>>,
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

/// How a multiplication executes: everything besides the plans and the
/// operand shape that sizes a [`Workspace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ExecConfig {
    pub(crate) strategy: Strategy,
    pub(crate) threads: usize,
    pub(crate) peel: PeelMode,
    pub(crate) fusion: FusionPolicy,
}

/// Shape signature of one chain level, used to validate reuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LevelKey {
    /// The rule's base dims `(m, k, n)`.
    base: (usize, usize, usize),
    rank: usize,
    /// Whether any A-side / B-side combination materializes at this level.
    need_s: bool,
    need_t: bool,
    /// CSE temp buffer counts `(a, b, w)`. Only the *counts* matter for
    /// sharing: the executor reads temp term lists from the caller's plan
    /// (like the output weights), so the buffers are shape-compatible
    /// whenever the counts match.
    temps: (usize, usize, usize),
}

/// Everything a [`Workspace`] was sized for. Two calls may share a
/// workspace iff their keys are equal.
#[derive(Debug)]
pub(crate) struct WsKey {
    levels: Vec<LevelKey>,
    m: usize,
    k: usize,
    n: usize,
    pub(crate) config: ExecConfig,
}

/// A preallocated arena for one multiplication configuration, built by
/// [`Workspace::for_chain`] and run by [`crate::peel::run_chain`]. A fresh
/// workspace and a reused one produce bitwise-identical results.
pub(crate) struct Workspace<T: Scalar> {
    pub(crate) key: WsKey,
    pub(crate) root: LevelWs<T>,
    pub(crate) pad: Option<PadBufs<T>>,
    /// The padded tail of a ragged M (`MTail::rows × kc` elements; `0×0`
    /// when M divides). Reshaped per call to A's orientation.
    pub(crate) tail: Mat<T>,
}

/// How a ragged M runs under [`PeelMode::Dynamic`]: the chain multiplies
/// `M` rounded up to the chain divisor. Top-level block rows `0..head`
/// (`bm` rows each) are zero-copy views of A; the remaining `rows` rows
/// come from the tail buffer, a copy of A's last `m − head·bm` rows with
/// zero rows below. Only C's real rows are stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MTail {
    pub(crate) bm: usize,
    pub(crate) head: usize,
    pub(crate) rows: usize,
}

impl MTail {
    /// The padded height the chain runs on.
    pub(crate) fn padded(&self) -> usize {
        self.head * self.bm + self.rows
    }
}

/// The [`MTail`] of an `m`-row operand under `chain`: `None` when the
/// divisor divides `m`, or when `m` is smaller than it (the whole product
/// is then one classical gemm).
pub(crate) fn m_tail<P: Borrow<ExecPlan>>(chain: &[P], m: usize) -> Option<MTail> {
    let top = chain.first()?.borrow().dims.m;
    let (dm, _, _) = chain_divisor(chain);
    if m.is_multiple_of(dm) || m < dm {
        return None;
    }
    let bm = m.div_ceil(dm) * dm / top;
    let head = m / bm;
    Some(MTail {
        bm,
        head,
        rows: (top - head) * bm,
    })
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

fn level_key(plan: &ExecPlan, recursive: bool, fusion: FusionPolicy) -> LevelKey {
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
    }
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
            policy: FusionPolicy::Never,
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
    let key = level_key(plan, recursive, fusion);
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
    LevelWs {
        products: (0..r).map(|_| Mat::zeros(bm, bn)).collect(),
        lanes,
        policy: fusion,
        a_temps: (0..key.temps.0).map(|_| Mat::zeros(bm, bk)).collect(),
        b_temps: (0..key.temps.1).map(|_| Mat::zeros(bk, bn)).collect(),
        w_temps: (0..key.temps.2).map(|_| Mat::zeros(bm, bn)).collect(),
    }
}

impl<T: Scalar> Workspace<T> {
    /// Workspace for `chain` (one plan per recursion level, `chain[0]` at
    /// the top) on an `m×k·k×n` product under `config`.
    pub(crate) fn for_chain<P: Borrow<ExecPlan>>(
        chain: &[P],
        m: usize,
        k: usize,
        n: usize,
        config: ExecConfig,
    ) -> Self {
        let ExecConfig {
            strategy,
            threads,
            peel,
            fusion,
        } = config;
        let key = WsKey {
            levels: level_keys(chain, config.fusion).collect(),
            m,
            k,
            n,
            config,
        };
        let build = |m, k, n| build_level(chain, m, k, n, strategy, threads, fusion);

        let (dm, dk, dn) = chain_divisor(chain);
        let mut tail = Mat::zeros(0, 0);
        let (root, pad) = if m.is_multiple_of(dm) && k.is_multiple_of(dk) && n.is_multiple_of(dn) {
            (build(m, k, n), None)
        } else {
            match peel {
                PeelMode::Dynamic => {
                    let (kc, nc) = (k / dk * dk, n / dn * dn);
                    let root = if m < dm || kc == 0 || nc == 0 {
                        LevelWs::leaf()
                    } else if let Some(t) = m_tail(chain, m) {
                        tail = Mat::zeros(t.rows, kc);
                        build(t.padded(), kc, nc)
                    } else {
                        build(m, kc, nc)
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
                    (build(mp, kp, np), Some(pad))
                }
            }
        };

        Workspace {
            key,
            root,
            pad,
            tail,
        }
    }

    /// Whether this workspace was sized for exactly this call. The
    /// comparison is allocation-free (no key is built for the candidate).
    pub(crate) fn matches<P: Borrow<ExecPlan>>(
        &self,
        chain: &[P],
        m: usize,
        k: usize,
        n: usize,
        config: ExecConfig,
    ) -> bool {
        (self.key.m, self.key.k, self.key.n) == (m, k, n)
            && self.key.config == config
            && self
                .key
                .levels
                .iter()
                .copied()
                .eq(level_keys(chain, config.fusion))
    }

    /// Bytes of matrix storage held (products + lane scratch across all
    /// levels, plus pad buffers). Per level this is
    /// `r·bm·bn + lanes·(bm·bk + bk·bn)` elements.
    #[cfg(test)]
    fn footprint_bytes(&self) -> usize {
        let pad = self.pad.as_ref().map_or(0, |p| {
            p.ap.rows() * p.ap.cols() + p.bp.rows() * p.bp.cols() + p.cp.rows() * p.cp.cols()
        });
        let tail = self.tail.rows() * self.tail.cols();
        (self.root.elems() + pad + tail) * std::mem::size_of::<T>()
    }
}

/// The [`LevelKey`] of every level of `chain`.
fn level_keys<P: Borrow<ExecPlan>>(
    chain: &[P],
    fusion: FusionPolicy,
) -> impl Iterator<Item = LevelKey> + '_ {
    chain
        .iter()
        .enumerate()
        .map(move |(i, plan)| level_key(plan.borrow(), i + 1 < chain.len(), fusion))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apa_core::bilinear::Dims;
    use apa_core::catalog;

    fn cfg(strategy: Strategy, threads: usize, peel: PeelMode, fusion: FusionPolicy) -> ExecConfig {
        ExecConfig {
            strategy,
            threads,
            peel,
            fusion,
        }
    }

    #[test]
    fn strassen_workspace_shapes() {
        // FusionPolicy::Never pins the fully materialized reference layout.
        let plan = ExecPlan::compile(&catalog::strassen(), 0.0);
        let ws = Workspace::<f64>::for_chain(
            &[&plan],
            64,
            64,
            64,
            cfg(Strategy::Seq, 1, PeelMode::Dynamic, FusionPolicy::Never),
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
        // the S/T buffers vanish; the products stay.
        let plan = ExecPlan::compile(&catalog::strassen(), 0.0);
        let ws = Workspace::<f64>::for_chain(
            &[&plan],
            64,
            64,
            64,
            cfg(Strategy::Seq, 1, PeelMode::Dynamic, FusionPolicy::Auto),
        );
        assert_eq!(ws.root.lanes[0].s_buf.rows(), 0);
        assert_eq!(ws.root.lanes[0].t_buf.rows(), 0);
        assert_eq!(ws.footprint_bytes(), 7 * 32 * 32 * 8);
    }

    #[test]
    fn classical_plan_needs_no_combo_buffers() {
        let plan = ExecPlan::compile(&catalog::classical(Dims::new(2, 2, 2)), 0.0);
        let ws = Workspace::<f32>::for_chain(
            &[&plan],
            8,
            8,
            8,
            cfg(Strategy::Seq, 1, PeelMode::Dynamic, FusionPolicy::Never),
        );
        assert_eq!(ws.root.lanes[0].s_buf.rows(), 0);
        assert_eq!(ws.root.lanes[0].t_buf.rows(), 0);
        assert_eq!(ws.root.products.len(), 8);
    }

    #[test]
    fn recursion_levels_never_epilogue_fuse() {
        // Every level of a 2-step classical chain materializes its
        // products: the root's feed C through the output pass, the leaf
        // child's feed the parent's product buffers.
        let plan = ExecPlan::compile(&catalog::classical(Dims::new(2, 2, 2)), 0.0);
        let ws = Workspace::<f32>::for_chain(
            &[&plan; 2],
            16,
            16,
            16,
            cfg(Strategy::Seq, 1, PeelMode::Dynamic, FusionPolicy::Auto),
        );
        assert!(ws.root.products.iter().all(|p| p.rows() == 8));
        let child = ws.root.lanes[0].child.as_ref().expect("child level");
        assert!(child.products.iter().all(|p| p.rows() == 4));
    }

    #[test]
    fn recursive_workspace_carries_children() {
        let plan = ExecPlan::compile(&catalog::strassen(), 0.0);
        let ws = Workspace::<f64>::for_chain(
            &[&plan; 2],
            32,
            32,
            32,
            cfg(Strategy::Seq, 1, PeelMode::Dynamic, FusionPolicy::Never),
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
            Workspace::<f32>::for_chain(
                &[&plan],
                12,
                12,
                12,
                cfg(strategy, threads, PeelMode::Dynamic, FusionPolicy::Auto),
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
        let ws = Workspace::<f64>::for_chain(
            &[&plan],
            9,
            9,
            9,
            cfg(Strategy::Seq, 1, PeelMode::Pad, FusionPolicy::Auto),
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
            cfg(Strategy::Seq, 1, PeelMode::Dynamic, FusionPolicy::Auto),
        );
        let ok = |chain: &[&ExecPlan], m, strategy, threads, peel, fusion| {
            ws.matches(chain, m, 16, 16, cfg(strategy, threads, peel, fusion))
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
        // Same base dims, rank (⟨2,2,2;7⟩) and buffer needs — structure
        // compatible, so a same-shape rule may share the workspace.
        assert!(ok(&[&winograd], 16, Strategy::Seq, 1, dyn_, auto));
    }
}
