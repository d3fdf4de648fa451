//! Parallel work schedules for the `r` sub-multiplications (paper §3.2).
//!
//! Given `r` multiplications and `p` threads with `r = p·q + ℓ`, the paper
//! compares three strategies:
//!
//! * **DFS** — every multiplication runs on all `p` threads (multithreaded
//!   gemm), one after another. Suffers when the sub-blocks are small.
//! * **BFS** — multiplications are distributed round-robin; the `ℓ`
//!   remainder multiplications occupy only `ℓ` threads, idling `p − ℓ`.
//! * **Hybrid** — each thread gets `q` multiplications to run on
//!   single-threaded gemm; the `ℓ` leftovers then run one at a time on all
//!   `p` threads. Perfect load balance plus large-grain sequential gemm.
//!
//! Fig. 2 of the paper illustrates Hybrid for `r = 10, p = 4`:
//! `q = 2, ℓ = 2`.

use serde::Serialize;

/// Which of the three parallelization strategies to use (plus `Seq`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Strategy {
    /// Single-threaded everything.
    Seq,
    /// Multithreaded gemm per multiplication, multiplications in sequence.
    Dfs,
    /// Multiplications distributed across threads, remainder on ℓ threads.
    Bfs,
    /// The paper's strategy: q per thread + remainder on all threads.
    Hybrid,
}

/// Whether the engine may fold the APA framework's operand combinations
/// into the gemm pack sweep instead of materializing `S_t`/`T_t` buffers.
///
/// * [`FusionPolicy::Auto`] (the default) fuses every leaf combination
///   whose arity fits the engine's inline term stage — this preserves the
///   engine's zero-allocation steady state.
/// * [`FusionPolicy::Never`] runs the fully materialized pre-fusion path,
///   kept as the bitwise sentinel/fallback reference.
///
/// The two are bitwise identical on every rule: the combined packers
/// mirror the write-once `combine` kernels FMA for FMA, and every product
/// reaches `C` through the same output pass (see [`crate::exec`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize)]
pub enum FusionPolicy {
    /// Fuse wherever the arity permits (zero-alloc preserved).
    #[default]
    Auto,
    /// Fully materialized execution (the pre-fusion reference path).
    Never,
}

/// The strategy and thread count a request actually executes with, after
/// the engine's edge-case coercions. Making these explicit (instead of
/// silent special cases inside the executor) lets profiles and workspaces
/// report/size exactly what will run:
///
/// * `threads ≤ 1` — every strategy degenerates to `Seq`;
/// * `Seq` — always one thread, whatever was requested;
/// * `Bfs` with `threads > r` — only `r` threads can ever hold work, the
///   rest would spin up with empty lists; capped at `r`;
/// * `Hybrid` with `threads > r` — `q = 0`, so the "owned" phase is empty
///   and *all* products run in the all-thread remainder phase, which is
///   exactly `Dfs`.
pub fn effective_strategy(requested: Strategy, threads: usize, rank: usize) -> (Strategy, usize) {
    let threads = threads.max(1);
    if threads == 1 {
        return (Strategy::Seq, 1);
    }
    match requested {
        Strategy::Seq => (Strategy::Seq, 1),
        Strategy::Dfs => (Strategy::Dfs, threads),
        Strategy::Bfs => (Strategy::Bfs, threads.min(rank.max(1))),
        Strategy::Hybrid if threads > rank => (Strategy::Dfs, threads),
        Strategy::Hybrid => (Strategy::Hybrid, threads),
    }
}

/// A hybrid schedule: per-thread lists plus the all-thread remainder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HybridSchedule {
    /// Multiplications per thread in the first phase.
    pub q: usize,
    /// Remainder count ℓ < p.
    pub l: usize,
    /// `assignments[i]` lists the multiplication indices thread `i` owns.
    pub assignments: Vec<Vec<usize>>,
    /// The ℓ multiplications executed with all-thread gemm afterwards.
    pub remainder: Vec<usize>,
}

/// Build the hybrid schedule for `r` multiplications on `p` threads.
/// Thread `i` owns the contiguous range `[i·q, (i+1)·q)`; the remainder is
/// `[p·q, r)`.
pub fn hybrid_schedule(r: usize, p: usize) -> HybridSchedule {
    assert!(p >= 1, "need at least one thread");
    let q = r / p;
    let l = r % p;
    let assignments = (0..p).map(|i| (i * q..(i + 1) * q).collect()).collect();
    let remainder = (p * q..r).collect();
    HybridSchedule {
        q,
        l,
        assignments,
        remainder,
    }
}

/// Build the BFS schedule: all `r` multiplications distributed round-robin
/// (`assignments[i] = {i, i+p, i+2p, …}`), no all-thread remainder phase —
/// during the last round only `ℓ` threads have work.
pub fn bfs_schedule(r: usize, p: usize) -> Vec<Vec<usize>> {
    assert!(p >= 1, "need at least one thread");
    let mut assignments = vec![Vec::new(); p];
    for t in 0..r {
        assignments[t % p].push(t);
    }
    assignments
}

impl HybridSchedule {
    /// Every multiplication appears exactly once across phases.
    pub fn is_complete(&self, r: usize) -> bool {
        let mut seen = vec![false; r];
        for list in self
            .assignments
            .iter()
            .chain(std::iter::once(&self.remainder))
        {
            for &t in list {
                if t >= r || seen[t] {
                    return false;
                }
                seen[t] = true;
            }
        }
        seen.into_iter().all(|b| b)
    }

    /// ASCII rendering in the spirit of the paper's Fig. 2.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, list) in self.assignments.iter().enumerate() {
            out.push_str(&format!("thread {i}: "));
            for &t in list {
                out.push_str(&format!("[M{:<2}]", t + 1));
            }
            out.push('\n');
        }
        if !self.remainder.is_empty() {
            out.push_str("all threads: ");
            for &t in &self.remainder {
                out.push_str(&format!("[M{:<2} mt]", t + 1));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure_two_case() {
        // r = 10 (Bini), p = 4 → each thread two multiplications, two
        // remainder multiplications on all threads.
        let s = hybrid_schedule(10, 4);
        assert_eq!(s.q, 2);
        assert_eq!(s.l, 2);
        assert_eq!(s.assignments.len(), 4);
        for a in &s.assignments {
            assert_eq!(a.len(), 2);
        }
        assert_eq!(s.remainder, vec![8, 9]);
        assert!(s.is_complete(10));
    }

    #[test]
    fn exact_division_has_no_remainder() {
        // The paper highlights ⟨4,4,2⟩ with 24 multiplications on 6 and 12
        // threads: no remainder, hence its strong parallel performance.
        let s = hybrid_schedule(24, 6);
        assert_eq!((s.q, s.l), (4, 0));
        assert!(s.remainder.is_empty());
        assert!(s.is_complete(24));
        let s12 = hybrid_schedule(24, 12);
        assert_eq!((s12.q, s12.l), (2, 0));
    }

    #[test]
    fn fewer_mults_than_threads() {
        let s = hybrid_schedule(3, 8);
        assert_eq!((s.q, s.l), (0, 3));
        assert!(s.assignments.iter().all(|a| a.is_empty()));
        assert_eq!(s.remainder, vec![0, 1, 2]);
        assert!(s.is_complete(3));
    }

    #[test]
    fn single_thread_owns_everything() {
        let s = hybrid_schedule(7, 1);
        assert_eq!((s.q, s.l), (7, 0));
        assert_eq!(s.assignments[0], vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(s.is_complete(7));
    }

    #[test]
    fn bfs_round_robin_covers_all() {
        let a = bfs_schedule(10, 4);
        assert_eq!(a[0], vec![0, 4, 8]);
        assert_eq!(a[1], vec![1, 5, 9]);
        assert_eq!(a[2], vec![2, 6]);
        assert_eq!(a[3], vec![3, 7]);
        let total: usize = a.iter().map(|v| v.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn effective_strategy_makes_coercions_explicit() {
        // One thread: everything is sequential.
        for s in [
            Strategy::Seq,
            Strategy::Dfs,
            Strategy::Bfs,
            Strategy::Hybrid,
        ] {
            assert_eq!(effective_strategy(s, 1, 7), (Strategy::Seq, 1));
            assert_eq!(effective_strategy(s, 0, 7), (Strategy::Seq, 1));
        }
        // Seq never uses extra threads.
        assert_eq!(effective_strategy(Strategy::Seq, 8, 7), (Strategy::Seq, 1));
        // Plenty of products: strategies pass through.
        assert_eq!(effective_strategy(Strategy::Dfs, 4, 10), (Strategy::Dfs, 4));
        assert_eq!(effective_strategy(Strategy::Bfs, 4, 10), (Strategy::Bfs, 4));
        assert_eq!(
            effective_strategy(Strategy::Hybrid, 4, 10),
            (Strategy::Hybrid, 4)
        );
        // More threads than products: BFS caps its thread count…
        assert_eq!(effective_strategy(Strategy::Bfs, 8, 3), (Strategy::Bfs, 3));
        // …and Hybrid (q = 0, all-remainder) is exactly DFS.
        assert_eq!(
            effective_strategy(Strategy::Hybrid, 8, 3),
            (Strategy::Dfs, 8)
        );
        // threads == rank is a straight hybrid with q = 1.
        assert_eq!(
            effective_strategy(Strategy::Hybrid, 7, 7),
            (Strategy::Hybrid, 7)
        );
    }

    #[test]
    fn completeness_rejects_duplicates_and_gaps() {
        let mut s = hybrid_schedule(10, 4);
        s.remainder = vec![8, 8];
        assert!(!s.is_complete(10));
        s.remainder = vec![8];
        assert!(!s.is_complete(10));
    }

    #[test]
    fn render_mentions_all_multiplications() {
        let s = hybrid_schedule(10, 4);
        let text = s.render();
        for t in 1..=10 {
            assert!(text.contains(&format!("M{t}")), "missing M{t} in:\n{text}");
        }
        assert!(text.contains("all threads"));
    }
}
