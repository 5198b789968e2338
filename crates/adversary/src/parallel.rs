//! Thread-parallel adversary ladder: multi-restart local search fanned
//! across workers, and frontier-parallel branch-and-bound for the exact
//! rung. Both are *thread-count-invariant*: for a fixed configuration
//! the returned `(failed, witness, exact)` is bit-identical whether the
//! ladder runs on 1 thread or 64.
//!
//! ## Why the results are deterministic
//!
//! **Local search** gives every restart its own splitmix-derived RNG
//! stream (instead of the serial ladder's single sequential stream), so
//! a restart's climb trajectory depends only on its index. Every
//! restart always runs (no cross-restart early exit), and the
//! combination scans results in restart order keeping the best under
//! the deterministic order "more failed wins, ties break to the
//! lexicographically smallest witness".
//!
//! **Exact search** splits the root frontier: task `i` explores the
//! subtree rooted at the `i`-th child of the deterministic root order —
//! the serial DFS's own child order (`(gain, load, node)` descending).
//! Workers share the incumbent through a monotone
//! [`SharedBound`] and prune strictly *below* it, so a subtree whose
//! bound equals the optimum (and may therefore contain the first
//! optimum-achieving witness in root order) is never discarded; local
//! recording still compares against the task-local best only. The
//! combination keeps the first strict improvement in root order, which
//! is exactly the witness the serial DFS records last — the returned
//! optimum *and witness* match the serial search whenever both complete
//! (pruned-node counts do vary with scheduling; only the answer is
//! invariant, so budget-edge aborts should be treated as inexact the
//! same way the serial rung's are).
//!
//! The fan-out reuses `wcp_core`'s work-stealing scope and the atomics
//! live in [`crate::pool`]; this module contains no thread or ordering
//! code of its own.

use crate::exact;
use crate::hist::HistClimb;
use crate::pool::{fan_out, SharedBound};
use crate::search::{self, Choice, LadderTrace, PackedClimb};
use crate::{AdversaryConfig, AdversaryScratch, WorstCase};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wcp_core::{Parallelism, Placement};

/// Per-worker state: one scratch, bound lazily on the worker's first
/// task and cleared between tasks — one index build per *worker*, not
/// per task.
#[derive(Default)]
struct Worker {
    scratch: AdversaryScratch,
    packed: bool,
    hist: bool,
}

/// Splitmix64-style mix of `(seed, restart index)`: decorrelated,
/// index-addressable restart streams, so restart `t` draws the same
/// numbers no matter which worker runs it.
fn restart_seed(seed: u64, restart: u64) -> u64 {
    let mut z = seed ^ restart.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One restart of the parallel schedule: the greedy set for restart 0
/// (returned too, for the trace), otherwise a random `k`-set from the
/// restart's own stream; then the climb.
fn restart_pass<B: search::Backend>(
    be: &mut B,
    t: usize,
    k: u16,
    config: &AdversaryConfig,
    all: u64,
) -> (Option<Choice>, Choice) {
    let greedy = if t == 0 {
        search::greedy(be, k);
        Some(be.choice())
    } else {
        let mut rng = StdRng::seed_from_u64(restart_seed(config.seed, t as u64));
        search::seed_random(be, k, &mut rng);
        None
    };
    // restarts = 0 keeps the bare greedy set.
    if config.restarts > 0 {
        search::climb(be, config.max_steps, all);
    }
    (greedy, be.choice())
}

/// Multi-restart local search with the restarts fanned across
/// `parallelism.threads()` workers.
///
/// Restart 0 climbs from the greedy seed, restarts `1..restarts` from
/// independent random `k`-sets. Unlike [`crate::local_search_worst`]'s
/// single sequential RNG stream, each restart here has its own seeded
/// stream, so the result depends only on `(config, placement, s, k)` —
/// never on the thread count.
///
/// # Examples
///
/// ```
/// use wcp_adversary::{local_search_worst_parallel, AdversaryConfig};
/// use wcp_core::{Parallelism, Placement};
///
/// let p = Placement::new(6, 2, vec![vec![0, 1], vec![0, 1], vec![2, 3]])?;
/// let one = local_search_worst_parallel(&p, 2, 2, &AdversaryConfig::default(), Parallelism::single());
/// let four = local_search_worst_parallel(&p, 2, 2, &AdversaryConfig::default(), Parallelism::new(4));
/// assert_eq!(one, four); // bit-identical at any thread count
/// assert_eq!(one.failed, 2);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[must_use]
pub fn local_search_worst_parallel(
    placement: &Placement,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
    parallelism: Parallelism,
) -> WorstCase {
    if k >= placement.num_nodes() {
        return WorstCase {
            exact: false,
            ..exact::degenerate_all_nodes(placement, s, k)
        };
    }
    local_search_traced(
        placement,
        s,
        k,
        config,
        parallelism,
        &mut LadderTrace::default(),
    )
    .worst(false)
}

/// [`local_search_worst_parallel`] for `k < n`, recording the per-rung
/// decision trace for the certificate prover. Trace entries are keyed
/// by restart index, so the recorded trace — like the returned result —
/// is thread-count invariant.
pub(crate) fn local_search_traced(
    placement: &Placement,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
    parallelism: Parallelism,
    trace: &mut LadderTrace,
) -> Choice {
    let all = placement.num_objects() as u64;
    // Mirror the serial restart schedule: `restarts` climb passes, the
    // first greedy-seeded.
    let restarts = config.restarts.max(1) as usize;
    let use_hist = config.uses_histogram(placement.num_objects());
    let results = fan_out(restarts, parallelism.threads(), Worker::default, |w, t| {
        if use_hist {
            // Million-object regime: same schedule on the compressed
            // histogram backend.
            let reuse = std::mem::replace(&mut w.hist, true);
            let (hc, hs) = w.scratch.hist(placement, s, reuse);
            restart_pass(&mut HistClimb { hc, hs }, t, k, config, all)
        } else {
            let reuse = std::mem::replace(&mut w.packed, true);
            let (pc, cs, _) = w.scratch.packed(placement, s, reuse);
            restart_pass(&mut PackedClimb { pc, cs }, t, k, config, all)
        }
    });
    let mut best: Option<Choice> = None;
    for (greedy, pass) in results {
        if greedy.is_some() {
            trace.greedy = greedy;
        }
        match &mut best {
            Some(b) => {
                if pass.failed > b.failed || (pass.failed == b.failed && pass.nodes < b.nodes) {
                    b.clone_from(&pass);
                }
            }
            None => best = Some(pass.clone()),
        }
        trace.restarts.push(pass);
    }
    // The empty fallback is unreachable (restarts ≥ 1), but a harmless
    // answer beats a panic.
    best.unwrap_or_default()
}

/// Frontier-parallel exact worst case: the root frame's children fan
/// across `parallelism.threads()` workers, each searching its subtree
/// with the full `budget` while sharing the incumbent through a
/// monotone `SharedBound` (see the `pool` module's source).
///
/// Returns the same `(failed, witness)` as [`crate::exact_worst`] for
/// every thread count (see the module docs for the argument), or `None`
/// if any subtree exhausts its budget.
///
/// # Examples
///
/// ```
/// use wcp_adversary::{exact_worst, exact_worst_parallel};
/// use wcp_core::{Parallelism, Placement};
///
/// let p = Placement::new(5, 2, vec![vec![0, 1], vec![0, 2], vec![3, 4]])?;
/// let serial = exact_worst(&p, 1, 2, 1_000_000, 0).unwrap();
/// let par = exact_worst_parallel(&p, 1, 2, 1_000_000, 0, Parallelism::new(4)).unwrap();
/// assert_eq!(par, serial); // optimum AND witness
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[must_use]
pub fn exact_worst_parallel(
    placement: &Placement,
    s: u16,
    k: u16,
    budget: u64,
    incumbent: u64,
    parallelism: Parallelism,
) -> Option<WorstCase> {
    exact_in(
        placement,
        s,
        k,
        budget,
        incumbent,
        parallelism,
        &mut AdversaryScratch::new(),
        false,
    )
    .map(|choice| choice.worst(true))
}

/// [`exact_worst_parallel`] as a [`Choice`], computing the root frame
/// on the caller's scratch (`reuse` as for [`AdversaryScratch::packed`]),
/// which it leaves bound to `(placement, s)` for the certificate ledger.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exact_in(
    placement: &Placement,
    s: u16,
    k: u16,
    budget: u64,
    incumbent: u64,
    parallelism: Parallelism,
    scratch: &mut AdversaryScratch,
    reuse: bool,
) -> Option<Choice> {
    let n = placement.num_nodes();
    if k >= n {
        let all = exact::degenerate_all_nodes(placement, s, k);
        return Some(Choice::of_nodes(all.failed, all.nodes));
    }
    let confirmed = Choice::of_nodes(incumbent, Vec::new());
    if k == 0 {
        return Some(confirmed);
    }
    let b = placement.num_objects() as u64;
    // Root frame, computed once before the fan-out: the root-level
    // histogram bound, then the serial DFS's own child order (a total
    // order, so unique and schedule-free).
    let (pc, _, _) = scratch.packed(placement, s, reuse);
    if incumbent >= b || pc.failable_within(k) <= incumbent {
        return Some(confirmed);
    }
    let order = exact::root_order(pc);
    // The serial root frame expands children 0 ..= n − k; one task per
    // child, each exploring that child's whole subtree.
    let tasks = usize::from(n - k) + 1;
    let shared = SharedBound::new(incumbent);
    let results = fan_out(tasks, parallelism.threads(), Worker::default, |w, t| {
        let reuse = std::mem::replace(&mut w.packed, true);
        let (pc, _, ds) = w.scratch.packed(placement, s, reuse);
        exact::run_dfs(pc, ds, k, budget, incumbent, b, Some((&order, t, &shared)))
    });
    let mut failed = incumbent;
    let mut nodes = Vec::new();
    for task in results {
        // Any subtree aborting on budget makes the whole search inexact.
        let (task_failed, task_nodes) = task?;
        if task_failed > failed {
            failed = task_failed;
            nodes = task_nodes;
        }
    }
    Some(Choice::of_nodes(failed, nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact_worst, Ladder};

    /// The full ladder on the parallel schedule.
    fn parallel_ladder(
        p: &Placement,
        s: u16,
        k: u16,
        config: &AdversaryConfig,
        parallelism: Parallelism,
    ) -> WorstCase {
        let config = AdversaryConfig {
            parallelism: Some(parallelism),
            ..config.clone()
        };
        Ladder::new(&config).run(p, s, k).worst
    }
    use wcp_core::{RandomStrategy, RandomVariant, SystemParams};

    fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = SystemParams::new(n, b, r, 1, 1).unwrap();
        RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

    #[test]
    fn exact_matches_serial_including_witness() {
        for seed in 0..3u64 {
            let p = random_placement(14, 60, 3, seed);
            for (s, k) in [(1u16, 3u16), (2, 4), (2, 5), (3, 4)] {
                let serial = exact_worst(&p, s, k, u64::MAX, 0).unwrap();
                for threads in [1usize, 2, 3, 8] {
                    let par =
                        exact_worst_parallel(&p, s, k, u64::MAX, 0, Parallelism::new(threads))
                            .unwrap();
                    assert_eq!(par, serial, "seed={seed} s={s} k={k} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn exact_with_incumbent_confirms_without_witness() {
        let p = Placement::new(5, 2, vec![vec![0, 1], vec![2, 3]]).unwrap();
        let wc = exact_worst_parallel(&p, 2, 2, u64::MAX, 1, Parallelism::new(4)).unwrap();
        assert_eq!(wc.failed, 1);
        assert!(wc.nodes.is_empty() && wc.exact);
    }

    #[test]
    fn ladder_is_thread_count_invariant() {
        let config = AdversaryConfig::default();
        for seed in 0..3u64 {
            let p = random_placement(16, 80, 3, seed);
            for (s, k) in [(1u16, 2u16), (2, 4), (3, 5)] {
                let reference = parallel_ladder(&p, s, k, &config, Parallelism::single());
                for threads in [2usize, 5, 8] {
                    let got = parallel_ladder(&p, s, k, &config, Parallelism::new(threads));
                    assert_eq!(got, reference, "seed={seed} s={s} k={k} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn parallel_heuristic_never_beats_exact() {
        for seed in 0..3u64 {
            let p = random_placement(13, 50, 3, seed);
            for (s, k) in [(1u16, 3u16), (2, 4)] {
                let exact = exact_worst(&p, s, k, u64::MAX, 0).unwrap();
                let ls = local_search_worst_parallel(
                    &p,
                    s,
                    k,
                    &AdversaryConfig::default(),
                    Parallelism::new(4),
                );
                assert!(ls.failed <= exact.failed);
                assert_eq!(p.failed_objects(&ls.nodes, s), ls.failed, "witness");
            }
        }
    }

    #[test]
    fn degenerate_and_zero_k() {
        let p = random_placement(8, 20, 3, 1);
        let all = parallel_ladder(&p, 1, 8, &AdversaryConfig::default(), Parallelism::new(4));
        assert_eq!(all.failed, 20);
        assert!(all.exact);
        let none = parallel_ladder(&p, 1, 0, &AdversaryConfig::default(), Parallelism::new(4));
        assert_eq!((none.failed, none.exact), (0, true));
    }
}
