//! The scalar reference ladder: the greedy and local-search rungs of
//! the `search` module run on the [`FailureCounts`] oracle, plus the
//! pre-kernel exact DFS.
//!
//! The heuristic rungs here are not a second implementation: they are
//! the one ladder on the scalar backend, whose gains are `O(ℓ)` row
//! walks and whose climb re-scans every swap naively. That makes the
//! scalar backend the oracle the faster backends' accounting and swap
//! scans are differentially tested against (`tests/packed_differential.rs`,
//! full `WorstCase` equality, witness included), and the baseline
//! series recorded in `BENCH_adversary.json`. The decisions the
//! backends share are pinned by a digest in the `search` tests.

use crate::counts::FailureCounts;
use crate::search::{self, Backend, Choice, LadderTrace};
use crate::{AdversaryConfig, AdversaryScratch, WorstCase};
use wcp_core::Placement;

/// The scalar [`FailureCounts`] oracle as a [`Backend`]: gains are
/// `O(ℓ)` row walks and the climb keeps the naive swap scan.
impl Backend for FailureCounts {
    fn universe(&self) -> usize {
        usize::from(self.num_nodes())
    }

    fn failed(&self) -> u64 {
        FailureCounts::failed(self)
    }

    fn chosen(&self, x: usize) -> bool {
        self.contains(x as u16)
    }

    fn gain(&mut self, x: usize) -> u64 {
        FailureCounts::gain(self, x as u16)
    }

    fn weight(&self, x: usize) -> u64 {
        self.objects_on(x as u16).len() as u64
    }

    fn add(&mut self, x: usize) {
        self.add_node(x as u16);
    }

    fn remove(&mut self, x: usize) {
        self.remove_node(x as u16);
    }

    fn clear(&mut self) {
        FailureCounts::clear(self);
    }

    fn failable_within(&self, hits: u16) -> u64 {
        FailureCounts::failable_within(self, hits)
    }

    fn choice(&self) -> Choice {
        Choice::of_nodes(FailureCounts::failed(self), self.nodes())
    }
}

/// Scalar greedy adversary (see [`crate::greedy_worst`] for semantics).
#[must_use]
pub fn greedy_worst(placement: &Placement, s: u16, k: u16) -> WorstCase {
    greedy_worst_with(placement, s, k, &mut AdversaryScratch::new())
}

/// [`greedy_worst`] reusing the caller's scratch (scalar backend).
#[must_use]
pub fn greedy_worst_with(
    placement: &Placement,
    s: u16,
    k: u16,
    scratch: &mut AdversaryScratch,
) -> WorstCase {
    let fc = scratch.bind(placement, s);
    search::greedy(fc, k);
    fc.choice().worst(false)
}

/// Scalar local search (see [`crate::local_search_worst`]).
#[must_use]
pub fn local_search_worst(
    placement: &Placement,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
) -> WorstCase {
    local_search_worst_with(placement, s, k, config, &mut AdversaryScratch::new())
}

/// [`local_search_worst`] reusing the caller's scratch (scalar backend).
#[must_use]
pub fn local_search_worst_with(
    placement: &Placement,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
    scratch: &mut AdversaryScratch,
) -> WorstCase {
    let fc = scratch.bind(placement, s);
    let all = placement.num_objects() as u64;
    search::local_search(fc, k, config, all, &mut LadderTrace::default()).worst(false)
}

/// Scalar exact DFS with the load-ordered children and the
/// `failable_within` bound only (no supply bound, no live re-sorting) —
/// see [`crate::exact_worst`].
#[must_use]
pub fn exact_worst(
    placement: &Placement,
    s: u16,
    k: u16,
    budget: u64,
    incumbent: u64,
) -> Option<WorstCase> {
    let n = placement.num_nodes();
    if k >= n {
        let nodes: Vec<u16> = (0..n).collect();
        let failed = placement.failed_objects(&nodes, s);
        return Some(WorstCase {
            failed,
            nodes,
            exact: true,
        });
    }
    let loads = placement.cached_loads();
    let mut order: Vec<u16> = (0..n).collect();
    order.sort_by_key(|&nd| std::cmp::Reverse(loads[usize::from(nd)]));

    let mut fc = FailureCounts::new(placement, s);
    let b = placement.num_objects() as u64;
    let mut search = Search {
        fc: &mut fc,
        order: &order,
        k,
        best: incumbent,
        best_nodes: Vec::new(),
        expansions: 0,
        budget,
        all_objects: b,
    };
    if search.dfs(0, 0) {
        let (best, best_nodes) = (search.best, search.best_nodes);
        Some(WorstCase {
            failed: best,
            nodes: best_nodes,
            exact: true,
        })
    } else {
        None
    }
}

struct Search<'a> {
    fc: &'a mut FailureCounts,
    order: &'a [u16],
    k: u16,
    best: u64,
    best_nodes: Vec<u16>,
    expansions: u64,
    budget: u64,
    all_objects: u64,
}

impl Search<'_> {
    /// Returns `false` on budget exhaustion.
    fn dfs(&mut self, from: usize, depth: u16) -> bool {
        if depth == self.k {
            if self.fc.failed() > self.best {
                self.best = self.fc.failed();
                self.best_nodes = self.fc.nodes();
            }
            return true;
        }
        let remaining = self.k - depth;
        let bound = self.fc.failed() + self.fc.failable_within(remaining);
        if bound <= self.best || self.best >= self.all_objects {
            return true;
        }
        let last = self.order.len() - usize::from(remaining) + 1;
        for pos in from..last {
            self.expansions += 1;
            if self.expansions > self.budget {
                return false;
            }
            let nd = self.order[pos];
            self.fc.add_node(nd);
            let ok = self.dfs(pos + 1, depth + 1);
            self.fc.remove_node(nd);
            if !ok {
                return false;
            }
        }
        true
    }
}
