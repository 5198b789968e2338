//! Exact worst-case search: one branch-and-bound DFS over the
//! `k`-subsets of a [`Backend`]'s elements, run on node backends (the
//! word-parallel [`PackedCounts`] kernel, serially here and
//! frontier-parallel in [`crate::parallel`]) and on failure-unit
//! backends ([`crate::domain`]). Every frame applies, in order:
//!
//! * the **histogram bound**: everything failed plus everything within
//!   `hits_budget(remaining, c_max)` more hits of failing, where `c_max`
//!   is the most hits one element deals one object (1 for a node). At
//!   the last level it is the O(1) ceiling that skips a whole candidate
//!   sweep;
//! * a **closed-form last level**: one more element fails exactly
//!   `gain(x)` more objects, so the best completion is one gain sweep
//!   with no add/remove churn;
//! * at shallow depths, a **hit-supply bound**: every newly failed
//!   object needs at least one more hit, and the `m` remaining failures
//!   supply at most the sum of the `m` largest candidate supplies
//!   (`|row(x) ∩ failable|` for a node) — an admissible cap that prunes
//!   subtrees the histogram bound cannot — then a **live re-sort** of
//!   the frame's children ([`order_by_live_gain`]), so incumbent-beating
//!   sets are explored first. Each frame orders only its own candidate
//!   slice, which preserves exactly-once subset enumeration.
//!
//! The backend answers the supply query ([`ExactBackend`]). The packed
//! node kernel also fuses the bottom levels: the last level reads one
//! batched gain table, and the bottom *two* levels close in one pair
//! sweep over a path-maintained pair-correction matrix. Unit backends
//! keep the defaults: per-element gains and plain recursion.

use crate::counts::PackedCounts;
use crate::pool::SharedBound;
use crate::search::Backend;
use crate::{AdversaryScratch, WorstCase};
use wcp_core::Placement;

/// Depths at which the DFS re-sorts children by live gain and applies
/// the supply bound. Shallow frames dominate the search tree's branch
/// choices; deeper frames keep the cheap static order.
const SORT_DEPTH: u16 = 2;

/// Bottom-level frames with at least this many candidates compute all
/// gains in one batched `eq_sm1` scan ([`PackedCounts::gains_into`],
/// `O(b/64 + eq·r)`) instead of per-candidate row intersections
/// (`O(cands · b/64)`). Below it, the frame is too small for the scan
/// to amortize. The threshold is a pure function of the frame, so the
/// choice — and the search result — stays deterministic.
const GAIN_BATCH_MIN: usize = 8;

/// The admissible hit budget of `m` more failures when one element
/// deals at most `c_max` hits to an object.
pub(crate) fn hits_budget(remaining: u16, c_max: u16) -> u16 {
    (u32::from(remaining) * u32::from(c_max)).min(u32::from(u16::MAX)) as u16
}

/// The child order of the exact search: `cands` into `out` by
/// decreasing `(gain, weight, element)` under the backend's chosen set
/// (a total order — the key ends in the element). The re-sorted DFS
/// frames, the parallel root split and the certificate ledger all order
/// children through this one function.
pub(crate) fn order_by_live_gain<B: Backend>(
    be: &mut B,
    cands: &[u32],
    keys: &mut Vec<(u64, u64, u32)>,
    out: &mut Vec<u32>,
) {
    keys.clear();
    for &x in cands {
        let gain = be.gain(x as usize);
        keys.push((gain, be.weight(x as usize), x));
    }
    keys.sort_unstable_by(|a, b| b.cmp(a));
    out.clear();
    out.extend(keys.iter().map(|&(_, _, x)| x));
}

/// The root frame's children: [`order_by_live_gain`] over every element
/// at the backend's current (empty) set.
pub(crate) fn root_order<B: Backend>(be: &mut B) -> Vec<u32> {
    let all: Vec<u32> = (0..be.universe() as u32).collect();
    let mut order = Vec::new();
    order_by_live_gain(be, &all, &mut Vec::new(), &mut order);
    order
}

/// A [`Backend`] the exact search runs on: the supply query of the
/// shallow-depth bound, and opt-in fused bottom levels.
pub(crate) trait ExactBackend: Backend + Sized {
    /// State the hooks keep across calls (buffers, the prepared budget).
    type Scratch;
    /// Prepares [`ExactBackend::supply`] queries at a budget of `hits`.
    fn begin_supply(&mut self, ks: &mut Self::Scratch, hits: u16);
    /// Objects on element `x` within the prepared hit budget of failing:
    /// the most hits `x` can contribute to new failures.
    fn supply(&self, ks: &Self::Scratch, x: usize) -> u64;
    /// Prepares the [`ExactBackend::frame_gain`] queries of a last-level
    /// frame over `cands`.
    fn begin_frame(&mut self, _ks: &mut Self::Scratch, _cands: &[u32]) {}
    /// `x`'s gain in the prepared last-level frame.
    fn frame_gain(&mut self, _ks: &Self::Scratch, x: usize) -> u64 {
        self.gain(x)
    }
    /// Closes a frame with two failures left in one fused sweep over
    /// `cands`, returning `false` on budget exhaustion; `None` leaves
    /// the frame to plain recursion.
    fn expand_pairs(_search: &mut Search<'_, Self>, _cands: &[u32]) -> Option<bool> {
        None
    }
    /// Keeps the fused pair level's path state current as `x` joins
    /// (`dir = 1`) or has left (`dir = −1`) the chosen set; `x` is
    /// outside the set at both calls.
    fn shift(&self, _ks: &mut Self::Scratch, _x: usize, _dir: i32) {}
}

/// Reusable frame buffers of the exact search.
#[derive(Debug, Default)]
pub(crate) struct FrameBufs {
    /// Root candidate ordering.
    order: Vec<u32>,
    /// Per-shallow-depth candidate buffers for live re-sorting.
    sort_bufs: Vec<Vec<u32>>,
    /// `(gain, weight, element)` sort keys.
    keys: Vec<(u64, u64, u32)>,
    /// Top-`m` supply accumulator.
    tops: Vec<u64>,
}

/// The root of a frontier-parallel task: the subtree under
/// `order[pos]`, pruned also against the cross-worker bound.
pub(crate) type Root<'a> = (&'a [u32], usize, &'a SharedBound);

/// Exact branch-and-bound over the `k`-subsets of an empty backend's
/// elements, seeded with the achievable `incumbent`: the best
/// `(failed, sorted witness)` — the witness empty when no subset beat
/// the incumbent — or `None` once `budget` expansions are spent. A `k`
/// covering the universe fails every element.
///
/// With a [`Root`], searches only the subtree under `order[pos]` (over
/// the strictly later candidates): the unit of work of the
/// frontier-parallel search in [`crate::parallel`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn branch_and_bound<B: ExactBackend>(
    be: &mut B,
    ks: &mut B::Scratch,
    bufs: &mut FrameBufs,
    k: u16,
    budget: u64,
    incumbent: u64,
    all: u64,
    root: Option<Root<'_>>,
) -> Option<(u64, Vec<u32>)> {
    debug_assert_eq!(be.failed(), 0, "the search starts from an empty set");
    let universe = be.universe();
    if usize::from(k) >= universe {
        for x in 0..universe {
            be.add(x);
        }
        return Some((be.failed(), (0..universe as u32).collect()));
    }
    if bufs.sort_bufs.len() < usize::from(SORT_DEPTH) {
        bufs.sort_bufs
            .resize_with(usize::from(SORT_DEPTH), Vec::new);
    }
    let mut search = Search {
        c_max: be.max_hits(),
        be,
        ks,
        bufs,
        k,
        best: incumbent,
        witness: Vec::new(),
        path: Vec::new(),
        expansions: 0,
        budget,
        all,
        shared: root.map(|(_, _, shared)| shared),
    };
    let completed = if let Some((order, pos, _)) = root {
        search.expansions = 1; // the root expansion itself
        search.descend(order, pos, 0)
    } else {
        // Static fallback order: decreasing weight (stable, so equal
        // weights keep ascending element order).
        let mut order = std::mem::take(&mut search.bufs.order);
        order.clear();
        order.extend(0..universe as u32);
        order.sort_by_key(|&x| std::cmp::Reverse(search.be.weight(x as usize)));
        let completed = search.dfs(&order, 0);
        search.bufs.order = order;
        completed
    };
    completed.then_some((search.best, search.witness))
}

/// One exact search: the backend, the frame buffers, and the incumbent
/// with the effort spent so far.
pub(crate) struct Search<'a, B: ExactBackend> {
    be: &'a mut B,
    ks: &'a mut B::Scratch,
    bufs: &'a mut FrameBufs,
    k: u16,
    /// The most hits one element deals one object.
    c_max: u16,
    best: u64,
    witness: Vec<u32>,
    /// The chosen elements, in search order.
    path: Vec<u32>,
    expansions: u64,
    budget: u64,
    /// Objects in total: nothing beats failing all of them.
    all: u64,
    /// Cross-worker incumbent for the frontier-parallel search; `None`
    /// on the serial path. Pruning against it is *strictly below* only,
    /// and local recording still uses the local `best`, which is what
    /// keeps the combined optimum and witness thread-count-invariant.
    shared: Option<&'a SharedBound>,
}

impl<B: ExactBackend> Search<'_, B> {
    /// Counts one expansion; `false` once the budget is exhausted.
    fn spend(&mut self) -> bool {
        self.expansions += 1;
        self.expansions <= self.budget
    }

    /// Whether a subtree bounded by `bound` cannot improve the answer:
    /// it cannot beat the local best, or it lies strictly below another
    /// worker's proven value.
    fn pruned(&self, bound: u64) -> bool {
        bound <= self.best || self.shared.is_some_and(|shared| bound < shared.get())
    }

    /// Records `total`, witnessed by the path plus `last`, when it beats
    /// the best.
    fn offer(&mut self, total: u64, last: &[u32]) {
        if total > self.best {
            self.best = total;
            self.witness.clear();
            self.witness.extend_from_slice(&self.path);
            self.witness.extend_from_slice(last);
            self.witness.sort_unstable();
            if let Some(shared) = self.shared {
                shared.tighten(total);
            }
        }
    }

    /// Returns `false` on budget exhaustion. `cands` is this frame's
    /// candidate suffix; children recurse on strictly later candidates,
    /// so every `k`-subset is visited exactly once.
    fn dfs(&mut self, cands: &[u32], depth: u16) -> bool {
        let failed = self.be.failed();
        if depth == self.k {
            // Only reachable for k = 0 or rooted k = 1 frames; positive k
            // closes at the last level below.
            self.offer(failed, &[]);
            return true;
        }
        let remaining = self.k - depth;
        // Histogram bound. At the last level it is the O(1) ceiling
        // `gain(x) ≤ failable_within(c_max)` that skips the whole sweep.
        let hits = hits_budget(remaining, self.c_max);
        if self.best >= self.all || self.pruned(failed + self.be.failable_within(hits)) {
            return true; // pruned (or already optimal)
        }
        if remaining == 1 {
            return self.last_level(cands, failed);
        }
        if depth >= SORT_DEPTH {
            return self.children(cands, depth);
        }
        let supply = self.supply_bound(cands, remaining, hits);
        if self.pruned(failed + supply) {
            return true;
        }
        let Some(slot) = self.bufs.sort_bufs.get_mut(usize::from(depth)) else {
            return self.children(cands, depth);
        };
        let mut buf = std::mem::take(slot);
        order_by_live_gain(self.be, cands, &mut self.bufs.keys, &mut buf);
        let ok = self.children(&buf, depth);
        if let Some(slot) = self.bufs.sort_bufs.get_mut(usize::from(depth)) {
            *slot = buf;
        }
        ok
    }

    /// The closed-form last level: the best single gain completes the
    /// frame.
    fn last_level(&mut self, cands: &[u32], failed: u64) -> bool {
        self.be.begin_frame(self.ks, cands);
        for &x in cands {
            if !self.spend() {
                return false;
            }
            let gain = self.be.frame_gain(self.ks, x as usize);
            self.offer(failed + gain, &[x]);
        }
        true
    }

    /// Iterates this frame's children in `cands` order, through the
    /// backend's fused pair sweep when it has one.
    fn children(&mut self, cands: &[u32], depth: u16) -> bool {
        let remaining = self.k - depth;
        if remaining == 2 {
            if let Some(ok) = B::expand_pairs(self, cands) {
                return ok;
            }
        }
        let last = (cands.len() + 1).saturating_sub(usize::from(remaining));
        (0..last).all(|pos| self.spend() && self.descend(cands, pos, depth))
    }

    /// Adds `cands[pos]`, searches its subtree over the strictly later
    /// candidates, and removes it again. A child with two or more
    /// failures left reaches a pair frame, so the backend's path state
    /// is shifted across the add and the remove.
    fn descend(&mut self, cands: &[u32], pos: usize, depth: u16) -> bool {
        let Some(&x) = cands.get(pos) else {
            return true;
        };
        let shift = self.k - depth >= 3;
        if shift {
            self.be.shift(self.ks, x as usize, 1);
        }
        self.be.add(x as usize);
        self.path.push(x);
        let ok = self.dfs(cands.get(pos + 1..).unwrap_or(&[]), depth + 1);
        self.path.pop();
        self.be.remove(x as usize);
        if shift {
            self.be.shift(self.ks, x as usize, -1);
        }
        ok
    }

    /// Admissible hit-supply bound: at most the sum of the `remaining`
    /// largest candidate supplies at `hits`.
    fn supply_bound(&mut self, cands: &[u32], remaining: u16, hits: u16) -> u64 {
        let m = usize::from(remaining);
        self.be.begin_supply(self.ks, hits);
        let tops = &mut self.bufs.tops;
        tops.clear();
        for &x in cands {
            let supply = self.be.supply(self.ks, x as usize);
            // Keep the m largest supplies (ascending insertion into a
            // tiny buffer; m ≤ k).
            if tops.len() < m {
                let at = tops.partition_point(|&t| t < supply);
                tops.insert(at, supply);
            } else if let Some(&min) = tops.first() {
                if supply > min {
                    tops.remove(0);
                    let at = tops.partition_point(|&t| t < supply);
                    tops.insert(at, supply);
                }
            }
        }
        tops.iter().sum()
    }
}

/// Reusable buffers of the node exact search: the frame buffers plus the
/// packed kernel's hook buffers.
#[derive(Debug, Default)]
pub(crate) struct DfsScratch {
    frame: FrameBufs,
    kernel: KernelScratch,
}

impl DfsScratch {
    /// Drops the cached root pair matrix (the kernel is being rebound,
    /// possibly to a different placement with the same shape).
    pub(crate) fn invalidate_pair_cache(&mut self) {
        self.kernel.pair_key = None;
    }
}

/// The packed kernel's hook buffers.
#[derive(Debug, Default)]
pub(crate) struct KernelScratch {
    /// Failable-object mask for the supply bound.
    failable: Vec<u64>,
    /// Per-node gain table for the batched bottom-level sweeps.
    gains: Vec<u64>,
    /// Whether the current last-level frame reads `gains`.
    batched: bool,
    /// `hits = s − 2` mask for the fused pair sweep's ceilings.
    eq_lo: Vec<u64>,
    /// Pairwise gain correction, `pair[lo·n + hi]` for node pair
    /// `lo < hi`: `+1` per object at `hits = s − 2` hosted by both,
    /// `−1` per object at `hits = s − 1` hosted by both — exactly the
    /// difference between `gain({x, y})` and `gain(x) + gain(y)`.
    /// Built once per binding at the empty failed set and delta-shifted
    /// along the DFS path (see [`ExactBackend::shift`]).
    pair: Vec<i32>,
    /// Binding key `(n, b, s)` of the cached root pair matrix; cleared
    /// on rebinding.
    pair_key: Option<(u16, usize, u16)>,
}

/// The packed kernel's hooks: a failable mask for the supply query, the
/// batched last-level gain table, and the fused pair sweep with its
/// path-shifted correction matrix.
impl ExactBackend for PackedCounts {
    type Scratch = KernelScratch;

    fn begin_supply(&mut self, ks: &mut KernelScratch, hits: u16) {
        self.failable_mask_into(hits, &mut ks.failable);
    }

    fn supply(&self, ks: &KernelScratch, x: usize) -> u64 {
        self.and_popcount_row(x as u16, &ks.failable)
    }

    fn begin_frame(&mut self, ks: &mut KernelScratch, cands: &[u32]) {
        ks.batched = cands.len() >= GAIN_BATCH_MIN;
        if ks.batched {
            self.gains_into(&mut ks.gains);
        }
    }

    fn frame_gain(&mut self, ks: &KernelScratch, x: usize) -> u64 {
        if ks.batched {
            ks.gains.get(x).copied().unwrap_or(0)
        } else {
            PackedCounts::gain(self, x as u16)
        }
    }

    /// Closes the bottom **two** levels in one fused sweep. A
    /// `remaining == 2` frame needs `max gain({x, y})` over candidate
    /// pairs, and rippling every `x` through the counter planes just to
    /// re-derive gains is the dominant cost of the whole search tree.
    /// Instead `gain({x, y})` decomposes as
    /// `gain(x) + gain(y) + pair[x, y]` — one gain-table build per
    /// frame plus an O(1) lookup per pair into the path-maintained
    /// correction matrix, with no add/remove churn at all. Enumeration
    /// order, pruning ceilings, budget accounting, and recording match
    /// the unfused recursion exactly, so results (and witnesses) are
    /// unchanged.
    fn expand_pairs(search: &mut Search<'_, Self>, cands: &[u32]) -> Option<bool> {
        let failed = search.be.failed();
        let eq_count = search.be.failable_within(1);
        search.be.gains_into(&mut search.ks.gains);
        search.be.eq_sm2_into(&mut search.ks.eq_lo);
        let n = usize::from(search.be.num_nodes());
        let last = cands.len().saturating_sub(1);
        for (pos, &x) in cands.iter().enumerate().take(last) {
            if !search.spend() {
                return Some(false);
            }
            if search.best >= search.all {
                continue;
            }
            // `gain(x)` straight from the table; the `hits = s − 2`
            // overlap bounds what x can newly expose to its partner.
            let gx = search.ks.gains.get(x as usize).copied().unwrap_or(0);
            let dp_pop = search.be.and_popcount_row(x as u16, &search.ks.eq_lo);
            let failed_x = failed + gx;
            // The child's eq-ceiling, identical to the unfused
            // `failed + failable_within(1)` after adding x.
            if search.pruned(failed_x + (eq_count - gx + dp_pop)) {
                continue;
            }
            for &y in cands.get(pos + 1..).unwrap_or(&[]) {
                if !search.spend() {
                    return Some(false);
                }
                let gy = search.ks.gains.get(y as usize).copied().unwrap_or(0);
                let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
                let pair = search.ks.pair.get(lo as usize * n + hi as usize);
                let corr = pair.copied().unwrap_or(0);
                let total = (failed_x + gy).wrapping_add_signed(i64::from(corr));
                search.offer(total, &[x, y]);
            }
        }
        Some(true)
    }

    /// Shifts the pair-correction matrix for `x` joining or leaving the
    /// failed set: each of its objects moves one hit level, and only
    /// levels `s − 2` and `s − 1` carry weight. Both calls see the same
    /// hit counts, so they cancel exactly.
    fn shift(&self, ks: &mut KernelScratch, x: usize, dir: i32) {
        let s = self.threshold();
        let n = usize::from(self.num_nodes());
        for &obj in self.row_objects(x as u16) {
            let obj = obj as usize;
            let h = self.hit_count(obj);
            let delta = dir * (pair_weight(h + 1, s) - pair_weight(h, s));
            if delta != 0 {
                bump_pairs(&mut ks.pair, n, self.hosts_of(obj), delta);
            }
        }
    }
}

/// An object's weight in the pair-correction matrix at hit count `h`:
/// `+1` one hit below the gain set (`h = s − 2`), `−1` inside it
/// (`h = s − 1`), `0` elsewhere.
fn pair_weight(h: u16, s: u16) -> i32 {
    if h + 2 == s {
        1
    } else if h + 1 == s {
        -1
    } else {
        0
    }
}

/// Adds `delta` to the pair-matrix entry of every host pair of one
/// object (canonical `lo < hi` indexing).
fn bump_pairs(pair: &mut [i32], n: usize, hosts: &[u16], delta: i32) {
    for (i, &a) in hosts.iter().enumerate() {
        for &b in hosts.get(i + 1..).unwrap_or(&[]) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            if let Some(slot) = pair.get_mut(usize::from(lo) * n + usize::from(hi)) {
                *slot += delta;
            }
        }
    }
}

/// Finds the exact maximum number of failed objects over all `k`-subsets
/// of nodes, or `None` if the search exceeds `budget` node expansions.
///
/// `incumbent` is a known-achievable value (e.g. from local search) used
/// as the initial pruning bound — the returned `WorstCase.nodes` is empty
/// and `failed == incumbent` when no subset beats the incumbent (the
/// caller already has a witness).
///
/// When `k ≥ n` the search degenerates: the returned node set is all `n`
/// nodes (`min(k, n)` entries — there are no more distinct nodes to
/// fail) and `failed` is computed over exactly that returned set.
///
/// # Examples
///
/// ```
/// use wcp_adversary::exact_worst;
/// use wcp_core::Placement;
///
/// let p = Placement::new(5, 2, vec![vec![0, 1], vec![0, 2], vec![3, 4]])?;
/// let wc = exact_worst(&p, 1, 2, 1_000_000, 0).unwrap();
/// assert_eq!(wc.failed, 3); // nodes {0, 3} (or {0, 4}) touch all objects
/// assert!(wc.exact);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[must_use]
pub fn exact_worst(
    placement: &Placement,
    s: u16,
    k: u16,
    budget: u64,
    incumbent: u64,
) -> Option<WorstCase> {
    exact_worst_with(
        placement,
        s,
        k,
        budget,
        incumbent,
        &mut AdversaryScratch::new(),
    )
}

/// [`exact_worst`] reusing the caller's scratch buffers (the DFS's
/// failure accounting and ordering buffers are rebuilt in place instead
/// of reallocated).
#[must_use]
pub fn exact_worst_with(
    placement: &Placement,
    s: u16,
    k: u16,
    budget: u64,
    incumbent: u64,
    scratch: &mut AdversaryScratch,
) -> Option<WorstCase> {
    let n = placement.num_nodes();
    if k >= n {
        return Some(degenerate_all_nodes(placement, s, k));
    }
    let b = placement.num_objects() as u64;
    let (pc, _, ds) = scratch.packed(placement, s, false);
    let (failed, nodes) = run_dfs(pc, ds, k, budget, incumbent, b, None)?;
    Some(WorstCase {
        failed,
        nodes,
        exact: true,
    })
}

/// The `k ≥ n` degenerate case: every node fails. The returned set
/// holds all `n` distinct nodes and `failed` is computed over that same
/// set.
pub(crate) fn degenerate_all_nodes(placement: &Placement, s: u16, k: u16) -> WorstCase {
    let n = placement.num_nodes();
    let nodes: Vec<u16> = (0..n).collect();
    let failed = placement.failed_objects(&nodes, s);
    debug_assert_eq!(nodes.len(), usize::from(k.min(n)));
    WorstCase {
        failed,
        nodes,
        exact: true,
    }
}

/// [`branch_and_bound`] on an empty, bound kernel, with the witness as
/// nodes. Builds (or reuses) the empty-set pair-correction matrix
/// first; the search keeps it current from there through balanced
/// [`ExactBackend::shift`] calls, so a cached matrix is already back in
/// its root state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_dfs(
    pc: &mut PackedCounts,
    ds: &mut DfsScratch,
    k: u16,
    budget: u64,
    incumbent: u64,
    b: u64,
    root: Option<Root<'_>>,
) -> Option<(u64, Vec<u16>)> {
    let ks = &mut ds.kernel;
    let key = (pc.num_nodes(), pc.num_objects(), pc.threshold());
    if k >= 2 && ks.pair_key != Some(key) {
        let n = usize::from(pc.num_nodes());
        ks.pair.clear();
        ks.pair.resize(n * n, 0);
        let w0 = pair_weight(0, pc.threshold());
        if w0 != 0 {
            for obj in 0..pc.num_objects() {
                bump_pairs(&mut ks.pair, n, pc.hosts_of(obj), w0);
            }
        }
        ks.pair_key = Some(key);
    }
    let (failed, nodes) = branch_and_bound(pc, ks, &mut ds.frame, k, budget, incumbent, b, root)?;
    Some((failed, nodes.into_iter().map(|x| x as u16).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_combin::KSubsets;
    use wcp_core::{Placement, RandomStrategy, RandomVariant, SystemParams};

    fn brute_force(p: &Placement, s: u16, k: u16) -> u64 {
        KSubsets::new(p.num_nodes(), k)
            .map(|subset| p.failed_objects(&subset, s))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn matches_brute_force() {
        for seed in 0..4u64 {
            let params = SystemParams::new(13, 50, 3, 1, 1).unwrap();
            let p = RandomStrategy::new(seed, RandomVariant::LoadBalanced)
                .place(&params)
                .unwrap();
            for s in 1..=3u16 {
                for k in s..=6u16 {
                    let wc = exact_worst(&p, s, k, u64::MAX, 0).unwrap();
                    assert_eq!(wc.failed, brute_force(&p, s, k), "seed={seed} s={s} k={k}");
                    assert_eq!(p.failed_objects(&wc.nodes, s), wc.failed, "witness");
                }
            }
        }
    }

    #[test]
    fn sts_structure_worst_case() {
        // STS(13) as a Simple(1,1) placement with r = s = 3: five failed
        // nodes can contain at most two whole triples (they must share
        // exactly one point), so the exact adversary reports 2.
        let sts = wcp_designs::sts::steiner_triple_system(13).unwrap();
        let p = Placement::new(13, 3, sts.into_blocks()).unwrap();
        let wc = exact_worst(&p, 3, 5, u64::MAX, 0).unwrap();
        assert_eq!(wc.failed, 2);
        // With k = 6 one can hit two disjoint triples (6 points) but also
        // try 3 pairwise-intersecting ones; brute force confirms.
        let wc6 = exact_worst(&p, 3, 6, u64::MAX, 0).unwrap();
        assert_eq!(wc6.failed, brute_force(&p, 3, 6));
    }

    #[test]
    fn incumbent_prunes_without_witness() {
        let p = Placement::new(5, 2, vec![vec![0, 1], vec![2, 3]]).unwrap();
        // Optimal is 1 at k=2, s=2; pass incumbent = 1 (already optimal):
        // search confirms exactness, returns incumbent value, no witness.
        let wc = exact_worst(&p, 2, 2, u64::MAX, 1).unwrap();
        assert_eq!(wc.failed, 1);
        assert!(wc.nodes.is_empty());
    }

    #[test]
    fn budget_abort() {
        let params = SystemParams::new(40, 200, 3, 1, 1).unwrap();
        let p = RandomStrategy::new(5, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap();
        assert!(exact_worst(&p, 2, 6, 5, 0).is_none());
    }

    #[test]
    fn early_exit_when_everything_dies() {
        // k large enough to fail all objects: the all-objects short-circuit
        // keeps the search cheap.
        let params = SystemParams::new(20, 100, 3, 1, 1).unwrap();
        let p = RandomStrategy::new(2, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap();
        let wc = exact_worst(&p, 1, 19, 100_000, 0).unwrap();
        assert_eq!(wc.failed, 100);
    }

    #[test]
    fn degenerate_k_at_least_n_failed_matches_returned_nodes() {
        // Regression: the k ≥ n branch must compute `failed` over the
        // node set it actually returns (all n nodes), for every k ≥ n.
        let params = SystemParams::new(8, 20, 3, 1, 1).unwrap();
        let p = RandomStrategy::new(1, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap();
        for (s, k) in [(1u16, 8u16), (2, 9), (3, 200)] {
            let wc = exact_worst(&p, s, k, u64::MAX, 0).unwrap();
            assert!(wc.exact);
            assert_eq!(wc.nodes.len(), usize::from(k.min(8)), "k={k}");
            assert_eq!(
                wc.failed,
                p.failed_objects(&wc.nodes, s),
                "failed must be over the returned set (s={s}, k={k})"
            );
        }
    }
}
