//! The heuristic rungs — greedy ascent and steepest-ascent swap search
//! with seeded restarts — written once over the [`Backend`] trait and
//! run on every failure-accounting backend: the word-parallel
//! [`PackedCounts`] kernel ([`PackedClimb`]), the compressed histogram
//! classes ([`crate::hist`]), failure units of a topology
//! ([`crate::domain`]) and the scalar [`crate::FailureCounts`] oracle
//! ([`crate::reference`]).
//!
//! One implementation means one set of decisions: every backend scans
//! candidates in ascending order, breaks ties toward the first strict
//! improvement and consumes the same RNG stream, so all of them return
//! the same [`WorstCase`] and differ only in speed. The only
//! backend-specific step is a climb step's swap scan
//! ([`Backend::best_swap`]). Its default re-derives every swap naively
//! (remove each member, query every candidate's gain, re-add); the
//! packed kernel and the histogram backend override it with a gain
//! table delta-maintained across swaps.
//!
//! The plain node entry points ([`greedy_worst`], [`local_search_worst`])
//! allocate their own failure accounting; the `_with` variants thread an
//! [`AdversaryScratch`] so callers evaluating many placements back to
//! back reuse the buffers instead of reallocating per evaluation.

use crate::counts::PackedCounts;
use crate::hist::HistClimb;
use crate::{AdversaryConfig, AdversaryScratch, WorstCase};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use wcp_core::Placement;

/// One failure-accounting backend of the ladder. Its elements — nodes,
/// or failure units — are dense indices `0..universe()`; the backend
/// tracks a chosen set of them and the objects that set fails.
pub(crate) trait Backend {
    /// Number of choosable elements.
    fn universe(&self) -> usize;
    /// Objects failed by the chosen set.
    fn failed(&self) -> u64;
    /// Whether `x` is chosen.
    fn chosen(&self, x: usize) -> bool;
    /// Objects that would newly fail if the unchosen `x` were added
    /// (`&mut` because unit backends apply and undo).
    fn gain(&mut self, x: usize) -> u64;
    /// The tie-break after gain: a node's load, or the total load of a
    /// unit's leaves.
    fn weight(&self, x: usize) -> u64;
    /// Adds `x` to the chosen set.
    fn add(&mut self, x: usize);
    /// Removes `x` from the chosen set.
    fn remove(&mut self, x: usize);
    /// Empties the chosen set (and resets any maintained gain table).
    fn clear(&mut self);
    /// Objects within `hits` more replica hits of failing — the
    /// admissible bound behind the exact rung's ledger.
    fn failable_within(&self, hits: u16) -> u64;
    /// The most hits one element can deal one object.
    fn max_hits(&self) -> u16 {
        1
    }
    /// The chosen set and its damage.
    fn choice(&self) -> Choice;

    /// The best strictly improving swap `(out, in, value)` from a chosen
    /// set failing `current` objects: members `out` ascending, then
    /// candidates `in` ascending, keeping the first strictly best value.
    /// This default removes each member, queries every candidate's gain
    /// and re-adds the member.
    fn best_swap(&mut self, current: u64) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        for out in 0..self.universe() {
            if !self.chosen(out) {
                continue;
            }
            self.remove(out);
            let base = self.failed();
            for inn in 0..self.universe() {
                if self.chosen(inn) || inn == out {
                    continue;
                }
                let value = base + self.gain(inn);
                if value > current && best.is_none_or(|(_, _, v)| value > v) {
                    best = Some((out, inn, value));
                }
            }
            self.add(out);
        }
        best
    }

    /// Applies a swap [`Backend::best_swap`] chose.
    fn swap(&mut self, out: usize, inn: usize) {
        self.remove(out);
        self.add(inn);
    }
}

/// A chosen set with its damage: what every rung returns and every
/// trace entry records. Node backends leave `units` empty; unit
/// backends report the chosen units and their leaf union.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Choice {
    /// Objects failed.
    pub failed: u64,
    /// The failed nodes (sorted).
    pub nodes: Vec<u16>,
    /// The chosen failure units (sorted; empty for node backends).
    pub units: Vec<u32>,
}

impl Choice {
    /// A node choice.
    pub(crate) fn of_nodes(failed: u64, nodes: Vec<u16>) -> Self {
        Self {
            failed,
            nodes,
            units: Vec::new(),
        }
    }

    /// The node-ladder outcome.
    pub(crate) fn worst(self, exact: bool) -> WorstCase {
        WorstCase {
            failed: self.failed,
            nodes: self.nodes,
            exact,
        }
    }
}

/// Per-rung decision record the certificate prover consumes: the greedy
/// seed's outcome plus each climb pass's outcome, in restart order.
/// Recorded by the serial schedule below and the parallel fan-out in
/// [`crate::parallel`] (whose entries differ because the two schedules
/// differ — each is replayable against its own mode).
#[derive(Debug, Default)]
pub(crate) struct LadderTrace {
    /// The greedy seed before any climbing.
    pub greedy: Option<Choice>,
    /// Each climb pass's outcome, in restart order.
    pub restarts: Vec<Choice>,
}

/// Greedy ascent from the empty set: `k` times, adds the candidate with
/// the largest `(gain, weight)`, the lowest index winning ties. Leaves
/// the chosen set (and any maintained gain table) in `be`.
pub(crate) fn greedy<B: Backend>(be: &mut B, k: u16) {
    be.clear();
    for _ in 0..usize::from(k).min(be.universe()) {
        let mut best: Option<(usize, (u64, u64))> = None;
        for x in 0..be.universe() {
            if be.chosen(x) {
                continue;
            }
            let key = (be.gain(x), be.weight(x));
            if best.is_none_or(|(_, best_key)| key > best_key) {
                best = Some((x, key));
            }
        }
        let Some((x, _)) = best else {
            break;
        };
        be.add(x);
    }
}

/// Seeds a random `k`-set: one shuffle of `0..universe()`, the first
/// `k` entries chosen.
pub(crate) fn seed_random<B: Backend>(be: &mut B, k: u16, rng: &mut StdRng) {
    be.clear();
    let mut perm: Vec<u32> = (0..be.universe() as u32).collect();
    perm.shuffle(rng);
    for &x in perm.iter().take(usize::from(k)) {
        be.add(x as usize);
    }
}

/// Applies best-improvement swaps until a local optimum, `max_steps`,
/// or every one of the `all` objects failed.
pub(crate) fn climb<B: Backend>(be: &mut B, max_steps: u32, all: u64) {
    for _ in 0..max_steps {
        let current = be.failed();
        if current == all {
            return;
        }
        let Some((out, inn, value)) = be.best_swap(current) else {
            return;
        };
        be.swap(out, inn);
        debug_assert_eq!(be.failed(), value, "swap value drifted");
    }
}

/// The serial restart schedule: restart 0 climbs from the greedy set,
/// restarts `1..restarts` from random `k`-sets drawn from one
/// sequential stream seeded with `config.seed`; stops early once all
/// `all` objects fail.
pub(crate) fn local_search<B: Backend>(
    be: &mut B,
    k: u16,
    config: &AdversaryConfig,
    all: u64,
    trace: &mut LadderTrace,
) -> Choice {
    let mut rng = StdRng::seed_from_u64(config.seed);
    greedy(be, k);
    let mut overall = be.choice();
    trace.greedy = Some(overall.clone());
    for restart in 0..config.restarts {
        if restart > 0 {
            seed_random(be, k, &mut rng);
        }
        climb(be, config.max_steps, all);
        let pass = be.choice();
        if pass.failed > overall.failed {
            overall = pass.clone();
        }
        trace.restarts.push(pass);
        if overall.failed == all {
            break;
        }
    }
    overall
}

/// The serial node heuristic on the backend `config` selects for this
/// placement: the histogram classes from
/// [`AdversaryConfig::hist_threshold`] objects up, the packed kernel
/// below.
pub(crate) fn node_local_search(
    placement: &Placement,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
    scratch: &mut AdversaryScratch,
    trace: &mut LadderTrace,
) -> Choice {
    let all = placement.num_objects() as u64;
    if config.uses_histogram(placement.num_objects()) {
        let (hc, hs) = scratch.hist(placement, s, false);
        local_search(&mut HistClimb { hc, hs }, k, config, all, trace)
    } else {
        let (pc, cs, _) = scratch.packed(placement, s, false);
        local_search(&mut PackedClimb { pc, cs }, k, config, all, trace)
    }
}

/// Reusable buffers for the delta-maintained swap search.
#[derive(Debug, Default)]
pub(crate) struct ClimbScratch {
    /// `gains[nd] = |row(nd) ∩ {hits = s − 1}|` for every node,
    /// maintained across swaps (`i64` so the hot value scan adds it to
    /// the sparse corrections without casts; always non-negative).
    gains: Vec<i64>,
    /// Per-`out` gain corrections, sparse (bulk-zeroed per candidate —
    /// a few hundred bytes, cheaper than tracking dirty entries).
    delta: Vec<i64>,
    /// Snapshot of the `hits = s − 1` bitmap across a swap.
    eq_prev: Vec<u64>,
    /// The `hits = s` bitmap of the current step (loss mask).
    eq_s: Vec<u64>,
    /// Members buffer (replaces a `pc.nodes()` allocation per step).
    members: Vec<u16>,
}

/// The packed kernel as a [`Backend`]: gains come from a table kept
/// live across every add and remove by folding the flips of the
/// maintained `hits = s − 1` bitmap (`O(b/64)` per update instead of a
/// row walk per query).
pub(crate) struct PackedClimb<'a> {
    pub pc: &'a mut PackedCounts,
    pub cs: &'a mut ClimbScratch,
}

impl Backend for PackedClimb<'_> {
    fn universe(&self) -> usize {
        usize::from(self.pc.num_nodes())
    }

    fn failed(&self) -> u64 {
        self.pc.failed()
    }

    fn chosen(&self, x: usize) -> bool {
        self.pc.contains(x as u16)
    }

    fn gain(&mut self, x: usize) -> u64 {
        self.cs.gains.get(x).copied().unwrap_or(0) as u64
    }

    fn weight(&self, x: usize) -> u64 {
        u64::from(self.pc.load(x as u16))
    }

    fn add(&mut self, x: usize) {
        snapshot_eq(self.pc, self.cs);
        self.pc.add_node(x as u16);
        fold_eq_flips(self.pc, self.cs);
    }

    fn remove(&mut self, x: usize) {
        snapshot_eq(self.pc, self.cs);
        self.pc.remove_node(x as u16);
        fold_eq_flips(self.pc, self.cs);
    }

    fn clear(&mut self) {
        self.pc.clear();
        reset_gains(self.pc, self.cs);
    }

    fn failable_within(&self, hits: u16) -> u64 {
        self.pc.failable_within(hits)
    }

    fn choice(&self) -> Choice {
        Choice::of_nodes(self.pc.failed(), self.pc.nodes())
    }

    /// Instead of the default's full re-scan (`O(k·n·ℓ)` per step), this
    /// works entirely off the maintained gain table plus per-`out`
    /// corrections:
    ///
    /// * the loss of removing `out` is one popcount of
    ///   `row(out) ∩ {hits = s}`;
    /// * removing `out` shifts a candidate `inn`'s gain only on objects
    ///   the two rows share, so one sparse walk of `row(out) ∩ {hits = s}`
    ///   and `row(out) ∩ {hits = s − 1}` accumulates the exact correction
    ///   for every candidate at once.
    fn best_swap(&mut self, current: u64) -> Option<(usize, usize, u64)> {
        let (pc, cs) = (&*self.pc, &mut *self.cs);
        #[cfg(debug_assertions)]
        assert_gains_live(pc, cs);
        pc.eq_s_into(&mut cs.eq_s);
        pc.collect_nodes(&mut cs.members);
        let mut best: Option<(u16, u16, u64)> = None; // (out, in, value)
        for idx in 0..cs.members.len() {
            let out = cs.members[idx];
            // Objects at exactly s hits drop below threshold when `out`
            // is removed iff `out` hosts them.
            let loss = pc.and_popcount_row(out, &cs.eq_s);
            let base = current - loss;
            // Corrections: removing `out` lowers counts on row(out) by
            // one, so candidates hosting an object there gain on it iff
            // it sat at s hits (now s − 1) and stop gaining iff it sat
            // at s − 1 (now s − 2).
            let row = pc.row_words(out);
            let eq_sm1 = pc.eq_sm1_words();
            for w in 0..row.len() {
                let mut plus = row[w] & cs.eq_s[w];
                while plus != 0 {
                    let obj = w * 64 + plus.trailing_zeros() as usize;
                    plus &= plus - 1;
                    for &host in pc.hosts_of(obj) {
                        cs.delta[usize::from(host)] += 1;
                    }
                }
                let mut minus = row[w] & eq_sm1[w];
                while minus != 0 {
                    let obj = w * 64 + minus.trailing_zeros() as usize;
                    minus &= minus - 1;
                    for &host in pc.hosts_of(obj) {
                        cs.delta[usize::from(host)] -= 1;
                    }
                }
            }
            // Candidate scan: inlined complement-bitmap walk so the
            // inner loop is loads + adds + compares only.
            let (member_words, limit) = pc.member_words();
            let gains = cs.gains.as_slice();
            let delta = cs.delta.as_slice();
            let base_i = base as i64;
            let current_i = current as i64;
            let mut best_value = best.map_or(current_i, |(_, _, v)| v as i64);
            let last_w = member_words.len().wrapping_sub(1);
            for (wi, &mw) in member_words.iter().enumerate() {
                let mut bits = !mw;
                if wi == last_w {
                    bits &= limit;
                }
                while bits != 0 {
                    let inn = (wi << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let value = base_i + gains[inn] + delta[inn];
                    if value > current_i && value > best_value {
                        best_value = value;
                        best = Some((out, inn as u16, value as u64));
                    }
                }
            }
            cs.delta.fill(0);
        }
        best.map(|(out, inn, value)| (usize::from(out), usize::from(inn), value))
    }

    /// One mask snapshot and one fold for both halves of the swap.
    fn swap(&mut self, out: usize, inn: usize) {
        snapshot_eq(self.pc, self.cs);
        self.pc.remove_node(out as u16);
        self.pc.add_node(inn as u16);
        fold_eq_flips(self.pc, self.cs);
    }
}

/// The bare packed kernel as a [`Backend`], with no gain table: gains
/// are row popcounts and updates skip the table's upkeep. This is the
/// cheaper form where gains are few — the certificate ledger — or
/// queried per leaf of a failure unit (`crate::domain`).
impl Backend for PackedCounts {
    fn universe(&self) -> usize {
        usize::from(self.num_nodes())
    }

    fn failed(&self) -> u64 {
        PackedCounts::failed(self)
    }

    fn chosen(&self, x: usize) -> bool {
        self.contains(x as u16)
    }

    fn gain(&mut self, x: usize) -> u64 {
        PackedCounts::gain(self, x as u16)
    }

    fn weight(&self, x: usize) -> u64 {
        u64::from(self.load(x as u16))
    }

    fn add(&mut self, x: usize) {
        self.add_node(x as u16);
    }

    fn remove(&mut self, x: usize) {
        self.remove_node(x as u16);
    }

    fn clear(&mut self) {
        PackedCounts::clear(self);
    }

    fn failable_within(&self, hits: u16) -> u64 {
        PackedCounts::failable_within(self, hits)
    }

    fn choice(&self) -> Choice {
        Choice::of_nodes(PackedCounts::failed(self), self.nodes())
    }
}

/// (Re)initializes the gain table for an *empty* failed set: at `s = 1`
/// every object sits one hit from failing, so a node's gain is its
/// load; otherwise no object does, so all gains are zero. `O(n)` —
/// no bitmap scan needed.
fn reset_gains(pc: &PackedCounts, cs: &mut ClimbScratch) {
    debug_assert_eq!(pc.failed(), 0, "gain table reset requires an empty set");
    let n = usize::from(pc.num_nodes());
    cs.gains.clear();
    if pc.threshold() == 1 {
        cs.gains
            .extend((0..n as u16).map(|nd| i64::from(pc.load(nd))));
    } else {
        cs.gains.resize(n, 0);
    }
    cs.delta.clear();
    cs.delta.resize(n, 0);
}

/// Copies the current `hits = s − 1` mask into the scratch snapshot.
fn snapshot_eq(pc: &PackedCounts, cs: &mut ClimbScratch) {
    cs.eq_prev.clear();
    cs.eq_prev.extend_from_slice(pc.eq_sm1_words());
}

/// Folds the XOR between the snapshot and the live `hits = s − 1` mask
/// into the gain table: each flipped object adjusts the gain of its `r`
/// hosts by ±1. After any single add/remove/swap the diff is confined
/// to the touched nodes' rows, so this is a handful of popcount-sparse
/// words.
fn fold_eq_flips(pc: &PackedCounts, cs: &mut ClimbScratch) {
    let eq_now = pc.eq_sm1_words();
    for (w, (&prev, &now)) in cs.eq_prev.iter().zip(eq_now).enumerate() {
        let mut diff = prev ^ now;
        while diff != 0 {
            let bit = diff.trailing_zeros() as usize;
            diff &= diff - 1;
            let obj = w * 64 + bit;
            let d: i64 = if now >> bit & 1 == 1 { 1 } else { -1 };
            for &host in pc.hosts_of(obj) {
                cs.gains[usize::from(host)] += d;
            }
        }
    }
}

/// Debug-only invariant: `gains[nd] = |row(nd) ∩ {hits = s − 1}|`.
#[cfg(debug_assertions)]
fn assert_gains_live(pc: &PackedCounts, cs: &ClimbScratch) {
    for nd in 0..pc.num_nodes() {
        assert_eq!(
            cs.gains[usize::from(nd)],
            pc.and_popcount_row(nd, pc.eq_sm1_words()) as i64,
            "gain table drifted at node {nd}"
        );
    }
}

/// Greedy adversary: repeatedly fails the node that kills the most
/// additional objects (ties broken toward higher-load nodes, which bring
/// more objects closer to the threshold).
///
/// # Examples
///
/// ```
/// use wcp_adversary::greedy_worst;
/// use wcp_core::Placement;
///
/// let p = Placement::new(6, 2, vec![vec![0, 1], vec![0, 2], vec![0, 3]])?;
/// let wc = greedy_worst(&p, 1, 1);
/// assert_eq!(wc.nodes, vec![0]); // the hub node
/// assert_eq!(wc.failed, 3);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[must_use]
pub fn greedy_worst(placement: &Placement, s: u16, k: u16) -> WorstCase {
    greedy_worst_with(placement, s, k, &mut AdversaryScratch::new())
}

/// [`greedy_worst`] reusing the caller's scratch buffers.
#[must_use]
pub fn greedy_worst_with(
    placement: &Placement,
    s: u16,
    k: u16,
    scratch: &mut AdversaryScratch,
) -> WorstCase {
    let (pc, cs, _) = scratch.packed(placement, s, false);
    let mut be = PackedClimb { pc, cs };
    greedy(&mut be, k);
    be.choice().worst(false)
}

/// Steepest-ascent swap local search with restarts: from a seed `k`-set
/// (greedy for the first restart, random thereafter), repeatedly applies
/// the best single swap (one node out, one in) until no swap improves the
/// failed-object count.
///
/// # Examples
///
/// ```
/// use wcp_adversary::{local_search_worst, AdversaryConfig};
/// use wcp_core::Placement;
///
/// let p = Placement::new(6, 3, vec![vec![0, 1, 2], vec![1, 2, 3]])?;
/// let wc = local_search_worst(&p, 2, 2, &AdversaryConfig::default());
/// assert_eq!(wc.failed, 2); // {1,2} kills both objects
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[must_use]
pub fn local_search_worst(
    placement: &Placement,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
) -> WorstCase {
    local_search_worst_with(placement, s, k, config, &mut AdversaryScratch::new())
}

/// [`local_search_worst`] reusing the caller's scratch buffers: one
/// bound backend serves the greedy seed and every restart (cleared in
/// place between them instead of rebuilt), and one gain table rides
/// along the whole way.
#[must_use]
pub fn local_search_worst_with(
    placement: &Placement,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
    scratch: &mut AdversaryScratch,
) -> WorstCase {
    node_local_search(
        placement,
        s,
        k,
        config,
        scratch,
        &mut LadderTrace::default(),
    )
    .worst(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use wcp_core::{RandomStrategy, RandomVariant, SystemParams};

    fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = SystemParams::new(n, b, r, 1, 1).unwrap();
        RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

    use wcp_core::Placement;

    #[test]
    fn greedy_finds_hub() {
        let p =
            Placement::new(10, 2, vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![4, 5]]).unwrap();
        let wc = greedy_worst(&p, 1, 2);
        assert!(wc.nodes.contains(&0));
        assert_eq!(wc.failed, 4); // hub + either of {4,5}
    }

    #[test]
    fn local_search_improves_or_equals_greedy() {
        for seed in 0..6u64 {
            let p = random_placement(25, 150, 3, seed);
            for (s, k) in [(1u16, 3u16), (2, 4), (3, 6)] {
                let g = greedy_worst(&p, s, k);
                let ls = local_search_worst(&p, s, k, &AdversaryConfig::default());
                assert!(ls.failed >= g.failed, "seed={seed} s={s} k={k}");
                assert_eq!(p.failed_objects(&ls.nodes, s), ls.failed);
                assert_eq!(ls.nodes.len(), usize::from(k));
            }
        }
    }

    #[test]
    fn shared_scratch_matches_fresh_buffers() {
        // One scratch across a sequence of differently shaped placements
        // must reproduce the fresh-allocation results cell for cell.
        let mut scratch = AdversaryScratch::new();
        let cfg = AdversaryConfig::default();
        for (seed, n, b, r) in [(1u64, 20u16, 80u64, 3u16), (2, 25, 150, 3), (3, 12, 40, 4)] {
            let p = random_placement(n, b, r, seed);
            for (s, k) in [(1u16, 2u16), (2, 4), (2, 5)] {
                let fresh_g = greedy_worst(&p, s, k);
                let reuse_g = greedy_worst_with(&p, s, k, &mut scratch);
                assert_eq!(fresh_g, reuse_g, "greedy n={n} s={s} k={k}");
                let fresh_ls = local_search_worst(&p, s, k, &cfg);
                let reuse_ls = local_search_worst_with(&p, s, k, &cfg, &mut scratch);
                assert_eq!(fresh_ls, reuse_ls, "ls n={n} s={s} k={k}");
            }
        }
    }

    #[test]
    fn kernel_ladder_matches_scalar_reference() {
        // The packed ladder must be decision-identical to the scalar
        // oracle, witness included. Both run the same greedy, seeding
        // and restart code, so their agreement cannot catch a change to
        // those shared decisions (tie-breaks, RNG use, which restart's
        // witness wins); a digest of the answers pins them.
        let cfg = AdversaryConfig::default();
        let mut digest = wcp_core::Fnv::new();
        for seed in 0..4u64 {
            let p = random_placement(22, 120, 3, seed);
            for (s, k) in [(1u16, 3u16), (2, 4), (3, 5)] {
                let greedy = greedy_worst(&p, s, k);
                assert_eq!(
                    greedy,
                    reference::greedy_worst(&p, s, k),
                    "greedy seed={seed} s={s} k={k}"
                );
                let ls = local_search_worst(&p, s, k, &cfg);
                assert_eq!(
                    ls,
                    reference::local_search_worst(&p, s, k, &cfg),
                    "ls seed={seed} s={s} k={k}"
                );
                for wc in [greedy, ls] {
                    digest.write_u64(wc.failed);
                    digest.write_u64(wc.nodes.len() as u64);
                    for nd in wc.nodes {
                        digest.write_u64(u64::from(nd));
                    }
                }
            }
        }
        assert_eq!(
            digest.finish(),
            0x3db1_ce85_a16f_94fa,
            "heuristic decisions moved"
        );
    }

    #[test]
    fn gain_based_swap_value_is_consistent() {
        // Verify the swap valuation by comparing a full recompute.
        let p = random_placement(15, 80, 3, 3);
        let mut pc = PackedCounts::new(&p, 2);
        for nd in [0u16, 3, 7, 11] {
            pc.add_node(nd);
        }
        pc.remove_node(3);
        let base = pc.failed();
        for inn in 0..15u16 {
            if pc.contains(inn) {
                continue;
            }
            let predicted = base + pc.gain(inn);
            pc.add_node(inn);
            assert_eq!(pc.failed(), predicted, "node {inn}");
            pc.remove_node(inn);
        }
    }

    #[test]
    fn k_at_least_n_fails_everything_reachable() {
        let p = random_placement(9, 30, 3, 0);
        let wc = local_search_worst(&p, 2, 9, &AdversaryConfig::default());
        assert_eq!(wc.failed, 30);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = random_placement(30, 200, 3, 11);
        let cfg = AdversaryConfig::default();
        let a = local_search_worst(&p, 2, 5, &cfg);
        let b = local_search_worst(&p, 2, 5, &cfg);
        assert_eq!(a, b);
    }
}
