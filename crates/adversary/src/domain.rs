//! The domain adversary: worst-case search over hierarchical failure
//! domains.
//!
//! Under a [`Topology`] the budget-`k` adversary no longer picks `k`
//! individual nodes — it picks `k` *tree nodes* (failure units: leaves,
//! racks, zones; see [`Topology::failure_units`]), and failing an
//! internal unit takes down its whole leaf set at once. An object still
//! dies once `s` of its replicas sit on downed leaves, and overlapping
//! choices (a leaf plus the rack above it) count each leaf once.
//!
//! Failure units are one more backend of the node ladder: the greedy
//! and local-search rungs, the exact rung and the ladder driver are the
//! very ones [`crate::Ladder::run`] climbs. The exact rung *is* the node
//! DFS of the `exact` module on the unit backend, which answers only its
//! supply query (the packed node kernel's fused bottom levels stay
//! node-only; units use plain recursion, which spends the budget
//! identically). So on the **flat** topology
//! [`crate::Ladder::run_domain`] and [`domain_exact_worst`] reproduce
//! the node ladder's [`crate::WorstCase`] bit for bit at every exact
//! budget, budget exhaustion included. The unit backend folds each
//! unit's per-node coverage into `add_node`/`remove_node` updates of a
//! per-node backend (a node is added on its 0 → 1 coverage transition
//! only, removed on 1 → 0): the word-parallel [`PackedCounts`] kernel in
//! production, the scalar [`FailureCounts`] oracle in the [`scalar`]
//! reference ladder of the differential suite
//! (`tests/domain_differential.rs`).
//!
//! The bounds generalize admissibly: with `m` unit failures left, one
//! unit can add at most `c_max = max_u min(|leaves(u)|, r)` hits to one
//! object, so the histogram/supply bounds are evaluated at `m · c_max`
//! hits; for flat topologies `c_max = 1` recovers the node bounds
//! exactly.

use crate::counts::{FailureCounts, PackedCounts};
use crate::exact::{self, ExactBackend, FrameBufs};
use crate::ladder::{drive, Rungs};
use crate::search::{self, Backend, Choice, LadderTrace};
use crate::{certify, AdversaryConfig};
use wcp_core::{Certificate, CertificateKind, LedgerEntry, Placement, Topology};

/// The outcome of a domain-adversary run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainWorstCase {
    /// Objects failed by the chosen units.
    pub failed: u64,
    /// The chosen failure units (sorted indices into
    /// [`Topology::failure_units`]).
    pub units: Vec<u32>,
    /// The union of leaf nodes the chosen units take down (sorted).
    pub nodes: Vec<u16>,
    /// Whether `failed` is provably the maximum.
    pub exact: bool,
}

impl DomainWorstCase {
    fn from_choice(choice: Choice, exact: bool) -> Self {
        Self {
            failed: choice.failed,
            units: choice.units,
            nodes: choice.nodes,
            exact,
        }
    }
}

/// The immutable per-(placement, topology) unit index: leaf sets,
/// weights (total load of a unit's leaves), and the admissible
/// per-unit hit cap feeding the bounds.
#[derive(Debug)]
struct DomainIndex {
    /// Leaf sets per unit, in [`Topology::failure_units`] order.
    units: Vec<Vec<u16>>,
    /// Total load of each unit's leaves.
    weights: Vec<u64>,
    /// `max_u min(|leaves(u)|, r)` — the most hits one unit can deal a
    /// single object.
    max_unit_hits: u16,
    n: u16,
}

impl DomainIndex {
    fn new(placement: &Placement, topology: &Topology) -> Self {
        assert_eq!(
            topology.num_nodes(),
            placement.num_nodes(),
            "topology spans {} nodes, placement has {}",
            topology.num_nodes(),
            placement.num_nodes()
        );
        let loads = placement.cached_loads();
        let r = usize::from(placement.replicas_per_object());
        let units: Vec<Vec<u16>> = topology
            .failure_units()
            .into_iter()
            .map(|u| u.nodes)
            .collect();
        let weights = units
            .iter()
            .map(|nodes| {
                nodes
                    .iter()
                    .filter_map(|&nd| loads.get(usize::from(nd)))
                    .map(|&load| u64::from(load))
                    .sum()
            })
            .collect();
        let max_unit_hits = units.iter().map(|u| u.len().min(r)).max().unwrap_or(0) as u16;
        Self {
            units,
            weights,
            max_unit_hits,
            n: placement.num_nodes(),
        }
    }

    fn len(&self) -> usize {
        self.units.len()
    }

    /// The leaf set of unit `u`.
    fn leaves(&self, u: usize) -> &[u16] {
        self.units.get(u).map_or(&[], Vec::as_slice)
    }

    /// The union of the given units' leaves (sorted, deduplicated).
    fn nodes_of(&self, units: &[u32]) -> Vec<u16> {
        let mut nodes: Vec<u16> = units
            .iter()
            .flat_map(|&u| self.leaves(u as usize).iter().copied())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// A per-node backend the unit backend can run on — the packed kernel
/// or the scalar oracle — with its exact-search supply query. The unit
/// backend is written once against it, so the packed and scalar domain
/// ladders cannot drift apart.
pub(crate) trait NodeCounts: ExactBackend<Scratch: Default> {
    /// Builds the accounting for a placement at threshold `s`.
    fn build(placement: &Placement, s: u16) -> Self;
}

impl NodeCounts for PackedCounts {
    fn build(placement: &Placement, s: u16) -> Self {
        PackedCounts::new(placement, s)
    }
}

impl NodeCounts for FailureCounts {
    fn build(placement: &Placement, s: u16) -> Self {
        FailureCounts::new(placement, s)
    }
}

/// The scalar oracle's supply query: a walk of the node's objects (the
/// scratch is the prepared hit budget).
impl ExactBackend for FailureCounts {
    type Scratch = u16;

    fn begin_supply(&mut self, ks: &mut u16, hits: u16) {
        *ks = hits;
    }

    fn supply(&self, &hits: &u16, x: usize) -> u64 {
        let s = self.threshold();
        let lo = s.saturating_sub(hits);
        self.objects_on(x as u16)
            .iter()
            .filter(|&&obj| {
                let h = self.hit_count(obj as usize);
                h >= lo && h < s
            })
            .count() as u64
    }
}

/// Chosen-unit and leaf-coverage bookkeeping: a leaf is failed in the
/// underlying counts iff its coverage is positive, so overlapping units
/// never double-count a node.
#[derive(Debug, Default)]
struct CoverState {
    chosen: Vec<bool>,
    cover: Vec<u16>,
}

impl CoverState {
    fn reset(&mut self, units: usize, n: u16) {
        self.chosen.clear();
        self.chosen.resize(units, false);
        self.cover.clear();
        self.cover.resize(usize::from(n), 0);
    }

    fn is_chosen(&self, u: usize) -> bool {
        self.chosen.get(u).copied().unwrap_or(false)
    }

    fn covered(&self, nd: u16) -> bool {
        self.cover.get(usize::from(nd)).is_some_and(|&c| c > 0)
    }

    fn chosen_units(&self) -> Vec<u32> {
        self.chosen
            .iter()
            .enumerate()
            .filter_map(|(u, &c)| c.then_some(u as u32))
            .collect()
    }

    fn failed_nodes(&self) -> Vec<u16> {
        self.cover
            .iter()
            .enumerate()
            .filter_map(|(nd, &c)| (c > 0).then_some(nd as u16))
            .collect()
    }

    /// Fails unit `u` (leaf set `leaves`): each leaf enters the counts
    /// on its 0 → 1 coverage transition only.
    fn fail_unit<C: NodeCounts>(&mut self, counts: &mut C, u: usize, leaves: &[u16]) {
        debug_assert!(!self.is_chosen(u), "unit already failed");
        if let Some(chosen) = self.chosen.get_mut(u) {
            *chosen = true;
        }
        for &nd in leaves {
            if let Some(c) = self.cover.get_mut(usize::from(nd)) {
                *c += 1;
                if *c == 1 {
                    counts.add(usize::from(nd));
                }
            }
        }
    }

    /// Unfails unit `u`: each leaf leaves the counts on its 1 → 0
    /// coverage transition only.
    fn unfail_unit<C: NodeCounts>(&mut self, counts: &mut C, u: usize, leaves: &[u16]) {
        debug_assert!(self.is_chosen(u), "unit not failed");
        if let Some(chosen) = self.chosen.get_mut(u) {
            *chosen = false;
        }
        for &nd in leaves {
            if let Some(c) = self.cover.get_mut(usize::from(nd)) {
                *c -= 1;
                if *c == 0 {
                    counts.remove(usize::from(nd));
                }
            }
        }
    }

    /// Additional failures if the unit with leaf set `leaves` were
    /// failed; `tmp` is scratch for the uncovered leaves. One uncovered
    /// leaf is the backend's maintained `gain` fast path (for the
    /// packed kernel a mask popcount, no add/remove churn); the general
    /// case applies and undoes.
    fn gain_unit<C: NodeCounts>(&self, counts: &mut C, leaves: &[u16], tmp: &mut Vec<u16>) -> u64 {
        tmp.clear();
        tmp.extend(leaves.iter().copied().filter(|&nd| !self.covered(nd)));
        match tmp.as_slice() {
            [] => 0,
            &[nd] => counts.gain(usize::from(nd)),
            _ => {
                let before = counts.failed();
                for &nd in tmp.iter() {
                    counts.add(usize::from(nd));
                }
                let after = counts.failed();
                for &nd in tmp.iter().rev() {
                    counts.remove(usize::from(nd));
                }
                after - before
            }
        }
    }
}

/// Failure units of a topology as a [`Backend`], over a per-node
/// backend `C`; also answers the exact rung's supply queries.
#[derive(Debug)]
struct UnitBackend<C> {
    idx: DomainIndex,
    counts: C,
    cov: CoverState,
    tmp: Vec<u16>,
}

impl<C: NodeCounts> UnitBackend<C> {
    fn new(placement: &Placement, topology: &Topology, s: u16) -> Self {
        let idx = DomainIndex::new(placement, topology);
        let mut cov = CoverState::default();
        cov.reset(idx.len(), idx.n);
        Self {
            idx,
            counts: C::build(placement, s),
            cov,
            tmp: Vec::new(),
        }
    }
}

impl<C: NodeCounts> Backend for UnitBackend<C> {
    fn universe(&self) -> usize {
        self.idx.len()
    }

    fn failed(&self) -> u64 {
        self.counts.failed()
    }

    fn chosen(&self, u: usize) -> bool {
        self.cov.is_chosen(u)
    }

    fn gain(&mut self, u: usize) -> u64 {
        debug_assert!(!self.cov.is_chosen(u));
        self.cov
            .gain_unit(&mut self.counts, self.idx.leaves(u), &mut self.tmp)
    }

    fn weight(&self, u: usize) -> u64 {
        self.idx.weights.get(u).copied().unwrap_or(0)
    }

    fn add(&mut self, u: usize) {
        self.cov.fail_unit(&mut self.counts, u, self.idx.leaves(u));
    }

    fn remove(&mut self, u: usize) {
        self.cov
            .unfail_unit(&mut self.counts, u, self.idx.leaves(u));
    }

    fn clear(&mut self) {
        self.counts.clear();
        self.cov.reset(self.idx.len(), self.idx.n);
    }

    fn failable_within(&self, hits: u16) -> u64 {
        self.counts.failable_within(hits)
    }

    fn max_hits(&self) -> u16 {
        self.idx.max_unit_hits
    }

    fn choice(&self) -> Choice {
        Choice {
            failed: self.counts.failed(),
            nodes: self.cov.failed_nodes(),
            units: self.cov.chosen_units(),
        }
    }
}

/// The unit backend's supply query: Σ over a unit's uncovered leaves of
/// the per-node backend's supply.
impl<C: NodeCounts> ExactBackend for UnitBackend<C> {
    type Scratch = C::Scratch;

    fn begin_supply(&mut self, ks: &mut C::Scratch, hits: u16) {
        self.counts.begin_supply(ks, hits);
    }

    fn supply(&self, ks: &C::Scratch, u: usize) -> u64 {
        let leaves = self.idx.leaves(u).iter();
        let uncovered = leaves.filter(|&&nd| !self.cov.covered(nd));
        uncovered
            .map(|&nd| self.counts.supply(ks, usize::from(nd)))
            .sum()
    }
}

/// The exact rung on a unit backend: the one branch-and-bound of
/// [`crate::exact`], the witness reported as units and their leaf union.
fn unit_exact_search<C: NodeCounts>(
    be: &mut UnitBackend<C>,
    k: u16,
    budget: u64,
    incumbent: u64,
    all: u64,
) -> Option<Choice> {
    be.clear();
    let (ks, bufs) = (&mut C::Scratch::default(), &mut FrameBufs::default());
    let (failed, units) = exact::branch_and_bound(be, ks, bufs, k, budget, incumbent, all, None)?;
    Some(Choice {
        failed,
        nodes: be.idx.nodes_of(&units),
        units,
    })
}

/// The unit-budget rungs: the shared heuristic rungs and the unit
/// branch-and-bound, all on one [`UnitBackend`].
struct UnitRungs<'a, C> {
    be: UnitBackend<C>,
    k: u16,
    config: &'a AdversaryConfig,
    all: u64,
}

impl<C: NodeCounts> Rungs for UnitRungs<'_, C> {
    fn universe(&self) -> usize {
        self.be.universe()
    }

    fn everything(&mut self) -> Choice {
        self.be.clear();
        for u in 0..self.be.universe() {
            self.be.add(u);
        }
        self.be.choice()
    }

    fn heuristic(&mut self, trace: &mut LadderTrace) -> Choice {
        search::local_search(&mut self.be, self.k, self.config, self.all, trace)
    }

    fn exact(&mut self, incumbent: u64) -> Option<Choice> {
        let budget = self.config.exact_budget;
        unit_exact_search(&mut self.be, self.k, budget, incumbent, self.all)
    }

    fn ledger(&mut self) -> Vec<LedgerEntry> {
        certify::ledger(&mut self.be, self.k)
    }
}

fn check_shape(placement: &Placement, topology: &Topology, s: u16, k: u16) {
    let units = topology.failure_units().len();
    assert!(
        usize::from(k) <= units,
        "k must be ≤ the number of failure units ({units})"
    );
    assert!(s <= placement.replicas_per_object(), "s must be ≤ r");
}

/// The full unit ladder behind [`crate::Ladder::run_domain`] on the
/// per-node backend `C`, through the one ladder driver, with its
/// certificate when `certified`. The certificate's rung witnesses carry
/// both the chosen unit ids and their leaf union; the verifier needs the
/// same [`Topology`] to re-check them.
pub(crate) fn unit_ladder<C: NodeCounts>(
    placement: &Placement,
    topology: &Topology,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
    certified: bool,
) -> (DomainWorstCase, Option<Certificate>) {
    check_shape(placement, topology, s, k);
    let cert =
        certified.then(|| certify::base_certificate(placement, CertificateKind::Domain, s, k));
    let mut rungs = UnitRungs {
        be: UnitBackend::<C>::new(placement, topology, s),
        k,
        config,
        all: placement.num_objects() as u64,
    };
    let (choice, exact, cert) = drive(&mut rungs, k, cert);
    (DomainWorstCase::from_choice(choice, exact), cert)
}

/// The greedy rung on unit backend `C`.
fn unit_greedy<C: NodeCounts>(
    placement: &Placement,
    topology: &Topology,
    s: u16,
    k: u16,
) -> DomainWorstCase {
    check_shape(placement, topology, s, k);
    let mut be = UnitBackend::<C>::new(placement, topology, s);
    search::greedy(&mut be, k);
    DomainWorstCase::from_choice(be.choice(), false)
}

/// The local-search rung on unit backend `C`.
fn unit_local_search<C: NodeCounts>(
    placement: &Placement,
    topology: &Topology,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
) -> DomainWorstCase {
    check_shape(placement, topology, s, k);
    let mut be = UnitBackend::<C>::new(placement, topology, s);
    let all = placement.num_objects() as u64;
    let choice = search::local_search(&mut be, k, config, all, &mut LadderTrace::default());
    DomainWorstCase::from_choice(choice, false)
}

/// The exact rung on unit backend `C`.
fn unit_exact<C: NodeCounts>(
    placement: &Placement,
    topology: &Topology,
    s: u16,
    k: u16,
    budget: u64,
    incumbent: u64,
) -> Option<DomainWorstCase> {
    check_shape(placement, topology, s, k);
    let mut be = UnitBackend::<C>::new(placement, topology, s);
    let all = placement.num_objects() as u64;
    let choice = unit_exact_search(&mut be, k, budget, incumbent, all)?;
    Some(DomainWorstCase::from_choice(choice, true))
}

/// Greedy domain adversary: repeatedly fails the unit killing the most
/// additional objects (ties toward heavier total load, then lower id).
///
/// # Panics
///
/// Panics if `k` exceeds the unit count, `s > r`, or the topology's
/// node universe mismatches the placement's.
#[must_use]
pub fn domain_greedy_worst(
    placement: &Placement,
    topology: &Topology,
    s: u16,
    k: u16,
) -> DomainWorstCase {
    unit_greedy::<PackedCounts>(placement, topology, s, k)
}

/// Steepest-ascent unit swap search with seeded restarts.
///
/// # Panics
///
/// As for [`domain_greedy_worst`].
#[must_use]
pub fn domain_local_search_worst(
    placement: &Placement,
    topology: &Topology,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
) -> DomainWorstCase {
    unit_local_search::<PackedCounts>(placement, topology, s, k, config)
}

/// Exact worst case over all `k`-subsets of failure units, or `None`
/// when the search exceeds `budget` expansions. As in the node ladder,
/// `incumbent` seeds the pruning bound and the returned unit set is
/// empty when no subset beats it.
///
/// # Panics
///
/// As for [`domain_greedy_worst`].
#[must_use]
pub fn domain_exact_worst(
    placement: &Placement,
    topology: &Topology,
    s: u16,
    k: u16,
    budget: u64,
    incumbent: u64,
) -> Option<DomainWorstCase> {
    unit_exact::<PackedCounts>(placement, topology, s, k, budget, incumbent)
}

/// The scalar reference ladder over failure units: the same rungs and
/// driver as the packed entry points, on the [`FailureCounts`] oracle —
/// the oracle side of `tests/domain_differential.rs`.
pub mod scalar {
    use super::{unit_exact, unit_greedy, unit_ladder, unit_local_search, DomainWorstCase};
    use crate::counts::FailureCounts;
    use crate::AdversaryConfig;
    use wcp_core::{Placement, Topology};

    /// Scalar twin of [`super::domain_greedy_worst`].
    #[must_use]
    pub fn domain_greedy_worst(
        placement: &Placement,
        topology: &Topology,
        s: u16,
        k: u16,
    ) -> DomainWorstCase {
        unit_greedy::<FailureCounts>(placement, topology, s, k)
    }

    /// Scalar twin of [`super::domain_local_search_worst`].
    #[must_use]
    pub fn domain_local_search_worst(
        placement: &Placement,
        topology: &Topology,
        s: u16,
        k: u16,
        config: &AdversaryConfig,
    ) -> DomainWorstCase {
        unit_local_search::<FailureCounts>(placement, topology, s, k, config)
    }

    /// Scalar twin of [`super::domain_exact_worst`].
    #[must_use]
    pub fn domain_exact_worst(
        placement: &Placement,
        topology: &Topology,
        s: u16,
        k: u16,
        budget: u64,
        incumbent: u64,
    ) -> Option<DomainWorstCase> {
        unit_exact::<FailureCounts>(placement, topology, s, k, budget, incumbent)
    }

    /// Scalar twin of the packed domain ladder behind
    /// [`crate::Ladder::run_domain`].
    #[must_use]
    pub fn domain_worst_case_failures(
        placement: &Placement,
        topology: &Topology,
        s: u16,
        k: u16,
        config: &AdversaryConfig,
    ) -> DomainWorstCase {
        unit_ladder::<FailureCounts>(placement, topology, s, k, config, false).0
    }
}

/// An [`wcp_core::engine::Attacker`] spending its budget on failure
/// units of a fixed [`Topology`]: plugging it into
/// [`wcp_core::Engine`] measures availability against correlated
/// rack/zone failures instead of independent node failures. The
/// reported witness is the *leaf union* of the chosen units (its length
/// is typically larger than `k`).
///
/// # Panics
///
/// [`attack`](wcp_core::engine::Attacker::attack) panics — the
/// `Attacker` contract has no error channel — when the topology's node
/// universe does not match the attacked placement's, when `k` exceeds
/// the unit count, or when `s > r`. Note the contrast with *planning*:
/// a [`wcp_core::PlannerContext`] topology sized for a different `n` is
/// silently ignored (flat fallback), but attacking with a mismatched
/// topology is a hard configuration error, not a degradable one —
/// measuring against the wrong tree would report availability for a
/// different cluster.
///
/// # Examples
///
/// ```
/// use wcp_adversary::DomainAttacker;
/// use wcp_core::{Engine, StrategyKind, SystemParams, Topology};
///
/// let params = SystemParams::new(12, 24, 3, 2, 2)?;
/// let topo = Topology::split(12, &[4])?;
/// let engine = Engine::with_attacker(params, DomainAttacker::new(topo));
/// let report = engine.evaluate(&StrategyKind::DomainSpread)?;
/// assert!(report.exact);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DomainAttacker {
    topology: Topology,
    config: AdversaryConfig,
}

impl DomainAttacker {
    /// A domain attacker with the default ladder tuning.
    #[must_use]
    pub fn new(topology: Topology) -> Self {
        Self::with_config(topology, AdversaryConfig::default())
    }

    /// A domain attacker with explicit ladder tuning.
    #[must_use]
    pub fn with_config(topology: Topology, config: AdversaryConfig) -> Self {
        Self { topology, config }
    }

    /// The attacked failure-domain tree.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

impl wcp_core::engine::Attacker for DomainAttacker {
    fn attack(&self, placement: &Placement, s: u16, k: u16) -> wcp_core::engine::AttackOutcome {
        crate::Ladder::new(&self.config)
            .certified()
            .run_domain(placement, &self.topology, s, k)
            .into_attack()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_combin::KSubsets;
    use wcp_core::{RandomStrategy, RandomVariant, SystemParams};

    /// The uncertified unit ladder.
    fn run_domain(
        p: &Placement,
        topo: &Topology,
        s: u16,
        k: u16,
        config: &AdversaryConfig,
    ) -> DomainWorstCase {
        crate::Ladder::new(config).run_domain(p, topo, s, k).worst
    }

    fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = SystemParams::new(n, b, r, 1, 1).unwrap();
        RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

    /// Failed objects for an explicit unit choice, straight from the
    /// definition (union the leaves, count threshold crossings).
    fn failed_by_units(p: &Placement, topo: &Topology, units: &[u16], s: u16) -> u64 {
        let all = topo.failure_units();
        let mut nodes: Vec<u16> = units
            .iter()
            .flat_map(|&u| all[usize::from(u)].nodes.iter().copied())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        p.failed_objects(&nodes, s)
    }

    fn brute_force_units(p: &Placement, topo: &Topology, s: u16, k: u16) -> u64 {
        let units = topo.failure_units().len() as u16;
        KSubsets::new(units, k)
            .map(|subset| failed_by_units(p, topo, &subset, s))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn exact_matches_unit_brute_force() {
        for seed in 0..3u64 {
            let p = random_placement(12, 30, 3, seed);
            let topo = Topology::split(12, &[4]).unwrap();
            for (s, k) in [(1u16, 2u16), (2, 2), (2, 3), (3, 3)] {
                let wc = run_domain(&p, &topo, s, k, &AdversaryConfig::default());
                assert!(wc.exact, "seed={seed} s={s} k={k}");
                assert_eq!(
                    wc.failed,
                    brute_force_units(&p, &topo, s, k),
                    "seed={seed} s={s} k={k}"
                );
                assert_eq!(p.failed_objects(&wc.nodes, s), wc.failed, "witness");
            }
        }
    }

    #[test]
    fn rack_failures_dominate_node_failures() {
        // A rack choice downs strictly more nodes than a leaf choice, so
        // the domain adversary is at least as damaging as the node one.
        let p = random_placement(15, 60, 3, 9);
        let topo = Topology::split(15, &[5]).unwrap();
        let cfg = AdversaryConfig::default();
        for (s, k) in [(1u16, 2u16), (2, 3)] {
            let node = crate::Ladder::new(&cfg).run(&p, s, k).worst;
            let domain = run_domain(&p, &topo, s, k, &cfg);
            assert!(
                domain.failed >= node.failed,
                "s={s} k={k}: domain {} < node {}",
                domain.failed,
                node.failed
            );
        }
    }

    #[test]
    fn overlapping_choices_count_leaves_once() {
        // Choosing a leaf and the rack above it must equal choosing just
        // the rack's leaf set: coverage, not multiset addition.
        let p = random_placement(6, 20, 2, 4);
        let topo = Topology::split(6, &[2]).unwrap();
        // Units: leaves 0..6, rack {0,1,2} = 6, rack {3,4,5} = 7.
        let both = failed_by_units(&p, &topo, &[0, 6], 1);
        let rack_only = failed_by_units(&p, &topo, &[6], 1);
        assert_eq!(both, rack_only);
        // And the exact search at k = 2 is at least the single rack.
        let wc = run_domain(&p, &topo, 1, 2, &AdversaryConfig::default());
        assert!(wc.failed >= rack_only);
    }

    #[test]
    fn degenerate_k_covers_every_unit() {
        let p = random_placement(6, 12, 2, 1);
        let topo = Topology::split(6, &[3]).unwrap();
        let units = topo.failure_units().len() as u16;
        let wc = run_domain(&p, &topo, 1, units, &AdversaryConfig::default());
        assert_eq!(wc.failed, 12);
        assert_eq!(wc.nodes, (0..6).collect::<Vec<u16>>());
    }

    #[test]
    fn heuristics_are_bounded_by_exact() {
        let p = random_placement(14, 40, 3, 2);
        let topo = Topology::split(14, &[4, 2]).unwrap();
        let cfg = AdversaryConfig::default();
        for (s, k) in [(1u16, 2u16), (2, 3)] {
            let exact = brute_force_units(&p, &topo, s, k);
            let g = domain_greedy_worst(&p, &topo, s, k);
            let ls = domain_local_search_worst(&p, &topo, s, k, &cfg);
            assert!(g.failed <= exact);
            assert!(ls.failed >= g.failed, "LS must not lose to greedy");
            assert!(ls.failed <= exact);
            assert_eq!(p.failed_objects(&ls.nodes, s), ls.failed);
        }
    }

    #[test]
    fn budget_exhaustion_falls_back_to_heuristic() {
        let p = random_placement(24, 120, 3, 7);
        let topo = Topology::split(24, &[8]).unwrap();
        let tight = AdversaryConfig {
            exact_budget: 4,
            ..AdversaryConfig::default()
        };
        let wc = run_domain(&p, &topo, 2, 4, &tight);
        assert!(!wc.exact);
        assert_eq!(p.failed_objects(&wc.nodes, 2), wc.failed);
    }

    #[test]
    fn attacker_reports_leaf_union_witness() {
        use wcp_core::engine::Attacker;
        let p = random_placement(12, 24, 3, 3);
        let topo = Topology::split(12, &[4]).unwrap();
        let outcome = DomainAttacker::new(topo.clone()).attack(&p, 2, 2);
        assert_eq!(p.failed_objects(&outcome.nodes, 2), outcome.failed);
        let wc = run_domain(&p, &topo, 2, 2, &AdversaryConfig::default());
        assert_eq!(outcome.failed, wc.failed);
        assert_eq!(outcome.nodes, wc.nodes);
    }

    #[test]
    fn flat_topology_matches_node_exact_at_every_budget() {
        // On the flat topology every unit is one leaf, so the unit search
        // must spend its budget exactly as the node search does: the same
        // completion, value and witness at every budget, including the
        // edges where one more expansion decides completion.
        let mut budgets = vec![1u64, 2];
        while let [.., a, b] = budgets[..] {
            if a + b > 4181 {
                break;
            }
            budgets.push(a + b);
        }
        for seed in 0..6u64 {
            for (n, b, r) in [(12, 60, 3), (16, 90, 3), (20, 120, 4), (14, 200, 2)] {
                let p = random_placement(n, b, r, seed);
                let flat = Topology::flat(n);
                for (s, k) in (1..=r).flat_map(|s| (2..=5).map(move |k| (s, k))) {
                    let greedy = crate::greedy_worst(&p, s, k).failed;
                    for (&budget, inc) in budgets.iter().flat_map(|bu| [(bu, 0), (bu, greedy)]) {
                        let node = crate::exact_worst(&p, s, k, budget, inc).map(|wc| {
                            let units = wc.nodes.iter().map(|&nd| u32::from(nd)).collect();
                            (wc.failed, wc.nodes, units)
                        });
                        let unit = domain_exact_worst(&p, &flat, s, k, budget, inc)
                            .map(|dc| (dc.failed, dc.nodes, dc.units));
                        let ctx =
                            format!("seed={seed} n={n} s={s} k={k} budget={budget} inc={inc}");
                        assert_eq!(node, unit, "{ctx}");
                    }
                }
            }
        }
    }
}
