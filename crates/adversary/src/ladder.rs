//! The builder-style entry point to the adversary ladder.
//!
//! Historically the ladder was reachable through a 2×2×2 matrix of free
//! functions — certified or not, caller-supplied scratch or not, node
//! or domain budget — and every new axis doubled the surface. [`Ladder`]
//! collapses the matrix into one builder:
//!
//! ```text
//! Ladder::new(&config)                 // plain, fresh scratch
//!     .scratch(&mut scratch)           // reuse buffers across calls
//!     .certified()                     // also emit the Certificate
//!     .run(&placement, s, k)           // node budget  -> LadderOutcome
//!     .run_domain(&placement, &topo, s, k) // unit budget -> DomainLadderOutcome
//! ```
//!
//! Every terminal call goes through one driver, [`drive`], over the
//! [`Rungs`] of its budget — node or failure unit, on whichever backends
//! and schedule (serial or parallel) the configuration selects. The
//! driver always records the heuristic trace and always runs the exact
//! rung; a certificate only adds the rung records and the exact rung's
//! bound ledger, so the certified and uncertified answers cannot drift.

use crate::counts::PackedCounts;
use crate::search::{self, Choice, LadderTrace};
use crate::{
    certify, domain, exact, parallel, AdversaryConfig, AdversaryScratch, DomainWorstCase, WorstCase,
};
use wcp_core::{Certificate, CertificateKind, LedgerEntry, Placement, RungKind, Topology};

/// The rungs of one ladder run, for [`drive`] to climb.
pub(crate) trait Rungs {
    /// Choosable elements: nodes, or failure units.
    fn universe(&self) -> usize;
    /// Every element chosen — the answer to a budget covering them all.
    fn everything(&mut self) -> Choice;
    /// The heuristic rungs (greedy seed plus restarts), recording the
    /// decision trace.
    fn heuristic(&mut self, trace: &mut LadderTrace) -> Choice;
    /// The exact branch-and-bound rung seeded with `incumbent`: `None`
    /// on budget exhaustion, an empty witness when nothing beat the
    /// incumbent.
    fn exact(&mut self, incumbent: u64) -> Option<Choice>;
    /// The exact rung's root-frontier bound ledger (see
    /// [`certify::ledger`]).
    fn ledger(&mut self) -> Vec<LedgerEntry>;
}

/// The ladder driver: the heuristic rungs seed the exact rung, whose
/// answer is kept when it completes within budget and the heuristic's
/// (labelled inexact) otherwise. Degenerate budgets — `k = 0` fails
/// nothing, `k ≥ universe` everything reachable — need no search. With
/// a base certificate, also records each rung and, for a completed
/// search, the ledger. Returns the answer, whether it is exact, and
/// the sealed certificate.
pub(crate) fn drive<R: Rungs>(
    rungs: &mut R,
    k: u16,
    mut cert: Option<Certificate>,
) -> (Choice, bool, Option<Certificate>) {
    let degenerate = k == 0 || usize::from(k) >= rungs.universe();
    let (result, exact) = if degenerate {
        let all = if k == 0 {
            Choice::default()
        } else {
            rungs.everything()
        };
        (all, true)
    } else {
        let mut trace = LadderTrace::default();
        let heuristic = rungs.heuristic(&mut trace);
        if let Some(cert) = &mut cert {
            certify::push_heuristic_rungs(cert, &trace, &heuristic);
        }
        match rungs.exact(heuristic.failed) {
            // The DFS only returns a witness when it beats the seed;
            // the heuristic's witness stands otherwise.
            Some(better) if better.failed > heuristic.failed => (better, true),
            Some(_) => (heuristic, true),
            None => (heuristic, false),
        }
    };
    if let Some(cert) = &mut cert {
        if exact {
            cert.rungs.push(certify::rung(RungKind::Exact, &result, 0));
            if !degenerate {
                cert.ledger = rungs.ledger();
            }
        }
        cert.claimed_failed = result.failed;
        cert.exact = exact;
    }
    (result, exact, cert)
}

/// The node-budget rungs: greedy and local search on the packed kernel
/// or, above the histogram threshold, the histogram classes; the exact
/// DFS and its ledger on the packed kernel; all of it serial, or on the
/// thread-count-invariant parallel schedule of [`crate::parallel`].
struct NodeRungs<'a> {
    placement: &'a Placement,
    s: u16,
    k: u16,
    config: &'a AdversaryConfig,
    scratch: &'a mut AdversaryScratch,
    /// Whether an earlier rung of this run bound the packed kernel to
    /// `(placement, s)` — later rungs then only clear it.
    packed_bound: bool,
}

impl Rungs for NodeRungs<'_> {
    fn universe(&self) -> usize {
        usize::from(self.placement.num_nodes())
    }

    fn everything(&mut self) -> Choice {
        let wc = exact::degenerate_all_nodes(self.placement, self.s, self.k);
        Choice::of_nodes(wc.failed, wc.nodes)
    }

    fn heuristic(&mut self, trace: &mut LadderTrace) -> Choice {
        let (placement, s, k, config) = (self.placement, self.s, self.k, self.config);
        if let Some(parallelism) = config.parallelism {
            return parallel::local_search_traced(placement, s, k, config, parallelism, trace);
        }
        self.packed_bound = !config.uses_histogram(placement.num_objects());
        search::node_local_search(placement, s, k, config, self.scratch, trace)
    }

    fn exact(&mut self, incumbent: u64) -> Option<Choice> {
        let (placement, s, k) = (self.placement, self.s, self.k);
        let budget = self.config.exact_budget;
        let reuse = std::mem::replace(&mut self.packed_bound, true);
        match self.config.parallelism {
            Some(parallelism) => parallel::exact_in(
                placement,
                s,
                k,
                budget,
                incumbent,
                parallelism,
                self.scratch,
                reuse,
            ),
            None => {
                let (pc, _, ds) = self.scratch.packed(placement, s, reuse);
                let all = placement.num_objects() as u64;
                let (failed, nodes) = exact::run_dfs(pc, ds, k, budget, incumbent, all, None)?;
                Some(Choice::of_nodes(failed, nodes))
            }
        }
    }

    fn ledger(&mut self) -> Vec<LedgerEntry> {
        let reuse = std::mem::replace(&mut self.packed_bound, true);
        let (pc, _, _) = self.scratch.packed(self.placement, self.s, reuse);
        certify::ledger(pc, self.k)
    }
}

/// One configured adversary-ladder run. See the module docs for the
/// builder grammar; terminal calls are [`Ladder::run`] (node budget)
/// and [`Ladder::run_domain`] (failure-unit budget).
///
/// # Examples
///
/// ```
/// use wcp_adversary::{AdversaryConfig, AdversaryScratch, Ladder};
/// use wcp_core::Placement;
///
/// // Two objects share nodes {0,1}: failing those kills both at s = 2.
/// let p = Placement::new(6, 3, vec![
///     vec![0, 1, 2], vec![0, 1, 3], vec![2, 4, 5],
/// ])?;
/// let config = AdversaryConfig::default();
/// let mut scratch = AdversaryScratch::new();
/// let out = Ladder::new(&config).scratch(&mut scratch).certified().run(&p, 2, 2);
/// assert_eq!(out.worst.failed, 2);
/// assert_eq!(out.worst.nodes, vec![0, 1]);
/// assert!(out.worst.exact);
/// let cert = out.certificate.expect("certified() was requested");
/// assert_eq!(cert.claimed_failed, 2);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[derive(Debug)]
pub struct Ladder<'a> {
    config: &'a AdversaryConfig,
    scratch: Option<&'a mut AdversaryScratch>,
    certified: bool,
}

/// What a node-budget [`Ladder::run`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderOutcome {
    /// The worst failure set and its damage.
    pub worst: WorstCase,
    /// The availability certificate — `Some` iff
    /// [`certified`](Ladder::certified) was requested.
    pub certificate: Option<Certificate>,
}

/// What a unit-budget [`Ladder::run_domain`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainLadderOutcome {
    /// The worst failure-unit set and its damage.
    pub worst: DomainWorstCase,
    /// The availability certificate — `Some` iff
    /// [`certified`](Ladder::certified) was requested.
    pub certificate: Option<Certificate>,
}

impl<'a> Ladder<'a> {
    /// A ladder run with the given tuning, a fresh scratch, and no
    /// certificate.
    #[must_use]
    pub fn new(config: &'a AdversaryConfig) -> Self {
        Self {
            config,
            scratch: None,
            certified: false,
        }
    }

    /// Reuses the caller's [`AdversaryScratch`] so batch callers pay no
    /// per-evaluation allocation. (Ignored by [`Ladder::run_domain`]:
    /// the domain backends carry their own per-run state.)
    #[must_use]
    pub fn scratch(mut self, scratch: &'a mut AdversaryScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Also emit the self-sealed availability [`Certificate`] (rung
    /// witnesses, trace hashes and — when the exact rung completed —
    /// the branch-and-bound ledger) for `wcp-verify` to re-check.
    #[must_use]
    pub fn certified(mut self) -> Self {
        self.certified = true;
        self
    }

    /// Runs the ladder against node failures: the worst set of `k`
    /// failed nodes, where an object dies once `s` of its `r` replicas
    /// are down.
    ///
    /// # Panics
    ///
    /// Panics if `k > n` or `s > r` (placement shape mismatch).
    #[must_use]
    pub fn run(self, placement: &Placement, s: u16, k: u16) -> LadderOutcome {
        assert!(k <= placement.num_nodes(), "k must be ≤ n");
        assert!(s <= placement.replicas_per_object(), "s must be ≤ r");
        let mut local = AdversaryScratch::new();
        let scratch = match self.scratch {
            Some(s) => s,
            None => &mut local,
        };
        let cert = self
            .certified
            .then(|| certify::base_certificate(placement, CertificateKind::Node, s, k));
        let mut rungs = NodeRungs {
            placement,
            s,
            k,
            config: self.config,
            scratch,
            packed_bound: false,
        };
        let (choice, exact, certificate) = drive(&mut rungs, k, cert);
        LadderOutcome {
            worst: choice.worst(exact),
            certificate,
        }
    }

    /// Runs the ladder against correlated failures: the budget is spent
    /// on failure *units* of `topology` (leaves, racks, zones — failing
    /// an internal node fails its whole leaf set).
    ///
    /// # Panics
    ///
    /// Panics when the topology's node universe does not match the
    /// placement's, when `k` exceeds the unit count, or when `s > r`.
    #[must_use]
    pub fn run_domain(
        self,
        placement: &Placement,
        topology: &Topology,
        s: u16,
        k: u16,
    ) -> DomainLadderOutcome {
        let (worst, certificate) = domain::unit_ladder::<PackedCounts>(
            placement,
            topology,
            s,
            k,
            self.config,
            self.certified,
        );
        DomainLadderOutcome { worst, certificate }
    }
}

impl LadderOutcome {
    /// Repackages the outcome as the engine-facing
    /// [`AttackOutcome`](wcp_core::engine::AttackOutcome) — what every
    /// [`Attacker`](wcp_core::engine::Attacker) built on the ladder
    /// returns.
    #[must_use]
    pub fn into_attack(self) -> wcp_core::engine::AttackOutcome {
        wcp_core::engine::AttackOutcome {
            failed: self.worst.failed,
            nodes: self.worst.nodes,
            exact: self.worst.exact,
            certificate: self.certificate,
        }
    }
}

impl DomainLadderOutcome {
    /// As [`LadderOutcome::into_attack`]; the reported node set is the
    /// *leaf union* of the chosen units (typically longer than `k`).
    #[must_use]
    pub fn into_attack(self) -> wcp_core::engine::AttackOutcome {
        wcp_core::engine::AttackOutcome {
            failed: self.worst.failed,
            nodes: self.worst.nodes,
            exact: self.worst.exact,
            certificate: self.certificate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_core::{RandomStrategy, RandomVariant, SystemParams};

    fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = SystemParams::new(n, b, r, 1, 1).unwrap();
        RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

    #[test]
    fn certified_and_plain_builders_agree() {
        // Requesting a certificate or a scratch never changes the
        // answer, on either budget.
        let p = random_placement(14, 60, 3, 11);
        let config = AdversaryConfig::default();
        let (s, k) = (2u16, 3u16);

        let plain = Ladder::new(&config).run(&p, s, k);
        assert_eq!(plain.certificate, None);
        let certified = Ladder::new(&config).certified().run(&p, s, k);
        assert_eq!(certified.worst, plain.worst);
        let mut scratch = AdversaryScratch::new();
        let reused = Ladder::new(&config)
            .scratch(&mut scratch)
            .certified()
            .run(&p, s, k);
        assert_eq!(reused, certified);

        let topo = Topology::split(14, &[7]).unwrap();
        let dom = Ladder::new(&config).certified().run_domain(&p, &topo, s, 1);
        let plain_dom = Ladder::new(&config).run_domain(&p, &topo, s, 1);
        assert_eq!(plain_dom.certificate, None);
        assert_eq!(dom.worst, plain_dom.worst);
        assert_eq!(
            dom.certificate.map(|cert| cert.claimed_failed),
            Some(dom.worst.failed)
        );
    }

    #[test]
    fn scratch_reuse_changes_nothing() {
        let p = random_placement(16, 80, 3, 3);
        let config = AdversaryConfig::default();
        let mut scratch = AdversaryScratch::new();
        let mut last = None;
        for _ in 0..3 {
            let out = Ladder::new(&config)
                .scratch(&mut scratch)
                .certified()
                .run(&p, 2, 4);
            if let Some(prev) = last.replace(out.clone()) {
                assert_eq!(prev, out);
            }
        }
    }

    #[test]
    fn into_attack_carries_the_certificate() {
        let p = random_placement(12, 40, 3, 5);
        let config = AdversaryConfig::default();
        let attack = Ladder::new(&config).certified().run(&p, 2, 3).into_attack();
        let cert = attack.certificate.expect("certified run");
        assert_eq!(cert.claimed_failed, attack.failed);
        assert_eq!(p.failed_objects(&attack.nodes, 2), attack.failed);
        let uncert = Ladder::new(&config).run(&p, 2, 3).into_attack();
        assert_eq!(uncert.certificate, None);
        assert_eq!(uncert.failed, attack.failed);
    }
}
