//! The prover side of the availability-certificate split.
//!
//! `Ladder::certified()` runs the adversary ladder through the same
//! driver as the uncertified builder (`crate::ladder`), so the two
//! cannot drift, while recording what the `wcp-verify` crate needs to
//! re-check the verdict in `O(witness)`: each rung's witness with a
//! replayable decision-trace hash, and, when the exact rung completed,
//! a per-root-child **bound ledger** for the branch-and-bound tree.
//!
//! The ledger is computed *post hoc* on the binding the exact rung
//! searched (the packed kernel for node budgets). The serial DFS root
//! frame (depth 0 is below its re-sort depth), the parallel frontier
//! split and this ledger all order root children through the DFS's own
//! order function (`(gain, weight, element)` descending at the empty
//! set), and the search expands exactly the first `n − k + 1` of them,
//! so re-deriving that order after the search reproduces the true root
//! frontier. For each root child `x` the recorded bound is the same
//! admissible bound the DFS prunes with one level down:
//!
//! ```text
//! bound(x) = failed({x}) + failable_within(k − 1)   (evaluated at {x})
//! ```
//!
//! No attack whose set contains `x` as its first element (in root
//! order) can fail more than `bound(x)` objects: the remaining `k − 1`
//! nodes add at most one hit each per object (failure units at most
//! `c_max` each, so their ledger evaluates the bound at
//! `(k − 1)·c_max` hits). The verifier recomputes
//! both the order and every bound on the scalar [`crate::FailureCounts`]
//! oracle, so a kernel bug skewing either turns into a certificate
//! rejection instead of a silently wrong verdict.
//!
//! Every bound is also ≤ the root-level bound `failable_within(k)` at
//! the empty set, so whenever the search confirmed the incumbent
//! without expanding (the root short-circuit), the ledger still proves
//! optimality outright.

use crate::exact::{hits_budget, root_order};
use crate::search::{Backend, Choice, LadderTrace};
use wcp_core::{
    placement_digest, Certificate, CertificateKind, Fnv, LedgerEntry, Placement, Rung, RungKind,
};

/// FNV-1a over `(index, failed, witness)` triples in execution order —
/// the replayable decision-trace hash stored in heuristic rungs.
pub(crate) fn trace_hash(entries: &[Choice]) -> u64 {
    let mut h = Fnv::new();
    for (i, entry) in entries.iter().enumerate() {
        h.write_u64(i as u64);
        h.write_u64(entry.failed);
        h.write_u64(entry.nodes.len() as u64);
        for &nd in &entry.nodes {
            h.write_u64(u64::from(nd));
        }
    }
    h.finish()
}

/// A certificate bound to `(placement, s, k)` with no rungs yet.
pub(crate) fn base_certificate(
    placement: &Placement,
    kind: CertificateKind,
    s: u16,
    k: u16,
) -> Certificate {
    Certificate {
        kind,
        n: placement.num_nodes(),
        b: placement.num_objects() as u64,
        r: placement.replicas_per_object(),
        s,
        k,
        placement: placement_digest(placement),
        rungs: Vec::new(),
        ledger: Vec::new(),
        claimed_failed: 0,
        exact: false,
    }
}

/// A rung recording `choice`'s claim and witness.
pub(crate) fn rung(kind: RungKind, choice: &Choice, trace: u64) -> Rung {
    Rung {
        kind,
        failed: choice.failed,
        witness: choice.nodes.clone(),
        units: choice.units.clone(),
        trace,
    }
}

/// Records the heuristic rungs: the greedy seed and the local search,
/// each with the hash of its part of the trace.
pub(crate) fn push_heuristic_rungs(
    cert: &mut Certificate,
    trace: &LadderTrace,
    heuristic: &Choice,
) {
    if let Some(greedy) = &trace.greedy {
        let hash = trace_hash(std::slice::from_ref(greedy));
        cert.rungs.push(rung(RungKind::Greedy, greedy, hash));
    }
    let hash = trace_hash(&trace.restarts);
    cert.rungs
        .push(rung(RungKind::LocalSearch, heuristic, hash));
}

/// The exact rung's post-hoc bound ledger: one admissible bound per
/// root child of the branch-and-bound tree, in the canonical
/// `(gain, weight, element)` descending root order at the empty set,
/// covering exactly the `universe − k + 1` children the root frame
/// expands (`1 ≤ k < universe`).
pub(crate) fn ledger<B: Backend>(be: &mut B, k: u16) -> Vec<LedgerEntry> {
    be.clear();
    let hits = hits_budget(k.saturating_sub(1), be.max_hits());
    let roots = (be.universe() + 1).saturating_sub(usize::from(k));
    root_order(be)
        .into_iter()
        .take(roots)
        .map(|root| {
            be.add(root as usize);
            let bound = be.failed() + be.failable_within(hits);
            be.remove(root as usize);
            LedgerEntry { root, bound }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdversaryConfig;
    use crate::Ladder;
    use wcp_core::{Parallelism, RandomStrategy, RandomVariant, SystemParams, Topology};

    fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = SystemParams::new(n, b, r, 1, 1).unwrap();
        RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

    #[test]
    fn certified_result_matches_uncertified_ladder() {
        // One driver serves every input: node budgets on the packed and
        // the histogram-forced backends, serial and parallel, and unit
        // budgets on a flat and a two-level topology.
        let topologies = [
            Topology::split(16, &[]).unwrap(),
            Topology::split(16, &[4, 2]).unwrap(),
        ];
        for seed in 0..3u64 {
            let p = random_placement(16, 70, 3, seed);
            for (s, k) in [(1u16, 0u16), (1, 3), (2, 4), (3, 5), (2, 16)] {
                for parallelism in [None, Some(Parallelism::new(4))] {
                    for hist_threshold in [AdversaryConfig::default().hist_threshold, 0] {
                        let config = AdversaryConfig {
                            parallelism,
                            hist_threshold,
                            ..AdversaryConfig::default()
                        };
                        let ctx = format!(
                            "seed={seed} s={s} k={k} par={parallelism:?} hist={hist_threshold}"
                        );
                        let plain = Ladder::new(&config).run(&p, s, k).worst;
                        let out = Ladder::new(&config).certified().run(&p, s, k);
                        let (wc, cert) = (out.worst, out.certificate.expect("certified"));
                        assert_eq!(wc, plain, "{ctx}");
                        assert_eq!(cert.claimed_failed, wc.failed, "{ctx}");
                        assert_eq!(cert.exact, wc.exact, "{ctx}");
                    }
                }
                for topo in &topologies {
                    if usize::from(k) > topo.failure_units().len() {
                        continue;
                    }
                    let config = AdversaryConfig::default();
                    let plain = Ladder::new(&config).run_domain(&p, topo, s, k).worst;
                    let out = Ladder::new(&config).certified().run_domain(&p, topo, s, k);
                    let (wc, cert) = (out.worst, out.certificate.expect("certified"));
                    assert_eq!(wc, plain, "seed={seed} s={s} k={k} {topo:?}");
                    assert_eq!(cert.claimed_failed, wc.failed);
                    assert_eq!(cert.exact, wc.exact);
                }
            }
        }
    }

    #[test]
    fn rung_claims_are_monotone_and_ledger_sized() {
        let p = random_placement(14, 60, 3, 7);
        let out = Ladder::new(&AdversaryConfig::default())
            .certified()
            .run(&p, 2, 4);
        let (wc, cert) = (out.worst, out.certificate.expect("certified"));
        assert!(wc.exact, "small shape should complete exactly");
        for pair in cert.rungs.windows(2) {
            assert!(pair[0].failed <= pair[1].failed, "rungs must be monotone");
        }
        assert_eq!(cert.ledger.len(), 14 - 4 + 1);
        // Every witness re-scores to its claim straight from the
        // definition (the verifier crate re-checks this via the scalar
        // oracle; this is the in-crate smoke test).
        for rung in &cert.rungs {
            assert_eq!(p.failed_objects(&rung.witness, 2), rung.failed);
        }
    }

    #[test]
    fn certificate_json_round_trips_through_core() {
        let p = random_placement(12, 40, 3, 1);
        let cert = Ladder::new(&AdversaryConfig::default())
            .certified()
            .run(&p, 2, 3)
            .certificate
            .expect("certified");
        let back = Certificate::from_json(&cert.to_json()).expect("parses");
        assert_eq!(back, cert);
    }

    #[test]
    fn trace_hash_is_order_sensitive() {
        let a = vec![
            Choice::of_nodes(3, vec![1, 2]),
            Choice::of_nodes(5, vec![0, 4]),
        ];
        let mut b = a.clone();
        b.swap(0, 1);
        assert_ne!(trace_hash(&a), trace_hash(&b));
    }
}
