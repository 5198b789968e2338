//! A placement-independent upper bound on worst-case availability.
//!
//! Averaging over all `k`-subsets `K` of nodes, the probability that a
//! *fixed* `r`-subset has at least `s` elements in `K` is exactly
//! `p = α(n,k,r,s)/C(n,r)` — independent of which `r`-subset it is. So
//! for **every** placement `π`,
//!
//! ```text
//! E_K[failed(K)] = b·p   ⇒   max_K failed(K) ≥ ⌈b·p⌉
//! ⇒   Avail(π) ≤ b − ⌈b·p⌉
//! ```
//!
//! This gives a yardstick for optimality that the paper's c-competitive
//! result (Theorem 1) complements: comparing `lbAvail_co` against this
//! bound shows how much of the achievable range a Combo placement
//! provably captures (the `optimality` experiment binary prints it).

use crate::theorem2::checked_alpha;
use wcp_combin::binomial;

/// The universal availability upper bound `b − ⌈b·α/C(n,r)⌉`, valid for
/// every placement of `b` objects with `r` replicas on `n` nodes against
/// the worst `k` failures at threshold `s`.
///
/// Returns `None` when the bound is not computable in `u128` (`C(n,r)`,
/// `α` or `b·α` overflows, e.g. `n = 200, r = 100`) or the shape is
/// degenerate (`k > n` or `r > n`).
///
/// # Examples
///
/// ```
/// use wcp_analysis::optimal::avail_upper_bound;
///
/// // No placement of 600 pair-replicated objects on 71 nodes survives
/// // 2 worst-case failures untouched once b·p ≥ 1.
/// let ub = avail_upper_bound(71, 2, 2, 2, 600).expect("fits u128");
/// assert!(ub < 600);
/// ```
#[must_use]
pub fn avail_upper_bound(n: u16, k: u16, r: u16, s: u16, b: u64) -> Option<u64> {
    let a = checked_alpha(n, k, r, s)?;
    let cnr = binomial(u64::from(n), u64::from(r)).filter(|&c| c > 0)?;
    // ⌈b·a/cnr⌉ in exact integer arithmetic; a ≤ cnr, so killed ≤ b.
    let killed = u128::from(b).checked_mul(a)?.div_ceil(cnr);
    Some(b.saturating_sub(u64::try_from(killed).ok()?))
}

/// The fraction of the *provably achievable* improvement over Random that
/// a bound `lb` captures: `(lb − prAvail)/(upper − prAvail)`, or `None`
/// when Random already meets the universal bound.
#[must_use]
pub fn optimality_fraction(lb: u64, pr_avail: u64, upper: u64) -> Option<f64> {
    if upper <= pr_avail {
        return None;
    }
    Some((lb as f64 - pr_avail as f64) / (upper as f64 - pr_avail as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_combin::KSubsets;

    /// Exhaustively confirm the averaging bound on small systems against
    /// *every* placement of a few objects (all assignments of distinct
    /// r-sets, sampled lexicographically).
    #[test]
    fn bound_holds_for_sampled_placements() {
        let (n, k, r, s) = (7u16, 3u16, 2u16, 2u16);
        let rsets: Vec<Vec<u16>> = KSubsets::new(n, r).collect();
        // Build placements by taking every (i, j, l) triple of r-sets.
        let b = 3u64;
        let ub = avail_upper_bound(n, k, r, s, b).unwrap();
        for i in 0..rsets.len() {
            for j in 0..rsets.len() {
                for l in 0..rsets.len() {
                    let placement = [&rsets[i], &rsets[j], &rsets[l]];
                    // worst-case failures over all k-subsets
                    let mut worst = 0u64;
                    for kset in KSubsets::new(n, k) {
                        let failed = placement
                            .iter()
                            .filter(|obj| {
                                obj.iter().filter(|&&p| kset.contains(&p)).count() >= usize::from(s)
                            })
                            .count() as u64;
                        worst = worst.max(failed);
                    }
                    assert!(
                        b - worst <= ub,
                        "placement ({i},{j},{l}) availability {} exceeds bound {ub}",
                        b - worst
                    );
                }
            }
        }
    }

    #[test]
    fn bound_tightens_with_k() {
        let mut prev = u64::MAX;
        for k in 2..=10u16 {
            let ub = avail_upper_bound(71, k, 3, 2, 2400).unwrap();
            assert!(ub <= prev);
            prev = ub;
        }
    }

    #[test]
    fn combo_bound_below_universal_bound() {
        // Internal consistency at paper scales: lbAvail_co ≤ upper bound.
        // (Computed values cross-checked in the optimality experiment.)
        for (n, k, r, s, b) in [
            (71u16, 3u16, 3u16, 2u16, 2400u64),
            (257, 6, 5, 3, 9600),
            (71, 5, 2, 2, 600),
        ] {
            let ub = avail_upper_bound(n, k, r, s, b).unwrap();
            assert!(ub <= b);
            // prAvail (a specific strategy's estimate) also respects it
            // only loosely (it is probabilistic), but the exact-adversary
            // lower bounds must: checked in integration tests with real
            // placements; here we sanity-check magnitude.
            assert!(ub > b / 2, "bound should not be vacuous at these scales");
        }
    }

    #[test]
    fn bound_is_none_when_not_computable() {
        // C(200,100) ≈ 9·10⁵⁸ overflows u128; SystemParams allows r = n/2.
        assert_eq!(avail_upper_bound(200, 3, 100, 1, 1000), None);
        // α fits but b·α does not.
        assert!(checked_alpha(130, 3, 20, 1).is_some());
        assert_eq!(checked_alpha(200, 3, 100, 1), None);
        assert_eq!(avail_upper_bound(130, 3, 20, 1, u64::MAX), None);
        // Degenerate shapes.
        assert_eq!(avail_upper_bound(5, 6, 2, 2, 10), None);
        assert_eq!(avail_upper_bound(5, 2, 6, 2, 10), None);
    }

    #[test]
    fn optimality_fraction_edges() {
        assert_eq!(optimality_fraction(90, 80, 100), Some(0.5));
        assert_eq!(optimality_fraction(80, 80, 80), None);
        let f = optimality_fraction(70, 80, 100).unwrap();
        assert!(f < 0.0);
    }
}
