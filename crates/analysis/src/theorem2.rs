//! Theorem 2: the worst-case vulnerability of random placement.
//!
//! For the unconstrained random process `Random′` (which load-balanced
//! `Random` approaches as `ℓ → ∞`), the expected number of pairs `(K, F)`
//! — `K` a `k`-set of nodes whose failure kills the object set `F`,
//! `|F| ≥ f` — converges to
//!
//! ```text
//! Vuln(f) = C(n,k) · Σ_{f'=f}^{b} C(b,f') p^{f'} (1−p)^{b−f'},
//!           p = α(n,k,r,s)/C(n,r),
//!           α  = Σ_{s'=s}^{min(r,k)} C(k,s')·C(n−k, r−s')
//! ```
//!
//! i.e. `C(n,k)` times a binomial tail: each object independently lands
//! `≥ s` replicas inside a fixed `K` with probability `p`. The number of
//! objects *probably available* is `prAvail = b − max{f : Vuln(f) ≥ 1}`
//! (Definition 6).

use wcp_combin::{binomial, ln_binomial_tail, LnFact};

/// `α(n, k, r, s)`: the number of `r`-subsets of nodes with at least `s`
/// elements inside a fixed `k`-subset.
///
/// # Panics
///
/// Panics if the binomials overflow `u128` (they cannot for `n ≤ 65535`,
/// `r ≤ 5`) or `k > n`.
///
/// # Examples
///
/// ```
/// use wcp_analysis::alpha;
///
/// // n=5, k=2, r=2, s=2: only the set equal to K itself.
/// assert_eq!(alpha(5, 2, 2, 2), 1);
/// // s=1: any pair touching K: C(5,2) − C(3,2) = 7.
/// assert_eq!(alpha(5, 2, 2, 1), 7);
/// ```
#[must_use]
pub fn alpha(n: u16, k: u16, r: u16, s: u16) -> u128 {
    checked_alpha(n, k, r, s).expect("α(n,k,r,s) fits u128")
}

/// [`alpha`], or `None` when `k > n` or an intermediate value overflows
/// `u128` (e.g. `n = 200, r = 100`).
#[must_use]
pub(crate) fn checked_alpha(n: u16, k: u16, r: u16, s: u16) -> Option<u128> {
    let (n, k, r, s) = (u64::from(n), u64::from(k), u64::from(r), u64::from(s));
    let rest = n.checked_sub(k)?;
    let mut acc = 0u128;
    for s_prime in s..=r.min(k) {
        let term = binomial(k, s_prime)?.checked_mul(binomial(rest, r - s_prime)?)?;
        acc = acc.checked_add(term)?;
    }
    Some(acc)
}

/// Workspace for repeated Theorem-2 evaluations over the same `b` (holds
/// the `ln i!` table).
#[derive(Debug, Clone)]
pub struct VulnTable {
    table: LnFact,
}

impl VulnTable {
    /// Builds the factorial table for object counts up to `b_max`.
    #[must_use]
    pub fn new(b_max: u64) -> Self {
        Self {
            table: LnFact::new(b_max),
        }
    }

    /// `ln Vuln(f)` in the Theorem-2 limit.
    #[must_use]
    pub fn ln_vuln(&self, n: u16, k: u16, r: u16, s: u16, b: u64, f: u64) -> f64 {
        let a = alpha(n, k, r, s);
        let cnr = binomial(u64::from(n), u64::from(r)).expect("C(n,r) fits u128");
        debug_assert!(a <= cnr);
        // ln p and ln (1−p) from exact integers (avoids catastrophic
        // cancellation at either extreme).
        let ln_cnr = (cnr as f64).ln();
        let ln_p = if a == 0 {
            f64::NEG_INFINITY
        } else {
            (a as f64).ln() - ln_cnr
        };
        let ln_1mp = if a == cnr {
            f64::NEG_INFINITY
        } else {
            ((cnr - a) as f64).ln() - ln_cnr
        };
        let ln_cnk = wcp_combin::ln_binomial(u64::from(n), u64::from(k));
        ln_cnk + ln_binomial_tail(&self.table, b, ln_p, ln_1mp, f)
    }

    /// `prAvail^rnd = b − max{f : Vuln(f) ≥ 1}` (Definition 6, literally),
    /// using the Theorem-2 limit for `Vuln`.
    ///
    /// `Vuln` is non-increasing in `f` and `Vuln(0) = C(n,k) ≥ 1`, so the
    /// maximizing `f` is found by binary search.
    #[must_use]
    pub fn pr_avail(&self, n: u16, k: u16, r: u16, s: u16, b: u64) -> u64 {
        b - self.max_vulnerable(n, k, r, s, b)
    }

    /// The paper's tables (Figs. 7–10) are numerically consistent with the
    /// off-by-one variant `prAvail = b − min{f : Vuln(f) < 1}` — e.g. its
    /// prose anchor "n = 71, r = 2, s = 2, b = 2400, k = 2 ⇒ 85%" requires
    /// `prAvail = 2393` where Definition 6 as written gives 2394. This
    /// method reproduces the published numbers; see EXPERIMENTS.md.
    #[must_use]
    pub fn pr_avail_paper(&self, n: u16, k: u16, r: u16, s: u16, b: u64) -> u64 {
        b.saturating_sub(self.max_vulnerable(n, k, r, s, b) + 1)
    }

    /// Largest `f ∈ [0, b]` with `Vuln(f) ≥ 1`.
    fn max_vulnerable(&self, n: u16, k: u16, r: u16, s: u16, b: u64) -> u64 {
        let (mut lo, mut hi) = (0u64, b);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if self.ln_vuln(n, k, r, s, b, mid) >= 0.0 {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

/// One-shot `ln Vuln(f)` (builds a table; use [`VulnTable`] for sweeps).
#[must_use]
pub fn ln_vuln(n: u16, k: u16, r: u16, s: u16, b: u64, f: u64) -> f64 {
    VulnTable::new(b).ln_vuln(n, k, r, s, b, f)
}

/// One-shot `prAvail^rnd` (builds a table; use [`VulnTable`] for sweeps).
///
/// # Examples
///
/// ```
/// use wcp_analysis::pr_avail;
///
/// // The paper's running example scale: most objects survive at s = 3.
/// let pa = pr_avail(71, 5, 5, 3, 2400);
/// assert!(pa > 2300 && pa <= 2400);
/// ```
#[must_use]
pub fn pr_avail(n: u16, k: u16, r: u16, s: u16, b: u64) -> u64 {
    VulnTable::new(b).pr_avail(n, k, r, s, b)
}

/// `prAvail^rnd / b` — the fraction plotted in the paper's Fig. 8.
#[must_use]
pub fn pr_avail_fraction(n: u16, k: u16, r: u16, s: u16, b: u64) -> f64 {
    pr_avail(n, k, r, s, b) as f64 / b as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_sums_hypergeometric_numerators() {
        // Σ_{s'=0..min(r,k)} C(k,s')C(n−k,r−s') = C(n,r) (Vandermonde).
        for (n, k, r) in [(31u16, 5u16, 5u16), (71, 7, 3), (257, 8, 4)] {
            let total: u128 = alpha(n, k, r, 0);
            let cnr = binomial(u64::from(n), u64::from(r)).unwrap();
            assert_eq!(total, cnr, "n={n} k={k} r={r}");
        }
    }

    #[test]
    fn alpha_monotone_in_s() {
        for s in 1..=5u16 {
            assert!(alpha(71, 6, 5, s) >= alpha(71, 6, 5, s + 1).min(alpha(71, 6, 5, s)));
        }
        assert_eq!(alpha(71, 6, 5, 6), 0); // s > r
    }

    #[test]
    fn vuln_decreasing_in_f() {
        let t = VulnTable::new(2400);
        let mut prev = f64::INFINITY;
        for f in 0..100 {
            let v = t.ln_vuln(71, 5, 3, 2, 2400, f);
            assert!(v <= prev + 1e-9, "f={f}");
            prev = v;
        }
    }

    #[test]
    fn vuln_at_zero_is_cnk() {
        let t = VulnTable::new(600);
        let v = t.ln_vuln(31, 4, 3, 2, 600, 0);
        let expect = wcp_combin::ln_binomial(31, 4);
        assert!((v - expect).abs() < 1e-9);
    }

    #[test]
    fn pr_avail_extremes() {
        // s = r = k small, huge n: p is tiny, so nearly everything is
        // probably available.
        let pa = pr_avail(257, 2, 2, 2, 600);
        assert!(pa >= 590, "pa = {pa}");
        // k = n−1 fails everything: prAvail must be ~0.
        let pa = pr_avail(31, 30, 3, 1, 600);
        assert_eq!(pa, 0);
    }

    #[test]
    fn pr_avail_monotonicity() {
        let t = VulnTable::new(4800);
        // More failures → fewer probably-available objects.
        let mut prev = u64::MAX;
        for k in 2..=8u16 {
            let pa = t.pr_avail(71, k, 5, 2, 4800);
            assert!(pa <= prev, "k={k}");
            prev = pa;
        }
        // Larger s (harder to kill) → more available.
        let mut prev = 0u64;
        for s in 1..=5u16 {
            let pa = t.pr_avail(71, 6, 5, s, 4800);
            assert!(pa >= prev, "s={s}");
            prev = pa;
        }
    }

    #[test]
    fn paper_variant_is_one_lower() {
        let t = VulnTable::new(2400);
        // The paper's prose anchor: n = 71, r = 2, s = 2, b = 2400, k = 2.
        assert_eq!(t.pr_avail(71, 2, 2, 2, 2400), 2394);
        assert_eq!(t.pr_avail_paper(71, 2, 2, 2, 2400), 2393);
    }

    #[test]
    fn matches_direct_expectation_small() {
        // Cross-check ln_vuln against a direct O(b) summation in plain
        // f64 for a small instance.
        let (n, k, r, s, b) = (12u16, 3u16, 3u16, 2u16, 40u64);
        let a = alpha(n, k, r, s) as f64;
        let cnr = binomial(u64::from(n), u64::from(r)).unwrap() as f64;
        let p = a / cnr;
        for f in [0u64, 1, 5, 20, 40] {
            let mut tail = 0f64;
            for fp in f..=b {
                let c = binomial(b, fp).unwrap() as f64;
                tail += c * p.powi(fp as i32) * (1.0 - p).powi((b - fp) as i32);
            }
            let direct = (binomial(u64::from(n), u64::from(k)).unwrap() as f64).ln() + tail.ln();
            let got = ln_vuln(n, k, r, s, b, f);
            assert!(
                (got - direct).abs() < 1e-6,
                "f={f}: got {got}, direct {direct}"
            );
        }
    }
}
