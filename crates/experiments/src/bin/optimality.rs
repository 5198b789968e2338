//! Extension experiment (not a paper figure): how close is the
//! DP-planned Combo to *optimal*?
//!
//! Theorem 1 bounds the gap multiplicatively; here we measure it against
//! the placement-independent averaging bound
//! `Avail(π) ≤ b − ⌈b·α/C(n,r)⌉` of `wcp_analysis::optimal`. The table
//! reports, per paper grid point, the Combo lower bound, the universal
//! upper bound, and the fraction of the `prAvail → upper` range the Combo
//! guarantee captures.

use wcp_analysis::optimal::{avail_upper_bound, optimality_fraction};
use wcp_analysis::theorem2::VulnTable;
use wcp_core::{combo_plan, PackingProfile, SystemParams};
use wcp_sim::{results_dir, Csv, Table};

fn main() {
    let vuln = VulnTable::new(38_400);
    let mut table = Table::new(
        [
            "n", "r", "s", "b", "k", "lbCombo", "prAvail", "upper", "captured",
        ]
        .map(String::from)
        .to_vec(),
    );
    table.title("Optimality: Combo bound vs the universal availability upper bound");
    let mut csv = Csv::new(
        results_dir().join("optimality.csv"),
        &[
            "n", "r", "s", "b", "k", "lb_combo", "pr_avail", "upper", "captured",
        ],
    );

    for (n, r, s) in [
        (71u16, 2u16, 2u16),
        (71, 3, 2),
        (71, 3, 3),
        (71, 5, 3),
        (257, 3, 2),
        (257, 5, 3),
    ] {
        for b in [600u64, 2400, 9600] {
            for k in [s.max(2), s + 2] {
                let params = SystemParams::new(n, b, r, s, k).expect("grid valid");
                let profile = PackingProfile::paper(&params).expect("paper grid");
                let lb = combo_plan(&profile, &params).expect("DP").lb_avail;
                let pr = vuln.pr_avail_paper(n, k, r, s, b);
                let ub =
                    avail_upper_bound(n, k, r, s, b).expect("the paper grid's bound fits u128");
                let captured =
                    optimality_fraction(lb, pr, ub).map_or("n/a".into(), |f| format!("{:.2}", f));
                table.row(vec![
                    n.to_string(),
                    r.to_string(),
                    s.to_string(),
                    b.to_string(),
                    k.to_string(),
                    lb.to_string(),
                    pr.to_string(),
                    ub.to_string(),
                    captured.clone(),
                ]);
                csv.row(&[
                    n.to_string(),
                    r.to_string(),
                    s.to_string(),
                    b.to_string(),
                    k.to_string(),
                    lb.to_string(),
                    pr.to_string(),
                    ub.to_string(),
                    captured,
                ]);
            }
        }
    }
    println!("{}", table.render());
    csv.write().expect("write CSV");
    println!("wrote {}", csv.path().display());
    println!(
        "\nReading: 'captured' ≥ 1.00 means the Combo guarantee meets or beats the\n\
         averaging upper bound (it is then exactly optimal); values in (0, 1) show\n\
         the guaranteed share of the provable improvement range over Random."
    );
}
