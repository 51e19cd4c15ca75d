//! Table 2: Pearson correlation between throughput and the KPIs.

use wheels_core::analysis::correlation::{CorrelationRow, Kpi};
use wheels_radio::tech::Direction;
use wheels_ran::operator::Operator;

use crate::fmt;
use crate::world::World;

/// All six Table-2 rows, computed over the view's partition indices.
pub fn rows_for(world: &World) -> Vec<CorrelationRow> {
    let v = world.view();
    let mut out = Vec::new();
    for op in Operator::ALL {
        for dir in Direction::ALL {
            out.push(v.tput_correlation(op, dir, true));
        }
    }
    out
}

/// Render the table.
pub fn run(world: &World) -> String {
    let rows_data = rows_for(world);
    let mut rows = Vec::new();
    for r in &rows_data {
        let mut row = vec![
            format!("{} {}", r.operator.label(), r.direction.label()),
            r.n.to_string(),
        ];
        for kpi in Kpi::ALL {
            row.push(fmt::num(r.get(kpi)));
        }
        rows.push(row);
    }
    let mut rho_rows = Vec::new();
    for r in &rows_data {
        let mut row = vec![
            format!("{} {}", r.operator.label(), r.direction.label()),
            r.n.to_string(),
        ];
        for kpi in Kpi::ALL {
            row.push(fmt::num(r.get_rho(kpi)));
        }
        rho_rows.push(row);
    }
    format!(
        "Table 2 — Pearson correlation of 500 ms throughput vs KPIs\n{}\n\
         Robustness check — Spearman rank correlation (same cells)\n{}",
        fmt::table(
            &["operator", "n", "RSRP", "MCS", "CA", "BLER", "Speed", "HO"],
            &rows
        ),
        fmt::table(
            &["operator", "n", "RSRP", "MCS", "CA", "BLER", "Speed", "HO"],
            &rho_rows
        )
    )
}

/// Convenience: one row's r values.
pub fn row(world: &World, op: Operator, dir: Direction) -> Vec<(Kpi, Option<f64>)> {
    world.view().tput_correlation(op, dir, true).r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn correlate(w: &World, op: Operator, dir: Direction) -> CorrelationRow {
        w.view().tput_correlation(op, dir, true)
    }

    #[test]
    fn no_kpi_strongly_correlates() {
        // The paper's headline: every |r| < ~0.65.
        let w = World::quick();
        for op in Operator::ALL {
            for dir in Direction::ALL {
                let row = correlate(w, op, dir);
                assert!(row.n > 200, "{op:?} {dir:?}: n={}", row.n);
                assert!(
                    row.no_strong_correlation(0.75),
                    "{op:?} {dir:?}: {:?}",
                    row.r
                );
            }
        }
    }

    #[test]
    fn handover_correlation_is_negligible() {
        // Table 2: HO column between -0.05 and -0.02 everywhere.
        let w = World::quick();
        for op in Operator::ALL {
            for dir in Direction::ALL {
                let row = correlate(w, op, dir);
                if let Some(r) = row.get(Kpi::Handovers) {
                    assert!(r.abs() < 0.2, "{op:?} {dir:?}: HO r={r}");
                }
            }
        }
    }

    #[test]
    fn speed_correlation_weak_negative() {
        // Table 2: speed r between -0.37 and -0.10. At Quick scale some
        // rows sit inside the estimator's noise band around zero and
        // their signs are coin flips, so only rows that clear |r| > 0.1
        // count toward the sign tally.
        let w = World::quick();
        let mut neg = 0;
        let mut pos = 0;
        for op in Operator::ALL {
            for dir in Direction::ALL {
                if let Some(r) = correlate(w, op, dir).get(Kpi::Speed) {
                    assert!(r.abs() < 0.65, "{op:?} {dir:?}: speed r={r}");
                    if r < -0.1 {
                        neg += 1;
                    } else if r > 0.1 {
                        pos += 1;
                    }
                }
            }
        }
        assert!(
            neg > pos,
            "speed should lean negative: {neg} clearly negative vs {pos} clearly positive"
        );
    }

    #[test]
    fn mcs_correlation_positive() {
        // Table 2: MCS r is positive everywhere (0.23–0.62).
        let w = World::quick();
        for op in Operator::ALL {
            for dir in Direction::ALL {
                if let Some(r) = correlate(w, op, dir).get(Kpi::Mcs) {
                    assert!(r > 0.0, "{op:?} {dir:?}: MCS r={r}");
                }
            }
        }
    }

    #[test]
    fn renders_six_rows_per_table() {
        let out = run(World::quick());
        assert_eq!(out.matches("Verizon").count(), 4);
        assert_eq!(out.matches("AT&T").count(), 4);
        assert!(out.contains("Spearman"));
    }

    #[test]
    fn spearman_agrees_with_pearson_on_sign_for_strong_cells() {
        // For cells where |r| > 0.3, rank correlation should agree in sign
        // (the relationships are monotone, just heavy-tailed).
        let w = World::quick();
        for op in Operator::ALL {
            for dir in Direction::ALL {
                let row = correlate(w, op, dir);
                for kpi in Kpi::ALL {
                    if let (Some(r), Some(rho)) = (row.get(kpi), row.get_rho(kpi)) {
                        if r.abs() > 0.3 && rho.abs() > 0.1 {
                            assert_eq!(
                                r.signum(),
                                rho.signum(),
                                "{op:?} {dir:?} {kpi:?}: r {r} rho {rho}"
                            );
                        }
                    }
                }
            }
        }
    }
}
