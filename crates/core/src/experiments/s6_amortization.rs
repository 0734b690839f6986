//! §6: buy-vs-lease amortization times.
//!
//! In addition to the paper's headline scenario grid, the table
//! derives the maintenance input from the actual RIR fee schedules
//! (`registry::fees`): a /24-only RIPE LIR carries ≈ $0.50/IP/month in
//! membership fees — more than the cheapest lease rates — while a /16
//! holder's per-IP maintenance rounds to zero.

use crate::report::{f, TextTable};
use market::amortization::{amortization_months, section6_scenarios, AmortizationScenario};
use registry::fees::maintenance_per_ip_month;
use registry::rir::Rir;

/// §6 output.
pub struct S6Amortization {
    /// The scenario grid.
    pub scenarios: Vec<AmortizationScenario>,
    /// Rendered report.
    pub rendered: String,
}

/// Regenerate the §6 amortization table.
pub fn run() -> S6Amortization {
    let scenarios = section6_scenarios();
    let mut table = TextTable::new(&[
        "scenario",
        "buy $/IP",
        "lease $/IP/mo",
        "maint $/IP/mo",
        "months",
        "years",
    ]);
    for s in &scenarios {
        let (months, years) = match (s.months(), s.years()) {
            (Some(m), Some(y)) => (f(m, 1), f(y, 1)),
            _ => ("never".to_string(), "never".to_string()),
        };
        table.row(vec![
            s.label.clone(),
            f(s.buy_per_ip, 2),
            f(s.lease_per_ip_month, 2),
            f(s.maintenance_per_ip_month, 3),
            months,
            years,
        ]);
    }
    let mut rendered = table.render();

    // Fee-derived rows: the maintenance cost comes from the RIR
    // schedules instead of being assumed.
    let mut fee_table = TextTable::new(&[
        "holder",
        "RIR fee-derived maint $/IP/mo",
        "amortization at $0.50 lease",
    ]);
    for (label, rir, addresses) in [
        ("/24-only RIPE LIR", Rir::RipeNcc, 256u64),
        ("/22 ARIN holder", Rir::Arin, 1024),
        ("/16 RIPE holder", Rir::RipeNcc, 65_536),
    ] {
        let maint = maintenance_per_ip_month(rir, addresses);
        let amort = amortization_months(22.50, 0.50, maint)
            .map(|m| format!("{:.1} years", m / 12.0))
            .unwrap_or_else(|| "never (fees exceed the lease)".into());
        fee_table.row(vec![label.to_string(), f(maint, 3), amort]);
    }
    rendered.push('\n');
    rendered.push_str(&fee_table.render());
    rendered.push_str(
        "\npaper: amortization ranges from under a year to multiple tens of years;\n\
         brokers report customer averages of two to three years.\n",
    );
    S6Amortization {
        scenarios,
        rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_section6_range() {
        let r = run();
        let finite: Vec<f64> = r.scenarios.iter().filter_map(|s| s.months()).collect();
        let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let max = finite.iter().copied().fold(0.0, f64::max);
        assert!(min < 12.0, "fastest {min} months should be under a year");
        assert!(max > 300.0, "slowest {max} months should be tens of years");
        // The broker-reported 2–3 year band is covered by a scenario.
        assert!(r
            .scenarios
            .iter()
            .filter_map(AmortizationScenario::years)
            .any(|y| (2.0..=3.0).contains(&y)));
        assert!(r.rendered.contains("never"));
        assert!(r.rendered.contains("months"));
    }
}
