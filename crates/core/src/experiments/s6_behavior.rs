//! §6: market engagement by business model.

use crate::report::{f, TextTable};
use crate::study::StudyConfig;
use market::behavior::{
    profile_by_kind, simulate_behaviors, BehaviorConfig, KindProfile, LeaseBackContract,
};
use nettypes::date::{date, DateRange};
use registry::org::OrgKind;

/// §6 behaviour output.
pub struct S6Behavior {
    /// Per-kind profiles.
    pub profiles: Vec<(OrgKind, KindProfile)>,
    /// The illustrative buy-and-lease-back contract.
    pub leaseback: LeaseBackContract,
    /// Rendered report.
    pub rendered: String,
}

/// Run the behaviour simulation and profile it.
pub fn run(config: &StudyConfig) -> S6Behavior {
    let trace = simulate_behaviors(&BehaviorConfig {
        seed: config.seed ^ 0x6EAB,
        span: DateRange::new(date("2019-01-01"), date("2020-06-01")),
        orgs_per_kind: 80,
    });
    let profiles = profile_by_kind(&trace);

    let mut table = TextTable::new(&[
        "business model",
        "buys",
        "mean bought IPs",
        "leases",
        "mean months",
        "rotations/lease",
        "terminations",
        "lease-backs",
    ]);
    for (kind, p) in &profiles {
        table.row(vec![
            format!("{kind:?}"),
            p.buys.to_string(),
            f(p.mean_buy_addresses, 0),
            p.leases.to_string(),
            f(p.mean_lease_months, 1),
            f(p.rotations_per_lease, 1),
            p.terminations.to_string(),
            p.leasebacks.to_string(),
        ]);
    }

    // The §6 illustrative contract: sell a /16 at market price, lease
    // back a /19.
    let leaseback = LeaseBackContract {
        sold_addresses: 65_536,
        price_per_ip: 22.50,
        commission: 0.06,
        leaseback_addresses: 8_192,
        lease_per_ip_month: 0.50,
    };
    let mut rendered = table.render();
    rendered.push_str(&format!(
        "\nbuy-and-lease-back example: selling a /16 at $22.50/IP nets ${:.0}k immediately;\n\
         leasing back a /19 at $0.50/IP/mo costs ${:.1}k/month — the proceeds fund it for {:.0} years.\n",
        leaseback.immediate_cash() / 1000.0,
        leaseback.monthly_cost() / 1000.0,
        leaseback.cash_horizon_months().unwrap_or(f64::INFINITY) / 12.0,
    ));
    S6Behavior {
        profiles,
        leaseback,
        rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_section6_profiles() {
        let r = run(&StudyConfig::quick());
        let get = |k: OrgKind| {
            r.profiles
                .iter()
                .find(|(kk, _)| *kk == k)
                .expect("kind present")
                .1
                .clone()
        };
        assert!(get(OrgKind::Isp).mean_buy_addresses > 4096.0);
        assert!(get(OrgKind::Enterprise).mean_buy_addresses < 4096.0);
        assert!(get(OrgKind::VpnProvider).rotations_per_lease > 3.0);
        assert!(get(OrgKind::Spammer).mean_lease_months <= 1.5);
        assert!(get(OrgKind::LeasingProvider).leasebacks > 0);
        assert!(r.rendered.contains("buy-and-lease-back"));
    }
}
