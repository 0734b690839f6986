//! RIR membership and resource fees.
//!
//! §2: "To become and stay an LIR, an organization has to pay an
//! annual membership fee plus fees depending on the number of
//! requested resources. Yet all five RIRs differ in their exact
//! pricing model." The schedules below are simplified versions of the
//! 2020 models (RIPE: flat membership; ARIN/APNIC/LACNIC/AFRINIC:
//! size-tiered), converted to USD.
//!
//! The fee model is what turns "maintenance costs" from a hand-waved
//! constant into a derived quantity: §6's amortization analysis needs
//! the *per-IP monthly* carrying cost of owned space, which depends on
//! the RIR and on how much space amortizes the membership fee —
//! for a /24-only RIPE LIR it is ≈ $0.50/IP/month, for a /16 holder
//! it rounds to zero.

use crate::rir::Rir;
use serde::{Deserialize, Serialize};

/// An annual fee quote in USD.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FeeQuote {
    /// Annual membership/service fee.
    pub annual_usd: f64,
    /// One-time sign-up fee for new members.
    pub signup_usd: f64,
}

/// Size categories used by tiered schedules, by total held addresses:
/// ≤/24, ≤/22, ≤/20, ≤/18, ≤/16, ≤/14, larger.
fn size_category(addresses: u64) -> usize {
    const THRESHOLDS: [u64; 6] = [256, 1024, 4096, 16_384, 65_536, 262_144];
    THRESHOLDS.iter().filter(|&&t| addresses > t).count()
}

/// The annual fee for holding `addresses` IPv4 addresses at `rir`
/// (2020-era schedules).
pub fn annual_fee(rir: Rir, addresses: u64) -> FeeQuote {
    let tiered = |tiers: &[f64; 7], signup: f64| FeeQuote {
        annual_usd: tiers[size_category(addresses).min(6)],
        signup_usd: signup,
    };
    match rir {
        // RIPE NCC: flat membership fee regardless of holdings
        // (€1400 ≈ $1550 in 2020), €2000 sign-up.
        Rir::RipeNcc => FeeQuote {
            annual_usd: 1550.0,
            signup_usd: 2200.0,
        },
        // ARIN: registration-services-plan tiers.
        Rir::Arin => tiered(
            &[500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16_000.0, 32_000.0],
            0.0,
        ),
        // APNIC: formula-based; approximated by tiers.
        Rir::Apnic => tiered(
            &[1180.0, 1680.0, 2560.0, 4160.0, 7040.0, 12_320.0, 22_400.0],
            500.0,
        ),
        Rir::Lacnic => tiered(
            &[440.0, 880.0, 1760.0, 3000.0, 5500.0, 8800.0, 14_000.0],
            0.0,
        ),
        Rir::Afrinic => tiered(
            &[400.0, 800.0, 1600.0, 2800.0, 5200.0, 8400.0, 13_600.0],
            0.0,
        ),
    }
}

/// The per-IP *monthly* maintenance cost of holding `addresses` at
/// `rir` — the membership fee amortized over the holdings. This is
/// the `maintenance_per_ip_month` input of the §6 amortization
/// analysis.
pub fn maintenance_per_ip_month(rir: Rir, addresses: u64) -> f64 {
    if addresses == 0 {
        return 0.0;
    }
    annual_fee(rir, addresses).annual_usd / addresses as f64 / 12.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ripe_fee_is_flat() {
        let small = annual_fee(Rir::RipeNcc, 256);
        let large = annual_fee(Rir::RipeNcc, 1 << 20);
        assert_eq!(small.annual_usd, large.annual_usd);
        assert!(small.signup_usd > 0.0);
    }

    #[test]
    fn tiered_fees_increase_with_holdings() {
        for rir in [Rir::Arin, Rir::Apnic, Rir::Lacnic, Rir::Afrinic] {
            let mut prev = 0.0;
            for addrs in [256u64, 1 << 12, 1 << 16, 1 << 20] {
                let fee = annual_fee(rir, addrs).annual_usd;
                assert!(fee >= prev, "{rir}: fee decreased at {addrs}");
                prev = fee;
            }
        }
    }

    #[test]
    fn size_categories() {
        assert_eq!(size_category(256), 0); // a /24
        assert_eq!(size_category(257), 1);
        assert_eq!(size_category(1024), 1); // a /22
        assert_eq!(size_category(65_536), 4); // a /16
        assert_eq!(size_category(1 << 24), 6); // a /8
    }

    #[test]
    fn per_ip_maintenance_matches_section6_band() {
        // A /24-only RIPE LIR: 1550 / 256 / 12 ≈ $0.50/IP/month —
        // above the cheapest lease rates, which is exactly why the
        // paper's slowest amortization cases stretch to decades.
        let small = maintenance_per_ip_month(Rir::RipeNcc, 256);
        assert!((0.4..=0.6).contains(&small), "{small}");
        // A /16 holder: effectively free per IP.
        let large = maintenance_per_ip_month(Rir::RipeNcc, 65_536);
        assert!(large < 0.01, "{large}");
        // Degenerate.
        assert_eq!(maintenance_per_ip_month(Rir::Arin, 0), 0.0);
    }

    #[test]
    fn arin_small_holder_is_cheapest_per_year() {
        // ARIN's bottom tier undercuts RIPE's flat fee.
        assert!(annual_fee(Rir::Arin, 256).annual_usd < annual_fee(Rir::RipeNcc, 256).annual_usd);
    }
}
