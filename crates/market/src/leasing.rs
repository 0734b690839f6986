//! The advertised-leasing-price catalog (Figure 4).
//!
//! The paper scraped advertised prices for leasing a /24 for one
//! month from 12 provider websites between 2019-10-26 and 2020-06-01,
//! adding 9 more on 2020-06-01. Prices ranged **$0.30 to $2.33 per IP
//! per month** with no structural difference between pure leasing
//! providers and leasing bundled with hosting. Only three providers
//! changed prices (Heficed $0.65 → $0.40; IPv4Mall $0.35 → $0.56;
//! IP-AS $1.17 → $2.33 with a $3.90 January spike). This module
//! encodes those observations as data, plus the multi-month/size
//! discount structure mentioned in §4.

use nettypes::date::{date, Date};
use serde::{Deserialize, Serialize};

/// Whether a provider leases IPs standalone or bundles them with
/// infrastructure hosting.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ProviderKind {
    /// Pure IP leasing.
    PureLeasing,
    /// IP leasing bundled with hosting / infrastructure.
    BundledHosting,
}

/// A dated advertised price (USD per IP per month for a /24,
/// single-month commitment).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PricePoint {
    /// Date the price became advertised.
    pub from: Date,
    /// USD per IP per month.
    pub price: f64,
}

/// One leasing provider's advertised-price history.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LeasingProvider {
    /// Provider name as cited in the paper.
    pub name: &'static str,
    /// Pure leasing or bundled with hosting.
    pub kind: ProviderKind,
    /// First date the paper observed the provider (12 sites from
    /// 2019-10-26, 9 more added 2020-06-01).
    pub observed_from: Date,
    /// Price history (sorted by `from`; first entry at or before
    /// `observed_from`).
    pub prices: Vec<PricePoint>,
    /// Maximum advertised discount for larger blocks or multi-month
    /// commitments (≤ 10 % per §4).
    pub max_discount: f64,
}

impl LeasingProvider {
    /// The advertised price on `when`, if the provider was already
    /// observed.
    pub fn price_on(&self, when: Date) -> Option<f64> {
        if when < self.observed_from {
            return None;
        }
        self.prices
            .iter()
            .rev()
            .find(|p| p.from <= when)
            .map(|p| p.price)
    }

    /// The discounted price for a commitment, clamped to the ≤10 %
    /// discount band.
    pub fn discounted_price(&self, when: Date, months: u32, slash24_blocks: u32) -> Option<f64> {
        let base = self.price_on(when)?;
        let mut discount: f64 = 0.0;
        if months >= 12 {
            discount += 0.06;
        } else if months >= 6 {
            discount += 0.03;
        }
        if slash24_blocks >= 16 {
            discount += 0.04;
        } else if slash24_blocks >= 4 {
            discount += 0.02;
        }
        Some(base * (1.0 - discount.min(self.max_discount)))
    }

    /// Whether the provider changed its advertised price during the
    /// observation window.
    pub fn changed_price(&self) -> bool {
        self.prices.len() > 1
    }
}

const W1: &str = "2019-10-26"; // first scrape wave
const W2: &str = "2020-06-01"; // second wave (9 additional sites)

fn p(name: &'static str, kind: ProviderKind, wave: &str, cents: &[(&str, f64)]) -> LeasingProvider {
    LeasingProvider {
        name,
        kind,
        observed_from: date(wave),
        prices: cents
            .iter()
            .map(|(d, v)| PricePoint {
                from: date(d),
                price: *v,
            })
            .collect(),
        max_discount: 0.10,
    }
}

/// The 21-provider catalog with the actual prices reported in the
/// paper. Prices for providers the paper does not quote individually
/// are placed inside the reported $0.30–$2.33 band.
pub fn leasing_catalog() -> Vec<LeasingProvider> {
    use ProviderKind::*;
    vec![
        // --- Wave 1 (observed from 2019-10-26): 12 providers.
        p(
            "Heficed",
            BundledHosting,
            W1,
            &[(W1, 0.65), ("2020-03-01", 0.40)],
        ),
        p(
            "IPv4Mall",
            PureLeasing,
            W1,
            &[(W1, 0.35), ("2020-02-15", 0.56)],
        ),
        p(
            "IP-AS",
            PureLeasing,
            W1,
            &[
                (W1, 1.17),
                ("2020-01-05", 3.90), // January market test, >10x the floor
                ("2020-02-01", 2.33),
            ],
        ),
        p("IPRoyal", PureLeasing, W1, &[(W1, 0.80)]),
        p("LogicWeb", BundledHosting, W1, &[(W1, 1.00)]),
        p("Logosnet", BundledHosting, W1, &[(W1, 0.75)]),
        p("DevelApp", PureLeasing, W1, &[(W1, 0.45)]),
        p("GetIPAddresses", PureLeasing, W1, &[(W1, 0.60)]),
        p("HostHoney", BundledHosting, W1, &[(W1, 0.55)]),
        p("IPV4Broker", PureLeasing, W1, &[(W1, 0.90)]),
        p("Fork Networking", BundledHosting, W1, &[(W1, 1.25)]),
        p("ProstoHost", BundledHosting, W1, &[(W1, 0.50)]),
        // --- Wave 2 (added 2020-06-01): 9 providers.
        p("AnyIP", PureLeasing, W2, &[(W2, 0.30)]),
        p("CH-CENTER", PureLeasing, W2, &[(W2, 0.70)]),
        p("Deploymentcode", BundledHosting, W2, &[(W2, 0.85)]),
        p("Hetzner", BundledHosting, W2, &[(W2, 1.10)]),
        p("LIR.SERVICES", PureLeasing, W2, &[(W2, 0.95)]),
        p("PrefixBroker", PureLeasing, W2, &[(W2, 1.40)]),
        p("RapidDedi", BundledHosting, W2, &[(W2, 0.65)]),
        p("RentIPv4", PureLeasing, W2, &[(W2, 1.75)]),
        p("Hostio Solutions", BundledHosting, W2, &[(W2, 2.10)]),
    ]
}

/// The advertised prices visible on `when` across the catalog.
pub fn prices_on(catalog: &[LeasingProvider], when: Date) -> Vec<(&'static str, f64)> {
    catalog
        .iter()
        .filter_map(|pr| pr.price_on(when).map(|v| (pr.name, v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_21_providers_in_two_waves() {
        let c = leasing_catalog();
        assert_eq!(c.len(), 21);
        let wave1 = c.iter().filter(|p| p.observed_from == date(W1)).count();
        let wave2 = c.iter().filter(|p| p.observed_from == date(W2)).count();
        assert_eq!(wave1, 12);
        assert_eq!(wave2, 9);
    }

    #[test]
    fn price_band_matches_paper() {
        let c = leasing_catalog();
        let final_prices = prices_on(&c, date("2020-06-01"));
        assert_eq!(final_prices.len(), 21);
        let min = final_prices
            .iter()
            .map(|(_, v)| *v)
            .fold(f64::INFINITY, f64::min);
        let max = final_prices.iter().map(|(_, v)| *v).fold(0.0, f64::max);
        assert!((min - 0.30).abs() < 1e-9, "floor {min}");
        assert!((max - 2.33).abs() < 1e-9, "ceiling {max}");
    }

    #[test]
    fn exactly_three_price_changers() {
        let c = leasing_catalog();
        let changers: Vec<&str> = c
            .iter()
            .filter(|p| p.changed_price())
            .map(|p| p.name)
            .collect();
        assert_eq!(changers, vec!["Heficed", "IPv4Mall", "IP-AS"]);
    }

    #[test]
    fn reported_price_changes() {
        let c = leasing_catalog();
        let heficed = c.iter().find(|p| p.name == "Heficed").unwrap();
        assert_eq!(heficed.price_on(date("2019-11-01")), Some(0.65));
        assert_eq!(heficed.price_on(date("2020-06-01")), Some(0.40));
        let mall = c.iter().find(|p| p.name == "IPv4Mall").unwrap();
        assert_eq!(mall.price_on(date("2019-11-01")), Some(0.35));
        assert_eq!(mall.price_on(date("2020-06-01")), Some(0.56));
        let ipas = c.iter().find(|p| p.name == "IP-AS").unwrap();
        assert_eq!(ipas.price_on(date("2019-11-01")), Some(1.17));
        assert_eq!(ipas.price_on(date("2020-01-15")), Some(3.90));
        assert_eq!(ipas.price_on(date("2020-06-01")), Some(2.33));
    }

    #[test]
    fn january_spike_is_over_10x_floor() {
        let c = leasing_catalog();
        let jan = date("2020-01-15");
        let visible = prices_on(&c, jan);
        let min = visible
            .iter()
            .map(|(_, v)| *v)
            .fold(f64::INFINITY, f64::min);
        let max = visible.iter().map(|(_, v)| *v).fold(0.0, f64::max);
        assert!(max / min > 10.0, "spike ratio {}", max / min);
    }

    #[test]
    fn wave2_invisible_before_june() {
        let c = leasing_catalog();
        let anyip = c.iter().find(|p| p.name == "AnyIP").unwrap();
        assert_eq!(anyip.price_on(date("2020-05-31")), None);
        assert_eq!(anyip.price_on(date("2020-06-01")), Some(0.30));
        assert_eq!(prices_on(&c, date("2020-05-31")).len(), 12);
    }

    #[test]
    fn no_structural_kind_difference() {
        // Means of the two kinds overlap broadly (no converged market):
        // the pure/bundled split should not separate the price range.
        let c = leasing_catalog();
        let when = date("2020-06-01");
        let pure: Vec<f64> = c
            .iter()
            .filter(|p| p.kind == ProviderKind::PureLeasing)
            .filter_map(|p| p.price_on(when))
            .collect();
        let bundled: Vec<f64> = c
            .iter()
            .filter(|p| p.kind == ProviderKind::BundledHosting)
            .filter_map(|p| p.price_on(when))
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mp, mb) = (mean(&pure), mean(&bundled));
        assert!(
            (mp - mb).abs() / mp.max(mb) < 0.35,
            "kinds separated: pure {mp:.2} vs bundled {mb:.2}"
        );
    }

    #[test]
    fn discounts_capped_at_10_percent() {
        let c = leasing_catalog();
        let heficed = c.iter().find(|p| p.name == "Heficed").unwrap();
        let when = date("2020-06-01");
        let base = heficed.price_on(when).unwrap();
        let best = heficed.discounted_price(when, 24, 64).unwrap();
        assert!(best >= base * 0.90 - 1e-9);
        assert!(best < base);
        // No commitment, no discount.
        assert_eq!(heficed.discounted_price(when, 1, 1), Some(base));
    }
}
