//! The calibrated per-IP transaction-price process.
//!
//! Calibration targets, all from §3 / Figure 1 of the paper:
//!
//! * prices **double** between early 2016 and 2020,
//! * the 2020 market average is **≈ $22.50 per address** with little
//!   variance,
//! * /24 and /23 blocks are **more expensive** per IP than larger
//!   blocks (secondary costs of splitting), and very large blocks
//!   (less specific than /16) rise again because they are rare,
//! * the **region has no statistically significant effect**,
//! * from **spring 2019** the market is in a *consolidation phase*:
//!   the market price barely changes and variance collapses, because
//!   brokers align with the publicly disclosed IPv4.Global reference
//!   prices.

use nettypes::date::{date, Date};
use registry::rir::Rir;
use serde::{Deserialize, Serialize};

/// Price-relevant block-size classes (per-IP premia).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SizeClass {
    /// A /24 — the smallest transferable unit; highest premium.
    Slash24,
    /// A /23.
    Slash23,
    /// A /22.
    Slash22,
    /// /21 – /20.
    Slash21To20,
    /// /19 – /17.
    Slash19To17,
    /// A /16.
    Slash16,
    /// Less specific than /16 — rare, premium rises again. Not present
    /// in the anonymized data set (identifiable), but modelled for the
    /// broker-reported trend.
    LargerThan16,
}

impl SizeClass {
    /// Classify a prefix length.
    pub fn from_len(len: u8) -> SizeClass {
        match len {
            24.. => SizeClass::Slash24,
            23 => SizeClass::Slash23,
            22 => SizeClass::Slash22,
            20..=21 => SizeClass::Slash21To20,
            17..=19 => SizeClass::Slash19To17,
            16 => SizeClass::Slash16,
            _ => SizeClass::LargerThan16,
        }
    }

    /// Multiplicative per-IP premium relative to the base price.
    pub fn premium(&self) -> f64 {
        match self {
            SizeClass::Slash24 => 1.13,
            SizeClass::Slash23 => 1.08,
            SizeClass::Slash22 => 1.02,
            SizeClass::Slash21To20 => 0.98,
            SizeClass::Slash19To17 => 0.95,
            SizeClass::Slash16 => 0.93,
            SizeClass::LargerThan16 => 1.10,
        }
    }

    /// Display label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SizeClass::Slash24 => "/24",
            SizeClass::Slash23 => "/23",
            SizeClass::Slash22 => "/22",
            SizeClass::Slash21To20 => "/21-/20",
            SizeClass::Slash19To17 => "/19-/17",
            SizeClass::Slash16 => "/16",
            SizeClass::LargerThan16 => "</16",
        }
    }
}

/// The deterministic part of the price process plus its noise scale.
#[derive(Clone, Debug)]
pub struct PriceModel {
    /// Price level at the start of 2016 (USD per IP).
    pub base_2016: f64,
    /// Base price level during consolidation (USD per IP before the
    /// size premium; the paper's ≈$22.50 is the /24 price, i.e.
    /// `consolidated × premium(/24)`).
    pub consolidated: f64,
    /// Start of the consolidation phase (paper: spring 2019).
    pub consolidation_start: Date,
    /// Log-normal volatility before consolidation.
    pub sigma_pre: f64,
    /// Log-normal volatility during consolidation.
    pub sigma_post: f64,
}

impl Default for PriceModel {
    fn default() -> Self {
        PriceModel {
            base_2016: 9.95,
            consolidated: 19.91, // × the 1.13 /24 premium ⇒ $22.50 per /24 IP

            consolidation_start: date("2019-04-01"),
            sigma_pre: 0.16,
            sigma_post: 0.045,
        }
    }
}

impl PriceModel {
    /// The deterministic market base price (USD per IP) on `when`,
    /// before size premium and noise: a smooth ramp from `base_2016`
    /// to `consolidated`, flat afterwards.
    pub fn base_price(&self, when: Date) -> f64 {
        let t0 = date("2016-01-01");
        if when >= self.consolidation_start {
            return self.consolidated;
        }
        let total = (self.consolidation_start - t0) as f64;
        let progress = ((when - t0) as f64 / total).clamp(0.0, 1.0);
        // Slightly convex ramp: growth accelerates as exhaustion bites.
        let eased = progress.powf(1.25);
        self.base_2016 + (self.consolidated - self.base_2016) * eased
    }

    /// The expected price for a block of `len` on `when` (no noise).
    /// Region is accepted — and ignored — deliberately: the paper
    /// finds no statistically significant regional difference.
    pub fn expected_price(&self, when: Date, len: u8, _region: Rir) -> f64 {
        self.base_price(when) * SizeClass::from_len(len).premium()
    }

    /// The log-normal volatility applicable on `when`.
    pub fn sigma(&self, when: Date) -> f64 {
        if when >= self.consolidation_start {
            self.sigma_post
        } else {
            self.sigma_pre
        }
    }

    /// Whether the market is in its consolidation phase on `when`.
    pub fn in_consolidation(&self, when: Date) -> bool {
        when >= self.consolidation_start
    }

    /// A noisy sampled price: `expected × exp(σ·z)` for a standard
    /// normal `z` supplied by the caller (keeps this type RNG-free).
    pub fn sample_price(&self, when: Date, len: u8, region: Rir, z: f64) -> f64 {
        self.expected_price(when, len, region) * (self.sigma(when) * z).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prices_double_2016_to_2020() {
        let m = PriceModel::default();
        let early = m.base_price(date("2016-02-01"));
        let late = m.base_price(date("2020-06-01"));
        let ratio = late / early;
        assert!(
            (1.8..=2.2).contains(&ratio),
            "expected ~2x growth, got {ratio:.2} ({early:.2} → {late:.2})"
        );
        // The headline $22.50 is the /24 price.
        let p24 = m.expected_price(date("2020-06-01"), 24, Rir::Arin);
        assert!((p24 - 22.50).abs() < 0.01, "/24 price {p24:.2}");
    }

    #[test]
    fn ramp_is_monotone() {
        let m = PriceModel::default();
        let mut prev = 0.0;
        let mut d = date("2016-01-01");
        while d <= date("2020-06-01") {
            let p = m.base_price(d);
            assert!(p >= prev - 1e-9, "price decreased at {d}");
            prev = p;
            d += 30;
        }
    }

    #[test]
    fn flat_during_consolidation() {
        let m = PriceModel::default();
        assert_eq!(
            m.base_price(date("2019-04-01")),
            m.base_price(date("2020-06-25"))
        );
        assert!(m.in_consolidation(date("2019-06-01")));
        assert!(!m.in_consolidation(date("2019-03-01")));
        assert!(m.sigma(date("2019-06-01")) < m.sigma(date("2018-06-01")));
    }

    #[test]
    fn small_blocks_cost_more_per_ip() {
        let m = PriceModel::default();
        let when = date("2020-01-01");
        let p24 = m.expected_price(when, 24, Rir::Arin);
        let p23 = m.expected_price(when, 23, Rir::Arin);
        let p20 = m.expected_price(when, 20, Rir::Arin);
        let p16 = m.expected_price(when, 16, Rir::Arin);
        assert!(p24 > p23 && p23 > p20 && p20 > p16);
        // Very large blocks rise again (broker-reported).
        let p12 = m.expected_price(when, 12, Rir::Arin);
        assert!(p12 > p16);
    }

    #[test]
    fn region_has_no_effect() {
        let m = PriceModel::default();
        let when = date("2019-01-01");
        let arin = m.expected_price(when, 24, Rir::Arin);
        let ripe = m.expected_price(when, 24, Rir::RipeNcc);
        let apnic = m.expected_price(when, 24, Rir::Apnic);
        assert_eq!(arin, ripe);
        assert_eq!(ripe, apnic);
    }

    #[test]
    fn size_classification() {
        assert_eq!(SizeClass::from_len(24), SizeClass::Slash24);
        assert_eq!(SizeClass::from_len(28), SizeClass::Slash24);
        assert_eq!(SizeClass::from_len(23), SizeClass::Slash23);
        assert_eq!(SizeClass::from_len(21), SizeClass::Slash21To20);
        assert_eq!(SizeClass::from_len(20), SizeClass::Slash21To20);
        assert_eq!(SizeClass::from_len(18), SizeClass::Slash19To17);
        assert_eq!(SizeClass::from_len(16), SizeClass::Slash16);
        assert_eq!(SizeClass::from_len(12), SizeClass::LargerThan16);
    }

    #[test]
    fn noise_scales_with_sigma() {
        let m = PriceModel::default();
        let pre = date("2017-01-01");
        let post = date("2020-01-01");
        // One-sigma relative moves.
        let pre_move =
            m.sample_price(pre, 24, Rir::Arin, 1.0) / m.expected_price(pre, 24, Rir::Arin);
        let post_move =
            m.sample_price(post, 24, Rir::Arin, 1.0) / m.expected_price(post, 24, Rir::Arin);
        assert!(pre_move > post_move);
        // z = 0 reproduces the expectation exactly.
        assert_eq!(
            m.sample_price(post, 24, Rir::Arin, 0.0),
            m.expected_price(post, 24, Rir::Arin)
        );
    }
}
