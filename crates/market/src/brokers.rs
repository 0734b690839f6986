//! Brokers and commissions.
//!
//! Certificated IPv4 brokers connect buying and selling LIRs, help
//! negotiate, and handle transfer formalities. From the paper's
//! discussions with 13 brokers: commissions range **~5 % to ~10 %**
//! and may be charged to either side or split; since IPv4.Global
//! discloses prior-sale prices, most brokers strictly align their
//! prices with that public reference.

use serde::{Deserialize, Serialize};

/// Who pays the commission.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum CommissionSide {
    /// The buying LIR pays.
    Buyer,
    /// The selling LIR pays.
    Seller,
    /// Both pay a share (the split fraction is the buyer's share).
    Split(u8),
}

/// A broker participating in the transfer market.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Broker {
    /// Display name.
    pub name: String,
    /// Commission rate in `[0.05, 0.10]`.
    pub commission_rate: f64,
    /// Which side is charged.
    pub side: CommissionSide,
    /// Whether the broker publicly discloses sale prices (IPv4.Global
    /// does; it provides the market's reference point).
    pub discloses_prices: bool,
}

impl Broker {
    /// Create a broker; clamps the commission into the reported band.
    pub fn new(
        name: impl Into<String>,
        commission_rate: f64,
        side: CommissionSide,
        discloses_prices: bool,
    ) -> Broker {
        Broker {
            name: name.into(),
            commission_rate: commission_rate.clamp(0.05, 0.10),
            side,
            discloses_prices,
        }
    }

    /// Total cost to the buyer for a sale at `sale_price`.
    pub fn buyer_cost(&self, sale_price: f64) -> f64 {
        match self.side {
            CommissionSide::Buyer => sale_price * (1.0 + self.commission_rate),
            CommissionSide::Seller => sale_price,
            CommissionSide::Split(buyer_pct) => {
                sale_price * (1.0 + self.commission_rate * buyer_pct as f64 / 100.0)
            }
        }
    }

    /// Net proceeds to the seller for a sale at `sale_price`.
    pub fn seller_proceeds(&self, sale_price: f64) -> f64 {
        match self.side {
            CommissionSide::Buyer => sale_price,
            CommissionSide::Seller => sale_price * (1.0 - self.commission_rate),
            CommissionSide::Split(buyer_pct) => {
                sale_price * (1.0 - self.commission_rate * (100 - buyer_pct) as f64 / 100.0)
            }
        }
    }

    /// The broker's commission revenue on a sale.
    pub fn commission_revenue(&self, sale_price: f64) -> f64 {
        self.buyer_cost(sale_price) - self.seller_proceeds(sale_price)
    }
}

/// The four brokers whose pricing data the paper obtained. Only
/// IPv4.Global discloses prices publicly.
pub fn pricing_data_brokers() -> Vec<Broker> {
    vec![
        Broker::new("IPv4.Global", 0.08, CommissionSide::Seller, true),
        Broker::new("Brander Group", 0.06, CommissionSide::Split(50), false),
        Broker::new("IPTrading.com", 0.10, CommissionSide::Buyer, false),
        Broker::new("IPv4 Market Group", 0.07, CommissionSide::Seller, false),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commission_band_enforced() {
        assert_eq!(
            Broker::new("x", 0.5, CommissionSide::Buyer, false).commission_rate,
            0.10
        );
        assert_eq!(
            Broker::new("x", 0.01, CommissionSide::Buyer, false).commission_rate,
            0.05
        );
        assert_eq!(
            Broker::new("x", 0.07, CommissionSide::Buyer, false).commission_rate,
            0.07
        );
    }

    #[test]
    fn buyer_side_commission() {
        let b = Broker::new("x", 0.10, CommissionSide::Buyer, false);
        assert!((b.buyer_cost(1000.0) - 1100.0).abs() < 1e-9);
        assert!((b.seller_proceeds(1000.0) - 1000.0).abs() < 1e-9);
        assert!((b.commission_revenue(1000.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn seller_side_commission() {
        let b = Broker::new("x", 0.08, CommissionSide::Seller, false);
        assert!((b.buyer_cost(1000.0) - 1000.0).abs() < 1e-9);
        assert!((b.seller_proceeds(1000.0) - 920.0).abs() < 1e-9);
        assert!((b.commission_revenue(1000.0) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn split_commission_conserves_total() {
        let b = Broker::new("x", 0.06, CommissionSide::Split(50), false);
        let total = b.commission_revenue(1000.0);
        assert!((total - 60.0).abs() < 1e-9);
        assert!((b.buyer_cost(1000.0) - 1030.0).abs() < 1e-9);
        assert!((b.seller_proceeds(1000.0) - 970.0).abs() < 1e-9);
    }

    #[test]
    fn reference_broker_exists() {
        let brokers = pricing_data_brokers();
        assert_eq!(brokers.len(), 4);
        assert_eq!(
            brokers.iter().filter(|b| b.discloses_prices).count(),
            1,
            "only IPv4.Global discloses prices"
        );
        for b in &brokers {
            assert!((0.05..=0.10).contains(&b.commission_rate));
        }
    }
}
