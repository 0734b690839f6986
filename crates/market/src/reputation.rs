//! IP reputation: blacklists, tainted vs. clean addresses, and the
//! protective practices §2 describes.
//!
//! "Once an IP address block appears on a blacklist, it can be hard to
//! remove it again — the IP address is tainted. IP address blocks
//! that never appeared on a blacklist … are known as 'clean IPs'."
//! Leasing providers vet customers and install SWIP-style records to
//! protect their remaining space; buyers check the reputation of
//! blocks before acquiring them.
//!
//! The model: a [`Blacklist`] accumulates dated listing events at
//! prefix granularity; blocks aggregate a [`Reputation`] from their
//! own and their covering blocks' history, with listings decaying
//! slowly (delisting is possible, forgetting is not — a previously
//! listed block never returns to pristine).

use nettypes::date::Date;
use nettypes::prefix::Prefix;
use serde::{Deserialize, Serialize};

/// Why a block was listed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ListingReason {
    /// E-mail spam sources.
    Spam,
    /// Flooding / DoS sources.
    Flooding,
    /// Malware / botnet command infrastructure.
    Malware,
}

/// One listing event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Listing {
    /// The listed block.
    pub prefix: Prefix,
    /// Listing date.
    pub listed: Date,
    /// Delisting date, if the operator cleaned up.
    pub delisted: Option<Date>,
    /// Category.
    pub reason: ListingReason,
}

impl Listing {
    /// Whether the listing is active on `d`.
    pub fn active_on(&self, d: Date) -> bool {
        d >= self.listed && self.delisted.map(|e| d < e).unwrap_or(true)
    }
}

/// The reputation classification the market acts on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Reputation {
    /// Never listed, no covering block listed: full market value.
    Clean,
    /// Previously listed (or inside a listed block) but currently
    /// delisted: reachable, discounted.
    Tainted,
    /// Actively listed: many networks drop its traffic.
    Listed,
}

impl Reputation {
    /// The market-price multiplier buyers apply (brokers report clean
    /// blocks command full price; tainted blocks trade at a discount;
    /// actively listed blocks are near-unsellable).
    pub fn price_multiplier(&self) -> f64 {
        match self {
            Reputation::Clean => 1.0,
            Reputation::Tainted => 0.8,
            Reputation::Listed => 0.35,
        }
    }
}

/// A blacklist service (Spamhaus-style), queryable by block and date.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Blacklist {
    listings: Vec<Listing>,
}

impl Blacklist {
    /// An empty blacklist.
    pub fn new() -> Self {
        Blacklist::default()
    }

    /// Record a listing event.
    pub fn list(&mut self, prefix: Prefix, listed: Date, reason: ListingReason) {
        self.listings.push(Listing {
            prefix,
            listed,
            delisted: None,
            reason,
        });
    }

    /// Delist every active listing of exactly `prefix` on `when`.
    /// Returns how many listings were closed.
    pub fn delist(&mut self, prefix: Prefix, when: Date) -> usize {
        let mut n = 0;
        for l in &mut self.listings {
            if l.prefix == prefix && l.active_on(when) {
                l.delisted = Some(when);
                n += 1;
            }
        }
        n
    }

    /// All listing events.
    pub fn listings(&self) -> &[Listing] {
        &self.listings
    }

    /// Listings relevant to `block` on `d`: its own, any covering
    /// block's, and any covered block's (a listed sub-block taints the
    /// parent too — the §2 rationale for SWIP-style delegation
    /// records, which contain the damage to the delegated block).
    fn relevant<'a>(&'a self, block: &'a Prefix) -> impl Iterator<Item = &'a Listing> + 'a {
        self.listings
            .iter()
            .filter(move |l| l.prefix.overlaps(block))
    }

    /// The reputation of `block` on `d`.
    pub fn reputation(&self, block: &Prefix, d: Date) -> Reputation {
        let mut saw_history = false;
        for l in self.relevant(block) {
            if l.listed > d {
                continue; // future event
            }
            if l.active_on(d) {
                return Reputation::Listed;
            }
            saw_history = true;
        }
        if saw_history {
            Reputation::Tainted
        } else {
            Reputation::Clean
        }
    }

    /// The §2 buyer's check: is the block clean enough to buy on `d`?
    pub fn passes_pre_purchase_check(&self, block: &Prefix, d: Date) -> bool {
        self.reputation(block, d) == Reputation::Clean
    }
}

/// The protective effect of delegation records: when a *delegated*
/// sub-block is listed, registries with SWIP-style records attribute
/// the abuse to the delegatee, so the provider's *remaining* space
/// keeps its reputation. Without records, the listing taints the
/// whole covering block.
///
/// Given the provider's block, its delegations (with/without records)
/// and a blacklist, classify the provider's residual space.
pub fn residual_reputation(
    provider_block: &Prefix,
    delegations_with_records: &[Prefix],
    blacklist: &Blacklist,
    d: Date,
) -> Reputation {
    let mut worst = Reputation::Clean;
    for l in blacklist.listings() {
        if l.listed > d || !l.prefix.overlaps(provider_block) {
            continue;
        }
        // A listing fully inside one recorded delegation is attributed
        // to the delegatee: it does not touch the residual space.
        if delegations_with_records.iter().any(|r| r.covers(&l.prefix)) {
            continue;
        }
        if l.active_on(d) {
            return Reputation::Listed;
        }
        worst = Reputation::Tainted;
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::date::date;
    use nettypes::prefix::pfx;

    #[test]
    fn clean_until_listed_then_tainted_forever() {
        let mut bl = Blacklist::new();
        let block = pfx("64.1.0.0/24");
        assert_eq!(bl.reputation(&block, date("2019-01-01")), Reputation::Clean);
        bl.list(block, date("2019-06-01"), ListingReason::Spam);
        assert_eq!(bl.reputation(&block, date("2019-05-31")), Reputation::Clean);
        assert_eq!(
            bl.reputation(&block, date("2019-06-01")),
            Reputation::Listed
        );
        assert_eq!(bl.delist(block, date("2019-09-01")), 1);
        assert_eq!(
            bl.reputation(&block, date("2019-08-31")),
            Reputation::Listed
        );
        // Delisted but never clean again.
        assert_eq!(
            bl.reputation(&block, date("2020-01-01")),
            Reputation::Tainted
        );
        assert!(!bl.passes_pre_purchase_check(&block, date("2020-01-01")));
    }

    #[test]
    fn listing_taints_covering_and_covered_blocks() {
        let mut bl = Blacklist::new();
        bl.list(
            pfx("64.1.0.0/24"),
            date("2019-01-01"),
            ListingReason::Flooding,
        );
        // The covering /16 is affected…
        assert_eq!(
            bl.reputation(&pfx("64.1.0.0/16"), date("2019-02-01")),
            Reputation::Listed
        );
        // …and a sub-block of a listed /16 is too.
        let mut bl2 = Blacklist::new();
        bl2.list(
            pfx("64.2.0.0/16"),
            date("2019-01-01"),
            ListingReason::Malware,
        );
        assert_eq!(
            bl2.reputation(&pfx("64.2.7.0/24"), date("2019-02-01")),
            Reputation::Listed
        );
        // Disjoint space is untouched.
        assert_eq!(
            bl.reputation(&pfx("64.9.0.0/24"), date("2019-02-01")),
            Reputation::Clean
        );
    }

    #[test]
    fn price_multipliers_ordered() {
        assert!(Reputation::Clean.price_multiplier() > Reputation::Tainted.price_multiplier());
        assert!(Reputation::Tainted.price_multiplier() > Reputation::Listed.price_multiplier());
        assert_eq!(Reputation::Clean.price_multiplier(), 1.0);
    }

    #[test]
    fn swip_records_protect_residual_space() {
        // A leasing provider delegates 64.1.2.0/24 with records; the
        // delegatee spams and gets listed.
        let provider = pfx("64.1.0.0/16");
        let delegated = pfx("64.1.2.0/24");
        let mut bl = Blacklist::new();
        bl.list(delegated, date("2020-01-15"), ListingReason::Spam);

        // With records: residual space stays clean.
        assert_eq!(
            residual_reputation(&provider, &[delegated], &bl, date("2020-02-01")),
            Reputation::Clean
        );
        // Without records: the whole block is compromised.
        assert_eq!(
            residual_reputation(&provider, &[], &bl, date("2020-02-01")),
            Reputation::Listed
        );
        // After cleanup, the unrecorded case stays tainted.
        bl.delist(delegated, date("2020-03-01"));
        assert_eq!(
            residual_reputation(&provider, &[], &bl, date("2020-04-01")),
            Reputation::Tainted
        );
        assert_eq!(
            residual_reputation(&provider, &[delegated], &bl, date("2020-04-01")),
            Reputation::Clean
        );
    }

    #[test]
    fn listing_inside_recorded_subdelegation_counts_via_covering() {
        // Listing of a /28 *inside* the recorded /24 delegation is also
        // attributed to the delegatee.
        let provider = pfx("64.1.0.0/16");
        let delegated = pfx("64.1.2.0/24");
        let mut bl = Blacklist::new();
        bl.list(pfx("64.1.2.16/28"), date("2020-01-15"), ListingReason::Spam);
        assert_eq!(
            residual_reputation(&provider, &[delegated], &bl, date("2020-02-01")),
            Reputation::Clean
        );
        assert_eq!(
            residual_reputation(&provider, &[], &bl, date("2020-02-01")),
            Reputation::Listed
        );
    }

    #[test]
    fn listing_spanning_two_recorded_delegations_is_not_attributed() {
        // A /23 listing covers two adjacent recorded /24s, but neither
        // delegatee holds all of it: the provider's block is listed.
        let provider = pfx("64.1.0.0/16");
        let recorded = [pfx("64.1.2.0/24"), pfx("64.1.3.0/24")];
        let mut bl = Blacklist::new();
        bl.list(pfx("64.1.2.0/23"), date("2020-01-15"), ListingReason::Spam);
        assert_eq!(
            residual_reputation(&provider, &recorded, &bl, date("2020-02-01")),
            Reputation::Listed
        );
        // Each /24 alone is attributed.
        let mut bl = Blacklist::new();
        bl.list(recorded[1], date("2020-01-15"), ListingReason::Spam);
        assert_eq!(
            residual_reputation(&provider, &recorded, &bl, date("2020-02-01")),
            Reputation::Clean
        );
    }

    #[test]
    fn listings_outside_the_provider_block_are_ignored() {
        let provider = pfx("64.1.0.0/16");
        let mut bl = Blacklist::new();
        bl.list(pfx("64.2.0.0/24"), date("2020-01-15"), ListingReason::Spam);
        assert_eq!(
            residual_reputation(&provider, &[], &bl, date("2020-02-01")),
            Reputation::Clean
        );
        // A listing of a covering block reaches the provider's space,
        // and a recorded delegation inside the provider's block does
        // not hold all of it.
        bl.list(
            pfx("64.0.0.0/8"),
            date("2020-01-20"),
            ListingReason::Malware,
        );
        assert_eq!(
            residual_reputation(&provider, &[pfx("64.1.2.0/24")], &bl, date("2020-02-01")),
            Reputation::Listed
        );
        assert_eq!(
            residual_reputation(&provider, &[], &bl, date("2020-01-16")),
            Reputation::Clean
        );
    }

    #[test]
    fn multiple_listings_worst_wins() {
        let mut bl = Blacklist::new();
        let block = pfx("64.3.0.0/24");
        bl.list(block, date("2019-01-01"), ListingReason::Spam);
        bl.delist(block, date("2019-02-01"));
        bl.list(block, date("2019-06-01"), ListingReason::Malware);
        // One delisted + one active ⇒ Listed.
        assert_eq!(
            bl.reputation(&block, date("2019-07-01")),
            Reputation::Listed
        );
        assert_eq!(bl.listings().len(), 2);
    }
}
