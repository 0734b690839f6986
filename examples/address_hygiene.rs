//! Address hygiene: the §2 "not all IP addresses are equal" story.
//!
//! A leasing provider's block hosts a spamming delegatee; we compare
//! the provider's residual reputation with and without SWIP-style
//! delegation records, and show what the listing does to the block's
//! market value.
//!
//! ```sh
//! cargo run --release --example address_hygiene
//! ```

use market::reputation::{residual_reputation, Blacklist, ListingReason, Reputation};
use nettypes::date::date;
use nettypes::prefix::pfx;

fn main() {
    let provider_block = pfx("185.120.0.0/16");
    let delegated = pfx("185.120.44.0/24");
    println!("provider holds {provider_block}, leases {delegated} to a customer\n");

    let mut blacklist = Blacklist::new();

    // The delegatee starts spamming in January and is listed.
    blacklist.list(delegated, date("2020-01-15"), ListingReason::Spam);
    println!("2020-01-15: {delegated} listed for spam");

    for (when, label) in [
        (date("2020-02-01"), "during the listing"),
        (date("2020-04-01"), "after delisting"),
    ] {
        if when == date("2020-04-01") {
            blacklist.delist(delegated, date("2020-03-01"));
            println!("\n2020-03-01: operator cleans up; block delisted");
        }
        println!("\n--- {label} ({when}) ---");
        for (records, desc) in [
            (vec![delegated], "with SWIP records"),
            (vec![], "without records"),
        ] {
            let rep = residual_reputation(&provider_block, &records, &blacklist, when);
            let value_per_ip = 22.50 * rep.price_multiplier();
            println!(
                "  {desc:<22} residual space is {:?} → market value ${value_per_ip:.2}/IP",
                rep
            );
        }
        let delegated_rep = blacklist.reputation(&delegated, when);
        println!(
            "  the delegated /24 itself:  {:?} → ${:.2}/IP{}",
            delegated_rep,
            22.50 * delegated_rep.price_multiplier(),
            if delegated_rep == Reputation::Tainted {
                " (tainted forever — 'it can be hard to remove it again')"
            } else {
                ""
            }
        );
    }

    println!(
        "\nthis is why leasing providers vet customers and install SWIP records (§2),\n\
         and why buyers run reputation checks before acquiring blocks."
    );
}
