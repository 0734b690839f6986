//! # nettypes
//!
//! Foundational address-space types shared by every `drywells` crate:
//!
//! * [`Prefix`] — an IPv4 CIDR prefix with exhaustive arithmetic
//!   (containment, splitting, aggregation, iteration),
//! * [`IpRange`] — an inclusive `start..=end` address range as used by
//!   WHOIS `inetnum` objects, convertible to/from minimal CIDR covers,
//! * [`Asn`] — an autonomous-system number with IANA reservation
//!   knowledge, plus [`Origin`] for AS_SET / MOAS origins,
//! * [`PrefixSet`] — an aggregating set of prefixes that can count the
//!   number of unique addresses covered,
//! * [`bogons`] — the private/reserved address space and reserved ASN
//!   tables used to sanitize routing data,
//! * [`Date`] — a compact calendar date used as the simulation clock.
//!
//! The crate is deliberately dependency-light (only `serde` for
//! serialization of records) and fully synchronous: all higher-level
//! "services" in the workspace are in-process simulations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asn;
pub mod bogons;
pub mod date;
pub mod error;
pub mod prefix;
pub mod range;
pub mod set;

pub use asn::{Asn, Origin};
pub use date::{Date, DateRange};
pub use error::NetTypesError;
pub use prefix::Prefix;
pub use range::IpRange;
pub use set::PrefixSet;

/// Format a raw IPv4 address (host byte order) in dotted-quad notation.
pub fn fmt_ipv4(addr: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        (addr >> 24) & 0xff,
        (addr >> 16) & 0xff,
        (addr >> 8) & 0xff,
        addr & 0xff
    )
}

/// Parse a dotted-quad IPv4 address into host byte order.
pub fn parse_ipv4(s: &str) -> Result<u32, NetTypesError> {
    let mut parts = s.split('.');
    let mut addr: u32 = 0;
    let mut count = 0;
    for part in parts.by_ref() {
        if count == 4 {
            return Err(NetTypesError::InvalidAddress(s.to_string()));
        }
        // Reject empty or oversized octets ("1..2.3", "256.0.0.1").
        let octet: u32 = part
            .parse::<u8>()
            .map_err(|_| NetTypesError::InvalidAddress(s.to_string()))?
            .into();
        addr = (addr << 8) | octet;
        count += 1;
    }
    if count != 4 {
        return Err(NetTypesError::InvalidAddress(s.to_string()));
    }
    Ok(addr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_roundtrip() {
        for s in ["0.0.0.0", "255.255.255.255", "192.0.2.1", "10.0.0.0"] {
            assert_eq!(fmt_ipv4(parse_ipv4(s).unwrap()), s);
        }
    }

    #[test]
    fn ipv4_rejects_garbage() {
        for s in [
            "",
            "1.2.3",
            "1.2.3.4.5",
            "256.0.0.1",
            "a.b.c.d",
            "1..2.3",
            "-1.0.0.0",
        ] {
            assert!(parse_ipv4(s).is_err(), "{s} should be rejected");
        }
    }

    #[test]
    fn ipv4_known_values() {
        assert_eq!(parse_ipv4("0.0.0.1").unwrap(), 1);
        assert_eq!(parse_ipv4("1.0.0.0").unwrap(), 1 << 24);
        assert_eq!(parse_ipv4("128.0.0.0").unwrap(), 1 << 31);
    }
}
