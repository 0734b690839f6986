//! Autonomous-system numbers and BGP origin representations.

use crate::error::NetTypesError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// An autonomous-system number (32-bit, RFC 6793).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Asn(pub u32);

impl Asn {
    /// AS 0 — reserved, must never originate routes (RFC 7607).
    pub const ZERO: Asn = Asn(0);
    /// AS 23456 — AS_TRANS (RFC 6793).
    pub const TRANS: Asn = Asn(23456);
    /// AS 65535 — reserved (RFC 7300).
    pub const LAST_16BIT: Asn = Asn(65535);
    /// AS 4294967295 — reserved (RFC 7300).
    pub const LAST_32BIT: Asn = Asn(u32::MAX);

    /// Whether this ASN is reserved by IANA and must not appear in a
    /// public AS path (private-use ranges, documentation ranges,
    /// AS_TRANS, AS 0, last ASNs).
    ///
    /// Mirrors the IANA "Autonomous System (AS) Numbers" registry
    /// special-purpose entries the paper sanitizes against.
    pub fn is_reserved(&self) -> bool {
        match self.0 {
            0 => true,                       // RFC 7607
            23456 => true,                   // AS_TRANS, RFC 6793
            64496..=64511 => true,           // documentation, RFC 5398
            64512..=65534 => true,           // private use, RFC 6996
            65535 => true,                   // RFC 7300
            65536..=65551 => true,           // documentation, RFC 5398
            4200000000..=4294967294 => true, // private use, RFC 6996
            4294967295 => true,              // RFC 7300
            _ => false,
        }
    }

    /// Whether this ASN may legitimately originate routes in the public
    /// routing system.
    pub fn is_routable(&self) -> bool {
        !self.is_reserved()
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Asn {
    type Err = NetTypesError;

    /// Accepts `AS1234`, `as1234` or a bare number.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .unwrap_or(s);
        digits
            .parse::<u32>()
            .map(Asn)
            .map_err(|_| NetTypesError::InvalidAsn(s.to_string()))
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

/// The origin of a BGP route as seen at a monitor.
///
/// The delegation-inference algorithm must discard prefixes originated
/// by an `AS_SET` or by multiple distinct ASes (MOAS); representing the
/// origin exactly keeps that logic honest.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub enum Origin {
    /// A single origin AS — the normal case.
    Single(Asn),
    /// An AS_SET origin (deprecated aggregation artifact, RFC 6472).
    Set(Vec<Asn>),
}

impl Origin {
    /// The single origin AS, if this is not an AS_SET.
    pub fn as_single(&self) -> Option<Asn> {
        match self {
            Origin::Single(a) => Some(*a),
            Origin::Set(_) => None,
        }
    }

    /// Whether the origin is an AS_SET.
    pub fn is_set(&self) -> bool {
        matches!(self, Origin::Set(_))
    }

    /// All ASNs involved in the origin.
    pub fn asns(&self) -> Vec<Asn> {
        match self {
            Origin::Single(a) => vec![*a],
            Origin::Set(v) => v.clone(),
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Single(a) => write!(f, "{a}"),
            Origin::Set(v) => {
                write!(f, "{{")?;
                for (i, a) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", a.0)?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<Asn> for Origin {
    fn from(a: Asn) -> Self {
        Origin::Single(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_forms() {
        assert_eq!("AS3320".parse::<Asn>().unwrap(), Asn(3320));
        assert_eq!("as3320".parse::<Asn>().unwrap(), Asn(3320));
        assert_eq!("3320".parse::<Asn>().unwrap(), Asn(3320));
        assert!("ASX".parse::<Asn>().is_err());
        assert!("".parse::<Asn>().is_err());
        assert!("AS-1".parse::<Asn>().is_err());
    }

    #[test]
    fn reserved_ranges() {
        assert!(Asn::ZERO.is_reserved());
        assert!(Asn::TRANS.is_reserved());
        assert!(Asn(64512).is_reserved());
        assert!(Asn(65534).is_reserved());
        assert!(Asn(65535).is_reserved());
        assert!(Asn(64496).is_reserved());
        assert!(Asn(65536).is_reserved());
        assert!(Asn(65551).is_reserved());
        assert!(Asn(4200000000).is_reserved());
        assert!(Asn(u32::MAX).is_reserved());
        // Ordinary public ASNs.
        assert!(Asn(3320).is_routable());
        assert!(Asn(65552).is_routable());
        assert!(Asn(174).is_routable());
        assert!(Asn(4199999999).is_routable());
    }

    #[test]
    fn origin_accessors() {
        let s = Origin::Single(Asn(1));
        assert_eq!(s.as_single(), Some(Asn(1)));
        assert!(!s.is_set());
        let set = Origin::Set(vec![Asn(1), Asn(2)]);
        assert_eq!(set.as_single(), None);
        assert!(set.is_set());
        assert_eq!(set.asns(), vec![Asn(1), Asn(2)]);
        assert_eq!(set.to_string(), "{1,2}");
        assert_eq!(s.to_string(), "AS1");
    }
}
