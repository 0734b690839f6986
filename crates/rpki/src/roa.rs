//! Route Origin Authorizations and RFC 6811 origin validation.

use nettypes::asn::Asn;
use nettypes::prefix::Prefix;
use serde::{Deserialize, Serialize};

/// A Route Origin Authorization: `asn` may originate `prefix` and any
/// more-specific up to `max_len`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Roa {
    /// The authorized prefix.
    pub prefix: Prefix,
    /// Maximum announced length (≥ `prefix.len()`).
    pub max_len: u8,
    /// The authorized origin.
    pub asn: Asn,
}

impl Roa {
    /// Create a ROA; panics if `max_len` is invalid (callers construct
    /// ROAs from trusted generation code).
    pub fn new(prefix: Prefix, max_len: u8, asn: Asn) -> Roa {
        assert!(
            max_len >= prefix.len() && max_len <= 32,
            "invalid maxLength {max_len} for {prefix}"
        );
        Roa {
            prefix,
            max_len,
            asn,
        }
    }

    /// A ROA whose maxLength equals the prefix length (the recommended
    /// deployment practice).
    pub fn exact(prefix: Prefix, asn: Asn) -> Roa {
        Roa::new(prefix, prefix.len(), asn)
    }

    /// Whether this ROA *covers* the announced prefix (prefix match,
    /// regardless of origin or maxLength).
    pub fn covers(&self, announced: &Prefix) -> bool {
        self.prefix.covers(announced)
    }

    /// RFC 6811: a ROA *matches* an announcement when it covers the
    /// prefix, the announced length does not exceed maxLength, and the
    /// origin equals the authorized ASN.
    pub fn matches(&self, announced: &Prefix, origin: Asn) -> bool {
        self.covers(announced) && announced.len() <= self.max_len && origin == self.asn
    }
}

/// RFC 6811 route-origin validation states.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RouteValidity {
    /// At least one ROA matches.
    Valid,
    /// At least one ROA covers the prefix but none matches.
    Invalid,
    /// No ROA covers the prefix.
    NotFound,
}

/// Validate an announcement against a set of ROAs.
pub fn validate(roas: &[Roa], announced: &Prefix, origin: Asn) -> RouteValidity {
    let mut covered = false;
    for roa in roas {
        if roa.covers(announced) {
            covered = true;
            if roa.matches(announced, origin) {
                return RouteValidity::Valid;
            }
        }
    }
    if covered {
        RouteValidity::Invalid
    } else {
        RouteValidity::NotFound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::prefix::pfx;

    #[test]
    fn exact_match_is_valid() {
        let roas = [Roa::exact(pfx("193.0.0.0/21"), Asn(3333))];
        assert_eq!(
            validate(&roas, &pfx("193.0.0.0/21"), Asn(3333)),
            RouteValidity::Valid
        );
    }

    #[test]
    fn wrong_origin_is_invalid() {
        let roas = [Roa::exact(pfx("193.0.0.0/21"), Asn(3333))];
        assert_eq!(
            validate(&roas, &pfx("193.0.0.0/21"), Asn(666)),
            RouteValidity::Invalid
        );
    }

    #[test]
    fn more_specific_beyond_maxlen_is_invalid() {
        let roas = [Roa::new(pfx("193.0.0.0/21"), 22, Asn(3333))];
        assert_eq!(
            validate(&roas, &pfx("193.0.0.0/22"), Asn(3333)),
            RouteValidity::Valid
        );
        assert_eq!(
            validate(&roas, &pfx("193.0.0.0/24"), Asn(3333)),
            RouteValidity::Invalid
        );
    }

    #[test]
    fn uncovered_is_notfound() {
        let roas = [Roa::exact(pfx("193.0.0.0/21"), Asn(3333))];
        assert_eq!(
            validate(&roas, &pfx("10.0.0.0/8"), Asn(3333)),
            RouteValidity::NotFound
        );
        assert_eq!(
            validate(&[], &pfx("10.0.0.0/8"), Asn(1)),
            RouteValidity::NotFound
        );
    }

    #[test]
    fn any_matching_roa_wins() {
        // MOAS-style: two ROAs for the same prefix, different origins.
        let roas = [
            Roa::exact(pfx("10.0.0.0/16"), Asn(1)),
            Roa::exact(pfx("10.0.0.0/16"), Asn(2)),
        ];
        assert_eq!(
            validate(&roas, &pfx("10.0.0.0/16"), Asn(1)),
            RouteValidity::Valid
        );
        assert_eq!(
            validate(&roas, &pfx("10.0.0.0/16"), Asn(2)),
            RouteValidity::Valid
        );
        assert_eq!(
            validate(&roas, &pfx("10.0.0.0/16"), Asn(3)),
            RouteValidity::Invalid
        );
    }

    #[test]
    #[should_panic(expected = "invalid maxLength")]
    fn rejects_bad_maxlen() {
        let _ = Roa::new(pfx("10.0.0.0/16"), 8, Asn(1));
    }
}
