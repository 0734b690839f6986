//! The five Regional Internet Registries.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// One of the five Regional Internet Registries.
///
/// "Region" in all per-region analyses refers to the RIR that
/// allocated (and maintains) an address block; when a block is
/// transferred across RIRs, its region follows the transfer (footnote 1
/// of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub enum Rir {
    /// AFRINIC — African region.
    Afrinic,
    /// APNIC — Asia-Pacific region.
    Apnic,
    /// ARIN — American region.
    Arin,
    /// LACNIC — Latin American region.
    Lacnic,
    /// RIPE NCC — European and Middle Eastern region.
    RipeNcc,
}

impl Rir {
    /// All five RIRs in alphabetical order.
    pub const ALL: [Rir; 5] = [
        Rir::Afrinic,
        Rir::Apnic,
        Rir::Arin,
        Rir::Lacnic,
        Rir::RipeNcc,
    ];

    /// The RIRs with vibrant transfer markets that the paper's pricing
    /// analysis covers (AFRINIC and LACNIC are excluded: only 31
    /// transactions in the data set).
    pub const MARKET_RIRS: [Rir; 3] = [Rir::Apnic, Rir::Arin, Rir::RipeNcc];

    /// Canonical lower-case registry label as used in the published
    /// transfer-statistics feeds.
    pub fn label(&self) -> &'static str {
        match self {
            Rir::Afrinic => "afrinic",
            Rir::Apnic => "apnic",
            Rir::Arin => "arin",
            Rir::Lacnic => "lacnic",
            Rir::RipeNcc => "ripencc",
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Rir::Afrinic => "AFRINIC",
            Rir::Apnic => "APNIC",
            Rir::Arin => "ARIN",
            Rir::Lacnic => "LACNIC",
            Rir::RipeNcc => "RIPE NCC",
        }
    }

    /// Whether the published transfer feed labels M&A transfers
    /// separately from market transfers. AFRINIC, ARIN and the
    /// RIPE NCC label them; APNIC and LACNIC do not (§3).
    pub fn labels_mna_transfers(&self) -> bool {
        matches!(self, Rir::Afrinic | Rir::Arin | Rir::RipeNcc)
    }
}

impl fmt::Display for Rir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Rir {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "afrinic" => Ok(Rir::Afrinic),
            "apnic" => Ok(Rir::Apnic),
            "arin" => Ok(Rir::Arin),
            "lacnic" => Ok(Rir::Lacnic),
            "ripencc" | "ripe" | "ripe ncc" | "ripe-ncc" => Ok(Rir::RipeNcc),
            other => Err(format!("unknown RIR: {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for rir in Rir::ALL {
            assert_eq!(rir.label().parse::<Rir>().unwrap(), rir);
        }
        assert_eq!("RIPE".parse::<Rir>().unwrap(), Rir::RipeNcc);
        assert!("ietf".parse::<Rir>().is_err());
    }

    #[test]
    fn mna_labelling_matches_paper() {
        assert!(Rir::Afrinic.labels_mna_transfers());
        assert!(Rir::Arin.labels_mna_transfers());
        assert!(Rir::RipeNcc.labels_mna_transfers());
        assert!(!Rir::Apnic.labels_mna_transfers());
        assert!(!Rir::Lacnic.labels_mna_transfers());
    }

    #[test]
    fn market_rirs() {
        assert!(!Rir::MARKET_RIRS.contains(&Rir::Afrinic));
        assert!(!Rir::MARKET_RIRS.contains(&Rir::Lacnic));
        assert_eq!(Rir::MARKET_RIRS.len(), 3);
    }
}
