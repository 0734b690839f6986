//! WHOIS `inetnum` objects.

use nettypes::date::Date;
use nettypes::range::IpRange;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The RIPE database status hierarchy for IPv4 `inetnum` objects.
///
/// §4 of the paper selects the "delegation-related" types:
/// `SUB-ALLOCATED PA` (space sub-allocated to another organization)
/// and `ASSIGNED PA` (space assigned from an LIR to an end-host).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum InetnumStatus {
    /// Space allocated by the RIR to an LIR.
    AllocatedPa,
    /// Space sub-allocated by an LIR to another organization.
    SubAllocatedPa,
    /// Space assigned by an LIR to an end-host network.
    AssignedPa,
    /// Provider-independent assignment.
    AssignedPi,
    /// Pre-RIR ("legacy") space.
    Legacy,
}

impl InetnumStatus {
    /// The database keyword.
    pub fn keyword(&self) -> &'static str {
        match self {
            InetnumStatus::AllocatedPa => "ALLOCATED PA",
            InetnumStatus::SubAllocatedPa => "SUB-ALLOCATED PA",
            InetnumStatus::AssignedPa => "ASSIGNED PA",
            InetnumStatus::AssignedPi => "ASSIGNED PI",
            InetnumStatus::Legacy => "LEGACY",
        }
    }

    /// Whether the paper's §4 pipeline treats this type as
    /// delegation-related.
    pub fn is_delegation_related(&self) -> bool {
        matches!(
            self,
            InetnumStatus::SubAllocatedPa | InetnumStatus::AssignedPa
        )
    }
}

impl fmt::Display for InetnumStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

impl FromStr for InetnumStatus {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "ALLOCATED PA" => Ok(InetnumStatus::AllocatedPa),
            "SUB-ALLOCATED PA" => Ok(InetnumStatus::SubAllocatedPa),
            "ASSIGNED PA" => Ok(InetnumStatus::AssignedPa),
            "ASSIGNED PI" => Ok(InetnumStatus::AssignedPi),
            "LEGACY" => Ok(InetnumStatus::Legacy),
            other => Err(format!("unknown inetnum status: {other:?}")),
        }
    }
}

/// A WHOIS `inetnum` object (the subset of attributes the pipeline
/// touches).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Inetnum {
    /// The covered range (need not align to CIDR).
    pub range: IpRange,
    /// The `netname` attribute.
    pub netname: String,
    /// Database status.
    pub status: InetnumStatus,
    /// Registrant organization handle (`org:`).
    pub org: String,
    /// Administrative contact handle (`admin-c:`).
    pub admin_c: String,
    /// Object creation date.
    pub created: Date,
}

impl Inetnum {
    /// The RDAP object handle for this inetnum — RIR-unique, derived
    /// from the range like real RIPE handles. [`range_of_handle`] is
    /// its inverse.
    pub fn handle(&self) -> String {
        format!(
            "SIM-NET-{:08X}-{:08X}",
            self.range.start(),
            self.range.end()
        )
    }

    /// Size of the object in addresses.
    pub fn num_addresses(&self) -> u64 {
        self.range.num_addresses()
    }

    /// Whether this object covers at least a /24 (256 addresses) as a
    /// single CIDR-aligned block or larger range — the paper ignores
    /// smaller blocks to limit RDAP load.
    pub fn at_least_slash24(&self) -> bool {
        self.num_addresses() >= 256
    }
}

/// The range an [`Inetnum::handle`] was derived from. Handles arrive
/// in RDAP responses, outside input: anything [`Inetnum::handle`]
/// would not print, such as lowercase hex or a reversed range, is
/// `None`.
pub fn range_of_handle(handle: &str) -> Option<IpRange> {
    let (start, end) = handle.strip_prefix("SIM-NET-")?.split_once('-')?;
    IpRange::new(handle_address(start)?, handle_address(end)?).ok()
}

/// Eight uppercase hex digits, as `{:08X}` prints them.
fn handle_address(hex: &str) -> Option<u32> {
    let printed = hex.len() == 8 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'A'..=b'F'));
    if printed {
        u32::from_str_radix(hex, 16).ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::date::date;
    use proptest::prelude::*;

    fn sample() -> Inetnum {
        Inetnum {
            range: "193.0.0.0 - 193.0.0.255".parse().unwrap(),
            netname: "EXAMPLE-NET".into(),
            status: InetnumStatus::AssignedPa,
            org: "ORG-00001".into(),
            admin_c: "AC1-SIM".into(),
            created: date("2019-05-01"),
        }
    }

    #[test]
    fn status_roundtrip() {
        for s in [
            InetnumStatus::AllocatedPa,
            InetnumStatus::SubAllocatedPa,
            InetnumStatus::AssignedPa,
            InetnumStatus::AssignedPi,
            InetnumStatus::Legacy,
        ] {
            assert_eq!(s.keyword().parse::<InetnumStatus>().unwrap(), s);
        }
        assert!("ALLOCATED".parse::<InetnumStatus>().is_err());
    }

    #[test]
    fn delegation_related_types() {
        assert!(InetnumStatus::SubAllocatedPa.is_delegation_related());
        assert!(InetnumStatus::AssignedPa.is_delegation_related());
        assert!(!InetnumStatus::AllocatedPa.is_delegation_related());
        assert!(!InetnumStatus::AssignedPi.is_delegation_related());
        assert!(!InetnumStatus::Legacy.is_delegation_related());
    }

    #[test]
    fn handles_are_unique_per_range() {
        let a = sample();
        let mut b = sample();
        b.range = "193.0.1.0 - 193.0.1.255".parse().unwrap();
        assert_ne!(a.handle(), b.handle());
        assert_eq!(a.handle(), sample().handle());
    }

    #[test]
    fn slash24_threshold() {
        let mut i = sample();
        assert!(i.at_least_slash24());
        i.range = "10.0.0.0 - 10.0.0.127".parse().unwrap();
        assert!(!i.at_least_slash24());
        i.range = "10.0.0.0 - 10.0.1.255".parse().unwrap();
        assert!(i.at_least_slash24());
    }

    #[test]
    fn malformed_handles_have_no_range() {
        for h in [
            "",
            "SIM-NET-",
            "SIM-NET-0A000000",
            "SIM-NET-0a000000-0A0000FF",
            "SIM-NET-+A000000-0A0000FF",
            "SIM-NET-0A000000-0A0000FF-",
            "SIM-NET-0A0000000-A0000FF",
            "SIM-NET-0A0000FF-0A000000",
            "sim-net-0A000000-0A0000FF",
            "SIM-NET-0A00\u{e9}00-0A0000FF",
        ] {
            assert_eq!(range_of_handle(h), None, "{h:?}");
        }
    }

    proptest! {
        #[test]
        fn handle_range_handle_roundtrips(a in any::<u32>(), b in any::<u32>()) {
            let mut i = sample();
            i.range = IpRange::new(a.min(b), a.max(b)).unwrap();
            let h = i.handle();
            let r = range_of_handle(&h);
            prop_assert_eq!(r, Some(i.range));
            i.range = r.unwrap();
            prop_assert_eq!(i.handle(), h);
        }

        #[test]
        fn only_printed_handles_parse(
            a in any::<u32>(),
            at in 0usize..25,
            c in proptest::sample::select(b"0129AFafGg-+ ".to_vec()),
        ) {
            // A handle with one byte replaced parses only if it is
            // exactly what `handle` prints for the parsed range.
            let mut i = sample();
            i.range = IpRange::new(a / 2, a).unwrap();
            let mut h = i.handle().into_bytes();
            h[at] = c;
            let h = String::from_utf8(h).unwrap();
            if let Some(r) = range_of_handle(&h) {
                i.range = r;
                prop_assert_eq!(i.handle(), h);
            }
        }
    }
}
