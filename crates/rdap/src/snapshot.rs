//! The RIPE-style split-file snapshot text format.
//!
//! RIPE publishes nightly database dumps (`ripe.db.inetnum.gz`) as
//! paragraphs of `attribute: value` lines separated by blank lines.
//! The paper uses those snapshots as the *input space* for RDAP
//! queries, because RDAP itself has no wildcard or range queries.

use crate::inetnum::{Inetnum, InetnumStatus};
use nettypes::date::Date;
use nettypes::range::IpRange;

/// Serialization of a database to the split-file text format.
pub fn to_split_file(objects: &[Inetnum]) -> String {
    let mut out = String::new();
    for o in objects {
        out.push_str(&format!("inetnum:        {}\n", o.range));
        out.push_str(&format!("netname:        {}\n", o.netname));
        out.push_str(&format!("status:         {}\n", o.status));
        out.push_str(&format!("org:            {}\n", o.org));
        out.push_str(&format!("admin-c:        {}\n", o.admin_c));
        out.push_str(&format!("created:        {}\n", o.created));
        out.push_str("source:         SIM\n\n");
    }
    out
}

/// Errors from snapshot parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A paragraph was missing a mandatory attribute.
    MissingAttribute {
        /// The attribute name.
        attribute: &'static str,
        /// Paragraph index (0-based).
        paragraph: usize,
    },
    /// A value failed to parse.
    BadValue {
        /// The attribute name.
        attribute: &'static str,
        /// The offending value.
        value: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::MissingAttribute {
                attribute,
                paragraph,
            } => {
                write!(f, "paragraph {paragraph}: missing {attribute}:")
            }
            SnapshotError::BadValue { attribute, value } => {
                write!(f, "bad {attribute}: value {value:?}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Parse a split-file snapshot back into objects. Unknown attributes
/// are ignored (the real dump has many more than we model); comment
/// lines (`%` or `#`) are skipped.
pub fn parse_split_file(text: &str) -> Result<Vec<Inetnum>, SnapshotError> {
    let mut out = Vec::new();
    for (pi, para) in text.split("\n\n").enumerate() {
        let mut range: Option<IpRange> = None;
        let mut netname = None;
        let mut status: Option<InetnumStatus> = None;
        let mut org = None;
        let mut admin_c = None;
        let mut created: Option<Date> = None;
        let mut saw_any = false;
        for line in para.lines() {
            if line.starts_with('%') || line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let Some((attr, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            saw_any = true;
            match attr.trim() {
                "inetnum" => {
                    range = Some(value.parse().map_err(|_| SnapshotError::BadValue {
                        attribute: "inetnum",
                        value: value.to_string(),
                    })?)
                }
                "netname" => netname = Some(value.to_string()),
                "status" => {
                    status = Some(value.parse().map_err(|_| SnapshotError::BadValue {
                        attribute: "status",
                        value: value.to_string(),
                    })?)
                }
                "org" => org = Some(value.to_string()),
                "admin-c" => admin_c = Some(value.to_string()),
                "created" => {
                    created = Some(value.parse().map_err(|_| SnapshotError::BadValue {
                        attribute: "created",
                        value: value.to_string(),
                    })?)
                }
                _ => {} // unknown attribute: ignore
            }
        }
        if !saw_any {
            continue; // blank trailing paragraph
        }
        let missing = |attribute| SnapshotError::MissingAttribute {
            attribute,
            paragraph: pi,
        };
        out.push(Inetnum {
            range: range.ok_or_else(|| missing("inetnum"))?,
            netname: netname.ok_or_else(|| missing("netname"))?,
            status: status.ok_or_else(|| missing("status"))?,
            org: org.ok_or_else(|| missing("org"))?,
            admin_c: admin_c.ok_or_else(|| missing("admin-c"))?,
            created: created.ok_or_else(|| missing("created"))?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::date::date;
    use proptest::prelude::*;

    fn sample() -> Vec<Inetnum> {
        vec![
            Inetnum {
                range: "193.0.0.0 - 193.0.7.255".parse().unwrap(),
                netname: "RIPE-NCC".into(),
                status: InetnumStatus::AllocatedPa,
                org: "ORG-00001".into(),
                admin_c: "AC1".into(),
                created: date("2012-01-01"),
            },
            Inetnum {
                range: "193.0.0.0 - 193.0.0.255".parse().unwrap(),
                netname: "LEASE-1".into(),
                status: InetnumStatus::AssignedPa,
                org: "ORG-00002".into(),
                admin_c: "AC2".into(),
                created: date("2019-06-15"),
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let objs = sample();
        let text = to_split_file(&objs);
        let back = parse_split_file(&text).unwrap();
        assert_eq!(back, objs);
    }

    #[test]
    fn ignores_comments_and_unknown_attributes() {
        let text = "\
% RIPE database dump
inetnum:        10.0.0.0 - 10.0.0.255
netname:        N
descr:          some human text
status:         ASSIGNED PA
org:            ORG-1
admin-c:        AC1
mnt-by:         SOME-MNT
created:        2020-01-01
source:         SIM
";
        let objs = parse_split_file(text).unwrap();
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].netname, "N");
    }

    #[test]
    fn missing_attribute_is_an_error() {
        let text = "inetnum:        10.0.0.0 - 10.0.0.255\nnetname: N\n";
        let err = parse_split_file(text).unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::MissingAttribute {
                attribute: "status",
                ..
            }
        ));
    }

    #[test]
    fn bad_values_are_errors() {
        let bad_range = "inetnum:        10.0.0.0 -\nnetname: N\nstatus: ASSIGNED PA\norg: O\nadmin-c: A\ncreated: 2020-01-01\n";
        assert!(matches!(
            parse_split_file(bad_range),
            Err(SnapshotError::BadValue {
                attribute: "inetnum",
                ..
            })
        ));
        let bad_status = "inetnum:        10.0.0.0 - 10.0.0.255\nnetname: N\nstatus: NOT-A-STATUS\norg: O\nadmin-c: A\ncreated: 2020-01-01\n";
        assert!(matches!(
            parse_split_file(bad_status),
            Err(SnapshotError::BadValue {
                attribute: "status",
                ..
            })
        ));
    }

    #[test]
    fn empty_input_is_empty() {
        assert_eq!(parse_split_file("").unwrap(), vec![]);
        assert_eq!(parse_split_file("\n\n\n").unwrap(), vec![]);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            objs in proptest::collection::vec(
                (any::<u32>(), 0u32..10_000, 0usize..5, "[A-Z][A-Z0-9-]{0,12}", 0i64..20_000)
                    .prop_map(|(start, span, status_idx, name, created)| {
                        let end = start.saturating_add(span);
                        Inetnum {
                            range: IpRange::new(start, end).unwrap(),
                            netname: name.clone(),
                            status: [
                                InetnumStatus::AllocatedPa,
                                InetnumStatus::SubAllocatedPa,
                                InetnumStatus::AssignedPa,
                                InetnumStatus::AssignedPi,
                                InetnumStatus::Legacy,
                            ][status_idx],
                            org: format!("ORG-{name}"),
                            admin_c: format!("AC-{name}"),
                            created: Date::from_days(created),
                        }
                    }),
                0..20
            )
        ) {
            let text = to_split_file(&objs);
            prop_assert_eq!(parse_split_file(&text).unwrap(), objs);
        }
    }
}
