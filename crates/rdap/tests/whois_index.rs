//! The indexed `WhoisDb` against the linear-scan oracle: every lookup,
//! the RDAP queries and the WHOIS text, over random nested, overlapping
//! and duplicate ranges and over a built quick-preset database.

mod whois_oracle;

use bgpsim::scenario::{LeaseWorld, WorldConfig};
use bgpsim::topology::TopologyConfig;
use nettypes::date::{date, DateRange};
use nettypes::range::IpRange;
use proptest::prelude::*;
use rdap::database::{DbBuildConfig, WhoisDb};
use rdap::inetnum::{Inetnum, InetnumStatus};
use rdap::server::RdapServer;
use rdap::whois::WhoisServer;

/// Identity of a looked-up object: which slot of `objects()` it is.
fn slot(o: Option<&Inetnum>) -> Option<*const Inetnum> {
    o.map(|o| o as *const Inetnum)
}

fn slots<'a>(os: impl IntoIterator<Item = &'a Inetnum>) -> Vec<*const Inetnum> {
    os.into_iter().map(|o| o as *const Inetnum).collect()
}

/// Check every index-backed lookup of the range `q` against the oracle.
fn check_range(db: &WhoisDb, server: &RdapServer, q: IpRange) -> Result<(), String> {
    let objects = db.objects();
    let probe = Inetnum {
        range: q,
        netname: String::new(),
        status: InetnumStatus::AssignedPa,
        org: String::new(),
        admin_c: String::new(),
        created: date("2020-01-01"),
    };
    let pairs = [
        ("exact", db.exact(q), whois_oracle::exact(objects, q)),
        (
            "parent_of",
            db.parent_of(q),
            whois_oracle::parent_of(objects, q),
        ),
        (
            "smallest_containing",
            db.smallest_containing(q),
            whois_oracle::smallest_containing(objects, q),
        ),
        (
            "by_handle",
            db.by_handle(&probe.handle()),
            whois_oracle::exact(objects, q),
        ),
    ];
    for (what, got, want) in pairs {
        if slot(got) != slot(want) {
            return Err(format!(
                "{what} {q}: index {:?}, oracle {:?}",
                slot(got),
                slot(want)
            ));
        }
    }
    if slots(db.less_specific(q)) != slots(whois_oracle::less_specific(objects, q)) {
        return Err(format!("less_specific {q} differs"));
    }
    if slots(db.more_specific(q)) != slots(whois_oracle::more_specific(objects, q)) {
        return Err(format!("more_specific {q} differs"));
    }
    if server.query(q) != whois_oracle::rdap_query(objects, q) {
        return Err(format!("RDAP query {q} differs"));
    }
    Ok(())
}

/// Check the lookups of the address `a` against the oracle.
fn check_address(db: &WhoisDb, server: &RdapServer, a: u32) -> Result<(), String> {
    let objects = db.objects();
    let (got, want) = (
        db.smallest_containing_address(a),
        whois_oracle::smallest_containing_address(objects, a),
    );
    if slot(got) != slot(want) {
        return Err(format!(
            "smallest_containing_address {}: index {:?}, oracle {:?}",
            nettypes::fmt_ipv4(a),
            slot(got),
            slot(want)
        ));
    }
    if server.query_ip(a) != whois_oracle::rdap_query_ip(objects, a) {
        return Err(format!("RDAP query_ip {} differs", nettypes::fmt_ipv4(a)));
    }
    Ok(())
}

/// Check the WHOIS text for `target` under every flag, byte for byte.
fn check_whois(db: &WhoisDb, target: &str) -> Result<(), String> {
    let whois = WhoisServer::new(db);
    for flag in ["", "-L ", "-m ", "-M ", "-x "] {
        let line = format!("{flag}{target}");
        if whois.handle(&line) != whois_oracle::whois(db.objects(), &line) {
            return Err(format!("WHOIS {line:?} differs"));
        }
    }
    Ok(())
}

/// Check the range `q`, and the addresses at and just outside its
/// ends, through every lookup and the WHOIS text.
fn check_all(db: &WhoisDb, server: &RdapServer, q: IpRange) -> Result<(), String> {
    check_range(db, server, q)?;
    check_whois(db, &q.to_string())?;
    let addrs = [
        Some(q.start()),
        Some(q.end()),
        q.start().checked_sub(1),
        q.end().checked_add(1),
    ];
    for a in addrs.into_iter().flatten() {
        check_address(db, server, a)?;
        check_whois(db, &nettypes::fmt_ipv4(a))?;
    }
    Ok(())
}

/// Map a draw in `0..16` to an address: the bottom 8 draws are the
/// first addresses of the space, the top 8 its last ones. So few
/// addresses make nested, overlapping, duplicate and single-address
/// ranges common.
fn address(x: u32) -> u32 {
    if x < 8 {
        x
    } else {
        u32::MAX - (15 - x)
    }
}

fn range(a: u32, b: u32) -> IpRange {
    let (a, b) = (address(a), address(b));
    IpRange::new(a.min(b), a.max(b)).unwrap()
}

/// A database from draws `(a, b, dup, status)`: the range between the
/// two drawn addresses, or with `dup == 0` a copy of an earlier range.
/// Each object has its own org, so duplicate ranges stay distinct.
fn database(draws: &[(u32, u32, u32, usize)]) -> WhoisDb {
    const STATUSES: [InetnumStatus; 3] = [
        InetnumStatus::AllocatedPa,
        InetnumStatus::SubAllocatedPa,
        InetnumStatus::AssignedPa,
    ];
    let mut objects: Vec<Inetnum> = Vec::new();
    for (i, &(a, b, dup, status)) in draws.iter().enumerate() {
        let r = match objects.get(a as usize % objects.len().max(1)) {
            Some(earlier) if dup == 0 => earlier.range,
            _ => range(a, b),
        };
        objects.push(Inetnum {
            range: r,
            netname: format!("NET-{i}"),
            status: STATUSES[status],
            org: format!("ORG-{i}"),
            admin_c: format!("AC-{i}"),
            created: date("2019-01-01"),
        });
    }
    objects.into_iter().collect()
}

#[test]
fn empty_database_matches_the_oracle() {
    let db = database(&[]);
    assert!(db.is_empty());
    let server = RdapServer::new(db.clone());
    for (a, b) in [(0, 0), (0, 15), (15, 15), (5, 10)] {
        check_all(&db, &server, range(a, b)).unwrap();
    }
    assert!(db.by_handle("SIM-NET-00000000-FFFFFFFF").is_none());
}

proptest! {
    #[test]
    fn index_matches_the_linear_oracle(
        draws in proptest::collection::vec((0u32..16, 0u32..16, 0u32..4, 0usize..3), 0..24),
        queries in proptest::collection::vec((0u32..16, 0u32..16), 1..8),
    ) {
        let db = database(&draws);
        let server = RdapServer::new(db.clone());
        let stored = db.objects().iter().map(|o| o.range);
        let drawn = queries.iter().map(|&(a, b)| range(a, b));
        for q in stored.chain(drawn).collect::<Vec<_>>() {
            if let Err(e) = check_all(&db, &server, q) {
                prop_assert!(false, "{e}");
            }
        }
        prop_assert!(db.by_handle("SIM-NET-not-a-handle").is_none());
    }
}

#[test]
fn every_object_of_a_quick_world_matches_the_oracle() {
    // The quick study preset's world at its default seed.
    let world = LeaseWorld::generate(&WorldConfig {
        seed: 2020,
        span: DateRange::new(date("2018-01-01"), date("2018-03-31")),
        topology: TopologyConfig {
            seed: 2020,
            num_tier1: 4,
            num_tier2: 15,
            num_stubs: 150,
            multi_as_org_fraction: 0.15,
        },
        num_allocations: 60,
        initial_active_leases: 500,
        bgp_visible_fraction: 0.05,
        num_intra_org: 15,
        num_hijacks: 8,
        num_moas: 6,
        num_as_sets: 3,
        num_scrubbing: 3,
        ..Default::default()
    });
    let db = WhoisDb::build_from_world(&world, world.span.end, &DbBuildConfig::default());
    assert!(db.len() > 1000, "{} objects", db.len());
    let server = RdapServer::new(db.clone());
    for o in db.objects() {
        check_range(&db, &server, o.range).unwrap();
        check_address(&db, &server, o.range.start()).unwrap();
    }
}
