//! Pinned outputs for known seeds.
//!
//! `expected.txt` holds one line per `(workload, seed)`: the record a
//! correct run of that workload prints for that seed (a digest of the
//! `run_all` text, or the archive's bytes, digest and query counts).
//! A run with a listed seed must reproduce its record exactly; a run
//! with any other seed is checked only for repeating itself. Every run
//! prints its record to stderr in the table's form, so a new seed is
//! added by copying that line.

const TABLE: &str = include_str!("../expected.txt");

/// The pinned record of `workload` at `seed`, if the table lists one.
fn find<'t>(table: &'t str, workload: &str, seed: u64) -> Option<&'t str> {
    table.lines().find_map(|line| {
        let mut f = line.splitn(3, ' ');
        let (w, s, record) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse() == Ok(seed)).then_some(record)
    })
}

/// Check `record` against the table, and print it in the table's form.
pub fn check(workload: &str, seed: u64, record: &str) -> Result<(), String> {
    check_in(TABLE, workload, seed, record)
}

fn check_in(table: &str, workload: &str, seed: u64, record: &str) -> Result<(), String> {
    eprintln!("perfbench record: {workload} {seed} {record}");
    match find(table, workload, seed) {
        Some(want) if want != record => {
            Err(format!("seed {seed} gave {record:?}, expected {want:?}"))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_known_seed_must_repeat_its_record() {
        let table = "# comment\nfigures 7 digest=00ff sections=14\narchive 7 bytes=10\n";
        assert_eq!(find(table, "figures", 7), Some("digest=00ff sections=14"));
        assert!(check_in(table, "figures", 7, "digest=00ff sections=14").is_ok());
        assert!(check_in(table, "figures", 7, "digest=00fe sections=14").is_err());
        assert!(check_in(table, "archive", 7, "bytes=11").is_err());
        // Seeds the table does not list pass any record.
        assert!(check_in(table, "figures", 8, "anything").is_ok());
    }

    #[test]
    fn the_table_lists_the_reference_seed() {
        assert!(find(TABLE, "figures", 2020).is_some());
        assert!(find(TABLE, "archive", 2020).is_some());
    }
}
