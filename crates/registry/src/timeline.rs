//! The IPv4 exhaustion timeline — Table 1 of the paper.

use crate::policy::AllocationPolicy;
use crate::rir::Rir;
use nettypes::date::{date, Date};
use serde::{Deserialize, Serialize};

/// What happened at a timeline milestone.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ExhaustionEventKind {
    /// The RIR reached its final /8 and entered soft landing.
    DownToLastSlash8,
    /// The RIR's pool fully depleted; recovery-only allocation starts.
    StartOfRecovery,
    /// AFRINIC's phase-2 milestone: down to its last /11.
    DownToLastSlash11,
}

/// One row-cell of Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ExhaustionEvent {
    /// The registry.
    pub rir: Rir,
    /// Milestone kind.
    pub kind: ExhaustionEventKind,
    /// Milestone date.
    pub date: Date,
}

/// The full exhaustion timeline, date-sorted — regenerates Table 1.
pub fn exhaustion_timeline() -> Vec<ExhaustionEvent> {
    let mut events = Vec::new();
    for rir in Rir::ALL {
        let p = AllocationPolicy::for_rir(rir);
        events.push(ExhaustionEvent {
            rir,
            kind: ExhaustionEventKind::DownToLastSlash8,
            date: p.last_slash8,
        });
        if let Some(r) = p.recovery_start {
            events.push(ExhaustionEvent {
                rir,
                kind: ExhaustionEventKind::StartOfRecovery,
                date: r,
            });
        }
    }
    // AFRINIC's special phase-2 milestone (Table 1 footnote).
    events.push(ExhaustionEvent {
        rir: Rir::Afrinic,
        kind: ExhaustionEventKind::DownToLastSlash11,
        date: date("2020-01-13"),
    });
    events.sort_by_key(|e| e.date);
    events
}

/// Render Table 1 as aligned text rows (RIR, last-/8 date, recovery
/// start) matching the paper's layout.
pub fn render_table1() -> String {
    let events = exhaustion_timeline();
    let mut out = String::from("RIR       | Down to last /8 | Start of Recovery\n");
    out.push_str("----------+-----------------+------------------\n");
    for rir in Rir::ALL {
        let last8 = events
            .iter()
            .find(|e| e.rir == rir && e.kind == ExhaustionEventKind::DownToLastSlash8)
            .expect("every RIR reached its last /8");
        let recovery = events
            .iter()
            .find(|e| e.rir == rir && e.kind == ExhaustionEventKind::StartOfRecovery);
        let recovery_txt = match (rir, recovery) {
            (Rir::Afrinic, None) => {
                let p2 = events
                    .iter()
                    .find(|e| e.kind == ExhaustionEventKind::DownToLastSlash11)
                    .expect("AFRINIC phase-2 event");
                format!("- (last /11, {})", p2.date)
            }
            (Rir::Apnic, Some(e)) => format!("{} (still /10 available)", e.date),
            (_, Some(e)) => e.date.to_string(),
            (_, None) => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<9} | {}      | {}\n",
            rir.name(),
            last8.date,
            recovery_txt
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_is_sorted_and_complete() {
        let t = exhaustion_timeline();
        assert!(t.windows(2).all(|w| w[0].date <= w[1].date));
        // 5 last-/8 events + 4 recovery events + 1 AFRINIC /11 event.
        assert_eq!(t.len(), 10);
        assert_eq!(
            t.iter()
                .filter(|e| e.kind == ExhaustionEventKind::DownToLastSlash8)
                .count(),
            5
        );
        assert_eq!(
            t.iter()
                .filter(|e| e.kind == ExhaustionEventKind::StartOfRecovery)
                .count(),
            4
        );
    }

    #[test]
    fn first_and_last_milestones() {
        let t = exhaustion_timeline();
        // APNIC was first to its last /8 (2011); LACNIC's recovery
        // start (2020-08-19) is the latest milestone.
        assert_eq!(t.first().unwrap().rir, Rir::Apnic);
        let last = t.last().unwrap();
        assert_eq!(last.rir, Rir::Lacnic);
        assert_eq!(last.kind, ExhaustionEventKind::StartOfRecovery);
    }

    #[test]
    fn table_renders_all_rirs() {
        let s = render_table1();
        for rir in Rir::ALL {
            assert!(s.contains(rir.name()), "missing {rir} in:\n{s}");
        }
        assert!(s.contains("2019-11-25")); // RIPE recovery start
        assert!(s.contains("last /11")); // AFRINIC footnote
        assert!(s.contains("still /10 available")); // APNIC note
    }
}
