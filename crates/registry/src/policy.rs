//! Per-RIR IPv4 allocation policy over time.
//!
//! Encodes the exhaustion milestones of Table 1 and the soft-landing
//! assignment rules described in §2: once an RIR is down to its last
//! /8 it enters a restricted phase; once its pool is fully depleted it
//! can only allocate recovered space ("Recovery Only"), typically via a
//! waiting list.

use crate::rir::Rir;
use nettypes::date::{date, Date};
use serde::{Deserialize, Serialize};

/// The phase of an RIR's IPv4 lifecycle at a given date.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PolicyPhase {
    /// Regular needs-based allocation; pool not yet scarce.
    Normal,
    /// Soft landing: down to the last /8 (or /11), restricted sizes.
    SoftLanding,
    /// Pool depleted: allocation only from recovered space.
    RecoveryOnly,
}

/// Static policy knowledge for one RIR.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AllocationPolicy {
    /// The registry this policy belongs to.
    pub rir: Rir,
    /// Date the RIR reached its final /8 (or /11 for AFRINIC phase 2).
    pub last_slash8: Date,
    /// Date the pool fully depleted and recovery-only started, if it
    /// has happened (APNIC and AFRINIC still held space in mid-2020).
    pub recovery_start: Option<Date>,
    /// Maximum prefix length…: the *most specific* (smallest) block the
    /// RIR hands to a member under soft landing, e.g. 22 for a /22.
    pub max_allocation_len: u8,
    /// Whether the RIR operates a waiting list after depletion.
    pub has_waiting_list: bool,
    /// Quarantine period (days) applied to recovered space before it
    /// is redistributed. Most RIRs use six months (§2).
    pub quarantine_days: i64,
}

impl AllocationPolicy {
    /// The policy for a given RIR, with the milestone dates from
    /// Table 1 of the paper.
    pub fn for_rir(rir: Rir) -> AllocationPolicy {
        match rir {
            Rir::Afrinic => AllocationPolicy {
                rir,
                last_slash8: date("2017-03-31"),
                recovery_start: None, // last /11 reached 2020-01-13, not depleted
                max_allocation_len: 22,
                has_waiting_list: false,
                quarantine_days: 180,
            },
            Rir::Apnic => AllocationPolicy {
                rir,
                last_slash8: date("2011-04-15"),
                recovery_start: Some(date("2014-07-27")),
                max_allocation_len: 23,
                // APNIC abolished its waiting list on 2019-07-02 (§2);
                // modelled as not operating one in the study window.
                has_waiting_list: false,
                quarantine_days: 180,
            },
            Rir::Arin => AllocationPolicy {
                rir,
                last_slash8: date("2014-04-23"),
                recovery_start: Some(date("2015-09-24")),
                max_allocation_len: 22,
                has_waiting_list: true,
                quarantine_days: 180,
            },
            Rir::Lacnic => AllocationPolicy {
                rir,
                last_slash8: date("2017-02-15"),
                recovery_start: Some(date("2020-08-19")),
                max_allocation_len: 22,
                has_waiting_list: true,
                quarantine_days: 180,
            },
            Rir::RipeNcc => AllocationPolicy {
                rir,
                last_slash8: date("2012-09-14"),
                recovery_start: Some(date("2019-11-25")),
                max_allocation_len: 24,
                has_waiting_list: true,
                quarantine_days: 180,
            },
        }
    }

    /// The lifecycle phase at `when`.
    pub fn phase_at(&self, when: Date) -> PolicyPhase {
        if let Some(r) = self.recovery_start {
            if when >= r {
                return PolicyPhase::RecoveryOnly;
            }
        }
        if when >= self.last_slash8 {
            PolicyPhase::SoftLanding
        } else {
            PolicyPhase::Normal
        }
    }

    /// The largest block (as a prefix length; smaller number = bigger
    /// block) a new member can receive at `when`. Before soft landing
    /// we model the historic needs-based maximum as a /16.
    pub fn max_allocation_at(&self, when: Date) -> u8 {
        match self.phase_at(when) {
            PolicyPhase::Normal => 16,
            PolicyPhase::SoftLanding | PolicyPhase::RecoveryOnly => self.max_allocation_len,
        }
    }

    /// Whether the transfer market for this region is open at `when`.
    /// The paper observes regional transfer markets start once the RIR
    /// is down to its last /8 (§3, Figure 2 vs Table 1).
    pub fn market_open_at(&self, when: Date) -> bool {
        when >= self.last_slash8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::date::date;

    #[test]
    fn table1_milestones() {
        assert_eq!(
            AllocationPolicy::for_rir(Rir::Afrinic).last_slash8,
            date("2017-03-31")
        );
        assert_eq!(
            AllocationPolicy::for_rir(Rir::Apnic).last_slash8,
            date("2011-04-15")
        );
        assert_eq!(
            AllocationPolicy::for_rir(Rir::Arin).last_slash8,
            date("2014-04-23")
        );
        assert_eq!(
            AllocationPolicy::for_rir(Rir::Lacnic).last_slash8,
            date("2017-02-15")
        );
        assert_eq!(
            AllocationPolicy::for_rir(Rir::RipeNcc).last_slash8,
            date("2012-09-14")
        );

        assert_eq!(
            AllocationPolicy::for_rir(Rir::RipeNcc).recovery_start,
            Some(date("2019-11-25"))
        );
        assert_eq!(AllocationPolicy::for_rir(Rir::Afrinic).recovery_start, None);
    }

    #[test]
    fn phases_progress() {
        let ripe = AllocationPolicy::for_rir(Rir::RipeNcc);
        assert_eq!(ripe.phase_at(date("2010-01-01")), PolicyPhase::Normal);
        assert_eq!(ripe.phase_at(date("2012-09-14")), PolicyPhase::SoftLanding);
        assert_eq!(ripe.phase_at(date("2019-11-24")), PolicyPhase::SoftLanding);
        assert_eq!(ripe.phase_at(date("2019-11-25")), PolicyPhase::RecoveryOnly);
        assert_eq!(ripe.phase_at(date("2020-06-01")), PolicyPhase::RecoveryOnly);
    }

    #[test]
    fn allocation_sizes_match_section2() {
        let when = date("2020-06-01");
        assert_eq!(
            AllocationPolicy::for_rir(Rir::Afrinic).max_allocation_at(when),
            22
        );
        assert_eq!(
            AllocationPolicy::for_rir(Rir::Apnic).max_allocation_at(when),
            23
        );
        assert_eq!(
            AllocationPolicy::for_rir(Rir::Arin).max_allocation_at(when),
            22
        );
        assert_eq!(
            AllocationPolicy::for_rir(Rir::Lacnic).max_allocation_at(when),
            22
        );
        assert_eq!(
            AllocationPolicy::for_rir(Rir::RipeNcc).max_allocation_at(when),
            24
        );
        // Pre-scarcity allocations were much larger.
        assert_eq!(
            AllocationPolicy::for_rir(Rir::RipeNcc).max_allocation_at(date("2005-01-01")),
            16
        );
    }

    #[test]
    fn market_opening_follows_last_slash8() {
        let apnic = AllocationPolicy::for_rir(Rir::Apnic);
        assert!(!apnic.market_open_at(date("2011-04-14")));
        assert!(apnic.market_open_at(date("2011-04-15")));
        let lacnic = AllocationPolicy::for_rir(Rir::Lacnic);
        assert!(!lacnic.market_open_at(date("2015-01-01")));
        assert!(lacnic.market_open_at(date("2018-01-01")));
    }

    #[test]
    fn waiting_lists_match_paper() {
        assert!(AllocationPolicy::for_rir(Rir::Arin).has_waiting_list);
        assert!(AllocationPolicy::for_rir(Rir::Lacnic).has_waiting_list);
        assert!(AllocationPolicy::for_rir(Rir::RipeNcc).has_waiting_list);
        assert!(!AllocationPolicy::for_rir(Rir::Apnic).has_waiting_list);
        assert!(!AllocationPolicy::for_rir(Rir::Afrinic).has_waiting_list);
    }
}
