//! Deterministic run budgets: bound a simulation by scheduled events or
//! simulated time, never by wall clock.
//!
//! A [`RunBudget`] lives on the system configuration and is checked inside
//! the event loop, so exceeding it is a property of the simulation itself —
//! the same configuration produces the same [`RunStatus`] on every machine
//! and at every sweep thread count. Wall-clock watchdogs, which are
//! inherently nondeterministic, belong to the benchmark harness
//! (`dl_bench::sweep`), the one module exempt from the workspace's ban on
//! reading host time.
//!
//! # Examples
//!
//! ```
//! use dl_engine::budget::{BudgetKind, RunBudget, RunStatus};
//! use dl_engine::Ps;
//!
//! let b = RunBudget::default(); // unlimited
//! assert_eq!(b.check(1_000_000, Ps::from_ms(5)), None);
//!
//! let b = RunBudget {
//!     max_events: Some(100),
//!     max_sim_ps: None,
//! };
//! assert_eq!(b.check(101, Ps::ZERO), Some(BudgetKind::Events));
//! let status = RunStatus::BudgetExceeded(BudgetKind::Events);
//! assert!(!status.is_complete());
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::Ps;

/// Deterministic limits on one simulation run. `None` means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RunBudget {
    /// Maximum events scheduled over the run (the event queue's
    /// `total_scheduled` counter).
    pub max_events: Option<u64>,
    /// Maximum simulated time in picoseconds.
    pub max_sim_ps: Option<u64>,
}

impl RunBudget {
    /// An unlimited budget (what every run had before budgets existed).
    pub const UNLIMITED: RunBudget = RunBudget {
        max_events: None,
        max_sim_ps: None,
    };

    /// True when neither limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_events.is_none() && self.max_sim_ps.is_none()
    }

    /// Checks the budget against the run's progress counters; returns which
    /// limit was exceeded, if any. Events are checked first so the verdict
    /// is well-defined when both trip at once.
    pub fn check(&self, events_scheduled: u64, now: Ps) -> Option<BudgetKind> {
        if self.max_events.is_some_and(|cap| events_scheduled > cap) {
            return Some(BudgetKind::Events);
        }
        if self.max_sim_ps.is_some_and(|cap| now.as_ps() > cap) {
            return Some(BudgetKind::SimTime);
        }
        None
    }
}

/// Which limit of a [`RunBudget`] was exceeded.
///
/// # Overshoot contract
///
/// Budgets are observed at the *top* of the engine's epoch loop, before the
/// next batch of events is processed. A single event handler may schedule
/// many follow-up events (remote reads fan out into memory ticks, network
/// hops, and wake-ups), so the recorded `events_scheduled` at the moment a
/// run stops can exceed `max_events` by up to the fan-out of the events
/// handled in the final epoch. The overshoot is a deterministic function of
/// the configuration and workload — the same run always stops at the same
/// point with the same counters — but callers must treat `max_events` as a
/// trigger threshold, not an exact ceiling on the final counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BudgetKind {
    /// The scheduled-event cap.
    Events,
    /// The simulated-time cap.
    SimTime,
    /// The engine's built-in hard backstop (a fixed, very large scheduled-
    /// event cap that catches runaway event loops even when the run's own
    /// [`RunBudget`] is unlimited).
    Backstop,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetKind::Events => "event budget",
            BudgetKind::SimTime => "simulated-time budget",
            BudgetKind::Backstop => "hard event backstop",
        })
    }
}

/// How a simulation run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RunStatus {
    /// The run finished on its own.
    Completed,
    /// The run was cut off by its [`RunBudget`]; results cover the
    /// simulated prefix only.
    BudgetExceeded(BudgetKind),
}

// Manual impl: a `#[default]` variant attribute could trip the vendored
// serde derive's attribute parsing.
#[allow(clippy::derivable_impls)]
impl Default for RunStatus {
    fn default() -> Self {
        RunStatus::Completed
    }
}

impl RunStatus {
    /// True when the run finished without hitting a budget.
    pub fn is_complete(&self) -> bool {
        matches!(self, RunStatus::Completed)
    }

    /// Combines the statuses of two phases of one experiment (e.g. the
    /// profiling run and the measured run): any budget violation wins.
    pub fn merge(self, other: RunStatus) -> RunStatus {
        match self {
            RunStatus::Completed => other,
            exceeded => exceeded,
        }
    }
}

impl fmt::Display for RunStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunStatus::Completed => f.write_str("completed"),
            RunStatus::BudgetExceeded(kind) => write!(f, "exceeded the {kind}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = RunBudget::UNLIMITED;
        assert!(b.is_unlimited());
        assert_eq!(b.check(u64::MAX, Ps::from_ps(u64::MAX >> 1)), None);
    }

    #[test]
    fn caps_are_inclusive() {
        let b = RunBudget {
            max_events: Some(10),
            max_sim_ps: Some(100),
        };
        assert_eq!(b.check(10, Ps::from_ps(100)), None);
        assert_eq!(b.check(11, Ps::from_ps(100)), Some(BudgetKind::Events));
        assert_eq!(b.check(10, Ps::from_ps(101)), Some(BudgetKind::SimTime));
        // Events win when both trip on the same check.
        assert_eq!(b.check(11, Ps::from_ps(101)), Some(BudgetKind::Events));
    }

    #[test]
    fn status_merge_prefers_the_violation() {
        let ok = RunStatus::Completed;
        let bad = RunStatus::BudgetExceeded(BudgetKind::SimTime);
        assert_eq!(ok.merge(ok), ok);
        assert_eq!(ok.merge(bad), bad);
        assert_eq!(bad.merge(ok), bad);
        assert!(ok.is_complete() && !bad.is_complete());
    }

    #[test]
    fn status_round_trips_through_json() {
        for s in [
            RunStatus::Completed,
            RunStatus::BudgetExceeded(BudgetKind::Events),
            RunStatus::BudgetExceeded(BudgetKind::SimTime),
            RunStatus::BudgetExceeded(BudgetKind::Backstop),
        ] {
            let text = serde_json::to_string(&s).unwrap();
            let back: RunStatus = serde_json::from_str(&text).unwrap();
            assert_eq!(back, s);
        }
    }
}
