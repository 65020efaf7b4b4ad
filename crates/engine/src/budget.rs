//! How a run ended: completed, or cut short by a deterministic limit.
//!
//! A run is bounded only by simulated time (`SystemConfig::max_sim` in
//! `dimm-link`), never by wall clock or by an event count: the simulated
//! time at which a run stops is a property of the simulated system, so the
//! same configuration produces the same [`RunStatus`] on every machine, at
//! every sweep thread count, and under any change that only reschedules the
//! engine's internal events.
//!
//! # Examples
//!
//! ```
//! use dl_engine::budget::{BudgetKind, RunStatus};
//!
//! let status = RunStatus::BudgetExceeded(BudgetKind::SimTime);
//! assert!(!status.is_complete());
//! assert_eq!(RunStatus::Completed.merge(status), status);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which limit cut a run short.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BudgetKind {
    /// The configured simulated-time cap.
    SimTime,
    /// The engine's built-in hard backstop (a fixed, very large scheduled-
    /// event cap that catches runaway event loops; never reached by a
    /// healthy run).
    Backstop,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
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
    /// The run was cut off by a [`BudgetKind`] limit; results cover the
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
            RunStatus::BudgetExceeded(BudgetKind::SimTime),
            RunStatus::BudgetExceeded(BudgetKind::Backstop),
        ] {
            let text = serde_json::to_string(&s).unwrap();
            let back: RunStatus = serde_json::from_str(&text).unwrap();
            assert_eq!(back, s);
        }
    }
}
