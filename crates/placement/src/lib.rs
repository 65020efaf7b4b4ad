//! # dl-placement
//!
//! Distance-aware task mapping (paper Section IV-B, Algorithm 1).
//!
//! The paper improves thread–data affinity by (1) profiling a small fraction
//! of each thread's memory traffic per DIMM, (2) weighting that traffic by
//! inter-DIMM distance to build a placement cost table, and (3) solving a
//! minimum-cost maximum-flow problem to assign threads to DIMMs subject to a
//! per-DIMM thread capacity.
//!
//! * [`mcmf::MinCostFlow`] — a successive-shortest-paths (SPFA) min-cost
//!   max-flow solver, the `O(T²N²)`-ish workhorse the paper invokes
//!   ("using algorithms such as Bellman-Ford").
//! * [`profile::AccessProfile`] — the `M[T][N]` traffic table.
//! * [`placement`] — Steps 1–3 of Algorithm 1, plus a brute-force reference
//!   used to property-test optimality.
//!
//! # Examples
//!
//! ```
//! use dl_placement::{AccessProfile, place_threads};
//!
//! // 2 threads, 2 DIMMs: thread 0 hammers DIMM 1, thread 1 hammers DIMM 0.
//! let mut profile = AccessProfile::new(2, 2);
//! profile.record(0, 1, 1000);
//! profile.record(1, 0, 1000);
//! let dist = vec![vec![0, 1], vec![1, 0]]; // hop distance
//! let placement = place_threads(&profile, &dist, 1).expect("feasible");
//! assert_eq!(placement.assignment(), &[1, 0]);
//! ```

pub mod mcmf;
pub mod placement;
pub mod profile;

pub use mcmf::MinCostFlow;
pub use placement::{place_threads, place_threads_brute_force, Placement, PlacementError};
pub use profile::AccessProfile;
