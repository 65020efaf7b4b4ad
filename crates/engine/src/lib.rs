//! # dl-engine
//!
//! Discrete-event simulation substrate for the DIMM-Link reproduction.
//!
//! The paper's evaluation is built on Zsim + Ramulator + BookSim; this crate
//! provides the common machinery those simulators share and that every other
//! crate in this workspace builds on:
//!
//! * a global picosecond-resolution clock ([`Ps`]) and frequency conversions
//!   ([`Freq`]),
//! * a deterministic event queue ([`EventQueue`]) ordered by time, then an
//!   explicit rank ([`EventKey`]), then push order,
//! * contended, utilization-tracked resources ([`Resource`],
//!   [`BandwidthResource`]) used to model memory channels, SerDes links, and
//!   shared buses,
//! * statistics plumbing ([`stats::StatSet`], [`stats::Histogram`]),
//! * a seeded deterministic RNG ([`rng::DetRng`]) and the FNV-1a hash its
//!   streams are derived with ([`Fnv1a`]).
//!
//! # Examples
//!
//! ```
//! use dl_engine::{EventQueue, Ps};
//!
//! let mut q = EventQueue::new();
//! q.push(Ps::from_ns(10), "later");
//! q.push(Ps::from_ns(1), "sooner");
//! assert_eq!(q.pop(), Some((Ps::from_ns(1), "sooner")));
//! assert_eq!(q.pop(), Some((Ps::from_ns(10), "later")));
//! ```

pub mod budget;
pub mod event;
pub mod fnv;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use budget::{BudgetKind, RunStatus};
pub use event::{EventKey, EventQueue};
pub use fnv::Fnv1a;
pub use resource::{BandwidthResource, Resource};
pub use rng::DetRng;
pub use time::{Freq, Ps};

/// Whether the runtime auditor (`feature = "audit"`) is on, for crates that
/// check their own invariants only in audited builds
/// (`--features dl-engine/audit`).
pub const AUDIT: bool = cfg!(feature = "audit");
