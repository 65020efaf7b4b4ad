//! # dl-mem
//!
//! DDR4 DIMM memory-system timing model — the workspace's stand-in for
//! Ramulator, which the DIMM-Link paper builds on (via MultiPIM).
//!
//! The crate models:
//!
//! * DDR4 device timing ([`timing::DramTiming`], presets for the Micron
//!   LRDIMM the paper configures from),
//! * intra-DIMM address mapping ([`address::DimmAddressMap`]),
//! * a per-DIMM memory controller ([`controller::MemController`]) with
//!   FR-FCFS scheduling, open-page row-buffer policy, bank/rank state
//!   machines, tFAW activation throttling and refresh,
//! * set-associative write-back caches ([`cache::Cache`]) used for NMP-core
//!   L1/L2 and the host LLC.
//!
//! # Examples
//!
//! ```
//! use dl_engine::Ps;
//! use dl_mem::{DimmAddressMap, DramConfig, MemController, MemRequest, AccessKind};
//!
//! let cfg = DramConfig::ddr4_2400_lrdimm();
//! let map = DimmAddressMap::new(&cfg);
//! let mut mc = MemController::new("dimm0", &cfg);
//! mc.enqueue(Ps::ZERO, MemRequest::new(1, AccessKind::Read, map.decode(0x40)));
//! // Drive the controller until the read completes.
//! let mut done = mc.service(Ps::ZERO);
//! while done.is_empty() {
//!     let now = mc.next_wake().expect("request still in flight");
//!     done = mc.service(now);
//! }
//! assert_eq!(done[0].id, 1);
//! ```

pub mod address;
pub mod cache;
pub mod controller;
pub mod timing;

pub use address::{DimmAddr, DimmAddressMap};
pub use cache::{Cache, CacheConfig, CacheOutcome};
pub use controller::{AccessKind, Completion, MemController, MemRequest};
pub use timing::{DramConfig, DramTiming, MappingScheme, RowPolicy};
