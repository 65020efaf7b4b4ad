//! # dimm-link-repro
//!
//! Facade crate of the DIMM-Link (HPCA 2023) reproduction workspace: it
//! re-exports every member crate and hosts the repository-level integration
//! tests (`tests/`) and runnable examples (`examples/`).
//!
//! Start with [`dimm_link`] (the system model and experiment runner) and
//! [`dl_workloads`] (the benchmark workloads); the substrates
//! ([`dl_engine`], [`dl_mem`], [`dl_noc`], [`dl_placement`]) are usable
//! standalone.
//!
//! ```
//! use dimm_link_repro::dimm_link::config::{IdcKind, SystemConfig};
//! use dimm_link_repro::dimm_link::runner::simulate;
//! use dimm_link_repro::dl_workloads::{WorkloadKind, WorkloadParams};
//!
//! let params = WorkloadParams { scale: 8, ..WorkloadParams::small(4) };
//! let wl = WorkloadKind::Bfs.build(&params);
//! let run = simulate(&wl, &SystemConfig::nmp(4, 2).with_idc(IdcKind::DimmLink));
//! assert!(run.elapsed > dimm_link_repro::dl_engine::Ps::ZERO);
//! ```

pub use dimm_link;
pub use dl_engine;
pub use dl_mem;
pub use dl_noc;
pub use dl_placement;
pub use dl_workloads;
