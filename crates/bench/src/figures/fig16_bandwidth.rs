//! Figure 16 — DIMM-Link bandwidth exploration, 4 GB/s to 64 GB/s.
//!
//! Paper: the benefit of extra link bandwidth grows with the system size;
//! at 16D-8C, HS and BFS improve almost linearly — evidence that the large
//! chain diameter causes congestion that bandwidth relieves.

use super::Report;
use crate::sweep::{RunRecord, Sweep};
use crate::{fmt_x, Args};
use dimm_link::config::{IdcKind, SystemConfig};
use dl_workloads::WorkloadKind;
use serde::Serialize;

pub(super) const NAME: &str = "fig16_bandwidth";

#[derive(Serialize)]
struct Point {
    config: String,
    workload: String,
    link_gbps: u64,
    speedup_vs_4gbps: f64,
}

/// Link bandwidths per direction, GB/s.
const BANDWIDTHS: [u64; 6] = [4, 8, 16, 25, 32, 64];
const WORKLOADS: [WorkloadKind; 3] = [
    WorkloadKind::Hotspot,
    WorkloadKind::Bfs,
    WorkloadKind::Pagerank,
];
/// (name, DIMMs, channels).
const CONFIGS: [(&str, usize, usize); 2] = [("4D-2C", 4, 2), ("16D-8C", 16, 8)];

pub(super) fn points(args: &Args) -> Vec<Sweep> {
    let mut sweep = Sweep::new(NAME);
    for (cfg_name, dimms, channels) in CONFIGS {
        let params = args.params(dimms);
        for kind in WORKLOADS {
            for gb in BANDWIDTHS {
                let mut cfg = SystemConfig::nmp(dimms, channels).with_idc(IdcKind::DimmLink);
                cfg.link = cfg.link.with_bandwidth(gb * 1_000_000_000);
                sweep.simulate(
                    format!("{cfg_name} / {kind} / {gb} GB/s"),
                    kind,
                    params,
                    cfg,
                );
            }
        }
    }
    vec![sweep]
}

pub(super) fn report(args: &Args, records: &[RunRecord]) -> Report {
    let mut report = Report::scaled("Figure 16: link-bandwidth sweep", args);
    let mut out = Vec::new();
    let per_config = WORKLOADS.len() * BANDWIDTHS.len();
    for ((cfg_name, _, _), runs) in CONFIGS.iter().zip(records.chunks(per_config)) {
        let mut rows = Vec::new();
        for (kind, runs) in WORKLOADS.iter().zip(runs.chunks(BANDWIDTHS.len())) {
            let mut row = vec![kind.to_string()];
            let base_ps = runs[0].elapsed_f64();
            for (&gb, r) in BANDWIDTHS.iter().zip(runs) {
                let s = base_ps / r.elapsed_f64();
                row.push(fmt_x(s));
                out.push(Point {
                    config: cfg_name.to_string(),
                    workload: kind.to_string(),
                    link_gbps: gb,
                    speedup_vs_4gbps: s,
                });
            }
            rows.push(row);
        }
        report.table(
            &format!("Fig.16 {cfg_name}: speedup vs 4 GB/s links"),
            &["workload", "4", "8", "16", "25", "32", "64 GB/s"],
            &rows,
        );
    }
    report
        .text
        .push_str("\nExpected shape: gains grow with system size (16D-8C > 4D-2C).\n");
    report.save(NAME, &out)
}
