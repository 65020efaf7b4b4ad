//! Extension — DIMM-Link on disaggregated memory (paper Section VI).
//!
//! The paper proposes organizing DIMM-NMP blades behind CXL/RDMA instead of
//! a host memory bus: DIMM-Link augments intra-blade IDC while the fabric
//! carries inter-blade packets, removing host polling/forwarding entirely.
//! This experiment quantifies that proposal: the in-server organization
//! (inter-group via host) vs the disaggregated one (inter-blade via CXL) at
//! 2 blades × 8 DIMMs and 4 blades × 8 DIMMs, plus a fabric-latency sweep.

use super::Report;
use crate::sweep::{RunRecord, Sweep};
use crate::{fmt_x, geo, Args};
use dimm_link::config::{IdcKind, SystemConfig};
use dl_engine::Ps;
use dl_workloads::WorkloadKind;
use serde::Serialize;

pub(super) const NAME: &str = "ext_disaggregated";

#[derive(Serialize)]
struct Row {
    config: String,
    workload: String,
    cxl_over_host: f64,
}

const WORKLOADS: [WorkloadKind; 3] = [
    WorkloadKind::Pagerank,
    WorkloadKind::Sssp,
    WorkloadKind::Bfs,
];

fn blades(dimms: usize, channels: usize, groups: usize, idc: IdcKind) -> SystemConfig {
    let mut cfg = SystemConfig::nmp(dimms, channels).with_idc(idc);
    cfg.groups = groups;
    cfg
}

/// (name, DIMMs, channels, blades).
const BLADES: [(&str, usize, usize, usize); 2] =
    [("2 blades x 8", 16, 8, 2), ("4 blades x 8", 32, 16, 4)];
/// One-way fabric latencies of the sensitivity sweep, ns.
const FABRIC_LATS: [u64; 5] = [100, 250, 500, 1000, 2000];

pub(super) fn points(args: &Args) -> Vec<Sweep> {
    let mut sweep = Sweep::new(NAME);
    for (name, dimms, channels, groups) in BLADES {
        let params = args.params(dimms);
        for kind in WORKLOADS {
            for (org, idc) in [
                ("host-org", IdcKind::DimmLink),
                ("cxl-org", IdcKind::DimmLinkCxl),
            ] {
                sweep.simulate(
                    format!("{name} / {kind} / {org}"),
                    kind,
                    params,
                    blades(dimms, channels, groups, idc),
                );
            }
        }
    }

    // Fabric-latency sensitivity: when does disaggregation stop paying off?
    let params = args.params(16);
    sweep.simulate(
        "fabric-sweep / pr / host-org",
        WorkloadKind::Pagerank,
        params,
        blades(16, 8, 2, IdcKind::DimmLink),
    );
    for lat_ns in FABRIC_LATS {
        let mut cfg = blades(16, 8, 2, IdcKind::DimmLinkCxl);
        cfg.cxl_latency = Ps::from_ns(lat_ns);
        sweep.simulate(
            format!("fabric-sweep / pr / cxl {lat_ns} ns"),
            WorkloadKind::Pagerank,
            params,
            cfg,
        );
    }
    vec![sweep]
}

pub(super) fn report(args: &Args, records: &[RunRecord]) -> Report {
    let mut report = Report::scaled(
        "Extension (Section VI): DIMM-Link on disaggregated memory",
        args,
    );
    let mut out = Vec::new();
    // A host-org and a CXL-org run per workload, one group per blade count;
    // then the fabric sweep.
    let per_blades = 2 * WORKLOADS.len();
    let (runs, fabric) = records.split_at(BLADES.len() * per_blades);
    for ((name, _, _, _), runs) in BLADES.iter().zip(runs.chunks(per_blades)) {
        let mut rows = Vec::new();
        let mut speedups = Vec::new();
        for (kind, pair) in WORKLOADS.iter().zip(runs.chunks(2)) {
            let (host_org, cxl_org) = (&pair[0], &pair[1]);
            let s = host_org.elapsed_f64() / cxl_org.elapsed_f64();
            speedups.push(s);
            rows.push(vec![
                kind.to_string(),
                host_org.elapsed().to_string(),
                cxl_org.elapsed().to_string(),
                fmt_x(s),
            ]);
            out.push(Row {
                config: name.to_string(),
                workload: kind.to_string(),
                cxl_over_host: s,
            });
        }
        rows.push(vec![
            "geomean".into(),
            String::new(),
            String::new(),
            fmt_x(geo(&speedups)),
        ]);
        report.table(
            &format!("{name}: in-server (host-forwarded inter-group) vs disaggregated (CXL)"),
            &["workload", "host org", "CXL org", "CXL speedup"],
            &rows,
        );
    }

    let host_org = fabric[0].elapsed_f64();
    let mut rows = Vec::new();
    for (lat_ns, r) in FABRIC_LATS.iter().zip(&fabric[1..]) {
        rows.push(vec![
            format!("{lat_ns} ns"),
            fmt_x(host_org / r.elapsed_f64()),
        ]);
    }
    report.table(
        "PR, 2 blades: CXL speedup over the host organization vs fabric latency",
        &["one-way fabric latency", "speedup"],
        &rows,
    );
    report.save(NAME, &out)
}
