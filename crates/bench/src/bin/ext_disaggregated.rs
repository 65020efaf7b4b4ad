//! Extension — DIMM-Link on disaggregated memory (paper Section VI).
//!
//! The paper proposes organizing DIMM-NMP blades behind CXL/RDMA instead of
//! a host memory bus: DIMM-Link augments intra-blade IDC while the fabric
//! carries inter-blade packets, removing host polling/forwarding entirely.
//! This experiment quantifies that proposal: the in-server organization
//! (inter-group via host) vs the disaggregated one (inter-blade via CXL) at
//! 2 blades × 8 DIMMs and 4 blades × 8 DIMMs, plus a fabric-latency sweep.

use dimm_link::config::{IdcKind, SystemConfig};
use dl_bench::sweep::Sweep;
use dl_bench::{fmt_time, fmt_x, geo, print_table, run_sweep, save_results, Args};
use dl_engine::Ps;
use dl_workloads::WorkloadKind;
use serde::Serialize;

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

fn main() {
    let args = Args::parse();
    println!(
        "Extension (Section VI): DIMM-Link on disaggregated memory (scale {})",
        args.scale
    );

    let blade_cfgs = [
        ("2 blades x 8", 16usize, 8usize, 2usize),
        ("4 blades x 8", 32, 16, 4),
    ];
    let fabric_lats = [100u64, 250, 500, 1000, 2000];

    let mut sweep = Sweep::new("ext_disaggregated");
    for (name, dimms, channels, groups) in blade_cfgs {
        let params = args.params(dimms);
        for kind in WORKLOADS {
            sweep.simulate(
                format!("{name} / {kind} / host-org"),
                kind,
                params,
                blades(dimms, channels, groups, IdcKind::DimmLink),
            );
            sweep.simulate(
                format!("{name} / {kind} / cxl-org"),
                kind,
                params,
                blades(dimms, channels, groups, IdcKind::DimmLinkCxl),
            );
        }
    }

    // Fabric-latency sensitivity: when does disaggregation stop paying off?
    let lat_base = sweep.len();
    let params = args.params(16);
    sweep.simulate(
        "fabric-sweep / pr / host-org",
        WorkloadKind::Pagerank,
        params,
        blades(16, 8, 2, IdcKind::DimmLink),
    );
    for lat_ns in fabric_lats {
        let mut cfg = blades(16, 8, 2, IdcKind::DimmLinkCxl);
        cfg.cxl_latency = Ps::from_ns(lat_ns);
        sweep.simulate(
            format!("fabric-sweep / pr / cxl {lat_ns} ns"),
            WorkloadKind::Pagerank,
            params,
            cfg,
        );
    }

    let result = run_sweep(sweep, &args);

    let mut out = Vec::new();
    // A host-org and a CXL-org run per workload, one group per blade count.
    let per_blades = result.records[..lat_base].chunks(2 * WORKLOADS.len());
    for ((name, _, _, _), runs) in blade_cfgs.iter().zip(per_blades) {
        let mut rows = Vec::new();
        let mut speedups = Vec::new();
        for (kind, pair) in WORKLOADS.iter().zip(runs.chunks(2)) {
            let (host_org, cxl_org) = (&pair[0], &pair[1]);
            let s = host_org.elapsed_f64() / cxl_org.elapsed_f64();
            speedups.push(s);
            rows.push(vec![
                kind.to_string(),
                fmt_time(host_org.elapsed()),
                fmt_time(cxl_org.elapsed()),
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
        print_table(
            &format!("{name}: in-server (host-forwarded inter-group) vs disaggregated (CXL)"),
            &["workload", "host org", "CXL org", "CXL speedup"],
            &rows,
        );
    }

    let host_org = result.records[lat_base].elapsed_f64();
    let mut rows = Vec::new();
    for (lat_ns, r) in fabric_lats.iter().zip(&result.records[lat_base + 1..]) {
        rows.push(vec![
            format!("{lat_ns} ns"),
            fmt_x(host_org / r.elapsed_f64()),
        ]);
    }
    print_table(
        "PR, 2 blades: CXL speedup over the host organization vs fabric latency",
        &["one-way fabric latency", "speedup"],
        &rows,
    );
    save_results("ext_disaggregated", &out);
}
