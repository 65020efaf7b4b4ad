//! Figure 16 — DIMM-Link bandwidth exploration, 4 GB/s to 64 GB/s.
//!
//! Paper: the benefit of extra link bandwidth grows with the system size;
//! at 16D-8C, HS and BFS improve almost linearly — evidence that the large
//! chain diameter causes congestion that bandwidth relieves.

use dimm_link::config::{IdcKind, SystemConfig};
use dl_bench::sweep::Sweep;
use dl_bench::{fmt_x, print_table, run_sweep, save_results, Args};
use dl_workloads::WorkloadKind;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    config: String,
    workload: String,
    link_gbps: u64,
    speedup_vs_4gbps: f64,
}

fn main() {
    let args = Args::parse();
    println!("Figure 16: link-bandwidth sweep (scale {})", args.scale);
    let bandwidths: &[u64] = &[4, 8, 16, 25, 32, 64];
    let workloads = [
        WorkloadKind::Hotspot,
        WorkloadKind::Bfs,
        WorkloadKind::Pagerank,
    ];
    let configs = [("4D-2C", 4usize, 2usize), ("16D-8C", 16, 8)];

    let mut sweep = Sweep::new("fig16_bandwidth");
    for (cfg_name, dimms, channels) in configs {
        let params = args.params(dimms);
        for kind in workloads {
            for &gb in bandwidths {
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
    let result = run_sweep(sweep, &args);

    let mut out = Vec::new();
    let per_config = workloads.len() * bandwidths.len();
    for ((cfg_name, _, _), runs) in configs.iter().zip(result.records.chunks(per_config)) {
        let mut rows = Vec::new();
        for (kind, runs) in workloads.iter().zip(runs.chunks(bandwidths.len())) {
            let mut row = vec![kind.to_string()];
            let base_ps = runs[0].elapsed_f64();
            for (&gb, r) in bandwidths.iter().zip(runs) {
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
        print_table(
            &format!("Fig.16 {cfg_name}: speedup vs 4 GB/s links"),
            &["workload", "4", "8", "16", "25", "32", "64 GB/s"],
            &rows,
        );
    }
    println!("\nExpected shape: gains grow with system size (16D-8C > 4D-2C).");
    save_results("fig16_bandwidth", &out);
}
