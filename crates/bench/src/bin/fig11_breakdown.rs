//! Figure 11 — data-transfer breakdown of DIMM-Link-opt.
//!
//! The paper reports that with the thread-placement optimization only ~29 %
//! of total traffic is forwarded via the CPU; the rest stays local or rides
//! the intra-group links.

use dimm_link::config::{IdcKind, SystemConfig};
use dl_bench::sweep::Sweep;
use dl_bench::{fmt_pct, print_table, run_sweep, save_json, Args};
use dl_workloads::{WorkloadKind, WorkloadParams};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    workload: String,
    local: f64,
    link: f64,
    cpu_forwarded: f64,
}

fn main() {
    let args = Args::parse();
    println!(
        "Figure 11: traffic breakdown of DIMM-Link-opt at 16D-8C (scale {})",
        args.scale
    );
    let cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLink);

    let mut sweep = Sweep::new("fig11_breakdown");
    for kind in WorkloadKind::P2P_SET {
        let params = WorkloadParams {
            scale: args.scale,
            seed: args.seed,
            ..WorkloadParams::small(16)
        };
        sweep.simulate_optimized(format!("{kind} / DL-opt"), kind, params, cfg.clone());
    }
    let result = run_sweep(sweep, &args);

    let mut rows = Vec::new();
    let mut out = Vec::new();
    let mut fwd_sum = 0.0;
    for (kind, r) in WorkloadKind::P2P_SET.iter().zip(&result.records) {
        let (local, link, fwd, _) = r.traffic_breakdown();
        fwd_sum += fwd;
        rows.push(vec![
            kind.to_string(),
            fmt_pct(local),
            fmt_pct(link),
            fmt_pct(fwd),
        ]);
        out.push(Row {
            workload: kind.to_string(),
            local,
            link,
            cpu_forwarded: fwd,
        });
    }
    rows.push(vec![
        "mean".into(),
        String::new(),
        String::new(),
        fmt_pct(fwd_sum / WorkloadKind::P2P_SET.len() as f64),
    ]);
    print_table(
        "Fig.11 bytes by path (paper: ~29% CPU-forwarded on average)",
        &["workload", "local DRAM", "DIMM-Link", "CPU-forwarded"],
        &rows,
    );
    save_json("fig11_breakdown", &out);
}
