//! Figure 10 — point-to-point IDC performance.
//!
//! For each system size (4D-2C, 8D-4C, 12D-6C, 16D-8C) and each Table IV
//! workload, reports the speedup over the fixed 16-core host CPU for MCN,
//! AIM, DIMM-Link-base and DIMM-Link-opt (Algorithm 1, profiling time
//! charged), plus the ratio of non-overlapped IDC cycles (the paper's line
//! series).
//!
//! Paper reference: DIMM-Link-opt geomean 5.93x over the CPU; 2.42x over
//! MCN; 1.87x over AIM; 1.12x over DIMM-Link-base.

use dimm_link::config::{IdcKind, PlacementPolicy, SystemConfig};
use dl_bench::sweep::Sweep;
use dl_bench::{fmt_pct, fmt_x, geo, print_table, run_sweep, save_json, Args};
use dl_workloads::{WorkloadKind, WorkloadParams};
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    config: String,
    workload: String,
    system: String,
    speedup_vs_host: f64,
    idc_stall_frac: f64,
    elapsed_ns: f64,
}

const SYSTEMS: [&str; 5] = ["MCN", "AIM", "DL-rand", "DL-base", "DL-opt"];

fn main() {
    let args = Args::parse();
    println!(
        "Figure 10: P2P speedup over the 16-core host CPU (scale {})",
        args.scale
    );

    // Submit every point up front: host baselines (independent of the NMP
    // configuration), then all (config x workload x system) runs.
    let mut sweep = Sweep::new("fig10_p2p");
    let hosts: Vec<(WorkloadKind, usize)> = WorkloadKind::P2P_SET
        .iter()
        .map(|&k| {
            (
                k,
                sweep.host(format!("host / {k}"), k, args.scale, args.seed),
            )
        })
        .collect();

    let configs = SystemConfig::p2p_sweep();
    // (config name, workload, host index, per-system record indices)
    let mut groups: Vec<(&str, WorkloadKind, usize, [usize; 5])> = Vec::new();
    for (cfg_name, base_cfg) in &configs {
        for &(kind, host_idx) in &hosts {
            let params = WorkloadParams {
                dimms: base_cfg.dimms,
                scale: args.scale,
                seed: args.seed,
                ..WorkloadParams::small(base_cfg.dimms)
            };
            // DL-rand: an affinity-oblivious runtime mapping — the situation
            // Algorithm 1 rescues (it profiles from exactly this start).
            let mut rand_cfg = base_cfg.clone().with_idc(IdcKind::DimmLink);
            rand_cfg.placement = PlacementPolicy::Random;
            let label = |sys: &str| format!("{cfg_name} / {kind} / {sys}");
            let idx = [
                sweep.simulate(
                    label("MCN"),
                    kind,
                    params,
                    base_cfg.clone().with_idc(IdcKind::CpuForwarding),
                ),
                sweep.simulate(
                    label("AIM"),
                    kind,
                    params,
                    base_cfg.clone().with_idc(IdcKind::DedicatedBus),
                ),
                sweep.simulate(label("DL-rand"), kind, params, rand_cfg),
                sweep.simulate(
                    label("DL-base"),
                    kind,
                    params,
                    base_cfg.clone().with_idc(IdcKind::DimmLink),
                ),
                sweep.simulate_optimized(
                    label("DL-opt"),
                    kind,
                    params,
                    base_cfg.clone().with_idc(IdcKind::DimmLink),
                ),
            ];
            groups.push((cfg_name, kind, host_idx, idx));
        }
    }

    let out = run_sweep(sweep, &args);

    let mut cells: Vec<Cell> = Vec::new();
    for (cfg_name, _) in &configs {
        let mut rows = Vec::new();
        let mut per_system: Vec<Vec<f64>> = vec![Vec::new(); SYSTEMS.len()];
        for &(name, kind, host_idx, idx) in groups.iter().filter(|g| g.0 == *cfg_name) {
            let host_ps = out.records[host_idx].elapsed_f64();
            let mut row = vec![kind.to_string()];
            for (i, &ri) in idx.iter().enumerate() {
                let r = &out.records[ri];
                let speedup = host_ps / r.elapsed_f64();
                per_system[i].push(speedup);
                row.push(fmt_x(speedup));
                cells.push(Cell {
                    config: name.to_string(),
                    workload: kind.to_string(),
                    system: SYSTEMS[i].to_string(),
                    speedup_vs_host: speedup,
                    idc_stall_frac: r.idc_stall_frac(),
                    elapsed_ns: r.elapsed().as_ns_f64(),
                });
            }
            // IDC stall ratio of the DL-opt run (the paper's line series).
            row.push(fmt_pct(out.records[idx[4]].idc_stall_frac()));
            rows.push(row);
        }
        let mut geo_row = vec!["geomean".to_string()];
        for speedups in &per_system {
            geo_row.push(fmt_x(geo(speedups)));
        }
        geo_row.push(String::new());
        rows.push(geo_row);
        print_table(
            &format!("Fig.10 {cfg_name}"),
            &[
                "workload",
                "MCN",
                "AIM",
                "DL-rand",
                "DL-base",
                "DL-opt",
                "IDC-cyc(DL-opt)",
            ],
            &rows,
        );
    }

    // Cross-config geomeans (the paper's headline ratios).
    let all = |sys: &str| -> Vec<f64> {
        cells
            .iter()
            .filter(|c| c.system == sys)
            .map(|c| c.speedup_vs_host)
            .collect()
    };
    let g_mcn = geo(&all("MCN"));
    let g_aim = geo(&all("AIM"));
    let g_rand = geo(&all("DL-rand"));
    let g_base = geo(&all("DL-base"));
    let g_opt = geo(&all("DL-opt"));
    print_table(
        "Fig.10 headline geomeans (paper: DL-opt 5.93x; vs MCN 2.42x; vs AIM 1.87x; vs DL-base 1.12x)",
        &["metric", "measured", "paper"],
        &[
            vec!["DL-opt vs host".into(), fmt_x(g_opt), "5.93x".into()],
            vec!["DL-opt vs MCN".into(), fmt_x(g_opt / g_mcn), "2.42x".into()],
            vec!["DL-opt vs AIM".into(), fmt_x(g_opt / g_aim), "1.87x".into()],
            vec!["DL-opt vs DL-base".into(), fmt_x(g_opt / g_base), "1.12x".into()],
            vec![
                "DL-opt vs DL-rand (Algorithm 1 recovery)".into(),
                fmt_x(g_opt / g_rand),
                "n/a".into(),
            ],
        ],
    );
    save_json("fig10_p2p", &cells);
}
