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

use super::Report;
use crate::sweep::{RunRecord, Sweep};
use crate::{fmt_pct, fmt_x, geo, Args};
use dimm_link::config::{IdcKind, PlacementPolicy, SystemConfig};
use dl_workloads::WorkloadKind;
use serde::Serialize;

pub(super) const NAME: &str = "fig10_p2p";

#[derive(Serialize)]
struct Cell {
    config: String,
    workload: String,
    system: String,
    speedup_vs_host: f64,
    idc_stall_frac: f64,
    elapsed_ns: f64,
}

/// The compared systems, in the order each workload's runs hold them: name,
/// mechanism, thread placement, and whether Algorithm 1 re-places the
/// threads. DL-rand is an affinity-oblivious runtime mapping — the
/// situation Algorithm 1 rescues (it profiles from exactly this start).
const SYSTEMS: [(&str, IdcKind, PlacementPolicy, bool); 5] = [
    (
        "MCN",
        IdcKind::CpuForwarding,
        PlacementPolicy::Natural,
        false,
    ),
    (
        "AIM",
        IdcKind::DedicatedBus,
        PlacementPolicy::Natural,
        false,
    ),
    ("DL-rand", IdcKind::DimmLink, PlacementPolicy::Random, false),
    (
        "DL-base",
        IdcKind::DimmLink,
        PlacementPolicy::Natural,
        false,
    ),
    ("DL-opt", IdcKind::DimmLink, PlacementPolicy::Natural, true),
];

pub(super) fn points(args: &Args) -> Vec<Sweep> {
    // Host baselines first (independent of the NMP configuration), then
    // every (config x workload x system) run.
    let mut sweep = Sweep::new(NAME);
    for k in WorkloadKind::P2P_SET {
        sweep.host(format!("host / {k}"), k, args.scale, args.seed);
    }
    for (cfg_name, base_cfg) in SystemConfig::p2p_sweep() {
        for kind in WorkloadKind::P2P_SET {
            let params = args.params(base_cfg.dimms);
            for (sys, idc, placement, optimized) in SYSTEMS {
                let mut cfg = base_cfg.clone().with_idc(idc);
                cfg.placement = placement;
                let label = format!("{cfg_name} / {kind} / {sys}");
                if optimized {
                    sweep.simulate_optimized(label, kind, params, cfg);
                } else {
                    sweep.simulate(label, kind, params, cfg);
                }
            }
        }
    }
    vec![sweep]
}

pub(super) fn report(args: &Args, records: &[RunRecord]) -> Report {
    let mut report = Report::scaled("Figure 10: P2P speedup over the 16-core host CPU", args);
    let (hosts, runs) = records.split_at(WorkloadKind::P2P_SET.len());
    let per_config = runs.chunks(hosts.len() * SYSTEMS.len());
    let mut cells: Vec<Cell> = Vec::new();
    for ((cfg_name, _), runs) in SystemConfig::p2p_sweep().iter().zip(per_config) {
        let mut rows = Vec::new();
        let mut per_system: Vec<Vec<f64>> = vec![Vec::new(); SYSTEMS.len()];
        let per_workload = hosts.iter().zip(runs.chunks(SYSTEMS.len()));
        for (kind, (host, runs)) in WorkloadKind::P2P_SET.iter().zip(per_workload) {
            let host_ps = host.elapsed_f64();
            let mut row = vec![kind.to_string()];
            for (i, r) in runs.iter().enumerate() {
                let speedup = host_ps / r.elapsed_f64();
                per_system[i].push(speedup);
                row.push(fmt_x(speedup));
                cells.push(Cell {
                    config: cfg_name.to_string(),
                    workload: kind.to_string(),
                    system: SYSTEMS[i].0.to_string(),
                    speedup_vs_host: speedup,
                    idc_stall_frac: r.idc_stall_frac(),
                    elapsed_ns: r.elapsed().as_ns_f64(),
                });
            }
            // IDC stall ratio of the DL-opt run (the paper's line series).
            row.push(fmt_pct(runs[4].idc_stall_frac()));
            rows.push(row);
        }
        let mut geo_row = vec!["geomean".to_string()];
        for speedups in &per_system {
            geo_row.push(fmt_x(geo(speedups)));
        }
        geo_row.push(String::new());
        rows.push(geo_row);
        report.table(
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
    report.table(
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
    report.save(NAME, &cells)
}
