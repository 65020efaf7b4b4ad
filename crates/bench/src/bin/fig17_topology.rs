//! Figure 17 / Section VI — DL-group topology exploration at 16D-8C.
//!
//! Paper: relative to the practical chain ("half-ring") baseline, Ring
//! accelerates P2P IDC by 1.11x, Mesh by 1.19x, Torus by 1.27x on average.

use dimm_link::config::{IdcKind, SystemConfig};
use dimm_link::runner::simulate;
use dl_bench::sweep::Sweep;
use dl_bench::{fmt_x, geo, print_table, run_sweep, save_json, Args};
use dl_noc::TopologyKind;
use dl_workloads::{WorkloadKind, WorkloadParams};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    workload: String,
    ring: f64,
    mesh: f64,
    torus: f64,
}

fn cfg_with(topo: TopologyKind) -> SystemConfig {
    let mut cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLink);
    cfg.topology = topo;
    cfg
}

fn main() {
    let args = Args::parse();
    println!(
        "Figure 17: topology exploration at 16D-8C (scale {})",
        args.scale
    );
    let all_topos = [
        TopologyKind::Chain,
        TopologyKind::Ring,
        TopologyKind::Mesh,
        TopologyKind::Torus,
    ];

    let mut sweep = Sweep::new("fig17_topology");
    for kind in WorkloadKind::P2P_SET {
        let params = WorkloadParams {
            scale: args.scale,
            seed: args.seed,
            ..WorkloadParams::small(16)
        };
        for topo in all_topos {
            sweep.simulate(format!("{kind} / {topo:?}"), kind, params, cfg_with(topo));
        }
    }

    // Supplementary: the diameter effect in isolation. With two DL groups
    // the inter-group host path hides intra-group hop savings; a single
    // 16-DIMM group (chain diameter 15) under a uniform IDC stress exposes
    // exactly the congestion/diameter problem Section VI discusses.
    let stress_base = sweep.len();
    {
        let params = WorkloadParams {
            scale: args.scale,
            seed: args.seed,
            ..WorkloadParams::small(16)
        };
        let messages = if args.quick { 500 } else { 4000 };
        for topo in all_topos {
            let mut cfg = cfg_with(topo);
            cfg.groups = 1;
            sweep.custom(
                format!("uniform-stress / {topo:?}"),
                format!("16D-8C single-group {topo:?}"),
                move || {
                    let stress = dl_workloads::synth::uniform_random(&params, messages, 0.9);
                    simulate(&stress, &cfg)
                },
            );
        }
    }

    let out = run_sweep(sweep, &args);

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut per_topo: Vec<Vec<f64>> = vec![Vec::new(); all_topos.len() - 1];
    for (w, kind) in WorkloadKind::P2P_SET.iter().enumerate() {
        let runs = &out.records[w * all_topos.len()..(w + 1) * all_topos.len()];
        let base = runs[0].elapsed_f64();
        let mut speeds = Vec::new();
        for (i, r) in runs[1..].iter().enumerate() {
            let s = base / r.elapsed_f64();
            per_topo[i].push(s);
            speeds.push(s);
        }
        rows.push(vec![
            kind.to_string(),
            fmt_x(speeds[0]),
            fmt_x(speeds[1]),
            fmt_x(speeds[2]),
        ]);
        json.push(Row {
            workload: kind.to_string(),
            ring: speeds[0],
            mesh: speeds[1],
            torus: speeds[2],
        });
    }
    rows.push(vec![
        "geomean".into(),
        fmt_x(geo(&per_topo[0])),
        fmt_x(geo(&per_topo[1])),
        fmt_x(geo(&per_topo[2])),
    ]);
    print_table(
        "Fig.17 speedup over the chain baseline (paper: Ring 1.11x, Mesh 1.19x, Torus 1.27x)",
        &["workload", "Ring", "Mesh", "Torus"],
        &rows,
    );

    let stress = &out.records[stress_base..stress_base + all_topos.len()];
    let base = stress[0].elapsed_f64();
    let mut srow = vec!["uniform-IDC stress".to_string()];
    for r in &stress[1..] {
        srow.push(fmt_x(base / r.elapsed_f64()));
    }
    print_table(
        "Fig.17 supplement: one 16-DIMM group (diameter 15), uniform IDC stress",
        &["workload", "Ring", "Mesh", "Torus"],
        &[srow],
    );
    save_json("fig17_topology", &json);
}
