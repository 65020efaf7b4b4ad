//! Figure 12 — broadcast performance.
//!
//! PR, SSSP and SpMV in their explicit-broadcast formulations on MCN-BC,
//! ABC-DIMM (2 and 3 DIMMs per channel), AIM-BC, and DIMM-Link. Paper:
//! DIMM-Link is 2.58x faster than MCN-BC and 1.77x faster than ABC-DIMM;
//! AIM-BC (an idealized single-transaction bus broadcast) outperforms
//! DIMM-Link.

use dimm_link::config::{IdcKind, SystemConfig};
use dl_bench::sweep::Sweep;
use dl_bench::{fmt_x, geo, print_table, run_sweep, save_results, Args};
use dl_workloads::{WorkloadKind, WorkloadParams};
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    workload: String,
    system: String,
    speedup_vs_mcn_bc: f64,
}

const SYSTEMS_2DPC: [(&str, IdcKind); 3] = [
    ("ABC-2DPC", IdcKind::AbcDimm),
    ("AIM-BC", IdcKind::DedicatedBus),
    ("DIMM-Link", IdcKind::DimmLink),
];

fn main() {
    let args = Args::parse();
    println!("Figure 12: broadcast performance (scale {})", args.scale);

    // 16 DIMMs (2 DPC) plus the 3-DPC slice: 12 DIMMs over 4 channels gives
    // ABC-DIMM longer reach.
    let sys16_8 = SystemConfig::nmp(16, 8);
    let sys12_4 = SystemConfig::nmp(12, 4);

    let mut sweep = Sweep::new("fig12_broadcast");
    // (workload, MCN index, [ABC, AIM, DL] indices)
    let mut groups = Vec::new();
    let params = WorkloadParams {
        broadcast: true,
        ..args.params(16)
    };
    for kind in WorkloadKind::BROADCAST_SET {
        let mcn = sweep.simulate(
            format!("2DPC / {kind}-BC / MCN-BC"),
            kind,
            params,
            sys16_8.clone().with_idc(IdcKind::CpuForwarding),
        );
        let idx: Vec<usize> = SYSTEMS_2DPC
            .iter()
            .map(|&(name, idc)| {
                sweep.simulate(
                    format!("2DPC / {kind}-BC / {name}"),
                    kind,
                    params,
                    sys16_8.clone().with_idc(idc),
                )
            })
            .collect();
        groups.push((kind, mcn, idx));
    }
    let mut groups3 = Vec::new();
    let params = WorkloadParams {
        broadcast: true,
        ..args.params(12)
    };
    for kind in WorkloadKind::BROADCAST_SET {
        let idx: Vec<usize> = [
            ("MCN-BC", IdcKind::CpuForwarding),
            ("ABC-3DPC", IdcKind::AbcDimm),
            ("DIMM-Link", IdcKind::DimmLink),
        ]
        .iter()
        .map(|&(name, idc)| {
            sweep.simulate(
                format!("3DPC / {kind}-BC / {name}"),
                kind,
                params,
                sys12_4.clone().with_idc(idc),
            )
        })
        .collect();
        groups3.push((kind, idx));
    }

    let out = run_sweep(sweep, &args);

    let mut cells = Vec::new();
    let mut rows = Vec::new();
    let mut per_sys: Vec<Vec<f64>> = vec![Vec::new(); SYSTEMS_2DPC.len()];
    for (kind, mcn, idx) in &groups {
        let base = out.records[*mcn].elapsed_f64();
        let mut row = vec![format!("{kind}-BC"), fmt_x(1.0)];
        for (i, &ri) in idx.iter().enumerate() {
            let s = base / out.records[ri].elapsed_f64();
            per_sys[i].push(s);
            row.push(fmt_x(s));
            cells.push(Cell {
                workload: kind.to_string(),
                system: SYSTEMS_2DPC[i].0.to_string(),
                speedup_vs_mcn_bc: s,
            });
        }
        rows.push(row);
    }
    let mut geo_row = vec!["geomean".to_string(), fmt_x(1.0)];
    for v in &per_sys {
        geo_row.push(fmt_x(geo(v)));
    }
    rows.push(geo_row);
    print_table(
        "Fig.12 speedup over MCN-BC at 16 DIMMs (paper: DL 2.58x vs MCN-BC, 1.77x vs ABC; AIM-BC idealized best)",
        &["workload", "MCN-BC", "ABC-DIMM", "AIM-BC", "DIMM-Link"],
        &rows,
    );

    let mut rows3 = Vec::new();
    for (kind, idx) in &groups3 {
        let base = out.records[idx[0]].elapsed_f64();
        rows3.push(vec![
            format!("{kind}-BC"),
            fmt_x(base / out.records[idx[1]].elapsed_f64()),
            fmt_x(base / out.records[idx[2]].elapsed_f64()),
        ]);
    }
    print_table(
        "Fig.12 3-DPC slice (12D-4C): ABC-DIMM reach grows, DIMM-Link still leads",
        &["workload", "ABC-3DPC", "DIMM-Link"],
        &rows3,
    );
    save_results("fig12_broadcast", &cells);
}
