//! Figure 13 — energy consumption of the IDC methods at 16D-8C.
//!
//! Paper: DIMM-Link consumes 1.76x less energy than MCN on average (mostly
//! from reduced IDC energy) and 1.07x less than AIM (whose bus is cheap per
//! bit but whose runs are longer).

use dimm_link::config::{IdcKind, SystemConfig};
use dl_bench::sweep::Sweep;
use dl_bench::{fmt_x, geo, print_table, run_sweep, save_json, Args};
use dl_workloads::{WorkloadKind, WorkloadParams};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    workload: String,
    system: String,
    dram_mj: f64,
    bus_mj: f64,
    idc_mj: f64,
    cores_mj: f64,
    host_mj: f64,
    total_mj: f64,
}

fn mj(j: f64) -> f64 {
    j * 1e3
}

const SYSTEMS: [(&str, IdcKind); 3] = [
    ("MCN", IdcKind::CpuForwarding),
    ("AIM", IdcKind::DedicatedBus),
    ("DIMM-Link", IdcKind::DimmLink),
];

fn main() {
    let args = Args::parse();
    println!("Figure 13: energy at 16D-8C (scale {})", args.scale);
    let base = SystemConfig::nmp(16, 8);

    let mut sweep = Sweep::new("fig13_energy");
    for kind in WorkloadKind::P2P_SET {
        let params = WorkloadParams {
            scale: args.scale,
            seed: args.seed,
            ..WorkloadParams::small(16)
        };
        for (name, idc) in SYSTEMS {
            sweep.simulate(
                format!("{kind} / {name}"),
                kind,
                params,
                base.clone().with_idc(idc),
            );
        }
    }
    let result = run_sweep(sweep, &args);

    let mut rows = Vec::new();
    let mut out = Vec::new();
    let mut ratios_mcn = Vec::new();
    let mut ratios_aim = Vec::new();
    for (w, kind) in WorkloadKind::P2P_SET.iter().enumerate() {
        let runs = &result.records[w * SYSTEMS.len()..(w + 1) * SYSTEMS.len()];
        let totals: Vec<f64> = runs.iter().map(|r| r.energy.total()).collect();
        ratios_mcn.push(totals[0] / totals[2]);
        ratios_aim.push(totals[1] / totals[2]);
        for ((name, _), r) in SYSTEMS.iter().zip(runs) {
            let e = r.energy;
            rows.push(vec![
                kind.to_string(),
                name.to_string(),
                format!("{:.3}", mj(e.dram_j)),
                format!("{:.3}", mj(e.bus_j)),
                format!("{:.3}", mj(e.idc_j)),
                format!("{:.3}", mj(e.nmp_cores_j)),
                format!("{:.3}", mj(e.host_j)),
                format!("{:.3}", mj(e.total())),
            ]);
            out.push(Row {
                workload: kind.to_string(),
                system: name.to_string(),
                dram_mj: mj(e.dram_j),
                bus_mj: mj(e.bus_j),
                idc_mj: mj(e.idc_j),
                cores_mj: mj(e.nmp_cores_j),
                host_mj: mj(e.host_j),
                total_mj: mj(e.total()),
            });
        }
    }
    print_table(
        "Fig.13 energy breakdown (mJ)",
        &[
            "workload",
            "system",
            "DRAM",
            "mem-bus",
            "IDC",
            "NMP cores",
            "host",
            "total",
        ],
        &rows,
    );
    print_table(
        "Fig.13 energy ratios (paper: MCN/DL 1.76x, AIM/DL 1.07x)",
        &["metric", "measured", "paper"],
        &[
            vec![
                "MCN / DIMM-Link".into(),
                fmt_x(geo(&ratios_mcn)),
                "1.76x".into(),
            ],
            vec![
                "AIM / DIMM-Link".into(),
                fmt_x(geo(&ratios_aim)),
                "1.07x".into(),
            ],
        ],
    );
    save_json("fig13_energy", &out);
}
