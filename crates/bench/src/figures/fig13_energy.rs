//! Figure 13 — energy consumption of the IDC methods at 16D-8C.
//!
//! Paper: DIMM-Link consumes 1.76x less energy than MCN on average (mostly
//! from reduced IDC energy) and 1.07x less than AIM (whose bus is cheap per
//! bit but whose runs are longer).

use super::Report;
use crate::sweep::{RunRecord, Sweep};
use crate::{fmt_x, geo, Args};
use dimm_link::config::{IdcKind, SystemConfig};
use dl_workloads::WorkloadKind;
use serde::Serialize;

pub(super) const NAME: &str = "fig13_energy";

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

pub(super) fn points(args: &Args) -> Vec<Sweep> {
    let base = SystemConfig::nmp(16, 8);
    let mut sweep = Sweep::new(NAME);
    let params = args.params(16);
    for kind in WorkloadKind::P2P_SET {
        for (name, idc) in SYSTEMS {
            sweep.simulate(
                format!("{kind} / {name}"),
                kind,
                params,
                base.clone().with_idc(idc),
            );
        }
    }
    vec![sweep]
}

pub(super) fn report(args: &Args, records: &[RunRecord]) -> Report {
    let mut report = Report::scaled("Figure 13: energy at 16D-8C", args);
    let mut rows = Vec::new();
    let mut out = Vec::new();
    let mut ratios_mcn = Vec::new();
    let mut ratios_aim = Vec::new();
    for (kind, runs) in WorkloadKind::P2P_SET
        .iter()
        .zip(records.chunks(SYSTEMS.len()))
    {
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
    report.table(
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
    report.table(
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
    report.save(NAME, &out)
}
