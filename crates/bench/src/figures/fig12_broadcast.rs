//! Figure 12 — broadcast performance.
//!
//! PR, SSSP and SpMV in their explicit-broadcast formulations on MCN-BC,
//! ABC-DIMM (2 and 3 DIMMs per channel), AIM-BC, and DIMM-Link. Paper:
//! DIMM-Link is 2.58x faster than MCN-BC and 1.77x faster than ABC-DIMM;
//! AIM-BC (an idealized single-transaction bus broadcast) outperforms
//! DIMM-Link.

use super::Report;
use crate::sweep::{RunRecord, Sweep};
use crate::{fmt_x, geo, Args};
use dimm_link::config::{IdcKind, SystemConfig};
use dl_workloads::{WorkloadKind, WorkloadParams};
use serde::Serialize;

pub(super) const NAME: &str = "fig12_broadcast";

#[derive(Serialize)]
struct Cell {
    workload: String,
    system: String,
    speedup_vs_mcn_bc: f64,
}

/// The 2-DPC systems at 16 DIMMs; MCN-BC, the first, is the baseline.
const SYSTEMS_2DPC: [(&str, IdcKind); 4] = [
    ("MCN-BC", IdcKind::CpuForwarding),
    ("ABC-2DPC", IdcKind::AbcDimm),
    ("AIM-BC", IdcKind::DedicatedBus),
    ("DIMM-Link", IdcKind::DimmLink),
];

const SYSTEMS_3DPC: [(&str, IdcKind); 3] = [
    ("MCN-BC", IdcKind::CpuForwarding),
    ("ABC-3DPC", IdcKind::AbcDimm),
    ("DIMM-Link", IdcKind::DimmLink),
];

pub(super) fn points(args: &Args) -> Vec<Sweep> {
    // 16 DIMMs (2 DPC) plus the 3-DPC slice: 12 DIMMs over 4 channels gives
    // ABC-DIMM longer reach.
    let slices = [
        ("2DPC", 16, 8, &SYSTEMS_2DPC[..]),
        ("3DPC", 12, 4, &SYSTEMS_3DPC[..]),
    ];
    let mut sweep = Sweep::new(NAME);
    for (slice, dimms, channels, systems) in slices {
        let params = WorkloadParams {
            broadcast: true,
            ..args.params(dimms)
        };
        for kind in WorkloadKind::BROADCAST_SET {
            for &(name, idc) in systems {
                sweep.simulate(
                    format!("{slice} / {kind}-BC / {name}"),
                    kind,
                    params,
                    SystemConfig::nmp(dimms, channels).with_idc(idc),
                );
            }
        }
    }
    vec![sweep]
}

pub(super) fn report(args: &Args, records: &[RunRecord]) -> Report {
    let mut report = Report::scaled("Figure 12: broadcast performance", args);
    // One run per system and workload, 2-DPC then 3-DPC.
    let (runs2, runs3) = records.split_at(WorkloadKind::BROADCAST_SET.len() * SYSTEMS_2DPC.len());
    let mut cells = Vec::new();
    let mut rows = Vec::new();
    let mut per_sys: Vec<Vec<f64>> = vec![Vec::new(); SYSTEMS_2DPC.len() - 1];
    for (kind, runs) in WorkloadKind::BROADCAST_SET
        .iter()
        .zip(runs2.chunks(SYSTEMS_2DPC.len()))
    {
        let base = runs[0].elapsed_f64();
        let mut row = vec![format!("{kind}-BC"), fmt_x(1.0)];
        for (i, r) in runs[1..].iter().enumerate() {
            let s = base / r.elapsed_f64();
            per_sys[i].push(s);
            row.push(fmt_x(s));
            cells.push(Cell {
                workload: kind.to_string(),
                system: SYSTEMS_2DPC[i + 1].0.to_string(),
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
    report.table(
        "Fig.12 speedup over MCN-BC at 16 DIMMs (paper: DL 2.58x vs MCN-BC, 1.77x vs ABC; AIM-BC idealized best)",
        &["workload", "MCN-BC", "ABC-DIMM", "AIM-BC", "DIMM-Link"],
        &rows,
    );

    let mut rows3 = Vec::new();
    for (kind, runs) in WorkloadKind::BROADCAST_SET
        .iter()
        .zip(runs3.chunks(SYSTEMS_3DPC.len()))
    {
        let base = runs[0].elapsed_f64();
        rows3.push(vec![
            format!("{kind}-BC"),
            fmt_x(base / runs[1].elapsed_f64()),
            fmt_x(base / runs[2].elapsed_f64()),
        ]);
    }
    report.table(
        "Fig.12 3-DPC slice (12D-4C): ABC-DIMM reach grows, DIMM-Link still leads",
        &["workload", "ABC-3DPC", "DIMM-Link"],
        &rows3,
    );
    report.save(NAME, &cells)
}
