//! Ablation — DRAM controller policies.
//!
//! DESIGN.md calls out three controller design choices; this ablation
//! quantifies each at the system level:
//! * FR-FCFS hit-streak cap (1 ~ FCFS, 4 default, 16 hit-first),
//! * row policy (open- vs closed-page),
//! * address mapping (plain vs XOR bank permutation).

use super::Report;
use crate::sweep::{RunRecord, Sweep};
use crate::{fmt_x, Args};
use dimm_link::config::{IdcKind, SystemConfig};
use dl_mem::{MappingScheme, RowPolicy};
use dl_workloads::WorkloadKind;
use serde::Serialize;

pub(super) const NAME: &str = "ablation_sched";

#[derive(Serialize)]
struct Row {
    workload: String,
    cap1_vs_cap4: f64,
    cap16_vs_cap4: f64,
}

const WORKLOADS: [WorkloadKind; 3] = [
    WorkloadKind::Pagerank,
    WorkloadKind::Hotspot,
    WorkloadKind::KMeans,
];

pub(super) fn points(args: &Args) -> Vec<Sweep> {
    // Five variants per workload: three hit-streak caps, closed-page, and
    // XOR bank mapping. The cap=4 run is the stock configuration, so it
    // doubles as the open-page + plain-mapping baseline.
    let mut sweep = Sweep::new(NAME);
    let params = args.params(16);
    for kind in WORKLOADS {
        for cap in [1u32, 4, 16] {
            let mut cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLink);
            cfg.dram.hit_streak_cap = cap;
            sweep.simulate(format!("{kind} / cap={cap}"), kind, params, cfg);
        }
        let base = SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLink);
        let mut closed = base.clone();
        closed.dram.row_policy = RowPolicy::Closed;
        let mut xor = base;
        xor.dram.mapping = MappingScheme::BankXor;
        sweep.simulate(format!("{kind} / closed-page"), kind, params, closed);
        sweep.simulate(format!("{kind} / xor-mapping"), kind, params, xor);
    }
    vec![sweep]
}

pub(super) fn report(args: &Args, records: &[RunRecord]) -> Report {
    let mut report = Report::new(format!(
        "Ablation: FR-FCFS hit-streak cap (16D-8C DIMM-Link, scale {})\n",
        args.scale
    ));
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut rows2 = Vec::new();
    for (kind, runs) in WORKLOADS.iter().zip(records.chunks(5)) {
        let (t1, t4, t16) = (
            runs[0].elapsed_f64(),
            runs[1].elapsed_f64(),
            runs[2].elapsed_f64(),
        );
        rows.push(vec![kind.to_string(), fmt_x(t4 / t1), fmt_x(t4 / t16)]);
        json.push(Row {
            workload: kind.to_string(),
            cap1_vs_cap4: t4 / t1,
            cap16_vs_cap4: t4 / t16,
        });
        rows2.push(vec![
            kind.to_string(),
            fmt_x(t4 / runs[3].elapsed_f64()),
            fmt_x(t4 / runs[4].elapsed_f64()),
        ]);
    }
    report.table(
        "Speedup relative to the default cap of 4 (>1 means the variant is faster)",
        &["workload", "cap=1 (FCFS-ish)", "cap=16 (hit-first)"],
        &rows,
    );
    report.table(
        "Row policy / mapping vs the open-page + plain default",
        &["workload", "closed-page", "XOR bank mapping"],
        &rows2,
    );
    report.save(NAME, &json)
}
