//! Ablation — profiling-fraction sensitivity of Algorithm 1.
//!
//! The paper profiles the first 1 % of memory accesses (following TOM).
//! This ablation sweeps the fraction: too little profiling mis-places
//! threads; too much wastes time in the profiling phase (which is charged
//! to the end-to-end result).

use super::Report;
use crate::sweep::{RunRecord, Sweep};
use crate::{fmt_pct, fmt_x, Args};
use dimm_link::config::{IdcKind, SystemConfig};
use dl_workloads::WorkloadKind;
use serde::Serialize;

pub(super) const NAME: &str = "ablation_profile";

#[derive(Serialize)]
struct Row {
    fraction: f64,
    speedup_vs_base: f64,
    profiling_share: f64,
}

const FRACTIONS: [f64; 5] = [0.001, 0.005, 0.01, 0.05, 0.10];

pub(super) fn points(args: &Args) -> Vec<Sweep> {
    let params = args.params(16);
    let base_cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLink);
    let mut sweep = Sweep::new(NAME);
    sweep.simulate(
        "pr / DL-base",
        WorkloadKind::Pagerank,
        params,
        base_cfg.clone(),
    );
    for frac in FRACTIONS {
        let mut cfg = base_cfg.clone();
        cfg.profile_fraction = frac;
        sweep.simulate_optimized(
            format!("pr / DL-opt frac={frac}"),
            WorkloadKind::Pagerank,
            params,
            cfg,
        );
    }
    vec![sweep]
}

pub(super) fn report(args: &Args, records: &[RunRecord]) -> Report {
    let mut report = Report::new(format!(
        "Ablation: Algorithm 1 profiling fraction (PR, 16D-8C, scale {})\n",
        args.scale
    ));
    let base = records[0].elapsed_f64();
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (&frac, r) in FRACTIONS.iter().zip(&records[1..]) {
        let share = r.profiling_ps as f64 / r.elapsed_f64();
        let speedup = base / r.elapsed_f64();
        rows.push(vec![fmt_pct(frac), fmt_x(speedup), fmt_pct(share)]);
        json.push(Row {
            fraction: frac,
            speedup_vs_base: speedup,
            profiling_share: share,
        });
    }
    report.table(
        "DL-opt vs DL-base (natural placement) as the profiled fraction grows",
        &[
            "profiled fraction",
            "speedup vs DL-base",
            "time in profiling",
        ],
        &rows,
    );
    report.text.push_str(
        "\nNote: the natural placement used by DL-base is already data-affine in \
         this reproduction, so Algorithm 1's value here is recovering that \
         placement from a random start at small profiling cost (the paper's \
         baseline mapping is less affine, giving it the extra 1.12x headroom).\n",
    );
    report.save(NAME, &json)
}
