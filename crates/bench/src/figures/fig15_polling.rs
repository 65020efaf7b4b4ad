//! Figure 15 — polling strategies at 16D-8C.
//!
//! Compares Table III's four mechanisms on end-to-end performance (a) and
//! memory-bus occupation (b). Paper: base polling occupies ~32 % of the
//! bus; proxy+interrupt just 0.2 %; the polling proxy gives the best
//! end-to-end performance (interrupt latency hurts the interrupt variants).

use super::Report;
use crate::sweep::{RunRecord, Sweep};
use crate::{fmt_pct, fmt_x, geo, Args};
use dimm_link::config::{IdcKind, PollingStrategy, SystemConfig};
use dl_workloads::WorkloadKind;
use serde::Serialize;

pub(super) const NAME: &str = "fig15_polling";

#[derive(Serialize)]
struct Row {
    strategy: String,
    geomean_speedup_vs_base: f64,
    mean_bus_occupancy: f64,
}

const STRATEGIES: [PollingStrategy; 4] = [
    PollingStrategy::Base,
    PollingStrategy::BaseInterrupt,
    PollingStrategy::Proxy,
    PollingStrategy::ProxyInterrupt,
];

pub(super) fn points(args: &Args) -> Vec<Sweep> {
    let mut sweep = Sweep::new(NAME);
    let params = args.params(16);
    for kind in WorkloadKind::P2P_SET {
        for strat in STRATEGIES {
            let mut cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLink);
            cfg.polling = strat;
            sweep.simulate(format!("{kind} / {strat}"), kind, params, cfg);
        }
    }
    vec![sweep]
}

pub(super) fn report(args: &Args, records: &[RunRecord]) -> Report {
    let mut report = Report::scaled("Figure 15: polling strategies at 16D-8C", args);
    // Per-strategy speedups vs Base, per workload, plus occupancy.
    let mut per_strategy: Vec<Vec<f64>> = vec![Vec::new(); STRATEGIES.len()];
    let mut occupancy: Vec<Vec<f64>> = vec![Vec::new(); STRATEGIES.len()];
    for runs in records.chunks(STRATEGIES.len()) {
        for (i, r) in runs.iter().enumerate() {
            per_strategy[i].push(runs[0].elapsed_f64() / r.elapsed_f64());
            occupancy[i].push(r.bus_occupancy());
        }
    }

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (i, &strat) in STRATEGIES.iter().enumerate() {
        let sp = geo(&per_strategy[i]);
        let occ = occupancy[i].iter().sum::<f64>() / occupancy[i].len() as f64;
        rows.push(vec![strat.to_string(), fmt_x(sp), fmt_pct(occ)]);
        out.push(Row {
            strategy: strat.to_string(),
            geomean_speedup_vs_base: sp,
            mean_bus_occupancy: occ,
        });
    }
    report.table(
        "Fig.15 polling strategies (paper: Base occupies ~32%, P-P+Itrpt ~0.2%; P-P fastest end-to-end)",
        &["strategy", "speedup vs Base", "bus occupation"],
        &rows,
    );
    report.save(NAME, &out)
}
