//! Figure 15 — polling strategies at 16D-8C.
//!
//! Compares Table III's four mechanisms on end-to-end performance (a) and
//! memory-bus occupation (b). Paper: base polling occupies ~32 % of the
//! bus; proxy+interrupt just 0.2 %; the polling proxy gives the best
//! end-to-end performance (interrupt latency hurts the interrupt variants).

use dimm_link::config::{IdcKind, PollingStrategy, SystemConfig};
use dl_bench::sweep::Sweep;
use dl_bench::{fmt_pct, fmt_x, geo, print_table, run_sweep, save_json, Args};
use dl_workloads::{WorkloadKind, WorkloadParams};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    strategy: String,
    geomean_speedup_vs_base: f64,
    mean_bus_occupancy: f64,
}

fn main() {
    let args = Args::parse();
    println!(
        "Figure 15: polling strategies at 16D-8C (scale {})",
        args.scale
    );

    let strategies = [
        PollingStrategy::Base,
        PollingStrategy::BaseInterrupt,
        PollingStrategy::Proxy,
        PollingStrategy::ProxyInterrupt,
    ];

    let mut sweep = Sweep::new("fig15_polling");
    for kind in WorkloadKind::P2P_SET {
        let params = WorkloadParams {
            scale: args.scale,
            seed: args.seed,
            ..WorkloadParams::small(16)
        };
        for &strat in &strategies {
            let mut cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLink);
            cfg.polling = strat;
            sweep.simulate(format!("{kind} / {strat}"), kind, params, cfg);
        }
    }
    let result = run_sweep(sweep, &args);

    // Per-strategy speedups vs Base, per workload, plus occupancy.
    let mut per_strategy: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    let mut occupancy: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    for w in 0..WorkloadKind::P2P_SET.len() {
        let runs = &result.records[w * strategies.len()..(w + 1) * strategies.len()];
        for (i, r) in runs.iter().enumerate() {
            per_strategy[i].push(runs[0].elapsed_f64() / r.elapsed_f64());
            occupancy[i].push(r.bus_occupancy());
        }
    }

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (i, &strat) in strategies.iter().enumerate() {
        let sp = geo(&per_strategy[i]);
        let occ = occupancy[i].iter().sum::<f64>() / occupancy[i].len() as f64;
        rows.push(vec![strat.to_string(), fmt_x(sp), fmt_pct(occ)]);
        out.push(Row {
            strategy: strat.to_string(),
            geomean_speedup_vs_base: sp,
            mean_bus_occupancy: occ,
        });
    }
    print_table(
        "Fig.15 polling strategies (paper: Base occupies ~32%, P-P+Itrpt ~0.2%; P-P fastest end-to-end)",
        &["strategy", "speedup vs Base", "bus occupation"],
        &rows,
    );
    save_json("fig15_polling", &out);
}
