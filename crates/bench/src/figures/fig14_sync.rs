//! Figure 14 — synchronization sensitivity.
//!
//! (a) Synthetic sweep over the synchronization interval: speedup of
//!     DIMM-Link-Hier over MCN, AIM and DIMM-Link-Central as barriers get
//!     denser. Paper: at a 500-instruction interval, Hier beats MCN by 5.3x
//!     and AIM by 2.2x.
//! (b) End-to-end TS.Pow (SynCron's task). Paper: 1.46-1.74x over MCN.

use super::Report;
use crate::sweep::{RunRecord, Sweep};
use crate::{fmt_x, Args};
use dimm_link::config::{IdcKind, SyncScheme, SystemConfig};
use dimm_link::runner::simulate;
use dl_workloads::{synth, WorkloadKind, WorkloadParams};
use serde::Serialize;

pub(super) const NAME: &str = "fig14_sync";

#[derive(Serialize)]
struct Point {
    interval_cycles: u32,
    mcn_over_hier: f64,
    aim_over_hier: f64,
    central_over_hier: f64,
}

/// Barrier intervals of the synthetic sweep, in instructions.
const INTERVALS: [u32; 5] = [500, 1000, 2000, 5000, 10000];

pub(super) fn points(args: &Args) -> Vec<Sweep> {
    // The compared systems, in the order each group of runs holds them.
    let base = SystemConfig::nmp(16, 8);
    let hier = base.clone().with_idc(IdcKind::DimmLink);
    let mut central = hier.clone();
    central.sync = SyncScheme::Central;
    let mcn = base.clone().with_idc(IdcKind::CpuForwarding);
    let aim = base.clone().with_idc(IdcKind::DedicatedBus);
    let systems = [
        ("DL-Hier", hier),
        ("DL-Central", central),
        ("MCN", mcn),
        ("AIM", aim),
    ];
    let mut sweep = Sweep::new(NAME);

    // (a) Interval sweep: the synthetic workload comes from `synth`, not
    // from a WorkloadKind, so these are custom points.
    let rounds: usize = if args.quick { 40 } else { 200 };
    let params = args.params(16);
    for interval in INTERVALS {
        for (name, cfg) in &systems {
            sweep.custom(
                format!("interval {interval} / {name}"),
                format!("16D-8C {} sync-sweep", cfg.idc),
                ((params, cfg.clone()), (interval, rounds)),
                |((params, cfg), (interval, rounds))| {
                    simulate(&synth::sync_sweep(params, *interval, *rounds), cfg)
                },
            );
        }
    }

    // (b) TS.Pow end-to-end. The lock-update frequency (and thus the
    // synchronization pressure SynCron targets) falls off with series
    // length, so this experiment caps the scale at the sync-rich regime.
    let ts_params = WorkloadParams {
        scale: args.scale.min(11),
        ..args.params(16)
    };
    for (name, cfg) in systems {
        sweep.simulate(
            format!("ts.pow / {name}"),
            WorkloadKind::TsPow,
            ts_params,
            cfg,
        );
    }
    vec![sweep]
}

pub(super) fn report(_: &Args, records: &[RunRecord]) -> Report {
    let mut report = Report::new("Figure 14: synchronization sensitivity\n");
    // One run per system, in `points`' order: one group per interval,
    // then TS.Pow.
    let groups: Vec<[f64; 4]> = records
        .chunks(4)
        .map(|runs| [0, 1, 2, 3].map(|i| runs[i].elapsed_f64()))
        .collect();

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (&interval, &[t_hier, t_central, t_mcn, t_aim]) in INTERVALS.iter().zip(&groups) {
        rows.push(vec![
            interval.to_string(),
            fmt_x(t_mcn / t_hier),
            fmt_x(t_aim / t_hier),
            fmt_x(t_central / t_hier),
        ]);
        points.push(Point {
            interval_cycles: interval,
            mcn_over_hier: t_mcn / t_hier,
            aim_over_hier: t_aim / t_hier,
            central_over_hier: t_central / t_hier,
        });
    }
    report.table(
        "Fig.14(a) DIMM-Link-Hier speedup vs sync interval (paper @500: 5.3x over MCN, 2.2x over AIM)",
        &["interval (instr)", "vs MCN", "vs AIM", "vs DL-Central"],
        &rows,
    );

    let [t_hier, t_central, t_mcn, t_aim] = groups[INTERVALS.len()];
    report.table(
        "Fig.14(b) TS.Pow end-to-end (paper: DL-Hier 1.46-1.74x over MCN)",
        &["system", "speedup of DL-Hier"],
        &[
            vec!["vs MCN".into(), fmt_x(t_mcn / t_hier)],
            vec!["vs AIM".into(), fmt_x(t_aim / t_hier)],
            vec!["vs DL-Central".into(), fmt_x(t_central / t_hier)],
        ],
    );
    report.save(NAME, &points)
}
