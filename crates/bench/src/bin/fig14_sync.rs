//! Figure 14 — synchronization sensitivity.
//!
//! (a) Synthetic sweep over the synchronization interval: speedup of
//!     DIMM-Link-Hier over MCN, AIM and DIMM-Link-Central as barriers get
//!     denser. Paper: at a 500-instruction interval, Hier beats MCN by 5.3x
//!     and AIM by 2.2x.
//! (b) End-to-end TS.Pow (SynCron's task). Paper: 1.46-1.74x over MCN.

use dimm_link::config::{IdcKind, SyncScheme, SystemConfig};
use dimm_link::runner::simulate;
use dl_bench::sweep::Sweep;
use dl_bench::{fmt_x, print_table, run_sweep, save_json, Args};
use dl_workloads::{synth, WorkloadKind, WorkloadParams};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    interval_cycles: u32,
    mcn_over_hier: f64,
    aim_over_hier: f64,
    central_over_hier: f64,
}

fn main() {
    let args = Args::parse();
    println!("Figure 14: synchronization sensitivity");

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

    let mut sweep = Sweep::new("fig14_sync");

    // (a) Interval sweep: the synthetic workload comes from `synth`, not
    // from a WorkloadKind, so these are custom points.
    let intervals = [500u32, 1000, 2000, 5000, 10000];
    let rounds = if args.quick { 40 } else { 200 };
    for &interval in &intervals {
        let params = WorkloadParams {
            scale: args.scale,
            seed: args.seed,
            ..WorkloadParams::small(16)
        };
        for (name, cfg) in &systems {
            let cfg = cfg.clone();
            sweep.custom(
                format!("interval {interval} / {name}"),
                format!("16D-8C {} sync-sweep", cfg.idc),
                move || {
                    let wl = synth::sync_sweep(&params, interval, rounds);
                    simulate(&wl, &cfg)
                },
            );
        }
    }

    // (b) TS.Pow end-to-end. The lock-update frequency (and thus the
    // synchronization pressure SynCron targets) falls off with series
    // length, so this experiment caps the scale at the sync-rich regime.
    let ts_params = WorkloadParams {
        scale: args.scale.min(11),
        seed: args.seed,
        ..WorkloadParams::small(16)
    };
    let ts_base = sweep.len();
    for (name, cfg) in &systems {
        sweep.simulate(
            format!("ts.pow / {name}"),
            WorkloadKind::TsPow,
            ts_params,
            cfg.clone(),
        );
    }

    let out = run_sweep(sweep, &args);
    let elapsed = |i: usize| out.records[i].elapsed_f64();

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (n, &interval) in intervals.iter().enumerate() {
        let i = n * systems.len();
        let (t_hier, t_central, t_mcn, t_aim) =
            (elapsed(i), elapsed(i + 1), elapsed(i + 2), elapsed(i + 3));
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
    print_table(
        "Fig.14(a) DIMM-Link-Hier speedup vs sync interval (paper @500: 5.3x over MCN, 2.2x over AIM)",
        &["interval (instr)", "vs MCN", "vs AIM", "vs DL-Central"],
        &rows,
    );

    let t_hier = elapsed(ts_base);
    print_table(
        "Fig.14(b) TS.Pow end-to-end (paper: DL-Hier 1.46-1.74x over MCN)",
        &["system", "speedup of DL-Hier"],
        &[
            vec!["vs MCN".into(), fmt_x(elapsed(ts_base + 2) / t_hier)],
            vec!["vs AIM".into(), fmt_x(elapsed(ts_base + 3) / t_hier)],
            vec!["vs DL-Central".into(), fmt_x(elapsed(ts_base + 1) / t_hier)],
        ],
    );
    save_json("fig14_sync", &points);
}
