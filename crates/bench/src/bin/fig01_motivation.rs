//! Figure 1 — IDC performance exploration on a UPMEM-like platform.
//!
//! (a) Point-to-point IDC bandwidth through CPU forwarding as a function of
//!     transfer size: saturates at a few GB/s (the paper measures 3.14 GB/s
//!     on real UPMEM hardware).
//! (b) Aggregate NMP bandwidth vs. achievable P2P IDC bandwidth at 16 DIMMs:
//!     the paper reports a ~51x gap.

use dimm_link::config::{IdcKind, SystemConfig};
use dimm_link::runner::RunResult;
use dimm_link::system::{natural_placement, NmpSystem};
use dimm_link::EnergyBreakdown;
use dl_bench::sweep::Sweep;
use dl_bench::{gbps, print_table, run_sweep, save_json, Args};
use dl_engine::Ps;
use dl_workloads::{synth, WorkloadParams};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    transfer_bytes: u64,
    idc_gbps: f64,
}

fn raw_run(wl: &dl_workloads::Workload, cfg: &SystemConfig) -> RunResult {
    let placement = natural_placement(wl);
    let run = NmpSystem::new(wl, cfg, &placement, None).run();
    RunResult {
        elapsed: run.elapsed,
        profiling: Ps::ZERO,
        stats: run.stats,
        energy: EnergyBreakdown::default(),
        status: run.status,
    }
}

fn main() {
    let args = Args::parse();
    println!("Figure 1: CPU-forwarding IDC exploration (UPMEM-like system)");

    let sizes: &[u64] = if args.quick {
        &[4 * 1024, 64 * 1024, 1024 * 1024]
    } else {
        &[
            1024,
            4 * 1024,
            16 * 1024,
            64 * 1024,
            256 * 1024,
            1024 * 1024,
            4 * 1024 * 1024,
        ]
    };

    // (a) P2P bandwidth vs transfer size through host forwarding; these are
    // raw NmpSystem runs, so they go in as custom points.
    let mut sweep = Sweep::new("fig01_motivation");
    for &bytes in sizes {
        sweep.custom(
            format!("bulk-copy {} KiB", bytes / 1024),
            "16D-8C MCN bulk-copy",
            move || {
                let params = WorkloadParams {
                    threads_per_dimm: 1,
                    ..WorkloadParams::small(16)
                };
                let wl = synth::bulk_copy(&params, bytes / 8); // 8 concurrent pairs
                let cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::CpuForwarding);
                raw_run(&wl, &cfg)
            },
        );
    }

    // (b) Aggregate NMP bandwidth vs IDC bandwidth at 16 DIMMs.
    let messages = if args.quick { 2_000 } else { 20_000 };
    let local_idx = sweep.custom("uniform local traffic", "16D-8C MCN all-local", move || {
        let params = WorkloadParams {
            threads_per_dimm: 4,
            ..WorkloadParams::small(16)
        };
        let local = synth::uniform_random(&params, messages, 0.0);
        let cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::CpuForwarding);
        raw_run(&local, &cfg)
    });

    let out = run_sweep(sweep, &args);

    let mut points = Vec::new();
    let mut rows = Vec::new();
    for (i, &bytes) in sizes.iter().enumerate() {
        // Each of the 8 pairs copies bytes/8: total payload moved = bytes.
        let bw = gbps(bytes, out.records[i].elapsed());
        rows.push(vec![
            format!("{} KiB", bytes / 1024),
            format!("{bw:.2} GB/s"),
        ]);
        points.push(Point {
            transfer_bytes: bytes,
            idc_gbps: bw,
        });
    }
    print_table(
        "Fig.1(a) P2P IDC bandwidth vs transfer size (paper: saturates ~3.14 GB/s)",
        &["total transfer", "IDC bandwidth"],
        &rows,
    );

    let local = &out.records[local_idx];
    let local_bytes = local.stats.get("traffic.local_bytes").unwrap_or(0.0) as u64;
    let nmp_bw = gbps(local_bytes, local.elapsed());
    let idc_bw = points.last().map(|p| p.idc_gbps).unwrap_or(1.0);
    print_table(
        "Fig.1(b) bandwidth gap at 16 DIMMs (paper: 1.28 TB/s NMP vs ~25 GB/s IDC, 51x)",
        &["metric", "value"],
        &[
            vec![
                "aggregate NMP bandwidth".into(),
                format!("{nmp_bw:.1} GB/s"),
            ],
            vec!["bulk P2P IDC bandwidth".into(), format!("{idc_bw:.2} GB/s")],
            vec!["gap".into(), format!("{:.0}x", nmp_bw / idc_bw.max(1e-9))],
        ],
    );
    save_json("fig01_motivation", &points);
}
