//! Figure 1 — IDC performance exploration on a UPMEM-like platform.
//!
//! (a) Point-to-point IDC bandwidth through CPU forwarding as a function of
//!     transfer size: saturates at a few GB/s (the paper measures 3.14 GB/s
//!     on real UPMEM hardware).
//! (b) Aggregate NMP bandwidth vs. achievable P2P IDC bandwidth at 16 DIMMs:
//!     the paper reports a ~51x gap.

use super::Report;
use crate::sweep::{RunRecord, Sweep};
use crate::{gbps, Args};
use dimm_link::config::{IdcKind, SystemConfig};
use dimm_link::runner::RunResult;
use dimm_link::system::{natural_placement, NmpSystem};
use dl_workloads::{synth, Workload, WorkloadParams};
use serde::Serialize;

pub(super) const NAME: &str = "fig01_motivation";

#[derive(Serialize)]
struct Point {
    transfer_bytes: u64,
    idc_gbps: f64,
}

/// Runs `wl` on the 16D-8C MCN system in its natural placement.
fn raw_run(wl: &Workload) -> RunResult {
    let cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::CpuForwarding);
    let run = NmpSystem::new(wl, &cfg, &natural_placement(wl), None).run();
    RunResult {
        status: run.status,
        ..RunResult::measured(run.elapsed, run.stats)
    }
}

/// The total bytes of each bulk copy.
fn sizes(args: &Args) -> &'static [u64] {
    if args.quick {
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
    }
}

pub(super) fn points(args: &Args) -> Vec<Sweep> {
    // (a) P2P bandwidth vs transfer size through host forwarding; these are
    // raw NmpSystem runs, so they go in as custom points.
    let mut sweep = Sweep::new(NAME);
    let pairs = WorkloadParams {
        threads_per_dimm: 1,
        ..args.params(16)
    };
    for &bytes in sizes(args) {
        sweep.custom(
            format!("bulk-copy {} KiB", bytes / 1024),
            "16D-8C MCN bulk-copy",
            (pairs, bytes),
            // 8 concurrent pairs, each copying a share of the bytes.
            |(params, bytes)| raw_run(&synth::bulk_copy(params, bytes / 8)),
        );
    }

    // (b) Aggregate NMP bandwidth vs IDC bandwidth at 16 DIMMs.
    let messages: usize = if args.quick { 2_000 } else { 20_000 };
    sweep.custom(
        "uniform local traffic",
        "16D-8C MCN all-local",
        (args.params(16), messages),
        |(params, messages)| raw_run(&synth::uniform_random(params, *messages, 0.0)),
    );
    vec![sweep]
}

pub(super) fn report(args: &Args, records: &[RunRecord]) -> Report {
    let mut report = Report::new("Figure 1: CPU-forwarding IDC exploration (UPMEM-like system)\n");
    let mut points = Vec::new();
    let mut rows = Vec::new();
    for (&bytes, record) in sizes(args).iter().zip(records) {
        // Each of the 8 pairs copies bytes/8: total payload moved = bytes.
        let bw = gbps(bytes, record.elapsed());
        rows.push(vec![
            format!("{} KiB", bytes / 1024),
            format!("{bw:.2} GB/s"),
        ]);
        points.push(Point {
            transfer_bytes: bytes,
            idc_gbps: bw,
        });
    }
    report.table(
        "Fig.1(a) P2P IDC bandwidth vs transfer size (paper: saturates ~3.14 GB/s)",
        &["total transfer", "IDC bandwidth"],
        &rows,
    );

    let local = &records[sizes(args).len()];
    let local_bytes = local.stats.get("traffic.local_bytes").unwrap_or(0.0) as u64;
    let nmp_bw = gbps(local_bytes, local.elapsed());
    let idc_bw = points.last().map(|p| p.idc_gbps).unwrap_or(1.0);
    report.table(
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
    report.save(NAME, &points)
}
