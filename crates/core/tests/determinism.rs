//! Regression tests for run-to-run determinism of the full system model.
//!
//! Within one process, every `HashMap` instance gets its own random
//! `RandomState`, so repeating the same simulation ten times genuinely
//! exercises ten different hash-iteration orders. Before `dl-analyze`
//! forced the simulation crates onto `BTreeMap`, `NmpSystem` counted DIMM
//! groups and drove barrier releases off hash-map iteration — an order leak
//! this test is designed to catch if it ever regresses.

use dimm_link::config::{IdcKind, PlacementPolicy, SyncScheme, SystemConfig};
use dimm_link::host_sim::HostRun;
use dimm_link::runner::{host_baseline, simulate, simulate_optimized, RunResult};
use dl_workloads::{WorkloadKind, WorkloadParams};

/// Serializes everything observable about a run into one comparable blob.
/// `StatSet` is `BTreeMap`-backed, so its `Debug` order is stable by
/// construction; elapsed/profiling/energy are scalars.
fn fingerprint(r: &RunResult) -> String {
    format!(
        "elapsed={} profiling={} stats={:?} energy={:?}",
        r.elapsed, r.profiling, r.stats, r.energy
    )
}

fn workload_params(dimms: usize) -> WorkloadParams {
    WorkloadParams {
        scale: 8,
        ..WorkloadParams::small(dimms)
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    // 8 DIMMs over 4 channels: two DL groups, so the hierarchical barrier
    // (the converted release maps in system.rs) is on the hot path.
    let wl = WorkloadKind::Bfs.build(&workload_params(8));
    let cfg = SystemConfig::nmp(8, 4).with_idc(IdcKind::DimmLink);
    let golden = fingerprint(&simulate(&wl, &cfg));
    for i in 1..10 {
        let fp = fingerprint(&simulate(&wl, &cfg));
        assert_eq!(golden, fp, "run {i} diverged from run 0");
    }
}

#[test]
fn repeated_runs_are_byte_identical_across_idc_mechanisms() {
    let wl = WorkloadKind::Pagerank.build(&workload_params(8));
    for idc in [
        IdcKind::CpuForwarding,
        IdcKind::DedicatedBus,
        IdcKind::AbcDimm,
        IdcKind::DimmLink,
    ] {
        let cfg = SystemConfig::nmp(8, 4).with_idc(idc);
        let golden = fingerprint(&simulate(&wl, &cfg));
        for i in 1..10 {
            assert_eq!(
                golden,
                fingerprint(&simulate(&wl, &cfg)),
                "{idc:?} run {i} diverged"
            );
        }
    }
}

#[test]
fn optimized_pipeline_is_deterministic_with_random_placement() {
    // Random placement + profiling + min-cost max-flow + measured run: the
    // longest deterministic chain, seeded via `DetRng::stream("placement")`.
    let wl = WorkloadKind::Sssp.build(&workload_params(8));
    let mut cfg = SystemConfig::nmp(8, 4).with_idc(IdcKind::DimmLink);
    cfg.placement = PlacementPolicy::Random;
    let golden = fingerprint(&simulate_optimized(&wl, &cfg));
    for i in 1..10 {
        assert_eq!(
            golden,
            fingerprint(&simulate_optimized(&wl, &cfg)),
            "optimized run {i} diverged"
        );
    }
}

/// 64-bit FNV-1a: a compact, dependency-free pin for a fingerprint string.
fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn host_fingerprint(r: &HostRun) -> String {
    format!("elapsed={} stats={:?}", r.elapsed, r.stats)
}

/// Pins *what* a run produces, not just that repeated runs agree: any change
/// to simulated behaviour — event order, transaction ids, stall accounting —
/// moves one of these hashes. Covers the host baseline on every P2P
/// workload, atomics (K-Means), the central barrier (TS.Pow on MCN), the NMP
/// broadcast path, and truncated profiling traces with no-op barriers (the
/// optimized pipeline).
#[test]
fn golden_fingerprints_are_pinned() {
    let mut runs: Vec<(String, String)> = WorkloadKind::P2P_SET
        .iter()
        .map(|&kind| {
            let r = host_baseline(kind, 8, 42);
            (format!("host {kind}"), host_fingerprint(&r))
        })
        .collect();
    let params = workload_params(8);
    let dl = SystemConfig::nmp(8, 4).with_idc(IdcKind::DimmLink);
    let km = simulate(&WorkloadKind::KMeans.build(&params), &dl);
    assert!(km.stats.get("atomics").unwrap() > 0.0);
    runs.push(("KM/DL".into(), fingerprint(&km)));
    let mut mcn_central = SystemConfig::nmp(8, 4).with_idc(IdcKind::CpuForwarding);
    mcn_central.sync = SyncScheme::Central;
    let ts = simulate(&WorkloadKind::TsPow.build(&params), &mcn_central);
    assert!(ts.stats.get("barriers").unwrap() > 0.0);
    assert!(ts.stats.get("atomics").unwrap() > 0.0);
    runs.push(("TS.Pow/MCN-central".into(), fingerprint(&ts)));
    let pr_bc = WorkloadKind::Pagerank.build(&WorkloadParams {
        broadcast: true,
        ..params
    });
    let pr_bc = simulate(&pr_bc, &dl);
    assert!(pr_bc.stats.get("traffic.broadcast_bytes").unwrap() > 0.0);
    runs.push(("PR-BC/DL".into(), fingerprint(&pr_bc)));
    let bfs = WorkloadKind::Bfs.build(&params);
    runs.push((
        "BFS/DL-opt".into(),
        fingerprint(&simulate_optimized(&bfs, &dl)),
    ));

    let got: Vec<String> = runs
        .iter()
        .map(|(name, fp)| format!("{name} {:016x}", fnv1a64(fp)))
        .collect();
    let golden = [
        "host BFS f6cea4d6f665d604",
        "host HS 1b459df513de8ded",
        "host KM 6b6314e2eb6415cd",
        "host NW 33471a9e20a249bf",
        "host PR 42e7353d90ba7f9e",
        "host SSSP 8dd2f53823181578",
        "KM/DL a91cf7e5005ebeb9",
        "TS.Pow/MCN-central 4717512575fb5fc5",
        "PR-BC/DL fe033486482ce443",
        "BFS/DL-opt 8be008cde6b45eeb",
    ];
    assert_eq!(got, golden, "a pinned simulation result changed");
}
