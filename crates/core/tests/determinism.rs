//! Regression tests for run-to-run determinism of the full system model.
//!
//! Within one process, every `HashMap` instance gets its own random
//! `RandomState`, so repeating the same simulation ten times genuinely
//! exercises ten different hash-iteration orders. Before the workspace
//! banned `HashMap` (clippy's `disallowed-types`, in `clippy.toml`) and
//! moved the simulation crates onto `BTreeMap`, `NmpSystem` counted DIMM
//! groups and drove barrier releases off hash-map iteration — an order leak
//! this test is designed to catch if it ever regresses.

use dimm_link::config::{IdcKind, PlacementPolicy, SyncScheme, SystemConfig};
use dimm_link::host_sim::HostRun;
use dimm_link::runner::{host_baseline, simulate, simulate_optimized, RunResult};
use dl_engine::stats::StatSet;
use dl_engine::{BudgetKind, Ps, RunStatus};
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

/// Whether a statistic counts scheduled events: it says how the engine
/// reached a result (how often it woke a core or ticked a controller), not
/// what the result is.
fn is_schedule_key(key: &str) -> bool {
    key == "events_scheduled" || key.starts_with("events.")
}

/// [`fingerprint`] without the event counts.
fn result_fingerprint(r: &RunResult) -> String {
    let mut stats = StatSet::new();
    for (key, value) in r.stats.iter().filter(|&(key, _)| !is_schedule_key(key)) {
        stats.set(key, value);
    }
    format!(
        "elapsed={} profiling={} stats={stats:?} energy={:?}",
        r.elapsed, r.profiling, r.energy
    )
}

/// Pins *what* a run produces, not just that repeated runs agree. Covers
/// the host baseline on every P2P workload, atomics (K-Means), the central
/// barrier (TS.Pow on MCN), the NMP broadcast path, truncated profiling
/// traces with no-op barriers (the optimized pipeline), and a run cut short
/// by a simulated-time cap (SSSP on MCN, stopped at about a third of its
/// 29.85 us run).
///
/// Each NMP run has two pins. Its *result pin* hashes everything but the
/// event counts (`events_scheduled`, `events.*`): any change to simulated
/// behaviour — event order, transaction ids, stall accounting — moves it.
/// Its *schedule pin* hashes everything: a change that only schedules
/// fewer or more events (a core that runs further between wakes, a memory
/// tick that would have made no progress) moves it and keeps the result
/// pin. The host baseline exports no event counts, so one pin covers it.
/// The cut run has only a result pin: where a simulated-time cap stops a
/// run depends on simulated time alone, so it must not move when only the
/// engine's schedule changes.
#[test]
fn golden_fingerprints_are_pinned() {
    let mut hosts: Vec<(String, String)> = WorkloadKind::P2P_SET
        .iter()
        .map(|&kind| {
            let r = host_baseline(kind, 8, 42);
            (format!("host {kind}"), host_fingerprint(&r))
        })
        .collect();
    let params = workload_params(8);
    let dl = SystemConfig::nmp(8, 4).with_idc(IdcKind::DimmLink);
    let mut runs: Vec<(&str, RunResult)> = Vec::new();
    let km = simulate(&WorkloadKind::KMeans.build(&params), &dl);
    assert!(km.stats.get("atomics").unwrap() > 0.0);
    runs.push(("KM/DL", km));
    let mut mcn_central = SystemConfig::nmp(8, 4).with_idc(IdcKind::CpuForwarding);
    mcn_central.sync = SyncScheme::Central;
    let ts = simulate(&WorkloadKind::TsPow.build(&params), &mcn_central);
    assert!(ts.stats.get("barriers").unwrap() > 0.0);
    assert!(ts.stats.get("atomics").unwrap() > 0.0);
    runs.push(("TS.Pow/MCN-central", ts));
    let pr_bc = WorkloadKind::Pagerank.build(&WorkloadParams {
        broadcast: true,
        ..params
    });
    let pr_bc = simulate(&pr_bc, &dl);
    assert!(pr_bc.stats.get("traffic.broadcast_bytes").unwrap() > 0.0);
    runs.push(("PR-BC/DL", pr_bc));
    let bfs = WorkloadKind::Bfs.build(&params);
    runs.push(("BFS/DL-opt", simulate_optimized(&bfs, &dl)));
    let mut mcn_capped = SystemConfig::nmp(8, 4).with_idc(IdcKind::CpuForwarding);
    mcn_capped.max_sim = Some(Ps::from_us(10));
    let cut = simulate(&WorkloadKind::Sssp.build(&params), &mcn_capped);
    assert_eq!(cut.status, RunStatus::BudgetExceeded(BudgetKind::SimTime));

    let pins = |runs: &[(String, String)]| -> Vec<String> {
        runs.iter()
            .map(|(name, fp)| format!("{name} {:016x}", fnv1a64(fp)))
            .collect()
    };
    hosts.extend(
        runs.iter()
            .map(|(name, r)| (format!("{name} result"), result_fingerprint(r))),
    );
    hosts.push((
        "SSSP/MCN cut at 10us result".into(),
        result_fingerprint(&cut),
    ));
    let results = [
        "host BFS f6cea4d6f665d604",
        "host HS 1b459df513de8ded",
        "host KM 6b6314e2eb6415cd",
        "host NW 33471a9e20a249bf",
        "host PR 42e7353d90ba7f9e",
        "host SSSP 8dd2f53823181578",
        "KM/DL result c1622e583b8e2a55",
        "TS.Pow/MCN-central result 4bc1c9cd5a75156d",
        "PR-BC/DL result b694854d9c066e4a",
        "BFS/DL-opt result 8b40c907c1fa9511",
        "SSSP/MCN cut at 10us result 02a4e0e681d95a63",
    ];
    assert_eq!(pins(&hosts), results, "a pinned simulation result changed");
    let schedules: Vec<(String, String)> = runs
        .iter()
        .map(|(name, r)| (format!("{name} schedule"), fingerprint(r)))
        .collect();
    let golden = [
        "KM/DL schedule 7a52165c5b90d04c",
        "TS.Pow/MCN-central schedule b5cf695f69f353df",
        "PR-BC/DL schedule bb6989dcfed1680f",
        "BFS/DL-opt schedule e83f61c245814f82",
    ];
    assert_eq!(
        pins(&schedules),
        golden,
        "only an event count changed: the result pins still hold"
    );
}
