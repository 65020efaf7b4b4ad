//! K-Means stores its per-point scans once per thread and runs its point
//! loop as one sweep, each point's load and a call of one of the scans;
//! PageRank (and its broadcast variant) and Hotspot store a thread's sweep
//! once and call it per iteration. The cores walk that compact form
//! in place, so each of these workloads must simulate exactly as its
//! flattened copy (every call expanded), and no run may build the expanded
//! sequence.

use dimm_link::config::{HostConfig, IdcKind, SystemConfig};
use dimm_link::runner::{host_baseline_for, simulate, simulate_optimized};
use dimm_link::system::{natural_placement, NmpSystem, RawRun};
use dl_workloads::{Step, ThreadTrace, Workload, WorkloadKind, WorkloadParams};

/// The kinds whose traces call blocks, with their `broadcast` setting.
const BLOCKED: [(WorkloadKind, bool); 4] = [
    (WorkloadKind::KMeans, false),
    (WorkloadKind::Pagerank, false),
    (WorkloadKind::Pagerank, true),
    (WorkloadKind::Hotspot, false),
];

fn build(
    kind: WorkloadKind,
    broadcast: bool,
    dimms: usize,
    threads_per_dimm: usize,
    seed: u64,
) -> Workload {
    kind.build(&WorkloadParams {
        dimms,
        threads_per_dimm,
        seed,
        scale: 9,
        broadcast,
        ..WorkloadParams::small(dimms)
    })
}

/// `wl` with every trace's ops rebuilt one by one: no blocks, no calls.
fn flattened(wl: &Workload) -> Workload {
    let traces = wl
        .traces()
        .iter()
        .map(|t| t.ops().iter().copied().collect::<ThreadTrace>())
        .collect();
    Workload::new(
        wl.name(),
        traces,
        wl.layout().clone(),
        wl.home_dimm().to_vec(),
    )
}

fn nmp_cfg(dimms: usize) -> SystemConfig {
    SystemConfig::nmp(dimms, dimms / 2).with_idc(IdcKind::DimmLink)
}

fn nmp_run(wl: &Workload, cfg: &SystemConfig, limit: Option<usize>) -> String {
    let RawRun {
        elapsed,
        stats,
        profile,
        status,
    } = NmpSystem::new(wl, cfg, &natural_placement(wl), limit).run();
    format!("elapsed={elapsed} status={status:?} stats={stats:?} profile={profile:?}")
}

/// Expanded-op counts at which thread 0's trace stops, each after its
/// first tenth. A trace that calls blocks stops inside a block, in front of
/// a call and right after one. A trace that runs sweeps stops in front of
/// a sweep, at a point's load (in front of it and right after it), inside
/// the scan the point calls, in front of the sweep's last op and right
/// after the sweep.
fn stops(trace: &ThreadTrace) -> Vec<usize> {
    let from = trace.len() / 10;
    let find = |want: &dyn Fn(usize, usize) -> bool| {
        (from..trace.len())
            .find(|&n| {
                let (pc, sub) = trace.position(n);
                want(pc, sub)
            })
            .expect("thread 0 stops there after its first tenth")
    };
    let steps = trace.steps();
    if !steps.iter().any(|s| matches!(s, Step::Sweep(_))) {
        let call = |pc: usize| matches!(steps.get(pc), Some(Step::Call(_)));
        return vec![
            find(&|pc, sub| sub == 5 && call(pc)),
            find(&|pc, sub| sub == 0 && call(pc)),
            find(&|pc, sub| sub == 0 && pc > 0 && call(pc - 1)),
        ];
    }
    // In the sweep at `pc`, whether `want(offset, ops per iteration, ops)`.
    let in_sweep =
        |pc: usize, sub: usize, want: &dyn Fn(usize, usize, usize) -> bool| match steps.get(pc) {
            Some(&Step::Sweep(s)) => {
                let (count, per) = trace.sweep_shape(s);
                want(sub, per, count as usize * per)
            }
            _ => false,
        };
    vec![
        find(&|pc, sub| in_sweep(pc, sub, &|sub, _, _| sub == 0)),
        find(&|pc, sub| in_sweep(pc, sub, &|sub, per, _| sub > 0 && sub % per == 0)),
        find(&|pc, sub| in_sweep(pc, sub, &|sub, per, _| sub % per == 1)),
        find(&|pc, sub| in_sweep(pc, sub, &|sub, per, _| sub % per == 6)),
        find(&|pc, sub| in_sweep(pc, sub, &|sub, _, len| sub + 1 == len)),
        find(&|pc, sub| sub == 0 && pc > 0 && in_sweep(pc - 1, 0, &|_, _, _| true)),
    ]
}

#[test]
fn a_compact_trace_simulates_as_its_flattened_copy() {
    for (kind, broadcast) in BLOCKED {
        for seed in [42, 7] {
            for dimms in [4, 16] {
                let wl = build(kind, broadcast, dimms, 4, seed);
                let flat = flattened(&wl);
                let case = format!("{}, seed {seed}, {dimms} DIMMs", wl.name());
                assert_ne!(wl.traces(), flat.traces(), "{case}: calls blocks");
                let cfg = SystemConfig {
                    seed,
                    ..nmp_cfg(dimms)
                };
                assert_eq!(
                    nmp_run(&wl, &cfg, None),
                    nmp_run(&flat, &cfg, None),
                    "{case}"
                );
                for limit in stops(&wl.traces()[0]) {
                    assert_eq!(
                        nmp_run(&wl, &cfg, Some(limit)),
                        nmp_run(&flat, &cfg, Some(limit)),
                        "{case}, profiling up to op {limit}"
                    );
                }
                let [opt, opt_flat] = [&wl, &flat].map(|w| {
                    let r = simulate_optimized(w, &cfg);
                    format!("{:?} {:?} {:?}", r.elapsed, r.stats, r.energy)
                });
                assert_eq!(opt, opt_flat, "{case}, optimized");
            }
            // The host has no broadcast: it runs the plain variants only.
            if broadcast {
                continue;
            }
            let host = HostConfig::xeon_16core();
            let wl = build(kind, false, host.channels, host.cores / host.channels, seed);
            let flat = flattened(&wl);
            let [run, run_flat] = [&wl, &flat].map(|w| {
                let r = host_baseline_for(w);
                format!("{:?} {:?}", r.elapsed, r.stats)
            });
            assert_eq!(run, run_flat, "{}, seed {seed}, host baseline", wl.name());
        }
    }
}

#[test]
fn no_run_expands_a_blocked_trace() {
    for (kind, broadcast) in BLOCKED {
        let wl = build(kind, broadcast, 4, 4, 42);
        let cfg = nmp_cfg(4);
        let _ = simulate(&wl, &cfg);
        let _ = simulate_optimized(&wl, &cfg);
        let host = HostConfig::xeon_16core();
        let host_wl = build(kind, false, host.channels, host.cores / host.channels, 42);
        let _ = host_baseline_for(&host_wl);
        let _ = (wl.total_mem_ops(), wl.remote_fraction());
        for w in [&wl, &host_wl] {
            assert!(
                w.traces().iter().all(|t| !t.is_materialized()),
                "{}",
                w.name()
            );
        }
    }
}
