//! Cross-fidelity differential validation: `PacketNet` vs `FlitNet`.
//!
//! The figure sweeps all run on the fast packet-level model; this module is
//! the harness that keeps it honest against the cycle-accurate flit-level
//! router model (the role BookSim plays for MultiPIM). A deterministic,
//! seeded traffic generator produces *identical* workloads — unicast
//! bursts, broadcasts, congestion hot-spots, mixed packet sizes — and each
//! case runs through both models over the same topology, asserting that
//! makespan latency and aggregate bandwidth agree within the documented
//! bound below.
//!
//! # Error bound
//!
//! The two models are intentionally different abstractions, so agreement
//! is bounded, not exact. The residual, *documented* divergences are:
//!
//! * **Endpoint pipeline accounting.** `FlitNet` charges the full
//!   13-cycle wire/router pipeline on every hop including the last, while
//!   `PacketNet` charges `ROUTER_LATENCY` only at intermediate routers —
//!   a fixed ≈3 ns offset per case, dominant for short single-packet
//!   cases. This is covered by [`ABS_ERR_FLOOR`].
//! * **Cycle quantization.** 8 ns of per-hop latency rounds up to 13
//!   cycles of 640 ps (8.32 ns), plus switch/ejection alignment cycles.
//! * **Arbitration micro-behaviour.** Wormhole VC arbitration and credit
//!   round-trips under congestion vs. gap-splitting bandwidth reservation
//!   (`PacketNet` interleaves link occupancy across idle gaps; real
//!   wormhole arbitration grants whole-flit slots and can stall on
//!   credits) diverge on *ordering*, which shifts makespans by a bounded
//!   factor captured in [`REL_ERR_BOUND`].
//!
//! A case passes when its latency error is inside [`REL_ERR_BOUND`] and
//! its bandwidth error inside [`BW_REL_ERR_BOUND`] (the same bound mapped
//! into reciprocal space), **or** its absolute latency error is under
//! [`ABS_ERR_FLOOR`]; the suite additionally requires the mean relative
//! error to stay under [`MEAN_REL_ERR_BOUND`], which catches systematic
//! drift that per-case slack would hide.
//!
//! Run `cargo run --release -p dl-bench --bin figures -- ablation_fidelity`
//! to execute the full suite; divergences land in
//! `target/sweeps/fidelity_diff.jsonl`.

use crate::sweep::{RunRecord, Sweep};
use dimm_link::runner::RunResult;
use dl_engine::stats::StatSet;
use dl_engine::{DetRng, Ps};
use dl_noc::{
    wire_bytes, FlitNet, FlitNetConfig, LinkParams, PacketNet, Topology, TopologyKind, FLIT_BYTES,
};
use serde::Serialize;

/// Per-case relative-error bound on latency (see module docs).
pub const REL_ERR_BOUND: f64 = 0.25;
/// Per-case relative-error bound on aggregate bandwidth. Bandwidth is the
/// reciprocal of makespan, so a latency divergence of `r` (flit model as
/// reference) appears as `r / (1 - r)` in bandwidth space (packet model as
/// reference); the bound is transformed the same way to keep the two views
/// consistent — otherwise packet-faster cases would face a silently tighter
/// latency bound than packet-slower ones.
pub const BW_REL_ERR_BOUND: f64 = REL_ERR_BOUND / (1.0 - REL_ERR_BOUND);
/// Per-case absolute latency slack covering the fixed endpoint-accounting
/// offset between the models (≈3 ns router + cycle alignment).
pub const ABS_ERR_FLOOR: Ps = Ps::from_ns(15);
/// Suite-wide mean relative-error bound (systematic-drift detector).
pub const MEAN_REL_ERR_BOUND: f64 = 0.10;

/// Maximum packet size in flits: a full 256-byte payload (17).
pub const MAX_FLITS: u32 = (wire_bytes(256) / FLIT_BYTES as u64) as u32;

/// Traffic shapes the generator produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Pattern {
    /// Random source/destination pairs, max-size packets.
    UnicastBurst,
    /// Concurrent broadcasts from random sources.
    Broadcast,
    /// Every node fires at one random destination (congestion).
    HotSpot,
    /// Random mix of unicast sizes plus occasional broadcasts.
    Mixed,
}

impl Pattern {
    /// All patterns, in suite order.
    pub const ALL: [Pattern; 4] = [
        Pattern::UnicastBurst,
        Pattern::Broadcast,
        Pattern::HotSpot,
        Pattern::Mixed,
    ];

    /// Short label used in sweep-point names.
    pub fn label(&self) -> &'static str {
        match self {
            Pattern::UnicastBurst => "burst",
            Pattern::Broadcast => "bcast",
            Pattern::HotSpot => "hotspot",
            Pattern::Mixed => "mixed",
        }
    }
}

/// One differential test case: a topology, a traffic pattern, and a seed.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FidelityCase {
    /// Network shape.
    pub kind: TopologyKind,
    /// Node count.
    pub nodes: usize,
    /// Traffic shape.
    pub pattern: Pattern,
    /// Generator seed; the case is fully determined by these four fields.
    pub seed: u64,
}

impl FidelityCase {
    /// The sweep-point label, e.g. `"torus16/hotspot/s3"`.
    pub fn label(&self) -> String {
        format!(
            "{}{}/{}/s{}",
            self.kind,
            self.nodes,
            self.pattern.label(),
            self.seed
        )
    }
}

/// One network operation, identical for both models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point-to-point transfer of `flits` 16-byte flits.
    Unicast {
        /// Source node.
        src: usize,
        /// Destination node.
        dst: usize,
        /// Packet length in flits.
        flits: u32,
    },
    /// Broadcast of `flits` 16-byte flits over the BFS tree.
    Broadcast {
        /// Source node.
        src: usize,
        /// Packet length in flits.
        flits: u32,
    },
}

/// Expands a case into its concrete operation list (deterministic in the
/// case fields alone — this is what makes the differential fair: both
/// models consume exactly this list).
pub fn ops_for(case: &FidelityCase) -> Vec<Op> {
    let n = case.nodes;
    let mut rng = DetRng::seed(case.seed).stream(&case.label());
    let mut ops = Vec::new();
    match case.pattern {
        Pattern::UnicastBurst => {
            for _ in 0..2 * n {
                let src = rng.below(n as u64) as usize;
                let mut dst = rng.below(n as u64) as usize;
                if dst == src {
                    dst = (dst + 1) % n;
                }
                ops.push(Op::Unicast {
                    src,
                    dst,
                    flits: MAX_FLITS,
                });
            }
        }
        Pattern::Broadcast => {
            for _ in 0..2 {
                let src = rng.below(n as u64) as usize;
                ops.push(Op::Broadcast {
                    src,
                    flits: MAX_FLITS,
                });
            }
        }
        Pattern::HotSpot => {
            let dst = rng.below(n as u64) as usize;
            for src in (0..n).filter(|&s| s != dst) {
                for _ in 0..2 {
                    ops.push(Op::Unicast {
                        src,
                        dst,
                        flits: MAX_FLITS,
                    });
                }
            }
        }
        Pattern::Mixed => {
            for _ in 0..3 * n {
                let flits = 1 + rng.below(MAX_FLITS as u64) as u32;
                if rng.below(10) == 0 {
                    let src = rng.below(n as u64) as usize;
                    ops.push(Op::Broadcast { src, flits });
                } else {
                    let src = rng.below(n as u64) as usize;
                    let mut dst = rng.below(n as u64) as usize;
                    if dst == src {
                        dst = (dst + 1) % n;
                    }
                    ops.push(Op::Unicast { src, dst, flits });
                }
            }
        }
    }
    ops
}

/// Both models' results for one case.
#[derive(Debug, Clone, Copy)]
pub struct CaseMeasurement {
    /// Packet-level makespan.
    pub packet: Ps,
    /// Flit-level makespan.
    pub flit: Ps,
    /// Bytes moved across all links (identical in both models by
    /// construction: same routes, same trees, same packet sizes).
    pub link_bytes: u64,
}

impl CaseMeasurement {
    /// Relative makespan error, flit model as reference.
    pub fn rel_err(&self) -> f64 {
        let p = self.packet.as_ps() as f64;
        let f = self.flit.as_ps() as f64;
        (p - f).abs() / f.max(1.0)
    }

    /// Absolute makespan error.
    pub fn abs_err(&self) -> Ps {
        Ps::from_ps(self.packet.as_ps().abs_diff(self.flit.as_ps()))
    }

    /// Relative aggregate-bandwidth error (bandwidth = link bytes over
    /// makespan, so this is the reciprocal-space view of the same delta).
    pub fn bw_rel_err(&self) -> f64 {
        let bp = self.link_bytes as f64 / (self.packet.as_ps() as f64).max(1.0);
        let bf = self.link_bytes as f64 / (self.flit.as_ps() as f64).max(1.0);
        (bp - bf).abs() / bf.max(f64::MIN_POSITIVE)
    }

    /// Whether this case is inside the documented mixed bound.
    pub fn in_bound(&self) -> bool {
        self.abs_err() <= ABS_ERR_FLOOR
            || (self.rel_err() <= REL_ERR_BOUND && self.bw_rel_err() <= BW_REL_ERR_BOUND)
    }
}

/// Runs one case through both models.
pub fn run_case(case: &FidelityCase) -> CaseMeasurement {
    let ops = ops_for(case);
    let (packet, link_bytes) = packet_level(case.kind, case.nodes, &ops);
    CaseMeasurement {
        packet,
        flit: flit_level(case.kind, case.nodes, &ops),
        link_bytes,
    }
}

/// Sends every operation at t = 0 over a `PacketNet` of `nodes` nodes;
/// returns the makespan and the bytes moved across all links.
pub fn packet_level(kind: TopologyKind, nodes: usize, ops: &[Op]) -> (Ps, u64) {
    let mut pnet = PacketNet::new(&Topology::new(kind, nodes), LinkParams::grs_25gbps());
    let mut makespan = Ps::ZERO;
    for op in ops {
        match *op {
            Op::Unicast { src, dst, flits } => {
                makespan =
                    makespan.max(pnet.send(Ps::ZERO, src, dst, flits as u64 * FLIT_BYTES as u64));
            }
            Op::Broadcast { src, flits } => {
                let arrivals = pnet.broadcast(Ps::ZERO, src, flits as u64 * FLIT_BYTES as u64);
                for (node, a) in arrivals.iter().enumerate() {
                    if node != src {
                        makespan = makespan.max(*a);
                    }
                }
            }
        }
    }
    (makespan, pnet.link_bytes())
}

/// Injects every operation at cycle 0 into a `FlitNet` of `nodes` nodes
/// (the topology's deadlock-safe configuration); returns the makespan.
pub fn flit_level(kind: TopologyKind, nodes: usize, ops: &[Op]) -> Ps {
    let topo = Topology::new(kind, nodes);
    let mut fnet = FlitNet::new(&topo, FlitNetConfig::for_topology(kind));
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Unicast { src, dst, flits } => {
                fnet.inject(i as u64, src, dst, flits);
            }
            Op::Broadcast { src, flits } => fnet.inject_broadcast(i as u64, src, flits),
        }
    }
    let deliveries = fnet.run_until_idle(50_000_000);
    let last = deliveries.iter().map(|d| d.cycle).max().unwrap_or(0);
    fnet.time_of(last)
}

/// The randomized differential suite: every topology × scale × pattern ×
/// `seeds` seeds. With the default 5 seeds and scales `[4, 8, 16]` this is
/// 240 cases.
pub fn default_suite(seeds: u64) -> Vec<FidelityCase> {
    let kinds = [
        TopologyKind::Chain,
        TopologyKind::Ring,
        TopologyKind::Mesh,
        TopologyKind::Torus,
    ];
    let mut cases = Vec::new();
    for kind in kinds {
        for nodes in [4usize, 8, 16] {
            for pattern in Pattern::ALL {
                for seed in 0..seeds {
                    cases.push(FidelityCase {
                        kind,
                        nodes,
                        pattern,
                        seed,
                    });
                }
            }
        }
    }
    cases
}

/// Builds the `fidelity_diff` sweep: one point per case, each running both
/// models and recording the divergence stats. The artifact lands at
/// `<out>/fidelity_diff.jsonl`.
pub fn build_sweep(cases: &[FidelityCase]) -> Sweep {
    let mut sweep = Sweep::new("fidelity_diff");
    for case in cases {
        sweep.custom(
            case.label(),
            format!("{} n={} differential", case.kind, case.nodes),
            *case,
            |case| {
                let m = run_case(case);
                let mut stats = StatSet::new();
                stats.set("fidelity.packet_ps", m.packet.as_ps() as f64);
                stats.set("fidelity.flit_ps", m.flit.as_ps() as f64);
                stats.set("fidelity.rel_err", m.rel_err());
                stats.set("fidelity.abs_err_ps", m.abs_err().as_ps() as f64);
                stats.set("fidelity.bw_rel_err", m.bw_rel_err());
                stats.set("fidelity.link_bytes", m.link_bytes as f64);
                stats.set("fidelity.in_bound", if m.in_bound() { 1.0 } else { 0.0 });
                RunResult::measured(m.flit, stats)
            },
        );
    }
    sweep
}

/// A case outside the documented bound.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// Sweep-point label of the offending case.
    pub label: String,
    /// Packet-level makespan, ns.
    pub packet_ns: f64,
    /// Flit-level makespan, ns.
    pub flit_ns: f64,
    /// Relative latency error.
    pub rel_err: f64,
    /// Relative bandwidth error.
    pub bw_rel_err: f64,
}

/// Suite verdict over the finished sweep records.
#[derive(Debug, Clone, Serialize)]
pub struct FidelityReport {
    /// Number of cases evaluated.
    pub cases: usize,
    /// Largest per-case relative latency error.
    pub max_rel_err: f64,
    /// Mean per-case relative latency error.
    pub mean_rel_err: f64,
    /// Cases outside the per-case bound.
    pub violations: Vec<Violation>,
    /// Whether the suite passes: no per-case violations and the mean
    /// under [`MEAN_REL_ERR_BOUND`].
    pub pass: bool,
}

/// Evaluates finished sweep records against the documented bounds.
pub fn evaluate(records: &[RunRecord]) -> FidelityReport {
    let mut violations = Vec::new();
    let mut max_rel_err = 0.0f64;
    let mut sum_rel_err = 0.0f64;
    for r in records {
        let g = |k: &str| r.stats.get(k).unwrap_or(0.0);
        let rel = g("fidelity.rel_err");
        max_rel_err = max_rel_err.max(rel);
        sum_rel_err += rel;
        if g("fidelity.in_bound") == 0.0 {
            violations.push(Violation {
                label: r.label.clone(),
                packet_ns: g("fidelity.packet_ps") / 1e3,
                flit_ns: g("fidelity.flit_ps") / 1e3,
                rel_err: rel,
                bw_rel_err: g("fidelity.bw_rel_err"),
            });
        }
    }
    let cases = records.len();
    let mean_rel_err = if cases == 0 {
        0.0
    } else {
        sum_rel_err / cases as f64
    };
    FidelityReport {
        cases,
        max_rel_err,
        mean_rel_err,
        pass: violations.is_empty() && mean_rel_err <= MEAN_REL_ERR_BOUND,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepOptions;

    #[test]
    fn op_generation_is_deterministic_and_in_range() {
        for kind in [
            TopologyKind::Chain,
            TopologyKind::Ring,
            TopologyKind::Mesh,
            TopologyKind::Torus,
        ] {
            for pattern in Pattern::ALL {
                let case = FidelityCase {
                    kind,
                    nodes: 8,
                    pattern,
                    seed: 3,
                };
                let a = ops_for(&case);
                let b = ops_for(&case);
                assert_eq!(a, b, "generation must be pure in the case");
                assert!(!a.is_empty());
                for op in a {
                    match op {
                        Op::Unicast { src, dst, flits } => {
                            assert!(src < 8 && dst < 8 && src != dst);
                            assert!((1..=MAX_FLITS).contains(&flits));
                        }
                        Op::Broadcast { src, flits } => {
                            assert!(src < 8);
                            assert!((1..=MAX_FLITS).contains(&flits));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_packet_cases_agree_within_floor() {
        // The simplest possible differential: one unicast, no contention.
        // Everything beyond the documented endpoint offset is a bug.
        for kind in [
            TopologyKind::Chain,
            TopologyKind::Ring,
            TopologyKind::Mesh,
            TopologyKind::Torus,
        ] {
            let op = [Op::Unicast {
                src: 0,
                dst: 5,
                flits: MAX_FLITS,
            }];
            let (packet, _) = packet_level(kind, 8, &op);
            let flit = flit_level(kind, 8, &op);
            let m = CaseMeasurement {
                packet,
                flit,
                link_bytes: 0,
            };
            assert!(
                m.abs_err() <= ABS_ERR_FLOOR,
                "{kind}: packet {packet} vs flit {flit} (err {})",
                m.abs_err()
            );
        }
    }

    #[test]
    fn reduced_suite_is_in_bound() {
        // One seed over every topology / scale / pattern: 48 cases. The
        // full 240-case suite runs in `figures ablation_fidelity` and CI.
        let cases = default_suite(1);
        assert_eq!(cases.len(), 48);
        let sweep = build_sweep(&cases);
        let out = sweep
            .run_with(&SweepOptions {
                quiet: true,
                ..SweepOptions::default()
            })
            .unwrap();
        let report = evaluate(&out.records);
        assert!(
            report.pass,
            "max_rel_err {:.3}, mean {:.3}, violations: {:#?}",
            report.max_rel_err, report.mean_rel_err, report.violations
        );
    }

    #[test]
    fn fidelity_sweep_is_thread_count_invariant() {
        // The jsonl artifact must be byte-identical for 1 and 4 workers.
        let dir = std::env::temp_dir().join(format!("dl-fidelity-det-{}", std::process::id()));
        let cases: Vec<FidelityCase> = default_suite(1)
            .into_iter()
            .filter(|c| c.nodes <= 8)
            .collect();
        let run = |threads: usize, sub: &str| {
            let out = build_sweep(&cases)
                .run_with(&SweepOptions {
                    threads: Some(threads),
                    out_dir: Some(dir.join(sub)),
                    quiet: false,
                    ..SweepOptions::default()
                })
                .unwrap();
            std::fs::read(out.path.expect("artifact written")).unwrap()
        };
        let serial = run(1, "t1");
        let parallel = run(4, "t4");
        assert!(!serial.is_empty());
        assert_eq!(
            serial, parallel,
            "fidelity artifact depends on thread count"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
