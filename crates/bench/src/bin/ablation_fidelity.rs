//! Ablation — packet-level vs flit-level network fidelity.
//!
//! The big sweeps use the packet-level model (`PacketNet`); this ablation
//! cross-checks it against the cycle-accurate flit-level router model
//! (`FlitNet`), BookSim-style: same traffic in, latencies compared.
//!
//! Two parts:
//! 1. the original curated chain-of-8 pattern table (human-readable
//!    sanity check), and
//! 2. the randomized differential suite from [`dl_bench::fidelity`] —
//!    every topology × scale × pattern × seed — asserting the documented
//!    error bounds and writing `target/sweeps/fidelity_diff.jsonl`.
//!
//! Exits non-zero if any case is outside the bound, so CI can gate on it.

use dimm_link::runner::RunResult;
use dimm_link::EnergyBreakdown;
use dl_bench::fidelity::{self, FidelityReport};
use dl_bench::sweep::Sweep;
use dl_bench::{print_table, run_sweep, save_results, Args};
use dl_engine::stats::StatSet;
use dl_engine::Ps;
use dl_noc::{wire_bytes, FlitNet, FlitNetConfig, LinkParams, PacketNet, Topology, TopologyKind};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    pattern: String,
    packet_level_ns: f64,
    flit_level_ns: f64,
    ratio: f64,
}

#[derive(Serialize)]
struct Summary {
    curated: Vec<Row>,
    differential: FidelityReport,
}

fn wrap(makespan: Ps) -> RunResult {
    RunResult {
        elapsed: makespan,
        profiling: Ps::ZERO,
        stats: StatSet::new(),
        energy: EnergyBreakdown::default(),
        status: dl_engine::RunStatus::Completed,
    }
}

fn packet_makespan(pairs: &[(usize, usize)]) -> Ps {
    let topo = Topology::new(TopologyKind::Chain, 8);
    let mut pnet = PacketNet::new(&topo, LinkParams::grs_25gbps());
    let mut last = Ps::ZERO;
    for &(s, d) in pairs {
        last = last.max(pnet.send(Ps::ZERO, s, d, wire_bytes(256)));
    }
    last
}

fn flit_makespan(pairs: &[(usize, usize)]) -> Ps {
    let topo = Topology::new(TopologyKind::Chain, 8);
    let mut fnet = FlitNet::new(&topo, FlitNetConfig::grs_25gbps());
    for (i, &(s, d)) in pairs.iter().enumerate() {
        fnet.inject(i as u64, s, d, fidelity::MAX_FLITS);
    }
    let deliveries = fnet.run_until_idle(10_000_000);
    let cycles = deliveries.iter().map(|d| d.cycle).max().unwrap_or(0);
    fnet.time_of(cycles)
}

fn main() {
    let args = Args::parse();
    println!("Ablation: packet-level vs flit-level network model");

    // --- Part 1: curated chain-of-8 table ---------------------------------
    let patterns: Vec<(&str, Vec<(usize, usize)>)> = vec![
        ("single 1-hop", vec![(0, 1)]),
        ("single 7-hop", vec![(0, 7)]),
        ("4 disjoint pairs", vec![(0, 1), (2, 3), (4, 5), (6, 7)]),
        (
            "hot link (4 -> middle)",
            vec![(0, 4), (1, 4), (2, 4), (3, 4)],
        ),
        ("all-to-one", (0..7).map(|s| (s, 7)).collect()),
        (
            "uniform 28 pairs",
            (0..8)
                .flat_map(|s| (0..8).filter(move |&d| d != s).map(move |d| (s, d)))
                .take(28)
                .collect(),
        ),
    ];

    // Two points per pattern: the fast packet-level model and the
    // cycle-accurate flit-level cross-check.
    let mut sweep = Sweep::new("ablation_fidelity");
    for (name, pairs) in &patterns {
        let p = pairs.clone();
        sweep.custom(
            format!("{name} / packet"),
            "chain-8 packet-level",
            move || wrap(packet_makespan(&p)),
        );
        let p = pairs.clone();
        sweep.custom(format!("{name} / flit"), "chain-8 flit-level", move || {
            wrap(flit_makespan(&p))
        });
    }
    let result = run_sweep(sweep, &args);

    let mut rows = Vec::new();
    let mut curated = Vec::new();
    for (i, (name, _)) in patterns.iter().enumerate() {
        let p = result.records[2 * i].elapsed().as_ns_f64();
        let f = result.records[2 * i + 1].elapsed().as_ns_f64();
        let ratio = p / f.max(1e-9);
        rows.push(vec![
            name.to_string(),
            format!("{p:.1}"),
            format!("{f:.1}"),
            format!("{ratio:.2}"),
        ]);
        curated.push(Row {
            pattern: name.to_string(),
            packet_level_ns: p,
            flit_level_ns: f,
            ratio,
        });
    }
    print_table(
        "Makespan comparison (17-flit packets); ratios near 1.0 validate the fast model",
        &["pattern", "packet-level (ns)", "flit-level (ns)", "ratio"],
        &rows,
    );

    // --- Part 2: randomized differential suite ----------------------------
    let seeds = if args.quick { 2 } else { 5 };
    let cases = fidelity::default_suite(seeds);
    println!(
        "\nDifferential suite: {} randomized cases (chain/ring/mesh/torus x \
         3 scales x 4 patterns x {seeds} seeds)",
        cases.len()
    );
    let diff = run_sweep(fidelity::build_sweep(&cases), &args);
    let report = fidelity::evaluate(&diff.records);
    println!(
        "fidelity: {} cases, max rel err {:.3}, mean rel err {:.3}, {} violation(s)",
        report.cases,
        report.max_rel_err,
        report.mean_rel_err,
        report.violations.len()
    );
    for v in &report.violations {
        println!(
            "  OUT OF BOUND {}: packet {:.1} ns vs flit {:.1} ns (rel {:.3}, bw {:.3})",
            v.label, v.packet_ns, v.flit_ns, v.rel_err, v.bw_rel_err
        );
    }

    let pass = report.pass;
    save_results(
        "fidelity_summary",
        &Summary {
            curated,
            differential: report,
        },
    );
    if !pass {
        eprintln!("fidelity differential suite FAILED (see fidelity_diff.jsonl)");
        std::process::exit(1);
    }
    println!("fidelity differential suite PASSED");
}
