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
use dl_bench::fidelity::{self, FidelityReport, Op};
use dl_bench::sweep::Sweep;
use dl_bench::{print_table, run_sweep, save_results, Args};
use dl_engine::stats::StatSet;
use dl_noc::TopologyKind;
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

/// The pairs as one max-size unicast each over a chain of 8.
fn chain8(pairs: &[(usize, usize)]) -> Vec<Op> {
    pairs
        .iter()
        .map(|&(src, dst)| Op::Unicast {
            src,
            dst,
            flits: fidelity::MAX_FLITS,
        })
        .collect()
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
        sweep.custom(
            format!("{name} / packet"),
            "chain-8 packet-level",
            pairs.clone(),
            |pairs| {
                let (makespan, _) = fidelity::packet_level(TopologyKind::Chain, 8, &chain8(pairs));
                RunResult::measured(makespan, StatSet::new())
            },
        );
        sweep.custom(
            format!("{name} / flit"),
            "chain-8 flit-level",
            pairs.clone(),
            |pairs| {
                let makespan = fidelity::flit_level(TopologyKind::Chain, 8, &chain8(pairs));
                RunResult::measured(makespan, StatSet::new())
            },
        );
    }
    let result = run_sweep(sweep, &args);

    let mut rows = Vec::new();
    let mut curated = Vec::new();
    for ((name, _), runs) in patterns.iter().zip(result.records.chunks(2)) {
        let p = runs[0].elapsed().as_ns_f64();
        let f = runs[1].elapsed().as_ns_f64();
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
