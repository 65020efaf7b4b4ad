//! Ablation — packet-level vs flit-level network fidelity.
//!
//! The big sweeps use the packet-level model (`PacketNet`); this ablation
//! cross-checks it against the cycle-accurate flit-level router model
//! (`FlitNet`), BookSim-style: same traffic in, latencies compared.
//!
//! Two parts:
//! 1. the original curated chain-of-8 pattern table (human-readable
//!    sanity check), and
//! 2. the randomized differential suite from [`crate::fidelity`] — every
//!    topology × scale × pattern × seed — asserting the documented error
//!    bounds and writing `<out>/fidelity_diff.jsonl`.
//!
//! The run fails if any case is outside the bound, so CI can gate on it.

use super::Report;
use crate::fidelity::{self, FidelityReport, Op};
use crate::sweep::{RunRecord, Sweep};
use crate::Args;
use dimm_link::runner::RunResult;
use dl_engine::stats::StatSet;
use dl_noc::TopologyKind;
use serde::Serialize;
use std::fmt::Write as _;

pub(super) const NAME: &str = "ablation_fidelity";

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

/// The curated chain-of-8 patterns, as (source, destination) pairs.
fn patterns() -> Vec<(&'static str, Vec<(usize, usize)>)> {
    vec![
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
    ]
}

pub(super) fn points(args: &Args) -> Vec<Sweep> {
    // Part 1, the curated table: two points per pattern, the fast
    // packet-level model and the cycle-accurate flit-level cross-check.
    let mut sweep = Sweep::new(NAME);
    for (name, pairs) in patterns() {
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
            pairs,
            |pairs| {
                let makespan = fidelity::flit_level(TopologyKind::Chain, 8, &chain8(pairs));
                RunResult::measured(makespan, StatSet::new())
            },
        );
    }
    // Part 2, the randomized differential suite.
    let seeds = if args.quick { 2 } else { 5 };
    vec![sweep, fidelity::build_sweep(&fidelity::default_suite(seeds))]
}

pub(super) fn report(_: &Args, records: &[RunRecord]) -> Report {
    let mut report = Report::new("Ablation: packet-level vs flit-level network model\n");
    let patterns = patterns();
    let (runs, diff) = records.split_at(2 * patterns.len());
    let mut rows = Vec::new();
    let mut curated = Vec::new();
    for ((name, _), runs) in patterns.iter().zip(runs.chunks(2)) {
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
    report.table(
        "Makespan comparison (17-flit packets); ratios near 1.0 validate the fast model",
        &["pattern", "packet-level (ns)", "flit-level (ns)", "ratio"],
        &rows,
    );

    let suite = fidelity::evaluate(diff);
    let _ = writeln!(
        report.text,
        "\nDifferential suite: {} randomized cases (chain/ring/mesh/torus x \
         3 scales x 4 patterns x {} seeds)",
        diff.len(),
        diff.len() / fidelity::default_suite(1).len()
    );
    let _ = writeln!(
        report.text,
        "fidelity: {} cases, max rel err {:.3}, mean rel err {:.3}, {} violation(s)",
        suite.cases,
        suite.max_rel_err,
        suite.mean_rel_err,
        suite.violations.len()
    );
    for v in &suite.violations {
        let _ = writeln!(
            report.text,
            "  OUT OF BOUND {}: packet {:.1} ns vs flit {:.1} ns (rel {:.3}, bw {:.3})",
            v.label, v.packet_ns, v.flit_ns, v.rel_err, v.bw_rel_err
        );
    }
    report.verdict = if suite.pass {
        Ok("fidelity differential suite PASSED\n")
    } else {
        Err("fidelity differential suite FAILED (see fidelity_diff.jsonl)")
    };
    let summary = Summary {
        curated,
        differential: suite,
    };
    report.save("fidelity_summary", &summary)
}
