//! Table I — maximum-bandwidth comparison of the IDC methods.
//!
//! Prints the paper's analytic maxima (β = one channel's bandwidth) next to
//! bandwidths measured with a saturating stream microbench on each
//! mechanism.

use super::Report;
use crate::sweep::{RunRecord, Sweep};
use crate::{gbps, Args};
use dimm_link::config::{IdcKind, SystemConfig};
use dimm_link::host::HostPath;
use dimm_link::idc::Interconnect;
use dimm_link::runner::RunResult;
use dl_engine::stats::StatSet;
use dl_engine::Ps;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub(super) const NAME: &str = "table1_idc_methods";

#[derive(Serialize)]
struct Row {
    method: String,
    analytic: String,
    analytic_gbps: f64,
    measured_gbps: f64,
}

const BYTES: u64 = 272; // max-size packet
const PAIRS: usize = 8;
/// Packets a pair may have in flight; a window of 128 or 512 reads the
/// same stream bandwidth, so 32 saturates every mechanism.
const WINDOW: usize = 32;
/// One channel's bandwidth, GB/s.
const BETA: f64 = 19.2;

/// Each method with the paper's formula for its maximum and that maximum,
/// GB/s.
const METHODS: [(IdcKind, &str, f64); 4] = [
    (
        IdcKind::CpuForwarding,
        "#Channel x beta/2",
        8.0 * BETA / 2.0,
    ),
    (IdcKind::AbcDimm, "#DIMM x beta (broadcast)", 16.0 * BETA),
    (IdcKind::DedicatedBus, "beta", BETA),
    (IdcKind::DimmLink, "#Link x beta_link", 14.0 * 25.0),
];

/// Packets each pair streams.
fn packets(args: &Args) -> u64 {
    if args.quick {
        2_000
    } else {
        20_000
    }
}

/// Saturates a mechanism with concurrent neighbour-to-neighbour streams;
/// the returned elapsed time is the last arrival, from which the aggregate
/// delivered bandwidth follows.
///
/// Each of the 8 disjoint adjacent pairs sends `packets` packets, at most
/// one per ns and at most [`WINDOW`] in flight: a full pair waits for its
/// earliest arrival. Sends are issued in time order (the pair with the
/// earliest next send first, ties to the lower pair), so no reservation
/// lands behind a shared resource's pruned horizon.
fn measure(&(kind, packets): &(IdcKind, u64)) -> RunResult {
    let cfg = SystemConfig::nmp(16, 8).with_idc(kind);
    let mut idc = Interconnect::new(&cfg);
    let mut host = HostPath::new(&cfg, &idc.proxy_channels(&cfg));
    let mut next = [Ps::ZERO; PAIRS];
    let mut sent = [0u64; PAIRS];
    let mut inflight: [BinaryHeap<Reverse<Ps>>; PAIRS] = Default::default();
    let mut last = Ps::ZERO;
    while let Some(pair) = (0..PAIRS)
        .filter(|&p| sent[p] < packets)
        .min_by_key(|&p| (next[p], p))
    {
        let t = next[pair];
        let src = 2 * pair;
        let (arrival, _) = idc.unicast(&mut host, &cfg, t, src, src + 1, BYTES);
        last = last.max(arrival);
        sent[pair] += 1;
        let window = &mut inflight[pair];
        window.push(Reverse(arrival));
        next[pair] = t + Ps::from_ns(1);
        if window.len() == WINDOW {
            let Reverse(earliest) = window.pop().expect("the window is full");
            next[pair] = next[pair].max(earliest);
        }
    }
    RunResult::measured(last, StatSet::new())
}

pub(super) fn points(args: &Args) -> Vec<Sweep> {
    // ABC-DIMM's point-to-point path is CPU forwarding; its analytic
    // entry refers to broadcast (measured in fig12). Measure P2P here.
    let mut sweep = Sweep::new(NAME);
    for (kind, _, _) in METHODS {
        sweep.custom(
            format!("{kind} / stream"),
            format!("16D-8C {kind} saturating stream"),
            (kind, packets(args)),
            measure,
        );
    }
    vec![sweep]
}

pub(super) fn report(args: &Args, records: &[RunRecord]) -> Report {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for ((kind, formula, analytic), record) in METHODS.into_iter().zip(records) {
        let measured = gbps(BYTES * packets(args) * 8, record.elapsed());
        rows.push(vec![
            kind.to_string(),
            formula.to_string(),
            format!("{analytic:.1} GB/s"),
            format!("{measured:.1} GB/s"),
        ]);
        out.push(Row {
            method: kind.to_string(),
            analytic: formula.to_string(),
            analytic_gbps: analytic,
            measured_gbps: measured,
        });
    }
    let mut report = Report::new("");
    report.table(
        "Table I: maximum P2P IDC bandwidth (16D-8C; analytic vs measured stream)",
        &["method", "formula", "analytic", "measured P2P"],
        &rows,
    );
    report.text.push_str(
        "\nNotes: MCN/ABC measured P2P includes polling discovery and the host \
         round trip, so it sits below the channel-count bound; DIMM-Link's \
         adjacent-pair stream exercises 8 of the 14 links.\n",
    );
    report.save(NAME, &out)
}
