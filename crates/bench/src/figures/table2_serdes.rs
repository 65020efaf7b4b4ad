//! Table II — SerDes technique comparison (static parameters).
//!
//! These are the physical-layer options the paper weighs for the DL-Bridge;
//! the GRS column is what the simulator's default link model and the
//! energy model's link constant are taken from.

use super::Report;
use crate::sweep::{RunRecord, Sweep};
use crate::Args;
use dimm_link::energy::LINK_PJ_PER_BIT;
use dl_noc::{LinkParams, HOP_LATENCY, ROUTER_LATENCY};

pub(super) const NAME: &str = "table2_serdes";

/// A table of constants: no sweep.
pub(super) fn points(_: &Args) -> Vec<Sweep> {
    Vec::new()
}

pub(super) fn report(_: &Args, _: &[RunRecord]) -> Report {
    let mut report = Report::new("");
    report.table(
        "Table II: SerDes techniques (paper values)",
        &["reference", "media", "signal rate", "reach", "energy"],
        &[
            vec![
                "ISSCC'15 [10]".into(),
                "SMA cable".into(),
                "6 Gb/s/pin".into(),
                "953 mm".into(),
                "0.58 pJ/b".into(),
            ],
            vec![
                "PACT'15 [25]".into(),
                "ribbon cable".into(),
                "16 Gb/s/pin".into(),
                "500 mm".into(),
                "2.58 pJ/b".into(),
            ],
            vec![
                "GRS [69]".into(),
                "PCB".into(),
                "25 Gb/s/pin".into(),
                "80 mm".into(),
                "1.17 pJ/b".into(),
            ],
        ],
    );

    let link = LinkParams::grs_25gbps();
    report.table(
        "Simulator configuration derived from the GRS column",
        &["parameter", "value"],
        &[
            vec![
                "link bandwidth/direction".into(),
                format!("{} GB/s", link.bytes_per_sec / 1_000_000_000),
            ],
            vec!["hop latency".into(), HOP_LATENCY.to_string()],
            vec!["router latency".into(), ROUTER_LATENCY.to_string()],
            vec!["link energy".into(), format!("{LINK_PJ_PER_BIT} pJ/b")],
        ],
    );
    report
}
