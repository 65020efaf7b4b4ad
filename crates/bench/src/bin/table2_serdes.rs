//! Table II — SerDes technique comparison (static parameters).
//!
//! These are the physical-layer options the paper weighs for the DL-Bridge;
//! the GRS column is what the simulator's default link model and energy
//! model are configured from.

use dimm_link::EnergyParams;
use dl_bench::print_table;
use dl_noc::LinkParams;

fn main() {
    print_table(
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
    let energy = EnergyParams::default();
    print_table(
        "Simulator configuration derived from the GRS column",
        &["parameter", "value"],
        &[
            vec![
                "link bandwidth/direction".into(),
                format!("{} GB/s", link.bytes_per_sec / 1_000_000_000),
            ],
            vec!["hop latency".into(), link.hop_latency.to_string()],
            vec!["router latency".into(), link.router_latency.to_string()],
            vec![
                "link energy".into(),
                format!("{} pJ/b", energy.link_pj_per_bit),
            ],
        ],
    );
}
