//! Seeded property tests of the DDR4 memory-controller model.
//!
//! Each test runs 48 cases; case `c` draws its request mix from
//! `DetRng::seed(c)`, and every failure message names its case. To rerun
//! only a failing case, narrow the test's `for case in 0..CASES` loop to
//! that one seed.

use dl_engine::{DetRng, Ps};
use dl_mem::{AccessKind, DimmAddressMap, DramConfig, MemController, MemRequest};
use std::ops::Range;

const CASES: u64 = 48;

fn drain(mc: &mut MemController, n: usize) -> Vec<dl_mem::Completion> {
    let mut done = mc.service(Ps::ZERO);
    let mut guard = 0;
    while done.len() < n {
        let now = mc.next_wake().expect("work pending but controller idle");
        done.extend(mc.service(now));
        guard += 1;
        assert!(guard < 10_000_000, "runaway drain");
    }
    done
}

/// A vector with a length in `len`, of values below `bound`.
fn offsets(rng: &mut DetRng, bound: u64, len: Range<u64>) -> Vec<u64> {
    let n = len.start + rng.below(len.end - len.start);
    (0..n).map(|_| rng.below(bound)).collect()
}

/// Every request completes exactly once, regardless of the mix.
#[test]
fn conservation() {
    let cfg = DramConfig::ddr4_2400_lrdimm();
    let map = DimmAddressMap::new(&cfg);
    for case in 0..CASES {
        let mut rng = DetRng::seed(case);
        let offsets = offsets(&mut rng, 1 << 24, 1..120);
        let write_mask = rng.next_u64();
        let mut mc = MemController::new("p", &cfg);
        for (i, &off) in offsets.iter().enumerate() {
            let kind = if (write_mask >> (i % 64)) & 1 == 1 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            mc.enqueue(
                Ps::ZERO,
                MemRequest::new(i as u64, kind, map.decode(off * 64)),
            );
        }
        let done = drain(&mut mc, offsets.len());
        let mut ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            offsets.len(),
            "case {case}: lost or duplicated completions"
        );
        assert_eq!(mc.inflight(), 0, "case {case}");
        assert_eq!(
            mc.reads() + mc.writes(),
            offsets.len() as u64,
            "case {case}"
        );
    }
}

/// Latency lower bound: nothing completes faster than a row-hit read.
#[test]
fn latency_lower_bound() {
    let cfg = DramConfig::ddr4_2400_lrdimm();
    let t = cfg.timing;
    let map = DimmAddressMap::new(&cfg);
    // CL + BL is the absolute floor (an open-row CAS).
    let floor = t.t(t.cl + t.bl);
    for case in 0..CASES {
        let offsets = offsets(&mut DetRng::seed(case), 1 << 20, 1..60);
        let mut mc = MemController::new("p", &cfg);
        for (i, &off) in offsets.iter().enumerate() {
            mc.enqueue(
                Ps::ZERO,
                MemRequest::new(i as u64, AccessKind::Read, map.decode(off * 64)),
            );
        }
        for c in &drain(&mut mc, offsets.len()) {
            assert!(
                c.at >= floor,
                "case {case}: completion {} under the CAS floor {floor}",
                c.at
            );
        }
    }
}

/// Throughput upper bound: data cannot exceed the aggregate rank
/// bandwidth.
#[test]
fn bandwidth_upper_bound() {
    let cfg = DramConfig::ddr4_2400_lrdimm();
    let map = DimmAddressMap::new(&cfg);
    let peak = cfg.timing.peak_bandwidth(64) as f64 * cfg.ranks as f64;
    for case in 0..CASES {
        let mut rng = DetRng::seed(case);
        let n = 32 + rng.below(200 - 32) as usize;
        let mut mc = MemController::new("p", &cfg);
        for i in 0..n {
            let off = rng.below(1 << 22) * 64;
            mc.enqueue(
                Ps::ZERO,
                MemRequest::new(i as u64, AccessKind::Read, map.decode(off)),
            );
        }
        let done = drain(&mut mc, n);
        let end = done.iter().map(|c| c.at).max().unwrap();
        let achieved = (64 * n as u64) as f64 / end.as_secs_f64();
        assert!(
            achieved <= peak * 1.001,
            "case {case}: achieved {achieved:.2e} B/s exceeds aggregate peak {peak:.2e}"
        );
    }
}

/// The address map is a bijection at line granularity.
#[test]
fn address_map_bijective() {
    let cfg = DramConfig::ddr4_2400_lrdimm();
    let map = DimmAddressMap::new(&cfg);
    for case in 0..CASES {
        for off in offsets(&mut DetRng::seed(case), 1 << 33, 1..200) {
            let line = (off / 64) * 64 % map.capacity_bytes();
            assert_eq!(map.encode(map.decode(line)), line, "case {case}");
        }
    }
}
