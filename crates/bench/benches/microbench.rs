//! Criterion microbenchmarks of the substrate components.

use criterion::{criterion_group, criterion_main, Criterion};
use dl_engine::{DetRng, Ps, Resource};
use dl_mem::{
    AccessKind, Cache, CacheConfig, DimmAddressMap, DramConfig, MemController, MemRequest,
};
use dl_noc::{FlitNet, FlitNetConfig, LinkParams, PacketNet, Topology, TopologyKind};
use dl_placement::{place_threads, AccessProfile};
use dl_protocol::{crc32, DimmId, DlCommand, Packet, PacketHeader};
use std::hint::black_box;

fn bench_dram(c: &mut Criterion) {
    let cfg = DramConfig::ddr4_2400_lrdimm();
    let map = DimmAddressMap::new(&cfg);
    let mut g = c.benchmark_group("dram");
    g.sample_size(20);
    g.bench_function("stream_512_reads", |b| {
        b.iter(|| {
            let mut mc = MemController::new("b", &cfg);
            for i in 0..512u64 {
                mc.enqueue(
                    Ps::ZERO,
                    MemRequest::new(i, AccessKind::Read, map.decode(i * 64)),
                );
            }
            let mut done = mc.service(Ps::ZERO).len();
            while done < 512 {
                let now = mc.next_wake().expect("pending");
                done += mc.service(now).len();
            }
            black_box(done)
        })
    });
    g.bench_function("random_512_mixed", |b| {
        b.iter(|| {
            let mut rng = DetRng::seed(1);
            let mut mc = MemController::new("b", &cfg);
            for i in 0..512u64 {
                let kind = if i % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                mc.enqueue(
                    Ps::ZERO,
                    MemRequest::new(i, kind, map.decode(rng.below(1 << 26) * 64)),
                );
            }
            let mut done = mc.service(Ps::ZERO).len();
            while done < 512 {
                let now = mc.next_wake().expect("pending");
                done += mc.service(now).len();
            }
            black_box(done)
        })
    });
    g.finish();
}

/// A memory channel as the epoch coordinator sees it in a polling-bound
/// run: a standing poll every 200 ns (30 ns each, the default polling
/// parameters) plus 272-byte DIMM-Link transfers (~11 ns at 25 GB/s) placed
/// up to two poll periods ahead of the clock, so the 50 µs retention window
/// is always full and requests land near its tail.
struct PolledWindow {
    resource: Resource,
    clock: Ps,
    rng: DetRng,
}

impl PolledWindow {
    const PERIOD: Ps = Ps::from_ns(200);
    const POLL: Ps = Ps::from_ns(30);
    const TRANSFER: Ps = Ps::from_ps(10_880);

    /// A window already full: one retention span (250 periods) of traffic.
    fn filled() -> Self {
        let mut w = PolledWindow {
            resource: Resource::new("channel"),
            clock: Ps::ZERO,
            rng: DetRng::seed(7),
        };
        w.run(250, false);
        w
    }

    /// Advances `periods` poll periods: each reserves its poll and one
    /// transfer, contiguous or split. Returns the last completion time.
    fn run(&mut self, periods: u64, split: bool) -> Ps {
        let mut last = Ps::ZERO;
        for _ in 0..periods {
            self.resource.reserve(self.clock, Self::POLL);
            let at = self.clock + Ps::from_ps(self.rng.below(2 * Self::PERIOD.as_ps()));
            last = if split {
                self.resource.reserve_split_with_start(at, Self::TRANSFER).1
            } else {
                self.resource.reserve(at, Self::TRANSFER)
            };
            self.clock += Self::PERIOD;
        }
        last
    }
}

fn bench_resource(c: &mut Criterion) {
    let mut g = c.benchmark_group("resource");
    g.sample_size(50);
    // 500 periods = 1000 reservations per sample, against a full window.
    let mut w = PolledWindow::filled();
    g.bench_function("reserve_1k_polled_window", |b| {
        b.iter(|| black_box(w.run(500, false)))
    });
    let mut w = PolledWindow::filled();
    g.bench_function("reserve_split_1k_polled_window", |b| {
        b.iter(|| black_box(w.run(500, true)))
    });
    g.finish();
}

fn bench_noc(c: &mut Criterion) {
    let topo = Topology::new(TopologyKind::Chain, 8);
    let mut g = c.benchmark_group("noc");
    g.sample_size(20);
    g.bench_function("packetnet_1k_sends", |b| {
        b.iter(|| {
            let mut net = PacketNet::new(&topo, LinkParams::grs_25gbps());
            let mut last = Ps::ZERO;
            for i in 0..1000u64 {
                let s = (i % 8) as usize;
                let d = ((i + 3) % 8) as usize;
                last = last.max(net.send(Ps::from_ns(i), s, d, 272));
            }
            black_box(last)
        })
    });
    g.bench_function("flitnet_56_packets", |b| {
        b.iter(|| {
            let mut net = FlitNet::new(&topo, FlitNetConfig::grs_25gbps());
            let mut id = 0;
            for s in 0..8usize {
                for d in 0..8usize {
                    if s != d {
                        net.inject(id, s, d, 4);
                        id += 1;
                    }
                }
            }
            black_box(net.run_until_idle(1_000_000).len())
        })
    });
    g.finish();
}

fn bench_protocol(c: &mut Criterion) {
    let header = PacketHeader::new(DimmId(1), DimmId(2), DlCommand::WriteReq, 0x1234, 7).unwrap();
    let pkt = Packet::with_payload(header, vec![0xAB; 256]).unwrap();
    let flits = pkt.encode();
    let mut g = c.benchmark_group("protocol");
    g.bench_function("crc32_256B", |b| {
        let data = vec![0x5Au8; 256];
        b.iter(|| black_box(crc32(black_box(&data))))
    });
    g.bench_function("encode_max_packet", |b| b.iter(|| black_box(pkt.encode())));
    g.bench_function("decode_max_packet", |b| {
        b.iter(|| black_box(Packet::decode(black_box(&flits)).unwrap()))
    });
    g.finish();
}

fn bench_placement(c: &mut Criterion) {
    // The paper's instance size: 64 threads on 16 DIMMs (~2 ms on a 5950X).
    let mut rng = DetRng::seed(42);
    let mut m = AccessProfile::new(64, 16);
    for t in 0..64 {
        for d in 0..16 {
            m.record(t, d, rng.below(10_000));
        }
    }
    let dist: Vec<Vec<u64>> = (0..16)
        .map(|j: usize| (0..16).map(|k: usize| j.abs_diff(k) as u64).collect())
        .collect();
    c.bench_function("placement_mcmf_64x16", |b| {
        b.iter(|| black_box(place_threads(&m, &dist, 4).unwrap()))
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache_l1_10k_accesses", |b| {
        b.iter(|| {
            let mut cache = Cache::new(CacheConfig::l1_32k());
            let mut hits = 0u32;
            for i in 0..10_000u64 {
                if matches!(
                    cache.access((i * 64) % (64 * 1024), i % 4 == 0),
                    dl_mem::CacheOutcome::Hit
                ) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

criterion_group!(
    benches,
    bench_resource,
    bench_dram,
    bench_noc,
    bench_protocol,
    bench_placement,
    bench_cache
);
criterion_main!(benches);
