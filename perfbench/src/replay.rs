//! Replays of single layer primitives with workload-shaped state.
//!
//! Each replay drives one primitive the way the workload's simulation
//! does: the workload's `SystemConfig`, its addresses and remote-access
//! pairs from its traces, and request rates taken from the simulated
//! statistics of its own run. An idle structure would hide the costs that
//! grow with state, such as a `Resource` scanning a window full of standing
//! polls. Each replay reports host nanoseconds per call, fastest of
//! [`TRIES`].

use crate::trace::secs;
use crate::workload::{Inputs, Outcome};
use dimm_link::config::{PollingStrategy, SystemConfig};
use dimm_link::host::HostPath;
use dimm_link::idc::{wire_bytes, Interconnect};
use dl_engine::{DetRng, EventQueue, Ps, Resource};
use dl_mem::{AccessKind, Cache, DimmAddressMap, MemController, MemRequest};
use dl_noc::{PacketNet, Topology};
use dl_workloads::{Op, Workload};
use std::hint::black_box;

/// Repetitions of each replay; the fastest is reported.
const TRIES: usize = 3;
/// Pending events in the event-queue replay (a partition's typical load).
const PENDING_EVENTS: usize = 200;

/// Host ns per call of each replayed primitive.
pub struct LayerCosts {
    pub resource_reserve_ns: f64,
    pub event_queue_push_pop_ns: f64,
    pub controller_service_ns: f64,
    pub cache_access_ns: f64,
    pub packetnet_send_ns: f64,
    pub unicast_ns: f64,
    pub discover_ns: f64,
}

/// Runs every replay for the workload whose run produced `out`.
pub fn replay_layers(inputs: &Inputs, out: &Outcome) -> LayerCosts {
    let shape = Shape::of(inputs, out);
    let cfg = &inputs.cfg;
    let pairs = remote_pairs(&inputs.nmp, 100_000);
    LayerCosts {
        resource_reserve_ns: fastest(|| resource(cfg, &shape)),
        event_queue_push_pop_ns: fastest(|| event_queue(&shape)),
        controller_service_ns: fastest(|| controller(cfg, &inputs.nmp, &shape)),
        cache_access_ns: fastest(|| cache(cfg, &inputs.nmp)),
        packetnet_send_ns: fastest(|| packetnet(cfg, &pairs, &shape)),
        unicast_ns: fastest(|| unicast(cfg, &pairs, &shape)),
        discover_ns: fastest(|| discover(cfg, &pairs, &shape)),
    }
}

/// Runs `replay` [`TRIES`] times; each returns (host seconds, calls).
fn fastest(mut replay: impl FnMut() -> (f64, u64)) -> f64 {
    (0..TRIES)
        .map(|_| {
            let (secs, calls) = replay();
            secs * 1e9 / calls.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The simulated rates and latencies of the workload's own run.
struct Shape {
    elapsed: Ps,
    remote_accesses: u64,
    fwd_packets: u64,
    channel_bytes: f64,
    link_bytes: f64,
    dimm0_accesses: u64,
    dram_latency: Ps,
    remote_rtt: Ps,
    /// Mean simulated time between two wakes of one core.
    wake_gap: Ps,
    /// Shares of wake, memory and network events.
    event_mix: [f64; 3],
    seed: u64,
}

impl Shape {
    fn of(inputs: &Inputs, out: &Outcome) -> Shape {
        let g = |k: &str| out.stats.get(k).unwrap_or(0.0);
        let events = [g("events.wake"), g("events.mem"), g("events.net")];
        let total: f64 = events.iter().sum::<f64>().max(1.0);
        let writes_per_read = g("dram.writes") / g("dram.reads").max(1.0);
        let ns = |v: f64| Ps::from_ps((v * 1e3) as u64);
        Shape {
            elapsed: Ps::from_ps(g("elapsed_ps") as u64),
            remote_accesses: (g("remote_reads") + g("remote_writes")) as u64,
            fwd_packets: g("host.fwd_packets") as u64,
            channel_bytes: g("host.channel_bytes"),
            link_bytes: g("traffic.link_bytes"),
            dimm0_accesses: (g("dram.dimm0.reads") * (1.0 + writes_per_read)) as u64,
            dram_latency: ns(g("dram.dimm0.lat_ns")),
            remote_rtt: ns(g("remote_read_rtt_mean_ns")),
            wake_gap: Ps::from_ps(
                (g("elapsed_ps") * g("threads") / g("events.wake").max(1.0)) as u64,
            ),
            event_mix: events.map(|e| e / total),
            seed: inputs.cfg.seed,
        }
    }

    /// Simulated time between two of `count` evenly spread requests.
    fn gap(&self, count: u64) -> Ps {
        Ps::from_ps((self.elapsed.as_ps() / count.max(1)).max(1))
    }
}

/// The workload's remote accesses as `(requesting DIMM, home DIMM,
/// is_read)`, threads interleaved op by op, at most `cap` of them.
fn remote_pairs(w: &Workload, cap: usize) -> Vec<(usize, usize, bool)> {
    let mut pairs = Vec::new();
    let longest = w.traces().iter().map(|t| t.len()).max().unwrap_or(0);
    for i in 0..longest {
        for (t, trace) in w.traces().iter().enumerate() {
            let Some(&op) = trace.ops().get(i) else {
                continue;
            };
            let Some(addr) = op.addr() else { continue };
            let (src, dst) = (w.home_dimm()[t], w.layout().dimm_of(addr));
            if src != dst {
                pairs.push((src, dst, matches!(op, Op::Load { .. })));
                if pairs.len() == cap {
                    return pairs;
                }
            }
        }
    }
    pairs
}

/// Memory ops of every thread, interleaved op by op, at most `cap`.
fn mem_ops(w: &Workload, cap: usize, keep: impl Fn(&Op) -> bool) -> Vec<(usize, Op)> {
    let mut ops = Vec::new();
    let longest = w.traces().iter().map(|t| t.len()).max().unwrap_or(0);
    for i in 0..longest {
        for (t, trace) in w.traces().iter().enumerate() {
            if let Some(op) = trace.ops().get(i).filter(|op| keep(op)) {
                ops.push((t, *op));
                if ops.len() == cap {
                    return ops;
                }
            }
        }
    }
    ops
}

/// `Resource` reservations: a memory channel whose window holds the
/// workload's standing polls and host-path transfers (later pipeline stages
/// reserved ahead of time), then a link carrying the workload's
/// per-link traffic with split reservations, as `PacketNet` makes them.
fn resource(cfg: &SystemConfig, shape: &Shape) -> (f64, u64) {
    const CALLS: u64 = 200_000;
    let standing = match cfg.polling {
        PollingStrategy::Base => cfg.dimms_per_channel() as u64,
        PollingStrategy::Proxy => 1,
        _ => 0,
    };
    let line = wire_bytes(64);
    let per_channel = (shape.channel_bytes / line as f64 / cfg.channels as f64) as u64;
    let channel_dur = Ps::from_ps(line * 1_000_000_000_000 / cfg.channel_bandwidth);
    let links: usize = (0..cfg.groups)
        .map(|g| {
            Topology::new(cfg.topology, cfg.group_members(g).len())
                .iter_links()
                .count()
        })
        .sum();
    let per_link = (shape.link_bytes / line as f64 / links.max(1) as f64) as u64;
    let link_dur = Ps::from_ps(line * 1_000_000_000_000 / cfg.link.bytes_per_sec);
    let mut rng = DetRng::seed(shape.seed).stream("replay.resource");
    let ahead = cfg.fwd_proc.as_ps().max(1);

    let mut host_secs = 0.0;
    let mut calls = 0;
    // The channel: polls every period, transfers at the workload's rate.
    if standing > 0 || per_channel > 0 {
        let mut channel = Resource::new("replay.channel");
        let gap = shape.gap(per_channel);
        let (mut next_poll, mut next_xfer) = (Ps::ZERO, Ps::ZERO);
        let poll = cfg.poll_cost * standing;
        let started = secs();
        for _ in 0..CALLS {
            if standing > 0 && (per_channel == 0 || next_poll <= next_xfer) {
                black_box(channel.reserve(next_poll, poll));
                next_poll += cfg.poll_period;
            } else {
                let at = next_xfer + Ps::from_ps(rng.below(ahead));
                black_box(channel.reserve_with_start(at, channel_dur));
                next_xfer += gap;
            }
        }
        host_secs += secs() - started;
        calls += CALLS;
    }
    // A link: split reservations at the workload's per-link rate.
    if per_link > 0 {
        let mut link = Resource::new("replay.link");
        let gap = shape.gap(per_link);
        let started = secs();
        for i in 0..CALLS {
            let at = gap * i + Ps::from_ps(rng.below(ahead));
            black_box(link.reserve_split_with_start(at, link_dur));
        }
        host_secs += secs() - started;
        calls += CALLS;
    }
    (host_secs, calls)
}

/// `EventQueue` push/pop pairs at a partition's typical depth, each new
/// event scheduled after a delay drawn from the workload's mix of core
/// wakes, DRAM completions and network deliveries.
fn event_queue(shape: &Shape) -> (f64, u64) {
    const PAIRS: u64 = 1_000_000;
    let mut rng = DetRng::seed(shape.seed).stream("replay.event_queue");
    let mut delay = move || {
        let u = rng.unit();
        let mean = if u < shape.event_mix[0] {
            shape.wake_gap
        } else if u < shape.event_mix[0] + shape.event_mix[1] {
            shape.dram_latency
        } else {
            shape.remote_rtt
        };
        Ps::from_ps(rng.below(2 * mean.as_ps().max(1)))
    };
    let mut q = EventQueue::new();
    for i in 0..PENDING_EVENTS as u64 {
        q.push(delay(), i);
    }
    let started = secs();
    for _ in 0..PAIRS {
        let (at, id) = q.pop().expect("the queue never drains");
        q.push(at + delay(), black_box(id));
    }
    (secs() - started, PAIRS)
}

/// `MemController` service of DIMM 0's home accesses from the workload's
/// traces, arriving at the rate DIMM 0 served them in the run.
fn controller(cfg: &SystemConfig, w: &Workload, shape: &Shape) -> (f64, u64) {
    const REQUESTS: usize = 50_000;
    let map = DimmAddressMap::new(&cfg.dram);
    let layout = w.layout();
    let reqs: Vec<MemRequest> = mem_ops(w, REQUESTS, |op| {
        op.addr().is_some_and(|a| layout.dimm_of(a) == 0)
    })
    .into_iter()
    .enumerate()
    .map(|(i, (_, op))| {
        let addr = op.addr().expect("memory op");
        let kind = match op {
            Op::Store { .. } => AccessKind::Write,
            _ => AccessKind::Read,
        };
        MemRequest::new(i as u64, kind, map.decode(layout.offset_of(addr)))
    })
    .collect();
    let gap = shape.gap(shape.dimm0_accesses);
    let mut mc = MemController::new("replay", &cfg.dram);
    let mut done = 0;
    let started = secs();
    for (i, req) in reqs.iter().enumerate() {
        let at = gap * i as u64;
        while let Some(wake) = mc.next_wake().filter(|&w| w < at) {
            done += mc.service(wake).len();
        }
        mc.enqueue(at, *req);
        done += mc.service(at).len();
    }
    while done < reqs.len() {
        let wake = mc.next_wake().expect("requests are pending");
        done += mc.service(wake).len();
    }
    (secs() - started, reqs.len() as u64)
}

/// `Cache` accesses: every thread's cacheable loads and stores through its
/// own L1, threads interleaved op by op.
fn cache(cfg: &SystemConfig, w: &Workload) -> (f64, u64) {
    const ACCESSES: usize = 2_000_000;
    let ops = mem_ops(w, ACCESSES, |op| {
        matches!(
            op,
            Op::Load {
                cacheable: true,
                ..
            } | Op::Store {
                cacheable: true,
                ..
            }
        )
    });
    let mut l1: Vec<Cache> = w.traces().iter().map(|_| Cache::new(cfg.nmp_l1)).collect();
    let started = secs();
    for &(t, op) in &ops {
        let addr = op.addr().expect("memory op");
        black_box(l1[t].access(addr, matches!(op, Op::Store { .. })));
    }
    (secs() - started, ops.len() as u64)
}

/// `PacketNet` sends of the workload's remote accesses inside DL group 0,
/// at the rate the run issued remote accesses.
fn packetnet(cfg: &SystemConfig, pairs: &[(usize, usize, bool)], shape: &Shape) -> (f64, u64) {
    let members = cfg.group_members(0);
    let local = |d: usize| members.iter().position(|&m| m == d);
    let inside: Vec<(usize, usize)> = pairs
        .iter()
        .filter_map(|&(s, d, _)| Some((local(s)?, local(d)?)))
        .collect();
    let share = inside.len() as f64 / pairs.len().max(1) as f64;
    let gap = shape.gap((shape.remote_accesses as f64 * share) as u64);
    let mut net = PacketNet::new(&Topology::new(cfg.topology, members.len()), cfg.link);
    let started = secs();
    for (i, &(s, d)) in inside.iter().enumerate() {
        black_box(net.send(gap * i as u64, s, d, wire_bytes(64)));
    }
    (secs() - started, inside.len() as u64)
}

/// `Interconnect::unicast` of the workload's remote accesses at the rate
/// the run issued them: a read sends a request and, one DRAM access after
/// it lands, the 64-byte reply; a write sends its line.
fn unicast(cfg: &SystemConfig, pairs: &[(usize, usize, bool)], shape: &Shape) -> (f64, u64) {
    let gap = shape.gap(shape.remote_accesses);
    let mut idc = Interconnect::new(cfg);
    let mut host = HostPath::new(cfg, &idc.proxy_channels(cfg));
    let mut calls = 0;
    let started = secs();
    for (i, &(src, dst, read)) in pairs.iter().enumerate() {
        let at = gap * i as u64;
        if read {
            let (arrival, _) = idc.unicast(&mut host, cfg, at, src, dst, wire_bytes(0));
            let reply = arrival + shape.dram_latency;
            black_box(idc.unicast(&mut host, cfg, reply, dst, src, wire_bytes(64)));
            calls += 2;
        } else {
            black_box(idc.unicast(&mut host, cfg, at, src, dst, wire_bytes(64)));
            calls += 1;
        }
    }
    (secs() - started, calls)
}

/// `HostPath::discover` of forwarding requests registered on the
/// requesters' channels at the rate the run forwarded packets.
fn discover(cfg: &SystemConfig, pairs: &[(usize, usize, bool)], shape: &Shape) -> (f64, u64) {
    let idc = Interconnect::new(cfg);
    let mut host = HostPath::new(cfg, &idc.proxy_channels(cfg));
    let gap = shape.gap(shape.fwd_packets);
    let started = secs();
    for (i, &(src, _, _)) in pairs.iter().enumerate() {
        let at = gap * i as u64;
        black_box(host.discover(at, cfg.channel_of(src), cfg.dimms_per_channel()));
    }
    (secs() - started, pairs.len() as u64)
}
