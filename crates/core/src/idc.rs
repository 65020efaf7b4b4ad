//! The four inter-DIMM communication mechanisms (paper Table I).
//!
//! All four expose the same interface — deliver a packet of `bytes` from
//! DIMM `src` to DIMM `dst` (or to everyone) starting at `now`, reserving
//! the contended resources along the way and returning the arrival time:
//!
//! * **CPU-forwarding (MCN/UPMEM)** — the request waits to be discovered by
//!   host polling, then crosses the source channel, the host, and the
//!   destination channel.
//! * **Dedicated bus (AIM)** — one shared multi-drop bus; no host
//!   involvement, but every DIMM pair contends for the same β.
//! * **Intra-channel broadcast (ABC-DIMM)** — point-to-point traffic still
//!   goes through the host; broadcasts reach same-channel DIMMs in one
//!   transaction and other channels via one forward + broadcast-write each.
//! * **DIMM-Link** — intra-group packets route over the SerDes chain;
//!   inter-group packets fall back to host forwarding, with the polling
//!   proxy aggregating discovery (Section IV-A).

use crate::config::{IdcKind, PollingStrategy, SystemConfig};
use crate::host::HostPath;
use dl_engine::{BandwidthResource, Ps};

use dl_noc::{PacketNet, Topology};

/// Wire size of a packet carrying `payload` bytes.
pub use dl_noc::wire_bytes;

/// Size of a forwarding-request notification packet (no payload: one flit).
pub const NOTIFY_BYTES: u64 = wire_bytes(0);

/// Which path a delivery took (drives the Fig. 11 traffic breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// Stayed within one DIMM (no IDC).
    Local,
    /// DIMM-Link SerDes links within a group.
    Link,
    /// Host-CPU forwarding over the memory channels.
    HostForward,
    /// The AIM dedicated bus.
    Bus,
    /// The inter-blade CXL fabric (disaggregated organization).
    Cxl,
    /// ABC-DIMM's multi-drop channel broadcast.
    ChannelBroadcast,
}

/// A CXL-class blade fabric: one full-duplex port per blade plus a switch.
#[derive(Debug)]
pub struct CxlFabric {
    /// Per-blade egress ports (ingress contention is folded into egress of
    /// the sender plus switch latency; CXL links are full-duplex).
    egress: Vec<BandwidthResource>,
    ingress: Vec<BandwidthResource>,
    latency: Ps,
}

impl CxlFabric {
    fn new(blades: usize, bandwidth: u64, latency: Ps) -> Self {
        CxlFabric {
            egress: (0..blades)
                .map(|b| BandwidthResource::new(format!("cxl-egress{b}"), bandwidth))
                .collect(),
            ingress: (0..blades)
                .map(|b| BandwidthResource::new(format!("cxl-ingress{b}"), bandwidth))
                .collect(),
            latency,
        }
    }

    /// Moves `bytes` from blade `src` to blade `dst` starting at `now`.
    fn transfer(&mut self, now: Ps, src: usize, dst: usize, bytes: u64) -> Ps {
        let sent = self.egress[src].transfer(now, bytes);

        self.ingress[dst].transfer(sent + self.latency, bytes)
    }

    fn bytes_moved(&self) -> u64 {
        self.egress.iter().map(|p| p.bytes_moved()).sum()
    }
}

/// DIMM-Link-specific state: groups, per-group networks, proxies.
#[derive(Debug)]
pub struct DlState {
    /// DIMM ids per group, in chain order.
    groups: Vec<Vec<usize>>,
    /// dimm -> (group, index within group).
    of: Vec<(usize, usize)>,
    nets: Vec<PacketNet>,
    /// The proxy / synchronization-master DIMM of each group (the middle
    /// DIMM, per Section III-D's heuristic).
    proxy: Vec<usize>,
    dl_proc: Ps,
    proxy_polling: bool,
    /// CXL fabric for inter-group (inter-blade) packets; `None` uses host
    /// forwarding (the in-server organization).
    cxl: Option<CxlFabric>,
    /// Stage timings of inter-group sends (diagnostics).
    pub notify_wait: dl_engine::stats::Histogram,
    /// Discovery wait (registration to host pickup).
    pub disc_wait: dl_engine::stats::Histogram,
    /// Forward time (pickup to arrival).
    pub fwd_wait: dl_engine::stats::Histogram,
}

impl DlState {
    fn new(cfg: &SystemConfig) -> Self {
        Self::with_fabric(cfg, None)
    }

    fn with_fabric(cfg: &SystemConfig, cxl: Option<CxlFabric>) -> Self {
        let groups: Vec<Vec<usize>> = (0..cfg.groups).map(|g| cfg.group_members(g)).collect();
        let mut of = vec![(0usize, 0usize); cfg.dimms];
        for (g, members) in groups.iter().enumerate() {
            for (i, &d) in members.iter().enumerate() {
                of[d] = (g, i);
            }
        }
        let nets = groups
            .iter()
            .map(|m| PacketNet::new(&Topology::new(cfg.topology, m.len()), cfg.link))
            .collect();
        let proxy = groups.iter().map(|m| m[m.len() / 2]).collect();
        DlState {
            groups,
            of,
            nets,
            proxy,
            cxl,
            notify_wait: dl_engine::stats::Histogram::new(),
            disc_wait: dl_engine::stats::Histogram::new(),
            fwd_wait: dl_engine::stats::Histogram::new(),
            dl_proc: cfg.dl_proc,
            proxy_polling: matches!(
                cfg.polling,
                PollingStrategy::Proxy | PollingStrategy::ProxyInterrupt
            ),
        }
    }

    /// The proxy DIMM of each group.
    pub fn proxies(&self) -> &[usize] {
        &self.proxy
    }

    /// Group of a DIMM.
    pub fn group_of(&self, dimm: usize) -> usize {
        self.of[dimm].0
    }

    /// Intra-group hop distance, or `None` across groups.
    pub fn hop_distance(&self, a: usize, b: usize) -> Option<u32> {
        let (ga, la) = self.of[a];
        let (gb, lb) = self.of[b];
        (ga == gb).then(|| self.nets[ga].topology().distance(la, lb))
    }

    fn send(&mut self, now: Ps, src: usize, dst: usize, bytes: u64) -> Ps {
        let (g, ls) = self.of[src];
        let (gd, ld) = self.of[dst];
        debug_assert_eq!(g, gd, "send() is intra-group only");
        self.nets[g].send(now + self.dl_proc, ls, ld, bytes) + self.dl_proc
    }

    /// Total bytes moved over all links (per-hop).
    pub fn link_bytes(&self) -> u64 {
        self.nets.iter().map(|n| n.link_bytes()).sum()
    }
}

/// One of the four IDC mechanisms, holding its private resources.
#[derive(Debug)]
pub enum Interconnect {
    /// MCN / UPMEM style.
    CpuForwarding,
    /// AIM's shared bus.
    DedicatedBus {
        /// The multi-drop bus.
        bus: BandwidthResource,
        /// Arbitration + propagation latency per transaction.
        latency: Ps,
        /// Bus occupancy overhead per transaction (arbitration/turnaround).
        txn_overhead: Ps,
    },
    /// ABC-DIMM.
    AbcDimm,
    /// DIMM-Link. Boxed: the link state dwarfs the other variants.
    DimmLink(Box<DlState>),
}

impl Interconnect {
    /// Builds the mechanism configured in `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        match cfg.idc {
            IdcKind::CpuForwarding => Interconnect::CpuForwarding,
            IdcKind::AbcDimm => Interconnect::AbcDimm,
            IdcKind::DedicatedBus => Interconnect::DedicatedBus {
                bus: BandwidthResource::new("aim-bus", cfg.channel_bandwidth),
                latency: cfg.bus_latency,
                txn_overhead: cfg.bus_txn_overhead,
            },
            IdcKind::DimmLink => Interconnect::DimmLink(Box::new(DlState::new(cfg))),
            IdcKind::DimmLinkCxl => Interconnect::DimmLink(Box::new(DlState::with_fabric(
                cfg,
                Some(CxlFabric::new(
                    cfg.groups,
                    cfg.cxl_bandwidth,
                    cfg.cxl_latency,
                )),
            ))),
        }
    }

    /// The channels hosting polling-proxy DIMMs (for [`HostPath::new`]).
    pub fn proxy_channels(&self, cfg: &SystemConfig) -> Vec<usize> {
        match self {
            Interconnect::DimmLink(dl) if dl.proxy_polling => {
                dl.proxy.iter().map(|&d| cfg.channel_of(d)).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Delivers `bytes` from `src` to `dst`, returning `(arrival, route)`.
    ///
    /// # Panics
    /// Panics if `src == dst` (local traffic never enters the IDC layer).
    pub fn unicast(
        &mut self,
        host: &mut HostPath,
        cfg: &SystemConfig,
        now: Ps,
        src: usize,
        dst: usize,
        bytes: u64,
    ) -> (Ps, Route) {
        self.unicast_inner(host, cfg, now, src, dst, bytes, false)
    }

    /// Like [`Self::unicast`] but for synchronization messages, which pay
    /// the register-level host cost when they cross the host.
    pub fn sync_unicast(
        &mut self,
        host: &mut HostPath,
        cfg: &SystemConfig,
        now: Ps,
        src: usize,
        dst: usize,
        bytes: u64,
    ) -> (Ps, Route) {
        self.unicast_inner(host, cfg, now, src, dst, bytes, true)
    }

    #[allow(clippy::too_many_arguments)]
    fn unicast_inner(
        &mut self,
        host: &mut HostPath,
        cfg: &SystemConfig,
        now: Ps,
        src: usize,
        dst: usize,
        bytes: u64,
        sync: bool,
    ) -> (Ps, Route) {
        assert_ne!(src, dst, "local access must not use the interconnect");
        let fwd = |host: &mut HostPath, t: Ps, a: usize, b: usize| {
            if sync {
                host.forward_sync(t, a, b, bytes)
            } else {
                host.forward(t, a, b, bytes)
            }
        };
        match self {
            Interconnect::CpuForwarding | Interconnect::AbcDimm => {
                let disc = host.discover(now, cfg.channel_of(src), cfg.dimms_per_channel());
                let arrival = fwd(host, disc, cfg.channel_of(src), cfg.channel_of(dst));
                (arrival, Route::HostForward)
            }
            Interconnect::DedicatedBus {
                bus,
                latency,
                txn_overhead,
            } => {
                let data_done = bus.transfer(now, bytes);
                let released = bus.occupy(data_done, *txn_overhead);
                (released + *latency, Route::Bus)
            }
            Interconnect::DimmLink(dl) => {
                let (gs, _) = dl.of[src];
                let (gd, _) = dl.of[dst];
                if gs == gd {
                    (dl.send(now, src, dst, bytes), Route::Link)
                } else if dl.cxl.is_some() {
                    // Disaggregated organization: route to the blade's CXL
                    // port over the links, cross the fabric, then route to
                    // the destination inside its blade. The port sits at the
                    // blade's proxy/master DIMM.
                    let src_port = dl.proxy[gs];
                    let dst_port = dl.proxy[gd];
                    let at_port = if src == src_port {
                        now
                    } else {
                        dl.send(now, src, src_port, bytes)
                    };
                    let fabric = dl.cxl.as_mut().expect("checked is_some");
                    let landed = fabric.transfer(at_port, gs, gd, bytes);
                    let arrival = if dst == dst_port {
                        landed
                    } else {
                        dl.send(landed, dst_port, dst, bytes)
                    };
                    (arrival, Route::Cxl)
                } else {
                    // Inter-group: register, get discovered, be forwarded.
                    let (disc_channel, registered, scan) = if dl.proxy_polling {
                        let proxy = dl.proxy[gs];
                        let reg = if proxy == src {
                            now
                        } else {
                            dl.send(now, src, proxy, NOTIFY_BYTES)
                        };
                        (cfg.channel_of(proxy), reg, 1)
                    } else {
                        (cfg.channel_of(src), now, cfg.dimms_per_channel())
                    };
                    let disc = host.discover(registered, disc_channel, scan);
                    let arrival = fwd(host, disc, cfg.channel_of(src), cfg.channel_of(dst));
                    dl.notify_wait
                        .record((registered.saturating_sub(now)).as_ps());
                    dl.disc_wait
                        .record((disc.saturating_sub(registered)).as_ps());
                    dl.fwd_wait.record((arrival.saturating_sub(disc)).as_ps());
                    (arrival, Route::HostForward)
                }
            }
        }
    }

    /// Broadcasts `bytes` from `src` to every DIMM; returns per-DIMM arrival
    /// times (`arrivals[src] == now`).
    pub fn broadcast(
        &mut self,
        host: &mut HostPath,
        cfg: &SystemConfig,
        now: Ps,
        src: usize,
        bytes: u64,
    ) -> Vec<Ps> {
        let mut arrivals = vec![now; cfg.dimms];
        match self {
            Interconnect::CpuForwarding => {
                // MCN-BC: discover, read once, then write to every other
                // DIMM individually.
                let disc = host.discover(now, cfg.channel_of(src), cfg.dimms_per_channel());
                let read = host.channel_transfer(cfg.channel_of(src), disc, bytes);
                for (d, a) in arrivals.iter_mut().enumerate() {
                    if d != src {
                        let ready = host.host_process(read);
                        *a = host.channel_transfer(cfg.channel_of(d), ready, bytes);
                    }
                }
            }
            Interconnect::AbcDimm => {
                // Broadcast-read reaches same-channel peers in one
                // transaction; each other channel gets one forwarded
                // broadcast-write.
                let disc = host.discover(now, cfg.channel_of(src), cfg.dimms_per_channel());
                let read = host.channel_transfer(cfg.channel_of(src), disc, bytes);
                for (d, a) in arrivals.iter_mut().enumerate() {
                    if d != src && cfg.channel_of(d) == cfg.channel_of(src) {
                        *a = read;
                    }
                }
                for ch in 0..cfg.channels {
                    if ch != cfg.channel_of(src) {
                        let ready = host.host_process(read);
                        let w = host.channel_transfer(ch, ready, bytes);
                        for (d, a) in arrivals.iter_mut().enumerate() {
                            if cfg.channel_of(d) == ch {
                                *a = w;
                            }
                        }
                    }
                }
            }
            Interconnect::DedicatedBus {
                bus,
                latency,
                txn_overhead,
            } => {
                // One multi-drop transaction reaches everyone.
                let data_done = bus.transfer(now, bytes);
                let done = bus.occupy(data_done, *txn_overhead) + *latency;
                for (d, a) in arrivals.iter_mut().enumerate() {
                    if d != src {
                        *a = done;
                    }
                }
            }
            Interconnect::DimmLink(dl) => {
                // Own group over the links.
                let (gs, ls) = dl.of[src];
                let local = dl.nets[gs].broadcast(now + dl.dl_proc, ls, bytes);
                for (i, &d) in dl.groups[gs].clone().iter().enumerate() {
                    if d != src {
                        arrivals[d] = local[i] + dl.dl_proc;
                    }
                }
                // Other groups: ship once to each group's proxy (via CXL in
                // the disaggregated organization, host forwarding
                // otherwise), then broadcast within that group.
                if dl.cxl.is_some() {
                    let src_port = dl.proxy[gs];
                    let at_port = if src == src_port {
                        now
                    } else {
                        dl.send(now, src, src_port, bytes)
                    };
                    for g in 0..dl.groups.len() {
                        if g == gs {
                            continue;
                        }
                        let proxy = dl.proxy[g];
                        let landed = dl
                            .cxl
                            .as_mut()
                            .expect("checked is_some")
                            .transfer(at_port, gs, g, bytes);
                        let (_, lp) = dl.of[proxy];
                        let sub = dl.nets[g].broadcast(landed + dl.dl_proc, lp, bytes);
                        for (i, &d) in dl.groups[g].clone().iter().enumerate() {
                            arrivals[d] = if d == proxy {
                                landed
                            } else {
                                sub[i] + dl.dl_proc
                            };
                        }
                    }
                    return arrivals;
                }
                for g in 0..dl.groups.len() {
                    if g == gs {
                        continue;
                    }
                    let proxy = dl.proxy[g];
                    let (reg, scan_ch, scan) = if dl.proxy_polling {
                        let own_proxy = dl.proxy[gs];
                        let reg = if own_proxy == src {
                            now
                        } else {
                            dl.send(now, src, own_proxy, NOTIFY_BYTES)
                        };
                        (reg, cfg.channel_of(own_proxy), 1)
                    } else {
                        (now, cfg.channel_of(src), cfg.dimms_per_channel())
                    };
                    let disc = host.discover(reg, scan_ch, scan);
                    let at_proxy =
                        host.forward(disc, cfg.channel_of(src), cfg.channel_of(proxy), bytes);
                    let (_, lp) = dl.of[proxy];
                    let sub = dl.nets[g].broadcast(at_proxy + dl.dl_proc, lp, bytes);
                    for (i, &d) in dl.groups[g].clone().iter().enumerate() {
                        arrivals[d] = if d == proxy {
                            at_proxy
                        } else {
                            sub[i] + dl.dl_proc
                        };
                    }
                }
            }
        }
        arrivals
    }

    /// Bytes moved on mechanism-private media (links or dedicated bus).
    pub fn private_bytes(&self) -> u64 {
        match self {
            Interconnect::DimmLink(dl) => {
                dl.link_bytes() + dl.cxl.as_ref().map_or(0, |c| c.bytes_moved())
            }
            Interconnect::DedicatedBus { bus, .. } => bus.bytes_moved(),
            _ => 0,
        }
    }

    /// Access to DIMM-Link state (distance matrices, proxies), if this is a
    /// DIMM-Link interconnect.
    pub fn dimm_link(&self) -> Option<&DlState> {
        match self {
            Interconnect::DimmLink(dl) => Some(dl),
            _ => None,
        }
    }
}

/// The inter-DIMM distance matrix used by Algorithm 1's cost table:
/// intra-group hop counts, with host-forwarded pairs charged a large
/// constant (they are an order of magnitude slower than a link hop).
pub fn distance_matrix(cfg: &SystemConfig, idc: &Interconnect) -> Vec<Vec<u64>> {
    const HOST_PENALTY: u64 = 24;
    let n = cfg.dimms;
    match idc {
        Interconnect::DimmLink(dl) => (0..n)
            .map(|a| {
                (0..n)
                    .map(|b| match dl.hop_distance(a, b) {
                        Some(h) => h as u64,
                        None => HOST_PENALTY,
                    })
                    .collect()
            })
            .collect(),
        // Distance-oblivious mechanisms: every remote DIMM costs the same.
        _ => (0..n)
            .map(|a| (0..n).map(|b| if a == b { 0 } else { 1 }).collect())
            .collect(),
    }
}

/// Conservative lookahead for the partitioned engine: a lower bound on the
/// latency of *any* cross-DIMM interaction under `cfg`.
///
/// Two bounds are combined:
///
/// * **Probed unloaded latency** — every ordered DIMM pair is probed once
///   with a minimum-size data packet and once with a synchronization packet
///   on a fresh interconnect and host path. Probes are spaced 100 µs apart
///   (an exact multiple of every poll period in use) so reservations from
///   one probe cannot delay the next; the spacing is subtracted back out.
/// * **Analytic host floor** — interrupt-driven discovery coalesces
///   pending requests, so under load a forwarded packet can skip the
///   discovery wait the unloaded probe observes. The floor charges only
///   what every host-forwarded packet must always pay: two channel
///   crossings, the forwarding CPU occupancy, and the fixed processing
///   latency.
///
/// The result is floored at 1 ns so the epoch width is never degenerate.
/// Correctness of the partitioned engine does not depend on this value being
/// a true lower bound — deliveries are additionally clamped to the epoch
/// boundary — but a tight value keeps the model faithful and the epochs
/// wide.
pub fn min_cross_latency(cfg: &SystemConfig) -> Ps {
    let mut idc = Interconnect::new(cfg);
    let mut host = HostPath::new(cfg, &idc.proxy_channels(cfg));
    let spacing = Ps::from_us(100);
    let mut t = spacing;
    let mut min = Ps::MAX;
    for src in 0..cfg.dimms {
        for dst in 0..cfg.dimms {
            if src == dst {
                continue;
            }
            let (data, _) = idc.unicast(&mut host, cfg, t, src, dst, wire_bytes(0));
            min = min.min(data.saturating_sub(t));
            t += spacing;
            let (sync, _) = idc.sync_unicast(&mut host, cfg, t, src, dst, NOTIFY_BYTES);
            min = min.min(sync.saturating_sub(t));
            t += spacing;
        }
    }
    let host_floor = cfg.channel_latency
        + cfg.channel_latency
        + cfg.fwd_proc
        + cfg.fwd_occupancy.min(cfg.sync_fwd_occupancy);
    min.min(host_floor).max(Ps::from_ns(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dl_cfg() -> SystemConfig {
        SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLink)
    }

    #[test]
    fn min_cross_latency_is_positive_and_below_any_probe() {
        for kind in [
            IdcKind::CpuForwarding,
            IdcKind::DedicatedBus,
            IdcKind::AbcDimm,
            IdcKind::DimmLink,
            IdcKind::DimmLinkCxl,
        ] {
            let cfg = SystemConfig::nmp(16, 8).with_idc(kind);
            let w = min_cross_latency(&cfg);
            assert!(w >= Ps::from_ns(1), "{kind}: degenerate lookahead {w}");
            // An unloaded minimum-size unicast can never beat the bound.
            let mut idc = Interconnect::new(&cfg);
            let mut host = HostPath::new(&cfg, &idc.proxy_channels(&cfg));
            let (arrival, _) = idc.unicast(&mut host, &cfg, Ps::ZERO, 0, 1, wire_bytes(0));
            assert!(w <= arrival, "{kind}: lookahead {w} above probe {arrival}");
        }
    }

    #[test]
    fn wire_bytes_matches_protocol_flits() {
        assert_eq!(wire_bytes(0), 16); // read request: one flit
        assert_eq!(wire_bytes(64), 80); // one-line payload
        assert_eq!(wire_bytes(256), 272); // max packet: 17 flits
    }

    #[test]
    fn dl_intra_group_avoids_host() {
        let cfg = dl_cfg();
        let mut idc = Interconnect::new(&cfg);
        let mut host = HostPath::new(&cfg, &idc.proxy_channels(&cfg));
        let (arrival, route) = idc.unicast(&mut host, &cfg, Ps::ZERO, 0, 3, 80);
        assert_eq!(route, Route::Link);
        assert!(arrival < Ps::from_ns(100), "link path too slow: {arrival}");
        assert_eq!(host.forwarded_packets(), 0);
    }

    #[test]
    fn dl_inter_group_uses_host() {
        let cfg = dl_cfg();
        let mut idc = Interconnect::new(&cfg);
        let mut host = HostPath::new(&cfg, &idc.proxy_channels(&cfg));
        let (arrival, route) = idc.unicast(&mut host, &cfg, Ps::ZERO, 0, 12, 80);
        assert_eq!(route, Route::HostForward);
        assert!(arrival > Ps::from_ns(200), "host path too fast: {arrival}");
        assert_eq!(host.forwarded_packets(), 1);
    }

    #[test]
    fn mcn_always_pays_discovery_and_two_channels() {
        let cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::CpuForwarding);
        let mut idc = Interconnect::new(&cfg);
        let mut host = HostPath::new(&cfg, &[]);
        let (arrival, route) = idc.unicast(&mut host, &cfg, Ps::ZERO, 0, 1, 80);
        assert_eq!(route, Route::HostForward);
        // Discovery alone is >= poll boundary; total far above a link hop.
        assert!(arrival > Ps::from_ns(150));
    }

    #[test]
    fn aim_bus_serializes_everything() {
        let cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::DedicatedBus);
        let mut idc = Interconnect::new(&cfg);
        let mut host = HostPath::new(&cfg, &[]);
        let big = 1_000_000u64;
        let (a, r) = idc.unicast(&mut host, &cfg, Ps::ZERO, 0, 1, big);
        assert_eq!(r, Route::Bus);
        // A disjoint pair still queues behind the first transfer.
        let (b, _) = idc.unicast(&mut host, &cfg, Ps::ZERO, 4, 5, big);
        assert!(b > a, "dedicated bus must serialize disjoint pairs");
        assert_eq!(idc.private_bytes(), 2 * big);
    }

    #[test]
    fn dl_disjoint_pairs_scale_unlike_aim() {
        let cfg = dl_cfg();
        let mut idc = Interconnect::new(&cfg);
        let mut host = HostPath::new(&cfg, &idc.proxy_channels(&cfg));
        let big = 1_000_000u64;
        let (a, _) = idc.unicast(&mut host, &cfg, Ps::ZERO, 0, 1, big);
        let (b, _) = idc.unicast(&mut host, &cfg, Ps::ZERO, 2, 3, big);
        assert_eq!(a, b, "disjoint chain links must not contend");
    }

    #[test]
    fn broadcast_reaches_all_on_every_mechanism() {
        for kind in [
            IdcKind::CpuForwarding,
            IdcKind::DedicatedBus,
            IdcKind::AbcDimm,
            IdcKind::DimmLink,
        ] {
            let cfg = SystemConfig::nmp(16, 8).with_idc(kind);
            let mut idc = Interconnect::new(&cfg);
            let mut host = HostPath::new(&cfg, &idc.proxy_channels(&cfg));
            let arrivals = idc.broadcast(&mut host, &cfg, Ps::ZERO, 2, 272);
            assert_eq!(arrivals.len(), 16);
            for (d, a) in arrivals.iter().enumerate() {
                if d != 2 {
                    assert!(*a > Ps::ZERO, "{kind}: DIMM {d} unreached");
                }
            }
        }
    }

    #[test]
    fn broadcast_throughput_ordering_matches_paper() {
        // Every DIMM broadcasts a burst of packets concurrently (the
        // all-to-all pattern of PR-BC/SSSP-BC). Completion ordering for the
        // last delivery must match Fig. 12: AIM-BC (idealized single-
        // transaction bus) beats DIMM-Link, which beats ABC-DIMM, which
        // beats MCN-BC.
        let [mcn, aim, abc, dl] = [
            IdcKind::CpuForwarding,
            IdcKind::DedicatedBus,
            IdcKind::AbcDimm,
            IdcKind::DimmLink,
        ]
        .map(|kind| {
            let cfg = SystemConfig::nmp(16, 8).with_idc(kind);
            let mut idc = Interconnect::new(&cfg);
            let mut host = HostPath::new(&cfg, &idc.proxy_channels(&cfg));
            let mut last = Ps::ZERO;
            for round in 0..8 {
                for src in 0..16 {
                    let arrivals =
                        idc.broadcast(&mut host, &cfg, Ps::from_ns(round * 10), src, 272);
                    last = last.max(arrivals.into_iter().max().unwrap());
                }
            }
            last
        });
        // AIM-BC (idealized single bus transaction) and DIMM-Link trade
        // latency against aggregate link bandwidth: both must be fast and
        // within 2x of each other; end-to-end ordering is exercised by the
        // fig12 bench.
        let ratio = aim.as_ps() as f64 / dl.as_ps() as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "AIM {aim} vs DL {dl} diverged"
        );
        assert!(dl < abc, "DL {dl} vs ABC {abc}");
        assert!(abc <= mcn, "ABC {abc} vs MCN {mcn}");
    }

    #[test]
    fn distance_matrix_reflects_topology() {
        let cfg = dl_cfg();
        let idc = Interconnect::new(&cfg);
        let d = distance_matrix(&cfg, &idc);
        assert_eq!(d[0][0], 0);
        assert_eq!(d[0][1], 1);
        assert_eq!(d[0][7], 7);
        assert_eq!(d[0][8], 24); // cross-group penalty
                                 // MCN is distance-oblivious.
        let cfg2 = SystemConfig::nmp(16, 8).with_idc(IdcKind::CpuForwarding);
        let idc2 = Interconnect::new(&cfg2);
        let d2 = distance_matrix(&cfg2, &idc2);
        assert_eq!(d2[0][1], 1);
        assert_eq!(d2[0][15], 1);
    }

    #[test]
    fn proxies_sit_mid_group() {
        let cfg = dl_cfg();
        let idc = Interconnect::new(&cfg);
        let dl = idc.dimm_link().unwrap();
        assert_eq!(dl.proxies(), &[4, 12]);
        assert_eq!(dl.group_of(4), 0);
        assert_eq!(dl.hop_distance(0, 4), Some(4));
        assert_eq!(dl.hop_distance(0, 12), None);
    }
}

#[cfg(test)]
mod cxl_tests {
    use super::*;
    use crate::config::{IdcKind, SystemConfig};

    fn cxl_cfg() -> SystemConfig {
        SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLinkCxl)
    }

    #[test]
    fn inter_blade_avoids_the_host_entirely() {
        let cfg = cxl_cfg();
        let mut idc = Interconnect::new(&cfg);
        let mut host = HostPath::new(&cfg, &idc.proxy_channels(&cfg));
        let (arrival, route) = idc.unicast(&mut host, &cfg, Ps::ZERO, 0, 12, 80);
        assert_eq!(route, Route::Cxl);
        assert_eq!(host.forwarded_packets(), 0);
        // Links to the port + fabric latency + links from the port: well
        // under the host-forwarded path but above an intra-group hop.
        assert!(arrival > Ps::from_ns(250), "{arrival}");
        assert!(arrival < Ps::from_ns(600), "{arrival}");
    }

    #[test]
    fn cxl_beats_host_forwarding_inter_group() {
        let host_based = SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLink);
        let mut idc_h = Interconnect::new(&host_based);
        let mut hp = HostPath::new(&host_based, &idc_h.proxy_channels(&host_based));
        let (t_host, _) = idc_h.unicast(&mut hp, &host_based, Ps::ZERO, 0, 12, 80);

        let cfg = cxl_cfg();
        let mut idc_c = Interconnect::new(&cfg);
        let mut hp_c = HostPath::new(&cfg, &idc_c.proxy_channels(&cfg));
        let (t_cxl, _) = idc_c.unicast(&mut hp_c, &cfg, Ps::ZERO, 0, 12, 80);
        assert!(
            t_cxl < t_host,
            "CXL inter-blade ({t_cxl}) should beat host forwarding ({t_host})"
        );
    }

    #[test]
    fn intra_blade_still_uses_links() {
        let cfg = cxl_cfg();
        let mut idc = Interconnect::new(&cfg);
        let mut host = HostPath::new(&cfg, &idc.proxy_channels(&cfg));
        let (_, route) = idc.unicast(&mut host, &cfg, Ps::ZERO, 0, 3, 80);
        assert_eq!(route, Route::Link);
    }

    #[test]
    fn cxl_broadcast_reaches_all_blades() {
        let cfg = cxl_cfg();
        let mut idc = Interconnect::new(&cfg);
        let mut host = HostPath::new(&cfg, &idc.proxy_channels(&cfg));
        let arrivals = idc.broadcast(&mut host, &cfg, Ps::ZERO, 2, 272);
        for (d, a) in arrivals.iter().enumerate() {
            if d != 2 {
                assert!(*a > Ps::ZERO, "DIMM {d} unreached");
            }
        }
        assert_eq!(host.forwarded_packets(), 0);
        assert!(idc.private_bytes() > 0);
    }

    #[test]
    fn cxl_ports_serialize_per_blade() {
        let cfg = cxl_cfg();
        let mut idc = Interconnect::new(&cfg);
        let mut host = HostPath::new(&cfg, &idc.proxy_channels(&cfg));
        let big = 1_000_000u64;
        // Two transfers leaving the same blade contend for its port.
        let (a, _) = idc.unicast(&mut host, &cfg, Ps::ZERO, 4, 12, big);
        let (b, _) = idc.unicast(&mut host, &cfg, Ps::ZERO, 4, 12, big);
        assert!(
            b > a + Ps::from_us(20),
            "port contention missing: {a} then {b}"
        );
    }
}
