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
//!   proxy aggregating discovery (Section IV-A), or cross a CXL fabric
//!   between memory blades (Section VI).

use crate::config::{IdcKind, PollingStrategy, SystemConfig};
use crate::host::{HostPath, CHANNEL_LATENCY, FWD_OCCUPANCY, SYNC_FWD_OCCUPANCY};
use dl_engine::{BandwidthResource, Ps};

use dl_noc::{PacketNet, Topology};

/// Wire size of a packet carrying `payload` bytes.
pub use dl_noc::wire_bytes;

/// Size of a forwarding-request notification packet (no payload: one flit).
pub const NOTIFY_BYTES: u64 = wire_bytes(0);

/// DL-Controller packetize/decode latency per link endpoint.
const DL_PROC: Ps = Ps::from_ns(10);

/// Per-blade CXL port bandwidth in bytes/s (CXL 2.0 x8-class).
const CXL_BANDWIDTH: u64 = 32_000_000_000;

/// One-way latency of the AIM dedicated bus: arbitration among all DIMMs
/// plus propagation along a heavily-loaded multi-drop trace (the
/// signal-integrity-constrained topology the paper criticizes runs far
/// slower than a point-to-point link).
const BUS_LATENCY: Ps = Ps::from_ns(45);

/// Arbitration + bus-turnaround occupancy per transaction on the AIM bus
/// (shared-bus small-packet inefficiency).
const BUS_TXN_OVERHEAD: Ps = Ps::from_ns(2);

/// Which path a delivery took (drives the Fig. 11 traffic breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// DIMM-Link SerDes links within a group.
    Link,
    /// Host-CPU forwarding over the memory channels.
    HostForward,
    /// The AIM dedicated bus.
    Bus,
    /// The inter-blade CXL fabric (disaggregated organization).
    Cxl,
}

/// A CXL-class blade fabric: one full-duplex port per blade plus a switch.
#[derive(Debug)]
pub struct CxlFabric {
    /// The two sides of each blade's full-duplex port, each its own
    /// resource: a blade's sends queue at its egress, packets converging
    /// on a blade at its ingress.
    egress: Vec<BandwidthResource>,
    ingress: Vec<BandwidthResource>,
    /// One-way latency (port + switch + wire).
    latency: Ps,
}

impl CxlFabric {
    fn new(blades: usize, latency: Ps) -> Self {
        CxlFabric {
            egress: (0..blades)
                .map(|b| BandwidthResource::new(format!("cxl-egress{b}"), CXL_BANDWIDTH))
                .collect(),
            ingress: (0..blades)
                .map(|b| BandwidthResource::new(format!("cxl-ingress{b}"), CXL_BANDWIDTH))
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
    /// DIMM, per Section III-D's heuristic). It is also the group's CXL
    /// port in the disaggregated organization.
    proxy: Vec<usize>,
    proxy_polling: bool,
    /// Stage timings of inter-group sends (diagnostics).
    pub notify_wait: dl_engine::stats::Histogram,
    /// Discovery wait (registration to host pickup).
    pub disc_wait: dl_engine::stats::Histogram,
    /// Forward time (pickup to arrival).
    pub fwd_wait: dl_engine::stats::Histogram,
}

impl DlState {
    fn new(cfg: &SystemConfig) -> Self {
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
            notify_wait: dl_engine::stats::Histogram::new(),
            disc_wait: dl_engine::stats::Histogram::new(),
            fwd_wait: dl_engine::stats::Histogram::new(),
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

    /// Sends `bytes` over the links from `src` to `dst` in the same group,
    /// through the DL-Controller at each end; a DIMM reaches itself at once.
    fn send(&mut self, now: Ps, src: usize, dst: usize, bytes: u64) -> Ps {
        if src == dst {
            return now;
        }
        let (g, ls) = self.of[src];
        let (gd, ld) = self.of[dst];
        debug_assert_eq!(g, gd, "send() is intra-group only");
        self.nets[g].send(now + DL_PROC, ls, ld, bytes) + DL_PROC
    }

    /// The hop from `dimm` to its group's proxy (its CXL port); `now` at
    /// the proxy itself.
    fn hop_to_proxy(&mut self, now: Ps, dimm: usize, bytes: u64) -> Ps {
        self.send(now, dimm, self.proxy[self.group_of(dimm)], bytes)
    }

    /// Registers a forwarding request from `src` with the host and waits
    /// for the host to discover it: at `src` itself, or one notification
    /// away at its group's proxy when the proxy aggregates discovery.
    /// Returns `(registered, discovered)`.
    fn register(
        &mut self,
        host: &mut HostPath,
        cfg: &SystemConfig,
        now: Ps,
        src: usize,
    ) -> (Ps, Ps) {
        let (registered, channel, scan) = if self.proxy_polling {
            let proxy = self.proxy[self.group_of(src)];
            let registered = self.hop_to_proxy(now, src, NOTIFY_BYTES);
            (registered, cfg.channel_of(proxy), 1)
        } else {
            (now, cfg.channel_of(src), cfg.dimms_per_channel())
        };
        (registered, host.discover(registered, channel, scan))
    }

    /// Broadcasts `bytes` over the links of `from`'s group, leaving `from`
    /// at `at`, and records when each member has it.
    fn fan_out(&mut self, arrivals: &mut [Ps], from: usize, at: Ps, bytes: u64) {
        let (g, local) = self.of[from];
        let reached = self.nets[g].broadcast(at + DL_PROC, local, bytes);
        for (&d, &t) in self.groups[g].iter().zip(&reached) {
            arrivals[d] = if d == from { at } else { t + DL_PROC };
        }
    }

    /// The inter-group crossing. Carries `bytes` from `src` to `dst` in
    /// another group, or with `dst == None` to the proxy of every other
    /// group, and hands each arrival to `land(self, to, at, waits)`:
    /// `waits` holds the host's `(registered, discovered)` times when the
    /// host forwarded the packet.
    ///
    /// Over the CXL `fabric` the packet hops to `src`'s port once, on its
    /// first crossing, crosses to each group's port, and hops on to its
    /// target there. Without one it is registered, discovered and
    /// forwarded by the host straight to the target's channel, once per
    /// group.
    #[allow(clippy::too_many_arguments)]
    fn cross(
        &mut self,
        fabric: Option<&mut CxlFabric>,
        host: &mut HostPath,
        cfg: &SystemConfig,
        now: Ps,
        src: usize,
        dst: Option<usize>,
        bytes: u64,
        sync: bool,
        mut land: impl FnMut(&mut Self, usize, Ps, Option<(Ps, Ps)>),
    ) -> Route {
        let gs = self.group_of(src);
        let into = match dst {
            Some(dst) => self.group_of(dst)..self.group_of(dst) + 1,
            None => 0..self.groups.len(),
        };
        let into = into.filter(|&g| g != gs);
        match fabric {
            Some(fabric) => {
                let mut at_port = None;
                for g in into {
                    let at_port =
                        *at_port.get_or_insert_with(|| self.hop_to_proxy(now, src, bytes));
                    let to = dst.unwrap_or(self.proxy[g]);
                    let landed = fabric.transfer(at_port, gs, g, bytes);
                    let at = self.send(landed, self.proxy[g], to, bytes);
                    land(self, to, at, None);
                }
                Route::Cxl
            }
            None => {
                for g in into {
                    let to = dst.unwrap_or(self.proxy[g]);
                    let (registered, discovered) = self.register(host, cfg, now, src);
                    let (from, to_channel) = (cfg.channel_of(src), cfg.channel_of(to));
                    let at = host.forward(discovered, from, to_channel, bytes, sync);
                    land(self, to, at, Some((registered, discovered)));
                }
                Route::HostForward
            }
        }
    }

    /// Total bytes moved over all links (per-hop).
    pub fn link_bytes(&self) -> u64 {
        self.nets.iter().map(|n| n.link_bytes()).sum()
    }
}

/// One AIM bus transaction carrying `bytes` from `now`: the transfer, the
/// per-transaction overhead, then the latency to the far end.
fn bus_transaction(bus: &mut BandwidthResource, now: Ps, bytes: u64) -> Ps {
    let data_done = bus.transfer(now, bytes);
    bus.occupy(data_done, BUS_TXN_OVERHEAD) + BUS_LATENCY
}

/// One of the four IDC mechanisms, holding its private resources.
#[derive(Debug)]
pub enum Interconnect {
    /// MCN / UPMEM style.
    CpuForwarding,
    /// AIM's shared multi-drop bus.
    DedicatedBus(BandwidthResource),
    /// ABC-DIMM.
    AbcDimm,
    /// DIMM-Link, with the CXL fabric between its groups in the
    /// disaggregated organization (`None`: the host forwards between
    /// groups). Boxed: the link state dwarfs the other variants.
    DimmLink(Box<DlState>, Option<CxlFabric>),
}

impl Interconnect {
    /// Builds the mechanism configured in `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        match cfg.idc {
            IdcKind::CpuForwarding => Interconnect::CpuForwarding,
            IdcKind::AbcDimm => Interconnect::AbcDimm,
            IdcKind::DedicatedBus => {
                Interconnect::DedicatedBus(BandwidthResource::new("aim-bus", cfg.channel_bandwidth))
            }
            IdcKind::DimmLink => Interconnect::DimmLink(Box::new(DlState::new(cfg)), None),
            IdcKind::DimmLinkCxl => Interconnect::DimmLink(
                Box::new(DlState::new(cfg)),
                Some(CxlFabric::new(cfg.groups, cfg.cxl_latency)),
            ),
        }
    }

    /// The channels hosting polling-proxy DIMMs (for [`HostPath::new`]).
    pub fn proxy_channels(&self, cfg: &SystemConfig) -> Vec<usize> {
        match self {
            Interconnect::DimmLink(dl, _) if dl.proxy_polling => {
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
        match self {
            Interconnect::CpuForwarding | Interconnect::AbcDimm => {
                let (from, to) = (cfg.channel_of(src), cfg.channel_of(dst));
                let disc = host.discover(now, from, cfg.dimms_per_channel());
                let arrival = host.forward(disc, from, to, bytes, sync);
                (arrival, Route::HostForward)
            }
            Interconnect::DedicatedBus(bus) => (bus_transaction(bus, now, bytes), Route::Bus),
            Interconnect::DimmLink(dl, fabric) => {
                if dl.group_of(src) == dl.group_of(dst) {
                    return (dl.send(now, src, dst, bytes), Route::Link);
                }
                let mut arrival = now;
                let route = dl.cross(
                    fabric.as_mut(),
                    host,
                    cfg,
                    now,
                    src,
                    Some(dst),
                    bytes,
                    sync,
                    |dl, _, at, waits| {
                        if let Some((reg, disc)) = waits {
                            dl.notify_wait.record(reg.saturating_sub(now).as_ps());
                            dl.disc_wait.record(disc.saturating_sub(reg).as_ps());
                            dl.fwd_wait.record(at.saturating_sub(disc).as_ps());
                        }
                        arrival = at;
                    },
                );
                (arrival, route)
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
                let home = cfg.channel_of(src);
                let disc = host.discover(now, home, cfg.dimms_per_channel());
                let read = host.channel_transfer(home, disc, bytes);
                let mut written = vec![read; cfg.channels];
                for (ch, w) in written.iter_mut().enumerate() {
                    if ch != home {
                        let ready = host.host_process(read);
                        *w = host.channel_transfer(ch, ready, bytes);
                    }
                }
                for (d, a) in arrivals.iter_mut().enumerate() {
                    if d != src {
                        *a = written[cfg.channel_of(d)];
                    }
                }
            }
            Interconnect::DedicatedBus(bus) => {
                // One multi-drop transaction reaches everyone.
                arrivals.fill(bus_transaction(bus, now, bytes));
                arrivals[src] = now;
            }
            Interconnect::DimmLink(dl, fabric) => {
                // Own group over the links; each other group from its proxy
                // once the packet has crossed to it.
                dl.fan_out(&mut arrivals, src, now, bytes);
                dl.cross(
                    fabric.as_mut(),
                    host,
                    cfg,
                    now,
                    src,
                    None,
                    bytes,
                    false,
                    |dl, proxy, at, _| dl.fan_out(&mut arrivals, proxy, at, bytes),
                );
            }
        }
        arrivals
    }

    /// Bytes moved on mechanism-private media (links or dedicated bus).
    pub fn private_bytes(&self) -> u64 {
        match self {
            Interconnect::DimmLink(dl, fabric) => {
                dl.link_bytes() + fabric.as_ref().map_or(0, |f| f.bytes_moved())
            }
            Interconnect::DedicatedBus(bus) => bus.bytes_moved(),
            _ => 0,
        }
    }

    /// Access to DIMM-Link state (distance matrices, proxies), if this is a
    /// DIMM-Link interconnect.
    pub fn dimm_link(&self) -> Option<&DlState> {
        match self {
            Interconnect::DimmLink(dl, _) => Some(dl),
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
        Interconnect::DimmLink(dl, _) => (0..n)
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
    let host_floor =
        CHANNEL_LATENCY + CHANNEL_LATENCY + cfg.fwd_proc + FWD_OCCUPANCY.min(SYNC_FWD_OCCUPANCY);
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

    #[test]
    fn a_one_group_cxl_broadcast_matches_dimm_link() {
        // With one group no broadcast leaves it, so the CXL organization
        // must fan out over the links just as DIMM-Link does: no hop to a
        // port that nothing crosses from.
        for polling in [PollingStrategy::Base, PollingStrategy::BaseInterrupt] {
            let [cxl, dl] = [IdcKind::DimmLinkCxl, IdcKind::DimmLink].map(|kind| {
                let mut cfg = SystemConfig::nmp(4, 2).with_idc(kind);
                cfg.polling = polling;
                let mut idc = Interconnect::new(&cfg);
                let mut host = HostPath::new(&cfg, &idc.proxy_channels(&cfg));
                let arrivals: Vec<Vec<Ps>> = (0..cfg.dimms)
                    .map(|src| {
                        let now = Ps::from_ns(10 * src as u64);
                        idc.broadcast(&mut host, &cfg, now, src, wire_bytes(256))
                    })
                    .collect();
                (arrivals, idc.private_bytes())
            });
            assert_eq!(cxl, dl, "{polling}");
        }
    }

    /// Every delivery the interconnect makes, pinned: one seeded mix of
    /// unicasts, sync unicasts and broadcasts on every mechanism under each
    /// polling strategy it accepts, at four system sizes (the largest with
    /// four groups, so a broadcast crosses into several groups). The hash
    /// covers each arrival and route, the host and link counters, the
    /// DIMM-Link stage histograms, the lookahead and the distance matrix.
    /// Reservations that change order or count move it.
    #[test]
    fn reservation_sequences_are_pinned() {
        const PINNED: u64 = 0xbcf5_b85b_d779_a8aa;
        let mut wide = SystemConfig::nmp(32, 16);
        wide.groups = 4;
        let systems = [
            SystemConfig::nmp(4, 2),
            SystemConfig::nmp(12, 6),
            SystemConfig::nmp(16, 8),
            wide,
        ];
        let mut hash = dl_engine::Fnv1a::new();
        for system in systems {
            for kind in [
                IdcKind::CpuForwarding,
                IdcKind::DedicatedBus,
                IdcKind::AbcDimm,
                IdcKind::DimmLink,
                IdcKind::DimmLinkCxl,
            ] {
                for polling in [
                    PollingStrategy::Base,
                    PollingStrategy::BaseInterrupt,
                    PollingStrategy::Proxy,
                    PollingStrategy::ProxyInterrupt,
                ] {
                    let mut cfg = system.clone().with_idc(kind);
                    cfg.polling = polling;
                    if cfg.validate().is_err() {
                        continue;
                    }
                    let mut idc = Interconnect::new(&cfg);
                    let mut host = HostPath::new(&cfg, &idc.proxy_channels(&cfg));
                    let mut rng = dl_engine::DetRng::seed(42);
                    let mut t = Ps::ZERO;
                    for _ in 0..300 {
                        t += Ps::from_ps(rng.below(120_000));
                        let src = rng.below(cfg.dimms as u64) as usize;
                        let dst = (src + 1 + rng.below(cfg.dimms as u64 - 1) as usize) % cfg.dimms;
                        let bytes = [NOTIFY_BYTES, wire_bytes(64), wire_bytes(256), 4096]
                            [rng.below(4) as usize];
                        match rng.below(3) {
                            0 => {
                                let (at, route) = idc.unicast(&mut host, &cfg, t, src, dst, bytes);
                                hash.write_u64(at.as_ps());
                                hash.write_u64(route as u64);
                            }
                            1 => {
                                let (at, route) =
                                    idc.sync_unicast(&mut host, &cfg, t, src, dst, NOTIFY_BYTES);
                                hash.write_u64(at.as_ps());
                                hash.write_u64(route as u64);
                            }
                            _ => {
                                for at in idc.broadcast(&mut host, &cfg, t, src, bytes) {
                                    hash.write_u64(at.as_ps());
                                }
                            }
                        }
                    }
                    let end = t + Ps::from_us(100);
                    host.finalize(end);
                    for word in [
                        host.forwarded_packets(),
                        host.polls(),
                        host.interrupts(),
                        host.channel_bytes(),
                        idc.private_bytes(),
                        host.bus_occupancy(end).to_bits(),
                        min_cross_latency(&cfg).as_ps(),
                    ] {
                        hash.write_u64(word);
                    }
                    if let Some(dl) = idc.dimm_link() {
                        for h in [&dl.notify_wait, &dl.disc_wait, &dl.fwd_wait] {
                            hash.write_u64(h.mean().to_bits());
                            hash.write_u64(h.max());
                        }
                    }
                    for row in distance_matrix(&cfg, &idc) {
                        for d in row {
                            hash.write_u64(d);
                        }
                    }
                }
            }
        }
        let hash = hash.finish();
        assert_eq!(hash, PINNED, "reservation sequences moved: {hash:#018x}");
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
