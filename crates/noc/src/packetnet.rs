//! Packet-level network model: per-link bandwidth reservation with
//! store-and-forward hop timing.

use crate::topology::Topology;
use crate::FLIT_BYTES;
use dl_engine::stats::StatSet;
use dl_engine::{BandwidthResource, Ps};
use serde::Serialize;

/// Head-flit size on the wire: the smaller of one protocol flit
/// ([`FLIT_BYTES`]) and the whole message.
fn head_flit_bytes(bytes: u64) -> u64 {
    (FLIT_BYTES as u64).min(bytes)
}

/// Propagation + transceiver latency of one GRS link hop.
pub const HOP_LATENCY: Ps = Ps::from_ns(5);
/// Router pipeline latency added at every intermediate router
/// (packetize/decode cost at the endpoints is charged by the caller).
pub const ROUTER_LATENCY: Ps = Ps::from_ns(3);

/// Physical parameters of one unidirectional SerDes link; its latencies
/// are [`HOP_LATENCY`] and [`ROUTER_LATENCY`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LinkParams {
    /// Usable bandwidth per direction, bytes per second.
    pub bytes_per_sec: u64,
}

impl LinkParams {
    /// GRS-based DL-Bridge default: 25 GB/s per direction (the paper's
    /// default DIMM-Link bandwidth).
    pub fn grs_25gbps() -> Self {
        LinkParams {
            bytes_per_sec: 25_000_000_000,
        }
    }

    /// A different bandwidth (for the Fig. 16 sweep).
    pub fn with_bandwidth(self, bytes_per_sec: u64) -> Self {
        LinkParams { bytes_per_sec }
    }
}

/// Event-driven packet-granularity network over a [`Topology`].
///
/// Each unidirectional link is a [`BandwidthResource`]; a transfer reserves
/// every link of its deterministic shortest route in order, so both
/// serialization delay and congestion queueing are modelled. Concurrent
/// transfers on disjoint links proceed in parallel, which is exactly the
/// property that lets DIMM-Link's aggregate bandwidth scale with the link
/// count (paper Table I: `#Link × β`).
///
/// Link occupancy may **split across idle gaps**
/// ([`BandwidthResource::transfer_split_with_start`]): a packet's bytes fill
/// whatever idle time the link has from its arrival onward, interleaving
/// with reservations made by earlier `send` calls whose traffic reaches the
/// link later. This mirrors flit-granular wormhole arbitration through the
/// DL-buffers — a contiguous-slot model instead inherits the *call order*
/// of `send` as a priority order, which the cycle-accurate cross-check
/// ([`crate::FlitNet`]) shows to be pessimistic under contention.
///
/// # Examples
///
/// ```
/// use dl_engine::Ps;
/// use dl_noc::{LinkParams, PacketNet, Topology, TopologyKind};
///
/// let topo = Topology::new(TopologyKind::Chain, 4);
/// let mut net = PacketNet::new(&topo, LinkParams::grs_25gbps());
/// // Two disjoint transfers overlap; two on the same link serialize.
/// let a = net.send(Ps::ZERO, 0, 1, 256);
/// let b = net.send(Ps::ZERO, 2, 3, 256);
/// assert_eq!(a, b);
/// let c = net.send(Ps::ZERO, 0, 1, 256);
/// assert!(c > a);
/// ```
#[derive(Debug)]
pub struct PacketNet {
    topo: Topology,
    links: Vec<BandwidthResource>,
    packets_sent: u64,
    broadcasts_sent: u64,
    total_hops: u64,
}

impl PacketNet {
    /// Builds the network, one [`BandwidthResource`] per unidirectional link.
    pub fn new(topo: &Topology, params: LinkParams) -> Self {
        let links = topo
            .iter_links()
            .map(|(id, a, b)| {
                BandwidthResource::new(format!("link{}:{}->{}", id.0, a, b), params.bytes_per_sec)
            })
            .collect();
        PacketNet {
            topo: topo.clone(),
            links,
            packets_sent: 0,
            broadcasts_sent: 0,
            total_hops: 0,
        }
    }

    /// Sends `bytes` from `src` to `dst`; returns the arrival time at `dst`.
    ///
    /// `src == dst` returns `now` (no network involvement).
    ///
    /// # Panics
    /// Panics if either node is out of range.
    pub fn send(&mut self, now: Ps, src: usize, dst: usize, bytes: u64) -> Ps {
        if src == dst {
            return now;
        }
        self.packets_sent += 1;
        let route = self.topo.route(src, dst);
        self.total_hops += route.len() as u64;
        let flit_time = self.links[route[0].0].duration_of(head_flit_bytes(bytes));
        let mut head = now;
        let mut tail = now;
        for (i, link) in route.iter().enumerate() {
            let (start, end) = self.links[link.0].transfer_split_with_start(head, bytes);
            // Head flit moves on after one flit time + wire/router latency;
            // the tail follows the full serialization. The tail only ever
            // moves later: a downstream link that happens to have early idle
            // gaps cannot finish before an upstream one.
            head = start + flit_time + HOP_LATENCY;
            if i + 1 < route.len() {
                head += ROUTER_LATENCY;
            }
            tail = tail.max(end + HOP_LATENCY);
        }
        tail.max(head)
    }

    /// Broadcasts `bytes` from `src` along the BFS tree; returns the arrival
    /// time at every node (index = node id; `arrivals[src] == now`).
    pub fn broadcast(&mut self, now: Ps, src: usize, bytes: u64) -> Vec<Ps> {
        self.broadcasts_sent += 1;
        let mut arrivals = vec![Ps::MAX; self.topo.len()];
        arrivals[src] = now;
        // Track head-flit arrival per node for cut-through forwarding.
        let flit_time = if self.links.is_empty() {
            Ps::ZERO
        } else {
            self.links[0].duration_of(head_flit_bytes(bytes))
        };
        let mut heads = vec![Ps::MAX; self.topo.len()];
        heads[src] = now;
        for (parent, child, link) in self.topo.broadcast_tree(src) {
            // Router pipeline latency only at intermediate routers, matching
            // `send`: the source injects directly, forwarders pay the router.
            let launch = if parent == src {
                heads[parent]
            } else {
                heads[parent] + ROUTER_LATENCY
            };
            let (start, end) = self.links[link.0].transfer_split_with_start(launch, bytes);
            heads[child] = start + flit_time + HOP_LATENCY;
            arrivals[child] = (end + HOP_LATENCY).max(heads[child]);
            self.total_hops += 1;
        }
        arrivals
    }

    /// The topology this network runs over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Total bytes moved across all links (counting each hop).
    pub fn link_bytes(&self) -> u64 {
        self.links.iter().map(|l| l.bytes_moved()).sum()
    }

    /// Unicast packets sent.
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Mean hops per unicast packet.
    pub fn mean_hops(&self) -> f64 {
        if self.packets_sent == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.packets_sent as f64
        }
    }

    /// Peak per-link utilization over `[0, total]`.
    pub fn max_link_utilization(&self, total: Ps) -> f64 {
        self.links
            .iter()
            .map(|l| l.utilization(total))
            .fold(0.0, f64::max)
    }

    /// Exports counters as named statistics.
    pub fn stats(&self, elapsed: Ps) -> StatSet {
        let mut s = StatSet::new();
        s.set("packets", self.packets_sent as f64);
        s.set("broadcasts", self.broadcasts_sent as f64);
        s.set("link_bytes", self.link_bytes() as f64);
        s.set("mean_hops", self.mean_hops());
        s.set("max_link_util", self.max_link_utilization(elapsed));
        s
    }

    /// Head-flit time for a packet of `bytes` (test helper).
    #[doc(hidden)]
    pub fn links_flit_time(&self, bytes: u64) -> Ps {
        self.links[0].duration_of(head_flit_bytes(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;

    fn net(kind: TopologyKind, n: usize) -> PacketNet {
        PacketNet::new(&Topology::new(kind, n), LinkParams::grs_25gbps())
    }

    #[test]
    fn self_send_is_free() {
        let mut n = net(TopologyKind::Chain, 4);
        assert_eq!(n.send(Ps::from_ns(5), 2, 2, 1000), Ps::from_ns(5));
        assert_eq!(n.packets_sent(), 0);
    }

    #[test]
    fn latency_grows_with_hops_pipelined() {
        let mut n = net(TopologyKind::Chain, 8);
        let one_hop = n.send(Ps::ZERO, 0, 1, 272);
        let mut n2 = net(TopologyKind::Chain, 8);
        let seven_hops = n2.send(Ps::ZERO, 0, 7, 272);
        // Cut-through: extra hops add ~ (flit + hop + router), not a full
        // re-serialization of the packet.
        let per_hop = n2.links_flit_time(272) + HOP_LATENCY + ROUTER_LATENCY;
        let expected_extra = per_hop * 6;
        let extra = seven_hops - one_hop;
        assert!(extra >= per_hop * 5, "extra {extra} too small");
        assert!(
            extra <= expected_extra + Ps::from_ns(10),
            "extra {extra} vs cut-through bound {expected_extra}"
        );
    }

    #[test]
    fn serialization_matches_bandwidth() {
        let mut n = net(TopologyKind::Chain, 2);
        let arrival = n.send(Ps::ZERO, 0, 1, 25_000); // 25 kB at 25 GB/s = 1 us
        assert_eq!(arrival, Ps::from_us(1) + HOP_LATENCY);
    }

    #[test]
    fn congestion_serializes_same_link() {
        let mut n = net(TopologyKind::Chain, 2);
        let a = n.send(Ps::ZERO, 0, 1, 1_000_000);
        let b = n.send(Ps::ZERO, 0, 1, 1_000_000);
        assert!(b.as_ps() >= 2 * (a.as_ps() - HOP_LATENCY.as_ps()));
        // Opposite direction is a distinct link: no contention.
        let c = n.send(Ps::ZERO, 1, 0, 1_000_000);
        assert_eq!(c, a);
    }

    #[test]
    fn disjoint_transfers_scale() {
        // Neighbour pairs (0,1) (2,3) (4,5) (6,7) all finish at the same
        // time: aggregate bandwidth = #links * beta (paper Table I).
        let mut n = net(TopologyKind::Chain, 8);
        let times: Vec<Ps> = (0..4)
            .map(|i| n.send(Ps::ZERO, 2 * i, 2 * i + 1, 100_000))
            .collect();
        assert!(times.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn broadcast_reaches_everyone_via_tree() {
        let mut n = net(TopologyKind::Chain, 8);
        let arrivals = n.broadcast(Ps::ZERO, 3, 272);
        assert_eq!(arrivals[3], Ps::ZERO);
        for (i, a) in arrivals.iter().enumerate() {
            assert_ne!(*a, Ps::MAX, "node {i} unreached");
        }
        // Chain broadcast from 3: node 0 is 3 hops, node 7 is 4 hops.
        assert!(arrivals[7] > arrivals[4]);
        assert!(arrivals[0] > arrivals[2]);
    }

    #[test]
    fn one_hop_broadcast_matches_one_hop_unicast() {
        // Regression: broadcast used to charge ROUTER_LATENCY on the first
        // hop out of the source, which `send` never does.
        let mut bc = net(TopologyKind::Chain, 2);
        let arrivals = bc.broadcast(Ps::ZERO, 0, 272);
        let mut uni = net(TopologyKind::Chain, 2);
        assert_eq!(arrivals[1], uni.send(Ps::ZERO, 0, 1, 272));
    }

    #[test]
    fn broadcast_arrival_equals_unicast_along_tree_paths() {
        // Uncontended, cut-through forwarding makes every broadcast arrival
        // identical to a fresh unicast over the same path, on any topology.
        for kind in [
            TopologyKind::Chain,
            TopologyKind::Ring,
            TopologyKind::Mesh,
            TopologyKind::Torus,
        ] {
            let topo = Topology::new(kind, 9);
            let mut bc = PacketNet::new(&topo, LinkParams::grs_25gbps());
            let arrivals = bc.broadcast(Ps::ZERO, 0, 272);
            // Tree paths are shortest paths, but `route` may pick a
            // different (equal-length) one, so only compare per tree depth.
            let mut depth = vec![usize::MAX; topo.len()];
            depth[0] = 0;
            for (parent, child, _) in topo.broadcast_tree(0) {
                depth[child] = depth[parent] + 1;
            }
            for dst in 1..topo.len() {
                let mut uni = PacketNet::new(&topo, LinkParams::grs_25gbps());
                // A unicast to any node at the same depth costs the same.
                let same_depth = (1..topo.len())
                    .find(|&d| topo.route(0, d).len() == depth[dst])
                    .unwrap();
                assert_eq!(
                    arrivals[dst],
                    uni.send(Ps::ZERO, 0, same_depth, 272),
                    "{kind:?} node {dst} at depth {}",
                    depth[dst]
                );
            }
        }
    }

    #[test]
    fn broadcast_from_middle_beats_end() {
        let mut from_mid = net(TopologyKind::Chain, 8);
        let mid = from_mid.broadcast(Ps::ZERO, 4, 272);
        let mut from_end = net(TopologyKind::Chain, 8);
        let end = from_end.broadcast(Ps::ZERO, 0, 272);
        let worst = |v: &[Ps]| v.iter().copied().max().unwrap();
        assert!(worst(&mid) < worst(&end));
    }

    #[test]
    fn torus_outruns_chain_under_uniform_traffic() {
        let mut chain = net(TopologyKind::Chain, 16);
        let mut torus = net(TopologyKind::Torus, 16);
        let mut chain_last = Ps::ZERO;
        let mut torus_last = Ps::ZERO;
        for s in 0..16 {
            for d in 0..16 {
                if s != d {
                    chain_last = chain_last.max(chain.send(Ps::ZERO, s, d, 4096));
                    torus_last = torus_last.max(torus.send(Ps::ZERO, s, d, 4096));
                }
            }
        }
        assert!(
            torus_last < chain_last,
            "torus {torus_last} should beat chain {chain_last}"
        );
        assert!(torus.mean_hops() < chain.mean_hops());
    }

    #[test]
    fn stats_count_packets_and_link_bytes() {
        let mut n = net(TopologyKind::Chain, 4);
        n.send(Ps::ZERO, 0, 3, 100);
        let s = n.stats(Ps::from_us(1));
        assert_eq!(s.get("packets"), Some(1.0));
        assert_eq!(s.get("link_bytes"), Some(300.0)); // 3 hops x 100 B
        assert!(s.get("max_link_util").unwrap() > 0.0);
    }

    #[test]
    fn bandwidth_sweep_scales_latency() {
        let topo = Topology::new(TopologyKind::Chain, 2);
        let slow = LinkParams::grs_25gbps().with_bandwidth(4_000_000_000);
        let fast = LinkParams::grs_25gbps().with_bandwidth(64_000_000_000);
        let mut ns = PacketNet::new(&topo, slow);
        let mut nf = PacketNet::new(&topo, fast);
        let ts = ns.send(Ps::ZERO, 0, 1, 1_000_000);
        let tf = nf.send(Ps::ZERO, 0, 1, 1_000_000);
        assert!(ts.as_ps() > 10 * tf.as_ps());
    }
}
