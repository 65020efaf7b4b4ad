//! Flit-level network model: cycle-stepped wormhole routers with virtual
//! channels and credit-based flow control.
//!
//! This is the high-fidelity counterpart of [`crate::PacketNet`], playing
//! the role BookSim plays for MultiPIM: it resolves contention flit by flit
//! (per-VC input buffers with credits, round-robin switch arbitration) and
//! is used to validate the packet-level model's latency/bandwidth behaviour
//! (see the `ablation_fidelity` bench).
//!
//! Deadlock freedom: single-VC wormhole routing is safe only for acyclic
//! channel dependency graphs (the chain and mesh topologies). For the
//! **ring** and **torus** alternatives of Section VI, configure two virtual
//! channels: packets start on VC 0 and switch to VC 1 after crossing a
//! dateline (any wrap-around link, see [`Topology::is_wrap_link`]), which
//! breaks the channel dependency cycle in the classical way. A watchdog in
//! [`FlitNet::run_until_idle`] turns any remaining deadlock into a panic
//! rather than a hang.

use crate::topology::{LinkId, Topology, TopologyKind};
use crate::FLIT_BYTES;
use dl_engine::Ps;
use std::collections::VecDeque;

/// Configuration for the flit-level model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitNetConfig {
    /// Input buffer depth per link per virtual channel, in flits (also the
    /// credit count).
    pub buffer_depth: usize,
    /// Bytes carried per flit (DIMM-Link: 16).
    pub flit_bytes: u32,
    /// Duration of one network cycle (one flit per link per cycle); for a
    /// 25 GB/s link moving 16-byte flits this is 640 ps.
    pub cycle_time: Ps,
    /// Extra pipeline cycles per link traversal (GRS wire + router
    /// pipeline; 8 ns at 640 ps/cycle = 13 cycles).
    pub pipeline_per_hop: u64,
    /// Virtual channels per link (1 for the chain; 2 for rings, with
    /// dateline VC switching).
    pub vcs: usize,
}

impl FlitNetConfig {
    /// Matches [`crate::LinkParams::grs_25gbps`]: 16-byte flits at 25 GB/s.
    pub fn grs_25gbps() -> Self {
        FlitNetConfig {
            // Deep enough to cover the credit round trip over the 13-cycle
            // wire pipeline, so a link can sustain one flit per cycle.
            buffer_depth: 24,
            flit_bytes: FLIT_BYTES as u32,
            cycle_time: Ps::from_ps(640),
            pipeline_per_hop: 13,
            vcs: 1,
        }
    }

    /// The ring variant: two virtual channels with dateline switching.
    pub fn grs_25gbps_ring() -> Self {
        FlitNetConfig {
            vcs: 2,
            ..Self::grs_25gbps()
        }
    }

    /// The deadlock-safe configuration for `kind`: two virtual channels
    /// with dateline switching where wrap links close dependency cycles
    /// (ring, torus), one VC otherwise (chain, mesh).
    pub fn for_topology(kind: TopologyKind) -> Self {
        match kind {
            TopologyKind::Chain | TopologyKind::Mesh => Self::grs_25gbps(),
            TopologyKind::Ring | TopologyKind::Torus => Self::grs_25gbps_ring(),
        }
    }
}

/// Handle to an injected packet, used to chain dependent injections
/// (see [`FlitNet::inject_after`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef(usize);

#[derive(Debug, Clone, Copy)]
struct FlitTag {
    pkt: usize,
    is_tail: bool,
}

#[derive(Debug)]
struct PacketState {
    id: u64,
    src: usize,
    dst: usize,
    /// `next_link[node]` = outgoing link towards dst, `None` at dst.
    next_link: Vec<Option<LinkId>>,
    /// Virtual channel assigned on each link of the route.
    vc_on_link: Vec<u8>,
    flits_total: u32,
    flits_ejected: u32,
    injected_at: u64,
    /// Chained packets this one feeds (cut-through forwarding): each flit
    /// ejected here releases one flit of every child.
    feeds: Vec<usize>,
    /// Flits not yet placed in the injection queue (chained packets only).
    unreleased: u32,
}

impl PacketState {
    fn vc_of(&self, link: LinkId) -> usize {
        self.vc_on_link[link.0] as usize
    }
}

#[derive(Debug)]
struct VcState {
    /// Flits buffered at the downstream router's input, this VC.
    buf: VecDeque<FlitTag>,
    /// Credits available to the upstream sender, this VC.
    credits: usize,
}

#[derive(Debug)]
struct LinkState {
    vcs: Vec<VcState>,
    /// Flits in flight on the wire: (flit, arrival cycle, vc).
    staged: Vec<(FlitTag, u64, usize)>,
}

#[derive(Debug, Clone, Copy)]
struct InputRef {
    /// Incoming link, or `None` for the local injection port.
    link: Option<LinkId>,
    vc: usize,
}

#[derive(Debug)]
struct OutPort {
    /// Wormhole ownership per output VC: the input currently bound to it.
    locked: Vec<Option<InputRef>>,
    /// Round-robin pointer over candidate inputs (per output VC).
    rr: Vec<usize>,
    /// Round-robin pointer over VCs for the shared physical link.
    vc_rr: usize,
}

/// A delivered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Caller-visible packet id.
    pub id: u64,
    /// Destination node the tail flit was ejected at.
    pub dst: usize,
    /// Cycle the tail flit was ejected.
    pub cycle: u64,
    /// Latency in cycles from injection to tail ejection.
    pub latency_cycles: u64,
}

/// Cycle-stepped flit-level network.
///
/// # Examples
///
/// ```
/// use dl_noc::{FlitNet, FlitNetConfig, Topology, TopologyKind};
///
/// let topo = Topology::new(TopologyKind::Chain, 4);
/// let mut net = FlitNet::new(&topo, FlitNetConfig::grs_25gbps());
/// net.inject(7, 0, 3, 17); // a max-size packet: 17 flits across 3 hops
/// let done = net.run_until_idle(10_000);
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].id, 7);
/// ```
#[derive(Debug)]
pub struct FlitNet {
    topo: Topology,
    cfg: FlitNetConfig,
    links: Vec<LinkState>,
    /// Per node: incoming link ids.
    in_links: Vec<Vec<LinkId>>,
    /// Per *output link*: injection queue of locally-sourced flits. Keyed
    /// by the packet's first route link so that same-source packets headed
    /// out different links inject in parallel, matching [`crate::PacketNet`]
    /// (a single per-node queue would serialize them).
    inject_q: Vec<VecDeque<FlitTag>>,
    out_ports: Vec<OutPort>,
    packets: Vec<PacketState>,
    cycle: u64,
    delivered: Vec<Delivery>,
    in_flight: usize,
}

impl FlitNet {
    /// Builds the network.
    ///
    /// # Panics
    /// Panics if `buffer_depth` or `vcs` is zero.
    pub fn new(topo: &Topology, cfg: FlitNetConfig) -> Self {
        assert!(cfg.buffer_depth > 0, "buffer_depth must be >= 1");
        assert!(cfg.vcs > 0, "vcs must be >= 1");
        let n = topo.len();
        let mut in_links = vec![Vec::new(); n];
        for (id, _, to) in topo.iter_links() {
            in_links[to].push(id);
        }
        let links = (0..topo.link_count())
            .map(|_| LinkState {
                vcs: (0..cfg.vcs)
                    .map(|_| VcState {
                        buf: VecDeque::new(),
                        credits: cfg.buffer_depth,
                    })
                    .collect(),
                staged: Vec::new(),
            })
            .collect();
        let out_ports = (0..topo.link_count())
            .map(|_| OutPort {
                locked: vec![None; cfg.vcs],
                rr: vec![0; cfg.vcs],
                vc_rr: 0,
            })
            .collect();
        FlitNet {
            topo: topo.clone(),
            cfg,
            links,
            in_links,
            inject_q: vec![VecDeque::new(); topo.link_count()],
            out_ports,
            packets: Vec::new(),
            cycle: 0,
            delivered: Vec::new(),
            in_flight: 0,
        }
    }

    /// Queues a packet of `flits` flits for injection at `src`. Returns a
    /// handle for chaining (see [`inject_after`](Self::inject_after)).
    ///
    /// With multiple VCs, the packet is assigned VC 0 until its route
    /// crosses a dateline (any wrap-around link per
    /// [`Topology::is_wrap_link`]), and VC 1 afterwards.
    ///
    /// # Panics
    /// Panics if `src == dst`, a node is out of range, or `flits == 0`.
    pub fn inject(&mut self, id: u64, src: usize, dst: usize, flits: u32) -> PacketRef {
        let pkt = self.new_packet(id, src, dst, flits);
        self.release_chained(pkt, flits);
        PacketRef(pkt)
    }

    /// Queues a packet whose flits are released by `parent`'s ejections at
    /// `src` — cut-through forwarding: each parent flit ejected frees one
    /// flit of this packet, so a broadcast relay starts forwarding as soon
    /// as the head arrives rather than store-and-forwarding whole packets.
    ///
    /// # Panics
    /// Panics like [`inject`](Self::inject), or if `src` is not the
    /// parent's destination, or the parent already finished ejecting.
    pub fn inject_after(
        &mut self,
        id: u64,
        src: usize,
        dst: usize,
        flits: u32,
        parent: PacketRef,
    ) -> PacketRef {
        let pkt = self.new_packet(id, src, dst, flits);
        let p = &self.packets[parent.0];
        assert_eq!(p.dst, src, "chained packet must start where parent ends");
        // Credit the child with whatever the parent already ejected.
        let already = p.flits_ejected;
        assert!(
            already < p.flits_total,
            "parent fully ejected; use inject instead"
        );
        self.packets[parent.0].feeds.push(pkt);
        if already > 0 {
            self.release_chained(pkt, already);
        }
        PacketRef(pkt)
    }

    /// Broadcasts a packet from `src` over the BFS tree (the same tree
    /// [`crate::PacketNet::broadcast`] uses), forwarding cut-through at
    /// every relay. Every copy carries `id`; deliveries are distinguished
    /// by [`Delivery::dst`].
    ///
    /// # Panics
    /// Panics if `src` is out of range or `flits == 0`.
    pub fn inject_broadcast(&mut self, id: u64, src: usize, flits: u32) {
        let mut refs: Vec<Option<PacketRef>> = vec![None; self.topo.len()];
        for (parent, child, _) in self.topo.broadcast_tree(src) {
            let r = if parent == src {
                self.inject(id, src, child, flits)
            } else {
                let pref = refs[parent].expect("BFS order visits parent first");
                self.inject_after(id, parent, child, flits, pref)
            };
            refs[child] = Some(r);
        }
    }

    fn new_packet(&mut self, id: u64, src: usize, dst: usize, flits: u32) -> usize {
        assert_ne!(src, dst, "self-injection is not a network transfer");
        assert!(flits > 0, "empty packet");
        let mut next_link = vec![None; self.topo.len()];
        let mut vc_on_link = vec![0u8; self.topo.link_count()];
        let mut cur = src;
        let mut vc = 0u8;
        for l in self.topo.route(src, dst) {
            next_link[cur] = Some(l);
            vc_on_link[l.0] = vc;
            // Dateline rule: crossing any wrap link bumps the VC, breaking
            // the ring/torus channel dependency cycle.
            if self.cfg.vcs > 1 && self.topo.is_wrap_link(l) {
                vc = 1;
            }
            cur = self.topo.endpoints(l).1;
        }
        let pkt = self.packets.len();
        self.packets.push(PacketState {
            id,
            src,
            dst,
            next_link,
            vc_on_link,
            flits_total: flits,
            flits_ejected: 0,
            injected_at: self.cycle,
            feeds: Vec::new(),
            unreleased: flits,
        });
        self.in_flight += 1;
        pkt
    }

    /// Moves up to `count` of `pkt`'s unreleased flits into the injection
    /// queue of its first route link.
    fn release_chained(&mut self, pkt: usize, count: u32) {
        let p = &mut self.packets[pkt];
        let n = count.min(p.unreleased);
        if n == 0 {
            return;
        }
        if p.unreleased == p.flits_total {
            // First release: latency is measured from here for chained
            // packets (their data only exists at the relay from now on).
            p.injected_at = self.cycle;
        }
        let first = p.flits_total - p.unreleased;
        p.unreleased -= n;
        let total = p.flits_total;
        let link = p.next_link[p.src].expect("src != dst so a first link exists");
        for i in first..first + n {
            self.inject_q[link.0].push_back(FlitTag {
                pkt,
                is_tail: i + 1 == total,
            });
        }
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        self.cycle += 1;

        // Phase 1: ejection. Each (link, vc) can eject one flit per cycle.
        for node in 0..self.topo.len() {
            for idx in 0..self.in_links[node].len() {
                let lid = self.in_links[node][idx];
                for vc in 0..self.cfg.vcs {
                    let eject = match self.links[lid.0].vcs[vc].buf.front() {
                        Some(tag) => self.packets[tag.pkt].dst == node,
                        None => false,
                    };
                    if eject {
                        let tag = self.links[lid.0].vcs[vc]
                            .buf
                            .pop_front()
                            .expect("checked front");
                        self.links[lid.0].vcs[vc].credits += 1;
                        self.finish_flit(tag);
                    }
                }
            }
        }

        // Phase 2: switch traversal. Each output link moves at most one
        // flit per cycle, shared across its VCs round-robin.
        for out in 0..self.topo.link_count() {
            let (from, _) = self.topo.endpoints(LinkId(out));
            let inputs = self.input_refs(from);

            // Re-arbitrate unlocked output VCs.
            for ovc in 0..self.cfg.vcs {
                if self.out_ports[out].locked[ovc].is_none() {
                    let start = self.out_ports[out].rr[ovc];
                    for k in 0..inputs.len() {
                        let i = (start + k) % inputs.len();
                        if self.head_requests(from, inputs[i], LinkId(out), ovc) {
                            self.out_ports[out].locked[ovc] = Some(inputs[i]);
                            self.out_ports[out].rr[ovc] = (i + 1) % inputs.len();
                            break;
                        }
                    }
                }
            }

            // Move one flit over the physical link: round-robin over VCs.
            let start_vc = self.out_ports[out].vc_rr;
            for k in 0..self.cfg.vcs {
                let ovc = (start_vc + k) % self.cfg.vcs;
                let Some(input) = self.out_ports[out].locked[ovc] else {
                    continue;
                };
                if self.links[out].vcs[ovc].credits == 0
                    || !self.head_requests(from, input, LinkId(out), ovc)
                {
                    continue;
                }
                let tag = self.pop_input(from, input, LinkId(out));
                self.links[out].vcs[ovc].credits -= 1;
                let arrive = self.cycle + self.cfg.pipeline_per_hop;
                self.links[out].staged.push((tag, arrive, ovc));
                if tag.is_tail {
                    self.out_ports[out].locked[ovc] = None;
                }
                if let Some(up) = input.link {
                    self.links[up.0].vcs[input.vc].credits += 1;
                }
                self.out_ports[out].vc_rr = (ovc + 1) % self.cfg.vcs;
                break; // one flit per physical link per cycle
            }
        }

        // Phase 3: flits whose wire/pipeline delay has elapsed land in the
        // downstream buffer of their VC.
        let cycle = self.cycle;
        for l in &mut self.links {
            let mut i = 0;
            while i < l.staged.len() {
                if l.staged[i].1 <= cycle {
                    let (tag, _, vc) = l.staged.remove(i);
                    l.vcs[vc].buf.push_back(tag);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// All input ports of `node`: (link, vc) pairs plus the injection port.
    fn input_refs(&self, node: usize) -> Vec<InputRef> {
        let mut v = Vec::with_capacity(self.in_links[node].len() * self.cfg.vcs + 1);
        for &l in &self.in_links[node] {
            for vc in 0..self.cfg.vcs {
                v.push(InputRef { link: Some(l), vc });
            }
        }
        v.push(InputRef { link: None, vc: 0 });
        v
    }

    /// Whether `input`'s head flit wants `(out, out_vc)`. The injection
    /// input of output `out` reads that link's own injection queue.
    fn head_requests(&self, node: usize, input: InputRef, out: LinkId, out_vc: usize) -> bool {
        let head = match input.link {
            Some(lid) => self.links[lid.0].vcs[input.vc].buf.front().copied(),
            None => self.inject_q[out.0].front().copied(),
        };
        match head {
            Some(tag) => {
                let p = &self.packets[tag.pkt];
                p.next_link[node] == Some(out) && p.vc_of(out) == out_vc
            }
            None => false,
        }
    }

    fn pop_input(&mut self, _node: usize, input: InputRef, out: LinkId) -> FlitTag {
        match input.link {
            Some(lid) => self.links[lid.0].vcs[input.vc]
                .buf
                .pop_front()
                .expect("arbitrated head"),
            None => self.inject_q[out.0].pop_front().expect("arbitrated head"),
        }
    }

    fn finish_flit(&mut self, tag: FlitTag) {
        // Cut-through forwarding: every ejected flit releases one flit of
        // each chained child; the tail releases any remainder.
        let feeds = std::mem::take(&mut self.packets[tag.pkt].feeds);
        for &child in &feeds {
            let n = if tag.is_tail { u32::MAX } else { 1 };
            self.release_chained(child, n);
        }
        if !tag.is_tail {
            self.packets[tag.pkt].feeds = feeds;
        }
        let p = &mut self.packets[tag.pkt];
        p.flits_ejected += 1;
        if tag.is_tail {
            debug_assert_eq!(p.flits_ejected, p.flits_total);
            self.delivered.push(Delivery {
                id: p.id,
                dst: p.dst,
                cycle: self.cycle,
                latency_cycles: self.cycle - p.injected_at,
            });
            self.in_flight -= 1;
        }
    }

    /// Steps until every injected packet is delivered, up to `max_cycles`.
    ///
    /// Returns deliveries in completion order.
    ///
    /// # Panics
    /// Panics if traffic remains undelivered after `max_cycles` (deadlock or
    /// an insufficient budget).
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Vec<Delivery> {
        let deadline = self.cycle + max_cycles;
        while self.in_flight > 0 {
            assert!(
                self.cycle < deadline,
                "flit network made no full delivery within {max_cycles} cycles \
                 ({} packets stuck) — deadlock or budget too small",
                self.in_flight
            );
            self.step();
        }
        std::mem::take(&mut self.delivered)
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Converts a cycle count into simulated time.
    pub fn time_of(&self, cycle: u64) -> Ps {
        Ps::from_ps(self.cfg.cycle_time.as_ps() * cycle)
    }

    /// Packets injected but not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    #[cfg(test)]
    fn vc_plan_of(&self, pkt: usize) -> &[u8] {
        &self.packets[pkt].vc_on_link
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> FlitNet {
        FlitNet::new(
            &Topology::new(TopologyKind::Chain, n),
            FlitNetConfig::grs_25gbps(),
        )
    }

    #[test]
    fn single_flit_latency_is_hops_plus_pipeline() {
        let mut net = chain(4);
        let per_hop = FlitNetConfig::grs_25gbps().pipeline_per_hop;
        net.inject(1, 0, 3, 1);
        let done = net.run_until_idle(1000);
        // 3 link traversals, each with the wire/router pipeline, plus a few
        // cycles of switch/ejection alignment.
        assert_eq!(done[0].id, 1);
        assert!(
            done[0].latency_cycles >= 3 * per_hop,
            "lat {}",
            done[0].latency_cycles
        );
        assert!(
            done[0].latency_cycles <= 3 * per_hop + 10,
            "lat {}",
            done[0].latency_cycles
        );
    }

    #[test]
    fn pipeline_throughput_one_flit_per_cycle() {
        // A long packet: after the head arrives, one flit drains per cycle.
        let mut net = chain(2);
        let per_hop = FlitNetConfig::grs_25gbps().pipeline_per_hop;
        net.inject(1, 0, 1, 32);
        let done = net.run_until_idle(1000);
        assert!(done[0].latency_cycles >= 32 + per_hop);
        assert!(
            done[0].latency_cycles <= 32 + per_hop + 10,
            "lat {}",
            done[0].latency_cycles
        );
    }

    #[test]
    fn wormhole_packets_do_not_interleave() {
        let mut net = chain(3);
        // Two packets from node 0 and node 1 both crossing link 1->2.
        net.inject(1, 0, 2, 8);
        net.inject(2, 1, 2, 8);
        let done = net.run_until_idle(10_000);
        assert_eq!(done.len(), 2);
        // Both complete; the shared link serializes them, so total time is
        // at least 16 cycles of link 1->2 occupancy.
        let last = done.iter().map(|d| d.cycle).max().unwrap();
        assert!(last >= 16);
    }

    #[test]
    fn disjoint_pairs_run_in_parallel() {
        let mut net = chain(4);
        net.inject(1, 0, 1, 16);
        net.inject(2, 2, 3, 16);
        let done = net.run_until_idle(10_000);
        let cycles: Vec<u64> = done.iter().map(|d| d.cycle).collect();
        // Both finish at (nearly) the same time: no shared resources.
        assert!(cycles[0].abs_diff(cycles[1]) <= 1);
    }

    #[test]
    fn opposite_directions_are_independent() {
        let mut net = chain(2);
        net.inject(1, 0, 1, 16);
        net.inject(2, 1, 0, 16);
        let done = net.run_until_idle(10_000);
        let cycles: Vec<u64> = done.iter().map(|d| d.cycle).collect();
        assert!(cycles[0].abs_diff(cycles[1]) <= 1);
    }

    #[test]
    fn backpressure_limits_injection() {
        // Tiny buffers: a long packet cannot outrun credit returns, but
        // still completes.
        let cfg = FlitNetConfig {
            buffer_depth: 1,
            ..FlitNetConfig::grs_25gbps()
        };
        let mut net = FlitNet::new(&Topology::new(TopologyKind::Chain, 8), cfg);
        net.inject(1, 0, 7, 17);
        let done = net.run_until_idle(100_000);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn heavy_random_traffic_all_delivered() {
        let mut net = chain(8);
        let mut id = 0u64;
        for s in 0..8usize {
            for d in 0..8usize {
                if s != d {
                    net.inject(id, s, d, 4);
                    id += 1;
                }
            }
        }
        let done = net.run_until_idle(1_000_000);
        assert_eq!(done.len(), 56);
        let mut ids: Vec<u64> = done.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..56).collect::<Vec<u64>>());
    }

    #[test]
    fn ring_with_two_vcs_survives_all_to_all() {
        // A ring's wrap link creates a cyclic channel dependency; two VCs
        // with the dateline rule keep heavy all-to-all traffic live.
        let topo = Topology::new(TopologyKind::Ring, 8);
        let mut net = FlitNet::new(&topo, FlitNetConfig::grs_25gbps_ring());
        let mut id = 0u64;
        for _round in 0..4 {
            for s in 0..8usize {
                for d in 0..8usize {
                    if s != d {
                        net.inject(id, s, d, 8);
                        id += 1;
                    }
                }
            }
        }
        let done = net.run_until_idle(10_000_000);
        assert_eq!(done.len(), 224);
    }

    #[test]
    fn ring_wrap_route_uses_second_vc() {
        let topo = Topology::new(TopologyKind::Ring, 8);
        let mut net = FlitNet::new(&topo, FlitNetConfig::grs_25gbps_ring());
        // 6 -> 1: the shortest path crosses the wrap (6-7-0-1).
        net.inject(1, 6, 1, 4);
        let used_vc1 = net.vc_plan_of(0).contains(&1);
        assert!(used_vc1, "dateline switching never engaged");
        let done = net.run_until_idle(100_000);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn ring_beats_chain_on_wrap_pairs() {
        // End-to-end: node 0 -> node 7 is 1 hop on the ring, 7 on a chain.
        let mut ring = FlitNet::new(
            &Topology::new(TopologyKind::Ring, 8),
            FlitNetConfig::grs_25gbps_ring(),
        );
        ring.inject(1, 0, 7, 8);
        let ring_done = ring.run_until_idle(100_000);
        let mut line = chain(8);
        line.inject(1, 0, 7, 8);
        let chain_done = line.run_until_idle(100_000);
        assert!(ring_done[0].latency_cycles * 3 < chain_done[0].latency_cycles);
    }

    #[test]
    fn same_source_different_links_inject_in_parallel() {
        // Node 1 in a 3-chain sends left and right simultaneously; with
        // per-output-link injection queues neither waits for the other
        // (matching PacketNet's per-link bandwidth model).
        let mut net = chain(3);
        net.inject(1, 1, 0, 16);
        net.inject(2, 1, 2, 16);
        let done = net.run_until_idle(10_000);
        let cycles: Vec<u64> = done.iter().map(|d| d.cycle).collect();
        assert!(
            cycles[0].abs_diff(cycles[1]) <= 1,
            "left {} vs right {} should overlap",
            cycles[0],
            cycles[1]
        );
    }

    #[test]
    fn torus_with_two_vcs_survives_all_to_all() {
        // The torus wraps both dimensions; the generalized dateline rule
        // must keep heavy all-to-all traffic deadlock-free.
        let topo = Topology::new(TopologyKind::Torus, 16);
        let mut net = FlitNet::new(&topo, FlitNetConfig::for_topology(TopologyKind::Torus));
        let mut id = 0u64;
        for s in 0..16usize {
            for d in 0..16usize {
                if s != d {
                    net.inject(id, s, d, 8);
                    id += 1;
                }
            }
        }
        let done = net.run_until_idle(10_000_000);
        assert_eq!(done.len(), 240);
    }

    #[test]
    fn torus_wrap_route_uses_second_vc() {
        let topo = Topology::new(TopologyKind::Torus, 16); // 4 x 4
        let mut net = FlitNet::new(&topo, FlitNetConfig::for_topology(TopologyKind::Torus));
        // 3 -> 0 in row 0: shortest path is the row wrap 3->0.
        net.inject(1, 3, 12, 4); // column wrap: 3 -> 15? route depends; use a wrap pair
        let crossed: bool = net.vc_plan_of(0).contains(&1)
            || topo.route(3, 12).iter().any(|&l| topo.is_wrap_link(l));
        assert!(crossed, "route avoided every wrap link unexpectedly");
        let done = net.run_until_idle(100_000);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn broadcast_reaches_every_node_cut_through() {
        for kind in [
            TopologyKind::Chain,
            TopologyKind::Ring,
            TopologyKind::Mesh,
            TopologyKind::Torus,
        ] {
            let topo = Topology::new(kind, 9);
            let mut net = FlitNet::new(&topo, FlitNetConfig::for_topology(kind));
            net.inject_broadcast(7, 0, 8);
            let done = net.run_until_idle(1_000_000);
            assert_eq!(done.len(), 8, "{kind}: one delivery per non-source");
            let mut dsts: Vec<usize> = done.iter().map(|d| d.dst).collect();
            dsts.sort_unstable();
            assert_eq!(dsts, (1..9).collect::<Vec<usize>>(), "{kind}");
        }
    }

    #[test]
    fn chained_relay_is_cut_through_not_store_and_forward() {
        // Broadcast down a 4-chain: the tail reaches node 3 well before
        // 3 full store-and-forward serializations of a long packet.
        let flits = 16u32;
        let cfg = FlitNetConfig::grs_25gbps();
        let mut net = chain(4);
        net.inject_broadcast(1, 0, flits);
        let done = net.run_until_idle(1_000_000);
        let last = done.iter().find(|d| d.dst == 3).unwrap();
        let store_forward = 3 * (flits as u64 + cfg.pipeline_per_hop);
        assert!(
            last.cycle < store_forward,
            "cycle {} not cut-through (store-and-forward bound {})",
            last.cycle,
            store_forward
        );
    }

    #[test]
    fn time_of_uses_cycle_time() {
        let net = chain(2);
        assert_eq!(net.time_of(10), Ps::from_ps(6400));
    }

    #[test]
    #[should_panic(expected = "deadlock or budget too small")]
    fn watchdog_fires_on_budget_exhaustion() {
        let mut net = chain(8);
        net.inject(1, 0, 7, 17);
        let _ = net.run_until_idle(2); // far too small
    }

    #[test]
    #[should_panic(expected = "self-injection")]
    fn self_injection_rejected() {
        let mut net = chain(2);
        net.inject(1, 0, 0, 1);
    }
}
