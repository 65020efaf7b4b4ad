//! # dl-noc
//!
//! The interconnect network model — this workspace's stand-in for BookSim,
//! which the DIMM-Link paper uses (via MultiPIM) to simulate the DL-Bridge
//! and DL-Router network.
//!
//! Two fidelity levels are provided:
//!
//! * [`PacketNet`] — an event-driven, packet-granularity model: every
//!   unidirectional SerDes link is a bandwidth-tracked FIFO resource; a
//!   packet reserves each link of its route in turn (store-and-forward with
//!   a per-hop router latency). This captures serialization, queueing and
//!   congestion, and is fast enough for the paper's full parameter sweeps.
//! * [`FlitNet`] — a cycle-stepped, flit-granularity model with input-
//!   buffered routers and credit-based flow control, used to validate the
//!   packet-level model (see the `ablation_fidelity` bench) exactly the way
//!   BookSim validates coarser models.
//!
//! Topologies ([`Topology`]): the paper's baseline **chain** ("half-ring":
//! adjacent DIMMs connected by bidirectional links), plus the **ring**,
//! **mesh**, and **torus** alternatives explored in its Section VI /
//! Figure 17.
//!
//! Both networks carry DIMM-Link packets (paper Section III-B, Figure 3-b):
//! an 8-byte header, up to 256 bytes of payload and an 8-byte tail, in
//! 16-byte flits ([`FLIT_BYTES`]). The simulator charges links each
//! packet's size on the wire ([`wire_bytes`]); the header's fields and the
//! tail's CRC and data-link word are not modelled: at the paper's link
//! bit-error rate of 10⁻¹² a simulated run expects far less than one retry.
//!
//! # Examples
//!
//! ```
//! use dl_engine::Ps;
//! use dl_noc::{wire_bytes, LinkParams, PacketNet, Topology, TopologyKind};
//!
//! // 8 DIMMs in one DL group, chained (the paper's default).
//! let topo = Topology::new(TopologyKind::Chain, 8);
//! assert_eq!(topo.diameter(), 7);
//! let mut net = PacketNet::new(&topo, LinkParams::grs_25gbps());
//! let arrival = net.send(Ps::ZERO, 0, 3, wire_bytes(256)); // one max-size packet
//! assert!(arrival > Ps::ZERO);
//! ```

pub mod flitnet;
pub mod packetnet;
pub mod topology;

pub use flitnet::{Delivery, FlitNet, FlitNetConfig, PacketRef};
pub use packetnet::{LinkParams, PacketNet};
pub use topology::{LinkId, Topology, TopologyKind};

/// Size of one flit in bytes (128 bits).
pub const FLIT_BYTES: usize = 16;

/// Wire size in bytes of a packet carrying `payload` bytes: the 8-byte
/// header, the payload and the 8-byte tail, rounded up to whole flits.
pub const fn wire_bytes(payload: u64) -> u64 {
    let flit = FLIT_BYTES as u64;
    (8 + payload + 8).div_ceil(flit) * flit
}
