#![forbid(unsafe_code)]
//! # dl-protocol
//!
//! The DIMM-Link interconnect protocol (paper Section III-B): a four-layer
//! stack of which this crate implements the three that carry bits:
//!
//! * **Transaction layer** ([`packet`]): packets with a 64-bit header
//!   (SRC / DST / CMD / ADDR / TAG / LEN), up to 256 bytes of payload, and a
//!   64-bit tail, sliced into 128-bit flits.
//! * **Data-link layer** ([`dll`], [`crc`]): CRC-32 validation, ACK/retry
//!   retransmission, and credit-based flow control.
//! * **Physical layer**: serialization timing lives in `dl-noc` (link
//!   bandwidth × wire size); this crate exposes the exact wire size of a
//!   packet ([`packet::wire_bytes`]), which the simulator charges links.
//!
//! The *function layer* (remote memory access, synchronization, forwarding
//! requests) is realized by the `dimm-link` system crate on top of these
//! primitives.
//!
//! # Examples
//!
//! ```
//! use dl_protocol::{DimmId, DlCommand, Packet, PacketHeader};
//!
//! let header = PacketHeader::new(DimmId(0), DimmId(3), DlCommand::WriteReq, 0x40, 7)?;
//! let packet = Packet::with_payload(header, vec![0xAB; 64])?;
//! let flits = packet.encode();
//! assert_eq!(flits.len(), 5); // 8 B header + 64 B payload + 8 B tail = 80 B
//! let decoded = Packet::decode(&flits)?;
//! assert_eq!(decoded, packet);
//! # Ok::<(), dl_protocol::ProtocolError>(())
//! ```

pub mod crc;
pub mod dll;
pub mod faults;
pub mod packet;

pub use crc::crc32;
pub use dll::{CreditCounter, DllEndpoint, DllEvent};
pub use faults::{FaultSpec, WireHarness, WireOutcome, WireReport};
pub use packet::{
    wire_bytes, DimmId, DlCommand, Flit, Packet, PacketHeader, ProtocolError, FLIT_BYTES,
};
