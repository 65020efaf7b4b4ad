#![forbid(unsafe_code)]
//! # dl-protocol
//!
//! The DIMM-Link wire format (paper Section III-B, Figure 3-b): packets with
//! a 64-bit header (SRC / DST / CMD / ADDR / TAG / LEN), up to 256 bytes of
//! payload, and a 64-bit tail carrying a CRC-32 ([`crc`]), sliced into
//! 128-bit flits ([`packet`]).
//!
//! The simulator uses two numbers from here: the exact wire size of a packet
//! ([`wire_bytes`]), which it charges links, and the flit size
//! ([`FLIT_BYTES`]), which the networks serialize at. The paper's data-link
//! layer (ACK/retry, credit flow control) is not modelled: at a link
//! bit-error rate of 10⁻¹² a simulated run expects far less than one retry,
//! so no result could depend on it. The tail's DLL field stays in the format
//! and under the CRC. The *function layer* (remote memory access,
//! synchronization, forwarding requests) is the `dimm-link` system crate.
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
pub mod packet;

pub use crc::crc32;
pub use packet::{
    wire_bytes, DimmId, DlCommand, Flit, Packet, PacketHeader, ProtocolError, FLIT_BYTES, MAX_DIMMS,
};
