//! Transaction-layer packet format (paper Figure 3-b).
//!
//! A packet is `header (64 b) || payload (0..=256 B) || tail (64 b)`, sliced
//! into 128-bit flits (zero-padded). The 64-bit header is packed as
//!
//! ```text
//!  bits 63..59  SRC   (5 b, up to 32 DIMMs)
//!  bits 58..54  DST   (5 b)
//!  bits 53..50  CMD   (4 b)
//!  bits 49..13  ADDR  (37 b; the paper stores 37 of the 42 address bits —
//!                       the destination-DIMM bits already live in DST)
//!  bits 12..5   TAG   (8 b transaction identifier)
//!  bits  4..0   LEN   (5 b: number of flits minus one, so up to 32 flits)
//! ```
//!
//! and the tail carries `CRC-32 (32 b) || DLL field (32 b)`. The DLL field
//! is the paper's data-link word (sequence number and credit return); this
//! crate carries it opaquely. The CRC is computed at [`Packet::encode`] time
//! over everything on the wire but itself — header, payload, *and* the DLL
//! field — so a flipped sequence-number bit is caught like any other.

use crate::crc::crc32;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Size of one flit in bytes (128 bits).
pub const FLIT_BYTES: usize = 16;
/// Maximum payload carried by one packet (paper: 256 bytes).
pub const MAX_PAYLOAD: usize = 256;
/// Maximum flits per packet (paper: 32).
pub const MAX_FLITS: usize = 32;
/// Width of the ADDR field in bits.
pub const ADDR_BITS: u32 = 37;
/// DIMMs addressable by the 5-bit SRC/DST fields: the system size limit.
pub const MAX_DIMMS: usize = 1 << 5;

/// A 128-bit flit on the wire.
pub type Flit = [u8; FLIT_BYTES];

/// Wire size in bytes of a packet carrying `payload` bytes: the 8-byte
/// header, the payload and the 8-byte tail, rounded up to whole flits.
pub fn wire_bytes(payload: u64) -> u64 {
    let flit = FLIT_BYTES as u64;
    (8 + payload + 8).div_ceil(flit) * flit
}

/// Identifier of a DIMM in the system (the SRC/DST namespace, 5 bits).
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct DimmId(pub u8);

impl fmt::Display for DimmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DIMM-{}", self.0)
    }
}

/// Transaction commands (the 4-bit CMD field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum DlCommand {
    /// Remote read request (no payload).
    ReadReq = 0,
    /// Read return data.
    ReadResp = 1,
    /// Remote write request (payload = write data).
    WriteReq = 2,
    /// Write acknowledgement.
    WriteResp = 3,
    /// Inter-DIMM broadcast write (DST ignored; every DIMM accepts).
    Broadcast = 4,
    /// Synchronization message (barrier arrive/release, lock grant...).
    Sync = 5,
    /// Register a CPU-forwarding request with the polling proxy.
    FwdRegister = 6,
    /// Remote atomic read-modify-write.
    Atomic = 7,
    /// Atomic response.
    AtomicResp = 8,
}

impl DlCommand {
    /// Decodes the 4-bit CMD field.
    ///
    /// # Errors
    /// Returns [`ProtocolError::BadCommand`] for unassigned encodings.
    pub fn from_bits(bits: u8) -> Result<Self, ProtocolError> {
        Ok(match bits {
            0 => DlCommand::ReadReq,
            1 => DlCommand::ReadResp,
            2 => DlCommand::WriteReq,
            3 => DlCommand::WriteResp,
            4 => DlCommand::Broadcast,
            5 => DlCommand::Sync,
            6 => DlCommand::FwdRegister,
            7 => DlCommand::Atomic,
            8 => DlCommand::AtomicResp,
            other => return Err(ProtocolError::BadCommand(other)),
        })
    }
}

/// Errors produced by packet construction and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// ADDR does not fit in 37 bits.
    AddrTooWide(u64),
    /// SRC or DST does not fit in 5 bits.
    IdTooWide(u8),
    /// Payload exceeds [`MAX_PAYLOAD`].
    PayloadTooLong(usize),
    /// CRC mismatch at the receiver.
    CrcMismatch {
        /// CRC carried in the tail.
        expected: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// Unassigned CMD encoding.
    BadCommand(u8),
    /// Flit stream shorter than the LEN field promises.
    Truncated {
        /// Flits promised by LEN.
        expected: usize,
        /// Flits received.
        got: usize,
    },
    /// An empty flit stream.
    Empty,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::AddrTooWide(a) => write!(f, "address {a:#x} exceeds 37 bits"),
            ProtocolError::IdTooWide(id) => write!(f, "DIMM id {id} exceeds 5 bits"),
            ProtocolError::PayloadTooLong(n) => {
                write!(f, "payload of {n} bytes exceeds {MAX_PAYLOAD}")
            }
            ProtocolError::CrcMismatch { expected, computed } => {
                write!(
                    f,
                    "crc mismatch: tail {expected:#010x}, computed {computed:#010x}"
                )
            }
            ProtocolError::BadCommand(c) => write!(f, "unassigned command encoding {c}"),
            ProtocolError::Truncated { expected, got } => {
                write!(f, "flit stream truncated: expected {expected}, got {got}")
            }
            ProtocolError::Empty => write!(f, "empty flit stream"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The 64-bit packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PacketHeader {
    /// Source DIMM.
    pub src: DimmId,
    /// Destination DIMM (ignored by receivers of broadcasts).
    pub dst: DimmId,
    /// Transaction command.
    pub cmd: DlCommand,
    /// 37-bit address field (per-DIMM offset; DIMM bits live in `dst`).
    pub addr: u64,
    /// Transaction tag matching requests with responses.
    pub tag: u8,
}

impl PacketHeader {
    /// Creates a header, validating field widths.
    ///
    /// # Errors
    /// Returns [`ProtocolError::AddrTooWide`] or [`ProtocolError::IdTooWide`].
    pub fn new(
        src: DimmId,
        dst: DimmId,
        cmd: DlCommand,
        addr: u64,
        tag: u8,
    ) -> Result<Self, ProtocolError> {
        if addr >= (1u64 << ADDR_BITS) {
            return Err(ProtocolError::AddrTooWide(addr));
        }
        for id in [src, dst] {
            if usize::from(id.0) >= MAX_DIMMS {
                return Err(ProtocolError::IdTooWide(id.0));
            }
        }
        Ok(PacketHeader {
            src,
            dst,
            cmd,
            addr,
            tag,
        })
    }

    fn pack(&self, len_field: u8) -> u64 {
        debug_assert!(len_field < 32);
        ((self.src.0 as u64) << 59)
            | ((self.dst.0 as u64) << 54)
            | ((self.cmd as u64) << 50)
            | (self.addr << 13)
            | ((self.tag as u64) << 5)
            | len_field as u64
    }

    fn unpack(word: u64) -> Result<(Self, u8), ProtocolError> {
        let src = DimmId(((word >> 59) & 0x1F) as u8);
        let dst = DimmId(((word >> 54) & 0x1F) as u8);
        let cmd = DlCommand::from_bits(((word >> 50) & 0xF) as u8)?;
        let addr = (word >> 13) & ((1u64 << ADDR_BITS) - 1);
        let tag = ((word >> 5) & 0xFF) as u8;
        let len_field = (word & 0x1F) as u8;
        Ok((
            PacketHeader {
                src,
                dst,
                cmd,
                addr,
                tag,
            },
            len_field,
        ))
    }
}

/// A transaction-layer packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// The header.
    pub header: PacketHeader,
    /// Payload bytes (empty for requests without data).
    pub payload: Vec<u8>,
    /// The 32-bit DLL field in the tail (the paper's sequence / credit
    /// return word), carried opaquely and covered by the CRC; zero unless
    /// set.
    pub dll_field: u32,
}

/// The tail CRC: header + padded payload followed by the DLL field.
fn crc32_covering(body: &[u8], dll_field: u32) -> u32 {
    let mut covered = Vec::with_capacity(body.len() + 4);
    covered.extend_from_slice(body);
    covered.extend_from_slice(&dll_field.to_le_bytes());
    crc32(&covered)
}

impl Packet {
    /// A packet without payload (e.g. a read request).
    pub fn without_payload(header: PacketHeader) -> Self {
        Packet {
            header,
            payload: Vec::new(),
            dll_field: 0,
        }
    }

    /// A packet carrying `payload`.
    ///
    /// # Errors
    /// Returns [`ProtocolError::PayloadTooLong`] beyond 256 bytes.
    pub fn with_payload(header: PacketHeader, payload: Vec<u8>) -> Result<Self, ProtocolError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(ProtocolError::PayloadTooLong(payload.len()));
        }
        Ok(Packet {
            header,
            payload,
            dll_field: 0,
        })
    }

    /// Number of flits this packet occupies on the wire.
    pub fn flit_count(&self) -> usize {
        self.wire_bytes() as usize / FLIT_BYTES
    }

    /// Exact wire size in bytes (flits × 16; see [`wire_bytes`]).
    pub fn wire_bytes(&self) -> u64 {
        wire_bytes(self.payload.len() as u64)
    }

    /// Serializes into flits, computing the tail CRC over header, payload,
    /// and the DLL field (everything on the wire except the CRC itself).
    pub fn encode(&self) -> Vec<Flit> {
        let n_flits = self.flit_count();
        let mut bytes = Vec::with_capacity(n_flits * FLIT_BYTES);
        bytes.extend_from_slice(&self.header.pack((n_flits - 1) as u8).to_le_bytes());
        bytes.extend_from_slice(&self.payload);
        // Pad so the 8-byte tail lands at the end of the final flit.
        let body_padded = n_flits * FLIT_BYTES - 8;
        bytes.resize(body_padded, 0);
        let crc = crc32_covering(&bytes, self.dll_field);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(&self.dll_field.to_le_bytes());
        debug_assert_eq!(bytes.len() % FLIT_BYTES, 0);
        bytes
            .chunks_exact(FLIT_BYTES)
            .map(|c| {
                let mut f = [0u8; FLIT_BYTES];
                f.copy_from_slice(c);
                f
            })
            .collect()
    }

    /// Deserializes and CRC-checks a flit stream.
    ///
    /// The payload length is recovered from the LEN field at flit
    /// granularity, so `decode(encode(p)) == p` holds when
    /// `p.payload.len()` is a multiple of 16 (one flit). The function layer
    /// pads payloads to flit granularity before transmission (zero padding
    /// inside the final flit is otherwise returned as payload bytes).
    ///
    /// # Errors
    /// Returns [`ProtocolError::Empty`], [`ProtocolError::Truncated`],
    /// [`ProtocolError::BadCommand`] or [`ProtocolError::CrcMismatch`].
    pub fn decode(flits: &[Flit]) -> Result<Packet, ProtocolError> {
        if flits.is_empty() {
            return Err(ProtocolError::Empty);
        }
        let head_word = u64::from_le_bytes(flits[0][..8].try_into().expect("flit >= 8 bytes"));
        let (header, len_field) = PacketHeader::unpack(head_word)?;
        let n_flits = len_field as usize + 1;
        if flits.len() < n_flits {
            return Err(ProtocolError::Truncated {
                expected: n_flits,
                got: flits.len(),
            });
        }
        let bytes: Vec<u8> = flits[..n_flits].iter().flatten().copied().collect();
        let body = &bytes[..n_flits * FLIT_BYTES - 8];
        let tail = &bytes[n_flits * FLIT_BYTES - 8..];
        let expected = u32::from_le_bytes(tail[..4].try_into().expect("tail"));
        let dll_field = u32::from_le_bytes(tail[4..8].try_into().expect("tail"));
        let computed = crc32_covering(body, dll_field);
        if expected != computed {
            return Err(ProtocolError::CrcMismatch { expected, computed });
        }
        let payload = body[8..].to_vec();
        Ok(Packet {
            header,
            payload,
            dll_field,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> PacketHeader {
        PacketHeader::new(
            DimmId(2),
            DimmId(13),
            DlCommand::WriteReq,
            0x1234_5678,
            0x42,
        )
        .unwrap()
    }

    #[test]
    fn header_field_limits() {
        assert!(PacketHeader::new(DimmId(32), DimmId(0), DlCommand::ReadReq, 0, 0).is_err());
        assert!(PacketHeader::new(DimmId(0), DimmId(32), DlCommand::ReadReq, 0, 0).is_err());
        assert!(
            PacketHeader::new(DimmId(0), DimmId(0), DlCommand::ReadReq, 1u64 << 37, 0).is_err()
        );
        // 37-bit max address is fine.
        assert!(PacketHeader::new(
            DimmId(0),
            DimmId(0),
            DlCommand::ReadReq,
            (1u64 << 37) - 1,
            0
        )
        .is_ok());
    }

    #[test]
    fn header_pack_unpack_roundtrip() {
        let h = header();
        let word = h.pack(9);
        let (h2, len) = PacketHeader::unpack(word).unwrap();
        assert_eq!(h, h2);
        assert_eq!(len, 9);
    }

    #[test]
    fn read_request_is_single_flit() {
        let p = Packet::without_payload(
            PacketHeader::new(DimmId(0), DimmId(1), DlCommand::ReadReq, 0x40, 1).unwrap(),
        );
        assert_eq!(p.flit_count(), 1);
        assert_eq!(p.wire_bytes(), 16);
        let flits = p.encode();
        assert_eq!(flits.len(), 1);
        assert_eq!(Packet::decode(&flits).unwrap(), p);
    }

    #[test]
    fn max_payload_is_17_flits() {
        let p = Packet::with_payload(header(), vec![7u8; MAX_PAYLOAD]).unwrap();
        assert_eq!(p.flit_count(), 17);
        let flits = p.encode();
        assert_eq!(Packet::decode(&flits).unwrap(), p);
    }

    #[test]
    fn payload_over_256_rejected() {
        assert_eq!(
            Packet::with_payload(header(), vec![0; MAX_PAYLOAD + 1]),
            Err(ProtocolError::PayloadTooLong(257))
        );
    }

    #[test]
    fn corruption_detected_anywhere() {
        // Every wire byte is covered: header, payload, padding, the CRC
        // itself, and the DLL field.
        let mut p = Packet::with_payload(header(), (0..64u8).collect()).unwrap();
        p.dll_field = 0x0102_0304;
        let flits = p.encode();
        let total = flits.len() * FLIT_BYTES;
        for byte in 0..total {
            let mut bad = flits.clone();
            bad[byte / FLIT_BYTES][byte % FLIT_BYTES] ^= 0x01;
            match Packet::decode(&bad) {
                Err(_) => {}
                Ok(dec) => panic!("corruption at byte {byte} decoded as {dec:?}"),
            }
        }
    }

    #[test]
    fn truncated_stream_detected() {
        let p = Packet::with_payload(header(), vec![1; 128]).unwrap();
        let flits = p.encode();
        assert!(matches!(
            Packet::decode(&flits[..flits.len() - 1]),
            Err(ProtocolError::Truncated { .. })
        ));
        assert_eq!(Packet::decode(&[]), Err(ProtocolError::Empty));
    }

    #[test]
    fn dll_field_roundtrips_and_is_crc_protected() {
        let mut p = Packet::without_payload(header());
        p.dll_field = 0xDEAD_BEEF;
        let flits = p.encode();
        let dec = Packet::decode(&flits).unwrap();
        assert_eq!(dec.dll_field, 0xDEAD_BEEF);
        // A flipped sequence-number bit must not decode as a valid packet.
        let mut bad = flits.clone();
        let last = bad.len() - 1;
        bad[last][FLIT_BYTES - 1] ^= 0x80;
        assert!(matches!(
            Packet::decode(&bad),
            Err(ProtocolError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn command_bits_roundtrip() {
        for bits in 0..9u8 {
            let cmd = DlCommand::from_bits(bits).unwrap();
            assert_eq!(cmd as u8, bits);
        }
        assert!(DlCommand::from_bits(15).is_err());
    }
}
