//! Property-based tests of the DIMM-Link wire format (flit codec and CRC-32
//! tail) — invariants the FPGA prototype of the paper's Section V-A
//! validates in hardware.

use dl_protocol::{crc32, DimmId, DlCommand, Packet, PacketHeader};
use proptest::prelude::*;

fn arb_command() -> impl Strategy<Value = DlCommand> {
    prop_oneof![
        Just(DlCommand::ReadReq),
        Just(DlCommand::ReadResp),
        Just(DlCommand::WriteReq),
        Just(DlCommand::WriteResp),
        Just(DlCommand::Broadcast),
        Just(DlCommand::Sync),
        Just(DlCommand::FwdRegister),
        Just(DlCommand::Atomic),
        Just(DlCommand::AtomicResp),
    ]
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        0u8..32,
        0u8..32,
        arb_command(),
        0u64..(1 << 37),
        any::<u8>(),
        prop::collection::vec(any::<u8>(), 0..=16), // payload in flit units
    )
        .prop_map(|(src, dst, cmd, addr, tag, units)| {
            // Flit-aligned payloads up to 256 bytes (the function layer's
            // contract with the codec: pad to 16-byte flits).
            let mut payload = Vec::new();
            for u in units {
                payload.extend_from_slice(&[u; 16]);
            }
            let header = PacketHeader::new(DimmId(src), DimmId(dst), cmd, addr, tag)
                .expect("fields in range");
            Packet::with_payload(header, payload).expect("payload <= 256")
        })
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(pkt in arb_packet()) {
        let flits = pkt.encode();
        prop_assert_eq!(flits.len(), pkt.flit_count());
        let decoded = Packet::decode(&flits).expect("self-encoded packet decodes");
        prop_assert_eq!(decoded, pkt);
    }

    #[test]
    fn wire_size_is_flit_aligned_and_minimal(pkt in arb_packet()) {
        let bytes = pkt.wire_bytes();
        prop_assert_eq!(bytes % 16, 0);
        // header(8) + payload + tail(8), rounded up to one flit.
        let lower = (8 + pkt.payload.len() as u64 + 8).div_ceil(16) * 16;
        prop_assert_eq!(bytes, lower);
    }

    #[test]
    fn any_single_byte_corruption_is_detected(
        pkt in arb_packet(),
        byte in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut flits = pkt.encode();
        let total = flits.len() * 16;
        // Every wire byte is covered: the CRC spans header, payload, and
        // the DLL field.
        let idx = byte % total.max(1);
        flits[idx / 16][idx % 16] ^= flip;
        prop_assert!(Packet::decode(&flits).is_err(), "corruption at byte {idx} undetected");
    }

    #[test]
    fn crc_differs_for_different_inputs(a in prop::collection::vec(any::<u8>(), 1..64)) {
        let mut b = a.clone();
        b[0] ^= 0x01;
        prop_assert_ne!(crc32(&a), crc32(&b));
    }
}
