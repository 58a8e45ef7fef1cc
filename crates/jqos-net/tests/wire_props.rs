//! Property wall for the wire format.
//!
//! Two guarantees the relay's ingest path leans on:
//!
//! 1. `decode(encode(msg)) == msg` for every well-formed message — the
//!    relay and the load workers speak the same language;
//! 2. `decode` never panics on hostile input — truncations of valid
//!    messages and arbitrary garbage both come back as `None`, which the
//!    shard loop counts as `malformed_rx` instead of crashing;
//! 3. the borrowed parser the relay runs is the owned decoder: on any bytes
//!    `WireView::parse` then `to_owned` equals `WireMsg::decode`, and a data
//!    datagram the relay forwards unchanged is exactly the encoding of the
//!    message it parses to.

use jqos_net::wire::{WireMsg, WireView};
use proptest::prelude::*;

fn payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..256)
}

fn wire_msg() -> impl Strategy<Value = WireMsg> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), payload()).prop_map(|(flow, seq, payload)| WireMsg::Data {
            flow,
            seq,
            payload
        }),
        (any::<u32>(), any::<u64>()).prop_map(|(flow, seq)| WireMsg::Nack { flow, seq }),
        (any::<u32>(), any::<u64>(), payload())
            .prop_map(|(flow, seq, payload)| WireMsg::Recovered { flow, seq, payload }),
        (any::<u32>(), any::<u32>(), any::<bool>()).prop_map(|(flow, budget_ms, loss_tolerant)| {
            WireMsg::Register {
                flow,
                budget_ms,
                loss_tolerant,
            }
        }),
        (
            (any::<u32>(), any::<u8>(), any::<u16>()),
            (any::<u16>(), any::<u8>(), any::<u8>())
        )
            .prop_map(|((flow, service, shard), (port, coding_k, coding_m))| {
                WireMsg::RegisterAck {
                    flow,
                    service,
                    shard,
                    port,
                    coding_k,
                    coding_m,
                }
            }),
        (any::<u32>(), any::<u8>())
            .prop_map(|(flow, reason)| WireMsg::RegisterNack { flow, reason }),
        ((any::<u32>(), any::<u64>(), any::<u8>()), payload()).prop_map(
            |((flow, base_seq, index), payload)| WireMsg::Parity {
                flow,
                base_seq,
                index,
                payload,
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Encode∘decode is the identity on every message variant.
    #[test]
    fn encode_decode_round_trips(msg in wire_msg()) {
        let bytes = msg.encode();
        let back = WireMsg::decode(&bytes);
        prop_assert_eq!(back, Some(msg));
    }

    /// Every proper prefix of a valid encoding that no longer decodes to a
    /// message is rejected with `None` — never a panic.  (Truncating a
    /// payload-carrying message may still leave a shorter valid message;
    /// the property under test is "no panic, and exact-size messages don't
    /// tolerate truncation".)
    #[test]
    fn truncations_never_panic(msg in wire_msg(), cut in any::<usize>()) {
        let bytes = msg.encode();
        let cut = cut % bytes.len().max(1);
        let _ = WireMsg::decode(&bytes[..cut]);
        // Headers are at least 5 bytes; anything shorter is always None.
        if cut < 5 {
            prop_assert_eq!(WireMsg::decode(&bytes[..cut]), None);
        }
    }

    /// Arbitrary garbage either decodes to some message (harmless) or
    /// returns `None`; it must never panic the decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = WireMsg::decode(&bytes);
    }

    /// Garbage with an out-of-range tag byte is always rejected.
    #[test]
    fn unknown_tags_are_rejected(tag in 8u8..=255, rest in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&rest);
        prop_assert_eq!(WireMsg::decode(&bytes), None);
    }

    /// The view parser and the owned decoder agree on arbitrary bytes,
    /// well-formed or not.
    #[test]
    fn view_parse_then_to_owned_is_decode(bytes in proptest::collection::vec(any::<u8>(), 0..64), tag in 0u8..9) {
        let mut bytes = bytes;
        if let Some(first) = bytes.first_mut() {
            *first = tag;
        }
        prop_assert_eq!(WireView::parse(&bytes).map(WireView::to_owned), WireMsg::decode(&bytes));
    }

    /// Forwarding re-sends the received datagram as it is: those bytes are
    /// what re-encoding the parsed `Data` message would have produced.
    #[test]
    fn a_forwarded_datagram_is_the_data_encoding(rest in proptest::collection::vec(any::<u8>(), 12..300)) {
        let mut datagram = vec![1u8];
        datagram.extend_from_slice(&rest);
        let view = WireView::parse(&datagram);
        prop_assert!(matches!(view, Some(WireView::Data { .. })));
        let msg = view.map(WireView::to_owned).unwrap();
        prop_assert_eq!(msg.encode(), datagram);
    }
}
