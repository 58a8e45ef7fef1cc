//! The generator's own encoder/decoder for the seven J-QoS wire tags.
//!
//! Written from the layout table in `crates/jqos-net/src/wire.rs`, not from
//! `jqos_net::WireMsg`, so the load generator keeps talking the *wire
//! format* when the relay's Rust types change shape (a borrowed view, an
//! in-place header rewrite).  A wire-format change therefore breaks the
//! cross-check tests below first, which is the point: it needs a benchmark
//! PR before it can be measured.
//!
//! Every datagram is `tag:u8, flow:u32` followed, big-endian, by:
//!
//! | tag | message        | rest                                         |
//! |-----|----------------|----------------------------------------------|
//! | 1   | `Data`         | `seq:u64, payload…`                          |
//! | 2   | `Nack`         | `seq:u64` (exactly)                          |
//! | 3   | `Recovered`    | `seq:u64, payload…`                          |
//! | 4   | `Register`     | `budget_ms:u32, flags:u8` (exactly)          |
//! | 5   | `RegisterAck`  | `service:u8, shard:u16, port:u16, k:u8, m:u8`|
//! | 6   | `RegisterNack` | `reason:u8` (exactly)                        |
//! | 7   | `Parity`       | `base_seq:u64, index:u8, shard bytes…`       |

/// Wire code of the coding service in a `RegisterAck`.
pub const SERVICE_CODING: u8 = 1;
/// Wire code of the caching service in a `RegisterAck`.
pub const SERVICE_CACHING: u8 = 2;
/// Wire code of the forwarding service in a `RegisterAck`.
pub const SERVICE_FORWARDING: u8 = 3;

/// Byte offset of the `seq` field in `Data`/`Nack`/`Recovered` datagrams
/// (the overload phase patches it in a pre-encoded template).
pub const SEQ_OFFSET: usize = 5;

/// One datagram, borrowing its payload from the buffer it was parsed from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Msg<'a> {
    Data {
        flow: u32,
        seq: u64,
        payload: &'a [u8],
    },
    Nack {
        flow: u32,
        seq: u64,
    },
    Recovered {
        flow: u32,
        seq: u64,
        payload: &'a [u8],
    },
    Register {
        flow: u32,
        budget_ms: u32,
        loss_tolerant: bool,
    },
    RegisterAck {
        flow: u32,
        service: u8,
        shard: u16,
        port: u16,
        coding_k: u8,
        coding_m: u8,
    },
    RegisterNack {
        flow: u32,
        reason: u8,
    },
    Parity {
        flow: u32,
        base_seq: u64,
        index: u8,
        payload: &'a [u8],
    },
}

/// Serialises `msg` into `out` (cleared first).
pub fn encode(msg: &Msg<'_>, out: &mut Vec<u8>) {
    out.clear();
    let head = |out: &mut Vec<u8>, tag: u8, flow: u32| {
        out.push(tag);
        out.extend_from_slice(&flow.to_be_bytes());
    };
    match *msg {
        Msg::Data { flow, seq, payload } => {
            head(out, 1, flow);
            out.extend_from_slice(&seq.to_be_bytes());
            out.extend_from_slice(payload);
        }
        Msg::Nack { flow, seq } => {
            head(out, 2, flow);
            out.extend_from_slice(&seq.to_be_bytes());
        }
        Msg::Recovered { flow, seq, payload } => {
            head(out, 3, flow);
            out.extend_from_slice(&seq.to_be_bytes());
            out.extend_from_slice(payload);
        }
        Msg::Register {
            flow,
            budget_ms,
            loss_tolerant,
        } => {
            head(out, 4, flow);
            out.extend_from_slice(&budget_ms.to_be_bytes());
            out.push(u8::from(loss_tolerant));
        }
        Msg::RegisterAck {
            flow,
            service,
            shard,
            port,
            coding_k,
            coding_m,
        } => {
            head(out, 5, flow);
            out.push(service);
            out.extend_from_slice(&shard.to_be_bytes());
            out.extend_from_slice(&port.to_be_bytes());
            out.push(coding_k);
            out.push(coding_m);
        }
        Msg::RegisterNack { flow, reason } => {
            head(out, 6, flow);
            out.push(reason);
        }
        Msg::Parity {
            flow,
            base_seq,
            index,
            payload,
        } => {
            head(out, 7, flow);
            out.extend_from_slice(&base_seq.to_be_bytes());
            out.push(index);
            out.extend_from_slice(payload);
        }
    }
}

fn be_u64(b: &[u8]) -> u64 {
    u64::from_be_bytes(b[..8].try_into().expect("length checked by caller"))
}

/// Parses one datagram; `None` for anything the table does not describe.
pub fn decode(buf: &[u8]) -> Option<Msg<'_>> {
    if buf.len() < 5 {
        return None;
    }
    let flow = u32::from_be_bytes([buf[1], buf[2], buf[3], buf[4]]);
    let rest = &buf[5..];
    match buf[0] {
        1 if rest.len() >= 8 => Some(Msg::Data {
            flow,
            seq: be_u64(rest),
            payload: &rest[8..],
        }),
        2 if rest.len() == 8 => Some(Msg::Nack {
            flow,
            seq: be_u64(rest),
        }),
        3 if rest.len() >= 8 => Some(Msg::Recovered {
            flow,
            seq: be_u64(rest),
            payload: &rest[8..],
        }),
        4 if rest.len() == 5 => Some(Msg::Register {
            flow,
            budget_ms: u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]),
            loss_tolerant: rest[4] != 0,
        }),
        5 if rest.len() == 7 => Some(Msg::RegisterAck {
            flow,
            service: rest[0],
            shard: u16::from_be_bytes([rest[1], rest[2]]),
            port: u16::from_be_bytes([rest[3], rest[4]]),
            coding_k: rest[5],
            coding_m: rest[6],
        }),
        6 if rest.len() == 1 => Some(Msg::RegisterNack {
            flow,
            reason: rest[0],
        }),
        7 if rest.len() >= 9 => Some(Msg::Parity {
            flow,
            base_seq: be_u64(rest),
            index: rest[8],
            payload: &rest[9..],
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jqos_net::WireMsg;

    /// The same seven messages in both representations.
    fn pairs() -> Vec<(Msg<'static>, WireMsg)> {
        const PAYLOAD: &[u8] = &[9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255];
        vec![
            (
                Msg::Data {
                    flow: 0x0102_0304,
                    seq: 0x1122_3344_5566_7788,
                    payload: PAYLOAD,
                },
                WireMsg::Data {
                    flow: 0x0102_0304,
                    seq: 0x1122_3344_5566_7788,
                    payload: PAYLOAD.to_vec(),
                },
            ),
            (
                Msg::Nack { flow: 7, seq: 99 },
                WireMsg::Nack { flow: 7, seq: 99 },
            ),
            (
                Msg::Recovered {
                    flow: 8,
                    seq: 3,
                    payload: &[],
                },
                WireMsg::Recovered {
                    flow: 8,
                    seq: 3,
                    payload: vec![],
                },
            ),
            (
                Msg::Register {
                    flow: 9,
                    budget_ms: 150,
                    loss_tolerant: true,
                },
                WireMsg::Register {
                    flow: 9,
                    budget_ms: 150,
                    loss_tolerant: true,
                },
            ),
            (
                Msg::RegisterAck {
                    flow: 10,
                    service: SERVICE_CODING,
                    shard: 3,
                    port: 40_001,
                    coding_k: 8,
                    coding_m: 2,
                },
                WireMsg::RegisterAck {
                    flow: 10,
                    service: SERVICE_CODING,
                    shard: 3,
                    port: 40_001,
                    coding_k: 8,
                    coding_m: 2,
                },
            ),
            (
                Msg::RegisterNack {
                    flow: 11,
                    reason: 2,
                },
                WireMsg::RegisterNack {
                    flow: 11,
                    reason: 2,
                },
            ),
            (
                Msg::Parity {
                    flow: 12,
                    base_seq: 16,
                    index: 1,
                    payload: PAYLOAD,
                },
                WireMsg::Parity {
                    flow: 12,
                    base_seq: 16,
                    index: 1,
                    payload: PAYLOAD.to_vec(),
                },
            ),
        ]
    }

    #[test]
    fn our_bytes_are_what_the_relay_parses() {
        let mut out = Vec::new();
        for (ours, theirs) in pairs() {
            encode(&ours, &mut out);
            assert_eq!(WireMsg::decode(&out), Some(theirs));
        }
    }

    #[test]
    fn the_relays_bytes_are_what_we_parse() {
        for (ours, theirs) in pairs() {
            let bytes = theirs.encode();
            assert_eq!(decode(&bytes), Some(ours));
        }
    }

    #[test]
    fn both_decoders_reject_the_same_garbage() {
        let mut cases: Vec<Vec<u8>> =
            vec![vec![], vec![1, 2, 3], vec![99; 20], vec![2, 0, 0, 0, 1, 9]];
        // Every strict prefix of every valid datagram, and each fixed-size
        // message with a trailing byte.
        for (_, theirs) in pairs() {
            let bytes = theirs.encode();
            for cut in 0..bytes.len() {
                cases.push(bytes[..cut].to_vec());
            }
            let mut longer = bytes.clone();
            longer.push(0);
            cases.push(longer);
        }
        for case in cases {
            assert_eq!(
                decode(&case).is_some(),
                WireMsg::decode(&case).is_some(),
                "decoders disagree on {case:?}"
            );
        }
    }

    #[test]
    fn service_codes_match_the_relays() {
        use jqos_core::select::ServiceKind;
        use jqos_net::wire::service_to_wire;
        assert_eq!(service_to_wire(ServiceKind::Coding), SERVICE_CODING);
        assert_eq!(service_to_wire(ServiceKind::Caching), SERVICE_CACHING);
        assert_eq!(service_to_wire(ServiceKind::Forwarding), SERVICE_FORWARDING);
    }

    #[test]
    fn seq_offset_points_at_the_sequence_number() {
        let mut out = Vec::new();
        encode(
            &Msg::Data {
                flow: 1,
                seq: 5,
                payload: &[1, 2],
            },
            &mut out,
        );
        out[SEQ_OFFSET..SEQ_OFFSET + 8].copy_from_slice(&77u64.to_be_bytes());
        assert!(matches!(decode(&out), Some(Msg::Data { seq: 77, .. })));
    }
}
