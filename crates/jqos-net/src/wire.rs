//! Wire format for the live J-QoS data path.
//!
//! Every datagram starts with a 1-byte type tag and a 4-byte big-endian flow
//! id; the remaining layout is per-message and length-checked exactly, so
//! [`WireView::parse`] returns `None` (never panics, never mis-parses) for
//! truncated or garbage datagrams.  This is a stand-in for the prototype's
//! J-QoS encapsulation header (§5 of the paper), extended with the
//! `register(latency_budget)` admission handshake of §3.5 and the parity
//! messages of the live coding service:
//!
//! | tag | message        | layout after `tag,flow` (big-endian)            |
//! |-----|----------------|--------------------------------------------------|
//! | 1   | `Data`         | `seq:u64, payload…`                              |
//! | 2   | `Nack`         | `seq:u64` (exactly)                              |
//! | 3   | `Recovered`    | `seq:u64, payload…`                              |
//! | 4   | `Register`     | `budget_ms:u32, flags:u8` (exactly)              |
//! | 5   | `RegisterAck`  | `service:u8, shard:u16, port:u16, k:u8, m:u8`    |
//! | 6   | `RegisterNack` | `reason:u8` (exactly)                            |
//! | 7   | `Parity`       | `base_seq:u64, index:u8, shard bytes…`           |

use jqos_core::select::ServiceKind;

const TAG_DATA: u8 = 1;
const TAG_NACK: u8 = 2;
const TAG_RECOVERED: u8 = 3;
const TAG_REGISTER: u8 = 4;
const TAG_REGISTER_ACK: u8 = 5;
const TAG_REGISTER_NACK: u8 = 6;
const TAG_PARITY: u8 = 7;

/// Why the relay refused to admit a flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RejectReason {
    /// Even the forwarding service (the most the relay can do) misses the
    /// requested latency budget.
    BudgetInfeasible,
    /// The target shard is at its configured flow-table capacity.
    ShardFull,
}

impl RejectReason {
    /// Wire code for the reason.
    pub fn as_u8(self) -> u8 {
        match self {
            RejectReason::BudgetInfeasible => 1,
            RejectReason::ShardFull => 2,
        }
    }

    /// Parses a wire code.
    pub fn from_u8(code: u8) -> Option<RejectReason> {
        match code {
            1 => Some(RejectReason::BudgetInfeasible),
            2 => Some(RejectReason::ShardFull),
            _ => None,
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::BudgetInfeasible => write!(f, "budget_infeasible"),
            RejectReason::ShardFull => write!(f, "shard_full"),
        }
    }
}

/// Wire code for a [`ServiceKind`].
pub fn service_to_wire(service: ServiceKind) -> u8 {
    match service {
        ServiceKind::InternetOnly => 0,
        ServiceKind::Coding => 1,
        ServiceKind::Caching => 2,
        ServiceKind::Forwarding => 3,
    }
}

/// Parses a [`ServiceKind`] wire code.
pub fn service_from_wire(code: u8) -> Option<ServiceKind> {
    match code {
        0 => Some(ServiceKind::InternetOnly),
        1 => Some(ServiceKind::Coding),
        2 => Some(ServiceKind::Caching),
        3 => Some(ServiceKind::Forwarding),
        _ => None,
    }
}

/// Messages carried over UDP, generic over how the payload is held:
/// [`WireMsg`] owns it, [`WireView`] borrows it from the datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire<P> {
    /// Application data (direct path or cloud copy).
    Data {
        /// Flow identifier.
        flow: u32,
        /// Sequence number.
        seq: u64,
        /// Application payload.
        payload: P,
    },
    /// Receiver-driven negative acknowledgement.
    Nack {
        /// Flow identifier.
        flow: u32,
        /// Missing sequence number.
        seq: u64,
    },
    /// A packet served back from the relay's cache (caching service).
    Recovered {
        /// Flow identifier.
        flow: u32,
        /// Sequence number.
        seq: u64,
        /// Application payload.
        payload: P,
    },
    /// Admission request: `register(latency_budget)` over the wire.
    Register {
        /// Flow identifier.
        flow: u32,
        /// Latency budget in milliseconds.
        budget_ms: u32,
        /// Whether the application tolerates unrecovered losses.
        loss_tolerant: bool,
    },
    /// Admission granted: the assigned service and data-plane shard.
    RegisterAck {
        /// Flow identifier.
        flow: u32,
        /// Assigned service (wire code, see [`service_to_wire`]).
        service: u8,
        /// Index of the shard owning this flow.
        shard: u16,
        /// UDP port of that shard's data socket.
        port: u16,
        /// Coding-service batch size `k` (0 for non-coding flows).
        coding_k: u8,
        /// Coding-service parity count `m` (0 for non-coding flows).
        coding_m: u8,
    },
    /// Admission refused.
    RegisterNack {
        /// Flow identifier.
        flow: u32,
        /// Refusal reason (wire code, see [`RejectReason`]).
        reason: u8,
    },
    /// One parity shard of a coded batch (coding service recovery).
    Parity {
        /// Flow identifier.
        flow: u32,
        /// First sequence number of the batch the shard belongs to.
        base_seq: u64,
        /// Parity shard index within the batch (`0..m`).
        index: u8,
        /// Parity shard bytes (all shards of a batch have equal length).
        payload: P,
    },
}

/// A message that owns its payload.
pub type WireMsg = Wire<Vec<u8>>;

/// A message whose payload borrows the datagram it was parsed from: the
/// relay's hot path parses with it and never copies a payload to read it.
pub type WireView<'a> = Wire<&'a [u8]>;

impl<P: AsRef<[u8]>> Wire<P> {
    /// Serialises the message into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.append_to(&mut out);
        out
    }

    /// Serialises the message into `out` (cleared first); hot paths reuse
    /// one scratch buffer across sends.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        self.append_to(out);
    }

    /// Appends the encoded message to `out`.
    pub(crate) fn append_to(&self, out: &mut Vec<u8>) {
        let (tag, flow) = match self {
            Wire::Data { flow, .. } => (TAG_DATA, flow),
            Wire::Nack { flow, .. } => (TAG_NACK, flow),
            Wire::Recovered { flow, .. } => (TAG_RECOVERED, flow),
            Wire::Register { flow, .. } => (TAG_REGISTER, flow),
            Wire::RegisterAck { flow, .. } => (TAG_REGISTER_ACK, flow),
            Wire::RegisterNack { flow, .. } => (TAG_REGISTER_NACK, flow),
            Wire::Parity { flow, .. } => (TAG_PARITY, flow),
        };
        out.push(tag);
        out.extend_from_slice(&flow.to_be_bytes());
        match self {
            Wire::Data { seq, payload, .. } | Wire::Recovered { seq, payload, .. } => {
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(payload.as_ref());
            }
            Wire::Nack { seq, .. } => out.extend_from_slice(&seq.to_be_bytes()),
            Wire::Register {
                budget_ms,
                loss_tolerant,
                ..
            } => {
                out.extend_from_slice(&budget_ms.to_be_bytes());
                out.push(u8::from(*loss_tolerant));
            }
            Wire::RegisterAck {
                service,
                shard,
                port,
                coding_k,
                coding_m,
                ..
            } => {
                out.push(*service);
                out.extend_from_slice(&shard.to_be_bytes());
                out.extend_from_slice(&port.to_be_bytes());
                out.push(*coding_k);
                out.push(*coding_m);
            }
            Wire::RegisterNack { reason, .. } => out.push(*reason),
            Wire::Parity {
                base_seq,
                index,
                payload,
                ..
            } => {
                out.extend_from_slice(&base_seq.to_be_bytes());
                out.push(*index);
                out.extend_from_slice(payload.as_ref());
            }
        }
    }
}

impl<'a> WireView<'a> {
    /// Parses a datagram; returns `None` for anything malformed (short
    /// buffers, unknown tags, wrong exact lengths for fixed-size messages).
    /// The only parser: [`WireMsg::decode`] is this plus a payload copy.
    pub fn parse(buf: &'a [u8]) -> Option<Self> {
        let (&tag, rest) = buf.split_first()?;
        let (flow, rest) = rest.split_first_chunk::<4>()?;
        let flow = u32::from_be_bytes(*flow);
        let seq_and = |rest: &'a [u8]| {
            let (seq, tail) = rest.split_first_chunk::<8>()?;
            Some((u64::from_be_bytes(*seq), tail))
        };
        match (tag, rest.len()) {
            (TAG_DATA, _) => seq_and(rest).map(|(seq, payload)| Wire::Data { flow, seq, payload }),
            (TAG_NACK, 8) => seq_and(rest).map(|(seq, _)| Wire::Nack { flow, seq }),
            (TAG_RECOVERED, _) => {
                seq_and(rest).map(|(seq, payload)| Wire::Recovered { flow, seq, payload })
            }
            (TAG_REGISTER, 5) => Some(Wire::Register {
                flow,
                budget_ms: u32::from_be_bytes(rest[..4].try_into().ok()?),
                loss_tolerant: rest[4] != 0,
            }),
            (TAG_REGISTER_ACK, 7) => Some(Wire::RegisterAck {
                flow,
                service: rest[0],
                shard: u16::from_be_bytes([rest[1], rest[2]]),
                port: u16::from_be_bytes([rest[3], rest[4]]),
                coding_k: rest[5],
                coding_m: rest[6],
            }),
            (TAG_REGISTER_NACK, 1) => Some(Wire::RegisterNack {
                flow,
                reason: rest[0],
            }),
            (TAG_PARITY, 9..) => seq_and(rest).map(|(base_seq, tail)| Wire::Parity {
                flow,
                base_seq,
                index: tail[0],
                payload: &tail[1..],
            }),
            _ => None,
        }
    }

    /// The same message with its payload copied out of the datagram.
    #[rustfmt::skip]
    pub fn to_owned(self) -> WireMsg {
        use Wire::*;
        let own = <[u8]>::to_vec;
        match self {
            Data { flow, seq, payload } => Data { flow, seq, payload: own(payload) },
            Recovered { flow, seq, payload } => Recovered { flow, seq, payload: own(payload) },
            Parity { flow, base_seq, index, payload } =>
                Parity { flow, base_seq, index, payload: own(payload) },
            Nack { flow, seq } => Nack { flow, seq },
            Register { flow, budget_ms, loss_tolerant } =>
                Register { flow, budget_ms, loss_tolerant },
            RegisterAck { flow, service, shard, port, coding_k, coding_m } =>
                RegisterAck { flow, service, shard, port, coding_k, coding_m },
            RegisterNack { flow, reason } => RegisterNack { flow, reason },
        }
    }
}

impl WireMsg {
    /// Parses a datagram into an owned message: [`WireView::parse`] followed
    /// by [`WireView::to_owned`].
    pub fn decode(buf: &[u8]) -> Option<WireMsg> {
        WireView::parse(buf).map(WireView::to_owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_variants() {
        for msg in [
            WireMsg::Data {
                flow: 7,
                seq: 99,
                payload: vec![1, 2, 3],
            },
            WireMsg::Nack { flow: 1, seq: 5 },
            WireMsg::Recovered {
                flow: 2,
                seq: 8,
                payload: vec![9; 100],
            },
            WireMsg::Register {
                flow: 3,
                budget_ms: 120,
                loss_tolerant: true,
            },
            WireMsg::RegisterAck {
                flow: 4,
                service: service_to_wire(ServiceKind::Coding),
                shard: 3,
                port: 40_001,
                coding_k: 8,
                coding_m: 2,
            },
            WireMsg::RegisterNack {
                flow: 5,
                reason: RejectReason::BudgetInfeasible.as_u8(),
            },
            WireMsg::Parity {
                flow: 6,
                base_seq: 16,
                index: 1,
                payload: vec![0xAB; 66],
            },
        ] {
            let bytes = msg.encode();
            assert_eq!(WireMsg::decode(&bytes), Some(msg));
        }
    }

    #[test]
    fn malformed_datagrams_are_rejected() {
        assert_eq!(WireMsg::decode(&[]), None);
        assert_eq!(WireMsg::decode(&[1, 2, 3]), None, "shorter than any header");
        assert_eq!(WireMsg::decode(&[99; 20]), None, "unknown tag");
        // Fixed-size messages must match their exact length.
        assert_eq!(WireMsg::decode(&[TAG_NACK, 0, 0, 0, 1, 9]), None);
        let mut ack = WireMsg::RegisterAck {
            flow: 1,
            service: 1,
            shard: 0,
            port: 1,
            coding_k: 0,
            coding_m: 0,
        }
        .encode();
        ack.push(0);
        assert_eq!(WireMsg::decode(&ack), None, "trailing bytes on exact msg");
    }

    #[test]
    fn reject_reason_codes_round_trip() {
        for reason in [RejectReason::BudgetInfeasible, RejectReason::ShardFull] {
            assert_eq!(RejectReason::from_u8(reason.as_u8()), Some(reason));
        }
        assert_eq!(RejectReason::from_u8(0), None);
        assert_eq!(RejectReason::from_u8(77), None);
    }

    #[test]
    fn service_codes_round_trip() {
        for s in [
            ServiceKind::InternetOnly,
            ServiceKind::Coding,
            ServiceKind::Caching,
            ServiceKind::Forwarding,
        ] {
            assert_eq!(service_from_wire(service_to_wire(s)), Some(s));
        }
        assert_eq!(service_from_wire(200), None);
    }
}
