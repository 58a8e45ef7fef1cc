//! Packet and message formats exchanged between J-QoS entities.
//!
//! The prototype described in §5 of the paper encapsulates application data
//! in a J-QoS header carrying a flow identifier and sequence number, and uses
//! UDP for data/coded/recovery packets plus a TCP control channel.  In the
//! simulation all of these become variants of the [`Msg`] enum delivered over
//! `netsim` links; the live prototype (`jqos-net`) serialises an equivalent
//! wire format.

use bytes::Bytes;
use netsim::{NodeId, Time};

/// Identifier of an application flow (one sender→receiver stream).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u32);

/// Sequence number within a flow.
pub type SeqNo = u64;

/// A batch of packets encoded together at DC1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BatchId(pub u64);

/// One application data packet carried by J-QoS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataPacket {
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Sequence number within the flow.
    pub seq: SeqNo,
    /// Application payload.
    pub payload: Bytes,
    /// Time the packet left the sender (stamped for latency accounting; a
    /// real deployment would use a header timestamp).
    pub sent_at: Time,
}

impl DataPacket {
    /// Creates a packet with the given payload.
    pub fn new(flow: FlowId, seq: SeqNo, payload: Bytes, sent_at: Time) -> Self {
        DataPacket {
            flow,
            seq,
            payload,
            sent_at,
        }
    }

    /// Creates a packet with a zero-filled payload of `size` bytes (used by
    /// synthetic workloads where content does not matter).
    pub fn synthetic(flow: FlowId, seq: SeqNo, size: usize, sent_at: Time) -> Self {
        DataPacket {
            flow,
            seq,
            payload: Bytes::from(vec![0u8; size]),
            sent_at,
        }
    }

    /// Total wire size: J-QoS header plus payload.
    pub fn wire_size(&self) -> usize {
        HEADER_BYTES + self.payload.len()
    }
}

/// Size of the J-QoS encapsulation header in bytes (flow id, sequence number,
/// type, timestamp), mirroring the prototype's UDP encapsulation.
pub const HEADER_BYTES: usize = 24;

/// Whether a coded packet protects a single stream or a batch of streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodingKind {
    /// In-stream FEC: all members belong to one flow.
    InStream,
    /// Cross-stream coding: members come from different flows.
    CrossStream,
}

/// Identification of one member (data shard) of a coded batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchMember {
    /// Flow of the member packet.
    pub flow: FlowId,
    /// Sequence number of the member packet.
    pub seq: SeqNo,
    /// Receiver node that is the destination of this member's flow; the
    /// cooperative recovery protocol contacts these nodes.
    pub receiver: NodeId,
    /// Payload length of the member packet (needed to re-pad shards).
    pub payload_len: usize,
}

/// A coded (parity) packet generated by DC1 and cached at DC2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodedPacket {
    /// Batch this parity shard belongs to.
    pub batch: BatchId,
    /// Index of this parity shard within the batch (0-based).
    pub parity_index: usize,
    /// Total parity shards generated for the batch.
    pub parity_count: usize,
    /// The data packets that were coded together, in shard order.
    pub members: Vec<BatchMember>,
    /// Length of each padded shard.
    pub shard_len: usize,
    /// The parity shard bytes.
    pub shard: Bytes,
    /// In-stream or cross-stream.
    pub kind: CodingKind,
    /// When DC1 generated the shard.
    pub created_at: Time,
}

impl CodedPacket {
    /// Number of data shards in the batch.
    pub fn data_count(&self) -> usize {
        self.members.len()
    }

    /// Whether this batch covers the given flow/sequence pair.
    pub fn covers(&self, flow: FlowId, seq: SeqNo) -> bool {
        self.members.iter().any(|m| m.flow == flow && m.seq == seq)
    }

    /// Wire size of the coded packet (header + member list + shard).
    pub fn wire_size(&self) -> usize {
        HEADER_BYTES + self.members.len() * 16 + self.shard.len()
    }
}

/// Why a receiver is asking its nearby DC for help.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NackReason {
    /// A gap in sequence numbers was observed.
    Gap,
    /// The in-burst (short) timer expired.
    ShortTimeout,
    /// The idle (long) timer expired.
    LongTimeout,
}

/// All messages exchanged between J-QoS entities in the simulator.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Application data on the direct Internet path (sender → receiver).
    Data(DataPacket),
    /// A duplicate of application data sent toward the cloud overlay
    /// (sender → DC1, DC1 → DC2 when forwarding/caching).
    CloudData(DataPacket),
    /// A coded packet travelling DC1 → DC2.
    Coded(CodedPacket),
    /// Receiver-driven negative acknowledgement (receiver → DC2).
    Nack {
        /// Flow the missing packet belongs to.
        flow: FlowId,
        /// Missing sequence number.
        seq: SeqNo,
        /// Why the receiver believes the packet is missing.
        reason: NackReason,
    },
    /// DC2 asking the receiver to confirm a suspected spurious NACK (sent
    /// when no coded/cached packet for the sequence exists yet, which is the
    /// burst/session-boundary situation described in §3.4).
    NackCheck {
        /// Flow in question.
        flow: FlowId,
        /// Sequence number in question.
        seq: SeqNo,
    },
    /// Receiver's answer to a [`Msg::NackCheck`].
    NackConfirm {
        /// Flow in question.
        flow: FlowId,
        /// Sequence number in question.
        seq: SeqNo,
        /// `true` if the packet is still missing and recovery should proceed.
        still_missing: bool,
    },
    /// Explicit pull of a cached packet (mobility / DTN use case, §3.2).
    Pull {
        /// Flow to pull from.
        flow: FlowId,
        /// First sequence number requested.
        from_seq: SeqNo,
        /// Last sequence number requested (inclusive).
        to_seq: SeqNo,
    },
    /// A packet recovered (or served from cache) by DC2 → receiver.
    Recovered {
        /// The recovered data packet.
        packet: DataPacket,
        /// Batch used for recovery, if coding was involved.
        via_batch: Option<BatchId>,
    },
    /// Cooperative-recovery request: DC2 → a receiver that holds data packets
    /// of a batch (§4.4, step 2).
    CoopRequest {
        /// Batch being decoded.
        batch: BatchId,
        /// The specific packets DC2 needs from this receiver.
        needed: Vec<(FlowId, SeqNo)>,
    },
    /// Cooperative-recovery response: receiver → DC2 with the data packets it
    /// holds (§4.4, step 3).
    CoopResponse {
        /// Batch being decoded.
        batch: BatchId,
        /// The packets this receiver could supply.
        packets: Vec<DataPacket>,
    },
    /// Acknowledgement from receiver back to sender (used by the TCP case
    /// study where J-QoS recovery triggers an early ACK, §6.4).
    Ack {
        /// Flow being acknowledged.
        flow: FlowId,
        /// Cumulative sequence number acknowledged.
        cumulative: SeqNo,
        /// Selectively acknowledged blocks above the cumulative point.
        sacks: Vec<SeqNo>,
    },
    /// Control-channel message used by DC1 to (loosely) synchronise senders'
    /// ON intervals, mirroring the PlanetLab deployment methodology (§6.2.1).
    Control {
        /// Opaque control tag.
        tag: u64,
    },
    /// Fleet control-plane traffic: heartbeats and failover re-wiring.
    Fleet(crate::fleet::FleetMsg),
}

impl Msg {
    /// Approximate wire size in bytes, for links with bandwidth caps.
    pub fn wire_size(&self) -> usize {
        match self {
            Msg::Data(p) | Msg::CloudData(p) => p.wire_size(),
            Msg::Coded(c) => c.wire_size(),
            Msg::Recovered { packet, .. } => packet.wire_size() + 8,
            Msg::CoopResponse { packets, .. } => {
                HEADER_BYTES + packets.iter().map(|p| p.wire_size()).sum::<usize>()
            }
            Msg::CoopRequest { needed, .. } => HEADER_BYTES + needed.len() * 12,
            Msg::Ack { sacks, .. } => HEADER_BYTES + 8 + sacks.len() * 8,
            Msg::Nack { .. }
            | Msg::NackCheck { .. }
            | Msg::NackConfirm { .. }
            | Msg::Pull { .. }
            | Msg::Control { .. }
            | Msg::Fleet(_) => HEADER_BYTES + 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_wire_size_includes_header() {
        let p = DataPacket::synthetic(FlowId(1), 5, 512, Time::ZERO);
        assert_eq!(p.wire_size(), 512 + HEADER_BYTES);
        assert_eq!(p.payload.len(), 512);
    }

    #[test]
    fn coded_packet_covers_members() {
        let c = CodedPacket {
            batch: BatchId(9),
            parity_index: 0,
            parity_count: 2,
            members: vec![
                BatchMember {
                    flow: FlowId(1),
                    seq: 10,
                    receiver: NodeId(3),
                    payload_len: 100,
                },
                BatchMember {
                    flow: FlowId(2),
                    seq: 4,
                    receiver: NodeId(4),
                    payload_len: 80,
                },
            ],
            shard_len: 102,
            shard: Bytes::from(vec![0u8; 102]),
            kind: CodingKind::CrossStream,
            created_at: Time::ZERO,
        };
        assert!(c.covers(FlowId(1), 10));
        assert!(c.covers(FlowId(2), 4));
        assert!(!c.covers(FlowId(1), 11));
        assert_eq!(c.data_count(), 2);
        assert!(c.wire_size() > 102);
    }

    #[test]
    fn control_messages_are_small() {
        let nack = Msg::Nack {
            flow: FlowId(0),
            seq: 1,
            reason: NackReason::Gap,
        };
        let data = Msg::Data(DataPacket::synthetic(FlowId(0), 1, 512, Time::ZERO));
        assert!(nack.wire_size() < 64);
        assert!(data.wire_size() > 500);
    }
}
