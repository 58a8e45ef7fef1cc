//! The egress data center (DC2): caching, recovery orchestration and the
//! cooperative recovery protocol of §4.4.
//!
//! DC2 is the receiver's nearby DC.  For forwarding flows it simply relays
//! packets onward; for caching flows it keeps a short-term copy of every
//! packet and serves pulls/NACKs from the cache; for coding flows it stores
//! the coded packets produced by DC1 and, when a receiver reports a loss,
//! runs cooperative recovery: it asks the other receivers of the batch for
//! their data packets, decodes the missing one, and delivers it.
//!
//! Two details from the paper are modelled explicitly:
//!
//! * **Spurious-NACK suppression** — a NACK that arrives before any coded or
//!   cached packet for that sequence (typical at burst/session boundaries)
//!   makes DC2 *check with the receiver first* and park the request until
//!   either the cloud copy arrives or a deadline passes (§3.4).
//! * **Straggler tolerance** — recovery proceeds as soon as *enough* shards
//!   are available; with two cross-stream coded packets per batch one
//!   cooperating receiver may fail to answer and recovery still succeeds
//!   (§4.2, Figure 8(e)).  Recovery fails silently at a deadline otherwise.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

use netsim::{Context, Dur, Node, NodeId, Time, TimerId};

use crate::coding::encoder::BatchDecoder;
use crate::hash::FixedMap;
use crate::packet::{BatchId, CodedPacket, CodingKind, DataPacket, FlowId, Msg, SeqNo};
use crate::select::ServiceKind;
use crate::services::caching::{CacheConfig, PacketCache};

/// Configuration of the egress DC.
#[derive(Clone, Copy, Debug)]
pub struct Dc2Config {
    /// Deadline for a cooperative recovery round; past it the recovery fails
    /// silently (§4.4).
    pub coop_deadline: Dur,
    /// How long a NACK may wait for its coded/cached packet to arrive at DC2
    /// (the Δ wait of §6.1) before being dropped.
    pub waiting_deadline: Dur,
    /// Whether DC2 double-checks with the receiver before acting on a NACK
    /// that has no corresponding coded/cached packet yet.
    pub check_before_recovery: bool,
    /// Cache configuration used for the caching service.
    pub cache: CacheConfig,
    /// How long coded packets are retained.
    pub coded_ttl: Dur,
}

impl Default for Dc2Config {
    fn default() -> Self {
        Dc2Config {
            coop_deadline: Dur::from_millis(250),
            // Long enough to cover the encoding delay at DC1 plus the
            // inter-DC propagation (the Δ wait of §6.1).
            waiting_deadline: Dur::from_millis(400),
            check_before_recovery: true,
            cache: CacheConfig::default(),
            coded_ttl: Dur::from_secs(10),
        }
    }
}

/// Counters kept by DC2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Dc2Stats {
    /// Packets relayed to receivers (forwarding service).
    pub forwarded: u64,
    /// Packets inserted into the cache (caching service).
    pub cached: u64,
    /// Coded packets received from DC1.
    pub coded_received: u64,
    /// NACKs received from receivers.
    pub nacks: u64,
    /// NACKs served straight from the packet cache.
    pub cache_recoveries: u64,
    /// Cooperative recoveries started.
    pub coop_started: u64,
    /// Cooperative recoveries that delivered the missing packet.
    pub coop_recovered: u64,
    /// Cooperative recoveries that hit the deadline without enough shards.
    pub coop_failed: u64,
    /// Cooperative requests sent to receivers.
    pub coop_requests_sent: u64,
    /// NACKs parked because no coded/cached copy had arrived yet.
    pub nacks_waiting: u64,
    /// Parked NACKs that were later serviced once the cloud copy arrived.
    pub waiting_promoted: u64,
    /// Parked NACKs that expired unserved.
    pub waiting_expired: u64,
    /// NACK-check probes sent to receivers.
    pub nack_checks_sent: u64,
    /// NACKs the receiver withdrew (spurious).
    pub spurious_nacks: u64,
    /// Pull requests served (mobility / hybrid multicast use cases).
    pub pulls_served: u64,
}

#[derive(Clone, Copy, Debug)]
struct FlowState {
    service: ServiceKind,
    receiver: NodeId,
}

#[derive(Clone, Debug)]
struct PendingRecovery {
    flow: FlowId,
    seq: SeqNo,
    requester: NodeId,
    batch: BatchId,
    collected: Vec<DataPacket>,
    deadline: TimerId,
}

#[derive(Clone, Debug)]
struct WaitingNack {
    flow: FlowId,
    seq: SeqNo,
    requester: NodeId,
    deadline: TimerId,
}

const TIMER_KIND_COOP: u64 = 1;
const TIMER_KIND_WAITING: u64 = 2;

fn timer_tag(kind: u64, id: u64) -> u64 {
    (id << 4) | kind
}

fn split_tag(tag: u64) -> (u64, u64) {
    (tag & 0xF, tag >> 4)
}

/// The egress data center node.
///
/// Every per-packet step is a keyed lookup.  The maps are never iterated
/// where the order could reach the event schedule: whatever is walked — the
/// expiry queue, a coverage list, a batch's recoveries, the receivers of a
/// cooperative round, the NACKs one coded packet releases — is a queue, a
/// `Vec` in arrival order, a `BTreeMap` or sorted first.
pub struct Dc2Node {
    config: Dc2Config,
    flows: FixedMap<FlowId, FlowState>,
    cache: PacketCache,
    /// The parity packets held, by batch; never an empty list.
    coded: FixedMap<BatchId, Vec<CodedPacket>>,
    /// The batches in `coded` with the arrival time of their first parity
    /// packet, oldest first.  Arrival times never decrease, so the batches
    /// past their TTL are exactly a prefix of this queue.
    coded_order: VecDeque<(Time, BatchId)>,
    /// The batches in `coded` that cover a packet, in arrival order, each
    /// once; never an empty list.
    coverage: FixedMap<(FlowId, SeqNo), Vec<BatchId>>,
    pending: FixedMap<u64, PendingRecovery>,
    /// The recoveries running on a batch, in start order; no entry once the
    /// last one has finished.
    pending_by_batch: FixedMap<BatchId, Vec<u64>>,
    pending_by_target: FixedMap<(FlowId, SeqNo), u64>,
    /// Parked NACKs by waiting id; ids are allocated in arrival order.
    waiting: FixedMap<u64, WaitingNack>,
    waiting_by_target: FixedMap<(FlowId, SeqNo), u64>,
    decoder: BatchDecoder,
    next_id: u64,
    stats: Dc2Stats,
}

impl Dc2Node {
    /// Creates a DC2 node.
    pub fn new(config: Dc2Config) -> Self {
        Dc2Node {
            cache: PacketCache::new(config.cache),
            config,
            flows: FixedMap::default(),
            coded: FixedMap::default(),
            coded_order: VecDeque::new(),
            coverage: FixedMap::default(),
            pending: FixedMap::default(),
            pending_by_batch: FixedMap::default(),
            pending_by_target: FixedMap::default(),
            waiting: FixedMap::default(),
            waiting_by_target: FixedMap::default(),
            decoder: BatchDecoder::new(),
            next_id: 0,
            stats: Dc2Stats::default(),
        }
    }

    /// Registers a flow with its service and receiving end host.
    pub fn register_flow(&mut self, flow: FlowId, service: ServiceKind, receiver: NodeId) {
        self.flows.insert(flow, FlowState { service, receiver });
    }

    /// Counters gathered so far.
    pub fn stats(&self) -> Dc2Stats {
        self.stats
    }

    /// Cache statistics (hits/misses/evictions).
    pub fn cache_stats(&self) -> crate::services::caching::CacheStats {
        self.cache.stats()
    }

    /// Number of coded packets currently stored.
    pub fn coded_packet_count(&self) -> usize {
        self.coded.values().map(|v| v.len()).sum()
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn send_recovered(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        to: NodeId,
        packet: DataPacket,
        via: Option<BatchId>,
    ) {
        let wire = packet.wire_size() + 8;
        ctx.send_sized(
            to,
            Msg::Recovered {
                packet,
                via_batch: via,
            },
            wire,
        );
    }

    fn handle_cloud_data(&mut self, ctx: &mut Context<'_, Msg>, packet: DataPacket) {
        let state = match self.flows.get(&packet.flow) {
            Some(s) => *s,
            None => return,
        };
        match state.service {
            ServiceKind::Forwarding => {
                self.stats.forwarded += 1;
                let wire = packet.wire_size();
                ctx.send_sized(state.receiver, Msg::Data(packet), wire);
            }
            ServiceKind::Caching => {
                let key = (packet.flow, packet.seq);
                self.stats.cached += 1;
                self.cache.insert(packet.clone(), ctx.now());
                // A parked NACK for this packet can now be served directly.
                if let Some(id) = self.waiting_by_target.remove(&key) {
                    if let Some(w) = self.waiting.remove(&id) {
                        ctx.cancel_timer(w.deadline);
                        self.stats.waiting_promoted += 1;
                        self.stats.cache_recoveries += 1;
                        self.send_recovered(ctx, w.requester, packet, None);
                    }
                }
            }
            // Coding flows never send raw cloud data to DC2; ignore quietly.
            ServiceKind::Coding | ServiceKind::InternetOnly => {}
        }
    }

    fn handle_coded(&mut self, ctx: &mut Context<'_, Msg>, coded: CodedPacket) {
        self.stats.coded_received += 1;
        let batch = coded.batch;
        let now = ctx.now();
        self.expire_coded(now);
        // The parked NACKs this batch covers, looked up member by member.
        let mut covered: Vec<u64> = coded
            .members
            .iter()
            .filter_map(|m| self.waiting_by_target.remove(&(m.flow, m.seq)))
            .collect();
        let held = self.coded.entry(batch).or_default();
        if held.is_empty() {
            self.coded_order.push_back((now, batch));
            for m in &coded.members {
                self.coverage
                    .entry((m.flow, m.seq))
                    .or_default()
                    .push(batch);
            }
        }
        held.push(coded);

        // They can now start recovery, in ascending waiting id — the order
        // the NACKs arrived in, whatever the member order of the batch.
        covered.sort_unstable();
        for id in covered {
            if let Some(w) = self.waiting.remove(&id) {
                ctx.cancel_timer(w.deadline);
                self.stats.waiting_promoted += 1;
                self.start_cooperative(ctx, w.flow, w.seq, w.requester);
            }
        }
    }

    fn expire_coded(&mut self, now: Time) {
        while let Some(&(arrived, b)) = self.coded_order.front() {
            if now.saturating_since(arrived) < self.config.coded_ttl {
                break;
            }
            self.coded_order.pop_front();
            // Recoveries still running on the batch fail at their deadline.
            self.pending_by_batch.remove(&b);
            let held = self.coded.remove(&b).unwrap_or_default();
            for m in held.first().into_iter().flat_map(|c| &c.members) {
                if let Some(list) = self.coverage.get_mut(&(m.flow, m.seq)) {
                    list.retain(|x| *x != b);
                    if list.is_empty() {
                        self.coverage.remove(&(m.flow, m.seq));
                    }
                }
            }
        }
    }

    fn handle_nack(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, flow: FlowId, seq: SeqNo) {
        self.stats.nacks += 1;
        let key = (flow, seq);
        // Already being handled?
        if self.pending_by_target.contains_key(&key) || self.waiting_by_target.contains_key(&key) {
            return;
        }
        // 1. Cheapest option: the packet itself is cached (caching service or
        //    hybrid multicast).
        if let Some(packet) = self.cache.get(flow, seq, ctx.now()) {
            self.stats.cache_recoveries += 1;
            self.send_recovered(ctx, from, packet, None);
            return;
        }
        // 2. A coded batch covering the packet exists: cooperative recovery.
        if self.coverage.contains_key(&key) {
            self.start_cooperative(ctx, flow, seq, from);
            return;
        }
        // 3. Nothing at DC2 yet: park the NACK and (optionally) check with the
        //    receiver to catch spurious timeouts at burst boundaries.
        let id = self.alloc_id();
        let deadline = ctx.set_timer(
            self.config.waiting_deadline,
            timer_tag(TIMER_KIND_WAITING, id),
        );
        self.waiting.insert(
            id,
            WaitingNack {
                flow,
                seq,
                requester: from,
                deadline,
            },
        );
        self.waiting_by_target.insert(key, id);
        self.stats.nacks_waiting += 1;
        if self.config.check_before_recovery {
            self.stats.nack_checks_sent += 1;
            ctx.send(from, Msg::NackCheck { flow, seq });
        }
    }

    fn start_cooperative(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        flow: FlowId,
        seq: SeqNo,
        requester: NodeId,
    ) {
        let key = (flow, seq);
        // Prefer a cross-stream batch: its members live at *other* receivers,
        // so it can repair bursts that wiped out the requester's own recent
        // packets (which an in-stream batch cannot, since its members are the
        // very packets that were lost together).
        let Some(candidates) = self.coverage.get(&key) else {
            return;
        };
        let kind_of = |b: &BatchId| self.coded.get(b).and_then(|v| v.first()).map(|c| c.kind);
        let batch = candidates
            .iter()
            .copied()
            .find(|b| kind_of(b) == Some(CodingKind::CrossStream))
            .unwrap_or(candidates[0]);
        if kind_of(&batch).is_none() {
            return;
        }
        self.stats.coop_started += 1;
        let id = self.alloc_id();
        let deadline = ctx.set_timer(self.config.coop_deadline, timer_tag(TIMER_KIND_COOP, id));
        self.pending.insert(
            id,
            PendingRecovery {
                flow,
                seq,
                requester,
                batch,
                collected: Vec::new(),
                deadline,
            },
        );
        self.pending_by_batch.entry(batch).or_default().push(id);
        self.pending_by_target.insert(key, id);

        // Ask every receiver that holds other members of the batch for its
        // data packets (step 2 of Figure 6).  For in-stream batches this is
        // the requesting receiver itself.  Receivers are contacted in id
        // order — a BTreeMap, not a HashMap, because hash-iteration order
        // varies per map instance and would leak non-seeded entropy into the
        // event schedule (breaking same-process replay determinism).
        let mut per_receiver: BTreeMap<NodeId, Vec<(FlowId, SeqNo)>> = BTreeMap::new();
        for m in &self.coded[&batch][0].members {
            if m.flow == flow && m.seq == seq {
                continue;
            }
            per_receiver
                .entry(m.receiver)
                .or_default()
                .push((m.flow, m.seq));
        }
        for (receiver, needed) in per_receiver {
            self.stats.coop_requests_sent += 1;
            let msg = Msg::CoopRequest { batch, needed };
            let wire = msg.wire_size();
            ctx.send_sized(receiver, msg, wire);
        }
        // Perhaps the batch plus an empty collection is already decodable
        // (e.g. a 2-member batch with 2 parity packets).
        self.try_decode(ctx, id);
    }

    fn handle_coop_response(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        batch: BatchId,
        packets: Vec<DataPacket>,
    ) {
        let ids = match self.pending_by_batch.get(&batch) {
            Some(ids) => ids.clone(),
            None => return,
        };
        for id in ids {
            if let Some(p) = self.pending.get_mut(&id) {
                for pkt in &packets {
                    let already = p
                        .collected
                        .iter()
                        .any(|c| c.flow == pkt.flow && c.seq == pkt.seq);
                    if !already {
                        p.collected.push(pkt.clone());
                    }
                }
            }
            self.try_decode(ctx, id);
        }
    }

    fn try_decode(&mut self, ctx: &mut Context<'_, Msg>, id: u64) {
        let Some(p) = self.pending.get(&id) else {
            return;
        };
        let Some(coded) = self.coded.get(&p.batch) else {
            return;
        };
        // Shards available: collected member packets + parity packets held.
        if p.collected.len() + coded.len() < coded[0].members.len() {
            return;
        }
        let target = (p.flow, p.seq);
        let result = self
            .decoder
            .decode_batch(coded, &p.collected, target, ctx.now());
        if let Ok(Some(packet)) = result {
            let p = self.finish_recovery(id).expect("pending exists");
            ctx.cancel_timer(p.deadline);
            self.stats.coop_recovered += 1;
            self.send_recovered(ctx, p.requester, packet, Some(p.batch));
        }
    }

    /// Forgets recovery `id`, decoded or failed, in every index.
    fn finish_recovery(&mut self, id: u64) -> Option<PendingRecovery> {
        let p = self.pending.remove(&id)?;
        self.pending_by_target.remove(&(p.flow, p.seq));
        if let Some(list) = self.pending_by_batch.get_mut(&p.batch) {
            list.retain(|x| *x != id);
            if list.is_empty() {
                self.pending_by_batch.remove(&p.batch);
            }
        }
        Some(p)
    }

    fn handle_nack_confirm(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        flow: FlowId,
        seq: SeqNo,
        still_missing: bool,
    ) {
        if still_missing {
            // Keep waiting for the cloud copy; nothing to do.
            return;
        }
        // The receiver got the packet after all: withdraw the parked NACK.
        if let Some(id) = self.waiting_by_target.remove(&(flow, seq)) {
            if let Some(w) = self.waiting.remove(&id) {
                ctx.cancel_timer(w.deadline);
            }
        }
        self.stats.spurious_nacks += 1;
    }

    fn handle_pull(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        flow: FlowId,
        from_seq: SeqNo,
        to_seq: SeqNo,
    ) {
        let packets = self.cache.get_range(flow, from_seq, to_seq, ctx.now());
        for p in packets {
            self.stats.pulls_served += 1;
            self.send_recovered(ctx, from, p, None);
        }
    }
}

impl Node<Msg> for Dc2Node {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::CloudData(p) => self.handle_cloud_data(ctx, p),
            Msg::Coded(c) => self.handle_coded(ctx, c),
            Msg::Nack { flow, seq, .. } => self.handle_nack(ctx, from, flow, seq),
            Msg::NackConfirm {
                flow,
                seq,
                still_missing,
            } => self.handle_nack_confirm(ctx, flow, seq, still_missing),
            Msg::CoopResponse { batch, packets } => self.handle_coop_response(ctx, batch, packets),
            Msg::Pull {
                flow,
                from_seq,
                to_seq,
            } => self.handle_pull(ctx, from, flow, from_seq, to_seq),
            Msg::Fleet(crate::fleet::FleetMsg::Adopt {
                flow,
                service,
                receiver,
            }) => self.register_flow(flow, service, receiver),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: TimerId, tag: u64) {
        let (kind, id) = split_tag(tag);
        match kind {
            TIMER_KIND_COOP => {
                // Recovery deadline: fail silently (§4.4).
                self.stats.coop_failed += u64::from(self.finish_recovery(id).is_some());
            }
            TIMER_KIND_WAITING => {
                if let Some(w) = self.waiting.remove(&id) {
                    self.waiting_by_target.remove(&(w.flow, w.seq));
                    self.stats.waiting_expired += 1;
                }
            }
            _ => {}
        }
        let now = ctx.now();
        self.expire_coded(now);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::encoder::BatchEncoder;
    use crate::coding::params::CodingParams;
    use crate::coding::queues::{QueuedPacket, ReadyBatch};
    use crate::packet::{CodingKind, NackReason};
    use bytes::Bytes;
    use netsim::{LinkSpec, Simulator};

    /// A scripted peer that plays the role of a receiver (or DC1) and records
    /// everything it gets.
    struct Peer {
        script: Vec<(Dur, NodeId, Msg)>,
        received: Vec<Msg>,
        /// Packets this peer will serve in response to CoopRequest.
        holds: Vec<DataPacket>,
        /// Whether to answer coop requests at all (stragglers don't).
        answer_coop: bool,
        dc2: NodeId,
    }
    impl Peer {
        fn new(dc2: NodeId) -> Self {
            Peer {
                script: vec![],
                received: vec![],
                holds: vec![],
                answer_coop: true,
                dc2,
            }
        }
    }
    impl Node<Msg> for Peer {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for (i, (delay, to, msg)) in self.script.iter().enumerate() {
                // Stage sends via timers so they happen at the scripted times.
                let _ = (i, to, msg);
                ctx.set_timer(*delay, i as u64);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            if let Msg::CoopRequest { batch, needed } = &msg {
                if self.answer_coop {
                    let packets: Vec<DataPacket> = needed
                        .iter()
                        .filter_map(|(f, s)| {
                            self.holds
                                .iter()
                                .find(|p| p.flow == *f && p.seq == *s)
                                .cloned()
                        })
                        .collect();
                    ctx.send(
                        from,
                        Msg::CoopResponse {
                            batch: *batch,
                            packets,
                        },
                    );
                }
            }
            self.received.push(msg);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerId, tag: u64) {
            let (_, to, msg) = self.script[tag as usize].clone();
            let target = if to == NodeId(usize::MAX) {
                self.dc2
            } else {
                to
            };
            ctx.send(target, msg);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn pkt(flow: u32, seq: u64, fill: u8) -> DataPacket {
        DataPacket {
            flow: FlowId(flow),
            seq,
            payload: Bytes::from(vec![fill; 200]),
            sent_at: Time::ZERO,
        }
    }

    fn make_coded(packets: &[(DataPacket, NodeId)], parity: usize) -> Vec<CodedPacket> {
        let mut enc = BatchEncoder::new(CodingParams {
            k: packets.len().max(2),
            cross_parity: parity,
            in_stream_enabled: false,
            ..CodingParams::default()
        });
        let batch = ReadyBatch {
            kind: CodingKind::CrossStream,
            dc2: NodeId(0),
            packets: packets
                .iter()
                .map(|(p, r)| QueuedPacket {
                    packet: p.clone(),
                    receiver: *r,
                })
                .collect(),
        };
        enc.encode(&batch, Time::ZERO)
    }

    const DC2_PLACEHOLDER: NodeId = NodeId(usize::MAX);

    #[test]
    fn caching_flow_serves_nack_from_cache() {
        let mut sim = Simulator::new(1);
        let mut receiver = Peer::new(DC2_PLACEHOLDER);
        receiver.script.push((
            Dur::from_millis(50),
            DC2_PLACEHOLDER,
            Msg::Nack {
                flow: FlowId(1),
                seq: 3,
                reason: NackReason::Gap,
            },
        ));
        let recv_id = sim.add_node(receiver);
        let mut dc2 = Dc2Node::new(Dc2Config::default());
        dc2.register_flow(FlowId(1), ServiceKind::Caching, recv_id);
        let dc2_id = sim.add_node(dc2);
        sim.node_as::<Peer>(recv_id).dc2 = dc2_id;

        // DC1 stand-in injects the cached copy before the NACK.
        let mut dc1 = Peer::new(dc2_id);
        dc1.script
            .push((Dur::from_millis(10), dc2_id, Msg::CloudData(pkt(1, 3, 7))));
        let dc1_id = sim.add_node(dc1);

        sim.add_link(recv_id, dc2_id, LinkSpec::symmetric(Dur::from_millis(10)));
        sim.add_link(dc1_id, dc2_id, LinkSpec::symmetric(Dur::from_millis(5)));
        sim.run_for(Dur::from_secs(1));

        let stats = sim.node_as::<Dc2Node>(dc2_id).stats();
        assert_eq!(stats.cached, 1);
        assert_eq!(stats.nacks, 1);
        assert_eq!(stats.cache_recoveries, 1);
        let r = sim.node_as::<Peer>(recv_id);
        assert!(r.received.iter().any(|m| matches!(
            m,
            Msg::Recovered { packet, via_batch: None } if packet.seq == 3
        )));
    }

    #[test]
    fn forwarding_flow_is_relayed_to_receiver() {
        let mut sim = Simulator::new(2);
        let recv_id = sim.add_node(Peer::new(DC2_PLACEHOLDER));
        let mut dc2 = Dc2Node::new(Dc2Config::default());
        dc2.register_flow(FlowId(4), ServiceKind::Forwarding, recv_id);
        let dc2_id = sim.add_node(dc2);
        let mut dc1 = Peer::new(dc2_id);
        dc1.script
            .push((Dur::from_millis(1), dc2_id, Msg::CloudData(pkt(4, 0, 1))));
        let dc1_id = sim.add_node(dc1);
        sim.add_link(dc1_id, dc2_id, LinkSpec::symmetric(Dur::from_millis(5)));
        sim.add_link(dc2_id, recv_id, LinkSpec::symmetric(Dur::from_millis(10)));
        sim.run_for(Dur::from_secs(1));
        assert_eq!(sim.node_as::<Dc2Node>(dc2_id).stats().forwarded, 1);
        assert!(sim
            .node_as::<Peer>(recv_id)
            .received
            .iter()
            .any(|m| matches!(m, Msg::Data(p) if p.flow == FlowId(4))));
    }

    #[test]
    fn cooperative_recovery_rebuilds_packet_from_other_receivers() {
        let mut sim = Simulator::new(3);

        // Flows 1, 2, 3: receivers r1, r2, r3.  r1 loses packet (1, 5).
        let p1 = pkt(1, 5, 11);
        let p2 = pkt(2, 8, 22);
        let p3 = pkt(3, 2, 33);

        // r1 will send the NACK; r2 and r3 hold their packets.
        let mut r1 = Peer::new(DC2_PLACEHOLDER);
        r1.script.push((
            Dur::from_millis(40),
            DC2_PLACEHOLDER,
            Msg::Nack {
                flow: FlowId(1),
                seq: 5,
                reason: NackReason::ShortTimeout,
            },
        ));
        let r1_id = sim.add_node(r1);
        let mut r2 = Peer::new(DC2_PLACEHOLDER);
        r2.holds.push(p2.clone());
        let r2_id = sim.add_node(r2);
        let mut r3 = Peer::new(DC2_PLACEHOLDER);
        r3.holds.push(p3.clone());
        let r3_id = sim.add_node(r3);

        let mut dc2 = Dc2Node::new(Dc2Config::default());
        dc2.register_flow(FlowId(1), ServiceKind::Coding, r1_id);
        dc2.register_flow(FlowId(2), ServiceKind::Coding, r2_id);
        dc2.register_flow(FlowId(3), ServiceKind::Coding, r3_id);
        let dc2_id = sim.add_node(dc2);
        for r in [r1_id, r2_id, r3_id] {
            sim.node_as::<Peer>(r).dc2 = dc2_id;
            sim.add_link(r, dc2_id, LinkSpec::symmetric(Dur::from_millis(8)));
        }

        // DC1 stand-in delivers one cross-stream coded packet covering all
        // three flows.
        let coded = make_coded(&[(p1.clone(), r1_id), (p2, r2_id), (p3, r3_id)], 1);
        let mut dc1 = Peer::new(dc2_id);
        dc1.script
            .push((Dur::from_millis(5), dc2_id, Msg::Coded(coded[0].clone())));
        let dc1_id = sim.add_node(dc1);
        sim.add_link(dc1_id, dc2_id, LinkSpec::symmetric(Dur::from_millis(5)));

        sim.run_for(Dur::from_secs(1));

        let stats = sim.node_as::<Dc2Node>(dc2_id).stats();
        assert_eq!(stats.coop_started, 1);
        assert_eq!(stats.coop_recovered, 1, "{stats:?}");
        assert_eq!(stats.coop_failed, 0);
        let r1 = sim.node_as::<Peer>(r1_id);
        let recovered = r1.received.iter().find_map(|m| match m {
            Msg::Recovered {
                packet,
                via_batch: Some(_),
            } => Some(packet.clone()),
            _ => None,
        });
        let recovered = recovered.expect("r1 should get its packet back");
        assert_eq!(recovered.seq, 5);
        assert_eq!(recovered.payload, p1.payload);
    }

    #[test]
    fn straggler_is_tolerated_with_two_coded_packets_but_not_one() {
        for (parity, expect_recovery) in [(1usize, false), (2usize, true)] {
            let mut sim = Simulator::new(4 + parity as u64);
            let p1 = pkt(1, 5, 11);
            let p2 = pkt(2, 8, 22);
            let p3 = pkt(3, 2, 33);

            let mut r1 = Peer::new(DC2_PLACEHOLDER);
            r1.script.push((
                Dur::from_millis(40),
                DC2_PLACEHOLDER,
                Msg::Nack {
                    flow: FlowId(1),
                    seq: 5,
                    reason: NackReason::Gap,
                },
            ));
            let r1_id = sim.add_node(r1);
            let mut r2 = Peer::new(DC2_PLACEHOLDER);
            r2.holds.push(p2.clone());
            let r2_id = sim.add_node(r2);
            // r3 is the straggler: it never answers.
            let mut r3 = Peer::new(DC2_PLACEHOLDER);
            r3.answer_coop = false;
            let r3_id = sim.add_node(r3);

            let mut dc2 = Dc2Node::new(Dc2Config::default());
            dc2.register_flow(FlowId(1), ServiceKind::Coding, r1_id);
            dc2.register_flow(FlowId(2), ServiceKind::Coding, r2_id);
            dc2.register_flow(FlowId(3), ServiceKind::Coding, r3_id);
            let dc2_id = sim.add_node(dc2);
            for r in [r1_id, r2_id, r3_id] {
                sim.node_as::<Peer>(r).dc2 = dc2_id;
                sim.add_link(r, dc2_id, LinkSpec::symmetric(Dur::from_millis(8)));
            }
            let coded = make_coded(&[(p1.clone(), r1_id), (p2, r2_id), (p3, r3_id)], parity);
            let mut dc1 = Peer::new(dc2_id);
            for (i, c) in coded.into_iter().enumerate() {
                dc1.script
                    .push((Dur::from_millis(5 + i as u64), dc2_id, Msg::Coded(c)));
            }
            let dc1_id = sim.add_node(dc1);
            sim.add_link(dc1_id, dc2_id, LinkSpec::symmetric(Dur::from_millis(5)));

            sim.run_for(Dur::from_secs(2));
            let stats = sim.node_as::<Dc2Node>(dc2_id).stats();
            if expect_recovery {
                assert_eq!(stats.coop_recovered, 1, "parity={parity}: {stats:?}");
            } else {
                assert_eq!(stats.coop_recovered, 0, "parity={parity}: {stats:?}");
                assert_eq!(
                    stats.coop_failed, 1,
                    "recovery must fail silently at the deadline"
                );
            }
        }
    }

    #[test]
    fn nack_before_coded_packet_is_parked_then_promoted() {
        let mut sim = Simulator::new(7);
        let p1 = pkt(1, 5, 11);
        let p2 = pkt(2, 8, 22);

        let mut r1 = Peer::new(DC2_PLACEHOLDER);
        // NACK arrives *before* the coded packet (at 10 ms vs 60 ms).
        r1.script.push((
            Dur::from_millis(10),
            DC2_PLACEHOLDER,
            Msg::Nack {
                flow: FlowId(1),
                seq: 5,
                reason: NackReason::ShortTimeout,
            },
        ));
        let r1_id = sim.add_node(r1);
        let mut r2 = Peer::new(DC2_PLACEHOLDER);
        r2.holds.push(p2.clone());
        let r2_id = sim.add_node(r2);

        let mut dc2 = Dc2Node::new(Dc2Config::default());
        dc2.register_flow(FlowId(1), ServiceKind::Coding, r1_id);
        dc2.register_flow(FlowId(2), ServiceKind::Coding, r2_id);
        let dc2_id = sim.add_node(dc2);
        for r in [r1_id, r2_id] {
            sim.node_as::<Peer>(r).dc2 = dc2_id;
            sim.add_link(r, dc2_id, LinkSpec::symmetric(Dur::from_millis(5)));
        }
        let coded = make_coded(&[(p1.clone(), r1_id), (p2, r2_id)], 1);
        let mut dc1 = Peer::new(dc2_id);
        dc1.script
            .push((Dur::from_millis(60), dc2_id, Msg::Coded(coded[0].clone())));
        let dc1_id = sim.add_node(dc1);
        sim.add_link(dc1_id, dc2_id, LinkSpec::symmetric(Dur::from_millis(5)));

        sim.run_for(Dur::from_secs(1));
        let stats = sim.node_as::<Dc2Node>(dc2_id).stats();
        assert_eq!(stats.nacks_waiting, 1);
        assert_eq!(stats.nack_checks_sent, 1);
        assert_eq!(stats.waiting_promoted, 1);
        assert_eq!(stats.coop_recovered, 1, "{stats:?}");
        // The receiver also saw the NackCheck probe.
        assert!(sim
            .node_as::<Peer>(r1_id)
            .received
            .iter()
            .any(|m| matches!(m, Msg::NackCheck { .. })));
    }

    #[test]
    fn parked_nacks_released_by_one_batch_start_recovery_in_arrival_order() {
        let mut sim = Simulator::new(11);
        // One receiver terminates six coding flows, loses one packet of each
        // and NACKs them in this (deliberately unsorted) flow order, all
        // before the batch's coded packet reaches DC2.
        let arrival_order = [4u32, 1, 6, 2, 5, 3];
        let mut receiver = Peer::new(DC2_PLACEHOLDER);
        receiver.answer_coop = false;
        for (i, &flow) in arrival_order.iter().enumerate() {
            receiver.script.push((
                Dur::from_millis(10 + 2 * i as u64),
                DC2_PLACEHOLDER,
                Msg::Nack {
                    flow: FlowId(flow),
                    seq: 7,
                    reason: NackReason::ShortTimeout,
                },
            ));
        }
        let receiver_id = sim.add_node(receiver);

        let mut dc2 = Dc2Node::new(Dc2Config::default());
        for flow in 1..=6 {
            dc2.register_flow(FlowId(flow), ServiceKind::Coding, receiver_id);
        }
        let dc2_id = sim.add_node(dc2);
        sim.node_as::<Peer>(receiver_id).dc2 = dc2_id;
        sim.add_link(
            receiver_id,
            dc2_id,
            LinkSpec::symmetric(Dur::from_millis(5)),
        );

        let members: Vec<(DataPacket, NodeId)> = (1..=6)
            .map(|flow| (pkt(flow, 7, flow as u8), receiver_id))
            .collect();
        let coded = make_coded(&members, 1);
        let mut dc1 = Peer::new(dc2_id);
        dc1.script
            .push((Dur::from_millis(60), dc2_id, Msg::Coded(coded[0].clone())));
        let dc1_id = sim.add_node(dc1);
        sim.add_link(dc1_id, dc2_id, LinkSpec::symmetric(Dur::from_millis(5)));

        sim.run_for(Dur::from_millis(200));
        let stats = sim.node_as::<Dc2Node>(dc2_id).stats();
        assert_eq!(stats.nacks_waiting, 6);
        assert_eq!(stats.waiting_promoted, 6, "{stats:?}");
        // A recovery asks for every member but the one it is rebuilding, so
        // the flow missing from a request names the NACK it belongs to.
        let request_order: Vec<u32> = sim
            .node_as::<Peer>(receiver_id)
            .received
            .iter()
            .filter_map(|m| match m {
                Msg::CoopRequest { needed, .. } => {
                    (1..=6).find(|flow| needed.iter().all(|(f, _)| f.0 != *flow))
                }
                _ => None,
            })
            .collect();
        assert_eq!(request_order, arrival_order);
    }

    fn nack(flow: u32, seq: SeqNo) -> Msg {
        Msg::Nack {
            flow: FlowId(flow),
            seq,
            reason: NackReason::Gap,
        }
    }

    #[test]
    fn one_coded_packet_promotes_exactly_the_parked_nacks_it_covers() {
        let mut sim = Simulator::new(12);
        // One receiver terminates four coding flows and NACKs seq 7 of flows
        // 3, 1 and 2, in that order, before any coded packet reaches DC2.
        let mut receiver = Peer::new(DC2_PLACEHOLDER);
        receiver.answer_coop = false;
        for (i, flow) in [3u32, 1, 2].into_iter().enumerate() {
            let at = Dur::from_millis(10 + 2 * i as u64);
            receiver.script.push((at, DC2_PLACEHOLDER, nack(flow, 7)));
        }
        let receiver_id = sim.add_node(receiver);
        let mut dc2 = Dc2Node::new(Dc2Config::default());
        for flow in 1..=4 {
            dc2.register_flow(FlowId(flow), ServiceKind::Coding, receiver_id);
        }
        let dc2_id = sim.add_node(dc2);
        sim.node_as::<Peer>(receiver_id).dc2 = dc2_id;
        let link = LinkSpec::symmetric(Dur::from_millis(5));
        sim.add_link(receiver_id, dc2_id, link.clone());

        // The batch covers flows 1, 3 and 4 — not flow 2 — and its two parity
        // packets arrive 20 ms apart.
        let members: Vec<(DataPacket, NodeId)> = [1u32, 3, 4]
            .into_iter()
            .map(|flow| (pkt(flow, 7, flow as u8), receiver_id))
            .collect();
        let mut dc1 = Peer::new(dc2_id);
        for (i, coded) in make_coded(&members, 2).into_iter().enumerate() {
            let at = Dur::from_millis(60 + 20 * i as u64);
            dc1.script.push((at, dc2_id, Msg::Coded(coded)));
        }
        let dc1_id = sim.add_node(dc1);
        sim.add_link(dc1_id, dc2_id, link);

        sim.run_for(Dur::from_millis(200));
        let dc2 = sim.node_as::<Dc2Node>(dc2_id);
        let stats = dc2.stats();
        assert_eq!(stats.coded_received, 2);
        assert_eq!(stats.nacks_waiting, 3);
        assert_eq!(stats.waiting_promoted, 2, "{stats:?}");
        assert_eq!(
            stats.coop_started, 2,
            "the second parity packet starts nothing"
        );
        // Flow 2's NACK is still parked, in both indices.
        assert_eq!(dc2.waiting.len(), 1);
        assert_eq!(dc2.waiting_by_target.len(), 1);
        assert!(dc2.waiting_by_target.contains_key(&(FlowId(2), 7)));
        // Arrival order (3 then 1), not the batch's member order (1 then 3):
        // a request names every member but the one being rebuilt.
        let request_order: Vec<u32> = sim
            .node_as::<Peer>(receiver_id)
            .received
            .iter()
            .filter_map(|m| match m {
                Msg::CoopRequest { needed, .. } => [1u32, 3, 4]
                    .into_iter()
                    .find(|flow| needed.iter().all(|(f, _)| f.0 != *flow)),
                _ => None,
            })
            .collect();
        assert_eq!(request_order, [3, 1]);
    }

    #[test]
    fn coded_batches_expire_in_arrival_order_from_every_index() {
        let mut sim = Simulator::new(13);
        let (a1, a2) = (pkt(1, 5, 11), pkt(2, 8, 22));
        let (b1, b2) = (pkt(1, 6, 33), pkt(2, 9, 44));

        let mut r1 = Peer::new(DC2_PLACEHOLDER);
        // A NACK nothing at DC2 ever covers: its waiting deadline (400 ms) is
        // the DC2 timer that runs expiry once batch A is 10 s old.
        r1.script
            .push((Dur::from_millis(9_800), DC2_PLACEHOLDER, nack(1, 99)));
        // Then one member of each batch is reported lost.
        r1.script
            .push((Dur::from_millis(10_300), DC2_PLACEHOLDER, nack(1, 5)));
        r1.script
            .push((Dur::from_millis(10_310), DC2_PLACEHOLDER, nack(1, 6)));
        let r1_id = sim.add_node(r1);
        let mut r2 = Peer::new(DC2_PLACEHOLDER);
        r2.holds = vec![a2.clone(), b2.clone()];
        let r2_id = sim.add_node(r2);

        let mut dc2 = Dc2Node::new(Dc2Config::default());
        dc2.register_flow(FlowId(1), ServiceKind::Coding, r1_id);
        dc2.register_flow(FlowId(2), ServiceKind::Coding, r2_id);
        let dc2_id = sim.add_node(dc2);
        let link = LinkSpec::symmetric(Dur::from_millis(5));
        for r in [r1_id, r2_id] {
            sim.node_as::<Peer>(r).dc2 = dc2_id;
            sim.add_link(r, dc2_id, link.clone());
        }

        // Batch A reaches DC2 at 10 ms, batch B five seconds later.
        let batch_a = make_coded(&[(a1, r1_id), (a2, r2_id)], 2);
        let mut batch_b = make_coded(&[(b1.clone(), r1_id), (b2, r2_id)], 2);
        let mut dc1 = Peer::new(dc2_id);
        for c in &mut batch_b {
            c.batch = BatchId(1);
        }
        for (at_ms, batch) in [(5, batch_a), (5_005, batch_b)] {
            for c in batch {
                dc1.script
                    .push((Dur::from_millis(at_ms), dc2_id, Msg::Coded(c)));
            }
        }
        let dc1_id = sim.add_node(dc1);
        sim.add_link(dc1_id, dc2_id, link);

        sim.run_for(Dur::from_millis(10_250));
        let dc2 = sim.node_as::<Dc2Node>(dc2_id);
        assert_eq!(dc2.stats().waiting_expired, 1);
        assert_eq!(dc2.coded.keys().copied().collect::<Vec<_>>(), [BatchId(1)]);
        assert_eq!(dc2.coded_order.len(), 1);
        assert_eq!(dc2.coded_packet_count(), 2);
        // Each parity packet of B listed the batch once, A is in no list and
        // A's members have no list left.
        assert_eq!(dc2.coverage.len(), 2);
        assert!(dc2.coverage.values().all(|list| list == &[BatchId(1)]));
        assert!(dc2.coverage.contains_key(&(FlowId(1), 6)));

        sim.run_for(Dur::from_millis(750));
        let stats = sim.node_as::<Dc2Node>(dc2_id).stats();
        // The NACK for A's member finds nothing and is parked; B's recovers.
        assert_eq!(stats.nacks_waiting, 2);
        assert_eq!(stats.coop_started, 1);
        assert_eq!(stats.coop_recovered, 1, "{stats:?}");
        let recovered: Vec<DataPacket> = sim
            .node_as::<Peer>(r1_id)
            .received
            .iter()
            .filter_map(|m| match m {
                Msg::Recovered { packet, .. } => Some(packet.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(recovered.len(), 1);
        assert_eq!((recovered[0].seq, &recovered[0].payload), (6, &b1.payload));
    }

    #[test]
    fn finished_recoveries_leave_no_per_batch_state() {
        // r1 loses one member of each of two single-parity batches.  Batch 0
        // has three members and r3 never answers, so its recovery fails at
        // the deadline; batch 1 has two and r2's answer decodes it.
        let mut sim = Simulator::new(14);
        let (p1, p2, p3) = (pkt(1, 5, 11), pkt(2, 8, 22), pkt(3, 2, 33));
        let (q1, q2) = (pkt(1, 6, 44), pkt(2, 9, 55));
        let mut r1 = Peer::new(DC2_PLACEHOLDER);
        for seq in [5, 6] {
            r1.script
                .push((Dur::from_millis(40), DC2_PLACEHOLDER, nack(1, seq)));
        }
        let r1_id = sim.add_node(r1);
        let mut r2 = Peer::new(DC2_PLACEHOLDER);
        r2.holds = vec![p2.clone(), q2.clone()];
        let r2_id = sim.add_node(r2);
        let mut r3 = Peer::new(DC2_PLACEHOLDER);
        r3.answer_coop = false;
        let r3_id = sim.add_node(r3);

        let mut dc2 = Dc2Node::new(Dc2Config::default());
        let link = LinkSpec::symmetric(Dur::from_millis(8));
        for (flow, r) in [(1, r1_id), (2, r2_id), (3, r3_id)] {
            dc2.register_flow(FlowId(flow), ServiceKind::Coding, r);
        }
        let dc2_id = sim.add_node(dc2);
        for r in [r1_id, r2_id, r3_id] {
            sim.node_as::<Peer>(r).dc2 = dc2_id;
            sim.add_link(r, dc2_id, link.clone());
        }
        let mut batches = make_coded(&[(p1, r1_id), (p2, r2_id), (p3, r3_id)], 1);
        batches.extend(make_coded(&[(q1, r1_id), (q2, r2_id)], 1));
        batches[1].batch = BatchId(1);
        let mut dc1 = Peer::new(dc2_id);
        for c in batches {
            dc1.script
                .push((Dur::from_millis(5), dc2_id, Msg::Coded(c)));
        }
        let dc1_id = sim.add_node(dc1);
        sim.add_link(dc1_id, dc2_id, link);

        // Mid-way batch 1's recovery is done and its entry gone; batch 0's
        // still waits for its deadline.
        sim.run_for(Dur::from_millis(150));
        let dc2 = sim.node_as::<Dc2Node>(dc2_id);
        assert_eq!(dc2.stats().coop_started, 2);
        assert_eq!(dc2.stats().coop_recovered, 1, "{:?}", dc2.stats());
        assert_eq!(dc2.pending.len(), 1);
        let by_batch: Vec<_> = dc2.pending_by_batch.iter().collect();
        assert_eq!(by_batch.len(), 1, "no empty list left behind: {by_batch:?}");
        assert_eq!((by_batch[0].0, by_batch[0].1.len()), (&BatchId(0), 1));

        sim.run_for(Dur::from_secs(1));
        let dc2 = sim.node_as::<Dc2Node>(dc2_id);
        assert_eq!(dc2.stats().coop_failed, 1);
        assert!(dc2.pending.is_empty());
        assert!(dc2.pending_by_target.is_empty());
        assert!(dc2.pending_by_batch.is_empty());
    }

    #[test]
    fn spurious_nack_is_withdrawn_by_confirm() {
        let mut sim = Simulator::new(8);
        let mut r1 = Peer::new(DC2_PLACEHOLDER);
        r1.script.push((
            Dur::from_millis(10),
            DC2_PLACEHOLDER,
            Msg::Nack {
                flow: FlowId(1),
                seq: 5,
                reason: NackReason::LongTimeout,
            },
        ));
        r1.script.push((
            Dur::from_millis(30),
            DC2_PLACEHOLDER,
            Msg::NackConfirm {
                flow: FlowId(1),
                seq: 5,
                still_missing: false,
            },
        ));
        let r1_id = sim.add_node(r1);
        let mut dc2 = Dc2Node::new(Dc2Config::default());
        dc2.register_flow(FlowId(1), ServiceKind::Coding, r1_id);
        let dc2_id = sim.add_node(dc2);
        sim.node_as::<Peer>(r1_id).dc2 = dc2_id;
        sim.add_link(r1_id, dc2_id, LinkSpec::symmetric(Dur::from_millis(5)));
        sim.run_for(Dur::from_secs(1));
        let stats = sim.node_as::<Dc2Node>(dc2_id).stats();
        assert_eq!(stats.spurious_nacks, 1);
        assert_eq!(stats.coop_started, 0);
    }

    #[test]
    fn unserviceable_parked_nack_expires_silently() {
        let mut sim = Simulator::new(9);
        let mut r1 = Peer::new(DC2_PLACEHOLDER);
        r1.script.push((
            Dur::from_millis(10),
            DC2_PLACEHOLDER,
            Msg::Nack {
                flow: FlowId(1),
                seq: 5,
                reason: NackReason::LongTimeout,
            },
        ));
        let r1_id = sim.add_node(r1);
        let mut dc2 = Dc2Node::new(Dc2Config::default());
        dc2.register_flow(FlowId(1), ServiceKind::Coding, r1_id);
        let dc2_id = sim.add_node(dc2);
        sim.node_as::<Peer>(r1_id).dc2 = dc2_id;
        sim.add_link(r1_id, dc2_id, LinkSpec::symmetric(Dur::from_millis(5)));
        sim.run_for(Dur::from_secs(1));
        let stats = sim.node_as::<Dc2Node>(dc2_id).stats();
        assert_eq!(stats.waiting_expired, 1);
        assert_eq!(stats.coop_started, 0);
    }

    #[test]
    fn pull_range_serves_cached_packets_for_mobility() {
        let mut sim = Simulator::new(10);
        let mut r1 = Peer::new(DC2_PLACEHOLDER);
        r1.script.push((
            Dur::from_millis(200),
            DC2_PLACEHOLDER,
            Msg::Pull {
                flow: FlowId(6),
                from_seq: 0,
                to_seq: 9,
            },
        ));
        let r1_id = sim.add_node(r1);
        let mut dc2 = Dc2Node::new(Dc2Config::default());
        dc2.register_flow(FlowId(6), ServiceKind::Caching, r1_id);
        let dc2_id = sim.add_node(dc2);
        sim.node_as::<Peer>(r1_id).dc2 = dc2_id;
        let mut dc1 = Peer::new(dc2_id);
        for seq in 0..5u64 {
            dc1.script.push((
                Dur::from_millis(10 + seq),
                dc2_id,
                Msg::CloudData(pkt(6, seq, seq as u8)),
            ));
        }
        let dc1_id = sim.add_node(dc1);
        sim.add_link(r1_id, dc2_id, LinkSpec::symmetric(Dur::from_millis(5)));
        sim.add_link(dc1_id, dc2_id, LinkSpec::symmetric(Dur::from_millis(5)));
        sim.run_for(Dur::from_secs(1));
        assert_eq!(sim.node_as::<Dc2Node>(dc2_id).stats().pulls_served, 5);
        let got: Vec<SeqNo> = sim
            .node_as::<Peer>(r1_id)
            .received
            .iter()
            .filter_map(|m| match m {
                Msg::Recovered { packet, .. } => Some(packet.seq),
                _ => None,
            })
            .collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }
}
