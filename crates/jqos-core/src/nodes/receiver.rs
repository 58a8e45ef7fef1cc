//! The receiving end host: delivery tracking, receiver-driven loss detection
//! (§3.4) and participation in cooperative recovery (§4.4).

use std::any::Any;
use std::collections::VecDeque;

use netsim::{Context, Dur, Node, NodeId, Time, TimerId};

use crate::hash::FixedMap;
use crate::packet::{BatchId, DataPacket, FlowId, Msg, NackReason, SeqNo};
use crate::recovery::markov::{DetectorConfig, LossDetector};
use crate::select::ServiceKind;

/// How a packet reached the receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryMethod {
    /// Straight off the direct Internet path.
    Direct,
    /// Forwarded over the cloud overlay (forwarding service).
    CloudForwarded,
    /// Served from the DC2 packet cache.
    RecoveredFromCache,
    /// Rebuilt by cooperative recovery from a coded batch.
    RecoveredByCoding(BatchId),
}

impl DeliveryMethod {
    /// Whether the packet needed J-QoS recovery (as opposed to arriving on
    /// one of the normal delivery paths).
    pub fn is_recovery(&self) -> bool {
        matches!(
            self,
            DeliveryMethod::RecoveredFromCache | DeliveryMethod::RecoveredByCoding(_)
        )
    }
}

/// Delivery record of one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// When the packet was sent (stamped by the sender).
    pub sent_at: Time,
    /// When the first copy arrived.
    pub delivered_at: Time,
    /// How the first copy arrived.
    pub method: DeliveryMethod,
}

impl DeliveryRecord {
    /// One-way delivery latency.
    pub fn latency(&self) -> Dur {
        self.delivered_at.saturating_since(self.sent_at)
    }
}

/// Counters kept per flow at the receiver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReceiverFlowStats {
    /// Distinct packets delivered (any path).
    pub delivered: u64,
    /// Duplicate copies discarded.
    pub duplicates: u64,
    /// NACKs sent to DC2.
    pub nacks_sent: u64,
    /// NACKs triggered by sequence gaps.
    pub nacks_gap: u64,
    /// NACKs triggered by the short (burst) timeout.
    pub nacks_short_timeout: u64,
    /// NACKs triggered by the long (idle) timeout.
    pub nacks_long_timeout: u64,
    /// Cooperative requests answered.
    pub coop_answered: u64,
    /// Packets supplied in cooperative responses.
    pub coop_packets_supplied: u64,
    /// NACK-check probes answered.
    pub nack_checks_answered: u64,
}

/// Receiver configuration.
#[derive(Clone, Copy, Debug)]
pub struct ReceiverConfig {
    /// Loss-detector (timeout model) configuration.
    pub detector: DetectorConfig,
    /// How many recent packets to keep per flow for cooperative recovery.
    pub store_limit: usize,
    /// Stop re-arming the loss timer after this many consecutive expiries
    /// with no new arrivals (bounds spurious NACKs at session end).
    pub max_consecutive_timeouts: u32,
    /// Upper bound on NACKs generated by a single observed gap (an outage
    /// produces one NACK per missing packet up to this limit).
    pub gap_nack_limit: usize,
    /// How many upcoming sequence numbers are NACKed when a loss timer
    /// expires.  Requesting a small window (rather than a single packet)
    /// keeps the recovery pipeline ahead of the sending rate during an
    /// outage, when the receiver is being fed exclusively by DC2.
    pub timeout_nack_window: usize,
}

impl ReceiverConfig {
    /// Defaults matching the prototype: 25 ms short timer, RTT-long timer.
    pub fn prototype(rtt: Dur) -> Self {
        ReceiverConfig {
            detector: DetectorConfig::prototype(rtt),
            store_limit: 4096,
            max_consecutive_timeouts: 2,
            gap_nack_limit: 2048,
            timeout_nack_window: 8,
        }
    }
}

/// What the receiver knows about one sequence number of a flow.
#[derive(Clone, Copy, Default)]
struct SeqState {
    /// The first arrival, if any.
    delivered: Option<DeliveryRecord>,
    /// When the (one) NACK for it was sent, if any.
    nacked_at: Option<Time>,
}

struct FlowState {
    service: ServiceKind,
    dc2: NodeId,
    expected: SeqNo,
    detector: LossDetector,
    timer: Option<TimerId>,
    consecutive_timeouts: u32,
    /// The copies kept for cooperative recovery — the `store_limit` highest
    /// sequence numbers seen — as a window: slot `i` is `store_base + i`.
    store: VecDeque<Option<DataPacket>>,
    store_base: SeqNo,
    stored: usize,
    /// Indexed by sequence number: a sender numbers its packets densely from
    /// zero, so a slot per number up to the highest seen or NACKed is smaller
    /// and faster than two keyed maps.
    seqs: Vec<SeqState>,
    recovery_delays: Vec<(SeqNo, Dur)>,
    stats: ReceiverFlowStats,
    saw_any_packet: bool,
}

impl FlowState {
    fn uses_recovery(&self) -> bool {
        matches!(self.service, ServiceKind::Caching | ServiceKind::Coding)
    }

    fn seq(&self, seq: SeqNo) -> SeqState {
        self.seqs.get(seq as usize).copied().unwrap_or_default()
    }

    fn seq_mut(&mut self, seq: SeqNo) -> &mut SeqState {
        let slot = seq as usize;
        if slot >= self.seqs.len() {
            self.seqs.resize(slot + 1, SeqState::default());
        }
        &mut self.seqs[slot]
    }

    fn stored(&self, seq: SeqNo) -> Option<&DataPacket> {
        let slot = seq.checked_sub(self.store_base)?;
        self.store.get(slot as usize)?.as_ref()
    }

    /// Keeps a copy of `packet`, then drops the lowest sequence numbers held
    /// until at most `limit` copies remain.
    fn remember(&mut self, packet: DataPacket, limit: usize) {
        if self.store.is_empty() {
            self.store_base = packet.seq;
        }
        while packet.seq < self.store_base {
            self.store.push_front(None);
            self.store_base -= 1;
        }
        let slot = (packet.seq - self.store_base) as usize;
        if slot >= self.store.len() {
            self.store.resize(slot + 1, None);
        }
        if self.store[slot].replace(packet).is_none() {
            self.stored += 1;
        }
        // Evict from the low end, then trim the gaps behind it: the front
        // slot of a non-empty window is always a held copy.
        while self.stored > limit || matches!(self.store.front(), Some(None)) {
            self.stored -= self.store.pop_front().flatten().is_some() as usize;
            self.store_base += 1;
        }
    }
}

/// The receiving end host, possibly terminating several flows.
pub struct ReceiverNode {
    config: ReceiverConfig,
    flows: FixedMap<FlowId, FlowState>,
}

impl ReceiverNode {
    /// Creates a receiver.
    pub fn new(config: ReceiverConfig) -> Self {
        ReceiverNode {
            config,
            flows: FixedMap::default(),
        }
    }

    /// Registers a flow terminating at this receiver.
    pub fn register_flow(&mut self, flow: FlowId, service: ServiceKind, dc2: NodeId) {
        self.flows.insert(
            flow,
            FlowState {
                service,
                dc2,
                expected: 0,
                detector: LossDetector::new(self.config.detector),
                timer: None,
                consecutive_timeouts: 0,
                store: VecDeque::new(),
                store_base: 0,
                stored: 0,
                seqs: Vec::new(),
                recovery_delays: Vec::new(),
                stats: ReceiverFlowStats::default(),
                saw_any_packet: false,
            },
        );
    }

    /// Per-flow counters.
    pub fn flow_stats(&self, flow: FlowId) -> Option<ReceiverFlowStats> {
        self.flows.get(&flow).map(|f| f.stats)
    }

    /// Delivery records of a flow, ordered by sequence number.
    pub fn deliveries(&self, flow: FlowId) -> Vec<(SeqNo, DeliveryRecord)> {
        self.flows
            .get(&flow)
            .map(|f| {
                (0..)
                    .zip(&f.seqs)
                    .filter_map(|(seq, s)| Some((seq, s.delivered?)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// `(seq, delay)` pairs for packets that were recovered after a NACK —
    /// the recovery-time metric of Figures 7(b) and 8(d).
    pub fn recovery_delays(&self, flow: FlowId) -> Vec<(SeqNo, Dur)> {
        self.flows
            .get(&flow)
            .map(|f| f.recovery_delays.clone())
            .unwrap_or_default()
    }

    /// Whether a given packet was delivered (by any path).
    pub fn was_delivered(&self, flow: FlowId, seq: SeqNo) -> bool {
        self.flows
            .get(&flow)
            .is_some_and(|f| f.seq(seq).delivered.is_some())
    }

    /// Flows registered at this receiver.
    pub fn flow_ids(&self) -> Vec<FlowId> {
        self.flows.keys().copied().collect()
    }

    fn send_nack(
        flow_state: &mut FlowState,
        ctx: &mut Context<'_, Msg>,
        flow: FlowId,
        seq: SeqNo,
        reason: NackReason,
    ) {
        if !flow_state.uses_recovery() {
            return;
        }
        let known = flow_state.seq(seq);
        if known.delivered.is_some() || known.nacked_at.is_some() {
            return;
        }
        flow_state.seq_mut(seq).nacked_at = Some(ctx.now());
        flow_state.stats.nacks_sent += 1;
        match reason {
            NackReason::Gap => flow_state.stats.nacks_gap += 1,
            NackReason::ShortTimeout => flow_state.stats.nacks_short_timeout += 1,
            NackReason::LongTimeout => flow_state.stats.nacks_long_timeout += 1,
        }
        let msg = Msg::Nack { flow, seq, reason };
        let wire = msg.wire_size();
        ctx.send_sized(flow_state.dc2, msg, wire);
    }

    fn handle_packet(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        packet: DataPacket,
        method: DeliveryMethod,
    ) {
        let config = self.config;
        let flow_id = packet.flow;
        let Some(f) = self.flows.get_mut(&flow_id) else {
            return;
        };
        let now = ctx.now();
        f.saw_any_packet = true;

        // Keep a copy for cooperative recovery, bounded in size.
        f.remember(packet.clone(), config.store_limit);

        // Record first delivery; later copies are duplicates.
        let state = f.seq_mut(packet.seq);
        if state.delivered.is_some() {
            f.stats.duplicates += 1;
        } else {
            state.delivered = Some(DeliveryRecord {
                sent_at: packet.sent_at,
                delivered_at: now,
                method,
            });
            // Only NACKs issued after the packet actually existed measure a
            // loss-detection-to-repair delay; a premature NACK (the receiver
            // probed ahead of the sender) would otherwise inflate the
            // recovery-time metric.
            let nacked = state
                .nacked_at
                .filter(|at| method.is_recovery() && *at >= packet.sent_at);
            f.stats.delivered += 1;
            if let Some(nack_time) = nacked {
                f.recovery_delays
                    .push((packet.seq, now.saturating_since(nack_time)));
            }
        }

        // Gap-based loss detection (the simple case of §3.4).
        if packet.seq > f.expected {
            let gap_start = f.expected;
            let gap_end = packet.seq;
            let limit = config.gap_nack_limit;
            for (count, missing) in (gap_start..gap_end).enumerate() {
                if count >= limit {
                    break;
                }
                Self::send_nack(f, ctx, flow_id, missing, NackReason::Gap);
            }
        }
        if packet.seq >= f.expected {
            f.expected = packet.seq + 1;
        }

        // Timer management: every arrival re-arms the predictive timeout.
        f.consecutive_timeouts = 0;
        if f.uses_recovery() {
            if let Some(t) = f.timer.take() {
                ctx.cancel_timer(t);
            }
            let timeout = f.detector.on_arrival(now);
            f.timer = Some(ctx.set_timer(timeout, flow_id.0 as u64));
        }
    }

    fn handle_coop_request(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: NodeId,
        batch: BatchId,
        needed: Vec<(FlowId, SeqNo)>,
    ) {
        let mut supplied = Vec::new();
        for (flow, seq) in &needed {
            if let Some(f) = self.flows.get(flow) {
                supplied.extend(f.stored(*seq).cloned());
            }
        }
        // Account the answer on the first flow involved (per-flow attribution
        // of cooperative work is only used for aggregate statistics).
        if let Some((flow, _)) = needed.first() {
            if let Some(f) = self.flows.get_mut(flow) {
                f.stats.coop_answered += 1;
                f.stats.coop_packets_supplied += supplied.len() as u64;
            }
        }
        if !supplied.is_empty() {
            let msg = Msg::CoopResponse {
                batch,
                packets: supplied,
            };
            let wire = msg.wire_size();
            ctx.send_sized(from, msg, wire);
        }
    }

    fn handle_timer(&mut self, ctx: &mut Context<'_, Msg>, flow_id: FlowId) {
        let max_timeouts = self.config.max_consecutive_timeouts;
        let Some(f) = self.flows.get_mut(&flow_id) else {
            return;
        };
        f.timer = None;
        if !f.uses_recovery() || !f.saw_any_packet {
            return;
        }
        let (reason, next_timeout) = f.detector.on_timeout(ctx.now());
        // NACK a small window of upcoming sequence numbers so that recovery
        // can be pipelined during long silences (outages) on the direct path.
        let expected = f.expected;
        let window = self.config.timeout_nack_window.max(1) as u64;
        for seq in expected..expected + window {
            Self::send_nack(f, ctx, flow_id, seq, reason);
        }
        f.consecutive_timeouts += 1;
        if f.consecutive_timeouts < max_timeouts {
            f.timer = Some(ctx.set_timer(next_timeout, flow_id.0 as u64));
        }
    }
}

impl Node<Msg> for ReceiverNode {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Data(p) => {
                let method = if self
                    .flows
                    .get(&p.flow)
                    .map(|f| from == f.dc2)
                    .unwrap_or(false)
                {
                    DeliveryMethod::CloudForwarded
                } else {
                    DeliveryMethod::Direct
                };
                self.handle_packet(ctx, p, method);
            }
            Msg::CloudData(p) => {
                // A cloud copy delivered all the way to the receiver (e.g. the
                // multipath use case) counts as cloud-forwarded.
                self.handle_packet(ctx, p, DeliveryMethod::CloudForwarded);
            }
            Msg::Recovered { packet, via_batch } => {
                let method = match via_batch {
                    Some(b) => DeliveryMethod::RecoveredByCoding(b),
                    None => DeliveryMethod::RecoveredFromCache,
                };
                self.handle_packet(ctx, packet, method);
            }
            Msg::CoopRequest { batch, needed } => {
                self.handle_coop_request(ctx, from, batch, needed)
            }
            Msg::NackCheck { flow, seq } => {
                let still_missing = !self.was_delivered(flow, seq);
                if let Some(f) = self.flows.get_mut(&flow) {
                    f.stats.nack_checks_answered += 1;
                }
                ctx.send(
                    from,
                    Msg::NackConfirm {
                        flow,
                        seq,
                        still_missing,
                    },
                );
            }
            Msg::Fleet(crate::fleet::FleetMsg::Retarget { flow, dc2 }) => {
                // Fleet failover: future NACKs and pulls go to the adopting
                // DC2, and its deliveries count as cloud-forwarded.
                if let Some(f) = self.flows.get_mut(&flow) {
                    f.dc2 = dc2;
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: TimerId, tag: u64) {
        self.handle_timer(ctx, FlowId(tag as u32));
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netsim::LinkSpec;
    use netsim::Simulator;
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
    use std::collections::BTreeMap;

    /// A scripted DC2 stand-in recording NACKs and serving recoveries.
    struct FakeDc2 {
        receiver: NodeId,
        nacks: Vec<(FlowId, SeqNo, NackReason)>,
        /// Sequence numbers this fake cache can serve on NACK.
        serve_seqs: Vec<SeqNo>,
        confirms: Vec<(FlowId, SeqNo, bool)>,
    }
    impl Node<Msg> for FakeDc2 {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            match msg {
                Msg::Nack { flow, seq, reason } => {
                    self.nacks.push((flow, seq, reason));
                    if self.serve_seqs.contains(&seq) {
                        ctx.send(
                            from,
                            Msg::Recovered {
                                packet: DataPacket {
                                    flow,
                                    seq,
                                    payload: Bytes::from_static(b"recovered"),
                                    sent_at: Time::ZERO,
                                },
                                via_batch: None,
                            },
                        );
                    }
                }
                Msg::NackConfirm {
                    flow,
                    seq,
                    still_missing,
                } => self.confirms.push((flow, seq, still_missing)),
                _ => {}
            }
            let _ = self.receiver;
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _t: TimerId, _tag: u64) {}
    }

    /// Injects packets toward the receiver according to a schedule.
    struct Feeder {
        receiver: NodeId,
        schedule: Vec<(Dur, Msg)>,
    }
    impl Node<Msg> for Feeder {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for (i, (at, _)) in self.schedule.iter().enumerate() {
                ctx.set_timer(*at, i as u64);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _f: NodeId, _m: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerId, tag: u64) {
            let (_, msg) = self.schedule[tag as usize].clone();
            ctx.send(self.receiver, msg);
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn data(flow: u32, seq: SeqNo, sent_ms: u64) -> Msg {
        Msg::Data(DataPacket {
            flow: FlowId(flow),
            seq,
            payload: Bytes::from(vec![1u8; 64]),
            sent_at: Time::from_millis(sent_ms),
        })
    }

    fn setup(
        service: ServiceKind,
        schedule: Vec<(Dur, Msg)>,
        serve_seqs: Vec<SeqNo>,
    ) -> (Simulator<Msg>, NodeId, NodeId) {
        let mut sim = Simulator::new(21);
        let mut receiver = ReceiverNode::new(ReceiverConfig::prototype(Dur::from_millis(150)));
        let dc2 = sim.add_node(FakeDc2 {
            receiver: NodeId(1), // the receiver is added right after DC2
            nacks: vec![],
            serve_seqs,
            confirms: vec![],
        });
        receiver.register_flow(FlowId(1), service, dc2);
        let recv = sim.add_node(receiver);
        let feeder = sim.add_node(Feeder {
            receiver: recv,
            schedule,
        });
        sim.add_link(recv, dc2, LinkSpec::symmetric(Dur::from_millis(10)));
        sim.add_link(feeder, recv, LinkSpec::symmetric(Dur::from_millis(1)));
        (sim, recv, dc2)
    }

    #[test]
    fn in_order_delivery_produces_no_nacks() {
        let schedule = (0..10u64)
            .map(|s| (Dur::from_millis(10 * s + 1), data(1, s, 0)))
            .collect();
        let (mut sim, recv, dc2) = setup(ServiceKind::Coding, schedule, vec![]);
        sim.run_for(Dur::from_secs(2));
        let r = sim.node_as::<ReceiverNode>(recv);
        assert_eq!(r.flow_stats(FlowId(1)).unwrap().delivered, 10);
        assert_eq!(r.flow_stats(FlowId(1)).unwrap().nacks_gap, 0);
        // The trailing timeouts after the last packet may produce at most
        // max_consecutive_timeouts windows of timeout NACKs for packets that
        // were never sent.
        assert!(sim.node_as::<FakeDc2>(dc2).nacks.len() <= 16);
    }

    #[test]
    fn sequence_gap_triggers_immediate_nacks() {
        // Packets 0,1,2 then 6: sequence numbers 3,4,5 are missing.
        let mut schedule: Vec<(Dur, Msg)> = (0..3u64)
            .map(|s| (Dur::from_millis(5 * s + 1), data(1, s, 0)))
            .collect();
        schedule.push((Dur::from_millis(20), data(1, 6, 0)));
        let (mut sim, recv, dc2) = setup(ServiceKind::Coding, schedule, vec![]);
        sim.run_for(Dur::from_secs(1));
        let nacks = &sim.node_as::<FakeDc2>(dc2).nacks;
        let gap_nacks: Vec<SeqNo> = nacks
            .iter()
            .filter(|(_, _, r)| *r == NackReason::Gap)
            .map(|(_, s, _)| *s)
            .collect();
        assert_eq!(gap_nacks, vec![3, 4, 5]);
        let r = sim.node_as::<ReceiverNode>(recv);
        assert_eq!(r.flow_stats(FlowId(1)).unwrap().nacks_gap, 3);
    }

    #[test]
    fn timeout_in_burst_triggers_short_timeout_nack() {
        // A burst of closely spaced packets then silence: the short timer
        // fires and NACKs the next expected sequence number.
        let schedule: Vec<(Dur, Msg)> = (0..5u64)
            .map(|s| (Dur::from_millis(5 * s + 1), data(1, s, 0)))
            .collect();
        let (mut sim, _recv, dc2) = setup(ServiceKind::Coding, schedule, vec![]);
        sim.run_for(Dur::from_secs(2));
        let nacks = &sim.node_as::<FakeDc2>(dc2).nacks;
        assert!(
            nacks
                .iter()
                .any(|(_, seq, r)| *seq == 5 && *r == NackReason::ShortTimeout),
            "expected a short-timeout NACK for seq 5, got {nacks:?}"
        );
    }

    #[test]
    fn recovered_packets_are_recorded_with_recovery_delay() {
        // Missing packet 1 triggers a gap NACK; the fake DC2 serves it back.
        let schedule = vec![
            (Dur::from_millis(1), data(1, 0, 0)),
            (Dur::from_millis(10), data(1, 2, 5)),
        ];
        let (mut sim, recv, _dc2) = setup(ServiceKind::Caching, schedule, vec![1]);
        sim.run_for(Dur::from_secs(1));
        let r = sim.node_as::<ReceiverNode>(recv);
        assert!(r.was_delivered(FlowId(1), 1));
        let deliveries = r.deliveries(FlowId(1));
        let rec = deliveries.iter().find(|(s, _)| *s == 1).unwrap().1;
        assert_eq!(rec.method, DeliveryMethod::RecoveredFromCache);
        let delays = r.recovery_delays(FlowId(1));
        assert_eq!(delays.len(), 1);
        // NACK to DC2 (10 ms) + recovery back (10 ms) = 20 ms round trip.
        assert_eq!(delays[0].1, Dur::from_millis(20));
    }

    #[test]
    fn duplicates_are_counted_not_redelivered() {
        let schedule = vec![
            (Dur::from_millis(1), data(1, 0, 0)),
            (Dur::from_millis(2), data(1, 0, 0)),
            (Dur::from_millis(3), data(1, 0, 0)),
        ];
        let (mut sim, recv, _dc2) = setup(ServiceKind::Coding, schedule, vec![]);
        sim.run_for(Dur::from_secs(1));
        let stats = sim
            .node_as::<ReceiverNode>(recv)
            .flow_stats(FlowId(1))
            .unwrap();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.duplicates, 2);
    }

    #[test]
    fn internet_only_flows_never_nack() {
        let schedule = vec![
            (Dur::from_millis(1), data(1, 0, 0)),
            (Dur::from_millis(10), data(1, 5, 0)),
        ];
        let (mut sim, recv, dc2) = setup(ServiceKind::InternetOnly, schedule, vec![]);
        sim.run_for(Dur::from_secs(1));
        assert!(sim.node_as::<FakeDc2>(dc2).nacks.is_empty());
        assert_eq!(
            sim.node_as::<ReceiverNode>(recv)
                .flow_stats(FlowId(1))
                .unwrap()
                .nacks_sent,
            0
        );
    }

    #[test]
    fn coop_request_returns_held_packets() {
        let schedule = vec![
            (Dur::from_millis(1), data(1, 0, 0)),
            (Dur::from_millis(2), data(1, 1, 0)),
            (
                Dur::from_millis(50),
                Msg::CoopRequest {
                    batch: BatchId(3),
                    needed: vec![(FlowId(1), 0), (FlowId(1), 7)],
                },
            ),
        ];
        let (mut sim, recv, _dc2) = setup(ServiceKind::Coding, schedule, vec![]);
        sim.run_for(Dur::from_secs(1));
        let stats = sim
            .node_as::<ReceiverNode>(recv)
            .flow_stats(FlowId(1))
            .unwrap();
        assert_eq!(stats.coop_answered, 1);
        // Only seq 0 was held; seq 7 never arrived.
        assert_eq!(stats.coop_packets_supplied, 1);
    }

    #[test]
    fn nack_check_is_answered_with_current_state() {
        let schedule = vec![
            (Dur::from_millis(1), data(1, 0, 0)),
            (
                Dur::from_millis(5),
                Msg::NackCheck {
                    flow: FlowId(1),
                    seq: 0,
                },
            ),
            (
                Dur::from_millis(6),
                Msg::NackCheck {
                    flow: FlowId(1),
                    seq: 9,
                },
            ),
        ];
        let (mut sim, recv, _dc2) = setup(ServiceKind::Coding, schedule, vec![]);
        sim.run_for(Dur::from_secs(1));
        let r = sim.node_as::<ReceiverNode>(recv);
        assert_eq!(r.flow_stats(FlowId(1)).unwrap().nack_checks_answered, 2);
        // The confirms land on the feeder (it sent the checks), so just assert
        // the receiver's view of delivery is consistent.
        assert!(r.was_delivered(FlowId(1), 0));
        assert!(!r.was_delivered(FlowId(1), 9));
    }

    #[test]
    fn consecutive_timeouts_are_bounded() {
        // One packet then silence: the receiver must not NACK forever.
        let schedule = vec![(Dur::from_millis(1), data(1, 0, 0))];
        let (mut sim, _recv, dc2) = setup(ServiceKind::Coding, schedule, vec![]);
        sim.run_for(Dur::from_secs(30));
        let nacks = &sim.node_as::<FakeDc2>(dc2).nacks;
        // Two timeout windows of eight NACKs each is the configured ceiling.
        assert!(nacks.len() <= 16, "unbounded NACK storm: {}", nacks.len());
    }

    #[test]
    fn out_of_order_and_duplicate_arrivals_keep_deliveries_sorted() {
        // 0, 3 (gap: NACKs 1 and 2), then 1 late, 3 again, 2 never.
        let schedule = vec![
            (Dur::from_millis(1), data(1, 0, 0)),
            (Dur::from_millis(4), data(1, 3, 3)),
            (Dur::from_millis(6), data(1, 1, 1)),
            (Dur::from_millis(8), data(1, 3, 3)),
        ];
        let (mut sim, recv, dc2) = setup(ServiceKind::Coding, schedule, vec![]);
        sim.run_for(Dur::from_millis(20));
        let r = sim.node_as::<ReceiverNode>(recv);
        let stats = r.flow_stats(FlowId(1)).unwrap();
        assert_eq!((stats.delivered, stats.duplicates), (3, 1));
        assert_eq!(stats.nacks_gap, 2);
        let deliveries = r.deliveries(FlowId(1));
        let seqs: Vec<SeqNo> = deliveries.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, [0, 1, 3], "ordered by sequence, not by arrival");
        // The first copy of 3 is the one on record (feeder link: 1 ms).
        assert_eq!(deliveries[2].1.delivered_at, Time::from_millis(5));
        assert_eq!(deliveries[2].1.method, DeliveryMethod::Direct);
        assert!(!r.was_delivered(FlowId(1), 2));
        assert!(!r.was_delivered(FlowId(1), 4_000_000));
        let gap_nacks: Vec<SeqNo> = sim
            .node_as::<FakeDc2>(dc2)
            .nacks
            .iter()
            .map(|(_, seq, _)| *seq)
            .collect();
        assert_eq!(gap_nacks, [1, 2]);
    }

    #[test]
    fn timeout_window_reaches_past_the_highest_sequence_seen() {
        // Three packets, then silence: the timer NACKs 3..=10, none of which
        // the receiver has any record of yet; 4 is then served back and is
        // delivered with a recovery delay, the rest stay undelivered.
        let schedule: Vec<(Dur, Msg)> = (0..3u64)
            .map(|s| (Dur::from_millis(5 * s + 1), data(1, s, 0)))
            .collect();
        let (mut sim, recv, dc2) = setup(ServiceKind::Coding, schedule, vec![4]);
        sim.run_for(Dur::from_secs(2));
        let nacked: Vec<SeqNo> = sim
            .node_as::<FakeDc2>(dc2)
            .nacks
            .iter()
            .map(|(_, seq, _)| *seq)
            .collect();
        assert_eq!(&nacked[..8], [3, 4, 5, 6, 7, 8, 9, 10]);
        let mut once = nacked.clone();
        once.sort_unstable();
        once.dedup();
        assert_eq!(
            once.len(),
            nacked.len(),
            "one NACK per sequence: {nacked:?}"
        );
        let r = sim.node_as::<ReceiverNode>(recv);
        let seqs: Vec<SeqNo> = r.deliveries(FlowId(1)).iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, [0, 1, 2, 4]);
        let delays = r.recovery_delays(FlowId(1));
        assert_eq!(delays, [(4, Dur::from_millis(20))]);
    }

    fn flow_state() -> FlowState {
        let mut receiver = ReceiverNode::new(ReceiverConfig::prototype(Dur::from_millis(150)));
        receiver.register_flow(FlowId(1), ServiceKind::Coding, NodeId(0));
        receiver.flows.remove(&FlowId(1)).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The window keeps what the `BTreeMap` it replaced kept: the
        /// `limit` highest sequence numbers seen, latest copy of each.
        #[test]
        fn store_window_matches_an_ordered_map(
            seqs in proptest::collection::vec(0u64..40, 1..120),
            base in 0u64..1000,
            limit in 1usize..12,
        ) {
            let mut f = flow_state();
            let mut model: BTreeMap<SeqNo, u64> = BTreeMap::new();
            for (stamp, seq) in seqs.iter().enumerate() {
                let seq = base + seq;
                let packet = DataPacket::synthetic(FlowId(1), seq, 8, Time::from_millis(stamp as u64));
                f.remember(packet, limit);
                model.insert(seq, stamp as u64);
                while model.len() > limit {
                    model.pop_first();
                }
                prop_assert_eq!(f.stored, model.len());
                prop_assert!(f.store.len() <= 40);
                for probe in base.saturating_sub(2)..base + 42 {
                    let held = f.stored(probe).map(|p| (p.seq, p.sent_at));
                    let expected = model.get(&probe).map(|s| (probe, Time::from_millis(*s)));
                    prop_assert_eq!(held, expected);
                }
            }
        }
    }
}
