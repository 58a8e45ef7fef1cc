//! The ingress data center (DC1).
//!
//! DC1 terminates the sender's cloud copies and runs the service the flow
//! registered for:
//!
//! * **forwarding** — relay the packet along the overlay (to DC2, straight to
//!   the receiver in the partial-overlay case, or to a multicast group);
//! * **caching** — relay the packet to DC2, which caches it near the receiver;
//! * **coding** — feed the packet into the coding plan (Algorithm 1) and ship
//!   the resulting coded packets to DC2.

use netsim::{Context, Dur, Node, NodeId};
use std::any::Any;

use crate::coding::encoder::BatchEncoder;
use crate::coding::params::CodingParams;
use crate::coding::queues::CodingQueues;
use crate::hash::FixedMap;
use crate::packet::{DataPacket, FlowId, Msg};
use crate::select::ServiceKind;
use crate::services::forwarding::ForwardingTable;

/// Counters kept by DC1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Dc1Stats {
    /// Cloud copies received from senders.
    pub packets_in: u64,
    /// Packets relayed onward (forwarding/caching).
    pub packets_relayed: u64,
    /// Coded packets shipped to DC2.
    pub coded_sent: u64,
    /// Packets for which no flow registration was found.
    pub unknown_flow: u64,
}

/// Per-flow registration state at DC1.
#[derive(Clone, Copy, Debug)]
struct FlowState {
    service: ServiceKind,
    dc2: NodeId,
    receiver: NodeId,
    /// Partial overlay: relay directly to the receiver instead of via DC2.
    partial_overlay: bool,
}

/// The ingress data center node.
pub struct Dc1Node {
    flows: FixedMap<FlowId, FlowState>,
    forwarding: ForwardingTable,
    queues: CodingQueues,
    encoder: BatchEncoder,
    flush_interval: Dur,
    stats: Dc1Stats,
}

const TIMER_FLUSH: u64 = 1;

impl Dc1Node {
    /// Creates a DC1 node with the given coding parameters.
    pub fn new(params: CodingParams) -> Self {
        let flush_interval = params.queue_timeout / 2;
        Dc1Node {
            flows: FixedMap::default(),
            forwarding: ForwardingTable::new(),
            queues: CodingQueues::new(params),
            encoder: BatchEncoder::new(params),
            flush_interval: flush_interval.max(Dur::from_millis(1)),
            stats: Dc1Stats::default(),
        }
    }

    /// Registers a flow with its service, egress DC and receiver.
    pub fn register_flow(
        &mut self,
        flow: FlowId,
        service: ServiceKind,
        dc2: NodeId,
        receiver: NodeId,
    ) {
        self.flows.insert(
            flow,
            FlowState {
                service,
                dc2,
                receiver,
                partial_overlay: false,
            },
        );
        self.queues.register_flow(flow, dc2, receiver);
    }

    /// Marks a forwarding flow as partial overlay (Figure 3(b)): DC1 relays
    /// straight to the receiver without involving DC2.
    pub fn set_partial_overlay(&mut self, flow: FlowId) {
        if let Some(state) = self.flows.get_mut(&flow) {
            state.partial_overlay = true;
        }
    }

    /// Access to the forwarding table, e.g. to configure multicast groups
    /// (Figure 3(c)).
    pub fn forwarding_table_mut(&mut self) -> &mut ForwardingTable {
        &mut self.forwarding
    }

    /// Counters gathered so far.
    pub fn stats(&self) -> Dc1Stats {
        self.stats
    }

    /// The coding plan's counters (batches, collisions, discards).
    pub fn coding_stats(&self) -> crate::coding::queues::PlanStats {
        self.queues.stats()
    }

    /// The encoder's counters (coded packets, byte overhead).
    pub fn encoder_stats(&self) -> crate::coding::encoder::EncoderStats {
        self.encoder.stats()
    }

    fn relay(&mut self, ctx: &mut Context<'_, Msg>, packet: DataPacket, state: FlowState) {
        // An explicit forwarding-table entry (e.g. a multicast group) takes
        // precedence; its targets are end hosts, so they receive plain data.
        let explicit = self.forwarding.resolve(packet.flow);
        let wire = packet.wire_size();
        if !explicit.is_empty() {
            for target in explicit {
                self.stats.packets_relayed += 1;
                ctx.send_sized(target, Msg::Data(packet.clone()), wire);
            }
        } else if state.partial_overlay {
            // Partial overlay (Figure 3(b)): straight to the receiver.
            self.stats.packets_relayed += 1;
            ctx.send_sized(state.receiver, Msg::Data(packet), wire);
        } else {
            // Full overlay: relay the cloud copy to the egress DC, which will
            // forward it (forwarding service) or cache it (caching service).
            self.stats.packets_relayed += 1;
            ctx.send_sized(state.dc2, Msg::CloudData(packet), wire);
        }
    }

    fn run_coding(&mut self, ctx: &mut Context<'_, Msg>, packet: DataPacket) {
        let now = ctx.now();
        let ready = self.queues.process(packet, now);
        for batch in ready {
            for coded in self.encoder.encode(&batch, now) {
                self.stats.coded_sent += 1;
                let wire = coded.wire_size();
                ctx.send_sized(batch.dc2, Msg::Coded(coded), wire);
            }
        }
    }
}

impl Node<Msg> for Dc1Node {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(self.flush_interval, TIMER_FLUSH);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        if let Msg::Fleet(crate::fleet::FleetMsg::Retarget { flow, dc2 }) = msg {
            // Fleet failover: point the flow's cloud path at its new egress
            // DC.  Re-registering the coding queue makes future batches (and
            // their parity) target the adopting DC2.
            if let Some(state) = self.flows.get_mut(&flow) {
                state.dc2 = dc2;
                let receiver = state.receiver;
                self.queues.register_flow(flow, dc2, receiver);
            }
            return;
        }
        if let Msg::CloudData(packet) = msg {
            let state = match self.flows.get(&packet.flow) {
                Some(s) => *s,
                None => {
                    // No registration: if the forwarding table still knows the
                    // flow (pure relay use case), honour it, otherwise drop.
                    let targets = self.forwarding.resolve(packet.flow);
                    if targets.is_empty() {
                        self.stats.unknown_flow += 1;
                    } else {
                        self.stats.packets_in += 1;
                        for target in targets {
                            self.stats.packets_relayed += 1;
                            let wire = packet.wire_size();
                            ctx.send_sized(target, Msg::Data(packet.clone()), wire);
                        }
                    }
                    return;
                }
            };
            self.stats.packets_in += 1;
            match state.service {
                ServiceKind::InternetOnly => {}
                ServiceKind::Forwarding | ServiceKind::Caching => self.relay(ctx, packet, state),
                ServiceKind::Coding => self.run_coding(ctx, packet),
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: netsim::TimerId, tag: u64) {
        if tag == TIMER_FLUSH {
            let now = ctx.now();
            let expired = self.queues.flush_expired(now);
            for batch in expired {
                for coded in self.encoder.encode(&batch, now) {
                    self.stats.coded_sent += 1;
                    let wire = coded.wire_size();
                    ctx.send_sized(batch.dc2, Msg::Coded(coded), wire);
                }
            }
            ctx.set_timer(self.flush_interval, TIMER_FLUSH);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::CodedPacket;
    use crate::services::forwarding::{GroupId, NextHop};
    use bytes::Bytes;
    use netsim::{LinkSpec, Simulator, Time};

    struct Sink {
        data: Vec<DataPacket>,
        cloud: Vec<DataPacket>,
        coded: Vec<CodedPacket>,
    }
    impl Sink {
        fn new() -> Self {
            Sink {
                data: vec![],
                cloud: vec![],
                coded: vec![],
            }
        }
    }
    impl Node<Msg> for Sink {
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            match msg {
                Msg::Data(p) => self.data.push(p),
                Msg::CloudData(p) => self.cloud.push(p),
                Msg::Coded(c) => self.coded.push(c),
                _ => {}
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Injects CloudData packets into DC1 on start.
    struct Injector {
        dc1: NodeId,
        packets: Vec<DataPacket>,
    }
    impl Node<Msg> for Injector {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for p in self.packets.drain(..) {
                ctx.send(self.dc1, Msg::CloudData(p));
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, _msg: Msg) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn pkt(flow: u32, seq: u64) -> DataPacket {
        DataPacket {
            flow: FlowId(flow),
            seq,
            payload: Bytes::from(vec![flow as u8; 120]),
            sent_at: Time::ZERO,
        }
    }

    fn wire_up(
        dc1_node: Dc1Node,
        packets: Vec<DataPacket>,
    ) -> (Simulator<Msg>, NodeId, NodeId, NodeId, NodeId) {
        let mut sim = Simulator::new(3);
        let dc2 = sim.add_node(Sink::new());
        let receiver = sim.add_node(Sink::new());
        let dc1 = sim.add_node(dc1_node);
        let injector = sim.add_node(Injector { dc1, packets });
        sim.add_link(injector, dc1, LinkSpec::symmetric(Dur::from_millis(5)));
        sim.add_link(dc1, dc2, LinkSpec::symmetric(Dur::from_millis(40)));
        sim.add_link(dc1, receiver, LinkSpec::symmetric(Dur::from_millis(12)));
        (sim, dc1, dc2, receiver, injector)
    }

    #[test]
    fn forwarding_flow_is_relayed_to_dc2() {
        let mut node = Dc1Node::new(CodingParams::default());
        node.register_flow(FlowId(1), ServiceKind::Forwarding, NodeId(0), NodeId(1));
        let (mut sim, dc1, dc2, receiver, _) = wire_up(node, vec![pkt(1, 0), pkt(1, 1)]);
        sim.run_for(Dur::from_secs(1));
        assert_eq!(sim.node_as::<Sink>(dc2).cloud.len(), 2);
        assert!(sim.node_as::<Sink>(receiver).data.is_empty());
        let d = sim.node_as::<Dc1Node>(dc1);
        assert_eq!(d.stats().packets_in, 2);
        assert_eq!(d.stats().packets_relayed, 2);
    }

    #[test]
    fn partial_overlay_goes_straight_to_receiver() {
        let mut node = Dc1Node::new(CodingParams::default());
        node.register_flow(FlowId(1), ServiceKind::Forwarding, NodeId(0), NodeId(1));
        node.set_partial_overlay(FlowId(1));
        let (mut sim, _dc1, dc2, receiver, _) = wire_up(node, vec![pkt(1, 0)]);
        sim.run_for(Dur::from_secs(1));
        assert!(sim.node_as::<Sink>(dc2).cloud.is_empty());
        assert_eq!(sim.node_as::<Sink>(receiver).data.len(), 1);
    }

    #[test]
    fn multicast_group_fans_out() {
        let mut node = Dc1Node::new(CodingParams::default());
        node.register_flow(FlowId(2), ServiceKind::Forwarding, NodeId(0), NodeId(1));
        let g = GroupId(7);
        node.forwarding_table_mut().join_group(g, NodeId(0));
        node.forwarding_table_mut().join_group(g, NodeId(1));
        node.forwarding_table_mut()
            .set_route(FlowId(2), NextHop::Multicast(g));
        let (mut sim, _dc1, dc2, receiver, _) = wire_up(node, vec![pkt(2, 0)]);
        sim.run_for(Dur::from_secs(1));
        // Both group members (dc2-as-sink and receiver) get a copy.
        assert_eq!(sim.node_as::<Sink>(dc2).data.len(), 1);
        assert_eq!(sim.node_as::<Sink>(receiver).data.len(), 1);
    }

    #[test]
    fn coding_flow_produces_cross_stream_coded_packets() {
        let params = CodingParams {
            k: 3,
            cross_parity: 2,
            in_stream_enabled: false,
            ..CodingParams::default()
        };
        let mut node = Dc1Node::new(params);
        for f in 0..3u32 {
            node.register_flow(FlowId(f), ServiceKind::Coding, NodeId(0), NodeId(1));
        }
        let packets = vec![pkt(0, 0), pkt(1, 0), pkt(2, 0)];
        let (mut sim, dc1, dc2, _receiver, _) = wire_up(node, packets);
        sim.run_for(Dur::from_secs(1));
        let coded = &sim.node_as::<Sink>(dc2).coded;
        assert_eq!(
            coded.len(),
            2,
            "k distinct flows -> one batch of 2 parity packets"
        );
        assert_eq!(coded[0].members.len(), 3);
        assert_eq!(sim.node_as::<Dc1Node>(dc1).stats().coded_sent, 2);
    }

    #[test]
    fn queue_timeout_flushes_partial_coding_batches() {
        let params = CodingParams {
            k: 6,
            cross_parity: 1,
            in_stream_enabled: false,
            queue_timeout: Dur::from_millis(20),
            ..CodingParams::default()
        };
        let mut node = Dc1Node::new(params);
        node.register_flow(FlowId(0), ServiceKind::Coding, NodeId(0), NodeId(1));
        node.register_flow(FlowId(1), ServiceKind::Coding, NodeId(0), NodeId(1));
        // Only two flows ever arrive: the batch can never fill to k=6 and
        // must be emitted by the age bound instead.
        let (mut sim, _dc1, dc2, _receiver, _) = wire_up(node, vec![pkt(0, 0), pkt(1, 0)]);
        sim.run_for(Dur::from_secs(1));
        let coded = &sim.node_as::<Sink>(dc2).coded;
        assert_eq!(coded.len(), 1);
        assert_eq!(coded[0].members.len(), 2);
    }

    #[test]
    fn unknown_flows_are_counted_and_dropped() {
        let node = Dc1Node::new(CodingParams::default());
        let (mut sim, dc1, dc2, receiver, _) = wire_up(node, vec![pkt(9, 0)]);
        sim.run_for(Dur::from_secs(1));
        assert_eq!(sim.node_as::<Dc1Node>(dc1).stats().unknown_flow, 1);
        assert!(sim.node_as::<Sink>(dc2).cloud.is_empty());
        assert!(sim.node_as::<Sink>(receiver).data.is_empty());
    }
}
