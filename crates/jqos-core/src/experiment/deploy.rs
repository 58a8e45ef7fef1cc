//! The one routine that wires a J-QoS deployment into the simulator — shared
//! by [`Scenario`](super::Scenario) (one egress DC) and
//! [`FleetScenario`](crate::fleet::FleetScenario) (a fleet of them) — and the
//! one collector that joins a sender's log with its receiver's deliveries.
//!
//! Node ids seed the per-node RNG streams, so the order nodes are added in —
//! DC1, the egress DCs, then a receiver and a sender per flow — is part of
//! the replay contract the golden digests pin.

use netsim::prelude::*;

use super::PacketOutcome;
use crate::coding::params::CodingParams;
use crate::nodes::dc1::Dc1Node;
use crate::nodes::dc2::Dc2Node;
use crate::nodes::receiver::{ReceiverConfig, ReceiverNode};
use crate::nodes::sender::SenderNode;
use crate::nodes::source::TrafficSource;
use crate::nodes::{FlowSpec, PathPolicy};
use crate::packet::{FlowId, Msg};
use crate::select::ServiceKind;

/// The simulator nodes of one wired flow.
#[derive(Clone, Copy)]
pub(crate) struct WiredFlow {
    pub flow: FlowId,
    pub service: ServiceKind,
    pub sender: NodeId,
    pub receiver: NodeId,
}

/// A simulator holding DC1, the egress DCs and the flows wired so far.
pub(crate) struct Deployment {
    pub sim: Simulator<Msg>,
    pub dc1: NodeId,
    pub dc2s: Vec<NodeId>,
    pub flows: Vec<WiredFlow>,
    rtt: Dur,
}

impl Deployment {
    /// Adds DC1 and `egress_dcs` egress DCs to a fresh simulator.  `rtt` is
    /// the nominal direct-path round trip the receivers' loss detectors are
    /// tuned to.
    pub fn new(mut sim: Simulator<Msg>, coding: CodingParams, egress_dcs: usize, rtt: Dur) -> Self {
        let dc1 = sim.add_node(Dc1Node::new(coding));
        let dc2s = (0..egress_dcs)
            .map(|_| sim.add_node(Dc2Node::default()))
            .collect();
        Deployment {
            sim,
            dc1,
            dc2s,
            flows: Vec::new(),
            rtt,
        }
    }

    /// Adds the next flow's receiver and sender and registers the flow at DC1
    /// and at egress DC `egress`.  A flow without an egress DC (the fleet
    /// could not host it) gets DC1 as its inert cloud target and must run
    /// `InternetOnly`, so that target is never contacted.
    pub fn add_flow(
        &mut self,
        service: ServiceKind,
        egress: Option<usize>,
        source: Box<dyn TrafficSource>,
        policy: Option<PathPolicy>,
    ) -> WiredFlow {
        let flow = FlowId(self.flows.len() as u32);
        let dc2 = egress.map_or(self.dc1, |i| self.dc2s[i]);

        let mut receiver_node = ReceiverNode::new(ReceiverConfig::prototype(self.rtt));
        receiver_node.register_flow(flow, service, dc2);
        let receiver = self.sim.add_node(receiver_node);

        let mut spec = FlowSpec::new(flow, service, receiver, self.dc1, dc2);
        if let Some(policy) = policy {
            spec.paths = policy;
        }
        let sender = self.sim.add_node(SenderNode::new(spec, source));

        self.sim
            .node_as::<Dc1Node>(self.dc1)
            .register_flow(flow, service, dc2, receiver);
        if egress.is_some() {
            self.sim
                .node_as::<Dc2Node>(dc2)
                .register_flow(flow, service, receiver);
        }

        let wired = WiredFlow {
            flow,
            service,
            sender,
            receiver,
        };
        self.flows.push(wired);
        wired
    }

    /// Links a flow's sender to its receiver (the direct Internet path) and
    /// to DC1.
    pub fn link_sender(&mut self, w: WiredFlow, internet: LinkSpec, access: LinkSpec) {
        self.sim.add_link(w.sender, w.receiver, internet);
        self.sim.add_link(w.sender, self.dc1, access);
    }

    /// Links a flow's receiver to every egress DC; `access[i]` is the spec
    /// of the path to egress DC `i`.
    pub fn link_receiver(&mut self, w: WiredFlow, access: &[LinkSpec]) {
        for (&dc2, spec) in self.dc2s.iter().zip(access) {
            self.sim.add_link(w.receiver, dc2, spec.clone());
        }
    }

    /// The outcome of every packet a flow sent, in send order: the sender's
    /// log joined with the receiver's first-arrival records.
    pub fn packet_outcomes(&mut self, w: WiredFlow) -> Vec<PacketOutcome> {
        // Sorted by sequence number, one record each: it is the receiver's
        // sequence-indexed per-flow table with the empty slots dropped.
        let deliveries = self
            .sim
            .node_as::<ReceiverNode>(w.receiver)
            .deliveries(w.flow);
        self.sim
            .node_as::<SenderNode>(w.sender)
            .sent_log()
            .iter()
            .map(|&(seq, sent_at, size)| {
                let delivery = deliveries
                    .binary_search_by_key(&seq, |&(s, _)| s)
                    .ok()
                    .map(|i| deliveries[i].1);
                PacketOutcome {
                    seq,
                    sent_at,
                    size,
                    delivered_at: delivery.map(|d| d.delivered_at),
                    method: delivery.map(|d| d.method),
                }
            })
            .collect()
    }
}
