//! The sending end host: application traffic plus the J-QoS sender layer.
//!
//! The sender layer sits "just below the transport" (§5): every application
//! packet goes out on the direct Internet path and, depending on the flow's
//! [`PathPolicy`](crate::nodes::PathPolicy), a copy is also sent toward the ingress DC so that the
//! forwarding/caching/coding service can act on it.

use std::any::Any;

use bytes::Bytes;
use netsim::{Context, Node, NodeId, Time};

use crate::nodes::source::TrafficSource;
use crate::nodes::FlowSpec;
use crate::packet::{DataPacket, Msg, SeqNo};

/// Counters kept by the sender.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Application packets generated.
    pub packets_sent: u64,
    /// Copies sent toward DC1.
    pub cloud_copies: u64,
    /// Payload bytes generated.
    pub payload_bytes: u64,
    /// Payload bytes duplicated to the cloud.
    pub cloud_bytes: u64,
}

/// The sending end host for one flow.
pub struct SenderNode {
    spec: FlowSpec,
    source: Box<dyn TrafficSource>,
    next_seq: SeqNo,
    sent_log: Vec<(SeqNo, Time, usize)>,
    /// Every payload is a view of this one zero-filled slab (content does
    /// not matter to a synthetic workload), regrown when a packet outsizes it.
    zeros: Bytes,
    stats: SenderStats,
    finished: bool,
}

const TIMER_NEXT_PACKET: u64 = 1;

impl SenderNode {
    /// Creates a sender for `spec`, driven by `source`.
    pub fn new(spec: FlowSpec, source: Box<dyn TrafficSource>) -> Self {
        SenderNode {
            spec,
            source,
            next_seq: 0,
            sent_log: Vec::new(),
            zeros: Bytes::new(),
            stats: SenderStats::default(),
            finished: false,
        }
    }

    /// Counters gathered so far.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// `(sequence, send time, payload size)` for every generated packet; the
    /// experiment harness joins this with the receiver's delivery log.
    pub fn sent_log(&self) -> &[(SeqNo, Time, usize)] {
        &self.sent_log
    }

    /// Whether the traffic source has been exhausted.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The flow spec this sender was built with.
    pub fn spec(&self) -> FlowSpec {
        self.spec
    }

    fn schedule_next(&mut self, ctx: &mut Context<'_, Msg>) {
        match self.source.next_packet(ctx.rng()) {
            Some((gap, size)) => {
                // Stash the size in the timer tag's upper bits so the timer
                // handler knows what to emit without another source call.
                let tag = TIMER_NEXT_PACKET | ((size as u64) << 8);
                ctx.set_timer(gap, tag);
            }
            None => self.finished = true,
        }
    }

    fn emit_packet(&mut self, ctx: &mut Context<'_, Msg>, size: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let now = ctx.now();
        if size > self.zeros.len() {
            self.zeros = Bytes::from(vec![0u8; size.next_power_of_two()]);
        }
        let packet = DataPacket {
            flow: self.spec.flow,
            seq,
            payload: self.zeros.slice(0..size),
            sent_at: now,
        };
        self.sent_log.push((seq, now, size));
        self.stats.packets_sent += 1;
        self.stats.payload_bytes += size as u64;

        if self.spec.paths.send_direct {
            let wire = packet.wire_size();
            ctx.send_sized(self.spec.receiver, Msg::Data(packet.clone()), wire);
        }
        if self.spec.paths.duplicate_to_cloud(seq) {
            self.stats.cloud_copies += 1;
            self.stats.cloud_bytes += size as u64;
            let wire = packet.wire_size();
            ctx.send_sized(self.spec.dc1, Msg::CloudData(packet), wire);
        }
    }
}

impl Node<Msg> for SenderNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.schedule_next(ctx);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, _msg: Msg) {
        // The plain sender does not consume any protocol messages; the TCP
        // case study uses its own sender from the `transport` crate.
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: netsim::TimerId, tag: u64) {
        if tag & 0xFF == TIMER_NEXT_PACKET {
            let size = (tag >> 8) as usize;
            self.emit_packet(ctx, size);
            self.schedule_next(ctx);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodes::source::CbrSource;
    use crate::nodes::PathPolicy;
    use crate::packet::FlowId;
    use crate::select::ServiceKind;
    use netsim::{Dur, LinkSpec, Simulator};

    /// A sink that counts what it receives, used to observe sender output.
    struct Sink {
        data: Vec<(SeqNo, Time)>,
        cloud: Vec<SeqNo>,
    }
    impl Node<Msg> for Sink {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            match msg {
                Msg::Data(p) => self.data.push((p.seq, ctx.now())),
                Msg::CloudData(p) => self.cloud.push(p.seq),
                _ => {}
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn build(policy: PathPolicy, count: u64) -> (Simulator<Msg>, NodeId, NodeId, NodeId) {
        let mut sim = Simulator::new(11);
        let receiver = sim.add_node(Sink {
            data: vec![],
            cloud: vec![],
        });
        let dc1 = sim.add_node(Sink {
            data: vec![],
            cloud: vec![],
        });
        let spec = FlowSpec {
            flow: FlowId(1),
            service: ServiceKind::Coding,
            receiver,
            dc1,
            dc2: dc1,
            paths: policy,
        };
        let sender = sim.add_node(SenderNode::new(
            spec,
            Box::new(CbrSource::new(Dur::from_millis(10), 200, count)),
        ));
        sim.add_link(sender, receiver, LinkSpec::symmetric(Dur::from_millis(50)));
        sim.add_link(sender, dc1, LinkSpec::symmetric(Dur::from_millis(5)));
        (sim, sender, receiver, dc1)
    }

    #[test]
    fn sender_emits_all_packets_on_both_paths() {
        let (mut sim, sender, receiver, dc1) =
            build(PathPolicy::for_service(ServiceKind::Coding), 10);
        sim.run_for(Dur::from_secs(2));
        let s = sim.node_as::<SenderNode>(sender);
        assert_eq!(s.stats().packets_sent, 10);
        assert_eq!(s.stats().cloud_copies, 10);
        assert!(s.is_finished());
        assert_eq!(s.sent_log().len(), 10);
        let r = sim.node_as::<Sink>(receiver);
        assert_eq!(r.data.len(), 10);
        let d = sim.node_as::<Sink>(dc1);
        assert_eq!(d.cloud.len(), 10);
    }

    #[test]
    fn internet_only_policy_sends_no_cloud_copies() {
        let (mut sim, sender, _receiver, dc1) =
            build(PathPolicy::for_service(ServiceKind::InternetOnly), 5);
        sim.run_for(Dur::from_secs(1));
        assert_eq!(sim.node_as::<SenderNode>(sender).stats().cloud_copies, 0);
        assert!(sim.node_as::<Sink>(dc1).cloud.is_empty());
    }

    #[test]
    fn cloud_only_policy_skips_the_direct_path() {
        let (mut sim, _sender, receiver, dc1) = build(PathPolicy::cloud_only(), 5);
        sim.run_for(Dur::from_secs(1));
        assert!(sim.node_as::<Sink>(receiver).data.is_empty());
        assert_eq!(sim.node_as::<Sink>(dc1).cloud.len(), 5);
    }

    #[test]
    fn selective_duplication_sends_every_third_packet_to_cloud() {
        let (mut sim, sender, receiver, dc1) = build(PathPolicy::selective(3), 9);
        sim.run_for(Dur::from_secs(1));
        assert_eq!(sim.node_as::<SenderNode>(sender).stats().cloud_copies, 3);
        assert_eq!(sim.node_as::<Sink>(receiver).data.len(), 9);
        assert_eq!(sim.node_as::<Sink>(dc1).cloud, vec![0, 3, 6]);
    }

    #[test]
    fn packet_pacing_follows_the_source_interval() {
        let (mut sim, _sender, receiver, _dc1) =
            build(PathPolicy::for_service(ServiceKind::InternetOnly), 3);
        sim.run_for(Dur::from_secs(1));
        let r = sim.node_as::<Sink>(receiver);
        // First packet at 10 ms (source gap) + 50 ms link = 60 ms, then every
        // 10 ms after that.
        assert_eq!(r.data[0].1, Time::from_millis(60));
        assert_eq!(r.data[1].1, Time::from_millis(70));
        assert_eq!(r.data[2].1, Time::from_millis(80));
    }
}
