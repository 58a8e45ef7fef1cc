//! The egress data center (DC2) as a simulator node.
//!
//! The protocol — caching, parked NACKs, cooperative recovery (§3.4, §4.4) —
//! is the state machine in `recovery::dc2`.  [`Dc2Node`] only feeds it each
//! message and timer with the simulated time and applies what it returns.

use std::any::Any;

use netsim::{Context, Node, NodeId, TimerId};

use crate::hash::FixedMap;
use crate::packet::{FlowId, Msg};
use crate::recovery::dc2::{Dc2Core, Dc2Out};
use crate::select::ServiceKind;

pub use crate::recovery::dc2::Dc2Stats;

/// The egress data center node; `Dc2Node::default()` serves no flows yet.
///
/// Outputs are applied in the order the core emitted them.  The simulator
/// numbers events as they are pushed and pops ties at one instant first in,
/// first out, so the order of the `set_timer`/`send_sized` calls is part of
/// the schedule a run replays.
#[derive(Default)]
pub struct Dc2Node {
    core: Dc2Core,
    /// The core's outputs for the input at hand; emptied as they are applied.
    out: Vec<Dc2Out>,
    /// The simulator timer behind each armed tag.
    timers: FixedMap<u64, TimerId>,
}

impl Dc2Node {
    /// Registers a flow with its service and receiving end host.
    pub fn register_flow(&mut self, flow: FlowId, service: ServiceKind, receiver: NodeId) {
        self.core.register_flow(flow, service, receiver);
    }

    /// Counters gathered so far.
    pub fn stats(&self) -> Dc2Stats {
        self.core.stats()
    }

    fn apply(&mut self, ctx: &mut Context<'_, Msg>) {
        for out in self.out.drain(..) {
            match out {
                Dc2Out::Send { to, msg, bytes } => ctx.send_sized(to, msg, bytes),
                Dc2Out::Arm { after, tag } => {
                    self.timers.insert(tag, ctx.set_timer(after, tag));
                }
                Dc2Out::Disarm { tag } => {
                    if let Some(timer) = self.timers.remove(&tag) {
                        ctx.cancel_timer(timer);
                    }
                }
            }
        }
    }
}

impl Node<Msg> for Dc2Node {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        self.core.on_message(ctx.now(), from, msg, &mut self.out);
        self.apply(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: TimerId, tag: u64) {
        self.timers.remove(&tag);
        self.core.on_timer(ctx.now(), tag, &mut self.out);
        self.apply(ctx);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The recovery core driven with literal messages and asserted on the
/// literal outputs, then the adapter in a simulator.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::encoder::BatchEncoder;
    use crate::coding::params::CodingParams;
    use crate::coding::queues::{QueuedPacket, ReadyBatch};
    use crate::packet::{BatchId, CodedPacket, CodingKind, DataPacket, NackReason, SeqNo};
    use crate::recovery::dc2::{COOP_DEADLINE as COOP, WAITING_DEADLINE as WAITING};
    use bytes::Bytes;
    use netsim::{Dur, LinkSpec, Simulator, Time};
    use ServiceKind::{Caching, Coding, Forwarding};

    const DC1: NodeId = NodeId(0);
    const R1: NodeId = NodeId(1);
    const R2: NodeId = NodeId(2);
    const R3: NodeId = NodeId(3);

    fn pkt(flow: u32, seq: u64, fill: u8) -> DataPacket {
        DataPacket::new(FlowId(flow), seq, Bytes::from(vec![fill; 200]), Time::ZERO)
    }

    /// `packet` as DC2 rebuilds it at `at_ms`.
    fn rebuilt(packet: &DataPacket, at_ms: u64) -> DataPacket {
        let mut packet = packet.clone();
        packet.sent_at = Time::from_millis(at_ms);
        packet
    }

    /// The parity packets of one cross-stream batch, numbered `id`.
    fn make_coded(id: u64, members: &[(DataPacket, NodeId)], parity: usize) -> Vec<CodedPacket> {
        let queued = |(packet, receiver)| QueuedPacket { packet, receiver };
        let packets = members.iter().cloned().map(queued).collect();
        let (kind, dc2) = (CodingKind::CrossStream, DC1);
        let ready = ReadyBatch { kind, dc2, packets };
        let params = CodingParams {
            cross_parity: parity,
            ..CodingParams::default()
        };
        let mut coded = BatchEncoder::new(params).encode(&ready, Time::ZERO);
        coded.iter_mut().for_each(|c| c.batch = BatchId(id));
        coded
    }

    fn nack(flow: u32, seq: SeqNo) -> Msg {
        let (flow, reason) = (FlowId(flow), NackReason::Gap);
        Msg::Nack { flow, seq, reason }
    }

    fn answer(batch: u64, packets: &[&DataPacket]) -> Msg {
        let batch = BatchId(batch);
        let packets = packets.iter().map(|p| (*p).clone()).collect();
        Msg::CoopResponse { batch, packets }
    }

    fn send(to: NodeId, msg: Msg) -> Dc2Out {
        let bytes = msg.wire_size();
        Dc2Out::Send { to, msg, bytes }
    }

    fn recovered(to: NodeId, packet: DataPacket, via: Option<u64>) -> Dc2Out {
        let via_batch = via.map(BatchId);
        send(to, Msg::Recovered { packet, via_batch })
    }

    fn coop_request(to: NodeId, batch: u64, needed: &[(u32, SeqNo)]) -> Dc2Out {
        let needed = needed.iter().map(|&(f, s)| (FlowId(f), s)).collect();
        let batch = BatchId(batch);
        send(to, Msg::CoopRequest { batch, needed })
    }

    fn nack_check(to: NodeId, flow: u32, seq: SeqNo) -> Dc2Out {
        let flow = FlowId(flow);
        let msg = Msg::NackCheck { flow, seq };
        Dc2Out::Send { to, msg, bytes: 0 }
    }

    fn arm(after: Dur, tag: u64) -> Dc2Out {
        Dc2Out::Arm { after, tag }
    }

    fn disarm(tag: u64) -> Dc2Out {
        Dc2Out::Disarm { tag }
    }

    fn core(flows: &[(u32, ServiceKind, NodeId)]) -> Dc2Core {
        let mut core = Dc2Core::default();
        for &(flow, service, receiver) in flows {
            core.register_flow(FlowId(flow), service, receiver);
        }
        core
    }

    /// Feeds `msg` from `from` at `at_ms` and returns what the core emitted.
    fn step(core: &mut Dc2Core, at_ms: u64, from: NodeId, msg: Msg) -> Vec<Dc2Out> {
        let mut out = Vec::new();
        core.on_message(Time::from_millis(at_ms), from, msg, &mut out);
        core.check();
        out
    }

    /// Fires the timer armed with `tag` at `at_ms`.
    fn fire(core: &mut Dc2Core, at_ms: u64, tag: u64) -> Vec<Dc2Out> {
        let mut out = Vec::new();
        core.on_timer(Time::from_millis(at_ms), tag, &mut out);
        core.check();
        out
    }

    #[test]
    fn caching_flow_serves_nack_from_cache() {
        let mut dc2 = core(&[(1, Caching, R1)]);
        assert_eq!(step(&mut dc2, 15, DC1, Msg::CloudData(pkt(1, 3, 7))), []);
        let out = step(&mut dc2, 60, R1, nack(1, 3));
        assert_eq!(out, [recovered(R1, pkt(1, 3, 7), None)]);
        let s = dc2.stats();
        assert_eq!([s.cached, s.nacks, s.cache_recoveries], [1, 1, 1]);
    }

    #[test]
    fn forwarding_flow_is_relayed_to_receiver() {
        let mut dc2 = core(&[(4, Forwarding, R1)]);
        let out = step(&mut dc2, 6, DC1, Msg::CloudData(pkt(4, 0, 1)));
        assert_eq!(out, [send(R1, Msg::Data(pkt(4, 0, 1)))]);
        assert_eq!(dc2.stats().forwarded, 1);
    }

    #[test]
    fn cooperative_recovery_rebuilds_packet_from_other_receivers() {
        // Flows 1, 2, 3 end at r1, r2, r3.  r1 loses packet (1, 5).
        let (p1, p2, p3) = (pkt(1, 5, 11), pkt(2, 8, 22), pkt(3, 2, 33));
        let mut dc2 = core(&[(1, Coding, R1), (2, Coding, R2), (3, Coding, R3)]);
        let members = [(p1.clone(), R1), (p2.clone(), R2), (p3.clone(), R3)];
        let coded = make_coded(0, &members, 1);
        assert_eq!(step(&mut dc2, 10, DC1, Msg::Coded(coded[0].clone())), []);

        let out = step(&mut dc2, 40, R1, nack(1, 5));
        let requests = [
            coop_request(R2, 0, &[(2, 8)]),
            coop_request(R3, 0, &[(3, 2)]),
        ];
        assert_eq!(out, [&[arm(COOP, 0)][..], &requests].concat());
        assert_eq!(step(&mut dc2, 50, R2, answer(0, &[&p2])), []);
        let out = step(&mut dc2, 52, R3, answer(0, &[&p3]));
        assert_eq!(out, [disarm(0), recovered(R1, rebuilt(&p1, 52), Some(0))]);
        let s = dc2.stats();
        assert_eq!([s.coop_started, s.coop_recovered, s.coop_failed], [1, 1, 0]);
        assert_eq!(dc2.check(), [0, 0, 1, 1, 3]);
    }

    #[test]
    fn straggler_is_tolerated_with_two_coded_packets_but_not_one() {
        let (p1, p2, p3) = (pkt(1, 5, 11), pkt(2, 8, 22), pkt(3, 2, 33));
        for parity in [1, 2] {
            let mut dc2 = core(&[(1, Coding, R1), (2, Coding, R2), (3, Coding, R3)]);
            let members = [(p1.clone(), R1), (p2.clone(), R2), (p3.clone(), R3)];
            for c in make_coded(0, &members, parity) {
                assert_eq!(step(&mut dc2, 10, DC1, Msg::Coded(c)), []);
            }
            assert_eq!(step(&mut dc2, 40, R1, nack(1, 5)).len(), 3);
            // r2 answers; r3 is the straggler and never does.
            let out = step(&mut dc2, 50, R2, answer(0, &[&p2]));
            if parity == 2 {
                assert_eq!(out, [disarm(0), recovered(R1, rebuilt(&p1, 50), Some(0))]);
            } else {
                // The recovery fails silently at the deadline.
                assert_eq!((out, fire(&mut dc2, 290, 0)), (vec![], vec![]));
            }
            let s = dc2.stats();
            let p = parity as u64;
            assert_eq!([s.coop_recovered, s.coop_failed], [p - 1, 2 - p]);
        }
    }

    #[test]
    fn nack_before_coded_packet_is_parked_then_promoted() {
        let (p1, p2) = (pkt(1, 5, 11), pkt(2, 8, 22));
        let mut dc2 = core(&[(1, Coding, R1), (2, Coding, R2)]);
        // The NACK arrives before the coded packet: parked, and checked.
        let out = step(&mut dc2, 10, R1, nack(1, 5));
        assert_eq!(out, [arm(WAITING, 0), nack_check(R1, 1, 5)]);
        let coded = make_coded(0, &[(p1.clone(), R1), (p2.clone(), R2)], 1);
        let out = step(&mut dc2, 60, DC1, Msg::Coded(coded[0].clone()));
        let request = coop_request(R2, 0, &[(2, 8)]);
        assert_eq!(out, [disarm(0), arm(COOP, 1), request]);
        let out = step(&mut dc2, 70, R2, answer(0, &[&p2]));
        assert_eq!(out, [disarm(1), recovered(R1, rebuilt(&p1, 70), Some(0))]);
        let s = dc2.stats();
        assert_eq!([s.nacks_waiting, s.nack_checks_sent], [1, 1]);
        assert_eq!([s.waiting_promoted, s.coop_recovered], [1, 1]);
    }

    #[test]
    fn parked_nacks_released_by_one_batch_start_recovery_in_arrival_order() {
        // One receiver terminates six coding flows, loses one packet of each
        // and NACKs them in this (deliberately unsorted) flow order, all
        // before the batch's coded packet reaches DC2.
        let arrival_order = [4u32, 1, 6, 2, 5, 3];
        let mut dc2 = core(&(1..=6).map(|flow| (flow, Coding, R1)).collect::<Vec<_>>());
        for (i, &flow) in arrival_order.iter().enumerate() {
            let out = step(&mut dc2, 10 + 2 * i as u64, R1, nack(flow, 7));
            assert_eq!(out, [arm(WAITING, i as u64), nack_check(R1, flow, 7)]);
        }
        let members: Vec<_> = (1..=6).map(|flow| (pkt(flow, 7, flow as u8), R1)).collect();
        let out = step(
            &mut dc2,
            60,
            DC1,
            Msg::Coded(make_coded(0, &members, 1).remove(0)),
        );

        // A recovery asks for every member but the one it is rebuilding.
        let promoted = arrival_order.iter().enumerate().flat_map(|(i, &flow)| {
            let others: Vec<_> = (1..=6).filter(|f| *f != flow).map(|f| (f, 7)).collect();
            [
                disarm(i as u64),
                arm(COOP, 6 + i as u64),
                coop_request(R1, 0, &others),
            ]
        });
        assert_eq!(out, promoted.collect::<Vec<_>>());
        let s = dc2.stats();
        assert_eq!([s.nacks_waiting, s.waiting_promoted], [6, 6]);
    }

    #[test]
    fn one_coded_packet_promotes_exactly_the_parked_nacks_it_covers() {
        // One receiver terminates four coding flows and NACKs seq 7 of flows
        // 3, 1 and 2, in that order, before any coded packet reaches DC2.
        let mut dc2 = core(&(1..=4).map(|flow| (flow, Coding, R1)).collect::<Vec<_>>());
        for (i, flow) in [3, 1, 2].into_iter().enumerate() {
            assert_eq!(step(&mut dc2, 10 + i as u64, R1, nack(flow, 7)).len(), 2);
        }
        // The batch covers flows 1, 3 and 4 — not flow 2 — and its two
        // parity packets arrive 20 ms apart.
        let members = [1, 3, 4].map(|flow| (pkt(flow, 7, flow as u8), R1));
        let coded = make_coded(0, &members, 2);
        // Arrival order (3 then 1), not the batch's member order (1 then 3).
        let out = step(&mut dc2, 60, DC1, Msg::Coded(coded[0].clone()));
        let promote = |i, needed| [disarm(i), arm(COOP, 3 + i), coop_request(R1, 0, needed)];
        let promoted = [promote(0, &[(1, 7), (4, 7)]), promote(1, &[(3, 7), (4, 7)])];
        assert_eq!(out, promoted.concat());
        // The second parity packet starts nothing.
        assert_eq!(step(&mut dc2, 80, DC1, Msg::Coded(coded[1].clone())), []);
        let s = dc2.stats();
        assert_eq!([s.coded_received, s.nacks_waiting], [2, 3]);
        assert_eq!([s.waiting_promoted, s.coop_started], [2, 2]);

        // Flow 2's NACK is still parked: a repeat is ignored, and it expires.
        assert_eq!(dc2.check(), [1, 2, 1, 2, 3]);
        assert_eq!(step(&mut dc2, 90, R1, nack(2, 7)), []);
        assert_eq!(fire(&mut dc2, 414, 2), []);
        assert_eq!(dc2.stats().waiting_expired, 1);
    }

    #[test]
    fn coded_batches_expire_in_arrival_order_from_every_index() {
        let (a1, a2) = (pkt(1, 5, 11), pkt(2, 8, 22));
        let (b1, b2) = (pkt(1, 6, 33), pkt(2, 9, 44));
        let mut dc2 = core(&[(1, Coding, R1), (2, Coding, R2)]);
        // Batch A reaches DC2 at 10 ms, batch B five seconds later.
        let batch_a = make_coded(0, &[(a1, R1), (a2, R2)], 2);
        let batch_b = make_coded(1, &[(b1.clone(), R1), (b2, R2)], 2);
        for (at_ms, batch) in [(10, batch_a), (5_010, batch_b)] {
            for c in batch {
                assert_eq!(step(&mut dc2, at_ms, DC1, Msg::Coded(c)), []);
            }
        }
        assert_eq!(dc2.check(), [0, 0, 2, 4, 4]);

        // A NACK nothing covers: its deadline is the DC2 timer that runs
        // expiry once batch A is 10 s old.  A leaves every index, B stays.
        assert_eq!(step(&mut dc2, 9_800, R1, nack(1, 99)).len(), 2);
        assert_eq!(fire(&mut dc2, 10_200, 0), []);
        assert_eq!(dc2.check(), [0, 0, 1, 2, 2]);
        assert_eq!(dc2.stats().waiting_expired, 1);

        // A NACK for A's member finds nothing and is parked; B's recovers at
        // once from its two parity packets.
        let out = step(&mut dc2, 10_300, R1, nack(1, 5));
        assert_eq!(out, [arm(WAITING, 1), nack_check(R1, 1, 5)]);
        let out = step(&mut dc2, 10_310, R1, nack(1, 6));
        let request = coop_request(R2, 1, &[(2, 9)]);
        let rebuilt = recovered(R1, rebuilt(&b1, 10_310), Some(1));
        assert_eq!(out, [arm(COOP, 2), request, disarm(2), rebuilt]);
        let s = dc2.stats();
        assert_eq!(
            [s.nacks_waiting, s.coop_started, s.coop_recovered],
            [2, 1, 1]
        );
    }

    #[test]
    fn finished_recoveries_leave_no_per_batch_state() {
        // r1 loses one member of each of two single-parity batches.  Batch 0
        // has three members and r3 never answers, so its recovery fails at
        // the deadline; batch 1 has two and r2's answer decodes it.
        let (p1, p2, p3) = (pkt(1, 5, 11), pkt(2, 8, 22), pkt(3, 2, 33));
        let (q1, q2) = (pkt(1, 6, 44), pkt(2, 9, 55));
        let mut dc2 = core(&[(1, Coding, R1), (2, Coding, R2), (3, Coding, R3)]);
        let mut coded = make_coded(0, &[(p1, R1), (p2.clone(), R2), (p3, R3)], 1);
        coded.extend(make_coded(1, &[(q1.clone(), R1), (q2.clone(), R2)], 1));
        for c in coded {
            assert_eq!(step(&mut dc2, 5, DC1, Msg::Coded(c)), []);
        }
        assert_eq!(step(&mut dc2, 40, R1, nack(1, 5)).len(), 3);
        assert_eq!(step(&mut dc2, 40, R1, nack(1, 6)).len(), 2);

        assert_eq!(step(&mut dc2, 48, R2, answer(0, &[&p2])), []);
        let out = step(&mut dc2, 48, R2, answer(1, &[&q2]));
        assert_eq!(out, [disarm(1), recovered(R1, rebuilt(&q1, 48), Some(1))]);
        // Batch 1's recovery is gone from every index (`check` asserts that
        // a batch lists only running recoveries); batch 0's still runs.
        assert_eq!(dc2.check(), [0, 1, 2, 2, 5]);
        assert_eq!(fire(&mut dc2, 290, 0), []);
        assert_eq!(dc2.check(), [0, 0, 2, 2, 5]);
        let s = dc2.stats();
        assert_eq!([s.coop_started, s.coop_recovered, s.coop_failed], [2, 1, 1]);
    }

    #[test]
    fn spurious_nack_is_withdrawn_by_confirm() {
        let mut dc2 = core(&[(1, Coding, R1)]);
        assert_eq!(step(&mut dc2, 10, R1, nack(1, 5)).len(), 2);
        let (flow, seq, still_missing) = (FlowId(1), 5, false);
        let confirm = Msg::NackConfirm {
            flow,
            seq,
            still_missing,
        };
        assert_eq!(step(&mut dc2, 30, R1, confirm), [disarm(0)]);
        let s = dc2.stats();
        assert_eq!([s.spurious_nacks, s.coop_started], [1, 0]);
        assert_eq!(dc2.check(), [0; 5]);
    }

    #[test]
    fn unserviceable_parked_nack_expires_silently() {
        let mut dc2 = core(&[(1, Coding, R1)]);
        assert_eq!(step(&mut dc2, 10, R1, nack(1, 5)).len(), 2);
        assert_eq!(fire(&mut dc2, 410, 0), []);
        let s = dc2.stats();
        assert_eq!([s.waiting_expired, s.coop_started], [1, 0]);
        assert_eq!(dc2.check(), [0; 5]);
    }

    #[test]
    fn pull_range_serves_cached_packets_for_mobility() {
        let mut dc2 = core(&[(6, Caching, R1)]);
        for seq in 0..5 {
            let packet = pkt(6, seq, seq as u8);
            assert_eq!(step(&mut dc2, 15 + seq, DC1, Msg::CloudData(packet)), []);
        }
        let (flow, from_seq, to_seq) = (FlowId(6), 0, 9);
        let pull = Msg::Pull {
            flow,
            from_seq,
            to_seq,
        };
        let out = step(&mut dc2, 205, R1, pull);
        let served = (0..5).map(|seq| recovered(R1, pkt(6, seq, seq as u8), None));
        assert_eq!(out, served.collect::<Vec<_>>());
        assert_eq!(dc2.stats().pulls_served, 5);
    }

    /// Sends its messages to node 0 as the simulation starts.
    struct Script(Vec<Msg>);

    impl Node<Msg> for Script {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.0.drain(..).for_each(|msg| ctx.send(NodeId(0), msg));
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Runs DC2 (node 0) for a second against a script (node 1) that plays
    /// DC1 and the receiver of coding flow 1; the messages arrive 5 ms in,
    /// in script order.  Returns DC2's counters and how many timers fired,
    /// all of them DC2's.
    fn simulate(script: Vec<Msg>) -> (Dc2Stats, u64) {
        let (mut sim, mut dc2) = (Simulator::new(1), Dc2Node::default());
        dc2.register_flow(FlowId(1), Coding, NodeId(1));
        let (dc2, peer) = (sim.add_node(dc2), sim.add_node(Script(script)));
        sim.add_link(peer, dc2, LinkSpec::symmetric(Dur::from_millis(5)));
        sim.run_for(Dur::from_secs(1));
        (
            sim.node_as::<Dc2Node>(dc2).stats(),
            sim.stats().timers_fired,
        )
    }

    #[test]
    fn a_decoded_recovery_never_fires_its_deadline() {
        // A one-member batch: the NACK's recovery decodes as it starts, so
        // its deadline is armed and disarmed in one input.
        let coded = make_coded(0, &[(pkt(1, 5, 11), NodeId(1))], 1).remove(0);
        let (s, fired) = simulate(vec![Msg::Coded(coded), nack(1, 5)]);
        assert_eq!([s.coop_started, s.coop_recovered, s.coop_failed], [1, 1, 0]);
        assert_eq!(fired, 0);
    }

    #[test]
    fn a_promoted_nack_never_fires_its_waiting_timer() {
        // Parked, then promoted by the batch: its waiting timer is disarmed,
        // and so is the deadline of the recovery it starts.
        let coded = make_coded(0, &[(pkt(1, 5, 11), NodeId(1))], 1).remove(0);
        let (s, fired) = simulate(vec![nack(1, 5), Msg::Coded(coded)]);
        let parked = [s.nacks_waiting, s.waiting_promoted, s.waiting_expired];
        assert_eq!((parked, s.coop_recovered, fired), ([1, 1, 0], 1, 0));
    }
}
