//! DC2's recovery protocol (§3.4, §4.4) as a plain state machine.
//!
//! [`Dc2Core`] is the egress data center without a network under it.  It is
//! handed one message, or the firing of a timer it armed, with the time, and
//! appends what DC2 does about it to a caller-owned list of [`Dc2Out`]s:
//! packets to send, timers to arm or disarm.  It uses nothing of `netsim` but
//! the value types `Time`, `Dur` and `NodeId`; `nodes::dc2` hosts it in the
//! simulator.
//!
//! For forwarding flows DC2 relays each cloud copy to the receiver; for
//! caching flows it keeps a copy of every packet and serves NACKs and pulls
//! from it; for coding flows it holds DC1's parity packets and, when a
//! receiver reports a loss, runs cooperative recovery: it asks the other
//! receivers of the batch for their data packets, decodes the missing one and
//! delivers it.  Two details of the paper are modelled explicitly:
//!
//! * **Spurious-NACK suppression** — a NACK that finds no coded or cached
//!   packet (typical at burst and session boundaries) is parked while DC2
//!   *checks with the receiver first*; it waits for the cloud copy until the
//!   receiver withdraws it or [`WAITING_DEADLINE`] passes (§3.4).
//! * **Straggler tolerance** — recovery proceeds as soon as *enough* shards
//!   are at hand, so with two parity packets per batch one cooperating
//!   receiver may fail to answer (§4.2, Figure 8(e)).  Otherwise recovery
//!   fails silently at [`COOP_DEADLINE`].

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use netsim::{Dur, NodeId, Time};

use crate::coding::encoder::BatchDecoder;
use crate::fleet::FleetMsg;
use crate::hash::FixedMap;
use crate::packet::{
    BatchId, BatchMember, CodedPacket, CodingKind, DataPacket, FlowId, Msg, SeqNo,
};
use crate::select::ServiceKind;
use crate::services::caching::PacketCache;

/// How long a cooperative recovery may collect shards; past it the recovery
/// fails silently (§4.4).
pub(crate) const COOP_DEADLINE: Dur = Dur(250_000);

/// How long a parked NACK waits for its coded or cached packet to reach DC2
/// before it is dropped: the encoding delay at DC1 plus the inter-DC
/// propagation (the Δ wait of §6.1).
pub(crate) const WAITING_DEADLINE: Dur = Dur(400_000);

/// How long DC2 holds a batch's parity packets, counted from the first.
pub(crate) const CODED_TTL: Dur = Dur(10_000_000);

/// A packet of a flow: what a NACK names and a batch member is.
type Target = (FlowId, SeqNo);

/// What DC2 does in answer to one input, in the order it does it.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Dc2Out {
    /// Send `msg` to `to` as a packet of `bytes` bytes.
    Send { to: NodeId, msg: Msg, bytes: usize },
    /// Hand `tag` back to [`Dc2Core::on_timer`] once `after` has passed,
    /// unless it is disarmed first.
    Arm { after: Dur, tag: u64 },
    /// Cancel the timer armed with `tag`; it must never fire.
    Disarm { tag: u64 },
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

/// A NACK in hand: the packet it names and the host that sent it.
#[derive(Clone, Copy, Debug)]
struct Nack {
    target: Target,
    requester: NodeId,
}

/// The parked NACKs, by id and by target.
#[derive(Default)]
struct Parked {
    by_id: FixedMap<u64, Nack>,
    by_target: FixedMap<Target, u64>,
}

impl Parked {
    fn insert(&mut self, id: u64, nack: Nack) {
        self.by_target.insert(nack.target, id);
        self.by_id.insert(id, nack);
    }

    fn remove(&mut self, target: Target) -> Option<(u64, Nack)> {
        let id = self.by_target.remove(&target)?;
        Some((id, self.by_id.remove(&id)?))
    }

    fn remove_id(&mut self, id: u64) -> Option<Nack> {
        let nack = self.by_id.remove(&id)?;
        self.by_target.remove(&nack.target);
        Some(nack)
    }
}

/// A cooperative recovery in progress.
struct Recovery {
    nack: Nack,
    batch: BatchId,
    /// The data packets receivers sent back, each once.
    got: Vec<DataPacket>,
}

/// The running recoveries, by id and by target, and the decoder that ends
/// them.
#[derive(Default)]
struct Running {
    by_id: FixedMap<u64, Recovery>,
    by_target: FixedMap<Target, u64>,
    decoder: BatchDecoder,
}

impl Running {
    fn insert(&mut self, id: u64, recovery: Recovery) {
        self.by_target.insert(recovery.nack.target, id);
        self.by_id.insert(id, recovery);
    }

    fn remove(&mut self, id: u64) -> Option<Recovery> {
        let recovery = self.by_id.remove(&id)?;
        self.by_target.remove(&recovery.nack.target);
        Some(recovery)
    }

    /// Adds `packets` to recovery `id` and, once the shards at hand — the
    /// `parity` held plus the packets in `got` — suffice, rebuilds its
    /// target and ends it.
    fn advance(
        &mut self,
        id: u64,
        packets: &[DataPacket],
        parity: &[CodedPacket],
        now: Time,
    ) -> Option<(Recovery, DataPacket)> {
        let r = self.by_id.get_mut(&id)?;
        for p in packets {
            let key = (p.flow, p.seq);
            if !r.got.iter().any(|c| (c.flow, c.seq) == key) {
                r.got.push(p.clone());
            }
        }
        if r.got.len() + parity.len() < parity[0].members.len() {
            return None;
        }
        let decoded = self
            .decoder
            .decode_batch(parity, &r.got, r.nack.target, now);
        let packet = decoded.ok()??;
        Some((self.remove(id)?, packet))
    }
}

/// A batch whose parity DC2 holds.
struct Batch {
    /// Its parity packets in arrival order; never empty.
    parity: Vec<CodedPacket>,
    /// The running recoveries that use it, in start order.
    recoveries: Vec<u64>,
}

/// The batches held, with their expiry queue and what each covers.
#[derive(Default)]
struct Held {
    batches: FixedMap<BatchId, Batch>,
    /// Every held batch with the arrival time of its first parity packet,
    /// oldest first.  Arrival times never decrease, so the batches past
    /// [`CODED_TTL`] are exactly a prefix.
    order: VecDeque<(Time, BatchId)>,
    /// The held batches covering a packet, in arrival order, each once;
    /// never an empty list.
    coverage: FixedMap<Target, Vec<BatchId>>,
}

impl Held {
    fn insert(&mut self, coded: CodedPacket, now: Time) {
        let id = coded.batch;
        match self.batches.entry(id) {
            Entry::Occupied(mut batch) => batch.get_mut().parity.push(coded),
            Entry::Vacant(slot) => {
                self.order.push_back((now, id));
                for m in &coded.members {
                    self.coverage.entry((m.flow, m.seq)).or_default().push(id);
                }
                let (parity, recoveries) = (vec![coded], Vec::new());
                slot.insert(Batch { parity, recoveries });
            }
        }
    }

    /// Drops the batches past [`CODED_TTL`].  Recoveries still running on one
    /// are left to fail at their deadline.
    fn expire(&mut self, now: Time) {
        while let Some(&(arrived, id)) = self.order.front() {
            if now.saturating_since(arrived) < CODED_TTL {
                break;
            }
            self.order.pop_front();
            let batch = self.batches.remove(&id).expect("queued batches are held");
            for m in &batch.parity[0].members {
                let target = (m.flow, m.seq);
                if let Some(list) = self.coverage.get_mut(&target) {
                    list.retain(|b| *b != id);
                    if list.is_empty() {
                        self.coverage.remove(&target);
                    }
                }
            }
        }
    }

    /// The batch to rebuild `target` from.  A cross-stream batch is
    /// preferred: its members live at *other* receivers, so it can repair a
    /// burst that wiped out the requester's own recent packets, which an
    /// in-stream batch of those very packets cannot.
    fn pick(&self, target: Target) -> Option<BatchId> {
        let candidates = self.coverage.get(&target)?;
        let cross = |b: &&BatchId| self.batches[*b].parity[0].kind == CodingKind::CrossStream;
        let first = candidates.first();
        candidates.iter().find(cross).or(first).copied()
    }
}

/// The egress DC's protocol state: the flows it serves, the packet cache,
/// and the parked NACKs, running recoveries and held batches, each with one
/// owner whose `insert`/`remove` are the only mutators of its indices.  Ids
/// of parked NACKs and recoveries come from one counter, rise in arrival
/// order and double as timer tags.
///
/// Every input is answered with keyed lookups, and no map is walked where
/// its order could reach the outputs: what is walked — the expiry queue, a
/// coverage list, a batch's recoveries, its members by receiver, the NACKs
/// one parity packet promotes — is a queue, a `Vec` in arrival order, or
/// sorted first.  The outputs order the simulator's events (ties at one
/// instant pop in push order), so any other order would leak into a replay.
#[derive(Default)]
pub(crate) struct Dc2Core {
    flows: FixedMap<FlowId, (ServiceKind, NodeId)>,
    /// The caching service's store, at `CacheConfig::default()`.
    cache: PacketCache,
    held: Held,
    parked: Parked,
    running: Running,
    next_id: u64,
    stats: Dc2Stats,
}

impl Dc2Core {
    /// Registers a flow with its service and receiving end host.
    pub(crate) fn register_flow(&mut self, flow: FlowId, service: ServiceKind, receiver: NodeId) {
        self.flows.insert(flow, (service, receiver));
    }

    /// Counters gathered so far.
    pub(crate) fn stats(&self) -> Dc2Stats {
        self.stats
    }

    /// Handles `msg`, received from `from` at `now`.
    pub(crate) fn on_message(&mut self, now: Time, from: NodeId, msg: Msg, out: &mut Vec<Dc2Out>) {
        match msg {
            Msg::CloudData(p) => self.on_cloud_data(now, p, out),
            Msg::Coded(c) => self.on_coded(now, c, out),
            Msg::Nack { flow, seq, .. } => self.on_nack(now, from, (flow, seq), out),
            // The receiver got the packet after all; one still missing keeps
            // waiting for its cloud copy.
            Msg::NackConfirm {
                flow,
                seq,
                still_missing: false,
            } => {
                if let Some((tag, _)) = self.parked.remove((flow, seq)) {
                    out.push(Dc2Out::Disarm { tag });
                }
                self.stats.spurious_nacks += 1;
            }
            Msg::CoopResponse { batch, packets } => self.on_response(now, batch, &packets, out),
            Msg::Pull {
                flow,
                from_seq,
                to_seq,
            } => {
                for packet in self.cache.get_range(flow, from_seq, to_seq, now) {
                    self.stats.pulls_served += 1;
                    recovered(out, from, packet, None);
                }
            }
            Msg::Fleet(FleetMsg::Adopt {
                flow,
                service,
                receiver,
            }) => self.register_flow(flow, service, receiver),
            _ => {}
        }
    }

    /// Handles the firing of the timer armed with `tag`.  A firing only
    /// forgets state, so nothing is appended to `_out`.
    pub(crate) fn on_timer(&mut self, now: Time, tag: u64, _out: &mut Vec<Dc2Out>) {
        if let Some(r) = self.running.remove(tag) {
            // A recovery's deadline: it fails silently (§4.4).
            if let Some(batch) = self.held.batches.get_mut(&r.batch) {
                batch.recoveries.retain(|id| *id != tag);
            }
            self.stats.coop_failed += 1;
        } else if self.parked.remove_id(tag).is_some() {
            self.stats.waiting_expired += 1;
        }
        self.held.expire(now);
    }

    fn on_cloud_data(&mut self, now: Time, packet: DataPacket, out: &mut Vec<Dc2Out>) {
        let Some(&(service, receiver)) = self.flows.get(&packet.flow) else {
            return;
        };
        match service {
            ServiceKind::Forwarding => {
                self.stats.forwarded += 1;
                send(out, receiver, Msg::Data(packet));
            }
            ServiceKind::Caching => {
                self.stats.cached += 1;
                self.cache.insert(packet.clone(), now);
                // A NACK parked for this packet is served from the copy.
                if let Some((tag, nack)) = self.parked.remove((packet.flow, packet.seq)) {
                    out.push(Dc2Out::Disarm { tag });
                    self.stats.waiting_promoted += 1;
                    self.stats.cache_recoveries += 1;
                    recovered(out, nack.requester, packet, None);
                }
            }
            // Coding flows never send raw cloud data to DC2.
            ServiceKind::Coding | ServiceKind::InternetOnly => {}
        }
    }

    fn on_coded(&mut self, now: Time, coded: CodedPacket, out: &mut Vec<Dc2Out>) {
        self.stats.coded_received += 1;
        self.held.expire(now);
        // The parked NACKs the batch covers start recovery in the order they
        // arrived (by id), whatever the member order of the batch.
        let unpark = |m: &BatchMember| self.parked.remove((m.flow, m.seq));
        let mut promoted: Vec<_> = coded.members.iter().filter_map(unpark).collect();
        promoted.sort_unstable_by_key(|&(id, _)| id);
        self.held.insert(coded, now);
        for (tag, nack) in promoted {
            out.push(Dc2Out::Disarm { tag });
            self.stats.waiting_promoted += 1;
            let batch = self.held.pick(nack.target).expect("the batch covers it");
            self.start(now, nack, batch, out);
        }
    }

    fn on_nack(&mut self, now: Time, requester: NodeId, target: Target, out: &mut Vec<Dc2Out>) {
        self.stats.nacks += 1;
        let running = self.running.by_target.contains_key(&target);
        if running || self.parked.by_target.contains_key(&target) {
            return;
        }
        let nack = Nack { target, requester };
        // 1. Cheapest: the packet itself is cached (caching service or
        //    hybrid multicast).
        if let Some(packet) = self.cache.get(target.0, target.1, now) {
            self.stats.cache_recoveries += 1;
            return recovered(out, requester, packet, None);
        }
        // 2. A held batch covers it: cooperative recovery.
        if let Some(batch) = self.held.pick(target) {
            return self.start(now, nack, batch, out);
        }
        // 3. Nothing at DC2 yet: park the NACK and check with the receiver,
        //    to catch spurious timeouts at burst boundaries.
        let (tag, after) = (self.alloc_id(), WAITING_DEADLINE);
        out.push(Dc2Out::Arm { after, tag });
        self.parked.insert(tag, nack);
        self.stats.nacks_waiting += 1;
        self.stats.nack_checks_sent += 1;
        // The probe travels unsized: it costs no time on a capped link.
        let ((flow, seq), to) = (target, requester);
        let msg = Msg::NackCheck { flow, seq };
        out.push(Dc2Out::Send { to, msg, bytes: 0 });
    }

    fn start(&mut self, now: Time, nack: Nack, batch: BatchId, out: &mut Vec<Dc2Out>) {
        self.stats.coop_started += 1;
        let (tag, after) = (self.alloc_id(), COOP_DEADLINE);
        out.push(Dc2Out::Arm { after, tag });
        let got = Vec::new();
        self.running.insert(tag, Recovery { nack, batch, got });

        // Ask every receiver that holds other members of the batch for its
        // data packets (step 2 of Figure 6); for an in-stream batch that is
        // the requester itself.  Receivers in id order, each with its members
        // in shard order (the sort is stable).
        let batches = &mut self.held.batches;
        let held = batches.get_mut(&batch).expect("a picked batch is held");
        let mut others: Vec<_> = held.parity[0].members.iter().collect();
        others.retain(|m| (m.flow, m.seq) != nack.target);
        others.sort_by_key(|m| m.receiver);
        for group in others.chunk_by(|a, b| a.receiver == b.receiver) {
            self.stats.coop_requests_sent += 1;
            let needed = group.iter().map(|m| (m.flow, m.seq)).collect();
            send(out, group[0].receiver, Msg::CoopRequest { batch, needed });
        }
        // A batch with as many parity packets as members decodes at once.
        match self.running.advance(tag, &[], &held.parity, now) {
            Some((r, packet)) => deliver(&mut self.stats, out, tag, r, packet),
            None => held.recoveries.push(tag),
        }
    }

    fn on_response(&mut self, now: Time, b: BatchId, sent: &[DataPacket], out: &mut Vec<Dc2Out>) {
        let Some(Batch { parity, recoveries }) = self.held.batches.get_mut(&b) else {
            return;
        };
        recoveries.retain(|&tag| match self.running.advance(tag, sent, parity, now) {
            Some((r, packet)) => {
                deliver(&mut self.stats, out, tag, r, packet);
                false
            }
            None => true,
        });
    }

    fn alloc_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }
}

fn send(out: &mut Vec<Dc2Out>, to: NodeId, msg: Msg) {
    let bytes = msg.wire_size();
    out.push(Dc2Out::Send { to, msg, bytes });
}

fn recovered(out: &mut Vec<Dc2Out>, to: NodeId, packet: DataPacket, via_batch: Option<BatchId>) {
    send(out, to, Msg::Recovered { packet, via_batch });
}

/// Ends recovery `tag` with its rebuilt packet.
fn deliver(stats: &mut Dc2Stats, out: &mut Vec<Dc2Out>, tag: u64, r: Recovery, p: DataPacket) {
    out.push(Dc2Out::Disarm { tag });
    stats.coop_recovered += 1;
    recovered(out, r.nack.requester, p, Some(r.batch));
}

#[cfg(test)]
impl Dc2Core {
    /// Asserts that the indices agree with each other and no list is empty,
    /// and returns how many parked NACKs, running recoveries, batches,
    /// parity packets and covered packets there are.
    pub(crate) fn check(&self) -> [usize; 5] {
        let (h, parked, running) = (&self.held, &self.parked, &self.running);
        let at = |b: &BatchId| h.order.iter().position(|(_, x)| x == b);
        assert_eq!(h.order.len(), h.batches.len());
        assert!(h.order.iter().map(|(arrived, _)| arrived).is_sorted());
        for (id, batch) in &h.batches {
            assert!(at(id).is_some() && batch.parity.iter().all(|c| c.batch == *id));
            for m in &batch.parity[0].members {
                assert!(h.coverage[&(m.flow, m.seq)].contains(id));
            }
            for (i, r) in batch.recoveries.iter().enumerate() {
                assert_eq!(running.by_id[r].batch, *id);
                assert!(!batch.recoveries[..i].contains(r));
            }
        }
        for (&(flow, seq), list) in &h.coverage {
            let positions: Vec<_> = list.iter().map(at).collect();
            assert!(positions.first().is_some_and(Option::is_some));
            assert!(positions.windows(2).all(|w| w[0] < w[1]), "arrival order");
            assert!(list
                .iter()
                .all(|b| h.batches[b].parity[0].covers(flow, seq)));
        }
        assert_eq!(parked.by_id.len(), parked.by_target.len());
        assert_eq!(running.by_id.len(), running.by_target.len());
        for (target, id) in &parked.by_target {
            assert_eq!(parked.by_id[id].target, *target);
            assert!(!running.by_target.contains_key(target), "parked or running");
        }
        for (target, id) in &running.by_target {
            assert_eq!(running.by_id[id].nack.target, *target);
        }
        let parity = h.batches.values().map(|b| b.parity.len()).sum();
        let (batches, covered) = (h.batches.len(), h.coverage.len());
        [
            parked.by_id.len(),
            running.by_id.len(),
            batches,
            parity,
            covered,
        ]
    }
}

/// A model-based property: random interleavings of everything DC2 can be
/// sent, timers fired as the simulator fires them, every output judged.
#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use bytes::Bytes;
    use proptest::prelude::*;

    use super::*;
    use crate::coding::encoder::BatchEncoder;
    use crate::coding::params::CodingParams;
    use crate::coding::queues::{QueuedPacket, ReadyBatch};
    use crate::packet::NackReason;

    /// The hosts that NACK and pull: the three receivers and a stranger.
    const HOSTS: [NodeId; 4] = [NodeId(1), NodeId(2), NodeId(3), NodeId(9)];
    /// Flow `f`'s service and receiver.
    const FLOWS: [(ServiceKind, NodeId); 4] = [
        (ServiceKind::Coding, NodeId(1)),
        (ServiceKind::Coding, NodeId(2)),
        (ServiceKind::Caching, NodeId(3)),
        (ServiceKind::Forwarding, NodeId(1)),
    ];

    /// Packet `seq` of `flow` as sent; lengths differ, so shards need padding.
    fn original(flow: FlowId, seq: SeqNo) -> DataPacket {
        let len = 16 + 5 * flow.0 as usize + seq as usize;
        let byte = |i: usize| (i as u8).wrapping_mul(31) ^ ((flow.0 as u8) << 4) ^ seq as u8;
        let payload = Bytes::from((0..len).map(byte).collect::<Vec<u8>>());
        DataPacket::new(flow, seq, payload, Time::ZERO)
    }

    /// A batch: its members (repeats are dropped), whether it is
    /// cross-stream, and its parity count.
    type Spec = (Vec<(u32, SeqNo)>, bool, usize);

    /// The parity packets of each batch, numbered in order.
    fn encode(specs: &[Spec]) -> Vec<Vec<CodedPacket>> {
        let mut batches = Vec::new();
        for (members, cross, parity) in specs {
            let mut seen = BTreeSet::new();
            let member = |&(f, seq): &(u32, SeqNo)| QueuedPacket {
                packet: original(FlowId(f), seq),
                receiver: FLOWS[f as usize].1,
            };
            let fresh = members.iter().filter(|t| seen.insert(**t));
            let packets = fresh.map(member).collect();
            let kind = [CodingKind::InStream, CodingKind::CrossStream][usize::from(*cross)];
            let (cross_parity, in_stream_parity) = (*parity, *parity);
            let params = CodingParams {
                cross_parity,
                in_stream_parity,
                ..Default::default()
            };
            let dc2 = NodeId(7);
            let ready = ReadyBatch { kind, dc2, packets };
            let mut coded = BatchEncoder::new(params).encode(&ready, Time::ZERO);
            let id = BatchId(batches.len() as u64);
            coded.iter_mut().for_each(|c| c.batch = id);
            batches.push(coded);
        }
        batches
    }

    /// A core inside the simulator's timer queue, and what the model
    /// remembers to judge its outputs by.
    #[derive(Default)]
    struct Model<'a> {
        batches: &'a [Vec<CodedPacket>],
        core: Dc2Core,
        now: Time,
        /// Armed tags by deadline; ties fire in arming order.
        timers: BTreeMap<(Time, usize), u64>,
        tags: BTreeSet<u64>,
        /// `(host, packet)` for every NACK and pull sent.
        askers: BTreeSet<(NodeId, Target)>,
        parked: BTreeSet<u64>,
        unparked: BTreeSet<u64>,
        withdrawn: u64,
        transcript: Vec<Dc2Out>,
    }

    impl Model<'_> {
        /// Runs one input: `kind` picks it and `w` its details, after `dt_ms`
        /// in which due timers fire.
        fn op(&mut self, kind: u8, w: u64, dt_ms: u64) {
            let host = HOSTS[(w >> 32) as usize % HOSTS.len()];
            let batch = &self.batches[(w >> 1) as usize % self.batches.len()];
            // Half the time a member of a batch, else any packet.
            let (flow, seq) = match batch.first() {
                Some(c) if w & 1 == 0 => {
                    let m = c.members[(w >> 8) as usize % c.members.len()];
                    (m.flow, m.seq)
                }
                _ => (FlowId(((w >> 1) % 4) as u32), (w >> 8) % 8),
            };
            let mut withdrawal = false;
            let msg = match kind {
                0 => Msg::CloudData(original(flow, seq)),
                1 | 2 if !batch.is_empty() => {
                    Msg::Coded(batch[(w >> 24) as usize % batch.len()].clone())
                }
                3 | 4 => {
                    self.askers.insert((host, (flow, seq)));
                    let reason = NackReason::Gap;
                    Msg::Nack { flow, seq, reason }
                }
                5 => {
                    withdrawal = (w >> 40) & 1 == 0;
                    let still_missing = !withdrawal;
                    Msg::NackConfirm {
                        flow,
                        seq,
                        still_missing,
                    }
                }
                6 | 7 if !batch.is_empty() => {
                    // Any subset of the members, the empty one included.
                    let members = batch[0].members.iter().enumerate();
                    let sent = members.filter(|(i, _)| (w >> (24 + i)) & 1 == 1);
                    let packets = sent.map(|(_, m)| original(m.flow, m.seq)).collect();
                    let id = batch[0].batch;
                    Msg::CoopResponse { batch: id, packets }
                }
                8 => {
                    let to_seq = seq + (w >> 40) % 4;
                    self.askers
                        .extend((seq..=to_seq).map(|s| (host, (flow, s))));
                    Msg::Pull {
                        flow,
                        from_seq: seq,
                        to_seq,
                    }
                }
                9 => return self.fire_next(),
                10 => return self.advance(self.now + Dur::from_secs(5)),
                _ => return,
            };
            self.advance(self.now + Dur::from_millis(dt_ms));
            let from = if kind <= 2 { NodeId(0) } else { host };
            let mut out = Vec::new();
            self.core.on_message(self.now, from, msg, &mut out);
            self.judge(out, withdrawal);
        }

        /// Fires every timer due by `t`, each at its deadline.
        fn advance(&mut self, t: Time) {
            while self.timers.first_key_value().is_some_and(|(k, _)| k.0 <= t) {
                self.fire_next();
            }
            self.now = t;
        }

        fn fire_next(&mut self) {
            if let Some(((at, _), tag)) = self.timers.pop_first() {
                self.now = self.now.max(at);
                let (before, mut out) = (self.core.stats(), Vec::new());
                self.core.on_timer(self.now, tag, &mut out);
                // A timer still armed always finds its NACK or recovery.
                let s = self.core.stats();
                let ended = s.coop_failed + s.waiting_expired;
                assert_eq!(ended, before.coop_failed + before.waiting_expired + 1);
                self.judge(out, false);
            }
        }

        fn judge(&mut self, out: Vec<Dc2Out>, withdrawal: bool) {
            for o in &out {
                match o {
                    Dc2Out::Arm { after, tag } => {
                        assert!([COOP_DEADLINE, WAITING_DEADLINE].contains(after));
                        assert!(self.tags.insert(*tag), "tag {tag} armed twice");
                        self.timers
                            .insert((self.now + *after, self.tags.len()), *tag);
                    }
                    Dc2Out::Disarm { tag } => {
                        let armed = self.timers.iter().find(|(_, t)| *t == tag);
                        let key = *armed.expect("only an armed tag is disarmed").0;
                        self.timers.remove(&key);
                    }
                    Dc2Out::Send { to, msg, bytes } => self.judge_send(*to, msg, *bytes),
                }
            }
            self.transcript.extend(out);

            self.core.check();
            let s = self.core.stats();
            let running = self.core.running.by_id.len() as u64;
            assert_eq!(s.coop_started, s.coop_recovered + s.coop_failed + running);
            // Every parked NACK leaves the parked set once: promoted, expired
            // or withdrawn.
            let parked: BTreeSet<u64> = self.core.parked.by_id.keys().copied().collect();
            assert!(parked.is_disjoint(&self.unparked), "a NACK parked twice");
            if withdrawal {
                self.withdrawn += (self.parked.len() - parked.len()) as u64;
            }
            self.unparked.extend(self.parked.difference(&parked));
            self.parked = parked;
            let left = s.waiting_promoted + s.waiting_expired + self.withdrawn;
            assert_eq!(self.unparked.len() as u64, left);
            assert_eq!(s.nacks_waiting, left + self.parked.len() as u64);
        }

        /// Every send goes to a registered receiver or to a host that asked
        /// for the packet, and every packet is the one its sender sent.
        fn judge_send(&self, to: NodeId, msg: &Msg, bytes: usize) {
            let probe = matches!(msg, Msg::NackCheck { .. });
            assert_eq!(bytes, if probe { 0 } else { msg.wire_size() });
            match msg {
                Msg::Data(p) => {
                    assert_eq!(to, FLOWS[p.flow.0 as usize].1);
                    assert_eq!(*p, original(p.flow, p.seq));
                }
                Msg::CoopRequest { batch, needed } => {
                    let members = &self.batches[batch.0 as usize][0].members;
                    assert!(!needed.is_empty());
                    for &t in needed {
                        assert!(members
                            .iter()
                            .any(|m| ((m.flow, m.seq), m.receiver) == (t, to)));
                    }
                }
                Msg::Recovered { packet, via_batch } => {
                    let t = (packet.flow, packet.seq);
                    assert!(self.askers.contains(&(to, t)), "{t:?} was not asked for");
                    assert_eq!(packet.payload, original(t.0, t.1).payload);
                    if let Some(b) = via_batch {
                        assert!(self.batches[b.0 as usize][0].covers(t.0, t.1));
                    }
                }
                Msg::NackCheck { flow, seq } => assert!(self.askers.contains(&(to, (*flow, *seq)))),
                other => panic!("DC2 never sends {other:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn recovery_keeps_its_books_under_any_interleaving(
            specs in proptest::collection::vec(
                (proptest::collection::vec((0u32..4, 0u64..8), 1..4), any::<bool>(), 1usize..3),
                1..4,
            ),
            ops in proptest::collection::vec((0u8..12, any::<u64>(), 0u64..60), 1..80),
        ) {
            let batches = encode(&specs);
            let run = || {
                let mut model = Model { batches: &batches, ..Model::default() };
                for (f, &(service, receiver)) in FLOWS.iter().enumerate() {
                    model.core.register_flow(FlowId(f as u32), service, receiver);
                }
                for &(kind, w, dt_ms) in &ops {
                    model.op(kind, w, dt_ms);
                }
                (model.transcript, model.core.stats())
            };
            // The same inputs give the same outputs.
            prop_assert_eq!(run(), run());
        }
    }
}
