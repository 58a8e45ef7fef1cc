//! Multiplexed load-generation endpoints.
//!
//! A [`LoadWorker`] drives *many* flows over a single UDP socket —
//! hundreds of concurrent flows on one thread, rather than a thread per
//! flow.  It never sleeps to poll: every wait blocks on the socket with a
//! read timeout that ends at the next thing due (a send, a NACK retry, a
//! deadline), so a datagram is handled the moment it arrives.  Each worker
//! plays both roles of the paper's topology for its flows: it is the sender
//! (packets go to the relay shard, and — for the caching/coding services — a
//! "direct Internet path" copy goes to the worker's own socket) and the
//! receiver (gap detection, NACKs, recovery).
//! It checks that the relay *works*; how fast the relay is, is measured by
//! the `relay-*` workloads of `benchmark/`.
//!
//! Loss on the direct path is injected deterministically ([`FlowSpec::
//! drop_every`]): the direct copy of every n-th packet is simply not sent,
//! so the relay path must recover it.
//!
//! Recovery per service mirrors the simulator:
//! * **forwarding** — no direct copies at all; the relay forwards
//!   everything (no recovery needed, nothing to NACK);
//! * **caching** — holes are NACKed to the owning shard, which answers with
//!   [`WireMsg::Recovered`] from its cache ring;
//! * **coding** — holes are NACKed likewise, the shard answers with the
//!   batch's parity shards, and the worker reconstructs the missing packet
//!   locally with [`erasure::packets::BatchCodec::decode_batch`] from the
//!   `k-1` copies it already holds plus parity (the cooperating-receivers
//!   round of §3.4, collapsed onto one receiver on loopback).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{self, ErrorKind::TimedOut, ErrorKind::WouldBlock};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use erasure::packets::BatchCodec;
use jqos_core::select::ServiceKind;

use crate::wire::{service_from_wire, RejectReason, Wire, WireMsg, WireView};

/// One flow the worker should run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowSpec {
    /// Flow identifier (globally unique across workers).
    pub flow: u32,
    /// Latency budget to register with, in milliseconds.
    pub budget_ms: u32,
    /// Whether the application tolerates unrecovered losses.
    pub loss_tolerant: bool,
    /// Drop the direct copy of every n-th packet (`None` = lossless direct
    /// path).  Must be ≥ 2 when set; the final packet of a flow is never
    /// dropped so trailing holes stay detectable.
    pub drop_every: Option<u32>,
}

/// An unrecovered hole being chased via NACKs.
#[derive(Clone, Copy, Debug)]
struct Hole {
    last_nack: Instant,
    nacks: u32,
}

/// Client-side buffer of one coding batch (received data + parity shards).
#[derive(Default)]
struct BatchBuf {
    data: Vec<Option<Vec<u8>>>,
    parity: Vec<Option<Vec<u8>>>,
}

/// Per-flow client state.
#[derive(Default)]
struct ClientFlow {
    spec: FlowSpec,
    service: Option<ServiceKind>,
    rejected: Option<RejectReason>,
    shard_addr: Option<SocketAddr>,
    coding_k: usize,
    coding_m: usize,
    next_seq: u64,
    expected: u64,
    sent: u64,
    delivered: u64,
    recovered: u64,
    reconstructed: u64,
    duplicates: u64,
    received: HashSet<u64>,
    holes: BTreeMap<u64, Hole>,
    batches: VecDeque<(u64, BatchBuf)>,
}

impl ClientFlow {
    fn new(spec: FlowSpec) -> Self {
        if let Some(n) = spec.drop_every {
            assert!(n >= 2, "drop_every must be >= 2");
        }
        ClientFlow {
            spec,
            ..ClientFlow::default()
        }
    }

    fn resolved(&self) -> bool {
        self.service.is_some() || self.rejected.is_some()
    }

    fn recovers(&self) -> bool {
        matches!(
            self.service,
            Some(ServiceKind::Caching) | Some(ServiceKind::Coding)
        )
    }
}

/// A read-only view of one flow's outcome, for tests and reporting.
#[derive(Clone, Copy, Debug)]
pub struct FlowView {
    /// Flow identifier.
    pub flow: u32,
    /// Service the relay assigned (None if rejected/unresolved).
    pub service: Option<ServiceKind>,
    /// Rejection reason, if the relay refused the flow.
    pub rejected: Option<RejectReason>,
    /// Data packets sent (paced phase).
    pub sent: u64,
    /// Packets delivered by any path.
    pub delivered: u64,
    /// Packets recovered via the caching service.
    pub recovered: u64,
    /// Packets reconstructed from coding-service parity.
    pub reconstructed: u64,
    /// Holes still outstanding (undelivered).
    pub holes: u64,
}

/// Aggregate counters across a worker's flows.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    /// Flows admitted.
    pub admitted: u64,
    /// Flows rejected by admission.
    pub rejected: u64,
    /// Data packets sent (paced phase; blast sends are reported separately).
    pub sent: u64,
    /// Packets delivered by any path.
    pub delivered: u64,
    /// Of those, recovered via caching.
    pub recovered: u64,
    /// Of those, reconstructed from parity.
    pub reconstructed: u64,
    /// NACKs sent.
    pub nacks_sent: u64,
    /// Duplicate arrivals discarded.
    pub duplicates: u64,
    /// Malformed datagrams received.
    pub malformed_rx: u64,
    /// Sends skipped because the socket buffer was full.
    pub send_backpressure: u64,
    /// Holes never recovered.
    pub holes_left: u64,
}

/// Drives many flows over one UDP socket.
pub struct LoadWorker {
    socket: std::net::UdpSocket,
    self_addr: SocketAddr,
    control: SocketAddr,
    flows: Vec<ClientFlow>,
    by_id: HashMap<u32, usize>,
    codec: BatchCodec,
    nacks_sent: u64,
    malformed_rx: u64,
    send_backpressure: u64,
    buf: Vec<u8>,
    scratch: Vec<u8>,
    /// The fixed data payload.
    payload: Vec<u8>,
    /// How long to wait before re-NACKing an outstanding hole.
    pub nack_retry: Duration,
    /// Give up chasing a hole after this many NACKs.
    pub nack_max: u32,
}

impl LoadWorker {
    /// Binds a worker on an ephemeral loopback port.  `payload_len` is the
    /// fixed data-payload size.
    pub fn new(control: SocketAddr, payload_len: usize) -> io::Result<Self> {
        let socket = std::net::UdpSocket::bind("127.0.0.1:0")?;
        let self_addr = socket.local_addr()?;
        Ok(LoadWorker {
            socket,
            self_addr,
            control,
            flows: Vec::new(),
            by_id: HashMap::new(),
            codec: BatchCodec::new(),
            nacks_sent: 0,
            malformed_rx: 0,
            send_backpressure: 0,
            buf: vec![0u8; 65_536],
            scratch: Vec::with_capacity(2048),
            payload: vec![0x5A; payload_len],
            nack_retry: Duration::from_millis(40),
            nack_max: 6,
        })
    }

    /// Adds a flow to drive (before [`LoadWorker::register`]).
    pub fn add_flow(&mut self, spec: FlowSpec) {
        self.by_id.insert(spec.flow, self.flows.len());
        self.flows.push(ClientFlow::new(spec));
    }

    /// Registers every flow against the relay's control socket, retrying
    /// unanswered registrations until `timeout`.  Returns an error only if
    /// some flow never got a verdict (ack *or* nack) in time.
    pub fn register(&mut self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        let mut next_send = Instant::now();
        while !self.flows.iter().all(|f| f.resolved()) {
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "{} flows unresolved after {timeout:?}",
                        self.flows.iter().filter(|f| !f.resolved()).count()
                    ),
                ));
            }
            if Instant::now() >= next_send {
                // Re-send in bounded chunks, with a wait between, so a
                // thousand-flow worker never overruns the control socket.
                let mut in_chunk = 0;
                for i in 0..self.flows.len() {
                    if self.flows[i].resolved() {
                        continue;
                    }
                    let spec = self.flows[i].spec;
                    let msg = WireMsg::Register {
                        flow: spec.flow,
                        budget_ms: spec.budget_ms,
                        loss_tolerant: spec.loss_tolerant,
                    };
                    msg.encode_into(&mut self.scratch);
                    if self.socket.send_to(&self.scratch, self.control).is_err() {
                        self.send_backpressure += 1;
                    }
                    in_chunk += 1;
                    if in_chunk % 64 == 0 {
                        self.pump(Instant::now() + Duration::from_micros(500))?;
                    }
                }
                next_send = Instant::now() + Duration::from_millis(100);
            }
            self.pump(next_send.min(deadline))?;
        }
        Ok(())
    }

    /// Sends the paced-phase packets of every admitted flow at one packet
    /// per `pace` per flow (flow start times are staggered across the pace
    /// interval), handling arrivals throughout, then keeps handling them for
    /// up to `drain` so in-flight recoveries finish — or until every
    /// admitted flow has delivered everything it sent, whichever is first.
    pub fn run_paced(
        &mut self,
        packets_per_flow: u32,
        pace: Duration,
        drain: Duration,
    ) -> io::Result<()> {
        let start = Instant::now();
        let n = self.flows.len().max(1) as u32;
        let mut due: Vec<Instant> = (0..self.flows.len() as u32)
            .map(|i| start + pace.mul_f64(f64::from(i) / f64::from(n)))
            .collect();
        let mut sent = vec![0u32; self.flows.len()];
        let mut drain_end = None;
        loop {
            let now = Instant::now();
            let mut next_send: Option<Instant> = None;
            for i in 0..self.flows.len() {
                if self.flows[i].service.is_none() || sent[i] >= packets_per_flow {
                    continue;
                }
                if due[i] <= now {
                    let is_last = sent[i] + 1 == packets_per_flow;
                    self.send_flow_packet(i, is_last)?;
                    sent[i] += 1;
                    due[i] += pace;
                }
                if sent[i] < packets_per_flow {
                    next_send = Some(next_send.map_or(due[i], |t| t.min(due[i])));
                }
            }
            let until = match next_send {
                Some(t) => t,
                None => {
                    let end = *drain_end.get_or_insert(now + drain);
                    if now >= end || self.all_delivered() {
                        return Ok(());
                    }
                    end
                }
            };
            let retry = self.retry_nacks();
            self.pump(retry.map_or(until, |r| r.min(until)))?;
        }
    }

    /// Whether every admitted flow has delivered all it sent, with no hole
    /// left open.
    fn all_delivered(&self) -> bool {
        self.flows
            .iter()
            .filter(|f| f.service.is_some())
            .all(|f| f.delivered >= f.sent && f.holes.is_empty())
    }

    /// Open-loop overload: sends relay-bound data packets round-robin over
    /// the admitted flows as fast as the socket accepts them, for
    /// `duration`.  Returns the number of datagrams offered to the relay.
    /// Arrivals are discarded (delivery accounting belongs to the paced
    /// phase); sequence numbers keep advancing so relay-side state stays
    /// coherent.
    pub fn blast(&mut self, duration: Duration) -> u64 {
        let end = Instant::now() + duration;
        let mut offered = 0u64;
        let admitted: Vec<usize> = (0..self.flows.len())
            .filter(|&i| self.flows[i].service.is_some())
            .collect();
        if admitted.is_empty() {
            return 0;
        }
        // Overload never waits on the socket: full buffers count as
        // back-pressure and the answers are read only as they pile up.
        let _ = self.socket.set_nonblocking(true);
        'outer: loop {
            for &i in &admitted {
                let f = &mut self.flows[i];
                let seq = f.next_seq;
                f.next_seq += 1;
                let payload = self.payload.as_slice();
                Wire::Data {
                    flow: f.spec.flow,
                    seq,
                    payload,
                }
                .encode_into(&mut self.scratch);
                let target = f.shard_addr.expect("admitted flow has a shard");
                match self.socket.send_to(&self.scratch, target) {
                    Ok(_) => offered += 1,
                    Err(_) => self.send_backpressure += 1,
                }
                if offered.is_multiple_of(256) {
                    if Instant::now() >= end {
                        break 'outer;
                    }
                    self.drain_discard();
                }
            }
            if Instant::now() >= end {
                break;
            }
        }
        self.drain_discard();
        let _ = self.socket.set_nonblocking(false);
        offered
    }

    /// Waits until `until` for one datagram and handles it.
    fn pump(&mut self, until: Instant) -> io::Result<()> {
        let wait = until.saturating_duration_since(Instant::now());
        if wait.is_zero() {
            return Ok(());
        }
        self.socket.set_read_timeout(Some(wait))?;
        let len = match self.socket.recv_from(&mut self.buf) {
            Ok((len, _from)) => len,
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => return Ok(()),
            Err(e) => return Err(e),
        };
        // The datagram stays in `buf` while `dispatch` borrows the worker.
        let buf = std::mem::take(&mut self.buf);
        match WireView::parse(&buf[..len]) {
            Some(msg) => self.dispatch(msg),
            None => self.malformed_rx += 1,
        }
        self.buf = buf;
        Ok(())
    }

    /// Aggregate counters over this worker's flows.
    pub fn stats(&self) -> WorkerStats {
        let mut s = WorkerStats {
            nacks_sent: self.nacks_sent,
            malformed_rx: self.malformed_rx,
            send_backpressure: self.send_backpressure,
            ..WorkerStats::default()
        };
        for f in &self.flows {
            if f.service.is_some() {
                s.admitted += 1;
            }
            if f.rejected.is_some() {
                s.rejected += 1;
            }
            s.sent += f.sent;
            s.delivered += f.delivered;
            s.recovered += f.recovered;
            s.reconstructed += f.reconstructed;
            s.duplicates += f.duplicates;
            s.holes_left += f.holes.len() as u64;
        }
        s
    }

    /// Per-flow outcome view.
    pub fn flow_view(&self, flow: u32) -> Option<FlowView> {
        let f = &self.flows[*self.by_id.get(&flow)?];
        Some(FlowView {
            flow,
            service: f.service,
            rejected: f.rejected,
            sent: f.sent,
            delivered: f.delivered,
            recovered: f.recovered,
            reconstructed: f.reconstructed,
            holes: f.holes.len() as u64,
        })
    }

    /// All flow ids this worker drives.
    pub fn flow_ids(&self) -> Vec<u32> {
        self.flows.iter().map(|f| f.spec.flow).collect()
    }

    /// Sends one paced packet for flow index `i`: the relay copy always,
    /// the direct (own-socket) copy unless this packet's direct loss is
    /// injected.  Forwarding flows send the relay copy only.
    fn send_flow_packet(&mut self, i: usize, is_last: bool) -> io::Result<()> {
        let f = &mut self.flows[i];
        let service = f.service.expect("send on admitted flow");
        let seq = f.next_seq;
        f.next_seq += 1;
        f.sent += 1;
        let payload = self.payload.as_slice();
        Wire::Data {
            flow: f.spec.flow,
            seq,
            payload,
        }
        .encode_into(&mut self.scratch);
        let shard = f.shard_addr.expect("admitted flow has a shard");
        let drop_direct = match f.spec.drop_every {
            Some(n) => !is_last && seq % u64::from(n) == u64::from(n) - 1,
            None => false,
        };
        let send = |target: SocketAddr, backpressure: &mut u64| {
            if self.socket.send_to(&self.scratch, target).is_err() {
                *backpressure += 1;
            }
        };
        match service {
            ServiceKind::Forwarding => send(shard, &mut self.send_backpressure),
            _ => {
                if !drop_direct {
                    send(self.self_addr, &mut self.send_backpressure);
                }
                send(shard, &mut self.send_backpressure);
            }
        }
        Ok(())
    }

    fn drain_discard(&mut self) {
        for _ in 0..4096 {
            if self.socket.recv_from(&mut self.buf).is_err() {
                break;
            }
        }
    }

    fn dispatch(&mut self, msg: WireView) {
        match msg {
            Wire::RegisterAck {
                flow,
                service,
                shard: _,
                port,
                coding_k,
                coding_m,
            } => {
                let Some(&i) = self.by_id.get(&flow) else {
                    return;
                };
                let f = &mut self.flows[i];
                f.service = service_from_wire(service);
                f.shard_addr = Some(SocketAddr::new(self.control.ip(), port));
                f.coding_k = usize::from(coding_k);
                f.coding_m = usize::from(coding_m);
            }
            Wire::RegisterNack { flow, reason } => {
                let Some(&i) = self.by_id.get(&flow) else {
                    return;
                };
                self.flows[i].rejected = RejectReason::from_u8(reason);
            }
            Wire::Data { flow, seq, payload } | Wire::Recovered { flow, seq, payload } => {
                self.on_delivery(flow, seq, payload)
            }
            Wire::Parity {
                flow,
                base_seq,
                index,
                payload,
            } => self.on_parity(flow, base_seq, index, payload),
            // Clients never receive these.
            Wire::Nack { .. } | Wire::Register { .. } => self.malformed_rx += 1,
        }
    }

    /// A data packet arrived (direct copy, relay forward, or cache
    /// recovery).
    fn on_delivery(&mut self, flow: u32, seq: u64, payload: &[u8]) {
        let Some(&i) = self.by_id.get(&flow) else {
            return;
        };
        let f = &mut self.flows[i];
        if !f.received.insert(seq) {
            f.duplicates += 1;
            return;
        }
        f.delivered += 1;
        if f.holes.remove(&seq).is_some() {
            f.recovered += 1;
        }
        // Coding flows keep recent payloads so parity can reconstruct their
        // batch-mates.
        if f.service == Some(ServiceKind::Coding) && f.coding_k > 0 {
            let k = f.coding_k as u64;
            let base = seq - seq % k;
            let idx = (seq - base) as usize;
            if let Some(slot) = Self::batch_for(f, base).data.get_mut(idx) {
                *slot = Some(payload.to_vec());
            }
        }
        // Gap detection: everything between the old cursor and this arrival
        // that has not shown up is a hole; recoverable services chase it.
        let f = &mut self.flows[i];
        if seq >= f.expected {
            let from = f.expected;
            f.expected = seq + 1;
            if f.recovers() {
                let missing: Vec<u64> = (from..seq).filter(|s| !f.received.contains(s)).collect();
                for m in missing {
                    self.note_hole(i, m);
                }
            }
        }
        self.try_reconstruct(i, seq - seq % self.flows[i].coding_k.max(1) as u64);
    }

    fn batch_for(f: &mut ClientFlow, base: u64) -> &mut BatchBuf {
        if !f.batches.iter().any(|(b, _)| *b == base) {
            if f.batches.len() >= 4 {
                f.batches.pop_front();
            }
            f.batches.push_back((
                base,
                BatchBuf {
                    data: vec![None; f.coding_k.max(1)],
                    parity: vec![None; f.coding_m.max(1)],
                },
            ));
        }
        let entry = f.batches.iter_mut().find(|(b, _)| *b == base).unwrap();
        &mut entry.1
    }

    /// Registers a hole and sends the first NACK for it.
    fn note_hole(&mut self, i: usize, seq: u64) {
        let f = &mut self.flows[i];
        let (flow_id, Some(shard)) = (f.spec.flow, f.shard_addr) else {
            return;
        };
        if f.holes.contains_key(&seq) || f.received.contains(&seq) {
            return;
        }
        f.holes.insert(
            seq,
            Hole {
                last_nack: Instant::now(),
                nacks: 1,
            },
        );
        self.send_nack(flow_id, seq, shard);
    }

    fn send_nack(&mut self, flow: u32, seq: u64, shard: SocketAddr) {
        WireMsg::Nack { flow, seq }.encode_into(&mut self.scratch);
        if self.socket.send_to(&self.scratch, shard).is_err() {
            self.send_backpressure += 1;
        } else {
            self.nacks_sent += 1;
        }
    }

    /// Re-NACKs outstanding holes whose retry timer expired.  Returns when
    /// the next retry falls due, if any hole still has one.
    fn retry_nacks(&mut self) -> Option<Instant> {
        let now = Instant::now();
        let (retry, max) = (self.nack_retry, self.nack_max);
        let mut next: Option<Instant> = None;
        for i in 0..self.flows.len() {
            let f = &mut self.flows[i];
            let (Some(shard), true) = (f.shard_addr, f.recovers()) else {
                continue;
            };
            let flow = f.spec.flow;
            let mut due = Vec::new();
            for (&seq, h) in f.holes.iter_mut().filter(|(_, h)| h.nacks < max) {
                if now.duration_since(h.last_nack) >= retry {
                    (h.last_nack, h.nacks) = (now, h.nacks + 1);
                    due.push(seq);
                }
                if h.nacks < max {
                    next = Some(next.map_or(h.last_nack + retry, |t| t.min(h.last_nack + retry)));
                }
            }
            for seq in due {
                self.send_nack(flow, seq, shard);
            }
        }
        next
    }

    /// A parity shard arrived for a coding flow's batch.
    fn on_parity(&mut self, flow: u32, base: u64, index: u8, payload: &[u8]) {
        let Some(&i) = self.by_id.get(&flow) else {
            return;
        };
        let f = &mut self.flows[i];
        if f.service != Some(ServiceKind::Coding) || f.coding_k == 0 {
            return;
        }
        if let Some(slot) = Self::batch_for(f, base).parity.get_mut(usize::from(index)) {
            *slot = Some(payload.to_vec());
        }
        self.try_reconstruct(i, base);
    }

    /// Decodes the batch at `base` if it has holes and enough shards.
    fn try_reconstruct(&mut self, i: usize, base: u64) {
        let f = &mut self.flows[i];
        if f.service != Some(ServiceKind::Coding) || f.coding_k == 0 {
            return;
        }
        let k = f.coding_k as u64;
        let holes: Vec<u64> = f.holes.range(base..base + k).map(|(s, _)| *s).collect();
        if holes.is_empty() {
            return;
        }
        let Some((_, buf)) = f.batches.iter().find(|(b, _)| *b == base) else {
            return;
        };
        let (have_data, have_parity) = (present(&buf.data), present(&buf.parity));
        if have_data.len() + have_parity.len() < f.coding_k || have_parity.is_empty() {
            return;
        }
        let shard_len = have_parity[0].1.len();
        let decoded = match self
            .codec
            .decode_batch(f.coding_k, shard_len, &have_data, &have_parity)
        {
            Ok(d) => d,
            Err(_) => return,
        };
        for seq in holes {
            let idx = (seq - base) as usize;
            let Some(payload) = decoded.get(idx) else {
                continue;
            };
            if !f.received.insert(seq) {
                continue;
            }
            f.holes.remove(&seq);
            f.delivered += 1;
            f.reconstructed += 1;
            // Keep the reconstructed payload for later holes in this batch.
            if let Some((_, buf)) = f.batches.iter_mut().find(|(b, _)| *b == base) {
                if let Some(slot) = buf.data.get_mut(idx) {
                    *slot = Some(payload.clone());
                }
            }
        }
    }
}

/// The shards of a batch buffer that have arrived, by index.
fn present(shards: &[Option<Vec<u8>>]) -> Vec<(usize, &[u8])> {
    let arrived = shards.iter().enumerate();
    arrived
        .filter_map(|(i, p)| Some((i, p.as_deref()?)))
        .collect()
}
