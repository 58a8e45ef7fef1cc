//! The per-shard dataplane thread.
//!
//! Each shard owns one UDP socket, one flow table, and one
//! [`erasure::packets::BatchCodec`]; flows are hash-partitioned onto shards
//! by [`crate::admission::shard_for`], so the hot path never takes a lock
//! shared with another shard (the flow table's mutex is per-shard and is
//! taken once per receive, not per packet; the control thread takes it
//! briefly to admit a flow).
//!
//! One turn of the loop is one receive:
//!
//! 1. **Receive** — one `recvmmsg` blocks until a datagram arrives (or for
//!    [`STOP_POLL`], the bound for noticing a stop) and returns every datagram
//!    already queued, up to `recv_batch`, each in a slot of its own.  There is
//!    no ingress queue: overload stays in the kernel's socket buffer, which
//!    drops and counts it.  A datagram larger than a slot is malformed.
//! 2. **Process** — each datagram is parsed in place ([`WireView`]) and run
//!    through its flow's service: forwarding re-sends the received bytes,
//!    unchanged, to the flow's peer; caching copies the payload into the
//!    flow's [`SeqRing`]; coding accumulates `k` contiguous payloads and keeps
//!    only the batch's `m` parity shards in the ring.  NACKs are answered
//!    from the ring: the payload (caching) or the batch's parity (coding).
//! 3. **Send** — one `sendmmsg(MSG_DONTWAIT)` writes every answer; a full
//!    socket buffer sheds (counted) instead of blocking the shard.
//! 4. **Coalesce** — a busy socket is read in batches ([`next_pace`]).
//!
//! Every buffer is reused (receive slots, answer slab, rings, the coding
//! accumulator): a warm flow's packet costs no allocation, and shard memory
//! is bounded whatever the offered load.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use erasure::packets::BatchCodec;
use jqos_core::select::ServiceKind;

use crate::metrics::{ShardCounters, ShedReason};
use crate::relay::RelayConfig;
use crate::ring::SeqRing;
use crate::sys::{self, RecvSlots};
use crate::wire::{Wire, WireView};

/// How long a blocked receive waits before its thread re-checks the stop
/// flag: the read timeout of every shard socket and of the control socket.
pub const STOP_POLL: Duration = Duration::from_millis(5);

/// A receive that returned within this found the socket busy.
pub const BUSY_WAIT: Duration = Duration::from_micros(50);

/// How long a busy shard sleeps before its next receive, so that datagrams
/// arrive in batches rather than one wake-up each.
pub const LINGER: Duration = Duration::from_micros(250);

/// A linger that harvests fewer datagrams than this ends lingering: over
/// [`LINGER`] plus timer slack, under about 30 kpps.  (At 10 kpps with a
/// NACK beside each data packet, a linger harvests at most eight.)
pub const MIN_HARVEST: usize = 10;

/// How many receives a stopping shard runs, at most, to drain its socket.
const DRAIN_ROUNDS: u32 = 16;

/// How a shard waits for its next receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pace {
    /// Block until a datagram arrives.
    Block,
    /// Block, but the last receive found the socket busy.
    Busy,
    /// Sleep [`LINGER`], then take what arrived.
    Linger,
}

/// The coalescing rule: how the shard waits for its next receive, given how
/// it waited for this one, how long this one blocked and how many datagrams
/// it returned.  Two receives in a row that return within [`BUSY_WAIT`]
/// start lingering (one alone is a data packet and its NACK arriving a
/// moment apart); lingering goes on while a linger harvests at least
/// [`MIN_HARVEST`].  So at a low rate the shard wakes per packet (latency),
/// and near capacity per batch (cost).
pub fn next_pace(pace: Pace, waited: Duration, got: usize) -> Pace {
    match pace {
        Pace::Linger if got >= MIN_HARVEST => Pace::Linger,
        Pace::Linger => Pace::Block,
        _ if waited >= BUSY_WAIT => Pace::Block,
        Pace::Block => Pace::Busy,
        Pace::Busy => Pace::Linger,
    }
}

/// Per-flow dataplane state, owned by exactly one shard.
pub(crate) struct FlowState {
    /// Service assigned at admission (the live `select.rs` decision).
    pub service: ServiceKind,
    /// Where recoveries/forwards for this flow are sent (the registering
    /// endpoint's address).
    pub peer: SocketAddr,
    /// The budget the flow registered with, for metrics.
    pub budget_ms: u32,
    /// Caching: payloads by sequence number.  Coding: each batch's parity
    /// shards, back to back, by batch index `base_seq / k`.
    ring: SeqRing,
    /// Coding: the contiguous run awaiting a full batch, payloads back to
    /// back, where each ends, and the run's first sequence number.
    run: Vec<u8>,
    run_ends: Vec<usize>,
    run_base: u64,
    /// Coding: `base_seq % k` of every batch in the ring.  A gap that
    /// restarts the run on another phase retires the ring's batches.
    phase: u64,
}

impl FlowState {
    pub(crate) fn new(
        service: ServiceKind,
        peer: SocketAddr,
        budget_ms: u32,
        cfg: &RelayConfig,
    ) -> Self {
        let retained = match service {
            ServiceKind::Forwarding => 0,
            ServiceKind::Coding => cfg.parity_per_flow,
            // Caching, and the degenerate InternetOnly the selector never
            // assigns.
            _ => cfg.cache_per_flow,
        };
        FlowState {
            service,
            peer,
            budget_ms,
            ring: SeqRing::new(retained),
            run: Vec::new(),
            run_ends: Vec::new(),
            run_base: 0,
            phase: 0,
        }
    }
}

/// Shared state of one shard: socket, flow table, counters.
pub(crate) struct ShardState {
    pub index: usize,
    pub socket: UdpSocket,
    /// Every lock recovers a poisoned guard (`PoisonError::into_inner`) so
    /// that `Relay::shutdown` still reports metrics after a shard thread
    /// panicked; they read only each flow's id, service and budget, which
    /// are written once at registration.
    pub flows: Mutex<HashMap<u32, FlowState>>,
    pub counters: ShardCounters,
}

/// Where an answer's bytes are.
#[derive(Clone, Copy)]
enum Out {
    /// A receive slot: a forwarded datagram, sent as it arrived.
    Slot(usize),
    /// A range of the answer slab: an encoded `Recovered` or `Parity`.
    Slab(usize, usize),
}

/// The answers of one turn, sent together.
#[derive(Default)]
struct Egress {
    to: Vec<(SocketAddr, Out)>,
    slab: Vec<u8>,
}

impl Egress {
    fn encode(&mut self, to: SocketAddr, msg: WireView) {
        let start = self.slab.len();
        msg.append_to(&mut self.slab);
        self.to.push((to, Out::Slab(start, self.slab.len())));
    }
}

/// Runs one shard until `stop` is raised, then drains its socket.
pub(crate) fn run_shard(state: &ShardState, cfg: &RelayConfig, stop: &AtomicBool) {
    let c = &state.counters;
    let mut codec = BatchCodec::new();
    let mut slots = RecvSlots::new(cfg.recv_batch);
    let mut egress = Egress::default();
    let (mut pace, mut drain_rounds) = (Pace::Block, 0u32);
    loop {
        let stopping = stop.load(Ordering::Relaxed);
        if pace == Pace::Linger && !stopping {
            std::thread::sleep(LINGER);
        }
        let started = Instant::now();
        let got = sys::recv_batch(&state.socket, &mut slots);
        c.recv_syscalls.fetch_add(1, Ordering::Relaxed);
        pace = next_pace(pace, started.elapsed(), got);
        if got == 0 && stopping {
            break;
        } else if got == 0 {
            continue;
        }
        c.wakeups.fetch_add(1, Ordering::Relaxed);
        c.datagrams_rx.fetch_add(got as u64, Ordering::Relaxed);
        c.note_queue_depth(got);
        process(state, cfg, &mut codec, &slots, got, &mut egress);
        flush(state, &slots, &mut egress);
        if stopping {
            drain_rounds += 1;
            if drain_rounds >= DRAIN_ROUNDS {
                break;
            }
        }
    }
}

/// Runs the `got` received datagrams through their flows' services under
/// one flow-table lock.
fn process(
    state: &ShardState,
    cfg: &RelayConfig,
    codec: &mut BatchCodec,
    slots: &RecvSlots,
    got: usize,
    egress: &mut Egress,
) {
    let c = &state.counters;
    let mut flows = state.flows.lock().unwrap_or_else(PoisonError::into_inner);
    for i in 0..got {
        let (bytes, from) = slots.datagram(i);
        let Some(msg) = bytes.and_then(WireView::parse) else {
            c.shed(ShedReason::Malformed);
            continue;
        };
        match msg {
            Wire::Data { flow, seq, payload } => {
                let Some(fs) = flows.get_mut(&flow) else {
                    c.shed(ShedReason::UnknownFlow);
                    continue;
                };
                c.data_rx.fetch_add(1, Ordering::Relaxed);
                match fs.service {
                    ServiceKind::Forwarding => {
                        egress.to.push((fs.peer, Out::Slot(i)));
                        c.forwarded.fetch_add(1, Ordering::Relaxed);
                    }
                    ServiceKind::Coding => on_coding_data(c, cfg, codec, fs, seq, payload),
                    _ => {
                        let evicted = fs.ring.insert_with(seq, |b| b.extend_from_slice(payload));
                        c.cached.fetch_add(1, Ordering::Relaxed);
                        c.cache_evicted.fetch_add(evicted, Ordering::Relaxed);
                    }
                }
            }
            Wire::Nack { flow, seq } => {
                let Some(fs) = flows.get(&flow) else {
                    c.shed(ShedReason::UnknownFlow);
                    continue;
                };
                c.nacks_rx.fetch_add(1, Ordering::Relaxed);
                if !answer_nack(c, cfg, fs, flow, seq, from, egress) {
                    c.recovery_misses.fetch_add(1, Ordering::Relaxed);
                }
            }
            // Anything else is not meaningful on a data socket.
            _ => c.shed(ShedReason::UnknownFlow),
        }
    }
}

/// Answers a NACK from the flow's ring; `false` when nothing there covers
/// `seq`.
fn answer_nack(
    c: &ShardCounters,
    cfg: &RelayConfig,
    fs: &FlowState,
    flow: u32,
    seq: u64,
    to: SocketAddr,
    egress: &mut Egress,
) -> bool {
    if fs.service != ServiceKind::Coding {
        let Some(payload) = fs.ring.get(seq) else {
            return false;
        };
        egress.encode(to, Wire::Recovered { flow, seq, payload });
        c.recoveries_served.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    let k = cfg.coding_k as u64;
    let Some(batch) = seq.checked_sub(fs.phase).map(|d| d / k) else {
        return false;
    };
    let Some(parity) = fs.ring.get(batch) else {
        return false;
    };
    let base_seq = batch * k + fs.phase;
    for (index, payload) in parity.chunks_exact(parity.len() / cfg.coding_m).enumerate() {
        let index = index as u8;
        let shard = Wire::Parity {
            flow,
            base_seq,
            index,
            payload,
        };
        egress.encode(to, shard);
        c.parity_served.fetch_add(1, Ordering::Relaxed);
    }
    true
}

/// Coding-service ingest: accumulate a contiguous run of `k` payloads, then
/// encode `m` parity shards and retire the run (the relay keeps *only* the
/// parity — that is the coding service's bandwidth/memory saving).
fn on_coding_data(
    c: &ShardCounters,
    cfg: &RelayConfig,
    codec: &mut BatchCodec,
    fs: &mut FlowState,
    seq: u64,
    payload: &[u8],
) {
    let k = cfg.coding_k;
    if !fs.run_ends.is_empty() && seq != fs.run_base.wrapping_add(fs.run_ends.len() as u64) {
        // A gap in the cloud-copy stream: restart the batch on the new run
        // (counted — an incomplete batch can never serve recovery).
        fs.run.clear();
        fs.run_ends.clear();
        c.coding_resyncs.fetch_add(1, Ordering::Relaxed);
    }
    if fs.run_ends.is_empty() {
        fs.run_base = seq;
    }
    fs.run.extend_from_slice(payload);
    fs.run_ends.push(fs.run.len());
    if fs.run_ends.len() < k {
        return;
    }
    // `k + m <= 255` is checked at bind.
    let mut packets = [&[][..]; 255];
    let mut start = 0;
    for (p, &end) in packets.iter_mut().zip(&fs.run_ends) {
        *p = &fs.run[start..end];
        start = end;
    }
    match codec.encode_batch(&packets[..k], cfg.coding_m) {
        Ok(view) => {
            let (base, k) = (fs.run_base, k as u64);
            if base % k != fs.phase {
                c.parity_evicted
                    .fetch_add(fs.ring.clear(), Ordering::Relaxed);
                fs.phase = base % k;
            }
            let evicted = fs.ring.insert_with(base / k, |b| {
                view.parity.iter().for_each(|p| b.extend_from_slice(p));
            });
            c.parity_evicted.fetch_add(evicted, Ordering::Relaxed);
            c.batches_encoded.fetch_add(1, Ordering::Relaxed);
        }
        // Unreachable with a validated config (k, m bounded at bind);
        // drop the batch rather than poison the shard.
        Err(_) => {
            c.coding_resyncs.fetch_add(1, Ordering::Relaxed);
        }
    }
    fs.run.clear();
    fs.run_ends.clear();
}

/// Sends the turn's answers in one batch; what the socket does not take is
/// shed and counted.
fn flush(state: &ShardState, slots: &RecvSlots, egress: &mut Egress) {
    if egress.to.is_empty() {
        return;
    }
    let slab = &egress.slab;
    let sent = sys::send_batch(&state.socket, &egress.to, |&(to, out)| match out {
        Out::Slot(i) => (to, slots.bytes(i)),
        Out::Slab(start, end) => (to, &slab[start..end]),
    });
    let c = &state.counters;
    c.datagrams_tx.fetch_add(sent as u64, Ordering::Relaxed);
    c.shed_egress_full
        .fetch_add((egress.to.len() - sent) as u64, Ordering::Relaxed);
    egress.to.clear();
    egress.slab.clear();
}
