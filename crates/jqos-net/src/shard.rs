//! The per-shard dataplane task.
//!
//! Each shard owns one UDP socket, one flow table, and one
//! [`erasure::packets::BatchCodec`]; flows are hash-partitioned onto shards
//! by [`crate::admission::shard_for`], so the hot path never takes a lock
//! shared with another shard (the flow table's mutex is per-shard and is
//! taken once per wakeup, not per packet; the control task takes it briefly
//! to admit a flow).
//!
//! A wakeup is one trip around the loop:
//!
//! 1. **Ingest** — drain the socket with non-blocking reads, up to
//!    `recv_batch` datagrams, into the bounded ingress queue.  Datagrams
//!    beyond the queue's capacity are shed (counted per reason) rather than
//!    left to overflow kernel buffers silently; malformed datagrams are
//!    counted and dropped here too.
//! 2. **Process** — run each queued message through its flow's service:
//!    forwarding relays the payload downstream, caching appends to the
//!    flow's bounded cache ring, coding accumulates `k` contiguous payloads
//!    and encodes `m` parity shards on the live `BatchCodec` path.  NACKs
//!    are answered from the cache ring (caching) or with the batch's parity
//!    shards (coding).
//! 3. **Flush** — write every egress datagram with non-blocking sends; a
//!    full socket buffer sheds (counted) instead of blocking the shard.
//!
//! Every queue and ring is bounded: the ingress queue by `queue_capacity`
//! (its highwater mark is tracked), the cache ring by `cache_per_flow`, the
//! parity ring by `parity_per_flow`, and the coding accumulator by
//! `coding_k`.  Shard memory therefore cannot grow without bound no matter
//! what the offered load is.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use bytes::Bytes;
use erasure::packets::BatchCodec;
use jqos_core::select::ServiceKind;
use tokio::net::UdpSocket;

use crate::metrics::{ShardCounters, ShedReason};
use crate::relay::RelayConfig;
use crate::wire::WireMsg;

/// How long an idle shard sleeps before re-polling its socket (also the
/// latency bound for noticing a stop request while idle).
const IDLE_SLICE: Duration = Duration::from_millis(1);

/// How many ingest/process rounds a stopping shard runs to drain its socket
/// and queue before exiting even under continuous load.
const DRAIN_ROUNDS: u32 = 16;

/// Per-flow dataplane state, owned by exactly one shard.
pub(crate) struct FlowState {
    /// Service assigned at admission (the live `select.rs` decision).
    pub service: ServiceKind,
    /// Where recoveries/forwards for this flow are sent (the registering
    /// endpoint's address).
    pub peer: SocketAddr,
    /// The budget the flow registered with, for metrics.
    pub budget_ms: u32,
    /// Caching service: ring of the most recent `(seq, payload)` copies.
    cache: std::collections::VecDeque<(u64, Vec<u8>)>,
    /// Coding service: contiguous run of payloads awaiting a full batch.
    pending: Vec<(u64, Vec<u8>)>,
    /// Coding service: ring of encoded batches `(base_seq, parity shards)`.
    parity: std::collections::VecDeque<(u64, Vec<Bytes>)>,
}

impl FlowState {
    pub(crate) fn new(service: ServiceKind, peer: SocketAddr, budget_ms: u32) -> Self {
        FlowState {
            service,
            peer,
            budget_ms,
            cache: std::collections::VecDeque::new(),
            pending: Vec::new(),
            parity: std::collections::VecDeque::new(),
        }
    }
}

/// Shared state of one shard: socket, flow table, counters.
pub(crate) struct ShardState {
    pub index: usize,
    pub socket: Arc<UdpSocket>,
    /// Every lock recovers a poisoned guard (`PoisonError::into_inner`) so
    /// that `Relay::shutdown` still reports metrics after a shard thread
    /// panicked; they read only each flow's id, service and budget, which
    /// are written once at registration.
    pub flows: Mutex<HashMap<u32, FlowState>>,
    pub counters: ShardCounters,
}

impl ShardState {
    pub(crate) fn new(index: usize, socket: Arc<UdpSocket>) -> Self {
        ShardState {
            index,
            socket,
            flows: Mutex::new(HashMap::new()),
            counters: ShardCounters::default(),
        }
    }
}

/// One queued ingress message.
type Queued = (WireMsg, SocketAddr);

/// Scratch buffers reused across wakeups (ingress queue, egress batch, and
/// a pool of encoded-datagram buffers).
struct Scratch {
    queue: Vec<Queued>,
    egress: Vec<(SocketAddr, Vec<u8>)>,
    pool: Vec<Vec<u8>>,
    recv: Vec<u8>,
}

impl Scratch {
    fn new(queue_capacity: usize) -> Self {
        Scratch {
            queue: Vec::with_capacity(queue_capacity),
            egress: Vec::new(),
            pool: Vec::new(),
            recv: vec![0u8; 65_536],
        }
    }
}

/// Runs one shard until `stop` is raised; drains the socket and the ingress
/// queue before returning.
pub(crate) async fn run_shard(
    state: Arc<ShardState>,
    cfg: Arc<RelayConfig>,
    stop: Arc<AtomicBool>,
) {
    let mut codec = BatchCodec::new();
    let mut scratch = Scratch::new(cfg.queue_capacity);
    let mut drain_rounds = 0u32;
    loop {
        let stopping = stop.load(Ordering::Relaxed);
        let reads = ingest(&state, &cfg, &mut scratch);
        if scratch.queue.is_empty() {
            if stopping {
                break;
            }
            tokio::time::sleep(IDLE_SLICE).await;
            continue;
        }
        state.counters.wakeups.fetch_add(1, Ordering::Relaxed);
        process(&state, &cfg, &mut codec, &mut scratch);
        flush(&state, &mut scratch);
        if stopping {
            drain_rounds += 1;
            if drain_rounds >= DRAIN_ROUNDS {
                break;
            }
        }
        // A full batch read means the socket may still hold a burst: loop
        // again immediately; otherwise the next ingest starts fresh anyway.
        let _ = reads;
    }
}

/// Drains the socket into the bounded ingress queue.  Returns the number of
/// datagrams pulled off the socket.
fn ingest(state: &ShardState, cfg: &RelayConfig, scratch: &mut Scratch) -> usize {
    let mut reads = 0usize;
    let mut syscalls = 0u64;
    while reads < cfg.recv_batch {
        syscalls += 1;
        match state.socket.try_recv_from(&mut scratch.recv) {
            Ok(Some((len, from))) => {
                reads += 1;
                match WireMsg::decode(&scratch.recv[..len]) {
                    Some(msg) => {
                        if scratch.queue.len() >= cfg.queue_capacity {
                            state.counters.shed(ShedReason::QueueFull);
                        } else {
                            scratch.queue.push((msg, from));
                        }
                    }
                    None => state.counters.shed(ShedReason::Malformed),
                }
            }
            Ok(None) => break,
            // UDP has no connection state to recover; count and move on.
            Err(_) => break,
        }
    }
    state
        .counters
        .recv_syscalls
        .fetch_add(syscalls, Ordering::Relaxed);
    state
        .counters
        .datagrams_rx
        .fetch_add(reads as u64, Ordering::Relaxed);
    state.counters.note_queue_depth(scratch.queue.len());
    reads
}

/// Processes every queued message under one flow-table lock.
fn process(state: &ShardState, cfg: &RelayConfig, codec: &mut BatchCodec, scratch: &mut Scratch) {
    let mut flows = state.flows.lock().unwrap_or_else(PoisonError::into_inner);
    let queue = std::mem::take(&mut scratch.queue);
    for (msg, from) in &queue {
        match msg {
            WireMsg::Data { flow, seq, payload } => {
                let Some(fs) = flows.get_mut(flow) else {
                    state.counters.shed(ShedReason::UnknownFlow);
                    continue;
                };
                state.counters.data_rx.fetch_add(1, Ordering::Relaxed);
                match fs.service {
                    ServiceKind::Forwarding => {
                        let mut buf = scratch.pool.pop().unwrap_or_default();
                        WireMsg::Data {
                            flow: *flow,
                            seq: *seq,
                            payload: payload.clone(),
                        }
                        .encode_into(&mut buf);
                        scratch.egress.push((fs.peer, buf));
                        state.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                    }
                    ServiceKind::Coding => {
                        on_coding_data(state, cfg, codec, fs, *seq, payload);
                    }
                    // Caching (and the degenerate InternetOnly, which the
                    // selector never assigns) keep a bounded copy ring.
                    _ => {
                        fs.cache.push_back((*seq, payload.clone()));
                        state.counters.cached.fetch_add(1, Ordering::Relaxed);
                        if fs.cache.len() > cfg.cache_per_flow {
                            fs.cache.pop_front();
                            state.counters.cache_evicted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            WireMsg::Nack { flow, seq } => {
                let Some(fs) = flows.get_mut(flow) else {
                    state.counters.shed(ShedReason::UnknownFlow);
                    continue;
                };
                state.counters.nacks_rx.fetch_add(1, Ordering::Relaxed);
                if fs.service == ServiceKind::Coding {
                    let k = cfg.coding_k as u64;
                    match fs.parity.iter().find(|(b, _)| *b <= *seq && *seq < *b + k) {
                        Some((base, shards)) => {
                            for (i, shard) in shards.iter().enumerate() {
                                let mut buf = scratch.pool.pop().unwrap_or_default();
                                WireMsg::Parity {
                                    flow: *flow,
                                    base_seq: *base,
                                    index: i as u8,
                                    payload: shard.to_vec(),
                                }
                                .encode_into(&mut buf);
                                scratch.egress.push((*from, buf));
                                state.counters.parity_served.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        None => {
                            state
                                .counters
                                .recovery_misses
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                } else {
                    match fs.cache.iter().find(|(s, _)| s == seq) {
                        Some((_, payload)) => {
                            let mut buf = scratch.pool.pop().unwrap_or_default();
                            WireMsg::Recovered {
                                flow: *flow,
                                seq: *seq,
                                payload: payload.clone(),
                            }
                            .encode_into(&mut buf);
                            scratch.egress.push((*from, buf));
                            state
                                .counters
                                .recoveries_served
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            state
                                .counters
                                .recovery_misses
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            // Anything else is not meaningful on a data socket.
            _ => state.counters.shed(ShedReason::UnknownFlow),
        }
    }
    drop(flows);
    scratch.queue = queue;
    scratch.queue.clear();
}

/// Coding-service ingest: accumulate a contiguous run of `k` payloads, then
/// encode `m` parity shards and retire the run (the relay keeps *only* the
/// parity — that is the coding service's bandwidth/memory saving).
fn on_coding_data(
    state: &ShardState,
    cfg: &RelayConfig,
    codec: &mut BatchCodec,
    fs: &mut FlowState,
    seq: u64,
    payload: &[u8],
) {
    if let Some(&(last, _)) = fs.pending.last() {
        if seq != last + 1 {
            // A gap in the cloud-copy stream: restart the batch on the new
            // run (counted — an incomplete batch can never serve recovery).
            fs.pending.clear();
            state
                .counters
                .coding_resyncs
                .fetch_add(1, Ordering::Relaxed);
        }
    }
    fs.pending.push((seq, payload.to_vec()));
    if fs.pending.len() < cfg.coding_k {
        return;
    }
    let packets: Vec<&[u8]> = fs.pending.iter().map(|(_, p)| p.as_slice()).collect();
    match codec.encode_batch(&packets, cfg.coding_m) {
        Ok(view) => {
            let base = fs.pending[0].0;
            fs.parity.push_back((base, view.parity));
            state
                .counters
                .batches_encoded
                .fetch_add(1, Ordering::Relaxed);
            if fs.parity.len() > cfg.parity_per_flow {
                fs.parity.pop_front();
                state
                    .counters
                    .parity_evicted
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        Err(_) => {
            // Unreachable with a validated config (k, m bounded at bind);
            // drop the batch rather than poison the shard.
            state
                .counters
                .coding_resyncs
                .fetch_add(1, Ordering::Relaxed);
        }
    }
    fs.pending.clear();
}

/// Writes the egress batch with non-blocking sends; a full socket buffer or
/// a send error sheds the datagram (counted) instead of stalling the shard.
fn flush(state: &ShardState, scratch: &mut Scratch) {
    let egress = std::mem::take(&mut scratch.egress);
    for (addr, buf) in egress {
        match state.socket.try_send_to(&buf, addr) {
            Ok(Some(_)) => {
                state.counters.datagrams_tx.fetch_add(1, Ordering::Relaxed);
            }
            Ok(None) | Err(_) => state.counters.shed(ShedReason::EgressFull),
        }
        scratch.pool.push(buf);
    }
    scratch.pool.truncate(256);
}
