//! The four `relay-*` workloads: an in-process, one-shard [`Relay`] loaded
//! over loopback UDP by **one** generator thread on **one** socket.
//!
//! The load is *open loop*: every datagram has a due time on a fixed
//! schedule, it is sent when that time comes whether or not earlier ones
//! were answered, every latency is timed from the *due* time (so a generator
//! stall counts against the operations it delayed), and the generator's own
//! lateness is reported next to the results.
//!
//! A run has two phases.  The **latency phase** paces a low rate and tracks
//! every operation to a byte-checked answer.  The **cost phase** paces a
//! rate near (but under) capacity and divides the on-CPU time of every
//! thread except the generator by the datagrams the relay pulled: the
//! paper's cost axis, in a form a stolen vCPU cannot move.  Traced runs add
//! two diagnostic phases (overload and a zero-loss ladder).
//!
//! Every trial is fenced by conservation laws over the relay's public
//! counters and the kernel's per-socket drop counter; a violated law fails
//! the run instead of printing numbers.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use erasure::packets::BatchCodec;
use jqos_net::{Relay, RelayConfig, ShardSnapshot};
use tokio::runtime::block_on;

use crate::outcome::{Outcome, RunOpts};
use crate::rng;
use crate::stats::{least, lower_quartile, median, percentile, P99Pools, MIN_BEYOND};
use crate::wire::{self, Msg};
use crate::{affinity, alloc, probes, procfs, trace};

/// What the flows of a workload do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Data in, the forwarded copy back.
    Forward,
    /// Data in; a seeded 1 in 8 NACKed and served from the cache ring.
    CacheRecover,
    /// Rings pre-filled at set-up; NACKs only.
    NackStorm,
    /// Data in; after every second batch one packet NACKed, both parity
    /// shards returned, the packet reconstructed by the client.
    Coding,
}

/// One relay workload.
#[derive(Clone, Copy, Debug)]
pub struct RelaySpec {
    kind: Kind,
    flows: usize,
    payload: usize,
    /// `register(latency_budget)` value that makes admission pick the
    /// service under test (wide-area delay model: 150 ms codes, 100 ms
    /// caches, 92 ms forwards).
    budget_ms: u32,
    service: u8,
    latency_pps: u64,
    cost_pps: u64,
}

/// Length of one latency trial and of one cost trial.  Short trials, many
/// of them: the host disturbs a guest in bursts, a short trial is the more
/// likely to fall between two, and the run reports a low quantile over
/// trials (see `stats`).
const LATENCY_TRIAL_SECS: f64 = 0.5;
const COST_TRIAL_SECS: f64 = 0.25;

/// The spec of relay workload `name`.
pub fn spec(name: &str) -> Option<RelaySpec> {
    Some(match name {
        "relay-forward-small" => RelaySpec {
            kind: Kind::Forward,
            flows: 64,
            payload: 16,
            budget_ms: 92,
            service: wire::SERVICE_FORWARDING,
            latency_pps: 10_000,
            cost_pps: 100_000,
        },
        "relay-cache-recover" => RelaySpec {
            kind: Kind::CacheRecover,
            flows: 512,
            payload: 256,
            budget_ms: 100,
            service: wire::SERVICE_CACHING,
            latency_pps: 10_000,
            cost_pps: 100_000,
        },
        "relay-cache-nackstorm" => RelaySpec {
            kind: Kind::NackStorm,
            flows: 256,
            payload: 256,
            budget_ms: 100,
            service: wire::SERVICE_CACHING,
            latency_pps: 10_000,
            cost_pps: 50_000,
        },
        "relay-coding-1k" => RelaySpec {
            kind: Kind::Coding,
            flows: 128,
            payload: 1024,
            budget_ms: 150,
            service: wire::SERVICE_CODING,
            latency_pps: 10_000,
            cost_pps: 50_000,
        },
        _ => return None,
    })
}

/// A NACK follows the packet it asks for by this much.
const NACK_AFTER: Duration = Duration::from_millis(2);
/// An unanswered NACK is retried after this long.
const NACK_TIMEOUT_NS: u64 = 20_000_000;
/// A forwarded copy is given up after this long: as long as a NACK with all
/// its retries, and longer than the host's longest stalls of a vCPU.
const FORWARD_TIMEOUT_NS: u64 = 80_000_000;
/// NACK retries before an operation counts as failed.
const MAX_RETRIES: u8 = 3;
/// One in this many operations gets per-operation spans in a traced run.
const SPAN_SAMPLE: usize = 64;
/// Fewest and most times set-up is measured per run.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 101;
/// A bound, started and registered relay plus the generator's socket.
struct Live {
    relay: Relay,
    sock: UdpSocket,
    shard: SocketAddr,
    control: SocketAddr,
    /// Wire flow id of flow index 0; the rest follow consecutively.
    flow_base: u32,
    /// Next unsent sequence number per flow index.
    next_seq: Vec<u64>,
    /// Coding parameters the relay acknowledged (`k`, `m`).
    coding: (u64, usize),
    /// Seconds registering every flow took.
    register_secs: f64,
    /// Seconds the whole set-up took (its pause excluded).
    setup_secs: f64,
}

impl Live {
    fn flow_id(&self, idx: u32) -> u32 {
        self.flow_base + idx
    }

    fn totals(&self) -> ShardSnapshot {
        self.relay.metrics().totals()
    }

    fn shutdown(mut self) {
        block_on(self.relay.shutdown());
    }
}

fn io_err(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

/// Binds and starts a one-shard relay, registers every flow over the wire
/// and (nackstorm) fills the cache rings.  The spans inside are the parts
/// `setup_s` is made of.  `placement` is `(generator CPU, relay CPU)`.
///
/// The relay's control task polls its socket once a millisecond, so how long
/// registration waits depends on where in that cycle the requests land —
/// and without `pause` that is a race between the new control thread and
/// this one which whole runs win or lose the same way (0.55 ms or 1.45 ms).
/// The untimed, seeded `pause` of one to two cycles between start and
/// registration spreads the requests evenly over the cycle instead.
fn setup(
    spec: &RelaySpec,
    seed: u64,
    placement: Option<(usize, usize)>,
    pause: Duration,
) -> Result<Live, String> {
    let _s = trace::span("setup");
    let started = Instant::now();
    let cfg = RelayConfig {
        shards: 1,
        ..RelayConfig::default()
    };
    let mut relay = {
        let _s = trace::span("setup.bind");
        block_on(Relay::bind("127.0.0.1:0", cfg)).map_err(|e| io_err("bind relay", e))?
    };
    {
        let _s = trace::span("setup.start");
        // Threads inherit their creator's CPU mask: the relay's threads are
        // born on the relay's CPU, then the generator moves to its own.
        if let Some((generator_cpu, relay_cpu)) = placement {
            affinity::pin(&[relay_cpu]);
            relay.start();
            affinity::pin(&[generator_cpu]);
        } else {
            relay.start();
        }
    }
    let control = relay
        .control_addr()
        .map_err(|e| io_err("control addr", e))?;
    let shard = relay.shard_addrs()[0];
    let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| io_err("bind generator", e))?;
    let mut live = Live {
        relay,
        sock,
        shard,
        control,
        flow_base: rng::flow_base(seed),
        next_seq: vec![0; spec.flows],
        coding: (cfg.coding_k as u64, cfg.coding_m),
        register_secs: 0.0,
        setup_secs: 0.0,
    };
    let before_pause = started.elapsed();
    std::thread::sleep(pause);
    let resumed = Instant::now();
    {
        let _s = trace::span("setup.register");
        register_all(&mut live, spec)?;
        live.register_secs = resumed.elapsed().as_secs_f64();
    }
    if spec.kind == Kind::NackStorm {
        let _s = trace::span("setup.prefill");
        prefill(&mut live, spec, seed, cfg.cache_per_flow as u64)?;
    }
    live.setup_secs = (before_pause + resumed.elapsed()).as_secs_f64();
    Ok(live)
}

/// Registers `spec.flows` flows, up to 128 requests in flight, re-sending
/// what stays unanswered (a duplicate `Register` is re-acked idempotently).
fn register_all(live: &mut Live, spec: &RelaySpec) -> Result<(), String> {
    const WINDOW: usize = 128;
    live.sock
        .set_nonblocking(false)
        .and_then(|()| live.sock.set_read_timeout(Some(Duration::from_millis(5))))
        .map_err(|e| io_err("socket mode", e))?;
    let n = spec.flows;
    let mut acked = vec![false; n];
    let mut sent_at: Vec<Option<Instant>> = vec![None; n];
    let (mut next, mut in_flight, mut done) = (0usize, 0usize, 0usize);
    let mut out = Vec::new();
    let mut buf = [0u8; 64];
    let deadline = Instant::now() + Duration::from_secs(10);
    let send = |live: &Live, idx: usize, out: &mut Vec<u8>| -> Result<(), String> {
        wire::encode(
            &Msg::Register {
                flow: live.flow_id(idx as u32),
                budget_ms: spec.budget_ms,
                loss_tolerant: false,
            },
            out,
        );
        live.sock
            .send_to(out, live.control)
            .map(drop)
            .map_err(|e| io_err("send register", e))
    };
    while done < n {
        if Instant::now() > deadline {
            return Err(format!("registration stalled: {done} of {n} flows acked"));
        }
        while next < n && in_flight < WINDOW {
            send(live, next, &mut out)?;
            sent_at[next] = Some(Instant::now());
            next += 1;
            in_flight += 1;
        }
        match live.sock.recv_from(&mut buf) {
            Ok((len, _)) => match wire::decode(&buf[..len]) {
                Some(Msg::RegisterAck {
                    flow,
                    service,
                    shard,
                    port,
                    coding_k,
                    coding_m,
                }) => {
                    let idx = flow.wrapping_sub(live.flow_base) as usize;
                    if idx >= n || acked[idx] {
                        continue;
                    }
                    if service != spec.service || shard != 0 || port != live.shard.port() {
                        return Err(format!(
                            "flow {flow}: admitted to service {service} on shard {shard} port {port}, \
                             wanted service {} on port {}",
                            spec.service,
                            live.shard.port()
                        ));
                    }
                    if spec.kind == Kind::Coding {
                        live.coding = (u64::from(coding_k), usize::from(coding_m));
                    }
                    acked[idx] = true;
                    in_flight -= 1;
                    done += 1;
                }
                Some(Msg::RegisterNack { flow, reason }) => {
                    return Err(format!("flow {flow} refused admission (reason {reason})"));
                }
                _ => return Err("unexpected datagram during registration".to_string()),
            },
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let now = Instant::now();
                for idx in 0..next {
                    let stale = sent_at[idx].is_some_and(|t| now - t > Duration::from_millis(20));
                    if !acked[idx] && stale {
                        send(live, idx, &mut out)?;
                        sent_at[idx] = Some(now);
                    }
                }
            }
            Err(e) => return Err(io_err("recv register ack", e)),
        }
    }
    Ok(())
}

/// Fills every flow's cache ring exactly (sequence numbers `0..ring`).
/// Set-up, not measurement, so it is closed loop: a window of datagrams
/// small enough for the relay's socket buffer, then a wait until the relay
/// has cached them, so nothing can be dropped.
fn prefill(live: &mut Live, spec: &RelaySpec, seed: u64, ring: u64) -> Result<(), String> {
    const WINDOW: u64 = 128;
    let before = live.totals();
    let total = spec.flows as u64 * ring;
    let flows = spec.flows as u64;
    let mut payload = vec![0u8; spec.payload];
    let mut out = Vec::with_capacity(spec.payload + 16);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut sent = 0u64;
    while sent < total {
        for i in sent..(sent + WINDOW).min(total) {
            let (flow, seq) = (live.flow_id((i % flows) as u32), i / flows);
            rng::fill_payload(seed, flow, seq, &mut payload);
            wire::encode(
                &Msg::Data {
                    flow,
                    seq,
                    payload: &payload,
                },
                &mut out,
            );
            live.sock
                .send_to(&out, live.shard)
                .map_err(|e| io_err("prefill send", e))?;
        }
        sent = (sent + WINDOW).min(total);
        while live.totals().cached - before.cached < sent {
            if Instant::now() > deadline {
                let cached = live.totals().cached - before.cached;
                return Err(format!(
                    "prefill: relay cached {cached} of {sent} packets sent"
                ));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    for s in live.next_seq.iter_mut() {
        *s = ring;
    }
    Ok(())
}

/// What one scheduled send is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SendKind {
    Data,
    Nack,
}

/// One scheduled datagram.
#[derive(Clone, Copy, Debug)]
struct SendOp {
    due_ns: u64,
    flow_idx: u32,
    seq: u64,
    kind: SendKind,
    /// Whether an answer to this datagram is awaited and timed.
    tracked: bool,
}

/// The fixed schedule of one trial.
struct Plan {
    ops: Vec<SendOp>,
}

impl Plan {
    /// `total` data packets round-robin over the flows at `pps`.
    fn data_only(spec: &RelaySpec, live: &Live, total: u64, pps: u64) -> Plan {
        let gap = 1e9 / pps as f64;
        let flows = spec.flows as u64;
        let ops = (0..total)
            .map(|i| {
                let flow_idx = (i % flows) as u32;
                SendOp {
                    due_ns: (i as f64 * gap) as u64,
                    flow_idx,
                    seq: live.next_seq[flow_idx as usize] + i / flows,
                    kind: SendKind::Data,
                    tracked: false,
                }
            })
            .collect();
        Plan { ops }
    }

    /// The schedule of one trial of `secs` seconds at `pps` datagrams a
    /// second (data packets for the data-bearing kinds, NACKs for the
    /// storm), advancing the flows' sequence numbers.
    fn trial(
        spec: &RelaySpec,
        live: &mut Live,
        seed: u64,
        trial_no: u64,
        secs: f64,
        pps: u64,
    ) -> Plan {
        let flows = spec.flows as u64;
        let (k, _) = live.coding;
        let nack_after = NACK_AFTER.as_nanos() as u64;
        if spec.kind == Kind::NackStorm {
            let n = (secs * pps as f64) as usize;
            let gap = 1e9 / pps as f64;
            let ring = live.next_seq[0];
            let ops = rng::nackstorm_targets(seed, trial_no, flows, ring, n)
                .into_iter()
                .enumerate()
                .map(|(i, (flow_idx, seq))| SendOp {
                    due_ns: (i as f64 * gap) as u64,
                    flow_idx,
                    seq,
                    kind: SendKind::Nack,
                    tracked: true,
                })
                .collect();
            return Plan { ops };
        }
        // Whole packets per flow; coding flows send whole pairs of batches
        // so "after every second batch" never straddles a trial.
        let mut per_flow = ((secs * pps as f64) as u64 / flows).max(1);
        if spec.kind == Kind::Coding {
            per_flow = (per_flow / (2 * k)).max(1) * 2 * k;
            // The relay batches contiguous runs.  Skipping one sequence
            // number makes every flow's accumulator restart on this trial's
            // first packet, so batch boundaries are this trial's own and a
            // datagram the kernel dropped in an earlier trial cannot shift
            // them.
            for s in live.next_seq.iter_mut() {
                *s += 1;
            }
        }
        let first_seq = live.next_seq.clone();
        let mut plan = Plan::data_only(spec, live, per_flow * flows, pps);
        let mut nacks = Vec::new();
        for op in &mut plan.ops {
            let flow = live.flow_id(op.flow_idx);
            match spec.kind {
                Kind::Forward => op.tracked = true,
                Kind::CacheRecover if rng::cache_recover_nacked(seed, flow, op.seq) => {
                    nacks.push((op.due_ns + nack_after, op.flow_idx, op.seq));
                }
                // The last packet of every second batch triggers the NACK.
                Kind::Coding => {
                    let rel = op.seq - first_seq[op.flow_idx as usize];
                    if rel % (2 * k) == 2 * k - 1 {
                        let base = op.seq + 1 - k;
                        let victim = base + rng::coding_victim(seed, flow, base, k);
                        nacks.push((op.due_ns + nack_after, op.flow_idx, victim));
                    }
                }
                _ => {}
            }
        }
        plan.ops
            .extend(nacks.into_iter().map(|(due_ns, flow_idx, seq)| SendOp {
                due_ns,
                flow_idx,
                seq,
                kind: SendKind::Nack,
                tracked: true,
            }));
        plan.ops.sort_by_key(|op| op.due_ns);
        for s in live.next_seq.iter_mut() {
            *s += per_flow;
        }
        plan
    }

    fn tracked(&self) -> usize {
        self.ops.iter().filter(|op| op.tracked).count()
    }
}

/// A tracked operation awaiting its answer.
struct Pending {
    flow_idx: u32,
    seq: u64,
    due_ns: u64,
    send_start_ns: u64,
    send_end_ns: u64,
    retries: u8,
    done: bool,
    /// Coding: the parity shards received so far, by index.
    parity: Vec<Option<Vec<u8>>>,
    parity_base: u64,
}

/// What one trial measured on the generator's side.
#[derive(Default)]
struct TrialResult {
    /// Datagrams handed to the kernel for the relay's shard socket.
    offered: u64,
    /// Datagrams received back.
    received: u64,
    /// Tracked operations started.
    attempted: u64,
    /// Tracked operations never answered.
    failed: u64,
    /// Answers whose bytes differed from what was sent.
    mismatched: u64,
    /// Due time to verified answer, µs, one per answered operation.
    delays_us: Vec<f64>,
    /// Generator lateness (send time minus due time), µs, one per send.
    late_us: Vec<f64>,
    /// Client-side decode spans, µs (coding).
    decode_us: Vec<f64>,
    /// Seconds from first due time to last send.
    send_secs: f64,
}

/// The single generator thread's state for one trial.
struct Generator<'a> {
    live: &'a Live,
    spec: &'a RelaySpec,
    seed: u64,
    traced: bool,
    out: Vec<u8>,
    payload: Vec<u8>,
    expect: Vec<u8>,
    recv: Vec<u8>,
    codec: BatchCodec,
}

impl<'a> Generator<'a> {
    fn new(live: &'a Live, spec: &'a RelaySpec, seed: u64, traced: bool) -> Self {
        Generator {
            live,
            spec,
            seed,
            traced,
            out: Vec::with_capacity(spec.payload + 16),
            payload: vec![0; spec.payload],
            expect: vec![0; spec.payload],
            recv: vec![0; 65_536],
            codec: BatchCodec::new(),
        }
    }

    /// Encodes `op` into `self.out`.
    fn encode(&mut self, op: &SendOp) {
        let flow = self.live.flow_id(op.flow_idx);
        match op.kind {
            SendKind::Data => {
                rng::fill_payload(self.seed, flow, op.seq, &mut self.payload);
                wire::encode(
                    &Msg::Data {
                        flow,
                        seq: op.seq,
                        payload: &self.payload,
                    },
                    &mut self.out,
                );
            }
            SendKind::Nack => wire::encode(&Msg::Nack { flow, seq: op.seq }, &mut self.out),
        }
    }

    /// Whether `payload` is what `(flow_idx, seq)` carried.
    fn payload_matches(&mut self, flow_idx: u32, seq: u64, payload: &[u8]) -> bool {
        rng::fill_payload(
            self.seed,
            self.live.flow_id(flow_idx),
            seq,
            &mut self.expect,
        );
        payload == self.expect.as_slice()
    }

    /// Rebuilds packet `victim` of the batch at `base` from the other `k-1`
    /// packets (regenerated: the client "received" them) and the parity
    /// shards, and checks it against what was sent.
    fn reconstruct(
        &mut self,
        flow_idx: u32,
        base: u64,
        victim: u64,
        parity: &[Option<Vec<u8>>],
    ) -> bool {
        let (k, _) = self.live.coding;
        let flow = self.live.flow_id(flow_idx);
        let others: Vec<(usize, Vec<u8>)> = (0..k)
            .filter(|i| base + i != victim)
            .map(|i| {
                let mut p = vec![0; self.spec.payload];
                rng::fill_payload(self.seed, flow, base + i, &mut p);
                (i as usize, p)
            })
            .collect();
        let data: Vec<(usize, &[u8])> = others.iter().map(|(i, p)| (*i, p.as_slice())).collect();
        let shards: Vec<(usize, &[u8])> = parity
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_deref().map(|p| (i, p)))
            .collect();
        let Some(shard_len) = shards.first().map(|(_, p)| p.len()) else {
            return false;
        };
        match self
            .codec
            .decode_batch(k as usize, shard_len, &data, &shards)
        {
            Ok(packets) => {
                let got = packets[(victim - base) as usize].clone();
                self.payload_matches(flow_idx, victim, &got)
            }
            Err(_) => false,
        }
    }

    /// Runs one trial: sends `plan` on schedule, and when `track` is set
    /// follows every tracked operation to a verified answer, a retry, or a
    /// failure.
    fn run(&mut self, plan: &Plan, track: bool) -> Result<TrialResult, String> {
        self.live
            .sock
            .set_nonblocking(true)
            .map_err(|e| io_err("socket mode", e))?;
        let mut res = TrialResult::default();
        let mut pending: Vec<Pending> = Vec::with_capacity(if track { plan.tracked() } else { 0 });
        // Open operations per flow index (short lists, scanned linearly).
        let mut open: Vec<Vec<u32>> = vec![Vec::new(); self.spec.flows];
        // `(deadline, operation)`, in deadline order because the timeout is
        // one constant.
        let mut timers: VecDeque<(u64, u32)> = VecDeque::new();
        let mut unresolved = 0usize;
        let (k, m) = self.live.coding;
        let timeout_ns = if self.spec.kind == Kind::Forward {
            FORWARD_TIMEOUT_NS
        } else {
            NACK_TIMEOUT_NS
        };
        let last_due = plan.ops.last().map_or(0, |op| op.due_ns);
        // Lead time so the first due time is not already past.
        let start = Instant::now() + Duration::from_micros(200);
        let now_ns =
            |start: Instant| Instant::now().saturating_duration_since(start).as_nanos() as u64;
        let at = |ns: u64| start + Duration::from_nanos(ns);
        let mut next = 0usize;
        let mut last_send_ns = 0u64;
        while Instant::now() < start {
            std::hint::spin_loop();
        }

        loop {
            let now = now_ns(start);
            // 1. The schedule: at most one send per turn, so receiving is
            // never starved by a late generator.
            if next < plan.ops.len() && now >= plan.ops[next].due_ns {
                let op = plan.ops[next];
                self.encode(&op);
                match self.live.sock.send_to(&self.out, self.live.shard) {
                    Ok(_) => {
                        res.offered += 1;
                        res.late_us.push((now - op.due_ns) as f64 / 1e3);
                        last_send_ns = now;
                        if track && op.tracked {
                            let id = pending.len() as u32;
                            pending.push(Pending {
                                flow_idx: op.flow_idx,
                                seq: op.seq,
                                due_ns: op.due_ns,
                                send_start_ns: now,
                                send_end_ns: if self.traced { now_ns(start) } else { now },
                                retries: 0,
                                done: false,
                                parity: vec![
                                    None;
                                    if self.spec.kind == Kind::Coding { m } else { 0 }
                                ],
                                parity_base: 0,
                            });
                            open[op.flow_idx as usize].push(id);
                            timers.push_back((now + timeout_ns, id));
                            unresolved += 1;
                            res.attempted += 1;
                        }
                        next += 1;
                    }
                    // A full send buffer: the datagram stays due and shows
                    // up as generator lateness.
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) => return Err(io_err("send", e)),
                }
            }
            // 2. Timeouts: retry a NACK, or give the operation up.
            if let Some(&(deadline, id)) = timers.front() {
                if deadline <= now {
                    timers.pop_front();
                    let p = &mut pending[id as usize];
                    if !p.done {
                        let retryable = self.spec.kind != Kind::Forward && p.retries < MAX_RETRIES;
                        if retryable {
                            p.retries += 1;
                            let (flow_idx, seq) = (p.flow_idx, p.seq);
                            let flow = self.live.flow_id(flow_idx);
                            wire::encode(&Msg::Nack { flow, seq }, &mut self.out);
                            if self.live.sock.send_to(&self.out, self.live.shard).is_ok() {
                                res.offered += 1;
                            }
                            timers.push_back((now + timeout_ns, id));
                        } else {
                            p.done = true;
                            open[p.flow_idx as usize].retain(|&o| o != id);
                            unresolved -= 1;
                            res.failed += 1;
                        }
                    }
                }
            }
            // 3. One receive.
            match self.live.sock.recv_from(&mut self.recv) {
                Ok((len, _)) => {
                    res.received += 1;
                    if track {
                        let t_rx = now_ns(start);
                        // Split borrows: the datagram stays in `recv` while
                        // the scratch buffers are used to check it.
                        let datagram = std::mem::take(&mut self.recv);
                        let answered =
                            self.on_datagram(&datagram[..len], &mut pending, &mut open, k);
                        self.recv = datagram;
                        if let Some((id, ok, decode_ns)) = answered {
                            let t_done = now_ns(start);
                            let p = &mut pending[id as usize];
                            p.done = true;
                            unresolved -= 1;
                            if ok {
                                res.delays_us
                                    .push(t_done.saturating_sub(p.due_ns) as f64 / 1e3);
                            } else {
                                res.mismatched += 1;
                            }
                            if let Some(ns) = decode_ns {
                                res.decode_us.push(ns as f64 / 1e3);
                            }
                            if self.traced && (id as usize).is_multiple_of(SPAN_SAMPLE) {
                                let req = format!("{}/{}", self.live.flow_id(p.flow_idx), p.seq);
                                let op =
                                    trace::record("op", None, at(p.due_ns), at(t_done), Some(req));
                                trace::record(
                                    "gen.send",
                                    op,
                                    at(p.send_start_ns),
                                    at(p.send_end_ns),
                                    None,
                                );
                                trace::record(
                                    "relay.turnaround",
                                    op,
                                    at(p.send_end_ns),
                                    at(t_rx),
                                    None,
                                );
                                let decode_end = t_rx + decode_ns.unwrap_or(0);
                                if decode_ns.is_some() {
                                    trace::record(
                                        "client.decode",
                                        op,
                                        at(t_rx),
                                        at(decode_end),
                                        None,
                                    );
                                }
                                trace::record(
                                    "client.verify",
                                    op,
                                    at(decode_end),
                                    at(t_done),
                                    None,
                                );
                            }
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let sent_all = next == plan.ops.len();
                    if sent_all && track && unresolved == 0 {
                        break;
                    }
                    // Untracked trials drain for a few idle sleeps of the
                    // relay, so its last forwards are received, not dropped.
                    if sent_all && !track && now > last_due + 5_000_000 {
                        break;
                    }
                    std::hint::spin_loop();
                }
                Err(e) => return Err(io_err("recv", e)),
            }
            // Tracked trials always end: every operation times out at worst.
        }
        res.send_secs = last_send_ns as f64 / 1e9;
        Ok(res)
    }

    /// Matches one received datagram to an open operation.  Returns the
    /// operation it completed, whether its bytes were right, and the time
    /// spent reconstructing (coding).
    fn on_datagram(
        &mut self,
        datagram: &[u8],
        pending: &mut [Pending],
        open: &mut [Vec<u32>],
        k: u64,
    ) -> Option<(u32, bool, Option<u64>)> {
        let take = |open: &mut [Vec<u32>],
                    flow_idx: u32,
                    hit: &dyn Fn(&Pending) -> bool,
                    pending: &[Pending]| {
            let list = open.get_mut(flow_idx as usize)?;
            let pos = list.iter().position(|&id| hit(&pending[id as usize]))?;
            Some(list.remove(pos))
        };
        match wire::decode(datagram)? {
            Msg::Data { flow, seq, payload } if self.spec.kind == Kind::Forward => {
                let flow_idx = flow.wrapping_sub(self.live.flow_base);
                let id = take(open, flow_idx, &|p| p.seq == seq, pending)?;
                Some((id, self.payload_matches(flow_idx, seq, payload), None))
            }
            Msg::Recovered { flow, seq, payload } => {
                let flow_idx = flow.wrapping_sub(self.live.flow_base);
                let id = take(open, flow_idx, &|p| p.seq == seq, pending)?;
                Some((id, self.payload_matches(flow_idx, seq, payload), None))
            }
            Msg::Parity {
                flow,
                base_seq,
                index,
                payload,
            } => {
                let flow_idx = flow.wrapping_sub(self.live.flow_base);
                let covers = |p: &Pending| base_seq <= p.seq && p.seq < base_seq + k;
                let list = open.get(flow_idx as usize)?;
                let &id = list.iter().find(|&&id| covers(&pending[id as usize]))?;
                let p = &mut pending[id as usize];
                let slot = p.parity.get_mut(index as usize)?;
                *slot = Some(payload.to_vec());
                p.parity_base = base_seq;
                if p.parity.iter().any(Option::is_none) {
                    return None;
                }
                // Both shards are in: the operation completes with the
                // client-side reconstruction.
                open[flow_idx as usize].retain(|&o| o != id);
                let (seq, parity) = (p.seq, std::mem::take(&mut p.parity));
                let t = Instant::now();
                let ok = self.reconstruct(flow_idx, base_seq, seq, &parity);
                Some((id, ok, Some(t.elapsed().as_nanos() as u64)))
            }
            _ => None,
        }
    }
}

/// Waits until the relay has pulled (or the kernel has dropped, since
/// `drops_before`) all `offered` datagrams sent after `before` and has
/// finished with them — the relay's own conservation laws hold only between
/// its wakeups — then returns its counters.  Gives up after two seconds:
/// the conservation gates then report what is missing.
fn settle(
    live: &Live,
    before: &ShardSnapshot,
    drops_before: Option<u64>,
    offered: u64,
) -> ShardSnapshot {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let now = live.totals();
        let dropped = drops_before
            .zip(procfs::udp_drops(live.shard.port()))
            .map_or(0, |(a, b)| b - a);
        let d = delta(&now, before);
        let done = d.datagrams_rx + dropped >= offered && relay_laws_hold(&d);
        if done || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Counter movements of one trial and the laws they must obey.
struct Ledger {
    delta: ShardSnapshot,
    offered: u64,
    relay_drops: Option<u64>,
    gen_drops: Option<u64>,
}

fn delta(after: &ShardSnapshot, before: &ShardSnapshot) -> ShardSnapshot {
    ShardSnapshot {
        shard: 0,
        flows: after.flows,
        data_rx: after.data_rx - before.data_rx,
        nacks_rx: after.nacks_rx - before.nacks_rx,
        recoveries_served: after.recoveries_served - before.recoveries_served,
        recovery_misses: after.recovery_misses - before.recovery_misses,
        parity_served: after.parity_served - before.parity_served,
        forwarded: after.forwarded - before.forwarded,
        cached: after.cached - before.cached,
        cache_evicted: after.cache_evicted - before.cache_evicted,
        parity_evicted: after.parity_evicted - before.parity_evicted,
        batches_encoded: after.batches_encoded - before.batches_encoded,
        coding_resyncs: after.coding_resyncs - before.coding_resyncs,
        wakeups: after.wakeups - before.wakeups,
        recv_syscalls: after.recv_syscalls - before.recv_syscalls,
        datagrams_rx: after.datagrams_rx - before.datagrams_rx,
        datagrams_tx: after.datagrams_tx - before.datagrams_tx,
        shed_queue_full: after.shed_queue_full - before.shed_queue_full,
        malformed_rx: after.malformed_rx - before.malformed_rx,
        shed_unknown_flow: after.shed_unknown_flow - before.shed_unknown_flow,
        shed_egress_full: after.shed_egress_full - before.shed_egress_full,
        queue_highwater: after.queue_highwater,
    }
}

/// The relay-internal laws over counter movements `d`: every pulled datagram
/// has one fate, every answer produced was written or shed.
fn relay_laws_hold(d: &ShardSnapshot) -> bool {
    let ingress = d.datagrams_rx
        == d.data_rx + d.nacks_rx + d.shed_queue_full + d.malformed_rx + d.shed_unknown_flow;
    let egress =
        d.forwarded + d.recoveries_served + d.parity_served == d.datagrams_tx + d.shed_egress_full;
    ingress && egress
}

impl Ledger {
    /// `offered − datagrams_rx − kernel_drops`: what neither the relay nor
    /// the kernel owns up to.  `None` where the kernel's counter is
    /// unreadable.
    fn unaccounted(&self) -> Option<i64> {
        let drops = self.relay_drops?;
        Some(self.offered as i64 - self.delta.datagrams_rx as i64 - drops as i64)
    }

    /// Whether the kernel dropped at either socket during the trial.
    fn disturbed(&self) -> bool {
        self.relay_drops.unwrap_or(0) > 0 || self.gen_drops.unwrap_or(0) > 0
    }
}

/// Kernel drop counters of the relay's shard socket and the generator's.
fn kernel_drops(live: &Live) -> (Option<u64>, Option<u64>) {
    let gen_port = live.sock.local_addr().map(|a| a.port()).ok();
    (
        procfs::udp_drops(live.shard.port()),
        gen_port.and_then(procfs::udp_drops),
    )
}

/// Runs one trial between two counter snapshots.
fn fenced_trial(
    live: &mut Live,
    spec: &RelaySpec,
    opts: &RunOpts,
    trial_no: u64,
    secs: f64,
    pps: u64,
    track: bool,
) -> Result<(TrialResult, Ledger), String> {
    let _s = trace::span_req("trial", Some(format!("{trial_no}")));
    let plan = Plan::trial(spec, live, opts.seed, trial_no, secs, pps);
    let before = live.totals();
    let (relay_drops0, gen_drops0) = kernel_drops(live);
    let result = Generator::new(live, spec, opts.seed, opts.traced).run(&plan, track)?;
    let after = settle(live, &before, relay_drops0, result.offered);
    let (relay_drops1, gen_drops1) = kernel_drops(live);
    let ledger = Ledger {
        delta: delta(&after, &before),
        offered: result.offered,
        relay_drops: relay_drops0.zip(relay_drops1).map(|(a, b)| b - a),
        gen_drops: gen_drops0.zip(gen_drops1).map(|(a, b)| b - a),
    };
    Ok((result, ledger))
}

/// The highest percentile of `sorted` that has [`MIN_BEYOND`] samples beyond
/// it, for sample sets too small to carry a p99.
fn highest_supported(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n > MIN_BEYOND => sorted[n - 1 - MIN_BEYOND],
        n => sorted[n - 1],
    }
}

/// Runs relay workload `spec`.
pub fn run(name: &str, spec: &RelaySpec, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    // This thread is the generator: its CPU time and allocations are not
    // the relay's.
    let gen_tid = procfs::current_tid();
    alloc::exclude_this_thread();
    let _w = trace::span_req("workload", Some(name.to_string()));

    // Generator on the first allowed CPU, the relay on the last (see
    // `affinity`); with a single CPU they share it.
    let cpus = affinity::allowed();
    let placement = (cpus.len() >= 2).then(|| (cpus[0], cpus[cpus.len() - 1]));
    match placement {
        Some((g, r)) => out
            .notes
            .push(format!("generator on CPU {g}, relay on CPU {r}")),
        None => out
            .notes
            .push("one CPU allowed: generator and relay share it".to_string()),
    }

    let mut setup_secs = Vec::new();
    let mut pauses = rng::Rng::new(opts.seed, 0x5E7);
    let mut timed_setup = |setup_secs: &mut Vec<f64>| -> Result<Live, String> {
        let pause = Duration::from_micros(1_000 + pauses.below(1_000));
        let live = setup(spec, opts.seed, placement, pause)?;
        setup_secs.push(live.setup_secs);
        Ok(live)
    };
    let mut live = timed_setup(&mut setup_secs)?;
    out.layer.set(
        "jqos-net.admission.registrations_per_s",
        spec.flows as f64 / live.register_secs.max(1e-9),
    );

    // Half the time for each phase, in short trials: as many as fit, never
    // under the floor of three.
    let phase_secs = opts.seconds / 2.0;
    let sized = |trial_secs: f64| -> (usize, f64) {
        if opts.smoke {
            return (1, 0.3);
        }
        let trials = ((phase_secs / trial_secs) as usize).max(opts.repeats());
        (trials, trial_secs.min(phase_secs / trials as f64))
    };
    let (latency_trials, trial_secs) = sized(LATENCY_TRIAL_SECS);
    let (cost_trials, cost_trial_secs) = sized(COST_TRIAL_SECS);
    let mut trial_no = 0u64;
    let mut next_trial = || {
        trial_no += 1;
        trial_no
    };

    // Warm-up: page in both sides' buffers and the relay's rings.  Excluded
    // from every metric.
    fenced_trial(
        &mut live,
        spec,
        opts,
        next_trial(),
        0.1,
        spec.latency_pps,
        false,
    )?;

    // ---- Latency phase.
    let mut p50s = Vec::new();
    // One p99 per window of kept trials (coding answers one operation per
    // sixteen packets, so its trials are too small for a p99 each).
    let mut pools = P99Pools::default();
    let mut all_delays: Vec<f64> = Vec::new();
    let mut late: Vec<f64> = Vec::new();
    let mut decode_us: Vec<f64> = Vec::new();
    let mut wakeups_per_s = Vec::new();
    let (mut disturbed, mut discarded_failures) = (0u64, 0u64);
    let (mut unaccounted, mut drops_readable, mut laws_hold) = (0i64, true, true);
    let mut mismatched = 0u64;
    // Counter movements over all trials of both phases.
    let mut moved = ShardSnapshot::default();
    let phase_started = Instant::now();
    while p50s.len() < latency_trials {
        let (mut res, ledger) = fenced_trial(
            &mut live,
            spec,
            opts,
            next_trial(),
            trial_secs,
            spec.latency_pps,
            true,
        )?;
        match ledger.unaccounted() {
            Some(u) => unaccounted += u,
            None => drops_readable = false,
        }
        laws_hold &= relay_laws_hold(&ledger.delta);
        mismatched += res.mismatched;
        moved.merge(&ledger.delta);
        // A trial in which the kernel dropped at either socket (a vCPU
        // stalled for longer than the socket buffer lasts) is the host's
        // trial, not the relay's, and so is one with an operation that
        // failed: loopback loses nothing else and the relay answers all it
        // pulls (the laws above).  Such a trial is run again — until the
        // phase has taken twice its time, after which trials count as they
        // come, so that a failure that keeps repeating is reported.
        let in_budget = phase_started.elapsed().as_secs_f64() < 2.0 * phase_secs;
        if ledger.disturbed() || res.failed > 0 {
            disturbed += 1;
            if in_budget && !opts.smoke {
                discarded_failures += res.failed;
                continue;
            }
        }
        out.attempted += res.attempted;
        out.failed += res.failed + res.mismatched;
        res.delays_us.sort_by(f64::total_cmp);
        p50s.push(median(&res.delays_us));
        all_delays.extend_from_slice(&res.delays_us);
        pools.add(&res.delays_us);
        late.append(&mut res.late_us);
        decode_us.append(&mut res.decode_us);
        wakeups_per_s.push(ledger.delta.wakeups as f64 / trial_secs);
    }
    all_delays.sort_by(f64::total_cmp);
    out.e2e.set("delay_p50_us", lower_quartile(&p50s));
    // A run too short for one window (a smoke run) reports the highest
    // percentile its samples support, and says so.
    let p99s = pools.p99s();
    if p99s.is_empty() {
        out.notes
            .push("too few samples for a p99: highest supported percentile used".to_string());
        out.e2e.set("delay_p99_us", highest_supported(&all_delays));
    } else {
        out.e2e.set("delay_p99_us", least(p99s));
    }
    let p999_name = if spec.kind == Kind::Forward {
        "jqos-net.relay.delivery_p999_us"
    } else {
        "jqos-net.relay.recovery_p999_us"
    };
    out.layer
        .set(p999_name, percentile(&all_delays, 0.999).unwrap_or(0.0));
    late.sort_by(f64::total_cmp);
    out.layer.set(
        "jqos-net.gen.late_p99_us",
        percentile(&late, 0.99).unwrap_or_else(|| highest_supported(&late)),
    );
    out.layer.set(
        "jqos-net.gen.late_max_us",
        late.last().copied().unwrap_or(0.0),
    );
    out.layer
        .set("jqos-net.gen.disturbed_trials", disturbed as f64);
    out.layer
        .set("jqos-net.gen.delay_samples", all_delays.len() as f64);
    out.layer
        .set("jqos-net.client.decode_us", median(&decode_us));
    out.layer
        .set("jqos-net.relay.wakeups_per_s", median(&wakeups_per_s));

    // ---- Cost phase.
    let mut cpu_ns_per_pkt = Vec::new();
    let mut allocs_per_pkt = Vec::new();
    let mut alloc_bytes_per_pkt = Vec::new();
    let mut ctx_per_kpkt = Vec::new();
    let mut syscalls_per_pkt = Vec::new();
    let mut avg_batch = Vec::new();
    let mut drop_share = Vec::new();
    for _ in 0..cost_trials {
        alloc::set_enabled(opts.traced);
        let usage0 = procfs::usage_excluding(gen_tid);
        let (allocs0, bytes0) = alloc::snapshot();
        let (_, ledger) = fenced_trial(
            &mut live,
            spec,
            opts,
            next_trial(),
            cost_trial_secs,
            spec.cost_pps,
            false,
        )?;
        let usage = procfs::usage_excluding(gen_tid).since(&usage0);
        let (allocs1, bytes1) = alloc::snapshot();
        alloc::set_enabled(false);
        match ledger.unaccounted() {
            Some(u) => unaccounted += u,
            None => drops_readable = false,
        }
        laws_hold &= relay_laws_hold(&ledger.delta);
        moved.merge(&ledger.delta);
        let pkts = ledger.delta.datagrams_rx.max(1) as f64;
        cpu_ns_per_pkt.push(usage.cpu_ns as f64 / pkts);
        ctx_per_kpkt.push(usage.ctx_switches as f64 / pkts * 1e3);
        allocs_per_pkt.push((allocs1 - allocs0) as f64 / pkts);
        alloc_bytes_per_pkt.push((bytes1 - bytes0) as f64 / pkts);
        syscalls_per_pkt.push(ledger.delta.recv_syscalls as f64 / pkts);
        avg_batch.push(ledger.delta.avg_batch());
        drop_share.push(ledger.relay_drops.unwrap_or(0) as f64 / ledger.offered.max(1) as f64);
    }
    out.e2e.set("cost_ns_per_op", least(&cpu_ns_per_pkt));
    out.layer
        .set("jqos-net.relay.allocs_per_pkt", median(&allocs_per_pkt));
    out.layer.set(
        "jqos-net.relay.alloc_bytes_per_pkt",
        median(&alloc_bytes_per_pkt),
    );
    out.layer.set(
        "jqos-net.relay.ctx_switches_per_kpkt",
        median(&ctx_per_kpkt),
    );
    out.layer.set(
        "jqos-net.relay.recv_syscalls_per_pkt",
        median(&syscalls_per_pkt),
    );
    out.layer
        .set("jqos-net.relay.avg_batch", median(&avg_batch));
    out.layer
        .set("jqos-net.relay.kernel_drop_share", median(&drop_share));

    // The relay's memory under both loads, before the benchmark's own
    // extras (set-up repeats, diagnostics, probes) can raise the mark.
    out.e2e.set("peak_rss_mb", procfs::peak_rss_mib());

    // ---- Set-up, again: throwaway relays set up the same way and shut
    // down at once, for a second or a hundred of them.
    let setups_started = Instant::now();
    while !opts.smoke
        && (setup_secs.len() < MIN_SETUPS
            || (setup_secs.len() < MAX_SETUPS && setups_started.elapsed().as_secs_f64() < 1.0))
    {
        timed_setup(&mut setup_secs)?.shutdown();
    }
    // The median, for once: the wait for the control task's next poll is
    // spread evenly over its cycle, not a disturbance to see past.
    out.e2e.set("setup_s", median(&setup_secs));

    // ---- Counters over both phases.
    let d = &moved;
    out.layer
        .set("jqos-net.relay.queue_highwater", d.queue_highwater as f64);
    out.layer
        .set("jqos-net.relay.shed_queue_full", d.shed_queue_full as f64);
    out.layer
        .set("jqos-net.relay.shed_egress_full", d.shed_egress_full as f64);
    out.layer.set(
        "jqos-net.relay.shed_unknown_flow",
        d.shed_unknown_flow as f64,
    );
    out.layer
        .set("jqos-net.relay.malformed_rx", d.malformed_rx as f64);
    out.layer
        .set("jqos-net.relay.unaccounted", unaccounted as f64);
    out.layer.set(
        "jqos-net.relay.coding_resync_share",
        d.coding_resyncs as f64 / d.data_rx.max(1) as f64,
    );
    out.layer.set(
        "jqos-net.relay.recovery_miss_share",
        d.recovery_misses as f64 / d.nacks_rx.max(1) as f64,
    );
    out.layer
        .set("jqos-net.relay.cache_evicted", d.cache_evicted as f64);
    out.layer
        .set("jqos-net.relay.parity_evicted", d.parity_evicted as f64);

    out.gate("answers byte-equal to what was sent", mismatched == 0);
    out.gate(
        "relay conservation: rx = data + nacks + sheds, answers = tx + egress sheds",
        laws_hold,
    );
    if drops_readable {
        out.gate(
            "ingress conservation: offered = datagrams_rx + kernel drops",
            unaccounted == 0,
        );
    } else {
        out.notes.push(
            "/proc/net/udp unreadable: ingress conservation not checked, kernel drops unknown"
                .to_string(),
        );
    }
    out.notes.push(format!(
        "{} delay samples over {latency_trials} trials of {trial_secs:.2} s at {} pps, {} p99 window(s); \
         {cost_trials} cost trials of {cost_trial_secs:.2} s at {} pps; {} set-ups; \
         {disturbed} disturbed trial(s) with {discarded_failures} failed operation(s) run again",
        all_delays.len(),
        spec.latency_pps,
        p99s.len(),
        spec.cost_pps,
        setup_secs.len(),
    ));
    out.note_trials("per-trial delay p50 (us)", &p50s, 0);
    out.note_trials("per-window delay p99 (us)", p99s, 0);
    out.note_trials("per-trial cpu ns/pkt", &cpu_ns_per_pkt, 0);

    if opts.traced {
        let blast_secs = if opts.smoke { 0.3 } else { 2.0 };
        diagnostics(&mut live, spec, opts, &mut next_trial, blast_secs, &mut out)?;
        probes::relay_layers(name, &live_addrs(&live), opts, &mut out)?;
    }
    live.shutdown();
    affinity::pin(&cpus);
    Ok(out)
}

/// Addresses the admission probe needs.
pub struct RelayAddrs {
    pub control: SocketAddr,
    /// A flow id no registered flow uses.
    pub free_flow: u32,
}

fn live_addrs(live: &Live) -> RelayAddrs {
    RelayAddrs {
        control: live.control,
        free_flow: live.flow_base + live.next_seq.len() as u32 + 1,
    }
}

/// Traced runs only: relay throughput under overload and a zero-loss
/// ladder.  Diagnostics without a bound — on a shared two-vCPU guest both
/// are set by the scheduler (see README).
fn diagnostics(
    live: &mut Live,
    spec: &RelaySpec,
    opts: &RunOpts,
    next_trial: &mut dyn FnMut() -> u64,
    trial_secs: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let _s = trace::span("diagnostics");
    // Overload: datagrams from pre-encoded templates, as fast as one thread
    // can send.
    let mut pulled_pps = Vec::new();
    for _ in 0..opts.repeats() {
        let _s = trace::span("overload");
        let before = live.totals();
        let (drops_before, _) = kernel_drops(live);
        let t = Instant::now();
        let offered = blast(live, spec, opts.seed, trial_secs)?;
        let secs = t.elapsed().as_secs_f64();
        let after = settle(live, &before, drops_before, offered);
        pulled_pps.push((after.datagrams_rx - before.datagrams_rx) as f64 / secs);
    }
    let overload = median(&pulled_pps);
    out.layer.set("jqos-net.relay.overload_pps", overload);

    // RFC 2544-style ladder: step the paced rate down 10 % at a time from
    // the overload throughput (to an eighth of it at most) to the first rate
    // the relay carries with nothing dropped or shed and nothing
    // unaccounted; 0 if there is none.
    let mut zero_loss = 0.0;
    let mut rate = overload;
    for _ in 0..20 {
        let _s = trace::span("ladder");
        let pps = (rate as u64).max(1_000);
        let (res, ledger) = fenced_trial(
            live,
            spec,
            opts,
            next_trial(),
            trial_secs.min(0.5),
            pps,
            false,
        )?;
        let d = &ledger.delta;
        let lossless = ledger.relay_drops == Some(0)
            && d.shed_total() == 0
            && ledger.unaccounted() == Some(0)
            && relay_laws_hold(&ledger.delta);
        if lossless {
            // The rate actually offered, which a late generator lowers.
            zero_loss = res.offered as f64 / res.send_secs.max(1e-9);
            break;
        }
        rate *= 0.9;
    }
    out.layer.set("jqos-net.relay.zero_loss_pps", zero_loss);
    Ok(())
}

/// Sends pre-encoded datagrams round-robin over the flows for `secs`
/// seconds without pacing, patching only the sequence number.  Returns how
/// many were sent.
fn blast(live: &mut Live, spec: &RelaySpec, seed: u64, secs: f64) -> Result<u64, String> {
    live.sock
        .set_nonblocking(true)
        .map_err(|e| io_err("socket mode", e))?;
    let mut payload = vec![0u8; spec.payload];
    let templates: Vec<Vec<u8>> = (0..spec.flows as u32)
        .map(|idx| {
            let flow = live.flow_id(idx);
            let mut out = Vec::new();
            if spec.kind == Kind::NackStorm {
                wire::encode(&Msg::Nack { flow, seq: 0 }, &mut out);
            } else {
                rng::fill_payload(seed, flow, 0, &mut payload);
                wire::encode(
                    &Msg::Data {
                        flow,
                        seq: 0,
                        payload: &payload,
                    },
                    &mut out,
                );
            }
            out
        })
        .collect();
    let mut templates = templates;
    let ring = live.next_seq[0].max(1);
    let mut recv = vec![0u8; 65_536];
    let mut sent = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut i = 0usize;
    while Instant::now() < deadline {
        // Check the clock once per burst.
        for _ in 0..64 {
            let idx = i % spec.flows;
            let seq = if spec.kind == Kind::NackStorm {
                rng::mix(i as u64) % ring
            } else {
                let s = live.next_seq[idx];
                live.next_seq[idx] += 1;
                s
            };
            let t = &mut templates[idx];
            t[wire::SEQ_OFFSET..wire::SEQ_OFFSET + 8].copy_from_slice(&seq.to_be_bytes());
            if live.sock.send_to(t, live.shard).is_ok() {
                sent += 1;
            }
            i += 1;
        }
        // Keep the answers from piling up in the generator's socket.
        while live.sock.recv_from(&mut recv).is_ok() {}
    }
    Ok(sent)
}
