//! The `netload` harness: thousands of concurrent flows against the live
//! sharded relay, on loopback.
//!
//! For each configured shard count the harness stands up one [`Relay`] and a
//! fixed fleet of [`LoadWorker`] threads (the fleet size never changes with
//! the shard count, so runs are comparable), then measures two phases:
//!
//! 1. **Paced** — every admitted flow sends `packets_per_flow` timestamped
//!    packets at a fixed per-flow pace with deterministic direct-path loss
//!    injection, and the workers run the full recovery machinery (NACKs,
//!    cache recovery, parity reconstruction).  This phase yields delivery
//!    rates and per-service p50/p95/p99 delivery latency.
//! 2. **Blast** — the workers switch to open-loop overload: relay-bound
//!    datagrams as fast as the sockets accept them.  The relay's processed
//!    throughput is measured relay-side (`data_rx` delta over the
//!    wall-clock), with sheds counted by reason and the ingress-queue
//!    highwater recorded.
//!
//! A `BENCH_net_loadgen.json` document (schema `jqos.net_loadgen.v1`) is
//! written with one entry per shard count plus a scaling summary comparing
//! the best shard count against the single-shard baseline.
//!
//! On a single-core host the scaling signal comes from scheduler share, not
//! parallelism: the client fleet is fixed and saturating, so a relay with
//! more shard threads holds a larger fraction of the CPU and processes
//! proportionally more of the offered load (see `docs/BENCHMARKS.md`).
//!
//! `JQOS_QUICK=1` shrinks the run (fewer flows, shard counts 1–2) for CI.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use jqos_core::select::ServiceKind;
use jqos_net::{FlowSpec, FlowView, LoadWorker, Relay, RelayConfig, ShardSnapshot, WorkerStats};
use serde::Serialize;

use crate::harness::{quick_mode, section, write_json};

/// Latency budgets that steer admission onto each service under the
/// wide-area delay model (coding ≈ 115 ms, caching ≈ 95 ms, forwarding ≈
/// 90 ms estimated latencies).
const BUDGET_CODING_MS: u32 = 150;
const BUDGET_CACHING_MS: u32 = 100;
const BUDGET_FORWARDING_MS: u32 = 91;
/// A budget even forwarding cannot meet: rejected under strict admission.
const BUDGET_INFEASIBLE_MS: u32 = 60;

/// Harness configuration (sized by `JQOS_QUICK`).
pub struct NetloadConfig {
    /// Admissible flows, split round-robin across the three services.
    pub flows: usize,
    /// Additional flows registered with an infeasible budget (all rejected).
    pub infeasible: usize,
    /// Load-worker threads; fixed across shard counts for comparability.
    pub workers: usize,
    /// Shard counts to sweep.
    pub shard_counts: Vec<usize>,
    /// Paced-phase packets per flow.
    pub packets_per_flow: u32,
    /// Paced-phase inter-packet gap per flow.
    pub pace: Duration,
    /// Post-paced drain window for in-flight recoveries.
    pub drain: Duration,
    /// Blast-phase duration.
    pub blast: Duration,
    /// Data payload size in bytes.
    pub payload_len: usize,
}

impl NetloadConfig {
    /// Full-size run, or the CI-sized one under `JQOS_QUICK=1`.
    pub fn from_env() -> Self {
        if quick_mode() {
            NetloadConfig {
                flows: 120,
                infeasible: 12,
                workers: 3,
                shard_counts: vec![1, 2],
                packets_per_flow: 16,
                pace: Duration::from_millis(20),
                drain: Duration::from_millis(900),
                blast: Duration::from_millis(400),
                payload_len: 64,
            }
        } else {
            NetloadConfig {
                flows: 1056,
                infeasible: 48,
                workers: 4,
                shard_counts: vec![1, 2, 4],
                packets_per_flow: 24,
                pace: Duration::from_millis(25),
                drain: Duration::from_millis(2_000),
                blast: Duration::from_millis(1_500),
                payload_len: 64,
            }
        }
    }

    /// The flow spec for one flow id: services rotate over the id space so
    /// every worker drives a mix of all three, plus the infeasible tail.
    fn spec_for(&self, flow: u32) -> FlowSpec {
        if flow as usize >= self.flows {
            return FlowSpec {
                flow,
                budget_ms: BUDGET_INFEASIBLE_MS,
                loss_tolerant: false,
                drop_every: None,
            };
        }
        let (budget_ms, drop_every) = match flow % 3 {
            0 => (BUDGET_CODING_MS, Some(8)),
            1 => (BUDGET_CACHING_MS, Some(6)),
            _ => (BUDGET_FORWARDING_MS, None),
        };
        FlowSpec {
            flow,
            budget_ms,
            loss_tolerant: false,
            drop_every,
        }
    }
}

/// Per-service delivery-latency summary (milliseconds).
#[derive(Serialize)]
pub struct LatencySummary {
    /// Delivered packets sampled.
    pub count: usize,
    /// Mean delivery latency.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
}

impl LatencySummary {
    fn from_ns(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        let count = samples.len();
        let at = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let idx = ((count - 1) as f64 * q).round() as usize;
            samples[idx] as f64 / 1e6
        };
        let mean_ms = if count == 0 {
            0.0
        } else {
            samples.iter().map(|&s| s as f64).sum::<f64>() / count as f64 / 1e6
        };
        LatencySummary {
            count,
            mean_ms,
            p50_ms: at(0.50),
            p95_ms: at(0.95),
            p99_ms: at(0.99),
        }
    }
}

/// Paced-phase results (delivery + latency).
#[derive(Serialize)]
pub struct PacedReport {
    /// Packets sent across all admitted flows.
    pub sent: u64,
    /// Packets delivered (any path).
    pub delivered: u64,
    /// `delivered / sent`.
    pub delivery_rate: f64,
    /// Delivered via cache recovery.
    pub recovered: u64,
    /// Delivered via parity reconstruction.
    pub reconstructed: u64,
    /// NACKs the workers sent.
    pub nacks_sent: u64,
    /// Holes never recovered.
    pub holes_left: u64,
    /// Per-service latency summaries, keyed by service name.
    pub latency_ms: BTreeMap<String, LatencySummary>,
}

/// Blast-phase results (relay-side throughput under overload).
#[derive(Serialize)]
pub struct BlastReport {
    /// Datagrams the workers offered to the relay.
    pub offered: u64,
    /// Data packets the relay processed during the blast window.
    pub relay_data_rx: u64,
    /// Blast wall-clock.
    pub wall_ms: f64,
    /// `relay_data_rx / wall` — the headline processed-throughput number.
    pub throughput_pps: f64,
    /// Sheds counted during the whole run, by reason.
    pub shed_queue_full: u64,
    /// Malformed datagrams dropped at ingest.
    pub malformed_rx: u64,
    /// Datagrams for unregistered flows.
    pub shed_unknown_flow: u64,
    /// Egress datagrams dropped on a full socket buffer.
    pub shed_egress_full: u64,
    /// Deepest the bounded ingress queue ever got (≤ configured capacity).
    pub queue_highwater: u64,
    /// The configured ingress-queue bound, for the invariant check.
    pub queue_capacity: u64,
}

/// Relay-side totals for one shard-count run.
#[derive(Serialize)]
pub struct RelayTotals {
    /// Data packets processed.
    pub data_rx: u64,
    /// All datagrams pulled off shard sockets.
    pub datagrams_rx: u64,
    /// Datagrams written out.
    pub datagrams_tx: u64,
    /// Shard wakeups (trips around the shard loop with work).
    pub wakeups: u64,
    /// Mean datagrams ingested per wakeup (batching effectiveness).
    pub avg_batch: f64,
    /// Forwarding-service packets relayed.
    pub forwarded: u64,
    /// Caching-service packets cached.
    pub cached: u64,
    /// Coding batches encoded.
    pub batches_encoded: u64,
    /// Parity shards served in response to NACKs.
    pub parity_served: u64,
    /// Cache recoveries served.
    pub recoveries_served: u64,
    /// NACKs that found nothing (cache/parity miss).
    pub recovery_misses: u64,
    /// Coding accumulator restarts on sequence gaps.
    pub coding_resyncs: u64,
}

/// One shard count's full measurement.
#[derive(Serialize)]
pub struct ShardRun {
    /// Dataplane shard count.
    pub shards: usize,
    /// Flows admitted.
    pub admitted: u64,
    /// Flows rejected for an infeasible budget.
    pub rejected_budget: u64,
    /// Flows rejected because the target shard was full.
    pub rejected_shard_full: u64,
    /// Admitted flows per service.
    pub flows_per_service: BTreeMap<String, usize>,
    /// Paced-phase results.
    pub paced: PacedReport,
    /// Blast-phase results.
    pub blast: BlastReport,
    /// Relay totals at shutdown.
    pub relay: RelayTotals,
}

/// Throughput-scaling summary across shard counts.
#[derive(Serialize)]
pub struct Scaling {
    /// Shard count of the baseline entry (the smallest swept).
    pub baseline_shards: usize,
    /// Baseline processed throughput (packets/s).
    pub baseline_pps: f64,
    /// Shard count of the best entry.
    pub best_shards: usize,
    /// Best processed throughput (packets/s).
    pub best_pps: f64,
    /// `best_pps / baseline_pps`.
    pub speedup: f64,
}

/// The whole `jqos.net_loadgen.v1` document.
#[derive(Serialize)]
pub struct NetloadReport {
    /// Schema tag for downstream tooling.
    pub schema: &'static str,
    /// Whether this was a `JQOS_QUICK` run.
    pub quick_mode: bool,
    /// Admissible flows driven.
    pub flows: usize,
    /// Infeasible registrations on top.
    pub infeasible: usize,
    /// Load-worker threads (fixed across shard counts).
    pub workers: usize,
    /// Paced-phase packets per flow.
    pub packets_per_flow: u32,
    /// Paced-phase per-flow packet gap (ms).
    pub pace_ms: f64,
    /// Blast duration (ms).
    pub blast_ms: f64,
    /// Data payload bytes.
    pub payload_len: usize,
    /// One entry per swept shard count.
    pub shard_runs: Vec<ShardRun>,
    /// Cross-run scaling summary.
    pub scaling: Scaling,
}

/// What one worker thread hands back when it finishes.
struct WorkerOutcome {
    stats: WorkerStats,
    latencies: Vec<(ServiceKind, u64)>,
    views: Vec<FlowView>,
    offered: u64,
}

/// Runs the full sweep and writes `BENCH_net_loadgen.json`.
pub fn run_with(cfg: NetloadConfig) -> NetloadReport {
    section("net_loadgen: sharded relay under multi-flow loopback load");
    println!(
        "  {} flows (+{} infeasible) on {} workers; shard counts {:?}; {} pkts/flow @ {:?} pace; {:?} blast",
        cfg.flows, cfg.infeasible, cfg.workers, cfg.shard_counts, cfg.packets_per_flow, cfg.pace,
        cfg.blast
    );
    let mut shard_runs = Vec::new();
    for &shards in &cfg.shard_counts {
        shard_runs.push(run_one(&cfg, shards));
    }
    let baseline = &shard_runs[0];
    let best = shard_runs
        .iter()
        .max_by(|a, b| a.blast.throughput_pps.total_cmp(&b.blast.throughput_pps))
        .expect("at least one shard run");
    let scaling = Scaling {
        baseline_shards: baseline.shards,
        baseline_pps: baseline.blast.throughput_pps,
        best_shards: best.shards,
        best_pps: best.blast.throughput_pps,
        speedup: best.blast.throughput_pps / baseline.blast.throughput_pps.max(1e-9),
    };
    println!(
        "  scaling: {} shard(s) {:.0} pps -> {} shard(s) {:.0} pps ({:.2}x)",
        scaling.baseline_shards,
        scaling.baseline_pps,
        scaling.best_shards,
        scaling.best_pps,
        scaling.speedup
    );
    let report = NetloadReport {
        schema: "jqos.net_loadgen.v1",
        quick_mode: quick_mode(),
        flows: cfg.flows,
        infeasible: cfg.infeasible,
        workers: cfg.workers,
        packets_per_flow: cfg.packets_per_flow,
        pace_ms: cfg.pace.as_secs_f64() * 1e3,
        blast_ms: cfg.blast.as_secs_f64() * 1e3,
        payload_len: cfg.payload_len,
        shard_runs,
        scaling,
    };
    write_json("BENCH_net_loadgen", &report);
    report
}

/// Stands up a relay with `shards` shards, drives the full fleet through
/// registration, the paced phase, and the blast phase, and tears it down.
fn run_one(cfg: &NetloadConfig, shards: usize) -> ShardRun {
    println!("  --- {shards} shard(s) ---");
    let relay_cfg = RelayConfig {
        shards,
        ..RelayConfig::default()
    };
    let queue_capacity = relay_cfg.queue_capacity as u64;
    let mut relay =
        tokio::runtime::block_on(Relay::bind("127.0.0.1:0", relay_cfg)).expect("bind relay");
    relay.start();
    let control = relay.control_addr().expect("control addr");
    let epoch = Instant::now();
    // Four rendezvous: registered, paced-done, blast-start, blast-end.
    let barrier = Arc::new(Barrier::new(cfg.workers + 1));
    let total_flows = (cfg.flows + cfg.infeasible) as u32;
    let handles: Vec<thread::JoinHandle<WorkerOutcome>> = (0..cfg.workers)
        .map(|w| {
            let barrier = barrier.clone();
            let specs: Vec<FlowSpec> = (0..total_flows)
                .filter(|f| *f as usize % cfg.workers == w)
                .map(|f| cfg.spec_for(f))
                .collect();
            let (packets, pace, drain, blast) =
                (cfg.packets_per_flow, cfg.pace, cfg.drain, cfg.blast);
            let payload_len = cfg.payload_len;
            thread::spawn(move || {
                let mut worker = LoadWorker::new(control, epoch, payload_len).expect("bind worker");
                for spec in specs {
                    worker.add_flow(spec);
                }
                worker
                    .register(Duration::from_secs(30))
                    .expect("all flows resolved");
                barrier.wait();
                worker.run_paced(packets, pace, drain).expect("paced run");
                barrier.wait();
                barrier.wait();
                let offered = worker.blast(blast);
                barrier.wait();
                let views = worker
                    .flow_ids()
                    .into_iter()
                    .filter_map(|f| worker.flow_view(f))
                    .collect();
                WorkerOutcome {
                    stats: worker.stats(),
                    latencies: worker.take_latencies(),
                    views,
                    offered,
                }
            })
        })
        .collect();

    barrier.wait(); // all workers registered
    let reg_metrics = relay.metrics();
    let mut flows_per_service: BTreeMap<String, usize> = BTreeMap::new();
    for info in &reg_metrics.flows {
        *flows_per_service
            .entry(format!("{:?}", info.service).to_lowercase())
            .or_default() += 1;
    }
    println!(
        "    admitted {} flows ({:?}); rejected {} budget / {} capacity",
        reg_metrics.admitted,
        flows_per_service,
        reg_metrics.rejected_budget,
        reg_metrics.rejected_shard_full
    );

    barrier.wait(); // paced phase done
    let pre_blast = relay.metrics().totals();
    let blast_t0 = Instant::now();
    barrier.wait(); // blast starts
    barrier.wait(); // blast ends
    let wall = blast_t0.elapsed();
    let post_blast = relay.metrics().totals();
    let metrics = tokio::runtime::block_on(relay.shutdown());

    let outcomes: Vec<WorkerOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .collect();
    let paced = summarise_paced(&outcomes);
    println!(
        "    paced: {}/{} delivered ({:.4}), {} recovered, {} reconstructed, {} holes left",
        paced.delivered,
        paced.sent,
        paced.delivery_rate,
        paced.recovered,
        paced.reconstructed,
        paced.holes_left
    );

    let offered: u64 = outcomes.iter().map(|o| o.offered).sum();
    let relay_data_rx = post_blast.data_rx.saturating_sub(pre_blast.data_rx);
    let totals = metrics.totals();
    let blast = BlastReport {
        offered,
        relay_data_rx,
        wall_ms: wall.as_secs_f64() * 1e3,
        throughput_pps: relay_data_rx as f64 / wall.as_secs_f64().max(1e-9),
        shed_queue_full: totals.shed_queue_full,
        malformed_rx: totals.malformed_rx,
        shed_unknown_flow: totals.shed_unknown_flow,
        shed_egress_full: totals.shed_egress_full,
        queue_highwater: totals.queue_highwater,
        queue_capacity,
    };
    println!(
        "    blast: {} offered, {} processed in {:.0} ms -> {:.0} pps (queue highwater {}/{}, {} shed)",
        blast.offered,
        blast.relay_data_rx,
        blast.wall_ms,
        blast.throughput_pps,
        blast.queue_highwater,
        queue_capacity,
        totals.shed_total(),
    );
    assert!(
        totals.queue_highwater <= queue_capacity,
        "ingress queue exceeded its bound"
    );

    ShardRun {
        shards,
        admitted: metrics.admitted,
        rejected_budget: metrics.rejected_budget,
        rejected_shard_full: metrics.rejected_shard_full,
        flows_per_service,
        paced,
        blast,
        relay: relay_totals(&totals),
    }
}

fn summarise_paced(outcomes: &[WorkerOutcome]) -> PacedReport {
    let mut sent = 0u64;
    let mut delivered = 0u64;
    let mut recovered = 0u64;
    let mut reconstructed = 0u64;
    let mut nacks_sent = 0u64;
    let mut holes_left = 0u64;
    for o in outcomes {
        sent += o.stats.sent;
        delivered += o.stats.delivered;
        recovered += o.stats.recovered;
        reconstructed += o.stats.reconstructed;
        nacks_sent += o.stats.nacks_sent;
        holes_left += o.views.iter().map(|v| v.holes).sum::<u64>();
    }
    let mut by_service: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for o in outcomes {
        for (service, ns) in &o.latencies {
            by_service
                .entry(format!("{service:?}").to_lowercase())
                .or_default()
                .push(*ns);
        }
    }
    let latency_ms = by_service
        .into_iter()
        .map(|(k, v)| (k, LatencySummary::from_ns(v)))
        .collect();
    PacedReport {
        sent,
        delivered,
        delivery_rate: delivered as f64 / (sent as f64).max(1.0),
        recovered,
        reconstructed,
        nacks_sent,
        holes_left,
        latency_ms,
    }
}

fn relay_totals(t: &ShardSnapshot) -> RelayTotals {
    RelayTotals {
        data_rx: t.data_rx,
        datagrams_rx: t.datagrams_rx,
        datagrams_tx: t.datagrams_tx,
        wakeups: t.wakeups,
        avg_batch: t.avg_batch(),
        forwarded: t.forwarded,
        cached: t.cached,
        batches_encoded: t.batches_encoded,
        parity_served: t.parity_served,
        recoveries_served: t.recoveries_served,
        recovery_misses: t.recovery_misses,
        coding_resyncs: t.coding_resyncs,
    }
}
