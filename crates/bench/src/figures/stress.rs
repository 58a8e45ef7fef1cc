//! Netsim scheduler stress: the reworked hot loop against its own heap
//! backend, with the seed engine's throughput as a recorded constant.
//!
//! Runs the large-topology stress scenario of [`crate::stress`] twice,
//! timing each whole run and reporting events per second:
//!
//! 1. **heap backend** — the engine pinned to `QueueKind::Heap`, an ablation
//!    isolating the calendar queue's contribution from the slab / link-table
//!    / cancel-bitset improvements.
//! 2. **calendar backend** — the engine's default scheduler.
//!
//! Both runs must produce byte-identical [`StressReport`]s, and the calendar
//! run is repeated with intra-point parallelism enabled to assert
//! thread-count independence.  The pre-rework seed engine (`BinaryHeap`
//! sifting full event payloads, `HashMap` routes, `HashSet` timer
//! cancellation) is no longer in the tree: the pinned digests below *are*
//! its output, and its full-size timing is carried in the `seed` block of
//! `BENCH_sweep_stress.json` as a recorded constant so `speedup_vs_seed`
//! keeps its meaning.

use std::time::Instant;

use crate::harness::{environment, quick_mode, section, write_json, Environment};
use crate::stress::{run_stress, StressConfig, StressReport};
use netsim::prelude::QueueKind;
use serde::Serialize;

/// Master seed of the published run; the committed digests are reproducible
/// from it.
const MASTER_SEED: u64 = 0x4A51_6F53_5354_5253; // "JQoSSTRS"

/// Digest of the quick-size run — every engine this scenario ever ran on,
/// the seed engine included, produced it.
const QUICK_DIGEST: u64 = 0x95be_bfbf_c42f_73d8;

/// Digest of the full-size run (likewise).
const FULL_DIGEST: u64 = 0xa2d8_9326_913b_0ccc;

/// The seed engine's full-size run, as last measured before its replica was
/// deleted: wall-clock milliseconds and events per second.
const SEED_WALL_MS: f64 = 25_025.8;
const SEED_EVENTS_PER_SEC: f64 = 485_001.5;

/// Worker count of the parallel replay check.
const REPLAY_THREADS: usize = 2;

#[derive(Serialize)]
struct TopologyInfo {
    groups: usize,
    clients_per_group: usize,
    pings_per_tick: usize,
    tick_ms: u64,
    duration_ms: u64,
}

#[derive(Serialize)]
struct EngineTiming {
    engine: &'static str,
    wall_ms: f64,
    events_per_sec: f64,
    /// `true` for a constant carried over from an earlier run rather than
    /// measured by this one.
    recorded: bool,
}

#[derive(Serialize)]
struct Report {
    /// The machine the wall-clocks below were taken on.
    environment: Environment,
    quick_mode: bool,
    /// Master seed, hex (a string: the vendored serde_json narrows big
    /// integers through f64).
    master_seed: String,
    topology: TopologyInfo,
    /// Events processed per full run (identical across engines).
    events_processed: u64,
    messages_sent: u64,
    messages_delivered: u64,
    messages_dropped_loss: u64,
    timers_fired: u64,
    /// FNV-1a digest of the run, hex; identical for every engine and
    /// thread count below.
    digest: String,
    /// The pre-rework engine's full-size run (recorded, not re-measured).
    seed: EngineTiming,
    /// The engine pinned to its `BinaryHeap` backend (ablation).
    heap: EngineTiming,
    /// The engine on the calendar queue (default).
    calendar: EngineTiming,
    /// `calendar.events_per_sec / seed.events_per_sec` (the rework's target
    /// was >= 5x at full size).
    speedup_vs_seed: f64,
    /// `calendar.events_per_sec / heap.events_per_sec` — scheduler-only
    /// ablation.
    speedup_calendar_vs_heap: f64,
    /// Whether both backends produced byte-identical reports.
    replay_identical_across_engines: bool,
    /// Whether 1-thread and N-thread calendar runs were byte-identical.
    replay_identical_across_threads: bool,
    /// Worker count of the parallel replay check.
    replay_threads: usize,
}

fn timed(cfg: &StressConfig, intra_threads: usize) -> (StressReport, f64) {
    let start = Instant::now();
    let report = run_stress(cfg, MASTER_SEED, intra_threads);
    (report, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs the stress figure.  Each run is timed alone, so there is no sweep
/// worker count to choose.
pub fn run() {
    let cfg = StressConfig::sized(quick_mode());
    section("netsim scheduler stress: heap backend vs calendar queue");
    println!(
        "  topology: {} groups x {} clients, {} pings/tick every {} ms for {} ms",
        cfg.groups,
        cfg.clients_per_group,
        cfg.pings_per_tick,
        cfg.tick.as_millis_f64(),
        cfg.duration.as_millis_f64(),
    );

    let (heap_report, heap_ms) = timed(&cfg.with_queue(QueueKind::Heap), 1);
    let (cal_report, cal_ms) = timed(&cfg.with_queue(QueueKind::Calendar), 1);

    let events = cal_report.events_processed;
    let eps = |ms: f64| events as f64 / (ms / 1e3).max(1e-9);
    let (heap_eps, cal_eps) = (eps(heap_ms), eps(cal_ms));
    let speedup_vs_seed = cal_eps / SEED_EVENTS_PER_SEC;
    let speedup_vs_heap = cal_eps / heap_eps.max(1e-9);
    println!(
        "  seed     {SEED_WALL_MS:>9.1} ms  {SEED_EVENTS_PER_SEC:>12.0} events/s  (pre-rework engine, full size, recorded)"
    );
    println!("  heap     {heap_ms:>9.1} ms  {heap_eps:>12.0} events/s  (heap backend)");
    println!(
        "  calendar {cal_ms:>9.1} ms  {cal_eps:>12.0} events/s  \
         {speedup_vs_seed:.2}x vs seed, {speedup_vs_heap:.2}x vs heap backend"
    );

    let engines_identical = heap_report == cal_report;
    assert!(
        engines_identical,
        "backends diverged (digests heap {:#018x} / calendar {:#018x})",
        heap_report.digest, cal_report.digest
    );
    let golden = if quick_mode() {
        QUICK_DIGEST
    } else {
        FULL_DIGEST
    };
    assert_eq!(
        cal_report.digest, golden,
        "stress digest {:#018x} left the golden value {golden:#018x}",
        cal_report.digest
    );

    // Replay the calendar run with intra-point parallelism on; the report
    // must not change.  (On a single-core host the workers time-slice, which
    // is exactly why correctness cannot depend on the thread count.)
    let (par_report, _) = timed(&cfg.with_queue(QueueKind::Calendar), REPLAY_THREADS);
    let threads_identical = par_report == cal_report;
    assert!(
        threads_identical,
        "stress run diverged between 1 and {REPLAY_THREADS} intra-point threads"
    );
    println!(
        "  replay: backends identical, {REPLAY_THREADS}-thread replay identical, golden digest {:#018x}",
        cal_report.digest
    );
    assert_eq!(
        cal_report.messages_sent, cal_report.messages_delivered,
        "drained stress run must conserve messages"
    );

    write_json(
        "BENCH_sweep_stress",
        &Report {
            environment: environment(),
            quick_mode: quick_mode(),
            master_seed: format!("{MASTER_SEED:#018x}"),
            topology: TopologyInfo {
                groups: cfg.groups,
                clients_per_group: cfg.clients_per_group,
                pings_per_tick: cfg.pings_per_tick,
                tick_ms: cfg.tick.as_millis_f64() as u64,
                duration_ms: cfg.duration.as_millis_f64() as u64,
            },
            events_processed: events,
            messages_sent: cal_report.messages_sent,
            messages_delivered: cal_report.messages_delivered,
            messages_dropped_loss: cal_report.messages_dropped_loss,
            timers_fired: cal_report.timers_fired,
            digest: format!("{:#018x}", cal_report.digest),
            seed: EngineTiming {
                engine: "seed_binary_heap",
                wall_ms: SEED_WALL_MS,
                events_per_sec: SEED_EVENTS_PER_SEC,
                recorded: true,
            },
            heap: EngineTiming {
                engine: "rework_heap_backend",
                wall_ms: heap_ms,
                events_per_sec: heap_eps,
                recorded: false,
            },
            calendar: EngineTiming {
                engine: "rework_calendar",
                wall_ms: cal_ms,
                events_per_sec: cal_eps,
                recorded: false,
            },
            speedup_vs_seed,
            speedup_calendar_vs_heap: speedup_vs_heap,
            replay_identical_across_engines: engines_identical,
            replay_identical_across_threads: threads_identical,
            replay_threads: REPLAY_THREADS,
        },
    );
}
