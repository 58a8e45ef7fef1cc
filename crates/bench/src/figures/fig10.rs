//! Figure 10 — encoder throughput vs. number of encoding threads (§6.6).
//!
//! Benchmarks the most computationally expensive part of CR-WAN: generating
//! coded packets at DC1.  Streams are partitioned across encoder threads and
//! each thread runs the Reed–Solomon block code on 512-byte packets with one
//! coded packet per five data packets, exactly as in the paper's scalability
//! experiment.  The expected shape is linear scaling with thread count.
//!
//! The thread-count axis is expressed as a sweep grid, but the suite always
//! executes its points on a *single* worker: every point is itself
//! multi-threaded, and running two encoder configurations concurrently would
//! corrupt both throughput measurements.  For the same reason this is the one
//! suite whose point metrics (packets per second) are wall-clock derived and
//! therefore not byte-reproducible.

use crate::harness::{environment, section, sized, write_json, Environment};
use crate::json::json_struct;
use jqos_core::coding::engine::{EncodingEngine, EngineConfig};
use jqos_core::{ExperimentSuite, SweepGrid};
use netsim::stats::PointStats;

json_struct! {
    struct ScalingPoint {
        threads: usize,
        ingress_kpps: f64,
        egress_kpps: f64,
        speedup_vs_one_thread: f64,
    }
}

json_struct! {
    /// The `fig10_encoding_scaling.json` document.  Its data *is* timing, so
    /// it says which machine (and how many cores) drew it.
    struct ScalingReport {
        environment: Environment,
        points: Vec<ScalingPoint>,
    }
}

/// Runs the Figure 10 suite, always on one sweep worker (see module docs).
pub fn run() {
    let packets_per_thread = sized(400_000, 40_000) as u64;
    let max_threads = 8usize;

    section("Figure 10: encoding throughput vs. encoding threads");
    println!(
        "  {:>8} {:>16} {:>16} {:>10}",
        "threads", "ingress (Kpps)", "egress (Kpps)", "speedup"
    );

    let grid = SweepGrid::new().axis(
        (1..=max_threads)
            .map(|t| (format!("threads{t}"), t))
            .collect(),
    );
    let suite = ExperimentSuite::new("fig10", 0, grid, move |point| {
        let threads = point.payload;
        let engine = EncodingEngine::new(EngineConfig {
            threads,
            block_size: 5,
            parity: 1,
            packet_bytes: 512,
        });
        let report = engine.run(packets_per_thread * threads as u64);
        PointStats::new("")
            .metric("threads", threads as f64)
            .metric("ingress_kpps", report.ingress_pps() / 1_000.0)
            .metric("egress_kpps", report.egress_pps() / 1_000.0)
    });
    // One worker: each point saturates the machine's cores by itself.
    let out = suite.run(1);

    let mut points: Vec<ScalingPoint> = Vec::new();
    let mut base_kpps = 0.0;
    for p in out.report.points() {
        let threads = p.get_metric("threads").unwrap_or(1.0) as usize;
        let ingress_kpps = p.get_metric("ingress_kpps").unwrap_or(0.0);
        let egress_kpps = p.get_metric("egress_kpps").unwrap_or(0.0);
        if threads == 1 {
            base_kpps = ingress_kpps;
        }
        let speedup = if base_kpps > 0.0 {
            ingress_kpps / base_kpps
        } else {
            0.0
        };
        println!(
            "  {:>8} {:>16.1} {:>16.1} {:>9.2}x",
            threads, ingress_kpps, egress_kpps, speedup
        );
        points.push(ScalingPoint {
            threads,
            ingress_kpps,
            egress_kpps,
            speedup_vs_one_thread: speedup,
        });
    }

    println!(
        "  -> paper: ~65 Kpps per thread on a 2.4 GHz Xeon, ~500 Kpps with eight threads; \
         the absolute numbers differ with hardware, the linear shape is the claim"
    );
    let last = points.last().unwrap();
    println!(
        "  -> measured speedup at {} threads: {:.1}x",
        last.threads, last.speedup_vs_one_thread
    );

    // Context from the paper: one thread handles ~150 concurrent HD calls.
    let single_thread_pps = base_kpps * 1_000.0;
    let calls_per_thread = single_thread_pps / (1_500_000.0 / 8.0 / 512.0);
    println!("  -> at 1.5 Mbps / 512 B packets, one thread sustains ~{calls_per_thread:.0} concurrent calls (paper: ~150)");

    out.print_timing_summary();
    write_json(
        "fig10_encoding_scaling",
        &ScalingReport {
            environment: environment(),
            points,
        },
    );
}
