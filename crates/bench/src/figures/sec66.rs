//! §6.6 — deployment cost and coding overhead.
//!
//! Two parts:
//!
//! 1. the back-of-the-envelope cost comparison between forwarding and coding
//!    for 150 concurrent Skype-scale sessions (the paper's "$17.60/hour vs
//!    $1.10/hour, 16×" result), and
//! 2. the controlled Emulab-style experiment with 20 concurrent streams and
//!    `r = 2/20` (10 % overhead), which the paper reports recovers more than
//!    92 % of lost packets — swept over three replicate seeds on the worker
//!    threads so the reported overhead is not a single-realisation artefact.

use crate::harness::{run_suite, section, sized, write_json};
use crate::json::json_struct;
use jqos_core::prelude::*;
use netsim::stats::PointStats;

json_struct! {
    struct CostRow {
        service: String,
        bandwidth_per_hour: f64,
        compute_per_hour: f64,
        total_per_hour: f64,
    }
}

json_struct! {
    struct OverheadResult {
        streams: usize,
        replicates: usize,
        coding_rate: f64,
        recovery_rate: f64,
        coded_byte_overhead: f64,
    }
}

/// Runs the §6.6 suite on `threads` sweep workers.
pub fn run(threads: usize, baseline: bool) {
    section("§6.6: hourly cost of serving 150 concurrent Skype calls");
    let model = CostModel::default();
    let workload = WorkloadProfile::skype_calls(150);
    let coding_rate = 1.0 / 16.0;

    let mut rows = Vec::new();
    for service in [
        ServiceKind::InternetOnly,
        ServiceKind::Coding,
        ServiceKind::Caching,
        ServiceKind::Forwarding,
    ] {
        let est = model.estimate(service, workload, coding_rate, 1.0);
        rows.push(CostRow {
            service: service.to_string(),
            bandwidth_per_hour: est.bandwidth_per_hour,
            compute_per_hour: est.compute_per_hour,
            total_per_hour: est.total_per_hour(),
        });
    }
    println!(
        "  {:<14} {:>16} {:>14} {:>12}",
        "service", "bandwidth $/h", "compute $/h", "total $/h"
    );
    for r in &rows {
        println!(
            "  {:<14} {:>16.2} {:>14.2} {:>12.2}",
            r.service, r.bandwidth_per_hour, r.compute_per_hour, r.total_per_hour
        );
    }
    let ratio = model.forwarding_to_coding_ratio(workload, coding_rate);
    println!("  -> forwarding / coding bandwidth cost ratio: {ratio:.1}x (paper: 16x)");
    write_json("sec66_cost_table", &rows);

    section("§6.6: coding overhead with 20 concurrent streams (r = 2/20)");
    let duration = Dur::from_secs(sized(120, 40) as u64);
    let streams = 20usize;
    let replicates = sized(3, 2);
    let coding = CodingParams::emulab_20_streams();

    let grid = SweepGrid::new().replicates(replicates);
    let suite = ExperimentSuite::new("sec66", 66, grid, move |point| {
        let mut scenario = Scenario::new(point.scenario_seed())
            .with_topology(workloads::web::google_study_topology())
            .with_coding(coding);
        for i in 0..streams {
            // Every stream sees the Google burst-loss process on its own path.
            scenario = scenario.add_flow_with_path(
                ServiceKind::Coding,
                Box::new(CbrSource::new(
                    Dur::from_millis(20),
                    512,
                    (duration.as_secs_f64() * 50.0) as u64,
                )),
                LinkSpec::symmetric(Dur::from_millis(95 + (i as u64 % 5))).loss(
                    LossSpec::GoogleBurst {
                        p_first: 0.01,
                        p_next: 0.5,
                    },
                ),
            );
        }
        let report = scenario.run(duration + Dur::from_secs(2));
        let lost: usize = report.flows.iter().map(|f| f.lost_on_direct()).sum();
        let recovered: usize = report.flows.iter().map(|f| f.recovered()).sum();
        PointStats::new("")
            .metric("lost", lost as f64)
            .metric("recovered", recovered as f64)
            .metric("coded_byte_overhead", report.coding_overhead())
    });
    let (out, _) = run_suite(&suite, threads, baseline);

    let lost: f64 = out.report.metric_series("lost").iter().sum();
    let recovered: f64 = out.report.metric_series("recovered").iter().sum();
    let recovery_rate = if lost == 0.0 { 1.0 } else { recovered / lost };
    let overheads = out.report.metric_series("coded_byte_overhead");
    let overhead = overheads.iter().sum::<f64>() / overheads.len().max(1) as f64;
    println!(
        "  streams: {streams} x {replicates} replicates   lost on direct paths: {lost}   recovered: {recovered} ({:.1}%)",
        recovery_rate * 100.0
    );
    println!(
        "  coded-byte overhead on the inter-DC path: {:.1}% (paper: ~10% for >92% recovery)",
        overhead * 100.0
    );
    write_json(
        "sec66_overhead",
        &OverheadResult {
            streams,
            replicates,
            coding_rate: coding.cross_rate(),
            recovery_rate,
            coded_byte_overhead: overhead,
        },
    );
}
