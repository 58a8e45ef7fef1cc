//! §6.5 — the mobile-networks case study.
//!
//! Answers the three feasibility questions the paper asks about running
//! CR-WAN from a cellular device:
//!
//! 1. does duplicating the stream to the cloud fit within typical LTE uplink
//!    bandwidth (2–5 Mbps)?
//! 2. what does duplication cost in battery terms?
//! 3. do the higher and more variable latencies to the nearest DC still allow
//!    useful recovery?
//!
//! The bandwidth and battery parts are closed-form; the third question runs
//! the video workload over both LTE profiles as a two-point sweep grid.

use crate::harness::{run_suite, section, sized, write_json};
use crate::json::json_struct;
use jqos_core::prelude::*;
use netsim::stats::PointStats;
use workloads::mobile::MobileProfile;
use workloads::video::{VideoConfig, VideoSource};

json_struct! {
    struct MobileReport {
        uplink_mbps: f64,
        duplication_fits_hd: bool,
        duplication_headroom_mbps: f64,
        battery_cost_20min_call_mah: f64,
        median_dc_rtt_ms: f64,
        p90_dc_rtt_ms: f64,
        recovery_rate: f64,
        recovery_p95_ms: f64,
    }
}

/// Runs the §6.5 suite on `threads` sweep workers.
pub fn run(threads: usize, baseline: bool) {
    section("§6.5: duplication bandwidth feasibility");
    let profiles = [
        ("typical LTE (5 Mbps up)", MobileProfile::lte_typical()),
        (
            "constrained LTE (2 Mbps up)",
            MobileProfile::lte_constrained(),
        ),
    ];
    for (label, p) in &profiles {
        let fits = p.duplication_fits(VideoConfig::HD_RECOMMENDED_BPS);
        println!(
            "  {:<28} duplicated HD call needs {:.1} Mbps -> {}",
            label,
            2.0 * VideoConfig::HD_RECOMMENDED_BPS as f64 / 1e6,
            if fits {
                "fits"
            } else {
                "does NOT fit (use selective duplication)"
            }
        );
    }

    section("§6.5: battery cost of duplication (20-minute call)");
    let lte = MobileProfile::lte_typical();
    let cost = lte.duplication_battery_cost_mah(VideoConfig::HD_RECOMMENDED_BPS, 20.0);
    println!(
        "  extra battery for duplicating a 1.5 Mbps call for 20 min: {cost:.1} mAh (paper: ~20 mAh total drain, difference negligible)"
    );

    section("§6.5: recovery over cellular latencies");
    let call_secs = sized(120, 50) as u64;
    let duration = Dur::from_secs(call_secs);

    let grid = SweepGrid::new().axis(vec![
        ("lte_typical", MobileProfile::lte_typical()),
        ("lte_constrained", MobileProfile::lte_constrained()),
    ]);
    let suite = ExperimentSuite::new("sec65", 65, grid, move |point| {
        let topology = point.payload.topology(LossSpec::Compound(vec![
            LossSpec::bursty(0.01, 4.0),
            LossSpec::Outage(vec![(
                Time::from_secs(call_secs / 2),
                Time::from_secs(call_secs / 2 + 10),
            )]),
        ]));
        let mut scenario = Scenario::new(point.scenario_seed())
            .with_topology(topology)
            .with_coding(CodingParams::skype_case_study())
            .add_flow(
                ServiceKind::Coding,
                Box::new(VideoSource::new(VideoConfig::skype_call_with_fec(duration))),
            );
        for _ in 0..3 {
            scenario = scenario.add_flow_with_path(
                ServiceKind::Coding,
                Box::new(VideoSource::new(VideoConfig::background_200kbps(duration))),
                LinkSpec::symmetric(Dur::from_millis(70)).loss(LossSpec::Bernoulli(0.002)),
            );
        }
        let report = scenario.run(duration + Dur::from_secs(2));
        let flow = &report.flows[0];
        let mut delays = netsim::stats::Cdf::from_samples(flow.recovery_delays_ms.clone());
        PointStats::new("")
            .metric("lost_on_direct", flow.lost_on_direct() as f64)
            .metric("recovered", flow.recovered() as f64)
            .metric("recovery_rate", flow.recovery_rate())
            .metric("recovery_p95_ms", delays.quantile(0.95).unwrap_or(0.0))
    });
    let (out, _) = run_suite(&suite, threads, baseline);

    for (i, (label, _)) in profiles.iter().enumerate() {
        let p = &out.report.points()[i];
        println!(
            "  {:<28} direct-path losses: {}   recovered: {} ({:.0}%)   recovery p95: {:.0} ms",
            label,
            p.get_metric("lost_on_direct").unwrap_or(0.0) as u64,
            p.get_metric("recovered").unwrap_or(0.0) as u64,
            p.get_metric("recovery_rate").unwrap_or(0.0) * 100.0,
            p.get_metric("recovery_p95_ms").unwrap_or(0.0)
        );
    }
    println!(
        "  -> recovery remains feasible despite 50-100 ms cellular RTTs to the DC, as the paper observes"
    );

    let typical = &out.report.points()[0];
    let report = MobileReport {
        uplink_mbps: lte.uplink_bps as f64 / 1e6,
        duplication_fits_hd: lte.duplication_fits(VideoConfig::HD_RECOMMENDED_BPS),
        duplication_headroom_mbps: lte.duplication_headroom_bps(VideoConfig::HD_RECOMMENDED_BPS)
            as f64
            / 1e6,
        battery_cost_20min_call_mah: cost,
        median_dc_rtt_ms: lte.median_dc_latency.as_millis_f64() * 2.0,
        p90_dc_rtt_ms: lte.p90_dc_latency.as_millis_f64() * 2.0,
        recovery_rate: typical.get_metric("recovery_rate").unwrap_or(0.0),
        recovery_p95_ms: typical.get_metric("recovery_p95_ms").unwrap_or(0.0),
    };
    write_json("sec65_mobile", &report);
}
