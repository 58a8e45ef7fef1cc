//! Figure 7 — feasibility of the J-QoS services (§6.1).
//!
//! * 7(a): CDF of end-to-end packet delivery latency for the direct Internet
//!   path and the forwarding / caching / coding services.
//! * 7(b): recovery delay as a fraction of the direct-path RTT for caching
//!   and coding.
//! * 7(c): CDF of end-host → nearest-DC latency (δ) for European receivers.
//! * 7(d): δ for northern-EU hosts against the DC generation serving them.
//!
//! The path population is swept as a grid of chunks: every point generates
//! its own slice of RIPE-Atlas-style paths from its point seed and also runs
//! a short caching-service scenario on its first path, cross-checking the
//! analytic recovery-latency formulas against the simulator.  Chunks execute
//! on the sweep worker threads, so this — the cheapest figure — is also the
//! quickest demonstration of the multi-core speedup and the deterministic
//! 1-thread replay.

use crate::harness::{run_suite, section, sized, write_json, Series};
use jqos_core::prelude::*;
use measurements::dc_history::northern_eu_delta_by_era;
use measurements::ripe::ripe_atlas_paths;
use netsim::stats::PointStats;

/// Runs the Figure 7 suite on `threads` sweep workers.
pub fn run(threads: usize, baseline: bool) {
    let chunks = sized(32, 8);
    let chunk_size = sized(6250, 512).div_ceil(chunks);
    let seed = 42;

    let grid = SweepGrid::new().axis((0..chunks).map(|c| (format!("chunk{c}"), c)).collect());
    let sim_packets = sized(400, 150) as u64;
    let sim_secs = sized(10, 4) as u64;
    let suite = ExperimentSuite::new("fig7", seed, grid, move |point| {
        let paths = ripe_atlas_paths(chunk_size, point.scenario_seed());
        let mut stats = PointStats::new("")
            .series("internet_ms", paths.iter().map(|p| p.y_ms).collect())
            .series(
                "forwarding_ms",
                paths.iter().map(|p| p.forwarding_ms()).collect(),
            )
            .series("caching_ms", paths.iter().map(|p| p.caching_ms()).collect())
            .series("coding_ms", paths.iter().map(|p| p.coding_ms()).collect())
            .series(
                "caching_frac",
                paths
                    .iter()
                    .map(|p| p.caching_recovery_fraction())
                    .collect(),
            )
            .series(
                "coding_frac",
                paths.iter().map(|p| p.coding_recovery_fraction()).collect(),
            )
            .series("delta_r_ms", paths.iter().map(|p| p.delta_r_ms).collect());

        // Simulator cross-check: a caching flow on the chunk's first path;
        // its measured recovery delays should agree with the analytic
        // `caching_recovery_fraction` curve of 7(b).
        let p = &paths[0];
        let topology = Topology::lossless(
            Dur::from_millis_f64(p.y_ms),
            Dur::from_millis_f64(p.delta_s_ms),
            Dur::from_millis_f64(p.x_ms),
            Dur::from_millis_f64(p.delta_r_ms),
        )
        .internet_loss(LossSpec::Bernoulli(0.02));
        let report = Scenario::new(point.scenario_seed())
            .with_topology(topology)
            .add_flow(
                ServiceKind::Caching,
                Box::new(CbrSource::new(Dur::from_millis(20), 400, sim_packets)),
            )
            .run(Dur::from_secs(sim_secs));
        let flow = &report.flows[0];
        stats = stats
            .metric("sim_recovery_rate", flow.recovery_rate())
            .series("sim_caching_frac", flow.recovery_delay_rtt_fractions());
        stats
    });
    let (out, _) = run_suite(&suite, threads, baseline);

    section("Figure 7(a): end-to-end delivery latency (ms)");
    let fig7a = vec![
        Series::from_samples("Internet", out.report.merged_samples("internet_ms")),
        Series::from_samples("Forwarding", out.report.merged_samples("forwarding_ms")),
        Series::from_samples("Caching", out.report.merged_samples("caching_ms")),
        Series::from_samples("Coding", out.report.merged_samples("coding_ms")),
    ];
    for s in &fig7a {
        s.print_row();
    }
    let coding_p95 = fig7a[3]
        .percentiles
        .iter()
        .find(|(q, _)| *q == 0.95)
        .unwrap()
        .1;
    println!("  -> coding p95 = {coding_p95:.1} ms (paper: caching/coding within 150 ms for 95% of paths)");
    write_json("fig7a_delivery_latency", &fig7a);

    section("Figure 7(b): recovery delay / RTT");
    let fig7b = vec![
        Series::from_samples("Caching", out.report.merged_samples("caching_frac")),
        Series::from_samples("Coding", out.report.merged_samples("coding_frac")),
        Series::from_samples(
            "Caching (sim)",
            out.report.merged_samples("sim_caching_frac"),
        ),
    ];
    for s in &fig7b {
        s.print_row();
    }
    let frac = |series: &Series, x: f64| {
        series
            .cdf
            .iter()
            .filter(|(v, _)| *v <= x)
            .map(|(_, f)| *f)
            .fold(0.0, f64::max)
    };
    println!(
        "  -> caching within 0.25 RTT: {:.0}%   coding within 0.25 RTT: {:.0}% (paper: ~70% vs ~10%)",
        frac(&fig7b[0], 0.25) * 100.0,
        frac(&fig7b[1], 0.25) * 100.0
    );
    let sim_rates = out.report.metric_series("sim_recovery_rate");
    println!(
        "  -> simulator cross-check: {} caching scenarios, mean recovery rate {:.2}",
        sim_rates.len(),
        sim_rates.iter().sum::<f64>() / sim_rates.len().max(1) as f64
    );
    write_json("fig7b_recovery_fraction", &fig7b);

    section("Figure 7(c): end host to DC latency δ (ms), European receivers");
    let deltas = out.report.merged_samples("delta_r_ms");
    let fig7c = Series::from_samples("Europe", deltas.clone());
    fig7c.print_row();
    let below10 = deltas.iter().filter(|d| **d < 10.0).count() as f64 / deltas.len() as f64;
    let above20 = deltas.iter().filter(|d| **d > 20.0).count() as f64 / deltas.len() as f64;
    println!(
        "  -> {:.0}% of paths have δ < 10 ms, {:.0}% have δ > 20 ms (paper: 55% and 15%)",
        below10 * 100.0,
        above20 * 100.0
    );
    write_json("fig7c_delta", &fig7c);

    section("Figure 7(d): δ to the nearest DC for northern-EU hosts, by era");
    let eras = northern_eu_delta_by_era(sized(2000, 300), seed);
    let fig7d: Vec<Series> = eras
        .iter()
        .map(|(era, samples)| Series::from_samples(era.label(), samples.clone()))
        .collect();
    for s in &fig7d {
        s.print_row();
    }
    write_json("fig7d_delta_by_era", &fig7d);
}
