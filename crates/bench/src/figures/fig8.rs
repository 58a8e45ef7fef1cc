//! Figure 8 — CR-WAN's wide-area performance (§6.2).
//!
//! Replays the PlanetLab deployment on the synthetic 45-path set: for every
//! path, six concurrent CBR flows (the measured path plus five companions
//! that share the ingress DC) run the coding service with the deployment
//! parameters `r = 2/6`, `s = 1/5`.  The sweep grid is
//! `path × {2, 1} cross-stream coded packets` — ninety independent scenario
//! points executed on the worker threads.  The run produces:
//!
//! * 8(a) — CCDF of per-path recovery success rate;
//! * 8(b) — loss-episode contribution (random / multi-packet / outage) on
//!   paths with > 80 % recovery;
//! * 8(c) — percentage increase in recovery vs. on-path FEC at 20 / 40 /
//!   100 % overhead (what-if replay of the same delivery traces);
//! * 8(d) — recovery time as a fraction of the direct-path RTT, by region;
//! * 8(e) — percentage increase in recovery with 2 vs. 1 cross-stream coded
//!   packets per batch.
//!
//! Simulated time is compressed relative to the month-long deployment: ON/OFF
//! periods are scaled down 60× and outages recur every ~60 s instead of every
//! ~10 minutes, which preserves the per-packet loss structure while keeping
//! the run short.

use std::collections::BTreeMap;

use crate::harness::{run_suite, section, sized, write_json, Series};
use crate::json::json_struct;
use jqos_core::coding::fec_whatif::{crwan_cloud_recovery, fec_on_path, percent_increase};
use jqos_core::nodes::receiver::DeliveryMethod;
use jqos_core::prelude::*;
use measurements::planetlab::{planetlab_paths, PlanetLabPath};
use netsim::stats::PointStats;
use workloads::cbr::OnOffCbrSource;

json_struct! {
    struct PathResult {
        index: usize,
        region: String,
        rtt_ms: f64,
        loss_rate: f64,
        lost_on_direct: usize,
        recovered: usize,
        recovery_rate: f64,
        episode_contribution: (f64, f64, f64),
        recovery_delay_fractions: Vec<f64>,
        fec_increase_20: f64,
        fec_increase_40: f64,
        fec_increase_100: f64,
    }
}

/// Runs one path with the given number of cross-stream coded packets and
/// returns the measured flow's report.
fn run_path(path: &PlanetLabPath, cross_parity: usize, duration: Dur, seed: u64) -> FlowReport {
    // Compress the outage recurrence so a bounded run still sees outages.
    let internet_loss = {
        let bursty = LossSpec::bursty(path.loss_rate, path.mean_burst);
        if path.has_outages {
            LossSpec::Compound(vec![
                bursty,
                LossSpec::PeriodicOutage {
                    // Anchor the first outage inside the first ON interval so
                    // a bounded run observes at least one outage per path.
                    first: Time::from_secs(2),
                    period: Dur::from_secs(61),
                    duration: Dur::from_millis_f64(path.outage_secs * 1_000.0),
                },
            ])
        } else {
            bursty
        }
    };
    let topology = Topology::lossless(
        Dur::from_millis_f64(path.y_ms),
        Dur::from_millis_f64(path.delta_s_ms),
        Dur::from_millis_f64(path.x_ms),
        Dur::from_millis_f64(path.delta_r_ms),
    )
    .sender_access_loss(path.sender_access_loss_spec())
    // Receivers' access links also drop the occasional packet, which is what
    // turns cooperating receivers into stragglers (§4.2).
    .receiver_access_loss(LossSpec::Bernoulli(0.004));

    let coding = CodingParams {
        cross_parity,
        ..CodingParams::planetlab_defaults()
    };

    let mut scenario = Scenario::new(seed)
        .with_topology(topology)
        .with_coding(coding)
        // The measured path.
        .add_flow_with_path(
            ServiceKind::Coding,
            Box::new(OnOffCbrSource::scaled(60, 3)),
            LinkSpec::symmetric(Dur::from_millis_f64(path.y_ms)).loss(internet_loss),
        );
    // Five companion flows sharing DC1/DC2, each over its own mildly lossy
    // direct path (they supply the cross-stream diversity).
    for i in 0..5 {
        scenario = scenario.add_flow_with_path(
            ServiceKind::Coding,
            Box::new(OnOffCbrSource::scaled(60, 3)),
            LinkSpec::symmetric(Dur::from_millis_f64(path.y_ms * (0.8 + 0.1 * i as f64)))
                .loss(LossSpec::bursty(0.002, 3.0)),
        );
    }
    let report = scenario.run(duration);
    report.flows[0].clone()
}

/// Runs the Figure 8 suite on `threads` sweep workers.
pub fn run(threads: usize, baseline: bool) {
    let paths = planetlab_paths(2020);
    let n_paths = sized(paths.len(), 8);
    let paths: Vec<PlanetLabPath> = paths.into_iter().take(n_paths).collect();
    let duration = Dur::from_secs(sized(200, 60) as u64);
    let seed = 7;

    // Grid: every PlanetLab path (seed axis, one seed per path) crossed with
    // the straggler-protection ablation (2 vs 1 coded packets per batch).
    let grid = SweepGrid::new()
        .seeds(paths.iter().map(|p| p.index as u64))
        .axis(vec![("cross2", 2usize), ("cross1", 1)]);
    let runner_paths = paths.clone();
    let suite = ExperimentSuite::new("fig8", seed, grid, move |point| {
        let path = &runner_paths[point.seed_idx];
        // paired_seed, not scenario_seed: the cross2 and cross1 variants of
        // the same path must replay the identical loss realisation so 8(e)
        // measures the straggler-protection effect, not seed noise.
        let report = run_path(path, point.payload, duration, point.paired_seed());

        // Direct-path delivery flags for the what-if FEC replay.
        let direct_flags: Vec<bool> = report
            .packets
            .iter()
            .map(|p| p.method == Some(DeliveryMethod::Direct))
            .collect();
        let crwan_whatif = crwan_cloud_recovery(&direct_flags, None);
        let (r, m, o) = report.episode_breakdown.contribution();
        PointStats::new("")
            .metric("sent", report.sent() as f64)
            .metric("lost_on_direct", report.lost_on_direct() as f64)
            .metric("recovered", report.recovered() as f64)
            .metric("unrecovered", report.unrecovered() as f64)
            .metric("recovery_rate", report.recovery_rate())
            .metric("episode_random", r)
            .metric("episode_multi", m)
            .metric("episode_outage", o)
            .metric(
                "fec_increase_20",
                percent_increase(crwan_whatif, fec_on_path(&direct_flags, 5, 1)),
            )
            .metric(
                "fec_increase_40",
                percent_increase(crwan_whatif, fec_on_path(&direct_flags, 5, 2)),
            )
            .metric(
                "fec_increase_100",
                percent_increase(crwan_whatif, fec_on_path(&direct_flags, 5, 5)),
            )
            .series(
                "recovery_delay_fractions",
                report.recovery_delay_rtt_fractions(),
            )
    });
    let (out, _) = run_suite(&suite, threads, baseline);

    // Re-assemble the per-path rows from the grid: variant `cross2` occupies
    // points `0..n`, `cross1` points `n..2n`, both in path order.
    let points = out.report.points();
    let metric = |i: usize, key: &str| points[i].get_metric(key).unwrap_or(0.0);
    let mut results: Vec<PathResult> = Vec::new();
    let mut one_coded_rates: Vec<f64> = Vec::new();
    let mut by_region: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut total_lost = 0usize;
    let mut total_recovered = 0usize;
    let mut total_unrecovered_end_to_end = 0usize;
    let mut total_sent = 0usize;

    for (i, path) in paths.iter().enumerate() {
        let two = &points[i];
        total_lost += metric(i, "lost_on_direct") as usize;
        total_recovered += metric(i, "recovered") as usize;
        total_unrecovered_end_to_end += metric(i, "unrecovered") as usize;
        total_sent += metric(i, "sent") as usize;

        let fractions: Vec<f64> = two
            .get_series("recovery_delay_fractions")
            .unwrap_or(&[])
            .to_vec();
        by_region
            .entry(path.regions.label())
            .or_default()
            .extend(fractions.iter().copied());
        one_coded_rates.push(metric(n_paths + i, "recovery_rate"));
        results.push(PathResult {
            index: path.index,
            region: path.regions.label(),
            rtt_ms: path.rtt_ms(),
            loss_rate: path.loss_rate,
            lost_on_direct: metric(i, "lost_on_direct") as usize,
            recovered: metric(i, "recovered") as usize,
            recovery_rate: metric(i, "recovery_rate"),
            episode_contribution: (
                metric(i, "episode_random"),
                metric(i, "episode_multi"),
                metric(i, "episode_outage"),
            ),
            recovery_delay_fractions: fractions,
            fec_increase_20: metric(i, "fec_increase_20"),
            fec_increase_40: metric(i, "fec_increase_40"),
            fec_increase_100: metric(i, "fec_increase_100"),
        });
    }

    section("Figure 8(a): per-path recovery success rate (CCDF)");
    let rates: Vec<f64> = results.iter().map(|r| r.recovery_rate * 100.0).collect();
    Series::from_samples("recovery success rate (%)", rates.clone()).print_row();
    let overall = if total_lost == 0 {
        1.0
    } else {
        total_recovered as f64 / total_lost as f64
    };
    let paths_over_80 =
        rates.iter().filter(|r| **r > 80.0).count() as f64 / rates.len().max(1) as f64;
    println!(
        "  -> overall recovery of direct-path losses: {:.1}% (paper: 78%)",
        overall * 100.0
    );
    println!(
        "  -> paths recovering >80% of losses: {:.0}% (paper: 82%)",
        paths_over_80 * 100.0
    );
    println!(
        "  -> residual end-to-end loss: {:.3}% of {} packets (paper: 0.02%)",
        100.0 * total_unrecovered_end_to_end as f64 / total_sent.max(1) as f64,
        total_sent
    );

    section("Figure 8(b): loss-episode contribution on paths with >80% recovery");
    let good: Vec<&PathResult> = results.iter().filter(|r| r.recovery_rate > 0.8).collect();
    let series_8b = vec![
        Series::from_samples(
            "Random",
            good.iter()
                .map(|r| r.episode_contribution.0 * 100.0)
                .collect(),
        ),
        Series::from_samples(
            "Multi",
            good.iter()
                .map(|r| r.episode_contribution.1 * 100.0)
                .collect(),
        ),
        Series::from_samples(
            "Outage",
            good.iter()
                .map(|r| r.episode_contribution.2 * 100.0)
                .collect(),
        ),
    ];
    for s in &series_8b {
        s.print_row();
    }
    let outage_paths = results
        .iter()
        .filter(|r| r.episode_contribution.2 > 0.0)
        .count() as f64
        / results.len().max(1) as f64;
    println!(
        "  -> paths that saw outages: {:.0}% (paper: 45%)",
        outage_paths * 100.0
    );

    section("Figure 8(c): % increase in recovery, CR-WAN vs on-path FEC");
    let series_8c = vec![
        Series::from_samples(
            "vs 20% FEC",
            results.iter().map(|r| r.fec_increase_20).collect(),
        ),
        Series::from_samples(
            "vs 40% FEC",
            results.iter().map(|r| r.fec_increase_40).collect(),
        ),
        Series::from_samples(
            "vs 100% FEC",
            results.iter().map(|r| r.fec_increase_100).collect(),
        ),
    ];
    for s in &series_8c {
        s.print_row();
    }
    let beat_full_dup = results.iter().filter(|r| r.fec_increase_100 > 0.0).count() as f64
        / results.len().max(1) as f64;
    println!(
        "  -> paths with at least one loss episode unrecoverable even by 100% FEC: {:.0}% (paper: 90%)",
        beat_full_dup * 100.0
    );

    section("Figure 8(d): recovery time / RTT by region");
    let mut series_8d = Vec::new();
    let mut aggregate = Vec::new();
    for (region, fractions) in &by_region {
        if !fractions.is_empty() {
            series_8d.push(Series::from_samples(region, fractions.clone()));
            aggregate.extend(fractions.iter().copied());
        }
    }
    series_8d.push(Series::from_samples("Aggregate", aggregate.clone()));
    for s in &series_8d {
        s.print_row();
    }
    let within_half =
        aggregate.iter().filter(|f| **f <= 0.5).count() as f64 / aggregate.len().max(1) as f64;
    println!(
        "  -> recoveries within 0.5 RTT: {:.0}% (paper: 95%)",
        within_half * 100.0
    );

    section("Figure 8(e): % increase in recovery, 2 vs 1 cross-stream coded packets");
    let improvements: Vec<f64> = results
        .iter()
        .zip(&one_coded_rates)
        .map(|(two, one)| {
            if *one <= 0.0 {
                if two.recovery_rate > 0.0 {
                    100.0
                } else {
                    0.0
                }
            } else {
                ((two.recovery_rate - one) / one * 100.0).max(0.0)
            }
        })
        .collect();
    Series::from_samples("improvement (%)", improvements.clone()).print_row();
    let over_10 = improvements.iter().filter(|i| **i > 10.0).count() as f64
        / improvements.len().max(1) as f64;
    println!(
        "  -> paths improving by >10%: {:.0}% (paper: 60% of paths)",
        over_10 * 100.0
    );

    write_json("fig8_crwan_paths", &results);
    write_json("fig8e_straggler_improvement", &improvements);
}
