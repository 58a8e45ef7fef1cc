//! Figure 9(a) — Skype video-conferencing QoE under an outage (§6.3).
//!
//! A video call runs over a wide-area path that suffers a 30-second outage in
//! the middle.  Four delivery configurations are compared, as in the paper;
//! each is one point of the sweep grid and they run concurrently on the
//! worker threads:
//!
//! * **Internet** — the call rides the direct path only; the outage destroys
//!   30 seconds of frames.
//! * **Fwd** — every packet is duplicated over the cloud overlay (forwarding
//!   service); the outage is fully masked.
//! * **CR-WAN** — only cross-stream coded packets cross the cloud (`r = 1/4`,
//!   `k = 4`, in-stream disabled because the application runs its own FEC);
//!   losses are repaired by cooperative recovery with three ~200 kbps
//!   background flows.
//! * **CR-WAN-Mobile** — the same, with the sender behind a cellular uplink
//!   (§6.5 latencies and a 5 Mbps cap).
//!
//! Packet outcomes are mapped to frames and scored with the PSNR model; the
//! output is the per-frame PSNR CDF of each configuration plus the bandwidth
//! comparison (CR-WAN uses a small fraction of forwarding's cloud bytes).

use crate::harness::{run_suite, section, sized, write_json, Series};
use crate::json::json_struct;
use jqos_core::prelude::*;
use netsim::stats::PointStats;
use qoe::{fraction_below, frames_from_packet_flags, PsnrModel};
use workloads::mobile::MobileProfile;
use workloads::video::{VideoConfig, VideoSource};

const PACKETS_PER_FRAME: usize = 3;

const CONFIGS: [(&str, ServiceKind, bool); 4] = [
    ("Internet", ServiceKind::InternetOnly, false),
    ("Fwd", ServiceKind::Forwarding, false),
    ("CR-WAN", ServiceKind::Coding, false),
    ("CR-WAN-Mobile", ServiceKind::Coding, true),
];

json_struct! {
    struct SkypeResult {
        label: String,
        mean_psnr: f64,
        bad_frame_fraction: f64,
        delivered_fraction: f64,
        cloud_bytes: u64,
        cloud_packets: u64,
        coded_bytes: u64,
    }
}

fn outage_loss(call_secs: u64) -> LossSpec {
    // Background random loss plus a 30-second outage in the middle of the call.
    let start = call_secs / 2;
    LossSpec::Compound(vec![
        LossSpec::Bernoulli(0.001),
        LossSpec::Outage(vec![(Time::from_secs(start), Time::from_secs(start + 30))]),
    ])
}

fn run_call(
    label: &str,
    service: ServiceKind,
    mobile: bool,
    call_secs: u64,
    seed: u64,
) -> PointStats {
    let topology = if mobile {
        MobileProfile::lte_typical().topology(outage_loss(call_secs))
    } else {
        Topology::wide_area(outage_loss(call_secs))
    };

    let coding = CodingParams::skype_case_study();
    let duration = Dur::from_secs(call_secs);

    let mut scenario = Scenario::new(seed)
        .with_topology(topology)
        .with_coding(coding)
        .add_flow(
            service,
            Box::new(VideoSource::new(VideoConfig::skype_call_with_fec(duration))),
        );
    // Three background flows provide cross-stream companions (only relevant
    // for the coding service, harmless otherwise).
    for _ in 0..3 {
        scenario = scenario.add_flow_with_path(
            ServiceKind::Coding,
            Box::new(VideoSource::new(VideoConfig::background_200kbps(duration))),
            LinkSpec::symmetric(Dur::from_millis(70)).loss(LossSpec::Bernoulli(0.002)),
        );
    }

    let report = scenario.run(duration + Dur::from_secs(2));
    let flow = &report.flows[0];

    // Frame outcomes: a packet counts if it arrived within an interactive
    // playout budget (400 ms one-way).
    let budget = Dur::from_millis(400);
    let flags: Vec<bool> = flow
        .packets
        .iter()
        .map(|p| p.delivered_within(budget))
        .collect();
    let frames = frames_from_packet_flags(&flags, PACKETS_PER_FRAME);
    let scores = PsnrModel::default().score_frames(&frames, seed);

    PointStats::new(label)
        .metric(
            "mean_psnr",
            scores.iter().sum::<f64>() / scores.len().max(1) as f64,
        )
        .metric("bad_frame_fraction", fraction_below(&scores, 30.0))
        .metric(
            "delivered_fraction",
            flow.delivered() as f64 / flow.sent().max(1) as f64,
        )
        .metric("cloud_bytes", flow.cloud_bytes as f64)
        .metric("cloud_packets", flow.cloud_copies as f64)
        .metric("coded_bytes", report.encoder.coded_bytes as f64)
        .series("psnr", scores)
}

/// Runs the Figure 9(a) suite on `threads` sweep workers.
pub fn run(threads: usize, baseline: bool) {
    let call_secs = sized(180, 70) as u64;
    let seed = 31;

    let grid = SweepGrid::new().axis(CONFIGS.iter().map(|c| (c.0, *c)).collect());
    let suite = ExperimentSuite::new("fig9a", seed, grid, move |point| {
        let (label, service, mobile) = point.payload;
        // paired_seed: every configuration replays the same outage and loss
        // realisation, as in the paper's side-by-side comparison.
        run_call(label, service, mobile, call_secs, point.paired_seed())
    });
    let (out, _) = run_suite(&suite, threads, baseline);

    section("Figure 9(a): per-frame PSNR during a call with a 30 s outage");
    let series: Vec<Series> = out
        .report
        .points()
        .iter()
        .map(|p| Series::from_samples(&p.label, p.get_series("psnr").unwrap_or(&[]).to_vec()))
        .collect();
    for s in &series {
        s.print_row();
    }

    section("QoE and bandwidth summary");
    println!(
        "  {:<16} {:>10} {:>12} {:>12} {:>14} {:>14}",
        "scheme", "mean PSNR", "bad frames", "delivered", "cloud payload", "coded bytes"
    );
    let results: Vec<SkypeResult> = out
        .report
        .points()
        .iter()
        .map(|p| SkypeResult {
            label: p.label.clone(),
            mean_psnr: p.get_metric("mean_psnr").unwrap_or(0.0),
            bad_frame_fraction: p.get_metric("bad_frame_fraction").unwrap_or(0.0),
            delivered_fraction: p.get_metric("delivered_fraction").unwrap_or(0.0),
            cloud_bytes: p.get_metric("cloud_bytes").unwrap_or(0.0) as u64,
            cloud_packets: p.get_metric("cloud_packets").unwrap_or(0.0) as u64,
            coded_bytes: p.get_metric("coded_bytes").unwrap_or(0.0) as u64,
        })
        .collect();
    for r in &results {
        println!(
            "  {:<16} {:>10.1} {:>11.1}% {:>11.1}% {:>13} B {:>13} B",
            r.label,
            r.mean_psnr,
            r.bad_frame_fraction * 100.0,
            r.delivered_fraction * 100.0,
            r.cloud_bytes,
            r.coded_bytes
        );
    }

    // The paper's bandwidth claim: CR-WAN sends ~13% as many packets/bytes on
    // the inter-DC path as the forwarding service.
    let fwd = &results[1];
    let crwan = &results[2];
    if fwd.cloud_bytes > 0 {
        println!(
            "  -> CR-WAN inter-DC bytes / forwarding inter-DC bytes: {:.1}% (paper: 13.6%)",
            100.0 * crwan.coded_bytes as f64 / fwd.cloud_bytes as f64
        );
    }

    write_json("fig9a_skype_psnr", &results);
    write_json("fig9a_skype_psnr_cdf", &series);
}
