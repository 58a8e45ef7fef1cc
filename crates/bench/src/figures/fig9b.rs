//! Figure 9(b) — TCP flow-completion times with and without J-QoS (§6.4).
//!
//! Repeats the Google-study web-transfer experiment: 50 KB responses over a
//! 200 ms-RTT path with bursty loss (p_first = 0.01, p_next = 0.5).  Three
//! configurations are compared — plain TCP, TCP with J-QoS full duplication,
//! and TCP with selective duplication of the SYN-ACK only — each as one grid
//! point of the sweep, so the three transfer batches run concurrently.
//!
//! The suite also reproduces the §6.4 ablation of the receiver's two-state
//! Markov timeout model: compared with a single fixed timeout, the two-state
//! model sends several times fewer NACKs on a TCP-like bursty arrival
//! pattern.

use crate::harness::{run_suite, section, sized, write_json, Series};
use crate::json::json_struct;
use jqos_core::packet::NackReason;
use jqos_core::prelude::*;
use jqos_core::recovery::markov::{DetectorConfig, DetectorState, LossDetector};
use netsim::stats::PointStats;
use transport::harness::{run_web_transfers, TransferBatch, WebExperimentConfig};
use transport::minitcp::JqosAssist;

json_struct! {
    struct TcpResult {
        label: String,
        transfers: usize,
        p50_s: f64,
        p90_s: f64,
        p99_s: f64,
        p999_s: f64,
        max_s: f64,
        tail_reduction_vs_internet_pct: f64,
        timeouts: u64,
        retransmissions: u64,
    }
}

json_struct! {
    /// The `sec64_nack_ablation.json` document: NACK timeouts of the
    /// two-state detector against a single fixed timeout.
    struct NackAblation {
        two_state: u64,
        single_timeout: u64,
        reduction_factor: f64,
    }
}

fn run_mode(label: &str, assist: JqosAssist, transfers: usize, seed: u64) -> PointStats {
    let config = WebExperimentConfig::google_study(transfers, assist, seed);
    let results = run_web_transfers(&config);
    let fcts = results.as_slice().fcts_secs();
    PointStats::new(label)
        .metric("transfers", transfers as f64)
        .metric("p50_s", results.as_slice().fct_quantile(0.50))
        .metric("p90_s", results.as_slice().fct_quantile(0.90))
        .metric("p99_s", results.as_slice().fct_quantile(0.99))
        .metric("p999_s", results.as_slice().fct_quantile(0.999))
        .metric("max_s", results.as_slice().fct_quantile(1.0))
        .metric(
            "timeouts",
            results.iter().map(|r| r.timeouts).sum::<u64>() as f64,
        )
        .metric(
            "retransmissions",
            results.iter().map(|r| r.retransmissions).sum::<u64>() as f64,
        )
        .series("fcts", fcts)
}

/// Counts NACK-producing timeouts of the loss detector over a TCP-like
/// arrival trace: bursts of back-to-back segments (one cwnd worth) separated
/// by an RTT of silence, repeated across several short transfers.
fn count_detector_timeouts(config: DetectorConfig) -> u64 {
    let mut detector = LossDetector::new(config);
    let mut nacks = 0u64;
    let mut now = Time::ZERO;
    let rtt = Dur::from_millis(200);
    for _transfer in 0..200 {
        let mut window = 4u64;
        let mut remaining = 36i64;
        while remaining > 0 {
            // A window of segments arrives back-to-back (~1 ms apart).
            for _ in 0..window.min(remaining as u64) {
                now += Dur::from_millis(1);
                detector.on_arrival(now);
            }
            remaining -= window as i64;
            // Silence until the next window arrives (one RTT).  Every timer
            // expiry during that silence produces a (spurious) NACK; the
            // two-state model fires its short timer once and then backs off
            // to the RTT-scale timer, while a single fixed 25 ms timer keeps
            // firing throughout the gap.
            let mut silence = rtt;
            loop {
                let timeout = detector.current_timeout();
                if timeout >= silence {
                    break;
                }
                silence = silence - timeout;
                now += timeout;
                let (reason, _) = detector.on_timeout(now);
                debug_assert!(matches!(
                    reason,
                    NackReason::ShortTimeout | NackReason::LongTimeout
                ));
                nacks += 1;
            }
            now += silence;
            window = (window * 2).min(64);
        }
        // Idle gap between transfers.
        now += Dur::from_secs(2);
        debug_assert!(matches!(
            detector.state(),
            DetectorState::Idle | DetectorState::Burst
        ));
    }
    nacks
}

/// Runs the Figure 9(b) suite on `threads` sweep workers.
pub fn run(threads: usize, baseline: bool) {
    let transfers = sized(10_000, 300);
    let seed = 99;

    section("Figure 9(b): flow completion times (seconds)");
    let assist_delay = Dur::from_millis(60);
    let grid = SweepGrid::new().axis(vec![
        ("Internet", JqosAssist::None),
        (
            "CR-WAN (full dup)",
            JqosAssist::FullDuplication {
                extra_delay: assist_delay,
            },
        ),
        (
            "Selective (SYN-ACK)",
            JqosAssist::SelectiveSynAck {
                extra_delay: assist_delay,
            },
        ),
    ]);
    let suite = ExperimentSuite::new("fig9b", seed, grid, move |point| {
        // paired_seed: all three assist modes see the identical transfer
        // and loss realisation, so the tail reduction is a paired delta.
        run_mode(
            &point.payload_label,
            point.payload,
            transfers,
            point.paired_seed(),
        )
    });
    let (out, _) = run_suite(&suite, threads, baseline);

    let points = out.report.points();
    let base_tail = points[0].get_metric("p99_s").unwrap_or(0.0);
    let rows: Vec<TcpResult> = points
        .iter()
        .map(|p| {
            let p99 = p.get_metric("p99_s").unwrap_or(0.0);
            TcpResult {
                label: p.label.clone(),
                transfers,
                p50_s: p.get_metric("p50_s").unwrap_or(0.0),
                p90_s: p.get_metric("p90_s").unwrap_or(0.0),
                p99_s: p99,
                p999_s: p.get_metric("p999_s").unwrap_or(0.0),
                max_s: p.get_metric("max_s").unwrap_or(0.0),
                tail_reduction_vs_internet_pct: if base_tail > 0.0 {
                    (1.0 - p99 / base_tail) * 100.0
                } else {
                    0.0
                },
                timeouts: p.get_metric("timeouts").unwrap_or(0.0) as u64,
                retransmissions: p.get_metric("retransmissions").unwrap_or(0.0) as u64,
            }
        })
        .collect();

    println!(
        "  {:<22} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12} {:>10}",
        "scheme", "p50", "p90", "p99", "p99.9", "max", "tail vs TCP", "timeouts"
    );
    for r in &rows {
        println!(
            "  {:<22} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>11.0}% {:>10}",
            r.label,
            r.p50_s,
            r.p90_s,
            r.p99_s,
            r.p999_s,
            r.max_s,
            r.tail_reduction_vs_internet_pct,
            r.timeouts
        );
    }
    println!(
        "  -> paper: Internet tail reaches ~9 s; full duplication cuts the tail by ~83%, SYN-ACK-only by ~33%"
    );

    let series: Vec<Series> = points
        .iter()
        .map(|p| Series::from_samples(&p.label, p.get_series("fcts").unwrap_or(&[]).to_vec()))
        .collect();
    for s in &series {
        s.print_row();
    }
    write_json("fig9b_tcp_fct", &rows);
    write_json("fig9b_tcp_fct_cdf", &series);

    section("§6.4 ablation: two-state Markov timeout vs a single fixed timeout");
    let rtt = Dur::from_millis(200);
    let two_state = count_detector_timeouts(DetectorConfig::prototype(rtt));
    let single = count_detector_timeouts(DetectorConfig::single_timeout(Dur::from_millis(25)));
    let ratio = single as f64 / two_state.max(1) as f64;
    println!("  two-state Markov model timeouts : {two_state}");
    println!("  single 25 ms timeout timeouts   : {single}");
    println!("  -> reduction factor: {ratio:.1}x (paper: ~5x fewer NACKs)");
    write_json(
        "sec64_nack_ablation",
        &NackAblation {
            two_state,
            single_timeout: single,
            reduction_factor: ratio,
        },
    );
}
