//! The benchmark's vocabulary: workload names and every metric with its
//! unit and direction.  `BENCHMARK.json` at the repository root carries the
//! same lists (a unit test keeps the two equal), plus the regression bound
//! of each end-to-end metric.

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction.
pub type MetricDef = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The seven workloads with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "relay-forward-small",
        "64 forwarding flows, 16 B payload: bare forwarding at the smallest packet, where the per-packet path does all the work and erasure does none",
    ),
    (
        "relay-cache-recover",
        "512 caching flows, 256 B, a seeded 1 in 8 NACKed 2 ms later: cache-ring writes dominate, reads hit the ring's newest end",
    ),
    (
        "relay-cache-nackstorm",
        "256 caching flows with full rings, NACKs only, uniform over ring positions: the cache ring used for reads only",
    ),
    (
        "relay-coding-1k",
        "128 coding flows, 1 KiB, parity fetched and decoded by the client: the only relay workload that runs erasure, yet syscall-bound",
    ),
    (
        "sim-figures",
        "crwan, skype, web, fleet and city scenarios back to back on one thread: node-handler-dominated simulation, the cost of the paper's figures",
    ),
    (
        "sim-engine",
        "raw netsim event loop, 1 hub and 1000 clients pinging: queue pop, link and a trivial handler, no protocol code",
    ),
    (
        "encoder-fig10",
        "EncodingEngine 1 thread, 5+1 blocks of 512 B, then decode with one shard erased: pure erasure, encode beside decode",
    ),
];

/// End-to-end metrics.  The driver's contract has every workload report
/// every one of them, so they name *roles* and each workload fills a role
/// with its own quantity (see `README.md`, "End-to-end metrics"):
///
/// * `delay_*` — what the user of the workload waits for one operation;
/// * `cost_ns_per_op` — what one operation costs in processor time;
/// * `setup_s`, `peak_rss_mb` — what it takes to get there, and to stay.
pub const END_TO_END: [MetricDef; 5] = [
    ("setup_s", "s", Lower),
    ("delay_p50_us", "us", Lower),
    ("delay_p99_us", "us", Lower),
    ("cost_ns_per_op", "ns", Lower),
    ("peak_rss_mb", "MiB", Lower),
];

/// Share of the parent's median by which each end-to-end metric may worsen
/// before a change counts as a regression, in [`END_TO_END`] order.  Each is
/// at least three times the widest run-to-run spread (quartile distance over
/// median, ten seeds) seen on the reference box for any workload: 5 % for
/// the median delay, 6 % for the tail, 5 % for memory — and for processor
/// time 7 % on most sweeps but 14 % on some, the machine's own speed moving
/// between runs (README, "How a run becomes a number"), so it gets the
/// widest bound the driver allows.
pub const END_TO_END_BOUNDS: [f64; 5] = [0.25, 0.15, 0.20, 0.25, 0.15];

/// Per-layer metrics, named `<module>.<part>.<what>` after the workspace's
/// crates.  A traced run prints all of them; those a workload does not
/// exercise read 0.
pub const PER_LAYER: [MetricDef; 86] = [
    // erasure: GF(2^8) kernel -> encode_into/decode_into -> BatchCodec.
    ("erasure.gf256.mul_slice_xor_ns_per_kib", "ns", Lower),
    ("erasure.simd_active", "count", Higher),
    ("erasure.rs.encode_into_5x1x512_ns", "ns", Lower),
    ("erasure.rs.decode_into_5x1x512_ns", "ns", Lower),
    ("erasure.rs.encode_into_8x2x1k_ns", "ns", Lower),
    ("erasure.rs.decode_into_8x2x1k_ns", "ns", Lower),
    ("erasure.codec.encode_batch_ns", "ns", Lower),
    ("erasure.codec.decode_batch_ns", "ns", Lower),
    ("erasure.codec.overhead_ns", "ns", Lower),
    ("erasure.codec.allocs_per_batch", "count", Lower),
    // jqos-net: wire codec, admission, the relay's own counters, and the
    // generator's view of itself.
    ("jqos-net.wire.encode_16b_ns", "ns", Lower),
    ("jqos-net.wire.decode_16b_ns", "ns", Lower),
    ("jqos-net.wire.encode_1k_ns", "ns", Lower),
    ("jqos-net.wire.decode_1k_ns", "ns", Lower),
    ("jqos-net.wire.allocs_per_decode", "count", Lower),
    ("jqos-net.admission.decide_ns", "ns", Lower),
    ("jqos-net.admission.register_rtt_us", "us", Lower),
    ("jqos-net.admission.registrations_per_s", "1/s", Higher),
    ("jqos-net.relay.allocs_per_pkt", "count", Lower),
    ("jqos-net.relay.alloc_bytes_per_pkt", "B", Lower),
    ("jqos-net.relay.recv_syscalls_per_pkt", "count", Lower),
    ("jqos-net.relay.avg_batch", "count", Higher),
    ("jqos-net.relay.wakeups_per_s", "1/s", Lower),
    ("jqos-net.relay.queue_highwater", "count", Lower),
    ("jqos-net.relay.ctx_switches_per_kpkt", "count", Lower),
    ("jqos-net.relay.shed_queue_full", "count", Lower),
    ("jqos-net.relay.shed_egress_full", "count", Lower),
    ("jqos-net.relay.shed_unknown_flow", "count", Lower),
    ("jqos-net.relay.malformed_rx", "count", Lower),
    ("jqos-net.relay.kernel_drop_share", "ratio", Lower),
    ("jqos-net.relay.unaccounted", "count", Lower),
    ("jqos-net.relay.coding_resync_share", "ratio", Lower),
    ("jqos-net.relay.recovery_miss_share", "ratio", Lower),
    ("jqos-net.relay.cache_evicted", "count", Lower),
    ("jqos-net.relay.parity_evicted", "count", Lower),
    ("jqos-net.relay.delivery_p999_us", "us", Lower),
    ("jqos-net.relay.recovery_p999_us", "us", Lower),
    ("jqos-net.relay.overload_pps", "1/s", Higher),
    ("jqos-net.relay.zero_loss_pps", "1/s", Higher),
    ("jqos-net.gen.late_p99_us", "us", Lower),
    ("jqos-net.gen.late_max_us", "us", Lower),
    ("jqos-net.gen.disturbed_trials", "count", Lower),
    ("jqos-net.gen.delay_samples", "count", Higher),
    ("jqos-net.client.decode_us", "us", Lower),
    // netsim: event queue -> link -> trace, and the whole loop.
    ("netsim.queue.push_pop_1k_ns", "ns", Lower),
    ("netsim.queue.push_pop_100k_ns", "ns", Lower),
    ("netsim.link.offer_ns", "ns", Lower),
    ("netsim.trace.record_ns", "ns", Lower),
    ("netsim.sim.ns_per_event", "ns", Lower),
    ("netsim.sim.events_per_s", "1/s", Higher),
    ("netsim.sim.wall_s", "s", Lower),
    ("netsim.sim.events", "count", Lower),
    // jqos-core: protocol pieces, scenario parts, and what the scenarios
    // say (simulated, exact per seed).
    ("jqos-core.select.select_ns", "ns", Lower),
    ("jqos-core.coding.queues_process_ns", "ns", Lower),
    ("jqos-core.coding.encoder_encode_ns", "ns", Lower),
    ("jqos-core.cache.insert_ns", "ns", Lower),
    ("jqos-core.cache.get_ns", "ns", Lower),
    ("jqos-core.scenario.sim_wall_s", "s", Lower),
    ("jqos-core.scenario.crwan_wall_s", "s", Lower),
    ("jqos-core.scenario.skype_wall_s", "s", Lower),
    ("jqos-core.scenario.web_wall_s", "s", Lower),
    ("jqos-core.scenario.fleet_wall_s", "s", Lower),
    ("jqos-core.scenario.city_wall_s", "s", Lower),
    ("jqos-core.scenario.pkts_per_s", "1/s", Higher),
    ("jqos-core.scenario.packets", "count", Lower),
    ("jqos-core.scenario.replay_mismatches", "count", Lower),
    ("jqos-core.dc1.batches", "count", Lower),
    ("jqos-core.dc2.coop_requests", "count", Lower),
    ("jqos-core.dc2.decodes", "count", Higher),
    ("jqos-core.encoder.overhead", "ratio", Lower),
    ("jqos-core.fleet.relocated", "count", Higher),
    ("jqos-core.quality.crwan_recovery_rate", "ratio", Higher),
    ("jqos-core.quality.psnr_mean_db", "dB", Higher),
    ("jqos-core.quality.fct_p99_s", "s", Lower),
    ("jqos-core.quality.crwan_recovery_p50_ms", "ms", Lower),
    // The crates the scenarios draw their inputs and scores from.
    ("workloads.cbr.next_ns", "ns", Lower),
    ("workloads.video.next_ns", "ns", Lower),
    ("workloads.population.city_point_s", "s", Lower),
    ("measurements.planetlab.paths_s", "s", Lower),
    ("transport.web.transfers_per_s", "1/s", Higher),
    ("qoe.psnr.ns_per_frame", "ns", Lower),
    // The Figure 10 engine.
    ("encoder.encode_pps", "1/s", Higher),
    ("encoder.decode_pps", "1/s", Higher),
    ("encoder.pps_2t", "1/s", Higher),
    ("encoder.scaling_2t", "ratio", Higher),
    // The recorder itself.
    ("benchmark.trace.spans", "count", Lower),
];

/// Whether `name` is one of the seven workloads.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

/// Values recorded against a list of metric definitions.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Metrics {
    /// All zeros over `defs`.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Metrics {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics on a name missing from the list: a misspelt metric must fail
    /// the smoke run, not vanish from the report.
    pub fn set(&mut self, name: &str, value: f64) {
        let idx = self
            .defs
            .iter()
            .position(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the benchmark's spec"));
        self.values[idx] = value;
    }

    /// `(definition, value)` in spec order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn names_valid(names: &[&str]) {
        let mut seen = std::collections::BTreeSet::new();
        for n in names {
            assert!(n.len() <= 64, "{n} too long");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(seen.insert(*n), "{n} used twice");
        }
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        all.extend(END_TO_END.iter().map(|m| m.0));
        all.extend(PER_LAYER.iter().map(|m| m.0));
        names_valid(&all);
        for (_, unit, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    /// `BENCHMARK.json` lists exactly what this file lists.
    #[test]
    fn benchmark_json_matches_this_file() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let Json::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        let got: Vec<(String, String)> = workloads
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(got, want);

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let got: Vec<(String, String, String)> = doc
                .get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect();
            let want: Vec<(String, String, String)> = defs
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
                .collect();
            assert_eq!(got, want, "{key}");
        }
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(bounds, END_TO_END_BOUNDS);
        assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25));
        assert!(doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .any(|m| field(m, "name") == "setup_s" && field(m, "unit") == "s"));
    }

    #[test]
    #[should_panic(expected = "not in the benchmark's spec")]
    fn unknown_metric_names_panic() {
        Metrics::new(&END_TO_END).set("delay_p50_ms", 1.0);
    }
}
