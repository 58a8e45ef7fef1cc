//! Layer probes: timed loops around one public function of one layer each,
//! run by traced runs only.  A probe says what a layer costs *in isolation*;
//! the issue's table (README, "Per-layer metrics") says which end-to-end
//! metric each should move, and on which workload it should move nothing.

use std::io::ErrorKind;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use bytes::Bytes;
use erasure::gf256;
use erasure::packets::BatchCodec;
use erasure::rs::ReedSolomon;
use erasure::shards::ShardSet;
use jqos_core::coding::encoder::BatchEncoder;
use jqos_core::coding::queues::{CodingQueues, ReadyBatch};
use jqos_core::prelude::*;
use jqos_core::services::caching::{CacheConfig, PacketCache};
use jqos_net::{AdmissionPolicy, RelayConfig, WireMsg};
use measurements::planetlab::planetlab_paths;
use netsim::event::{EventKind, EventQueue};
use netsim::rng::component_rng;
use netsim::trace::DeliveryTrace;
use qoe::{frames_from_packet_flags, PsnrModel};
use transport::harness::{run_web_transfers, WebExperimentConfig};
use transport::minitcp::JqosAssist;
use workloads::cbr::OnOffCbrSource;
use workloads::population::{run_city, CityConfig};
use workloads::video::{VideoConfig, VideoSource};

use crate::outcome::{Outcome, RunOpts};
use crate::relay::RelayAddrs;
use crate::rng::Rng;
use crate::stats::median;
use crate::wire::{self, Msg};
use crate::{alloc, trace};

/// Median over the run's repeats of nanoseconds per call of `f`, each repeat
/// looping for the probe's time slice.
fn time_ns(opts: &RunOpts, mut f: impl FnMut()) -> f64 {
    // Calls per clock read: grown until a batch takes about 20 µs, so the
    // clock costs under 1 % and the loop still ends on time.
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= Duration::from_micros(20) || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let slice = Duration::from_secs_f64(opts.probe_seconds());
    let per_call: Vec<f64> = (0..opts.repeats())
        .map(|_| {
            let started = Instant::now();
            let mut calls = 0u64;
            while started.elapsed() < slice {
                for _ in 0..batch {
                    f();
                }
                calls += batch;
            }
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_call)
}

/// Median over the run's repeats of the seconds one call of `f` takes.
fn time_once_s(opts: &RunOpts, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..opts.repeats())
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

fn seeded_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Whether the coding kernel's SIMD lane is in use: `erasure::gf256`
/// dispatches on exactly this test and exposes no flag of its own.
pub fn simd_active() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("ssse3")
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        false
    }
}

/// `encode_into` and `decode_into` (one data shard erased) at one geometry.
fn rs_pair(opts: &RunOpts, k: usize, m: usize, len: usize, rng: &mut Rng) -> (f64, f64) {
    let rs = ReedSolomon::new(k, m).expect("valid code");
    let mut set = ShardSet::new(k, m, len);
    for d in 0..k {
        let bytes = seeded_bytes(rng, len);
        set.write_data(d, &bytes);
    }
    let encode = time_ns(opts, || {
        rs.encode_into(std::hint::black_box(&mut set))
            .expect("encode");
    });
    let mut present = vec![true; k + m];
    present[1] = false;
    let decode = time_ns(opts, || {
        rs.decode_into(std::hint::black_box(&mut set), &present)
            .expect("decode");
    });
    (encode, decode)
}

/// GF(2⁸) kernel → `encode_into`/`decode_into` → `BatchCodec`.
pub fn erasure_layers(opts: &RunOpts, out: &mut Outcome) {
    let _s = trace::span("probes.erasure");
    let mut rng = Rng::new(opts.seed, 0xE7A5);
    let layer = &mut out.layer;
    layer.set("erasure.simd_active", f64::from(u8::from(simd_active())));

    let src = seeded_bytes(&mut rng, 1024);
    let mut dst = seeded_bytes(&mut rng, 1024);
    layer.set(
        "erasure.gf256.mul_slice_xor_ns_per_kib",
        time_ns(opts, || {
            gf256::mul_slice_xor(0x53, std::hint::black_box(&src), &mut dst);
        }),
    );

    let (enc, dec) = rs_pair(opts, 5, 1, 512, &mut rng);
    layer.set("erasure.rs.encode_into_5x1x512_ns", enc);
    layer.set("erasure.rs.decode_into_5x1x512_ns", dec);
    let (enc_8x2, dec) = rs_pair(opts, 8, 2, 1024, &mut rng);
    layer.set("erasure.rs.encode_into_8x2x1k_ns", enc_8x2);
    layer.set("erasure.rs.decode_into_8x2x1k_ns", dec);

    // The relay's shape: eight 1 KiB packets, two parity shards.
    let packets: Vec<Vec<u8>> = (0..8).map(|_| seeded_bytes(&mut rng, 1024)).collect();
    let refs: Vec<&[u8]> = packets.iter().map(Vec::as_slice).collect();
    let mut codec = BatchCodec::new();
    let encode_batch = time_ns(opts, || {
        std::hint::black_box(codec.encode_batch(&refs, 2).expect("encode batch"));
    });
    layer.set("erasure.codec.encode_batch_ns", encode_batch);
    layer.set("erasure.codec.overhead_ns", encode_batch - enc_8x2);
    const BATCHES: u64 = 1_000;
    let ((), allocs, _) = alloc::count(|| {
        for _ in 0..BATCHES {
            std::hint::black_box(codec.encode_batch(&refs, 2).expect("encode batch"));
        }
    });
    layer.set(
        "erasure.codec.allocs_per_batch",
        allocs as f64 / BATCHES as f64,
    );

    let view = codec.encode_batch(&refs, 2).expect("encode batch");
    let have: Vec<(usize, &[u8])> = (0..8).filter(|&i| i != 3).map(|i| (i, refs[i])).collect();
    let parity: Vec<(usize, &[u8])> = view
        .parity
        .iter()
        .enumerate()
        .map(|(i, p)| (i, &p[..]))
        .collect();
    layer.set(
        "erasure.codec.decode_batch_ns",
        time_ns(opts, || {
            std::hint::black_box(
                codec
                    .decode_batch(8, view.shard_len, &have, &parity)
                    .expect("decode batch"),
            );
        }),
    );
}

/// `WireMsg` encode/decode at the smallest and the largest benchmark
/// payload, `AdmissionPolicy::decide`, and Register → Ack over the wire.
pub fn relay_layers(
    name: &str,
    addrs: &RelayAddrs,
    opts: &RunOpts,
    out: &mut Outcome,
) -> Result<(), String> {
    let _s = trace::span("probes.jqos-net");
    let mut rng = Rng::new(opts.seed, 0x317E);
    let mut scratch = Vec::new();
    for (label, len) in [("16b", 16usize), ("1k", 1024)] {
        let msg = WireMsg::Data {
            flow: 7,
            seq: 99,
            payload: seeded_bytes(&mut rng, len),
        };
        out.layer.set(
            &format!("jqos-net.wire.encode_{label}_ns"),
            time_ns(opts, || {
                std::hint::black_box(&msg).encode_into(&mut scratch);
            }),
        );
        let bytes = msg.encode();
        out.layer.set(
            &format!("jqos-net.wire.decode_{label}_ns"),
            time_ns(opts, || {
                std::hint::black_box(WireMsg::decode(std::hint::black_box(&bytes)));
            }),
        );
        if len == 16 {
            const DECODES: u64 = 1_000;
            let ((), allocs, _) = alloc::count(|| {
                for _ in 0..DECODES {
                    std::hint::black_box(WireMsg::decode(std::hint::black_box(&bytes)));
                }
            });
            out.layer.set(
                "jqos-net.wire.allocs_per_decode",
                allocs as f64 / DECODES as f64,
            );
        }
    }

    let policy = AdmissionPolicy::new(RelayConfig::wide_area_delays(), true, 8192);
    let mut budget = 90u32;
    out.layer.set(
        "jqos-net.admission.decide_ns",
        time_ns(opts, || {
            budget = 90 + (budget + 7) % 64;
            std::hint::black_box(policy.decide(budget, false, 0));
        }),
    );

    // Register → Ack round trips, one at a time, on fresh flow ids.
    let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind probe socket: {e}"))?;
    sock.set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| format!("probe socket mode: {e}"))?;
    let rounds = if opts.smoke { 5 } else { 50 };
    let mut rtts_us = Vec::with_capacity(rounds);
    let mut buf = [0u8; 64];
    for i in 0..rounds as u32 {
        let flow = addrs.free_flow + i;
        wire::encode(
            &Msg::Register {
                flow,
                budget_ms: 100,
                loss_tolerant: false,
            },
            &mut scratch,
        );
        let t = Instant::now();
        sock.send_to(&scratch, addrs.control)
            .map_err(|e| format!("probe register: {e}"))?;
        match sock.recv_from(&mut buf) {
            Ok((len, _)) if matches!(wire::decode(&buf[..len]), Some(Msg::RegisterAck { flow: f, .. }) if f == flow) =>
            {
                rtts_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            Ok(_) => return Err("probe register: unexpected answer".to_string()),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err("probe register: no ack within 100 ms".to_string());
            }
            Err(e) => return Err(format!("probe register: {e}")),
        }
    }
    out.layer
        .set("jqos-net.admission.register_rtt_us", median(&rtts_us));

    if name == "relay-coding-1k" {
        erasure_layers(opts, out);
    }
    Ok(())
}

/// Event queue, link and delivery trace of `netsim`.
pub fn netsim_layers(opts: &RunOpts, out: &mut Outcome) {
    let _s = trace::span("probes.netsim");
    let mut rng = Rng::new(opts.seed, 0x2E75);
    // Hold model: a queue kept at a fixed depth, each turn popping the
    // earliest event and pushing one a random distance (up to 500 ms) past
    // it.
    for (name, depth) in [
        ("netsim.queue.push_pop_1k_ns", 1_000usize),
        ("netsim.queue.push_pop_100k_ns", 100_000),
    ] {
        let mut queue: EventQueue<()> = EventQueue::with_capacity(depth);
        let timer = |tag: u64| EventKind::Timer {
            node: NodeId(0),
            timer: TimerId(tag),
            tag,
        };
        for i in 0..depth as u64 {
            queue.push(Time(rng.below(500_000)), timer(i));
        }
        out.layer.set(
            name,
            time_ns(opts, || {
                let event = queue.pop().expect("queue holds its depth");
                queue.push(
                    event.at + Dur::from_micros(1 + rng.below(500_000)),
                    timer(0),
                );
            }),
        );
    }

    let mut link = LinkSpec::symmetric(Dur::from_millis(20))
        .loss(LossSpec::Bernoulli(0.02))
        .build(component_rng(opts.seed, 0x11));
    let mut now = Time::ZERO;
    out.layer.set(
        "netsim.link.offer_ns",
        time_ns(opts, || {
            now += Dur::from_micros(100);
            std::hint::black_box(link.offer(now, 512));
        }),
    );

    let mut trace_log = DeliveryTrace::new();
    let mut seq = 0u64;
    out.layer.set(
        "netsim.trace.record_ns",
        time_ns(opts, || {
            // Bounded window, so the probe times recording and not growth.
            if seq.is_multiple_of(65_536) {
                trace_log.clear();
            }
            trace_log.record_sent(seq, Time(seq));
            trace_log.record_delivered(seq, Time(seq + 40));
            seq += 1;
        }) / 2.0,
    );
}

/// The protocol pieces of `jqos-core` the scenarios spend their time in,
/// and the crates the scenarios draw inputs and scores from.
pub fn sim_figures_layers(opts: &RunOpts, out: &mut Outcome) {
    let _s = trace::span("probes.jqos-core");
    let layer = &mut out.layer;

    let selector = ServiceSelector::new(RelayConfig::wide_area_delays());
    let mut budget = 80u64;
    layer.set(
        "jqos-core.select.select_ns",
        time_ns(opts, || {
            budget = 80 + (budget + 7) % 80;
            std::hint::black_box(selector.select(Registration {
                latency_budget: Dur::from_millis(budget),
                loss_tolerant: false,
            }));
        }),
    );

    // Six 512-byte flows through the coding plan, as in the crwan part; the
    // batches that fall out feed the encoder probe.
    let params = CodingParams::planetlab_defaults();
    let mut queues = CodingQueues::new(params);
    for f in 0..6 {
        queues.register_flow(FlowId(f), NodeId(1), NodeId(10 + f as usize));
    }
    let payload = Bytes::from(vec![0xA5u8; 512]);
    let mut batches: Vec<ReadyBatch> = Vec::new();
    let mut i = 0u64;
    layer.set(
        "jqos-core.coding.queues_process_ns",
        time_ns(opts, || {
            let now = Time(i * 3_000);
            let packet = DataPacket::new(FlowId((i % 6) as u32), i / 6, payload.clone(), now);
            let ready = queues.process(packet, now);
            if batches.len() < 64 {
                batches.extend(ready);
            }
            i += 1;
        }),
    );
    if !batches.is_empty() {
        let mut encoder = BatchEncoder::new(params);
        let mut b = 0usize;
        layer.set(
            "jqos-core.coding.encoder_encode_ns",
            time_ns(opts, || {
                std::hint::black_box(encoder.encode(&batches[b % batches.len()], Time(b as u64)));
                b += 1;
            }),
        );
    }

    let mut cache = PacketCache::new(CacheConfig::default());
    let mut seq = 0u64;
    layer.set(
        "jqos-core.cache.insert_ns",
        time_ns(opts, || {
            let now = Time(seq * 100);
            cache.insert(
                DataPacket::new(FlowId((seq % 16) as u32), seq / 16, payload.clone(), now),
                now,
            );
            seq += 1;
        }),
    );
    let (newest, now) = (seq - 1, Time(seq * 100));
    let mut back = 0u64;
    layer.set(
        "jqos-core.cache.get_ns",
        time_ns(opts, || {
            // Recent packets, as NACKs ask for.
            let s = newest - back % newest.min(1_024);
            std::hint::black_box(cache.get(FlowId((s % 16) as u32), s / 16, now));
            back += 1;
        }),
    );

    let _s2 = trace::span("probes.inputs");
    let mut source_rng = component_rng(opts.seed, 0x50);
    let mut cbr = OnOffCbrSource::new(workloads::cbr::OnOffConfig::planetlab());
    layer.set(
        "workloads.cbr.next_ns",
        time_ns(opts, || {
            std::hint::black_box(cbr.next_packet(&mut source_rng));
        }),
    );
    let mut video = VideoSource::new(VideoConfig::skype_call(Dur::from_secs(1_000_000)));
    layer.set(
        "workloads.video.next_ns",
        time_ns(opts, || {
            std::hint::black_box(video.next_packet(&mut source_rng));
        }),
    );
    layer.set(
        "measurements.planetlab.paths_s",
        time_ns(opts, || {
            std::hint::black_box(planetlab_paths(opts.seed));
        }) / 1e9,
    );
    let city = CityConfig::new(CityAxis {
        population: 1_000_000,
        ..CityAxis::default()
    });
    layer.set(
        "workloads.population.city_point_s",
        time_once_s(opts, || {
            std::hint::black_box(run_city(&city, opts.seed));
        }),
    );
    let transfers = if opts.smoke { 20 } else { 300 };
    let web = WebExperimentConfig::google_study(
        transfers,
        JqosAssist::FullDuplication {
            extra_delay: Dur::from_millis(60),
        },
        opts.seed,
    );
    layer.set(
        "transport.web.transfers_per_s",
        transfers as f64
            / time_once_s(opts, || {
                std::hint::black_box(run_web_transfers(&web));
            }),
    );
    let flags: Vec<bool> = (0..30_000u64).map(|i| i % 97 != 0).collect();
    let frames = frames_from_packet_flags(&flags, 3);
    layer.set(
        "qoe.psnr.ns_per_frame",
        time_ns(opts, || {
            std::hint::black_box(PsnrModel::default().score_frames(&frames, opts.seed));
        }) / frames.len() as f64,
    );
}
