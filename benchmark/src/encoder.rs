//! `encoder-fig10`: pure `erasure`, in the shape of the paper's Figure 10.
//!
//! First the [`EncodingEngine`] on one thread — blocks of five 512-byte
//! packets plus one parity packet, the figure's shape — then
//! [`ReedSolomon::decode_into`] over blocks of the same shape with one data
//! shard erased.  Encode sits beside decode so that a GF(2⁸) kernel change
//! that helps one and hurts the other shows in one run.

use std::time::Instant;

use erasure::gf256;
use erasure::packets::BatchCodec;
use erasure::rs::ReedSolomon;
use erasure::shards::ShardSet;
use jqos_core::coding::engine::{EncodingEngine, EngineConfig};

use crate::outcome::{Outcome, RunOpts};
use crate::rng::Rng;
use crate::stats::{least, lower_quartile, median, P99Pools};
use crate::{affinity, probes, procfs, trace};

/// Figure 10's block: data packets, parity packets, bytes per packet.
const K: usize = 5;
const M: usize = 1;
const BYTES: usize = 512;
/// Data packets one encode slice codes (some 40 ms of work).
const ENCODE_PACKETS: u64 = 1_000_000;
/// Decodes timed together as one delay sample (some 20 µs, so the clock
/// reads cost under a percent).
const CHUNK: usize = 32;
/// Delay samples per decode slice (some 50 ms of work, enough for a p99).
const DECODE_CHUNKS: usize = 2_500;
/// Pre-encoded blocks the decode loop cycles through (192 KiB: like the
/// engine's single slab, it stays cache-resident).
const POOL: usize = 64;
/// Set-ups timed together as one sample.
const SETUPS_PER_SAMPLE: usize = 8;
/// Work slices between set-up samples.
const SLICES_PER_SETUP: usize = 8;
/// Encoded batches checked against the scalar oracle.
const ORACLE_SAMPLES: usize = 256;

fn engine(threads: usize) -> EncodingEngine {
    EncodingEngine::new(EngineConfig {
        threads,
        block_size: K,
        parity: M,
        packet_bytes: BYTES,
    })
}

/// A block of seeded bytes with its parity computed.
fn encoded_block(rs: &ReedSolomon, rng: &mut Rng) -> ShardSet {
    let mut set = ShardSet::new(K, M, BYTES);
    for d in 0..K {
        for chunk in set.data_mut(d).chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
        }
    }
    rs.encode_into(&mut set).expect("block matches the codec");
    set
}

/// The parity coefficient of data shard `d`, read off the codec by encoding
/// a unit vector (the code is linear).
fn coefficients(rs: &ReedSolomon) -> Vec<u8> {
    (0..K)
        .map(|d| {
            let mut set = ShardSet::new(K, M, BYTES);
            set.data_mut(d)[0] = 1;
            rs.encode_into(&mut set)
                .expect("unit block matches the codec");
            set.shard(K)[0]
        })
        .collect()
}

/// Checks `ORACLE_SAMPLES` seeded batches: the parity `encode_into`
/// produced must equal the one the seed log/exp kernels (`gf256::scalar`)
/// compute, and a decode must restore an erased shard byte for byte.
/// Returns how many batches failed.
fn oracle_failures(rs: &ReedSolomon, seed: u64) -> u64 {
    let coeff = coefficients(rs);
    let mut rng = Rng::new(seed, 0x0AC1E);
    let mut failures = 0;
    for i in 0..ORACLE_SAMPLES {
        let mut set = encoded_block(rs, &mut rng);
        let mut want = vec![0u8; BYTES];
        for (d, &c) in coeff.iter().enumerate() {
            gf256::scalar::mul_slice_xor(c, set.shard(d), &mut want);
        }
        let parity_ok = set.shard(K) == want.as_slice();
        let erased = i % K;
        let original = set.shard(erased).to_vec();
        let mut present = [true; K + M];
        present[erased] = false;
        set.data_mut(erased).fill(0);
        let decode_ok =
            rs.decode_into(&mut set, &present).is_ok() && set.shard(erased) == original.as_slice();
        if !(parity_ok && decode_ok) {
            failures += 1;
        }
    }
    failures
}

/// Runs `encoder-fig10`.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let _w = trace::span_req("workload", Some("encoder-fig10".to_string()));
    // One CPU for everything, the engine's worker thread included.
    let cpus = affinity::confine_to_one_cpu();

    let rs = ReedSolomon::new(K, M).map_err(|e| format!("codec: {e:?}"))?;
    {
        let _s = trace::span("gate.oracle");
        out.attempted = ORACLE_SAMPLES as u64;
        out.failed = oracle_failures(&rs, opts.seed);
        out.gate(
            format!(
                "{ORACLE_SAMPLES} sampled batches equal the gf256::scalar oracle and decode back"
            ),
            out.failed == 0,
        );
    }

    // Set-up: everything built before the first packet can be coded or
    // decoded — the codec and its cached shape, the engine, and the pool of
    // encoded blocks the decode loop works on.  Sampled all through the run.
    let mut setup_secs: Vec<f64> = Vec::new();
    let sample_setup = |setup_secs: &mut Vec<f64>| {
        let t = Instant::now();
        for _ in 0..SETUPS_PER_SAMPLE {
            let rs = ReedSolomon::new(K, M).expect("valid code");
            let mut codec = BatchCodec::new();
            codec.codec(K, M).expect("valid code");
            let mut rng = Rng::new(opts.seed, 0xDEC0);
            let pool: Vec<ShardSet> = (0..POOL).map(|_| encoded_block(&rs, &mut rng)).collect();
            std::hint::black_box((codec, engine(1), pool));
        }
        setup_secs.push(t.elapsed().as_secs_f64() / SETUPS_PER_SAMPLE as f64);
    };

    // Half the time encodes, half decodes, in slices of some tens of
    // milliseconds: short enough that many of them fall between the
    // machine's slow spells (see `stats`).
    let phase_secs = if opts.smoke { 0.1 } else { opts.seconds / 2.0 };
    let more = |started: Instant, done: usize| {
        done < opts.repeats() || started.elapsed().as_secs_f64() < phase_secs
    };

    // ---- Encode: the engine, one thread, a stated number of packets.
    let single = engine(1);
    let packets = if opts.smoke { 50_000 } else { ENCODE_PACKETS };
    let mut encode_pps = Vec::new();
    let mut encode_ns_per_pkt = Vec::new();
    let mut ratio_ok = true;
    let started = Instant::now();
    while more(started, encode_pps.len()) {
        if encode_pps.len() % SLICES_PER_SETUP == 0 {
            sample_setup(&mut setup_secs);
        }
        let _s = trace::span_req("trial", Some(format!("encode {}", encode_pps.len())));
        let report = single.run(packets);
        encode_pps.push(report.ingress_pps());
        encode_ns_per_pkt.push(report.elapsed_secs * 1e9 / report.packets_in.max(1) as f64);
        ratio_ok &=
            report.packets_in == packets && report.coded_out * K as u64 == packets * M as u64;
    }
    let slices = encode_pps.len();
    out.gate(
        format!("{slices} encode runs: one coded packet per {K} data packets"),
        ratio_ok,
    );
    out.e2e.set("cost_ns_per_op", least(&encode_ns_per_pkt));
    out.layer.set("encoder.encode_pps", median(&encode_pps));

    // ---- Decode: one data shard erased per block, rotating.
    let mut rng = Rng::new(opts.seed, 0xDEC0);
    let mut pool: Vec<ShardSet> = (0..POOL).map(|_| encoded_block(&rs, &mut rng)).collect();
    let originals: Vec<Vec<u8>> = pool.iter().map(|s| s.shard(0).to_vec()).collect();
    let slice_chunks = if opts.smoke { 200 } else { DECODE_CHUNKS };
    let mut decode_pps = Vec::new();
    let mut p50s = Vec::new();
    let mut pools = P99Pools::default();
    let mut samples = 0;
    let mut decode_ok = true;
    let mut blocks = 0usize;
    let started = Instant::now();
    while more(started, decode_pps.len()) {
        if decode_pps.len() % SLICES_PER_SETUP == 0 {
            sample_setup(&mut setup_secs);
        }
        let _s = trace::span_req("trial", Some(format!("decode {}", decode_pps.len())));
        let slice_started = Instant::now();
        let mut block_us: Vec<f64> = Vec::with_capacity(slice_chunks);
        for _ in 0..slice_chunks {
            let t = Instant::now();
            for i in 0..CHUNK {
                let erased = (blocks + i) % K;
                let mut present = [true; K + M];
                present[erased] = false;
                let set = &mut pool[i % POOL];
                decode_ok &= rs.decode_into(set, &present).is_ok();
                std::hint::black_box(set.shard(erased));
            }
            block_us.push(t.elapsed().as_secs_f64() * 1e6 / CHUNK as f64);
            blocks += CHUNK;
        }
        decode_pps.push((slice_chunks * CHUNK) as f64 / slice_started.elapsed().as_secs_f64());
        samples += block_us.len();
        p50s.push(median(&block_us));
        pools.add(&block_us);
    }
    // Every block was decoded over and over; shard 0 must still be what it
    // was.
    decode_ok &= pool
        .iter()
        .zip(&originals)
        .all(|(s, o)| s.shard(0) == o.as_slice());
    out.gate("decoded blocks still hold their original bytes", decode_ok);
    out.layer.set("encoder.decode_pps", median(&decode_pps));
    out.e2e.set("setup_s", lower_quartile(&setup_secs));
    // The delay a user of the codec waits: reconstructing one block.  The
    // median and the p99 per slice; over slices the estimators of `stats`.
    out.e2e.set("delay_p50_us", lower_quartile(&p50s));
    if pools.p99s().is_empty() {
        // A smoke run is too short for a p99: the slowest slice median.
        out.e2e
            .set("delay_p99_us", p50s.iter().copied().fold(0.0, f64::max));
    } else {
        out.e2e.set("delay_p99_us", least(pools.p99s()));
    }
    let decode_slices = decode_pps.len();
    out.notes.push(format!(
        "{slices} encode runs of {packets} packets; {decode_slices} decode slices, {samples} samples of {CHUNK} blocks"
    ));
    out.note_trials("per-slice encode ns/pkt", &encode_ns_per_pkt, 2);
    out.note_trials("per-slice decode p50 (us)", &p50s, 2);
    out.note_trials("per-slice decode p99 (us)", pools.p99s(), 2);
    // Before the probes of a traced run can raise the mark.
    out.e2e.set("peak_rss_mb", procfs::peak_rss_mib());
    if opts.traced {
        // Figure 10's scaling claim, as a diagnostic: on a two-vCPU guest
        // whose second vCPU comes and goes it reads anywhere from 1.0 to 2.0.
        affinity::pin(&cpus);
        let pps_2t: Vec<f64> = (0..opts.repeats())
            .map(|_| engine(2).run(4 * packets).ingress_pps())
            .collect();
        out.layer.set("encoder.pps_2t", median(&pps_2t));
        out.layer.set(
            "encoder.scaling_2t",
            median(&pps_2t) / median(&encode_pps).max(1.0),
        );
        probes::erasure_layers(opts, &mut out);
    }
    affinity::pin(&cpus);
    Ok(out)
}
