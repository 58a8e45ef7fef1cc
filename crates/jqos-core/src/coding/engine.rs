//! The standalone multi-threaded encoding engine (§6.6, Figure 10).
//!
//! The paper benchmarks the most computationally expensive part of CR-WAN —
//! generating coded packets at DC1 — and shows that throughput scales
//! linearly with the number of encoding threads (≈65 Kpps per thread, up to
//! ≈500 Kpps with eight threads on their testbed).  [`EncodingEngine`]
//! reproduces that experiment: incoming streams are partitioned across
//! encoder threads (mirroring the paper's load balancing of streams to
//! threads), and each thread runs the same Reed–Solomon block code used by
//! the in-line service.

use erasure::rs::ReedSolomon;
use erasure::shards::ShardSet;

/// Configuration of the engine benchmark.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of encoder threads.
    pub threads: usize,
    /// Data packets per coded block (the paper generates one coded packet per
    /// five data packets in this benchmark).
    pub block_size: usize,
    /// Parity packets per block.
    pub parity: usize,
    /// Payload size of each packet in bytes (the paper assumes ~512 B).
    pub packet_bytes: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 1,
            block_size: 5,
            parity: 1,
            packet_bytes: 512,
        }
    }
}

/// Result of one engine run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineReport {
    /// Data packets consumed (ingress).
    pub packets_in: u64,
    /// Coded packets produced (egress toward DC2).
    pub coded_out: u64,
    /// Wall-clock seconds the run took.
    pub elapsed_secs: f64,
}

impl EngineReport {
    /// Ingress throughput in packets per second.
    pub fn ingress_pps(&self) -> f64 {
        if self.elapsed_secs == 0.0 {
            0.0
        } else {
            self.packets_in as f64 / self.elapsed_secs
        }
    }

    /// Egress (coded) throughput in packets per second.
    pub fn egress_pps(&self) -> f64 {
        if self.elapsed_secs == 0.0 {
            0.0
        } else {
            self.coded_out as f64 / self.elapsed_secs
        }
    }
}

/// A multi-threaded packet encoder.
pub struct EncodingEngine {
    config: EngineConfig,
}

impl EncodingEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.threads >= 1, "at least one encoder thread required");
        assert!(config.block_size >= 2, "block size must be at least 2");
        EncodingEngine { config }
    }

    /// Encodes `total_packets` synthetic packets, spread evenly over the
    /// configured threads, and reports the achieved throughput.
    ///
    /// Each thread owns its stream partition (the paper load-balances streams
    /// to threads the same way), so there is no cross-thread synchronisation
    /// in the hot path.
    pub fn run(&self, total_packets: u64) -> EngineReport {
        let threads = self.config.threads;
        let per_thread = total_packets / threads as u64;
        let block = self.config.block_size;
        let parity = self.config.parity;
        let bytes = self.config.packet_bytes;

        let start = std::time::Instant::now();
        let coded_total: u64 = std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(threads);
            for t in 0..threads {
                handles.push(s.spawn(move || {
                    let rs = ReedSolomon::new(block, parity).expect("valid code");
                    // One slab per thread, reused for every block; refill
                    // payloads per iteration to defeat trivial caching.
                    let mut set = ShardSet::new(block, parity, bytes);
                    let mut coded = 0u64;
                    let mut produced = 0u64;
                    let mut counter: u64 = t as u64;
                    while produced < per_thread {
                        for i in 0..block {
                            counter = counter.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let fill = (counter >> 32) as u8;
                            let shard = set.data_mut(i);
                            shard[0] = fill;
                            shard[bytes / 2] = fill ^ 0x5A;
                            let last = bytes - 1;
                            shard[last] = fill.wrapping_add(1);
                        }
                        rs.encode_into(&mut set).expect("encode");
                        coded += parity as u64;
                        produced += block as u64;
                    }
                    coded
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("encoder thread"))
                .sum()
        });

        EngineReport {
            packets_in: per_thread * threads as u64,
            coded_out: coded_total,
            elapsed_secs: start.elapsed().as_secs_f64(),
        }
    }

    /// Runs a short calibration to estimate single-thread throughput in
    /// packets per second.
    pub fn calibrate(&self) -> f64 {
        let single = EncodingEngine::new(EngineConfig {
            threads: 1,
            ..self.config
        });
        single.run(50_000).ingress_pps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_produces_expected_coded_ratio() {
        let engine = EncodingEngine::new(EngineConfig {
            threads: 1,
            block_size: 5,
            parity: 1,
            packet_bytes: 512,
        });
        let report = engine.run(10_000);
        assert_eq!(report.packets_in, 10_000);
        assert_eq!(report.coded_out, 2_000);
        assert!(report.ingress_pps() > 0.0);
        assert!(report.egress_pps() > 0.0);
    }

    #[test]
    fn multi_thread_splits_work() {
        let engine = EncodingEngine::new(EngineConfig {
            threads: 4,
            block_size: 5,
            parity: 1,
            packet_bytes: 256,
        });
        let report = engine.run(20_000);
        assert_eq!(report.packets_in, 20_000);
        assert_eq!(report.coded_out, 4_000);
    }

    #[test]
    fn thread_count_does_not_change_the_work_done() {
        // What Figure 10 varies is speed, and that is the benchmark's to
        // measure (`encoder.scaling_2t`); what must hold on any machine is
        // that one and two threads code the same packets into the same
        // number of coded packets.
        let run = |threads| {
            EncodingEngine::new(EngineConfig {
                threads,
                block_size: 5,
                parity: 1,
                packet_bytes: 512,
            })
            .run(60_000)
        };
        let (single, dual) = (run(1), run(2));
        assert_eq!(single.packets_in, 60_000);
        assert_eq!(dual.packets_in, single.packets_in);
        assert_eq!(dual.coded_out, single.coded_out);
    }

    #[test]
    #[should_panic(expected = "at least one encoder thread")]
    fn zero_threads_is_rejected() {
        EncodingEngine::new(EngineConfig {
            threads: 0,
            ..EngineConfig::default()
        });
    }
}
