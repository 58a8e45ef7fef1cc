//! # jqos-bench — the benchmark harness that regenerates the paper's figures
//!
//! One suite per figure / table of the evaluation (§6), run through the
//! umbrella CLI as `jqos sweep --fig <id>`:
//!
//! | `--fig`  | Reproduces                                                        |
//! |----------|-------------------------------------------------------------------|
//! | `7`      | Fig. 7(a–d): service latency CDFs, recovery/RTT, δ distributions   |
//! | `8`      | Fig. 8(a–e): CR-WAN recovery on the PlanetLab-like path set        |
//! | `9a`     | Fig. 9(a): PSNR CDFs for the video-conferencing case study          |
//! | `9b`     | Fig. 9(b): TCP flow-completion-time tail, plus the NACK ablation    |
//! | `10`     | Fig. 10: encoder throughput vs. number of threads                   |
//! | `65`     | §6.5: mobile feasibility (bandwidth, energy, latency)               |
//! | `66`     | §6.6: deployment cost and coding-overhead table                     |
//! | `fleet`  | DC-fleet failover under the control plane                           |
//! | `city`   | City-scale populations by flow class                                |
//! | `stress` | Scheduler stress: heap backend vs calendar queue events/sec         |
//!
//! Every suite prints the series it produces and also dumps them as JSON
//! under `target/figures/`.  Criterion benches (`encoding_scaling`,
//! `services_micro`, `ablations`) cover the performance-oriented
//! measurements, and [`netload`] (`jqos loadgen`) drives the live relay.
//!
//! Each figure is defined as an [`jqos_core::ExperimentSuite`] in
//! [`figures`]: a declarative grid of scenario points executed across worker
//! threads with deterministic per-point seeding, so an `N`-thread sweep is
//! byte-identical to a 1-thread replay.  Per-sweep wall-clock timing lands in
//! `target/figures/BENCH_sweep_*.json`.

pub mod figures;
pub mod harness;
pub mod netload;
pub mod stress;
