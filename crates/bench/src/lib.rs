//! # jqos-bench — the suites that regenerate the paper's figures
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
//!
//! Every suite runs at the paper's size, prints the series it produces and
//! returns them as JSON documents ([`json`], [`harness::Documents`]): the
//! deterministic data is written to `results/` at the workspace root, where
//! it is committed and checked byte for byte by `tests/figures.rs`, and the
//! wall-clocks to `target/figures/`.  Speed numbers (relay cost and latency,
//! simulator events/s, encoder rate) are the business of the standalone
//! benchmark in `benchmark/`, not of this crate.
//!
//! Each figure is defined as an [`jqos_core::ExperimentSuite`] in
//! [`figures`]: a declarative grid of scenario points executed across worker
//! threads with deterministic per-point seeding, so an `N`-thread sweep is
//! byte-identical to a 1-thread replay.  Per-sweep wall-clock timing is
//! printed, and written with the machine that took it to
//! `target/figures/<suite>_timing.json`.  [`stress`] is not a figure: it is the
//! large-topology scenario the end-to-end tests replay across scheduler
//! backends and thread counts against golden digests.

pub mod figures;
pub mod harness;
pub mod json;
pub mod stress;
