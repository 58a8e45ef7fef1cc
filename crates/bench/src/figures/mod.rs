//! The figure suites of the evaluation, each expressed as an
//! [`jqos_core::ExperimentSuite`] grid and run through the umbrella CLI
//! (`jqos sweep --fig 7`).
//!
//! | id          | suite                                           |
//! |-------------|--------------------------------------------------|
//! | `7`         | [`fig7`] — service feasibility (latency CDFs)    |
//! | `8`         | [`fig8`] — CR-WAN on the PlanetLab path set      |
//! | `9a`        | [`fig9a`] — Skype QoE under an outage            |
//! | `9b`        | [`fig9b`] — TCP flow-completion-time tail        |
//! | `10`        | [`fig10`] — encoder thread scaling               |
//! | `65`        | [`sec65`] — mobile feasibility                   |
//! | `66`        | [`sec66`] — deployment cost + coding overhead    |
//! | `fleet`     | [`fleet`] — DC-fleet failover control plane      |
//! | `city`      | [`city`] — city-scale populations by flow class  |

pub mod city;
pub mod fig10;
pub mod fig7;
pub mod fig8;
pub mod fig9a;
pub mod fig9b;
pub mod fleet;
pub mod sec65;
pub mod sec66;

/// The figure ids `run_figure` accepts.
pub const FIGURE_IDS: [&str; 9] = ["7", "8", "9a", "9b", "10", "65", "66", "fleet", "city"];

/// Runs the suite behind one figure id on `threads` sweep workers, replaying
/// it on one thread to prove determinism when `baseline` is set (figure 10
/// times whole runs and takes neither).  Returns `false` for an
/// unknown id.
pub fn run_figure(fig: &str, threads: usize, baseline: bool) -> bool {
    match fig
        .trim()
        .trim_start_matches("fig")
        .trim_start_matches("sec")
    {
        "7" => fig7::run(threads, baseline),
        "8" => fig8::run(threads, baseline),
        "9a" => fig9a::run(threads, baseline),
        "9b" => fig9b::run(threads, baseline),
        "10" => fig10::run(),
        "65" | "6.5" => sec65::run(threads, baseline),
        "66" | "6.6" => sec66::run(threads, baseline),
        "fleet" => fleet::run(threads, baseline),
        "city" => city::run(threads, baseline),
        _ => return false,
    }
    true
}
