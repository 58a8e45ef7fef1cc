//! What one workload run is asked to do and what it hands back.

use crate::spec::{Metrics, END_TO_END, PER_LAYER};

/// Fewest trials behind any number, and repeats of a layer probe.  The issue
/// sized the suite at 5; the driver's time cap (158 runs in 3420 s) is
/// tighter, so repeats — not trial length — were cut, to the floor of 3.
pub const REPEATS: usize = 3;

/// Options of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Seconds to spend measuring.
    pub seconds: f64,
    /// Record spans, count allocations, run layer probes and diagnostics.
    pub traced: bool,
    /// One short trial per phase, gates only: not a measurement.
    pub smoke: bool,
}

impl RunOpts {
    /// Fewest trials behind any number of this run.
    pub fn repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            REPEATS
        }
    }

    /// Seconds a layer probe loops for per repeat.
    pub fn probe_seconds(&self) -> f64 {
        if self.smoke {
            0.005
        } else {
            0.05
        }
    }
}

/// Result of one workload run.
pub struct Outcome {
    /// Operations attempted (relay: latency-phase operations; simulator:
    /// scenario runs; encoder: sampled batches).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (filled by traced runs).
    pub layer: Metrics,
    /// Correctness gates: `(what was checked, whether it held)`.
    pub gates: Vec<(String, bool)>,
    /// Free-text lines for the human report (digests, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An empty outcome.
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            e2e: Metrics::new(&END_TO_END),
            layer: Metrics::new(&PER_LAYER),
            gates: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Notes the per-trial values behind a number, so that the report shows
    /// every trial made.
    pub fn note_trials(&mut self, what: &str, values: &[f64], decimals: usize) {
        let list: Vec<String> = values.iter().map(|v| format!("{v:.decimals$}")).collect();
        self.notes.push(format!("{what}: {}", list.join(" ")));
    }

    /// Records a gate.
    pub fn gate(&mut self, what: impl Into<String>, held: bool) {
        self.gates.push((what.into(), held));
    }

    /// Whether every gate held and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|(_, ok)| *ok)
    }
}
