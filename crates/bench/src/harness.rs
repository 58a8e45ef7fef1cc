//! Shared utilities for the figure suites.

use std::fs;
use std::path::{Path, PathBuf};

use jqos_core::{ExperimentSuite, SuiteReport, SweepPoint};
use netsim::stats::{Cdf, PointStats};

use crate::json::{json_struct, pretty, ToJson};

/// Where wall-clock-derived documents are written: `$JQOS_FIGURES_DIR` if
/// set, else `target/figures/` relative to the working directory.
pub fn figures_dir() -> PathBuf {
    PathBuf::from(std::env::var("JQOS_FIGURES_DIR").unwrap_or_else(|_| "target/figures".into()))
}

/// Where the deterministic figure documents are committed: `results/` at the
/// root of the workspace this crate was built in.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join("results")
}

/// The documents one figure run produced, each as `(name, JSON text)`.
#[derive(Debug, Default)]
pub struct Documents {
    /// Deterministic data, a function of the code and the seeds only: bound
    /// for [`results_dir`], where it is committed.
    pub data: Vec<(&'static str, String)>,
    /// Documents whose data is wall-clock time, bound for [`figures_dir`].
    pub timing: Vec<(String, String)>,
}

impl Documents {
    /// Adds a deterministic document.
    pub fn data<T: ToJson>(&mut self, name: &'static str, value: &T) {
        self.data.push((name, pretty(value) + "\n"));
    }

    /// Adds a wall-clock-derived document.
    pub fn timing<T: ToJson>(&mut self, name: String, value: &T) {
        self.timing.push((name, pretty(value) + "\n"));
    }

    /// Writes every document as `<name>.json`: data under [`results_dir`],
    /// timing under [`figures_dir`].
    pub fn write(&self) {
        let data = self.data.iter().map(|(n, t)| (results_dir(), *n, t));
        let timing = self
            .timing
            .iter()
            .map(|(n, t)| (figures_dir(), n.as_str(), t));
        for (dir, name, text) in data.chain(timing) {
            fs::create_dir_all(&dir).expect("create the output directory");
            let path = dir.join(format!("{name}.json"));
            fs::write(&path, text).expect("write figure document");
            println!("  [written to {}]", path.display());
        }
    }
}

json_struct! {
    /// The machine and build that produced a document, so a wall-clock in it
    /// can be read.  Same field names as the benchmark's environment stamp
    /// (`benchmark/src/procfs.rs`); a field that cannot be read says
    /// `unknown`.
    pub struct Environment {
        /// Cores available to this process.
        pub nproc: usize,
        /// `model name` of the first CPU in `/proc/cpuinfo`.
        pub cpu_model: String,
        /// The SIMD feature flags the coding kernel dispatches on.
        pub cpu_flags: String,
        /// Kernel release.
        pub kernel: String,
        /// `rustc -V`.
        pub rustc: String,
        /// Short hash of the checked-out commit.
        pub git_rev: String,
    }
}

/// First `key : value` of `/proc/cpuinfo`-style text.
fn cpuinfo_field(cpuinfo: &str, key: &str) -> Option<String> {
    cpuinfo.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// The SIMD-relevant subset of a `/proc/cpuinfo` flags line (the full list is
/// hundreds of entries).
fn simd_flags(flags: &str) -> String {
    const SIMD: [&str; 10] = [
        "sse2",
        "ssse3",
        "sse4_1",
        "sse4_2",
        "avx",
        "avx2",
        "avx512f",
        "avx512bw",
        "gfni",
        "pclmulqdq",
    ];
    flags
        .split_whitespace()
        .filter(|f| SIMD.contains(f))
        .collect::<Vec<_>>()
        .join(" ")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Probes the machine for the [`Environment`] stamp.
pub fn environment() -> Environment {
    let unknown = || "unknown".to_string();
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    Environment {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model: cpuinfo_field(&cpuinfo, "model name").unwrap_or_else(unknown),
        cpu_flags: cpuinfo_field(&cpuinfo, "flags").map_or_else(unknown, |f| simd_flags(&f)),
        kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| unknown(), |s| s.trim().to_string()),
        rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        git_rev: command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
    }
}

json_struct! {
    /// A named distribution, serialised with its CDF points for plotting.
    pub struct Series {
        /// Legend label.
        pub label: String,
        /// Number of samples behind the series.
        pub count: usize,
        /// Mean of the samples.
        pub mean: f64,
        /// Selected percentiles (p10 … p99).
        pub percentiles: Vec<(f64, f64)>,
        /// Down-sampled `(value, cumulative_fraction)` points.
        pub cdf: Vec<(f64, f64)>,
    }
}

impl Series {
    /// Builds a series from raw samples.
    pub fn from_samples(label: &str, samples: Vec<f64>) -> Self {
        let mut cdf = Cdf::from_samples(samples);
        let percentiles = [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99]
            .iter()
            .map(|&q| (q, cdf.quantile(q).unwrap_or(0.0)))
            .collect();
        Series {
            label: label.to_string(),
            count: cdf.len(),
            mean: cdf.mean().unwrap_or(0.0),
            percentiles,
            cdf: cdf.cdf_points(64),
        }
    }

    /// Prints the series as a fixed-width row of percentiles.
    pub fn print_row(&self) {
        print!(
            "  {:<26} n={:<7} mean={:>8.2}",
            self.label, self.count, self.mean
        );
        for (q, v) in &self.percentiles {
            print!("  p{:<2.0}={:>8.2}", q * 100.0, v);
        }
        println!();
    }
}

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

json_struct! {
    /// Wall-clock of one sweep point, as serialised into a [`SweepTiming`].
    pub struct PointTiming {
        /// The point's grid label.
        pub label: String,
        /// Wall-clock milliseconds the point took.
        pub wall_ms: f64,
    }
}

json_struct! {
    /// Timing summary of one [`ExperimentSuite`] execution: what the figure
    /// cost to draw on the stamped machine, not a speed measurement of the
    /// program (those come from `benchmark/`).
    pub struct SweepTiming {
        /// The machine the wall-clocks below were taken on.
        pub environment: Environment,
        /// Suite name.
        pub suite: String,
        /// Worker threads used.
        pub threads: usize,
        /// Number of grid points executed.
        pub points: usize,
        /// End-to-end wall-clock of the sweep (ms).
        pub total_wall_ms: f64,
        /// Sum of per-point wall-clocks (serial-equivalent work, ms).
        pub busy_ms: f64,
        /// `busy_ms / total_wall_ms`: observed parallel speedup.
        pub effective_parallelism: f64,
        /// Wall-clock of the 1-thread verification run, when one was made.
        pub baseline_1thread_ms: Option<f64>,
        /// Whether the N-thread report was byte-identical to the 1-thread
        /// replay.
        pub deterministic_replay: Option<bool>,
        /// Per-point wall-clocks, in grid order.
        pub per_point: Vec<PointTiming>,
    }
}

/// Builds the serialisable timing summary of a finished sweep.
fn sweep_timing(out: &SuiteReport) -> SweepTiming {
    SweepTiming {
        environment: environment(),
        suite: out.name.clone(),
        threads: out.threads,
        points: out.point_wall_ms.len(),
        total_wall_ms: out.total_wall_ms,
        busy_ms: out.busy_ms(),
        effective_parallelism: out.effective_parallelism(),
        baseline_1thread_ms: None,
        deterministic_replay: None,
        per_point: out
            .point_labels
            .iter()
            .zip(&out.point_wall_ms)
            .map(|(label, &wall_ms)| PointTiming {
                label: label.clone(),
                wall_ms,
            })
            .collect(),
    }
}

/// Executes a suite on `threads` workers and prints its per-point /
/// aggregate wall-clock summary.
///
/// With `baseline` set and more than one worker in use, the sweep is
/// replayed on a single thread and the two reports are asserted
/// byte-identical — the deterministic-replay guarantee.  The timing
/// summary (baseline fields included) joins `docs` as `<suite>_timing`.
pub fn run_suite<P, R>(
    suite: &ExperimentSuite<P, R>,
    threads: usize,
    baseline: bool,
    docs: &mut Documents,
) -> SuiteReport
where
    P: Clone + Sync,
    R: Fn(&SweepPoint<P>) -> PointStats + Sync,
{
    let out = suite.run(threads);
    out.print_timing_summary();
    println!(
        "  [sweep {}] report digest (FNV-1a) {:#018x}",
        suite.name(),
        out.fingerprint()
    );
    let mut timing = sweep_timing(&out);
    if baseline && out.threads > 1 {
        let baseline = suite.run(1);
        let identical = baseline.digest() == out.digest();
        println!(
            "  [sweep {}] 1-thread baseline {:.1} ms; deterministic replay: {}",
            suite.name(),
            baseline.total_wall_ms,
            if identical { "OK" } else { "MISMATCH" },
        );
        timing.baseline_1thread_ms = Some(baseline.total_wall_ms);
        timing.deterministic_replay = Some(identical);
        assert!(
            identical,
            "sweep '{}' diverged between 1-thread and {}-thread execution",
            suite.name(),
            out.threads
        );
    }
    docs.timing(format!("{}_timing", suite.name()), &timing);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_summarises_samples() {
        let s = Series::from_samples("test", (1..=100).map(|x| x as f64).collect());
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.percentiles.len(), 7);
        assert!(!s.cdf.is_empty());
    }

    #[test]
    fn cpuinfo_fields_parse_from_literal_text() {
        let text = "processor\t: 0\nmodel name\t: Test CPU @ 2GHz\n\
                    flags\t\t: fpu sse2 ht ssse3 avx2 rdrand\n\
                    processor\t: 1\nmodel name\t: Other\n";
        assert_eq!(
            cpuinfo_field(text, "model name").as_deref(),
            Some("Test CPU @ 2GHz"),
            "the first match wins"
        );
        let flags = cpuinfo_field(text, "flags").expect("flags line");
        assert_eq!(simd_flags(&flags), "sse2 ssse3 avx2");
        assert_eq!(cpuinfo_field(text, "bogomips"), None);
        assert_eq!(cpuinfo_field("no colon here", "model name"), None);
    }
}
