//! Declarative scenario grids executed across worker threads.
//!
//! Every figure of the paper's evaluation is some sweep over scenario
//! parameters.  [`SweepGrid`] expresses it as one labelled *payload* axis —
//! whatever the figure varies: a path index, a loss model, a fleet
//! configuration — crossed with a seed axis; a figure that varies two things
//! composes its axes with [`cross`] first.  [`ExperimentSuite`] executes the
//! resulting [`SweepPoint`]s across worker threads and aggregates the
//! per-point [`PointStats`] into a [`netsim::stats::SweepReport`].
//!
//! # Determinism
//!
//! Each point derives its randomness from `(master_seed, point_index)` —
//! never from which worker ran it or in what order — so an `N`-thread run is
//! byte-identical to a single-thread run of the same grid
//! ([`SweepReport::render_deterministic`] compares equal).  Wall-clock timing
//! is reported separately in [`SuiteReport`] and is deliberately excluded
//! from the deterministic output.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use netsim::rng::{component_rng, derive_seed};
use netsim::stats::{PointStats, SweepReport};
use rand::rngs::SmallRng;

/// The cartesian product of two labelled axes, `outer`-major, joining the
/// labels with `/` — how a figure that sweeps two things builds the payload
/// axis of its [`SweepGrid`].
///
/// ```
/// use jqos_core::experiment::sweep::cross;
///
/// let axis = cross(&[("a", 1), ("b", 2)], &[("x", 0.5)]);
/// assert_eq!(axis[1], ("b/x".to_string(), (2, 0.5)));
/// ```
pub fn cross<A: Clone, B: Clone>(
    outer: &[(impl AsRef<str>, A)],
    inner: &[(impl AsRef<str>, B)],
) -> Vec<(String, (A, B))> {
    let mut out = Vec::with_capacity(outer.len() * inner.len());
    for (outer_label, a) in outer {
        for (inner_label, b) in inner {
            out.push((
                format!("{}/{}", outer_label.as_ref(), inner_label.as_ref()),
                (a.clone(), b.clone()),
            ));
        }
    }
    out
}

/// A declarative grid of scenario points: one labelled payload axis crossed
/// with a seed axis.
///
/// Point order is the deterministic nested-loop order with the payload axis
/// outermost and seeds innermost.  A fresh grid has the single unlabelled
/// payload `()`, so a pure seed sweep needs no axis at all.
///
/// ```
/// use jqos_core::SweepGrid;
/// use netsim::loss::LossSpec;
///
/// let grid = SweepGrid::new().replicates(3).axis(vec![
///     ("p1", LossSpec::Bernoulli(0.01)),
///     ("p5", LossSpec::Bernoulli(0.05)),
/// ]);
/// // 2 loss models × 3 seeds.
/// assert_eq!(grid.len(), 6);
/// ```
#[derive(Clone, Debug)]
pub struct SweepGrid<P = ()> {
    seeds: Vec<u64>,
    payloads: Vec<(String, P)>,
}

impl Default for SweepGrid {
    fn default() -> Self {
        SweepGrid::new()
    }
}

impl SweepGrid {
    /// A 1×1 grid: seed 0, the unlabelled payload `()`.
    pub fn new() -> Self {
        SweepGrid {
            seeds: vec![0],
            payloads: vec![(String::new(), ())],
        }
    }
}

impl<P> SweepGrid<P> {
    /// Replaces the seed axis (one replicate per seed value).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        assert!(!self.seeds.is_empty(), "seed axis must not be empty");
        self
    }

    /// Shorthand for `count` consecutive replicate seeds `0..count`.
    pub fn replicates(self, count: usize) -> Self {
        self.seeds(0..count as u64)
    }

    /// Replaces the payload axis.
    pub fn axis<Q>(self, entries: Vec<(impl Into<String>, Q)>) -> SweepGrid<Q> {
        assert!(!entries.is_empty(), "payload axis must not be empty");
        SweepGrid {
            seeds: self.seeds,
            payloads: entries.into_iter().map(|(l, v)| (l.into(), v)).collect(),
        }
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.seeds.len() * self.payloads.len()
    }

    /// `true` only for a degenerate grid (never: axes are non-empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialises the grid into points, stamping each with the suite's
    /// master seed and its own index.
    fn points(&self, master_seed: u64) -> Vec<SweepPoint<P>>
    where
        P: Clone,
    {
        let mut out = Vec::with_capacity(self.len());
        for (label, payload) in &self.payloads {
            for (seed_idx, &seed) in self.seeds.iter().enumerate() {
                out.push(SweepPoint {
                    index: out.len(),
                    master_seed,
                    seed,
                    seed_idx,
                    payload: payload.clone(),
                    payload_label: label.clone(),
                });
            }
        }
        out
    }
}

/// One fully resolved point of a [`SweepGrid`].
#[derive(Clone, Debug)]
pub struct SweepPoint<P = ()> {
    /// Position in grid order (stable across runs and thread counts).
    pub index: usize,
    /// The suite's master seed.
    pub master_seed: u64,
    /// Seed-axis value.
    pub seed: u64,
    /// Index into the seed axis.
    pub seed_idx: usize,
    /// Payload-axis value.
    pub payload: P,
    /// Payload-axis label (empty on the unlabelled `()` axis).
    pub payload_label: String,
}

impl<P> SweepPoint<P> {
    /// The scenario seed for this point, derived from
    /// `(master_seed, point_index)` and the seed-axis value — independent of
    /// worker threads and execution order.
    pub fn scenario_seed(&self) -> u64 {
        derive_seed(derive_seed(self.master_seed, self.index as u64), self.seed)
    }

    /// A seed that is identical for points sharing a seed-axis value,
    /// whatever their payload.  Use this instead of
    /// [`SweepPoint::scenario_seed`] for *paired* comparisons — e.g. running
    /// the same path (seed axis) under two coding variants against the same
    /// loss realisation, so the variant delta is not polluted by seed noise.
    pub fn paired_seed(&self) -> u64 {
        derive_seed(self.master_seed, self.seed)
    }

    /// A `SmallRng` private to this point, for runners that need randomness
    /// outside the simulator (e.g. synthetic path generation).
    ///
    /// Drawn from a reserved stream so it never collides with the node RNG
    /// streams (raw node indices) of a simulator seeded with
    /// [`SweepPoint::scenario_seed`] — the same separation links get from
    /// [`netsim::rng::link_stream`].
    pub fn rng(&self) -> SmallRng {
        const POINT_RNG_STREAM: u64 = 0x504F_494E_5452_4E47; // "POINTRNG"
        component_rng(self.scenario_seed(), POINT_RNG_STREAM)
    }

    /// Human-readable label: the payload label (if any), then the seed.
    pub fn label(&self) -> String {
        if self.payload_label.is_empty() {
            format!("s{}", self.seed)
        } else {
            format!("{}/s{}", self.payload_label, self.seed)
        }
    }
}

/// Runs `parts` independent link-group computations on up to `threads`
/// workers and returns their results in group order.
///
/// This is the one worker pool of the experiment layer —
/// [`ExperimentSuite::run`] executes its grid points on it too.  Results
/// land in a slot vector indexed by group, so scheduling never leaks into
/// the output, and each group must derive its randomness from its own index
/// (see [`netsim::rng::group_seed`]) — under those rules any `threads` value
/// returns byte-identical results.
///
/// ```
/// use jqos_core::experiment::sweep::run_link_groups;
///
/// let serial = run_link_groups(8, 1, |g| g * g);
/// let parallel = run_link_groups(8, 4, |g| g * g);
/// assert_eq!(serial, parallel);
/// assert_eq!(serial[3], 9);
/// ```
pub fn run_link_groups<T, F>(parts: usize, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(parts.max(1));
    if threads == 1 {
        return (0..parts).map(&run).collect();
    }
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..parts).map(|_| None).collect());
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= parts {
                    break;
                }
                let result = run(idx);
                slots.lock().expect("link-group slot lock")[idx] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("link-group slot lock")
        .into_iter()
        .map(|slot| slot.expect("every link group must complete"))
        .collect()
}

/// A named experiment: a grid plus the runner that turns one point into its
/// [`PointStats`].
///
/// The runner must be a pure function of the point (all randomness through
/// [`SweepPoint::scenario_seed`] / [`SweepPoint::rng`]); the suite then
/// guarantees that any thread count produces the identical report:
///
/// ```
/// use jqos_core::{ExperimentSuite, SweepGrid};
/// use netsim::stats::PointStats;
///
/// let grid = SweepGrid::new().replicates(4);
/// let suite = ExperimentSuite::new("doubles", 7, grid, |point| {
///     PointStats::new("").metric("double", (point.index * 2) as f64)
/// });
/// let serial = suite.run(1);
/// let parallel = suite.run(2);
/// assert_eq!(serial.digest(), parallel.digest());
/// assert_eq!(serial.report.metric_series("double"), vec![0.0, 2.0, 4.0, 6.0]);
/// ```
pub struct ExperimentSuite<P, R>
where
    R: Fn(&SweepPoint<P>) -> PointStats + Sync,
{
    name: String,
    master_seed: u64,
    grid: SweepGrid<P>,
    runner: R,
}

impl<P, R> ExperimentSuite<P, R>
where
    P: Clone + Sync,
    R: Fn(&SweepPoint<P>) -> PointStats + Sync,
{
    /// Creates a suite.
    pub fn new(name: impl Into<String>, master_seed: u64, grid: SweepGrid<P>, runner: R) -> Self {
        ExperimentSuite {
            name: name.into(),
            master_seed,
            grid,
            runner,
        }
    }

    /// The suite's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of grid points the suite will execute.
    pub fn point_count(&self) -> usize {
        self.grid.len()
    }

    /// Executes every grid point on `threads` worker threads
    /// ([`run_link_groups`], so completion order never leaks into the
    /// report) and returns the aggregated report plus timing.
    pub fn run(&self, threads: usize) -> SuiteReport {
        let points = self.grid.points(self.master_seed);
        let threads = threads.max(1).min(points.len().max(1));
        let started = Instant::now();
        let outcomes = run_link_groups(points.len(), threads, |idx| {
            let point = &points[idx];
            let t0 = Instant::now();
            let mut stats = (self.runner)(point);
            if stats.label.is_empty() {
                stats.label = point.label();
            }
            (stats, t0.elapsed().as_secs_f64() * 1_000.0)
        });
        let total_wall_ms = started.elapsed().as_secs_f64() * 1_000.0;

        let mut report = SweepReport::new();
        let mut point_wall_ms = Vec::with_capacity(points.len());
        for (stats, wall) in outcomes {
            point_wall_ms.push(wall);
            report.push(stats);
        }
        SuiteReport {
            name: self.name.clone(),
            threads,
            report,
            point_labels: points.iter().map(SweepPoint::label).collect(),
            point_wall_ms,
            total_wall_ms,
        }
    }
}

/// The outcome of one [`ExperimentSuite::run`]: the deterministic
/// [`SweepReport`] plus per-point and aggregate wall-clock timing.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// Suite name.
    pub name: String,
    /// Worker threads actually used.
    pub threads: usize,
    /// Deterministic per-point results (identical for any thread count).
    pub report: SweepReport,
    /// Per-point labels, in grid order.
    pub point_labels: Vec<String>,
    /// Per-point wall-clock in milliseconds, in grid order.
    pub point_wall_ms: Vec<f64>,
    /// End-to-end wall-clock of the whole sweep in milliseconds.
    pub total_wall_ms: f64,
}

impl SuiteReport {
    /// Sum of the per-point wall-clocks — the serial-equivalent work.
    pub fn busy_ms(&self) -> f64 {
        self.point_wall_ms.iter().sum()
    }

    /// Ratio of serial-equivalent work to elapsed wall-clock: ≈1 on one
    /// thread, approaching the thread count under perfect scaling.
    pub fn effective_parallelism(&self) -> f64 {
        if self.total_wall_ms <= 0.0 {
            0.0
        } else {
            self.busy_ms() / self.total_wall_ms
        }
    }

    /// The canonical byte-stable rendering of the deterministic results (see
    /// [`SweepReport::render_deterministic`]).
    pub fn digest(&self) -> String {
        self.report.render_deterministic()
    }

    /// FNV-1a of [`SuiteReport::digest`]: sixteen hex digits that differ
    /// whenever the deterministic results do, so two runs can be compared by
    /// eye.
    pub fn fingerprint(&self) -> u64 {
        self.digest().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Prints the per-point and aggregate wall-clock summary.
    pub fn print_timing_summary(&self) {
        println!(
            "  [sweep {}] {} points on {} thread(s): total {:.1} ms, busy {:.1} ms, effective parallelism {:.2}x",
            self.name,
            self.point_wall_ms.len(),
            self.threads,
            self.total_wall_ms,
            self.busy_ms(),
            self.effective_parallelism(),
        );
        // The slowest points dominate the wall-clock; list up to five.
        let mut order: Vec<usize> = (0..self.point_wall_ms.len()).collect();
        order.sort_by(|&a, &b| {
            self.point_wall_ms[b]
                .partial_cmp(&self.point_wall_ms[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for &i in order.iter().take(5) {
            println!(
                "    point {:>4} {:<28} {:>9.2} ms",
                i, self.point_labels[i], self.point_wall_ms[i]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn variants() -> Vec<(&'static str, u64)> {
        vec![("a", 0), ("b", 1)]
    }

    fn losses() -> Vec<(&'static str, f64)> {
        vec![("p1", 0.01), ("p5", 0.05)]
    }

    fn demo_grid() -> SweepGrid<(u64, f64)> {
        SweepGrid::new()
            .seeds([1, 2, 3])
            .axis(cross(&variants(), &losses()))
    }

    /// `(index, label, scenario_seed, paired_seed)` of every point.
    fn tuples<P: Clone>(grid: &SweepGrid<P>, master_seed: u64) -> Vec<(usize, String, u64, u64)> {
        grid.points(master_seed)
            .iter()
            .map(|p| (p.index, p.label(), p.scenario_seed(), p.paired_seed()))
            .collect()
    }

    fn expect(rows: &[(usize, &str, u64, u64)]) -> Vec<(usize, String, u64, u64)> {
        rows.iter()
            .map(|&(i, label, scenario, paired)| (i, label.to_string(), scenario, paired))
            .collect()
    }

    /// Point order, labels and seeds of the four multi-axis shapes the
    /// figures and integration tests use, as literal values captured from
    /// the seven-axis grid this type replaced: every committed figure series
    /// and golden digest depends on them.
    #[test]
    fn grid_order_labels_and_seeds_are_pinned() {
        // fig8: seeds × variants.
        let fig8 = SweepGrid::new()
            .seeds([0, 1, 2])
            .axis(vec![("cross2", 2u64), ("cross1", 1)]);
        assert_eq!(
            tuples(&fig8, 7),
            expect(&[
                (0, "cross2/s0", 0xb78b9f38a670e787, 0x12ae30237b17df14),
                (1, "cross2/s1", 0x9e6585305d1d1e16, 0xf75f04cbb5a1a1dd),
                (2, "cross2/s2", 0x64e236f0164a100e, 0xb3466f8a7b81a989),
                (3, "cross1/s0", 0x60960fd148961d77, 0x12ae30237b17df14),
                (4, "cross1/s1", 0xc70361c96dcf299e, 0xf75f04cbb5a1a1dd),
                (5, "cross1/s2", 0x6834ab2909c5a76a, 0xb3466f8a7b81a989),
            ])
        );
        // fleet: seeds × loss × fleet (fleet outside loss).
        let fleet = SweepGrid::new()
            .replicates(2)
            .axis(cross(&[("n3-rr", 3usize), ("n5-lba", 5)], &[("p2", 0.02)]));
        assert_eq!(
            tuples(&fleet, 23),
            expect(&[
                (0, "n3-rr/p2/s0", 0xe2459e5d568e881c, 0x378a5760be593ca5),
                (1, "n3-rr/p2/s1", 0xf8d135a5e0b3566e, 0xff49f9357523cf3e),
                (2, "n5-lba/p2/s0", 0xefe09f07258157ac, 0x378a5760be593ca5),
                (3, "n5-lba/p2/s1", 0x5812f794093f16ef, 0xff49f9357523cf3e),
            ])
        );
        // city: seeds × city.
        let city = SweepGrid::new().replicates(2).axis(vec![
            ("c100k-ph0-fcnone", 100_000u64),
            ("c1m-ph8-fcglobal", 1_000_000),
        ]);
        assert_eq!(
            tuples(&city, 29),
            expect(&[
                (
                    0,
                    "c100k-ph0-fcnone/s0",
                    0x54e1cd6142b0c906,
                    0x4f7abb7627b74f52
                ),
                (
                    1,
                    "c100k-ph0-fcnone/s1",
                    0xc3c18508123e11f2,
                    0xae9b71a31d422e93
                ),
                (
                    2,
                    "c1m-ph8-fcglobal/s0",
                    0xb66f9bcef788d33f,
                    0x4f7abb7627b74f52
                ),
                (
                    3,
                    "c1m-ph8-fcglobal/s1",
                    0x4d6275feadd10415,
                    0xae9b71a31d422e93
                ),
            ])
        );
        // tests/end_to_end.rs: seeds × loss × mix (mix outside loss).
        let e2e = SweepGrid::new().seeds([5, 6]).axis(cross(
            &[("caching", 1usize), ("coding4", 4)],
            &[("bern2", 0.02), ("burst", 0.01)],
        ));
        assert_eq!(
            tuples(&e2e, 2024),
            expect(&[
                (
                    0,
                    "caching/bern2/s5",
                    0x80cfe34ad9fa4bba,
                    0x3bbdabf6481ea868
                ),
                (
                    1,
                    "caching/bern2/s6",
                    0xf752364e1982ae39,
                    0x4003de40e3dcd1ae
                ),
                (
                    2,
                    "caching/burst/s5",
                    0xa9a257475cdcea20,
                    0x3bbdabf6481ea868
                ),
                (
                    3,
                    "caching/burst/s6",
                    0x3ed824a5b5393481,
                    0x4003de40e3dcd1ae
                ),
                (
                    4,
                    "coding4/bern2/s5",
                    0xcc0ed91987fd9883,
                    0x3bbdabf6481ea868
                ),
                (
                    5,
                    "coding4/bern2/s6",
                    0x0bc7c039c19963eb,
                    0x4003de40e3dcd1ae
                ),
                (
                    6,
                    "coding4/burst/s5",
                    0x14875eb3d11aee27,
                    0x3bbdabf6481ea868
                ),
                (
                    7,
                    "coding4/burst/s6",
                    0x5bfbdae1cd0e06b1,
                    0x4003de40e3dcd1ae
                ),
            ])
        );

        // The product is payload-major with seeds innermost, and every
        // point gets its own scenario seed.
        let points = demo_grid().points(9);
        assert_eq!(points.len(), 12);
        assert_eq!((points[0].seed, points[1].seed), (1, 2));
        assert_eq!(points[3].payload_label, "a/p5");
        assert_eq!(points[6].payload, (1, 0.01));
        let mut seeds: Vec<u64> = points.iter().map(|p| p.scenario_seed()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12);

        // A third axis composes the same way: it sits between the variant
        // (outermost) and the loss model, seeds stay innermost.
        let fleets = [("f3", 3usize), ("f5", 5)];
        let three = SweepGrid::new()
            .seeds([1, 2, 3])
            .axis(cross(&cross(&variants(), &fleets), &losses()));
        assert_eq!(three.len(), 24);
        let points = three.points(9);
        assert_eq!(points[0].label(), "a/f3/p1/s1");
        assert_eq!(points[5].payload, ((0, 3), 0.05));
        assert_eq!(points[6].label(), "a/f5/p1/s1");
        assert_eq!(points[12].label(), "b/f3/p1/s1");
        let cities = [
            ("c100k-ph0-fcnone", 100_000u64),
            ("c1m-ph8-fcglobal", 1_000_000),
        ];
        let three = SweepGrid::new()
            .seeds([1, 2, 3])
            .axis(cross(&cross(&variants(), &cities), &losses()));
        assert_eq!(three.points(9)[0].label(), "a/c100k-ph0-fcnone/p1/s1");
        assert_eq!(three.points(9)[6].payload.0 .1, 1_000_000);
    }

    #[test]
    fn paired_seed_is_shared_across_variants_but_scenario_seed_is_not() {
        let points = demo_grid().points(7);
        // Points 0 and 6 share seed-axis value 1 but sit on different
        // variant/loss entries.
        assert_eq!(points[0].seed, points[6].seed);
        assert_eq!(points[0].paired_seed(), points[6].paired_seed());
        assert_ne!(points[0].scenario_seed(), points[6].scenario_seed());
        // Different seed-axis values give different paired seeds.
        assert_ne!(points[0].paired_seed(), points[1].paired_seed());
    }

    #[test]
    fn point_labels_skip_the_unlabelled_axis() {
        let points = SweepGrid::new().seeds([7]).points(0);
        assert_eq!(points[0].label(), "s7");
        let points = demo_grid().points(0);
        assert_eq!(points[0].label(), "a/p1/s1");
    }

    #[test]
    fn multi_thread_run_is_byte_identical_to_single_thread() {
        let suite = ExperimentSuite::new("demo", 42, demo_grid(), |point| {
            let mut rng = point.rng();
            let (variant, loss) = point.payload;
            PointStats::new("")
                .metric("variant", variant as f64)
                .metric("loss", loss)
                .series(
                    "draws",
                    (0..64).map(|_| (rng.next_u64() >> 11) as f64).collect(),
                )
        });
        let serial = suite.run(1);
        let parallel = suite.run(4);
        assert_eq!(serial.threads, 1);
        assert!(parallel.threads > 1);
        assert_eq!(serial.digest(), parallel.digest());
        assert_eq!(serial.report, parallel.report);
        // And a second parallel run replays exactly.
        assert_eq!(parallel.digest(), suite.run(4).digest());
    }

    #[test]
    fn runner_sees_points_in_grid_order_serially() {
        let grid = SweepGrid::new().replicates(5);
        let suite = ExperimentSuite::new("order", 1, grid, |p| {
            PointStats::new("").metric("idx", p.index as f64)
        });
        let out = suite.run(1);
        assert_eq!(
            out.report.metric_series("idx"),
            vec![0.0, 1.0, 2.0, 3.0, 4.0]
        );
        assert_eq!(out.point_wall_ms.len(), 5);
        assert!(out.total_wall_ms >= 0.0);
    }

    #[test]
    fn link_groups_return_in_group_order_for_any_thread_count() {
        for threads in [1, 2, 4, 9] {
            let out = run_link_groups(7, threads, |g| (g, netsim::rng::group_seed(5, g as u64)));
            assert_eq!(out.len(), 7);
            for (i, (g, seed)) in out.iter().enumerate() {
                assert_eq!(*g, i);
                assert_eq!(*seed, netsim::rng::group_seed(5, i as u64));
            }
        }
        assert!(run_link_groups(0, 4, |g| g).is_empty());
    }
}
