//! The paper's figures, checked against the committed `results/`.
//!
//! Every deterministic figure runs at paper size on two sweep workers, with
//! the 1-thread replay the harness asserts, and each document it produces
//! must equal `results/<name>.json` byte for byte.  Those documents are a
//! function of the code and the seeds only, so a change that moves a figure
//! fails here until `results/` is regenerated and the diff reviewed.  Some
//! series pass through `ln`/`exp` (loss, arrival and PSNR sampling); like the
//! pinned draws of `crates/netsim/tests/rng_streams.rs`, the bytes assume a
//! libm that rounds those the same way on every machine.  They hold in debug
//! and release builds, at any thread count, and with glibc's FMA and AVX2
//! math paths switched off.
//!
//! Figure 10's data is wall-clock throughput, so it gets a shape check only.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use jqos_bench::figures::{city, fig10, figure_documents, fleet, FIGURE_IDS};
use jqos_bench::harness::Documents;

/// How to bring `results/` up to date after a change that moves a figure on
/// purpose.
const HINT: &str = "regenerate with `for f in 7 8 9a 9b 65 66 fleet city; do cargo run --release -q -- sweep --fig $f; done` and review `git diff results/`";

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Compares each data document of `docs` with its committed file, and says
/// for each one that differs which file and which line first.
fn mismatches(docs: &Documents) -> Vec<String> {
    let mut out = Vec::new();
    for (name, produced) in &docs.data {
        let file = format!("results/{name}.json");
        let Ok(committed) = fs::read_to_string(results().join(format!("{name}.json"))) else {
            out.push(format!("{file} is missing"));
            continue;
        };
        if committed == *produced {
            continue;
        }
        // Two different texts differ on some '\n'-separated line.
        let (old, new): (Vec<&str>, Vec<&str>) = (
            committed.split('\n').collect(),
            produced.split('\n').collect(),
        );
        let i = (0..).find(|&i| old.get(i) != new.get(i)).unwrap();
        let eof = &"<end of file>";
        out.push(format!(
            "{file} differs at line {}:\n  committed: {}\n  produced:  {}",
            i + 1,
            old.get(i).unwrap_or(eof),
            new.get(i).unwrap_or(eof),
        ));
    }
    out
}

#[test]
fn every_deterministic_figure_matches_results() {
    let (mut moved, mut written) = (Vec::new(), BTreeSet::new());
    for fig in FIGURE_IDS.into_iter().filter(|&fig| fig != "10") {
        // Fleet and city also keep the invariants their CI lanes checked.
        let docs = match fig {
            "fleet" => {
                let (docs, doc) = fleet::run(2, true);
                let mut orphaned = 0;
                for p in &doc.points {
                    assert!(p.evictions >= 1, "no eviction at {}", p.label);
                    orphaned += p.flows_relocated
                        + p.flows_dropped_fleet_empty
                        + p.flows_dropped_no_capacity;
                }
                assert!(orphaned > 0, "the scheduled crash must orphan flows");
                docs
            }
            "city" => {
                let (docs, doc) = city::run(2, true);
                for p in &doc.points {
                    let users: u64 = p.classes.iter().map(|c| c.users).sum();
                    assert_eq!(users, p.population, "class users at {}", p.label);
                }
                docs
            }
            _ => figure_documents(fig, 2, true).expect("a listed figure id"),
        };
        moved.extend(mismatches(&docs));
        written.extend(docs.data.iter().map(|(name, _)| format!("{name}.json")));
    }
    assert!(moved.is_empty(), "{}\n{HINT}", moved.join("\n"));

    let committed: BTreeSet<String> = fs::read_dir(results())
        .expect("results/ exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(committed, written, "results/ holds exactly these; {HINT}");
}

#[test]
fn figure_10_has_the_shape_of_a_scaling_curve() {
    let (docs, report) = fig10::run();
    assert!(docs.data.is_empty(), "Fig. 10's data is timing");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads: Vec<usize> = report.points.iter().map(|p| p.threads).collect();
    assert_eq!(threads, (1..=8).collect::<Vec<_>>());
    for p in &report.points {
        assert_eq!(p.oversubscribed, p.threads > nproc, "{} threads", p.threads);
        let rates = [p.ingress_kpps, p.egress_kpps, p.speedup_vs_one_thread];
        assert!(rates.iter().all(|&r| r > 0.0), "{} threads", p.threads);
    }
}
