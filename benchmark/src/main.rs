//! The J-QoS benchmark.
//!
//! ```text
//! jqos-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! jqos-benchmark suite [--seed <n>] [--seconds <s>] [--traced] [--smoke]
//! jqos-benchmark agree [--seed <n>] [--seconds <s>] [--runs <r>]
//! jqos-benchmark spec-json
//! ```
//!
//! The first form runs one workload in this process and prints, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`); the human-readable
//! report, with the machine it was measured on, goes to standard error and
//! the full result to `benchmark/out/`.  `suite` runs every workload, each
//! in a child process of its own; `agree` runs the suite twice and checks
//! the two against the bounds.  See `README.md`.

mod affinity;
mod alloc;
mod encoder;
mod json;
mod outcome;
mod probes;
mod procfs;
mod relay;
mod rng;
mod sim_engine;
mod sim_figures;
mod spec;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Json;
use outcome::{Outcome, RunOpts};
use procfs::Environment;
use spec::{Better, MetricDef, END_TO_END, END_TO_END_BOUNDS, PER_LAYER, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str = "usage:
  jqos-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  jqos-benchmark suite [--seed <n>] [--seconds <s>] [--traced] [--smoke]
  jqos-benchmark agree [--seed <n>] [--seconds <s>] [--runs <r>]
  jqos-benchmark spec-json";

/// Parsed command line.
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        runs: 1,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .map(String::as_str)
        };
        let number = |name: &str, text: &str| -> Result<f64, String> {
            text.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{name}: `{text}` is not a non-negative number"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?.to_string()),
            "--seed" => {
                let text = value("--seed")?;
                args.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: `{text}` is not an unsigned integer"))?;
            }
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?.max(0.1),
            "--runs" => args.runs = (number("--runs", value("--runs")?)? as usize).max(1),
            "--trace" => {
                args.traced = match value("--trace")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "suite" | "agree" | "spec-json" if args.command.is_none() => {
                args.command = Some(arg.clone());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Where results and traces are written: `out/` beside this package's
/// manifest, which is inside the checkout the binary was built from.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn result_path(workload: &str, seed: u64, traced: bool) -> PathBuf {
    out_dir().join(format!(
        "result-{workload}-{seed}-t{}.json",
        u8::from(traced)
    ))
}

fn metrics_json(metrics: &spec::Metrics) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|((name, unit, _), value)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::from(value)), ("unit", Json::from(*unit))]),
                )
            })
            .collect(),
    )
}

fn environment_json(env: &Environment, opts: &RunOpts) -> Json {
    Json::obj([
        ("nproc", Json::from(env.nproc as u64)),
        ("cpu_model", Json::from(env.cpu_model.as_str())),
        ("cpu_flags", Json::from(env.cpu_flags.as_str())),
        ("erasure_simd_active", Json::from(probes::simd_active())),
        ("kernel", Json::from(env.kernel.as_str())),
        ("rustc", Json::from(env.rustc.as_str())),
        ("git_rev", Json::from(env.git_rev.as_str())),
        ("seed", Json::from(opts.seed)),
        ("repeats", Json::from(opts.repeats() as u64)),
        ("seconds", Json::from(opts.seconds)),
        ("traced", Json::from(opts.traced)),
        ("smoke", Json::from(opts.smoke)),
        (
            "transport",
            Json::from("loopback UDP, 1 shard, 1 generator thread, 1 socket"),
        ),
    ])
}

/// Prints `metrics`; with `all` unset, only those that were measured.
fn print_metrics(title: &str, metrics: &spec::Metrics, all: bool) {
    eprintln!("{title}");
    for ((name, unit, better), value) in metrics.iter() {
        if all || value != 0.0 {
            eprintln!(
                "  {name:<44} {value:>16.4} {unit:<6} ({} is better)",
                better.as_str()
            );
        }
    }
}

/// Runs one workload in this process.
fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    if opts.traced {
        trace::enable();
    }
    match name {
        "sim-figures" => sim_figures::run(opts),
        "sim-engine" => sim_engine::run(opts),
        "encoder-fig10" => encoder::run(opts),
        relay_name => match relay::spec(relay_name) {
            Some(spec) => relay::run(relay_name, &spec, opts),
            None => Err(format!("unknown workload `{relay_name}`")),
        },
    }
}

/// The driver's form: one workload, the result line last on stdout.
fn single(name: &str, opts: &RunOpts) -> Result<bool, String> {
    let env = Environment::probe();
    let mut out = run_workload(name, opts)?;
    if opts.traced {
        let spans = trace::summary().iter().map(|r| r.1).sum::<u64>();
        out.layer.set("benchmark.trace.spans", spans as f64);
    }
    let correct = out.correct();

    eprintln!(
        "== {name}  seed {}  {} s  trace {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.traced)
    );
    if opts.smoke {
        eprintln!("SMOKE — not a measurement");
    }
    eprintln!(
        "machine: {} × {} [{}]  kernel {}  {}  rev {}  simd {}",
        env.nproc,
        env.cpu_model,
        env.cpu_flags,
        env.kernel,
        env.rustc,
        env.git_rev,
        probes::simd_active()
    );
    print_metrics("end-to-end:", &out.e2e, true);
    // An untraced run still reads the counters that cost nothing to read.
    print_metrics("per-layer:", &out.layer, opts.traced);
    if opts.traced {
        eprintln!("spans (self time):");
        for (name, count, total, self_ns) in trace::summary() {
            eprintln!(
                "  {name:<24} ×{count:<7} total {:>10.3} ms  self {:>10.3} ms",
                total as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
    }
    for (what, held) in &out.gates {
        eprintln!("gate {}: {what}", if *held { "ok  " } else { "FAIL" });
    }
    for note in &out.notes {
        eprintln!("note: {note}");
    }
    eprintln!(
        "attempted {}  failed {}  correct {correct}",
        out.attempted, out.failed
    );

    // The full result, with the machine it came from, beside the traces.
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("create {}: {e}", out_dir().display()))?;
    let gates = Json::Arr(
        out.gates
            .iter()
            .map(|(what, held)| {
                Json::obj([
                    ("what", Json::from(what.as_str())),
                    ("held", Json::from(*held)),
                ])
            })
            .collect(),
    );
    let full = Json::obj([
        ("workload", Json::from(name)),
        ("environment", environment_json(&env, opts)),
        ("correct", Json::from(correct)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("end_to_end", metrics_json(&out.e2e)),
        ("per_layer", metrics_json(&out.layer)),
        ("gates", gates),
        (
            "notes",
            Json::Arr(out.notes.iter().map(|n| Json::from(n.as_str())).collect()),
        ),
    ]);
    let path = result_path(name, opts.seed, opts.traced);
    std::fs::write(&path, format!("{full}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    if opts.traced {
        let path = out_dir().join(format!("trace-{name}-{}.json", opts.seed));
        let doc = trace::document(vec![
            ("workload".to_string(), Json::from(name)),
            ("environment".to_string(), environment_json(&env, opts)),
        ]);
        std::fs::write(&path, format!("{doc}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("trace: {}", path.display());
    }

    let line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(out.attempted.max(1))),
        ("failed", Json::from(out.failed)),
        (
            "metrics",
            metrics_json(if opts.traced { &out.layer } else { &out.e2e }),
        ),
    ]);
    println!("{line}");
    Ok(correct)
}

/// One workload's full result as read back from its result file.
struct ChildResult {
    correct: bool,
    failed: u64,
    e2e: Vec<f64>,
    layer: Vec<f64>,
}

/// Runs `workload` in a child process of its own and reads its result file.
fn child(workload: &str, opts: &RunOpts) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // The child's result line is for drivers; its report (stderr) passes
    // through.
    let output = cmd
        .stdout(std::process::Stdio::piped())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let path = result_path(workload, opts.seed, opts.traced);
    if output.stdout.is_empty() {
        return Err(format!("{workload}: no result (exit {})", output.status));
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let values = |key: &str, defs: &[MetricDef]| -> Result<Vec<f64>, String> {
        defs.iter()
            .map(|(name, _, _)| {
                doc.get(key)
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .map(|v| v.as_f64().unwrap_or(f64::NAN))
                    .ok_or_else(|| format!("{}: no `{name}`", path.display()))
            })
            .collect()
    };
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        failed: doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        e2e: values("end_to_end", &END_TO_END)?,
        layer: values("per_layer", &PER_LAYER)?,
    })
}

/// Runs every workload once (each in its own child) and returns the results
/// in workload order.
fn run_all(opts: &RunOpts) -> Result<Vec<ChildResult>, String> {
    WORKLOADS.iter().map(|(w, _)| child(w, opts)).collect()
}

fn print_table(title: &str, defs: &[MetricDef], column: impl Fn(usize, usize) -> f64) {
    println!("\n{title}");
    print!("{:<44} {:<6}", "metric", "unit");
    for (w, _) in WORKLOADS {
        print!(" {:>14}", w.trim_start_matches("relay-"));
    }
    println!();
    for (m, (name, unit, _)) in defs.iter().enumerate() {
        print!("{name:<44} {unit:<6}");
        for w in 0..WORKLOADS.len() {
            print!(" {:>14.4}", column(w, m));
        }
        println!();
    }
}

/// `suite`: every metric by name and unit, non-zero exit on a failed gate.
fn suite(args: &Args) -> Result<bool, String> {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        smoke: args.smoke,
    };
    let plain = run_all(&opts)?;
    let mut ok = plain.iter().all(|r| r.correct);
    if args.smoke {
        println!("SMOKE — not a measurement");
    }
    print_table("end-to-end (untraced)", &END_TO_END, |w, m| plain[w].e2e[m]);
    if args.traced {
        let traced = run_all(&RunOpts {
            traced: true,
            ..opts
        })?;
        ok &= traced.iter().all(|r| r.correct);
        print_table("per-layer (traced run)", &PER_LAYER, |w, m| {
            traced[w].layer[m]
        });
        // What tracing costs: the same end-to-end metrics measured with the
        // recorder, the counting allocator and the probes switched on.
        print_table(
            "tracing overhead: traced ÷ untraced",
            &END_TO_END,
            |w, m| traced[w].e2e[m] / plain[w].e2e[m],
        );
    }
    for (r, (w, _)) in plain.iter().zip(WORKLOADS) {
        if !r.correct {
            println!(
                "FAILED: {w} ({} failed operations or a gate; see its report above)",
                r.failed
            );
        }
    }
    Ok(ok)
}

/// `agree`: two sets of runs of the same code must agree within the bounds.
fn agree(args: &Args) -> Result<bool, String> {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        smoke: false,
    };
    let mut ok = true;
    // One set: per workload × metric, the median over `--runs` suite runs.
    let mut set = |label: &str| -> Result<Vec<Vec<f64>>, String> {
        eprintln!("-- agree: set {label}");
        let runs: Vec<Vec<ChildResult>> = (0..args.runs)
            .map(|_| run_all(&opts))
            .collect::<Result<_, _>>()?;
        ok &= runs.iter().flatten().all(|r| r.correct);
        Ok((0..WORKLOADS.len())
            .map(|w| {
                (0..END_TO_END.len())
                    .map(|m| stats::median(&runs.iter().map(|r| r[w].e2e[m]).collect::<Vec<_>>()))
                    .collect()
            })
            .collect())
    };
    let (a, b) = (set("A")?, set("B")?);
    println!(
        "\n{:<24} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        for (m, (metric, _, better)) in END_TO_END.iter().enumerate() {
            let (va, vb) = (a[w][m], b[w][m]);
            let ratio = vb / va;
            // Worse means higher for a lower-is-better metric; either set
            // may be the worse one.
            let worse_by = match better {
                Better::Lower => (ratio - 1.0).max(1.0 / ratio - 1.0),
                Better::Higher => (1.0 / ratio - 1.0).max(ratio - 1.0),
            };
            let within = worse_by.is_finite() && worse_by <= END_TO_END_BOUNDS[m];
            ok &= within;
            println!(
                "{workload:<24} {metric:<16} {va:>14.4} {vb:>14.4} {ratio:>8.4} {:>6.2}  {}",
                END_TO_END_BOUNDS[m],
                if within { "ok" } else { "OUTSIDE" }
            );
        }
    }
    Ok(ok)
}

/// `spec-json`: `BENCHMARK.json` as this binary defines it.
fn spec_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let metric = |(name, unit, better): &MetricDef, bound: Option<f64>| {
        let mut pairs = vec![
            ("name".to_string(), Json::from(*name)),
            ("unit".to_string(), Json::from(*unit)),
            ("better".to_string(), Json::from(better.as_str())),
        ];
        if let Some(b) = bound {
            pairs.push(("bound".to_string(), Json::from(b)));
        }
        Json::Obj(pairs)
    };
    let rows = |items: Vec<Json>| -> String {
        let lines: Vec<String> = items.iter().map(|i| format!("    {i}")).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Json::Arr(command.iter().map(|c| Json::from(*c)).collect()),
        DEFAULT_SECONDS as u64,
        rows(WORKLOADS
            .iter()
            .map(|(n, w)| Json::obj([("name", Json::from(*n)), ("why", Json::from(*w))]))
            .collect()),
        rows(END_TO_END
            .iter()
            .zip(END_TO_END_BOUNDS)
            .map(|(m, b)| metric(m, Some(b)))
            .collect()),
        rows(PER_LAYER.iter().map(|m| metric(m, None)).collect()),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let verdict = match (args.command.as_deref(), &args.workload) {
        (Some("suite"), None) => suite(&args),
        (Some("agree"), None) => agree(&args),
        (Some("spec-json"), None) => {
            print!("{}", spec_json());
            Ok(true)
        }
        (None, Some(workload)) if spec::is_workload(workload) => single(
            workload,
            &RunOpts {
                seed: args.seed,
                seconds: args.seconds,
                traced: args.traced,
                smoke: args.smoke,
            },
        ),
        (None, Some(workload)) => Err(format!(
            "unknown workload `{workload}`; the workloads are: {}",
            WORKLOADS.map(|(w, _)| w).join(", ")
        )),
        _ => Err(USAGE.to_string()),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        // A correctness gate failed: the numbers were printed, the exit code
        // says not to trust them.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
