//! The `jqos` umbrella CLI.
//!
//! * `jqos` — prints the workspace layout and how to regenerate every figure.
//! * `jqos sweep --fig <id> [--threads N] [--no-baseline]` — runs one
//!   figure's `ExperimentSuite` grid on N worker threads (default: the
//!   machine's available parallelism), printing per-point and aggregate
//!   wall-clock, the FNV-1a of the deterministic report, and (unless
//!   `--no-baseline`) a 1-thread replay whose report is asserted
//!   byte-identical to the parallel run.
//! * `jqos loadgen [--flows N] [--shards a,b,c] [--workers W] [--blast-ms T]`
//!   — drives the live sharded relay with thousands of loopback flows and
//!   writes `BENCH_net_loadgen.json`.

use std::process::ExitCode;
use std::time::Duration;

fn print_help() {
    println!("J-QoS: Judicious QoS using Cloud Overlays — Rust reproduction");
    println!();
    println!("Usage:");
    println!("  jqos                     this overview");
    println!("  jqos sweep --fig <id> [--threads N] [--no-baseline]");
    println!("  jqos sweep --list");
    println!("  jqos loadgen [--flows N] [--shards a,b,c] [--workers W] [--blast-ms T]");
    println!();
    println!("Examples (cargo run --example <name>):");
    println!("  quickstart        compare Internet / caching / coding on a lossy WAN path");
    println!("  skype_conference  video-conferencing QoE during an outage (§6.3)");
    println!("  web_transfer      TCP flow-completion-time tail (§6.4)");
    println!("  multicast_cache   hybrid multicast + mobility use cases (Fig. 3)");
    println!("  mobile_uplink     cellular feasibility study (§6.5)");
    println!("  live_relay        sharded UDP relay + endpoints on loopback (§5 prototype)");
    println!();
    println!("Figure regeneration (cargo run --release -- sweep --fig <id>):");
    println!(
        "  jqos sweep --fig {}   (JQOS_QUICK=1 for a fast pass)",
        jqos_bench::figures::FIGURE_IDS.join(" | ")
    );
    println!();
    println!("Criterion benches: cargo bench -p jqos-bench");
}

fn sweep(args: &[String]) -> ExitCode {
    let mut fig: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut baseline = true;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--fig" | "-f" => match iter.next() {
                Some(v) => fig = Some(v.clone()),
                None => {
                    eprintln!("error: --fig requires a figure id");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" | "-t" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => threads = Some(n),
                _ => {
                    eprintln!("error: --threads requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--no-baseline" => baseline = false,
            "--list" | "-l" => {
                println!("available figure ids:");
                for id in jqos_bench::figures::FIGURE_IDS {
                    println!("  {id}");
                }
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown sweep argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(fig) = fig else {
        eprintln!("error: sweep needs --fig <id> (try 'jqos sweep --list')");
        return ExitCode::FAILURE;
    };
    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    println!("running figure {fig} sweep on {threads} worker thread(s)");
    if jqos_bench::figures::run_figure(&fig, threads, baseline) {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: unknown figure id '{fig}' (try 'jqos sweep --list')");
        ExitCode::FAILURE
    }
}

fn loadgen(args: &[String]) -> ExitCode {
    let mut cfg = jqos_bench::netload::NetloadConfig::from_env();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--flows" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => cfg.flows = n,
                _ => {
                    eprintln!("error: --flows requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--workers" => match iter.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => cfg.workers = n,
                _ => {
                    eprintln!("error: --workers requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--shards" => {
                let parsed: Option<Vec<usize>> = iter
                    .next()
                    .map(|v| v.split(',').map(|s| s.trim().parse().ok()).collect())
                    .unwrap_or(None);
                match parsed {
                    Some(counts) if !counts.is_empty() && counts.iter().all(|&c| c >= 1) => {
                        cfg.shard_counts = counts;
                    }
                    _ => {
                        eprintln!("error: --shards requires a comma list like 1,2,4");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--blast-ms" => match iter.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) if ms >= 1 => cfg.blast = Duration::from_millis(ms),
                _ => {
                    eprintln!("error: --blast-ms requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("error: unknown loadgen argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }
    jqos_bench::netload::run_with(cfg);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print_help();
            ExitCode::SUCCESS
        }
        Some("sweep") => sweep(&args[1..]),
        Some("loadgen") => loadgen(&args[1..]),
        Some(other) => {
            eprintln!("error: unknown subcommand '{other}'");
            print_help();
            ExitCode::FAILURE
        }
    }
}
