//! The `jqos` umbrella CLI.
//!
//! * `jqos` — prints the workspace layout and how to regenerate every figure.
//! * `jqos sweep --fig <id> [--threads N] [--no-baseline]` — runs one
//!   figure's `ExperimentSuite` grid on N worker threads (default: the
//!   machine's available parallelism), printing per-point and aggregate
//!   wall-clock, the FNV-1a of the deterministic report, and (unless
//!   `--no-baseline`) a 1-thread replay whose report is asserted
//!   byte-identical to the parallel run.  The figure's data goes to
//!   `results/`, where it is committed, and its timing to `target/figures/`.

use std::process::ExitCode;

fn print_help() {
    println!("J-QoS: Judicious QoS using Cloud Overlays — Rust reproduction");
    println!();
    println!("Usage:");
    println!("  jqos                     this overview");
    println!("  jqos sweep --fig <id> [--threads N] [--no-baseline]");
    println!("  jqos sweep --list");
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
        "  jqos sweep --fig {}",
        jqos_bench::figures::FIGURE_IDS.join(" | ")
    );
    println!("  data goes to results/ (committed; `git diff results/` shows what moved),");
    println!("  timing to target/figures/");
    println!();
    println!("Speed numbers come from the benchmark, not from figure wall-clocks:");
    println!("  see benchmark/README.md");
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print_help();
            ExitCode::SUCCESS
        }
        Some("sweep") => sweep(&args[1..]),
        Some(other) => {
            eprintln!("error: unknown subcommand '{other}'");
            print_help();
            ExitCode::FAILURE
        }
    }
}
