//! What the benchmark reads from `/proc`: per-thread CPU time and context
//! switches, the kernel's per-socket UDP drop counter, peak resident memory,
//! and the machine description stamped on every result.
//!
//! Each reader is a thin file-read around a pure parser over text, so the
//! parsers are tested on fixture text.

use std::fs;

/// On-CPU nanoseconds from `/proc/<pid>/task/<tid>/schedstat`
/// (`run_ns wait_ns timeslices`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `utime + stime` in clock ticks from `/proc/<pid>/task/<tid>/stat`.  The
/// command name may contain spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `(voluntary, nonvoluntary)` context switches from a `status` file.
pub fn parse_ctx_switches(status: &str) -> Option<(u64, u64)> {
    let field = |key: &str| -> Option<u64> {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))?
            .trim()
            .parse()
            .ok()
    };
    Some((
        field("voluntary_ctxt_switches:")?,
        field("nonvoluntary_ctxt_switches:")?,
    ))
}

/// Peak resident set (`VmHWM`) in KiB from a `status` file.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// The `drops` column of `/proc/net/udp` for the socket bound to local
/// `port`: datagrams the kernel discarded because that socket's receive
/// buffer was full.
pub fn parse_udp_drops(table: &str, port: u16) -> Option<u64> {
    let want = format!(":{port:04X}");
    table.lines().skip(1).find_map(|line| {
        let mut cols = line.split_whitespace();
        let local = cols.nth(1)?;
        if !local.ends_with(&want) {
            return None;
        }
        line.split_whitespace().last()?.parse().ok()
    })
}

/// Kernel thread id of the calling thread.
pub fn current_tid() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU time and context switches summed over a set of threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadUsage {
    /// On-CPU nanoseconds.
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl ThreadUsage {
    /// Usage accrued since `earlier`.
    pub fn since(&self, earlier: &ThreadUsage) -> ThreadUsage {
        ThreadUsage {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

/// Nanoseconds per clock tick of the `stat` fallback (`USER_HZ` is 100 on
/// every Linux ABI).
const TICK_NS: u64 = 10_000_000;

/// Usage of every thread of this process except `exclude` (the generator).
/// Reads `schedstat` (nanosecond resolution), falling back to `stat` ticks.
pub fn usage_excluding(exclude: Option<u32>) -> ThreadUsage {
    let mut total = ThreadUsage::default();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return total;
    };
    for task in tasks.flatten() {
        let tid: Option<u32> = task.file_name().to_str().and_then(|s| s.parse().ok());
        if tid.is_none() || tid == exclude {
            continue;
        }
        let dir = task.path();
        let read = |name: &str| fs::read_to_string(dir.join(name)).ok();
        let cpu = read("schedstat")
            .as_deref()
            .and_then(parse_schedstat)
            .or_else(|| {
                read("stat")
                    .as_deref()
                    .and_then(parse_stat_ticks)
                    .map(|t| t * TICK_NS)
            });
        total.cpu_ns += cpu.unwrap_or(0);
        if let Some((v, nv)) = read("status").as_deref().and_then(parse_ctx_switches) {
            total.ctx_switches += v + nv;
        }
    }
    total
}

/// Kernel receive-buffer drops of the local UDP socket on `port`, or `None`
/// where `/proc/net/udp` is unreadable or does not list the socket.
pub fn udp_drops(port: u16) -> Option<u64> {
    parse_udp_drops(&fs::read_to_string("/proc/net/udp").ok()?, port)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_vm_hwm_kib)
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// The machine and toolchain a result was measured on.
#[derive(Clone, Debug)]
pub struct Environment {
    pub nproc: usize,
    pub cpu_model: String,
    pub cpu_flags: String,
    pub kernel: String,
    pub rustc: String,
    pub git_rev: String,
}

/// First `key : value` of `/proc/cpuinfo`-style text.
pub fn cpuinfo_field(cpuinfo: &str, key: &str) -> Option<String> {
    cpuinfo.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
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

impl Environment {
    /// Probes the machine.  Fields that cannot be read say `unknown` (a
    /// driver checkout, for one, is not a git repository).
    pub fn probe() -> Environment {
        let unknown = || "unknown".to_string();
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        // Only the SIMD-relevant feature flags: the full list is hundreds of
        // entries and the coding kernel dispatches on these.
        let flags = cpuinfo_field(&cpuinfo, "flags")
            .map(|f| {
                f.split_whitespace()
                    .filter(|f| {
                        matches!(
                            *f,
                            "sse2"
                                | "ssse3"
                                | "sse4_1"
                                | "sse4_2"
                                | "avx"
                                | "avx2"
                                | "avx512f"
                                | "avx512bw"
                                | "gfni"
                                | "pclmulqdq"
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_else(unknown);
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpuinfo_field(&cpuinfo, "model name").unwrap_or_else(unknown),
            cpu_flags: flags,
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| unknown()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            git_rev: command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_on_cpu_ns() {
        assert_eq!(parse_schedstat("509913 633537 3\n"), Some(509_913));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x y z"), None);
    }

    #[test]
    fn stat_ticks_survive_a_hostile_command_name() {
        // comm = "a) R (b", which contains both a space and parentheses.
        let line = "6401 (a) R (b) S 1 6401 6401 0 -1 4194560 120 0 0 0 \
                    37 5 0 0 20 0 3 0 1234 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_ticks(line), Some(42));
        assert_eq!(parse_stat_ticks("no paren here"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tjqos\nVmPeak:\t  200 kB\nVmHWM:\t   10240 kB\nThreads:\t3\n\
                      voluntary_ctxt_switches:\t150\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_ctx_switches(status), Some((150, 7)));
        assert_eq!(parse_vm_hwm_kib(status), Some(10_240));
        assert_eq!(parse_ctx_switches("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    const UDP: &str = "   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops\n\
  412: 0100007F:9C41 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 31337 2 0000000000000000 0\n\
  977: 0100007F:D431 00000000:0000 07 00000000:00012C00 00:00000000 00000000     0        0 31338 2 0000000000000000 1853\n";

    #[test]
    fn udp_drops_come_from_the_row_of_the_port() {
        assert_eq!(parse_udp_drops(UDP, 0x9C41), Some(0));
        assert_eq!(parse_udp_drops(UDP, 0xD431), Some(1853));
        assert_eq!(parse_udp_drops(UDP, 53), None);
        assert_eq!(parse_udp_drops("", 53), None);
    }

    #[test]
    fn cpuinfo_takes_the_first_matching_key() {
        let text = "processor\t: 0\nmodel name\t: Test CPU @ 2GHz\nflags\t\t: fpu sse2 ssse3\n\
                    processor\t: 1\nmodel name\t: Other\n";
        assert_eq!(
            cpuinfo_field(text, "model name").as_deref(),
            Some("Test CPU @ 2GHz")
        );
        assert_eq!(
            cpuinfo_field(text, "flags").as_deref(),
            Some("fpu sse2 ssse3")
        );
        assert_eq!(cpuinfo_field(text, "bogomips"), None);
    }

    #[test]
    fn live_readers_work_on_this_machine() {
        // (No comparison of two readings: other tests' threads run, and
        // exit, in between.)
        assert!(current_tid().is_some());
        assert!(usage_excluding(None).cpu_ns > 0);
        assert!(peak_rss_mib() > 0.0);
        let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let port = sock.local_addr().unwrap().port();
        assert_eq!(udp_drops(port), Some(0));
    }
}
