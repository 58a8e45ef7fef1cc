//! Thread placement for the relay workloads.
//!
//! The generator busy-polls and the relay's shard sleeps 1 ms when idle; on
//! the reference guest the scheduler sometimes leaves both on one vCPU for
//! a whole run (the other sitting idle), which turns a 1 ms idle sleep into
//! a multi-millisecond one, quintuples the relay's batch size and moves CPU
//! time per packet by 30 %.  The relay workloads therefore place the
//! generator on one allowed CPU and everything the relay spawns on another,
//! when the process is allowed at least two.  Placement is best effort: a
//! refused call leaves the default in place and is reported.

/// `cpu_set_t` as the kernel sees it: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and threads it spawns from now on) to
/// `cpus`.  Returns whether the kernel accepted.
pub fn pin(cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a valid buffer of exactly the size passed and is only
    // read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Confines the calling thread, and the threads it spawns from now on, to
/// the last CPU it is allowed, so that no timed slice is split over two
/// processors of different speed.  Returns the CPUs allowed before, for
/// [`pin`] to restore.
pub fn confine_to_one_cpu() -> Vec<usize> {
    let cpus = allowed();
    if let Some(&cpu) = cpus.last() {
        pin(&[cpu]);
    }
    cpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_narrows_and_restores_the_calling_thread() {
        let before = allowed();
        assert!(!before.is_empty());
        assert!(pin(&before[..1]));
        assert_eq!(allowed(), before[..1]);
        assert!(pin(&before));
        assert_eq!(allowed(), before);
    }
}
