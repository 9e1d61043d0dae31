//! What the kernel says about this process: CPU time, peak resident
//! memory, usable cores. Read from `/proc` so the harness needs no FFI.

use std::time::Duration;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`,
/// fixed at 100 on every Linux ABI).
const USER_HZ: u64 = 100;

/// User + system CPU time consumed by every thread of this process.
/// Resolution is one tick (10 ms); a multi-second repetition on two
/// cores spans several hundred ticks.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are
    // counted from the closing parenthesis.
    let after_comm = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // after_comm starts at field 3 (state); utime and stime are 14, 15.
    let utime: u64 = fields
        .nth(11)
        .and_then(|f| f.parse().ok())
        .expect("utime field");
    let stime: u64 = fields
        .next()
        .and_then(|f| f.parse().ok())
        .expect("stime field");
    Duration::from_micros((utime + stime) * (1_000_000 / USER_HZ))
}

/// CPU time the hypervisor gave to someone else while this guest
/// wanted to run (`steal`, all cores), since boot.
pub fn stolen_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: u64 = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_ascii_whitespace().nth(8))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0);
    Duration::from_micros(ticks * (1_000_000 / USER_HZ))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// Cores this process may run on; the number of client threads and
/// connections every workload uses.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let before = process_cpu();
        let mut x = 0u64;
        while process_cpu() == before {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        }
        assert!(process_cpu() > before);
        assert!(peak_rss_mib() > 0.5);
        assert!(nproc() >= 1);
    }
}
