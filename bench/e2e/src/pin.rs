//! One vCPU: pin the process before any runtime thread exists, and measure
//! how disturbed the host was while the benchmark ran.
//!
//! On the 2-vCPU guest this was sized on, a condvar round trip between two
//! threads costs 8–10 µs on one vCPU and 41–72 µs across two when the peer
//! has halted (idle = HLT exit to the hypervisor), and the native runtime
//! does hundreds of such wakes per op — so unpinned runs of one binary land
//! in either regime. Pinned to one CPU every wake is a local context
//! switch. See the README's pinned-vs-unpinned table.

/// Per-CPU jiffies from one `/proc/stat` line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTimes {
    pub total: u64,
    /// Everything but idle and iowait.
    pub busy: u64,
    pub steal: u64,
}

/// Parse the `cpuN ...` lines of `/proc/stat` into `(cpu index, times)`.
pub fn parse_proc_stat(text: &str) -> Vec<(usize, CpuTimes)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let mut it = line.split_ascii_whitespace();
        let Some(idx) = it
            .next()
            .and_then(|h| h.strip_prefix("cpu"))
            .and_then(|n| n.parse::<usize>().ok())
        else {
            continue;
        };
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already inside user/nice.
        let f: Vec<u64> = it.take(8).map(|x| x.parse().unwrap_or(0)).collect();
        if f.len() < 4 {
            continue;
        }
        let total: u64 = f.iter().sum();
        let idle = f[3] + f.get(4).copied().unwrap_or(0);
        out.push((
            idx,
            CpuTimes {
                total,
                busy: total - idle,
                steal: f.get(7).copied().unwrap_or(0),
            },
        ));
    }
    out
}

/// Current times of `cpu`, or of all CPUs summed when `None`. Zeros where
/// `/proc/stat` is missing.
pub fn cpu_times(cpu: Option<usize>) -> CpuTimes {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return CpuTimes::default();
    };
    let mut sum = CpuTimes::default();
    for (idx, t) in parse_proc_stat(&text) {
        if cpu.is_none_or(|c| c == idx) {
            sum.total += t.total;
            sum.busy += t.busy;
            sum.steal += t.steal;
        }
    }
    sum
}

/// Share of `[before, after]` the hypervisor ran someone else.
pub fn steal_frac(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Share of `[before, after]` the CPU had nothing to run. The closed loop on
/// one vCPU always has a runnable thread, so this stays near 0; a runtime
/// that starts to sleep inside ops shows here, while the quiet pool would
/// take such a step for a disturbed one.
pub fn idle_frac(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    1.0 - after.busy.saturating_sub(before.busy) as f64 / total as f64
}

/// Of `allowed`, the CPU that was least busy between two `/proc/stat`
/// readings; the lowest index on a tie.
pub fn least_busy(
    allowed: &[usize],
    before: &[(usize, CpuTimes)],
    after: &[(usize, CpuTimes)],
) -> Option<usize> {
    let busy = |cpu: usize| -> u64 {
        let find = |v: &[(usize, CpuTimes)]| v.iter().find(|(i, _)| *i == cpu).map(|(_, t)| t.busy);
        match (find(before), find(after)) {
            (Some(b), Some(a)) => a.saturating_sub(b),
            // Not listed: cannot tell, rank it last.
            _ => u64::MAX,
        }
    };
    allowed.iter().copied().min_by_key(|&c| (busy(c), c))
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn clock_gettime(clock: i32, time: *mut [i64; 2]) -> i32;
    }

    /// CPU time of all the process's threads, seconds. The guest kernel
    /// leaves out of it what the hypervisor stole.
    pub fn process_cpu_s() -> f64 {
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut time = [0i64; 2];
        // SAFETY: `time` is a writable `struct timespec` (two 64-bit fields
        // on the 64-bit Linux targets this is built for).
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
        assert_eq!(rc, 0, "the process CPU clock exists on Linux");
        time[0] as f64 + time[1] as f64 * 1e-9
    }

    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed, pid
        // 0 is the calling thread, and the call writes at most that many
        // bytes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    pub fn set(cpu: usize) -> bool {
        let mut set: CpuSet = [0; 16];
        if cpu >= 1024 {
            return false;
        }
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a readable buffer of exactly the size passed; the
        // call only reads it. Called before any other thread exists, so the
        // mask set on this thread is inherited by every thread spawned later.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }

    pub fn cpus(set: &CpuSet) -> Vec<usize> {
        (0..1024)
            .filter(|c| set[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }
}

/// Pin the process to the allowed CPU that was least busy over a 100 ms
/// look at `/proc/stat`, and check that exactly that one CPU is allowed
/// afterwards. Returns the CPU.
///
/// # Errors
/// On Linux, any failure to end up on exactly one CPU: the numbers would
/// not repeat, so the caller aborts the run.
#[cfg(target_os = "linux")]
pub fn pin_to_quietest_cpu() -> Result<usize, String> {
    let allowed = sys::cpus(&sys::get().ok_or("sched_getaffinity failed")?);
    let read = || parse_proc_stat(&std::fs::read_to_string("/proc/stat").unwrap_or_default());
    let before = read();
    std::thread::sleep(std::time::Duration::from_millis(100));
    let after = read();
    let cpu = least_busy(&allowed, &before, &after).ok_or("no CPU is allowed")?;
    if !sys::set(cpu) {
        return Err(format!("sched_setaffinity to cpu {cpu} failed"));
    }
    let now = sys::cpus(&sys::get().ok_or("sched_getaffinity failed after pinning")?);
    if now != [cpu] {
        return Err(format!("pinned to cpu {cpu} but the mask reads {now:?}"));
    }
    Ok(cpu)
}

/// Elsewhere there is nothing to pin with: run unpinned and say so.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_quietest_cpu() -> Result<usize, String> {
    eprintln!("mic-e2e: CPU pinning is Linux-only; running unpinned, numbers will not repeat");
    Ok(0)
}

/// CPU time the process has used, all threads, without what the hypervisor
/// stole from the vCPU.
#[cfg(target_os = "linux")]
pub fn process_cpu_s() -> f64 {
    sys::process_cpu_s()
}

/// Elsewhere: wall time, so that no step ever looks stretched.
#[cfg(not(target_os = "linux"))]
pub fn process_cpu_s() -> f64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
}

/// The fixed reference loop: a scalar 48 × 48 matrix product, about 40 µs.
/// Read around every step and every set-up, it tells which of them ran
/// while the host was fast. It is shaped like the code it stands in for —
/// loads, strided loads and one multiply-add chain per element — because
/// the disturbance to detect is a neighbour on the same physical core, and
/// that slows such code by up to 70 % while a register-only chain of
/// multiply-adds, which leaves most of the core idle anyway, slows by under
/// 20 %. Returns µs.
pub fn ref_loop_us() -> f64 {
    const N: usize = 48;
    let mut a = [0f32; N * N];
    let mut b = [0f32; N * N];
    let mut c = [0f32; N * N];
    for i in 0..N * N {
        a[i] = i as f32 * 1e-3;
        b[i] = 1.0 / (i + 1) as f32;
    }
    let (a, b) = (std::hint::black_box(&a), std::hint::black_box(&b));
    let t0 = std::time::Instant::now();
    for i in 0..N {
        for j in 0..N {
            let mut acc = 0f32;
            for k in 0..N {
                acc += a[i * N + k] * b[k * N + j];
            }
            c[i * N + j] = acc;
        }
    }
    std::hint::black_box(&c);
    t0.elapsed().as_secs_f64() * 1e6
}

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` is missing.
pub fn peak_rss_mib() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  300 0 100 1000 20 0 5 15 0 0\n\
                        cpu0 100 0 50 600 10 0 5 5 0 0\n\
                        cpu1 200 0 50 400 10 0 0 10 0 0\n\
                        intr 12345\n";

    #[test]
    fn parses_per_cpu_lines_only() {
        let v = parse_proc_stat(STAT);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].0, 0);
        assert_eq!(
            v[0].1,
            CpuTimes {
                total: 770,
                busy: 160,
                steal: 5
            }
        );
        assert_eq!(v[1].1.busy, 260);
    }

    #[test]
    fn least_busy_prefers_the_quiet_cpu_then_the_lowest() {
        let t = |busy| CpuTimes {
            total: 1000,
            busy,
            steal: 0,
        };
        let before = vec![(0, t(100)), (1, t(100))];
        let after = vec![(0, t(150)), (1, t(110))];
        assert_eq!(least_busy(&[0, 1], &before, &after), Some(1));
        assert_eq!(least_busy(&[0], &before, &after), Some(0));
        assert_eq!(least_busy(&[0, 1], &before, &before), Some(0));
        assert_eq!(least_busy(&[], &before, &after), None);
        // A CPU /proc/stat does not list ranks last.
        assert_eq!(least_busy(&[1, 7], &before, &after), Some(1));
    }

    #[test]
    fn steal_fraction_is_a_share_of_elapsed_jiffies() {
        let a = CpuTimes {
            total: 1000,
            busy: 0,
            steal: 10,
        };
        let b = CpuTimes {
            total: 1200,
            busy: 0,
            steal: 40,
        };
        assert!((steal_frac(a, b) - 0.15).abs() < 1e-12);
        assert_eq!(steal_frac(a, a), 0.0);
        let b = CpuTimes { busy: 150, ..b };
        assert!((idle_frac(a, b) - 0.25).abs() < 1e-12);
        assert_eq!(idle_frac(a, a), 0.0);
    }

    #[test]
    fn ref_loop_takes_time() {
        assert!(ref_loop_us() > 0.0);
    }
}
