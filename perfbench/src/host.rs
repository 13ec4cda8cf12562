//! Host noise and process memory, read from `/proc`.

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Cumulative steal time in milliseconds from `/proc/stat` (the eighth
/// field of a `cpu` line): of all CPUs for `None`, else of CPU `cpu`.
/// `None` where `/proc/stat` is unavailable.
pub fn steal_ms(cpu: Option<usize>) -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let label = cpu.map_or("cpu".to_string(), |c| format!("cpu{c}"));
    let line = stat.lines().find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
    let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks * 1000.0 / USER_HZ)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the process's peak-RSS mark (`VmHWM`) to its current RSS, so
/// that [`peak_rss_mb`] then reads the peak since the reset. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread — and every thread it starts afterwards — to
/// CPU `cpu`. Returns whether the kernel accepted the mask.
pub fn pin_to_cpu(cpu: usize) -> bool {
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    if cpu >= 1024 {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised `cpu_set_t`-sized buffer of
    // `size_of_val(&mask)` bytes that outlives the call; pid 0 names the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The CPU the calling thread runs on.
pub fn current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads
    // scheduler state; it returns -1 on failure.
    usize::try_from(unsafe { sched_getcpu() }).ok()
}

/// Stolen time of the calling thread's CPU over a stretch of work.
pub struct StealMeter {
    cpu: Option<usize>,
    start_ms: Option<f64>,
    start: std::time::Instant,
}

impl StealMeter {
    /// Starts measuring.
    pub fn start() -> StealMeter {
        let cpu = current_cpu();
        StealMeter {
            cpu,
            start_ms: cpu.and_then(|c| steal_ms(Some(c))),
            start: std::time::Instant::now(),
        }
    }

    /// How much longer than its running time the stretch took because its
    /// CPU was stolen: `wall / (wall - steal)`, 1 when nothing was stolen
    /// (or steal is unknown).
    pub fn stretch(&self) -> f64 {
        let wall_ms = self.start.elapsed().as_secs_f64() * 1e3;
        let steal = match (self.start_ms, self.cpu.and_then(|c| steal_ms(Some(c)))) {
            (Some(a), Some(b)) => (b - a).clamp(0.0, wall_ms * 0.5),
            _ => 0.0,
        };
        if wall_ms > 0.0 {
            wall_ms / (wall_ms - steal)
        } else {
            1.0
        }
    }
}
