//! Clocks: wall time, and the CPU clocks that exclude host steal.
//!
//! The benchmark host is a small VM whose vCPUs lose time to steal in
//! ~10 ms slices. The kernel's paravirtual time accounting keeps stolen
//! time out of the CPU clocks, so work measured on them does not move
//! with the host's load, while wall time does.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on x86-64/aarch64 Linux) that outlives the call, and both
    // clock ids are valid for the calling process and thread.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed by every thread of this process.
pub fn process_cpu() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread.
pub fn thread_cpu() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}
