//! Host-speed calibration.
//!
//! The benchmark host's CPUs change speed by 20–30% over seconds (other
//! guests on the same cores), and the CPU clocks, which exclude steal,
//! still count the slower cycles. So every workload interleaves its ops
//! with short blocks of a fixed reference kernel that is part of the
//! benchmark, not of the program, and scales its times by how long the
//! reference took against [`NOMINAL_NS`]. A change to the program moves
//! the ops, never the reference.

use std::time::Duration;

use crate::clock;

/// Reference-kernel iterations per block (about 1 ms of CPU).
const BLOCK: u64 = 100_000;

/// Thread-CPU nanoseconds one block takes at the nominal host speed
/// (the median on a quiet 2-vCPU Intel Xeon guest).
pub const NOMINAL_NS: f64 = 1_100_000.0;

/// One block of reference work: a branchy, table-driven loop (like an
/// interpreter's dispatch) over a 256 KiB table. Returns its thread-CPU
/// time.
pub fn reference_block(table: &mut [u32]) -> Duration {
    let start = clock::thread_cpu();
    let mask = table.len() - 1;
    let mut x: u64 = 0x1234_5678;
    let mut acc = 0u64;
    for i in 0..BLOCK {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let idx = (x as usize) & mask;
        match x & 3 {
            0 => acc = acc.wrapping_add(u64::from(table[idx])),
            1 => table[idx] = table[idx].wrapping_add(i as u32),
            2 => acc ^= x,
            _ => acc = acc.rotate_left(3),
        }
    }
    std::hint::black_box(acc);
    clock::thread_cpu() - start
}

/// Reference blocks sampled through one round.
pub struct Speed {
    table: Vec<u32>,
    samples: Vec<f64>,
    spent: Duration,
}

impl Default for Speed {
    fn default() -> Speed {
        Speed { table: vec![1; 1 << 16], samples: Vec::new(), spent: Duration::ZERO }
    }
}

impl Speed {
    /// Runs one reference block.
    pub fn sample(&mut self) {
        let t = reference_block(&mut self.table);
        self.samples.push(t.as_nanos() as f64);
        self.spent += t;
    }

    /// CPU time spent in reference blocks so far (to subtract from the
    /// process CPU of an op phase they were interleaved with).
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// How much slower than nominal the host ran (median block time over
    /// [`NOMINAL_NS`]): 1.2 means 20% slower. Times divide by it, rates
    /// multiply by it.
    pub fn factor(&self) -> f64 {
        let median = crate::stats::median(&self.samples);
        if median > 0.0 {
            median / NOMINAL_NS
        } else {
            1.0
        }
    }
}
