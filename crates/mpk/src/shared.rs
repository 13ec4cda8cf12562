//! Process-wide protection-key allocation (`pkey_alloc` / `pkey_free`).
//!
//! Protection keys are a per-process resource: the kernel hands them out
//! with `pkey_alloc` regardless of which thread asks, while rights stay
//! per-thread in each CPU's PKRU register. [`SharedPkeyPool`] models that
//! kernel bookkeeping as a cloneable handle over one atomic allocation
//! bitmap, so any thread can allocate or free keys without a lock and
//! without ever handing the same live key to two callers.

use core::fmt;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

use crate::pkey::{Pkey, MAX_PKEYS};

/// Errors from the key-allocation interface.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PkeyPoolError {
    /// All 15 allocatable keys are in use (`ENOSPC`).
    Exhausted,
    /// The key was not allocated, or is key 0 (`EINVAL`).
    NotAllocated(Pkey),
}

impl fmt::Display for PkeyPoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PkeyPoolError::Exhausted => write!(f, "no protection keys available"),
            PkeyPoolError::NotAllocated(k) => write!(f, "protection key {k} is not allocated"),
        }
    }
}

impl std::error::Error for PkeyPoolError {}

/// A thread-safe `pkey_alloc`/`pkey_free` interface.
///
/// Clones share the same underlying bitmap (the "kernel" state); the
/// allocation and free paths are lock-free compare-and-swap loops, so the
/// pool is safe to hammer from any number of worker threads. Key 0 is
/// permanently allocated and can never be freed, matching the Linux ABI.
#[derive(Clone, Debug, Default)]
pub struct SharedPkeyPool {
    allocated: Arc<AtomicU16>,
}

impl SharedPkeyPool {
    /// Creates a pool with only key 0 allocated.
    pub fn new() -> SharedPkeyPool {
        SharedPkeyPool { allocated: Arc::new(AtomicU16::new(1)) }
    }

    /// Allocates the lowest free key (`pkey_alloc`).
    ///
    /// Linearizable: concurrent callers each receive a distinct key, or
    /// [`PkeyPoolError::Exhausted`] once all 15 allocatable keys are live.
    pub fn alloc(&self) -> Result<Pkey, PkeyPoolError> {
        let mut current = self.allocated.load(Ordering::Acquire);
        loop {
            let free = (1..MAX_PKEYS).find(|i| current & (1 << i) == 0);
            let Some(index) = free else {
                return Err(PkeyPoolError::Exhausted);
            };
            match self.allocated.compare_exchange_weak(
                current,
                current | (1 << index),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                // Indices below `MAX_PKEYS` are always valid keys.
                Ok(_) => return Ok(Pkey::new(index).expect("key index in range")),
                Err(actual) => current = actual,
            }
        }
    }

    /// Releases a previously allocated key (`pkey_free`).
    ///
    /// Freeing key 0 or a key that is not currently allocated fails, as in
    /// the kernel; a double free from a racing thread is reported to
    /// exactly one of the callers.
    pub fn free(&self, key: Pkey) -> Result<(), PkeyPoolError> {
        if key == Pkey::DEFAULT {
            return Err(PkeyPoolError::NotAllocated(key));
        }
        let bit = 1u16 << key.index();
        let mut current = self.allocated.load(Ordering::Acquire);
        loop {
            if current & bit == 0 {
                return Err(PkeyPoolError::NotAllocated(key));
            }
            match self.allocated.compare_exchange_weak(
                current,
                current & !bit,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }

    /// Whether `key` is currently allocated.
    pub fn is_allocated(&self, key: Pkey) -> bool {
        self.allocated.load(Ordering::Acquire) & (1 << key.index()) != 0
    }

    /// Number of keys currently allocated, including key 0.
    pub fn allocated_count(&self) -> u32 {
        self.allocated.load(Ordering::Acquire).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_hands_out_fifteen_keys_then_exhausts() {
        let pool = SharedPkeyPool::new();
        let mut keys = Vec::new();
        for _ in 0..15 {
            keys.push(pool.alloc().unwrap());
        }
        assert_eq!(pool.alloc(), Err(PkeyPoolError::Exhausted));
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 15);
        assert!(!keys.contains(&Pkey::DEFAULT));
    }

    #[test]
    fn free_then_realloc_reuses_key() {
        let pool = SharedPkeyPool::new();
        let k = pool.alloc().unwrap();
        pool.free(k).unwrap();
        assert!(!pool.is_allocated(k));
        assert_eq!(pool.alloc().unwrap(), k);
    }

    #[test]
    fn clones_share_the_bitmap() {
        let pool = SharedPkeyPool::new();
        let handle = pool.clone();
        let k = pool.alloc().unwrap();
        assert!(handle.is_allocated(k));
        handle.free(k).unwrap();
        assert!(!pool.is_allocated(k));
    }

    #[test]
    fn key_zero_cannot_be_freed_and_double_free_rejected() {
        let pool = SharedPkeyPool::new();
        assert_eq!(pool.free(Pkey::DEFAULT), Err(PkeyPoolError::NotAllocated(Pkey::DEFAULT)));
        let k = pool.alloc().unwrap();
        pool.free(k).unwrap();
        assert_eq!(pool.free(k), Err(PkeyPoolError::NotAllocated(k)));
    }

    #[test]
    fn concurrent_allocation_yields_distinct_keys() {
        let pool = SharedPkeyPool::new();
        let handles: Vec<_> = (0..5)
            .map(|_| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    (0..3).map(|_| pool.alloc().unwrap()).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut keys: Vec<Pkey> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 15, "15 threads' keys must be pairwise distinct");
        assert_eq!(pool.allocated_count(), 16);
    }
}
