//! A per-thread software TLB over a shared address space.
//!
//! Real MPK hardware does not walk the page tables on every access: the
//! translation *and* the page's protection key ride in the TLB entry, and
//! only the PKRU comparison happens per access. That is what makes
//! in-compartment loads and stores free — and what this module rebuilds in
//! software. A [`Tlb`] is a small direct-mapped cache, owned by exactly
//! one thread, mapping a page base to `(prot, pkey, frame handle)`. The
//! hot path ([`SharedSpace::tlb_read`](crate::SharedSpace::tlb_read) and
//! friends) is an epoch load, a tag compare, a PKRU check, and a direct
//! frame access — no `RwLock`, no `BTreeMap` region walk.
//!
//! Two invariants carry the paper's security argument over:
//!
//! - **PKRU is never cached.** An entry stores the page's *key*, not a
//!   rights verdict; `pkru.allows(entry.pkey, access)` runs on every
//!   access against the calling thread's live PKRU. A `WRPKRU` at a call
//!   gate therefore needs no flush — exactly as on hardware, where PKRU
//!   checks are performed on TLB-resident pkey bits per access.
//! - **Stale translations self-invalidate.** The address space carries a
//!   global generation counter (epoch) bumped by every `mmap`, `munmap`,
//!   `mprotect`, `pkey_mprotect`, and frame materialization. Each access
//!   first compares the TLB's epoch snapshot against the global value and
//!   flushes wholesale on mismatch — the software analog of TLB shootdown.
//!   The security-critical case is `pkey_mprotect` re-keying a page: the
//!   bump guarantees no thread keeps honoring the old key.

use std::sync::Arc;

use pkru_mpk::Pkey;

use crate::prot::Prot;
use crate::space::Frame;
use crate::{VirtAddr, PAGE_SHIFT};

/// Number of entries in the direct-mapped TLB (a power of two; the page
/// number's low bits index the array, as in a hardware L1 TLB).
pub const TLB_ENTRIES: usize = 64;

/// One cached translation: the page's attributes plus a handle on its
/// frame (`None` for a mapped-but-unmaterialized page, which reads as
/// zeros and demand-pages on first write).
#[derive(Clone)]
pub(crate) struct TlbEntry {
    /// Page base address (the tag).
    pub(crate) page: VirtAddr,
    /// The page's protection bits.
    pub(crate) prot: Prot,
    /// The page's protection key. The *key* is cached; the rights check
    /// against PKRU runs per access.
    pub(crate) pkey: Pkey,
    /// Direct handle on the materialized (lock-free) frame, if any.
    pub(crate) frame: Option<Arc<Frame>>,
}

/// TLB counters, folded into [`SpaceStats`](crate::SpaceStats) (and from
/// there into the serve report): per-thread TLBs over one shared space
/// aggregate into the space's atomic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Accesses served from a cached entry.
    pub hits: u64,
    /// Accesses that walked the slow path and (re)filled an entry.
    pub misses: u64,
    /// Invalidations: whole-TLB epoch flushes and targeted page flushes.
    pub flushes: u64,
    /// Fills that displaced a live entry for a different page.
    pub evictions: u64,
}

impl TlbStats {
    /// Hit rate over all TLB-routed accesses (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-local counter buffer: the hit path bumps these as plain `u64`
/// increments (no shared-cache-line RMW per access) and the slow points —
/// miss fills, epoch flushes, [`SharedSpace::tlb_fold_stats`]
/// (crate::SharedSpace::tlb_fold_stats), and `Machine` teardown — fold
/// them into the space's shared [`AtomicStats`](crate::space) in bulk.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PendingStats {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) evictions: u64,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
}

impl PendingStats {
    /// Takes the buffered counts, leaving zeros.
    pub(crate) fn take(&mut self) -> PendingStats {
        std::mem::take(self)
    }

    /// Whether any count is buffered.
    pub(crate) fn any(&self) -> bool {
        (self.hits | self.misses | self.evictions | self.reads | self.writes) != 0
    }
}

/// A per-thread software TLB.
///
/// The cache itself is plain thread-local state: it holds no lock and is
/// only ever consulted together with the [`SharedSpace`](crate::SharedSpace)
/// it was filled from (the `tlb_*` access methods take `&mut Tlb`).
/// Using one `Tlb` against two different spaces is safe but useless — the
/// epochs will disagree and every access will flush.
pub struct Tlb {
    /// Fixed-size so the masked slot index provably stays in bounds (no
    /// per-access bounds check); boxed to keep the `Tlb` itself small.
    pub(crate) entries: Box<[Option<TlbEntry>; TLB_ENTRIES]>,
    /// Snapshot of the space's generation counter at the last sync.
    pub(crate) epoch: u64,
    /// Buffered per-thread counters, folded into the space's shared
    /// statistics at the slow points (see [`PendingStats`]).
    pub(crate) pending: PendingStats,
}

impl Tlb {
    /// An empty TLB.
    pub fn new() -> Tlb {
        Tlb {
            entries: Box::new(std::array::from_fn(|_| None)),
            epoch: 0,
            pending: PendingStats::default(),
        }
    }

    /// The direct-mapped slot for a page base.
    pub(crate) fn slot(page: VirtAddr) -> usize {
        ((page >> PAGE_SHIFT) as usize) & (TLB_ENTRIES - 1)
    }

    /// Drops every entry; returns whether any live entry was dropped.
    pub(crate) fn clear(&mut self) -> bool {
        let mut dropped = false;
        for entry in self.entries.iter_mut() {
            dropped |= entry.take().is_some();
        }
        dropped
    }

    /// Number of live entries (diagnostics and tests).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }
}

impl Default for Tlb {
    fn default() -> Tlb {
        Tlb::new()
    }
}

impl std::fmt::Debug for Tlb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tlb")
            .field("occupancy", &self.occupancy())
            .field("epoch", &self.epoch)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_page_indexed_and_wrap() {
        assert_eq!(Tlb::slot(0), 0);
        assert_eq!(Tlb::slot(crate::PAGE_SIZE), 1);
        assert_eq!(Tlb::slot(crate::PAGE_SIZE * TLB_ENTRIES as u64), 0);
    }

    #[test]
    fn hit_rate_math() {
        assert_eq!(TlbStats::default().hit_rate(), 0.0);
        let stats = TlbStats { hits: 99, misses: 1, flushes: 0, evictions: 0 };
        assert!((stats.hit_rate() - 0.99).abs() < 1e-12);
    }
}
