//! A thread-safe handle to one address space shared by many threads.
//!
//! A process has one set of page tables no matter how many threads run in
//! it; what differs per thread is the PKRU register each access is checked
//! against. [`SharedSpace`] models exactly that split: a cloneable,
//! `Send + Sync` handle over one [`AddressSpace`], while every checked
//! access takes the *calling thread's* [`Pkru`] as an argument.
//!
//! Locking mirrors the hardware/kernel division. Rights checks, loads,
//! and stores to already-materialized frames take the internal lock in
//! *shared* mode — threads touching different pages proceed in parallel,
//! as real memory accesses do, serialized only by the per-frame locks
//! when they actually collide on a page. Mapping calls (`mmap`,
//! `mprotect`, `munmap`) and demand paging take it *exclusively* — the
//! analog of the kernel's `mmap_lock`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockWriteGuard};

use pkru_mpk::{AccessKind, Pkey, Pkru};

use crate::fault::{Fault, FaultKind};
use crate::prot::Prot;
use crate::space::{AddressSpace, AtomicStats, MapError, SpaceStats};
use crate::tlb::{Tlb, TlbEntry};
use crate::{page_base, VirtAddr};

/// Whether `[addr, addr + len)` lies within a single page (the TLB fast
/// path handles exactly these; anything else takes the slow path whole).
fn single_page(addr: VirtAddr, len: u64) -> bool {
    len != 0
        && match addr.checked_add(len - 1) {
            Some(last) => page_base(addr) == page_base(last),
            None => false,
        }
}

/// A cloneable, thread-safe view of one [`AddressSpace`].
///
/// Clones share the same underlying space (regions, frames, statistics).
/// The convenience methods below each take the lock for a single
/// operation; compound sequences that must be atomic (map *and* tag, say)
/// should use [`SharedSpace::lock`] and hold the guard across both calls.
///
/// The `tlb_*` access methods additionally take a per-thread [`Tlb`] and
/// serve repeat accesses to a page without the `RwLock` or the region
/// walk. A TLB caches a page's key, never a PKRU verdict; every `mmap`,
/// `munmap`, `mprotect`, `pkey_mprotect` and frame materialization bumps
/// a global epoch, and a TLB whose snapshot disagrees flushes wholesale
/// before serving the access.
#[derive(Clone)]
pub struct SharedSpace {
    inner: Arc<RwLock<AddressSpace>>,
    /// The space's counters, shared outside the lock so the TLB fast path
    /// counts without taking it.
    stats: Arc<AtomicStats>,
    /// The space's generation counter, shared outside the lock so the TLB
    /// fast path syncs without taking it.
    epoch: Arc<AtomicU64>,
}

impl Default for SharedSpace {
    fn default() -> SharedSpace {
        SharedSpace::new()
    }
}

impl SharedSpace {
    /// Creates a handle over a fresh, empty address space.
    pub fn new() -> SharedSpace {
        let space = AddressSpace::new();
        let stats = space.stats_arc();
        let epoch = space.epoch_arc();
        SharedSpace { inner: Arc::new(RwLock::new(space)), stats, epoch }
    }

    /// Locks the space exclusively for a compound operation.
    pub fn lock(&self) -> RwLockWriteGuard<'_, AddressSpace> {
        self.inner.write().expect("space lock")
    }

    /// Whether two handles view the same underlying space.
    pub fn same_space(&self, other: &SharedSpace) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Access and fault counters (aggregated across all threads).
    /// Lock-free: the counters live outside the space lock.
    pub fn stats(&self) -> SpaceStats {
        self.stats.snapshot()
    }

    /// The space's current translation generation (see
    /// [`AddressSpace::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Maps `len` bytes at an automatically chosen address.
    pub fn mmap(&self, len: u64, prot: Prot) -> Result<VirtAddr, MapError> {
        self.lock().mmap(len, prot)
    }

    /// Maps `len` bytes at exactly `addr`.
    pub fn mmap_at(&self, addr: VirtAddr, len: u64, prot: Prot) -> Result<(), MapError> {
        self.lock().mmap_at(addr, len, prot)
    }

    /// Maps `[addr, addr + len)` if it is not already mapped.
    ///
    /// Returns `true` when this call created the mapping, `false` when a
    /// mapping was already in place — the idempotent fixed-address mapping
    /// shared process singletons (one page, many threads racing to set it
    /// up) need.
    pub fn ensure_mapped_at(&self, addr: VirtAddr, len: u64, prot: Prot) -> Result<bool, MapError> {
        match self.lock().mmap_at(addr, len, prot) {
            Ok(()) => Ok(true),
            Err(MapError::AlreadyMapped { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Unmaps `[addr, addr + len)`.
    pub fn munmap(&self, addr: VirtAddr, len: u64) -> Result<(), MapError> {
        self.lock().munmap(addr, len)
    }

    /// Changes the protection bits of a range.
    pub fn mprotect(&self, addr: VirtAddr, len: u64, prot: Prot) -> Result<(), MapError> {
        self.lock().mprotect(addr, len, prot)
    }

    /// Changes protection bits and the protection key of a range.
    pub fn pkey_mprotect(
        &self,
        addr: VirtAddr,
        len: u64,
        prot: Prot,
        pkey: Pkey,
    ) -> Result<(), MapError> {
        self.lock().pkey_mprotect(addr, len, prot, pkey)
    }

    /// The protection key tagged on the page containing `addr`.
    pub fn page_pkey(&self, addr: VirtAddr) -> Option<Pkey> {
        self.inner.read().expect("space lock").page_pkey(addr)
    }

    /// Whether `addr` lies in a mapped region.
    pub fn is_mapped(&self, addr: VirtAddr) -> bool {
        self.inner.read().expect("space lock").is_mapped(addr)
    }

    /// Checks an access against the calling thread's `pkru`.
    pub fn check(
        &self,
        pkru: Pkru,
        addr: VirtAddr,
        len: u64,
        access: AccessKind,
    ) -> Result<(), Fault> {
        self.inner.read().expect("space lock").check(pkru, addr, len, access)
    }

    /// Reads `buf.len()` bytes from `addr` under the calling thread's
    /// `pkru`.
    ///
    /// Check and copy run under one read guard (a single `inner.read()`
    /// call) — the resident path never acquires the `RwLock` twice. The
    /// TLB miss path of [`SharedSpace::tlb_read`] and its siblings keeps
    /// the same invariant.
    pub fn read(&self, pkru: Pkru, addr: VirtAddr, buf: &mut [u8]) -> Result<(), Fault> {
        self.inner.read().expect("space lock").read(pkru, addr, buf)
    }

    /// Writes `bytes` to `addr` under the calling thread's `pkru`.
    ///
    /// Fast path: shared lock, per-frame locking. Slow path (first touch
    /// of a page): exclusive lock so demand paging can materialize it.
    pub fn write(&self, pkru: Pkru, addr: VirtAddr, bytes: &[u8]) -> Result<(), Fault> {
        if let Some(result) =
            self.inner.read().expect("space lock").write_resident(pkru, addr, bytes)
        {
            return result;
        }
        self.lock().write(pkru, addr, bytes)
    }

    /// Reads a little-endian `u64` under the calling thread's `pkru`.
    /// Single read guard, like [`SharedSpace::read`].
    pub fn read_u64(&self, pkru: Pkru, addr: VirtAddr) -> Result<u64, Fault> {
        self.inner.read().expect("space lock").read_u64(pkru, addr)
    }

    /// Writes a little-endian `u64` under the calling thread's `pkru`.
    pub fn write_u64(&self, pkru: Pkru, addr: VirtAddr, value: u64) -> Result<(), Fault> {
        if let Some(result) =
            self.inner.read().expect("space lock").write_u64_resident(pkru, addr, value)
        {
            return result;
        }
        self.lock().write_u64(pkru, addr, value)
    }

    /// Reads a single byte under the calling thread's `pkru`.
    pub fn read_u8(&self, pkru: Pkru, addr: VirtAddr) -> Result<u8, Fault> {
        self.inner.read().expect("space lock").read_u8(pkru, addr)
    }

    /// Writes a single byte under the calling thread's `pkru`.
    pub fn write_u8(&self, pkru: Pkru, addr: VirtAddr, value: u8) -> Result<(), Fault> {
        self.write(pkru, addr, &[value])
    }

    // --- Software-TLB fast path -------------------------------------
    //
    // Observable behavior (results, `Fault{addr,access,kind}`, and the
    // non-TLB counters) is identical to the plain methods above; the
    // coherence proptest in `tests/tlb_coherence.rs` pins this. The fault
    // check order matches `AddressSpace::check` exactly: unmapped, then
    // protection bits, then pkey.

    /// Folds `tlb`'s buffered per-thread counters into the space's shared
    /// statistics. The hit path counts into plain thread-local `u64`s (no
    /// shared-cache-line RMW per access); this publishes them in bulk.
    /// Called automatically at the slow points (miss fills, epoch
    /// flushes) and from `Machine` teardown — call it explicitly before
    /// reading [`SharedSpace::stats`] while a hot `Tlb` is still live.
    pub fn tlb_fold_stats(&self, tlb: &mut Tlb) {
        if !tlb.pending.any() {
            return;
        }
        let p = tlb.pending.take();
        self.stats.tlb_hits.fetch_add(p.hits, Ordering::Relaxed);
        self.stats.tlb_misses.fetch_add(p.misses, Ordering::Relaxed);
        self.stats.tlb_evictions.fetch_add(p.evictions, Ordering::Relaxed);
        self.stats.reads.fetch_add(p.reads, Ordering::Relaxed);
        self.stats.writes.fetch_add(p.writes, Ordering::Relaxed);
    }

    /// Synchronizes `tlb` with the space's generation counter, flushing
    /// wholesale on mismatch — the consumer side of the TLB-shootdown
    /// analog (`bump_epoch`).
    fn tlb_sync(&self, tlb: &mut Tlb) {
        let now = self.epoch.load(Ordering::Acquire);
        if tlb.epoch != now {
            self.tlb_fold_stats(tlb);
            if tlb.clear() {
                self.stats.tlb_flushes.fetch_add(1, Ordering::Relaxed);
            }
            tlb.epoch = now;
        }
    }

    /// Resolves `addr`'s page to a valid TLB slot, filling from the slow
    /// path on miss, and performs the per-access rights check against the
    /// caller's live `pkru` (never against a cached verdict).
    ///
    /// The miss fill reads the page attributes and the frame handle under
    /// ONE read guard — the same single-guard rule the resident paths
    /// follow — so an entry can never mix attributes and frame from two
    /// different generations. Because the fill happens at-or-after the
    /// epoch snapshot taken in [`SharedSpace::tlb_sync`], an entry is
    /// never *older* than `tlb.epoch`; a concurrent bump between the two
    /// at worst causes one spurious whole-TLB flush on the next access.
    /// Returns the checked entry itself; the borrow lives as long as the
    /// caller's `&mut Tlb`, so callers count `pending.reads`/`writes`
    /// *after* the frame access, once the entry borrow has ended.
    #[inline]
    fn tlb_lookup<'t>(
        &self,
        tlb: &'t mut Tlb,
        pkru: Pkru,
        addr: VirtAddr,
        access: AccessKind,
    ) -> Result<&'t TlbEntry, Fault> {
        self.tlb_sync(tlb);
        let page = page_base(addr);
        let slot = Tlb::slot(page);
        let hit = matches!(&tlb.entries[slot], Some(e) if e.page == page);
        if hit {
            tlb.pending.hits += 1;
        } else {
            tlb.pending.misses += 1;
            // Already off the fast path: publish the buffered counters
            // while we are here, so the shared statistics lag by at most
            // one all-hits run.
            self.tlb_fold_stats(tlb);
            let guard = self.inner.read().expect("space lock");
            let Some((prot, pkey)) = guard.page_attrs(page) else {
                drop(guard);
                // Unmapped pages are never cached (no negative entries):
                // a later mmap must be visible even without an epoch race.
                let fault = Fault { addr, access, kind: FaultKind::Unmapped };
                self.stats.count_fault(&fault);
                return Err(fault);
            };
            let frame = guard.frame_arc(page);
            drop(guard);
            if matches!(&tlb.entries[slot], Some(old) if old.page != page) {
                tlb.pending.evictions += 1;
            }
            tlb.entries[slot] = Some(TlbEntry { page, prot, pkey, frame });
        }
        let entry = tlb.entries[slot].as_ref().expect("slot filled above");
        let needed = match access {
            AccessKind::Read => Prot::READ,
            AccessKind::Write => Prot::WRITE,
        };
        let fault = if !entry.prot.contains(needed) {
            Some(Fault { addr, access, kind: FaultKind::ProtViolation })
        } else if !pkru.allows(entry.pkey, access) {
            Some(Fault { addr, access, kind: FaultKind::PkeyViolation { pkey: entry.pkey, pkru } })
        } else {
            None
        };
        if let Some(fault) = fault {
            self.stats.count_fault(&fault);
            return Err(fault);
        }
        Ok(entry)
    }

    /// [`SharedSpace::read`] through a per-thread TLB. Accesses that
    /// straddle a page (or a disabled TLB) fall back to the slow path
    /// wholesale.
    pub fn tlb_read(
        &self,
        tlb: &mut Tlb,
        pkru: Pkru,
        addr: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), Fault> {
        if !tlb.enabled() || !single_page(addr, buf.len() as u64) {
            return self.read(pkru, addr, buf);
        }
        let entry = self.tlb_lookup(tlb, pkru, addr, AccessKind::Read)?;
        match &entry.frame {
            Some(frame) => frame.read_into((addr - entry.page) as usize, buf),
            // Mapped but unmaterialized: demand-zero semantics.
            None => buf.fill(0),
        }
        tlb.pending.reads += 1;
        Ok(())
    }

    /// [`SharedSpace::write`] through a per-thread TLB.
    pub fn tlb_write(
        &self,
        tlb: &mut Tlb,
        pkru: Pkru,
        addr: VirtAddr,
        bytes: &[u8],
    ) -> Result<(), Fault> {
        if !tlb.enabled() || !single_page(addr, bytes.len() as u64) {
            return self.write(pkru, addr, bytes);
        }
        let entry = self.tlb_lookup(tlb, pkru, addr, AccessKind::Write)?;
        match &entry.frame {
            Some(frame) => frame.write_from((addr - entry.page) as usize, bytes),
            // First touch of the page: demand paging needs the exclusive
            // slow path, which re-checks, counts the write itself, and
            // bumps the epoch — so the stale `frame: None` entry flushes
            // on next sync.
            None => return self.write(pkru, addr, bytes),
        }
        tlb.pending.writes += 1;
        Ok(())
    }

    /// [`SharedSpace::read_u64`] through a per-thread TLB.
    ///
    /// Specialized (rather than delegating to [`SharedSpace::tlb_read`])
    /// so the hit path is branch-light: the straddle test reduces to one
    /// mask-and-compare and the value loads without a stack buffer.
    #[inline]
    pub fn tlb_read_u64(&self, tlb: &mut Tlb, pkru: Pkru, addr: VirtAddr) -> Result<u64, Fault> {
        if !tlb.enabled() || (addr & (crate::PAGE_SIZE - 1)) > crate::PAGE_SIZE - 8 {
            return self.read_u64(pkru, addr);
        }
        let entry = self.tlb_lookup(tlb, pkru, addr, AccessKind::Read)?;
        let value = match &entry.frame {
            Some(frame) => frame.read_u64((addr - entry.page) as usize),
            None => 0,
        };
        tlb.pending.reads += 1;
        Ok(value)
    }

    /// [`SharedSpace::write_u64`] through a per-thread TLB.
    pub fn tlb_write_u64(
        &self,
        tlb: &mut Tlb,
        pkru: Pkru,
        addr: VirtAddr,
        value: u64,
    ) -> Result<(), Fault> {
        if !tlb.enabled() || (addr & (crate::PAGE_SIZE - 1)) > crate::PAGE_SIZE - 8 {
            return self.write_u64(pkru, addr, value);
        }
        let entry = self.tlb_lookup(tlb, pkru, addr, AccessKind::Write)?;
        match &entry.frame {
            Some(frame) => frame.write_u64((addr - entry.page) as usize, value),
            // First touch: demand paging takes the exclusive slow path.
            None => return self.write_u64(pkru, addr, value),
        }
        tlb.pending.writes += 1;
        Ok(())
    }

    /// [`SharedSpace::read_u8`] through a per-thread TLB. A byte can
    /// never straddle a page, so the hit path has no straddle test at
    /// all — this is the unit of the DOM string traffic that dominates
    /// the browser workloads.
    #[inline]
    pub fn tlb_read_u8(&self, tlb: &mut Tlb, pkru: Pkru, addr: VirtAddr) -> Result<u8, Fault> {
        if !tlb.enabled() {
            return self.read_u8(pkru, addr);
        }
        let entry = self.tlb_lookup(tlb, pkru, addr, AccessKind::Read)?;
        let value = match &entry.frame {
            Some(frame) => frame.read_u8((addr - entry.page) as usize),
            None => 0,
        };
        tlb.pending.reads += 1;
        Ok(value)
    }

    /// [`SharedSpace::write_u8`] through a per-thread TLB.
    pub fn tlb_write_u8(
        &self,
        tlb: &mut Tlb,
        pkru: Pkru,
        addr: VirtAddr,
        value: u8,
    ) -> Result<(), Fault> {
        if !tlb.enabled() {
            return self.write(pkru, addr, &[value]);
        }
        let entry = self.tlb_lookup(tlb, pkru, addr, AccessKind::Write)?;
        match &entry.frame {
            Some(frame) => frame.write_u8((addr - entry.page) as usize, value),
            None => return self.write(pkru, addr, &[value]),
        }
        tlb.pending.writes += 1;
        Ok(())
    }

    /// Drops the cached translation of `addr`'s page, if any. The
    /// violation-handler replay path uses this so a verdict recorded for
    /// a page is honored on the very next access, not one epoch later.
    pub fn tlb_flush_page(&self, tlb: &mut Tlb, addr: VirtAddr) {
        let page = page_base(addr);
        let slot = Tlb::slot(page);
        if matches!(&tlb.entries[slot], Some(e) if e.page == page) {
            tlb.entries[slot] = None;
            self.stats.tlb_flushes.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for SharedSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSpace").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    #[test]
    fn clones_view_the_same_space() {
        let space = SharedSpace::new();
        let view = space.clone();
        let a = space.mmap(PAGE_SIZE, Prot::READ_WRITE).unwrap();
        view.write_u64(Pkru::ALL_ACCESS, a, 99).unwrap();
        assert_eq!(space.read_u64(Pkru::ALL_ACCESS, a).unwrap(), 99);
        assert!(space.same_space(&view));
        assert!(!space.same_space(&SharedSpace::new()));
    }

    #[test]
    fn ensure_mapped_at_is_idempotent() {
        let space = SharedSpace::new();
        assert!(space.ensure_mapped_at(0x7000_0000, PAGE_SIZE, Prot::READ_WRITE).unwrap());
        assert!(!space.ensure_mapped_at(0x7000_0000, PAGE_SIZE, Prot::READ_WRITE).unwrap());
        assert_eq!(
            space.ensure_mapped_at(0x7000_0001, PAGE_SIZE, Prot::READ_WRITE),
            Err(MapError::Misaligned)
        );
    }

    #[test]
    fn checks_use_the_callers_pkru() {
        // Two "threads": same space, different rights.
        let space = SharedSpace::new();
        let a = space.mmap(PAGE_SIZE, Prot::READ_WRITE).unwrap();
        let key = Pkey::new(1).unwrap();
        space.pkey_mprotect(a, PAGE_SIZE, Prot::READ_WRITE, key).unwrap();
        let trusted = Pkru::ALL_ACCESS;
        let untrusted = Pkru::deny_only(key);
        assert!(space.read_u64(trusted, a).is_ok());
        assert!(space.read_u64(untrusted, a).unwrap_err().is_pkey_violation());
    }

    #[test]
    fn resident_write_fast_path_matches_slow_path() {
        let space = SharedSpace::new();
        let a = space.mmap(2 * PAGE_SIZE, Prot::READ_WRITE).unwrap();
        // First write demand-pages (exclusive path); second is resident
        // (shared path). Both must be visible identically.
        space.write_u64(Pkru::ALL_ACCESS, a, 1).unwrap();
        space.write_u64(Pkru::ALL_ACCESS, a, 2).unwrap();
        assert_eq!(space.read_u64(Pkru::ALL_ACCESS, a).unwrap(), 2);
        // A straddling write exercises the multi-frame resident check.
        let boundary = a + PAGE_SIZE - 4;
        space.write_u64(Pkru::ALL_ACCESS, boundary, 0x1122_3344_5566_7788).unwrap();
        space.write_u64(Pkru::ALL_ACCESS, boundary, 0x8877_6655_4433_2211).unwrap();
        assert_eq!(space.read_u64(Pkru::ALL_ACCESS, boundary).unwrap(), 0x8877_6655_4433_2211);
    }

    #[test]
    fn concurrent_writers_do_not_corrupt_frames() {
        let space = SharedSpace::new();
        let a = space.mmap(8 * PAGE_SIZE, Prot::READ_WRITE).unwrap();
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let space = space.clone();
                std::thread::spawn(move || {
                    for i in 0..256u64 {
                        let addr = a + t * PAGE_SIZE + i * 8;
                        space.write_u64(Pkru::ALL_ACCESS, addr, t << 32 | i).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            for i in 0..256u64 {
                let addr = a + t * PAGE_SIZE + i * 8;
                assert_eq!(space.read_u64(Pkru::ALL_ACCESS, addr).unwrap(), t << 32 | i);
            }
        }
    }
}
