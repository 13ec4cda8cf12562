//! The address space: region map, demand paging, and rights-checked access.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use pkru_mpk::{AccessKind, Pkey, Pkru};

use crate::fault::{Fault, FaultKind};
use crate::prot::Prot;
use crate::tlb::TlbStats;
use crate::{page_align_up, page_base, VirtAddr, PAGE_SIZE};

/// Where `mmap` without an address hint starts placing mappings.
const AUTO_BASE: VirtAddr = 0x9100_0000_0000;

/// Errors from the mapping interface (the `mmap`/`mprotect` analogs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapError {
    /// A fixed-address mapping overlaps an existing region (`EEXIST`).
    AlreadyMapped { addr: VirtAddr },
    /// Part of the range is not mapped (`ENOMEM` from `mprotect`).
    NotMapped { addr: VirtAddr },
    /// The address or length is not page-aligned or overflows (`EINVAL`).
    Misaligned,
    /// Zero-length mappings are invalid (`EINVAL`).
    ZeroLength,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::AlreadyMapped { addr } => write!(f, "range at {addr:#x} already mapped"),
            MapError::NotMapped { addr } => write!(f, "range at {addr:#x} not mapped"),
            MapError::Misaligned => write!(f, "address or length not page-aligned"),
            MapError::ZeroLength => write!(f, "zero-length mapping"),
        }
    }
}

impl std::error::Error for MapError {}

/// One materialized 4 KiB page frame, stored as per-byte atomics.
///
/// This is the simulator's memory model made literal: accesses to
/// disjoint bytes proceed in parallel with no lock (as real loads and
/// stores do), racing accesses to the same range interleave at byte
/// granularity — tearing is possible across bytes, torn *bits* are not,
/// and no access ever blocks another. Every relaxed byte load/store
/// compiles to a plain `mov`, which is what makes the software-TLB hit
/// path cheap enough to beat the region walk by a wide margin.
pub(crate) struct Frame {
    bytes: Box<[AtomicU8]>,
}

impl Frame {
    /// A zero-filled frame (demand-zero semantics).
    fn zeroed() -> Frame {
        let mut bytes = Vec::with_capacity(PAGE_SIZE as usize);
        bytes.resize_with(PAGE_SIZE as usize, || AtomicU8::new(0));
        Frame { bytes: bytes.into_boxed_slice() }
    }

    /// Copies `buf.len()` bytes starting at `offset` into `buf`.
    #[inline]
    pub(crate) fn read_into(&self, offset: usize, buf: &mut [u8]) {
        let cells = &self.bytes[offset..offset + buf.len()];
        for (b, cell) in buf.iter_mut().zip(cells) {
            *b = cell.load(Ordering::Relaxed);
        }
    }

    /// Copies `bytes` into the frame starting at `offset`.
    #[inline]
    pub(crate) fn write_from(&self, offset: usize, bytes: &[u8]) {
        for (b, cell) in bytes.iter().zip(&self.bytes[offset..offset + bytes.len()]) {
            cell.store(*b, Ordering::Relaxed);
        }
    }

    /// Reads a little-endian `u64` at `offset` (which the caller has
    /// bounds-checked to `offset <= PAGE_SIZE - 8`).
    #[inline]
    pub(crate) fn read_u64(&self, offset: usize) -> u64 {
        let mut b = [0u8; 8];
        self.read_into(offset, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `offset`.
    #[inline]
    pub(crate) fn write_u64(&self, offset: usize, value: u64) {
        self.write_from(offset, &value.to_le_bytes());
    }

    /// Reads the byte at `offset`.
    #[inline]
    pub(crate) fn read_u8(&self, offset: usize) -> u8 {
        self.bytes[offset].load(Ordering::Relaxed)
    }

    /// Writes the byte at `offset`.
    #[inline]
    pub(crate) fn write_u8(&self, offset: usize, value: u8) {
        self.bytes[offset].store(value, Ordering::Relaxed);
    }
}

/// A contiguous run of pages with identical attributes.
#[derive(Clone, Copy, Debug)]
struct Region {
    start: VirtAddr,
    /// Exclusive end.
    end: VirtAddr,
    prot: Prot,
    pkey: Pkey,
}

/// Counters describing the space, used throughout the evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpaceStats {
    /// Pages materialized by demand paging (i.e. actually written).
    pub demand_pages: u64,
    /// Rights-checked loads performed.
    pub reads: u64,
    /// Rights-checked stores performed.
    pub writes: u64,
    /// Faults raised, by class.
    pub pkey_faults: u64,
    /// Protection-bit faults raised.
    pub prot_faults: u64,
    /// Unmapped-address faults raised.
    pub unmapped_faults: u64,
    /// Software-TLB counters, aggregated across every per-thread TLB
    /// filled from this space.
    pub tlb: TlbStats,
}

/// Internal counters, atomic so rights-checked *accesses* can run under a
/// shared borrow (many reader threads) while mapping calls stay exclusive.
/// Shared by `Arc` so the TLB fast path can count without any lock.
#[derive(Default)]
pub(crate) struct AtomicStats {
    demand_pages: AtomicU64,
    pub(crate) reads: AtomicU64,
    pub(crate) writes: AtomicU64,
    pkey_faults: AtomicU64,
    prot_faults: AtomicU64,
    unmapped_faults: AtomicU64,
    pub(crate) tlb_hits: AtomicU64,
    pub(crate) tlb_misses: AtomicU64,
    pub(crate) tlb_flushes: AtomicU64,
    pub(crate) tlb_evictions: AtomicU64,
}

impl AtomicStats {
    pub(crate) fn snapshot(&self) -> SpaceStats {
        SpaceStats {
            demand_pages: self.demand_pages.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            pkey_faults: self.pkey_faults.load(Ordering::Relaxed),
            prot_faults: self.prot_faults.load(Ordering::Relaxed),
            unmapped_faults: self.unmapped_faults.load(Ordering::Relaxed),
            tlb: TlbStats {
                hits: self.tlb_hits.load(Ordering::Relaxed),
                misses: self.tlb_misses.load(Ordering::Relaxed),
                flushes: self.tlb_flushes.load(Ordering::Relaxed),
                evictions: self.tlb_evictions.load(Ordering::Relaxed),
            },
        }
    }

    /// Counts one raised fault in the class-specific counter. Every path
    /// that *returns* a fault to the guest counts it here exactly once —
    /// the slow path in [`AddressSpace::check`], the TLB fast path in
    /// `SharedSpace`.
    pub(crate) fn count_fault(&self, fault: &Fault) {
        let counter = match fault.kind {
            FaultKind::Unmapped => &self.unmapped_faults,
            FaultKind::ProtViolation => &self.prot_faults,
            FaultKind::PkeyViolation { .. } => &self.pkey_faults,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A simulated 64-bit address space.
///
/// Mappings are tracked as page-aligned regions; page *frames* are
/// materialized only when first written, so reserving an enormous trusted
/// region up front is effectively free (the paper reserves 46 bits of
/// address space for `M_T` this way).
///
/// Like hardware, the page tables distinguish walking from changing:
/// rights checks, loads, and stores into materialized frames take `&self`
/// (frames are lock-free, so threads touching any pages proceed in
/// parallel), while anything that edits the region map or materializes
/// frames — `mmap`, `mprotect`, demand paging — takes `&mut self`.
pub struct AddressSpace {
    regions: BTreeMap<VirtAddr, Region>,
    /// Frames are `Arc`'d so a per-thread software TLB can hold a direct
    /// handle and access page contents without walking the maps (or, for
    /// `SharedSpace`, without even taking the space lock). The frames
    /// themselves are lock-free ([`Frame`]), so a cached handle is a
    /// straight line to the bytes.
    frames: HashMap<VirtAddr, Arc<Frame>>,
    auto_cursor: VirtAddr,
    /// Shared by `Arc` so the TLB fast path counts lock-free.
    stats: Arc<AtomicStats>,
    /// Generation counter: bumped by every operation that can invalidate
    /// a cached translation (`mmap`, `munmap`, `mprotect`,
    /// `pkey_mprotect`, frame materialization). TLBs snapshot it and
    /// flush on mismatch — the software analog of TLB shootdown.
    epoch: Arc<AtomicU64>,
}

impl Default for AddressSpace {
    fn default() -> AddressSpace {
        AddressSpace::new()
    }
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace {
            regions: BTreeMap::new(),
            frames: HashMap::new(),
            auto_cursor: AUTO_BASE,
            stats: Arc::new(AtomicStats::default()),
            epoch: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Access and fault counters.
    pub fn stats(&self) -> SpaceStats {
        self.stats.snapshot()
    }

    /// The current translation generation. Any cached page attribute
    /// observed at an older epoch may be stale.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Invalidates every cached translation of this space: called by each
    /// mapping-layer mutation, mirroring a hardware TLB shootdown.
    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Handles for the lock-free side channels `SharedSpace` exposes to
    /// per-thread TLBs.
    pub(crate) fn stats_arc(&self) -> Arc<AtomicStats> {
        Arc::clone(&self.stats)
    }

    pub(crate) fn epoch_arc(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.epoch)
    }

    /// The `(prot, pkey)` attributes of the page containing `addr`, for a
    /// TLB fill. Pages inherit their region's attributes wholesale.
    pub(crate) fn page_attrs(&self, addr: VirtAddr) -> Option<(Prot, Pkey)> {
        self.region_containing(addr).map(|r| (r.prot, r.pkey))
    }

    /// A direct handle on the frame backing `base`, for a TLB fill.
    pub(crate) fn frame_arc(&self, base: VirtAddr) -> Option<Arc<Frame>> {
        self.frames.get(&base).map(Arc::clone)
    }

    /// Number of bytes currently mapped (sum of region sizes).
    pub fn mapped_bytes(&self) -> u64 {
        self.regions.values().map(|r| r.end - r.start).sum()
    }

    /// Number of bytes backed by materialized frames.
    pub fn resident_bytes(&self) -> u64 {
        self.frames.len() as u64 * PAGE_SIZE
    }

    /// Number of materialized pages whose base lies in `[start, end)`.
    pub fn resident_pages_in(&self, start: VirtAddr, end: VirtAddr) -> u64 {
        self.frames.keys().filter(|&&base| (start..end).contains(&base)).count() as u64
    }

    fn region_containing(&self, addr: VirtAddr) -> Option<&Region> {
        let (_, region) = self.regions.range(..=addr).next_back()?;
        (addr < region.end).then_some(region)
    }

    fn range_is_free(&self, start: VirtAddr, end: VirtAddr) -> bool {
        // A colliding region either starts inside [start, end) or starts
        // before and extends into it.
        if self.regions.range(start..end).next().is_some() {
            return false;
        }
        match self.regions.range(..start).next_back() {
            Some((_, r)) => r.end <= start,
            None => true,
        }
    }

    /// Maps `len` bytes at an automatically chosen address.
    ///
    /// Pages carry [`Pkey::DEFAULT`] until retagged with
    /// [`AddressSpace::pkey_mprotect`].
    pub fn mmap(&mut self, len: u64, prot: Prot) -> Result<VirtAddr, MapError> {
        if len == 0 {
            return Err(MapError::ZeroLength);
        }
        let len = page_align_up(len);
        let mut candidate = self.auto_cursor;
        loop {
            let end = candidate.checked_add(len).ok_or(MapError::Misaligned)?;
            if self.range_is_free(candidate, end) {
                self.auto_cursor = end;
                self.insert_region(candidate, end, prot, Pkey::DEFAULT);
                self.bump_epoch();
                return Ok(candidate);
            }
            // Skip past the colliding region and retry.
            let next_end = self.regions.range(..end).next_back().map(|(_, r)| r.end).unwrap_or(end);
            candidate = next_end.max(candidate + PAGE_SIZE);
        }
    }

    /// Maps `len` bytes at exactly `addr` (a non-clobbering `MAP_FIXED`).
    pub fn mmap_at(&mut self, addr: VirtAddr, len: u64, prot: Prot) -> Result<(), MapError> {
        if len == 0 {
            return Err(MapError::ZeroLength);
        }
        if !addr.is_multiple_of(PAGE_SIZE) {
            return Err(MapError::Misaligned);
        }
        let len = page_align_up(len);
        let end = addr.checked_add(len).ok_or(MapError::Misaligned)?;
        if !self.range_is_free(addr, end) {
            return Err(MapError::AlreadyMapped { addr });
        }
        self.insert_region(addr, end, prot, Pkey::DEFAULT);
        self.bump_epoch();
        Ok(())
    }

    fn insert_region(&mut self, start: VirtAddr, end: VirtAddr, prot: Prot, pkey: Pkey) {
        self.regions.insert(start, Region { start, end, prot, pkey });
    }

    /// Splits regions so that no region straddles `addr`.
    fn split_at(&mut self, addr: VirtAddr) {
        let Some((&start, &region)) = self.regions.range(..addr).next_back() else {
            return;
        };
        if addr > region.start && addr < region.end {
            self.regions.insert(start, Region { end: addr, ..region });
            self.regions.insert(addr, Region { start: addr, ..region });
        }
    }

    /// Applies `f` to every whole region inside `[start, end)`, splitting
    /// boundary regions first. Fails if any page in the range is unmapped.
    fn for_range(
        &mut self,
        start: VirtAddr,
        len: u64,
        mut f: impl FnMut(&mut Region),
    ) -> Result<(), MapError> {
        if len == 0 {
            return Ok(());
        }
        if !start.is_multiple_of(PAGE_SIZE) {
            return Err(MapError::Misaligned);
        }
        let len = page_align_up(len);
        let end = start.checked_add(len).ok_or(MapError::Misaligned)?;
        // Verify full coverage before mutating anything.
        let mut cursor = start;
        while cursor < end {
            match self.region_containing(cursor) {
                Some(r) => cursor = r.end,
                None => return Err(MapError::NotMapped { addr: cursor }),
            }
        }
        self.split_at(start);
        self.split_at(end);
        let keys: Vec<VirtAddr> = self.regions.range(start..end).map(|(k, _)| *k).collect();
        for k in keys {
            // The key set was collected from the map above.
            let region = self.regions.get_mut(&k).expect("region key valid");
            f(region);
        }
        Ok(())
    }

    /// Unmaps `[addr, addr + len)` and discards its frames.
    pub fn munmap(&mut self, addr: VirtAddr, len: u64) -> Result<(), MapError> {
        self.for_range(addr, len, |_| {})?;
        let end = addr + page_align_up(len);
        let keys: Vec<VirtAddr> = self.regions.range(addr..end).map(|(k, _)| *k).collect();
        for k in keys {
            self.regions.remove(&k);
        }
        let mut page = addr;
        while page < end {
            self.frames.remove(&page);
            page += PAGE_SIZE;
        }
        self.bump_epoch();
        Ok(())
    }

    /// Changes the protection bits of `[addr, addr + len)`.
    pub fn mprotect(&mut self, addr: VirtAddr, len: u64, prot: Prot) -> Result<(), MapError> {
        self.for_range(addr, len, |r| r.prot = prot)?;
        self.bump_epoch();
        Ok(())
    }

    /// Changes protection bits *and* the protection key of a range.
    ///
    /// This is the `pkey_mprotect` syscall: it is how PKRU-Safe tags the
    /// trusted pool's pages with the trusted key at startup.
    pub fn pkey_mprotect(
        &mut self,
        addr: VirtAddr,
        len: u64,
        prot: Prot,
        pkey: Pkey,
    ) -> Result<(), MapError> {
        self.for_range(addr, len, |r| {
            r.prot = prot;
            r.pkey = pkey;
        })?;
        // The shootdown analog that carries the security argument: no TLB
        // may keep honoring the page's old key after a re-tag.
        self.bump_epoch();
        Ok(())
    }

    /// The protection key tagged on the page containing `addr`.
    pub fn page_pkey(&self, addr: VirtAddr) -> Option<Pkey> {
        self.region_containing(addr).map(|r| r.pkey)
    }

    /// The protection bits of the page containing `addr`.
    pub fn page_prot(&self, addr: VirtAddr) -> Option<Prot> {
        self.region_containing(addr).map(|r| r.prot)
    }

    /// Whether `addr` lies in a mapped region.
    pub fn is_mapped(&self, addr: VirtAddr) -> bool {
        self.region_containing(addr).is_some()
    }

    /// Checks a `[addr, addr + len)` access against `pkru` without
    /// performing it. Returns the first fault encountered, if any.
    ///
    /// Fault accounting happens here, and only here on the slow path:
    /// exactly one counter increment per fault *returned to the caller*.
    /// The walk itself is uncounted because the address-wrap path recurses
    /// into it — counting inside the walk would bill a faulting prefix
    /// twice (once in the recursive call, once at the outer layer).
    pub fn check(
        &self,
        pkru: Pkru,
        addr: VirtAddr,
        len: u64,
        access: AccessKind,
    ) -> Result<(), Fault> {
        self.check_uncounted(pkru, addr, len, access).inspect_err(|fault| {
            self.stats.count_fault(fault);
        })
    }

    /// The rights walk of [`AddressSpace::check`], with no fault
    /// accounting.
    fn check_uncounted(
        &self,
        pkru: Pkru,
        addr: VirtAddr,
        len: u64,
        access: AccessKind,
    ) -> Result<(), Fault> {
        if len == 0 {
            return Ok(());
        }
        let end = match addr.checked_add(len) {
            Some(end) => end,
            None => {
                // The access wraps past the top of the address space. The
                // first faulting byte is whichever byte of the representable
                // prefix faults — or byte `u64::MAX` itself, which can never
                // be mapped (region ends are exclusive and bounded).
                self.check_uncounted(pkru, addr, u64::MAX - addr, access)?;
                return Err(Fault { addr: u64::MAX, access, kind: FaultKind::Unmapped });
            }
        };
        let mut cursor = addr;
        while cursor < end {
            let region = match self.region_containing(cursor) {
                Some(r) => *r,
                None => {
                    return Err(Fault { addr: cursor, access, kind: FaultKind::Unmapped });
                }
            };
            let needed = match access {
                AccessKind::Read => Prot::READ,
                AccessKind::Write => Prot::WRITE,
            };
            if !region.prot.contains(needed) {
                return Err(Fault { addr: cursor, access, kind: FaultKind::ProtViolation });
            }
            if !pkru.allows(region.pkey, access) {
                return Err(Fault {
                    addr: cursor,
                    access,
                    kind: FaultKind::PkeyViolation { pkey: region.pkey, pkru },
                });
            }
            cursor = region.end.min(end);
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes from `addr` under `pkru`.
    pub fn read(&self, pkru: Pkru, addr: VirtAddr, buf: &mut [u8]) -> Result<(), Fault> {
        self.check(pkru, addr, buf.len() as u64, AccessKind::Read)?;
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.copy_out(addr, buf);
        Ok(())
    }

    /// Writes `bytes` to `addr` under `pkru`.
    pub fn write(&mut self, pkru: Pkru, addr: VirtAddr, bytes: &[u8]) -> Result<(), Fault> {
        self.check(pkru, addr, bytes.len() as u64, AccessKind::Write)?;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.copy_in(addr, bytes);
        Ok(())
    }

    /// Checked store that succeeds only when every touched frame is
    /// already materialized, so it needs no page-table mutation.
    ///
    /// `None` means a frame is missing: the caller must retry via
    /// [`AddressSpace::write`] under exclusive access so demand paging can
    /// run. `Some(Err(_))` reports the access fault either way.
    pub fn write_resident(
        &self,
        pkru: Pkru,
        addr: VirtAddr,
        bytes: &[u8],
    ) -> Option<Result<(), Fault>> {
        if let Err(fault) = self.check(pkru, addr, bytes.len() as u64, AccessKind::Write) {
            return Some(Err(fault));
        }
        if !self.frames_resident(addr, bytes.len() as u64) {
            return None;
        }
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.copy_in_resident(addr, bytes);
        Some(Ok(()))
    }

    /// Reads a little-endian `u64` under `pkru`.
    pub fn read_u64(&self, pkru: Pkru, addr: VirtAddr) -> Result<u64, Fault> {
        self.check(pkru, addr, 8, AccessKind::Read)?;
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        Ok(self.peek_u64(addr))
    }

    /// Writes a little-endian `u64` under `pkru`.
    pub fn write_u64(&mut self, pkru: Pkru, addr: VirtAddr, value: u64) -> Result<(), Fault> {
        self.check(pkru, addr, 8, AccessKind::Write)?;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.poke_u64(addr, value);
        Ok(())
    }

    /// The `u64` variant of [`AddressSpace::write_resident`].
    pub fn write_u64_resident(
        &self,
        pkru: Pkru,
        addr: VirtAddr,
        value: u64,
    ) -> Option<Result<(), Fault>> {
        self.write_resident(pkru, addr, &value.to_le_bytes())
    }

    /// Reads a single byte under `pkru`.
    pub fn read_u8(&self, pkru: Pkru, addr: VirtAddr) -> Result<u8, Fault> {
        let mut b = [0u8; 1];
        self.read(pkru, addr, &mut b)?;
        Ok(b[0])
    }

    /// Writes a single byte under `pkru`.
    pub fn write_u8(&mut self, pkru: Pkru, addr: VirtAddr, value: u8) -> Result<(), Fault> {
        self.write(pkru, addr, &[value])
    }

    /// Supervisor read: ignores pkeys (the kernel and the trusted runtime's
    /// fault handler read this way) but still requires the range be mapped.
    pub fn read_supervisor(&self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), Fault> {
        self.check_mapped(addr, buf.len() as u64, AccessKind::Read)?;
        self.copy_out(addr, buf);
        Ok(())
    }

    /// Supervisor write: ignores pkeys and protection bits except mapping.
    pub fn write_supervisor(&mut self, addr: VirtAddr, bytes: &[u8]) -> Result<(), Fault> {
        self.check_mapped(addr, bytes.len() as u64, AccessKind::Write)?;
        self.copy_in(addr, bytes);
        Ok(())
    }

    /// Supervisor store that succeeds only when every touched frame is
    /// already materialized (see [`AddressSpace::write_resident`]).
    pub fn write_supervisor_resident(
        &self,
        addr: VirtAddr,
        bytes: &[u8],
    ) -> Option<Result<(), Fault>> {
        if let Err(fault) = self.check_mapped(addr, bytes.len() as u64, AccessKind::Write) {
            return Some(Err(fault));
        }
        if !self.frames_resident(addr, bytes.len() as u64) {
            return None;
        }
        self.copy_in_resident(addr, bytes);
        Some(Ok(()))
    }

    fn check_mapped(&self, addr: VirtAddr, len: u64, access: AccessKind) -> Result<(), Fault> {
        if len == 0 {
            return Ok(());
        }
        let end = match addr.checked_add(len) {
            Some(end) => end,
            None => {
                // See `check`: report the true first faulting byte even for
                // accesses whose end wraps past the top of the space.
                self.check_mapped(addr, u64::MAX - addr, access)?;
                return Err(Fault { addr: u64::MAX, access, kind: FaultKind::Unmapped });
            }
        };
        let mut cursor = addr;
        while cursor < end {
            match self.region_containing(cursor) {
                Some(r) => cursor = r.end.min(end),
                None => {
                    return Err(Fault { addr: cursor, access, kind: FaultKind::Unmapped });
                }
            }
        }
        Ok(())
    }

    // Unchecked data movement; callers have already validated the range.
    // Frames are lock-free, so the movers never block each other; frames
    // cannot appear or vanish while a shared borrow is live, because that
    // requires `&mut self`.

    fn copy_out(&self, addr: VirtAddr, buf: &mut [u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let cur = addr + off as u64;
            let base = page_base(cur);
            let in_page = (cur - base) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(buf.len() - off);
            match self.frames.get(&base) {
                Some(frame) => frame.read_into(in_page, &mut buf[off..off + n]),
                // Untouched pages read as zeros (demand-zero semantics).
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
    }

    fn copy_in(&mut self, addr: VirtAddr, bytes: &[u8]) {
        let mut off = 0usize;
        while off < bytes.len() {
            let cur = addr + off as u64;
            let base = page_base(cur);
            let in_page = (cur - base) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(bytes.len() - off);
            self.ensure_frame(base).write_from(in_page, &bytes[off..off + n]);
            off += n;
        }
    }

    /// Whether every page of `[addr, addr + len)` has a materialized frame.
    fn frames_resident(&self, addr: VirtAddr, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let mut base = page_base(addr);
        let end = addr + len;
        while base < end {
            if !self.frames.contains_key(&base) {
                return false;
            }
            base += PAGE_SIZE;
        }
        true
    }

    /// `copy_in` over frames known to be resident (shared borrow).
    fn copy_in_resident(&self, addr: VirtAddr, bytes: &[u8]) {
        let mut off = 0usize;
        while off < bytes.len() {
            let cur = addr + off as u64;
            let base = page_base(cur);
            let in_page = (cur - base) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(bytes.len() - off);
            self.frames
                .get(&base)
                .expect("resident frame")
                .write_from(in_page, &bytes[off..off + n]);
            off += n;
        }
    }

    /// The frame backing `base`, materializing it on first touch.
    ///
    /// Materialization bumps the epoch: a TLB that cached `frame: None`
    /// (the reads-as-zeros entry) for this page must refill, or it would
    /// keep serving zeros after another thread's write created the frame.
    fn ensure_frame(&mut self, base: VirtAddr) -> Arc<Frame> {
        let stats = &self.stats;
        let epoch = &self.epoch;
        let frame = self.frames.entry(base).or_insert_with(|| {
            stats.demand_pages.fetch_add(1, Ordering::Relaxed);
            epoch.fetch_add(1, Ordering::Release);
            Arc::new(Frame::zeroed())
        });
        Arc::clone(frame)
    }

    fn peek_u64(&self, addr: VirtAddr) -> u64 {
        let base = page_base(addr);
        if addr - base <= PAGE_SIZE - 8 {
            // Fast path: the value lies within one page.
            match self.frames.get(&base) {
                Some(frame) => frame.read_u64((addr - base) as usize),
                None => 0,
            }
        } else {
            let mut b = [0u8; 8];
            self.copy_out(addr, &mut b);
            u64::from_le_bytes(b)
        }
    }

    fn poke_u64(&mut self, addr: VirtAddr, value: u64) {
        let base = page_base(addr);
        if addr - base <= PAGE_SIZE - 8 {
            self.ensure_frame(base).write_u64((addr - base) as usize, value);
        } else {
            self.copy_in(addr, &value.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkru_mpk::PkeyRights;

    fn space_with(len: u64) -> (AddressSpace, VirtAddr) {
        let mut s = AddressSpace::new();
        let a = s.mmap(len, Prot::READ_WRITE).unwrap();
        (s, a)
    }

    #[test]
    fn mmap_read_write_roundtrip() {
        let (mut s, a) = space_with(8192);
        let pkru = Pkru::ALL_ACCESS;
        s.write(pkru, a + 100, b"hello").unwrap();
        let mut buf = [0u8; 5];
        s.read(pkru, a + 100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn untouched_pages_read_zero_without_frames() {
        let (mut s, a) = space_with(1 << 30);
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.read_u64(Pkru::ALL_ACCESS, a + 12345).unwrap(), 0);
        assert_eq!(s.resident_bytes(), 0, "reads must not materialize frames");
        s.write_u64(Pkru::ALL_ACCESS, a + 12345, 7).unwrap();
        assert_eq!(s.resident_bytes(), PAGE_SIZE, "one write materializes one frame");
        // A write straddling a page boundary materializes both pages.
        s.write_u64(Pkru::ALL_ACCESS, a + 2 * PAGE_SIZE - 4, 7).unwrap();
        assert_eq!(s.resident_bytes(), 3 * PAGE_SIZE);
    }

    #[test]
    fn large_reservation_is_cheap() {
        // The paper reserves 46 bits of address space for the trusted pool.
        let mut s = AddressSpace::new();
        let a = s.mmap(1 << 46, Prot::READ_WRITE).unwrap();
        assert_eq!(s.mapped_bytes(), 1 << 46);
        assert_eq!(s.resident_bytes(), 0);
        s.write_u64(Pkru::ALL_ACCESS, a, 1).unwrap();
        assert_eq!(s.resident_bytes(), PAGE_SIZE);
    }

    #[test]
    fn unmapped_access_faults() {
        let s = AddressSpace::new();
        let err = s.read_u64(Pkru::ALL_ACCESS, 0x5000).unwrap_err();
        assert_eq!(err.kind, FaultKind::Unmapped);
        assert_eq!(err.addr, 0x5000);
    }

    #[test]
    fn prot_violation_before_pkey() {
        let mut s = AddressSpace::new();
        let a = s.mmap(4096, Prot::READ).unwrap();
        let trusted = Pkey::new(1).unwrap();
        s.pkey_mprotect(a, 4096, Prot::READ, trusted).unwrap();
        // Even with a PKRU that denies the key, a store first trips the
        // protection bits? No: hardware checks prot bits first.
        let err = s.write_u64(Pkru::deny_only(trusted), a, 1).unwrap_err();
        assert_eq!(err.kind, FaultKind::ProtViolation);
    }

    #[test]
    fn pkey_violation_reports_key_and_pkru() {
        let (mut s, a) = space_with(4096);
        let trusted = Pkey::new(1).unwrap();
        s.pkey_mprotect(a, 4096, Prot::READ_WRITE, trusted).unwrap();
        let pkru = Pkru::deny_only(trusted);
        let err = s.read_u64(pkru, a).unwrap_err();
        match err.kind {
            FaultKind::PkeyViolation { pkey, pkru: seen } => {
                assert_eq!(pkey, trusted);
                assert_eq!(seen, pkru);
            }
            other => panic!("expected pkey violation, got {other:?}"),
        }
        // Read-only rights permit the load but deny the store.
        let ro = Pkru::ALL_ACCESS.with_rights(trusted, PkeyRights::ReadOnly);
        assert!(s.read_u64(ro, a).is_ok());
        assert!(s.write_u64(ro, a, 1).unwrap_err().is_pkey_violation());
    }

    #[test]
    fn pkey_mprotect_splits_regions() {
        let (mut s, a) = space_with(4 * PAGE_SIZE);
        let k = Pkey::new(2).unwrap();
        s.pkey_mprotect(a + PAGE_SIZE, PAGE_SIZE, Prot::READ_WRITE, k).unwrap();
        assert_eq!(s.page_pkey(a), Some(Pkey::DEFAULT));
        assert_eq!(s.page_pkey(a + PAGE_SIZE), Some(k));
        assert_eq!(s.page_pkey(a + 2 * PAGE_SIZE), Some(Pkey::DEFAULT));
    }

    #[test]
    fn munmap_middle_leaves_ends() {
        let (mut s, a) = space_with(3 * PAGE_SIZE);
        s.write_u8(Pkru::ALL_ACCESS, a + PAGE_SIZE, 9).unwrap();
        s.munmap(a + PAGE_SIZE, PAGE_SIZE).unwrap();
        assert!(s.is_mapped(a));
        assert!(!s.is_mapped(a + PAGE_SIZE));
        assert!(s.is_mapped(a + 2 * PAGE_SIZE));
        // Remapping the hole must see fresh zeroed contents.
        s.mmap_at(a + PAGE_SIZE, PAGE_SIZE, Prot::READ_WRITE).unwrap();
        assert_eq!(s.read_u8(Pkru::ALL_ACCESS, a + PAGE_SIZE).unwrap(), 0);
    }

    #[test]
    fn mmap_at_rejects_overlap() {
        let (mut s, a) = space_with(2 * PAGE_SIZE);
        assert_eq!(
            s.mmap_at(a + PAGE_SIZE, PAGE_SIZE, Prot::READ),
            Err(MapError::AlreadyMapped { addr: a + PAGE_SIZE })
        );
    }

    #[test]
    fn cross_page_access_checks_every_page() {
        let (mut s, a) = space_with(2 * PAGE_SIZE);
        let k = Pkey::new(3).unwrap();
        s.pkey_mprotect(a + PAGE_SIZE, PAGE_SIZE, Prot::READ_WRITE, k).unwrap();
        let pkru = Pkru::deny_only(k);
        // A write straddling into the protected page must fault at the
        // protected page's first byte.
        let err = s.write(pkru, a + PAGE_SIZE - 4, &[1u8; 8]).unwrap_err();
        assert!(err.is_pkey_violation());
        assert_eq!(err.addr, a + PAGE_SIZE);
    }

    #[test]
    fn supervisor_access_bypasses_pkeys() {
        let (mut s, a) = space_with(PAGE_SIZE);
        let k = Pkey::new(1).unwrap();
        s.pkey_mprotect(a, PAGE_SIZE, Prot::READ_WRITE, k).unwrap();
        s.write_supervisor(a, &[42]).unwrap();
        let mut b = [0u8; 1];
        s.read_supervisor(a, &mut b).unwrap();
        assert_eq!(b[0], 42);
        assert!(s.write_supervisor(0xdead_0000, &[1]).is_err());
    }

    #[test]
    fn stats_count_faults() {
        let (mut s, a) = space_with(PAGE_SIZE);
        let k = Pkey::new(1).unwrap();
        s.pkey_mprotect(a, PAGE_SIZE, Prot::READ_WRITE, k).unwrap();
        let _ = s.read_u64(Pkru::deny_only(k), a);
        let _ = s.read_u64(Pkru::ALL_ACCESS, 0x10);
        let st = s.stats();
        assert_eq!(st.pkey_faults, 1);
        assert_eq!(st.unmapped_faults, 1);
    }
}
