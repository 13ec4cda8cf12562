//! The untrusted-pool allocator (the libc-`malloc` stand-in).

use std::collections::BTreeSet;

use pkru_vmem::{AddressSpace, Prot, VirtAddr};

use crate::error::AllocError;

/// Chunk header/footer size in bytes.
const TAG: u64 = 8;
/// Minimum whole-chunk size: header + footer + 16-byte payload.
const MIN_CHUNK: u64 = 32;
/// Bit 0 of a boundary tag marks the chunk in use.
const INUSE: u64 = 1;

/// Heap statistics for the evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeapStats {
    /// Payload bytes currently live.
    pub live_bytes: u64,
    /// Total successful allocations.
    pub allocs: u64,
    /// Total frees.
    pub frees: u64,
    /// Bytes carved from the wilderness and not given back to it.
    pub wilderness_used: u64,
}

/// A boundary-tag, best-fit, coalescing free-list allocator for `M_U`.
///
/// Chunk layout is the classic dlmalloc shape: an 8-byte header and an
/// 8-byte footer carrying `size | INUSE` bracket each payload. The tags
/// live *inside the simulated untrusted memory* — faithfully to libc
/// `malloc`, a compromised untrusted compartment can corrupt its own heap
/// metadata, but never the trusted pool, which has no metadata here at all.
pub struct UntrustedHeap {
    base: VirtAddr,
    span: u64,
    wilderness: VirtAddr,
    /// Free chunks ordered by (chunk size, address) for best-fit search.
    free: BTreeSet<(u64, VirtAddr)>,
    stats: HeapStats,
}

impl UntrustedHeap {
    /// Maps `[base, base + span)` with the default protection key and
    /// returns the heap managing it.
    pub fn new(
        space: &mut AddressSpace,
        base: VirtAddr,
        span: u64,
    ) -> Result<UntrustedHeap, AllocError> {
        space.mmap_at(base, span, Prot::READ_WRITE)?;
        Ok(UntrustedHeap {
            base,
            span,
            wilderness: base,
            free: BTreeSet::new(),
            stats: HeapStats::default(),
        })
    }

    /// Whether `addr` falls inside this heap's reservation.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.base && addr < self.base + self.span
    }

    /// Current statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    fn chunk_size_needed(size: u64) -> u64 {
        let payload = size.max(16).div_ceil(16) * 16;
        (payload + 2 * TAG).max(MIN_CHUNK)
    }

    fn read_tag(space: &mut AddressSpace, addr: VirtAddr) -> u64 {
        let mut b = [0u8; 8];
        // The allocator validated this range when it wrote the tag.
        space.read_supervisor(addr, &mut b).expect("allocator tag mapped");
        u64::from_le_bytes(b)
    }

    fn write_tags(space: &mut AddressSpace, chunk: VirtAddr, size: u64, in_use: bool) {
        let tag = size | if in_use { INUSE } else { 0 };
        space.write_supervisor(chunk, &tag.to_le_bytes()).expect("allocator tag mapped");
        space
            .write_supervisor(chunk + size - TAG, &tag.to_le_bytes())
            .expect("allocator tag mapped");
    }

    /// Allocates `size` bytes (16-byte aligned payload).
    pub fn alloc(&mut self, space: &mut AddressSpace, size: u64) -> Result<VirtAddr, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let need = Self::chunk_size_needed(size);
        // Best fit: smallest free chunk that can hold the request.
        let found = self.free.range((need, 0)..).next().copied();
        let chunk = match found {
            Some(entry @ (chunk_size, chunk)) => {
                self.free.remove(&entry);
                if chunk_size - need >= MIN_CHUNK {
                    // Split: the tail becomes a new free chunk.
                    let rest = chunk + need;
                    let rest_size = chunk_size - need;
                    Self::write_tags(space, rest, rest_size, false);
                    self.free.insert((rest_size, rest));
                    Self::write_tags(space, chunk, need, true);
                } else {
                    Self::write_tags(space, chunk, chunk_size, true);
                }
                chunk
            }
            None => {
                let chunk = self.wilderness;
                let end = chunk.checked_add(need).ok_or(AllocError::OutOfMemory)?;
                if end > self.base + self.span {
                    return Err(AllocError::OutOfMemory);
                }
                self.wilderness = end;
                self.stats.wilderness_used += need;
                Self::write_tags(space, chunk, need, true);
                chunk
            }
        };
        self.stats.allocs += 1;
        self.stats.live_bytes += self.payload_size_at(space, chunk);
        Ok(chunk + TAG)
    }

    fn payload_size_at(&self, space: &mut AddressSpace, chunk: VirtAddr) -> u64 {
        (Self::read_tag(space, chunk) & !INUSE) - 2 * TAG
    }

    /// Frees the object at `ptr`, coalescing with free neighbors.
    pub fn dealloc(&mut self, space: &mut AddressSpace, ptr: VirtAddr) -> Result<(), AllocError> {
        let mut chunk = ptr.checked_sub(TAG).ok_or(AllocError::InvalidPointer(ptr))?;
        if !self.contains(chunk) || chunk >= self.wilderness {
            return Err(AllocError::InvalidPointer(ptr));
        }
        let tag = Self::read_tag(space, chunk);
        let mut size = tag & !INUSE;
        // The tags live in M_U, where a compromised compartment can
        // rewrite them: a size that does not bracket a chunk inside the
        // carved heap with a matching footer is refused, never used to
        // coalesce, move the wilderness or place a tag.
        let bracketed = tag & INUSE != 0
            && size >= MIN_CHUNK
            && size.is_multiple_of(16)
            && chunk.checked_add(size).is_some_and(|end| end <= self.wilderness)
            && Self::read_tag(space, chunk + size - TAG) == tag;
        if !bracketed {
            return Err(AllocError::InvalidPointer(ptr));
        }
        self.stats.frees += 1;
        self.stats.live_bytes -= size - 2 * TAG;

        // Coalesce backward.
        if chunk > self.base {
            let prev_tag = Self::read_tag(space, chunk - TAG);
            if prev_tag != 0 && prev_tag & INUSE == 0 {
                let prev_size = prev_tag & !INUSE;
                let prev = chunk - prev_size;
                if self.free.remove(&(prev_size, prev)) {
                    chunk = prev;
                    size += prev_size;
                }
            }
        }
        // A chunk that ends at the wilderness goes back to it (dlmalloc's
        // top-chunk consolidation): the next allocations carve it again.
        if chunk + size == self.wilderness {
            self.wilderness = chunk;
            self.stats.wilderness_used -= size;
            return Ok(());
        }
        // Coalesce forward.
        let next = chunk + size;
        if next < self.wilderness {
            let next_tag = Self::read_tag(space, next);
            if next_tag != 0 && next_tag & INUSE == 0 {
                let next_size = next_tag & !INUSE;
                if self.free.remove(&(next_size, next)) {
                    size += next_size;
                }
            }
        }
        Self::write_tags(space, chunk, size, false);
        self.free.insert((size, chunk));
        Ok(())
    }

    /// Usable payload size of the live object at `ptr`.
    pub fn usable_size(&self, space: &mut AddressSpace, ptr: VirtAddr) -> Option<u64> {
        let chunk = ptr.checked_sub(TAG)?;
        if !self.contains(chunk) || chunk >= self.wilderness {
            return None;
        }
        let tag = Self::read_tag(space, chunk);
        (tag & INUSE == INUSE).then(|| (tag & !INUSE) - 2 * TAG)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UNTRUSTED_BASE;
    use pkru_mpk::{Pkey, Pkru};

    fn heap() -> (AddressSpace, UntrustedHeap) {
        let mut space = AddressSpace::new();
        let heap = UntrustedHeap::new(&mut space, UNTRUSTED_BASE, 1 << 24).unwrap();
        (space, heap)
    }

    #[test]
    fn alloc_is_usable_from_untrusted_pkru() {
        let (mut space, mut heap) = heap();
        let p = heap.alloc(&mut space, 64).unwrap();
        // The untrusted compartment (trusted key denied) can touch it.
        let pkru = Pkru::deny_only(Pkey::new(1).unwrap());
        space.write_u64(pkru, p, 7).unwrap();
        assert_eq!(space.read_u64(pkru, p).unwrap(), 7);
    }

    #[test]
    fn payloads_are_16_aligned_and_disjoint() {
        let (mut space, mut heap) = heap();
        let mut spans = Vec::new();
        for size in [1u64, 8, 16, 24, 100, 4096, 70_000] {
            let p = heap.alloc(&mut space, size).unwrap();
            assert_eq!(p % 16, 8, "payload after 8-byte header is 8 mod 16");
            let usable = heap.usable_size(&mut space, p).unwrap();
            assert!(usable >= size);
            for &(s, e) in &spans {
                assert!(p + usable <= s || p >= e);
            }
            spans.push((p, p + usable));
        }
    }

    #[test]
    fn free_then_alloc_reuses_space() {
        let (mut space, mut heap) = heap();
        let p = heap.alloc(&mut space, 64).unwrap();
        heap.dealloc(&mut space, p).unwrap();
        let q = heap.alloc(&mut space, 64).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn coalescing_merges_neighbors() {
        let (mut space, mut heap) = heap();
        let a = heap.alloc(&mut space, 48).unwrap();
        let b = heap.alloc(&mut space, 48).unwrap();
        let c = heap.alloc(&mut space, 48).unwrap();
        let _guard = heap.alloc(&mut space, 48).unwrap();
        heap.dealloc(&mut space, a).unwrap();
        heap.dealloc(&mut space, c).unwrap();
        heap.dealloc(&mut space, b).unwrap();
        // All three merged into one chunk that can serve a request larger
        // than any single original chunk.
        let big = heap.alloc(&mut space, 150).unwrap();
        assert_eq!(big, a);
    }

    #[test]
    fn freeing_the_top_chunks_gives_them_back_to_the_wilderness() {
        let (mut space, mut heap) = heap();
        let keep = heap.alloc(&mut space, 48).unwrap();
        let carved = heap.stats().wilderness_used;
        let a = heap.alloc(&mut space, 48).unwrap();
        let b = heap.alloc(&mut space, 200).unwrap();
        // `a` is not at the top: it waits on the free list until `b`
        // goes, then both return.
        heap.dealloc(&mut space, a).unwrap();
        heap.dealloc(&mut space, b).unwrap();
        assert_eq!(heap.stats().wilderness_used, carved);
        assert_eq!(heap.alloc(&mut space, 200).unwrap(), a);
        assert!(heap.usable_size(&mut space, keep).is_some());
    }

    #[test]
    fn a_forged_size_tag_is_refused_not_used() {
        let (mut space, mut heap) = heap();
        let a = heap.alloc(&mut space, 48).unwrap();
        let b = heap.alloc(&mut space, 48).unwrap();
        let carved = heap.stats().wilderness_used;
        let header = a - TAG;
        let size = UntrustedHeap::read_tag(&mut space, header) & !INUSE;
        // Sizes that would end at the wilderness (over `b`, footer not
        // matching), past it, off the 16-byte grid, or below a chunk.
        for forged in [2 * size, 1 << 40, size + 8, 16, !INUSE] {
            space.write_supervisor(header, &(forged | INUSE).to_le_bytes()).unwrap();
            assert_eq!(heap.dealloc(&mut space, a), Err(AllocError::InvalidPointer(a)));
        }
        assert_eq!(heap.stats().wilderness_used, carved);
        assert_eq!(heap.stats().frees, 0);
        // The genuine tag still frees, and `b` stays live.
        space.write_supervisor(header, &(size | INUSE).to_le_bytes()).unwrap();
        heap.dealloc(&mut space, a).unwrap();
        assert!(heap.usable_size(&mut space, b).is_some());
    }

    #[test]
    fn best_fit_prefers_smallest_hole() {
        let (mut space, mut heap) = heap();
        let small = heap.alloc(&mut space, 32).unwrap();
        let _keep1 = heap.alloc(&mut space, 32).unwrap();
        let large = heap.alloc(&mut space, 512).unwrap();
        let _keep2 = heap.alloc(&mut space, 32).unwrap();
        heap.dealloc(&mut space, small).unwrap();
        heap.dealloc(&mut space, large).unwrap();
        // A 32-byte request should land in the small hole, not the big one.
        let p = heap.alloc(&mut space, 32).unwrap();
        assert_eq!(p, small);
    }

    #[test]
    fn invalid_and_double_free_rejected() {
        let (mut space, mut heap) = heap();
        let p = heap.alloc(&mut space, 64).unwrap();
        assert!(heap.dealloc(&mut space, p + 8).is_err());
        heap.dealloc(&mut space, p).unwrap();
        assert_eq!(heap.dealloc(&mut space, p), Err(AllocError::InvalidPointer(p)));
    }

    #[test]
    fn exhaustion_reports_oom() {
        let mut space = AddressSpace::new();
        let mut heap = UntrustedHeap::new(&mut space, UNTRUSTED_BASE, 4096).unwrap();
        assert!(heap.alloc(&mut space, 2048).is_ok());
        assert_eq!(heap.alloc(&mut space, 4096), Err(AllocError::OutOfMemory));
    }

    #[test]
    fn stats_track_live_bytes() {
        let (mut space, mut heap) = heap();
        let p = heap.alloc(&mut space, 100).unwrap();
        let live = heap.stats().live_bytes;
        assert!(live >= 100);
        heap.dealloc(&mut space, p).unwrap();
        assert_eq!(heap.stats().live_bytes, 0);
    }
}
