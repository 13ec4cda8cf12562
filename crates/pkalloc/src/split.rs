//! The split allocator facade tying both pools together.

use pkru_mpk::Pkey;
use pkru_vmem::{SharedSpace, VirtAddr};

use crate::error::AllocError;
use crate::trusted::{ArenaStats, TrustedArena};
use crate::untrusted::{HeapStats, UntrustedHeap};
use crate::{CompartmentAlloc, TRUSTED_BASE, TRUSTED_SPAN, UNTRUSTED_BASE, UNTRUSTED_SPAN};

/// Which pool an object lives in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Domain {
    /// The trusted pool `M_T`, accessible only from `T`.
    Trusted,
    /// The shared pool `M_U`, accessible from both compartments.
    Untrusted,
}

/// Construction parameters for [`PkAlloc`].
#[derive(Clone, Copy, Debug)]
pub struct PkAllocConfig {
    /// Base of the trusted reservation.
    pub trusted_base: VirtAddr,
    /// Span of the trusted reservation (46 bits by default; "this value can
    /// be tuned on a per-application basis", §4.4).
    pub trusted_span: u64,
    /// Base of the untrusted reservation.
    pub untrusted_base: VirtAddr,
    /// Span of the untrusted reservation.
    pub untrusted_span: u64,
    /// Ablation switch (§5.3): serve *both* pools from trusted memory, as
    /// in the paper's experiment isolating the cost of the less performant
    /// `M_U` allocator. Only meaningful with call gates disabled.
    pub unified_pools: bool,
}

impl Default for PkAllocConfig {
    fn default() -> PkAllocConfig {
        PkAllocConfig {
            trusted_base: TRUSTED_BASE,
            trusted_span: TRUSTED_SPAN,
            untrusted_base: UNTRUSTED_BASE,
            untrusted_span: UNTRUSTED_SPAN,
            unified_pools: false,
        }
    }
}

impl PkAllocConfig {
    /// Pool geometry for worker `worker` of a multi-threaded host sharing
    /// one address space.
    ///
    /// Each worker's allocator manages a disjoint slice of the `M_T` and
    /// `M_U` reservations (per-thread arenas), so workers allocate without
    /// contending on allocator state; the slices still carry the usual
    /// keys, so the compartment rights story is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `worker >= MAX_WORKERS` (the carve-out geometry supports
    /// [`MAX_WORKERS`](crate::MAX_WORKERS) workers per address space).
    pub fn for_worker(worker: usize) -> PkAllocConfig {
        assert!(
            worker < crate::MAX_WORKERS,
            "worker index {worker} exceeds the {}-worker geometry",
            crate::MAX_WORKERS
        );
        let worker = worker as u64;
        PkAllocConfig {
            trusted_base: TRUSTED_BASE + worker * crate::WORKER_TRUSTED_SPAN,
            trusted_span: crate::WORKER_TRUSTED_SPAN,
            untrusted_base: UNTRUSTED_BASE + worker * crate::WORKER_UNTRUSTED_SPAN,
            untrusted_span: crate::WORKER_UNTRUSTED_SPAN,
            unified_pools: false,
        }
    }
}

/// Aggregate statistics across both pools.
#[derive(Clone, Copy, Debug, Default)]
pub struct PkAllocStats {
    /// Successful allocations served from `M_T`.
    pub trusted_allocs: u64,
    /// Successful allocations served from `M_U`.
    pub untrusted_allocs: u64,
    /// Live bytes in `M_T`.
    pub trusted_live_bytes: u64,
    /// Live bytes in `M_U`.
    pub untrusted_live_bytes: u64,
}

impl PkAllocStats {
    /// Fraction of all allocations served from `M_U` (the `%M_U` column of
    /// Tables 1 and 2).
    pub fn percent_untrusted(&self) -> f64 {
        let total = self.trusted_allocs + self.untrusted_allocs;
        if total == 0 {
            0.0
        } else {
            100.0 * self.untrusted_allocs as f64 / total as f64
        }
    }
}

/// The split allocator: one trusted arena plus one untrusted heap over a
/// shared simulated address space.
///
/// This is the drop-in `GlobalAlloc` replacement of §4.4: `T` code calls
/// [`CompartmentAlloc::alloc`] as before, instrumented (shared) allocation
/// sites call [`CompartmentAlloc::untrusted_alloc`], and
/// [`CompartmentAlloc::realloc`] transparently keeps objects in their
/// original pool.
pub struct PkAlloc {
    space: SharedSpace,
    trusted: TrustedArena,
    untrusted: UntrustedHeap,
    trusted_pkey: Pkey,
    unified: bool,
    stats: PkAllocStats,
}

impl PkAlloc {
    /// Creates a split allocator with default pool geometry.
    ///
    /// Maps and tags both reservations inside `space`; `trusted_pkey` is
    /// the key protecting `M_T`.
    pub fn new(space: SharedSpace, trusted_pkey: Pkey) -> Result<PkAlloc, AllocError> {
        PkAlloc::with_config(space, trusted_pkey, PkAllocConfig::default())
    }

    /// Creates a split allocator with explicit pool geometry.
    pub fn with_config(
        space: SharedSpace,
        trusted_pkey: Pkey,
        config: PkAllocConfig,
    ) -> Result<PkAlloc, AllocError> {
        let (trusted, untrusted) = {
            let mut guard = space.lock();
            let trusted = TrustedArena::new(
                &mut guard,
                config.trusted_base,
                config.trusted_span,
                trusted_pkey,
            )?;
            let untrusted =
                UntrustedHeap::new(&mut guard, config.untrusted_base, config.untrusted_span)?;
            (trusted, untrusted)
        };
        Ok(PkAlloc {
            space,
            trusted,
            untrusted,
            trusted_pkey,
            unified: config.unified_pools,
            stats: PkAllocStats::default(),
        })
    }

    /// The key protecting the trusted pool.
    pub fn trusted_pkey(&self) -> Pkey {
        self.trusted_pkey
    }

    /// The shared address space handle.
    pub fn space(&self) -> &SharedSpace {
        &self.space
    }

    /// Allocates from an explicitly chosen pool.
    pub fn alloc_in(&mut self, domain: Domain, size: u64) -> Result<VirtAddr, AllocError> {
        match domain {
            Domain::Trusted => self.alloc(size),
            Domain::Untrusted => self.untrusted_alloc(size),
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> PkAllocStats {
        let mut s = self.stats;
        s.trusted_live_bytes = self.trusted.stats().live_bytes;
        s.untrusted_live_bytes = self.untrusted.stats().live_bytes;
        s
    }

    /// Resets the allocation counters (pool contents are unaffected).
    pub fn reset_stats(&mut self) {
        self.stats = PkAllocStats::default();
    }
}

impl CompartmentAlloc for PkAlloc {
    fn domain_of(&self, addr: VirtAddr) -> Option<Domain> {
        if self.trusted.contains(addr) {
            Some(Domain::Trusted)
        } else if self.untrusted.contains(addr) {
            Some(Domain::Untrusted)
        } else {
            None
        }
    }

    fn alloc_counts(&self) -> (u64, u64) {
        (self.stats.trusted_allocs, self.stats.untrusted_allocs)
    }

    fn untrusted_heap_stats(&self) -> Option<HeapStats> {
        (!self.unified).then(|| self.untrusted.stats())
    }

    fn trusted_arena_stats(&self) -> Option<ArenaStats> {
        Some(self.trusted.stats())
    }

    fn alloc(&mut self, size: u64) -> Result<VirtAddr, AllocError> {
        let p = self.trusted.alloc(size)?;
        self.stats.trusted_allocs += 1;
        Ok(p)
    }

    fn untrusted_alloc(&mut self, size: u64) -> Result<VirtAddr, AllocError> {
        if self.unified {
            // Ablation: both pools from `M_T`; still counted as untrusted
            // so `%M_U` reflects the instrumentation decisions.
            let p = self.trusted.alloc(size)?;
            self.stats.untrusted_allocs += 1;
            return Ok(p);
        }
        let p = {
            let mut guard = self.space.lock();
            self.untrusted.alloc(&mut guard, size)?
        };
        self.stats.untrusted_allocs += 1;
        Ok(p)
    }

    fn realloc(&mut self, ptr: VirtAddr, new_size: u64) -> Result<VirtAddr, AllocError> {
        // The object must stay in the pool its base pointer originated
        // from (§4.2) so reallocations behave consistently regardless of
        // the execution path.
        let domain = self.domain_of(ptr).ok_or(AllocError::InvalidPointer(ptr))?;
        let old_size = self.usable_size(ptr).ok_or(AllocError::InvalidPointer(ptr))?;
        let new_ptr = self.alloc_in(domain, new_size)?;
        let n = old_size.min(new_size) as usize;
        {
            let mut guard = self.space.lock();
            let mut buf = vec![0u8; n];
            // Both ranges are live allocations; mapped by construction.
            guard.read_supervisor(ptr, &mut buf).expect("live allocation mapped");
            guard.write_supervisor(new_ptr, &buf).expect("live allocation mapped");
        }
        self.dealloc(ptr)?;
        Ok(new_ptr)
    }

    fn dealloc(&mut self, ptr: VirtAddr) -> Result<(), AllocError> {
        match self.domain_of(ptr) {
            Some(Domain::Trusted) => self.trusted.dealloc(ptr),
            Some(Domain::Untrusted) => {
                let mut guard = self.space.lock();
                self.untrusted.dealloc(&mut guard, ptr)
            }
            None => Err(AllocError::InvalidPointer(ptr)),
        }
    }

    fn usable_size(&self, ptr: VirtAddr) -> Option<u64> {
        match self.domain_of(ptr)? {
            Domain::Trusted => self.trusted.usable_size(ptr),
            Domain::Untrusted => {
                let mut guard = self.space.lock();
                self.untrusted.usable_size(&mut guard, ptr)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkru_mpk::Pkru;

    fn alloc() -> PkAlloc {
        let space = SharedSpace::new();
        PkAlloc::new(space, Pkey::new(1).unwrap()).unwrap()
    }

    #[test]
    fn pools_are_disjoint_and_tagged() {
        let mut a = alloc();
        let t = a.alloc(64).unwrap();
        let u = a.untrusted_alloc(64).unwrap();
        assert_eq!(a.domain_of(t), Some(Domain::Trusted));
        assert_eq!(a.domain_of(u), Some(Domain::Untrusted));
        let space = a.space().lock();
        assert_eq!(space.page_pkey(t), Some(Pkey::new(1).unwrap()));
        assert_eq!(space.page_pkey(u), Some(Pkey::DEFAULT));
        // The untrusted PKRU can reach M_U but not M_T.
        let upkru = Pkru::deny_only(Pkey::new(1).unwrap());
        assert!(space.read_u64(upkru, u).is_ok());
        assert!(space.read_u64(upkru, t).unwrap_err().is_pkey_violation());
    }

    #[test]
    fn realloc_stays_in_origin_pool() {
        let mut a = alloc();
        let t = a.alloc(64).unwrap();
        let u = a.untrusted_alloc(64).unwrap();
        {
            let mut space = a.space().lock();
            space.write_u64(Pkru::ALL_ACCESS, t, 0x1111).unwrap();
            space.write_u64(Pkru::ALL_ACCESS, u, 0x2222).unwrap();
        }
        let t2 = a.realloc(t, 100_000).unwrap();
        let u2 = a.realloc(u, 100_000).unwrap();
        assert_eq!(a.domain_of(t2), Some(Domain::Trusted));
        assert_eq!(a.domain_of(u2), Some(Domain::Untrusted));
        let space = a.space().lock();
        assert_eq!(space.read_u64(Pkru::ALL_ACCESS, t2).unwrap(), 0x1111);
        assert_eq!(space.read_u64(Pkru::ALL_ACCESS, u2).unwrap(), 0x2222);
    }

    #[test]
    fn realloc_shrink_preserves_prefix() {
        let mut a = alloc();
        let p = a.alloc(256).unwrap();
        {
            let mut space = a.space().lock();
            for i in 0..32 {
                space.write_u64(Pkru::ALL_ACCESS, p + i * 8, i).unwrap();
            }
        }
        let q = a.realloc(p, 64).unwrap();
        let space = a.space().lock();
        for i in 0..8 {
            assert_eq!(space.read_u64(Pkru::ALL_ACCESS, q + i * 8).unwrap(), i);
        }
    }

    #[test]
    fn dealloc_routes_by_domain() {
        let mut a = alloc();
        let t = a.alloc(64).unwrap();
        let u = a.untrusted_alloc(64).unwrap();
        a.dealloc(t).unwrap();
        a.dealloc(u).unwrap();
        assert_eq!(a.dealloc(0x99), Err(AllocError::InvalidPointer(0x99)));
    }

    #[test]
    fn percent_untrusted_statistic() {
        let mut a = alloc();
        for _ in 0..3 {
            a.alloc(32).unwrap();
        }
        a.untrusted_alloc(32).unwrap();
        let s = a.stats();
        assert_eq!(s.trusted_allocs, 3);
        assert_eq!(s.untrusted_allocs, 1);
        assert!((s.percent_untrusted() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn worker_geometries_coexist_in_one_space() {
        let space = SharedSpace::new();
        let key = Pkey::new(1).unwrap();
        let mut a0 =
            PkAlloc::with_config(space.clone(), key, PkAllocConfig::for_worker(0)).unwrap();
        let mut a1 =
            PkAlloc::with_config(space.clone(), key, PkAllocConfig::for_worker(1)).unwrap();
        let t0 = a0.alloc(64).unwrap();
        let t1 = a1.alloc(64).unwrap();
        let u0 = a0.untrusted_alloc(64).unwrap();
        let u1 = a1.untrusted_alloc(64).unwrap();
        // Disjoint slices, one shared trusted key.
        assert_ne!(t0, t1);
        assert_ne!(u0, u1);
        assert_eq!(a0.domain_of(t1), None, "worker 0 does not own worker 1's slice");
        assert_eq!(space.page_pkey(t0), Some(key));
        assert_eq!(space.page_pkey(t1), Some(key));
        assert_eq!(space.page_pkey(u0), Some(Pkey::DEFAULT));
        assert_eq!(space.page_pkey(u1), Some(Pkey::DEFAULT));
    }

    #[test]
    #[should_panic(expected = "worker index")]
    fn worker_geometry_rejects_out_of_range_index() {
        let _ = PkAllocConfig::for_worker(crate::MAX_WORKERS);
    }

    #[test]
    fn unified_pools_ablation_serves_mu_from_mt() {
        let space = SharedSpace::new();
        let config = PkAllocConfig { unified_pools: true, ..PkAllocConfig::default() };
        let mut a = PkAlloc::with_config(space, Pkey::new(1).unwrap(), config).unwrap();
        let u = a.untrusted_alloc(64).unwrap();
        assert_eq!(a.domain_of(u), Some(Domain::Trusted));
        assert_eq!(a.stats().untrusted_allocs, 1);
    }
}
