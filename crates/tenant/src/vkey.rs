//! Virtual protection keys multiplexed onto the hardware key space.
//!
//! MPK has 16 keys per process and one of them is the untagged default —
//! a hard cap that a multi-tenant server blows through immediately. The
//! libmpk answer (and ours) is *key virtualization*: tenants hold
//! unbounded **virtual** keys, and a [`VirtualPkeyPool`] binds them to
//! hardware keys on demand. When the hardware pool runs dry, binding
//! steals the least-recently-used tenant's key: the victim's pages are
//! re-tagged onto a dedicated no-access **park key** (a `pkey_mprotect`
//! storm that bumps the shared space's TLB epoch, so every thread's
//! software TLB refetches), and only then is the key handed to the new
//! binding. A parked tenant's pages are inaccessible under *every*
//! tenant PKRU — stale PKRU or TLB state can therefore never grant
//! access to the *victim's* pages, because the rights a stale PKRU still
//! carries are for a key the victim's pages no longer wear.
//!
//! Recycling safety is the harder half: a stale PKRU's rights *do* still
//! name the stolen hardware key, and once that key is rebound they would
//! grant access to the key's **next owner**. Two mechanisms close that
//! hole (see `pkru_mpk::revoke` for the ordering proof):
//!
//! 1. Every binding carries a monotonic **generation**, published through
//!    a shared cell the pool zeroes at the instant of revocation. Leases
//!    ([`BindGuard`]) carry a [`LeaseStamp`]; the call gates validate it
//!    before granting the lease's rights, so a revoked lease is a typed
//!    refusal, never silent stale access.
//! 2. A stolen key is **quarantined** on a deferred-reuse list at a
//!    [`RevocationBarrier`] epoch, and is rebound only once every
//!    registered worker has dropped to base rights since the steal — at
//!    which point no live PKRU register can still grant it.
//!
//! Because revocation (not pinning) is what protects a live lease, a
//! [`BindGuard`] no longer blocks stealing: it records a *lease* that
//! steals merely prefer to avoid, so `bind` under pressure degrades to
//! bounded waiting on the barrier instead of the old hard
//! `AllPinned` refusal. Explicit [`VirtualPkeyPool::evict`] still
//! refuses while a lease is live — deliberately unbinding a tenant that
//! is mid-request remains an error at the management API.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pkru_mpk::{LeaseStamp, Pkey, PkeyPoolError, RevocationBarrier, SharedPkeyPool};
use pkru_vmem::{page_align_up, Prot, SharedSpace, VirtAddr, PAGE_SIZE};

/// A tenant-held protection key: an index into the virtual key space,
/// unbounded where hardware keys stop at 15.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualPkey(u32);

impl VirtualPkey {
    /// The key's index in the virtual key space.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for VirtualPkey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vkey{}", self.0)
    }
}

/// How many rounds `bind` waits for a quarantined key to mature behind
/// the revocation barrier before refusing. The first rounds yield; the
/// rest sleep [`BIND_BACKOFF_SLEEP`], bounding the wait to a few
/// milliseconds — gate regions are per-FFI-call and exit far faster.
const BIND_BACKOFF_SPINS: usize = 96;

/// Rounds that merely yield before the backoff starts sleeping.
const BIND_BACKOFF_YIELDS: usize = 32;

/// Per-round sleep once yielding has not freed a key.
const BIND_BACKOFF_SLEEP: Duration = Duration::from_micros(100);

/// Errors raised by the virtual key pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VirtualPkeyError {
    /// No hardware key is free and no binding exists to evict. Setup-time
    /// version: the underlying `pkey_alloc` pool was already drained
    /// (surfaced typed, never as a panic — see `ServeError::KeysExhausted`
    /// on the serve path).
    Exhausted,
    /// The bind backoff budget expired with every candidate key still
    /// quarantined behind the revocation barrier (some worker has sat
    /// inside one gate region for the whole budget). Retryable: the
    /// caller should back off and bind again.
    AllPinned,
    /// An explicit evict was refused because the binding is leased by an
    /// in-flight request.
    Pinned(VirtualPkey),
    /// The virtual key was never registered with this pool.
    Unknown(VirtualPkey),
    /// A `pkey_mprotect` re-tag storm failed mid-flight.
    Retag(String),
}

impl std::fmt::Display for VirtualPkeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VirtualPkeyError::Exhausted => {
                write!(f, "hardware protection keys exhausted (pkey_alloc)")
            }
            VirtualPkeyError::AllPinned => {
                write!(f, "bind backoff expired: every key is quarantined behind the barrier")
            }
            VirtualPkeyError::Pinned(v) => {
                write!(f, "{v} is leased by an in-flight request and cannot be evicted")
            }
            VirtualPkeyError::Unknown(v) => write!(f, "{v} is not registered with this pool"),
            VirtualPkeyError::Retag(m) => write!(f, "pkey_mprotect re-tag failed: {m}"),
        }
    }
}

impl std::error::Error for VirtualPkeyError {}

impl From<PkeyPoolError> for VirtualPkeyError {
    fn from(_: PkeyPoolError) -> VirtualPkeyError {
        VirtualPkeyError::Exhausted
    }
}

/// Lifetime counters for the pool (the serve report's `tenant_keys`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VkeyPoolStats {
    /// Total bind calls.
    pub binds: u64,
    /// Binds that found the virtual key already wearing a hardware key.
    pub hits: u64,
    /// Binds that had to allocate or steal a hardware key.
    pub misses: u64,
    /// Bindings whose hardware key was stolen (LRU) or explicitly evicted.
    pub evictions: u64,
    /// Pages re-tagged by `pkey_mprotect` storms (parking + rebinding).
    pub pages_retagged: u64,
    /// Lease generations revoked (every steal and explicit evict).
    pub revocations: u64,
    /// Binds satisfied from the deferred-reuse list after its quarantine
    /// epoch cleared the revocation barrier.
    pub deferred_reuses: u64,
    /// Hardware keys sitting in quarantine right now (gauge, sampled at
    /// [`VirtualPkeyPool::stats`] time).
    pub deferred_keys: u64,
}

impl VkeyPoolStats {
    /// Bind hit rate over the pool's lifetime.
    pub fn hit_rate(&self) -> f64 {
        if self.binds == 0 {
            0.0
        } else {
            self.hits as f64 / self.binds as f64
        }
    }
}

/// A page range owned by a virtual key, re-tagged wholesale on every
/// bind/evict transition.
#[derive(Clone, Copy, Debug)]
struct Region {
    addr: VirtAddr,
    len: u64,
    prot: Prot,
}

/// Per-virtual-key state.
struct VkeyState {
    hw: Option<Pkey>,
    regions: Vec<Region>,
    /// Logical timestamp of the last bind (LRU victim = smallest).
    last_bound: u64,
    /// Live [`BindGuard`]s — in-flight requests running under this key.
    /// A lease no longer blocks stealing (revocation protects it); it
    /// only steers the victim choice and blocks explicit `evict`.
    leases: Arc<AtomicUsize>,
    /// The generation of the current binding (0 while unbound/revoked).
    generation: u64,
    /// The published copy of `generation` that outstanding [`LeaseStamp`]s
    /// validate against; zeroed at the instant of revocation.
    current: Arc<AtomicU64>,
}

/// A stolen hardware key sitting out its quarantine: reusable only once
/// every registered worker has passed `steal_epoch` on the barrier.
struct DeferredKey {
    hw: Pkey,
    steal_epoch: u64,
}

struct Inner {
    states: Vec<VkeyState>,
    tick: u64,
    stats: VkeyPoolStats,
    /// Monotonic source for binding generations (never reused, never 0).
    next_generation: u64,
    /// The deferred-reuse quarantine list. Epochs ascend with the index,
    /// so the matured entries always form a prefix.
    deferred: Vec<DeferredKey>,
}

/// Multiplexes an unbounded virtual key space onto the ≤15 allocatable
/// hardware keys of one [`SharedPkeyPool`].
///
/// One hardware key is claimed up front as the **park key**: evicted
/// virtual keys' pages are re-tagged onto it, and no tenant PKRU ever
/// grants it, so parked pages are dark to every compartment but `T`.
pub struct VirtualPkeyPool {
    space: SharedSpace,
    hw: SharedPkeyPool,
    park: Pkey,
    barrier: Arc<RevocationBarrier>,
    inner: Mutex<Inner>,
}

/// A live lease: proof that `vkey` wore hardware key `hw` at
/// `generation`. The pool may still steal the key underneath the lease —
/// [`BindGuard::is_current`] (and the [`LeaseStamp`] the gates validate)
/// is how the holder finds out, re-binds, and never touches memory
/// through revoked rights.
#[derive(Debug)]
pub struct BindGuard {
    vkey: VirtualPkey,
    hw: Pkey,
    generation: u64,
    current: Arc<AtomicU64>,
    leases: Arc<AtomicUsize>,
}

impl BindGuard {
    /// The virtual key this lease names.
    pub fn vkey(&self) -> VirtualPkey {
        self.vkey
    }

    /// The hardware key the virtual key wore when the lease was granted.
    /// Only meaningful while [`BindGuard::is_current`] holds.
    pub fn hw_key(&self) -> Pkey {
        self.hw
    }

    /// The binding generation this lease was granted at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the lease still names the live binding — `false` once the
    /// hardware key has been stolen or evicted.
    pub fn is_current(&self) -> bool {
        self.current.load(Ordering::SeqCst) == self.generation
    }

    /// The liveness stamp the call gates validate before granting this
    /// lease's rights.
    pub fn stamp(&self) -> LeaseStamp {
        LeaseStamp::new(self.generation, Arc::clone(&self.current))
    }
}

impl Drop for BindGuard {
    fn drop(&mut self) {
        self.leases.fetch_sub(1, Ordering::Release);
    }
}

impl VirtualPkeyPool {
    /// Creates a pool over `space`'s page tables and the process key
    /// pool, claiming one hardware key as the park key.
    ///
    /// Fails typed with [`VirtualPkeyError::Exhausted`] when `pkey_alloc`
    /// has nothing left even for the park key.
    pub fn new(
        space: SharedSpace,
        hw: SharedPkeyPool,
    ) -> Result<VirtualPkeyPool, VirtualPkeyError> {
        let park = hw.alloc()?;
        Ok(VirtualPkeyPool {
            space,
            hw,
            park,
            barrier: Arc::new(RevocationBarrier::new()),
            inner: Mutex::new(Inner {
                states: Vec::new(),
                tick: 0,
                stats: VkeyPoolStats::default(),
                next_generation: 0,
                deferred: Vec::new(),
            }),
        })
    }

    /// The no-access key parked pages wear. No tenant PKRU grants it.
    pub fn park_key(&self) -> Pkey {
        self.park
    }

    /// The revocation barrier workers register with. Gate runtimes
    /// publish region entry/exit through a [`pkru_mpk::WorkerEpoch`]
    /// handle; the pool reuses a quarantined key only once every
    /// registered worker has passed its steal epoch.
    pub fn barrier(&self) -> &Arc<RevocationBarrier> {
        &self.barrier
    }

    /// Registers a fresh virtual key, unbound and owning no pages yet.
    pub fn register(&self) -> VirtualPkey {
        let mut inner = self.inner.lock().expect("vkey pool lock");
        let vkey = VirtualPkey(inner.states.len() as u32);
        inner.states.push(VkeyState {
            hw: None,
            regions: Vec::new(),
            last_bound: 0,
            leases: Arc::new(AtomicUsize::new(0)),
            generation: 0,
            current: Arc::new(AtomicU64::new(0)),
        });
        vkey
    }

    /// Adds `[addr, addr + len)` to the pages `vkey` owns and tags it
    /// with the key's current binding (the park key while unbound). The
    /// range must already be mapped.
    pub fn add_region(
        &self,
        vkey: VirtualPkey,
        addr: VirtAddr,
        len: u64,
        prot: Prot,
    ) -> Result<(), VirtualPkeyError> {
        let mut inner = self.inner.lock().expect("vkey pool lock");
        let state = inner.states.get_mut(vkey.0 as usize).ok_or(VirtualPkeyError::Unknown(vkey))?;
        let key = state.hw.unwrap_or(self.park);
        state.regions.push(Region { addr, len, prot });
        let pages = retag(&self.space, &[Region { addr, len, prot }], key)?;
        inner.stats.pages_retagged += pages;
        Ok(())
    }

    /// Binds `vkey` to a hardware key, returning a leased [`BindGuard`].
    ///
    /// Hit: the key is already bound — bump its LRU stamp and lease it.
    /// Miss, in preference order: (1) a quarantined key whose steal epoch
    /// has cleared the revocation barrier, (2) a fresh `pkey_alloc`, (3)
    /// steal the LRU binding — revoke its generation, park the victim's
    /// pages (a `pkey_mprotect` storm; the epoch bump flushes every
    /// thread's software TLB) and quarantine the key at a fresh barrier
    /// epoch, then wait (bounded backoff) for it to mature. Unleased
    /// victims are stolen first, but a leased LRU binding *is* stolen
    /// when nothing better exists — revocation, not pinning, is what
    /// keeps the lease holder safe. Only when the backoff budget expires
    /// with every key still quarantined does bind refuse, retryably, with
    /// [`VirtualPkeyError::AllPinned`].
    pub fn bind(&self, vkey: VirtualPkey) -> Result<BindGuard, VirtualPkeyError> {
        let mut stolen = false;
        for attempt in 0..BIND_BACKOFF_SPINS {
            {
                let mut inner = self.inner.lock().expect("vkey pool lock");
                let inner = &mut *inner;
                if vkey.0 as usize >= inner.states.len() {
                    return Err(VirtualPkeyError::Unknown(vkey));
                }
                inner.tick += 1;
                let tick = inner.tick;
                if attempt == 0 {
                    inner.stats.binds += 1;
                }

                if let Some(hw) = inner.states[vkey.0 as usize].hw {
                    if attempt == 0 {
                        inner.stats.hits += 1;
                    }
                    let state = &mut inner.states[vkey.0 as usize];
                    state.last_bound = tick;
                    state.leases.fetch_add(1, Ordering::Acquire);
                    return Ok(BindGuard {
                        vkey,
                        hw,
                        generation: state.generation,
                        current: Arc::clone(&state.current),
                        leases: Arc::clone(&state.leases),
                    });
                }
                if attempt == 0 {
                    inner.stats.misses += 1;
                }

                // (1) A matured quarantined key — taken before a fresh
                // alloc so an evict/rebind round-trip reuses the same
                // hardware key (LIFO over the matured prefix).
                if let Some(hw) = self.take_matured(inner) {
                    inner.stats.deferred_reuses += 1;
                    return self.finish_bind(inner, vkey, hw, tick);
                }
                // (2) A fresh hardware key.
                match self.hw.alloc() {
                    Ok(hw) => return self.finish_bind(inner, vkey, hw, tick),
                    Err(PkeyPoolError::Exhausted) => {}
                    Err(e) => return Err(e.into()),
                }
                // (3) Steal into quarantine — at most once per bind call
                // while the quarantine is non-empty, so a slow barrier
                // makes this bind *wait*, not strip every other tenant.
                if !stolen || inner.deferred.is_empty() {
                    match self.steal_into_quarantine(inner, vkey) {
                        Ok(()) => stolen = true,
                        // Nothing bound to steal, but keys are sitting in
                        // quarantine: wait for one to mature.
                        Err(VirtualPkeyError::Exhausted) if !inner.deferred.is_empty() => {}
                        Err(e) => return Err(e),
                    }
                    if let Some(hw) = self.take_matured(inner) {
                        inner.stats.deferred_reuses += 1;
                        return self.finish_bind(inner, vkey, hw, tick);
                    }
                }
            }
            // Lock released: give the workers blocking the barrier a
            // chance to reach their restore point.
            if attempt < BIND_BACKOFF_YIELDS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(BIND_BACKOFF_SLEEP);
            }
        }
        Err(VirtualPkeyError::AllPinned)
    }

    /// Completes a miss-path bind of `vkey` onto `hw`: mints the next
    /// generation, re-tags the key's pages, and publishes the binding.
    fn finish_bind(
        &self,
        inner: &mut Inner,
        vkey: VirtualPkey,
        hw: Pkey,
        tick: u64,
    ) -> Result<BindGuard, VirtualPkeyError> {
        inner.next_generation += 1;
        let generation = inner.next_generation;
        let state = &mut inner.states[vkey.0 as usize];
        let pages = retag(&self.space, &state.regions, hw)?;
        state.hw = Some(hw);
        state.last_bound = tick;
        state.generation = generation;
        state.current.store(generation, Ordering::SeqCst);
        state.leases.fetch_add(1, Ordering::Acquire);
        let guard = BindGuard {
            vkey,
            hw,
            generation,
            current: Arc::clone(&state.current),
            leases: Arc::clone(&state.leases),
        };
        inner.stats.pages_retagged += pages;
        Ok(guard)
    }

    /// Takes the newest quarantined key whose steal epoch every
    /// registered worker has passed, if any. Epochs ascend with the list
    /// index, so the matured entries form a prefix and `rposition` finds
    /// its end — LIFO reuse keeps an evict/rebind round-trip on the same
    /// hardware key.
    fn take_matured(&self, inner: &mut Inner) -> Option<Pkey> {
        let i = inner.deferred.iter().rposition(|d| self.barrier.all_passed(d.steal_epoch))?;
        Some(inner.deferred.remove(i).hw)
    }

    /// Steals the least-recently-bound binding's hardware key — unleased
    /// victims first — revoking its generation, parking its pages, and
    /// quarantining the key at a fresh barrier epoch. The key is *not*
    /// released to the shared `pkey_alloc` pool: it stays owned by the
    /// quarantine list until it matures, so nothing else in the process
    /// can race it into reuse before the barrier clears.
    fn steal_into_quarantine(
        &self,
        inner: &mut Inner,
        binder: VirtualPkey,
    ) -> Result<(), VirtualPkeyError> {
        let mut victim: Option<usize> = None;
        for (i, state) in inner.states.iter().enumerate() {
            if i == binder.0 as usize || state.hw.is_none() {
                continue;
            }
            let leased = state.leases.load(Ordering::Acquire) != 0;
            let better = match victim {
                None => true,
                Some(v) => {
                    let best = &inner.states[v];
                    let best_leased = best.leases.load(Ordering::Acquire) != 0;
                    (leased, state.last_bound) < (best_leased, best.last_bound)
                }
            };
            if better {
                victim = Some(i);
            }
        }
        let Some(v) = victim else {
            return Err(VirtualPkeyError::Exhausted);
        };
        let state = &mut inner.states[v];
        // Revoke *before* the quarantine epoch is minted: a gate entry
        // that misses this store must have published its region before
        // `begin_revocation`, and the barrier then holds the key until
        // that region's restore point (see `pkru_mpk::revoke`).
        state.current.store(0, Ordering::SeqCst);
        state.generation = 0;
        let hw = state.hw.take().expect("victim was bound");
        let pages = retag(&self.space, &state.regions, self.park)?;
        let steal_epoch = self.barrier.begin_revocation();
        inner.deferred.push(DeferredKey { hw, steal_epoch });
        inner.stats.evictions += 1;
        inner.stats.revocations += 1;
        inner.stats.pages_retagged += pages;
        Ok(())
    }

    /// Explicitly evicts `vkey`: revokes its lease generation, parks its
    /// pages, and quarantines its hardware key on the deferred-reuse list
    /// — the next bind (of any virtual key) reuses it once its steal
    /// epoch clears the revocation barrier.
    ///
    /// Idempotent: evicting an unbound key returns `Ok(false)`. Refuses
    /// with [`VirtualPkeyError::Pinned`] while a [`BindGuard`] lease is
    /// live — deliberate management-path eviction of a tenant that is
    /// mid-request stays an error even though steals no longer wait.
    pub fn evict(&self, vkey: VirtualPkey) -> Result<bool, VirtualPkeyError> {
        let mut inner = self.inner.lock().expect("vkey pool lock");
        let inner = &mut *inner;
        let state = inner.states.get_mut(vkey.0 as usize).ok_or(VirtualPkeyError::Unknown(vkey))?;
        let Some(hw) = state.hw else {
            return Ok(false);
        };
        if state.leases.load(Ordering::Acquire) != 0 {
            return Err(VirtualPkeyError::Pinned(vkey));
        }
        state.current.store(0, Ordering::SeqCst);
        state.generation = 0;
        state.hw = None;
        let regions = state.regions.clone();
        let pages = retag(&self.space, &regions, self.park)?;
        let steal_epoch = self.barrier.begin_revocation();
        inner.deferred.push(DeferredKey { hw, steal_epoch });
        inner.stats.evictions += 1;
        inner.stats.revocations += 1;
        inner.stats.pages_retagged += pages;
        Ok(true)
    }

    /// The hardware key `vkey` currently wears, if bound.
    pub fn hw_key(&self, vkey: VirtualPkey) -> Option<Pkey> {
        let inner = self.inner.lock().expect("vkey pool lock");
        inner.states.get(vkey.0 as usize).and_then(|s| s.hw)
    }

    /// Whether `vkey` is currently bound to a hardware key.
    pub fn is_bound(&self, vkey: VirtualPkey) -> bool {
        self.hw_key(vkey).is_some()
    }

    /// Number of virtual keys currently wearing a hardware key.
    pub fn bound_count(&self) -> usize {
        let inner = self.inner.lock().expect("vkey pool lock");
        inner.states.iter().filter(|s| s.hw.is_some()).count()
    }

    /// Number of hardware keys currently quarantined on the
    /// deferred-reuse list.
    pub fn deferred_count(&self) -> usize {
        self.inner.lock().expect("vkey pool lock").deferred.len()
    }

    /// Number of virtual keys registered.
    pub fn registered(&self) -> usize {
        self.inner.lock().expect("vkey pool lock").states.len()
    }

    /// Snapshot of the pool's lifetime counters (plus the live
    /// `deferred_keys` gauge).
    pub fn stats(&self) -> VkeyPoolStats {
        let inner = self.inner.lock().expect("vkey pool lock");
        let mut stats = inner.stats;
        stats.deferred_keys = inner.deferred.len() as u64;
        stats
    }

    /// Hardware keys currently allocated process-wide (including key 0,
    /// the trusted key, the park key, and quarantined keys — which stay
    /// allocated while deferred) — can never exceed 16.
    pub fn allocated_count(&self) -> u32 {
        self.hw.allocated_count()
    }
}

impl std::fmt::Debug for VirtualPkeyPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualPkeyPool")
            .field("park", &self.park)
            .field("registered", &self.registered())
            .field("bound", &self.bound_count())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Re-tags every region onto `key`, returning the pages touched. Each
/// `pkey_mprotect` bumps the space's epoch — the storm is what invalidates
/// every thread's software TLB.
fn retag(space: &SharedSpace, regions: &[Region], key: Pkey) -> Result<u64, VirtualPkeyError> {
    let mut pages = 0;
    for r in regions {
        space
            .pkey_mprotect(r.addr, r.len, r.prot, key)
            .map_err(|e| VirtualPkeyError::Retag(format!("{:#x}+{:#x}: {e}", r.addr, r.len)))?;
        pages += page_align_up(r.len) / PAGE_SIZE;
    }
    Ok(pages)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with(space: &SharedSpace) -> (VirtualPkeyPool, SharedPkeyPool) {
        let hw = SharedPkeyPool::new();
        (VirtualPkeyPool::new(space.clone(), hw.clone()).unwrap(), hw)
    }

    fn mapped_vkey(pool: &VirtualPkeyPool, space: &SharedSpace, at: VirtAddr) -> VirtualPkey {
        let vkey = pool.register();
        space.mmap_at(at, PAGE_SIZE, Prot::READ_WRITE).unwrap();
        pool.add_region(vkey, at, PAGE_SIZE, Prot::READ_WRITE).unwrap();
        vkey
    }

    #[test]
    fn regions_park_until_bound_then_wear_the_binding() {
        let space = SharedSpace::new();
        let (pool, _) = pool_with(&space);
        let vkey = mapped_vkey(&pool, &space, 0x100_0000);
        assert_eq!(space.page_pkey(0x100_0000), Some(pool.park_key()));
        let guard = pool.bind(vkey).unwrap();
        assert_eq!(space.page_pkey(0x100_0000), Some(guard.hw_key()));
        assert_ne!(guard.hw_key(), pool.park_key());
    }

    #[test]
    fn binding_past_the_hardware_limit_steals_the_lru_key() {
        let space = SharedSpace::new();
        let (pool, hw) = pool_with(&space);
        // Burn the pool down to 2 free keys so the test stays small.
        let mut held = Vec::new();
        while hw.allocated_count() < 14 {
            held.push(hw.alloc().unwrap());
        }
        let a = mapped_vkey(&pool, &space, 0x100_0000);
        let b = mapped_vkey(&pool, &space, 0x200_0000);
        let c = mapped_vkey(&pool, &space, 0x300_0000);
        let key_a = pool.bind(a).unwrap().hw_key();
        drop(pool.bind(b).unwrap());
        // Rebind b so a becomes the LRU victim.
        drop(pool.bind(b).unwrap());
        let guard_c = pool.bind(c).unwrap();
        // c stole a's key (revoked, quarantined, matured — no workers are
        // registered, so the barrier passes immediately); a is parked.
        assert_eq!(guard_c.hw_key(), key_a);
        assert!(!pool.is_bound(a));
        assert_eq!(space.page_pkey(0x100_0000), Some(pool.park_key()));
        assert_eq!(space.page_pkey(0x300_0000), Some(key_a));
        let stats = pool.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.revocations, 1);
        assert_eq!(stats.deferred_reuses, 1);
        assert_eq!(stats.deferred_keys, 0, "the matured key went straight to c");
    }

    #[test]
    fn leased_bindings_are_stolen_last() {
        let space = SharedSpace::new();
        let (pool, hw) = pool_with(&space);
        let mut held = Vec::new();
        while hw.allocated_count() < 14 {
            held.push(hw.alloc().unwrap());
        }
        let a = mapped_vkey(&pool, &space, 0x100_0000);
        let b = mapped_vkey(&pool, &space, 0x200_0000);
        let c = mapped_vkey(&pool, &space, 0x300_0000);
        // a is the LRU *and* leased: the steal must prefer unleased b.
        let guard_a = pool.bind(a).unwrap();
        let key_b = { pool.bind(b).unwrap().hw_key() };
        let guard_c = pool.bind(c).unwrap();
        assert_eq!(guard_c.hw_key(), key_b);
        assert!(pool.is_bound(a));
        assert!(guard_a.is_current(), "an unstolen lease stays live");
        assert_eq!(space.page_pkey(0x100_0000), Some(guard_a.hw_key()));
    }

    #[test]
    fn stealing_a_leased_binding_revokes_the_lease() {
        let space = SharedSpace::new();
        let (pool, hw) = pool_with(&space);
        let mut held = Vec::new();
        while hw.allocated_count() < 15 {
            held.push(hw.alloc().unwrap());
        }
        let a = mapped_vkey(&pool, &space, 0x100_0000);
        let b = mapped_vkey(&pool, &space, 0x200_0000);
        // a holds the only key and is leased. The old pool refused here
        // with `AllPinned`; now the steal proceeds — the lease is revoked
        // and the holder finds out through its stamp, never through
        // memory it can still touch.
        let guard_a = pool.bind(a).unwrap();
        assert!(guard_a.is_current());
        let guard_b = pool.bind(b).unwrap();
        assert_eq!(guard_b.hw_key(), guard_a.hw_key(), "b recycled a's key");
        assert!(!guard_a.is_current(), "the steal revoked a's lease");
        assert!(guard_b.is_current());
        assert!(!pool.is_bound(a));
        assert_eq!(space.page_pkey(0x100_0000), Some(pool.park_key()));
        assert_eq!(pool.stats().revocations, 1);
    }

    #[test]
    fn quarantined_keys_wait_for_the_revocation_barrier() {
        let space = SharedSpace::new();
        let (pool, hw) = pool_with(&space);
        let mut held = Vec::new();
        while hw.allocated_count() < 15 {
            held.push(hw.alloc().unwrap());
        }
        let a = mapped_vkey(&pool, &space, 0x100_0000);
        let b = mapped_vkey(&pool, &space, 0x200_0000);
        let key_a = { pool.bind(a).unwrap().hw_key() };
        // A worker sits inside a gate region entered *before* the steal:
        // its PKRU may still carry rights to a's key, so the quarantine
        // must hold the key for the whole bind backoff.
        let worker = pool.barrier().register();
        worker.enter();
        assert!(matches!(pool.bind(b), Err(VirtualPkeyError::AllPinned)));
        assert_eq!(pool.deferred_count(), 1, "the stolen key waits in quarantine");
        // The worker reaches its restore point: the epoch clears and the
        // very same key is granted to b.
        worker.park();
        let guard_b = pool.bind(b).unwrap();
        assert_eq!(guard_b.hw_key(), key_a);
        assert_eq!(pool.deferred_count(), 0);
        assert!(pool.stats().deferred_reuses >= 1);
    }

    #[test]
    fn evict_is_refused_while_leased_and_idempotent_after() {
        let space = SharedSpace::new();
        let (pool, _) = pool_with(&space);
        let a = mapped_vkey(&pool, &space, 0x100_0000);
        let guard = pool.bind(a).unwrap();
        assert_eq!(pool.evict(a), Err(VirtualPkeyError::Pinned(a)));
        assert!(guard.is_current(), "a refused evict revokes nothing");
        drop(guard);
        assert_eq!(pool.evict(a), Ok(true));
        assert_eq!(pool.evict(a), Ok(false), "double evict is idempotent");
        assert_eq!(space.page_pkey(0x100_0000), Some(pool.park_key()));
        let stats = pool.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.revocations, 1);
    }

    #[test]
    fn free_then_rebind_reuses_the_same_hardware_key() {
        let space = SharedSpace::new();
        let (pool, _) = pool_with(&space);
        let a = mapped_vkey(&pool, &space, 0x100_0000);
        let first = { pool.bind(a).unwrap().hw_key() };
        pool.evict(a).unwrap();
        let second = { pool.bind(a).unwrap().hw_key() };
        // The evicted key matured in quarantine (no workers registered)
        // and the rebind takes the deferred list LIFO before allocating
        // fresh — same key both times, as with pkey_free/pkey_alloc.
        assert_eq!(first, second, "evict then rebind reuses the quarantined key");
        assert_eq!(pool.stats().deferred_reuses, 1);
    }

    #[test]
    fn rebinding_mints_a_fresh_generation_and_old_stamps_stay_stale() {
        let space = SharedSpace::new();
        let (pool, _) = pool_with(&space);
        let a = mapped_vkey(&pool, &space, 0x100_0000);
        let (old_generation, old_stamp) = {
            let guard = pool.bind(a).unwrap();
            (guard.generation(), guard.stamp())
        };
        assert!(old_stamp.is_current());
        pool.evict(a).unwrap();
        assert!(!old_stamp.is_current(), "evict revokes the published generation");
        assert_eq!(old_stamp.current_generation(), 0);
        let guard = pool.bind(a).unwrap();
        assert!(guard.generation() > old_generation, "generations are monotonic");
        assert!(guard.is_current());
        assert!(!old_stamp.is_current(), "a rebind never resurrects an old stamp");
    }

    #[test]
    fn unknown_vkey_is_typed() {
        let space = SharedSpace::new();
        let (pool, _) = pool_with(&space);
        let ghost = VirtualPkey(99);
        assert!(matches!(pool.bind(ghost), Err(VirtualPkeyError::Unknown(g)) if g == ghost));
        assert_eq!(pool.evict(ghost), Err(VirtualPkeyError::Unknown(ghost)));
    }

    #[test]
    fn exhausted_park_allocation_is_typed() {
        let hw = SharedPkeyPool::new();
        let mut held = Vec::new();
        while hw.allocated_count() < 16 {
            held.push(hw.alloc().unwrap());
        }
        match VirtualPkeyPool::new(SharedSpace::new(), hw) {
            Err(VirtualPkeyError::Exhausted) => {}
            other => panic!("expected typed exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn retag_storm_bumps_the_tlb_epoch() {
        let space = SharedSpace::new();
        let (pool, _) = pool_with(&space);
        let a = mapped_vkey(&pool, &space, 0x100_0000);
        let before = space.epoch();
        let guard = pool.bind(a).unwrap();
        assert!(space.epoch() > before, "bind re-tag must bump the epoch");
        drop(guard);
        let mid = space.epoch();
        pool.evict(a).unwrap();
        assert!(space.epoch() > mid, "evict parking must bump the epoch");
    }
}
