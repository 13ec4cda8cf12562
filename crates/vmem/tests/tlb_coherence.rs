//! TLB coherence: a space accessed through a per-thread TLB and a space
//! accessed through the untranslated `read`/`write` methods (every access
//! takes the lock and walks the regions) driven with the same
//! interleaving of accesses and protection changes must be observably
//! identical — byte-identical results, identical fault sequences
//! (`Fault{addr,access,kind}`), and identical non-TLB counters.
//!
//! The targeted regressions below pin the cases the epoch protocol
//! exists for: a `pkey_mprotect` re-key must never be served from a
//! stale cached key (the paper's security argument), a `munmap` must not
//! leave a live translation, and frame materialization by one thread
//! must be visible through another thread's TLB.

use proptest::prelude::*;

use pkru_mpk::{AccessKind, Pkey, Pkru};
use pkru_vmem::{Fault, FaultKind, Prot, SharedSpace, Tlb, PAGE_SIZE};

const PAGES: u64 = 8;

/// One independently-driven space + per-thread TLB pair. An untranslated
/// lane never touches its TLB: it is the reference the TLB must match.
struct Lane {
    space: SharedSpace,
    tlb: Tlb,
    base: u64,
    translated: bool,
}

fn lane(translated: bool) -> Lane {
    let space = SharedSpace::new();
    let base = space.mmap(PAGES * PAGE_SIZE, Prot::READ_WRITE).unwrap();
    Lane { space, tlb: Tlb::new(), base, translated }
}

/// The width of a run's loads and stores: the `u64` accessors, or the
/// byte accessors that carry the DOM's string traffic.
#[derive(Clone, Copy)]
enum Width {
    Word,
    Byte,
}

impl Lane {
    fn load(&mut self, width: Width, pkru: Pkru, addr: u64) -> Result<u64, Fault> {
        let (space, tlb) = (&self.space, &mut self.tlb);
        match (width, self.translated) {
            (Width::Word, true) => space.tlb_read_u64(tlb, pkru, addr),
            (Width::Word, false) => space.read_u64(pkru, addr),
            (Width::Byte, true) => space.tlb_read_u8(tlb, pkru, addr).map(u64::from),
            (Width::Byte, false) => space.read_u8(pkru, addr).map(u64::from),
        }
    }

    fn store(&mut self, width: Width, pkru: Pkru, addr: u64, value: u64) -> Result<(), Fault> {
        let (space, tlb) = (&self.space, &mut self.tlb);
        match (width, self.translated) {
            (Width::Word, true) => space.tlb_write_u64(tlb, pkru, addr, value),
            (Width::Word, false) => space.write_u64(pkru, addr, value),
            (Width::Byte, true) => space.tlb_write_u8(tlb, pkru, addr, value as u8),
            (Width::Byte, false) => space.write_u8(pkru, addr, value as u8),
        }
    }

    fn read(&mut self, pkru: Pkru, addr: u64, buf: &mut [u8]) -> Result<(), Fault> {
        if self.translated {
            self.space.tlb_read(&mut self.tlb, pkru, addr, buf)
        } else {
            self.space.read(pkru, addr, buf)
        }
    }
}

/// The observable outcome of one operation, compared across lanes.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Value(u64),
    Bytes(Vec<u8>),
    Fault(Fault),
    MapOk,
    MapErr,
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        // xorshift64*: deterministic op stream from the proptest seed.
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Applies the `n`-th operation of the `seed` stream to one lane. Both
/// lanes see the same stream, so any observable divergence is a TLB
/// coherence bug.
fn apply(lane: &mut Lane, width: Width, seed: u64, n: u64) -> Outcome {
    let mut rng = XorShift(seed ^ (n.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1);
    let key = Pkey::new(1).unwrap();
    let pkru = if rng.below(2) == 0 { Pkru::ALL_ACCESS } else { Pkru::deny_only(key) };
    let page = rng.below(PAGES);
    let offset = rng.below(PAGE_SIZE - 8);
    let addr = lane.base + page * PAGE_SIZE + offset;
    match rng.below(10) {
        // Accesses dominate, as on the real hot path.
        0..=2 => match lane.load(width, pkru, addr) {
            Ok(v) => Outcome::Value(v),
            Err(f) => Outcome::Fault(f),
        },
        3..=5 => match lane.store(width, pkru, addr, rng.next()) {
            Ok(()) => Outcome::MapOk,
            Err(f) => Outcome::Fault(f),
        },
        // A straddling read exercises the cross-page fallback.
        6 => {
            let mut buf = vec![0u8; 24];
            let addr = lane.base + page * PAGE_SIZE + (PAGE_SIZE - 12);
            match lane.read(pkru, addr, &mut buf) {
                Ok(()) => Outcome::Bytes(buf),
                Err(f) => Outcome::Fault(f),
            }
        }
        7 => {
            let prot = if rng.below(2) == 0 { Prot::READ } else { Prot::READ_WRITE };
            match lane.space.mprotect(lane.base + page * PAGE_SIZE, PAGE_SIZE, prot) {
                Ok(()) => Outcome::MapOk,
                Err(_) => Outcome::MapErr,
            }
        }
        8 => {
            let new_key = if rng.below(2) == 0 { key } else { Pkey::DEFAULT };
            match lane.space.pkey_mprotect(
                lane.base + page * PAGE_SIZE,
                PAGE_SIZE,
                Prot::READ_WRITE,
                new_key,
            ) {
                Ok(()) => Outcome::MapOk,
                Err(_) => Outcome::MapErr,
            }
        }
        _ => {
            // Unmap, then remap on a later hit of the same arm, so
            // unmapped faults appear without permanently shrinking the
            // arena.
            let page_addr = lane.base + page * PAGE_SIZE;
            let result = if lane.space.is_mapped(page_addr) {
                lane.space.munmap(page_addr, PAGE_SIZE)
            } else {
                lane.space.mmap_at(page_addr, PAGE_SIZE, Prot::READ_WRITE)
            };
            match result {
                Ok(()) => Outcome::MapOk,
                Err(_) => Outcome::MapErr,
            }
        }
    }
}

/// Runs `ops` operations of the `seed` stream on a translated and an
/// untranslated lane, requiring identical outcomes and non-TLB counters.
fn check_lanes(seed: u64, ops: u64, width: Width) -> Result<(), TestCaseError> {
    let mut on = lane(true);
    let mut off = lane(false);
    for n in 0..ops {
        let a = apply(&mut on, width, seed, n);
        let b = apply(&mut off, width, seed, n);
        prop_assert_eq!(a, b, "divergence at op {} of seed {:#x}", n, seed);
    }
    // Hit-path counters are buffered per thread; publish them before
    // comparing the shared totals.
    on.space.tlb_fold_stats(&mut on.tlb);
    let (sa, sb) = (on.space.stats(), off.space.stats());
    prop_assert_eq!((sa.reads, sa.writes, sa.demand_pages), (sb.reads, sb.writes, sb.demand_pages));
    prop_assert_eq!(
        (sa.pkey_faults, sa.prot_faults, sa.unmapped_faults),
        (sb.pkey_faults, sb.prot_faults, sb.unmapped_faults)
    );
    // The translated lane must actually have exercised the cache.
    prop_assert!(sa.tlb.hits + sa.tlb.misses > 0);
    prop_assert_eq!(sb.tlb.hits, 0, "the untranslated accessors never serve hits");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline coherence property: a run of an interleaved op stream
    /// through the TLB and a run of the same stream through the
    /// untranslated accessors are observably identical.
    #[test]
    fn tlb_on_and_off_are_observably_identical(seed in 0u64..u64::MAX, ops in 50u64..300) {
        check_lanes(seed, ops, Width::Word)?;
    }

    /// The same property for the single-byte accessors.
    #[test]
    fn byte_accesses_match_the_untranslated_accessors(
        seed in 0u64..u64::MAX,
        ops in 50u64..300,
    ) {
        check_lanes(seed, ops, Width::Byte)?;
    }
}

/// The security-critical regression: after `pkey_mprotect` re-keys a
/// page, a cached translation must NOT keep honoring the old key — the
/// epoch bump is the software shootdown that guarantees it.
#[test]
fn rekeyed_page_is_not_served_from_a_stale_entry() {
    let mut l = lane(true);
    let key = Pkey::new(1).unwrap();
    let restricted = Pkru::deny_only(key);

    // Warm the TLB: cache the page under Pkey::DEFAULT, which
    // `restricted` allows. (The write materializes the frame and bumps
    // the epoch, so the first read refills; the second is a true hit.)
    l.space.tlb_write_u64(&mut l.tlb, restricted, l.base, 7).unwrap();
    assert_eq!(l.space.tlb_read_u64(&mut l.tlb, restricted, l.base).unwrap(), 7);
    assert_eq!(l.space.tlb_read_u64(&mut l.tlb, restricted, l.base).unwrap(), 7);
    l.space.tlb_fold_stats(&mut l.tlb);
    assert!(l.space.stats().tlb.hits > 0, "the entry must actually be cached");

    // Re-key the page to `key`. The same PKRU must now fault — serving
    // the cached DEFAULT-keyed entry would be the vulnerability.
    l.space.pkey_mprotect(l.base, PAGE_SIZE, Prot::READ_WRITE, key).unwrap();
    let fault = l.space.tlb_read_u64(&mut l.tlb, restricted, l.base).unwrap_err();
    assert_eq!(
        fault,
        Fault {
            addr: l.base,
            access: AccessKind::Read,
            kind: FaultKind::PkeyViolation { pkey: key, pkru: restricted }
        }
    );
}

/// PKRU is never cached into an entry: flipping rights between two
/// accesses to the *same hot entry* changes the verdict with no mapping
/// change and no flush — the hardware semantics that make call gates
/// flush-free.
#[test]
fn pkru_flips_change_the_verdict_on_a_cached_entry() {
    let mut l = lane(true);
    let key = Pkey::new(1).unwrap();
    l.space.pkey_mprotect(l.base, PAGE_SIZE, Prot::READ_WRITE, key).unwrap();

    l.space.tlb_write_u64(&mut l.tlb, Pkru::ALL_ACCESS, l.base, 9).unwrap();
    // Sync past the materialization epoch bump so the entry is resident,
    // then pin that rights flips cause no further flushes.
    assert_eq!(l.space.tlb_read_u64(&mut l.tlb, Pkru::ALL_ACCESS, l.base).unwrap(), 9);
    let flushes_before = l.space.stats().tlb.flushes;
    assert_eq!(l.space.tlb_read_u64(&mut l.tlb, Pkru::ALL_ACCESS, l.base).unwrap(), 9);
    let fault = l.space.tlb_read_u64(&mut l.tlb, Pkru::deny_only(key), l.base).unwrap_err();
    assert!(fault.is_pkey_violation());
    assert_eq!(l.space.tlb_read_u64(&mut l.tlb, Pkru::ALL_ACCESS, l.base).unwrap(), 9);
    assert_eq!(
        l.space.stats().tlb.flushes,
        flushes_before,
        "rights flips must not flush (PKRU is checked per access, never cached)"
    );
}

/// An unmapped page must fault even if a translation was cached before
/// the `munmap`.
#[test]
fn munmap_invalidates_cached_entries() {
    let mut l = lane(true);
    l.space.tlb_write_u64(&mut l.tlb, Pkru::ALL_ACCESS, l.base, 3).unwrap();
    assert_eq!(l.space.tlb_read_u64(&mut l.tlb, Pkru::ALL_ACCESS, l.base).unwrap(), 3);
    l.space.munmap(l.base, PAGE_SIZE).unwrap();
    let fault = l.space.tlb_read_u64(&mut l.tlb, Pkru::ALL_ACCESS, l.base).unwrap_err();
    assert_eq!(fault.kind, FaultKind::Unmapped);
    assert_eq!(fault.addr, l.base);
}

/// Demand-zero coherence across TLBs: a thread that cached the
/// "unmaterialized, reads as zeros" state must observe another thread's
/// first write — materialization bumps the epoch exactly for this.
#[test]
fn materialization_is_visible_through_a_second_tlb() {
    let l = lane(true);
    let mut reader_tlb = Tlb::new();
    let mut writer_tlb = Tlb::new();

    // Reader caches the zero page (frame handle: None).
    assert_eq!(l.space.tlb_read_u64(&mut reader_tlb, Pkru::ALL_ACCESS, l.base).unwrap(), 0);
    assert_eq!(l.space.tlb_read_u64(&mut reader_tlb, Pkru::ALL_ACCESS, l.base).unwrap(), 0);

    // Writer materializes the frame through its own TLB.
    l.space.tlb_write_u64(&mut writer_tlb, Pkru::ALL_ACCESS, l.base, 0xfeed).unwrap();

    // The reader's next access must see the write, not its cached zeros.
    assert_eq!(l.space.tlb_read_u64(&mut reader_tlb, Pkru::ALL_ACCESS, l.base).unwrap(), 0xfeed);
}

/// The page-targeted flush drops exactly the addressed entry and counts
/// one flush (the violation-handler replay path relies on it).
#[test]
fn flush_page_drops_only_the_addressed_entry() {
    let mut l = lane(true);
    l.space.tlb_write_u64(&mut l.tlb, Pkru::ALL_ACCESS, l.base, 1).unwrap();
    l.space.tlb_write_u64(&mut l.tlb, Pkru::ALL_ACCESS, l.base + PAGE_SIZE, 2).unwrap();
    // Refill both entries past the materialization epoch bumps.
    assert_eq!(l.space.tlb_read_u64(&mut l.tlb, Pkru::ALL_ACCESS, l.base).unwrap(), 1);
    assert_eq!(l.space.tlb_read_u64(&mut l.tlb, Pkru::ALL_ACCESS, l.base + PAGE_SIZE).unwrap(), 2);
    assert_eq!(l.tlb.occupancy(), 2);
    let flushes = l.space.stats().tlb.flushes;
    l.space.tlb_flush_page(&mut l.tlb, l.base + 77);
    assert_eq!(l.tlb.occupancy(), 1);
    assert_eq!(l.space.stats().tlb.flushes, flushes + 1);
    // Flushing a page with no entry is a no-op, not a counted flush.
    l.space.tlb_flush_page(&mut l.tlb, l.base + 77);
    assert_eq!(l.space.stats().tlb.flushes, flushes + 1);
}

/// Steady-state accesses to a small working set are nearly all hits.
#[test]
fn steady_state_hit_rate_is_high() {
    let mut l = lane(true);
    for round in 0..100u64 {
        for page in 0..PAGES {
            let addr = l.base + page * PAGE_SIZE;
            l.space.tlb_write_u64(&mut l.tlb, Pkru::ALL_ACCESS, addr, round).unwrap();
            assert_eq!(l.space.tlb_read_u64(&mut l.tlb, Pkru::ALL_ACCESS, addr).unwrap(), round);
        }
    }
    l.space.tlb_fold_stats(&mut l.tlb);
    let tlb = l.space.stats().tlb;
    assert!(tlb.hit_rate() > 0.95, "working set fits the TLB: {tlb:?}");
}
