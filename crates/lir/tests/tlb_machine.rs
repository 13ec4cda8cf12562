//! Machine-level TLB behaviour: the per-thread TLB must be invisible to
//! every fault-policy outcome — profiler resolutions, violation-handler
//! verdicts, and single-step replays are identical whether the violation
//! is served from a warm entry or taken on a cold miss fill — while the
//! violation path flushes the faulting page's entry.

use std::sync::Arc;

use lir::{FaultPolicy, Machine, Trap};
use pkru_handler::{MpkPolicy, ViolationHandler};
use pkru_mpk::Pkru;
use pkru_provenance::AllocId;
use pkru_vmem::{page_base, FaultKind, Prot, SpaceStats, Tlb, PAGE_SIZE};

/// Runs the shared scenario — write to a trusted allocation, drop to the
/// untrusted compartment, read it back through the fault path — and
/// returns the observables.
struct Scenario {
    value: u64,
    machine: Machine,
}

fn violate_under(policy: FaultPolicy, handler: Option<MpkPolicy>, warm: bool) -> Scenario {
    let mut m = Machine::split(policy).unwrap();
    if let Some(policy) = handler {
        m.set_violation_handler(Arc::new(ViolationHandler::new(policy, 0)));
    }
    let p = m.alloc.alloc(64).unwrap();
    m.mem_write(p, 4321).unwrap();
    m.profiler.metadata.log_alloc(p, 64, AllocId::new(1, 2, 3));
    // Warm the TLB on the trusted page so the violation below is served
    // from a cached entry; a cold run then drops every entry, so the
    // violation is raised by the miss fill instead.
    assert_eq!(m.mem_read(p).unwrap(), 4321);
    if !warm {
        m.fold_tlb_stats();
        m.tlb = Tlb::new();
    }
    m.gates.enter_untrusted(&mut m.cpu).unwrap();
    let value = m.mem_read(p).unwrap();
    Scenario { value, machine: m }
}

/// Under the profiling policy, the single-step resolution and the
/// recorded profile are identical from a warm entry and a cold miss.
#[test]
fn profile_resolution_is_identical_warm_and_cold() {
    let on = violate_under(FaultPolicy::Profile, None, true);
    let off = violate_under(FaultPolicy::Profile, None, false);
    assert_eq!(on.value, 4321);
    assert_eq!(on.value, off.value);
    for s in [&on, &off] {
        assert!(s.machine.profiler.profile.contains(AllocId::new(1, 2, 3)));
        assert_eq!(s.machine.profiler.profile.faults_observed, 1);
    }
    let (a, b) = (on.machine.space.stats(), off.machine.space.stats());
    assert_eq!(a.pkey_faults, b.pkey_faults, "fault accounting must not depend on the TLB state");
    assert_eq!(a.pkey_faults, 1);
}

/// Under the audit policy, the handler sees the same violation (same
/// site resolution, same verdict) either way, and the replayed access
/// completes with the same value.
#[test]
fn audit_verdict_is_identical_warm_and_cold() {
    let on = violate_under(FaultPolicy::Crash, Some(MpkPolicy::Audit), true);
    let off = violate_under(FaultPolicy::Crash, Some(MpkPolicy::Audit), false);
    assert_eq!(on.value, 4321, "audit must single-step the read to completion");
    assert_eq!(on.value, off.value);
    for s in [&on, &off] {
        let handler = s.machine.violation_handler().expect("handler installed");
        assert_eq!(handler.counters().audited, 1);
        let log = handler.audit_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].site, Some(AllocId::new(1, 2, 3)));
    }
}

/// The violation path must drop the faulting page's cached translation:
/// the replay and every later access see live page state, never the
/// entry that faulted.
#[test]
fn violation_path_flushes_the_faulting_entry() {
    let on = violate_under(FaultPolicy::Crash, Some(MpkPolicy::Audit), true);
    let stats = on.machine.space.stats();
    assert!(
        stats.tlb.flushes >= 1,
        "resolve_fault must flush the faulting page's entry: {:?}",
        stats.tlb
    );
}

/// The machine's memory accessors genuinely route through the TLB: a
/// hot loop over one allocation is nearly all hits.
#[test]
fn machine_accessors_hit_the_tlb() {
    let mut m = Machine::split(FaultPolicy::Crash).unwrap();
    let p = m.alloc.alloc(256).unwrap();
    for i in 0..200u64 {
        m.mem_write(p + (i % 32) * 8, i).unwrap();
        m.mem_read(p + (i % 32) * 8).unwrap();
    }
    // Hit counts are buffered per thread; publish them before reading.
    m.fold_tlb_stats();
    let tlb = m.space.stats().tlb;
    assert!(tlb.hits > 300, "expected a hot loop to hit the TLB: {tlb:?}");
    assert!(tlb.hit_rate() > 0.9, "hit rate too low: {tlb:?}");
}

/// Publishes the machine's buffered TLB counters and returns the space's
/// statistics.
fn stats(m: &mut Machine) -> SpaceStats {
    m.fold_tlb_stats();
    m.space.stats()
}

/// Every access served by a resident entry counts exactly one hit and
/// one read or write, and a page run inside one page is exactly one
/// fused op.
#[test]
fn hit_path_counts_every_access_exactly() {
    let mut m = Machine::split(FaultPolicy::Crash).unwrap();
    let p = m.alloc.alloc(256).unwrap();
    assert_eq!(page_base(p), page_base(p + 255), "the allocation lies in one page");
    // Materialize the page and fill its entry before counting.
    m.mem_write(p, 0).unwrap();
    m.mem_read(p).unwrap();
    let before = stats(&mut m);
    for i in 0..200u64 {
        m.mem_write(p + (i % 32) * 8, i % 32).unwrap();
    }
    for i in 0..200u64 {
        assert_eq!(m.mem_read(p + (i % 32) * 8).unwrap(), i % 32);
    }
    let after = stats(&mut m);
    assert_eq!(after.tlb.hits - before.tlb.hits, 400, "{:?}", after.tlb);
    assert_eq!(after.reads - before.reads, 200);
    assert_eq!(after.writes - before.writes, 200);
    assert_eq!(after.tlb.misses, before.tlb.misses);
    assert_eq!(after.tlb.flushes, before.tlb.flushes);
    assert_eq!(after.tlb.evictions, before.tlb.evictions);

    let fused = m.fused_ops;
    let mut buf = [0u8; 64];
    m.mem_read_bytes(p + 8, &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf[..8].try_into().unwrap()), 1);
    assert_eq!(m.fused_ops, fused + 1, "one page run is one fused op");
    let run = stats(&mut m);
    assert_eq!(run.tlb.hits - after.tlb.hits, 1);
    assert_eq!(run.reads - after.reads, 1);
    assert_eq!(run.tlb.misses, after.tlb.misses);
}

/// The hit path decides against the live PKRU and the entry's protection
/// bits: a resident entry never carries a rights verdict. The `Machine`
/// twin of vmem's `pkru_flips_change_the_verdict_on_a_cached_entry`.
#[test]
fn machine_hit_path_checks_live_pkru_and_prot() {
    let mut m = Machine::split(FaultPolicy::Crash).unwrap();
    let key = m.trusted_pkey();
    let p = m.alloc.alloc(64).unwrap();
    m.mem_write(p, 77).unwrap();
    assert_eq!(m.mem_read(p).unwrap(), 77);
    let warm = stats(&mut m);

    // Deny the page's key with the entry resident: the very next read
    // traps, decided on the cached entry (a hit, no miss and no flush).
    let rights = m.cpu.pkru();
    m.cpu.set_pkru(Pkru::deny_only(key));
    match m.mem_read(p) {
        Err(Trap::Fault(f)) => {
            assert_eq!(f.addr, p);
            assert!(
                matches!(f.kind, FaultKind::PkeyViolation { pkey, .. } if pkey == key),
                "{f:?}"
            );
        }
        other => panic!("expected a pkey violation, got {other:?}"),
    }
    let denied = stats(&mut m);
    assert_eq!(denied.tlb.hits - warm.tlb.hits, 1);
    assert_eq!(denied.tlb.misses, warm.tlb.misses);
    assert_eq!(denied.pkey_faults - warm.pkey_faults, 1);

    // Restoring the rights reads the value again.
    m.cpu.set_pkru(rights);
    assert_eq!(m.mem_read(p).unwrap(), 77);

    // A store to a resident read-only page traps on its protection bits.
    m.space.mprotect(page_base(p), PAGE_SIZE, Prot::READ).unwrap();
    assert_eq!(m.mem_read(p).unwrap(), 77);
    let read_only = stats(&mut m);
    match m.mem_write(p, 5) {
        Err(Trap::Fault(f)) => assert_eq!(f.kind, FaultKind::ProtViolation, "{f:?}"),
        other => panic!("expected a protection violation, got {other:?}"),
    }
    let refused = stats(&mut m);
    assert_eq!(refused.tlb.hits - read_only.tlb.hits, 1);
    assert_eq!(refused.tlb.misses, read_only.tlb.misses);
    assert_eq!(refused.prot_faults - read_only.prot_faults, 1);
    assert_eq!(m.mem_read(p).unwrap(), 77, "the refused store wrote nothing");
}
