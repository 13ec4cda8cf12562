//! Machine-level TLB behaviour: the per-thread TLB must be invisible to
//! every fault-policy outcome — profiler resolutions, violation-handler
//! verdicts, and single-step replays are identical whether the violation
//! is served from a warm entry or taken on a cold miss fill — while the
//! violation path flushes the faulting page's entry.

use std::sync::Arc;

use lir::{FaultPolicy, Machine};
use pkru_handler::{MpkPolicy, ViolationHandler};
use pkru_provenance::AllocId;
use pkru_vmem::Tlb;

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
