//! Policy-driven violation handling, end to end: audit-and-continue with
//! resolved provenance, the injected/real disjointness invariant, audit-log
//! determinism, quarantine teardown through supervision, and the profile
//! feedback loop (absorb the audit log, re-run violation-free).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use pkru_provenance::Profile;
use pkru_server::{serve, Fault, FaultKind, FaultPlan, MpkPolicy, ServeConfig};

/// Same watchdog as `fault_tests`: a regression into a hang must fail CI
/// fast, not wedge until the job timeout.
fn with_watchdog<T>(seconds: u64, f: impl FnOnce() -> T) -> T {
    let done = Arc::new(AtomicBool::new(false));
    let seen = Arc::clone(&done);
    thread::spawn(move || {
        for _ in 0..seconds * 10 {
            thread::sleep(Duration::from_millis(100));
            if seen.load(Ordering::Relaxed) {
                return;
            }
        }
        eprintln!("watchdog: serve() hung for {seconds}s; aborting so CI fails fast");
        std::process::abort();
    });
    let result = f();
    done.store(true, Ordering::Relaxed);
    result
}

fn audit_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        requests: 8,
        queue_capacity: 4,
        seed: 2,
        faults: FaultPlan::none().with(Fault { worker: 0, kind: FaultKind::PkeyViolation, at: 4 }),
        mpk_policy: MpkPolicy::Audit,
        extra_profile: None,
        ..ServeConfig::default()
    }
}

/// The headline acceptance property: under `audit`, a run with injected
/// MPK violations completes every request, the violation is single-stepped
/// and logged with its allocation site resolved, and the legacy
/// unexpected-fault counter stays at zero.
#[test]
fn audit_policy_serves_everything_and_logs_resolved_sites() {
    let report = with_watchdog(180, || serve(audit_config())).expect("audit must not kill a run");
    assert_eq!(report.requests_served, 8, "{report:?}");
    assert_eq!(report.requests_abandoned, 0);
    assert_eq!(report.workers_restarted, 0, "audit never tears a worker down");
    assert_eq!(report.injected_faults, 1);
    assert!(report.violations_audited >= 1, "{report:?}");
    assert_eq!(report.violations_enforced, 0);
    assert_eq!(report.violations_quarantined, 0);
    assert_eq!(report.audit_log.len(), report.violations_audited as usize);
    for record in &report.audit_log {
        assert!(record.site.is_some(), "unresolved provenance in {record:?}");
    }
    assert_eq!(report.checksum_mismatches, 0, "single-step recovery must not corrupt responses");
    assert_eq!(report.errors, 0);
}

/// Audit across a pool: one injected violation per worker, each
/// single-stepped and logged exactly once, and nothing abandoned.
#[test]
fn audit_policy_logs_one_violation_per_worker() {
    let faults = FaultPlan::none()
        .with(Fault { worker: 0, kind: FaultKind::PkeyViolation, at: 2 })
        .with(Fault { worker: 1, kind: FaultKind::PkeyViolation, at: 2 });
    let config = ServeConfig {
        workers: 2,
        requests: 16,
        queue_capacity: 32,
        seed: 0x5eed,
        faults,
        ..audit_config()
    };
    let report = with_watchdog(180, || serve(config)).expect("audit must survive its violations");
    assert!(report.clean(), "audited violations must not dirty the run: {report:?}");
    assert_eq!(report.requests_abandoned, 0, "{report:?}");
    assert_eq!(report.violations_audited, 2, "{report:?}");
    assert_eq!(report.audit_log.len(), 2, "{report:?}");
}

/// The disjointness invariant, pinned: an injected MPK fault routed
/// through the handler is accounted *only* by the `violations_*`
/// counters — `unexpected_faults` (and every per-worker `pkey_faults`)
/// stays zero, so `injected ∩ real = ∅` in the report.
#[test]
fn injected_and_real_violation_counters_are_disjoint() {
    let report = with_watchdog(180, || serve(audit_config())).expect("serve");
    assert_eq!(report.injected_faults, 1);
    assert!(report.violations_audited >= 1);
    assert_eq!(report.unexpected_faults, 0, "handler-path violations must not leak: {report:?}");
    for worker in &report.workers {
        assert_eq!(worker.pkey_faults, 0, "{worker:?}");
    }
}

/// Same seed + same fault plan ⇒ identical audit logs. The log
/// carries addresses and PKRU snapshots, so this pins the whole recovery
/// path (allocation order included) as deterministic.
#[test]
fn audit_log_is_deterministic_for_a_fixed_seed_and_plan() {
    let first = with_watchdog(180, || serve(audit_config())).expect("first run");
    let second = with_watchdog(180, || serve(audit_config())).expect("second run");
    assert!(!first.audit_log.is_empty());
    assert_eq!(first.audit_log, second.audit_log);
}

/// The feedback loop the paper's dynamic profiling is built on: absorb the
/// audit log's sites into the profile and an identical re-run is
/// violation-free — the faulting object now lives in shared memory.
#[test]
fn absorbing_the_audit_log_makes_the_rerun_violation_free() {
    let first = with_watchdog(180, || serve(audit_config())).expect("audit run");
    assert!(first.violations_audited >= 1);

    let mut learned = Profile::new();
    let absorbed = learned.absorb_audit(first.audit_log.iter().filter_map(|r| r.site));
    assert!(absorbed >= 1, "the audit log must teach the profile something");

    let rerun_config = ServeConfig { extra_profile: Some(learned), ..audit_config() };
    let rerun = with_watchdog(180, || serve(rerun_config)).expect("rerun");
    assert_eq!(rerun.injected_faults, 1, "the injection still fires on the rerun");
    assert_eq!(rerun.violations_audited, 0, "learned profile must silence it: {rerun:?}");
    assert!(rerun.audit_log.is_empty());
    assert_eq!(rerun.unexpected_faults, 0);
    assert_eq!(rerun.requests_served, 8);
}

/// `quarantine:1` turns the first violation into a breaker trip: the
/// worker is torn down *through the supervision path* (respawned within
/// budget), the site lands in `flagged_sites`, and the run still serves
/// every request.
#[test]
fn quarantine_trips_the_breaker_and_respawns_through_supervision() {
    let config =
        ServeConfig { mpk_policy: MpkPolicy::Quarantine { threshold: 1 }, ..audit_config() };
    let report = with_watchdog(180, || serve(config)).expect("a tripped breaker is survivable");
    assert_eq!(report.violations_quarantined, 1, "{report:?}");
    assert_eq!(report.violations_audited, 0, "threshold 1 denies the very first violation");
    assert_eq!(report.workers_restarted, 1, "teardown must ride the supervision path");
    assert_eq!(report.requests_served, 8);
    assert_eq!(report.requests_abandoned, 0);
    assert_eq!(report.flagged_sites.len(), 1, "{report:?}");
    assert_eq!(report.unexpected_faults, 0);
    // The flagged site is the one the audit log resolved.
    assert_eq!(report.audit_log.len(), 1);
    assert_eq!(report.audit_log[0].site, Some(report.flagged_sites[0]));
}

/// Below its threshold, `quarantine` behaves exactly like `audit`: the
/// violation is single-stepped, logged, and the worker lives on.
#[test]
fn quarantine_below_threshold_audits_and_continues() {
    let config =
        ServeConfig { mpk_policy: MpkPolicy::Quarantine { threshold: 5 }, ..audit_config() };
    let report = with_watchdog(180, || serve(config)).expect("serve");
    assert_eq!(report.violations_audited, 1, "{report:?}");
    assert_eq!(report.violations_quarantined, 0);
    assert_eq!(report.workers_restarted, 0);
    assert!(report.flagged_sites.is_empty());
    assert_eq!(report.requests_served, 8);
}

/// Under the default `enforce`, a run with the same injection reports the
/// defect in `unexpected_faults`, with `violations_enforced` mirroring it
/// and the policy named in the JSON.
#[test]
fn enforce_with_injection_matches_the_legacy_counters() {
    let config = ServeConfig { mpk_policy: MpkPolicy::Enforce, ..audit_config() };
    let report = with_watchdog(180, || serve(config)).expect("serve");
    assert_eq!(report.unexpected_faults, 1);
    assert_eq!(report.violations_enforced, 1);
    assert!(report.audit_log.is_empty(), "enforce keeps no audit log");
    let json = report.to_json();
    for key in ["\"mpk_policy\":\"enforce\"", "\"violations_enforced\":1,", "\"audit_log\":[]"] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}
