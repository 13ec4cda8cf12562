//! Fault injection and supervision: the hang regression, respawn and
//! retry-once semantics, partial reports on pool death, and the
//! termination property over random fault plans.
//!
//! Every test that provokes worker death runs under a watchdog thread: if
//! `serve` regresses back into the PR-2 hang (producer blocked forever on
//! a full queue against a dead pool), the watchdog aborts the whole test
//! process so CI *fails* instead of wedging until the job timeout.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use proptest::prelude::*;

use pkru_server::{
    serve, Fault, FaultKind, FaultPlan, ServeConfig, ServeError, ServeReport, RESTART_BUDGET,
};

/// Runs `f` under a watchdog: if it has not finished after `seconds`, the
/// process aborts with a diagnostic. `std::process::abort` (not panic) on
/// purpose — a hung `serve` holds non-unwindable threads, so unwinding
/// could never report the failure.
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

/// The supervision bookkeeping invariant, on both the Ok and Err paths.
fn assert_accounted(report: &ServeReport) {
    assert_eq!(
        report.requests_served + report.requests_abandoned,
        report.config.requests,
        "every generated request must be served or abandoned: {report:?}"
    );
}

/// THE headline regression: before supervision, a worker that failed
/// browser setup returned without ever popping, so with one worker the
/// producer blocked forever on the full bounded queue and `serve()` never
/// returned. It must now terminate with `ServeError::Worker` carrying the
/// partial report.
#[test]
fn setup_failure_terminates_instead_of_hanging() {
    let config = ServeConfig {
        workers: 1,
        requests: 64,
        // Small enough that the producer WILL block on a dead pool.
        queue_capacity: 4,
        seed: 11,
        faults: FaultPlan::none().with(Fault { worker: 0, kind: FaultKind::SetupFailure, at: 1 }),
        ..ServeConfig::default()
    };
    let error = with_watchdog(180, || serve(config)).expect_err("a dead pool must error");
    match error {
        ServeError::Worker { worker, ref message, ref report } => {
            assert_eq!(worker, 0);
            assert!(message.contains("setup"), "unexpected cause: {message}");
            let report = report.as_deref().expect("pool death must carry the partial report");
            assert_eq!(report.requests_served, 0);
            assert_eq!(report.requests_abandoned, 64);
            // Initial spawn + every budgeted respawn hit the injection.
            assert_eq!(report.injected_faults, RESTART_BUDGET as u64 + 1);
            assert_eq!(report.workers_restarted, RESTART_BUDGET as u64);
            assert_accounted(report);
        }
        other => panic!("expected ServeError::Worker, got {other:?}"),
    }
}

/// A mid-request panic kills one incarnation, not the run: the slot is
/// respawned, the in-flight request is requeued exactly once, and the
/// run still serves everything cleanly.
#[test]
fn panic_is_survived_by_respawn_and_retry() {
    let config = ServeConfig {
        workers: 2,
        requests: 32,
        queue_capacity: 8,
        seed: 5,
        faults: FaultPlan::none().with(Fault { worker: 0, kind: FaultKind::Panic, at: 3 }),
        ..ServeConfig::default()
    };
    let report = with_watchdog(180, || serve(config)).expect("one panic must not kill the run");
    assert_accounted(&report);
    assert_eq!(report.requests_served, 32);
    assert_eq!(report.requests_abandoned, 0);
    assert_eq!(report.workers_restarted, 1);
    assert_eq!(report.requests_retried, 1);
    assert_eq!(report.injected_faults, 1);
    assert!(report.clean(), "a retried request must still verify: {report:?}");
}

/// An injected MPK violation is indistinguishable from a real one: the
/// worker survives, the request completes, and the defect is counted in
/// `unexpected_faults` — making the run dirty but fully served.
#[test]
fn injected_mpk_violation_lands_in_the_fault_counters() {
    let config = ServeConfig {
        workers: 1,
        requests: 8,
        queue_capacity: 4,
        seed: 2,
        faults: FaultPlan::none().with(Fault { worker: 0, kind: FaultKind::PkeyViolation, at: 4 }),
        ..ServeConfig::default()
    };
    let report = with_watchdog(180, || serve(config)).expect("violations are counters");
    assert_accounted(&report);
    assert_eq!(report.requests_served, 8);
    assert_eq!(report.unexpected_faults, 1);
    assert_eq!(report.injected_faults, 1);
    assert_eq!(report.workers_restarted, 0);
    assert!(!report.clean(), "an MPK fault must dirty the run: {report:?}");
}

/// Exhausting a worker's allocator carve-out kills the incarnation; the
/// respawn claims a fresh carve-out slot on the shared host and the run
/// completes.
#[test]
fn carveout_exhaustion_is_survived_by_respawn() {
    let config = ServeConfig {
        workers: 2,
        requests: 24,
        queue_capacity: 8,
        seed: 13,
        faults: FaultPlan::none().with(Fault {
            worker: 1,
            kind: FaultKind::AllocExhaustion,
            at: 2,
        }),
        ..ServeConfig::default()
    };
    let report = with_watchdog(180, || serve(config)).expect("exhaustion must be survivable");
    assert_accounted(&report);
    assert_eq!(report.requests_served, 24);
    assert_eq!(report.workers_restarted, 1);
    assert_eq!(report.requests_retried, 1);
    assert_eq!(report.injected_faults, 1);
    assert!(report.clean(), "{report:?}");
}

/// A permanently dead slot costs its capacity, never the pool's liveness:
/// worker 3 burns its whole respawn budget on setup failures, and the
/// three survivors still serve every request cleanly.
#[test]
fn one_dead_worker_of_four_degrades_the_pool_cleanly() {
    let config = ServeConfig {
        workers: 4,
        requests: 16,
        queue_capacity: 32,
        seed: 0x5eed,
        faults: FaultPlan::none().with(Fault { worker: 3, kind: FaultKind::SetupFailure, at: 1 }),
        ..ServeConfig::default()
    };
    let report = with_watchdog(180, || serve(config)).expect("a 3/4-alive pool must still serve");
    assert_accounted(&report);
    assert!(report.clean(), "survivors must serve everything: {report:?}");
    assert_eq!(report.workers[3].requests, 0, "the dead worker served requests?");
    assert!(report.injected_faults > 0, "{report:?}");
    assert!(report.workers_restarted > 0, "{report:?}");
}

/// Retry-once-then-count: a request whose worker dies twice is abandoned,
/// and a slot that dies past its budget takes the (single-slot) pool with
/// it — returning the partial report, not hanging.
#[test]
fn repeated_panics_exhaust_the_budget_and_abandon_once_retried_requests() {
    let plan = FaultPlan::none()
        .with(Fault { worker: 0, kind: FaultKind::Panic, at: 1 })
        .with(Fault { worker: 0, kind: FaultKind::Panic, at: 2 })
        .with(Fault { worker: 0, kind: FaultKind::Panic, at: 3 });
    let config = ServeConfig {
        workers: 1,
        requests: 16,
        queue_capacity: 4,
        seed: 3,
        faults: plan,
        ..ServeConfig::default()
    };
    let error = with_watchdog(180, || serve(config)).expect_err("budget exhaustion must error");
    match error {
        ServeError::Worker { worker, ref message, ref report } => {
            assert_eq!(worker, 0);
            assert!(message.contains("panicked"), "unexpected cause: {message}");
            let report = report.as_deref().expect("partial report");
            assert_accounted(report);
            assert_eq!(report.requests_served, 0);
            // The first victim was requeued once; its second death and
            // the final pool death must not requeue anything again.
            assert_eq!(report.requests_retried, 1);
            assert_eq!(report.workers_restarted, RESTART_BUDGET as u64);
            assert_eq!(report.injected_faults, 3);
        }
        other => panic!("expected ServeError::Worker, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The termination property: whatever a (seeded, deterministic)
    /// fault plan does to the pool, `serve` returns — and on both the Ok
    /// and Err paths every generated request is either served or
    /// abandoned, never lost or double-counted.
    #[test]
    fn serve_always_terminates_and_accounts_for_every_request(
        seed in any::<u64>(),
        workers in 1usize..3,
        requests in 4u64..14,
    ) {
        let faults = FaultPlan::random(seed, workers, requests);
        let config = ServeConfig {
            workers,
            requests,
            queue_capacity: 4,
            seed,
            faults: faults.clone(),
            ..ServeConfig::default()
        };
        let outcome = with_watchdog(300, || serve(config));
        let report = match &outcome {
            Ok(report) => report,
            Err(ServeError::Worker { report: Some(report), .. }) => report,
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "plan {faults:?}: unexpected error shape {other:?}"
                )))
            }
        };
        prop_assert_eq!(
            report.requests_served + report.requests_abandoned,
            requests,
            "plan {:?} lost requests: {:?}", faults, report
        );
        if faults.is_empty() {
            prop_assert!(outcome.is_ok(), "fault-free plan must serve cleanly");
            prop_assert_eq!(report.requests_abandoned, 0);
            prop_assert_eq!(report.injected_faults, 0);
            prop_assert_eq!(report.workers_restarted, 0);
        }
    }
}
