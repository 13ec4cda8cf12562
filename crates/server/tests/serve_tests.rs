//! End-to-end serve tests: happy path, graceful drain, determinism
//! against the single-threaded reference, and config validation.

use pkru_mpk::AccessKind;
use pkru_provenance::json::{self, JsonValue};
use pkru_provenance::AllocId;
use pkru_server::{
    serve, AuditRecord, Fault, FaultKind, FaultPlan, LatencySummary, MpkPolicy, QueueStats,
    ServeConfig, ServeError, ServeReport, TenantReportRow, VkeyPoolStats, WorkerStats,
};

#[test]
fn serve_happy_path_is_clean() {
    let config =
        ServeConfig { workers: 2, requests: 48, queue_capacity: 8, seed: 7, ..Default::default() };
    let report = serve(config).expect("serve");
    assert!(report.clean(), "unclean report: {report:?}");
    assert_eq!(report.requests_served, 48);
    assert_eq!(report.queue.enqueued, 48);
    assert_eq!(report.workers.len(), 2);
    assert_eq!(report.checksum_mismatches, 0);
    assert_eq!(report.unexpected_faults, 0);
    assert!(report.throughput_rps > 0.0);
    // Graceful drain: every generated request was served by someone.
    assert_eq!(report.workers.iter().map(|w| w.requests).sum::<u64>(), 48);
    // The enforcement build actually crossed the boundary.
    assert!(report.transitions > 0);
    // A fault-free run must report an entirely quiet supervision layer.
    assert_eq!(report.workers_restarted, 0);
    assert_eq!(report.requests_retried, 0);
    assert_eq!(report.requests_abandoned, 0);
    assert_eq!(report.injected_faults, 0);
}

#[test]
fn single_worker_matches_reference() {
    let config =
        ServeConfig { workers: 1, requests: 20, queue_capacity: 4, seed: 3, ..Default::default() };
    let report = serve(config).expect("serve");
    assert!(report.clean(), "unclean report: {report:?}");
    assert_eq!(report.workers[0].requests, 20);
}

#[test]
fn report_serializes_to_json() {
    let config =
        ServeConfig { workers: 1, requests: 8, queue_capacity: 4, seed: 1, ..Default::default() };
    let report = serve(config).expect("serve");
    let json = report.to_json();
    for key in [
        "\"workers\":1",
        "\"requests_served\":8",
        "\"throughput_rps\":",
        "\"backpressure_waits\":",
        "\"per_worker\":[",
        "\"checksum_mismatches\":0",
        "\"unexpected_faults\":0",
        "\"workers_restarted\":0",
        "\"requests_retried\":0",
        "\"requests_abandoned\":0",
        "\"injected_faults\":0",
        "\"tlb_hits\":",
        "\"tlb_misses\":",
        "\"tlb_flushes\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

/// A hand-built report (so wall-clock noise cannot perturb it) with
/// every feature off: one worker, no policy, tenants, overload controls
/// or latency.
fn report_all_off() -> ServeReport {
    ServeReport {
        config: ServeConfig {
            workers: 1,
            requests: 2,
            queue_capacity: 4,
            seed: 9,
            ..ServeConfig::default()
        },
        workers: vec![WorkerStats {
            worker: 0,
            requests: 2,
            page_loads: 1,
            scripts: 1,
            transitions: 10,
            pkey_faults: 0,
            errors: 0,
            expired: 0,
            ic_hits: 512,
            ic_misses: 16,
            fused_ops: 128,
        }],
        elapsed_seconds: 0.5,
        throughput_rps: 4.0,
        queue: QueueStats { enqueued: 2, max_depth: 2, backpressure_waits: 0, requeued: 0 },
        requests_served: 2,
        transitions: 10,
        checksum_mismatches: 0,
        unexpected_faults: 0,
        errors: 0,
        workers_restarted: 0,
        requests_retried: 0,
        requests_abandoned: 0,
        injected_faults: 0,
        tlb_hits: 640,
        tlb_misses: 8,
        tlb_flushes: 2,
        dispatch_ic_hits: 512,
        dispatch_ic_misses: 16,
        superinstructions_fused: 128,
        violations_enforced: 0,
        violations_audited: 0,
        violations_quarantined: 0,
        flagged_sites: Vec::new(),
        audit_log: Vec::new(),
        audit_dropped: 0,
        per_tenant: Vec::new(),
        tenant_key_stats: None,
        requests_expired: 0,
        requests_rejected: 0,
        workers_stalled: 0,
        latency: None,
    }
}

/// The same report with every feature on: a quarantine policy with an
/// audit log and a flagged site, fair-queued tenants, deadlines,
/// bounded admission, latency, a crash-recovery requeue and a watchdog
/// condemnation.
fn report_all_on() -> ServeReport {
    let site = AllocId::new(7, 0, 3);
    let tenant = |tenant: usize, requests: u64| TenantReportRow {
        tenant,
        requests,
        rejected: 1,
        bind_retries: 2,
        violations_enforced: 0,
        violations_audited: 1,
        violations_quarantined: 0,
        quarantined: false,
        offered: requests + 3,
        rate_limited: 2,
    };
    let base = report_all_off();
    ServeReport {
        config: ServeConfig {
            mpk_policy: MpkPolicy::Quarantine { threshold: 2 },
            tenants: 2,
            tenant_policy: MpkPolicy::Audit,
            deadline_ticks: 3,
            admission_wait_ms: Some(0),
            tenant_rate: Some(6),
            record_latency: true,
            ..base.config.clone()
        },
        queue: QueueStats { enqueued: 2, max_depth: 2, backpressure_waits: 1, requeued: 1 },
        workers_restarted: 1,
        requests_retried: 1,
        injected_faults: 2,
        violations_audited: 2,
        violations_quarantined: 1,
        flagged_sites: vec![site],
        audit_log: vec![AuditRecord {
            worker: 0,
            seq: 0,
            addr: 0x9000_1234,
            pkey: 1,
            pkru: 0x0000_000c,
            access: AccessKind::Write,
            site: Some(site),
        }],
        audit_dropped: 1,
        per_tenant: vec![tenant(0, 1), tenant(1, 1)],
        tenant_key_stats: Some(VkeyPoolStats {
            binds: 4,
            hits: 2,
            misses: 2,
            evictions: 1,
            pages_retagged: 6,
            revocations: 1,
            deferred_reuses: 1,
            deferred_keys: 0,
        }),
        requests_expired: 1,
        requests_rejected: 1,
        workers_stalled: 1,
        latency: Some(LatencySummary {
            count: 2,
            p50_ms: 0.25,
            p90_ms: 1.5,
            p99_ms: 1.5,
            p999_ms: 1.5,
            max_ms: 1.5,
        }),
        ..base
    }
}

/// Report schema 2, byte for byte: line 1 of the golden file is the
/// all-off report, line 2 the all-on one.
#[test]
fn report_json_matches_the_golden_file() {
    let golden = include_str!("golden/report_v2.json");
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), 2, "the golden file holds two reports");
    assert_eq!(report_all_off().to_json(), lines[0]);
    assert_eq!(report_all_on().to_json(), lines[1]);
}

/// Every object in `a` and `b` has the same keys, recursing wherever
/// both sides hold an object (an array through its first elements).
fn assert_same_keys(path: &str, a: &JsonValue, b: &JsonValue) {
    match (a, b) {
        (JsonValue::Object(fa), JsonValue::Object(fb)) => {
            let keys =
                |f: &[(String, JsonValue)]| f.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            assert_eq!(keys(fa), keys(fb), "key sets differ at {path}");
            for (key, va) in fa {
                assert_same_keys(&format!("{path}.{key}"), va, b.get(key).expect("same keys"));
            }
        }
        (JsonValue::Array(ia), JsonValue::Array(ib)) => {
            if let (Some(ea), Some(eb)) = (ia.first(), ib.first()) {
                assert_same_keys(&format!("{path}[0]"), ea, eb);
            }
        }
        _ => {}
    }
}

/// The uniform rule on live runs: a default serve and one with every
/// feature on render the same keys at every level, and the default run
/// reports the interpreter fast paths it always runs with.
#[test]
fn default_and_all_feature_reports_have_the_same_keys() {
    let default =
        ServeConfig { workers: 1, requests: 8, queue_capacity: 4, seed: 5, ..Default::default() };
    let all_on = ServeConfig {
        mpk_policy: MpkPolicy::Audit,
        tenants: 2,
        tenant_rate: Some(4),
        deadline_ticks: 64,
        admission_wait_ms: Some(1_000),
        record_latency: true,
        ..default.clone()
    };
    let parse = |config| json::parse(&serve(config).expect("serve").to_json()).expect("valid JSON");
    let (plain, full) = (parse(default), parse(all_on));
    assert_same_keys("report", &plain, &full);
    assert_eq!(plain.get("schema").and_then(JsonValue::as_u64), Some(2));
    for counter in ["dispatch_ic_hits", "superinstructions_fused"] {
        let value = plain.get(counter).and_then(JsonValue::as_u64);
        assert!(value > Some(0), "{counter} = {value:?} in the default run");
    }
}

#[test]
fn rejects_degenerate_configs() {
    assert!(matches!(
        serve(ServeConfig { workers: 0, ..ServeConfig::default() }),
        Err(ServeError::Config(_))
    ));
    assert!(matches!(
        serve(ServeConfig { workers: 10_000, ..ServeConfig::default() }),
        Err(ServeError::Config(_))
    ));
    // A fault aimed at a worker slot the pool doesn't have is a config
    // error, not a silently-dead injection.
    assert!(matches!(
        serve(ServeConfig {
            workers: 2,
            faults: FaultPlan::none().with(Fault { worker: 2, kind: FaultKind::Panic, at: 1 }),
            ..ServeConfig::default()
        }),
        Err(ServeError::Config(_))
    ));
}
