//! Multi-tenant serving: compartment multiplexing under the supervisor.
//!
//! These tests drive `serve` in tenant mode end to end: tenant-tagged
//! traffic, virtual-key binding (with LRU stealing once tenants
//! outnumber hardware keys), per-tenant quarantine isolation, and the
//! typed key-exhaustion error on the setup path.

use lir::SharedHost;
use pkru_server::{
    build_tenant_registry, serve, Fault, FaultKind, FaultPlan, MpkPolicy, ServeConfig, ServeError,
};

fn tenant_config(tenants: usize, workers: usize, requests: u64) -> ServeConfig {
    ServeConfig {
        workers,
        requests,
        queue_capacity: 16,
        seed: 0xbeef,
        tenants,
        ..ServeConfig::default()
    }
}

/// The tenant-mode happy path: every request is served inside its
/// tenant's compartment, the per-tenant rows account for the whole
/// stream, and the key pool never needs to steal while tenants fit the
/// hardware.
#[test]
fn tenant_serve_accounts_every_request() {
    let report = serve(tenant_config(8, 2, 64)).expect("tenant serve");
    assert!(report.clean(), "tenant run must be clean: {report:?}");
    assert_eq!(report.per_tenant.len(), 8);
    let tenant_requests: u64 = report.per_tenant.iter().map(|t| t.requests).sum();
    let rejected: u64 = report.per_tenant.iter().map(|t| t.rejected).sum();
    assert_eq!(tenant_requests + rejected, 64, "every request belongs to exactly one tenant");
    assert_eq!(rejected, 0, "nothing quarantines in a fault-free enforce run");
    let keys = report.tenant_key_stats.expect("tenant mode reports key stats");
    assert_eq!(keys.binds, 64, "one bind per tenant-tagged request");
    // 8 tenants fit the ≤15 hardware keys: after each tenant's first
    // bind, every later bind is a hit and nothing is ever stolen.
    assert_eq!(keys.evictions, 0);
    assert_eq!(keys.misses, 8);
    assert_eq!(keys.hits, 64 - 8);
    // The JSON carries the per-tenant breakdown in tenant mode.
    let json = report.to_json();
    assert!(json.contains("\"tenants\":8"));
    assert!(json.contains("\"per_tenant\":["));
    assert!(json.contains("\"tenant_keys\":{\"binds\":64"));
}

/// Key pressure: with more tenants than hardware keys, binds steal LRU
/// keys (evictions > 0, pages re-tagged) and the run still serves every
/// request cleanly — the 16-key boundary is a performance fact, not a
/// correctness cliff.
#[test]
fn tenant_pressure_beyond_hardware_keys_stays_clean() {
    let report = serve(tenant_config(24, 2, 96)).expect("pressure serve");
    assert!(report.clean(), "pressure run must be clean: {report:?}");
    assert_eq!(report.per_tenant.len(), 24);
    let tenant_requests: u64 = report.per_tenant.iter().map(|t| t.requests).sum();
    assert_eq!(tenant_requests, 96);
    let keys = report.tenant_key_stats.expect("key stats");
    assert!(keys.evictions > 0, "24 tenants over ≤15 keys must steal: {keys:?}");
    assert!(keys.pages_retagged > 0, "every steal re-tags the victim's pages");
    assert_eq!(keys.binds, keys.hits + keys.misses);
    // One bind per tenant-tagged request, plus one per recorded retry.
    let bind_retries: u64 = report.per_tenant.iter().map(|t| t.bind_retries).sum();
    assert_eq!(keys.binds, 96 + bind_retries, "{keys:?}");
    assert_eq!(keys.revocations, keys.evictions, "every steal is a revocation: {keys:?}");
}

/// Past the hardware budget, doubling the tenant count must steal more
/// keys: pressure grows with the population instead of saturating.
#[test]
fn key_pressure_grows_with_the_tenant_count() {
    let evictions = |tenants| {
        let report = serve(tenant_config(tenants, 1, 96)).expect("pressure serve");
        assert!(report.clean(), "tenants={tenants}: unclean run: {report:?}");
        report.tenant_key_stats.expect("key stats").evictions
    };
    let (at16, at32) = (evictions(16), evictions(32));
    assert!(at32 > at16, "32 tenants stole {at32} keys, 16 tenants {at16}");
}

/// Satellite: over-subscribing hardware keys on the setup path yields
/// the *typed* `KeysExhausted` error — not a panic, not a generic setup
/// fault. This is exactly the path `serve` takes before spawning
/// workers.
#[test]
fn key_exhaustion_on_setup_is_a_typed_error() {
    let host = SharedHost::new();
    // Drain every allocatable key (the host already holds the trusted
    // key) so the registry cannot claim its park key.
    let mut hoard = Vec::new();
    while let Ok(key) = host.pkey_pool().alloc() {
        hoard.push(key);
    }
    let err = build_tenant_registry(&host, 4, MpkPolicy::Enforce)
        .expect_err("no key left for the park key");
    assert!(matches!(err, ServeError::KeysExhausted(_)), "exhaustion must be typed, got: {err:?}");
    for key in hoard {
        host.pkey_pool().free(key).expect("return hoarded key");
    }
    // With keys free again the same call succeeds.
    assert!(build_tenant_registry(&host, 4, MpkPolicy::Enforce).is_ok());
}

/// Per-tenant quarantine isolation: one tenant's tripped breaker
/// condemns *that tenant* (its later requests are rejected) while the
/// worker survives and every other tenant keeps serving.
#[test]
fn quarantined_tenant_is_rejected_while_neighbours_flow() {
    let config = ServeConfig {
        faults: FaultPlan::none().with(Fault { worker: 0, kind: FaultKind::PkeyViolation, at: 2 }),
        tenant_policy: MpkPolicy::Quarantine { threshold: 1 },
        ..tenant_config(3, 1, 48)
    };
    let report = serve(config).expect("quarantine tenant serve");
    assert!(report.clean(), "rejections are not errors: {report:?}");
    assert_eq!(report.workers_restarted, 0, "the worker must survive a tenant's breaker");
    let quarantined: Vec<_> = report.per_tenant.iter().filter(|t| t.quarantined).collect();
    assert_eq!(quarantined.len(), 1, "exactly one tenant trips: {:?}", report.per_tenant);
    assert!(quarantined[0].violations_quarantined >= 1);
    // The other tenants never saw a rejection.
    for t in &report.per_tenant {
        if !t.quarantined {
            assert_eq!(t.rejected, 0, "isolation leak: {t:?}");
            assert!(t.requests > 0, "neighbours must keep serving: {t:?}");
        }
    }
    let tenant_requests: u64 = report.per_tenant.iter().map(|t| t.requests).sum();
    let rejected: u64 = report.per_tenant.iter().map(|t| t.rejected).sum();
    assert_eq!(tenant_requests + rejected, 48);
}
