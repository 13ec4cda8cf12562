//! Overload behaviour: latency percentiles and shed/served curves as the
//! offered load crosses the pool's capacity.
//!
//! Resilience is a *curve*, not a flag: under admission control and
//! request deadlines a saturated pool should keep serving at capacity,
//! shedding the excess as typed rejections and expiries instead of
//! letting queue delay grow without bound. This target measures three
//! phases over the same deterministic catalog:
//!
//! 1. **baseline** — unpaced, unconstrained serving; calibrates the
//!    pool's capacity (requests/second) and records clean-run latency.
//! 2. **overload** — the offered rate is paced to ~2x the calibrated
//!    capacity with bounded-wait admission and a pop-time deadline; the
//!    pool must shed (`rejected + expired > 0`) while every served
//!    response stays checksum-clean and the accounting invariant holds.
//! 3. **fairness** — a Zipf-skewed two-tenant storm under per-tenant
//!    token buckets; the victim tenant's completions are pinned to its
//!    offered share.
//!
//! `--json` emits one row per phase for CI (`BENCH_overload.json`);
//! `--test` shrinks the runs to a smoke pass.

use bench::{header, smoke_mode};
use pkru_provenance::json::JsonValue;
use pkru_server::{serve, LatencySummary, ServeConfig, ServeReport, TrafficShape};

struct Row {
    phase: &'static str,
    offered: u64,
    served: u64,
    expired: u64,
    rejected: u64,
    throughput_rps: f64,
    latency: Option<LatencySummary>,
}

impl Row {
    fn from_report(phase: &'static str, report: &ServeReport) -> Row {
        Row {
            phase,
            offered: report.config.requests,
            served: report.requests_served,
            expired: report.requests_expired,
            rejected: report.requests_rejected,
            throughput_rps: report.throughput_rps,
            latency: report.latency,
        }
    }

    fn shed(&self) -> u64 {
        self.expired + self.rejected
    }

    fn json(&self) -> JsonValue {
        JsonValue::object([
            ("phase", self.phase.into()),
            ("offered", self.offered.into()),
            ("served", self.served.into()),
            ("expired", self.expired.into()),
            ("rejected", self.rejected.into()),
            ("shed", self.shed().into()),
            ("throughput_rps", self.throughput_rps.into()),
            ("latency", self.latency.into()),
        ])
    }
}

/// Every phase must balance the books, whatever it shed.
fn assert_accounted(report: &ServeReport) {
    assert_eq!(
        report.requests_served
            + report.requests_abandoned
            + report.requests_expired
            + report.requests_rejected,
        report.config.requests,
        "lost requests: {report:?}"
    );
    assert_eq!(report.checksum_mismatches, 0, "served responses must stay clean: {report:?}");
    assert!(report.clean(), "unclean phase: {report:?}");
}

fn main() {
    let smoke = smoke_mode();
    let (requests, workers): (u64, usize) = if smoke { (32, 2) } else { (256, 2) };

    // Phase 1: capacity calibration, latency recorded on a clean run.
    let baseline = serve(ServeConfig {
        workers,
        requests,
        queue_capacity: 32,
        seed: 0x5eed,
        record_latency: true,
        ..ServeConfig::default()
    })
    .expect("baseline serve");
    assert_accounted(&baseline);
    assert_eq!(baseline.requests_served, requests, "baseline must serve everything");

    // Phase 2: pace the producer to ~2x the calibrated capacity. The
    // pace is the inter-arrival gap, so 2x capacity = half the gap the
    // pool can actually drain.
    let capacity_rps = baseline.throughput_rps.max(1.0);
    let pace_us = ((1_000_000.0 / capacity_rps) / 2.0).clamp(1.0, 50_000.0) as u64;
    let overload = serve(ServeConfig {
        workers,
        requests,
        queue_capacity: 8,
        seed: 0x5eed,
        deadline_ticks: 12,
        admission_wait_ms: Some(0),
        pace_us,
        record_latency: true,
        ..ServeConfig::default()
    })
    .expect("overload serve");
    assert_accounted(&overload);
    assert!(
        overload.requests_expired + overload.requests_rejected > 0,
        "a 2x-capacity offered rate must shed: {overload:?}"
    );
    assert!(overload.requests_served > 0, "shedding must not starve the pool: {overload:?}");

    // Phase 3: two tenants, Zipf-skewed storm, per-tenant token buckets.
    let fairness = serve(ServeConfig {
        workers,
        requests,
        // Above the victim's whole offered load: only the token bucket
        // (deterministic) can shed the victim, not drain-speed noise.
        queue_capacity: 32,
        seed: 0x5eed,
        tenants: 2,
        tenant_rate: Some(6),
        traffic: TrafficShape::Zipf { s_milli: 3322 },
        pace_us: 500,
        record_latency: true,
        ..ServeConfig::default()
    })
    .expect("fairness serve");
    assert_accounted(&fairness);
    let hot = &fairness.per_tenant[0];
    let victim = &fairness.per_tenant[1];
    assert!(hot.offered > victim.offered, "the Zipf draw must skew");
    if !smoke {
        assert!(hot.rate_limited > 0, "the storm must pay the limiter: {fairness:?}");
        assert!(
            victim.requests * 10 >= victim.offered * 9,
            "victim starved: {} of {} offered: {fairness:?}",
            victim.requests,
            victim.offered
        );
    }

    let rows = [
        Row::from_report("baseline", &baseline),
        Row::from_report("overload", &overload),
        Row::from_report("fairness", &fairness),
    ];

    if std::env::args().any(|a| a == "--json") {
        let report = JsonValue::object([
            ("pace_us", pace_us.into()),
            ("rows", rows.iter().map(Row::json).collect()),
        ]);
        println!("{report}");
    } else {
        header(
            "Overload: shed/served curves and latency under 2x offered load",
            &["phase", "offered", "served", "shed", "rps", "p50 ms", "p99 ms"],
        );
        for r in &rows {
            let (p50, p99) = r.latency.as_ref().map_or((0.0, 0.0), |l| (l.p50_ms, l.p99_ms));
            println!(
                "{}\t{}\t{}\t{}\t{:.1}\t{:.3}\t{:.3}",
                r.phase,
                r.offered,
                r.served,
                r.shed(),
                r.throughput_rps,
                p50,
                p99
            );
        }
    }
}
