//! Determinism self-test: a run is a pure function of its seed.
//!
//! The same seed gives the same op stream, the same checksums and the
//! same exact-repeat counts; a different seed gives a different stream.
//! The program receives only inputs generated from the seed: every
//! workload input below is built from the seed and the benchmark's own
//! constants.

use perfbench::{dom, lir, serve, Workload, E2E, LAYERS};
use pkru_server::{catalog, Request, ServeConfig, TrafficGen};

/// The dom-session results of a short session: per-op result bits, gate
/// transitions, and ops that disagreed with the ungated reference.
fn dom_session(seed: u64) -> (Vec<dom::Op>, Vec<u64>, u64, u64) {
    let scripts = dom::scripts();
    let ops = dom::op_stream(seed, 0, scripts.len(), 96);
    let mut session = dom::setup(&scripts, None).expect("dom set-up");
    let transitions0 = session.mpk.stats().transitions;
    let results: Vec<_> =
        ops.iter().map(|&op| dom::run_op(&mut session.mpk, op, &scripts)).collect();
    let transitions = session.mpk.stats().transitions - transitions0;
    let failed = dom::check(&mut session.base, &ops, &results, &scripts);
    let bits = results.iter().map(|r| r.as_ref().expect("op runs").to_bits()).collect();
    (ops, bits, transitions, failed)
}

#[test]
fn dom_session_repeats_exactly_per_seed() {
    let a = dom_session(3);
    let b = dom_session(3);
    assert_eq!(a, b, "same seed, same ops, checksums and gates.transitions");
    assert_eq!(a.3, 0, "every op matches the Base reference browser");
    assert!(a.2 > 0);
    let c = dom_session(4);
    assert_ne!(a.0, c.0, "a different seed gives a different op stream");
    // Rounds of one run draw different streams too.
    assert_ne!(dom::op_stream(3, 0, 10, 96), dom::op_stream(3, 1, 10, 96));
}

#[test]
fn lir_runs_repeat_exactly_per_seed() {
    assert_eq!(lir::op_stream(9, 0, 40), lir::op_stream(9, 0, 40));
    assert_ne!(lir::op_stream(9, 0, 40), lir::op_stream(10, 0, 40));
    let built = lir::setup().expect("pipeline builds");
    for (program, b) in lir::PROGRAMS.iter().zip(&built) {
        let (r1, m1) = b.app.run("main", &[]);
        let (r2, m2) = b.app.run("main", &[]);
        assert!(lir::run_ok(b, &r1, &m1), "{}: matches its trusted twin", program.name);
        assert_eq!(r1.expect("runs"), r2.expect("runs"));
        assert_eq!(m1.gates.transitions(), m2.gates.transitions(), "gates.transitions_per_op");
        assert_eq!(m1.instret, m2.instret, "lir.instret_per_op");
        assert_eq!(m1.fused_ops, m2.fused_ops, "lir.fused_ops_per_op");
    }
}

#[test]
fn serve_counts_repeat_exactly_with_one_worker() {
    let run = |seed| {
        let report = pkru_server::serve(ServeConfig { requests: 48, ..serve::config(seed) })
            .expect("serve runs");
        assert!(serve::problems(&report).is_empty(), "{:?}", serve::problems(&report));
        assert_eq!(serve::failed_requests(&report), 0);
        let retries: Vec<u64> = report.per_tenant.iter().map(|t| t.bind_retries).collect();
        (report.tenant_key_stats.expect("tenant mode"), retries, report.transitions)
    };
    let seed = serve::round_seed(5, 0);
    let (keys_a, retries_a, transitions_a) = run(seed);
    let (keys_b, retries_b, transitions_b) = run(seed);
    // The one-worker tenant.* counts and gates.transitions repeat exactly.
    assert_eq!(keys_a, keys_b);
    assert_eq!(retries_a, retries_b);
    assert_eq!(transitions_a, transitions_b);

    let stream = |seed| -> Vec<Request> {
        TrafficGen::with_tenants(seed, 64, catalog().len(), serve::TENANTS).collect()
    };
    assert_eq!(stream(seed), stream(seed));
    assert_ne!(stream(seed), stream(serve::round_seed(6, 0)));
    assert_ne!(serve::round_seed(5, 0), serve::round_seed(5, 1));
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in E2E.iter().chain(LAYERS.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())), "{}", w.name());
    }
    let declared = json.matches("\"name\":").count();
    assert_eq!(declared, E2E.len() + LAYERS.len() + Workload::ALL.len());
}
