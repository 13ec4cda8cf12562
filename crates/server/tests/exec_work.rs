//! Exact evaluator counters: a deterministic gate on how much work the
//! engine does per catalog script, independent of timing.
//!
//! Steps are the engine's clock: one per statement and expression node
//! run. The typed evaluation paths tick exactly as the generic one, so
//! each script's step count is pinned to the value the generic evaluator
//! gave. Finished call and scope frames are pooled, so once a first pass
//! has filled the pool, a second pass takes no frame from the allocator.
//! A step budget that runs out stops a script exactly one tick past it,
//! and leaves the browser able to run the script again in full.

use minijs::{EngineError, ExecStats, Value};
use pkru_server::catalog;
use servolite::{Browser, BrowserConfig, BrowserError};
use workloads::micro_page;

/// Steps per catalog script (`eval_script` + `call_script("run")`).
const STEPS: [(&str, u64); 9] = [
    ("fft", 57_015),
    ("sha_like", 136_152),
    ("json", 1_056),
    ("matmul", 31_663),
    ("dom_query", 427),
    ("dom_attr", 471),
    ("splay", 57_824),
    ("string_codec", 10_573),
    ("parser_stress", 106_680),
];

fn browser() -> Browser {
    let mut browser = Browser::new(BrowserConfig::Mpk).expect("browser");
    browser.load_html(micro_page()).expect("page");
    browser
}

/// Runs the catalog once, returning each script's name and counters.
fn catalog_pass(browser: &mut Browser) -> Vec<(&'static str, ExecStats)> {
    catalog()
        .iter()
        .map(|spec| {
            let before = browser.engine.exec_stats();
            let value = browser
                .eval_script(&spec.source)
                .and_then(|_| browser.call_script("run", &[]))
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(matches!(value, Value::Num(_)), "{}: {value:?}", spec.name);
            let after = browser.engine.exec_stats();
            let work = ExecStats {
                steps: after.steps - before.steps,
                calls: after.calls - before.calls,
                fresh_frames: after.fresh_frames - before.fresh_frames,
            };
            (spec.name, work)
        })
        .collect()
}

#[test]
fn a_second_catalog_pass_takes_the_pinned_steps_and_no_fresh_frame() {
    let mut browser = browser();
    let first = catalog_pass(&mut browser);
    assert!(first.iter().any(|(_, w)| w.fresh_frames > 0), "the first pass fills the pool");
    let second = catalog_pass(&mut browser);
    let steps: Vec<(&str, u64)> = second.iter().map(|(name, w)| (*name, w.steps)).collect();
    assert_eq!(steps, STEPS, "steps per script");
    for (name, work) in &second {
        assert_eq!(work.fresh_frames, 0, "{name}: fresh frames on the second pass");
    }
    let calls: u64 = second.iter().map(|(_, w)| w.calls).sum();
    assert!(calls > 0, "the catalog calls closures");
    let first_calls: Vec<u64> = first.iter().map(|(_, w)| w.calls).collect();
    let second_calls: Vec<u64> = second.iter().map(|(_, w)| w.calls).collect();
    assert_eq!(first_calls, second_calls, "closure calls repeat exactly");
}

#[test]
fn a_captured_frame_is_never_pooled() {
    let mut browser = browser();
    browser
        .eval_script("function counter() { var n = 0; return function() { n++; return n; }; }")
        .expect("define");
    let before = browser.engine.exec_stats();
    for round in 1..=3 {
        let value = browser
            .eval_script("var c = counter(); c(); return c();")
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert!(matches!(value, Value::Num(n) if n == 2.0), "round {round}: {value:?}");
    }
    let after = browser.engine.exec_stats();
    assert_eq!(after.calls - before.calls, 9, "three calls a round");
    // Each round's `counter` frame stays with its closure and never comes
    // back, so every round allocates one frame: in the first round for
    // `counter` and for `c` (the pool is empty), then only for `c`, whose
    // frames do come back.
    assert_eq!(after.fresh_frames - before.fresh_frames, 4, "fresh frames");
}

/// Budgets per script, spread from none at all to one step short.
const BUDGETS: u64 = 8;

#[test]
fn a_spent_budget_stops_each_script_one_tick_past_it() {
    let mut browser = browser();
    let reference: Vec<Value> = catalog()
        .iter()
        .map(|spec| {
            browser
                .eval_script(&spec.source)
                .and_then(|_| browser.call_script("run", &[]))
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name))
        })
        .collect();
    for ((spec, &(name, steps)), expected) in catalog().iter().zip(&STEPS).zip(&reference) {
        assert_eq!(spec.name, name);
        for k in 0..BUDGETS {
            let fuel = (steps - 1) * k / (BUDGETS - 1);
            browser.engine.set_fuel(fuel);
            let before = browser.engine.exec_stats().steps;
            let result =
                browser.eval_script(&spec.source).and_then(|_| browser.call_script("run", &[]));
            assert!(
                matches!(result, Err(BrowserError::Engine(EngineError::Fuel))),
                "{name} with {fuel} steps: {result:?}"
            );
            // `tick` moves the clock before it checks the budget.
            let ticks = browser.engine.exec_stats().steps - before;
            assert_eq!(ticks, fuel + 1, "{name} with {fuel} steps");
        }
        browser.engine.set_fuel(u64::MAX);
        let before = browser.engine.exec_stats().steps;
        let value = browser
            .eval_script(&spec.source)
            .and_then(|_| browser.call_script("run", &[]))
            .unwrap_or_else(|e| panic!("{name} after its budgets: {e}"));
        assert_eq!(browser.engine.exec_stats().steps - before, steps, "{name} after its budgets");
        assert_eq!(format!("{value:?}"), format!("{expected:?}"), "{name} after its budgets");
    }
}
