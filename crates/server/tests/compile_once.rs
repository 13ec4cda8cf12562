//! Exact compile counters: a deterministic gate on how often the engine
//! parses, independent of timing.
//!
//! A serve worker evaluates a catalog script on every request. The engine
//! keeps the parsed, resolved program of each source, so a script is
//! parsed once per engine; and every name the catalog uses resolves to a
//! bound slot, so no access falls back to a by-name scope walk.

use minijs::Value;
use pkru_server::catalog;
use servolite::{Browser, BrowserConfig, BrowserError};
use workloads::micro_page;

fn browser() -> Browser {
    let mut browser = Browser::new(BrowserConfig::Mpk).expect("browser");
    browser.load_html(micro_page()).expect("page");
    browser
}

/// `(programs parsed, by-name walks)` since `before`.
fn since(browser: &Browser, before: (u64, u64)) -> (u64, u64) {
    let now = browser.engine.compile_stats();
    (now.0 - before.0, now.1 - before.1)
}

#[test]
fn two_catalog_passes_parse_each_script_once_and_walk_no_names() {
    let mut browser = browser();
    let scripts = catalog();
    assert_eq!(scripts.len(), 9);
    let before = browser.engine.compile_stats();
    for pass in 0..2 {
        for spec in &scripts {
            let value = browser
                .eval_script(&spec.source)
                .and_then(|_| browser.call_script("run", &[]))
                .unwrap_or_else(|e| panic!("{} (pass {pass}): {e}", spec.name));
            assert!(matches!(value, Value::Num(_)), "{}: {value:?}", spec.name);
        }
    }
    assert_eq!(since(&browser, before), (9, 0), "(programs parsed, by-name walks)");
}

#[test]
fn the_cache_drops_its_oldest_program_past_64() {
    let mut browser = browser();
    let source = |i: usize| format!("return {i};");
    let before = browser.engine.compile_stats();
    for i in 0..65 {
        let value = browser.eval_script(&source(i)).expect("eval");
        assert!(matches!(value, Value::Num(n) if n == i as f64), "{value:?}");
    }
    assert_eq!(since(&browser, before).0, 65);
    browser.eval_script(&source(64)).expect("newest");
    assert_eq!(since(&browser, before).0, 65, "the newest program is cached");
    let value = browser.eval_script(&source(0)).expect("oldest");
    assert!(matches!(value, Value::Num(n) if n == 0.0), "{value:?}");
    assert_eq!(since(&browser, before).0, 66, "the oldest program was dropped");
}

#[test]
fn a_syntax_error_is_reported_on_every_evaluation() {
    let mut browser = browser();
    let before = browser.engine.compile_stats();
    for _ in 0..3 {
        let err = browser.eval_script("var = 1;").expect_err("a syntax error");
        assert!(matches!(err, BrowserError::Engine(minijs::EngineError::Parse { .. })), "{err:?}");
    }
    assert_eq!(since(&browser, before).0, 3, "a failed parse is never cached");
}
