//! Exact-repeat string work counters: a deterministic gate on how much
//! string work the served catalog does, independent of timing.
//!
//! The catalog is all ASCII, so resolving a character position must never
//! walk a byte (`length`, `charCodeAt`, `charAt` and `s[i]` index bytes
//! directly), and concatenation writes each result byte exactly once.

use minijs::Value;
use pkru_server::catalog;
use servolite::{Browser, BrowserConfig};
use workloads::micro_page;

fn browser() -> Browser {
    let mut browser = Browser::new(BrowserConfig::Base).expect("browser");
    browser.load_html(micro_page()).expect("page");
    browser
}

#[test]
fn catalog_walks_no_string_bytes() {
    let mut browser = browser();
    for spec in catalog() {
        let value = browser
            .eval_script(&spec.source)
            .and_then(|_| browser.call_script("run", &[]))
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert!(matches!(value, Value::Num(_)), "{}: {value:?}", spec.name);
    }
    let (walked, copied) = browser.engine.string_work();
    assert_eq!(walked, 0, "an all-ASCII catalog walked {walked} string bytes");
    assert!(copied > 0, "the catalog builds strings");
}

#[test]
fn concatenation_copies_each_byte_once() {
    let mut browser = browser();
    let before = browser.engine.string_work();
    let value = browser.eval_script("return 'abc' + 'def';").expect("eval");
    assert!(matches!(value, Value::Str(ref s) if &**s == "abcdef"), "{value:?}");
    let after = browser.engine.string_work();
    assert_eq!(after.0 - before.0, 0, "bytes walked");
    assert_eq!(after.1 - before.1, 6, "bytes copied");
}
