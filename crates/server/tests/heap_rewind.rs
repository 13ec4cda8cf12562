//! The heap rewind on the worker's request path: after every request the
//! engine heap goes back to the checkpoint taken after the page load, so
//! a long-lived worker browser stops growing in `M_U`.

use std::collections::HashMap;

use minijs::{Checkpoint, Rewind, Value};
use pkalloc::{UNTRUSTED_BASE, UNTRUSTED_SPAN};
use pkru_provenance::Profile;
use pkru_server::{catalog, serve, RequestKind, ScriptSpec, ServeConfig, TrafficGen, PAGE_LOAD};
use servolite::{Browser, BrowserConfig};
use workloads::{micro_page, profile_for, Benchmark};

/// Requests replayed on one browser.
const REQUESTS: u64 = 2_400;

fn catalog_profile(catalog: &[ScriptSpec]) -> Profile {
    let benchmarks: Vec<Benchmark> =
        catalog.iter().map(|s| Benchmark::new("serve", "", s.name, s.source.clone(), 1)).collect();
    profile_for(&benchmarks).expect("profile")
}

/// Runs one request as a worker does: the page load's checksum is its new
/// node count, a script's is its `run()` value.
fn run_request(
    browser: &mut Browser,
    catalog: &[ScriptSpec],
    kind: RequestKind,
) -> (&'static str, f64) {
    match kind {
        RequestKind::PageLoad => {
            let before = browser.stats().nodes;
            browser.load_html(micro_page()).expect("page load");
            (PAGE_LOAD, (browser.stats().nodes - before) as f64)
        }
        RequestKind::Script(i) => {
            let spec = &catalog[i];
            let value = browser
                .eval_script(&spec.source)
                .and_then(|_| browser.call_script("run", &[]))
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            match value {
                Value::Num(n) => (spec.name, n),
                other => panic!("{}: {other:?}", spec.name),
            }
        }
    }
}

/// Every request's checksum on a browser that never rewinds.
fn reference(catalog: &[ScriptSpec], profile: &Profile) -> HashMap<&'static str, f64> {
    let mut browser = Browser::with_profile(BrowserConfig::Mpk, Some(profile)).expect("browser");
    browser.load_html(micro_page()).expect("page");
    let kinds =
        std::iter::once(RequestKind::PageLoad).chain((0..catalog.len()).map(RequestKind::Script));
    kinds.map(|kind| run_request(&mut browser, catalog, kind)).collect()
}

/// The object and closure table lengths a checkpoint keeps.
fn kept(cp: &Checkpoint) -> (usize, usize) {
    (cp.objects(), cp.closures())
}

/// `(untrusted wilderness bytes, resident M_U pages, demand pages)`.
fn footprint(browser: &Browser) -> (u64, u64, u64) {
    let heap = browser.machine.alloc.untrusted_heap_stats().expect("split allocator");
    let space = &browser.machine.space;
    let untrusted = space.lock().resident_pages_in(UNTRUSTED_BASE, UNTRUSTED_BASE + UNTRUSTED_SPAN);
    (heap.wilderness_used, untrusted, space.stats().demand_pages)
}

#[test]
fn rewinding_after_every_request_plateaus_the_untrusted_heap() {
    let catalog = catalog();
    let profile = catalog_profile(&catalog);
    let reference = reference(&catalog, &profile);
    let mut browser = Browser::with_profile(BrowserConfig::Mpk, Some(&profile)).expect("browser");
    browser.load_html(micro_page()).expect("page");
    let mut cp = browser.checkpoint();
    let mut unseen: Vec<usize> = (0..catalog.len()).collect();
    let mut plateau = None;
    // Demand pages each kind of request added after the first pass.
    let mut grew: HashMap<&'static str, u64> = HashMap::new();
    for request in TrafficGen::new(0x5eed, REQUESTS, catalog.len()) {
        let before = footprint(&browser);
        let (name, checksum) = run_request(&mut browser, &catalog, request.kind);
        assert_eq!(checksum, reference[name], "request {}: {name}", request.id);
        let rewind = browser.rewind(&mut cp);
        assert!(matches!(rewind, Rewind::Rewound { leaked: 0, .. }), "{name}: {rewind:?}");
        assert_eq!(kept(&browser.checkpoint()), kept(&cp), "request {}: {name}", request.id);
        let after = footprint(&browser);
        match plateau {
            Some(_) => *grew.entry(name).or_default() += after.2 - before.2,
            None => {
                if let RequestKind::Script(i) = request.kind {
                    unseen.retain(|&j| j != i);
                }
                if unseen.is_empty() {
                    plateau = Some(after);
                }
            }
        }
    }
    let (wilderness, untrusted_pages, _) = plateau.expect("every script ran");
    let (wilderness_end, untrusted_pages_end, _) = footprint(&browser);
    assert_eq!(wilderness_end, wilderness, "the untrusted heap grew after the first pass");
    assert_eq!(untrusted_pages_end, untrusted_pages, "M_U pages grew after the first pass");
    // Only trusted DOM work still demand-pages: every page load builds a
    // new tree and never frees the old one, and the first `dom_attr` on
    // each new tree gives its node a new attribute table (the values an
    // overwrite replaces are freed). Every other script adds no page.
    for (name, pages) in &grew {
        if ![PAGE_LOAD, "dom_attr"].contains(name) {
            assert_eq!(*pages, 0, "{name} demand-paged after the first pass");
        }
    }
    assert_eq!(browser.engine.rewind_stats(), (REQUESTS, 0, 0));
}

#[test]
fn serve_rewinds_after_every_request_and_refuses_none() {
    let config = ServeConfig { workers: 2, requests: 96, tenants: 4, ..ServeConfig::default() };
    let report = serve(config).expect("serve");
    assert!(report.clean(), "{}", report.to_json());
    let rewinds: u64 = report.workers.iter().map(|w| w.rewinds).sum();
    let refused: u64 = report.workers.iter().map(|w| w.rewinds_refused).sum();
    let leaks: u64 = report.workers.iter().map(|w| w.rewind_leaks).sum();
    assert_eq!((rewinds, refused, leaks), (report.requests_served, 0, 0));
}
