//! Heap rewind at browser level: listener callbacks are roots, and a
//! request that faults is rewound like any other.

use std::sync::Arc;

use minijs::{Refusal, Rewind, Root, Value};
use pkru_handler::{MpkPolicy, ViolationHandler};
use servolite::{Browser, BrowserConfig, DispatchOptions};

const PAGE: &str = r#"<div id="main"><p id="para">Hello</p></div>"#;

#[test]
fn rewind_refuses_a_listener_registered_after_the_checkpoint() {
    let mut b = Browser::new(BrowserConfig::Base).unwrap();
    b.load_html(PAGE).unwrap();
    let mut cp = b.checkpoint();
    b.eval_script(
        "var hits = 0; document.getElementById('para')\
         .addEventListener('click', function(ev) { hits += 1; });",
    )
    .unwrap();
    assert_eq!(b.rewind(&mut cp), Rewind::Refused(Refusal::Escaped(Root::Embedder)));
    // The listener's closure survived the refusal and still runs.
    let fired = b.eval_script("return document.getElementById('para').dispatchEvent('click');");
    assert!(matches!(fired.unwrap(), Value::Num(n) if n == 1.0));
    // Promoted: the next request reclaims as usual.
    b.eval_script("var scratch = [1, 2, 3];").unwrap();
    assert!(matches!(b.rewind(&mut cp), Rewind::Rewound { objects: 2, .. }));
    assert_eq!(b.engine.rewind_stats(), (1, 1, 0));
}

/// A script that allocates, then reads a DOM node's trusted field from
/// inside the compartment (no profile, so every node stays in `M_T`).
const FAULTING: &str = "var junk = []; for (var i = 0; i < 30; i++) junk.push({i: i}); \
                        return document.getElementById('para').childCount;";

#[test]
fn rewind_after_a_faulting_request_under_audit_and_enforce() {
    for policy in [MpkPolicy::Audit, MpkPolicy::Enforce] {
        let handler = Arc::new(ViolationHandler::new(policy, 0));
        let mut b = Browser::with_dispatch(
            BrowserConfig::Mpk,
            None,
            None,
            Some(Arc::clone(&handler)),
            true,
            DispatchOptions::default(),
        )
        .unwrap();
        b.load_html(PAGE).unwrap();
        let mut cp = b.checkpoint();
        let result = b.eval_script(FAULTING);
        match policy {
            // Audit single-steps the violation: the script completes.
            MpkPolicy::Audit => {
                assert!(matches!(result, Ok(Value::Num(_))), "{result:?}");
                assert!(handler.counters().audited >= 1);
            }
            _ => assert!(result.unwrap_err().is_pkey_violation()),
        }
        let rewind = b.rewind(&mut cp);
        assert!(matches!(rewind, Rewind::Rewound { objects: 31, leaked: 0, .. }), "{rewind:?}");
        let now = b.checkpoint();
        assert_eq!((now.objects(), now.closures()), (cp.objects(), cp.closures()), "{policy:?}");
    }
}
