//! Heap rewind: what goes back, what is kept, and every way a rewind
//! refuses instead of leaving a handle dangling.

use lir::{FaultPolicy, Machine};
use minijs::{Checkpoint, Engine, EngineError, Refusal, Rewind, Root, Value};

fn setup() -> (Machine, Engine) {
    let mut machine = Machine::split(FaultPolicy::Crash).unwrap();
    let engine = Engine::new(&mut machine).unwrap();
    (machine, engine)
}

fn eval(machine: &mut Machine, engine: &mut Engine, src: &str) -> Value {
    engine.eval(machine, src).unwrap_or_else(|e| panic!("{src}: {e}"))
}

fn num(value: Value) -> f64 {
    match value {
        Value::Num(n) => n,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// The object and closure table lengths a checkpoint keeps.
fn kept(cp: &Checkpoint) -> (usize, usize) {
    (cp.objects(), cp.closures())
}

fn wilderness(machine: &Machine) -> u64 {
    machine.alloc.untrusted_heap_stats().expect("split allocator").wilderness_used
}

#[test]
fn rewind_drops_new_objects_and_restores_the_globals() {
    let (mut m, mut e) = setup();
    eval(&mut m, &mut e, "var keep = {a: 1}; var n = 5;");
    let mut cp = e.checkpoint();
    let before = kept(&cp);
    let request = "var t = [1, 2, 3]; n = 6; var fresh = {b: t}; function f() { return 1; }";
    eval(&mut m, &mut e, request);
    let rewind = e.rewind(&mut m, &mut cp, []);
    // Two objects, one closure; the array's elements and the object's
    // property slots go back to the allocator.
    assert_eq!(rewind, Rewind::Rewound { objects: 2, closures: 1, freed: 2, leaked: 0 });
    assert_eq!(kept(&e.checkpoint()), before);
    assert_eq!(num(e.global("n").unwrap()), 5.0);
    for name in ["t", "fresh", "f"] {
        assert!(e.global(name).is_none(), "{name} is still bound");
    }
    assert_eq!(num(eval(&mut m, &mut e, "return keep.a;")), 1.0);
    // The same request again reuses the freed chunks.
    let grown = wilderness(&m);
    for _ in 0..20 {
        eval(&mut m, &mut e, request);
        assert!(matches!(e.rewind(&mut m, &mut cp, []), Rewind::Rewound { .. }));
    }
    assert_eq!(wilderness(&m), grown);
    assert_eq!(e.rewind_stats(), (21, 0, 0));
}

#[test]
fn rewind_refuses_and_promotes_when_an_old_object_holds_a_new_handle() {
    let (mut m, mut e) = setup();
    eval(&mut m, &mut e, "var keep = {}; var list = [];");
    let mut cp = e.checkpoint();
    eval(&mut m, &mut e, "keep.child = {x: 7};");
    let rewind = e.rewind(&mut m, &mut cp, []);
    assert!(matches!(rewind, Rewind::Refused(Refusal::Escaped(Root::Object(_)))), "{rewind:?}");
    // Promoted: nothing was dropped, and the checkpoint is the present.
    assert_eq!(kept(&cp), kept(&e.checkpoint()));
    assert_eq!(num(eval(&mut m, &mut e, "return keep.child.x;")), 7.0);
    // An element escapes the same way.
    eval(&mut m, &mut e, "list.push(function() { return 1; });");
    let rewind = e.rewind(&mut m, &mut cp, []);
    assert!(matches!(rewind, Rewind::Refused(Refusal::Escaped(Root::Object(_)))), "{rewind:?}");
    assert_eq!(num(eval(&mut m, &mut e, "return list[0]();")), 1.0);
    // Later requests reclaim again.
    eval(&mut m, &mut e, "var tmp = [keep.child.x];");
    assert!(matches!(e.rewind(&mut m, &mut cp, []), Rewind::Rewound { objects: 1, .. }));
    assert_eq!(e.rewind_stats(), (1, 2, 0));
}

#[test]
fn a_handle_popped_from_an_old_array_is_never_read_back() {
    let (mut m, mut e) = setup();
    eval(&mut m, &mut e, "var keep = [1, 2];");
    let mut cp = e.checkpoint();
    eval(&mut m, &mut e, "keep.push({secret: 1}); keep.pop();");
    assert!(matches!(e.rewind(&mut m, &mut cp, []), Rewind::Rewound { objects: 1, .. }));
    // The next request's object takes the dropped slot; raising the
    // length shows what the pop left behind: nothing.
    let seen = eval(&mut m, &mut e, "var o = {secret: 2}; keep.length = 3; return keep[2];");
    assert!(matches!(seen, Value::Undefined), "{seen:?}");
}

#[test]
fn rewind_scans_an_old_array_past_its_length() {
    let (mut m, mut e) = setup();
    eval(&mut m, &mut e, "var keep = [1, 2];");
    let mut cp = e.checkpoint();
    // The length bug: a length past the capacity bounds nothing, so the
    // shrink back leaves the new object's handle past the length.
    eval(&mut m, &mut e, "keep.push({secret: 1}); keep.length = 1e6; keep.length = 2;");
    let rewind = e.rewind(&mut m, &mut cp, []);
    assert!(matches!(rewind, Rewind::Refused(Refusal::Escaped(Root::Object(_)))), "{rewind:?}");
    let seen = eval(&mut m, &mut e, "keep.length = 3; return keep[2].secret;");
    assert_eq!(num(seen), 1.0);
}

#[test]
fn an_old_array_grown_into_a_reused_chunk_does_not_refuse() {
    let (mut m, mut e) = setup();
    eval(&mut m, &mut e, "var keep = [];");
    let mut cp = e.checkpoint();
    // Freed buffers full of handles to objects the rewind dropped.
    eval(&mut m, &mut e, "var t = []; for (var i = 0; i < 64; i++) t.push({i: i});");
    assert!(matches!(e.rewind(&mut m, &mut cp, []), Rewind::Rewound { .. }));
    // The old array's new buffer comes from those chunks; the part past
    // the copied elements is cleared, so the scan finds no handle.
    eval(&mut m, &mut e, "for (var i = 0; i < 40; i++) keep.push(i); var x = {};");
    assert!(matches!(e.rewind(&mut m, &mut cp, []), Rewind::Rewound { objects: 1, .. }));
    assert_eq!(num(eval(&mut m, &mut e, "keep.length = 60; return keep[39];")), 39.0);
    let tail = eval(&mut m, &mut e, "return keep[59];");
    assert!(matches!(tail, Value::Undefined), "{tail:?}");
}

#[test]
fn rewind_counts_a_buffer_whose_chunk_tag_was_overwritten_as_leaked() {
    let (mut m, mut e) = setup();
    let mut cp = e.checkpoint();
    let Value::Obj(h) = eval(&mut m, &mut e, "return [1, 2];") else { panic!("array expected") };
    // The chunk's header sits before the `[len][cap]` array header;
    // forge a size that ends past the carved heap.
    let header = e.heap_mut().elems_base(h).unwrap() - 16 - 8;
    m.mem_write(header, (1 << 40) | 1).unwrap();
    let rewind = e.rewind(&mut m, &mut cp, []);
    assert_eq!(rewind, Rewind::Rewound { objects: 1, closures: 0, freed: 0, leaked: 1 });
    assert_eq!(e.rewind_stats(), (1, 0, 1));
}

#[test]
fn rewind_refuses_and_promotes_when_an_old_frame_holds_a_new_handle() {
    let (mut m, mut e) = setup();
    let setup = "var hold = (function() { var held = 0; \
                 return function(v) { if (v != undefined) held = v; return held; }; })();";
    eval(&mut m, &mut e, setup);
    let mut cp = e.checkpoint();
    eval(&mut m, &mut e, "hold(3);");
    assert!(matches!(e.rewind(&mut m, &mut cp, []), Rewind::Rewound { .. }));
    eval(&mut m, &mut e, "hold({v: 9});");
    let rewind = e.rewind(&mut m, &mut cp, []);
    assert!(matches!(rewind, Rewind::Refused(Refusal::Escaped(Root::Closure(_)))), "{rewind:?}");
    assert_eq!(num(eval(&mut m, &mut e, "return hold().v;")), 9.0);
}

#[test]
fn rewind_refuses_a_new_handle_the_embedder_holds() {
    let (mut m, mut e) = setup();
    let mut cp = e.checkpoint();
    let held = eval(&mut m, &mut e, "return [1];");
    let rewind = e.rewind(&mut m, &mut cp, [&held]);
    assert_eq!(rewind, Rewind::Refused(Refusal::Escaped(Root::Embedder)));
}

#[test]
fn rewind_handles_kept_across_it_are_stale() {
    let (mut m, mut e) = setup();
    let mut cp = e.checkpoint();
    let obj = eval(&mut m, &mut e, "return {p: 7};");
    let fun = eval(&mut m, &mut e, "return function() { return 7; };");
    assert!(matches!(e.rewind(&mut m, &mut cp, []), Rewind::Rewound { .. }));
    // New values take the same slots, one generation later.
    eval(&mut m, &mut e, "var o = {p: 99}; var g = function() { return 99; };");
    let (Value::Obj(h), Value::Obj(now)) = (&obj, e.global("o").unwrap()) else {
        panic!("objects expected")
    };
    assert_eq!(h.index(), now.index());
    assert_eq!(h.generation() + 1, now.generation());
    let err = e.heap_mut().prop_get(&mut m, *h, "p").unwrap_err();
    assert!(matches!(err, EngineError::StaleHandle("object")), "{err}");
    // Script sees the error too, never the object in the reused slot.
    e.set_global("old", obj);
    e.set_global("oldf", fun);
    let err = e.eval(&mut m, "return old.p;").unwrap_err();
    assert!(matches!(err, EngineError::StaleHandle("object")), "{err}");
    let err = e.call(&mut m, "oldf", &[]).unwrap_err();
    assert!(matches!(err, EngineError::StaleHandle("function")), "{err}");
    let err = e.eval(&mut m, "return oldf();").unwrap_err();
    assert!(matches!(err, EngineError::StaleHandle("function")), "{err}");
    assert_eq!(num(e.call(&mut m, "g", &[]).unwrap()), 99.0);
}

#[test]
fn rewind_under_the_untrusted_pkru_touches_no_trusted_page() {
    let (mut m, mut e) = setup();
    let secret = m.alloc.alloc(64).unwrap();
    m.mem_write(secret, 42).unwrap();
    eval(&mut m, &mut e, "var keep = {list: [1, 2], name: 'k'};");
    let mut cp = e.checkpoint();
    eval(
        &mut m,
        &mut e,
        "var junk = []; for (var i = 0; i < 40; i++) junk.push({i: i, s: 'x' + i});",
    );
    m.gates.enter_untrusted(&mut m.cpu).unwrap();
    // The rights really are the untrusted ones: `M_T` faults.
    let read = m.mem_read(secret);
    assert!(matches!(&read, Err(lir::Trap::Fault(f)) if f.is_pkey_violation()), "{read:?}");
    let rewind = e.rewind(&mut m, &mut cp, []);
    m.gates.exit_untrusted(&mut m.cpu).unwrap();
    assert_eq!(rewind, Rewind::Rewound { objects: 41, closures: 0, freed: 41, leaked: 0 });
    assert_eq!(m.gates.transitions(), 2, "the rewind crossed no gate of its own");
}
