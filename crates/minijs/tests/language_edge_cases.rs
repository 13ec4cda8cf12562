//! Language-semantics edge cases for the engine.

use lir::{FaultPolicy, Machine};
use minijs::{Engine, EngineError, Value};

fn setup() -> (Machine, Engine) {
    let mut machine = Machine::split(FaultPolicy::Crash).unwrap();
    let engine = Engine::new(&mut machine).unwrap();
    (machine, engine)
}

fn eval(src: &str) -> Value {
    let (mut machine, mut engine) = setup();
    engine.eval(&mut machine, src).unwrap()
}

fn eval_num(src: &str) -> f64 {
    match eval(src) {
        Value::Num(n) => n,
        other => panic!("expected number, got {other:?}"),
    }
}

fn eval_str(src: &str) -> String {
    match eval(src) {
        Value::Str(s) => s.to_string(),
        other => panic!("expected string, got {other:?}"),
    }
}

#[test]
fn nan_and_infinity_semantics() {
    assert!(eval_num("return 0 / 0;").is_nan());
    assert_eq!(eval_num("return 1 / 0;"), f64::INFINITY);
    assert_eq!(eval_num("return -1 / 0;"), f64::NEG_INFINITY);
    // NaN != NaN.
    assert!(matches!(eval("var n = 0/0; return n == n;"), Value::Bool(false)));
    assert!(matches!(eval("return isNaN(0/0);"), Value::Bool(true)));
}

#[test]
fn string_number_coercions() {
    assert_eq!(eval_str("return '' + 1.5;"), "1.5");
    assert_eq!(eval_str("return '' + 3;"), "3");
    assert_eq!(eval_num("return +'42';"), 42.0);
    assert_eq!(eval_num("return +'  7  ';"), 7.0);
    assert_eq!(eval_num("return +'';"), 0.0);
    assert!(eval_num("return +'x';").is_nan());
    assert_eq!(eval_num("return +'0x10';"), 16.0);
    assert_eq!(eval_num("return '5' - 2;"), 3.0);
    assert_eq!(eval_str("return '5' + 2;"), "52");
}

#[test]
fn comparison_mixes() {
    assert!(matches!(eval("return 'abc' < 'abd';"), Value::Bool(true)));
    assert!(matches!(eval("return 'b' > 'a';"), Value::Bool(true)));
    assert!(matches!(eval("return null == undefined;"), Value::Bool(true)));
    assert!(matches!(eval("return null == 0;"), Value::Bool(false)));
    assert!(matches!(eval("return [1] == [1];"), Value::Bool(false)), "reference equality");
    assert!(matches!(eval("var a = [1]; var b = a; return a == b;"), Value::Bool(true)));
}

#[test]
fn increment_decrement_forms() {
    assert_eq!(eval_num("var x = 5; var a = x++; return a * 100 + x;"), 506.0);
    assert_eq!(eval_num("var x = 5; var a = ++x; return a * 100 + x;"), 606.0);
    assert_eq!(eval_num("var x = 5; var a = x--; return a * 100 + x;"), 504.0);
    assert_eq!(eval_num("var a = [3]; a[0]++; ++a[0]; return a[0];"), 5.0);
    assert_eq!(eval_num("var o = {n: 1}; o.n++; return o.n;"), 2.0);
}

#[test]
fn compound_assignment_on_all_targets() {
    assert_eq!(eval_num("var x = 8; x <<= 2; x |= 1; x ^= 2; x >>= 1; return x;"), 17.0);
    assert_eq!(eval_num("var a = [10]; a[0] %= 3; return a[0];"), 1.0);
    assert_eq!(eval_num("var o = {v: 2}; o.v *= 21; return o.v;"), 42.0);
}

#[test]
fn logical_operators_return_operands() {
    assert_eq!(eval_num("return 0 || 7;"), 7.0);
    assert_eq!(eval_num("return 3 && 9;"), 9.0);
    assert!(matches!(eval("return null && crash_if_evaluated;"), Value::Null));
    assert_eq!(eval_num("return 1 || crash_if_evaluated;"), 1.0);
}

#[test]
fn closures_over_loop_variables_share_function_scope() {
    // `var` has function scope: both closures see the final value.
    assert_eq!(
        eval_num(
            r#"
var fns = [];
function make() {
  for (var i = 0; i < 3; i++) {
    fns.push(function() { return i; });
  }
}
make();
return fns[0]() + fns[2]();
"#
        ),
        // The for-init scope is shared across iterations.
        6.0
    );
}

#[test]
fn shadowing_in_nested_blocks() {
    assert_eq!(
        eval_num(
            r#"
var x = 1;
{
  var x = 2;
  { var x = 3; }
}
function f() { var x = 10; return x; }
return x * 100 + f();
"#,
        ),
        // Block-scoped declarations shadow within their block.
        110.0
    );
}

#[test]
fn arguments_default_to_undefined() {
    assert!(matches!(eval("function f(a, b) { return b; } return f(1);"), Value::Undefined));
    // Extra arguments are dropped.
    assert_eq!(eval_num("function f(a) { return a; } return f(9, 8, 7);"), 9.0);
}

#[test]
fn this_binding_in_methods_and_bare_calls() {
    assert_eq!(eval_num("var o = {v: 5, m: function() { return this.v; }}; return o.m();"), 5.0);
    assert!(matches!(eval("function f() { return this; } return f();"), Value::Undefined));
    // Method extracted and called bare loses `this`.
    let (mut machine, mut engine) = setup();
    let result = engine.eval(
        &mut machine,
        "var o = {v: 5, m: function() { return this.v; }}; var f = o.m; return f();",
    );
    assert!(matches!(result, Err(EngineError::Type(_))), "{result:?}");
}

#[test]
fn array_holes_read_as_undefined() {
    // Sparse writes fill the intervening holes with `undefined`, never
    // with stale heap bytes.
    assert_eq!(eval_num("var a = []; a[3] = 9; return a.length;"), 4.0);
    assert!(matches!(eval("var a = []; a[3] = 9; return a[1];"), Value::Undefined));
    assert_eq!(eval_num("var a = []; a[100] = 1; var n = 0; for (var i = 0; i < 100; i++) if (a[i] == undefined) n++; return n;"), 100.0);
}

#[test]
fn negative_and_fractional_indices() {
    assert!(matches!(eval("var a = [1]; return a[-1];"), Value::Undefined));
    assert!(matches!(eval("var a = [1, 2]; return a[0.5];"), Value::Undefined));
    let (mut machine, mut engine) = setup();
    let result = engine.eval(&mut machine, "var a = [1]; a[-2] = 5;");
    assert!(matches!(result, Err(EngineError::Range(_))));
}

#[test]
fn string_indexing_and_objects_with_numeric_keys() {
    assert_eq!(eval_str("return 'hello'[0];"), "h");
    assert!(matches!(eval("return 'hi'[9];"), Value::Undefined));
    assert_eq!(eval_num("var o = {}; o[12] = 3; return o[12];"), 3.0);
}

#[test]
fn deeply_nested_expressions_parse() {
    let mut expr = String::from("1");
    for _ in 0..60 {
        expr = format!("({expr} + 1)");
    }
    assert_eq!(eval_num(&format!("return {expr};")), 61.0);
}

#[test]
fn comments_and_whitespace_everywhere() {
    assert_eq!(
        eval_num("// lead\nvar x /* mid */ = /* also */ 4; /* trail */ return x; // end"),
        4.0
    );
}

#[test]
fn shift_counts_wrap_mod_32() {
    assert_eq!(eval_num("return 1 << 32;"), 1.0);
    assert_eq!(eval_num("return 1 << 33;"), 2.0);
    assert_eq!(eval_num("return 256 >> 40;"), 1.0);
}

#[test]
fn json_rejects_garbage() {
    let (mut machine, mut engine) = setup();
    for bad in ["JSON.parse('{')", "JSON.parse('[1,')", "JSON.parse('tru')", "JSON.parse('1 2')"] {
        let result = engine.eval(&mut machine, &format!("return {bad};"));
        assert!(matches!(result, Err(EngineError::Type(_))), "{bad}: {result:?}");
    }
}

#[test]
fn engine_state_persists_across_evals() {
    let (mut machine, mut engine) = setup();
    engine.eval(&mut machine, "var counter = 0; function bump() { counter += 1; }").unwrap();
    engine.eval(&mut machine, "bump(); bump();").unwrap();
    let v = engine.eval(&mut machine, "return counter;").unwrap();
    assert!(matches!(v, Value::Num(n) if n == 2.0));
}

#[test]
fn reentrant_natives_via_callbacks() {
    let (mut machine, mut engine) = setup();
    engine.register_native(
        "apply",
        std::rc::Rc::new(|ctx, _this, args| {
            let f = args.first().cloned().unwrap_or(Value::Undefined);
            let x = args.get(1).cloned().unwrap_or(Value::Undefined);
            ctx.call_value(&f, Value::Undefined, &[x])
        }),
    );
    // The native reenters itself through the script callback.
    let v = engine
        .eval(
            &mut machine,
            r#"
function inner(x) { return x * 2; }
function outer(x) { return apply(inner, x) + 1; }
return apply(outer, 10);
"#,
        )
        .unwrap();
    assert!(matches!(v, Value::Num(n) if n == 21.0));
}

#[test]
fn fuel_is_shared_across_nested_calls() {
    let (mut machine, mut engine) = setup();
    engine.set_fuel(2_000);
    let result = engine.eval(
        &mut machine,
        "function f(n) { if (n == 0) return 0; return f(n - 1) + f(n - 1); } return f(20);",
    );
    assert!(matches!(result, Err(EngineError::Fuel)), "{result:?}");
}

// ---- dynamic-scope rules (pinned before names became interned symbols) ----

#[test]
fn var_inside_if_lands_in_the_function_scope() {
    // `if` bodies run in the enclosing scope, so the inner `var` binds in
    // `f`'s scope when it runs and is invisible when it does not.
    assert_eq!(
        eval_num(
            "var x = 1; function f(c) { if (c) { var x = 2; } return x; } \
             return f(false) * 10 + f(true);"
        ),
        12.0
    );
}

#[test]
fn reading_before_a_var_sees_the_outer_binding() {
    // No hoisting of `var`: until the declaration runs, the name resolves
    // up the chain.
    assert_eq!(
        eval_num("var x = 1; function f() { var y = x; var x = 2; return y; } return f();"),
        1.0
    );
}

#[test]
fn var_in_a_bare_block_stays_in_the_block() {
    assert_eq!(eval_num("var x = 1; { var x = 2; } return x;"), 1.0);
}

#[test]
fn assignment_in_a_nested_function_creates_an_implicit_global() {
    let (mut machine, mut engine) = setup();
    let v = engine
        .eval(&mut machine, "function f() { function g() { y = 5; } g(); } f(); return y;")
        .unwrap();
    assert!(matches!(v, Value::Num(n) if n == 5.0), "{v:?}");
    assert!(matches!(engine.global("y"), Some(Value::Num(n)) if n == 5.0));
}

#[test]
fn script_var_shadows_a_registered_native() {
    let (mut machine, mut engine) = setup();
    engine.register_native("host", std::rc::Rc::new(|_ctx, _this, _args| Ok(Value::Num(7.0))));
    assert!(
        matches!(engine.eval(&mut machine, "return host();").unwrap(), Value::Num(n) if n == 7.0)
    );
    engine.eval(&mut machine, "var host = 3;").unwrap();
    assert!(matches!(engine.global("host"), Some(Value::Num(n)) if n == 3.0));
    assert!(
        matches!(engine.eval(&mut machine, "return host;").unwrap(), Value::Num(n) if n == 3.0)
    );
}

#[test]
fn re_evaluating_a_script_redefines_its_global_functions() {
    let (mut machine, mut engine) = setup();
    engine.eval(&mut machine, "var n = 1; function run() { return n; }").unwrap();
    assert!(matches!(engine.call(&mut machine, "run", &[]).unwrap(), Value::Num(n) if n == 1.0));
    engine.eval(&mut machine, "var n = 2; function run() { return n * 10; }").unwrap();
    assert!(matches!(engine.call(&mut machine, "run", &[]).unwrap(), Value::Num(n) if n == 20.0));
}

#[test]
fn this_is_restored_after_a_nested_method_call() {
    assert_eq!(
        eval_num(
            r#"
var inner = {v: 1, m: function() { return this.v; }};
var outer = {v: 2, m: function() { var a = inner.m(); return a * 10 + this.v; }};
return outer.m();
"#
        ),
        12.0
    );
}

// ---- string-method index arguments ----

#[test]
fn char_code_at_counts_characters_not_bytes() {
    // `é` is two UTF-8 bytes: byte 2 is the space, character 2 is `a`.
    assert_eq!(eval_num("return 'é a'.charCodeAt(2);"), 97.0);
    assert_eq!(eval_str("return 'é a'[2];"), "a");
    assert_eq!(eval_str("return 'é a'.charAt(2);"), "a");
    assert_eq!(eval_num("return 'é a'.charCodeAt(0);"), 233.0);
    // An all-ASCII prefix still reads the byte directly.
    assert_eq!(eval_num("return 'ab é'.charCodeAt(1);"), 98.0);
    assert!(eval_num("return 'é'.charCodeAt(1);").is_nan());
}

#[test]
fn string_index_arguments_are_coerced_and_range_checked() {
    assert!(eval_num("return 'abcdef'.charCodeAt(-1);").is_nan());
    assert!(eval_num("return 'abcdef'.charCodeAt(1.5);").is_nan());
    assert_eq!(eval_num("return 'abcdef'.charCodeAt('2');"), 99.0);
    assert_eq!(eval_num("return 'abcdef'.charCodeAt();"), 97.0);
    assert_eq!(eval_str("return 'abcdef'.charAt(-1);"), "");
    assert_eq!(eval_str("return 'abcdef'.charAt(1.5);"), "");
    assert_eq!(eval_str("return 'abcdef'.charAt('2');"), "c");
    assert_eq!(eval_str("return 'abcdef'.charAt(9);"), "");
    assert_eq!(eval_str("return 'abcdef'.substring('2');"), "cdef");
    assert_eq!(eval_str("return 'abcdef'.substring(1, '3');"), "bc");
    assert_eq!(eval_str("return 'abcdef'.substring(-2, 2);"), "ab");
    assert_eq!(eval_str("return 'abcdef'.substring(4, 1);"), "bcd");
    assert_eq!(eval_str("return 'abcdef'.substring(2, undefined);"), "cdef");
    assert_eq!(eval_str("return 'abcdef'.substring(1.7, 3.2);"), "bc");
}

#[test]
fn string_slice_counts_negative_positions_from_the_end() {
    assert_eq!(eval_str("return 'abcdef'.slice(-2);"), "ef");
    assert_eq!(eval_str("return 'abcdef'.slice(1, -1);"), "bcde");
    assert_eq!(eval_str("return 'abcdef'.slice(4, 1);"), "");
    assert_eq!(eval_str("return 'abcdef'.slice(2);"), "cdef");
    assert_eq!(eval_str("return 'abcdef'.slice(-9, 2);"), "ab");
    assert_eq!(eval_str("return 'abcdef'.slice(2, undefined);"), "cdef");
    assert_eq!(eval_str("return 'abcdef'.slice(1.7, 3.2);"), "bc");
    assert_eq!(eval_str("return 'é€ab'.slice(-3, -1);"), "€a");
    // `substring` keeps its clamp-and-swap behaviour.
    assert_eq!(eval_str("return 'abcdef'.substring(-2);"), "abcdef");
    assert_eq!(eval_str("return 'abcdef'.substring(4, 1);"), "bcd");
}

#[test]
fn index_of_honours_its_start_position() {
    assert_eq!(eval_num("return 'abcabc'.indexOf('c', 3);"), 5.0);
    assert_eq!(eval_num("return 'abcabc'.indexOf('c', 6);"), -1.0);
    assert_eq!(eval_num("return 'abcabc'.indexOf('a', -4);"), 0.0);
    assert_eq!(eval_num("return 'abcabc'.indexOf('b', '2');"), 4.0);
    assert_eq!(eval_num("return 'abcabc'.indexOf('c', 2.9);"), 2.0);
    assert_eq!(eval_num("return 'abcabc'.indexOf('', 9);"), 6.0);
    // The result stays a character index on a non-ASCII string.
    assert_eq!(eval_num("return 'é€aé€a'.indexOf('a', 3);"), 5.0);
}

#[test]
fn split_honours_its_limit() {
    assert_eq!(eval_str("return 'a-b-c'.split('-', 2).join('|');"), "a|b");
    assert_eq!(eval_num("return 'a-b-c'.split('-', 0).length;"), 0.0);
    assert_eq!(eval_str("return 'a-b-c'.split('-', 9).join('|');"), "a|b|c");
    assert_eq!(eval_str("return 'abc'.split('', 2).join('|');"), "a|b");
    assert_eq!(eval_str("return 'a-b-c'.split('-', undefined).join('|');"), "a|b|c");
}

// ---- scope rules the slot resolver keeps ----

#[test]
fn a_named_function_expression_can_call_itself() {
    assert_eq!(
        eval_num("var f = function g(n) { return n ? g(n - 1) + 1 : 0; }; return f(3);"),
        3.0
    );
    // A parameter or `var` of the same name shadows the function's own name.
    assert_eq!(eval_num("var f = function g(g) { return g; }; return f(7);"), 7.0);
    assert_eq!(eval_num("var f = function g() { var g = 4; return g; }; return f();"), 4.0);
    // The name binds inside the function only.
    let (mut machine, mut engine) = setup();
    let err = engine.eval(&mut machine, "var f = function g() { return 1; }; return g;");
    assert!(matches!(err, Err(EngineError::Reference(ref name)) if name == "g"), "{err:?}");
}

#[test]
fn a_duplicate_parameter_takes_the_last_argument() {
    assert_eq!(eval_num("function f(a, a) { return a; } return f(1, 2);"), 2.0);
    assert!(matches!(eval("function f(a, a) { return a; } return f(1);"), Value::Undefined));
}

#[test]
fn a_for_init_var_is_visible_only_while_the_loop_runs() {
    assert_eq!(
        eval_num(
            "var i = 100; function f() { var n = 0; for (var i = 0; i < 3; i++) { n += i; } \
             return i * 10 + n; } return f();"
        ),
        1003.0
    );
}

#[test]
fn a_read_before_a_loop_body_var_sees_the_outer_binding_once() {
    // The first iteration reads the global `v`; later iterations read the
    // loop scope's own `v`, bound by the previous iteration.
    assert_eq!(
        eval_num(
            "var v = 9; function f() { var out = 0; \
             for (var k = 0; k < 2; k++) { out = out * 10 + v; var v = k + 5; } \
             return out; } return f();"
        ),
        95.0
    );
}

#[test]
fn a_var_in_a_loop_or_if_body_never_touches_the_global_of_that_name() {
    assert_eq!(
        eval_num(
            "var x = 1; function f() { if (true) { var x = 2; } return x; } \
             function g() { while (x < 5) { var x = 7; } return x; } \
             return f() * 100 + g() * 10 + x;"
        ),
        271.0
    );
}

#[test]
fn a_function_declared_in_an_if_body_binds_once_the_branch_runs() {
    let src = "var h = 1; function f(c) { if (c) { function h() { return 2; } } \
               return typeof h == 'function' ? h() : h; } ";
    assert_eq!(eval_num(&format!("{src} return f(false) * 10 + f(true);")), 12.0);
    // The declaration binds in `f`'s scope, not the global one.
    assert_eq!(eval_num(&format!("{src} f(true); return h;")), 1.0);
}

#[test]
fn this_at_top_level_is_undefined() {
    assert!(matches!(eval("return this;"), Value::Undefined));
    assert!(matches!(eval("function f() { return this; } return f();"), Value::Undefined));
    assert!(matches!(eval("{ var x = 1; return this; }"), Value::Undefined));
}

#[test]
fn closures_three_deep_read_and_write_two_hops_up() {
    assert_eq!(
        eval_num(
            r#"
function outer() {
  var count = 10;
  function middle() {
    function inner(d) { count = count + d; return count; }
    return inner;
  }
  var step = middle();
  step(1);
  step(2);
  return count;
}
return outer();
"#
        ),
        13.0
    );
    assert_eq!(
        eval_num(
            "function a() { var x = 1; return function () { for (var i = 0; i < 2; i++) \
             { (function () { x = x * 3; })(); } return x; }; } return a()();"
        ),
        9.0
    );
}

#[test]
fn set_global_after_a_cached_script_ran_is_seen_on_the_next_run() {
    let (mut machine, mut engine) = setup();
    let src = "function read() { return late; } return read() * 2;";
    let err = engine.eval(&mut machine, src);
    assert!(matches!(err, Err(EngineError::Reference(ref name)) if name == "late"), "{err:?}");
    for n in [21.0, 4.0] {
        engine.set_global("late", Value::Num(n));
        let v = engine.eval(&mut machine, src).unwrap();
        assert!(matches!(v, Value::Num(x) if x == 2.0 * n), "{v:?}");
    }
}

#[test]
fn var_without_initializer_keeps_a_bound_value() {
    assert_eq!(eval_num("var x = 1; var x; return x;"), 1.0);
    assert_eq!(eval_num("function f() { var y = 2; var y; return y; } return f();"), 2.0);
    assert_eq!(eval_num("var p = 3; function g(p) { var p; return p; } return g(4);"), 4.0);
    assert_eq!(eval_str("function h() { var z; return typeof z; } return h();"), "undefined");
}

#[test]
fn typeof_an_undeclared_name_is_undefined() {
    assert_eq!(eval_str("return typeof nope;"), "undefined");
    assert_eq!(eval_str("function f() { return typeof nope; } return f();"), "undefined");
    assert_eq!(eval_str("var d = 1; return typeof d;"), "number");
    let (mut machine, mut engine) = setup();
    let err = engine.eval(&mut machine, "return typeof nope.x;");
    assert!(matches!(err, Err(EngineError::Reference(ref name)) if name == "nope"), "{err:?}");
}
