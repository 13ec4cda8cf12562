//! End-to-end engine tests: real scripts against the simulated machine.

use std::rc::Rc;

use lir::{FaultPolicy, Machine};
use minijs::{Engine, EngineError, HostClass, HostFieldKind, Value};

fn setup() -> (Machine, Engine) {
    let mut machine = Machine::split(FaultPolicy::Crash).unwrap();
    let engine = Engine::new(&mut machine).unwrap();
    (machine, engine)
}

fn eval_num(src: &str) -> f64 {
    let (mut machine, mut engine) = setup();
    match engine.eval(&mut machine, src).unwrap() {
        Value::Num(n) => n,
        other => panic!("expected number, got {other:?}"),
    }
}

fn eval_str(src: &str) -> String {
    let (mut machine, mut engine) = setup();
    match engine.eval(&mut machine, src).unwrap() {
        Value::Str(s) => s.to_string(),
        other => panic!("expected string, got {other:?}"),
    }
}

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(eval_num("return 1 + 2 * 3 - 4 / 2;"), 5.0);
    assert_eq!(eval_num("return (1 + 2) * 3;"), 9.0);
    assert_eq!(eval_num("return 7 % 3;"), 1.0);
    assert_eq!(eval_num("return -3 * -4;"), 12.0);
    assert_eq!(eval_num("return 10 / 4;"), 2.5);
}

#[test]
fn bitwise_toint32_semantics() {
    assert_eq!(eval_num("return 0xffffffff | 0;"), -1.0);
    assert_eq!(eval_num("return 5 & 3;"), 1.0);
    assert_eq!(eval_num("return 5 ^ 3;"), 6.0);
    assert_eq!(eval_num("return 1 << 31;"), -2147483648.0);
    assert_eq!(eval_num("return -8 >> 1;"), -4.0);
    assert_eq!(eval_num("return -8 >>> 28;"), 15.0);
    assert_eq!(eval_num("return ~5;"), -6.0);
    assert_eq!(eval_num("return 2.9 | 0;"), 2.0);
}

#[test]
fn variables_scopes_closures() {
    assert_eq!(
        eval_num(
            r#"
var x = 1;
function outer() {
  var x = 10;
  function inner() { x = x + 5; return x; }
  inner();
  return inner();
}
return outer() + x;
"#
        ),
        21.0
    );
}

#[test]
fn closures_capture_by_environment() {
    assert_eq!(
        eval_num(
            r#"
function counter() {
  var n = 0;
  return function() { n = n + 1; return n; };
}
var c1 = counter();
var c2 = counter();
c1(); c1(); c2();
return c1() * 10 + c2();
"#
        ),
        32.0
    );
}

#[test]
fn recursion_fib_and_mutual() {
    assert_eq!(
        eval_num(
            "function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } return fib(15);"
        ),
        610.0
    );
    assert_eq!(
        eval_num(
            r#"
function isEven(n) { if (n == 0) return true; return isOdd(n - 1); }
function isOdd(n) { if (n == 0) return false; return isEven(n - 1); }
return isEven(10) ? 1 : 0;
"#
        ),
        1.0
    );
}

#[test]
fn loops_and_control_flow() {
    assert_eq!(
        eval_num("var s = 0; for (var i = 0; i < 10; i++) { if (i == 3) continue; if (i == 8) break; s += i; } return s;"),
        25.0
    );
    assert_eq!(eval_num("var s = 0, i = 0; while (i < 5) { s += i; i++; } return s;"), 10.0);
    assert_eq!(eval_num("var n = 0; do { n++; } while (n < 3); return n;"), 3.0);
}

#[test]
fn arrays_grow_and_methods() {
    assert_eq!(
        eval_num("var a = [1, 2, 3]; a.push(4, 5); a[9] = 10; return a.length + a[9] + a.pop();"),
        30.0
    );
    assert_eq!(eval_str("return [1, 2, 3].join('-');"), "1-2-3");
    assert_eq!(eval_num("return [5, 6, 7].indexOf(6);"), 1.0);
    assert_eq!(
        eval_num("var b = [1,2,3,4,5].slice(1, 4); return b.length * 100 + b[0] * 10 + b[2];"),
        324.0
    );
    assert_eq!(eval_num("return [1,2].concat([3,4], 5).length;"), 5.0);
}

#[test]
fn strings_and_methods() {
    assert_eq!(eval_str("return 'foo' + 'bar' + 1;"), "foobar1");
    assert_eq!(eval_num("return 'hello'.length;"), 5.0);
    assert_eq!(eval_num("return 'abc'.charCodeAt(1);"), 98.0);
    assert_eq!(eval_str("return 'hello'.substring(1, 3);"), "el");
    assert_eq!(eval_str("return 'a,b,c'.split(',').join('|');"), "a|b|c");
    assert_eq!(eval_num("return 'hello world'.indexOf('world');"), 6.0);
    assert_eq!(eval_str("return 'MiXeD'.toUpperCase() + 'MiXeD'.toLowerCase();"), "MIXEDmixed");
    assert_eq!(eval_str("return 'abc'[1];"), "b");
    assert_eq!(eval_str("return String.fromCharCode(72, 105);"), "Hi");
}

#[test]
fn objects_and_properties() {
    assert_eq!(
        eval_num("var o = {a: 1, b: {c: 2}}; o.d = 3; o['e'] = 4; return o.a + o.b.c + o.d + o.e;"),
        10.0
    );
    assert_eq!(
        eval_num(
            r#"
var obj = {n: 10, get: function() { return this.n; }};
return obj.get();
"#
        ),
        10.0
    );
}

#[test]
fn constructor_factory_pattern() {
    assert_eq!(
        eval_num(
            r#"
function Point(x, y) { return {x: x, y: y, norm2: function() { return this.x*this.x + this.y*this.y; }}; }
var p = new Point(3, 4);
return p.norm2();
"#
        ),
        25.0
    );
}

#[test]
fn math_builtins_and_determinism() {
    assert_eq!(eval_num("return Math.floor(3.7) + Math.ceil(3.2) + Math.abs(-2);"), 9.0);
    assert_eq!(eval_num("return Math.max(1, 9, 4) - Math.min(5, 2, 8);"), 7.0);
    assert_eq!(eval_num("return Math.pow(2, 10);"), 1024.0);
    assert_eq!(eval_num("return Math.sqrt(144);"), 12.0);
    // Two engines produce the same random sequence.
    let a = eval_num("var s = 0; for (var i = 0; i < 5; i++) s += Math.random(); return s;");
    let b = eval_num("var s = 0; for (var i = 0; i < 5; i++) s += Math.random(); return s;");
    assert_eq!(a, b);
    assert!(a > 0.0 && a < 5.0);
}

#[test]
fn json_roundtrip() {
    assert_eq!(
        eval_str(r#"return JSON.stringify({a: 1, b: [true, null, "x"], c: {d: 2.5}});"#),
        r#"{"a":1,"b":[true,null,"x"],"c":{"d":2.5}}"#
    );
    assert_eq!(
        eval_num(
            r#"var v = JSON.parse('{"a": [1, 2, {"b": 3}] }'); return v.a[2].b + v.a.length;"#
        ),
        6.0
    );
    assert_eq!(
        eval_str(r#"return JSON.stringify(JSON.parse('[1,"two",false,null]'));"#),
        r#"[1,"two",false,null]"#
    );
}

#[test]
fn ternary_logical_typeof() {
    assert_eq!(eval_num("return (5 > 3 ? 1 : 2) + (false || 10) + (0 && 99);"), 11.0);
    assert_eq!(
        eval_str("return typeof 1 + typeof 'x' + typeof {} + typeof undefined;"),
        "numberstringobjectundefined"
    );
}

#[test]
fn parse_int_float() {
    assert_eq!(eval_num("return parseInt('42px');"), 42.0);
    assert_eq!(eval_num("return parseInt('ff', 16);"), 255.0);
    assert_eq!(eval_num("return parseInt('-7');"), -7.0);
    assert_eq!(eval_num("return parseFloat('2.5e1');"), 25.0);
    assert_eq!(eval_num("return isNaN(parseInt('zz')) ? 1 : 0;"), 1.0);
}

#[test]
fn print_collects_output() {
    let (mut machine, mut engine) = setup();
    engine.eval(&mut machine, "__print('hello', 1 + 1); __print([1,2]);").unwrap();
    assert_eq!(engine.output(), &["hello 2".to_string(), "1,2".to_string()]);
}

#[test]
fn reference_errors_and_type_errors() {
    let (mut machine, mut engine) = setup();
    assert!(matches!(engine.eval(&mut machine, "return nope;"), Err(EngineError::Reference(_))));
    assert!(matches!(engine.eval(&mut machine, "var x = 1; x();"), Err(EngineError::Type(_))));
    assert!(matches!(engine.eval(&mut machine, "null.a;"), Err(EngineError::Type(_))));
}

#[test]
fn fuel_limits_runaway_scripts() {
    let (mut machine, mut engine) = setup();
    engine.set_fuel(10_000);
    assert!(matches!(engine.eval(&mut machine, "while (true) {}"), Err(EngineError::Fuel)));
}

#[test]
fn natives_and_callbacks() {
    let (mut machine, mut engine) = setup();
    // A native that calls a script callback three times — the `Callback`
    // micro-benchmark shape.
    engine.register_native(
        "repeat3",
        Rc::new(|ctx, _this, args| {
            let f = args.first().cloned().unwrap_or(Value::Undefined);
            let mut total = 0.0;
            for i in 0..3 {
                if let Value::Num(n) =
                    ctx.call_value(&f, Value::Undefined, &[Value::Num(f64::from(i))])?
                {
                    total += n;
                }
            }
            Ok(Value::Num(total))
        }),
    );
    let v = engine.eval(&mut machine, "return repeat3(function(i) { return i * 10; });").unwrap();
    assert!(matches!(v, Value::Num(n) if n == 30.0));
}

#[test]
fn call_global_function_from_host() {
    let (mut machine, mut engine) = setup();
    engine.eval(&mut machine, "function add(a, b) { return a + b; }").unwrap();
    let v = engine.call(&mut machine, "add", &[Value::Num(2.0), Value::Num(40.0)]).unwrap();
    assert!(matches!(v, Value::Num(n) if n == 42.0));
}

#[test]
fn host_class_direct_field_access() {
    let (mut machine, mut engine) = setup();
    // A fake "node": [kind: u64][value: f64][text_ptr][pad]
    let node = machine.alloc.alloc(64).unwrap(); // Trusted memory!
    machine.mem_write(node, 7).unwrap();
    machine.mem_write(node + 8, 2.5_f64.to_bits()).unwrap();
    // Text buffer: [len][bytes...]
    let text = machine.alloc.alloc(32).unwrap();
    machine.mem_write(text, 5).unwrap();
    for (i, b) in b"hello".iter().enumerate() {
        machine.mem_write_u8(text + 8 + i as u64, *b).unwrap();
    }
    machine.mem_write(node + 16, text).unwrap();

    let class = engine.define_host_class(
        HostClass::new("FakeNode")
            .field("kind", 0, HostFieldKind::U64, true)
            .field("value", 8, HostFieldKind::F64, true)
            .field("text", 16, HostFieldKind::Text, false),
    );
    engine.set_global("node", Engine::host_ref(node, class));

    // With trusted rights (no gate), direct reads work.
    let v = engine
        .eval(&mut machine, "return node.kind * 100 + node.value * 10 + node.text.length;")
        .unwrap();
    assert!(matches!(v, Value::Num(n) if n == 730.0));
    let v = engine.eval(&mut machine, "node.kind = 9; return node.kind;").unwrap();
    assert!(matches!(v, Value::Num(n) if n == 9.0));

    // Behind the gate, the same access is an MPK violation: the node
    // lives in M_T.
    machine.gates.enter_untrusted(&mut machine.cpu).unwrap();
    let err = engine.eval(&mut machine, "return node.kind;").unwrap_err();
    assert!(err.is_pkey_violation(), "{err}");
}

#[test]
fn exploit_cve_analog_blocked_by_mpk() {
    let (mut machine, mut engine) = setup();
    // The browser's secret in trusted memory, value 42 (§5.4).
    let secret = machine.alloc.alloc(64).unwrap();
    machine.mem_write(secret, 42.0_f64.to_bits()).unwrap();
    engine.set_global("SECRET_ADDR", Value::Num(secret as f64));

    let exploit = r#"
var a = [1.1, 2.2];
a.length = 1e15;                       // corrupt header via the bug
var base = debugAddrOf(a);
var idx = (SECRET_ADDR - base) / 8;
a[idx] = 1337;                         // arbitrary write
return a[idx];
"#;
    // Unprotected (trusted rights): the write lands — value clobbered.
    engine.eval(&mut machine, exploit).unwrap();
    assert_eq!(f64::from_bits(machine.mem_read(secret).unwrap()), 1337.0);

    // Reset the secret, then run the same exploit behind the call gate:
    // MPK terminates it and the secret survives.
    machine.mem_write(secret, 42.0_f64.to_bits()).unwrap();
    machine.gates.enter_untrusted(&mut machine.cpu).unwrap();
    let err = engine.eval(&mut machine, exploit).unwrap_err();
    assert!(err.is_pkey_violation(), "{err}");
    machine.gates.exit_untrusted(&mut machine.cpu).unwrap();
    assert_eq!(f64::from_bits(machine.mem_read(secret).unwrap()), 42.0);
}

#[test]
fn patched_engine_defeats_exploit_differently() {
    let (mut machine, mut engine) = setup();
    engine.set_vulnerable(false);
    let v = engine.eval(&mut machine, "var a = [1.1]; a.length = 1000; return a.length;").unwrap();
    assert!(matches!(v, Value::Num(n) if n == 1000.0));
    // The buffer was genuinely grown, so index 999 is in-bounds memory,
    // and it reads as the hole it is.
    let v = engine.eval(&mut machine, "return a[999];").unwrap();
    assert!(matches!(v, Value::Undefined));
}

#[test]
fn engine_memory_is_in_untrusted_pool() {
    let (mut machine, mut engine) = setup();
    engine.eval(&mut machine, "var a = [1, 2, 3]; var o = {x: 1};").unwrap();
    let stats = {
        // Allocations made by the engine must come from M_U.
        machine.alloc.domain_of(pkalloc::UNTRUSTED_BASE + 64)
    };
    let _ = stats;
    // The engine runs fine with untrusted rights when touching only its
    // own data.
    machine.gates.enter_untrusted(&mut machine.cpu).unwrap();
    let v = engine.eval(&mut machine, "a.push(4); o.y = a[3]; return o.y + a.length;").unwrap();
    assert!(matches!(v, Value::Num(n) if n == 8.0));
}

#[test]
fn deep_js_recursion_is_bounded() {
    let (mut machine, mut engine) = setup();
    let err =
        engine.eval(&mut machine, "function f(n) { return f(n + 1); } return f(0);").unwrap_err();
    assert!(matches!(err, EngineError::Range(_)), "{err}");
}

#[test]
fn date_now_is_monotonic_virtual_time() {
    let (mut machine, mut engine) = setup();
    let v = engine
        .eval(
            &mut machine,
            r#"
var t0 = Date.now();
var s = 0;
for (var i = 0; i < 50000; i++) s += i;
var t1 = Date.now();
return t1 > t0 ? 1 : 0;
"#,
        )
        .unwrap();
    assert!(matches!(v, Value::Num(n) if n == 1.0));
}
