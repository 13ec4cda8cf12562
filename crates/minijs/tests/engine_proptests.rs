//! Property-based tests for the engine: NaN-boxing, parser robustness,
//! cross-configuration determinism, the string model, `ToInt32` and the
//! operator model the typed evaluation paths must agree with.

use lir::{FaultPolicy, Machine};
use minijs::{parse_program, to_int32, Engine, Heap, NanBox, Value};
use proptest::prelude::*;

/// The string-model alphabet: ASCII, a 2-byte (`é`) and a 3-byte (`€`)
/// character, so both the byte-indexed and the code-point paths run.
const ALPHABET: [char; 6] = ['a', 'b', ' ', 'c', 'é', '€'];

/// Evaluates `return <expr>;` and renders the result for comparison.
fn show_js(engine: &mut Engine, machine: &mut Machine, expr: &str) -> String {
    match engine.eval(machine, &format!("return {expr};")) {
        Ok(Value::Num(n)) if n.is_nan() => "NaN".into(),
        Ok(Value::Num(n)) => format!("{n}"),
        Ok(Value::Str(s)) => format!("'{s}'"),
        Ok(Value::Undefined) => "undefined".into(),
        other => format!("{other:?}"),
    }
}

/// The model's rendering of a string result.
fn show_chars(chars: &[char]) -> String {
    format!("'{}'", chars.iter().collect::<String>())
}

/// `ToInt32` as the spec words it: truncate, take the result modulo 2^32
/// into `[0, 2^32)`, and map the upper half to negatives; NaN, ±0 and ±∞
/// give 0.
fn spec_to_int32(n: f64) -> i32 {
    if !n.is_finite() || n == 0.0 {
        return 0;
    }
    let m = n.trunc().rem_euclid(4294967296.0);
    (if m >= 2147483648.0 { m - 4294967296.0 } else { m }) as i32
}

/// A double of kind `kind`, drawn from `bits`: any bit pattern, an integer
/// within 3 of ±2^31 or ±2^32, a wide integer, a fraction, an `i32`, or
/// one of the special values.
fn draw_double(kind: usize, bits: u64, offset: i64) -> f64 {
    const EDGES: [f64; 4] = [2147483648.0, -2147483648.0, 4294967296.0, -4294967296.0];
    const SPECIAL: [f64; 8] =
        [-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 9007199254740992.0, -1e300, 0.5];
    match kind {
        0 => f64::from_bits(bits),
        1 => EDGES[(bits % 4) as usize] + offset as f64,
        2 => ((bits as i64) >> 20) as f64,
        3 => ((bits as i64) >> 28) as f64 + (bits % 1000) as f64 / 1000.0,
        4 => f64::from(bits as i32),
        _ => SPECIAL[(bits % 8) as usize],
    }
}

/// The model's rendering of a character code (NaN past the end).
fn show_code(c: Option<&char>) -> String {
    c.map_or("NaN".into(), |&c| format!("{}", u32::from(c)))
}

/// An operand of the operator model, as the engine sees it.
#[derive(Clone, Copy, Debug)]
enum Operand {
    Num(f64),
    /// A string with its `ToNumber`.
    Str(&'static str, f64),
    Bool(bool),
    Null,
    Undefined,
    /// `[1]`: a fresh array, so never equal to another operand.
    Array,
    /// `{}`: a fresh object.
    Object,
}

/// The operands, each with the script literal that makes it.
const OPERANDS: [(&str, Operand); 26] = [
    ("0/0", Operand::Num(f64::NAN)),
    ("0", Operand::Num(0.0)),
    ("-0", Operand::Num(-0.0)),
    ("1/0", Operand::Num(f64::INFINITY)),
    ("-1/0", Operand::Num(f64::NEG_INFINITY)),
    ("0.5", Operand::Num(0.5)),
    ("-2.75", Operand::Num(-2.75)),
    ("3", Operand::Num(3.0)),
    ("-7", Operand::Num(-7.0)),
    ("2147483647", Operand::Num(2147483647.0)),
    ("2147483648", Operand::Num(2147483648.0)),
    ("-2147483648", Operand::Num(-2147483648.0)),
    ("'42'", Operand::Str("42", 42.0)),
    ("' 7 '", Operand::Str(" 7 ", 7.0)),
    ("'0x1f'", Operand::Str("0x1f", 31.0)),
    ("''", Operand::Str("", 0.0)),
    ("'abc'", Operand::Str("abc", f64::NAN)),
    ("'-1.5'", Operand::Str("-1.5", -1.5)),
    ("'Infinity'", Operand::Str("Infinity", f64::INFINITY)),
    ("'inf'", Operand::Str("inf", f64::NAN)),
    ("true", Operand::Bool(true)),
    ("false", Operand::Bool(false)),
    ("null", Operand::Null),
    ("undefined", Operand::Undefined),
    ("[1]", Operand::Array),
    ("{}", Operand::Object),
];

/// Every binary operator; the first eleven also assign (`a op= b`).
const OPERATORS: [&str; 17] =
    ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", ">>>", "<", "<=", ">", ">=", "==", "!="];

/// An operator's result in the model.
#[derive(Clone, Debug, PartialEq)]
enum Outcome {
    Num(f64),
    Str(String),
    Bool(bool),
}

impl Outcome {
    fn truthy(&self) -> bool {
        match self {
            Outcome::Num(n) => *n != 0.0 && !n.is_nan(),
            Outcome::Str(s) => !s.is_empty(),
            Outcome::Bool(b) => *b,
        }
    }

    /// Rendered as [`show_value`] renders the engine's result.
    fn show(&self) -> String {
        match self {
            Outcome::Num(n) => format!("{n:?}"),
            Outcome::Str(s) => format!("'{s}'"),
            Outcome::Bool(b) => format!("{b}"),
        }
    }
}

fn model_to_number(v: Operand) -> f64 {
    match v {
        Operand::Num(n) | Operand::Str(_, n) => n,
        Operand::Bool(b) => f64::from(u8::from(b)),
        Operand::Null => 0.0,
        Operand::Undefined | Operand::Array | Operand::Object => f64::NAN,
    }
}

fn model_to_string(v: Operand) -> String {
    match v {
        Operand::Num(n) if n.is_nan() => "NaN".into(),
        Operand::Num(n) if n.is_infinite() => {
            (if n > 0.0 { "Infinity" } else { "-Infinity" }).into()
        }
        Operand::Num(n) if n == n.trunc() => format!("{}", n as i64),
        Operand::Num(n) => format!("{n}"),
        Operand::Str(s, _) => s.into(),
        Operand::Bool(b) => b.to_string(),
        Operand::Null => "null".into(),
        Operand::Undefined => "undefined".into(),
        Operand::Array => "1".into(),
        Operand::Object => "[object Object]".into(),
    }
}

/// The engine's `==`: strict, except that `null` equals `undefined`.
fn model_eq(a: Operand, b: Operand) -> bool {
    match (a, b) {
        (Operand::Num(x), Operand::Num(y)) => x == y,
        (Operand::Str(x, _), Operand::Str(y, _)) => x == y,
        (Operand::Bool(x), Operand::Bool(y)) => x == y,
        (Operand::Null | Operand::Undefined, Operand::Null | Operand::Undefined) => true,
        _ => false,
    }
}

/// `a op b` in the model: `+` concatenates when either side is a string,
/// `<` and friends compare two strings by text, the bitwise operators
/// take `ToInt32` (`ToUint32` for shift counts and `>>>`), everything
/// else works on `ToNumber`.
fn model_binary(op: &str, a: Operand, b: Operand) -> Outcome {
    let (x, y) = (model_to_number(a), model_to_number(b));
    let (i, j, count) = (spec_to_int32(x), spec_to_int32(y), spec_to_int32(y) as u32 & 31);
    let compare = |holds: fn(std::cmp::Ordering) -> bool| match (a, b) {
        (Operand::Str(s, _), Operand::Str(t, _)) => holds(s.cmp(t)),
        _ => x.partial_cmp(&y).is_some_and(holds),
    };
    match op {
        "+" if matches!(a, Operand::Str(..)) || matches!(b, Operand::Str(..)) => {
            Outcome::Str(model_to_string(a) + &model_to_string(b))
        }
        "+" => Outcome::Num(x + y),
        "-" => Outcome::Num(x - y),
        "*" => Outcome::Num(x * y),
        "/" => Outcome::Num(x / y),
        "%" => Outcome::Num(x % y),
        "&" => Outcome::Num(f64::from(i & j)),
        "|" => Outcome::Num(f64::from(i | j)),
        "^" => Outcome::Num(f64::from(i ^ j)),
        "<<" => Outcome::Num(f64::from(i << count)),
        ">>" => Outcome::Num(f64::from(i >> count)),
        ">>>" => Outcome::Num(f64::from((i as u32) >> count)),
        "<" => Outcome::Bool(compare(|o| o.is_lt())),
        "<=" => Outcome::Bool(compare(|o| o.is_le())),
        ">" => Outcome::Bool(compare(|o| o.is_gt())),
        ">=" => Outcome::Bool(compare(|o| o.is_ge())),
        "==" => Outcome::Bool(model_eq(a, b)),
        "!=" => Outcome::Bool(!model_eq(a, b)),
        _ => unreachable!("{op}"),
    }
}

/// Calls the global function `name` and renders its result (numbers by
/// bit pattern, so `-0` and `0` differ).
fn show_value(engine: &mut Engine, machine: &mut Machine, name: &str) -> String {
    match engine.eval(machine, &format!("return {name}();")) {
        Ok(Value::Num(n)) => format!("{n:?}"),
        Ok(Value::Str(s)) => format!("'{s}'"),
        Ok(Value::Bool(b)) => format!("{b}"),
        other => format!("{other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every f64 bit pattern survives box/unbox (NaNs stay NaN).
    #[test]
    fn nanbox_f64_roundtrip(bits in any::<u64>()) {
        let n = f64::from_bits(bits);
        let boxed = NanBox::from_value(&Value::Num(n), |_, _| 0);
        match boxed.decode() {
            minijs::DecodedBox::Num(m) => {
                if n.is_nan() {
                    prop_assert!(m.is_nan());
                } else {
                    prop_assert_eq!(m.to_bits(), n.to_bits());
                }
            }
            other => prop_assert!(false, "decoded {:?}", other),
        }
    }

    /// The lexer/parser never panic on arbitrary input.
    #[test]
    fn parser_never_panics(source in "\\PC{0,200}") {
        let _ = parse_program(&source, &mut Heap::new());
    }

    /// Arbitrary token soup built from valid fragments either parses or
    /// errors cleanly — and if it parses, evaluation terminates (with the
    /// fuel guard) without panicking.
    #[test]
    fn fragment_soup_is_handled(picks in proptest::collection::vec(0usize..16, 1..24)) {
        const FRAGMENTS: &[&str] = &[
            "var x = 1;", "x = x + 1;", "if (x > 2) { x = 0; }",
            "function f(a) { return a; }", "f(3);", "[1, 2, 3];",
            "({a: 1});", "'s' + x;", "while (x < 2) { x = x + 1; }",
            "x ? 1 : 2;", "typeof x;", "x++;", "for (var i = 0; i < 3; i++) {}",
            "return x;", "{ var y = 2; }", "Math.floor(1.5);",
        ];
        let source: String =
            picks.iter().map(|&i| FRAGMENTS[i]).collect::<Vec<_>>().join("\n");
        let mut machine = Machine::split(FaultPolicy::Crash).expect("machine");
        let mut engine = Engine::new(&mut machine).expect("engine");
        engine.set_fuel(200_000);
        let _ = engine.eval(&mut machine, &source);
    }

    /// Arithmetic expressions evaluate identically on two fresh engines
    /// (determinism) and match a Rust-side model for integer inputs.
    #[test]
    fn arithmetic_matches_model(a in -1000i64..1000, b in -1000i64..1000, op in 0usize..4) {
        let (symbol, expected) = match op {
            0 => ("+", Some((a + b) as f64)),
            1 => ("-", Some((a - b) as f64)),
            2 => ("*", Some((a * b) as f64)),
            _ => ("%", (b != 0).then(|| (a % b) as f64)),
        };
        let source = format!("return ({a}) {symbol} ({b});");
        let mut machine = Machine::split(FaultPolicy::Crash).expect("machine");
        let mut engine = Engine::new(&mut machine).expect("engine");
        let result = engine.eval(&mut machine, &source).expect("eval");
        match (result, expected) {
            (Value::Num(n), Some(e)) => prop_assert_eq!(n, e),
            (Value::Num(n), None) => prop_assert!(n.is_nan()),
            (other, _) => prop_assert!(false, "got {:?}", other),
        }
    }

    /// Array contents survive arbitrary push/pop/index interleavings,
    /// matching a Vec model.
    #[test]
    fn arrays_match_vec_model(ops in proptest::collection::vec((0u8..3, 0u8..16), 1..40)) {
        let mut script = String::from("var a = []; var log = 0;\n");
        let mut model: Vec<f64> = Vec::new();
        let mut log = 0.0;
        for (op, val) in ops {
            match op {
                0 => {
                    script.push_str(&format!("a.push({val});\n"));
                    model.push(f64::from(val));
                }
                1 => {
                    script.push_str("var p = a.pop(); log += (p == undefined) ? -1 : p;\n");
                    log += model.pop().unwrap_or(-1.0);
                }
                _ => {
                    let idx = usize::from(val);
                    script.push_str(&format!(
                        "var g = a[{idx}]; log += (g == undefined) ? -1 : g;\n"
                    ));
                    log += model.get(idx).copied().unwrap_or(-1.0);
                }
            }
        }
        script.push_str("return log * 1000 + a.length;");
        let expected = log * 1000.0 + model.len() as f64;
        let mut machine = Machine::split(FaultPolicy::Crash).expect("machine");
        let mut engine = Engine::new(&mut machine).expect("engine");
        match engine.eval(&mut machine, &script).expect("eval") {
            Value::Num(n) => prop_assert_eq!(n, expected),
            other => prop_assert!(false, "got {:?}", other),
        }
    }

    /// Strings match a `Vec<char>` model on ASCII and non-ASCII text
    /// alike: `length`, `charCodeAt`, `charAt`, `s[i]`, `substring`,
    /// `slice`, `indexOf` with and without a start, and `+` of an ASCII
    /// string with a mixed one in both orders.
    #[test]
    fn strings_match_char_model(
        text in proptest::collection::vec(0usize..6, 0..10),
        prefix in proptest::collection::vec(0usize..3, 0..4),
        needle in proptest::collection::vec(0usize..6, 1..3),
        a in -3i64..13,
        b in -3i64..13,
    ) {
        let s: Vec<char> = text.iter().map(|&i| ALPHABET[i]).collect();
        let p: Vec<char> = prefix.iter().map(|&i| ALPHABET[i]).collect();
        let n: Vec<char> = needle.iter().map(|&i| ALPHABET[i]).collect();
        let mut machine = Machine::split(FaultPolicy::Crash).expect("machine");
        let mut engine = Engine::new(&mut machine).expect("engine");
        let globals = format!(
            "var s = {}; var p = {}; var n = {};",
            show_chars(&s),
            show_chars(&p),
            show_chars(&n)
        );
        engine.eval(&mut machine, &globals).expect("globals");
        let mut js = |expr: &str| show_js(&mut engine, &mut machine, expr);

        let len = s.len() as i64;
        prop_assert_eq!(js("s.length"), format!("{len}"));
        for i in 0..=s.len() {
            prop_assert_eq!(js(&format!("s.charCodeAt({i})")), show_code(s.get(i)));
            let at = s.get(i).map_or(vec![], |&c| vec![c]);
            prop_assert_eq!(js(&format!("s.charAt({i})")), show_chars(&at));
            let indexed = s.get(i).map_or("undefined".into(), |&c| show_chars(&[c]));
            prop_assert_eq!(js(&format!("s[{i}]")), indexed);
        }

        let clamp = |x: i64| x.clamp(0, len) as usize;
        let (lo, hi) = (clamp(a).min(clamp(b)), clamp(a).max(clamp(b)));
        prop_assert_eq!(js(&format!("s.substring({a}, {b})")), show_chars(&s[lo..hi]));
        let norm = |x: i64| if x < 0 { (len + x).max(0) as usize } else { x.min(len) as usize };
        let (start, end) = (norm(a), norm(b).max(norm(a)));
        prop_assert_eq!(js(&format!("s.slice({a}, {b})")), show_chars(&s[start..end]));
        prop_assert_eq!(js(&format!("s.slice({a})")), show_chars(&s[norm(a)..]));

        let index_of = |from: usize| {
            (from..=s.len()).find(|&i| s[i..].starts_with(&n)).map_or(-1, |i| i as i64)
        };
        prop_assert_eq!(js("s.indexOf(n)"), format!("{}", index_of(0)));
        prop_assert_eq!(js(&format!("s.indexOf(n, {a})")), format!("{}", index_of(clamp(a))));

        for (expr, joined) in [("p + s", [&p[..], &s[..]].concat()), ("s + p", [&s[..], &p[..]].concat())] {
            prop_assert_eq!(js(expr), show_chars(&joined));
            prop_assert_eq!(js(&format!("({expr}).length")), format!("{}", joined.len()));
            for k in 0..=joined.len() {
                prop_assert_eq!(js(&format!("({expr}).charCodeAt({k})")), show_code(joined.get(k)));
            }
        }
        prop_assert_eq!(js("('ab' + 'é').charCodeAt(2)"), "233");
    }

    /// The `ToInt32` fast path agrees with the spec formula on integers at
    /// and beyond ±2^31 and ±2^32, fractions, `-0.0`, NaN and ±∞.
    #[test]
    fn to_int32_matches_spec(kind in 0usize..6, bits in any::<u64>(), offset in -3i64..4) {
        let n = draw_double(kind, bits, offset);
        prop_assert_eq!(to_int32(n), spec_to_int32(n), "ToInt32({:e})", n);
    }

    /// The typed paths agree with the operator model on operands held in
    /// locals, for every operator: the value of `a op b`, its truth in
    /// `if`, `?:` and `while`, `a op= b`, and `a++`/`a--` with the value
    /// they leave behind.
    #[test]
    fn typed_paths_match_operator_model(
        x in 0usize..OPERANDS.len(),
        y in 0usize..OPERANDS.len(),
    ) {
        let ((a_src, a), (b_src, b)) = (OPERANDS[x], OPERANDS[y]);
        let locals = format!("var a = {a_src}; var b = {b_src};");
        let mut machine = Machine::split(FaultPolicy::Crash).expect("machine");
        let mut engine = Engine::new(&mut machine).expect("engine");
        for (k, op) in OPERATORS.iter().enumerate() {
            let assigns = k < 11;
            let mut source = format!(
                "function value() {{ {locals} return a {op} b; }}
                 function branch() {{ {locals} if (a {op} b) return 1; return 0; }}
                 function pick() {{ {locals} return (a {op} b) ? 1 : 0; }}
                 function loop() {{ {locals} var n = 0; while (a {op} b) {{ n++; break; }} return n; }}"
            );
            if assigns {
                source += &format!(
                    "function assign() {{ {locals} return a {op}= b; }}
                     function assigned() {{ {locals} a {op}= b; return a; }}"
                );
            }
            engine.eval(&mut machine, &source).expect("definitions");
            let mut js = |name: &str| show_value(&mut engine, &mut machine, name);
            let result = model_binary(op, a, b);
            let truth = if result.truthy() { "1.0" } else { "0.0" };
            prop_assert_eq!(js("value"), result.show(), "{} {} {}", a_src, op, b_src);
            prop_assert_eq!(js("branch"), truth, "if ({} {} {})", a_src, op, b_src);
            prop_assert_eq!(js("pick"), truth, "({} {} {}) ?", a_src, op, b_src);
            prop_assert_eq!(js("loop"), truth, "while ({} {} {})", a_src, op, b_src);
            if assigns {
                prop_assert_eq!(js("assign"), result.show(), "{} {}= {}", a_src, op, b_src);
                prop_assert_eq!(js("assigned"), result.show(), "{} {}= {}", a_src, op, b_src);
            }
        }
        engine
            .eval(
                &mut machine,
                &format!(
                    "function post_incr() {{ {locals} return a++; }}
                     function after_incr() {{ {locals} ++a; return a; }}
                     function post_decr() {{ {locals} return a--; }}
                     function after_decr() {{ {locals} a--; return a; }}"
                ),
            )
            .expect("definitions");
        let mut js = |name: &str| show_value(&mut engine, &mut machine, name);
        let old = model_to_number(a);
        prop_assert_eq!(js("post_incr"), format!("{old:?}"), "{}++", a_src);
        prop_assert_eq!(js("after_incr"), format!("{:?}", old + 1.0), "++{}", a_src);
        prop_assert_eq!(js("post_decr"), format!("{old:?}"), "{}--", a_src);
        prop_assert_eq!(js("after_decr"), format!("{:?}", old - 1.0), "{}--", a_src);
    }
}
