//! The embedder-facing engine API (the `mozjs` C API analog).

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use lir::Machine;

use crate::error::EngineError;
use crate::exec::{Ctx, Env, Stacks};
use crate::heap::{Checkpoint, Heap, HostClassId, Rewind};
use crate::lower::Program;
use crate::parser::{fmt_f64, parse_program};
use crate::Value;

/// A native (host) function callable from script.
///
/// Natives are `Fn` (not `FnMut`) so callbacks can reenter them; mutable
/// host state lives behind the closure's own `RefCell`.
pub type NativeFn = Rc<dyn Fn(&mut Ctx, Value, &[Value]) -> Result<Value, EngineError>>;

/// The type of one directly accessible host-structure field.
#[derive(Clone, Copy, Debug)]
pub enum HostFieldKind {
    /// An unsigned 64-bit integer surfaced as a number.
    U64,
    /// A double stored by bit pattern.
    F64,
    /// A pointer to another host structure (0 reads as `null`).
    Ref(HostClassId),
    /// A pointer to a `[len: u64][bytes...]` buffer surfaced as a string.
    ///
    /// Reading one of these from script makes the *engine* walk a
    /// host-allocated buffer byte by byte — the cross-compartment data
    /// flow PKRU-Safe's profiler exists to discover.
    Text,
}

/// One field of a host class.
#[derive(Clone, Copy, Debug)]
pub struct HostField {
    /// Byte offset within the structure.
    pub offset: u64,
    /// How the field is interpreted.
    pub kind: HostFieldKind,
    /// Whether script may assign to it.
    pub writable: bool,
}

/// Indexability spec: `node[i]` walks an intrusive child list.
#[derive(Clone, Copy, Debug)]
pub struct HostElements {
    /// Offset of the child-count field.
    pub count_offset: u64,
    /// Offset of the first-child pointer.
    pub first_offset: u64,
    /// Offset of the next-sibling pointer *within the child structure*.
    pub next_offset: u64,
    /// The class of child structures.
    pub child_class: HostClassId,
}

/// The layout of a host structure exposed for direct access from script
/// (how the browser's DOM nodes become scriptable).
pub struct HostClass {
    /// Human-readable class name.
    pub name: String,
    /// Field name → spec.
    pub fields: HashMap<Rc<str>, HostField>,
    /// Method name → native handle (registered via
    /// [`Engine::add_method_native`]).
    pub methods: HashMap<Rc<str>, u32>,
    /// Child indexing, if the structure is a container.
    pub elements: Option<HostElements>,
}

impl HostClass {
    /// Creates an empty class.
    pub fn new(name: &str) -> HostClass {
        HostClass {
            name: name.to_string(),
            fields: HashMap::new(),
            methods: HashMap::new(),
            elements: None,
        }
    }

    /// Adds a field.
    pub fn field(mut self, name: &str, offset: u64, kind: HostFieldKind, writable: bool) -> Self {
        self.fields.insert(name.into(), HostField { offset, kind, writable });
        self
    }
}

/// Exact evaluator work counters ([`Engine::exec_stats`]): they depend
/// only on the scripts run, never on timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Evaluation steps: one per statement and expression node run (the
    /// clock `Date.now` reads and the unit of the fuel budget).
    pub steps: u64,
    /// Closure calls whose body ran.
    pub calls: u64,
    /// Call and scope frames taken from the allocator rather than from
    /// the engine's pool of finished frames.
    pub fresh_frames: u64,
}

/// How many parsed programs an engine keeps; when the cache is full, the
/// oldest is dropped.
const PROGRAM_CACHE_LEN: usize = 64;

/// The JavaScript engine: heap, globals, natives, and host classes.
///
/// One engine instance corresponds to one `JSContext`. All memory the
/// engine allocates comes from the untrusted pool of the [`Machine`] it is
/// run against; the machine is passed per call (the embedder owns it), so
/// the same engine API works for the baseline, alloc-only, and fully gated
/// configurations.
///
/// The engine compiles each source once: [`Engine::eval`] keeps the
/// parsed, resolved and lowered program of every source it ran (up to
/// `PROGRAM_CACHE_LEN`), keyed by the exact text, and runs the cached op
/// stream when the source comes again. Programs are engine-internal state
/// off the simulated heap, so the cache moves nothing between `M_T` and
/// `M_U` and adds no gate crossing.
pub struct Engine {
    heap: Heap,
    programs: VecDeque<(Box<str>, Rc<Program>)>,
    programs_parsed: u64,
    natives: Vec<NativeFn>,
    host_classes: Vec<HostClass>,
    global: Rc<Env>,
    fuel: u64,
    rng: u64,
    clock: u64,
    output: Vec<String>,
    stacks: Stacks,
}

impl Engine {
    /// Creates an engine and installs the standard library into `machine`'s
    /// untrusted heap.
    pub fn new(machine: &mut Machine) -> Result<Engine, EngineError> {
        let mut engine = Engine {
            heap: Heap::new(),
            programs: VecDeque::new(),
            programs_parsed: 0,
            natives: Vec::new(),
            host_classes: Vec::new(),
            global: Env::root(),
            fuel: u64::MAX,
            rng: 0x9E37_79B9_7F4A_7C15,
            clock: 0,
            output: Vec::new(),
            stacks: Stacks::default(),
        };
        engine.install_stdlib(machine)?;
        Ok(engine)
    }

    /// Replaces the step budget (tests and runaway-script protection).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Whether the planted length-setter bug is present (default: yes).
    pub fn set_vulnerable(&mut self, on: bool) {
        self.heap.vulnerable = on;
    }

    /// Direct heap access (embedder helpers and tests).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// Lines printed by `__print`.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Takes and clears the printed lines.
    pub fn take_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.output)
    }

    /// Total element reads+writes the engine has performed.
    pub fn elem_accesses(&self) -> u64 {
        self.heap.elem_reads + self.heap.elem_writes
    }

    /// String work `(bytes walked, bytes copied)` so far: bytes walked to
    /// resolve a character position (non-ASCII strings only) and bytes
    /// written into new strings at run time.
    pub fn string_work(&self) -> (u64, u64) {
        (self.heap.string_bytes_walked, self.heap.string_bytes_copied)
    }

    /// Compile work `(programs parsed, by-name scope walks)` so far:
    /// sources [`Engine::eval`] found no cached program for, and variable
    /// accesses whose resolved slot was unbound, so they continued
    /// outward by name.
    pub fn compile_stats(&self) -> (u64, u64) {
        (self.programs_parsed, self.heap.scope_walks)
    }

    /// Evaluator work so far; see [`ExecStats`].
    pub fn exec_stats(&self) -> ExecStats {
        ExecStats {
            steps: self.clock,
            calls: self.heap.closure_calls,
            fresh_frames: self.heap.fresh_frames,
        }
    }

    /// A checkpoint of the heap at its current state; see
    /// [`Engine::rewind`].
    pub fn checkpoint(&self) -> Checkpoint {
        self.heap.checkpoint()
    }

    /// Takes the heap back to `cp` ([`Heap::rewind`]). `roots` are the
    /// script values the embedder holds; the engine's root scope binds
    /// nothing itself (its bindings are the global slots, which the
    /// rewind restores).
    pub fn rewind<'r>(
        &mut self,
        machine: &mut Machine,
        cp: &mut Checkpoint,
        roots: impl IntoIterator<Item = &'r Value>,
    ) -> Rewind {
        self.heap.rewind(machine, cp, roots)
    }

    /// Heap rewinds so far: `(went back, refused, buffers leaked)`.
    pub fn rewind_stats(&self) -> (u64, u64, u64) {
        (self.heap.rewinds, self.heap.rewinds_refused, self.heap.rewind_leaks)
    }

    /// Registers a native and binds it as a global function.
    pub fn register_native(&mut self, name: &str, f: NativeFn) -> u32 {
        let handle = self.add_method_native(f);
        self.set_global(name, Value::Native(handle));
        handle
    }

    /// Registers a native without a global binding (host-class methods).
    pub fn add_method_native(&mut self, f: NativeFn) -> u32 {
        self.natives.push(f);
        (self.natives.len() - 1) as u32
    }

    /// Defines a host class, returning its ID. Invalidates every inline
    /// cache: class layouts are IC keys.
    pub fn define_host_class(&mut self, class: HostClass) -> HostClassId {
        self.heap.bump_ic_epoch();
        self.host_classes.push(class);
        HostClassId((self.host_classes.len() - 1) as u32)
    }

    /// Mutable access to a defined host class (to attach methods).
    /// Invalidates every inline cache — the caller may edit the layout
    /// cached entries were specialized to.
    pub fn host_class_mut(&mut self, id: HostClassId) -> &mut HostClass {
        self.heap.bump_ic_epoch();
        &mut self.host_classes[id.0 as usize]
    }

    /// Inline-cache `(hits, misses)` so far.
    pub fn ic_stats(&self) -> (u64, u64) {
        (self.heap.ic_hits, self.heap.ic_misses)
    }

    /// Binds a global variable.
    pub fn set_global(&mut self, name: &str, value: Value) {
        let name = self.heap.intern_name(name);
        let slot = self.heap.global_slot(name);
        self.heap.set_global(slot, value);
    }

    /// Reads a global variable. A name no script or embedder ever used
    /// is not interned, so it cannot be bound.
    pub fn global(&self, name: &str) -> Option<Value> {
        self.heap.global_by_name(self.heap.lookup_name(name)?)
    }

    /// Wraps a raw host structure pointer as a script value.
    pub fn host_ref(addr: u64, class: HostClassId) -> Value {
        Value::HostRef { addr, class }
    }

    /// Evaluates a script in the global scope (the `JS_Eval` analog),
    /// parsing it only if no cached program has the same source. A parse
    /// error is not cached.
    pub fn eval(&mut self, machine: &mut Machine, source: &str) -> Result<Value, EngineError> {
        let program = self.program(source)?;
        let global = Rc::clone(&self.global);
        self.ctx(machine).run(&program.code, &global)
    }

    /// Evaluates a script on the reference tree walker instead of its op
    /// stream (closure bodies included).
    #[cfg(test)]
    pub(crate) fn eval_walker(
        &mut self,
        machine: &mut Machine,
        source: &str,
        walk: crate::walker::Walk,
    ) -> Result<Value, EngineError> {
        let program = self.program(source)?;
        let global = Rc::clone(&self.global);
        let mut ctx = self.ctx(machine);
        ctx.walker = Some(walk);
        ctx.walk_program(&program.stmts, &global)
    }

    /// The cached program of `source`, parsed and lowered on a miss.
    fn program(&mut self, source: &str) -> Result<Rc<Program>, EngineError> {
        if let Some((_, program)) = self.programs.iter().find(|(cached, _)| **cached == *source) {
            return Ok(Rc::clone(program));
        }
        self.programs_parsed += 1;
        let program = Rc::new(parse_program(source, &mut self.heap)?);
        if self.programs.len() == PROGRAM_CACHE_LEN {
            self.programs.pop_front();
        }
        self.programs.push_back((source.into(), Rc::clone(&program)));
        Ok(program)
    }

    /// An execution context over this engine's state.
    fn ctx<'a>(&'a mut self, machine: &'a mut Machine) -> Ctx<'a> {
        Ctx::new(
            machine,
            &mut self.heap,
            &self.natives,
            &self.host_classes,
            &mut self.fuel,
            &mut self.rng,
            &mut self.clock,
            &mut self.output,
            &mut self.stacks,
        )
    }

    /// Calls a global function by name (the `JS_CallFunctionName` analog).
    pub fn call(
        &mut self,
        machine: &mut Machine,
        name: &str,
        args: &[Value],
    ) -> Result<Value, EngineError> {
        let f = self.global(name).ok_or_else(|| EngineError::Reference(name.to_string()))?;
        self.ctx(machine).call_value(&f, Value::Undefined, args)
    }

    // ---- standard library ----

    fn install_stdlib(&mut self, machine: &mut Machine) -> Result<(), EngineError> {
        // Math.
        let math = self.heap.new_object();
        let def_math = |engine: &mut Engine,
                        machine: &mut Machine,
                        name: &str,
                        f: NativeFn|
         -> Result<(), EngineError> {
            let handle = engine.add_method_native(f);
            engine.heap.prop_set(machine, math, &name.into(), &Value::Native(handle))
        };
        macro_rules! math1 {
            ($name:literal, $f:expr) => {
                def_math(
                    self,
                    machine,
                    $name,
                    Rc::new(move |ctx: &mut Ctx, _this, args: &[Value]| {
                        let x = ctx.to_number(args.first().unwrap_or(&Value::Undefined))?;
                        #[allow(clippy::redundant_closure_call)]
                        Ok(Value::Num(($f)(x)))
                    }),
                )?;
            };
        }
        math1!("floor", f64::floor);
        math1!("ceil", f64::ceil);
        math1!("round", js_round);
        math1!("abs", f64::abs);
        math1!("sqrt", f64::sqrt);
        math1!("sin", f64::sin);
        math1!("cos", f64::cos);
        math1!("tan", f64::tan);
        math1!("atan", f64::atan);
        math1!("exp", f64::exp);
        math1!("log", f64::ln);
        def_math(
            self,
            machine,
            "pow",
            Rc::new(|ctx, _this, args| {
                let a = ctx.to_number(args.first().unwrap_or(&Value::Undefined))?;
                let b = ctx.to_number(args.get(1).unwrap_or(&Value::Undefined))?;
                Ok(Value::Num(a.powf(b)))
            }),
        )?;
        def_math(
            self,
            machine,
            "atan2",
            Rc::new(|ctx, _this, args| {
                let a = ctx.to_number(args.first().unwrap_or(&Value::Undefined))?;
                let b = ctx.to_number(args.get(1).unwrap_or(&Value::Undefined))?;
                Ok(Value::Num(a.atan2(b)))
            }),
        )?;
        def_math(
            self,
            machine,
            "min",
            Rc::new(|ctx, _this, args| {
                let mut m = f64::INFINITY;
                for a in args {
                    let x = ctx.to_number(a)?;
                    // NaN wins, and -0 is below +0.
                    m = if m.is_nan() || x.is_nan() {
                        f64::NAN
                    } else if x < m || (x == m && x.is_sign_negative()) {
                        x
                    } else {
                        m
                    };
                }
                Ok(Value::Num(m))
            }),
        )?;
        def_math(
            self,
            machine,
            "max",
            Rc::new(|ctx, _this, args| {
                let mut m = f64::NEG_INFINITY;
                for a in args {
                    let x = ctx.to_number(a)?;
                    // NaN wins, and +0 is above -0.
                    m = if m.is_nan() || x.is_nan() {
                        f64::NAN
                    } else if x > m || (x == m && m.is_sign_negative()) {
                        x
                    } else {
                        m
                    };
                }
                Ok(Value::Num(m))
            }),
        )?;
        def_math(
            self,
            machine,
            "random",
            Rc::new(|ctx, _this, _args| {
                // xorshift64*, deterministic per engine.
                let mut x = *ctx.rng;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *ctx.rng = x;
                let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
                Ok(Value::Num(bits as f64 / (1u64 << 53) as f64))
            }),
        )?;
        self.heap.prop_set(machine, math, &"PI".into(), &Value::Num(std::f64::consts::PI))?;
        self.heap.prop_set(machine, math, &"E".into(), &Value::Num(std::f64::consts::E))?;
        self.set_global("Math", Value::Obj(math));

        // String.fromCharCode.
        let string_ns = self.heap.new_object();
        let from_char_code = self.add_method_native(Rc::new(|ctx, _this, args| {
            let mut chars = Vec::with_capacity(args.len());
            for a in args {
                let code = ctx.to_number(a)? as u32;
                chars.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            Ok(Value::Str(match chars[..] {
                [c] => ctx.heap.char_str(c),
                _ => ctx.heap.new_str(chars.into_iter().collect::<String>()),
            }))
        }));
        self.heap.prop_set(
            machine,
            string_ns,
            &"fromCharCode".into(),
            &Value::Native(from_char_code),
        )?;
        self.set_global("String", Value::Obj(string_ns));

        // Date.now (virtual milliseconds).
        let date_ns = self.heap.new_object();
        let now = self.add_method_native(Rc::new(|ctx, _this, _args| {
            Ok(Value::Num((*ctx.clock / 1000) as f64))
        }));
        self.heap.prop_set(machine, date_ns, &"now".into(), &Value::Native(now))?;
        self.set_global("Date", Value::Obj(date_ns));

        // JSON.
        let json_ns = self.heap.new_object();
        let stringify = self.add_method_native(Rc::new(|ctx, _this, args| {
            let v = args.first().cloned().unwrap_or(Value::Undefined);
            let mut out = String::new();
            json_stringify(ctx, &v, &mut out)?;
            Ok(Value::Str(ctx.heap.new_str(out)))
        }));
        let parse = self.add_method_native(Rc::new(|ctx, _this, args| {
            let s = match args.first() {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err(EngineError::Type("JSON.parse needs a string".into())),
            };
            let mut p = JsonParser { bytes: s.as_bytes(), pos: 0 };
            let v = p.value(ctx)?;
            p.skip_ws();
            if p.pos != p.bytes.len() {
                return Err(EngineError::Type("trailing JSON garbage".into()));
            }
            Ok(v)
        }));
        self.heap.prop_set(machine, json_ns, &"stringify".into(), &Value::Native(stringify))?;
        self.heap.prop_set(machine, json_ns, &"parse".into(), &Value::Native(parse))?;
        self.set_global("JSON", Value::Obj(json_ns));

        // Global functions.
        self.register_native(
            "parseInt",
            Rc::new(|ctx, _this, args| {
                let s = ctx.to_string_value(args.first().unwrap_or(&Value::Undefined))?;
                let radix = match args.get(1) {
                    Some(v) => crate::to_int32(ctx.to_number(v)?),
                    None => 0,
                };
                Ok(Value::Num(parse_int(&s, radix)))
            }),
        );
        self.register_native(
            "parseFloat",
            Rc::new(|ctx, _this, args| {
                let s = ctx.to_string_value(args.first().unwrap_or(&Value::Undefined))?;
                Ok(Value::Num(parse_float(&s)))
            }),
        );
        self.register_native(
            "isNaN",
            Rc::new(|ctx, _this, args| {
                let n = ctx.to_number(args.first().unwrap_or(&Value::Undefined))?;
                Ok(Value::Bool(n.is_nan()))
            }),
        );
        self.register_native(
            "Array",
            Rc::new(|ctx, _this, args| {
                let arr = match args {
                    [Value::Num(n)] => {
                        let n = *n;
                        if n < 0.0 || n.fract() != 0.0 {
                            return Err(EngineError::Range("bad Array length".into()));
                        }
                        let h = ctx.heap.new_array(ctx.machine, &[])?;
                        // Pre-size via the safe growth path.
                        if n > 0.0 {
                            ctx.heap.elem_set(ctx.machine, h, n - 1.0, &Value::Num(0.0))?;
                        }
                        h
                    }
                    other => ctx.heap.new_array(ctx.machine, other)?,
                };
                Ok(Value::Obj(arr))
            }),
        );
        self.register_native(
            "__print",
            Rc::new(|ctx, _this, args| {
                let mut parts = Vec::with_capacity(args.len());
                for a in args {
                    parts.push(ctx.to_string_value(a)?);
                }
                let line = parts.join(" ");
                ctx.output.push(line);
                Ok(Value::Undefined)
            }),
        );
        // Debug intrinsic: the address of an array's first element. Stands
        // in for the pointer-leak step of a real exploit chain (§5.4 uses
        // a fixed address "for ease of implementation" the same way).
        self.register_native(
            "debugAddrOf",
            Rc::new(|ctx, _this, args| match args.first() {
                Some(Value::Obj(h)) => {
                    let addr = ctx.heap.elems_base(*h)?;
                    Ok(Value::Num(addr as f64))
                }
                _ => Err(EngineError::Type("debugAddrOf needs an array".into())),
            }),
        );
        Ok(())
    }
}

// ---- number parsing and rounding ----

/// JS `parseInt`: leading white space and a sign are skipped; radix 0
/// means 10, or 16 when the text starts with `0x`, which radix 16 also
/// skips; a radix outside 2..=36 gives NaN. The longest prefix of digits
/// in the radix is the value; no digit at all is NaN.
fn parse_int(s: &str, radix: i32) -> f64 {
    let t = s.trim_start_matches(|c: char| c.is_whitespace() || c == '\u{feff}');
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t.strip_prefix('+').unwrap_or(t)),
    };
    let hex = t.get(..2).is_some_and(|p| p.eq_ignore_ascii_case("0x"));
    let (radix, t) = match radix {
        0 | 16 if hex => (16, &t[2..]),
        0 => (10, t),
        2..=36 => (radix as u32, t),
        _ => return f64::NAN,
    };
    let end = t.find(|c: char| !c.is_digit(radix)).unwrap_or(t.len());
    if end == 0 {
        return f64::NAN;
    }
    let v = t[..end]
        .chars()
        .filter_map(|c| c.to_digit(radix))
        .fold(0.0, |n, d| n * f64::from(radix) + f64::from(d));
    if neg {
        -v
    } else {
        v
    }
}

/// JS `parseFloat`: after leading white space, the longest prefix that
/// is a decimal literal (optional sign, digits with an optional point,
/// an optional exponent) or a signed `Infinity`; anything else is NaN.
fn parse_float(s: &str) -> f64 {
    let t = s.trim_start_matches(|c: char| c.is_whitespace() || c == '\u{feff}');
    let b = t.as_bytes();
    let mut end = usize::from(matches!(b.first(), Some(b'+' | b'-')));
    if t[end..].starts_with("Infinity") {
        return if b[0] == b'-' { f64::NEG_INFINITY } else { f64::INFINITY };
    }
    let digits = |from: usize| b[from..].iter().take_while(|c| c.is_ascii_digit()).count();
    let int = digits(end);
    end += int;
    let mut frac = 0;
    if b.get(end) == Some(&b'.') {
        frac = digits(end + 1);
        if int + frac > 0 {
            end += 1 + frac;
        }
    }
    if int + frac == 0 {
        return f64::NAN;
    }
    if matches!(b.get(end), Some(b'e' | b'E')) {
        let sign = usize::from(matches!(b.get(end + 1), Some(b'+' | b'-')));
        let exp = digits(end + 1 + sign);
        if exp > 0 {
            end += 1 + sign + exp;
        }
    }
    t[..end].parse().unwrap_or(f64::NAN)
}

/// JS `Math.round`: the nearest integer, halves toward +∞, keeping the
/// sign of a zero result.
fn js_round(x: f64) -> f64 {
    if !x.is_finite() || x == 0.0 {
        return x;
    }
    if (-0.5..0.0).contains(&x) {
        return -0.0;
    }
    let floor = x.floor();
    if x - floor >= 0.5 {
        floor + 1.0
    } else {
        floor
    }
}

// ---- JSON support ----

fn json_stringify(ctx: &mut Ctx, v: &Value, out: &mut String) -> Result<(), EngineError> {
    match v {
        Value::Num(n) => {
            if n.is_finite() {
                out.push_str(&fmt_f64(*n));
            } else {
                out.push_str("null");
            }
        }
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Null | Value::Undefined => out.push_str("null"),
        Value::Str(s) => json_quote(s, out),
        Value::Obj(h) => {
            if ctx.heap.kind(*h)? == crate::heap::ObjKind::Array {
                out.push('[');
                let len = ctx.heap.array_len(ctx.machine, *h)?;
                for i in 0..len {
                    if i > 0 {
                        out.push(',');
                    }
                    let e = ctx.heap.elem_get(ctx.machine, *h, i as f64)?;
                    json_stringify(ctx, &e, out)?;
                }
                out.push(']');
            } else {
                out.push('{');
                let names = ctx.heap.prop_names(*h)?;
                for (i, name) in names.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json_quote(name, out);
                    out.push(':');
                    let e = ctx.heap.prop_get(ctx.machine, *h, name)?;
                    json_stringify(ctx, &e, out)?;
                }
                out.push('}');
            }
        }
        Value::Fun(_) | Value::Native(_) | Value::HostRef { .. } => out.push_str("null"),
    }
    Ok(())
}

fn json_quote(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn value(&mut self, ctx: &mut Ctx) -> Result<Value, EngineError> {
        self.skip_ws();
        let err = || EngineError::Type("bad JSON".to_string());
        match self.bytes.get(self.pos).copied().ok_or_else(err)? {
            b'{' => {
                self.pos += 1;
                let h = ctx.heap.new_object();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(h));
                }
                loop {
                    self.skip_ws();
                    let key = match self.value(ctx)? {
                        Value::Str(s) => s,
                        _ => return Err(err()),
                    };
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b':') {
                        return Err(err());
                    }
                    self.pos += 1;
                    let v = self.value(ctx)?;
                    ctx.heap.prop_set(ctx.machine, h, &key, &v)?;
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(h));
                        }
                        _ => return Err(err()),
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Obj(ctx.heap.new_array(ctx.machine, &items)?));
                }
                loop {
                    items.push(self.value(ctx)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Obj(ctx.heap.new_array(ctx.machine, &items)?));
                        }
                        _ => return Err(err()),
                    }
                }
            }
            b'"' => {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    let c = self.bytes.get(self.pos).copied().ok_or_else(err)?;
                    self.pos += 1;
                    match c {
                        b'"' => return Ok(Value::Str(ctx.heap.new_str(s))),
                        b'\\' => {
                            let e = self.bytes.get(self.pos).copied().ok_or_else(err)?;
                            self.pos += 1;
                            match e {
                                b'n' => s.push('\n'),
                                b't' => s.push('\t'),
                                b'r' => s.push('\r'),
                                b'"' => s.push('"'),
                                b'\\' => s.push('\\'),
                                b'/' => s.push('/'),
                                b'u' => {
                                    let hex =
                                        self.bytes.get(self.pos..self.pos + 4).ok_or_else(err)?;
                                    self.pos += 4;
                                    let code = u32::from_str_radix(
                                        std::str::from_utf8(hex).map_err(|_| err())?,
                                        16,
                                    )
                                    .map_err(|_| err())?;
                                    s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                                }
                                _ => return Err(err()),
                            }
                        }
                        c => s.push(c as char),
                    }
                }
            }
            b't' => {
                self.expect(b"true")?;
                Ok(Value::Bool(true))
            }
            b'f' => {
                self.expect(b"false")?;
                Ok(Value::Bool(false))
            }
            b'n' => {
                self.expect(b"null")?;
                Ok(Value::Null)
            }
            _ => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && matches!(
                        self.bytes[self.pos],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| err())?;
                text.parse::<f64>().map(Value::Num).map_err(|_| err())
            }
        }
    }

    fn expect(&mut self, word: &[u8]) -> Result<(), EngineError> {
        if self.bytes.get(self.pos..self.pos + word.len()) == Some(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(EngineError::Type("bad JSON".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use lir::{FaultPolicy, Machine};

    use super::*;

    /// A catalog-shaped kernel (the SHA-256 compression loop of the serve
    /// catalog's `sha_like`, plus a method call and string building), run
    /// the way a serve worker runs a request: evaluate, then call `run`.
    const KERNEL: &str = r#"
var K = [];
(function() {
  var seed = 0x9e3779b9;
  for (var i = 0; i < 64; i++) {
    seed = (seed * 1664525 + 1013904223) | 0;
    K.push(seed);
  }
})();
var acc = {total: 0, add: function(v) { this.total = (this.total + v) | 0; return this.total; }};
function rotr(x, n) { return (x >>> n) | (x << (32 - n)); }
function compress(state, w) {
  var a = state[0], b = state[1], c = state[2], d = state[3];
  var e = state[4], f = state[5], g = state[6], h = state[7];
  for (var t = 16; t < 64; t++) {
    var s0 = rotr(w[t-15], 7) ^ rotr(w[t-15], 18) ^ (w[t-15] >>> 3);
    var s1 = rotr(w[t-2], 17) ^ rotr(w[t-2], 19) ^ (w[t-2] >>> 10);
    w[t] = (w[t-16] + s0 + w[t-7] + s1) | 0;
  }
  for (var t = 0; t < 64; t++) {
    var S1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    var ch = (e & f) ^ (~e & g);
    var t1 = (h + S1 + ch + K[t] + w[t]) | 0;
    var S0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    var maj = (a & b) ^ (a & c) ^ (b & c);
    var t2 = (S0 + maj) | 0;
    h = g; g = f; f = e; e = (d + t1) | 0;
    d = c; c = b; b = a; a = (t1 + t2) | 0;
  }
  state[0] = (state[0] + a) | 0; state[4] = (state[4] + e) | 0;
}
function run() {
  var state = [0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
               0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19];
  var w = [];
  for (var i = 0; i < 64; i++) w.push(0);
  for (var b = 0; b < 2; b++) {
    for (var i = 0; i < 16; i++) w[i] = (b * 16 + i) * 0x01010101;
    compress(state, w);
  }
  var label = 'k' + (state[0] & 7);
  return acc.add(state[0] ^ state[4]) + label.length;
}
"#;

    #[test]
    fn re_evaluating_a_script_interns_no_names_and_adds_no_globals() {
        let mut machine = Machine::split(FaultPolicy::Crash).unwrap();
        let mut engine = Engine::new(&mut machine).unwrap();
        let mut request = |engine: &mut Engine| {
            engine.eval(&mut machine, KERNEL).unwrap();
            match engine.call(&mut machine, "run", &[]).unwrap() {
                Value::Num(n) => n,
                other => panic!("run returned {other:?}"),
            }
        };
        let first = request(&mut engine);
        let strings = engine.heap.string_count();
        let globals = engine.heap.bound_globals();
        for _ in 1..100 {
            // Each eval rebinds `acc`, so every request sees the same result.
            assert_eq!(request(&mut engine), first);
            assert_eq!(engine.heap.string_count(), strings, "the string table grew");
            assert_eq!(engine.heap.bound_globals(), globals, "the root scope grew");
        }
    }
}
