//! The reference tree walker, compiled for tests only.
//!
//! This is the engine's evaluator as it was before lowering, in its plain
//! generic form: one tick on entering each statement and expression node,
//! operands evaluated left to right into `Value`s, and every operator,
//! member access and call through the same helpers the op stream uses.
//! The differential proptests below run random programs on both and
//! require the same results, errors, counters and clock, also when the
//! step budget runs out partway. Walked [`Walk::Uncached`], every
//! property site takes the shape-table walk, which makes the walker the
//! oracle of the inline caches too.

use std::rc::Rc;

use crate::ast::{AssignOp, Expr, FuncDef, Layout, Stmt, Target, UnaryOp};
use crate::error::EngineError;
use crate::exec::{number_of, Ctx, Env};
use crate::heap::Closure;
use crate::ic::PropIc;
use crate::lower::Method;
use crate::Value;

/// How the walker treats property sites.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Walk {
    /// Every site consults its inline cache, as the op stream's do.
    Cached,
    /// No site consults its cache: each passes `None` for its `PropIc`
    /// and walks the shape table.
    Uncached,
}

/// Statement completion.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

impl Ctx<'_> {
    /// The cache a property site passes: its own, or none when walking
    /// uncached.
    fn site<'s>(&self, ic: &'s PropIc) -> Option<&'s PropIc> {
        (self.walker == Some(Walk::Cached)).then_some(ic)
    }

    /// Runs a program's statements in the root frame.
    pub(crate) fn walk_program(
        &mut self,
        stmts: &[Stmt],
        env: &Rc<Env>,
    ) -> Result<Value, EngineError> {
        match self.exec_block(stmts, env)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Undefined),
        }
    }

    /// Runs a closure body in its filled frame.
    pub(crate) fn walk_body(
        &mut self,
        def: &FuncDef,
        frame: &Rc<Env>,
    ) -> Result<Value, EngineError> {
        self.walk_program(&def.body, frame)
    }

    /// Runs `body` in the frame of a `for` or block scope with `layout`:
    /// a new one, or `env` itself when the scope can bind nothing.
    fn in_scope(
        &mut self,
        layout: &Layout,
        env: &Rc<Env>,
        body: impl FnOnce(&mut Self, &Rc<Env>) -> Result<Flow, EngineError>,
    ) -> Result<Flow, EngineError> {
        if layout.is_empty() {
            return body(self, env);
        }
        let scope = self.frame(layout, Rc::clone(env));
        let flow = body(self, &scope);
        self.release(scope);
        flow
    }

    fn exec_block(&mut self, stmts: &[Stmt], env: &Rc<Env>) -> Result<Flow, EngineError> {
        // Hoist function declarations so mutual recursion works.
        for stmt in stmts {
            if let Stmt::Func(def, name) = stmt {
                let handle = self.heap.add_closure(Rc::clone(def), Rc::clone(env));
                self.declare(env, name, Value::Fun(handle));
            }
        }
        for stmt in stmts {
            match self.exec_stmt(stmt, env)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &Rc<Env>) -> Result<Flow, EngineError> {
        self.tick()?;
        match stmt {
            Stmt::Var(decls) => {
                for (name, init) in decls {
                    let v = match init {
                        Some(e) => self.eval(e, env)?,
                        // Re-declaring a bound name keeps its value.
                        None if self.bound(env, name) => continue,
                        None => Value::Undefined,
                    };
                    self.declare(env, name, v);
                }
                Ok(Flow::Normal)
            }
            Stmt::Func(..) => Ok(Flow::Normal), // Hoisted.
            Stmt::Expr(e) => {
                self.eval(e, env)?;
                Ok(Flow::Normal)
            }
            Stmt::If(cond, then, alt) => {
                if self.eval(cond, env)?.truthy() {
                    self.exec_block(then, env)
                } else {
                    self.exec_block(alt, env)
                }
            }
            Stmt::While(cond, body) => {
                while self.eval(cond, env)?.truthy() {
                    match self.exec_block(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile(body, cond) => {
                loop {
                    match self.exec_block(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if !self.eval(cond, env)?.truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { init, cond, update, body, layout } => {
                self.in_scope(layout, env, |ctx, scope| {
                    if let Some(init) = init {
                        ctx.exec_stmt(init, scope)?;
                    }
                    loop {
                        if let Some(cond) = cond {
                            if !ctx.eval(cond, scope)?.truthy() {
                                break;
                            }
                        }
                        match ctx.exec_block(body, scope)? {
                            Flow::Break => break,
                            Flow::Return(v) => return Ok(Flow::Return(v)),
                            Flow::Normal | Flow::Continue => {}
                        }
                        if let Some(update) = update {
                            ctx.eval(update, scope)?;
                        }
                    }
                    Ok(Flow::Normal)
                })
            }
            Stmt::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(e, env)?,
                    None => Value::Undefined,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Block(body, layout) => {
                self.in_scope(layout, env, |ctx, scope| ctx.exec_block(body, scope))
            }
        }
    }

    /// Evaluates an expression.
    pub(crate) fn eval(&mut self, expr: &Expr, env: &Rc<Env>) -> Result<Value, EngineError> {
        self.tick()?;
        match expr {
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Undefined => Ok(Value::Undefined),
            Expr::This(name) => Ok(self.read(env, name).unwrap_or(Value::Undefined)),
            Expr::Ident(name) => self.lookup(env, name),
            Expr::ArrayLit(items) => {
                let mut vals = Vec::with_capacity(items.len());
                for item in items {
                    vals.push(self.eval(item, env)?);
                }
                Ok(Value::Obj(self.heap.new_array(self.machine, &vals)?))
            }
            Expr::ObjectLit(props) => {
                let h = self.heap.new_object();
                for (key, value_expr, ic) in props {
                    let v = self.eval(value_expr, env)?;
                    match self.site(ic) {
                        Some(ic) => self.heap.prop_set_ic(self.machine, h, key, &v, ic)?,
                        None => self.heap.prop_set(self.machine, h, key, &v)?,
                    }
                }
                Ok(Value::Obj(h))
            }
            Expr::Function(def) => {
                let handle = self.heap.add_closure(Rc::clone(def), Rc::clone(env));
                Ok(Value::Fun(handle))
            }
            Expr::Call { callee, args } => self.eval_call(callee, args, env),
            Expr::Member(obj, name, ic) => {
                let receiver = self.eval(obj, env)?;
                self.member_get(&receiver, name, self.site(ic))
            }
            Expr::Index(obj, idx) => {
                let receiver = self.eval(obj, env)?;
                let index = self.eval(idx, env)?;
                self.index_get(&receiver, &index)
            }
            Expr::Binary(op, lhs, rhs) => {
                let a = self.eval(lhs, env)?;
                let b = self.eval(rhs, env)?;
                self.binary(*op, &a, &b)
            }
            Expr::And(lhs, rhs) => {
                let a = self.eval(lhs, env)?;
                if a.truthy() {
                    self.eval(rhs, env)
                } else {
                    Ok(a)
                }
            }
            Expr::Or(lhs, rhs) => {
                let a = self.eval(lhs, env)?;
                if a.truthy() {
                    Ok(a)
                } else {
                    self.eval(rhs, env)
                }
            }
            Expr::Unary(op, operand) => {
                let v = match (op, &**operand) {
                    // `typeof` of a name bound nowhere is "undefined", not
                    // a ReferenceError.
                    (UnaryOp::TypeOf, Expr::Ident(name)) => {
                        self.read(env, name).unwrap_or(Value::Undefined)
                    }
                    _ => self.eval(operand, env)?,
                };
                Ok(self.unary(*op, &v))
            }
            Expr::Ternary(cond, a, b) => {
                if self.eval(cond, env)?.truthy() {
                    self.eval(a, env)
                } else {
                    self.eval(b, env)
                }
            }
            Expr::Assign(target, op, value_expr) => {
                let value = match op {
                    AssignOp::Assign => self.eval(value_expr, env)?,
                    AssignOp::Compound(bin) => {
                        let current = self.read_target(target, env)?;
                        let rhs = self.eval(value_expr, env)?;
                        self.binary(*bin, &current, &rhs)?
                    }
                };
                self.write_target(target, env, &value)?;
                Ok(value)
            }
            Expr::IncrDecr { target, is_incr, prefix } => {
                let step = if *is_incr { 1.0 } else { -1.0 };
                let old = number_of(&self.read_target(target, env)?);
                self.write_target(target, env, &Value::Num(old + step))?;
                Ok(Value::Num(if *prefix { old + step } else { old }))
            }
        }
    }

    fn eval_call(
        &mut self,
        callee: &Expr,
        args: &[Expr],
        env: &Rc<Env>,
    ) -> Result<Value, EngineError> {
        if let Expr::Member(obj, name, ic) = callee {
            let receiver = self.eval(obj, env)?;
            let args = self.eval_args(args, env)?;
            return self.call_method(receiver, name, Method::of(name), self.site(ic), &args);
        }
        match self.eval(callee, env)? {
            // A closure's frame is taken before its arguments run; they
            // are written straight into it.
            Value::Fun(handle) if self.heap.closure(handle).is_ok() => {
                let Closure { def, env: captured, .. } = self.heap.closure(handle)?.clone();
                let frame = self.frame(&def.layout, captured);
                frame.set(0, Value::Undefined);
                if let Some(slot) = def.self_slot {
                    frame.set(slot as usize, Value::Fun(handle));
                }
                for (i, e) in args.iter().enumerate() {
                    let v = match self.eval(e, env) {
                        Ok(v) => v,
                        Err(err) => {
                            self.release(frame);
                            return Err(err);
                        }
                    };
                    if let Some(&slot) = def.param_slots.get(i) {
                        frame.set(slot as usize, v);
                    }
                }
                for &slot in def.param_slots.iter().skip(args.len()) {
                    frame.set(slot as usize, Value::Undefined);
                }
                self.enter(def, frame)
            }
            // A stale handle takes the generic path, which fails only
            // after the arguments ran.
            target => {
                let args = self.eval_args(args, env)?;
                self.call_value(&target, Value::Undefined, &args)
            }
        }
    }

    fn eval_args(&mut self, args: &[Expr], env: &Rc<Env>) -> Result<Vec<Value>, EngineError> {
        args.iter().map(|a| self.eval(a, env)).collect()
    }

    fn read_target(&mut self, target: &Target, env: &Rc<Env>) -> Result<Value, EngineError> {
        match target {
            Target::Ident(name) => self.lookup(env, name),
            Target::Member(obj, name, ic) => {
                let receiver = self.eval(obj, env)?;
                self.member_get(&receiver, name, self.site(ic))
            }
            Target::Index(obj, idx) => {
                let receiver = self.eval(obj, env)?;
                let index = self.eval(idx, env)?;
                self.index_get(&receiver, &index)
            }
        }
    }

    fn write_target(
        &mut self,
        target: &Target,
        env: &Rc<Env>,
        value: &Value,
    ) -> Result<(), EngineError> {
        match target {
            Target::Ident(name) => {
                self.assign(env, name, value.clone());
                Ok(())
            }
            Target::Member(obj, name, ic) => {
                let receiver = self.eval(obj, env)?;
                self.member_set(&receiver, name, value, self.site(ic))
            }
            Target::Index(obj, idx) => {
                let receiver = self.eval(obj, env)?;
                let index = self.eval(idx, env)?;
                self.index_set(&receiver, &index, value)
            }
        }
    }
}

mod tests {
    //! The differential proptest: random programs from the language subset
    //! run on the op stream and on the walker must agree on everything the
    //! engine reports.

    use std::rc::Rc;

    use lir::{FaultPolicy, Machine};
    use proptest::prelude::*;

    use super::Walk;
    use crate::{Engine, EngineError, HostClass, HostFieldKind, NativeFn, Value};

    /// Names a generated program binds at its top (and reads and writes
    /// anywhere); `w` is bound nowhere, so reading it is a
    /// `ReferenceError`, and `u` only ever becomes an implicit global.
    const VARS: [&str; 6] = ["x", "y", "z", "s", "arr", "obj"];

    /// Receivers of method calls and `.length` reads: strings (one not
    /// ASCII, whose positions are walked), an array,
    /// a plain object, an object whose `charCodeAt`, `push` and `length`
    /// are its own (two of them closures), a host node (`n`, whose
    /// `length` is a field and `push` a native), values read through a
    /// member or an element, and a call's result.
    const RECEIVERS: [&str; 11] =
        ["z", "'aéb'", "arr", "obj", "o2", "n", "obj.q", "arr[0]", "[z][0]", "x", "arr.join('')"];

    /// Builds source text from a tape of choices; an exhausted tape picks
    /// the first (simplest) choice everywhere, so shrinking the tape
    /// shrinks the program.
    struct Gen<'t> {
        tape: &'t [u32],
        at: usize,
        out: String,
        /// Nesting depth of statements and expressions.
        depth: u32,
        /// Counter names in use by enclosing loops.
        loops: u32,
        /// Functions declared so far (`f0`, `f1`, ...).
        funcs: u32,
        /// Whether a function body is being generated.
        in_func: bool,
        /// Leaf functions declared so far (`l0`, `l1`, ...).
        leaves: u32,
        /// Names of enclosing scopes a nested leaf may read.
        outer: &'static [&'static str],
    }

    impl Gen<'_> {
        fn pick(&mut self, n: u32) -> u32 {
            let choice = self.tape.get(self.at).copied().unwrap_or(0);
            self.at += 1;
            choice % n
        }

        /// A name to assign: rarely the implicit global `u`.
        fn var(&mut self) -> &'static str {
            match self.pick(16) {
                0 => "u",
                i => VARS[(i as usize) % 4],
            }
        }

        /// A name to read: a global, a parameter or local of the enclosing
        /// function, an enclosing loop's counter, or rarely `w` or `u`.
        fn read(&mut self) -> String {
            let mut names: Vec<String> = VARS[..4].iter().map(|v| v.to_string()).collect();
            if self.in_func {
                names.extend(["a", "b", "t", "this"].map(String::from));
            }
            names.extend((0..self.loops).map(|l| format!("i{l}")));
            names.extend(self.outer.iter().map(|v| v.to_string()));
            match self.pick(64) {
                0 => "w".into(),
                1 => "u".into(),
                i => names[i as usize % names.len()].clone(),
            }
        }

        fn program(mut self) -> String {
            self.out +=
                "var x = 1, y = 2.5, z = 'ab', s = 0, arr = [1, 2, 3], obj = {p: 1, q: 'r'};\n";
            self.out += "function mk() { var c = 0; return function(d) { c += d; return c; }; }\n";
            self.out += "var o2 = {p: 2, charCodeAt: function(i) { return i + this.p; }, \
                         push: function(v) { s += v; return s; }, length: 4};\n";
            let n = 1 + self.pick(10);
            for _ in 0..n {
                self.stmt();
            }
            self.out +=
                "return '' + x + '|' + y + '|' + z + '|' + s + '|' + arr + '|' + obj.p + obj.q;\n";
            self.out
        }

        fn block(&mut self) {
            self.out += "{ ";
            let n = self.pick(3);
            for _ in 0..n {
                self.stmt();
            }
            self.out += "} ";
        }

        fn stmt(&mut self) {
            self.depth += 1;
            let deep = self.depth > 3;
            match self.pick(if deep { 8 } else { 23 }) {
                0 => {
                    let v = self.var();
                    self.out += &format!("var {v} = ");
                    self.expr();
                    self.out += "; ";
                }
                1 => {
                    let v = self.var();
                    self.out += &format!("{v} = ");
                    self.expr();
                    self.out += "; ";
                }
                2 => {
                    let v = self.var();
                    let op =
                        ["+=", "-=", "*=", "|=", "<<=", ">>>=", "%=", "^="][self.pick(8) as usize];
                    self.out += &format!("{v} {op} ");
                    self.expr();
                    self.out += "; ";
                }
                3 => {
                    let v = self.var();
                    let form = ["{v}++", "++{v}", "{v}--", "--{v}"][self.pick(4) as usize];
                    self.out += &form.replace("{v}", v);
                    self.out += "; ";
                }
                4 => {
                    // `% 16` keeps negative, fractional and NaN keys but no
                    // index near the 2^28 element cap, whose buffer would
                    // take gigabytes; the writes of statement 17 take the
                    // fixed keys at and past the cap.
                    self.out += "arr[(";
                    self.expr();
                    self.out += ") % 16] = ";
                    self.expr();
                    self.out += "; ";
                }
                5 => {
                    let form =
                        ["obj.p = ", "obj.q += ", "obj.t = ", "arr[1] += "][self.pick(4) as usize];
                    self.out += form;
                    self.expr();
                    self.out += "; ";
                }
                6 => {
                    self.expr();
                    self.out += "; ";
                }
                7 if self.loops > 0 => {
                    self.out += "if (";
                    self.expr();
                    let jump = if self.pick(2) == 0 { ") break; " } else { ") continue; " };
                    self.out += jump;
                }
                7 => {
                    self.out += "s += ";
                    self.expr();
                    self.out += "; ";
                }
                8 | 9 => {
                    self.out += "if (";
                    self.expr();
                    self.out += ") ";
                    self.block();
                    if self.pick(2) == 1 {
                        self.out += "else ";
                        self.block();
                    }
                }
                10 => {
                    let i = format!("i{}", self.loops);
                    let bound = 1 + self.pick(4);
                    let scoped = if self.pick(2) == 0 { "var " } else { "" };
                    self.out += &format!("for ({scoped}{i} = 0; {i} < {bound}; {i}++) ");
                    self.loops += 1;
                    self.block();
                    self.loops -= 1;
                }
                11 => {
                    let i = format!("i{}", self.loops);
                    let bound = 1 + self.pick(3);
                    self.out += &format!("var {i} = 0; while ({i} < {bound}) {{ {i}++; ");
                    self.loops += 1;
                    self.block();
                    self.loops -= 1;
                    self.out += "} ";
                }
                12 => {
                    let i = format!("i{}", self.loops);
                    self.out += &format!("var {i} = 0; do {{ {i}++; ");
                    self.loops += 1;
                    self.block();
                    self.loops -= 1;
                    let bound = 1 + self.pick(3);
                    self.out += &format!("}} while ({i} < {bound}); ");
                }
                13 => {
                    let f = self.funcs;
                    self.funcs += 1;
                    let saved = self.loops;
                    self.loops = 0;
                    let outer = std::mem::replace(&mut self.in_func, true);
                    self.out += &format!("function f{f}(a, b) {{ var t = a; ");
                    self.block();
                    self.out += "return ";
                    self.expr();
                    self.out += "; } ";
                    self.loops = saved;
                    self.in_func = outer;
                }
                14 => {
                    self.out += "{ let y = ";
                    self.expr();
                    self.out += "; ";
                    self.stmt();
                    self.out += "} ";
                }
                15 => {
                    self.out += "var h = function(a) { return a + ";
                    self.expr();
                    self.out += "; }; s = h(";
                    self.expr();
                    self.out += "); ";
                }
                16 => {
                    // A closure that reads `this`, called as a method with
                    // the receiver in place or on the stack, or plainly.
                    let body = ["this.p + a", "this.q", "(this.p = a)", "typeof this"]
                        [self.pick(4) as usize];
                    let call = ["obj.m(", "[obj][0].m(", "obj.m(1, ", "g("][self.pick(4) as usize];
                    self.out += &format!(
                        "obj.m = function(a) {{ return {body}; }}; var g = obj.m; s = {call}"
                    );
                    self.expr();
                    self.out += "); ";
                }
                17 => {
                    let target = ["arr", "obj"][self.pick(2) as usize];
                    self.out += target;
                    self.key();
                    self.out += " = ";
                    self.expr();
                    self.out += "; ";
                }
                18 => {
                    self.out += "var k = mk(); k(";
                    self.expr();
                    self.out += "); s = k(1); ";
                }
                19 => {
                    // A leaf: one `return` of an operand tree over its
                    // parameters, `this`, globals and unbound names.
                    let l = self.leaves;
                    self.leaves += 1;
                    let saved = std::mem::replace(&mut self.loops, 0);
                    let outer = std::mem::replace(&mut self.in_func, true);
                    self.out += &format!("function l{l}(a, b) {{ return ");
                    self.operand();
                    self.out += "; } ";
                    self.loops = saved;
                    self.in_func = outer;
                }
                20 => {
                    // A name bound to a leaf, called with too many and
                    // then too few arguments, then rebound to another
                    // leaf, a closure with a frame, a native or a number,
                    // and called again.
                    let first = [
                        "function(a) { return a * 3; }",
                        "function(a, b) { return b; }",
                        "function me(a) { return me; }",
                        "function(a, b) { return a.length + b; }",
                    ][self.pick(4) as usize];
                    self.out += &format!("var lf = {first}; s = lf(");
                    self.operand();
                    self.out += ", ";
                    self.operand();
                    self.out += ", ";
                    self.operand();
                    self.out += "); s += lf(";
                    self.operand();
                    let second = [
                        "function(a, b) { return a + b; }",
                        "function(a) { return this; }",
                        "function(a) { var q = a; return q + 1; }",
                        "Math.floor",
                        "5",
                        "mk()",
                    ][self.pick(6) as usize];
                    self.out += &format!("); lf = {second}; s = lf(");
                    self.operand();
                    self.out += ", ";
                    self.operand();
                    self.out += "); s += lf(); ";
                }
                21 => {
                    // A leaf nested in a function and a block, reading
                    // their names, a global and perhaps an unbound name.
                    self.out += "var k2 = (function(c) { var e = c + 1; \
                                 { let f = e * 2; return function(d) { return ";
                    let saved = std::mem::replace(&mut self.loops, 0);
                    let outer = std::mem::replace(&mut self.in_func, false);
                    self.outer = &["c", "d", "e", "f"];
                    self.operand();
                    self.outer = &[];
                    self.loops = saved;
                    self.in_func = outer;
                    self.out += "; }; } })(";
                    self.operand();
                    self.out += "); s = k2(";
                    self.operand();
                    self.out += "); ";
                }
                _ => {
                    self.out += "s = ";
                    self.method_call();
                    self.out += "; ";
                }
            }
            self.depth -= 1;
        }

        /// An operand read in place: literals and names under operators,
        /// element and member reads, never a call or an assignment.
        fn operand(&mut self) {
            self.depth += 1;
            match self.pick(if self.depth > 5 { 2 } else { 7 }) {
                0 => {
                    let lit = ["0", "1", "7", "-1", "0.5", "'ab'", "'xé'", "null", "2147483648"]
                        [self.pick(9) as usize];
                    self.out += lit;
                }
                1 | 2 => {
                    let v = self.read();
                    self.out += &v;
                }
                3 | 4 => {
                    let op =
                        ["+", "-", "*", "|", ">>>", "<<", "^", "<", "=="][self.pick(9) as usize];
                    self.out += "(";
                    self.operand();
                    self.out += &format!(" {op} ");
                    self.operand();
                    self.out += ")";
                }
                5 => {
                    let v = self.read();
                    self.out += &v;
                    self.out += ".length";
                }
                _ => {
                    let m = ["arr[1]", "obj.p", "o2.p", "n.length", "z.length", "-x", "~y"]
                        [self.pick(7) as usize];
                    self.out += m;
                }
            }
            self.depth -= 1;
        }

        /// A call of a builtin or own method, or a `.length` read, on one
        /// of [`RECEIVERS`], with in-place or stack-fed arguments.
        fn method_call(&mut self) {
            let receiver = RECEIVERS[self.pick(RECEIVERS.len() as u32) as usize];
            self.out += receiver;
            let method = ["charCodeAt", "charAt", "push", "length", "indexOf", "join", "none"]
                [self.pick(7) as usize];
            if method == "length" {
                self.out += ".length";
                return;
            }
            self.out += &format!(".{method}(");
            for i in 0..self.pick(3) {
                if i > 0 {
                    self.out += ", ";
                }
                if self.pick(4) == 0 {
                    self.expr();
                } else {
                    self.operand();
                }
            }
            self.out += ")";
        }

        /// An index that is not a small plain array index: JS reads it as
        /// a property name (or, for a canonical index string, the index),
        /// or it is an index at or past the 2^28 element cap, whose write
        /// fails without allocating. A computed index is taken `% 16`: one
        /// just under the cap would fill a buffer of gigabytes. Never
        /// `'length'`: writing an array's length through the planted setter
        /// can claim billions of elements.
        fn key(&mut self) {
            const KEYS: [&str; 12] = [
                "null",
                "true",
                "-1",
                "1.5",
                "'p'",
                "'1'",
                "(0/0)",
                "undefined",
                "'7'",
                "2147483648",
                "268435456",
                "4294967296",
            ];
            match self.pick(KEYS.len() as u32 + 1) as usize {
                12 => {
                    self.out += "[(";
                    self.expr();
                    self.out += ") % 16]";
                }
                i => self.out += &format!("[{}]", KEYS[i]),
            }
        }

        fn expr(&mut self) {
            self.depth += 1;
            let deep = self.depth > 5;
            match self.pick(if deep { 3 } else { 19 }) {
                0 => {
                    let lit = [
                        "0",
                        "1",
                        "3",
                        "-1",
                        "0.5",
                        "'ab'",
                        "'7'",
                        "true",
                        "null",
                        "undefined",
                        "2147483648",
                        "(0/0)",
                    ][self.pick(12) as usize];
                    self.out += lit;
                }
                1 => {
                    let v = self.read();
                    self.out += &v;
                }
                2 => {
                    let v = self.read();
                    self.out += &v;
                }
                3..=5 => {
                    let op = [
                        "+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&", "|", "^",
                        "<<", ">>", ">>>", "&&", "||", "===",
                    ][self.pick(20) as usize];
                    self.out += "(";
                    self.expr();
                    self.out += &format!(" {op} ");
                    self.expr();
                    self.out += ")";
                }
                6 => {
                    let op = ["-", "!", "~", "typeof ", "+"][self.pick(5) as usize];
                    self.out += op;
                    self.out += "(";
                    self.expr();
                    self.out += ")";
                }
                7 => {
                    self.out += "(";
                    self.expr();
                    self.out += " ? ";
                    self.expr();
                    self.out += " : ";
                    self.expr();
                    self.out += ")";
                }
                8 => {
                    self.out += "arr[";
                    self.expr();
                    let close = if self.pick(3) == 0 { "]" } else { " & 3]" };
                    self.out += close;
                }
                9 => {
                    let m = ["obj.p", "obj.q", "arr.length", "z.length", "obj.none"]
                        [self.pick(5) as usize];
                    self.out += m;
                }
                10 => {
                    let call = [
                        "Math.floor(",
                        "Math.max(1, ",
                        "Math.min(",
                        "parseInt(",
                        "parseFloat(",
                        "String.fromCharCode(65, ",
                        "isNaN(",
                        "z.charCodeAt(",
                        "z.indexOf('b', ",
                        "arr.push(",
                        "arr.indexOf(",
                        "z.charAt(",
                        "z.concat(",
                        "Math.round(",
                    ][self.pick(14) as usize];
                    self.out += call;
                    self.expr();
                    self.out += ")";
                }
                11 if self.funcs > 0 => {
                    let f = self.pick(self.funcs);
                    self.out += &format!("f{f}(");
                    self.expr();
                    if self.pick(2) == 0 {
                        self.out += ", ";
                        self.expr();
                    }
                    self.out += ")";
                }
                11 => self.out += "arr.join('-')",
                12 => {
                    self.out += "[";
                    self.expr();
                    self.out += ", ";
                    self.expr();
                    self.out += "]";
                }
                13 => {
                    self.out += "({p: ";
                    self.expr();
                    self.out += "}).p";
                }
                14 => {
                    let v = self.var();
                    let form = ["({v} = ", "({v} += ", "({v}++ + "][self.pick(3) as usize];
                    self.out += &form.replace("{v}", v);
                    self.expr();
                    self.out += ")";
                }
                15 => {
                    let receiver = ["arr", "obj", "z"][self.pick(3) as usize];
                    self.out += receiver;
                    self.key();
                }
                16 => {
                    self.out += "(function(a) { return a * 2; })(";
                    self.expr();
                    self.out += ")";
                }
                17 if self.leaves > 0 => {
                    // A leaf called with none to three arguments, in place
                    // or stack-fed.
                    let l = self.pick(self.leaves);
                    self.out += &format!("l{l}(");
                    for i in 0..self.pick(4) {
                        if i > 0 {
                            self.out += ", ";
                        }
                        if self.pick(4) == 0 {
                            self.expr();
                        } else {
                            self.operand();
                        }
                    }
                    self.out += ")";
                }
                17 => self.operand(),
                _ => self.method_call(),
            }
            self.depth -= 1;
        }
    }

    /// Everything a run leaves observable.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        result: String,
        exec: crate::ExecStats,
        ic: (u64, u64),
        compile: (u64, u64),
        elems: u64,
        strings: (u64, u64),
        output: Vec<String>,
        globals: Vec<String>,
        pkey_faults: u64,
    }

    /// Runs `source` on a fresh engine, on the op stream (`None`) or the
    /// walker, on a thread whose stack holds the walker's recursion 128
    /// calls deep in a debug build.
    fn run(source: &str, walker: Option<Walk>, fuel: u64) -> Outcome {
        let source = source.to_string();
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(move || run_here(&source, walker, fuel))
            .expect("spawn")
            .join()
            .expect("the run panicked")
    }

    fn run_here(source: &str, walker: Option<Walk>, fuel: u64) -> Outcome {
        let mut machine = Machine::split(FaultPolicy::Crash).expect("machine");
        let mut engine = Engine::new(&mut machine).expect("engine");
        // A host node `n`: `[length: u64]`, and a native `push` that
        // counts its arguments.
        let addr = machine.alloc.alloc(8).expect("host node");
        machine.mem_write(addr, 3).expect("host node");
        let push: NativeFn = Rc::new(|_, _, args| Ok(Value::Num(args.len() as f64)));
        let push = engine.add_method_native(push);
        let mut class = HostClass::new("Node").field("length", 0, HostFieldKind::U64, false);
        class.methods.insert("push".into(), push);
        let class = engine.define_host_class(class);
        engine.set_global("n", Engine::host_ref(addr, class));
        engine.set_fuel(fuel);
        let result = match walker {
            Some(walk) => engine.eval_walker(&mut machine, source, walk),
            None => engine.eval(&mut machine, source),
        };
        let result = match result {
            Ok(Value::Num(n)) if n.is_nan() => "NaN".to_string(),
            Ok(v) => format!("{v:?}"),
            Err(e) => format!("{e:?}"),
        };
        let globals = VARS
            .iter()
            .chain(&["u", "h", "k", "g", "f0", "f1", "i0", "i1", "l0", "l1", "lf", "k2", "o2"])
            .map(|name| match engine.global(name) {
                Some(Value::Num(n)) if n.is_nan() => "NaN".to_string(),
                other => format!("{other:?}"),
            })
            .collect();
        Outcome {
            result,
            exec: engine.exec_stats(),
            ic: engine.ic_stats(),
            compile: engine.compile_stats(),
            elems: engine.elem_accesses(),
            strings: engine.string_work(),
            output: engine.take_output(),
            globals,
            pkey_faults: machine.space.stats().pkey_faults,
        }
    }

    /// Runs `source` on the op stream and on the walker, and requires
    /// them to agree, returning the op stream's outcome. The op stream
    /// may allocate fewer frames, never more: a leaf call takes none. An
    /// uncached walk must leave both IC counters at zero, and is compared
    /// on everything but them.
    fn agree(source: &str, walk: Walk, fuel: u64) -> Result<Outcome, TestCaseError> {
        let mut ops = run(source, None, fuel);
        let walked = run(source, Some(walk), fuel);
        prop_assert!(ops.exec.fresh_frames <= walked.exec.fresh_frames, "{}", source);
        ops.exec.fresh_frames = walked.exec.fresh_frames;
        let ic = ops.ic;
        if walk == Walk::Uncached {
            prop_assert_eq!(walked.ic, (0, 0), "the uncached walk cached:\n{}", source);
            ops.ic = walked.ic;
        }
        prop_assert_eq!(&ops, &walked, "fuel {}: {}", fuel, source);
        ops.ic = ic;
        Ok(ops)
    }

    /// The program a tape describes.
    fn gen(tape: &[u32]) -> String {
        Gen {
            tape,
            at: 0,
            out: String::new(),
            depth: 0,
            loops: 0,
            funcs: 0,
            in_func: false,
            leaves: 0,
            outer: &[],
        }
        .program()
    }
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The op stream and the walker agree on every generated program:
        /// the value or error, every counter, the clock and the globals
        /// left behind; and again under a budget that runs out partway,
        /// where the op stream must stop at the same clock, exactly one
        /// past the budget. `ic` picks the walker: cached, or uncached so
        /// the op stream's caches are checked against the shape walk.
        #[test]
        fn op_stream_matches_the_walker(
            tape in proptest::collection::vec(any::<u32>(), 0..160),
            cut in any::<u64>(),
            ic in any::<bool>(),
        ) {
            let source = gen(&tape);
            let walk = if ic { Walk::Cached } else { Walk::Uncached };
            let budget = 20_000;
            let steps = agree(&source, walk, budget)?.exec.steps;
            if steps > 0 {
                let fuel = cut % steps.min(budget);
                let ops = agree(&source, walk, fuel)?;
                prop_assert_eq!(&ops.result, &format!("{:?}", EngineError::Fuel), "{}", source);
                prop_assert_eq!(ops.exec.steps, fuel + 1, "{}", source);
            }
        }
    }

    /// Deterministic program generator (xorshift64*), so each proptest
    /// seed maps to exactly one program.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    const PROPS: [&str; 4] = ["a", "b", "c", "d"];

    /// A random program over a handful of shape-sharing objects and one
    /// array: cached property reads (guarded so absent properties fold to
    /// 0 instead of NaN-poisoning the checksum), property writes that
    /// grow shapes mid-loop, reads and writes through one site whose
    /// receiver alternates between two objects, `length` interposition,
    /// and one scripted mid-run property add on a receiver whose site is
    /// already cached.
    fn shape_program(seed: u64) -> String {
        let mut rng = XorShift(seed | 1);
        let nobjs = 1 + rng.below(3);
        let mut src = String::new();
        let mut anchor = "a";
        for o in 0..nobjs {
            let nprops = 1 + rng.below(3);
            let mut lit = Vec::new();
            for p in 0..nprops {
                // Random subset in random order; duplicates are legal JS
                // (last wins).
                let name = PROPS[rng.below(4) as usize];
                if o == 0 && p == 0 {
                    // o0's first property anchors the guaranteed warm
                    // read below, so the site actually hits.
                    anchor = name;
                }
                lit.push(format!("{name}: {}", o * 10 + p));
            }
            src.push_str(&format!("var o{o} = {{{}}};\n", lit.join(", ")));
        }
        src.push_str("var ar = [1, 2, 3];\nvar s = 0;\nvar r = o0;\n");
        let iters = 8 + rng.below(12);
        let mutate_at = rng.below(iters);
        let mutate_obj = rng.below(nobjs);
        src.push_str(&format!("for (var i = 0; i < {iters}; i = i + 1) {{\n"));
        src.push_str(&format!("  s = s + (o0.{anchor} ? o0.{anchor} : 0);\n"));
        for _ in 0..(2 + rng.below(4)) {
            let x = rng.below(nobjs);
            let y = rng.below(nobjs);
            let p = PROPS[rng.below(4) as usize];
            let stmt = match rng.below(7) {
                0 | 1 => format!("  s = s + (o{x}.{p} ? o{x}.{p} : 0);\n"),
                2 => format!("  o{x}.{p} = s + i;\n"),
                3 => "  s = s + ar.length;\n".to_string(),
                4 => "  ar.push(i);\n".to_string(),
                5 => format!("  r = i % 2 == 0 ? o{x} : o{y};\n  s = s + (r.{p} ? r.{p} : 0);\n"),
                _ => format!("  r = i % 2 == 0 ? o{x} : o{y};\n  r.{p} = s - i;\n"),
            };
            src.push_str(&stmt);
        }
        // The shape mutation the caches must survive: a property add on
        // a receiver whose read sites are warm by this iteration.
        src.push_str(&format!("  if (i == {mutate_at}) {{ o{mutate_obj}.zz = 77; }}\n"));
        src.push_str("}\n");
        for o in 0..nobjs {
            src.push_str(&format!("__print(JSON.stringify(o{o}));\n"));
        }
        src.push_str("__print('' + s);\n");
        src
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Shape-sharing objects mutated under warm sites: the cached op
        /// stream agrees with the uncached walker on every observable,
        /// and its looped member site actually hits.
        #[test]
        fn ic_on_and_off_are_observably_identical(seed in 1u64..u64::MAX) {
            let program = shape_program(seed);
            let (hits, _) = agree(&program, Walk::Uncached, 20_000)?.ic;
            prop_assert!(hits > 0, "looped member site never hit:\n{}", program);
        }
    }
}
