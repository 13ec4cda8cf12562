//! The tree-walking evaluator.

use std::cell::RefCell;
use std::rc::Rc;

use lir::Machine;

use crate::ast::{AssignOp, BinaryOp, Expr, Layout, Name, Slot, Stmt, Target, UnaryOp};
use crate::engine::{HostClass, HostField, HostFieldKind, NativeFn};
use crate::error::EngineError;
use crate::heap::{Closure, Heap, ObjKind, Sym};
use crate::ic::{IcState, PropIc};
use crate::parser::fmt_f64;
use crate::string::JsStr;
use crate::{to_int32, to_uint32, Value};

/// Maximum JS call depth (guards the native stack).
const MAX_CALL_DEPTH: usize = 128;

/// A frame: the slots of one function, `for` or block scope, in its
/// layout's order (`crate::resolve`), plus the enclosing frame.
///
/// Every chain ends in the root frame, which binds nothing itself: the
/// root scope's bindings are the heap's dense global slots. A slot starts
/// unbound (`None`) and is bound when its parameter, `var` or function
/// declaration runs.
///
/// A frame whose scope has ended and that no closure captured goes back
/// to the heap's pool, cleared, and serves the next call or scope.
pub struct Env {
    slots: RefCell<Vec<Option<Value>>>,
    /// The scope's layout: the name each slot binds (for the by-name
    /// fallback).
    names: Layout,
    parent: Option<Rc<Env>>,
}

impl Env {
    /// Creates an empty frame: the root frame, or a frame for the pool
    /// to fill in.
    pub fn root() -> Rc<Env> {
        Rc::new(Env { slots: RefCell::new(Vec::new()), names: Rc::from([]), parent: None })
    }

    /// The frame `hops` frames up the chain.
    #[inline]
    fn up(&self, hops: u32) -> &Env {
        let mut env = self;
        for _ in 0..hops {
            env = env.parent.as_deref().expect("a resolved hop stays inside the chain");
        }
        env
    }

    #[inline]
    fn get(&self, slot: usize) -> Option<Value> {
        self.slots.borrow()[slot].clone()
    }

    #[inline]
    fn set(&self, slot: usize, value: Value) {
        self.slots.borrow_mut()[slot] = Some(value);
    }

    /// The number bound in `slot`, if it holds one (read without cloning
    /// a `Value`).
    #[inline]
    fn num(&self, slot: usize) -> Option<f64> {
        match self.slots.borrow()[slot] {
            Some(Value::Num(n)) => Some(n),
            _ => None,
        }
    }

    /// The nearest frame above this one in which `name` is bound, with
    /// the slot: where an access whose own slot is unbound continues.
    fn bound_above(&self, name: Sym) -> Option<(&Env, usize)> {
        let mut env = self.parent.as_deref();
        while let Some(e) = env {
            if let Some(slot) = e.names.iter().position(|&n| n == name) {
                if e.slots.borrow()[slot].is_some() {
                    return Some((e, slot));
                }
            }
            env = e.parent.as_deref();
        }
        None
    }
}

/// Statement completion.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// The execution context: everything the evaluator and native functions
/// need. Natives receive `&mut Ctx`, so they can allocate engine values
/// and call back into script (the `Callback` micro-benchmark path).
pub struct Ctx<'a> {
    /// The simulated machine (memory, CPU/PKRU, gates, allocator).
    pub machine: &'a mut Machine,
    /// The engine heap.
    pub heap: &'a mut Heap,
    /// Registered native functions.
    pub natives: &'a [NativeFn],
    /// Host class definitions (DOM node layouts).
    pub host_classes: &'a [HostClass],
    /// Remaining step budget.
    pub fuel: &'a mut u64,
    /// Deterministic RNG state (`Math.random`).
    pub rng: &'a mut u64,
    /// Virtual clock (`Date.now`), advanced by execution steps.
    pub clock: &'a mut u64,
    /// Lines produced by the `__print` builtin.
    pub output: &'a mut Vec<String>,
    depth: usize,
}

impl<'a> Ctx<'a> {
    /// Assembles a context (used by [`crate::Engine`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        machine: &'a mut Machine,
        heap: &'a mut Heap,
        natives: &'a [NativeFn],
        host_classes: &'a [HostClass],
        fuel: &'a mut u64,
        rng: &'a mut u64,
        clock: &'a mut u64,
        output: &'a mut Vec<String>,
    ) -> Ctx<'a> {
        Ctx { machine, heap, natives, host_classes, fuel, rng, clock, output, depth: 0 }
    }

    fn tick(&mut self) -> Result<(), EngineError> {
        *self.clock += 1;
        match self.fuel.checked_sub(1) {
            Some(f) => {
                *self.fuel = f;
                Ok(())
            }
            None => Err(EngineError::Fuel),
        }
    }

    /// Runs a list of statements in `env` (function declarations hoisted).
    pub fn exec_program(&mut self, stmts: &[Stmt], env: &Rc<Env>) -> Result<Value, EngineError> {
        match self.exec_block(stmts, env)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Undefined),
        }
    }

    /// A frame for a scope with `layout` under `parent`: a pooled one if
    /// any is left, else a fresh allocation.
    fn frame(&mut self, layout: &Layout, parent: Rc<Env>) -> Rc<Env> {
        let mut frame = self.heap.frame_pool.pop().unwrap_or_else(|| {
            self.heap.fresh_frames += 1;
            Env::root()
        });
        let env = Rc::get_mut(&mut frame).expect("a pooled frame is unshared");
        env.slots.get_mut().resize(layout.len(), None);
        env.names = Rc::clone(layout);
        env.parent = Some(parent);
        frame
    }

    /// Ends `frame`'s scope. A frame nothing else holds (no closure
    /// captured it, directly or through an inner frame) is cleared and
    /// pooled; a captured one lives on with its closure.
    fn release(&mut self, mut frame: Rc<Env>) {
        if let Some(env) = Rc::get_mut(&mut frame) {
            env.slots.get_mut().clear();
            env.parent = None;
            self.heap.frame_pool.push(frame);
        }
    }

    /// Runs `body` in the frame of a `for` or block scope with `layout`:
    /// a new one, or `env` itself when the scope can bind nothing (the
    /// resolver counts no hop for it either).
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
                let handle =
                    self.heap.add_closure(Closure { def: Rc::clone(def), env: Rc::clone(env) });
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
                if self.eval_cond(cond, env)? {
                    self.exec_block(then, env)
                } else {
                    self.exec_block(alt, env)
                }
            }
            Stmt::While(cond, body) => {
                while self.eval_cond(cond, env)? {
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
                    if !self.eval_cond(cond, env)? {
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
                            if !ctx.eval_cond(cond, scope)? {
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
    pub fn eval(&mut self, expr: &Expr, env: &Rc<Env>) -> Result<Value, EngineError> {
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
                    self.heap.prop_set_ic(self.machine, h, key, &v, ic)?;
                }
                Ok(Value::Obj(h))
            }
            Expr::Function(def) => {
                let handle =
                    self.heap.add_closure(Closure { def: Rc::clone(def), env: Rc::clone(env) });
                Ok(Value::Fun(handle))
            }
            Expr::Call { callee, args } => self.eval_call(callee, args, env),
            Expr::Member(obj, name, ic) => {
                let receiver = self.eval(obj, env)?;
                self.member_get(&receiver, name, Some(ic))
            }
            Expr::Index(obj, idx) => {
                let receiver = self.eval(obj, env)?;
                let index = self.eval(idx, env)?;
                self.index_get(&receiver, &index)
            }
            Expr::Binary(op, lhs, rhs) => match op {
                BinaryOp::Add => {
                    let a = self.eval(lhs, env)?;
                    let b = self.eval(rhs, env)?;
                    self.binary(*op, &a, &b)
                }
                op if is_comparison(*op) => Ok(Value::Bool(self.compare(*op, lhs, rhs, env)?)),
                op => Ok(Value::Num(self.arith(*op, lhs, rhs, env)?)),
            },
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
            Expr::Unary(op, operand) => Ok(match op {
                UnaryOp::Neg => Value::Num(-self.eval_num(operand, env)?),
                UnaryOp::Plus => Value::Num(self.eval_num(operand, env)?),
                UnaryOp::Not => Value::Bool(!self.eval_cond(operand, env)?),
                UnaryOp::BitNot => Value::Num(f64::from(!to_int32(self.eval_num(operand, env)?))),
                UnaryOp::TypeOf => {
                    let v = match &**operand {
                        // `typeof` of a name bound nowhere is "undefined",
                        // not a ReferenceError.
                        Expr::Ident(name) => self.read(env, name).unwrap_or(Value::Undefined),
                        _ => self.eval(operand, env)?,
                    };
                    Value::Str(self.heap.new_str(v.type_of()))
                }
            }),
            Expr::Ternary(cond, a, b) => {
                if self.eval_cond(cond, env)? {
                    self.eval(a, env)
                } else {
                    self.eval(b, env)
                }
            }
            Expr::Assign(target, op, value_expr) => {
                let value = match op {
                    AssignOp::Assign => self.eval(value_expr, env)?,
                    AssignOp::Compound(bin) => {
                        if let Some(value) = self.compound_num(target, *bin, value_expr, env)? {
                            return Ok(value);
                        }
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
                if let Target::Ident(name) = target {
                    if let Some(old) = self.peek_num(env, name) {
                        self.assign(env, name, Value::Num(old + step));
                        return Ok(Value::Num(if *prefix { old + step } else { old }));
                    }
                }
                let current = self.read_target(target, env)?;
                let old = self.to_number(&current)?;
                self.write_target(target, env, &Value::Num(old + step))?;
                Ok(Value::Num(if *prefix { old + step } else { old }))
            }
        }
    }

    /// `ToNumber` of an expression's value, computed without building a
    /// `Value` for number literals, slots holding a number and the numeric
    /// operators. Ticks once per node, as [`Ctx::eval`].
    fn eval_num(&mut self, expr: &Expr, env: &Rc<Env>) -> Result<f64, EngineError> {
        match expr {
            Expr::Num(n) => {
                self.tick()?;
                Ok(*n)
            }
            Expr::Ident(name) => {
                self.tick()?;
                match self.peek_num(env, name) {
                    Some(n) => Ok(n),
                    None => Ok(number_of(&self.lookup(env, name)?)),
                }
            }
            Expr::Binary(op, lhs, rhs) if is_arithmetic(*op) => {
                self.tick()?;
                self.arith(*op, lhs, rhs, env)
            }
            // Everything else, array reads included (`index_get` already
            // reads the element straight through `Heap::elem_get`).
            _ => {
                let v = self.eval(expr, env)?;
                Ok(number_of(&v))
            }
        }
    }

    /// The truthiness of an expression's value, computed without building
    /// a `Value` for comparisons of numbers, `&&`, `||` and `!`. Ticks once
    /// per node, as [`Ctx::eval`].
    fn eval_cond(&mut self, expr: &Expr, env: &Rc<Env>) -> Result<bool, EngineError> {
        match expr {
            Expr::Binary(op, lhs, rhs) if is_comparison(*op) => {
                self.tick()?;
                self.compare(*op, lhs, rhs, env)
            }
            Expr::And(lhs, rhs) => {
                self.tick()?;
                Ok(self.eval_cond(lhs, env)? && self.eval_cond(rhs, env)?)
            }
            Expr::Or(lhs, rhs) => {
                self.tick()?;
                Ok(self.eval_cond(lhs, env)? || self.eval_cond(rhs, env)?)
            }
            Expr::Unary(UnaryOp::Not, operand) => {
                self.tick()?;
                Ok(!self.eval_cond(operand, env)?)
            }
            _ => Ok(self.eval(expr, env)?.truthy()),
        }
    }

    /// A numeric operator (every binary operator but `+` and the
    /// comparisons) over its operands' `ToNumber`, left to right.
    #[inline]
    fn arith(
        &mut self,
        op: BinaryOp,
        lhs: &Expr,
        rhs: &Expr,
        env: &Rc<Env>,
    ) -> Result<f64, EngineError> {
        let a = self.eval_num(lhs, env)?;
        let b = self.eval_num(rhs, env)?;
        Ok(arith(op, a, b))
    }

    /// A comparison; two numbers compare without the generic operator.
    fn compare(
        &mut self,
        op: BinaryOp,
        lhs: &Expr,
        rhs: &Expr,
        env: &Rc<Env>,
    ) -> Result<bool, EngineError> {
        let a = self.eval(lhs, env)?;
        let b = self.eval(rhs, env)?;
        match (&a, &b) {
            (Value::Num(x), Value::Num(y)) => Ok(compare_nums(op, *x, *y)),
            _ => Ok(self.compare_values(op, &a, &b)),
        }
    }

    /// `name op= value` on a name bound to a number, written back to its
    /// slot; `None` (nothing evaluated) when the target is not a name or
    /// the name holds anything else.
    fn compound_num(
        &mut self,
        target: &Target,
        op: BinaryOp,
        value_expr: &Expr,
        env: &Rc<Env>,
    ) -> Result<Option<Value>, EngineError> {
        let Target::Ident(name) = target else { return Ok(None) };
        let Some(current) = self.peek_num(env, name) else { return Ok(None) };
        let value = if is_arithmetic(op) {
            Value::Num(arith(op, current, self.eval_num(value_expr, env)?))
        } else {
            match self.eval(value_expr, env)? {
                Value::Num(rhs) if op == BinaryOp::Add => Value::Num(current + rhs),
                rhs => self.binary(op, &Value::Num(current), &rhs)?,
            }
        };
        self.assign(env, name, value.clone());
        Ok(Some(value))
    }

    fn eval_call(
        &mut self,
        callee: &Expr,
        args: &[Expr],
        env: &Rc<Env>,
    ) -> Result<Value, EngineError> {
        if let Expr::Member(obj, name, ic) = callee {
            let receiver = self.eval(obj, env)?;
            // Builtin methods on primitives and arrays dispatch directly;
            // everything else is a property holding a function value.
            let args = self.eval_args(args, env)?;
            if let Some(result) = self.builtin_method(&receiver, name, args.as_slice())? {
                return Ok(result);
            }
            let f = self.member_get(&receiver, name, Some(ic))?;
            return self.call_value(&f, receiver, args.as_slice());
        }
        match self.eval(callee, env)? {
            // A stale handle takes the generic path, which fails only
            // after the arguments ran.
            Value::Fun(handle) if self.heap.closure(handle).is_ok() => {
                self.call_closure(handle, Value::Undefined, Args::Exprs(args, env))
            }
            target => {
                let args = self.eval_args(args, env)?;
                self.call_value(&target, Value::Undefined, args.as_slice())
            }
        }
    }

    /// Evaluates call arguments left to right into an [`ArgBuf`].
    fn eval_args(&mut self, args: &[Expr], env: &Rc<Env>) -> Result<ArgBuf, EngineError> {
        if args.len() > STACK_ARGS {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(self.eval(a, env)?);
            }
            return Ok(ArgBuf::Heap(vals));
        }
        let mut buf = [const { Value::Undefined }; STACK_ARGS];
        for (slot, a) in buf.iter_mut().zip(args) {
            *slot = self.eval(a, env)?;
        }
        Ok(ArgBuf::Stack(buf, args.len()))
    }

    /// Calls a function value (closure or native) with `this` and `args`.
    pub fn call_value(
        &mut self,
        callee: &Value,
        this: Value,
        args: &[Value],
    ) -> Result<Value, EngineError> {
        if self.depth >= MAX_CALL_DEPTH {
            return Err(EngineError::Range("call stack exceeded".into()));
        }
        match callee {
            Value::Fun(handle) => self.call_closure(*handle, this, Args::Values(args)),
            Value::Native(handle) => {
                let native = self
                    .natives
                    .get(*handle as usize)
                    .cloned()
                    .ok_or_else(|| EngineError::Type("stale native handle".into()))?;
                self.depth += 1;
                let result = native(self, this, args);
                self.depth -= 1;
                result
            }
            other => Err(EngineError::Type(format!("{} is not a function", other.type_of()))),
        }
    }

    /// Runs closure `handle` (which must exist) in a pooled frame: `this`,
    /// the function's own name and the parameters are written straight
    /// into their slots, missing arguments as `undefined`.
    fn call_closure(
        &mut self,
        handle: u32,
        this: Value,
        args: Args<'_>,
    ) -> Result<Value, EngineError> {
        let Closure { def, env } = self.heap.closure(handle)?.clone();
        let frame = self.frame(&def.layout, env);
        frame.set(0, this);
        if let Some(slot) = def.self_slot {
            frame.set(slot as usize, Value::Fun(handle));
        }
        let given = match args {
            Args::Values(vals) => {
                for (&slot, v) in def.param_slots.iter().zip(vals) {
                    frame.set(slot as usize, v.clone());
                }
                vals.len()
            }
            Args::Exprs(exprs, caller) => {
                for (i, e) in exprs.iter().enumerate() {
                    let v = match self.eval(e, caller) {
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
                exprs.len()
            }
        };
        for &slot in def.param_slots.iter().skip(given) {
            frame.set(slot as usize, Value::Undefined);
        }
        // The depth check comes after the arguments ran, as it does for a
        // call of any other value.
        if self.depth >= MAX_CALL_DEPTH {
            self.release(frame);
            return Err(EngineError::Range("call stack exceeded".into()));
        }
        self.heap.closure_calls += 1;
        self.depth += 1;
        let result = self.exec_block(&def.body, &frame);
        self.depth -= 1;
        self.release(frame);
        match result? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Undefined),
        }
    }

    // ---- member / index access ----

    fn member_get(
        &mut self,
        receiver: &Value,
        name: &str,
        ic: Option<&PropIc>,
    ) -> Result<Value, EngineError> {
        match receiver {
            Value::Str(s) => match name {
                "length" => Ok(Value::Num(s.char_len() as f64)),
                _ => Err(EngineError::Type(format!("string has no property {name}"))),
            },
            Value::Obj(h) => {
                // The array `length` interposition stays ahead of the
                // cache, exactly as it sits ahead of the property walk.
                if name == "length" && self.heap.kind(*h)? == ObjKind::Array {
                    return Ok(Value::Num(self.heap.array_len(self.machine, *h)? as f64));
                }
                match ic {
                    Some(ic) => self.heap.prop_get_ic(self.machine, *h, name, ic),
                    None => self.heap.prop_get(self.machine, *h, name),
                }
            }
            Value::HostRef { addr, class } => self.host_field_get(*addr, class.0, name, ic),
            Value::Null | Value::Undefined => {
                Err(EngineError::Type(format!("cannot read {name} of {}", receiver.type_of())))
            }
            _ => Err(EngineError::Type(format!(
                "cannot read property {name} of a {}",
                receiver.type_of()
            ))),
        }
    }

    fn member_set(
        &mut self,
        receiver: &Value,
        name: &JsStr,
        value: &Value,
        ic: Option<&PropIc>,
    ) -> Result<(), EngineError> {
        match receiver {
            Value::Obj(h) => {
                if &**name == "length" && self.heap.kind(*h)? == ObjKind::Array {
                    let n = self.to_number(value)?;
                    // The vulnerable setter (§5.4).
                    return self.heap.array_set_len(self.machine, *h, n);
                }
                match ic {
                    Some(ic) => self.heap.prop_set_ic(self.machine, *h, name, value, ic),
                    None => self.heap.prop_set(self.machine, *h, name, value),
                }
            }
            Value::HostRef { addr, class } => {
                let n = self.to_number(value)?;
                self.host_field_set(*addr, class.0, name, n, ic)
            }
            other => {
                Err(EngineError::Type(format!("cannot set property on a {}", other.type_of())))
            }
        }
    }

    fn index_get(&mut self, receiver: &Value, index: &Value) -> Result<Value, EngineError> {
        match (receiver, index) {
            (Value::Obj(h), Value::Num(i)) if self.heap.kind(*h)? == ObjKind::Array => {
                self.heap.elem_get(self.machine, *h, *i)
            }
            (Value::Obj(h), Value::Str(name)) => self.heap.prop_get(self.machine, *h, name),
            (Value::Obj(h), Value::Num(i)) => self.heap.prop_get(self.machine, *h, &fmt_f64(*i)),
            (Value::Str(s), Value::Num(i)) => {
                let i = *i;
                if i < 0.0 || i.fract() != 0.0 {
                    return Ok(Value::Undefined);
                }
                Ok(self.char_str(s, i as usize).map_or(Value::Undefined, Value::Str))
            }
            (Value::HostRef { addr, class }, Value::Num(i)) => {
                // Indexing a host node yields its i-th child, per the host
                // class's element spec.
                self.host_index_get(*addr, class.0, *i)
            }
            _ => Err(EngineError::Type(format!("cannot index a {}", receiver.type_of()))),
        }
    }

    fn index_set(
        &mut self,
        receiver: &Value,
        index: &Value,
        value: &Value,
    ) -> Result<(), EngineError> {
        match (receiver, index) {
            (Value::Obj(h), Value::Num(i)) if self.heap.kind(*h)? == ObjKind::Array => {
                self.heap.elem_set(self.machine, *h, *i, value)
            }
            (Value::Obj(h), Value::Str(name)) => self.heap.prop_set(self.machine, *h, name, value),
            (Value::Obj(h), Value::Num(i)) => {
                let key = self.heap.new_str(fmt_f64(*i));
                self.heap.prop_set(self.machine, *h, &key, value)
            }
            _ => Err(EngineError::Type(format!("cannot index-assign a {}", receiver.type_of()))),
        }
    }

    /// Reads a variable; an unbound name is a `ReferenceError`.
    #[inline]
    fn lookup(&mut self, env: &Env, name: &Name) -> Result<Value, EngineError> {
        self.read(env, name)
            .ok_or_else(|| EngineError::Reference(self.heap.name(name.sym).to_string()))
    }

    /// Reads a name through its resolved slot; an unbound slot continues
    /// outward by name. `None` when the name is bound nowhere.
    #[inline]
    fn read(&mut self, env: &Env, name: &Name) -> Option<Value> {
        match name.slot {
            Slot::Global(slot) => self.heap.global(slot),
            Slot::Local { hops, slot } => {
                let frame = env.up(hops);
                match frame.get(slot as usize) {
                    Some(v) => Some(v),
                    None => self.read_outward(frame, name.sym),
                }
            }
        }
    }

    /// The number `name`'s resolved slot holds, if it holds one: a read
    /// that clones no `Value`. `None` sends the caller to the full read.
    #[inline]
    fn peek_num(&self, env: &Env, name: &Name) -> Option<f64> {
        match name.slot {
            Slot::Global(slot) => match self.heap.global_ref(slot) {
                Some(Value::Num(n)) => Some(*n),
                _ => None,
            },
            Slot::Local { hops, slot } => env.up(hops).num(slot as usize),
        }
    }

    /// A read whose slot in `frame` is unbound: the nearest binding above
    /// it, found by name.
    #[cold]
    #[inline(never)]
    fn read_outward(&mut self, frame: &Env, name: Sym) -> Option<Value> {
        self.heap.scope_walks += 1;
        match frame.bound_above(name) {
            Some((outer, slot)) => outer.get(slot),
            None => self.heap.global_by_name(name),
        }
    }

    /// Assigns to a name: its resolved slot if bound, else the nearest
    /// binding outward by name, else a new global (sloppy-mode JS).
    #[inline]
    fn assign(&mut self, env: &Env, name: &Name, value: Value) {
        match name.slot {
            Slot::Global(slot) => self.heap.set_global(slot, value),
            Slot::Local { hops, slot } => {
                let frame = env.up(hops);
                if let Some(bound) = &mut frame.slots.borrow_mut()[slot as usize] {
                    *bound = value;
                    return;
                }
                self.assign_outward(frame, name.sym, value);
            }
        }
    }

    /// An assignment whose slot in `frame` is unbound.
    #[cold]
    #[inline(never)]
    fn assign_outward(&mut self, frame: &Env, name: Sym, value: Value) {
        self.heap.scope_walks += 1;
        match frame.bound_above(name) {
            Some((outer, slot)) => outer.set(slot, value),
            None => {
                let slot = self.heap.global_slot(name);
                self.heap.set_global(slot, value);
            }
        }
    }

    /// Whether a declaration's own slot is already bound.
    #[inline]
    fn bound(&self, env: &Env, name: &Name) -> bool {
        match name.slot {
            Slot::Global(slot) => self.heap.global(slot).is_some(),
            Slot::Local { hops, slot } => env.up(hops).get(slot as usize).is_some(),
        }
    }

    /// Binds a `var` or function declaration in its own scope.
    #[inline]
    fn declare(&mut self, env: &Env, name: &Name, value: Value) {
        match name.slot {
            Slot::Global(slot) => self.heap.set_global(slot, value),
            Slot::Local { hops, slot } => env.up(hops).set(slot as usize, value),
        }
    }

    fn read_target(&mut self, target: &Target, env: &Rc<Env>) -> Result<Value, EngineError> {
        match target {
            Target::Ident(name) => self.lookup(env, name),
            Target::Member(obj, name, ic) => {
                let receiver = self.eval(obj, env)?;
                self.member_get(&receiver, name, Some(ic))
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
                self.member_set(&receiver, name, value, Some(ic))
            }
            Target::Index(obj, idx) => {
                let receiver = self.eval(obj, env)?;
                let index = self.eval(idx, env)?;
                self.index_set(&receiver, &index, value)
            }
        }
    }

    // ---- host classes (direct cross-compartment field access) ----

    fn host_class(&self, class: u32) -> Result<&HostClass, EngineError> {
        self.host_classes
            .get(class as usize)
            .ok_or_else(|| EngineError::Type("unknown host class".into()))
    }

    fn host_field_get(
        &mut self,
        addr: u64,
        class: u32,
        name: &str,
        ic: Option<&PropIc>,
    ) -> Result<Value, EngineError> {
        if self.heap.ic_enabled {
            if let Some(ic) = ic {
                match ic.load(self.heap.ic_epoch()) {
                    Some(IcState::HostMethod { class: cached, method }) if cached == class => {
                        self.heap.ic_hits += 1;
                        return Ok(Value::Native(method));
                    }
                    Some(IcState::HostField { class: cached, field }) if cached == class => {
                        self.heap.ic_hits += 1;
                        return self.host_field_read(addr, field);
                    }
                    _ => self.heap.ic_misses += 1,
                }
            }
        }
        let spec = self.host_class(class)?;
        if let Some(&method) = spec.methods.get(name) {
            if let (true, Some(ic)) = (self.heap.ic_enabled, ic) {
                ic.store(self.heap.ic_epoch(), IcState::HostMethod { class, method });
            }
            return Ok(Value::Native(method));
        }
        let Some(field) = spec.fields.get(name).copied() else {
            return Err(EngineError::Type(format!("host class {} has no field {name}", spec.name)));
        };
        if let (true, Some(ic)) = (self.heap.ic_enabled, ic) {
            ic.store(self.heap.ic_epoch(), IcState::HostField { class, field });
        }
        self.host_field_read(addr, field)
    }

    /// Reads one host field per its (possibly cached) spec. Every byte
    /// still moves through the rights-checked machine: caching the spec
    /// skips the layout lookup, never the PKRU verdict.
    fn host_field_read(&mut self, addr: u64, field: HostField) -> Result<Value, EngineError> {
        let field_addr = addr + field.offset;
        match field.kind {
            HostFieldKind::U64 => {
                let raw = self.machine.mem_read(field_addr)?;
                Ok(Value::Num(raw as f64))
            }
            HostFieldKind::F64 => {
                let raw = self.machine.mem_read(field_addr)?;
                Ok(Value::Num(f64::from_bits(raw)))
            }
            HostFieldKind::Ref(target_class) => {
                let ptr = self.machine.mem_read(field_addr)?;
                if ptr == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::HostRef { addr: ptr, class: target_class })
                }
            }
            HostFieldKind::Text => {
                // The field holds a pointer to `[len: u64][bytes...]`.
                let ptr = self.machine.mem_read(field_addr)?;
                if ptr == 0 {
                    return Ok(Value::Str(self.heap.new_str("")));
                }
                let len = self.machine.mem_read(ptr)? as usize;
                let mut bytes = vec![0u8; len];
                self.machine.mem_read_bytes(ptr + 8, &mut bytes)?;
                let s = String::from_utf8_lossy(&bytes).into_owned();
                Ok(Value::Str(self.heap.new_str(s)))
            }
        }
    }

    fn host_field_set(
        &mut self,
        addr: u64,
        class: u32,
        name: &str,
        value: f64,
        ic: Option<&PropIc>,
    ) -> Result<(), EngineError> {
        // A hit reuses the cached field spec but reruns the writability
        // and kind checks — only the layout lookup is skipped.
        let field = if let (true, Some(ic)) = (self.heap.ic_enabled, ic) {
            match ic.load(self.heap.ic_epoch()) {
                Some(IcState::HostField { class: cached, field }) if cached == class => {
                    self.heap.ic_hits += 1;
                    field
                }
                _ => {
                    self.heap.ic_misses += 1;
                    let spec = self.host_class(class)?;
                    let Some(field) = spec.fields.get(name).copied() else {
                        return Err(EngineError::Type(format!(
                            "host class {} has no field {name}",
                            spec.name
                        )));
                    };
                    ic.store(self.heap.ic_epoch(), IcState::HostField { class, field });
                    field
                }
            }
        } else {
            let spec = self.host_class(class)?;
            let Some(field) = spec.fields.get(name).copied() else {
                return Err(EngineError::Type(format!(
                    "host class {} has no field {name}",
                    spec.name
                )));
            };
            field
        };
        if !field.writable {
            return Err(EngineError::Type(format!("host field {name} is read-only")));
        }
        let field_addr = addr + field.offset;
        match field.kind {
            HostFieldKind::U64 => self.machine.mem_write(field_addr, value as u64)?,
            HostFieldKind::F64 => self.machine.mem_write(field_addr, value.to_bits())?,
            _ => return Err(EngineError::Type(format!("host field {name} is not writable"))),
        }
        Ok(())
    }

    fn host_index_get(&mut self, addr: u64, class: u32, index: f64) -> Result<Value, EngineError> {
        let spec = self.host_class(class)?;
        let Some(elements) = spec.elements else {
            return Err(EngineError::Type(format!("host class {} is not indexable", spec.name)));
        };
        if index < 0.0 || index.fract() != 0.0 {
            return Ok(Value::Undefined);
        }
        // elements = (count field offset, first-child field offset,
        // next-sibling field offset within the child class, child class).
        let count = self.machine.mem_read(addr + elements.count_offset)?;
        if index as u64 >= count {
            return Ok(Value::Undefined);
        }
        let mut child = self.machine.mem_read(addr + elements.first_offset)?;
        for _ in 0..index as u64 {
            if child == 0 {
                return Ok(Value::Undefined);
            }
            child = self.machine.mem_read(child + elements.next_offset)?;
        }
        if child == 0 {
            Ok(Value::Undefined)
        } else {
            Ok(Value::HostRef { addr: child, class: elements.child_class })
        }
    }

    // ---- conversions and operators ----

    /// `ToNumber` (it never fails: the subset has no `valueOf`).
    pub fn to_number(&self, v: &Value) -> Result<f64, EngineError> {
        Ok(number_of(v))
    }

    /// `ToString`.
    pub fn to_string_value(&mut self, v: &Value) -> Result<String, EngineError> {
        Ok(match v {
            Value::Num(n) => fmt_f64(*n),
            Value::Bool(b) => b.to_string(),
            Value::Null => "null".into(),
            Value::Undefined => "undefined".into(),
            Value::Str(s) => s.to_string(),
            Value::Obj(h) => {
                if self.heap.kind(*h)? == ObjKind::Array {
                    let len = self.heap.array_len(self.machine, *h)?;
                    let mut parts = Vec::with_capacity(len as usize);
                    for i in 0..len {
                        let e = self.heap.elem_get(self.machine, *h, i as f64)?;
                        parts.push(self.to_string_value(&e)?);
                    }
                    parts.join(",")
                } else {
                    "[object Object]".into()
                }
            }
            Value::Fun(_) | Value::Native(_) => "function".into(),
            Value::HostRef { .. } => "[object HostRef]".into(),
        })
    }

    /// `ToString` as an engine string: a string is shared, not copied.
    fn string_of(&mut self, v: &Value) -> Result<JsStr, EngineError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => {
                let text = self.to_string_value(other)?;
                Ok(self.heap.new_str(text))
            }
        }
    }

    fn binary(&mut self, op: BinaryOp, a: &Value, b: &Value) -> Result<Value, EngineError> {
        Ok(match op {
            BinaryOp::Add => match (a, b) {
                (Value::Str(_), _) | (_, Value::Str(_)) => {
                    let parts = [self.string_of(a)?, self.string_of(b)?];
                    Value::Str(JsStr::concat(&parts, &mut self.heap.string_bytes_copied))
                }
                _ => Value::Num(self.to_number(a)? + self.to_number(b)?),
            },
            op if is_comparison(op) => Value::Bool(self.compare_values(op, a, b)),
            op => Value::Num(arith(op, self.to_number(a)?, self.to_number(b)?)),
        })
    }

    /// A comparison of two values: `==`/`!=` as [`Ctx::strict_eq`], two
    /// strings by their text, anything else by `ToNumber`.
    fn compare_values(&self, op: BinaryOp, a: &Value, b: &Value) -> bool {
        match (op, a, b) {
            (BinaryOp::Eq, ..) => self.strict_eq(a, b),
            (BinaryOp::Ne, ..) => !self.strict_eq(a, b),
            (_, Value::Str(x), Value::Str(y)) => match op {
                BinaryOp::Lt => x < y,
                BinaryOp::Le => x <= y,
                BinaryOp::Gt => x > y,
                _ => x >= y,
            },
            _ => compare_nums(op, number_of(a), number_of(b)),
        }
    }

    fn strict_eq(&self, a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Num(x), Value::Num(y)) => x == y,
            (Value::Str(x), Value::Str(y)) => x == y,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Null, Value::Null) => true,
            (Value::Undefined, Value::Undefined) => true,
            // Loose null/undefined equivalence, as `==` in JS.
            (Value::Null, Value::Undefined) | (Value::Undefined, Value::Null) => true,
            (Value::Obj(x), Value::Obj(y)) => x == y,
            (Value::Fun(x), Value::Fun(y)) => x == y,
            (Value::Native(x), Value::Native(y)) => x == y,
            (Value::HostRef { addr: x, .. }, Value::HostRef { addr: y, .. }) => x == y,
            _ => false,
        }
    }

    // ---- builtin methods on primitives and arrays ----

    /// Dispatches builtin methods; returns `None` when `name` is not a
    /// builtin for this receiver (the caller falls back to properties).
    fn builtin_method(
        &mut self,
        receiver: &Value,
        name: &str,
        args: &[Value],
    ) -> Result<Option<Value>, EngineError> {
        match receiver {
            Value::Str(s) => self.string_method(s, name, args),
            Value::Obj(h) if self.heap.kind(*h)? == ObjKind::Array => {
                self.array_method(*h, name, args)
            }
            _ => Ok(None),
        }
    }

    fn string_method(
        &mut self,
        s: &JsStr,
        name: &str,
        args: &[Value],
    ) -> Result<Option<Value>, EngineError> {
        Ok(Some(match name {
            "charCodeAt" => {
                let code = self
                    .char_index(args.first())?
                    .and_then(|i| s.char_at(i, &mut self.heap.string_bytes_walked));
                Value::Num(code.map_or(f64::NAN, |c| f64::from(u32::from(c))))
            }
            "charAt" => {
                let c = self.char_index(args.first())?.and_then(|i| self.char_str(s, i));
                Value::Str(c.unwrap_or_else(|| self.heap.new_str("")))
            }
            "substring" => {
                let len = s.char_len();
                let a = self.clamped_position(args.first(), len)?;
                let b = match args.get(1) {
                    Some(Value::Undefined) | None => len,
                    Some(v) => self.clamped_position(Some(v), len)?,
                };
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                Value::Str(self.substring(s, lo, hi))
            }
            "slice" => {
                let (lo, hi) = self.slice_bounds(args, s.char_len())?;
                Value::Str(self.substring(s, lo, hi))
            }
            "indexOf" => {
                let needle = self.string_of(args.first().unwrap_or(&Value::Undefined))?;
                let from = self.clamped_position(args.get(1), s.char_len())?;
                match s.index_of(&needle, from, &mut self.heap.string_bytes_walked) {
                    Some(i) => Value::Num(i as f64),
                    None => Value::Num(-1.0),
                }
            }
            "split" => {
                let sep = self.string_of(args.first().unwrap_or(&Value::Undefined))?;
                let limit = match args.get(1) {
                    Some(Value::Undefined) | None => usize::MAX,
                    Some(v) => to_uint32(self.to_number(v)?) as usize,
                };
                let parts: Vec<Value> = if sep.is_empty() {
                    s.chars().take(limit).map(|c| Value::Str(self.heap.char_str(c))).collect()
                } else {
                    s.split(&*sep as &str)
                        .take(limit)
                        .map(|p| Value::Str(self.heap.new_str(p)))
                        .collect()
                };
                Value::Obj(self.heap.new_array(self.machine, &parts)?)
            }
            "toUpperCase" => Value::Str(self.heap.new_str(s.to_uppercase())),
            "toLowerCase" => Value::Str(self.heap.new_str(s.to_lowercase())),
            "concat" => {
                let mut parts = Vec::with_capacity(args.len() + 1);
                parts.push(s.clone());
                for a in args {
                    parts.push(self.string_of(a)?);
                }
                Value::Str(JsStr::concat(&parts, &mut self.heap.string_bytes_copied))
            }
            _ => return Ok(None),
        }))
    }

    /// The one-character string at position `i` of `s`, if any.
    fn char_str(&mut self, s: &JsStr, i: usize) -> Option<JsStr> {
        let c = s.char_at(i, &mut self.heap.string_bytes_walked)?;
        Some(self.heap.char_str(c))
    }

    /// Characters `lo..hi` of `s` as a new string.
    fn substring(&mut self, s: &JsStr, lo: usize, hi: usize) -> JsStr {
        let heap = &mut *self.heap;
        s.substring(lo, hi, &mut heap.string_bytes_walked, &mut heap.string_bytes_copied)
    }

    /// A string-method position argument: `ToNumber`, with NaN (so also a
    /// missing argument) reading as 0 as in JS; a negative or fractional
    /// position is out of range, as it is for `s[i]`.
    fn char_index(&self, arg: Option<&Value>) -> Result<Option<usize>, EngineError> {
        let i = match arg {
            Some(v) => self.to_number(v)?,
            None => 0.0,
        };
        let i = if i.is_nan() { 0.0 } else { i };
        Ok((i >= 0.0 && i.fract() == 0.0).then_some(i as usize))
    }

    /// A position argument clamped into `0..=len` (`substring`, the
    /// `indexOf` start): `ToNumber`, NaN (so also a missing argument)
    /// reading as 0, fractions truncated.
    fn clamped_position(&self, arg: Option<&Value>, len: usize) -> Result<usize, EngineError> {
        let i = match arg {
            Some(v) => self.to_number(v)?,
            None => 0.0,
        };
        // `f64::max` drops a NaN operand, so NaN reads as 0.
        Ok(i.max(0.0).min(len as f64) as usize)
    }

    /// `slice`'s `(start, end)` over a string or array of length `len`: a
    /// negative position counts from the end, NaN reads as 0, fractions
    /// truncate, and an end before the start selects nothing.
    fn slice_bounds(&self, args: &[Value], len: usize) -> Result<(usize, usize), EngineError> {
        let len = len as f64;
        let norm = |v: f64| {
            let v = if v.is_nan() { 0.0 } else { v.trunc() };
            if v < 0.0 {
                (len + v).max(0.0)
            } else {
                v.min(len)
            }
        };
        let start = match args.first() {
            Some(v) => norm(self.to_number(v)?),
            None => 0.0,
        };
        let end = match args.get(1) {
            Some(Value::Undefined) | None => len,
            Some(v) => norm(self.to_number(v)?),
        };
        Ok((start as usize, end.max(start) as usize))
    }

    fn array_method(
        &mut self,
        h: crate::heap::ObjHandle,
        name: &str,
        args: &[Value],
    ) -> Result<Option<Value>, EngineError> {
        Ok(Some(match name {
            "push" => {
                let mut len = 0;
                for v in args {
                    len = self.heap.array_push(self.machine, h, v)?;
                }
                Value::Num(len as f64)
            }
            "pop" => self.heap.array_pop(self.machine, h)?,
            "join" => {
                let sep = match args.first() {
                    Some(v) => self.string_of(v)?,
                    None => self.heap.char_str(','),
                };
                let len = self.heap.array_len(self.machine, h)?;
                let mut parts = Vec::with_capacity(len as usize);
                for i in 0..len {
                    let e = self.heap.elem_get(self.machine, h, i as f64)?;
                    parts.push(self.string_of(&e)?);
                }
                Value::Str(JsStr::join(&parts, &sep, &mut self.heap.string_bytes_copied))
            }
            "indexOf" => {
                let needle = args.first().cloned().unwrap_or(Value::Undefined);
                let len = self.heap.array_len(self.machine, h)?;
                let mut found = -1.0;
                for i in 0..len {
                    let e = self.heap.elem_get(self.machine, h, i as f64)?;
                    if self.strict_eq(&e, &needle) {
                        found = i as f64;
                        break;
                    }
                }
                Value::Num(found)
            }
            "slice" => {
                let len = self.heap.array_len(self.machine, h)?;
                let (start, end) = self.slice_bounds(args, len as usize)?;
                let mut out = Vec::new();
                for i in start..end {
                    out.push(self.heap.elem_get(self.machine, h, i as f64)?);
                }
                Value::Obj(self.heap.new_array(self.machine, &out)?)
            }
            "concat" => {
                let len = self.heap.array_len(self.machine, h)?;
                let mut out = Vec::new();
                for i in 0..len {
                    out.push(self.heap.elem_get(self.machine, h, i as f64)?);
                }
                for arg in args {
                    match arg {
                        Value::Obj(g) if self.heap.kind(*g)? == ObjKind::Array => {
                            let glen = self.heap.array_len(self.machine, *g)?;
                            for i in 0..glen {
                                out.push(self.heap.elem_get(self.machine, *g, i as f64)?);
                            }
                        }
                        other => out.push(other.clone()),
                    }
                }
                Value::Obj(self.heap.new_array(self.machine, &out)?)
            }
            _ => return Ok(None),
        }))
    }
}

/// `ToNumber`.
fn number_of(v: &Value) -> f64 {
    match v {
        Value::Num(n) => *n,
        Value::Bool(true) => 1.0,
        Value::Bool(false) | Value::Null => 0.0,
        Value::Str(s) => string_to_number(s),
        _ => f64::NAN,
    }
}

/// JS `StringToNumber`: white space around the text is ignored and empty
/// text is 0; otherwise the text is an unsigned `0x`/`0o`/`0b` integer, or
/// a decimal literal or `Infinity` with an optional sign. Anything else is
/// NaN, Rust's `inf` and `infinity` spellings included.
fn string_to_number(s: &str) -> f64 {
    let t = s.trim_matches(|c: char| c.is_whitespace() || c == '\u{feff}');
    let radix = match t.get(..2) {
        Some("0x" | "0X") => 16,
        Some("0o" | "0O") => 8,
        Some("0b" | "0B") => 2,
        _ => {
            let unsigned = t.strip_prefix(['+', '-']).unwrap_or(t);
            return match unsigned.as_bytes().first() {
                None if t.is_empty() => 0.0,
                Some(b'0'..=b'9' | b'.') => t.parse().unwrap_or(f64::NAN),
                _ if unsigned == "Infinity" && t.starts_with('-') => f64::NEG_INFINITY,
                _ if unsigned == "Infinity" => f64::INFINITY,
                _ => f64::NAN,
            };
        }
    };
    let digits = &t[2..];
    if digits.is_empty() || !digits.chars().all(|c| c.is_digit(radix)) {
        return f64::NAN;
    }
    match u64::from_str_radix(digits, radix) {
        Ok(n) => n as f64,
        // Past 2^64 the value is only approximate, as a double is anyway.
        Err(_) => digits
            .chars()
            .filter_map(|c| c.to_digit(radix))
            .fold(0.0, |n, d| n * f64::from(radix) + f64::from(d)),
    }
}

/// Whether `op` is a comparison (its result is a boolean).
#[inline]
fn is_comparison(op: BinaryOp) -> bool {
    matches!(
        op,
        BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
    )
}

/// Whether `op` is numeric: its result is a number computed from its
/// operands' `ToNumber` (every operator but `+` and the comparisons).
#[inline]
fn is_arithmetic(op: BinaryOp) -> bool {
    op != BinaryOp::Add && !is_comparison(op)
}

/// A numeric operator (see [`is_arithmetic`]) on two numbers.
#[inline]
fn arith(op: BinaryOp, a: f64, b: f64) -> f64 {
    match op {
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => a / b,
        BinaryOp::Rem => a % b,
        BinaryOp::BitAnd => f64::from(to_int32(a) & to_int32(b)),
        BinaryOp::BitOr => f64::from(to_int32(a) | to_int32(b)),
        BinaryOp::BitXor => f64::from(to_int32(a) ^ to_int32(b)),
        BinaryOp::Shl => f64::from(to_int32(a) << (to_uint32(b) & 31)),
        BinaryOp::Shr => f64::from(to_int32(a) >> (to_uint32(b) & 31)),
        BinaryOp::UShr => f64::from(to_uint32(a) >> (to_uint32(b) & 31)),
        _ => unreachable!("{op:?} is not a numeric operator"),
    }
}

/// A comparison (see [`is_comparison`]) of two numbers.
#[inline]
fn compare_nums(op: BinaryOp, x: f64, y: f64) -> bool {
    match op {
        BinaryOp::Eq => x == y,
        BinaryOp::Ne => x != y,
        BinaryOp::Lt => x < y,
        BinaryOp::Le => x <= y,
        BinaryOp::Gt => x > y,
        BinaryOp::Ge => x >= y,
        _ => unreachable!("{op:?} is not a comparison"),
    }
}

/// Up to this many call arguments are evaluated into a buffer on the
/// stack.
const STACK_ARGS: usize = 4;

/// Evaluated call arguments: on the stack when they fit, else on the heap.
enum ArgBuf {
    Stack([Value; STACK_ARGS], usize),
    Heap(Vec<Value>),
}

impl ArgBuf {
    fn as_slice(&self) -> &[Value] {
        match self {
            ArgBuf::Stack(buf, len) => &buf[..*len],
            ArgBuf::Heap(vals) => vals,
        }
    }
}

/// The arguments of a closure call: still to be evaluated in the caller's
/// frame, or already values.
enum Args<'a> {
    Exprs(&'a [Expr], &'a Rc<Env>),
    Values(&'a [Value]),
}
