//! The op-stream evaluator: runs the streams `crate::lower` builds.
//!
//! One loop (`Ctx::run`) runs a program's top level and every closure
//! body; natives and `Engine::call` re-enter it through
//! [`Ctx::call_value`]. The operand stack and the callee frames of calls
//! whose arguments are still running live in the context, so a call
//! allocates nothing once the frame pool is warm. Every element access
//! still goes through `Heap::elem_get` → `Machine::mem_read`, and no
//! rights verdict is cached.

use std::cell::RefCell;
use std::rc::Rc;

use lir::Machine;

use crate::ast::{BinaryOp, FuncDef, Layout, Name, Slot, UnaryOp};
use crate::engine::{HostClass, HostField, HostFieldKind, NativeFn};
use crate::error::EngineError;
use crate::heap::{Closure, FunHandle, Heap, ObjHandle, ObjKind, Sym};
use crate::ic::{IcState, PropIc};
use crate::lower::{
    tree_steps, Code, Dst, Inst, Method, Op, Src, TreeKind, TreeNode, LEAF_SLOTS, TREE_DEPTH,
};
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

    /// The frame's slots.
    pub(crate) fn values(&self) -> std::cell::Ref<'_, Vec<Option<Value>>> {
        self.slots.borrow()
    }

    /// The enclosing frame.
    pub(crate) fn parent(&self) -> Option<&Env> {
        self.parent.as_deref()
    }

    #[inline]
    pub(crate) fn get(&self, slot: usize) -> Option<Value> {
        self.slots.borrow()[slot].clone()
    }

    #[inline]
    pub(crate) fn set(&self, slot: usize, value: Value) {
        self.slots.borrow_mut()[slot] = Some(value);
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

/// A plain call whose arguments are running: the callee's frame, taken
/// before the first argument, or a callee that is not a closure.
enum Pending {
    Frame(Rc<FuncDef>, Rc<Env>),
    Value(Value),
}

/// How far a call got before its body: a native's (or a failed
/// builtin's) value, or a closure's filled frame to run.
enum Called {
    Done(Value),
    Enter(Rc<FuncDef>, Rc<Env>),
}

/// Why the op loop stopped: a closure to enter, or a return.
enum Transfer {
    Call { def: Rc<FuncDef>, frame: Rc<Env>, dst: Dst, resume: usize },
    Return(Value),
}

/// One running op stream: a closure body, or the stream `Ctx::run` was
/// given (`def` is `None`).
struct Act {
    def: Option<Rc<FuncDef>>,
    /// The innermost open scope's frame; the call frame when none is open.
    env: Rc<Env>,
    /// Scope frames open above the call frame.
    scopes: u32,
    pc: usize,
    stack_base: usize,
    calls_base: usize,
    /// Where the caller puts the result.
    dst: Dst,
}

impl Act {
    fn new(def: Option<Rc<FuncDef>>, frame: Rc<Env>, ctx: &Ctx<'_>, dst: Dst) -> Act {
        Act {
            def,
            env: frame,
            scopes: 0,
            pc: 0,
            stack_base: ctx.stack.len(),
            calls_base: ctx.calls.len(),
            dst,
        }
    }
}

/// The evaluator's stacks, which the engine keeps between contexts: each
/// context takes them empty but with the capacity earlier runs grew, and
/// gives them back when it ends.
#[derive(Default)]
pub(crate) struct Stacks {
    stack: Vec<Value>,
    calls: Vec<Pending>,
    acts: Vec<Act>,
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
    /// The operand stack, shared by every activation.
    stack: Vec<Value>,
    /// Plain calls whose arguments are running, innermost last.
    calls: Vec<Pending>,
    /// The callers of the running activations, innermost last.
    acts: Vec<Act>,
    /// The slots of the leaf call running: `this`, the parameters and the
    /// function's own name. A leaf's tree calls nothing, so one buffer
    /// serves every leaf call.
    args: [Value; LEAF_SLOTS],
    /// Where the stacks go back to when the context ends.
    home: &'a mut Stacks,
    /// Whether closure bodies run on the reference tree walker, and
    /// whether it consults the inline caches.
    #[cfg(test)]
    pub(crate) walker: Option<crate::walker::Walk>,
}

impl Drop for Ctx<'_> {
    /// Gives the stacks back to the engine, emptied.
    fn drop(&mut self) {
        self.stack.clear();
        self.calls.clear();
        self.acts.clear();
        self.home.stack = std::mem::take(&mut self.stack);
        self.home.calls = std::mem::take(&mut self.calls);
        self.home.acts = std::mem::take(&mut self.acts);
    }
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
        home: &'a mut Stacks,
    ) -> Ctx<'a> {
        Ctx {
            machine,
            heap,
            natives,
            host_classes,
            fuel,
            rng,
            clock,
            output,
            depth: 0,
            stack: std::mem::take(&mut home.stack),
            calls: std::mem::take(&mut home.calls),
            acts: std::mem::take(&mut home.acts),
            args: [const { Value::Undefined }; LEAF_SLOTS],
            home,
            #[cfg(test)]
            walker: None,
        }
    }

    /// One step: the clock moves first, then the budget is checked.
    #[cfg(test)]
    pub(crate) fn tick(&mut self) -> Result<(), EngineError> {
        self.tick_n(1)
    }

    /// `n` steps, leaving the clock and the budget exactly where `n` single
    /// steps would: when the budget runs out partway, the clock has moved
    /// once past it.
    #[inline]
    fn tick_n(&mut self, n: u32) -> Result<(), EngineError> {
        let n = u64::from(n);
        match self.fuel.checked_sub(n) {
            Some(f) => {
                *self.fuel = f;
                *self.clock += n;
                Ok(())
            }
            None => {
                *self.clock += *self.fuel + 1;
                *self.fuel = 0;
                Err(EngineError::Fuel)
            }
        }
    }

    /// A frame for a scope with `layout` under `parent`: a pooled one if
    /// any is left, else a fresh allocation.
    pub(crate) fn frame(&mut self, layout: &Layout, parent: Rc<Env>) -> Rc<Env> {
        let mut frame = self.heap.frame_pool.pop().unwrap_or_else(|| {
            self.heap.fresh_frames += 1;
            Env::root()
        });
        let env = Rc::get_mut(&mut frame).expect("a pooled frame is unshared");
        env.slots.get_mut().resize(layout.len(), None);
        // A pooled frame often served the same scope last time.
        if !Rc::ptr_eq(&env.names, layout) {
            env.names = Rc::clone(layout);
        }
        env.parent = Some(parent);
        frame
    }

    /// Ends `frame`'s scope. A frame nothing else holds (no closure
    /// captured it, directly or through an inner frame) is cleared and
    /// pooled; a captured one lives on with its closure.
    pub(crate) fn release(&mut self, mut frame: Rc<Env>) {
        if let Some(env) = Rc::get_mut(&mut frame) {
            env.slots.get_mut().clear();
            env.parent = None;
            self.heap.frame_pool.push(frame);
        }
    }

    /// Closes the innermost scope frame: `env` becomes its parent.
    fn exit_scope(&mut self, env: &mut Rc<Env>) {
        let parent = env.parent.clone().expect("a scope frame has a parent");
        let scope = std::mem::replace(env, parent);
        self.release(scope);
    }

    /// Runs an op stream in `frame` (a call frame, or the root for a
    /// program), and every closure it calls on the way: a call pushes the
    /// caller's activation and the loop goes on in the callee's stream,
    /// so script calls take no native stack.
    ///
    /// Whatever way an activation ends, the frames it opened are released
    /// innermost first, as the walker's unwinding released them: callee
    /// frames of calls whose arguments were running, then scope frames,
    /// then its call frame.
    pub(crate) fn run(&mut self, code: &Code, frame: &Rc<Env>) -> Result<Value, EngineError> {
        let base = self.acts.len();
        let mut act = Act::new(None, Rc::clone(frame), self, Dst::Drop);
        loop {
            let ops = match &act.def {
                Some(def) => &def.code.ops[..],
                None => &code.ops[..],
            };
            match self.run_ops(ops, act.pc, &mut act.env, &mut act.scopes) {
                Ok(Transfer::Call { def, frame, dst, resume }) => {
                    act.pc = resume;
                    let callee = Act::new(Some(def), frame, self, dst);
                    self.acts.push(std::mem::replace(&mut act, callee));
                }
                Ok(Transfer::Return(value)) => {
                    self.leave(&mut act);
                    if self.acts.len() == base {
                        return Ok(value);
                    }
                    let dst = act.dst;
                    self.resume_caller(&mut act);
                    self.put(&act.env, &dst, value);
                }
                Err(err) => loop {
                    self.leave(&mut act);
                    if self.acts.len() == base {
                        return Err(err);
                    }
                    self.resume_caller(&mut act);
                },
            }
        }
    }

    /// Releases what an ending activation still holds, innermost first:
    /// callee frames of calls whose arguments were running, then scope
    /// frames. Its operands are dropped.
    fn leave(&mut self, act: &mut Act) {
        while self.calls.len() > act.calls_base {
            if let Some(Pending::Frame(_, frame)) = self.calls.pop() {
                self.release(frame);
            }
        }
        for _ in 0..std::mem::take(&mut act.scopes) {
            self.exit_scope(&mut act.env);
        }
        self.stack.truncate(act.stack_base);
    }

    /// Ends a called activation (left already) and makes its caller
    /// current again: the call frame is released as `enter` releases it.
    fn resume_caller(&mut self, act: &mut Act) {
        let caller = self.acts.pop().expect("a called activation has a caller");
        let callee = std::mem::replace(act, caller);
        self.depth -= 1;
        self.release(callee.env);
    }

    /// The op loop: runs `ops` from `pc` until a return or a call of a
    /// closure. Inlined into `run`, so a script call or return costs no
    /// native call.
    #[inline(always)]
    fn run_ops(
        &mut self,
        ops: &[Inst],
        mut pc: usize,
        env: &mut Rc<Env>,
        scopes: &mut u32,
    ) -> Result<Transfer, EngineError> {
        /// A call's outcome: a value for `dst`, or a closure to enter.
        macro_rules! called {
            ($called:expr, $dst:expr) => {
                match $called {
                    Called::Done(value) => self.put(env, $dst, value),
                    Called::Enter(def, frame) => {
                        let frame = self.admit(frame)?;
                        return Ok(Transfer::Call { def, frame, dst: *$dst, resume: pc });
                    }
                }
            };
        }
        loop {
            let Inst { ticks, op } = &ops[pc];
            let ticks = *ticks;
            pc += 1;
            match op {
                Op::Tick => self.tick_n(ticks)?,
                Op::Value { src, dst } => {
                    let value = match self.peek_num(env, src) {
                        Some(n) => {
                            self.tick_n(ticks)?;
                            Value::Num(n)
                        }
                        None => self.read1(env, ticks, src)?,
                    };
                    self.put(env, dst, value);
                }
                Op::TypeOfName { name, dst } => {
                    self.tick_n(ticks)?;
                    let value = self.read(env, name).unwrap_or(Value::Undefined);
                    let s = self.heap.new_str(value.type_of());
                    self.put(env, dst, Value::Str(s));
                }
                Op::Closure { def, dst } => {
                    self.tick_n(ticks)?;
                    let handle = self.heap.add_closure(Rc::clone(def), Rc::clone(env));
                    self.put(env, dst, Value::Fun(handle));
                }
                Op::Array { len, dst } => {
                    self.tick_n(ticks)?;
                    let base = self.stack.len() - *len as usize;
                    let h = self.heap.new_array(self.machine, &self.stack[base..])?;
                    self.stack.truncate(base);
                    self.put(env, dst, Value::Obj(h));
                }
                Op::NewObject => {
                    self.tick_n(ticks)?;
                    let h = self.heap.new_object();
                    self.stack.push(Value::Obj(h));
                }
                Op::InitProp { key, ic } => {
                    self.tick_n(ticks)?;
                    let value = self.pop();
                    let Some(&Value::Obj(h)) = self.stack.last() else {
                        unreachable!("an object literal is under its values")
                    };
                    self.heap.prop_set_ic(self.machine, h, key, &value, ic)?;
                }
                Op::Unary { op, dst } => {
                    self.tick_n(ticks)?;
                    let a = self.pop();
                    let value = self.unary(*op, &a);
                    self.put(env, dst, value);
                }
                Op::Bin { op, dst } => {
                    self.tick_n(ticks)?;
                    let b = self.pop();
                    let a = self.pop();
                    let value = self.bin(*op, a, b)?;
                    self.put(env, dst, value);
                }
                Op::Member { name, ic, dst } => {
                    self.tick_n(ticks)?;
                    let receiver = self.pop();
                    let value = self.member_get(&receiver, name, Some(ic))?;
                    self.put(env, dst, value);
                }
                Op::Index { dst } => {
                    self.tick_n(ticks)?;
                    let index = self.pop();
                    let receiver = self.pop();
                    let value = self.index_get(&receiver, &index)?;
                    self.put(env, dst, value);
                }
                Op::SetMember { name, ic, keep } => {
                    self.tick_n(ticks)?;
                    let receiver = self.pop();
                    let value = self.pop();
                    self.member_set(&receiver, name, &value, Some(ic))?;
                    if *keep {
                        self.stack.push(value);
                    }
                }
                Op::SetIndex { keep } => {
                    self.tick_n(ticks)?;
                    let index = self.pop();
                    let receiver = self.pop();
                    let value = self.pop();
                    self.index_set(&receiver, &index, &value)?;
                    if *keep {
                        self.stack.push(value);
                    }
                }
                Op::Update { name, op, b, dst } => {
                    if let (Some(x), Some(y)) = (self.name_num(env, name), self.peek_num(env, b)) {
                        self.tick_n(ticks)?;
                        let n = num_op(*op, x, y);
                        self.store_num(env, name, n);
                        if let Dst::AssignPush(_) = dst {
                            self.stack.push(Value::Num(n));
                        }
                        continue;
                    }
                    let (current, b) = self.read2(env, ticks, &Src::Name(*name), b)?;
                    let value = self.bin(*op, current, b)?;
                    self.put(env, dst, value);
                }
                Op::IncDec { name, step, prefix, dst } => {
                    self.tick_n(ticks)?;
                    let old = match self.name_num(env, name) {
                        Some(old) => {
                            self.store_num(env, name, old + step);
                            old
                        }
                        None => {
                            let old = number_of(&self.lookup(env, name)?);
                            self.assign(env, name, Value::Num(old + step));
                            old
                        }
                    };
                    if !matches!(dst, Dst::Drop) {
                        self.put(env, dst, Value::Num(if *prefix { old + step } else { old }));
                    }
                }
                Op::IncDecValue { step, prefix } => {
                    self.tick_n(ticks)?;
                    let old = number_of(&self.pop());
                    self.stack.push(Value::Num(if *prefix { old + step } else { old }));
                    self.stack.push(Value::Num(old + step));
                }
                Op::Put(dst) => {
                    self.tick_n(ticks)?;
                    let value = self.pop();
                    self.put(env, dst, value);
                }
                Op::DeclareUndef(name) => {
                    self.tick_n(ticks)?;
                    // Re-declaring a bound name keeps its value.
                    if !self.bound(env, name) {
                        self.declare(env, name, Value::Undefined);
                    }
                }
                Op::Hoist { def, name } => {
                    self.tick_n(ticks)?;
                    let handle = self.heap.add_closure(Rc::clone(def), Rc::clone(env));
                    self.declare(env, name, Value::Fun(handle));
                }
                Op::Jump(to) => {
                    self.tick_n(ticks)?;
                    pc = *to as usize;
                }
                Op::JumpIf { when, to } => {
                    self.tick_n(ticks)?;
                    if self.pop().truthy() == *when {
                        pc = *to as usize;
                    }
                }
                Op::JumpKeep { when, to } => {
                    self.tick_n(ticks)?;
                    if self.stack.last().is_some_and(Value::truthy) == *when {
                        pc = *to as usize;
                    } else {
                        self.pop();
                    }
                }
                Op::CmpJump { op, a, b, when, to } => {
                    let truth = match (self.peek_num(env, a), self.peek_num(env, b)) {
                        (Some(x), Some(y)) => {
                            self.tick_n(ticks)?;
                            compare_nums(*op, x, y)
                        }
                        _ => {
                            let (a, b) = self.read2(env, ticks, a, b)?;
                            self.compare(*op, &a, &b)
                        }
                    };
                    if truth == *when {
                        pc = *to as usize;
                    }
                }
                Op::EnterScope(layout) => {
                    self.tick_n(ticks)?;
                    *env = self.frame(layout, Rc::clone(env));
                    *scopes += 1;
                }
                Op::ExitScope(n) => {
                    self.tick_n(ticks)?;
                    for _ in 0..*n {
                        self.exit_scope(env);
                    }
                    *scopes -= n;
                }
                Op::Return => {
                    self.tick_n(ticks)?;
                    return Ok(Transfer::Return(self.pop()));
                }
                Op::ReturnUndef => {
                    self.tick_n(ticks)?;
                    return Ok(Transfer::Return(Value::Undefined));
                }
                Op::CallBegin => {
                    self.tick_n(ticks)?;
                    let callee = self.pop();
                    self.begin_call(callee);
                }
                Op::Call { argc, dst } => {
                    self.tick_n(ticks)?;
                    called!(self.finish_call(*argc as usize)?, dst);
                }
                Op::CallName { callee, args, dst } => {
                    let arg_ticks = args.iter().map(Src::nodes).sum::<u32>();
                    self.tick_n(ticks - arg_ticks)?;
                    let callee = self.lookup(env, callee)?;
                    called!(self.call_in_place(env, callee, arg_ticks, args)?, dst);
                }
                Op::CallMethod { name, method, ic, argc, dst } => {
                    self.tick_n(ticks)?;
                    if *argc == 1 {
                        if let Some(value) = self.method_direct(*method)? {
                            self.put(env, dst, value);
                            continue;
                        }
                    }
                    let args = self.pop_args(*argc as usize);
                    let receiver = self.pop();
                    called!(self.method(&receiver, name, *method, Some(ic), args.as_slice())?, dst);
                }
            }
        }
    }

    #[inline]
    fn pop(&mut self) -> Value {
        self.stack.pop().expect("lowering balances the operand stack")
    }

    /// Pops the last `argc` operands, in order.
    fn pop_args(&mut self, argc: usize) -> ArgBuf {
        let mut buf = ArgBuf::new(argc);
        let base = self.stack.len() - argc;
        for (slot, v) in buf.as_mut_slice().iter_mut().zip(self.stack.drain(base..)) {
            *slot = v;
        }
        buf
    }

    /// Puts an op's result where the lowering sent it.
    #[inline]
    fn put(&mut self, env: &Env, dst: &Dst, value: Value) {
        match dst {
            Dst::Push => self.stack.push(value),
            Dst::Drop => {}
            Dst::Declare(name) => self.declare(env, name, value),
            Dst::Assign(name) => self.assign(env, name, value),
            Dst::AssignPush(name) => {
                self.assign(env, name, value.clone());
                self.stack.push(value);
            }
        }
    }

    /// A bound slot's value.
    #[inline]
    fn peek_name(&self, env: &Env, name: &Name) -> Option<Value> {
        match name.slot {
            Slot::Global(slot) => self.heap.global(slot),
            Slot::Local { hops, slot } => env.up(hops).get(slot as usize),
        }
    }

    /// An in-place operand's value if it is a number literal or a bound
    /// slot holding a number (no `Value` is built for it).
    #[inline]
    fn peek_num(&self, env: &Env, src: &Src) -> Option<f64> {
        match src {
            Src::Num(n) => Some(*n),
            Src::Name(name) => self.name_num(env, name),
            _ => None,
        }
    }

    /// What `f` makes of a bound slot's value, read where it lies.
    #[inline]
    fn peek_with<T>(
        &self,
        env: &Env,
        name: &Name,
        f: impl FnOnce(&Value) -> Option<T>,
    ) -> Option<T> {
        match name.slot {
            Slot::Global(slot) => f(self.heap.global_ref(slot)?),
            Slot::Local { hops, slot } => f(env.up(hops).slots.borrow()[slot as usize].as_ref()?),
        }
    }

    /// A bound slot's value if it is a number or an object.
    #[inline]
    fn peek_fast(&self, env: &Env, name: &Name) -> Option<Fast> {
        self.peek_with(env, name, Fast::of)
    }

    /// The number a bound slot holds, if it holds one.
    #[inline]
    fn name_num(&self, env: &Env, name: &Name) -> Option<f64> {
        match self.peek_fast(env, name)? {
            Fast::Num(n) => Some(n),
            Fast::Obj(_) => None,
        }
    }

    /// Ticks the steps an effect must follow: `due` of the op's steps, of
    /// which `ticked` are spent.
    #[inline]
    fn settle(&mut self, due: u32, ticked: &mut u32) -> Result<(), EngineError> {
        if due <= *ticked {
            return Ok(());
        }
        let n = due - std::mem::replace(ticked, due);
        self.tick_n(n)
    }

    /// Reads an in-place operand whose nodes the walker entered after
    /// `base` of the op's steps. Reading a literal or a bound slot, and
    /// every operator on numbers, has no effect, so only what has one
    /// (a by-name walk, a `ReferenceError`, an element or member read, a
    /// string concatenation) first ticks every step the walker took before
    /// it.
    fn operand(
        &mut self,
        env: &Env,
        src: &Src,
        base: u32,
        ticked: &mut u32,
    ) -> Result<Value, EngineError> {
        match src {
            Src::Num(n) => Ok(Value::Num(*n)),
            Src::Lit(value) => Ok(value.clone()),
            Src::Name(name) => self.name_operand(env, name, base + 1, ticked),
            Src::Tree(nodes) => self.tree(env, nodes, base, ticked),
        }
    }

    /// A name's value, read as `operand` reads it: `due` steps precede a
    /// by-name walk or a `ReferenceError`.
    #[inline]
    fn name_operand(
        &mut self,
        env: &Env,
        name: &Name,
        due: u32,
        ticked: &mut u32,
    ) -> Result<Value, EngineError> {
        match self.peek_name(env, name) {
            Some(value) => Ok(value),
            None => {
                self.settle(due, ticked)?;
                self.lookup(env, name)
            }
        }
    }

    /// Evaluates an operand tree as `operand` reads it: numbers and
    /// objects on the native stack, until a node needs any other value.
    /// From there on the tree runs on the value stack.
    fn tree(
        &mut self,
        env: &Env,
        nodes: &[TreeNode],
        base: u32,
        ticked: &mut u32,
    ) -> Result<Value, EngineError> {
        let mut stack = [Fast::Num(0.0); TREE_DEPTH];
        let mut sp = 0;
        // Moves what the native stack holds (and a value just read) to
        // the value stack, and goes on there from node `at`.
        macro_rules! values_from {
            ($at:expr, $read:expr) => {{
                self.stack.extend(stack[..sp].iter().map(|&f| Value::from(f)));
                self.stack.extend($read);
                return self.tree_values(env, nodes, $at, base, ticked);
            }};
        }
        for (at, node) in nodes.iter().enumerate() {
            let item = match &node.kind {
                TreeKind::Num(n) => Fast::Num(*n),
                TreeKind::Name(name) | TreeKind::This(name) => match self.peek_fast(env, name) {
                    Some(fast) => fast,
                    None => values_from!(at, None),
                },
                TreeKind::Arg(slot) => match Fast::of(&self.args[*slot as usize]) {
                    Some(fast) => fast,
                    None => values_from!(at, None),
                },
                TreeKind::Length { name, ic } => {
                    let length = |v: &Value| match v {
                        Value::Str(s) => Some(Fast::Num(s.char_len() as f64)),
                        Value::Obj(h) => Some(Fast::Obj(*h)),
                        _ => None,
                    };
                    match self.peek_with(env, name, length) {
                        Some(Fast::Num(n)) => Fast::Num(n),
                        Some(Fast::Obj(h)) => {
                            self.settle(base + node.entered, ticked)?;
                            match self.member_get(&Value::Obj(h), "length", Some(ic))? {
                                Value::Num(n) => Fast::Num(n),
                                Value::Obj(h) => Fast::Obj(h),
                                other => values_from!(at + 1, Some(other)),
                            }
                        }
                        None => values_from!(at, None),
                    }
                }
                TreeKind::Unary(op) if *op != UnaryOp::Not => match stack[sp - 1] {
                    Fast::Num(x) => {
                        sp -= 1;
                        Fast::Num(unary_num(*op, x))
                    }
                    Fast::Obj(_) => values_from!(at, None),
                },
                TreeKind::Bin(op) if !op.is_comparison() => match (stack[sp - 2], stack[sp - 1]) {
                    (Fast::Num(x), Fast::Num(y)) => {
                        sp -= 2;
                        Fast::Num(num_op(*op, x, y))
                    }
                    _ => values_from!(at, None),
                },
                TreeKind::Index => match (stack[sp - 2], stack[sp - 1]) {
                    (Fast::Obj(h), Fast::Num(i)) => {
                        self.settle(base + node.entered, ticked)?;
                        sp -= 2;
                        match self.index_get(&Value::Obj(h), &Value::Num(i))? {
                            Value::Num(n) => Fast::Num(n),
                            Value::Obj(h) => Fast::Obj(h),
                            other => values_from!(at + 1, Some(other)),
                        }
                    }
                    _ => values_from!(at, None),
                },
                TreeKind::Member { name, ic } => match stack[sp - 1] {
                    Fast::Obj(h) => {
                        self.settle(base + node.entered, ticked)?;
                        sp -= 1;
                        match self.member_get(&Value::Obj(h), name, Some(ic))? {
                            Value::Num(n) => Fast::Num(n),
                            Value::Obj(h) => Fast::Obj(h),
                            other => values_from!(at + 1, Some(other)),
                        }
                    }
                    Fast::Num(_) => values_from!(at, None),
                },
                _ => values_from!(at, None),
            };
            stack[sp] = item;
            sp += 1;
        }
        Ok(Value::from(stack[0]))
    }

    /// Evaluates tree nodes from `at` on the value stack, which holds the
    /// values of the nodes before it.
    fn tree_values(
        &mut self,
        env: &Env,
        nodes: &[TreeNode],
        at: usize,
        base: u32,
        ticked: &mut u32,
    ) -> Result<Value, EngineError> {
        for node in &nodes[at..] {
            let due = base + node.entered;
            let value = match &node.kind {
                TreeKind::Num(n) => Value::Num(*n),
                TreeKind::Lit(value) => value.clone(),
                TreeKind::Name(name) => self.name_operand(env, name, due, ticked)?,
                TreeKind::This(name) => match self.peek_name(env, name) {
                    Some(value) => value,
                    None => {
                        self.settle(due, ticked)?;
                        self.read(env, name).unwrap_or(Value::Undefined)
                    }
                },
                TreeKind::Arg(slot) => self.args[*slot as usize].clone(),
                TreeKind::Length { name, ic } => {
                    let receiver = self.name_operand(env, name, due, ticked)?;
                    self.settle(due, ticked)?;
                    self.member_get(&receiver, "length", Some(ic))?
                }
                TreeKind::Unary(op) => {
                    let a = self.pop();
                    self.unary(*op, &a)
                }
                TreeKind::Bin(op) => {
                    let b = self.pop();
                    let a = self.pop();
                    match (&a, &b) {
                        (Value::Num(x), Value::Num(y)) => num_binary(*op, *x, *y),
                        (Value::Str(_), _) | (_, Value::Str(_)) if *op == BinaryOp::Add => {
                            self.settle(due, ticked)?;
                            self.binary(*op, &a, &b)?
                        }
                        _ => self.binary(*op, &a, &b)?,
                    }
                }
                TreeKind::Index => {
                    self.settle(due, ticked)?;
                    let index = self.pop();
                    let receiver = self.pop();
                    self.index_get(&receiver, &index)?
                }
                TreeKind::Member { name, ic } => {
                    self.settle(due, ticked)?;
                    let receiver = self.pop();
                    self.member_get(&receiver, name, Some(ic))?
                }
            };
            self.stack.push(value);
        }
        Ok(self.pop())
    }

    /// Reads one in-place operand, whose nodes are the last of the op's
    /// `ticks`, then ticks the rest.
    #[inline]
    fn read1(&mut self, env: &Env, ticks: u32, a: &Src) -> Result<Value, EngineError> {
        let mut ticked = 0;
        let value = self.operand(env, a, ticks - a.nodes(), &mut ticked)?;
        self.tick_n(ticks - ticked)?;
        Ok(value)
    }

    /// Reads two in-place operands, whose nodes are the last of the op's
    /// `ticks`, then ticks the rest.
    #[inline]
    fn read2(
        &mut self,
        env: &Env,
        ticks: u32,
        a: &Src,
        b: &Src,
    ) -> Result<(Value, Value), EngineError> {
        let mut ticked = 0;
        let x = self.operand(env, a, ticks - a.nodes() - b.nodes(), &mut ticked)?;
        let y = self.operand(env, b, ticks - b.nodes(), &mut ticked)?;
        self.tick_n(ticks - ticked)?;
        Ok((x, y))
    }

    /// Reads in-place operands in order into a buffer, as `read2` does.
    fn read_all(&mut self, env: &Env, ticks: u32, srcs: &[Src]) -> Result<ArgBuf, EngineError> {
        let mut buf = ArgBuf::new(srcs.len());
        let mut ticked = 0;
        let mut base = ticks - srcs.iter().map(Src::nodes).sum::<u32>();
        for (src, slot) in srcs.iter().zip(buf.as_mut_slice()) {
            *slot = self.operand(env, src, base, &mut ticked)?;
            base += src.nodes();
        }
        self.tick_n(ticks - ticked)?;
        Ok(buf)
    }

    /// A binary operator; two numbers take no generic path.
    #[inline]
    fn bin(&mut self, op: BinaryOp, a: Value, b: Value) -> Result<Value, EngineError> {
        match (&a, &b) {
            (Value::Num(x), Value::Num(y)) => Ok(num_binary(op, *x, *y)),
            _ => self.binary(op, &a, &b),
        }
    }

    /// A comparison's truth; two numbers take no generic path.
    #[inline]
    fn compare(&self, op: BinaryOp, a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Num(x), Value::Num(y)) => compare_nums(op, *x, *y),
            _ => self.compare_values(op, a, b),
        }
    }

    /// A unary operator.
    pub(crate) fn unary(&mut self, op: UnaryOp, a: &Value) -> Value {
        match op {
            UnaryOp::Neg => Value::Num(-number_of(a)),
            UnaryOp::Plus => Value::Num(number_of(a)),
            UnaryOp::Not => Value::Bool(!a.truthy()),
            UnaryOp::BitNot => Value::Num(f64::from(!to_int32(number_of(a)))),
            UnaryOp::TypeOf => Value::Str(self.heap.new_str(a.type_of())),
        }
    }

    /// Writes a number into a name whose slot is bound.
    #[inline]
    fn store_num(&mut self, env: &Env, name: &Name, n: f64) {
        match name.slot {
            Slot::Global(slot) => self.heap.set_global(slot, Value::Num(n)),
            Slot::Local { hops, slot } => env.up(hops).set(slot as usize, Value::Num(n)),
        }
    }

    /// A plain call whose arguments are read in place: a closure's frame
    /// is taken before they are read, and they are written straight into
    /// its parameter slots.
    fn call_in_place(
        &mut self,
        env: &Env,
        callee: Value,
        ticks: u32,
        args: &[Src],
    ) -> Result<Called, EngineError> {
        let closure = match callee {
            Value::Fun(handle) => self.heap.closure(handle).ok().cloned().map(|c| (handle, c)),
            _ => None,
        };
        let Some((handle, closure)) = closure else {
            // A stale handle takes the generic path, which fails only
            // after the arguments ran.
            let args = self.read_all(env, ticks, args)?;
            return self.invoke(&callee, Value::Undefined, args.as_slice());
        };
        if let Some(leaf) = &closure.def.code.leaf {
            return self.call_leaf(env, handle, &closure, leaf, ticks, args).map(Called::Done);
        }
        let Closure { def, env: captured, .. } = closure;
        let frame = self.frame(&def.layout, captured);
        frame.set(0, Value::Undefined);
        if let Some(slot) = def.self_slot {
            frame.set(slot as usize, Value::Fun(handle));
        }
        let filled = self.fill_params(env, &def, ticks, args, |_, slot, v| frame.set(slot, v));
        if let Err(err) = filled {
            self.release(frame);
            return Err(err);
        }
        Ok(Called::Enter(def, frame))
    }

    /// Runs a leaf function inside the calling op, as `call_in_place` and
    /// the callee's stream would: its slots are bound in the argument
    /// buffer in the frame's order, the depth check and the call count
    /// follow the arguments, and the returned tree ticks after the
    /// `return` statement's own step, reading other names from the
    /// captured scope. No frame is taken and no activation is pushed.
    fn call_leaf(
        &mut self,
        env: &Env,
        handle: FunHandle,
        closure: &Closure,
        leaf: &[TreeNode],
        ticks: u32,
        args: &[Src],
    ) -> Result<Value, EngineError> {
        let def = &closure.def;
        self.args[0] = Value::Undefined;
        if let Some(slot) = def.self_slot {
            self.args[slot as usize] = Value::Fun(handle);
        }
        self.fill_params(env, def, ticks, args, |cx, slot, v| cx.args[slot] = v)?;
        if self.depth >= MAX_CALL_DEPTH {
            return Err(EngineError::Range("call stack exceeded".into()));
        }
        self.heap.closure_calls += 1;
        let mut ticked = 0;
        let value = self.tree(&closure.env, leaf, 1, &mut ticked)?;
        self.tick_n(1 + tree_steps(leaf) - ticked)?;
        Ok(value)
    }

    /// Reads in-place arguments as `read_all` reads them and hands each to
    /// `bind` with the callee's parameter slot it fills (a frame's or the
    /// leaf argument buffer's); extra ones are read and dropped, missing
    /// ones bound as `undefined` after the op's steps are ticked.
    fn fill_params(
        &mut self,
        env: &Env,
        def: &FuncDef,
        ticks: u32,
        args: &[Src],
        bind: impl Fn(&mut Self, usize, Value),
    ) -> Result<(), EngineError> {
        let mut ticked = 0;
        let mut base = 0;
        for (i, src) in args.iter().enumerate() {
            let value = self.operand(env, src, base, &mut ticked)?;
            base += src.nodes();
            if let Some(&slot) = def.param_slots.get(i) {
                bind(self, slot as usize, value);
            }
        }
        self.tick_n(ticks - ticked)?;
        for &slot in def.param_slots.iter().skip(args.len()) {
            bind(self, slot as usize, Value::Undefined);
        }
        Ok(())
    }

    /// Starts a plain call: a closure's frame is taken, with `this` and
    /// the function's own name bound, before the arguments run. A stale
    /// handle takes the generic path, which fails only after they ran.
    fn begin_call(&mut self, callee: Value) {
        let pending = match callee {
            Value::Fun(handle) if self.heap.closure(handle).is_ok() => {
                let Closure { def, env, .. } = self.heap.closure(handle).expect("checked").clone();
                let frame = self.frame(&def.layout, env);
                frame.set(0, Value::Undefined);
                if let Some(slot) = def.self_slot {
                    frame.set(slot as usize, Value::Fun(handle));
                }
                Pending::Frame(def, frame)
            }
            other => Pending::Value(other),
        };
        self.calls.push(pending);
    }

    /// Finishes the innermost plain call with its `argc` arguments: a
    /// closure's are written straight into the frame `begin_call` took
    /// (missing ones as `undefined`).
    fn finish_call(&mut self, argc: usize) -> Result<Called, EngineError> {
        match self.calls.pop().expect("a call was begun") {
            Pending::Frame(def, frame) => {
                let base = self.stack.len() - argc;
                for (i, v) in self.stack.drain(base..).enumerate() {
                    if let Some(&slot) = def.param_slots.get(i) {
                        frame.set(slot as usize, v);
                    }
                }
                for &slot in def.param_slots.iter().skip(argc) {
                    frame.set(slot as usize, Value::Undefined);
                }
                Ok(Called::Enter(def, frame))
            }
            Pending::Value(callee) => {
                let args = self.pop_args(argc);
                self.invoke(&callee, Value::Undefined, args.as_slice())
            }
        }
    }

    /// `receiver.name(args)`, run to its end.
    #[cfg(test)]
    pub(crate) fn call_method(
        &mut self,
        receiver: Value,
        name: &str,
        method: Method,
        ic: Option<&PropIc>,
        args: &[Value],
    ) -> Result<Value, EngineError> {
        match self.method(&receiver, name, method, ic, args)? {
            Called::Done(value) => Ok(value),
            Called::Enter(def, frame) => self.enter(def, frame),
        }
    }

    /// The builtin calls a method call runs without building an argument
    /// buffer: `charCodeAt`/`charAt` of a string and `push` onto an array,
    /// each with one argument, popped with the receiver under it. `None`
    /// (nothing popped) sends the call to [`Ctx::method`].
    fn method_direct(&mut self, method: Method) -> Result<Option<Value>, EngineError> {
        let receiver = &self.stack[self.stack.len() - 2];
        match (method, receiver) {
            (Method::CharCodeAt | Method::CharAt, Value::Str(_)) => {
                let i = char_position(number_of(&self.pop()));
                let Value::Str(s) = self.pop() else { unreachable!("a string was checked") };
                Ok(Some(self.char_method(&s, method, i)))
            }
            // A stale handle fails on the generic path.
            (Method::Push, Value::Obj(h)) if matches!(self.heap.kind(*h), Ok(ObjKind::Array)) => {
                let h = *h;
                let value = self.pop();
                self.pop();
                let len = self.heap.array_push(self.machine, h, &value)?;
                Ok(Some(Value::Num(len as f64)))
            }
            _ => Ok(None),
        }
    }

    /// `receiver.name(args)`: builtin methods on strings and arrays
    /// dispatch directly; anything else calls the property's value with
    /// the receiver as `this`.
    fn method(
        &mut self,
        receiver: &Value,
        name: &str,
        method: Method,
        ic: Option<&PropIc>,
        args: &[Value],
    ) -> Result<Called, EngineError> {
        if let Some(result) = self.builtin_method(receiver, method, args)? {
            return Ok(Called::Done(result));
        }
        let f = self.member_get(receiver, name, ic)?;
        self.invoke(&f, receiver.clone(), args)
    }

    /// Calls a function value (closure or native) with `this` and `args`.
    pub fn call_value(
        &mut self,
        callee: &Value,
        this: Value,
        args: &[Value],
    ) -> Result<Value, EngineError> {
        match self.invoke(callee, this, args)? {
            Called::Done(value) => Ok(value),
            Called::Enter(def, frame) => self.enter(def, frame),
        }
    }

    /// Starts calling a function value: a native runs to its end; a
    /// closure gets its frame, with `this`, its own name and the
    /// arguments bound (missing ones as `undefined`), to be entered.
    fn invoke(
        &mut self,
        callee: &Value,
        this: Value,
        args: &[Value],
    ) -> Result<Called, EngineError> {
        if self.depth >= MAX_CALL_DEPTH {
            return Err(EngineError::Range("call stack exceeded".into()));
        }
        match callee {
            Value::Fun(handle) => {
                let Closure { def, env, .. } = self.heap.closure(*handle)?.clone();
                let frame = self.frame(&def.layout, env);
                frame.set(0, this);
                if let Some(slot) = def.self_slot {
                    frame.set(slot as usize, Value::Fun(*handle));
                }
                for (&slot, v) in def.param_slots.iter().zip(args) {
                    frame.set(slot as usize, v.clone());
                }
                for &slot in def.param_slots.iter().skip(args.len()) {
                    frame.set(slot as usize, Value::Undefined);
                }
                Ok(Called::Enter(def, frame))
            }
            Value::Native(handle) => {
                let native = self
                    .natives
                    .get(*handle as usize)
                    .cloned()
                    .ok_or_else(|| EngineError::Type("stale native handle".into()))?;
                self.depth += 1;
                let result = native(self, this, args);
                self.depth -= 1;
                Ok(Called::Done(result?))
            }
            other => Err(EngineError::Type(format!("{} is not a function", other.type_of()))),
        }
    }

    /// Admits a call into a closure's filled `frame`: the depth check
    /// comes after the arguments ran, as it does for a call of any other
    /// value.
    fn admit(&mut self, frame: Rc<Env>) -> Result<Rc<Env>, EngineError> {
        if self.depth >= MAX_CALL_DEPTH {
            self.release(frame);
            return Err(EngineError::Range("call stack exceeded".into()));
        }
        self.heap.closure_calls += 1;
        self.depth += 1;
        Ok(frame)
    }

    /// Runs closure body `def` in its filled `frame` on the native stack
    /// (a call from a native or the embedder), then releases the frame.
    pub(crate) fn enter(&mut self, def: Rc<FuncDef>, frame: Rc<Env>) -> Result<Value, EngineError> {
        let frame = self.admit(frame)?;
        let result = self.body(&def, &frame);
        self.depth -= 1;
        self.release(frame);
        result
    }

    fn body(&mut self, def: &FuncDef, frame: &Rc<Env>) -> Result<Value, EngineError> {
        #[cfg(test)]
        if self.walker.is_some() {
            return self.walk_body(def, frame);
        }
        self.run(&def.code, frame)
    }

    // ---- member / index access ----

    pub(crate) fn member_get(
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

    pub(crate) fn member_set(
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

    /// `receiver[index]`. A number keeps its old meaning where it has
    /// one: an array element (a non-negative integer, whatever the
    /// length, so the element fast path and its planted bug stay as they
    /// are), a string's character or a host node's child. Any other key
    /// is a property name, its JS `ToString`: `a[-1]` reads property
    /// `"-1"`, `o[null]` property `"null"`, and a canonical index string
    /// such as `"2"` is the index 2.
    pub(crate) fn index_get(
        &mut self,
        receiver: &Value,
        index: &Value,
    ) -> Result<Value, EngineError> {
        match (receiver, index) {
            (Value::Obj(h), Value::Num(i)) => {
                if is_elem_index(*i) && self.heap.kind(*h)? == ObjKind::Array {
                    self.heap.elem_get(self.machine, *h, *i)
                } else {
                    self.heap.prop_get(self.machine, *h, &fmt_f64(*i))
                }
            }
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
            (Value::Obj(_) | Value::Str(_) | Value::HostRef { .. }, _) => {
                let key = self.string_of(index)?;
                match canonical_index(&key) {
                    Some(i) => self.index_get(receiver, &Value::Num(i)),
                    None => self.member_get(receiver, &key, None),
                }
            }
            _ => Err(EngineError::Type(format!("cannot index a {}", receiver.type_of()))),
        }
    }

    /// `receiver[index] = value`, with the keys of [`Ctx::index_get`].
    pub(crate) fn index_set(
        &mut self,
        receiver: &Value,
        index: &Value,
        value: &Value,
    ) -> Result<(), EngineError> {
        match (receiver, index) {
            (Value::Obj(h), Value::Num(i)) => {
                if is_elem_index(*i) && self.heap.kind(*h)? == ObjKind::Array {
                    self.heap.elem_set(self.machine, *h, *i, value)
                } else {
                    let key = self.heap.new_str(fmt_f64(*i));
                    self.heap.prop_set(self.machine, *h, &key, value)
                }
            }
            (Value::Obj(_) | Value::HostRef { .. }, index) if !matches!(index, Value::Num(_)) => {
                let key = self.string_of(index)?;
                match canonical_index(&key) {
                    Some(i) => self.index_set(receiver, &Value::Num(i), value),
                    None => self.member_set(receiver, &key, value, None),
                }
            }
            _ => Err(EngineError::Type(format!("cannot index-assign a {}", receiver.type_of()))),
        }
    }

    /// Reads a variable; an unbound name is a `ReferenceError`.
    #[inline]
    pub(crate) fn lookup(&mut self, env: &Env, name: &Name) -> Result<Value, EngineError> {
        self.read(env, name)
            .ok_or_else(|| EngineError::Reference(self.heap.name(name.sym).to_string()))
    }

    /// Reads a name through its resolved slot; an unbound slot continues
    /// outward by name. `None` when the name is bound nowhere.
    #[inline]
    pub(crate) fn read(&mut self, env: &Env, name: &Name) -> Option<Value> {
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
    pub(crate) fn assign(&mut self, env: &Env, name: &Name, value: Value) {
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
    pub(crate) fn bound(&self, env: &Env, name: &Name) -> bool {
        match name.slot {
            Slot::Global(slot) => self.heap.global(slot).is_some(),
            Slot::Local { hops, slot } => env.up(hops).get(slot as usize).is_some(),
        }
    }

    /// Binds a `var` or function declaration in its own scope.
    #[inline]
    pub(crate) fn declare(&mut self, env: &Env, name: &Name, value: Value) {
        match name.slot {
            Slot::Global(slot) => self.heap.set_global(slot, value),
            Slot::Local { hops, slot } => env.up(hops).set(slot as usize, value),
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
        let spec = self.host_class(class)?;
        if let Some(&method) = spec.methods.get(name) {
            if let Some(ic) = ic {
                ic.store(self.heap.ic_epoch(), IcState::HostMethod { class, method });
            }
            return Ok(Value::Native(method));
        }
        let Some(field) = spec.fields.get(name).copied() else {
            return Err(EngineError::Type(format!("host class {} has no field {name}", spec.name)));
        };
        if let Some(ic) = ic {
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
        let mut cached = None;
        if let Some(ic) = ic {
            match ic.load(self.heap.ic_epoch()) {
                Some(IcState::HostField { class: hit, field }) if hit == class => {
                    self.heap.ic_hits += 1;
                    cached = Some(field);
                }
                _ => self.heap.ic_misses += 1,
            }
        }
        let field = match cached {
            Some(field) => field,
            None => {
                let spec = self.host_class(class)?;
                let Some(field) = spec.fields.get(name).copied() else {
                    return Err(EngineError::Type(format!(
                        "host class {} has no field {name}",
                        spec.name
                    )));
                };
                if let Some(ic) = ic {
                    ic.store(self.heap.ic_epoch(), IcState::HostField { class, field });
                }
                field
            }
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

    pub(crate) fn binary(
        &mut self,
        op: BinaryOp,
        a: &Value,
        b: &Value,
    ) -> Result<Value, EngineError> {
        Ok(match op {
            BinaryOp::Add => match (a, b) {
                (Value::Str(_), _) | (_, Value::Str(_)) => {
                    let parts = [self.string_of(a)?, self.string_of(b)?];
                    Value::Str(JsStr::concat(&parts, &mut self.heap.string_bytes_copied))
                }
                _ => Value::Num(self.to_number(a)? + self.to_number(b)?),
            },
            op if op.is_comparison() => Value::Bool(self.compare_values(op, a, b)),
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

    /// Dispatches builtin methods; returns `None` when `method` is not a
    /// builtin for this receiver (the caller falls back to properties).
    fn builtin_method(
        &mut self,
        receiver: &Value,
        method: Method,
        args: &[Value],
    ) -> Result<Option<Value>, EngineError> {
        match receiver {
            _ if method == Method::None => Ok(None),
            Value::Str(s) => self.string_method(s, method, args),
            Value::Obj(h) if self.heap.kind(*h)? == ObjKind::Array => {
                self.array_method(*h, method, args)
            }
            _ => Ok(None),
        }
    }

    fn string_method(
        &mut self,
        s: &JsStr,
        method: Method,
        args: &[Value],
    ) -> Result<Option<Value>, EngineError> {
        Ok(Some(match method {
            Method::CharCodeAt | Method::CharAt => {
                let i = args.first().map_or(0.0, number_of);
                self.char_method(s, method, char_position(i))
            }
            Method::Substring => {
                let len = s.char_len();
                let a = self.clamped_position(args.first(), len)?;
                let b = match args.get(1) {
                    Some(Value::Undefined) | None => len,
                    Some(v) => self.clamped_position(Some(v), len)?,
                };
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                Value::Str(self.substring(s, lo, hi))
            }
            Method::Slice => {
                let (lo, hi) = self.slice_bounds(args, s.char_len())?;
                Value::Str(self.substring(s, lo, hi))
            }
            Method::IndexOf => {
                let needle = self.string_of(args.first().unwrap_or(&Value::Undefined))?;
                let from = self.clamped_position(args.get(1), s.char_len())?;
                match s.index_of(&needle, from, &mut self.heap.string_bytes_walked) {
                    Some(i) => Value::Num(i as f64),
                    None => Value::Num(-1.0),
                }
            }
            Method::Split => {
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
            Method::ToUpperCase => Value::Str(self.heap.new_str(s.to_uppercase())),
            Method::ToLowerCase => Value::Str(self.heap.new_str(s.to_lowercase())),
            Method::Concat => {
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

    /// `s.charCodeAt(i)` or `s.charAt(i)` at position `i` (`None`: out of
    /// range).
    fn char_method(&mut self, s: &JsStr, method: Method, i: Option<usize>) -> Value {
        if method == Method::CharCodeAt {
            let code = i.and_then(|i| s.char_at(i, &mut self.heap.string_bytes_walked));
            return Value::Num(code.map_or(f64::NAN, |c| f64::from(u32::from(c))));
        }
        let c = i.and_then(|i| self.char_str(s, i));
        Value::Str(c.unwrap_or_else(|| self.heap.new_str("")))
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
        method: Method,
        args: &[Value],
    ) -> Result<Option<Value>, EngineError> {
        Ok(Some(match method {
            Method::Push => {
                let mut len = 0;
                for v in args {
                    len = self.heap.array_push(self.machine, h, v)?;
                }
                Value::Num(len as f64)
            }
            Method::Pop => self.heap.array_pop(self.machine, h)?,
            Method::Join => {
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
            Method::IndexOf => {
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
            Method::Slice => {
                let len = self.heap.array_len(self.machine, h)?;
                let (start, end) = self.slice_bounds(args, len as usize)?;
                let mut out = Vec::new();
                for i in start..end {
                    out.push(self.heap.elem_get(self.machine, h, i as f64)?);
                }
                Value::Obj(self.heap.new_array(self.machine, &out)?)
            }
            Method::Concat => {
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

/// A `charCodeAt`/`charAt` position: JS `ToIntegerOrInfinity` of the
/// argument's number (NaN, so also a missing argument, reads as 0, and a
/// fraction truncates toward zero), out of range when negative.
#[inline]
fn char_position(i: f64) -> Option<usize> {
    let i = if i.is_nan() { 0.0 } else { i.trunc() };
    (i >= 0.0).then_some(i as usize)
}

/// Whether an array reads index `i` as an element (every non-negative
/// integer; the length check comes after).
#[inline]
fn is_elem_index(i: f64) -> bool {
    i >= 0.0 && i.fract() == 0.0
}

/// The array index a property key names, if it is one in canonical form:
/// `"0"` or digits without a leading zero, below 2^32 - 1.
fn canonical_index(key: &str) -> Option<f64> {
    let digits = !key.is_empty() && key.len() <= 10 && key.bytes().all(|b| b.is_ascii_digit());
    if !digits || (key.len() > 1 && key.starts_with('0')) {
        return None;
    }
    let n: u64 = key.parse().ok()?;
    (n < u64::from(u32::MAX)).then_some(n as f64)
}

/// `ToNumber`.
pub(crate) fn number_of(v: &Value) -> f64 {
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

/// Any binary operator on two numbers.
#[inline]
fn num_binary(op: BinaryOp, x: f64, y: f64) -> Value {
    match op {
        BinaryOp::Add => Value::Num(x + y),
        op if op.is_comparison() => Value::Bool(compare_nums(op, x, y)),
        op => Value::Num(arith(op, x, y)),
    }
}

/// A number or an object: what a tree holds on the native stack.
#[derive(Clone, Copy)]
enum Fast {
    Num(f64),
    Obj(ObjHandle),
}

impl Fast {
    /// A number or an object, as a tree holds it.
    #[inline]
    fn of(v: &Value) -> Option<Fast> {
        match *v {
            Value::Num(n) => Some(Fast::Num(n)),
            Value::Obj(h) => Some(Fast::Obj(h)),
            _ => None,
        }
    }
}

impl From<Fast> for Value {
    fn from(fast: Fast) -> Value {
        match fast {
            Fast::Num(n) => Value::Num(n),
            Fast::Obj(h) => Value::Obj(h),
        }
    }
}

/// Unary `-`, `+` or `~` on a number.
#[inline]
fn unary_num(op: UnaryOp, x: f64) -> f64 {
    match op {
        UnaryOp::Neg => -x,
        UnaryOp::BitNot => f64::from(!to_int32(x)),
        _ => x,
    }
}

/// `+` or a numeric operator on two numbers.
#[inline]
fn num_op(op: BinaryOp, x: f64, y: f64) -> f64 {
    if op == BinaryOp::Add {
        x + y
    } else {
        arith(op, x, y)
    }
}

/// A numeric operator (every binary operator but `+` and the
/// comparisons) on two numbers.
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

/// A comparison of two numbers.
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

/// Up to this many call arguments are popped into a buffer on the native
/// stack.
const STACK_ARGS: usize = 4;

/// Popped call arguments: in a buffer on the native stack when they fit,
/// else on the heap.
enum ArgBuf {
    Stack([Value; STACK_ARGS], usize),
    Heap(Vec<Value>),
}

impl ArgBuf {
    /// `len` `undefined`s.
    fn new(len: usize) -> ArgBuf {
        if len > STACK_ARGS {
            return ArgBuf::Heap(vec![Value::Undefined; len]);
        }
        ArgBuf::Stack([const { Value::Undefined }; STACK_ARGS], len)
    }

    fn as_mut_slice(&mut self) -> &mut [Value] {
        match self {
            ArgBuf::Stack(buf, len) => &mut buf[..*len],
            ArgBuf::Heap(vals) => vals,
        }
    }

    fn as_slice(&self) -> &[Value] {
        match self {
            ArgBuf::Stack(buf, len) => &buf[..*len],
            ArgBuf::Heap(vals) => vals,
        }
    }
}
