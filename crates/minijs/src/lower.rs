//! Lowering: each program and function body becomes one linear op stream.
//!
//! `parse_program` lowers a program right after resolving it, so a source
//! is lowered at most once per engine (its program is cached). Every
//! function body gets its own [`Code`] in its `FuncDef`; the top level
//! gets one in the [`Program`].
//!
//! The ops run on a value stack. An operand read in place, with no trip
//! through the stack, is a [`Src`]: a literal, a resolved name, or an
//! expression tree without calls, assignments or branches (`this`, `o.p`,
//! `a[i] + 1`, ...). Four ops take such operands: `Value` (one operand),
//! `CmpJump` (a comparison fused with its branch), `Update` (`name op= b`
//! in the name's slot), and `CallName`, a call of a name whose arguments
//! go from where they are read straight into the callee's frame. Every
//! other op pops what it needs. A value-producing op writes
//! its result straight to its [`Dst`] (the stack, a `var`, an assignment
//! or nowhere), `++` and `--` on a name are one op each, builtin string
//! and array methods are named by [`Method`], and jump targets are stream
//! indices.
//!
//! **The tick rule.** The tree walker ticked once per statement and
//! expression node, on entering it. Lowering keeps that sequence exactly:
//! it counts the nodes it enters and hands the count to the next op it
//! emits. Reading a literal or a bound slot and applying an operator to
//! numbers have no effect, so they may run before or after any tick; every
//! other step (a by-name walk or `ReferenceError`, an element or member
//! read, a string concatenation, a write, a call) first ticks every node
//! the walker had entered before it (`Ctx::tick_n`). A spent budget or an
//! error therefore lands at the same clock with the same state behind it.
//!
//! **Leaf functions.** A function whose body is one `return` of an
//! operand tree is a *leaf*: its [`Code`] also keeps that tree, with the
//! function's own slots (`this`, the parameters, its own name) read from
//! the caller's argument buffer ([`TreeKind::Arg`]) and every other name
//! one frame closer, from the captured scope. `CallName` runs a leaf
//! inside the calling op, with no frame and no activation.

use std::rc::Rc;

use crate::ast::{AssignOp, BinaryOp, Expr, FuncDef, Layout, Name, Slot, Stmt, Target, UnaryOp};
use crate::ic::PropIc;
use crate::string::JsStr;
use crate::Value;

/// A lowered program: the top level's op stream (and, in tests, the
/// resolved statements for the reference walker).
#[derive(Debug)]
pub struct Program {
    #[cfg(test)]
    pub(crate) stmts: Vec<Stmt>,
    pub(crate) code: Code,
}

/// One op stream: a function body or a program's top level. The last op
/// always leaves the stream.
#[derive(Debug, Default)]
pub struct Code {
    pub(crate) ops: Box<[Inst]>,
    /// A leaf function's returned tree, read over its argument buffer.
    pub(crate) leaf: Option<Box<[TreeNode]>>,
}

/// The most slots (`this`, parameters, own name) a leaf function has: its
/// argument buffer's length.
pub(crate) const LEAF_SLOTS: usize = 8;

/// An op and the steps (nodes the walker entered) it accounts for.
#[derive(Debug)]
pub(crate) struct Inst {
    pub(crate) ticks: u32,
    pub(crate) op: Op,
}

/// An operand read in place: the op that consumes it reads it, with no
/// trip through the value stack.
#[derive(Clone, Debug)]
pub(crate) enum Src {
    /// A resolved name.
    Name(Name),
    /// A number literal.
    Num(f64),
    /// Any other literal.
    Lit(Value),
    /// Any other expression without calls, assignments or branches
    /// (`this`, `o.p`, `a[i] + 1`, ...) whose evaluation holds at most
    /// [`TREE_DEPTH`] values at once: its nodes in post-order.
    Tree(Box<[TreeNode]>),
}

/// The most values an operand tree's evaluation holds at once; a deeper
/// expression is lowered op by op.
pub(crate) const TREE_DEPTH: usize = 8;

impl Src {
    /// The nodes the operand stands for, each one step.
    pub(crate) fn nodes(&self) -> u32 {
        match self {
            Src::Tree(nodes) => tree_steps(nodes),
            _ => 1,
        }
    }
}

/// The nodes an operand tree stands for: the root comes last, when every
/// node has been entered.
#[inline]
pub(crate) fn tree_steps(nodes: &[TreeNode]) -> u32 {
    nodes.last().map_or(0, |root| root.entered)
}

/// One node of an operand tree, in post-order: an operator's operands are
/// the values the nodes before it left.
#[derive(Clone, Debug)]
pub(crate) struct TreeNode {
    pub(crate) kind: TreeKind,
    /// How many of the tree's nodes the walker had entered when this
    /// node's own work ran: the steps owed before any effect it has.
    pub(crate) entered: u32,
}

#[derive(Clone, Debug)]
pub(crate) enum TreeKind {
    Name(Name),
    Num(f64),
    Lit(Value),
    This(Name),
    /// Slot `n` of a leaf call's argument buffer.
    Arg(u32),
    /// `name.length`: the name and the member read as one node, so a
    /// string's length is read where it lies.
    Length {
        name: Name,
        ic: PropIc,
    },
    /// `-`, `+`, `~` or `!`.
    Unary(UnaryOp),
    /// Any binary operator.
    Bin(BinaryOp),
    /// `obj[idx]`.
    Index,
    /// `obj.name`.
    Member {
        name: JsStr,
        ic: PropIc,
    },
}

/// Where a value-producing op puts its result.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Dst {
    /// Onto the value stack.
    Push,
    /// Nowhere (an expression statement).
    Drop,
    /// Into a `var`'s own slot.
    Declare(Name),
    /// Into a name, as an assignment.
    Assign(Name),
    /// Into a name, and onto the stack (an assignment whose value is used).
    AssignPush(Name),
}

/// The builtin methods of strings and arrays, named once at lowering time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Method {
    CharCodeAt,
    CharAt,
    Substring,
    Slice,
    IndexOf,
    Split,
    ToUpperCase,
    ToLowerCase,
    Concat,
    Push,
    Pop,
    Join,
    /// Not a builtin: the call reads the property.
    None,
}

impl Method {
    /// The builtin a method name denotes.
    pub(crate) fn of(name: &str) -> Method {
        match name {
            "charCodeAt" => Method::CharCodeAt,
            "charAt" => Method::CharAt,
            "substring" => Method::Substring,
            "slice" => Method::Slice,
            "indexOf" => Method::IndexOf,
            "split" => Method::Split,
            "toUpperCase" => Method::ToUpperCase,
            "toLowerCase" => Method::ToLowerCase,
            "concat" => Method::Concat,
            "push" => Method::Push,
            "pop" => Method::Pop,
            "join" => Method::Join,
            _ => Method::None,
        }
    }
}

/// The ops. "Pops" names stack operands, the top last.
#[derive(Debug)]
pub(crate) enum Op {
    /// Ticks only (pending steps before a jump target).
    Tick,
    /// An in-place operand's value.
    Value {
        src: Src,
        dst: Dst,
    },
    /// `typeof name` (no `ReferenceError`).
    TypeOfName {
        name: Name,
        dst: Dst,
    },
    /// A closure over the current scope.
    Closure {
        def: Rc<FuncDef>,
        dst: Dst,
    },
    /// Pops `len` elements into a new array.
    Array {
        len: u32,
        dst: Dst,
    },
    /// Pushes a new plain object.
    NewObject,
    /// Pops a value and defines it on the object below it.
    InitProp {
        key: JsStr,
        ic: PropIc,
    },
    /// Pops an operand.
    Unary {
        op: UnaryOp,
        dst: Dst,
    },
    /// Pops `a`, `b`; `a op b`.
    Bin {
        op: BinaryOp,
        dst: Dst,
    },
    /// Pops the receiver; `obj.name`.
    Member {
        name: JsStr,
        ic: PropIc,
        dst: Dst,
    },
    /// Pops the receiver and the index.
    Index {
        dst: Dst,
    },
    /// Pops the value and the receiver; `obj.name = value`.
    SetMember {
        name: JsStr,
        ic: PropIc,
        keep: bool,
    },
    /// Pops the value, the receiver and the index.
    SetIndex {
        keep: bool,
    },
    /// `name op= b`.
    Update {
        name: Name,
        op: BinaryOp,
        b: Src,
        dst: Dst,
    },
    /// `++name`, `name--`, ...
    IncDec {
        name: Name,
        step: f64,
        prefix: bool,
        dst: Dst,
    },
    /// Pops a target's current value; pushes the expression's result,
    /// then the value to write back.
    IncDecValue {
        step: f64,
        prefix: bool,
    },
    /// Pops a value into `dst`.
    Put(Dst),
    /// `var name;` (keeps a bound value).
    DeclareUndef(Name),
    /// Binds a hoisted function declaration.
    Hoist {
        def: Rc<FuncDef>,
        name: Name,
    },
    Jump(u32),
    /// Pops a value; jumps if its truth is `when`.
    JumpIf {
        when: bool,
        to: u32,
    },
    /// `&&`/`||`: jumps keeping the value if its truth is `when`, else
    /// pops it.
    JumpKeep {
        when: bool,
        to: u32,
    },
    /// A comparison of in-place operands, fused with its branch.
    CmpJump {
        op: BinaryOp,
        a: Src,
        b: Src,
        when: bool,
        to: u32,
    },
    /// Opens a `for` or block scope's frame.
    EnterScope(Layout),
    /// Closes this many scope frames.
    ExitScope(u32),
    /// Pops the return value.
    Return,
    /// Returns `undefined`.
    ReturnUndef,
    /// Pops the callee of a plain call; a closure's frame is taken now,
    /// before the arguments run.
    CallBegin,
    /// Pops `argc` arguments and calls the callee `CallBegin` took.
    Call {
        argc: u32,
        dst: Dst,
    },
    /// A plain call of a name with in-place arguments; a leaf callee runs
    /// inside this op.
    CallName {
        callee: Name,
        args: Box<[Src]>,
        dst: Dst,
    },
    /// Pops the receiver and `argc` arguments; `obj.name(args)`.
    CallMethod {
        name: JsStr,
        method: Method,
        ic: PropIc,
        argc: u32,
        dst: Dst,
    },
}

/// Lowers a resolved program.
pub(crate) fn lower_program(mut stmts: Vec<Stmt>) -> Program {
    let mut lower = Lower::default();
    lower.block(&mut stmts);
    let code = lower.finish();
    Program {
        #[cfg(test)]
        stmts,
        code,
    }
}

/// Lowers a function body into its own stream, and marks a leaf.
fn lower_function(def: &mut FuncDef) {
    let mut lower = Lower::default();
    lower.block(&mut def.body);
    def.code = lower.finish();
    def.code.leaf = leaf(def);
}

/// A leaf function's returned tree over its argument buffer: the body is
/// one `return` of an operand tree, and the frame has at most
/// [`LEAF_SLOTS`] slots. The function's own slots (hop 0) become buffer
/// reads; every other local name is one hop closer, counted from the
/// captured scope the call frame would have had as its parent.
fn leaf(def: &FuncDef) -> Option<Box<[TreeNode]>> {
    let [Stmt::Return(Some(e))] = &def.body[..] else {
        return None;
    };
    if def.layout.len() > LEAF_SLOTS {
        return None;
    }
    let Some(Src::Tree(nodes)) = src_tree(e) else {
        return None;
    };
    let mut out = Vec::with_capacity(nodes.len());
    for node in nodes.into_vec() {
        let entered = node.entered;
        let kind = match node.kind {
            TreeKind::Name(name) => {
                own_slot(&name).map_or_else(|| TreeKind::Name(outer(name)), TreeKind::Arg)
            }
            TreeKind::This(name) => {
                own_slot(&name).map_or_else(|| TreeKind::This(outer(name)), TreeKind::Arg)
            }
            TreeKind::Length { name, ic } => match own_slot(&name) {
                // A parameter's length is the buffer read, then the member.
                Some(slot) => {
                    out.push(TreeNode { kind: TreeKind::Arg(slot), entered });
                    TreeKind::Member { name: JsStr::from("length"), ic }
                }
                None => TreeKind::Length { name: outer(name), ic },
            },
            kind => kind,
        };
        out.push(TreeNode { kind, entered });
    }
    Some(out.into())
}

/// The slot of a name the function's own frame binds.
fn own_slot(name: &Name) -> Option<u32> {
    match name.slot {
        Slot::Local { hops: 0, slot } => Some(slot),
        _ => None,
    }
}

/// A name read from the captured scope instead of the call frame.
fn outer(name: Name) -> Name {
    match name.slot {
        Slot::Local { hops, slot } => Name { slot: Slot::Local { hops: hops - 1, slot }, ..name },
        Slot::Global(_) => name,
    }
}

/// An enclosing loop: the scope depth of its body and the jumps that
/// `break` and `continue` left to patch.
struct Loop {
    depth: u32,
    breaks: Vec<usize>,
    continues: Vec<usize>,
}

#[derive(Default)]
struct Lower {
    ops: Vec<Inst>,
    /// Node ticks the next op performs.
    pending: u32,
    /// Scope frames open at this point of the stream.
    depth: u32,
    loops: Vec<Loop>,
}

/// `e` as an operand read in place, if it is one: a literal, a name, or a
/// tree of those and `this` under unary `-`, `+`, `~` and `!`, binary
/// operators, indexing and member reads that holds at most [`TREE_DEPTH`]
/// values at once.
fn src(e: &Expr) -> Option<Src> {
    match e {
        Expr::Num(n) => Some(Src::Num(*n)),
        Expr::Ident(name) => Some(Src::Name(*name)),
        Expr::Str(_) | Expr::Bool(_) | Expr::Null | Expr::Undefined => Some(Src::Lit(literal(e)?)),
        _ => src_tree(e),
    }
}

/// `e` as an operand tree, if it is one.
fn src_tree(e: &Expr) -> Option<Src> {
    let mut nodes = Vec::new();
    tree(e, &mut nodes, &mut 0)?;
    let mut depth = 0usize;
    let shallow = nodes.iter().all(|node| {
        depth = match node.kind {
            TreeKind::Unary(_) | TreeKind::Member { .. } => depth,
            TreeKind::Bin(_) | TreeKind::Index => depth - 1,
            _ => depth + 1,
        };
        depth <= TREE_DEPTH
    });
    shallow.then(|| Src::Tree(nodes.into()))
}

/// A literal's value.
fn literal(e: &Expr) -> Option<Value> {
    Some(match e {
        Expr::Num(n) => Value::Num(*n),
        Expr::Str(s) => Value::Str(s.clone()),
        Expr::Bool(b) => Value::Bool(*b),
        Expr::Null => Value::Null,
        Expr::Undefined => Value::Undefined,
        _ => return None,
    })
}

/// Appends `e`'s nodes in post-order if it is a tree; `entered` counts the
/// nodes entered so far, in the walker's (pre-)order.
fn tree(e: &Expr, nodes: &mut Vec<TreeNode>, entered: &mut u32) -> Option<()> {
    *entered += 1;
    let kind = match e {
        Expr::Num(n) => TreeKind::Num(*n),
        Expr::Ident(name) => TreeKind::Name(*name),
        Expr::This(name) => TreeKind::This(*name),
        Expr::Str(_) | Expr::Bool(_) | Expr::Null | Expr::Undefined => TreeKind::Lit(literal(e)?),
        Expr::Unary(op @ (UnaryOp::Neg | UnaryOp::Plus | UnaryOp::BitNot | UnaryOp::Not), x) => {
            tree(x, nodes, entered)?;
            TreeKind::Unary(*op)
        }
        Expr::Binary(op, a, b) => {
            tree(a, nodes, entered)?;
            tree(b, nodes, entered)?;
            TreeKind::Bin(*op)
        }
        Expr::Index(obj, idx) => {
            tree(obj, nodes, entered)?;
            tree(idx, nodes, entered)?;
            TreeKind::Index
        }
        Expr::Member(obj, name, ic) => match &**obj {
            // The name is entered right after the member, and both act
            // once every node is entered.
            Expr::Ident(recv) if &**name == "length" => {
                *entered += 1;
                TreeKind::Length { name: *recv, ic: ic.clone() }
            }
            _ => {
                tree(obj, nodes, entered)?;
                TreeKind::Member { name: name.clone(), ic: ic.clone() }
            }
        },
        _ => return None,
    };
    nodes.push(TreeNode { kind, entered: *entered });
    Some(())
}

impl Lower {
    fn finish(mut self) -> Code {
        self.emit(Op::ReturnUndef);
        Code { ops: self.ops.into(), leaf: None }
    }

    /// Appends `op`, which ticks every pending node.
    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(Inst { ticks: std::mem::take(&mut self.pending), op });
        self.ops.len() - 1
    }

    /// A jump target here: pending ticks are spent first, since paths
    /// that jump here did not enter those nodes.
    fn label(&mut self) -> u32 {
        if self.pending > 0 {
            self.emit(Op::Tick);
        }
        self.ops.len() as u32
    }

    fn patch(&mut self, jumps: &[usize], to: u32) {
        for &at in jumps {
            match &mut self.ops[at].op {
                Op::Jump(t)
                | Op::JumpIf { to: t, .. }
                | Op::JumpKeep { to: t, .. }
                | Op::CmpJump { to: t, .. } => *t = to,
                other => unreachable!("patching {other:?}"),
            }
        }
    }

    /// Stores a value the stack holds into `dst`.
    fn put(&mut self, dst: Dst) {
        if !matches!(dst, Dst::Push) {
            self.emit(Op::Put(dst));
        }
    }

    /// A statement list: function declarations are bound first, as the
    /// walker hoisted them on entering the list.
    fn block(&mut self, stmts: &mut [Stmt]) {
        for stmt in stmts.iter_mut() {
            if let Stmt::Func(def, name) = stmt {
                lower_function(Rc::get_mut(def).expect("a freshly parsed function is not shared"));
                self.emit(Op::Hoist { def: Rc::clone(def), name: *name });
            }
        }
        for stmt in stmts {
            self.stmt(stmt);
        }
    }

    /// A `for` or block scope with `layout`: a frame only if it can bind.
    fn scoped(&mut self, layout: &Layout, body: impl FnOnce(&mut Self)) {
        if layout.is_empty() {
            return body(self);
        }
        self.emit(Op::EnterScope(Rc::clone(layout)));
        self.depth += 1;
        body(self);
        self.emit(Op::ExitScope(1));
        self.depth -= 1;
    }

    /// A loop body, with `break` and `continue` patched by `close_loop`.
    fn loop_body(&mut self, body: &mut [Stmt]) {
        self.loops.push(Loop { depth: self.depth, breaks: Vec::new(), continues: Vec::new() });
        self.block(body);
    }

    fn close_loop(&mut self, cont: u32, brk: u32) {
        let lp = self.loops.pop().expect("a loop is open");
        self.patch(&lp.breaks, brk);
        self.patch(&lp.continues, cont);
    }

    fn stmt(&mut self, stmt: &mut Stmt) {
        self.pending += 1;
        match stmt {
            Stmt::Var(decls) => {
                for (name, init) in decls {
                    match init {
                        Some(e) => self.expr(e, Dst::Declare(*name)),
                        None => {
                            self.emit(Op::DeclareUndef(*name));
                        }
                    }
                }
            }
            // Bound by `block`; only its tick remains.
            Stmt::Func(..) => {}
            Stmt::Expr(e) => self.expr(e, Dst::Drop),
            Stmt::If(cond, then, alt) => {
                let skip = self.cond(cond, false);
                self.block(then);
                if alt.is_empty() {
                    let end = self.label();
                    self.patch(&skip, end);
                } else {
                    let exit = self.emit(Op::Jump(0));
                    let other = self.label();
                    self.patch(&skip, other);
                    self.block(alt);
                    let end = self.label();
                    self.patch(&[exit], end);
                }
            }
            Stmt::While(cond, body) => {
                let enter = self.emit(Op::Jump(0));
                let top = self.label();
                self.loop_body(body);
                let test = self.label();
                self.patch(&[enter], test);
                let back = self.cond(cond, true);
                self.patch(&back, top);
                let end = self.label();
                self.close_loop(test, end);
            }
            Stmt::DoWhile(body, cond) => {
                let top = self.label();
                self.loop_body(body);
                let test = self.label();
                let back = self.cond(cond, true);
                self.patch(&back, top);
                let end = self.label();
                self.close_loop(test, end);
            }
            Stmt::For { init, cond, update, body, layout } => {
                let layout = Rc::clone(layout);
                self.scoped(&layout, |l| {
                    if let Some(init) = init {
                        l.stmt(init);
                    }
                    let enter = l.emit(Op::Jump(0));
                    let top = l.label();
                    l.loop_body(body);
                    let next = l.label();
                    if let Some(update) = update {
                        l.expr(update, Dst::Drop);
                    }
                    let test = l.label();
                    l.patch(&[enter], test);
                    match cond {
                        Some(cond) => {
                            let back = l.cond(cond, true);
                            l.patch(&back, top);
                        }
                        None => {
                            l.emit(Op::Jump(top));
                        }
                    }
                    let end = l.label();
                    l.close_loop(next, end);
                });
            }
            Stmt::Return(value) => match value {
                Some(e) => {
                    self.expr(e, Dst::Push);
                    self.emit(Op::Return);
                }
                None => {
                    self.emit(Op::ReturnUndef);
                }
            },
            Stmt::Break | Stmt::Continue => {
                let is_break = matches!(stmt, Stmt::Break);
                let Some(depth) = self.loops.last().map(|lp| lp.depth) else {
                    // Outside a loop the jump leaves the function (or the
                    // program), which then returns `undefined`.
                    self.emit(Op::ReturnUndef);
                    return;
                };
                if self.depth > depth {
                    self.emit(Op::ExitScope(self.depth - depth));
                }
                let at = self.emit(Op::Jump(0));
                let lp = self.loops.last_mut().expect("a loop is open");
                if is_break {
                    lp.breaks.push(at);
                } else {
                    lp.continues.push(at);
                }
            }
            Stmt::Block(body, layout) => {
                let layout = Rc::clone(layout);
                self.scoped(&layout, |l| l.block(body));
            }
        }
    }

    /// Lowers `e` as a condition: the returned jumps are taken when its
    /// truth is `when`, and fall through otherwise.
    fn cond(&mut self, e: &mut Expr, when: bool) -> Vec<usize> {
        match e {
            Expr::And(..) | Expr::Or(..) => {
                self.pending += 1;
                // `&&` decides on a false operand, `||` on a true one.
                let decides = matches!(e, Expr::Or(..));
                let (Expr::And(a, b) | Expr::Or(a, b)) = e else { unreachable!() };
                if when == decides {
                    let mut jumps = self.cond(a, when);
                    jumps.extend(self.cond(b, when));
                    jumps
                } else {
                    let skip = self.cond(a, decides);
                    let jumps = self.cond(b, when);
                    let past = self.label();
                    self.patch(&skip, past);
                    jumps
                }
            }
            Expr::Unary(UnaryOp::Not, x) => {
                self.pending += 1;
                self.cond(x, !when)
            }
            Expr::Binary(op, a, b) if op.is_comparison() => match (src(a), src(b)) {
                (Some(a), Some(b)) => {
                    self.pending += 1 + a.nodes() + b.nodes();
                    vec![self.emit(Op::CmpJump { op: *op, a, b, when, to: 0 })]
                }
                _ => self.jump_if(e, when),
            },
            _ => self.jump_if(e, when),
        }
    }

    /// Pushes `e`'s value and jumps if its truth is `when`.
    fn jump_if(&mut self, e: &mut Expr, when: bool) -> Vec<usize> {
        self.expr(e, Dst::Push);
        vec![self.emit(Op::JumpIf { when, to: 0 })]
    }

    fn expr(&mut self, e: &mut Expr, dst: Dst) {
        if let Some(value) = src(e) {
            self.pending += value.nodes();
            self.emit(Op::Value { src: value, dst });
            return;
        }
        self.pending += 1;
        match e {
            Expr::Num(_)
            | Expr::Str(_)
            | Expr::Bool(_)
            | Expr::Null
            | Expr::Undefined
            | Expr::This(_)
            | Expr::Ident(_) => unreachable!("an operand in place"),
            Expr::ArrayLit(items) => {
                for item in items.iter_mut() {
                    self.expr(item, Dst::Push);
                }
                self.emit(Op::Array { len: items.len() as u32, dst });
            }
            Expr::ObjectLit(props) => {
                self.emit(Op::NewObject);
                for (key, value, ic) in props {
                    self.expr(value, Dst::Push);
                    self.emit(Op::InitProp { key: key.clone(), ic: ic.clone() });
                }
                self.put(dst);
            }
            Expr::Function(def) => {
                lower_function(Rc::get_mut(def).expect("a freshly parsed function is not shared"));
                self.emit(Op::Closure { def: Rc::clone(def), dst });
            }
            Expr::Call { callee, args } => self.call(callee, args, dst),
            // A receiver, index or operand that is not in place (a call,
            // say) goes through the stack.
            Expr::Member(obj, name, ic) => {
                let (name, ic) = (name.clone(), ic.clone());
                self.expr(obj, Dst::Push);
                self.emit(Op::Member { name, ic, dst });
            }
            Expr::Index(obj, idx) => {
                self.expr(obj, Dst::Push);
                self.expr(idx, Dst::Push);
                self.emit(Op::Index { dst });
            }
            Expr::Binary(op, a, b) => {
                let op = *op;
                self.expr(a, Dst::Push);
                self.expr(b, Dst::Push);
                self.emit(Op::Bin { op, dst });
            }
            Expr::And(..) | Expr::Or(..) => {
                let when = matches!(e, Expr::Or(..));
                let (Expr::And(a, b) | Expr::Or(a, b)) = e else { unreachable!() };
                self.expr(a, Dst::Push);
                let skip = self.emit(Op::JumpKeep { when, to: 0 });
                self.expr(b, Dst::Push);
                let end = self.label();
                self.patch(&[skip], end);
                self.put(dst);
            }
            Expr::Unary(op, x) => {
                let op = *op;
                match (op, &**x) {
                    // `typeof` reads a bare name without entering it.
                    (UnaryOp::TypeOf, Expr::Ident(name)) => {
                        self.emit(Op::TypeOfName { name: *name, dst });
                    }
                    _ => {
                        self.expr(x, Dst::Push);
                        self.emit(Op::Unary { op, dst });
                    }
                }
            }
            Expr::Ternary(cond, a, b) => {
                let other = self.cond(cond, false);
                self.expr(a, dst);
                let exit = self.emit(Op::Jump(0));
                let at = self.label();
                self.patch(&other, at);
                self.expr(b, dst);
                let end = self.label();
                self.patch(&[exit], end);
            }
            Expr::Assign(target, op, value) => self.assign(target, *op, value, dst),
            Expr::IncrDecr { target, is_incr, prefix } => {
                let step = if *is_incr { 1.0 } else { -1.0 };
                let prefix = *prefix;
                match target {
                    Target::Ident(name) => {
                        self.emit(Op::IncDec { name: *name, step, prefix, dst });
                    }
                    Target::Member(..) | Target::Index(..) => {
                        // Read, convert, then evaluate the target again to
                        // write, as the walker did.
                        self.read_target(target);
                        self.emit(Op::IncDecValue { step, prefix });
                        self.write_target(target, false);
                        self.put(dst);
                    }
                }
            }
        }
    }

    /// Pushes a member or index target's current value.
    fn read_target(&mut self, target: &mut Target) {
        match target {
            Target::Ident(_) => unreachable!("names are read in place"),
            Target::Member(obj, name, ic) => {
                let (name, ic) = (name.clone(), ic.clone());
                self.expr(obj, Dst::Push);
                self.emit(Op::Member { name, ic, dst: Dst::Push });
            }
            Target::Index(obj, idx) => {
                self.expr(obj, Dst::Push);
                self.expr(idx, Dst::Push);
                self.emit(Op::Index { dst: Dst::Push });
            }
        }
    }

    /// Pops a value into a member or index target, evaluating the target.
    fn write_target(&mut self, target: &mut Target, keep: bool) {
        match target {
            Target::Ident(_) => unreachable!("names are written in place"),
            Target::Member(obj, name, ic) => {
                let (name, ic) = (name.clone(), ic.clone());
                self.expr(obj, Dst::Push);
                self.emit(Op::SetMember { name, ic, keep });
            }
            Target::Index(obj, idx) => {
                self.expr(obj, Dst::Push);
                self.expr(idx, Dst::Push);
                self.emit(Op::SetIndex { keep });
            }
        }
    }

    fn assign(&mut self, target: &mut Target, op: AssignOp, value: &mut Expr, dst: Dst) {
        if let Target::Ident(name) = target {
            let name = *name;
            // The assignment's own destination, then the expression's.
            let (inner, rest) = match dst {
                Dst::Drop => (Dst::Assign(name), None),
                Dst::Push => (Dst::AssignPush(name), None),
                other => (Dst::AssignPush(name), Some(other)),
            };
            match op {
                AssignOp::Assign => self.expr(value, inner),
                AssignOp::Compound(bin) => match src(value) {
                    Some(b) => {
                        self.pending += b.nodes();
                        self.emit(Op::Update { name, op: bin, b, dst: inner });
                    }
                    None => {
                        // The target is read before the value runs; it is
                        // not a node of its own, so it takes no step.
                        self.emit(Op::Value { src: Src::Name(name), dst: Dst::Push });
                        self.expr(value, Dst::Push);
                        self.emit(Op::Bin { op: bin, dst: inner });
                    }
                },
            }
            if let Some(rest) = rest {
                self.put(rest);
            }
            return;
        }
        let keep = !matches!(dst, Dst::Drop);
        match op {
            // The value runs before the target.
            AssignOp::Assign => self.expr(value, Dst::Push),
            AssignOp::Compound(bin) => {
                self.read_target(target);
                self.expr(value, Dst::Push);
                self.emit(Op::Bin { op: bin, dst: Dst::Push });
            }
        }
        self.write_target(target, keep);
        if keep {
            self.put(dst);
        }
    }

    fn call(&mut self, callee: &mut Expr, args: &mut [Expr], dst: Dst) {
        if let Expr::Member(obj, name, ic) = callee {
            // The callee member itself is not a step: the receiver is.
            let (name, ic) = (name.clone(), ic.clone());
            let method = Method::of(&name);
            self.expr(obj, Dst::Push);
            for arg in args.iter_mut() {
                self.expr(arg, Dst::Push);
            }
            self.emit(Op::CallMethod { name, method, ic, argc: args.len() as u32, dst });
            return;
        }
        let in_place: Option<Vec<Src>> = args.iter().map(src).collect();
        if let (Expr::Ident(callee), Some(args)) = (&*callee, in_place) {
            self.pending += 1 + args.iter().map(Src::nodes).sum::<u32>();
            self.emit(Op::CallName { callee: *callee, args: args.into(), dst });
            return;
        }
        self.expr(callee, Dst::Push);
        self.emit(Op::CallBegin);
        for arg in args.iter_mut() {
            self.expr(arg, Dst::Push);
        }
        self.emit(Op::Call { argc: args.len() as u32, dst });
    }
}
