//! The abstract syntax tree.

use std::rc::Rc;

use crate::heap::Sym;
use crate::ic::PropIc;
use crate::lower::Code;
use crate::string::JsStr;

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinaryOp {
    /// `+` (numeric addition or string concatenation).
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%`.
    Rem,
    /// `==` (implemented as strict equality; the subset has no coercing
    /// equality).
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `&` with `ToInt32` semantics.
    BitAnd,
    /// `|`.
    BitOr,
    /// `^`.
    BitXor,
    /// `<<`.
    Shl,
    /// `>>` (sign-propagating).
    Shr,
    /// `>>>` (zero-fill).
    UShr,
}

impl BinaryOp {
    /// Whether the operator is a comparison (its result is a boolean).
    #[inline]
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical not.
    Not,
    /// Bitwise not (`ToInt32`).
    BitNot,
    /// `typeof`.
    TypeOf,
    /// Unary plus (`ToNumber`).
    Plus,
}

/// Assignment operators (`=`, `+=`, ...).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AssignOp {
    /// Plain assignment.
    Assign,
    /// Compound assignment via a binary operator.
    Compound(BinaryOp),
}

/// Where a name's binding lives, fixed once by the resolver
/// (`crate::resolve`) right after parsing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Slot {
    /// Slot `slot` of the frame `hops` frames up the scope chain. The
    /// slot may still be unbound when the site runs (a read before its
    /// `var`); the access then continues outward by name.
    Local {
        /// Frames to skip; scopes that bind nothing get no frame and are
        /// not counted.
        hops: u32,
        /// Index into that frame's slots.
        slot: u32,
    },
    /// An index into the root scope: the engine's dense global table.
    Global(u32),
}

/// A resolved name: the symbol (for the by-name fallback and error
/// messages) and where it lives.
#[derive(Clone, Copy, Debug)]
pub struct Name {
    /// The interned name.
    pub sym: Sym,
    /// The binding the resolver chose.
    pub slot: Slot,
}

impl Name {
    /// An unresolved name (the parser's output; `parse_program` resolves
    /// every one before returning).
    pub(crate) fn new(sym: Sym) -> Name {
        Name { sym, slot: Slot::Global(u32::MAX) }
    }
}

/// The names a scope can bind, in slot order.
pub type Layout = Rc<[Sym]>;

/// Assignment targets.
#[derive(Clone, Debug)]
pub enum Target {
    /// A variable.
    Ident(Name),
    /// `obj.prop`, with the site's inline cache.
    Member(Box<Expr>, JsStr, PropIc),
    /// `obj[index]`.
    Index(Box<Expr>, Box<Expr>),
}

/// A function definition (declaration or expression).
#[derive(Debug)]
pub struct FuncDef {
    /// The function's name (the empty name for anonymous expressions).
    pub name: Sym,
    /// Parameter names.
    pub params: Vec<Sym>,
    /// The body.
    pub body: Vec<Stmt>,
    /// The call frame's layout: `this` (slot 0), the parameters, the
    /// function's own name (named expressions only), then every `var` and
    /// function declaration of the body's region.
    pub layout: Layout,
    /// The slot each parameter is written to (a repeated name repeats
    /// its slot, so the last argument wins).
    pub param_slots: Vec<u32>,
    /// Where a named function expression binds itself, before the
    /// parameters are written.
    pub self_slot: Option<u32>,
    /// The body's op stream.
    pub code: Code,
}

/// Expressions.
#[derive(Clone, Debug)]
pub enum Expr {
    /// A number literal.
    Num(f64),
    /// A string literal.
    Str(JsStr),
    /// A boolean literal.
    Bool(bool),
    /// `null`.
    Null,
    /// `undefined`.
    Undefined,
    /// `this` (the method receiver), bound as [`Sym::THIS`] in slot 0 of
    /// every call frame.
    This(Name),
    /// A variable reference.
    Ident(Name),
    /// `[a, b, c]`.
    ArrayLit(Vec<Expr>),
    /// `{k: v, ...}`; each property definition carries an inline cache
    /// for its add-transition.
    ObjectLit(Vec<(JsStr, Expr, PropIc)>),
    /// A function expression.
    Function(Rc<FuncDef>),
    /// `f(args)`; when `callee` is a member expression the receiver
    /// becomes `this`.
    Call {
        /// The callee expression.
        callee: Box<Expr>,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `obj.prop`, with the site's inline cache.
    Member(Box<Expr>, JsStr, PropIc),
    /// `obj[index]`.
    Index(Box<Expr>, Box<Expr>),
    /// A binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Short-circuit `&&`.
    And(Box<Expr>, Box<Expr>),
    /// Short-circuit `||`.
    Or(Box<Expr>, Box<Expr>),
    /// A unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// `cond ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// An assignment (expression-valued).
    Assign(Target, AssignOp, Box<Expr>),
    /// `++x` / `x++` / `--x` / `x--`; `is_incr` selects ±1, `prefix`
    /// selects the returned value.
    IncrDecr {
        /// The mutated target.
        target: Target,
        /// `true` for `++`.
        is_incr: bool,
        /// `true` for prefix form.
        prefix: bool,
    },
}

/// Statements.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `var`/`let` declaration list (uniform function scoping in the
    /// subset).
    Var(Vec<(Name, Option<Expr>)>),
    /// A function declaration, hoisted into the named binding.
    Func(Rc<FuncDef>, Name),
    /// An expression statement.
    Expr(Expr),
    /// `if`/`else`.
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while`.
    While(Expr, Vec<Stmt>),
    /// `do ... while`.
    DoWhile(Vec<Stmt>, Expr),
    /// `for (init; cond; update) body`.
    For {
        /// The initializer (a statement so declarations work).
        init: Option<Box<Stmt>>,
        /// The loop condition (missing = `true`).
        cond: Option<Expr>,
        /// The update expression.
        update: Option<Expr>,
        /// The body.
        body: Vec<Stmt>,
        /// The loop scope's layout (init and body declarations).
        layout: Layout,
    },
    /// `return [expr]`.
    Return(Option<Expr>),
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// A `{ ... }` block with its scope's layout.
    Block(Vec<Stmt>, Layout),
}
