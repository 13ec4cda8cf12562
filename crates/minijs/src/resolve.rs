//! The resolver: fixes every name to a slot once, right after parsing.
//!
//! Every function, `for` and block scope gets a *layout*, the names it
//! can ever bind in slot order; `if`/`while`/`do` bodies run in the
//! enclosing scope and add to its layout. A function's layout is `this`
//! (slot 0), its parameters, its own name if it is a named expression,
//! then every `var` and function declaration of its region. Each read,
//! assignment target, `this`, `var` and hoisted function declaration then
//! carries a [`Slot`]: `(hops, slot)` into the innermost scope whose
//! layout holds the name, or a dense global slot when none does.
//!
//! The evaluator's frames mirror these scopes one for one, except that a
//! scope whose layout is empty gets no frame and no hop (it could never
//! bind anything). Resolution changes no rule of the language: a slot
//! that is still unbound when its site runs sends the access outward by
//! name, exactly where the old by-name search would have looked next.

use std::rc::Rc;

use crate::ast::{Expr, FuncDef, Name, Slot, Stmt, Target};
use crate::heap::{Heap, Sym};

/// Resolves a freshly parsed program, whose top level runs in the root
/// scope: its declarations bind global slots.
pub(crate) fn resolve_program(stmts: &mut [Stmt], heap: &mut Heap) {
    Resolver { heap, scopes: Vec::new() }.stmts(stmts);
}

struct Resolver<'h> {
    heap: &'h mut Heap,
    /// The layouts of the enclosing scopes, innermost last (the root
    /// scope is implicit).
    scopes: Vec<Vec<Sym>>,
}

/// The slot of `name` in `layout`, appending it if it is new.
fn slot_in(layout: &mut Vec<Sym>, name: Sym) -> u32 {
    let i = layout.iter().position(|&n| n == name).unwrap_or_else(|| {
        layout.push(name);
        layout.len() - 1
    });
    i as u32
}

/// Adds every name a region's statements declare to `layout`. `if`,
/// `while` and `do` bodies belong to the region; `for` loops, blocks and
/// function bodies are scopes of their own.
fn declare_region(stmts: &[Stmt], layout: &mut Vec<Sym>) {
    for stmt in stmts {
        match stmt {
            Stmt::Var(decls) => {
                for (name, _) in decls {
                    slot_in(layout, name.sym);
                }
            }
            Stmt::Func(def, _) => {
                slot_in(layout, def.name);
            }
            Stmt::If(_, then, alt) => {
                declare_region(then, layout);
                declare_region(alt, layout);
            }
            Stmt::While(_, body) | Stmt::DoWhile(body, _) => declare_region(body, layout),
            _ => {}
        }
    }
}

impl Resolver<'_> {
    fn resolve(&mut self, name: &mut Name) {
        // A scope that binds nothing gets no frame, so it counts no hop.
        let frames = self.scopes.iter().rev().filter(|l| !l.is_empty());
        for (hops, layout) in frames.enumerate() {
            if let Some(slot) = layout.iter().position(|&n| n == name.sym) {
                name.slot = Slot::Local { hops: hops as u32, slot: slot as u32 };
                return;
            }
        }
        name.slot = Slot::Global(self.heap.global_slot(name.sym));
    }

    /// Resolves `run` inside a new scope with `layout`, which is returned
    /// in its shared form.
    fn scope(&mut self, layout: Vec<Sym>, run: impl FnOnce(&mut Self)) -> Rc<[Sym]> {
        self.scopes.push(layout);
        run(self);
        Rc::from(self.scopes.pop().expect("the scope pushed above"))
    }

    fn function(&mut self, def: &mut FuncDef, named: bool) {
        let mut layout = vec![Sym::THIS];
        def.param_slots = def.params.iter().map(|&p| slot_in(&mut layout, p)).collect();
        def.self_slot = named.then(|| slot_in(&mut layout, def.name));
        declare_region(&def.body, &mut layout);
        let body = &mut def.body;
        def.layout = self.scope(layout, |r| r.stmts(body));
    }

    fn stmts(&mut self, stmts: &mut [Stmt]) {
        for stmt in stmts {
            self.stmt(stmt);
        }
    }

    fn stmt(&mut self, stmt: &mut Stmt) {
        match stmt {
            Stmt::Var(decls) => {
                for (name, init) in decls {
                    if let Some(init) = init {
                        self.expr(init);
                    }
                    self.resolve(name);
                }
            }
            Stmt::Func(def, name) => {
                self.resolve(name);
                let def = Rc::get_mut(def).expect("a freshly parsed function is not shared");
                self.function(def, false);
            }
            Stmt::Expr(e) => self.expr(e),
            Stmt::If(cond, then, alt) => {
                self.expr(cond);
                self.stmts(then);
                self.stmts(alt);
            }
            Stmt::While(cond, body) | Stmt::DoWhile(body, cond) => {
                self.expr(cond);
                self.stmts(body);
            }
            Stmt::For { init, cond, update, body, layout } => {
                let mut names = Vec::new();
                if let Some(init) = init {
                    declare_region(std::slice::from_ref(&**init), &mut names);
                }
                declare_region(body, &mut names);
                *layout = self.scope(names, |r| {
                    if let Some(init) = init {
                        r.stmt(init);
                    }
                    if let Some(cond) = cond {
                        r.expr(cond);
                    }
                    if let Some(update) = update {
                        r.expr(update);
                    }
                    r.stmts(body);
                });
            }
            Stmt::Return(value) => {
                if let Some(value) = value {
                    self.expr(value);
                }
            }
            Stmt::Break | Stmt::Continue => {}
            Stmt::Block(body, layout) => {
                let mut names = Vec::new();
                declare_region(body, &mut names);
                *layout = self.scope(names, |r| r.stmts(body));
            }
        }
    }

    fn target(&mut self, target: &mut Target) {
        match target {
            Target::Ident(name) => self.resolve(name),
            Target::Member(obj, _, _) => self.expr(obj),
            Target::Index(obj, idx) => {
                self.expr(obj);
                self.expr(idx);
            }
        }
    }

    fn expr(&mut self, expr: &mut Expr) {
        match expr {
            Expr::Num(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null | Expr::Undefined => {}
            Expr::This(name) | Expr::Ident(name) => self.resolve(name),
            Expr::ArrayLit(items) => {
                for item in items {
                    self.expr(item);
                }
            }
            Expr::ObjectLit(props) => {
                for (_, value, _) in props {
                    self.expr(value);
                }
            }
            Expr::Function(def) => {
                let def = Rc::get_mut(def).expect("a freshly parsed function is not shared");
                let named = !self.heap.name(def.name).is_empty();
                self.function(def, named);
            }
            Expr::Call { callee, args } => {
                self.expr(callee);
                for arg in args {
                    self.expr(arg);
                }
            }
            Expr::Member(obj, _, _) | Expr::Unary(_, obj) => self.expr(obj),
            Expr::Index(a, b) | Expr::Binary(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                self.expr(a);
                self.expr(b);
            }
            Expr::Ternary(cond, a, b) => {
                self.expr(cond);
                self.expr(a);
                self.expr(b);
            }
            Expr::Assign(target, _, value) => {
                self.target(target);
                self.expr(value);
            }
            Expr::IncrDecr { target, .. } => self.target(target),
        }
    }
}
