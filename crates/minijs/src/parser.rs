//! Recursive-descent / Pratt parser.

use std::rc::Rc;

use crate::ast::{AssignOp, BinaryOp, Expr, FuncDef, Name, Stmt, Target, UnaryOp};
use crate::error::EngineError;
use crate::heap::{Heap, Sym};
use crate::ic::PropIc;
use crate::lexer::{lex, SpannedTok, Tok};
use crate::lower::{lower_program, Code, Program};
use crate::resolve::resolve_program;
use crate::string::JsStr;

/// Parses a whole program, interning every identifier in `heap`'s string
/// table, resolves every name to its slot (`crate::resolve`) and lowers
/// it to op streams (`crate::lower`).
pub fn parse_program(source: &str, heap: &mut Heap) -> Result<Program, EngineError> {
    let toks = lex(source, heap)?;
    let mut p = Parser { toks, pos: 0, heap };
    let mut stmts = Vec::new();
    while !p.at_eof() {
        stmts.push(p.stmt()?);
    }
    resolve_program(&mut stmts, p.heap);
    Ok(lower_program(stmts))
}

struct Parser<'h> {
    toks: Vec<SpannedTok>,
    pos: usize,
    heap: &'h mut Heap,
}

impl Parser<'_> {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn advance(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, EngineError> {
        Err(EngineError::Parse { line: self.line(), message: message.into() })
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), EngineError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            let found = match self.peek() {
                Tok::Ident(name) => format!("identifier {}", self.heap.name(*name)),
                other => format!("{other:?}"),
            };
            self.error(format!("expected {p:?}, found {found}"))
        }
    }

    fn eat_keyword(&mut self, k: &str) -> bool {
        if matches!(self.peek(), Tok::Keyword(q) if *q == k) {
            self.advance();
            true
        } else {
            false
        }
    }

    /// An identifier, as its symbol.
    fn name(&mut self) -> Result<Sym, EngineError> {
        match self.advance() {
            Tok::Ident(name) => Ok(name),
            other => self.error(format!("expected identifier, found {other:?}")),
        }
    }

    /// A property name: an identifier's text.
    fn prop_name(&mut self) -> Result<JsStr, EngineError> {
        let name = self.name()?;
        Ok(self.heap.name(name).clone())
    }

    fn eat_semi(&mut self) {
        while self.eat_punct(";") {}
    }

    // ---- statements ----

    fn stmt(&mut self) -> Result<Stmt, EngineError> {
        match self.peek().clone() {
            Tok::Keyword("var") | Tok::Keyword("let") => {
                self.advance();
                let stmt = self.var_tail()?;
                self.eat_semi();
                Ok(stmt)
            }
            Tok::Keyword("function") => {
                self.advance();
                let name = self.name()?;
                let def = self.func_tail(name)?;
                Ok(Stmt::Func(Rc::new(def), Name::new(name)))
            }
            Tok::Keyword("if") => {
                self.advance();
                self.expect_punct("(")?;
                let cond = self.expr()?;
                self.expect_punct(")")?;
                let then = self.stmt_or_block()?;
                let alt = if self.eat_keyword("else") { self.stmt_or_block()? } else { vec![] };
                Ok(Stmt::If(cond, then, alt))
            }
            Tok::Keyword("while") => {
                self.advance();
                self.expect_punct("(")?;
                let cond = self.expr()?;
                self.expect_punct(")")?;
                Ok(Stmt::While(cond, self.stmt_or_block()?))
            }
            Tok::Keyword("do") => {
                self.advance();
                let body = self.stmt_or_block()?;
                if !self.eat_keyword("while") {
                    return self.error("expected 'while' after do body");
                }
                self.expect_punct("(")?;
                let cond = self.expr()?;
                self.expect_punct(")")?;
                self.eat_semi();
                Ok(Stmt::DoWhile(body, cond))
            }
            Tok::Keyword("for") => {
                self.advance();
                self.expect_punct("(")?;
                let init = if self.eat_punct(";") {
                    None
                } else if self.eat_keyword("var") || self.eat_keyword("let") {
                    let s = self.var_tail()?;
                    self.expect_punct(";")?;
                    Some(Box::new(s))
                } else {
                    let e = self.expr()?;
                    self.expect_punct(";")?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond =
                    if matches!(self.peek(), Tok::Punct(";")) { None } else { Some(self.expr()?) };
                self.expect_punct(";")?;
                let update =
                    if matches!(self.peek(), Tok::Punct(")")) { None } else { Some(self.expr()?) };
                self.expect_punct(")")?;
                let body = self.stmt_or_block()?;
                Ok(Stmt::For { init, cond, update, body, layout: Rc::from([]) })
            }
            Tok::Keyword("return") => {
                self.advance();
                let value = if matches!(self.peek(), Tok::Punct(";") | Tok::Punct("}")) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat_semi();
                Ok(Stmt::Return(value))
            }
            Tok::Keyword("break") => {
                self.advance();
                self.eat_semi();
                Ok(Stmt::Break)
            }
            Tok::Keyword("continue") => {
                self.advance();
                self.eat_semi();
                Ok(Stmt::Continue)
            }
            Tok::Punct("{") => {
                self.advance();
                let mut body = Vec::new();
                while !self.eat_punct("}") {
                    if self.at_eof() {
                        return self.error("unterminated block");
                    }
                    body.push(self.stmt()?);
                }
                Ok(Stmt::Block(body, Rc::from([])))
            }
            _ => {
                let e = self.expr()?;
                self.eat_semi();
                Ok(Stmt::Expr(e))
            }
        }
    }

    /// Parses `name [= init] [, name [= init]]*` into one declaration
    /// statement.
    fn var_tail(&mut self) -> Result<Stmt, EngineError> {
        let mut decls = Vec::new();
        loop {
            let name = self.name()?;
            let init = if self.eat_punct("=") { Some(self.assign_expr()?) } else { None };
            decls.push((Name::new(name), init));
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(Stmt::Var(decls))
    }

    fn stmt_or_block(&mut self) -> Result<Vec<Stmt>, EngineError> {
        if matches!(self.peek(), Tok::Punct("{")) {
            match self.stmt()? {
                Stmt::Block(body, _) => Ok(body),
                // `stmt` returns exactly a block for `{`.
                _ => unreachable!("block statement expected"),
            }
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn func_tail(&mut self, name: Sym) -> Result<FuncDef, EngineError> {
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                params.push(self.name()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        self.expect_punct("{")?;
        let mut body = Vec::new();
        while !self.eat_punct("}") {
            if self.at_eof() {
                return self.error("unterminated function body");
            }
            body.push(self.stmt()?);
        }
        Ok(FuncDef {
            name,
            params,
            body,
            layout: Rc::from([]),
            param_slots: Vec::new(),
            self_slot: None,
            code: Code::default(),
        })
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, EngineError> {
        self.assign_expr()
    }

    fn assign_expr(&mut self) -> Result<Expr, EngineError> {
        let lhs = self.ternary()?;
        let op = match self.peek() {
            Tok::Punct("=") => AssignOp::Assign,
            Tok::Punct("+=") => AssignOp::Compound(BinaryOp::Add),
            Tok::Punct("-=") => AssignOp::Compound(BinaryOp::Sub),
            Tok::Punct("*=") => AssignOp::Compound(BinaryOp::Mul),
            Tok::Punct("/=") => AssignOp::Compound(BinaryOp::Div),
            Tok::Punct("%=") => AssignOp::Compound(BinaryOp::Rem),
            Tok::Punct("&=") => AssignOp::Compound(BinaryOp::BitAnd),
            Tok::Punct("|=") => AssignOp::Compound(BinaryOp::BitOr),
            Tok::Punct("^=") => AssignOp::Compound(BinaryOp::BitXor),
            Tok::Punct("<<=") => AssignOp::Compound(BinaryOp::Shl),
            Tok::Punct(">>=") => AssignOp::Compound(BinaryOp::Shr),
            Tok::Punct(">>>=") => AssignOp::Compound(BinaryOp::UShr),
            _ => return Ok(lhs),
        };
        self.advance();
        let target = self.as_target(lhs)?;
        let value = self.assign_expr()?;
        Ok(Expr::Assign(target, op, Box::new(value)))
    }

    fn as_target(&self, e: Expr) -> Result<Target, EngineError> {
        match e {
            Expr::Ident(name) => Ok(Target::Ident(name)),
            Expr::Member(obj, name, ic) => Ok(Target::Member(obj, name, ic)),
            Expr::Index(obj, idx) => Ok(Target::Index(obj, idx)),
            _ => self.error("invalid assignment target"),
        }
    }

    fn ternary(&mut self) -> Result<Expr, EngineError> {
        let cond = self.binary(0)?;
        if self.eat_punct("?") {
            let a = self.assign_expr()?;
            self.expect_punct(":")?;
            let b = self.assign_expr()?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(a), Box::new(b)))
        } else {
            Ok(cond)
        }
    }

    /// Binary-operator precedence levels, lowest first.
    fn binary(&mut self, min_level: usize) -> Result<Expr, EngineError> {
        const LEVELS: &[&[(&str, Option<BinaryOp>)]] = &[
            &[("||", None)],
            &[("&&", None)],
            &[("|", Some(BinaryOp::BitOr))],
            &[("^", Some(BinaryOp::BitXor))],
            &[("&", Some(BinaryOp::BitAnd))],
            &[
                ("===", Some(BinaryOp::Eq)),
                ("!==", Some(BinaryOp::Ne)),
                ("==", Some(BinaryOp::Eq)),
                ("!=", Some(BinaryOp::Ne)),
            ],
            &[
                ("<=", Some(BinaryOp::Le)),
                (">=", Some(BinaryOp::Ge)),
                ("<", Some(BinaryOp::Lt)),
                (">", Some(BinaryOp::Gt)),
            ],
            &[
                (">>>", Some(BinaryOp::UShr)),
                ("<<", Some(BinaryOp::Shl)),
                (">>", Some(BinaryOp::Shr)),
            ],
            &[("+", Some(BinaryOp::Add)), ("-", Some(BinaryOp::Sub))],
            &[("*", Some(BinaryOp::Mul)), ("/", Some(BinaryOp::Div)), ("%", Some(BinaryOp::Rem))],
        ];
        if min_level >= LEVELS.len() {
            return self.unary();
        }
        let mut lhs = self.binary(min_level + 1)?;
        'outer: loop {
            for &(sym, op) in LEVELS[min_level] {
                if matches!(self.peek(), Tok::Punct(p) if *p == sym) {
                    self.advance();
                    let rhs = self.binary(min_level + 1)?;
                    lhs = match op {
                        Some(op) => Expr::Binary(op, Box::new(lhs), Box::new(rhs)),
                        None if sym == "&&" => Expr::And(Box::new(lhs), Box::new(rhs)),
                        None => Expr::Or(Box::new(lhs), Box::new(rhs)),
                    };
                    continue 'outer;
                }
            }
            return Ok(lhs);
        }
    }

    fn unary(&mut self) -> Result<Expr, EngineError> {
        let op = match self.peek() {
            Tok::Punct("!") => Some(UnaryOp::Not),
            Tok::Punct("~") => Some(UnaryOp::BitNot),
            Tok::Punct("-") => Some(UnaryOp::Neg),
            Tok::Punct("+") => Some(UnaryOp::Plus),
            Tok::Keyword("typeof") => Some(UnaryOp::TypeOf),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            return Ok(Expr::Unary(op, Box::new(self.unary()?)));
        }
        if self.eat_punct("++") {
            let e = self.unary()?;
            let target = self.as_target(e)?;
            return Ok(Expr::IncrDecr { target, is_incr: true, prefix: true });
        }
        if self.eat_punct("--") {
            let e = self.unary()?;
            let target = self.as_target(e)?;
            return Ok(Expr::IncrDecr { target, is_incr: false, prefix: true });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, EngineError> {
        let mut e = self.primary()?;
        loop {
            if self.eat_punct(".") {
                let name = self.prop_name()?;
                e = Expr::Member(Box::new(e), name, PropIc::new());
            } else if self.eat_punct("[") {
                let idx = self.expr()?;
                self.expect_punct("]")?;
                e = Expr::Index(Box::new(e), Box::new(idx));
            } else if self.eat_punct("(") {
                let mut args = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        args.push(self.assign_expr()?);
                        if self.eat_punct(")") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                e = Expr::Call { callee: Box::new(e), args };
            } else if self.eat_punct("++") {
                let target = self.as_target(e)?;
                e = Expr::IncrDecr { target, is_incr: true, prefix: false };
            } else if self.eat_punct("--") {
                let target = self.as_target(e)?;
                e = Expr::IncrDecr { target, is_incr: false, prefix: false };
            } else {
                return Ok(e);
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, EngineError> {
        match self.advance() {
            Tok::Num(n) => Ok(Expr::Num(n)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::Keyword("true") => Ok(Expr::Bool(true)),
            Tok::Keyword("false") => Ok(Expr::Bool(false)),
            Tok::Keyword("null") => Ok(Expr::Null),
            Tok::Keyword("undefined") => Ok(Expr::Undefined),
            Tok::Keyword("this") => Ok(Expr::This(Name::new(Sym::THIS))),
            Tok::Keyword("new") => {
                // `new F(args)` is constructor-as-factory in the subset.
                self.postfix()
            }
            Tok::Keyword("function") => {
                let name = match self.peek() {
                    Tok::Ident(_) => self.name()?,
                    _ => self.heap.intern_name(""),
                };
                Ok(Expr::Function(Rc::new(self.func_tail(name)?)))
            }
            Tok::Ident(name) => Ok(Expr::Ident(Name::new(name))),
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Punct("[") => {
                let mut items = Vec::new();
                if !self.eat_punct("]") {
                    loop {
                        items.push(self.assign_expr()?);
                        if self.eat_punct("]") {
                            break;
                        }
                        self.expect_punct(",")?;
                        // Trailing comma.
                        if self.eat_punct("]") {
                            break;
                        }
                    }
                }
                Ok(Expr::ArrayLit(items))
            }
            Tok::Punct("{") => {
                let mut props = Vec::new();
                if !self.eat_punct("}") {
                    loop {
                        let key = match self.advance() {
                            Tok::Ident(k) => self.heap.name(k).clone(),
                            Tok::Str(k) => k,
                            Tok::Num(n) => JsStr::from(fmt_f64(n)),
                            other => {
                                return self.error(format!("bad object key {other:?}"));
                            }
                        };
                        self.expect_punct(":")?;
                        props.push((key, self.assign_expr()?, PropIc::new()));
                        if self.eat_punct("}") {
                            break;
                        }
                        self.expect_punct(",")?;
                        if self.eat_punct("}") {
                            break;
                        }
                    }
                }
                Ok(Expr::ObjectLit(props))
            }
            other => self.error(format!("unexpected token {other:?}")),
        }
    }
}

/// Formats an `f64` the way JS `ToString` does for the common cases.
pub fn fmt_f64(n: f64) -> String {
    if n.is_nan() {
        return "NaN".to_string();
    }
    if n.is_infinite() {
        return if n > 0.0 { "Infinity".into() } else { "-Infinity".into() };
    }
    if n == n.trunc() && n.abs() < 1e21 {
        format!("{}", n as i64)
    } else {
        let s = format!("{n}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_program(source: &str) -> Result<Vec<Stmt>, EngineError> {
        Ok(super::parse_program(source, &mut Heap::new())?.stmts)
    }

    #[test]
    fn parses_statement_forms() {
        let src = r#"
var x = 1;
let y = 2, z = 3;
function f(a, b) { return a + b; }
if (x < y) { x = y; } else x = z;
while (x > 0) { x--; }
do { x++; } while (x < 3);
for (var i = 0; i < 10; i++) { if (i == 5) break; else continue; }
"#;
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.len(), 7);
    }

    #[test]
    fn precedence_shapes() {
        let prog = parse_program("var r = 1 + 2 * 3;").unwrap();
        match &prog[0] {
            Stmt::Var(decls) => match &decls[0].1 {
                Some(Expr::Binary(BinaryOp::Add, _, rhs)) => {
                    assert!(matches!(**rhs, Expr::Binary(BinaryOp::Mul, _, _)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        let prog = parse_program("var r = a | b ^ c & d == e < f << g + h * i;").unwrap();
        assert!(matches!(&prog[0], Stmt::Var(decls)
            if matches!(decls[0].1, Some(Expr::Binary(BinaryOp::BitOr, _, _)))));
    }

    #[test]
    fn member_index_call_chains() {
        let prog = parse_program("a.b[c](d).e;").unwrap();
        assert!(matches!(&prog[0], Stmt::Expr(Expr::Member(..))));
    }

    #[test]
    fn function_expressions_and_ternary() {
        let prog = parse_program("var f = function(x) { return x ? 1 : 2; };").unwrap();
        assert!(
            matches!(&prog[0], Stmt::Var(decls) if matches!(decls[0].1, Some(Expr::Function(_))))
        );
    }

    #[test]
    fn object_and_array_literals() {
        let prog = parse_program("var o = {a: 1, 'b': 2, 3: [1, 2, 3,]};").unwrap();
        match &prog[0] {
            Stmt::Var(decls) => {
                let Some(Expr::ObjectLit(props)) = &decls[0].1 else { panic!("not objlit") };
                assert_eq!(props.len(), 3);
                assert_eq!(&*props[2].0, "3");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn new_is_factory_sugar() {
        let prog = parse_program("var a = new Thing(1, 2);").unwrap();
        assert!(
            matches!(&prog[0], Stmt::Var(decls) if matches!(decls[0].1, Some(Expr::Call { .. })))
        );
    }

    #[test]
    fn syntax_errors_have_lines() {
        let e = parse_program("var x = 1;\nvar = 2;").unwrap_err();
        match e {
            EngineError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compound_assignment_targets() {
        assert!(parse_program("a += 1; a.b -= 2; a[0] *= 3;").is_ok());
        assert!(parse_program("1 += 2;").is_err());
    }
}
