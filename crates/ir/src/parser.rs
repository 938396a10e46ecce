//! Recursive-descent parser for the behavioral description language.
//!
//! ```
//! use corepart_ir::parser::parse;
//!
//! let program = parse(r#"
//!     app smoothing;
//!     const N = 16;
//!     var img[16];
//!     func main() {
//!         for (var i = 1; i < N - 1; i = i + 1) {
//!             img[i] = (img[i - 1] + img[i] + img[i + 1]) / 3;
//!         }
//!     }
//! "#)?;
//! assert_eq!(program.name, "smoothing");
//! # Ok::<(), corepart_ir::error::IrError>(())
//! ```

use crate::ast::{ArrayDecl, ConstDecl, Expr, FuncDecl, GlobalDecl, LValue, Program, Span, Stmt};
use crate::error::IrError;
use crate::lexer::{lex, SpannedTok, Tok};
use crate::op::{BinOp, UnOp};

/// The deepest nesting a program may have. Each parenthesized or
/// otherwise nested expression, unary operator, operand of a
/// binary-operator chain and statement block (an `else if` included)
/// is one level. Every later stage walks the syntax tree recursively,
/// so the bound keeps the stack use of parsing, lowering and
/// interpretation bounded for any input: at the bound, all of them fit
/// a default 2 MiB thread stack even in an unoptimized build.
pub const MAX_NESTING: usize = 128;

/// Parses a full program from source text.
///
/// # Errors
///
/// Returns [`IrError::Lex`] or [`IrError::Parse`] with the offending
/// source location; nesting deeper than [`MAX_NESTING`] is a
/// [`IrError::Parse`].
pub fn parse(src: &str) -> Result<Program, IrError> {
    let toks = lex(src)?;
    Parser {
        toks,
        pos: 0,
        depth: 0,
    }
    .program()
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Current nesting level (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, IrError> {
        Err(IrError::Parse {
            span: self.span(),
            message: message.into(),
        })
    }

    /// Enters one more level of nesting; the caller leaves it by
    /// decrementing `depth` when the nested construct ends.
    fn enter(&mut self) -> Result<(), IrError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        Ok(())
    }

    fn expect(&mut self, want: &Tok, ctx: &str) -> Result<(), IrError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{want}` {ctx}, found `{}`", self.peek()))
        }
    }

    fn ident(&mut self, ctx: &str) -> Result<String, IrError> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => self.err(format!("expected identifier {ctx}, found `{other}`")),
        }
    }

    fn program(&mut self) -> Result<Program, IrError> {
        self.expect(&Tok::App, "at start of program")?;
        let name = self.ident("after `app`")?;
        self.expect(&Tok::Semi, "after application name")?;

        let mut prog = Program {
            name,
            consts: Vec::new(),
            globals: Vec::new(),
            arrays: Vec::new(),
            funcs: Vec::new(),
        };

        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Const => {
                    let span = self.span();
                    self.bump();
                    let name = self.ident("after `const`")?;
                    self.expect(&Tok::Assign, "in const declaration")?;
                    let value = self.const_expr(&prog)?;
                    self.expect(&Tok::Semi, "after const declaration")?;
                    prog.consts.push(ConstDecl { name, value, span });
                }
                Tok::Var => {
                    let span = self.span();
                    self.bump();
                    let name = self.ident("after `var`")?;
                    if self.peek() == &Tok::LBracket {
                        self.bump();
                        let len = self.const_expr(&prog)?;
                        if len <= 0 || len > i64::from(u32::MAX) {
                            return self.err(format!("array length {len} out of range"));
                        }
                        self.expect(&Tok::RBracket, "after array length")?;
                        self.expect(&Tok::Semi, "after array declaration")?;
                        prog.arrays.push(ArrayDecl {
                            name,
                            len: len as u32,
                            span,
                        });
                    } else {
                        self.expect(&Tok::Assign, "in global declaration")?;
                        let init = self.const_expr(&prog)?;
                        self.expect(&Tok::Semi, "after global declaration")?;
                        prog.globals.push(GlobalDecl { name, init, span });
                    }
                }
                Tok::Func => {
                    let span = self.span();
                    self.bump();
                    let name = self.ident("after `func`")?;
                    self.expect(&Tok::LParen, "after function name")?;
                    let mut params = Vec::new();
                    if self.peek() != &Tok::RParen {
                        loop {
                            params.push(self.ident("in parameter list")?);
                            if self.peek() == &Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen, "after parameter list")?;
                    let body = self.block()?;
                    prog.funcs.push(FuncDecl {
                        name,
                        params,
                        body,
                        span,
                    });
                }
                other => {
                    let other = other.clone();
                    return self.err(format!(
                        "expected `const`, `var` or `func` at top level, found `{other}`"
                    ));
                }
            }
        }
        Ok(prog)
    }

    /// A compile-time constant expression: literals, previously declared
    /// consts, and arithmetic over them, folded immediately.
    fn const_expr(&mut self, prog: &Program) -> Result<i64, IrError> {
        let span = self.span();
        let expr = self.expr()?;
        fold_const(&expr, prog).ok_or(IrError::Parse {
            span,
            message: "expected a constant expression".into(),
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, IrError> {
        self.expect(&Tok::LBrace, "to open block")?;
        self.enter()?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            if self.peek() == &Tok::Eof {
                return self.err("unexpected end of input inside block");
            }
            stmts.push(self.stmt()?);
        }
        self.bump(); // consume `}`
        self.depth -= 1;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, IrError> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Var => {
                let s = self.simple_stmt()?;
                self.expect(&Tok::Semi, "after declaration")?;
                Ok(s)
            }
            Tok::If => {
                self.bump();
                self.expect(&Tok::LParen, "after `if`")?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen, "after if condition")?;
                let then_body = self.block()?;
                let else_body = if self.peek() == &Tok::Else {
                    self.bump();
                    if self.peek() == &Tok::If {
                        self.enter()?;
                        let nested = self.stmt()?;
                        self.depth -= 1;
                        vec![nested]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    span,
                })
            }
            Tok::While => {
                self.bump();
                self.expect(&Tok::LParen, "after `while`")?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen, "after while condition")?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, span })
            }
            Tok::For => {
                self.bump();
                self.expect(&Tok::LParen, "after `for`")?;
                let init = Box::new(self.simple_stmt()?);
                self.expect(&Tok::Semi, "after for-init")?;
                let cond = self.expr()?;
                self.expect(&Tok::Semi, "after for-condition")?;
                let step = Box::new(self.simple_stmt()?);
                self.expect(&Tok::RParen, "after for-step")?;
                let body = self.block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    span,
                })
            }
            Tok::Return => {
                self.bump();
                let value = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi, "after return")?;
                Ok(Stmt::Return { value, span })
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect(&Tok::Semi, "after statement")?;
                Ok(s)
            }
        }
    }

    /// A declaration, assignment or expression statement (no trailing
    /// `;` — used both standalone and in `for` headers).
    fn simple_stmt(&mut self) -> Result<Stmt, IrError> {
        let span = self.span();
        if self.peek() == &Tok::Var {
            self.bump();
            let name = self.ident("after `var`")?;
            self.expect(&Tok::Assign, "in local declaration")?;
            let init = self.expr()?;
            return Ok(Stmt::VarDecl { name, init, span });
        }
        // Distinguish `x = e;` / `x[i] = e;` from a call `f(..);`
        if let Tok::Ident(name) = self.peek().clone() {
            match self.peek2().clone() {
                Tok::Assign => {
                    self.bump();
                    self.bump();
                    let value = self.expr()?;
                    return Ok(Stmt::Assign {
                        target: LValue::Var(name),
                        value,
                        span,
                    });
                }
                Tok::LBracket => {
                    // Could be `a[i] = e` — parse the index and check.
                    self.bump();
                    self.bump();
                    let index = self.expr()?;
                    self.expect(&Tok::RBracket, "after array index")?;
                    self.expect(&Tok::Assign, "in array assignment")?;
                    let value = self.expr()?;
                    return Ok(Stmt::Assign {
                        target: LValue::Index(name, Box::new(index)),
                        value,
                        span,
                    });
                }
                _ => {}
            }
        }
        let expr = self.expr()?;
        Ok(Stmt::Expr { expr, span })
    }

    fn expr(&mut self) -> Result<Expr, IrError> {
        self.enter()?;
        let e = self.binary_expr(0)?;
        self.depth -= 1;
        Ok(e)
    }

    /// Precedence-climbing binary expression parser. Each operator
    /// of a chain deepens the left-leaning tree, and so the nesting, by
    /// one level until the chain ends.
    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, IrError> {
        let mut lhs = self.unary_expr()?;
        let mut chain = 0;
        loop {
            let (op, prec) = match self.peek() {
                Tok::PipePipe => (BinOp::Or, 1),
                Tok::AmpAmp => (BinOp::And, 2),
                Tok::Pipe => (BinOp::Or, 3),
                Tok::Caret => (BinOp::Xor, 4),
                Tok::Amp => (BinOp::And, 5),
                Tok::EqEq => (BinOp::Eq, 6),
                Tok::NotEq => (BinOp::Ne, 6),
                Tok::Lt => (BinOp::Lt, 7),
                Tok::Le => (BinOp::Le, 7),
                Tok::Gt => (BinOp::Gt, 7),
                Tok::Ge => (BinOp::Ge, 7),
                Tok::Shl => (BinOp::Shl, 8),
                Tok::Shr => (BinOp::Shr, 8),
                Tok::Plus => (BinOp::Add, 9),
                Tok::Minus => (BinOp::Sub, 9),
                Tok::Star => (BinOp::Mul, 10),
                Tok::Slash => (BinOp::Div, 10),
                Tok::Percent => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let span = self.span();
            self.bump();
            self.enter()?;
            chain += 1;
            let rhs = self.binary_expr(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), span);
        }
        self.depth -= chain;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, IrError> {
        let span = self.span();
        let op = match self.peek() {
            Tok::Minus => UnOp::Neg,
            Tok::Bang => UnOp::Not,
            Tok::Tilde => UnOp::BitNot,
            _ => return self.primary_expr(),
        };
        self.bump();
        self.enter()?;
        let e = self.unary_expr()?;
        self.depth -= 1;
        Ok(Expr::Unary(op, Box::new(e), span))
    }

    fn primary_expr(&mut self) -> Result<Expr, IrError> {
        let span = self.span();
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::Int(v, span))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen, "to close parenthesized expression")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                match self.peek() {
                    Tok::LParen => {
                        self.bump();
                        let mut args = Vec::new();
                        if self.peek() != &Tok::RParen {
                            loop {
                                args.push(self.expr()?);
                                if self.peek() == &Tok::Comma {
                                    self.bump();
                                } else {
                                    break;
                                }
                            }
                        }
                        self.expect(&Tok::RParen, "after call arguments")?;
                        Ok(Expr::Call(name, args, span))
                    }
                    Tok::LBracket => {
                        self.bump();
                        let idx = self.expr()?;
                        self.expect(&Tok::RBracket, "after array index")?;
                        Ok(Expr::Index(name, Box::new(idx), span))
                    }
                    _ => Ok(Expr::Var(name, span)),
                }
            }
            other => self.err(format!("expected expression, found `{other}`")),
        }
    }
}

/// Folds a constant expression using previously declared consts.
fn fold_const(expr: &Expr, prog: &Program) -> Option<i64> {
    match expr {
        Expr::Int(v, _) => Some(*v),
        Expr::Var(name, _) => prog
            .consts
            .iter()
            .find(|c| &c.name == name)
            .map(|c| c.value),
        Expr::Unary(op, e, _) => Some(op.eval(fold_const(e, prog)?)),
        Expr::Binary(op, l, r, _) => Some(op.eval(fold_const(l, prog)?, fold_const(r, prog)?)),
        Expr::Index(..) | Expr::Call(..) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_program() {
        let p = parse("app t; func main() { }").unwrap();
        assert_eq!(p.name, "t");
        assert_eq!(p.funcs.len(), 1);
        assert!(p.funcs[0].body.is_empty());
    }

    #[test]
    fn parses_declarations() {
        let p = parse("app t; const N = 4 * 8; var g = 7; var buf[32]; func main() {}").unwrap();
        assert_eq!(p.consts[0].value, 32);
        assert_eq!(p.globals[0].init, 7);
        assert_eq!(p.arrays[0].len, 32);
    }

    #[test]
    fn const_refers_to_earlier_const() {
        let p = parse("app t; const A = 3; const B = A + 1; var x[B]; func main() {}").unwrap();
        assert_eq!(p.consts[1].value, 4);
        assert_eq!(p.arrays[0].len, 4);
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse("app t; func main() { var x = 1 + 2 * 3; }").unwrap();
        match &p.funcs[0].body[0] {
            Stmt::VarDecl { init, .. } => match init {
                Expr::Binary(BinOp::Add, _, rhs, _) => {
                    assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, ..)));
                }
                other => panic!("unexpected tree: {other:?}"),
            },
            other => panic!("unexpected stmt: {other:?}"),
        }
    }

    #[test]
    fn precedence_shift_below_add() {
        // 1 << 2 + 3  parses as  1 << (2 + 3)
        let p = parse("app t; func main() { var x = 1 << 2 + 3; }").unwrap();
        match &p.funcs[0].body[0] {
            Stmt::VarDecl { init, .. } => {
                assert!(matches!(init, Expr::Binary(BinOp::Shl, ..)));
            }
            other => panic!("unexpected stmt: {other:?}"),
        }
    }

    #[test]
    fn parses_control_flow() {
        let p = parse(
            r#"app t;
            var a[8];
            func main() {
                for (var i = 0; i < 8; i = i + 1) {
                    if (a[i] > 3) { a[i] = 3; } else { a[i] = a[i] + 1; }
                }
                while (a[0] != 0) { a[0] = a[0] - 1; }
                return a[0];
            }"#,
        )
        .unwrap();
        assert_eq!(p.funcs[0].body.len(), 3);
        assert!(matches!(p.funcs[0].body[0], Stmt::For { .. }));
        assert!(matches!(p.funcs[0].body[1], Stmt::While { .. }));
        assert!(matches!(p.funcs[0].body[2], Stmt::Return { .. }));
    }

    #[test]
    fn parses_else_if_chain() {
        let p = parse(
            "app t; func main() { var x = 0; if (x == 0) { x = 1; } else if (x == 1) { x = 2; } else { x = 3; } }",
        )
        .unwrap();
        match &p.funcs[0].body[1] {
            Stmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(else_body[0], Stmt::If { .. }));
            }
            other => panic!("unexpected stmt: {other:?}"),
        }
    }

    #[test]
    fn parses_calls_and_array_assign() {
        let p = parse(
            "app t; var a[4]; func f(x, y) { return x + y; } func main() { a[1] = f(a[0], 2); f(1, 2); }",
        )
        .unwrap();
        assert_eq!(p.funcs[0].params, vec!["x", "y"]);
        assert!(matches!(
            p.funcs[1].body[0],
            Stmt::Assign {
                target: LValue::Index(..),
                ..
            }
        ));
        assert!(matches!(p.funcs[1].body[1], Stmt::Expr { .. }));
    }

    #[test]
    fn error_reports_location() {
        let err = parse("app t; func main() { var x = ; }").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("expected expression"), "{msg}");
        assert!(msg.contains("1:"), "{msg}");
    }

    #[test]
    fn error_on_missing_semicolon() {
        assert!(parse("app t; func main() { var x = 1 }").is_err());
    }

    #[test]
    fn error_on_nonconst_array_len() {
        assert!(parse("app t; var g = 1; var a[g]; func main() {}").is_err());
    }

    #[test]
    fn error_on_zero_array_len() {
        assert!(parse("app t; var a[0]; func main() {}").is_err());
    }

    #[test]
    fn error_on_garbage_top_level() {
        assert!(parse("app t; 42").is_err());
    }

    #[test]
    fn logical_ops_parse() {
        let p = parse("app t; func main() { var x = 1 && 0 || 1; }").unwrap();
        assert!(matches!(
            p.funcs[0].body[0],
            Stmt::VarDecl {
                init: Expr::Binary(BinOp::Or, ..),
                ..
            }
        ));
    }

    #[test]
    fn unary_chain() {
        let p = parse("app t; func main() { var x = - - 3; var y = !~0; }").unwrap();
        assert_eq!(p.funcs[0].body.len(), 2);
    }

    /// `func main() { return E; }` with `E` at nesting level 2: one
    /// level for the body block, one for the returned expression.
    fn returning(e: &str) -> String {
        format!("app t; var g = 0; func main() {{ return {e}; }}")
    }

    #[test]
    fn nesting_is_bounded_at_the_limit() {
        let parens = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
        let free = MAX_NESTING - 2;
        assert!(parse(&returning(&parens(free))).is_ok());
        let err = parse(&returning(&parens(free + 1))).unwrap_err();
        assert!(matches!(err, IrError::Parse { .. }), "{err:?}");
        let message = format!("nesting deeper than {MAX_NESTING} levels");
        assert!(err.to_string().contains(&message), "{err}");

        // Unary operators and binary-operator chains count level by level.
        let negations = |n: usize| format!("{}1", "-".repeat(n));
        assert!(parse(&returning(&negations(free))).is_ok());
        assert!(parse(&returning(&negations(free + 1))).is_err());
        let chain = |n: usize| vec!["1"; n + 1].join(" + ");
        assert!(parse(&returning(&chain(free))).is_ok());
        assert!(parse(&returning(&chain(free + 1))).is_err());

        // Blocks and `else if` chains nest statements.
        let blocks = |n: usize| {
            format!(
                "app t; var g = 0; func main() {{ {}{} }}",
                "while (g) { ".repeat(n),
                "} ".repeat(n)
            )
        };
        assert!(parse(&blocks(MAX_NESTING - 1)).is_ok());
        assert!(parse(&blocks(MAX_NESTING)).is_err());
        let elifs = |n: usize| {
            format!(
                "app t; var g = 0; func main() {{ if (g) {{ }}{} }}",
                " else if (g) { }".repeat(n)
            )
        };
        assert!(parse(&elifs(MAX_NESTING - 2)).is_ok());
        assert!(parse(&elifs(MAX_NESTING - 1)).is_err());
    }

    #[test]
    fn hostile_nesting_is_a_parse_error_not_a_stack_overflow() {
        let n = 200_000;
        for e in [
            format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            format!("{}1", "-".repeat(n)),
            vec!["1"; n].join("+"),
        ] {
            assert!(matches!(parse(&returning(&e)), Err(IrError::Parse { .. })));
        }
    }
}
