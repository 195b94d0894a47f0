//! A textual DSL for flowchart programs.
//!
//! Grammar (statements end in `;`, blocks in braces):
//!
//! ```text
//! program   ::= "program" "(" INT ")" labels? block
//! labels    ::= "labels" "{" (labeling | flowdecl)* "}"
//! labeling  ::= "x" INT ":" LEVEL ";"
//! flowdecl  ::= "flow" LEVEL "~>" LEVEL ";"
//! LEVEL     ::= "unclassified" | "confidential" | "secret" | "topsecret"
//! block     ::= "{" stmt* "}"
//! stmt      ::= var ":=" expr ";"
//!             | "if" pred block ("else" block)?
//!             | "while" pred block
//!             | "setpolicy" policy ";"
//!             | "declassify" "(" var ":" ints? "~>" ints? ")" ";"
//!             | "halt" ";"
//!             | "skip" ";"
//! policy    ::= "allow" "(" ints? ")" | "p" INT
//! ints      ::= INT ("," INT)*
//! var       ::= "x" INT | "r" INT | "y"
//! expr      ::= term (("+" | "-") term)*
//! term      ::= factor (("*" | "/" | "%") factor)*
//! factor    ::= INT | var | "-" factor | "(" expr ")"
//!             | "ite" "(" pred "," expr "," expr ")"
//! pred      ::= conj ("||" conj)*
//! conj      ::= atom ("&&" atom)*
//! atom      ::= "true" | "false" | "!" atom | "(" pred ")"
//!             | expr cmp expr
//! cmp       ::= "==" | "!=" | "<" | "<=" | ">" | ">="
//! ```
//!
//! Line comments start with `//`.
//!
//! `.fc` text is untrusted (serve requests carry it), so nesting is
//! bounded by [`MAX_DEPTH`]: deeper text is a [`ParseError`], not a stack
//! overflow.

use crate::ast::{CmpOp, Expr, Pred, Var};
use crate::graph::{Flowchart, PolicySpec};
use crate::structured::{lower, Stmt, StructuredProgram};
use enf_core::label::{Classification, IntransitiveFlow, Level};
use enf_core::{IndexSet, V};
use std::fmt;

/// A parsed flowchart together with the label declarations of its
/// optional `labels { … }` section: the per-input [`Classification`]
/// (defaulting every undeclared input to `unclassified`) and the
/// intransitive release edges (`flow secret ~> unclassified;`).
///
/// The [`Flowchart`] itself is unchanged by the section — labels are a
/// policy-side artifact, so fingerprints, pretty-printing and every
/// analysis over the graph are oblivious to them.
#[derive(Clone, Debug)]
pub struct LabeledProgram {
    /// The lowered program graph.
    pub flowchart: Flowchart,
    /// Input labeling from the `labels` section.
    pub classification: Classification<Level>,
    /// Sanctioned release edges from the `flow` declarations.
    pub flow: IntransitiveFlow<Level>,
}

/// The deepest nesting [`parse`] accepts. One counter covers blocks,
/// expressions and predicates: every nested block adds a level, and
/// inside one expression or predicate every parenthesis, unary operator,
/// `ite`, `!`, comparison and binary operator adds another. Within an
/// expression the count never falls — `a + b + c` nests to the left, so
/// counting operators bounds the height of the tree the parser builds —
/// and the expression's levels end with its statement. Every program the
/// parser accepts is then shallow enough for the recursive passes over
/// it (lowering, analyses, interpreters) on a server worker's stack.
pub const MAX_DEPTH: usize = 256;

/// A parse error with position information.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Byte offset in the source.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    Int(V),
    Ident(String),
    Sym(&'static str),
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        loop {
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos + 1 < self.src.len() && &self.src[self.pos..self.pos + 2] == b"//" {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn next(&mut self) -> Result<Option<(usize, Tok)>, ParseError> {
        self.skip_ws();
        if self.pos >= self.src.len() {
            return Ok(None);
        }
        let start = self.pos;
        let c = self.src[self.pos];
        let two = |s: &Lexer<'a>| {
            if s.pos + 1 < s.src.len() {
                Some(s.src[s.pos + 1])
            } else {
                None
            }
        };
        let tok = match c {
            b'0'..=b'9' => {
                let mut n: i128 = 0;
                while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                    n = n * 10 + (self.src[self.pos] - b'0') as i128;
                    if n > V::MAX as i128 {
                        return Err(self.error("integer literal overflows i64"));
                    }
                    self.pos += 1;
                }
                Tok::Int(n as V)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let mut s = String::new();
                while self.pos < self.src.len()
                    && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
                {
                    s.push(self.src[self.pos] as char);
                    self.pos += 1;
                }
                Tok::Ident(s)
            }
            b':' if two(self) == Some(b'=') => {
                self.pos += 2;
                Tok::Sym(":=")
            }
            b':' => {
                self.pos += 1;
                Tok::Sym(":")
            }
            b'~' if two(self) == Some(b'>') => {
                self.pos += 2;
                Tok::Sym("~>")
            }
            b'=' if two(self) == Some(b'=') => {
                self.pos += 2;
                Tok::Sym("==")
            }
            b'!' if two(self) == Some(b'=') => {
                self.pos += 2;
                Tok::Sym("!=")
            }
            b'<' if two(self) == Some(b'=') => {
                self.pos += 2;
                Tok::Sym("<=")
            }
            b'>' if two(self) == Some(b'=') => {
                self.pos += 2;
                Tok::Sym(">=")
            }
            b'&' if two(self) == Some(b'&') => {
                self.pos += 2;
                Tok::Sym("&&")
            }
            b'|' if two(self) == Some(b'|') => {
                self.pos += 2;
                Tok::Sym("||")
            }
            b'&' => {
                self.pos += 1;
                Tok::Sym("&")
            }
            b'|' => {
                self.pos += 1;
                Tok::Sym("|")
            }
            b'<' => {
                self.pos += 1;
                Tok::Sym("<")
            }
            b'>' => {
                self.pos += 1;
                Tok::Sym(">")
            }
            b'!' => {
                self.pos += 1;
                Tok::Sym("!")
            }
            b'+' => {
                self.pos += 1;
                Tok::Sym("+")
            }
            b'-' => {
                self.pos += 1;
                Tok::Sym("-")
            }
            b'*' => {
                self.pos += 1;
                Tok::Sym("*")
            }
            b'/' => {
                self.pos += 1;
                Tok::Sym("/")
            }
            b'%' => {
                self.pos += 1;
                Tok::Sym("%")
            }
            b'(' => {
                self.pos += 1;
                Tok::Sym("(")
            }
            b')' => {
                self.pos += 1;
                Tok::Sym(")")
            }
            b'{' => {
                self.pos += 1;
                Tok::Sym("{")
            }
            b'}' => {
                self.pos += 1;
                Tok::Sym("}")
            }
            b';' => {
                self.pos += 1;
                Tok::Sym(";")
            }
            b',' => {
                self.pos += 1;
                Tok::Sym(",")
            }
            other => {
                return Err(self.error(format!("unexpected character {:?}", other as char)));
            }
        };
        Ok(Some((start, tok)))
    }
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    at: usize,
    src_len: usize,
    /// Current nesting level, against [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.at).map(|(_, t)| t)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.at)
            .map(|(o, _)| *o)
            .unwrap_or(self.src_len)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.offset(),
            message: message.into(),
        }
    }

    /// Enters one more level of nesting, failing past [`MAX_DEPTH`].
    fn deeper(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// Parses an expression or predicate in statement position: its
    /// levels count from the enclosing block's and end with it.
    fn scoped<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let level = self.depth;
        let parsed = parse(self);
        self.depth = level;
        parsed
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.at).map(|(_, t)| t.clone());
        if t.is_some() {
            self.at += 1;
        }
        t
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Tok::Sym(s)) if *s == sym => {
                self.at += 1;
                Ok(())
            }
            other => Err(self.error(format!("expected `{sym}`, found {other:?}"))),
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(s)) if *s == sym) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn expect_int(&mut self) -> Result<V, ParseError> {
        match self.bump() {
            Some(Tok::Int(n)) => Ok(n),
            other => Err(self.error(format!("expected integer, found {other:?}"))),
        }
    }

    fn ident_to_var(&self, s: &str) -> Option<Var> {
        if s == "y" {
            return Some(Var::Out);
        }
        let (head, rest) = s.split_at(1);
        let idx: usize = rest.parse().ok()?;
        if idx == 0 {
            return None;
        }
        match head {
            "x" => Some(Var::Input(idx)),
            "r" => Some(Var::Reg(idx)),
            _ => None,
        }
    }

    fn program(&mut self) -> Result<(StructuredProgram, ParsedLabels), ParseError> {
        match self.bump() {
            Some(Tok::Ident(ref s)) if s == "program" => {}
            other => return Err(self.error(format!("expected `program`, found {other:?}"))),
        }
        self.expect_sym("(")?;
        let k = self.expect_int()?;
        if k < 0 || k > enf_core::IndexSet::MAX_INDEX as V {
            return Err(self.error("arity out of range"));
        }
        self.expect_sym(")")?;
        let labels = self.labels_section(k as usize)?;
        let body = self.block()?;
        if self.peek().is_some() {
            return Err(self.error("trailing input after program"));
        }
        Ok((StructuredProgram::new(k as usize, body), labels))
    }

    /// The optional `labels { … }` section between the arity and the
    /// body: per-input level declarations (`x1: secret;`, defaulting to
    /// `unclassified`) and release edges (`flow secret ~> unclassified;`).
    fn labels_section(&mut self, k: usize) -> Result<ParsedLabels, ParseError> {
        let mut labels = vec![Level::Unclassified; k];
        let mut declared = vec![false; k];
        let mut edges = Vec::new();
        if !matches!(self.peek(), Some(Tok::Ident(s)) if s == "labels") {
            return Ok(ParsedLabels { labels, edges });
        }
        self.at += 1;
        self.expect_sym("{")?;
        while !self.eat_sym("}") {
            match self.bump() {
                Some(Tok::Ident(ref s)) if s == "flow" => {
                    let from = self.level_name()?;
                    self.expect_sym("~>")?;
                    let to = self.level_name()?;
                    self.expect_sym(";")?;
                    edges.push((from, to));
                }
                Some(Tok::Ident(ref s)) => {
                    let Some(Var::Input(i)) = self.ident_to_var(s) else {
                        return Err(self.error(format!(
                            "labels section expects `x<i>: LEVEL;` or `flow LEVEL ~> LEVEL;`, found `{s}`"
                        )));
                    };
                    if i > k {
                        return Err(self.error(format!("label for x{i} exceeds arity {k}")));
                    }
                    if declared[i - 1] {
                        return Err(self.error(format!("duplicate label for x{i}")));
                    }
                    declared[i - 1] = true;
                    self.expect_sym(":")?;
                    labels[i - 1] = self.level_name()?;
                    self.expect_sym(";")?;
                }
                other => return Err(self.error(format!("expected label entry, found {other:?}"))),
            }
        }
        Ok(ParsedLabels { labels, edges })
    }

    /// A classification level by its lowercase name.
    fn level_name(&mut self) -> Result<Level, ParseError> {
        match self.bump() {
            Some(Tok::Ident(ref s)) => {
                Level::parse_name(s).ok_or_else(|| self.error(format!("unknown level `{s}`")))
            }
            other => Err(self.error(format!("expected level name, found {other:?}"))),
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_sym("{")?;
        self.deeper()?;
        let mut stmts = Vec::new();
        while !self.eat_sym("}") {
            if self.peek().is_none() {
                return Err(self.error("unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        self.depth -= 1;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) if s == "if" => {
                self.at += 1;
                let pred = self.scoped(Self::pred)?;
                let then_ = self.block()?;
                let else_ = if matches!(self.peek(), Some(Tok::Ident(s)) if s == "else") {
                    self.at += 1;
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If(pred, then_, else_))
            }
            Some(Tok::Ident(s)) if s == "while" => {
                self.at += 1;
                let pred = self.scoped(Self::pred)?;
                let body = self.block()?;
                Ok(Stmt::While(pred, body))
            }
            Some(Tok::Ident(s)) if s == "setpolicy" => {
                self.at += 1;
                let spec = self.policy_spec()?;
                self.expect_sym(";")?;
                Ok(Stmt::SetPolicy(spec))
            }
            Some(Tok::Ident(s)) if s == "declassify" => {
                self.at += 1;
                self.expect_sym("(")?;
                let var = match self.bump() {
                    Some(Tok::Ident(s)) => self
                        .ident_to_var(&s)
                        .ok_or_else(|| self.error(format!("unknown variable `{s}`")))?,
                    other => return Err(self.error(format!("expected variable, found {other:?}"))),
                };
                self.expect_sym(":")?;
                let from = self.index_list(true)?;
                self.expect_sym("~>")?;
                let to = self.index_list(true)?;
                self.expect_sym(")")?;
                self.expect_sym(";")?;
                Ok(Stmt::Declassify(var, from, to))
            }
            Some(Tok::Ident(s)) if s == "halt" => {
                self.at += 1;
                self.expect_sym(";")?;
                Ok(Stmt::Halt)
            }
            Some(Tok::Ident(s)) if s == "skip" => {
                self.at += 1;
                self.expect_sym(";")?;
                Ok(Stmt::Skip)
            }
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                let var = self
                    .ident_to_var(&s)
                    .ok_or_else(|| self.error(format!("unknown variable `{s}`")))?;
                self.at += 1;
                self.expect_sym(":=")?;
                let e = self.scoped(Self::expr)?;
                self.expect_sym(";")?;
                Ok(Stmt::Assign(var, e))
            }
            other => Err(self.error(format!("expected statement, found {other:?}"))),
        }
    }

    /// One input index for a policy set: positive and representable.
    fn policy_index(&mut self) -> Result<usize, ParseError> {
        let n = self.expect_int()?;
        if n < 1 || n > IndexSet::MAX_INDEX as V {
            return Err(self.error("policy index out of range"));
        }
        Ok(n as usize)
    }

    /// A comma-separated index list; empty allowed only when
    /// `may_be_empty` (the list then ends at the lookahead `~>` or `)`).
    fn index_list(&mut self, may_be_empty: bool) -> Result<IndexSet, ParseError> {
        let mut set = IndexSet::empty();
        if may_be_empty && !matches!(self.peek(), Some(Tok::Int(_))) {
            return Ok(set);
        }
        set.insert(self.policy_index()?);
        while self.eat_sym(",") {
            set.insert(self.policy_index()?);
        }
        Ok(set)
    }

    /// `allow(i1, …, im)` or a symbolic slot `p<n>`.
    fn policy_spec(&mut self) -> Result<PolicySpec, ParseError> {
        match self.bump() {
            Some(Tok::Ident(ref s)) if s == "allow" => {
                self.expect_sym("(")?;
                let set = if self.eat_sym(")") {
                    IndexSet::empty()
                } else {
                    let set = self.index_list(false)?;
                    self.expect_sym(")")?;
                    set
                };
                Ok(PolicySpec::Concrete(set))
            }
            Some(Tok::Ident(ref s)) if s.starts_with('p') => {
                let slot: usize = s[1..]
                    .parse()
                    .map_err(|_| self.error(format!("unknown policy `{s}`")))?;
                if slot == 0 {
                    return Err(self.error("policy slot p0 is invalid"));
                }
                Ok(PolicySpec::Slot(slot))
            }
            other => Err(self.error(format!("expected policy, found {other:?}"))),
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.band_expr()?;
        while self.eat_sym("|") {
            self.deeper()?;
            e = Expr::BOr(Box::new(e), Box::new(self.band_expr()?));
        }
        Ok(e)
    }

    fn band_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.sum()?;
        while self.eat_sym("&") {
            self.deeper()?;
            e = Expr::BAnd(Box::new(e), Box::new(self.sum()?));
        }
        Ok(e)
    }

    fn sum(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.term()?;
        loop {
            let op = if self.eat_sym("+") {
                Expr::Add
            } else if self.eat_sym("-") {
                Expr::Sub
            } else {
                return Ok(e);
            };
            self.deeper()?;
            e = op(Box::new(e), Box::new(self.term()?));
        }
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.factor()?;
        loop {
            let op = if self.eat_sym("*") {
                Expr::Mul
            } else if self.eat_sym("/") {
                Expr::Div
            } else if self.eat_sym("%") {
                Expr::Mod
            } else {
                return Ok(e);
            };
            self.deeper()?;
            e = op(Box::new(e), Box::new(self.factor()?));
        }
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        if self.eat_sym("-") {
            self.deeper()?;
            return Ok(Expr::Neg(Box::new(self.factor()?)));
        }
        if self.eat_sym("(") {
            self.deeper()?;
            let e = self.expr()?;
            self.expect_sym(")")?;
            return Ok(e);
        }
        match self.bump() {
            Some(Tok::Int(n)) => Ok(Expr::Const(n)),
            Some(Tok::Ident(s)) if s == "ite" => {
                self.deeper()?;
                self.expect_sym("(")?;
                let p = self.pred()?;
                self.expect_sym(",")?;
                let t = self.expr()?;
                self.expect_sym(",")?;
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(Expr::Ite(Box::new(p), Box::new(t), Box::new(e)))
            }
            Some(Tok::Ident(s)) => self
                .ident_to_var(&s)
                .map(Expr::Var)
                .ok_or_else(|| self.error(format!("unknown variable `{s}`"))),
            other => Err(self.error(format!("expected expression, found {other:?}"))),
        }
    }

    fn pred(&mut self) -> Result<Pred, ParseError> {
        let mut p = self.conj()?;
        while self.eat_sym("||") {
            self.deeper()?;
            p = Pred::Or(Box::new(p), Box::new(self.conj()?));
        }
        Ok(p)
    }

    fn conj(&mut self) -> Result<Pred, ParseError> {
        let mut p = self.atom()?;
        while self.eat_sym("&&") {
            self.deeper()?;
            p = Pred::And(Box::new(p), Box::new(self.atom()?));
        }
        Ok(p)
    }

    fn atom(&mut self) -> Result<Pred, ParseError> {
        if self.eat_sym("!") {
            self.deeper()?;
            return Ok(Pred::Not(Box::new(self.atom()?)));
        }
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == "true") {
            self.at += 1;
            return Ok(Pred::True);
        }
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == "false") {
            self.at += 1;
            return Ok(Pred::False);
        }
        // `(` may open a parenthesized predicate or a parenthesized
        // expression; try the predicate reading first and fall back.
        if matches!(self.peek(), Some(Tok::Sym("("))) {
            let (save, level) = (self.at, self.depth);
            self.at += 1;
            if let Ok(p) = self.deeper().and_then(|()| self.pred()) {
                if self.eat_sym(")") {
                    // Could still be `(expr) < expr` if p parsed as a
                    // comparison already consuming the operator; a full
                    // predicate in parens must not be followed by a
                    // comparison operator.
                    if !matches!(
                        self.peek(),
                        Some(Tok::Sym(
                            "==" | "!="
                                | "<"
                                | "<="
                                | ">"
                                | ">="
                                | "+"
                                | "-"
                                | "*"
                                | "/"
                                | "%"
                                | "&"
                                | "|"
                        ))
                    ) {
                        return Ok(p);
                    }
                }
            }
            self.at = save;
            self.depth = level;
        }
        let a = self.expr()?;
        self.deeper()?;
        let op = match self.bump() {
            Some(Tok::Sym("==")) => CmpOp::Eq,
            Some(Tok::Sym("!=")) => CmpOp::Ne,
            Some(Tok::Sym("<")) => CmpOp::Lt,
            Some(Tok::Sym("<=")) => CmpOp::Le,
            Some(Tok::Sym(">")) => CmpOp::Gt,
            Some(Tok::Sym(">=")) => CmpOp::Ge,
            other => return Err(self.error(format!("expected comparison, found {other:?}"))),
        };
        let b = self.expr()?;
        Ok(Pred::Cmp(op, Box::new(a), Box::new(b)))
    }
}

/// Raw label declarations collected by the parser.
struct ParsedLabels {
    labels: Vec<Level>,
    edges: Vec<(Level, Level)>,
}

fn parse_full(src: &str) -> Result<(StructuredProgram, ParsedLabels), ParseError> {
    let mut lex = Lexer::new(src);
    let mut toks = Vec::new();
    while let Some(t) = lex.next()? {
        toks.push(t);
    }
    let mut p = Parser {
        toks,
        at: 0,
        src_len: src.len(),
        depth: 0,
    };
    p.program()
}

/// Parses the DSL into a structured program, ignoring any `labels`
/// section.
pub fn parse_structured(src: &str) -> Result<StructuredProgram, ParseError> {
    parse_full(src).map(|(sp, _)| sp)
}

/// Parses the DSL, lowers to a validated flowchart, and keeps the label
/// declarations.
///
/// # Examples
///
/// ```
/// use enf_core::label::Level;
///
/// let lp = enf_flowchart::parse_labeled(
///     "program(2)
///      labels { x1: secret; flow secret ~> unclassified; }
///      { y := x1 + x2; }",
/// )
/// .unwrap();
/// assert_eq!(lp.classification.label(1), &Level::Secret);
/// assert_eq!(lp.classification.label(2), &Level::Unclassified);
/// assert_eq!(lp.flow.edges().len(), 1);
/// ```
pub fn parse_labeled(src: &str) -> Result<LabeledProgram, ParseError> {
    let (sp, raw) = parse_full(src)?;
    let flowchart = lower(&sp).map_err(|e| ParseError {
        offset: 0,
        message: format!("lowering failed: {e}"),
    })?;
    Ok(LabeledProgram {
        flowchart,
        classification: Classification::new(raw.labels),
        flow: IntransitiveFlow::new(raw.edges),
    })
}

/// Parses the DSL and lowers to a validated flowchart.
///
/// # Examples
///
/// ```
/// let fc = enf_flowchart::parse("program(1) { y := x1 + 1; }").unwrap();
/// assert_eq!(fc.arity(), 1);
/// ```
pub fn parse(src: &str) -> Result<Flowchart, ParseError> {
    let sp = parse_structured(src)?;
    lower(&sp).map_err(|e| ParseError {
        offset: 0,
        message: format!("lowering failed: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run, ExecConfig};

    fn eval(src: &str, inputs: &[V]) -> V {
        let fc = parse(src).expect("parse failed");
        run(&fc, inputs, &ExecConfig::default()).unwrap_halted().y
    }

    #[test]
    fn precedence_mul_over_add() {
        assert_eq!(eval("program(0) { y := 2 + 3 * 4; }", &[]), 14);
        assert_eq!(eval("program(0) { y := (2 + 3) * 4; }", &[]), 20);
    }

    #[test]
    fn left_associativity() {
        assert_eq!(eval("program(0) { y := 10 - 3 - 2; }", &[]), 5);
        assert_eq!(eval("program(0) { y := 24 / 4 / 3; }", &[]), 2);
    }

    #[test]
    fn unary_minus() {
        assert_eq!(eval("program(1) { y := -x1 + 1; }", &[5]), -4);
        assert_eq!(eval("program(0) { y := --3; }", &[]), 3);
    }

    #[test]
    fn modulo() {
        assert_eq!(eval("program(0) { y := 17 % 5; }", &[]), 2);
    }

    #[test]
    fn ite_expression() {
        let src = "program(1) { y := ite(x1 == 1, 1, 2); }";
        assert_eq!(eval(src, &[1]), 1);
        assert_eq!(eval(src, &[5]), 2);
    }

    /// The one `declassify` box of a parsed program.
    fn declassify_of(src: &str) -> (Var, IndexSet, IndexSet) {
        let fc = parse(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        let decl = fc.iter().find_map(|(_, node, _)| match node {
            crate::graph::Node::Declassify { var, from, to } => Some((*var, *from, *to)),
            _ => None,
        });
        decl.expect("a declassify box")
    }

    #[test]
    fn declassify_with_empty_source_list() {
        assert_eq!(
            declassify_of("program(2) { declassify(r1: ~> 2); }"),
            (Var::Reg(1), IndexSet::empty(), IndexSet::single(2))
        );
    }

    #[test]
    fn declassify_with_both_lists_empty() {
        assert_eq!(
            declassify_of("program(2) { declassify(r1: ~>); }"),
            (Var::Reg(1), IndexSet::empty(), IndexSet::empty())
        );
    }

    #[test]
    fn labels_section_parses_and_defaults() {
        let lp = parse_labeled(
            "program(3)
             labels {
                 x1: secret;
                 x3: confidential;
                 flow secret ~> unclassified;
             }
             { y := x1 + x2 + x3; }",
        )
        .unwrap();
        assert_eq!(lp.classification.label(1), &Level::Secret);
        assert_eq!(lp.classification.label(2), &Level::Unclassified);
        assert_eq!(lp.classification.label(3), &Level::Confidential);
        assert_eq!(lp.flow.edges(), &[(Level::Secret, Level::Unclassified)][..]);
        // The plain parser accepts the same source, ignoring labels.
        assert_eq!(
            lp.flowchart,
            parse(
                "program(3)
             labels {
                 x1: secret;
                 x3: confidential;
                 flow secret ~> unclassified;
             }
             { y := x1 + x2 + x3; }",
            )
            .unwrap()
        );
    }

    #[test]
    fn unlabeled_program_is_all_public() {
        let lp = parse_labeled("program(2) { y := x1; }").unwrap();
        assert_eq!(lp.classification.label(1), &Level::Unclassified);
        assert_eq!(lp.classification.label(2), &Level::Unclassified);
        assert!(lp.flow.is_transitive());
    }

    #[test]
    fn labels_section_rejects_bad_entries() {
        for (src, what) in [
            (
                "program(1) labels { x2: secret; } { y := 0; }",
                "exceeds arity",
            ),
            (
                "program(1) labels { x1: secret; x1: secret; } { y := 0; }",
                "duplicate label",
            ),
            (
                "program(1) labels { x1: classified; } { y := 0; }",
                "unknown level",
            ),
            (
                "program(1) labels { r1: secret; } { y := 0; }",
                "labels section expects",
            ),
        ] {
            let err = parse_labeled(src).unwrap_err();
            assert!(err.message.contains(what), "{src}: {}", err.message);
        }
    }

    #[test]
    fn comments_are_skipped() {
        let src = "program(0) { // set output\n y := 3; // done\n }";
        assert_eq!(eval(src, &[]), 3);
    }

    #[test]
    fn boolean_connectives() {
        let src = "program(2) { if x1 == 0 && x2 == 0 { y := 1; } else { y := 0; } }";
        assert_eq!(eval(src, &[0, 0]), 1);
        assert_eq!(eval(src, &[0, 1]), 0);
        let src = "program(2) { if x1 == 0 || x2 == 0 { y := 1; } else { y := 0; } }";
        assert_eq!(eval(src, &[1, 0]), 1);
        assert_eq!(eval(src, &[1, 1]), 0);
    }

    #[test]
    fn negation_and_parens_in_pred() {
        let src = "program(1) { if !(x1 == 0) { y := 1; } }";
        assert_eq!(eval(src, &[5]), 1);
        assert_eq!(eval(src, &[0]), 0);
    }

    #[test]
    fn parenthesized_expression_in_comparison() {
        let src = "program(1) { if (x1 + 1) > 3 { y := 1; } }";
        assert_eq!(eval(src, &[3]), 1);
        assert_eq!(eval(src, &[2]), 0);
    }

    #[test]
    fn nested_parenthesized_predicate() {
        let src = "program(2) { if ((x1 == 0) && (x2 == 0)) || x1 == 9 { y := 1; } }";
        assert_eq!(eval(src, &[0, 0]), 1);
        assert_eq!(eval(src, &[9, 5]), 1);
        assert_eq!(eval(src, &[1, 0]), 0);
    }

    #[test]
    fn halt_and_skip_statements() {
        assert_eq!(eval("program(0) { y := 1; halt; y := 2; }", &[]), 1);
        assert_eq!(eval("program(0) { skip; y := 4; }", &[]), 4);
    }

    #[test]
    fn errors_unknown_variable() {
        let err = parse("program(0) { z := 1; }").unwrap_err();
        assert!(err.message.contains("unknown variable"), "{err}");
    }

    #[test]
    fn errors_missing_semicolon() {
        assert!(parse("program(0) { y := 1 }").is_err());
    }

    #[test]
    fn errors_x0_and_r0_rejected() {
        assert!(parse("program(1) { y := x0; }").is_err());
        assert!(parse("program(1) { r0 := 1; }").is_err());
    }

    #[test]
    fn errors_arity_out_of_range() {
        assert!(parse("program(99) { y := 1; }").is_err());
    }

    #[test]
    fn errors_trailing_garbage() {
        assert!(parse("program(0) { y := 1; } extra").is_err());
    }

    #[test]
    fn errors_unterminated_block() {
        assert!(parse("program(0) { y := 1;").is_err());
    }

    #[test]
    fn errors_literal_overflow() {
        assert!(parse("program(0) { y := 99999999999999999999; }").is_err());
    }

    /// `y := ((…(x1)…));` with `n` parentheses: the block's level plus
    /// one per parenthesis.
    fn parens(n: usize) -> String {
        format!(
            "program(1) {{ y := {}x1{}; }}",
            "(".repeat(n),
            ")".repeat(n)
        )
    }

    /// `y := --…-x1;` with `n` unary minus signs.
    fn negations(n: usize) -> String {
        format!("program(1) {{ y := {}x1; }}", "-".repeat(n))
    }

    /// `n` nested `if x1 == 0 { … }`: the innermost block and the
    /// innermost comparison both sit at level `n + 1`.
    fn nested_ifs(n: usize) -> String {
        format!(
            "program(1) {{ {} y := x1; {} }}",
            "if x1 == 0 { ".repeat(n),
            "} ".repeat(n)
        )
    }

    /// `y := x1 + x1 + …;` with `n` operators, a left-nested chain.
    fn chain(n: usize) -> String {
        format!("program(1) {{ y := x1{}; }}", " + x1".repeat(n))
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        for shape in [parens, negations, nested_ifs, chain] {
            let at_bound = shape(MAX_DEPTH - 1);
            assert!(parse(&at_bound).is_ok(), "{at_bound}");
            let err = parse(&shape(MAX_DEPTH)).expect_err("one level too deep");
            assert!(
                err.message.contains("nesting deeper than 256 levels"),
                "{err}"
            );
            // Far past the bound: an error, not a stack overflow.
            assert!(parse(&shape(100_000)).is_err());
        }
        // Predicates share the counter: `!` and parenthesized predicates.
        let nots = |n: usize| format!("program(1) {{ if {}x1 == 0 {{ y := 1; }} }}", "!".repeat(n));
        assert!(parse(&nots(MAX_DEPTH - 2)).is_ok());
        assert!(parse(&nots(MAX_DEPTH - 1)).is_err());
        assert!(parse(&nots(100_000)).is_err());
    }

    #[test]
    fn expression_levels_end_with_their_statement() {
        // Many shallow statements and sibling blocks never add up.
        let wide = format!(
            "program(1) {{ {} }}",
            format!("if x1 == 0 {{ {} }} ", "y := -(x1 + 1);".repeat(50)).repeat(50)
        );
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn error_display_carries_offset() {
        let err = parse("program(0) { y := @; }").unwrap_err();
        assert!(err.to_string().contains("parse error at byte"));
    }

    #[test]
    fn input_variable_indices_checked_against_arity() {
        assert!(parse("program(1) { y := x2; }").is_err());
        assert!(parse("program(2) { y := x2; }").is_ok());
    }

    #[test]
    fn structured_roundtrip_shape() {
        let sp = parse_structured("program(1) { if x1 == 0 { y := 1; } }").unwrap();
        assert_eq!(sp.arity, 1);
        assert_eq!(sp.body.len(), 1);
        assert!(matches!(sp.body[0], Stmt::If(..)));
    }
}
