//! Recursive-descent parser for GSQL SELECT statements.

use qap_expr::{BinOp, ColumnRef, UnOp};
use qap_plan::JoinType;

use crate::ast::{AstExpr, FromItem, GroupItem, JoinSpec, SelectItem, SelectStmt};
use crate::lexer::{tokenize, Token, TokenKind};
use crate::{SqlError, SqlResult};

/// Parses a standalone scalar expression (e.g. a partitioning-set entry
/// like `srcIP & 0xFFF0` on a command line). Aggregate calls are
/// rejected.
pub fn parse_expression(input: &str) -> SqlResult<qap_expr::ScalarExpr> {
    let mut p = Parser::from_input(input)?;
    let ast = p.expr()?;
    p.expect_eof()?;
    crate::analyzer::ast_to_scalar(&ast)
}

/// Parses one `SELECT ...` statement (optionally terminated by `;`).
pub fn parse_select(input: &str) -> SqlResult<SelectStmt> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.select_stmt()?;
    p.eat_symbol(";");
    p.expect_eof()?;
    Ok(stmt)
}

pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    pub(crate) fn from_input(input: &str) -> SqlResult<Parser> {
        Ok(Parser {
            tokens: tokenize(input)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    /// Byte offset of the next token (the input's length at its end).
    pub(crate) fn peek_pos(&self) -> usize {
        self.tokens[self.pos].pos
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, msg: impl Into<String>) -> SqlResult<T> {
        Err(SqlError::Parse {
            pos: self.peek_pos(),
            msg: msg.into(),
        })
    }

    pub(crate) fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn expect_eof(&self) -> SqlResult<()> {
        if self.at_eof() {
            Ok(())
        } else {
            self.error(format!("trailing input: {:?}", self.peek()))
        }
    }

    pub(crate) fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Keyword(k) if *k == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> SqlResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.error(format!("expected {kw}, found {:?}", self.peek()))
        }
    }

    pub(crate) fn eat_symbol(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), TokenKind::Symbol(s) if *s == sym) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> SqlResult<()> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            self.error(format!("expected '{sym}', found {:?}", self.peek()))
        }
    }

    pub(crate) fn expect_ident(&mut self) -> SqlResult<String> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => self.error(format!("expected identifier, found {other:?}")),
        }
    }

    /// `SELECT items FROM sources [WHERE e] [GROUP BY gs] [HAVING e]`
    pub(crate) fn select_stmt(&mut self) -> SqlResult<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let mut items = vec![self.select_item()?];
        while self.eat_symbol(",") {
            items.push(self.select_item()?);
        }
        self.expect_keyword("FROM")?;
        let (from, join, on) = self.from_clause()?;
        let mut where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        // `ON` predicates fold into WHERE, as the doc promises — GSQL
        // treats them identically.
        if let Some(on) = on {
            where_clause = Some(match where_clause {
                Some(w) => bin(BinOp::And, on, w),
                None => on,
            });
        }
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.group_item()?);
            while self.eat_symbol(",") {
                group_by.push(self.group_item()?);
            }
        }
        let having = if self.eat_keyword("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            join,
            where_clause,
            group_by,
            having,
        })
    }

    fn select_item(&mut self) -> SqlResult<SelectItem> {
        let expr = self.expr()?;
        let alias = self.opt_alias()?;
        Ok(SelectItem { expr, alias })
    }

    fn group_item(&mut self) -> SqlResult<GroupItem> {
        let expr = self.expr()?;
        let alias = self.opt_alias()?;
        Ok(GroupItem { expr, alias })
    }

    fn opt_alias(&mut self) -> SqlResult<Option<String>> {
        if self.eat_keyword("AS") {
            return Ok(Some(self.expect_ident()?));
        }
        Ok(None)
    }

    /// `stream [alias] (, stream [alias] | [join-type] JOIN stream [alias] [ON expr])?`
    ///
    /// An `ON` predicate, when present, is folded into the WHERE clause —
    /// GSQL (and all the paper's listings) put join predicates in WHERE.
    #[allow(clippy::wrong_self_convention)] // parses the FROM clause
    fn from_clause(&mut self) -> SqlResult<(Vec<FromItem>, Option<JoinSpec>, Option<AstExpr>)> {
        let first = self.from_item()?;
        if self.eat_symbol(",") {
            let second = self.from_item()?;
            return Ok((vec![first, second], None, None));
        }
        let join_type = if self.eat_keyword("JOIN") {
            Some(JoinType::Inner)
        } else if self.eat_keyword("INNER") {
            self.expect_keyword("JOIN")?;
            Some(JoinType::Inner)
        } else if self.eat_keyword("LEFT") {
            self.eat_keyword("OUTER");
            self.expect_keyword("JOIN")?;
            Some(JoinType::LeftOuter)
        } else if self.eat_keyword("RIGHT") {
            self.eat_keyword("OUTER");
            self.expect_keyword("JOIN")?;
            Some(JoinType::RightOuter)
        } else if self.eat_keyword("FULL") {
            self.eat_keyword("OUTER");
            self.expect_keyword("JOIN")?;
            Some(JoinType::FullOuter)
        } else {
            None
        };
        match join_type {
            Some(jt) => {
                let second = self.from_item()?;
                let on = if self.eat_keyword("ON") {
                    Some(self.expr()?)
                } else {
                    None
                };
                Ok((vec![first, second], Some(JoinSpec { join_type: jt }), on))
            }
            None => Ok((vec![first], None, None)),
        }
    }

    #[allow(clippy::wrong_self_convention)] // parses one FROM item
    fn from_item(&mut self) -> SqlResult<FromItem> {
        let name = self.expect_ident()?;
        // Optional alias: `AS x` or bare identifier.
        let alias = if self.eat_keyword("AS") {
            Some(self.expect_ident()?)
        } else if let TokenKind::Ident(a) = self.peek().clone() {
            self.bump();
            Some(a)
        } else {
            None
        };
        Ok(FromItem { name, alias })
    }

    /// Parses a stream schema definition body (after the `STREAM`
    /// keyword): `name(field type [increasing|decreasing], ...)` — the
    /// GSQL protocol-schema syntax of Section 3.1's
    /// `PKT(time increasing, srcIP, destIP, len)`, extended with
    /// explicit types. A field without a type defaults to `uint` (the
    /// paper's implicit convention for packet headers).
    pub(crate) fn stream_def(&mut self) -> SqlResult<qap_types::Schema> {
        use qap_types::{DataType, Field, Temporality};
        let name = self.expect_ident()?;
        self.expect_symbol("(")?;
        let mut fields = Vec::new();
        loop {
            let fname = self.expect_ident()?;
            let mut data_type = DataType::UInt;
            let mut temporality = Temporality::None;
            // Up to two trailing words: a type and/or an ordering.
            for _ in 0..2 {
                let TokenKind::Ident(word) = self.peek().clone() else {
                    break;
                };
                match word.to_ascii_lowercase().as_str() {
                    "uint" => data_type = DataType::UInt,
                    "int" => data_type = DataType::Int,
                    "bool" => data_type = DataType::Bool,
                    "string" => data_type = DataType::Str,
                    "increasing" => temporality = Temporality::Increasing,
                    "decreasing" => temporality = Temporality::Decreasing,
                    other => {
                        return self.error(format!(
                            "expected a field type or ordering, found '{other}'"
                        ))
                    }
                }
                self.bump();
            }
            fields.push(Field::temporal(fname, data_type, temporality));
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        qap_types::Schema::new(name, fields)
            .map_err(|e| SqlError::Analyze(format!("bad stream definition: {e}")))
    }

    // ----- expression grammar, precedence climbing -------------------

    /// Entry: OR-level.
    pub(crate) fn expr(&mut self) -> SqlResult<AstExpr> {
        let mut lhs = self.and_expr()?;
        while self.eat_keyword("OR") {
            let rhs = self.and_expr()?;
            lhs = bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> SqlResult<AstExpr> {
        let mut lhs = self.not_expr()?;
        while self.eat_keyword("AND") {
            let rhs = self.not_expr()?;
            lhs = bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> SqlResult<AstExpr> {
        if self.eat_keyword("NOT") {
            let inner = self.not_expr()?;
            return Ok(AstExpr::Unary {
                op: UnOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> SqlResult<AstExpr> {
        let lhs = self.bit_or()?;
        let op = match self.peek() {
            TokenKind::Symbol("=") => Some(BinOp::Eq),
            TokenKind::Symbol("<>") => Some(BinOp::Ne),
            TokenKind::Symbol("<") => Some(BinOp::Lt),
            TokenKind::Symbol("<=") => Some(BinOp::Le),
            TokenKind::Symbol(">") => Some(BinOp::Gt),
            TokenKind::Symbol(">=") => Some(BinOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let rhs = self.bit_or()?;
                Ok(bin(op, lhs, rhs))
            }
            None => Ok(lhs),
        }
    }

    fn bit_or(&mut self) -> SqlResult<AstExpr> {
        let mut lhs = self.bit_xor()?;
        while matches!(self.peek(), TokenKind::Symbol("|")) {
            self.bump();
            let rhs = self.bit_xor()?;
            lhs = bin(BinOp::BitOr, lhs, rhs);
        }
        Ok(lhs)
    }

    fn bit_xor(&mut self) -> SqlResult<AstExpr> {
        let mut lhs = self.bit_and()?;
        while matches!(self.peek(), TokenKind::Symbol("^")) {
            self.bump();
            let rhs = self.bit_and()?;
            lhs = bin(BinOp::BitXor, lhs, rhs);
        }
        Ok(lhs)
    }

    fn bit_and(&mut self) -> SqlResult<AstExpr> {
        let mut lhs = self.shift()?;
        while matches!(self.peek(), TokenKind::Symbol("&")) {
            self.bump();
            let rhs = self.shift()?;
            lhs = bin(BinOp::BitAnd, lhs, rhs);
        }
        Ok(lhs)
    }

    fn shift(&mut self) -> SqlResult<AstExpr> {
        let mut lhs = self.additive()?;
        loop {
            let op = match self.peek() {
                TokenKind::Symbol("<<") => BinOp::Shl,
                TokenKind::Symbol(">>") => BinOp::Shr,
                _ => break,
            };
            self.bump();
            let rhs = self.additive()?;
            lhs = bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> SqlResult<AstExpr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Symbol("+") => BinOp::Add,
                TokenKind::Symbol("-") => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> SqlResult<AstExpr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Symbol("*") => BinOp::Mul,
                TokenKind::Symbol("/") => BinOp::Div,
                TokenKind::Symbol("%") => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> SqlResult<AstExpr> {
        if self.eat_symbol("-") {
            let inner = self.unary()?;
            return Ok(AstExpr::Unary {
                op: UnOp::Neg,
                expr: Box::new(inner),
            });
        }
        if self.eat_symbol("~") {
            let inner = self.unary()?;
            return Ok(AstExpr::Unary {
                op: UnOp::BitNot,
                expr: Box::new(inner),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> SqlResult<AstExpr> {
        match self.peek().clone() {
            TokenKind::Number(n) => {
                self.bump();
                Ok(AstExpr::Number(n))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(AstExpr::Str(s))
            }
            TokenKind::Keyword("TRUE") => {
                self.bump();
                Ok(AstExpr::Bool(true))
            }
            TokenKind::Keyword("FALSE") => {
                self.bump();
                Ok(AstExpr::Bool(false))
            }
            TokenKind::Keyword("NULL") => {
                self.bump();
                Ok(AstExpr::Null)
            }
            TokenKind::Symbol("(") => {
                self.bump();
                let inner = self.expr()?;
                self.expect_symbol(")")?;
                Ok(inner)
            }
            TokenKind::Ident(name) => {
                self.bump();
                // Function call?
                if self.eat_symbol("(") {
                    if self.eat_symbol("*") {
                        self.expect_symbol(")")?;
                        return Ok(AstExpr::Agg { name, arg: None });
                    }
                    let arg = self.expr()?;
                    self.expect_symbol(")")?;
                    return Ok(AstExpr::Agg {
                        name,
                        arg: Some(Box::new(arg)),
                    });
                }
                // Qualified column?
                if self.eat_symbol(".") {
                    let field = self.expect_ident()?;
                    return Ok(AstExpr::Column(ColumnRef::qualified(name, field)));
                }
                Ok(AstExpr::Column(ColumnRef::bare(name)))
            }
            other => self.error(format!("expected expression, found {other:?}")),
        }
    }
}

fn bin(op: BinOp, lhs: AstExpr, rhs: AstExpr) -> AstExpr {
    AstExpr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flows_query() {
        let stmt = parse_select(
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt \
             FROM TCP GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        assert_eq!(stmt.items.len(), 4);
        assert_eq!(stmt.items[3].alias.as_deref(), Some("cnt"));
        assert!(
            matches!(stmt.items[3].expr, AstExpr::Agg { ref name, arg: None } if name == "COUNT")
        );
        assert_eq!(stmt.from.len(), 1);
        assert_eq!(stmt.group_by.len(), 3);
        assert_eq!(stmt.group_by[0].alias.as_deref(), Some("tb"));
    }

    #[test]
    fn parses_having_with_aggregate() {
        let stmt = parse_select(
            "SELECT tb, srcIP, COUNT(*) FROM TCP \
             GROUP BY time as tb, srcIP HAVING OR_AGGR(flags) = 0x29",
        )
        .unwrap();
        let having = stmt.having.unwrap();
        assert!(having.contains_agg());
    }

    #[test]
    fn parses_comma_self_join() {
        let stmt = parse_select(
            "SELECT S1.tb, S1.srcIP, S1.max_cnt, S2.max_cnt \
             FROM heavy_flows S1, heavy_flows S2 \
             WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1",
        )
        .unwrap();
        assert_eq!(stmt.from.len(), 2);
        assert_eq!(stmt.from[0].effective_alias(), "S1");
        assert!(stmt.join.is_none());
        assert!(stmt.where_clause.is_some());
    }

    #[test]
    fn parses_join_keyword_forms() {
        for (sql, jt) in [
            ("SELECT a FROM X JOIN Y WHERE X.t = Y.t", JoinType::Inner),
            (
                "SELECT a FROM X LEFT OUTER JOIN Y WHERE X.t = Y.t",
                JoinType::LeftOuter,
            ),
            (
                "SELECT a FROM X FULL JOIN Y WHERE X.t = Y.t",
                JoinType::FullOuter,
            ),
            (
                "SELECT a FROM X RIGHT JOIN Y WHERE X.t = Y.t",
                JoinType::RightOuter,
            ),
        ] {
            let stmt = parse_select(sql).unwrap();
            assert_eq!(stmt.join.unwrap().join_type, jt, "{sql}");
        }
    }

    #[test]
    fn precedence_bitand_binds_tighter_than_eq() {
        // srcIP & 0xFFF0 = 16 must parse as (srcIP & 0xFFF0) = 16.
        let stmt = parse_select("SELECT a FROM T WHERE srcIP & 0xFFF0 = 16").unwrap();
        match stmt.where_clause.unwrap() {
            AstExpr::Binary {
                op: BinOp::Eq, lhs, ..
            } => {
                assert!(matches!(
                    *lhs,
                    AstExpr::Binary {
                        op: BinOp::BitAnd,
                        ..
                    }
                ));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn precedence_div_binds_tighter_than_add() {
        let stmt = parse_select("SELECT a FROM T WHERE x = t/60 + 1").unwrap();
        match stmt.where_clause.unwrap() {
            AstExpr::Binary {
                op: BinOp::Eq, rhs, ..
            } => {
                assert!(matches!(*rhs, AstExpr::Binary { op: BinOp::Add, .. }));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parenthesized_grouping() {
        let stmt =
            parse_select("SELECT (time/60)/2 as t2 FROM TCP GROUP BY (time/60)/2 as t2").unwrap();
        assert_eq!(stmt.items[0].alias.as_deref(), Some("t2"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_select("SELECT a FROM T garbage !").is_err());
    }

    #[test]
    fn missing_from_rejected() {
        let err = parse_select("SELECT a WHERE x = 1").unwrap_err();
        assert!(matches!(err, SqlError::Parse { .. }));
    }

    #[test]
    fn ip_literal_in_predicate() {
        let stmt = parse_select("SELECT a FROM T WHERE destIP = 10.0.0.1").unwrap();
        match stmt.where_clause.unwrap() {
            AstExpr::Binary { rhs, .. } => {
                assert_eq!(*rhs, AstExpr::Number(0x0A000001));
            }
            _ => panic!(),
        }
    }
}
