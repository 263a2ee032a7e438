//! SQL text for generated plans.
//!
//! `Query`'s `Display` is a debugging form, not SQL: it has no `FROM`
//! clause and leaves string literals such as `CAT#017` unquoted. The
//! benchmark sends what a user would send, so it renders real SQL here and
//! checks that every rendered query parses back to the generated plan.

use aqp_query::{AggFunc, CmpOp, Expr, Query};
use aqp_storage::Value;
use std::fmt::Write;

/// The view name every benchmark query names in `FROM`.
pub const VIEW_NAME: &str = "sales";

/// Render `query` as SQL against [`VIEW_NAME`].
pub fn render(query: &Query) -> String {
    let mut sql = String::from("SELECT ");
    for g in &query.group_by {
        sql.push_str(g);
        sql.push_str(", ");
    }
    for (i, agg) in query.aggregates.iter().enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        match (agg.func, &agg.column) {
            (AggFunc::Count, _) => sql.push_str("COUNT(*)"),
            (func, Some(column)) => {
                let _ = write!(sql, "{func}({column})");
            }
            (func, None) => {
                let _ = write!(sql, "{func}(*)");
            }
        }
        let _ = write!(sql, " AS {}", agg.alias);
    }
    let _ = write!(sql, " FROM {VIEW_NAME}");
    if let Some(predicate) = &query.predicate {
        sql.push_str(" WHERE ");
        render_expr(predicate, &mut sql);
    }
    if !query.group_by.is_empty() {
        sql.push_str(" GROUP BY ");
        sql.push_str(&query.group_by.join(", "));
    }
    sql
}

fn render_expr(expr: &Expr, out: &mut String) {
    match expr {
        Expr::Cmp {
            column,
            op,
            literal,
        } => {
            let op = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "<>",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            let _ = write!(out, "{column} {op} ");
            render_literal(literal, out);
        }
        Expr::InSet { column, values } => {
            let _ = write!(out, "{column} IN (");
            for (i, v) in values.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_literal(v, out);
            }
            out.push(')');
        }
        // An empty conjunction is TRUE and an empty disjunction FALSE;
        // SQL has no empty AND/OR, so spell them as tautology/contradiction.
        Expr::And(parts) if parts.is_empty() => out.push_str("(1 = 1)"),
        Expr::Or(parts) if parts.is_empty() => out.push_str("(1 = 0)"),
        Expr::And(parts) | Expr::Or(parts) => {
            let joiner = if matches!(expr, Expr::And(_)) {
                " AND "
            } else {
                " OR "
            };
            out.push('(');
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(joiner);
                }
                render_expr(p, out);
            }
            out.push(')');
        }
        Expr::Not(inner) => {
            out.push_str("NOT (");
            render_expr(inner, out);
            out.push(')');
        }
    }
}

fn render_literal(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("NULL"),
        Value::Int64(i) => {
            let _ = write!(out, "{i}");
        }
        // `{:?}` is the shortest form that reads back to the same bits and
        // always carries a '.' or an exponent, so it lexes as a float.
        Value::Float64(f) => {
            let _ = write!(out, "{f:?}");
        }
        Value::Utf8(s) => {
            out.push('\'');
            out.push_str(&s.replace('\'', "''"));
            out.push('\'');
        }
        Value::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
    }
}

/// Check that `sql` parses back to `query`. Plans are compared by their
/// canonical cache keys: the parser returns a single predicate bare where
/// the generator wraps it in `And([..])`, which the canonical form erases.
pub fn check_round_trip(query: &Query, sql: &str) -> Result<(), String> {
    let parsed = aqp_sql::parse_query(sql).map_err(|e| format!("{sql}: {e}"))?;
    let want = aqp_sql::plan_key_text(VIEW_NAME, query);
    let got = parsed.plan_key_text();
    if want == got {
        Ok(())
    } else {
        Err(format!("{sql}: parses to {got}, generated {want}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_query::AggExpr;

    #[test]
    fn quoted_literals_and_from_clause_round_trip() {
        let query = Query::builder()
            .aggregate(AggExpr::sum("sales.revenue", "total"))
            .group_by_all(vec![
                "product.category".to_string(),
                "store.city".to_string(),
            ])
            .filter(Expr::And(vec![
                Expr::in_set(
                    "product.brand",
                    vec![
                        Value::from("CAT#017"),
                        Value::from("it's"),
                        Value::Int64(-3),
                    ],
                ),
                Expr::Not(Box::new(Expr::eq("sales.units", Value::Float64(2.5)))),
            ]))
            .build()
            .unwrap();
        let sql = render(&query);
        assert!(sql.contains("FROM sales"), "{sql}");
        assert!(
            sql.contains("'CAT#017'") && sql.contains("'it''s'"),
            "{sql}"
        );
        check_round_trip(&query, &sql).unwrap();
    }

    #[test]
    fn single_predicate_unwrapped_by_parser_still_matches() {
        let query = Query::builder()
            .aggregate(AggExpr::count("cnt"))
            .group_by_all(vec!["store.region".to_string()])
            .filter(Expr::And(vec![Expr::in_set(
                "store.country",
                vec![Value::from("C1")],
            )]))
            .build()
            .unwrap();
        check_round_trip(&query, &render(&query)).unwrap();
    }
}
