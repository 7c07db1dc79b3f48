//! Scalar expression AST and evaluation.
//!
//! Predicates in SPJM queries — both the relational σ and the per-pattern-
//! element constraints produced by `FilterIntoMatchRule` — are built from
//! [`ScalarExpr`]. Evaluation is row-at-a-time over a [`Table`] with a batch
//! `filter` driver; the selectivity estimator feeds the relational cost
//! models.

use crate::table::Table;
use relgo_common::{RelGoError, Result, RowId, Value};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl BinaryOp {
    fn test(self, ord: Ordering) -> bool {
        match self {
            BinaryOp::Eq => ord == Ordering::Equal,
            BinaryOp::Ne => ord != Ordering::Equal,
            BinaryOp::Lt => ord == Ordering::Less,
            BinaryOp::Le => ord != Ordering::Greater,
            BinaryOp::Gt => ord == Ordering::Greater,
            BinaryOp::Ge => ord != Ordering::Less,
        }
    }

    /// Rough selectivity prior for this comparison (equality is selective,
    /// ranges are not) — the classic System-R constants.
    pub fn default_selectivity(self) -> f64 {
        match self {
            BinaryOp::Eq => 0.005,
            BinaryOp::Ne => 0.995,
            _ => 0.33,
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Eq => "=",
            BinaryOp::Ne => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A scalar expression over the columns of one row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScalarExpr {
    /// Reference to column `i` of the input schema.
    Col(usize),
    /// A literal value.
    Lit(Value),
    /// A parameter-slot literal: slot index and current value. It
    /// evaluates, estimates and displays exactly like `Lit(value)`; plan
    /// rebinding rewrites the value of slot `i` positionally.
    Param(usize, Value),
    /// Comparison of two sub-expressions.
    Cmp(BinaryOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Logical conjunction.
    And(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Logical disjunction.
    Or(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Logical negation.
    Not(Box<ScalarExpr>),
    /// String prefix test (`name STARTS WITH 'B'`).
    StartsWith(Box<ScalarExpr>, String),
    /// Substring containment test (`keyword CONTAINS 'title'`).
    Contains(Box<ScalarExpr>, String),
    /// NULL test.
    IsNull(Box<ScalarExpr>),
    /// Membership in a literal list (`country IN ('x','y')`).
    InList(Box<ScalarExpr>, Vec<Value>),
}

impl ScalarExpr {
    /// `column = literal` shorthand.
    pub fn col_eq(col: usize, v: impl Into<Value>) -> Self {
        ScalarExpr::Cmp(
            BinaryOp::Eq,
            Box::new(ScalarExpr::Col(col)),
            Box::new(ScalarExpr::Lit(v.into())),
        )
    }

    /// `column <op> literal` shorthand.
    pub fn col_cmp(col: usize, op: BinaryOp, v: impl Into<Value>) -> Self {
        ScalarExpr::Cmp(
            op,
            Box::new(ScalarExpr::Col(col)),
            Box::new(ScalarExpr::Lit(v.into())),
        )
    }

    /// Conjunction helper.
    pub fn and(self, other: ScalarExpr) -> Self {
        ScalarExpr::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: ScalarExpr) -> Self {
        ScalarExpr::Or(Box::new(self), Box::new(other))
    }

    /// Conjoin an optional predicate with another.
    pub fn conjoin(a: Option<ScalarExpr>, b: ScalarExpr) -> ScalarExpr {
        match a {
            Some(a) => a.and(b),
            None => b,
        }
    }

    /// The value of a literal leaf — `Lit` or slot `Param` alike.
    pub fn literal(&self) -> Option<&Value> {
        match self {
            ScalarExpr::Lit(v) | ScalarExpr::Param(_, v) => Some(v),
            _ => None,
        }
    }

    /// Evaluate to a [`Value`] for row `row` of `table`.
    pub fn eval(&self, table: &Table, row: RowId) -> Result<Value> {
        match self {
            ScalarExpr::Col(i) => {
                if *i >= table.num_columns() {
                    return Err(RelGoError::query(format!(
                        "column index {i} out of bounds for {}",
                        table.schema()
                    )));
                }
                Ok(table.value(row, *i))
            }
            ScalarExpr::Lit(v) | ScalarExpr::Param(_, v) => Ok(v.clone()),
            ScalarExpr::Cmp(op, l, r) => {
                let lv = l.eval(table, row)?;
                let rv = r.eval(table, row)?;
                Ok(match lv.try_cmp(&rv) {
                    Some(ord) => Value::Bool(op.test(ord)),
                    None => Value::Null,
                })
            }
            ScalarExpr::And(l, r) => {
                // SQL three-valued AND with short circuit on FALSE.
                match l.eval(table, row)? {
                    Value::Bool(false) => Ok(Value::Bool(false)),
                    lv => match (lv, r.eval(table, row)?) {
                        (Value::Bool(true), Value::Bool(b)) => Ok(Value::Bool(b)),
                        (_, Value::Bool(false)) => Ok(Value::Bool(false)),
                        _ => Ok(Value::Null),
                    },
                }
            }
            ScalarExpr::Or(l, r) => match l.eval(table, row)? {
                Value::Bool(true) => Ok(Value::Bool(true)),
                lv => match (lv, r.eval(table, row)?) {
                    (Value::Bool(false), Value::Bool(b)) => Ok(Value::Bool(b)),
                    (_, Value::Bool(true)) => Ok(Value::Bool(true)),
                    _ => Ok(Value::Null),
                },
            },
            ScalarExpr::Not(e) => Ok(match e.eval(table, row)? {
                Value::Bool(b) => Value::Bool(!b),
                _ => Value::Null,
            }),
            ScalarExpr::StartsWith(e, prefix) => Ok(match e.eval(table, row)? {
                Value::Str(s) => Value::Bool(s.starts_with(prefix.as_str())),
                Value::Null => Value::Null,
                _ => Value::Bool(false),
            }),
            ScalarExpr::Contains(e, needle) => Ok(match e.eval(table, row)? {
                Value::Str(s) => Value::Bool(s.contains(needle.as_str())),
                Value::Null => Value::Null,
                _ => Value::Bool(false),
            }),
            ScalarExpr::IsNull(e) => Ok(Value::Bool(e.eval(table, row)?.is_null())),
            ScalarExpr::InList(e, list) => {
                let v = e.eval(table, row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Bool(list.contains(&v)))
            }
        }
    }

    /// Evaluate as a filter predicate: NULL counts as FALSE (SQL WHERE).
    pub fn matches(&self, table: &Table, row: RowId) -> Result<bool> {
        Ok(matches!(self.eval(table, row)?, Value::Bool(true)))
    }

    /// Batch filter: all row ids of `table` satisfying the predicate.
    pub fn filter(&self, table: &Table) -> Result<Vec<RowId>> {
        let mut out = Vec::new();
        for r in 0..table.num_rows() as RowId {
            if self.matches(table, r)? {
                out.push(r);
            }
        }
        Ok(out)
    }

    /// Remap column references through `mapping[i] = new index of old col i`.
    pub fn remap_columns(&self, mapping: &dyn Fn(usize) -> usize) -> ScalarExpr {
        match self {
            ScalarExpr::Col(i) => ScalarExpr::Col(mapping(*i)),
            leaf @ (ScalarExpr::Lit(_) | ScalarExpr::Param(..)) => leaf.clone(),
            ScalarExpr::Cmp(op, l, r) => ScalarExpr::Cmp(
                *op,
                Box::new(l.remap_columns(mapping)),
                Box::new(r.remap_columns(mapping)),
            ),
            ScalarExpr::And(l, r) => ScalarExpr::And(
                Box::new(l.remap_columns(mapping)),
                Box::new(r.remap_columns(mapping)),
            ),
            ScalarExpr::Or(l, r) => ScalarExpr::Or(
                Box::new(l.remap_columns(mapping)),
                Box::new(r.remap_columns(mapping)),
            ),
            ScalarExpr::Not(e) => ScalarExpr::Not(Box::new(e.remap_columns(mapping))),
            ScalarExpr::StartsWith(e, p) => {
                ScalarExpr::StartsWith(Box::new(e.remap_columns(mapping)), p.clone())
            }
            ScalarExpr::Contains(e, p) => {
                ScalarExpr::Contains(Box::new(e.remap_columns(mapping)), p.clone())
            }
            ScalarExpr::IsNull(e) => ScalarExpr::IsNull(Box::new(e.remap_columns(mapping))),
            ScalarExpr::InList(e, l) => {
                ScalarExpr::InList(Box::new(e.remap_columns(mapping)), l.clone())
            }
        }
    }

    /// The set of column indices referenced by this expression.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.collect_columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            ScalarExpr::Col(i) => out.push(*i),
            ScalarExpr::Lit(_) | ScalarExpr::Param(..) => {}
            ScalarExpr::Cmp(_, l, r) | ScalarExpr::And(l, r) | ScalarExpr::Or(l, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            ScalarExpr::Not(e)
            | ScalarExpr::StartsWith(e, _)
            | ScalarExpr::Contains(e, _)
            | ScalarExpr::IsNull(e)
            | ScalarExpr::InList(e, _) => e.collect_columns(out),
        }
    }

    /// Heuristic selectivity estimate in `(0, 1]` (no data access) — the
    /// low-order-statistics path used by the graph-agnostic optimizers.
    pub fn estimated_selectivity(&self) -> f64 {
        match self {
            ScalarExpr::Col(_) | ScalarExpr::Lit(_) | ScalarExpr::Param(..) => 1.0,
            ScalarExpr::Cmp(op, _, _) => op.default_selectivity(),
            ScalarExpr::And(l, r) => {
                (l.estimated_selectivity() * r.estimated_selectivity()).max(1e-9)
            }
            ScalarExpr::Or(l, r) => {
                let (a, b) = (l.estimated_selectivity(), r.estimated_selectivity());
                (a + b - a * b).min(1.0)
            }
            ScalarExpr::Not(e) => (1.0 - e.estimated_selectivity()).max(1e-9),
            ScalarExpr::StartsWith(..) => 0.05,
            ScalarExpr::Contains(..) => 0.1,
            ScalarExpr::IsNull(_) => 0.02,
            ScalarExpr::InList(_, l) => (0.005 * l.len() as f64).min(1.0),
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Col(i) => write!(f, "${i}"),
            ScalarExpr::Lit(v) | ScalarExpr::Param(_, v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            ScalarExpr::Cmp(op, l, r) => write!(f, "{l} {op} {r}"),
            ScalarExpr::And(l, r) => write!(f, "({l} AND {r})"),
            ScalarExpr::Or(l, r) => write!(f, "({l} OR {r})"),
            ScalarExpr::Not(e) => write!(f, "NOT {e}"),
            ScalarExpr::StartsWith(e, p) => write!(f, "{e} STARTS WITH '{p}'"),
            ScalarExpr::Contains(e, p) => write!(f, "{e} CONTAINS '{p}'"),
            ScalarExpr::IsNull(e) => write!(f, "{e} IS NULL"),
            ScalarExpr::InList(e, l) => {
                write!(f, "{e} IN (")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::table_of;
    use relgo_common::DataType;

    fn t() -> Table {
        table_of(
            "t",
            &[
                ("id", DataType::Int),
                ("name", DataType::Str),
                ("score", DataType::Float),
            ],
            vec![
                vec![1.into(), "Tom".into(), 1.5.into()],
                vec![2.into(), "Bob".into(), 2.5.into()],
                vec![3.into(), Value::Null, 0.5.into()],
                vec![4.into(), "Bella".into(), 3.5.into()],
            ],
        )
    }

    #[test]
    fn comparisons() {
        let t = t();
        let e = ScalarExpr::col_eq(1, "Tom");
        assert_eq!(e.filter(&t).unwrap(), vec![0]);
        let e = ScalarExpr::col_cmp(0, BinaryOp::Gt, 2);
        assert_eq!(e.filter(&t).unwrap(), vec![2, 3]);
        let e = ScalarExpr::col_cmp(2, BinaryOp::Le, Value::Float(1.5));
        assert_eq!(e.filter(&t).unwrap(), vec![0, 2]);
    }

    #[test]
    fn null_propagates_and_where_drops_null() {
        let t = t();
        // name = 'Bob' is NULL for the row with NULL name → dropped.
        let e = ScalarExpr::col_eq(1, "Bob");
        assert_eq!(e.filter(&t).unwrap(), vec![1]);
        // NOT (name = 'Bob') also drops the NULL row.
        let e = ScalarExpr::Not(Box::new(ScalarExpr::col_eq(1, "Bob")));
        assert_eq!(e.filter(&t).unwrap(), vec![0, 3]);
        // IS NULL finds it.
        let e = ScalarExpr::IsNull(Box::new(ScalarExpr::Col(1)));
        assert_eq!(e.filter(&t).unwrap(), vec![2]);
    }

    #[test]
    fn three_valued_and_or() {
        let t = t();
        // (name = 'x') OR TRUE == TRUE even when the left side is NULL.
        let e = ScalarExpr::col_eq(1, "x").or(ScalarExpr::Lit(Value::Bool(true)));
        assert_eq!(e.filter(&t).unwrap().len(), 4);
        // (name = 'x') AND FALSE == FALSE even when the left side is NULL.
        let e = ScalarExpr::col_eq(1, "x").and(ScalarExpr::Lit(Value::Bool(false)));
        assert!(e.filter(&t).unwrap().is_empty());
    }

    #[test]
    fn string_predicates() {
        let t = t();
        let e = ScalarExpr::StartsWith(Box::new(ScalarExpr::Col(1)), "B".into());
        assert_eq!(e.filter(&t).unwrap(), vec![1, 3]);
        let e = ScalarExpr::Contains(Box::new(ScalarExpr::Col(1)), "ell".into());
        assert_eq!(e.filter(&t).unwrap(), vec![3]);
    }

    #[test]
    fn in_list() {
        let t = t();
        let e = ScalarExpr::InList(
            Box::new(ScalarExpr::Col(0)),
            vec![2.into(), 4.into(), 9.into()],
        );
        assert_eq!(e.filter(&t).unwrap(), vec![1, 3]);
    }

    #[test]
    fn out_of_bounds_column_is_error() {
        let t = t();
        let e = ScalarExpr::Col(9);
        assert!(e.eval(&t, 0).is_err());
    }

    #[test]
    fn remap_and_referenced_columns() {
        let e = ScalarExpr::col_eq(1, "x").and(ScalarExpr::col_cmp(3, BinaryOp::Lt, 5));
        assert_eq!(e.referenced_columns(), vec![1, 3]);
        let shifted = e.remap_columns(&|c| c + 10);
        assert_eq!(shifted.referenced_columns(), vec![11, 13]);
    }

    #[test]
    fn selectivity_estimates_bounded() {
        let e = ScalarExpr::col_eq(0, 1)
            .and(ScalarExpr::col_cmp(0, BinaryOp::Gt, 2))
            .or(ScalarExpr::StartsWith(
                Box::new(ScalarExpr::Col(1)),
                "B".into(),
            ));
        let s = e.estimated_selectivity();
        assert!(s > 0.0 && s <= 1.0);
    }

    #[test]
    fn display_readable() {
        let e = ScalarExpr::col_eq(1, "Tom").and(ScalarExpr::col_cmp(0, BinaryOp::Ge, 3));
        assert_eq!(e.to_string(), "($1 = 'Tom' AND $0 >= 3)");
    }
}
