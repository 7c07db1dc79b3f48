//! Parameterized query templates (the plan-cache front end).
//!
//! Production traffic is dominated by query *templates* that differ only in
//! comparison literals (`person_id = ?`, `creation_date < ?`). This module
//! gives `SpjmQuery` a parameterized view:
//!
//! * [`parameterize`] lifts comparison literals into **parameter slots** and
//!   renders the rest of the query — pattern elements renamed through
//!   [`relgo_pattern::canonical_form`] — into an isomorphism-invariant
//!   template descriptor. Together with the [`OptimizerMode`] and the
//!   parameter-slot signature this forms [`PlanKey`], under which renamed
//!   queries with different constants share one plan-cache entry. The same
//!   pass returns the *slotted* query, with slot `i` written as
//!   [`ScalarExpr::Param`]`(i, value)`.
//! * [`rebind_plan`] takes a [`PhysicalPlan`] skeleton optimized from a
//!   slotted query and substitutes fresh bindings into every predicate —
//!   pattern constraints, graph operators and relational operators alike —
//!   without re-running the optimizer; [`bind_query`] does the same to the
//!   slotted query itself.
//!
//! A literal is a parameter slot iff it is the literal side of a comparison
//! whose other side is a non-literal expression (`col = lit`, `lit < expr`).
//! Everything else — `IN`-list members, `STARTS WITH` prefixes, standalone
//! boolean literals — is part of the template structure. `parameterize` is
//! the only code that applies this rule. Binding afterwards is positional —
//! `Param(i, _)` becomes `Param(i, new[i])` — so it cannot be ambiguous when
//! two slots share a value, and cannot fail for a binding vector of the
//! template's arity.

use crate::optimizer::OptimizerMode;
use crate::rel_plan::{PhysicalPlan, RelOp};
use crate::spjm::{AttrRef, PatternElemRef, SpjmQuery};
use relgo_common::fxhash::{combine, hash_u64, FxHasher};
use relgo_common::{RelGoError, Result, Value};
use relgo_storage::ScalarExpr;
use std::fmt::Write as _;
use std::hash::Hasher as _;

/// The parameterized view of one query instance: the template descriptor
/// (shape), the canonical pattern fingerprint, and the literal bindings.
#[derive(Debug, Clone)]
pub struct ParamQuery {
    /// Isomorphism-invariant pattern fingerprint (via `canonical_form`).
    pub canon_fingerprint: u64,
    /// The full template descriptor: every structural aspect of the query
    /// with parameter slots rendered as `?N`. Compared verbatim on cache
    /// hits, so hash collisions cannot alias distinct templates.
    pub shape: String,
    /// Literal bindings, in slot order.
    pub params: Vec<Value>,
    /// One variant tag per slot (`i`/`f`/`s`/`b`/`d`/`n`).
    pub slot_sig: String,
    /// The query with slot `i` written as `ScalarExpr::Param(i, params[i])`.
    /// Plans optimized from it rebind positionally.
    pub query: SpjmQuery,
}

impl ParamQuery {
    /// The cache key of this instance under `mode` (bindings excluded).
    pub fn key(&self, mode: OptimizerMode) -> PlanKey {
        PlanKey {
            mode,
            canon_fingerprint: self.canon_fingerprint,
            shape: self.shape.clone(),
            slot_sig: self.slot_sig.clone(),
        }
    }
}

/// A plan-cache key: `(mode, canonical pattern fingerprint, relational
/// shape, parameter-slot signature)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The optimizer that produced (or would produce) the plan.
    pub mode: OptimizerMode,
    /// Isomorphism-invariant pattern fingerprint.
    pub canon_fingerprint: u64,
    /// The template descriptor (see [`ParamQuery::shape`]).
    pub shape: String,
    /// Parameter-slot signature.
    pub slot_sig: String,
}

impl PlanKey {
    /// A stable 64-bit hash (shard selection).
    pub fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(self.canon_fingerprint);
        h.write(self.shape.as_bytes());
        h.write(self.slot_sig.as_bytes());
        combine(hash_u64(self.mode as u64), h.finish())
    }
}

/// The one-character signature tag of a slot value (`i`/`f`/`s`/`b`/`d`/`n`).
pub fn slot_tag(v: &Value) -> char {
    match v {
        Value::Null => 'n',
        Value::Int(_) => 'i',
        Value::Float(_) => 'f',
        Value::Str(_) => 's',
        Value::Bool(_) => 'b',
        Value::Date(_) => 'd',
    }
}

/// The slot signature of a binding vector (one tag per value, in order).
pub fn binding_signature(values: &[Value]) -> String {
    values.iter().map(slot_tag).collect()
}

/// Validate a fresh binding vector against a template's slot signature:
/// the arity and every per-slot type tag must match. This is the only
/// front-end check a prepared statement performs — no parse, no
/// re-parameterization.
pub fn validate_bindings(slot_sig: &str, bindings: &[Value]) -> Result<()> {
    if slot_sig.len() != bindings.len() {
        return Err(RelGoError::query(format!(
            "binding arity mismatch: template has {} slot(s), got {} binding(s)",
            slot_sig.len(),
            bindings.len()
        )));
    }
    for (i, (expected, v)) in slot_sig.chars().zip(bindings).enumerate() {
        let got = slot_tag(v);
        if got != expected {
            return Err(RelGoError::query(format!(
                "binding type mismatch at slot {i}: template expects '{expected}', got '{got}' ({v})"
            )));
        }
    }
    Ok(())
}

/// Render a structural string into the shape with Rust-style escaping —
/// free-form text must not be able to forge the descriptor's delimiters
/// (two distinct templates rendering one shape would alias cache entries).
fn render_str(out: &mut String, s: &str) {
    let _ = write!(out, "{s:?}");
}

/// Render a structural literal type-injectively: `Value`'s `Display` prints
/// `Int(1)` and `Float(1.0)` identically, so each variant gets its tag
/// prefix — otherwise two differently-typed templates could share a shape.
fn render_value(out: &mut String, v: &Value) {
    match v {
        Value::Str(s) => render_str(out, s),
        other => {
            let _ = write!(out, "{}{}", slot_tag(other), other);
        }
    }
}

/// Render `expr` into `out` with parameter-position literals printed as
/// `?N` and lifted into `params`. Returns `expr` with slot `N` written as
/// `Param(N, value)` and every other literal as a plain `Lit`.
fn render_template(expr: &ScalarExpr, out: &mut String, params: &mut Vec<Value>) -> ScalarExpr {
    match expr {
        ScalarExpr::Col(i) => {
            let _ = write!(out, "${i}");
            ScalarExpr::Col(*i)
        }
        ScalarExpr::Lit(v) | ScalarExpr::Param(_, v) => {
            render_value(out, v);
            ScalarExpr::Lit(v.clone())
        }
        ScalarExpr::Cmp(op, l, r) => {
            // The slot rule: a literal is a slot iff the other side of its
            // comparison is not a literal.
            let slotted = l.literal().is_some() != r.literal().is_some();
            let l = render_side(l, slotted, out, params);
            let _ = write!(out, " {op} ");
            let r = render_side(r, slotted, out, params);
            ScalarExpr::Cmp(*op, Box::new(l), Box::new(r))
        }
        ScalarExpr::And(l, r) => {
            out.push('(');
            let l = render_template(l, out, params);
            out.push_str(" AND ");
            let r = render_template(r, out, params);
            out.push(')');
            l.and(r)
        }
        ScalarExpr::Or(l, r) => {
            out.push('(');
            let l = render_template(l, out, params);
            out.push_str(" OR ");
            let r = render_template(r, out, params);
            out.push(')');
            l.or(r)
        }
        ScalarExpr::Not(e) => {
            out.push_str("NOT ");
            ScalarExpr::Not(Box::new(render_template(e, out, params)))
        }
        ScalarExpr::StartsWith(e, p) => {
            let e = render_template(e, out, params);
            out.push_str(" STARTS WITH ");
            render_str(out, p);
            ScalarExpr::StartsWith(Box::new(e), p.clone())
        }
        ScalarExpr::Contains(e, p) => {
            let e = render_template(e, out, params);
            out.push_str(" CONTAINS ");
            render_str(out, p);
            ScalarExpr::Contains(Box::new(e), p.clone())
        }
        ScalarExpr::IsNull(e) => {
            let e = render_template(e, out, params);
            out.push_str(" IS NULL");
            ScalarExpr::IsNull(Box::new(e))
        }
        ScalarExpr::InList(e, list) => {
            let e = render_template(e, out, params);
            out.push_str(" IN (");
            for (i, v) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_value(out, v);
            }
            out.push(')');
            ScalarExpr::InList(Box::new(e), list.clone())
        }
    }
}

/// One side of a comparison: the next slot when `slotted` and `side` is the
/// literal, otherwise rendered structurally.
fn render_side(
    side: &ScalarExpr,
    slotted: bool,
    out: &mut String,
    params: &mut Vec<Value>,
) -> ScalarExpr {
    match side.literal() {
        Some(v) if slotted => {
            let slot = params.len();
            let _ = write!(out, "?{slot}");
            params.push(v.clone());
            ScalarExpr::Param(slot, v.clone())
        }
        _ => render_template(side, out, params),
    }
}

/// Compute the parameterized view of `query`.
///
/// Slot order is deterministic: the relational selection first (expression
/// tree order), then pattern vertex predicates in canonical vertex order,
/// then pattern edge predicates in canonical edge order — so two isomorphic
/// instances of one template produce positionally aligned bindings.
pub fn parameterize(query: &SpjmQuery) -> ParamQuery {
    let form = relgo_pattern::canonical_form(&query.pattern);
    let mut shape = String::with_capacity(256);
    let mut params = Vec::new();

    let _ = write!(shape, "sem:{:?};", query.pattern.semantics());

    // COLUMNS in list order, elements renamed canonically. List order is
    // semantic (it fixes the global column numbering), so it stays as-is.
    shape.push_str("cols:");
    for c in &query.columns {
        match c.element {
            PatternElemRef::Vertex(v) => {
                let _ = write!(shape, "v{}", form.vertex_perm[v]);
            }
            PatternElemRef::Edge(e) => {
                let _ = write!(shape, "e{}", form.edge_perm[e]);
            }
        }
        match c.attr {
            AttrRef::Id => shape.push_str(".id"),
            AttrRef::Column(i) => {
                let _ = write!(shape, ".{i}");
            }
        }
        shape.push_str(" AS ");
        render_str(&mut shape, &c.alias);
        shape.push(';');
    }

    let _ = write!(shape, "tables:{:?};", query.tables);
    let _ = write!(shape, "join:{:?};", query.join_on);

    shape.push_str("sel:");
    let selection = query
        .selection
        .as_ref()
        .map(|sel| render_template(sel, &mut shape, &mut params));
    shape.push(';');

    // Pattern predicates in canonical element order (the slot order), kept
    // by element index for `map_predicates` (vertices, then edges).
    let mut vpreds: Vec<Option<ScalarExpr>> = vec![None; query.pattern.vertex_count()];
    let mut by_canon: Vec<(usize, usize)> = (0..query.pattern.vertex_count())
        .map(|v| (form.vertex_perm[v], v))
        .collect();
    by_canon.sort_unstable();
    shape.push_str("vpred:");
    for &(canon, old) in &by_canon {
        if let Some(p) = &query.pattern.vertex(old).predicate {
            let _ = write!(shape, "v{canon}[");
            vpreds[old] = Some(render_template(p, &mut shape, &mut params));
            shape.push_str("];");
        }
    }
    let mut epreds: Vec<Option<ScalarExpr>> = vec![None; query.pattern.edge_count()];
    let mut edges_by_canon: Vec<(usize, usize)> = (0..query.pattern.edge_count())
        .map(|e| (form.edge_perm[e], e))
        .collect();
    edges_by_canon.sort_unstable();
    shape.push_str("epred:");
    for &(canon, old) in &edges_by_canon {
        if let Some(p) = &query.pattern.edge(old).predicate {
            let _ = write!(shape, "e{canon}[");
            epreds[old] = Some(render_template(p, &mut shape, &mut params));
            shape.push_str("];");
        }
    }
    let mut slotted = vpreds.into_iter().chain(epreds).flatten();
    let pattern = query
        .pattern
        .map_predicates(&mut |_| slotted.next().expect("one slotted predicate per site"));

    let _ = write!(shape, "proj:{:?};", query.projection);
    shape.push_str("agg:");
    for a in &query.aggregates {
        let _ = write!(shape, "{:?}(${});", a.func, a.column);
    }
    let _ = write!(shape, "distinct:{};", query.distinct);
    shape.push_str("order:");
    for k in &query.order_by {
        let _ = write!(
            shape,
            "{}{};",
            k.column,
            if k.descending { "d" } else { "a" }
        );
    }
    let _ = write!(shape, "limit:{:?}", query.limit);

    ParamQuery {
        canon_fingerprint: form.code.fingerprint(),
        shape,
        slot_sig: binding_signature(&params),
        params,
        query: SpjmQuery {
            pattern,
            selection,
            columns: query.columns.clone(),
            tables: query.tables.clone(),
            join_on: query.join_on.clone(),
            projection: query.projection.clone(),
            aggregates: query.aggregates.clone(),
            distinct: query.distinct,
            order_by: query.order_by.clone(),
            limit: query.limit,
        },
    }
}

/// Rewrite every slot of `expr` to `Param(i, bind(i, value))`. Everything
/// else, plain literals included, is copied: which literals are slots was
/// decided once, by [`parameterize`].
fn bind_expr(expr: &ScalarExpr, bind: &mut dyn FnMut(usize, &Value) -> Value) -> ScalarExpr {
    let mut go = |e: &ScalarExpr| Box::new(bind_expr(e, bind));
    match expr {
        ScalarExpr::Param(i, v) => ScalarExpr::Param(*i, bind(*i, v)),
        ScalarExpr::Cmp(op, l, r) => ScalarExpr::Cmp(*op, go(l), go(r)),
        ScalarExpr::And(l, r) => ScalarExpr::And(go(l), go(r)),
        ScalarExpr::Or(l, r) => ScalarExpr::Or(go(l), go(r)),
        ScalarExpr::Not(e) => ScalarExpr::Not(go(e)),
        ScalarExpr::StartsWith(e, p) => ScalarExpr::StartsWith(go(e), p.clone()),
        ScalarExpr::Contains(e, p) => ScalarExpr::Contains(go(e), p.clone()),
        ScalarExpr::IsNull(e) => ScalarExpr::IsNull(go(e)),
        ScalarExpr::InList(e, list) => ScalarExpr::InList(go(e), list.clone()),
        leaf @ (ScalarExpr::Col(_) | ScalarExpr::Lit(_)) => leaf.clone(),
    }
}

fn rebind_opt(
    p: &Option<ScalarExpr>,
    bind: &mut dyn FnMut(usize, &Value) -> Value,
) -> Option<ScalarExpr> {
    p.as_ref().map(|e| bind_expr(e, bind))
}

fn rebind_graph_op(
    op: &crate::graph_plan::GraphOp,
    bind: &mut dyn FnMut(usize, &Value) -> Value,
) -> crate::graph_plan::GraphOp {
    use crate::graph_plan::GraphOp;
    match op {
        GraphOp::ScanVertex { v, predicate, ann } => GraphOp::ScanVertex {
            v: *v,
            predicate: rebind_opt(predicate, bind),
            ann: *ann,
        },
        GraphOp::ScanEdge { e, predicate, ann } => GraphOp::ScanEdge {
            e: *e,
            predicate: rebind_opt(predicate, bind),
            ann: *ann,
        },
        GraphOp::Expand {
            input,
            from,
            edge,
            to,
            dir,
            emit_edge,
            edge_predicate,
            vertex_predicate,
            ann,
        } => GraphOp::Expand {
            input: Box::new(rebind_graph_op(input, bind)),
            from: *from,
            edge: *edge,
            to: *to,
            dir: *dir,
            emit_edge: *emit_edge,
            edge_predicate: rebind_opt(edge_predicate, bind),
            vertex_predicate: rebind_opt(vertex_predicate, bind),
            ann: *ann,
        },
        GraphOp::ExpandIntersect {
            input,
            legs,
            to,
            emit_edges,
            vertex_predicate,
            ann,
        } => GraphOp::ExpandIntersect {
            input: Box::new(rebind_graph_op(input, bind)),
            legs: legs.clone(),
            to: *to,
            emit_edges: *emit_edges,
            vertex_predicate: rebind_opt(vertex_predicate, bind),
            ann: *ann,
        },
        GraphOp::JoinSub {
            left,
            right,
            on_vertices,
            on_edges,
            ann,
        } => GraphOp::JoinSub {
            left: Box::new(rebind_graph_op(left, bind)),
            right: Box::new(rebind_graph_op(right, bind)),
            on_vertices: on_vertices.clone(),
            on_edges: on_edges.clone(),
            ann: *ann,
        },
        GraphOp::FilterVertex {
            input,
            v,
            predicate,
            ann,
        } => GraphOp::FilterVertex {
            input: Box::new(rebind_graph_op(input, bind)),
            v: *v,
            predicate: bind_expr(predicate, bind),
            ann: *ann,
        },
    }
}

fn rebind_rel_op(op: &RelOp, bind: &mut dyn FnMut(usize, &Value) -> Value) -> RelOp {
    match op {
        RelOp::ScanGraphTable { graph, columns } => RelOp::ScanGraphTable {
            graph: rebind_graph_op(graph, bind),
            columns: columns.clone(),
        },
        RelOp::ScanTable { table, predicate } => RelOp::ScanTable {
            table: table.clone(),
            predicate: rebind_opt(predicate, bind),
        },
        RelOp::HashJoin { left, right, keys } => RelOp::HashJoin {
            left: Box::new(rebind_rel_op(left, bind)),
            right: Box::new(rebind_rel_op(right, bind)),
            keys: keys.clone(),
        },
        RelOp::Filter { input, predicate } => RelOp::Filter {
            input: Box::new(rebind_rel_op(input, bind)),
            predicate: bind_expr(predicate, bind),
        },
        RelOp::Project { input, cols } => RelOp::Project {
            input: Box::new(rebind_rel_op(input, bind)),
            cols: cols.clone(),
        },
        RelOp::Aggregate { input, aggs } => RelOp::Aggregate {
            input: Box::new(rebind_rel_op(input, bind)),
            aggs: aggs.clone(),
        },
        RelOp::Distinct { input } => RelOp::Distinct {
            input: Box::new(rebind_rel_op(input, bind)),
        },
        RelOp::Sort { input, keys } => RelOp::Sort {
            input: Box::new(rebind_rel_op(input, bind)),
            keys: keys.clone(),
        },
        RelOp::Limit { input, n } => RelOp::Limit {
            input: Box::new(rebind_rel_op(input, bind)),
            n: *n,
        },
    }
}

/// Substitute fresh literal bindings into a plan skeleton optimized from a
/// slotted query (every plan a `Session` produces): slot `i` takes `new[i]`
/// at every predicate site — the plan's pattern constraints, the graph
/// operators inside `SCAN_GRAPH_TABLE`, and the relational operators.
/// `old` are the bindings the plan was optimized with (stored alongside
/// the cache entry). Errors only when `old` and `new` differ in arity.
pub fn rebind_plan(plan: &PhysicalPlan, old: &[Value], new: &[Value]) -> Result<PhysicalPlan> {
    if old == new {
        return Ok(plan.clone());
    }
    if old.len() != new.len() {
        return Err(RelGoError::plan(format!(
            "rebind arity mismatch: {} cached slots, {} bindings",
            old.len(),
            new.len()
        )));
    }
    let mut bind = |i: usize, _: &Value| new[i].clone();
    let pattern = plan
        .pattern
        .map_predicates(&mut |e: &ScalarExpr| bind_expr(e, &mut bind));
    let root = rebind_rel_op(&plan.root, &mut bind);
    Ok(PhysicalPlan { pattern, root })
}

/// Substitute fresh literal bindings into a slotted query
/// ([`ParamQuery::query`]): slot `i` takes `new[i]`. Prepared statements
/// use it to re-optimize an instance when their pinned plan is stale.
/// Errors unless `new` has exactly one value per slot (a query without
/// slots has none).
pub fn bind_query(query: &SpjmQuery, new: &[Value]) -> Result<SpjmQuery> {
    let mut slots = 0usize;
    let mut bind = |i: usize, v: &Value| {
        slots = slots.max(i + 1);
        new.get(i).unwrap_or(v).clone()
    };
    let selection = query.selection.as_ref().map(|e| bind_expr(e, &mut bind));
    let pattern = query
        .pattern
        .map_predicates(&mut |e: &ScalarExpr| bind_expr(e, &mut bind));
    if slots != new.len() {
        return Err(RelGoError::query(format!(
            "bind_query arity mismatch: template has {slots} slot(s), got {} binding(s)",
            new.len()
        )));
    }
    Ok(SpjmQuery {
        pattern,
        selection,
        ..query.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spjm::SpjmBuilder;
    use relgo_common::LabelId;
    use relgo_pattern::PatternBuilder;
    use relgo_storage::BinaryOp;

    /// A two-vertex likes pattern, optionally built with swapped vertex
    /// insertion order (an isomorphic renaming).
    fn query(person: i64, date: i64, swapped: bool) -> SpjmQuery {
        let mut pb = PatternBuilder::new();
        let (p, m) = if swapped {
            let m = pb.vertex("m", LabelId(1));
            let p = pb.vertex("p", LabelId(0));
            (p, m)
        } else {
            let p = pb.vertex("p", LabelId(0));
            let m = pb.vertex("m", LabelId(1));
            (p, m)
        };
        pb.edge(p, m, LabelId(0)).unwrap();
        let pattern = pb.build().unwrap();
        let mut b = SpjmBuilder::new(pattern);
        let pid = b.vertex_column(p, 0, "p_id");
        let mdate = b.vertex_column(m, 2, "m_date");
        b.select(ScalarExpr::col_eq(pid, person).and(ScalarExpr::col_cmp(
            mdate,
            BinaryOp::Lt,
            Value::Date(date),
        )));
        b.project(&[mdate]);
        b.build()
    }

    #[test]
    fn literals_become_slots() {
        let pq = parameterize(&query(5, 100, false));
        assert_eq!(pq.params, vec![Value::Int(5), Value::Date(100)]);
        assert_eq!(pq.slot_sig, "id");
        assert!(pq.shape.contains("?0"), "{}", pq.shape);
        assert!(pq.shape.contains("?1"), "{}", pq.shape);
        assert!(!pq.shape.contains("100"), "literal leaked: {}", pq.shape);
    }

    #[test]
    fn instances_share_shape_different_params() {
        let a = parameterize(&query(5, 100, false));
        let b = parameterize(&query(9, 777, false));
        assert_eq!(a.shape, b.shape);
        assert_eq!(a.canon_fingerprint, b.canon_fingerprint);
        assert_eq!(a.slot_sig, b.slot_sig);
        assert_ne!(a.params, b.params);
        assert_eq!(
            a.key(OptimizerMode::RelGo),
            b.key(OptimizerMode::RelGo),
            "same template, same key"
        );
        assert_ne!(
            a.key(OptimizerMode::RelGo),
            a.key(OptimizerMode::DuckDbLike),
            "mode is part of the key"
        );
    }

    #[test]
    fn renamed_isomorphic_query_shares_fingerprint() {
        let a = parameterize(&query(5, 100, false));
        let b = parameterize(&query(6, 200, true));
        assert_eq!(a.canon_fingerprint, b.canon_fingerprint);
        assert_eq!(a.shape, b.shape, "renaming normalizes away");
    }

    #[test]
    fn structural_literals_stay_in_shape() {
        let mut pb = PatternBuilder::new();
        let p = pb.vertex("p", LabelId(0));
        let m = pb.vertex("m", LabelId(1));
        pb.edge(p, m, LabelId(0)).unwrap();
        let mut b = SpjmBuilder::new(pb.build().unwrap());
        let pid = b.vertex_column(p, 0, "p_id");
        b.select(ScalarExpr::InList(
            Box::new(ScalarExpr::Col(pid)),
            vec![Value::Int(1), Value::Int(2)],
        ));
        let q = b.build();
        let pq = parameterize(&q);
        assert!(pq.params.is_empty(), "IN-list members are structural");
        assert!(pq.shape.contains("IN (i1, i2)"), "{}", pq.shape);
    }

    #[test]
    fn forged_delimiters_cannot_alias_shapes() {
        // A structural string containing the rendered delimiter sequence
        // must not collapse two distinct predicates into one shape.
        let mk = |expr: ScalarExpr| {
            let mut pb = PatternBuilder::new();
            let p = pb.vertex("p", LabelId(0));
            let m = pb.vertex("m", LabelId(1));
            pb.edge(p, m, LabelId(0)).unwrap();
            let mut b = SpjmBuilder::new(pb.build().unwrap());
            let c = b.vertex_column(p, 1, "p_name");
            let _ = c;
            b.select(expr);
            b.build()
        };
        let nested = mk(ScalarExpr::Contains(
            Box::new(ScalarExpr::Contains(
                Box::new(ScalarExpr::Col(0)),
                "a".into(),
            )),
            "b".into(),
        ));
        let forged = mk(ScalarExpr::Contains(
            Box::new(ScalarExpr::Col(0)),
            "a\" CONTAINS \"b".into(),
        ));
        assert_ne!(parameterize(&nested).shape, parameterize(&forged).shape);
    }

    #[test]
    fn validate_bindings_checks_arity_and_tags() {
        assert!(validate_bindings("id", &[Value::Int(1), Value::Date(2)]).is_ok());
        assert!(validate_bindings("id", &[Value::Int(1)]).is_err(), "arity");
        assert!(
            validate_bindings("id", &[Value::Date(2), Value::Int(1)]).is_err(),
            "tag order"
        );
        assert!(validate_bindings("", &[]).is_ok());
        assert_eq!(
            binding_signature(&[Value::str("x"), Value::Bool(true)]),
            "sb"
        );
    }

    #[test]
    fn bind_query_substitutes_and_reparameterizes_identically() {
        let q1 = parameterize(&query(5, 100, false)).query;
        let pq1 = parameterize(&q1);
        let q2 = bind_query(&q1, &[Value::Int(9), Value::Date(777)]).unwrap();
        let pq2 = parameterize(&q2);
        assert_eq!(pq1.shape, pq2.shape, "binding never changes the template");
        assert_eq!(pq2.params, vec![Value::Int(9), Value::Date(777)]);
        // Mirrors building the instance directly.
        let direct = parameterize(&query(9, 777, false));
        assert_eq!(pq2.shape, direct.shape);
        assert_eq!(pq2.params, direct.params);
        // Arity mismatches error.
        assert!(bind_query(&q1, &[Value::Int(9)]).is_err());
        assert!(bind_query(&q1, &[Value::Int(9), Value::Date(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn bind_query_is_positional_never_ambiguous() {
        // Both slots share the value 5 in the source instance; positional
        // binding still lands each new value in its own slot.
        let mut pb = PatternBuilder::new();
        let p = pb.vertex("p", LabelId(0));
        let m = pb.vertex("m", LabelId(1));
        pb.edge(p, m, LabelId(0)).unwrap();
        let mut b = SpjmBuilder::new(pb.build().unwrap());
        let pid = b.vertex_column(p, 0, "p_id");
        let mdate = b.vertex_column(m, 2, "m_date");
        b.select(ScalarExpr::col_eq(pid, 5i64).and(ScalarExpr::col_cmp(
            mdate,
            BinaryOp::Gt,
            Value::Int(5),
        )));
        b.project(&[mdate]);
        let q = parameterize(&b.build()).query;
        assert_eq!(
            parameterize(&q).params,
            vec![Value::Int(5), Value::Int(5)],
            "colliding source slots"
        );
        let bound = bind_query(&q, &[Value::Int(7), Value::Int(9)]).unwrap();
        assert_eq!(
            parameterize(&bound).params,
            vec![Value::Int(7), Value::Int(9)]
        );
        // Pattern-predicate slots bind positionally too.
        let pq = parameterize(&q);
        let rebound = bind_query(&bound, &pq.params).unwrap();
        assert_eq!(parameterize(&rebound).params, pq.params, "round trip");
    }

    #[test]
    fn rebind_expr_substitutes_param_positions_only() {
        let slot = ScalarExpr::Cmp(
            BinaryOp::Eq,
            Box::new(ScalarExpr::Col(0)),
            Box::new(ScalarExpr::Param(0, Value::Int(5))),
        );
        let e = slot.and(ScalarExpr::InList(
            Box::new(ScalarExpr::Col(1)),
            vec![Value::Int(5)],
        ));
        let new = [Value::Int(42)];
        let rebound = bind_expr(&e, &mut |i, _| new[i].clone());
        let s = rebound.to_string();
        assert!(s.contains("$0 = 42"), "{s}");
        assert!(s.contains("IN (5)"), "IN-list untouched: {s}");
    }

    #[test]
    fn parameterize_is_idempotent_on_the_slotted_query() {
        let mut q = query(5, 100, true);
        q.pattern
            .add_vertex_predicate(1, ScalarExpr::col_eq(1, "Tom"));
        q.pattern
            .add_edge_predicate(0, ScalarExpr::col_cmp(0, BinaryOp::Gt, 7i64));
        let pq = parameterize(&q);
        assert_eq!(pq.params.len(), 4, "{:?}", pq.params);
        assert!(
            format!("{:?}", pq.query.selection).contains("Param(0, Int(5))"),
            "slot 0 is written into the query: {:?}",
            pq.query.selection
        );
        let again = parameterize(&pq.query);
        assert_eq!(again.shape, pq.shape);
        assert_eq!(again.params, pq.params);
    }
}
