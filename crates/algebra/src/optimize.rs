//! Rule-based plan optimization.
//!
//! The paper's §4 notes that an algebra "basically relying on a unique
//! operator [the join family] give[s] rise to simplifying the cost
//! estimation model" and leaves cost-based optimization to further
//! research. This module supplies the standard *safe* algebraic rewrites a
//! production engine would apply after translation:
//!
//! * **selection pushdown** through projections (with column remapping),
//!   products/joins (splitting conjunctions by the side they reference),
//!   unions, and the preserved side of semi-/complement-joins;
//! * **selection fusion** (`σ[a](σ[b](e)) → σ[a∧b](e)`);
//! * **product-to-join conversion** when a selection over a product
//!   compares columns across the two sides (undoing the classical
//!   translation's worst habit);
//! * **projection fusion** (`π[p](π[q](e)) → π[q∘p](e)`).
//!
//! Every rewrite preserves the result exactly (set semantics); the
//! property tests below check optimized and original plans against each
//! other on random inputs, and the `plan_optimizer` bench measures the
//! effect (notably on classical plans, where pushdown recovers some of
//! the product blow-up).

use crate::{AlgebraExpr, BoolExpr, Operand, Predicate};

/// Optimize a plan by applying the safe rewrites to a fixpoint.
pub fn optimize(expr: &AlgebraExpr) -> AlgebraExpr {
    let mut current = expr.clone();
    // The rewrites strictly reduce a (selection-height, node-count)-ish
    // measure; a generous bound keeps any unforeseen ping-pong finite.
    for _ in 0..(expr.node_count() * 4 + 16) {
        let mut changed = false;
        current = pass(current, &mut changed);
        if !changed {
            break;
        }
    }
    current
}

/// [`optimize`] every algebra expression inside a boolean plan.
pub fn optimize_bool(plan: &BoolExpr) -> BoolExpr {
    match plan {
        BoolExpr::NonEmpty(e) => BoolExpr::NonEmpty(optimize(e)),
        BoolExpr::Empty(e) => BoolExpr::Empty(optimize(e)),
        BoolExpr::And(a, b) => BoolExpr::and(optimize_bool(a), optimize_bool(b)),
        BoolExpr::Or(a, b) => BoolExpr::or(optimize_bool(a), optimize_bool(b)),
        BoolExpr::Not(a) => BoolExpr::not(optimize_bool(a)),
        BoolExpr::Const(b) => BoolExpr::Const(*b),
    }
}

/// One top-down rewriting pass. The plan is taken by value, so a node no
/// rule applies to is moved into the result, never cloned; `changed` is
/// set when any rule fired.
fn pass(e: AlgebraExpr, changed: &mut bool) -> AlgebraExpr {
    let e = match rewrite_node(&e) {
        Some(rewritten) => {
            *changed = true;
            rewritten
        }
        None => e,
    };
    let mut down = |child: Box<AlgebraExpr>| Box::new(pass(*child, changed));
    match e {
        AlgebraExpr::Relation(_) | AlgebraExpr::Literal(_) => e,
        AlgebraExpr::Select { input, predicate } => AlgebraExpr::Select {
            input: down(input),
            predicate,
        },
        AlgebraExpr::GroupCount { input, group } => AlgebraExpr::GroupCount {
            input: down(input),
            group,
        },
        AlgebraExpr::Project { input, positions } => AlgebraExpr::Project {
            input: down(input),
            positions,
        },
        AlgebraExpr::Product { left, right } => AlgebraExpr::Product {
            left: down(left),
            right: down(right),
        },
        AlgebraExpr::Join { left, right, on } => AlgebraExpr::Join {
            left: down(left),
            right: down(right),
            on,
        },
        AlgebraExpr::SemiJoin { left, right, on } => AlgebraExpr::SemiJoin {
            left: down(left),
            right: down(right),
            on,
        },
        AlgebraExpr::ComplementJoin { left, right, on } => AlgebraExpr::ComplementJoin {
            left: down(left),
            right: down(right),
            on,
        },
        AlgebraExpr::Division { left, right, on } => AlgebraExpr::Division {
            left: down(left),
            right: down(right),
            on,
        },
        AlgebraExpr::Union { left, right } => AlgebraExpr::Union {
            left: down(left),
            right: down(right),
        },
        AlgebraExpr::Difference { left, right } => AlgebraExpr::Difference {
            left: down(left),
            right: down(right),
        },
        AlgebraExpr::LeftOuterJoin { left, right, on } => AlgebraExpr::LeftOuterJoin {
            left: down(left),
            right: down(right),
            on,
        },
        AlgebraExpr::ConstrainedOuterJoin {
            left,
            right,
            on,
            constraint,
        } => AlgebraExpr::ConstrainedOuterJoin {
            left: down(left),
            right: down(right),
            on,
            constraint,
        },
    }
}

/// The rewrite that applies at a single node; `None` when no rule does.
fn rewrite_node(e: &AlgebraExpr) -> Option<AlgebraExpr> {
    let AlgebraExpr::Select { input, predicate } = e else {
        return fuse_projections(e);
    };
    Some(match &**input {
        // σ[a](σ[b](e)) → σ[a ∧ b](e)
        AlgebraExpr::Select {
            input: inner,
            predicate: inner_pred,
        } => AlgebraExpr::Select {
            input: inner.clone(),
            predicate: Predicate::And(Box::new(inner_pred.clone()), Box::new(predicate.clone())),
        },
        // σ[p](π[cols](e)) → π[cols](σ[p′](e)) with columns remapped
        AlgebraExpr::Project {
            input: inner,
            positions,
        } => AlgebraExpr::Project {
            input: Box::new(AlgebraExpr::Select {
                input: inner.clone(),
                predicate: remap_predicate(predicate, positions)?,
            }),
            positions: positions.clone(),
        },
        // σ over × or ⋈: split the conjunction by side; turn cross-side
        // equalities over a product into join conditions.
        AlgebraExpr::Product { left, right } => push_into_binary(predicate, left, right, None)?,
        AlgebraExpr::Join { left, right, on } => {
            push_into_binary(predicate, left, right, Some(on))?
        }
        // σ over ∪: distribute (both sides have the same columns).
        AlgebraExpr::Union { left, right } => AlgebraExpr::Union {
            left: Box::new(AlgebraExpr::Select {
                input: left.clone(),
                predicate: predicate.clone(),
            }),
            right: Box::new(AlgebraExpr::Select {
                input: right.clone(),
                predicate: predicate.clone(),
            }),
        },
        // σ over the preserved side of ⋉ / ⊼ / − (output columns are the
        // left input's columns, so the predicate commutes with the join).
        AlgebraExpr::SemiJoin { left, right, on } => AlgebraExpr::SemiJoin {
            left: Box::new(AlgebraExpr::Select {
                input: left.clone(),
                predicate: predicate.clone(),
            }),
            right: right.clone(),
            on: on.clone(),
        },
        AlgebraExpr::ComplementJoin { left, right, on } => AlgebraExpr::ComplementJoin {
            left: Box::new(AlgebraExpr::Select {
                input: left.clone(),
                predicate: predicate.clone(),
            }),
            right: right.clone(),
            on: on.clone(),
        },
        AlgebraExpr::Difference { left, right } => AlgebraExpr::Difference {
            left: Box::new(AlgebraExpr::Select {
                input: left.clone(),
                predicate: predicate.clone(),
            }),
            right: Box::new(AlgebraExpr::Select {
                input: right.clone(),
                predicate: predicate.clone(),
            }),
        },
        _ => return None,
    })
}

/// π[p](π[q](e)) → π[q[p]](e).
fn fuse_projections(e: &AlgebraExpr) -> Option<AlgebraExpr> {
    let AlgebraExpr::Project { input, positions } = e else {
        return None;
    };
    let AlgebraExpr::Project {
        input: inner,
        positions: inner_pos,
    } = &**input
    else {
        return None;
    };
    Some(AlgebraExpr::Project {
        input: inner.clone(),
        positions: positions.iter().map(|&p| inner_pos[p]).collect(),
    })
}

/// Split the conjuncts of `predicate` over the children of a product/join:
/// left-only conjuncts go below left, right-only below right (with column
/// shift), cross-side *equalities over a product* become join conditions,
/// anything else stays above. `None` when nothing moves.
fn push_into_binary(
    predicate: &Predicate,
    left: &AlgebraExpr,
    right: &AlgebraExpr,
    join_on: Option<&Vec<(usize, usize)>>,
) -> Option<AlgebraExpr> {
    let left_arity = static_arity(left)?;
    let mut left_preds = Vec::new();
    let mut right_preds = Vec::new();
    let mut new_on: Vec<(usize, usize)> = Vec::new();
    let mut keep = Vec::new();
    for c in split_conjuncts(predicate) {
        match side_of(&c, left_arity) {
            Side::Left => left_preds.push(c),
            Side::Right => right_preds.push(shift_predicate(&c, left_arity)),
            Side::Cross => {
                // A cross equality over a *product* becomes a join key.
                if join_on.is_none() {
                    if let Predicate::Cmp {
                        left: Operand::Col(a),
                        op: gq_calculus::CompareOp::Eq,
                        right: Operand::Col(b),
                    } = c
                    {
                        let (l, r) = if a < left_arity { (a, b) } else { (b, a) };
                        if l < left_arity && r >= left_arity {
                            new_on.push((l, r - left_arity));
                            continue;
                        }
                    }
                }
                keep.push(c);
            }
        }
    }
    if left_preds.is_empty() && right_preds.is_empty() && new_on.is_empty() {
        return None;
    }
    let wrap = |child: &AlgebraExpr, preds: Vec<Predicate>| -> AlgebraExpr {
        if preds.is_empty() {
            child.clone()
        } else {
            AlgebraExpr::Select {
                input: Box::new(child.clone()),
                predicate: Predicate::and_all(preds),
            }
        }
    };
    let new_left = wrap(left, left_preds);
    let new_right = wrap(right, right_preds);
    let inner = match join_on {
        Some(on) => new_left.join(new_right, on.clone()),
        None if !new_on.is_empty() => new_left.join(new_right, new_on),
        None => new_left.product(new_right),
    };
    Some(if keep.is_empty() {
        inner
    } else {
        inner.select(Predicate::and_all(keep))
    })
}

/// Which side of a binary node a predicate's columns reference.
enum Side {
    Left,
    Right,
    Cross,
}

fn side_of(p: &Predicate, left_arity: usize) -> Side {
    let cols = predicate_cols(p);
    if cols.iter().all(|&c| c < left_arity) {
        Side::Left
    } else if cols.iter().all(|&c| c >= left_arity) {
        Side::Right
    } else {
        Side::Cross
    }
}

fn predicate_cols(p: &Predicate) -> Vec<usize> {
    match p {
        Predicate::Cmp { left, right, .. } => {
            let mut v = Vec::new();
            if let Operand::Col(c) = left {
                v.push(*c);
            }
            if let Operand::Col(c) = right {
                v.push(*c);
            }
            v
        }
        Predicate::IsNull(c) | Predicate::NotNull(c) => vec![*c],
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            let mut v = predicate_cols(a);
            v.extend(predicate_cols(b));
            v
        }
        Predicate::Not(a) => predicate_cols(a),
        Predicate::True | Predicate::False => vec![],
    }
}

/// Split a predicate into its top-level conjuncts.
pub(crate) fn split_conjuncts(p: &Predicate) -> Vec<Predicate> {
    match p {
        Predicate::And(a, b) => {
            let mut v = split_conjuncts(a);
            v.extend(split_conjuncts(b));
            v
        }
        Predicate::True => vec![],
        other => vec![other.clone()],
    }
}

/// Shift every column reference down by `offset` (for pushing a
/// right-side predicate below the concatenation).
fn shift_predicate(p: &Predicate, offset: usize) -> Predicate {
    let shift_op = |o: &Operand| match o {
        Operand::Col(c) => Operand::Col(c - offset),
        other => other.clone(),
    };
    match p {
        Predicate::Cmp { left, op, right } => Predicate::Cmp {
            left: shift_op(left),
            op: *op,
            right: shift_op(right),
        },
        Predicate::IsNull(c) => Predicate::IsNull(c - offset),
        Predicate::NotNull(c) => Predicate::NotNull(c - offset),
        Predicate::And(a, b) => Predicate::And(
            Box::new(shift_predicate(a, offset)),
            Box::new(shift_predicate(b, offset)),
        ),
        Predicate::Or(a, b) => Predicate::Or(
            Box::new(shift_predicate(a, offset)),
            Box::new(shift_predicate(b, offset)),
        ),
        Predicate::Not(a) => Predicate::Not(Box::new(shift_predicate(a, offset))),
        Predicate::True => Predicate::True,
        Predicate::False => Predicate::False,
    }
}

/// Rewrite a predicate's columns through a projection's position list,
/// if every referenced column is projected.
fn remap_predicate(p: &Predicate, positions: &[usize]) -> Option<Predicate> {
    let remap_op = |o: &Operand| -> Option<Operand> {
        match o {
            Operand::Col(c) => positions.get(*c).map(|&src| Operand::Col(src)),
            other => Some(other.clone()),
        }
    };
    Some(match p {
        Predicate::Cmp { left, op, right } => Predicate::Cmp {
            left: remap_op(left)?,
            op: *op,
            right: remap_op(right)?,
        },
        Predicate::IsNull(c) => Predicate::IsNull(*positions.get(*c)?),
        Predicate::NotNull(c) => Predicate::NotNull(*positions.get(*c)?),
        Predicate::And(a, b) => Predicate::And(
            Box::new(remap_predicate(a, positions)?),
            Box::new(remap_predicate(b, positions)?),
        ),
        Predicate::Or(a, b) => Predicate::Or(
            Box::new(remap_predicate(a, positions)?),
            Box::new(remap_predicate(b, positions)?),
        ),
        Predicate::Not(a) => Predicate::Not(Box::new(remap_predicate(a, positions)?)),
        Predicate::True => Predicate::True,
        Predicate::False => Predicate::False,
    })
}

/// Output arity of an expression when derivable without a catalog.
fn static_arity(e: &AlgebraExpr) -> Option<usize> {
    match e {
        AlgebraExpr::Relation(_) => None,
        AlgebraExpr::Literal(r) => Some(r.arity()),
        AlgebraExpr::Select { input, .. } => static_arity(input),
        AlgebraExpr::GroupCount { group, .. } => Some(group.len() + 1),
        AlgebraExpr::Project { positions, .. } => Some(positions.len()),
        AlgebraExpr::Product { left, right } | AlgebraExpr::Join { left, right, .. } => {
            Some(static_arity(left)? + static_arity(right)?)
        }
        AlgebraExpr::SemiJoin { left, .. }
        | AlgebraExpr::ComplementJoin { left, .. }
        | AlgebraExpr::Union { left, .. }
        | AlgebraExpr::Difference { left, .. } => static_arity(left),
        AlgebraExpr::Division { left, on, .. } => Some(static_arity(left)? - on.len()),
        AlgebraExpr::LeftOuterJoin { left, right, .. } => {
            Some(static_arity(left)? + static_arity(right)?)
        }
        AlgebraExpr::ConstrainedOuterJoin { left, .. } => Some(static_arity(left)? + 1),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::Evaluator;
    use gq_calculus::CompareOp;
    use gq_storage::{tuple, Database, Relation, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "r",
                Schema::new(vec!["a", "b"]).unwrap(),
                (0..20).map(|i| tuple![i, i * 2]).collect::<Vec<_>>(),
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples(
                "s",
                Schema::new(vec!["a", "c"]).unwrap(),
                (0..20).map(|i| tuple![i, i + 100]).collect::<Vec<_>>(),
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn both_agree(e: &AlgebraExpr) {
        let db = db();
        let ev = Evaluator::new(&db);
        let a = ev.eval(e).unwrap();
        let o = optimize(e);
        let b = ev.eval(&o).unwrap();
        assert!(a.set_eq(&b), "optimized {o} differs from {e}");
    }

    #[test]
    fn selection_fusion() {
        let e = AlgebraExpr::relation("r")
            .select(Predicate::col_const(0, CompareOp::Lt, 10))
            .select(Predicate::col_const(1, CompareOp::Gt, 4));
        let o = optimize(&e);
        // one Select node remains
        let mut selects = 0;
        fn count(e: &AlgebraExpr, n: &mut usize) {
            if matches!(e, AlgebraExpr::Select { .. }) {
                *n += 1;
            }
            for c in e.children() {
                count(c, n);
            }
        }
        count(&o, &mut selects);
        assert_eq!(selects, 1, "{o}");
        both_agree(&e);
    }

    #[test]
    fn product_with_cross_equality_becomes_join() {
        // σ[#0 = #2](r × s) → r ⋈[0=0] s — needs static arity, so use
        // literal sides.
        let dbx = db();
        let r = dbx.relation("r").unwrap().clone();
        let s = dbx.relation("s").unwrap().clone();
        let e = AlgebraExpr::Literal(r)
            .product(AlgebraExpr::Literal(s))
            .select(Predicate::col_col(0, CompareOp::Eq, 2));
        let o = optimize(&e);
        assert!(!o.uses_product(), "{o}");
        both_agree(&e);
    }

    #[test]
    fn selection_splits_across_product() {
        let dbx = db();
        let r = dbx.relation("r").unwrap().clone();
        let s = dbx.relation("s").unwrap().clone();
        let e = AlgebraExpr::Literal(r)
            .product(AlgebraExpr::Literal(s))
            .select(Predicate::And(
                Box::new(Predicate::col_const(0, CompareOp::Lt, 5)),
                Box::new(Predicate::col_const(3, CompareOp::Gt, 105)),
            ));
        let o = optimize(&e);
        // the top node must no longer be a Select (both conjuncts pushed)
        assert!(!matches!(o, AlgebraExpr::Select { .. }), "{o}");
        both_agree(&e);
    }

    #[test]
    fn selection_pushes_through_projection() {
        let e = AlgebraExpr::relation("r")
            .project(vec![1, 0])
            .select(Predicate::col_const(1, CompareOp::Lt, 5)); // col 1 = original 0
        let o = optimize(&e);
        // Select now sits under the Project
        match &o {
            AlgebraExpr::Project { input, .. } => {
                assert!(matches!(&**input, AlgebraExpr::Select { .. }), "{o}")
            }
            other => panic!("expected Project on top, got {other}"),
        }
        both_agree(&e);
    }

    #[test]
    fn selection_pushes_into_semijoin_left() {
        let e = AlgebraExpr::relation("r")
            .semi_join(AlgebraExpr::relation("s"), vec![(0, 0)])
            .select(Predicate::col_const(1, CompareOp::Gt, 10));
        let o = optimize(&e);
        assert!(matches!(o, AlgebraExpr::SemiJoin { .. }), "{o}");
        both_agree(&e);
    }

    #[test]
    fn selection_distributes_over_union() {
        let e = AlgebraExpr::relation("r")
            .union(AlgebraExpr::relation("r"))
            .select(Predicate::col_const(0, CompareOp::Lt, 3));
        let o = optimize(&e);
        assert!(matches!(o, AlgebraExpr::Union { .. }), "{o}");
        both_agree(&e);
    }

    #[test]
    fn projection_fusion() {
        let e = AlgebraExpr::relation("r")
            .project(vec![1, 0])
            .project(vec![1]);
        let o = optimize(&e);
        match &o {
            AlgebraExpr::Project { input, positions } => {
                assert_eq!(positions, &vec![0]);
                assert!(matches!(&**input, AlgebraExpr::Relation(_)), "{o}");
            }
            other => panic!("expected fused Project, got {other}"),
        }
        both_agree(&e);
    }

    #[test]
    fn optimizer_is_idempotent() {
        let e = AlgebraExpr::relation("r")
            .join(AlgebraExpr::relation("s"), vec![(0, 0)])
            .select(Predicate::col_const(1, CompareOp::Gt, 2))
            .project(vec![0, 2]);
        let once = optimize(&e);
        let twice = optimize(&once);
        assert_eq!(once, twice);
        both_agree(&e);
    }

    #[test]
    fn marker_predicates_not_pushed_past_outer_join() {
        // σ[#2≠∅] above a constrained outer-join must stay put (the marker
        // column only exists above the join).
        let e = AlgebraExpr::relation("r")
            .constrained_outer_join(
                AlgebraExpr::relation("s"),
                vec![(0, 0)],
                crate::Constraint::none(),
            )
            .select(Predicate::NotNull(2));
        let o = optimize(&e);
        assert!(matches!(o, AlgebraExpr::Select { .. }), "{o}");
        both_agree(&e);
    }
}
