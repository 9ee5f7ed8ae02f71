//! # gq-bench — shared fixtures for the experiment harness
//!
//! Query corpora and hand-built comparison plans used by the criterion
//! benches (one per experiment of DESIGN.md §3) and by the `report` binary
//! that regenerates the EXPERIMENTS.md tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gq_algebra::{AlgebraExpr, Constraint, Predicate};
use gq_calculus::CompareOp;

pub use gq_workload::E2E_SUITE;

/// Hand-built *conventional* plan for the §3.1 complement-join example:
/// `member ⋈ (π₀(member) − π₀(σ₁₌db(skill)))` — what a translator without
/// the complement-join operator must emit.
pub fn conventional_member_not_skill() -> AlgebraExpr {
    let skill_db = AlgebraExpr::relation("skill")
        .select(Predicate::col_const(1, CompareOp::Eq, "db"))
        .project(vec![0]);
    AlgebraExpr::relation("member")
        .join(
            AlgebraExpr::relation("member")
                .project(vec![0])
                .difference(skill_db),
            vec![(0, 0)],
        )
        .project(vec![0, 1])
}

/// The paper's improved plan for the same query:
/// `member ⊼ π₀(σ₁₌db(skill))`.
pub fn improved_member_not_skill() -> AlgebraExpr {
    AlgebraExpr::relation("member").complement_join(
        AlgebraExpr::relation("skill")
            .select(Predicate::col_const(1, CompareOp::Eq, "db"))
            .project(vec![0]),
        vec![(0, 0)],
    )
}

/// Union-based plan for the n-ary disjunctive filter
/// `p(x) ∧ (t1(x) ∨ … ∨ tn(x))`: `∪ᵢ (p ⋉ tᵢ)` — the conventional
/// evaluation the paper's §3.3 improves on (searches p against every tᵢ
/// and builds the union).
pub fn union_disjunctive_filter(n: usize) -> AlgebraExpr {
    let mut expr: Option<AlgebraExpr> = None;
    for k in 1..=n {
        let branch = AlgebraExpr::relation("p")
            .semi_join(AlgebraExpr::relation(format!("t{k}")), vec![(0, 0)]);
        expr = Some(match expr {
            None => branch,
            Some(e) => e.union(branch),
        });
    }
    expr.expect("n >= 1")
}

/// Constrained-outer-join plan (Proposition 5) for the same filter.
pub fn outer_join_disjunctive_filter(n: usize) -> AlgebraExpr {
    let mut expr = AlgebraExpr::relation("p");
    for k in 1..=n {
        let constraint = Constraint {
            tests: (1..k).map(|j| (j, true)).collect(),
        };
        expr = expr.constrained_outer_join(
            AlgebraExpr::relation(format!("t{k}")),
            vec![(0, 0)],
            constraint,
        );
    }
    let sigma = Predicate::or_all((1..=n).map(Predicate::NotNull).collect());
    expr.select(sigma).project(vec![0])
}

/// The calculus text of the n-ary disjunctive filter query.
pub fn disjunctive_filter_text(n: usize) -> String {
    let disjuncts: Vec<String> = (1..=n).map(|k| format!("t{k}(x)")).collect();
    format!("p(x) & ({})", disjuncts.join(" | "))
}

/// The §2.2 miniscope pair, prenex-style form (Q1) — stated as an *open*
/// query so every student is examined (a closed ∃ would stop at the first
/// witness and hide the redundant-evaluation effect the paper describes) …
pub const MINISCOPE_Q1: &str =
    "student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y) & !enrolled(x,\"d0\"))";
/// … and miniscope form (Q2) over the generated schema.
pub const MINISCOPE_Q2: &str =
    "student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y)) & !enrolled(x,\"d0\")";

/// The normalization corpus for the rewrite-system bench (E-REWR).
pub const REWRITE_CORPUS: &[&str] = &[
    "forall x. p(x) -> q(x)",
    "exists x. p(x) & (forall y. r(x,y) -> q(y))",
    "exists x. p(x) & (q(y) | r(x,x))",
    "!(exists x. p(x) & !(exists y. r(x,y) & !s(x,y)))",
    "forall x. p(x) -> (forall y. r(x,y) -> (exists z. s(y,z) & !r(z,x)))",
    "exists x. ((p(x) & q(x)) | p(x)) & (q(x) | s(x,x))",
    "(p(x) <-> q(x)) & (exists y. r(x,y))",
];

/// Queries for the Proposition 4 bench over the generic p/q/r/s schema.
pub const PROP4_QUERIES: &[(&str, &str)] = &[
    ("case1", "p(x) & (exists y. r(x,y) & s(x,y))"),
    ("case2a", "p(x) & (exists y. r(x,y) & !s(x,y))"),
    ("case2b", "r(x,y) & (exists z. s(y,z) & !r(x,z))"),
    ("case3", "p(x) & !(exists y. r(x,y) & s(x,y))"),
    ("case4", "p(x) & !(exists y. r(x,y) & !s(x,y))"),
    ("case5", "p(x) & (forall y. q(y) -> r(x,y))"),
];

/// The Quel-style *aggregate* evaluation of the universal query "students
/// attending all d0 lectures", per the paper's introduction: "one has to
/// pose a query comparing the numbers of tuples satisfying Q and P".
/// Counts attended-d0-lectures per student and compares with the total
/// d0-lecture count.
pub fn quel_all_d0_plan() -> AlgebraExpr {
    let d0 = AlgebraExpr::relation("lecture")
        .select(Predicate::col_const(1, CompareOp::Eq, "d0"))
        .project(vec![0]);
    let total = d0.clone().group_count(vec![]); // [N]
    let per_student = AlgebraExpr::relation("attends")
        .semi_join(d0, vec![(1, 0)])
        .group_count(vec![0]); // [student, k]
    AlgebraExpr::relation("student").semi_join(
        per_student
            .product(total)
            .select(Predicate::col_col(1, CompareOp::Eq, 2))
            .project(vec![0]),
        vec![(0, 0)],
    )
}
