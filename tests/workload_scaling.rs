//! Scaling-shape tests: the improved strategy's work grows roughly
//! linearly with the database while the classical translation's grows
//! super-linearly (the cartesian product, claim C2) — the paper's
//! asymptotic story checked on generated data.

use gq_core::{QueryEngine, Strategy};
use gq_workload::{generic, university, UniversityScale};

/// Base reads of the improved strategy grow at most ~linearly in the
/// number of students for the quantified suite.
#[test]
fn improved_reads_scale_linearly() {
    let queries = [
        "student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y))",
        "student(x) & !(exists y. attends(x,y) & !lecture(y,\"d0\"))",
        "member(x,z) & !skill(x,\"db\")",
    ];
    let (small_n, big_n) = (200usize, 1600);
    let small = QueryEngine::new(university(&UniversityScale::of_size(small_n)));
    let big = QueryEngine::new(university(&UniversityScale::of_size(big_n)));
    for text in queries {
        let rs = small.query_with(text, Strategy::Improved).unwrap();
        let rb = big.query_with(text, Strategy::Improved).unwrap();
        let scale = big_n as f64 / small_n as f64; // 8×
        let growth = rb.stats.base_tuples_read as f64 / rs.stats.base_tuples_read as f64;
        assert!(
            growth < scale * 2.0,
            "`{text}`: reads grew {growth:.1}× for a {scale:.0}× database ({} → {})",
            rs.stats.base_tuples_read,
            rb.stats.base_tuples_read
        );
    }
}

/// The intermediates of the improved plan grow at most ~linearly too.
/// Proposition 4 case 1 is the query that broke it: its inner block, built
/// on its own as `lecture ⋈ enrolled`, grew with students × lectures per
/// department (14.7× here, while departments grow 3.7×); translated under
/// the `attends` range that binds it (DESIGN.md §7.7), no intermediate
/// outgrows `attends` and the peak grows with the database (7.9×).
#[test]
fn improved_intermediates_scale_linearly() {
    let text = "exists y. attends(x,y) & (exists d. lecture(y,d) & enrolled(x,d))";
    let (small_n, big_n) = (200usize, 1600);
    let small = QueryEngine::new(university(&UniversityScale::of_size(small_n)));
    let big = QueryEngine::new(university(&UniversityScale::of_size(big_n)));
    let scale = big_n as f64 / small_n as f64; // 8×
    for engine in [&small, &big] {
        let r = engine.query_with(text, Strategy::Improved).unwrap();
        let attends = engine.query("attends(x,y)").unwrap().len();
        assert!(
            r.stats.max_intermediate <= attends,
            "`{text}`: an intermediate of {} rows outgrows attends ({attends})",
            r.stats.max_intermediate
        );
    }
    let rs = small.query_with(text, Strategy::Improved).unwrap();
    let rb = big.query_with(text, Strategy::Improved).unwrap();
    let growth =
        rb.stats.peak_intermediate_tuples as f64 / rs.stats.peak_intermediate_tuples as f64;
    assert!(
        growth < scale * 1.5,
        "`{text}`: peak intermediate grew {growth:.1}× for a {scale:.0}× database ({} → {})",
        rs.stats.peak_intermediate_tuples,
        rb.stats.peak_intermediate_tuples
    );
}

/// The classical translation's tuple-comparison count grows super-linearly
/// (quadratically here: the two-variable product — which our pipelined
/// evaluator streams rather than materializes, so the blow-up shows up in
/// comparisons, not in materialized intermediates), while the improved
/// strategy's stays ~linear.
#[test]
fn classical_comparisons_grow_superlinearly() {
    let text = "p(x) & (exists y. r(x,y) & !s(x,y))";
    let (small_d, big_d) = (20usize, 80);
    let small = QueryEngine::new(generic(small_d, small_d * 4, 3));
    let big = QueryEngine::new(generic(big_d, big_d * 4, 3));
    let scale = big_d as f64 / small_d as f64; // 4×

    let cs = small.query_with(text, Strategy::Classical).unwrap();
    let cb = big.query_with(text, Strategy::Classical).unwrap();
    let classical_growth = cb.stats.comparisons as f64 / cs.stats.comparisons as f64;

    let is = small.query_with(text, Strategy::Improved).unwrap();
    let ib = big.query_with(text, Strategy::Improved).unwrap();
    let improved_growth = ib.stats.comparisons as f64 / is.stats.comparisons as f64;

    assert!(
        classical_growth > scale * 1.5,
        "classical comparisons should grow super-linearly: {classical_growth:.1}× for {scale:.0}× ({} → {})",
        cs.stats.comparisons,
        cb.stats.comparisons
    );
    assert!(
        improved_growth < scale * 1.5,
        "improved comparisons should stay ~linear: {improved_growth:.1}× for {scale:.0}×"
    );
    assert!(
        classical_growth > improved_growth * 1.5,
        "classical ({classical_growth:.1}×) must outgrow improved ({improved_growth:.1}×)"
    );
}

/// Nested-loop comparisons for correlated subqueries grow super-linearly
/// (re-evaluation per outer binding) while the improved plan's stay
/// near-linear — the Fig. 1 criticism measured.
#[test]
fn nested_loop_comparisons_grow_superlinearly() {
    let text = "student(x) & !(exists y. attends(x,y) & lecture(y,\"d1\"))";
    let (small_n, big_n) = (200usize, 1600);
    let small = QueryEngine::new(university(&UniversityScale::of_size(small_n)));
    let big = QueryEngine::new(university(&UniversityScale::of_size(big_n)));
    let scale = big_n as f64 / small_n as f64;

    let ns = small.query_with(text, Strategy::NestedLoop).unwrap();
    let nb = big.query_with(text, Strategy::NestedLoop).unwrap();
    let nested_growth = nb.stats.comparisons as f64 / ns.stats.comparisons as f64;

    let is = small.query_with(text, Strategy::Improved).unwrap();
    let ib = big.query_with(text, Strategy::Improved).unwrap();
    let improved_growth = ib.stats.comparisons as f64 / is.stats.comparisons as f64;

    assert!(
        nested_growth > improved_growth * 2.0,
        "nested-loop ({nested_growth:.1}×) must outgrow improved ({improved_growth:.1}×) on a {scale:.0}× database"
    );
}
