//! E-ABL: ablations of the design choices DESIGN.md calls out.
//!
//! * **Division vs complement-join ∀** — the paper keeps division for
//!   Proposition 4 case 5 but notes it can be "rewritten in terms of
//!   difference or complement-join"; both plans are measured.
//! * **Plan optimizer on/off** — selection pushdown and product-to-join
//!   conversion applied to classical plans (where they recover part of the
//!   cartesian blow-up) and to improved plans (already push-down-shaped,
//!   so the effect should be ≈0). The engine always optimizes; the raw
//!   plans come straight from the translators.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gq_algebra::{optimize, Evaluator};
use gq_bench::quel_all_d0_plan;
use gq_calculus::parse;
use gq_rewrite::canonicalize;
use gq_translate::{ClassicalTranslator, DivisionMode, ImprovedTranslator};
use gq_workload::{university, UniversityScale};

const FORALL_QUERY: &str = "student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y))";

fn bench_division_modes(c: &mut Criterion) {
    for n in [500usize, 5000] {
        let mut scale = UniversityScale::of_size(n);
        scale.completionist_rate = 0.1;
        let db = university(&scale);
        let canonical = canonicalize(&parse(FORALL_QUERY).unwrap()).unwrap();
        let mut group = c.benchmark_group(format!("ablation_division/n={n}"));
        for (label, mode) in [
            ("divide", DivisionMode::Divide),
            ("complement-join", DivisionMode::ComplementJoin),
        ] {
            let tr = ImprovedTranslator::new(&db).with_division_mode(mode);
            let (_, plan) = tr.translate_open(&canonical).unwrap();
            group.bench_with_input(BenchmarkId::new(label, "forall"), &plan, |b, plan| {
                b.iter(|| Evaluator::new(&db).eval(plan).unwrap().len())
            });
        }
        // The Quel-style aggregate baseline the paper's introduction
        // criticizes ("compute intermediate results — aggregates — that
        // are in principle not needed").
        let quel = quel_all_d0_plan();
        group.bench_with_input(
            BenchmarkId::new("quel-counting", "forall"),
            &quel,
            |b, plan| b.iter(|| Evaluator::new(&db).eval(plan).unwrap().len()),
        );
        group.finish();
    }
}

fn bench_optimizer(c: &mut Criterion) {
    let db = university(&UniversityScale::of_size(150));
    let formula = parse(FORALL_QUERY).unwrap();
    let canonical = canonicalize(&formula).unwrap();
    let mut group = c.benchmark_group("ablation_optimizer");
    group.sample_size(15);
    for (label, plan) in [
        (
            "classical",
            ClassicalTranslator::new(&db)
                .translate_open(&formula)
                .unwrap()
                .1,
        ),
        (
            "improved",
            ImprovedTranslator::new(&db)
                .translate_open(&canonical)
                .unwrap()
                .1,
        ),
    ] {
        for (opt_label, plan) in [("raw", plan.clone()), ("optimized", optimize(&plan))] {
            group.bench_with_input(BenchmarkId::new(label, opt_label), &plan, |b, plan| {
                b.iter(|| Evaluator::new(&db).eval(plan).unwrap().len())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_division_modes, bench_optimizer);
criterion_main!(benches);
