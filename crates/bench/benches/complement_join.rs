//! E-P3: the complement-join (Definition 6) vs the conventional
//! join-plus-difference plan for the §3.1 query
//! `member(x,z) ∧ ¬skill(x,db)` — plus the morsel-driven thread sweep
//! over the improved plan (the scratch-key probe loop makes the
//! single-thread row here directly comparable to the pre-PR numbers:
//! same plan, zero per-probe key allocations).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gq_algebra::{Evaluator, ExecConfig};
use gq_bench::{conventional_member_not_skill, improved_member_not_skill};
use gq_workload::{university, UniversityScale};

fn bench_complement_join(c: &mut Criterion) {
    for n in [200usize, 2000, 10_000] {
        let db = university(&UniversityScale::of_size(n));
        let improved = improved_member_not_skill();
        let conventional = conventional_member_not_skill();
        let mut group = c.benchmark_group(format!("complement_join/n={n}"));
        group.bench_with_input(BenchmarkId::new("improved", "⊼"), &db, |b, db| {
            b.iter(|| Evaluator::new(db).eval(&improved).unwrap().len())
        });
        group.bench_with_input(BenchmarkId::new("conventional", "⋈+−"), &db, |b, db| {
            b.iter(|| Evaluator::new(db).eval(&conventional).unwrap().len())
        });
        group.finish();
    }
}

/// The improved plan across worker counts (1 = the pipelines on the
/// calling thread; >1 = morsel-driven partitioned build + parallel probe).
fn bench_complement_join_threads(c: &mut Criterion) {
    let n = 10_000;
    let db = university(&UniversityScale::of_size(n));
    let improved = improved_member_not_skill();
    let mut group = c.benchmark_group(format!("complement_join_threads/n={n}"));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("improved", format!("t={threads}")),
            &db,
            |b, db| {
                b.iter(|| {
                    Evaluator::new(db)
                        .with_exec_config(ExecConfig::with_threads(threads))
                        .eval(&improved)
                        .unwrap()
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_complement_join,
    bench_complement_join_threads
);
criterion_main!(benches);
