//! # gq-workload — synthetic databases for the experiments
//!
//! The paper gives a university schema in its examples but no data; this
//! crate generates deterministic, seeded instances at parameterized scale:
//!
//! * [`university`] — the paper's running schema (student, prof, lecture,
//!   attends, enrolled, speaks, makes, member, skill);
//! * [`ptu`] — the P/T/U unary relations of Figures 2–4, scaled, with
//!   controllable overlap fractions, plus extra `t1…tn` relations for
//!   n-ary disjunctive filters (Proposition 5);
//! * [`generic`] — the p/q/r/s schema used by the Proposition 4 benches;
//!
//! and [`E2E_SUITE`], the paper-derived queries over [`university`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gq_storage::{Database, Schema, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper-derived end-to-end query suite (E-E2E), over the generated
/// university schema (`d0` = cs, `lang0` = french, `lang1` = german).
/// Pairs of (label, query text).
pub const E2E_SUITE: &[(&str, &str)] = &[
    ("neg-filter (§3.1 Q2)", "member(x,z) & !skill(x,\"db\")"),
    (
        "nested-exists (P4 c1)",
        "exists y. attends(x,y) & (exists d. lecture(y,d) & enrolled(x,d))",
    ),
    (
        "nested-neg-atom (P4 c2a)",
        "exists y. attends(x,y) & (exists d. lecture(y,d) & !enrolled(x,d))",
    ),
    (
        "correlated (P4 c2b)",
        "attends(x,y) & (exists d. lecture(y,d) & !enrolled(x,d))",
    ),
    (
        "neg-subquery (P4 c3)",
        "student(x) & !(exists y. attends(x,y) & lecture(y,\"d1\"))",
    ),
    (
        "only-d0 (P4 c4)",
        "student(x) & !(exists y. attends(x,y) & !lecture(y,\"d0\"))",
    ),
    (
        "all-d0 (P4 c5, division)",
        "student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y))",
    ),
    (
        "disj-filter (P5)",
        "student(x) & (skill(x,\"db\") | speaks(x,\"lang1\") | makes(x,\"PhD\"))",
    ),
    (
        "disj-neg (Fig 4)",
        "student(x) & (!enrolled(x,\"d0\") | skill(x,\"db\"))",
    ),
    (
        "producer-or (§2.3)",
        "((student(x) & makes(x,\"PhD\")) | prof(x)) & (speaks(x,\"lang0\") | speaks(x,\"lang1\"))",
    ),
    (
        "closed-forall-exists",
        "forall x. student(x) -> exists d. enrolled(x,d)",
    ),
    (
        "closed-exists-forall (division)",
        "exists x. student(x) & (forall y. lecture(y,\"d0\") -> attends(x,y))",
    ),
];

/// Parameters of a university instance.
#[derive(Debug, Clone)]
pub struct UniversityScale {
    /// Number of students.
    pub students: usize,
    /// Number of professors.
    pub profs: usize,
    /// Number of lectures.
    pub lectures: usize,
    /// Number of departments.
    pub depts: usize,
    /// Number of languages.
    pub langs: usize,
    /// Lectures attended per student (expected).
    pub attend_per_student: usize,
    /// Probability that a student attends *every* lecture of department 0
    /// (creates witnesses for ∀-queries).
    pub completionist_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl UniversityScale {
    /// A default instance with ~`n` students and proportional sizes.
    pub fn of_size(n: usize) -> Self {
        UniversityScale {
            students: n,
            profs: n / 10 + 2,
            lectures: n / 5 + 4,
            depts: (n / 50 + 3).min(26),
            langs: 5,
            attend_per_student: 4,
            completionist_rate: 0.05,
            seed: 42,
        }
    }
}

/// The value naming student `i` (`s{i}`), exposed for tests and examples.
pub fn student(i: usize) -> Value {
    Value::str(format!("s{i}"))
}
/// The value naming professor `i` (`p{i}`).
pub fn prof(i: usize) -> Value {
    Value::str(format!("p{i}"))
}
/// The value naming lecture `i` (`l{i}`).
pub fn lecture(i: usize) -> Value {
    Value::str(format!("l{i}"))
}
/// The value naming department `i` (`d{i}`).
pub fn dept(i: usize) -> Value {
    Value::str(format!("d{i}"))
}
/// The value naming language `i` (`lang{i}`).
pub fn lang(i: usize) -> Value {
    Value::str(format!("lang{i}"))
}

/// Generate a university database (the paper's running example schema).
///
/// Department `d0` plays the role of "cs" in the paper's queries; `lang0`
/// plays "french" and `lang1` "german"; the degree `PhD` is literal.
pub fn university(scale: &UniversityScale) -> Database {
    let mut rng = StdRng::seed_from_u64(scale.seed);
    let mut db = Database::new();
    let rel = |db: &mut Database, name: &str, attrs: Vec<&str>| {
        db.create_relation(name, Schema::new(attrs).unwrap())
            .unwrap();
    };
    rel(&mut db, "student", vec!["name"]);
    rel(&mut db, "prof", vec!["name"]);
    rel(&mut db, "lecture", vec!["name", "dept"]);
    rel(&mut db, "attends", vec!["student", "lecture"]);
    rel(&mut db, "enrolled", vec!["student", "dept"]);
    rel(&mut db, "speaks", vec!["person", "lang"]);
    rel(&mut db, "makes", vec!["person", "deg"]);
    rel(&mut db, "member", vec!["person", "dept"]);
    rel(&mut db, "skill", vec!["person", "topic"]);

    // Lectures spread across departments.
    let mut lectures_of: Vec<Vec<usize>> = vec![Vec::new(); scale.depts];
    for l in 0..scale.lectures {
        let d = l % scale.depts;
        lectures_of[d].push(l);
        db.insert("lecture", Tuple::new(vec![lecture(l), dept(d)]))
            .unwrap();
    }

    for s in 0..scale.students {
        db.insert("student", Tuple::new(vec![student(s)])).unwrap();
        let home = rng.gen_range(0..scale.depts);
        db.insert("enrolled", Tuple::new(vec![student(s), dept(home)]))
            .unwrap();
        // Random attendance.
        for _ in 0..scale.attend_per_student {
            let l = rng.gen_range(0..scale.lectures.max(1));
            let _ = db.insert("attends", Tuple::new(vec![student(s), lecture(l)]));
        }
        // Completionists attend every lecture of department 0.
        if rng.gen_bool(scale.completionist_rate) {
            for &l in &lectures_of[0] {
                let _ = db.insert("attends", Tuple::new(vec![student(s), lecture(l)]));
            }
        }
        if rng.gen_bool(0.3) {
            db.insert(
                "speaks",
                Tuple::new(vec![student(s), lang(rng.gen_range(0..scale.langs))]),
            )
            .unwrap();
        }
        if rng.gen_bool(0.15) {
            db.insert("makes", Tuple::new(vec![student(s), Value::str("PhD")]))
                .unwrap();
        }
        if rng.gen_bool(0.2) {
            let topic = if rng.gen_bool(0.5) { "db" } else { "math" };
            db.insert("skill", Tuple::new(vec![student(s), Value::str(topic)]))
                .unwrap();
        }
        if rng.gen_bool(0.25) {
            db.insert(
                "member",
                Tuple::new(vec![student(s), dept(rng.gen_range(0..scale.depts))]),
            )
            .unwrap();
        }
    }
    for p in 0..scale.profs {
        db.insert("prof", Tuple::new(vec![prof(p)])).unwrap();
        db.insert(
            "member",
            Tuple::new(vec![prof(p), dept(rng.gen_range(0..scale.depts))]),
        )
        .unwrap();
        if rng.gen_bool(0.6) {
            db.insert(
                "speaks",
                Tuple::new(vec![prof(p), lang(rng.gen_range(0..scale.langs))]),
            )
            .unwrap();
        }
        if rng.gen_bool(0.4) {
            let topic = if rng.gen_bool(0.5) { "db" } else { "math" };
            db.insert("skill", Tuple::new(vec![prof(p), Value::str(topic)]))
                .unwrap();
        }
    }
    db
}

/// Parameters of a P/T/U-style instance (Figures 2–4 at scale).
#[derive(Debug, Clone)]
pub struct PtuScale {
    /// |P|.
    pub p: usize,
    /// Number of filter relations `t1…tn` (at least 2 are created; `t1`
    /// is also exposed as `t` and `t2` as `u`, matching the paper).
    pub filters: usize,
    /// Fraction of P covered by each tᵢ (plus ~10% non-P noise values —
    /// the `e`/`f` elements of Figure 2).
    pub coverage: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Generate the scaled Figures 2–4 database: unary `p`, `t`, `u`, and
/// `t1…tn`.
pub fn ptu(scale: &PtuScale) -> Database {
    let mut rng = StdRng::seed_from_u64(scale.seed);
    let mut db = Database::new();
    db.create_relation("p", Schema::new(vec!["v"]).unwrap())
        .unwrap();
    for i in 0..scale.p {
        db.insert("p", Tuple::new(vec![Value::Int(i as i64)]))
            .unwrap();
    }
    for k in 1..=scale.filters.max(2) {
        let name = format!("t{k}");
        db.create_relation(&name, Schema::new(vec!["v"]).unwrap())
            .unwrap();
        for i in 0..scale.p {
            if rng.gen_bool(scale.coverage) {
                db.insert(&name, Tuple::new(vec![Value::Int(i as i64)]))
                    .unwrap();
            }
        }
        for _ in 0..scale.p / 10 {
            let v = scale.p as i64 + rng.gen_range(0..scale.p.max(1)) as i64;
            let _ = db.insert(&name, Tuple::new(vec![Value::Int(v)]));
        }
    }
    // Aliases matching the paper's P/T/U naming.
    for (alias, source) in [("t", "t1"), ("u", "t2")] {
        let src = db.relation(source).unwrap().clone();
        let mut r = gq_storage::Relation::new(alias, Schema::new(vec!["v"]).unwrap());
        for tup in src.iter() {
            r.insert(tup.clone()).unwrap();
        }
        db.add_relation(r).unwrap();
    }
    db
}

/// Generate the generic p/q/r/s database of the Proposition 4 benches:
/// unary `p`, `q` and binary `r`, `s` over an integer domain of size
/// `domain`, with `rows` tuples per binary relation.
pub fn generic(domain: usize, rows: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.create_relation("p", Schema::new(vec!["a"]).unwrap())
        .unwrap();
    db.create_relation("q", Schema::new(vec!["a"]).unwrap())
        .unwrap();
    db.create_relation("r", Schema::new(vec!["a", "b"]).unwrap())
        .unwrap();
    db.create_relation("s", Schema::new(vec!["a", "b"]).unwrap())
        .unwrap();
    let n = domain.max(2) as i64;
    for v in 0..n {
        if rng.gen_bool(0.7) {
            let _ = db.insert("p", Tuple::new(vec![Value::Int(v)]));
        }
        if rng.gen_bool(0.5) {
            let _ = db.insert("q", Tuple::new(vec![Value::Int(v)]));
        }
    }
    for _ in 0..rows {
        for name in ["r", "s"] {
            let _ = db.insert(
                name,
                Tuple::new(vec![
                    Value::Int(rng.gen_range(0..n)),
                    Value::Int(rng.gen_range(0..n)),
                ]),
            );
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn university_is_deterministic() {
        let a = university(&UniversityScale::of_size(50));
        let b = university(&UniversityScale::of_size(50));
        for name in a.relation_names() {
            assert!(a.relation(name).unwrap().set_eq(b.relation(name).unwrap()));
        }
        assert_eq!(a.relation("student").unwrap().len(), 50);
        assert!(a.relation("attends").unwrap().len() > 50);
    }

    #[test]
    fn university_seed_changes_data() {
        let mut s = UniversityScale::of_size(50);
        let a = university(&s);
        s.seed = 7;
        let b = university(&s);
        assert!(!a
            .relation("attends")
            .unwrap()
            .set_eq(b.relation("attends").unwrap()));
    }

    #[test]
    fn ptu_has_aliases_and_filters() {
        let db = ptu(&PtuScale {
            p: 100,
            filters: 4,
            coverage: 0.3,
            seed: 1,
        });
        assert_eq!(db.relation("p").unwrap().len(), 100);
        assert!(db.relation("t").unwrap().set_eq(db.relation("t1").unwrap()));
        assert!(db.relation("u").unwrap().set_eq(db.relation("t2").unwrap()));
        assert!(db.has_relation("t3") && db.has_relation("t4"));
        let t = db.relation("t").unwrap().len();
        assert!(t > 5 && t < 80, "t = {t}");
    }

    #[test]
    fn generic_respects_domain() {
        let db = generic(10, 50, 3);
        for t in db.relation("r").unwrap().iter() {
            match &t[0] {
                Value::Int(v) => assert!((0..10).contains(v)),
                _ => panic!("expected ints"),
            }
        }
        assert!(db.relation("p").unwrap().len() <= 10);
    }

    #[test]
    fn completionists_exist_at_scale() {
        let mut s = UniversityScale::of_size(200);
        s.completionist_rate = 0.2;
        let db = university(&s);
        let lectures = db.relation("lecture").unwrap();
        let d0_lectures: Vec<_> = lectures
            .iter()
            .filter(|t| t[1] == Value::str("d0"))
            .map(|t| t[0].clone())
            .collect();
        assert!(!d0_lectures.is_empty());
        let attends = db.relation("attends").unwrap();
        let complete = (0..200).any(|i| {
            d0_lectures
                .iter()
                .all(|l| attends.contains(&Tuple::new(vec![student(i), l.clone()])))
        });
        assert!(complete, "expected at least one completionist");
    }
}
