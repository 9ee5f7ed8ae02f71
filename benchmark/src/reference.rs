//! Reference answers, written by hand as plain set code over the base
//! relations — never produced by any strategy of the engine. One function
//! per suite text, per served read template and per view body. Answer
//! columns are the free variables in name order; a closed query answers
//! with the empty tuple when true and with nothing when false.

use std::collections::{HashMap, HashSet};

use crate::layers::{Facts, Rows};

fn rows<'a>(facts: &'a Facts, relation: &str) -> &'a Rows {
    facts
        .get(relation)
        .unwrap_or_else(|| panic!("the university schema has `{relation}`"))
}

/// The members of a unary relation.
fn unary<'a>(facts: &'a Facts, relation: &str) -> HashSet<&'a str> {
    rows(facts, relation)
        .iter()
        .map(|r| r[0].as_str())
        .collect()
}

/// The pairs of a binary relation.
fn pairs<'a>(facts: &'a Facts, relation: &str) -> HashSet<(&'a str, &'a str)> {
    rows(facts, relation)
        .iter()
        .map(|r| (r[0].as_str(), r[1].as_str()))
        .collect()
}

/// First column of a binary relation where the second equals `second`.
fn firsts_with<'a>(facts: &'a Facts, relation: &str, second: &str) -> HashSet<&'a str> {
    rows(facts, relation)
        .iter()
        .filter(|r| r[1] == second)
        .map(|r| r[0].as_str())
        .collect()
}

/// A binary relation grouped by its first column.
fn grouped<'a>(facts: &'a Facts, relation: &str) -> HashMap<&'a str, Vec<&'a str>> {
    let mut map: HashMap<&str, Vec<&str>> = HashMap::new();
    for r in rows(facts, relation) {
        map.entry(r[0].as_str()).or_default().push(r[1].as_str());
    }
    map
}

fn sorted(rows: impl IntoIterator<Item = Vec<String>>) -> Rows {
    // Through a set: an answer is a set of tuples.
    let set: HashSet<Vec<String>> = rows.into_iter().collect();
    let mut out: Rows = set.into_iter().collect();
    out.sort();
    out
}

fn singles<'a>(values: impl IntoIterator<Item = &'a str>) -> Rows {
    sorted(values.into_iter().map(|v| vec![v.to_string()]))
}

fn truth(holds: bool) -> Rows {
    if holds {
        vec![vec![]]
    } else {
        vec![]
    }
}

/// `attends(x,y)` pairs for which a department `d` exists with
/// `lecture(y,d)` and `enrolled(x,d)` present (`want_enrolled`) or absent.
fn attended_with_enrolment(facts: &Facts, want_enrolled: bool) -> Vec<(&str, &str)> {
    let depts_of_lecture = grouped(facts, "lecture");
    let enrolled = pairs(facts, "enrolled");
    rows(facts, "attends")
        .iter()
        .map(|r| (r[0].as_str(), r[1].as_str()))
        .filter(|&(x, y)| {
            depts_of_lecture.get(y).is_some_and(|ds| {
                ds.iter()
                    .any(|&d| enrolled.contains(&(x, d)) == want_enrolled)
            })
        })
        .collect()
}

/// Students attending every lecture of department `d0`.
fn students_attending_all_of_d0(facts: &Facts) -> Vec<&str> {
    let d0_lectures = firsts_with(facts, "lecture", "d0");
    let attends = pairs(facts, "attends");
    rows(facts, "student")
        .iter()
        .map(|r| r[0].as_str())
        .filter(|&x| d0_lectures.iter().all(|&y| attends.contains(&(x, y))))
        .collect()
}

/// The reference answer of the suite query labelled `label`, or `None`
/// for a label this file does not know.
pub fn suite_answer(label: &str, facts: &Facts) -> Option<Rows> {
    let students = || rows(facts, "student").iter().map(|r| r[0].as_str());
    let answer = match label {
        // member(x,z) & !skill(x,"db")
        "neg-filter (§3.1 Q2)" => view_nodb(facts),
        // exists y. attends(x,y) & (exists d. lecture(y,d) & enrolled(x,d))
        "nested-exists (P4 c1)" => singles(
            attended_with_enrolment(facts, true)
                .into_iter()
                .map(|(x, _)| x),
        ),
        // exists y. attends(x,y) & (exists d. lecture(y,d) & !enrolled(x,d))
        "nested-neg-atom (P4 c2a)" => singles(
            attended_with_enrolment(facts, false)
                .into_iter()
                .map(|(x, _)| x),
        ),
        // attends(x,y) & (exists d. lecture(y,d) & !enrolled(x,d))
        "correlated (P4 c2b)" => sorted(
            attended_with_enrolment(facts, false)
                .into_iter()
                .map(|(x, y)| vec![x.to_string(), y.to_string()]),
        ),
        // student(x) & !(exists y. attends(x,y) & lecture(y,"d1"))
        "neg-subquery (P4 c3)" => {
            let d1_lectures = firsts_with(facts, "lecture", "d1");
            let attended = grouped(facts, "attends");
            singles(students().filter(|x| {
                !attended
                    .get(x)
                    .is_some_and(|ys| ys.iter().any(|y| d1_lectures.contains(y)))
            }))
        }
        // student(x) & !(exists y. attends(x,y) & !lecture(y,"d0"))
        "only-d0 (P4 c4)" => {
            let d0_lectures = firsts_with(facts, "lecture", "d0");
            let attended = grouped(facts, "attends");
            singles(students().filter(|x| {
                attended
                    .get(x)
                    .is_none_or(|ys| ys.iter().all(|y| d0_lectures.contains(y)))
            }))
        }
        // student(x) & (forall y. lecture(y,"d0") -> attends(x,y))
        "all-d0 (P4 c5, division)" => singles(students_attending_all_of_d0(facts)),
        // student(x) & (skill(x,"db") | speaks(x,"lang1") | makes(x,"PhD"))
        "disj-filter (P5)" => {
            let db = firsts_with(facts, "skill", "db");
            let german = firsts_with(facts, "speaks", "lang1");
            let phd = firsts_with(facts, "makes", "PhD");
            singles(students().filter(|x| db.contains(x) || german.contains(x) || phd.contains(x)))
        }
        // student(x) & (!enrolled(x,"d0") | skill(x,"db"))
        "disj-neg (Fig 4)" => {
            let in_d0 = firsts_with(facts, "enrolled", "d0");
            let db = firsts_with(facts, "skill", "db");
            singles(students().filter(|x| !in_d0.contains(x) || db.contains(x)))
        }
        // ((student(x) & makes(x,"PhD")) | prof(x)) & (speaks(x,"lang0") | speaks(x,"lang1"))
        "producer-or (§2.3)" => {
            let phd = firsts_with(facts, "makes", "PhD");
            let french = firsts_with(facts, "speaks", "lang0");
            let german = firsts_with(facts, "speaks", "lang1");
            let producers = students()
                .filter(|x| phd.contains(x))
                .chain(rows(facts, "prof").iter().map(|r| r[0].as_str()));
            singles(producers.filter(|x| french.contains(x) || german.contains(x)))
        }
        // forall x. student(x) -> exists d. enrolled(x,d)
        "closed-forall-exists" => {
            let enrolled_somewhere: HashSet<&str> = rows(facts, "enrolled")
                .iter()
                .map(|r| r[0].as_str())
                .collect();
            truth(students().all(|x| enrolled_somewhere.contains(x)))
        }
        // exists x. student(x) & (forall y. lecture(y,"d0") -> attends(x,y))
        "closed-exists-forall (division)" => truth(!students_attending_all_of_d0(facts).is_empty()),
        _ => return None,
    };
    Some(answer)
}

/// Served point read: `attends(S,y) & (exists d. lecture(y,d) & !enrolled(S,d))`.
pub fn point_read(facts: &Facts, student: &str) -> Rows {
    let depts_of_lecture = grouped(facts, "lecture");
    let home: HashSet<&str> = rows(facts, "enrolled")
        .iter()
        .filter(|r| r[0] == student)
        .map(|r| r[1].as_str())
        .collect();
    singles(
        rows(facts, "attends")
            .iter()
            .filter(|r| r[0] == student)
            .map(|r| r[1].as_str())
            .filter(|y| {
                depts_of_lecture
                    .get(y)
                    .is_some_and(|ds| ds.iter().any(|d| !home.contains(d)))
            }),
    )
}

/// Served closed read: `exists l. lecture(l,"d0") & attends(S,l)`.
pub fn closed_read(facts: &Facts, student: &str) -> Rows {
    let d0_lectures = firsts_with(facts, "lecture", "d0");
    truth(
        rows(facts, "attends")
            .iter()
            .any(|r| r[0] == student && d0_lectures.contains(r[1].as_str())),
    )
}

/// Served scan read: `student(x) & attends(x,L) & !enrolled(x,"d0")`.
pub fn scan_read(facts: &Facts, lecture: &str) -> Rows {
    let students = unary(facts, "student");
    let in_d0 = firsts_with(facts, "enrolled", "d0");
    singles(
        firsts_with(facts, "attends", lecture)
            .into_iter()
            .filter(|x| students.contains(x) && !in_d0.contains(x)),
    )
}

/// View body `d0att(x,y) ≡ attends(x,y) & lecture(y,"d0")`.
pub fn view_d0att(facts: &Facts) -> Rows {
    let d0_lectures = firsts_with(facts, "lecture", "d0");
    sorted(
        rows(facts, "attends")
            .iter()
            .filter(|r| d0_lectures.contains(r[1].as_str()))
            .cloned(),
    )
}

/// View body `nodb(x,z) ≡ member(x,z) & !skill(x,"db")`.
pub fn view_nodb(facts: &Facts) -> Rows {
    let db = firsts_with(facts, "skill", "db");
    sorted(
        rows(facts, "member")
            .iter()
            .filter(|r| !db.contains(r[0].as_str()))
            .cloned(),
    )
}

/// The maintained-view read `d0att(x,L)`: first column of the view body
/// where the lecture is `lecture`.
pub fn view_read_d0att(facts: &Facts, lecture: &str) -> Rows {
    singles(
        view_d0att(facts)
            .iter()
            .filter(|r| r[1] == lecture)
            .map(|r| r[0].as_str()),
    )
}

#[cfg(test)]
mod tests {
    //! These test the reference, not the engine: every function above
    //! must agree with the Fig. 1 nested-loop interpreter *and* with the
    //! improved translation, two evaluators that share no plan code.

    use super::*;
    use crate::layers::{self, Engine, Method};

    const SIZE: usize = 40;

    fn agrees(engine: &Engine, text: &str, want: &Rows, what: &str) {
        for method in [Method::NestedLoop, Method::Improved] {
            let got = engine
                .query_as(text, method)
                .unwrap_or_else(|e| panic!("{what}: {method:?} failed: {e}"))
                .rows();
            assert_eq!(&got, want, "{what} under {method:?}: {text}");
        }
    }

    #[test]
    fn every_suite_text_has_a_reference_that_both_methods_confirm() {
        for seed in 1..=3 {
            let data = layers::generate(SIZE, seed);
            let facts = data.facts();
            let engine = Engine::new(data);
            for &(label, text) in layers::suite() {
                let want = suite_answer(label, &facts)
                    .unwrap_or_else(|| panic!("no reference for suite text `{label}`"));
                agrees(&engine, text, &want, &format!("seed {seed}, {label}"));
            }
        }
    }

    #[test]
    fn the_suite_answers_are_not_all_trivial() {
        let facts = layers::generate(SIZE, 1).facts();
        let nonempty = layers::suite()
            .iter()
            .filter(|(label, _)| !suite_answer(label, &facts).expect("known label").is_empty())
            .count();
        assert!(
            nonempty >= 10,
            "only {nonempty} of 12 suite answers are non-empty"
        );
        assert!(suite_answer("no such label", &facts).is_none());
    }

    #[test]
    fn served_read_templates_agree_with_both_methods() {
        for seed in 1..=3 {
            let data = layers::generate(SIZE, seed);
            let facts = data.facts();
            let engine = Engine::new(data);
            for k in 0..SIZE {
                let s = format!("s{k}");
                agrees(
                    &engine,
                    &format!(
                        "attends(\"{s}\",y) & (exists d. lecture(y,d) & !enrolled(\"{s}\",d))"
                    ),
                    &point_read(&facts, &s),
                    &format!("seed {seed}, point read {s}"),
                );
                agrees(
                    &engine,
                    &format!("exists l. lecture(l,\"d0\") & attends(\"{s}\",l)"),
                    &closed_read(&facts, &s),
                    &format!("seed {seed}, closed read {s}"),
                );
            }
            for j in 0..facts["lecture"].len() {
                let l = format!("l{j}");
                agrees(
                    &engine,
                    &format!("student(x) & attends(x,\"{l}\") & !enrolled(x,\"d0\")"),
                    &scan_read(&facts, &l),
                    &format!("seed {seed}, scan read {l}"),
                );
            }
        }
    }

    #[test]
    fn view_bodies_and_the_view_read_agree_with_both_methods() {
        for seed in 1..=3 {
            let data = layers::generate(SIZE, seed);
            let facts = data.facts();
            let engine = Engine::new(data);
            agrees(
                &engine,
                "attends(x,y) & lecture(y,\"d0\")",
                &view_d0att(&facts),
                &format!("seed {seed}, view d0att"),
            );
            agrees(
                &engine,
                "member(x,z) & !skill(x,\"db\")",
                &view_nodb(&facts),
                &format!("seed {seed}, view nodb"),
            );
            engine
                .define_materialized_view("d0att", "attends(x,y) & lecture(y,\"d0\")")
                .expect("the view defines");
            agrees(
                &engine,
                "d0att(x,\"l0\")",
                &view_read_d0att(&facts, "l0"),
                &format!("seed {seed}, view read"),
            );
        }
    }
}
