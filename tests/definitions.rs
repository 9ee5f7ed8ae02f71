//! One catalog of definitions: relations and views of every kind share
//! one namespace, checked under the store lock; `dom` is reserved and a
//! domain-closure request reads the domain of its own pinned snapshot.

use std::sync::Barrier;

use gq_core::{EngineError, QueryEngine, Request, ViewError};
use gq_storage::{tuple, Database, DurableDatabase, Schema, StorageError, Tuple};

/// Unary `p` = {1, 2, 3} and unary `q` = {}.
fn engine() -> QueryEngine {
    let mut db = Database::new();
    for name in ["p", "q"] {
        db.create_relation(name, Schema::new(vec!["a"]).unwrap())
            .unwrap();
    }
    for v in 1..=3i64 {
        db.insert("p", tuple![v]).unwrap();
    }
    QueryEngine::new(db)
}

/// Sorted answers of `text` under the Domain Closure Assumption.
fn closed(e: &QueryEngine, text: &str) -> Vec<Tuple> {
    e.run(&Request::text(text).with_domain_closure())
        .unwrap()
        .result
        .answers
        .sorted_tuples()
}

#[test]
fn a_view_named_after_a_base_relation_is_refused() {
    let e = engine();
    for defined in [
        e.define_view("p", "q(x)"),
        e.define_materialized_view("p", "q(x)"),
    ] {
        assert!(
            matches!(
                defined,
                Err(EngineError::Storage(StorageError::RelationExists(ref n))) if n == "p"
            ),
            "{defined:?}"
        );
    }
    assert_eq!(e.query("p(x)").unwrap().len(), 3);
    assert!(e.snapshot().views().is_empty());
}

#[test]
fn a_relation_named_after_a_view_is_refused() {
    let e = engine();
    e.define_view("v", "p(x)").unwrap();
    e.define_materialized_view("mv", "p(x) & !q(x)").unwrap();
    for name in ["v", "mv"] {
        let created = e.create_relation(name, Schema::new(vec!["a"]).unwrap());
        assert!(
            matches!(created, Err(EngineError::View(ViewError::Duplicate(ref n))) if n == name),
            "{created:?}"
        );
    }
    assert_eq!(e.query("v(x)").unwrap().len(), 3);
    assert_eq!(e.query("mv(x)").unwrap().len(), 3);
}

#[test]
fn dom_is_reserved() {
    let e = engine();
    let reserved = |r: Result<(), EngineError>| {
        assert!(
            matches!(r, Err(EngineError::View(ViewError::Reserved(ref n))) if n == "dom"),
            "{r:?}"
        );
    };
    reserved(e.create_relation("dom", Schema::new(vec!["a"]).unwrap()));
    reserved(e.define_view("dom", "p(x)"));
    reserved(e.define_materialized_view("dom", "p(x)"));
    // No body may name it, and outside domain closure no query can.
    for defined in [
        e.define_view("v", "p(x) & dom(x)"),
        e.define_materialized_view("mv", "p(x) & dom(x)"),
    ] {
        assert!(
            matches!(
                defined,
                Err(EngineError::View(ViewError::UnknownRelation { ref relation, .. }))
                    if relation == "dom"
            ),
            "{defined:?}"
        );
    }
    assert!(e.query("dom(x)").is_err());
    assert_eq!(closed(&e, "dom(x)").len(), 3);
}

/// A virtual and a materialized definition of one name race: the name
/// check and the definition happen under one lock, so exactly one wins.
#[test]
fn racing_definitions_of_one_name_admit_exactly_one() {
    for round in 0..200 {
        let e = engine();
        for v in 10..200i64 {
            e.insert("p", tuple![v]).unwrap();
        }
        let start = Barrier::new(2);
        let (virtual_view, materialized) = std::thread::scope(|s| {
            let virtual_view = s.spawn(|| {
                start.wait();
                e.define_view("v", "p(x)")
            });
            let materialized = s.spawn(|| {
                start.wait();
                e.define_materialized_view("v", "p(x) & !q(x)")
            });
            (virtual_view.join().unwrap(), materialized.join().unwrap())
        });
        assert!(
            virtual_view.is_ok() != materialized.is_ok(),
            "round {round}: {virtual_view:?} / {materialized:?}"
        );
        let loser = virtual_view.err().or(materialized.err());
        assert!(
            matches!(loser, Some(EngineError::View(ViewError::Duplicate(_)))),
            "round {round}: {loser:?}"
        );
        assert_eq!(e.snapshot().views().len(), 1, "round {round}");
        assert_eq!(e.query("v(x)").unwrap().len(), 193, "round {round}");
    }
}

/// F11: a value written after the domain was first read is in the next
/// query's domain.
#[test]
fn domain_closure_sees_a_write_without_a_refresh() {
    let e = engine();
    assert!(closed(&e, "!p(x)").is_empty());
    e.insert("q", tuple![7i64]).unwrap();
    assert_eq!(closed(&e, "!p(x)"), vec![tuple![7i64]]);
}

/// The domain shrinks: a value removed from the only relation holding it
/// leaves the domain.
#[test]
fn a_removed_value_leaves_the_domain() {
    let e = engine();
    e.insert("q", tuple![1i64]).unwrap();
    assert_eq!(closed(&e, "!q(x)"), vec![tuple![2i64], tuple![3i64]]);
    e.remove("p", &tuple![2i64]).unwrap();
    assert_eq!(closed(&e, "!q(x)"), vec![tuple![3i64]]);
}

/// A durable engine's domain is computed, never logged: after a reopen a
/// domain-closure query answers with no refresh. A `dom` relation that a
/// directory already holds (written before the name was reserved) is
/// left out of the domain and out of every query.
#[test]
fn durable_domain_closure_reads_only_base_relations_after_a_reopen() {
    let dir = std::env::temp_dir().join(format!("gq_definitions_dom_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let (mut d, _) = DurableDatabase::open(&dir).unwrap();
        for name in ["p", "q", "dom"] {
            d.create_relation(name, Schema::new(vec!["a"]).unwrap())
                .unwrap();
        }
        d.insert("p", tuple![1i64]).unwrap();
        d.insert("q", tuple![2i64]).unwrap();
        d.insert("dom", tuple![99i64]).unwrap();
    }
    let (e, _) = QueryEngine::open_durable(&dir).unwrap();
    assert_eq!(closed(&e, "!p(x)"), vec![tuple![2i64]]);
    assert_eq!(e.snapshot().domain().len(), 2);
    assert!(e.query("dom(x)").is_err());
    std::fs::remove_dir_all(&dir).ok();
}
