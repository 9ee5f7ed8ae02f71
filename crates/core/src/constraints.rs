//! Integrity-constraint checking — the paper's motivating application
//! ("Database applications often require to evaluate queries containing
//! quantifiers or disjunctions, e.g., for handling general integrity
//! constraints").
//!
//! Constraints are closed formulas that must hold. Checking uses the
//! improved translation with short-circuiting emptiness tests; for a
//! violated universal constraint `∀x̄ R ⇒ F` the checker also reports the
//! *witnesses* — the answers of the open query `R ∧ ¬F`.

use crate::{EngineError, QueryEngine, Request};
use gq_calculus::{parse, Formula, Var};
use gq_storage::Relation;

/// A registered integrity constraint.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Unique name.
    pub name: String,
    /// The closed formula that must hold.
    pub formula: Formula,
}

/// The outcome of checking one constraint.
#[derive(Debug, Clone)]
pub struct ConstraintReport {
    /// Constraint name.
    pub name: String,
    /// Does the constraint hold?
    pub satisfied: bool,
    /// For a violated `∀x̄ R ⇒ F` constraint: the violating bindings
    /// (answers of `R ∧ ¬F`) and their variables.
    pub witnesses: Option<(Vec<Var>, Relation)>,
}

/// A set of named constraints checked against an engine's database.
#[derive(Debug, Default)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// An empty set.
    pub fn new() -> Self {
        ConstraintSet::default()
    }

    /// Register a constraint from query text. The formula must be closed.
    pub fn add(&mut self, name: impl Into<String>, text: &str) -> Result<(), EngineError> {
        let name = name.into();
        if self.constraints.iter().any(|c| c.name == name) {
            return Err(EngineError::DuplicateConstraint(name));
        }
        let formula = parse(text)?;
        let free = formula.free_vars();
        if !free.is_empty() {
            return Err(EngineError::ConstraintNotClosed {
                name,
                free: free.iter().map(|v| v.name().to_string()).collect(),
            });
        }
        self.constraints.push(Constraint { name, formula });
        Ok(())
    }

    /// Registered constraints in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Check one constraint by name.
    pub fn check(&self, name: &str, engine: &QueryEngine) -> Result<ConstraintReport, EngineError> {
        let c = self
            .constraints
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| EngineError::UnknownConstraint(name.to_string()))?;
        check_one(c, engine)
    }

    /// Check every constraint; reports come back in registration order.
    pub fn check_all(&self, engine: &QueryEngine) -> Result<Vec<ConstraintReport>, EngineError> {
        self.constraints
            .iter()
            .map(|c| check_one(c, engine))
            .collect()
    }
}

fn check_one(c: &Constraint, engine: &QueryEngine) -> Result<ConstraintReport, EngineError> {
    let result = engine.run(&Request::formula(&c.formula))?.result;
    let satisfied = result.is_true();
    let witnesses = if satisfied {
        None
    } else {
        violation_witnesses(&c.formula, engine)?
    };
    Ok(ConstraintReport {
        name: c.name.clone(),
        satisfied,
        witnesses,
    })
}

/// For `∀x̄ R ⇒ F`, the violating bindings are the answers of `R ∧ ¬F`;
/// for `∀x̄ ¬R`, they are the answers of `R`; for `¬∃x̄ B`, the answers of
/// `B`. Other shapes yield no witness query.
fn violation_witnesses(
    f: &Formula,
    engine: &QueryEngine,
) -> Result<Option<(Vec<Var>, Relation)>, EngineError> {
    let witness_query = match f {
        Formula::Forall(_, body) => match &**body {
            Formula::Implies(r, inner) => {
                Some(Formula::and((**r).clone(), Formula::not((**inner).clone())))
            }
            Formula::Not(r) => Some((**r).clone()),
            _ => None,
        },
        Formula::Not(inner) => match &**inner {
            Formula::Exists(_, body) => Some((**body).clone()),
            _ => None,
        },
        _ => None,
    };
    match witness_query {
        None => Ok(None),
        Some(q) => {
            let result = engine.run(&Request::formula(&q))?.result;
            Ok(Some((result.vars, result.answers)))
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use gq_storage::{tuple, Database, Schema};

    fn engine() -> QueryEngine {
        let mut db = Database::new();
        db.create_relation("employee", Schema::new(vec!["name"]).unwrap())
            .unwrap();
        db.create_relation("salary", Schema::new(vec!["name", "amount"]).unwrap())
            .unwrap();
        db.create_relation("manager", Schema::new(vec!["name"]).unwrap())
            .unwrap();
        for n in ["ann", "bob", "eve"] {
            db.insert("employee", tuple![n]).unwrap();
        }
        db.insert("salary", tuple!["ann", 100]).unwrap();
        db.insert("salary", tuple!["bob", 80]).unwrap();
        // eve has no salary → violates the every-employee-has-a-salary
        // constraint.
        db.insert("manager", tuple!["ann"]).unwrap();
        QueryEngine::new(db)
    }

    #[test]
    fn satisfied_constraint() {
        let e = engine();
        let mut cs = ConstraintSet::new();
        cs.add(
            "managers-are-employees",
            "forall x. manager(x) -> employee(x)",
        )
        .unwrap();
        let r = cs.check("managers-are-employees", &e).unwrap();
        assert!(r.satisfied);
        assert!(r.witnesses.is_none());
    }

    #[test]
    fn violated_constraint_reports_witnesses() {
        let e = engine();
        let mut cs = ConstraintSet::new();
        cs.add(
            "every-employee-paid",
            "forall x. employee(x) -> exists a. salary(x,a)",
        )
        .unwrap();
        let r = cs.check("every-employee-paid", &e).unwrap();
        assert!(!r.satisfied);
        let (vars, witnesses) = r.witnesses.unwrap();
        assert_eq!(vars.len(), 1);
        assert_eq!(witnesses.sorted_tuples(), vec![tuple!["eve"]]);
    }

    #[test]
    fn check_all_in_order() {
        let e = engine();
        let mut cs = ConstraintSet::new();
        cs.add("a", "forall x. manager(x) -> employee(x)").unwrap();
        cs.add("b", "forall x. employee(x) -> exists a. salary(x,a)")
            .unwrap();
        let reports = cs.check_all(&e).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports[0].satisfied && !reports[1].satisfied);
    }

    #[test]
    fn rejects_open_and_duplicate() {
        let mut cs = ConstraintSet::new();
        assert!(matches!(
            cs.add("open", "employee(x)"),
            Err(EngineError::ConstraintNotClosed { .. })
        ));
        cs.add("c", "forall x. !(manager(x) & !employee(x))")
            .unwrap();
        assert!(matches!(
            cs.add("c", "forall x. !manager(x)"),
            Err(EngineError::DuplicateConstraint(_))
        ));
        assert!(matches!(
            cs.check("ghost", &engine()),
            Err(EngineError::UnknownConstraint(_))
        ));
    }

    #[test]
    fn negated_existential_constraint_witnesses() {
        let e = engine();
        let mut cs = ConstraintSet::new();
        // "no manager earns 100" — violated by ann.
        cs.add(
            "no-rich-managers",
            "!(exists x. manager(x) & salary(x,100))",
        )
        .unwrap();
        let r = cs.check("no-rich-managers", &e).unwrap();
        assert!(!r.satisfied);
        let (_, w) = r.witnesses.unwrap();
        assert_eq!(w.len(), 1);
    }
}
