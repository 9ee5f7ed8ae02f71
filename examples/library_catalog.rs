//! A lending-library catalog: views, integrity constraints, persistence
//! and domain closure working together on quantified queries.
//!
//! Run with: `cargo run --example library_catalog`

use gq_core::{ConstraintSet, QueryEngine, Request};
use gq_storage::{tuple, Database, Schema};

fn build() -> Result<QueryEngine, Box<dyn std::error::Error>> {
    let mut db = Database::new();
    db.create_relation("book", Schema::new(vec!["title", "genre"])?)?;
    db.create_relation("member", Schema::new(vec!["name"])?)?;
    db.create_relation("loan", Schema::new(vec!["member", "title"])?)?;
    db.create_relation("reservation", Schema::new(vec!["member", "title"])?)?;

    for (t, g) in [
        ("dune", "scifi"),
        ("hyperion", "scifi"),
        ("emma", "classic"),
        ("ulysses", "classic"),
        ("cosmos", "science"),
    ] {
        db.insert("book", tuple![t, g])?;
    }
    for m in ["ada", "grace", "alan", "edsger"] {
        db.insert("member", tuple![m])?;
    }
    for (m, t) in [
        ("ada", "dune"),
        ("ada", "hyperion"),
        ("grace", "emma"),
        ("grace", "cosmos"),
        ("alan", "dune"),
    ] {
        db.insert("loan", tuple![m, t])?;
    }
    db.insert("reservation", tuple!["edsger", "ulysses"])?;
    db.insert("reservation", tuple!["alan", "emma"])?;
    Ok(QueryEngine::new(db))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = build()?;

    // --- Views (Definition 1 allows views as ranges) -------------------
    engine.define_view("scifi_book", "book(b, \"scifi\")")?;
    engine.define_view("borrower", "member(m) & (exists t. loan(m,t))")?;
    // a view over a view, with a universal inside:
    engine.define_view(
        "scifi_completionist",
        "member(c) & (forall b. scifi_book(b) -> loan(c,b))",
    )?;

    println!("who has borrowed every sci-fi book?");
    for t in engine
        .query("scifi_completionist(x)")?
        .answers
        .sorted_tuples()
    {
        println!("  {t}");
    }

    println!("\nactive borrowers holding no classics:");
    let r = engine.query("borrower(x) & !(exists b. loan(x,b) & book(b,\"classic\"))")?;
    for t in r.answers.sorted_tuples() {
        println!("  {t}");
    }

    // --- Integrity constraints (the paper's motivation) ----------------
    let mut constraints = ConstraintSet::new();
    constraints.add(
        "loans-are-catalogued",
        "forall m,t. loan(m,t) -> exists g. book(t,g)",
    )?;
    constraints.add(
        "no-loan-and-reservation",
        "!(exists m,t. loan(m,t) & reservation(m,t))",
    )?;
    constraints.add(
        "reservers-are-members",
        "forall m,t. reservation(m,t) -> member(m)",
    )?;
    println!("\nconstraints:");
    for report in constraints.check_all(&engine)? {
        println!(
            "  {} {}",
            if report.satisfied { "✓" } else { "✗" },
            report.name
        );
        if let Some((_, witnesses)) = report.witnesses {
            for w in witnesses.sorted_tuples() {
                println!("      violated by {w}");
            }
        }
    }

    // --- Domain closure (§2.1) ------------------------------------------
    // "which database values are not book titles?" — pure negation, only
    // answerable under the Domain Closure Assumption. The domain is the
    // values of the snapshot's base relations, computed on first use.
    let r = engine
        .run(&Request::text("!(exists g. book(x,g))").with_domain_closure())?
        .result;
    println!(
        "\nvalues that are not book titles (domain closure): {} of {}",
        r.len(),
        engine.snapshot().domain().len()
    );

    // --- Persistence ----------------------------------------------------
    let path = std::env::temp_dir().join("library_catalog.gq");
    gq_storage::save(&engine.snapshot(), &path)?;
    let reloaded = QueryEngine::new(gq_storage::load(&path)?);
    let check = reloaded.query("member(x) & (exists t. loan(x,t))")?;
    println!(
        "\nsaved to {} and reloaded: {} borrowers found again",
        path.display(),
        check.len()
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
