//! Incremental maintenance of materialized views and semi-naive
//! recursion.
//!
//! A materialized view stores its answer set as a named catalog
//! relation (the *extent*), so queries over it are plain base-relation
//! scans — no translator or plan-cache changes are needed, and the
//! per-relation version stamps invalidate cached plans the moment an
//! extent is patched. The engine routes every committed mutation's
//! [`MutationDelta`] through here *before* the MVCC republish point:
//! readers either see the catalog from before the mutation or the
//! catalog with the mutation *and* every affected extent patched —
//! never a half-maintained state.
//!
//! Maintenance per view is incremental: rewrite the view's plan into a
//! delta plan ([`gq_algebra::delta_plan`]), evaluate both sides against
//! the delta database, and patch the stored extent as `(old − Δ⁻) ∪ Δ⁺`.
//! Any failure (including an injected chaos fault at the delta-apply
//! site) falls back to a recompute: re-evaluate the full plan against
//! the post-mutation catalog under an unlimited governor, so committed
//! mutations are never failed by a maintenance budget. Every evaluation
//! runs under the engine's [`ExecConfig`] ([`Env`]).
//!
//! Recursive groups (`with recursive`) are stratified by SCC
//! decomposition of the view dependency graph; each SCC must be
//! *monotone* in its own members (no member under a complement-join,
//! difference, division divisor, outer-join padding side, or
//! aggregate — see [`check_monotone`]), and is evaluated by a
//! semi-naive fixpoint that feeds each round's fresh tuples back
//! through the members' delta plans until no round produces anything
//! new. Termination is guaranteed — plans are monotone over a finite
//! domain, and every round strictly grows some extent — while the
//! governor bounds each round's intermediate growth.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use gq_algebra::{
    delta_database_lazy, delta_plan, materialize_old, referenced_old_names, AlgebraExpr, Evaluator,
    ExecConfig,
};
use gq_calculus::{Formula, Var};
use gq_governor::Governor;
use gq_obs::{EventData, EventKind, Journal};
use gq_storage::{Database, MutationDelta, Relation, StorageError, Tuple};

use crate::views::ViewError;
use crate::EngineError;

/// What every definition and maintenance evaluation runs under: the
/// engine's execution configuration, and the journal that records each
/// fixpoint round.
#[derive(Clone, Copy)]
pub(crate) struct Env<'a> {
    pub(crate) exec: ExecConfig,
    pub(crate) journal: &'a Journal,
}

impl Env<'_> {
    /// An evaluator over `db` under the engine's configuration.
    pub(crate) fn evaluator<'d>(&self, db: &'d Database, governor: &Governor) -> Evaluator<'d> {
        Evaluator::new(db)
            .with_exec_config(self.exec)
            .with_governor(governor.clone())
    }

    /// Journal one semi-naive round (`ivm.round`).
    fn round(&self, group: &str, round: u64, fresh: usize) {
        self.journal.record(|| {
            EventData::new(EventKind::IvmRound, 0, "ivm")
                .detail(format!("group `{group}` round {round}: {fresh} new tuples"))
        });
    }
}

/// A materialized view: a compiled open query whose answer set is
/// stored as the catalog relation `name`.
#[derive(Debug, Clone)]
pub(crate) struct MatView {
    /// Extent relation name (also the view's query-surface name).
    pub(crate) name: String,
    /// Output columns: the body's free variables, in extent column
    /// order.
    pub(crate) vars: Vec<Var>,
    /// The defining formula, as written.
    pub(crate) body: Formula,
    /// The compiled plan producing the extent.
    pub(crate) plan: AlgebraExpr,
    /// Catalog relations the plan scans (including other extents).
    pub(crate) reads: BTreeSet<String>,
}

/// A maintenance unit, processed atomically per mutation: either one
/// non-recursive view or one SCC of mutually recursive views.
#[derive(Debug, Clone)]
pub(crate) enum Unit {
    /// A non-recursive materialized view.
    Single(Box<MatView>),
    /// One strongly connected component of mutually recursive views,
    /// monotone in its members, maintained by semi-naive fixpoint.
    Recursive(Vec<MatView>),
}

impl Unit {
    /// Member views (one for [`Unit::Single`]).
    pub(crate) fn members(&self) -> &[MatView] {
        match self {
            Unit::Single(v) => std::slice::from_ref(&**v),
            Unit::Recursive(g) => g,
        }
    }
}

/// What one maintenance run did to one extent — journaled by the
/// engine as an `ivm.apply` event.
#[derive(Debug, Clone)]
pub(crate) struct ApplyOutcome {
    /// The maintained view.
    pub(crate) view: String,
    /// Tuples added to the extent.
    pub(crate) added: usize,
    /// Tuples removed from the extent.
    pub(crate) removed: usize,
    /// `"incremental"`, `"recompute"`, `"seminaive-continue"`, or
    /// `"fixpoint-recompute"`.
    pub(crate) mode: &'static str,
    /// The incremental error that forced a recompute fallback, if any.
    pub(crate) fallback: Option<String>,
    /// Fixpoint rounds run (recursive units only).
    pub(crate) rounds: u64,
    /// The new extent, when the run changed it; the engine writes it
    /// back to the store.
    pub(crate) extent: Option<Arc<Relation>>,
}

/// Relation names a plan scans.
pub(crate) fn plan_reads(plan: &AlgebraExpr) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_reads(plan, &mut out);
    out
}

fn collect_reads(e: &AlgebraExpr, out: &mut BTreeSet<String>) {
    match e {
        AlgebraExpr::Relation(r) => {
            out.insert(r.clone());
        }
        AlgebraExpr::Literal(_) => {}
        AlgebraExpr::Select { input, .. }
        | AlgebraExpr::Project { input, .. }
        | AlgebraExpr::GroupCount { input, .. } => collect_reads(input, out),
        AlgebraExpr::Product { left, right }
        | AlgebraExpr::Join { left, right, .. }
        | AlgebraExpr::SemiJoin { left, right, .. }
        | AlgebraExpr::ComplementJoin { left, right, .. }
        | AlgebraExpr::Division { left, right, .. }
        | AlgebraExpr::Union { left, right }
        | AlgebraExpr::Difference { left, right }
        | AlgebraExpr::LeftOuterJoin { left, right, .. }
        | AlgebraExpr::ConstrainedOuterJoin { left, right, .. } => {
            collect_reads(left, out);
            collect_reads(right, out);
        }
    }
}

/// First group member scanned anywhere under `e`, if any.
fn find_member(e: &AlgebraExpr, members: &BTreeSet<String>) -> Option<String> {
    let mut reads = BTreeSet::new();
    collect_reads(e, &mut reads);
    reads.into_iter().find(|r| members.contains(r))
}

/// Reject recursion through a non-monotone position: a group member
/// scanned under a complement-join's right side, a difference's
/// subtrahend, a division's divisor, an outer-join's padded side, or
/// an aggregate makes the semi-naive fixpoint unsound (adding member
/// tuples could *remove* answers), so the group has no stratification.
///
/// The check is deliberately strict — a member under a double negation
/// is rejected too, matching the stratification rule "no recursion
/// through negation" rather than a semantic monotonicity proof.
pub(crate) fn check_monotone(
    plan: &AlgebraExpr,
    members: &BTreeSet<String>,
    view: &str,
) -> Result<(), ViewError> {
    fn reject_any(
        e: &AlgebraExpr,
        members: &BTreeSet<String>,
        view: &str,
    ) -> Result<(), ViewError> {
        match find_member(e, members) {
            Some(relation) => Err(ViewError::UnstratifiedRecursion {
                view: view.to_string(),
                relation,
            }),
            None => Ok(()),
        }
    }
    fn walk(
        e: &AlgebraExpr,
        members: &BTreeSet<String>,
        view: &str,
        negative: bool,
    ) -> Result<(), ViewError> {
        match e {
            AlgebraExpr::Relation(r) => {
                if negative && members.contains(r) {
                    return Err(ViewError::UnstratifiedRecursion {
                        view: view.to_string(),
                        relation: r.clone(),
                    });
                }
                Ok(())
            }
            AlgebraExpr::Literal(_) => Ok(()),
            AlgebraExpr::Select { input, .. } | AlgebraExpr::Project { input, .. } => {
                walk(input, members, view, negative)
            }
            // A member's cardinality feeds the count column — any change
            // to the member changes answers non-monotonically.
            AlgebraExpr::GroupCount { input, .. } => reject_any(input, members, view),
            AlgebraExpr::Product { left, right } | AlgebraExpr::Union { left, right } => {
                walk(left, members, view, negative)?;
                walk(right, members, view, negative)
            }
            AlgebraExpr::Join { left, right, .. } | AlgebraExpr::SemiJoin { left, right, .. } => {
                walk(left, members, view, negative)?;
                walk(right, members, view, negative)
            }
            AlgebraExpr::Difference { left, right }
            | AlgebraExpr::ComplementJoin { left, right, .. }
            | AlgebraExpr::Division { left, right, .. } => {
                walk(left, members, view, negative)?;
                walk(right, members, view, true)
            }
            // Growing the right side turns ∅-padded tuples into joined
            // ones (or flips markers) — not monotone in either direction.
            AlgebraExpr::LeftOuterJoin { left, right, .. }
            | AlgebraExpr::ConstrainedOuterJoin { left, right, .. } => {
                walk(left, members, view, negative)?;
                reject_any(right, members, view)
            }
        }
    }
    walk(plan, members, view, false)
}

/// Decompose a batch of mutually referencing views into maintenance
/// units: Tarjan's SCC algorithm over the "reads" dependency graph,
/// emitting units in topological (dependencies-first) order. Singleton
/// SCCs without a self-loop become [`Unit::Single`]; every true SCC is
/// checked for monotonicity in its members and becomes
/// [`Unit::Recursive`].
pub(crate) fn stratify(views: Vec<MatView>) -> Result<Vec<Unit>, ViewError> {
    let n = views.len();
    let index_of: HashMap<&str, usize> = views
        .iter()
        .enumerate()
        .map(|(i, v)| (v.name.as_str(), i))
        .collect();
    let adj: Vec<Vec<usize>> = views
        .iter()
        .map(|v| {
            v.reads
                .iter()
                .filter_map(|r| index_of.get(r.as_str()).copied())
                .collect()
        })
        .collect();

    // Tarjan, iterative (explicit stack) so deep chains can't overflow.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // (node, next child position)
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        call.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut child)) = call.last_mut() {
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }

    let mut slots: Vec<Option<MatView>> = views.into_iter().map(Some).collect();
    let mut units = Vec::with_capacity(sccs.len());
    for mut scc in sccs {
        // Definition order within a group keeps journal output stable.
        scc.sort_unstable();
        let self_loop = scc.len() == 1 && adj[scc[0]].contains(&scc[0]);
        if scc.len() == 1 && !self_loop {
            if let Some(v) = slots[scc[0]].take() {
                units.push(Unit::Single(Box::new(v)));
            }
        } else {
            let members: BTreeSet<String> = scc
                .iter()
                .filter_map(|&i| slots[i].as_ref().map(|v| v.name.clone()))
                .collect();
            let mut group = Vec::with_capacity(scc.len());
            for &i in &scc {
                if let Some(v) = slots[i].take() {
                    check_monotone(&v.plan, &members, &v.name)?;
                    group.push(v);
                }
            }
            units.push(Unit::Recursive(group));
        }
    }
    Ok(units)
}

/// An extent patch plus the exact net change it made, computed while
/// patching (a tuple removed and re-inserted in the same patch is net
/// unchanged and appears in neither list). The delta is what downstream
/// views see — it satisfies the delta-pair safety contract exactly.
struct Patched {
    extent: Relation,
    delta: MutationDelta,
}

fn patch_tracked(
    extent: &Relation,
    minus: Option<&Relation>,
    plus: Option<&Relation>,
) -> Result<Patched, StorageError> {
    let mut out = extent.clone();
    let mut removed = Vec::new();
    if let Some(m) = minus {
        for t in m.iter() {
            if out.remove(t) {
                removed.push(t.clone());
            }
        }
    }
    let mut inserted = Vec::new();
    if let Some(p) = plus {
        for t in p.iter() {
            if out.insert(t.clone())? {
                inserted.push(t.clone());
            }
        }
    }
    if !removed.is_empty() && !inserted.is_empty() {
        let ins: HashSet<&Tuple> = inserted.iter().collect();
        let rem: HashSet<Tuple> = removed
            .iter()
            .filter(|t| ins.contains(t))
            .cloned()
            .collect();
        if !rem.is_empty() {
            removed.retain(|t| !rem.contains(t));
            inserted.retain(|t| !rem.contains(t));
        }
    }
    let delta = MutationDelta {
        relation: extent.name().to_string(),
        inserted,
        removed,
    };
    Ok(Patched { extent: out, delta })
}

/// One incremental maintenance step for a non-recursive view: build the
/// delta database, rewrite the plan, evaluate both delta sides, patch.
fn incremental_single(
    working: &Database,
    old: &Database,
    deltas: &[MutationDelta],
    v: &MatView,
    extent: &Relation,
    governor: &Governor,
    env: Env<'_>,
) -> Result<Patched, EngineError> {
    #[cfg(feature = "chaos")]
    if let Some(msg) = gq_chaos::fail_delta_apply(&v.name) {
        return Err(EngineError::Storage(StorageError::Io(msg)));
    }
    let (mut ddb, changed) = delta_database_lazy(working, old, deltas)?;
    let dp = delta_plan(&v.plan, &changed, &ddb)?;
    if dp.is_empty() {
        return Ok(Patched {
            extent: extent.clone(),
            delta: MutationDelta {
                relation: v.name.clone(),
                ..MutationDelta::default()
            },
        });
    }
    let mut wanted = BTreeSet::new();
    for side in [&dp.insert, &dp.remove].into_iter().flatten() {
        referenced_old_names(side, &changed, &mut wanted);
    }
    materialize_old(&mut ddb, old, &wanted)?;
    let ev = env.evaluator(&ddb, governor);
    let minus = dp.remove.as_ref().map(|p| ev.eval(p)).transpose()?;
    let plus = dp.insert.as_ref().map(|p| ev.eval(p)).transpose()?;
    Ok(patch_tracked(extent, minus.as_ref(), plus.as_ref())?)
}

/// Full recompute of one non-recursive view against the post-mutation
/// catalog. Runs unlimited: committed mutations must never be failed
/// by a maintenance budget.
fn recompute_single(
    working: &Database,
    v: &MatView,
    extent: &Relation,
    env: Env<'_>,
) -> Result<Patched, EngineError> {
    let ev = env.evaluator(working, &Governor::unlimited());
    let mut fresh = ev.eval(&v.plan)?;
    fresh.set_name(&v.name);
    let delta = MutationDelta::replaced(&v.name, extent, &fresh);
    Ok(Patched {
        extent: fresh,
        delta,
    })
}

/// Semi-naive rounds: repeatedly fold each member's fresh tuples into
/// its extent and push them through the members' delta plans until no
/// round produces anything new. `cur` is the round-0 delta per member
/// (same order as `group`). Governor-checked and -charged per round.
fn seminaive_rounds(
    local: &mut Database,
    group: &[MatView],
    mut cur: Vec<Vec<Tuple>>,
    governor: &Governor,
    env: Env<'_>,
    rounds: &mut u64,
) -> Result<(), EngineError> {
    let label = group
        .iter()
        .map(|m| m.name.as_str())
        .collect::<Vec<_>>()
        .join("+");
    loop {
        let total: usize = cur.iter().map(Vec::len).sum();
        if total == 0 {
            return Ok(());
        }
        *rounds += 1;
        governor.check("ivm")?;
        governor.charge_intermediate("ivm", total as u64, 0)?;
        env.round(&label, *rounds, total);
        let prev = local.clone();
        let mut member_deltas = Vec::with_capacity(group.len());
        for (m, fresh) in group.iter().zip(&cur) {
            if fresh.is_empty() {
                continue;
            }
            for t in fresh {
                local.insert(&m.name, t.clone())?;
            }
            member_deltas.push(MutationDelta {
                relation: m.name.clone(),
                inserted: fresh.clone(),
                removed: Vec::new(),
            });
        }
        let (mut ddb, changed) = delta_database_lazy(local, &prev, &member_deltas)?;
        let plans = group
            .iter()
            .map(|m| delta_plan(&m.plan, &changed, &ddb))
            .collect::<Result<Vec<_>, _>>()?;
        let mut wanted = BTreeSet::new();
        for dp in &plans {
            // Only the insert side runs in a semi-naive round.
            if let Some(side) = &dp.insert {
                referenced_old_names(side, &changed, &mut wanted);
            }
        }
        materialize_old(&mut ddb, &prev, &wanted)?;
        let ev = env.evaluator(&ddb, governor);
        let mut next = Vec::with_capacity(group.len());
        for (m, dp) in group.iter().zip(&plans) {
            let plus = dp.insert.as_ref().map(|p| ev.eval(p)).transpose()?;
            let extent = local.relation(&m.name)?;
            next.push(match plus {
                Some(p) => p.iter().filter(|t| !extent.contains(t)).cloned().collect(),
                None => Vec::new(),
            });
        }
        cur = next;
    }
}

/// Evaluate a recursive group from scratch: reset every member extent
/// to empty, evaluate each plan once for the round-0 deltas (the base
/// cases), then run semi-naive rounds to the fixpoint. The caller's
/// governor bounds per-round growth — at definition time that is the
/// engine's query budget, so a runaway fixpoint trips cleanly instead
/// of hanging.
pub(crate) fn fixpoint(
    local: &mut Database,
    group: &[MatView],
    governor: &Governor,
    env: Env<'_>,
    rounds: &mut u64,
) -> Result<(), EngineError> {
    for m in group {
        let arity = local.relation(&m.name)?.arity();
        local.replace_relation(Relation::named_intermediate(&m.name, arity));
    }
    let cur: Vec<Vec<Tuple>> = {
        let ev = env.evaluator(local, governor);
        let mut out = Vec::with_capacity(group.len());
        for m in group {
            out.push(ev.eval(&m.plan)?.iter().cloned().collect());
        }
        out
    };
    seminaive_rounds(local, group, cur, governor, env, rounds)
}

/// Re-derive a recursive group's extents from scratch on a scratch
/// catalog (so an error leaves `working` untouched), unlimited.
fn refixpoint(
    working: &Database,
    group: &[MatView],
    env: Env<'_>,
    rounds: &mut u64,
) -> Result<Vec<Relation>, EngineError> {
    let mut local = working.clone();
    let unlimited = Governor::unlimited();
    fixpoint(&mut local, group, &unlimited, env, rounds)?;
    group
        .iter()
        .map(|m| Ok(local.relation(&m.name)?.clone()))
        .collect()
}

/// Continue a recursive group's fixpoint from its current extents for
/// an insert-only base delta: run the members' delta plans once against
/// the base deltas for the round-0 member deltas, then semi-naive
/// rounds. Errors (deletion deltas discovered, chaos faults, governor
/// trips) make the caller fall back to [`refixpoint`].
fn continue_insert_only(
    working: &Database,
    old: &Database,
    deltas: &[MutationDelta],
    group: &[MatView],
    governor: &Governor,
    env: Env<'_>,
    rounds: &mut u64,
) -> Result<Vec<Relation>, EngineError> {
    #[cfg(feature = "chaos")]
    for m in group {
        if let Some(msg) = gq_chaos::fail_delta_apply(&m.name) {
            return Err(EngineError::Storage(StorageError::Io(msg)));
        }
    }
    let mut local = working.clone();
    let (mut ddb, changed) = delta_database_lazy(&local, old, deltas)?;
    let plans = group
        .iter()
        .map(|m| delta_plan(&m.plan, &changed, &ddb))
        .collect::<Result<Vec<_>, _>>()?;
    let mut wanted = BTreeSet::new();
    for dp in &plans {
        for side in [&dp.insert, &dp.remove].into_iter().flatten() {
            referenced_old_names(side, &changed, &mut wanted);
        }
    }
    materialize_old(&mut ddb, old, &wanted)?;
    let mut cur = Vec::with_capacity(group.len());
    {
        let ev = env.evaluator(&ddb, governor);
        for (m, dp) in group.iter().zip(&plans) {
            let plus = dp.insert.as_ref().map(|p| ev.eval(p)).transpose()?;
            let extent = local.relation(&m.name)?;
            if let Some(minus) = dp.remove.as_ref().map(|p| ev.eval(p)).transpose()? {
                // A real deletion from a recursive extent needs
                // over-deletion/re-derivation (DRed) — out of scope for
                // the continuation; recompute instead.
                let deletes = minus.iter().any(|t| {
                    extent.contains(t) && !plus.as_ref().map(|p| p.contains(t)).unwrap_or(false)
                });
                if deletes {
                    return Err(EngineError::Storage(StorageError::Io(format!(
                        "deletion delta reached recursive view `{}`",
                        m.name
                    ))));
                }
            }
            cur.push(match plus {
                Some(p) => p.iter().filter(|t| !extent.contains(t)).cloned().collect(),
                None => Vec::new(),
            });
        }
    }
    seminaive_rounds(&mut local, group, cur, governor, env, rounds)?;
    group
        .iter()
        .map(|m| Ok(local.relation(&m.name)?.clone()))
        .collect()
}

/// Route one committed mutation's deltas through every affected
/// materialized view, patching extents in `working` (the post-mutation
/// catalog) in dependency order. Each patched view's *own* net delta is
/// appended to the delta set, so downstream views see upstream changes.
/// `old` is the pre-mutation published catalog. The caller writes the
/// outcomes' new extents back only when this returns `Ok`, keeping
/// readers atomic.
pub(crate) fn maintain(
    working: &mut Database,
    old: &Database,
    base_deltas: Vec<MutationDelta>,
    units: &[Unit],
    governor: &Governor,
    env: Env<'_>,
) -> Result<Vec<ApplyOutcome>, EngineError> {
    let mut deltas: Vec<MutationDelta> =
        base_deltas.into_iter().filter(|d| !d.is_empty()).collect();
    let mut out = Vec::new();
    if deltas.is_empty() {
        return Ok(out);
    }
    for unit in units {
        let changed: BTreeSet<&str> = deltas.iter().map(|d| d.relation.as_str()).collect();
        match unit {
            Unit::Single(v) => {
                if !v.reads.iter().any(|r| changed.contains(r.as_str())) {
                    continue;
                }
                let extent = working.relation_arc(&v.name)?;
                let mut fallback = None;
                let (patched, mode) =
                    match incremental_single(working, old, &deltas, v, &extent, governor, env) {
                        Ok(p) => (p, "incremental"),
                        Err(e) => {
                            fallback = Some(e.to_string());
                            (recompute_single(working, v, &extent, env)?, "recompute")
                        }
                    };
                // A maintenance that changed nothing keeps the stored
                // extent — its row order is the stable one — so the view's
                // version stamp and the catalog epoch do not move and no
                // cached plan reading the view is evicted.
                let changed = (!patched.delta.is_empty()).then(|| Arc::new(patched.extent));
                out.push(ApplyOutcome {
                    view: v.name.clone(),
                    added: patched.delta.inserted.len(),
                    removed: patched.delta.removed.len(),
                    mode,
                    fallback,
                    rounds: 0,
                    extent: changed.clone(),
                });
                if let Some(extent) = changed {
                    working.replace_relation_arc(extent);
                    deltas.push(patched.delta);
                }
            }
            Unit::Recursive(group) => {
                let members: BTreeSet<&str> = group.iter().map(|m| m.name.as_str()).collect();
                let affected = group.iter().any(|m| {
                    m.reads
                        .iter()
                        .any(|r| !members.contains(r.as_str()) && changed.contains(r.as_str()))
                });
                if !affected {
                    continue;
                }
                let relevant = |d: &MutationDelta| {
                    group.iter().any(|m| m.reads.contains(&d.relation))
                        && !members.contains(d.relation.as_str())
                };
                let insert_only = deltas
                    .iter()
                    .filter(|d| relevant(d))
                    .all(|d| d.removed.is_empty());
                let old_extents: Vec<Arc<Relation>> = group
                    .iter()
                    .map(|m| working.relation_arc(&m.name))
                    .collect::<Result<_, _>>()?;
                let mut fallback = None;
                let mut rounds = 0u64;
                let tried = if insert_only {
                    match continue_insert_only(
                        working,
                        old,
                        &deltas,
                        group,
                        governor,
                        env,
                        &mut rounds,
                    ) {
                        Ok(e) => Some(e),
                        Err(e) => {
                            fallback = Some(e.to_string());
                            None
                        }
                    }
                } else {
                    None
                };
                let (new_extents, mode) = match tried {
                    Some(e) => (e, "seminaive-continue"),
                    None => {
                        rounds = 0;
                        (
                            refixpoint(working, group, env, &mut rounds)?,
                            "fixpoint-recompute",
                        )
                    }
                };
                for ((m, old_extent), new_extent) in group.iter().zip(&old_extents).zip(new_extents)
                {
                    let delta = MutationDelta::replaced(&m.name, old_extent, &new_extent);
                    let changed = (!delta.is_empty()).then(|| Arc::new(new_extent));
                    out.push(ApplyOutcome {
                        view: m.name.clone(),
                        added: delta.inserted.len(),
                        removed: delta.removed.len(),
                        mode,
                        fallback: fallback.clone(),
                        rounds,
                        extent: changed.clone(),
                    });
                    if let Some(extent) = changed {
                        working.replace_relation_arc(extent);
                        deltas.push(delta);
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn view(name: &str, plan: AlgebraExpr) -> MatView {
        let reads = plan_reads(&plan);
        MatView {
            name: name.into(),
            vars: vec![Var::new("x")],
            body: Formula::atom("base", vec![gq_calculus::Term::Var(Var::new("x"))]),
            plan,
            reads,
        }
    }

    #[test]
    fn stratify_orders_dependencies_first() {
        // c reads b reads a — defined in reverse order on purpose.
        let c = view("c", AlgebraExpr::relation("b"));
        let b = view("b", AlgebraExpr::relation("a"));
        let a = view("a", AlgebraExpr::relation("base"));
        let units = stratify(vec![c, b, a]).unwrap();
        let order: Vec<&str> = units
            .iter()
            .flat_map(|u| u.members().iter().map(|m| m.name.as_str()))
            .collect();
        assert_eq!(order, ["a", "b", "c"]);
        assert!(units.iter().all(|u| matches!(u, Unit::Single(_))));
    }

    #[test]
    fn self_loop_is_a_recursive_unit() {
        let p = view(
            "p",
            AlgebraExpr::Union {
                left: Box::new(AlgebraExpr::relation("edge")),
                right: Box::new(AlgebraExpr::relation("p")),
            },
        );
        let units = stratify(vec![p]).unwrap();
        assert!(matches!(units.as_slice(), [Unit::Recursive(g)] if g.len() == 1));
    }

    #[test]
    fn recursion_through_complement_join_is_rejected() {
        let p = view(
            "p",
            AlgebraExpr::ComplementJoin {
                left: Box::new(AlgebraExpr::relation("edge")),
                right: Box::new(AlgebraExpr::relation("p")),
                on: vec![(0, 0)],
            },
        );
        let err = stratify(vec![p]).unwrap_err();
        assert!(matches!(
            err,
            ViewError::UnstratifiedRecursion { view, relation }
                if view == "p" && relation == "p"
        ));
    }

    #[test]
    fn recursion_through_difference_left_is_fine() {
        // p − q with p the member on the *left* is monotone in p.
        let p = view(
            "p",
            AlgebraExpr::Union {
                left: Box::new(AlgebraExpr::relation("edge")),
                right: Box::new(AlgebraExpr::Difference {
                    left: Box::new(AlgebraExpr::relation("p")),
                    right: Box::new(AlgebraExpr::relation("blocked")),
                }),
            },
        );
        assert!(stratify(vec![p]).is_ok());
    }

    #[test]
    fn recursion_under_aggregate_is_rejected() {
        let p = view(
            "p",
            AlgebraExpr::GroupCount {
                input: Box::new(AlgebraExpr::relation("p")),
                group: vec![0],
            },
        );
        assert!(matches!(
            stratify(vec![p]),
            Err(ViewError::UnstratifiedRecursion { .. })
        ));
    }
}
