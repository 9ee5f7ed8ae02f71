//! The prepared-query plan cache.
//!
//! Compiling a query — canonicalization's 14-rule rewrite plus the
//! improved algebraic translation — costs far more than re-running a small
//! plan, and parameterless prepared queries repeat verbatim in REPL and
//! bench workloads. This module caches the *compiled* form keyed by
//! everything the compilation depends on:
//!
//! * the **α-canonical rendering** of the (view-expanded) formula
//!   ([`gq_calculus::alpha_canonical`]) — two queries differing only in
//!   bound-variable names or quantifier-block order share one entry, and
//!   the full rendering (not just its 64-bit hash) participates in
//!   equality, so hash collisions can never alias two distinct queries
//!   (a domain-closure request's `dom` ranges are part of that formula);
//! * the [`Strategy`] — each compiles to a different plan;
//! * the **per-relation version stamps** of every relation the expanded
//!   formula reads ([`gq_storage::Database::relation_version`]). A plan
//!   is invalidated only by mutations to relations it actually reads: an
//!   insert into `q` leaves a cached plan over `p` hot. (An earlier
//!   revision keyed on the *global* catalog epoch, which every mutation
//!   bumps — so any insert anywhere evicted every plan, defeating the
//!   cache for mixed workloads.) A domain-closure request's `dom` is
//!   stamped one past its snapshot's epoch, so each epoch's domain keys
//!   its own plans. Entries whose recorded versions conflict with a
//!   newly inserted key can never hit again (versions are monotone) and
//!   are purged on insert.
//!
//! Definitions take no part in the key. The key holds the formula *after*
//! view expansion, so a query naming a view is keyed by the view's body;
//! a name, once defined, is never redefined; and a query naming a name
//! not yet defined fails to compile, which caches nothing. A new
//! definition therefore leaves every cached plan hot.
//!
//! The cache is a bounded LRU guarded by a `Mutex`; hits, misses and
//! evictions are tracked internally (always, for the REPL's `.cache`
//! report) and mirrored into the engine's metrics registry as
//! `plan_cache.{hit,miss,evict}` when metrics are enabled. Inserted plans
//! charge their approximate footprint against the inserting query's
//! resource governor, so a memory-budgeted workload cannot hide
//! allocations in the cache.

use crate::engine::Strategy;
use gq_algebra::{AlgebraExpr, BoolExpr};
use gq_calculus::{Formula, Var};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Everything a compilation depends on. Derived `Hash`/`Eq` include the
/// full canonical rendering, making the key collision-free.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// α-canonical rendering of the view-expanded formula.
    pub canonical: String,
    /// Evaluation strategy the plan was compiled for.
    pub strategy: Strategy,
    /// Version stamp of every relation the expanded formula reads, in
    /// sorted name order (deduplicated). Unknown relations stamp as 0.
    /// Mutations to relations *not* listed here leave the key — and so
    /// the cached plan — valid.
    pub reads: Vec<(String, u64)>,
}

/// The compiled form of one query, ready to execute without re-running
/// normalize/translate/optimize.
#[derive(Debug, Clone)]
pub enum CompiledPlan {
    /// An open algebraic query: answer variables plus plan.
    Algebra {
        /// Answer variables in column order.
        vars: Vec<Var>,
        /// The (optimized) algebra plan.
        plan: AlgebraExpr,
    },
    /// A closed algebraic query: a boolean plan over non-emptiness tests.
    Boolean {
        /// The (optimized) boolean plan.
        plan: BoolExpr,
    },
    /// The nested-loop interpreter has no plan; the canonical formula
    /// (the rewrite's output, the expensive part) is what's reusable.
    Loop {
        /// The canonicalized formula the interpreter walks.
        canonical: Formula,
    },
}

impl CompiledPlan {
    /// Approximate heap footprint, in bytes: the canonical renderings of
    /// the plan trees scaled by a node-overhead factor. Exact accounting
    /// would require walking every enum payload; the rendering length is
    /// proportional to node count, which is what the budget protects.
    pub fn approx_bytes(&self) -> u64 {
        let rendered = match self {
            CompiledPlan::Algebra { plan, .. } => plan.to_string().len(),
            CompiledPlan::Boolean { plan } => plan
                .algebra_exprs()
                .iter()
                .map(|e| e.to_string().len())
                .sum(),
            CompiledPlan::Loop { canonical } => canonical.to_string().len(),
        };
        (rendered * 8) as u64
    }
}

/// Point-in-time cache statistics (REPL `.cache`, bench reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Live entries.
    pub entries: usize,
    /// Maximum entries before LRU eviction.
    pub capacity: usize,
    /// Approximate bytes held by live entries.
    pub approx_bytes: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a fresh compile.
    pub misses: u64,
    /// Entries removed (LRU pressure or stale epoch).
    pub evictions: u64,
}

impl PlanCacheStats {
    /// Hit rate over all lookups (0.0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    plan: Arc<CompiledPlan>,
    last_used: u64,
    bytes: u64,
}

struct Inner {
    map: HashMap<PlanKey, Entry>,
    seq: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Bounded LRU cache of compiled plans. Interior-mutable so lookups work
/// through the engine's `&self` query entry points.
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

/// Default entry bound: generous for a REPL session, small enough that a
/// plan sweep cannot hold the whole workload's plans forever.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// An empty cache bounded to `capacity` entries (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                seq: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned mutex means a panic mid-insert on another thread; the
        // map itself is never left half-updated by any path below, so
        // recovering the guard is safe.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Look up a compiled plan. Counts a hit or miss; a hit refreshes the
    /// entry's LRU position.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<CompiledPlan>> {
        let mut inner = self.lock();
        inner.seq += 1;
        let seq = inner.seq;
        match inner.map.get_mut(key) {
            Some(e) => {
                e.last_used = seq;
                let plan = Arc::clone(&e.plan);
                inner.hits += 1;
                Some(plan)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert a freshly compiled plan. Purges entries whose recorded
    /// relation versions conflict with the new key first (versions are monotone, so a conflicting entry can never
    /// hit again), then evicts least-recently-used entries down to
    /// capacity. Returns the number of entries removed (for the eviction
    /// metric).
    pub fn insert(&self, key: PlanKey, plan: Arc<CompiledPlan>) -> u64 {
        let bytes = plan.approx_bytes();
        let mut inner = self.lock();
        inner.seq += 1;
        let seq = inner.seq;
        let mut removed = 0u64;
        // Stale purge: an entry conflicts when it records a different
        // version for a relation the new key also reads. Entries over
        // disjoint relations are untouched — that is the whole point of
        // per-relation keying.
        let conflicts = |k: &PlanKey| {
            // Both lists are sorted by name; a merge walk finds clashes.
            let (mut i, mut j) = (0, 0);
            while i < k.reads.len() && j < key.reads.len() {
                match k.reads[i].0.cmp(&key.reads[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        if k.reads[i].1 != key.reads[j].1 {
                            return true;
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
            false
        };
        let stale: Vec<PlanKey> = inner.map.keys().filter(|k| conflicts(k)).cloned().collect();
        for k in stale {
            if let Some(e) = inner.map.remove(&k) {
                inner.bytes -= e.bytes;
                removed += 1;
            }
        }
        // LRU eviction down to capacity (the new entry counts).
        while inner.map.len() >= self.capacity {
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = inner.map.remove(&victim) {
                inner.bytes -= e.bytes;
                removed += 1;
            }
        }
        inner.bytes += bytes;
        inner.map.insert(
            key,
            Entry {
                plan,
                last_used: seq,
                bytes,
            },
        );
        inner.evictions += removed;
        removed
    }

    /// Drop every entry (REPL `.cache clear`). Does not count as eviction.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.bytes = 0;
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.lock();
        PlanCacheStats {
            entries: inner.map.len(),
            capacity: self.capacity,
            approx_bytes: inner.bytes,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }

    /// Live entry count.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Is the cache empty?
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn key_reads(canonical: &str, reads: &[(&str, u64)]) -> PlanKey {
        PlanKey {
            canonical: canonical.to_string(),
            strategy: Strategy::Improved,
            reads: reads.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    fn key(canonical: &str, version: u64) -> PlanKey {
        key_reads(canonical, &[("p", version)])
    }

    fn plan() -> Arc<CompiledPlan> {
        Arc::new(CompiledPlan::Algebra {
            vars: vec![],
            plan: AlgebraExpr::relation("p"),
        })
    }

    #[test]
    fn hit_miss_and_stats() {
        let c = PlanCache::with_capacity(4);
        assert!(c.get(&key("q1", 0)).is_none());
        c.insert(key("q1", 0), plan());
        assert!(c.get(&key("q1", 0)).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.approx_bytes > 0);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn version_mismatch_never_hits_and_purges_on_insert() {
        let c = PlanCache::with_capacity(4);
        c.insert(key("q1", 0), plan());
        // Same query, newer version of `p`: miss.
        assert!(c.get(&key("q1", 1)).is_none());
        // Inserting a key that reads `p` at the new version purges the
        // stale entry.
        c.insert(key("q2", 1), plan());
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn disjoint_relations_do_not_purge_each_other() {
        let c = PlanCache::with_capacity(4);
        c.insert(key_reads("over_p", &[("p", 3)]), plan());
        // A plan over `q` compiled after a q-mutation: `p`'s entry reads
        // a disjoint relation set and must survive the insert.
        c.insert(key_reads("over_q", &[("q", 9)]), plan());
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert!(c.get(&key_reads("over_p", &[("p", 3)])).is_some());
        // But a shared relation at a conflicting version purges.
        c.insert(key_reads("joined", &[("p", 5), ("q", 9)]), plan());
        assert!(c.get(&key_reads("over_p", &[("p", 3)])).is_none());
        assert!(c.get(&key_reads("over_q", &[("q", 9)])).is_some());
    }

    #[test]
    fn lru_evicts_oldest() {
        let c = PlanCache::with_capacity(2);
        c.insert(key("a", 0), plan());
        c.insert(key("b", 0), plan());
        assert!(c.get(&key("a", 0)).is_some()); // refresh a
        c.insert(key("c", 0), plan()); // evicts b
        assert!(c.get(&key("a", 0)).is_some());
        assert!(c.get(&key("b", 0)).is_none());
        assert!(c.get(&key("c", 0)).is_some());
    }

    #[test]
    fn strategy_partitions_the_key_space() {
        let c = PlanCache::with_capacity(8);
        c.insert(key("q", 0), plan());
        let mut k2 = key("q", 0);
        k2.strategy = Strategy::Classical;
        assert!(c.get(&k2).is_none());
    }

    #[test]
    fn clear_empties_without_counting_evictions() {
        let c = PlanCache::with_capacity(4);
        c.insert(key("a", 0), plan());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.stats().approx_bytes, 0);
    }
}
