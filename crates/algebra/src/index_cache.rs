//! A cross-query cache of hash indexes over base relations.
//!
//! Join-family operators whose build side is a *base relation scan* can
//! probe a persistent [`HashIndex`](gq_storage::HashIndex) instead of
//! rebuilding a key set per query. The cache is owned by the caller
//! (typically the engine) and shared by every
//! [`Evaluator`](crate::Evaluator) created with
//! [`Evaluator::with_index_cache`](crate::Evaluator). Entries are keyed by
//! the indexed relation's *version stamp*
//! ([`Database::relation_version`]) in the database they were built from,
//! so concurrent readers pinned to different snapshots each resolve to an
//! index that matches their own snapshot — a reader can never probe an
//! index built from a newer (or older) version of the relation — and a
//! write to one relation leaves every other relation's indexes in place.
//! [`retain_current`](IndexCache::retain_current) after a write bounds
//! memory by discarding the indexes of superseded versions; it is not
//! required for correctness.
//!
//! Indexes are handed out as `Arc`s so the morsel-driven parallel kernels
//! (see [`ExecConfig`](crate::ExecConfig)) can probe them from worker
//! threads, and the cache itself is a `Mutex` so sessions on different
//! threads (e.g. `gq-server` connections) can share one engine.

use gq_storage::{Database, HashIndex};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Cache key: relation version stamp + relation name + build columns.
type Key = (u64, String, Vec<usize>);

/// A registry of base-relation hash indexes.
#[derive(Debug, Default)]
pub struct IndexCache {
    inner: Mutex<HashMap<Key, Arc<HashIndex>>>,
}

impl IndexCache {
    /// An empty cache.
    pub fn new() -> Self {
        IndexCache::default()
    }

    /// Lock the map, recovering from a poisoned lock (a panicking query
    /// thread must not wedge every other session's index lookups).
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<Key, Arc<HashIndex>>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The index on `relation`'s `cols` as of the relation's version in
    /// `db`, building (and recording the build cost via `on_build`) only
    /// on first use.
    pub fn get_or_build(
        &self,
        db: &Database,
        relation: &str,
        cols: &[usize],
        on_build: impl FnOnce(usize),
    ) -> Result<Arc<HashIndex>, gq_storage::StorageError> {
        let key = (
            db.relation_version(relation),
            relation.to_string(),
            cols.to_vec(),
        );
        if let Some(idx) = self.lock().get(&key) {
            return Ok(idx.clone());
        }
        #[cfg(feature = "chaos")]
        if let Some(msg) = gq_chaos::fail_index_build(relation) {
            return Err(gq_storage::StorageError::Io(msg));
        }
        let rel = db.relation(relation)?;
        rel.validate_positions(cols)?;
        let idx = Arc::new(HashIndex::build(rel, cols));
        on_build(rel.len());
        // A racing builder may have inserted the same key meanwhile; either
        // index is equivalent (same version ⇒ same relation contents), so
        // the last write simply wins.
        self.lock().insert(key, idx.clone());
        Ok(idx)
    }

    /// Number of cached indexes.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Drop the indexes of relation versions `db` has moved past (call
    /// with the newly published catalog after a write, to bound memory;
    /// version-keyed lookups stay correct either way). Indexes of
    /// relations the write did not touch stay.
    pub fn retain_current(&self, db: &Database) {
        self.lock()
            .retain(|(version, relation, _), _| db.relation_version(relation) == *version);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use gq_storage::{tuple, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation("r", Schema::anonymous(2)).unwrap();
        db.insert("r", tuple![1, 10]).unwrap();
        db.insert("r", tuple![2, 20]).unwrap();
        db
    }

    #[test]
    fn builds_once_per_key() {
        let db = db();
        let cache = IndexCache::new();
        let mut builds = 0;
        let a = cache.get_or_build(&db, "r", &[0], |_| builds += 1).unwrap();
        let b = cache.get_or_build(&db, "r", &[0], |_| builds += 1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds, 1);
        // different columns → different index
        cache.get_or_build(&db, "r", &[1], |_| builds += 1).unwrap();
        assert_eq!(builds, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn retain_current_drops_only_superseded_versions() {
        let mut db = db();
        db.create_relation("s", Schema::anonymous(1)).unwrap();
        let cache = IndexCache::new();
        let r = cache.get_or_build(&db, "r", &[0], |_| {}).unwrap();
        cache.get_or_build(&db, "s", &[0], |_| {}).unwrap();
        cache.retain_current(&db);
        assert_eq!(cache.len(), 2, "nothing moved, nothing dropped");
        db.insert("s", tuple![1]).unwrap();
        cache.retain_current(&db);
        assert_eq!(cache.len(), 1);
        let again = cache.get_or_build(&db, "r", &[0], |_| {}).unwrap();
        assert!(Arc::ptr_eq(&r, &again), "r's index survived the write to s");
    }

    #[test]
    fn unknown_relation_errors() {
        let cache = IndexCache::new();
        assert!(cache.get_or_build(&db(), "ghost", &[0], |_| {}).is_err());
    }

    #[test]
    fn versions_key_distinct_indexes() {
        let mut db = db();
        let cache = IndexCache::new();
        let old = cache.get_or_build(&db, "r", &[0], |_| {}).unwrap();
        let snapshot = db.clone();
        db.insert("r", tuple![3, 30]).unwrap();
        // The mutated catalog resolves to a fresh index at r's new version…
        let new = cache.get_or_build(&db, "r", &[0], |_| {}).unwrap();
        assert!(!Arc::ptr_eq(&old, &new));
        // …while a reader pinned to the old snapshot still gets the old one.
        let pinned = cache.get_or_build(&snapshot, "r", &[0], |_| {}).unwrap();
        assert!(Arc::ptr_eq(&old, &pinned));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<IndexCache>();
    }
}
