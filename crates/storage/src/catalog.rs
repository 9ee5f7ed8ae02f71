//! The database catalog: a name → relation mapping.

use crate::{Relation, Schema, StorageError, Tuple};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An in-memory database: a catalog of named user relations.
///
/// Relations are stored in a `BTreeMap` so iteration (EXPLAIN output, the
/// `dom` view, dumps) is deterministic.
///
/// Every mutation (create/add/replace/insert/remove) bumps the catalog
/// [`epoch`](Database::epoch). Consumers that cache anything derived from
/// catalog contents — plans, indexes, estimates — key their entries on the
/// epoch and treat a changed epoch as invalidation.
///
/// Relation values are held behind `Arc`, making the catalog a
/// copy-on-write structure: `Database::clone` is a map of refcount bumps,
/// so a snapshot of the whole database costs O(relations), not O(tuples).
/// Mutations go through [`Arc::make_mut`]; when an older snapshot still
/// holds the previous version, that clones the [`Relation`] — which shares
/// its chunks and shards — and the write then copies the one chunk and the
/// one shard it touches, never the relation's tuples. This is the
/// substrate for MVCC snapshot isolation: readers keep an epoch-stamped
/// clone while writers advance the live catalog.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: BTreeMap<String, Arc<Relation>>,
    /// Monotone mutation counter; see [`Database::epoch`].
    epoch: u64,
    /// Per-relation version stamps: the epoch of each relation's last
    /// mutation. Lets caches invalidate on exactly the relations a plan
    /// reads instead of on every catalog mutation.
    versions: BTreeMap<String, u64>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The catalog epoch: a counter bumped by every mutation. Two equal
    /// epochs on the same `Database` value guarantee the catalog has not
    /// changed in between, so anything derived from its contents (cached
    /// plans, indexes) is still valid.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Restore a persisted epoch (text-format header, WAL replay). Only
    /// the persistence and durability layers may rewind or fast-forward
    /// the counter — everything else sees a strictly monotone epoch. A
    /// rewind also lowers every version stamp above `epoch` to it, so no
    /// relation is stamped later than the catalog.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        if epoch < self.epoch {
            for v in self.versions.values_mut() {
                *v = (*v).min(epoch);
            }
        }
        self.epoch = epoch;
    }

    /// The version stamp of one relation: the catalog epoch of its last
    /// mutation (0 for relations the catalog does not know). Two equal
    /// stamps for the same name guarantee that relation's extent has not
    /// changed in between, even if unrelated relations have — the
    /// fine-grained counterpart of [`Database::epoch`] for read-set-keyed
    /// caches.
    pub fn relation_version(&self, name: &str) -> u64 {
        self.versions.get(name).copied().unwrap_or(0)
    }

    /// Register an empty relation with the given schema.
    pub fn create_relation(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
    ) -> Result<(), StorageError> {
        let name = name.into();
        if self.relations.contains_key(&name) {
            return Err(StorageError::RelationExists(name));
        }
        self.relations
            .insert(name.clone(), Arc::new(Relation::new(name.clone(), schema)));
        self.epoch += 1;
        self.versions.insert(name, self.epoch);
        Ok(())
    }

    /// Register a pre-built relation under its own name.
    pub fn add_relation(&mut self, relation: Relation) -> Result<(), StorageError> {
        self.add_relation_arc(Arc::new(relation))
    }

    /// Register a pre-built shared relation under its own name without
    /// copying tuples — the catalog takes a refcount on the given handle.
    /// This is how delta databases register `name@old` / `name@+` extents
    /// in O(1) per relation.
    pub fn add_relation_arc(&mut self, relation: Arc<Relation>) -> Result<(), StorageError> {
        let name = relation.name().to_string();
        if self.relations.contains_key(&name) {
            return Err(StorageError::RelationExists(name));
        }
        self.relations.insert(name.clone(), relation);
        self.epoch += 1;
        self.versions.insert(name, self.epoch);
        Ok(())
    }

    /// Register or overwrite a relation under its own name.
    pub fn replace_relation(&mut self, relation: Relation) {
        self.replace_relation_arc(Arc::new(relation));
    }

    /// [`Database::replace_relation`] without copying tuples: the catalog
    /// takes a refcount on the given handle.
    pub fn replace_relation_arc(&mut self, relation: Arc<Relation>) {
        let name = relation.name().to_string();
        self.relations.insert(name.clone(), relation);
        self.epoch += 1;
        self.versions.insert(name, self.epoch);
    }

    /// Insert a tuple into a named relation. Copy-on-write: if a snapshot
    /// still references the relation's current version, the new version
    /// copies the last chunk and one shard and shares the rest with it;
    /// the snapshot keeps the old version untouched.
    pub fn insert(&mut self, relation: &str, t: Tuple) -> Result<bool, StorageError> {
        let inserted = Arc::make_mut(
            self.relations
                .get_mut(relation)
                .ok_or_else(|| StorageError::UnknownRelation(relation.to_string()))?,
        )
        .insert(t)?;
        self.epoch += 1;
        self.versions.insert(relation.to_string(), self.epoch);
        Ok(inserted)
    }

    /// Remove a tuple from a named relation. Returns whether it was
    /// present. Copy-on-write like [`Database::insert`].
    pub fn remove(&mut self, relation: &str, t: &Tuple) -> Result<bool, StorageError> {
        let removed = Arc::make_mut(
            self.relations
                .get_mut(relation)
                .ok_or_else(|| StorageError::UnknownRelation(relation.to_string()))?,
        )
        .remove(t);
        self.epoch += 1;
        self.versions.insert(relation.to_string(), self.epoch);
        Ok(removed)
    }

    /// Look up a relation.
    pub fn relation(&self, name: &str) -> Result<&Relation, StorageError> {
        self.relations
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Look up a relation's shared handle. The `Arc` outlives this
    /// `Database` value, so executors can pin a build side across worker
    /// threads without copying tuples.
    pub fn relation_arc(&self, name: &str) -> Result<Arc<Relation>, StorageError> {
        self.relations
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// True iff the catalog knows this relation.
    pub fn has_relation(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Iterate over all relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values().map(Arc::as_ref)
    }

    /// All relation names in order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Total number of stored tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// The *database domain* (Domain Closure Assumption, §2.1): the unary
    /// relation of all values occurring anywhere in the database. The paper
    /// uses this as the `dom` view when a negated variable has no explicit
    /// range.
    pub fn domain(&self) -> Relation {
        self.domain_except(|_| false)
    }

    /// [`Database::domain`] over every relation whose name `skip`
    /// rejects.
    pub fn domain_except(&self, skip: impl Fn(&str) -> bool) -> Relation {
        let mut dom = Relation::intermediate(1);
        for r in self.relations.values().filter(|r| !skip(r.name())) {
            for t in r.iter() {
                for v in t.values() {
                    let _ = dom.insert(Tuple::new(vec![v.clone()]));
                }
            }
        }
        dom
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn create_insert_lookup() {
        let mut db = Database::new();
        db.create_relation("student", Schema::new(vec!["name"]).unwrap())
            .unwrap();
        db.insert("student", tuple!["anna"]).unwrap();
        assert_eq!(db.relation("student").unwrap().len(), 1);
        assert!(db.has_relation("student"));
        assert!(!db.has_relation("prof"));
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut db = Database::new();
        db.create_relation("r", Schema::anonymous(1)).unwrap();
        assert!(matches!(
            db.create_relation("r", Schema::anonymous(2)),
            Err(StorageError::RelationExists(_))
        ));
    }

    #[test]
    fn unknown_relation_errors() {
        let mut db = Database::new();
        assert!(matches!(
            db.insert("ghost", tuple![1]),
            Err(StorageError::UnknownRelation(_))
        ));
        assert!(db.relation("ghost").is_err());
    }

    #[test]
    fn replace_relation_overwrites() {
        let mut db = Database::new();
        db.create_relation("r", Schema::anonymous(1)).unwrap();
        db.insert("r", tuple![1]).unwrap();
        let mut fresh = Relation::new("r", Schema::anonymous(1));
        fresh.insert(tuple![2]).unwrap();
        db.replace_relation(fresh);
        assert!(db.relation("r").unwrap().contains(&tuple![2]));
        assert!(!db.relation("r").unwrap().contains(&tuple![1]));
    }

    #[test]
    fn remove_through_catalog() {
        let mut db = Database::new();
        db.create_relation("p", Schema::anonymous(1)).unwrap();
        db.insert("p", tuple![1]).unwrap();
        assert!(db.remove("p", &tuple![1]).unwrap());
        assert!(!db.remove("p", &tuple![1]).unwrap());
        assert!(db.remove("ghost", &tuple![1]).is_err());
    }

    #[test]
    fn domain_collects_all_values() {
        let mut db = Database::new();
        db.create_relation("p", Schema::anonymous(2)).unwrap();
        db.insert("p", tuple!["a", 1]).unwrap();
        db.insert("p", tuple!["b", 1]).unwrap();
        let dom = db.domain();
        assert_eq!(dom.len(), 3); // a, b, 1
        assert!(dom.contains(&tuple![1]));
        db.create_relation("q", Schema::anonymous(1)).unwrap();
        db.insert("q", tuple![7]).unwrap();
        assert_eq!(db.domain().len(), 4);
        assert_eq!(db.domain_except(|name| name == "q"), dom);
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let mut db = Database::new();
        assert_eq!(db.epoch(), 0);
        db.create_relation("p", Schema::anonymous(1)).unwrap();
        let after_create = db.epoch();
        assert!(after_create > 0);
        db.insert("p", tuple![1]).unwrap();
        let after_insert = db.epoch();
        assert!(after_insert > after_create);
        db.remove("p", &tuple![1]).unwrap();
        let after_remove = db.epoch();
        assert!(after_remove > after_insert);
        db.replace_relation(Relation::new("p", Schema::anonymous(1)));
        let after_replace = db.epoch();
        assert!(after_replace > after_remove);
        db.add_relation(Relation::new("q", Schema::anonymous(1)))
            .unwrap();
        assert!(db.epoch() > after_replace);
    }

    #[test]
    fn epoch_unchanged_on_failed_mutation() {
        let mut db = Database::new();
        db.create_relation("p", Schema::anonymous(1)).unwrap();
        let before = db.epoch();
        assert!(db.create_relation("p", Schema::anonymous(1)).is_err());
        assert!(db.insert("ghost", tuple![1]).is_err());
        assert!(db.remove("ghost", &tuple![1]).is_err());
        assert_eq!(db.epoch(), before);
    }

    #[test]
    fn epoch_unchanged_by_reads() {
        let mut db = Database::new();
        db.create_relation("p", Schema::anonymous(1)).unwrap();
        db.insert("p", tuple![1]).unwrap();
        let before = db.epoch();
        let _ = db.relation("p");
        let _ = db.domain();
        let _ = db.total_tuples();
        assert_eq!(db.epoch(), before);
    }

    #[test]
    fn snapshot_clone_is_isolated_from_later_mutations() {
        let mut db = Database::new();
        db.create_relation("p", Schema::anonymous(1)).unwrap();
        db.insert("p", tuple![1]).unwrap();
        let snap = db.clone();
        let snap_epoch = snap.epoch();
        db.insert("p", tuple![2]).unwrap();
        db.remove("p", &tuple![1]).unwrap();
        db.create_relation("q", Schema::anonymous(1)).unwrap();
        // The snapshot still sees exactly the state at clone time.
        assert_eq!(snap.epoch(), snap_epoch);
        assert_eq!(snap.relation("p").unwrap().len(), 1);
        assert!(snap.relation("p").unwrap().contains(&tuple![1]));
        assert!(!snap.has_relation("q"));
        // The live catalog moved on.
        assert!(db.relation("p").unwrap().contains(&tuple![2]));
        assert!(!db.relation("p").unwrap().contains(&tuple![1]));
    }

    #[test]
    fn clone_shares_relation_storage_until_mutated() {
        let mut db = Database::new();
        db.create_relation("p", Schema::anonymous(1)).unwrap();
        db.create_relation("q", Schema::anonymous(1)).unwrap();
        db.insert("p", tuple![1]).unwrap();
        let snap = db.clone();
        // Unmutated relations share the same allocation across clones.
        assert!(std::ptr::eq(
            snap.relation("p").unwrap(),
            db.relation("p").unwrap()
        ));
        db.insert("p", tuple![2]).unwrap();
        // The mutated relation diverged; the untouched one still shares.
        assert!(!std::ptr::eq(
            snap.relation("p").unwrap(),
            db.relation("p").unwrap()
        ));
        assert!(std::ptr::eq(
            snap.relation("q").unwrap(),
            db.relation("q").unwrap()
        ));
    }

    #[test]
    fn relation_arc_outlives_database() {
        let mut db = Database::new();
        db.create_relation("p", Schema::anonymous(1)).unwrap();
        db.insert("p", tuple![7]).unwrap();
        let arc = db.relation_arc("p").unwrap();
        drop(db);
        assert!(arc.contains(&tuple![7]));
        assert!(Database::new().relation_arc("ghost").is_err());
    }

    #[test]
    fn relation_versions_track_only_their_relation() {
        let mut db = Database::new();
        db.create_relation("p", Schema::anonymous(1)).unwrap();
        db.create_relation("q", Schema::anonymous(1)).unwrap();
        let p0 = db.relation_version("p");
        let q0 = db.relation_version("q");
        assert!(p0 > 0 && q0 > p0);
        // Mutating q leaves p's stamp alone.
        db.insert("q", tuple![1]).unwrap();
        assert_eq!(db.relation_version("p"), p0);
        assert!(db.relation_version("q") > q0);
        // Mutating p bumps p's stamp to the new epoch.
        db.insert("p", tuple![2]).unwrap();
        assert_eq!(db.relation_version("p"), db.epoch());
        // Unknown relations read as version 0.
        assert_eq!(db.relation_version("ghost"), 0);
    }

    #[test]
    fn add_relation_arc_shares_storage() {
        let mut r = Relation::new("p", Schema::anonymous(1));
        r.insert(tuple![1]).unwrap();
        let arc = Arc::new(r);
        let mut db = Database::new();
        db.add_relation_arc(Arc::clone(&arc)).unwrap();
        assert!(std::ptr::eq(db.relation("p").unwrap(), arc.as_ref()));
        assert!(db.add_relation_arc(arc).is_err());
    }

    #[test]
    fn total_tuples_sums() {
        let mut db = Database::new();
        db.create_relation("p", Schema::anonymous(1)).unwrap();
        db.create_relation("q", Schema::anonymous(1)).unwrap();
        db.insert("p", tuple![1]).unwrap();
        db.insert("q", tuple![2]).unwrap();
        db.insert("q", tuple![3]).unwrap();
        assert_eq!(db.total_tuples(), 3);
    }
}
