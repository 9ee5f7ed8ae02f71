//! Hash indexes over relations.
//!
//! The paper's improved translation maps almost everything onto variants of
//! the join operator ("rely mostly on variants of a same operator, namely
//! the join operator", §4). We implement all join variants by hash probing;
//! this module provides the shared build side.

use crate::{Relation, Tuple, Value};
use std::collections::HashMap;

/// A hash index over a relation's tuples, keyed on a subset of attribute
/// positions.
///
/// Buckets hold handles on the indexed tuples themselves (shared payloads,
/// scan order within a bucket), so the index is self-contained: a probe
/// needs no access to the relation, and the index stays valid — for the
/// version it was built from — however the relation changes afterwards.
#[derive(Debug, Clone)]
pub struct HashIndex {
    key_positions: Vec<usize>,
    buckets: HashMap<Vec<Value>, Vec<Tuple>>,
    entries: usize,
}

impl HashIndex {
    /// Build an index on the given 0-based key positions.
    ///
    /// Positions must have been validated against the relation's schema
    /// (see [`Relation::validate_positions`]).
    pub fn build(relation: &Relation, key_positions: &[usize]) -> Self {
        let mut buckets: HashMap<Vec<Value>, Vec<Tuple>> = HashMap::new();
        for t in relation {
            let key: Vec<Value> = key_positions.iter().map(|&p| t[p].clone()).collect();
            buckets.entry(key).or_default().push(t.clone());
        }
        HashIndex {
            key_positions: key_positions.to_vec(),
            buckets,
            entries: relation.len(),
        }
    }

    /// Key positions this index is built on.
    pub fn key_positions(&self) -> &[usize] {
        &self.key_positions
    }

    /// Number of indexed tuples.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.buckets.len()
    }

    /// The indexed tuples matching the key extracted from `probe_tuple` at
    /// `probe_positions` (positions into the *probe* tuple, pairing with
    /// this index's key positions in order).
    pub fn probe<'a>(&'a self, probe_tuple: &Tuple, probe_positions: &[usize]) -> &'a [Tuple] {
        debug_assert_eq!(probe_positions.len(), self.key_positions.len());
        let key: Vec<Value> = probe_positions
            .iter()
            .map(|&p| probe_tuple[p].clone())
            .collect();
        self.buckets.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True iff any indexed tuple matches the probe key.
    pub fn contains_key_of(&self, probe_tuple: &Tuple, probe_positions: &[usize]) -> bool {
        !self.probe(probe_tuple, probe_positions).is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{tuple, Schema};

    fn sample() -> Relation {
        Relation::with_tuples(
            "attends",
            Schema::new(vec!["student", "lecture"]).unwrap(),
            vec![
                tuple!["anna", "db"],
                tuple!["anna", "os"],
                tuple!["ben", "db"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn probe_finds_all_matches() {
        let r = sample();
        let idx = HashIndex::build(&r, &[0]);
        let probe = tuple!["anna"];
        let matches = idx.probe(&probe, &[0]);
        assert_eq!(matches, [tuple!["anna", "db"], tuple!["anna", "os"]]);
        // The index outlives the version of the relation it was built from.
        drop(r);
        assert_eq!(idx.probe(&tuple!["ben"], &[0]), [tuple!["ben", "db"]]);
    }

    #[test]
    fn probe_misses_absent_key() {
        let r = sample();
        let idx = HashIndex::build(&r, &[1]);
        assert!(idx.probe(&tuple!["math"], &[0]).is_empty());
        assert!(!idx.contains_key_of(&tuple!["math"], &[0]));
    }

    #[test]
    fn composite_keys() {
        let r = sample();
        let idx = HashIndex::build(&r, &[0, 1]);
        assert_eq!(idx.distinct_keys(), 3);
        assert!(idx.contains_key_of(&tuple!["ben", "db"], &[0, 1]));
        assert!(!idx.contains_key_of(&tuple!["ben", "os"], &[0, 1]));
    }

    #[test]
    fn empty_key_indexes_everything_together() {
        let r = sample();
        let idx = HashIndex::build(&r, &[]);
        assert_eq!(idx.probe(&tuple![], &[]).len(), 3);
    }
}
