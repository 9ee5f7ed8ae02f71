//! Mutation deltas: the per-relation change sets captured at the WAL
//! commit point and consumed by incremental view maintenance.
//!
//! Every committed catalog mutation maps to one [`MutationDelta`] — the
//! set of tuples the mutation added to and removed from one relation.
//! Because set semantics make inserts of present tuples and removes of
//! absent tuples no-ops, a delta is captured *against the pre-mutation
//! extent*: a duplicate insert yields an empty delta, and a `Replace`
//! yields exactly the symmetric difference between old and new contents.

use crate::wal::WalOp;
use crate::{Relation, Tuple};

/// The change one committed mutation made to one relation: disjoint
/// inserted / removed tuple sets relative to the pre-mutation extent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MutationDelta {
    /// The mutated relation.
    pub relation: String,
    /// Tuples present after the mutation but not before.
    pub inserted: Vec<Tuple>,
    /// Tuples present before the mutation but not after.
    pub removed: Vec<Tuple>,
}

impl MutationDelta {
    /// A delta for one freshly inserted tuple.
    pub fn inserted_tuple(relation: impl Into<String>, t: Tuple) -> Self {
        MutationDelta {
            relation: relation.into(),
            inserted: vec![t],
            removed: Vec::new(),
        }
    }

    /// A delta for one removed tuple.
    pub fn removed_tuple(relation: impl Into<String>, t: Tuple) -> Self {
        MutationDelta {
            relation: relation.into(),
            inserted: Vec::new(),
            removed: vec![t],
        }
    }

    /// The delta of replacing `old`'s extent with `new_tuples` (a relation
    /// or a tuple list): the symmetric difference of the two tuple sets.
    pub fn replaced<'a>(
        relation: impl Into<String>,
        old: &Relation,
        new_tuples: impl IntoIterator<Item = &'a Tuple>,
    ) -> Self {
        // Probe through a set on both sides: a linear `slice::contains`
        // here turns every view recompute into an O(|old|·|new|) diff.
        let mut new_set = std::collections::HashSet::<&Tuple>::new();
        let mut inserted = Vec::new();
        for t in new_tuples {
            if new_set.insert(t) && !old.contains(t) {
                inserted.push(t.clone());
            }
        }
        let removed = old
            .iter()
            .filter(|t| !new_set.contains(t))
            .cloned()
            .collect();
        MutationDelta {
            relation: relation.into(),
            inserted,
            removed,
        }
    }

    /// Capture the delta of a WAL operation at its commit point, given the
    /// relation's pre-mutation extent (`None` when the relation did not
    /// exist yet). Returns `None` for operations that change no tuples —
    /// `CreateRelation`, a duplicate insert, a remove of an absent tuple,
    /// or a no-op replace.
    pub fn from_wal_op(op: &WalOp, old: Option<&Relation>) -> Option<Self> {
        let delta = match op {
            WalOp::CreateRelation { .. } => return None,
            WalOp::Insert { relation, tuple } => {
                if old.is_some_and(|r| r.contains(tuple)) {
                    return None;
                }
                MutationDelta::inserted_tuple(relation.clone(), tuple.clone())
            }
            WalOp::Remove { relation, tuple } => {
                if !old.is_some_and(|r| r.contains(tuple)) {
                    return None;
                }
                MutationDelta::removed_tuple(relation.clone(), tuple.clone())
            }
            WalOp::Replace {
                relation, tuples, ..
            } => match old {
                Some(old) => MutationDelta::replaced(relation.clone(), old, tuples),
                None => MutationDelta {
                    relation: relation.clone(),
                    inserted: tuples.clone(),
                    removed: Vec::new(),
                },
            },
            WalOp::AddRelation {
                relation, tuples, ..
            } => MutationDelta {
                relation: relation.clone(),
                inserted: tuples.clone(),
                removed: Vec::new(),
            },
        };
        (!delta.is_empty()).then_some(delta)
    }

    /// Did the mutation change anything?
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.removed.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{tuple, Schema};

    fn rel(tuples: &[Tuple]) -> Relation {
        let mut r = Relation::new("p", Schema::anonymous(1));
        for t in tuples {
            r.insert(t.clone()).unwrap();
        }
        r
    }

    #[test]
    fn duplicate_insert_and_absent_remove_are_empty() {
        let r = rel(&[tuple![1]]);
        let dup = WalOp::Insert {
            relation: "p".into(),
            tuple: tuple![1],
        };
        assert_eq!(MutationDelta::from_wal_op(&dup, Some(&r)), None);
        let absent = WalOp::Remove {
            relation: "p".into(),
            tuple: tuple![2],
        };
        assert_eq!(MutationDelta::from_wal_op(&absent, Some(&r)), None);
    }

    #[test]
    fn fresh_insert_and_present_remove_capture() {
        let r = rel(&[tuple![1]]);
        let ins = WalOp::Insert {
            relation: "p".into(),
            tuple: tuple![2],
        };
        let d = MutationDelta::from_wal_op(&ins, Some(&r)).unwrap();
        assert_eq!(d.inserted, vec![tuple![2]]);
        assert!(d.removed.is_empty());
        let rm = WalOp::Remove {
            relation: "p".into(),
            tuple: tuple![1],
        };
        let d = MutationDelta::from_wal_op(&rm, Some(&r)).unwrap();
        assert_eq!(d.removed, vec![tuple![1]]);
    }

    #[test]
    fn replace_is_symmetric_difference() {
        let r = rel(&[tuple![1], tuple![2]]);
        let op = WalOp::Replace {
            relation: "p".into(),
            attrs: vec!["a".into()],
            tuples: vec![tuple![2], tuple![3]],
        };
        let d = MutationDelta::from_wal_op(&op, Some(&r)).unwrap();
        assert_eq!(d.inserted, vec![tuple![3]]);
        assert_eq!(d.removed, vec![tuple![1]]);
        // Replacing with identical contents is a no-op delta.
        let noop = WalOp::Replace {
            relation: "p".into(),
            attrs: vec!["a".into()],
            tuples: vec![tuple![1], tuple![2]],
        };
        assert_eq!(MutationDelta::from_wal_op(&noop, Some(&r)), None);
    }

    #[test]
    fn create_has_no_delta() {
        let op = WalOp::CreateRelation {
            name: "p".into(),
            attrs: vec!["a".into()],
        };
        assert_eq!(MutationDelta::from_wal_op(&op, None), None);
    }
}
