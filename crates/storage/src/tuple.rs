//! Tuples (rows) of values.

use crate::Value;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// An immutable row of values.
///
/// Attribute positions are 1-based in the paper (π₁, σ₂₌c); this type uses
/// 0-based indexing like the rest of Rust — the translation layer resolves
/// paper positions to 0-based offsets.
///
/// The values live in one shared, immutable payload: `clone` is a
/// refcount bump, so a relation's rows and membership table, dedup sets,
/// build buffers, captured deltas and every copy-on-write version of a
/// relation hold the same allocation. Equality, ordering and hashing are
/// those of the value slice.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Create a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values.into())
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// True iff the tuple has no attributes (the 0-ary tuple `()`).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Value at 0-based position `i`, if in range.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// Iterate over the values.
    pub fn values(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }

    /// Borrow the underlying slice.
    pub fn as_slice(&self) -> &[Value] {
        &self.0
    }

    /// Copy the values out (the payload may be shared).
    pub fn into_values(self) -> Vec<Value> {
        self.0.to_vec()
    }

    /// Do the two handles share one payload? Identity, not equality: equal
    /// tuples built separately answer `false`.
    pub(crate) fn shares_payload(&self, other: &Tuple) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Project onto the given 0-based positions (π in the paper).
    ///
    /// Panics if a position is out of range; the algebra layer validates
    /// positions against schemas before evaluation.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple(positions.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenate two tuples (used by joins and products).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple(self.0.iter().chain(other.0.iter()).cloned().collect())
    }

    /// Append a single value (used by constrained outer-joins, which extend
    /// the left operand by one marker column).
    pub fn extended_with(&self, v: Value) -> Tuple {
        Tuple(self.0.iter().cloned().chain(std::iter::once(v)).collect())
    }

    /// True iff every attribute is a user value (no `∅`/`⊥` markers).
    pub fn is_user_tuple(&self) -> bool {
        self.0.iter().all(Value::is_user_value)
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

/// Collects straight into the shared payload: an iterator of known length
/// (slices, `map`, `chain`, `once` — what `project`, `concat` and
/// `extended_with` use) makes exactly one allocation.
impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Convenience macro for building tuples in tests and examples:
/// `tuple!["anna", 3]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        <$crate::Tuple as ::std::iter::FromIterator<$crate::Value>>::from_iter(
            [$($crate::Value::from($v)),*],
        )
    };
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn project_selects_positions() {
        let t = tuple!["a", 1, "b"];
        assert_eq!(t.project(&[2, 0]), tuple!["b", "a"]);
        assert_eq!(t.project(&[]), Tuple::new(vec![]));
    }

    #[test]
    fn concat_appends() {
        let t = tuple!["a"].concat(&tuple![1, 2]);
        assert_eq!(t, tuple!["a", 1, 2]);
        assert_eq!(t.arity(), 3);
    }

    #[test]
    fn extended_with_marker() {
        let t = tuple!["a"].extended_with(Value::Matched);
        assert_eq!(t.arity(), 2);
        assert!(t[1].is_matched());
        assert!(!t.is_user_tuple());
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(tuple!["a", 1].to_string(), "(a,1)");
        assert_eq!(Tuple::new(vec![]).to_string(), "()");
    }

    #[test]
    fn clone_shares_the_payload() {
        let t = tuple!["a", 1];
        let c = t.clone();
        assert!(t.shares_payload(&c));
        assert_eq!(t, c);
        // Equal tuples built separately are equal, not identical.
        assert!(!t.shares_payload(&tuple!["a", 1]));
        assert_eq!(t.into_values(), vec![Value::str("a"), Value::int(1)]);
        // The copy taken out left the other handle intact.
        assert_eq!(c, tuple!["a", 1]);
    }

    #[test]
    fn every_constructor_builds_the_same_tuple() {
        let vals = vec![Value::str("a"), Value::int(1)];
        let t = Tuple::new(vals.clone());
        assert_eq!(t, Tuple::from(vals.clone()));
        assert_eq!(t, vals.iter().cloned().collect::<Tuple>());
        assert_eq!(t, tuple!["a", 1]);
        assert_eq!(t.as_slice(), vals.as_slice());
        assert_eq!(t.values().cloned().collect::<Vec<_>>(), vals);
        assert_eq!(Tuple::default(), tuple![]);
        assert!(Tuple::default().is_empty());
    }

    #[test]
    fn hash_and_order_are_those_of_the_values() {
        use std::hash::{BuildHasher, RandomState};
        let state = RandomState::new();
        let vals = vec![Value::str("a"), Value::int(1)];
        assert_eq!(
            state.hash_one(Tuple::new(vals.clone())),
            state.hash_one(&vals)
        );
        let mut ts = vec![tuple!["b", 1], tuple!["a", 2], tuple!["a", 1], tuple!["a"]];
        ts.sort();
        assert_eq!(
            ts,
            vec![tuple!["a"], tuple!["a", 1], tuple!["a", 2], tuple!["b", 1]]
        );
        assert!(tuple![1] < tuple!["a"], "ints order before strings");
    }

    #[test]
    fn indexing_and_get() {
        let t = tuple![10, 20];
        assert_eq!(t[1], Value::int(20));
        assert_eq!(t.get(2), None);
    }
}
