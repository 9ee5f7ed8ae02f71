//! Database values.
//!
//! The paper's algebra manipulates constants drawn from the database domain,
//! plus two *internal* markers used by the constrained outer-join
//! (Definition 7): the null symbol `∅` and the matched symbol `⊥`. Quoting
//! the paper: "The null symbol ∅ serves only internal purposes: It is not
//! available in the user language" and "Like ∅, ⊥ is not available in the
//! user language". We model both as [`Value`] variants and enforce at the
//! storage layer that user relations never contain them.

use std::fmt;
use std::sync::Arc;

/// A single attribute value.
///
/// `Null` corresponds to the paper's `∅` (outer-join padding) and `Matched`
/// to `⊥` (a disjunct already known to hold, Definition 7). Both are
/// produced only by algebra operators and rejected by
/// [`Relation::insert`](crate::Relation::insert).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// 64-bit signed integer constant.
    Int(i64),
    /// String constant in a shared `Arc<str>`. Not interned: clones of
    /// one value share its text, but equal texts built apart are
    /// separate allocations.
    Str(Arc<str>),
    /// The paper's `∅`: outer-join null padding. Internal only.
    Null,
    /// The paper's `⊥`: "found in an earlier disjunct" marker. Internal only.
    Matched,
}

impl Value {
    /// Build a string value: allocates a fresh `Arc<str>` holding a copy
    /// of the text on every call (no interning).
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// True iff the value is one a user relation may contain.
    pub fn is_user_value(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Str(_))
    }

    /// True iff the value is the outer-join null `∅`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True iff the value is the matched marker `⊥`.
    pub fn is_matched(&self) -> bool {
        matches!(self, Value::Matched)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Null => write!(f, "∅"),
            Value::Matched => write!(f, "⊥"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn user_values_are_user_values() {
        assert!(Value::int(7).is_user_value());
        assert!(Value::str("db").is_user_value());
        assert!(!Value::Null.is_user_value());
        assert!(!Value::Matched.is_user_value());
    }

    #[test]
    fn markers_are_distinct() {
        assert_ne!(Value::Null, Value::Matched);
        assert!(Value::Null.is_null() && !Value::Null.is_matched());
        assert!(Value::Matched.is_matched() && !Value::Matched.is_null());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::int(42).to_string(), "42");
        assert_eq!(Value::str("cs").to_string(), "cs");
        assert_eq!(Value::Null.to_string(), "∅");
        assert_eq!(Value::Matched.to_string(), "⊥");
    }

    #[test]
    fn string_values_compare_by_content() {
        assert_eq!(Value::str("abc"), Value::from("abc"));
        assert_ne!(Value::str("abc"), Value::str("abd"));
    }

    #[test]
    fn ordering_is_total() {
        let mut vs = [
            Value::str("b"),
            Value::Null,
            Value::int(3),
            Value::int(-1),
            Value::str("a"),
            Value::Matched,
        ];
        vs.sort();
        // Ints sort before strings before markers (derive order); stable and total.
        assert_eq!(vs[0], Value::int(-1));
        assert_eq!(vs[1], Value::int(3));
    }
}
