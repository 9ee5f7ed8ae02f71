//! Relations: named sets of tuples.

use crate::{Schema, StorageError, Tuple, Value};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::sync::{Arc, OnceLock};

/// Rows per chunk. A constant, not a knob, and equal to the executor's
/// default morsel size: a scan's morsel is then one whole chunk, and a
/// write copies at most this many tuple handles.
const CHUNK_ROWS: usize = 1024;

/// Membership entries one shard holds before the directory doubles — two
/// chunks' worth, so a relation of up to two chunks (every small
/// intermediate) has exactly one shard and never pays for a split.
const SHARD_ROWS: usize = 2 * CHUNK_ROWS;

/// A membership key: the tuple with its hash, computed once per
/// `insert` / `contains` / `remove` and reused to pick the shard, to find
/// the slot and whenever a table grows or a shard splits.
#[derive(Clone, Debug)]
struct Hashed {
    hash: u64,
    tuple: Tuple,
}

impl Hashed {
    fn new(tuple: Tuple) -> Self {
        // One process-wide randomly keyed SipHash state: shards are shared
        // between versions of a relation, so every version must hash
        // alike, and tuples arrive from outside the program, so the keys
        // stay secret.
        static STATE: OnceLock<RandomState> = OnceLock::new();
        let hash = STATE.get_or_init(RandomState::new).hash_one(&tuple);
        Hashed { hash, tuple }
    }
}

impl PartialEq for Hashed {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.tuple == other.tuple
    }
}
impl Eq for Hashed {}

impl Hash for Hashed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hands a [`Hashed`] key's precomputed hash through to the table.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("a Hashed key writes exactly one u64")
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One shard of the membership table: tuple → number of the chunk that
/// holds its row.
type Shard = HashMap<Hashed, u32, BuildHasherDefault<PassThrough>>;

/// A relation: a *set* of tuples over a schema.
///
/// The paper works in the pure (set-semantics) relational model, so
/// duplicate inserts are ignored. Tuples are additionally kept in insertion
/// order, which makes scans deterministic — important for reproducible
/// benchmarks and for the exact-table tests of Figures 2–4.
///
/// A relation is either a *user* relation (created by [`Relation::new`];
/// the internal outer-join markers `∅`/`⊥` are rejected at insert, per the
/// paper: "not available in the user language") or an *intermediate* result
/// (created by [`Relation::intermediate`]; markers allowed).
///
/// # Layout
///
/// Rows are kept in chunks of at most 1 024 (only the last chunk is
/// appended to), membership in hash shards whose directory doubles as the
/// relation grows; every chunk and every shard sits behind its own `Arc`,
/// and a row and its membership key are two handles on one [`Tuple`]
/// payload. So `clone` bumps ⌈n/1024⌉ + #shards refcounts and visits no
/// tuple, and a mutation of a clone copies the one chunk and the one shard
/// it touches — the two versions share everything else. That is what makes
/// a copy-on-write catalog write O(chunk) instead of O(relation).
///
/// `remove` deletes the row from its chunk in place (`Vec::remove`
/// semantics, so iteration order is exactly what a flat vector would
/// give). There are no tombstones and no compaction: a chunk's number is
/// its position and the shards store it, so an emptied inner chunk stays
/// behind as an empty slot rather than renumbering its successors.
#[derive(Clone, Debug)]
pub struct Relation {
    name: String,
    schema: Schema,
    chunks: Vec<Arc<Vec<Tuple>>>,
    /// Empty until the first insert, then a power of two; a key lives in
    /// shard `(hash >> 32) & (len − 1)` — bits the tables themselves (low
    /// bits for the slot, top seven for the tag) do not use.
    shards: Vec<Arc<Shard>>,
    len: usize,
    allow_markers: bool,
}

/// Iterator over a relation's tuples in insertion order.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    chunks: std::slice::Iter<'a, Arc<Vec<Tuple>>>,
    run: std::slice::Iter<'a, Tuple>,
    left: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        loop {
            if let Some(t) = self.run.next() {
                self.left -= 1;
                return Some(t);
            }
            self.run = self.chunks.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl Relation {
    fn empty(name: String, schema: Schema, allow_markers: bool) -> Self {
        Relation {
            name,
            schema,
            chunks: Vec::new(),
            shards: Vec::new(),
            len: 0,
            allow_markers,
        }
    }

    /// Create an empty *user* relation.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Relation::empty(name.into(), schema, false)
    }

    /// Create an empty *intermediate* relation of the given arity; the
    /// internal markers `∅`/`⊥` are permitted.
    pub fn intermediate(arity: usize) -> Self {
        Relation::empty(String::new(), Schema::anonymous(arity), true)
    }

    /// Create an empty *named* intermediate relation: markers permitted
    /// like [`Relation::intermediate`], but addressable through a catalog
    /// (delta databases register `r@old` / `r@+` / `r@-` extents this way).
    pub fn named_intermediate(name: impl Into<String>, arity: usize) -> Self {
        Relation::empty(name.into(), Schema::anonymous(arity), true)
    }

    /// Create a user relation and bulk-load tuples, failing on the first
    /// invalid tuple.
    pub fn with_tuples(
        name: impl Into<String>,
        schema: Schema,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, StorageError> {
        let mut r = Relation::new(name, schema);
        for t in tuples {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// Rename the relation (delta databases re-register a pre-mutation
    /// extent under its synthetic `r@old` name).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Relation name (empty for intermediates).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of (distinct) tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shard a key belongs to; `None` while nothing was ever inserted.
    fn shard_of(&self, key: &Hashed) -> Option<usize> {
        let mask = self.shards.len().checked_sub(1)?;
        Some((key.hash >> 32) as usize & mask)
    }

    /// Insert a tuple. Returns `Ok(true)` if the tuple was new, `Ok(false)`
    /// if it was already present (set semantics).
    pub fn insert(&mut self, t: Tuple) -> Result<bool, StorageError> {
        if t.arity() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                relation: self.name.clone(),
                expected: self.schema.arity(),
                actual: t.arity(),
            });
        }
        if !self.allow_markers && !t.is_user_tuple() {
            return Err(StorageError::InternalMarkerInUserRelation {
                relation: self.name.clone(),
            });
        }
        let key = Hashed::new(t);
        let shard = match self.shard_of(&key) {
            Some(shard) => shard,
            None => {
                self.shards.push(Arc::default());
                0
            }
        };
        // Looked up before `make_mut`, so a duplicate copies nothing.
        if self.shards[shard].contains_key(&key) {
            return Ok(false);
        }
        if self.chunks.last().is_none_or(|c| c.len() >= CHUNK_ROWS) {
            // Past the first chunk the relation is known to be large.
            let capacity = if self.chunks.is_empty() {
                0
            } else {
                CHUNK_ROWS
            };
            self.chunks.push(Arc::new(Vec::with_capacity(capacity)));
        }
        let chunk = self.chunks.len() - 1;
        Arc::make_mut(&mut self.chunks[chunk]).push(key.tuple.clone());
        Arc::make_mut(&mut self.shards[shard]).insert(key, chunk as u32);
        self.len += 1;
        if self.len > self.shards.len() * SHARD_ROWS {
            self.double_directory();
        }
        Ok(true)
    }

    /// Split every shard in two on the next hash bit. O(n), and every
    /// shard is new afterwards (older versions keep theirs) — paid once
    /// per doubling of the relation, like a vector's growth. The directory
    /// never shrinks.
    fn double_directory(&mut self) {
        let old = std::mem::take(&mut self.shards);
        let bit = old.len() as u64;
        let split_capacity = SHARD_ROWS / 2 + SHARD_ROWS / 8;
        let mut low: Vec<Arc<Shard>> = Vec::with_capacity(old.len() * 2);
        let mut high: Vec<Arc<Shard>> = Vec::with_capacity(old.len());
        for shard in old {
            let shard = Arc::try_unwrap(shard).unwrap_or_else(|shared| (*shared).clone());
            let mut halves = [
                Shard::with_capacity_and_hasher(split_capacity, Default::default()),
                Shard::with_capacity_and_hasher(split_capacity, Default::default()),
            ];
            for (key, chunk) in shard {
                let half = usize::from((key.hash >> 32) & bit != 0);
                halves[half].insert(key, chunk);
            }
            let [lo, hi] = halves;
            low.push(Arc::new(lo));
            high.push(Arc::new(hi));
        }
        low.append(&mut high);
        self.shards = low;
    }

    /// Remove a tuple. Returns whether it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        let key = Hashed::new(t.clone());
        let Some(shard) = self.shard_of(&key) else {
            return false;
        };
        // Looked up before `make_mut`, so a miss copies nothing.
        let Some((stored, &chunk)) = self.shards[shard].get_key_value(&key) else {
            return false;
        };
        let stored = stored.tuple.clone();
        Arc::make_mut(&mut self.shards[shard]).remove(&key);
        let rows = Arc::make_mut(&mut self.chunks[chunk as usize]);
        // `insert` put two handles on one payload into the shard and the
        // chunk, so the row is found by identity, comparing no values.
        if let Some(pos) = rows.iter().position(|r| r.shares_payload(&stored)) {
            rows.remove(pos);
        }
        if rows.is_empty() {
            // The slot stays (chunk numbers must not shift); its buffer
            // need not.
            *rows = Vec::new();
        }
        self.len -= 1;
        true
    }

    /// Membership test (used by semi-joins and complement-joins when no
    /// index is built).
    pub fn contains(&self, t: &Tuple) -> bool {
        let key = Hashed::new(t.clone());
        self.shard_of(&key)
            .is_some_and(|shard| self.shards[shard].contains_key(&key))
    }

    /// Iterate over tuples in insertion order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            chunks: self.chunks.iter(),
            run: [].iter(),
            left: self.len,
        }
    }

    /// The tuples as contiguous runs, insertion order within and across
    /// runs — what a scan cuts its morsels from. A run holds at most 1 024
    /// tuples and may be empty.
    pub fn runs(&self) -> impl Iterator<Item = &[Tuple]> {
        self.chunks.iter().map(|c| c.as_slice())
    }

    /// Tuples sorted lexicographically — canonical order for comparing
    /// relations irrespective of construction order.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.iter().cloned().collect();
        v.sort();
        v
    }

    /// Set-equality with another relation (same arity and same tuples,
    /// order-insensitive).
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.arity() == other.arity()
            && self.len == other.len
            && self.iter().all(|t| other.contains(t))
    }

    /// Extract the values at `positions` from each tuple as join keys,
    /// validating positions against the schema.
    pub fn validate_positions(&self, positions: &[usize]) -> Result<(), StorageError> {
        for &p in positions {
            if p >= self.arity() {
                return Err(StorageError::PositionOutOfRange {
                    position: p,
                    arity: self.arity(),
                });
            }
        }
        Ok(())
    }

    /// How many `(chunks, shards)` the relation consists of — with
    /// [`Relation::shared_parts_with`], what the structural-sharing tests
    /// count.
    #[doc(hidden)]
    pub fn parts(&self) -> (usize, usize) {
        (self.chunks.len(), self.shards.len())
    }

    /// How many `(chunks, shards)` the two relations hold in common: the
    /// same allocation at the same position.
    #[doc(hidden)]
    pub fn shared_parts_with(&self, other: &Relation) -> (usize, usize) {
        fn shared<T>(a: &[Arc<T>], b: &[Arc<T>]) -> usize {
            a.iter().zip(b).filter(|(x, y)| Arc::ptr_eq(x, y)).count()
        }
        (
            shared(&self.chunks, &other.chunks),
            shared(&self.shards, &other.shards),
        )
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.set_eq(other)
    }
}
impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.name.is_empty() {
            writeln!(f, "<intermediate>{}", self.schema)?;
        } else {
            writeln!(f, "{}{}", self.name, self.schema)?;
        }
        for t in self.sorted_tuples() {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Build an intermediate unary relation from values — convenient in tests.
pub fn unary(values: impl IntoIterator<Item = Value>) -> Relation {
    let mut r = Relation::intermediate(1);
    for v in values {
        // Intermediate relations accept any value; a unary tuple cannot
        // mismatch the arity, so the insert is infallible.
        r.insert(Tuple::new(vec![v])).ok();
    }
    r
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::tuple;

    fn rel2(name: &str) -> Relation {
        Relation::new(name, Schema::new(vec!["a", "b"]).unwrap())
    }

    #[test]
    fn set_semantics_dedup() {
        let mut r = rel2("r");
        assert!(r.insert(tuple!["x", 1]).unwrap());
        assert!(!r.insert(tuple!["x", 1]).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn arity_checked_on_insert() {
        let mut r = rel2("r");
        let e = r.insert(tuple!["x"]).unwrap_err();
        assert!(matches!(e, StorageError::ArityMismatch { .. }));
    }

    #[test]
    fn user_relations_reject_markers() {
        let mut r = rel2("r");
        let t = tuple!["x"].extended_with(Value::Null);
        assert!(matches!(
            r.insert(t),
            Err(StorageError::InternalMarkerInUserRelation { .. })
        ));
    }

    #[test]
    fn intermediates_accept_markers() {
        let mut r = Relation::intermediate(2);
        r.insert(tuple!["x"].extended_with(Value::Matched)).unwrap();
        r.insert(tuple!["y"].extended_with(Value::Null)).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn set_eq_ignores_order() {
        let mut r1 = rel2("r");
        r1.insert(tuple!["x", 1]).unwrap();
        r1.insert(tuple!["y", 2]).unwrap();
        let mut r2 = rel2("s");
        r2.insert(tuple!["y", 2]).unwrap();
        r2.insert(tuple!["x", 1]).unwrap();
        assert!(r1.set_eq(&r2));
        assert_eq!(r1, r2);
    }

    #[test]
    fn remove_then_reinsert() {
        let mut r = rel2("r");
        r.insert(tuple!["x", 1]).unwrap();
        r.insert(tuple!["y", 2]).unwrap();
        r.insert(tuple!["z", 3]).unwrap();
        assert!(r.remove(&tuple!["y", 2]));
        assert!(!r.remove(&tuple!["y", 2]));
        assert_eq!(r.len(), 2);
        assert!(!r.contains(&tuple!["y", 2]));
        // A removed tuple comes back at the end, like in a flat vector.
        assert!(r.insert(tuple!["y", 2]).unwrap());
        let order: Vec<&Tuple> = r.iter().collect();
        assert_eq!(order, [&tuple!["x", 1], &tuple!["z", 3], &tuple!["y", 2]]);
        assert!(!Relation::intermediate(2).remove(&tuple!["x", 1]));
    }

    /// splitmix64 — a deterministic op sequence without a rand crate.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    fn row(v: usize) -> Tuple {
        tuple![v as i64, format!("v{}", v % 13)]
    }

    /// The relation against a plain vector: same length, same membership,
    /// same rows in the same order, through every way of reading them.
    fn assert_matches_model(r: &Relation, model: &[Tuple], domain: usize) {
        assert_eq!(r.len(), model.len());
        assert_eq!(r.is_empty(), model.is_empty());
        assert_eq!(r.iter().len(), model.len());
        assert!(r.iter().eq(model), "iteration order differs from the model");
        assert!(r.into_iter().eq(model));
        assert!(r.runs().flatten().eq(model), "runs differ from the model");
        assert!(r.runs().all(|run| run.len() <= CHUNK_ROWS));
        let members: std::collections::HashSet<&Tuple> = model.iter().collect();
        for v in (0..domain).step_by(7) {
            assert_eq!(r.contains(&row(v)), members.contains(&row(v)), "row {v}");
        }
    }

    /// Random `insert` / `remove` / `contains` / `clone` interleavings
    /// against a `Vec<Tuple>` model (`Vec::remove` semantics), over several
    /// chunks and two directory doublings, with every clone taken on the
    /// way checked again at the end: later mutations of the original must
    /// not show in it (the MVCC contract). Full size in release builds.
    #[test]
    fn random_interleavings_match_a_vec_model() {
        let (rows, ops) = if cfg!(debug_assertions) {
            (4_500, 5_000)
        } else {
            (12_000, 40_000)
        };
        let domain = 2 * rows;
        let mut rng = Rng(0x5eed);
        let mut r = rel2("r");
        let mut model: Vec<Tuple> = Vec::new();
        let mut snapshots: Vec<(Relation, Vec<Tuple>)> = Vec::new();

        // Load, across the doublings at 2 048 and 4 096 rows.
        for v in 0..rows {
            assert!(r.insert(row(v)).unwrap());
            assert!(!r.insert(row(v)).unwrap(), "duplicate accepted");
            model.push(row(v));
            if v % 1_000 == 999 {
                snapshots.push((r.clone(), model.clone()));
            }
        }
        let (chunks, shards) = r.parts();
        assert!(
            chunks >= 3 && shards >= 4,
            "{chunks} chunks, {shards} shards"
        );
        assert_matches_model(&r, &model, domain);

        // Empty a middle chunk: its slot stays, as an empty run.
        snapshots.push((r.clone(), model.clone()));
        for v in CHUNK_ROWS..2 * CHUNK_ROWS {
            assert!(r.remove(&row(v)));
            assert!(!r.remove(&row(v)), "removed twice");
        }
        model.drain(CHUNK_ROWS..2 * CHUNK_ROWS);
        assert_eq!(r.parts().0, chunks);
        assert_eq!(r.runs().nth(1).map(<[Tuple]>::len), Some(0));
        assert_matches_model(&r, &model, domain);
        // A removed tuple comes back at the end, not into its old slot.
        assert!(r.insert(row(CHUNK_ROWS + 5)).unwrap());
        model.push(row(CHUNK_ROWS + 5));
        assert_eq!(r.iter().last(), model.last());

        for op in 0..ops {
            let t = row(rng.below(domain));
            match rng.below(1_000) {
                0..400 => {
                    let fresh = !model.contains(&t);
                    assert_eq!(r.insert(t.clone()).unwrap(), fresh);
                    if fresh {
                        model.push(t);
                    }
                }
                400..750 => {
                    let at = model.iter().position(|m| *m == t);
                    assert_eq!(r.remove(&t), at.is_some());
                    if let Some(at) = at {
                        model.remove(at);
                    }
                }
                750..998 => assert_eq!(r.contains(&t), model.contains(&t)),
                _ => snapshots.push((r.clone(), model.clone())),
            }
            if op % 509 == 0 {
                assert_matches_model(&r, &model, domain);
            }
        }
        assert_matches_model(&r, &model, domain);
        assert!(snapshots.len() > 10);
        for (snapshot, as_taken) in &snapshots {
            assert_matches_model(snapshot, as_taken, domain);
        }

        // Set equality ignores order and layout: the same tuples loaded
        // backwards into fresh chunks.
        let mut backwards = rel2("b");
        for t in model.iter().rev() {
            backwards.insert(t.clone()).unwrap();
        }
        assert!(r.set_eq(&backwards) && backwards.set_eq(&r));
        assert_eq!(r.sorted_tuples(), backwards.sorted_tuples());
        backwards.remove(&model[0]);
        assert!(!r.set_eq(&backwards) && !backwards.set_eq(&r));
        backwards.insert(row(domain)).unwrap();
        assert!(!r.set_eq(&backwards), "same size, different tuples");
    }

    /// `clone` shares every chunk and every shard; a write to either
    /// version then copies the one chunk and the one shard it touches.
    #[test]
    fn versions_share_all_but_the_touched_chunk_and_shard() {
        let mut r = rel2("r");
        for v in 0..5_000 {
            r.insert(row(v)).unwrap();
        }
        let (chunks, shards) = r.parts();
        assert_eq!((chunks, shards), (5, 4));

        let before = r.clone();
        assert_eq!(r.shared_parts_with(&before), (chunks, shards));
        // Writes that change nothing copy nothing.
        assert!(!r.insert(row(17)).unwrap());
        assert!(!r.remove(&row(5_000)));
        assert_eq!(r.shared_parts_with(&before), (chunks, shards));

        assert!(r.insert(row(5_000)).unwrap());
        assert_eq!(r.shared_parts_with(&before), (chunks - 1, shards - 1));

        let inserted = r.clone();
        assert!(r.remove(&row(CHUNK_ROWS + 1))); // from the second chunk
        assert_eq!(r.shared_parts_with(&inserted), (chunks - 1, shards - 1));
        assert!(r.shared_parts_with(&before).0 >= chunks - 2);

        // The older versions never noticed.
        assert_eq!(
            (before.len(), inserted.len(), r.len()),
            (5_000, 5_001, 5_000)
        );
        assert!(before.contains(&row(CHUNK_ROWS + 1)) && !before.contains(&row(5_000)));
        assert!(inserted.contains(&row(CHUNK_ROWS + 1)) && inserted.contains(&row(5_000)));
        assert!(before
            .iter()
            .eq((0..5_000).map(row).collect::<Vec<_>>().iter()));
    }

    #[test]
    fn contains_and_iter() {
        let mut r = rel2("r");
        r.insert(tuple!["x", 1]).unwrap();
        assert!(r.contains(&tuple!["x", 1]));
        assert!(!r.contains(&tuple!["x", 2]));
        assert_eq!(r.iter().count(), 1);
    }

    #[test]
    fn position_validation() {
        let r = rel2("r");
        assert!(r.validate_positions(&[0, 1]).is_ok());
        assert!(r.validate_positions(&[2]).is_err());
    }

    #[test]
    fn unary_helper() {
        let r = unary(vec![Value::str("a"), Value::str("b"), Value::str("a")]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.arity(), 1);
    }
}
