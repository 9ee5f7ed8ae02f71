//! Crash-safe durability: a [`Database`] bound to a directory holding an
//! atomic checkpoint snapshot, an append-only WAL, and a manifest tying
//! the two together.
//!
//! ## Directory layout
//!
//! ```text
//! <dir>/MANIFEST          names the live generation g (atomic rename)
//! <dir>/snapshot-<g>.gq   checkpoint snapshot: text format + CRC trailer
//! <dir>/wal-<g>.log       WAL segment of mutations since snapshot-<g>
//! ```
//!
//! The *generation* number is the unit of atomicity. A checkpoint writes
//! `snapshot-<g+1>` and an empty `wal-<g+1>` first, then atomically
//! renames a new `MANIFEST` over the old one — that rename is the commit
//! point. A crash anywhere before it leaves generation `g` fully intact;
//! a crash after it leaves `g+1` intact. Stale files of either outcome
//! are garbage-collected on the next open.
//!
//! ## Commit protocol
//!
//! Every mutation is validated against the in-memory catalog, appended to
//! the WAL with fsync, and only then applied in memory. The apply step is
//! infallible after validation, so an `Ok` from a mutation means the
//! change is both durable and visible — and an `Err` means it is neither
//! (with one deliberate asymmetry: a crash *after* the WAL write but
//! before the ack can leave a durable-but-unacknowledged record, which
//! recovery replays; that is the standard WAL contract).
//!
//! ## Recovery
//!
//! [`DurableDatabase::open`] loads the manifest's snapshot (verifying its
//! CRC trailer), replays the WAL over it — truncating a torn tail at the
//! first bad record — and enforces that replayed epochs strictly
//! increase. The recovered catalog resumes its epoch sequence past the
//! WAL high-water mark, so epoch-keyed caches (the plan cache) can never
//! confuse pre- and post-crash catalog states.
//!
//! ## Volatile extents
//!
//! A materialized view's extent is derived state: [`DurableDatabase::put_extent`]
//! writes it into the live catalog without a WAL record, and a checkpoint
//! snapshot leaves it out. Recovery therefore never sees an extent — the
//! view is re-defined over the recovered base relations.

use crate::wal::{read_wal, WalOp, WalRecord, WalWriter};
use crate::{crc::crc32, fsutil, persist};
use crate::{Database, Relation, Schema, StorageError, Tuple};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MANIFEST: &str = "MANIFEST";
const MANIFEST_MAGIC: &str = "gq-manifest v1";

fn snapshot_name(generation: u64) -> String {
    format!("snapshot-{generation}.gq")
}

fn wal_name(generation: u64) -> String {
    format!("wal-{generation}.log")
}

/// What [`DurableDatabase::open`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// The live generation after open.
    pub generation: u64,
    /// True when the directory held no manifest and a fresh, empty
    /// database was initialized.
    pub created_fresh: bool,
    /// Catalog epoch restored from the snapshot (0 when fresh).
    pub snapshot_epoch: u64,
    /// WAL records replayed over the snapshot.
    pub wal_records_replayed: u64,
    /// Bytes of torn WAL tail truncated (0 when the log was clean).
    pub torn_bytes: u64,
    /// Catalog epoch after replay — the database resumes from here.
    pub recovered_epoch: u64,
}

impl std::fmt::Display for RecoveryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.created_fresh {
            return write!(f, "initialized fresh database (generation 1)");
        }
        write!(
            f,
            "recovered generation {}: snapshot epoch {}, {} WAL record{} replayed, epoch now {}",
            self.generation,
            self.snapshot_epoch,
            self.wal_records_replayed,
            if self.wal_records_replayed == 1 {
                ""
            } else {
                "s"
            },
            self.recovered_epoch,
        )?;
        if self.torn_bytes > 0 {
            write!(f, ", torn tail of {} byte(s) truncated", self.torn_bytes)?;
        }
        Ok(())
    }
}

/// Result of a [`DurableDatabase::checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// The new live generation.
    pub generation: u64,
    /// Snapshot size in bytes.
    pub snapshot_bytes: u64,
    /// WAL records of the previous generation superseded by the snapshot.
    pub wal_records_folded: u64,
}

/// Running durability counters, mirrored into `durability.*` metrics by
/// the engine layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityStats {
    /// WAL records appended (commits).
    pub wal_appends: u64,
    /// Framed WAL bytes written.
    pub wal_bytes: u64,
    /// fsyncs issued on behalf of this database (approximate under
    /// concurrent databases in one process: measured by deltas of a
    /// process-wide counter).
    pub fsyncs: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Recoveries (opens of an existing directory).
    pub recoveries: u64,
    /// Torn WAL tails truncated during recovery.
    pub torn_tail_truncations: u64,
    /// Records appended since the last checkpoint (resets on checkpoint).
    pub wal_records_since_checkpoint: u64,
}

/// A [`Database`] with crash-safe durability: WAL-before-apply commits,
/// atomic checkpoints, and recovery on open. See the module docs for the
/// on-disk protocol.
#[derive(Debug)]
pub struct DurableDatabase {
    dir: PathBuf,
    db: Database,
    generation: u64,
    wal: WalWriter,
    stats: DurabilityStats,
    /// Relations written by [`DurableDatabase::put_extent`]: in the live
    /// catalog, never in the WAL or a checkpoint snapshot.
    volatile: BTreeSet<String>,
}

impl DurableDatabase {
    /// Open (or initialize) the database persisted in `dir`, replaying
    /// the WAL over the last good snapshot and truncating any torn tail.
    pub fn open(dir: &Path) -> Result<(Self, RecoveryStats), StorageError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StorageError::Io(format!("create {}: {e}", dir.display())))?;
        let fsyncs_before = fsutil::fsyncs_issued();
        let (mut this, recovery) = match read_manifest(&dir.join(MANIFEST))? {
            None => Self::init_fresh(dir)?,
            Some(generation) => Self::recover(dir, generation)?,
        };
        this.stats.fsyncs += fsutil::fsyncs_issued() - fsyncs_before;
        Ok((this, recovery))
    }

    fn init_fresh(dir: &Path) -> Result<(Self, RecoveryStats), StorageError> {
        let db = Database::new();
        let generation = 1;
        write_snapshot(
            &dir.join(snapshot_name(generation)),
            &db,
            &BTreeSet::new(),
            "init.snapshot",
        )?;
        let wal = WalWriter::create(&dir.join(wal_name(generation)))?;
        write_manifest(dir, generation)?;
        let this = DurableDatabase {
            dir: dir.to_path_buf(),
            db,
            generation,
            wal,
            stats: DurabilityStats::default(),
            volatile: BTreeSet::new(),
        };
        let recovery = RecoveryStats {
            generation,
            created_fresh: true,
            ..RecoveryStats::default()
        };
        Ok((this, recovery))
    }

    fn recover(dir: &Path, generation: u64) -> Result<(Self, RecoveryStats), StorageError> {
        let snap_path = dir.join(snapshot_name(generation));
        let db = load_snapshot(&snap_path)?;
        let snapshot_epoch = db.epoch();

        let wal_path = dir.join(wal_name(generation));
        let scan = read_wal(&wal_path)?;
        let mut db = db;
        let mut prev_epoch = snapshot_epoch;
        for rec in &scan.records {
            if rec.epoch <= prev_epoch {
                return Err(StorageError::Io(format!(
                    "wal {}: epoch regression ({} after {})",
                    wal_path.display(),
                    rec.epoch,
                    prev_epoch
                )));
            }
            apply_op(&mut db, &rec.op)?;
            db.set_epoch(rec.epoch);
            prev_epoch = rec.epoch;
        }

        let wal = if wal_path.exists() {
            WalWriter::open_recovered(&wal_path, scan.valid_len, scan.torn())?
        } else {
            // A crash between manifest commit and the first append can in
            // principle lose an un-fsynced empty segment; recreate it.
            WalWriter::create(&wal_path)?
        };

        sweep_stale_files(dir, generation);

        let stats = DurabilityStats {
            recoveries: 1,
            torn_tail_truncations: u64::from(scan.torn()),
            wal_records_since_checkpoint: scan.records.len() as u64,
            ..DurabilityStats::default()
        };
        let recovery = RecoveryStats {
            generation,
            created_fresh: false,
            snapshot_epoch,
            wal_records_replayed: scan.records.len() as u64,
            torn_bytes: scan.torn_bytes,
            recovered_epoch: db.epoch(),
        };
        let this = DurableDatabase {
            dir: dir.to_path_buf(),
            db,
            generation,
            wal,
            stats,
            volatile: BTreeSet::new(),
        };
        Ok((this, recovery))
    }

    /// The recovered/live catalog, read-only.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Insert or replace a materialized view's extent — the one write
    /// that is not durable. No WAL record is appended and no checkpoint
    /// snapshot writes the relation, so it is gone after a reopen. The
    /// caller owns the name: it must not be a base relation's.
    pub fn put_extent(&mut self, extent: Arc<Relation>) {
        self.volatile.insert(extent.name().to_string());
        self.db.replace_relation_arc(extent);
    }

    /// The live generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The directory this database persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Running durability counters.
    pub fn stats(&self) -> DurabilityStats {
        self.stats
    }

    /// Current catalog epoch (same as `db().epoch()`).
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// Append a record for the *next* epoch and fsync — the commit point.
    /// Called only after validation; the in-memory apply that follows
    /// cannot fail.
    fn commit(&mut self, op: WalOp) -> Result<(), StorageError> {
        let fsyncs_before = fsutil::fsyncs_issued();
        let record = WalRecord {
            epoch: self.db.epoch() + 1,
            op,
        };
        let bytes = self.wal.append(&record)?;
        self.stats.wal_appends += 1;
        self.stats.wal_bytes += bytes;
        self.stats.wal_records_since_checkpoint += 1;
        self.stats.fsyncs += fsutil::fsyncs_issued() - fsyncs_before;
        Ok(())
    }

    /// Durable [`Database::create_relation`].
    pub fn create_relation(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
    ) -> Result<(), StorageError> {
        let name = name.into();
        if self.db.has_relation(&name) {
            return Err(StorageError::RelationExists(name));
        }
        let attrs: Vec<String> = schema.attributes().map(String::from).collect();
        self.commit(WalOp::CreateRelation {
            name: name.clone(),
            attrs,
        })?;
        self.db.create_relation(name, schema)
    }

    /// Durable [`Database::add_relation`].
    pub fn add_relation(&mut self, relation: Relation) -> Result<(), StorageError> {
        if self.db.has_relation(relation.name()) {
            return Err(StorageError::RelationExists(relation.name().to_string()));
        }
        let attrs: Vec<String> = relation.schema().attributes().map(String::from).collect();
        let tuples: Vec<Tuple> = relation.iter().cloned().collect();
        self.commit(WalOp::AddRelation {
            relation: relation.name().to_string(),
            attrs,
            tuples,
        })?;
        self.db.add_relation(relation)
    }

    /// Durable [`Database::insert`].
    pub fn insert(&mut self, relation: &str, t: Tuple) -> Result<bool, StorageError> {
        let rel = self.db.relation(relation)?;
        let expected = rel.schema().arity();
        if t.arity() != expected {
            return Err(StorageError::ArityMismatch {
                relation: relation.to_string(),
                expected,
                actual: t.arity(),
            });
        }
        if !t.is_user_tuple() {
            return Err(StorageError::InternalMarkerInUserRelation {
                relation: relation.to_string(),
            });
        }
        self.commit(WalOp::Insert {
            relation: relation.to_string(),
            tuple: t.clone(),
        })?;
        self.db.insert(relation, t)
    }

    /// Durable [`Database::remove`].
    pub fn remove(&mut self, relation: &str, t: &Tuple) -> Result<bool, StorageError> {
        self.db.relation(relation)?;
        self.commit(WalOp::Remove {
            relation: relation.to_string(),
            tuple: t.clone(),
        })?;
        self.db.remove(relation, t)
    }

    /// Take an atomic checkpoint: snapshot the catalog's base relations
    /// (every relation but the volatile extents) to `snapshot-<g+1>.gq`,
    /// start an empty `wal-<g+1>.log`, and commit by atomically
    /// replacing the manifest. A crash anywhere before the manifest
    /// rename leaves generation `g` untouched.
    pub fn checkpoint(&mut self) -> Result<CheckpointStats, StorageError> {
        let fsyncs_before = fsutil::fsyncs_issued();
        let next = self.generation + 1;
        let snap_path = self.dir.join(snapshot_name(next));
        let snapshot_bytes =
            write_snapshot(&snap_path, &self.db, &self.volatile, "checkpoint.snapshot")?;
        let new_wal = WalWriter::create(&self.dir.join(wal_name(next)))?;
        write_manifest(&self.dir, next)?; // commit point
        let old = self.generation;
        self.generation = next;
        self.wal = new_wal;
        let folded = self.stats.wal_records_since_checkpoint;
        self.stats.checkpoints += 1;
        self.stats.wal_records_since_checkpoint = 0;
        self.stats.fsyncs += fsutil::fsyncs_issued() - fsyncs_before;
        // Best-effort: the old generation is superseded; recovery sweeps
        // these too if we die first.
        let _ = std::fs::remove_file(self.dir.join(snapshot_name(old)));
        let _ = std::fs::remove_file(self.dir.join(wal_name(old)));
        Ok(CheckpointStats {
            generation: next,
            snapshot_bytes,
            wal_records_folded: folded,
        })
    }
}

/// Apply one WAL op to the catalog. Replay-time errors mean the log and
/// snapshot disagree semantically — corruption recovery cannot paper
/// over.
fn apply_op(db: &mut Database, op: &WalOp) -> Result<(), StorageError> {
    match op {
        WalOp::CreateRelation { name, attrs } => {
            db.create_relation(name.clone(), Schema::new(attrs.clone())?)
        }
        WalOp::Insert { relation, tuple } => db.insert(relation, tuple.clone()).map(drop),
        WalOp::Remove { relation, tuple } => db.remove(relation, tuple).map(drop),
        WalOp::Replace {
            relation,
            attrs,
            tuples,
        } => {
            let rel = Relation::with_tuples(
                relation.clone(),
                Schema::new(attrs.clone())?,
                tuples.iter().cloned(),
            )?;
            db.replace_relation(rel);
            Ok(())
        }
        WalOp::AddRelation {
            relation,
            attrs,
            tuples,
        } => db.add_relation(Relation::with_tuples(
            relation.clone(),
            Schema::new(attrs.clone())?,
            tuples.iter().cloned(),
        )?),
    }
}

// ------------------------------------------------------------- snapshot

/// Serialize `db` without the relations in `volatile` and write it
/// atomically with a CRC trailer. Returns the snapshot size in bytes.
fn write_snapshot(
    path: &Path,
    db: &Database,
    volatile: &BTreeSet<String>,
    site: &str,
) -> Result<u64, StorageError> {
    let mut text = persist::to_text_except(db, volatile);
    let crc = crc32(text.as_bytes());
    let len = text.len();
    text.push_str(&format!("# crc32 {crc:08x} {len}\n"));
    fsutil::atomic_write(path, text.as_bytes(), site)?;
    Ok(text.len() as u64)
}

/// Load a snapshot, verifying the CRC trailer covers exactly the bytes
/// before it.
fn load_snapshot(path: &Path) -> Result<Database, StorageError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| StorageError::Io(format!("snapshot {}: {e}", path.display())))?;
    let corrupt =
        |why: &str| StorageError::Io(format!("snapshot {} corrupt: {why}", path.display()));
    if !text.ends_with('\n') {
        return Err(corrupt("missing trailer newline"));
    }
    // The trailer is the last (newline-terminated) line; everything
    // before it is the body the CRC covers.
    let trailer_start = text[..text.len() - 1]
        .rfind('\n')
        .map(|i| i + 1)
        .unwrap_or(0);
    let trailer = text[trailer_start..].trim_end();
    let rest = trailer
        .strip_prefix("# crc32 ")
        .ok_or_else(|| corrupt("missing crc trailer"))?;
    let mut parts = rest.split_whitespace();
    let crc_hex = parts.next().ok_or_else(|| corrupt("missing crc value"))?;
    let len_str = parts.next().ok_or_else(|| corrupt("missing length"))?;
    let want_crc = u32::from_str_radix(crc_hex, 16).map_err(|_| corrupt("bad crc value"))?;
    let want_len: usize = len_str.parse().map_err(|_| corrupt("bad length"))?;
    let body = &text[..trailer_start];
    if body.len() != want_len {
        return Err(corrupt(&format!(
            "length mismatch: trailer says {want_len}, body is {}",
            body.len()
        )));
    }
    if crc32(body.as_bytes()) != want_crc {
        return Err(corrupt("crc mismatch"));
    }
    persist::from_text(body).map_err(|e| corrupt(&format!("body does not parse: {e}")))
}

// ------------------------------------------------------------- manifest

fn manifest_text(generation: u64) -> String {
    let line = format!("generation {generation}");
    format!(
        "{MANIFEST_MAGIC}\n{line}\ncrc32 {:08x}\n",
        crc32(line.as_bytes())
    )
}

fn write_manifest(dir: &Path, generation: u64) -> Result<(), StorageError> {
    fsutil::atomic_write(
        &dir.join(MANIFEST),
        manifest_text(generation).as_bytes(),
        "manifest",
    )
}

/// Read the manifest. `Ok(None)` when it does not exist (fresh
/// directory); `Err` when present but malformed — a manifest is written
/// atomically, so a bad one is real corruption, not a crash artifact.
fn read_manifest(path: &Path) -> Result<Option<u64>, StorageError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(StorageError::Io(format!(
                "manifest {}: {e}",
                path.display()
            )))
        }
    };
    let corrupt =
        |why: &str| StorageError::Io(format!("manifest {} corrupt: {why}", path.display()));
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(corrupt("bad magic"));
    }
    let gen_line = lines.next().ok_or_else(|| corrupt("missing generation"))?;
    let generation: u64 = gen_line
        .strip_prefix("generation ")
        .and_then(|g| g.parse().ok())
        .ok_or_else(|| corrupt("bad generation line"))?;
    let crc_line = lines.next().ok_or_else(|| corrupt("missing crc"))?;
    let want = crc_line
        .strip_prefix("crc32 ")
        .and_then(|c| u32::from_str_radix(c, 16).ok())
        .ok_or_else(|| corrupt("bad crc line"))?;
    if crc32(gen_line.as_bytes()) != want {
        return Err(corrupt("crc mismatch"));
    }
    if generation == 0 {
        return Err(corrupt("generation 0"));
    }
    Ok(Some(generation))
}

/// Best-effort removal of files from other generations and leftover
/// `.tmp` files — debris of checkpoints that crashed on either side of
/// the manifest commit.
fn sweep_stale_files(dir: &Path, live: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let keep = [snapshot_name(live), wal_name(live), MANIFEST.to_string()];
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if keep.iter().any(|k| k == name) {
            continue;
        }
        let stale = name.ends_with(".tmp")
            || (name.starts_with("snapshot-") && name.ends_with(".gq"))
            || (name.starts_with("wal-") && name.ends_with(".log"));
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::tuple;

    fn fresh_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gq_durable_{name}"));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn fresh_open_then_reopen_round_trips() {
        let dir = fresh_dir("round_trip");
        {
            let (mut d, rec) = DurableDatabase::open(&dir).unwrap();
            assert!(rec.created_fresh);
            d.create_relation("p", Schema::new(vec!["a", "b"]).unwrap())
                .unwrap();
            d.insert("p", tuple!["x", 1]).unwrap();
            d.insert("p", tuple!["y", 2]).unwrap();
            assert!(d.remove("p", &tuple!["x", 1]).unwrap());
            assert_eq!(d.stats().wal_appends, 4);
        }
        let (d, rec) = DurableDatabase::open(&dir).unwrap();
        assert!(!rec.created_fresh);
        assert_eq!(rec.wal_records_replayed, 4);
        assert_eq!(rec.recovered_epoch, 4);
        let p = d.db().relation("p").unwrap();
        assert_eq!(p.len(), 1);
        assert!(p.contains(&tuple!["y", 2]));
        assert_eq!(d.epoch(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_folds_wal_and_survives_reopen() {
        let dir = fresh_dir("checkpoint");
        {
            let (mut d, _) = DurableDatabase::open(&dir).unwrap();
            d.create_relation("p", Schema::anonymous(1)).unwrap();
            d.insert("p", tuple![1]).unwrap();
            let ck = d.checkpoint().unwrap();
            assert_eq!(ck.generation, 2);
            assert_eq!(ck.wal_records_folded, 2);
            d.insert("p", tuple![2]).unwrap();
            assert_eq!(d.generation(), 2);
            assert!(!dir.join(snapshot_name(1)).exists(), "old snapshot swept");
            assert!(!dir.join(wal_name(1)).exists(), "old wal swept");
        }
        let (d, rec) = DurableDatabase::open(&dir).unwrap();
        assert_eq!(rec.generation, 2);
        assert_eq!(rec.snapshot_epoch, 2);
        assert_eq!(rec.wal_records_replayed, 1);
        assert_eq!(d.epoch(), 3);
        assert_eq!(d.db().relation("p").unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_open() {
        let dir = fresh_dir("torn");
        {
            let (mut d, _) = DurableDatabase::open(&dir).unwrap();
            d.create_relation("p", Schema::anonymous(1)).unwrap();
            d.insert("p", tuple![1]).unwrap();
        }
        // Simulate a mid-append power loss: append garbage to the WAL.
        let wal_path = dir.join(wal_name(1));
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let clean = bytes.len() as u64;
        bytes.extend_from_slice(&[0x2a, 0x00, 0x00, 0x00, 0xff]);
        std::fs::write(&wal_path, &bytes).unwrap();

        let (d, rec) = DurableDatabase::open(&dir).unwrap();
        assert_eq!(rec.torn_bytes, 5);
        assert_eq!(rec.wal_records_replayed, 2);
        assert_eq!(d.stats().torn_tail_truncations, 1);
        assert_eq!(
            std::fs::metadata(&wal_path).unwrap().len(),
            clean,
            "tail physically truncated"
        );
        assert_eq!(d.db().relation("p").unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_is_detected() {
        let dir = fresh_dir("corrupt_snap");
        {
            let (mut d, _) = DurableDatabase::open(&dir).unwrap();
            d.create_relation("p", Schema::anonymous(1)).unwrap();
            d.insert("p", tuple![1]).unwrap();
            d.checkpoint().unwrap();
        }
        let snap = dir.join(snapshot_name(2));
        let mut text = std::fs::read_to_string(&snap).unwrap();
        // Flip a byte inside the body without touching the trailer.
        let flip = text.find("relation").unwrap();
        text.replace_range(flip..flip + 1, "X");
        std::fs::write(&snap, &text).unwrap();
        let err = DurableDatabase::open(&dir).unwrap_err();
        match err {
            StorageError::Io(msg) => assert!(msg.contains("corrupt"), "got: {msg}"),
            other => panic!("expected Io, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_mutations_leave_no_wal_trace() {
        let dir = fresh_dir("validate");
        let (mut d, _) = DurableDatabase::open(&dir).unwrap();
        d.create_relation("p", Schema::anonymous(2)).unwrap();
        let appends = d.stats().wal_appends;
        assert!(matches!(
            d.insert("p", tuple![1]),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert!(matches!(
            d.insert("ghost", tuple![1, 2]),
            Err(StorageError::UnknownRelation(_))
        ));
        assert!(matches!(
            d.create_relation("p", Schema::anonymous(1)),
            Err(StorageError::RelationExists(_))
        ));
        assert!(matches!(
            d.remove("ghost", &tuple![1]),
            Err(StorageError::UnknownRelation(_))
        ));
        assert_eq!(d.stats().wal_appends, appends, "rejected ops must not log");
        assert_eq!(d.epoch(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// No write produces a `Replace` record any more, but a directory
    /// written before that (a `dom` refresh) still holds them: they
    /// replay.
    #[test]
    fn a_logged_replace_still_replays() {
        let dir = fresh_dir("replace");
        {
            let (mut d, _) = DurableDatabase::open(&dir).unwrap();
            d.create_relation("v", Schema::anonymous(1)).unwrap();
            d.insert("v", tuple![1]).unwrap();
            d.commit(WalOp::Replace {
                relation: "v".into(),
                attrs: Schema::anonymous(1)
                    .attributes()
                    .map(String::from)
                    .collect(),
                tuples: vec![tuple![7], tuple![8]],
            })
            .unwrap();
        }
        let (d, _) = DurableDatabase::open(&dir).unwrap();
        let v = d.db().relation("v").unwrap();
        assert_eq!(v.len(), 2);
        assert!(v.contains(&tuple![7]) && v.contains(&tuple![8]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extents_are_neither_logged_nor_checkpointed() {
        let dir = fresh_dir("extent");
        {
            let (mut d, _) = DurableDatabase::open(&dir).unwrap();
            d.create_relation("p", Schema::anonymous(1)).unwrap();
            d.insert("p", tuple![1]).unwrap();
            let appends = d.stats().wal_appends;
            let extent =
                Relation::with_tuples("mv", Schema::anonymous(1), vec![tuple![1]]).unwrap();
            d.put_extent(Arc::new(extent));
            assert_eq!(
                d.stats().wal_appends,
                appends,
                "an extent write is not logged"
            );
            assert_eq!(d.db().relation("mv").unwrap().len(), 1);
            d.checkpoint().unwrap();
            // Numbered past the extent write's epoch: replays in order.
            d.insert("p", tuple![2]).unwrap();
        }
        let (d, rec) = DurableDatabase::open(&dir).unwrap();
        assert_eq!(rec.wal_records_replayed, 1);
        assert!(!d.db().has_relation("mv"), "a checkpoint wrote the extent");
        assert_eq!(d.db().relation("p").unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_is_monotone_across_recovery() {
        let dir = fresh_dir("epoch");
        let pre_crash_epoch;
        {
            let (mut d, _) = DurableDatabase::open(&dir).unwrap();
            d.create_relation("p", Schema::anonymous(1)).unwrap();
            for i in 0..5 {
                d.insert("p", tuple![i]).unwrap();
            }
            pre_crash_epoch = d.epoch();
        }
        let (mut d, rec) = DurableDatabase::open(&dir).unwrap();
        assert_eq!(rec.recovered_epoch, pre_crash_epoch);
        d.insert("p", tuple![99]).unwrap();
        assert!(d.epoch() > pre_crash_epoch);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let dir = fresh_dir("manifest");
        std::fs::create_dir_all(&dir).unwrap();
        write_manifest(&dir, 7).unwrap();
        assert_eq!(read_manifest(&dir.join(MANIFEST)).unwrap(), Some(7));
        std::fs::write(
            dir.join(MANIFEST),
            "gq-manifest v1\ngeneration 8\ncrc32 00000000\n",
        )
        .unwrap();
        assert!(read_manifest(&dir.join(MANIFEST)).is_err());
        assert_eq!(read_manifest(&dir.join("NO_SUCH_MANIFEST")).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_generation_files_are_swept_on_open() {
        let dir = fresh_dir("sweep");
        {
            let (mut d, _) = DurableDatabase::open(&dir).unwrap();
            d.create_relation("p", Schema::anonymous(1)).unwrap();
        }
        // Debris a crashed checkpoint could leave behind.
        std::fs::write(dir.join("snapshot-9.gq"), "junk").unwrap();
        std::fs::write(dir.join("wal-9.log"), "junk").unwrap();
        std::fs::write(dir.join("MANIFEST.tmp"), "junk").unwrap();
        let (_d, _) = DurableDatabase::open(&dir).unwrap();
        assert!(!dir.join("snapshot-9.gq").exists());
        assert!(!dir.join("wal-9.log").exists());
        assert!(!dir.join("MANIFEST.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
