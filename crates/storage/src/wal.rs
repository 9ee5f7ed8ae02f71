//! The write-ahead log: an append-only file of length-prefixed,
//! CRC32-checksummed mutation records.
//!
//! ## On-disk frame format
//!
//! ```text
//! frame   := [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload := [tag: u8] [epoch: u64 LE] [body…]
//! tag 1   CreateRelation   name:str  attrs:vec<str>
//! tag 2   Insert           relation:str  tuple
//! tag 3   Remove           relation:str  tuple
//! tag 4   Replace          relation:str  attrs:vec<str>  tuples:vec<tuple>
//! tag 5   AddRelation      relation:str  attrs:vec<str>  tuples:vec<tuple>
//! str     := [len: u32 LE] [utf8 bytes]
//! vec<T>  := [count: u32 LE] [T…]
//! tuple   := [arity: u32 LE] [value…]
//! value   := 0 [i64 LE] | 1 str
//! ```
//!
//! `epoch` is the catalog epoch *after* the mutation; replay restores it,
//! so a recovered database resumes its epoch sequence past the WAL
//! high-water mark and epoch-keyed caches can never see a replayed epoch
//! collide with a pre-crash one.
//!
//! A crash can leave a partial frame at the tail (torn write) — or, in
//! principle, any trailing garbage. [`scan_wal`] accepts the longest
//! prefix of intact frames and reports where the tail begins;
//! [`WalWriter::open_recovered`] physically truncates the file there.

use crate::crc::crc32;
use crate::fsutil;
use crate::{StorageError, Tuple, Value};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// A logged mutation plus the catalog epoch it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The catalog epoch after this mutation applied.
    pub epoch: u64,
    /// The mutation itself.
    pub op: WalOp,
}

/// One durable catalog mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// `Database::create_relation`.
    CreateRelation {
        /// Relation name.
        name: String,
        /// Schema attribute names in order.
        attrs: Vec<String>,
    },
    /// `Database::insert`.
    Insert {
        /// Target relation.
        relation: String,
        /// The inserted tuple.
        tuple: Tuple,
    },
    /// `Database::remove`.
    Remove {
        /// Target relation.
        relation: String,
        /// The removed tuple.
        tuple: Tuple,
    },
    /// `Database::replace_relation` — the full new contents. No longer
    /// written; directories that hold one still replay it.
    Replace {
        /// Relation name.
        relation: String,
        /// Schema attribute names in order.
        attrs: Vec<String>,
        /// Every tuple of the replacement relation.
        tuples: Vec<Tuple>,
    },
    /// `Database::add_relation` — a pre-built relation registered fresh.
    AddRelation {
        /// Relation name.
        relation: String,
        /// Schema attribute names in order.
        attrs: Vec<String>,
        /// Every tuple of the added relation.
        tuples: Vec<Tuple>,
    },
}

// ---------------------------------------------------------------- encode

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_strs(out: &mut Vec<u8>, items: &[String]) {
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for s in items {
        put_str(out, s);
    }
}

fn put_value(out: &mut Vec<u8>, v: &Value) -> Result<(), StorageError> {
    match v {
        Value::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_le_bytes());
            Ok(())
        }
        Value::Str(s) => {
            out.push(1);
            put_str(out, s);
            Ok(())
        }
        Value::Null | Value::Matched => Err(StorageError::Io(
            "WAL records hold user values only (∅/⊥ cannot be logged)".into(),
        )),
    }
}

fn put_tuple(out: &mut Vec<u8>, t: &Tuple) -> Result<(), StorageError> {
    out.extend_from_slice(&(t.arity() as u32).to_le_bytes());
    for v in t.values() {
        put_value(out, v)?;
    }
    Ok(())
}

fn put_tuples(out: &mut Vec<u8>, tuples: &[Tuple]) -> Result<(), StorageError> {
    out.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
    for t in tuples {
        put_tuple(out, t)?;
    }
    Ok(())
}

impl WalRecord {
    /// Serialize into a framed byte string (`len + crc + payload`).
    /// Fails only if a tuple holds an internal marker value.
    pub fn encode(&self) -> Result<Vec<u8>, StorageError> {
        let mut p = Vec::with_capacity(64);
        match &self.op {
            WalOp::CreateRelation { name, attrs } => {
                p.push(1);
                p.extend_from_slice(&self.epoch.to_le_bytes());
                put_str(&mut p, name);
                put_strs(&mut p, attrs);
            }
            WalOp::Insert { relation, tuple } => {
                p.push(2);
                p.extend_from_slice(&self.epoch.to_le_bytes());
                put_str(&mut p, relation);
                put_tuple(&mut p, tuple)?;
            }
            WalOp::Remove { relation, tuple } => {
                p.push(3);
                p.extend_from_slice(&self.epoch.to_le_bytes());
                put_str(&mut p, relation);
                put_tuple(&mut p, tuple)?;
            }
            WalOp::Replace {
                relation,
                attrs,
                tuples,
            } => {
                p.push(4);
                p.extend_from_slice(&self.epoch.to_le_bytes());
                put_str(&mut p, relation);
                put_strs(&mut p, attrs);
                put_tuples(&mut p, tuples)?;
            }
            WalOp::AddRelation {
                relation,
                attrs,
                tuples,
            } => {
                p.push(5);
                p.extend_from_slice(&self.epoch.to_le_bytes());
                put_str(&mut p, relation);
                put_strs(&mut p, attrs);
                put_tuples(&mut p, tuples)?;
            }
        }
        let mut out = Vec::with_capacity(p.len() + 8);
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&p).to_le_bytes());
        out.extend_from_slice(&p);
        Ok(out)
    }
}

// ---------------------------------------------------------------- decode

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
    }

    fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .and_then(|b| b.try_into().ok())
            .map(i64::from_le_bytes)
    }

    fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).ok()
    }

    fn strs(&mut self) -> Option<Vec<String>> {
        let n = self.u32()? as usize;
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(self.str()?);
        }
        Some(v)
    }

    fn value(&mut self) -> Option<Value> {
        match self.u8()? {
            0 => self.i64().map(Value::Int),
            1 => self.str().map(Value::str),
            _ => None,
        }
    }

    fn tuple(&mut self) -> Option<Tuple> {
        let n = self.u32()? as usize;
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(self.value()?);
        }
        Some(Tuple::new(v))
    }

    fn tuples(&mut self) -> Option<Vec<Tuple>> {
        let n = self.u32()? as usize;
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(self.tuple()?);
        }
        Some(v)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decode one payload (everything after the 8-byte frame header). `None`
/// on any malformation — an unknown tag, truncated field, or trailing
/// junk inside a CRC-valid payload.
fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor {
        bytes: payload,
        pos: 0,
    };
    let tag = c.u8()?;
    let epoch = c.u64()?;
    let op = match tag {
        1 => WalOp::CreateRelation {
            name: c.str()?,
            attrs: c.strs()?,
        },
        2 => WalOp::Insert {
            relation: c.str()?,
            tuple: c.tuple()?,
        },
        3 => WalOp::Remove {
            relation: c.str()?,
            tuple: c.tuple()?,
        },
        4 => WalOp::Replace {
            relation: c.str()?,
            attrs: c.strs()?,
            tuples: c.tuples()?,
        },
        5 => WalOp::AddRelation {
            relation: c.str()?,
            attrs: c.strs()?,
            tuples: c.tuples()?,
        },
        _ => return None,
    };
    c.done().then_some(WalRecord { epoch, op })
}

/// Reject absurd frame lengths before allocating: no single catalog
/// mutation serializes anywhere near this, so a larger claimed length is
/// torn-tail garbage, not a record.
const MAX_FRAME_LEN: u32 = 1 << 30;

/// Result of scanning a WAL byte string: the intact prefix of records,
/// where that prefix ends, and how many trailing bytes were rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Every record of the longest intact prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset where the intact prefix ends (= file length when the
    /// log is clean).
    pub valid_len: u64,
    /// Bytes past `valid_len` — a torn tail from a mid-append crash.
    pub torn_bytes: u64,
}

impl WalScan {
    /// Did the scan find a torn tail?
    pub fn torn(&self) -> bool {
        self.torn_bytes > 0
    }
}

/// Scan raw WAL bytes, accepting the longest prefix of intact frames.
/// The first bad frame — short header, absurd length, CRC mismatch,
/// undecodable payload — ends the prefix; everything from there on is
/// reported as the torn tail.
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut pos: usize = 0;
    // Loop ends at clean EOF, a short header, or the first bad frame.
    while let Some(header) = bytes.get(pos..pos + 8) {
        // Header is exactly 8 bytes, so the split and both conversions
        // cannot fail. Written without unwrap to satisfy the crate lint.
        let (len_b, crc_b) = header.split_at(4);
        let len = u32::from_le_bytes([len_b[0], len_b[1], len_b[2], len_b[3]]);
        let crc = u32::from_le_bytes([crc_b[0], crc_b[1], crc_b[2], crc_b[3]]);
        if len > MAX_FRAME_LEN {
            break;
        }
        let start = pos + 8;
        let Some(payload) = bytes.get(start..start + len as usize) else {
            break; // torn payload
        };
        if crc32(payload) != crc {
            break;
        }
        let Some(record) = decode_payload(payload) else {
            break;
        };
        records.push(record);
        pos = start + len as usize;
    }
    WalScan {
        records,
        valid_len: pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
    }
}

// ---------------------------------------------------------------- writer

/// Append handle over a WAL segment file. Every [`WalWriter::append`]
/// writes one framed record and fsyncs before returning — a mutation is
/// committed exactly when its append returns `Ok`.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
}

impl WalWriter {
    /// Create a fresh, empty segment (truncating any leftover), fsync it
    /// and its directory so the segment itself survives a crash.
    pub fn create(path: &Path) -> Result<Self, StorageError> {
        let file = File::create(path)
            .map_err(|e| StorageError::Io(format!("wal.create {}: {e}", path.display())))?;
        fsutil::sync_crash(&file, "wal.create.fsync", path)?;
        fsutil::sync_parent_dir(path, "wal.create.dirsync")?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Open an existing segment for appends after recovery, physically
    /// truncating a torn tail at `valid_len` first.
    pub fn open_recovered(path: &Path, valid_len: u64, torn: bool) -> Result<Self, StorageError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StorageError::Io(format!("wal.open {}: {e}", path.display())))?;
        if torn {
            file.set_len(valid_len)
                .map_err(|e| StorageError::Io(format!("wal.truncate {}: {e}", path.display())))?;
            fsutil::sync_crash(&file, "wal.truncate.fsync", path)?;
        }
        file.seek(SeekFrom::Start(valid_len))
            .map_err(|e| StorageError::Io(format!("wal.seek {}: {e}", path.display())))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Append one record and fsync (commit point). Returns the framed
    /// size in bytes.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, StorageError> {
        let bytes = record.encode()?;
        fsutil::write_all_crash(&mut self.file, &bytes, "wal.append.write", &self.path)?;
        fsutil::sync_crash(&self.file, "wal.append.fsync", &self.path)?;
        Ok(bytes.len() as u64)
    }

    /// The segment path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Read a segment file and scan it. A missing file reads as an empty log
/// (a crash can die between manifest commit and first append — that is
/// not an error).
pub fn read_wal(path: &Path) -> Result<WalScan, StorageError> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)
                .map_err(|e| StorageError::Io(format!("wal.read {}: {e}", path.display())))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            return Err(StorageError::Io(format!(
                "wal.read {}: {e}",
                path.display()
            )))
        }
    }
    Ok(scan_wal(&bytes))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::tuple;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                epoch: 1,
                op: WalOp::CreateRelation {
                    name: "p".into(),
                    attrs: vec!["a".into(), "b".into()],
                },
            },
            WalRecord {
                epoch: 2,
                op: WalOp::Insert {
                    relation: "p".into(),
                    tuple: tuple!["x|weird\"chars\\", i64::MIN],
                },
            },
            WalRecord {
                epoch: 3,
                op: WalOp::Remove {
                    relation: "p".into(),
                    tuple: tuple!["x", 0],
                },
            },
            WalRecord {
                epoch: 4,
                op: WalOp::Replace {
                    relation: "p".into(),
                    attrs: vec!["a".into(), "b".into()],
                    tuples: vec![tuple!["y", 1], tuple!["z", i64::MAX]],
                },
            },
            WalRecord {
                epoch: 5,
                op: WalOp::AddRelation {
                    relation: "empty".into(),
                    attrs: vec![],
                    tuples: vec![],
                },
            },
        ]
    }

    fn encode_all(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for r in records {
            bytes.extend_from_slice(&r.encode().unwrap());
        }
        bytes
    }

    #[test]
    fn round_trip_all_ops() {
        let records = sample_records();
        let scan = scan_wal(&encode_all(&records));
        assert_eq!(scan.records, records);
        assert!(!scan.torn());
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn empty_log_scans_clean() {
        let scan = scan_wal(&[]);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(!scan.torn());
    }

    #[test]
    fn torn_tail_is_cut_at_every_truncation_point() {
        let records = sample_records();
        let bytes = encode_all(&records);
        // Truncating anywhere must recover a prefix of the records.
        for cut in 0..bytes.len() {
            let scan = scan_wal(&bytes[..cut]);
            assert!(scan.records.len() <= records.len());
            assert_eq!(scan.records[..], records[..scan.records.len()]);
            assert_eq!(scan.valid_len + scan.torn_bytes, cut as u64);
        }
    }

    #[test]
    fn corrupt_byte_ends_the_prefix() {
        let records = sample_records();
        let clean = encode_all(&records);
        // Flip one byte in the middle of the third frame's payload.
        let frame0 = records[0].encode().unwrap().len();
        let frame1 = records[1].encode().unwrap().len();
        let mut bytes = clean.clone();
        let target = frame0 + frame1 + 12;
        bytes[target] ^= 0xff;
        let scan = scan_wal(&bytes);
        assert_eq!(scan.records.len(), 2, "prefix before the corrupt frame");
        assert_eq!(scan.valid_len as usize, frame0 + frame1);
        assert!(scan.torn());
    }

    #[test]
    fn trailing_garbage_is_a_torn_tail() {
        let records = sample_records();
        let mut bytes = encode_all(&records[..2]);
        let good = bytes.len();
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x01]);
        let scan = scan_wal(&bytes);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_len as usize, good);
        assert_eq!(scan.torn_bytes, 5);
    }

    #[test]
    fn absurd_length_is_rejected_without_allocating() {
        let mut bytes = vec![0xff, 0xff, 0xff, 0x7f]; // len ≈ 2 GiB
        bytes.extend_from_slice(&[0; 8]);
        let scan = scan_wal(&bytes);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn internal_markers_refuse_to_encode() {
        let r = WalRecord {
            epoch: 1,
            op: WalOp::Insert {
                relation: "p".into(),
                tuple: Tuple::new(vec![Value::Null]),
            },
        };
        assert!(matches!(r.encode(), Err(StorageError::Io(_))));
    }

    #[test]
    fn writer_appends_and_recovers() {
        let dir = std::env::temp_dir().join("gq_wal_writer_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let records = sample_records();
        {
            let mut w = WalWriter::create(&path).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
        }
        // Simulate a torn append.
        let mut bytes = std::fs::read(&path).unwrap();
        let clean_len = bytes.len();
        bytes.extend_from_slice(&records[0].encode().unwrap()[..7]);
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, records);
        assert!(scan.torn());
        // open_recovered truncates the tail physically…
        let mut w = WalWriter::open_recovered(&path, scan.valid_len, scan.torn()).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len as u64,
            "torn tail not truncated"
        );
        // …and further appends land after the intact prefix.
        let extra = WalRecord {
            epoch: 6,
            op: WalOp::Insert {
                relation: "p".into(),
                tuple: tuple![7],
            },
        };
        w.append(&extra).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), records.len() + 1);
        assert_eq!(*scan.records.last().unwrap(), extra);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_segment_reads_as_empty() {
        let path = std::env::temp_dir().join("gq_wal_missing_test.log");
        std::fs::remove_file(&path).ok();
        let scan = read_wal(&path).unwrap();
        assert!(scan.records.is_empty() && !scan.torn());
    }
}
