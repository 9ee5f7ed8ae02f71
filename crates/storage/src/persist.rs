//! Plain-text persistence for databases.
//!
//! A small line-oriented format so example databases and REPL sessions can
//! be saved and reloaded without external dependencies:
//!
//! ```text
//! # epoch 7
//! # comment
//! relation student(name)
//! s"ann"
//! s"bob"
//! relation attends(student, lecture)
//! s"ann"|s"db"
//! relation ages(name, age)
//! s"ann"|i23
//! ```
//!
//! Each tuple line holds `|`-separated values: `i<digits>` for integers,
//! `s"…"` for strings (with `\"`, `\\`, `\n`, `\|` escapes). Only user
//! values are persisted — the internal `∅`/`⊥` markers never occur in user
//! relations by construction.
//!
//! The `# epoch <n>` header persists the catalog epoch: a database
//! reloaded from text resumes its epoch sequence exactly instead of
//! taking the replayed mutation count, so epoch-keyed caches (the plan
//! cache) can never see a reloaded catalog collide with an epoch they
//! already served, and WAL records numbered after a checkpoint replay in
//! order over it. Files without the header (hand-written fixtures) still
//! load; their epoch is the natural mutation count of the parse.
//!
//! Saves are *atomic*: the text is written to a temp file, fsynced, and
//! renamed over the target, so a crash or full disk mid-save can destroy
//! at worst the temp file — never the previous good database file.

use crate::{fsutil, Database, Schema, StorageError, Tuple, Value};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Duration;

/// Which kind of I/O an operation performs, for per-domain retry
/// classification. The same [`std::io::ErrorKind`] can mean opposite
/// things on the two sides: `WouldBlock` from a regular file means a
/// misconfigured (non-blocking) descriptor that no retry will fix, while
/// `WouldBlock`/`TimedOut` from a socket are the normal vocabulary of
/// read/write timeouts and congested peers — transient by design.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoDomain {
    /// Filesystem I/O: snapshots, WAL segments, database text files.
    Disk,
    /// Socket I/O: server connections, client dials.
    Network,
}

/// Bounded retry-with-backoff for persistence I/O. Transient I/O errors
/// are retried up to `attempts` times with exponential backoff starting
/// at `base_delay` (doubling per retry). Decoding errors are permanent
/// and never retried. Tests use [`RetryPolicy::no_delay`] so retry
/// behaviour stays deterministic and fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (must be ≥ 1).
    pub attempts: u32,
    /// Sleep before the first retry; doubles on each further retry.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// A deterministic policy that retries without sleeping.
    pub fn no_delay(attempts: u32) -> Self {
        RetryPolicy {
            attempts,
            base_delay: Duration::ZERO,
        }
    }

    fn backoff(&self, retry: u32) -> Duration {
        self.base_delay * 2u32.saturating_pow(retry)
    }

    /// True for [`std::io::ErrorKind`]s that no amount of retrying will
    /// fix in the given domain. Retrying these only delays the inevitable
    /// (and a full-disk retry loop can actively make an incident worse).
    ///
    /// Disk: the file is missing, access is denied, the disk is full, the
    /// filesystem is read-only, the request is malformed — and
    /// `WouldBlock`, which a blocking regular-file descriptor never
    /// legitimately returns (it means a misconfigured fd, and retrying
    /// spins forever). `TimedOut` stays transient (network filesystems).
    ///
    /// Network: malformed requests and local address/permission problems
    /// fail fast; `WouldBlock`/`TimedOut` are the normal timeout
    /// vocabulary of sockets, and peer-side failures (refused, reset,
    /// aborted, broken pipe) are retriable — the peer may come back.
    pub fn is_permanent(domain: IoDomain, kind: std::io::ErrorKind) -> bool {
        use std::io::ErrorKind::*;
        match domain {
            IoDomain::Disk => matches!(
                kind,
                NotFound
                    | PermissionDenied
                    | StorageFull
                    | ReadOnlyFilesystem
                    | Unsupported
                    | InvalidInput
                    | WouldBlock
            ),
            IoDomain::Network => matches!(
                kind,
                NotFound
                    | PermissionDenied
                    | Unsupported
                    | InvalidInput
                    | AddrInUse
                    | AddrNotAvailable
            ),
        }
    }

    /// Run `op` under this policy for [`IoDomain::Disk`]. See
    /// [`RetryPolicy::run_io`].
    fn run<T>(
        &self,
        describe: &str,
        op: impl FnMut() -> std::io::Result<T>,
    ) -> Result<T, StorageError> {
        self.run_io(IoDomain::Disk, describe, op)
    }

    /// Run `op` under this policy. `describe` names the operation for the
    /// error message. Transient I/O errors (interrupted syscalls, busy
    /// resources, socket timeouts) are retried with backoff; *permanent*
    /// kinds — classified per `domain`, see [`RetryPolicy::is_permanent`]
    /// — fail fast on the first attempt.
    pub fn run_io<T>(
        &self,
        domain: IoDomain,
        describe: &str,
        mut op: impl FnMut() -> std::io::Result<T>,
    ) -> Result<T, StorageError> {
        let attempts = self.attempts.max(1);
        let mut last = None;
        for retry in 0..attempts {
            #[cfg(feature = "chaos")]
            if let Some(msg) = gq_chaos::fail_persist_io(describe) {
                last = Some(msg);
                if retry + 1 < attempts && !self.base_delay.is_zero() {
                    std::thread::sleep(self.backoff(retry));
                }
                continue;
            }
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if Self::is_permanent(domain, e.kind()) => {
                    return Err(StorageError::Io(format!(
                        "{describe} failed: {e} (permanent {:?}, not retried)",
                        e.kind()
                    )));
                }
                Err(e) => {
                    last = Some(e.to_string());
                    if retry + 1 < attempts && !self.base_delay.is_zero() {
                        std::thread::sleep(self.backoff(retry));
                    }
                }
            }
        }
        Err(StorageError::Io(format!(
            "{describe} failed after {attempts} attempt{}: {}",
            if attempts == 1 { "" } else { "s" },
            last.unwrap_or_else(|| "unknown error".into()),
        )))
    }
}

/// Errors specific to the text format (wrapped with line numbers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// 1-based line number of the offending input line (0 for EOF).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PersistError {}

/// Serialize a database to the text format, including the `# epoch <n>`
/// header so a reload resumes the catalog's epoch sequence.
pub fn to_text(db: &Database) -> String {
    to_text_except(db, &BTreeSet::new())
}

/// [`to_text`] without the relations named in `skip` — the volatile
/// view extents a durable checkpoint leaves out.
pub(crate) fn to_text_except(db: &Database, skip: &BTreeSet<String>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# epoch {}", db.epoch());
    for rel in db.relations().filter(|r| !skip.contains(r.name())) {
        let attrs: Vec<&str> = rel.schema().attributes().collect();
        // Writing into a String is infallible.
        let _ = writeln!(out, "relation {}({})", rel.name(), attrs.join(", "));
        for t in rel.sorted_tuples() {
            let fields: Vec<String> = t.values().map(encode_value).collect();
            let _ = writeln!(out, "{}", fields.join("|"));
        }
    }
    out
}

/// Parse a database from the text format.
///
/// If the text carries a `# epoch <n>` header the parsed database's epoch
/// is exactly `n`, the epoch the saved database had. The parse's own
/// create/insert count (*natural*) is no guide: a bulk write (`dom`'s
/// refresh, an added relation) moves the epoch once for many tuples, so
/// *natural* can overshoot `n`, and the WAL records written after a
/// checkpoint — numbered from `n` — would then replay as a regression.
/// Without a header the epoch is *natural*.
pub fn from_text(text: &str) -> Result<Database, PersistError> {
    let mut db = Database::new();
    let mut current: Option<String> = None;
    let mut header_epoch: Option<u64> = None;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            if header_epoch.is_none() {
                if let Some(n) = line
                    .strip_prefix("# epoch ")
                    .and_then(|rest| rest.trim().parse::<u64>().ok())
                {
                    header_epoch = Some(n);
                }
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("relation ") {
            let (name, attrs) = parse_header(rest, lineno)?;
            let schema = Schema::new(attrs).map_err(|e| PersistError {
                line: lineno,
                message: e.to_string(),
            })?;
            db.create_relation(&name, schema)
                .map_err(|e| PersistError {
                    line: lineno,
                    message: e.to_string(),
                })?;
            current = Some(name);
        } else {
            let Some(name) = &current else {
                return Err(PersistError {
                    line: lineno,
                    message: "tuple before any `relation` header".into(),
                });
            };
            let tuple = parse_tuple(line, lineno)?;
            db.insert(name, tuple).map_err(|e| PersistError {
                line: lineno,
                message: e.to_string(),
            })?;
        }
    }
    if let Some(h) = header_epoch {
        db.set_epoch(h);
    }
    Ok(db)
}

/// Save to a file under the default [`RetryPolicy`].
pub fn save(db: &Database, path: &std::path::Path) -> Result<(), StorageError> {
    save_with_retry(db, path, &RetryPolicy::default())
}

/// Save to a file, retrying transient I/O failures under `policy`.
///
/// The write is atomic: the text goes to `<path>.tmp`, is fsynced, and is
/// renamed over `path` — a crash or ENOSPC mid-save never leaves a torn
/// or truncated database file behind.
pub fn save_with_retry(
    db: &Database,
    path: &std::path::Path,
    policy: &RetryPolicy,
) -> Result<(), StorageError> {
    let text = to_text(db);
    policy.run(&format!("write {}", path.display()), || {
        fsutil::atomic_write_io(path, text.as_bytes())
    })
}

/// Load from a file under the default [`RetryPolicy`].
pub fn load(path: &std::path::Path) -> Result<Database, StorageError> {
    load_with_retry(path, &RetryPolicy::default())
}

/// Load from a file, retrying transient I/O failures under `policy`.
/// Decode errors (a malformed file) are permanent and not retried.
pub fn load_with_retry(
    path: &std::path::Path,
    policy: &RetryPolicy,
) -> Result<Database, StorageError> {
    let text = policy.run(&format!("read {}", path.display()), || {
        std::fs::read_to_string(path)
    })?;
    from_text(&text)
        .map_err(|e| StorageError::Io(format!("malformed database file {}: {e}", path.display())))
}

fn encode_value(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("i{i}"),
        Value::Str(s) => {
            let mut out = String::with_capacity(s.len() + 4);
            out.push_str("s\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '|' => out.push_str("\\|"),
                    other => out.push(other),
                }
            }
            out.push('"');
            out
        }
        Value::Null | Value::Matched => {
            unreachable!("user relations never hold internal markers")
        }
    }
}

fn parse_header(rest: &str, line: usize) -> Result<(String, Vec<String>), PersistError> {
    let err = |message: &str| PersistError {
        line,
        message: message.to_string(),
    };
    let open = rest
        .find('(')
        .ok_or_else(|| err("expected `name(attrs…)`"))?;
    if !rest.trim_end().ends_with(')') {
        return Err(err("expected closing `)`"));
    }
    let name = rest[..open].trim().to_string();
    if name.is_empty() {
        return Err(err("empty relation name"));
    }
    let inner = rest.trim_end();
    let inner = &inner[open + 1..inner.len() - 1];
    let attrs: Vec<String> = if inner.trim().is_empty() {
        vec![]
    } else {
        inner.split(',').map(|a| a.trim().to_string()).collect()
    };
    Ok((name, attrs))
}

fn parse_tuple(line: &str, lineno: usize) -> Result<Tuple, PersistError> {
    let err = |message: String| PersistError {
        line: lineno,
        message,
    };
    let mut values = Vec::new();
    let mut chars = line.chars().peekable();
    loop {
        match chars.next() {
            Some('i') => {
                let mut num = String::new();
                if chars.peek() == Some(&'-') {
                    num.push('-');
                    chars.next();
                }
                while let Some(&c) = chars.peek().filter(|c| c.is_ascii_digit()) {
                    num.push(c);
                    chars.next();
                }
                let n: i64 = num
                    .parse()
                    .map_err(|_| err(format!("bad integer `{num}`")))?;
                values.push(Value::Int(n));
            }
            Some('s') => {
                if chars.next() != Some('"') {
                    return Err(err("expected `\"` after `s`".into()));
                }
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('\\') => match chars.next() {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('n') => s.push('\n'),
                            Some('|') => s.push('|'),
                            other => {
                                return Err(err(format!("bad escape `\\{other:?}`")));
                            }
                        },
                        Some('"') => break,
                        Some(c) => s.push(c),
                        None => return Err(err("unterminated string".into())),
                    }
                }
                values.push(Value::str(s));
            }
            other => {
                return Err(err(format!("expected `i` or `s`, found {other:?}")));
            }
        }
        match chars.next() {
            None => break,
            Some('|') => continue,
            Some(c) => return Err(err(format!("expected `|` between values, found `{c}`"))),
        }
    }
    Ok(Tuple::new(values))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::tuple;

    fn sample() -> Database {
        let mut db = Database::new();
        db.create_relation("student", Schema::new(vec!["name"]).unwrap())
            .unwrap();
        db.create_relation("ages", Schema::new(vec!["name", "age"]).unwrap())
            .unwrap();
        db.insert("student", tuple!["ann"]).unwrap();
        db.insert("student", tuple!["bob"]).unwrap();
        db.insert("ages", tuple!["ann", 23]).unwrap();
        db.insert("ages", tuple!["bob", -5]).unwrap();
        db
    }

    fn dbs_equal(a: &Database, b: &Database) -> bool {
        let names_a: Vec<&str> = a.relation_names().collect();
        let names_b: Vec<&str> = b.relation_names().collect();
        names_a == names_b
            && names_a.iter().all(|n| {
                let ra = a.relation(n).unwrap();
                let rb = b.relation(n).unwrap();
                ra.set_eq(rb) && ra.schema() == rb.schema()
            })
    }

    #[test]
    fn round_trip() {
        let db = sample();
        let text = to_text(&db);
        let back = from_text(&text).unwrap();
        assert!(dbs_equal(&db, &back), "round trip failed:\n{text}");
    }

    #[test]
    fn escapes_round_trip() {
        let mut db = Database::new();
        db.create_relation("weird", Schema::anonymous(1)).unwrap();
        for s in ["a|b", "quote\"inside", "back\\slash", "new\nline", ""] {
            db.insert("weird", tuple![s]).unwrap();
        }
        let back = from_text(&to_text(&db)).unwrap();
        assert!(dbs_equal(&db, &back));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\nrelation p(a)\ni1\n# middle\ni2\n";
        let db = from_text(text).unwrap();
        assert_eq!(db.relation("p").unwrap().len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = from_text("i1\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = from_text("relation p(a)\nx9\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = from_text("relation p(a)\ni1|i2\n").unwrap_err();
        assert_eq!(e.line, 2); // arity mismatch
        let e = from_text("relation p(a\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn file_round_trip() {
        let db = sample();
        let dir = std::env::temp_dir().join("gq_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.gq");
        save(&db, &path).unwrap();
        let back = load(&path).unwrap();
        assert!(dbs_equal(&db, &back));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_fails_fast_without_retry() {
        // NotFound is permanent: retrying a missing file cannot make it
        // appear, so the policy must fail on the first attempt.
        let path = std::env::temp_dir().join("gq_persist_test_does_not_exist.gq");
        let err = load_with_retry(&path, &RetryPolicy::no_delay(3)).unwrap_err();
        match err {
            StorageError::Io(msg) => {
                assert!(msg.contains("not retried"), "got: {msg}");
                assert!(!msg.contains("attempts"), "got: {msg}");
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn permanent_kinds_classified_per_domain() {
        use std::io::ErrorKind::*;
        for kind in [
            NotFound,
            PermissionDenied,
            StorageFull,
            ReadOnlyFilesystem,
            Unsupported,
            InvalidInput,
            WouldBlock, // a blocking file fd never returns this; don't spin
        ] {
            assert!(RetryPolicy::is_permanent(IoDomain::Disk, kind), "{kind:?}");
        }
        for kind in [Interrupted, TimedOut, ResourceBusy, Other] {
            assert!(!RetryPolicy::is_permanent(IoDomain::Disk, kind), "{kind:?}");
        }
        // Sockets: timeouts and peer failures are the retry vocabulary…
        for kind in [
            WouldBlock,
            TimedOut,
            Interrupted,
            ConnectionRefused,
            ConnectionReset,
            ConnectionAborted,
            BrokenPipe,
        ] {
            assert!(
                !RetryPolicy::is_permanent(IoDomain::Network, kind),
                "{kind:?}"
            );
        }
        // …while local misconfiguration fails fast.
        for kind in [
            NotFound,
            PermissionDenied,
            Unsupported,
            InvalidInput,
            AddrInUse,
            AddrNotAvailable,
        ] {
            assert!(
                RetryPolicy::is_permanent(IoDomain::Network, kind),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn network_retries_fail_fast_on_permanent_errors() {
        let mut calls = 0;
        let out: Result<(), _> = RetryPolicy::no_delay(5).run_io(IoDomain::Network, "dial", || {
            calls += 1;
            Err(std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "no such address",
            ))
        });
        assert_eq!(calls, 1, "permanent network error must not be retried");
        let msg = match out.unwrap_err() {
            StorageError::Io(m) => m,
            other => panic!("expected Io, got {other:?}"),
        };
        assert!(msg.contains("not retried"), "got: {msg}");
    }

    #[test]
    fn network_timeouts_are_retried_where_disk_would_block_is_not() {
        // The same WouldBlock kind: transient on a socket, permanent on a
        // file — the per-domain split this policy exists for.
        let mut calls = 0;
        let _: Result<(), _> = RetryPolicy::no_delay(3).run_io(IoDomain::Network, "recv", || {
            calls += 1;
            Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "slow"))
        });
        assert_eq!(calls, 3, "socket WouldBlock retries");

        let mut calls = 0;
        let _: Result<(), _> = RetryPolicy::no_delay(3).run_io(IoDomain::Disk, "read", || {
            calls += 1;
            Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "odd fd",
            ))
        });
        assert_eq!(calls, 1, "file WouldBlock fails fast");
    }

    #[test]
    fn transient_errors_still_retried() {
        let mut calls = 0;
        let out: Result<(), _> = RetryPolicy::no_delay(3).run("probe", || {
            calls += 1;
            Err(std::io::Error::new(std::io::ErrorKind::TimedOut, "flaky"))
        });
        assert_eq!(calls, 3);
        let msg = match out.unwrap_err() {
            StorageError::Io(m) => m,
            other => panic!("expected Io, got {other:?}"),
        };
        assert!(msg.contains("3 attempts"), "got: {msg}");

        let mut calls = 0;
        let out: Result<(), _> = RetryPolicy::no_delay(3).run("probe", || {
            calls += 1;
            Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "locked",
            ))
        });
        assert_eq!(calls, 1, "permanent error must not be retried");
        assert!(out.is_err());
    }

    #[test]
    fn save_leaves_no_temp_file_and_replaces_atomically() {
        let dir = std::env::temp_dir().join("gq_persist_test_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.gq");
        save(&sample(), &path).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        let mut db2 = sample();
        db2.insert("student", tuple!["carol"]).unwrap();
        save(&db2, &path).unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        assert_ne!(first, second);
        assert!(second.contains("carol"));
        assert!(!dir.join("db.gq.tmp").exists(), "temp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_header_round_trips() {
        let db = sample();
        let text = to_text(&db);
        assert!(
            text.starts_with(&format!("# epoch {}\n", db.epoch())),
            "missing epoch header:\n{text}"
        );
        let back = from_text(&text).unwrap();
        assert_eq!(back.epoch(), db.epoch());
    }

    #[test]
    fn headerless_text_still_loads() {
        // Hand-written fixtures have no epoch header; the natural parse
        // epoch applies.
        let db = from_text("relation p(a)\ni1\ni2\n").unwrap();
        assert_eq!(db.relation("p").unwrap().len(), 2);
        assert_eq!(db.epoch(), 3); // create + 2 inserts
    }

    #[test]
    fn reload_never_reissues_a_seen_epoch() {
        // Regression: removes don't appear in the text, so the replayed
        // mutation count undercounts the original epoch. Without the
        // header a reloaded database would re-issue epochs the original
        // already handed out, and an (epoch, key)-keyed plan cache would
        // serve stale plans for a different catalog state.
        let mut db = Database::new();
        let mut seen = std::collections::HashSet::new();
        seen.insert(db.epoch());
        db.create_relation("p", Schema::anonymous(1)).unwrap();
        seen.insert(db.epoch());
        db.insert("p", tuple![1]).unwrap();
        seen.insert(db.epoch());
        db.insert("p", tuple![2]).unwrap();
        seen.insert(db.epoch());
        db.remove("p", &tuple![1]).unwrap();
        seen.insert(db.epoch());

        let dir = std::env::temp_dir().join("gq_persist_test_epoch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.gq");
        save(&db, &path).unwrap();
        let mut back = load(&path).unwrap();
        assert_eq!(back.epoch(), db.epoch(), "reload must resume the epoch");
        back.insert("p", tuple![3]).unwrap();
        assert!(
            !seen.contains(&back.epoch()),
            "reloaded db re-issued epoch {}",
            back.epoch()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_file_is_not_retried_as_io() {
        let dir = std::env::temp_dir().join("gq_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.gq");
        std::fs::write(&path, "i1\n").unwrap();
        let err = load_with_retry(&path, &RetryPolicy::no_delay(2)).unwrap_err();
        match err {
            StorageError::Io(msg) => assert!(msg.contains("malformed"), "got: {msg}"),
            other => panic!("expected Io error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retry_policy_backoff_doubles() {
        let p = RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(5),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(5));
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert!(RetryPolicy::no_delay(2).base_delay.is_zero());
    }

    #[test]
    fn save_errors_are_recoverable() {
        // Writing into a directory path fails; the error must surface as
        // StorageError::Io, not a panic.
        let dir = std::env::temp_dir().join("gq_persist_test_dir_target");
        std::fs::create_dir_all(&dir).unwrap();
        let err = save_with_retry(&sample(), &dir, &RetryPolicy::no_delay(2)).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
    }
}

/// Property tests: `from_text(to_text(db))` reproduces `db` exactly —
/// same relations, schemas, tuple sets, and epoch — across generated
/// databases that lean on the format's hard cases: escape-heavy strings
/// (`"`, `\`, `|`, newlines), empty relations, zero-arity-free schemas,
/// and i64 extremes.
#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Escape-heavy building blocks; generated strings concatenate a few.
    const STR_POOL: &[&str] = &[
        "",
        "plain",
        "a|b",
        "\"",
        "\\",
        "|",
        "\n",
        "quote\"inside",
        "back\\slash",
        "line\nbreak",
        "\\n",
        "s\"tricky",
        "ends with \\",
        "|||",
        "\"\\|\n",
        "  padded  ",
        "relation p(a)",
        "# epoch 99",
    ];

    fn arb_value() -> BoxedStrategy<Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            Just(Value::Int(i64::MIN)),
            Just(Value::Int(i64::MAX)),
            (0usize..STR_POOL.len()).prop_map(|i| Value::str(STR_POOL[i])),
            prop::collection::vec(0usize..STR_POOL.len(), 0..4).prop_map(|parts| {
                Value::str(parts.into_iter().map(|i| STR_POOL[i]).collect::<String>())
            }),
        ]
    }

    /// A generated database: up to 4 relations with arities 1..=3 and
    /// 0..=6 rows each (0 rows ⇒ an empty relation survives the trip).
    fn arb_db() -> BoxedStrategy<Database> {
        let rel = (
            0usize..4,  // name index
            1usize..=3, // arity
            prop::collection::vec(prop::collection::vec(arb_value(), 3), 0..6),
        );
        prop::collection::vec(rel, 0..4).prop_map(|rels| {
            let mut db = Database::new();
            for (name_ix, arity, rows) in rels {
                let name = format!("rel{name_ix}");
                if db.has_relation(&name) {
                    continue;
                }
                let attrs: Vec<String> = (0..arity).map(|i| format!("a{i}")).collect();
                db.create_relation(&name, Schema::new(attrs).unwrap())
                    .unwrap();
                for row in rows {
                    let t = Tuple::new(row.into_iter().take(arity).collect());
                    db.insert(&name, t).unwrap();
                }
            }
            db
        })
    }

    fn dbs_equal(a: &Database, b: &Database) -> bool {
        let names_a: Vec<&str> = a.relation_names().collect();
        let names_b: Vec<&str> = b.relation_names().collect();
        names_a == names_b
            && names_a.iter().all(|n| {
                let ra = a.relation(n).unwrap();
                let rb = b.relation(n).unwrap();
                ra.set_eq(rb) && ra.schema() == rb.schema()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn text_round_trip_is_identity(db in arb_db()) {
            let text = to_text(&db);
            let back = from_text(&text).unwrap_or_else(|e| {
                panic!("reparse failed: {e}\n--- text ---\n{text}")
            });
            prop_assert!(dbs_equal(&db, &back), "round trip changed db:\n{}", text);
            prop_assert_eq!(back.epoch(), db.epoch());
            // Idempotence: a second trip emits byte-identical text.
            prop_assert_eq!(to_text(&back), text);
        }
    }
}
