//! Request/reply payload format.
//!
//! Payloads are UTF-8 text. A request is one REPL-style line (a query,
//! or a `.command`). A reply is:
//!
//! ```text
//! ok\n<body>
//! err <code>: <message>
//! err overloaded retry-after-ms=<N>: <message>
//! ```
//!
//! Codes map engine failures onto a small stable vocabulary so clients
//! can branch without parsing prose: `parse`, `budget`, `cancelled`,
//! `panic`, `overloaded`, `proto`, `error`.
//!
//! The argument grammar of the `.relation`, `.insert` and `.remove`
//! commands ([`parse_signature`], [`parse_value`]) lives here too, so a
//! wire session and the REPL accept identical syntax.

use gq_core::EngineError;
use gq_storage::Value;

/// Stable error codes carried in the `err <code>:` position.
pub mod code {
    /// Query text failed to parse.
    pub const PARSE: &str = "parse";
    /// A per-session resource limit tripped.
    pub const BUDGET: &str = "budget";
    /// The query was cancelled (shutdown or client-requested).
    pub const CANCELLED: &str = "cancelled";
    /// A worker thread panicked; the session survived.
    pub const PANIC: &str = "panic";
    /// Admission control shed this connection or request.
    pub const OVERLOADED: &str = "overloaded";
    /// The request payload itself was malformed (bad UTF-8, unknown command).
    pub const PROTO: &str = "proto";
    /// Any other engine failure.
    pub const ERROR: &str = "error";
}

/// Render a success reply.
pub fn ok(body: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(3 + body.len());
    out.extend_from_slice(b"ok\n");
    out.extend_from_slice(body.as_bytes());
    out
}

/// Render an error reply.
pub fn err(error_code: &str, message: &str) -> Vec<u8> {
    format!("err {error_code}: {message}").into_bytes()
}

/// Render an overload shed with a retry hint.
pub fn overloaded(retry_after_ms: u64, message: &str) -> Vec<u8> {
    format!("err overloaded retry-after-ms={retry_after_ms}: {message}").into_bytes()
}

/// Map an engine failure onto its wire code.
pub fn code_for(e: &EngineError) -> &'static str {
    match e {
        EngineError::Parse(_) => code::PARSE,
        EngineError::ResourceExhausted { .. } => code::BUDGET,
        EngineError::Cancelled { .. } => code::CANCELLED,
        EngineError::WorkerPanic { .. } => code::PANIC,
        _ => code::ERROR,
    }
}

/// Parse a command argument `name(a, b, c)` into the name and the
/// comma-separated parts; a comma inside a `"quoted"` value does not
/// split it.
pub fn parse_signature(text: &str) -> Result<(String, Vec<String>), &'static str> {
    let text = text.trim();
    let open = text.find('(').ok_or("expected `name(…)`")?;
    let inner = text[open + 1..]
        .strip_suffix(')')
        .ok_or("expected closing `)`")?;
    let mut parts = vec![];
    if !inner.trim().is_empty() {
        let (mut start, mut quoted) = (0, false);
        for (i, c) in inner.char_indices() {
            match c {
                '"' => quoted = !quoted,
                ',' if !quoted => {
                    parts.push(inner[start..i].trim().to_string());
                    start = i + 1;
                }
                _ => {}
            }
        }
        parts.push(inner[start..].trim().to_string());
    }
    Ok((text[..open].trim().to_string(), parts))
}

/// One tuple field: `"quoted"` → string, an `i64` literal → integer,
/// a bare word → string.
pub fn parse_value(text: &str) -> Value {
    let t = text.trim();
    if let Some(stripped) = t.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
        Value::str(stripped)
    } else if let Ok(n) = t.parse::<i64>() {
        Value::Int(n)
    } else {
        Value::str(t)
    }
}

/// A parsed reply, as seen by clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Whether the request succeeded.
    pub ok: bool,
    /// Error code on failure (empty on success).
    pub code: String,
    /// Retry hint in milliseconds, when the server shed the request.
    pub retry_after_ms: Option<u64>,
    /// Response body (answer text on success, message on failure).
    pub body: String,
}

impl Reply {
    /// Parse a reply payload. Unrecognized shapes become a `proto`
    /// error rather than a panic — the peer may be hostile.
    pub fn parse(payload: &[u8]) -> Reply {
        let text = match std::str::from_utf8(payload) {
            Ok(t) => t,
            Err(_) => {
                return Reply {
                    ok: false,
                    code: code::PROTO.into(),
                    retry_after_ms: None,
                    body: "reply was not valid UTF-8".into(),
                }
            }
        };
        if let Some(body) = text.strip_prefix("ok\n") {
            return Reply {
                ok: true,
                code: String::new(),
                retry_after_ms: None,
                body: body.to_string(),
            };
        }
        if let Some(rest) = text.strip_prefix("err ") {
            if let Some((head, message)) = rest.split_once(": ") {
                let mut parts = head.split_whitespace();
                let error_code = parts.next().unwrap_or(code::ERROR).to_string();
                let retry_after_ms = parts
                    .find_map(|p| p.strip_prefix("retry-after-ms="))
                    .and_then(|v| v.parse::<u64>().ok());
                return Reply {
                    ok: false,
                    code: error_code,
                    retry_after_ms,
                    body: message.to_string(),
                };
            }
        }
        Reply {
            ok: false,
            code: code::PROTO.into(),
            retry_after_ms: None,
            body: format!("unrecognized reply shape: {text:?}"),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn ok_roundtrip() {
        let r = Reply::parse(&ok("3 answers"));
        assert!(r.ok);
        assert_eq!(r.body, "3 answers");
    }

    #[test]
    fn err_roundtrip() {
        let r = Reply::parse(&err(code::PARSE, "unexpected token"));
        assert!(!r.ok);
        assert_eq!(r.code, "parse");
        assert_eq!(r.body, "unexpected token");
        assert_eq!(r.retry_after_ms, None);
    }

    #[test]
    fn overloaded_carries_retry_hint() {
        let r = Reply::parse(&overloaded(250, "session limit reached"));
        assert!(!r.ok);
        assert_eq!(r.code, "overloaded");
        assert_eq!(r.retry_after_ms, Some(250));
        assert_eq!(r.body, "session limit reached");
    }

    #[test]
    fn signatures_split_name_and_parts() {
        assert_eq!(
            parse_signature(" student ( name , \"ann\" ) "),
            Ok(("student".into(), vec!["name".into(), "\"ann\"".into()]))
        );
        assert_eq!(parse_signature("p()"), Ok(("p".into(), vec![])));
        assert_eq!(parse_signature("p(  )"), Ok(("p".into(), vec![])));
        assert_eq!(
            parse_signature("p(\"a,b\", c)"),
            Ok(("p".into(), vec!["\"a,b\"".into(), "c".into()]))
        );
        assert_eq!(
            parse_signature("p(\",\", \"x, y\",z)"),
            Ok((
                "p".into(),
                vec!["\",\"".into(), "\"x, y\"".into(), "z".into()]
            ))
        );
        assert_eq!(
            parse_signature("p(a,,b)"),
            Ok(("p".into(), vec!["a".into(), "".into(), "b".into()]))
        );
        assert_eq!(parse_signature("p(a"), Err("expected closing `)`"));
        assert_eq!(parse_signature("p"), Err("expected `name(…)`"));
    }

    #[test]
    fn values_are_quoted_strings_integers_or_words() {
        assert_eq!(parse_value("\"ann\""), Value::str("ann"));
        assert_eq!(parse_value(" \"a b\" "), Value::str("a b"));
        // Quoting keeps digits a string.
        assert_eq!(parse_value("\"42\""), Value::str("42"));
        assert_eq!(parse_value("42"), Value::Int(42));
        assert_eq!(parse_value(&i64::MIN.to_string()), Value::Int(i64::MIN));
        assert_eq!(parse_value(&i64::MAX.to_string()), Value::Int(i64::MAX));
        // One past i64::MAX is not an integer literal.
        assert_eq!(
            parse_value("9223372036854775808"),
            Value::str("9223372036854775808")
        );
        assert_eq!(parse_value("db"), Value::str("db"));
    }

    #[test]
    fn garbage_is_proto_not_panic() {
        let r = Reply::parse(&[0xff, 0xfe, 0x00]);
        assert!(!r.ok);
        assert_eq!(r.code, "proto");
        let r = Reply::parse(b"huh");
        assert_eq!(r.code, "proto");
    }
}
