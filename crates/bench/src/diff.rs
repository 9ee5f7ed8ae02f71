//! Host and schema stamps for the `BENCH_*.json` dumps.
//!
//! Every dump the harness writes is stamped with [`SCHEMA_VERSION`] and the
//! host it ran on (see [`stamp`]), so a reader can tell which layout a
//! file has and whether two files came from comparable machines.
//! Performance claims are measured with `bash benchmark/run.sh` and
//! compared with `benchmark/compare.sh`, not by diffing these dumps.

use gq_obs::Json;

/// Version of the `BENCH_*.json` layout. Bump when a dump's structure
/// changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// Host + schema stamp for a benchmark dump: merge into the document root
/// so readers can tell the layout and judge whether two files came from
/// comparable machines.
pub fn stamp(doc: Json) -> Json {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let host = Json::obj()
        .field("os", std::env::consts::OS)
        .field("arch", std::env::consts::ARCH)
        .field("cores", cores);
    // Prepend the stamp fields so they lead the document.
    let mut fields = vec![
        ("schema_version".to_string(), Json::UInt(SCHEMA_VERSION)),
        ("host".to_string(), host),
    ];
    if let Json::Obj(rest) = doc {
        fields.extend(rest);
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_leads_with_version_and_host() {
        let doc = stamp(Json::obj().field("x", 1u64));
        let fields = doc.as_obj().unwrap();
        assert_eq!(fields[0].0, "schema_version");
        assert_eq!(fields[1].0, "host");
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert!(doc.get("host").and_then(|h| h.get("cores")).is_some());
        assert_eq!(doc.get("x").and_then(Json::as_u64), Some(1));
    }
}
