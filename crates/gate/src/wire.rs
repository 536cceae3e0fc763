//! The gate's wire protocol: length-prefixed JSON frames and the refusal
//! code table.
//!
//! Every message in either direction is one **frame**: a 4-byte
//! big-endian length followed by exactly that many bytes of UTF-8 JSON
//! (rendered/parsed with [`starj_telemetry::Json`] — the workspace ships
//! no serde). Requests:
//!
//! ```text
//! {"id": 7, "verb": "sql", "token": "...", "dataset": "ssb",
//!  "sql": "SELECT count(*) FROM ...;", "epsilon": 0.5, "name": "q7"?}
//! {"id": 8, "verb": "metrics", "token": "..."}
//! {"id": 9, "verb": "subscribe", "token": "...", "capacity": 256?}
//! {"id": 10, "verb": "explain", "token": "...", "dataset": "ssb",
//!  "sql": "SELECT count(*) FROM ...;", "profile": 1?}
//! ```
//!
//! `subscribe` and `explain` are admin verbs (see
//! [`crate::GateConfig::admin_tokens`]): subscriptions stream every
//! tenant's audit events, and explain reports expose un-noised plan
//! statistics. After a `subscribe` ack, event frames tagged with the
//! subscription's `id` flow until the connection closes; see
//! [`crate::Gate`] for the event frame shapes.
//!
//! `id` is the client's request id: a positive integer no larger than
//! 2^53 − 1 (the JSON layer is f64-based, so larger ids would be echoed
//! imprecisely and break client-side correlation), echoed on every
//! response, and stamped into the server's trace spans and audit events
//! so a wire request can be followed through the whole pipeline.
//! Responses are either an answer:
//!
//! ```text
//! {"id": 7, "ok": true, "kind": "scalar", "value": 41.3, "cached": false,
//!  "cost_epsilon": 0.5, "cost_delta": 0.0}
//! {"id": 7, "ok": true, "kind": "groups", "groups": [{"key": [0], "value": 9.1}, ...], ...}
//! ```
//!
//! or a structured refusal carrying a stable machine-readable `code`
//! (see [`service_code`] / [`router_code`] for the full table):
//!
//! ```text
//! {"id": 7, "ok": false, "code": "budget_exhausted", "error": "tenant ..."}
//! {"id": 7, "ok": false, "code": "parse_error", "error": "...", "pos": 31}
//! ```

use crate::error::GateError;
use starj_engine::QueryResult;
use starj_router::RouterError;
use starj_service::{ServiceAnswer, ServiceError};
use starj_telemetry::Json;
use std::io::{Read, Write};

/// [`Json`] has no boolean variant (its parser reads `true`/`false` back
/// as 1/0), so the protocol renders booleans as those numbers.
const TRUE: Json = Json::Num(1.0);
const FALSE: Json = Json::Num(0.0);

/// Reads one length-prefixed frame. `Ok(None)` means the peer closed the
/// connection cleanly at a frame boundary. Frames longer than `max_frame`
/// are refused without allocating.
pub fn read_frame(stream: &mut impl Read, max_frame: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_frame}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Writes one length-prefixed frame.
pub fn write_frame(stream: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(body.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame exceeds u32 length")
    })?;
    stream.write_all(&len.to_be_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Renders `json` as a frame body.
pub fn frame_of(json: &Json) -> Vec<u8> {
    json.render().into_bytes()
}

// ---- request -------------------------------------------------------------

/// One decoded wire request.
#[derive(Debug, Clone)]
pub enum WireRequest {
    /// `verb: "sql"` — parse and serve one statement.
    Sql {
        /// Client request id (non-zero).
        id: u64,
        /// Tenant auth token.
        token: String,
        /// Target dataset name.
        dataset: String,
        /// The SQL text.
        sql: String,
        /// Requested ε.
        epsilon: f64,
        /// Optional query label echoed in the answer (default `"sql"`).
        name: Option<String>,
    },
    /// `verb: "metrics"` — Prometheus exposition + audit JSONL snapshot.
    /// The snapshot spans every tenant, so the listener only serves it to
    /// tokens in [`crate::GateConfig::admin_tokens`]; tenant tokens are
    /// refused with `forbidden`.
    Metrics {
        /// Client request id (non-zero).
        id: u64,
        /// Admin auth token.
        token: String,
    },
    /// `verb: "subscribe"` — stream audit events, completed trace spans,
    /// and slow-query records over this connection as they happen. The
    /// stream spans every tenant, so it is admin-gated like `metrics`.
    Subscribe {
        /// Client request id (non-zero); event frames echo it.
        id: u64,
        /// Admin auth token.
        token: String,
        /// Optional per-subscriber ring capacity (events buffered while
        /// this connection is busy); the bus default applies when absent.
        capacity: Option<usize>,
    },
    /// `verb: "explain"` — resolve and plan one statement without
    /// spending budget; optionally execute it once to profile kernel
    /// counters. Plan shapes and sampled selectivities are un-noised and
    /// data-dependent, so this verb is admin-gated.
    Explain {
        /// Client request id (non-zero).
        id: u64,
        /// Admin auth token.
        token: String,
        /// Target dataset name.
        dataset: String,
        /// The SQL text.
        sql: String,
        /// Execute once and report kernel-counter deltas.
        profile: bool,
    },
}

impl WireRequest {
    /// The client request id.
    pub fn id(&self) -> u64 {
        match self {
            WireRequest::Sql { id, .. }
            | WireRequest::Metrics { id, .. }
            | WireRequest::Subscribe { id, .. }
            | WireRequest::Explain { id, .. } => *id,
        }
    }

    /// Decodes a frame body. Errors are `(id, code, message)` ready for
    /// [`refusal`] — `id` is 0 when the frame was too broken to carry one.
    pub fn decode(body: &[u8]) -> Result<WireRequest, (u64, &'static str, String)> {
        let text = std::str::from_utf8(body)
            .map_err(|_| (0, "bad_request", "frame is not UTF-8".to_string()))?;
        let json = Json::parse(text).map_err(|e| (0, "bad_request", format!("bad JSON: {e}")))?;
        let id = json.get("id").and_then(Json::as_f64).unwrap_or(0.0);
        // The id rides the f64-based JSON layer end to end, so the
        // protocol caps it at Number.MAX_SAFE_INTEGER (2^53 − 1): above
        // that the echoed id could differ from the one sent.
        const MAX_ID: f64 = 9_007_199_254_740_991.0;
        if id <= 0.0 || id.fract() != 0.0 || id > MAX_ID {
            return Err((0, "bad_request", "`id` must be a positive integer <= 2^53 - 1".into()));
        }
        let id = id as u64;
        let str_field = |key: &str| -> Result<String, (u64, &'static str, String)> {
            json.get(key).and_then(Json::as_str).map(str::to_string).ok_or((
                id,
                "bad_request",
                format!("missing string field `{key}`"),
            ))
        };
        match json.get("verb").and_then(Json::as_str) {
            Some("sql") => {
                let epsilon = json.get("epsilon").and_then(Json::as_f64).ok_or((
                    id,
                    "bad_request",
                    "missing numeric field `epsilon`".to_string(),
                ))?;
                Ok(WireRequest::Sql {
                    id,
                    token: str_field("token")?,
                    dataset: str_field("dataset")?,
                    sql: str_field("sql")?,
                    epsilon,
                    name: json.get("name").and_then(Json::as_str).map(str::to_string),
                })
            }
            Some("metrics") => Ok(WireRequest::Metrics { id, token: str_field("token")? }),
            Some("subscribe") => {
                let capacity = match json.get("capacity") {
                    None | Some(Json::Null) => None,
                    Some(v) => {
                        let n = v.as_f64().filter(|n| *n >= 1.0 && n.fract() == 0.0).ok_or((
                            id,
                            "bad_request",
                            "`capacity` must be a positive integer".to_string(),
                        ))?;
                        Some(n as usize)
                    }
                };
                Ok(WireRequest::Subscribe { id, token: str_field("token")?, capacity })
            }
            Some("explain") => Ok(WireRequest::Explain {
                id,
                token: str_field("token")?,
                dataset: str_field("dataset")?,
                sql: str_field("sql")?,
                profile: json.get("profile").and_then(Json::as_f64).is_some_and(|v| v != 0.0),
            }),
            Some(other) => Err((id, "bad_request", format!("unknown verb `{other}`"))),
            None => Err((id, "bad_request", "missing string field `verb`".into())),
        }
    }
}

// ---- responses ------------------------------------------------------------

/// A structured refusal frame.
pub fn refusal(id: u64, code: &str, message: &str) -> Json {
    Json::obj(vec![
        ("id", Json::Num(id as f64)),
        ("ok", FALSE),
        ("code", Json::Str(code.to_string())),
        ("error", Json::Str(message.to_string())),
    ])
}

/// A refusal for a gate (parse/resolve) error, carrying the byte position.
pub fn gate_refusal(id: u64, err: &GateError) -> Json {
    Json::obj(vec![
        ("id", Json::Num(id as f64)),
        ("ok", FALSE),
        ("code", Json::Str(err.code().to_string())),
        ("error", Json::Str(err.to_string())),
        ("pos", Json::Num(err.pos() as f64)),
    ])
}

/// An answer frame for a served SQL request. The served path always
/// passes `None` for `noisy_sql`: PM evaluates the perturbed query exactly,
/// so releasing it next to the answer would make the answer a
/// deterministic function of the data.
pub fn answer_frame(id: u64, answer: &ServiceAnswer, noisy_sql: Option<String>) -> Json {
    let mut pairs = vec![("id", Json::Num(id as f64)), ("ok", TRUE)];
    match &answer.result {
        QueryResult::Scalar(v) => {
            pairs.push(("kind", Json::Str("scalar".into())));
            pairs.push(("value", Json::Num(*v)));
        }
        QueryResult::Groups(groups) => {
            pairs.push(("kind", Json::Str("groups".into())));
            let rows = groups
                .iter()
                .map(|(key, value)| {
                    Json::obj(vec![
                        ("key", Json::Arr(key.iter().map(|&c| Json::Num(c as f64)).collect())),
                        ("value", Json::Num(*value)),
                    ])
                })
                .collect();
            pairs.push(("groups", Json::Arr(rows)));
        }
    }
    pairs.push(("cached", if answer.cached { TRUE } else { FALSE }));
    let (eps, delta) = answer.cost.map_or((0.0, 0.0), |c| (c.epsilon(), c.delta()));
    pairs.push(("cost_epsilon", Json::Num(eps)));
    pairs.push(("cost_delta", Json::Num(delta)));
    if let Some(noisy) = noisy_sql {
        pairs.push(("noisy_sql", Json::Str(noisy)));
    }
    Json::obj(pairs)
}

/// The stable refusal code for each [`ServiceError`] variant.
pub fn service_code(err: &ServiceError) -> &'static str {
    match err {
        ServiceError::BudgetExhausted { .. } => "budget_exhausted",
        ServiceError::UnknownTenant(_) => "unknown_tenant",
        ServiceError::DuplicateTenant(_) => "duplicate_tenant",
        ServiceError::TenantIdTooLong { .. } => "tenant_id_too_long",
        ServiceError::InvalidQuery(_) => "invalid_query",
        ServiceError::InvalidBudget(_) => "invalid_budget",
        ServiceError::Mechanism(_) => "mechanism_failure",
        ServiceError::StaleDataVersion { .. } => "stale_data_version",
        // Degraded mode: the budget journal is unavailable, so spends are
        // refused while cache hits and free answers keep serving. Stable —
        // clients key retry/alerting logic on it.
        ServiceError::DurabilityUnavailable { .. } => "journal_unavailable",
        ServiceError::Internal(_) => "internal",
    }
}

/// The stable refusal code for each [`RouterError`] variant. Shard-wrapped
/// service errors surface their inner [`service_code`] so clients see one
/// flat code space.
pub fn router_code(err: &RouterError) -> &'static str {
    match err {
        RouterError::Shard { source, .. } => service_code(source),
        RouterError::NoShards => "no_shards",
        RouterError::UnknownDataset(_) => "unknown_dataset",
        RouterError::DuplicateDataset(_) => "duplicate_dataset",
        RouterError::UnknownTable(_) => "unknown_table",
        RouterError::AmbiguousTable(_) => "ambiguous_table",
        RouterError::MixedDatasets { .. } => "mixed_datasets",
        RouterError::Unroutable(_) => "unroutable",
        RouterError::Fanout(_) => "fanout_failure",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every code [`service_code`] and [`router_code`] can return is a row
    /// of the README's refusal-code table, so the documented code space
    /// cannot drift from the one clients receive.
    #[test]
    fn every_refusal_code_is_in_the_readme_table() {
        let readme = include_str!("../../../README.md");
        let start = readme.find("| code | raised by |").expect("README refusal-code table");
        let table = readme[start..].split("\n\n").next().unwrap_or_default();
        let service = [
            ServiceError::BudgetExhausted {
                tenant: "t".into(),
                requested_epsilon: 1.0,
                remaining_epsilon: 0.0,
            },
            ServiceError::UnknownTenant("t".into()),
            ServiceError::DuplicateTenant("t".into()),
            ServiceError::TenantIdTooLong { bytes: 300, max: 255 },
            ServiceError::InvalidQuery(starj_engine::EngineError::UnknownTable("T".into())),
            ServiceError::InvalidBudget(starj_noise::NoiseError::InvalidEpsilon(0.0)),
            ServiceError::Mechanism(dp_starj::CoreError::Invalid("x".into())),
            ServiceError::DurabilityUnavailable { reason: "disk".into() },
            ServiceError::Internal("x".into()),
            ServiceError::StaleDataVersion { submitted: 0, current: 1 },
        ];
        let router = [
            RouterError::NoShards,
            RouterError::UnknownDataset("d".into()),
            RouterError::DuplicateDataset("d".into()),
            RouterError::UnknownTable("T".into()),
            RouterError::AmbiguousTable("T".into()),
            RouterError::MixedDatasets { query: "q".into(), datasets: vec![] },
            RouterError::Unroutable("q".into()),
            RouterError::Shard { dataset: "d".into(), shard: 0, source: service[0].clone() },
            RouterError::Fanout(vec![]),
        ];
        let codes = service.iter().map(service_code).chain(router.iter().map(router_code));
        for code in codes {
            assert!(table.contains(&format!("`{code}`")), "README table lacks `{code}`");
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frames_are_refused_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut std::io::Cursor::new(buf), 1024).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn requests_decode_and_bad_ones_carry_codes() {
        let req = Json::obj(vec![
            ("id", Json::Num(7.0)),
            ("verb", Json::Str("sql".into())),
            ("token", Json::Str("t".into())),
            ("dataset", Json::Str("ssb".into())),
            ("sql", Json::Str("SELECT count(*) FROM F;".into())),
            ("epsilon", Json::Num(0.5)),
        ]);
        match WireRequest::decode(req.render().as_bytes()).unwrap() {
            WireRequest::Sql { id, dataset, epsilon, name, .. } => {
                assert_eq!(id, 7);
                assert_eq!(dataset, "ssb");
                assert_eq!(epsilon, 0.5);
                assert!(name.is_none());
            }
            other => panic!("wrong verb: {other:?}"),
        }

        for (body, want_id) in [
            (&b"not json"[..], 0),
            (br#"{"verb": "sql"}"#, 0),            // no id
            (br#"{"id": 0, "verb": "sql"}"#, 0),   // zero id
            (br#"{"id": 1.5, "verb": "sql"}"#, 0), // fractional id
            (br#"{"id": 3, "verb": "warp"}"#, 3),  // unknown verb
            (br#"{"id": 4, "verb": "sql"}"#, 4),   // missing fields
            (br#"{"id": 5}"#, 5),                  // missing verb
            (b"\xff\xfe", 0),                      // not UTF-8
            // Above 2^53 − 1 the f64 JSON layer cannot echo the id
            // exactly; the protocol refuses instead of corrupting it.
            (&br#"{"id": 9007199254740992, "verb": "metrics", "token": "t"}"#[..], 0),
            (&br#"{"id": 18446744073709551615, "verb": "metrics", "token": "t"}"#[..], 0),
        ] {
            let (id, code, _) = WireRequest::decode(body).unwrap_err();
            assert_eq!(id, want_id, "id salvaged from {body:?}");
            assert_eq!(code, "bad_request");
        }

        // The largest exactly-representable id round-trips untouched.
        let max_safe = br#"{"id": 9007199254740991, "verb": "metrics", "token": "t"}"#;
        assert_eq!(WireRequest::decode(max_safe).unwrap().id(), 9_007_199_254_740_991);
    }

    #[test]
    fn subscribe_and_explain_requests_decode() {
        let sub = br#"{"id": 9, "verb": "subscribe", "token": "a", "capacity": 64}"#;
        match WireRequest::decode(sub).unwrap() {
            WireRequest::Subscribe { id, capacity, .. } => {
                assert_eq!(id, 9);
                assert_eq!(capacity, Some(64));
            }
            other => panic!("wrong verb: {other:?}"),
        }
        let sub_default = br#"{"id": 9, "verb": "subscribe", "token": "a"}"#;
        match WireRequest::decode(sub_default).unwrap() {
            WireRequest::Subscribe { capacity, .. } => assert!(capacity.is_none()),
            other => panic!("wrong verb: {other:?}"),
        }
        let bad_cap = br#"{"id": 9, "verb": "subscribe", "token": "a", "capacity": 0.5}"#;
        assert_eq!(WireRequest::decode(bad_cap).unwrap_err().1, "bad_request");

        let explain =
            br#"{"id": 10, "verb": "explain", "token": "a", "dataset": "ssb", "sql": "SELECT count(*) FROM F;", "profile": 1}"#;
        match WireRequest::decode(explain).unwrap() {
            WireRequest::Explain { id, dataset, profile, .. } => {
                assert_eq!(id, 10);
                assert_eq!(dataset, "ssb");
                assert!(profile);
            }
            other => panic!("wrong verb: {other:?}"),
        }
        // Profile defaults to off; dataset is required.
        let plain = br#"{"id": 11, "verb": "explain", "token": "a", "dataset": "ssb", "sql": "SELECT count(*) FROM F;"}"#;
        match WireRequest::decode(plain).unwrap() {
            WireRequest::Explain { profile, .. } => assert!(!profile),
            other => panic!("wrong verb: {other:?}"),
        }
        let no_dataset =
            br#"{"id": 12, "verb": "explain", "token": "a", "sql": "SELECT count(*) FROM F;"}"#;
        assert_eq!(WireRequest::decode(no_dataset).unwrap_err().1, "bad_request");
    }

    #[test]
    fn refusal_frames_carry_stable_codes() {
        let r = refusal(9, "budget_exhausted", "no more ε");
        assert_eq!(r.get("id").and_then(Json::as_f64), Some(9.0));
        assert_eq!(r.get("code").and_then(Json::as_str), Some("budget_exhausted"));
        let g = gate_refusal(
            2,
            &GateError::Parse { pos: 31, expected: "FROM".into(), found: "`;`".into() },
        );
        assert_eq!(g.get("code").and_then(Json::as_str), Some("parse_error"));
        assert_eq!(g.get("pos").and_then(Json::as_f64), Some(31.0));
    }

    #[test]
    fn every_service_error_has_a_distinct_code() {
        use starj_service::ServiceError as E;
        let codes = [
            service_code(&E::BudgetExhausted {
                tenant: "t".into(),
                requested_epsilon: 1.0,
                remaining_epsilon: 0.0,
            }),
            service_code(&E::UnknownTenant("t".into())),
            service_code(&E::DuplicateTenant("t".into())),
            service_code(&E::StaleDataVersion { submitted: 1, current: 2 }),
            service_code(&E::DurabilityUnavailable { reason: "disk gone".into() }),
            service_code(&E::Internal("worker panicked".into())),
        ];
        let mut unique = codes.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len(), "codes collide: {codes:?}");
    }
}
