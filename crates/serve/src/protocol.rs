//! The JSON-lines wire protocol: one request object per line in, one
//! response object per line out.
//!
//! Requests (`op` selects the operation):
//!
//! ```text
//! {"op":"link_score","u":3,"v":17}
//! {"op":"embedding","u":3}
//! {"op":"topk","u":3,"k":5}
//! {"op":"ingest","edges":[[3,17,0.9],[17,4,0.95]]}
//! {"op":"stats"}
//! {"op":"metrics"}
//! ```
//!
//! Successful responses carry `"ok":true` plus the payload and the
//! snapshot `"version"` that answered them; failures carry `"ok":false`
//! and a human-readable `"error"` — and never terminate the connection.
//!
//! `ingest` may add vertices, but only densely. Let `known` be the larger
//! of the served node count and one past the largest endpoint any earlier
//! accepted `ingest` named. A request whose edge has an endpoint at or
//! past `known + 2 × edges.len()` is refused whole, with an error that
//! names the edge (`edges[i] [src, dst]: ...`), and none of its edges are
//! queued. Without the bound one edge to node 4 294 967 295 would make
//! the next refresh size its tables for 2³² vertices.

use tgraph::{NodeId, TemporalEdge};

use crate::json::{obj, Json};

/// A parsed, validated protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Link-existence probability for `(u, v)`.
    LinkScore {
        /// Source node.
        u: NodeId,
        /// Destination node.
        v: NodeId,
    },
    /// The embedding vector of `u`.
    Embedding {
        /// Node to look up.
        u: NodeId,
    },
    /// The `k` nearest neighbors of `u` by embedding dot product.
    TopK {
        /// Query node.
        u: NodeId,
        /// How many neighbors.
        k: usize,
    },
    /// Queue temporal edges for the next background refresh.
    Ingest {
        /// Edges as `(src, dst, time)`.
        edges: Vec<TemporalEdge>,
    },
    /// Serving counters.
    Stats,
    /// The service's metrics registry rendered as Prometheus text.
    Metrics,
}

impl Request {
    /// The node id that shard routing hashes, when the operation has one
    /// (`link_score`/`embedding`/`topk` key on `u`). Keyless operations
    /// (`ingest`, `stats`, `metrics`) return `None` and are routed by
    /// connection instead.
    pub fn routing_key(&self) -> Option<u64> {
        match self {
            Request::LinkScore { u, .. } | Request::Embedding { u } | Request::TopK { u, .. } => {
                Some(u64::from(*u))
            }
            Request::Ingest { .. } | Request::Stats | Request::Metrics => None,
        }
    }
}

/// Parses one request line. The error string is ready to embed in an
/// `"ok":false` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field \"op\"".to_string())?;
    match op {
        "link_score" => Ok(Request::LinkScore { u: node_field(&v, "u")?, v: node_field(&v, "v")? }),
        "embedding" => Ok(Request::Embedding { u: node_field(&v, "u")? }),
        "topk" => {
            let k = v
                .get("k")
                .and_then(Json::as_u64)
                .ok_or_else(|| "missing non-negative integer field \"k\"".to_string())?;
            Ok(Request::TopK { u: node_field(&v, "u")?, k: k as usize })
        }
        "ingest" => {
            let items = v
                .get("edges")
                .and_then(Json::as_array)
                .ok_or_else(|| "missing array field \"edges\"".to_string())?;
            let mut edges = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                edges.push(parse_edge(item).map_err(|e| format!("edges[{i}]: {e}"))?);
            }
            Ok(Request::Ingest { edges })
        }
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        other => Err(format!("unknown op {other:?}")),
    }
}

fn node_field(v: &Json, name: &str) -> Result<NodeId, String> {
    let raw = v
        .get(name)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing non-negative integer field {name:?}"))?;
    NodeId::try_from(raw).map_err(|_| format!("field {name:?} exceeds the node id range"))
}

fn parse_edge(item: &Json) -> Result<TemporalEdge, String> {
    let parts = item.as_array().ok_or("expected [src, dst, time]")?;
    if parts.len() != 3 {
        return Err(format!("expected 3 elements, got {}", parts.len()));
    }
    let src = parts[0].as_u64().ok_or("src must be a non-negative integer")?;
    let dst = parts[1].as_u64().ok_or("dst must be a non-negative integer")?;
    let time = parts[2].as_f64().ok_or("time must be a number")?;
    let src = NodeId::try_from(src).map_err(|_| "src exceeds the node id range".to_string())?;
    let dst = NodeId::try_from(dst).map_err(|_| "dst exceeds the node id range".to_string())?;
    if !time.is_finite() {
        return Err("time must be finite".to_string());
    }
    Ok(TemporalEdge::new(src, dst, time))
}

/// An `"ok":false` response line (no trailing newline).
pub fn error_response(message: &str) -> String {
    obj([("ok", Json::Bool(false)), ("error", Json::Str(message.to_string()))]).to_string()
}

/// The structured load-shedding response: `"error":"overloaded"` so
/// clients can match on it exactly, plus a `"detail"` naming which
/// budget tripped. Shedding never closes the connection (except the
/// connection-cap path, where there is no connection to keep).
pub fn overloaded_response(detail: &str) -> String {
    obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str("overloaded".to_string())),
        ("detail", Json::Str(detail.to_string())),
    ])
    .to_string()
}

/// An `"ok":true` response with the payload fields and snapshot version.
pub fn ok_response(fields: Vec<(&'static str, Json)>, version: u64) -> String {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    all.push(("version", Json::Num(version as f64)));
    obj(all).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(
            parse_request(r#"{"op":"link_score","u":3,"v":17}"#),
            Ok(Request::LinkScore { u: 3, v: 17 })
        );
        assert_eq!(parse_request(r#"{"op":"embedding","u":0}"#), Ok(Request::Embedding { u: 0 }));
        assert_eq!(parse_request(r#"{"op":"topk","u":2,"k":5}"#), Ok(Request::TopK { u: 2, k: 5 }));
        assert_eq!(
            parse_request(r#"{"op":"ingest","edges":[[1,2,0.5],[2,3,0.75]]}"#),
            Ok(Request::Ingest {
                edges: vec![TemporalEdge::new(1, 2, 0.5), TemporalEdge::new(2, 3, 0.75)]
            })
        );
        assert_eq!(parse_request(r#"{"op":"stats"}"#), Ok(Request::Stats));
        assert_eq!(parse_request(r#"{"op":"metrics"}"#), Ok(Request::Metrics));
    }

    #[test]
    fn rejects_malformed_requests_with_messages() {
        for (line, needle) in [
            ("{not json", "invalid JSON"),
            (r#"{"u":1,"v":2}"#, "\"op\""),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"link_score","u":1}"#, "\"v\""),
            (r#"{"op":"link_score","u":-1,"v":2}"#, "\"u\""),
            (r#"{"op":"link_score","u":1.5,"v":2}"#, "\"u\""),
            (r#"{"op":"link_score","u":"x","v":2}"#, "\"u\""),
            (r#"{"op":"link_score","u":5000000000,"v":2}"#, "node id range"),
            (r#"{"op":"topk","u":1}"#, "\"k\""),
            (r#"{"op":"ingest"}"#, "\"edges\""),
            (r#"{"op":"ingest","edges":[[1,2]]}"#, "edges[0]"),
            (r#"{"op":"ingest","edges":[[1,2,"t"]]}"#, "time"),
            (r#"{"op":"ingest","edges":[5]}"#, "edges[0]"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "error {err:?} for {line:?} missing {needle:?}");
        }
    }

    #[test]
    fn response_builders_emit_protocol_shapes() {
        let ok = ok_response(vec![("score", Json::Num(0.5))], 3);
        assert_eq!(ok, r#"{"ok":true,"score":0.5,"version":3}"#);
        let err = error_response("unknown node id 99");
        assert_eq!(err, r#"{"ok":false,"error":"unknown node id 99"}"#);
    }
}
