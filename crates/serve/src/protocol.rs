//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Every message is one JSON object on one line, terminated by `\n` and at
//! most [`MAX_LINE_BYTES`] long ([`LineReader`] is the one framer). A
//! client writes a [`Request`] line and reads exactly one [`Response`] line
//! back; requests on one connection are handled in order. The `type` field
//! discriminates variants, e.g.:
//!
//! ```text
//! → {"type":"generate","model":"merge:eda-qwen+instruct-qwen@0.6","prompt":"Q:...;A:"}
//! ← {"type":"generation","model":"merge:eda-qwen+instruct-qwen@0.6000","text":"...","tokens":24,...}
//! ```

use std::io::{BufRead, BufReader, Read, Write};

use chipalign_model::json::{self, FromJson, JsonError, ToJson, Value};
use chipalign_model::{json_struct, json_unit_enum};
use chipalign_nn::generate::GenerateConfig;

use crate::ServeError;

/// Protocol version reported by `ping`, the only version spoken: the
/// [`Request`] and [`Response`] variants as declared here. Every reply
/// member is required, so a reply missing one is refused with
/// [`ServeError::Protocol`]. A `generate` request may omit every field
/// but `model` and `prompt` ([`GenerateRequest`]'s decode defaults). A
/// single-process `chipalign-serve` answers the router-only `fleet` and
/// `drain` requests with a structured `bad_request` instead of dropping the
/// connection.
pub const PROTOCOL_VERSION: u32 = 3;

/// A client-to-server message: one JSON object whose `type` member names
/// the variant in snake_case, followed by the variant's own members.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run one generation session.
    Generate(GenerateRequest),
    /// List loaded models and the zoo models that can be served by slug.
    Models,
    /// Materialize (train/load/merge as needed) a model without generating,
    /// so a later `generate` hits a warm registry — this is the hot-swap
    /// path for rolling out a new λ.
    Load {
        /// Model spec (zoo slug, `merge:<chip>+<instruct>@<λ>`, or
        /// `file:<path>`).
        model: String,
    },
    /// Evict a previously materialized model from the registry cache.
    Unload {
        /// The spec or registered name to evict.
        model: String,
    },
    /// Fetch a metrics snapshot.
    Metrics,
    /// Liveness check.
    Ping,
    /// List replica health states. Answered by `chipalign-router`; a
    /// single-process server replies with a structured `bad_request`.
    Fleet,
    /// Mark one replica draining: it finishes in-flight sessions but
    /// receives no new ones, and its hash-ring range is rebalanced onto
    /// its neighbors. Router-only, like [`Request::Fleet`].
    Drain {
        /// The replica's address (`host:port`) as reported by `fleet`.
        replica: String,
    },
}

json_struct! {
    /// Parameters for one generation session.
    #[derive(Debug, Clone)]
    pub struct GenerateRequest {
        /// Model spec (zoo slug, `merge:<chip>+<instruct>@<λ>`,
        /// `file:<path>`, or a name registered via the API).
        pub model: String,
        /// The text prompt.
        pub prompt: String,
        /// Maximum number of new tokens (clamped to the server's cap).
        pub max_new_tokens: usize = 64,
        /// Softmax temperature; `0` is greedy.
        pub temperature: f32 = 0.0,
        /// Top-k truncation (`0` disables).
        pub top_k: usize = 0,
        /// Nucleus mass (`1.0` disables).
        pub top_p: f32 = 1.0,
        /// Stop at `<eos>`.
        pub stop_at_eos: bool = true,
        /// Sampling seed.
        pub seed: u64 = 0,
        /// Per-request deadline in milliseconds, measured from admission.
        /// When absent, the request has no deadline.
        pub deadline_ms: Option<u64> = None,
        /// Which retry of this request this is (`0` = first attempt). The
        /// router sets it to the failover attempt index; the server counts
        /// non-zero attempts in the `retries_attempted` metric.
        pub retry_attempt: u32 = 0,
    }
}

impl GenerateRequest {
    /// A greedy request with server defaults for everything else.
    #[must_use]
    pub fn greedy(model: &str, prompt: &str, max_new_tokens: usize) -> Self {
        GenerateRequest {
            model: model.to_string(),
            prompt: prompt.to_string(),
            max_new_tokens,
            temperature: 0.0,
            top_k: 0,
            top_p: 1.0,
            stop_at_eos: true,
            seed: 0,
            deadline_ms: None,
            retry_attempt: 0,
        }
    }

    /// The decoding configuration this request asks for, with the token
    /// budget clamped to `cap`.
    #[must_use]
    pub fn decode_config(&self, cap: usize) -> GenerateConfig {
        GenerateConfig {
            max_new_tokens: self.max_new_tokens.min(cap),
            temperature: self.temperature,
            top_k: self.top_k,
            top_p: self.top_p,
            stop_at_eos: self.stop_at_eos,
            seed: self.seed,
        }
    }
}

/// A server-to-client message, tagged by `type` like [`Request`].
#[derive(Debug, Clone)]
pub enum Response {
    /// A finished generation.
    Generation(Generation),
    /// Registry listing.
    Models {
        /// Cache keys of every materialized model.
        loaded: Vec<String>,
        /// Zoo slugs that can be requested directly or as merge
        /// ingredients.
        zoo: Vec<String>,
        /// Per-model detail rows (dtype and weight bytes), index-free and
        /// keyed by `model`.
        models: Vec<LoadedModel>,
    },
    /// A `load` completed; `model` is the canonical cache key.
    Loaded {
        /// Canonical registry key of the materialized model.
        model: String,
    },
    /// An `unload` completed.
    Unloaded {
        /// The spec that was evicted.
        model: String,
        /// Whether anything was actually removed.
        evicted: bool,
    },
    /// A metrics snapshot.
    Metrics(Box<crate::metrics::MetricsSnapshot>),
    /// Reply to `ping`.
    Pong {
        /// Protocol version.
        version: u32,
    },
    /// Reply to `fleet`: one status per known replica.
    Fleet {
        /// Per-replica health, in ring registration order.
        replicas: Vec<ReplicaStatus>,
    },
    /// Reply to `drain`.
    Drained {
        /// The replica address that was asked to drain.
        replica: String,
        /// Whether the router knew that replica (an unknown address is
        /// acknowledged but changes nothing).
        known: bool,
    },
    /// The request failed.
    Error(WireError),
}

json_struct! {
    /// One materialized model's detail row in a `models` reply.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LoadedModel {
        /// Canonical registry key.
        pub model: String,
        /// Decode dtype: `"f32"`, or `"int8"` for a `#int8` variant.
        pub dtype: String,
        /// Weight bytes resident at that dtype.
        pub weights_bytes: u64,
    }
}

json_struct! {
    /// Health of one replica as seen by the router.
    #[derive(Debug, Clone)]
    pub struct ReplicaStatus {
        /// The replica's address (`host:port`).
        pub addr: String,
        /// Current health state.
        pub state: ReplicaHealth,
        /// Requests the router currently has in flight against this replica.
        pub inflight: u64,
        /// Consecutive probe/request failures since the last success.
        pub consecutive_failures: u32,
    }
}

json_unit_enum! {
    /// The router's three-state replica health model, plus the drain state.
    ///
    /// `Healthy` replicas take traffic in ring order. `Degraded` replicas
    /// (recent `overloaded` replies or probe hiccups) are only tried after
    /// every healthy candidate. `Down` replicas (consecutive probe failures
    /// past the threshold) are last-resort candidates until a probe
    /// succeeds. `Draining` replicas finish in-flight sessions but are
    /// excluded from candidate lists entirely.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ReplicaHealth {
        /// Probes pass; traffic routes here in ring order.
        Healthy = "healthy",
        /// Saturated or flaky; used only when no healthy candidate remains.
        Degraded = "degraded",
        /// Probes failing; assumed dead until one succeeds.
        Down = "down",
        /// Administratively draining; receives no new sessions.
        Draining = "draining",
    }
}

json_struct! {
    /// One finished generation session.
    #[derive(Debug, Clone)]
    pub struct Generation {
        /// Canonical registry key of the model that served the request.
        pub model: String,
        /// The generated text (special tokens stripped).
        pub text: String,
        /// Number of new tokens produced.
        pub tokens: usize,
        /// Number of prompt tokens consumed.
        pub prompt_tokens: usize,
        /// Why the session ended.
        pub finish: FinishReason,
        /// Time spent queued before the first decode slice, in milliseconds.
        pub queue_ms: u64,
        /// Total time from admission to completion, in milliseconds.
        pub latency_ms: u64,
    }
}

json_unit_enum! {
    /// Why a generation session ended.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FinishReason {
        /// The model emitted `<eos>`.
        Eos = "eos",
        /// The token budget was exhausted.
        Length = "length",
    }
}

json_struct! {
    /// A structured error on the wire.
    #[derive(Debug, Clone)]
    pub struct WireError {
        /// Machine-readable error class.
        pub code: ErrorCode,
        /// Human-readable detail.
        pub detail: String,
    }
}

json_unit_enum! {
    /// Machine-readable error classes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ErrorCode {
        /// The request was malformed or semantically invalid.
        BadRequest = "bad_request",
        /// The model spec names nothing servable.
        UnknownModel = "unknown_model",
        /// Admission control rejected the request; retry later.
        Overloaded = "overloaded",
        /// The per-request deadline expired.
        DeadlineExceeded = "deadline_exceeded",
        /// The server is draining.
        ShuttingDown = "shutting_down",
        /// Unexpected server-side failure.
        Internal = "internal",
    }
}

/// `{"type":tag}` followed by `members`.
fn tagged(tag: &str, members: Vec<(String, Value)>) -> Value {
    let mut all = Vec::with_capacity(members.len() + 1);
    all.push(("type".to_string(), Value::String(tag.to_string())));
    all.extend(members);
    Value::Object(all)
}

/// `{"type":tag}` followed by the members of `inner`'s own object (every
/// `json_struct!` type encodes as one).
fn tagged_struct(tag: &str, inner: &impl ToJson) -> Value {
    match inner.to_json() {
        Value::Object(members) => tagged(tag, members),
        other => other,
    }
}

fn member(key: &str, value: &impl ToJson) -> (String, Value) {
    (key.to_string(), value.to_json())
}

/// The members of a tagged message and its `type`.
fn untag<'a>(v: &'a Value, what: &str) -> Result<(Members<'a>, String), JsonError> {
    let members = json::object(v, what)?;
    Ok((members, json::required(members, "type")?))
}

type Members<'a> = &'a [(String, Value)];

fn unknown_variant(what: &str, tag: &str) -> JsonError {
    JsonError::new(format!("unknown {what} type `{tag}`"))
}

impl ToJson for Request {
    fn to_json(&self) -> Value {
        match self {
            Request::Generate(g) => tagged_struct("generate", g),
            Request::Models => tagged("models", vec![]),
            Request::Load { model } => tagged("load", vec![member("model", model)]),
            Request::Unload { model } => tagged("unload", vec![member("model", model)]),
            Request::Metrics => tagged("metrics", vec![]),
            Request::Ping => tagged("ping", vec![]),
            Request::Fleet => tagged("fleet", vec![]),
            Request::Drain { replica } => tagged("drain", vec![member("replica", replica)]),
        }
    }
}

impl FromJson for Request {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let (m, tag) = untag(v, "a request")?;
        Ok(match tag.as_str() {
            "generate" => Request::Generate(GenerateRequest::from_json(v)?),
            "models" => Request::Models,
            "load" => Request::Load {
                model: json::required(m, "model")?,
            },
            "unload" => Request::Unload {
                model: json::required(m, "model")?,
            },
            "metrics" => Request::Metrics,
            "ping" => Request::Ping,
            "fleet" => Request::Fleet,
            "drain" => Request::Drain {
                replica: json::required(m, "replica")?,
            },
            other => return Err(unknown_variant("request", other)),
        })
    }
}

impl ToJson for Response {
    fn to_json(&self) -> Value {
        match self {
            Response::Generation(g) => tagged_struct("generation", g),
            Response::Models {
                loaded,
                zoo,
                models,
            } => tagged(
                "models",
                vec![
                    member("loaded", loaded),
                    member("zoo", zoo),
                    member("models", models),
                ],
            ),
            Response::Loaded { model } => tagged("loaded", vec![member("model", model)]),
            Response::Unloaded { model, evicted } => tagged(
                "unloaded",
                vec![member("model", model), member("evicted", evicted)],
            ),
            Response::Metrics(snapshot) => tagged_struct("metrics", snapshot.as_ref()),
            Response::Pong { version } => tagged("pong", vec![member("version", version)]),
            Response::Fleet { replicas } => tagged("fleet", vec![member("replicas", replicas)]),
            Response::Drained { replica, known } => tagged(
                "drained",
                vec![member("replica", replica), member("known", known)],
            ),
            Response::Error(e) => tagged_struct("error", e),
        }
    }
}

impl FromJson for Response {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let (m, tag) = untag(v, "a response")?;
        Ok(match tag.as_str() {
            "generation" => Response::Generation(Generation::from_json(v)?),
            "models" => Response::Models {
                loaded: json::required(m, "loaded")?,
                zoo: json::required(m, "zoo")?,
                models: json::required(m, "models")?,
            },
            "loaded" => Response::Loaded {
                model: json::required(m, "model")?,
            },
            "unloaded" => Response::Unloaded {
                model: json::required(m, "model")?,
                evicted: json::required(m, "evicted")?,
            },
            "metrics" => {
                Response::Metrics(Box::new(crate::metrics::MetricsSnapshot::from_json(v)?))
            }
            "pong" => Response::Pong {
                version: json::required(m, "version")?,
            },
            "fleet" => Response::Fleet {
                replicas: json::required(m, "replicas")?,
            },
            "drained" => Response::Drained {
                replica: json::required(m, "replica")?,
                known: json::required(m, "known")?,
            },
            "error" => Response::Error(WireError::from_json(v)?),
            other => return Err(unknown_variant("response", other)),
        })
    }
}

/// Serializes `msg` as one newline-terminated compact JSON line and hands
/// it to `w` in a single write, so a line is never split across segments.
///
/// # Errors
///
/// Returns [`ServeError::Io`] on write failure.
pub fn write_line<W: Write, T: ToJson>(w: &mut W, msg: &T) -> Result<(), ServeError> {
    let mut line = json::to_string(msg);
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()?;
    Ok(())
}

/// The longest line, newline included, that [`LineReader`] will buffer:
/// the largest legitimate message is a prompt plus a model spec.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The one line framer of the wire: both servers' request reads, the
/// router's reads of replica replies and the [`crate::Client`] all go
/// through it. It frames on bytes, so a read timeout that lands mid-line —
/// even inside a multi-byte character — loses nothing.
#[derive(Debug)]
pub struct LineReader<R> {
    inner: BufReader<R>,
    line: Vec<u8>,
    /// `line` was handed out by the previous call; the next one starts over.
    handed_out: bool,
}

impl<R: Read> LineReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        LineReader {
            inner: BufReader::new(inner),
            line: Vec::new(),
            handed_out: false,
        }
    }

    /// Blocks for the next line (terminator included; an unterminated last
    /// line before EOF counts). `Ok(None)` is a clean EOF.
    ///
    /// # Errors
    ///
    /// `WouldBlock` / `TimedOut` when the stream's read timeout expires —
    /// bytes read so far are kept, so calling again resumes the same line.
    /// `InvalidData` for a line that is not UTF-8 or that reaches
    /// [`MAX_LINE_BYTES`] without a newline; the rest of an over-long line
    /// is never buffered, so the stream cannot be re-framed and must be
    /// closed. Any other error is the stream's own.
    pub fn read_line(&mut self) -> std::io::Result<Option<&str>> {
        if std::mem::take(&mut self.handed_out) {
            self.line.clear();
        }
        let room = (MAX_LINE_BYTES - self.line.len()) as u64;
        (&mut self.inner)
            .take(room)
            .read_until(b'\n', &mut self.line)?;
        if self.line.last() != Some(&b'\n') {
            if self.line.len() >= MAX_LINE_BYTES {
                return Err(invalid_data(format!(
                    "line exceeds the {MAX_LINE_BYTES}-byte limit"
                )));
            }
            if self.line.is_empty() {
                return Ok(None);
            }
        }
        self.handed_out = true;
        match std::str::from_utf8(&self.line) {
            Ok(line) => Ok(Some(line)),
            Err(_) => Err(invalid_data("line is not valid UTF-8".to_string())),
        }
    }
}

fn invalid_data(detail: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail)
}

/// Parses one JSON line into a message.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] for malformed JSON or a document that
/// does not fit `T`.
pub fn parse_line<T: FromJson>(line: &str) -> Result<T, ServeError> {
    json::from_str(line.trim()).map_err(|e| ServeError::Protocol {
        detail: format!("malformed message: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let req = Request::Generate(GenerateRequest::greedy("instruct-qwen", "Q:x;A:", 16));
        let json = json::to_string(&req);
        assert!(json.contains("\"type\":\"generate\""));
        let back: Request = parse_line(&json).expect("parse");
        match back {
            Request::Generate(g) => {
                assert_eq!(g.model, "instruct-qwen");
                assert_eq!(g.max_new_tokens, 16);
                assert!(g.stop_at_eos);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn generate_request_defaults_apply() {
        let g: GenerateRequest =
            parse_line(r#"{"model":"instruct-qwen","prompt":"hi"}"#).expect("parse");
        assert_eq!(g.max_new_tokens, 64);
        assert_eq!(g.temperature, 0.0);
        assert_eq!(g.top_p, 1.0);
        assert!(g.stop_at_eos);
        assert!(g.deadline_ms.is_none());
        assert_eq!(g.retry_attempt, 0, "absent means a first attempt");
        let cfg = g.decode_config(32);
        assert_eq!(cfg.max_new_tokens, 32, "budget clamps to the server cap");
        cfg.validate().expect("defaults are valid");
    }

    #[test]
    fn error_codes_serialize_snake_case() {
        let resp = Response::Error(WireError {
            code: ErrorCode::DeadlineExceeded,
            detail: "too slow".into(),
        });
        let json = json::to_string(&resp);
        assert!(json.contains("\"deadline_exceeded\""));
        let back: Response = parse_line(&json).expect("parse");
        match back {
            Response::Error(w) => assert_eq!(w.code, ErrorCode::DeadlineExceeded),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn malformed_line_is_a_protocol_error() {
        let r: Result<Request, _> = parse_line("{not json");
        assert!(matches!(r, Err(ServeError::Protocol { .. })));
    }

    #[test]
    fn fleet_requests_round_trip() {
        let json = json::to_string(&Request::Fleet);
        assert!(json.contains("\"type\":\"fleet\""));
        assert!(matches!(
            parse_line::<Request>(&json).expect("parse"),
            Request::Fleet
        ));

        let drain = Request::Drain {
            replica: "127.0.0.1:7001".to_string(),
        };
        let json = json::to_string(&drain);
        assert!(json.contains("\"type\":\"drain\""));
        match parse_line::<Request>(&json).expect("parse") {
            Request::Drain { replica } => assert_eq!(replica, "127.0.0.1:7001"),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn replica_status_round_trips_snake_case() {
        let resp = Response::Fleet {
            replicas: vec![
                ReplicaStatus {
                    addr: "127.0.0.1:7001".to_string(),
                    state: ReplicaHealth::Healthy,
                    inflight: 3,
                    consecutive_failures: 0,
                },
                ReplicaStatus {
                    addr: "127.0.0.1:7002".to_string(),
                    state: ReplicaHealth::Draining,
                    inflight: 1,
                    consecutive_failures: 2,
                },
            ],
        };
        let json = json::to_string(&resp);
        assert!(json.contains("\"healthy\""));
        assert!(json.contains("\"draining\""));
        match parse_line::<Response>(&json).expect("parse") {
            Response::Fleet { replicas } => {
                assert_eq!(replicas.len(), 2);
                assert_eq!(replicas[0].state, ReplicaHealth::Healthy);
                assert_eq!(replicas[1].state, ReplicaHealth::Draining);
                assert_eq!(replicas[1].consecutive_failures, 2);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn models_reply_carries_required_detail_rows() {
        let resp = Response::Models {
            loaded: vec!["canary".into(), "canary#int8".into()],
            zoo: vec!["instruct-qwen".into()],
            models: vec![
                LoadedModel {
                    model: "canary".into(),
                    dtype: "f32".into(),
                    weights_bytes: 4_000,
                },
                LoadedModel {
                    model: "canary#int8".into(),
                    dtype: "int8".into(),
                    weights_bytes: 1_200,
                },
            ],
        };
        let json = json::to_string(&resp);
        match parse_line::<Response>(&json).expect("parse") {
            Response::Models { models, .. } => {
                assert_eq!(models.len(), 2);
                assert_eq!(models[1].dtype, "int8");
                assert_eq!(models[1].weights_bytes, 1_200);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // A reply without detail rows, or a row without its bytes, is
        // refused.
        for stripped in [
            r#"{"type":"models","loaded":["canary"],"zoo":[]}"#,
            r#"{"type":"models","loaded":["canary"],"zoo":[],"models":[{"model":"canary","dtype":"f32"}]}"#,
        ] {
            assert!(
                matches!(
                    parse_line::<Response>(stripped),
                    Err(ServeError::Protocol { .. })
                ),
                "{stripped}"
            );
        }
    }

    /// A stream that hands out scripted chunks; an empty chunk is a read
    /// timeout, the end of the script is EOF.
    struct Script(std::collections::VecDeque<&'static [u8]>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some([]) => Err(std::io::ErrorKind::WouldBlock.into()),
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(&chunk[n..]);
                    }
                    Ok(n)
                }
            }
        }
    }

    fn script(chunks: &[&'static [u8]]) -> LineReader<Script> {
        LineReader::new(Script(chunks.iter().copied().collect()))
    }

    #[test]
    fn line_reader_keeps_a_partial_line_across_timeouts() {
        // The second cut lands inside the three bytes of '→'.
        let mut reader = script(&[
            b"{\"type\":",
            b"",
            b"\"ping\"}\nQ:a \xE2",
            b"",
            b"",
            b"\x86\x92 b\n",
        ]);
        let timed_out = |r: std::io::Result<Option<&str>>| matches!(r, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock);
        assert!(timed_out(reader.read_line()));
        assert_eq!(
            reader.read_line().expect("line"),
            Some("{\"type\":\"ping\"}\n")
        );
        assert!(timed_out(reader.read_line()));
        assert!(timed_out(reader.read_line()));
        assert_eq!(reader.read_line().expect("line"), Some("Q:a \u{2192} b\n"));
        assert_eq!(reader.read_line().expect("eof"), None);
    }

    #[test]
    fn line_reader_refuses_an_over_long_line_without_buffering_the_rest() {
        let mut reader = LineReader::new(std::io::repeat(b'a'));
        let err = reader.read_line().expect_err("no newline ever comes");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&MAX_LINE_BYTES.to_string()));
        assert_eq!(reader.line.len(), MAX_LINE_BYTES, "read no further");

        // The limit counts the newline: exactly MAX_LINE_BYTES still fits.
        let mut fits = vec![b'a'; MAX_LINE_BYTES - 1];
        fits.extend_from_slice(b"\nnext\n");
        let mut reader = LineReader::new(fits.as_slice());
        assert_eq!(
            reader.read_line().expect("fits").map(str::len),
            Some(MAX_LINE_BYTES)
        );
        assert_eq!(reader.read_line().expect("next"), Some("next\n"));
    }

    #[test]
    fn line_reader_ends_on_eof_and_rejects_non_utf8() {
        // An unterminated last line is still a line, as with `read_line`.
        let mut reader = script(&[b"a\n\nlast"]);
        assert_eq!(reader.read_line().expect("a"), Some("a\n"));
        assert_eq!(reader.read_line().expect("blank"), Some("\n"));
        assert_eq!(reader.read_line().expect("last"), Some("last"));
        assert_eq!(reader.read_line().expect("eof"), None);
        assert_eq!(reader.read_line().expect("eof again"), None);

        let mut reader = script(&[b"\xFF\xFE\n"]);
        let err = reader.read_line().expect_err("not UTF-8");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn write_line_issues_one_write_per_line() {
        struct CountWrites(Vec<Vec<u8>>);
        impl Write for CountWrites {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountWrites(Vec::new());
        write_line(&mut w, &Request::Ping).expect("write");
        assert_eq!(w.0, vec![b"{\"type\":\"ping\"}\n".to_vec()]);
    }

    #[test]
    fn replica_status_without_gauges_is_refused() {
        for stripped in [
            r#"{"addr":"127.0.0.1:7001","state":"down"}"#,
            r#"{"addr":"127.0.0.1:7001","state":"down","inflight":0}"#,
            r#"{"addr":"127.0.0.1:7001","state":"down","consecutive_failures":0}"#,
        ] {
            assert!(
                matches!(
                    parse_line::<ReplicaStatus>(stripped),
                    Err(ServeError::Protocol { .. })
                ),
                "{stripped}"
            );
        }
    }
}
