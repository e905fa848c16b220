//! A small blocking client for the wire protocol.
//!
//! One [`Client`] wraps one TCP connection; each call writes a request line
//! and blocks until the matching response line arrives. It exists for
//! tests, the load generator, and examples — any newline-JSON-speaking
//! client in any language works equally well.
//!
//! [`Retrier`] layers jittered exponential backoff on top: connect
//! failures, mid-request dropped connections ("server closed the
//! connection" — a replica killed between request and reply), and
//! `overloaded` rejections — the transient fault classes a well-behaved
//! client should absorb — are retried up to a bounded attempt budget, with
//! a deterministic (seeded) jitter stream and an injectable sleep function
//! so retry schedules are unit-testable without wall-clock time.
//! Re-running a dropped generation is transcript-safe because decoding is
//! deterministic for a given (model, prompt, config, seed): the retry
//! reproduces the same bytes the dead replica would have sent.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use chipalign_tensor::rng::Pcg32;

use crate::metrics::MetricsSnapshot;
use crate::protocol::{
    self, ErrorCode, GenerateRequest, Generation, LineReader, LoadedModel, ReplicaStatus, Request,
    Response,
};
use crate::ServeError;

/// A blocking connection to a running server.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: LineReader<TcpStream>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the connection cannot be established.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: LineReader::new(stream),
        })
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on a dropped connection and
    /// [`ServeError::Protocol`] on an unparsable reply.
    pub fn request(&mut self, req: &Request) -> Result<Response, ServeError> {
        protocol::write_line(&mut self.writer, req)?;
        match self.reader.read_line()? {
            Some(line) => protocol::parse_line(line),
            None => Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }

    /// Runs one generation, surfacing wire errors as [`ServeError::Remote`].
    ///
    /// # Errors
    ///
    /// Propagates transport errors and any error response from the server.
    pub fn generate(&mut self, req: GenerateRequest) -> Result<Generation, ServeError> {
        match self.request(&Request::Generate(req))? {
            Response::Generation(g) => Ok(g),
            Response::Error(w) => Err(ServeError::Remote(w)),
            other => Err(unexpected(&other)),
        }
    }

    /// Checks liveness; returns the server's protocol version.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and unexpected replies.
    pub fn ping(&mut self) -> Result<u32, ServeError> {
        match self.request(&Request::Ping)? {
            Response::Pong { version } => Ok(version),
            Response::Error(w) => Err(ServeError::Remote(w)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches a metrics snapshot.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and unexpected replies.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ServeError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(snap) => Ok(*snap),
            Response::Error(w) => Err(ServeError::Remote(w)),
            other => Err(unexpected(&other)),
        }
    }

    /// Lists loaded models and servable zoo slugs.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and unexpected replies.
    pub fn models(&mut self) -> Result<(Vec<String>, Vec<String>), ServeError> {
        match self.request(&Request::Models)? {
            Response::Models { loaded, zoo, .. } => Ok((loaded, zoo)),
            Response::Error(w) => Err(ServeError::Remote(w)),
            other => Err(unexpected(&other)),
        }
    }

    /// Lists per-model detail rows (dtype, weight bytes). Empty against a
    /// server that predates the quantization surface.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and unexpected replies.
    pub fn models_detailed(&mut self) -> Result<Vec<LoadedModel>, ServeError> {
        match self.request(&Request::Models)? {
            Response::Models { models, .. } => Ok(models),
            Response::Error(w) => Err(ServeError::Remote(w)),
            other => Err(unexpected(&other)),
        }
    }

    /// Materializes a model (hot-swap warm-up); returns its canonical key.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and any error response from the server.
    pub fn load(&mut self, model: &str) -> Result<String, ServeError> {
        let req = Request::Load {
            model: model.to_string(),
        };
        match self.request(&req)? {
            Response::Loaded { model } => Ok(model),
            Response::Error(w) => Err(ServeError::Remote(w)),
            other => Err(unexpected(&other)),
        }
    }

    /// Evicts a model from the registry; returns whether anything was
    /// removed.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and unexpected replies.
    pub fn unload(&mut self, model: &str) -> Result<bool, ServeError> {
        let req = Request::Unload {
            model: model.to_string(),
        };
        match self.request(&req)? {
            Response::Unloaded { evicted, .. } => Ok(evicted),
            Response::Error(w) => Err(ServeError::Remote(w)),
            other => Err(unexpected(&other)),
        }
    }

    /// Lists replica health states. Only `chipalign-router` answers this;
    /// a single-process server returns a `bad_request` wire error.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and any error response.
    pub fn fleet(&mut self) -> Result<Vec<ReplicaStatus>, ServeError> {
        match self.request(&Request::Fleet)? {
            Response::Fleet { replicas } => Ok(replicas),
            Response::Error(w) => Err(ServeError::Remote(w)),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the router to drain one replica (finish in-flight sessions,
    /// admit nothing new); returns whether the replica was known.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and any error response.
    pub fn drain(&mut self, replica: &str) -> Result<bool, ServeError> {
        let req = Request::Drain {
            replica: replica.to_string(),
        };
        match self.request(&req)? {
            Response::Drained { known, .. } => Ok(known),
            Response::Error(w) => Err(ServeError::Remote(w)),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &Response) -> ServeError {
    ServeError::Protocol {
        detail: format!("unexpected response variant: {resp:?}"),
    }
}

/// Backoff policy for [`Retrier`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each further retry.
    pub base_delay_ms: u64,
    /// Upper bound on any single delay.
    pub max_delay_ms: u64,
    /// Fraction of each delay randomized away (`0.0` = fixed delays,
    /// `0.5` = each delay uniformly in `[delay/2, delay]`). Jitter
    /// de-synchronizes client herds after an outage.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 50,
            max_delay_ms: 2_000,
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based), after jitter,
    /// drawn from `rng`. Public so other backoff consumers (the router's
    /// failover loop) share one schedule implementation.
    #[must_use]
    pub fn delay(&self, attempt: u32, rng: &mut Pcg32) -> Duration {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(32));
        let capped = exp.min(self.max_delay_ms) as f64;
        let jitter = self.jitter.clamp(0.0, 1.0) * capped * rng.uniform_f64();
        Duration::from_millis((capped - jitter) as u64)
    }
}

/// What to sleep with — injectable so tests assert the schedule instead of
/// waiting it out.
type Sleeper = Box<dyn FnMut(Duration) + Send>;

/// A retrying front end over [`Client`] operations: bounded attempts,
/// exponential backoff, deterministic seeded jitter.
///
/// Only *transient* failures are retried: I/O errors (connect-time
/// failures and connections dropped mid-request, both reported as
/// [`ServeError::Io`]) and server `overloaded` rejections — which is also
/// how a mid-decode `PoolSaturated` admission refusal arrives on the wire,
/// so KV-pool pressure backs off exactly like connect-time overload. Every
/// retry reconnects from scratch, so a replica that died holding our
/// socket is simply replaced. A generation that failed any other way (bad
/// request, deadline, internal error) is returned immediately: those are
/// verdicts about the request itself, not the transport, and
/// `deadline_exceeded` in particular means the time budget is already
/// spent — retrying would burn compute on an answer the caller no longer
/// wants.
///
/// Backoff depth follows the *failure streak*, not the per-call attempt
/// index: consecutive failing calls keep escalating the delay (a saturated
/// fleet should not be hammered at `base_delay` again just because the
/// attempt budget rolled over), and any successful response resets the
/// streak — a long-lived session that failed over once must not inherit
/// stale multi-second backoff for the rest of its life.
pub struct Retrier {
    policy: RetryPolicy,
    rng: Pcg32,
    sleeper: Sleeper,
    /// Consecutive retryable failures observed across calls; indexes into
    /// [`RetryPolicy::delay`] and is cleared by any successful operation.
    streak: u32,
}

impl std::fmt::Debug for Retrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Retrier({:?})", self.policy)
    }
}

impl Retrier {
    /// Creates a retrier; `seed` drives the jitter stream, so a given
    /// (policy, seed) pair always produces the same backoff schedule.
    #[must_use]
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        Retrier {
            policy,
            rng: Pcg32::seed(seed).derive(0x5e77),
            sleeper: Box::new(std::thread::sleep),
            streak: 0,
        }
    }

    /// Runs one generation over a fresh connection, retrying connect
    /// failures and `overloaded` rejections under the retrier's policy.
    /// Each attempt carries its 1-based index minus one in
    /// `retry_attempt`, so the server can count retry traffic.
    ///
    /// # Errors
    ///
    /// Returns the final attempt's error once the attempt budget is spent;
    /// non-transient errors return immediately.
    pub fn generate<A: ToSocketAddrs>(
        &mut self,
        addr: A,
        req: &GenerateRequest,
    ) -> Result<Generation, ServeError> {
        let policy = self.policy.clone();
        self.generate_with(addr, req, &policy)
    }

    /// [`Retrier::generate`] with a per-call policy override.
    ///
    /// # Errors
    ///
    /// Returns the final attempt's error once the attempt budget is spent;
    /// non-transient errors return immediately.
    pub(crate) fn generate_with<A: ToSocketAddrs>(
        &mut self,
        addr: A,
        req: &GenerateRequest,
        policy: &RetryPolicy,
    ) -> Result<Generation, ServeError> {
        self.run(policy, retry_generate_errors, |attempt| {
            let mut client = Client::connect(&addr)?;
            let mut req = req.clone();
            req.retry_attempt = attempt;
            client.generate(req)
        })
    }

    /// The retry loop shared by every operation: run `op`, consult
    /// `retry_on` for transience, back off, repeat within the attempt
    /// budget. The attempt budget is per call; the backoff *depth* follows
    /// the cross-call failure streak, which any success resets.
    fn run<T>(
        &mut self,
        policy: &RetryPolicy,
        retry_on: fn(&ServeError) -> bool,
        mut op: impl FnMut(u32) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let attempts = policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => {
                    self.streak = 0;
                    return Ok(v);
                }
                Err(e) if attempt + 1 < attempts && retry_on(&e) => {
                    attempt += 1;
                    self.streak = self.streak.saturating_add(1);
                    (self.sleeper)(policy.delay(self.streak, &mut self.rng));
                }
                Err(e) => {
                    // A budget-exhausted transient failure still deepens
                    // the streak: the next call starts from where this one
                    // left off instead of hammering at base delay.
                    if retry_on(&e) {
                        self.streak = self.streak.saturating_add(1);
                    }
                    return Err(e);
                }
            }
        }
    }
}

/// Generate path: retry I/O trouble — connect failures *and* connections
/// dropped mid-request ("server closed the connection"), so a replica kill
/// between request and reply is survivable — plus explicit `overloaded`
/// rejections. Deterministic decoding makes the mid-request case safe: a
/// re-run on a fresh connection produces byte-identical output, so the
/// worst cost of a retry is duplicated compute, never a divergent
/// transcript. Structured verdicts (`bad_request`, `deadline_exceeded`,
/// `internal`, ...) are never retried here.
fn retry_generate_errors(e: &ServeError) -> bool {
    match e {
        ServeError::Io(_) => true,
        ServeError::Remote(w) => w.code == ErrorCode::Overloaded,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A sleeper that records every requested delay instead of blocking.
    fn recording_sleeper() -> (Arc<Mutex<Vec<Duration>>>, Sleeper) {
        let log: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let writer = Arc::clone(&log);
        let sleeper = Box::new(move |d: Duration| {
            writer.lock().expect("sleep log").push(d);
        });
        (log, sleeper)
    }

    fn overloaded() -> ServeError {
        ServeError::Remote(crate::protocol::WireError {
            code: ErrorCode::Overloaded,
            detail: "full".into(),
        })
    }

    fn policy(max_attempts: u32, jitter: f64) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_delay_ms: 100,
            max_delay_ms: 10_000,
            jitter,
        }
    }

    #[test]
    fn retries_until_success_with_exponential_backoff() {
        let (log, sleeper) = recording_sleeper();
        let mut retrier = Retrier::new(policy(5, 0.0), 1);
        retrier.sleeper = sleeper;
        let mut failures_left = 3;
        let result = retrier.run(&policy(5, 0.0), retry_generate_errors, |attempt| {
            if failures_left > 0 {
                failures_left -= 1;
                Err(overloaded())
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(result.expect("succeeds on 4th attempt"), 3);
        let delays: Vec<u64> = log
            .lock()
            .expect("log")
            .iter()
            .map(|d| d.as_millis() as u64)
            .collect();
        assert_eq!(delays, vec![100, 200, 400], "doubling, no jitter");
    }

    #[test]
    fn non_transient_errors_fail_immediately() {
        let (log, sleeper) = recording_sleeper();
        let mut retrier = Retrier::new(policy(5, 0.0), 2);
        retrier.sleeper = sleeper;
        let mut calls = 0;
        let result: Result<(), _> = retrier.run(&policy(5, 0.0), retry_generate_errors, |_| {
            calls += 1;
            Err(ServeError::BadRequest {
                detail: "bad".into(),
            })
        });
        assert!(matches!(result, Err(ServeError::BadRequest { .. })));
        assert_eq!(calls, 1, "no retry on a permanent error");
        assert!(log.lock().expect("log").is_empty());
    }

    #[test]
    fn attempt_budget_bounds_retries_and_returns_last_error() {
        let (log, sleeper) = recording_sleeper();
        let mut retrier = Retrier::new(policy(3, 0.0), 3);
        retrier.sleeper = sleeper;
        let mut calls = 0u32;
        let result: Result<(), _> = retrier.run(&policy(3, 0.0), retry_generate_errors, |_| {
            calls += 1;
            Err(overloaded())
        });
        assert!(matches!(result, Err(ServeError::Remote(_))));
        assert_eq!(calls, 3, "max_attempts includes the first try");
        assert_eq!(log.lock().expect("log").len(), 2, "sleeps between tries");
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        let schedule = |seed: u64| -> Vec<Duration> {
            let (log, sleeper) = recording_sleeper();
            let mut retrier = Retrier::new(policy(4, 0.5), seed);
            retrier.sleeper = sleeper;
            let _ = retrier.run(&policy(4, 0.5), retry_generate_errors, |_| {
                Err::<(), _>(overloaded())
            });
            let out = log.lock().expect("log").clone();
            out
        };
        let a = schedule(7);
        assert_eq!(a, schedule(7), "same seed, same schedule");
        assert_ne!(a, schedule(8), "different seed, different jitter");
        for (i, d) in a.iter().enumerate() {
            let full = 100u64 << i;
            let ms = d.as_millis() as u64;
            assert!(
                ms > full / 2 - 1 && ms <= full,
                "delay {i} = {ms}ms outside jitter window ({full}ms nominal)"
            );
        }
    }

    #[test]
    fn delays_cap_at_max_delay() {
        let pol = RetryPolicy {
            max_attempts: 10,
            base_delay_ms: 100,
            max_delay_ms: 300,
            jitter: 0.0,
        };
        let mut rng = Pcg32::seed(1);
        assert_eq!(pol.delay(1, &mut rng).as_millis(), 100);
        assert_eq!(pol.delay(2, &mut rng).as_millis(), 200);
        assert_eq!(pol.delay(3, &mut rng).as_millis(), 300, "caps");
        assert_eq!(pol.delay(9, &mut rng).as_millis(), 300, "stays capped");
    }

    #[test]
    fn back_to_back_failing_calls_escalate_backoff_across_calls() {
        // A saturated fleet rejects call after call: the second call must
        // pick up the backoff where the first left off (including the
        // budget-exhausting failure), not restart at base delay.
        let (log, sleeper) = recording_sleeper();
        let mut retrier = Retrier::new(policy(3, 0.0), 5);
        retrier.sleeper = sleeper;
        for _ in 0..2 {
            let result: Result<(), _> =
                retrier.run(
                    &policy(3, 0.0),
                    retry_generate_errors,
                    |_| Err(overloaded()),
                );
            assert!(matches!(result, Err(ServeError::Remote(_))));
        }
        let delays: Vec<u64> = log
            .lock()
            .expect("log")
            .iter()
            .map(|d| d.as_millis() as u64)
            .collect();
        assert_eq!(
            delays,
            vec![100, 200, 800, 1_600],
            "call 2 continues the escalation (streak 4 and 5), no restart"
        );
    }

    #[test]
    fn successful_response_resets_the_backoff_streak() {
        // One failed-over call must not leave a long-lived session paying
        // multi-second delays forever: any success clears the streak.
        let (log, sleeper) = recording_sleeper();
        let mut retrier = Retrier::new(policy(3, 0.0), 6);
        retrier.sleeper = sleeper;
        let fail_out = |r: &mut Retrier| {
            let result: Result<(), _> =
                r.run(
                    &policy(3, 0.0),
                    retry_generate_errors,
                    |_| Err(overloaded()),
                );
            assert!(result.is_err());
        };
        fail_out(&mut retrier); // streak climbs to 3
        let ok = retrier.run(&policy(3, 0.0), retry_generate_errors, |_| Ok(42));
        assert_eq!(ok.expect("succeeds"), 42);
        fail_out(&mut retrier); // must restart from base delay
        let delays: Vec<u64> = log
            .lock()
            .expect("log")
            .iter()
            .map(|d| d.as_millis() as u64)
            .collect();
        assert_eq!(
            delays,
            vec![100, 200, 100, 200],
            "the success between the failing calls reset the streak"
        );
    }

    use crate::protocol::{FinishReason, WireError};
    use std::io::BufRead;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn canned_generation() -> Generation {
        Generation {
            model: "fake".to_string(),
            text: "ok".to_string(),
            tokens: 2,
            prompt_tokens: 3,
            finish: FinishReason::Eos,
            queue_ms: 0,
            latency_ms: 1,
        }
    }

    #[test]
    fn mid_request_dropped_connection_is_reconnected_and_retried() {
        // A fake replica that reads the request and then slams the
        // connection shut — exactly what a killed replica looks like from
        // the client side ("server closed the connection"). The second
        // connection answers. The Retrier must reconnect and succeed, and
        // the replayed request must carry retry_attempt = 1 so the server
        // can account for retry traffic.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || -> u32 {
            // Connection 1: read the request, drop without replying.
            let (stream, _) = listener.accept().expect("accept 1");
            let mut reader = std::io::BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).expect("read 1");
            drop(reader);
            // Connection 2: answer properly.
            let (stream, _) = listener.accept().expect("accept 2");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = std::io::BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).expect("read 2");
            let attempt = match crate::protocol::parse_line::<Request>(&line).expect("parse") {
                Request::Generate(g) => g.retry_attempt,
                other => panic!("wrong request: {other:?}"),
            };
            crate::protocol::write_line(&mut writer, &Response::Generation(canned_generation()))
                .expect("write");
            attempt
        });

        let (log, sleeper) = recording_sleeper();
        let mut retrier = Retrier::new(policy(4, 0.0), 11);
        retrier.sleeper = sleeper;
        let req = GenerateRequest::greedy("fake", "Q:x;A:", 4);
        let generation = retrier.generate(addr, &req).expect("retry succeeds");
        assert_eq!(generation.text, "ok");
        assert_eq!(
            server.join().expect("server thread"),
            1,
            "the replayed request must be flagged as attempt 1"
        );
        assert_eq!(log.lock().expect("log").len(), 1, "one backoff sleep");
    }

    /// A fake replica answering every connection's first request with the
    /// given wire error, counting connections accepted.
    fn error_replica(code: ErrorCode) -> (std::net::SocketAddr, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let accepted = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&accepted);
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                counter.fetch_add(1, Ordering::SeqCst);
                let mut writer = match stream.try_clone() {
                    Ok(w) => w,
                    Err(_) => continue,
                };
                let mut reader = std::io::BufReader::new(stream);
                let mut line = String::new();
                if reader.read_line(&mut line).is_ok() {
                    let _ = crate::protocol::write_line(
                        &mut writer,
                        &Response::Error(WireError {
                            code,
                            detail: "verdict".into(),
                        }),
                    );
                }
            }
        });
        (addr, accepted)
    }

    #[test]
    fn bad_request_and_deadline_exceeded_are_never_retried() {
        // Structured verdicts about the request itself must come back after
        // exactly one connection, with no backoff sleeps — even though the
        // Retrier would happily retry transport faults against the same
        // address.
        for code in [ErrorCode::BadRequest, ErrorCode::DeadlineExceeded] {
            let (addr, accepted) = error_replica(code);
            let (log, sleeper) = recording_sleeper();
            let mut retrier = Retrier::new(policy(5, 0.0), 13);
            retrier.sleeper = sleeper;
            let req = GenerateRequest::greedy("fake", "Q:x;A:", 4);
            let result = retrier.generate(addr, &req);
            match result {
                Err(ServeError::Remote(w)) => assert_eq!(w.code, code),
                other => panic!("expected the verdict back, got {other:?}"),
            }
            // The reply arrived on the first connection; give any stray
            // (incorrect) retry a moment to show up before asserting.
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(
                accepted.load(Ordering::SeqCst),
                1,
                "{code:?} must not trigger a reconnect"
            );
            assert!(
                log.lock().expect("log").is_empty(),
                "{code:?} must not trigger a backoff sleep"
            );
        }
    }
}
