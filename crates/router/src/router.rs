//! The routing core: replica table, health states, and the failover loop.
//!
//! [`Router`] owns the fleet table — every replica's address, health
//! state, and in-flight gauge — plus the consistent-hash ring over it.
//! Routing a generation walks the ring candidates for the request's
//! affinity key in health order (Healthy, then Degraded, then Down as a
//! last resort; Draining never), with jittered exponential backoff between
//! attempts. Every exchange with a replica (attempt, probe or admin
//! request) is one [`Client`] connection.
//!
//! Failover is transcript-safe by construction: decoding is deterministic
//! for a given (model, prompt, config, seed), so re-running a request on
//! another replica reproduces byte-identical output. The worst cost of a
//! duplicated attempt (e.g. after a per-request timeout on a replica that
//! was merely slow) is wasted compute, never a corrupted transcript. The
//! fleet chaos suite asserts exactly this under replica kills.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use chipalign_serve::protocol::{LoadedModel, ReplicaHealth, ReplicaStatus};
use chipalign_serve::{
    Client, ErrorCode, GenerateRequest, Generation, MetricsSnapshot, ServeError,
};
use chipalign_tensor::rng::Pcg32;

use crate::metrics::{RouterCounter, RouterMetrics};
use crate::ring::{affinity_key, HashRing};

/// Connect and read timeout for one health probe; also the connect
/// timeout of every admin exchange and the read timeout of the `metrics`,
/// `models` and `unload` fan-outs.
const PROBE_TIMEOUT: Duration = Duration::from_millis(250);

/// Consecutive failures (probes or routed requests) after which a
/// replica is marked `Down`.
const DOWN_AFTER: u32 = 2;

/// Connect timeout for one routed attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Most replicas tried per request, the first included; clamped to the
/// eligible candidates.
const MAX_ATTEMPTS: usize = 4;

/// Backoff before the first failover; it doubles for each further one.
const BASE_DELAY_MS: u64 = 10;

/// Upper bound on any single backoff.
const MAX_DELAY_MS: u64 = 500;

/// Fraction of each backoff randomized away: each delay is uniform in
/// `[delay/2, delay]`, which de-synchronizes retries after an outage.
const JITTER: f64 = 0.5;

/// The backoff before failover number `attempt` (1-based), after jitter,
/// drawn from `rng`.
fn backoff(attempt: u32, rng: &mut Pcg32) -> Duration {
    let exp = BASE_DELAY_MS.saturating_mul(1u64 << attempt.saturating_sub(1).min(32));
    let capped = exp.min(MAX_DELAY_MS) as f64;
    let jitter = JITTER * capped * rng.uniform_f64();
    Duration::from_millis((capped - jitter) as u64)
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address the router's own TCP front end binds; port 0 for ephemeral.
    pub listen: String,
    /// Virtual nodes per replica on the hash ring.
    pub vnodes: usize,
    /// How often the health prober pings every replica.
    pub probe_interval: Duration,
    /// Read timeout for one routed attempt: how long the router waits for
    /// a replica's reply before failing over. `None` waits forever (the
    /// kill-detection path then relies on the replica's own structured
    /// `shutting_down` replies and dropped connections).
    pub request_timeout: Option<Duration>,
    /// Seed for backoff jitter.
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            listen: "127.0.0.1:0".to_string(),
            vnodes: 32,
            probe_interval: Duration::from_millis(500),
            request_timeout: None,
            seed: 0,
        }
    }
}

/// One replica's routing state.
#[derive(Debug)]
struct Replica {
    addr: String,
    state: ReplicaHealth,
    consecutive_failures: u32,
    /// Requests currently in flight against this replica. Shared with the
    /// attempt path so the fleet lock is never held across I/O.
    inflight: Arc<AtomicU64>,
}

/// The fleet table plus its ring, guarded together so candidate order and
/// health state are always read consistently.
#[derive(Debug)]
struct Fleet {
    replicas: Vec<Replica>,
    ring: HashRing,
}

/// One candidate attempt, snapshotted out of the fleet lock.
#[derive(Debug, Clone)]
struct Candidate {
    index: usize,
    addr: String,
    inflight: Arc<AtomicU64>,
}

/// The prefix-affinity fleet router.
#[derive(Debug)]
pub struct Router {
    cfg: RouterConfig,
    fleet: Mutex<Fleet>,
    metrics: Arc<RouterMetrics>,
    rng: Mutex<Pcg32>,
}

impl Router {
    /// Builds a router over `replicas` (addresses like `"127.0.0.1:7001"`).
    #[must_use]
    pub fn new(cfg: RouterConfig, replicas: Vec<String>) -> Self {
        let ring = HashRing::build(&replicas, cfg.vnodes);
        let table = replicas
            .into_iter()
            .map(|addr| Replica {
                addr,
                state: ReplicaHealth::Healthy,
                consecutive_failures: 0,
                inflight: Arc::new(AtomicU64::new(0)),
            })
            .collect();
        let seed = cfg.seed;
        Router {
            cfg,
            fleet: Mutex::new(Fleet {
                replicas: table,
                ring,
            }),
            metrics: Arc::new(RouterMetrics::new()),
            rng: Mutex::new(Pcg32::seed(seed).derive(0x40ad)),
        }
    }

    /// The router's own counters.
    #[must_use]
    pub fn metrics(&self) -> Arc<RouterMetrics> {
        Arc::clone(&self.metrics)
    }

    fn fleet(&self) -> std::sync::MutexGuard<'_, Fleet> {
        self.fleet.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn rng(&self) -> std::sync::MutexGuard<'_, Pcg32> {
        self.rng.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Per-replica status, in registration order.
    #[must_use]
    pub fn fleet_status(&self) -> Vec<ReplicaStatus> {
        self.fleet()
            .replicas
            .iter()
            .map(|r| ReplicaStatus {
                addr: r.addr.clone(),
                state: r.state,
                inflight: r.inflight.load(Ordering::Relaxed),
                consecutive_failures: r.consecutive_failures,
            })
            .collect()
    }

    /// Marks `addr` draining: it finishes in-flight sessions (the router
    /// never cancels them) but receives no new ones, and its ring ranges
    /// fall to the next candidates. Returns whether the replica was known.
    /// Draining is sticky — health probes keep running but cannot
    /// resurrect a draining replica into the candidate set.
    pub fn drain(&self, addr: &str) -> bool {
        let mut fleet = self.fleet();
        match fleet.replicas.iter_mut().find(|r| r.addr == addr) {
            Some(r) => {
                r.state = ReplicaHealth::Draining;
                true
            }
            None => false,
        }
    }

    /// Candidate replicas for `req`, best first: consistent-hash ring order
    /// keyed on (model, prompt prefix) — merge and prefix-KV locality —
    /// stably partitioned Healthy → Degraded → Down. Draining replicas are
    /// excluded entirely. The stable partition preserves ring order inside
    /// each health class, so a degraded affinity home is still preferred
    /// over other degraded replicas.
    fn candidates(&self, req: &GenerateRequest) -> Vec<Candidate> {
        let fleet = self.fleet();
        let key = affinity_key(&req.model, &req.prompt);
        let order = fleet.ring.candidates(key);
        let class = |state: ReplicaHealth| match state {
            ReplicaHealth::Healthy => 0u8,
            ReplicaHealth::Degraded => 1,
            ReplicaHealth::Down => 2,
            ReplicaHealth::Draining => 3,
        };
        let mut ranked: Vec<(u8, usize, Candidate)> = order
            .into_iter()
            .enumerate()
            .filter_map(|(pos, index)| {
                let r = &fleet.replicas[index];
                (r.state != ReplicaHealth::Draining).then(|| {
                    (
                        class(r.state),
                        pos,
                        Candidate {
                            index,
                            addr: r.addr.clone(),
                            inflight: Arc::clone(&r.inflight),
                        },
                    )
                })
            })
            .collect();
        ranked.sort_by_key(|&(health, pos, _)| (health, pos));
        ranked.into_iter().map(|(_, _, c)| c).collect()
    }

    /// Records a successful exchange with replica `index`.
    fn record_success(&self, index: usize) {
        let mut fleet = self.fleet();
        if let Some(r) = fleet.replicas.get_mut(index) {
            r.consecutive_failures = 0;
            if r.state != ReplicaHealth::Draining {
                r.state = ReplicaHealth::Healthy;
            }
        }
    }

    /// Records a transport-class failure against replica `index`; past the
    /// threshold the replica goes `Down`.
    fn record_failure(&self, index: usize) {
        let mut fleet = self.fleet();
        if let Some(r) = fleet.replicas.get_mut(index) {
            r.consecutive_failures = r.consecutive_failures.saturating_add(1);
            if r.state == ReplicaHealth::Draining {
                return;
            }
            if r.consecutive_failures >= DOWN_AFTER {
                if r.state != ReplicaHealth::Down {
                    self.metrics.add(RouterCounter::MarksDown, 1);
                }
                r.state = ReplicaHealth::Down;
            } else if r.state == ReplicaHealth::Healthy {
                self.metrics.add(RouterCounter::MarksDegraded, 1);
                r.state = ReplicaHealth::Degraded;
            }
        }
    }

    /// Marks replica `index` Degraded (saturation, not death): it keeps
    /// its probe record but drops to the back of every candidate list
    /// until a success or probe clears it.
    fn mark_degraded(&self, index: usize) {
        let mut fleet = self.fleet();
        if let Some(r) = fleet.replicas.get_mut(index) {
            if r.state == ReplicaHealth::Healthy {
                self.metrics.add(RouterCounter::MarksDegraded, 1);
                r.state = ReplicaHealth::Degraded;
            }
        }
    }

    /// Routes one generation with health-ordered failover.
    ///
    /// The attempt budget is `MAX_ATTEMPTS`, clamped to the number of
    /// eligible candidates; `retry_attempt` carries the attempt
    /// index so replicas count retry traffic. Structured verdicts about
    /// the request itself (`bad_request`, `unknown_model`,
    /// `deadline_exceeded`) return immediately; everything else — dropped
    /// connections, timeouts, `overloaded` spills, `shutting_down`,
    /// `internal` — moves to the next ring candidate after a jittered
    /// backoff.
    ///
    /// # Errors
    ///
    /// Returns the last attempt's error once every candidate (or the
    /// attempt budget) is exhausted, or the fatal verdict immediately.
    pub fn generate(&self, req: &GenerateRequest) -> Result<Generation, ServeError> {
        self.metrics.add(RouterCounter::Routed, 1);
        let candidates = self.candidates(req);
        if candidates.is_empty() {
            self.metrics.add(RouterCounter::Exhausted, 1);
            return Err(ServeError::ShuttingDown);
        }
        let budget = MAX_ATTEMPTS.min(candidates.len());
        let mut last_err: Option<ServeError> = None;
        for (attempt, candidate) in candidates.into_iter().take(budget).enumerate() {
            if attempt > 0 {
                let delay = backoff(attempt as u32, &mut self.rng());
                std::thread::sleep(delay);
                self.metrics.add(RouterCounter::Failovers, 1);
            }
            match self.try_replica(&candidate, req, attempt as u32) {
                Ok(generation) => {
                    self.record_success(candidate.index);
                    if attempt == 0 {
                        self.metrics.add(RouterCounter::PrimaryHits, 1);
                    }
                    return Ok(generation);
                }
                Err(e) => {
                    match classify(&e) {
                        AttemptVerdict::Fatal => return Err(e),
                        AttemptVerdict::Spill => {
                            self.metrics.add(RouterCounter::Spills, 1);
                            self.mark_degraded(candidate.index);
                        }
                        AttemptVerdict::Transport => self.record_failure(candidate.index),
                        AttemptVerdict::Retryable => {}
                    }
                    last_err = Some(e);
                }
            }
        }
        self.metrics.add(RouterCounter::Exhausted, 1);
        Err(last_err.unwrap_or(ServeError::ShuttingDown))
    }

    /// One attempt against one replica: connect with a timeout, send the
    /// request (tagged with its attempt index), wait for the reply under
    /// the per-request read timeout.
    fn try_replica(
        &self,
        candidate: &Candidate,
        req: &GenerateRequest,
        attempt: u32,
    ) -> Result<Generation, ServeError> {
        let mut routed = req.clone();
        routed.retry_attempt = attempt;
        candidate.inflight.fetch_add(1, Ordering::Relaxed);
        let reply = Client::connect_timeout(
            candidate.addr.as_str(),
            CONNECT_TIMEOUT,
            self.cfg.request_timeout,
        )
        .and_then(|mut client| client.generate(routed));
        candidate.inflight.fetch_sub(1, Ordering::Relaxed);
        reply
    }

    /// One probe pass over the whole fleet: ping every replica (draining
    /// ones included, to keep their failure counters honest), promote on
    /// success, count toward `Down` on failure.
    pub(crate) fn probe_once(&self) {
        let targets: Vec<(usize, String)> = self
            .fleet()
            .replicas
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.addr.clone()))
            .collect();
        for (index, addr) in targets {
            match self.probe(&addr) {
                Ok(_) => self.record_success(index),
                Err(_) => {
                    self.metrics.add(RouterCounter::ProbeFailures, 1);
                    self.record_failure(index);
                }
            }
        }
    }

    fn probe(&self, addr: &str) -> Result<u32, ServeError> {
        Client::connect_timeout(addr, PROBE_TIMEOUT, Some(PROBE_TIMEOUT))?.ping()
    }

    /// Fan-out aggregate of every non-down replica's metrics snapshot
    /// (plus nothing of the router's own — see [`Router::metrics`]).
    /// Replicas that fail to answer are skipped; fleet counters are the
    /// sum over the ones that did.
    #[must_use]
    pub(crate) fn fleet_metrics(&self) -> MetricsSnapshot {
        let mut aggregate = MetricsSnapshot::default();
        for (_, addr) in self.reachable_replicas() {
            if let Ok(snap) = admin(&addr, Some(PROBE_TIMEOUT)).and_then(|mut c| c.metrics()) {
                aggregate.absorb(&snap);
            }
        }
        aggregate
    }

    /// Union of every reachable replica's loaded models and zoo slugs, plus
    /// the per-model detail rows (dtype, weight bytes) deduplicated by model
    /// key across replicas.
    #[must_use]
    pub(crate) fn fleet_models(&self) -> (Vec<String>, Vec<String>, Vec<LoadedModel>) {
        let mut loaded: Vec<String> = Vec::new();
        let mut zoo: Vec<String> = Vec::new();
        let mut details: Vec<LoadedModel> = Vec::new();
        for (_, addr) in self.reachable_replicas() {
            if let Ok((l, z, models)) =
                admin(&addr, Some(PROBE_TIMEOUT)).and_then(|mut c| c.models())
            {
                for m in l {
                    if !loaded.contains(&m) {
                        loaded.push(m);
                    }
                }
                for m in z {
                    if !zoo.contains(&m) {
                        zoo.push(m);
                    }
                }
                for d in models {
                    if !details.iter().any(|have| have.model == d.model) {
                        details.push(d);
                    }
                }
            }
        }
        (loaded, zoo, details)
    }

    /// Broadcasts a `load` to every reachable replica so the model (often
    /// a geodesic merge) is materialized fleet-wide before traffic lands.
    ///
    /// # Errors
    ///
    /// Returns the first per-replica error if *no* replica loaded the
    /// model; succeeds with the canonical key if at least one did.
    pub(crate) fn fleet_load(&self, model: &str) -> Result<String, ServeError> {
        let mut key: Option<String> = None;
        let mut first_err: Option<ServeError> = None;
        for (_, addr) in self.reachable_replicas() {
            match admin(&addr, None).and_then(|mut c| c.load(model)) {
                Ok(loaded) => key = Some(loaded),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match key {
            Some(k) => Ok(k),
            None => Err(first_err.unwrap_or(ServeError::ShuttingDown)),
        }
    }

    /// Broadcasts an `unload`; returns whether any replica evicted.
    #[must_use]
    pub(crate) fn fleet_unload(&self, model: &str) -> bool {
        let mut any = false;
        for (_, addr) in self.reachable_replicas() {
            if let Ok(evicted) = admin(&addr, Some(PROBE_TIMEOUT)).and_then(|mut c| c.unload(model))
            {
                any |= evicted;
            }
        }
        any
    }

    /// Non-`Down` replicas (draining ones still answer admin traffic).
    fn reachable_replicas(&self) -> Vec<(usize, String)> {
        self.fleet()
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.state != ReplicaHealth::Down)
            .map(|(i, r)| (i, r.addr.clone()))
            .collect()
    }
}

/// A connection for one admin exchange with one replica, connected under
/// the probe timeout. `read_timeout` bounds the reply wait: `metrics`,
/// `models` and `unload` are answered at once and wait `PROBE_TIMEOUT`, so
/// a silent replica cannot hang the fan-out; a `load` may train or merge,
/// so it waits with no bound.
fn admin(addr: &str, read_timeout: Option<Duration>) -> Result<Client, ServeError> {
    Client::connect_timeout(addr, PROBE_TIMEOUT, read_timeout)
}

/// How one failed attempt steers the failover loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptVerdict {
    /// A verdict about the request itself: return it, try nobody else.
    Fatal,
    /// The replica is saturated: mark it Degraded and spill onward.
    Spill,
    /// The replica looks unhealthy: count toward `Down` and fail over.
    Transport,
    /// Transient and replica-agnostic (draining, internal hiccup): fail
    /// over without dinging the replica's health record.
    Retryable,
}

/// Classifies an attempt error. `deadline_exceeded` is fatal because the
/// request's time budget is spent no matter which replica answers;
/// `shutting_down` is retryable-elsewhere because a draining or killed
/// replica answers that way precisely so the router can move the session.
fn classify(e: &ServeError) -> AttemptVerdict {
    match e {
        ServeError::Remote(w) => match w.code {
            ErrorCode::BadRequest | ErrorCode::UnknownModel | ErrorCode::DeadlineExceeded => {
                AttemptVerdict::Fatal
            }
            ErrorCode::Overloaded => AttemptVerdict::Spill,
            ErrorCode::ShuttingDown | ErrorCode::Internal => AttemptVerdict::Retryable,
        },
        ServeError::Io(_) | ServeError::Protocol { .. } => AttemptVerdict::Transport,
        _ => AttemptVerdict::Retryable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router(n: usize) -> Router {
        let replicas = (0..n).map(|i| format!("127.0.0.1:{}", 7100 + i)).collect();
        Router::new(RouterConfig::default(), replicas)
    }

    #[test]
    fn candidates_exclude_draining_and_rank_by_health() {
        let r = router(4);
        assert!(r.drain("127.0.0.1:7101"));
        assert!(!r.drain("127.0.0.1:9999"), "unknown replica");
        r.record_failure(2); // Degraded after one failure
        let req = GenerateRequest::greedy("m", "Q:x;A:", 8);
        let cands = r.candidates(&req);
        let indices: Vec<usize> = cands.iter().map(|c| c.index).collect();
        assert_eq!(cands.len(), 3, "draining replica excluded");
        assert!(!indices.contains(&1));
        assert_eq!(
            *indices.last().expect("nonempty"),
            2,
            "the degraded replica ranks behind every healthy one"
        );
    }

    #[test]
    fn failures_degrade_then_down_and_success_recovers() {
        let r = router(2);
        r.record_failure(0);
        assert_eq!(r.fleet_status()[0].state, ReplicaHealth::Degraded);
        r.record_failure(0);
        assert_eq!(r.fleet_status()[0].state, ReplicaHealth::Down);
        assert_eq!(r.fleet_status()[0].consecutive_failures, 2);
        r.record_success(0);
        assert_eq!(r.fleet_status()[0].state, ReplicaHealth::Healthy);
        assert_eq!(r.fleet_status()[0].consecutive_failures, 0);
        let snap = r.metrics().snapshot();
        assert_eq!(snap.marks_degraded, 1);
        assert_eq!(snap.marks_down, 1);
    }

    #[test]
    fn draining_is_sticky_under_probe_success_and_failure() {
        let r = router(2);
        assert!(r.drain("127.0.0.1:7100"));
        r.record_success(0);
        assert_eq!(r.fleet_status()[0].state, ReplicaHealth::Draining);
        r.record_failure(0);
        assert_eq!(r.fleet_status()[0].state, ReplicaHealth::Draining);
    }

    #[test]
    fn affinity_candidates_are_stable_per_key() {
        let r = router(4);
        let req = GenerateRequest::greedy("merge:a+b@0.6", "Q:describe the timing path 1;A:", 8);
        let a: Vec<usize> = r.candidates(&req).iter().map(|c| c.index).collect();
        let b: Vec<usize> = r.candidates(&req).iter().map(|c| c.index).collect();
        assert_eq!(a, b);
        let other = GenerateRequest::greedy("merge:a+b@0.6", "Q:describe the timing path 2;A:", 8);
        let c: Vec<usize> = r.candidates(&other).iter().map(|c| c.index).collect();
        assert_eq!(a[0], c[0], "shared 16-char prefix shares an affinity home");
    }

    #[test]
    fn dead_fleet_returns_structured_errors_not_hangs() {
        // Nothing is listening on these ports: every attempt is a connect
        // failure, the fleet goes Down, and the caller gets the last
        // transport error back after a bounded number of attempts.
        let r = Router::new(
            RouterConfig::default(),
            vec!["127.0.0.1:9".to_string(), "127.0.0.1:10".to_string()],
        );
        let req = GenerateRequest::greedy("m", "Q:x;A:", 4);
        let err = r.generate(&req).expect_err("no replica is listening");
        assert!(
            matches!(err, ServeError::Io(_)),
            "transport error expected, got {err:?}"
        );
        let snap = r.metrics().snapshot();
        assert_eq!(snap.routed, 1);
        assert_eq!(snap.exhausted, 1);
        assert_eq!(snap.failovers, 1, "second candidate was tried");
    }

    #[test]
    fn delays_cap_at_max_delay() {
        let mut rng = Pcg32::seed(1);
        for _ in 0..100 {
            for (attempt, full) in [
                (1u32, 10u64),
                (2, 20),
                (6, 320),
                (7, 500),
                (9, 500),
                (40, 500),
            ] {
                let ms = backoff(attempt, &mut rng).as_millis() as u64;
                assert!(
                    (full / 2..=full).contains(&ms),
                    "attempt {attempt}: {ms} ms outside [{}, {full}]",
                    full / 2
                );
            }
        }
    }
}
