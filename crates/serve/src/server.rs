//! The TCP front end: accept loop, connection handlers, request dispatch.
//!
//! The server owns a [`ModelRegistry`] and a [`Scheduler`]. Each accepted
//! connection gets its own handler thread that reads newline-delimited JSON
//! [`Request`]s and answers each with exactly one [`Response`] line, in
//! order. Generation requests are tokenized, resolved against the registry
//! (materializing geodesic merges on demand), and submitted to the
//! scheduler; everything else (`models`, `load`, `unload`, `metrics`,
//! `ping`) is answered inline.
//!
//! Shutdown is graceful by construction: [`Server::shutdown`] flips a stop
//! flag the accept loop polls, then the scheduler drains every admitted
//! session before its workers exit, so no accepted generation is ever
//! dropped mid-flight.

use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chipalign_nn::{CharTokenizer, BOS};

use crate::metrics::Metrics;
use crate::protocol::{self, GenerateRequest, Generation, Request, Response, PROTOCOL_VERSION};
use crate::registry::ModelRegistry;
use crate::scheduler::{Scheduler, SchedulerConfig, SessionRequest, SpecDraft};
use crate::ServeError;

/// How often the accept loop and idle connections poll the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; use port 0 for an ephemeral port.
    pub addr: String,
    /// Scheduler tuning.
    pub scheduler: SchedulerConfig,
    /// Hard cap on `max_new_tokens` per request.
    pub max_new_tokens_cap: usize,
    /// Deadline applied to requests that do not carry their own, in
    /// milliseconds. `None` means unbounded.
    pub default_deadline_ms: Option<u64>,
    /// Replica identity prefixed onto every session tag
    /// (`"<instance>/<model key>"`). Lets fleet chaos tests arm
    /// `serve::faults` rules that hit exactly one replica in a
    /// multi-replica process, and labels this replica in fleet logs.
    /// `None` keeps the bare model key as the tag.
    pub instance_tag: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig::default(),
            max_new_tokens_cap: 512,
            default_deadline_ms: None,
            instance_tag: None,
        }
    }
}

struct ServerInner {
    registry: ModelRegistry,
    scheduler: Scheduler,
    metrics: Arc<Metrics>,
    tokenizer: CharTokenizer,
    cfg: ServerConfig,
    stop: AtomicBool,
    /// Set by [`Server::kill`]: connection handlers abandon their wait for
    /// in-flight replies instead of draining.
    killed: AtomicBool,
}

/// A running inference server.
pub struct Server {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Server({})", self.addr)
    }
}

impl Server {
    /// Binds the listener, starts the scheduler workers and the accept
    /// loop, and returns immediately.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the address cannot be bound.
    pub fn bind(cfg: ServerConfig, registry: ModelRegistry) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // The backend choice is process-wide and made exactly once; saying
        // it at startup is the only way an operator learns whether the
        // AVX2 tier actually engaged on this host.
        eprintln!(
            "chipalign-serve: listening on {addr}, kernel backend {}",
            chipalign_tensor::backend::active_name()
        );
        let metrics = Arc::new(Metrics::new());
        registry.attach_metrics(Arc::clone(&metrics));
        let scheduler = Scheduler::start(cfg.scheduler.clone(), Arc::clone(&metrics));
        let inner = Arc::new(ServerInner {
            registry,
            scheduler,
            metrics,
            tokenizer: CharTokenizer::new(),
            cfg,
            stop: AtomicBool::new(false),
            killed: AtomicBool::new(false),
        });
        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::Builder::new()
            .name("chipalign-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_inner))
            .map_err(ServeError::Io)?;
        Ok(Server {
            inner,
            addr,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The bound address (useful with ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle to the server's metrics core.
    #[must_use]
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// The model registry backing this server.
    #[must_use]
    pub fn registry(&self) -> &ModelRegistry {
        &self.inner.registry
    }

    /// Stops accepting connections and drains every admitted session, then
    /// returns. Safe to call more than once.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        let handle = self
            .accept_thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        self.inner.scheduler.join();
    }

    /// Kills the replica abruptly: no drain. Queued and in-flight sessions
    /// are answered with a structured `shutting_down` error (the
    /// scheduler's [`Scheduler::abort`] path) and connection handlers stop
    /// waiting on replies, so from a client's perspective the replica
    /// either returns a retryable verdict or drops the connection —
    /// exactly the two faults the [`crate::client::Retrier`] and the
    /// router's failover absorb. The fleet chaos suite uses this to take
    /// whole replicas down mid-decode. Safe to call more than once;
    /// `shutdown` after `kill` is a no-op.
    pub fn kill(&self) {
        self.inner.killed.store(true, Ordering::SeqCst);
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.scheduler.abort();
        let handle = self
            .accept_thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        self.inner.scheduler.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<ServerInner>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !inner.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_inner = Arc::clone(inner);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("chipalign-serve-conn".to_string())
                    .spawn(move || handle_connection(stream, &conn_inner))
                {
                    handlers.push(handle);
                }
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn handle_connection(stream: TcpStream, inner: &Arc<ServerInner>) {
    // A short read timeout doubles as the stop-flag poll interval for idle
    // connections.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // client closed
            Ok(_) => {
                if line.trim().is_empty() {
                    continue;
                }
                let response = match protocol::parse_line::<Request>(&line) {
                    Ok(req) => dispatch(inner, req),
                    Err(e) => Response::Error(e.to_wire()),
                };
                if protocol::write_line(&mut writer, &response).is_err() {
                    return; // client gone
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn dispatch(inner: &Arc<ServerInner>, req: Request) -> Response {
    match req {
        Request::Ping => Response::Pong {
            version: PROTOCOL_VERSION,
        },
        Request::Metrics => Response::Metrics(Box::new(inner.metrics.snapshot())),
        Request::Models => Response::Models {
            loaded: inner.registry.loaded(),
            zoo: crate::registry::all_zoo_models()
                .iter()
                .map(|m| m.slug())
                .collect(),
            models: inner
                .registry
                .loaded_details()
                .into_iter()
                .map(
                    |(model, dtype, weights_bytes)| crate::protocol::LoadedModel {
                        model,
                        dtype: dtype.to_string(),
                        weights_bytes,
                    },
                )
                .collect(),
        },
        Request::Load { model } => match inner.registry.resolve_str(&model) {
            Ok((key, _model)) => Response::Loaded { model: key },
            Err(e) => Response::Error(e.to_wire()),
        },
        Request::Unload { model } => Response::Unloaded {
            evicted: inner.registry.evict(&model),
            model,
        },
        Request::Generate(gen) => match serve_generation(inner, &gen) {
            Ok(g) => Response::Generation(g),
            Err(e) => Response::Error(e.to_wire()),
        },
        // Fleet management is the router's job; a single replica answers
        // with a structured verdict instead of dropping the connection, so
        // fleet tooling pointed at the wrong port fails loudly and
        // harmlessly.
        Request::Fleet | Request::Drain { .. } => Response::Error(
            ServeError::BadRequest {
                detail: "fleet requests are answered by chipalign-router, not a single replica"
                    .to_string(),
            }
            .to_wire(),
        ),
    }
}

fn serve_generation(
    inner: &Arc<ServerInner>,
    gen: &GenerateRequest,
) -> Result<Generation, ServeError> {
    if gen.prompt.is_empty() {
        return Err(ServeError::BadRequest {
            detail: "prompt must not be empty".into(),
        });
    }
    if gen.retry_attempt > 0 {
        inner.metrics.on_retry_attempted();
    }
    let cfg = gen.decode_config(inner.cfg.max_new_tokens_cap);
    cfg.validate().map_err(ServeError::from)?;
    // Speculative specs (`spec:<target>|<draft>@<k>`) resolve to a
    // (target, draft) pairing; anything else to a single model. KV pool
    // and dtype selection always follow the target key, so speculative
    // traffic shares pools with plain traffic against the same target.
    let (key, pool_key, model, draft) = match inner.registry.resolve_spec_str(&gen.model)? {
        Some(res) => {
            let draft = SpecDraft {
                model: res.draft,
                k: res.k,
            };
            (res.key, res.target_key, res.target, Some(draft))
        }
        None => {
            let (key, model) = inner.registry.resolve_str(&gen.model)?;
            (key.clone(), key, model, None)
        }
    };
    let mut prompt = vec![BOS];
    prompt.extend(inner.tokenizer.encode(&gen.prompt));
    let prompt_tokens = prompt.len();
    let deadline_ms = gen.deadline_ms.or(inner.cfg.default_deadline_ms);
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    // Every served session decodes on the model's paged KV pool, so block
    // accounting, prefix aliasing, and pool-saturation admission all apply
    // on the wire path (library callers may still opt out with `pool: None`).
    // The canonical key picks the pool dtype: `…#kv8` keys draw from the
    // model's int8 pool, everything else from the f32 one.
    let pool = inner.registry.kv_pool_for(&pool_key, &model);
    // Session tags carry the replica identity when one is configured, so
    // process-global fault rules can single out one replica's sessions.
    let tag = match &inner.cfg.instance_tag {
        Some(instance) => format!("{instance}/{key}"),
        None => key.clone(),
    };
    let rx = inner.scheduler.submit(SessionRequest {
        model,
        prompt,
        cfg,
        deadline,
        tag,
        pool: Some(pool),
        draft,
    })?;
    #[cfg(feature = "fault-inject")]
    {
        // An admitted session whose client vanished: drop the receiver so
        // the worker's send fails harmlessly, exactly as when a TCP peer
        // disappears mid-generation.
        if crate::faults::should_fire(crate::faults::Site::ClientDisconnect, &gen.model) {
            drop(rx);
            return Err(ServeError::Internal {
                detail: "injected client disconnect: session abandoned".to_string(),
            });
        }
    }
    // Poll the kill flag while waiting: a killed replica must not leave
    // handlers blocked on sessions the aborted scheduler will answer only
    // as it tears down. A closed channel here means the session died with
    // its worker in a way even the drop guard could not report — an
    // internal fault, not a shutdown (graceful drains always answer every
    // admitted session; scheduler::tests pin that contract even for drains
    // initiated mid-chunked-prefill).
    let result = loop {
        match rx.recv_timeout(POLL_INTERVAL) {
            Ok(outcome) => break outcome,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if inner.killed.load(Ordering::SeqCst) {
                    return Err(ServeError::ShuttingDown);
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                return Err(ServeError::Internal {
                    detail: "session lost: outcome channel closed without a reply".to_string(),
                });
            }
        }
    }?;
    Ok(Generation {
        model: key,
        text: inner.tokenizer.decode(&result.tokens),
        tokens: result.tokens.len(),
        prompt_tokens,
        finish: result.finish,
        queue_ms: result.queue_us / 1_000,
        latency_ms: result.total_us / 1_000,
    })
}
