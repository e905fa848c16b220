//! The TCP front end: the line server, and this replica's request dispatch.
//!
//! [`LineServer`] is the one accept loop and connection handler in the
//! workspace (`chipalign-router` runs its front end on it too): a thread
//! blocked in `accept()`, and per connection a handler thread that reads
//! newline-delimited JSON [`Request`]s and answers each with exactly one
//! [`Response`] line, in order. Nothing between a request byte arriving
//! and its reply byte leaving sleeps or waits for a timer.
//!
//! The [`Server`] owns a [`ModelRegistry`] and a [`Scheduler`]. Generation
//! requests are tokenized, resolved against the registry (materializing
//! geodesic merges on demand), and submitted to the scheduler; everything
//! else (`models`, `load`, `unload`, `metrics`, `ping`) is answered inline.
//!
//! Shutdown is graceful by construction: [`Server::shutdown`] sets the stop
//! flag and wakes the blocked accept with a connection to its own address,
//! then the scheduler drains every admitted session before its workers
//! exit, so no accepted generation is ever dropped mid-flight.

use std::io::ErrorKind;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chipalign_nn::{CharTokenizer, BOS};

use crate::metrics::{Counter, Metrics};
use crate::protocol::{
    self, GenerateRequest, Generation, LineReader, Request, Response, PROTOCOL_VERSION,
};
use crate::registry::ModelRegistry;
use crate::scheduler::{Scheduler, SchedulerConfig, SessionRequest, SpecDraft};
use crate::ServeError;

/// How often an idle connection (no request line in progress) and a
/// handler waiting on a killed scheduler re-read their flag. Neither wait
/// is on a request's path: a request's bytes end the first, its reply the
/// second.
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
    /// Set by [`Server::kill`]: connection handlers abandon their wait for
    /// in-flight replies instead of draining.
    killed: AtomicBool,
}

/// A running inference server.
pub struct Server {
    inner: Arc<ServerInner>,
    front: LineServer,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Server({})", self.front.local_addr())
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
        let addr = listener.local_addr()?;
        // The backend choice and the compute pool are process-wide and
        // made exactly once; saying them at startup is the only way an
        // operator learns whether the AVX2 tier and the second core
        // actually engaged on this host.
        eprintln!(
            "chipalign-serve: listening on {addr}, kernel backend {}, compute threads {}",
            chipalign_tensor::backend::active_name(),
            chipalign_tensor::compute_threads()
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
            killed: AtomicBool::new(false),
        });
        let dispatch_inner = Arc::clone(&inner);
        let front = LineServer::start(listener, "chipalign-serve", move |req| {
            dispatch(&dispatch_inner, req)
        })?;
        Ok(Server { inner, front })
    }

    /// The bound address (useful with ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
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
        self.front.shutdown();
        self.inner.scheduler.join();
    }

    /// Kills the replica abruptly: no drain. Queued and in-flight sessions
    /// are answered with a structured `shutting_down` error (the
    /// scheduler's `Scheduler::abort` path) and connection handlers stop
    /// waiting on replies, so from a client's perspective the replica
    /// either returns a retryable verdict or drops the connection —
    /// exactly the two faults the router's failover absorbs. The fleet
    /// chaos suite uses this to take whole replicas down mid-decode. Safe
    /// to call more than once; `shutdown` after `kill` is a no-op.
    pub fn kill(&self) {
        self.inner.killed.store(true, Ordering::SeqCst);
        self.inner.scheduler.abort();
        self.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A blocking newline-JSON listener: one accept thread, one handler thread
/// per connection, every request line answered by `dispatch` with one
/// reply line. `chipalign-serve` and `chipalign-router` differ only in the
/// `dispatch` they pass.
pub struct LineServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl LineServer {
    /// Starts serving `listener` on threads named `<name>-accept` and
    /// `<name>-conn`, and returns immediately.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the listener's address cannot be read
    /// or the accept thread cannot be spawned.
    pub fn start<D>(listener: TcpListener, name: &str, dispatch: D) -> Result<Self, ServeError>
    where
        D: Fn(Request) -> Response + Send + Sync + 'static,
    {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (accept_stop, conn_name) = (Arc::clone(&stop), format!("{name}-conn"));
        let accept_thread = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || accept_loop(listener, &conn_name, &accept_stop, &Arc::new(dispatch)))?;
        Ok(LineServer {
            addr,
            stop,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The bound address (useful with ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets every handler finish the request it is
    /// answering, and returns once the listener is closed (later connects
    /// are refused) and all handlers have exited. Safe to call more than
    /// once.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let handle = self
            .accept_thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let Some(handle) = handle else { return };
        // The accept thread re-reads the flag only when `accept()` returns,
        // so hand it a connection (dropped unserved). A wake that cannot
        // connect is retried until one lands or the thread is gone.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        while !handle.is_finished() && TcpStream::connect_timeout(&wake, WAKE_TIMEOUT).is_err() {
            std::thread::sleep(ACCEPT_ERROR_PAUSE);
        }
        let _ = handle.join();
    }
}

impl Drop for LineServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pause after `accept()` itself fails (descriptor exhaustion, say), so the
/// loop cannot spin on an error that will not clear by retrying at once. No
/// request waits on it: an arriving connection makes `accept()` succeed.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(10);

/// Connect timeout of one shutdown wake-up (loopback answers at once; this
/// bounds the attempt when the listen backlog is full).
const WAKE_TIMEOUT: Duration = Duration::from_millis(250);

fn accept_loop<D>(listener: TcpListener, name: &str, stop: &Arc<AtomicBool>, dispatch: &Arc<D>)
where
    D: Fn(Request) -> Response + Send + Sync + 'static,
{
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            break; // the shutdown wake-up, or a client that came too late
        }
        match accepted {
            Ok((stream, _peer)) => {
                let (stop, dispatch) = (Arc::clone(stop), Arc::clone(dispatch));
                if let Ok(handle) = std::thread::Builder::new()
                    .name(name.to_string())
                    .spawn(move || handle_connection(stream, &stop, &*dispatch))
                {
                    handlers.push(handle);
                }
                handlers.retain(|h| !h.is_finished());
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_PAUSE),
        }
    }
    drop(listener);
    for h in handlers {
        let _ = h.join();
    }
}

fn handle_connection(
    stream: TcpStream,
    stop: &AtomicBool,
    dispatch: &impl Fn(Request) -> Response,
) {
    // Replies are one small write each; leaving Nagle on would hold every
    // one back for the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    // The read timeout only lets an idle connection notice the stop flag;
    // the reader keeps what it has read across it.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let (mut reader, mut writer) = (LineReader::new(&stream), &stream);
    loop {
        let response = match reader.read_line() {
            Ok(None) => return, // client closed
            Ok(Some(line)) if line.trim().is_empty() => continue,
            Ok(Some(line)) => match protocol::parse_line::<Request>(line) {
                Ok(req) => dispatch(req),
                Err(e) => Response::Error(e.to_wire()),
            },
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            // An over-long or non-UTF-8 line: say so once, then close —
            // the reader cannot find the next line boundary.
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let detail = e.to_string();
                let refusal = Response::Error(ServeError::BadRequest { detail }.to_wire());
                let _ = protocol::write_line(&mut writer, &refusal);
                return;
            }
            Err(_) => return,
        };
        if protocol::write_line(&mut writer, &response).is_err() {
            return; // client gone
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
        inner.metrics.add(Counter::RetriesAttempted, 1);
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
    let deadline = gen
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
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
