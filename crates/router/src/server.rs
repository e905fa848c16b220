//! The router's own TCP front end.
//!
//! [`RouterServer`] speaks the same newline-delimited JSON protocol as a
//! single `chipalign-serve` replica, so existing clients (including
//! [`chipalign_serve::Client`] and its `Retrier`) point at the router
//! unchanged. Per-request verbs are routed with failover
//! ([`Router::generate`]); admin verbs fan out — `metrics` aggregates the
//! fleet with [`chipalign_serve::MetricsSnapshot::absorb`], `models`
//! unions, `load`/`unload` broadcast — and the v3 `fleet`/`drain` verbs
//! are answered locally from the replica table.
//!
//! A background prober pings every replica each `probe_interval`, feeding
//! the three-state health model that orders failover candidates.

use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use chipalign_serve::protocol::{self, Request, Response};
use chipalign_serve::{ServeError, PROTOCOL_VERSION};

use crate::router::{Router, RouterConfig};

/// How often blocked loops poll the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

struct RouterInner {
    router: Router,
    stop: AtomicBool,
    probe_interval: Duration,
}

/// A running router front end: TCP accept loop plus health prober.
pub struct RouterServer {
    inner: Arc<RouterInner>,
    addr: SocketAddr,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for RouterServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RouterServer({})", self.addr)
    }
}

impl RouterServer {
    /// Binds the front end, starts the accept loop and the health prober,
    /// and returns immediately.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the listen address cannot be bound.
    pub fn bind(cfg: RouterConfig, replicas: Vec<String>) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let probe_interval = cfg.probe_interval;
        let inner = Arc::new(RouterInner {
            router: Router::new(cfg, replicas),
            stop: AtomicBool::new(false),
            probe_interval,
        });
        let mut threads = Vec::with_capacity(2);
        let accept_inner = Arc::clone(&inner);
        threads.push(
            std::thread::Builder::new()
                .name("chipalign-router-accept".to_string())
                .spawn(move || accept_loop(&listener, &accept_inner))
                .map_err(ServeError::Io)?,
        );
        let probe_inner = Arc::clone(&inner);
        threads.push(
            std::thread::Builder::new()
                .name("chipalign-router-probe".to_string())
                .spawn(move || probe_loop(&probe_inner))
                .map_err(ServeError::Io)?,
        );
        Ok(RouterServer {
            inner,
            addr,
            threads: Mutex::new(threads),
        })
    }

    /// The bound address (useful with ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The routing core, for direct inspection (tests, the binary's
    /// status printing).
    #[must_use]
    pub fn router(&self) -> &Router {
        &self.inner.router
    }

    /// Stops the accept loop and the prober, joining both. In-flight
    /// routed requests finish first (their handler threads are joined by
    /// the accept loop). Safe to call more than once.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        let threads: Vec<JoinHandle<()>> = self
            .threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in threads {
            let _ = handle.join();
        }
    }
}

impl Drop for RouterServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn probe_loop(inner: &Arc<RouterInner>) {
    // First pass immediately so the table reflects reality before the
    // first routed request, then on the configured cadence (polled in
    // POLL_INTERVAL steps so shutdown stays prompt).
    while !inner.stop.load(Ordering::SeqCst) {
        inner.router.probe_once();
        let mut waited = Duration::ZERO;
        while waited < inner.probe_interval && !inner.stop.load(Ordering::SeqCst) {
            std::thread::sleep(POLL_INTERVAL);
            waited += POLL_INTERVAL;
        }
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<RouterInner>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !inner.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_inner = Arc::clone(inner);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("chipalign-router-conn".to_string())
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

fn handle_connection(stream: TcpStream, inner: &Arc<RouterInner>) {
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

fn dispatch(inner: &Arc<RouterInner>, req: Request) -> Response {
    let router = &inner.router;
    match req {
        Request::Ping => Response::Pong {
            version: PROTOCOL_VERSION,
        },
        Request::Generate(gen) => match router.generate(&gen) {
            Ok(g) => Response::Generation(g),
            Err(e) => Response::Error(e.to_wire()),
        },
        Request::Metrics => Response::Metrics(Box::new(router.fleet_metrics())),
        Request::Models => {
            let (loaded, zoo, models) = router.fleet_models_detailed();
            Response::Models {
                loaded,
                zoo,
                models,
            }
        }
        Request::Load { model } => match router.fleet_load(&model) {
            Ok(key) => Response::Loaded { model: key },
            Err(e) => Response::Error(e.to_wire()),
        },
        Request::Unload { model } => Response::Unloaded {
            evicted: router.fleet_unload(&model),
            model,
        },
        Request::Fleet => Response::Fleet {
            replicas: router.fleet_status(),
        },
        Request::Drain { replica } => Response::Drained {
            known: router.drain(&replica),
            replica,
        },
    }
}
