//! The router's own TCP front end.
//!
//! [`RouterServer`] speaks the same newline-delimited JSON protocol as a
//! single `chipalign-serve` replica, so existing clients (including
//! [`chipalign_serve::Client`]) point at the router unchanged. Per-request
//! verbs are routed with failover ([`Router::generate`]); admin verbs fan
//! out — `metrics` aggregates the fleet with
//! [`chipalign_serve::MetricsSnapshot::absorb`], `models` unions,
//! `load`/`unload` broadcast — and the v3 `fleet`/`drain` verbs are
//! answered locally from the replica table. Every exchange with a replica
//! is one [`chipalign_serve::Client`] connection. The listener itself is
//! [`LineServer`] — the same blocking accept loop and connection handler a
//! replica runs; only the dispatch differs.
//!
//! A background prober pings every replica each `probe_interval`, feeding
//! the three-state health model that orders failover candidates.

use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use chipalign_serve::protocol::{Request, Response};
use chipalign_serve::server::LineServer;
use chipalign_serve::{ServeError, PROTOCOL_VERSION};

use crate::router::{Router, RouterConfig};

/// A running router front end: the line server plus the health prober.
pub struct RouterServer {
    router: Arc<Router>,
    front: LineServer,
    /// The prober's stop signal (dropping the sender wakes it) and thread.
    prober: Mutex<Option<(Sender<()>, JoinHandle<()>)>>,
}

impl std::fmt::Debug for RouterServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RouterServer({})", self.front.local_addr())
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
        let probe_interval = cfg.probe_interval;
        let router = Arc::new(Router::new(cfg, replicas));
        let dispatch_router = Arc::clone(&router);
        let front = LineServer::start(listener, "chipalign-router", move |req| {
            dispatch(&dispatch_router, req)
        })?;
        let probe_router = Arc::clone(&router);
        let (stop_tx, stop_rx) = mpsc::channel();
        let probe_thread = std::thread::Builder::new()
            .name("chipalign-router-probe".to_string())
            .spawn(move || probe_loop(&probe_router, probe_interval, &stop_rx))?;
        Ok(RouterServer {
            router,
            front,
            prober: Mutex::new(Some((stop_tx, probe_thread))),
        })
    }

    /// The bound address (useful with ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The routing core, for direct inspection (tests, the binary's
    /// status printing).
    #[must_use]
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Stops the accept loop and the prober, joining both. In-flight
    /// routed requests finish first (their handler threads are joined by
    /// the accept loop). Safe to call more than once.
    pub fn shutdown(&self) {
        self.front.shutdown();
        let prober = self
            .prober
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some((stop, thread)) = prober {
            drop(stop);
            let _ = thread.join();
        }
    }
}

impl Drop for RouterServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Probes at once, so the table reflects reality before the first routed
/// request, then every `interval` until `stop`'s sender is dropped.
fn probe_loop(router: &Router, interval: Duration, stop: &Receiver<()>) {
    loop {
        router.probe_once();
        if stop.recv_timeout(interval) != Err(RecvTimeoutError::Timeout) {
            return;
        }
    }
}

fn dispatch(router: &Router, req: Request) -> Response {
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
            let (loaded, zoo, models) = router.fleet_models();
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
