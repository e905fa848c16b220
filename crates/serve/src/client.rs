//! The blocking client for the wire protocol.
//!
//! One [`Client`] wraps one TCP connection; each call writes a request line
//! and blocks until the matching response line arrives, framed by
//! [`LineReader`] (so a reply is bounded by
//! [`protocol::MAX_LINE_BYTES`]). The router reaches every replica through
//! it, one connection per exchange (see DESIGN.md, "Wire"), and the tests
//! and examples drive servers with it; any newline-JSON-speaking client in
//! any language works equally well.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::metrics::MetricsSnapshot;
use crate::protocol::{
    self, GenerateRequest, Generation, LineReader, LoadedModel, ReplicaStatus, Request, Response,
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
        Client::over(TcpStream::connect(addr)?)
    }

    /// Connects to the first address `addr` resolves to within
    /// `connect_timeout`, then waits at most `read_timeout` for each reply
    /// (`None` waits forever).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the address resolves to nothing or the
    /// connection cannot be established in time. A reply that misses
    /// `read_timeout` fails its request with [`ServeError::Io`]
    /// (`WouldBlock` or `TimedOut`).
    pub fn connect_timeout<A: ToSocketAddrs>(
        addr: A,
        connect_timeout: Duration,
        read_timeout: Option<Duration>,
    ) -> Result<Self, ServeError> {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolves to nothing",
            )
        })?;
        let stream = TcpStream::connect_timeout(&resolved, connect_timeout)?;
        stream.set_read_timeout(read_timeout)?;
        Client::over(stream)
    }

    fn over(stream: TcpStream) -> Result<Self, ServeError> {
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

    /// Lists loaded models, servable zoo slugs, and one detail row (dtype,
    /// weight bytes) per loaded model.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and unexpected replies.
    pub fn models(&mut self) -> Result<Models, ServeError> {
        match self.request(&Request::Models)? {
            Response::Models {
                loaded,
                zoo,
                models,
            } => Ok((loaded, zoo, models)),
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

/// A `models` reply: loaded keys, zoo slugs and the loaded models' detail
/// rows.
type Models = (Vec<String>, Vec<String>, Vec<LoadedModel>);

fn unexpected(resp: &Response) -> ServeError {
    ServeError::Protocol {
        detail: format!("unexpected response variant: {resp:?}"),
    }
}
