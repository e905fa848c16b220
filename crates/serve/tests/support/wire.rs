//! Wire-conformance checks that hold for any front end built on
//! `chipalign_serve::server::LineServer`. `e2e.rs` runs them against a
//! `Server`; `chipalign-router`'s `router_e2e.rs` includes this file by
//! path and runs them against a `RouterServer`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use chipalign_serve::protocol::{parse_line, MAX_LINE_BYTES};
use chipalign_serve::{Client, ErrorCode, Response, PROTOCOL_VERSION};

/// Writes `head`, pauses for longer than two idle-read timeouts, writes
/// `tail`, and returns the one reply line.
fn split_write(addr: SocketAddr, head: &[u8], tail: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(head).expect("write head");
    std::thread::sleep(Duration::from_millis(250));
    stream.write_all(tail).expect("write tail");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("read reply");
    reply
}

/// A request whose bytes straddle the idle-read timeout is parsed whole,
/// wherever the cut falls — inside a multi-byte character of a `generate`
/// prompt for `model` included.
pub fn assert_split_lines_are_answered_whole(addr: SocketAddr, model: &str) {
    let pong = split_write(addr, b"{\"type\":", b"\"ping\"}\n");
    assert!(
        matches!(parse_line::<Response>(&pong), Ok(Response::Pong { .. })),
        "got {pong:?}"
    );

    let line = format!(
        "{{\"type\":\"generate\",\"model\":\"{model}\",\
         \"prompt\":\"Q:a \u{2192} b?;A:\",\"max_new_tokens\":4}}\n"
    );
    let cut = line.find('\u{2192}').expect("the arrow") + 1;
    assert!(!line.is_char_boundary(cut), "the cut is inside the arrow");
    let reply = split_write(addr, &line.as_bytes()[..cut], &line.as_bytes()[cut..]);
    assert!(
        matches!(parse_line::<Response>(&reply), Ok(Response::Generation(_))),
        "got {reply:?}"
    );
}

/// A newline-free stream is refused at `MAX_LINE_BYTES` with one structured
/// error and a closed connection — none of the rest is buffered — and the
/// next connection is served as usual.
pub fn assert_an_over_long_line_is_refused_once(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .expect("write timeout");
    // The peer stops reading at its limit and closes, so the tail of these
    // 4 MiB may be refused by the socket: that is the point.
    let chunk = vec![b'a'; 64 << 10];
    for _ in 0..4 * MAX_LINE_BYTES / chunk.len() {
        if stream.write_all(&chunk).is_err() {
            break;
        }
    }
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("the refusal");
    match parse_line::<Response>(&reply) {
        Ok(Response::Error(w)) => {
            assert_eq!(w.code, ErrorCode::BadRequest, "got {w:?}");
            assert!(
                w.detail.contains(&MAX_LINE_BYTES.to_string()),
                "the refusal names the limit: {w:?}"
            );
        }
        other => panic!("expected one bad_request, got {other:?} from {reply:?}"),
    }
    // Nothing follows it: EOF, or a reset because our bytes went unread.
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    assert!(rest.is_empty(), "exactly one reply line, then closed");

    let mut fresh = Client::connect(addr).expect("connect");
    assert_eq!(fresh.ping().expect("ping"), PROTOCOL_VERSION);
}

/// The fastest of three runs of `round`: contention on a shared host only
/// ever adds time, while a timer on the request path adds it to every run.
pub fn best_of_three(mut round: impl FnMut()) -> Duration {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            round();
            started.elapsed()
        })
        .min()
        .expect("three rounds")
}

/// With `idle` connected and nothing in flight, `shutdown` returns within a
/// few idle-read timeouts, calling it again is a no-op, the port is closed
/// afterwards and so is the idle connection.
pub fn assert_shutdown_is_prompt(addr: SocketAddr, mut idle: Client, shutdown: impl Fn()) {
    idle.ping().expect("ping"); // its handler is up, parked in a read
    let started = Instant::now();
    shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
    let started = Instant::now();
    shutdown();
    assert!(
        started.elapsed() < Duration::from_millis(50),
        "a second shutdown is a no-op"
    );
    assert!(
        Client::connect(addr).is_err(),
        "the listener must be closed after shutdown"
    );
    assert!(idle.ping().is_err(), "the idle connection was closed");
}
