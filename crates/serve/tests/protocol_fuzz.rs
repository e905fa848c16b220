//! The wire codec at the trust boundary: whatever bytes arrive on a line,
//! parsing yields a message or a structured protocol error — never a
//! panic — and the lines real peers write keep their exact shape.

use chipalign_model::json;
use chipalign_serve::protocol::{parse_line, LineReader, MAX_LINE_BYTES};
use chipalign_serve::{FinishReason, GenerateRequest, Generation, Request, Response, ServeError};
use chipalign_tensor::rng::{cases, Pcg32};

/// Valid lines to mutate: every request variant, plus replies (a client
/// parses those from a server it does not control either).
fn seed_lines() -> Vec<String> {
    let mut full = GenerateRequest::greedy("merge:eda-qwen+instruct-qwen@0.6", "Q:x \"y\";A:", 8);
    full.seed = u64::MAX;
    full.deadline_ms = Some(250);
    let requests = [
        Request::Generate(full),
        Request::Models,
        Request::Load {
            model: "file:/tmp/m.calt#int8".into(),
        },
        Request::Unload {
            model: "instruct-qwen".into(),
        },
        Request::Metrics,
        Request::Ping,
        Request::Fleet,
        Request::Drain {
            replica: "127.0.0.1:7001".into(),
        },
    ];
    let mut lines: Vec<String> = requests.iter().map(json::to_string).collect();
    lines.push(json::to_string(&Response::Generation(generation())));
    lines.push(json::to_string(&Response::Metrics(Box::new(
        chipalign_serve::Metrics::new().snapshot(),
    ))));
    lines
}

fn generation() -> Generation {
    Generation {
        model: "instruct-qwen".into(),
        text: "a \"quoted\" line\nand a tab\t".into(),
        tokens: 24,
        prompt_tokens: 9,
        finish: FinishReason::Length,
        queue_ms: 3,
        latency_ms: 41,
    }
}

/// One random edit of `line`: flip, overwrite, cut, splice in structural
/// bytes, or duplicate a slice. The result is made valid UTF-8 the way a
/// line reader would hand it over.
fn mutate(line: &str, rng: &mut Pcg32) -> String {
    const STRUCTURAL: &[u8] = b"{}[]\",:\\0-9.eE+u\n\t truefalsn";
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.range(1, 4) {
        let pos = rng
            .below(bytes.len().max(1))
            .min(bytes.len().saturating_sub(1));
        match rng.below(5) {
            0 if !bytes.is_empty() => bytes[pos] ^= 1 << rng.below(8),
            1 if !bytes.is_empty() => bytes[pos] = *rng.choose(STRUCTURAL),
            2 => bytes.truncate(pos),
            3 => bytes.insert(pos, *rng.choose(STRUCTURAL)),
            _ if !bytes.is_empty() => {
                let end = (pos + rng.range(1, 16)).min(bytes.len());
                let slice = bytes[pos..end].to_vec();
                bytes.splice(pos..pos, slice);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `Ok` or a structured protocol error; an `Ok` must re-encode stably.
fn check_request(line: &str) {
    match parse_line::<Request>(line) {
        Ok(req) => {
            let encoded = json::to_string(&req);
            let again: Request = parse_line(&encoded).expect("own encoding parses");
            assert_eq!(json::to_string(&again), encoded, "unstable for {line:?}");
        }
        Err(ServeError::Protocol { detail }) => assert!(!detail.is_empty()),
        Err(other) => panic!("{line:?}: expected a protocol error, got {other:?}"),
    }
}

#[test]
fn mutated_lines_never_panic() {
    let seeds = seed_lines();
    for mut rng in cases(1, 4000) {
        let seed_line = &seeds[rng.below(seeds.len())];
        let line = mutate(seed_line, &mut rng);
        check_request(&line);
        match parse_line::<Response>(&line) {
            Ok(_) | Err(ServeError::Protocol { .. }) => {}
            Err(other) => panic!("{line:?}: {other:?}"),
        }
    }
}

/// A byte stream delivered in random small reads with read timeouts
/// sprinkled between them, the way a socket with a read timeout does.
struct Trickle<'a> {
    bytes: &'a [u8],
    rng: Pcg32,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.bytes.is_empty() && self.rng.below(4) == 0 {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let most = self.bytes.len().min(buf.len());
        let n = if most == 0 {
            0
        } else {
            self.rng.range(1, 1 << 16).min(most)
        };
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

#[test]
fn framed_mutated_lines_arrive_whole_and_oversize_ones_are_refused() {
    let seeds = seed_lines();
    let filler = "a".repeat(MAX_LINE_BYTES);
    for mut rng in cases(2, 400) {
        let mut wire = mutate(&seeds[rng.below(seeds.len())], &mut rng);
        // One case in eight carries a line over the limit (the mutation's
        // own newlines removed, so the long line is the first).
        let oversize = rng.below(8) == 0;
        if oversize {
            wire = wire.replace('\n', " ");
            let mut at = rng.below(wire.len() + 1);
            while !wire.is_char_boundary(at) {
                at -= 1;
            }
            wire.insert_str(at, &filler);
        }
        wire.push('\n');
        let mut reader = LineReader::new(Trickle {
            bytes: wire.as_bytes(),
            rng: rng.derive(1),
        });
        // Timeouts lose nothing: the next call resumes the same line.
        let mut next = || loop {
            match reader.read_line() {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                other => return other.map(|line| line.map(str::to_string)),
            }
        };
        if oversize {
            let err = next().expect_err("over the limit");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            continue;
        }
        for expected in wire.split_inclusive('\n') {
            let line = next().expect("a line").expect("not yet EOF");
            assert_eq!(line, expected);
            check_request(&line);
        }
        assert_eq!(next().expect("eof"), None);
    }
}

#[test]
fn hostile_sizes_are_rejected_or_bounded() {
    // A depth bomb is rejected by the nesting bound, not by the stack.
    for bomb in ["[".repeat(1 << 20), "{\"a\":".repeat(1 << 18)] {
        assert!(matches!(
            parse_line::<Request>(&bomb),
            Err(ServeError::Protocol { .. })
        ));
    }
    // A 1 MB string costs one linear pass and arrives intact.
    let prompt = "x".repeat(1 << 20);
    let line = format!("{{\"type\":\"generate\",\"model\":\"m\",\"prompt\":\"{prompt}\"}}");
    match parse_line::<Request>(&line).expect("a long prompt is still a valid request") {
        Request::Generate(g) => assert_eq!(g.prompt.len(), 1 << 20),
        other => panic!("wrong variant: {other:?}"),
    }
    // ...and an unterminated one is an error, not a hang.
    assert!(parse_line::<Request>(&line[..line.len() - 3]).is_err());
}

#[test]
fn the_benchmark_harness_lines_decode() {
    // Byte for byte what `benchmark/src/wire.rs` writes.
    let generate = "{\"type\":\"generate\",\"model\":\"file:/tmp/bench-384.calt#int8#kv8\",\"prompt\":\"Q:a \\\"b\\\" \\\\ c;A:\",\"max_new_tokens\":32,\"temperature\":0.0,\"stop_at_eos\":false}\n";
    match parse_line::<Request>(generate).expect("generate line") {
        Request::Generate(g) => {
            assert_eq!(g.model, "file:/tmp/bench-384.calt#int8#kv8");
            assert_eq!(g.prompt, "Q:a \"b\" \\ c;A:");
            assert_eq!(g.max_new_tokens, 32);
            assert_eq!(g.temperature, 0.0);
            assert!(!g.stop_at_eos);
            // Everything the harness leaves out takes its default.
            assert_eq!((g.top_k, g.top_p, g.seed), (0, 1.0, 0));
            assert_eq!((g.deadline_ms, g.retry_attempt), (None, 0));
        }
        other => panic!("wrong variant: {other:?}"),
    }
    let load = "{\"type\":\"load\",\"model\":\"merge:eda-qwen+instruct-qwen@0.5\"}\n";
    match parse_line::<Request>(load).expect("load line") {
        Request::Load { model } => assert_eq!(model, "merge:eda-qwen+instruct-qwen@0.5"),
        other => panic!("wrong variant: {other:?}"),
    }
}

#[test]
fn generation_reply_keeps_its_compact_shape() {
    // The harness finds `"key":` by substring, so no space may follow a
    // colon and the tag must be `generation`.
    let line = json::to_string(&Response::Generation(generation()));
    assert_eq!(
        line,
        "{\"type\":\"generation\",\"model\":\"instruct-qwen\",\
         \"text\":\"a \\\"quoted\\\" line\\nand a tab\\t\",\"tokens\":24,\
         \"prompt_tokens\":9,\"finish\":\"length\",\"queue_ms\":3,\"latency_ms\":41}"
    );
}

#[test]
fn seeds_and_deadlines_round_trip_exactly() {
    for (seed, deadline_ms) in [
        (u64::MAX, Some(u64::MAX)),
        (u64::MAX - 1, None),
        ((1 << 53) + 1, Some(0)),
        (0, Some(1)),
    ] {
        let req = Request::Generate(GenerateRequest {
            seed,
            deadline_ms,
            ..GenerateRequest::greedy("m", "p", 4)
        });
        match parse_line::<Request>(&json::to_string(&req)).expect("round trip") {
            Request::Generate(g) => {
                assert_eq!(g.seed, seed);
                assert_eq!(g.deadline_ms, deadline_ms);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
    // An absent deadline is written as null and read back as absent.
    let line = json::to_string(&Request::Generate(GenerateRequest::greedy("m", "p", 4)));
    assert!(line.contains("\"deadline_ms\":null"), "{line}");
}
