//! The harness's side of the newline-JSON protocol: it writes request
//! lines by hand and reads only the few reply fields it needs, so it links
//! no JSON library of its own.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use crate::metrics::json_string;

/// One `generate` request line (greedy, fixed length).
pub fn generate_line(model: &str, prompt: &str, new_tokens: usize) -> String {
    format!(
        "{{\"type\":\"generate\",\"model\":{},\"prompt\":{},\"max_new_tokens\":{new_tokens},\"temperature\":0.0,\"stop_at_eos\":false}}\n",
        json_string(model),
        json_string(prompt)
    )
}

pub fn load_line(model: &str) -> String {
    format!("{{\"type\":\"load\",\"model\":{}}}\n", json_string(model))
}

/// The fields of a `generation` reply the harness checks.
pub struct Generation {
    pub text: String,
    pub tokens: usize,
    pub queue_ms: f64,
}

/// The string value of top-level key `key` in the one-line object `line`,
/// unescaped. The protocol's replies are flat enough that the first
/// `"key":` outside a string value is the top-level one.
fn string_field(line: &str, key: &str) -> Option<String> {
    let start = find_key(line, key)?;
    let mut chars = line[start..].chars();
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                c => out.push(c), // \" \\ \/
            },
            c => out.push(c),
        }
    }
}

fn number_field(line: &str, key: &str) -> Option<f64> {
    let start = find_key(line, key)?;
    let rest = &line[start..];
    let end = rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))?;
    rest[..end].parse().ok()
}

/// Byte offset just past `"key":`, skipping over string values so a key
/// name inside generated text cannot match.
fn find_key(line: &str, key: &str) -> Option<usize> {
    let needle = format!("\"{key}\":");
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i..].starts_with(needle.as_bytes()) {
            return Some(i + needle.len());
        }
        if bytes[i] == b'"' {
            // Skip a whole string token (a key that did not match, or a value).
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                i += if bytes[i] == b'\\' { 2 } else { 1 };
            }
        }
        i += 1;
    }
    None
}

/// Parses a reply line; `Err` carries the line for the failure report.
pub fn parse_generation(line: &str) -> Result<Generation, String> {
    let parsed = (|| {
        if string_field(line, "type")? != "generation" {
            return None;
        }
        Some(Generation {
            text: string_field(line, "text")?,
            tokens: number_field(line, "tokens")? as usize,
            queue_ms: number_field(line, "queue_ms")?,
        })
    })();
    parsed.ok_or_else(|| line.trim().to_string())
}

/// One persistent connection, one request at a time.
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    pub fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line and reads the reply line.
    pub fn exchange(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply)
    }
}
