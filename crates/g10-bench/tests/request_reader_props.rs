//! Property tests for the daemon's request reader,
//! `g10_bench::serve::protocol::read_request`.
//!
//! The reader takes whatever chunks the socket hands it, so a request must
//! parse the same however it is cut, the `\r\n\r\n` head terminator split
//! across chunks included.  Any other input must come back as one of the
//! reader's typed 400 messages: never a panic, never an unbounded read.

use g10_bench::serve::protocol::{read_request, HttpRequest, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{self, Read};

/// Hands out `data` in chunks whose sizes cycle through `cuts`, and
/// interrupts every third read, as a signal would.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    cuts: Vec<usize>,
    chunks: usize,
    calls: usize,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, cuts: Vec<usize>) -> ChunkedReader {
        assert!(cuts.iter().all(|&cut| cut > 0), "empty chunks mean EOF");
        ChunkedReader {
            data,
            pos: 0,
            cuts,
            chunks: 0,
            calls: 0,
        }
    }
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(3) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let cut = self.cuts[self.chunks % self.cuts.len()];
        self.chunks += 1;
        let n = cut.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn read_chunked(data: &[u8], cuts: &[usize]) -> Result<HttpRequest, String> {
    read_request(&mut ChunkedReader::new(data.to_vec(), cuts.to_vec()))
}

/// Every message `read_request` can return, by prefix.
const ERROR_PREFIXES: [&str; 7] = [
    "connection closed mid-request",
    "read error: ",
    "request head exceeds ",
    "malformed request line: ",
    "bad content-length: ",
    "request body exceeds ",
    "short body: ",
];

fn assert_typed(result: &Result<HttpRequest, String>) {
    if let Err(message) = result {
        assert!(
            ERROR_PREFIXES.iter().any(|p| message.starts_with(p)),
            "untyped reader error: {message:?}"
        );
    }
}

fn pick(alphabet: &[u8], indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| char::from(alphabet[i % alphabet.len()]))
        .collect()
}

const TOKEN: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
const PATH: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/?=&%._-";
/// Header values may hold spaces and colons; bodies may hold anything,
/// head terminators included.
const VALUE: &[u8] = b"abcxyz0123456789 :;,/=-\"{}";
const BODY: &[u8] = b"{}[]\":,. abcxyz0123456789\r\n";

/// A well-formed request: the bytes on the wire and what they must parse
/// to.
#[derive(Debug)]
struct Wire {
    bytes: Vec<u8>,
    expected: HttpRequest,
}

type WireParts = (
    (usize, Vec<usize>),
    Vec<(Vec<usize>, Vec<usize>)>,
    (usize, usize),
    Vec<usize>,
    usize,
);

fn wire_request(parts: WireParts) -> Wire {
    let ((method, path), headers, (length_at, casing), body, terminators) = parts;
    let method = ["GET", "POST", "PUT", "DELETE", "X-CUSTOM"][method].to_string();
    let path = format!("/{}", pick(PATH, &path));
    let mut body = pick(BODY, &body);
    for _ in 0..terminators {
        body.push_str("\r\n\r\n");
    }
    let length_name = ["content-length", "Content-Length", "CONTENT-LENGTH"][casing];
    let mut lines: Vec<String> = headers
        .iter()
        .map(|(name, value)| format!("x-{}: {}", pick(TOKEN, name), pick(VALUE, value)))
        .collect();
    lines.insert(
        length_at % (lines.len() + 1),
        format!("{length_name}: {}", body.len()),
    );
    let mut head = format!("{method} {path} HTTP/1.1\r\n");
    for line in &lines {
        head.push_str(line);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    Wire {
        bytes,
        expected: HttpRequest { method, path, body },
    }
}

fn wire_strategy() -> impl Strategy<Value = Wire> {
    (
        (0usize..5, vec(0usize..64, 0..40)),
        vec((vec(0usize..64, 1..12), vec(0usize..64, 0..40)), 0..8),
        (0usize..9, 0usize..3),
        vec(0usize..64, 0..600),
        0usize..3,
    )
        .prop_map(wire_request)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn valid_requests_parse_identically_however_they_are_cut(
        wire in wire_strategy(),
        cuts in vec(1usize..48, 1..24),
    ) {
        prop_assert_eq!(read_chunked(&wire.bytes, &[usize::MAX]), Ok(wire.expected.clone()));
        prop_assert_eq!(read_chunked(&wire.bytes, &cuts), Ok(wire.expected));
    }

    #[test]
    fn arbitrary_bytes_give_a_typed_result(
        bytes in vec(0u8..=255, 0..16 * 1024),
        cuts in vec(1usize..4096, 1..8),
    ) {
        assert_typed(&read_chunked(&bytes, &cuts));
    }

    /// Bytes drawn from the characters the head grammar cares about, so
    /// terminators, colons and content lengths show up often.
    #[test]
    fn header_shaped_bytes_give_a_typed_result(
        picks in vec(0usize..32, 0..16 * 1024),
        cuts in vec(1usize..4096, 1..8),
    ) {
        let alphabet = b"\r\n\r\n: GET /run content-length 09";
        let bytes: Vec<u8> = picks.iter().map(|&i| alphabet[i]).collect();
        assert_typed(&read_chunked(&bytes, &cuts));
    }

    #[test]
    fn oversized_heads_and_bodies_keep_their_errors(
        extra in 1usize..4096,
        cuts in vec(1usize..4096, 1..8),
    ) {
        // No terminator within the cap: the reader stops at the cap, one
        // buffer's worth past it at most, however much the client sends.
        let mut unterminated = ChunkedReader::new(vec![b'a'; 1 << 20], cuts.clone());
        prop_assert_eq!(
            read_request(&mut unterminated),
            Err(format!("request head exceeds {MAX_HEAD_BYTES} bytes"))
        );
        prop_assert!(unterminated.pos <= 2 * MAX_HEAD_BYTES);
        // A terminator just past the cap is too late.
        let mut late = format!("GET /{} HTTP/1.1\r\n", "a".repeat(MAX_HEAD_BYTES));
        late.push_str("\r\n");
        prop_assert_eq!(
            read_chunked(late.as_bytes(), &cuts),
            Err(format!("request head exceeds {MAX_HEAD_BYTES} bytes"))
        );
        let too_long = format!(
            "POST /run HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + extra
        );
        prop_assert_eq!(
            read_chunked(too_long.as_bytes(), &cuts),
            Err(format!("request body exceeds {MAX_BODY_BYTES} bytes"))
        );
    }
}

#[test]
fn terminator_split_at_every_byte_parses() {
    let wire = wire_request((
        (1, vec![3, 4]),
        vec![(vec![1], vec![2])],
        (0, 1),
        vec![5; 9],
        1,
    ));
    for split in 1..wire.bytes.len() {
        assert_eq!(
            read_chunked(&wire.bytes, &[split, usize::MAX]),
            Ok(wire.expected.clone()),
            "split at {split}"
        );
    }
    assert_eq!(read_chunked(&wire.bytes, &[1]), Ok(wire.expected));
}

#[test]
fn caps_are_inclusive() {
    // A head of exactly MAX_HEAD_BYTES, terminator included, is accepted.
    let line = "GET /";
    let tail = " HTTP/1.1\r\n\r\n";
    let head = format!(
        "{line}{}{tail}",
        "a".repeat(MAX_HEAD_BYTES - line.len() - tail.len())
    );
    assert_eq!(head.len(), MAX_HEAD_BYTES);
    assert!(read_chunked(head.as_bytes(), &[1000]).is_ok());

    // A body of exactly MAX_BODY_BYTES is accepted.
    let mut request =
        format!("POST /run HTTP/1.1\r\ncontent-length: {MAX_BODY_BYTES}\r\n\r\n").into_bytes();
    request.extend_from_slice(&[b'x'; MAX_BODY_BYTES]);
    let parsed = read_chunked(&request, &[4096]).expect("body at the cap");
    assert_eq!(parsed.body.len(), MAX_BODY_BYTES);
}

#[test]
fn truncated_requests_give_their_errors() {
    assert_eq!(
        read_chunked(b"GET /healthz HTTP/1.1\r\n\r", &[5]),
        Err("connection closed mid-request".to_string())
    );
    let short = read_chunked(b"POST /run HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc", &[7]);
    assert!(short.unwrap_err().starts_with("short body: "));
    assert_eq!(
        read_chunked(b"POST /run HTTP/1.1\r\ncontent-length: ten\r\n\r\n", &[7]),
        Err("bad content-length: \"ten\"".to_string())
    );
    assert_eq!(
        read_chunked(b"GET\r\n\r\n", &[7]),
        Err("malformed request line: \"GET\"".to_string())
    );
}
