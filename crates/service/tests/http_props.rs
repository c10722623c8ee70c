//! Property tests for the request framer, which reads untrusted bytes
//! straight off the socket: arbitrary, truncated and mutated input must
//! yield a verdict, never a panic, and a framed request must never claim
//! bytes the buffer does not hold.

use ipe_service::http::{parse_request, ParseOutcome};
use proptest::collection::vec;
use proptest::prelude::*;

/// Parses `buf` and checks the bound every outcome respects: `Ok`
/// consumes at least one byte and never more than `buf` holds.
fn frame(buf: &[u8]) -> ParseOutcome {
    let out = parse_request(buf);
    if let ParseOutcome::Ok { consumed, .. } = out {
        assert!(
            0 < consumed && consumed <= buf.len(),
            "consumed {consumed} of {} bytes",
            buf.len()
        );
    }
    out
}

/// A well-formed request: a method, a `/`-rooted target with an optional
/// query, a few headers, and a body of arbitrary bytes announced by
/// `Content-Length` (omitted on some empty bodies).
fn request() -> impl Strategy<Value = Vec<u8>> {
    (
        0usize..4,
        "[a-z0-9/]{0,12}",
        "[a-z]{0,4}",
        vec(0u8..=255, 0..48),
        0usize..8,
    )
        .prop_map(|(method, path, query, body, headers)| {
            let method = ["GET", "POST", "PUT", "DELETE"][method];
            let version = if headers & 1 == 0 { "1.1" } else { "1.0" };
            let mut wire = format!("{method} /{path}");
            if !query.is_empty() {
                wire.push_str(&format!("?{query}=v%20{query}"));
            }
            wire.push_str(&format!(" HTTP/{version}\r\nHost: bench\r\n"));
            if headers & 2 != 0 {
                wire.push_str("Connection: close\r\nX-Ipe-Trace-Id: t1\r\n");
            }
            if !body.is_empty() || headers & 4 != 0 {
                wire.push_str(&format!("Content-Length: {}\r\n", body.len()));
            }
            wire.push_str("\r\n");
            let mut wire = wire.into_bytes();
            wire.extend_from_slice(&body);
            wire
        })
}

/// Two requests back to back, as a pipelining client sends them.
fn pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (request(), request()).prop_map(|(first, second)| {
        let mut wire = first.clone();
        wire.extend_from_slice(&second);
        (first, wire)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the framer.
    #[test]
    fn arbitrary_bytes_never_panic(buf in vec(0u8..=255, 0..512)) {
        frame(&buf);
    }

    /// A real request line followed by header-shaped junk and arbitrary
    /// bytes reaches the header and body logic, and never panics there.
    #[test]
    fn header_junk_never_panics(
        lines in vec("[A-Za-z0-9:% -]{0,24}", 0..8),
        tail in vec(0u8..=255, 0..64),
    ) {
        let mut buf = format!("POST /v1/complete HTTP/1.1\r\n{}\r\n\r\n", lines.join("\r\n"))
            .into_bytes();
        buf.extend_from_slice(&tail);
        frame(&buf);
    }

    /// Every strict prefix of the first request is `Incomplete`; every
    /// longer prefix of the pair frames exactly the first request.
    #[test]
    fn prefixes_of_a_pipelined_pair((first, wire) in pair()) {
        for n in 0..=wire.len() {
            match frame(&wire[..n]) {
                ParseOutcome::Incomplete => prop_assert!(n < first.len(), "prefix {n} incomplete"),
                ParseOutcome::Ok { consumed, .. } => {
                    prop_assert!(n >= first.len(), "strict prefix {n} framed");
                    prop_assert_eq!(consumed, first.len());
                }
                ParseOutcome::Malformed(status, msg) => {
                    prop_assert!(false, "prefix {n} rejected: {status} {msg}")
                }
            }
        }
    }

    /// A valid request followed by garbage frames as that request alone;
    /// the garbage stays in the buffer for the next parse.
    #[test]
    fn garbage_after_a_request_is_left_unconsumed(
        first in request(),
        garbage in vec(0u8..=255, 0..64),
    ) {
        let mut buf = first.clone();
        buf.extend_from_slice(&garbage);
        match frame(&buf) {
            ParseOutcome::Ok { consumed, .. } => prop_assert_eq!(consumed, first.len()),
            _ => prop_assert!(false, "valid request not framed"),
        }
    }

    /// Changing any one byte of a pipelined pair never panics, at any
    /// truncation of the mutated buffer.
    #[test]
    fn single_byte_mutations_never_panic(
        (_first, wire) in pair(),
        at in 0usize..4096,
        byte in 0u8..=255,
    ) {
        let mut wire = wire;
        let at = at % wire.len();
        wire[at] = byte;
        for n in 0..=wire.len() {
            frame(&wire[..n]);
        }
    }
}
