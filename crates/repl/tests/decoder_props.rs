//! Property tests for the follower's replication-stream decoder, which
//! reads untrusted bytes off a socket in whatever chunks TCP delivers.
//! Arbitrary, truncated and mutated streams, fed in arbitrary chunk sizes,
//! yield frames, `Ok(None)` (need more bytes) or an error — never a panic
//! — and every frame it yields re-encodes to exactly the bytes it
//! consumed. A valid stream round-trips whatever the chunking.

use ipe_repl::{Frame, FrameDecoder, ProtoError, MAX_FRAME_PAYLOAD, REPL_MAGIC};
use proptest::collection::vec;
use proptest::prelude::*;

fn frame() -> impl Strategy<Value = Frame> {
    (0u8..4, 0u64..1 << 40, 0u8..=255, vec(0u8..=255, 0..48)).prop_map(|(kind, seq, mode, body)| {
        match kind {
            0 => Frame::Hello {
                leader_last_seq: seq,
                start_mode: mode,
            },
            1 => Frame::Snapshot(body),
            2 => Frame::Record(body),
            _ => Frame::Heartbeat {
                leader_last_seq: seq,
            },
        }
    })
}

fn stream_of(frames: &[Frame]) -> Vec<u8> {
    let mut bytes = REPL_MAGIC.to_vec();
    for f in frames {
        bytes.extend_from_slice(&f.encode());
    }
    bytes
}

/// Frames and the stream that carries them.
fn stream() -> impl Strategy<Value = (Vec<Frame>, Vec<u8>)> {
    vec(frame(), 0..5).prop_map(|frames| {
        let bytes = stream_of(&frames);
        (frames, bytes)
    })
}

/// Chunk sizes to cut a stream into, used cyclically.
fn chunks() -> impl Strategy<Value = Vec<usize>> {
    vec(1usize..40, 1..8)
}

/// Feeds `bytes` to a fresh decoder in `sizes`-sized chunks, draining
/// frames after each push, and stops at the first error. Checks that the
/// frames decoded so far re-encode to a prefix of `bytes`.
fn feed(bytes: &[u8], sizes: &[usize]) -> (Vec<Frame>, Option<ProtoError>) {
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut at = 0;
    let mut error = None;
    for &size in sizes.iter().cycle() {
        if at == bytes.len() || error.is_some() {
            break;
        }
        let end = (at + size).min(bytes.len());
        dec.push(&bytes[at..end]);
        at = end;
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
    }
    if !frames.is_empty() {
        let consumed = stream_of(&frames);
        assert!(
            bytes.starts_with(&consumed),
            "decoded frames do not re-encode to the consumed bytes"
        );
    }
    (frames, error)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A valid stream decodes to its frames, whatever the chunking.
    #[test]
    fn valid_streams_round_trip((frames, bytes) in stream(), sizes in chunks()) {
        let (got, error) = feed(&bytes, &sizes);
        prop_assert_eq!(error, None);
        prop_assert_eq!(got, frames);
    }

    /// Every truncation of a valid stream decodes the frames it holds in
    /// full and then waits for more bytes — it is never an error.
    #[test]
    fn truncations_wait_for_more((frames, bytes) in stream(), sizes in chunks()) {
        for n in 0..bytes.len() {
            let (got, error) = feed(&bytes[..n], &sizes);
            prop_assert_eq!(error, None, "prefix {} errored", n);
            prop_assert!(got.len() <= frames.len());
            prop_assert_eq!(&got[..], &frames[..got.len()]);
        }
    }

    /// Arbitrary bytes, with or without a valid magic in front, never
    /// panic the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(
        magic in 0u8..2,
        junk in vec(0u8..=255, 0..256),
        sizes in chunks(),
    ) {
        let mut bytes = if magic == 1 { REPL_MAGIC.to_vec() } else { Vec::new() };
        bytes.extend_from_slice(&junk);
        feed(&bytes, &sizes);
    }

    /// A single-byte mutation of a valid stream never panics, and the
    /// frames before the damaged one still decode unchanged.
    #[test]
    fn mutated_streams_never_panic(
        (frames, bytes) in stream(),
        at in 0usize..4096,
        mask in 1u8..=255,
        sizes in chunks(),
    ) {
        let mut copy = bytes.clone();
        let at = at % copy.len();
        copy[at] ^= mask;
        let (got, _) = feed(&copy, &sizes);
        let intact = frames
            .iter()
            .scan(REPL_MAGIC.len(), |end, f| {
                *end += f.encode().len();
                Some(*end)
            })
            .take_while(|&end| end <= at)
            .count();
        prop_assert!(got.len() >= intact, "{} of {} intact frames decoded", got.len(), intact);
        prop_assert_eq!(&got[..intact], &frames[..intact]);
    }

    /// A header declaring more than the frame cap is refused at once; one
    /// declaring less than the cap but more than was sent waits for the
    /// bytes instead of reserving them.
    #[test]
    fn length_fields_are_bounded(len in 0u32..=u32::MAX, tail in vec(0u8..=255, 0..16)) {
        let mut bytes = REPL_MAGIC.to_vec();
        bytes.push(2);
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4]);
        bytes.extend_from_slice(&tail);
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let out = dec.next_frame();
        if len as usize > MAX_FRAME_PAYLOAD {
            prop_assert_eq!(out, Err(ProtoError::Oversize(len as u64)));
        } else if len as usize > tail.len() {
            prop_assert_eq!(out, Ok(None));
        }
    }
}
