//! Property tests for the store's decoders of untrusted bytes: a snapshot
//! body (`Snapshot::from_bytes`, also what a leader ships to a follower),
//! a WAL record payload (`WalRecord::decode_payload`) and a WAL frame
//! (`scan_frame`). Arbitrary, truncated and mutated input yields an error
//! or a torn tail — or, where a format carries no checksum of its own, a
//! value that re-encodes to exactly the input — never a panic, and never
//! an allocation sized by a length field the bytes cannot back. A valid
//! encoding round-trips.

use ipe_store::wal::{scan_frame, FrameOutcome};
use ipe_store::{SchemaRecord, Snapshot, WalOp, WalRecord};
use proptest::collection::vec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Records the largest single allocation the test binary makes, so the
/// length-field bound is checked, not assumed.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// No decode of the small inputs below may allocate more than this; a
/// declared length of up to 4 GiB must not turn into a reservation.
const ALLOC_BOUND: usize = 1 << 20;

fn text() -> impl Strategy<Value = String> {
    "[a-zé/{}:\"0-9]{0,12}"
}

fn record() -> impl Strategy<Value = SchemaRecord> {
    (text(), text(), 0u64..1 << 40, 0u64..1 << 40, text()).prop_map(
        |(tenant, name, id, generation, schema_json)| SchemaRecord {
            tenant,
            name,
            id,
            generation,
            schema_json,
        },
    )
}

fn snapshot() -> impl Strategy<Value = Snapshot> {
    (0u64..1 << 40, 0u64..1 << 40, vec(record(), 0..4)).prop_map(|(last_seq, max_id, schemas)| {
        Snapshot {
            last_seq,
            max_id,
            schemas,
        }
    })
}

fn wal_record() -> impl Strategy<Value = WalRecord> {
    (0u64..1 << 40, 0u8..2, record()).prop_map(|(seq, kind, r)| WalRecord {
        seq,
        op: if kind == 0 {
            WalOp::Put {
                tenant: r.tenant,
                name: r.name,
                id: r.id,
                generation: r.generation,
                schema_json: r.schema_json,
            }
        } else {
            WalOp::Delete {
                tenant: r.tenant,
                name: r.name,
            }
        },
    })
}

/// A valid encoding with one byte XORed by a nonzero mask.
fn mutated<S: Strategy>(
    valid: S,
    encode: fn(&S::Value) -> Vec<u8>,
) -> impl Strategy<Value = Vec<u8>> {
    (valid, 0usize..4096, 1u8..=255).prop_map(move |(value, at, mask)| {
        let mut bytes = encode(&value);
        if !bytes.is_empty() {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        bytes
    })
}

/// Decodes a snapshot body; an accepted body must be the canonical
/// encoding of what it decoded to (the body has no checksum, so a
/// mutation may well produce another valid snapshot — but never a
/// different reading of the same bytes).
fn check_snapshot(body: &[u8]) -> Result<Snapshot, String> {
    match Snapshot::from_bytes(body) {
        Ok(snap) => {
            assert_eq!(snap.to_bytes(), body, "accepted a non-canonical body");
            Ok(snap)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Decodes a WAL payload; an accepted payload must decode back to the
/// same record after re-encoding (v1 payloads re-encode as v2, so the
/// bytes themselves need not match).
fn check_payload(payload: &[u8]) -> Result<WalRecord, String> {
    match WalRecord::decode_payload(payload) {
        Ok(record) => {
            let again = WalRecord::decode_payload(&record.encode_payload()).unwrap();
            assert_eq!(again, record, "re-encoding changed the record");
            Ok(record)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Scans one frame at offset 0; a decoded record must claim exactly the
/// frame's bytes.
fn check_frame(buf: &[u8]) -> FrameOutcome {
    let out = scan_frame(buf, 0);
    if let FrameOutcome::Record(_, next) = &out {
        assert!(
            *next <= buf.len(),
            "frame claims {next} of {} bytes",
            buf.len()
        );
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic any decoder and never allocate by an
    /// unbacked length.
    #[test]
    fn arbitrary_bytes_never_panic(buf in vec(0u8..=255, 0..256)) {
        let _ = check_snapshot(&buf);
        let _ = check_payload(&buf);
        check_frame(&buf);
        prop_assert!(LARGEST.load(Ordering::Relaxed) <= ALLOC_BOUND);
    }

    /// Valid encodings round-trip.
    #[test]
    fn valid_encodings_round_trip(snap in snapshot(), record in wal_record()) {
        prop_assert_eq!(check_snapshot(&snap.to_bytes()), Ok(snap));
        prop_assert_eq!(check_payload(&record.encode_payload()), Ok(record.clone()));
        let frame = record.encode_frame();
        match check_frame(&frame) {
            FrameOutcome::Record(back, next) => {
                prop_assert_eq!(back, record);
                prop_assert_eq!(next, frame.len());
            }
            _ => prop_assert!(false, "valid frame not scanned"),
        }
    }

    /// Every strict prefix of a valid encoding is an error (a torn frame
    /// for the WAL), never a shorter value.
    #[test]
    fn every_truncation_is_rejected(snap in snapshot(), record in wal_record()) {
        let body = snap.to_bytes();
        for n in 0..body.len() {
            prop_assert!(check_snapshot(&body[..n]).is_err(), "snapshot prefix {n} accepted");
        }
        let payload = record.encode_payload();
        for n in 0..payload.len() {
            prop_assert!(check_payload(&payload[..n]).is_err(), "payload prefix {n} accepted");
        }
        let frame = record.encode_frame();
        prop_assert!(matches!(check_frame(&[]), FrameOutcome::End));
        for n in 1..frame.len() {
            prop_assert!(
                matches!(check_frame(&frame[..n]), FrameOutcome::Torn),
                "frame prefix {n} not torn"
            );
        }
    }

    /// A single-byte mutation of a snapshot body never panics; whatever
    /// it decodes to re-encodes to the mutated bytes.
    #[test]
    fn mutated_snapshots_never_panic(body in mutated(snapshot(), Snapshot::to_bytes)) {
        let _ = check_snapshot(&body);
        prop_assert!(LARGEST.load(Ordering::Relaxed) <= ALLOC_BOUND);
    }

    /// A single-byte mutation of a WAL payload never panics, and one of
    /// a checksummed frame is always torn: CRC-32 catches every
    /// single-byte error in the payload, and a damaged header either
    /// fails the checksum or mis-sizes the frame.
    #[test]
    fn mutated_wal_bytes_never_panic(
        payload in mutated(wal_record(), WalRecord::encode_payload),
        frame in mutated(wal_record(), WalRecord::encode_frame),
    ) {
        let _ = check_payload(&payload);
        prop_assert!(matches!(check_frame(&frame), FrameOutcome::Torn));
        prop_assert!(LARGEST.load(Ordering::Relaxed) <= ALLOC_BOUND);
    }

    /// Length fields claiming up to 4 GiB on a few real bytes are
    /// rejected without reserving what they claim.
    #[test]
    fn oversized_length_fields_do_not_allocate(
        len in 1u32 << 20..=u32::MAX,
        tail in vec(0u8..=255, 0..32),
    ) {
        let mut snap = vec![0u8; 16];
        snap.extend_from_slice(&len.to_le_bytes());
        snap.extend_from_slice(&len.to_le_bytes());
        snap.extend_from_slice(&tail);
        prop_assert!(check_snapshot(&snap).is_err());

        let mut payload = vec![3u8];
        payload.extend_from_slice(&[0u8; 24]);
        payload.extend_from_slice(&len.to_le_bytes());
        payload.extend_from_slice(&tail);
        prop_assert!(check_payload(&payload).is_err());

        let mut frame = len.to_le_bytes().to_vec();
        frame.extend_from_slice(&[0u8; 4]);
        frame.extend_from_slice(&tail);
        prop_assert!(matches!(check_frame(&frame), FrameOutcome::Torn));
        prop_assert!(LARGEST.load(Ordering::Relaxed) <= ALLOC_BOUND);
    }
}
