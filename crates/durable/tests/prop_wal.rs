//! WAL codec property tests: seeded random batch streams through
//! encode → mutilate → scan.
//!
//! The scanner's contract is *longest valid prefix*: whatever happens to
//! the byte stream — a torn tail from a crash mid-`write`, a flipped bit
//! from storage rot — `scan_records` must return exactly the unharmed
//! leading records and report where the damage starts, never a phantom
//! record and never a short read of intact history. These tests check
//! that contract exhaustively over every truncation boundary and every
//! single-byte corruption of the stream, with and without client
//! origins on the records. A record's origin is its trailing field, so
//! a tail that is not exactly one well-formed origin must end the prefix
//! too.

use incgraph_durable::crc::crc32;
use incgraph_durable::{encode_record, encode_record_with, scan_records, Origin, FIRST_SEQ};
use incgraph_graph::rng::SplitMix64;
use incgraph_graph::UpdateBatch;

fn random_batch(rng: &mut SplitMix64) -> UpdateBatch {
    let mut b = UpdateBatch::new();
    let ops = 1 + (rng.next_u64() % 6) as usize;
    for _ in 0..ops {
        let u = (rng.next_u64() % 64) as u32;
        let v = (rng.next_u64() % 64) as u32;
        if rng.next_u64().is_multiple_of(4) {
            b.delete(u, v);
        } else {
            b.insert(u, v, 1 + (rng.next_u64() % 9) as u32);
        }
    }
    b
}

/// Every other record on average carries an origin, with a token of
/// 0–12 bytes.
fn random_origin(rng: &mut SplitMix64) -> Option<Origin> {
    if rng.next_u64().is_multiple_of(2) {
        return None;
    }
    let len = (rng.next_u64() % 13) as usize;
    let token = (0..len)
        .map(|_| char::from(b'a' + (rng.next_u64() % 26) as u8))
        .collect();
    Some(Origin {
        token,
        client_seq: 1 + rng.next_u64() % 1000,
    })
}

/// One decoded record's content.
type Content = (UpdateBatch, Option<Origin>);

/// A random record stream (origins on some records when `origins`) plus
/// the byte offset where each record starts (with one final entry for
/// the end of the stream).
fn random_stream(seed: u64, n: usize, origins: bool) -> (Vec<u8>, Vec<Content>, Vec<usize>) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut body = Vec::new();
    let mut contents = Vec::with_capacity(n);
    let mut offsets = vec![0usize];
    for i in 0..n {
        let batch = random_batch(&mut rng);
        let origin = if origins {
            random_origin(&mut rng)
        } else {
            None
        };
        let seq = FIRST_SEQ + i as u64;
        body.extend_from_slice(&encode_record_with(seq, &batch, origin.as_ref()));
        contents.push((batch, origin));
        offsets.push(body.len());
    }
    (body, contents, offsets)
}

#[test]
fn truncation_at_every_boundary_recovers_longest_valid_prefix() {
    for (seed, origins) in [(1u64, false), (2, false), (3, true), (7, true)] {
        let (body, contents, offsets) = random_stream(seed, 8, origins);
        for cut in 0..=body.len() {
            let scan = scan_records(&body[..cut], FIRST_SEQ);
            // Exactly the records wholly contained in the prefix survive.
            let expected = offsets[1..].iter().filter(|&&end| end <= cut).count();
            assert_eq!(
                scan.records.len(),
                expected,
                "seed {seed}: cut at byte {cut} of {}",
                body.len()
            );
            assert_eq!(scan.valid_len, offsets[expected], "seed {seed}, cut {cut}");
            for (i, rec) in scan.records.iter().enumerate() {
                assert_eq!(rec.seq, FIRST_SEQ + i as u64);
                assert_eq!(rec.offset, offsets[i]);
                let content = (rec.batch.clone(), rec.origin.clone());
                assert_eq!(content, contents[i], "seed {seed}: record {i} mutated");
            }
        }
    }
}

#[test]
fn single_byte_corruption_cuts_the_stream_at_the_damaged_record() {
    for (seed, origins) in [(4u64, false), (5, true), (8, true)] {
        let (body, contents, offsets) = random_stream(seed, 5, origins);
        for pos in 0..body.len() {
            let mut bad = body.clone();
            bad[pos] ^= 0x40;
            // The record the damaged byte falls in.
            let hit = offsets[1..].iter().filter(|&&end| end <= pos).count();
            let scan = scan_records(&bad, FIRST_SEQ);
            assert_eq!(
                scan.records.len(),
                hit,
                "seed {seed}: flip at byte {pos} must kill record {hit}, not survive it"
            );
            assert_eq!(scan.valid_len, offsets[hit], "seed {seed}, flip {pos}");
            for (i, rec) in scan.records.iter().enumerate() {
                let content = (rec.batch.clone(), rec.origin.clone());
                assert_eq!(
                    content, contents[i],
                    "seed {seed}: intact record {i} misread"
                );
            }
        }
    }
}

#[test]
fn empty_and_garbage_streams_scan_to_nothing() {
    let scan = scan_records(&[], FIRST_SEQ);
    assert!(scan.records.is_empty());
    assert_eq!(scan.valid_len, 0);

    let mut rng = SplitMix64::seed_from_u64(6);
    let garbage: Vec<u8> = (0..256).map(|_| rng.next_u64() as u8).collect();
    let scan = scan_records(&garbage, FIRST_SEQ);
    assert!(
        scan.records.is_empty(),
        "random bytes must not decode to a record"
    );
    assert_eq!(scan.valid_len, 0);
}

fn one_batch() -> UpdateBatch {
    let mut b = UpdateBatch::new();
    b.insert(3, 7, 9).delete(1, 2);
    b
}

/// A CRC-clean record at `seq` around an arbitrary `payload`.
fn framed(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut sum = seq.to_le_bytes().to_vec();
    sum.extend_from_slice(payload);
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&crc32(&sum).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[test]
fn a_record_without_an_origin_keeps_its_bytes() {
    // Recorded before records could carry an origin: seq 42, insert
    // (3, 7, 9), delete (1, 2).
    let pinned = "1a0000002a000000000000008811f104020000000003000000070000000900000001\
                  0100000002000000";
    let hex: String = encode_record(42, &one_batch())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(hex, pinned.replace(' ', ""));
    assert_eq!(
        encode_record_with(42, &one_batch(), None),
        encode_record(42, &one_batch())
    );
}

#[test]
fn a_malformed_origin_tail_ends_the_prefix() {
    let batch = one_batch();
    let origin = Origin {
        token: "alice".into(),
        client_seq: 3,
    };
    let good = encode_record_with(1, &batch, Some(&origin));
    let good_payload = &good[16..];
    let bare_len = encode_record(1, &batch).len() - 16;
    let tail = &good_payload[bare_len..];
    assert_eq!(tail.len(), 8 + 2 + 5);
    let scan = scan_records(&good, FIRST_SEQ);
    assert_eq!(scan.records[0].origin.as_ref(), Some(&origin));

    let mut bad_tails: Vec<Vec<u8>> = Vec::new();
    // Every strict prefix of the origin but the empty one.
    bad_tails.extend((1..tail.len()).map(|cut| tail[..cut].to_vec()));
    // One byte too many.
    bad_tails.push([tail, &[b'x'][..]].concat());
    // A token length past the payload's end, or short of it.
    for len in [6u16, 4, 0] {
        let mut t = tail.to_vec();
        t[8..10].copy_from_slice(&len.to_le_bytes());
        bad_tails.push(t);
    }
    // A token that is not UTF-8.
    let mut t = tail.to_vec();
    t[10] = 0xff;
    bad_tails.push(t);
    // Two origins.
    bad_tails.push([tail, tail].concat());
    for bad in bad_tails {
        let payload = [&good_payload[..bare_len], &bad[..]].concat();
        let mut body = good.clone();
        body.extend_from_slice(&framed(2, &payload));
        body.extend_from_slice(&encode_record(3, &batch));
        let scan = scan_records(&body, FIRST_SEQ);
        assert_eq!(scan.records.len(), 1, "tail {bad:02x?} was accepted");
        assert_eq!(scan.valid_len, good.len());
    }
}

#[test]
fn a_token_of_maximum_length_round_trips() {
    let origin = Origin {
        token: "t".repeat(u16::MAX as usize),
        client_seq: u64::MAX,
    };
    let record = encode_record_with(1, &one_batch(), Some(&origin));
    let scan = scan_records(&record, FIRST_SEQ);
    assert_eq!(scan.valid_len, record.len());
    assert_eq!(scan.records[0].origin.as_ref(), Some(&origin));
    assert_eq!(scan.records[0].encode(), record);
}
