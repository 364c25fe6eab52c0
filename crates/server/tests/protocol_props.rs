//! Property-based tests on the wire protocol codec:
//!
//! * every well-formed request and every result type round-trips through
//!   encode → decode → encode **byte-identically** (and digest-identically);
//! * error, overloaded and stats frames round-trip; the reserved error code
//!   byte 4 decodes to a typed, non-fatal error;
//! * arbitrary bytes — raw, or wrapped in a well-formed header — never
//!   panic the decoders, they return typed errors;
//! * the incremental frame reader never panics on arbitrary byte streams.

use std::io::Cursor;

use proptest::collection::vec;
use proptest::prelude::*;

use server::framing::{FrameReader, ReadOutcome};
use server::protocol::{
    decode_header, decode_request, decode_response, encode_request, encode_response,
    is_framing_fatal, ProtocolError, QueryRequest, Request, Response, StatsSnapshot, WireError,
    WireErrorCode, HEADER_LEN, MAGIC, VERSION,
};
use tadoc::apps::{Task, TaskConfig};
use tadoc::results::{
    AnalyticsOutput, InvertedIndexResult, RankedInvertedIndexResult, SequenceCountResult,
    SortResult, TermVectorResult, WordCountResult,
};

/// Sorts by key and deduplicates, producing the strictly-ascending columns
/// the ordered result types require.
fn sorted_dedup(mut pairs: Vec<(u32, u64)>) -> (Vec<u32>, Vec<u64>) {
    pairs.sort_by_key(|&(k, _)| k);
    pairs.dedup_by_key(|&mut (k, _)| k);
    pairs.into_iter().unzip()
}

/// Chunks a flat stream into strictly-ascending, deduplicated width-`l`
/// key rows (flattened back out), plus derived counts.
fn sorted_rows(tokens: &[u32], l: usize) -> (Vec<u32>, Vec<u64>) {
    let mut rows: Vec<Vec<u32>> = tokens.chunks_exact(l).map(<[u32]>::to_vec).collect();
    rows.sort();
    rows.dedup();
    let counts = (0..rows.len()).map(|i| i as u64 + 1).collect();
    (rows.concat(), counts)
}

/// Encode → decode → encode must reproduce the same bytes and the same
/// digest.
fn assert_round_trips(out: AnalyticsOutput) {
    let digest = out.digest();
    let bytes = encode_response(&Response::Result(out));
    let (decoded, consumed) = decode_response(&bytes).expect("decode own encoding");
    assert_eq!(consumed, bytes.len());
    let Response::Result(back) = decoded else {
        panic!("result frame decoded as a different response kind");
    };
    assert_eq!(back.digest(), digest);
    assert_eq!(
        encode_response(&Response::Result(back)),
        bytes,
        "re-encoding is not byte-identical"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn query_requests_round_trip_byte_identically(
        tag in 0usize..6,
        l in 1usize..9,
        dl in 0u64..5000,
    ) {
        let req = Request::Query(QueryRequest {
            task: Task::ALL[tag],
            cfg: TaskConfig { sequence_length: l },
            // Odd draws carry a deadline; `dl == 1` exercises the legal
            // "already expired in 1ms" near-zero edge.
            deadline_ms: (dl % 2 == 1).then_some(dl),
        });
        let bytes = encode_request(&req);
        let (decoded, consumed) = decode_request(&bytes).expect("decode own encoding");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(&decoded, &req);
        prop_assert_eq!(encode_request(&decoded), bytes);
    }

    #[test]
    fn word_count_and_sort_round_trip(pairs in vec((0u32..1_000_000, 1u64..1_000_000), 0..40)) {
        let (keys, counts) = sorted_dedup(pairs.clone());
        assert_round_trips(AnalyticsOutput::WordCount(WordCountResult::from_sorted_columns(
            keys, counts,
        )));
        // Sort carries rank order, not key order: arbitrary pairs are legal.
        assert_round_trips(AnalyticsOutput::Sort(SortResult { ranked: pairs }));
    }

    #[test]
    fn inverted_index_round_trips(rows in vec((0u32..1_000_000, 0usize..4), 0..30)) {
        let mut rows = rows;
        rows.sort_by_key(|&(k, _)| k);
        rows.dedup_by_key(|&mut (k, _)| k);
        let keys: Vec<u32> = rows.iter().map(|&(k, _)| k).collect();
        let mut offsets = vec![0usize];
        let mut files = Vec::new();
        for &(k, n) in &rows {
            files.extend((0..n as u32).map(|i| k.wrapping_add(i)));
            offsets.push(files.len());
        }
        assert_round_trips(AnalyticsOutput::InvertedIndex(
            InvertedIndexResult::from_sorted_parts(keys, offsets, files),
        ));
    }

    #[test]
    fn term_vector_round_trips(raw in vec(vec((0u32..1_000, 1u64..1_000), 0..6), 0..5)) {
        let rows: Vec<Vec<(u32, u64)>> = raw
            .into_iter()
            .map(|row| {
                let (words, counts) = sorted_dedup(row);
                words.into_iter().zip(counts).collect()
            })
            .collect();
        assert_round_trips(AnalyticsOutput::TermVector(TermVectorResult::from_rows(rows)));
    }

    #[test]
    fn sequence_results_round_trip(tokens in vec(0u32..50, 0..60), l in 1usize..5) {
        let (keys, counts) = sorted_rows(&tokens, l);
        assert_round_trips(AnalyticsOutput::SequenceCount(
            SequenceCountResult::from_sorted_columns(l, keys.clone(), counts.clone()),
        ));

        // The same key rows as a ranked inverted index, with derived
        // postings (two per key row).
        let n = counts.len();
        let offsets: Vec<usize> = (0..=n).map(|i| i * 2).collect();
        let postings: Vec<(u32, u64)> = (0..2 * n).map(|i| (i as u32, i as u64 + 1)).collect();
        assert_round_trips(AnalyticsOutput::RankedInvertedIndex(
            RankedInvertedIndexResult::from_sorted_parts(l, keys, offsets, postings),
        ));
    }

    #[test]
    fn control_responses_round_trip(
        raw_msg in vec(32u8..127, 0..50),
        a in 0u64..1_000_000,
        b in 0u32..1_000_000,
    ) {
        let msg = String::from_utf8_lossy(&raw_msg).into_owned();
        let codes = [
            WireErrorCode::Config,
            WireErrorCode::InvalidArchive,
            WireErrorCode::WorkerPanicked,
            WireErrorCode::DeadlineExceeded,
            WireErrorCode::Cancelled,
            WireErrorCode::Protocol,
            WireErrorCode::ShuttingDown,
            WireErrorCode::Internal,
        ];
        let mut all = vec![
            Response::Overloaded { queue_depth: b, capacity: b.wrapping_add(1) },
            Response::Stats(StatsSnapshot {
                accepted_connections: a,
                queries_answered: a.wrapping_mul(3),
                shed: a / 2,
                refused: a / 3,
                max_queue_depth: a / 5,
                batches: a / 7,
                batched_queries: a / 11,
                protocol_errors: a / 13,
            }),
            Response::ShutdownAck,
        ];
        all.extend(codes.map(|code| Response::Error(WireError::new(code, msg.clone()))));
        for resp in all {
            let bytes = encode_response(&resp);
            let (decoded, consumed) = decode_response(&bytes).expect("decode own encoding");
            prop_assert_eq!(consumed, bytes.len());
            prop_assert_eq!(&decoded, &resp);
            prop_assert_eq!(encode_response(&decoded), bytes);
        }
    }

    // Wire code 4 is reserved: whatever message it carries, the frame is a
    // typed non-fatal error, and the frame behind it still decodes.
    #[test]
    fn reserved_error_code_keeps_the_stream_serving(raw_msg in vec(32u8..127, 0..50)) {
        let msg = String::from_utf8_lossy(&raw_msg).into_owned();
        let mut stream = encode_response(&Response::Error(WireError::new(
            WireErrorCode::Internal,
            msg,
        )));
        stream[HEADER_LEN] = 4;
        stream.extend_from_slice(&encode_response(&Response::ShutdownAck));

        let err = decode_response(&stream).expect_err("code 4 is reserved");
        prop_assert!(matches!(err, ProtocolError::Malformed(_)));
        prop_assert!(!is_framing_fatal(&err));
        let (_, payload_len) = decode_header(&stream).expect("header stays parseable");
        let (next, _) = decode_response(&stream[HEADER_LEN + payload_len..])
            .expect("the following frame decodes");
        prop_assert_eq!(next, Response::ShutdownAck);
    }

    // Raw fuzz: arbitrary bytes must yield `Ok` or a typed error from the
    // decoders — never a panic.
    #[test]
    fn random_bytes_never_panic_the_decoders(data in vec(0u8..=255, 0..64)) {
        drop(decode_request(&data));
        drop(decode_response(&data));
    }

    // Framed fuzz: a well-formed header around arbitrary payload bytes
    // drives the payload parsers deep — still no panics, and a decoded
    // frame must account for exactly the declared length.
    #[test]
    fn random_payloads_under_a_valid_header_never_panic(
        kind in 0u8..=255,
        payload in vec(0u8..=255, 0..96),
    ) {
        let mut frame = Vec::with_capacity(10 + payload.len());
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.push(kind);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        if let Ok((_, consumed)) = decode_request(&frame) {
            prop_assert_eq!(consumed, frame.len());
        }
        if let Ok((_, consumed)) = decode_response(&frame) {
            prop_assert_eq!(consumed, frame.len());
        }
    }

    // The incremental frame reader never panics on arbitrary byte
    // streams: every outcome is a frame, a typed error, or end-of-stream.
    #[test]
    fn frame_reader_never_panics_on_random_streams(data in vec(0u8..=255, 0..256)) {
        let mut cursor = Cursor::new(data.clone());
        let mut reader = FrameReader::new();
        for _ in 0..data.len() + 2 {
            match reader.read_frame(&mut cursor) {
                Ok(ReadOutcome::Frame { .. }) | Ok(ReadOutcome::Idle) => continue,
                Ok(ReadOutcome::Closed) | Err(_) => break,
            }
        }
    }
}
