//! Property-based tests on the wire protocol codec:
//!
//! * every well-formed request and every result type round-trips through
//!   encode → decode → encode **byte-identically** (and digest-identically);
//! * the single-pass encoder writes exactly the bytes of a plain
//!   element-by-element reference encoder, every run at the narrowest
//!   width, under a header that declares exactly the payload's length, and
//!   no frame is longer than its fixed-width (version 1) layout plus one
//!   width byte per run, nor than its table's in-memory bytes plus the
//!   results cache's `FRAME_HEADROOM` — also for values at every width
//!   boundary;
//! * every structural defect a result payload can carry — descending keys,
//!   bad offsets, short columns, trailing bytes, an unsorted posting list
//!   or term-vector row, a run width that is not 1, 2, 4 or 8, too wide for its column or
//!   wider than its values need — is a typed `Malformed` error that names
//!   the defect;
//! * error, overloaded and stats frames round-trip; the reserved error code
//!   byte 4 decodes to a typed, non-fatal error;
//! * arbitrary bytes — raw, or wrapped in a well-formed header — never
//!   panic the decoders, they return typed errors;
//! * the incremental frame reader never panics on arbitrary byte streams.

use std::io::Cursor;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use server::framing::{FrameReader, ReadOutcome};
use server::protocol::{
    decode_header, decode_request, decode_response, encode_request, encode_response,
    is_framing_fatal, ProtocolError, QueryRequest, Request, Response, StatsSnapshot, WireError,
    WireErrorCode, HEADER_LEN, MAGIC, MAX_PAYLOAD_LEN, VERSION,
};
use tadoc::apps::{Task, TaskConfig};
use tadoc::fine_grained::FRAME_HEADROOM;
use tadoc::results::{rank, AnalyticsOutput, Column, CountTable, PostingTable};

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

/// The narrowest of 1, 2, 4 and 8 bytes that holds `max`: its significant
/// bytes, rounded up to a power of two.
fn narrowest(max: u64) -> usize {
    let bytes = (64 - max.leading_zeros() as usize).div_ceil(8);
    bytes.max(1).next_power_of_two()
}

/// A result payload assembled one field at a time — the reference the
/// encoder is compared with, and the way the malformed-payload cases get
/// columns no result type would let them build.
#[derive(Default)]
struct RawPayload(Vec<u8>);

impl RawPayload {
    fn tagged(tag: u8) -> Self {
        Self(vec![tag])
    }

    fn bytes(mut self, bytes: &[u8]) -> Self {
        self.0.extend_from_slice(bytes);
        self
    }

    fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// A run at `width`: the width byte, then the low `width` bytes of each
    /// value (zero-extended past 8).
    fn run_at(mut self, width: usize, vs: impl IntoIterator<Item = u64>) -> Self {
        self.0.push(width as u8);
        for v in vs {
            self.0
                .extend_from_slice(&u128::from(v).to_le_bytes()[..width]);
        }
        self
    }

    /// A run at the narrowest width its values allow.
    fn run(self, vs: impl IntoIterator<Item = u64>) -> Self {
        let vs: Vec<u64> = vs.into_iter().collect();
        let width = narrowest(vs.iter().copied().max().unwrap_or(0));
        self.run_at(width, vs)
    }

    fn u32s(self, vs: impl IntoIterator<Item = u32>) -> Self {
        self.run(vs.into_iter().map(u64::from))
    }

    fn u64s(self, vs: impl IntoIterator<Item = u64>) -> Self {
        self.run(vs)
    }

    fn offsets(self, offsets: &[u32]) -> Self {
        self.u32s(offsets.iter().copied())
    }

    fn pairs(self, pairs: &[(u32, u64)]) -> Self {
        self.u32s(pairs.iter().map(|p| p.0))
            .u64s(pairs.iter().map(|p| p.1))
    }

    /// The payload under a header of frame `kind` declaring its length.
    fn framed_as(self, kind: u8) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.push(kind);
        frame.extend_from_slice(&(self.0.len() as u32).to_le_bytes());
        frame.extend_from_slice(&self.0);
        frame
    }

    /// The payload under a result-frame header.
    fn framed(self) -> Vec<u8> {
        self.framed_as(0x81)
    }
}

/// The length of `out`'s frame in the fixed-width layout of protocol
/// version 1 — every `u32` in 4 bytes, every count and offset in 8 — and
/// the number of runs its columns take under version 2.
fn v1_len_and_runs(out: &AnalyticsOutput) -> (usize, usize) {
    let l_len = if out.sequence_length().is_some() {
        8
    } else {
        0
    };
    let (mut len, mut runs) = (HEADER_LEN + 1 + l_len + 8, 0);
    let columns = out.columns().1;
    // A posting table's offsets are the `u32` column before its values.
    let posting = matches!(
        out,
        AnalyticsOutput::InvertedIndex(_)
            | AnalyticsOutput::TermVector(_)
            | AnalyticsOutput::RankedInvertedIndex(_)
    );
    let offsets_at = posting.then(|| columns.len() - 2);
    for (i, column) in columns.into_iter().enumerate() {
        let (bytes, column_runs) = match column {
            Column::U32(v) if Some(i) == offsets_at => (8 * v.len(), 1),
            Column::U32(v) => (4 * v.len(), 1),
            Column::U64(v) => (8 * v.len(), 1),
            Column::Pairs(v) => (12 * v.len(), 2),
        };
        len += bytes;
        runs += column_runs;
    }
    (len, runs)
}

/// The wire layout of `out`, written the plain way: each arm writes its
/// task's columns by hand, not through `AnalyticsOutput::columns`.
fn reference_frame(out: &AnalyticsOutput) -> Vec<u8> {
    match out {
        AnalyticsOutput::WordCount(t) => RawPayload::tagged(1)
            .u64(t.len() as u64)
            .u32s(t.iter().map(|(key, _)| key[0]))
            .u64s(t.counts().iter().copied()),
        AnalyticsOutput::Sort(ranked) => {
            RawPayload::tagged(2).u64(ranked.len() as u64).pairs(ranked)
        }
        AnalyticsOutput::InvertedIndex(t) => RawPayload::tagged(3)
            .u64(t.len() as u64)
            .u32s(t.iter().flat_map(|(key, _)| key.iter().copied()))
            .offsets(t.csr().offsets())
            .u32s(t.csr().data().iter().copied()),
        AnalyticsOutput::TermVector(t) => {
            let mut offsets = vec![0u32];
            for row in t.csr().rows() {
                offsets.push(offsets[offsets.len() - 1] + row.len() as u32);
            }
            let terms: Vec<(u32, u64)> = t.csr().rows().flatten().copied().collect();
            RawPayload::tagged(4)
                .u64(t.len() as u64)
                .offsets(&offsets)
                .pairs(&terms)
        }
        AnalyticsOutput::SequenceCount(t) => RawPayload::tagged(5)
            .u64(t.width() as u64)
            .u64(t.len() as u64)
            .u32s(t.iter().flat_map(|(key, _)| key.iter().copied()))
            .u64s(t.iter().map(|(_, count)| count)),
        AnalyticsOutput::RankedInvertedIndex(t) => RawPayload::tagged(6)
            .u64(t.width() as u64)
            .u64(t.len() as u64)
            .u32s(t.iter().flat_map(|(key, _)| key.iter().copied()))
            .offsets(t.csr().offsets())
            .pairs(t.csr().data()),
    }
    .framed()
}

/// The encoder must write the reference bytes — every run at the
/// narrowest width — under a header declaring exactly their length, in at
/// most one byte per run more than the fixed-width layout and in no more
/// than the room a results-cache entry keeps for the table's frame, and
/// encode → decode → encode must reproduce the same bytes and the same
/// digest.
fn assert_round_trips(out: AnalyticsOutput) {
    let digest = out.digest();
    let reference = reference_frame(&out);
    let (v1_len, runs) = v1_len_and_runs(&out);
    let room = out.heap_bytes() + FRAME_HEADROOM;
    let bytes = encode_response(&Response::Result(Arc::new(out)));
    assert_eq!(bytes, reference, "the encoder left the reference layout");
    assert!(
        bytes.len() <= v1_len + runs,
        "{} bytes against a {v1_len}-byte fixed-width frame of {runs} runs",
        bytes.len()
    );
    assert!(
        bytes.len() <= room,
        "{} bytes against a cache entry's {room}-byte frame room",
        bytes.len()
    );
    let (_, declared) = decode_header(&bytes).expect("own header");
    assert_eq!(
        declared,
        bytes.len() - HEADER_LEN,
        "computed length != encoded length"
    );
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
        let (keys, counts) = sorted_dedup(pairs);
        let words = CountTable::from_sorted_columns(1, keys, counts);
        // Sort carries the same words in rank order, not key order.
        assert_round_trips(AnalyticsOutput::Sort(rank(&words)));
        assert_round_trips(AnalyticsOutput::WordCount(words));
    }

    #[test]
    fn inverted_index_round_trips(rows in vec((0u32..1_000_000, 0usize..4), 0..30)) {
        let mut rows = rows;
        rows.sort_by_key(|&(k, _)| k);
        rows.dedup_by_key(|&mut (k, _)| k);
        let keys: Vec<u32> = rows.iter().map(|&(k, _)| k).collect();
        let mut offsets = vec![0u32];
        let mut files = Vec::new();
        for &(k, n) in &rows {
            files.extend((0..n as u32).map(|i| k.wrapping_add(i)));
            offsets.push(files.len() as u32);
        }
        assert_round_trips(AnalyticsOutput::InvertedIndex(
            PostingTable::from_sorted_parts(1, keys, offsets, files),
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
        assert_round_trips(AnalyticsOutput::TermVector(PostingTable::from_rows(rows)));
    }

    #[test]
    fn sequence_results_round_trip(tokens in vec(0u32..50, 0..60), l in 1usize..5) {
        let (keys, counts) = sorted_rows(&tokens, l);
        assert_round_trips(AnalyticsOutput::SequenceCount(
            CountTable::from_sorted_columns(l, keys.clone(), counts.clone()),
        ));

        // The same key rows as a ranked inverted index, with derived
        // postings in rank order: two per key row, tied on their count,
        // so ascending files break the tie.
        let n = counts.len();
        let offsets: Vec<u32> = (0..=n as u32).map(|i| i * 2).collect();
        let postings: Vec<(u32, u64)> = (0..2 * n).map(|i| (i as u32, (n - i / 2) as u64)).collect();
        assert_round_trips(AnalyticsOutput::RankedInvertedIndex(
            PostingTable::from_sorted_parts(l, keys, offsets, postings),
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

/// The six tables `protocol::tests::responses_round_trip_byte_identically`
/// pins, the two sequence tables at `l` = 1 (the word tables' shape under
/// their own tags), and the empty table of every variant, through the same
/// checks as the arbitrary ones.
#[test]
fn pinned_sample_frames_keep_their_bytes() {
    let samples = [
        AnalyticsOutput::WordCount(CountTable::from_sorted_columns(
            1,
            vec![1, 5, 9],
            vec![10, 2, 7],
        )),
        AnalyticsOutput::Sort(vec![(1, 10), (9, 7), (5, 2)]),
        AnalyticsOutput::InvertedIndex(PostingTable::from_sorted_parts(
            1,
            vec![2, 4],
            vec![0, 2, 3],
            vec![0, 1, 1],
        )),
        AnalyticsOutput::TermVector(PostingTable::from_rows(vec![
            vec![(1, 2), (3, 1)],
            vec![],
            vec![(2, 5)],
        ])),
        AnalyticsOutput::SequenceCount(CountTable::from_sorted_columns(
            2,
            vec![1, 2, 1, 3],
            vec![4, 1],
        )),
        AnalyticsOutput::RankedInvertedIndex(PostingTable::from_sorted_parts(
            2,
            vec![1, 2, 1, 3],
            vec![0, 1, 3],
            vec![(0, 9), (1, 3), (0, 1)],
        )),
        AnalyticsOutput::SequenceCount(CountTable::from_sorted_columns(
            1,
            vec![1, 5, 9],
            vec![10, 2, 7],
        )),
        AnalyticsOutput::RankedInvertedIndex(PostingTable::from_sorted_parts(
            1,
            vec![2, 4],
            vec![0, 2, 3],
            vec![(1, 9), (0, 3), (1, 1)],
        )),
    ];
    // The empty table of every variant: a row count of 0 and nothing but
    // the closing offset of the CSR columns.
    let empties = [
        AnalyticsOutput::WordCount(CountTable::from_sorted_columns(1, Vec::new(), Vec::new())),
        AnalyticsOutput::Sort(Vec::new()),
        AnalyticsOutput::InvertedIndex(PostingTable::from_sorted_parts(
            1,
            Vec::new(),
            vec![0],
            Vec::new(),
        )),
        AnalyticsOutput::TermVector(PostingTable::from_rows(Vec::new())),
        AnalyticsOutput::TermVector(PostingTable::from_rows(vec![Vec::new(); 3])),
    ]
    .into_iter()
    .chain([1, 3, 5].into_iter().flat_map(|l| {
        [
            AnalyticsOutput::SequenceCount(CountTable::from_sorted_columns(
                l,
                Vec::new(),
                Vec::new(),
            )),
            AnalyticsOutput::RankedInvertedIndex(PostingTable::from_sorted_parts(
                l,
                Vec::new(),
                vec![0],
                Vec::new(),
            )),
        ]
    }));
    for out in samples.into_iter().chain(empties) {
        assert_round_trips(out);
    }
    // One of them spelled out, so the layout itself is on record.
    let frame = encode_response(&Response::Result(Arc::new(AnalyticsOutput::Sort(vec![
        (1, 10),
        (9, 7),
    ]))));
    let mut want = b"TDQP\x02\x81".to_vec();
    want.extend_from_slice(&15u32.to_le_bytes());
    want.push(2);
    want.extend_from_slice(&2u64.to_le_bytes());
    // The ids run, then the counts run: a width byte of 1, then one byte
    // per value.
    want.extend_from_slice(&[1, 1, 9]);
    want.extend_from_slice(&[1, 10, 7]);
    assert_eq!(frame, want);
}

/// Every structural defect is a typed `Malformed` error that names it and
/// leaves the stream in sync — never a panic, never a table that breaks an
/// invariant.  Each case is a valid payload with one defect, and the
/// message must name that defect: a payload that fails for any other
/// reason would test nothing.
#[test]
fn malformed_result_payloads_are_rejected() {
    let valid_word_count = || RawPayload::tagged(1).u64(2).u32s([1, 5]).u64s([1, 1]);
    assert!(decode_response(&valid_word_count().framed()).is_ok());
    let cases: Vec<(&str, &str, Vec<u8>)> = vec![
        (
            "wordCount: descending keys",
            "keys not strictly ascending",
            RawPayload::tagged(1)
                .u64(2)
                .u32s([5, 1])
                .u64s([1, 1])
                .framed(),
        ),
        (
            "wordCount: repeated key",
            "keys not strictly ascending",
            RawPayload::tagged(1)
                .u64(2)
                .u32s([5, 5])
                .u64s([1, 1])
                .framed(),
        ),
        (
            "wordCount: short value column",
            "payload ended early",
            RawPayload::tagged(1).u64(2).u32s([1, 5]).u64s([1]).framed(),
        ),
        (
            "sort: short count column",
            "payload ended early",
            RawPayload::tagged(2).u64(2).u32s([1, 5]).u64s([1]).framed(),
        ),
        (
            "invertedIndex: descending keys",
            "keys not strictly ascending",
            RawPayload::tagged(3)
                .u64(2)
                .u32s([4, 2])
                .offsets(&[0, 1, 2])
                .u32s([0, 1])
                .framed(),
        ),
        (
            "invertedIndex: offsets start past 0",
            "offsets do not start at 0",
            RawPayload::tagged(3)
                .u64(2)
                .u32s([2, 4])
                .offsets(&[1, 1, 2])
                .u32s([0, 1])
                .framed(),
        ),
        (
            "invertedIndex: offsets decrease",
            "offsets decrease",
            RawPayload::tagged(3)
                .u64(2)
                .u32s([2, 4])
                .offsets(&[0, 2, 1])
                .u32s([0, 1])
                .framed(),
        ),
        (
            "invertedIndex: offsets end past the posting column",
            "payload ended early",
            RawPayload::tagged(3)
                .u64(2)
                .u32s([2, 4])
                .offsets(&[0, 1, 3])
                .u32s([0, 1])
                .framed(),
        ),
        // The postings' width byte (1) is read as the closing offset, so
        // the offsets close on 1 while the posting run says 2.
        (
            "invertedIndex: offsets column one entry short",
            "offsets decrease",
            RawPayload::tagged(3)
                .u64(2)
                .u32s([2, 4])
                .offsets(&[0, 2])
                .u32s([0, 1])
                .framed(),
        ),
        (
            "invertedIndex: trailing bytes",
            "1 trailing bytes",
            RawPayload::tagged(3)
                .u64(1)
                .u32s([2])
                .offsets(&[0, 1])
                .u32s([0, 9])
                .framed(),
        ),
        (
            "invertedIndex: repeated file in a posting list",
            "row 0 not ascending",
            RawPayload::tagged(3)
                .u64(1)
                .u32s([2])
                .offsets(&[0, 2])
                .u32s([1, 1])
                .framed(),
        ),
        (
            "invertedIndex: descending posting list",
            "row 1 not ascending",
            RawPayload::tagged(3)
                .u64(2)
                .u32s([2, 4])
                .offsets(&[0, 1, 3])
                .u32s([0, 3, 1])
                .framed(),
        ),
        (
            "termVector: unsorted row",
            "row 0 not ascending",
            RawPayload::tagged(4)
                .u64(2)
                .offsets(&[0, 2, 3])
                .pairs(&[(3, 1), (1, 2), (2, 5)])
                .framed(),
        ),
        (
            "termVector: repeated word in a row",
            "row 0 not ascending",
            RawPayload::tagged(4)
                .u64(1)
                .offsets(&[0, 2])
                .pairs(&[(3, 1), (3, 2)])
                .framed(),
        ),
        (
            "termVector: offsets decrease",
            "offsets decrease",
            RawPayload::tagged(4)
                .u64(2)
                .offsets(&[0, 2, 1])
                .pairs(&[(1, 1), (2, 2)])
                .framed(),
        ),
        (
            "termVector: short count column",
            "payload ended early",
            RawPayload::tagged(4)
                .u64(1)
                .offsets(&[0, 2])
                .u32s([1, 2])
                .u64s([1])
                .framed(),
        ),
        (
            "sequenceCount: zero length",
            "zero sequence length",
            RawPayload::tagged(5).u64(0).u64(0).framed(),
        ),
        (
            "sequenceCount: descending rows",
            "keys not strictly ascending",
            RawPayload::tagged(5)
                .u64(2)
                .u64(2)
                .u32s([1, 3, 1, 2])
                .u64s([4, 1])
                .framed(),
        ),
        (
            "sequenceCount: count beyond the payload",
            "column length overflows",
            RawPayload::tagged(5)
                .u64(2)
                .u64(u64::MAX)
                .u32s([1, 2])
                .u64s([4])
                .framed(),
        ),
        (
            "rankedInvertedIndex: descending rows",
            "keys not strictly ascending",
            RawPayload::tagged(6)
                .u64(2)
                .u64(2)
                .u32s([1, 3, 1, 2])
                .offsets(&[0, 1, 2])
                .pairs(&[(0, 9), (1, 3)])
                .framed(),
        ),
        (
            "rankedInvertedIndex: offsets decrease",
            "offsets decrease",
            RawPayload::tagged(6)
                .u64(2)
                .u64(2)
                .u32s([1, 2, 1, 3])
                .offsets(&[0, 2, 1])
                .pairs(&[(0, 9), (1, 3)])
                .framed(),
        ),
        (
            "rankedInvertedIndex: short count column",
            "payload ended early",
            RawPayload::tagged(6)
                .u64(2)
                .u64(1)
                .u32s([1, 2])
                .offsets(&[0, 2])
                .u32s([0, 1])
                .u64s([9])
                .framed(),
        ),
        (
            "rankedInvertedIndex: trailing bytes",
            "2 trailing bytes",
            RawPayload::tagged(6)
                .u64(2)
                .u64(1)
                .u32s([1, 2])
                .offsets(&[0, 1])
                .pairs(&[(0, 9)])
                .u32s([7])
                .framed(),
        ),
        // A width byte follows the row count, so the decoder reaches the
        // `rows + 1` offsets count and finds it overflowing.
        (
            "termVector: row count u64::MAX, so rows + 1 offsets overflow",
            "column length overflows",
            RawPayload::tagged(4).u64(u64::MAX).bytes(&[1]).framed(),
        ),
        // With 0 rows, `rows × l` key words do not overflow; a single key
        // row of `l` words (4·l bytes) does, and must still be refused.
        (
            "sequenceCount: l = 2^62 with 0 rows",
            "sequence length overflows",
            RawPayload::tagged(5).u64(1 << 62).u64(0).framed(),
        ),
        (
            "rankedInvertedIndex: l = 2^62 with 0 rows",
            "sequence length overflows",
            RawPayload::tagged(6)
                .u64(1 << 62)
                .u64(0)
                .u32s([])
                .offsets(&[0])
                .framed(),
        ),
        (
            "unknown result tag",
            "unknown task tag 9",
            RawPayload::tagged(9).u64(0).framed(),
        ),
        (
            "empty payload",
            "payload ended early",
            RawPayload::default().framed(),
        ),
        // Run widths.
        (
            "wordCount: key run of width 0",
            "run width 0 is not 1, 2, 4 or 8",
            RawPayload::tagged(1)
                .u64(2)
                .run_at(0, [1, 5])
                .u64s([1, 1])
                .framed(),
        ),
        (
            "wordCount: count run of width 3",
            "run width 3 is not 1, 2, 4 or 8",
            RawPayload::tagged(1)
                .u64(2)
                .u32s([1, 5])
                .run_at(3, [1, 1])
                .framed(),
        ),
        (
            "sort: count run of width 16",
            "run width 16 is not 1, 2, 4 or 8",
            RawPayload::tagged(2)
                .u64(1)
                .u32s([1])
                .run_at(16, [1])
                .framed(),
        ),
        (
            "wordCount: key run of width 8 on a u32 column",
            "run width 8 exceeds the column's 4-byte values",
            RawPayload::tagged(1)
                .u64(2)
                .run_at(8, [1, 5])
                .u64s([1, 1])
                .framed(),
        ),
        (
            "termVector: word-id run of width 8 on a u32 column",
            "run width 8 exceeds the column's 4-byte values",
            RawPayload::tagged(4)
                .u64(1)
                .offsets(&[0, 1])
                .run_at(8, [3])
                .u64s([1])
                .framed(),
        ),
        (
            "wordCount: count run wider than its values need",
            "run width 2 where the values fit 1",
            RawPayload::tagged(1)
                .u64(2)
                .u32s([1, 5])
                .run_at(2, [1, 0xff])
                .framed(),
        ),
        (
            "invertedIndex: offsets run wider than its last offset needs",
            "run width 4 where the values fit 2",
            RawPayload::tagged(3)
                .u64(1)
                .u32s([2])
                .run_at(4, [0, 0x100])
                .u32s(0..0x100)
                .framed(),
        ),
        (
            "sort: empty count run of width 8",
            "run width 8 where the values fit 1",
            RawPayload::tagged(2).u64(0).u32s([]).run_at(8, []).framed(),
        ),
        (
            "sequenceCount: key run whose bytes run past the payload",
            "payload ended early",
            RawPayload::tagged(5)
                .u64(2)
                .u64(2)
                .run_at(4, [1, 2])
                .framed(),
        ),
        // The stats reply: eight counters as one run.
        (
            "stats reply: counter run of width 3",
            "stats reply: run width 3 is not 1, 2, 4 or 8",
            RawPayload::default().run_at(3, [0; 8]).framed_as(0x84),
        ),
        (
            "stats reply: counter run wider than its values need",
            "stats reply: run width 8 where the values fit 2",
            RawPayload::default()
                .run_at(8, [7, 0x100, 0, 0, 0, 0, 0, 0])
                .framed_as(0x84),
        ),
        (
            "stats reply: seven counters",
            "payload ended early",
            RawPayload::default().u64s([1; 7]).framed_as(0x84),
        ),
        (
            "stats reply: nine counters",
            "1 trailing bytes",
            RawPayload::default().u64s([1; 9]).framed_as(0x84),
        ),
    ];
    for (what, defect, frame) in cases {
        let err = decode_response(&frame).expect_err(what);
        match &err {
            ProtocolError::Malformed(why) => {
                assert!(
                    why.contains(defect),
                    "{what}: {why:?} does not say {defect:?}"
                )
            }
            other => panic!("{what}: expected a malformed payload, got {other:?}"),
        }
        assert!(
            !is_framing_fatal(&err),
            "{what}: the stream must stay in sync"
        );
    }
}

/// A ranked posting list and sort's rows travel in rank order (count
/// descending, then id ascending): the row `[(1, 1), (2, 5)]` climbs, and
/// `[(2, 5), (1, 5)]` breaks a tie the wrong way, so neither decodes.
#[test]
fn unranked_rows_are_rejected() {
    for (row, defect) in [([(1, 1), (2, 5)], "climbs"), ([(2, 5), (1, 5)], "tie")] {
        let ranked = RawPayload::tagged(6)
            .u64(1)
            .u64(1)
            .u32s([3])
            .offsets(&[0, 2])
            .pairs(&row)
            .framed();
        let sort = RawPayload::tagged(2).u64(2).pairs(&row).framed();
        for (what, frame) in [("rankedInvertedIndex", ranked), ("sort", sort)] {
            match decode_response(&frame) {
                Err(ProtocolError::Malformed(why)) => assert_eq!(
                    why,
                    format!("{what}: row 0 not in rank order"),
                    "{what}, {defect}"
                ),
                other => panic!("{what}, {defect}: expected a malformed payload, got {other:?}"),
            }
        }
    }
}

/// A header may declare nothing or the cap; one byte more is refused from
/// the header alone.
#[test]
fn declared_lengths_at_the_edges() {
    let mut header = encode_response(&Response::ShutdownAck);
    assert_eq!(decode_header(&header).expect("empty payload"), (0x85, 0));
    header[6..10].copy_from_slice(&MAX_PAYLOAD_LEN.to_le_bytes());
    assert_eq!(
        decode_header(&header).expect("the cap itself is legal"),
        (0x85, MAX_PAYLOAD_LEN as usize)
    );
    header[6..10].copy_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
    assert_eq!(
        decode_header(&header),
        Err(ProtocolError::Oversized {
            declared: MAX_PAYLOAD_LEN + 1
        })
    );
}

/// Values at every width boundary, in every column kind: each table
/// round-trips exactly with its digest, at the narrowest width per run,
/// in at most one byte per run more than its fixed-width layout and within
/// its cache entry's frame room ([`assert_round_trips`]).
#[test]
fn values_at_every_width_boundary_round_trip_at_the_narrowest_width() {
    let ids = [0u32, 0xff, 0x100, 0xffff, 0x1_0000, u32::MAX];
    let counts = ids
        .map(u64::from)
        .into_iter()
        .chain([u64::from(u32::MAX) + 1, u64::MAX]);
    for id in ids {
        assert_round_trips(AnalyticsOutput::WordCount(CountTable::from_sorted_columns(
            1,
            vec![id],
            vec![1],
        )));
        assert_round_trips(AnalyticsOutput::Sort(vec![(id, 1)]));
        assert_round_trips(AnalyticsOutput::InvertedIndex(
            PostingTable::from_sorted_parts(1, vec![id], vec![0, 1], vec![id]),
        ));
        assert_round_trips(AnalyticsOutput::TermVector(PostingTable::from_rows(vec![
            vec![(id, 1)],
        ])));
        assert_round_trips(AnalyticsOutput::SequenceCount(
            CountTable::from_sorted_columns(2, vec![id, id], vec![1]),
        ));
        assert_round_trips(AnalyticsOutput::RankedInvertedIndex(
            PostingTable::from_sorted_parts(1, vec![id], vec![0, 1], vec![(id, 1)]),
        ));
    }
    for count in counts {
        assert_round_trips(AnalyticsOutput::WordCount(CountTable::from_sorted_columns(
            1,
            vec![1],
            vec![count],
        )));
        assert_round_trips(AnalyticsOutput::Sort(vec![(1, count)]));
        assert_round_trips(AnalyticsOutput::TermVector(PostingTable::from_rows(vec![
            vec![(1, count)],
        ])));
        assert_round_trips(AnalyticsOutput::SequenceCount(
            CountTable::from_sorted_columns(1, vec![1], vec![count]),
        ));
        assert_round_trips(AnalyticsOutput::RankedInvertedIndex(
            PostingTable::from_sorted_parts(1, vec![1], vec![0, 1], vec![(0, count)]),
        ));
    }
    // An offsets column's width is its last offset's: a short first row,
    // then a row that closes on `last` postings.
    for last in [0u32, 0xff, 0x100, 0xffff, 0x1_0000] {
        let first = last.min(1);
        let offsets = vec![0, first, last];
        let files: Vec<u32> = (0..last).collect();
        let terms: Vec<(u32, u64)> = files.iter().map(|&f| (f, 1)).collect();
        assert_round_trips(AnalyticsOutput::InvertedIndex(
            PostingTable::from_sorted_parts(1, vec![7, 8], offsets.clone(), files),
        ));
        assert_round_trips(AnalyticsOutput::TermVector(PostingTable::from_rows(vec![
            terms[..first as usize].to_vec(),
            terms[first as usize..].to_vec(),
        ])));
        assert_round_trips(AnalyticsOutput::RankedInvertedIndex(
            PostingTable::from_sorted_parts(1, vec![7, 8], offsets, terms),
        ));
    }
}

/// The mechanism on a real table: the ranked inverted index of dataset A
/// (scale 0.2, `l` = 3) round-trips exactly and encodes to at most 40 % of
/// its fixed-width size.
#[test]
fn a_ranked_index_of_dataset_a_encodes_to_at_most_40_percent_of_its_fixed_width_size() {
    let archive = datagen::DatasetPreset::new(datagen::DatasetId::A)
        .generate_scaled(0.2)
        .compress();
    let dag = sequitur::Dag::from_grammar(&archive.grammar);
    let engine = tadoc::Engine::builder(&archive, &dag)
        .threads(2)
        .build()
        .expect("engine");
    let out = engine
        .run(Task::RankedInvertedIndex, TaskConfig::default())
        .expect("ranked inverted index")
        .output;
    assert_round_trips((*out).clone());
    let (v1_len, _) = v1_len_and_runs(&out);
    let len = encode_response(&Response::Result(out)).len();
    assert!(
        len * 10 <= v1_len * 4,
        "{len} bytes against {v1_len} in the fixed-width layout"
    );
}
