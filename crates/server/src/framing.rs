//! Incremental frame I/O over a byte stream.
//!
//! [`FrameReader`] reads one frame at a time from any [`Read`], surviving
//! short reads and read timeouts **without losing partial bytes**: a
//! connection handler configures `SO_RCVTIMEO` so it can periodically check
//! the server's shutdown flag, and a timeout mid-frame simply returns
//! [`ReadOutcome::Idle`] with the partial frame retained for the next call.
//! Header validation happens as soon as the first ten bytes arrive, so a
//! peer streaming garbage is rejected after at most
//! [`crate::protocol::HEADER_LEN`] bytes instead of after a declared-length
//! read.
//!
//! Payload bytes move once: the header is kept in its own ten-byte array,
//! and the payload is read straight into the `Vec` the frame hands out.  A
//! declared length buys at most 1 MiB (`EAGER_RESERVE`) of capacity up
//! front; past that the `Vec` grows with the bytes that actually arrive, so
//! a peer cannot make this side allocate a frame it never sends.  The reader
//! never reads past the end of the frame it is assembling, so nothing of
//! the next frame is ever buffered here.

use std::io::{self, Read, Write};

use crate::protocol::{decode_header, ProtocolError, HEADER_LEN};

/// Outcome of one [`FrameReader::read_frame`] call.
#[derive(Debug)]
pub enum ReadOutcome {
    /// One whole frame: its kind byte and payload.
    Frame {
        /// The header's kind byte (not yet validated as request/response).
        kind: u8,
        /// The payload bytes (exactly the declared length).
        payload: Vec<u8>,
    },
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// The read timed out before a whole frame arrived; any partial bytes
    /// stay buffered.  Callers use this to poll a shutdown flag and retry.
    Idle,
}

/// A framing failure: either the transport broke or the peer violated the
/// protocol.
#[derive(Debug)]
pub enum FrameReadError {
    /// Transport error (connection reset, …).
    Io(io::Error),
    /// The peer sent bytes that violate the protocol (bad magic, oversized
    /// declaration, EOF mid-frame, …).
    Protocol(ProtocolError),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "transport error: {e}"),
            FrameReadError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

impl From<io::Error> for FrameReadError {
    fn from(e: io::Error) -> Self {
        FrameReadError::Io(e)
    }
}

impl From<ProtocolError> for FrameReadError {
    fn from(e: ProtocolError) -> Self {
        FrameReadError::Protocol(e)
    }
}

/// Is this I/O error a read timeout?  Linux reports `SO_RCVTIMEO` expiry as
/// `WouldBlock`; other platforms use `TimedOut` — both mean "no bytes right
/// now, try again".
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Capacity reserved on the strength of a header alone.
const EAGER_RESERVE: usize = 1 << 20;

/// Incremental frame reader.  One instance per connection; a frame cut
/// short by a timeout is carried across calls.
#[derive(Debug, Default)]
pub struct FrameReader {
    header: [u8; HEADER_LEN],
    /// Bytes of `header` received so far.
    header_len: usize,
    /// Kind and declared payload length, once the header is whole and valid.
    declared: Option<(u8, usize)>,
    /// Payload bytes received so far; up to `EAGER_RESERVE` of capacity is
    /// reserved when the header is validated.
    payload: Vec<u8>,
}

impl FrameReader {
    /// A fresh reader holding no partial frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads until one whole frame has arrived, the peer closes, the read
    /// times out, or the peer violates the protocol.
    pub fn read_frame<R: Read>(&mut self, r: &mut R) -> Result<ReadOutcome, FrameReadError> {
        loop {
            let read = match self.declared {
                None => r.read(&mut self.header[self.header_len..]),
                // `read_to_end` appends to `payload` in place and keeps what
                // it appended when a later read fails; `take` ends it where
                // this frame ends.
                Some((_, len)) => {
                    let missing = (len - self.payload.len()) as u64;
                    r.by_ref().take(missing).read_to_end(&mut self.payload)
                }
            };
            let n = match read {
                Ok(n) => n,
                Err(e) if is_timeout(&e) => return Ok(ReadOutcome::Idle),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            match self.declared {
                Some((kind, len)) if self.payload.len() == len => {
                    self.declared = None;
                    self.header_len = 0;
                    let payload = std::mem::take(&mut self.payload);
                    return Ok(ReadOutcome::Frame { kind, payload });
                }
                _ if n == 0 => return self.end_of_stream(),
                // The payload stopped short without an error: ask again.
                Some(_) => {}
                None => {
                    self.header_len += n;
                    if self.header_len == HEADER_LEN {
                        // Validate the header (and learn the frame length)
                        // as soon as ten bytes are in.  A refused header is
                        // not kept: it is reported once.
                        let (kind, len) = decode_header(&self.header).inspect_err(|_| {
                            self.header_len = 0;
                        })?;
                        self.declared = Some((kind, len));
                        self.payload.reserve_exact(len.min(EAGER_RESERVE));
                    }
                }
            }
        }
    }

    /// The peer closed: cleanly at a frame boundary, or mid-frame.
    fn end_of_stream(&self) -> Result<ReadOutcome, FrameReadError> {
        let got = self.header_len + self.payload.len();
        if got == 0 {
            return Ok(ReadOutcome::Closed);
        }
        let needed = HEADER_LEN + self.declared.map_or(0, |(_, len)| len);
        Err(ProtocolError::Truncated { needed, got }.into())
    }
}

/// Writes one encoded frame and flushes it.
pub fn write_frame<W: Write>(w: &mut W, bytes: &[u8]) -> io::Result<()> {
    w.write_all(bytes)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        encode_request, encode_response, parse_request, parse_response, QueryRequest, Request,
        Response, WireError, WireErrorCode, MAX_PAYLOAD_LEN,
    };
    use tadoc::apps::{Task, TaskConfig};

    /// A reader that yields its script one fragment at a time; an empty
    /// fragment is a timeout.
    struct Script {
        parts: Vec<Vec<u8>>,
        next: usize,
    }

    impl Script {
        fn new(parts: Vec<Vec<u8>>) -> Self {
            Self { parts, next: 0 }
        }
    }

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.next >= self.parts.len() {
                return Ok(0);
            }
            let part = &self.parts[self.next];
            if part.is_empty() {
                self.next += 1;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
            }
            let n = part.len().min(out.len());
            out[..n].copy_from_slice(&part[..n]);
            let rest = part[n..].to_vec();
            if rest.is_empty() {
                self.next += 1;
            } else {
                self.parts[self.next] = rest;
            }
            Ok(n)
        }
    }

    /// Reads to end of stream: the frames, and how often the reader idled.
    fn read_all(r: &mut Script) -> (Vec<(u8, Vec<u8>)>, usize) {
        let mut fr = FrameReader::new();
        let mut frames = Vec::new();
        let mut idles = 0;
        loop {
            match fr.read_frame(r).expect("framing") {
                ReadOutcome::Frame { kind, payload } => frames.push((kind, payload)),
                ReadOutcome::Idle => idles += 1,
                ReadOutcome::Closed => return (frames, idles),
            }
        }
    }

    /// A frame with a payload long enough to split in interesting places.
    fn error_frame() -> (Response, Vec<u8>) {
        let resp = Response::Error(WireError::new(
            WireErrorCode::DeadlineExceeded,
            "the query's deadline passed while it was queued",
        ));
        let bytes = encode_response(&resp);
        (resp, bytes)
    }

    fn truncation(r: &mut Script) -> (usize, usize) {
        let mut fr = FrameReader::new();
        loop {
            match fr.read_frame(r) {
                Ok(ReadOutcome::Idle) => continue,
                Err(FrameReadError::Protocol(ProtocolError::Truncated { needed, got })) => {
                    return (needed, got)
                }
                other => panic!("expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn frames_survive_fragmentation_and_timeouts() {
        let a = encode_request(&Request::Stats);
        let b = encode_request(&Request::Shutdown);
        let mut all = a.clone();
        all.extend_from_slice(&b);
        // Split mid-header twice, with timeouts in between.
        let mut r = Script::new(vec![
            all[..3].to_vec(),
            Vec::new(), // timeout
            all[3..HEADER_LEN + 1].to_vec(),
            Vec::new(), // timeout
            all[HEADER_LEN + 1..].to_vec(),
        ]);
        let (frames, idles) = read_all(&mut r);
        let got: Vec<Request> = frames
            .iter()
            .map(|(kind, payload)| parse_request(*kind, payload).expect("parse"))
            .collect();
        assert_eq!(got, vec![Request::Stats, Request::Shutdown]);
        assert_eq!(idles, 2);
    }

    #[test]
    fn a_timeout_inside_the_payload_keeps_what_arrived() {
        let (resp, bytes) = error_frame();
        let cut = HEADER_LEN + 7;
        let mut r = Script::new(vec![
            bytes[..cut].to_vec(),
            Vec::new(), // timeout with 7 payload bytes in hand
            bytes[cut..cut + 1].to_vec(),
            Vec::new(), // and again one byte later
            bytes[cut + 1..].to_vec(),
        ]);
        let (frames, idles) = read_all(&mut r);
        assert_eq!(idles, 2);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].1, bytes[HEADER_LEN..]);
        assert_eq!(parse_response(frames[0].0, &frames[0].1), Ok(resp));
    }

    #[test]
    fn byte_at_a_time_delivery_reassembles_every_frame() {
        let (resp, error) = error_frame();
        let query = Request::Query(QueryRequest {
            task: Task::RankedInvertedIndex,
            cfg: TaskConfig { sequence_length: 2 },
            deadline_ms: Some(40),
        });
        let mut stream = encode_request(&query);
        stream.extend_from_slice(&error);
        stream.extend_from_slice(&encode_request(&Request::Stats));
        let mut r = Script::new(stream.iter().map(|&b| vec![b]).collect());
        let (frames, idles) = read_all(&mut r);
        assert_eq!(idles, 0);
        assert_eq!(frames.len(), 3);
        assert_eq!(parse_request(frames[0].0, &frames[0].1), Ok(query));
        assert_eq!(parse_response(frames[1].0, &frames[1].1), Ok(resp));
        assert_eq!(parse_request(frames[2].0, &frames[2].1), Ok(Request::Stats));
    }

    #[test]
    fn back_to_back_frames_in_one_read_are_not_merged() {
        let (resp, error) = error_frame();
        let mut stream = error.clone();
        stream.extend_from_slice(&encode_request(&Request::Shutdown)); // empty payload
        stream.extend_from_slice(&error);
        let mut r = Script::new(vec![stream]);
        let (frames, _) = read_all(&mut r);
        assert_eq!(frames.len(), 3);
        assert_eq!(parse_response(frames[0].0, &frames[0].1), Ok(resp.clone()));
        assert!(
            frames[1].1.is_empty(),
            "a declared length of 0 is a whole frame"
        );
        assert_eq!(
            parse_request(frames[1].0, &frames[1].1),
            Ok(Request::Shutdown)
        );
        assert_eq!(parse_response(frames[2].0, &frames[2].1), Ok(resp));
    }

    #[test]
    fn eof_mid_frame_is_truncation() {
        let (_, bytes) = error_frame();
        // Mid-header: only the header is known to be needed.
        let mut r = Script::new(vec![bytes[..HEADER_LEN - 2].to_vec()]);
        assert_eq!(truncation(&mut r), (HEADER_LEN, HEADER_LEN - 2));
        // Mid-payload, after a timeout: the whole declared frame is needed.
        let mut r = Script::new(vec![
            bytes[..HEADER_LEN + 3].to_vec(),
            Vec::new(),
            bytes[HEADER_LEN + 3..HEADER_LEN + 5].to_vec(),
        ]);
        assert_eq!(truncation(&mut r), (bytes.len(), HEADER_LEN + 5));
        // Right after a whole header.
        let mut r = Script::new(vec![bytes[..HEADER_LEN].to_vec()]);
        assert_eq!(truncation(&mut r), (bytes.len(), HEADER_LEN));
        // At a frame boundary it is a clean close instead.
        let mut r = Script::new(vec![bytes]);
        assert_eq!(read_all(&mut r).0.len(), 1);
    }

    #[test]
    fn garbage_header_fails_fast() {
        let mut r = Script::new(vec![vec![0xFF; 1024]]);
        let mut fr = FrameReader::new();
        match fr.read_frame(&mut r) {
            Err(FrameReadError::Protocol(ProtocolError::BadMagic(_))) => {}
            other => panic!("expected bad magic, got {other:?}"),
        }
    }

    #[test]
    fn an_oversized_declaration_is_refused_from_the_header() {
        let mut header = encode_request(&Request::Stats);
        header[6..10].copy_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
        header.extend_from_slice(&[0u8; 64]);
        let mut r = Script::new(vec![header]);
        let mut fr = FrameReader::new();
        match fr.read_frame(&mut r) {
            Err(FrameReadError::Protocol(ProtocolError::Oversized { declared })) => {
                assert_eq!(declared, MAX_PAYLOAD_LEN + 1)
            }
            other => panic!("expected an oversized declaration, got {other:?}"),
        }
        assert_eq!(r.parts[0].len(), 64, "nothing past the header was read");
        assert_eq!(fr.header_len, 0, "a refused header is not kept");
    }

    #[test]
    fn a_header_alone_reserves_a_bounded_amount() {
        let mut header = encode_request(&Request::Stats);
        header[6..10].copy_from_slice(&MAX_PAYLOAD_LEN.to_le_bytes());
        let mut r = Script::new(vec![header, Vec::new()]);
        let mut fr = FrameReader::new();
        assert!(matches!(fr.read_frame(&mut r), Ok(ReadOutcome::Idle)));
        assert_eq!(
            fr.declared.map(|(_, len)| len),
            Some(MAX_PAYLOAD_LEN as usize)
        );
        assert!(
            fr.payload.capacity() <= EAGER_RESERVE,
            "a declared {MAX_PAYLOAD_LEN} bytes reserved {}",
            fr.payload.capacity()
        );
    }

    #[test]
    fn a_payload_longer_than_the_eager_reservation_arrives_whole() {
        let len = EAGER_RESERVE + EAGER_RESERVE / 2 + 3;
        let mut stream = encode_request(&Request::Stats);
        stream[6..10].copy_from_slice(&(len as u32).to_le_bytes());
        stream.extend((0..len).map(|i| (i % 251) as u8));
        let expected = stream[HEADER_LEN..].to_vec();
        let cut = HEADER_LEN + EAGER_RESERVE - 1;
        let mut r = Script::new(vec![
            stream[..cut].to_vec(),
            Vec::new(), // timeout just short of the reserved capacity
            stream[cut..].to_vec(),
        ]);
        let (frames, idles) = read_all(&mut r);
        assert_eq!(idles, 1);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].1 == expected, "payload bytes differ");
    }
}
