//! The wire protocol: a pure, separately testable codec.
//!
//! Every message on the wire is one **frame**: a fixed 10-byte header
//! (4-byte magic `TDQP`, protocol version, frame kind, little-endian payload
//! length) followed by the payload.  The codec in this module is pure — it
//! maps between typed values and byte slices, touching no sockets — so it
//! can be property-tested exhaustively: random request/response values
//! round-trip byte-identically, and random byte streams can never panic the
//! decoder (see `tests/protocol_props.rs`).
//!
//! Decoding is **total and allocation-bounded**: every length field is
//! checked against the remaining payload before anything is allocated, all
//! arithmetic on untrusted lengths is checked, and every structural
//! invariant of the ordered columnar result types (strictly ascending keys,
//! offsets that start at 0 and never decrease, posting lists ascending or
//! in rank order) is validated *before* the corresponding constructor
//! runs, so a hostile peer can produce [`ProtocolError`]s but never a panic
//! or an oversized allocation.
//!
//! Payload layouts (all integers little-endian):
//!
//! | kind | payload |
//! |------|---------|
//! | `Query`       | task `u8`, sequence_length `u64`, deadline flag `u8` (+ `deadline_ms u64`) |
//! | `Stats`       | empty |
//! | `Shutdown`    | empty |
//! | `Result`      | task tag `u8`, `l u64` (sequence tasks only), row count `u64`, then the table's `columns()`, each as width-prefixed runs |
//! | `Error`       | code `u8`, message length `u32`, UTF-8 bytes |
//! | `Overloaded`  | queue depth `u32`, queue capacity `u32` |
//! | `StatsReply`  | eight counters, as one width-prefixed run |
//! | `ShutdownAck` | empty |
//!
//! Results travel as their **ordered columnar form** directly: the columns
//! `AnalyticsOutput::columns` lists, in its order, the representation the
//! engine finalizes into — so a decoded result is bit-for-bit the table the
//! server held (`AnalyticsOutput::digest` agrees across the wire).  A task's
//! tag is its position in `Task::ALL`, from 1.
//!
//! Every integer column travels as one or two **runs**: a width byte `w`
//! (1, 2, 4 or 8), then the column's values as `w`-byte integers.  `w` is
//! the narrowest width that holds the run's largest value (1 for an empty
//! run), so a file id below 256 takes one byte and a count below 65,536
//! two.  A `U32` column — ids, a key arena or a posting table's CSR
//! offsets — or a `U64` column is one run, a pair column two: its ids,
//! then its counts.  The decoder
//! refuses a width that is not the narrowest, so every frame it accepts
//! re-encodes to the same bytes.  Every byte moves once: the encoder
//! computes each run's width once, takes the exact frame length from the
//! widths and the column lengths, and writes the runs, a loop per width,
//! into one buffer of that size; the decoder builds each result column
//! straight from its byte range.

use std::cmp::Ordering;
use std::sync::Arc;

use tadoc::apps::{Task, TaskConfig};
use tadoc::fine_grained::EngineError;
use tadoc::results::{rank_order, AnalyticsOutput, Column, CountTable, PostingTable};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"TDQP";
/// Protocol version this codec speaks.
pub const VERSION: u8 = 2;
/// Fixed frame header length: magic (4) + version (1) + kind (1) + len (4).
pub const HEADER_LEN: usize = 10;
/// Maximum payload length a peer may declare.  Frames claiming more are
/// rejected from the header alone — the payload is never read, let alone
/// allocated.
pub const MAX_PAYLOAD_LEN: u32 = 64 * 1024 * 1024;

// Frame kinds.  Requests have the high bit clear, responses set.
const KIND_QUERY: u8 = 0x01;
const KIND_STATS: u8 = 0x02;
const KIND_SHUTDOWN: u8 = 0x03;
const KIND_RESULT: u8 = 0x81;
const KIND_ERROR: u8 = 0x82;
const KIND_OVERLOADED: u8 = 0x83;
const KIND_STATS_REPLY: u8 = 0x84;
const KIND_SHUTDOWN_ACK: u8 = 0x85;

// ---------------------------------------------------------------------------
// Message types
// ---------------------------------------------------------------------------

/// One query request: a task, its configuration, and an optional deadline
/// in milliseconds, measured by the **server** from the moment the request
/// is admitted (queue wait counts against it — a request that expires while
/// queued is answered with `DeadlineExceeded` without executing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRequest {
    /// The task to run.
    pub task: Task,
    /// Its per-query configuration.
    pub cfg: TaskConfig,
    /// Optional time budget in milliseconds (`Some(0)` is legal and means
    /// "already expired" — useful for deterministic deadline tests).
    pub deadline_ms: Option<u64>,
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run one analytics query.
    Query(QueryRequest),
    /// Report the server's counters.
    Stats,
    /// Begin graceful shutdown: drain admitted work, then refuse.
    Shutdown,
}

/// Typed error codes a server can answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorCode {
    /// Invalid query configuration (e.g. zero sequence length).
    Config,
    /// The served archive failed validation (server-side misconfiguration).
    InvalidArchive,
    /// A worker fault that the sequential fallback could not absorb.
    WorkerPanicked,
    /// The query's deadline passed (while queued or in flight).
    DeadlineExceeded,
    /// The query was cancelled (e.g. shutdown drain timeout).
    Cancelled,
    /// The peer sent bytes this protocol cannot parse.
    Protocol,
    /// The server is shutting down and refuses new work.
    ShuttingDown,
    /// An internal serving fault (e.g. an executor thread died mid-query).
    Internal,
}

/// Every code with its wire byte.  Byte 4 is reserved: it named an
/// arena-capacity fault the engine can no longer produce, and is never
/// reused, so an old peer's 4 stays a typed decode error instead of
/// silently meaning something else.
const ERROR_CODES: [(WireErrorCode, u8); 8] = [
    (WireErrorCode::Config, 1),
    (WireErrorCode::InvalidArchive, 2),
    (WireErrorCode::WorkerPanicked, 3),
    (WireErrorCode::DeadlineExceeded, 5),
    (WireErrorCode::Cancelled, 6),
    (WireErrorCode::Protocol, 7),
    (WireErrorCode::ShuttingDown, 8),
    (WireErrorCode::Internal, 9),
];

impl WireErrorCode {
    fn to_byte(self) -> u8 {
        // `ERROR_CODES` lists the codes in declaration order.
        ERROR_CODES[self as usize].1
    }

    fn from_byte(b: u8) -> Option<Self> {
        ERROR_CODES
            .iter()
            .find(|&&(_, byte)| byte == b)
            .map(|&(code, _)| code)
    }
}

/// A typed error answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong.
    pub code: WireErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error answer.
    pub fn new(code: WireErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl From<&EngineError> for WireError {
    fn from(e: &EngineError) -> Self {
        let code = match e {
            EngineError::Config(_) => WireErrorCode::Config,
            EngineError::InvalidArchive { .. } => WireErrorCode::InvalidArchive,
            EngineError::WorkerPanicked { .. } => WireErrorCode::WorkerPanicked,
            EngineError::DeadlineExceeded => WireErrorCode::DeadlineExceeded,
            EngineError::Cancelled => WireErrorCode::Cancelled,
        };
        WireError::new(code, e.to_string())
    }
}

/// The server's cumulative counters, as answered to a [`Request::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub accepted_connections: u64,
    /// Queries answered with a result or a typed engine error.
    pub queries_answered: u64,
    /// Queries shed with `Overloaded` because the admission queue was full.
    pub shed: u64,
    /// Queries refused with `ShuttingDown` during drain.
    pub refused: u64,
    /// High-water mark of the admission queue depth.
    pub max_queue_depth: u64,
    /// Equals `queries_answered`: executors take one job per turn.  Kept
    /// because the wire format carries it; it goes with the next wire
    /// version bump.
    pub batches: u64,
    /// Equals `queries_answered`, like `batches`, and goes with it.
    pub batched_queries: u64,
    /// Frames that failed to parse.
    pub protocol_errors: u64,
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The query's result, in ordered columnar form.  Shared with whoever
    /// produced it (the engine's results cache, on a hit): building a
    /// response never copies the table.
    Result(Arc<AnalyticsOutput>),
    /// A typed failure.
    Error(WireError),
    /// The request was shed: the admission queue was full.  Contains the
    /// observed depth and the configured capacity.
    Overloaded {
        /// Queue depth at shed time.
        queue_depth: u32,
        /// Configured queue capacity.
        capacity: u32,
    },
    /// Counters answer.
    Stats(StatsSnapshot),
    /// Graceful shutdown acknowledged.
    ShutdownAck,
}

// ---------------------------------------------------------------------------
// Decode errors
// ---------------------------------------------------------------------------

/// A frame or payload this codec refuses.  Every variant is a *typed*
/// protocol error — hostile bytes surface here, never as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    UnsupportedVersion(u8),
    /// An unknown frame kind byte.
    UnknownKind(u8),
    /// The header declared a payload longer than [`MAX_PAYLOAD_LEN`].
    Oversized {
        /// Declared payload length.
        declared: u32,
    },
    /// The buffer ended before the declared frame did.
    Truncated {
        /// Bytes needed to finish the frame.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The frame parsed but its payload is inconsistent (bad tag, columns
    /// out of order, offsets that do not reconcile, …).
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtocolError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (expected {VERSION})")
            }
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            ProtocolError::Oversized { declared } => write!(
                f,
                "declared payload of {declared} bytes exceeds the {MAX_PAYLOAD_LEN}-byte cap"
            ),
            ProtocolError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            ProtocolError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Whether this error makes the byte stream unrecoverable.  After a bad
/// magic, a bad version, an oversized declaration, or a truncation there is
/// no way to find the next frame boundary, so the connection must close; a
/// malformed payload or unknown kind inside a well-framed message leaves
/// the stream in sync and the connection can keep serving.
pub fn is_framing_fatal(e: &ProtocolError) -> bool {
    matches!(
        e,
        ProtocolError::BadMagic(_)
            | ProtocolError::UnsupportedVersion(_)
            | ProtocolError::Oversized { .. }
            | ProtocolError::Truncated { .. }
    )
}

// ---------------------------------------------------------------------------
// Byte cursor (checked reads over untrusted input)
// ---------------------------------------------------------------------------

fn malformed(why: impl Into<String>) -> ProtocolError {
    ProtocolError::Malformed(why.into())
}

/// The `N` bytes of a `chunks_exact(N)` chunk, as an array.
fn le<const N: usize>(chunk: &[u8]) -> [u8; N] {
    let mut bytes = [0u8; N];
    bytes.copy_from_slice(chunk);
    bytes
}

/// The value of one `N`-byte little-endian chunk.
fn uint<const N: usize>(chunk: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[..N].copy_from_slice(chunk);
    u64::from_le_bytes(bytes)
}

/// The narrowest run width that holds `max`.  The OR of a run's values has
/// the width of their largest, so both the encoder and the decoder pass
/// the OR.
fn width_of(max: u64) -> usize {
    match max {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        0x1_0000..=0xffff_ffff => 4,
        _ => 8,
    }
}

/// Evaluates `$body` with the constant `$n` set to the run width `$w`, so
/// each width gets a loop of its own with no per-value branch.  The
/// widths are 1, 2, 4 and 8; any other `$w` is taken as 8, so callers
/// pass only checked widths.
macro_rules! by_width {
    ($w:expr, $n:ident => $body:expr) => {
        match $w {
            1 => {
                const $n: usize = 1;
                $body
            }
            2 => {
                const $n: usize = 2;
                $body
            }
            4 => {
                const $n: usize = 4;
                $body
            }
            _ => {
                const $n: usize = 8;
                $body
            }
        }
    };
}

/// Checked reader over an untrusted payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// What is being read (a task name), for the error messages.
    what: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            what: "payload",
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(malformed(format!(
                "payload ended early ({} bytes left, {n} needed)",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(le(self.take(4)?)))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(le(self.take(8)?)))
    }

    /// Reads a sequence task's `l`: at least 1, and small enough that a row
    /// of `l` key words and its 8-byte count is addressable,
    /// whatever the row count.
    fn sequence_length(&mut self) -> Result<usize, ProtocolError> {
        let what = self.what;
        match usize::try_from(self.u64()?) {
            Ok(0) => Err(malformed(format!("{what}: zero sequence length"))),
            Ok(l) if l.checked_mul(4).and_then(|k| k.checked_add(8)).is_some() => Ok(l),
            _ => Err(malformed(format!("{what}: sequence length overflows"))),
        }
    }

    /// Reads a run of `len` values (`None`: the count overflowed): its
    /// width byte, then its bytes.  `widest` is the width of the column's
    /// own type.  The width is checked, and the run's byte count against
    /// the bytes left, before anything is allocated, so nothing is reserved
    /// beyond what the peer actually sent.
    fn run(&mut self, len: Option<usize>, widest: usize) -> Result<Run<'a>, ProtocolError> {
        let what = self.what;
        let width = usize::from(self.u8()?);
        if !matches!(width, 1 | 2 | 4 | 8) {
            return Err(malformed(format!(
                "{what}: run width {width} is not 1, 2, 4 or 8"
            )));
        }
        if width > widest {
            return Err(malformed(format!(
                "{what}: run width {width} exceeds the column's {widest}-byte values"
            )));
        }
        let bytes = len
            .and_then(|n| n.checked_mul(width))
            .ok_or_else(|| malformed(format!("{what}: column length overflows")))?;
        Ok(Run {
            bytes: self.take(bytes)?,
            width,
            what,
        })
    }

    /// Reads a one-run column of `len` values, each as `value` maps it.
    fn ints<T>(
        &mut self,
        len: Option<usize>,
        widest: usize,
        value: impl Fn(u64) -> T,
    ) -> Result<Vec<T>, ProtocolError> {
        let run = self.run(len, widest)?;
        let mut out = Vec::with_capacity(run.len());
        run.push_into(&mut out, value)?;
        Ok(out)
    }

    /// Reads a column of `len` elements (see [`Element`]).
    fn column<T: Element>(&mut self, len: Option<usize>) -> Result<Vec<T>, ProtocolError> {
        T::read(self, len)
    }

    /// Reads a key arena of `rows` rows of `width` words, each row strictly
    /// above the one before it (none at width 0).
    fn keys(&mut self, rows: usize, width: usize) -> Result<Vec<u32>, ProtocolError> {
        if width == 0 {
            return Ok(Vec::new());
        }
        let keys: Vec<u32> = self.column(rows.checked_mul(width))?;
        let key_rows = || keys.chunks_exact(width);
        if key_rows().zip(key_rows().skip(1)).any(|(a, b)| a >= b) {
            return Err(malformed(format!(
                "{}: keys not strictly ascending",
                self.what
            )));
        }
        Ok(keys)
    }

    /// Reads the rest of a posting table after its `keys`: a `u32` CSR
    /// offsets column of `rows + 1` entries, which must start at 0 and
    /// never decrease, and the value column its last offset closes on.
    fn postings<V: Element>(
        &mut self,
        width: usize,
        keys: Vec<u32>,
        rows: usize,
    ) -> Result<PostingTable<V>, ProtocolError> {
        let what = self.what;
        let offsets: Vec<u32> = self.column(rows.checked_add(1))?;
        if offsets.first().is_some_and(|&first| first != 0) {
            return Err(malformed(format!("{what}: offsets do not start at 0")));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(malformed(format!("{what}: offsets decrease")));
        }
        let values = self.column(offsets.last().map(|&end| end as usize))?;
        Ok(PostingTable::from_sorted_parts(
            width, keys, offsets, values,
        ))
    }

    /// Refuses `rows` unless every row's values are strictly in `order`
    /// (`how` names it), each before the next: an inverted index's files
    /// and a term vector file's words ascending, a ranked posting list and
    /// sort's one list of rows in rank order.
    fn ordered<'r, V: 'r>(
        &self,
        rows: impl Iterator<Item = &'r [V]>,
        how: &str,
        order: impl Fn(&V, &V) -> Ordering,
    ) -> Result<(), ProtocolError> {
        for (i, row) in rows.enumerate() {
            if !row
                .windows(2)
                .fold(true, |ok, w| ok & order(&w[0], &w[1]).is_lt())
            {
                return Err(malformed(format!("{}: row {i} not {how}", self.what)));
            }
        }
        Ok(())
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.remaining() != 0 {
            return Err(malformed(format!(
                "{} trailing bytes after the payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// One run's bytes, already checked against the payload, and its width.
struct Run<'a> {
    bytes: &'a [u8],
    width: usize,
    /// What is being read, for the error messages.
    what: &'static str,
}

impl Run<'_> {
    /// Values in the run.
    fn len(&self) -> usize {
        self.bytes.len() / self.width
    }

    /// Appends the run's values to `out`, each as `value` maps it.
    fn push_into<T>(
        &self,
        out: &mut Vec<T>,
        value: impl Fn(u64) -> T,
    ) -> Result<(), ProtocolError> {
        let bits = by_width!(self.width, N => {
            let mut bits = 0;
            out.extend(self.bytes.chunks_exact(N).map(|b| {
                let v = uint::<N>(b);
                bits |= v;
                value(v)
            }));
            bits
        });
        self.check_narrowest(bits)
    }

    /// A run travels at the narrowest width its values allow (`bits` is
    /// their OR), so every table has exactly one frame.
    fn check_narrowest(&self, bits: u64) -> Result<(), ProtocolError> {
        let need = width_of(bits);
        if need < self.width {
            return Err(malformed(format!(
                "{}: run width {} where the values fit {need}",
                self.what, self.width
            )));
        }
        Ok(())
    }
}

/// An element of a result column.  Reading a column back is one pass per
/// run over its bytes.
trait Element: Sized {
    /// Reads a column of `len` elements (`None`: the count overflowed).
    fn read(c: &mut Cursor<'_>, len: Option<usize>) -> Result<Vec<Self>, ProtocolError>;
}

impl Element for u32 {
    fn read(c: &mut Cursor<'_>, len: Option<usize>) -> Result<Vec<Self>, ProtocolError> {
        // A run at most 4 bytes wide holds only `u32` values.
        c.ints(len, 4, |v| v as u32)
    }
}

impl Element for u64 {
    fn read(c: &mut Cursor<'_>, len: Option<usize>) -> Result<Vec<Self>, ProtocolError> {
        c.ints(len, 8, |v| v)
    }
}

/// A pair column travels as its ids run followed by its counts run, and
/// decodes straight into the pairs in one pass over both runs.
impl Element for (u32, u64) {
    fn read(c: &mut Cursor<'_>, len: Option<usize>) -> Result<Vec<Self>, ProtocolError> {
        let ids = c.run(len, 4)?;
        let counts = c.run(len, 8)?;
        let mut pairs = Vec::with_capacity(ids.len());
        let (mut id_bits, mut count_bits) = (0, 0);
        by_width!(ids.width, I => by_width!(counts.width, C => {
            let runs = ids.bytes.chunks_exact(I).zip(counts.bytes.chunks_exact(C));
            pairs.extend(runs.map(|(id, count)| {
                let (id, count) = (uint::<I>(id), uint::<C>(count));
                id_bits |= id;
                count_bits |= count;
                (id as u32, count)
            }));
        }));
        ids.check_narrowest(id_bits)?;
        counts.check_narrowest(count_bits)?;
        Ok(pairs)
    }
}

/// A column with the width of each of its runs: its one run, or a pair
/// column's ids run and counts run.  Computed once per frame, for the
/// payload length and the writer both.
#[derive(Clone, Copy)]
struct WireColumn<'a> {
    column: Column<'a>,
    widths: [usize; 2],
}

impl<'a> WireColumn<'a> {
    /// One pass over the column for the OR of its values.
    fn new(column: Column<'a>) -> Self {
        let widths = match column {
            Column::U32(v) => [width_of(v.iter().fold(0, |bits, &x| bits | x).into()), 0],
            Column::U64(v) => [width_of(v.iter().fold(0, |bits, &x| bits | x)), 0],
            Column::Pairs(v) => {
                let (ids, counts) = v.iter().fold((0, 0), |(ids, counts), &(id, count)| {
                    (ids | id, counts | count)
                });
                [width_of(ids.into()), width_of(counts)]
            }
        };
        Self { column, widths }
    }

    /// Bytes the column takes on the wire: per run, its width byte and its
    /// values.  In `u64`, so a huge table's length cannot wrap.
    fn wire_len(&self) -> u64 {
        let (len, runs) = match self.column {
            Column::U32(v) => (v.len(), 1),
            Column::U64(v) => (v.len(), 1),
            Column::Pairs(v) => (v.len(), 2),
        };
        let run = |&width: &usize| 1 + len as u64 * width as u64;
        self.widths[..runs].iter().map(run).sum()
    }
}

// ---------------------------------------------------------------------------
// Frame writer
// ---------------------------------------------------------------------------

/// Fills one frame: a buffer of exactly header + payload bytes, written
/// front to back.  Nothing grows and nothing is copied a second time.
struct Writer {
    buf: Vec<u8>,
    pos: usize,
}

impl Writer {
    /// A frame of `kind` whose payload will be exactly `payload_len` bytes
    /// (at most [`MAX_PAYLOAD_LEN`]; result encoding checks, every other
    /// payload is a few dozen bytes or a capped message).
    fn frame(kind: u8, payload_len: usize) -> Self {
        assert!(payload_len <= MAX_PAYLOAD_LEN as usize);
        let mut w = Self {
            buf: vec![0u8; HEADER_LEN + payload_len],
            pos: 0,
        };
        w.bytes(&MAGIC);
        w.u8(VERSION);
        w.u8(kind);
        w.u32(payload_len as u32);
        w
    }

    fn bytes(&mut self, src: &[u8]) {
        self.buf[self.pos..self.pos + src.len()].copy_from_slice(src);
        self.pos += src.len();
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Writes every item of `items` as its `N` bytes.
    fn items<T: Copy, const N: usize>(&mut self, items: &[T], encode: impl Fn(T) -> [u8; N]) {
        let end = self.pos + items.len() * N;
        for (dst, &item) in self.buf[self.pos..end].chunks_exact_mut(N).zip(items) {
            dst.copy_from_slice(&encode(item));
        }
        self.pos = end;
    }

    /// Writes one run: `width`, then `value` of every item as a
    /// `width`-byte integer.
    fn run<T: Copy>(&mut self, items: &[T], width: usize, value: impl Fn(T) -> u64) {
        self.u8(width as u8);
        by_width!(width, N => self.items(items, |item| le::<N>(&value(item).to_le_bytes()[..N])));
    }

    /// Writes one column in its wire form: each run at its width.
    fn column(&mut self, column: WireColumn<'_>) {
        let [width, counts_width] = column.widths;
        match column.column {
            Column::U32(v) => self.run(v, width, u64::from),
            Column::U64(v) => self.run(v, width, |count| count),
            Column::Pairs(v) => {
                self.run(v, width, |(id, _)| u64::from(id));
                self.run(v, counts_width, |(_, count)| count);
            }
        }
    }

    /// The finished frame.  A payload length that disagrees with what was
    /// written would desynchronise the stream, so it is checked.
    fn finish(self) -> Vec<u8> {
        assert_eq!(self.pos, self.buf.len(), "frame length was miscounted");
        self.buf
    }
}

// ---------------------------------------------------------------------------
// Frame-level decode
// ---------------------------------------------------------------------------

/// Parses a frame header from the front of `buf`.
///
/// Returns `(kind, payload_len)`.  [`ProtocolError::Truncated`] means the
/// buffer is shorter than a header.
pub fn decode_header(buf: &[u8]) -> Result<(u8, usize), ProtocolError> {
    if buf.len() < HEADER_LEN {
        return Err(ProtocolError::Truncated {
            needed: HEADER_LEN,
            got: buf.len(),
        });
    }
    let magic = [buf[0], buf[1], buf[2], buf[3]];
    if magic != MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    if buf[4] != VERSION {
        return Err(ProtocolError::UnsupportedVersion(buf[4]));
    }
    // The kind byte is NOT validated here: an unknown kind still has a
    // well-formed header, so the framing layer can skip its payload and the
    // connection stays in sync — [`parse_request`]/[`parse_response`] turn
    // it into a typed, non-fatal [`ProtocolError::UnknownKind`].
    let kind = buf[5];
    let len = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]);
    if len > MAX_PAYLOAD_LEN {
        return Err(ProtocolError::Oversized { declared: len });
    }
    Ok((kind, len as usize))
}

/// Splits one whole frame off the front of `buf`; returns
/// `(kind, payload, consumed)`.
fn decode_frame(buf: &[u8]) -> Result<(u8, &[u8], usize), ProtocolError> {
    let (kind, len) = decode_header(buf)?;
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return Err(ProtocolError::Truncated {
            needed: total,
            got: buf.len(),
        });
    }
    Ok((kind, &buf[HEADER_LEN..total], total))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A task's wire tag: its position in [`Task::ALL`], counted from 1.
fn task_tag(task: Task) -> u8 {
    Task::ALL
        .iter()
        .position(|&t| t == task)
        .map_or(0, |i| i as u8 + 1)
}

fn task_from_tag(tag: u8) -> Result<Task, ProtocolError> {
    (tag as usize)
        .checked_sub(1)
        .and_then(|i| Task::ALL.get(i).copied())
        .ok_or_else(|| malformed(format!("unknown task tag {tag}")))
}

/// Encodes a request as one complete frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Query(q) => {
            let deadline_len = if q.deadline_ms.is_some() { 8 } else { 0 };
            let mut w = Writer::frame(KIND_QUERY, 1 + 8 + 1 + deadline_len);
            w.u8(task_tag(q.task));
            w.u64(q.cfg.sequence_length as u64);
            match q.deadline_ms {
                Some(ms) => {
                    w.u8(1);
                    w.u64(ms);
                }
                None => w.u8(0),
            }
            w.finish()
        }
        Request::Stats => Writer::frame(KIND_STATS, 0).finish(),
        Request::Shutdown => Writer::frame(KIND_SHUTDOWN, 0).finish(),
    }
}

/// Parses a request payload for `kind` (as returned by [`decode_header`]).
pub fn parse_request(kind: u8, payload: &[u8]) -> Result<Request, ProtocolError> {
    match kind {
        KIND_QUERY => {
            let mut c = Cursor::new(payload);
            let task = task_from_tag(c.u8()?)?;
            let raw_l = c.u64()?;
            let sequence_length =
                usize::try_from(raw_l).map_err(|_| malformed("sequence_length overflows usize"))?;
            let deadline_ms = match c.u8()? {
                0 => None,
                1 => Some(c.u64()?),
                other => return Err(malformed(format!("bad deadline flag {other}"))),
            };
            c.finish()?;
            Ok(Request::Query(QueryRequest {
                task,
                cfg: TaskConfig { sequence_length },
                deadline_ms,
            }))
        }
        KIND_STATS => {
            Cursor::new(payload).finish()?;
            Ok(Request::Stats)
        }
        KIND_SHUTDOWN => {
            Cursor::new(payload).finish()?;
            Ok(Request::Shutdown)
        }
        other => Err(ProtocolError::UnknownKind(other)),
    }
}

/// Decodes one request frame off the front of `buf`; returns the request
/// and the bytes consumed.
pub fn decode_request(buf: &[u8]) -> Result<(Request, usize), ProtocolError> {
    let (kind, payload, consumed) = decode_frame(buf)?;
    Ok((parse_request(kind, payload)?, consumed))
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A result frame before it is written: the table's row count, its
/// columns with their run widths, and the exact payload length they add up
/// to — tag, `l` for the sequence tasks, row count, then the columns.
struct ResultFrame<'a> {
    out: &'a AnalyticsOutput,
    rows: usize,
    columns: Vec<WireColumn<'a>>,
    payload_len: u64,
}

impl<'a> ResultFrame<'a> {
    fn new(out: &'a AnalyticsOutput) -> Self {
        let (rows, columns) = out.columns();
        let columns: Vec<WireColumn<'a>> = columns.into_iter().map(WireColumn::new).collect();
        let l_len = 8 * u64::from(out.sequence_length().is_some());
        let payload_len = 1 + l_len + 8 + columns.iter().map(WireColumn::wire_len).sum::<u64>();
        Self {
            out,
            rows,
            columns,
            payload_len,
        }
    }

    /// Writes the frame.  A result too large for one frame is answered with
    /// a typed error instead of a length that does not fit the header.
    fn encode(&self) -> Vec<u8> {
        if self.payload_len > u64::from(MAX_PAYLOAD_LEN) {
            return encode_error(&WireError::new(
                WireErrorCode::Internal,
                "result exceeds the frame cap",
            ));
        }
        let mut w = Writer::frame(KIND_RESULT, self.payload_len as usize);
        w.u8(task_tag(self.out.task()));
        if let Some(l) = self.out.sequence_length() {
            w.u64(l as u64);
        }
        w.u64(self.rows as u64);
        for &column in &self.columns {
            w.column(column);
        }
        w.finish()
    }
}

/// Decodes a result payload: the columns [`AnalyticsOutput::columns`] lists
/// for the tagged task, each checked before the table is built from it.
fn decode_output(payload: &[u8]) -> Result<AnalyticsOutput, ProtocolError> {
    let mut c = Cursor::new(payload);
    let task = task_from_tag(c.u8()?)?;
    let what = task.name();
    c.what = what;
    let l = task
        .is_sequence_sensitive()
        .then(|| c.sequence_length())
        .transpose()?;
    let rows =
        usize::try_from(c.u64()?).map_err(|_| malformed(format!("{what}: row count overflows")))?;
    // The key arena: `l` words per row for the sequence tasks, one for the
    // other keyed tables, none for sort and term vector.
    let width = match task {
        Task::Sort | Task::TermVector => 0,
        _ => l.unwrap_or(1),
    };
    let keys = c.keys(rows, width)?;
    let out = match task {
        Task::WordCount | Task::SequenceCount => {
            let table = CountTable::from_sorted_columns(width, keys, c.column(Some(rows))?);
            match task {
                Task::WordCount => AnalyticsOutput::WordCount(table),
                _ => AnalyticsOutput::SequenceCount(table),
            }
        }
        Task::Sort => {
            let ranked: Vec<_> = c.column(Some(rows))?;
            c.ordered(std::iter::once(&ranked[..]), "in rank order", rank_order)?;
            AnalyticsOutput::Sort(ranked)
        }
        Task::InvertedIndex => {
            let table = c.postings(width, keys, rows)?;
            c.ordered(table.csr().rows(), "ascending", Ord::cmp)?;
            AnalyticsOutput::InvertedIndex(table)
        }
        Task::TermVector => {
            let table: PostingTable<(u32, u64)> = c.postings(width, keys, rows)?;
            c.ordered(table.csr().rows(), "ascending", |a, b| a.0.cmp(&b.0))?;
            AnalyticsOutput::TermVector(table)
        }
        Task::RankedInvertedIndex => {
            let table = c.postings(width, keys, rows)?;
            c.ordered(table.csr().rows(), "in rank order", rank_order)?;
            AnalyticsOutput::RankedInvertedIndex(table)
        }
    };
    c.finish()?;
    Ok(out)
}

fn encode_error(e: &WireError) -> Vec<u8> {
    // Truncate absurdly long messages rather than overflowing the frame
    // cap; 64 KiB of detail is plenty.
    let msg = e.message.as_bytes();
    let msg = &msg[..floor_char_boundary(&e.message, msg.len().min(64 * 1024))];
    let mut w = Writer::frame(KIND_ERROR, 1 + 4 + msg.len());
    w.u8(e.code.to_byte());
    w.u32(msg.len() as u32);
    w.bytes(msg);
    w.finish()
}

/// Encodes a response as one complete frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Result(out) => ResultFrame::new(out).encode(),
        Response::Error(e) => encode_error(e),
        Response::Overloaded {
            queue_depth,
            capacity,
        } => {
            let mut w = Writer::frame(KIND_OVERLOADED, 4 + 4);
            w.u32(*queue_depth);
            w.u32(*capacity);
            w.finish()
        }
        Response::Stats(s) => {
            let counters = [
                s.accepted_connections,
                s.queries_answered,
                s.shed,
                s.refused,
                s.max_queue_depth,
                s.batches,
                s.batched_queries,
                s.protocol_errors,
            ];
            let counters = WireColumn::new(Column::U64(&counters));
            let mut w = Writer::frame(KIND_STATS_REPLY, counters.wire_len() as usize);
            w.column(counters);
            w.finish()
        }
        Response::ShutdownAck => Writer::frame(KIND_SHUTDOWN_ACK, 0).finish(),
    }
}

/// Largest byte index `<= max` that falls on a char boundary of `s`.
fn floor_char_boundary(s: &str, max: usize) -> usize {
    let mut i = max.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// Parses a response payload for `kind` (as returned by [`decode_header`]).
pub fn parse_response(kind: u8, payload: &[u8]) -> Result<Response, ProtocolError> {
    match kind {
        KIND_RESULT => Ok(Response::Result(Arc::new(decode_output(payload)?))),
        KIND_ERROR => {
            let mut c = Cursor::new(payload);
            let code =
                WireErrorCode::from_byte(c.u8()?).ok_or_else(|| malformed("unknown error code"))?;
            let len = c.u32()? as usize;
            let bytes = c.take(len)?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| malformed("error message is not UTF-8"))?
                .to_string();
            c.finish()?;
            Ok(Response::Error(WireError { code, message }))
        }
        KIND_OVERLOADED => {
            let mut c = Cursor::new(payload);
            let queue_depth = c.u32()?;
            let capacity = c.u32()?;
            c.finish()?;
            Ok(Response::Overloaded {
                queue_depth,
                capacity,
            })
        }
        KIND_STATS_REPLY => {
            let mut c = Cursor::new(payload);
            c.what = "stats reply";
            let counters: Vec<u64> = c.column(Some(8))?;
            c.finish()?;
            let [accepted_connections, queries_answered, shed, refused, max_queue_depth, batches, batched_queries, protocol_errors] =
                <[u64; 8]>::try_from(counters).expect("a run of eight reads eight values");
            Ok(Response::Stats(StatsSnapshot {
                accepted_connections,
                queries_answered,
                shed,
                refused,
                max_queue_depth,
                batches,
                batched_queries,
                protocol_errors,
            }))
        }
        KIND_SHUTDOWN_ACK => {
            Cursor::new(payload).finish()?;
            Ok(Response::ShutdownAck)
        }
        other => Err(ProtocolError::UnknownKind(other)),
    }
}

/// Decodes one response frame off the front of `buf`; returns the response
/// and the bytes consumed.
pub fn decode_response(buf: &[u8]) -> Result<(Response, usize), ProtocolError> {
    let (kind, payload, consumed) = decode_frame(buf)?;
    Ok((parse_response(kind, payload)?, consumed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outputs() -> Vec<Arc<AnalyticsOutput>> {
        [
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
        ]
        .map(Arc::new)
        .to_vec()
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Query(QueryRequest {
                task: Task::SequenceCount,
                cfg: TaskConfig { sequence_length: 4 },
                deadline_ms: Some(250),
            }),
            Request::Query(QueryRequest {
                task: Task::WordCount,
                cfg: TaskConfig::default(),
                deadline_ms: None,
            }),
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let bytes = encode_request(&req);
            let (back, consumed) = decode_request(&bytes).expect("round trip");
            assert_eq!(back, req);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn responses_round_trip_byte_identically() {
        let mut resps: Vec<Response> = sample_outputs().into_iter().map(Response::Result).collect();
        resps.push(Response::Error(WireError::new(
            WireErrorCode::DeadlineExceeded,
            "query deadline exceeded",
        )));
        resps.push(Response::Overloaded {
            queue_depth: 7,
            capacity: 8,
        });
        resps.push(Response::Stats(StatsSnapshot {
            accepted_connections: 3,
            queries_answered: 40,
            shed: 2,
            refused: 1,
            max_queue_depth: 6,
            batches: 9,
            batched_queries: 31,
            protocol_errors: 0,
        }));
        resps.push(Response::ShutdownAck);
        for resp in resps {
            let bytes = encode_response(&resp);
            let (back, consumed) = decode_response(&bytes).expect("round trip");
            assert_eq!(consumed, bytes.len());
            assert_eq!(back, resp);
            // Byte-identity: re-encoding the decoded value reproduces the
            // original frame exactly.
            assert_eq!(encode_response(&back), bytes);
        }
    }

    #[test]
    fn digests_survive_the_wire() {
        for out in sample_outputs() {
            let bytes = encode_response(&Response::Result(out.clone()));
            let (back, _) = decode_response(&bytes).expect("decode");
            match back {
                Response::Result(got) => assert_eq!(got.digest(), out.digest()),
                other => panic!("expected a result, got {other:?}"),
            }
        }
    }

    #[test]
    fn computed_payload_length_is_the_encoded_length() {
        for out in sample_outputs() {
            let bytes = encode_response(&Response::Result(Arc::clone(&out)));
            assert_eq!(
                ResultFrame::new(&out).payload_len,
                (bytes.len() - HEADER_LEN) as u64,
                "{}",
                out.task().name()
            );
        }
    }

    #[test]
    fn a_result_beyond_the_frame_cap_is_a_typed_error() {
        let out = &sample_outputs()[0];
        let mut result = ResultFrame::new(out);
        assert!(matches!(
            decode_response(&result.encode()),
            Ok((Response::Result(_), _))
        ));
        // The table itself is tiny; only the length claimed for it is not.
        result.payload_len = u64::from(MAX_PAYLOAD_LEN) + 1;
        let frame = result.encode();
        let (resp, consumed) = decode_response(&frame).expect("a well-formed error frame");
        assert_eq!(consumed, frame.len());
        assert_eq!(
            resp,
            Response::Error(WireError::new(
                WireErrorCode::Internal,
                "result exceeds the frame cap"
            ))
        );
    }

    #[test]
    fn header_errors_are_typed() {
        assert!(matches!(
            decode_header(b"NOPE\x01\x01\x00\x00\x00\x00"),
            Err(ProtocolError::BadMagic(_))
        ));
        let mut wrong_version = encode_request(&Request::Stats);
        wrong_version[4] = 99;
        assert!(matches!(
            decode_header(&wrong_version),
            Err(ProtocolError::UnsupportedVersion(99))
        ));
        // An unknown kind leaves the header parseable (the stream stays in
        // sync); the typed error surfaces at request parse time.
        let mut unknown_kind = encode_request(&Request::Stats);
        unknown_kind[5] = 0x7f;
        assert!(decode_header(&unknown_kind).is_ok());
        assert!(matches!(
            decode_request(&unknown_kind),
            Err(ProtocolError::UnknownKind(0x7f))
        ));
        let mut oversized = encode_request(&Request::Stats);
        oversized[6..10].copy_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
        assert!(matches!(
            decode_header(&oversized),
            Err(ProtocolError::Oversized { .. })
        ));
        assert!(matches!(
            decode_header(&[0u8; 3]),
            Err(ProtocolError::Truncated { .. })
        ));
    }

    #[test]
    fn framing_fatality_is_classified() {
        assert!(is_framing_fatal(&ProtocolError::BadMagic([0; 4])));
        assert!(is_framing_fatal(&ProtocolError::Oversized { declared: 1 }));
        assert!(is_framing_fatal(&ProtocolError::Truncated {
            needed: 10,
            got: 3
        }));
        assert!(!is_framing_fatal(&ProtocolError::UnknownKind(0x7f)));
        assert!(!is_framing_fatal(&ProtocolError::Malformed("x".into())));
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicked() {
        let rejects = |frame: &[u8], defect: &str| match decode_response(frame) {
            Err(ProtocolError::Malformed(why)) => assert!(why.contains(defect), "{why}"),
            other => panic!("expected a malformed payload ({defect}), got {other:?}"),
        };
        let good = encode_response(&Response::Result(Arc::new(AnalyticsOutput::WordCount(
            CountTable::from_sorted_columns(1, vec![1, 5], vec![1, 1]),
        ))));
        // The word run starts right after header + tag + row count (u64):
        // its width byte, 1, then one byte per word.  Rotating the two
        // words reverses their order.
        let base = HEADER_LEN + 1 + 8;
        assert_eq!(good[base..base + 3], [1, 1, 5]);
        let mut swapped = good.clone();
        swapped[base + 1..base + 3].rotate_left(1);
        rejects(&swapped, "keys not strictly ascending");

        // A row count pointing past the payload.
        let mut hungry = good.clone();
        hungry[HEADER_LEN + 1..HEADER_LEN + 9].copy_from_slice(&u64::MAX.to_le_bytes());
        rejects(&hungry, "payload ended early");

        // Trailing garbage after a valid payload (frame len enlarged).
        let mut trailing = good;
        trailing.extend_from_slice(&[0xAA; 4]);
        let new_len = (trailing.len() - HEADER_LEN) as u32;
        trailing[6..10].copy_from_slice(&new_len.to_le_bytes());
        rejects(&trailing, "trailing bytes");
    }

    #[test]
    fn engine_errors_map_to_wire_codes() {
        let all = [
            EngineError::Config(tadoc::ConfigError::ZeroThreads),
            EngineError::InvalidArchive {
                reason: "cycle".into(),
            },
            EngineError::WorkerPanicked {
                message: "boom".into(),
            },
            EngineError::DeadlineExceeded,
            EngineError::Cancelled,
        ];
        for e in &all {
            // No `_` arm: a new `EngineError` variant fails to compile here
            // until it is given a wire code and a row above.
            let expected = match e {
                EngineError::Config(_) => WireErrorCode::Config,
                EngineError::InvalidArchive { .. } => WireErrorCode::InvalidArchive,
                EngineError::WorkerPanicked { .. } => WireErrorCode::WorkerPanicked,
                EngineError::DeadlineExceeded => WireErrorCode::DeadlineExceeded,
                EngineError::Cancelled => WireErrorCode::Cancelled,
            };
            let wire = WireError::from(e);
            assert_eq!(wire.code, expected, "{e}");
            assert_eq!(wire.message, e.to_string());
        }
    }

    #[test]
    fn task_tags_and_error_codes_keep_their_bytes() {
        // A tag is a position in `Task::ALL`: reordering it would move the
        // wire, so the order is pinned here.
        assert_eq!(Task::ALL.map(task_tag), [1, 2, 3, 4, 5, 6]);
        assert_eq!(Task::ALL.map(Task::name)[4], "sequenceCount");
        for tag in [0, 7, 255] {
            assert!(matches!(
                task_from_tag(tag),
                Err(ProtocolError::Malformed(_))
            ));
        }
        for (code, byte) in ERROR_CODES {
            assert_eq!(code.to_byte(), byte);
            assert_eq!(WireErrorCode::from_byte(byte), Some(code));
        }
        let bytes = ERROR_CODES.map(|(_, byte)| byte);
        assert_eq!(bytes, [1, 2, 3, 5, 6, 7, 8, 9]);
        assert_eq!(WireErrorCode::from_byte(4), None);
    }

    #[test]
    fn reserved_error_code_4_is_a_typed_non_fatal_error() {
        let mut frame = encode_response(&Response::Error(WireError::new(
            WireErrorCode::WorkerPanicked,
            "boom",
        )));
        assert_eq!(frame[HEADER_LEN], 3);
        frame[HEADER_LEN] = 4;
        let err = decode_response(&frame).expect_err("code 4 is reserved");
        assert_eq!(err, ProtocolError::Malformed("unknown error code".into()));
        assert!(!is_framing_fatal(&err), "the stream must keep serving");
    }
}
