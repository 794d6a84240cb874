//! WIRE-v1: the versioned, length-prefixed binary protocol the likelihood
//! service (`crates/server`) speaks over TCP and Unix sockets.
//!
//! Every frame is
//!
//! ```text
//! ┌───────────┬─────────┬────────────┬───────────────┬───────────────┬─────────┐
//! │ magic     │ version │ frame type │ session id    │ payload len   │ payload │
//! │ "BGLW" ×4 │ u8 = 1  │ u8         │ u64 LE        │ u32 LE        │ …       │
//! └───────────┴─────────┴────────────┴───────────────┴───────────────┴─────────┘
//! ```
//!
//! (18 header bytes, then `payload len` payload bytes). All integers are
//! little-endian; every `f64` travels as its IEEE-754 bit pattern
//! ([`f64::to_bits`]), so a likelihood computed remotely is **bit-identical**
//! to the same session evaluated in-process — the differential suites assert
//! exactly that.
//!
//! The decoder is total: truncated, oversized, bad-magic, wrong-version, and
//! malformed frames all come back as a typed [`WireError`], never a panic —
//! a listener must survive a port scanner. Claimed lengths are validated
//! against the bytes actually present *before* any allocation, so a frame
//! that lies about its size cannot allocate gigabytes.

use std::fmt;
use std::io::{Read, Write};
use std::time::Duration;

use crate::api::BufferId;
use crate::deadline::Deadline;
use crate::error::{BeagleError, DeviceErrorKind};
use crate::ops::Operation;
use crate::pool::{Lane, SessionRequest};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"BGLW";
/// Protocol version this module encodes and the only one it accepts.
pub const VERSION: u8 = 1;
/// Fixed header size (magic + version + type + session id + payload len).
pub const HEADER_LEN: usize = 4 + 1 + 1 + 8 + 4;
/// Hard cap on a frame's payload. A header claiming more is rejected with
/// [`WireError::Oversized`] before anything is read or allocated.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Nesting bound when decoding recursive [`BeagleError::ChildCreationFailed`]
/// chains: deeper frames are [`WireError::Malformed`], not a stack overflow.
const MAX_ERROR_DEPTH: usize = 8;

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// Why a frame could not be decoded (or moved over a socket).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte was not [`VERSION`].
    BadVersion(u8),
    /// The frame-type byte maps to no known [`FrameType`].
    UnknownFrameType(u8),
    /// The buffer (or stream) ended before the bytes the frame claimed.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The header claimed a payload larger than [`MAX_PAYLOAD`].
    Oversized {
        /// Claimed payload length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// Structurally invalid payload (bad tag, bad UTF-8, trailing bytes…).
    Malformed(&'static str),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// An OS-level socket failure, stringly (keeps the type `Clone + Eq`).
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: payload {len} exceeds cap {max}")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Frame types and bodies.
// ---------------------------------------------------------------------------

/// The frame-type byte. Client→server: `Submit`, `StatsRequest`, `Drain`.
/// Server→client: everything else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// A likelihood session to evaluate.
    Submit = 1,
    /// The session's root log-likelihood (bit pattern).
    Result = 2,
    /// The server refused the session without queueing it.
    Busy = 3,
    /// The session ran and failed; carries the typed [`BeagleError`].
    Error = 4,
    /// Ask for a [`FrameType::Stats`] snapshot.
    StatsRequest = 5,
    /// JSON snapshot: server counters + pool stats + kernels + health.
    Stats = 6,
    /// Ask the server to drain: finish in-flight work, then shut down.
    Drain = 7,
    /// Drain finished; reports whether every queued session completed.
    DrainAck = 8,
}

impl FrameType {
    fn from_u8(byte: u8) -> Result<Self, WireError> {
        Ok(match byte {
            1 => FrameType::Submit,
            2 => FrameType::Result,
            3 => FrameType::Busy,
            4 => FrameType::Error,
            5 => FrameType::StatsRequest,
            6 => FrameType::Stats,
            7 => FrameType::Drain,
            8 => FrameType::DrainAck,
            other => return Err(WireError::UnknownFrameType(other)),
        })
    }
}

/// Why the server answered [`Frame::Busy`] instead of queueing a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum BusyReason {
    /// This client already has its maximum number of sessions in flight.
    ClientCap = 0,
    /// The pool's bounded queue was full ([`crate::pool::PoolError::Full`]).
    PoolFull = 1,
    /// The server is draining and accepts no new work.
    Draining = 2,
}

impl BusyReason {
    fn from_u8(byte: u8) -> Result<Self, WireError> {
        Ok(match byte {
            0 => BusyReason::ClientCap,
            1 => BusyReason::PoolFull,
            2 => BusyReason::Draining,
            _ => return Err(WireError::Malformed("unknown busy reason")),
        })
    }
}

impl fmt::Display for BusyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BusyReason::ClientCap => "per-client in-flight cap reached",
            BusyReason::PoolFull => "pool queue full",
            BusyReason::Draining => "server draining",
        })
    }
}

/// A decoded frame body. The session id travels in the header (see
/// [`read_frame`] / [`write_frame`]), not here.
#[derive(Clone, Debug)]
pub enum Frame {
    /// Evaluate `session` on `lane`.
    Submit {
        /// Scheduling lane for the embedded pool.
        lane: Lane,
        /// The self-contained session (its optional per-request
        /// [`SessionRequest::deadline`] rides along). Boxed so the frame
        /// enum stays small for the common response variants.
        session: Box<SessionRequest>,
    },
    /// Root log-likelihood, bit-exact.
    Result(f64),
    /// Session refused; retry later (or elsewhere).
    Busy(BusyReason),
    /// Session failed with a typed library error.
    Error(BeagleError),
    /// Request a stats snapshot.
    StatsRequest,
    /// Stats snapshot as a JSON document.
    Stats(String),
    /// Request a graceful drain.
    Drain,
    /// Drain completed. `drained` is false if the drain deadline expired
    /// with sessions still queued (their clients got [`Frame::Error`]s).
    DrainAck {
        /// Did every accepted session finish?
        drained: bool,
    },
}

impl Frame {
    /// The type byte this body encodes as.
    pub fn frame_type(&self) -> FrameType {
        match self {
            Frame::Submit { .. } => FrameType::Submit,
            Frame::Result(_) => FrameType::Result,
            Frame::Busy(_) => FrameType::Busy,
            Frame::Error(_) => FrameType::Error,
            Frame::StatsRequest => FrameType::StatsRequest,
            Frame::Stats(_) => FrameType::Stats,
            Frame::Drain => FrameType::Drain,
            Frame::DrainAck { .. } => FrameType::DrainAck,
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Length prefix, then each element's little-endian bytes written into one
/// block grown once — no per-element capacity check.
fn put_vec<const N: usize, T: Copy>(buf: &mut Vec<u8>, v: &[T], bytes: impl Fn(T) -> [u8; N]) {
    put_u32(buf, v.len() as u32);
    let start = buf.len();
    buf.resize(start + N * v.len(), 0);
    for (dst, &x) in buf[start..].chunks_exact_mut(N).zip(v) {
        dst.copy_from_slice(&bytes(x));
    }
}

fn put_vec_f64(buf: &mut Vec<u8>, v: &[f64]) {
    put_vec(buf, v, |x| x.to_bits().to_le_bytes());
}

fn put_vec_u32(buf: &mut Vec<u8>, v: &[u32]) {
    put_vec(buf, v, u32::to_le_bytes);
}

fn encode_session(buf: &mut Vec<u8>, s: &SessionRequest) {
    put_u32(buf, s.tip_states.len() as u32);
    for tip in &s.tip_states {
        put_vec_u32(buf, tip);
    }
    put_vec_f64(buf, &s.pattern_weights);
    put_vec_f64(buf, &s.category_rates);
    put_vec_f64(buf, &s.category_weights);
    put_vec_f64(buf, &s.frequencies);
    match &s.eigen {
        Some((vectors, inverse, values)) => {
            buf.push(1);
            put_vec_f64(buf, vectors);
            put_vec_f64(buf, inverse);
            put_vec_f64(buf, values);
        }
        None => buf.push(0),
    }
    put_u32(buf, s.matrices.len() as u32);
    for &(index, length) in &s.matrices {
        put_u64(buf, index as u64);
        put_f64(buf, length);
    }
    put_u32(buf, s.operations.len() as u32);
    for op in &s.operations {
        put_u64(buf, op.destination as u64);
        match op.dest_scale_write {
            Some(scale) => {
                buf.push(1);
                put_u64(buf, scale as u64);
            }
            None => {
                buf.push(0);
                put_u64(buf, 0);
            }
        }
        put_u64(buf, op.child1 as u64);
        put_u64(buf, op.child1_matrix as u64);
        put_u64(buf, op.child2 as u64);
        put_u64(buf, op.child2_matrix as u64);
    }
    put_u64(buf, s.root.0 as u64);
    buf.push(s.scaled as u8);
    // Deadline budget in microseconds; 0 means "no per-request deadline"
    // (a zero-budget deadline is not representable on the wire — it would
    // cancel every call anyway).
    put_u64(buf, s.deadline.map_or(0, |d| d.budget().as_micros() as u64));
}

fn encode_error(buf: &mut Vec<u8>, e: &BeagleError) {
    match e {
        BeagleError::OutOfRange { what, index, limit } => {
            buf.push(0);
            put_str(buf, what);
            put_u64(buf, *index as u64);
            put_u64(buf, *limit as u64);
        }
        BeagleError::DimensionMismatch {
            what,
            expected,
            got,
        } => {
            buf.push(1);
            put_str(buf, what);
            put_u64(buf, *expected as u64);
            put_u64(buf, *got as u64);
        }
        BeagleError::InvalidConfiguration(msg) => {
            buf.push(2);
            put_str(buf, msg);
        }
        BeagleError::NoImplementationFound => buf.push(3),
        BeagleError::Unsupported(msg) => {
            buf.push(4);
            put_str(buf, msg);
        }
        BeagleError::NumericalFailure(msg) => {
            buf.push(5);
            put_str(buf, msg);
        }
        BeagleError::Device {
            kind,
            transient,
            device,
        } => {
            buf.push(6);
            buf.push(match kind {
                DeviceErrorKind::LaunchFailed => 0,
                DeviceErrorKind::AllocationFailed => 1,
                DeviceErrorKind::DeviceLost => 2,
                DeviceErrorKind::MemoryCorruption => 3,
            });
            buf.push(*transient as u8);
            put_str(buf, device);
        }
        BeagleError::ResourceExhausted { what } => {
            buf.push(7);
            put_str(buf, what);
        }
        BeagleError::Timeout { what } => {
            buf.push(8);
            put_str(buf, what);
        }
        BeagleError::CheckpointCorrupt(msg) => {
            buf.push(9);
            put_str(buf, msg);
        }
        BeagleError::CheckpointIo(msg) => {
            buf.push(10);
            put_str(buf, msg);
        }
        BeagleError::ChildCreationFailed {
            child,
            device,
            source,
        } => {
            buf.push(11);
            put_u64(buf, *child as u64);
            put_str(buf, device);
            encode_error(buf, source);
        }
    }
}

/// Exact encoded size of a session body, so a Submit frame is written into
/// one buffer allocated once.
fn session_len(s: &SessionRequest) -> usize {
    let vec_f64 = |v: &[f64]| 4 + 8 * v.len();
    let tips: usize = s.tip_states.iter().map(|t| 4 + 4 * t.len()).sum();
    let eigen = s
        .eigen
        .as_ref()
        .map_or(0, |(v, i, l)| vec_f64(v) + vec_f64(i) + vec_f64(l));
    // Per operation: destination, scale flag + index, two (child, matrix).
    let op_len = 8 + 1 + 8 + 4 * 8;
    4 + tips
        + vec_f64(&s.pattern_weights)
        + vec_f64(&s.category_rates)
        + vec_f64(&s.category_weights)
        + vec_f64(&s.frequencies)
        + 1
        + eigen
        + 4
        + 16 * s.matrices.len()
        + 4
        + op_len * s.operations.len()
        + 8
        + 1
        + 8
}

fn put_submit(buf: &mut Vec<u8>, lane: Lane, session: &SessionRequest) {
    buf.push(match lane {
        Lane::Interactive => 0,
        Lane::Batch => 1,
    });
    encode_session(buf, session);
}

fn encode_payload(buf: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Submit { lane, session } => put_submit(buf, *lane, session),
        Frame::Result(lnl) => put_f64(buf, *lnl),
        Frame::Busy(reason) => buf.push(*reason as u8),
        Frame::Error(e) => encode_error(buf, e),
        Frame::StatsRequest | Frame::Drain => {}
        Frame::Stats(json) => put_str(buf, json),
        Frame::DrainAck { drained } => buf.push(*drained as u8),
    }
}

/// One frame in a buffer of `payload_hint` payload bytes: the header with a
/// zero length, then whatever `payload` appends, then the real length
/// written back into the header. The payload is never copied.
fn frame_bytes(
    session_id: u64,
    frame_type: FrameType,
    payload_hint: usize,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload_hint);
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(frame_type as u8);
    put_u64(&mut buf, session_id);
    put_u32(&mut buf, 0);
    payload(&mut buf);
    let len = (buf.len() - HEADER_LEN) as u32;
    buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    buf
}

/// Encode one complete frame (header + payload) into a byte vector.
pub fn encode_frame(session_id: u64, frame: &Frame) -> Vec<u8> {
    let hint = match frame {
        Frame::Submit { session, .. } => 1 + session_len(session),
        _ => 0,
    };
    frame_bytes(session_id, frame.frame_type(), hint, |buf| {
        encode_payload(buf, frame)
    })
}

/// Encode a Submit frame from a borrowed session — byte for byte what
/// [`encode_frame`] makes of `Frame::Submit { lane, session }`, without
/// cloning the session into a frame first.
fn encode_submit(session_id: u64, lane: Lane, session: &SessionRequest) -> Vec<u8> {
    frame_bytes(
        session_id,
        FrameType::Submit,
        1 + session_len(session),
        |buf| put_submit(buf, lane, session),
    )
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a byte slice. Every read
/// validates availability first, so decoding cannot panic; length-prefixed
/// collections validate `count × element size ≤ remaining` *before*
/// allocating.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.remaining() < n {
            Err(WireError::Truncated {
                needed: n,
                got: self.remaining(),
            })
        } else {
            Ok(())
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.need(n)?;
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("boolean byte not 0 or 1")),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Malformed("index exceeds usize"))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length prefix for a collection of `elem_size`-byte elements, checked
    /// against the bytes actually left in the buffer.
    fn len_prefix(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        let bytes = count.saturating_mul(elem_size);
        self.need(bytes)?;
        Ok(count)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.len_prefix(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("string not UTF-8"))
    }

    /// A length-prefixed collection of `N`-byte elements, taken as one
    /// validated block and converted element by element.
    fn vec<const N: usize, T>(&mut self, from: impl Fn([u8; N]) -> T) -> Result<Vec<T>, WireError> {
        let count = self.len_prefix(N)?;
        let block = self.take(count * N)?;
        Ok(block
            .chunks_exact(N)
            .map(|b| from(b.try_into().expect("chunks_exact yields N bytes")))
            .collect())
    }

    fn vec_f64(&mut self) -> Result<Vec<f64>, WireError> {
        self.vec(|b| f64::from_bits(u64::from_le_bytes(b)))
    }

    fn vec_u32(&mut self) -> Result<Vec<u32>, WireError> {
        self.vec(u32::from_le_bytes)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

/// Remote errors arrive with owned strings where the in-process error type
/// holds `&'static str` diagnostics. The strings are tiny (field names like
/// "partials buffer") and error frames are rare, so leaking them restores
/// the exact in-process type; [`MAX_PAYLOAD`] bounds what a hostile peer
/// could make us retain per frame.
fn leak_str(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

fn decode_error(c: &mut Cursor<'_>, depth: usize) -> Result<BeagleError, WireError> {
    if depth > MAX_ERROR_DEPTH {
        return Err(WireError::Malformed("error chain nested too deep"));
    }
    Ok(match c.u8()? {
        0 => BeagleError::OutOfRange {
            what: leak_str(c.string()?),
            index: c.usize()?,
            limit: c.usize()?,
        },
        1 => BeagleError::DimensionMismatch {
            what: leak_str(c.string()?),
            expected: c.usize()?,
            got: c.usize()?,
        },
        2 => BeagleError::InvalidConfiguration(c.string()?),
        3 => BeagleError::NoImplementationFound,
        4 => BeagleError::Unsupported(c.string()?),
        5 => BeagleError::NumericalFailure(c.string()?),
        6 => {
            let kind = match c.u8()? {
                0 => DeviceErrorKind::LaunchFailed,
                1 => DeviceErrorKind::AllocationFailed,
                2 => DeviceErrorKind::DeviceLost,
                3 => DeviceErrorKind::MemoryCorruption,
                _ => return Err(WireError::Malformed("unknown device error kind")),
            };
            BeagleError::Device {
                kind,
                transient: c.bool()?,
                device: c.string()?,
            }
        }
        7 => BeagleError::ResourceExhausted { what: c.string()? },
        8 => BeagleError::Timeout { what: c.string()? },
        9 => BeagleError::CheckpointCorrupt(c.string()?),
        10 => BeagleError::CheckpointIo(c.string()?),
        11 => BeagleError::ChildCreationFailed {
            child: c.usize()?,
            device: c.string()?,
            source: Box::new(decode_error(c, depth + 1)?),
        },
        _ => return Err(WireError::Malformed("unknown error tag")),
    })
}

fn decode_session(c: &mut Cursor<'_>) -> Result<SessionRequest, WireError> {
    // Tip vectors: at least a 4-byte length each.
    let tips = c.len_prefix(4)?;
    let tip_states = (0..tips)
        .map(|_| c.vec_u32())
        .collect::<Result<Vec<_>, _>>()?;
    let pattern_weights = c.vec_f64()?;
    let category_rates = c.vec_f64()?;
    let category_weights = c.vec_f64()?;
    let frequencies = c.vec_f64()?;
    let eigen = if c.bool()? {
        Some((c.vec_f64()?, c.vec_f64()?, c.vec_f64()?))
    } else {
        None
    };
    let n_matrices = c.len_prefix(16)?;
    let matrices = (0..n_matrices)
        .map(|_| Ok((c.usize()?, c.f64()?)))
        .collect::<Result<Vec<_>, WireError>>()?;
    // 49 bytes per operation: dest + flag + scale + 4 indices.
    let n_ops = c.len_prefix(49)?;
    let operations = (0..n_ops)
        .map(|_| {
            let destination = c.usize()?;
            let has_scale = c.bool()?;
            let scale = c.usize()?;
            Ok(Operation {
                destination,
                dest_scale_write: has_scale.then_some(scale),
                child1: c.usize()?,
                child1_matrix: c.usize()?,
                child2: c.usize()?,
                child2_matrix: c.usize()?,
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    let root = BufferId(c.usize()?);
    let scaled = c.bool()?;
    let deadline_micros = c.u64()?;
    Ok(SessionRequest {
        tip_states,
        pattern_weights,
        category_rates,
        category_weights,
        frequencies,
        eigen,
        matrices,
        operations,
        root,
        scaled,
        deadline: (deadline_micros > 0)
            .then(|| Deadline::new(Duration::from_micros(deadline_micros))),
    })
}

fn decode_payload(frame_type: FrameType, payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor::new(payload);
    let frame = match frame_type {
        FrameType::Submit => {
            let lane = match c.u8()? {
                0 => Lane::Interactive,
                1 => Lane::Batch,
                _ => return Err(WireError::Malformed("unknown lane")),
            };
            Frame::Submit {
                lane,
                session: Box::new(decode_session(&mut c)?),
            }
        }
        FrameType::Result => Frame::Result(c.f64()?),
        FrameType::Busy => Frame::Busy(BusyReason::from_u8(c.u8()?)?),
        FrameType::Error => Frame::Error(decode_error(&mut c, 0)?),
        FrameType::StatsRequest => Frame::StatsRequest,
        FrameType::Stats => Frame::Stats(c.string()?),
        FrameType::Drain => Frame::Drain,
        FrameType::DrainAck => Frame::DrainAck { drained: c.bool()? },
    };
    c.finish()?;
    Ok(frame)
}

/// Parse and validate the 18-byte header. Returns the frame type, session
/// id, and claimed payload length.
pub fn decode_header(header: &[u8]) -> Result<(FrameType, u64, u32), WireError> {
    let mut c = Cursor::new(header);
    let magic = c.take(4)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic([
            magic[0], magic[1], magic[2], magic[3],
        ]));
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let frame_type = FrameType::from_u8(c.u8()?)?;
    let session_id = c.u64()?;
    let len = c.u32()?;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    Ok((frame_type, session_id, len))
}

/// Decode one complete frame from the front of `bytes`. Returns the session
/// id, the frame, and the number of bytes consumed (so concatenated frames
/// decode sequentially). Never panics, whatever the input.
pub fn decode_frame(bytes: &[u8]) -> Result<(u64, Frame, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    let (frame_type, session_id, len) = decode_header(&bytes[..HEADER_LEN])?;
    let total = HEADER_LEN + len as usize;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            got: bytes.len(),
        });
    }
    let frame = decode_payload(frame_type, &bytes[HEADER_LEN..total])?;
    Ok((session_id, frame, total))
}

// ---------------------------------------------------------------------------
// Stream I/O.
// ---------------------------------------------------------------------------

fn io_err(e: std::io::Error) -> WireError {
    WireError::Io(e.to_string())
}

/// Read exactly `buf.len()` bytes. `at_boundary` distinguishes a clean EOF
/// before any byte (a closed connection) from one mid-frame (truncation).
fn read_exact_or(
    reader: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated {
                        needed: buf.len(),
                        got: filled,
                    }
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(e)),
        }
    }
    Ok(())
}

/// Read one frame from a stream. [`WireError::Closed`] means the peer hung
/// up cleanly between frames; every other error is a real protocol or
/// socket failure.
pub fn read_frame(reader: &mut impl Read) -> Result<(u64, Frame), WireError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_or(reader, &mut header, true)?;
    let (frame_type, session_id, len) = decode_header(&header)?;
    let mut payload = vec![0u8; len as usize];
    read_exact_or(reader, &mut payload, false)?;
    Ok((session_id, decode_payload(frame_type, &payload)?))
}

fn write_bytes(writer: &mut impl Write, bytes: &[u8]) -> Result<(), WireError> {
    writer.write_all(bytes).map_err(io_err)?;
    writer.flush().map_err(io_err)
}

/// Write one frame to a stream and flush it.
pub fn write_frame(
    writer: &mut impl Write,
    session_id: u64,
    frame: &Frame,
) -> Result<(), WireError> {
    write_bytes(writer, &encode_frame(session_id, frame))
}

/// Write a Submit frame for a borrowed session and flush it: the bytes
/// [`write_frame`] writes for `Frame::Submit { lane, session }`, encoded
/// without cloning the session into a frame first.
pub fn write_submit(
    writer: &mut impl Write,
    session_id: u64,
    lane: Lane,
    session: &SessionRequest,
) -> Result<(), WireError> {
    write_bytes(writer, &encode_submit(session_id, lane, session))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_session() -> SessionRequest {
        SessionRequest {
            tip_states: vec![vec![0, 1, 2, crate::GAP_STATE], vec![3, 2, 1, 0]],
            pattern_weights: vec![1.0, 2.0, 1.0, 3.0],
            category_rates: vec![0.5, 1.5],
            category_weights: vec![0.5, 0.5],
            frequencies: vec![0.1, 0.2, 0.3, 0.4],
            eigen: Some((vec![1.0; 16], vec![2.0; 16], vec![0.0, -1.0, -2.0, -3.0])),
            matrices: vec![(0, 0.1), (1, 0.25)],
            operations: vec![
                Operation::new(2, 0, 0, 1, 1),
                Operation::new(3, 2, 0, 1, 1).with_scaling(3),
            ],
            root: BufferId(3),
            scaled: true,
            deadline: Some(Deadline::new(Duration::from_millis(250))),
        }
    }

    #[test]
    fn borrowed_submit_encoder_matches_encode_frame() {
        let full = sample_session();
        let bare = SessionRequest {
            eigen: None,
            deadline: None,
            ..sample_session()
        };
        for session in [full, bare] {
            for lane in [Lane::Interactive, Lane::Batch] {
                let owned = encode_frame(
                    42,
                    &Frame::Submit {
                        lane,
                        session: Box::new(session.clone()),
                    },
                );
                assert_eq!(encode_submit(42, lane, &session), owned);
                let mut written = Vec::new();
                write_submit(&mut written, 42, lane, &session).unwrap();
                assert_eq!(written, owned);
                assert_eq!(
                    owned.len(),
                    HEADER_LEN + 1 + session_len(&session),
                    "the size hint is exact, so the frame is allocated once"
                );
            }
        }
    }

    fn round_trip(frame: &Frame, sid: u64) -> (u64, Frame) {
        let bytes = encode_frame(sid, frame);
        let (got_sid, got, consumed) = decode_frame(&bytes).expect("round trip decodes");
        assert_eq!(consumed, bytes.len(), "frame must consume exactly itself");
        (got_sid, got)
    }

    #[test]
    fn submit_round_trips_bit_exactly() {
        let session = sample_session();
        let (sid, frame) = round_trip(
            &Frame::Submit {
                lane: Lane::Batch,
                session: Box::new(session.clone()),
            },
            42,
        );
        assert_eq!(sid, 42);
        let Frame::Submit { lane, session: got } = frame else {
            panic!("wrong frame type");
        };
        assert_eq!(lane, Lane::Batch);
        assert_eq!(got.tip_states, session.tip_states);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.pattern_weights), bits(&session.pattern_weights));
        assert_eq!(bits(&got.frequencies), bits(&session.frequencies));
        assert_eq!(
            bits(&got.eigen.as_ref().unwrap().0),
            bits(&session.eigen.as_ref().unwrap().0)
        );
        assert_eq!(got.matrices, session.matrices);
        assert_eq!(got.operations, session.operations);
        assert_eq!(got.root, session.root);
        assert_eq!(got.scaled, session.scaled);
        assert_eq!(
            got.deadline.unwrap().budget(),
            Duration::from_millis(250),
            "per-request deadline must survive the wire"
        );
    }

    #[test]
    fn result_preserves_bit_pattern() {
        // A likelihood with a messy mantissa — the exact bits must survive.
        let lnl = -12345.678901234567_f64;
        let (_, frame) = round_trip(&Frame::Result(lnl), 7);
        let Frame::Result(got) = frame else {
            panic!("wrong frame type");
        };
        assert_eq!(got.to_bits(), lnl.to_bits());
    }

    #[test]
    fn every_error_variant_round_trips() {
        let errors = vec![
            BeagleError::OutOfRange {
                what: "partials buffer",
                index: 9,
                limit: 4,
            },
            BeagleError::DimensionMismatch {
                what: "tip partials",
                expected: 800,
                got: 400,
            },
            BeagleError::InvalidConfiguration("zero patterns".into()),
            BeagleError::NoImplementationFound,
            BeagleError::Unsupported("derivatives on CPU-serial".into()),
            BeagleError::NumericalFailure("NaN at root".into()),
            BeagleError::Device {
                kind: DeviceErrorKind::DeviceLost,
                transient: false,
                device: "Radeon".into(),
            },
            BeagleError::ResourceExhausted {
                what: "device memory".into(),
            },
            BeagleError::Timeout {
                what: "update_partials on Quadro".into(),
            },
            BeagleError::CheckpointCorrupt("hash mismatch".into()),
            BeagleError::CheckpointIo("disk full".into()),
            BeagleError::ChildCreationFailed {
                child: 1,
                device: "prefer=CUDA require=GPU".into(),
                source: Box::new(BeagleError::NoImplementationFound),
            },
        ];
        for e in errors {
            let (_, frame) = round_trip(&Frame::Error(e.clone()), 1);
            let Frame::Error(got) = frame else {
                panic!("wrong frame type");
            };
            assert_eq!(format!("{got}"), format!("{e}"), "error must survive");
        }
    }

    #[test]
    fn admin_frames_round_trip() {
        for (frame, sid) in [
            (Frame::StatsRequest, 1),
            (Frame::Stats("{\"pool\":{}}".into()), 2),
            (Frame::Drain, 3),
            (Frame::DrainAck { drained: true }, 4),
            (Frame::Busy(BusyReason::PoolFull), 5),
        ] {
            let (got_sid, got) = round_trip(&frame, sid);
            assert_eq!(got_sid, sid);
            assert_eq!(got.frame_type(), frame.frame_type());
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_frame(1, &Frame::Drain);
        bytes[0] = b'X';
        assert!(matches!(decode_frame(&bytes), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encode_frame(1, &Frame::Drain);
        bytes[4] = 99;
        assert_eq!(decode_frame(&bytes).unwrap_err(), WireError::BadVersion(99));
    }

    #[test]
    fn unknown_frame_type_is_rejected() {
        let mut bytes = encode_frame(1, &Frame::Drain);
        bytes[5] = 200;
        assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            WireError::UnknownFrameType(200)
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = encode_frame(
            11,
            &Frame::Submit {
                lane: Lane::Interactive,
                session: Box::new(sample_session()),
            },
        );
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_claim_is_rejected_before_allocation() {
        let mut bytes = encode_frame(1, &Frame::Drain);
        let huge = (MAX_PAYLOAD + 1).to_le_bytes();
        bytes[14..18].copy_from_slice(&huge);
        assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            WireError::Oversized {
                len: MAX_PAYLOAD + 1,
                max: MAX_PAYLOAD,
            }
        );
    }

    #[test]
    fn lying_interior_length_cannot_allocate() {
        // A Stats frame whose string claims 4 GiB but whose payload is tiny:
        // the length check must fire before the allocation.
        let mut payload = Vec::new();
        put_u32(&mut payload, u32::MAX);
        payload.extend_from_slice(b"tiny");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(FrameType::Stats as u8);
        put_u64(&mut bytes, 1);
        put_u32(&mut bytes, payload.len() as u32);
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut payload_and_junk = encode_frame(1, &Frame::DrainAck { drained: false });
        // Grow the declared payload by one junk byte.
        payload_and_junk.push(0xAB);
        let len = 2u32.to_le_bytes();
        payload_and_junk[14..18].copy_from_slice(&len);
        assert_eq!(
            decode_frame(&payload_and_junk).unwrap_err(),
            WireError::Malformed("trailing bytes after payload")
        );
    }

    #[test]
    fn concatenated_frames_decode_sequentially() {
        let mut bytes = encode_frame(1, &Frame::Result(1.5));
        bytes.extend_from_slice(&encode_frame(2, &Frame::Drain));
        let (sid1, _, used) = decode_frame(&bytes).unwrap();
        let (sid2, _, _) = decode_frame(&bytes[used..]).unwrap();
        assert_eq!((sid1, sid2), (1, 2));
    }

    #[test]
    fn stream_round_trip_over_a_buffer() {
        let frame = Frame::Submit {
            lane: Lane::Interactive,
            session: Box::new(sample_session()),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, 9, &frame).unwrap();
        let (sid, got) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(sid, 9);
        assert_eq!(got.frame_type(), FrameType::Submit);
        // A drained stream reports a clean close, not truncation.
        assert_eq!(
            read_frame(&mut [].as_slice()).unwrap_err(),
            WireError::Closed
        );
    }
}
