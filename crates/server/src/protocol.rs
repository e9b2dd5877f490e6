//! The length-prefixed wire protocol.
//!
//! Every message — request or response — travels as one *frame*:
//!
//! ```text
//! [u32 payload length, big-endian][payload bytes]
//! ```
//!
//! Request payloads are `[u64 request id][u8 opcode][opcode body]`;
//! response payloads are `[u64 request id][u8 status][status body]`.
//! All integers are big-endian; all strings are length-prefixed UTF-8.
//! The request id is an opaque client-chosen correlation token echoed
//! verbatim in the response, so a client may pipeline requests.
//!
//! Decoding is defensive by construction: a frame is read fully off the
//! wire *before* any of it is interpreted, so a malformed payload can
//! never desynchronize the stream — the server answers a typed
//! [`ErrorKind::Protocol`] error and keeps the session alive. The only
//! unrecoverable input is a frame header whose length exceeds
//! [`MAX_FRAME_LEN`] (the remaining stream cannot be re-framed; the
//! connection is answered then closed).

use pictorial_relational::Value;
use psql::result::Highlight;
use psql::{PsqlError, ResultSet};
use rtree_geom::{Point, Region, Segment, SpatialObject};
use std::io::{self, Write};

/// Hard ceiling on a frame's payload size (1 MiB). A header announcing
/// more than this is treated as garbage, not as a gigantic allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute a PSQL query. `timeout_ms == 0` means "use the server's
    /// default deadline".
    Query {
        /// Correlation id echoed in the response.
        id: u64,
        /// Per-request deadline override in milliseconds (0 = default).
        timeout_ms: u32,
        /// PSQL query text.
        text: String,
    },
    /// Fetch the metrics registry as JSON.
    Stats {
        /// Correlation id echoed in the response.
        id: u64,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id echoed in the response.
        id: u64,
    },
    /// Admin: rebuild every picture's packed R-tree and publish the
    /// result as a new snapshot.
    Repack {
        /// Correlation id echoed in the response.
        id: u64,
    },
    /// Admin: begin graceful shutdown (drain in-flight queries).
    Shutdown {
        /// Correlation id echoed in the response.
        id: u64,
    },
    /// Insert one spatial object into a picture. Rides the worker pool
    /// like a query; acknowledged with [`Response::Done`] only after the
    /// write is durable in the server's WAL (when one is configured) and
    /// published in a fresh snapshot.
    Insert {
        /// Correlation id echoed in the response.
        id: u64,
        /// Target picture name.
        picture: String,
        /// Object label.
        label: String,
        /// The object to insert.
        object: SpatialObject,
    },
}

const OP_QUERY: u8 = 1;
const OP_STATS: u8 = 2;
const OP_PING: u8 = 3;
const OP_REPACK: u8 = 4;
const OP_SHUTDOWN: u8 = 5;
const OP_INSERT: u8 = 6;

/// Classifies an error reported over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// PSQL lexical error.
    Lex,
    /// PSQL syntax error.
    Parse,
    /// PSQL semantic error.
    Semantic,
    /// Error from the relational substrate.
    Relational,
    /// Malformed wire input (bad frame payload, junk opcode, invalid
    /// UTF-8, …).
    Protocol,
    /// Server-side failure (a panic contained by the worker, shutdown
    /// race, …).
    Internal,
}

impl ErrorKind {
    fn to_u8(self) -> u8 {
        match self {
            ErrorKind::Lex => 0,
            ErrorKind::Parse => 1,
            ErrorKind::Semantic => 2,
            ErrorKind::Relational => 3,
            ErrorKind::Protocol => 4,
            ErrorKind::Internal => 5,
        }
    }

    fn from_u8(b: u8) -> Result<Self, String> {
        Ok(match b {
            0 => ErrorKind::Lex,
            1 => ErrorKind::Parse,
            2 => ErrorKind::Semantic,
            3 => ErrorKind::Relational,
            4 => ErrorKind::Protocol,
            5 => ErrorKind::Internal,
            _ => return Err(format!("unknown error kind {b}")),
        })
    }
}

impl From<&PsqlError> for ErrorKind {
    fn from(e: &PsqlError) -> Self {
        match e {
            PsqlError::Lex(_) => ErrorKind::Lex,
            PsqlError::Parse(_) => ErrorKind::Parse,
            PsqlError::Semantic(_) => ErrorKind::Semantic,
            PsqlError::Relational(_) => ErrorKind::Relational,
            PsqlError::Internal(_) => ErrorKind::Internal,
        }
    }
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A successful query result, stamped with the epoch of the snapshot
    /// it was computed against.
    Result {
        /// Correlation id of the request.
        id: u64,
        /// Snapshot epoch the query ran against.
        epoch: u64,
        /// The alphanumeric + pictorial result.
        result: ResultSet,
    },
    /// A typed error.
    Error {
        /// Correlation id of the request (0 if it could not be parsed).
        id: u64,
        /// Error class.
        kind: ErrorKind,
        /// Human-readable message.
        message: String,
    },
    /// The request's deadline expired before (or while) it ran.
    Timeout {
        /// Correlation id of the request.
        id: u64,
    },
    /// Backpressure: the request queue is full; retry after the hinted
    /// delay.
    Overloaded {
        /// Correlation id of the request.
        id: u64,
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u32,
    },
    /// Answer to [`Request::Ping`].
    Pong {
        /// Correlation id of the request.
        id: u64,
    },
    /// Answer to [`Request::Stats`]: the metrics registry as JSON.
    Stats {
        /// Correlation id of the request.
        id: u64,
        /// Metrics snapshot, JSON text.
        json: String,
    },
    /// Acknowledgement of an admin request (repack / shutdown), carrying
    /// the now-current snapshot epoch.
    Done {
        /// Correlation id of the request.
        id: u64,
        /// Snapshot epoch after the admin action.
        epoch: u64,
    },
}

const ST_RESULT: u8 = 0;
const ST_ERROR: u8 = 1;
const ST_TIMEOUT: u8 = 2;
const ST_OVERLOADED: u8 = 3;
const ST_PONG: u8 = 4;
const ST_STATS: u8 = 5;
const ST_DONE: u8 = 6;

// ---------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------

/// Incremental frame reassembly: the one frame reader, for the server's
/// event loop and the blocking [`Client`](crate::Client) alike.
///
/// A reader receives arbitrary byte chunks as the socket yields them.
/// `FrameDecoder` buffers those chunks and yields complete frame
/// payloads as they materialize — a frame may arrive one byte at a time
/// across many reads, or many frames may land in a single `read`.
///
/// A header announcing more than [`MAX_FRAME_LEN`] bytes poisons the
/// decoder permanently (the remaining stream cannot be re-framed); the
/// caller reports the error and closes the connection.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`; consumed prefixes
    /// are compacted away lazily to keep `extend` O(1) amortized.
    start: usize,
    poisoned: bool,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends freshly-read bytes from the socket.
    pub fn extend(&mut self, chunk: &[u8]) {
        if self.poisoned {
            return;
        }
        // Compact once the dead prefix dominates the buffer, so a
        // long-lived connection doesn't accrete every frame it ever saw.
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Yields the next complete frame payload, if one is buffered.
    ///
    /// `Ok(None)` means "need more bytes"; `Err(len)` means a header
    /// claimed `len > MAX_FRAME_LEN` bytes and the stream is
    /// unrecoverable (the decoder stays poisoned).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, u32> {
        if self.poisoned {
            return Ok(None);
        }
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len > MAX_FRAME_LEN {
            self.poisoned = true;
            return Err(len);
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = avail[4..total].to_vec();
        self.start += total;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(payload))
    }

    /// `true` when bytes of an incomplete frame are buffered — EOF now
    /// means the peer died mid-frame, not a clean close.
    pub fn mid_frame(&self) -> bool {
        !self.poisoned && self.start < self.buf.len()
    }

    /// `true` after an oversized header made the stream unrecoverable.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

/// Writes `payload` as one frame.
pub fn write_frame<W: Write>(stream: &mut W, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() as u64 <= MAX_FRAME_LEN as u64);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)?;
    stream.flush()
}

// ---------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Bytes left between the cursor and the end of the payload. Any
    /// count field claiming more elements than could possibly fit in
    /// this many bytes is lying; see [`Cursor::check_count`].
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Guards an attacker-controlled element count *before* it sizes an
    /// allocation: each element occupies at least `min_bytes` on the
    /// wire, so `n` elements cannot be honest unless `n * min_bytes`
    /// bytes remain.
    fn check_count(&self, n: usize, min_bytes: usize, what: &str) -> Result<(), String> {
        if n.saturating_mul(min_bytes) > self.remaining() {
            return Err(format!(
                "claimed {n} {what} cannot fit in {} remaining bytes",
                self.remaining()
            ));
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        self.take(N)?
            .try_into()
            .map_err(|_| "internal cursor size mismatch".to_owned())
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 in string".to_owned())
    }

    fn done(&self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_be_bytes());
        }
        Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_bits().to_be_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            put_string(out, s);
        }
        Value::Pointer(p) => {
            out.push(4);
            out.extend_from_slice(&p.to_be_bytes());
        }
    }
}

const OBJ_POINT: u8 = 0;
const OBJ_SEGMENT: u8 = 1;
const OBJ_REGION: u8 = 2;

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_be_bytes());
}

fn put_object(out: &mut Vec<u8>, obj: &SpatialObject) {
    match obj {
        SpatialObject::Point(p) => {
            out.push(OBJ_POINT);
            put_f64(out, p.x);
            put_f64(out, p.y);
        }
        SpatialObject::Segment(s) => {
            out.push(OBJ_SEGMENT);
            put_f64(out, s.a.x);
            put_f64(out, s.a.y);
            put_f64(out, s.b.x);
            put_f64(out, s.b.y);
        }
        SpatialObject::Region(r) => {
            out.push(OBJ_REGION);
            out.extend_from_slice(&(r.vertices().len() as u32).to_be_bytes());
            for v in r.vertices() {
                put_f64(out, v.x);
                put_f64(out, v.y);
            }
        }
    }
}

fn get_f64(c: &mut Cursor<'_>) -> Result<f64, String> {
    Ok(f64::from_bits(u64::from_be_bytes(c.array()?)))
}

fn get_point(c: &mut Cursor<'_>) -> Result<Point, String> {
    Ok(Point::new(get_f64(c)?, get_f64(c)?))
}

fn get_object(c: &mut Cursor<'_>) -> Result<SpatialObject, String> {
    Ok(match c.u8()? {
        OBJ_POINT => SpatialObject::Point(get_point(c)?),
        OBJ_SEGMENT => SpatialObject::Segment(Segment {
            a: get_point(c)?,
            b: get_point(c)?,
        }),
        OBJ_REGION => {
            let n = c.u32()? as usize;
            // 16 bytes per vertex on the wire.
            c.check_count(n, 16, "vertices")?;
            let mut verts = Vec::with_capacity(n);
            for _ in 0..n {
                verts.push(get_point(c)?);
            }
            SpatialObject::Region(Region::new(verts).map_err(|e| format!("bad region: {e}"))?)
        }
        t => return Err(format!("unknown object kind {t}")),
    })
}

fn get_value(c: &mut Cursor<'_>) -> Result<Value, String> {
    Ok(match c.u8()? {
        0 => Value::Null,
        1 => Value::Int(i64::from_be_bytes(c.array()?)),
        2 => Value::Float(f64::from_bits(u64::from_be_bytes(c.array()?))),
        3 => Value::Str(c.string()?),
        4 => Value::Pointer(u64::from_be_bytes(c.array()?)),
        t => return Err(format!("unknown value tag {t}")),
    })
}

/// Encodes a request payload (frame body, without the length header).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Query {
            id,
            timeout_ms,
            text,
        } => {
            out.extend_from_slice(&id.to_be_bytes());
            out.push(OP_QUERY);
            out.extend_from_slice(&timeout_ms.to_be_bytes());
            put_string(&mut out, text);
        }
        Request::Stats { id } => {
            out.extend_from_slice(&id.to_be_bytes());
            out.push(OP_STATS);
        }
        Request::Ping { id } => {
            out.extend_from_slice(&id.to_be_bytes());
            out.push(OP_PING);
        }
        Request::Repack { id } => {
            out.extend_from_slice(&id.to_be_bytes());
            out.push(OP_REPACK);
        }
        Request::Shutdown { id } => {
            out.extend_from_slice(&id.to_be_bytes());
            out.push(OP_SHUTDOWN);
        }
        Request::Insert {
            id,
            picture,
            label,
            object,
        } => {
            out.extend_from_slice(&id.to_be_bytes());
            out.push(OP_INSERT);
            put_string(&mut out, picture);
            put_string(&mut out, label);
            put_object(&mut out, object);
        }
    }
    out
}

/// Decodes a request payload. Errors are protocol errors to report back
/// to the client; the frame is already consumed, so the session survives.
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let op = c.u8()?;
    let req = match op {
        OP_QUERY => {
            let timeout_ms = c.u32()?;
            let text = c.string()?;
            Request::Query {
                id,
                timeout_ms,
                text,
            }
        }
        OP_STATS => Request::Stats { id },
        OP_PING => Request::Ping { id },
        OP_REPACK => Request::Repack { id },
        OP_SHUTDOWN => Request::Shutdown { id },
        OP_INSERT => {
            let picture = c.string()?;
            let label = c.string()?;
            let object = get_object(&mut c)?;
            Request::Insert {
                id,
                picture,
                label,
                object,
            }
        }
        _ => return Err(format!("unknown opcode {op}")),
    };
    c.done()?;
    Ok(req)
}

/// Best-effort extraction of the request id from a payload that failed
/// to decode, so the error response still correlates when possible.
pub fn peek_request_id(payload: &[u8]) -> u64 {
    match payload.get(..8).and_then(|s| <[u8; 8]>::try_from(s).ok()) {
        Some(bytes) => u64::from_be_bytes(bytes),
        None => 0,
    }
}

/// Encodes a response payload (frame body, without the length header).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Result { id, epoch, result } => {
            out.extend_from_slice(&id.to_be_bytes());
            out.push(ST_RESULT);
            out.extend_from_slice(&epoch.to_be_bytes());
            out.extend_from_slice(&(result.columns.len() as u16).to_be_bytes());
            for col in &result.columns {
                put_string(&mut out, col);
            }
            out.extend_from_slice(&(result.rows.len() as u32).to_be_bytes());
            for row in &result.rows {
                for v in row {
                    put_value(&mut out, v);
                }
            }
            out.extend_from_slice(&(result.highlights.len() as u32).to_be_bytes());
            for h in &result.highlights {
                put_string(&mut out, &h.picture);
                out.extend_from_slice(&h.object.to_be_bytes());
                put_string(&mut out, &h.label);
            }
        }
        Response::Error { id, kind, message } => {
            out.extend_from_slice(&id.to_be_bytes());
            out.push(ST_ERROR);
            out.push(kind.to_u8());
            put_string(&mut out, message);
        }
        Response::Timeout { id } => {
            out.extend_from_slice(&id.to_be_bytes());
            out.push(ST_TIMEOUT);
        }
        Response::Overloaded { id, retry_after_ms } => {
            out.extend_from_slice(&id.to_be_bytes());
            out.push(ST_OVERLOADED);
            out.extend_from_slice(&retry_after_ms.to_be_bytes());
        }
        Response::Pong { id } => {
            out.extend_from_slice(&id.to_be_bytes());
            out.push(ST_PONG);
        }
        Response::Stats { id, json } => {
            out.extend_from_slice(&id.to_be_bytes());
            out.push(ST_STATS);
            put_string(&mut out, json);
        }
        Response::Done { id, epoch } => {
            out.extend_from_slice(&id.to_be_bytes());
            out.push(ST_DONE);
            out.extend_from_slice(&epoch.to_be_bytes());
        }
    }
    out
}

/// Decodes a response payload (the client side of the codec).
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let status = c.u8()?;
    let resp = match status {
        ST_RESULT => {
            let epoch = c.u64()?;
            // Every count below is attacker-controlled; check it against
            // the bytes actually present before letting it size a Vec.
            let ncols = c.u16()? as usize;
            c.check_count(ncols, 4, "columns")?; // u32 length prefix each
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                columns.push(c.string()?);
            }
            let nrows = c.u32()? as usize;
            // Each row carries ncols values of ≥ 1 byte (tag); a
            // zero-column result still can't claim more rows than bytes.
            c.check_count(nrows, ncols.max(1), "rows")?;
            let mut rows = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let mut row = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    row.push(get_value(&mut c)?);
                }
                rows.push(row);
            }
            let nhl = c.u32()? as usize;
            // picture (≥4) + object (8) + label (≥4).
            c.check_count(nhl, 16, "highlights")?;
            let mut highlights = Vec::with_capacity(nhl);
            for _ in 0..nhl {
                let picture = c.string()?;
                let object = c.u64()?;
                let label = c.string()?;
                highlights.push(Highlight {
                    picture,
                    object,
                    label,
                });
            }
            Response::Result {
                id,
                epoch,
                result: ResultSet {
                    columns,
                    rows,
                    highlights,
                },
            }
        }
        ST_ERROR => {
            let kind = ErrorKind::from_u8(c.u8()?)?;
            let message = c.string()?;
            Response::Error { id, kind, message }
        }
        ST_TIMEOUT => Response::Timeout { id },
        ST_OVERLOADED => Response::Overloaded {
            id,
            retry_after_ms: c.u32()?,
        },
        ST_PONG => Response::Pong { id },
        ST_STATS => Response::Stats {
            id,
            json: c.string()?,
        },
        ST_DONE => Response::Done {
            id,
            epoch: c.u64()?,
        },
        _ => return Err(format!("unknown status {status}")),
    };
    c.done()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let enc = encode_request(&req);
        assert_eq!(decode_request(&enc).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let enc = encode_response(&resp);
        assert_eq!(decode_response(&enc).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Query {
            id: 42,
            timeout_ms: 250,
            text: "select * from cities".into(),
        });
        roundtrip_request(Request::Stats { id: 7 });
        roundtrip_request(Request::Ping { id: u64::MAX });
        roundtrip_request(Request::Repack { id: 0 });
        roundtrip_request(Request::Shutdown { id: 3 });
    }

    #[test]
    fn insert_request_roundtrips_all_object_kinds() {
        use rtree_geom::Rect;
        roundtrip_request(Request::Insert {
            id: 8,
            picture: "us-map".into(),
            label: "Pittsburgh".into(),
            object: SpatialObject::Point(Point::new(-79.99, 40.44)),
        });
        roundtrip_request(Request::Insert {
            id: 9,
            picture: "highway-map".into(),
            label: "I-376".into(),
            object: SpatialObject::Segment(Segment {
                a: Point::new(0.0, -0.0),
                b: Point::new(f64::MIN_POSITIVE, 7.25),
            }),
        });
        roundtrip_request(Request::Insert {
            id: 10,
            picture: "lake-map".into(),
            label: "Erie".into(),
            object: SpatialObject::Region(Region::rectangle(Rect::new(1.0, 2.0, 3.0, 4.0))),
        });
    }

    #[test]
    fn insert_decode_rejects_bad_objects() {
        // Unknown object kind.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u64.to_be_bytes());
        bad.push(OP_INSERT);
        put_string(&mut bad, "p");
        put_string(&mut bad, "l");
        bad.push(7); // junk kind
        assert!(decode_request(&bad).unwrap_err().contains("object kind"));

        // Vertex-count lie: claims u32::MAX vertices backed by no bytes.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u64.to_be_bytes());
        bad.push(OP_INSERT);
        put_string(&mut bad, "p");
        put_string(&mut bad, "l");
        bad.push(OBJ_REGION);
        bad.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_request(&bad).unwrap_err().contains("vertices"));

        // A region the geometry layer refuses (too few vertices).
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u64.to_be_bytes());
        bad.push(OP_INSERT);
        put_string(&mut bad, "p");
        put_string(&mut bad, "l");
        bad.push(OBJ_REGION);
        bad.extend_from_slice(&1u32.to_be_bytes());
        bad.extend_from_slice(&[0u8; 16]);
        assert!(decode_request(&bad).is_err());
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Result {
            id: 9,
            epoch: 4,
            result: ResultSet {
                columns: vec!["city".into(), "population".into(), "loc".into()],
                rows: vec![
                    vec![
                        Value::str("Boston"),
                        Value::Int(600_000),
                        Value::Pointer(17),
                    ],
                    vec![Value::Null, Value::Float(2.5), Value::Pointer(0)],
                ],
                highlights: vec![Highlight {
                    picture: "us-map".into(),
                    object: 17,
                    label: "Boston".into(),
                }],
            },
        });
        roundtrip_response(Response::Error {
            id: 1,
            kind: ErrorKind::Parse,
            message: "oops".into(),
        });
        roundtrip_response(Response::Timeout { id: 2 });
        roundtrip_response(Response::Overloaded {
            id: 3,
            retry_after_ms: 10,
        });
        roundtrip_response(Response::Pong { id: 4 });
        roundtrip_response(Response::Stats {
            id: 5,
            json: "{}".into(),
        });
        roundtrip_response(Response::Done { id: 6, epoch: 2 });
    }

    #[test]
    fn float_roundtrip_is_bit_exact() {
        for f in [0.0, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE] {
            let mut out = Vec::new();
            put_value(&mut out, &Value::Float(f));
            let mut c = Cursor::new(&out);
            match get_value(&mut c).unwrap() {
                Value::Float(g) => assert_eq!(g.to_bits(), f.to_bits()),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0; 8]).is_err()); // id but no opcode
        assert!(decode_request(&[0, 0, 0, 0, 0, 0, 0, 1, 99]).is_err()); // junk opcode
                                                                         // Query whose string length overruns the payload.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u64.to_be_bytes());
        bad.push(OP_QUERY);
        bad.extend_from_slice(&0u32.to_be_bytes());
        bad.extend_from_slice(&1000u32.to_be_bytes()); // claims 1000 bytes
        bad.extend_from_slice(b"short");
        assert!(decode_request(&bad).is_err());
        // Invalid UTF-8 in the query text.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u64.to_be_bytes());
        bad.push(OP_QUERY);
        bad.extend_from_slice(&0u32.to_be_bytes());
        bad.extend_from_slice(&2u32.to_be_bytes());
        bad.extend_from_slice(&[0xff, 0xfe]);
        let err = decode_request(&bad).unwrap_err();
        assert!(err.contains("UTF-8"), "{err}");
        // Trailing garbage after a valid message.
        let mut enc = encode_request(&Request::Ping { id: 1 });
        enc.push(0);
        assert!(decode_request(&enc).unwrap_err().contains("trailing"));
    }

    #[test]
    fn huge_claimed_counts_are_rejected_before_allocating() {
        // A result frame claiming u32::MAX rows backed by no bytes.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u64.to_be_bytes()); // id
        bad.push(ST_RESULT);
        bad.extend_from_slice(&0u64.to_be_bytes()); // epoch
        bad.extend_from_slice(&1u16.to_be_bytes()); // 1 column
                                                    // column name "c"
        bad.extend_from_slice(&1u32.to_be_bytes());
        bad.push(b'c');
        bad.extend_from_slice(&u32::MAX.to_be_bytes()); // nrows lie
        let err = decode_response(&bad).unwrap_err();
        assert!(err.contains("rows"), "{err}");

        // Same lie on the highlight count.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u64.to_be_bytes());
        bad.push(ST_RESULT);
        bad.extend_from_slice(&0u64.to_be_bytes());
        bad.extend_from_slice(&0u16.to_be_bytes()); // 0 columns
        bad.extend_from_slice(&0u32.to_be_bytes()); // 0 rows
        bad.extend_from_slice(&u32::MAX.to_be_bytes()); // nhl lie
        let err = decode_response(&bad).unwrap_err();
        assert!(err.contains("highlights"), "{err}");

        // Column-count lie (u16::MAX columns, empty payload tail).
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u64.to_be_bytes());
        bad.push(ST_RESULT);
        bad.extend_from_slice(&0u64.to_be_bytes());
        bad.extend_from_slice(&u16::MAX.to_be_bytes());
        let err = decode_response(&bad).unwrap_err();
        assert!(err.contains("columns"), "{err}");

        // Zero-column result claiming more rows than remaining bytes.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u64.to_be_bytes());
        bad.push(ST_RESULT);
        bad.extend_from_slice(&0u64.to_be_bytes());
        bad.extend_from_slice(&0u16.to_be_bytes());
        bad.extend_from_slice(&100u32.to_be_bytes()); // 100 rows, 4 bytes left
        bad.extend_from_slice(&0u32.to_be_bytes());
        let err = decode_response(&bad).unwrap_err();
        assert!(err.contains("rows"), "{err}");
    }

    #[test]
    fn zero_column_zero_row_result_roundtrips() {
        roundtrip_response(Response::Result {
            id: 11,
            epoch: 1,
            result: ResultSet {
                columns: vec![],
                rows: vec![],
                highlights: vec![],
            },
        });
    }

    #[test]
    fn peek_id_survives_garbage() {
        assert_eq!(peek_request_id(&[]), 0);
        assert_eq!(peek_request_id(&[1, 2]), 0);
        let enc = encode_request(&Request::Ping { id: 77 });
        assert_eq!(peek_request_id(&enc), 77);
    }

    #[test]
    fn decoder_reassembles_byte_at_a_time() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"world!").unwrap();

        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for &b in &wire {
            dec.extend(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(
            frames,
            vec![b"hello".to_vec(), Vec::new(), b"world!".to_vec()]
        );
        assert!(!dec.mid_frame());
    }

    #[test]
    fn decoder_yields_many_frames_from_one_chunk() {
        let mut wire = Vec::new();
        for i in 0..10u8 {
            write_frame(&mut wire, &[i; 3]).unwrap();
        }
        // Plus a partial header to leave the decoder mid-frame.
        wire.extend_from_slice(&[0, 0]);

        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        let mut n = 0;
        while let Some(f) = dec.next_frame().unwrap() {
            assert_eq!(f, vec![n as u8; 3]);
            n += 1;
        }
        assert_eq!(n, 10);
        assert!(dec.mid_frame());
    }

    #[test]
    fn decoder_poisons_on_oversized_header() {
        let mut dec = FrameDecoder::new();
        dec.extend(&0xdead_beefu32.to_be_bytes());
        dec.extend(b"whatever follows");
        assert_eq!(dec.next_frame().unwrap_err(), 0xdead_beef);
        assert!(dec.is_poisoned());
        // Stays poisoned: later (even valid) bytes yield nothing.
        let mut valid = Vec::new();
        write_frame(&mut valid, b"ok").unwrap();
        dec.extend(&valid);
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn decoder_accepts_exact_limit_frame() {
        let payload = vec![7u8; MAX_FRAME_LEN as usize];
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut dec = FrameDecoder::new();
        // Split the wire bytes at an awkward boundary inside the header.
        dec.extend(&wire[..3]);
        assert_eq!(dec.next_frame().unwrap(), None);
        dec.extend(&wire[3..]);
        assert_eq!(dec.next_frame().unwrap().unwrap(), payload);
    }

    #[test]
    fn decoder_compacts_consumed_prefix() {
        let mut dec = FrameDecoder::new();
        let mut one = Vec::new();
        write_frame(&mut one, &[9u8; 100]).unwrap();
        for _ in 0..1000 {
            dec.extend(&one);
            assert_eq!(dec.next_frame().unwrap().unwrap(), vec![9u8; 100]);
        }
        // The internal buffer must not have accreted ~100 KB of history.
        assert!(
            dec.buf.len() < 16 * 1024,
            "buffer grew to {}",
            dec.buf.len()
        );
    }
}
