//! The serve wire protocol: length-prefixed frames carrying
//! serbin-encoded request/response values.
//!
//! A *frame* is a 4-byte little-endian payload length followed by that
//! many payload bytes. Frames longer than [`MAX_FRAME_LEN`] are
//! rejected before any allocation — a hostile length prefix cannot
//! balloon server memory. The payload is a [`Request`] (client → server)
//! or [`Response`] (server → client) encoded with `typilus-serbin`,
//! the same self-describing binary serde format the model artifacts
//! use.
//!
//! Every reply to a frame is exactly one frame; a client can therefore
//! pipeline requests and match replies by order. Error replies carry a
//! stable machine-readable [`ErrorCode`] next to the human-readable
//! message, so clients branch on the code, not the text.

use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Hard ceiling on a frame's payload length (bytes). Large enough for
/// any real source file plus its predictions, small enough that a
/// hostile length prefix cannot make the server allocate gigabytes.
pub const MAX_FRAME_LEN: u32 = 4 * 1024 * 1024;

/// Errors of frame-level I/O.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The stream ended (or failed) midway through a frame.
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME_LEN`]. The stream cannot
    /// be resynchronised after this; the connection must be dropped.
    Oversized {
        /// Length the prefix announced.
        len: u32,
        /// The configured ceiling.
        max: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one length-prefixed frame.
///
/// Prefix and payload go out as a single `write_all`: on a TCP stream
/// a separate 4-byte prefix write is a small segment that Nagle's
/// algorithm holds back until the peer's delayed ACK, and on a Unix
/// socket it wakes the reader twice per frame.
///
/// # Errors
///
/// Propagates I/O errors; [`FrameError::Oversized`] if the payload
/// itself exceeds the limit (a server bug, but never a panic).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    w.write_all(&frame_bytes(len, payload))?;
    w.flush()?;
    Ok(())
}

/// The wire bytes of a frame whose prefix announces `len`: the
/// little-endian prefix followed by `payload`. `len` is normally
/// `payload.len()`; the torn-reply failpoint passes the full length
/// with a truncated payload.
pub(crate) fn frame_bytes(len: u32, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF at a frame boundary,
/// [`FrameError::Io`] on a mid-frame disconnect or read failure, and
/// [`FrameError::Oversized`] when the announced length exceeds the
/// ceiling (nothing is read past the prefix in that case).
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    // Distinguish "closed between frames" (clean) from "closed inside
    // a frame" (mid-request disconnect): read the first prefix byte
    // separately.
    let (head, rest) = prefix.split_at_mut(1);
    match r.read(head) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    r.read_exact(rest)?;
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Predict ranked type hints for every annotatable symbol of a
    /// Python source snippet.
    Predict {
        /// The snippet to analyse.
        source: String,
    },
    /// One-shot open-vocabulary adaptation: embed `symbol` from
    /// `source` and bind the embedding to `ty` — no retraining.
    AddMarker {
        /// Snippet containing an occurrence of the symbol.
        source: String,
        /// Name of the symbol to embed.
        symbol: String,
        /// Type to bind, in display syntax (e.g. `List[int]`).
        ty: String,
    },
    /// Rebuild the sharded TypeSpace index over all current markers
    /// (folding any overlay in), in memory only.
    Reindex,
    /// Server and type-map statistics.
    Stats,
    /// Clean shutdown: the server replies [`Response::Bye`], stops
    /// accepting, drains nothing further, and exits its run loop.
    Shutdown,
    /// Graceful degradation: stop accepting *new* connections while
    /// existing connections keep being served. The reply is
    /// [`Response::Draining`]; a later [`Request::Shutdown`] finishes
    /// the job.
    Drain,
}

impl Request {
    /// Whether a client may safely retry this request after a
    /// transport failure. Retrying a request whose reply was lost must
    /// not change server state a second time: `predict`, `stats`,
    /// `reindex` and `drain` converge to the same state no matter how
    /// often they run, while `add-marker` inserts a marker per
    /// execution and `shutdown` must not chase a dying server across
    /// reconnects.
    pub fn idempotent(&self) -> bool {
        match self {
            Request::Predict { .. } | Request::Reindex | Request::Stats | Request::Drain => true,
            Request::AddMarker { .. } | Request::Shutdown => false,
        }
    }
}

/// One ranked candidate type for a symbol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hint {
    /// Candidate type in display syntax.
    pub ty: String,
    /// Normalised probability (Eq. 5 of the paper).
    pub probability: f32,
}

/// All ranked hints for one symbol of the analysed snippet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SymbolHints {
    /// Symbol name.
    pub name: String,
    /// Symbol kind (`Variable` / `Parameter` / `Return`), Debug-formatted
    /// exactly as the one-shot CLI prints it.
    pub kind: String,
    /// Candidates in descending probability order.
    pub hints: Vec<Hint>,
}

impl SymbolHints {
    /// Converts a pipeline prediction into its wire shape. The
    /// formatting of `kind` and `ty` matches the one-shot CLI exactly,
    /// which is what makes served reports byte-identical to
    /// `typilus predict` output.
    pub fn of(p: &typilus::SymbolPrediction) -> SymbolHints {
        SymbolHints {
            name: p.name.clone(),
            kind: format!("{:?}", p.kind),
            hints: p
                .candidates
                .iter()
                .map(|c| Hint {
                    ty: c.ty.to_string(),
                    probability: c.probability,
                })
                .collect(),
        }
    }
}

/// Machine-readable error classes. Stable: clients and tests branch on
/// these, never on message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The frame payload did not decode as a [`Request`].
    Malformed,
    /// The frame length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized,
    /// The snippet is not valid Python.
    Parse,
    /// The named symbol does not occur in the snippet.
    SymbolNotFound,
    /// The snippet produced no symbol embeddings.
    NoEmbedding,
    /// The type string does not parse as a Python type.
    BadType,
    /// The TypeSpace rejected the operation (width mismatch, index
    /// rebuild failure, ...).
    Space,
    /// The bounded request queue is full; retry later.
    Overloaded,
    /// The request waited past its deadline before the engine reached
    /// it.
    Timeout,
    /// The server is shutting down and no longer takes requests.
    ShuttingDown,
    /// The engine hit an internal failure (e.g. a recovered panic)
    /// while serving this request; the daemon is still up and the
    /// request may be retried.
    Internal,
    /// The request matches a source that made the engine panic
    /// repeatedly; it is refused without being run again.
    Quarantined,
    /// The server is draining: it no longer accepts new connections.
    Draining,
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Oversized => "oversized",
            ErrorCode::Parse => "parse",
            ErrorCode::SymbolNotFound => "symbol-not-found",
            ErrorCode::NoEmbedding => "no-embedding",
            ErrorCode::BadType => "bad-type",
            ErrorCode::Space => "space",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Timeout => "timeout",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
            ErrorCode::Quarantined => "quarantined",
            ErrorCode::Draining => "draining",
        };
        f.write_str(name)
    }
}

/// The server's health, reported in [`ServerStats`]. Operators and
/// load balancers branch on this, so the states are stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Health {
    /// Serving normally; no recovered panics, no quarantined requests.
    Ok,
    /// Still serving, but the engine has recovered from at least one
    /// panic or is refusing quarantined requests — worth a look.
    Degraded,
    /// Draining: existing connections are served, new ones refused.
    Draining,
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Health::Ok => "ok",
            Health::Degraded => "degraded",
            Health::Draining => "draining",
        })
    }
}

/// Server and type-map statistics ([`Request::Stats`] reply).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Markers in the type map.
    pub markers: usize,
    /// Distinct types among the markers.
    pub distinct_types: usize,
    /// Markers in the incremental overlay (sharded index only).
    pub overlay: usize,
    /// Embedding width.
    pub dim: usize,
    /// Index state: `exact` / `sharded` / `detached`.
    pub index: String,
    /// Requests accepted since startup.
    pub requests: u64,
    /// Predict requests answered.
    pub predicts: u64,
    /// Markers added through `add-marker`.
    pub markers_added: u64,
    /// Engine batches executed.
    pub batches: u64,
    /// Largest batch drained in one engine pass.
    pub largest_batch: u64,
    /// Error replies sent (any code).
    pub errors: u64,
    /// Engine panics caught by the supervisor; the affected requests
    /// were answered [`ErrorCode::Internal`] and serving continued.
    pub panics_recovered: u64,
    /// Request hashes currently quarantined (each made the engine
    /// panic twice and is refused with [`ErrorCode::Quarantined`]).
    pub quarantined: u64,
    /// Reply writes that failed because the client was gone
    /// (broken pipe / connection reset) — the client's fault.
    pub client_gone: u64,
    /// Reply writes that failed for any other reason — the server
    /// side's fault, worth alerting on.
    pub write_faults: u64,
    /// Current health state.
    pub health: Health,
    /// Warn-once conditions raised so far, as `(key, count)` in key
    /// order — repeats are suppressed on stderr but stay observable
    /// here.
    pub warnings: Vec<(String, u64)>,
}

/// A server reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Ranked hints per symbol, in the snippet's symbol order.
    Predictions(Vec<SymbolHints>),
    /// The marker was bound; the map now holds this many markers.
    MarkerAdded {
        /// Marker count after the insertion.
        markers: usize,
    },
    /// The index was rebuilt over all markers.
    Reindexed {
        /// Markers covered by the rebuilt index.
        markers: usize,
        /// Index state after the rebuild.
        index: String,
    },
    /// Statistics snapshot.
    Stats(ServerStats),
    /// Acknowledgement of [`Request::Shutdown`]; the connection closes
    /// after this frame.
    Bye,
    /// Acknowledgement of [`Request::Drain`]: no new connections are
    /// accepted from now on, but this connection stays usable.
    Draining,
    /// The request failed; the connection stays usable unless the
    /// code is [`ErrorCode::Oversized`] or [`ErrorCode::ShuttingDown`].
    Error {
        /// Stable machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Encodes any protocol value for framing.
///
/// # Errors
///
/// Propagates serbin encoding errors (unrepresentable values).
pub fn encode<T: Serialize>(value: &T) -> Result<Vec<u8>, typilus_serbin::Error> {
    typilus_serbin::to_bytes(value)
}

/// Decodes a framed payload into a protocol value.
///
/// # Errors
///
/// Propagates serbin decoding errors (malformed payload).
pub fn decode<T: serde::de::DeserializeOwned>(bytes: &[u8]) -> Result<T, typilus_serbin::Error> {
    typilus_serbin::from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert!(matches!(
            read_frame(&mut cursor).unwrap_err(),
            FrameError::Closed
        ));
    }

    /// A `Write` that counts calls and accepts every byte offered.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
        flushes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_one_write_and_one_flush_per_frame() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, b"hello").unwrap();
        assert_eq!((w.writes, w.flushes), (1, 1));
        write_frame(&mut w, b"").unwrap();
        assert_eq!((w.writes, w.flushes), (2, 2));
        let mut expected = 5u32.to_le_bytes().to_vec();
        expected.extend_from_slice(b"hello");
        expected.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(w.bytes, expected, "wire format must not change");
    }

    #[test]
    fn oversized_prefix_rejected_without_allocation() {
        let mut bytes = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(b"junk");
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor).unwrap_err(),
            FrameError::Oversized { .. }
        ));
    }

    #[test]
    fn truncated_frame_is_io_not_closed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor).unwrap_err(),
            FrameError::Io(_)
        ));
    }

    #[test]
    fn request_and_response_round_trip_serbin() {
        let req = Request::AddMarker {
            source: "x = 1\n".to_string(),
            symbol: "x".to_string(),
            ty: "int".to_string(),
        };
        let bytes = encode(&req).unwrap();
        assert_eq!(decode::<Request>(&bytes).unwrap(), req);
        let resp = Response::Error {
            code: ErrorCode::Timeout,
            message: "deadline exceeded".to_string(),
        };
        let bytes = encode(&resp).unwrap();
        assert_eq!(decode::<Response>(&bytes).unwrap(), resp);
    }

    #[test]
    fn idempotency_table_matches_retry_policy() {
        let predict = Request::Predict {
            source: "x = 1\n".to_string(),
        };
        let add = Request::AddMarker {
            source: "x = 1\n".to_string(),
            symbol: "x".to_string(),
            ty: "int".to_string(),
        };
        assert!(predict.idempotent());
        assert!(Request::Stats.idempotent());
        assert!(Request::Reindex.idempotent());
        assert!(Request::Drain.idempotent());
        assert!(!add.idempotent());
        assert!(!Request::Shutdown.idempotent());
    }

    #[test]
    fn resilience_codes_round_trip() {
        for code in [
            ErrorCode::Internal,
            ErrorCode::Quarantined,
            ErrorCode::Draining,
        ] {
            let resp = Response::Error {
                code,
                message: code.to_string(),
            };
            let bytes = encode(&resp).unwrap();
            assert_eq!(decode::<Response>(&bytes).unwrap(), resp);
        }
        let bytes = encode(&Response::Draining).unwrap();
        assert_eq!(decode::<Response>(&bytes).unwrap(), Response::Draining);
    }
}
