//! Length-prefixed, CRC-guarded frames for the process-per-rank
//! transport.
//!
//! Wire layout of one frame:
//!
//! ```text
//! [ len: u32 LE ][ len ^ LEN_GUARD: u32 LE ][ crc: u32 LE ][ payload ]
//! ```
//!
//! `len` counts only the payload; `crc` is CRC-32 of the payload (the
//! same polynomial the checkpoint shards use, from
//! [`quadforest_core::crc`]). The payload is the Wire encoding of the
//! session layer's packet envelope around a [`Frame`] — the framing
//! itself is generic over any [`Wire`] payload via [`encode_wire`] /
//! [`read_wire_stalling`]. Decoding is strict and
//! hostile-input-safe: a length prefix above the *configurable* cap is
//! rejected *before* any allocation, a CRC mismatch or trailing bytes
//! is a typed error, and EOF mid-frame is distinguished from clean EOF
//! between frames — the reader can tell "peer hung up" from "peer died
//! mid-sentence". A network peer (or the chaos interposer) flipping
//! bits therefore surfaces as a typed [`FrameError`], never a panic —
//! the byte-mutation and stream-reassembly proptests below pin this.
//!
//! The second header word is the length prefix's own integrity guard.
//! The payload CRC cannot vouch for `len` — it is only checkable after
//! `len` bytes have been read, and a corrupted-but-under-the-cap
//! length points the reader at payload that will never arrive, where
//! it would silently consume every later frame on the stream
//! (heartbeats included) as bogus payload bytes while both ends still
//! look "live". The guard word makes any corruption of either length
//! word visible in the first 8 bytes, before the reader commits to a
//! payload: `len ^ guard != LEN_GUARD` is a typed
//! [`FrameError::HeaderCorrupt`] and an immediate link break.

use quadforest_core::crc::crc32;
use quadforest_core::wire::{Wire, WireError, WireReader};
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Default upper bound on a single frame payload. Far above anything
/// the forest algorithms send (the biggest alltoallv slabs are a few
/// MiB), far below anything that could be a length-prefix attack. The
/// process backend makes the cap configurable per world
/// (`SocketOptions::max_frame_len`); the read path takes it as a
/// parameter and enforces it *before* allocating the payload buffer.
pub(crate) const MAX_FRAME_LEN: u32 = 256 << 20;

/// XOR mask tying the two length words of the header together. Any
/// single corrupted bit in either word breaks the relation; agreeing
/// corruption of both words would need the same bit flipped twice.
const LEN_GUARD: u32 = 0x5AFE_C0DE;

/// Bytes of framing before the payload: len, len-guard, payload CRC.
pub(crate) const HEADER_LEN: usize = 12;

/// Everything that travels over a rank⇄supervisor connection.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Frame {
    /// A point-to-point or collective message, routed via the
    /// supervisor star. `type_tag` is the sender's payload type hash;
    /// `bytes` the telemetry size estimate.
    Msg {
        src: u64,
        dst: u64,
        tag: u64,
        type_tag: u64,
        bytes: u64,
        data: Vec<u8>,
    },
    /// Periodic liveness beacon from a child, carrying the rank's last
    /// counted comm-op index and the telemetry phase it was in — so the
    /// supervisor can name a SIGKILLed rank's last comm op and phase in
    /// its flight-recorder postmortem even though the victim cannot
    /// dump anything itself.
    Heartbeat {
        rank: u64,
        seq: u64,
        op: u64,
        phase: String,
    },
    /// Abort broadcast: either direction. From a child it reports
    /// "this rank failed first"; from the supervisor it spreads the
    /// recorded origin to every surviving rank.
    Abort { origin: u64, reason: String },
    /// A child finished successfully with these result bytes.
    Done { rank: u64, result: Vec<u8> },
    /// A child's program failed. `error` is present when the program
    /// returned a typed `CommError` (absent for panics).
    Failed {
        rank: u64,
        panicked: bool,
        reason: String,
        error: Option<crate::CommError>,
    },
    /// Fault injection: the child asks the supervisor to SIGKILL it at
    /// scheduled comm op `op`, then parks awaiting death.
    RequestKill { rank: u64, op: u64 },
}

impl Wire for Frame {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Msg {
                src,
                dst,
                tag,
                type_tag,
                bytes,
                data,
            } => {
                out.push(1);
                src.encode(out);
                dst.encode(out);
                tag.encode(out);
                type_tag.encode(out);
                bytes.encode(out);
                encode_bytes(data, out);
            }
            Frame::Heartbeat {
                rank,
                seq,
                op,
                phase,
            } => {
                out.push(2);
                rank.encode(out);
                seq.encode(out);
                op.encode(out);
                phase.encode(out);
            }
            Frame::Abort { origin, reason } => {
                out.push(3);
                origin.encode(out);
                reason.encode(out);
            }
            Frame::Done { rank, result } => {
                out.push(4);
                rank.encode(out);
                encode_bytes(result, out);
            }
            Frame::Failed {
                rank,
                panicked,
                reason,
                error,
            } => {
                out.push(5);
                rank.encode(out);
                panicked.encode(out);
                reason.encode(out);
                error.encode(out);
            }
            Frame::RequestKill { rank, op } => {
                out.push(6);
                rank.encode(out);
                op.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            1 => Ok(Frame::Msg {
                src: u64::decode(r)?,
                dst: u64::decode(r)?,
                tag: u64::decode(r)?,
                type_tag: u64::decode(r)?,
                bytes: u64::decode(r)?,
                data: decode_bytes(r)?,
            }),
            2 => Ok(Frame::Heartbeat {
                rank: u64::decode(r)?,
                seq: u64::decode(r)?,
                op: u64::decode(r)?,
                phase: String::decode(r)?,
            }),
            3 => Ok(Frame::Abort {
                origin: u64::decode(r)?,
                reason: String::decode(r)?,
            }),
            4 => Ok(Frame::Done {
                rank: u64::decode(r)?,
                result: decode_bytes(r)?,
            }),
            5 => Ok(Frame::Failed {
                rank: u64::decode(r)?,
                panicked: bool::decode(r)?,
                reason: String::decode(r)?,
                error: Option::decode(r)?,
            }),
            6 => Ok(Frame::RequestKill {
                rank: u64::decode(r)?,
                op: u64::decode(r)?,
            }),
            d => Err(WireError::Invalid(format!("Frame discriminant {d}"))),
        }
    }
}

/// `Vec<u8>`'s Wire layout (a `u64` length, then the bytes), written
/// in one copy instead of byte by byte: payloads are the bulk of every
/// frame.
fn encode_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    (bytes.len() as u64).encode(out);
    out.extend_from_slice(bytes);
}

/// Inverse of [`encode_bytes`], with `Vec<u8>`'s pre-allocation length
/// check.
fn decode_bytes(r: &mut WireReader<'_>) -> Result<Vec<u8>, WireError> {
    let len = r.seq_len()?;
    Ok(r.take(len)?.to_vec())
}

/// Why reading a frame off a stream failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum FrameError {
    /// Clean EOF on a frame boundary: the peer closed in an orderly
    /// way (or was killed between frames — the caller decides whether
    /// that was expected).
    Eof,
    /// EOF in the middle of a frame: the peer died mid-write.
    TruncatedEof { got: usize, wanted: usize },
    /// Length prefix exceeds the reader's configured cap; rejected
    /// before any allocation.
    Oversized { len: u32, cap: u32 },
    /// The two length words of the header disagree: the length prefix
    /// itself was corrupted in flight. Caught before any payload byte
    /// is read — the one corruption the payload CRC can never catch in
    /// time (see the module docs).
    HeaderCorrupt { len: u32, guard: u32 },
    /// Payload bytes do not match the header CRC.
    Crc { expected: u32, got: u32 },
    /// Payload failed Wire decoding (carries the inner error text).
    Decode(String),
    /// Underlying socket error other than timeout/EOF.
    Io(String),
    /// The reader's stop flag was raised while waiting for bytes.
    Stopped,
    /// Mid-frame read made no progress for longer than the caller's
    /// idle limit. A frame's bytes are written back-to-back, so this
    /// almost always means a corrupted length prefix has the reader
    /// waiting for payload that will never exist — without this check
    /// such a reader would silently swallow live traffic (heartbeats
    /// included) as bogus payload until the liveness window expired.
    Stalled { got: usize, wanted: usize },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::TruncatedEof { got, wanted } => {
                write!(f, "connection closed mid-frame ({got}/{wanted} bytes)")
            }
            FrameError::Oversized { len, cap } => {
                write!(f, "frame length {len} exceeds cap {cap}")
            }
            FrameError::HeaderCorrupt { len, guard } => {
                write!(
                    f,
                    "frame header corrupt: length {len:#010x} does not match its guard {guard:#010x}"
                )
            }
            FrameError::Crc { expected, got } => {
                write!(
                    f,
                    "frame CRC mismatch (header {expected:#010x}, payload {got:#010x})"
                )
            }
            FrameError::Decode(e) => write!(f, "frame payload decode failed: {e}"),
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::Stopped => write!(f, "reader stopped"),
            FrameError::Stalled { got, wanted } => {
                write!(f, "frame read stalled mid-frame ({got}/{wanted} bytes)")
            }
        }
    }
}

/// Encode any Wire value as `[len][guard][crc][payload]` ready to
/// write, in one buffer.
pub(crate) fn encode_wire<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = vec![0u8; HEADER_LEN];
    value.encode(&mut out);
    let payload = &out[HEADER_LEN..];
    debug_assert!(payload.len() <= MAX_FRAME_LEN as usize);
    let len = payload.len() as u32;
    let crc = crc32(payload);
    out[0..4].copy_from_slice(&len.to_le_bytes());
    out[4..8].copy_from_slice(&(len ^ LEN_GUARD).to_le_bytes());
    out[8..12].copy_from_slice(&crc.to_le_bytes());
    out
}

enum FrameErrorKind {
    Eof,
    Io(String),
    Stopped,
    Stalled,
}

impl FrameErrorKind {
    /// The typed error for a read that stopped at byte `got` of a
    /// message `wanted` bytes long.
    fn at(self, got: usize, wanted: usize) -> FrameError {
        match self {
            FrameErrorKind::Eof => FrameError::TruncatedEof { got, wanted },
            FrameErrorKind::Stalled => FrameError::Stalled { got, wanted },
            FrameErrorKind::Stopped => FrameError::Stopped,
            FrameErrorKind::Io(e) => FrameError::Io(e),
        }
    }
}

/// Fill `buf` from `stream`, tolerating read timeouts (the socket has
/// a short `read_timeout` so readers can poll `stop`), and give up when
/// the read makes no progress for `idle_limit`. With `armed = false`
/// the clock only starts once the first byte arrives (an idle link
/// between frames is normal); with `armed = true` it runs from the
/// first poll (a frame header just arrived, so its payload must be
/// right behind it). Returns the byte count actually read on failure.
fn read_full_idle(
    stream: &mut impl Read,
    buf: &mut [u8],
    stop: &AtomicBool,
    idle_limit: Duration,
    armed: bool,
) -> Result<(), (usize, FrameErrorKind)> {
    let mut filled = 0;
    let mut last_progress = Instant::now();
    while filled < buf.len() {
        if stop.load(Ordering::Relaxed) {
            return Err((filled, FrameErrorKind::Stopped));
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err((filled, FrameErrorKind::Eof)),
            Ok(n) => {
                filled += n;
                last_progress = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                if (armed || filled > 0) && last_progress.elapsed() > idle_limit {
                    return Err((filled, FrameErrorKind::Stalled));
                }
            }
            Err(e) => return Err((filled, FrameErrorKind::Io(e.to_string()))),
        }
    }
    Ok(())
}

/// Validate the fixed-size header: the guard word must agree with the
/// length prefix (corruption check, first) and the length must fit
/// under `cap` (policy check, second — only meaningful once the
/// length itself is trusted). Returns `(len, expected_crc)`.
fn parse_header(header: &[u8; HEADER_LEN], cap: u32) -> Result<(u32, u32), FrameError> {
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let guard = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let expected_crc = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if len ^ guard != LEN_GUARD {
        return Err(FrameError::HeaderCorrupt { len, guard });
    }
    if len > cap {
        return Err(FrameError::Oversized { len, cap });
    }
    Ok((len, expected_crc))
}

/// Read and decode one `[len][guard][crc][payload]` message whose
/// payload is any Wire type, enforcing `cap` on the length prefix
/// *before* the payload buffer is allocated. `stop` lets the owner
/// retire the reader thread without closing the socket.
///
/// Once any byte of a message has arrived, the rest must keep arriving
/// with gaps no longer than `idle_limit`, or the read fails with
/// [`FrameError::Stalled`]. A frame's bytes are written back-to-back,
/// so a silent mid-frame gap means the connection itself went dark
/// (e.g. a network partition opened between two segments) — the
/// header guard cannot see that, only the clock can. Waiting
/// *between* messages is unlimited — an idle link is healthy. The
/// clock is sampled on each poll, so it needs a stream with a short
/// `read_timeout`.
pub(crate) fn read_wire_stalling<T: Wire>(
    stream: &mut impl Read,
    stop: &AtomicBool,
    cap: u32,
    idle_limit: Duration,
) -> Result<T, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    match read_full_idle(stream, &mut header, stop, idle_limit, false) {
        Ok(()) => {}
        // EOF before any header byte is a clean close; anything later
        // is a mid-frame death
        Err((0, FrameErrorKind::Eof)) => return Err(FrameError::Eof),
        Err((got, kind)) => return Err(kind.at(got, HEADER_LEN)),
    }
    let (len, expected_crc) = parse_header(&header, cap)?;
    let mut payload = vec![0u8; len as usize];
    read_full_idle(stream, &mut payload, stop, idle_limit, true)
        .map_err(|(got, kind)| kind.at(HEADER_LEN + got, HEADER_LEN + len as usize))?;
    let got_crc = crc32(&payload);
    if got_crc != expected_crc {
        return Err(FrameError::Crc {
            expected: expected_crc,
            got: got_crc,
        });
    }
    T::from_wire(&payload).map_err(|e| FrameError::Decode(e.to_string()))
}

/// [`read_wire_stalling`] with no idle limit.
pub(crate) fn read_wire<T: Wire>(
    stream: &mut impl Read,
    stop: &AtomicBool,
    cap: u32,
) -> Result<T, FrameError> {
    read_wire_stalling(stream, stop, cap, Duration::MAX)
}

/// Blocking wrapper used during connection handshakes: read one Wire
/// message or give up after `timeout`.
pub(crate) fn read_wire_timeout<T: Wire>(
    stream: &mut impl Read,
    timeout: Duration,
    cap: u32,
) -> Result<T, FrameError> {
    // reuse the stop flag as a deadline: a watcher thread would be
    // overkill for a handshake, so poll wall clock between reads
    struct DeadlineRead<'a, R> {
        inner: &'a mut R,
        deadline: Instant,
    }
    impl<R: Read> Read for DeadlineRead<'_, R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if Instant::now() >= self.deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "handshake timeout",
                ));
            }
            self.inner.read(buf)
        }
    }
    let stop = AtomicBool::new(false);
    let mut dr = DeadlineRead {
        inner: stream,
        deadline: Instant::now() + timeout,
    };
    read_wire(&mut dr, &stop, cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn no_stop() -> AtomicBool {
        AtomicBool::new(false)
    }

    /// One frame through the reader, under the default cap.
    fn read_one(stream: &mut impl Read) -> Result<Frame, FrameError> {
        read_wire(stream, &no_stop(), MAX_FRAME_LEN)
    }

    /// Frame a raw payload by hand: correct header, arbitrary bytes.
    fn raw_frame(payload: &[u8]) -> Vec<u8> {
        let len = payload.len() as u32;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&(len ^ LEN_GUARD).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Msg {
                src: 1,
                dst: 2,
                tag: 77,
                type_tag: 0xABCD,
                bytes: 4,
                data: vec![1, 2, 3, 4],
            },
            Frame::Heartbeat {
                rank: 0,
                seq: 41,
                op: 17,
                phase: "balance".into(),
            },
            Frame::Abort {
                origin: 2,
                reason: "recv timeout".into(),
            },
            Frame::Done {
                rank: 1,
                result: vec![9; 32],
            },
            Frame::Failed {
                rank: 0,
                panicked: true,
                reason: "panicked: boom".into(),
                error: None,
            },
            Frame::Failed {
                rank: 2,
                panicked: false,
                reason: "aborted".into(),
                error: Some(crate::CommError::Aborted {
                    origin: 1,
                    reason: "first".into(),
                }),
            },
            Frame::RequestKill { rank: 1, op: 12 },
        ]
    }

    #[test]
    fn frames_roundtrip_through_codec() {
        for frame in sample_frames() {
            let bytes = encode_wire(&frame);
            let mut cur = Cursor::new(bytes);
            let back = read_one(&mut cur).expect("decode");
            assert_eq!(frame, back);
            // and the stream is fully consumed: next read is clean EOF
            assert_eq!(read_one(&mut cur), Err(FrameError::Eof));
        }
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let frames = sample_frames();
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&encode_wire(f));
        }
        let mut cur = Cursor::new(bytes);
        for f in &frames {
            assert_eq!(&read_one(&mut cur).expect("frame"), f);
        }
        assert_eq!(read_one(&mut cur), Err(FrameError::Eof));
    }

    #[test]
    fn truncation_at_every_byte_is_typed_never_a_panic() {
        let full = encode_wire(&Frame::Msg {
            src: 0,
            dst: 1,
            tag: 5,
            type_tag: 7,
            bytes: 3,
            data: vec![10, 20, 30],
        });
        for cut in 1..full.len() {
            let mut cur = Cursor::new(full[..cut].to_vec());
            let err = read_one(&mut cur).expect_err("truncated");
            match err {
                FrameError::TruncatedEof { got, wanted } => {
                    assert_eq!(got, cut);
                    assert!(wanted > got);
                }
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        // claim a 3 GiB payload (with a consistent guard, so only the
        // cap check can reject it); decode must fail fast on the header
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(3u32 << 30).to_le_bytes());
        bytes.extend_from_slice(&((3u32 << 30) ^ LEN_GUARD).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut cur = Cursor::new(bytes);
        assert_eq!(
            read_one(&mut cur),
            Err(FrameError::Oversized {
                len: 3 << 30,
                cap: MAX_FRAME_LEN
            })
        );
    }

    #[test]
    fn configurable_cap_rejects_legit_frames_above_it() {
        // a perfectly valid frame is still rejected when the reader's
        // configured cap is tighter than its length — typed, pre-alloc
        let frame = Frame::Done {
            rank: 0,
            result: vec![7; 100],
        };
        let bytes = encode_wire(&frame);
        let payload_len = (bytes.len() - HEADER_LEN) as u32;
        let tight = payload_len - 1;
        let mut cur = Cursor::new(bytes.clone());
        assert_eq!(
            read_wire::<Frame>(&mut cur, &no_stop(), tight),
            Err(FrameError::Oversized {
                len: payload_len,
                cap: tight
            })
        );
        // at exactly the cap it decodes
        let mut cur = Cursor::new(bytes);
        assert_eq!(
            read_wire::<Frame>(&mut cur, &no_stop(), payload_len).expect("decode at cap"),
            frame
        );
    }

    #[test]
    fn crc_mismatch_is_detected() {
        let mut bytes = encode_wire(&Frame::Heartbeat {
            rank: 4,
            seq: 9,
            op: 0,
            phase: String::new(),
        });
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip one payload bit
        let mut cur = Cursor::new(bytes);
        match read_one(&mut cur) {
            Err(FrameError::Crc { .. }) => {}
            other => panic!("expected CRC error, got {other:?}"),
        }
    }

    #[test]
    fn bad_discriminant_is_a_decode_error() {
        let payload = vec![250u8]; // no such Frame variant
        let bytes = raw_frame(&payload);
        let mut cur = Cursor::new(bytes);
        match read_one(&mut cur) {
            Err(FrameError::Decode(e)) => assert!(e.contains("discriminant")),
            other => panic!("expected decode error, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_inside_payload_is_rejected() {
        // valid Heartbeat payload plus junk, CRC recomputed so only the
        // strict from_wire trailing check can catch it
        let mut payload = Frame::Heartbeat {
            rank: 1,
            seq: 2,
            op: 0,
            phase: String::new(),
        }
        .to_wire();
        payload.extend_from_slice(&[0xAA, 0xBB]);
        let bytes = raw_frame(&payload);
        let mut cur = Cursor::new(bytes);
        match read_one(&mut cur) {
            Err(FrameError::Decode(e)) => assert!(e.contains("trailing")),
            other => panic!("expected decode error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_inner_length_in_msg_data_is_rejected() {
        // hand-craft a Msg frame whose Vec<u8> length claims far more
        // than the payload holds — the Wire seq_len guard must reject
        // it without allocating
        let mut payload = Vec::new();
        payload.push(1u8); // Msg discriminant
        for v in [0u64, 1, 5, 7, 3] {
            payload.extend_from_slice(&v.to_le_bytes()); // src dst tag type_tag bytes
        }
        payload.extend_from_slice(&u64::MAX.to_le_bytes()); // data len: 2^64-1
        let bytes = raw_frame(&payload);
        let mut cur = Cursor::new(bytes);
        match read_one(&mut cur) {
            Err(FrameError::Decode(_)) => {}
            other => panic!("expected decode error, got {other:?}"),
        }
    }

    /// A `Read` that hands back the byte stream in caller-chosen
    /// chunks, emulating TCP segmentation: every `read` returns at
    /// most up to the next cut point, never across one. Between
    /// chunks it reports `WouldBlock` once, which the frame reader
    /// must tolerate exactly like a socket read timeout.
    struct ChunkedReader {
        data: Vec<u8>,
        cuts: Vec<usize>, // sorted positions where a read must stop
        pos: usize,
        starve_next: bool,
    }

    impl ChunkedReader {
        fn new(data: Vec<u8>, mut cuts: Vec<usize>) -> Self {
            cuts.retain(|&c| c > 0 && c < data.len());
            cuts.sort_unstable();
            cuts.dedup();
            ChunkedReader {
                data,
                cuts,
                pos: 0,
                starve_next: false,
            }
        }
    }

    impl Read for ChunkedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0); // clean EOF
            }
            if self.starve_next {
                self.starve_next = false;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "starve",
                ));
            }
            let limit = self
                .cuts
                .iter()
                .find(|&&c| c > self.pos)
                .copied()
                .unwrap_or(self.data.len());
            let n = buf.len().min(limit - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            self.starve_next = true;
            Ok(n)
        }
    }

    /// Satellite: TCP delivers a frame stream in arbitrary segments —
    /// partial reads and short writes can split it anywhere, including
    /// inside the 8-byte header. Splitting the stream of all sample
    /// frames at *every* byte boundary must decode to the identical
    /// frame sequence.
    #[test]
    fn decode_is_invariant_under_a_split_at_every_boundary() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_wire(f));
        }
        for cut in 1..stream.len() {
            let mut r = ChunkedReader::new(stream.clone(), vec![cut]);
            for f in &frames {
                let got = read_one(&mut r).unwrap_or_else(|e| panic!("cut at {cut}: {e:?}"));
                assert_eq!(&got, f, "cut at {cut} changed a decoded frame");
            }
            assert_eq!(read_one(&mut r), Err(FrameError::Eof));
        }
    }

    // Stream-reassembly property: split the concatenated frame stream
    // at any *set* of boundaries (multi-segment delivery, one-byte
    // dribbles included) — decoding must be split-invariant: the same
    // frames, in order, then clean EOF.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        #[test]
        fn multi_segment_reassembly_is_split_invariant(
            raw_cuts in proptest::collection::vec(0usize..4096, 0..24),
        ) {
            let frames = sample_frames();
            let mut stream = Vec::new();
            for f in &frames {
                stream.extend_from_slice(&encode_wire(f));
            }
            let cuts: Vec<usize> = raw_cuts.iter().map(|c| c % stream.len()).collect();
            let mut r = ChunkedReader::new(stream, cuts.clone());
            for f in &frames {
                let got = read_one(&mut r);
                proptest::prop_assert_eq!(got.as_ref(), Ok(f), "cuts {:?}", &cuts);
            }
            proptest::prop_assert_eq!(read_one(&mut r), Err(FrameError::Eof));
        }
    }

    // Byte-mutation property, mirroring the checkpoint corruption
    // suite: flip any single byte of a valid frame stream anywhere —
    // length words, CRC word, or payload — and reading it back must
    // yield a typed error or the untouched original, never a panic,
    // a hang, or a silently different frame. The header guard catches
    // every single-byte corruption of the two length words *before*
    // any payload byte is read; CRC32 catches payload/CRC-word
    // corruption after. The same property is checked under a tight
    // configurable cap (the satellite max-frame-size guard).
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn single_byte_mutations_never_panic_or_misparse(
            which in 0usize..7,
            pos in 0usize..4096,
            xor in 1u8..=255,
        ) {
            let frames = sample_frames();
            let original = &frames[which % frames.len()];
            let clean = encode_wire(original);
            let tight_cap = (clean.len() - HEADER_LEN) as u32; // exactly this frame's payload
            let mut bytes = clean;
            let pos = pos % bytes.len();
            bytes[pos] ^= xor;
            for cap in [MAX_FRAME_LEN, tight_cap] {
                let mut cur = Cursor::new(bytes.clone());
                match read_wire::<Frame>(&mut cur, &no_stop(), cap) {
                    Ok(frame) => proptest::prop_assert_eq!(&frame, original),
                    Err(
                        FrameError::Oversized { .. }
                        | FrameError::HeaderCorrupt { .. }
                        | FrameError::TruncatedEof { .. }
                        | FrameError::Crc { .. }
                        | FrameError::Decode(_)
                        | FrameError::Eof,
                    ) => {}
                    Err(other) => {
                        proptest::prop_assert!(false, "untyped failure: {:?}", other);
                    }
                }
            }
            // a mutation of either length word can never reach the
            // payload read: the guard relation breaks, pre-allocation
            if pos < 8 {
                let mut cur = Cursor::new(bytes.clone());
                let got = read_wire::<Frame>(&mut cur, &no_stop(), MAX_FRAME_LEN);
                let caught = matches!(got, Err(FrameError::HeaderCorrupt { .. }));
                proptest::prop_assert!(caught, "length-word mutation escaped the guard: {:?}", got);
            }
        }
    }

    /// A stream that yields some bytes and then blocks forever —
    /// the shape of a corrupted length prefix under the frame cap.
    struct StallingRead {
        bytes: Vec<u8>,
        pos: usize,
    }
    impl Read for StallingRead {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.bytes.len() {
                // emulate a socket read timeout poll, like a real
                // stream with a short read_timeout
                std::thread::sleep(Duration::from_millis(1));
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "poll"));
            }
            let n = (self.bytes.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// THE liveness trap this header exists for: a corrupted length
    /// prefix that still passes the cap check. Without the guard the
    /// reader would commit to a payload that never arrives and eat
    /// every later frame on the stream as its bytes — with a chatty
    /// peer (heartbeats!) the read keeps making "progress", so not
    /// even an idle-based stall detector fires, and the link looks
    /// healthy until the death window expires. The guard word turns
    /// it into an immediate typed header error, zero payload bytes
    /// read.
    #[test]
    fn corrupted_length_prefix_is_caught_at_the_header() {
        for flip in [3usize, 7] {
            // a high bit of the length word, then of the guard word
            let mut bytes = encode_wire(&Frame::RequestKill { rank: 1, op: 2 });
            bytes[flip] ^= 0x01;
            let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
            let guard = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            assert!(len < MAX_FRAME_LEN, "test wants a cap-passing length");
            let mut cur = Cursor::new(bytes);
            assert_eq!(
                read_wire::<Frame>(&mut cur, &no_stop(), MAX_FRAME_LEN),
                Err(FrameError::HeaderCorrupt { len, guard }),
                "flipped byte {flip}"
            );
            // and the reader is still positioned right after the
            // header: no payload byte was consumed
            assert_eq!(cur.position(), HEADER_LEN as u64);
        }
    }

    /// A connection that goes silent *mid-frame* (partition between
    /// two TCP segments) must fail typed (`Stalled`) within the idle
    /// limit — the header is intact, so only the clock can see this.
    #[test]
    fn mid_frame_silence_stalls_typed() {
        let full = encode_wire(&Frame::Done {
            rank: 2,
            result: vec![7; 64],
        });
        let wanted = full.len();
        let cut = HEADER_LEN + 10; // header intact, payload unfinished
        let mut stream = StallingRead {
            bytes: full[..cut].to_vec(),
            pos: 0,
        };
        let started = Instant::now();
        let err = read_wire_stalling::<Frame>(
            &mut stream,
            &no_stop(),
            MAX_FRAME_LEN,
            Duration::from_millis(50),
        )
        .expect_err("must not decode");
        assert_eq!(err, FrameError::Stalled { got: cut, wanted });
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "stall detection took too long: {:?}",
            started.elapsed()
        );
    }

    /// An idle link between frames is healthy: the stalling reader must
    /// wait patiently (bounded here by the stop flag), not time out.
    #[test]
    fn idle_between_frames_is_not_a_stall() {
        struct IdleThenStop<'a> {
            polls: u32,
            stop: &'a AtomicBool,
        }
        impl Read for IdleThenStop<'_> {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                self.polls += 1;
                if self.polls > 100 {
                    self.stop.store(true, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(1));
                Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "poll"))
            }
        }
        let stop = no_stop();
        let mut stream = IdleThenStop {
            polls: 0,
            stop: &stop,
        };
        // 100 polls × 1 ms of pre-frame idle is far beyond the 5 ms
        // idle limit; only the stop flag may end the wait
        let err = read_wire_stalling::<Frame>(
            &mut stream,
            &stop,
            MAX_FRAME_LEN,
            Duration::from_millis(5),
        )
        .expect_err("nothing to read");
        assert_eq!(err, FrameError::Stopped);
    }
}
