//! Length-prefixed binary framing for the coordinator/worker wire.
//!
//! Every message travels as one frame:
//!
//! ```text
//! magic "CLDP" (4) | version u16 LE | kind u16 LE | payload_len u32 LE
//! | payload (payload_len bytes) | FNV-1a checksum u64 LE (clado_core::fnv1a)
//! ```
//!
//! The checksum covers the header and payload, so a flipped bit anywhere
//! surfaces as [`FrameError::BadChecksum`] rather than a garbled decode.
//! Every malformed input — wrong magic, unsupported version, oversized
//! length, truncation mid-frame, checksum mismatch — maps to a typed
//! [`FrameError`]; nothing in this module panics on untrusted bytes.

use clado_core::fnv1a;
use clado_telemetry::faultinject;
use std::fmt;
use std::io::{self, Read, Write};

/// Wire-protocol version carried in every frame header and in the
/// `Hello` handshake. Bump on any incompatible change to the framing or
/// message encodings.
///
/// v2: trace-context propagation — `Job.trace_id`, `Ready.clock_us`,
/// `Lease.span_id`, and trace events appended to `ShardDone`.
///
/// v3: serving — pooled workers that outlive a single job (`JobDone`
/// keeps the connection open between jobs), typed handshake timeouts,
/// and the `clado serve` request/response frames layered on the same
/// envelope.
///
/// v4: budgeted estimation — `Job.{estimator, probe_budget,
/// estimator_seed}` let a coordinator shard a sub-quadratic Ω estimation
/// sweep; workers rebuilt the probe plan locally from those three
/// fields.
///
/// v5: leases carry their probe ids — the coordinator's plan picks the
/// probes and workers evaluate exactly what they are handed — and `Job`
/// drops the estimator fields.
///
/// v6: `ShardDone` stats lose the `retried` word (probes are no longer
/// rerun).
///
/// v7: the coordinator pushes each `Lease` and `JobDone`; `LeaseRequest`
/// and `Idle` are retired.
pub const PROTOCOL_VERSION: u16 = 7;

/// Upper bound on a frame payload. The largest legitimate message is a
/// `ShardDone` for one pairwise shard (26 bytes per probe); 4 MiB leaves
/// three orders of magnitude of headroom while keeping a corrupt or
/// hostile length field from provoking a huge allocation.
pub const MAX_PAYLOAD: u32 = 4 << 20;

const MAGIC: [u8; 4] = *b"CLDP";
const HEADER_BYTES: usize = 4 + 2 + 2 + 4;

/// A failure reading, writing, or decoding a wire frame.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The connection closed mid-frame.
    Truncated,
    /// The frame did not start with the `CLDP` magic.
    BadMagic([u8; 4]),
    /// The frame header carried an unsupported protocol version.
    UnsupportedVersion(u16),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Declared payload length.
        len: u32,
        /// The enforced maximum.
        max: u32,
    },
    /// The frame checksum did not match its contents.
    BadChecksum,
    /// The frame kind is not a known message type.
    UnknownKind(u16),
    /// The payload failed to decode as its declared message type.
    Malformed(String),
    /// The peer connected but sent no complete handshake frame within
    /// the handshake window (a silent or wedged peer must not occupy an
    /// accept slot indefinitely).
    HandshakeTimeout,
    /// An I/O error (including read timeouts) on the underlying stream.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Closed => write!(f, "connection closed"),
            Self::Truncated => write!(f, "connection closed mid-frame"),
            Self::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (want {PROTOCOL_VERSION})"
                )
            }
            Self::Oversized { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte limit"
                )
            }
            Self::BadChecksum => write!(f, "frame checksum mismatch"),
            Self::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            Self::Malformed(why) => write!(f, "malformed message payload: {why}"),
            Self::HandshakeTimeout => {
                write!(f, "peer sent no handshake frame within the timeout")
            }
            Self::Io(e) => write!(f, "wire i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl FrameError {
    /// Whether the error means the peer went away (or stalled past its
    /// read timeout) rather than spoke garbage.
    pub fn is_disconnect(&self) -> bool {
        match self {
            Self::Closed | Self::Truncated => true,
            Self::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::WouldBlock
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
                    | io::ErrorKind::UnexpectedEof
            ),
            _ => false,
        }
    }

    /// Whether the error is a read/write timeout on the underlying
    /// stream (the peer is silent, not gone). The handshake paths remap
    /// these to the typed [`FrameError::HandshakeTimeout`].
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            Self::Io(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
        )
    }

    /// Converts stream timeouts into the typed handshake rejection,
    /// leaving every other error untouched.
    pub fn or_handshake_timeout(self) -> Self {
        if self.is_timeout() {
            Self::HandshakeTimeout
        } else {
            self
        }
    }
}

/// Writes one frame and flushes the stream.
pub fn write_frame(w: &mut impl Write, kind: u16, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_PAYLOAD as usize {
        return Err(FrameError::Oversized {
            len: payload.len() as u32,
            max: MAX_PAYLOAD,
        });
    }
    let mut buf = Vec::with_capacity(HEADER_BYTES + payload.len() + 8);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    buf.extend_from_slice(&kind.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = fnv1a(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    // Debug-build wire fault points (armed via `CLADO_FAULTPOINTS`, see
    // `clado_telemetry::faultinject`): deterministic protocol-level
    // failures injected at the single choke point every frame passes
    // through. All four compile to nothing in release builds.
    //
    // * `wire.write.delay` (trigger, arg=ms) — stall the write, so the
    //   peer's read timeout fires against a live but silent writer.
    // * `wire.write.corrupt` (trigger) — flip one checksum bit; the
    //   reader must surface `BadChecksum`, never a garbled decode.
    // * `wire.write.truncate` (trigger) — ship half the frame and break
    //   the pipe, as if the writer died mid-`write_all`.
    // * `wire.write.drop` (trigger, skip=k) — reset the connection
    //   without writing, dropping the link after k healthy frames.
    if let Some(ms) = faultinject::fire_arg("wire.write.delay") {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    if faultinject::fire("wire.write.corrupt") {
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
    }
    if faultinject::fire("wire.write.truncate") {
        w.write_all(&buf[..buf.len() / 2])?;
        w.flush()?;
        return Err(FrameError::Io(io::Error::new(
            io::ErrorKind::BrokenPipe,
            "fault injected at `wire.write.truncate`",
        )));
    }
    if faultinject::fire("wire.write.drop") {
        return Err(FrameError::Io(io::Error::new(
            io::ErrorKind::ConnectionReset,
            "fault injected at `wire.write.drop`",
        )));
    }
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Fills `buf` from the reader; distinguishes a clean close before the
/// first byte (`Ok(false)`) from truncation mid-read (error).
fn read_full(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<bool, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 && at_boundary {
                    Ok(false)
                } else {
                    Err(FrameError::Truncated)
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return if got == 0 && at_boundary {
                    Ok(false)
                } else {
                    Err(FrameError::Truncated)
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame, validating magic, version, length bound, and
/// checksum. Returns the message kind and payload.
pub fn read_frame(r: &mut impl Read) -> Result<(u16, Vec<u8>), FrameError> {
    let mut header = [0u8; HEADER_BYTES];
    if !read_full(r, &mut header, true)? {
        return Err(FrameError::Closed);
    }
    if header[..4] != MAGIC {
        return Err(FrameError::BadMagic(
            header[..4].try_into().expect("4 bytes"),
        ));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
    if version != PROTOCOL_VERSION {
        return Err(FrameError::UnsupportedVersion(version));
    }
    let kind = u16::from_le_bytes(header[6..8].try_into().expect("2 bytes"));
    let len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    let mut rest = vec![0u8; len as usize + 8];
    read_full(r, &mut rest, false)?;
    let (payload, sum_bytes) = rest.split_at(len as usize);
    let declared = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    let mut check = Vec::with_capacity(HEADER_BYTES + payload.len());
    check.extend_from_slice(&header);
    check.extend_from_slice(payload);
    if fnv1a(&check) != declared {
        return Err(FrameError::BadChecksum);
    }
    Ok((kind, payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame(kind: u16, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, kind, payload).expect("encode");
        out
    }

    #[test]
    fn round_trip_preserves_kind_and_payload() {
        for payload in [&b""[..], b"x", &[0u8; 4096][..]] {
            let bytes = frame(7, payload);
            let (kind, got) = read_frame(&mut Cursor::new(&bytes)).expect("decode");
            assert_eq!(kind, 7);
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn empty_stream_is_a_clean_close() {
        let err = read_frame(&mut Cursor::new(&[] as &[u8])).unwrap_err();
        assert!(matches!(err, FrameError::Closed), "{err}");
        assert!(err.is_disconnect());
    }

    #[test]
    fn truncation_anywhere_mid_frame_is_typed() {
        let bytes = frame(3, b"hello world");
        for cut in 1..bytes.len() {
            let err = read_frame(&mut Cursor::new(&bytes[..cut])).unwrap_err();
            assert!(matches!(err, FrameError::Truncated), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = frame(1, b"payload");
        bytes[0] = b'X';
        let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
        assert!(matches!(err, FrameError::BadMagic(_)), "{err}");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = frame(1, b"payload");
        bytes[4] = 0xFF;
        bytes[5] = 0xFF;
        let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
        assert!(
            matches!(err, FrameError::UnsupportedVersion(0xFFFF)),
            "{err}"
        );
    }

    #[test]
    fn pre_serve_v1_and_v2_frames_are_rejected() {
        // v1 (no trace context) and v2 (no pooling/serve frames) peers
        // must be refused at the frame layer before any payload
        // decoding is attempted; so must v5, whose `ShardDone` stats
        // still carry the `retried` word.
        for old in [1u16, 2, 5] {
            let mut bytes = frame(1, b"payload");
            bytes[4..6].copy_from_slice(&old.to_le_bytes());
            let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
            assert!(
                matches!(err, FrameError::UnsupportedVersion(v) if v == old),
                "{err}"
            );
        }
    }

    #[test]
    fn timeouts_map_to_the_typed_handshake_rejection() {
        let timeout = FrameError::Io(io::Error::from(io::ErrorKind::WouldBlock));
        assert!(timeout.is_timeout());
        assert!(matches!(
            timeout.or_handshake_timeout(),
            FrameError::HandshakeTimeout
        ));
        let garbage = FrameError::BadChecksum;
        assert!(!garbage.is_timeout());
        assert!(matches!(
            garbage.or_handshake_timeout(),
            FrameError::BadChecksum
        ));
        // A silent peer is not a disconnected one: the typed rejection
        // must be surfaced (and counted), not swallowed.
        assert!(!FrameError::HandshakeTimeout.is_disconnect());
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = frame(1, b"payload");
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }), "{err}");
    }

    #[test]
    fn oversized_writes_are_refused() {
        let payload = vec![0u8; MAX_PAYLOAD as usize + 1];
        let err = write_frame(&mut Vec::new(), 1, &payload).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }), "{err}");
    }

    #[test]
    fn any_flipped_bit_fails_the_checksum() {
        let reference = frame(9, b"sensitive bits");
        // Flip one bit in each byte of header-tail, payload, and checksum.
        for i in 6..reference.len() {
            if (8..12).contains(&i) {
                continue; // length corruption is covered separately
            }
            let mut bytes = reference.clone();
            bytes[i] ^= 0x01;
            let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
            assert!(
                matches!(err, FrameError::BadChecksum | FrameError::Truncated),
                "byte {i}: {err}"
            );
        }
    }

    #[test]
    fn garbage_prefix_never_panics() {
        for len in 0..64usize {
            let junk: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let _ = read_frame(&mut Cursor::new(&junk));
        }
    }

    #[cfg(debug_assertions)]
    mod wire_faults {
        use super::*;
        use clado_telemetry::faultinject::{arm, test_guard, FaultSpec};
        use std::time::Instant;

        #[test]
        fn truncate_ships_half_the_frame_and_breaks_the_pipe() {
            let _guard = test_guard();
            arm("wire.write.truncate", FaultSpec::trigger().times(1));
            let mut out = Vec::new();
            let err = write_frame(&mut out, 5, b"truncate me").unwrap_err();
            assert!(matches!(&err, FrameError::Io(e)
                if e.kind() == io::ErrorKind::BrokenPipe));
            assert!(err.is_disconnect());
            assert!(!out.is_empty() && out.len() < frame(5, b"truncate me").len());
            // The reader sees the typed mid-frame truncation…
            let read = read_frame(&mut Cursor::new(&out)).unwrap_err();
            assert!(matches!(read, FrameError::Truncated), "{read}");
            // …and the window is spent: the next write recovers cleanly.
            let healthy = frame(5, b"truncate me");
            let (kind, payload) = read_frame(&mut Cursor::new(&healthy)).expect("recovered");
            assert_eq!((kind, payload.as_slice()), (5, &b"truncate me"[..]));
        }

        #[test]
        fn corrupt_flips_a_checksum_bit_that_the_reader_types() {
            let _guard = test_guard();
            arm("wire.write.corrupt", FaultSpec::trigger().times(1));
            let mut out = Vec::new();
            write_frame(&mut out, 6, b"corrupt me").expect("write succeeds");
            let err = read_frame(&mut Cursor::new(&out)).unwrap_err();
            assert!(matches!(err, FrameError::BadChecksum), "{err}");
            // Window exhausted: the retransmitted frame decodes.
            let healthy = frame(6, b"corrupt me");
            assert!(read_frame(&mut Cursor::new(&healthy)).is_ok());
        }

        #[test]
        fn delay_stalls_the_write_by_the_armed_milliseconds() {
            let _guard = test_guard();
            arm("wire.write.delay", FaultSpec::trigger().times(1).arg(60));
            let start = Instant::now();
            let mut out = Vec::new();
            write_frame(&mut out, 7, b"slow").expect("stalled write still lands");
            assert!(start.elapsed().as_millis() >= 60, "{:?}", start.elapsed());
            assert!(read_frame(&mut Cursor::new(&out)).is_ok());
        }

        #[test]
        fn drop_after_k_frames_resets_without_writing() {
            let _guard = test_guard();
            arm("wire.write.drop", FaultSpec::trigger().skip(2).times(1));
            let mut out = Vec::new();
            write_frame(&mut out, 8, b"one").expect("frame 1 passes");
            write_frame(&mut out, 8, b"two").expect("frame 2 passes");
            let before = out.len();
            let err = write_frame(&mut out, 8, b"three").unwrap_err();
            assert!(matches!(&err, FrameError::Io(e)
                if e.kind() == io::ErrorKind::ConnectionReset));
            assert!(err.is_disconnect());
            assert_eq!(out.len(), before, "the dropped frame wrote nothing");
            // The two healthy frames are intact on the wire.
            let mut cursor = Cursor::new(&out);
            assert_eq!(read_frame(&mut cursor).expect("frame 1").1, b"one");
            assert_eq!(read_frame(&mut cursor).expect("frame 2").1, b"two");
        }
    }
}
