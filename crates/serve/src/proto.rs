//! Wire framing: length-prefixed JSON lines.
//!
//! Each frame is the ASCII decimal byte length of the payload, a newline,
//! the payload bytes (UTF-8 JSON), and a trailing newline:
//!
//! ```text
//! 17\n{"op":"shutdown"}\n
//! ```
//!
//! The explicit length lets payloads contain newlines (netlist sources do)
//! while keeping the protocol debuggable with `nc`. Frames above
//! [`MAX_FRAME`] are rejected before any allocation so a malformed client
//! cannot balloon the server.

use std::io::{self, Read, Write};

use crate::json::Value;

/// Upper bound on a single frame's payload (64 MiB — an order of magnitude
/// above the largest ISCAS benchmark plus its artifact).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// The protocol generation this build speaks. Every request document
/// carries it as a top-level `"v"` field; servers (daemon and fleet
/// coordinator alike) reject any other value — or its absence — with the
/// typed `version` error, so a mixed-version fleet fails loudly at the
/// first frame instead of misparsing payloads. Bump on any change to the
/// request/response grammar.
pub const PROTO_VERSION: u64 = 1;

/// Returns `request` with the `"v"` protocol-version field appended,
/// unless the caller already set one. Every client-side sender (the
/// [`Client`](crate::Client) and the fleet's worker connections) stamps
/// its requests through here.
pub fn stamp_version(request: &Value) -> Value {
    let mut request = request.clone();
    if let Value::Obj(pairs) = &mut request {
        if !pairs.iter().any(|(k, _)| k == "v") {
            pairs.push(("v".into(), Value::num_u64(PROTO_VERSION)));
        }
    }
    request
}

/// A framing failure.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The peer announced a payload above [`MAX_FRAME`].
    Oversize {
        /// The announced length.
        announced: usize,
    },
    /// The byte stream does not follow the framing grammar.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport: {e}"),
            ProtoError::Oversize { announced } => {
                write!(
                    f,
                    "frame of {announced} bytes exceeds the {MAX_FRAME} byte cap"
                )
            }
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Writes one frame and flushes.
pub fn write_frame(w: &mut impl Write, payload: &str) -> Result<(), ProtoError> {
    if payload.len() > MAX_FRAME {
        return Err(ProtoError::Oversize {
            announced: payload.len(),
        });
    }
    w.write_all(payload.len().to_string().as_bytes())?;
    w.write_all(b"\n")?;
    w.write_all(payload.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()?;
    Ok(())
}

/// Bound on consecutive would-block retries once a frame has started —
/// roughly a minute at the server's 50 ms read timeout, so a half-written
/// frame from a stuck peer cannot pin a connection thread forever.
const MAX_STALL_READS: usize = 1200;

/// Bound on length-line digits. [`MAX_FRAME`] needs 8; anything past this is
/// a peer streaming leading zeros (the only way to grow the digit count
/// without tripping the cap), which would otherwise let it pin the
/// connection in the length loop indefinitely.
const MAX_LENGTH_DIGITS: usize = 20;

/// True for the error kinds a socket read timeout produces.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF **before** any length
/// byte; EOF mid-frame is [`ProtoError::Malformed`].
///
/// Timeout contract: a read timeout surfaces as [`ProtoError::Io`] **only at
/// a frame boundary** (no byte of the frame consumed yet), where the caller
/// can safely poll and call `read_frame` again. Once a frame has started,
/// timeouts are retried internally — a partially consumed frame can never be
/// abandoned mid-stream, which would desynchronize the framing — up to a
/// stall bound, after which the stream is declared malformed.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, ProtoError> {
    // Length line, byte at a time (the length line is short; the payload
    // read below is the bulk transfer).
    let mut len: usize = 0;
    let mut digits = 0usize;
    let mut stalls = 0usize;
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) if digits == 0 => return Ok(None),
            Ok(0) => return Err(ProtoError::Malformed("eof inside length".into())),
            Ok(_) => {}
            Err(e) if is_timeout(&e) && digits > 0 => {
                stalls += 1;
                if stalls > MAX_STALL_READS {
                    return Err(ProtoError::Malformed("peer stalled inside frame".into()));
                }
                continue;
            }
            Err(e) => return Err(ProtoError::Io(e)),
        }
        match byte[0] {
            b'\n' if digits > 0 => break,
            d @ b'0'..=b'9' => {
                len = len
                    .checked_mul(10)
                    .and_then(|l| l.checked_add(usize::from(d - b'0')))
                    .ok_or(ProtoError::Oversize {
                        announced: usize::MAX,
                    })?;
                digits += 1;
                if digits > MAX_LENGTH_DIGITS {
                    return Err(ProtoError::Malformed("length line too long".into()));
                }
                if len > MAX_FRAME {
                    return Err(ProtoError::Oversize { announced: len });
                }
            }
            b'\r' => {}
            other => {
                return Err(ProtoError::Malformed(format!(
                    "byte {other:#04x} in length line"
                )))
            }
        }
    }
    // Payload + terminator, with the same stall-bounded retry discipline
    // (read_exact is unusable here: on error it may have consumed bytes).
    let mut payload = vec![0u8; len + 1];
    let mut filled = 0usize;
    let mut stalls = 0usize;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(ProtoError::Malformed("eof inside payload".into())),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                stalls += 1;
                if stalls > MAX_STALL_READS {
                    return Err(ProtoError::Malformed("peer stalled inside frame".into()));
                }
            }
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    if payload.pop() != Some(b'\n') {
        return Err(ProtoError::Malformed("missing frame terminator".into()));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| ProtoError::Malformed("payload is not utf-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_including_newlines() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"bench\":\"INPUT(a)\\n\"}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"bench\":\"INPUT(a)\\n\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("second"));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean eof");
    }

    #[test]
    fn oversize_and_malformed_frames_are_rejected() {
        let huge = format!("{}\n", MAX_FRAME + 1);
        assert!(matches!(
            read_frame(&mut Cursor::new(huge.into_bytes())),
            Err(ProtoError::Oversize { .. })
        ));
        assert!(matches!(
            read_frame(&mut Cursor::new(b"12x\n".to_vec())),
            Err(ProtoError::Malformed(_))
        ));
        // Truncated payload.
        assert!(matches!(
            read_frame(&mut Cursor::new(b"10\nshort\n".to_vec())),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_length_prefix_is_typed() {
        // EOF while the length line is still being read — must be a typed
        // Malformed, never a hang or a panic.
        assert!(matches!(
            read_frame(&mut Cursor::new(b"12".to_vec())),
            Err(ProtoError::Malformed(_))
        ));
        assert!(matches!(
            read_frame(&mut Cursor::new(b"123456".to_vec())),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn leading_zero_streams_are_bounded() {
        // A peer streaming zeros never grows `len`, so only the digit bound
        // stops it; 21 zeros must already be rejected.
        let zeros = vec![b'0'; 21];
        assert!(matches!(
            read_frame(&mut Cursor::new(zeros)),
            Err(ProtoError::Malformed(_))
        ));
        // While a zero-padded but in-cap length still parses.
        let padded = b"017\n{\"op\":\"shutdown\"}\n".to_vec();
        assert_eq!(
            read_frame(&mut Cursor::new(padded)).unwrap().as_deref(),
            Some("{\"op\":\"shutdown\"}")
        );
    }
}
