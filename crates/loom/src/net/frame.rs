//! Length-prefixed, CRC-framed wire format.
//!
//! Every message on a Loom network connection travels inside one frame:
//!
//! ```text
//! [u32 len (LE)] [u8 frame-type] [body ...] [u32 crc32 (LE)]
//!                 `------------ len bytes ------------------'
//! ```
//!
//! `len` counts everything after the length prefix (type byte, body,
//! and trailing checksum), and the CRC covers the type byte plus the
//! body, using the same CRC-32 as the durable log format
//! ([`crate::durability::format::crc32`]: carry-less multiply from 64 B
//! where the CPU has it, slice-by-8 below). A frame therefore either
//! decodes completely and checksum-verified, or it is rejected whole —
//! the framing layer is what makes a batch atomic on the wire: a client
//! killed mid-frame leaves a torn prefix that never parses, so no
//! partial batch can reach the engine.
//!
//! Both directions pass through the [`fault`] registry
//! ([`NET_FRAME_READ`](crate::fault::NET_FRAME_READ) /
//! [`NET_FRAME_WRITE`](crate::fault::NET_FRAME_WRITE)), so chaos tests
//! can kill either half of any conversation at the frame boundary. A
//! [`FaultKind::ShortWrite`](crate::fault::FaultKind) armed on the write
//! site emits a torn frame prefix before failing, simulating a peer
//! dying mid-send.

use std::io::{Read, Write};

use crate::durability::format::crc32;
use crate::error::{LoomError, Result};
use crate::fault;

/// Upper bound on one frame (type byte + body + checksum). Large enough
/// for a maximal ingest batch, small enough that a corrupt length prefix
/// cannot drive an unbounded allocation.
pub const MAX_FRAME: usize = 4 << 20;

/// Smallest legal `len`: the type byte plus the 4-byte checksum.
const MIN_FRAME: usize = 5;

/// Reads one frame, returning `(frame_type, body)`.
///
/// `tag` labels the connection for the
/// [`NET_FRAME_READ`](crate::fault::NET_FRAME_READ) failpoint. Length or
/// checksum violations surface as [`LoomError::Corrupt`]; transport
/// errors (including read timeouts, as `WouldBlock`/`TimedOut`) as
/// [`LoomError::Io`].
pub fn read_frame(r: &mut impl Read, tag: &str) -> Result<(u8, Vec<u8>)> {
    if let Some(kind) = fault::check(fault::NET_FRAME_READ, tag) {
        return Err(LoomError::Io(kind.to_io_error()));
    }
    let mut hdr = [0u8; 4];
    r.read_exact(&mut hdr)?;
    let len = u32::from_le_bytes(hdr) as usize;
    if !(MIN_FRAME..=MAX_FRAME).contains(&len) {
        return Err(LoomError::Corrupt(format!(
            "net frame length {len} outside [{MIN_FRAME}, {MAX_FRAME}]"
        )));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    let (checked, crc_bytes) = buf.split_at(len - 4);
    let want = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    let got = crc32(checked);
    if want != got {
        return Err(LoomError::Corrupt(format!(
            "net frame checksum mismatch: stored {want:#010x}, computed {got:#010x}"
        )));
    }
    let ty = checked[0];
    Ok((ty, checked[1..].to_vec()))
}

/// Writes one frame of type `ty` around `body`.
///
/// `tag` labels the frame for the
/// [`NET_FRAME_WRITE`](crate::fault::NET_FRAME_WRITE) failpoint; a
/// [`ShortWrite`](crate::fault::FaultKind::ShortWrite) fault emits half
/// the encoded frame before erroring, leaving a torn frame on the wire.
pub fn write_frame(w: &mut impl Write, ty: u8, body: &[u8], tag: &str) -> Result<()> {
    let len = 1 + body.len() + 4;
    if len > MAX_FRAME {
        return Err(LoomError::Corrupt(format!(
            "net frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(ty);
    out.extend_from_slice(body);
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    if let Some(kind) = fault::check(fault::NET_FRAME_WRITE, tag) {
        if kind == fault::FaultKind::ShortWrite {
            // Emit a torn prefix so the peer sees a half-written frame.
            let _ = w.write_all(&out[..out.len() / 2]);
            let _ = w.flush();
        }
        return Err(LoomError::Io(kind.to_io_error()));
    }
    w.write_all(&out)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, b"hello telemetry", "t").unwrap();
        let (ty, body) = read_frame(&mut wire.as_slice(), "t").unwrap();
        assert_eq!(ty, 7);
        assert_eq!(body, b"hello telemetry");
    }

    #[test]
    fn empty_body_is_legal() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, b"", "t").unwrap();
        let (ty, body) = read_frame(&mut wire.as_slice(), "t").unwrap();
        assert_eq!((ty, body.len()), (1, 0));
    }

    #[test]
    fn corrupt_byte_is_rejected_whole() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 3, b"payload-bytes", "t").unwrap();
        // Flip one body byte; the checksum must catch it.
        wire[7] ^= 0x40;
        let err = read_frame(&mut wire.as_slice(), "t").unwrap_err();
        assert!(matches!(err, LoomError::Corrupt(_)), "got {err}");
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 3, b"payload-bytes", "t").unwrap();
        wire.truncate(wire.len() - 3);
        let err = read_frame(&mut wire.as_slice(), "t").unwrap_err();
        assert!(matches!(err, LoomError::Io(_)), "got {err}");
    }

    #[test]
    fn absurd_length_prefix_is_rejected_before_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut wire.as_slice(), "t").unwrap_err();
        assert!(matches!(err, LoomError::Corrupt(_)), "got {err}");
    }

    #[test]
    fn oversized_body_is_refused_on_write() {
        let body = vec![0u8; MAX_FRAME];
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, 1, &body, "t").unwrap_err();
        assert!(matches!(err, LoomError::Corrupt(_)), "got {err}");
        assert!(wire.is_empty(), "nothing may reach the wire");
    }
}
