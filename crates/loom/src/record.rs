//! Record-log entry format (§4.2).
//!
//! The record log interleaves records from many sources. Each entry is a
//! fixed 28-byte header followed by the payload. Records from the same
//! source are linked into a *record chain* via the header's back pointer.
//! The header's final field is a CRC32 over the first 24 header bytes and
//! the payload, so torn tails and bit flips are detected during recovery
//! and chunk scans instead of being mis-parsed as records.
//!
//! The record log is divided into fixed-size chunks (the unit of sparse
//! indexing). Records never straddle a chunk boundary: when a record does
//! not fit in the active chunk's remainder, Loom writes a padding entry
//! (or raw zeros when fewer than a header's worth of bytes remain) and
//! starts the record in the next chunk. Every chunk therefore begins at a
//! record header, making chunk scans self-contained.

use crate::durability::{crc32_pair, LogId};
use crate::error::{LoomError, Result};

/// Size in bytes of a record header (including its trailing CRC32).
pub const RECORD_HEADER_SIZE: usize = 28;

/// Offset of the CRC32 field inside an encoded header; the checksum
/// covers `header[0..RECORD_CRC_OFFSET]` followed by the payload.
pub const RECORD_CRC_OFFSET: usize = 24;

/// Sentinel source ID marking a padding entry at the end of a chunk.
pub const SOURCE_PAD: u32 = u32::MAX;

/// Sentinel "no previous record" back pointer.
///
/// Address 0 is a valid log address, so the nil pointer is `u64::MAX`.
pub const NIL_ADDR: u64 = u64::MAX;

/// Header of a record-log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Source the record belongs to (0 is invalid and terminates chunk
    /// scans; [`SOURCE_PAD`] marks padding).
    pub source: u32,
    /// Payload length in bytes.
    pub len: u32,
    /// Address of the previous record from the same source, or [`NIL_ADDR`].
    pub prev: u64,
    /// Internal (arrival) timestamp in nanoseconds (§5.2).
    pub ts: u64,
}

impl RecordHeader {
    /// Encodes the header into its fixed-size little-endian form,
    /// stamping a CRC32 over the header fields and `payload`.
    ///
    /// `payload` must be the exact bytes appended after the header (its
    /// length must equal `self.len`).
    pub fn encode(&self, payload: &[u8]) -> [u8; RECORD_HEADER_SIZE] {
        debug_assert_eq!(payload.len(), self.len as usize, "payload length mismatch");
        let mut buf = [0u8; RECORD_HEADER_SIZE];
        buf[0..4].copy_from_slice(&self.source.to_le_bytes());
        buf[4..8].copy_from_slice(&self.len.to_le_bytes());
        buf[8..16].copy_from_slice(&self.prev.to_le_bytes());
        buf[16..24].copy_from_slice(&self.ts.to_le_bytes());
        let crc = crc32_pair(&buf[..RECORD_CRC_OFFSET], payload);
        buf[24..28].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes a header from a buffer of at least [`RECORD_HEADER_SIZE`]
    /// bytes. The entry checksum is *not* verified here (the payload is
    /// not available); use [`RecordHeader::verify`] once it is.
    pub fn decode(buf: &[u8]) -> Result<RecordHeader> {
        if buf.len() < RECORD_HEADER_SIZE {
            return Err(LoomError::Corrupt(format!(
                "record header truncated: {} bytes",
                buf.len()
            )));
        }
        Ok(RecordHeader {
            source: u32::from_le_bytes(buf[0..4].try_into().expect("length checked")),
            len: u32::from_le_bytes(buf[4..8].try_into().expect("length checked")),
            prev: u64::from_le_bytes(buf[8..16].try_into().expect("length checked")),
            ts: u64::from_le_bytes(buf[16..24].try_into().expect("length checked")),
        })
    }

    /// Verifies the CRC32 stored in an encoded header against the header
    /// bytes and the payload.
    pub fn verify(header_buf: &[u8], payload: &[u8]) -> bool {
        debug_assert!(header_buf.len() >= RECORD_HEADER_SIZE);
        let stored = u32::from_le_bytes(
            header_buf[RECORD_CRC_OFFSET..RECORD_HEADER_SIZE]
                .try_into()
                .expect("length checked"),
        );
        crc32_pair(&header_buf[..RECORD_CRC_OFFSET], payload) == stored
    }

    /// Whether this header marks a padding entry.
    pub fn is_pad(&self) -> bool {
        self.source == SOURCE_PAD
    }

    /// Total entry size (header plus payload).
    pub fn entry_size(&self) -> usize {
        RECORD_HEADER_SIZE + self.len as usize
    }
}

/// The corruption every record reader reports for the entry at `addr`
/// whose end, `end` bytes into its chunk piece, runs past the piece's
/// `len` bytes.
#[cold]
pub(crate) fn entry_overrun(addr: u64, end: usize, len: usize) -> LoomError {
    LoomError::CorruptLog {
        log: LogId::Records,
        addr,
        reason: format!("entry overruns chunk ({end} > {len})"),
    }
}

/// Verifies the checksum of the entry at `addr`, failing as every
/// record reader does.
#[inline]
pub(crate) fn verify_entry(addr: u64, header_buf: &[u8], payload: &[u8]) -> Result<()> {
    if !RecordHeader::verify(header_buf, payload) {
        return Err(LoomError::CorruptLog {
            log: LogId::Records,
            addr,
            reason: "record checksum mismatch".into(),
        });
    }
    Ok(())
}

/// A record parsed out of a chunk, with its address and borrowed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRecord<'a> {
    /// Log address of the record's header.
    pub addr: u64,
    /// The record header.
    pub header: RecordHeader,
    /// The record payload.
    pub payload: &'a [u8],
}

/// Iterates over the records stored in one chunk's raw bytes, verifying
/// each entry's checksum.
///
/// `base_addr` is the log address of `bytes[0]`. Padding entries are
/// skipped; iteration ends at a zeroed (source 0) header or the end of the
/// buffer. A partially written final chunk may simply end early. An entry
/// whose checksum does not match yields
/// [`LoomError::CorruptLog`] with the entry's log address.
pub struct ChunkIter<'a> {
    bytes: &'a [u8],
    base_addr: u64,
    pos: usize,
}

impl<'a> ChunkIter<'a> {
    /// Creates an iterator over `bytes`, whose first byte lives at log
    /// address `base_addr`.
    pub fn new(bytes: &'a [u8], base_addr: u64) -> Self {
        ChunkIter {
            bytes,
            base_addr,
            pos: 0,
        }
    }
}

impl<'a> Iterator for ChunkIter<'a> {
    type Item = Result<ChunkRecord<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.pos + RECORD_HEADER_SIZE > self.bytes.len() {
                return None;
            }
            let header_buf = &self.bytes[self.pos..self.pos + RECORD_HEADER_SIZE];
            let header = match RecordHeader::decode(header_buf) {
                Ok(h) => h,
                Err(e) => return Some(Err(e)),
            };
            if header.source == 0 {
                // Zeroed tail: end of valid data in this chunk.
                return None;
            }
            let payload_start = self.pos + RECORD_HEADER_SIZE;
            let payload_end = payload_start + header.len as usize;
            let addr = self.base_addr + self.pos as u64;
            if payload_end > self.bytes.len() {
                return Some(Err(entry_overrun(addr, payload_end, self.bytes.len())));
            }
            let payload = &self.bytes[payload_start..payload_end];
            if let Err(e) = verify_entry(addr, header_buf, payload) {
                return Some(Err(e));
            }
            self.pos = payload_end;
            if header.is_pad() {
                continue;
            }
            return Some(Ok(ChunkRecord {
                addr,
                header,
                payload,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = RecordHeader {
            source: 42,
            len: 4,
            prev: 0xdead_beef_cafe,
            ts: 123_456_789,
        };
        let buf = h.encode(b"abcd");
        assert_eq!(RecordHeader::decode(&buf).unwrap(), h);
        assert!(RecordHeader::verify(&buf, b"abcd"));
        assert!(!RecordHeader::verify(&buf, b"abce"));
    }

    #[test]
    fn decode_rejects_short_buffer() {
        assert!(RecordHeader::decode(&[0u8; RECORD_HEADER_SIZE - 1]).is_err());
    }

    fn mk(source: u32, payload: &[u8], prev: u64, ts: u64) -> Vec<u8> {
        let h = RecordHeader {
            source,
            len: payload.len() as u32,
            prev,
            ts,
        };
        let mut v = h.encode(payload).to_vec();
        v.extend_from_slice(payload);
        v
    }

    #[test]
    fn chunk_iter_walks_records_and_skips_padding() {
        let mut chunk = Vec::new();
        chunk.extend(mk(1, b"aaaa", NIL_ADDR, 10));
        chunk.extend(mk(2, b"bb", NIL_ADDR, 11));
        // Padding entry.
        chunk.extend(mk(SOURCE_PAD, &[0u8; 8], 0, 0));
        chunk.extend(mk(1, b"cccccc", 0, 12));
        // Zeroed tail.
        chunk.extend(std::iter::repeat_n(0u8, 40));

        let records: Vec<_> = ChunkIter::new(&chunk, 1000)
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].addr, 1000);
        assert_eq!(records[0].payload, b"aaaa");
        assert_eq!(records[1].header.source, 2);
        assert_eq!(records[2].payload, b"cccccc");
        assert_eq!(records[2].header.prev, 0);
    }

    #[test]
    fn chunk_iter_stops_at_short_zero_tail() {
        // Fewer than a header's worth of zero bytes at the end.
        let mut chunk = mk(1, b"wxyz", NIL_ADDR, 5);
        chunk.extend_from_slice(&[0u8; 10]);
        let records: Vec<_> = ChunkIter::new(&chunk, 0)
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn chunk_iter_reports_overrun_as_corrupt() {
        let h = RecordHeader {
            source: 1,
            len: 1000,
            prev: NIL_ADDR,
            ts: 5,
        };
        let mut chunk = h.encode(&[0u8; 1000]).to_vec();
        chunk.extend_from_slice(b"short");
        let mut it = ChunkIter::new(&chunk, 0);
        assert!(matches!(
            it.next(),
            Some(Err(LoomError::CorruptLog {
                log: LogId::Records,
                ..
            }))
        ));
    }

    #[test]
    fn chunk_iter_detects_flipped_payload_byte() {
        let mut chunk = mk(1, b"payload!", NIL_ADDR, 7);
        let flip = RECORD_HEADER_SIZE + 2;
        chunk[flip] ^= 0x40;
        let mut it = ChunkIter::new(&chunk, 512);
        match it.next() {
            Some(Err(LoomError::CorruptLog { log, addr, reason })) => {
                assert_eq!(log, LogId::Records);
                assert_eq!(addr, 512);
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn empty_chunk_yields_nothing() {
        assert!(ChunkIter::new(&[], 0).next().is_none());
        assert!(ChunkIter::new(&[0u8; 64], 0).next().is_none());
    }
}
