//! Cold-tier segment files: CRC-framed containers of compressed chunks.
//!
//! A segment lives at `cold/<slice>/seg-N.seg` inside a shard directory
//! and is written in one compaction round: header, then one frame per
//! aged chunk, then `fsync`. A segment is *not* data until the manifest
//! journals a `ChunksAged` record pointing into it — the manifest append
//! is the tier commit point, so a crash mid-segment leaves an orphan
//! file that reopen deletes, with every affected chunk still owned by
//! the hot tier.
//!
//! Frame body layout (wrapped in the standard `[len][crc][body]` frame):
//!
//! ```text
//! chunk_addr u64 | raw_len u32 | raw_crc u32 | codec u8 | compressed bytes
//! ```
//!
//! The frame CRC covers every body byte (`chunk_addr`, `raw_len`,
//! `raw_crc`, codec id, compressed bytes) and is verified on every read.
//! `raw_crc` is the CRC32 of the *original* chunk bytes: reads that
//! inflate the chunk back into record bytes ([`read_chunk_frame`],
//! `ColdSnap::read_chunk`) verify it after decompression. The column
//! read (`ColdSnap::read_frame`) stops at the frame CRC — compaction
//! proved the body inflates exactly when it wrote the frame, so
//! re-checking the decoder against itself adds nothing. Both CRCs run
//! the carry-less-multiply kernel where the CPU has it (see
//! [`Crc32`](crate::durability::format::Crc32)), so checking a frame
//! costs a small fraction of inflating it.
//!
//! [`validate_segment`] is the open-time check: header, every frame CRC,
//! frame order. It never inflates. A dirty reopen's record-log scan is
//! the one pass that inflates every live cold chunk and checks its
//! `raw_len` and `raw_crc`.

use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use super::codec;
use crate::durability::format::{crc32, read_frame, write_frame, LogId, FRAME_HEADER_SIZE};
use crate::error::{LoomError, Result};
use crate::fault;

/// Name of the cold-tier directory inside a shard data directory.
pub const COLD_DIR: &str = "cold";

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"LOOMCSG\x01";

/// Size of the segment header: magic + version + slice + crc.
pub const SEGMENT_HEADER_SIZE: usize = 8 + 4 + 8 + 4;

/// Segment format version.
pub const SEGMENT_VERSION: u32 = 1;

/// Directory name of one cold time slice.
pub fn slice_dir_name(slice: u64) -> String {
    format!("slice-{slice:012}")
}

/// Parses a slice index back out of a directory name.
pub fn parse_slice_dir_name(name: &str) -> Option<u64> {
    name.strip_prefix("slice-")?.parse().ok()
}

/// File name of one segment within a slice directory.
pub fn segment_file_name(segment: u32) -> String {
    format!("seg-{segment:06}.seg")
}

/// Parses a segment index back out of a file name.
pub fn parse_segment_file_name(name: &str) -> Option<u32> {
    name.strip_prefix("seg-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Absolute path of segment `segment` of `slice` under `shard_dir`.
pub fn segment_path(shard_dir: &Path, slice: u64, segment: u32) -> PathBuf {
    shard_dir
        .join(COLD_DIR)
        .join(slice_dir_name(slice))
        .join(segment_file_name(segment))
}

fn corrupt_at(addr: u64, reason: impl Into<String>) -> LoomError {
    LoomError::CorruptLog {
        log: LogId::ColdSegment,
        addr,
        reason: reason.into(),
    }
}

/// Metadata of one chunk frame appended to a segment, destined for the
/// manifest's `ChunksAged` commit record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Record-log address of the aged chunk.
    pub chunk_addr: u64,
    /// Byte offset of the frame inside the segment file.
    pub offset: u64,
    /// Uncompressed chunk length.
    pub raw_len: u32,
    /// Compressed frame body length (header fields included).
    pub comp_len: u32,
    /// Codec the chunk was stored with.
    pub codec: u8,
}

/// Writes one segment file for one compaction round.
pub struct SegmentWriter {
    file: File,
    path: PathBuf,
    tag: String,
    buf: Vec<u8>,
    offset: u64,
}

impl SegmentWriter {
    /// Creates `seg-<segment>.seg` (and its slice directory) under
    /// `shard_dir/cold/<slice>/`.
    pub fn create(shard_dir: &Path, slice: u64, segment: u32) -> Result<SegmentWriter> {
        let path = segment_path(shard_dir, slice, segment);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let tag = segment_file_name(segment);
        let mut header = Vec::with_capacity(SEGMENT_HEADER_SIZE);
        header.extend_from_slice(SEGMENT_MAGIC);
        header.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        header.extend_from_slice(&slice.to_le_bytes());
        let crc = crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        // Read access too: `finish` hands the file back for immediate
        // cold reads by the freshly installed snapshot.
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        if let Some(k) = fault::check(fault::SEGMENT_WRITE, &tag) {
            return Err(LoomError::Io(k.to_io_error()));
        }
        file.write_all(&header)?;
        Ok(SegmentWriter {
            file,
            path,
            tag,
            buf: Vec::new(),
            offset: SEGMENT_HEADER_SIZE as u64,
        })
    }

    /// Compresses `raw` (the exact chunk bytes at `chunk_addr`) and
    /// appends its frame.
    pub fn append_chunk(&mut self, chunk_addr: u64, raw: &[u8]) -> Result<FrameMeta> {
        let (codec_id, comp) = codec::compress_chunk(raw, chunk_addr);
        let mut body = Vec::with_capacity(FRAME_BODY_HEADER + comp.len());
        body.extend_from_slice(&chunk_addr.to_le_bytes());
        body.extend_from_slice(&(raw.len() as u32).to_le_bytes());
        body.extend_from_slice(&crc32(raw).to_le_bytes());
        body.push(codec_id);
        body.extend_from_slice(&comp);
        self.buf.clear();
        write_frame(&mut self.buf, &body);
        if let Some(k) = fault::check(fault::SEGMENT_WRITE, &self.tag) {
            if k == crate::fault::FaultKind::ShortWrite {
                // Model a torn frame: half the bytes land before the error.
                let half = self.buf.len() / 2;
                let _ = self.file.write_all(&self.buf[..half]);
            }
            return Err(LoomError::Io(k.to_io_error()));
        }
        self.file.write_all(&self.buf)?;
        let meta = FrameMeta {
            chunk_addr,
            offset: self.offset,
            raw_len: raw.len() as u32,
            comp_len: body.len() as u32,
            codec: codec_id,
        };
        self.offset += (FRAME_HEADER_SIZE + body.len()) as u64;
        Ok(meta)
    }

    /// Fsyncs the segment (and its slice directory, so the new file's
    /// directory entry is durable before the manifest commit) and
    /// returns the opened file for immediate cold reads.
    pub fn finish(self) -> Result<File> {
        if let Some(k) = fault::check(fault::SEGMENT_SYNC, &self.tag) {
            return Err(LoomError::Io(k.to_io_error()));
        }
        self.file.sync_all()?;
        if let Some(parent) = self.path.parent() {
            File::open(parent)?.sync_all()?;
        }
        Ok(self.file)
    }
}

/// Bytes of a chunk frame body ahead of the codec payload: chunk
/// address, raw length, raw CRC, codec id.
const FRAME_BODY_HEADER: usize = 17;

/// One chunk frame whose frame checksum has been verified.
#[derive(Clone, Copy)]
pub(crate) struct ChunkFrame<'a> {
    /// Byte offset of the frame inside its segment file.
    pub offset: u64,
    /// Record-log address of the chunk.
    pub chunk_addr: u64,
    /// Length of the original chunk.
    pub raw_len: u32,
    /// CRC32 of the original chunk bytes.
    pub raw_crc: u32,
    /// Codec the body was written with.
    pub codec: u8,
    /// The codec payload.
    pub body: &'a [u8],
}

impl<'a> ChunkFrame<'a> {
    /// Splits a checksum-verified frame body into its fields.
    fn parse(body: &'a [u8], offset: u64) -> Result<ChunkFrame<'a>> {
        if body.len() < FRAME_BODY_HEADER {
            return Err(corrupt_at(offset, "frame body shorter than its header"));
        }
        let le32 =
            |at: usize| u32::from_le_bytes([body[at], body[at + 1], body[at + 2], body[at + 3]]);
        Ok(ChunkFrame {
            offset,
            chunk_addr: u64::from(le32(0)) | u64::from(le32(4)) << 32,
            raw_len: le32(8),
            raw_crc: le32(12),
            codec: body[16],
            body: &body[FRAME_BODY_HEADER..],
        })
    }

    /// Decompresses the exact original chunk bytes into `out` and checks
    /// them against the frame's `raw_len` and `raw_crc`.
    pub fn inflate(&self, out: &mut Vec<u8>) -> Result<()> {
        let max_len = (self.raw_len as usize).min(codec::MAX_CHUNK_LEN);
        codec::decompress_bounded(self.codec, self.body, self.chunk_addr, max_len, out)?;
        if out.len() != self.raw_len as usize {
            return Err(corrupt_at(
                self.offset,
                format!(
                    "decompressed {} bytes, frame says {}",
                    out.len(),
                    self.raw_len
                ),
            ));
        }
        if crc32(out) != self.raw_crc {
            return Err(corrupt_at(
                self.offset,
                "decompressed chunk checksum mismatch",
            ));
        }
        Ok(())
    }
}

/// Reads the chunk frame at `offset` into `buf` (grown, never shrunk, so
/// a reused buffer costs no allocation) and verifies the frame length
/// bound, the frame checksum, and that it holds chunk `expect_addr`.
pub(crate) fn read_frame_at<'b>(
    file: &File,
    offset: u64,
    expect_addr: u64,
    buf: &'b mut Vec<u8>,
) -> Result<ChunkFrame<'b>> {
    let overrun = |e: std::io::Error| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            corrupt_at(offset, "frame overruns segment file")
        } else {
            LoomError::Io(e)
        }
    };
    let mut head = [0u8; FRAME_HEADER_SIZE];
    file.read_exact_at(&mut head, offset).map_err(overrun)?;
    let body_len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    let stored_crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if body_len < FRAME_BODY_HEADER || body_len as u64 > crate::durability::MAX_FRAME_LEN {
        return Err(corrupt_at(offset, format!("bad frame length {body_len}")));
    }
    if buf.len() < body_len {
        buf.resize(body_len, 0);
    }
    let body = &mut buf[..body_len];
    file.read_exact_at(body, offset + FRAME_HEADER_SIZE as u64)
        .map_err(overrun)?;
    if crc32(body) != stored_crc {
        return Err(corrupt_at(offset, "frame checksum mismatch"));
    }
    let frame = ChunkFrame::parse(body, offset)?;
    if frame.chunk_addr != expect_addr {
        return Err(corrupt_at(
            offset,
            format!(
                "frame holds chunk {}, expected {expect_addr}",
                frame.chunk_addr
            ),
        ));
    }
    Ok(frame)
}

/// Reads and verifies the chunk frame at `offset`, decompressing the
/// exact original chunk bytes into `out`. `expect_addr` cross-checks the
/// frame against the caller's map. Callers that read many frames reuse
/// one frame buffer through `ColdSnap::read_chunk` instead.
pub fn read_chunk_frame(
    file: &File,
    offset: u64,
    expect_addr: u64,
    out: &mut Vec<u8>,
) -> Result<()> {
    let mut buf = Vec::new();
    read_frame_at(file, offset, expect_addr, &mut buf)?.inflate(out)
}

/// Verifies a segment file's header and every frame's checksum and
/// chunk-address order, without inflating any. Returns the chunk
/// addresses the segment holds.
pub fn validate_segment(path: &Path, slice: u64) -> Result<Vec<u64>> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < SEGMENT_HEADER_SIZE {
        return Err(corrupt_at(0, "segment shorter than its header"));
    }
    if &bytes[..8] != SEGMENT_MAGIC {
        return Err(corrupt_at(0, "bad segment magic"));
    }
    let stored = u32::from_le_bytes([
        bytes[SEGMENT_HEADER_SIZE - 4],
        bytes[SEGMENT_HEADER_SIZE - 3],
        bytes[SEGMENT_HEADER_SIZE - 2],
        bytes[SEGMENT_HEADER_SIZE - 1],
    ]);
    if crc32(&bytes[..SEGMENT_HEADER_SIZE - 4]) != stored {
        return Err(corrupt_at(0, "segment header checksum mismatch"));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != SEGMENT_VERSION {
        return Err(corrupt_at(
            0,
            format!("unsupported segment version {version}"),
        ));
    }
    let hdr_slice = u64::from_le_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
    ]);
    if hdr_slice != slice {
        return Err(corrupt_at(
            0,
            format!("segment header names slice {hdr_slice}, directory says {slice}"),
        ));
    }
    let mut addrs = Vec::new();
    let mut pos = SEGMENT_HEADER_SIZE;
    while let Some((body, next)) = read_frame(&bytes, pos, LogId::ColdSegment)? {
        let frame = ChunkFrame::parse(body, pos as u64)?;
        if let Some(&last) = addrs.last() {
            if frame.chunk_addr <= last {
                return Err(corrupt_at(pos as u64, "chunk frames out of order"));
            }
        }
        addrs.push(frame.chunk_addr);
        pos = next;
    }
    if pos != bytes.len() {
        return Err(corrupt_at(pos as u64, "torn frame at segment tail"));
    }
    Ok(addrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordHeader, NIL_ADDR};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("loom-seg-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn chunk_with_records(base: u64, n: u64) -> Vec<u8> {
        let mut chunk = Vec::new();
        let mut prev = NIL_ADDR;
        for i in 0..n {
            let h = RecordHeader {
                source: 2,
                len: 8,
                prev,
                ts: 100 + i,
            };
            prev = base + chunk.len() as u64;
            let payload = (i * 17).to_le_bytes();
            chunk.extend_from_slice(&h.encode(&payload));
            chunk.extend_from_slice(&payload);
        }
        chunk.resize(1024, 0);
        chunk
    }

    #[test]
    fn segment_round_trips_and_validates() {
        let dir = tmpdir("roundtrip");
        let c0 = chunk_with_records(0, 10);
        let c1 = chunk_with_records(1024, 20);
        let mut w = SegmentWriter::create(&dir, 3, 0).unwrap();
        let m0 = w.append_chunk(0, &c0).unwrap();
        let m1 = w.append_chunk(1024, &c1).unwrap();
        let file = w.finish().unwrap();
        assert_eq!(m0.raw_len, 1024);
        assert!(m1.comp_len < 1024, "chunk should compress");

        let mut out = Vec::new();
        read_chunk_frame(&file, m0.offset, 0, &mut out).unwrap();
        assert_eq!(out, c0);
        read_chunk_frame(&file, m1.offset, 1024, &mut out).unwrap();
        assert_eq!(out, c1);
        // Wrong expected address is rejected.
        assert!(read_chunk_frame(&file, m1.offset, 0, &mut out).is_err());

        let path = segment_path(&dir, 3, 0);
        assert_eq!(validate_segment(&path, 3).unwrap(), vec![0, 1024]);
        // Wrong slice in the directory name is caught.
        assert!(validate_segment(&path, 4).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A frame whose `raw_crc` lies under a valid frame CRC passes the
    /// open-time check, which never inflates, and fails the first read
    /// that does.
    #[test]
    fn raw_crc_is_checked_by_inflating_reads_only() {
        let dir = tmpdir("rawcrc");
        let mut w = SegmentWriter::create(&dir, 0, 0).unwrap();
        let m0 = w.append_chunk(0, &chunk_with_records(0, 10)).unwrap();
        drop(w.finish().unwrap());
        let path = segment_path(&dir, 0, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let frame = m0.offset as usize;
        let body = frame + FRAME_HEADER_SIZE..frame + FRAME_HEADER_SIZE + m0.comp_len as usize;
        bytes[body.start + 12] ^= 0x01; // raw_crc
        let crc = crc32(&bytes[body]);
        bytes[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(validate_segment(&path, 0).unwrap(), vec![0]);
        let file = File::open(&path).unwrap();
        let err = read_chunk_frame(&file, m0.offset, 0, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_fails_validation_and_reads() {
        let dir = tmpdir("flip");
        let c0 = chunk_with_records(0, 10);
        let mut w = SegmentWriter::create(&dir, 1, 0).unwrap();
        let m0 = w.append_chunk(0, &c0).unwrap();
        drop(w.finish().unwrap());
        let path = segment_path(&dir, 1, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 20] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(validate_segment(&path, 1).is_err());
        let file = File::open(&path).unwrap();
        let mut out = Vec::new();
        assert!(read_chunk_frame(&file, m0.offset, 0, &mut out).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_detected() {
        let dir = tmpdir("torn");
        let c0 = chunk_with_records(0, 8);
        let mut w = SegmentWriter::create(&dir, 0, 1).unwrap();
        w.append_chunk(0, &c0).unwrap();
        drop(w.finish().unwrap());
        let path = segment_path(&dir, 0, 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(validate_segment(&path, 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(parse_slice_dir_name(&slice_dir_name(42)), Some(42));
        assert_eq!(parse_segment_file_name(&segment_file_name(7)), Some(7));
        assert_eq!(parse_slice_dir_name("nope"), None);
        assert_eq!(parse_segment_file_name("seg-x.seg"), None);
    }
}
