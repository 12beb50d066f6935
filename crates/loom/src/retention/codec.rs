//! Chunk compression codecs for the cold tier.
//!
//! A cold segment stores each aged chunk as one compressed frame. Two
//! codecs exist:
//!
//! - **Columnar** ([`CODEC_COLUMNAR`]): parses the chunk's record
//!   entries and encodes them column-wise — delta-of-delta varint
//!   timestamps, a per-chunk source dictionary, implicit per-source back
//!   pointers (each record's `prev` is the previous same-source record's
//!   address, so only the first record per source per chunk stores one),
//!   XOR-of-previous values for fixed 8-byte payloads (the
//!   Gorilla-style float path: nearby `f64` bit patterns share their
//!   sign/exponent/high-mantissa bits, so the XOR's significant low
//!   bytes are short), and a byte-level fallback for opaque payloads.
//!   Record CRCs are *not* stored: decode re-derives them from the
//!   reconstructed header and payload, which is exact because encode
//!   only accepts chunks whose CRCs verify.
//! - **Raw** ([`CODEC_RAW`]): the chunk bytes unchanged. Selected
//!   whenever the columnar codec declines the chunk (unusual padding,
//!   broken CRCs, >`u32` sources…) or fails its round-trip check.
//!
//! [`compress_chunk`] round-trips every columnar encoding through
//! [`decompress_chunk`] before accepting it, so a decoded cold chunk is
//! **bit-identical** to the hot bytes it replaced *by construction*, not
//! by codec correctness: any discrepancy falls back to raw storage at
//! compaction time.
//!
//! **One walker, two sinks.** `walk_columnar` is the only parser of a
//! columnar body; it bounds every length and count before anything is
//! allocated and hands each entry to a `ColumnarSink`:
//!
//! - the *byte sink* (behind [`decompress_chunk`], the segment reader's
//!   `read_chunk_frame`, compaction's round-trip check, a dirty reopen's
//!   record-log scan and raw scans) rebuilds the exact chunk bytes.
//!   It is the only place record CRCs are re-derived: once per record,
//!   after the exception list has patched every back pointer in place;
//! - the *column sink* (`query::columnar`) fills a `ColumnBatch`
//!   directly — addresses, timestamps, extracted values and the queried
//!   source's payloads — so indexed queries over cold chunks never
//!   rebuild, re-checksum or re-parse record bytes.

use crate::durability::{crc32_pair, LogId, MAX_FRAME_LEN};
use crate::error::{LoomError, Result};
use crate::record::{RecordHeader, NIL_ADDR, RECORD_CRC_OFFSET, RECORD_HEADER_SIZE, SOURCE_PAD};

/// Codec id: chunk bytes stored unchanged.
pub const CODEC_RAW: u8 = 0;
/// Codec id: columnar encoding (timestamps DoD, values XOR, dictionary
/// sources, implicit back pointers).
pub const CODEC_COLUMNAR: u8 = 1;

fn corrupt(reason: impl Into<String>) -> LoomError {
    LoomError::CorruptLog {
        log: LogId::ColdSegment,
        addr: 0,
        reason: reason.into(),
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Little-endian reader over an encoded body; every read is
/// bounds-checked and surfaces [`LoomError::CorruptLog`].
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(corrupt("truncated varint"));
            };
            self.pos += 1;
            if shift >= 64 {
                return Err(corrupt("varint overflows u64"));
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn zigzag(&mut self) -> Result<i64> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| corrupt("truncated byte run"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn byte(&mut self) -> Result<u8> {
        let Some(&b) = self.bytes.get(self.pos) else {
            return Err(corrupt("truncated byte"));
        };
        self.pos += 1;
        Ok(b)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// One parsed chunk entry (data record or padding).
struct Entry<'a> {
    addr: u64,
    header: RecordHeader,
    payload: &'a [u8],
}

/// Parses a sealed chunk into its entries (pads included). Returns
/// `None` when the chunk does not have the canonical shape the columnar
/// codec encodes (a CRC failure, a non-zero pad payload, a non-zero
/// trailing region…) — the caller then stores it raw.
fn parse_entries(bytes: &[u8], base_addr: u64) -> Option<(Vec<Entry<'_>>, usize)> {
    let mut entries = Vec::new();
    let mut pos = 0usize;
    while pos + RECORD_HEADER_SIZE <= bytes.len() {
        let header_buf = &bytes[pos..pos + RECORD_HEADER_SIZE];
        let header = RecordHeader::decode(header_buf).ok()?;
        if header.source == 0 {
            // Zeroed tail: the rest of the chunk must be all zeros.
            if bytes[pos..].iter().any(|&b| b != 0) {
                return None;
            }
            return Some((entries, bytes.len() - pos));
        }
        let end = pos + header.entry_size();
        if end > bytes.len() {
            return None;
        }
        let payload = &bytes[pos + RECORD_HEADER_SIZE..end];
        if !RecordHeader::verify(header_buf, payload) {
            return None;
        }
        if header.is_pad() && (header.ts != 0 || header.prev != NIL_ADDR) {
            return None;
        }
        if header.is_pad() && payload.iter().any(|&b| b != 0) {
            return None;
        }
        entries.push(Entry {
            addr: base_addr + pos as u64,
            header,
            payload,
        });
        pos = end;
    }
    if bytes[pos..].iter().any(|&b| b != 0) {
        return None;
    }
    Some((entries, bytes.len() - pos))
}

/// Columnar-encodes one sealed chunk, or `None` when the chunk's shape
/// is not encodable (the caller falls back to [`CODEC_RAW`]).
fn encode_columnar(bytes: &[u8], base_addr: u64) -> Option<Vec<u8>> {
    let (entries, tail_zeros) = parse_entries(bytes, base_addr)?;

    // Source dictionary in first-appearance order, with each source's
    // first in-chunk back pointer (subsequent ones are implicit).
    let mut dict: Vec<(u32, u64)> = Vec::new();
    let mut last_addr: Vec<u64> = Vec::new();
    let mut last_bits: Vec<u64> = Vec::new();
    let mut tags: Vec<u64> = Vec::with_capacity(entries.len());
    let mut exceptions: Vec<(u64, u64)> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        if e.header.is_pad() {
            tags.push(0);
            continue;
        }
        let di = match dict.iter().position(|(s, _)| *s == e.header.source) {
            Some(di) => {
                if e.header.prev != last_addr[di] {
                    exceptions.push((i as u64, e.header.prev));
                }
                di
            }
            None => {
                dict.push((e.header.source, e.header.prev));
                last_addr.push(0);
                last_bits.push(0);
                dict.len() - 1
            }
        };
        last_addr[di] = e.addr;
        tags.push(di as u64 + 1);
    }

    let mut out = Vec::with_capacity(bytes.len() / 4);
    put_varint(&mut out, bytes.len() as u64);
    put_varint(&mut out, tail_zeros as u64);
    put_varint(&mut out, dict.len() as u64);
    for &(source, first_prev) in &dict {
        put_varint(&mut out, source as u64);
        // NIL_ADDR (u64::MAX) becomes 0 under wrapping +1, keeping the
        // common "first record ever" case to one varint byte.
        put_varint(&mut out, first_prev.wrapping_add(1));
    }
    put_varint(&mut out, entries.len() as u64);

    let mut prev_ts = 0u64;
    let mut prev_delta = 0u64;
    for (e, &tag) in entries.iter().zip(&tags) {
        put_varint(&mut out, tag);
        put_varint(&mut out, e.header.len as u64);
        if tag == 0 {
            continue;
        }
        let delta = e.header.ts.wrapping_sub(prev_ts);
        put_zigzag(&mut out, delta.wrapping_sub(prev_delta) as i64);
        prev_ts = e.header.ts;
        prev_delta = delta;
        if e.payload.len() == 8 {
            let mut b = [0u8; 8];
            b.copy_from_slice(e.payload);
            let bits = u64::from_le_bytes(b);
            let di = tag as usize - 1;
            let x = last_bits[di] ^ bits;
            last_bits[di] = bits;
            let k = (64 - x.leading_zeros() as usize).div_ceil(8);
            out.push(k as u8);
            out.extend_from_slice(&x.to_le_bytes()[..k]);
        } else {
            out.extend_from_slice(e.payload);
        }
    }

    put_varint(&mut out, exceptions.len() as u64);
    for &(idx, prev) in &exceptions {
        put_varint(&mut out, idx);
        put_varint(&mut out, prev.wrapping_add(1));
    }
    Some(out)
}

/// Upper bound on the length of any chunk a cold frame describes. A chunk
/// the columnar codec declines is stored raw, in one frame, so no chunk
/// the segment format can hold is longer than the frame ceiling.
pub(crate) const MAX_CHUNK_LEN: usize = MAX_FRAME_LEN as usize;

/// Receives the entries of a [`CODEC_COLUMNAR`] body from
/// [`walk_columnar`], in chunk order.
pub(crate) trait ColumnarSink {
    /// The header parsed: the chunk is `raw_len` bytes (already checked
    /// against the caller's bound). Called once, before any entry.
    fn begin(&mut self, raw_len: usize);

    /// A padding entry with a `len`-byte zero payload.
    fn pad(&mut self, len: u32);

    /// A data record whose header starts at chunk offset `off`, with its
    /// back pointer predicted as `prev` (the exception list may override
    /// it, see [`ColumnarSink::exception`]). Returns `false` to end the
    /// walk after this record.
    fn record(&mut self, off: usize, source: u32, prev: u64, ts: u64, payload: &[u8]) -> bool;

    /// Entry `idx` (counted over all entries, pads included) is a data
    /// record whose back pointer is `prev`, not the predicted one. Called
    /// only once every entry was delivered, with strictly ascending
    /// indices.
    fn exception(&mut self, idx: usize, prev: u64);
}

/// One source-dictionary slot during a walk.
struct DictSlot {
    source: u32,
    /// Back pointer of the source's next record in this chunk.
    prev: u64,
    /// Payload bits of the source's last 8-byte record (the XOR base).
    bits: u64,
}

/// The one parser of a [`CODEC_COLUMNAR`] body: header varints, source
/// dictionary, the tag/len/delta-of-delta/XOR entry loop, pads, the
/// exception list, and every length and trailing-bytes check, feeding
/// each entry to `sink`.
///
/// `max_len` bounds the chunk length the body may claim; the dictionary
/// and entry counts are bounded by the chunk's header capacity before
/// either sizes an allocation. When the sink stops early the rest of the
/// body is not examined.
pub(crate) fn walk_columnar<S: ColumnarSink>(
    body: &[u8],
    base_addr: u64,
    max_len: usize,
    sink: &mut S,
) -> Result<()> {
    let mut r = Reader::new(body);
    let raw_len = r.varint()?;
    if raw_len > max_len as u64 {
        return Err(corrupt(format!(
            "chunk length {raw_len} exceeds bound {max_len}"
        )));
    }
    let raw_len = raw_len as usize;
    let tail_zeros = r.varint()?;
    // Every dictionary source owns at least one entry, and every entry
    // at least a header's worth of the chunk.
    let max_entries = (raw_len / RECORD_HEADER_SIZE) as u64;
    let dict_len = r.varint()?;
    if dict_len > max_entries {
        return Err(corrupt("dictionary larger than chunk"));
    }
    let mut dict: Vec<DictSlot> = Vec::with_capacity(dict_len as usize);
    for _ in 0..dict_len {
        let source = u32::try_from(r.varint()?).map_err(|_| corrupt("source id overflow"))?;
        let prev = r.varint()?.wrapping_sub(1);
        dict.push(DictSlot {
            source,
            prev,
            bits: 0,
        });
    }
    let n_entries = r.varint()?;
    if n_entries > max_entries {
        return Err(corrupt("entry count larger than chunk"));
    }
    sink.begin(raw_len);

    // Entry indices of pads (rarely more than one per chunk): exceptions
    // may only name data records.
    let mut pads: Vec<u64> = Vec::new();
    let mut off = 0usize;
    let mut prev_ts = 0u64;
    let mut prev_delta = 0u64;
    for i in 0..n_entries {
        let tag = r.varint()?;
        let len = u32::try_from(r.varint()?).map_err(|_| corrupt("payload length overflow"))?;
        let end = off + RECORD_HEADER_SIZE + len as usize;
        if end > raw_len {
            return Err(corrupt("entries overrun chunk length"));
        }
        if tag == 0 {
            pads.push(i);
            sink.pad(len);
            off = end;
            continue;
        }
        let slot = usize::try_from(tag - 1)
            .ok()
            .and_then(|di| dict.get_mut(di))
            .ok_or_else(|| corrupt("dictionary tag out of range"))?;
        let dod = r.zigzag()? as u64;
        prev_delta = prev_delta.wrapping_add(dod);
        prev_ts = prev_ts.wrapping_add(prev_delta);
        let bits;
        let payload = if len == 8 {
            let k = r.byte()? as usize;
            if k > 8 {
                return Err(corrupt("xor length out of range"));
            }
            let mut xb = [0u8; 8];
            xb[..k].copy_from_slice(r.take(k)?);
            slot.bits ^= u64::from_le_bytes(xb);
            bits = slot.bits.to_le_bytes();
            &bits[..]
        } else {
            r.take(len as usize)?
        };
        let prev = slot.prev;
        slot.prev = base_addr + off as u64;
        if !sink.record(off, slot.source, prev, prev_ts, payload) {
            return Ok(());
        }
        off = end;
    }

    let n_exceptions = r.varint()?;
    if n_exceptions > n_entries {
        return Err(corrupt("exception count larger than entry count"));
    }
    let mut next = 0u64;
    for _ in 0..n_exceptions {
        let idx = r.varint()?;
        let prev = r.varint()?.wrapping_sub(1);
        if idx < next {
            return Err(corrupt("exception indices not strictly ascending"));
        }
        if idx >= n_entries || pads.binary_search(&idx).is_ok() {
            return Err(corrupt("exception for unknown entry"));
        }
        sink.exception(idx as usize, prev);
        next = idx + 1;
    }

    if (off as u64).checked_add(tail_zeros) != Some(raw_len as u64) {
        return Err(corrupt("reconstructed chunk length mismatch"));
    }
    if !r.done() {
        return Err(corrupt("trailing bytes after chunk body"));
    }
    Ok(())
}

/// The byte sink: rebuilds the exact chunk bytes. Headers are written
/// with a zero CRC; exceptions patch back pointers in place through a
/// forward cursor, and [`stamp_crcs`] re-derives every record CRC once
/// the walk is complete.
struct ByteSink<'a> {
    out: &'a mut Vec<u8>,
    raw_len: usize,
    /// Offset of entry `cursor_idx` in `out`.
    cursor: usize,
    cursor_idx: usize,
}

impl ByteSink<'_> {
    fn push_header(&mut self, source: u32, len: u32, prev: u64, ts: u64) {
        self.out.extend_from_slice(&source.to_le_bytes());
        self.out.extend_from_slice(&len.to_le_bytes());
        self.out.extend_from_slice(&prev.to_le_bytes());
        self.out.extend_from_slice(&ts.to_le_bytes());
        self.out.extend_from_slice(&[0; 4]);
    }
}

/// Length of the entry whose header starts at `pos` in `entries`.
fn entry_len_at(entries: &[u8], pos: usize) -> usize {
    let len = u32::from_le_bytes([
        entries[pos + 4],
        entries[pos + 5],
        entries[pos + 6],
        entries[pos + 7],
    ]);
    RECORD_HEADER_SIZE + len as usize
}

impl ColumnarSink for ByteSink<'_> {
    fn begin(&mut self, raw_len: usize) {
        self.raw_len = raw_len;
        self.out.clear();
        self.out.reserve(raw_len);
    }

    fn pad(&mut self, len: u32) {
        self.push_header(SOURCE_PAD, len, NIL_ADDR, 0);
        self.out.resize(self.out.len() + len as usize, 0);
    }

    fn record(&mut self, _off: usize, source: u32, prev: u64, ts: u64, payload: &[u8]) -> bool {
        self.push_header(source, payload.len() as u32, prev, ts);
        self.out.extend_from_slice(payload);
        true
    }

    fn exception(&mut self, idx: usize, prev: u64) {
        while self.cursor_idx < idx {
            self.cursor += entry_len_at(self.out, self.cursor);
            self.cursor_idx += 1;
        }
        let at = self.cursor + 8;
        self.out[at..at + 8].copy_from_slice(&prev.to_le_bytes());
    }
}

/// Stamps the CRC of every entry in `entries` (a walk's output before the
/// zeroed tail), exactly as [`RecordHeader::encode`] would.
fn stamp_crcs(entries: &mut [u8]) {
    let mut pos = 0;
    while pos < entries.len() {
        let end = pos + entry_len_at(entries, pos);
        let crc = crc32_pair(
            &entries[pos..pos + RECORD_CRC_OFFSET],
            &entries[pos + RECORD_HEADER_SIZE..end],
        );
        entries[pos + RECORD_CRC_OFFSET..pos + RECORD_HEADER_SIZE]
            .copy_from_slice(&crc.to_le_bytes());
        pos = end;
    }
}

/// Decodes a [`CODEC_COLUMNAR`] body of at most `max_len` chunk bytes
/// back into the exact chunk bytes.
fn decode_columnar(body: &[u8], base_addr: u64, max_len: usize, out: &mut Vec<u8>) -> Result<()> {
    let mut sink = ByteSink {
        out,
        raw_len: 0,
        cursor: 0,
        cursor_idx: 0,
    };
    walk_columnar(body, base_addr, max_len, &mut sink)?;
    let raw_len = sink.raw_len;
    stamp_crcs(out);
    out.resize(raw_len, 0);
    Ok(())
}

/// Compresses one sealed chunk for cold storage.
///
/// Tries the columnar codec and **verifies the round trip** — the
/// encoding is only used when decoding it reproduces `bytes` exactly and
/// saves space; otherwise the chunk is stored raw. The returned pair is
/// `(codec_id, body)`.
pub fn compress_chunk(bytes: &[u8], base_addr: u64) -> (u8, Vec<u8>) {
    if let Some(enc) = encode_columnar(bytes, base_addr) {
        if enc.len() < bytes.len() {
            let mut check = Vec::new();
            if decode_columnar(&enc, base_addr, bytes.len(), &mut check).is_ok() && check == bytes {
                return (CODEC_COLUMNAR, enc);
            }
        }
    }
    (CODEC_RAW, bytes.to_vec())
}

/// Decompresses a cold chunk body back into its exact original bytes.
pub fn decompress_chunk(codec: u8, body: &[u8], base_addr: u64, out: &mut Vec<u8>) -> Result<()> {
    decompress_bounded(codec, body, base_addr, MAX_CHUNK_LEN, out)
}

/// [`decompress_chunk`] of a chunk known to be at most `max_len` bytes
/// (a frame's recorded length): a body claiming more is corrupt.
pub(crate) fn decompress_bounded(
    codec: u8,
    body: &[u8],
    base_addr: u64,
    max_len: usize,
    out: &mut Vec<u8>,
) -> Result<()> {
    match codec {
        CODEC_RAW => {
            out.clear();
            out.extend_from_slice(body);
            Ok(())
        }
        CODEC_COLUMNAR => decode_columnar(body, base_addr, max_len, out),
        other => Err(corrupt(format!("unknown chunk codec {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_record(chunk: &mut Vec<u8>, source: u32, payload: &[u8], prev: u64, ts: u64) -> u64 {
        let addr = chunk.len() as u64;
        let h = RecordHeader {
            source,
            len: payload.len() as u32,
            prev,
            ts,
        };
        chunk.extend_from_slice(&h.encode(payload));
        chunk.extend_from_slice(payload);
        addr
    }

    /// A canonical sealed chunk: two sources with 8-byte payloads, a pad
    /// entry, and a zeroed tail.
    fn sample_chunk(base: u64) -> Vec<u8> {
        let mut chunk = Vec::new();
        let mut prev_a = NIL_ADDR;
        let mut prev_b = 7777u64; // chain into an earlier chunk
        for i in 0..20u64 {
            let v = (1000.0 + i as f64 * 0.25f64).to_bits();
            prev_a = base + push_record(&mut chunk, 3, &v.to_le_bytes(), prev_a, 50 + i * 10);
        }
        for i in 0..5u64 {
            let v = 90_000 + i * 3;
            prev_b = base + push_record(&mut chunk, 9, &v.to_le_bytes(), prev_b, 260 + i);
        }
        // Pad entry then zero tail, like a real seal.
        let pad = vec![0u8; 12];
        push_record(&mut chunk, SOURCE_PAD, &pad, NIL_ADDR, 0);
        chunk.resize(2048, 0);
        chunk
    }

    #[test]
    fn columnar_round_trips_bit_exactly() {
        let base = 4 * 2048;
        let chunk = sample_chunk(base);
        let (codec, body) = compress_chunk(&chunk, base);
        assert_eq!(codec, CODEC_COLUMNAR);
        assert!(
            body.len() * 3 <= chunk.len(),
            "expected >=3x on ts+float payloads, got {} -> {}",
            chunk.len(),
            body.len()
        );
        let mut out = Vec::new();
        decompress_chunk(codec, &body, base, &mut out).unwrap();
        assert_eq!(out, chunk);
    }

    #[test]
    fn opaque_payloads_round_trip_via_byte_fallback_column() {
        let mut chunk = Vec::new();
        let mut prev = NIL_ADDR;
        for i in 0..10u64 {
            let payload = vec![i as u8; 3 + (i as usize % 5)];
            prev = push_record(&mut chunk, 1, &payload, prev, 10 + i);
        }
        chunk.resize(1024, 0);
        let (codec, body) = compress_chunk(&chunk, 0);
        let mut out = Vec::new();
        decompress_chunk(codec, &body, 0, &mut out).unwrap();
        assert_eq!(out, chunk);
        assert_eq!(codec, CODEC_COLUMNAR);
    }

    #[test]
    fn corrupt_chunk_falls_back_to_raw_and_round_trips() {
        let mut chunk = sample_chunk(0);
        chunk[40] ^= 0x10; // break a record CRC
        let (codec, body) = compress_chunk(&chunk, 0);
        assert_eq!(codec, CODEC_RAW);
        let mut out = Vec::new();
        decompress_chunk(codec, &body, 0, &mut out).unwrap();
        assert_eq!(out, chunk);
    }

    #[test]
    fn empty_chunk_round_trips() {
        let chunk = vec![0u8; 512];
        let (codec, body) = compress_chunk(&chunk, 0);
        let mut out = Vec::new();
        decompress_chunk(codec, &body, 0, &mut out).unwrap();
        assert_eq!(out, chunk);
        assert!(body.len() < 16, "all-zero chunk should compress tiny");
    }

    #[test]
    fn prev_exceptions_are_reconstructed() {
        // A record whose back pointer does not chain to the previous
        // same-source record in this chunk (as recovery republication
        // can produce) must still round-trip exactly.
        let mut chunk = Vec::new();
        push_record(&mut chunk, 5, &1u64.to_le_bytes(), NIL_ADDR, 1);
        push_record(&mut chunk, 5, &2u64.to_le_bytes(), 123_456, 2);
        chunk.resize(512, 0);
        let (codec, body) = compress_chunk(&chunk, 0);
        let mut out = Vec::new();
        decompress_chunk(codec, &body, 0, &mut out).unwrap();
        assert_eq!(out, chunk);
        assert_eq!(codec, CODEC_COLUMNAR);
    }

    #[test]
    fn every_record_an_exception_round_trips() {
        // Recovery republication can leave no record chained to its
        // same-source predecessor: the exception list then names every
        // record but the first.
        let n = 400u64;
        let mut chunk = Vec::new();
        for i in 0..n {
            let prev = 1_000_000 + i * 977;
            push_record(&mut chunk, 5, &(i * 3).to_le_bytes(), prev, 10 + i);
        }
        chunk.resize(16 * 1024, 0);
        let (codec, body) = compress_chunk(&chunk, 0);
        assert_eq!(codec, CODEC_COLUMNAR);
        let mut out = Vec::new();
        decompress_chunk(codec, &body, 0, &mut out).unwrap();
        assert_eq!(out, chunk);
    }

    /// A hand-built body: three opaque 3-byte records of source 5 around
    /// one pad (entry 1), then `exceptions` as `(entry, prev)` pairs.
    fn body_with_exceptions(exceptions: &[(u64, u64)]) -> Vec<u8> {
        let raw_len = 4 * (RECORD_HEADER_SIZE as u64 + 3);
        let mut b = Vec::new();
        for v in [raw_len, 0, 1, 5, 0, 4] {
            put_varint(&mut b, v);
        }
        for tag in [1u64, 0, 1, 1] {
            put_varint(&mut b, tag);
            put_varint(&mut b, 3);
            if tag != 0 {
                put_zigzag(&mut b, 1);
                b.extend_from_slice(b"abc");
            }
        }
        put_varint(&mut b, exceptions.len() as u64);
        for &(idx, prev) in exceptions {
            put_varint(&mut b, idx);
            put_varint(&mut b, prev.wrapping_add(1));
        }
        b
    }

    #[test]
    fn exceptions_must_ascend_and_name_data_records() {
        let mut out = Vec::new();
        decompress_chunk(
            CODEC_COLUMNAR,
            &body_with_exceptions(&[(2, 7), (3, 9)]),
            0,
            &mut out,
        )
        .unwrap();
        // `ChunkIter` verifies every re-derived record checksum.
        let prevs: Vec<u64> = crate::record::ChunkIter::new(&out, 0)
            .map(|r| r.unwrap().header.prev)
            .collect();
        assert_eq!(prevs, vec![NIL_ADDR, 7, 9]);
        for bad in [
            &[(3, 7), (2, 9)][..], // descending
            &[(2, 7), (2, 9)],     // repeated
            &[(1, 7)],             // names the pad
            &[(4, 7)],             // past the last entry
        ] {
            let err = decompress_chunk(CODEC_COLUMNAR, &body_with_exceptions(bad), 0, &mut out)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    LoomError::CorruptLog {
                        log: LogId::ColdSegment,
                        ..
                    }
                ),
                "{bad:?}: {err:?}"
            );
        }
    }

    #[test]
    fn truncated_bodies_error_instead_of_panicking() {
        let base = 0;
        let chunk = sample_chunk(base);
        let (codec, body) = compress_chunk(&chunk, base);
        assert_eq!(codec, CODEC_COLUMNAR);
        let mut out = Vec::new();
        for cut in 0..body.len().min(64) {
            assert!(
                decompress_chunk(codec, &body[..cut], base, &mut out).is_err() || out != chunk // a prefix that parses must not fake the chunk
            );
        }
        assert!(decompress_chunk(7, &body, base, &mut out).is_err());
    }
}
