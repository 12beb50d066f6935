//! Chunk decode: the one way indexed queries read a chunk piece.
//!
//! Every operator in `indexed_scan` and `aggregate` — over sealed chunks
//! and over the unsummarized tail alike — reads a chunk piece by decoding
//! it **once** into struct-of-arrays column buffers and evaluating
//! predicates and aggregates as tight loops over those columns:
//!
//! 1. [`ColumnBatch::decode_rows`] appends one row per record of the
//!    queried source: log address, timestamp, payload offset and length,
//!    and the extracted value (plus a validity byte for payloads the
//!    extractor returned `None` for). A hot piece's record bytes are
//!    parsed exactly like `ChunkIter` (same pad skipping, zeroed-tail
//!    termination, CRC verification, and corruption errors); a cold
//!    piece's columnar frame body is walked by the codec straight into
//!    the columns ([`Piece::Columnar`]), with identical rows and
//!    counters. Descriptor-defined indexes get a decode loop
//!    monomorphized per field type ([`ColumnBatch::decode`]);
//!    closure-defined indexes fill the same columns through one
//!    `Arc<dyn Fn>` call per row of their source.
//! 2. [`ColumnBatch::select`] / [`ColumnBatch::select_time`] evaluate the
//!    time- and value-range predicates as a branch-free byte mask over
//!    the columns (integer compares only — no float arithmetic, so the
//!    mask is trivially autovectorizable).
//! 3. Emission and aggregation iterate the selected rows directly —
//!    [`ColumnBatch::emit`] for scans, [`ColumnBatch::selected_values`]
//!    for aggregate accumulators — with no per-record closure dispatch.
//!
//! [`decode_chunk`] runs steps 1–2 for one piece; [`decode_forward`] is
//! the forward early-stopping piece loop shared by every tail scan and
//! the timestamp-index-only ablation. `ChunkIter` remains the reference
//! the decode loop is unit-tested against (and what recovery uses).
//!
//! The module also owns the grow-once buffer pool ([`BufferPool`]): one
//! [`ScanBuffers`] (chunk bytes, cold frame, column vectors) per worker, reused
//! across chunks within a query and across queries, plus recycled
//! [`RecordBatch`] arenas for the parallel delivery path.

use crate::sync::Mutex;

use super::executor::RecordBatch;
use super::view::{QueryView, RegionScan};
use super::{IndexMeta, Record, TimeRange, ValueRange};
use crate::durability::LogId;
use crate::error::{LoomError, Result};
use crate::extract::{self, ExtractorDesc};
use crate::obs::EngineObs;
use crate::record::{entry_overrun, verify_entry, RecordHeader, RECORD_HEADER_SIZE};
use crate::registry::SourceId;
use crate::retention::codec;
use crate::retention::segment::ChunkFrame;
use crate::stats::QueryStats;

/// Struct-of-arrays decode of one chunk piece, filtered to one source.
///
/// All vectors have one entry per retained row except `sel`, which is
/// (re)built by the `select*` kernels. Buffers keep their capacity across
/// [`ColumnBatch::decode`] calls (grow-once reuse).
#[derive(Debug, Default)]
pub(crate) struct ColumnBatch {
    /// Log address of each row's record header.
    addrs: Vec<u64>,
    /// Arrival timestamp of each row.
    ts: Vec<u64>,
    /// Extracted value per row (`0.0` when `valid` is 0).
    values: Vec<f64>,
    /// 1 when the row's payload was long enough for the extractor field.
    valid: Vec<u8>,
    /// Payload start offset of each row within the bytes `emit` is
    /// handed: the hot chunk, or a cold piece's copied payloads.
    pay_off: Vec<u32>,
    /// Payload length of each row.
    pay_len: Vec<u32>,
    /// Selection mask from the last `select*` call (1 = row selected).
    sel: Vec<u8>,
}

/// Where [`ColumnBatch::decode`] reads a chunk piece's entries from.
pub(crate) enum Piece<'a> {
    /// Record bytes as the hot log holds them; every record checksum is
    /// verified, and row payload offsets index these bytes.
    Records(&'a [u8]),
    /// The checksum-verified [`CODEC_COLUMNAR`](codec::CODEC_COLUMNAR)
    /// body of a cold chunk of `raw_len` bytes. The payloads of the
    /// queried source's rows are copied into `payloads` (grown, never
    /// shrunk), and row payload offsets index that buffer.
    Columnar {
        body: &'a [u8],
        raw_len: usize,
        payloads: &'a mut Vec<u8>,
    },
}

/// The column sink: fills a [`ColumnBatch`] straight from the codec's
/// walk, with the counters of [`ColumnBatch::decode_records`] over the
/// inflated chunk. Back-pointer exceptions are irrelevant to columns.
struct ColumnSink<'a, R> {
    cols: &'a mut ColumnBatch,
    payloads: &'a mut Vec<u8>,
    /// End of the payloads copied so far.
    pay_end: usize,
    base_addr: u64,
    source: u32,
    stop_after: Option<u64>,
    read: &'a R,
    /// Chunk length the body claims.
    raw_len: usize,
    scan: BatchScan,
}

impl<R> codec::ColumnarSink for ColumnSink<'_, R>
where
    R: Fn(&[u8]) -> Option<f64>,
{
    fn begin(&mut self, raw_len: usize) {
        self.raw_len = raw_len;
    }

    fn pad(&mut self, _len: u32) {}

    #[inline]
    fn record(&mut self, off: usize, source: u32, _prev: u64, ts: u64, payload: &[u8]) -> bool {
        self.scan.records += 1;
        self.scan.max_ts = self.scan.max_ts.max(ts);
        if self.stop_after.is_some_and(|t| ts > t) {
            self.scan.stopped = true;
            return false;
        }
        if source == self.source {
            let start = self.pay_end;
            let end = start + payload.len();
            if self.payloads.len() < end {
                self.payloads.resize(end, 0);
            }
            self.payloads[start..end].copy_from_slice(payload);
            self.pay_end = end;
            let addr = self.base_addr + off as u64;
            self.cols.push_row(addr, ts, start, payload, self.read);
        }
        true
    }

    fn exception(&mut self, _idx: usize, _prev: u64) {}
}

/// Per-batch counters returned by [`ColumnBatch::decode`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct BatchScan {
    /// Non-pad records decoded (all sources): the `records_scanned`
    /// accounting.
    pub records: u64,
    /// Whether decode stopped early at a record past `stop_after`.
    pub stopped: bool,
    /// Maximum timestamp over every decoded record of any source (`0`
    /// when the piece held none) — the no-index backward scan uses this
    /// to detect when it has walked past the range.
    pub max_ts: u64,
}

impl ColumnBatch {
    /// Number of rows decoded for the queried source.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    fn clear(&mut self) {
        self.addrs.clear();
        self.ts.clear();
        self.values.clear();
        self.valid.clear();
        self.pay_off.clear();
        self.pay_len.clear();
        self.sel.clear();
    }

    /// Decodes one chunk piece into columns, retaining records of
    /// `source` and extracting values per `desc`.
    ///
    /// Over [`Piece::Records`], entry walking is semantically identical
    /// to [`ChunkIter`](crate::record::ChunkIter): padding entries are
    /// verified and skipped without counting, a zeroed (source 0) header
    /// terminates the piece, and overruns or checksum mismatches yield
    /// [`LoomError::CorruptLog`] with the entry's log address. Over
    /// [`Piece::Columnar`] the codec's walker yields the same records
    /// (pads uncounted), so the columns and counters are those a decode
    /// of the inflated chunk would produce. When `stop_after` is set,
    /// the first record with a later timestamp is counted in `records`
    /// (it was examined) but excluded from the columns, and `stopped` is
    /// reported.
    pub fn decode(
        &mut self,
        piece: Piece<'_>,
        base_addr: u64,
        source: u32,
        desc: ExtractorDesc,
        stop_after: Option<u64>,
    ) -> Result<BatchScan> {
        // Monomorphize the decode loop per descriptor variant so the
        // extraction — the same shared little-endian readers the
        // descriptor's closure would call — fuses into the single pass
        // over the chunk with no per-row dispatch.
        match desc {
            ExtractorDesc::CountAll => {
                self.decode_rows(piece, base_addr, source, stop_after, |_| Some(1.0))
            }
            ExtractorDesc::U64Le(off) => {
                let off = off as usize;
                self.decode_rows(piece, base_addr, source, stop_after, move |p| {
                    extract::read_u64_le(p, off).map(|v| v as f64)
                })
            }
            ExtractorDesc::U32Le(off) => {
                let off = off as usize;
                self.decode_rows(piece, base_addr, source, stop_after, move |p| {
                    extract::read_u32_le(p, off).map(|v| v as f64)
                })
            }
            ExtractorDesc::U16Le(off) => {
                let off = off as usize;
                self.decode_rows(piece, base_addr, source, stop_after, move |p| {
                    extract::read_u16_le(p, off).map(|v| v as f64)
                })
            }
            ExtractorDesc::F64Le(off) => {
                let off = off as usize;
                self.decode_rows(piece, base_addr, source, stop_after, move |p| {
                    extract::read_f64_le(p, off)
                })
            }
        }
    }

    /// [`ColumnBatch::decode`] with an arbitrary value reader — how
    /// closure-defined indexes fill the columns.
    fn decode_rows<R>(
        &mut self,
        piece: Piece<'_>,
        base_addr: u64,
        source: u32,
        stop_after: Option<u64>,
        read: R,
    ) -> Result<BatchScan>
    where
        R: Fn(&[u8]) -> Option<f64>,
    {
        self.clear();
        match piece {
            Piece::Records(bytes) => {
                self.decode_records(bytes, base_addr, source, stop_after, &read)
            }
            Piece::Columnar {
                body,
                raw_len,
                payloads,
            } => {
                let mut sink = ColumnSink {
                    cols: self,
                    payloads,
                    pay_end: 0,
                    base_addr,
                    source,
                    stop_after,
                    read: &read,
                    raw_len: 0,
                    scan: BatchScan::default(),
                };
                codec::walk_columnar(body, base_addr, raw_len, &mut sink)?;
                if sink.raw_len != raw_len {
                    return Err(LoomError::CorruptLog {
                        log: LogId::ColdSegment,
                        addr: base_addr,
                        reason: format!(
                            "body holds {} chunk bytes, frame says {raw_len}",
                            sink.raw_len
                        ),
                    });
                }
                Ok(sink.scan)
            }
        }
    }

    /// The record-bytes walk of [`ColumnBatch::decode_rows`].
    fn decode_records<R>(
        &mut self,
        bytes: &[u8],
        base_addr: u64,
        source: u32,
        stop_after: Option<u64>,
        read: &R,
    ) -> Result<BatchScan>
    where
        R: Fn(&[u8]) -> Option<f64>,
    {
        let mut out = BatchScan::default();
        let mut pos = 0usize;
        while pos + RECORD_HEADER_SIZE <= bytes.len() {
            let header_buf = &bytes[pos..pos + RECORD_HEADER_SIZE];
            let header = RecordHeader::decode(header_buf)?;
            if header.source == 0 {
                break; // zeroed tail: end of valid data in this piece
            }
            let payload_start = pos + RECORD_HEADER_SIZE;
            let payload_end = payload_start + header.len as usize;
            let addr = base_addr + pos as u64;
            if payload_end > bytes.len() {
                return Err(entry_overrun(addr, payload_end, bytes.len()));
            }
            let payload = &bytes[payload_start..payload_end];
            verify_entry(addr, header_buf, payload)?;
            pos = payload_end;
            if header.is_pad() {
                continue;
            }
            out.records += 1;
            out.max_ts = out.max_ts.max(header.ts);
            if stop_after.is_some_and(|t| header.ts > t) {
                out.stopped = true;
                break;
            }
            if header.source == source {
                self.push_row(addr, header.ts, payload_start, payload, read);
            }
        }
        Ok(out)
    }

    /// Appends one row of the queried source; its payload sits at
    /// `pay_off` in the bytes `emit` will be handed.
    #[inline]
    fn push_row<R>(&mut self, addr: u64, ts: u64, pay_off: usize, payload: &[u8], read: &R)
    where
        R: Fn(&[u8]) -> Option<f64>,
    {
        self.addrs.push(addr);
        self.ts.push(ts);
        self.pay_off.push(pay_off as u32);
        self.pay_len.push(payload.len() as u32);
        match read(payload) {
            Some(v) => {
                self.values.push(v);
                self.valid.push(1);
            }
            None => {
                self.values.push(0.0);
                self.valid.push(0);
            }
        }
    }

    /// Builds the selection mask `valid ∧ ts ∈ range ∧ value ∈ values`
    /// and returns the number of selected rows.
    ///
    /// Branch-free: each term is a compare lowered to a 0/1 byte and the
    /// mask is their bitwise AND, so the loop has no data-dependent
    /// branches. `NaN` values fail both value compares, matching
    /// `ValueRange::contains`.
    pub fn select(&mut self, range: TimeRange, values: &ValueRange) -> u64 {
        self.sel.clear();
        self.sel.reserve(self.ts.len());
        let mut selected = 0u64;
        for i in 0..self.ts.len() {
            let t = self.ts[i];
            let v = self.values[i];
            let in_time = (t >= range.start) as u8 & (t <= range.end) as u8;
            let in_value = (v >= values.lo) as u8 & (v <= values.hi) as u8;
            let m = self.valid[i] & in_time & in_value;
            self.sel.push(m);
            selected += u64::from(m);
        }
        selected
    }

    /// [`ColumnBatch::select`] without a value predicate (aggregates
    /// filter on source, time, and extractability only).
    pub fn select_time(&mut self, range: TimeRange) -> u64 {
        self.sel.clear();
        self.sel.reserve(self.ts.len());
        let mut selected = 0u64;
        for i in 0..self.ts.len() {
            let t = self.ts[i];
            let in_time = (t >= range.start) as u8 & (t <= range.end) as u8;
            let m = self.valid[i] & in_time;
            self.sel.push(m);
            selected += u64::from(m);
        }
        selected
    }

    /// The extracted values of the selected rows, in chunk order —
    /// aggregate callers feed these to one accumulator per chunk, so
    /// float association is the same for every pool size.
    pub fn selected_values(&self) -> impl Iterator<Item = f64> + '_ {
        self.sel
            .iter()
            .zip(self.values.iter())
            .filter_map(|(&m, &v)| (m != 0).then_some(v))
    }

    /// Delivers the selected rows to the user callback in chunk order.
    /// `bytes` must be the buffer `decode` ran over.
    pub fn emit<F>(&self, bytes: &[u8], source: SourceId, f: &mut F)
    where
        F: FnMut(Record<'_>),
    {
        for i in 0..self.sel.len() {
            if self.sel[i] == 0 {
                continue;
            }
            let ps = self.pay_off[i] as usize;
            let pl = self.pay_len[i] as usize;
            f(Record {
                addr: self.addrs[i],
                source,
                ts: self.ts[i],
                payload: &bytes[ps..ps + pl],
            });
        }
    }

    /// Copies the selected rows into a [`RecordBatch`] for in-order
    /// delivery from the parallel path.
    pub fn emit_to_batch(&self, bytes: &[u8], batch: &mut RecordBatch) {
        for i in 0..self.sel.len() {
            if self.sel[i] == 0 {
                continue;
            }
            let ps = self.pay_off[i] as usize;
            let pl = self.pay_len[i] as usize;
            batch.push(self.addrs[i], self.ts[i], &bytes[ps..ps + pl]);
        }
    }
}

/// Result of [`decode_chunk`]: the scan counters to fold into
/// [`QueryStats`] plus what the selection kernel found.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct DecodeOut {
    /// I/O and record counters for the piece.
    pub scan: RegionScan,
    /// See [`BatchScan::max_ts`].
    pub max_ts: u64,
    /// Rows left selected in `bufs.cols`.
    pub selected: u64,
}

/// Decodes the chunk piece at `chunk_addr` (clamped to the view's
/// watermark), keeping the queried source's records in `bufs.cols`, and
/// selects the rows in `range` (and in `values`, when given; aggregates
/// pass `None` and keep every extractable value). Row payloads are left
/// in `bufs.chunk` for `emit`.
///
/// A hot piece is read into `bufs.chunk` and decoded record by record; a
/// cold-owned piece is decoded from its verified segment frame (see
/// [`cold_piece`]). An empty piece (at or past the watermark) counts no
/// chunk. The stop/record accounting follows [`ColumnBatch::decode`].
pub(crate) fn decode_chunk(
    view: &QueryView<'_>,
    meta: &IndexMeta,
    chunk_addr: u64,
    range: TimeRange,
    values: Option<&ValueRange>,
    stop_after: Option<u64>,
    bufs: &mut ScanBuffers,
) -> Result<DecodeOut> {
    let len = view.piece_len(chunk_addr);
    let ScanBuffers { chunk, frame, cols } = bufs;
    if len == 0 {
        cols.clear();
        return Ok(DecodeOut::default());
    }
    let piece = match view.cold.read_frame(chunk_addr, frame)? {
        Some(f) => cold_piece(&view.obs.engine, f, len, chunk)?,
        None => {
            view.read_hot_piece(chunk_addr, len, chunk)?;
            Piece::Records(&chunk[..len])
        }
    };
    let source = meta.source.0;
    let batch = match meta.desc {
        Some(desc) => cols.decode(piece, chunk_addr, source, desc, stop_after)?,
        None => cols.decode_rows(piece, chunk_addr, source, stop_after, &*meta.extractor)?,
    };
    let selected = match values {
        Some(values) => cols.select(range, values),
        None => cols.select_time(range),
    };
    let rows = cols.len() as u64;
    view.obs.query.columnar_batch(rows, selected);
    Ok(DecodeOut {
        scan: RegionScan {
            chunks: 1,
            bytes: len as u64,
            records: batch.records,
            stopped: batch.stopped,
            rows,
        },
        max_ts: batch.max_ts,
        selected,
    })
}

/// The piece to decode for the `len`-byte view of a cold chunk whose
/// frame `f` was read and verified. A columnar frame is decoded straight
/// into columns (no record bytes, no record or chunk CRCs: the frame
/// checksum covers every stored byte, and compaction proved the body
/// inflates exactly). A raw frame's body already is the chunk; a piece
/// the view clamps short of its chunk is inflated and checked, so its
/// prefix decodes exactly as record bytes.
fn cold_piece<'b>(
    obs: &EngineObs,
    f: ChunkFrame<'b>,
    len: usize,
    chunk: &'b mut Vec<u8>,
) -> Result<Piece<'b>> {
    obs.cold_chunk_read();
    let raw_len = f.raw_len as usize;
    if f.codec == codec::CODEC_COLUMNAR && raw_len == len {
        return Ok(Piece::Columnar {
            body: f.body,
            raw_len,
            payloads: chunk,
        });
    }
    if f.codec == codec::CODEC_RAW && f.body.len() == raw_len {
        chunk.clear();
        chunk.extend_from_slice(f.body);
    } else {
        f.inflate(chunk)?;
        obs.cold_byte_decodes(1);
    }
    if chunk.len() < len {
        chunk.resize(len, 0);
    }
    Ok(Piece::Records(&chunk[..len]))
}

/// Decodes `[from, watermark)` forward, piece by piece, stopping at the
/// first record past `range.end`; after each piece's selection it folds
/// the counters into `stats` and hands the buffers and selected-row count
/// to `each`. `from` must be chunk-aligned.
///
/// This is the scan of the unsummarized tail (at most one chunk of
/// not-yet-sealed data past the last seal) for every operator, and the
/// whole timestamp-index-only ablation. Serial by construction: the early
/// stop is ordered.
pub(crate) fn decode_forward<F>(
    view: &QueryView<'_>,
    meta: &IndexMeta,
    from: u64,
    range: TimeRange,
    values: Option<&ValueRange>,
    stats: &mut QueryStats,
    mut each: F,
) -> Result<()>
where
    F: FnMut(&ScanBuffers, u64),
{
    let mut bufs = view.bufs.acquire();
    let stop = Some(range.end);
    for pos in (from..view.rec.watermark()).step_by(view.chunk_size as usize) {
        let out = decode_chunk(view, meta, pos, range, values, stop, &mut bufs)?;
        out.scan.fold_into(stats);
        each(&bufs, out.selected);
        if out.scan.stopped {
            break;
        }
    }
    view.bufs.release(bufs);
    Ok(())
}

/// One worker's reusable scan scratch: the chunk buffer, the cold-frame
/// buffer, and the column vectors decoded from them. Grown once to the
/// working-set size and then recycled through the [`BufferPool`].
#[derive(Debug, Default)]
pub(crate) struct ScanBuffers {
    /// Hot chunk bytes, or the copied row payloads of a cold piece
    /// (grown once to the chunk size).
    pub chunk: Vec<u8>,
    /// The last cold segment frame read.
    pub frame: Vec<u8>,
    /// Columns decoded from `chunk`.
    pub cols: ColumnBatch,
}

/// Number of [`ScanBuffers`] / [`RecordBatch`] slots retained across
/// queries. Matches the executor's worker-count ceiling; extra releases
/// beyond this simply drop their buffers.
const POOL_SLOTS: usize = 16;

/// A small engine-wide pool of scan scratch buffers, shared by every
/// query and worker thread (PR 1's grow-once scan buffer, extended
/// across queries).
///
/// `acquire`/`release` take one uncontended mutex lock per *chunk batch
/// lifetime* (not per record or per chunk), so pooling is never on the
/// hot path. Buffers lost to early error returns are simply not
/// recycled — the pool is a cache, not an accounting structure.
pub(crate) struct BufferPool {
    bufs: Mutex<Vec<ScanBuffers>>,
    batches: Mutex<Vec<RecordBatch>>,
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool {
            bufs: Mutex::named("loom.scan_bufs", Vec::new()),
            batches: Mutex::named("loom.scan_batches", Vec::new()),
        }
    }
}

impl BufferPool {
    /// Takes a scratch buffer from the pool (or a fresh one).
    pub fn acquire(&self) -> ScanBuffers {
        self.bufs.lock().pop().unwrap_or_default()
    }

    /// Returns a scratch buffer to the pool, keeping its capacity.
    pub fn release(&self, bufs: ScanBuffers) {
        let mut slots = self.bufs.lock();
        if slots.len() < POOL_SLOTS {
            slots.push(bufs);
        }
    }

    /// Takes an empty (cleared, capacity-preserving) record batch.
    pub fn acquire_batch(&self) -> RecordBatch {
        self.batches.lock().pop().unwrap_or_default()
    }

    /// Recycles a delivered record batch.
    pub fn release_batch(&self, mut batch: RecordBatch) {
        batch.clear();
        let mut slots = self.batches.lock();
        if slots.len() < POOL_SLOTS {
            slots.push(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ChunkIter, NIL_ADDR, SOURCE_PAD};

    fn mk(source: u32, payload: &[u8], ts: u64) -> Vec<u8> {
        let h = RecordHeader {
            source,
            len: payload.len() as u32,
            prev: NIL_ADDR,
            ts,
        };
        let mut v = h.encode(payload).to_vec();
        v.extend_from_slice(payload);
        v
    }

    fn sample_chunk() -> Vec<u8> {
        let mut chunk = Vec::new();
        chunk.extend(mk(1, &10u64.to_le_bytes(), 100));
        chunk.extend(mk(2, &99u64.to_le_bytes(), 101)); // other source
        chunk.extend(mk(SOURCE_PAD, &[0u8; 6], 0)); // padding
        chunk.extend(mk(1, b"abc", 102)); // too short for u64 extractor
        chunk.extend(mk(1, &30u64.to_le_bytes(), 103));
        chunk.extend(std::iter::repeat_n(0u8, 50)); // zeroed tail
        chunk
    }

    #[test]
    fn decode_matches_chunk_iter_rows_and_counters() {
        let chunk = sample_chunk();
        let mut cols = ColumnBatch::default();
        let out = cols
            .decode(
                Piece::Records(&chunk),
                4096,
                1,
                ExtractorDesc::U64Le(0),
                None,
            )
            .unwrap();

        let iter_records: Vec<_> = ChunkIter::new(&chunk, 4096)
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(out.records, iter_records.len() as u64);
        assert_eq!(out.max_ts, 103);
        assert!(!out.stopped);

        let expected: Vec<_> = iter_records
            .iter()
            .filter(|r| r.header.source == 1)
            .collect();
        assert_eq!(cols.len(), expected.len());
        assert_eq!(
            cols.addrs,
            expected.iter().map(|r| r.addr).collect::<Vec<_>>()
        );
        assert_eq!(
            cols.ts,
            expected.iter().map(|r| r.header.ts).collect::<Vec<_>>()
        );
        assert_eq!(cols.valid, vec![1, 0, 1], "short payload row is invalid");
        assert_eq!(cols.values[0], 10.0);
        assert_eq!(cols.values[2], 30.0);
    }

    #[test]
    fn decode_stop_after_counts_the_stopping_record() {
        let chunk = sample_chunk();
        let mut cols = ColumnBatch::default();
        let out = cols
            .decode(
                Piece::Records(&chunk),
                0,
                1,
                ExtractorDesc::U64Le(0),
                Some(101),
            )
            .unwrap();
        // Records at ts 100 and 101 pass; ts 102 is the stopping record:
        // counted in `records` (it was examined) but not retained as a
        // row.
        assert!(out.stopped);
        assert_eq!(out.records, 3);
        assert_eq!(cols.len(), 1);
        assert_eq!(cols.ts, vec![100]);
    }

    #[test]
    fn decode_reports_corruption_like_chunk_iter() {
        let mut chunk = mk(1, b"payload!", 7);
        chunk[RECORD_HEADER_SIZE + 1] ^= 0x10;
        let mut cols = ColumnBatch::default();
        let err = cols
            .decode(
                Piece::Records(&chunk),
                512,
                1,
                ExtractorDesc::CountAll,
                None,
            )
            .unwrap_err();
        match err {
            LoomError::CorruptLog { log, addr, reason } => {
                assert_eq!(log, LogId::Records);
                assert_eq!(addr, 512);
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected CorruptLog, got {other:?}"),
        }
    }

    #[test]
    fn select_masks_time_value_and_validity() {
        let chunk = sample_chunk();
        let mut cols = ColumnBatch::default();
        cols.decode(Piece::Records(&chunk), 0, 1, ExtractorDesc::U64Le(0), None)
            .unwrap();
        // Rows: (ts 100, v 10, valid), (ts 102, invalid), (ts 103, v 30, valid).
        assert_eq!(cols.select(TimeRange::new(0, 200), &ValueRange::all()), 2);
        assert_eq!(cols.sel, vec![1, 0, 1]);
        assert_eq!(
            cols.select(TimeRange::new(0, 200), &ValueRange::new(20.0, 40.0)),
            1
        );
        assert_eq!(cols.select(TimeRange::new(103, 200), &ValueRange::all()), 1);
        assert_eq!(cols.select_time(TimeRange::new(100, 102)), 1);
        assert_eq!(
            cols.selected_values().collect::<Vec<_>>(),
            vec![10.0],
            "select_time keeps only the valid in-range row"
        );
    }

    #[test]
    fn emit_and_batch_agree() {
        let chunk = sample_chunk();
        let mut cols = ColumnBatch::default();
        cols.decode(Piece::Records(&chunk), 0, 1, ExtractorDesc::U64Le(0), None)
            .unwrap();
        cols.select(TimeRange::new(0, 200), &ValueRange::all());
        let mut direct = Vec::new();
        cols.emit(&chunk, SourceId(1), &mut |r: Record<'_>| {
            direct.push((r.addr, r.ts, r.payload.to_vec()))
        });
        let mut batch = RecordBatch::default();
        cols.emit_to_batch(&chunk, &mut batch);
        let mut via_batch = Vec::new();
        batch.for_each(|addr, ts, payload| via_batch.push((addr, ts, payload.to_vec())));
        assert_eq!(direct, via_batch);
        assert_eq!(direct.len(), 2);
    }

    /// Builds a sealed-shape chunk at `base` from `seed`: 1–4 sources,
    /// 8-byte and opaque payloads, pads, `prev` exceptions, and a zeroed
    /// tail; one chunk in five pads with non-zero bytes, which sends the
    /// codec to its raw fallback.
    fn random_chunk(seed: u64, base: u64, size: usize) -> Vec<u8> {
        use crate::record::SOURCE_PAD;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sources: Vec<u32> = (0..rng.random_range(1..=4u32)).map(|i| 3 + i * 7).collect();
        let mut last = vec![NIL_ADDR; sources.len()];
        let opaque_share = [0.0, 0.3, 0.95][rng.random_range(0..3usize)];
        // A non-zero pad payload is a shape the codec declines.
        let pad_fill = u8::from(rng.random_bool(0.2));
        let mut chunk = Vec::new();
        let mut ts = rng.random_range(0..1_000u64);
        let mut gauge = 1_000.0f64;
        loop {
            if rng.random_bool(0.03) {
                let pad_len = rng.random_range(0..16usize);
                if chunk.len() + RECORD_HEADER_SIZE + pad_len > size {
                    break;
                }
                chunk.extend(mk(SOURCE_PAD, &vec![pad_fill; pad_len], 0));
                continue;
            }
            let si = rng.random_range(0..sources.len());
            let payload = if rng.random_bool(opaque_share) {
                let n = rng.random_range(0..20usize);
                (0..n).map(|_| rng.random::<u8>()).collect::<Vec<u8>>()
            } else {
                gauge += rng.random_range(0..8u32) as f64 * 0.25;
                gauge.to_bits().to_le_bytes().to_vec()
            };
            if chunk.len() + RECORD_HEADER_SIZE + payload.len() > size {
                break;
            }
            ts += rng.random_range(0..4u64);
            let prev = if rng.random_bool(0.05) {
                rng.random::<u64>()
            } else {
                last[si]
            };
            last[si] = base + chunk.len() as u64;
            let h = RecordHeader {
                source: sources[si],
                len: payload.len() as u32,
                prev,
                ts,
            };
            chunk.extend_from_slice(&h.encode(&payload));
            chunk.extend_from_slice(&payload);
        }
        chunk.resize(size, 0);
        chunk
    }

    /// Row `i`'s columns plus its payload, read back from `bytes`.
    fn row(cols: &ColumnBatch, bytes: &[u8], i: usize) -> (u64, u64, u64, u8, Vec<u8>) {
        let ps = cols.pay_off[i] as usize;
        let pl = cols.pay_len[i] as usize;
        (
            cols.addrs[i],
            cols.ts[i],
            cols.values[i].to_bits(),
            cols.valid[i],
            bytes[ps..ps + pl].to_vec(),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The column read of a cold frame (what `decode_chunk` does for a
        /// cold-owned piece) yields exactly the rows and counters of the
        /// byte sink followed by the record decode, for every descriptor,
        /// a closure, and with and without an early stop.
        #[test]
        fn column_sink_matches_byte_sink_then_record_decode(
            seed in proptest::prelude::any::<u64>(),
            off in 0u32..10,
            stop_at in 0u64..2_000,
            stop in proptest::prelude::any::<bool>(),
        ) {
            let (base, size) = (7 * 4096u64, 4096usize);
            let chunk = random_chunk(seed, base, size);
            let (codec_id, body) = codec::compress_chunk(&chunk, base);
            let frame = ChunkFrame {
                offset: 0,
                chunk_addr: base,
                raw_len: size as u32,
                raw_crc: crate::durability::crc32(&chunk),
                codec: codec_id,
                body: &body,
            };
            let mut inflated = Vec::new();
            codec::decompress_chunk(codec_id, &body, base, &mut inflated).unwrap();
            proptest::prop_assert_eq!(&inflated, &chunk);
            let stop_after = stop.then_some(stop_at);
            let closure = |p: &[u8]| p.get(off as usize).map(|&b| f64::from(b) - 7.5);
            let descs = [
                Some(ExtractorDesc::U64Le(off)),
                Some(ExtractorDesc::U32Le(off)),
                Some(ExtractorDesc::U16Le(off)),
                Some(ExtractorDesc::F64Le(off)),
                Some(ExtractorDesc::CountAll),
                None,
            ];
            let obs = EngineObs::default();
            for source in [3u32, 10, 17, 24] {
                for desc in descs {
                    let mut payloads = Vec::new();
                    let mut direct = ColumnBatch::default();
                    let piece = cold_piece(&obs, frame, size, &mut payloads).unwrap();
                    let got = match desc {
                        Some(d) => direct.decode(piece, base, source, d, stop_after),
                        None => direct.decode_rows(piece, base, source, stop_after, closure),
                    }
                    .unwrap();
                    let mut via_bytes = ColumnBatch::default();
                    let piece = Piece::Records(&inflated);
                    let want = match desc {
                        Some(d) => via_bytes.decode(piece, base, source, d, stop_after),
                        None => via_bytes.decode_rows(piece, base, source, stop_after, closure),
                    }
                    .unwrap();
                    proptest::prop_assert_eq!(
                        (got.records, got.stopped, got.max_ts),
                        (want.records, want.stopped, want.max_ts)
                    );
                    proptest::prop_assert_eq!(direct.len(), via_bytes.len());
                    for i in 0..direct.len() {
                        proptest::prop_assert_eq!(
                            row(&direct, &payloads, i),
                            row(&via_bytes, &inflated, i)
                        );
                    }
                }
            }
        }
    }

    /// A body with a valid frame checksum but hostile counts is a typed
    /// cold-segment corruption through both sinks — never an allocation
    /// sized by the unchecked varint.
    #[test]
    fn hostile_body_counts_are_corrupt_through_both_sinks() {
        fn varints(vals: &[u64]) -> Vec<u8> {
            let mut out = Vec::new();
            for &v in vals {
                let mut v = v;
                while v >= 0x80 {
                    out.push(v as u8 | 0x80);
                    v >>= 7;
                }
                out.push(v as u8);
            }
            out
        }
        let raw = 4096u64;
        let bodies = [
            // raw_len far past any chunk (and past the frame's length).
            varints(&[u64::MAX, 0, 0, 0, 0]),
            varints(&[1 << 40, 1 << 40, 0, 0, 0]),
            varints(&[raw + 1, raw + 1, 0, 0, 0]),
            // Dictionary / entry / exception counts past the chunk's
            // header capacity.
            varints(&[raw, raw, 1 << 50]),
            varints(&[raw, raw, raw / RECORD_HEADER_SIZE as u64 + 1]),
            varints(&[raw, raw, 0, 1 << 50]),
            varints(&[raw, raw, 0, 0, 1 << 50]),
        ];
        for body in &bodies {
            let frame = ChunkFrame {
                offset: 0,
                chunk_addr: 0,
                raw_len: raw as u32,
                raw_crc: 0,
                codec: codec::CODEC_COLUMNAR,
                body,
            };
            let bytes_err = frame.inflate(&mut Vec::new()).unwrap_err();
            let mut payloads = Vec::new();
            let piece = Piece::Columnar {
                body,
                raw_len: raw as usize,
                payloads: &mut payloads,
            };
            let cols_err = ColumnBatch::default()
                .decode(piece, 0, 1, ExtractorDesc::U64Le(0), None)
                .unwrap_err();
            for err in [bytes_err, cols_err] {
                assert!(
                    matches!(
                        err,
                        LoomError::CorruptLog {
                            log: LogId::ColdSegment,
                            ..
                        }
                    ),
                    "{body:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn pool_recycles_capacity() {
        let pool = BufferPool::default();
        let mut b = pool.acquire();
        b.chunk.resize(1 << 16, 0);
        let cap = b.chunk.capacity();
        pool.release(b);
        let b2 = pool.acquire();
        assert!(b2.chunk.capacity() >= cap, "capacity survives the pool");
        let mut batch = pool.acquire_batch();
        batch.push(0, 1, b"xyz");
        pool.release_batch(batch);
        let batch2 = pool.acquire_batch();
        assert_eq!(batch2.len(), 0, "recycled batches come back empty");
    }
}
