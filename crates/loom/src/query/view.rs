//! Point-in-time query views (§4.4, §5.5).
//!
//! A query captures its state in the *reverse* of the publication order
//! (§5.4): the timestamp index first, then the chunk-index watermark,
//! then the shard's summary mirror, then the record log. Publication goes
//! mirror → record → chunk → timestamp, so everything reachable from a
//! captured timestamp entry (chunk summaries, records) is guaranteed to
//! be inside the later captures. The view is the query's linearization
//! point: data published before the first snapshot is visible; later
//! data is not (§4.5).

use std::num::NonZeroUsize;
use std::sync::Arc;

use super::columnar::{BufferPool, ScanBuffers};
use crate::chunk_index::MirrorSnapshot;
use crate::engine::Inner;
use crate::error::Result;
use crate::hybridlog::Snapshot;
use crate::obs::Obs;
use crate::record::{entry_overrun, verify_entry, RecordHeader, RECORD_HEADER_SIZE};
use crate::registry::{SourceId, SourceShared};
use crate::retention::ColdSnap;
use crate::stats::QueryStats;

/// A consistent, point-in-time view over the three logs.
pub(crate) struct QueryView<'a> {
    /// Snapshot of the timestamp index (captured first).
    pub ts: Snapshot<'a>,
    /// The chunk-index watermark (captured second): the summaries whose
    /// frames end at or below it belong to this view.
    pub chunk_limit: u64,
    /// The shard's summary mirror (captured third). It holds every
    /// summary the timestamp snapshot can reach, and possibly a few the
    /// view must ignore (sealed since).
    pub summaries: MirrorSnapshot,
    /// Snapshot of the record log (captured last).
    pub rec: Snapshot<'a>,
    /// The cold tier at capture time. Chunks this snapshot owns are read
    /// (and decompressed) from their segments instead of the record log;
    /// chunks below its prune floor read as empty. Pruned segments stay
    /// readable through the snapshot's open file handles even after
    /// retention unlinks them.
    pub cold: Arc<ColdSnap>,
    /// The queried source's last published record address at capture time
    /// (guaranteed inside `rec`), or `NIL_ADDR`.
    pub source_last: u64,
    /// Record-log chunk size.
    pub chunk_size: u64,
    /// Default worker-pool size for this view's queries
    /// (`Config::query_threads`).
    pub query_threads: usize,
    /// The engine's self-observability registry.
    pub obs: &'a Obs,
    /// The engine's pooled scan/decode buffers (grow-once reuse across
    /// chunks, workers, and queries).
    pub bufs: &'a BufferPool,
}

// The parallel executor shares one view (its snapshots and captures) across
// scoped worker threads by reference. Everything inside is either immutable
// owned data or atomics/raw blocks that `hybridlog` explicitly declares
// thread-safe, so both types must remain `Send + Sync`; this assertion
// turns an accidental regression (e.g., adding a `Cell` field) into a
// compile error.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot<'static>>();
    assert_send_sync::<QueryView<'static>>();
};

impl<'a> QueryView<'a> {
    /// Captures a view for a query over `source`.
    pub fn capture(inner: &'a Inner, source: SourceId) -> Result<Self> {
        let shared = std::sync::Arc::clone(&inner.registry.read().source(source)?.shared);
        Self::capture_from(inner, &shared)
    }

    /// Captures a view given the source's shared state, without touching
    /// the registry lock (callers that already resolved index metadata
    /// hold the source handle and skip a second lock acquisition).
    pub fn capture_from(inner: &'a Inner, source: &SourceShared) -> Result<Self> {
        let ts = inner.ts_log.snapshot()?;
        let chunk_limit = inner.chunk_log.watermark();
        // After both: the writer mirrors a summary before it publishes
        // the watermarks that reach it, so every seal in `ts` resolves.
        let summaries = inner.summaries.capture();
        // Load the source pointer *before* the record snapshot: the writer
        // publishes the record-log watermark before the pointer, so the
        // acquire load here guarantees the record snapshot (taken after)
        // covers the pointed-to record.
        let source_last = source
            .last_record
            .load(std::sync::atomic::Ordering::Acquire);
        let rec = inner.record_log.snapshot()?;
        // Captured after the record snapshot: the compactor installs a
        // chunk into the cold snapshot *before* punching its hot bytes,
        // so any chunk our record snapshot can no longer trust is owned
        // by this (or a later) snapshot. Terminal query stages hold the
        // shard's tier read-lock, which blocks punching entirely for
        // the query's duration.
        let cold = Arc::clone(&inner.cold.read());
        Ok(QueryView {
            ts,
            chunk_limit,
            summaries,
            rec,
            cold,
            source_last,
            chunk_size: inner.config.chunk_size as u64,
            query_threads: inner.config.query_threads,
            obs: &inner.obs,
            bufs: &inner.scan_bufs,
        })
    }

    /// Resolves the worker-pool size for a stage with `tasks` independent
    /// chunk scans: an explicit per-query override beats the config
    /// default, and the pool never exceeds the task count.
    pub fn workers(&self, requested: Option<NonZeroUsize>, tasks: usize) -> usize {
        requested
            .map(|n| n.get())
            .unwrap_or(self.query_threads)
            .min(tasks)
            .max(1)
    }

    /// Length of the chunk piece at chunk-aligned `chunk_addr`, clamped
    /// to the record watermark: `0` at or past it.
    pub fn piece_len(&self, chunk_addr: u64) -> usize {
        debug_assert_eq!(
            chunk_addr % self.chunk_size,
            0,
            "chunk addr must be aligned"
        );
        let wm = self.rec.watermark();
        if chunk_addr >= wm {
            return 0;
        }
        self.chunk_size.min(wm - chunk_addr) as usize
    }

    /// Reads the `len`-byte piece of a chunk the cold tier does not own
    /// into `buf[..len]`: zeros below the prune floor, otherwise the
    /// record log.
    ///
    /// This is chunk decode's hot read primitive. The buffer is grown
    /// (and zero-initialized) to the chunk size at most once and then
    /// reused for every piece, so repeated reads — the serial chunk loop
    /// as well as each pool worker — pay neither a per-piece allocation
    /// nor a redundant memset that the read would immediately overwrite.
    pub fn read_hot_piece(&self, pos: u64, len: usize, buf: &mut Vec<u8>) -> Result<()> {
        if buf.len() < len {
            buf.resize(len, 0);
        }
        if pos + len as u64 <= self.cold.pruned_below() {
            buf[..len].fill(0);
            return Ok(());
        }
        self.rec.read_at(pos, &mut buf[..len])
    }
}

/// Bytes the first hot window of a chain walk reaches below its end: one
/// page.
const FIRST_SPAN: usize = 4096;

/// The entry size assumed above the walk's first record; afterwards a
/// window ends one entry of the last record's size above the record it
/// is read for.
const FIRST_ENTRY: usize = 256;

/// The raw scan's record reader: it serves every header and payload the
/// back-pointer walk visits from a window of the record's chunk, held in
/// a pooled [`ScanBuffers`] buffer.
///
/// A cold-owned chunk is inflated whole, once, when the walk enters it.
/// A hot window is one `Snapshot::read_at` of `[end - span, end)`, where
/// `end` is one entry above the record that missed, clamped to the
/// record's chunk, the prune floor and the snapshot's watermark; the
/// rest of an entry longer than that costs one more read. After a window
/// that served two or more records `span` doubles, up to the chunk size;
/// after one that served a single record it halves, down to one entry.
/// A dense source thus costs about one read per chunk piece, and a
/// source with one record per chunk one read of its bytes per record.
pub(crate) struct ChainReader<'v, 'a> {
    view: &'v QueryView<'a>,
    bufs: ScanBuffers,
    /// The window is `[lo, hi)`; `bufs.chunk[0]` holds address `lo`.
    lo: u64,
    hi: u64,
    /// Whether the window is a whole inflated cold chunk.
    cold: bool,
    span: usize,
    /// Size of the last entry read.
    entry: usize,
    /// Records served from the current window.
    served: u32,
}

impl<'v, 'a> ChainReader<'v, 'a> {
    /// A reader over `view` with an empty window.
    pub fn new(view: &'v QueryView<'a>) -> Self {
        ChainReader {
            view,
            bufs: view.bufs.acquire(),
            lo: 0,
            hi: 0,
            cold: false,
            span: FIRST_SPAN,
            entry: FIRST_ENTRY,
            served: 0,
        }
    }

    /// Decodes the header at `addr`, moving the window first when it
    /// does not hold it. Nothing is verified yet: see
    /// [`payload`](Self::payload).
    pub fn header(&mut self, addr: u64) -> Result<RecordHeader> {
        if !(self.lo <= addr && addr + RECORD_HEADER_SIZE as u64 <= self.hi) {
            self.fill(addr)?;
        }
        self.served += 1;
        RecordHeader::decode(&self.bufs.chunk[(addr - self.lo) as usize..])
    }

    /// The verified payload of the record at `addr`, whose header was
    /// just read. Its `len` is bounded by the record's chunk piece before
    /// anything more is read, as `decode_records` bounds it.
    pub fn payload(&mut self, addr: u64, header: &RecordHeader) -> Result<&[u8]> {
        let (base, piece) = self.piece(addr, self.cold);
        let entry = header.entry_size();
        let end = (addr - base) as usize + entry;
        if end > piece {
            return Err(entry_overrun(addr, end, piece));
        }
        if addr + entry as u64 > self.hi {
            // Only a hot window ends short of its piece.
            self.read_hot(self.lo, addr + entry as u64)?;
        }
        self.entry = entry;
        let off = (addr - self.lo) as usize;
        let (head, payload) = self.bufs.chunk[off..off + entry].split_at(RECORD_HEADER_SIZE);
        verify_entry(addr, head, payload)?;
        Ok(payload)
    }

    /// The chunk base of `addr` and the length of its piece.
    fn piece(&self, addr: u64, cold: bool) -> (u64, usize) {
        let size = self.view.chunk_size;
        let base = addr - addr % size;
        let len = if cold {
            size as usize
        } else {
            self.view.piece_len(base)
        };
        (base, len)
    }

    /// Moves the window to the chunk of `addr`, holding its header.
    fn fill(&mut self, addr: u64) -> Result<()> {
        let view = self.view;
        match self.served {
            0 => {}
            1 => self.span /= 2,
            _ => self.span = (self.span * 2).min(view.chunk_size as usize),
        }
        // At least one entry, so the window reaches down to `addr`.
        self.span = self.span.max(self.entry);
        self.served = 0;
        let cold = view.cold.owns(addr - addr % view.chunk_size);
        let (base, piece) = self.piece(addr, cold);
        let end = (addr - base) as usize + RECORD_HEADER_SIZE;
        if end > piece {
            return Err(entry_overrun(addr, end, piece));
        }
        if cold {
            let chunk = &mut self.bufs.chunk;
            view.cold.read_chunk(base, &mut self.bufs.frame, chunk)?;
            // Bytes past the inflated chunk read as zeros.
            chunk.resize(chunk.len().max(piece), 0);
            view.obs.engine.cold_chunk_read();
            view.obs.engine.cold_byte_decodes(1);
            view.obs.query.raw_scan_read();
            (self.lo, self.hi, self.cold) = (base, base + piece as u64, true);
        } else {
            let hi = (base + piece as u64).min(addr + self.entry as u64);
            // The walk stops at the prune floor, so `addr` is above it.
            let lo = hi
                .saturating_sub(self.span as u64)
                .max(base)
                .max(view.cold.pruned_below());
            self.read_hot(lo, hi)?;
            self.cold = false;
        }
        Ok(())
    }

    /// Makes the window the hot bytes `[lo, hi)` with one read of what
    /// it does not hold yet: all of them, or, when the hot window starts
    /// at `lo` already, the bytes past its end.
    fn read_hot(&mut self, lo: u64, hi: u64) -> Result<()> {
        let from = if lo == self.lo && !self.cold {
            self.hi.min(hi)
        } else {
            lo
        };
        let len = (hi - lo) as usize;
        if self.bufs.chunk.len() < len {
            self.bufs.chunk.resize(len, 0);
        }
        let off = (from - lo) as usize;
        let rec = &self.view.rec;
        rec.read_at(from, &mut self.bufs.chunk[off..len])?;
        self.view.obs.query.raw_scan_read();
        (self.lo, self.hi) = (lo, hi);
        Ok(())
    }
}

impl Drop for ChainReader<'_, '_> {
    fn drop(&mut self) {
        self.view.bufs.release(std::mem::take(&mut self.bufs));
    }
}

/// Counters produced by decoding chunk pieces.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RegionScan {
    /// Chunk pieces read and decoded.
    pub chunks: u64,
    /// Bytes read from the record log.
    pub bytes: u64,
    /// Records decoded (all sources).
    pub records: u64,
    /// Whether decode stopped early at a record past the time range.
    pub stopped: bool,
    /// Rows of the queried source decoded into column batches.
    pub rows: u64,
}

impl RegionScan {
    /// Folds these counters into a query's statistics block.
    pub fn fold_into(&self, stats: &mut QueryStats) {
        stats.chunks_scanned += self.chunks;
        stats.bytes_read += self.bytes;
        stats.records_scanned += self.records;
        stats.columnar_batches += self.chunks;
        stats.columnar_rows += self.rows;
    }
}
