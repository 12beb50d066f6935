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

use super::columnar::BufferPool;
use crate::chunk_index::MirrorSnapshot;
use crate::durability::LogId;
use crate::engine::Inner;
use crate::error::{LoomError, Result};
use crate::hybridlog::Snapshot;
use crate::obs::Obs;
use crate::record::{RecordHeader, RECORD_HEADER_SIZE};
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

    /// Reads a record header from whichever tier owns its chunk,
    /// returning the decoded header together with its raw bytes (needed
    /// to verify the entry checksum once the payload is available).
    pub fn read_header(
        &self,
        addr: u64,
        cache: &mut ColdChunkCache,
    ) -> Result<(RecordHeader, [u8; RECORD_HEADER_SIZE])> {
        let mut buf = [0u8; RECORD_HEADER_SIZE];
        self.read_at_tiered(addr, &mut buf, cache)?;
        Ok((RecordHeader::decode(&buf)?, buf))
    }

    /// Reads a record's payload into `buf` (resized to fit) and verifies
    /// the entry checksum against `header_buf`.
    ///
    /// The header is not verified yet, so its `len` is bounded first:
    /// records never span chunks, and an entry that would run past its
    /// chunk's piece fails as `decode_records` fails it, before anything
    /// is allocated or read.
    pub fn read_payload(
        &self,
        addr: u64,
        header: &RecordHeader,
        header_buf: &[u8; RECORD_HEADER_SIZE],
        buf: &mut Vec<u8>,
        cache: &mut ColdChunkCache,
    ) -> Result<()> {
        let base = addr - addr % self.chunk_size;
        let piece = if self.cold.owns(base) {
            self.chunk_size
        } else {
            self.piece_len(base) as u64
        };
        let end = addr - base + header.entry_size() as u64;
        if end > piece {
            return Err(LoomError::CorruptLog {
                log: LogId::Records,
                addr,
                reason: format!("entry overruns chunk ({end} > {piece})"),
            });
        }
        buf.resize(header.len as usize, 0);
        self.read_at_tiered(addr + RECORD_HEADER_SIZE as u64, buf, cache)?;
        if !RecordHeader::verify(header_buf, buf) {
            return Err(LoomError::CorruptLog {
                log: LogId::Records,
                addr,
                reason: "record checksum mismatch".into(),
            });
        }
        Ok(())
    }

    /// Reads `out.len()` bytes at `addr` from whichever tier owns the
    /// containing chunk (records never span chunks, so one chunk always
    /// does). Cold chunks decompress through `cache`, which holds the
    /// last chunk touched — the raw chain walk revisits the same chunk
    /// many times.
    fn read_at_tiered(&self, addr: u64, out: &mut [u8], cache: &mut ColdChunkCache) -> Result<()> {
        let base = addr - addr % self.chunk_size;
        if self.cold.owns(base) {
            if cache.addr != Some(base) {
                self.cold
                    .read_chunk(base, &mut cache.frame, &mut cache.bytes)?;
                self.obs.engine.cold_chunk_read();
                self.obs.engine.cold_byte_decodes(1);
                cache.addr = Some(base);
            }
            let off = (addr - base) as usize;
            let n = cache.bytes.len().saturating_sub(off).min(out.len());
            out[n..].fill(0);
            out[..n].copy_from_slice(&cache.bytes[off..off + n]);
            return Ok(());
        }
        if addr + out.len() as u64 <= self.cold.pruned_below() {
            // Dropped by retention: reads see zeros no matter what
            // bytes the hot log might still stage for the region.
            out.fill(0);
            return Ok(());
        }
        self.rec.read_at(addr, out)
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

/// One-chunk cache of decompressed cold bytes for record-at-a-time
/// reads: the raw chain walk touches the same chunk once per record,
/// and decompressing per read would be quadratic in records-per-chunk.
#[derive(Default)]
pub(crate) struct ColdChunkCache {
    /// Chunk address of the cached bytes, if any.
    addr: Option<u64>,
    /// The decompressed chunk.
    bytes: Vec<u8>,
    /// The last segment frame read, reused across cache misses.
    frame: Vec<u8>,
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
