//! The Loom engine: write-path orchestration (§5.4) and handle types.
//!
//! [`Loom`] is the cloneable schema/query handle; [`LoomWriter`] is the
//! single-threaded ingest handle. The write path per record is:
//!
//! 1. timestamp the record and append it to the record log;
//! 2. if the record starts a new chunk, finalize the previous chunk's
//!    summary, append it to the chunk index and the shard's in-memory
//!    summary mirror, and append a chunk-seal entry to the timestamp
//!    index;
//! 3. update the active chunk's summary and, periodically, append a
//!    record mark to the timestamp index;
//! 4. publish the record log, chunk index, and timestamp index watermarks
//!    (in that order), then the source's last-record pointer.
//!
//! # Sharding
//!
//! With [`Config::shards`](crate::Config::shards) ≥ 2 the engine is
//! partitioned into independent *shards*, each owning a complete
//! single-funnel engine — its own hybrid logs, chunk/timestamp indexes,
//! flusher threads, manifest, and health state — rooted in a `shard-N/`
//! subdirectory. A source is routed to its *home shard* by a stable hash
//! of its ID (FNV-1a, `shard_of`), so all of a source's records, summaries, and
//! marks stay colocated and a single-source query touches exactly one
//! shard (the same path a single-funnel engine takes). The schema
//! registry, ingest statistics, clock, and slow-query ring remain shared
//! across shards; schema changes are journaled in the home shard's
//! manifest and merged back at reopen. One shard's I/O failure degrades
//! only that shard: the others keep ingesting and serving queries.
//!
//! `shards = 1` (the default) is byte-for-byte the flat single-directory
//! layout: no `shard-N/` subdirectories, one funnel, identical on-disk
//! format and crash-recovery behavior to a pre-sharding engine.

use crate::sync::atomic::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use crate::sync::{Mutex, RwLock};

use crate::chunk_index::{SummaryMirror, SummaryRef};
use crate::clock::Clock;
use crate::config::{Config, OverloadPolicy};
use crate::durability::manifest::AgedChunk;
use crate::durability::{
    CleanShutdown, LogId, Manifest, ManifestRecord, RecoveredState, RecoveryReport, SourceState,
    SourceTail, Superblock, SUPERBLOCK_FILE,
};
use crate::error::{LoomError, Result};
use crate::extract::ExtractorDesc;
use crate::fault;
use crate::health::{EngineHealth, HealthState};
use crate::histogram::HistogramSpec;
use crate::hybridlog::{self, LogOptions, LogShared};
use crate::obs::{MetricsSnapshot, Obs, SlowQueryLog, SlowQueryTrace, Stopwatch};
use crate::record::{ChunkIter, RecordHeader, NIL_ADDR, RECORD_HEADER_SIZE, SOURCE_PAD};
use crate::registry::{IndexId, Registry, RegistryVersion, SourceId, SourceShared, ValueFn};
use crate::retention::{self, ColdSnap, ColdTierStats, SegmentWriter};
use crate::stats::IngestStats;
use crate::summary::{BinStats, ChunkSummary};
use crate::ts_index::{TsEntry, TsKind, TS_ENTRY_SIZE};

/// Deterministic home-shard routing: FNV-1a over the source ID's
/// little-endian bytes, reduced modulo the shard count.
///
/// The hash must be stable across processes and reopens — a source's data
/// lives in its home shard's directory forever — so this is a fixed
/// algorithm, never `std`'s randomized `RandomState`.
pub(crate) fn shard_of(source: u32, shards: usize) -> usize {
    let h = crate::util::fnv1a(&source.to_le_bytes());
    (h % shards as u64) as usize
}

/// Directory name of shard `i` under the engine root.
fn shard_dir_name(i: usize) -> String {
    format!("shard-{i}")
}

/// The effective configuration of shard `i`: the root config scoped to
/// the shard's subdirectory with sharding disabled, because each shard is
/// a complete single-funnel engine.
fn shard_config(root: &Config, i: usize) -> Config {
    let mut c = root.clone();
    c.dir = root.dir.join(shard_dir_name(i));
    c.shards = 1;
    c
}

/// Refuses a directory that holds log files but no superblock: it
/// predates the durable format or lost its superblock, and initializing
/// it would destroy its data.
fn refuse_reinitialize(dir: &std::path::Path) -> Result<()> {
    for log in [LogId::Records, LogId::Chunks, LogId::Ts, LogId::Manifest] {
        if dir.join(log.file_name()).exists() {
            return Err(LoomError::Corrupt(format!(
                "{} exists but {SUPERBLOCK_FILE} does not; refusing to reinitialize",
                log.file_name()
            )));
        }
    }
    Ok(())
}

/// Severity rank for worst-of-shards health merging.
fn health_severity(h: &EngineHealth) -> u8 {
    match h {
        EngineHealth::Healthy => 0,
        EngineHealth::Degraded { .. } => 1,
        EngineHealth::ReadOnly { .. } => 2,
    }
}

/// Engine-level state shared by the [`Loom`] handle and [`LoomWriter`]:
/// the cross-shard pieces plus one [`Inner`] per shard.
pub(crate) struct EngineInner {
    /// The root configuration (`dir` is the engine root; `shards` ≥ 1).
    pub(crate) config: Config,
    pub(crate) clock: Clock,
    /// Schema registry, shared across shards: IDs are global so routing
    /// and query resolution never consult shard-local state.
    pub(crate) registry: Arc<RwLock<Registry>>,
    pub(crate) registry_version: Arc<RegistryVersion>,
    /// Engine-wide ingest counters (shards all feed the same block).
    pub(crate) stats: Arc<IngestStats>,
    /// The per-shard engines; index = shard ordinal. Length 1 in the
    /// single-funnel layout.
    pub(crate) shards: Vec<Arc<Inner>>,
    /// Merged per-shard recovery reports; `None` on a fresh directory.
    pub(crate) recovery: Mutex<Option<RecoveryReport>>,
    /// The background retention compactor, when
    /// [`RetentionConfig::interval`](crate::RetentionConfig) is set.
    compactor: Mutex<Option<CompactorHandle>>,
    /// Network-service counters, engine-wide (connections belong to the
    /// instance, not to a shard). Incremented by the network front-end
    /// via [`Loom::net_obs`]; folded into [`Loom::metrics_snapshot`].
    pub(crate) net: Arc<crate::obs::NetObs>,
}

/// Handle to the background compactor thread: signal `stop`, unpark,
/// and join on engine drop.
struct CompactorHandle {
    stop: Arc<crate::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl Drop for EngineInner {
    fn drop(&mut self) {
        if let Some(h) = self.compactor.lock().take() {
            h.stop.store(true, Ordering::Release);
            h.thread.thread().unpark();
            let _ = h.thread.join();
        }
    }
}

/// Per-shard engine state shared between the handles and the shard's
/// writer. In a single-funnel engine there is exactly one.
pub(crate) struct Inner {
    /// The shard-scoped config: `dir` is the shard's directory and
    /// `shards == 1` (see [`shard_config`]).
    pub(crate) config: Config,
    pub(crate) clock: Clock,
    /// Engine-wide registry (`Arc`-shared with [`EngineInner`]).
    pub(crate) registry: Arc<RwLock<Registry>>,
    pub(crate) registry_version: Arc<RegistryVersion>,
    pub(crate) record_log: Arc<LogShared>,
    pub(crate) chunk_log: Arc<LogShared>,
    pub(crate) ts_log: Arc<LogShared>,
    /// Every sealed summary of the chunk index, decoded once: the
    /// planner and the compactor read these instead of `chunk_log`.
    pub(crate) summaries: SummaryMirror,
    /// Engine-wide ingest counters (`Arc`-shared with [`EngineInner`]).
    pub(crate) stats: Arc<IngestStats>,
    /// Per-shard metrics registry; the slow-query ring inside is
    /// `Arc`-shared across shards.
    pub(crate) obs: Obs,
    /// The shard's schema/lifecycle journal; schema changes for sources
    /// homed here append to it.
    pub(crate) manifest: Mutex<Manifest>,
    /// Health cell shared with this shard's three hybridlog flushers.
    pub(crate) health: Arc<HealthState>,
    /// Pooled columnar scan/decode buffers, reused across queries and
    /// worker threads (grow-once allocation).
    pub(crate) scan_bufs: crate::query::columnar::BufferPool,
    /// The shard's cold-tier snapshot; replaced wholesale (clone-on-
    /// write) after every committed compaction or prune. Queries capture
    /// the `Arc` once, so a query sees one frozen tier.
    pub(crate) cold: RwLock<Arc<ColdSnap>>,
    /// Fence between queries and hole punching: query terminals hold a
    /// read guard for their whole execution; the compactor takes the
    /// write guard only while punching freshly aged chunks out of the
    /// record log, after the new cold snapshot is installed. A query
    /// admitted after the install reads those chunks from the cold tier,
    /// so it never observes the punched zeros.
    pub(crate) tier_lock: RwLock<()>,
    /// Serializes compaction rounds (explicit [`Loom::compact`], the
    /// seal hook, and the background thread may race otherwise).
    compact_gate: Mutex<()>,
}

impl Inner {
    /// The error a rejected ingest call reports: the health cell's
    /// reason when one was recorded, else the generic shutdown error.
    fn degraded_error(&self) -> LoomError {
        match self.health.current() {
            EngineHealth::ReadOnly { reason } | EngineHealth::Degraded { reason } => {
                LoomError::Degraded { reason }
            }
            EngineHealth::Healthy => LoomError::ShutDown,
        }
    }

    /// Runs one retention round over this shard: ages eligible chunks
    /// into cold segments, then drops expired slices. A no-op unless
    /// retention is enabled and the shard is fully healthy — a degraded
    /// shard stops compacting until it recovers. Errors degrade the
    /// shard's health; ingest and queries over committed data continue.
    pub(crate) fn compact_round(&self) -> Result<CompactionReport> {
        if !self.config.retention.enabled || !matches!(self.health.current(), EngineHealth::Healthy)
        {
            return Ok(CompactionReport::default());
        }
        let _gate = self.compact_gate.lock();
        let mut report = CompactionReport::default();
        match self.compact_round_locked(&mut report) {
            Ok(()) => Ok(report),
            Err(e) => {
                self.health
                    .degrade(format!("retention compaction failed: {e}"));
                Err(e)
            }
        }
    }

    /// The round body, under the compaction gate.
    ///
    /// Aging is strictly in log order: the summary walk resumes where the
    /// last round stopped and halts at the first ineligible chunk, so the
    /// cold tier is always a contiguous prefix of the sealed region and
    /// `pruned_below` a prefix of that. Per aged batch the commit
    /// protocol is: write + fsync the segment, journal `ChunksAged` in
    /// the manifest (the commit point), install the new snapshot, then
    /// punch the hot bytes. A crash before the journal leaves an orphan
    /// segment that reopen sweeps; after it, reopen serves the chunks
    /// cold whether or not the punch landed.
    fn compact_round_locked(&self, report: &mut CompactionReport) -> Result<()> {
        let retention = &self.config.retention;
        let now = self.clock.now();
        let width = retention.slice;
        let chunk_size = self.config.chunk_size as u64;
        let mut snap = Arc::clone(&self.cold.read());

        // Phase 1: collect eligible chunks, oldest first. A chunk ages
        // only when its whole range and its summary are flushed: the
        // punched hot copy must never be the only copy, and recovery
        // relies on cold chunks always having durable summaries.
        let record_flushed = self.record_log.flushed_upto();
        // Also bounded by the published watermark: the mirror holds a
        // summary before its seal publishes.
        let chunk_flushed = self
            .chunk_log
            .flushed_upto()
            .min(self.chunk_log.watermark());
        let mirror = self.summaries.capture();
        let mut batch: Vec<(u64, SummaryRef<'_>)> = Vec::new();
        let mut next = snap.aged_upto_summary();
        for s in mirror.iter_from(next) {
            let old_enough = now.saturating_sub(s.ts_max()) >= retention.cold_after;
            let durable = s.chunk_end() <= record_flushed && s.end() <= chunk_flushed;
            // `s.addr() != next` would be a hole in the mirror: stop
            // there, as a cursor walk of the log would have.
            if s.addr() != next || !old_enough || !durable {
                break;
            }
            next = s.end();
            batch.push((0, s));
        }
        // Slice assignment is monotone non-decreasing along the walk, so
        // a chunk with an out-of-order (or empty ⇒ zero) `ts_max` lands
        // in the newest slice so far instead of reopening an older one.
        let mut cur_slice = snap.slices().last().map(|s| s.slice).unwrap_or(0);
        for item in &mut batch {
            cur_slice = cur_slice.max(retention::slice_of(item.1.ts_max(), width));
            item.0 = cur_slice;
        }

        // Phase 2: one fresh segment file per (slice, round) run.
        let mut buf = vec![0u8; chunk_size as usize];
        let mut i = 0;
        while i < batch.len() {
            let slice = batch[i].0;
            let mut j = i;
            while j < batch.len() && batch[j].0 == slice {
                j += 1;
            }
            let segment = snap.next_segment(slice);
            let mut writer = SegmentWriter::create(&self.config.dir, slice, segment)?;
            let mut entries = Vec::with_capacity(j - i);
            for (_, s) in &batch[i..j] {
                self.record_log.read_at(s.chunk_addr(), &mut buf)?;
                let meta = writer.append_chunk(s.chunk_addr(), &buf)?;
                let records = s.record_count();
                entries.push(AgedChunk {
                    chunk_addr: s.chunk_addr(),
                    offset: meta.offset,
                    raw_len: meta.raw_len,
                    comp_len: meta.comp_len,
                    summary_addr: s.addr(),
                    summary_len: (s.end() - s.addr()) as u32,
                    // An all-pad chunk has no records; store a zeroed
                    // range instead of the summary's MAX/0 sentinels.
                    ts_min: if records == 0 { 0 } else { s.ts_min() },
                    ts_max: if records == 0 { 0 } else { s.ts_max() },
                    records,
                });
            }
            let file = Arc::new(writer.finish()?);
            self.manifest.lock().append(ManifestRecord::ChunksAged {
                slice,
                segment,
                entries: entries.clone(),
            })?;
            snap = Arc::new(snap.with_aged(slice, segment, &entries, file));
            *self.cold.write() = Arc::clone(&snap);
            let raw: u64 = entries.iter().map(|e| u64::from(e.raw_len)).sum();
            let comp: u64 = entries.iter().map(|e| u64::from(e.comp_len)).sum();
            self.obs.engine.compaction(entries.len() as u64, raw, comp);
            report.chunks_aged += entries.len() as u64;
            self.punch_chunks(&entries)?;
            i = j;
        }

        // Phase 3: drop expired slices. Only slices strictly below the
        // newest one are sealed (the newest may still receive chunks);
        // expiry is measured from the slice's end time.
        let Some(drop_after) = retention.drop_after else {
            return Ok(());
        };
        let candidates: Vec<retention::SliceStats> = snap
            .slices()
            .iter()
            .filter(|s| !s.pruned && s.slice < cur_slice)
            .filter(|s| {
                let end = (s.slice + 1).saturating_mul(width);
                now.saturating_sub(end) >= drop_after
            })
            .copied()
            .collect();
        for stats in candidates {
            let (slice, chunk_end_max) = (stats.slice, stats.chunk_end_max);
            // Journal first, install, then unlink: a crash between the
            // commit and the unlink leaves a directory reopen sweeps.
            self.manifest.lock().append(ManifestRecord::SlicePruned {
                slice,
                pruned_below: chunk_end_max,
            })?;
            snap = Arc::new(snap.with_pruned(slice, chunk_end_max));
            *self.cold.write() = Arc::clone(&snap);
            // Only after the install: a query whose mirror capture lacks
            // these summaries captures the cold snapshot later, sees the
            // slice pruned, and skips its summary range.
            let bytes = self
                .summaries
                .drop_range(stats.summary_start, stats.summary_end);
            self.obs.index.summary_mirror_bytes(bytes as u64);
            if let Some(k) = fault::check(
                fault::SLICE_PRUNE,
                &retention::segment::slice_dir_name(slice),
            ) {
                return Err(LoomError::Io(k.to_io_error()));
            }
            let dir = self
                .config
                .dir
                .join(retention::COLD_DIR)
                .join(retention::segment::slice_dir_name(slice));
            match std::fs::remove_dir_all(&dir) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
            self.obs.engine.slice_pruned();
            report.slices_pruned += 1;
        }
        Ok(())
    }

    /// Reclaims the hot bytes of freshly committed cold chunks by
    /// punching their ranges out of the record-log file.
    ///
    /// Runs under the tier write lock: queries hold the read side for
    /// their whole execution, so no in-flight scan is mid-read on a hot
    /// copy while it vanishes. Queries admitted after the new snapshot
    /// was installed route these chunks to the cold tier and never see
    /// the zeros.
    fn punch_chunks(&self, entries: &[AgedChunk]) -> Result<()> {
        let path = self.config.dir.join(LogId::Records.file_name());
        let file = std::fs::OpenOptions::new().write(true).open(&path)?;
        let _fence = self.tier_lock.write();
        for e in entries {
            if let Some(k) = fault::check(fault::HOT_PUNCH, &e.chunk_addr.to_string()) {
                return Err(LoomError::Io(k.to_io_error()));
            }
            punch_hole(&file, e.chunk_addr, u64::from(e.raw_len))?;
        }
        Ok(())
    }
}

/// Outcome of one retention round ([`Loom::compact`] sums these across
/// shards).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Chunks moved from the hot record log into cold segments.
    pub chunks_aged: u64,
    /// Whole cold slices dropped by `drop_after`.
    pub slices_pruned: u64,
}

/// Per-shard hot/cold tier breakdown, from [`Loom::tier_stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TierStats {
    /// Shard ordinal.
    pub shard: usize,
    /// Sealed chunks still owned by the hot record log.
    pub hot_chunks: u64,
    /// Bytes those chunks occupy (uncompressed; holes excluded).
    pub hot_bytes: u64,
    /// Cold-tier aggregate counters.
    pub cold: ColdTierStats,
}

impl TierStats {
    /// Raw-to-compressed ratio of the live cold tier, if it holds data.
    pub fn compression_ratio(&self) -> Option<f64> {
        (self.cold.comp_bytes > 0).then(|| self.cold.raw_bytes as f64 / self.cold.comp_bytes as f64)
    }
}

/// Deallocates `[offset, offset + len)` of `file`, leaving a hole that
/// reads back as zeros. Uses `fallocate(FALLOC_FL_PUNCH_HOLE)` on Linux;
/// filesystems (or platforms) that cannot punch get literal zeros
/// instead — the record format treats a zeroed header inside a complete
/// chunk as "skip to the next chunk", so both forms scan identically.
fn punch_hole(file: &std::fs::File, offset: u64, len: u64) -> Result<()> {
    if len == 0 {
        return Ok(());
    }
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::io::AsRawFd;
        const FALLOC_FL_KEEP_SIZE: i32 = 0x01;
        const FALLOC_FL_PUNCH_HOLE: i32 = 0x02;
        extern "C" {
            fn fallocate(fd: i32, mode: i32, offset: i64, len: i64) -> i32;
        }
        if offset <= i64::MAX as u64 && len <= i64::MAX as u64 {
            // SAFETY: plain FFI call with no pointer arguments — the fd
            // comes from a live `&File` (open for the whole call), mode
            // is a valid flag combination, and offset/len are checked
            // non-negative above; the kernel validates the range.
            let rc = unsafe {
                fallocate(
                    file.as_raw_fd(),
                    FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                    offset as i64,
                    len as i64,
                )
            };
            if rc == 0 {
                return Ok(());
            }
            let err = std::io::Error::last_os_error();
            // EOPNOTSUPP / EINVAL: the filesystem cannot punch holes.
            if !matches!(err.raw_os_error(), Some(95) | Some(22)) {
                return Err(err.into());
            }
        }
    }
    zero_range(file, offset, len)
}

/// Overwrites `[offset, offset + len)` with zeros in bounded steps, the
/// portable fallback for [`punch_hole`].
fn zero_range(file: &std::fs::File, offset: u64, len: u64) -> Result<()> {
    use std::os::unix::fs::FileExt;
    const STEP: usize = 64 << 10;
    let zeros = vec![0u8; STEP.min(len as usize)];
    let mut pos = offset;
    let end = offset.saturating_add(len);
    while pos < end {
        let n = ((end - pos) as usize).min(zeros.len());
        file.write_all_at(&zeros[..n], pos)?;
        pos += n as u64;
    }
    Ok(())
}

/// The cloneable schema and query handle of a Loom instance.
#[derive(Clone)]
pub struct Loom {
    pub(crate) inner: Arc<EngineInner>,
}

/// The single-threaded ingest handle of a Loom instance (§4.1).
///
/// Exactly one `LoomWriter` exists per instance. It owns one private
/// per-shard writer; [`LoomWriter::push`] routes each record to
/// its source's home shard. Within a shard ingest stays single-threaded,
/// which is what makes appends take a few hundred cycles with no
/// cross-thread coordination.
pub struct LoomWriter {
    engine: Arc<EngineInner>,
    shards: Vec<ShardWriter>,
}

/// The ingest funnel of one shard: owns the shard's hybrid-log writers
/// and all writer-private state.
struct ShardWriter {
    inner: Arc<Inner>,
    /// The logs and the active-chunk accumulator: everything a seal
    /// touches.
    logs: ShardLogs,
    /// One slot per registry source, keyed by source ID.
    slots: HashMap<u32, SourceSlot>,
    /// The registry version the slots reflect (`u64::MAX` until the
    /// first refresh).
    version: u64,
    /// Set once a clean-shutdown marker has been written.
    closed: bool,
    /// Set by [`LoomWriter::simulate_crash`]; suppresses the clean
    /// shutdown on drop.
    crashed: bool,
}

/// A shard's three log writers plus the rest of what a chunk seal
/// touches. Kept apart from the source slots, so a push holds its slot
/// across a seal.
struct ShardLogs {
    record: hybridlog::Writer,
    chunk: hybridlog::Writer,
    ts: hybridlog::Writer,
    /// Active-chunk accumulation state.
    active: ActiveChunk,
    /// Address of the last chunk-seal entry in the timestamp index.
    last_seal: u64,
    /// Reusable zero buffer for chunk padding.
    zeros: Vec<u8>,
}

/// The writer's state for one source: its record chain, the read
/// pointers it publishes, and its cached schema.
struct SourceSlot {
    /// Last record, record count, and last record mark.
    chain: SourceState,
    /// Shared state published to readers.
    shared: Arc<SourceShared>,
    closed: bool,
    /// The source's open indexes.
    indexes: Vec<CachedIndex>,
}

impl SourceSlot {
    fn new(shared: Arc<SourceShared>, chain: SourceState) -> Self {
        SourceSlot {
            chain,
            shared,
            closed: false,
            indexes: Vec::new(),
        }
    }
}

/// A cached open index: its extractor and histogram, and where its bins
/// sit in the active-chunk accumulator.
struct CachedIndex {
    extractor: ValueFn,
    spec: Arc<HistogramSpec>,
    /// Position of the index's bins in [`ActiveChunk::indexes`].
    acc: usize,
}

/// Accumulation state for the active chunk.
struct ActiveChunk {
    ts_min: u64,
    ts_max: u64,
    /// Per-source record counts; sources per chunk are few, so a vector
    /// with linear search beats a map here.
    sources: Vec<(u32, u64)>,
    /// Per-bin statistics of every open index, as `(index ID, bins)`.
    /// Dense vectors avoid map operations per record.
    indexes: Vec<(u32, Vec<Option<BinStats>>)>,
}

impl ActiveChunk {
    fn new() -> Self {
        ActiveChunk {
            ts_min: u64::MAX,
            ts_max: 0,
            sources: Vec::new(),
            indexes: Vec::new(),
        }
    }

    /// Accounts one record of `source`: the time bounds, the source's
    /// count, and the bin of each of `indexes` its payload lands in.
    fn observe(&mut self, source: u32, ts: u64, payload: &[u8], indexes: &[CachedIndex]) {
        self.ts_min = self.ts_min.min(ts);
        self.ts_max = self.ts_max.max(ts);
        match self.sources.iter_mut().find(|(s, _)| *s == source) {
            Some((_, c)) => *c += 1,
            None => self.sources.push((source, 1)),
        }
        for idx in indexes {
            if let Some(value) = (idx.extractor)(payload) {
                if let Some(bin) = idx.spec.bin_of(value) {
                    match &mut self.indexes[idx.acc].1[bin] {
                        Some(s) => s.observe(value, ts),
                        slot @ None => *slot = Some(BinStats::of(value, ts)),
                    }
                }
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Drains the accumulator into the summary of the chunk at
    /// `chunk_addr`, leaving it empty for the next chunk.
    fn take_summary(&mut self, chunk_addr: u64, chunk_size: u64) -> ChunkSummary {
        let mut summary = ChunkSummary::new(chunk_addr / chunk_size, chunk_addr, chunk_size as u32);
        summary.ts_min = std::mem::replace(&mut self.ts_min, u64::MAX);
        summary.ts_max = std::mem::take(&mut self.ts_max);
        summary.sources.extend(self.sources.drain(..));
        for (id, bins) in &mut self.indexes {
            let bins: std::collections::BTreeMap<u32, BinStats> = bins
                .iter_mut()
                .enumerate()
                .filter_map(|(bin, stats)| Some((bin as u32, stats.take()?)))
                .collect();
            if !bins.is_empty() {
                summary.indexes.insert(*id, bins);
            }
        }
        summary
    }
}

/// One opened shard: the engine-side state, the writer half, and the
/// shard's recovery report (`None` for a freshly initialized shard).
type OpenedShard = (Arc<Inner>, ShardWriter, Option<RecoveryReport>);

/// Cross-shard state built once per open and `Arc`-shared into every
/// shard's [`Inner`].
struct SharedParts {
    clock: Clock,
    registry: Arc<RwLock<Registry>>,
    registry_version: Arc<RegistryVersion>,
    stats: Arc<IngestStats>,
    /// One slow-query ring for the whole engine, so traces from every
    /// shard interleave in a single arrival order.
    slow: Arc<SlowQueryLog>,
}

/// Folds per-shard recovery reports into the engine-level report. A
/// shard initialized fresh (`None`) does not falsify cleanliness; the
/// merge is `None` only when every shard was fresh.
fn merge_reports(reports: Vec<Option<RecoveryReport>>) -> Option<RecoveryReport> {
    let mut merged: Option<RecoveryReport> = None;
    for r in reports.into_iter().flatten() {
        match &mut merged {
            None => merged = Some(r),
            Some(m) => {
                m.clean &= r.clean;
                m.records_scanned += r.records_scanned;
                m.truncations.extend(r.truncations);
                m.summaries_rebuilt += r.summaries_rebuilt;
                m.seals_appended += r.seals_appended;
                // Shards recover in parallel, so the engine-level
                // duration is the slowest shard, not the sum.
                m.duration_nanos = m.duration_nanos.max(r.duration_nanos);
            }
        }
    }
    merged
}

impl Loom {
    /// Opens a Loom instance rooted at `config.dir`, returning the shared
    /// handle and the unique ingest writer.
    ///
    /// # Errors
    ///
    /// As [`Loom::open_with_clock`]: [`LoomError::InvalidConfig`],
    /// [`LoomError::ShardMismatch`], [`LoomError::Corrupt`], or
    /// [`LoomError::Io`].
    pub fn open(config: Config) -> Result<(Loom, LoomWriter)> {
        Self::open_with_clock(config, Clock::monotonic())
    }

    /// Opens a Loom instance with an explicit clock (tests and replay).
    ///
    /// A directory that already holds a Loom superblock is *reopened*: the
    /// schema is rebuilt from the manifest(s) and all data flushed before
    /// the previous shutdown or crash becomes queryable again. A directory
    /// without one is initialized fresh. With
    /// [`Config::shards`](crate::Config::shards) ≥ 2 every shard
    /// recovers in parallel; the shard count is recorded in the root
    /// superblock and reopening with a different count fails with
    /// [`LoomError::ShardMismatch`].
    ///
    /// # Errors
    ///
    /// [`LoomError::InvalidConfig`] from config validation,
    /// [`LoomError::ShardMismatch`] on a shard-count change,
    /// [`LoomError::Corrupt`] when a superblock or manifest fails
    /// validation, and [`LoomError::Io`] for filesystem failures.
    pub fn open_with_clock(config: Config, clock: Clock) -> Result<(Loom, LoomWriter)> {
        config.validate()?;
        std::fs::create_dir_all(&config.dir)?;
        let shared = SharedParts {
            clock: clock.clone(),
            registry: Arc::new(RwLock::named("loom.registry", Registry::new())),
            registry_version: Arc::new(RegistryVersion::default()),
            stats: Arc::new(IngestStats::default()),
            slow: Arc::new(SlowQueryLog::new(config.slow_query_log)),
        };
        // The single-funnel engine opens its one shard directly on the
        // root directory — exactly the flat pre-sharding layout.
        let parts = if config.shards == 1 {
            vec![Self::open_shard(config.clone(), &shared)?]
        } else {
            Self::open_shards(&config, &shared)?
        };
        let mut shards = Vec::with_capacity(parts.len());
        let mut writers = Vec::with_capacity(parts.len());
        let mut reports = Vec::with_capacity(parts.len());
        for (inner, writer, report) in parts {
            shards.push(inner);
            writers.push(writer);
            reports.push(report);
        }
        let engine = Arc::new(EngineInner {
            config,
            clock,
            registry: shared.registry,
            registry_version: shared.registry_version,
            stats: shared.stats,
            shards,
            recovery: Mutex::named("loom.recovery", merge_reports(reports)),
            compactor: Mutex::named("loom.compactor", None),
            net: Arc::new(crate::obs::NetObs::default()),
        });
        Self::spawn_compactor(&engine);
        let writer = LoomWriter {
            engine: Arc::clone(&engine),
            shards: writers,
        };
        Ok((Loom { inner: engine }, writer))
    }

    /// Starts the background retention thread when the config asks for
    /// one: every `retention.interval` it runs a compaction/prune round
    /// over each shard. The thread holds only the per-shard `Inner`s, so
    /// it never keeps the engine alive; `EngineInner::drop` joins it.
    fn spawn_compactor(engine: &Arc<EngineInner>) {
        let retention = &engine.config.retention;
        let Some(interval) = retention.interval.filter(|_| retention.enabled) else {
            return;
        };
        let stop = Arc::new(crate::sync::atomic::AtomicBool::new(false));
        let shards: Vec<Arc<Inner>> = engine.shards.iter().map(Arc::clone).collect();
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("loom-compactor".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    std::thread::park_timeout(interval);
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    for shard in &shards {
                        // Errors degrade the shard's health inside; a
                        // degraded shard stops compacting until recovery.
                        let _ = shard.compact_round();
                    }
                }
            });
        if let Ok(thread) = thread {
            *engine.compactor.lock() = Some(CompactorHandle { stop, thread });
        }
    }

    /// Opens all shards of a multi-shard engine: validates (or writes)
    /// the root superblock, then opens every `shard-N/` directory in
    /// parallel — recovery scans are independent per shard.
    fn open_shards(config: &Config, shared: &SharedParts) -> Result<Vec<OpenedShard>> {
        if config.dir.join(SUPERBLOCK_FILE).exists() {
            // Catches both parameter drift and a shard-count change
            // (LoomError::ShardMismatch): rerouting sources over a
            // different shard count would misplace every source.
            Superblock::read_from(&config.dir)?.check_config(config)?;
        } else {
            // Shard data without a root superblock is refused like flat
            // log files are.
            refuse_reinitialize(&config.dir)?;
            if config
                .dir
                .join(shard_dir_name(0))
                .join(SUPERBLOCK_FILE)
                .exists()
            {
                return Err(LoomError::Corrupt(format!(
                    "{}/{SUPERBLOCK_FILE} exists but the root {SUPERBLOCK_FILE} does not; \
                     refusing to reinitialize",
                    shard_dir_name(0)
                )));
            }
            Superblock::of(config).write_to(&config.dir)?;
        }
        // A crash after the root superblock but before (some) shard
        // directories were created self-heals here: each shard dispatches
        // on its own superblock, so missing shards initialize fresh.
        let results: Vec<Result<_>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..config.shards)
                .map(|i| {
                    let cfg = shard_config(config, i);
                    s.spawn(move || Self::open_shard(cfg, shared))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(res) => res,
                    Err(_) => Err(LoomError::Internal(
                        "shard open thread panicked".to_string(),
                    )),
                })
                .collect()
        });
        results.into_iter().collect()
    }

    /// Opens one shard (or the whole engine when `shards == 1`):
    /// dispatches on the shard directory's own superblock. A brand-new
    /// shard gets its superblock first, then an empty manifest, then the
    /// three logs.
    fn open_shard(config: Config, shared: &SharedParts) -> Result<OpenedShard> {
        std::fs::create_dir_all(&config.dir)?;
        if config.dir.join(SUPERBLOCK_FILE).exists() {
            return Self::reopen_shard(config, shared);
        }
        refuse_reinitialize(&config.dir)?;
        Superblock::of(&config).write_to(&config.dir)?;
        let manifest = Manifest::create(&config.dir)?;
        Self::assemble_shard(config, shared, manifest, ColdSnap::default(), None)
    }

    /// Builds a shard's logs, [`Inner`] and [`ShardWriter`] around its
    /// manifest and cold tier. `recovered` is `None` for a fresh shard:
    /// its logs are created empty and it reports no recovery. A reopened
    /// shard resumes each log at its recovered tail, seeds the source
    /// slots from the recovered chains, and applies the repairs a dirty
    /// scan scheduled.
    fn assemble_shard(
        config: Config,
        shared: &SharedParts,
        manifest: Manifest,
        cold: ColdSnap,
        recovered: Option<RecoveredState>,
    ) -> Result<OpenedShard> {
        let fresh = recovered.is_none();
        let mut recovered = recovered.unwrap_or(RecoveredState {
            last_seal: NIL_ADDR,
            ..RecoveredState::default()
        });
        let obs = Obs::with_slow_log(config.slow_query_nanos, Arc::clone(&shared.slow));
        let health = Arc::new(HealthState::new());
        // All three logs report into one shared hybridlog metrics block
        // and degrade through one shared health cell.
        let log = |id: LogId, block_size: usize, tail: u64| {
            let path = config.dir.join(id.file_name());
            let opts = LogOptions {
                block_size,
                obs: Arc::clone(&obs.log),
                retry: config.io_retry,
                health: Arc::clone(&health),
            };
            if fresh {
                hybridlog::create_with(&path, opts)
            } else {
                hybridlog::open_existing_with(&path, opts, tail)
            }
        };
        let record = log(LogId::Records, config.block_size, recovered.record_tail)?;
        let chunk = log(LogId::Chunks, config.index_block_size, recovered.chunk_tail)?;
        let ts = log(LogId::Ts, config.ts_block_size, recovered.ts_tail)?;

        // The summaries the reopen just verified seed the mirror.
        let summaries = SummaryMirror::from(std::mem::take(&mut recovered.summaries));
        obs.index.summary_mirror_bytes(summaries.bytes() as u64);

        // Republish the recovered per-source read pointers and seed the
        // slots' chains. Only sources homed in this shard appear in its
        // logs, so sibling shards never contend on the same source entry.
        let mut slots = HashMap::new();
        {
            let registry = shared.registry.read();
            for (id, chain) in &recovered.sources {
                let Ok(entry) = registry.source(SourceId(*id)) else {
                    // A source the manifest does not know (its definition
                    // was lost with an unflushed manifest tail): its
                    // records stay scannable but the source is no longer
                    // addressable.
                    continue;
                };
                entry
                    .shared
                    .last_record
                    .store(chain.prev, Ordering::Release);
                entry.shared.records.store(chain.count, Ordering::Release);
                slots.insert(*id, SourceSlot::new(Arc::clone(&entry.shared), *chain));
            }
        }

        let inner = Arc::new(Inner {
            config,
            clock: shared.clock.clone(),
            registry: Arc::clone(&shared.registry),
            registry_version: Arc::clone(&shared.registry_version),
            record_log: Arc::clone(record.shared()),
            chunk_log: Arc::clone(chunk.shared()),
            ts_log: Arc::clone(ts.shared()),
            summaries,
            stats: Arc::clone(&shared.stats),
            obs,
            manifest: Mutex::named("loom.manifest", manifest),
            health,
            scan_bufs: Default::default(),
            cold: RwLock::named("loom.cold", Arc::new(cold)),
            tier_lock: RwLock::named("loom.tier_lock", ()),
            compact_gate: Mutex::named("loom.compact_gate", ()),
        });
        let mut writer = ShardWriter {
            inner: Arc::clone(&inner),
            logs: ShardLogs {
                record,
                chunk,
                ts,
                active: ActiveChunk::new(),
                last_seal: recovered.last_seal,
                zeros: Vec::new(),
            },
            slots,
            version: u64::MAX,
            closed: false,
            crashed: false,
        };
        if fresh {
            return Ok((inner, writer, None));
        }
        let mut report = recovered.report.clone();
        if !report.clean {
            inner
                .obs
                .engine
                .cold_byte_decodes(recovered.cold_chunks_inflated);
            let (rebuilt, appended) = writer.apply_recovery(&recovered)?;
            report.summaries_rebuilt = rebuilt;
            report.seals_appended = appended;
        }
        inner.obs.engine.reopened(
            report.clean,
            report.duration_nanos,
            report.bytes_truncated(),
        );
        Ok((inner, writer, Some(report)))
    }

    /// Reopens an existing shard directory: validates the superblock
    /// against the shard config, merges the shard's manifest into the
    /// shared registry, then either takes the clean-shutdown fast path or
    /// runs a full recovery scan with torn-tail truncation and cross-log
    /// reconciliation.
    fn reopen_shard(config: Config, shared: &SharedParts) -> Result<OpenedShard> {
        Superblock::read_from(&config.dir)?.check_config(&config)?;
        let mut manifest = Manifest::open(&config.dir)?;

        // Merge this shard's schema journal into the shared registry.
        // Restores carry explicit IDs and the registry tracks next-ID as
        // a max, so concurrent restores from sibling shards interleave
        // in any order with the same result.
        {
            let mut registry = shared.registry.write();
            for rec in manifest.records() {
                match rec {
                    ManifestRecord::SourceDef { id, name } => {
                        registry.restore_source(*id, name, false)?
                    }
                    ManifestRecord::SourceClosed { id } => registry.close_source(SourceId(*id))?,
                    ManifestRecord::IndexDef {
                        id,
                        source,
                        bounds,
                        desc,
                    } => registry.restore_index(
                        *id,
                        *source,
                        *desc,
                        ManifestRecord::spec_from_bounds(bounds)?,
                        false,
                    )?,
                    ManifestRecord::IndexClosed { id } => registry.close_index(IndexId(*id))?,
                    ManifestRecord::Reopened
                    | ManifestRecord::CleanShutdown(_)
                    | ManifestRecord::ChunksAged { .. }
                    | ManifestRecord::SlicePruned { .. } => {}
                }
            }
        }

        // A crash can land between superblock creation and log creation;
        // make sure all three log files exist before scanning them.
        for log in [LogId::Records, LogId::Chunks, LogId::Ts] {
            let path = config.dir.join(log.file_name());
            if !path.exists() {
                std::fs::File::create(&path)?.sync_all()?;
            }
        }

        // Fast path: the manifest ends with a clean-shutdown marker whose
        // tails are consistent with the files on disk. Anything else gets
        // the full scan.
        let marker = manifest
            .clean_shutdown()
            .filter(|s| s.validate(&config.dir, &config).is_ok())
            .cloned();
        // Rebuild the cold tier from the manifest before any log scan:
        // the record-log scan must read cold-owned chunks from their
        // segments. The open is shallow on every path — segment headers,
        // frame checksums, frame order, and frame addresses against the
        // manifest — and inflates nothing: a dirty reopen's record-log
        // scan is the one pass that inflates each cold chunk and checks
        // its `raw_crc` and record CRCs. This also sweeps orphan segment
        // files (crash before a commit) and leftover pruned slice
        // directories (crash before an unlink).
        let cold_snap = retention::open_cold_tier(&config.dir, manifest.records())?;
        // The fast path still reads the chunk index once, verifying every
        // frame, to seed the summary mirror. A damaged frame demotes the
        // reopen to the full scan, which rebuilds the summary from the
        // chunk's records.
        let clean = marker.and_then(|s| {
            let summaries =
                crate::durability::load_summaries(&config.dir, s.chunk_tail, &cold_snap).ok()?;
            Some((s, summaries))
        });
        let recovered = match clean {
            Some((s, summaries)) => {
                let mut st = RecoveredState {
                    record_tail: s.record_tail,
                    chunk_tail: s.chunk_tail,
                    ts_tail: s.ts_tail,
                    last_seal: s.last_seal,
                    summaries,
                    ..RecoveredState::default()
                };
                st.report.clean = true;
                st.sources
                    .extend(s.sources.iter().map(|t| (t.id, SourceState::from(t))));
                st
            }
            None => crate::durability::recover_dirty_with_cold(&config.dir, &config, &cold_snap)?,
        };

        // Resume the timeline: the clock must never hand out a timestamp
        // below one already durable, or the reopened instance would write
        // records that appear to predate existing ones. The last surviving
        // timestamp-index entry is a floor (the clean-shutdown seal covers
        // every record); dirty recovery raises it further below. The
        // shared clock resumes with `fetch_max`, so concurrent shard
        // reopens settle on the highest floor.
        let mut ts_floor = recovered.last_ts;
        if recovered.ts_tail >= TS_ENTRY_SIZE as u64 {
            use std::os::unix::fs::FileExt;
            let file = std::fs::File::open(config.dir.join(LogId::Ts.file_name()))?;
            let mut buf = [0u8; TS_ENTRY_SIZE];
            file.read_exact_at(&mut buf, recovered.ts_tail - TS_ENTRY_SIZE as u64)?;
            if let Ok(entry) = TsEntry::decode(&buf) {
                ts_floor = ts_floor.max(entry.ts);
            }
        }
        shared.clock.resume_at_least(ts_floor);

        // Invalidate the clean marker: if this process crashes from here
        // on, the next open must scan.
        manifest.append(ManifestRecord::Reopened)?;

        Self::assemble_shard(config, shared, manifest, cold_snap, Some(recovered))
    }

    /// The shard that owns `source`'s data, resolved by the stable
    /// routing hash.
    pub(crate) fn shard(&self, source: u32) -> &Inner {
        &self.inner.shards[shard_of(source, self.inner.shards.len())]
    }

    /// The manifest of the shard that owns `source`, for schema
    /// journaling.
    fn home_manifest(&self, source: u32) -> &Mutex<Manifest> {
        &self.shard(source).manifest
    }

    /// Registers a new source (Figure 9: `define_source`).
    ///
    /// The source is assigned a *home shard* by a stable hash of its ID;
    /// all its records, summaries, and timestamp marks live there.
    pub fn define_source(&self, name: &str) -> SourceId {
        let id = self.inner.registry.write().define_source(name);
        // Journaled best-effort: a failing manifest write surfaces on the
        // next fallible schema call or at close; the in-memory registry
        // stays usable either way.
        let _ = self
            .home_manifest(id.0)
            .lock()
            .append(ManifestRecord::SourceDef {
                id: id.0,
                name: name.to_string(),
            });
        self.inner.registry_version.bump();
        id
    }

    /// Closes a source (Figure 9: `close_source`); its data stays
    /// queryable but new pushes are rejected.
    ///
    /// # Errors
    ///
    /// [`LoomError::UnknownSource`] for an undefined id,
    /// [`LoomError::SourceClosed`] when already closed, and
    /// [`LoomError::Io`] if journaling the close fails.
    pub fn close_source(&self, id: SourceId) -> Result<()> {
        self.inner.registry.write().close_source(id)?;
        self.home_manifest(id.0)
            .lock()
            .append(ManifestRecord::SourceClosed { id: id.0 })?;
        self.inner.registry_version.bump();
        Ok(())
    }

    /// Defines an index over `source` using a value-extraction function
    /// and a histogram (Figure 9: `define_index`).
    ///
    /// The index covers only data arriving after its definition (§5.3);
    /// older chunks are not re-indexed. A closure-based index cannot be
    /// persisted as code, so after a reopen it is restored *closed* and
    /// without its extractor: new chunks are not indexed, and queries on
    /// it fail with [`LoomError::ExtractorLost`]. Use
    /// [`Loom::define_index_desc`] for an index that survives a reopen.
    ///
    /// # Errors
    ///
    /// [`LoomError::UnknownSource`] / [`LoomError::SourceClosed`] for a
    /// missing or closed source, [`LoomError::InvalidHistogram`] for a
    /// malformed spec, and [`LoomError::Io`] if journaling fails.
    pub fn define_index(
        &self,
        source: SourceId,
        extractor: ValueFn,
        spec: HistogramSpec,
    ) -> Result<IndexId> {
        let bounds = spec.bounds().to_vec();
        let id = self
            .inner
            .registry
            .write()
            .define_index(source, extractor, spec)?;
        // An index is journaled in its source's home shard: the shard
        // whose chunks it summarizes.
        self.home_manifest(source.0)
            .lock()
            .append(ManifestRecord::IndexDef {
                id: id.0,
                source,
                bounds,
                desc: None,
            })?;
        self.inner.registry_version.bump();
        Ok(id)
    }

    /// [`Loom::define_index`] with a declarative extractor instead of a
    /// closure.
    ///
    /// The descriptor is journaled in the manifest, so after a reopen the
    /// extraction function is rebuilt and the index keeps covering new
    /// chunks — the durable counterpart to closure-based indexes.
    ///
    /// # Errors
    ///
    /// As [`Loom::define_index`], plus
    /// [`LoomError::ExtractorOutOfBounds`] when the descriptor reads
    /// past the maximum record payload.
    pub fn define_index_desc(
        &self,
        source: SourceId,
        desc: ExtractorDesc,
        spec: HistogramSpec,
    ) -> Result<IndexId> {
        desc.validate_for_payload(self.inner.config.max_record_payload())?;
        let bounds = spec.bounds().to_vec();
        let id = self.inner.registry.write().define_index_full(
            source,
            desc.to_fn(),
            Some(desc),
            spec,
        )?;
        self.home_manifest(source.0)
            .lock()
            .append(ManifestRecord::IndexDef {
                id: id.0,
                source,
                bounds,
                desc: Some(desc),
            })?;
        self.inner.registry_version.bump();
        Ok(id)
    }

    /// Closes an index (Figure 9: `close_index`); it stops being
    /// maintained for new chunks.
    ///
    /// Statistics the index accumulated for the *currently active* chunk
    /// are discarded (the index no longer appears in that chunk's
    /// summary); call [`LoomWriter::seal_active_chunk`] first when those
    /// records must stay reachable through this index.
    ///
    /// # Errors
    ///
    /// [`LoomError::UnknownIndex`] for an undefined or already-closed
    /// index, and [`LoomError::Io`] if journaling the close fails.
    pub fn close_index(&self, id: IndexId) -> Result<()> {
        let source = {
            let mut registry = self.inner.registry.write();
            let source = registry.index(id)?.source;
            registry.close_index(id)?;
            source
        };
        self.home_manifest(source.0)
            .lock()
            .append(ManifestRecord::IndexClosed { id: id.0 })?;
        self.inner.registry_version.bump();
        Ok(())
    }

    /// The report from reopening an existing data directory, or `None`
    /// when this instance initialized a fresh one.
    ///
    /// On a multi-shard engine this is the merge of the per-shard
    /// reports: clean only if every shard reopened clean, counters
    /// summed, duration the slowest shard (they recover in parallel).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.inner.recovery.lock().clone()
    }

    /// All defined sources as `(id, name, closed)`, sorted by ID.
    ///
    /// After a reopen this reflects the schema rebuilt from the manifest,
    /// so callers can re-resolve names without re-defining sources.
    pub fn sources(&self) -> Vec<(SourceId, String, bool)> {
        let registry = self.inner.registry.read();
        let mut v: Vec<_> = registry
            .sources()
            .map(|(id, e)| (id, e.name.clone(), e.closed))
            .collect();
        v.sort_by_key(|(id, _, _)| id.0);
        v
    }

    /// The open indexes defined over `source`, sorted by ID.
    pub fn indexes_of(&self, source: SourceId) -> Vec<IndexId> {
        self.inner
            .registry
            .read()
            .indexes_of(source)
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// The instance's clock; query time ranges use its timeline.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Current time on the instance's internal timeline.
    pub fn now(&self) -> u64 {
        self.inner.clock.now()
    }

    /// Cumulative ingest statistics, aggregated over all shards.
    pub fn ingest_stats(&self) -> &IngestStats {
        &self.inner.stats
    }

    /// The number of shards this engine runs with (`1` = single-funnel).
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The home shard of `source`: the shard ordinal its data routes to.
    pub fn home_shard(&self, source: SourceId) -> usize {
        shard_of(source.0, self.inner.shards.len())
    }

    /// The instance's current health state — the *worst* across shards.
    ///
    /// `Healthy` in normal operation; `Degraded` while a background
    /// flusher retries a transient I/O error; terminal `ReadOnly` once a
    /// flusher exhausted its retry budget (see
    /// [`Config::io_retry`](crate::Config)), after which
    /// [`LoomWriter::push`] to that shard fails fast with
    /// [`LoomError::Degraded`] while all flushed data stays queryable.
    /// On a multi-shard engine a degraded shard only rejects its own
    /// sources; use [`Loom::shard_health`] for the per-shard view.
    pub fn health(&self) -> EngineHealth {
        let mut worst = EngineHealth::Healthy;
        for shard in &self.inner.shards {
            let h = shard.health.current();
            if health_severity(&h) > health_severity(&worst) {
                worst = h;
            }
        }
        worst
    }

    /// Per-shard health, indexed by shard ordinal.
    pub fn shard_health(&self) -> Vec<EngineHealth> {
        self.inner
            .shards
            .iter()
            .map(|s| s.health.current())
            .collect()
    }

    /// A point-in-time copy of every engine self-observability metric:
    /// hybridlog, write-path, index, and query-layer counters plus flush
    /// and query latency histograms.
    ///
    /// On a multi-shard engine the scalar counters and histograms are
    /// summed across shards (existing metric names keep their meaning)
    /// and [`MetricsSnapshot::shards`] carries a per-shard headline
    /// rollup. Counters are monotone, so two snapshots can be subtracted
    /// to get rates. Without the `self-obs` cargo feature all values are
    /// zero.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        if self.inner.shards.len() == 1 {
            let mut snap = self.inner.shards[0].obs.snapshot();
            snap.net = self.inner.net.snapshot();
            return snap;
        }
        let mut merged = MetricsSnapshot::default();
        let mut rollups = Vec::with_capacity(self.inner.shards.len());
        for (i, shard) in self.inner.shards.iter().enumerate() {
            let snap = shard.obs.snapshot();
            rollups.push(snap.rollup(i as u64));
            merged.merge(&snap);
        }
        merged.shards = rollups;
        // Network counters are engine-wide (a connection is not owned by
        // a shard), so they are injected after the shard merge rather
        // than summed per shard.
        merged.net = self.inner.net.snapshot();
        merged
    }

    /// The engine-wide network-service counters, for a network front-end
    /// (such as `loomd --listen`) to increment. The counters land in
    /// [`Loom::metrics_snapshot`] under the `loom_net_*` names.
    pub fn net_obs(&self) -> Arc<crate::obs::NetObs> {
        Arc::clone(&self.inner.net)
    }

    /// The full (unmerged) metrics snapshot of every shard, indexed by
    /// shard ordinal. One element on a single-funnel engine.
    pub fn shard_metrics(&self) -> Vec<MetricsSnapshot> {
        self.inner.shards.iter().map(|s| s.obs.snapshot()).collect()
    }

    /// The retained slow-query traces, oldest first.
    ///
    /// Queries slower than [`Config::slow_query_nanos`] leave a
    /// structured trace here; the ring is shared across shards and keeps
    /// the most recent [`Config::slow_query_log`] of them in one global
    /// arrival order.
    ///
    /// [`Config::slow_query_nanos`]: crate::Config::slow_query_nanos
    /// [`Config::slow_query_log`]: crate::Config::slow_query_log
    pub fn recent_slow_queries(&self) -> Vec<SlowQueryTrace> {
        self.inner.shards[0].obs.recent_slow_queries()
    }

    /// Runs one synchronous retention round over every shard and sums
    /// the per-shard reports: sealed, durable chunks older than
    /// [`RetentionConfig::cold_after`](crate::RetentionConfig) move into
    /// compressed cold segments, and cold slices past `drop_after` are
    /// dropped. A no-op returning zeros when retention is disabled.
    /// Every shard is attempted even after a failure; the first error is
    /// returned (that shard is left degraded and stops compacting).
    ///
    /// # Errors
    ///
    /// [`LoomError::Io`] when writing or syncing a cold segment fails,
    /// and [`LoomError::Corrupt`] if a chunk read back for compression
    /// fails validation.
    pub fn compact(&self) -> Result<CompactionReport> {
        let mut total = CompactionReport::default();
        let mut first_err = None;
        for shard in &self.inner.shards {
            match shard.compact_round() {
                Ok(r) => {
                    total.chunks_aged += r.chunks_aged;
                    total.slices_pruned += r.slices_pruned;
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }

    /// Per-shard hot/cold tier breakdown, indexed by shard ordinal: how
    /// many sealed chunks each tier owns and the cold tier's compressed
    /// footprint. One element on a single-funnel engine.
    pub fn tier_stats(&self) -> Vec<TierStats> {
        self.inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let cold = shard.cold.read().tier_stats();
                let chunk_size = shard.config.chunk_size as u64;
                let sealed = shard.record_log.watermark() / chunk_size;
                let hot_chunks = sealed.saturating_sub(cold.chunks + cold.pruned_chunks);
                TierStats {
                    shard: i,
                    hot_chunks,
                    hot_bytes: hot_chunks * chunk_size,
                    cold,
                }
            })
            .collect()
    }

    /// The retention policy this engine was opened with.
    pub fn retention_policy(&self) -> &crate::config::RetentionConfig {
        &self.inner.config.retention
    }

    /// Current memory footprint of the staging blocks, in bytes: each
    /// shard stages two blocks per log.
    pub fn memory_budget(&self) -> usize {
        self.inner.shards.len()
            * 2
            * (self.inner.config.block_size
                + self.inner.config.index_block_size
                + self.inner.config.ts_block_size)
    }
}

impl LoomWriter {
    /// Writes one record from `source` into Loom (Figure 9: `push`).
    ///
    /// The record is appended to the source's home shard and the record's
    /// log address within that shard is returned. The record is
    /// immediately visible to queries (the watermark is published per
    /// push; see also [`LoomWriter::sync`]).
    ///
    /// When the home shard is in degraded read-only mode (a background
    /// flusher exhausted its I/O retry budget), `push` fails fast with
    /// [`LoomError::Degraded`]; flushed data stays queryable and sources
    /// homed in other shards keep ingesting. Under the
    /// [`OverloadPolicy::DropNewest`] backpressure policy a record that
    /// would stall on the flusher is dropped and
    /// [`NIL_ADDR`] returned instead of an
    /// address; drops are counted in the `ingest_drops` metric.
    ///
    /// # Errors
    ///
    /// [`LoomError::UnknownSource`] / [`LoomError::SourceClosed`] for a
    /// missing or closed source, [`LoomError::RecordTooLarge`] when the
    /// payload exceeds the chunk budget, [`LoomError::Degraded`] in
    /// read-only mode, and [`LoomError::Overloaded`] under the
    /// fail-fast backpressure policy.
    pub fn push(&mut self, source: SourceId, payload: &[u8]) -> Result<u64> {
        let shard = shard_of(source.0, self.shards.len());
        self.shards[shard].push(source, payload)
    }

    /// Runs `f` over every shard, attempting all shards even after a
    /// failure; the first error wins.
    fn each_shard(&mut self, mut f: impl FnMut(&mut ShardWriter) -> Result<()>) -> Result<()> {
        let mut first_err = None;
        for shard in &mut self.shards {
            if let Err(e) = f(shard) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Forces queryability of all pushed records (Figure 9: `sync`).
    ///
    /// `push` already publishes each record, so `sync` additionally forces
    /// every shard's staged tail to persistent storage, bounding loss on
    /// crash. A per-shard failure does not stop the barrier: all shards
    /// are synced and the first error is returned.
    ///
    /// # Errors
    ///
    /// [`LoomError::Degraded`] when a shard is read-only, and
    /// [`LoomError::Io`] when a flush fails.
    pub fn sync(&mut self) -> Result<()> {
        self.each_shard(|s| s.sync(false))
    }

    /// [`LoomWriter::sync`] plus an fdatasync of each log that changed,
    /// so the synced prefix survives an OS crash or power loss, not just
    /// a process crash. Markedly more expensive than `sync` — it waits on
    /// real disk writeback — so it is meant for checkpoints and shutdown,
    /// not the per-batch path. [`LoomWriter::close`] syncs durably before
    /// writing the clean-shutdown markers.
    ///
    /// # Errors
    ///
    /// As [`LoomWriter::sync`]: [`LoomError::Degraded`] or
    /// [`LoomError::Io`] (including fdatasync failures).
    pub fn sync_durable(&mut self) -> Result<()> {
        self.each_shard(|s| s.sync(true))
    }

    /// Pads and seals the active chunk of every shard even if it is not
    /// full.
    ///
    /// Useful before shutdown or when a workload phase ends: it moves
    /// each shard's active-chunk summary into its chunk index so
    /// subsequent queries can use it.
    ///
    /// # Errors
    ///
    /// [`LoomError::Degraded`] when a shard is read-only, and
    /// [`LoomError::Io`] when writing the seal padding fails.
    pub fn seal_active_chunk(&mut self) -> Result<()> {
        self.each_shard(ShardWriter::seal_active_chunk)
    }

    /// Gracefully shuts the writer down: seals each shard's active chunk,
    /// flushes all logs, and writes a clean-shutdown marker into each
    /// shard's manifest so the next [`Loom::open`] takes the scan-free
    /// fast path. All shards are closed even if one fails; the first
    /// error is returned.
    ///
    /// Dropping the writer does the same on a best-effort basis; `close`
    /// surfaces the errors.
    ///
    /// # Errors
    ///
    /// [`LoomError::Io`] when a final flush, fdatasync, or
    /// clean-shutdown marker write fails, and [`LoomError::Degraded`]
    /// for shards already read-only; the affected shard recovers on the
    /// next open.
    pub fn close(mut self) -> Result<()> {
        self.each_shard(ShardWriter::close_inner)
    }

    /// Abandons the writer the way a crash would: nothing is sealed or
    /// flushed, and no clean-shutdown marker is written, so only bytes the
    /// flushers already wrote survive. The next open runs recovery on
    /// every shard. Test-support API for exercising the recovery path.
    pub fn simulate_crash(mut self) {
        for shard in &mut self.shards {
            shard.simulate_crash_in_place();
        }
    }

    /// The shared handle, for convenience.
    pub fn handle(&self) -> Loom {
        Loom {
            inner: Arc::clone(&self.engine),
        }
    }
}

impl ShardWriter {
    /// Applies the repairs scheduled by a dirty recovery scan: re-seals
    /// surviving summaries whose seal entries were torn off, rebuilds
    /// summaries for complete chunks that lost theirs, and replays the
    /// partial tail chunk into the active-chunk accumulator. Returns
    /// `(summaries_rebuilt, seals_appended)`.
    fn apply_recovery(&mut self, recovered: &RecoveredState) -> Result<(u64, u64)> {
        self.refresh_slots_if_stale();
        let chunk_size = self.inner.config.chunk_size as u64;

        // Seal timestamps must stay monotone in the timestamp index, so
        // repairs are stamped with the latest surviving timestamp (or the
        // summary's own maximum, whichever is later).
        let mut seal_ts = recovered.last_ts;
        let mut appended = 0u64;
        for u in &recovered.unsealed_summaries {
            seal_ts = seal_ts.max(u.ts_max);
            self.logs.append_seal(u.summary_addr, seal_ts)?;
            appended += 1;
        }

        // Rebuilt summaries run through the live accumulator, which is
        // still empty: the tail is replayed into it only afterwards.
        debug_assert!(self.logs.active.is_empty());
        let mut rebuilt = 0u64;
        let mut buf = vec![0u8; chunk_size as usize];
        let mut frame = Vec::new();
        let cold = Arc::clone(&self.inner.cold.read());
        for &chunk_addr in &recovered.resummarize {
            // An aged chunk's hot copy may be punched: read its segment,
            // as the record-log scan did.
            if cold.read_chunk(chunk_addr, &mut frame, &mut buf)? {
                self.inner.obs.engine.cold_byte_decodes(1);
            } else {
                self.inner.record_log.read_at(chunk_addr, &mut buf)?;
            }
            let timer = Stopwatch::start();
            for item in ChunkIter::new(&buf, chunk_addr) {
                let rec = item?;
                self.observe(rec.header.source, rec.header.ts, rec.payload);
            }
            let summary = self.logs.active.take_summary(chunk_addr, chunk_size);
            seal_ts = seal_ts.max(summary.ts_max);
            self.logs
                .append_summary(&self.inner, &summary, seal_ts, timer)?;
            rebuilt += 1;
        }

        // Replay the partial tail chunk into the active-chunk state so the
        // next seal's summary covers the pre-crash records too.
        let tail = self.logs.record.tail();
        let within = tail % chunk_size;
        if within > 0 {
            let base = tail - within;
            let mut tail_buf = vec![0u8; within as usize];
            self.inner.record_log.read_at(base, &mut tail_buf)?;
            for item in ChunkIter::new(&tail_buf, base) {
                let rec = item?;
                self.observe(rec.header.source, rec.header.ts, rec.payload);
            }
        }

        // Records in the replayed tail chunk may postdate every surviving
        // timestamp-index entry; lift the clock past them too.
        self.inner
            .clock
            .resume_at_least(seal_ts.max(self.logs.active.ts_max));

        // Make the repairs durable before handing out the writer.
        self.sync(false)?;
        Ok((rebuilt, appended))
    }

    /// Accounts a recovered record into the active chunk. A source
    /// without a slot (its definition was lost) still counts in the
    /// chunk's sources, under no index.
    fn observe(&mut self, source: u32, ts: u64, payload: &[u8]) {
        let indexes = self.slots.get(&source).map_or(&[][..], |s| &s.indexes);
        self.logs.active.observe(source, ts, payload, indexes);
    }

    /// Writes one record from `source` into this shard.
    fn push(&mut self, source: SourceId, payload: &[u8]) -> Result<u64> {
        if self.inner.health.is_read_only() {
            return Err(self.inner.degraded_error());
        }
        self.refresh_slots_if_stale();
        let inner = &*self.inner;
        let max = inner.config.max_record_payload();
        if payload.len() > max {
            return Err(LoomError::RecordTooLarge {
                size: payload.len(),
                max,
            });
        }
        // The one slot lookup: the slot is held through the append, the
        // bin observation, the record mark and the publish.
        let slot = match self.slots.get_mut(&source.0) {
            None => return Err(LoomError::UnknownSource(source.0)),
            Some(s) if s.closed => return Err(LoomError::SourceClosed(source.0)),
            Some(s) => s,
        };
        let logs = &mut self.logs;

        let ts = inner.clock.now();
        let entry_size = RECORD_HEADER_SIZE + payload.len();
        let chunk_size = inner.config.chunk_size as u64;
        let within = logs.record.tail() % chunk_size;
        let needs_pad = within as usize + entry_size > chunk_size as usize;
        let pad = if needs_pad {
            (chunk_size - within) as usize
        } else {
            0
        };

        // Backpressure policy: if admitting this record (plus any chunk
        // padding) would stall on the record-log flusher, apply the
        // configured overload policy before any bytes are written. The
        // check covers the record log only — the far smaller index logs
        // keep the original blocking behavior.
        if inner.config.overload != OverloadPolicy::Block
            && logs.record.append_would_wait(pad + entry_size)
        {
            match inner.config.overload {
                OverloadPolicy::DropNewest => {
                    inner.obs.engine.ingest_drop();
                    return Ok(NIL_ADDR);
                }
                OverloadPolicy::ErrorFast => return Err(LoomError::Overloaded),
                OverloadPolicy::Block => unreachable!(),
            }
        }

        // Pad and seal the active chunk if the record does not fit.
        let mut sealed = needs_pad;
        if needs_pad {
            logs.pad(inner, pad)?;
            logs.seal_chunk(inner, ts)?;
        }

        // Append the record behind the source's previous one.
        slot.chain.count += 1;
        let count = slot.chain.count;
        let header = RecordHeader {
            source: source.0,
            len: payload.len() as u32,
            prev: slot.chain.prev,
            ts,
        };
        let addr = logs.record.append(&header.encode(payload))?;
        logs.record.append(payload)?;
        logs.active.observe(source.0, ts, payload, &slot.indexes);

        // Seal immediately when the record exactly filled the chunk, so
        // the active region visible to queries is always the tail chunk.
        if logs.record.tail().is_multiple_of(chunk_size) {
            logs.seal_chunk(inner, ts)?;
            sealed = true;
        }

        // Periodic record mark in the timestamp index.
        if (count - 1) % inner.config.ts_mark_period == 0 {
            let entry = TsEntry {
                kind: TsKind::RecordMark,
                source: source.0,
                ts,
                target: addr,
                prev: slot.chain.last_mark,
            };
            slot.chain.last_mark = logs.ts.append(&entry.encode())?;
            inner.stats.inc_ts_entries();
        }

        // Publish the three logs, then the source's last-record pointer.
        logs.publish();
        slot.chain.prev = addr;
        slot.shared.last_record.store(addr, Ordering::Release);
        slot.shared.records.store(count, Ordering::Release);
        inner.stats.inc_records(entry_size as u64);

        // Test hook: age eligible chunks synchronously on every seal so
        // each query path exercises a populated cold tier. compact_round
        // itself no-ops when retention is disabled; a failed round
        // degrades the shard but never fails the push that sealed.
        if sealed && inner.config.retention.compact_on_seal {
            let _ = inner.compact_round();
        }
        Ok(addr)
    }

    /// Publishes and flushes this shard's three logs, with fdatasync when
    /// `durable`.
    fn sync(&mut self, durable: bool) -> Result<()> {
        self.logs.publish();
        self.logs.flush(durable)
    }

    /// Pads and seals this shard's active chunk even if it is not full.
    fn seal_active_chunk(&mut self) -> Result<()> {
        if self.logs.active.is_empty() {
            return Ok(());
        }
        let inner = &*self.inner;
        let chunk_size = inner.config.chunk_size as u64;
        let within = self.logs.record.tail() % chunk_size;
        if within != 0 {
            self.logs.pad(inner, (chunk_size - within) as usize)?;
        }
        self.logs.seal_chunk(inner, inner.clock.now())?;
        self.logs.publish();
        Ok(())
    }

    fn close_inner(&mut self) -> Result<()> {
        if self.closed {
            return Ok(());
        }
        self.seal_active_chunk()?;
        // Durable flush: the clean-shutdown marker below asserts the
        // tails it records are on disk, so they must survive more than
        // the page cache.
        self.logs.flush(true)?;
        // One final retention round while everything is durable, so an
        // aggressive policy ages the freshly sealed tail before the
        // shutdown marker. Failures degrade the shard but must not block
        // the clean shutdown — the tier's commit point is the manifest
        // journal, not this pass.
        if self.inner.config.retention.enabled {
            let _ = self.inner.compact_round();
        }
        if let Some(k) = fault::check(fault::WRITER_CLOSE, "") {
            // Injected close failure: everything is flushed but the
            // clean-shutdown marker is never written, so the next open
            // must take the recovery path.
            return Err(LoomError::Io(k.to_io_error()));
        }
        // Sources with no record or mark in this shard carry no chain.
        let mut sources: Vec<SourceTail> = self
            .slots
            .iter()
            .filter(|(_, s)| s.chain != SourceState::default())
            .map(|(id, s)| SourceTail {
                id: *id,
                prev: s.chain.prev,
                count: s.chain.count,
                last_mark: s.chain.last_mark,
            })
            .collect();
        sources.sort_by_key(|s| s.id);
        let state = CleanShutdown {
            record_tail: self.logs.record.tail(),
            chunk_tail: self.logs.chunk.tail(),
            ts_tail: self.logs.ts.tail(),
            last_seal: self.logs.last_seal,
            sources,
        };
        self.inner
            .manifest
            .lock()
            .append(ManifestRecord::CleanShutdown(state))?;
        self.closed = true;
        Ok(())
    }

    /// Marks the shard crashed: logs stop flushing and the clean
    /// shutdown on drop is suppressed.
    fn simulate_crash_in_place(&mut self) {
        self.crashed = true;
        self.logs.record.mark_crashed();
        self.logs.chunk.mark_crashed();
        self.logs.ts.mark_crashed();
    }

    /// Brings the slots up to the registry's current version, in place:
    /// adds newly defined sources, flips `closed`, and rebuilds each
    /// source's index list, carrying in-progress bins over by index ID (a
    /// closed index's bins are dropped, a new index starts empty). Chain
    /// state is never touched.
    ///
    /// The slots deliberately cover *every* source in the registry, not
    /// just those homed here: routing guarantees foreign sources are
    /// never pushed to this shard, and a full copy keeps refreshes
    /// independent of the routing function.
    fn refresh_slots_if_stale(&mut self) {
        let version = self.inner.registry_version.get();
        if version == self.version {
            return;
        }
        let registry = self.inner.registry.read();
        let acc = &mut self.logs.active.indexes;
        let mut old: HashMap<u32, Vec<Option<BinStats>>> =
            std::mem::take(acc).into_iter().collect();
        for (sid, entry) in registry.sources() {
            let slot = self.slots.entry(sid.0).or_insert_with(|| {
                SourceSlot::new(Arc::clone(&entry.shared), SourceState::default())
            });
            slot.closed = entry.closed;
            slot.indexes.clear();
            for (iid, idx) in registry.indexes_of(sid) {
                let bins = old
                    .remove(&iid.0)
                    .filter(|b| b.len() == idx.spec.bin_count())
                    .unwrap_or_else(|| vec![None; idx.spec.bin_count()]);
                slot.indexes.push(CachedIndex {
                    extractor: idx.extractor,
                    spec: idx.spec,
                    acc: acc.len(),
                });
                acc.push((iid.0, bins));
            }
        }
        self.version = version;
    }
}

impl ShardLogs {
    /// Publishes the watermarks in §5.4 order: record log, chunk index,
    /// timestamp index.
    fn publish(&self) {
        self.record.publish();
        self.chunk.publish();
        self.ts.publish();
    }

    /// Flushes the three logs, with fdatasync when `durable`.
    fn flush(&mut self, durable: bool) -> Result<()> {
        for log in [&mut self.record, &mut self.chunk, &mut self.ts] {
            if durable {
                log.flush_durable()?;
            } else {
                log.flush()?;
            }
        }
        Ok(())
    }

    /// Fills the rest of the active chunk with `pad` bytes: a padding
    /// entry, or raw zeros when the gap is shorter than a header.
    fn pad(&mut self, inner: &Inner, pad: usize) -> Result<()> {
        let zeros = &mut self.zeros;
        if pad >= RECORD_HEADER_SIZE {
            let header = RecordHeader {
                source: SOURCE_PAD,
                len: (pad - RECORD_HEADER_SIZE) as u32,
                prev: NIL_ADDR,
                ts: 0,
            };
            // The pad payload must be zeroed: staging blocks are recycled
            // without clearing, and a chunk scan relies on zeroed bytes
            // after the pad only when the pad is shorter than a header.
            // Zeroing unconditionally keeps on-disk chunks deterministic,
            // and the header checksum covers the zeroed payload.
            zeros.resize(pad - RECORD_HEADER_SIZE, 0);
            self.record.append(&header.encode(zeros))?;
            self.record.append(zeros)?;
        } else {
            zeros.resize(pad, 0);
            self.record.append(zeros)?;
        }
        inner.stats.add_pad_bytes(pad as u64);
        Ok(())
    }

    /// Seals the chunk that just filled: its summary leaves the
    /// accumulator for the chunk index, and the seal is recorded in the
    /// timestamp index.
    fn seal_chunk(&mut self, inner: &Inner, ts: u64) -> Result<()> {
        let chunk_size = inner.config.chunk_size as u64;
        debug_assert_eq!(self.record.tail() % chunk_size, 0);
        let timer = Stopwatch::start();
        let summary = self
            .active
            .take_summary(self.record.tail() - chunk_size, chunk_size);
        self.append_summary(inner, &summary, ts, timer)?;
        inner.stats.inc_chunks_sealed();
        inner.stats.inc_ts_entries();
        Ok(())
    }

    /// Appends `summary` to the chunk index, mirrors it, and records its
    /// seal at `ts` in the timestamp index. Nothing here publishes, so
    /// the mirror holds the summary before either watermark can expose
    /// its seal to a query (DESIGN §10.1).
    fn append_summary(
        &mut self,
        inner: &Inner,
        summary: &ChunkSummary,
        ts: u64,
        timer: Stopwatch,
    ) -> Result<()> {
        let mut buf = Vec::with_capacity(256);
        summary.encode(&mut buf);
        let summary_addr = self.chunk.append(&buf)?;
        inner
            .obs
            .engine
            .chunk_sealed(timer.elapsed_nanos(), buf.len() as u64);
        let bytes = inner.summaries.append(summary_addr, buf.len(), summary);
        inner.obs.index.summary_mirror_bytes(bytes as u64);
        self.append_seal(summary_addr, ts)
    }

    /// Appends a chunk-seal entry for the summary at `summary_addr` to
    /// the timestamp index's seal chain.
    fn append_seal(&mut self, summary_addr: u64, ts: u64) -> Result<()> {
        let entry = TsEntry {
            kind: TsKind::ChunkSeal,
            source: 0,
            ts,
            target: summary_addr,
            prev: self.last_seal,
        };
        self.last_seal = self.ts.append(&entry.encode())?;
        Ok(())
    }
}

impl Drop for ShardWriter {
    fn drop(&mut self) {
        // A graceful drop is a clean shutdown: seal, flush, and write the
        // marker; ignore errors since drop cannot fail. A simulated crash
        // skips all of it.
        if !self.crashed {
            let _ = self.close_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_total() {
        for shards in [1usize, 2, 3, 4, 7, 16] {
            let mut hit = vec![false; shards];
            for source in 0..1024u32 {
                let a = shard_of(source, shards);
                let b = shard_of(source, shards);
                assert_eq!(a, b, "routing must be deterministic");
                assert!(a < shards, "routing must stay in range");
                hit[a] = true;
            }
            assert!(
                hit.iter().all(|&h| h),
                "1024 sources should touch all {shards} shards"
            );
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        for source in [0u32, 1, 42, u32::MAX] {
            assert_eq!(shard_of(source, 1), 0);
        }
    }
}
