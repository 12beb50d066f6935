//! Tiered retention: the cold tier of compressed, time-sliced chunks.
//!
//! The hot tier is the record log exactly as the flat engine wrote it.
//! A background compactor ages sealed chunks whose newest timestamp is
//! older than [`RetentionConfig::cold_after`](crate::config::RetentionConfig)
//! into per-time-slice segment files under `shard-i/cold/slice-N/`,
//! journals the move in the manifest (the commit point), then punches
//! the chunk's bytes out of the record log. Whole slices are later
//! dropped atomically by `drop_after`.
//!
//! This module owns the pieces below the engine:
//!
//! - [`codec`] — the per-chunk compression codec (delta-of-delta
//!   timestamps, XOR float values, raw fallback), bit-exact by
//!   construction: every encode is round-trip-verified before use.
//! - [`segment`] — CRC-framed segment files and their validation.
//! - [`ColdSnap`] — an immutable snapshot of the cold tier, rebuilt by
//!   folding manifest records; queries capture an `Arc<ColdSnap>` so
//!   in-flight reads keep pruned segments alive via their open file
//!   handles.

pub mod codec;
pub mod segment;

use std::collections::HashMap;
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

use crate::durability::manifest::{AgedChunk, ManifestRecord};
use crate::error::{LoomError, Result};

pub use codec::{CODEC_COLUMNAR, CODEC_RAW};
pub use segment::{FrameMeta, SegmentWriter, COLD_DIR};

/// The time slice a chunk with newest timestamp `ts_max` belongs to.
pub fn slice_of(ts_max: u64, slice_width: u64) -> u64 {
    ts_max / slice_width.max(1)
}

/// Location of one cold chunk: an open segment file plus frame offset.
#[derive(Clone)]
pub struct ColdChunkRef {
    /// The segment file holding the chunk's compressed frame. Shared so
    /// a pruned (unlinked) segment stays readable for in-flight views.
    pub file: Arc<File>,
    /// Frame offset within the segment.
    pub offset: u64,
    /// Slice the chunk belongs to.
    pub slice: u64,
}

/// Per-slice super-summary: coarsened statistics over every chunk the
/// slice holds, rebuilt from `ChunksAged` manifest records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceStats {
    /// Slice index (`ts_max / retention.slice`).
    pub slice: u64,
    /// Chunks aged into the slice.
    pub chunks: u64,
    /// Data records across those chunks.
    pub records: u64,
    /// Uncompressed bytes across those chunks.
    pub raw_bytes: u64,
    /// Compressed frame-body bytes across those chunks.
    pub comp_bytes: u64,
    /// Smallest record timestamp in the slice (0 when empty).
    pub ts_min: u64,
    /// Largest record timestamp in the slice (0 when empty).
    pub ts_max: u64,
    /// Chunk-log address of the slice's first summary frame.
    pub summary_start: u64,
    /// Chunk-log address one past the slice's last summary frame.
    pub summary_end: u64,
    /// Record-log address one past the slice's last chunk.
    pub chunk_end_max: u64,
    /// Whether the slice has been dropped by retention.
    pub pruned: bool,
}

impl SliceStats {
    fn new(slice: u64) -> SliceStats {
        SliceStats {
            slice,
            chunks: 0,
            records: 0,
            raw_bytes: 0,
            comp_bytes: 0,
            ts_min: u64::MAX,
            ts_max: 0,
            summary_start: u64::MAX,
            summary_end: 0,
            chunk_end_max: 0,
            pruned: false,
        }
    }

    fn absorb(&mut self, e: &AgedChunk) {
        self.chunks += 1;
        self.records += e.records;
        self.raw_bytes += u64::from(e.raw_len);
        self.comp_bytes += u64::from(e.comp_len);
        if e.records > 0 {
            self.ts_min = self.ts_min.min(e.ts_min);
            self.ts_max = self.ts_max.max(e.ts_max);
        }
        self.summary_start = self.summary_start.min(e.summary_addr);
        self.summary_end = self
            .summary_end
            .max(e.summary_addr + u64::from(e.summary_len));
        self.chunk_end_max = self.chunk_end_max.max(e.chunk_addr + u64::from(e.raw_len));
    }
}

/// Aggregate cold-tier counters for one shard, for `stats`/`metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColdTierStats {
    /// Live (unpruned) cold chunks.
    pub chunks: u64,
    /// Records in live cold chunks.
    pub records: u64,
    /// Uncompressed bytes of live cold chunks.
    pub raw_bytes: u64,
    /// Compressed bytes of live cold chunks.
    pub comp_bytes: u64,
    /// Live (unpruned) slices.
    pub slices: u64,
    /// Slices dropped by retention since the directory was created.
    pub pruned_slices: u64,
    /// Chunks dropped with those slices.
    pub pruned_chunks: u64,
}

/// An immutable snapshot of one shard's cold tier.
///
/// The engine keeps the current snapshot behind an `RwLock<Arc<..>>` and
/// installs a new one (clone-on-write) after every committed compaction
/// or prune; queries capture the `Arc` once and see a frozen tier.
#[derive(Clone, Default)]
pub struct ColdSnap {
    /// Cold-owned chunks by record-log address.
    chunks: HashMap<u64, ColdChunkRef>,
    /// Per-slice super-summaries, ascending by slice index. Pruned
    /// slices stay listed (with `pruned = true`) so planners can still
    /// fast-forward over their summary range.
    slices: Vec<SliceStats>,
    /// Next free segment file number per slice.
    seg_next: HashMap<u64, u32>,
    /// Record-log address below which chunks have been dropped by
    /// retention: reads under it see punched zeros.
    pruned_below: u64,
    /// Chunk-log address one past the last aged chunk's summary; the
    /// compactor resumes its walk here.
    aged_upto_summary: u64,
    /// Record-log address one past the last aged chunk.
    aged_upto_chunk: u64,
}

impl ColdSnap {
    /// The chunks the cold tier owns, keyed by record-log address.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Whether address `addr` starts a cold-owned chunk.
    pub fn owns(&self, addr: u64) -> bool {
        self.chunks.contains_key(&addr)
    }

    /// Record-log address below which data was dropped by retention.
    pub fn pruned_below(&self) -> u64 {
        self.pruned_below
    }

    /// Chunk-log resume position for the compactor's summary walk.
    pub fn aged_upto_summary(&self) -> u64 {
        self.aged_upto_summary
    }

    /// Record-log address one past the last aged chunk.
    pub fn aged_upto_chunk(&self) -> u64 {
        self.aged_upto_chunk
    }

    /// The per-slice super-summaries, ascending by slice index.
    pub fn slices(&self) -> &[SliceStats] {
        &self.slices
    }

    /// The super-summary covering `slice`, if any chunks were aged into it.
    pub fn slice_stats(&self, slice: u64) -> Option<&SliceStats> {
        self.slices
            .binary_search_by_key(&slice, |s| s.slice)
            .ok()
            .map(|i| &self.slices[i])
    }

    /// The slice — pruned or live — whose summary range covers
    /// chunk-log address `addr`, if any. This is the per-slice
    /// super-summary: planners consult its coarse `ts_min`/`ts_max`
    /// bounds (and `pruned` flag) to fast-forward their summary walk to
    /// `summary_end` without decoding any of the slice's per-chunk
    /// metadata.
    pub fn slice_covering(&self, addr: u64) -> Option<&SliceStats> {
        self.slices
            .iter()
            .find(|s| s.summary_start <= addr && addr < s.summary_end)
    }

    /// Reads the cold chunk at record-log address `addr` into `frame`
    /// (grown, never shrunk, so a caller reading many chunks reuses one
    /// frame buffer) and decompresses it into `out`, checking the frame
    /// CRC, `raw_len` and `raw_crc`. Returns `false` (leaving both
    /// buffers untouched) when the cold tier does not own that address.
    pub fn read_chunk(&self, addr: u64, frame: &mut Vec<u8>, out: &mut Vec<u8>) -> Result<bool> {
        match self.read_frame(addr, frame)? {
            Some(f) => {
                f.inflate(out)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Record-log addresses of every cold-owned chunk, ascending.
    pub(crate) fn chunk_addrs(&self) -> Vec<u64> {
        let mut addrs: Vec<u64> = self.chunks.keys().copied().collect();
        addrs.sort_unstable();
        addrs
    }

    /// Reads the frame of the cold chunk at record-log address `addr`
    /// into `buf` and verifies it (length bound, frame checksum, chunk
    /// address) without decompressing it — the column read. `None` when
    /// the cold tier does not own that address.
    pub(crate) fn read_frame<'b>(
        &self,
        addr: u64,
        buf: &'b mut Vec<u8>,
    ) -> Result<Option<segment::ChunkFrame<'b>>> {
        match self.chunks.get(&addr) {
            Some(r) => segment::read_frame_at(&r.file, r.offset, addr, buf).map(Some),
            None => Ok(None),
        }
    }

    /// Aggregate counters across the snapshot.
    pub fn tier_stats(&self) -> ColdTierStats {
        let mut t = ColdTierStats::default();
        for s in &self.slices {
            if s.pruned {
                t.pruned_slices += 1;
                t.pruned_chunks += s.chunks;
            } else {
                t.slices += 1;
                t.chunks += s.chunks;
                t.records += s.records;
                t.raw_bytes += s.raw_bytes;
                t.comp_bytes += s.comp_bytes;
            }
        }
        t
    }

    /// The next free segment number in `slice` (existing segments are
    /// never appended to; each compaction round writes a fresh file).
    pub fn next_segment(&self, slice: u64) -> u32 {
        self.seg_next.get(&slice).copied().unwrap_or(0)
    }

    /// Applies a committed `ChunksAged` record to a clone of this
    /// snapshot, sharing `file` across the new chunk refs.
    pub fn with_aged(
        &self,
        slice: u64,
        segment: u32,
        entries: &[AgedChunk],
        file: Arc<File>,
    ) -> ColdSnap {
        let mut next = self.clone();
        next.fold_aged(slice, segment, entries, &file);
        next
    }

    /// Applies a committed `SlicePruned` record to a clone of this
    /// snapshot: the slice's chunk refs are dropped (closing our handle
    /// once in-flight views release theirs) and `pruned_below` rises.
    pub fn with_pruned(&self, slice: u64, pruned_below: u64) -> ColdSnap {
        let mut next = self.clone();
        next.fold_pruned(slice, pruned_below);
        next
    }

    fn fold_aged(&mut self, slice: u64, segment: u32, entries: &[AgedChunk], file: &Arc<File>) {
        let next = self.seg_next.entry(slice).or_insert(0);
        *next = (*next).max(segment + 1);
        for e in entries {
            self.chunks.insert(
                e.chunk_addr,
                ColdChunkRef {
                    file: Arc::clone(file),
                    offset: e.offset,
                    slice,
                },
            );
            let idx = match self.slices.binary_search_by_key(&slice, |s| s.slice) {
                Ok(i) => i,
                Err(i) => {
                    self.slices.insert(i, SliceStats::new(slice));
                    i
                }
            };
            self.slices[idx].absorb(e);
            self.aged_upto_summary = self
                .aged_upto_summary
                .max(e.summary_addr + u64::from(e.summary_len));
            self.aged_upto_chunk = self
                .aged_upto_chunk
                .max(e.chunk_addr + u64::from(e.raw_len));
        }
    }

    fn fold_pruned(&mut self, slice: u64, pruned_below: u64) {
        if let Ok(i) = self.slices.binary_search_by_key(&slice, |s| s.slice) {
            self.slices[i].pruned = true;
        }
        self.pruned_below = self.pruned_below.max(pruned_below);
        self.chunks.retain(|_, r| r.slice != slice);
    }
}

/// Rebuilds a shard's [`ColdSnap`] from its replayed manifest records,
/// validating the referenced segment files (header, every frame CRC,
/// frame order, and frame addresses against the `ChunksAged` entries;
/// nothing is inflated — a dirty reopen's record-log scan does that once
/// per chunk) and deleting orphans: segment files or slice directories
/// present on disk but never committed (crash before the manifest
/// append) or already pruned (crash before the unlink).
pub fn open_cold_tier(shard_dir: &Path, records: &[ManifestRecord]) -> Result<ColdSnap> {
    // Pass 1: fold the journal into per-(slice, segment) entry lists and
    // the pruned set, so files of pruned slices are never opened.
    let mut segments: Vec<(u64, u32, Vec<AgedChunk>)> = Vec::new();
    let mut pruned: Vec<(u64, u64)> = Vec::new();
    for rec in records {
        match rec {
            ManifestRecord::ChunksAged {
                slice,
                segment,
                entries,
            } => segments.push((*slice, *segment, entries.clone())),
            ManifestRecord::SlicePruned {
                slice,
                pruned_below,
            } => pruned.push((*slice, *pruned_below)),
            _ => {}
        }
    }

    // Pass 2: open and validate the segments of live slices, folding in
    // journal order so resume watermarks come out right.
    let mut snap = ColdSnap::default();
    for (slice, segment, entries) in &segments {
        if pruned.iter().any(|(s, _)| s == slice) {
            // Fold for the super-summary/watermarks; the prune fold
            // below marks it dropped. No file is opened.
            let placeholder = placeholder_file()?;
            snap.fold_aged(*slice, *segment, entries, &placeholder);
            continue;
        }
        let path = segment::segment_path(shard_dir, *slice, *segment);
        let addrs = segment::validate_segment(&path, *slice)?;
        let expect: Vec<u64> = entries.iter().map(|e| e.chunk_addr).collect();
        if addrs != expect {
            return Err(LoomError::Corrupt(format!(
                "cold segment {} holds chunks {:?} but the manifest committed {:?}",
                path.display(),
                addrs,
                expect
            )));
        }
        let file = Arc::new(File::open(&path)?);
        snap.fold_aged(*slice, *segment, entries, &file);
    }
    for (slice, pruned_below) in &pruned {
        snap.fold_pruned(*slice, *pruned_below);
    }

    sweep_orphans(shard_dir, &segments, &pruned)?;
    Ok(snap)
}

/// An `Arc<File>` stand-in for chunks of pruned slices, whose segment
/// files are gone. These refs are removed by the prune fold before the
/// snapshot is used; the handle exists only to satisfy the field type.
fn placeholder_file() -> Result<Arc<File>> {
    Ok(Arc::new(File::open("/dev/null")?))
}

/// Deletes cold-tier files the manifest does not own: uncommitted
/// segments (crash between segment write and manifest append), leftover
/// directories of pruned slices (crash between prune commit and unlink),
/// and anything unrecognizable — the `cold/` tree is engine-owned.
fn sweep_orphans(
    shard_dir: &Path,
    segments: &[(u64, u32, Vec<AgedChunk>)],
    pruned: &[(u64, u64)],
) -> Result<()> {
    let cold = shard_dir.join(COLD_DIR);
    let entries = match std::fs::read_dir(&cold) {
        Ok(e) => e,
        Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let slice = name.to_str().and_then(segment::parse_slice_dir_name);
        let live = |s: u64| {
            segments.iter().any(|(sl, _, _)| *sl == s) && !pruned.iter().any(|(sl, _)| *sl == s)
        };
        match slice {
            Some(s) if live(s) => {
                for seg in std::fs::read_dir(entry.path())? {
                    let seg = seg?;
                    let committed = seg
                        .file_name()
                        .to_str()
                        .and_then(segment::parse_segment_file_name)
                        .is_some_and(|n| segments.iter().any(|(sl, sg, _)| *sl == s && *sg == n));
                    if !committed {
                        std::fs::remove_file(seg.path())?;
                    }
                }
            }
            _ => {
                // Pruned, never committed, or unrecognizable: drop it.
                if entry.file_type()?.is_dir() {
                    std::fs::remove_dir_all(entry.path())?;
                } else {
                    std::fs::remove_file(entry.path())?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordHeader, NIL_ADDR};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("loom-cold-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn chunk(base: u64, n: u64) -> Vec<u8> {
        let mut c = Vec::new();
        let mut prev = NIL_ADDR;
        for i in 0..n {
            let h = RecordHeader {
                source: 2,
                len: 8,
                prev,
                ts: 1000 + i,
            };
            prev = base + c.len() as u64;
            let payload = (i as f64).to_le_bytes();
            c.extend_from_slice(&h.encode(&payload));
            c.extend_from_slice(&payload);
        }
        c.resize(2048, 0);
        c
    }

    fn aged_entry(m: FrameMeta, summary_addr: u64, records: u64) -> AgedChunk {
        AgedChunk {
            chunk_addr: m.chunk_addr,
            offset: m.offset,
            raw_len: m.raw_len,
            comp_len: m.comp_len,
            summary_addr,
            summary_len: 64,
            ts_min: 1000,
            ts_max: 1000 + records.saturating_sub(1),
            records,
        }
    }

    fn write_slice(
        dir: &Path,
        slice: u64,
        segment: u32,
        chunks: &[(u64, Vec<u8>)],
    ) -> ManifestRecord {
        let mut w = SegmentWriter::create(dir, slice, segment).unwrap();
        let mut entries = Vec::new();
        for (i, (addr, bytes)) in chunks.iter().enumerate() {
            let m = w.append_chunk(*addr, bytes).unwrap();
            entries.push(aged_entry(m, i as u64 * 64, 30));
        }
        w.finish().unwrap();
        ManifestRecord::ChunksAged {
            slice,
            segment,
            entries,
        }
    }

    #[test]
    fn open_reads_back_committed_chunks() {
        let dir = tmpdir("open");
        let c0 = chunk(0, 30);
        let c1 = chunk(2048, 30);
        let records = vec![write_slice(
            &dir,
            0,
            0,
            &[(0, c0.clone()), (2048, c1.clone())],
        )];
        let snap = open_cold_tier(&dir, &records).unwrap();
        assert_eq!(snap.chunk_count(), 2);
        assert!(snap.owns(0) && snap.owns(2048));
        assert_eq!(snap.aged_upto_chunk(), 4096);
        assert_eq!(snap.aged_upto_summary(), 128);
        let (mut frame, mut out) = (Vec::new(), Vec::new());
        assert!(snap.read_chunk(2048, &mut frame, &mut out).unwrap());
        assert_eq!(out, c1);
        assert!(!snap.read_chunk(4096, &mut frame, &mut out).unwrap());
        let t = snap.tier_stats();
        assert_eq!((t.chunks, t.records, t.slices), (2, 60, 1));
        assert_eq!(t.raw_bytes, 4096);
        assert!(t.comp_bytes < t.raw_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_segment_is_swept() {
        let dir = tmpdir("orphan");
        let committed = write_slice(&dir, 0, 0, &[(0, chunk(0, 10))]);
        // A second segment written but never journaled (crash before the
        // manifest append), plus a whole uncommitted slice and junk.
        write_slice(&dir, 0, 1, &[(2048, chunk(2048, 10))]);
        write_slice(&dir, 5, 0, &[(4096, chunk(4096, 10))]);
        std::fs::write(dir.join(COLD_DIR).join("junk"), b"x").unwrap();
        let snap = open_cold_tier(&dir, &[committed]).unwrap();
        assert_eq!(snap.chunk_count(), 1);
        assert!(!segment::segment_path(&dir, 0, 1).exists());
        assert!(!dir.join(COLD_DIR).join(segment::slice_dir_name(5)).exists());
        assert!(!dir.join(COLD_DIR).join("junk").exists());
        assert!(segment::segment_path(&dir, 0, 0).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruned_slice_folds_without_its_files() {
        let dir = tmpdir("pruned");
        let r0 = write_slice(&dir, 0, 0, &[(0, chunk(0, 10))]);
        let r1 = write_slice(&dir, 1, 0, &[(2048, chunk(2048, 10))]);
        // Retention dropped slice 0 and its directory is already gone.
        std::fs::remove_dir_all(dir.join(COLD_DIR).join(segment::slice_dir_name(0))).unwrap();
        let records = vec![
            r0,
            r1,
            ManifestRecord::SlicePruned {
                slice: 0,
                pruned_below: 2048,
            },
        ];
        let snap = open_cold_tier(&dir, &records).unwrap();
        assert_eq!(snap.chunk_count(), 1);
        assert!(!snap.owns(0) && snap.owns(2048));
        assert_eq!(snap.pruned_below(), 2048);
        // Watermarks still cover the pruned slice's chunks.
        assert_eq!(snap.aged_upto_chunk(), 4096);
        let t = snap.tier_stats();
        assert_eq!((t.slices, t.pruned_slices, t.pruned_chunks), (1, 1, 1));
        // Slice 0's super-summary survives, marked pruned, for planner
        // fast-forwarding.
        assert!(snap.slice_stats(0).unwrap().pruned);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_pruned_directory_is_swept() {
        let dir = tmpdir("prune-crash");
        let r0 = write_slice(&dir, 0, 0, &[(0, chunk(0, 10))]);
        // Prune committed, but the crash hit before the unlink.
        let records = vec![
            r0,
            ManifestRecord::SlicePruned {
                slice: 0,
                pruned_below: 2048,
            },
        ];
        let snap = open_cold_tier(&dir, &records).unwrap();
        assert_eq!(snap.chunk_count(), 0);
        assert!(!dir.join(COLD_DIR).join(segment::slice_dir_name(0)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_segment_contents_are_a_hard_error() {
        let dir = tmpdir("mismatch");
        let mut r0 = write_slice(&dir, 0, 0, &[(0, chunk(0, 10))]);
        if let ManifestRecord::ChunksAged { entries, .. } = &mut r0 {
            entries[0].chunk_addr = 4096; // journal disagrees with the file
        }
        assert!(open_cold_tier(&dir, &[r0]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_folds_match_reopen() {
        let dir = tmpdir("incremental");
        let c0 = chunk(0, 20);
        let r0 = write_slice(&dir, 0, 0, &[(0, c0.clone())]);
        let (slice, entries) = match &r0 {
            ManifestRecord::ChunksAged { slice, entries, .. } => (*slice, entries.clone()),
            _ => unreachable!(),
        };
        let file = Arc::new(File::open(segment::segment_path(&dir, 0, 0)).unwrap());
        let live = ColdSnap::default().with_aged(slice, 0, &entries, file);
        assert_eq!(live.next_segment(0), 1);
        assert_eq!(live.next_segment(9), 0);
        let reopened = open_cold_tier(&dir, &[r0]).unwrap();
        assert_eq!(live.chunk_count(), reopened.chunk_count());
        assert_eq!(live.slices(), reopened.slices());
        assert_eq!(live.pruned_below(), reopened.pruned_below());

        let after_prune = live.with_pruned(0, 2048);
        assert_eq!(after_prune.chunk_count(), 0);
        assert!(after_prune.slice_stats(0).unwrap().pruned);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slice_of_buckets_by_width() {
        assert_eq!(slice_of(0, 100), 0);
        assert_eq!(slice_of(99, 100), 0);
        assert_eq!(slice_of(100, 100), 1);
        assert_eq!(slice_of(5, 0), 5); // degenerate width clamps to 1
    }
}
