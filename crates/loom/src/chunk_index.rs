//! Read-side access to the chunk index (§4.2).
//!
//! The chunk index is a hybrid log of serialized, checksum-framed
//! [`ChunkSummary`] entries, appended in chunk order when chunks seal.
//! Because the writer publishes the chunk-index watermark only after
//! appending a complete summary, every view of the chunk index ends at a
//! summary boundary and can be scanned sequentially.
//!
//! Sealed summaries never change, so queries do not re-read that log.
//! Each shard keeps a [`SummaryMirror`]: every summary, decoded once —
//! at seal, or at open — into a flat in-memory form, keyed by its
//! chunk-index address. A query captures a [`MirrorSnapshot`] (a few
//! `Arc` clones) and walks it without I/O, checksums, or allocation.
//! [`SummaryCursor`] stays as the loader and as the reference the
//! mirror is tested against.

use std::sync::Arc;

use crate::durability::{LogId, FRAME_HEADER_SIZE, MAX_FRAME_LEN};
use crate::error::{LoomError, Result};
use crate::hybridlog::LogRead;
use crate::summary::{BinStats, ChunkSummary};
use crate::sync::Mutex;

/// Sequential cursor over chunk summaries stored in a hybrid-log view.
pub struct SummaryCursor<'a, R: LogRead> {
    log: &'a R,
    pos: u64,
    scratch: Vec<u8>,
}

impl<'a, R: LogRead> SummaryCursor<'a, R> {
    /// Creates a cursor starting at chunk-index address `start`.
    ///
    /// `start` must be a summary boundary (0, or an address obtained from a
    /// chunk-seal entry in the timestamp index).
    pub fn new(log: &'a R, start: u64) -> Self {
        SummaryCursor {
            log,
            pos: start,
            scratch: Vec::new(),
        }
    }

    /// The address of the next summary this cursor would read.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Reads the next summary, advancing the cursor.
    ///
    /// Returns `Ok(None)` at the end of the view. A nonsense length prefix
    /// (larger than any encodable summary) or a checksum mismatch is
    /// reported as [`LoomError::CorruptLog`] *before* any oversized
    /// allocation is attempted.
    // Not `Iterator::next`: this is fallible and borrows internal scratch.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<ChunkSummary>> {
        let limit = self.log.limit();
        if self.pos + FRAME_HEADER_SIZE as u64 > limit {
            return Ok(None);
        }
        let mut len_buf = [0u8; 4];
        self.log.read_at(self.pos, &mut len_buf)?;
        let body_len = u32::from_le_bytes(len_buf) as u64;
        if body_len > MAX_FRAME_LEN {
            // Validate the length prefix before sizing the scratch buffer:
            // a corrupt prefix must not trigger a huge allocation.
            return Err(LoomError::CorruptLog {
                log: LogId::Chunks,
                addr: self.pos,
                reason: format!("summary length prefix {body_len} exceeds {MAX_FRAME_LEN}"),
            });
        }
        if self.pos + FRAME_HEADER_SIZE as u64 + body_len > limit {
            // A summary is published atomically with its frame header, so
            // running past the limit means the caller's view simply ends
            // here (e.g., a snapshot taken mid-append of the *next* batch).
            return Ok(None);
        }
        self.scratch
            .resize(FRAME_HEADER_SIZE + body_len as usize, 0);
        self.log.read_at(self.pos, &mut self.scratch)?;
        let (summary, consumed) = ChunkSummary::decode(&self.scratch).map_err(|e| match e {
            LoomError::Corrupt(reason) => LoomError::CorruptLog {
                log: LogId::Chunks,
                addr: self.pos,
                reason,
            },
            other => other,
        })?;
        self.pos += consumed as u64;
        Ok(Some(summary))
    }
}

/// Summaries per mirror segment. A full segment freezes: it is shrunk
/// to fit and never mutated again, so captures share it by `Arc`.
const SEGMENT_LEN: usize = 64;

/// The fixed part of one mirrored summary.
#[derive(Debug, Clone, Copy)]
struct Head {
    /// Chunk-index address of the summary frame.
    addr: u64,
    chunk_addr: u64,
    ts_min: u64,
    ts_max: u64,
    /// Records across all sources (precomputed).
    records: u64,
    /// Frame length in the chunk index, header included.
    frame_len: u32,
    chunk_len: u32,
    /// `[start, end)` into the segment's `sources`.
    sources: (u32, u32),
    /// `[start, end)` into the segment's `indexes`.
    indexes: (u32, u32),
}

/// One index's bins within a mirrored summary.
#[derive(Debug, Clone, Copy)]
struct IndexBins {
    id: u32,
    /// `[start, end)` into the segment's `bins`.
    bins: (u32, u32),
}

/// Up to [`SEGMENT_LEN`] consecutive summaries in flat form: source
/// counts sorted by source, index bins sorted by index then bin — the
/// `ChunkSummary` map orders, so folding bins in slice order associates
/// floats exactly as folding the decoded maps did.
#[derive(Debug, Clone, Default)]
struct Segment {
    heads: Vec<Head>,
    sources: Vec<(u32, u64)>,
    indexes: Vec<IndexBins>,
    bins: Vec<(u32, BinStats)>,
}

impl Segment {
    fn push<S, I, B>(&mut self, mut head: Head, sources: S, indexes: I)
    where
        S: IntoIterator<Item = (u32, u64)>,
        I: IntoIterator<Item = (u32, B)>,
        B: IntoIterator<Item = (u32, BinStats)>,
    {
        let start = self.sources.len();
        self.sources.extend(sources);
        head.records = self.sources[start..].iter().map(|s| s.1).sum();
        head.sources = (start as u32, self.sources.len() as u32);
        let start = self.indexes.len() as u32;
        for (id, bins) in indexes {
            let b = self.bins.len() as u32;
            self.bins.extend(bins);
            self.indexes.push(IndexBins {
                id,
                bins: (b, self.bins.len() as u32),
            });
        }
        head.indexes = (start, self.indexes.len() as u32);
        self.heads.push(head);
    }

    fn push_ref(&mut self, e: SummaryRef<'_>) {
        let indexes = e.indexes().map(|(id, bins)| (id, bins.iter().copied()));
        self.push(*e.head, e.sources().iter().copied(), indexes);
    }

    fn entry(&self, i: usize) -> SummaryRef<'_> {
        SummaryRef {
            seg: self,
            head: &self.heads[i],
        }
    }

    /// Heap bytes held, plus the segment's own `Arc` allocation.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.heads.capacity() * size_of::<Head>()
            + self.sources.capacity() * size_of::<(u32, u64)>()
            + self.indexes.capacity() * size_of::<IndexBins>()
            + self.bins.capacity() * size_of::<(u32, BinStats)>()
            + size_of::<Segment>()
            + 2 * size_of::<usize>()
    }

    fn shrink(&mut self) {
        self.heads.shrink_to_fit();
        self.sources.shrink_to_fit();
        self.indexes.shrink_to_fit();
        self.bins.shrink_to_fit();
    }
}

/// A borrowed view of one mirrored chunk summary.
#[derive(Clone, Copy)]
pub struct SummaryRef<'a> {
    seg: &'a Segment,
    head: &'a Head,
}

impl<'a> SummaryRef<'a> {
    /// Chunk-index address of the summary frame.
    pub fn addr(&self) -> u64 {
        self.head.addr
    }

    /// Chunk-index address one past the summary frame.
    pub fn end(&self) -> u64 {
        self.head.addr + u64::from(self.head.frame_len)
    }

    /// Record-log address of the chunk's first byte.
    pub fn chunk_addr(&self) -> u64 {
        self.head.chunk_addr
    }

    /// Length of the chunk in bytes.
    pub fn chunk_len(&self) -> u32 {
        self.head.chunk_len
    }

    /// Record-log address one past the chunk.
    pub fn chunk_end(&self) -> u64 {
        self.head.chunk_addr + u64::from(self.head.chunk_len)
    }

    /// Earliest record timestamp in the chunk (`u64::MAX` when empty).
    pub fn ts_min(&self) -> u64 {
        self.head.ts_min
    }

    /// Latest record timestamp in the chunk (0 when empty).
    pub fn ts_max(&self) -> u64 {
        self.head.ts_max
    }

    /// Total records across all sources.
    pub fn record_count(&self) -> u64 {
        self.head.records
    }

    /// `(source, records)` per source present, ascending by source.
    pub fn sources(&self) -> &'a [(u32, u64)] {
        let (a, b) = self.head.sources;
        &self.seg.sources[a as usize..b as usize]
    }

    /// Whether the chunk holds any record from `source`.
    pub fn has_source(&self, source: u32) -> bool {
        self.sources().iter().any(|s| s.0 == source)
    }

    /// `(index, bins)` per index with indexed records, ascending by index;
    /// each index's bins ascend by bin.
    pub fn indexes(&self) -> impl Iterator<Item = (u32, &'a [(u32, BinStats)])> + 'a {
        let (a, b) = self.head.indexes;
        let seg = self.seg;
        seg.indexes[a as usize..b as usize]
            .iter()
            .map(move |ix| (ix.id, &seg.bins[ix.bins.0 as usize..ix.bins.1 as usize]))
    }

    /// The `(bin, stats)` pairs of `index_id`, ascending by bin, if any
    /// record was indexed.
    pub fn index_bins(&self, index_id: u32) -> Option<&'a [(u32, BinStats)]> {
        self.indexes()
            .find(|(id, _)| *id == index_id)
            .map(|(_, bins)| bins)
    }
}

/// A frozen, point-in-time view of a shard's [`SummaryMirror`]:
/// immutable for as long as it is held, however far the writer appends.
#[derive(Debug, Clone, Default)]
pub struct MirrorSnapshot {
    /// Frozen segments, ascending by address: full when frozen, thinned
    /// only by retention drops, never empty.
    frozen: Arc<Vec<Arc<Segment>>>,
    /// The partial segment after them (possibly empty).
    active: Arc<Segment>,
}

impl MirrorSnapshot {
    fn segments(&self) -> usize {
        self.frozen.len() + 1
    }

    fn segment(&self, i: usize) -> &Segment {
        self.frozen.get(i).map_or(&self.active, |s| s)
    }

    /// Number of summaries mirrored.
    pub fn len(&self) -> usize {
        self.frozen.iter().map(|s| s.heads.len()).sum::<usize>() + self.active.heads.len()
    }

    /// Whether nothing is mirrored.
    pub fn is_empty(&self) -> bool {
        self.frozen.is_empty() && self.active.heads.is_empty()
    }

    /// The summaries at chunk-index addresses `>= addr`, in address order.
    pub fn iter_from(&self, addr: u64) -> MirrorIter<'_> {
        // First segment whose last summary is at or past `addr`; the
        // active segment is last, so an empty one never misleads.
        let (mut lo, mut hi) = (0, self.segments());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self
                .segment(mid)
                .heads
                .last()
                .is_some_and(|h| h.addr < addr)
            {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let entry = if lo < self.segments() {
            self.segment(lo).heads.partition_point(|h| h.addr < addr)
        } else {
            0
        };
        MirrorIter {
            snap: self,
            segment: lo,
            entry,
        }
    }

    /// Every mirrored summary, in address order.
    pub fn iter(&self) -> MirrorIter<'_> {
        self.iter_from(0)
    }

    /// The summary whose frame starts at chunk-index address `addr`.
    pub fn get(&self, addr: u64) -> Option<SummaryRef<'_>> {
        self.iter_from(addr).next().filter(|s| s.addr() == addr)
    }

    /// The last summary whose frame ends at or before `limit`.
    pub fn last_within(&self, limit: u64) -> Option<SummaryRef<'_>> {
        (0..self.segments()).rev().find_map(|i| {
            let seg = self.segment(i);
            let n = seg
                .heads
                .partition_point(|h| h.addr + u64::from(h.frame_len) <= limit);
            (n > 0).then(|| seg.entry(n - 1))
        })
    }
}

/// Address-order iterator over a [`MirrorSnapshot`].
pub struct MirrorIter<'a> {
    snap: &'a MirrorSnapshot,
    segment: usize,
    entry: usize,
}

impl<'a> Iterator for MirrorIter<'a> {
    type Item = SummaryRef<'a>;

    fn next(&mut self) -> Option<SummaryRef<'a>> {
        while self.segment < self.snap.segments() {
            let seg = self.snap.segment(self.segment);
            if self.entry < seg.heads.len() {
                self.entry += 1;
                return Some(seg.entry(self.entry - 1));
            }
            self.segment += 1;
            self.entry = 0;
        }
        None
    }
}

/// The writer-side state behind [`SummaryMirror`]'s lock.
struct MirrorState {
    snap: MirrorSnapshot,
    /// [`Segment::bytes`] summed over the frozen segments.
    frozen_bytes: usize,
}

impl MirrorState {
    fn bytes(&self) -> usize {
        self.frozen_bytes
            + self.snap.frozen.capacity() * std::mem::size_of::<Arc<Segment>>()
            + self.snap.active.bytes()
    }
}

/// One shard's append-only, in-memory mirror of its sealed chunk
/// summaries (see the module docs).
///
/// Publication order: the writer appends a summary here *before* it
/// publishes the chunk-index and timestamp-index watermarks that make
/// the summary reachable, and a query captures the mirror *after* its
/// timestamp and chunk-index snapshots. So every seal a query's
/// timestamp snapshot holds resolves in its mirror capture.
///
/// The lock covers a capture's `Arc` clones, one summary's append, or a
/// prune's rebuild of the segments it thins — never I/O — so a capture
/// never waits on a seal's I/O and a seal never waits on a running
/// query, which owns its captured segments outright.
pub struct SummaryMirror {
    state: Mutex<MirrorState>,
}

impl Default for SummaryMirror {
    fn default() -> Self {
        SummaryMirror::from(MirrorSnapshot::default())
    }
}

/// Resumes mirroring from a loaded snapshot (a reopen's verified
/// summaries).
impl From<MirrorSnapshot> for SummaryMirror {
    fn from(snap: MirrorSnapshot) -> Self {
        let frozen_bytes = snap.frozen.iter().map(|s| s.bytes()).sum();
        SummaryMirror {
            state: Mutex::named("loom.summary_mirror", MirrorState { snap, frozen_bytes }),
        }
    }
}

impl SummaryMirror {
    /// The model checker's scheduling point for an operation on this
    /// mirror (a free no-op outside `--cfg conc_check`): each operation
    /// is one atomic step, and nothing inside the critical section
    /// yields, so the lock is never contended inside a model run.
    fn point(&self) -> usize {
        self as *const Self as usize
    }

    /// Mirrors `summary`, whose frame of `frame_len` bytes starts at
    /// chunk-index address `addr` (past every address mirrored so far).
    /// Returns the mirror's memory footprint in bytes.
    pub fn append(&self, addr: u64, frame_len: usize, summary: &ChunkSummary) -> usize {
        crate::sync::hint::raw_write(self.point());
        let head = Head {
            addr,
            chunk_addr: summary.chunk_addr,
            ts_min: summary.ts_min,
            ts_max: summary.ts_max,
            records: 0,
            frame_len: frame_len as u32,
            chunk_len: summary.chunk_len,
            sources: (0, 0),
            indexes: (0, 0),
        };
        let sources = summary.sources.iter().map(|(s, n)| (*s, *n));
        let indexes = summary
            .indexes
            .iter()
            .map(|(id, bins)| (*id, bins.iter().map(|(b, s)| (*b, *s))));
        let mut st = self.state.lock();
        // Copies the partial segment only if a query still holds it.
        let active = Arc::make_mut(&mut st.snap.active);
        active.heads.reserve_exact(SEGMENT_LEN - active.heads.len());
        active.push(head, sources, indexes);
        if active.heads.len() == SEGMENT_LEN {
            let mut full = std::mem::take(active);
            full.shrink();
            st.frozen_bytes += full.bytes();
            Arc::make_mut(&mut st.snap.frozen).push(Arc::new(full));
        }
        st.bytes()
    }

    /// The mirror's memory footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.state.lock().bytes()
    }

    /// A frozen view of everything mirrored so far.
    pub fn capture(&self) -> MirrorSnapshot {
        crate::sync::hint::raw_read(self.point());
        self.state.lock().snap.clone()
    }

    /// Drops the summaries at chunk-index addresses in `[start, end)` —
    /// retention pruned their chunks. Returns the mirror's memory
    /// footprint in bytes.
    pub fn drop_range(&self, start: u64, end: u64) -> usize {
        crate::sync::hint::raw_write(self.point());
        let keep = |e: &SummaryRef<'_>| e.addr() < start || e.addr() >= end;
        let without = |seg: &Segment| {
            let mut out = Segment::default();
            (0..seg.heads.len())
                .map(|i| seg.entry(i))
                .filter(keep)
                .for_each(|e| out.push_ref(e));
            out.shrink();
            out
        };
        let overlaps = |seg: &Segment| seg.heads.iter().any(|h| h.addr >= start && h.addr < end);
        let mut st = self.state.lock();
        if st.snap.frozen.iter().any(|s| overlaps(s)) {
            let frozen: Vec<Arc<Segment>> = st
                .snap
                .frozen
                .iter()
                .map(|s| {
                    if overlaps(s) {
                        Arc::new(without(s))
                    } else {
                        Arc::clone(s)
                    }
                })
                .filter(|s| !s.heads.is_empty())
                .collect();
            st.frozen_bytes = frozen.iter().map(|s| s.bytes()).sum();
            st.snap.frozen = Arc::new(frozen);
        }
        if overlaps(&st.snap.active) {
            st.snap.active = Arc::new(without(&st.snap.active));
        }
        st.bytes()
    }
}

/// A chunk-index frame as a cursor walk reads it: its address, the
/// address one past it, and the decoded summary.
pub type FrameSummary = (u64, u64, ChunkSummary);

impl crate::engine::Loom {
    /// Test support: shard `shard`'s summary mirror, captured, with the
    /// reference it must equal — a [`SummaryCursor`] walk of the shard's
    /// published chunk index minus the summaries of slices retention
    /// pruned — as `(addr, frame_end, summary)` triples.
    ///
    /// # Errors
    ///
    /// [`LoomError::CorruptLog`] when a chunk-index frame fails
    /// validation.
    #[doc(hidden)]
    pub fn summary_mirror_audit(
        &self,
        shard: usize,
    ) -> Result<(MirrorSnapshot, Vec<FrameSummary>)> {
        let inner = &self.inner.shards[shard];
        let chunk = inner.chunk_log.snapshot()?;
        let mirror = inner.summaries.capture();
        let cold = Arc::clone(&inner.cold.read());
        let mut cursor = SummaryCursor::new(&chunk, 0);
        let mut reference = Vec::new();
        loop {
            let addr = cursor.pos();
            let Some(summary) = cursor.next()? else { break };
            if !cold.slice_covering(addr).is_some_and(|s| s.pruned) {
                reference.push((addr, cursor.pos(), summary));
            }
        }
        Ok((mirror, reference))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summaries(n: u64) -> (Vec<u8>, Vec<ChunkSummary>) {
        let mut buf = Vec::new();
        let mut out = Vec::new();
        for i in 0..n {
            let mut s = ChunkSummary::new(i, i * 4096, 4096);
            s.observe_record(1, i * 100 + 1);
            s.observe_record(2, i * 100 + 50);
            s.observe_value(1, (i % 4) as u32, i as f64, i * 100 + 1);
            s.encode(&mut buf);
            out.push(s);
        }
        (buf, out)
    }

    #[test]
    fn cursor_walks_all_summaries() {
        let (log, expected) = summaries(10);
        let mut cur = SummaryCursor::new(&log, 0);
        let mut got = Vec::new();
        while let Some(s) = cur.next().unwrap() {
            got.push(s);
        }
        assert_eq!(got, expected);
        assert_eq!(cur.pos(), log.limit());
    }

    #[test]
    fn cursor_starting_mid_log_reads_suffix() {
        let (log, expected) = summaries(5);
        // Find the address of the third summary by replaying frame lengths.
        let mut pos = 0u64;
        for _ in 0..2 {
            let mut len_buf = [0u8; 4];
            log.read_at(pos, &mut len_buf).unwrap();
            pos += FRAME_HEADER_SIZE as u64 + u32::from_le_bytes(len_buf) as u64;
        }
        let mut cur = SummaryCursor::new(&log, pos);
        let mut got = Vec::new();
        while let Some(s) = cur.next().unwrap() {
            got.push(s);
        }
        assert_eq!(got, expected[2..]);
    }

    #[test]
    fn truncated_view_stops_cleanly() {
        let (log, expected) = summaries(3);
        // Chop the last summary in half: cursor must stop after two.
        let cut = log.len() - 10;
        let log = log[..cut].to_vec();
        let mut cur = SummaryCursor::new(&log, 0);
        let mut got = Vec::new();
        while let Some(s) = cur.next().unwrap() {
            got.push(s);
        }
        assert_eq!(got, expected[..2]);
    }

    #[test]
    fn nonsense_length_prefix_is_corrupt_not_an_allocation() {
        let (log, _) = summaries(2);
        let mut bytes = log;
        // Stamp an absurd length into the first frame's prefix.
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cur = SummaryCursor::new(&bytes, 0);
        match cur.next() {
            Err(LoomError::CorruptLog { log, addr, reason }) => {
                assert_eq!(log, LogId::Chunks);
                assert_eq!(addr, 0);
                assert!(reason.contains("length prefix"), "{reason}");
            }
            other => panic!("expected CorruptLog, got {other:?}"),
        }
    }

    #[test]
    fn flipped_byte_is_reported_with_address() {
        let (log, _) = summaries(3);
        let mut bytes = log;
        // Locate the second frame and corrupt a body byte.
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let second = FRAME_HEADER_SIZE + first_len;
        bytes[second + FRAME_HEADER_SIZE + 3] ^= 0x20;
        let mut cur = SummaryCursor::new(&bytes, 0);
        assert!(cur.next().unwrap().is_some());
        match cur.next() {
            Err(LoomError::CorruptLog { log, addr, reason }) => {
                assert_eq!(log, LogId::Chunks);
                assert_eq!(addr, second as u64);
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected CorruptLog, got {other:?}"),
        }
    }

    #[test]
    fn empty_log_yields_nothing() {
        let log = Vec::new();
        let mut cur = SummaryCursor::new(&log, 0);
        assert!(cur.next().unwrap().is_none());
    }

    /// A realistic summary: two sources, three indexes of several bins.
    fn rich_summary(i: u64) -> ChunkSummary {
        let mut s = ChunkSummary::new(i, i * 4096, 4096);
        for r in 0..40u64 {
            let ts = i * 1_000 + r;
            s.observe_record(1 + (r % 2) as u32, ts);
            for index in 0..3u32 {
                let v = ((r * 7 + u64::from(index)) % 10) as f64 + 0.1;
                s.observe_value(index, (r % 4) as u32, v, ts);
            }
        }
        s
    }

    /// Mirrors `n` summaries, returning the mirror and the encoded log.
    fn mirrored(n: u64) -> (SummaryMirror, Vec<u8>) {
        let mirror = SummaryMirror::default();
        let mut log = Vec::new();
        for i in 0..n {
            let addr = log.len();
            rich_summary(i).encode(&mut log);
            mirror.append(addr as u64, log.len() - addr, &rich_summary(i));
        }
        (mirror, log)
    }

    /// Asserts `snap` holds exactly `expected`, field by field (floats
    /// by bit pattern).
    fn assert_mirrors(snap: &MirrorSnapshot, expected: &[(u64, u64, ChunkSummary)]) {
        assert_eq!(snap.len(), expected.len());
        for (e, (addr, end, s)) in snap.iter().zip(expected) {
            assert_eq!((e.addr(), e.end()), (*addr, *end));
            assert_eq!((e.chunk_addr(), e.chunk_len()), (s.chunk_addr, s.chunk_len));
            assert_eq!((e.ts_min(), e.ts_max()), (s.ts_min, s.ts_max));
            assert_eq!(e.record_count(), s.record_count());
            let sources: Vec<_> = s.sources.iter().map(|(k, v)| (*k, *v)).collect();
            assert_eq!(e.sources(), &sources[..]);
            let bits = |b: &BinStats| {
                let f = |x: f64| x.to_bits();
                (b.count, f(b.min), f(b.max), f(b.sum), b.ts_min, b.ts_max)
            };
            let got: Vec<_> = e
                .indexes()
                .map(|(id, bins)| (id, bins.iter().map(|(b, st)| (*b, bits(st))).collect()))
                .collect();
            let want: Vec<(u32, Vec<_>)> = s
                .indexes
                .iter()
                .map(|(id, bins)| (*id, bins.iter().map(|(b, st)| (*b, bits(st))).collect()))
                .collect();
            assert_eq!(got, want);
        }
    }

    fn walk(log: &Vec<u8>) -> Vec<(u64, u64, ChunkSummary)> {
        let mut cur = SummaryCursor::new(log, 0);
        let mut out = Vec::new();
        loop {
            let addr = cur.pos();
            match cur.next().unwrap() {
                Some(s) => out.push((addr, cur.pos(), s)),
                None => return out,
            }
        }
    }

    #[test]
    fn mirror_matches_a_cursor_walk_across_segments() {
        let n = 3 * SEGMENT_LEN as u64 + 5;
        let (mirror, log) = mirrored(n);
        let expected = walk(&log);
        let snap = mirror.capture();
        assert_mirrors(&snap, &expected);
        // Exact-address lookups, suffix walks, and the view bound.
        for (addr, end, s) in &expected {
            assert_eq!(snap.get(*addr).unwrap().chunk_addr(), s.chunk_addr);
            assert!(snap.get(addr + 1).is_none());
            assert_eq!(snap.iter_from(*addr).next().unwrap().addr(), *addr);
            assert_eq!(snap.iter_from(addr + 1).next().map(|e| e.addr()), {
                Some(*end).filter(|e| *e < log.len() as u64)
            });
            assert_eq!(snap.last_within(*end).unwrap().addr(), *addr);
            assert_eq!(snap.last_within(end - 1).map(|e| e.end()), {
                Some(*addr).filter(|a| *a > 0)
            });
        }
        assert!(snap.iter_from(log.len() as u64).next().is_none());
        assert!(MirrorSnapshot::default().iter().next().is_none());
    }

    #[test]
    fn a_capture_is_frozen_while_the_writer_appends() {
        let (mirror, mut log) = mirrored(SEGMENT_LEN as u64 - 2);
        let before = mirror.capture();
        let expected = walk(&log);
        for i in 0..5 {
            let addr = log.len();
            let s = rich_summary(100 + i);
            s.encode(&mut log);
            mirror.append(addr as u64, log.len() - addr, &s);
        }
        assert_mirrors(&before, &expected);
        assert_mirrors(&mirror.capture(), &walk(&log));
    }

    #[test]
    fn dropping_a_range_keeps_everything_else() {
        let n = 2 * SEGMENT_LEN as u64 + 9;
        let (mirror, log) = mirrored(n);
        let all = walk(&log);
        let held = mirror.capture();
        // A prefix that ends mid-segment, then a range in the middle.
        let cut = all[SEGMENT_LEN + 3].0;
        mirror.drop_range(0, cut);
        let (lo, hi) = (all[SEGMENT_LEN + 10].0, all[SEGMENT_LEN + 20].0);
        mirror.drop_range(lo, hi);
        let kept: Vec<_> = all
            .iter()
            .filter(|(a, _, _)| *a >= cut && (*a < lo || *a >= hi))
            .cloned()
            .collect();
        assert_mirrors(&mirror.capture(), &kept);
        assert_mirrors(&held, &all);
        mirror.drop_range(0, u64::MAX);
        assert!(mirror.capture().is_empty());
    }

    #[test]
    fn mirror_memory_stays_within_one_and_a_half_frames() {
        let n = 16 * SEGMENT_LEN as u64;
        let mirror = SummaryMirror::default();
        let mut log = Vec::new();
        let mut bytes = 0;
        for i in 0..n {
            let addr = log.len();
            rich_summary(i).encode(&mut log);
            bytes = mirror.append(addr as u64, log.len() - addr, &rich_summary(i));
        }
        assert!(
            bytes as f64 <= 1.5 * log.len() as f64,
            "{bytes} B mirrored for {} B of frames",
            log.len()
        );
        assert_eq!(
            mirror.drop_range(0, u64::MAX),
            std::mem::size_of::<Segment>() + 2 * std::mem::size_of::<usize>()
        );
    }
}
