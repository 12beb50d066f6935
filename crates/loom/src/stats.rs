//! Ingest and query statistics counters.

use crate::sync::atomic::{AtomicU64, Ordering};

/// Cumulative ingest-side statistics for a Loom instance.
///
/// All counters are updated with relaxed atomics from the single writer
/// thread and read by anyone; exactness across concurrent reads is not
/// guaranteed (nor needed — these are monitoring counters).
#[derive(Debug, Default)]
pub struct IngestStats {
    records: AtomicU64,
    bytes: AtomicU64,
    chunks_sealed: AtomicU64,
    ts_entries: AtomicU64,
    pad_bytes: AtomicU64,
}

impl IngestStats {
    /// Records a pushed record of `bytes` total size (header + payload).
    pub fn inc_records(&self, bytes: u64) {
        // ORDERING: monitoring counter, no reader synchronizes on it;
        // distinct from the Release-published `SourceShared::records`.
        self.records.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a sealed chunk.
    pub fn inc_chunks_sealed(&self) {
        self.chunks_sealed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a timestamp-index entry.
    pub fn inc_ts_entries(&self) {
        self.ts_entries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `bytes` of chunk padding.
    pub fn add_pad_bytes(&self, bytes: u64) {
        self.pad_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Total records pushed.
    pub fn records(&self) -> u64 {
        // ORDERING: monitoring read; staleness is acceptable.
        self.records.load(Ordering::Relaxed)
    }

    /// Total record-log bytes written (headers + payloads, no padding).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total chunks sealed.
    pub fn chunks_sealed(&self) -> u64 {
        self.chunks_sealed.load(Ordering::Relaxed)
    }

    /// Total timestamp-index entries written.
    pub fn ts_entries(&self) -> u64 {
        self.ts_entries.load(Ordering::Relaxed)
    }

    /// Total bytes of chunk padding written.
    pub fn pad_bytes(&self) -> u64 {
        self.pad_bytes.load(Ordering::Relaxed)
    }
}

/// Per-query execution statistics, returned by the query operators.
///
/// These expose how effective the indexes were: a low
/// `chunks_scanned`-to-`summaries_scanned` ratio means the chunk index
/// skipped most data (§6.4).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueryStats {
    /// Chunk summaries examined in the chunk index.
    pub summaries_scanned: u64,
    /// Record-log chunks actually read and scanned.
    pub chunks_scanned: u64,
    /// Records examined (headers decoded).
    pub records_scanned: u64,
    /// Records that matched all query predicates.
    pub records_matched: u64,
    /// Bytes read from the record log.
    pub bytes_read: u64,
    /// Chunk pieces decoded into column batches. Every chunk piece an
    /// indexed query reads — sealed or in the unsummarized tail — is
    /// decoded this way, so this equals `chunks_scanned` there; raw
    /// scans walk the record chain instead and report zero.
    pub columnar_batches: u64,
    /// Rows (records of the queried source) decoded into column batches;
    /// the rest of `records_scanned` were other sources' records.
    pub columnar_rows: u64,
    /// Largest worker-pool size any stage of the query executed with
    /// (`1` or `0` = fully serial execution). Per-worker chunk/byte
    /// counters are folded into the fields above in log order, so they
    /// stay exact regardless of this value.
    pub workers_used: u64,
    /// Number of engine shards this stats block covers. A single-source
    /// query always resolves to the source's home shard, so its
    /// terminals report `1`; [`QueryStats::merge`] sums the field, so a
    /// fan-out that merges per-shard (or per-node) results reports the
    /// total number of shards consulted.
    pub shards_fanned_out: u64,
}

impl QueryStats {
    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: &QueryStats) {
        self.summaries_scanned += other.summaries_scanned;
        self.chunks_scanned += other.chunks_scanned;
        self.records_scanned += other.records_scanned;
        self.records_matched += other.records_matched;
        self.bytes_read += other.bytes_read;
        self.columnar_batches += other.columnar_batches;
        self.columnar_rows += other.columnar_rows;
        self.workers_used = self.workers_used.max(other.workers_used);
        self.shards_fanned_out += other.shards_fanned_out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_stats_accumulate() {
        let s = IngestStats::default();
        s.inc_records(48);
        s.inc_records(72);
        s.inc_chunks_sealed();
        s.inc_ts_entries();
        s.add_pad_bytes(16);
        assert_eq!(s.records(), 2);
        assert_eq!(s.bytes(), 120);
        assert_eq!(s.chunks_sealed(), 1);
        assert_eq!(s.ts_entries(), 1);
        assert_eq!(s.pad_bytes(), 16);
    }

    #[test]
    fn query_stats_merge() {
        let mut a = QueryStats {
            summaries_scanned: 1,
            chunks_scanned: 2,
            records_scanned: 3,
            records_matched: 4,
            bytes_read: 5,
            columnar_batches: 6,
            columnar_rows: 7,
            workers_used: 1,
            shards_fanned_out: 1,
        };
        let mut b = a;
        b.workers_used = 4;
        a.merge(&b);
        assert_eq!(a.summaries_scanned, 2);
        assert_eq!(a.bytes_read, 10);
        assert_eq!(a.columnar_batches, 12);
        assert_eq!(a.columnar_rows, 14);
        assert_eq!(a.workers_used, 4, "workers_used merges by max, not sum");
        assert_eq!(a.shards_fanned_out, 2, "fan-out merges by sum");
    }
}
