//! Query operators: raw scan, indexed range scan, indexed aggregate (§4.3).
//!
//! All operators follow the same access pattern: use the timestamp index
//! to locate relevant positions in the chunk index and record log, use
//! chunk summaries to skip or pre-aggregate chunks, and scan only the
//! chunks that can contain matching records (plus the active, not-yet-
//! summarized tail region).
//!
//! Candidate chunks are immutable once summarized and selected up front,
//! so operators can fan chunk scans across a scoped worker pool (the
//! private `executor` module): `QueryOptions::parallelism` (or the
//! `Config::query_threads` default) picks the pool size, and per-chunk
//! results are merged back in log order so output is identical for every
//! pool size. With one worker (the default) operators run entirely on the
//! calling thread with a bounded memory footprint (a snapshot of the
//! in-memory log tails plus one chunk buffer); with N workers the
//! footprint adds one chunk buffer and the in-flight result batches per
//! worker.

mod aggregate;
mod builder;
pub(crate) mod columnar;
mod executor;
mod indexed_scan;
mod planner;
mod raw_scan;
mod view;

pub(crate) use aggregate::{select_rank, Partial};
pub use builder::Query;

use std::num::NonZeroUsize;
use std::sync::Arc;

use crate::engine::Loom;
use crate::error::{LoomError, Result};
use crate::registry::{IndexId, SourceId, SourceShared};
use crate::stats::QueryStats;

/// An inclusive time range on Loom's internal (arrival) timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeRange {
    /// Inclusive start, in nanoseconds.
    pub start: u64,
    /// Inclusive end, in nanoseconds.
    pub end: u64,
}

impl TimeRange {
    /// Creates a time range; `start` must not exceed `end`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "time range start {start} exceeds end {end}");
        TimeRange { start, end }
    }

    /// The last `duration` nanoseconds before `now`.
    pub fn last(now: u64, duration: u64) -> Self {
        TimeRange {
            start: now.saturating_sub(duration),
            end: now,
        }
    }

    /// Whether `ts` falls inside the range.
    pub fn contains(&self, ts: u64) -> bool {
        ts >= self.start && ts <= self.end
    }
}

/// An inclusive value range for indexed scans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueRange {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl ValueRange {
    /// Creates a value range; `lo` must not exceed `hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "value range lo {lo} exceeds hi {hi}");
        ValueRange { lo, hi }
    }

    /// All values at or above `lo`.
    pub fn at_least(lo: f64) -> Self {
        ValueRange {
            lo,
            hi: f64::INFINITY,
        }
    }

    /// All values at or below `hi`.
    pub fn at_most(hi: f64) -> Self {
        ValueRange {
            lo: f64::NEG_INFINITY,
            hi,
        }
    }

    /// The full value range (no value filtering).
    pub fn all() -> Self {
        ValueRange {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// Whether `v` falls inside the range.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }
}

/// A record delivered to a scan callback.
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    /// The record's log address.
    pub addr: u64,
    /// The source it belongs to.
    pub source: SourceId,
    /// Internal (arrival) timestamp in nanoseconds.
    pub ts: u64,
    /// The raw payload.
    pub payload: &'a [u8],
}

/// Aggregation methods for `indexed_aggregate` (Figure 9).
///
/// `Count`, `Sum`, `Min`, `Max`, and `Mean` are distributive and largely
/// computed from chunk summaries; `Percentile` is holistic and uses the
/// bins-as-CDF strategy of §4.3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aggregate {
    /// Number of records whose indexed value is binnable (non-NaN).
    Count,
    /// Sum of indexed values.
    Sum,
    /// Minimum indexed value.
    Min,
    /// Maximum indexed value.
    Max,
    /// Arithmetic mean of indexed values.
    Mean,
    /// Nearest-rank percentile (0–100) of indexed values.
    Percentile(f64),
}

/// Result of an `indexed_aggregate` query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateResult {
    /// The aggregate value; `None` when no record matched.
    pub value: Option<f64>,
    /// Number of values that contributed.
    pub count: u64,
    /// Execution statistics.
    pub stats: QueryStats,
}

/// Per-query execution options: the paper's index-ablation switches
/// (§6.4, Figure 16) plus the worker-pool size.
///
/// Production use keeps both indexes on (the default); the switches exist
/// to reproduce the paper's index ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Use the timestamp index to seek by time.
    pub use_ts_index: bool,
    /// Use chunk summaries to skip and pre-aggregate chunks.
    pub use_chunk_index: bool,
    /// Worker threads for chunk-parallel stages; `None` (the default)
    /// uses [`Config::query_threads`](crate::Config::query_threads).
    ///
    /// Results are merged deterministically in log order, so a query
    /// returns identical output for every setting; `1` runs the original
    /// serial code path.
    pub parallelism: Option<NonZeroUsize>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            use_ts_index: true,
            use_chunk_index: true,
            parallelism: None,
        }
    }
}

impl QueryOptions {
    /// Sets the worker-pool size; `0` restores the config default.
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = NonZeroUsize::new(workers);
        self
    }

    // Vestige of the retired record-at-a-time switch; its only caller is
    // the frozen `benchmark/src/layers.rs` `--trace 1` probe.
    #[doc(hidden)]
    pub fn with_columnar(self, _on: bool) -> Self {
        self
    }
}

impl Loom {
    /// Scans all records of `source` in `range`, newest to oldest
    /// (Figure 9: `raw_scan`).
    ///
    /// Equivalent to [`Loom::query`] with a [`TimeRange`] and no index;
    /// kept as a named entry point because raw scans are a figure-9 API.
    ///
    /// The walk follows the back pointers from the source's first
    /// timestamp-index mark after the range, reading a window of the
    /// record's chunk at a time (a cold chunk is inflated once). The
    /// window doubles while the chain stays inside it and halves toward
    /// one record when it does not, so a dense source costs about one
    /// read per chunk and a one-record-per-chunk source one small read
    /// per record. Every record read is checksummed, including those
    /// newer than the range; `f` borrows each payload from the window.
    pub fn raw_scan<F>(&self, source: SourceId, range: TimeRange, f: F) -> Result<QueryStats>
    where
        F: FnMut(Record<'_>),
    {
        self.query(source).range(range).scan(f)
    }

    /// Returns the histogram specification of an index (validating that
    /// it covers `source` and, like the query terminals, that its
    /// extractor survived the last reopen).
    pub fn index_spec(
        &self,
        source: SourceId,
        index: IndexId,
    ) -> Result<crate::histogram::HistogramSpec> {
        Ok(self.index_meta(source, index)?.spec.as_ref().clone())
    }

    /// Applies an index's value-extraction function to raw payload bytes
    /// (validating that the index covers `source` and still has its
    /// extractor).
    ///
    /// Useful for post-processing scan results with the exact semantics
    /// the index used, e.g. to recompute the value of each record an
    /// indexed scan delivered.
    pub fn extract_value(
        &self,
        source: SourceId,
        index: IndexId,
        payload: &[u8],
    ) -> Result<Option<f64>> {
        let meta = self.index_meta(source, index)?;
        Ok((meta.extractor)(payload))
    }

    /// Resolves and validates the (source, index) pair.
    ///
    /// Takes the registry read lock exactly once per query: the histogram
    /// spec is `Arc`-shared rather than deep-cloned, and the source's
    /// shared handle is captured so the subsequent view capture does not
    /// re-lock the registry.
    ///
    /// Fails with [`LoomError::ExtractorLost`] on a closure-defined index
    /// restored by a reopen: every exact re-filter (matching chunks,
    /// partially covered chunks, the tail) needs the extractor, and a
    /// query that silently skipped those would return wrong answers.
    fn index_meta(&self, source: SourceId, index: IndexId) -> Result<IndexMeta> {
        let registry = self.inner.registry.read();
        let entry = registry.index(index)?;
        if entry.source != source {
            return Err(LoomError::IndexSourceMismatch {
                index: index.0,
                expected_source: entry.source.0,
                got_source: source.0,
            });
        }
        if entry.extractor_lost {
            return Err(LoomError::ExtractorLost { index: index.0 });
        }
        let source_shared = Arc::clone(&registry.source(source)?.shared);
        Ok(IndexMeta {
            id: index,
            source,
            source_shared,
            extractor: Arc::clone(&entry.extractor),
            spec: Arc::clone(&entry.spec),
            desc: entry.desc,
        })
    }
}

/// Resolved index metadata captured at query start.
pub(crate) struct IndexMeta {
    pub(crate) id: IndexId,
    pub(crate) source: SourceId,
    pub(crate) source_shared: Arc<SourceShared>,
    pub(crate) extractor: crate::registry::ValueFn,
    pub(crate) spec: Arc<crate::histogram::HistogramSpec>,
    /// The declarative extractor, when the index was defined through one
    /// — chunk decode then runs a loop monomorphized for the field type
    /// instead of calling `extractor` per row (`desc.to_fn()` and
    /// `extractor` are the same function by construction).
    pub(crate) desc: Option<crate::extract::ExtractorDesc>,
}
