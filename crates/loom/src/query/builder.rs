//! The fluent query builder: one entry point for every operator.
//!
//! [`Loom::query`] replaces the old `indexed_scan`/`indexed_scan_opt`,
//! `indexed_aggregate`/`indexed_aggregate_opt`, and
//! `bin_counts`/`bin_counts_opt` pairs with a single builder:
//!
//! ```no_run
//! # use loom::{Aggregate, Config, Loom, TimeRange, ValueRange};
//! # let (loom, _w) = Loom::open(Config::small("/tmp/doc")).unwrap();
//! # let source = loom.define_source("s");
//! # let index = loom.define_index(source, loom::extract::u64_le_at(0),
//! #     loom::HistogramSpec::uniform(0.0, 100.0, 4).unwrap()).unwrap();
//! let p99 = loom
//!     .query(source)
//!     .index(index)
//!     .range(TimeRange::new(0, loom.now()))
//!     .aggregate(Aggregate::Percentile(99.0))
//!     .unwrap();
//! ```
//!
//! Chainers configure the query; the terminal methods [`Query::scan`],
//! [`Query::aggregate`], and [`Query::bin_counts`] execute it. Terminals
//! are also the self-observability boundary: each one times the whole
//! query, records it in the engine's metrics registry, and captures a
//! slow-query trace when it crosses
//! [`Config::slow_query_nanos`](crate::Config::slow_query_nanos).

use super::view::QueryView;
use super::{
    aggregate, indexed_scan, raw_scan, Aggregate, AggregateResult, QueryOptions, Record, TimeRange,
    ValueRange,
};
use crate::engine::Loom;
use crate::error::{LoomError, Result};
use crate::obs::{QueryKind, QueryObservation, QueryPhases, Stopwatch};
use crate::registry::{IndexId, SourceId};
use crate::stats::QueryStats;

/// A configured-but-not-yet-executed query over one source.
///
/// Built by [`Loom::query`]; executed by one of the terminal methods.
#[must_use = "a Query does nothing until a terminal method (scan / aggregate / bin_counts) runs it"]
pub struct Query<'a> {
    loom: &'a Loom,
    source: SourceId,
    index: Option<IndexId>,
    range: TimeRange,
    values: Option<ValueRange>,
    opts: QueryOptions,
}

impl Loom {
    /// Starts building a query over `source`.
    ///
    /// With no further configuration the query covers all time, all
    /// values, and (without an [`index`](Query::index)) scans raw
    /// records. See [`Query`] for the chainers and terminals.
    pub fn query(&self, source: SourceId) -> Query<'_> {
        Query {
            loom: self,
            source,
            index: None,
            range: TimeRange::new(0, u64::MAX),
            values: None,
            opts: QueryOptions::default(),
        }
    }
}

impl<'a> Query<'a> {
    /// Uses `index` for value filtering, chunk skipping, and aggregation.
    ///
    /// Required by [`aggregate`](Self::aggregate),
    /// [`bin_counts`](Self::bin_counts), and
    /// [`value_range`](Self::value_range); optional for
    /// [`scan`](Self::scan) (which walks the raw record chain without
    /// one).
    pub fn index(mut self, index: IndexId) -> Self {
        self.index = Some(index);
        self
    }

    /// Restricts the query to arrival times in `range` (default: all
    /// time).
    pub fn range(mut self, range: TimeRange) -> Self {
        self.range = range;
        self
    }

    /// Restricts [`scan`](Self::scan) to records whose indexed value lies
    /// in `values`. Requires [`index`](Self::index).
    pub fn value_range(mut self, values: ValueRange) -> Self {
        self.values = Some(values);
        self
    }

    /// Sets the execution options (index ablation switches and
    /// parallelism) wholesale.
    pub fn options(mut self, opts: QueryOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Sets only the worker-pool size; `0` restores the config default.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.opts = self.opts.with_parallelism(workers);
        self
    }

    /// Executes the query, delivering matching records to `f`.
    ///
    /// With an [`index`](Self::index) this is the indexed range scan of
    /// Figure 9 (records in log order, chunks pruned via summaries);
    /// without one it is `raw_scan` (newest to oldest along the source's
    /// record chain), and setting a [`value_range`](Self::value_range) is
    /// an [`InvalidQuery`](LoomError::InvalidQuery) error.
    ///
    /// # Errors
    ///
    /// [`LoomError::InvalidQuery`] for a value range without an index,
    /// [`LoomError::UnknownIndex`] / [`LoomError::UnknownSource`] when
    /// the named index or source does not exist,
    /// [`LoomError::ExtractorLost`] for a closure-defined index after a
    /// reopen (define it with
    /// [`define_index_desc`](Loom::define_index_desc) instead), and
    /// [`LoomError::CorruptLog`] if a chunk fails validation mid-scan.
    pub fn scan<F>(self, mut f: F) -> Result<QueryStats>
    where
        F: FnMut(Record<'_>),
    {
        let timer = Stopwatch::start();
        let mut phases = QueryPhases::default();
        match self.index {
            Some(index) => {
                let values = self.values.unwrap_or_else(ValueRange::all);
                let meta = self.loom.index_meta(self.source, index)?;
                let shard = self.loom.shard(self.source.0);
                // Blocks the compactor from punching hot chunk bytes for
                // the query's lifetime: the captured cold snapshot plus
                // unpunched hot bytes together cover every chunk.
                let _tier = shard.tier_lock.read();
                let view = QueryView::capture_from(shard, &meta.source_shared)?;
                let mut stats = indexed_scan::run(
                    &view,
                    &meta,
                    self.range,
                    values,
                    self.opts,
                    &mut phases,
                    &mut f,
                )?;
                stats.shards_fanned_out = 1;
                self.observe(QueryKind::IndexedScan, Some(index), &stats, phases, &timer);
                Ok(stats)
            }
            None => {
                if self.values.is_some() {
                    return Err(LoomError::InvalidQuery(
                        "value_range requires an index; add .index(...) to the query".into(),
                    ));
                }
                let shard = self.loom.shard(self.source.0);
                let _tier = shard.tier_lock.read();
                let view = QueryView::capture(shard, self.source)?;
                let mut stats = raw_scan::run(&view, self.source, self.range, f)?;
                stats.shards_fanned_out = 1;
                self.observe(QueryKind::RawScan, None, &stats, phases, &timer);
                Ok(stats)
            }
        }
    }

    /// Executes the query as an aggregate over the indexed values
    /// (Figure 9: `indexed_aggregate`). Requires [`index`](Self::index);
    /// a [`value_range`](Self::value_range) is not supported here and
    /// errors.
    ///
    /// # Errors
    ///
    /// [`LoomError::InvalidQuery`] without an index or with a value
    /// range, [`LoomError::UnknownIndex`] /
    /// [`LoomError::UnknownSource`] for unknown names,
    /// [`LoomError::ExtractorLost`] for a closure-defined index after a
    /// reopen (define it with
    /// [`define_index_desc`](Loom::define_index_desc) instead), and
    /// [`LoomError::CorruptLog`] on a chunk that fails validation.
    pub fn aggregate(self, method: Aggregate) -> Result<AggregateResult> {
        let timer = Stopwatch::start();
        let mut phases = QueryPhases::default();
        let index = self.require_index("aggregate")?;
        self.reject_value_range("aggregate")?;
        let meta = self.loom.index_meta(self.source, index)?;
        let shard = self.loom.shard(self.source.0);
        let _tier = shard.tier_lock.read();
        let view = QueryView::capture_from(shard, &meta.source_shared)?;
        let mut result = aggregate::run(&view, &meta, self.range, method, self.opts, &mut phases)?;
        result.stats.shards_fanned_out = 1;
        self.observe(
            QueryKind::Aggregate,
            Some(index),
            &result.stats,
            phases,
            &timer,
        );
        Ok(result)
    }

    /// Executes the query as a per-bin record count — the
    /// histogram-as-CDF of §4.3, the composition primitive behind
    /// distributed holistic aggregates (see
    /// [`coordinator`](crate::coordinator)). Requires
    /// [`index`](Self::index); a [`value_range`](Self::value_range) is
    /// not supported here and errors.
    ///
    /// # Errors
    ///
    /// [`LoomError::InvalidQuery`] without an index or with a value
    /// range, [`LoomError::UnknownIndex`] /
    /// [`LoomError::UnknownSource`] for unknown names,
    /// [`LoomError::ExtractorLost`] for a closure-defined index after a
    /// reopen (define it with
    /// [`define_index_desc`](Loom::define_index_desc) instead), and
    /// [`LoomError::CorruptLog`] on a chunk that fails validation.
    pub fn bin_counts(self) -> Result<(Vec<u64>, QueryStats)> {
        let timer = Stopwatch::start();
        let mut phases = QueryPhases::default();
        let index = self.require_index("bin_counts")?;
        self.reject_value_range("bin_counts")?;
        let meta = self.loom.index_meta(self.source, index)?;
        let shard = self.loom.shard(self.source.0);
        let _tier = shard.tier_lock.read();
        let view = QueryView::capture_from(shard, &meta.source_shared)?;
        let (counts, mut stats) =
            aggregate::bin_counts(&view, &meta, self.range, self.opts, &mut phases)?;
        stats.shards_fanned_out = 1;
        self.observe(QueryKind::BinCounts, Some(index), &stats, phases, &timer);
        Ok((counts, stats))
    }

    fn require_index(&self, terminal: &str) -> Result<IndexId> {
        self.index.ok_or_else(|| {
            LoomError::InvalidQuery(format!(
                "{terminal} requires an index; add .index(...) to the query"
            ))
        })
    }

    fn reject_value_range(&self, terminal: &str) -> Result<()> {
        if self.values.is_some() {
            return Err(LoomError::InvalidQuery(format!(
                "value_range is not supported for {terminal}"
            )));
        }
        Ok(())
    }

    fn observe(
        &self,
        kind: QueryKind,
        index: Option<IndexId>,
        stats: &QueryStats,
        phases: QueryPhases,
        timer: &Stopwatch,
    ) {
        // Observed into the home shard's registry: a single-source query
        // runs entirely on one shard, so its metrics land there (the
        // slow-query ring behind it is engine-global).
        self.loom
            .shard(self.source.0)
            .obs
            .observe_query(QueryObservation {
                kind,
                source: self.source.0,
                index: index.map(|i| i.0),
                used_ts_index: self.opts.use_ts_index && index.is_some(),
                used_chunk_index: self.opts.use_chunk_index && index.is_some(),
                stats: *stats,
                phases,
                total_nanos: timer.elapsed_nanos(),
            });
    }
}
