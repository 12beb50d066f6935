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
//! [`Query::aggregate`], and [`Query::bin_counts`] execute it, as do the
//! crate-internal node terminals the [`coordinator`](crate::coordinator)
//! calls (`partial`, `values_in_bin`). All of them run through one path:
//! resolve the index, hold the shard's tier read-lock, capture a view,
//! run the operator, observe. Terminals are also the self-observability
//! boundary: each one times the whole query, records it in the engine's
//! metrics registry, and captures a slow-query trace when it crosses
//! [`Config::slow_query_nanos`](crate::Config::slow_query_nanos).

use super::aggregate::{self, Partial};
use super::view::QueryView;
use super::{
    indexed_scan, raw_scan, Aggregate, AggregateResult, IndexMeta, QueryOptions, Record, TimeRange,
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
        let Some(index) = self.index else {
            if self.values.is_some() {
                return Err(LoomError::InvalidQuery(
                    "value_range requires an index; add .index(...) to the query".into(),
                ));
            }
            let ((), stats) = self.execute(QueryKind::RawScan, None, |view, _| {
                Ok(((), raw_scan::run(view, self.source, self.range, f)?))
            })?;
            return Ok(stats);
        };
        let values = self.values.unwrap_or_else(ValueRange::all);
        let meta = self.loom.index_meta(self.source, index)?;
        let ((), stats) = self.execute(QueryKind::IndexedScan, Some(&meta), |view, phases| {
            let stats =
                indexed_scan::run(view, &meta, self.range, values, self.opts, phases, &mut f)?;
            Ok(((), stats))
        })?;
        Ok(stats)
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
        let (result, stats) = self.indexed(QueryKind::Aggregate, |view, meta, phases| {
            let result = aggregate::run(view, meta, self.range, method, self.opts, phases)?;
            Ok((result, result.stats))
        })?;
        Ok(AggregateResult { stats, ..result })
    }

    /// Executes the query as a per-bin record count — the
    /// histogram-as-CDF of §4.3 that distributed percentiles merge across
    /// nodes (see [`coordinator`](crate::coordinator)). Requires
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
        let (partial, stats) = self.partial(true)?;
        Ok((partial.bins, stats))
    }

    /// A coordinator node's first (often only) query: the [`Partial`] of
    /// the range, with per-bin counts when `with_bins`.
    pub(crate) fn partial(self, with_bins: bool) -> Result<(Partial, QueryStats)> {
        let kind = if with_bins {
            QueryKind::BinCounts
        } else {
            QueryKind::Aggregate
        };
        self.indexed(kind, |view, meta, phases| {
            aggregate::partial(view, meta, self.range, with_bins, self.opts, phases)
        })
    }

    /// A coordinator node's percentile phase B: the values of `bin` in the
    /// range.
    pub(crate) fn values_in_bin(self, bin: usize) -> Result<(Vec<f64>, QueryStats)> {
        self.indexed(QueryKind::Aggregate, |view, meta, phases| {
            aggregate::values_in_bin(view, meta, self.range, bin, self.opts, phases)
        })
    }

    /// [`execute`](Self::execute) for the terminals that aggregate an
    /// index: they require one and take no value range.
    fn indexed<T>(
        &self,
        kind: QueryKind,
        body: impl FnOnce(&QueryView<'_>, &IndexMeta, &mut QueryPhases) -> Result<(T, QueryStats)>,
    ) -> Result<(T, QueryStats)> {
        let terminal = kind.as_str();
        let index = self.index.ok_or_else(|| {
            LoomError::InvalidQuery(format!(
                "{terminal} requires an index; add .index(...) to the query"
            ))
        })?;
        if self.values.is_some() {
            return Err(LoomError::InvalidQuery(format!(
                "value_range is not supported for {terminal}"
            )));
        }
        let meta = self.loom.index_meta(self.source, index)?;
        self.execute(kind, Some(&meta), |view, phases| body(view, &meta, phases))
    }

    /// The one way a terminal runs: hold the home shard's tier read-lock,
    /// capture a view (through `meta`'s source handle when there is an
    /// index), run `body`, then stamp the fan-out and observe the query.
    fn execute<T>(
        &self,
        kind: QueryKind,
        meta: Option<&IndexMeta>,
        body: impl FnOnce(&QueryView<'_>, &mut QueryPhases) -> Result<(T, QueryStats)>,
    ) -> Result<(T, QueryStats)> {
        let timer = Stopwatch::start();
        let mut phases = QueryPhases::default();
        let shard = self.loom.shard(self.source.0);
        // Blocks the compactor from punching hot chunk bytes for the
        // query's lifetime: the captured cold snapshot plus unpunched hot
        // bytes together cover every chunk.
        let _tier = shard.tier_lock.read();
        let view = match meta {
            Some(meta) => QueryView::capture_from(shard, &meta.source_shared)?,
            None => QueryView::capture(shard, self.source)?,
        };
        let (out, mut stats) = body(&view, &mut phases)?;
        stats.shards_fanned_out = 1;
        // Observed into the home shard's registry: a single-source query
        // runs entirely on one shard, so its metrics land there (the
        // slow-query ring behind it is engine-global).
        let index = meta.map(|m| m.id.0);
        shard.obs.observe_query(QueryObservation {
            kind,
            source: self.source.0,
            index,
            used_ts_index: self.opts.use_ts_index && index.is_some(),
            used_chunk_index: self.opts.use_chunk_index && index.is_some(),
            stats,
            phases,
            total_nanos: timer.elapsed_nanos(),
        });
        Ok((out, stats))
    }
}
