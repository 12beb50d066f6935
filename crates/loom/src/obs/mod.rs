//! Engine self-observability: lock-free metrics and slow-query tracing.
//!
//! Loom's thesis is capturing telemetry with minimal probe effect (§3,
//! §7); this module applies the same standard to the engine itself. A
//! per-instance registry of sharded atomic counters, gauges, and
//! fixed-bucket latency histograms is instrumented at every layer:
//!
//! * **hybridlog** — block seals, ingest backpressure waits, flush
//!   queue depth, flush count/latency/bytes, seqlock snapshot retries;
//! * **coordinator / write path** — chunk seals, summary build time and
//!   encoded bytes;
//! * **indexes** — timestamp-index seeks, chunk-summary probes, hits,
//!   and false-positive chunk reads;
//! * **query ops** — query count and latency, per-phase timings,
//!   planner decisions, worker-pool utilization.
//!
//! Read everything at once with
//! [`Loom::metrics_snapshot`](crate::Loom::metrics_snapshot); queries
//! slower than
//! [`Config::slow_query_nanos`](crate::Config::slow_query_nanos) also
//! leave a structured [`SlowQueryTrace`] in a bounded ring buffer read
//! via [`Loom::recent_slow_queries`](crate::Loom::recent_slow_queries).
//!
//! # Overhead
//!
//! Hot-path updates are one relaxed `fetch_add` on a cache-line-padded
//! shard; timing uses one `Instant::now` pair per *phase*, not per
//! record. Building without the `self-obs` cargo feature (on by
//! default) compiles every mutating method to an empty body and removes
//! the clock reads, so instrumented call sites cost nothing; the types
//! and snapshot API remain available and report zeros.

mod counters;
mod latency;
mod slow_query;
mod snapshot;

pub use counters::{Counter, Gauge};
pub use latency::{HistogramCounts, LatencyHistogram};
pub use slow_query::{QueryKind, SlowQueryLog, SlowQueryTrace};
pub use snapshot::{
    CoordinatorMetrics, HybridLogMetrics, IndexMetrics, MetricsSnapshot, NetMetrics, QueryMetrics,
    ShardRollup,
};

use std::sync::Arc;

/// A phase timer that compiles to nothing without `self-obs`: no
/// `Instant::now` syscall is issued and `elapsed_nanos` returns zero.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stopwatch {
    #[cfg(feature = "self-obs")]
    start: std::time::Instant,
}

impl Stopwatch {
    /// Starts timing (a no-op without `self-obs`).
    #[inline]
    pub(crate) fn start() -> Self {
        Stopwatch {
            #[cfg(feature = "self-obs")]
            start: std::time::Instant::now(),
        }
    }

    /// Nanoseconds since `start` (zero without `self-obs`).
    #[inline]
    pub(crate) fn elapsed_nanos(&self) -> u64 {
        #[cfg(feature = "self-obs")]
        {
            self.start.elapsed().as_nanos() as u64
        }
        #[cfg(not(feature = "self-obs"))]
        {
            0
        }
    }
}

/// Per-phase wall-clock breakdown of one query, in nanoseconds.
///
/// Operators fill this as they run; it lands in [`SlowQueryTrace`] when
/// the query crosses the slow threshold. Phases that an operator skips
/// (e.g., no tail region) stay zero.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueryPhases {
    /// Planning: timestamp-index seek and range resolution.
    pub plan_nanos: u64,
    /// Summary selection: walking chunk summaries to pick candidates.
    pub select_nanos: u64,
    /// Scanning selected chunks (serial or across the worker pool).
    pub chunk_scan_nanos: u64,
    /// Scanning the unsummarized tail region.
    pub tail_scan_nanos: u64,
}

/// Hybrid-log metrics, shared (via `Arc`) by the record, chunk, and
/// timestamp logs and their flusher threads.
#[derive(Debug, Default)]
pub struct LogObs {
    block_seals: Counter,
    backpressure_waits: Counter,
    flushes_enqueued: Counter,
    flushes: Counter,
    flush_nanos: Counter,
    flushed_bytes: Counter,
    flush_queue: Gauge,
    seqlock_retries: Counter,
    io_retries: Counter,
    io_giveups: Counter,
    degraded_transitions: Counter,
    flush_latency: LatencyHistogram,
}

impl LogObs {
    /// An active block filled up and was swapped for its sibling.
    #[inline]
    pub(crate) fn block_sealed(&self) {
        self.block_seals.inc();
    }

    /// An ingest thread spun waiting for the flusher to free a block.
    #[inline]
    pub(crate) fn backpressure_wait(&self) {
        self.backpressure_waits.inc();
    }

    /// A flush request (seal or partial sync) entered the flush queue.
    #[inline]
    pub(crate) fn flush_enqueued(&self) {
        self.flushes_enqueued.inc();
        self.flush_queue.inc();
    }

    /// The flusher finished writing `bytes` in `nanos`.
    #[inline]
    pub(crate) fn flush_done(&self, nanos: u64, bytes: u64) {
        self.flushes.inc();
        self.flush_nanos.add(nanos);
        self.flushed_bytes.add(bytes);
        self.flush_latency.record(nanos);
        self.flush_queue.dec();
    }

    /// A snapshot read observed a torn generation and retried.
    #[inline]
    pub(crate) fn seqlock_retry(&self) {
        self.seqlock_retries.inc();
    }

    /// A flusher I/O operation failed transiently and will be retried.
    #[inline]
    pub(crate) fn io_retry(&self) {
        self.io_retries.inc();
    }

    /// A flusher exhausted its retry budget and gave up permanently.
    #[inline]
    pub(crate) fn io_giveup(&self) {
        self.io_giveups.inc();
    }

    /// The engine health state left `Healthy` (either into `Degraded`
    /// or straight into `ReadOnly`).
    #[inline]
    pub(crate) fn degraded_transition(&self) {
        self.degraded_transitions.inc();
    }

    fn snapshot(&self) -> HybridLogMetrics {
        // Read effect-side counters before their causes so the snapshot
        // preserves the invariants a monitoring consumer will check:
        // every flush the histogram or `flushes` accounts for was
        // enqueued first (the writer increments `flushes_enqueued`
        // before handing the request to the flusher), so reading
        // completion counters first guarantees
        // `flush_latency.total() <= flushes <= flushes_enqueued`.
        let flush_latency = self.flush_latency.counts();
        let flushes = self.flushes.get();
        let flushes_enqueued = self.flushes_enqueued.get();
        HybridLogMetrics {
            block_seals: self.block_seals.get(),
            backpressure_waits: self.backpressure_waits.get(),
            flushes_enqueued,
            flushes,
            flush_nanos: self.flush_nanos.get(),
            flushed_bytes: self.flushed_bytes.get(),
            flush_queue_depth: self.flush_queue.get(),
            seqlock_retries: self.seqlock_retries.get(),
            io_retries: self.io_retries.get(),
            io_giveups: self.io_giveups.get(),
            degraded_transitions: self.degraded_transitions.get(),
            flush_latency,
        }
    }
}

/// Coordinator / write-path metrics (chunk sealing and recovery).
#[derive(Debug, Default)]
pub struct EngineObs {
    chunks_sealed: Counter,
    summary_build_nanos: Counter,
    summary_bytes: Counter,
    clean_reopens: Counter,
    dirty_recoveries: Counter,
    recovery_nanos: Counter,
    recovery_truncated_bytes: Counter,
    ingest_drops: Counter,
    tier_compactions: Counter,
    tier_chunks_aged: Counter,
    tier_aged_raw_bytes: Counter,
    tier_aged_comp_bytes: Counter,
    tier_slices_pruned: Counter,
    tier_cold_chunk_reads: Counter,
    tier_cold_byte_decodes: Counter,
}

impl EngineObs {
    /// A chunk was sealed: its summary took `nanos` to build and encode
    /// into `bytes` bytes.
    #[inline]
    pub(crate) fn chunk_sealed(&self, nanos: u64, bytes: u64) {
        self.chunks_sealed.inc();
        self.summary_build_nanos.add(nanos);
        self.summary_bytes.add(bytes);
    }

    /// A data directory was reopened: via the clean-shutdown fast path,
    /// or through a dirty scan that took `nanos` and discarded
    /// `truncated_bytes` of torn log tails.
    #[inline]
    pub(crate) fn reopened(&self, clean: bool, nanos: u64, truncated_bytes: u64) {
        if clean {
            self.clean_reopens.inc();
        } else {
            self.dirty_recoveries.inc();
            self.recovery_nanos.add(nanos);
            self.recovery_truncated_bytes.add(truncated_bytes);
        }
    }

    /// A record was dropped by the `DropNewest` overload policy.
    #[inline]
    pub(crate) fn ingest_drop(&self) {
        self.ingest_drops.inc();
    }

    /// A compaction batch committed: `chunks` chunks totalling `raw`
    /// uncompressed bytes landed in a cold segment as `comp` bytes.
    #[inline]
    pub(crate) fn compaction(&self, chunks: u64, raw: u64, comp: u64) {
        self.tier_compactions.inc();
        self.tier_chunks_aged.add(chunks);
        self.tier_aged_raw_bytes.add(raw);
        self.tier_aged_comp_bytes.add(comp);
    }

    /// A whole cold slice was dropped by retention.
    #[inline]
    pub(crate) fn slice_pruned(&self) {
        self.tier_slices_pruned.inc();
    }

    /// A query read (and decompressed) one chunk from the cold tier.
    #[inline]
    pub(crate) fn cold_chunk_read(&self) {
        self.tier_cold_chunk_reads.inc();
    }

    /// `n` cold chunks were inflated back into record bytes (raw scans,
    /// a dirty reopen's scan, summary rebuilds; indexed queries decode
    /// cold frames into columns).
    #[inline]
    pub(crate) fn cold_byte_decodes(&self, n: u64) {
        self.tier_cold_byte_decodes.add(n);
    }

    fn snapshot(&self) -> CoordinatorMetrics {
        CoordinatorMetrics {
            chunks_sealed: self.chunks_sealed.get(),
            summary_build_nanos: self.summary_build_nanos.get(),
            summary_bytes: self.summary_bytes.get(),
            clean_reopens: self.clean_reopens.get(),
            dirty_recoveries: self.dirty_recoveries.get(),
            recovery_nanos: self.recovery_nanos.get(),
            recovery_truncated_bytes: self.recovery_truncated_bytes.get(),
            ingest_drops: self.ingest_drops.get(),
            tier_compactions: self.tier_compactions.get(),
            tier_chunks_aged: self.tier_chunks_aged.get(),
            tier_aged_raw_bytes: self.tier_aged_raw_bytes.get(),
            tier_aged_comp_bytes: self.tier_aged_comp_bytes.get(),
            tier_slices_pruned: self.tier_slices_pruned.get(),
            tier_cold_chunk_reads: self.tier_cold_chunk_reads.get(),
            tier_cold_byte_decodes: self.tier_cold_byte_decodes.get(),
        }
    }
}

/// Index-layer metrics (timestamp index + chunk summaries).
#[derive(Debug, Default)]
pub struct IndexObs {
    ts_seeks: Counter,
    summary_probes: Counter,
    chunk_hits: Counter,
    false_positive_chunks: Counter,
    summary_mirror_bytes: Gauge,
}

impl IndexObs {
    /// A query used the timestamp index to seek.
    #[inline]
    pub(crate) fn ts_seek(&self) {
        self.ts_seeks.inc();
    }

    /// `n` chunk summaries were examined.
    #[inline]
    pub(crate) fn summary_probes(&self, n: u64) {
        self.summary_probes.add(n);
    }

    /// `n` summaries matched the predicate (their chunks must be read).
    #[inline]
    pub(crate) fn chunk_hits(&self, n: u64) {
        self.chunk_hits.add(n);
    }

    /// A chunk whose summary matched yielded zero matching records.
    #[inline]
    pub(crate) fn false_positive_chunk(&self) {
        self.false_positive_chunks.inc();
    }

    /// The shard's summary mirror now holds `bytes` bytes.
    #[inline]
    pub(crate) fn summary_mirror_bytes(&self, bytes: u64) {
        self.summary_mirror_bytes.set(bytes);
    }

    fn snapshot(&self) -> IndexMetrics {
        IndexMetrics {
            ts_seeks: self.ts_seeks.get(),
            summary_probes: self.summary_probes.get(),
            chunk_hits: self.chunk_hits.get(),
            false_positive_chunks: self.false_positive_chunks.get(),
            summary_mirror_bytes: self.summary_mirror_bytes.get(),
        }
    }
}

/// Query-layer metrics.
#[derive(Debug)]
pub struct QueryObs {
    queries: Counter,
    query_nanos: Counter,
    parallel_queries: Counter,
    pool_tasks: Counter,
    slow_queries: Counter,
    columnar_batches: Counter,
    columnar_rows: Counter,
    raw_scan_reads: Counter,
    query_latency: LatencyHistogram,
    batch_rows: LatencyHistogram,
    batch_selectivity: LatencyHistogram,
}

impl Default for QueryObs {
    fn default() -> Self {
        QueryObs {
            queries: Counter::default(),
            query_nanos: Counter::default(),
            parallel_queries: Counter::default(),
            pool_tasks: Counter::default(),
            slow_queries: Counter::default(),
            columnar_batches: Counter::default(),
            columnar_rows: Counter::default(),
            raw_scan_reads: Counter::default(),
            query_latency: LatencyHistogram::default_nanos(),
            // Rows per decoded batch: 1 .. 4^10 ≈ 1M, exponential.
            batch_rows: LatencyHistogram::new(
                crate::histogram::HistogramSpec::exponential(1.0, 4.0, 10)
                    .expect("static spec is valid"),
            ),
            // Selection percentage per batch: 0..100 in 10% steps.
            batch_selectivity: LatencyHistogram::new(
                crate::histogram::HistogramSpec::uniform(0.0, 100.0, 10)
                    .expect("static spec is valid"),
            ),
        }
    }
}

impl QueryObs {
    /// `n` tasks were submitted to a query worker pool.
    #[inline]
    pub(crate) fn pool_tasks(&self, n: u64) {
        self.pool_tasks.add(n);
    }

    /// A chunk piece was decoded into a column batch of `rows` rows of
    /// which `selected` passed the selection kernel.
    #[inline]
    pub(crate) fn columnar_batch(&self, rows: u64, selected: u64) {
        #[cfg(feature = "self-obs")]
        {
            self.columnar_batches.inc();
            self.columnar_rows.add(rows);
            self.batch_rows.record(rows);
            if let Some(pct) = (selected * 100).checked_div(rows) {
                self.batch_selectivity.record(pct);
            }
        }
        #[cfg(not(feature = "self-obs"))]
        let _ = (rows, selected);
    }

    /// A raw scan read one window of hot record bytes or inflated one
    /// cold chunk.
    #[inline]
    pub(crate) fn raw_scan_read(&self) {
        self.raw_scan_reads.inc();
    }

    fn snapshot(&self) -> QueryMetrics {
        // `observe_query` bumps `queries` before recording the latency
        // sample; reading the histogram first therefore guarantees
        // `query_latency.total() <= queries` in any snapshot. Same for
        // the per-batch histograms vs. `columnar_batches` (the counter
        // is bumped first in `columnar_batch`, so histogram totals never
        // exceed it).
        let query_latency = self.query_latency.counts();
        let batch_rows = self.batch_rows.counts();
        let batch_selectivity = self.batch_selectivity.counts();
        QueryMetrics {
            queries: self.queries.get(),
            query_nanos: self.query_nanos.get(),
            parallel_queries: self.parallel_queries.get(),
            pool_tasks: self.pool_tasks.get(),
            slow_queries: self.slow_queries.get(),
            columnar_batches: self.columnar_batches.get(),
            columnar_rows: self.columnar_rows.get(),
            raw_scan_reads: self.raw_scan_reads.get(),
            query_latency,
            batch_rows,
            batch_selectivity,
        }
    }
}

/// Network-service metrics, engine-wide (not per shard: connections
/// belong to the instance, not to any one shard's logs).
///
/// Owned by the engine and handed to the network front-end via
/// [`Loom::net_obs`](crate::Loom::net_obs); the server increments, and
/// [`Loom::metrics_snapshot`](crate::Loom::metrics_snapshot) folds the
/// values into [`MetricsSnapshot::net`] under `loom_net_*` names. The
/// mutators are public because the server loop lives in the daemon
/// crate.
#[derive(Debug, Default)]
pub struct NetObs {
    connections: Counter,
    connections_active: Gauge,
    frames_read: Counter,
    frames_written: Counter,
    batches: Counter,
    records: Counter,
    acks: Counter,
    nacks: Counter,
    replays: Counter,
    subscriptions: Counter,
    subscriptions_active: Gauge,
    sub_deliveries: Counter,
    sub_records: Counter,
    slow_consumer_drops: Counter,
    sub_queue_depth: Gauge,
    disconnects: Counter,
}

impl NetObs {
    /// A connection completed its handshake.
    #[inline]
    pub fn connection_opened(&self) {
        self.connections.inc();
        self.connections_active.inc();
    }

    /// A handshaken connection closed (any reason).
    #[inline]
    pub fn connection_closed(&self) {
        self.connections_active.dec();
    }

    /// One frame was decoded off a socket.
    #[inline]
    pub fn frame_read(&self) {
        self.frames_read.inc();
    }

    /// One frame was encoded onto a socket.
    #[inline]
    pub fn frame_written(&self) {
        self.frames_written.inc();
    }

    /// A batch of `records` records was ingested (not a replay).
    #[inline]
    pub fn batch_ingested(&self, records: u64) {
        self.batches.inc();
        self.records.add(records);
    }

    /// An ack frame was sent.
    #[inline]
    pub fn ack_sent(&self) {
        self.acks.inc();
    }

    /// A nack frame was sent.
    #[inline]
    pub fn nack_sent(&self) {
        self.nacks.inc();
    }

    /// A replayed batch was deduplicated (acked without re-ingesting).
    #[inline]
    pub fn replay_deduped(&self) {
        self.replays.inc();
    }

    /// A subscription was registered.
    #[inline]
    pub fn subscription_opened(&self) {
        self.subscriptions.inc();
        self.subscriptions_active.inc();
    }

    /// A subscription ended.
    #[inline]
    pub fn subscription_closed(&self) {
        self.subscriptions_active.dec();
    }

    /// One `SubData` delivery of `records` records was enqueued.
    #[inline]
    pub fn delivery(&self, records: u64) {
        self.sub_deliveries.inc();
        self.sub_records.add(records);
    }

    /// `records` records were shed by a slow-consumer policy.
    #[inline]
    pub fn slow_consumer_drop(&self, records: u64) {
        self.slow_consumer_drops.add(records);
    }

    /// A frame entered a subscriber's delivery queue.
    #[inline]
    pub fn queue_push(&self) {
        self.sub_queue_depth.inc();
    }

    /// A frame left a subscriber's delivery queue.
    #[inline]
    pub fn queue_pop(&self) {
        self.sub_queue_depth.dec();
    }

    /// A connection died from an I/O error, bad frame, or policy kill
    /// (as opposed to an orderly close).
    #[inline]
    pub fn disconnect(&self) {
        self.disconnects.inc();
    }

    pub(crate) fn snapshot(&self) -> NetMetrics {
        NetMetrics {
            connections: self.connections.get(),
            connections_active: self.connections_active.get(),
            frames_read: self.frames_read.get(),
            frames_written: self.frames_written.get(),
            batches: self.batches.get(),
            records: self.records.get(),
            acks: self.acks.get(),
            nacks: self.nacks.get(),
            replays: self.replays.get(),
            subscriptions: self.subscriptions.get(),
            subscriptions_active: self.subscriptions_active.get(),
            sub_deliveries: self.sub_deliveries.get(),
            sub_records: self.sub_records.get(),
            slow_consumer_drops: self.slow_consumer_drops.get(),
            sub_queue_depth: self.sub_queue_depth.get(),
            disconnects: self.disconnects.get(),
        }
    }
}

/// Everything a query terminal reports to [`Obs::observe_query`].
///
/// Fields are read only inside the `self-obs`-gated body of
/// `observe_query`, hence the dead-code allowance when the feature is
/// off.
#[cfg_attr(not(feature = "self-obs"), allow(dead_code))]
pub(crate) struct QueryObservation {
    pub(crate) kind: QueryKind,
    pub(crate) source: u32,
    pub(crate) index: Option<u32>,
    pub(crate) used_ts_index: bool,
    pub(crate) used_chunk_index: bool,
    pub(crate) stats: crate::stats::QueryStats,
    pub(crate) phases: QueryPhases,
    pub(crate) total_nanos: u64,
}

/// The per-instance metrics registry, owned by `engine::Inner`.
#[derive(Debug)]
pub struct Obs {
    /// Hybrid-log metrics; `Arc`-shared with the three logs' flushers.
    pub(crate) log: Arc<LogObs>,
    /// Write-path metrics.
    pub(crate) engine: EngineObs,
    /// Index metrics.
    pub(crate) index: IndexObs,
    /// Query metrics.
    pub(crate) query: QueryObs,
    /// Slow-query ring; `Arc`-shared across every shard of an engine so
    /// traces interleave in one global arrival order.
    slow: Arc<SlowQueryLog>,
    #[cfg_attr(not(feature = "self-obs"), allow(dead_code))]
    slow_threshold_nanos: u64,
}

impl Obs {
    /// Creates a registry; queries slower than `slow_threshold_nanos`
    /// are traced into a ring of `slow_capacity` entries.
    ///
    /// The engine always shares one slow-query ring across shards via
    /// [`Obs::with_slow_log`]; this stand-alone constructor remains for
    /// unit tests of the observability layer itself.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn new(slow_threshold_nanos: u64, slow_capacity: usize) -> Self {
        Self::with_slow_log(
            slow_threshold_nanos,
            Arc::new(SlowQueryLog::new(slow_capacity)),
        )
    }

    /// [`Obs::new`] with an externally owned slow-query ring, so the
    /// per-shard registries of a sharded engine share one trace log.
    pub(crate) fn with_slow_log(slow_threshold_nanos: u64, slow: Arc<SlowQueryLog>) -> Self {
        Obs {
            log: Arc::new(LogObs::default()),
            engine: EngineObs::default(),
            index: IndexObs::default(),
            query: QueryObs::default(),
            slow,
            slow_threshold_nanos: slow_threshold_nanos.max(1),
        }
    }

    /// Records a completed query: bumps the query-layer counters and, if
    /// it crossed the slow threshold, captures a structured trace.
    pub(crate) fn observe_query(&self, o: QueryObservation) {
        #[cfg(feature = "self-obs")]
        {
            self.query.queries.inc();
            self.query.query_nanos.add(o.total_nanos);
            self.query.query_latency.record(o.total_nanos);
            if o.stats.workers_used > 1 {
                self.query.parallel_queries.inc();
            }
            if o.total_nanos >= self.slow_threshold_nanos {
                self.query.slow_queries.inc();
                self.slow.record(SlowQueryTrace {
                    seq: 0,
                    kind: o.kind,
                    source: o.source,
                    index: o.index,
                    total_nanos: o.total_nanos,
                    phases: o.phases,
                    used_ts_index: o.used_ts_index,
                    used_chunk_index: o.used_chunk_index,
                    workers_used: o.stats.workers_used,
                    summaries_scanned: o.stats.summaries_scanned,
                    chunks_scanned: o.stats.chunks_scanned,
                    chunks_pruned: o
                        .stats
                        .summaries_scanned
                        .saturating_sub(o.stats.chunks_scanned),
                    records_scanned: o.stats.records_scanned,
                    records_matched: o.stats.records_matched,
                });
            }
        }
        #[cfg(not(feature = "self-obs"))]
        let _ = o;
    }

    /// Point-in-time copy of every metric (zeros without `self-obs`).
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            hybridlog: self.log.snapshot(),
            coordinator: self.engine.snapshot(),
            index: self.index.snapshot(),
            query: self.query.snapshot(),
            // Network counters are engine-wide, not per shard; the
            // engine's snapshot entry point fills them in.
            net: NetMetrics::default(),
            shards: Vec::new(),
        }
    }

    /// The retained slow-query traces, oldest first.
    pub(crate) fn recent_slow_queries(&self) -> Vec<SlowQueryTrace> {
        self.slow.recent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::QueryStats;

    fn observation(total_nanos: u64) -> QueryObservation {
        QueryObservation {
            kind: QueryKind::IndexedScan,
            source: 1,
            index: Some(2),
            used_ts_index: true,
            used_chunk_index: true,
            stats: QueryStats {
                summaries_scanned: 10,
                chunks_scanned: 3,
                records_scanned: 300,
                records_matched: 42,
                bytes_read: 9_000,
                columnar_batches: 2,
                columnar_rows: 200,
                workers_used: 2,
                shards_fanned_out: 1,
            },
            phases: QueryPhases::default(),
            total_nanos,
        }
    }

    #[test]
    fn observe_query_updates_counters_and_slow_ring() {
        let obs = Obs::new(1_000, 4);
        obs.observe_query(observation(100)); // fast
        obs.observe_query(observation(5_000)); // slow
        let snap = obs.snapshot();
        if cfg!(feature = "self-obs") {
            assert_eq!(snap.query.queries, 2);
            assert_eq!(snap.query.parallel_queries, 2);
            assert_eq!(snap.query.slow_queries, 1);
            let slow = obs.recent_slow_queries();
            assert_eq!(slow.len(), 1);
            assert_eq!(slow[0].total_nanos, 5_000);
            assert_eq!(slow[0].chunks_pruned, 7, "summaries - chunks read");
        } else {
            assert_eq!(snap.query.queries, 0);
            assert!(obs.recent_slow_queries().is_empty());
        }
    }

    #[test]
    fn snapshot_spans_all_layers() {
        let obs = Obs::new(u64::MAX, 4);
        obs.log.block_sealed();
        obs.log.flush_enqueued();
        obs.log.flush_done(1_000, 4096);
        obs.engine.chunk_sealed(2_000, 128);
        obs.index.ts_seek();
        obs.index.summary_probes(5);
        obs.index.chunk_hits(2);
        obs.index.false_positive_chunk();
        let snap = obs.snapshot();
        if cfg!(feature = "self-obs") {
            assert_eq!(snap.hybridlog.block_seals, 1);
            assert_eq!(snap.hybridlog.flushes, 1);
            assert_eq!(snap.hybridlog.flush_queue_depth, 0);
            assert_eq!(snap.hybridlog.flush_latency.total(), 1);
            assert_eq!(snap.coordinator.chunks_sealed, 1);
            assert_eq!(snap.index.summary_probes, 5);
            assert_eq!(snap.index.false_positive_chunks, 1);
        } else {
            // Compiled out: every value is zero. The histograms still
            // carry their (static) bucket bounds, so compare values, not
            // the whole snapshot.
            assert!(snap.named_values().iter().all(|(_, v)| *v == 0));
            assert_eq!(snap.hybridlog.flush_latency.total(), 0);
            assert_eq!(snap.query.query_latency.total(), 0);
        }
    }
}
