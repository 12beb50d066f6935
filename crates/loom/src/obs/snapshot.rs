//! Point-in-time copies of the metrics registry.
//!
//! [`MetricsSnapshot`] is a plain-data struct: capturing one reads every
//! counter once (relaxed loads summed across shards) and copies the
//! histogram buckets, so the caller can diff, serialize, or print it
//! without holding any engine state. Counters are monotone, so two
//! snapshots can always be subtracted to get a rate.

use super::latency::HistogramCounts;

/// Hybrid-log layer: in-memory block lifecycle and background flushing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HybridLogMetrics {
    /// Active-block seals (ping-pong swaps) across all three logs.
    pub block_seals: u64,
    /// Times an ingest thread had to spin waiting for the flusher to
    /// release the next block (backpressure).
    pub backpressure_waits: u64,
    /// Flush requests handed to the flusher thread (seals + partial syncs).
    pub flushes_enqueued: u64,
    /// Flushes completed by the flusher thread.
    pub flushes: u64,
    /// Total time spent inside completed flushes, in nanoseconds.
    pub flush_nanos: u64,
    /// Bytes written to storage by completed flushes.
    pub flushed_bytes: u64,
    /// Flush requests currently queued or in progress (gauge).
    pub flush_queue_depth: u64,
    /// Snapshot reads that observed a torn generation and retried
    /// (seqlock validation failures).
    pub seqlock_retries: u64,
    /// Transient flusher I/O errors absorbed by the retry policy
    /// ([`Config::io_retry`](crate::Config::io_retry)).
    pub io_retries: u64,
    /// Flushers that exhausted their retry budget and failed permanently
    /// (each flips the engine to read-only).
    pub io_giveups: u64,
    /// Health-state departures from `Healthy` (into `Degraded` or
    /// `ReadOnly`).
    pub degraded_transitions: u64,
    /// Latency distribution of completed flushes, in nanoseconds.
    pub flush_latency: HistogramCounts,
}

/// Coordinator / write-path layer: chunk sealing and summary building.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoordinatorMetrics {
    /// Record-log chunks sealed (each producing one chunk summary).
    pub chunks_sealed: u64,
    /// Total time spent building and encoding chunk summaries, in
    /// nanoseconds.
    pub summary_build_nanos: u64,
    /// Encoded bytes appended to the chunk-summary log.
    pub summary_bytes: u64,
    /// Data-directory reopens that took the clean-shutdown fast path.
    pub clean_reopens: u64,
    /// Data-directory reopens that required a dirty recovery scan.
    pub dirty_recoveries: u64,
    /// Total time spent in dirty recovery scans, in nanoseconds.
    pub recovery_nanos: u64,
    /// Torn-tail bytes discarded across all dirty recoveries.
    pub recovery_truncated_bytes: u64,
    /// Records dropped by the
    /// [`OverloadPolicy::DropNewest`](crate::OverloadPolicy::DropNewest)
    /// backpressure policy.
    pub ingest_drops: u64,
    /// Committed retention compaction batches (one cold segment each).
    pub tier_compactions: u64,
    /// Chunks aged from the hot record log into cold segments.
    pub tier_chunks_aged: u64,
    /// Uncompressed bytes of aged chunks.
    pub tier_aged_raw_bytes: u64,
    /// Compressed bytes those chunks occupy in cold segments.
    pub tier_aged_comp_bytes: u64,
    /// Whole cold slices dropped by retention.
    pub tier_slices_pruned: u64,
    /// Chunks read (and decompressed) from the cold tier by queries.
    pub tier_cold_chunk_reads: u64,
    /// Cold chunks inflated back into record bytes (raw scans and
    /// summary rebuilds).
    pub tier_cold_byte_decodes: u64,
}

/// Index layer: timestamp-index seeks and chunk-summary pruning.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexMetrics {
    /// Queries that used the timestamp index to seek to the time range.
    pub ts_seeks: u64,
    /// Chunk summaries examined by the planner across all queries.
    pub summary_probes: u64,
    /// Summaries whose histogram overlapped the value predicate (chunk
    /// had to be read).
    pub chunk_hits: u64,
    /// Chunks read because their summary matched, that then yielded zero
    /// matching records — the summary's false positives.
    pub false_positive_chunks: u64,
    /// Memory held by the in-memory summary mirror (every sealed,
    /// unpruned chunk summary, decoded once), in bytes (gauge).
    pub summary_mirror_bytes: u64,
}

/// Query layer: operator counts, per-query latency, and pool usage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryMetrics {
    /// Queries executed (any operator).
    pub queries: u64,
    /// Total wall-clock time across all queries, in nanoseconds.
    pub query_nanos: u64,
    /// Queries that ran any stage on a worker pool (parallelism > 1).
    pub parallel_queries: u64,
    /// Tasks submitted to query worker pools.
    pub pool_tasks: u64,
    /// Queries that exceeded the slow-query threshold.
    pub slow_queries: u64,
    /// Chunk pieces decoded through the columnar batch path.
    pub columnar_batches: u64,
    /// Rows decoded into column batches across all queries.
    pub columnar_rows: u64,
    /// Windows of hot record bytes read, plus cold chunks inflated, by
    /// raw scans' chain walks.
    pub raw_scan_reads: u64,
    /// Latency distribution of whole queries, in nanoseconds.
    pub query_latency: HistogramCounts,
    /// Distribution of rows per decoded column batch.
    pub batch_rows: HistogramCounts,
    /// Distribution of per-batch selection percentage (selected rows /
    /// decoded rows, 0–100).
    pub batch_selectivity: HistogramCounts,
}

/// Network-service layer: connections, ingest frames, acks/replays, and
/// subscription delivery (all zero unless a network front-end is
/// attached via [`Loom::net_obs`](crate::Loom::net_obs)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetMetrics {
    /// Connections that completed the hello handshake.
    pub connections: u64,
    /// Currently open handshaken connections (gauge).
    pub connections_active: u64,
    /// Frames decoded off sockets.
    pub frames_read: u64,
    /// Frames encoded onto sockets.
    pub frames_written: u64,
    /// Ingest batches accepted (replays excluded).
    pub batches: u64,
    /// Records ingested over the network.
    pub records: u64,
    /// Ack frames sent.
    pub acks: u64,
    /// Nack frames sent (typed refusals; a degraded engine nacks
    /// instead of stalling the socket).
    pub nacks: u64,
    /// Replayed batches deduplicated by `(client_id, batch_seq)` —
    /// acked again without re-ingesting.
    pub replays: u64,
    /// Subscriptions ever registered.
    pub subscriptions: u64,
    /// Currently live subscriptions (gauge).
    pub subscriptions_active: u64,
    /// `SubData` deliveries enqueued.
    pub sub_deliveries: u64,
    /// Records delivered to subscribers.
    pub sub_records: u64,
    /// Records shed by slow-consumer policies (drop-with-gap or
    /// disconnect).
    pub slow_consumer_drops: u64,
    /// Frames currently queued across all subscriber queues (gauge).
    pub sub_queue_depth: u64,
    /// Connections that died from I/O errors, bad frames, or a
    /// slow-consumer kill.
    pub disconnects: u64,
}

/// Per-shard headline counters, attached to an aggregated
/// [`MetricsSnapshot`] when the engine runs with more than one shard.
///
/// The rollup is intentionally a small selection — the full per-shard
/// snapshot is available via
/// [`Loom::shard_metrics`](crate::Loom::shard_metrics); these are the
/// values an operator scans first when one tenant misbehaves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardRollup {
    /// Shard ordinal (the value of `hash(source) % shards`).
    pub shard: u64,
    /// Flushes completed by this shard's flushers.
    pub flushes: u64,
    /// Bytes this shard's flushers wrote to storage.
    pub flushed_bytes: u64,
    /// Record-log chunks this shard sealed.
    pub chunks_sealed: u64,
    /// Queries executed against this shard.
    pub queries: u64,
    /// Health-state departures from `Healthy` on this shard.
    pub degraded_transitions: u64,
}

/// A consistent-enough point-in-time copy of every engine metric.
///
/// "Consistent enough": each value is read atomically, but the snapshot
/// as a whole is not a linearizable cut — counters incremented while the
/// snapshot is being taken may or may not appear. This is the standard
/// monitoring-counter contract; all counters are monotone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Hybrid-log layer metrics.
    pub hybridlog: HybridLogMetrics,
    /// Coordinator / write-path metrics.
    pub coordinator: CoordinatorMetrics,
    /// Index-layer metrics.
    pub index: IndexMetrics,
    /// Query-layer metrics.
    pub query: QueryMetrics,
    /// Network-service metrics (engine-wide; zeros without an attached
    /// network front-end).
    pub net: NetMetrics,
    /// Per-shard headline rollups; empty on a single-shard engine, one
    /// entry per shard otherwise. The layer metrics above are always the
    /// across-shards aggregate, so every pre-existing metric name keeps
    /// its meaning.
    pub shards: Vec<ShardRollup>,
}

impl MetricsSnapshot {
    /// Folds another snapshot into this one: scalar counters are summed
    /// and histogram buckets merged element-wise. This is how a sharded
    /// engine presents one aggregate registry — the per-shard snapshots
    /// are merged, so existing metric names report whole-engine totals.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let h = &mut self.hybridlog;
        let oh = &other.hybridlog;
        h.block_seals += oh.block_seals;
        h.backpressure_waits += oh.backpressure_waits;
        h.flushes_enqueued += oh.flushes_enqueued;
        h.flushes += oh.flushes;
        h.flush_nanos += oh.flush_nanos;
        h.flushed_bytes += oh.flushed_bytes;
        h.flush_queue_depth += oh.flush_queue_depth;
        h.seqlock_retries += oh.seqlock_retries;
        h.io_retries += oh.io_retries;
        h.io_giveups += oh.io_giveups;
        h.degraded_transitions += oh.degraded_transitions;
        merge_histogram(&mut h.flush_latency, &oh.flush_latency);

        let c = &mut self.coordinator;
        let oc = &other.coordinator;
        c.chunks_sealed += oc.chunks_sealed;
        c.summary_build_nanos += oc.summary_build_nanos;
        c.summary_bytes += oc.summary_bytes;
        c.clean_reopens += oc.clean_reopens;
        c.dirty_recoveries += oc.dirty_recoveries;
        c.recovery_nanos += oc.recovery_nanos;
        c.recovery_truncated_bytes += oc.recovery_truncated_bytes;
        c.ingest_drops += oc.ingest_drops;
        c.tier_compactions += oc.tier_compactions;
        c.tier_chunks_aged += oc.tier_chunks_aged;
        c.tier_aged_raw_bytes += oc.tier_aged_raw_bytes;
        c.tier_aged_comp_bytes += oc.tier_aged_comp_bytes;
        c.tier_slices_pruned += oc.tier_slices_pruned;
        c.tier_cold_chunk_reads += oc.tier_cold_chunk_reads;
        c.tier_cold_byte_decodes += oc.tier_cold_byte_decodes;

        let i = &mut self.index;
        let oi = &other.index;
        i.ts_seeks += oi.ts_seeks;
        i.summary_probes += oi.summary_probes;
        i.chunk_hits += oi.chunk_hits;
        i.false_positive_chunks += oi.false_positive_chunks;
        i.summary_mirror_bytes += oi.summary_mirror_bytes;

        let q = &mut self.query;
        let oq = &other.query;
        q.queries += oq.queries;
        q.query_nanos += oq.query_nanos;
        q.parallel_queries += oq.parallel_queries;
        q.pool_tasks += oq.pool_tasks;
        q.slow_queries += oq.slow_queries;
        q.columnar_batches += oq.columnar_batches;
        q.columnar_rows += oq.columnar_rows;
        q.raw_scan_reads += oq.raw_scan_reads;
        merge_histogram(&mut q.query_latency, &oq.query_latency);
        merge_histogram(&mut q.batch_rows, &oq.batch_rows);
        merge_histogram(&mut q.batch_selectivity, &oq.batch_selectivity);

        let n = &mut self.net;
        let on = &other.net;
        n.connections += on.connections;
        n.connections_active += on.connections_active;
        n.frames_read += on.frames_read;
        n.frames_written += on.frames_written;
        n.batches += on.batches;
        n.records += on.records;
        n.acks += on.acks;
        n.nacks += on.nacks;
        n.replays += on.replays;
        n.subscriptions += on.subscriptions;
        n.subscriptions_active += on.subscriptions_active;
        n.sub_deliveries += on.sub_deliveries;
        n.sub_records += on.sub_records;
        n.slow_consumer_drops += on.slow_consumer_drops;
        n.sub_queue_depth += on.sub_queue_depth;
        n.disconnects += on.disconnects;
    }

    /// The rollup row a per-shard snapshot contributes to the aggregate.
    pub fn rollup(&self, shard: u64) -> ShardRollup {
        ShardRollup {
            shard,
            flushes: self.hybridlog.flushes,
            flushed_bytes: self.hybridlog.flushed_bytes,
            chunks_sealed: self.coordinator.chunks_sealed,
            queries: self.query.queries,
            degraded_transitions: self.hybridlog.degraded_transitions,
        }
    }
    /// Every scalar metric as a `(name, value)` pair, in a stable order.
    ///
    /// Names follow the `loom_<layer>_<metric>` convention used by the
    /// text exposition format.
    pub fn named_values(&self) -> Vec<(&'static str, u64)> {
        vec![
            (
                "loom_hybridlog_block_seals_total",
                self.hybridlog.block_seals,
            ),
            (
                "loom_hybridlog_backpressure_waits_total",
                self.hybridlog.backpressure_waits,
            ),
            (
                "loom_hybridlog_flushes_enqueued_total",
                self.hybridlog.flushes_enqueued,
            ),
            ("loom_hybridlog_flushes_total", self.hybridlog.flushes),
            (
                "loom_hybridlog_flush_nanos_total",
                self.hybridlog.flush_nanos,
            ),
            (
                "loom_hybridlog_flushed_bytes_total",
                self.hybridlog.flushed_bytes,
            ),
            (
                "loom_hybridlog_flush_queue_depth",
                self.hybridlog.flush_queue_depth,
            ),
            (
                "loom_hybridlog_seqlock_retries_total",
                self.hybridlog.seqlock_retries,
            ),
            ("loom_hybridlog_io_retries_total", self.hybridlog.io_retries),
            ("loom_hybridlog_io_giveups_total", self.hybridlog.io_giveups),
            (
                "loom_hybridlog_degraded_transitions_total",
                self.hybridlog.degraded_transitions,
            ),
            (
                "loom_coordinator_chunks_sealed_total",
                self.coordinator.chunks_sealed,
            ),
            (
                "loom_coordinator_summary_build_nanos_total",
                self.coordinator.summary_build_nanos,
            ),
            (
                "loom_coordinator_summary_bytes_total",
                self.coordinator.summary_bytes,
            ),
            (
                "loom_coordinator_clean_reopens_total",
                self.coordinator.clean_reopens,
            ),
            (
                "loom_coordinator_dirty_recoveries_total",
                self.coordinator.dirty_recoveries,
            ),
            (
                "loom_coordinator_recovery_nanos_total",
                self.coordinator.recovery_nanos,
            ),
            (
                "loom_coordinator_recovery_truncated_bytes_total",
                self.coordinator.recovery_truncated_bytes,
            ),
            (
                "loom_coordinator_ingest_drops_total",
                self.coordinator.ingest_drops,
            ),
            (
                "loom_tier_compactions_total",
                self.coordinator.tier_compactions,
            ),
            (
                "loom_tier_chunks_aged_total",
                self.coordinator.tier_chunks_aged,
            ),
            (
                "loom_tier_aged_raw_bytes_total",
                self.coordinator.tier_aged_raw_bytes,
            ),
            (
                "loom_tier_aged_comp_bytes_total",
                self.coordinator.tier_aged_comp_bytes,
            ),
            (
                "loom_tier_slices_pruned_total",
                self.coordinator.tier_slices_pruned,
            ),
            (
                "loom_tier_cold_chunk_reads_total",
                self.coordinator.tier_cold_chunk_reads,
            ),
            (
                "loom_tier_cold_byte_decodes_total",
                self.coordinator.tier_cold_byte_decodes,
            ),
            ("loom_index_ts_seeks_total", self.index.ts_seeks),
            ("loom_index_summary_probes_total", self.index.summary_probes),
            ("loom_index_chunk_hits_total", self.index.chunk_hits),
            (
                "loom_index_false_positive_chunks_total",
                self.index.false_positive_chunks,
            ),
            (
                "loom_index_summary_mirror_bytes",
                self.index.summary_mirror_bytes,
            ),
            ("loom_query_queries_total", self.query.queries),
            ("loom_query_nanos_total", self.query.query_nanos),
            (
                "loom_query_parallel_queries_total",
                self.query.parallel_queries,
            ),
            ("loom_query_pool_tasks_total", self.query.pool_tasks),
            ("loom_query_slow_queries_total", self.query.slow_queries),
            (
                "loom_query_columnar_batches_total",
                self.query.columnar_batches,
            ),
            ("loom_query_columnar_rows_total", self.query.columnar_rows),
            ("loom_query_raw_scan_reads_total", self.query.raw_scan_reads),
            ("loom_net_connections_total", self.net.connections),
            ("loom_net_connections_active", self.net.connections_active),
            ("loom_net_frames_read_total", self.net.frames_read),
            ("loom_net_frames_written_total", self.net.frames_written),
            ("loom_net_batches_total", self.net.batches),
            ("loom_net_records_total", self.net.records),
            ("loom_net_acks_total", self.net.acks),
            ("loom_net_nacks_total", self.net.nacks),
            ("loom_net_replays_total", self.net.replays),
            ("loom_net_subscriptions_total", self.net.subscriptions),
            (
                "loom_net_subscriptions_active",
                self.net.subscriptions_active,
            ),
            ("loom_net_sub_deliveries_total", self.net.sub_deliveries),
            ("loom_net_sub_records_total", self.net.sub_records),
            (
                "loom_net_slow_consumer_drops_total",
                self.net.slow_consumer_drops,
            ),
            ("loom_net_sub_queue_depth", self.net.sub_queue_depth),
            ("loom_net_disconnects_total", self.net.disconnects),
        ]
    }

    /// Renders the snapshot in a Prometheus-style text format: one
    /// `name value` line per scalar, plus cumulative `_bucket` lines for
    /// the two latency histograms.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.named_values() {
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        write_histogram(
            &mut out,
            "loom_hybridlog_flush_latency",
            &self.hybridlog.flush_latency,
        );
        write_histogram(&mut out, "loom_query_latency", &self.query.query_latency);
        write_histogram(&mut out, "loom_query_batch_rows", &self.query.batch_rows);
        write_histogram(
            &mut out,
            "loom_query_batch_selectivity_pct",
            &self.query.batch_selectivity,
        );
        // Per-shard rollups use a `shard` label so aggregators can group
        // by shard without any of the unlabeled totals above changing.
        for r in &self.shards {
            let shard = r.shard;
            for (name, value) in [
                ("loom_shard_flushes_total", r.flushes),
                ("loom_shard_flushed_bytes_total", r.flushed_bytes),
                ("loom_shard_chunks_sealed_total", r.chunks_sealed),
                ("loom_shard_queries_total", r.queries),
                (
                    "loom_shard_degraded_transitions_total",
                    r.degraded_transitions,
                ),
            ] {
                out.push_str(&format!("{name}{{shard=\"{shard}\"}} {value}\n"));
            }
        }
        out
    }
}

/// Merges histogram buckets element-wise. A side with no samples adopts
/// the other's bounds; mismatched bounds (impossible for snapshots taken
/// from one engine, where every shard uses the same spec) fall back to
/// keeping the left side's shape and folding the other's total into its
/// overflow bucket rather than mixing incomparable boundaries.
fn merge_histogram(into: &mut HistogramCounts, other: &HistogramCounts) {
    if other.counts.iter().all(|&c| c == 0) {
        return;
    }
    if into.counts.iter().all(|&c| c == 0) {
        *into = other.clone();
        return;
    }
    if into.bounds == other.bounds && into.counts.len() == other.counts.len() {
        for (a, b) in into.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    } else if let Some(last) = into.counts.last_mut() {
        *last += other.total();
    }
}

/// Appends cumulative `<name>_bucket{le="..."}` lines plus a `_count`
/// line, mirroring the Prometheus histogram exposition shape.
fn write_histogram(out: &mut String, name: &str, h: &HistogramCounts) {
    let mut cumulative = 0u64;
    // counts[0] is the low-outlier bucket (< bounds[0]); fold it into the
    // first boundary's cumulative count like Prometheus folds everything
    // below the first `le`.
    for (i, bound) in h.bounds.iter().enumerate() {
        cumulative += h.counts.get(i).copied().unwrap_or(0);
        out.push_str(name);
        out.push_str("_bucket{le=\"");
        out.push_str(&format!("{bound}"));
        out.push_str("\"} ");
        out.push_str(&cumulative.to_string());
        out.push('\n');
    }
    // The +Inf bucket is everything, including the high-outlier count(s)
    // past the last boundary — by construction it equals `_count`.
    out.push_str(name);
    out.push_str("_bucket{le=\"+Inf\"} ");
    out.push_str(&h.total().to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_count ");
    out.push_str(&h.total().to_string());
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_values_are_distinct_and_span_all_layers() {
        let snap = MetricsSnapshot::default();
        let names: Vec<&str> = snap.named_values().iter().map(|(n, _)| *n).collect();
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(names.len(), unique.len(), "metric names must be unique");
        assert!(names.len() >= 12, "need at least 12 distinct metrics");
        for layer in ["hybridlog", "coordinator", "index", "query", "net"] {
            assert!(
                names.iter().any(|n| n.contains(layer)),
                "missing layer {layer}"
            );
        }
    }

    #[test]
    fn text_format_has_one_line_per_scalar_and_histogram_buckets() {
        let mut snap = MetricsSnapshot::default();
        snap.query.queries = 7;
        snap.query.query_latency = HistogramCounts {
            bounds: vec![1_000.0, 4_000.0],
            counts: vec![1, 2, 3, 4],
        };
        let text = snap.to_text();
        assert!(text.contains("loom_query_queries_total 7\n"));
        assert!(text.contains("loom_query_latency_bucket{le=\"1000\"} 1\n"));
        assert!(text.contains("loom_query_latency_bucket{le=\"4000\"} 3\n"));
        assert!(text.contains("loom_query_latency_bucket{le=\"+Inf\"} 10\n"));
        assert!(text.contains("loom_query_latency_count 10\n"));
    }

    #[test]
    fn merge_sums_scalars_and_histogram_buckets() {
        let mut a = MetricsSnapshot::default();
        a.query.queries = 3;
        a.hybridlog.flushes = 2;
        a.query.query_latency = HistogramCounts {
            bounds: vec![1_000.0, 4_000.0],
            counts: vec![1, 2, 3, 4],
        };
        let mut b = MetricsSnapshot::default();
        b.query.queries = 5;
        b.hybridlog.flushes = 7;
        b.index.chunk_hits = 1;
        b.query.query_latency = HistogramCounts {
            bounds: vec![1_000.0, 4_000.0],
            counts: vec![10, 0, 0, 1],
        };
        a.merge(&b);
        assert_eq!(a.query.queries, 8);
        assert_eq!(a.hybridlog.flushes, 9);
        assert_eq!(a.index.chunk_hits, 1);
        assert_eq!(a.query.query_latency.counts, vec![11, 2, 3, 5]);
        // Merging into an empty snapshot adopts the source histogram.
        let mut empty = MetricsSnapshot::default();
        empty.merge(&b);
        assert_eq!(empty.query.query_latency.counts, vec![10, 0, 0, 1]);
    }

    #[test]
    fn shard_rollups_render_with_shard_label() {
        let snap = MetricsSnapshot {
            shards: vec![
                ShardRollup {
                    shard: 0,
                    flushes: 4,
                    ..ShardRollup::default()
                },
                ShardRollup {
                    shard: 1,
                    queries: 9,
                    ..ShardRollup::default()
                },
            ],
            ..MetricsSnapshot::default()
        };
        let text = snap.to_text();
        assert!(text.contains("loom_shard_flushes_total{shard=\"0\"} 4\n"));
        assert!(text.contains("loom_shard_queries_total{shard=\"1\"} 9\n"));
        // Unlabeled totals are untouched by the rollup lines.
        assert!(text.contains("loom_query_queries_total 0\n"));
    }
}
