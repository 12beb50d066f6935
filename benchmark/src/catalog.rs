//! The glossary: every metric the benchmark reports, with its unit, the
//! direction that is better and, for end-to-end metrics, the share of
//! the parent's median by which it may worsen. `BENCHMARK.json` is
//! generated from this file (`--emit-benchmark-json`), and every run
//! checks that it emitted exactly these names.

use crate::oracle::Class;
use crate::workloads::Workload;

/// How long one run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 8;

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound; `None` for per-layer metrics.
    pub bound: Option<f64>,
    pub about: &'static str,
}

fn def(
    name: &str,
    unit: &'static str,
    better: &'static str,
    bound: Option<f64>,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound,
        about,
    }
}

/// The end-to-end metrics: what a user of the system sees.
pub fn end_to_end() -> Vec<MetricDef> {
    let lo = "lower";
    vec![
        def("setup_s", "s", lo, Some(0.25), "median of the run's set-ups: data generation, fresh open, library preload, sync_durable, compaction (cold), server start and client connect (socket workloads)"),
        def("ingest_rec_per_s", "rec/s", "higher", Some(0.25), "sustained capture rate: records over stream time per library stream (median), or acked records over wall time on the socket workloads"),
        def("ack_p50_us", "us", lo, Some(0.25), "batch handed over to durable ack (LoomWriter::sync barrier); open loop: from the due time"),
        def("visible_lag_p50_us", "us", lo, Some(0.25), "send of a batch to the first Max(seq) query over the trailing window that returns its last seq"),
        def("q_agg_summary_p50_us", "us", lo, Some(0.25), "Max over all of history on the descriptor index: summaries only"),
        def("q_agg_pctl_p50_us", "us", lo, Some(0.25), "Percentile(99.99): bins as CDF, then decode of the target bin"),
        def("q_scan_wide_p50_us", "us", lo, Some(0.25), "indexed scan of half the values, descriptor index (columnar path)"),
        def("q_scan_rare_p50_us", "us", lo, Some(0.25), "indexed scan of the slowest 0.01 % on the closure index (record path, summary skipping)"),
        def("q_raw_scan_p50_us", "us", lo, Some(0.25), "raw dump of the packet source over a 5 % time window (chain walk)"),
        def("disk_bytes_per_user_byte", "ratio", lo, Some(0.01), "file bytes (punched holes excluded) per payload byte after the set-up preload; exact for a seed"),
        def("reopen_crash_ms", "ms", lo, Some(0.25), "Loom::open after simulate_crash(): full CRC scan of all logs"),
        def("peak_rss_mb", "MiB", lo, Some(0.25), "VmHWM of the benchmark process at the end of the run (engine plus the harness's data set)"),
    ]
}

/// The per-layer metrics of a traced run.
pub fn per_layer() -> Vec<MetricDef> {
    let (lo, hi) = ("lower", "higher");
    let d = |name: &str, unit, better, about| def(name, unit, better, None, about);
    let mut v = vec![
        d("telemetry.gen_ns_per_rec", "ns/rec", lo, "generation of the data set, per record"),
        d("net.frame.write_ns_per_batch", "ns", lo, "write_frame of a 64 x 48 B batch body into memory (CRC included)"),
        d("net.frame.read_ns_per_batch", "ns", lo, "read_frame of the same frame from memory (CRC included)"),
        d("net.proto.encode_ns_per_batch", "ns", lo, "Message::encode_body of the batch"),
        d("net.proto.decode_ns_per_batch", "ns", lo, "Message::decode of the batch"),
        d("net.client.send_batch_us_p50", "us", lo, "span around IngestClient::send_batch; 0 on library workloads"),
        d("net.client.replays", "count", lo, "batches replayed after a reconnect; the harness never reconnects"),
        d("daemon.net.residual_us_p50", "us", lo, "net_ingest: ack_p50_us minus wire layers minus library-route ack: TCP, thread hand-off, writer-slot wait; 0 elsewhere"),
        d("daemon.net.acks", "count", hi, "loom_net acks sent"),
        d("daemon.net.nacks", "count", lo, "loom_net nacks sent"),
        d("daemon.net.replays_deduped", "count", lo, "retransmitted batches re-acked without ingest"),
        d("engine.push_ns_p50", "ns", lo, "1-in-64 individually timed pushes of the library streams"),
        d("engine.push_ns_p999", "ns", lo, "99.9th percentile of the same pushes"),
        d("engine.push_ns_per_rec.idx0", "ns/rec", lo, "push of 48 B records, source with no index"),
        d("engine.push_ns_per_rec.idx1", "ns/rec", lo, "same stream, 1 descriptor index"),
        d("engine.push_ns_per_rec.idx5", "ns/rec", lo, "same stream, 5 descriptor indexes"),
        d("engine.push_residual_ns", "ns", lo, "idx5 push minus hybridlog append, header encode, clock and 5 summary observations"),
        d("engine.sync_us_p50", "us", lo, "LoomWriter::sync after 64 pushes (library route)"),
        d("engine.sync_durable_ms_p50", "ms", lo, "sync_durable at the end of a library stream"),
        d("engine.open_ms", "ms", lo, "Loom::open of a fresh directory"),
        d("engine.close_ms", "ms", lo, "LoomWriter::close"),
        d("hybridlog.append_ns_per_rec", "ns/rec", lo, "bare Writer::append of 28 B header + 48 B payload + publish"),
        d("hybridlog.flush_us_p50", "us", lo, "Writer::flush of 4 KiB"),
        d("hybridlog.flush_durable_ms", "ms", lo, "Writer::flush_durable of 1 MiB"),
        d("hybridlog.snapshot_read_ns_per_kib", "ns/KiB", lo, "LogShared::snapshot plus chunk-sized reads"),
        d("hybridlog.block_seals", "count", lo, "staging blocks sealed by the set-up preload (exact)"),
        d("hybridlog.flushes", "count", lo, "flushes completed by the end of the timed phases"),
        d("hybridlog.backpressure_waits", "count", lo, "appends that waited for the flusher"),
        d("hybridlog.seqlock_retries", "count", lo, "reader retries on a recycled staging block"),
        d("coordinator.seal_us_per_chunk", "us", lo, "the push that crosses a chunk boundary, 5 indexes"),
        d("coordinator.chunk_seals", "count", lo, "chunks sealed by the set-up preload (exact)"),
        d("coordinator.pad_bytes", "bytes", lo, "chunk padding written by the set-up preload (exact)"),
        d("summary.observe_ns", "ns", lo, "per record and index: HistogramSpec::bin_of plus BinStats::observe into a dense per-bin array, as push does"),
        d("summary.encode_ns_per_chunk", "ns", lo, "ChunkSummary::encode of one chunk's summary"),
        d("summary.decode_ns_per_chunk", "ns", lo, "ChunkSummary::decode of the same bytes"),
        d("summary.bytes_per_chunk", "bytes", lo, "encoded size of that summary"),
        d("record.header_encode_ns", "ns", lo, "RecordHeader::encode over a 48 B payload (CRC included)"),
        d("record.verify_ns_per_rec", "ns/rec", lo, "RecordHeader::verify of the same record"),
        d("record.chunk_iter_ns_per_rec", "ns/rec", lo, "ChunkIter over a captured sealed chunk"),
        d("durability.format.crc32_ns_per_kib", "ns/KiB", lo, "crc32 over a 64 KiB chunk"),
        d("durability.recovery.clean_ms", "ms", lo, "Loom::open after close(), the scan-free path, median of the harness spans (the clean report carries no duration); demoted from end-to-end reopen_clean_ms: a 2 ms operation whose run-to-run spread is 14-32 % on this host"),
        d("durability.recovery.crash_ms", "ms", lo, "RecoveryReport duration of the last crash reopen"),
        d("durability.recovery.crash_mib_per_s", "MiB/s", hi, "sealed record-log bytes over that duration"),
        d("durability.recovery.records_validated", "count", lo, "records the crash scan validated"),
        d("chunk_index.ns_per_summary", "ns", lo, "agg_summary p50 over summaries scanned"),
        d("ts_index.seek_us", "us", lo, "indexed scan of an empty 1 us window in mid-history"),
        d("ts_index.entries", "count", lo, "timestamp-index entries written by the set-up preload (exact)"),
        d("query.columnar.speedup_vs_record", "ratio", hi, "scan_wide with_columnar(false) over (true)"),
        d("query.columnar.rows", "count", lo, "rows decoded into column batches by scan_wide"),
        d("query.executor.speedup_p2", "ratio", hi, "scan_wide at parallelism 1 over parallelism 2"),
        d("query.executor.workers_used", "count", hi, "workers the parallel scan_wide used"),
        d("retention.codec.compress_us_per_chunk", "us", lo, "compress_chunk of captured 48 B-record chunks"),
        d("retention.codec.decompress_us_per_chunk", "us", lo, "decompress_chunk of the same"),
        d("retention.codec.ratio_gauge", "ratio", hi, "raw over compressed bytes, chunk of the f64 gauge"),
        d("retention.codec.ratio_latency48", "ratio", hi, "raw over compressed bytes, chunk of 48 B latency records"),
        d("retention.segment.read_frame_us_per_chunk", "us", lo, "read_chunk_frame: read, CRCs, decompress"),
        d("retention.compact_ms", "ms", lo, "Loom::compact in set-up; 0 on hot workloads"),
        d("retention.bytes_rewritten", "bytes", lo, "compressed bytes the compaction wrote"),
        d("retention.cold_chunks", "count", hi, "chunks in the cold tier"),
        d("retention.compression_ratio", "ratio", hi, "raw over compressed bytes of the cold tier"),
        d("obs.snapshot_us", "us", lo, "Loom::metrics_snapshot"),
        d("obs.slow_queries", "count", lo, "queries over the 100 ms slow-query threshold"),
        d("harness.trace_overhead_share", "ratio", lo, "main-phase unit cost with spans on over spans off"),
        d("ack_p99_us", "us", lo, "99th percentile of the ack_p50_us samples; demoted from end-to-end: its run-to-run spread is 13-100 % on this host"),
        d("harness.gen_late_p99_us", "us", lo, "open-loop generator lateness, 99th percentile; 0 on closed loops"),
        d("harness.late_batches", "count", lo, "open-loop batches sent more than 10 ms after they were due"),
    ];
    for class in Class::ALL {
        let c = class.name();
        for (field, unit, about) in [
            (
                "summaries_scanned",
                "count",
                "QueryStats.summaries_scanned (exact)",
            ),
            (
                "chunks_scanned",
                "count",
                "QueryStats.chunks_scanned (exact)",
            ),
            (
                "records_scanned",
                "count",
                "QueryStats.records_scanned (exact)",
            ),
            (
                "records_matched",
                "count",
                "QueryStats.records_matched (exact)",
            ),
            ("bytes_read", "bytes", "QueryStats.bytes_read (exact)"),
            (
                "rows_examined_per_result",
                "ratio",
                "records scanned per record returned (or per contributing value)",
            ),
            (
                "ns_per_record_scanned",
                "ns/rec",
                "p50 latency over records scanned",
            ),
            (
                "p_hi_us",
                "us",
                "highest percentile with at least 10 samples beyond it",
            ),
            ("p_hi_pct", "pct", "which percentile p_hi_us is"),
        ] {
            v.push(d(&format!("query.{c}.{field}"), unit, lo, about));
        }
        v.push(d(
            &format!("retention.cold_over_hot.{c}"),
            "ratio",
            lo,
            "p50 on the cold tier over p50 on the hot tier, same data",
        ));
    }
    v
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let list = |items: Vec<String>| items.join(",\n    ");
    let workloads = Workload::ALL
        .into_iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_string(w.name()),
                json_string(w.why())
            )
        })
        .collect();
    let e2e = end_to_end()
        .into_iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(&m.name),
                json_string(m.unit),
                json_string(m.better),
                m.bound.expect("end-to-end metrics have a bound")
            )
        })
        .collect();
    let layers = per_layer()
        .into_iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(&m.name),
                json_string(m.unit),
                json_string(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.map(json_string).join(", "),
        list(workloads),
        list(e2e),
        list(layers),
    )
}

/// The glossary as markdown tables (`--glossary`), for the README.
pub fn glossary_markdown() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | meaning |\n|---|---|---|---|---|\n",
    );
    for m in end_to_end() {
        let bound = m.bound.expect("end-to-end metrics have a bound") * 100.0;
        out.push_str(&format!(
            "| `{}` | {} | {} | {bound:.0} % | {} |\n",
            m.name, m.unit, m.better, m.about
        ));
    }
    out.push_str("\n| per-layer metric | unit | better | meaning |\n|---|---|---|---|\n");
    for m in per_layer() {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.about
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!(
            (1..=16).contains(&e2e.len()),
            "{} end-to-end metrics",
            e2e.len()
        );
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut seen = std::collections::BTreeSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(name_ok(&m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate name {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name().to_string()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}: why has {} chars",
                w.name(),
                w.why().len()
            );
        }
        for m in &e2e {
            let bound = m.bound.expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            e2e.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
    }
}
