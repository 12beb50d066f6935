//! Tiered-retention tests: hot/cold equivalence, slice pruning, reopen
//! behavior over aged layouts, and the aged-vs-never-aged proptest.
//!
//! The core contract under test: which tier serves a chunk is an
//! internal layout choice, never a semantic one. For any workload, an
//! engine that aged (and partially compressed) its history must return
//! bit-identical query results to a twin engine that never aged
//! anything — same `(ts, payload)` record sequences, `f64::to_bits`-
//! identical aggregates, identical bin counts — across crash and clean
//! reopens, at `shards ∈ {1, 4}`.

use proptest::prelude::*;

use loom::histogram::HistogramSpec;
use loom::{
    Aggregate, Clock, Config, Loom, LoomWriter, RetentionConfig, SourceId, TimeRange, ValueRange,
};

struct Env {
    dir: std::path::PathBuf,
}

impl Env {
    fn new(name: &str) -> Env {
        let dir = std::env::temp_dir().join(format!(
            "loom-retention-{}-{}-{}",
            name,
            std::process::id(),
            suffix()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Env { dir }
    }

    /// Small config with `shards` shards and the given retention policy,
    /// pinned against the `LOOM_TEST_*` env overrides so these tests
    /// control both knobs exactly.
    fn config(&self, shards: usize, retention: RetentionConfig) -> Config {
        let mut c = Config::small(&self.dir)
            .with_shards(shards)
            .with_retention(retention);
        c.remove_on_drop = false;
        c
    }

    fn open(&self, shards: usize, retention: RetentionConfig, start: u64) -> (Loom, LoomWriter) {
        Loom::open_with_clock(self.config(shards, retention), Clock::manual(start)).unwrap()
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn suffix() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    N.fetch_add(1, Ordering::Relaxed)
}

/// An aging-everything policy with no background thread: rounds run only
/// on explicit [`Loom::compact`] calls, so tests control exactly when
/// chunks move.
fn manual_aging() -> RetentionConfig {
    RetentionConfig {
        enabled: true,
        cold_after: 0,
        slice: 1 << 40,
        drop_after: None,
        interval: None,
        compact_on_seal: false,
    }
}

fn disabled() -> RetentionConfig {
    RetentionConfig::default()
}

fn spec() -> HistogramSpec {
    HistogramSpec::uniform(0.0, 65_536.0, 8).unwrap()
}

/// Collects `(ts, payload)` for every record of `s`, oldest first.
fn scan_all(loom: &Loom, s: SourceId) -> Vec<(u64, Vec<u8>)> {
    let mut got = Vec::new();
    loom.raw_scan(s, TimeRange::new(0, u64::MAX), |r| {
        got.push((r.ts, r.payload.to_vec()));
    })
    .unwrap();
    got.reverse();
    got
}

/// Every query-path answer for one indexed source over `range`, with
/// floats captured as bits so comparisons are exact.
#[derive(Debug, PartialEq, Eq)]
struct Answers {
    records: Vec<(u64, Vec<u8>)>,
    filtered: Vec<(u64, u64)>,
    aggregates: Vec<(u64, Option<u64>)>,
    bins: Vec<u64>,
}

fn answers(loom: &Loom, s: SourceId, idx: loom::IndexId, range: TimeRange) -> Answers {
    let mut records = Vec::new();
    loom.query(s)
        .index(idx)
        .range(range)
        .scan(|r| records.push((r.ts, r.payload.to_vec())))
        .unwrap();
    let mut filtered = Vec::new();
    loom.query(s)
        .index(idx)
        .range(range)
        .value_range(ValueRange::new(100.0, 9_000.0))
        .scan(|r| filtered.push((r.ts, r.addr)))
        .unwrap();
    let mut aggregates = Vec::new();
    for m in [
        Aggregate::Count,
        Aggregate::Sum,
        Aggregate::Min,
        Aggregate::Max,
        Aggregate::Mean,
        Aggregate::Percentile(95.0),
    ] {
        let a = loom.query(s).index(idx).range(range).aggregate(m).unwrap();
        aggregates.push((a.count, a.value.map(f64::to_bits)));
    }
    let (bins, _) = loom.query(s).index(idx).range(range).bin_counts().unwrap();
    Answers {
        records,
        filtered,
        aggregates,
        bins,
    }
}

/// Pushes `n` records with smoothly varying u64 payloads (the kind of
/// telemetry the delta codec is built for), advancing the manual clock
/// `step` per record.
fn push_series(
    loom: &Loom,
    writer: &mut LoomWriter,
    s: SourceId,
    n: u64,
    step: u64,
) -> Vec<(u64, Vec<u8>)> {
    let mut out = Vec::with_capacity(n as usize);
    for i in 0..n {
        let ts = loom.clock().advance(step);
        let v = 4_000 + (i % 97) * 13;
        writer.push(s, &v.to_le_bytes()).unwrap();
        out.push((ts, v.to_le_bytes().to_vec()));
    }
    out
}

// ---------------------------------------------------------------------
// Aging: layout and equivalence
// ---------------------------------------------------------------------

/// Compaction moves every sealed, flushed chunk into `cold/` segments,
/// the compression ratio clears 3x on delta-friendly telemetry, and all
/// query paths answer bit-identically to a never-aged twin engine.
#[test]
fn aged_engine_answers_identically_to_never_aged_twin() {
    let aged_env = Env::new("aged");
    let twin_env = Env::new("twin");
    let (aged, mut aged_w) = aged_env.open(1, manual_aging(), 1_000);
    let (twin, mut twin_w) = twin_env.open(1, disabled(), 1_000);

    let s_a = aged.define_source("app");
    let s_t = twin.define_source("app");
    let idx_a = aged
        .define_index_desc(s_a, loom::ExtractorDesc::U64Le(0), spec())
        .unwrap();
    let idx_t = twin
        .define_index_desc(s_t, loom::ExtractorDesc::U64Le(0), spec())
        .unwrap();

    let pushed = push_series(&aged, &mut aged_w, s_a, 6_000, 10);
    push_series(&twin, &mut twin_w, s_t, 6_000, 10);
    aged_w.sync_durable().unwrap();
    twin_w.sync_durable().unwrap();

    let report = aged.compact().unwrap();
    assert!(report.chunks_aged > 0, "sealed flushed chunks must age");
    assert_eq!(report.slices_pruned, 0);

    let tiers = aged.tier_stats();
    assert_eq!(tiers.len(), 1);
    let t = &tiers[0];
    assert!(t.cold.chunks > 0, "cold tier must own chunks: {t:?}");
    assert!(t.cold.comp_bytes < t.cold.raw_bytes);
    let ratio = t.compression_ratio().unwrap();
    assert!(
        ratio >= 3.0,
        "delta-friendly telemetry must compress ≥ 3x, got {ratio:.2}"
    );
    // The cold directory exists on disk with at least one segment.
    assert!(aged_env.dir.join("cold").is_dir());

    // Every path, every answer, bit-identical.
    assert_eq!(scan_all(&aged, s_a), pushed);
    assert_eq!(scan_all(&twin, s_t), pushed);
    let full = TimeRange::new(0, aged.now());
    assert_eq!(
        answers(&aged, s_a, idx_a, full),
        answers(&twin, s_t, idx_t, full)
    );
    // Historical sub-ranges land entirely in the cold tier.
    let old = TimeRange::new(0, 1_000 + 6_000 * 10 / 3);
    assert_eq!(
        answers(&aged, s_a, idx_a, old),
        answers(&twin, s_t, idx_t, old)
    );

    // Cold reads actually happened (the hot bytes are punched).
    let snap = aged.metrics_snapshot();
    let text = snap.to_text();
    assert!(text.contains("loom_tier_chunks_aged_total"));
    assert!(text.contains("loom_tier_cold_chunk_reads_total"));
    let cold_reads = snap
        .named_values()
        .into_iter()
        .find(|(n, _)| *n == "loom_tier_cold_chunk_reads_total")
        .map(|(_, v)| v)
        .unwrap();
    // The counter is a self-obs no-op when the feature is compiled out.
    if cfg!(feature = "self-obs") {
        assert!(cold_reads > 0, "historical scans must read cold segments");
    }
}

/// Range queries that exclude the cold prefix are planned off the
/// per-slice super-summaries: the walk fast-forwards whole slices whose
/// coarse `ts_max` ends before the range (and breaks on the first slice
/// past it) without decoding their per-chunk summaries, and both the
/// answers and the summaries-visited accounting stay identical to a
/// never-aged twin. Runs with the ts-index seek ablated so the summary
/// walk — not the seek — does the pruning.
#[test]
fn slice_super_summaries_prune_cold_ranges_without_per_chunk_metadata() {
    let aged_env = Env::new("super");
    let twin_env = Env::new("super-twin");
    let mut policy = manual_aging();
    policy.slice = 10_000;
    let (aged, mut aged_w) = aged_env.open(1, policy, 0);
    let (twin, mut twin_w) = twin_env.open(1, disabled(), 0);

    let s_a = aged.define_source("app");
    let s_t = twin.define_source("app");
    let idx_a = aged
        .define_index_desc(s_a, loom::ExtractorDesc::U64Le(0), spec())
        .unwrap();
    let idx_t = twin
        .define_index_desc(s_t, loom::ExtractorDesc::U64Le(0), spec())
        .unwrap();

    // ~60k ns of history across ~6 cold slices.
    push_series(&aged, &mut aged_w, s_a, 6_000, 10);
    push_series(&twin, &mut twin_w, s_t, 6_000, 10);
    aged_w.sync_durable().unwrap();
    twin_w.sync_durable().unwrap();
    aged.compact().unwrap();
    assert!(
        aged.tier_stats()[0].cold.slices > 1,
        "the walk must cross several live slices"
    );

    let no_seek = loom::QueryOptions {
        use_ts_index: false,
        ..loom::QueryOptions::default()
    };
    let late = TimeRange::new(aged.now() - 5_000, aged.now());
    let early = TimeRange::new(0, 5);
    for r in [late, early] {
        let mut got_a = Vec::new();
        let stats_a = aged
            .query(s_a)
            .index(idx_a)
            .range(r)
            .options(no_seek)
            .scan(|rec| got_a.push((rec.ts, rec.payload.to_vec())))
            .unwrap();
        let mut got_t = Vec::new();
        let stats_t = twin
            .query(s_t)
            .index(idx_t)
            .range(r)
            .options(no_seek)
            .scan(|rec| got_t.push((rec.ts, rec.payload.to_vec())))
            .unwrap();
        assert_eq!(got_a, got_t);
        // Skipped slices are accounted as their chunk count, so the
        // visited-summary numbers match the twin's per-summary walk; a
        // cold piece counts the chunks, records and bytes a hot one does.
        assert_eq!(stats_a.summaries_scanned, stats_t.summaries_scanned);
        assert_eq!(stats_a.chunks_scanned, stats_t.chunks_scanned);
        assert_eq!(stats_a.records_scanned, stats_t.records_scanned);
        assert_eq!(stats_a.bytes_read, stats_t.bytes_read);
        let agg_a = aged
            .query(s_a)
            .index(idx_a)
            .range(r)
            .options(no_seek)
            .aggregate(Aggregate::Sum)
            .unwrap();
        let agg_t = twin
            .query(s_t)
            .index(idx_t)
            .range(r)
            .options(no_seek)
            .aggregate(Aggregate::Sum)
            .unwrap();
        assert_eq!(agg_a.count, agg_t.count);
        assert_eq!(agg_a.value.map(f64::to_bits), agg_t.value.map(f64::to_bits));
    }
}

/// The value of one counter in the engine's metrics snapshot.
fn counter(loom: &Loom, name: &str) -> u64 {
    loom.metrics_snapshot()
        .named_values()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .unwrap()
}

/// Indexed scans, aggregates and bin counts decode cold chunks straight
/// from their frames into columns; only the raw scan inflates a cold
/// chunk back into record bytes.
#[test]
fn only_raw_scans_inflate_cold_chunks_to_record_bytes() {
    let env = Env::new("byte-decodes");
    let (loom, mut w) = env.open(1, manual_aging(), 1_000);
    let s = loom.define_source("app");
    let idx = loom
        .define_index_desc(s, loom::ExtractorDesc::U64Le(0), spec())
        .unwrap();
    push_series(&loom, &mut w, s, 6_000, 10);
    w.sync_durable().unwrap();
    assert!(loom.compact().unwrap().chunks_aged > 0);

    for r in [TimeRange::new(0, loom.now()), TimeRange::new(5_000, 30_000)] {
        answers(&loom, s, idx, r);
    }
    // The counters are self-obs no-ops when the feature is compiled out.
    if !cfg!(feature = "self-obs") {
        return;
    }
    assert!(counter(&loom, "loom_tier_cold_chunk_reads_total") > 0);
    assert_eq!(counter(&loom, "loom_tier_cold_byte_decodes_total"), 0);
    scan_all(&loom, s);
    assert!(counter(&loom, "loom_tier_cold_byte_decodes_total") > 0);
}

/// A dirty reopen inflates each live cold chunk exactly once — the
/// record-log scan is the only deep pass over the cold tier — and counts
/// it; a clean reopen inflates none.
#[test]
fn dirty_reopen_inflates_each_cold_chunk_once() {
    if !cfg!(feature = "self-obs") {
        return;
    }
    for shards in [1, 2] {
        let env = Env::new(&format!("reopen-decodes-{shards}"));
        let (loom, mut w) = env.open(shards, manual_aging(), 1_000);
        let sources: Vec<SourceId> = (0..4)
            .map(|i| loom.define_source(&format!("s{i}")))
            .collect();
        for &s in &sources {
            push_series(&loom, &mut w, s, 1_500, 10);
        }
        w.sync_durable().unwrap();
        let aged = loom.compact().unwrap().chunks_aged;
        assert!(aged > 2);
        let cold: u64 = loom.tier_stats().iter().map(|t| t.cold.chunks).sum();
        assert_eq!(cold, aged);
        w.simulate_crash();
        drop(loom);

        let (loom, w) = env.open(shards, manual_aging(), 0);
        assert!(!loom.recovery_report().unwrap().clean);
        assert_eq!(
            counter(&loom, "loom_tier_cold_byte_decodes_total"),
            cold,
            "shards = {shards}"
        );
        w.close().unwrap();
        drop(loom);

        let (loom, _w) = env.open(shards, manual_aging(), 0);
        assert!(loom.recovery_report().unwrap().clean);
        assert_eq!(counter(&loom, "loom_tier_cold_byte_decodes_total"), 0);
    }
}

/// Flipping any byte of a cold frame — its length, checksum, chunk
/// address, `raw_len`, `raw_crc`, codec id, or body — makes every query
/// that reads the chunk fail with a typed cold-segment corruption:
/// indexed scan, aggregates and bin counts through the column read, the
/// raw scan through the byte path. None answers differently instead.
#[test]
fn flipped_cold_frame_bytes_fail_every_query_path() {
    use loom::durability::LogId;
    use std::os::unix::fs::FileExt;

    let env = Env::new("flip");
    let chunk_size = env.config(1, manual_aging()).chunk_size as u64;
    let (loom, mut w) = env.open(1, manual_aging(), 1_000);
    let s = loom.define_source("app");
    let idx = loom
        .define_index_desc(s, loom::ExtractorDesc::U64Le(0), spec())
        .unwrap();
    push_series(&loom, &mut w, s, 6_000, 10);
    w.sync_durable().unwrap();
    assert!(loom.compact().unwrap().chunks_aged > 2);

    // The second frame of the first segment: header, then
    // `[len u32][crc u32][chunk_addr u64 | raw_len u32 | raw_crc u32 | codec u8 | body]`.
    let slice = std::fs::read_dir(env.dir.join("cold"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let path = std::fs::read_dir(&slice)
        .unwrap()
        .map(|e| e.unwrap().path())
        .min()
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let le32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as u64;
    let first = 24u64;
    let frame = first + 8 + le32(first as usize);
    let body_len = le32(frame as usize);
    let chunk_addr = le32(frame as usize + 8) | le32(frame as usize + 12) << 32;
    assert_eq!(bytes[frame as usize + 24], 1, "the frame is columnar");

    // A range strictly inside the chunk, so every operator must decode it.
    let mut in_chunk = Vec::new();
    loom.raw_scan(s, TimeRange::new(0, u64::MAX), |r| {
        if (chunk_addr..chunk_addr + chunk_size).contains(&r.addr) {
            in_chunk.push(r.ts);
        }
    })
    .unwrap();
    in_chunk.sort_unstable();
    let range = TimeRange::new(in_chunk[1], in_chunk[in_chunk.len() - 2]);
    let before = answers(&loom, s, idx, range);

    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    let body = frame + 8;
    let offsets = [
        ("frame length, low byte", frame),
        ("frame length, high byte", frame + 3),
        ("frame checksum", frame + 4),
        ("chunk address", body),
        ("raw_len", body + 8),
        ("raw_crc", body + 12),
        ("codec id", body + 16),
        ("body start", body + 17),
        ("body middle", body + (17 + body_len) / 2),
        ("body end", body + body_len - 1),
    ];
    for (what, at) in offsets {
        let orig = bytes[at as usize];
        file.write_all_at(&[orig ^ 0x01], at).unwrap();
        let expect_corrupt = |op: &str, res: Result<(), loom::LoomError>| match res {
            Err(loom::LoomError::CorruptLog {
                log: LogId::ColdSegment,
                ..
            }) => {}
            other => panic!("{what}: {op} returned {other:?}"),
        };
        let q = || loom.query(s).index(idx).range(range);
        expect_corrupt("scan", q().scan(|_| {}).map(drop));
        expect_corrupt("sum", q().aggregate(Aggregate::Sum).map(drop));
        expect_corrupt("p95", q().aggregate(Aggregate::Percentile(95.0)).map(drop));
        expect_corrupt("bin_counts", q().bin_counts().map(drop));
        expect_corrupt("raw scan", loom.raw_scan(s, range, |_| {}).map(drop));
        file.write_all_at(&[orig], at).unwrap();
        assert_eq!(answers(&loom, s, idx, range), before, "{what}: restored");
    }
}

/// The hot twin of `flipped_cold_frame_bytes_fail_every_query_path`: one
/// flipped byte in a sealed record of `records.log` — in each lane class
/// of the record checksum (the header's first 16 bytes, the lane that
/// straddles header and payload, a whole payload lane, the payload's
/// under-16-byte tail) or in the stored checksum — makes the indexed
/// scan (serial and parallel), a percentile whose target bin holds the
/// chunk, and the raw scan fail with `CorruptLog { log: Records }` at
/// that record, on the first read and on every read after it.
#[test]
fn flipped_hot_record_byte_fails_every_query_path() {
    use loom::durability::LogId;
    use std::os::unix::fs::FileExt;

    let env = Env::new("hot-flip");
    let (loom, mut w) = env.open(1, disabled(), 1_000);
    let s = loom.define_source("app");
    let idx = loom
        .define_index_desc(s, loom::ExtractorDesc::U64Le(0), spec())
        .unwrap();
    // 48 B payloads, a 76 B entry: the indexed value, then 40 filler
    // bytes. Every value falls in bin 0, so every chunk holds the
    // percentile's target bin.
    for i in 0..2_000u64 {
        loom.clock().advance(10);
        let mut payload = [i as u8; 48];
        payload[..8].copy_from_slice(&(4_000 + (i % 97) * 13).to_le_bytes());
        w.push(s, &payload).unwrap();
    }
    w.sync_durable().unwrap();
    let mut addrs = Vec::new();
    loom.raw_scan(s, TimeRange::new(0, u64::MAX), |r| addrs.push(r.addr))
        .unwrap();
    addrs.sort_unstable();
    let victim = addrs[10];
    let range = TimeRange::new(0, u64::MAX);
    let before = answers(&loom, s, idx, range);

    let path = env.dir.join(LogId::Records.file_name());
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    // Header: source 0..4, len 4..8, prev 8..16, ts 16..24, crc 24..28.
    let payload = victim + 28;
    let offsets = [
        ("header lane, back pointer", victim + 8),
        ("straddle lane, timestamp", victim + 16),
        ("straddle lane, payload", payload + 3),
        ("payload lane", payload + 16),
        ("payload tail", payload + 47),
        ("stored checksum", victim + 24),
    ];
    for (what, at) in offsets {
        let mut orig = [0u8];
        file.read_exact_at(&mut orig, at).unwrap();
        file.write_all_at(&[orig[0] ^ 0x01], at).unwrap();
        let expect_corrupt = |op: &str, res: Result<(), loom::LoomError>| match res {
            Err(loom::LoomError::CorruptLog {
                log: LogId::Records,
                addr,
                ..
            }) if addr == victim => {}
            other => panic!("{what}: {op} returned {other:?}"),
        };
        let q = || loom.query(s).index(idx).range(range);
        for read in ["first read", "second read"] {
            let op = |name: &str| format!("{name}, {read}");
            expect_corrupt(&op("scan"), q().scan(|_| {}).map(drop));
            expect_corrupt(
                &op("scan, parallelism 2"),
                q().parallelism(2).scan(|_| {}).map(drop),
            );
            expect_corrupt(
                &op("p50"),
                q().aggregate(Aggregate::Percentile(50.0)).map(drop),
            );
            expect_corrupt(&op("raw scan"), loom.raw_scan(s, range, |_| {}).map(drop));
        }
        file.write_all_at(&orig, at).unwrap();
        assert_eq!(answers(&loom, s, idx, range), before, "{what}: restored");
    }
}

/// A compaction round is idempotent-by-watermark: a second round with no
/// new sealed chunks ages nothing and rewrites nothing.
#[test]
fn second_round_with_no_new_chunks_is_a_no_op() {
    let env = Env::new("noop");
    let (loom, mut w) = env.open(1, manual_aging(), 0);
    let s = loom.define_source("app");
    push_series(&loom, &mut w, s, 2_000, 7);
    w.sync_durable().unwrap();
    let first = loom.compact().unwrap();
    assert!(first.chunks_aged > 0);
    let before = loom.tier_stats();
    let second = loom.compact().unwrap();
    assert_eq!(second.chunks_aged, 0);
    assert_eq!(loom.tier_stats(), before);
}

/// With retention disabled (the default), the layout stays byte-free of
/// cold-tier artifacts: no `cold/` directory, no tier manifest records,
/// and `compact()` reports nothing.
#[test]
fn disabled_retention_leaves_the_flat_layout_untouched() {
    let env = Env::new("disabled");
    let (loom, mut w) = env.open(1, disabled(), 0);
    let s = loom.define_source("app");
    push_series(&loom, &mut w, s, 2_000, 7);
    w.sync_durable().unwrap();
    let report = loom.compact().unwrap();
    assert_eq!(report, loom::CompactionReport::default());
    assert!(!env.dir.join("cold").exists());
    let t = &loom.tier_stats()[0];
    assert_eq!(t.cold, loom::ColdTierStats::default());
    assert!(t.hot_chunks > 0);
}

// ---------------------------------------------------------------------
// Pruning
// ---------------------------------------------------------------------

/// Slices whose end time has aged past `drop_after` are dropped whole:
/// their directories vanish, queries over the dropped range return
/// nothing, and the surviving range still answers exactly like a twin
/// restricted to it.
#[test]
fn expired_slices_prune_atomically_and_queries_see_only_survivors() {
    let aged_env = Env::new("prune");
    let twin_env = Env::new("prune-twin");
    let mut policy = manual_aging();
    policy.slice = 10_000;
    policy.drop_after = Some(20_000);
    let (aged, mut aged_w) = aged_env.open(1, policy, 0);
    let (twin, mut twin_w) = twin_env.open(1, disabled(), 0);

    let s_a = aged.define_source("app");
    let s_t = twin.define_source("app");
    let idx_a = aged
        .define_index_desc(s_a, loom::ExtractorDesc::U64Le(0), spec())
        .unwrap();
    let idx_t = twin
        .define_index_desc(s_t, loom::ExtractorDesc::U64Le(0), spec())
        .unwrap();

    // ~80k ns of history across ~8 slices.
    let pushed = push_series(&aged, &mut aged_w, s_a, 8_000, 10);
    push_series(&twin, &mut twin_w, s_t, 8_000, 10);
    aged_w.sync_durable().unwrap();
    twin_w.sync_durable().unwrap();

    let report = aged.compact().unwrap();
    assert!(report.chunks_aged > 0);
    assert!(report.slices_pruned > 0, "old slices must be dropped");
    let t = &aged.tier_stats()[0];
    assert!(t.cold.pruned_slices > 0 && t.cold.pruned_chunks > 0);

    // No directory survives for a pruned slice.
    let live_dirs = std::fs::read_dir(aged_env.dir.join("cold"))
        .unwrap()
        .count() as u64;
    assert_eq!(live_dirs, t.cold.slices);

    // The survivors are exactly a suffix of the twin's records.
    let survivors = scan_all(&aged, s_a);
    assert!(survivors.len() < pushed.len(), "pruning must drop records");
    assert_eq!(survivors[..], pushed[pushed.len() - survivors.len()..]);

    // Queries over a range fully inside the surviving region agree with
    // the twin on every path; queries fully inside the dropped region
    // return empty.
    let safe_start = survivors[0].0;
    let live = TimeRange::new(safe_start, aged.now());
    assert_eq!(
        answers(&aged, s_a, idx_a, live),
        answers(&twin, s_t, idx_t, live)
    );
    let dead = TimeRange::new(0, safe_start.saturating_sub(1));
    let gone = answers(&aged, s_a, idx_a, dead);
    assert!(gone.records.is_empty());
    assert_eq!(gone.aggregates[0].0, 0, "count over dropped range is 0");
    assert!(gone.bins.iter().all(|&b| b == 0));
}

// ---------------------------------------------------------------------
// Reopen over aged layouts
// ---------------------------------------------------------------------

/// One crash/clean reopen round over an aged-and-pruned layout: the
/// reopened engine validates its segments and keeps answering exactly
/// like a twin that reopened a never-aged directory.
fn reopen_round(shards: usize, crash: bool) {
    let aged_env = Env::new(if crash { "reopen-crash" } else { "reopen" });
    let twin_env = Env::new(if crash { "rtwin-crash" } else { "rtwin" });
    let mut policy = manual_aging();
    policy.slice = 50_000;
    policy.drop_after = Some(100_000);
    let (aged, mut aged_w) = aged_env.open(shards, policy.clone(), 0);
    let (twin, mut twin_w) = twin_env.open(shards, disabled(), 0);

    let names: Vec<String> = (0..3).map(|i| format!("app-{i}")).collect();
    let src_a: Vec<SourceId> = names.iter().map(|n| aged.define_source(n)).collect();
    let src_t: Vec<SourceId> = names.iter().map(|n| twin.define_source(n)).collect();
    let idx_a = aged
        .define_index_desc(src_a[0], loom::ExtractorDesc::U64Le(0), spec())
        .unwrap();
    let idx_t = twin
        .define_index_desc(src_t[0], loom::ExtractorDesc::U64Le(0), spec())
        .unwrap();

    let mut pushed: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); names.len()];
    for round in 0..3_000u64 {
        for (i, (sa, st)) in src_a.iter().zip(&src_t).enumerate() {
            let ts = aged.clock().advance(7);
            twin.clock().advance(7);
            let v = (round * 31 + i as u64 * 7) % 60_000;
            aged_w.push(*sa, &v.to_le_bytes()).unwrap();
            twin_w.push(*st, &v.to_le_bytes()).unwrap();
            pushed[i].push((ts, v.to_le_bytes().to_vec()));
        }
    }
    aged_w.sync_durable().unwrap();
    twin_w.sync_durable().unwrap();
    let report = aged.compact().unwrap();
    assert!(report.chunks_aged > 0);

    if crash {
        aged_w.simulate_crash();
        twin_w.simulate_crash();
    } else {
        aged_w.close().unwrap();
        twin_w.close().unwrap();
    }
    drop(aged);
    drop(twin);

    let (aged2, _aw) = aged_env.open(shards, policy, 0);
    let (twin2, _tw) = twin_env.open(shards, disabled(), 0);
    assert_eq!(aged2.recovery_report().unwrap().clean, !crash);

    // The cold tier survived the reopen with its chunks intact.
    let cold_total: u64 = aged2.tier_stats().iter().map(|t| t.cold.chunks).sum();
    assert!(cold_total > 0, "reopen must restore the cold tier");

    for (i, (sa, st)) in src_a.iter().zip(&src_t).enumerate() {
        let a = scan_all(&aged2, *sa);
        assert_eq!(a, scan_all(&twin2, *st), "source {} differs", names[i]);
        // Every record the twin kept, the aged engine kept (no pruning
        // configured young enough to fire here under drop_after).
        assert_eq!(a.len(), pushed[i].len());
    }
    let full = TimeRange::new(0, aged2.now());
    assert_eq!(
        answers(&aged2, src_a[0], idx_a, full),
        answers(&twin2, src_t[0], idx_t, full)
    );
}

#[test]
fn clean_reopen_over_aged_layout_is_equivalent() {
    reopen_round(1, false);
}

#[test]
fn crash_reopen_over_aged_layout_is_equivalent() {
    reopen_round(1, true);
}

#[test]
fn sharded_reopen_over_aged_layout_is_equivalent() {
    reopen_round(4, false);
    reopen_round(4, true);
}

// ---------------------------------------------------------------------
// Aged ≡ never-aged proptest (random workloads, random compact points)
// ---------------------------------------------------------------------

/// Drives one workload through an aging engine (compacting at the given
/// operation indexes) and a never-aged twin, comparing every query path
/// before and after a crash-or-clean reopen.
fn equivalence_round(
    shards: usize,
    values: &[u16],
    compact_every: usize,
    crash: bool,
) -> std::result::Result<(), TestCaseError> {
    let aged_env = Env::new("prop-aged");
    let twin_env = Env::new("prop-twin");
    let (aged, mut aged_w) = aged_env.open(shards, manual_aging(), 500);
    let (twin, mut twin_w) = twin_env.open(shards, disabled(), 500);

    let s_a = aged.define_source("app");
    let s_t = twin.define_source("app");
    let idx_a = aged
        .define_index_desc(s_a, loom::ExtractorDesc::U64Le(0), spec())
        .unwrap();
    let idx_t = twin
        .define_index_desc(s_t, loom::ExtractorDesc::U64Le(0), spec())
        .unwrap();

    for (i, v) in values.iter().enumerate() {
        aged.clock().advance(1 + (*v as u64 % 13));
        twin.clock().advance(1 + (*v as u64 % 13));
        aged_w.push(s_a, &u64::from(*v).to_le_bytes()).unwrap();
        twin_w.push(s_t, &u64::from(*v).to_le_bytes()).unwrap();
        if (i + 1) % compact_every == 0 {
            aged_w.sync_durable().unwrap();
            aged.compact().unwrap();
        }
    }
    aged_w.sync_durable().unwrap();
    twin_w.sync_durable().unwrap();
    aged.compact().unwrap();

    let full = TimeRange::new(0, aged.now());
    let mid = TimeRange::new(aged.now() / 4, aged.now() / 2);
    for r in [full, mid] {
        prop_assert_eq!(answers(&aged, s_a, idx_a, r), answers(&twin, s_t, idx_t, r));
    }
    prop_assert_eq!(scan_all(&aged, s_a), scan_all(&twin, s_t));

    if crash {
        aged_w.simulate_crash();
        twin_w.simulate_crash();
    } else {
        aged_w.close().unwrap();
        twin_w.close().unwrap();
    }
    drop(aged);
    drop(twin);
    let (aged2, _aw) = aged_env.open(shards, manual_aging(), 0);
    let (twin2, _tw) = twin_env.open(shards, disabled(), 0);
    for r in [full, mid] {
        prop_assert_eq!(
            answers(&aged2, s_a, idx_a, r),
            answers(&twin2, s_t, idx_t, r)
        );
    }
    prop_assert_eq!(scan_all(&aged2, s_a), scan_all(&twin2, s_t));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary workloads, compaction cadences, and shard counts,
    /// an aged layout answers bit-identically to a never-aged twin —
    /// live, after a clean reopen, and after a crash reopen.
    #[test]
    fn aged_layout_is_equivalent_to_never_aged(
        values in proptest::collection::vec(any::<u16>(), 50..600),
        compact_every in 40usize..200,
        crash in any::<bool>(),
        sharded in any::<bool>(),
    ) {
        let shards = if sharded { 4 } else { 1 };
        equivalence_round(shards, &values, compact_every, crash)?;
    }
}
