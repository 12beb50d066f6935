//! End-to-end tests of the Loom engine: ingest, indexing, and all three
//! query operators, validated against brute-force reference models.

use std::sync::Arc;

use loom::{
    extract, Aggregate, Clock, Config, HistogramSpec, Loom, LoomWriter, QueryOptions, SourceId,
    TimeRange, ValueRange,
};

struct TestEnv {
    loom: Loom,
    writer: LoomWriter,
    dir: std::path::PathBuf,
}

impl TestEnv {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("loom-engine-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (loom, writer) =
            Loom::open_with_clock(Config::small(&dir), Clock::manual(1_000)).unwrap();
        TestEnv { loom, writer, dir }
    }
}

impl Drop for TestEnv {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Pushes `n` records with value `f(i)`, advancing the clock by `dt` each.
/// Returns `(ts, value)` pairs.
fn push_values(
    env: &mut TestEnv,
    source: SourceId,
    n: u64,
    dt: u64,
    f: impl Fn(u64) -> u64,
) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for i in 0..n {
        let ts = env.loom.clock().advance(dt);
        let v = f(i);
        env.writer.push(source, &v.to_le_bytes()).unwrap();
        out.push((ts, v));
    }
    out
}

fn latency_spec() -> HistogramSpec {
    HistogramSpec::from_bounds(vec![0.0, 100.0, 1_000.0, 10_000.0, 100_000.0]).unwrap()
}

#[test]
fn raw_scan_returns_exact_time_range_newest_first() {
    let mut env = TestEnv::new("rawscan");
    let s = env.loom.define_source("src");
    let pushed = push_values(&mut env, s, 500, 10, |i| i);

    let range = TimeRange::new(pushed[100].0, pushed[399].0);
    let mut got = Vec::new();
    env.loom
        .raw_scan(s, range, |r| {
            let v = u64::from_le_bytes(r.payload.try_into().unwrap());
            got.push((r.ts, v));
        })
        .unwrap();

    let mut expected: Vec<_> = pushed[100..=399].to_vec();
    expected.reverse();
    assert_eq!(got, expected);
}

#[test]
fn raw_scan_of_empty_source_is_empty() {
    let mut env = TestEnv::new("rawscan-empty");
    let s = env.loom.define_source("src");
    let other = env.loom.define_source("other");
    push_values(&mut env, other, 100, 10, |i| i);
    let mut count = 0;
    env.loom
        .raw_scan(s, TimeRange::new(0, u64::MAX), |_| count += 1)
        .unwrap();
    assert_eq!(count, 0);
}

#[test]
fn raw_scan_interleaved_sources_stay_separate() {
    let mut env = TestEnv::new("rawscan-interleave");
    let a = env.loom.define_source("a");
    let b = env.loom.define_source("b");
    let mut a_recs = Vec::new();
    for i in 0..300u64 {
        let ts = env.loom.clock().advance(7);
        if i % 3 == 0 {
            env.writer.push(a, &i.to_le_bytes()).unwrap();
            a_recs.push((ts, i));
        } else {
            env.writer.push(b, &(i * 1000).to_le_bytes()).unwrap();
        }
    }
    let mut got = Vec::new();
    env.loom
        .raw_scan(a, TimeRange::new(0, u64::MAX), |r| {
            got.push((r.ts, u64::from_le_bytes(r.payload.try_into().unwrap())));
        })
        .unwrap();
    a_recs.reverse();
    assert_eq!(got, a_recs);
}

/// A flat engine over `dir` with 16 KiB chunks in 64 KiB blocks and
/// the given retention policy, pinned against the `LOOM_TEST_*`
/// overrides.
fn raw_scan_config(dir: &std::path::Path, retention: loom::RetentionConfig) -> Config {
    let mut config = Config::small(dir)
        .with_shards(1)
        .with_chunk_size(16 * 1024)
        .with_retention(retention);
    config.remove_on_drop = false;
    config
}

/// One pushed record of the raw-scan model.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pushed {
    addr: u64,
    ts: u64,
    payload: Vec<u8>,
}

/// The engine's raw scan of `s` over `range` against the straight-line
/// model: `recs` (`s`'s records, oldest first, all of them ever pushed)
/// with those below address `floor` dropped, filtered by `range` and
/// reversed. Also checks the work counters: the walk starts at the first
/// timestamp-index mark (every `mark_period`-th record) after the range,
/// or at the newest record, and reads every record down to the first one
/// older than the range, the first one dropped, or the chain's end.
fn check_raw_scan(
    loom: &Loom,
    s: SourceId,
    recs: &[Pushed],
    floor: u64,
    mark_period: usize,
    range: TimeRange,
    what: &str,
) {
    let mut got = Vec::new();
    let stats = loom
        .raw_scan(s, range, |r| {
            got.push(Pushed {
                addr: r.addr,
                ts: r.ts,
                payload: r.payload.to_vec(),
            })
        })
        .unwrap();
    let live = recs.partition_point(|r| r.addr < floor);
    let expected: Vec<Pushed> = recs[live..]
        .iter()
        .rev()
        .filter(|r| range.contains(r.ts))
        .cloned()
        .collect();
    assert_eq!(got.len(), expected.len(), "{what}: {range:?}");
    assert!(got == expected, "{what}: {range:?}");

    let start = (0..recs.len())
        .step_by(mark_period)
        .find(|&i| recs[i].ts > range.end)
        .unwrap_or(recs.len() - 1);
    let stop = recs[..=start]
        .iter()
        .rposition(|r| r.ts < range.start)
        .unwrap_or(0)
        .max(live);
    let scanned = (start + 1).saturating_sub(stop) as u64;
    let payload_bytes: u64 = expected.iter().map(|r| r.payload.len() as u64).sum();
    assert_eq!(
        stats.records_matched,
        expected.len() as u64,
        "{what}: {range:?}"
    );
    assert_eq!(stats.records_scanned, scanned, "{what}: {range:?}");
    assert_eq!(
        stats.bytes_read,
        28 * scanned + payload_bytes,
        "{what}: {range:?}"
    );
}

/// The raw scan's chain walk reads the record log in windows of a chunk;
/// whatever the windows do, it must deliver exactly the straight-line
/// answer. Three sources at three chain densities — one record per
/// chunk, one in eight, and runs of every record — among busy neighbours,
/// with payloads from 0 B to one past the walk's first 4 KiB window, are
/// scanned over ranges that cut chunks, in four states: live, with an
/// unsealed tail chunk that straddles the record snapshot's file and
/// memory parts; after a clean reopen; after a crash and reopen; and
/// after a retention round that ages every sealed chunk and prunes one
/// slice.
#[test]
fn raw_scan_matches_a_straight_line_model() {
    const CHUNK: u64 = 16 * 1024;
    const DT: u64 = 10;
    const N: u64 = 9_000;
    let dir = std::env::temp_dir().join(format!("loom-engine-rawmodel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = raw_scan_config(&dir, loom::RetentionConfig::default());
    let mark_period = config.ts_mark_period as usize;
    let (loom, mut writer) = Loom::open_with_clock(config.clone(), Clock::manual(0)).unwrap();
    let names = ["sparse", "dense", "runs", "noise-a", "noise-b"];
    let ids: Vec<SourceId> = names.iter().map(|n| loom.define_source(n)).collect();
    let sizes = [0usize, 1, 7, 8, 24, 48, 100, 333, 1_000, 4_097];
    let mut recs: Vec<Vec<Pushed>> = vec![Vec::new(); names.len()];
    let mut last_chunk = u64::MAX;
    let mut sparse_chunk = u64::MAX;
    for i in 0..N {
        let ts = loom.clock().advance(DT);
        // The sparse source writes the first record of a chunk it has not
        // written yet; the dense one every 8th record; the runs source
        // 150 records in a row every 1,000; the neighbours the rest.
        let who = if last_chunk != sparse_chunk {
            0
        } else if i % 1_000 < 150 {
            2
        } else if i % 8 == 0 {
            1
        } else {
            3 + (i % 2) as usize
        };
        let len = match who {
            0 | 1 => sizes[(i as usize / 8) % sizes.len()],
            2 => sizes[(i as usize) % 6],
            _ => 60 + (i % 50) as usize,
        };
        let payload: Vec<u8> = (0..len).map(|j| (i as usize * 31 + j) as u8).collect();
        let addr = writer.push(ids[who], &payload).unwrap();
        last_chunk = addr / CHUNK;
        if who == 0 {
            sparse_chunk = last_chunk;
        }
        recs[who].push(Pushed { addr, ts, payload });
        // Flush part of the tail chunk, so the live snapshot holds the
        // rest of it in memory.
        if i == N - 40 {
            writer.sync().unwrap();
        }
    }
    let tail = recs.iter().flatten().map(|r| r.addr).max().unwrap();
    assert_ne!(tail % CHUNK, 0, "the last chunk must be unsealed");
    assert!(recs[0].len() > 30, "{} sparse records", recs[0].len());

    let mut ranges = vec![
        TimeRange::new(0, u64::MAX),
        TimeRange::new(0, 5),
        TimeRange::new(N * DT + 1_000, u64::MAX),
    ];
    for (a, b) in [
        (1, 2),
        (7, 8),
        (100, 2_000),
        (3_333, 3_334),
        (4_000, 8_995),
        (8_950, 8_999),
    ] {
        // Between records, so the range's ends cut whatever chunk they
        // fall in.
        ranges.push(TimeRange::new(a * DT + 3, b * DT + 7));
    }
    let check_all = |loom: &Loom, floor: u64, what: &str| {
        for (k, r) in recs.iter().enumerate().take(3) {
            for &range in &ranges {
                check_raw_scan(
                    loom,
                    ids[k],
                    r,
                    floor,
                    mark_period,
                    range,
                    &format!("{what}, {}", names[k]),
                );
            }
        }
    };

    check_all(&loom, 0, "live");
    writer.close().unwrap();
    drop(loom);

    let (loom, mut writer) = Loom::open_with_clock(config.clone(), Clock::manual(0)).unwrap();
    assert!(loom.recovery_report().unwrap().clean);
    check_all(&loom, 0, "clean reopen");
    writer.sync_durable().unwrap();
    writer.simulate_crash();
    drop(loom);

    let (loom, writer) = Loom::open_with_clock(config.clone(), Clock::manual(0)).unwrap();
    assert!(!loom.recovery_report().unwrap().clean);
    check_all(&loom, 0, "crash reopen");
    writer.close().unwrap();
    drop(loom);

    // History spans N * DT = 90,000 ns: four 25,000-ns slices, of which
    // a round at now ≈ 91,000 drops the first alone.
    let aging = loom::RetentionConfig {
        enabled: true,
        cold_after: 0,
        slice: 25_000,
        drop_after: Some(60_000),
        interval: None,
        compact_on_seal: false,
    };
    let (loom, writer) =
        Loom::open_with_clock(raw_scan_config(&dir, aging), Clock::manual(0)).unwrap();
    loom.clock().advance(1_000);
    loom.compact().unwrap();
    let tier = &loom.tier_stats()[0];
    assert!(tier.hot_chunks <= 1, "every sealed chunk ages: {tier:?}");
    assert_eq!(tier.cold.pruned_slices, 1, "{tier:?}");
    let floor = tier.cold.pruned_chunks * CHUNK;
    assert!(floor > 0 && floor < tail);
    check_all(&loom, floor, "aged and pruned");
    writer.close().unwrap();
    drop(loom);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The metric's value in the engine's snapshot.
fn counter(loom: &Loom, name: &str) -> u64 {
    loom.metrics_snapshot()
        .named_values()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .unwrap()
}

/// The raw scan's work budget, which timing noise cannot blur: a source
/// with one record in eight costs at most two reads of the record log
/// per chunk piece its chain visits, and a source with one record per
/// chunk at most one read per record.
#[test]
fn raw_scan_reads_scale_with_chain_density() {
    // The read counter is a self-obs no-op when the feature is compiled
    // out.
    if !cfg!(feature = "self-obs") {
        return;
    }
    const CHUNK: u64 = 16 * 1024;
    let dir = std::env::temp_dir().join(format!("loom-engine-rawreads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = raw_scan_config(&dir, loom::RetentionConfig::default());
    let (loom, mut writer) = Loom::open_with_clock(config, Clock::manual(0)).unwrap();
    let sparse = loom.define_source("sparse");
    let dense = loom.define_source("dense");
    let noise = loom.define_source("noise");
    let mut last_chunk = u64::MAX;
    let mut sparse_chunk = u64::MAX;
    for i in 0..40_000u64 {
        loom.clock().advance(10);
        let source = if last_chunk != sparse_chunk {
            sparse
        } else if i % 8 == 0 {
            dense
        } else {
            noise
        };
        let addr = writer.push(source, &[i as u8; 48]).unwrap();
        last_chunk = addr / CHUNK;
        if source == sparse {
            sparse_chunk = last_chunk;
        }
    }
    writer.sync().unwrap();

    let all = TimeRange::new(0, u64::MAX);
    let reads = |source| {
        let before = counter(&loom, "loom_query_raw_scan_reads_total");
        let mut chunks = std::collections::BTreeSet::new();
        let stats = loom
            .raw_scan(source, all, |r| {
                chunks.insert(r.addr / CHUNK);
            })
            .unwrap();
        let reads = counter(&loom, "loom_query_raw_scan_reads_total") - before;
        (reads, chunks.len() as u64, stats.records_scanned)
    };
    let (dense_reads, dense_chunks, _) = reads(dense);
    assert!(dense_chunks >= 10, "{dense_chunks} chunks");
    assert!(
        dense_reads <= 2 * dense_chunks,
        "{dense_reads} reads for {dense_chunks} chunk pieces"
    );
    let (sparse_reads, sparse_chunks, sparse_records) = reads(sparse);
    assert_eq!(sparse_chunks, sparse_records, "one sparse record per chunk");
    assert!(
        sparse_reads <= sparse_records,
        "{sparse_reads} reads for {sparse_records} records"
    );
    writer.close().unwrap();
    drop(loom);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn indexed_scan_matches_brute_force_filter() {
    let mut env = TestEnv::new("iscan");
    let s = env.loom.define_source("src");
    let idx = env
        .loom
        .define_index(s, extract::u64_le_at(0), latency_spec())
        .unwrap();
    // Mixed values across bins, with rare outliers.
    let pushed = push_values(&mut env, s, 2_000, 5, |i| {
        if i % 500 == 137 {
            50_000 + i
        } else {
            i % 900
        }
    });

    let range = TimeRange::new(pushed[200].0, pushed[1800].0);
    let values = ValueRange::at_least(10_000.0);
    let mut got = Vec::new();
    let stats = env
        .loom
        .query(s)
        .index(idx)
        .range(range)
        .value_range(values)
        .scan(|r| {
            got.push((r.ts, u64::from_le_bytes(r.payload.try_into().unwrap())));
        })
        .unwrap();

    let mut expected: Vec<_> = pushed[200..=1800]
        .iter()
        .copied()
        .filter(|(_, v)| *v >= 10_000)
        .collect();
    got.sort();
    expected.sort();
    assert_eq!(got, expected);
    // The sparse index must have skipped most chunks: only chunks holding
    // outliers (plus the active tail) get scanned.
    assert!(
        stats.chunks_scanned < stats.summaries_scanned,
        "index did not skip chunks: {stats:?}"
    );
}

#[test]
fn indexed_scan_all_ablation_modes_agree() {
    let mut env = TestEnv::new("ablation");
    let s = env.loom.define_source("src");
    let idx = env
        .loom
        .define_index(s, extract::u64_le_at(0), latency_spec())
        .unwrap();
    let pushed = push_values(&mut env, s, 3_000, 3, |i| (i * 7919) % 20_000);

    let range = TimeRange::new(pushed[500].0, pushed[2500].0);
    let values = ValueRange::new(500.0, 1_500.0);
    let expected: std::collections::BTreeSet<_> = pushed[500..=2500]
        .iter()
        .copied()
        .filter(|(_, v)| (500..=1500).contains(v))
        .collect();
    assert!(!expected.is_empty());

    for (use_ts, use_chunk) in [(true, true), (true, false), (false, true), (false, false)] {
        let opts = QueryOptions {
            use_ts_index: use_ts,
            use_chunk_index: use_chunk,
            ..QueryOptions::default()
        };
        let mut got = std::collections::BTreeSet::new();
        env.loom
            .query(s)
            .index(idx)
            .range(range)
            .value_range(values)
            .options(opts)
            .scan(|r| {
                got.insert((r.ts, u64::from_le_bytes(r.payload.try_into().unwrap())));
            })
            .unwrap();
        assert_eq!(
            got, expected,
            "ablation mode ts={use_ts} chunk={use_chunk} disagrees"
        );
    }
}

#[test]
fn distributive_aggregates_match_brute_force() {
    let mut env = TestEnv::new("agg");
    let s = env.loom.define_source("src");
    let idx = env
        .loom
        .define_index(s, extract::u64_le_at(0), latency_spec())
        .unwrap();
    let pushed = push_values(&mut env, s, 2_500, 4, |i| (i * 31) % 5_000);

    let range = TimeRange::new(pushed[300].0, pushed[2200].0);
    let in_range: Vec<f64> = pushed[300..=2200].iter().map(|(_, v)| *v as f64).collect();

    let count = env
        .loom
        .query(s)
        .index(idx)
        .range(range)
        .aggregate(Aggregate::Count)
        .unwrap();
    assert_eq!(count.value, Some(in_range.len() as f64));

    let sum = env
        .loom
        .query(s)
        .index(idx)
        .range(range)
        .aggregate(Aggregate::Sum)
        .unwrap();
    assert!((sum.value.unwrap() - in_range.iter().sum::<f64>()).abs() < 1e-6);

    let min = env
        .loom
        .query(s)
        .index(idx)
        .range(range)
        .aggregate(Aggregate::Min)
        .unwrap();
    assert_eq!(min.value, in_range.iter().copied().reduce(f64::min));

    let max = env
        .loom
        .query(s)
        .index(idx)
        .range(range)
        .aggregate(Aggregate::Max)
        .unwrap();
    assert_eq!(max.value, in_range.iter().copied().reduce(f64::max));

    let mean = env
        .loom
        .query(s)
        .index(idx)
        .range(range)
        .aggregate(Aggregate::Mean)
        .unwrap();
    let expected_mean = in_range.iter().sum::<f64>() / in_range.len() as f64;
    assert!((mean.value.unwrap() - expected_mean).abs() < 1e-9);
}

#[test]
fn percentiles_match_nearest_rank_reference() {
    let mut env = TestEnv::new("pctl");
    let s = env.loom.define_source("src");
    let idx = env
        .loom
        .define_index(s, extract::u64_le_at(0), latency_spec())
        .unwrap();
    let pushed = push_values(&mut env, s, 4_000, 2, |i| (i * 48_271) % 30_000);

    let range = TimeRange::new(pushed[100].0, pushed[3900].0);
    let mut sorted: Vec<f64> = pushed[100..=3900].iter().map(|(_, v)| *v as f64).collect();
    sorted.sort_by(f64::total_cmp);

    for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
        let result = env
            .loom
            .query(s)
            .index(idx)
            .range(range)
            .aggregate(Aggregate::Percentile(p))
            .unwrap();
        let n = sorted.len() as f64;
        let rank = ((p / 100.0 * n).ceil() as usize).clamp(1, sorted.len());
        let expected = sorted[rank - 1];
        assert_eq!(
            result.value,
            Some(expected),
            "p{p} mismatch (rank {rank} of {n})"
        );
    }
}

#[test]
fn aggregate_over_empty_range_is_none() {
    let mut env = TestEnv::new("agg-empty");
    let s = env.loom.define_source("src");
    let idx = env
        .loom
        .define_index(s, extract::u64_le_at(0), latency_spec())
        .unwrap();
    push_values(&mut env, s, 100, 10, |i| i);
    // A range before any data.
    let r = env
        .loom
        .query(s)
        .index(idx)
        .range(TimeRange::new(0, 500))
        .aggregate(Aggregate::Max)
        .unwrap();
    assert_eq!(r.value, None);
    assert_eq!(r.count, 0);
    let r = env
        .loom
        .query(s)
        .index(idx)
        .range(TimeRange::new(0, 500))
        .aggregate(Aggregate::Percentile(99.0))
        .unwrap();
    assert_eq!(r.value, None);
}

#[test]
fn percentile_out_of_range_is_rejected() {
    let mut env = TestEnv::new("pctl-bad");
    let s = env.loom.define_source("src");
    let idx = env
        .loom
        .define_index(s, extract::u64_le_at(0), latency_spec())
        .unwrap();
    push_values(&mut env, s, 10, 10, |i| i);
    assert!(env
        .loom
        .query(s)
        .index(idx)
        .range(TimeRange::new(0, u64::MAX))
        .aggregate(Aggregate::Percentile(101.0))
        .is_err());
}

#[test]
fn querying_while_ingesting_sees_consistent_data() {
    let mut env = TestEnv::new("concurrent-query");
    let s = env.loom.define_source("src");
    let idx = env
        .loom
        .define_index(s, extract::u64_le_at(0), latency_spec())
        .unwrap();
    // Interleave pushes and queries: after every batch, a query over the
    // full range must see exactly the records pushed so far.
    let mut total = 0u64;
    for batch in 0..20 {
        push_values(&mut env, s, 150, 3, |i| i + batch * 150);
        total += 150;
        let r = env
            .loom
            .query(s)
            .index(idx)
            .range(TimeRange::new(0, u64::MAX))
            .aggregate(Aggregate::Count)
            .unwrap();
        assert_eq!(r.value, Some(total as f64), "batch {batch}");
    }
}

#[test]
fn closed_source_rejects_pushes_but_remains_queryable() {
    let mut env = TestEnv::new("close-source");
    let s = env.loom.define_source("src");
    push_values(&mut env, s, 100, 10, |i| i);
    env.loom.close_source(s).unwrap();
    assert!(env.writer.push(s, &0u64.to_le_bytes()).is_err());
    let mut count = 0;
    env.loom
        .raw_scan(s, TimeRange::new(0, u64::MAX), |_| count += 1)
        .unwrap();
    assert_eq!(count, 100);
}

#[test]
fn unknown_ids_error() {
    let env = TestEnv::new("unknown");
    let s = env.loom.define_source("src");
    let bogus_source = SourceId(999);
    assert!(env
        .loom
        .raw_scan(bogus_source, TimeRange::new(0, 1), |_| {})
        .is_err());
    assert!(env.loom.close_source(bogus_source).is_err());
    let spec = latency_spec();
    assert!(env
        .loom
        .define_index(bogus_source, extract::u64_le_at(0), spec)
        .is_err());
    let _ = s;
}

#[test]
fn index_source_mismatch_is_rejected() {
    let mut env = TestEnv::new("mismatch");
    let a = env.loom.define_source("a");
    let b = env.loom.define_source("b");
    let idx = env
        .loom
        .define_index(a, extract::u64_le_at(0), latency_spec())
        .unwrap();
    push_values(&mut env, a, 10, 5, |i| i);
    let err = env
        .loom
        .query(b)
        .index(idx)
        .range(TimeRange::new(0, u64::MAX))
        .value_range(ValueRange::all())
        .scan(|_| {})
        .unwrap_err();
    assert!(err.to_string().contains("defined over source"));
}

#[test]
fn late_defined_index_covers_only_new_data() {
    let mut env = TestEnv::new("late-index");
    let s = env.loom.define_source("src");
    // 1000 records before the index exists.
    let before = push_values(&mut env, s, 1000, 5, |i| i % 100);
    env.writer.seal_active_chunk().unwrap();
    let idx = env
        .loom
        .define_index(s, extract::u64_le_at(0), latency_spec())
        .unwrap();
    let after = push_values(&mut env, s, 1000, 5, |i| 200 + i % 100);

    // An indexed scan over everything returns only post-definition data
    // (§5.3: older data is not re-indexed).
    let mut got = Vec::new();
    env.loom
        .query(s)
        .index(idx)
        .range(TimeRange::new(0, u64::MAX))
        .value_range(ValueRange::all())
        .scan(|r| {
            got.push(u64::from_le_bytes(r.payload.try_into().unwrap()));
        })
        .unwrap();
    assert_eq!(got.len(), after.len());
    assert!(got.iter().all(|v| *v >= 200));

    // Raw scans still see everything.
    let mut count = 0;
    env.loom
        .raw_scan(s, TimeRange::new(0, u64::MAX), |_| count += 1)
        .unwrap();
    assert_eq!(count as usize, before.len() + after.len());
}

#[test]
fn record_too_large_is_rejected() {
    let mut env = TestEnv::new("too-large");
    let s = env.loom.define_source("src");
    let max = Config::small("/tmp/unused").max_record_payload();
    assert!(env.writer.push(s, &vec![0u8; max + 1]).is_err());
    assert!(env.writer.push(s, &vec![0u8; max]).is_ok());
}

#[test]
fn variable_size_payloads_round_trip() {
    let mut env = TestEnv::new("varsize");
    let s = env.loom.define_source("src");
    let mut pushed = Vec::new();
    for i in 0..400u64 {
        let ts = env.loom.clock().advance(9);
        let len = 1 + (i as usize * 13) % 300;
        let payload: Vec<u8> = (0..len).map(|j| ((i as usize + j) % 251) as u8).collect();
        env.writer.push(s, &payload).unwrap();
        pushed.push((ts, payload));
    }
    let mut got = Vec::new();
    env.loom
        .raw_scan(s, TimeRange::new(0, u64::MAX), |r| {
            got.push((r.ts, r.payload.to_vec()));
        })
        .unwrap();
    pushed.reverse();
    assert_eq!(got, pushed);
}

#[test]
fn sync_bounds_durable_loss() {
    let mut env = TestEnv::new("sync");
    let s = env.loom.define_source("src");
    push_values(&mut env, s, 1000, 5, |i| i);
    env.writer.sync().unwrap();
    // After sync, the record log file must contain every published byte.
    // With one source the whole workload lands on its home shard's log
    // (flat layout at shards = 1, `shard-N/` otherwise).
    let log = if env.loom.shard_count() == 1 {
        env.dir.join("records.log")
    } else {
        env.dir
            .join(format!("shard-{}", env.loom.home_shard(s)))
            .join("records.log")
    };
    let meta = std::fs::metadata(log).unwrap();
    let stats = env.loom.ingest_stats();
    assert!(meta.len() >= stats.bytes());
}

#[test]
fn ingest_stats_track_pushes_and_seals() {
    let mut env = TestEnv::new("stats");
    let s = env.loom.define_source("src");
    push_values(&mut env, s, 1000, 5, |i| i);
    let stats = env.loom.ingest_stats();
    assert_eq!(stats.records(), 1000);
    assert_eq!(stats.bytes(), 1000 * (28 + 8));
    // 32 KiB written into 4 KiB chunks: several seals must have happened.
    assert!(
        stats.chunks_sealed() >= 7,
        "seals: {}",
        stats.chunks_sealed()
    );
    assert!(stats.ts_entries() > 0);
}

#[test]
fn many_sources_with_indexes_do_not_interfere() {
    let mut env = TestEnv::new("many-sources");
    let sources: Vec<_> = (0..8)
        .map(|i| env.loom.define_source(&format!("src{i}")))
        .collect();
    let indexes: Vec<_> = sources
        .iter()
        .map(|s| {
            env.loom
                .define_index(*s, extract::u64_le_at(0), latency_spec())
                .unwrap()
        })
        .collect();
    // Round-robin pushes with per-source value offsets.
    for i in 0..4_000u64 {
        env.loom.clock().advance(1);
        let which = (i % 8) as usize;
        let v = i / 8 + (which as u64) * 10_000;
        env.writer.push(sources[which], &v.to_le_bytes()).unwrap();
    }
    for (k, (s, idx)) in sources.iter().zip(&indexes).enumerate() {
        let r = env
            .loom
            .query(*s)
            .index(*idx)
            .range(TimeRange::new(0, u64::MAX))
            .aggregate(Aggregate::Count)
            .unwrap();
        assert_eq!(r.value, Some(500.0), "source {k}");
        let min = env
            .loom
            .query(*s)
            .index(*idx)
            .range(TimeRange::new(0, u64::MAX))
            .aggregate(Aggregate::Min)
            .unwrap();
        assert_eq!(min.value, Some((k as f64) * 10_000.0), "source {k}");
    }
}

#[test]
fn exact_match_index_emulation_finds_only_matches() {
    let mut env = TestEnv::new("exact-match");
    let s = env.loom.define_source("src");
    let idx = env
        .loom
        .define_index(
            s,
            extract::u64_le_at(0),
            HistogramSpec::exact_match(42.0).unwrap(),
        )
        .unwrap();
    push_values(&mut env, s, 2_000, 3, |i| {
        if i % 97 == 0 {
            42
        } else {
            i % 1000
        }
    });
    let mut got = Vec::new();
    let stats = env
        .loom
        .query(s)
        .index(idx)
        .range(TimeRange::new(0, u64::MAX))
        .value_range(ValueRange::new(42.0, 42.0))
        .scan(|r| got.push(u64::from_le_bytes(r.payload.try_into().unwrap())))
        .unwrap();
    // 42 appears at i = 0, 97, 194, ... but only when i % 1000 != 42 path;
    // count directly:
    let expected = (0..2000u64)
        .filter(|i| i % 97 == 0 || i % 1000 == 42)
        .count();
    assert_eq!(got.len(), expected);
    assert!(got.iter().all(|v| *v == 42));
    assert!(stats.summaries_scanned > 0);
}

#[test]
fn concurrent_reader_thread_never_sees_inconsistency() {
    // Spin a real reader thread issuing aggregates while the writer pushes.
    let mut env = TestEnv::new("reader-thread");
    let s = env.loom.define_source("src");
    let idx = env
        .loom
        .define_index(s, extract::u64_le_at(0), latency_spec())
        .unwrap();
    let reader_loom = env.loom.clone();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_r = Arc::clone(&stop);
    let reader = std::thread::spawn(move || {
        let mut queries = 0u64;
        while !stop_r.load(std::sync::atomic::Ordering::Relaxed) {
            let r = reader_loom
                .query(s)
                .index(idx)
                .range(TimeRange::new(0, u64::MAX))
                .aggregate(Aggregate::Count)
                .unwrap();
            // Counts must be monotone over time; checked via max-so-far.
            queries = queries.max(r.value.unwrap_or(0.0) as u64);
        }
        queries
    });
    push_values(&mut env, s, 30_000, 1, |i| i % 10_000);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let max_seen = reader.join().unwrap();
    assert!(max_seen <= 30_000);
    let final_count = env
        .loom
        .query(s)
        .index(idx)
        .range(TimeRange::new(0, u64::MAX))
        .aggregate(Aggregate::Count)
        .unwrap();
    assert_eq!(final_count.value, Some(30_000.0));
}

#[test]
fn external_timestamps_are_queryable_via_an_index() {
    // §5.2: records can carry their own (possibly out-of-order) external
    // timestamps; indexing them as values lets chunk summaries capture
    // min/max external-ts per chunk, so an indexed scan over an external
    // time range touches only the overlapping chunks.
    let mut env = TestEnv::new("external-ts");
    let s = env.loom.define_source("src");
    // Payload layout: [external_ts: u64][value: u64].
    let ext_idx = env
        .loom
        .define_index(
            s,
            extract::u64_le_at(0),
            HistogramSpec::uniform(0.0, 1_000_000.0, 16).unwrap(),
        )
        .unwrap();
    // External timestamps arrive slightly out of order (jitter of up to
    // 1000 units against arrival order).
    let mut payload = [0u8; 16];
    let mut expected = 0u64;
    for i in 0..5_000u64 {
        env.loom.clock().advance(7);
        let ext_ts = i * 100 + ((i * 37) % 1_000);
        payload[0..8].copy_from_slice(&ext_ts.to_le_bytes());
        payload[8..16].copy_from_slice(&i.to_le_bytes());
        env.writer.push(s, &payload).unwrap();
        if (200_000..=300_000).contains(&ext_ts) {
            expected += 1;
        }
    }
    // Query by *external* time range via the index; Loom's own time range
    // stays unbounded.
    let mut got = Vec::new();
    env.loom
        .query(s)
        .index(ext_idx)
        .range(TimeRange::new(0, u64::MAX))
        .value_range(ValueRange::new(200_000.0, 300_000.0))
        .scan(|r| {
            let ext = u64::from_le_bytes(r.payload[0..8].try_into().unwrap());
            got.push(ext);
        })
        .unwrap();
    assert_eq!(got.len() as u64, expected);
    assert!(got.iter().all(|e| (200_000..=300_000).contains(e)));
    // The client sorts by embedded external timestamp (§5.2).
    got.sort();
    assert!(got.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn index_redefinition_covers_only_new_data_without_ingest_impact() {
    // §5.3: when the workload changes, close the stale index and define a
    // new histogram; old data is not re-indexed, and the new index serves
    // data arriving after its definition.
    let mut env = TestEnv::new("redefine");
    let s = env.loom.define_source("src");
    let coarse = env
        .loom
        .define_index(
            s,
            extract::u64_le_at(0),
            HistogramSpec::uniform(0.0, 1_000.0, 2).unwrap(),
        )
        .unwrap();
    push_values(&mut env, s, 800, 5, |i| i % 1_000);
    env.writer.seal_active_chunk().unwrap();
    let cutover = env.loom.now();

    // Workload shifts to a wider value range: redefine.
    env.loom.close_index(coarse).unwrap();
    let fine = env
        .loom
        .define_index(
            s,
            extract::u64_le_at(0),
            HistogramSpec::uniform(0.0, 100_000.0, 20).unwrap(),
        )
        .unwrap();
    push_values(&mut env, s, 800, 5, |i| 10_000 + i * 100);

    // The new index answers over post-cutover data.
    let r = env
        .loom
        .query(s)
        .index(fine)
        .range(TimeRange::new(cutover, u64::MAX))
        .aggregate(Aggregate::Max)
        .unwrap();
    assert_eq!(r.value, Some(10_000.0 + 799.0 * 100.0));
    // And sees none of the pre-cutover records (not re-indexed).
    let r = env
        .loom
        .query(s)
        .index(fine)
        .range(TimeRange::new(0, u64::MAX))
        .aggregate(Aggregate::Count)
        .unwrap();
    assert_eq!(r.value, Some(800.0));
    // The closed index still serves its own epoch's chunks.
    let r = env
        .loom
        .query(s)
        .index(coarse)
        .range(TimeRange::new(0, cutover))
        .aggregate(Aggregate::Count)
        .unwrap();
    assert_eq!(r.value, Some(800.0));
    // Raw scans are unaffected by index churn.
    let mut n = 0;
    env.loom
        .raw_scan(s, TimeRange::new(0, u64::MAX), |_| n += 1)
        .unwrap();
    assert_eq!(n, 1_600);
}

#[test]
fn bin_counts_sum_to_indexed_record_count() {
    let mut env = TestEnv::new("bin-counts");
    let s = env.loom.define_source("src");
    let idx = env
        .loom
        .define_index(s, extract::u64_le_at(0), latency_spec())
        .unwrap();
    let pushed = push_values(&mut env, s, 3_000, 3, |i| (i * 17) % 120_000);
    let range = TimeRange::new(pushed[500].0, pushed[2500].0);
    let (counts, stats) = env
        .loom
        .query(s)
        .index(idx)
        .range(range)
        .bin_counts()
        .unwrap();
    assert_eq!(counts.iter().sum::<u64>(), 2_001);
    assert!(stats.summaries_scanned > 0);
    // Brute-force per-bin reference.
    let spec = latency_spec();
    let mut reference = vec![0u64; spec.bin_count()];
    for (_, v) in &pushed[500..=2500] {
        reference[spec.bin_of(*v as f64).unwrap()] += 1;
    }
    assert_eq!(counts, reference);
}

/// NaN cannot be binned, so a sealed chunk's summary leaves it out; the
/// exact decode of the tail and of a chunk the range cuts must leave it
/// out too, or an answer would change when its chunk seals.
#[test]
fn nan_values_count_nowhere_sealed_or_not() {
    let mut env = TestEnv::new("nan");
    let s = env.loom.define_source("src");
    let idx = env
        .loom
        .define_index(s, extract::f64_le_at(0), latency_spec())
        .unwrap();
    let mut pushed = Vec::new();
    for i in 0..50u64 {
        let ts = env.loom.clock().advance(10);
        let v = if i % 5 == 0 { f64::NAN } else { i as f64 };
        env.writer.push(s, &v.to_le_bytes()).unwrap();
        pushed.push((ts, v));
    }
    let ranges = [
        TimeRange::new(0, u64::MAX),
        TimeRange::new(pushed[7].0, pushed[33].0),
    ];
    let methods = [
        Aggregate::Count,
        Aggregate::Sum,
        Aggregate::Min,
        Aggregate::Max,
        Aggregate::Mean,
        Aggregate::Percentile(100.0),
    ];
    let answers = |loom: &Loom| {
        let mut out = Vec::new();
        for range in ranges {
            for m in methods {
                let r = loom.query(s).index(idx).range(range).aggregate(m).unwrap();
                out.push((r.value.map(f64::to_bits), r.count));
            }
        }
        out
    };
    let unsealed = answers(&env.loom);
    env.writer.seal_active_chunk().unwrap();
    let sealed = answers(&env.loom);
    assert_eq!(unsealed, sealed, "answers changed when the chunk sealed");

    let mut expected = Vec::new();
    for range in ranges {
        let kept: Vec<f64> = pushed
            .iter()
            .filter(|(ts, v)| range.contains(*ts) && !v.is_nan())
            .map(|(_, v)| *v)
            .collect();
        let n = kept.len() as f64;
        let sum: f64 = kept.iter().sum();
        let max = kept.iter().copied().reduce(f64::max);
        for value in [
            Some(n),
            Some(sum),
            kept.iter().copied().reduce(f64::min),
            max,
        ] {
            expected.push((value.map(f64::to_bits), kept.len() as u64));
        }
        expected.push((Some((sum / n).to_bits()), kept.len() as u64));
        expected.push((max.map(f64::to_bits), kept.len() as u64));
    }
    assert_eq!(sealed, expected);
    assert_eq!(
        sealed[..2],
        [(Some(40f64.to_bits()), 40), (Some(1000f64.to_bits()), 40)]
    );
}

#[test]
fn zero_length_payloads_are_valid_records() {
    let mut env = TestEnv::new("zero-len");
    let s = env.loom.define_source("src");
    for _ in 0..100 {
        env.loom.clock().advance(5);
        env.writer.push(s, &[]).unwrap();
    }
    let mut n = 0;
    env.loom
        .raw_scan(s, TimeRange::new(0, u64::MAX), |r| {
            assert!(r.payload.is_empty());
            n += 1;
        })
        .unwrap();
    assert_eq!(n, 100);
}

#[test]
fn max_size_records_force_chunk_per_record() {
    let mut env = TestEnv::new("max-size");
    let s = env.loom.define_source("src");
    let max = Config::small("/unused").max_record_payload();
    let mut payload = vec![0u8; max];
    for i in 0..20u64 {
        env.loom.clock().advance(5);
        payload[0..8].copy_from_slice(&i.to_le_bytes());
        env.writer.push(s, &payload).unwrap();
    }
    // Each record exactly fills one chunk: 20 seals, zero padding.
    assert_eq!(env.loom.ingest_stats().chunks_sealed(), 20);
    assert_eq!(env.loom.ingest_stats().pad_bytes(), 0);
    let mut got = Vec::new();
    env.loom
        .raw_scan(s, TimeRange::new(0, u64::MAX), |r| {
            got.push(u64::from_le_bytes(r.payload[0..8].try_into().unwrap()));
        })
        .unwrap();
    assert_eq!(got, (0..20u64).rev().collect::<Vec<_>>());
}

#[test]
fn pad_heavy_workload_round_trips() {
    // Payload sized so two records never share a chunk: every record
    // triggers padding, stressing the pad/seal path.
    let mut env = TestEnv::new("pad-heavy");
    let s = env.loom.define_source("src");
    let chunk = 4 * 1024; // Config::small chunk size
    let payload_len = chunk / 2 + 100;
    let mut payload = vec![0xA5u8; payload_len];
    for i in 0..200u64 {
        env.loom.clock().advance(3);
        payload[0..8].copy_from_slice(&i.to_le_bytes());
        env.writer.push(s, &payload).unwrap();
    }
    assert!(env.loom.ingest_stats().pad_bytes() > 0);
    let mut n = 0u64;
    env.loom
        .raw_scan(s, TimeRange::new(0, u64::MAX), |r| {
            assert_eq!(r.payload.len(), payload_len);
            n += 1;
        })
        .unwrap();
    assert_eq!(n, 200);
}

#[test]
fn mark_period_one_marks_every_record() {
    let dir = std::env::temp_dir().join(format!("loom-engine-period1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = Config::small(&dir).with_ts_mark_period(1);
    let (loom, mut writer) = Loom::open_with_clock(config, Clock::manual(0)).unwrap();
    let s = loom.define_source("src");
    for i in 0..500u64 {
        loom.clock().advance(10);
        writer.push(s, &i.to_le_bytes()).unwrap();
    }
    // Entries = 500 marks + seal entries.
    let seals = loom.ingest_stats().chunks_sealed();
    assert_eq!(loom.ingest_stats().ts_entries(), 500 + seals);
    // Historical raw scans seek precisely.
    let mut n = 0;
    loom.raw_scan(s, TimeRange::new(1_000, 2_000), |_| n += 1)
        .unwrap();
    assert_eq!(n, 101);
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queries_spanning_memory_and_disk_are_seamless() {
    let mut env = TestEnv::new("mem-disk");
    let s = env.loom.define_source("src");
    let idx = env
        .loom
        .define_index(s, extract::u64_le_at(0), latency_spec())
        .unwrap();
    // First half, then force everything to disk, then second half (which
    // stays in the staging blocks).
    let first = push_values(&mut env, s, 2_000, 5, |i| i % 7_000);
    env.writer.sync().unwrap();
    let _second = push_values(&mut env, s, 2_000, 5, |i| i % 7_000);

    // A window straddling the boundary.
    let range = TimeRange::new(first[1_500].0, env.loom.now());
    let count = env
        .loom
        .query(s)
        .index(idx)
        .range(range)
        .aggregate(Aggregate::Count)
        .unwrap();
    assert_eq!(count.value, Some(2_500.0));
    let mut n = 0;
    env.loom
        .query(s)
        .index(idx)
        .range(range)
        .value_range(ValueRange::at_least(6_000.0))
        .scan(|_| n += 1)
        .unwrap();
    let expected = first[1_500..]
        .iter()
        .chain(&_second)
        .filter(|(_, v)| *v >= 6_000)
        .count();
    assert_eq!(n, expected);
}

#[test]
fn query_options_default_is_serial_with_both_indexes() {
    // Regression guard: adding the parallelism knob must not change the
    // default execution mode — both indexes on, no explicit pool size
    // (which resolves to `Config::query_threads`, itself defaulting to 1).
    let opts = QueryOptions::default();
    assert!(opts.use_ts_index);
    assert!(opts.use_chunk_index);
    assert_eq!(opts.parallelism, None);
    assert_eq!(
        QueryOptions::default().with_parallelism(0).parallelism,
        None
    );
    assert_eq!(
        QueryOptions::default()
            .with_parallelism(4)
            .parallelism
            .map(|n| n.get()),
        Some(4)
    );
    assert_eq!(Config::small("/unused").query_threads, 1);

    // A default-options query on a default config reports serial execution.
    let mut env = TestEnv::new("default-serial");
    let s = env.loom.define_source("src");
    let idx = env
        .loom
        .define_index(s, extract::u64_le_at(0), latency_spec())
        .unwrap();
    push_values(&mut env, s, 2_000, 3, |i| i % 900);
    let stats = env
        .loom
        .query(s)
        .index(idx)
        .range(TimeRange::new(0, u64::MAX))
        .value_range(ValueRange::all())
        .scan(|_| {})
        .unwrap();
    assert_eq!(stats.workers_used, 1, "default must stay serial: {stats:?}");
}

#[test]
fn parallel_queries_agree_with_serial_under_live_ingest() {
    // A reader thread issues parallel and serial queries over identical
    // snapshots while the writer keeps pushing and the flusher runs;
    // results must agree at every step, and counts must be monotone.
    let mut env = TestEnv::new("parallel-live");
    let s = env.loom.define_source("src");
    let idx = env
        .loom
        .define_index(s, extract::u64_le_at(0), latency_spec())
        .unwrap();
    let reader_loom = env.loom.clone();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_r = Arc::clone(&stop);
    let reader = std::thread::spawn(move || {
        let range = TimeRange::new(0, u64::MAX);
        let vr = ValueRange::at_least(2_000.0);
        let par = QueryOptions::default().with_parallelism(4);
        let mut last_count = 0u64;
        let mut rounds = 0u64;
        while !stop_r.load(std::sync::atomic::Ordering::Relaxed) {
            // Parallel scan against a live log: output must be internally
            // consistent (log-ordered) and counts monotone over rounds.
            let mut recs = Vec::new();
            let stats = reader_loom
                .query(s)
                .index(idx)
                .range(range)
                .value_range(vr)
                .options(par)
                .scan(|r| recs.push(r.addr))
                .unwrap();
            assert!(
                recs.windows(2).all(|w| w[0] < w[1]),
                "parallel scan delivered records out of log order"
            );
            assert_eq!(recs.len() as u64, stats.records_matched);
            // Aggregates: a serial query races ahead of the parallel one
            // here (different snapshots), so compare against monotonicity
            // rather than equality with a racing snapshot.
            let count = reader_loom
                .query(s)
                .index(idx)
                .range(range)
                .options(par)
                .aggregate(Aggregate::Count)
                .unwrap();
            let c = count.value.unwrap_or(0.0) as u64;
            assert!(c >= last_count, "count went backwards: {c} < {last_count}");
            last_count = c;
            rounds += 1;
        }
        rounds
    });
    push_values(&mut env, s, 30_000, 1, |i| i % 10_000);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let rounds = reader.join().unwrap();
    assert!(rounds > 0, "reader thread never completed a query");

    // Once ingest quiesces, serial and parallel must agree exactly.
    let range = TimeRange::new(0, u64::MAX);
    let serial = QueryOptions::default().with_parallelism(1);
    let par = QueryOptions::default().with_parallelism(8);
    for method in [
        Aggregate::Count,
        Aggregate::Sum,
        Aggregate::Percentile(99.0),
    ] {
        let a = env
            .loom
            .query(s)
            .index(idx)
            .range(range)
            .options(serial)
            .aggregate(method)
            .unwrap();
        let b = env
            .loom
            .query(s)
            .index(idx)
            .range(range)
            .options(par)
            .aggregate(method)
            .unwrap();
        assert_eq!(a.value, b.value, "{method:?}");
        assert_eq!(a.count, b.count, "{method:?}");
    }
    let stats = env
        .loom
        .query(s)
        .index(idx)
        .range(range)
        .value_range(ValueRange::all())
        .options(par)
        .scan(|_| {})
        .unwrap();
    assert!(
        stats.workers_used > 1,
        "expected the pool to engage: {stats:?}"
    );
}

#[test]
fn value_range_edge_semantics_are_inclusive() {
    let mut env = TestEnv::new("inclusive");
    let s = env.loom.define_source("src");
    let idx = env
        .loom
        .define_index(s, extract::u64_le_at(0), latency_spec())
        .unwrap();
    push_values(&mut env, s, 100, 5, |i| i);
    let count = |lo: f64, hi: f64| {
        let mut n = 0;
        env.loom
            .query(s)
            .index(idx)
            .range(TimeRange::new(0, u64::MAX))
            .value_range(ValueRange::new(lo, hi))
            .scan(|_| n += 1)
            .unwrap();
        n
    };
    assert_eq!(count(10.0, 20.0), 11); // both endpoints inclusive
    assert_eq!(count(50.0, 50.0), 1); // degenerate range = exact match
    assert_eq!(count(99.0, 200.0), 1); // clipped at data max
}

/// Work budget of a percentile over sealed data. When every chunk's
/// target bin holds at most two nonzero values, the summaries pin them:
/// the query decodes no chunk and walks the summaries once, as a `Max`
/// over the same range does. A dense target bin is decoded chunk by chunk:
/// all 54 sealed chunks, before summaries answered pinned bins and after.
#[test]
fn percentile_budget_decodes_only_unpinned_target_bins() {
    let mut env = TestEnv::new("pctl-budget");
    let s = env.loom.define_source("src");
    let tail = env
        .loom
        .define_index(s, extract::u64_le_at(0), latency_spec())
        .unwrap();
    let dense = env
        .loom
        .define_index(
            s,
            extract::u64_le_at(0),
            HistogramSpec::uniform(0.0, 100.0, 2).unwrap(),
        )
        .unwrap();
    // I.i.d. values below 100, and every 60th record a distinct anomaly
    // above 100,000: at most two per 4 KiB chunk of 36 B records.
    let pushed = push_values(&mut env, s, 6_000, 3, |i| {
        if i % 60 == 59 {
            100_000 + i
        } else {
            (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 100
        }
    });
    env.writer.seal_active_chunk().unwrap();
    let sealed = env.loom.ingest_stats().chunks_sealed();
    let mut sorted: Vec<f64> = pushed.iter().map(|(_, v)| *v as f64).collect();
    sorted.sort_by(f64::total_cmp);
    let query = |idx, method| {
        env.loom
            .query(s)
            .index(idx)
            .range(TimeRange::new(0, u64::MAX))
            .aggregate(method)
            .unwrap()
    };

    let p = query(tail, Aggregate::Percentile(99.99));
    assert_eq!(p.value, sorted.last().copied());
    assert_eq!((p.stats.chunks_scanned, p.stats.records_scanned), (0, 0));
    let max = query(tail, Aggregate::Max);
    assert_eq!(p.stats.summaries_scanned, max.stats.summaries_scanned);

    let p50 = query(dense, Aggregate::Percentile(50.0));
    assert_eq!(p50.value, Some(sorted[sorted.len() / 2 - 1]));
    assert_eq!(p50.stats.chunks_scanned, sealed);
}
