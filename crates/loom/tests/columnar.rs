//! Chunk-decode equivalence tests: a descriptor-defined index (decode
//! loop monomorphized per field type) and a closure-defined index over the
//! same field (one `dyn Fn` call per row) must be indistinguishable —
//! identical records in identical order, bit-identical aggregate floats,
//! and identical `QueryStats`, columnar counters included — across random
//! chunk layouts, selectivities, index ablations, and worker-pool sizes.
//! Plus: the typed out-of-bounds extractor rejection, the decoded-piece
//! stats, the tail's early-stop accounting, and a live-ingest sealed/tail
//! boundary check.

use proptest::prelude::*;

use loom::histogram::HistogramSpec;
use loom::{
    extract, Aggregate, Clock, Config, ExtractorDesc, IndexId, Loom, LoomError, QueryOptions,
    QueryStats, SourceId, TimeRange, ValueRange,
};

fn rand_suffix() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    N.fetch_add(1, Ordering::Relaxed)
}

fn collect_scan(
    loom: &Loom,
    s: SourceId,
    idx: IndexId,
    range: TimeRange,
    vr: ValueRange,
    opts: QueryOptions,
) -> (Vec<(u64, u64, Vec<u8>)>, QueryStats) {
    let mut got = Vec::new();
    let stats = loom
        .query(s)
        .index(idx)
        .range(range)
        .value_range(vr)
        .options(opts)
        .scan(|r| {
            got.push((r.addr, r.ts, r.payload.to_vec()));
        })
        .unwrap();
    (got, stats)
}

/// One random workload checked for descriptor/closure equivalence across
/// every index ablation and worker-pool sizes 1, 2 and 4.
///
/// The workload interleaves a second "noise" source (whose records the
/// decode must skip) and occasional short payloads (too short for the
/// u64 extractor, exercising the validity column). Nothing is sealed by
/// hand, so the newest records sit in the unsummarized tail.
fn check_descriptor_closure_equivalence(
    values: Vec<u16>,
    gaps: Vec<u8>,
    win: (usize, usize),
    vwin: (u16, u16),
) -> Result<(), TestCaseError> {
    let dir = std::env::temp_dir().join(format!(
        "loom-columnar-{}-{}",
        std::process::id(),
        rand_suffix()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (loom, mut writer) =
        Loom::open_with_clock(Config::small(&dir), Clock::manual(100)).unwrap();
    let s = loom.define_source("src");
    let noise = loom.define_source("noise");
    let spec = HistogramSpec::uniform(0.0, 65_536.0, 8).unwrap();
    let by_desc = loom
        .define_index_desc(s, ExtractorDesc::U64Le(0), spec.clone())
        .unwrap();
    let by_closure = loom.define_index(s, extract::u64_le_at(0), spec).unwrap();

    let mut pushed: Vec<(u64, u64)> = Vec::new();
    for (i, v) in values.iter().enumerate() {
        let g = gaps.get(i % gaps.len().max(1)).copied().unwrap_or(1);
        let ts = loom.clock().advance(1 + g as u64);
        if g % 7 == 0 {
            // Payload too short for the u64 field: scanned but never
            // extracted, by either extractor.
            writer.push(s, &(*v as u32).to_le_bytes()).unwrap();
        } else {
            writer.push(s, &(*v as u64).to_le_bytes()).unwrap();
        }
        pushed.push((ts, *v as u64));
        if g % 3 == 0 {
            loom.clock().advance(1);
            writer.push(noise, &[g; 12]).unwrap();
        }
    }

    let (a, b) = win;
    let lo = a.min(values.len() - 1);
    let hi = b.min(values.len() - 1);
    let range = TimeRange::new(pushed[lo.min(hi)].0, pushed[lo.max(hi)].0);
    let vr = ValueRange::new(vwin.0.min(vwin.1) as f64, vwin.0.max(vwin.1) as f64);

    for threads in [1, 2, 4] {
        let base = QueryOptions::default().with_parallelism(threads);

        // Scans: every ablation mode.
        for (use_ts, use_chunk) in [(true, true), (true, false), (false, true), (false, false)] {
            let opts = QueryOptions {
                use_ts_index: use_ts,
                use_chunk_index: use_chunk,
                ..base
            };
            let (desc_recs, desc_stats) = collect_scan(&loom, s, by_desc, range, vr, opts);
            let (closure_recs, closure_stats) = collect_scan(&loom, s, by_closure, range, vr, opts);
            prop_assert_eq!(
                &desc_recs,
                &closure_recs,
                "scan records diverge (ts={} chunk={} threads={})",
                use_ts,
                use_chunk,
                threads
            );
            prop_assert_eq!(
                desc_stats,
                closure_stats,
                "scan stats diverge (ts={} chunk={} threads={})",
                use_ts,
                use_chunk,
                threads
            );
            prop_assert_eq!(
                desc_stats.columnar_batches,
                desc_stats.chunks_scanned,
                "every scanned piece is a decoded batch"
            );
        }

        // Aggregates: bit-identical floats (same accumulator, same order).
        for method in [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Mean,
            Aggregate::Percentile(0.0),
            Aggregate::Percentile(50.0),
            Aggregate::Percentile(99.0),
            Aggregate::Percentile(100.0),
        ] {
            let run = |idx| {
                loom.query(s)
                    .index(idx)
                    .range(range)
                    .options(base)
                    .aggregate(method)
                    .unwrap()
            };
            let (desc, closure) = (run(by_desc), run(by_closure));
            prop_assert_eq!(
                desc.value.map(f64::to_bits),
                closure.value.map(f64::to_bits),
                "{:?} diverges at {} threads: {:?} vs {:?}",
                method,
                threads,
                desc.value,
                closure.value
            );
            prop_assert_eq!(desc.count, closure.count, "{:?} count diverges", method);
            prop_assert_eq!(desc.stats, closure.stats, "{:?} stats diverge", method);
        }

        // Bin counts (the coordinator's composition primitive).
        let run = |idx| {
            loom.query(s)
                .index(idx)
                .range(range)
                .options(base)
                .bin_counts()
                .unwrap()
        };
        prop_assert_eq!(run(by_desc), run(by_closure), "bin counts diverge");
    }

    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn descriptor_and_closure_indexes_are_equivalent(
        values in proptest::collection::vec(any::<u16>(), 1..600),
        gaps in proptest::collection::vec(1u8..20, 1..8),
        win in (0usize..600, 0usize..600),
        vwin in (any::<u16>(), any::<u16>()),
    ) {
        check_descriptor_closure_equivalence(values, gaps, win, vwin)?;
    }
}

fn fill(loom: &Loom, writer: &mut loom::LoomWriter, s: SourceId, n: u64) {
    for i in 0..n {
        loom.clock().advance(10);
        writer.push(s, &(i % 100).to_le_bytes()).unwrap();
    }
}

#[test]
fn stats_count_every_decoded_piece() {
    let dir = std::env::temp_dir().join(format!(
        "loom-columnar-path-{}-{}",
        std::process::id(),
        rand_suffix()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (loom, mut writer) = Loom::open_with_clock(Config::small(&dir), Clock::manual(0)).unwrap();
    let s = loom.define_source("s");
    let spec = HistogramSpec::uniform(0.0, 100.0, 4).unwrap();
    let desc_idx = loom
        .define_index_desc(s, ExtractorDesc::U64Le(0), spec.clone())
        .unwrap();
    let closure_idx = loom.define_index(s, extract::u64_le_at(0), spec).unwrap();
    fill(&loom, &mut writer, s, 2_000);
    writer.seal_active_chunk().unwrap();
    let range = TimeRange::new(0, u64::MAX);

    // Every chunk piece a query reads is one decoded batch, whichever way
    // the index extracts its values.
    for idx in [desc_idx, closure_idx] {
        let stats = loom.query(s).index(idx).range(range).scan(|_| {}).unwrap();
        assert!(stats.chunks_scanned > 0);
        assert_eq!(stats.columnar_batches, stats.chunks_scanned, "{stats:?}");
        assert_eq!(stats.columnar_rows, 2_000);
        assert_eq!(stats.records_matched, 2_000);
        assert!(stats.columnar_rows <= stats.records_scanned);
    }

    // The engine-wide metrics registry saw the batches too.
    let snap = loom.metrics_snapshot();
    if cfg!(feature = "self-obs") {
        assert!(snap.query.columnar_batches > 0);
        assert_eq!(snap.query.columnar_rows, 4_000);
        assert_eq!(snap.query.batch_rows.total(), snap.query.columnar_batches);
        let text = snap.to_text();
        assert!(text.contains("loom_query_columnar_batches_total"));
        assert!(text.contains("loom_query_batch_selectivity_pct_count"));
    }

    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A range that ends inside the unsummarized tail: the tail decodes
/// through the same columns as sealed chunks, and the record that ends
/// the forward scan (the first one past `range.end`) is counted as
/// scanned but never becomes a row.
#[test]
fn tail_scan_counts_the_stopping_record() {
    let dir = std::env::temp_dir().join(format!(
        "loom-columnar-tail-{}-{}",
        std::process::id(),
        rand_suffix()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (loom, mut writer) = Loom::open_with_clock(Config::small(&dir), Clock::manual(0)).unwrap();
    let s = loom.define_source("s");
    let spec = HistogramSpec::uniform(0.0, 100.0, 4).unwrap();
    let desc_idx = loom
        .define_index_desc(s, ExtractorDesc::U64Le(0), spec.clone())
        .unwrap();
    let closure_idx = loom.define_index(s, extract::u64_le_at(0), spec).unwrap();
    fill(&loom, &mut writer, s, 1_000);
    writer.seal_active_chunk().unwrap();
    // Ten unsealed records: the whole tail region.
    let tail_start = loom.now() + 10;
    fill(&loom, &mut writer, s, 10);
    let tail_end = loom.now();

    for idx in [desc_idx, closure_idx] {
        // Ends at the tail's 4th record: 4 rows, and the 5th record stops
        // the scan.
        let inside = TimeRange::new(tail_start, tail_start + 30);
        let mut seen = 0u64;
        let scan = loom
            .query(s)
            .index(idx)
            .range(inside)
            .scan(|_| seen += 1)
            .unwrap();
        assert_eq!(seen, 4);
        let agg = loom
            .query(s)
            .index(idx)
            .range(inside)
            .aggregate(Aggregate::Count)
            .unwrap();
        assert_eq!(agg.count, 4);
        let (counts, bins) = loom.query(s).index(idx).range(inside).bin_counts().unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 4);
        assert_eq!(scan.records_matched, 4);
        for stats in [scan, agg.stats, bins] {
            assert_eq!(stats.chunks_scanned, 1, "{stats:?}");
            assert_eq!(stats.records_scanned, 5, "{stats:?}");
            assert_eq!(stats.columnar_batches, 1, "{stats:?}");
            assert_eq!(stats.columnar_rows, 4, "{stats:?}");
        }

        // Ends at the tail's last record: nothing stops the scan early.
        let whole = TimeRange::new(tail_start, tail_end);
        let scan = loom.query(s).index(idx).range(whole).scan(|_| {}).unwrap();
        assert_eq!(scan.records_matched, 10);
        assert_eq!(scan.records_scanned, 10);
        assert_eq!(scan.columnar_rows, 10);
    }

    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn define_index_desc_rejects_unreachable_fields() {
    let dir = std::env::temp_dir().join(format!(
        "loom-columnar-oob-{}-{}",
        std::process::id(),
        rand_suffix()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = Config::small(&dir);
    let max = config.max_record_payload() as u32;
    let (loom, _writer) = Loom::open_with_clock(config, Clock::manual(0)).unwrap();
    let s = loom.define_source("s");
    let spec = HistogramSpec::uniform(0.0, 100.0, 4).unwrap();

    // Boundary: a u64 ending exactly at the payload limit is fine...
    loom.define_index_desc(s, ExtractorDesc::U64Le(max - 8), spec.clone())
        .unwrap();
    // ...one byte later can never be satisfied by any record.
    let err = loom
        .define_index_desc(s, ExtractorDesc::U64Le(max - 7), spec.clone())
        .unwrap_err();
    match err {
        LoomError::ExtractorOutOfBounds {
            offset,
            width,
            max_payload,
        } => {
            assert_eq!(offset, max - 7);
            assert_eq!(width, 8);
            assert_eq!(max_payload as u32, max);
        }
        other => panic!("expected ExtractorOutOfBounds, got {other:?}"),
    }
    // Narrower fields get their own width accounting.
    loom.define_index_desc(s, ExtractorDesc::U16Le(max - 2), spec.clone())
        .unwrap();
    assert!(matches!(
        loom.define_index_desc(s, ExtractorDesc::U16Le(max - 1), spec.clone()),
        Err(LoomError::ExtractorOutOfBounds { width: 2, .. })
    ));
    // CountAll reads no bytes and is always valid.
    loom.define_index_desc(s, ExtractorDesc::CountAll, spec)
        .unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}

/// Live ingest: scans racing a writer must see no duplicate and no
/// out-of-order records at the sealed/tail boundary (sealed chunks are
/// picked by their summaries, the tail by a forward decode from where
/// the summaries end), and a final scan after the writer stops must see
/// exactly everything.
#[test]
fn live_ingest_scans_lose_nothing_at_the_sealed_tail_boundary() {
    let dir = std::env::temp_dir().join(format!(
        "loom-columnar-live-{}-{}",
        std::process::id(),
        rand_suffix()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (loom, mut writer) = Loom::open_with_clock(Config::small(&dir), Clock::manual(0)).unwrap();
    let s = loom.define_source("s");
    let spec = HistogramSpec::uniform(0.0, 20_000.0, 8).unwrap();
    let idx = loom
        .define_index_desc(s, ExtractorDesc::U64Le(0), spec)
        .unwrap();

    const TOTAL: u64 = 20_000;
    let range = TimeRange::new(0, u64::MAX);
    std::thread::scope(|scope| {
        let l = loom.clone();
        let w = scope.spawn(move || {
            for i in 0..TOTAL {
                l.clock().advance(1);
                writer.push(s, &i.to_le_bytes()).unwrap();
            }
            writer
        });
        // Race scans against the writer: each sees a consistent prefix.
        for _ in 0..50 {
            let mut prev_addr = None;
            let mut prev_val = None;
            let mut seen = 0u64;
            loom.query(s)
                .index(idx)
                .range(range)
                .scan(|r| {
                    let val = u64::from_le_bytes(r.payload.try_into().unwrap());
                    if let Some(p) = prev_addr {
                        assert!(r.addr > p, "duplicate or out-of-order addr {}", r.addr);
                    }
                    if let Some(p) = prev_val {
                        assert_eq!(val, p + 1, "gap or duplicate at the chunk boundary");
                    }
                    prev_addr = Some(r.addr);
                    prev_val = Some(val);
                    seen += 1;
                })
                .unwrap();
            assert!(seen <= TOTAL);
        }
        let writer = w.join().unwrap();
        drop(writer);
    });

    // Writer done: the snapshot now covers everything, exactly once.
    let mut count = 0u64;
    let mut expect = 0u64;
    let stats = loom
        .query(s)
        .index(idx)
        .range(range)
        .scan(|r| {
            let val = u64::from_le_bytes(r.payload.try_into().unwrap());
            assert_eq!(val, expect, "record lost or duplicated");
            expect += 1;
            count += 1;
        })
        .unwrap();
    assert_eq!(count, TOTAL);
    assert_eq!(stats.columnar_batches, stats.chunks_scanned, "{stats:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
