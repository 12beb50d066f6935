//! Property-based tests: Loom's indexed operators must agree with
//! brute-force reference computations for arbitrary workloads, and core
//! encodings must round-trip for arbitrary inputs.

use proptest::prelude::*;

use loom::histogram::HistogramSpec;
use loom::record::{ChunkIter, RecordHeader, NIL_ADDR};
use loom::summary::ChunkSummary;
use loom::{
    extract, Aggregate, Clock, Config, IndexId, Loom, QueryOptions, QueryStats, SourceId,
    TimeRange, ValueRange,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn record_header_round_trips(source in 1u32..u32::MAX,
                                 payload in proptest::collection::vec(any::<u8>(), 0..256),
                                 prev in any::<u64>(), ts in any::<u64>()) {
        let h = RecordHeader { source, len: payload.len() as u32, prev, ts };
        let buf = h.encode(&payload);
        prop_assert_eq!(RecordHeader::decode(&buf).unwrap(), h);
        prop_assert!(RecordHeader::verify(&buf, &payload));
    }

    #[test]
    fn histogram_bins_partition_the_reals(
        raw_bounds in proptest::collection::btree_set(-1_000_000_000_000i64..1_000_000_000_000, 2..12),
        probes in proptest::collection::vec(-1e18..1e18f64, 1..64),
    ) {
        let bounds: Vec<f64> = raw_bounds.into_iter().map(|b| b as f64).collect();
        let spec = HistogramSpec::from_bounds(bounds).unwrap();
        for v in probes {
            let bin = spec.bin_of(v).unwrap();
            prop_assert!(bin < spec.bin_count());
            let (lo, hi) = spec.bin_range(bin);
            prop_assert!(lo <= v && v < hi, "value {} not in bin {} [{}, {})", v, bin, lo, hi);
        }
    }

    #[test]
    fn chunk_summary_round_trips(
        entries in proptest::collection::vec(
            (1u32..5, 0u32..8, -1e9..1e9f64, 0u64..1_000_000), 0..50),
    ) {
        let mut s = ChunkSummary::new(3, 3 * 4096, 4096);
        for (source, bin, value, ts) in entries {
            s.observe_record(source, ts);
            s.observe_value(source, bin, value, ts);
        }
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let (decoded, n) = ChunkSummary::decode(&buf).unwrap();
        prop_assert_eq!(n, buf.len());
        prop_assert_eq!(decoded, s);
    }

    #[test]
    fn chunk_iter_reconstructs_arbitrary_records(
        payloads in proptest::collection::vec(
            (1u32..100, proptest::collection::vec(any::<u8>(), 0..64)), 0..20),
    ) {
        let mut chunk = Vec::new();
        for (i, (source, payload)) in payloads.iter().enumerate() {
            let h = RecordHeader {
                source: *source,
                len: payload.len() as u32,
                prev: NIL_ADDR,
                ts: i as u64,
            };
            chunk.extend_from_slice(&h.encode(payload));
            chunk.extend_from_slice(payload);
        }
        chunk.extend(std::iter::repeat_n(0u8, 32));
        let got: Vec<_> = ChunkIter::new(&chunk, 0)
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        prop_assert_eq!(got.len(), payloads.len());
        for (rec, (source, payload)) in got.iter().zip(&payloads) {
            prop_assert_eq!(rec.header.source, *source);
            prop_assert_eq!(rec.payload, &payload[..]);
        }
    }
}

/// One random end-to-end workload: arbitrary values, gaps, and query
/// windows; indexed scan and all aggregates must match brute force.
fn check_workload(
    values: Vec<u16>,
    gaps: Vec<u8>,
    win: (usize, usize),
) -> Result<(), TestCaseError> {
    let dir = std::env::temp_dir().join(format!(
        "loom-prop-{}-{}",
        std::process::id(),
        rand_suffix()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (loom, mut writer) =
        Loom::open_with_clock(Config::small(&dir), Clock::manual(100)).unwrap();
    let s = loom.define_source("src");
    let spec = HistogramSpec::uniform(0.0, 65_536.0, 8).unwrap();
    let idx = loom.define_index(s, extract::u64_le_at(0), spec).unwrap();

    let mut pushed: Vec<(u64, u64)> = Vec::new();
    for (i, v) in values.iter().enumerate() {
        let dt = 1 + gaps.get(i % gaps.len().max(1)).copied().unwrap_or(1) as u64;
        let ts = loom.clock().advance(dt);
        writer.push(s, &(*v as u64).to_le_bytes()).unwrap();
        pushed.push((ts, *v as u64));
    }

    let (a, b) = win;
    let lo = a.min(values.len().saturating_sub(1));
    let hi = b.min(values.len().saturating_sub(1));
    let (lo, hi) = (lo.min(hi), lo.max(hi));
    if pushed.is_empty() {
        let _ = std::fs::remove_dir_all(&dir);
        return Ok(());
    }
    let range = TimeRange::new(pushed[lo].0, pushed[hi].0);
    let in_range: Vec<f64> = pushed[lo..=hi].iter().map(|(_, v)| *v as f64).collect();

    // Indexed scan with a value filter.
    let vr = ValueRange::new(10_000.0, 50_000.0);
    let mut got = 0usize;
    loom.query(s)
        .index(idx)
        .range(range)
        .value_range(vr)
        .scan(|_| got += 1)
        .unwrap();
    let expected = in_range.iter().filter(|v| vr.contains(**v)).count();
    prop_assert_eq!(got, expected);

    // Aggregates.
    let count = loom
        .query(s)
        .index(idx)
        .range(range)
        .aggregate(Aggregate::Count)
        .unwrap();
    prop_assert_eq!(count.value, Some(in_range.len() as f64));
    let max = loom
        .query(s)
        .index(idx)
        .range(range)
        .aggregate(Aggregate::Max)
        .unwrap();
    prop_assert_eq!(max.value, in_range.iter().copied().reduce(f64::max));

    // Percentile vs nearest-rank reference.
    let mut sorted = in_range.clone();
    sorted.sort_by(f64::total_cmp);
    for p in [50.0, 99.0] {
        let r = loom
            .query(s)
            .index(idx)
            .range(range)
            .aggregate(Aggregate::Percentile(p))
            .unwrap();
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        prop_assert_eq!(r.value, Some(sorted[rank - 1]), "p{}", p);
    }

    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn rand_suffix() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    N.fetch_add(1, Ordering::Relaxed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn end_to_end_queries_match_brute_force(
        values in proptest::collection::vec(any::<u16>(), 1..600),
        gaps in proptest::collection::vec(1u8..20, 1..8),
        win in (0usize..600, 0usize..600),
    ) {
        check_workload(values, gaps, win)?;
    }
}

/// Runs an indexed scan and collects every delivered record verbatim:
/// address, timestamp, and payload bytes, in delivery order.
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

/// One random workload checked for serial/parallel equivalence: every
/// operator must produce byte-identical output (and identical scan
/// statistics) no matter the worker-pool size.
fn check_parallel_equivalence(
    values: Vec<u16>,
    gaps: Vec<u8>,
    win: (usize, usize),
    vwin: (u16, u16),
    threads: usize,
) -> Result<(), TestCaseError> {
    let dir = std::env::temp_dir().join(format!(
        "loom-prop-par-{}-{}",
        std::process::id(),
        rand_suffix()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (loom, mut writer) =
        Loom::open_with_clock(Config::small(&dir), Clock::manual(100)).unwrap();
    let s = loom.define_source("src");
    let spec = HistogramSpec::uniform(0.0, 65_536.0, 8).unwrap();
    let idx = loom.define_index(s, extract::u64_le_at(0), spec).unwrap();

    let mut pushed: Vec<(u64, u64)> = Vec::new();
    for (i, v) in values.iter().enumerate() {
        let dt = 1 + gaps.get(i % gaps.len().max(1)).copied().unwrap_or(1) as u64;
        let ts = loom.clock().advance(dt);
        writer.push(s, &(*v as u64).to_le_bytes()).unwrap();
        pushed.push((ts, *v as u64));
    }

    let (a, b) = win;
    let lo = a.min(values.len() - 1);
    let hi = b.min(values.len() - 1);
    let range = TimeRange::new(pushed[lo.min(hi)].0, pushed[lo.max(hi)].0);
    let vr = ValueRange::new(vwin.0.min(vwin.1) as f64, vwin.0.max(vwin.1) as f64);

    let serial = QueryOptions::default().with_parallelism(1);
    let parallel = QueryOptions::default().with_parallelism(threads);

    // Indexed scan, in every ablation mode that has a parallel stage:
    // records must come back byte-identical and in identical order.
    for (use_ts, use_chunk) in [(true, true), (false, true), (false, false)] {
        let s_opts = QueryOptions {
            use_ts_index: use_ts,
            use_chunk_index: use_chunk,
            ..serial
        };
        let p_opts = QueryOptions {
            use_ts_index: use_ts,
            use_chunk_index: use_chunk,
            ..parallel
        };
        let (s_recs, s_stats) = collect_scan(&loom, s, idx, range, vr, s_opts);
        let (p_recs, p_stats) = collect_scan(&loom, s, idx, range, vr, p_opts);
        prop_assert_eq!(
            &s_recs,
            &p_recs,
            "scan output diverges (ts={} chunk={} threads={})",
            use_ts,
            use_chunk,
            threads
        );
        // The scan statistics are exact regardless of pool size; only the
        // reported pool size itself may differ.
        prop_assert_eq!(
            QueryStats {
                workers_used: 0,
                ..s_stats
            },
            QueryStats {
                workers_used: 0,
                ..p_stats
            },
            "scan stats diverge (ts={} chunk={} threads={})",
            use_ts,
            use_chunk,
            threads
        );
    }

    // Aggregates: bit-identical for every variant (per-chunk partials are
    // merged in chunk order on both paths, so float association matches).
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
        let sr = loom
            .query(s)
            .index(idx)
            .range(range)
            .options(serial)
            .aggregate(method)
            .unwrap();
        let pr = loom
            .query(s)
            .index(idx)
            .range(range)
            .options(parallel)
            .aggregate(method)
            .unwrap();
        prop_assert_eq!(
            sr.value.map(f64::to_bits),
            pr.value.map(f64::to_bits),
            "{:?} diverges at {} threads: {:?} vs {:?}",
            method,
            threads,
            sr.value,
            pr.value
        );
        prop_assert_eq!(sr.count, pr.count, "{:?} count diverges", method);
    }

    // Bin counts (the coordinator's composition primitive).
    let (s_counts, _) = loom
        .query(s)
        .index(idx)
        .range(range)
        .options(serial)
        .bin_counts()
        .unwrap();
    let (p_counts, _) = loom
        .query(s)
        .index(idx)
        .range(range)
        .options(parallel)
        .bin_counts()
        .unwrap();
    prop_assert_eq!(s_counts, p_counts);

    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_execution_is_equivalent_to_serial(
        values in proptest::collection::vec(any::<u16>(), 1..600),
        gaps in proptest::collection::vec(1u8..20, 1..8),
        win in (0usize..600, 0usize..600),
        vwin in (any::<u16>(), any::<u16>()),
        threads in 2usize..9,
    ) {
        check_parallel_equivalence(values, gaps, win, vwin, threads)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Hybrid-log addresses are stable and contents exact across block
    /// seals, flushes, and snapshot boundaries, for arbitrary append
    /// sizes.
    #[test]
    fn hybrid_log_round_trips_arbitrary_appends(
        sizes in proptest::collection::vec(1usize..600, 1..120),
        block_size_sel in 0usize..3,
    ) {
        let block_size = [256usize, 1024, 4096][block_size_sel];
        let dir = std::env::temp_dir().join(format!(
            "loom-prop-hlog-{}-{}",
            std::process::id(),
            rand_suffix()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer = loom::hybridlog::create(&dir.join("log"), block_size).unwrap();
        let mut expected: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut addr_check = 0u64;
        for (i, len) in sizes.iter().enumerate() {
            let payload: Vec<u8> = (0..*len).map(|j| ((i * 7 + j) % 251) as u8).collect();
            let addr = writer.append(&payload).unwrap();
            prop_assert_eq!(addr, addr_check, "addresses are dense byte offsets");
            addr_check += *len as u64;
            expected.push((addr, payload));
        }
        writer.publish();

        // Read back through the live log (mix of memory and disk).
        for (addr, payload) in &expected {
            let mut buf = vec![0u8; payload.len()];
            writer.shared().read_at(*addr, &mut buf).unwrap();
            prop_assert_eq!(&buf, payload);
        }
        // And through a snapshot.
        let shared = std::sync::Arc::clone(writer.shared());
        let snap = shared.snapshot().unwrap();
        for (addr, payload) in &expected {
            let mut buf = vec![0u8; payload.len()];
            snap.read_at(*addr, &mut buf).unwrap();
            prop_assert_eq!(&buf, payload);
        }
        drop(writer);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The timestamp index's binary search agrees with a linear scan for
    /// arbitrary non-decreasing timestamp sequences.
    #[test]
    fn ts_index_partition_agrees_with_linear_scan(
        deltas in proptest::collection::vec(0u64..50, 1..200),
        probes in proptest::collection::vec(0u64..12_000, 1..32),
    ) {
        use loom::ts_index::{TsEntry, TsKind, TsIndexView};
        struct MemLog(Vec<u8>);
        impl loom::hybridlog::LogRead for MemLog {
            fn read_at(&self, addr: u64, dst: &mut [u8]) -> loom::Result<()> {
                let a = addr as usize;
                dst.copy_from_slice(&self.0[a..a + dst.len()]);
                Ok(())
            }
            fn limit(&self) -> u64 {
                self.0.len() as u64
            }
        }
        let mut bytes = Vec::new();
        let mut timestamps = Vec::new();
        let mut ts = 0u64;
        for (i, d) in deltas.iter().enumerate() {
            ts += d;
            timestamps.push(ts);
            let e = TsEntry {
                kind: if i % 5 == 0 { TsKind::ChunkSeal } else { TsKind::RecordMark },
                source: (i % 3) as u32 + 1,
                ts,
                target: i as u64,
                prev: NIL_ADDR,
            };
            bytes.extend_from_slice(&e.encode());
        }
        let log = MemLog(bytes);
        let view = TsIndexView::new(&log);
        for probe in probes {
            let got = view.partition_by_ts(probe).unwrap();
            let expected = timestamps.iter().filter(|t| **t <= probe).count() as u64;
            prop_assert_eq!(got, expected, "probe {}", probe);
        }
    }
}

/// One random workload captured before a shutdown — a clean `close()` or a
/// synced hard crash — must answer indexed scans, every aggregate, and
/// bin counts identically after `Loom::open` reopens the directory.
fn check_reopen_equivalence(
    values: Vec<u16>,
    gaps: Vec<u8>,
    win: (usize, usize),
    crash: bool,
) -> Result<(), TestCaseError> {
    use loom::ExtractorDesc;

    let dir = std::env::temp_dir().join(format!(
        "loom-prop-reopen-{}-{}",
        std::process::id(),
        rand_suffix()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (loom, mut writer) =
        Loom::open_with_clock(Config::small(&dir), Clock::manual(100)).unwrap();
    let s = loom.define_source("src");
    let spec = HistogramSpec::uniform(0.0, 65_536.0, 8).unwrap();
    // A descriptor-based extractor survives the reopen (closures cannot).
    let idx = loom
        .define_index_desc(s, ExtractorDesc::U64Le(0), spec)
        .unwrap();

    let mut pushed: Vec<(u64, u64)> = Vec::new();
    for (i, v) in values.iter().enumerate() {
        let dt = 1 + gaps.get(i % gaps.len().max(1)).copied().unwrap_or(1) as u64;
        let ts = loom.clock().advance(dt);
        writer.push(s, &(*v as u64).to_le_bytes()).unwrap();
        pushed.push((ts, *v as u64));
    }

    let (a, b) = win;
    let lo = a.min(values.len() - 1);
    let hi = b.min(values.len() - 1);
    let (lo, hi) = (lo.min(hi), lo.max(hi));
    let range = TimeRange::new(pushed[lo].0, pushed[hi].0);
    let vr = ValueRange::all();
    let opts = QueryOptions::default();

    const AGGS: [Aggregate; 7] = [
        Aggregate::Count,
        Aggregate::Sum,
        Aggregate::Min,
        Aggregate::Max,
        Aggregate::Mean,
        Aggregate::Percentile(50.0),
        Aggregate::Percentile(99.0),
    ];
    let capture = |l: &Loom| {
        let scan = collect_scan(l, s, idx, range, vr, opts).0;
        let aggs: Vec<(Option<f64>, u64)> = AGGS
            .iter()
            .map(|m| {
                let r = l.query(s).index(idx).range(range).aggregate(*m).unwrap();
                (r.value, r.count)
            })
            .collect();
        let bins = l.query(s).index(idx).range(range).bin_counts().unwrap().0;
        (scan, aggs, bins)
    };
    let before = capture(&loom);

    if crash {
        writer.sync().unwrap();
        writer.simulate_crash();
    } else {
        writer.close().unwrap();
    }
    drop(loom);

    let (loom2, writer2) = Loom::open_with_clock(Config::small(&dir), Clock::manual(0)).unwrap();
    let report = loom2.recovery_report().unwrap();
    prop_assert_eq!(report.clean, !crash);
    prop_assert!(report.truncations.is_empty(), "{:?}", report.truncations);
    let after = capture(&loom2);
    prop_assert_eq!(&after.0, &before.0, "scan results diverged after reopen");
    prop_assert_eq!(&after.1, &before.1, "aggregates diverged after reopen");
    prop_assert_eq!(&after.2, &before.2, "bin counts diverged after reopen");

    drop(writer2);
    drop(loom2);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn queries_after_reopen_match_pre_shutdown(
        values in proptest::collection::vec(any::<u16>(), 1..600),
        gaps in proptest::collection::vec(1u8..20, 1..8),
        win in (0usize..600, 0usize..600),
        crash in any::<bool>(),
    ) {
        check_reopen_equivalence(values, gaps, win, crash)?;
    }
}

/// The aggregates and bin counts a split check compares.
const SPLIT_AGGS: [Aggregate; 9] = [
    Aggregate::Count,
    Aggregate::Sum,
    Aggregate::Min,
    Aggregate::Max,
    Aggregate::Mean,
    Aggregate::Percentile(0.0),
    Aggregate::Percentile(50.0),
    Aggregate::Percentile(99.0),
    Aggregate::Percentile(100.0),
];

/// One engine of a split check: an integer index (descriptor) and a
/// fractional one (closure) over the same source.
struct SplitEngine {
    loom: Loom,
    writer: loom::LoomWriter,
    dir: std::path::PathBuf,
    source: SourceId,
    int: IndexId,
    frac: IndexId,
}

impl SplitEngine {
    fn open(threads: usize) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "loom-prop-split-{}-{}",
            std::process::id(),
            rand_suffix()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = Config::small(&dir).with_query_threads(threads);
        let (loom, writer) = Loom::open_with_clock(config, Clock::manual(0)).unwrap();
        let source = loom.define_source("src");
        let spec = HistogramSpec::uniform(0.0, 4_294_967_296.0, 8).unwrap();
        let int = loom
            .define_index_desc(source, loom::ExtractorDesc::U64Le(0), spec.clone())
            .unwrap();
        let frac = loom
            .define_index(source, extract::f64_le_at(8), spec)
            .unwrap();
        SplitEngine {
            loom,
            writer,
            dir,
            source,
            int,
            frac,
        }
    }

    /// Pushes `v` (and `v / 7`, which no float sum adds exactly) at `ts`.
    fn push(&mut self, ts: u64, v: u32) {
        self.loom.clock().set(ts);
        let mut payload = [0u8; 16];
        payload[..8].copy_from_slice(&u64::from(v).to_le_bytes());
        payload[8..].copy_from_slice(&(f64::from(v) / 7.0).to_le_bytes());
        self.writer.push(self.source, &payload).unwrap();
    }

    fn query(&self, index: IndexId, range: TimeRange) -> loom::Query<'_> {
        self.loom.query(self.source).index(index).range(range)
    }

    fn node(&self, index: IndexId) -> loom::coordinator::Node {
        loom::coordinator::Node {
            name: self.dir.display().to_string(),
            loom: self.loom.clone(),
            source: self.source,
            index,
        }
    }
}

impl Drop for SplitEngine {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One engine holding every record versus a coordinator over the same
/// records split by time across 1–4 engines, every engine at the same
/// pool size. The values are integers below 2^32, so every `Sum` is exact
/// under any association: each aggregate and the bin counts must equal
/// brute force and `to_bits`-equal the coordinator's answer. The
/// fractional index pins the log-order merge instead: its sums are not
/// exact, so its answers at pool 2 and 4 must equal pool 1's bit for bit.
fn check_split_invariance(
    values: Vec<u32>,
    gaps: Vec<u8>,
    cuts: Vec<usize>,
    win: (usize, usize),
    threads: usize,
) -> Result<(), TestCaseError> {
    let mut whole = SplitEngine::open(threads);
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (values.len() + 1)).collect();
    bounds.sort_unstable();
    let mut nodes: Vec<SplitEngine> = (0..=bounds.len())
        .map(|_| SplitEngine::open(threads))
        .collect();
    let mut pushed: Vec<(u64, u32)> = Vec::new();
    let mut ts = 100u64;
    for (i, v) in values.iter().enumerate() {
        ts += 1 + u64::from(gaps[i % gaps.len()]);
        whole.push(ts, *v);
        let node = bounds.iter().filter(|b| **b <= i).count();
        nodes[node].push(ts, *v);
        pushed.push((ts, *v));
    }

    let coord = |index: fn(&SplitEngine) -> IndexId| {
        let split = nodes.iter().map(|e| e.node(index(e))).collect();
        loom::coordinator::Coordinator::new(split).unwrap()
    };
    let split = (coord(|e| e.int), coord(|e| e.frac));
    // The random window, plus two inner ones that usually cut a sealed
    // chunk at each end (the pieces whose merge order matters).
    let len = values.len();
    let (lo, hi) = (win.0 % len, win.1 % len);
    for (lo, hi) in [
        (lo.min(hi), lo.max(hi)),
        (len / 5, len * 4 / 5),
        (len / 3, len * 2 / 3),
    ] {
        let range = TimeRange::new(pushed[lo].0, pushed[hi].0);
        check_split_range(&whole, &nodes, &split, &pushed, range)?;
    }
    Ok(())
}

/// [`check_split_invariance`] over one range.
fn check_split_range(
    whole: &SplitEngine,
    nodes: &[SplitEngine],
    (int_coord, frac_coord): &(
        loom::coordinator::Coordinator,
        loom::coordinator::Coordinator,
    ),
    pushed: &[(u64, u32)],
    range: TimeRange,
) -> Result<(), TestCaseError> {
    let mut in_range: Vec<f64> = pushed
        .iter()
        .filter(|(t, _)| range.contains(*t))
        .map(|(_, v)| f64::from(*v))
        .collect();
    in_range.sort_by(f64::total_cmp);
    let n = in_range.len();
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    for method in SPLIT_AGGS {
        let local = whole.query(whole.int, range).aggregate(method).unwrap();
        let split = int_coord.aggregate(range, method).unwrap();
        let sum: f64 = in_range.iter().sum();
        let expected = (n > 0).then(|| match method {
            Aggregate::Count => n as f64,
            Aggregate::Sum => sum,
            Aggregate::Min => in_range[0],
            Aggregate::Max => in_range[n - 1],
            Aggregate::Mean => sum / n as f64,
            Aggregate::Percentile(p) => {
                in_range[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1]
            }
        });
        prop_assert_eq!(
            bits(local.value),
            bits(expected),
            "{:?} vs brute force",
            method
        );
        prop_assert_eq!(bits(split.value), bits(local.value), "{:?} split", method);
        prop_assert_eq!((local.count, split.count), (n as u64, n as u64));

        let frac: Vec<_> = [1, 2, 4]
            .map(|p| {
                let q = whole.query(whole.frac, range).parallelism(p);
                let r = q.aggregate(method).unwrap();
                (bits(r.value), r.count)
            })
            .to_vec();
        prop_assert_eq!(&frac[1..], &[frac[0], frac[0]], "{:?} across pools", method);
        if !matches!(method, Aggregate::Sum | Aggregate::Mean) {
            let r = frac_coord.aggregate(range, method).unwrap();
            prop_assert_eq!((bits(r.value), r.count), frac[0], "{:?} frac split", method);
        }
    }

    let spec = whole.loom.index_spec(whole.source, whole.int).unwrap();
    let mut expected = vec![0u64; spec.bin_count()];
    for v in &in_range {
        expected[spec.bin_of(*v).unwrap()] += 1;
    }
    let mut merged = vec![0u64; spec.bin_count()];
    for node in nodes {
        let (counts, _) = node.query(node.int, range).bin_counts().unwrap();
        merged.iter_mut().zip(counts).for_each(|(m, c)| *m += c);
    }
    let (local, _) = whole.query(whole.int, range).bin_counts().unwrap();
    prop_assert_eq!(&local, &expected);
    prop_assert_eq!(&merged, &expected);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn aggregates_are_invariant_under_time_splits(
        values in proptest::collection::vec(any::<u32>(), 1..600),
        gaps in proptest::collection::vec(0u8..20, 1..8),
        cuts in proptest::collection::vec(0usize..600, 0..4),
        win in (0usize..600, 0usize..600),
        pool in 0usize..3,
    ) {
        check_split_invariance(values, gaps, cuts, win, [1, 2, 4][pool])?;
    }
}

/// Values whose chunk bins pin their percentile answers, and values that
/// must not be taken from the summary: the zero bin holds `-0.0`, `+0.0`
/// and `0.5`, so a `-0.0`/`+0.0` pair or run lands in one bin whose
/// `min`/`max` cannot tell the signs apart; NaN is never binned; the outer
/// bins get ±inf and huge values about once per chunk. Repeats weight
/// the draw, and each draw scales its value by a jitter in `[1, 2)`, so
/// most values are distinct. Half the cases swap ±inf for finite values,
/// so their extremes are unique and a lost or invented extreme shows.
const PINNED_POOL: [f64; 20] = [
    f64::NEG_INFINITY,
    -1e300,
    -7.5,
    -7.5,
    -3.0,
    -0.5,
    -0.0,
    -0.0,
    -0.0,
    0.0,
    0.0,
    0.0,
    0.5,
    2.0,
    2.0,
    42.25,
    1e5,
    1e300,
    f64::INFINITY,
    f64::NAN,
];

/// One engine of a pinned-bin check: an `f64` index over tiny chunks, so
/// each bin holds a handful of values per chunk. The directory goes with
/// the engine (`Config::small` removes it on drop).
fn pinned_engine(chunk_size: usize, threads: usize) -> (Loom, loom::LoomWriter, SourceId, IndexId) {
    let dir = std::env::temp_dir().join(format!(
        "loom-prop-pinned-{}-{}",
        std::process::id(),
        rand_suffix()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = Config::small(&dir)
        .with_chunk_size(chunk_size)
        .with_query_threads(threads);
    let (loom, writer) = Loom::open_with_clock(config, Clock::manual(0)).unwrap();
    let source = loom.define_source("src");
    let spec = HistogramSpec::from_bounds(vec![-100.0, -1.0, 0.0, 1.0, 100.0, 1e6]).unwrap();
    let index = loom
        .define_index(source, extract::f64_le_at(0), spec)
        .unwrap();
    (loom, writer, source, index)
}

/// Percentiles over runs drawn from [`PINNED_POOL`] must `to_bits`-equal a
/// sorted nearest-rank brute force, on one engine at `threads` workers and
/// through a coordinator over the records split by time across two.
fn check_pinned_percentiles(
    draws: Vec<(usize, usize, u16)>,
    with_inf: bool,
    chunk_size: usize,
    cut: usize,
    win: (usize, usize),
    threads: usize,
) -> Result<(), TestCaseError> {
    let values: Vec<f64> = draws
        .iter()
        .flat_map(|&(i, run, jitter)| {
            let v = match PINNED_POOL[i] {
                v if v.is_infinite() && !with_inf => v.signum() * 1e300,
                v => v,
            };
            std::iter::repeat_n(v * (1.0 + f64::from(jitter) / 1024.0), run)
        })
        .collect();
    let cut = cut % (values.len() + 1);
    let (whole, mut whole_w, s, idx) = pinned_engine(chunk_size, threads);
    let (a, mut a_w, a_s, a_idx) = pinned_engine(chunk_size, threads);
    let (b, mut b_w, b_s, b_idx) = pinned_engine(chunk_size, threads);
    let mut stamps = Vec::with_capacity(values.len());
    for (i, v) in values.iter().enumerate() {
        let ts = 100 + i as u64;
        let payload = v.to_le_bytes();
        whole.clock().set(ts);
        whole_w.push(s, &payload).unwrap();
        let (node, w, src) = if i < cut {
            (&a, &mut a_w, a_s)
        } else {
            (&b, &mut b_w, b_s)
        };
        node.clock().set(ts);
        w.push(src, &payload).unwrap();
        stamps.push(ts);
    }
    let node = |loom: &Loom, source, index| loom::coordinator::Node {
        name: String::new(),
        loom: loom.clone(),
        source,
        index,
    };
    let coord =
        loom::coordinator::Coordinator::new(vec![node(&a, a_s, a_idx), node(&b, b_s, b_idx)])
            .unwrap();

    let len = values.len();
    let (lo, hi) = (win.0 % len, win.1 % len);
    for (lo, hi) in [(0, len - 1), (lo.min(hi), lo.max(hi))] {
        let range = TimeRange::new(stamps[lo], stamps[hi]);
        let mut sorted: Vec<f64> = values[lo..=hi]
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .collect();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        for p in [0.0, 0.01, 50.0, 99.0, 99.99, 100.0] {
            let expected = (n > 0).then(|| {
                sorted[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1].to_bits()
            });
            let local = whole
                .query(s)
                .index(idx)
                .range(range)
                .parallelism(threads)
                .aggregate(Aggregate::Percentile(p))
                .unwrap();
            prop_assert_eq!(local.value.map(f64::to_bits), expected, "p{} local", p);
            prop_assert_eq!(local.count, n as u64);
            let split = coord.aggregate(range, Aggregate::Percentile(p)).unwrap();
            prop_assert_eq!(split.value.map(f64::to_bits), expected, "p{} split", p);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn percentiles_from_summaries_match_brute_force(
        draws in proptest::collection::vec(
            (0usize..PINNED_POOL.len(), 1usize..4, 0u16..1024), 1..400),
        with_inf in any::<bool>(),
        chunk in 0usize..2,
        cut in 0usize..1000,
        win in (0usize..1000, 0usize..1000),
        pool in 0usize..2,
    ) {
        check_pinned_percentiles(draws, with_inf, [256, 512][chunk], cut, win, pool + 1)?;
    }
}
