//! Sharded-engine tests: routing stability, single-shard equivalence,
//! shard-parallel crash recovery, and per-shard observability. Fault
//! isolation between shards is a chaos test (tests/chaos.rs): its
//! failpoint names every engine's `shard-N/records.log` in the process,
//! so it must not run beside these tests.
//!
//! The core contract under test: `shards = N` is an internal layout
//! choice, never a semantic one. For any workload, a sharded engine
//! must return bit-identical query results to the single-funnel engine
//! (`shards = 1`, the seed layout), because every source lives entirely
//! on its deterministically-chosen home shard.

use proptest::prelude::*;

use loom::histogram::HistogramSpec;
use loom::{
    extract, Aggregate, Clock, Config, EngineHealth, Loom, LoomError, LoomWriter, SourceId,
    TimeRange, ValueRange,
};

struct Env {
    dir: std::path::PathBuf,
}

impl Env {
    fn new(name: &str) -> Env {
        let dir = std::env::temp_dir().join(format!(
            "loom-shard-{}-{}-{}",
            name,
            std::process::id(),
            suffix()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Env { dir }
    }

    /// Small config with `shards` shards, pinned explicitly so the
    /// `LOOM_TEST_SHARDS` env override never skews these tests.
    fn config(&self, shards: usize) -> Config {
        let mut c = Config::small(&self.dir).with_shards(shards);
        c.remove_on_drop = false;
        c
    }

    fn open(&self, shards: usize, start: u64) -> (Loom, LoomWriter) {
        Loom::open_with_clock(self.config(shards), Clock::manual(start)).unwrap()
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

fn resolve(loom: &Loom, name: &str) -> SourceId {
    loom.sources()
        .into_iter()
        .find(|(_, n, _)| n == name)
        .map(|(id, _, _)| id)
        .expect("source must survive reopen")
}

// ---------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------

/// `shards = 1` keeps the flat seed layout (no `shard-*` directories);
/// `shards = N` nests one complete single-shard directory per shard
/// under a root superblock.
#[test]
fn on_disk_layout_matches_shard_count() {
    let flat = Env::new("layout-flat");
    let (loom, writer) = flat.open(1, 100);
    assert_eq!(loom.shard_count(), 1);
    assert!(flat.dir.join("records.log").exists());
    assert!(!flat.dir.join("shard-0").exists());
    writer.close().unwrap();
    drop(loom);

    let sharded = Env::new("layout-sharded");
    let (loom, writer) = sharded.open(4, 100);
    assert_eq!(loom.shard_count(), 4);
    assert!(sharded.dir.join("loom.super").exists(), "root superblock");
    for i in 0..4 {
        let d = sharded.dir.join(format!("shard-{i}"));
        assert!(d.join("loom.super").exists(), "shard {i} superblock");
        assert!(d.join("records.log").exists(), "shard {i} record log");
    }
    assert!(!sharded.dir.join("records.log").exists(), "no flat logs");
    writer.close().unwrap();
}

// ---------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------

/// A source's home shard is a pure function of its id: identical before
/// and after a reopen, and every source's data is served from it.
#[test]
fn routing_is_stable_across_reopen() {
    let env = Env::new("routing");
    let (loom, mut writer) = env.open(4, 100);
    let names: Vec<String> = (0..16).map(|i| format!("tenant-{i}")).collect();
    let mut homes = Vec::new();
    for name in &names {
        let s = loom.define_source(name);
        homes.push((s, loom.home_shard(s)));
        for v in 0..50u64 {
            loom.clock().advance(1);
            writer.push(s, &v.to_le_bytes()).unwrap();
        }
    }
    // 16 sources over 4 shards: the hash must actually spread them.
    let used: std::collections::BTreeSet<usize> = homes.iter().map(|(_, h)| *h).collect();
    assert!(used.len() > 1, "routing sent every source to one shard");
    writer.close().unwrap();
    drop(loom);

    let (loom2, _w2) = env.open(4, 0);
    for (name, (s, home)) in names.iter().zip(&homes) {
        let s2 = resolve(&loom2, name);
        assert_eq!(s2, *s, "source ids survive reopen");
        assert_eq!(loom2.home_shard(s2), *home, "home shard moved");
        assert_eq!(scan_all(&loom2, s2).len(), 50);
    }
}

/// Reopening a directory with a different shard count is a typed,
/// actionable error — never silent rerouting (which would strand every
/// record on its old shard).
#[test]
fn resharding_is_rejected_with_a_typed_error() {
    let env = Env::new("reshard");
    let (loom, writer) = env.open(2, 100);
    writer.close().unwrap();
    drop(loom);

    match Loom::open(env.config(4)).map(|_| ()).unwrap_err() {
        LoomError::ShardMismatch { on_disk, requested } => {
            assert_eq!((on_disk, requested), (2, 4));
        }
        other => panic!("want ShardMismatch, got {other}"),
    }
    // The original shard count still opens fine.
    let (loom, writer) = env.open(2, 0);
    assert_eq!(loom.shard_count(), 2);
    writer.close().unwrap();
}

// ---------------------------------------------------------------------
// Single-shard equivalence (the tentpole property)
// ---------------------------------------------------------------------

/// Runs one workload on a fresh engine with `shards` shards and returns
/// every observable the query API exposes: per-source raw-scan tuples,
/// filtered indexed-scan counts, aggregate bit patterns, and bin
/// counts. Record addresses are deliberately excluded — they are layout,
/// not semantics, and legitimately differ across shard counts.
#[allow(clippy::type_complexity)]
fn run_workload(
    shards: usize,
    nsources: usize,
    values: &[u16],
) -> (Vec<Vec<(u64, Vec<u8>)>>, Vec<(usize, Vec<u64>, Vec<u64>)>) {
    let env = Env::new("equiv");
    let (loom, mut writer) = env.open(shards, 100);
    let sources: Vec<SourceId> = (0..nsources)
        .map(|i| loom.define_source(&format!("s{i}")))
        .collect();
    let indexes: Vec<_> = sources
        .iter()
        .map(|s| {
            loom.define_index(*s, extract::u64_le_at(0), spec())
                .unwrap()
        })
        .collect();

    for (i, v) in values.iter().enumerate() {
        // Deterministic interleaving and gaps: every shard count sees
        // the exact same (source, ts, payload) sequence.
        let s = sources[i % nsources];
        loom.clock().advance(1 + (*v % 5) as u64);
        writer.push(s, &(*v as u64).to_le_bytes()).unwrap();
    }
    writer.sync().unwrap();

    let scans: Vec<_> = sources.iter().map(|s| scan_all(&loom, *s)).collect();
    let mut queried = Vec::new();
    for (s, idx) in sources.iter().zip(&indexes) {
        let range = TimeRange::new(0, loom.now());
        let vr = ValueRange::new(10_000.0, 50_000.0);
        let mut filtered = 0usize;
        let stats = loom
            .query(*s)
            .index(*idx)
            .range(range)
            .value_range(vr)
            .scan(|_| filtered += 1)
            .unwrap();
        assert_eq!(stats.shards_fanned_out, 1, "single-source fast path");

        let mut aggs = Vec::new();
        for m in [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Mean,
            Aggregate::Percentile(95.0),
        ] {
            let r = loom
                .query(*s)
                .index(*idx)
                .range(range)
                .aggregate(m)
                .unwrap();
            aggs.push(r.value.map_or(u64::MAX, f64::to_bits));
            aggs.push(r.count);
        }
        let (bins, _) = loom
            .query(*s)
            .index(*idx)
            .range(range)
            .bin_counts()
            .unwrap();
        queried.push((filtered, aggs, bins));
    }
    writer.close().unwrap();
    (scans, queried)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary multi-source workloads, `shards ∈ {2, 4}` returns
    /// results bit-identical to `shards = 1`: the same `(ts, payload)`
    /// record sequences, the same filtered-scan counts, `f64::to_bits`-
    /// identical aggregates, and identical bin counts.
    #[test]
    fn sharded_engine_is_equivalent_to_single_shard(
        values in proptest::collection::vec(any::<u16>(), 1..400),
        nsources in 2usize..6,
    ) {
        let baseline = run_workload(1, nsources, &values);
        for shards in [2usize, 4] {
            let got = run_workload(shards, nsources, &values);
            prop_assert_eq!(&got.0, &baseline.0, "raw scans differ at shards={}", shards);
            prop_assert_eq!(&got.1, &baseline.1, "query results differ at shards={}", shards);
        }
    }
}

// ---------------------------------------------------------------------
// Shard-parallel recovery
// ---------------------------------------------------------------------

/// A hard-killed sharded writer recovers every synced record on every
/// shard; the per-shard reports merge into one engine-level report that
/// reflects the dirty scan and the union of the work done.
#[test]
fn crash_recovery_restores_every_shard() {
    let env = Env::new("crash");
    let (loom, mut writer) = env.open(4, 1_000);
    let names: Vec<String> = (0..8).map(|i| format!("app-{i}")).collect();
    let sources: Vec<SourceId> = names.iter().map(|n| loom.define_source(n)).collect();

    let mut pushed: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); sources.len()];
    for round in 0..1_000u64 {
        for (i, s) in sources.iter().enumerate() {
            let ts = loom.clock().advance(3);
            let v = (round * 31 + i as u64).to_le_bytes();
            writer.push(*s, &v).unwrap();
            pushed[i].push((ts, v.to_vec()));
        }
    }
    writer.sync().unwrap();
    writer.simulate_crash();
    drop(loom);

    let (loom2, mut writer2) = env.open(4, 0);
    let report = loom2.recovery_report().expect("reopen yields a report");
    assert!(!report.clean, "a killed writer must trigger a dirty scan");
    assert_eq!(
        report.records_scanned, 8_000,
        "merged report counts records across all shards"
    );

    // Every shard's data survived, byte for byte, in order — and the
    // engine keeps accepting writes for every source afterwards.
    for (i, s) in sources.iter().enumerate() {
        let s2 = resolve(&loom2, &names[i]);
        assert_eq!(s2, *s);
        assert_eq!(scan_all(&loom2, s2), pushed[i], "source {i} data lost");
        loom2.clock().advance(1);
        writer2.push(s2, &u64::MAX.to_le_bytes()).unwrap();
        assert_eq!(scan_all(&loom2, s2).len(), 1_001);
    }
    assert!(loom2.now() >= pushed.last().unwrap().last().unwrap().0);
    writer2.close().unwrap();
}

// ---------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------

/// Per-shard health and metrics surfaces: one entry per shard, merged
/// engine-level snapshot, and rollups only in the sharded layout.
#[test]
fn shard_observability_surfaces() {
    let env = Env::new("obs");
    let (loom, mut writer) = env.open(4, 100);
    let s = loom.define_source("app");
    for v in 0..100u64 {
        loom.clock().advance(1);
        writer.push(s, &v.to_le_bytes()).unwrap();
    }
    writer.sync().unwrap();

    assert_eq!(loom.shard_health().len(), 4);
    assert!(loom
        .shard_health()
        .iter()
        .all(|h| matches!(h, EngineHealth::Healthy)));
    assert_eq!(loom.health(), EngineHealth::Healthy);

    let snap = loom.metrics_snapshot();
    assert_eq!(snap.shards.len(), 4, "one rollup per shard");
    let per_shard = loom.shard_metrics();
    assert_eq!(per_shard.len(), 4);
    // The merged snapshot is the sum of the shards: all 100 records
    // landed on exactly one shard's ingest path.
    let total: u64 = per_shard.iter().map(|m| m.hybridlog.block_seals).sum();
    assert_eq!(snap.hybridlog.block_seals, total);
    let text = snap.to_text();
    assert!(
        text.contains("shard=\"0\""),
        "rollups must be rendered per shard:\n{text}"
    );
    writer.close().unwrap();

    // Single-shard engines keep the seed-flat snapshot: no rollups.
    let flat = Env::new("obs-flat");
    let (loom1, w1) = flat.open(1, 100);
    assert!(loom1.metrics_snapshot().shards.is_empty());
    assert_eq!(loom1.shard_health().len(), 1);
    w1.close().unwrap();
}
