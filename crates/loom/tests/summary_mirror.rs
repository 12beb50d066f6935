//! The summary mirror ≡ the chunk index.
//!
//! Queries read chunk summaries from each shard's in-memory mirror, never
//! from `chunks.log`. This suite pins the mirror to the log it replaces:
//! after every step of a random op sequence — push, seal, sync, compact,
//! prune, crash + reopen, clean reopen — each shard's captured mirror
//! must equal a `SummaryCursor` walk of the same chunk index, summary
//! for summary (addresses, chunk range, time bounds, source counts, and
//! every bin, floats by bit pattern), minus the summaries of pruned
//! slices. Runs at shards ∈ {1, 4} × retention off / aggressive.

use proptest::prelude::*;

use loom::summary::{BinStats, ChunkSummary};
use loom::{
    Aggregate, Clock, Config, ExtractorDesc, HistogramSpec, Loom, LoomWriter, RetentionConfig,
    SourceId, TimeRange,
};

struct Env {
    dir: std::path::PathBuf,
    shards: usize,
    retention: RetentionConfig,
}

impl Env {
    fn new(shards: usize, retention: RetentionConfig) -> Env {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "loom-mirror-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Env {
            dir,
            shards,
            retention,
        }
    }

    /// Pinned against the `LOOM_TEST_*` overrides: the lattice is here.
    fn open(&self, start: u64) -> (Loom, LoomWriter) {
        let config = Config::small(&self.dir)
            .with_shards(self.shards)
            .with_retention(self.retention.clone());
        Loom::open_with_clock(config, Clock::manual(start)).unwrap()
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Ages every sealed chunk on seal into tiny slices and drops slices a
/// few thousand clock units old, so prunes happen mid-sequence.
fn aggressive_with_prune() -> RetentionConfig {
    RetentionConfig {
        drop_after: Some(6_000),
        slice: 2_000,
        ..RetentionConfig::aggressive()
    }
}

fn bits(b: &BinStats) -> (u64, u64, u64, u64, u64, u64) {
    let f = f64::to_bits;
    (b.count, f(b.min), f(b.max), f(b.sum), b.ts_min, b.ts_max)
}

/// Asserts every shard's mirror equals its chunk-index reference walk.
fn assert_mirror_matches_log(loom: &Loom, step: usize) -> Result<(), TestCaseError> {
    for shard in 0..loom.shard_count() {
        let (mirror, reference) = loom.summary_mirror_audit(shard).unwrap();
        prop_assert_eq!(
            mirror.len(),
            reference.len(),
            "step {} shard {}",
            step,
            shard
        );
        for (e, (addr, end, s)) in mirror.iter().zip(&reference) {
            let s: &ChunkSummary = s;
            prop_assert_eq!((e.addr(), e.end()), (*addr, *end));
            prop_assert_eq!((e.chunk_addr(), e.chunk_len()), (s.chunk_addr, s.chunk_len));
            prop_assert_eq!((e.ts_min(), e.ts_max()), (s.ts_min, s.ts_max));
            let sources: Vec<(u32, u64)> = s.sources.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(e.sources(), &sources[..]);
            prop_assert_eq!(e.record_count(), s.record_count());
            let got: Vec<_> = e
                .indexes()
                .map(|(id, bins)| (id, bins.iter().map(|(b, st)| (*b, bits(st))).collect()))
                .collect();
            let want: Vec<(u32, Vec<_>)> = s
                .indexes
                .iter()
                .map(|(id, bins)| (*id, bins.iter().map(|(b, st)| (*b, bits(st))).collect()))
                .collect();
            prop_assert_eq!(
                got,
                want,
                "step {} shard {} summary at {}",
                step,
                shard,
                addr
            );
        }
    }
    Ok(())
}

/// Summaries-only answers agree with the records: the count over all of
/// history equals what a raw scan still returns.
fn assert_counts_agree(
    loom: &Loom,
    sources: &[(SourceId, loom::IndexId)],
) -> Result<(), TestCaseError> {
    for &(s, idx) in sources {
        let mut raw = 0u64;
        loom.raw_scan(s, TimeRange::new(0, u64::MAX), |_| raw += 1)
            .unwrap();
        let count = loom
            .query(s)
            .index(idx)
            .range(TimeRange::new(0, u64::MAX))
            .aggregate(Aggregate::Count)
            .unwrap();
        prop_assert_eq!(count.count, raw);
    }
    Ok(())
}

fn run_ops(
    shards: usize,
    retention: RetentionConfig,
    ops: &[(u8, u16)],
) -> Result<(), TestCaseError> {
    let env = Env::new(shards, retention);
    let (mut loom, mut w) = env.open(1_000);
    let spec = HistogramSpec::uniform(0.0, 1_000.0, 6).unwrap();
    let sources: Vec<(SourceId, loom::IndexId)> = (0..3)
        .map(|i| {
            let s = loom.define_source(&format!("src-{i}"));
            let idx = loom
                .define_index_desc(s, ExtractorDesc::U64Le(0), spec.clone())
                .unwrap();
            (s, idx)
        })
        .collect();
    for (step, &(op, v)) in ops.iter().enumerate() {
        match op {
            0..=3 => {
                let (s, _) = sources[v as usize % sources.len()];
                for i in 0..(20 + u64::from(v) % 300) {
                    loom.clock().advance(1 + u64::from(v) % 5);
                    let value = (u64::from(v) * 31 + i * 17) % 1_200;
                    w.push(s, &value.to_le_bytes()).unwrap();
                }
            }
            4 => w.seal_active_chunk().unwrap(),
            5 => w.sync().unwrap(),
            6 => {
                w.sync().unwrap();
                loom.compact().unwrap();
            }
            7 => {
                // Let slices expire, then prune them.
                loom.clock().advance(10_000);
                w.sync().unwrap();
                loom.compact().unwrap();
            }
            8 => {
                w.sync().unwrap();
                w.simulate_crash();
                drop(loom);
                (loom, w) = env.open(0);
            }
            _ => {
                w.close().unwrap();
                drop(loom);
                (loom, w) = env.open(0);
            }
        }
        assert_mirror_matches_log(&loom, step)?;
    }
    assert_counts_agree(&loom, &sources)?;
    Ok(())
}

fn ops() -> impl Strategy<Value = Vec<(u8, u16)>> {
    proptest::collection::vec((0u8..10, any::<u16>()), 10..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn mirror_matches_chunk_index_flat(ops in ops()) {
        run_ops(1, RetentionConfig::default(), &ops)?;
    }

    #[test]
    fn mirror_matches_chunk_index_sharded(ops in ops()) {
        run_ops(4, RetentionConfig::default(), &ops)?;
    }

    #[test]
    fn mirror_matches_chunk_index_aged_and_pruned(ops in ops()) {
        run_ops(1, aggressive_with_prune(), &ops)?;
    }

    #[test]
    fn mirror_matches_chunk_index_sharded_aged_and_pruned(ops in ops()) {
        run_ops(4, aggressive_with_prune(), &ops)?;
    }
}

/// The pruned path is reached (guards against the proptest above never
/// drawing a prune): retained summaries are exactly the sealed ones
/// minus the pruned, and the gauge tracks them.
#[test]
fn pruning_drops_mirror_entries() {
    let env = Env::new(1, aggressive_with_prune());
    let (loom, mut w) = env.open(1_000);
    let s = loom.define_source("s");
    for i in 0..4_000u64 {
        loom.clock().advance(3);
        w.push(s, &i.to_le_bytes()).unwrap();
    }
    loom.clock().advance(10_000);
    w.sync().unwrap();
    let report = loom.compact().unwrap();
    assert!(report.slices_pruned > 0, "the sequence must prune");
    let (mirror, reference) = loom.summary_mirror_audit(0).unwrap();
    assert_eq!(mirror.len(), reference.len());
    let t = &loom.tier_stats()[0];
    assert!(t.cold.pruned_chunks > 0);
    let sealed = loom.ingest_stats().chunks_sealed();
    assert_eq!(mirror.len() as u64, sealed - t.cold.pruned_chunks);
    if cfg!(feature = "self-obs") {
        let gauge = loom.metrics_snapshot().index.summary_mirror_bytes;
        assert!(gauge > 0, "the mirror gauge tracks retained summaries");
    }
}
