//! The golden on-disk corpus: data directories written by an earlier
//! build, which every later build must open and answer bit-identically.
//!
//! Each `tests/golden/<corpus>/` holds a data directory (`data/`) and
//! the answers the writing build gave after reopening it
//! (`expected.txt`): per-source raw-scan digests, `Count`/`Sum`/`Max`/p99
//! as `f64` bit patterns, bin counts, and a value-range scan digest per
//! index. The test copies each directory to a temp dir, opens it,
//! compares the answers, then pushes and seals more and checks that
//! every record chain and index count resumes where the corpus left off.
//!
//! - `flat-aged`: one shard, every chunk aged into the cold tier, two
//!   interleaved sources, a descriptor index, one source closed, clean
//!   close.
//! - `sharded-crash`: two shards, three sources, a descriptor index on
//!   two of them (one defined mid-chunk), then a synced crash that
//!   leaves partial tail chunks for recovery to replay.
//!
//! The corpus is written once and never regenerated casually: a change
//! that makes this test fail changed how existing data reads back. To
//! write it (into `$LOOM_GOLDEN_OUT`, default `tests/golden`):
//!
//! ```text
//! cargo test -p loom --test golden -- --ignored generate
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use loom::util::Fnv1a;
use loom::{
    Aggregate, Clock, Config, ExtractorDesc, HistogramSpec, IndexId, Loom, LoomError, LoomWriter,
    RetentionConfig, SourceId, TimeRange, ValueRange,
};

/// One golden corpus: its directory name and the configuration it was
/// written with.
struct Corpus {
    name: &'static str,
    shards: usize,
    retention: fn() -> RetentionConfig,
}

const CORPORA: [Corpus; 2] = [
    Corpus {
        name: "flat-aged",
        shards: 1,
        retention: RetentionConfig::aggressive,
    },
    Corpus {
        name: "sharded-crash",
        shards: 2,
        retention: RetentionConfig::default,
    },
];

impl Corpus {
    /// Pinned against the `LOOM_TEST_*` overrides: the layout is part of
    /// the corpus.
    fn open(&self, dir: &Path, start: u64) -> (Loom, LoomWriter) {
        let config = Config::small(dir)
            .with_shards(self.shards)
            .with_retention((self.retention)());
        Loom::open_with_clock(config, Clock::manual(start)).unwrap()
    }

    fn root(&self) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(self.name)
    }
}

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("loom-golden-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

fn spec() -> HistogramSpec {
    HistogramSpec::uniform(0.0, 65_536.0, 8).unwrap()
}

fn value(i: u64) -> u64 {
    i * 7_919 % 60_000
}

fn push(loom: &Loom, writer: &mut LoomWriter, s: SourceId, v: u64) {
    loom.clock().advance(10);
    writer.push(s, &v.to_le_bytes()).unwrap();
}

/// Writes `flat-aged` into `dir`: interleaved pushes of two sources, the
/// second closed part-way, every sealed chunk aged, then a clean close.
fn write_flat_aged(corpus: &Corpus, dir: &Path) {
    let (loom, mut writer) = corpus.open(dir, 1_000);
    let a = loom.define_source("alpha");
    let b = loom.define_source("beta");
    loom.define_index_desc(a, ExtractorDesc::U64Le(0), spec())
        .unwrap();
    for i in 0..1_200 {
        push(&loom, &mut writer, a, value(i));
        if i < 700 {
            push(&loom, &mut writer, b, value(i + 3));
        }
    }
    loom.close_source(b).unwrap();
    writer.close().unwrap();
}

/// Writes `sharded-crash` into `dir`: three interleaved sources over two
/// shards, the second source's index defined mid-chunk, then a synced
/// crash with every shard's tail chunk partial.
fn write_sharded_crash(corpus: &Corpus, dir: &Path) {
    let (loom, mut writer) = corpus.open(dir, 1_000);
    let sources: Vec<SourceId> = ["s1", "s2", "s3"]
        .iter()
        .map(|n| loom.define_source(n))
        .collect();
    assert_ne!(
        loom.home_shard(sources[0]),
        loom.home_shard(sources[1]),
        "the corpus must populate both shards"
    );
    loom.define_index_desc(sources[0], ExtractorDesc::U64Le(0), spec())
        .unwrap();
    for i in 0..900 {
        if i == 450 {
            loom.define_index_desc(sources[1], ExtractorDesc::U64Le(0), spec())
                .unwrap();
        }
        for (k, s) in sources.iter().enumerate() {
            push(&loom, &mut writer, *s, value(i * 3 + k as u64));
        }
    }
    writer.sync().unwrap();
    writer.simulate_crash();
}

/// `(addr, ts, payload)` of every record a scan returned, in its order.
type Records = Vec<(u64, u64, Vec<u8>)>;

struct SourceAnswers {
    id: SourceId,
    name: String,
    closed: bool,
    /// The raw scan, oldest first.
    records: Records,
}

struct IndexAnswers {
    id: IndexId,
    source: SourceId,
    /// `Count`, `Sum`, `Max`, p99 as bit patterns.
    aggregates: Vec<Option<u64>>,
    bins: Vec<u64>,
    /// The records a value-range scan returned.
    scan: Records,
}

fn answers(loom: &Loom) -> (Vec<SourceAnswers>, Vec<IndexAnswers>) {
    let all = TimeRange::new(0, u64::MAX);
    let mut sources = Vec::new();
    let mut indexes = Vec::new();
    for (id, name, closed) in loom.sources() {
        let mut records = Vec::new();
        loom.raw_scan(id, all, |r| {
            records.push((r.addr, r.ts, r.payload.to_vec()))
        })
        .unwrap();
        records.reverse();
        sources.push(SourceAnswers {
            id,
            name,
            closed,
            records,
        });
        for idx in loom.indexes_of(id) {
            let query = || loom.query(id).index(idx).range(all);
            let aggregates = [
                Aggregate::Count,
                Aggregate::Sum,
                Aggregate::Max,
                Aggregate::Percentile(99.0),
            ]
            .into_iter()
            .map(|m| query().aggregate(m).unwrap().value.map(f64::to_bits))
            .collect();
            let (bins, _) = query().bin_counts().unwrap();
            let mut scan = Vec::new();
            query()
                .value_range(ValueRange::new(10_000.0, 30_000.0))
                .scan(|r| scan.push((r.addr, r.ts, r.payload.to_vec())))
                .unwrap();
            indexes.push(IndexAnswers {
                id: idx,
                source: id,
                aggregates,
                bins,
                scan,
            });
        }
    }
    (sources, indexes)
}

fn digest(records: &[(u64, u64, Vec<u8>)]) -> u64 {
    let mut h = Fnv1a::new();
    for (addr, ts, payload) in records {
        h.write(&addr.to_le_bytes());
        h.write(&ts.to_le_bytes());
        h.write(&(payload.len() as u32).to_le_bytes());
        h.write(payload);
    }
    h.finish()
}

/// The answers as `expected.txt` holds them.
fn render((sources, indexes): &(Vec<SourceAnswers>, Vec<IndexAnswers>)) -> String {
    let mut out = String::new();
    for s in sources {
        let state = if s.closed { "closed" } else { "open" };
        writeln!(
            out,
            "source {} {} {state} records {} digest {:016x}",
            s.id.0,
            s.name,
            s.records.len(),
            digest(&s.records)
        )
        .unwrap();
    }
    for i in indexes {
        let aggs: Vec<String> = i
            .aggregates
            .iter()
            .map(|a| a.map_or("none".to_string(), |b| format!("{b:016x}")))
            .collect();
        let bins: Vec<String> = i.bins.iter().map(u64::to_string).collect();
        writeln!(
            out,
            "index {} source {} count/sum/max/p99 {} bins {} scan {} digest {:016x}",
            i.id.0,
            i.source.0,
            aggs.join(" "),
            bins.join(","),
            i.scan.len(),
            digest(&i.scan)
        )
        .unwrap();
    }
    out
}

/// Writes every corpus and the answers a reopen of it gives.
#[test]
#[ignore = "writes the golden corpus; run by hand with --ignored"]
fn generate() {
    let out = std::env::var_os("LOOM_GOLDEN_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden"));
    for corpus in &CORPORA {
        let written = TempDir::new(&format!("write-{}", corpus.name));
        match corpus.name {
            "flat-aged" => write_flat_aged(corpus, &written.0),
            _ => write_sharded_crash(corpus, &written.0),
        }
        let root = out.join(corpus.name);
        let _ = std::fs::remove_dir_all(&root);
        copy_dir(&written.0, &root.join("data"));

        let reopened = TempDir::new(&format!("answer-{}", corpus.name));
        copy_dir(&root.join("data"), &reopened.0);
        let (loom, writer) = corpus.open(&reopened.0, 0);
        std::fs::write(root.join("expected.txt"), render(&answers(&loom))).unwrap();
        drop(writer);
    }
}

#[test]
fn golden_corpus_answers_identically_and_resumes() {
    for corpus in &CORPORA {
        let name = corpus.name;
        let dir = TempDir::new(name);
        copy_dir(&corpus.root().join("data"), &dir.0);
        let expected = std::fs::read_to_string(corpus.root().join("expected.txt")).unwrap();
        let (loom, mut writer) = corpus.open(&dir.0, 0);
        let before = answers(&loom);
        assert_eq!(render(&before), expected, "{name}: answers differ");

        // Resume: more records on every open source, then a seal.
        let mut pushed: Vec<Records> = Vec::new();
        for s in &before.0 {
            let mut new = Vec::new();
            for i in 0..150 {
                let v = value(i + 11).to_le_bytes().to_vec();
                let ts = loom.clock().advance(10);
                match writer.push(s.id, &v) {
                    Ok(addr) => new.push((addr, ts, v)),
                    Err(e) => {
                        assert!(s.closed, "{name}: push to open source {}: {e}", s.id.0);
                        assert!(
                            matches!(e, LoomError::SourceClosed(id) if id == s.id.0),
                            "{name}: {e}"
                        );
                        break;
                    }
                }
            }
            pushed.push(new);
        }
        writer.seal_active_chunk().unwrap();

        // Each chain walks back across the reopen into the corpus's
        // records, and each index counts old and new records alike.
        let after = answers(&loom);
        for ((old, new), now) in before.0.iter().zip(&pushed).zip(&after.0) {
            let mut want = old.records.clone();
            want.extend(new.iter().cloned());
            assert!(
                now.records == want,
                "{name}: source {} did not resume its chain",
                old.id.0
            );
        }
        assert_eq!(before.1.len(), after.1.len());
        for (old, now) in before.1.iter().zip(&after.1) {
            let added = pushed[before.0.iter().position(|s| s.id == old.source).unwrap()].len();
            let count = |i: &IndexAnswers| i.aggregates[0].map_or(0.0, f64::from_bits);
            assert_eq!(
                count(now),
                count(old) + added as f64,
                "{name}: index {} count",
                old.id.0
            );
            assert_eq!(
                now.bins.iter().sum::<u64>(),
                old.bins.iter().sum::<u64>() + added as u64,
                "{name}: index {} bins",
                old.id.0
            );
        }
        writer.close().unwrap();
    }
}
