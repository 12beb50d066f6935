//! Crash-recovery and durable-reopen tests: clean-shutdown fast path,
//! hard-killed writers, fault injection on every log, and schema
//! survival across restarts.

use loom::{
    Aggregate, Clock, Config, ExtractorDesc, HistogramSpec, LogId, Loom, LoomError,
    RetentionConfig, SourceId, TimeRange, ValueRange,
};

struct Env {
    dir: std::path::PathBuf,
}

impl Env {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("loom-recov-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Env { dir }
    }

    fn open(&self, start: u64) -> (Loom, loom::LoomWriter) {
        // Pinned to the flat single-shard layout: these tests corrupt
        // bytes at known offsets in known files, which only makes sense
        // against one concrete layout. Shard-level crash recovery is
        // covered in tests/shard.rs.
        let config = Config::small(&self.dir).with_shards(1);
        Loom::open_with_clock(config, Clock::manual(start)).unwrap()
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn spec() -> HistogramSpec {
    HistogramSpec::uniform(0.0, 65_536.0, 8).unwrap()
}

/// Collects `(ts, value)` for every record of `s`, oldest first.
fn scan_all(loom: &Loom, s: SourceId) -> Vec<(u64, u64)> {
    let mut got = Vec::new();
    loom.raw_scan(s, TimeRange::new(0, loom.now()), |r| {
        let v = u64::from_le_bytes(r.payload.try_into().unwrap());
        got.push((r.ts, v));
    })
    .unwrap();
    got.reverse();
    got
}

fn push_n(
    loom: &Loom,
    writer: &mut loom::LoomWriter,
    s: SourceId,
    n: u64,
    f: impl Fn(u64) -> u64,
) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for i in 0..n {
        let ts = loom.clock().advance(10);
        writer.push(s, &f(i).to_le_bytes()).unwrap();
        out.push((ts, f(i)));
    }
    out
}

#[test]
fn clean_shutdown_reopens_via_fast_path_with_identical_data() {
    let env = Env::new("clean");
    let (loom, mut writer) = env.open(1_000);
    let s = loom.define_source("app");
    let idx = loom
        .define_index_desc(s, ExtractorDesc::U64Le(0), spec())
        .unwrap();
    let pushed = push_n(&loom, &mut writer, s, 1_000, |i| i * 3 % 50_000);
    let before = scan_all(&loom, s);
    assert_eq!(before, pushed);
    let max_before = loom
        .query(s)
        .index(idx)
        .range(TimeRange::new(0, loom.now()))
        .aggregate(Aggregate::Max)
        .unwrap();
    writer.close().unwrap();
    drop(loom);

    let (loom2, mut writer2) = env.open(0);
    let report = loom2.recovery_report().expect("reopen yields a report");
    assert!(report.clean, "clean shutdown must take the fast path");
    assert!(report.truncations.is_empty());
    assert_eq!(report.summaries_rebuilt, 0);
    assert_eq!(report.seals_appended, 0);

    // Same source ID, same records, same indexed answers.
    assert_eq!(
        loom2.sources(),
        vec![(s, "app".to_string(), false)],
        "schema must survive the restart"
    );
    assert_eq!(scan_all(&loom2, s), pushed);
    let max_after = loom2
        .query(s)
        .index(idx)
        .range(TimeRange::new(0, loom2.now()))
        .aggregate(Aggregate::Max)
        .unwrap();
    assert_eq!(max_after.value, max_before.value);
    assert_eq!(max_after.count, max_before.count);

    // The clock resumed past the old timeline and ingest continues.
    assert!(loom2.now() >= pushed.last().unwrap().0);
    let more = push_n(&loom2, &mut writer2, s, 100, |i| i + 60_000);
    let all = scan_all(&loom2, s);
    assert_eq!(all.len(), 1_100);
    assert_eq!(&all[1_000..], &more[..]);
}

#[test]
fn killed_writer_recovers_every_synced_record() {
    let env = Env::new("kill");
    let (loom, mut writer) = env.open(1_000);
    let s = loom.define_source("app");
    let idx = loom
        .define_index_desc(s, ExtractorDesc::U64Le(0), spec())
        .unwrap();
    // Enough records to span many chunks and several staging blocks.
    let pushed = push_n(&loom, &mut writer, s, 4_000, |i| i % 7_919);
    writer.sync().unwrap();
    writer.simulate_crash();
    drop(loom);

    let (loom2, mut writer2) = env.open(0);
    let report = loom2.recovery_report().unwrap();
    assert!(!report.clean, "a killed writer must trigger a dirty scan");
    assert_eq!(report.records_scanned, 4_000);

    // Every synced record survives, byte for byte, in order.
    assert_eq!(scan_all(&loom2, s), pushed);

    // Indexed aggregation over the recovered data matches brute force.
    let sum = loom2
        .query(s)
        .index(idx)
        .range(TimeRange::new(0, loom2.now()))
        .aggregate(Aggregate::Sum)
        .unwrap();
    let expected: f64 = pushed.iter().map(|(_, v)| *v as f64).sum();
    assert_eq!(sum.value, Some(expected));
    assert_eq!(sum.count, 4_000);

    // Per-source record chain state recovered: new pushes append after
    // the old ones and stay linked.
    let more = push_n(&loom2, &mut writer2, s, 50, |i| i);
    let all = scan_all(&loom2, s);
    assert_eq!(all.len(), 4_050);
    assert_eq!(&all[4_000..], &more[..]);
}

#[test]
fn unsynced_tail_is_lost_but_flushed_prefix_survives() {
    let env = Env::new("unsynced");
    let (loom, mut writer) = env.open(1_000);
    let s = loom.define_source("app");
    let pushed = push_n(&loom, &mut writer, s, 2_000, |i| i);
    writer.sync().unwrap();
    // More records after the sync; these may vanish with the crash.
    push_n(&loom, &mut writer, s, 500, |i| i + 1_000_000);
    writer.simulate_crash();
    drop(loom);

    let (loom2, _writer2) = env.open(0);
    let got = scan_all(&loom2, s);
    assert!(
        got.len() >= 2_000,
        "everything synced must survive, got {}",
        got.len()
    );
    assert_eq!(&got[..2_000], &pushed[..]);
}

/// Makes a dirty directory holding `n` synced records and returns the
/// pushed `(ts, value)` pairs. The writer is hard-dropped, so the clean
/// fast path cannot be taken on reopen.
fn dirty_dir(env: &Env, n: u64) -> Vec<(u64, u64)> {
    let (loom, mut writer) = env.open(1_000);
    let s = loom.define_source("app");
    loom.define_index_desc(s, ExtractorDesc::U64Le(0), spec())
        .unwrap();
    let pushed = push_n(&loom, &mut writer, s, n, |i| i % 3_000);
    writer.sync().unwrap();
    writer.simulate_crash();
    pushed
}

fn flip_byte(path: &std::path::Path, offset_from_end: u64) {
    use std::os::unix::fs::FileExt;
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let len = file.metadata().unwrap().len();
    assert!(len > offset_from_end, "file too short to corrupt");
    let pos = len - 1 - offset_from_end;
    let mut b = [0u8; 1];
    file.read_exact_at(&mut b, pos).unwrap();
    b[0] ^= 0xFF;
    file.write_all_at(&b, pos).unwrap();
    file.sync_all().unwrap();
}

fn append_garbage(path: &std::path::Path, n: usize) {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
    file.write_all(&vec![0xA7u8; n]).unwrap();
    file.sync_all().unwrap();
}

#[test]
fn flipped_byte_in_record_log_truncates_and_recovers_a_prefix() {
    let env = Env::new("flip-rec");
    let pushed = dirty_dir(&env, 3_000);
    flip_byte(&env.dir.join(LogId::Records.file_name()), 40);

    let (loom2, _w) = env.open(0);
    let report = loom2.recovery_report().unwrap();
    assert!(!report.clean);
    assert!(
        report.truncations.iter().any(|t| t.log == LogId::Records),
        "corruption must be detected in the record log: {:?}",
        report.truncations
    );
    assert!(report.bytes_truncated() > 0);

    // The surviving records are an exact prefix of what was pushed.
    let s = loom2.sources()[0].0;
    let got = scan_all(&loom2, s);
    assert!(got.len() < 3_000, "the corrupt tail must be dropped");
    assert_eq!(&pushed[..got.len()], &got[..]);
}

#[test]
fn flipped_byte_in_chunk_index_rebuilds_summaries() {
    let env = Env::new("flip-chunk");
    let pushed = dirty_dir(&env, 3_000);
    flip_byte(&env.dir.join(LogId::Chunks.file_name()), 10);

    let (loom2, _w) = env.open(0);
    let report = loom2.recovery_report().unwrap();
    assert!(!report.clean);
    assert!(report.truncations.iter().any(|t| t.log == LogId::Chunks));
    assert!(
        report.summaries_rebuilt > 0,
        "chunks that lost their summary must be resummarized: {report:?}"
    );

    // No records are lost — only derived state was damaged — and the
    // rebuilt summaries serve indexed queries over all of them.
    let s = loom2.sources()[0].0;
    assert_eq!(scan_all(&loom2, s), pushed);
    let idx = loom2.indexes_of(s)[0];
    let count = loom2
        .query(s)
        .index(idx)
        .range(TimeRange::new(0, loom2.now()))
        .aggregate(Aggregate::Count)
        .unwrap();
    assert_eq!(count.value, Some(3_000.0));
}

/// A clean shutdown vouches for the log tails, not for the bytes since.
/// A summary frame corrupted after `close()` must demote the reopen to
/// dirty recovery — which rebuilds the summary from the chunk's records,
/// read from the cold tier when the chunk was aged — instead of taking
/// the fast path and failing every indexed query over that chunk with
/// `CorruptLog`. The rebuilt summaries run through the same accumulator
/// the sealed ones did, so `chunks.log` comes back byte for byte.
fn summary_corrupted_after_clean_close(name: &str, retention: RetentionConfig) {
    let env = Env::new(name);
    let open = |start| {
        let config = Config::small(&env.dir)
            .with_shards(1)
            .with_retention(retention.clone());
        Loom::open_with_clock(config, Clock::manual(start)).unwrap()
    };
    let (loom, mut writer) = open(1_000);
    let s = loom.define_source("app");
    let other = loom.define_source("other");
    let idx = loom
        .define_index_desc(s, ExtractorDesc::U64Le(0), spec())
        .unwrap();
    for i in 0..3_000u64 {
        loom.clock().advance(10);
        writer.push(s, &(i * 7 % 60_000).to_le_bytes()).unwrap();
        if i % 3 == 0 {
            writer.push(other, &i.to_le_bytes()).unwrap();
        }
    }
    let answers = |loom: &Loom| {
        let query = || loom.query(s).index(idx).range(TimeRange::new(0, u64::MAX));
        let mut recs = Vec::new();
        query()
            .value_range(ValueRange::new(10_000.0, 30_000.0))
            .scan(|r| recs.push((r.addr, r.ts, r.payload.to_vec())))?;
        let mut aggs = Vec::new();
        for m in [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Max,
            Aggregate::Percentile(99.0),
        ] {
            aggs.push(query().aggregate(m)?.value.map(f64::to_bits));
        }
        let (bins, _) = query().bin_counts()?;
        let raw = (scan_all(loom, s), scan_all(loom, other));
        Ok::<_, LoomError>((recs, aggs, bins, raw))
    };
    let before = answers(&loom).unwrap();
    writer.close().unwrap();
    drop(loom);

    // Flip one body byte of summary frame 1: every later frame goes with
    // it and is rebuilt.
    let path = env.dir.join(LogId::Chunks.file_name());
    let bytes = std::fs::read(&path).unwrap();
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        frames.push(pos);
        pos += 8 + u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    }
    let victim = frames[1] + 8 + 20;
    flip_byte(&path, (bytes.len() - 1 - victim) as u64);

    let (loom2, _w) = open(0);
    assert_eq!(answers(&loom2).unwrap(), before);
    assert_eq!(before.1[0], Some(3_000f64.to_bits()), "Count");
    let report = loom2.recovery_report().unwrap();
    assert!(
        !report.clean,
        "a corrupt summary must demote the clean reopen"
    );
    assert!(report.truncations.iter().any(|t| t.log == LogId::Chunks));
    assert_eq!(
        report.summaries_rebuilt,
        frames.len() as u64 - 1,
        "{report:?}"
    );
    assert!(
        std::fs::read(&path).unwrap() == bytes,
        "rebuilt summaries must encode to the sealed bytes"
    );
    if retention.enabled {
        assert!(loom2.tier_stats()[0].cold.chunks > 0, "chunks must be cold");
    }
}

#[test]
fn summary_corrupted_after_clean_close_is_rebuilt_on_reopen() {
    summary_corrupted_after_clean_close("clean-flip-summary", RetentionConfig::default());
}

/// The same with every chunk aged at close: the hot copies are punched,
/// so the rebuild must read the cold segments.
#[test]
fn aged_summary_corrupted_after_clean_close_is_rebuilt_on_reopen() {
    let aged = RetentionConfig {
        enabled: true,
        cold_after: 0,
        ..RetentionConfig::default()
    };
    summary_corrupted_after_clean_close("clean-flip-aged-summary", aged);
}

/// A cold frame whose `raw_crc` was rewritten, with its frame checksum
/// recomputed to match, passes every check that does not inflate the
/// chunk. A dirty reopen must still refuse it: the chunk's inflated
/// bytes no longer match `raw_crc`, so the reopen fails with a typed
/// cold-segment corruption instead of serving the chunk.
#[test]
fn cold_raw_crc_under_a_valid_frame_crc_fails_a_dirty_reopen() {
    use std::os::unix::fs::FileExt;

    let env = Env::new("cold-raw-crc");
    let aging = RetentionConfig {
        enabled: true,
        cold_after: 0,
        interval: None,
        compact_on_seal: false,
        ..RetentionConfig::default()
    };
    let config = || {
        Config::small(&env.dir)
            .with_shards(1)
            .with_retention(aging.clone())
    };
    let (loom, mut writer) = Loom::open_with_clock(config(), Clock::manual(1_000)).unwrap();
    let s = loom.define_source("app");
    push_n(&loom, &mut writer, s, 3_000, |i| i % 3_000);
    writer.sync_durable().unwrap();
    assert!(loom.compact().unwrap().chunks_aged > 1);
    writer.simulate_crash();
    drop(loom);

    // The first frame of the first segment: header (24 B), then
    // `[len u32][crc u32][chunk_addr u64 | raw_len u32 | raw_crc u32 | ..]`.
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
    let mut bytes = std::fs::read(&path).unwrap();
    let frame = 24;
    let len = u32::from_le_bytes(bytes[frame..frame + 4].try_into().unwrap()) as usize;
    let body = frame + 8..frame + 8 + len;
    bytes[body.start + 12] ^= 0x01;
    let crc = loom::durability::format::crc32(&bytes[body.clone()]);
    bytes[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.write_all_at(&bytes[frame..body.end], frame as u64)
        .unwrap();
    file.sync_all().unwrap();

    let refused = || match Loom::open_with_clock(config(), Clock::manual(0)) {
        Err(LoomError::CorruptLog {
            log: LogId::ColdSegment,
            ..
        }) => {}
        Err(other) => panic!("expected a cold-segment corruption, got {other:?}"),
        Ok(_) => panic!("a dirty reopen served a cold chunk whose raw_crc is wrong"),
    };
    refused();
    // The same when the record-log scan stops before reaching the chunk.
    std::fs::OpenOptions::new()
        .write(true)
        .open(env.dir.join(LogId::Records.file_name()))
        .unwrap()
        .set_len(0)
        .unwrap();
    refused();
}

/// A cleanly closed flat directory with one indexed source `app` (500
/// records of 8 B) beside a source `other`, for tests that corrupt
/// record bytes the clean reopen does not re-verify. Returns `app`'s
/// records newest first as `(addr, ts)`, `other`'s id, and the config
/// that reopens the directory.
fn clean_dir_for_raw_scans(env: &Env) -> (Vec<(u64, u64)>, SourceId, Config) {
    let config = Config::small(&env.dir)
        .with_shards(1)
        .with_retention(RetentionConfig::default());
    let (loom, mut writer) = Loom::open_with_clock(config.clone(), Clock::manual(1_000)).unwrap();
    let s = loom.define_source("app");
    let other = loom.define_source("other");
    loom.define_index_desc(s, ExtractorDesc::U64Le(0), spec())
        .unwrap();
    push_n(&loom, &mut writer, s, 500, |i| i);
    let mut recs = Vec::new();
    loom.raw_scan(s, TimeRange::new(0, u64::MAX), |r| {
        recs.push((r.addr, r.ts))
    })
    .unwrap();
    writer.close().unwrap();
    (recs, other, config)
}

/// Overwrites `bytes` at `at` in `path`.
fn patch(path: &std::path::Path, at: u64, bytes: &[u8]) {
    use std::os::unix::fs::FileExt;
    let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    file.write_all_at(bytes, at).unwrap();
    file.sync_all().unwrap();
}

/// A raw scan follows the back pointers of records newer than its range,
/// and checks each link before it trusts anything else the header says.
/// A corrupt link there — a `prev` at its own address or forward, or a
/// header of another source — must end the walk with
/// `CorruptLog { log: Records }` at that record instead of looping
/// forever or crossing into another chain. The scan runs on a helper
/// thread, so a walk that never ends fails the test instead of hanging it.
#[test]
fn raw_scan_fails_on_a_corrupt_chain_link_past_its_range() {
    let env = Env::new("raw-link");
    let (recs, other, config) = clean_dir_for_raw_scans(&env);
    let path = env.dir.join(LogId::Records.file_name());
    let original = std::fs::read(&path).unwrap();
    // The walk visits every record between the first one after the range
    // and the range, so it always passes `victim`, the record just after.
    let (victim, _) = recs[1];
    let range = TimeRange::new(0, recs[2].1);
    let cases: [(&str, u64, Vec<u8>); 3] = [
        ("prev at its own address", 8, victim.to_le_bytes().to_vec()),
        ("prev forward", 8, recs[0].0.to_le_bytes().to_vec()),
        ("another source", 0, other.0.to_le_bytes().to_vec()),
    ];
    for (what, field, value) in cases {
        patch(&path, victim + field, &value);
        let (loom, writer) = Loom::open_with_clock(config.clone(), Clock::manual(0)).unwrap();
        assert!(loom.recovery_report().unwrap().clean, "{what}");
        let s = loom.sources()[0].0;
        let (tx, rx) = std::sync::mpsc::channel();
        let scanner = loom.clone();
        std::thread::spawn(move || {
            let _ = tx.send(scanner.raw_scan(s, range, |_| {}).map(drop));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(Err(LoomError::CorruptLog {
                log: LogId::Records,
                addr,
                ..
            })) => assert_eq!(addr, victim, "{what}"),
            Ok(other) => panic!("{what}: raw scan returned {other:?}"),
            Err(_) => panic!("{what}: raw scan did not finish in 10 s"),
        }
        drop((loom, writer));
        patch(
            &path,
            victim + field,
            &original[(victim + field) as usize..][..value.len()],
        );
    }
}

/// A raw scan bounds a record's unverified payload length before it
/// allocates or reads: a `len` running past the record's chunk fails
/// with the same `CorruptLog` the indexed scan's chunk walk returns for
/// that record, not with a multi-GiB buffer or an out-of-bounds read.
#[test]
fn raw_scan_bounds_a_corrupt_payload_length_by_its_chunk() {
    let env = Env::new("raw-len");
    let (recs, _, config) = clean_dir_for_raw_scans(&env);
    let (victim, _) = recs[recs.len() / 2];
    patch(
        &env.dir.join(LogId::Records.file_name()),
        victim + 4,
        &(1u32 << 20).to_le_bytes(),
    );
    let (loom, _w) = Loom::open_with_clock(config, Clock::manual(0)).unwrap();
    let s = loom.sources()[0].0;
    let raw = loom.raw_scan(s, TimeRange::new(0, u64::MAX), |_| {});
    let Err(LoomError::CorruptLog {
        log: LogId::Records,
        addr,
        ref reason,
    }) = raw
    else {
        panic!("raw scan returned {raw:?}");
    };
    assert_eq!(addr, victim);
    assert!(reason.starts_with("entry overruns chunk"), "{reason}");
    let idx = loom.indexes_of(s)[0];
    let indexed = loom.query(s).index(idx).scan(|_| {}).map(drop);
    assert_eq!(format!("{indexed:?}"), format!("{:?}", raw.map(drop)));
}

/// A raw scan verifies the checksum of every record its walk reads, not
/// only of those in its range: a flipped payload byte in a record newer
/// than the range fails the scan at that record.
#[test]
fn raw_scan_fails_on_a_flipped_payload_past_its_range() {
    let env = Env::new("raw-payload");
    let (recs, _, config) = clean_dir_for_raw_scans(&env);
    let path = env.dir.join(LogId::Records.file_name());
    let (victim, _) = recs[1];
    let at = victim + loom::record::RECORD_HEADER_SIZE as u64;
    let mut byte = std::fs::read(&path).unwrap()[at as usize];
    byte ^= 0x01;
    patch(&path, at, &[byte]);
    let (loom, _w) = Loom::open_with_clock(config, Clock::manual(0)).unwrap();
    assert!(loom.recovery_report().unwrap().clean);
    let s = loom.sources()[0].0;
    let raw = loom.raw_scan(s, TimeRange::new(0, recs[2].1), |_| {});
    let Err(LoomError::CorruptLog {
        log: LogId::Records,
        addr,
        ref reason,
    }) = raw
    else {
        panic!("raw scan returned {raw:?}");
    };
    assert_eq!(addr, victim);
    assert_eq!(reason, "record checksum mismatch");
}

#[test]
fn flipped_byte_in_ts_index_truncates_and_reappends_seals() {
    let env = Env::new("flip-ts");
    let pushed = dirty_dir(&env, 3_000);
    // Flip a byte halfway into the timestamp index so the second half —
    // including many chunk-seal entries — is truncated, not just a
    // trailing per-source mark.
    let ts_path = env.dir.join(LogId::Ts.file_name());
    let mid = std::fs::metadata(&ts_path).unwrap().len() / 2;
    flip_byte(&ts_path, mid);

    let (loom2, _w) = env.open(0);
    let report = loom2.recovery_report().unwrap();
    assert!(!report.clean);
    assert!(report.truncations.iter().any(|t| t.log == LogId::Ts));
    assert!(
        report.seals_appended > 0,
        "seals for surviving summaries must be re-appended: {report:?}"
    );

    // Record data is untouched and time-ranged queries still work.
    let s = loom2.sources()[0].0;
    assert_eq!(scan_all(&loom2, s), pushed);
}

#[test]
fn torn_tails_in_every_log_are_truncated() {
    let env = Env::new("torn");
    let pushed = dirty_dir(&env, 2_000);
    for log in [LogId::Records, LogId::Chunks, LogId::Ts] {
        append_garbage(&env.dir.join(log.file_name()), 13);
    }

    let (loom2, _w) = env.open(0);
    let report = loom2.recovery_report().unwrap();
    assert!(!report.clean);
    // The garbage bytes never checksum; every log loses exactly its torn
    // tail (the record log tears at a chunk boundary, so its 13 bytes are
    // dropped as a partial header).
    assert!(report.bytes_truncated() >= 3 * 13 - 26);
    let s = loom2.sources()[0].0;
    assert_eq!(scan_all(&loom2, s), pushed);
}

#[test]
fn schema_survives_restart_and_closure_indexes_reopen_closed() {
    let env = Env::new("schema");
    let (loom, mut writer) = env.open(1_000);
    let a = loom.define_source("alpha");
    let b = loom.define_source("beta");
    let desc_idx = loom
        .define_index_desc(a, ExtractorDesc::U64Le(0), spec())
        .unwrap();
    let closure_idx = loom
        .define_index(a, loom::extract::u64_le_at(0), spec())
        .unwrap();
    push_n(&loom, &mut writer, a, 600, |i| i);
    loom.close_source(b).unwrap();
    writer.close().unwrap();
    drop(loom);

    let (loom2, mut writer2) = env.open(0);
    assert_eq!(
        loom2.sources(),
        vec![
            (a, "alpha".to_string(), false),
            (b, "beta".to_string(), true),
        ]
    );
    // The descriptor-based index is fully restored and keeps indexing;
    // the closure-based one comes back closed.
    assert_eq!(loom2.indexes_of(a), vec![desc_idx]);

    // Closed sources still reject pushes after the restart.
    let err = writer2.push(b, &7u64.to_le_bytes());
    assert!(err.is_err(), "closed source must stay closed: {err:?}");

    // The restored descriptor index covers the data from before the
    // restart and keeps indexing new data; the closure index is refused
    // (its extractor did not survive).
    push_n(&loom2, &mut writer2, a, 600, |i| i + 600);
    writer2.seal_active_chunk().unwrap();
    let count = |idx| {
        loom2
            .query(a)
            .index(idx)
            .range(TimeRange::new(0, loom2.now()))
            .aggregate(Aggregate::Count)
    };
    assert_eq!(count(desc_idx).unwrap().value, Some(1_200.0));
    assert!(matches!(
        count(closure_idx),
        Err(LoomError::ExtractorLost { index }) if index == closure_idx.0
    ));
}

/// A closure-defined index comes back from a reopen without its
/// extractor. Every indexed terminal must say so with a typed error —
/// answering from the summaries alone would silently drop every chunk
/// and tail record that needs the exact re-filter — while a descriptor
/// index over the same source answers exactly as before the shutdown.
#[test]
fn closure_index_queries_fail_typed_after_reopen() {
    let env = Env::new("closure-lost");
    let (loom, mut writer) = env.open(1_000);
    let a = loom.define_source("alpha");
    let desc_idx = loom
        .define_index_desc(a, ExtractorDesc::U64Le(0), spec())
        .unwrap();
    let closure_idx = loom
        .define_index(a, loom::extract::u64_le_at(0), spec())
        .unwrap();
    push_n(&loom, &mut writer, a, 600, |i| i * 100);
    let range = TimeRange::new(3_000, 5_000);
    let values = ValueRange::new(20_000.0, 40_000.0);
    let answers = |loom: &Loom, idx| {
        let query = || loom.query(a).index(idx).range(range);
        let mut recs = Vec::new();
        query()
            .value_range(values)
            .scan(|r| recs.push((r.addr, r.ts, r.payload.to_vec())))?;
        let sum = query().aggregate(Aggregate::Sum)?;
        let p99 = query().aggregate(Aggregate::Percentile(99.0))?;
        let (bins, _) = query().bin_counts()?;
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        Ok::<_, LoomError>((recs, bits(sum.value), bits(p99.value), bins))
    };
    let before = answers(&loom, desc_idx).unwrap();
    assert!(!before.0.is_empty());
    assert_eq!(before, answers(&loom, closure_idx).unwrap());
    writer.close().unwrap();
    drop(loom);

    let (loom2, _writer2) = env.open(0);
    assert_eq!(before, answers(&loom2, desc_idx).unwrap());
    let lost = |r: Result<_, LoomError>| matches!(r, Err(LoomError::ExtractorLost { index }) if index == closure_idx.0);
    let query = || loom2.query(a).index(closure_idx).range(range);
    assert!(lost(query().scan(|_| {}).map(|_| ())));
    assert!(lost(query().aggregate(Aggregate::Sum).map(|_| ())));
    assert!(lost(query().bin_counts().map(|_| ())));
    let msg = query().scan(|_| {}).unwrap_err().to_string();
    assert!(
        msg.contains(&closure_idx.0.to_string()) && msg.contains("define_index_desc"),
        "{msg}"
    );
}

#[test]
fn reopen_rejects_a_mismatched_config() {
    let env = Env::new("config");
    let (loom, writer) = env.open(1_000);
    writer.close().unwrap();
    drop(loom);

    let mut config = Config::small(&env.dir);
    config.chunk_size *= 2;
    let err = Loom::open_with_clock(config, Clock::manual(0))
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, loom::LoomError::InvalidConfig(_)),
        "chunk-size change must be rejected: {err:?}"
    );
}

#[test]
fn fresh_open_refuses_logs_without_a_superblock() {
    let env = Env::new("nosuper");
    std::fs::create_dir_all(&env.dir).unwrap();
    std::fs::write(env.dir.join(LogId::Records.file_name()), b"data").unwrap();
    let err = Loom::open_with_clock(Config::small(&env.dir), Clock::manual(0))
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, loom::LoomError::Corrupt(_)),
        "must not clobber unrecognized log files: {err:?}"
    );
}

#[test]
fn reopen_reports_recovery_metrics() {
    let env = Env::new("metrics");
    dirty_dir(&env, 2_000);
    let (loom2, writer2) = env.open(0);
    let m = loom2.metrics_snapshot();
    // Without the self-obs feature all counters are zero; with it, the
    // dirty recovery must be visible.
    if m.query.queries == 0 && m.coordinator.dirty_recoveries == 0 {
        return; // counters compiled out
    }
    assert_eq!(m.coordinator.dirty_recoveries, 1);
    assert_eq!(m.coordinator.clean_reopens, 0);
    writer2.close().unwrap();
    drop(loom2);

    let (loom3, _w3) = env.open(0);
    let m = loom3.metrics_snapshot();
    assert_eq!(m.coordinator.clean_reopens, 1);
}

/// Alternating synced crashes and clean closes. Two interleaved indexed
/// sources run throughout; a third is defined in round 1 and closed in
/// round 3. Every crash round ends mid-chunk, so the next reopen replays
/// a partial tail chunk. After each reopen the per-source chains (walked
/// back across every earlier reopen) and the indexed `Count`/`Sum` must
/// equal a straight-line run's.
#[test]
fn repeated_crashes_and_reopens_accumulate_correctly() {
    let env = Env::new("repeat");
    // Per source: the `(ts, value)` pairs a straight-line run holds.
    let mut expected: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut sources: Vec<SourceId> = Vec::new();
    let mut indexes = Vec::new();
    let check = |loom: &Loom, sources: &[SourceId], expected: &[Vec<(u64, u64)>], at: &str| {
        for (s, want) in sources.iter().zip(expected) {
            assert!(scan_all(loom, *s) == *want, "{at}: source {} chain", s.0);
        }
        for (k, idx) in indexes_of_first_two(loom, sources).into_iter().enumerate() {
            let query = || {
                loom.query(sources[k])
                    .index(idx)
                    .range(TimeRange::new(0, u64::MAX))
            };
            let count = query().aggregate(Aggregate::Count).unwrap().value;
            let sum = query().aggregate(Aggregate::Sum).unwrap().value;
            let want_sum: f64 = expected[k].iter().map(|(_, v)| *v as f64).sum();
            assert_eq!(
                count,
                Some(expected[k].len() as f64),
                "{at}: index {} count",
                idx.0
            );
            assert_eq!(
                sum.map(f64::to_bits),
                Some(want_sum.to_bits()),
                "{at}: index {} sum",
                idx.0
            );
        }
    };
    let mut start = 1_000;
    for round in 0..6u64 {
        let (loom, mut writer) = env.open(start);
        start = 0;
        check(&loom, &sources, &expected, &format!("reopen {round}"));
        match round {
            0 => {
                for name in ["a", "b"] {
                    let s = loom.define_source(name);
                    indexes.push(
                        loom.define_index_desc(s, ExtractorDesc::U64Le(0), spec())
                            .unwrap(),
                    );
                    sources.push(s);
                    expected.push(Vec::new());
                }
            }
            1 => {
                sources.push(loom.define_source("late"));
                expected.push(Vec::new());
            }
            3 => loom.close_source(sources[2]).unwrap(),
            _ => {}
        }
        let late_open = (1..3).contains(&round);
        let mut push_round = |writer: &mut loom::LoomWriter, n: u64| {
            for i in 0..n {
                for (k, s) in sources.iter().enumerate() {
                    if k == 2 && !late_open {
                        continue;
                    }
                    let v = (round * 1_000 + i * 7 + k as u64) % 60_000;
                    let ts = loom.clock().advance(10);
                    writer.push(*s, &v.to_le_bytes()).unwrap();
                    expected[k].push((ts, v));
                }
            }
        };
        push_round(&mut writer, 200 + round * 31);
        writer.seal_active_chunk().unwrap();
        // End mid-chunk: a crash leaves a partial tail chunk to replay.
        push_round(&mut writer, 45 + round * 13);
        if round >= 3 {
            let err = writer.push(sources[2], &0u64.to_le_bytes()).unwrap_err();
            assert!(
                matches!(err, LoomError::SourceClosed(id) if id == sources[2].0),
                "{err}"
            );
        }
        check(&loom, &sources, &expected, &format!("round {round}"));
        if round % 2 == 0 {
            writer.sync().unwrap();
            writer.simulate_crash();
        } else {
            writer.close().unwrap();
        }
    }
    let (loom, _writer) = env.open(0);
    assert_eq!(indexes_of_first_two(&loom, &sources), indexes);
    check(&loom, &sources, &expected, "final reopen");
}

/// The one open index of each of the first two sources.
fn indexes_of_first_two(loom: &Loom, sources: &[SourceId]) -> Vec<loom::IndexId> {
    sources
        .iter()
        .take(2)
        .map(|s| {
            let idx = loom.indexes_of(*s);
            assert_eq!(idx.len(), 1);
            idx[0]
        })
        .collect()
}
