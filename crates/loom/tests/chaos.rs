//! Chaos harness: concurrent ingest and query under seeded failpoint
//! schedules (`--features failpoints`).
//!
//! Every scenario asserts the same core contract regardless of which
//! fault fires where:
//!
//! 1. **No torn reads**: every record a query returns decodes to the
//!    sequence-stamped payload its writer pushed.
//! 2. **Legal health states**: the engine only ever reports
//!    `healthy`, `degraded`, or `read-only`, and `read-only` is terminal.
//! 3. **Fail-fast ingest**: once read-only, `push` returns
//!    `LoomError::Degraded` instead of wedging or corrupting.
//! 4. **Surviving prefix**: reopening the directory after the storm
//!    always succeeds and serves a consistent prefix of what was pushed.
//!
//! The failpoint registry is process-global, so every test takes a
//! `fault::Scenario` guard, which serializes them and clears all
//! armings on entry and exit (even across panics).

#![cfg(feature = "failpoints")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use loom::fault::{self, FaultKind, FaultSpec, Trigger};
use loom::record::NIL_ADDR;
use loom::{
    Clock, Config, EngineHealth, IoRetryPolicy, Loom, LoomError, LoomWriter, OverloadPolicy,
    SourceId, TimeRange,
};

struct Env {
    dir: std::path::PathBuf,
}

impl Env {
    fn new(name: &str) -> Env {
        let dir = std::env::temp_dir().join(format!("loom-chaos-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Env { dir }
    }

    /// Small config with a tiny retry budget so give-up paths run in
    /// milliseconds, and `remove_on_drop` off so reopens see the files.
    /// Pinned to the flat single-shard layout: the schedules target log
    /// files by bare-name tag (which would substring-match every
    /// shard's log) and are calibrated to one funnel, except
    /// `one_shard_degrades_alone`, which opens its own sharded engine.
    fn config(&self) -> Config {
        let mut c = Config::small(&self.dir).with_shards(1);
        c.remove_on_drop = false;
        c
    }

    fn open(&self) -> (Loom, LoomWriter) {
        Loom::open(self.config()).unwrap()
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Pushes `n` 8-byte sequence-stamped records, stopping early (and
/// returning the error) if the engine degrades. Returns the number of
/// records the engine accepted.
fn push_seq(writer: &mut LoomWriter, s: SourceId, start: u64, n: u64) -> (u64, Option<LoomError>) {
    let mut accepted = 0;
    for i in start..start + n {
        match writer.push(s, &i.to_le_bytes()) {
            Ok(_) => accepted += 1,
            Err(e) => return (accepted, Some(e)),
        }
    }
    (accepted, None)
}

/// Scans every record of `s` and asserts the payloads are exactly the
/// contiguous sequence `0..k` for some `k <= limit` (oldest first).
/// Returns `k`.
fn assert_seq_prefix(loom: &Loom, s: SourceId, limit: u64) -> u64 {
    let mut got = Vec::new();
    loom.raw_scan(s, TimeRange::new(0, u64::MAX), |r| {
        got.push(u64::from_le_bytes(
            r.payload.try_into().expect("8-byte payload"),
        ));
    })
    .unwrap();
    got.reverse(); // raw_scan yields newest first
    for (i, v) in got.iter().enumerate() {
        assert_eq!(
            *v, i as u64,
            "record {i} holds sequence {v}: torn or reordered"
        );
    }
    assert!(
        got.len() as u64 <= limit,
        "scan returned {} records, but only {limit} were ever accepted",
        got.len()
    );
    got.len() as u64
}

/// Polls until `pred(health)` holds (5 s timeout).
fn wait_health(loom: &Loom, pred: impl Fn(&EngineHealth) -> bool) -> EngineHealth {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let h = loom.health();
        if pred(&h) {
            return h;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "health never reached the expected state; last = {h}"
        );
        std::thread::yield_now();
    }
}

/// Schedule 1: a transient EIO on the record log's first flush is fully
/// absorbed by the retry budget — no data loss, no poisoned writer, and
/// `io_retries` records the event.
#[test]
fn transient_eio_is_absorbed_by_retries() {
    let _s = fault::Scenario::begin();
    let env = Env::new("transient-eio");
    let (loom, mut writer) = env.open();
    let src = loom.define_source("app");

    fault::configure(
        fault::FLUSHER_WRITE,
        FaultSpec::new(FaultKind::Eio, Trigger::Nth(1)).for_tag("records.log"),
    );
    // ~3 blocks of 64 KiB: several seals, the first write attempt fails.
    let (accepted, err) = push_seq(&mut writer, src, 0, 25_000);
    assert!(err.is_none(), "transient fault must not surface: {err:?}");
    writer.sync().unwrap();

    assert_eq!(fault::fires(fault::FLUSHER_WRITE), 1);
    let snap = loom.metrics_snapshot();
    assert!(snap.hybridlog.io_retries >= 1, "retry not counted");
    assert_eq!(snap.hybridlog.io_giveups, 0);
    // The flap may have been Healthy→Degraded→Healthy; it must have
    // settled back by the time the sync round-tripped.
    assert_eq!(loom.health(), EngineHealth::Healthy);
    assert_eq!(assert_seq_prefix(&loom, src, accepted), accepted);

    writer.close().unwrap();
    let (loom2, _w2) = env.open();
    let src2 = resolve(&loom2, "app");
    assert_eq!(assert_seq_prefix(&loom2, src2, accepted), accepted);
}

/// Schedule 2: persistent ENOSPC on the record log exhausts the retry
/// budget: the engine transitions to terminal read-only, `push` fails
/// fast with `Degraded`, published data stays queryable, and the
/// directory reopens to a consistent prefix.
#[test]
fn persistent_enospc_degrades_to_read_only() {
    let _s = fault::Scenario::begin();
    let env = Env::new("enospc");
    let (loom, mut writer) = env.open();
    let src = loom.define_source("app");

    fault::configure(
        fault::FLUSHER_WRITE,
        FaultSpec::new(FaultKind::Enospc, Trigger::Always).for_tag("records.log"),
    );
    // Push until the engine rejects: the first sealed block starts the
    // retry → give-up cascade in the background.
    let mut accepted = 0u64;
    let mut degraded_err = None;
    for i in 0..2_000_000u64 {
        match writer.push(src, &i.to_le_bytes()) {
            Ok(_) => accepted += 1,
            Err(e) => {
                degraded_err = Some(e);
                break;
            }
        }
    }
    let e = degraded_err.expect("ingest must eventually be rejected");
    assert!(
        matches!(e, LoomError::Degraded { ref reason } if reason.contains("records.log")),
        "want Degraded naming the failing log, got {e}"
    );

    let h = wait_health(&loom, |h| matches!(h, EngineHealth::ReadOnly { .. }));
    assert_eq!(h.name(), "read-only");
    // Terminal: further pushes keep failing fast.
    assert!(matches!(
        writer.push(src, &0u64.to_le_bytes()),
        Err(LoomError::Degraded { .. })
    ));
    let snap = loom.metrics_snapshot();
    assert!(snap.hybridlog.io_giveups >= 1);
    assert!(snap.hybridlog.degraded_transitions >= 1);

    // Everything published is still queryable from the staging blocks.
    assert_eq!(assert_seq_prefix(&loom, src, accepted), accepted);

    // Close fails (the record log cannot flush), but the directory must
    // reopen to a consistent — possibly empty — prefix.
    let _ = writer.close();
    drop(loom);
    fault::clear_all();
    let (loom2, _w2) = env.open();
    let src2 = resolve(&loom2, "app");
    assert_seq_prefix(&loom2, src2, accepted);
    assert_eq!(loom2.health(), EngineHealth::Healthy);
}

/// Schedule 3: a short write on the chunk-index log is repaired by the
/// retry rewriting the full range at the same offset (pwrite
/// idempotence) — index queries stay correct.
#[test]
fn short_write_on_chunk_index_is_repaired() {
    let _s = fault::Scenario::begin();
    let env = Env::new("short-write");
    let (loom, mut writer) = env.open();
    let src = loom.define_source("app");

    fault::configure(
        fault::FLUSHER_WRITE,
        FaultSpec::new(FaultKind::ShortWrite, Trigger::Nth(1)).for_tag("chunks.log"),
    );
    let (accepted, err) = push_seq(&mut writer, src, 0, 60_000);
    assert!(err.is_none(), "{err:?}");
    writer.sync().unwrap();
    assert_eq!(loom.health(), EngineHealth::Healthy);
    assert_eq!(assert_seq_prefix(&loom, src, accepted), accepted);

    writer.close().unwrap();
    let (loom2, _w2) = env.open();
    let src2 = resolve(&loom2, "app");
    assert_eq!(assert_seq_prefix(&loom2, src2, accepted), accepted);
}

/// Schedule 4: seeded probabilistic EIO on the timestamp-index log; the
/// deterministic seed keeps the schedule reproducible. The run must end
/// in a legal state either way: healthy (faults absorbed) or read-only
/// (budget exhausted) with fail-fast pushes.
#[test]
fn probabilistic_ts_log_faults_end_in_a_legal_state() {
    let _s = fault::Scenario::begin();
    let env = Env::new("prob-ts");
    let (loom, mut writer) = env.open();
    let src = loom.define_source("app");

    fault::configure(
        fault::FLUSHER_WRITE,
        FaultSpec::new(FaultKind::Eio, Trigger::Probability(0.3))
            .for_tag("ts.log")
            .seed(42),
    );
    let (accepted, err) = push_seq(&mut writer, src, 0, 100_000);
    if let Some(e) = &err {
        assert!(matches!(e, LoomError::Degraded { .. }), "unexpected: {e}");
    }
    match loom.health() {
        EngineHealth::Healthy | EngineHealth::Degraded { .. } => {
            assert!(err.is_none());
        }
        EngineHealth::ReadOnly { .. } => {
            assert!(matches!(
                writer.push(src, &0u64.to_le_bytes()),
                Err(LoomError::Degraded { .. })
            ));
        }
    }
    assert_eq!(assert_seq_prefix(&loom, src, accepted), accepted);

    let _ = writer.close();
    drop(loom);
    fault::clear_all();
    let (loom2, _w2) = env.open();
    assert_seq_prefix(&loom2, resolve(&loom2, "app"), accepted);
}

/// Schedule 5: `fdatasync` failure. Writes succeed but the explicit
/// durable sync cannot make them survive an OS crash: the sync call
/// must surface the failure rather than lie about durability. (The
/// plain `sync()` is a write barrier and never issues an fdatasync, so
/// this failpoint only triggers on the durable path.)
#[test]
fn fsync_failure_fails_the_sync_call() {
    let _s = fault::Scenario::begin();
    let env = Env::new("fsync");
    let (loom, mut writer) = env.open();
    let src = loom.define_source("app");

    let (accepted, err) = push_seq(&mut writer, src, 0, 1_000);
    assert!(err.is_none());
    fault::configure(
        fault::FLUSHER_SYNC,
        FaultSpec::new(FaultKind::Eio, Trigger::Always).for_tag("records.log"),
    );
    let e = writer
        .sync_durable()
        .expect_err("sync_durable must fail when fdatasync fails");
    assert!(matches!(e, LoomError::Degraded { .. }), "got {e}");
    wait_health(&loom, |h| matches!(h, EngineHealth::ReadOnly { .. }));

    // Published records remain queryable in-process.
    assert_eq!(assert_seq_prefix(&loom, src, accepted), accepted);
    let _ = writer.close();
    drop(loom);
    fault::clear_all();
    let (loom2, _w2) = env.open();
    assert_seq_prefix(&loom2, resolve(&loom2, "app"), accepted);
}

/// Schedule 6: the clean-shutdown marker write fails on close. The next
/// open must fall back to crash recovery and reconstruct every record.
#[test]
fn failed_clean_shutdown_marker_forces_recovery() {
    let _s = fault::Scenario::begin();
    let env = Env::new("close-marker");
    let (loom, mut writer) = env.open();
    let src = loom.define_source("app");
    let (accepted, err) = push_seq(&mut writer, src, 0, 10_000);
    assert!(err.is_none());

    fault::configure(
        fault::MANIFEST_APPEND,
        FaultSpec::new(FaultKind::Eio, Trigger::Always).for_tag("CleanShutdown"),
    );
    let e = writer.close().expect_err("marker write must fail");
    assert!(matches!(e, LoomError::Io(_)), "got {e}");
    drop(loom);
    fault::clear_all();

    let (loom2, _w2) = env.open();
    let report = loom2
        .recovery_report()
        .expect("must take the recovery path");
    assert!(!report.clean, "clean-shutdown fast path must be off");
    assert_eq!(
        assert_seq_prefix(&loom2, resolve(&loom2, "app"), accepted),
        accepted,
        "flushed-on-close records must all survive recovery"
    );
}

/// Schedule 7: `LoomWriter::close` itself hits a fault after flushing
/// but before the marker — same recovery contract as schedule 6, via
/// the dedicated close failpoint.
#[test]
fn injected_close_failure_leaves_directory_recoverable() {
    let _s = fault::Scenario::begin();
    let env = Env::new("close-fp");
    let (loom, mut writer) = env.open();
    let src = loom.define_source("app");
    let (accepted, err) = push_seq(&mut writer, src, 0, 5_000);
    assert!(err.is_none());

    fault::configure(
        fault::WRITER_CLOSE,
        FaultSpec::new(FaultKind::Enospc, Trigger::Always),
    );
    let e = writer.close().expect_err("close failpoint must fire");
    assert!(
        matches!(e, LoomError::Io(ref io) if io.raw_os_error() == Some(28)),
        "got {e}"
    );
    drop(loom);
    fault::clear_all();

    let (loom2, _w2) = env.open();
    assert!(loom2.recovery_report().is_some());
    assert_eq!(
        assert_seq_prefix(&loom2, resolve(&loom2, "app"), accepted),
        accepted
    );
}

/// Schedule 8: superblock write failure on a fresh directory fails
/// `Loom::open` cleanly (no half-initialized instance), and the same
/// directory opens fine once the fault clears.
#[test]
fn superblock_write_failure_fails_open_cleanly() {
    let _s = fault::Scenario::begin();
    let env = Env::new("superblock");
    fault::configure(
        fault::SUPERBLOCK_WRITE,
        FaultSpec::new(FaultKind::Enospc, Trigger::Always),
    );
    let err = match Loom::open(env.config()) {
        Err(e) => e,
        Ok(_) => panic!("open must fail"),
    };
    assert!(matches!(err, LoomError::Io(ref io) if io.raw_os_error() == Some(28)));

    fault::clear_all();
    let (loom, mut writer) = env.open();
    let src = loom.define_source("app");
    let (accepted, err) = push_seq(&mut writer, src, 0, 1_000);
    assert!(err.is_none());
    assert_eq!(assert_seq_prefix(&loom, src, accepted), accepted);
}

/// Schedule 9: a panicking flusher is captured, not propagated: health
/// goes terminal read-only with a "panicked" reason, ingest fails fast,
/// and dropping the writer does not abort the process.
#[test]
fn flusher_panic_is_captured_as_read_only() {
    let _s = fault::Scenario::begin();
    let env = Env::new("panic");
    let (loom, mut writer) = env.open();
    let src = loom.define_source("app");

    fault::configure(
        fault::FLUSHER_WRITE,
        FaultSpec::new(FaultKind::Panic, Trigger::Nth(1)).for_tag("records.log"),
    );
    let mut accepted = 0u64;
    for i in 0..2_000_000u64 {
        match writer.push(src, &i.to_le_bytes()) {
            Ok(_) => accepted += 1,
            Err(_) => break,
        }
    }
    let h = wait_health(&loom, |h| matches!(h, EngineHealth::ReadOnly { .. }));
    assert!(
        matches!(h, EngineHealth::ReadOnly { ref reason } if reason.contains("panicked")),
        "want a panic reason, got {h}"
    );
    assert!(matches!(
        writer.push(src, &0u64.to_le_bytes()),
        Err(LoomError::Degraded { .. })
    ));
    assert_eq!(assert_seq_prefix(&loom, src, accepted), accepted);
    // Must not re-raise the flusher panic.
    let _ = writer.close();
    drop(loom);
    fault::clear_all();
    let (loom2, _w2) = env.open();
    assert_seq_prefix(&loom2, resolve(&loom2, "app"), accepted);
}

/// Schedule 10: `DropNewest` overload policy. A long burst of retries
/// stalls the flusher; pushes that would block drop instead, counted in
/// `ingest_drops`, and the engine recovers to healthy with exactly the
/// accepted records queryable.
#[test]
fn drop_newest_sheds_load_during_a_flusher_stall() {
    let _s = fault::Scenario::begin();
    let env = Env::new("drop-newest");
    let mut config = env.config().with_overload(OverloadPolicy::DropNewest);
    // Generous budget with slow backoff: the flusher survives the fault
    // burst but is stalled for >= 40 * 2ms while it lasts.
    config.io_retry = IoRetryPolicy {
        attempts: 100,
        base_backoff: std::time::Duration::from_millis(2),
        max_backoff: std::time::Duration::from_millis(2),
    };
    let (loom, mut writer) = Loom::open(config).unwrap();
    let src = loom.define_source("app");

    fault::configure(
        fault::FLUSHER_WRITE,
        FaultSpec::new(FaultKind::Eio, Trigger::Always)
            .for_tag("records.log")
            .max_fires(40),
    );
    let mut accepted = 0u64;
    let mut dropped = 0u64;
    for i in 0..400_000u64 {
        match writer.push(src, &accepted.to_le_bytes()) {
            Ok(addr) if addr == NIL_ADDR => dropped += 1,
            Ok(_) => accepted += 1,
            Err(e) => panic!("DropNewest must never error: {e} (iteration {i})"),
        }
    }
    assert!(dropped > 0, "the stall must have shed at least one record");
    writer.sync().unwrap();
    wait_health(&loom, |h| matches!(h, EngineHealth::Healthy));

    let snap = loom.metrics_snapshot();
    assert_eq!(snap.coordinator.ingest_drops, dropped);
    assert!(snap.hybridlog.io_retries >= 40);
    assert_eq!(snap.hybridlog.io_giveups, 0);
    // Accepted records form the exact contiguous sequence; drops left
    // no hole because the payload carries the accepted-count stamp.
    assert_eq!(assert_seq_prefix(&loom, src, accepted), accepted);

    writer.close().unwrap();
    let (loom2, _w2) = env.open();
    assert_eq!(
        assert_seq_prefix(&loom2, resolve(&loom2, "app"), accepted),
        accepted
    );
}

/// Schedule 11: `ErrorFast` overload policy surfaces `Overloaded` to
/// the caller during the stall, and ingest succeeds again afterwards.
#[test]
fn error_fast_surfaces_overload_to_the_caller() {
    let _s = fault::Scenario::begin();
    let env = Env::new("error-fast");
    let mut config = env.config().with_overload(OverloadPolicy::ErrorFast);
    config.io_retry = IoRetryPolicy {
        attempts: 100,
        base_backoff: std::time::Duration::from_millis(2),
        max_backoff: std::time::Duration::from_millis(2),
    };
    let (loom, mut writer) = Loom::open(config).unwrap();
    let src = loom.define_source("app");

    fault::configure(
        fault::FLUSHER_WRITE,
        FaultSpec::new(FaultKind::Eio, Trigger::Always)
            .for_tag("records.log")
            .max_fires(40),
    );
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for _ in 0..400_000u64 {
        match writer.push(src, &accepted.to_le_bytes()) {
            Ok(_) => accepted += 1,
            Err(LoomError::Overloaded) => rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(
        rejected > 0,
        "the stall must have rejected at least one push"
    );
    writer.sync().unwrap();
    wait_health(&loom, |h| matches!(h, EngineHealth::Healthy));
    // A push after recovery succeeds (ErrorFast is retryable).
    writer.push(src, &accepted.to_le_bytes()).unwrap();
    accepted += 1;
    writer.sync().unwrap();
    assert_eq!(assert_seq_prefix(&loom, src, accepted), accepted);
}

/// Schedule 12: the full storm — concurrent ingest and query threads
/// under seeded probabilistic faults across all three logs, repeated
/// for several seeds. Queries must never fail or see torn data, and
/// every run must end in a legal health state with a recoverable
/// directory.
#[test]
fn concurrent_storm_across_all_logs_keeps_queries_consistent() {
    for seed in [1u64, 7, 1234] {
        let _s = fault::Scenario::begin();
        let env = Env::new(&format!("storm-{seed}"));
        let (loom, mut writer) = env.open();
        let src = loom.define_source("app");

        // Warm up so queries always have something to read.
        let (warm, err) = push_seq(&mut writer, src, 0, 5_000);
        assert!(err.is_none());
        writer.sync().unwrap();

        fault::configure(
            fault::FLUSHER_WRITE,
            FaultSpec::new(FaultKind::Eio, Trigger::Probability(0.10)).seed(seed),
        );
        fault::configure(
            fault::FLUSHER_SYNC,
            FaultSpec::new(FaultKind::Eio, Trigger::Probability(0.10)).seed(seed ^ 0xFF),
        );

        let stop = Arc::new(AtomicBool::new(false));
        let reader_loom = loom.clone();
        let reader_stop = Arc::clone(&stop);
        let reader = std::thread::spawn(move || {
            let mut rounds = 0u64;
            let mut last_count = 0u64;
            while !reader_stop.load(Ordering::Relaxed) {
                let mut got = Vec::new();
                reader_loom
                    .raw_scan(src, TimeRange::new(0, u64::MAX), |r| {
                        got.push(u64::from_le_bytes(r.payload.try_into().expect("8 bytes")));
                    })
                    .expect("queries must keep working under faults");
                got.reverse();
                for (i, v) in got.iter().enumerate() {
                    assert_eq!(*v, i as u64, "torn read at {i} (seed {})", rounds);
                }
                // Monotonic: a later scan never sees fewer records.
                assert!(got.len() as u64 >= last_count, "scan went backwards");
                last_count = got.len() as u64;
                rounds += 1;
            }
            rounds
        });

        let (more, err) = push_seq(&mut writer, src, warm, 150_000);
        let accepted = warm + more;
        if let Some(e) = &err {
            assert!(matches!(e, LoomError::Degraded { .. }), "unexpected: {e}");
        }
        // Exercise the fdatasync site too; under a 10% fault rate either
        // outcome is legal, but a failure must be a Degraded report, not
        // a wedge or a panic.
        if let Err(e) = writer.sync_durable() {
            assert!(matches!(e, LoomError::Degraded { .. }), "unexpected: {e}");
        }
        stop.store(true, Ordering::Relaxed);
        let rounds = reader.join().expect("reader must not panic");
        assert!(rounds > 0, "reader never completed a scan");

        // Legal end state, and fail-fast if read-only.
        match loom.health() {
            EngineHealth::Healthy | EngineHealth::Degraded { .. } => {}
            EngineHealth::ReadOnly { .. } => {
                assert!(matches!(
                    writer.push(src, &0u64.to_le_bytes()),
                    Err(LoomError::Degraded { .. })
                ));
            }
        }
        assert_eq!(assert_seq_prefix(&loom, src, accepted), accepted);

        let _ = writer.close();
        drop(loom);
        fault::clear_all();
        let (loom2, _w2) = env.open();
        assert_seq_prefix(&loom2, resolve(&loom2, "app"), accepted);
        assert_eq!(loom2.health(), EngineHealth::Healthy);
    }
}

/// Persistent ENOSPC on one shard's record log drives *that shard* to
/// terminal read-only; every other shard stays healthy and keeps
/// ingesting. This is the tenant-isolation property the sharded layout
/// exists for — one tenant filling its disk budget must not take down
/// its neighbours. (It lives here, not in tests/shard.rs, because its
/// tag matches `shard-N/records.log` of *every* engine in the process:
/// the scenario lock keeps it from firing into other tests' engines.)
#[test]
fn one_shard_degrades_alone() {
    let _s = fault::Scenario::begin();
    let env = Env::new("isolate");
    let mut config = Config::small(&env.dir).with_shards(4);
    config.remove_on_drop = false;
    let (loom, mut writer) = Loom::open_with_clock(config, Clock::manual(100)).unwrap();

    // Find a victim source and a bystander on a different shard.
    let victim = loom.define_source("victim");
    let bad = loom.home_shard(victim);
    let bystander = (0..64)
        .map(|i| loom.define_source(&format!("bystander-{i}")))
        .find(|s| loom.home_shard(*s) != bad)
        .expect("64 sources over 4 shards must hit another shard");
    let good = loom.home_shard(bystander);

    // The tag prefixes every log file of shard `bad` and no other.
    fault::configure(
        fault::FLUSHER_WRITE,
        FaultSpec::new(FaultKind::Enospc, Trigger::Always)
            .for_tag(format!("shard-{bad}/records.log")),
    );

    // Push into the victim until its shard's retry budget is exhausted
    // and ingest fails fast.
    let mut rejected = None;
    for i in 0..2_000_000u64 {
        loom.clock().advance(1);
        if let Err(e) = writer.push(victim, &i.to_le_bytes()) {
            rejected = Some(e);
            break;
        }
    }
    let e = rejected.expect("the failing shard must reject ingest");
    assert!(
        matches!(&e, LoomError::Degraded { reason } if reason.contains(&format!("shard-{bad}/"))),
        "degradation must name the failing shard's log, got {e}"
    );

    // The failing shard lands in terminal read-only; the engine's
    // worst-of-shards health follows it.
    wait_health(&loom, |h| matches!(h, EngineHealth::ReadOnly { .. }));
    assert!(matches!(
        loom.shard_health()[bad],
        EngineHealth::ReadOnly { .. }
    ));

    // Every *other* shard never saw a fault: still healthy, still
    // ingesting, still serving queries.
    for (i, h) in loom.shard_health().iter().enumerate() {
        if i != bad {
            assert_eq!(*h, EngineHealth::Healthy, "shard {i} was collateral damage");
        }
    }
    for v in 0..1_000u64 {
        loom.clock().advance(1);
        writer.push(bystander, &v.to_le_bytes()).unwrap();
    }
    let mut scanned = 0;
    loom.raw_scan(bystander, TimeRange::new(0, u64::MAX), |_| scanned += 1)
        .unwrap();
    assert_eq!(scanned, 1_000);
    assert_eq!(loom.shard_health()[good], EngineHealth::Healthy);

    // Victim pushes keep failing fast rather than wedging.
    assert!(matches!(
        writer.push(victim, &0u64.to_le_bytes()),
        Err(LoomError::Degraded { .. })
    ));
}

/// Re-resolves a source by name after a reopen.
fn resolve(loom: &Loom, name: &str) -> SourceId {
    loom.sources()
        .into_iter()
        .find(|(_, n, _)| n == name)
        .map(|(id, _, _)| id)
        .expect("source must survive reopen")
}
