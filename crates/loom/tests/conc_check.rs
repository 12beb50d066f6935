//! Model-check harnesses for the hybrid log's lock-free protocols and
//! the summary mirror's publication order.
//!
//! Compiled only under `--cfg conc_check`, where the crate's `sync`
//! facade resolves to `conc-check`'s instrumented primitives: every
//! atomic op, spin hint, and yield in `hybridlog::Block` becomes a
//! scheduling point (each `SummaryMirror` operation is one, too), and
//! the checker enumerates thread interleavings exhaustively up to a
//! preemption bound. Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg conc_check" cargo test -p loom --test conc_check
//! ```
#![cfg(conc_check)]

use conc_check::sync::atomic::{AtomicU64, Ordering};
use conc_check::sync::{thread, Arc};
use conc_check::{Checker, FailureKind};
use loom::chunk_index::SummaryMirror;
use loom::hybridlog::Block;
use loom::summary::ChunkSummary;

const CAP: usize = 8;

/// §4 seqlock protocol: a snapshot reader racing the writer's recycle
/// must either fail validation or observe only generation-1 bytes —
/// never the recycled generation's bytes, never a mix.
#[test]
fn seqlock_read_vs_writer_recycle() {
    let report = Checker::new()
        .with_preemption_bound(3)
        .check(|| {
            let block = Arc::new(Block::new(CAP));
            block.claim(0); // generation 1, holds 0xAA
            block.write(0, &[0xAA; CAP]);
            let gen = block.generation();

            let b = Arc::clone(&block);
            let reader = thread::spawn(move || {
                let mut buf = [0u8; CAP];
                if b.try_read(gen, 0, &mut buf) {
                    // A validated read must be the generation it asked
                    // for, in full.
                    assert!(
                        buf.iter().all(|&x| x == 0xAA),
                        "validated read of gen {gen} observed recycled bytes: {buf:?}"
                    );
                }
            });

            // Writer: flush and recycle the block for a new base, then
            // immediately overwrite — the exact sequence `try_read`'s
            // registration + generation check must defend against.
            block.mark_flushed();
            block.claim(CAP as u64); // generation 2
            block.write(0, &[0xBB; CAP]);
            reader.join().unwrap();
        })
        .expect("seqlock read/recycle protocol must have no failing interleaving");
    assert!(report.complete, "schedule space must be fully enumerated");
    assert!(report.schedules > 10, "expected real interleaving choices");
}

/// Sanity check that the harness has teeth: a reader that skips
/// registration and validation (`flusher_read` misused from a second
/// thread) IS caught observing recycled bytes.
#[test]
fn seqlock_without_registration_is_caught() {
    let failure = Checker::new()
        .with_preemption_bound(3)
        .check(|| {
            let block = Arc::new(Block::new(CAP));
            block.claim(0);
            block.write(0, &[0xAA; CAP]);
            let gen = block.generation();

            let b = Arc::clone(&block);
            let reader = thread::spawn(move || {
                // BUG under test: validates the generation but never
                // registers, so the writer's recycle does not wait.
                if b.generation() == gen {
                    let mut buf = [0u8; CAP];
                    b.flusher_read(0, &mut buf);
                    assert!(
                        buf.iter().all(|&x| x == 0xAA),
                        "unregistered read observed recycled bytes"
                    );
                }
            });

            block.mark_flushed();
            block.claim(CAP as u64);
            block.write(0, &[0xBB; CAP]);
            reader.join().unwrap();
        })
        .expect_err("an unregistered reader must be caught by the checker");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("recycled bytes"), "{failure}");
}

/// Ping-pong block swap + flush handoff, miniaturized from
/// `hybridlog::log`: the writer seals blocks to a flusher over the
/// crossbeam-shim channel, spin-waits for the *other* block's flush
/// before claiming it, and the flusher reads sealed contents and marks
/// them flushed. Invariants: the writer never claims an unflushed block
/// (`claim` panics), the flusher sees each seal's exact contents, and
/// every spin-wait terminates (no deadlock/livelock).
#[test]
fn ping_pong_swap_and_flush_handoff() {
    let report = Checker::new()
        .with_preemption_bound(2)
        .max_schedules(300_000)
        .check(|| {
            let blocks = Arc::new([Block::new(CAP), Block::new(CAP)]);
            let (seal_tx, seal_rx) = crossbeam::channel::unbounded::<usize>();

            let fb = Arc::clone(&blocks);
            let flusher = thread::spawn(move || {
                let mut seals = 0u8;
                while let Ok(idx) = seal_rx.recv() {
                    seals += 1;
                    let mut buf = [0u8; CAP];
                    fb[idx].flusher_read(0, &mut buf);
                    // Seal n carries fill byte n; the writer cannot have
                    // reclaimed this block yet (it waits for the flush).
                    assert!(
                        buf.iter().all(|&x| x == seals),
                        "flusher read wrong contents for seal {seals}: {buf:?}"
                    );
                    fb[idx].mark_flushed();
                }
                seals
            });

            // Writer: three seals across the two ping-pong blocks.
            let mut active = 0usize;
            blocks[0].claim(0);
            for round in 1..=3u8 {
                blocks[active].write(0, &[round; CAP]);
                seal_tx.send(active).unwrap();
                let next = 1 - active;
                // Backpressure: the next block must be flushed before it
                // can be claimed (miniature of Writer::seal_active).
                while !blocks[next].is_flushed() {
                    std::hint::spin_loop();
                }
                blocks[next].claim(round as u64 * CAP as u64);
                active = next;
            }
            drop(seal_tx);
            assert_eq!(flusher.join().unwrap(), 3);
        })
        .expect("ping-pong swap + flush handoff must have no failing interleaving");
    assert!(report.schedules > 10);
}

/// Summaries sealed per summary-mirror harness run.
const SEALS: u64 = 2;
/// Chunk-index frame length of each miniature summary.
const FRAME: u64 = 100;

/// Summary-mirror publication order (DESIGN §10.1), miniaturized from
/// `ShardWriter::append_summary` and `QueryView::capture_from`: the
/// writer mirrors each summary, then publishes the chunk-index and
/// timestamp watermarks; a reader captures timestamp → chunk → mirror.
/// Every seal inside the reader's timestamp snapshot must resolve in its
/// mirror capture. `publish_first` seeds the bug: watermarks before the
/// mirror append.
fn summary_mirror_protocol(publish_first: bool) -> Result<conc_check::Report, conc_check::Failure> {
    Checker::new().with_preemption_bound(3).check(move || {
        let mirror = Arc::new(SummaryMirror::default());
        // Seals published (the timestamp index) and the chunk-index
        // watermark; seal `i` targets the frame at `i * FRAME`.
        let ts_wm = Arc::new(AtomicU64::new(0));
        let chunk_wm = Arc::new(AtomicU64::new(0));

        let (m, ts, chunk) = (
            Arc::clone(&mirror),
            Arc::clone(&ts_wm),
            Arc::clone(&chunk_wm),
        );
        let reader = thread::spawn(move || {
            let seals = ts.load(Ordering::Acquire);
            let limit = chunk.load(Ordering::Acquire);
            let snap = m.capture();
            for i in 0..seals {
                assert!(
                    snap.get(i * FRAME).is_some(),
                    "seal {i} is published but missing from the mirror capture"
                );
            }
            assert!(limit >= seals * FRAME, "chunk watermark behind a seal");
        });

        for i in 0..SEALS {
            let mut summary = ChunkSummary::new(i, i * 4096, 4096);
            summary.observe_record(1, i);
            if !publish_first {
                mirror.append(i * FRAME, FRAME as usize, &summary);
            }
            chunk_wm.store((i + 1) * FRAME, Ordering::Release);
            ts_wm.store(i + 1, Ordering::Release);
            if publish_first {
                mirror.append(i * FRAME, FRAME as usize, &summary);
            }
        }
        reader.join().unwrap();
    })
}

#[test]
fn summary_mirror_append_precedes_publication() {
    let report = summary_mirror_protocol(false)
        .expect("every published seal must resolve in the mirror capture");
    assert!(report.complete, "schedule space must be fully enumerated");
    assert!(report.schedules > 10, "expected real interleaving choices");
}

/// Teeth: publishing the watermarks before the mirror append lets a
/// reader see a seal whose summary its capture lacks.
#[test]
fn summary_mirror_publish_before_append_is_caught() {
    let failure = summary_mirror_protocol(true)
        .expect_err("publish-before-append must be caught by the checker");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("missing from the mirror"),
        "{failure}"
    );
}
