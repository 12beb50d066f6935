//! The indexed range scan operator (§4.3).
//!
//! Retrieves records of a source within a time range *and* a value range,
//! using the timestamp index to find the relevant chunk summaries and the
//! summaries' histogram bins to skip chunks that cannot contain matching
//! values. Chunks that match are decoded into columns and records
//! re-filtered exactly; the active (unsummarized) tail region is decoded
//! the same way, forward, until a record past the range.
//!
//! The module also implements the paper's index-ablation modes (§6.4):
//! timestamp-index-only, chunk-index-only, and no-index execution.

use super::columnar;
use super::executor::{self, RecordBatch};
use super::planner::{self, SummaryPlan};
use super::view::QueryView;
use super::{IndexMeta, QueryOptions, Record, TimeRange, ValueRange};
use crate::chunk_index::SummaryRef;
use crate::error::Result;
use crate::obs::{QueryPhases, Stopwatch};
use crate::stats::QueryStats;
use crate::ts_index::{TsIndexView, TsKind};

/// Executes an indexed scan over `view`, filling `phases` with per-stage
/// wall-clock durations.
pub(crate) fn run<F>(
    view: &QueryView<'_>,
    meta: &IndexMeta,
    range: TimeRange,
    values: ValueRange,
    opts: QueryOptions,
    phases: &mut QueryPhases,
    mut f: F,
) -> Result<QueryStats>
where
    F: FnMut(Record<'_>),
{
    let mut stats = QueryStats {
        workers_used: 1,
        ..QueryStats::default()
    };
    match (opts.use_ts_index, opts.use_chunk_index) {
        (true, true) => {
            let timer = Stopwatch::start();
            let plan = planner::plan(view, range)?;
            phases.plan_nanos += timer.elapsed_nanos();
            scan_with_summaries(
                view, meta, range, values, &plan, opts, &mut stats, phases, &mut f,
            )?;
        }
        (false, true) => {
            let timer = Stopwatch::start();
            let plan = planner::plan_full(view)?;
            phases.plan_nanos += timer.elapsed_nanos();
            scan_with_summaries(
                view, meta, range, values, &plan, opts, &mut stats, phases, &mut f,
            )?;
        }
        (true, false) => {
            // A single forward region scan with early stop: sequential by
            // construction, so the pool is never used here.
            scan_ts_only(view, meta, range, values, &mut stats, phases, &mut f)?;
        }
        (false, false) => {
            scan_none(view, meta, range, values, opts, &mut stats, phases, &mut f)?;
        }
    }
    Ok(stats)
}

/// Whether a summary's bins for this index can contain values in range.
fn bins_may_match(meta: &IndexMeta, summary: SummaryRef<'_>, values: &ValueRange) -> bool {
    let Some(bins) = summary.index_bins(meta.id.0) else {
        // No indexed data in this chunk (e.g., the index was defined after
        // the chunk sealed, §5.3): nothing for this index to return.
        return false;
    };
    bins.iter().any(|(bin, stats)| {
        let (lo, hi) = meta.spec.bin_range(*bin as usize);
        // The bin overlaps the query range and its observed min/max do too.
        lo <= values.hi && hi > values.lo && stats.min <= values.hi && stats.max >= values.lo
    })
}

/// Delivers a worker-collected batch to the user callback, in log order.
fn deliver_batch<F>(meta: &IndexMeta, batch: &RecordBatch, f: &mut F)
where
    F: FnMut(Record<'_>),
{
    batch.for_each(|addr, ts, payload| {
        f(Record {
            addr,
            source: meta.source,
            ts,
            payload,
        })
    });
}

/// Default path: summaries select chunks; the tail region is decoded
/// forward to the first record past the range.
///
/// The selected chunks are decoded serially (one worker) or fanned across
/// the worker pool; either way records are delivered in log order. The
/// unsummarized tail region always stays serial — it is at most one chunk
/// ahead of the last seal and its early-stop scan is inherently ordered.
#[allow(clippy::too_many_arguments)]
fn scan_with_summaries<F>(
    view: &QueryView<'_>,
    meta: &IndexMeta,
    range: TimeRange,
    values: ValueRange,
    plan: &SummaryPlan,
    opts: QueryOptions,
    stats: &mut QueryStats,
    phases: &mut QueryPhases,
    f: &mut F,
) -> Result<()>
where
    F: FnMut(Record<'_>),
{
    let select_timer = Stopwatch::start();
    let probes_before = stats.summaries_scanned;
    let mut chunks: Vec<u64> = Vec::new();
    planner::for_each_relevant_summary(
        view,
        plan,
        range,
        &mut stats.summaries_scanned,
        |summary, _fully| {
            if summary.has_source(meta.source.0) && bins_may_match(meta, summary, &values) {
                chunks.push(summary.chunk_addr());
            }
            Ok(())
        },
    )?;
    phases.select_nanos += select_timer.elapsed_nanos();
    view.obs
        .index
        .summary_probes(stats.summaries_scanned - probes_before);
    view.obs.index.chunk_hits(chunks.len() as u64);
    let values = Some(&values);
    let workers = view.workers(opts.parallelism, chunks.len());
    stats.workers_used = stats.workers_used.max(workers as u64);
    let mut matched = 0u64;
    let scan_timer = Stopwatch::start();
    if workers <= 1 {
        let mut bufs = view.bufs.acquire();
        for chunk_addr in chunks {
            let out =
                columnar::decode_chunk(view, meta, chunk_addr, range, values, None, &mut bufs)?;
            bufs.cols.emit(&bufs.chunk, meta.source, f);
            out.scan.fold_into(stats);
            matched += out.selected;
            if out.selected == 0 {
                view.obs.index.false_positive_chunk();
            }
        }
        view.bufs.release(bufs);
    } else {
        view.obs.query.pool_tasks(chunks.len() as u64);
        let batches = executor::map_chunks(view.bufs, workers, &chunks, |bufs, chunk_addr| {
            let out = columnar::decode_chunk(view, meta, chunk_addr, range, values, None, bufs)?;
            let mut batch = view.bufs.acquire_batch();
            bufs.cols.emit_to_batch(&bufs.chunk, &mut batch);
            Ok((out.scan, batch))
        })?;
        for (out, batch) in batches {
            out.fold_into(stats);
            matched += batch.len() as u64;
            if batch.is_empty() {
                view.obs.index.false_positive_chunk();
            }
            deliver_batch(meta, &batch, f);
            view.bufs.release_batch(batch);
        }
    }
    phases.chunk_scan_nanos += scan_timer.elapsed_nanos();

    if plan.region_relevant {
        let tail_timer = Stopwatch::start();
        let from = plan.region_start;
        columnar::decode_forward(view, meta, from, range, values, stats, |bufs, selected| {
            bufs.cols.emit(&bufs.chunk, meta.source, f);
            matched += selected;
        })?;
        phases.tail_scan_nanos += tail_timer.elapsed_nanos();
    }
    stats.records_matched += matched;
    Ok(())
}

/// Timestamp-index-only ablation: seek to the range start by time, then
/// decode forward without chunk skipping.
fn scan_ts_only<F>(
    view: &QueryView<'_>,
    meta: &IndexMeta,
    range: TimeRange,
    values: ValueRange,
    stats: &mut QueryStats,
    phases: &mut QueryPhases,
    f: &mut F,
) -> Result<()>
where
    F: FnMut(Record<'_>),
{
    view.obs.index.ts_seek();
    let plan_timer = Stopwatch::start();
    let tsv = TsIndexView::new(&view.ts);
    // Seek: the newest timestamp entry at or before the range start gives
    // a record-log position from which scanning forward covers the range.
    let pos = tsv.partition_by_ts(range.start.saturating_sub(1))?;
    let from = tsv
        .find_backward(pos, |e| e.kind == TsKind::RecordMark)?
        .map(|(_, e)| e.target - e.target % view.chunk_size)
        .unwrap_or(0);
    phases.plan_nanos += plan_timer.elapsed_nanos();
    let mut matched = 0u64;
    let scan_timer = Stopwatch::start();
    let values = Some(&values);
    columnar::decode_forward(view, meta, from, range, values, stats, |bufs, selected| {
        bufs.cols.emit(&bufs.chunk, meta.source, f);
        matched += selected;
    })?;
    phases.chunk_scan_nanos += scan_timer.elapsed_nanos();
    stats.records_matched += matched;
    Ok(())
}

/// No-index ablation: scan the record log backward from the tail, chunk
/// piece by chunk piece, until reaching data older than the range. This is
/// what a raw-file scan does and makes latency grow with lookback
/// distance (§6.4, Figure 16).
///
/// With 2+ workers, descending batches of pieces are scanned in parallel
/// and delivered newest-first; pieces scanned past the terminating one
/// (speculative over-read) are discarded without folding their counters,
/// so statistics match the serial path exactly.
#[allow(clippy::too_many_arguments)]
fn scan_none<F>(
    view: &QueryView<'_>,
    meta: &IndexMeta,
    range: TimeRange,
    values: ValueRange,
    opts: QueryOptions,
    stats: &mut QueryStats,
    phases: &mut QueryPhases,
    f: &mut F,
) -> Result<()>
where
    F: FnMut(Record<'_>),
{
    let wm = view.rec.watermark();
    if wm == 0 {
        return Ok(());
    }
    let newest_piece = (wm - 1) / view.chunk_size;
    let total_pieces = newest_piece as usize + 1;
    let workers = view.workers(opts.parallelism, total_pieces);
    stats.workers_used = stats.workers_used.max(workers as u64);
    let values = Some(&values);
    // Whether a piece (and so every earlier one) holds only older records.
    let past_range = |piece_max_ts: u64| piece_max_ts != 0 && piece_max_ts < range.start;
    let mut matched = 0u64;
    let scan_timer = Stopwatch::start();
    if workers <= 1 {
        let mut bufs = view.bufs.acquire();
        for piece in (0..=newest_piece).rev() {
            let addr = piece * view.chunk_size;
            let out = columnar::decode_chunk(view, meta, addr, range, values, None, &mut bufs)?;
            bufs.cols.emit(&bufs.chunk, meta.source, f);
            out.scan.fold_into(stats);
            matched += out.selected;
            if past_range(out.max_ts) {
                break;
            }
        }
        view.bufs.release(bufs);
    } else {
        let mut next_piece = newest_piece;
        'outer: loop {
            // Pieces for this round, newest first.
            let batch_len = ((workers * 2) as u64).min(next_piece + 1);
            let pieces: Vec<u64> = (0..batch_len).map(|i| next_piece - i).collect();
            view.obs.query.pool_tasks(pieces.len() as u64);
            let outputs = executor::map_chunks(view.bufs, workers, &pieces, |bufs, piece| {
                let addr = piece * view.chunk_size;
                let out = columnar::decode_chunk(view, meta, addr, range, values, None, bufs)?;
                let mut batch = view.bufs.acquire_batch();
                bufs.cols.emit_to_batch(&bufs.chunk, &mut batch);
                Ok((out.scan, batch, out.max_ts))
            })?;
            for (out, batch, piece_max_ts) in outputs {
                out.fold_into(stats);
                matched += batch.len() as u64;
                deliver_batch(meta, &batch, f);
                view.bufs.release_batch(batch);
                if past_range(piece_max_ts) {
                    break 'outer;
                }
            }
            if next_piece + 1 == batch_len {
                break;
            }
            next_piece -= batch_len;
        }
    }
    phases.chunk_scan_nanos += scan_timer.elapsed_nanos();
    stats.records_matched += matched;
    Ok(())
}
