//! The indexed aggregate operator (§4.3).
//!
//! Distributive aggregates (count, sum, min, max, mean) are computed from
//! chunk-summary bins whenever a chunk's time range lies fully inside the
//! query range, falling back to exact chunk scans for partially covered
//! chunks and the unsummarized tail region.
//!
//! Holistic percentiles use the bins-as-CDF strategy: a first pass
//! accumulates per-bin counts to locate the bin containing the requested
//! rank; a second pass collects only that bin's values and selects the
//! rank within it. This avoids materializing or sorting the whole data
//! set.
//!
//! Exact chunk scans (the partially-covered chunks of every aggregate and
//! the value collection of percentile phase B) decode each chunk into
//! columns (`super::columnar`) and are independent per chunk,
//! so they run on the worker pool when `QueryOptions::parallelism` (or
//! `Config::query_threads`) asks for more than one thread. Both the serial
//! and parallel paths produce one partial result *per chunk* and merge
//! them in chunk order — the floating-point association is therefore
//! identical for every pool size, and results are bit-for-bit
//! reproducible.

use super::columnar::{self, ScanBuffers};
use super::executor;
use super::planner::{self, SummaryPlan};
use super::view::{QueryView, RegionScan};
use super::{Aggregate, AggregateResult, IndexMeta, QueryOptions, TimeRange};
use crate::error::{LoomError, Result};
use crate::obs::{QueryPhases, Stopwatch};
use crate::stats::QueryStats;
use crate::summary::BinStats;

/// Runs `task(bufs, chunk_addr)` over every chunk and returns the per-chunk
/// partial results in chunk order, folding each chunk's scan counters into
/// `stats` (also in chunk order).
///
/// With one worker the chunks are scanned inline on the calling thread
/// with a single pooled scratch buffer; otherwise they fan out across the
/// pool. Both paths run the same per-chunk closure and merge in the same
/// order, so the result is independent of the worker count.
fn for_chunks<T, F>(
    view: &QueryView<'_>,
    workers: usize,
    chunks: &[u64],
    stats: &mut QueryStats,
    task: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&mut ScanBuffers, u64) -> Result<(T, RegionScan)> + Sync,
{
    let outputs = if workers <= 1 {
        let mut bufs = view.bufs.acquire();
        let mut outputs = Vec::with_capacity(chunks.len());
        for &chunk_addr in chunks {
            outputs.push(task(&mut bufs, chunk_addr)?);
        }
        view.bufs.release(bufs);
        outputs
    } else {
        executor::map_chunks(view.bufs, workers, chunks, |bufs, chunk_addr| {
            task(bufs, chunk_addr)
        })?
    };
    let mut results = Vec::with_capacity(outputs.len());
    for (value, out) in outputs {
        out.fold_into(stats);
        results.push(value);
    }
    Ok(results)
}

/// Decodes the chunk piece at `chunk_addr` and hands `each` the extracted
/// value of every record of the index's source inside `range`, in chunk
/// order.
fn chunk_values(
    view: &QueryView<'_>,
    meta: &IndexMeta,
    chunk_addr: u64,
    range: TimeRange,
    stop_after: Option<u64>,
    bufs: &mut ScanBuffers,
    each: impl FnMut(f64),
) -> Result<RegionScan> {
    let out = columnar::decode_chunk(view, meta, chunk_addr, range, None, stop_after, bufs)?;
    bufs.cols.selected_values().for_each(each);
    Ok(out.scan)
}

/// [`chunk_values`] over the unsummarized tail region, when the plan says
/// it can hold records in range (always serial: the region is at most one
/// chunk of not-yet-sealed data).
fn tail_values(
    view: &QueryView<'_>,
    meta: &IndexMeta,
    range: TimeRange,
    plan: &SummaryPlan,
    stats: &mut QueryStats,
    phases: &mut QueryPhases,
    mut each: impl FnMut(f64),
) -> Result<()> {
    if !plan.region_relevant {
        return Ok(());
    }
    let tail_timer = Stopwatch::start();
    let from = plan.region_start;
    columnar::decode_forward(view, meta, from, range, None, stats, |bufs, _| {
        bufs.cols.selected_values().for_each(&mut each)
    })?;
    phases.tail_scan_nanos += tail_timer.elapsed_nanos();
    Ok(())
}

/// The per-bin record counts of an index over a time range, plus what
/// percentile phase B needs to revisit the same chunks.
struct BinCounts {
    plan: SummaryPlan,
    counts: Vec<u64>,
    /// Chunks only partially inside the range (counted exactly).
    partial_chunks: Vec<u64>,
    stats: QueryStats,
}

/// Counts records per bin (bins as a CDF, §4.3): summary bins for chunks
/// fully inside `range`, exact decode for partially covered chunks and
/// the tail region.
fn count_bins(
    view: &QueryView<'_>,
    meta: &IndexMeta,
    range: TimeRange,
    opts: QueryOptions,
    phases: &mut QueryPhases,
) -> Result<BinCounts> {
    let mut stats = QueryStats {
        workers_used: 1,
        ..QueryStats::default()
    };
    let plan_timer = Stopwatch::start();
    let plan = planner::plan(view, range)?;
    phases.plan_nanos += plan_timer.elapsed_nanos();
    let bin_count = meta.spec.bin_count();
    let mut counts = vec![0u64; bin_count];
    let mut partial_chunks: Vec<u64> = Vec::new();
    let select_timer = Stopwatch::start();
    planner::for_each_relevant_summary(
        view,
        &plan,
        range,
        &mut stats.summaries_scanned,
        |summary, fully| {
            if !summary.has_source(meta.source.0) {
                return Ok(());
            }
            if fully {
                if let Some(bins) = summary.index_bins(meta.id.0) {
                    for (bin, s) in bins {
                        counts[*bin as usize] += s.count;
                    }
                }
            } else {
                partial_chunks.push(summary.chunk_addr());
            }
            Ok(())
        },
    )?;
    phases.select_nanos += select_timer.elapsed_nanos();
    view.obs.index.summary_probes(stats.summaries_scanned);
    view.obs.index.chunk_hits(partial_chunks.len() as u64);
    let workers = view.workers(opts.parallelism, partial_chunks.len());
    stats.workers_used = stats.workers_used.max(workers as u64);
    if workers > 1 {
        view.obs.query.pool_tasks(partial_chunks.len() as u64);
    }
    let scan_timer = Stopwatch::start();
    let count = |counts: &mut [u64], v: f64| {
        if let Some(bin) = meta.spec.bin_of(v) {
            counts[bin] += 1;
        }
    };
    // One `counts`-shaped vector per chunk, summed in chunk order.
    let per_chunk = for_chunks(view, workers, &partial_chunks, &mut stats, |bufs, addr| {
        let mut chunk_counts = vec![0u64; bin_count];
        let stop = Some(range.end);
        let out = chunk_values(view, meta, addr, range, stop, bufs, |v| {
            count(&mut chunk_counts, v)
        })?;
        Ok((chunk_counts, out))
    })?;
    for chunk_counts in per_chunk {
        for (total, c) in counts.iter_mut().zip(chunk_counts) {
            *total += c;
        }
    }
    phases.chunk_scan_nanos += scan_timer.elapsed_nanos();
    tail_values(view, meta, range, &plan, &mut stats, phases, |v| {
        count(&mut counts, v)
    })?;
    Ok(BinCounts {
        plan,
        counts,
        partial_chunks,
        stats,
    })
}

/// Computes the per-bin record counts for an index over a time range
/// (the CDF of §4.3, exposed for composition — e.g., the distributed
/// coordinator merges per-node bin counts before selecting a global
/// percentile bin).
pub(crate) fn bin_counts(
    view: &QueryView<'_>,
    meta: &IndexMeta,
    range: TimeRange,
    opts: QueryOptions,
    phases: &mut QueryPhases,
) -> Result<(Vec<u64>, QueryStats)> {
    let counted = count_bins(view, meta, range, opts, phases)?;
    Ok((counted.counts, counted.stats))
}

/// Executes an indexed aggregate over `view`.
pub(crate) fn run(
    view: &QueryView<'_>,
    meta: &IndexMeta,
    range: TimeRange,
    method: Aggregate,
    opts: QueryOptions,
    phases: &mut QueryPhases,
) -> Result<AggregateResult> {
    match method {
        Aggregate::Percentile(p) => {
            if !(0.0..=100.0).contains(&p) {
                return Err(LoomError::InvalidQuery(format!(
                    "percentile {p} outside [0, 100]"
                )));
            }
            percentile(view, meta, range, p, opts, phases)
        }
        _ => distributive(view, meta, range, method, opts, phases),
    }
}

/// Accumulator for distributive aggregates.
#[derive(Debug, Default, Clone, Copy)]
struct Acc {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Acc {
    fn new() -> Self {
        Acc {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn fold_bin(&mut self, s: &BinStats) {
        self.count += s.count;
        self.sum += s.sum;
        self.min = self.min.min(s.min);
        self.max = self.max.max(s.max);
    }

    /// Folds another accumulator in (per-chunk partials merged in chunk
    /// order so float association is the same on every pool size).
    fn merge(&mut self, o: &Acc) {
        self.count += o.count;
        self.sum += o.sum;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }

    fn finish(&self, method: Aggregate) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(match method {
            Aggregate::Count => self.count as f64,
            Aggregate::Sum => self.sum,
            Aggregate::Min => self.min,
            Aggregate::Max => self.max,
            Aggregate::Mean => self.sum / self.count as f64,
            Aggregate::Percentile(_) => unreachable!("handled separately"),
        })
    }
}

fn distributive(
    view: &QueryView<'_>,
    meta: &IndexMeta,
    range: TimeRange,
    method: Aggregate,
    opts: QueryOptions,
    phases: &mut QueryPhases,
) -> Result<AggregateResult> {
    let mut stats = QueryStats {
        workers_used: 1,
        ..QueryStats::default()
    };
    let plan_timer = Stopwatch::start();
    let plan = planner::plan(view, range)?;
    phases.plan_nanos += plan_timer.elapsed_nanos();
    let mut acc = Acc::new();
    let mut partial_chunks: Vec<u64> = Vec::new();

    let select_timer = Stopwatch::start();
    planner::for_each_relevant_summary(
        view,
        &plan,
        range,
        &mut stats.summaries_scanned,
        |summary, fully| {
            if !summary.has_source(meta.source.0) {
                return Ok(());
            }
            if fully {
                if let Some(bins) = summary.index_bins(meta.id.0) {
                    for (_, s) in bins {
                        acc.fold_bin(s);
                    }
                }
            } else {
                partial_chunks.push(summary.chunk_addr());
            }
            Ok(())
        },
    )?;

    phases.select_nanos += select_timer.elapsed_nanos();
    view.obs.index.summary_probes(stats.summaries_scanned);
    view.obs.index.chunk_hits(partial_chunks.len() as u64);

    // Exact aggregation for chunks only partially inside the time range:
    // one partial accumulator per chunk, merged in chunk order, so float
    // association is the same for every pool size.
    let workers = view.workers(opts.parallelism, partial_chunks.len());
    stats.workers_used = stats.workers_used.max(workers as u64);
    if workers > 1 {
        view.obs.query.pool_tasks(partial_chunks.len() as u64);
    }
    let scan_timer = Stopwatch::start();
    let per_chunk = for_chunks(view, workers, &partial_chunks, &mut stats, |bufs, addr| {
        let mut chunk_acc = Acc::new();
        let stop = Some(range.end);
        let out = chunk_values(view, meta, addr, range, stop, bufs, |v| {
            chunk_acc.observe(v)
        })?;
        Ok((chunk_acc, out))
    })?;
    for chunk_acc in &per_chunk {
        acc.merge(chunk_acc);
    }
    phases.chunk_scan_nanos += scan_timer.elapsed_nanos();
    let mut region_acc = Acc::new();
    tail_values(view, meta, range, &plan, &mut stats, phases, |v| {
        region_acc.observe(v)
    })?;
    acc.merge(&region_acc);

    Ok(AggregateResult {
        value: acc.finish(method),
        count: acc.count,
        stats,
    })
}

fn percentile(
    view: &QueryView<'_>,
    meta: &IndexMeta,
    range: TimeRange,
    p: f64,
    opts: QueryOptions,
    phases: &mut QueryPhases,
) -> Result<AggregateResult> {
    // Phase A: per-bin counts across the range (bins as a CDF).
    let BinCounts {
        plan,
        counts,
        partial_chunks,
        mut stats,
    } = count_bins(view, meta, range, opts, phases)?;
    let bin_count = counts.len();

    let total: u64 = counts.iter().sum();
    if total == 0 {
        return Ok(AggregateResult {
            value: None,
            count: 0,
            stats,
        });
    }

    // Nearest-rank percentile: the r-th smallest value, 1-based.
    let rank = ((p / 100.0 * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    let mut target_bin = bin_count - 1;
    for (bin, c) in counts.iter().enumerate() {
        if cumulative + c >= rank {
            target_bin = bin;
            break;
        }
        cumulative += c;
    }
    let rank_in_bin = rank - cumulative; // 1-based within the target bin

    // Phase B: collect only the target bin's values and select the rank.
    // Memory is bounded by the number of values in one bin within the
    // range — small for tail percentiles by construction.
    //
    // Revisit summaries: scan only the fully-covered chunks that have
    // values in the target bin, plus the partial chunks (already filtered
    // by time above, re-filtered exactly here).
    let mut revisited = 0u64;
    let mut phase_b_chunks: Vec<u64> = Vec::new();
    let select_b_timer = Stopwatch::start();
    planner::for_each_relevant_summary(view, &plan, range, &mut revisited, |summary, fully| {
        if !fully {
            return Ok(()); // appended below, in partial-chunk order
        }
        if let Some(bins) = summary.index_bins(meta.id.0) {
            if bins
                .iter()
                .any(|(bin, s)| *bin == target_bin as u32 && s.count > 0)
            {
                phase_b_chunks.push(summary.chunk_addr());
            }
        }
        Ok(())
    })?;
    phase_b_chunks.extend_from_slice(&partial_chunks);
    stats.summaries_scanned += revisited;
    phases.select_nanos += select_b_timer.elapsed_nanos();
    view.obs.index.summary_probes(revisited);
    view.obs.index.chunk_hits(phase_b_chunks.len() as u64);

    let workers = view.workers(opts.parallelism, phase_b_chunks.len());
    stats.workers_used = stats.workers_used.max(workers as u64);
    if workers > 1 {
        view.obs.query.pool_tasks(phase_b_chunks.len() as u64);
    }
    let scan_b_timer = Stopwatch::start();
    let in_target = |v: f64| meta.spec.bin_of(v) == Some(target_bin);
    // No early stop: a fully-covered chunk has nothing past the range,
    // and reading the partial ones to the end keeps `records_scanned`
    // what the equivalence suites pin.
    let per_chunk = for_chunks(view, workers, &phase_b_chunks, &mut stats, |bufs, addr| {
        let mut in_bin: Vec<f64> = Vec::new();
        let out = chunk_values(view, meta, addr, range, None, bufs, |v| {
            if in_target(v) {
                in_bin.push(v);
            }
        })?;
        Ok((in_bin, out))
    })?;
    let mut values: Vec<f64> = per_chunk.into_iter().flatten().collect();
    phases.chunk_scan_nanos += scan_b_timer.elapsed_nanos();
    tail_values(view, meta, range, &plan, &mut stats, phases, |v| {
        if in_target(v) {
            values.push(v);
        }
    })?;

    if values.len() < rank_in_bin as usize {
        return Err(LoomError::Corrupt(format!(
            "percentile phase B found {} values in bin {target_bin}, expected at least {rank_in_bin}",
            values.len()
        )));
    }
    let k = rank_in_bin as usize - 1;
    let (_, v, _) = values.select_nth_unstable_by(k, |a, b| a.total_cmp(b));
    Ok(AggregateResult {
        value: Some(*v),
        count: total,
        stats,
    })
}
