//! The indexed aggregate operator (§4.3), built on one mergeable
//! [`Partial`].
//!
//! A `Partial` holds the count, sum, min and max of an index's binnable
//! values over a time range and, when asked, their per-bin counts (the
//! histogram read as a CDF). Every aggregate folds into one: the summary
//! bins of chunks fully inside the range (`fold_bin`), the exactly
//! decoded values of chunks the range cuts and of the unsummarized tail
//! (`observe`), and the per-chunk partials of the worker pool and the
//! per-node partials of the distributed coordinator (`merge`).
//!
//! * Distributive aggregates (count, sum, min, max, mean) are
//!   [`Partial::finish`] of the range's partial.
//! * Holistic percentiles take two phases. Phase A collects the partial
//!   with bins and [`Partial::target`] locates the bin holding the
//!   requested rank. Phase B collects only that bin's values and selects
//!   the rank within them, so the data set is never materialized or
//!   sorted. A fully covered chunk whose target-bin stats pin its values
//!   exactly (one value, two nonzero values, or `min == max != 0`)
//!   contributes them from its summary; only the other covered chunks
//!   holding the bin, the cut chunks and the tail are decoded.
//!
//! The association of a partial is fixed: summary bins in log order, then
//! one partial per exactly decoded chunk merged in log order, then the
//! tail. Those chunk decodes are independent, so they run on the worker
//! pool when `QueryOptions::parallelism` (or `Config::query_threads`) asks
//! for more than one thread; the pool hands the per-chunk partials back in
//! submission order, so results are bit-for-bit identical for every pool
//! size.
//!
//! The coordinator runs a node's two percentile phases as two queries
//! ([`partial`], then [`values_in_bin`]), so each node captures two
//! views and walks its summaries twice. Under live ingest, phase B can
//! therefore see records phase A did not count. A local percentile runs
//! both phases on one view and one summary walk.

use super::columnar::{self, ScanBuffers};
use super::executor;
use super::planner::{self, SummaryPlan};
use super::view::{QueryView, RegionScan};
use super::{Aggregate, AggregateResult, IndexMeta, QueryOptions, TimeRange};
use crate::error::{LoomError, Result};
use crate::histogram::HistogramSpec;
use crate::obs::{QueryPhases, Stopwatch};
use crate::stats::QueryStats;
use crate::summary::BinStats;

/// The mergeable statistics of one index over one time range.
#[derive(Debug)]
pub(crate) struct Partial {
    /// Binnable values folded in.
    pub(crate) count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Values per histogram bin; empty unless made with bins.
    pub(crate) bins: Vec<u64>,
}

impl Partial {
    /// An empty partial; `with_bins` also counts values per bin of `spec`.
    pub(crate) fn new(spec: &HistogramSpec, with_bins: bool) -> Self {
        Partial {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            bins: if with_bins {
                vec![0; spec.bin_count()]
            } else {
                Vec::new()
            },
        }
    }

    /// Folds one exactly decoded value. A value `spec` cannot bin (NaN)
    /// counts nowhere, just as a chunk summary drops it at seal, so no
    /// answer depends on whether its chunk is sealed yet.
    pub(crate) fn observe(&mut self, spec: &HistogramSpec, v: f64) {
        if self.bins.is_empty() {
            // `bin_of` is `None` exactly for NaN: skip the bin search.
            if v.is_nan() {
                return;
            }
        } else {
            let Some(bin) = spec.bin_of(v) else {
                return;
            };
            self.bins[bin] += 1;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds bin `bin` of a summary whose chunk lies fully in the range.
    pub(crate) fn fold_bin(&mut self, bin: u32, s: &BinStats) {
        if let Some(c) = self.bins.get_mut(bin as usize) {
            *c += s.count;
        }
        self.count += s.count;
        self.sum += s.sum;
        self.min = self.min.min(s.min);
        self.max = self.max.max(s.max);
    }

    /// Folds in the partial of the next stretch of the log. Associative;
    /// callers merge in log order, so sums associate the same way for
    /// every pool size.
    pub(crate) fn merge(&mut self, other: &Partial) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (c, o) in self.bins.iter_mut().zip(&other.bins) {
            *c += o;
        }
    }

    /// The distributive aggregate `method`; `None` over no values.
    pub(crate) fn finish(&self, method: Aggregate) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(match method {
            Aggregate::Count => self.count as f64,
            Aggregate::Sum => self.sum,
            Aggregate::Min => self.min,
            Aggregate::Max => self.max,
            Aggregate::Mean => self.sum / self.count as f64,
            Aggregate::Percentile(_) => unreachable!("percentiles select from values_in_bin"),
        })
    }

    /// Percentile phase A on a partial with bins: the bin holding the
    /// nearest-rank `p`-th percentile and the value's 1-based rank inside
    /// it, or `None` over no values.
    pub(crate) fn target(&self, p: f64) -> Result<Option<(usize, u64)>> {
        if !(0.0..=100.0).contains(&p) {
            return Err(LoomError::InvalidQuery(format!(
                "percentile {p} outside [0, 100]"
            )));
        }
        if self.count == 0 {
            return Ok(None);
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut below = 0u64;
        for (bin, &c) in self.bins.iter().enumerate() {
            if below + c >= rank {
                return Ok(Some((bin, rank - below)));
            }
            below += c;
        }
        Err(LoomError::Internal(format!(
            "a partial of {} values has {below} in its bins",
            self.count
        )))
    }
}

/// Percentile phase B's last step: the `rank`-th smallest (1-based) of
/// the values of `bin`.
pub(crate) fn select_rank(mut values: Vec<f64>, bin: usize, rank: u64) -> Result<f64> {
    if values.len() < rank as usize {
        return Err(LoomError::Corrupt(format!(
            "percentile phase B found {} values in bin {bin}, needed {rank}",
            values.len()
        )));
    }
    let (_, v, _) = values.select_nth_unstable_by(rank as usize - 1, f64::total_cmp);
    Ok(*v)
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
    let mut pass = Pass::plan(view, meta, range, opts, phases)?;
    let percentile = matches!(method, Aggregate::Percentile(_));
    let (partial, walk) = pass.collect(percentile, percentile)?;
    let value = match method {
        Aggregate::Percentile(p) => match partial.target(p)? {
            Some((bin, rank)) => Some(select_rank(pass.values_in_bin(&walk, bin)?, bin, rank)?),
            None => None,
        },
        _ => partial.finish(method),
    };
    Ok(AggregateResult {
        value,
        count: partial.count,
        stats: pass.stats,
    })
}

/// A node's distributive aggregate or percentile phase A: the partial of
/// `range`, with per-bin counts when `with_bins`.
pub(crate) fn partial(
    view: &QueryView<'_>,
    meta: &IndexMeta,
    range: TimeRange,
    with_bins: bool,
    opts: QueryOptions,
    phases: &mut QueryPhases,
) -> Result<(Partial, QueryStats)> {
    let mut pass = Pass::plan(view, meta, range, opts, phases)?;
    let (partial, _) = pass.collect(with_bins, false)?;
    Ok((partial, pass.stats))
}

/// A node's percentile phase B: the values of `bin` in `range`, reported
/// as the query's matched records.
pub(crate) fn values_in_bin(
    view: &QueryView<'_>,
    meta: &IndexMeta,
    range: TimeRange,
    bin: usize,
    opts: QueryOptions,
    phases: &mut QueryPhases,
) -> Result<(Vec<f64>, QueryStats)> {
    let mut pass = Pass::plan(view, meta, range, opts, phases)?;
    let walk = pass.walk(None, true)?;
    let values = pass.values_in_bin(&walk, bin)?;
    pass.stats.records_matched = values.len() as u64;
    Ok((values, pass.stats))
}

/// Appends the values of a bin whose `stats` pin them exactly and
/// returns whether it did; otherwise only a decode can tell them.
///
/// `BinStats::of` stores a single value as is, and `f64::min`/`max` return
/// one of their operands, so one value, two values, and `count` copies of
/// `min == max` are exact, except that a zero extreme may be either
/// `-0.0` or `+0.0` and [`select_rank`] orders by the sign bit. NaN never
/// reaches a bin. `sum` is rounded, so no value is derived from it.
fn push_pinned(values: &mut Vec<f64>, stats: &BinStats) -> bool {
    let (min, max) = (stats.min, stats.max);
    match stats.count {
        1 => values.push(min),
        2 if min != 0.0 && max != 0.0 => values.extend([min, max]),
        n if min == max && min != 0.0 => values.extend(std::iter::repeat_n(min, n as usize)),
        _ => return false,
    }
    true
}

/// What one walk of the plan's summaries found, in log order. A local
/// percentile's two phases share one.
#[derive(Default)]
struct Walk<'q> {
    /// The fully covered chunks holding the index, with its bins; kept
    /// only for a phase B.
    covered: Vec<(u64, &'q [(u32, BinStats)])>,
    /// The chunks the range cuts.
    cut: Vec<u64>,
}

/// One aggregate's walk over a view: the plan it follows and the
/// statistics and phase timings it accumulates.
struct Pass<'q, 'a> {
    view: &'q QueryView<'a>,
    meta: &'q IndexMeta,
    range: TimeRange,
    opts: QueryOptions,
    plan: SummaryPlan,
    stats: QueryStats,
    phases: &'q mut QueryPhases,
}

impl<'q, 'a> Pass<'q, 'a> {
    fn plan(
        view: &'q QueryView<'a>,
        meta: &'q IndexMeta,
        range: TimeRange,
        opts: QueryOptions,
        phases: &'q mut QueryPhases,
    ) -> Result<Self> {
        let timer = Stopwatch::start();
        let plan = planner::plan(view, range)?;
        phases.plan_nanos += timer.elapsed_nanos();
        Ok(Pass {
            view,
            meta,
            range,
            opts,
            plan,
            stats: QueryStats {
                workers_used: 1,
                ..QueryStats::default()
            },
            phases,
        })
    }

    /// Walks the plan's summaries whose chunks overlap the range and hold
    /// the index's source. Folds the bins of each fully covered chunk into
    /// `total` when given, and keeps them when `keep_covered`.
    fn walk(&mut self, mut total: Option<&mut Partial>, keep_covered: bool) -> Result<Walk<'q>> {
        let timer = Stopwatch::start();
        let (source, index) = (self.meta.source.0, self.meta.id.0);
        let mut walk = Walk::default();
        let mut visited = 0;
        planner::for_each_relevant_summary(
            self.view,
            &self.plan,
            self.range,
            &mut visited,
            |summary, fully| {
                if !summary.has_source(source) {
                    return Ok(());
                }
                if !fully {
                    walk.cut.push(summary.chunk_addr());
                } else if let Some(bins) = summary.index_bins(index) {
                    if let Some(total) = total.as_deref_mut() {
                        for (bin, s) in bins {
                            total.fold_bin(*bin, s);
                        }
                    }
                    if keep_covered {
                        walk.covered.push((summary.chunk_addr(), bins));
                    }
                }
                Ok(())
            },
        )?;
        self.stats.summaries_scanned += visited;
        self.phases.select_nanos += timer.elapsed_nanos();
        self.view.obs.index.summary_probes(visited);
        Ok(walk)
    }

    /// The partial of the whole range: summary bins of the fully covered
    /// chunks, then the chunks the range cuts, then the tail; and the walk
    /// that found them.
    fn collect(&mut self, with_bins: bool, keep_covered: bool) -> Result<(Partial, Walk<'q>)> {
        let spec = &*self.meta.spec;
        let mut total = Partial::new(spec, with_bins);
        let walk = self.walk(Some(&mut total), keep_covered)?;
        let fresh = || Partial::new(spec, with_bins);
        let observe = |p: &mut Partial, v: f64| p.observe(spec, v);
        for chunk in self.for_chunks(&walk.cut, Some(self.range.end), fresh, observe)? {
            total.merge(&chunk);
        }
        total.merge(&self.tail(fresh(), observe)?);
        Ok((total, walk))
    }

    /// Percentile phase B: the values of `bin` in the range. Covered
    /// chunks whose stats pin the bin's values add them from the summary;
    /// the rest of the covered chunks holding the bin, the cut chunks and
    /// the tail are decoded.
    fn values_in_bin(&mut self, walk: &Walk<'_>, bin: usize) -> Result<Vec<f64>> {
        let spec = &*self.meta.spec;
        let mut values = Vec::new();
        let mut chunks = Vec::new();
        for (addr, bins) in &walk.covered {
            let Some((_, s)) = bins.iter().find(|(b, s)| *b as usize == bin && s.count > 0) else {
                continue;
            };
            if !push_pinned(&mut values, s) {
                chunks.push(*addr);
            }
        }
        chunks.extend(&walk.cut);
        let keep = |values: &mut Vec<f64>, v: f64| {
            if spec.bin_of(v) == Some(bin) {
                values.push(v);
            }
        };
        // No early stop: a fully covered chunk has nothing past the range,
        // and reading the cut ones to the end keeps `records_scanned` what
        // the equivalence suites pin.
        let decoded = self.for_chunks(&chunks, None, Vec::new, keep)?;
        values.extend(decoded.into_iter().flatten());
        self.tail(values, keep)
    }

    /// Decodes each of `chunks` and folds its selected values into a
    /// fresh `init()` with `each`, returning one result per chunk in the
    /// order of `chunks` and folding the scan counters into the stats in
    /// that order.
    ///
    /// With one worker the chunks are decoded inline with a single pooled
    /// scratch buffer; otherwise they fan out across the pool. Both paths
    /// run the same per-chunk task and return the same order, so a
    /// caller's merge is independent of the worker count.
    fn for_chunks<T: Send>(
        &mut self,
        chunks: &[u64],
        stop_after: Option<u64>,
        init: impl Fn() -> T + Sync,
        each: impl Fn(&mut T, f64) + Sync,
    ) -> Result<Vec<T>> {
        let (view, meta, range) = (self.view, self.meta, self.range);
        view.obs.index.chunk_hits(chunks.len() as u64);
        let workers = view.workers(self.opts.parallelism, chunks.len());
        self.stats.workers_used = self.stats.workers_used.max(workers as u64);
        let timer = Stopwatch::start();
        let task = |bufs: &mut ScanBuffers, addr: u64| -> Result<(T, RegionScan)> {
            let out = columnar::decode_chunk(view, meta, addr, range, None, stop_after, bufs)?;
            let mut acc = init();
            bufs.cols.selected_values().for_each(|v| each(&mut acc, v));
            Ok((acc, out.scan))
        };
        let outputs = if workers <= 1 {
            let mut bufs = view.bufs.acquire();
            let mut outputs = Vec::with_capacity(chunks.len());
            for &addr in chunks {
                outputs.push(task(&mut bufs, addr)?);
            }
            view.bufs.release(bufs);
            outputs
        } else {
            view.obs.query.pool_tasks(chunks.len() as u64);
            executor::map_chunks(view.bufs, workers, chunks, task)?
        };
        self.phases.chunk_scan_nanos += timer.elapsed_nanos();
        let stats = &mut self.stats;
        Ok(outputs
            .into_iter()
            .map(|(acc, scan)| {
                scan.fold_into(stats);
                acc
            })
            .collect())
    }

    /// Folds the selected values of the unsummarized tail into `acc` with
    /// `each`, when the plan says the tail can hold records in range
    /// (always serial: it is at most one chunk of not-yet-sealed data).
    fn tail<T>(&mut self, mut acc: T, each: impl Fn(&mut T, f64)) -> Result<T> {
        if !self.plan.region_relevant {
            return Ok(acc);
        }
        let timer = Stopwatch::start();
        let from = self.plan.region_start;
        columnar::decode_forward(
            self.view,
            self.meta,
            from,
            self.range,
            None,
            &mut self.stats,
            |bufs, _| bufs.cols.selected_values().for_each(|v| each(&mut acc, v)),
        )?;
        self.phases.tail_scan_nanos += timer.elapsed_nanos();
        Ok(acc)
    }
}
