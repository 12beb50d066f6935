//! Shared query planning: mapping a time range onto chunk summaries and
//! the unsummarized tail region (§4.3).
//!
//! Summaries come from the view's capture of the shard's summary mirror
//! (`chunk_index::SummaryMirror`): decoded once at seal or open, never
//! re-read from the chunk index per query.

use super::view::QueryView;
use super::TimeRange;
use crate::chunk_index::SummaryRef;
use crate::error::{LoomError, Result};
use crate::ts_index::TsIndexView;

/// The chunk-index positions a query must visit.
pub(crate) struct SummaryPlan {
    /// Chunk-index address of the first summary whose chunk may contain
    /// records in the time range, if any.
    pub start: Option<u64>,
    /// Chunk-index address of the last summary this view may use (the one
    /// referenced by the newest captured chunk-seal entry). Summaries past
    /// this address may exist in the view's mirror capture but are
    /// covered by the tail region instead, avoiding double scanning.
    pub stop: Option<u64>,
    /// Record-log address where the unsummarized tail region begins
    /// (chunk-aligned).
    pub region_start: u64,
    /// Whether the tail region can contain records in the time range.
    pub region_relevant: bool,
}

/// Where the chunk of the summary at chunk-index address `addr` ends.
///
/// Retention drops a pruned slice's summaries from the mirror, so a
/// summary the view's timestamp snapshot reaches can be missing when a
/// prune committed between the two captures; the view's cold snapshot,
/// captured later, then marks its slice pruned, and everything up to the
/// slice's last chunk reads as dropped.
fn chunk_end_at(view: &QueryView<'_>, addr: u64) -> Result<u64> {
    match view.summaries.get(addr) {
        Some(s) => Ok(s.chunk_end()),
        None => view
            .cold
            .slice_covering(addr)
            .filter(|slice| slice.pruned)
            .map(|slice| slice.chunk_end_max)
            .ok_or_else(|| {
                LoomError::Corrupt(format!(
                    "chunk-seal entry points at chunk-index address {addr}, which holds no summary"
                ))
            }),
    }
}

/// Builds a [`SummaryPlan`] for `range` using the timestamp index.
pub(crate) fn plan(view: &QueryView<'_>, range: TimeRange) -> Result<SummaryPlan> {
    view.obs.index.ts_seek();
    let tsv = TsIndexView::new(&view.ts);
    let last_seal = tsv.last_seal_at_or_before(u64::MAX)?;
    let (region_start, region_relevant, stop) = match &last_seal {
        // The seal's summary says where its chunk ends; records after
        // that boundary are the tail region. The record that triggered
        // the seal carries the seal's timestamp, so the region is
        // irrelevant when the range ends before it.
        Some(seal) => (
            chunk_end_at(view, seal.target)?,
            range.end >= seal.ts,
            Some(seal.target),
        ),
        None => (0, true, None),
    };
    let start = tsv
        .first_seal_at_or_after(range.start)?
        .map(|seal| seal.target)
        // A seal after the range start may exist only beyond this view's
        // usable summaries; the stop bound below handles that.
        .filter(|start| Some(*start) <= stop);
    Ok(SummaryPlan {
        start,
        stop,
        region_start,
        region_relevant,
    })
}

/// Builds a plan that visits *all* summaries (chunk-index-only ablation:
/// no timestamp index to seek with).
pub(crate) fn plan_full(view: &QueryView<'_>) -> Result<SummaryPlan> {
    // Without the timestamp index we conservatively visit every summary
    // inside the view's chunk-index watermark, starting from the log's
    // first frame (address 0, possibly in a pruned slice); the tail
    // region starts where those summaries end.
    let last = match view.summaries.last_within(view.chunk_limit) {
        Some(s) => Some((s.addr(), s.chunk_end())),
        // Every summary the view holds was pruned: stop inside the last
        // pruned slice, whose skip covers the rest.
        None => view
            .cold
            .slices()
            .iter()
            .rev()
            .find(|s| s.pruned && s.summary_end <= view.chunk_limit)
            .map(|s| (s.summary_start, s.chunk_end_max)),
    };
    Ok(SummaryPlan {
        start: last.map(|_| 0),
        stop: last.map(|(stop, _)| stop),
        region_start: last.map_or(0, |(_, end)| end),
        region_relevant: true,
    })
}

/// Invokes `f(summary, fully_covered_in_time)` for every summary in the
/// plan whose chunk overlaps `range`, counting every summary visited in
/// `summaries_scanned`. The summaries borrow from `view`'s mirror capture,
/// so a caller may keep them past the walk.
pub(crate) fn for_each_relevant_summary<'v, F>(
    view: &'v QueryView<'_>,
    plan: &SummaryPlan,
    range: TimeRange,
    summaries_scanned: &mut u64,
    mut f: F,
) -> Result<()>
where
    F: FnMut(SummaryRef<'v>, bool) -> Result<()>,
{
    let (Some(start), Some(stop)) = (plan.start, plan.stop) else {
        return Ok(());
    };
    let mut pos = start;
    let mut summaries = view.summaries.iter_from(pos);
    loop {
        if pos > stop {
            break;
        }
        if let Some(slice) = view.cold.slice_covering(pos) {
            // The slice super-summary answers for all its chunks at
            // once. Pruned slice: its chunks were dropped by retention
            // (and its summaries from the mirror) — count its summaries
            // as visited and resume past its range, so the
            // distributive-aggregate path never folds bins of dropped
            // chunks. Live cold slice wholly before the range: every
            // per-chunk summary would be skipped individually, so jump
            // straight past it. (Slices *after* the range get no special
            // case: the first summary's own arrival-order break handles
            // them, keeping the visited-summary accounting identical to
            // an unaged engine.)
            if slice.pruned || slice.ts_max < range.start {
                *summaries_scanned += slice.chunks;
                pos = slice.summary_end;
                summaries = view.summaries.iter_from(pos);
                continue;
            }
        }
        let Some(summary) = summaries.next() else {
            break;
        };
        if summary.addr() != pos {
            return Err(LoomError::Corrupt(format!(
                "summary mirror holds no summary at chunk-index address {pos}"
            )));
        }
        pos = summary.end();
        *summaries_scanned += 1;
        if summary.record_count() == 0 {
            continue;
        }
        if summary.chunk_addr() < view.cold.pruned_below() {
            // Belt and braces for prune floors the slice walk above
            // didn't cover (e.g., out-of-order prune commits).
            continue;
        }
        if summary.ts_min() > range.end {
            // Chunks are sealed in arrival order, so later summaries only
            // contain later records.
            break;
        }
        if summary.ts_max() < range.start {
            continue;
        }
        let fully = summary.ts_min() >= range.start && summary.ts_max() <= range.end;
        f(summary, fully)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::config::Config;
    use crate::engine::Loom;
    use crate::extract;
    use crate::histogram::HistogramSpec;

    fn env(name: &str) -> (Loom, crate::engine::LoomWriter, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("loom-planner-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (l, w) = Loom::open_with_clock(Config::small(&dir), Clock::manual(0)).unwrap();
        (l, w, dir)
    }

    #[test]
    fn empty_log_plans_cover_only_the_region() {
        let (l, _w, dir) = env("empty");
        let s = l.define_source("s");
        let view = QueryView::capture(l.shard(s.0), s).unwrap();
        let plan = plan(&view, TimeRange::new(0, u64::MAX)).unwrap();
        assert_eq!(plan.start, None);
        assert_eq!(plan.stop, None);
        assert_eq!(plan.region_start, 0);
        assert!(plan.region_relevant);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn historical_ranges_skip_the_tail_region() {
        let (l, mut w, dir) = env("historical");
        let s = l.define_source("s");
        l.define_index(
            s,
            extract::u64_le_at(0),
            HistogramSpec::uniform(0.0, 100.0, 4).unwrap(),
        )
        .unwrap();
        // Fill several chunks, note the midpoint time, fill more.
        for i in 0..2_000u64 {
            l.clock().advance(10);
            w.push(s, &(i % 100).to_le_bytes()).unwrap();
        }
        let mid = l.now();
        for i in 0..2_000u64 {
            l.clock().advance(10);
            w.push(s, &(i % 100).to_le_bytes()).unwrap();
        }
        let view = QueryView::capture(l.shard(s.0), s).unwrap();
        // A range that ends before the last seal: the region is irrelevant.
        let plan_hist = plan(&view, TimeRange::new(0, mid / 2)).unwrap();
        assert!(
            !plan_hist.region_relevant,
            "historical query must skip the tail"
        );
        assert!(plan_hist.start.is_some());
        // A range extending to now: the region matters.
        let plan_now = plan(&view, TimeRange::new(mid, l.now())).unwrap();
        assert!(plan_now.region_relevant);
        // Region start is chunk-aligned and before the watermark.
        assert_eq!(plan_now.region_start % view.chunk_size, 0);
        assert!(plan_now.region_start <= view.rec.watermark());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_full_visits_every_summary() {
        let (l, mut w, dir) = env("full");
        let s = l.define_source("s");
        l.define_index(
            s,
            extract::u64_le_at(0),
            HistogramSpec::uniform(0.0, 100.0, 4).unwrap(),
        )
        .unwrap();
        for i in 0..3_000u64 {
            l.clock().advance(5);
            w.push(s, &(i % 100).to_le_bytes()).unwrap();
        }
        w.seal_active_chunk().unwrap();
        let sealed = l.ingest_stats().chunks_sealed();
        let view = QueryView::capture(l.shard(s.0), s).unwrap();
        let plan = plan_full(&view).unwrap();
        let mut seen = 0u64;
        for_each_relevant_summary(
            &view,
            &plan,
            TimeRange::new(0, u64::MAX),
            &mut seen,
            |_s, _fully| Ok(()),
        )
        .unwrap();
        assert_eq!(seen, sealed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_iteration_stops_after_the_range() {
        let (l, mut w, dir) = env("stop");
        let s = l.define_source("s");
        for i in 0..4_000u64 {
            l.clock().advance(10);
            w.push(s, &i.to_le_bytes()).unwrap();
        }
        w.seal_active_chunk().unwrap();
        let view = QueryView::capture(l.shard(s.0), s).unwrap();
        let p = plan(&view, TimeRange::new(0, l.now() / 10)).unwrap();
        let mut scanned = 0u64;
        let mut max_ts_seen = 0u64;
        for_each_relevant_summary(
            &view,
            &p,
            TimeRange::new(0, l.now() / 10),
            &mut scanned,
            |summary, _| {
                max_ts_seen = max_ts_seen.max(summary.ts_min());
                Ok(())
            },
        )
        .unwrap();
        let total = l.ingest_stats().chunks_sealed();
        assert!(
            scanned < total,
            "iteration should stop early ({scanned} of {total})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
