//! Distributed aggregation over multiple Loom instances (§8).
//!
//! The paper sketches a coordinator that merges intermediate results each
//! relevant host's Loom computes on-host. This module implements it for
//! in-process instances (a networked deployment would wrap it in RPC);
//! the intermediate is the partial one engine folds its chunks into:
//!
//! * **Distributive aggregates** (count/sum/min/max/mean): one partial
//!   per node → merge → finish.
//! * **Holistic percentiles** (distributed bins-as-CDF): one partial with
//!   bins per node → merge → locate the global target bin → fetch only
//!   that bin's values from each node → select the rank among them.
//!
//! All nodes must share the queried index's histogram specification
//! (validated). A percentile's two phases are two queries, so two captures,
//! per node: under live ingest, phase B can see records A did not count.

use crate::engine::Loom;
use crate::error::{LoomError, Result};
use crate::histogram::HistogramSpec;
use crate::query::{select_rank, Aggregate, Partial, Query, TimeRange};
use crate::registry::{IndexId, SourceId};
use crate::stats::QueryStats;

/// One participating Loom instance and the (source, index) to query.
pub struct Node {
    /// Node label (diagnostics).
    pub name: String,
    /// The node's Loom handle.
    pub loom: Loom,
    /// Source on that node.
    pub source: SourceId,
    /// Index on that node (must share the histogram spec).
    pub index: IndexId,
}

impl Node {
    fn query(&self, range: TimeRange) -> Query<'_> {
        self.loom.query(self.source).index(self.index).range(range)
    }
}

/// Result of a distributed aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedResult {
    /// The merged aggregate value, `None` if no node had data.
    pub value: Option<f64>,
    /// Total contributing values across nodes.
    pub count: u64,
    /// Merged execution statistics across nodes.
    pub stats: QueryStats,
}

/// A coordinator over a set of Loom nodes.
pub struct Coordinator {
    nodes: Vec<Node>,
    spec: HistogramSpec,
}

impl Coordinator {
    /// Creates a coordinator, validating that every node's index uses
    /// the same histogram specification.
    pub fn new(nodes: Vec<Node>) -> Result<Coordinator> {
        let Some(first) = nodes.first() else {
            return Err(LoomError::InvalidQuery("coordinator needs nodes".into()));
        };
        let spec = first.loom.index_spec(first.source, first.index)?;
        for node in &nodes[1..] {
            if node.loom.index_spec(node.source, node.index)? != spec {
                return Err(LoomError::InvalidQuery(format!(
                    "node {} uses a different histogram specification",
                    node.name
                )));
            }
        }
        Ok(Coordinator { nodes, spec })
    }

    /// Number of participating nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Runs a distributed aggregate over `range` on every node.
    pub fn aggregate(&self, range: TimeRange, method: Aggregate) -> Result<DistributedResult> {
        let with_bins = matches!(method, Aggregate::Percentile(_));
        let mut stats = QueryStats::default();
        let mut total = Partial::new(&self.spec, with_bins);
        for node in &self.nodes {
            let (partial, node_stats) = node.query(range).partial(with_bins)?;
            stats.merge(&node_stats);
            total.merge(&partial);
        }
        let value = match method {
            Aggregate::Percentile(p) => match total.target(p)? {
                None => None,
                // Phase B: only the target bin's values leave the nodes.
                Some((bin, rank)) => {
                    let mut values = Vec::new();
                    for node in &self.nodes {
                        let (in_bin, node_stats) = node.query(range).values_in_bin(bin)?;
                        stats.merge(&node_stats);
                        values.extend(in_bin);
                    }
                    Some(select_rank(values, bin, rank)?)
                }
            },
            _ => total.finish(method),
        };
        Ok(DistributedResult {
            value,
            count: total.count,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::config::Config;
    use crate::extract;

    fn spec() -> HistogramSpec {
        HistogramSpec::uniform(0.0, 100_000.0, 20).expect("valid")
    }

    fn node(name: &str, values: &[f64]) -> (Node, crate::engine::LoomWriter, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "loom-coord-{}-{}-{}",
            name,
            std::process::id(),
            values.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (loom, mut writer) =
            Loom::open_with_clock(Config::small(&dir), Clock::manual(0)).unwrap();
        let source = loom.define_source("s");
        let index = loom
            .define_index(source, extract::f64_le_at(0), spec())
            .unwrap();
        for v in values {
            loom.clock().advance(10);
            writer.push(source, &v.to_le_bytes()).unwrap();
        }
        (
            Node {
                name: name.into(),
                loom,
                source,
                index,
            },
            writer,
            dir,
        )
    }

    /// The node's own answer, through the public builder.
    fn local(node: &Node, range: TimeRange, method: Aggregate) -> crate::query::AggregateResult {
        let q = node.loom.query(node.source).index(node.index).range(range);
        q.aggregate(method).unwrap()
    }

    fn spread(n: u64, step: u64) -> Vec<f64> {
        (0..n).map(|i| ((i * step) % 90_000) as f64).collect()
    }

    #[test]
    fn distributed_aggregates_match_global_reference() {
        let a_values = spread(500, 131);
        let b_values = spread(700, 733);
        let c_values: Vec<f64> = (0..50).map(|i| (90_000 + i) as f64).collect();
        let (a, _wa, da) = node("a", &a_values);
        let (b, _wb, db) = node("b", &b_values);
        let (c, _wc, dc) = node("c", &c_values);
        let coord = Coordinator::new(vec![a, b, c]).unwrap();
        assert_eq!(coord.node_count(), 3);

        let mut all: Vec<f64> = a_values
            .iter()
            .chain(&b_values)
            .chain(&c_values)
            .copied()
            .collect();
        let range = TimeRange::new(0, u64::MAX);

        let count = coord.aggregate(range, Aggregate::Count).unwrap();
        assert_eq!(count.value, Some(all.len() as f64));
        let max = coord.aggregate(range, Aggregate::Max).unwrap();
        assert_eq!(max.value, all.iter().copied().reduce(f64::max));
        let mean = coord.aggregate(range, Aggregate::Mean).unwrap();
        let expected_mean = all.iter().sum::<f64>() / all.len() as f64;
        assert!((mean.value.unwrap() - expected_mean).abs() < 1e-9);

        // Distributed percentile equals the global nearest-rank value.
        all.sort_by(f64::total_cmp);
        for p in [50.0, 95.0, 99.9] {
            let r = coord.aggregate(range, Aggregate::Percentile(p)).unwrap();
            let rank = ((p / 100.0 * all.len() as f64).ceil() as usize).clamp(1, all.len());
            assert_eq!(r.value, Some(all[rank - 1]), "p{p}");
        }

        for d in [da, db, dc] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn distributed_percentile_fetches_stored_infinities() {
        // +inf lands in the last (open-ended) bin; phase B must fetch it.
        let (a, _wa, da) = node("inf-a", &[1.0, 2.0, f64::INFINITY]);
        let (b, _wb, db) = node("inf-b", &[3.0, 4.0]);
        let range = TimeRange::new(0, u64::MAX);
        let p100 = Aggregate::Percentile(100.0);
        assert_eq!(local(&a, range, p100).value, Some(f64::INFINITY));
        let coord = Coordinator::new(vec![a, b]).unwrap();
        let r = coord.aggregate(range, p100).unwrap();
        assert_eq!((r.value, r.count), (Some(f64::INFINITY), 5));
        let max = coord.aggregate(range, Aggregate::Max).unwrap();
        assert_eq!(max.value, Some(f64::INFINITY));
        for d in [da, db] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn distributive_stats_are_the_nodes_local_stats() {
        let (a, _wa, da) = node("stats-a", &spread(500, 131));
        let (b, _wb, db) = node("stats-b", &spread(700, 733));
        let (c, _wc, dc) = node("stats-c", &[1.0, 2.0, 3.0]);
        let (d, _wd, dd) = node("stats-d", &[4.0, 5.0]);
        let full = TimeRange::new(0, u64::MAX);
        let cut = TimeRange::new(1_234, 5_678);
        let methods = [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Mean,
        ];
        let tail_only = Coordinator::new(vec![c, d]).unwrap();
        // Five tail records on two nodes: one chunk piece per node.
        let r = tail_only.aggregate(full, Aggregate::Count).unwrap();
        let s = r.stats;
        assert_eq!(
            (s.chunks_scanned, s.records_scanned, s.shards_fanned_out),
            (2, 5, 2)
        );
        let expected = |range| {
            let mut sum = QueryStats::default();
            for n in [&a, &b] {
                sum.merge(&local(n, range, Aggregate::Count).stats);
            }
            sum
        };
        let (full_stats, cut_stats) = (expected(full), expected(cut));
        let coord = Coordinator::new(vec![a, b]).unwrap();
        for (range, expected) in [(full, full_stats), (cut, cut_stats)] {
            for m in methods {
                let r = coord.aggregate(range, m).unwrap();
                assert_eq!(r.stats, expected, "{m:?} over {range:?}");
            }
        }
        for d in [da, db, dc, dd] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn distributed_percentile_fetches_only_the_target_bin() {
        let (a, _wa, da) = node("bin-a", &spread(500, 131));
        let (b, _wb, db) = node("bin-b", &spread(700, 733));
        let range = TimeRange::new(1_234, u64::MAX);
        let mut merged = vec![0u64; spec().bin_count()];
        for n in [&a, &b] {
            let q = n.loom.query(n.source).index(n.index).range(range);
            for (m, c) in merged.iter_mut().zip(q.bin_counts().unwrap().0) {
                *m += c;
            }
        }
        let coord = Coordinator::new(vec![a, b]).unwrap();
        for p in [0.0, 50.0, 99.9, 100.0] {
            let r = coord.aggregate(range, Aggregate::Percentile(p)).unwrap();
            let bin = spec().bin_of(r.value.unwrap()).unwrap();
            assert_eq!(r.stats.records_matched, merged[bin], "p{p}");
        }
        for d in [da, db] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn mismatched_histograms_are_rejected() {
        let (a, _wa, da) = node("ma", &[1.0, 2.0, 3.0]);
        // A node with a different spec.
        let dir = std::env::temp_dir().join(format!("loom-coord-mm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (loom, _w) = Loom::open_with_clock(Config::small(&dir), Clock::manual(0)).unwrap();
        let source = loom.define_source("s");
        let index = loom
            .define_index(
                source,
                extract::u64_le_at(0),
                HistogramSpec::uniform(0.0, 10.0, 2).unwrap(),
            )
            .unwrap();
        let b = Node {
            name: "mb".into(),
            loom,
            source,
            index,
        };
        assert!(Coordinator::new(vec![a, b]).is_err());
        let _ = std::fs::remove_dir_all(&da);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_coordinator_is_rejected() {
        assert!(Coordinator::new(Vec::new()).is_err());
    }

    #[test]
    fn empty_range_returns_none() {
        let (a, _wa, da) = node("empty", &[5.0, 6.0, 7.0]);
        let coord = Coordinator::new(vec![a]).unwrap();
        let r = coord
            .aggregate(TimeRange::new(0, 1), Aggregate::Percentile(99.0))
            .unwrap();
        assert_eq!(r.value, None);
        let _ = std::fs::remove_dir_all(&da);
    }
}
