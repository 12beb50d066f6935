//! Source and index registry (schema operators of Figure 9).
//!
//! The registry is *not* on the ingest hot path: the writer keeps a
//! private cache of source/index definitions and refreshes it only when
//! the registry's version counter changes (schema changes are rare).

use crate::sync::atomic::{AtomicU64, Ordering};
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{LoomError, Result};
use crate::extract::ExtractorDesc;
use crate::histogram::HistogramSpec;
use crate::record::NIL_ADDR;

/// Identifier of a telemetry source.
///
/// Source IDs start at 1; 0 and `u32::MAX` are reserved by the record-log
/// format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub u32);

/// Identifier of an index over a source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub u32);

/// A user-defined function extracting the indexed value from a record
/// payload (§5.1). Returning `None` leaves the record unindexed.
pub type ValueFn = Arc<dyn Fn(&[u8]) -> Option<f64> + Send + Sync>;

/// Per-source state shared between the writer and queries.
///
/// The writer publishes the address of the source's most recent record
/// *after* publishing the record-log watermark, so a reader that
/// acquire-loads `last_record` and then snapshots the record log is
/// guaranteed the record is inside its snapshot.
#[derive(Debug)]
pub struct SourceShared {
    /// Address of the most recent published record, or `NIL_ADDR`.
    pub last_record: AtomicU64,
    /// Number of published records.
    pub records: AtomicU64,
}

impl Default for SourceShared {
    fn default() -> Self {
        SourceShared {
            last_record: AtomicU64::new(NIL_ADDR),
            records: AtomicU64::new(0),
        }
    }
}

/// Registry entry for a source.
#[derive(Clone)]
pub struct SourceEntry {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Closed sources reject new records but remain queryable.
    pub closed: bool,
    /// State shared with the writer and queries.
    pub shared: Arc<SourceShared>,
}

/// Registry entry for an index.
#[derive(Clone)]
pub struct IndexEntry {
    /// The source this index covers.
    pub source: SourceId,
    /// Value extractor applied to each record payload.
    pub extractor: ValueFn,
    /// Histogram bin specification, `Arc`-shared so per-query metadata
    /// capture clones a pointer instead of the bin-boundary vector.
    pub spec: Arc<HistogramSpec>,
    /// Closed indexes stop being maintained for new chunks.
    pub closed: bool,
    /// Declarative description of the extractor, if the index was defined
    /// through one. Indexes with a descriptor survive a reopen intact;
    /// closure-defined indexes are restored closed, with
    /// `extractor_lost` set.
    pub desc: Option<ExtractorDesc>,
    /// The index was defined through a closure and restored by a reopen:
    /// `extractor` is a stub, so queries on the index are refused
    /// ([`LoomError::ExtractorLost`]) rather than answered without the
    /// exact re-filter.
    pub extractor_lost: bool,
}

/// The mutable registry of sources and indexes.
#[derive(Default)]
pub struct Registry {
    sources: HashMap<u32, SourceEntry>,
    indexes: HashMap<u32, IndexEntry>,
    next_source: u32,
    next_index: u32,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry {
            sources: HashMap::new(),
            indexes: HashMap::new(),
            next_source: 1, // 0 is the end-of-chunk marker
            next_index: 1,
        }
    }

    /// Registers a new source and returns its ID.
    pub fn define_source(&mut self, name: &str) -> SourceId {
        let id = self.next_source;
        self.next_source += 1;
        self.sources.insert(
            id,
            SourceEntry {
                name: name.to_string(),
                closed: false,
                shared: Arc::new(SourceShared::default()),
            },
        );
        SourceId(id)
    }

    /// Marks a source closed; its data remains queryable.
    pub fn close_source(&mut self, id: SourceId) -> Result<()> {
        let entry = self
            .sources
            .get_mut(&id.0)
            .ok_or(LoomError::UnknownSource(id.0))?;
        entry.closed = true;
        // Close the source's indexes too: no new data will arrive.
        for idx in self.indexes.values_mut() {
            if idx.source == id {
                idx.closed = true;
            }
        }
        Ok(())
    }

    /// Registers a new index over `source` and returns its ID.
    pub fn define_index(
        &mut self,
        source: SourceId,
        extractor: ValueFn,
        spec: HistogramSpec,
    ) -> Result<IndexId> {
        self.define_index_full(source, extractor, None, spec)
    }

    /// [`Registry::define_index`] with an optional persistable descriptor
    /// of the extractor.
    pub fn define_index_full(
        &mut self,
        source: SourceId,
        extractor: ValueFn,
        desc: Option<ExtractorDesc>,
        spec: HistogramSpec,
    ) -> Result<IndexId> {
        let entry = self
            .sources
            .get(&source.0)
            .ok_or(LoomError::UnknownSource(source.0))?;
        if entry.closed {
            return Err(LoomError::SourceClosed(source.0));
        }
        let id = self.next_index;
        self.next_index += 1;
        self.indexes.insert(
            id,
            IndexEntry {
                source,
                extractor,
                spec: Arc::new(spec),
                closed: false,
                desc,
                extractor_lost: false,
            },
        );
        Ok(IndexId(id))
    }

    /// Marks an index closed; it stops being maintained for new chunks but
    /// existing chunk summaries keep serving queries (§5.3).
    pub fn close_index(&mut self, id: IndexId) -> Result<()> {
        let entry = self
            .indexes
            .get_mut(&id.0)
            .ok_or(LoomError::UnknownIndex(id.0))?;
        entry.closed = true;
        Ok(())
    }

    /// Looks up a source.
    pub fn source(&self, id: SourceId) -> Result<&SourceEntry> {
        self.sources
            .get(&id.0)
            .ok_or(LoomError::UnknownSource(id.0))
    }

    /// Looks up an index.
    pub fn index(&self, id: IndexId) -> Result<&IndexEntry> {
        self.indexes.get(&id.0).ok_or(LoomError::UnknownIndex(id.0))
    }

    /// Iterates over all sources.
    pub fn sources(&self) -> impl Iterator<Item = (SourceId, &SourceEntry)> {
        self.sources.iter().map(|(id, e)| (SourceId(*id), e))
    }

    /// Iterates over all indexes.
    pub fn indexes(&self) -> impl Iterator<Item = (IndexId, &IndexEntry)> {
        self.indexes.iter().map(|(id, e)| (IndexId(*id), e))
    }

    /// Re-inserts a source with its original ID during recovery.
    ///
    /// IDs come from the manifest, so collisions indicate a corrupt
    /// manifest rather than a programming error.
    pub fn restore_source(&mut self, id: u32, name: &str, closed: bool) -> Result<()> {
        if id == 0 || id == u32::MAX || self.sources.contains_key(&id) {
            return Err(LoomError::Corrupt(format!(
                "manifest restored invalid or duplicate source id {id}"
            )));
        }
        self.sources.insert(
            id,
            SourceEntry {
                name: name.to_string(),
                closed,
                shared: Arc::new(SourceShared::default()),
            },
        );
        self.next_source = self.next_source.max(id + 1);
        Ok(())
    }

    /// Re-inserts an index with its original ID during recovery.
    ///
    /// Indexes without a descriptor cannot rebuild their extractor closure
    /// and are restored closed and marked `extractor_lost`: new chunks
    /// are not indexed, and queries on the index are refused.
    pub fn restore_index(
        &mut self,
        id: u32,
        source: SourceId,
        desc: Option<ExtractorDesc>,
        spec: HistogramSpec,
        closed: bool,
    ) -> Result<()> {
        if self.indexes.contains_key(&id) {
            return Err(LoomError::Corrupt(format!(
                "manifest restored duplicate index id {id}"
            )));
        }
        if !self.sources.contains_key(&source.0) {
            return Err(LoomError::UnknownSource(source.0));
        }
        let (extractor, closed) = match desc {
            Some(d) => (d.to_fn(), closed),
            // No descriptor: the closure is unrecoverable. The write path
            // never invokes the stub (the index is forced closed) and the
            // query path refuses the index (`extractor_lost`).
            None => (Arc::new(|_: &[u8]| None) as ValueFn, true),
        };
        self.indexes.insert(
            id,
            IndexEntry {
                source,
                extractor,
                spec: Arc::new(spec),
                closed,
                desc,
                extractor_lost: desc.is_none(),
            },
        );
        self.next_index = self.next_index.max(id + 1);
        Ok(())
    }

    /// The open indexes defined over `source`.
    pub fn indexes_of(&self, source: SourceId) -> Vec<(IndexId, IndexEntry)> {
        let mut v: Vec<_> = self
            .indexes
            .iter()
            .filter(|(_, e)| e.source == source && !e.closed)
            .map(|(id, e)| (IndexId(*id), e.clone()))
            .collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }
}

/// A version counter bumped on every schema change, letting the writer
/// refresh its cache with a single relaxed load per push.
#[derive(Debug, Default)]
pub struct RegistryVersion(AtomicU64);

impl RegistryVersion {
    /// Current version.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Bumps the version after a schema change.
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any_extractor() -> ValueFn {
        Arc::new(|_: &[u8]| Some(1.0))
    }

    #[test]
    fn source_ids_start_at_one_and_increment() {
        let mut r = Registry::new();
        assert_eq!(r.define_source("a"), SourceId(1));
        assert_eq!(r.define_source("b"), SourceId(2));
        assert_eq!(r.source(SourceId(1)).unwrap().name, "a");
        assert!(r.source(SourceId(9)).is_err());
    }

    #[test]
    fn close_source_closes_its_indexes() {
        let mut r = Registry::new();
        let s = r.define_source("a");
        let other = r.define_source("b");
        let spec = HistogramSpec::uniform(0.0, 1.0, 2).unwrap();
        let i1 = r.define_index(s, any_extractor(), spec.clone()).unwrap();
        let i2 = r.define_index(other, any_extractor(), spec).unwrap();
        r.close_source(s).unwrap();
        assert!(r.source(s).unwrap().closed);
        assert!(r.index(i1).unwrap().closed);
        assert!(!r.index(i2).unwrap().closed);
    }

    #[test]
    fn define_index_on_closed_source_fails() {
        let mut r = Registry::new();
        let s = r.define_source("a");
        r.close_source(s).unwrap();
        let spec = HistogramSpec::uniform(0.0, 1.0, 2).unwrap();
        assert!(matches!(
            r.define_index(s, any_extractor(), spec),
            Err(LoomError::SourceClosed(_))
        ));
    }

    #[test]
    fn indexes_of_filters_closed_and_sorts() {
        let mut r = Registry::new();
        let s = r.define_source("a");
        let spec = HistogramSpec::uniform(0.0, 1.0, 2).unwrap();
        let i1 = r.define_index(s, any_extractor(), spec.clone()).unwrap();
        let i2 = r.define_index(s, any_extractor(), spec.clone()).unwrap();
        let i3 = r.define_index(s, any_extractor(), spec).unwrap();
        r.close_index(i2).unwrap();
        let ids: Vec<_> = r.indexes_of(s).into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![i1, i3]);
    }

    #[test]
    fn restore_preserves_ids_and_forces_closure_indexes_closed() {
        let mut r = Registry::new();
        r.restore_source(3, "late", false).unwrap();
        r.restore_source(1, "early", true).unwrap();
        let spec = HistogramSpec::uniform(0.0, 1.0, 2).unwrap();
        r.restore_index(
            2,
            SourceId(3),
            Some(ExtractorDesc::U64Le(0)),
            spec.clone(),
            false,
        )
        .unwrap();
        r.restore_index(5, SourceId(3), None, spec, false).unwrap();

        assert_eq!(r.source(SourceId(1)).unwrap().name, "early");
        assert!(r.source(SourceId(1)).unwrap().closed);
        assert!(!r.index(IndexId(2)).unwrap().closed);
        // Closure-defined index (no descriptor) comes back closed, its
        // extractor marked lost.
        assert!(r.index(IndexId(5)).unwrap().closed);
        assert!(r.index(IndexId(5)).unwrap().extractor_lost);
        assert!(!r.index(IndexId(2)).unwrap().extractor_lost);
        // New definitions continue after the highest restored IDs.
        assert_eq!(r.define_source("next"), SourceId(4));
        let spec = HistogramSpec::uniform(0.0, 1.0, 2).unwrap();
        let next_idx = r.define_index(SourceId(4), any_extractor(), spec).unwrap();
        assert_eq!(next_idx, IndexId(6));
        // Duplicate restores are rejected.
        assert!(r.restore_source(1, "dup", false).is_err());
    }

    #[test]
    fn version_bumps() {
        let v = RegistryVersion::default();
        assert_eq!(v.get(), 0);
        v.bump();
        v.bump();
        assert_eq!(v.get(), 2);
    }
}
