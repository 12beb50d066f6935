//! The manifest: an append-only journal of schema and lifecycle events.
//!
//! The manifest is a plain file of [framed](crate::durability::format)
//! records. It is the durable home of everything that is *not* telemetry
//! data: source and index definitions (so the registry can be rebuilt on
//! reopen), reopen markers, and the [`CleanShutdown`] record a graceful
//! close writes last.
//!
//! Every append is followed by `fdatasync`, so the manifest is the most
//! strongly durable file in the directory; it is also tiny (schema churn
//! is rare next to telemetry volume). A torn tail — a partially written
//! final frame — is truncated on open; corruption *before* the tail is an
//! error, since schema records cannot be reconstructed from anywhere else.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::Path;

use crate::durability::format::{read_frame, write_frame, LogId, MANIFEST_FILE};
use crate::durability::shutdown::CleanShutdown;
use crate::error::{LoomError, Result};
use crate::extract::{ExtractorDesc, EXTRACTOR_DESC_SIZE};
use crate::histogram::HistogramSpec;
use crate::registry::SourceId;

const TAG_SOURCE_DEF: u8 = 1;
const TAG_SOURCE_CLOSED: u8 = 2;
const TAG_INDEX_DEF: u8 = 3;
const TAG_INDEX_CLOSED: u8 = 4;
const TAG_REOPENED: u8 = 5;
const TAG_CLEAN_SHUTDOWN: u8 = 6;
const TAG_CHUNKS_AGED: u8 = 7;
const TAG_SLICE_PRUNED: u8 = 8;

/// Size of one encoded [`AgedChunk`] entry.
const AGED_CHUNK_SIZE: usize = 8 + 8 + 4 + 4 + 8 + 4 + 8 + 8 + 8;

/// One chunk moved to the cold tier, as journaled in a
/// [`ManifestRecord::ChunksAged`] commit record.
///
/// The manifest entry carries both the *location* of the compressed
/// chunk (segment offset) and the chunk's *summary statistics*
/// (timestamp bounds, record count, summary frame address), so per-slice
/// super-summaries can be rebuilt from the manifest alone on reopen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgedChunk {
    /// Record-log address of the chunk that was aged.
    pub chunk_addr: u64,
    /// Byte offset of the chunk's frame inside its segment file.
    pub offset: u64,
    /// Uncompressed chunk length in bytes.
    pub raw_len: u32,
    /// Compressed frame-body length in bytes.
    pub comp_len: u32,
    /// Address of the chunk's summary frame in the chunk log.
    pub summary_addr: u64,
    /// Total byte length of that summary frame (header included).
    pub summary_len: u32,
    /// Smallest record timestamp in the chunk (0 when empty).
    pub ts_min: u64,
    /// Largest record timestamp in the chunk (0 when empty).
    pub ts_max: u64,
    /// Number of data records in the chunk.
    pub records: u64,
}

impl AgedChunk {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.chunk_addr.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.raw_len.to_le_bytes());
        out.extend_from_slice(&self.comp_len.to_le_bytes());
        out.extend_from_slice(&self.summary_addr.to_le_bytes());
        out.extend_from_slice(&self.summary_len.to_le_bytes());
        out.extend_from_slice(&self.ts_min.to_le_bytes());
        out.extend_from_slice(&self.ts_max.to_le_bytes());
        out.extend_from_slice(&self.records.to_le_bytes());
    }

    fn decode(b: &[u8]) -> Option<AgedChunk> {
        if b.len() < AGED_CHUNK_SIZE {
            return None;
        }
        let u64_at = |off: usize| u64::from_le_bytes(b[off..off + 8].try_into().expect("8"));
        let u32_at = |off: usize| u32::from_le_bytes(b[off..off + 4].try_into().expect("4"));
        Some(AgedChunk {
            chunk_addr: u64_at(0),
            offset: u64_at(8),
            raw_len: u32_at(16),
            comp_len: u32_at(20),
            summary_addr: u64_at(24),
            summary_len: u32_at(32),
            ts_min: u64_at(36),
            ts_max: u64_at(44),
            records: u64_at(52),
        })
    }
}

/// One journal entry in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestRecord {
    /// A source was defined.
    SourceDef {
        /// Registry-assigned source ID.
        id: u32,
        /// Human-readable source name.
        name: String,
    },
    /// A source was closed to further pushes.
    SourceClosed {
        /// The closed source's ID.
        id: u32,
    },
    /// An index was defined.
    IndexDef {
        /// Registry-assigned index ID.
        id: u32,
        /// The indexed source.
        source: SourceId,
        /// Histogram bin boundaries of the index's [`HistogramSpec`].
        bounds: Vec<f64>,
        /// Declarative extractor, if the index was defined through one;
        /// `None` for closure-based indexes, which cannot be rebuilt and
        /// are restored closed and unqueryable.
        desc: Option<ExtractorDesc>,
    },
    /// An index was closed.
    IndexClosed {
        /// The closed index's ID.
        id: u32,
    },
    /// The directory was reopened; invalidates a preceding
    /// [`ManifestRecord::CleanShutdown`] marker.
    Reopened,
    /// Graceful shutdown: the durable tails and writer state.
    CleanShutdown(CleanShutdown),
    /// A batch of sealed chunks moved to the cold tier. This append is
    /// the *commit point* of a compaction round: before it, the chunks
    /// are hot (an orphan segment file is deleted on reopen); after it,
    /// the cold segment owns them.
    ChunksAged {
        /// Time-slice index the chunks belong to.
        slice: u64,
        /// Segment file number within the slice directory.
        segment: u32,
        /// The chunks, in ascending chunk-address order.
        entries: Vec<AgedChunk>,
    },
    /// A whole cold time slice was dropped by retention. Journaled
    /// *before* the slice directory is unlinked, so a crash between the
    /// two leaves a leftover directory that reopen deletes.
    SlicePruned {
        /// The pruned slice index.
        slice: u64,
        /// Record-log address one past the last chunk of the slice;
        /// addresses below this read as punched zeros.
        pruned_below: u64,
    },
}

impl ManifestRecord {
    /// Short variant name, used as the failpoint tag so fault schedules
    /// can target e.g. only the `CleanShutdown` append.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ManifestRecord::SourceDef { .. } => "SourceDef",
            ManifestRecord::SourceClosed { .. } => "SourceClosed",
            ManifestRecord::IndexDef { .. } => "IndexDef",
            ManifestRecord::IndexClosed { .. } => "IndexClosed",
            ManifestRecord::Reopened => "Reopened",
            ManifestRecord::CleanShutdown(_) => "CleanShutdown",
            ManifestRecord::ChunksAged { .. } => "ChunksAged",
            ManifestRecord::SlicePruned { .. } => "SlicePruned",
        }
    }

    /// Serializes the record body (tag byte plus fields) into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ManifestRecord::SourceDef { id, name } => {
                out.push(TAG_SOURCE_DEF);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
            }
            ManifestRecord::SourceClosed { id } => {
                out.push(TAG_SOURCE_CLOSED);
                out.extend_from_slice(&id.to_le_bytes());
            }
            ManifestRecord::IndexDef {
                id,
                source,
                bounds,
                desc,
            } => {
                out.push(TAG_INDEX_DEF);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&source.0.to_le_bytes());
                out.extend_from_slice(&(bounds.len() as u32).to_le_bytes());
                for b in bounds {
                    out.extend_from_slice(&b.to_le_bytes());
                }
                match desc {
                    Some(d) => {
                        out.push(1);
                        d.encode(out);
                    }
                    None => out.push(0),
                }
            }
            ManifestRecord::IndexClosed { id } => {
                out.push(TAG_INDEX_CLOSED);
                out.extend_from_slice(&id.to_le_bytes());
            }
            ManifestRecord::Reopened => out.push(TAG_REOPENED),
            ManifestRecord::CleanShutdown(state) => {
                out.push(TAG_CLEAN_SHUTDOWN);
                state.encode(out);
            }
            ManifestRecord::ChunksAged {
                slice,
                segment,
                entries,
            } => {
                out.push(TAG_CHUNKS_AGED);
                out.extend_from_slice(&slice.to_le_bytes());
                out.extend_from_slice(&segment.to_le_bytes());
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for e in entries {
                    e.encode(out);
                }
            }
            ManifestRecord::SlicePruned {
                slice,
                pruned_below,
            } => {
                out.push(TAG_SLICE_PRUNED);
                out.extend_from_slice(&slice.to_le_bytes());
                out.extend_from_slice(&pruned_below.to_le_bytes());
            }
        }
    }

    /// Deserializes a record from a frame body.
    pub fn decode(body: &[u8]) -> Result<ManifestRecord> {
        let corrupt = |what: &str| LoomError::Corrupt(format!("manifest {what} record truncated"));
        let tag = *body.first().ok_or_else(|| corrupt("empty"))?;
        let rest = &body[1..];
        let u32_at = |b: &[u8], off: usize, what: &str| -> Result<u32> {
            b.get(off..off + 4)
                .map(|s| u32::from_le_bytes(s.try_into().expect("4")))
                .ok_or_else(|| corrupt(what))
        };
        Ok(match tag {
            TAG_SOURCE_DEF => {
                let id = u32_at(rest, 0, "source-def")?;
                let len = u32_at(rest, 4, "source-def")? as usize;
                let bytes = rest.get(8..8 + len).ok_or_else(|| corrupt("source-def"))?;
                let name = std::str::from_utf8(bytes)
                    .map_err(|_| LoomError::Corrupt("manifest source name is not UTF-8".into()))?
                    .to_string();
                ManifestRecord::SourceDef { id, name }
            }
            TAG_SOURCE_CLOSED => ManifestRecord::SourceClosed {
                id: u32_at(rest, 0, "source-closed")?,
            },
            TAG_INDEX_DEF => {
                let id = u32_at(rest, 0, "index-def")?;
                let source = SourceId(u32_at(rest, 4, "index-def")?);
                let n = u32_at(rest, 8, "index-def")? as usize;
                let mut bounds = Vec::with_capacity(n);
                for i in 0..n {
                    let off = 12 + i * 8;
                    let bytes = rest.get(off..off + 8).ok_or_else(|| corrupt("index-def"))?;
                    bounds.push(f64::from_le_bytes(bytes.try_into().expect("8")));
                }
                let flag_off = 12 + n * 8;
                let flag = *rest.get(flag_off).ok_or_else(|| corrupt("index-def"))?;
                let desc = match flag {
                    0 => None,
                    1 => {
                        let bytes = rest
                            .get(flag_off + 1..flag_off + 1 + EXTRACTOR_DESC_SIZE)
                            .ok_or_else(|| corrupt("index-def"))?;
                        Some(ExtractorDesc::decode(bytes)?)
                    }
                    f => {
                        return Err(LoomError::Corrupt(format!(
                            "manifest index-def has bad extractor flag {f}"
                        )))
                    }
                };
                ManifestRecord::IndexDef {
                    id,
                    source,
                    bounds,
                    desc,
                }
            }
            TAG_INDEX_CLOSED => ManifestRecord::IndexClosed {
                id: u32_at(rest, 0, "index-closed")?,
            },
            TAG_REOPENED => ManifestRecord::Reopened,
            TAG_CLEAN_SHUTDOWN => {
                let (state, _) = CleanShutdown::decode(rest)?;
                ManifestRecord::CleanShutdown(state)
            }
            TAG_CHUNKS_AGED => {
                let u64_at = |off: usize, what: &str| -> Result<u64> {
                    rest.get(off..off + 8)
                        .map(|s| u64::from_le_bytes(s.try_into().expect("8")))
                        .ok_or_else(|| corrupt(what))
                };
                let slice = u64_at(0, "chunks-aged")?;
                let segment = u32_at(rest, 8, "chunks-aged")?;
                let n = u32_at(rest, 12, "chunks-aged")? as usize;
                let mut entries = Vec::with_capacity(n);
                for i in 0..n {
                    let off = 16 + i * AGED_CHUNK_SIZE;
                    let bytes = rest.get(off..).ok_or_else(|| corrupt("chunks-aged"))?;
                    entries.push(AgedChunk::decode(bytes).ok_or_else(|| corrupt("chunks-aged"))?);
                }
                ManifestRecord::ChunksAged {
                    slice,
                    segment,
                    entries,
                }
            }
            TAG_SLICE_PRUNED => {
                let u64_at = |off: usize| -> Result<u64> {
                    rest.get(off..off + 8)
                        .map(|s| u64::from_le_bytes(s.try_into().expect("8")))
                        .ok_or_else(|| corrupt("slice-pruned"))
                };
                ManifestRecord::SlicePruned {
                    slice: u64_at(0)?,
                    pruned_below: u64_at(8)?,
                }
            }
            t => {
                return Err(LoomError::Corrupt(format!(
                    "unknown manifest record tag {t}"
                )))
            }
        })
    }

    /// The histogram spec an [`ManifestRecord::IndexDef`]'s bounds encode.
    pub fn spec_from_bounds(bounds: &[f64]) -> Result<HistogramSpec> {
        HistogramSpec::from_bounds(bounds.to_vec())
    }
}

/// An open manifest file with its replayed records.
pub struct Manifest {
    file: File,
    /// All records currently in the journal, in append order.
    records: Vec<ManifestRecord>,
}

impl Manifest {
    /// Creates a new, empty manifest in `dir`. Fails if one already exists.
    pub fn create(dir: &Path) -> Result<Manifest> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(dir.join(MANIFEST_FILE))?;
        Ok(Manifest {
            file,
            records: Vec::new(),
        })
    }

    /// Opens an existing manifest, replaying all records.
    ///
    /// A torn final frame (partial write from a crash mid-append) is
    /// truncated away. A checksum failure or undecodable record *before*
    /// the final frame is a hard [`LoomError::CorruptLog`] — unlike
    /// telemetry, schema records have no redundant copy to fall back on.
    pub fn open(dir: &Path) -> Result<Manifest> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(MANIFEST_FILE))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut records = Vec::new();
        let mut pos = 0usize;
        while let Some((body, next)) = read_frame(&bytes, pos, LogId::Manifest)? {
            records.push(ManifestRecord::decode(body)?);
            pos = next;
        }
        if (pos as u64) < bytes.len() as u64 {
            // Torn tail from a crash mid-append: drop it.
            file.set_len(pos as u64)?;
            file.sync_all()?;
            file.seek(SeekFrom::End(0))?;
        }
        Ok(Manifest { file, records })
    }

    /// The replayed records, in append order.
    pub fn records(&self) -> &[ManifestRecord] {
        &self.records
    }

    /// Returns the clean-shutdown state iff the journal's *last* record is
    /// a [`ManifestRecord::CleanShutdown`] (any later record — notably
    /// [`ManifestRecord::Reopened`] — invalidates it).
    pub fn clean_shutdown(&self) -> Option<&CleanShutdown> {
        match self.records.last() {
            Some(ManifestRecord::CleanShutdown(state)) => Some(state),
            _ => None,
        }
    }

    /// Appends a record and syncs it to storage before returning.
    pub fn append(&mut self, record: ManifestRecord) -> Result<()> {
        let mut frame = Vec::new();
        record.encode(&mut frame);
        let mut out = Vec::with_capacity(frame.len() + 8);
        write_frame(&mut out, &frame);
        if let Some(k) = crate::fault::check(crate::fault::MANIFEST_APPEND, record.kind_name()) {
            return Err(LoomError::Io(k.to_io_error()));
        }
        self.file.write_all(&out)?;
        if let Some(k) = crate::fault::check(crate::fault::MANIFEST_SYNC, record.kind_name()) {
            return Err(LoomError::Io(k.to_io_error()));
        }
        self.file.sync_data()?;
        self.records.push(record);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::shutdown::SourceTail;
    use crate::record::NIL_ADDR;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("loom-manifest-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_records() -> Vec<ManifestRecord> {
        vec![
            ManifestRecord::SourceDef {
                id: 1,
                name: "cpu".into(),
            },
            ManifestRecord::IndexDef {
                id: 1,
                source: SourceId(1),
                bounds: vec![0.0, 10.0, 100.0],
                desc: Some(ExtractorDesc::U64Le(8)),
            },
            ManifestRecord::IndexDef {
                id: 2,
                source: SourceId(1),
                bounds: vec![1.5],
                desc: None,
            },
            ManifestRecord::SourceClosed { id: 1 },
            ManifestRecord::IndexClosed { id: 2 },
            ManifestRecord::ChunksAged {
                slice: 3,
                segment: 0,
                entries: vec![
                    AgedChunk {
                        chunk_addr: 0,
                        offset: 24,
                        raw_len: 4096,
                        comp_len: 512,
                        summary_addr: 0,
                        summary_len: 96,
                        ts_min: 100,
                        ts_max: 900,
                        records: 120,
                    },
                    AgedChunk {
                        chunk_addr: 4096,
                        offset: 544,
                        raw_len: 4096,
                        comp_len: 4100,
                        summary_addr: 96,
                        summary_len: 96,
                        ts_min: 901,
                        ts_max: 1800,
                        records: 119,
                    },
                ],
            },
            ManifestRecord::SlicePruned {
                slice: 2,
                pruned_below: 8192,
            },
            ManifestRecord::Reopened,
            ManifestRecord::CleanShutdown(CleanShutdown {
                record_tail: 4096,
                chunk_tail: 77,
                ts_tail: 80,
                last_seal: 40,
                sources: vec![SourceTail {
                    id: 1,
                    prev: 128,
                    count: 9,
                    last_mark: NIL_ADDR,
                }],
            }),
        ]
    }

    #[test]
    fn records_round_trip() {
        for rec in sample_records() {
            let mut body = Vec::new();
            rec.encode(&mut body);
            assert_eq!(ManifestRecord::decode(&body).unwrap(), rec);
        }
    }

    #[test]
    fn append_and_reopen_replays_in_order() {
        let dir = tmpdir("replay");
        let mut m = Manifest::create(&dir).unwrap();
        for rec in sample_records() {
            m.append(rec).unwrap();
        }
        assert!(m.clean_shutdown().is_some());
        drop(m);

        let m = Manifest::open(&dir).unwrap();
        assert_eq!(m.records(), &sample_records()[..]);
        assert_eq!(m.clean_shutdown().unwrap().record_tail, 4096);
    }

    #[test]
    fn reopened_marker_invalidates_clean_shutdown() {
        let dir = tmpdir("invalidate");
        let mut m = Manifest::create(&dir).unwrap();
        m.append(ManifestRecord::CleanShutdown(CleanShutdown::default()))
            .unwrap();
        assert!(m.clean_shutdown().is_some());
        m.append(ManifestRecord::Reopened).unwrap();
        assert!(m.clean_shutdown().is_none());
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        let mut m = Manifest::create(&dir).unwrap();
        m.append(ManifestRecord::SourceDef {
            id: 1,
            name: "a".into(),
        })
        .unwrap();
        m.append(ManifestRecord::SourceDef {
            id: 2,
            name: "b".into(),
        })
        .unwrap();
        drop(m);

        // Simulate a crash mid-append: chop 3 bytes off the last frame.
        let path = dir.join(MANIFEST_FILE);
        let good_len;
        {
            let bytes = std::fs::read(&path).unwrap();
            good_len = {
                // First frame: header + body.
                let body_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
                8 + body_len
            };
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(bytes.len() as u64 - 3).unwrap();
        }

        let m = Manifest::open(&dir).unwrap();
        assert_eq!(m.records().len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len as u64);

        // And appending after truncation lands where the good data ended.
        drop(m);
        let mut m = Manifest::open(&dir).unwrap();
        m.append(ManifestRecord::SourceDef {
            id: 3,
            name: "c".into(),
        })
        .unwrap();
        drop(m);
        let m = Manifest::open(&dir).unwrap();
        assert_eq!(m.records().len(), 2);
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let dir = tmpdir("midfile");
        let mut m = Manifest::create(&dir).unwrap();
        m.append(ManifestRecord::SourceDef {
            id: 1,
            name: "a".into(),
        })
        .unwrap();
        m.append(ManifestRecord::SourceDef {
            id: 2,
            name: "b".into(),
        })
        .unwrap();
        drop(m);

        let path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF; // inside the first frame's body
        std::fs::write(&path, &bytes).unwrap();
        match Manifest::open(&dir).map(|m| m.records().len()) {
            Err(LoomError::CorruptLog { log, .. }) => assert_eq!(log, LogId::Manifest),
            other => panic!("expected CorruptLog, got {other:?}"),
        }
    }

    #[test]
    fn create_refuses_existing_manifest() {
        let dir = tmpdir("exists");
        let _m = Manifest::create(&dir).unwrap();
        assert!(Manifest::create(&dir).is_err());
    }
}
