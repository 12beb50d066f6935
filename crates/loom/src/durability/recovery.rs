//! Dirty-reopen recovery: tail scans and cross-log reconciliation.
//!
//! After a crash, the three log files hold whatever their independent
//! flushers managed to write. Recovery makes the directory consistent
//! again without losing any durable record:
//!
//! 1. **Record log** — every entry's CRC32 is verified in chunk order;
//!    the log is logically truncated at the first bad entry (torn tail,
//!    bit flip, or an entry overrunning its chunk).
//! 2. **Chunk index** — summary frames are replayed; the index is
//!    truncated at the first torn or corrupt frame, and at the first
//!    summary describing record bytes past the recovered record tail
//!    (its chunk data never made it to disk).
//! 3. **Timestamp index** — fixed-size entries are replayed; the index is
//!    truncated at the first bad checksum, at a record mark pointing past
//!    the record tail, or at a chunk seal pointing at a truncated summary.
//! 4. **Reconciliation** — because the flushers are independent, the
//!    record log can be *ahead* of its indexes: complete chunks may lack
//!    summaries, and surviving summaries may lack their seal entries. The
//!    recovered state lists both so the engine can resummarize and
//!    re-seal, restoring the invariant that queries over flushed data
//!    behave exactly as before the crash.
//!
//! This module only *computes* the recovered tails and the reconciliation
//! plan; the engine applies it (the hybrid logs truncate their files when
//! reopened at the recovered tails).

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::chunk_index::{MirrorSnapshot, SummaryCursor, SummaryMirror};
use crate::config::Config;
use crate::durability::format::{read_frame, LogId};
use crate::durability::shutdown::SourceTail;
use crate::error::{LoomError, Result};
use crate::record::{RecordHeader, NIL_ADDR, RECORD_HEADER_SIZE};
use crate::retention::ColdSnap;
use crate::summary::ChunkSummary;
use crate::ts_index::{TsEntry, TsKind, TS_ENTRY_SIZE};

/// One tail truncation decided during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailTruncation {
    /// Which log was truncated.
    pub log: LogId,
    /// File length before recovery.
    pub durable_len: u64,
    /// Recovered tail; bytes at and past this address are discarded.
    pub new_tail: u64,
    /// Why the tail was cut here.
    pub reason: String,
}

impl TailTruncation {
    /// Number of bytes discarded.
    pub fn bytes_truncated(&self) -> u64 {
        self.durable_len - self.new_tail
    }
}

/// What recovery did, for operators and tests.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// `true` when the directory was reopened via the clean-shutdown fast
    /// path (no record or timestamp scan; one verified read of the chunk
    /// index); `false` after a dirty scan.
    pub clean: bool,
    /// Records whose checksums were verified during the scan.
    pub records_scanned: u64,
    /// Tails cut back, with reasons; empty on a clean reopen or when every
    /// log ended exactly at a valid entry boundary.
    pub truncations: Vec<TailTruncation>,
    /// Chunk summaries rebuilt by rescanning complete-but-unsummarized
    /// chunks.
    pub summaries_rebuilt: u64,
    /// Chunk-seal timestamp entries re-appended for surviving summaries
    /// whose seals were lost.
    pub seals_appended: u64,
    /// Wall-clock duration of recovery in nanoseconds.
    pub duration_nanos: u64,
}

impl RecoveryReport {
    /// Total bytes discarded across all logs.
    pub fn bytes_truncated(&self) -> u64 {
        self.truncations.iter().map(|t| t.bytes_truncated()).sum()
    }
}

/// Per-source writer state reconstructed from the logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceState {
    /// Address of the source's last surviving record, or [`NIL_ADDR`].
    pub prev: u64,
    /// Number of surviving records.
    pub count: u64,
    /// Timestamp-log address of the source's last surviving record mark,
    /// or [`NIL_ADDR`].
    pub last_mark: u64,
}

/// A source with no record and no mark yet. Both pointers are
/// [`NIL_ADDR`], never 0: address 0 is the first record (or mark) of
/// its log.
impl Default for SourceState {
    fn default() -> Self {
        SourceState {
            prev: NIL_ADDR,
            count: 0,
            last_mark: NIL_ADDR,
        }
    }
}

/// The chain state a clean shutdown recorded for one source.
impl From<&SourceTail> for SourceState {
    fn from(t: &SourceTail) -> Self {
        SourceState {
            prev: t.prev,
            count: t.count,
            last_mark: t.last_mark,
        }
    }
}

/// A surviving summary whose chunk-seal timestamp entry was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsealedSummary {
    /// Record-log address of the summarized chunk.
    pub chunk_addr: u64,
    /// Chunk-index address of the summary frame.
    pub summary_addr: u64,
    /// The summary's `ts_max` (0 for an empty chunk).
    pub ts_max: u64,
}

/// Everything the engine needs to reopen a dirty directory.
#[derive(Debug, Clone, Default)]
pub struct RecoveredState {
    /// Recovered record-log tail.
    pub record_tail: u64,
    /// Recovered chunk-index tail.
    pub chunk_tail: u64,
    /// Recovered timestamp-index tail.
    pub ts_tail: u64,
    /// Timestamp-log address of the last surviving chunk-seal entry, or
    /// [`NIL_ADDR`].
    pub last_seal: u64,
    /// Timestamp of the last surviving timestamp-index entry (0 if none);
    /// re-appended seals must not go below this.
    pub last_ts: u64,
    /// Per-source writer state.
    pub sources: HashMap<u32, SourceState>,
    /// The surviving chunk-index summaries, decoded into a summary
    /// mirror as the scan verified them (minus those of slices retention
    /// pruned).
    pub summaries: MirrorSnapshot,
    /// Chunk addresses that are complete in the record log but have no
    /// surviving summary; the engine rescans and resummarizes them.
    pub resummarize: Vec<u64>,
    /// Surviving summaries with no surviving seal entry, in chunk order;
    /// the engine re-appends their [`TsKind::ChunkSeal`] entries.
    pub unsealed_summaries: Vec<UnsealedSummary>,
    /// What the scans found.
    pub report: RecoveryReport,
    /// Cold chunks inflated (and `raw_crc`-checked) by the scan: each
    /// live cold chunk exactly once.
    pub(crate) cold_chunks_inflated: u64,
}

/// Scans a dirty data directory and computes its recovered state.
///
/// Pure with respect to the directory: no file is modified (the engine
/// truncates each log when it reopens it at the recovered tail).
pub fn recover_dirty(dir: &Path, config: &Config) -> Result<RecoveredState> {
    recover_dirty_with_cold(dir, config, &ColdSnap::default())
}

/// [`recover_dirty`] for a directory with a cold tier: chunks the
/// manifest committed to cold segments are scanned from their
/// decompressed bytes (the hot copies may already be punched to zeros),
/// and chunks below the retention prune watermark are skipped — their
/// data is legitimately gone, not torn.
///
/// `cold` comes from the shallow open (headers, frame CRCs, frame order
/// and addresses). This scan is the only deep pass over the cold tier:
/// it inflates every live cold chunk once, checking `raw_len`, `raw_crc`
/// and every record CRC. A cold chunk the record-log scan does not reach
/// (it stopped at a cut first) is inflated after it, so a corrupt cold
/// chunk always fails the reopen with `CorruptLog { log: ColdSegment }`.
pub fn recover_dirty_with_cold(
    dir: &Path,
    config: &Config,
    cold: &ColdSnap,
) -> Result<RecoveredState> {
    let started = std::time::Instant::now();
    let mut state = RecoveredState {
        last_seal: NIL_ADDR,
        ..RecoveredState::default()
    };

    scan_record_log(dir, config, cold, &mut state)?;
    let kept_summaries = scan_chunk_log(dir, cold, &mut state)?;
    let sealed = scan_ts_log(dir, &mut state, &kept_summaries)?;
    reconcile(config, &mut state, &kept_summaries, &sealed);

    state.report.duration_nanos = started.elapsed().as_nanos() as u64;
    Ok(state)
}

/// A clean reopen's summary load: one sequential read of the chunk
/// index up to its clean-shutdown tail, every frame checksum-verified and
/// decoded into a summary mirror — except the frames of slices retention
/// pruned, which nothing reads again (the planner skips them by the slice
/// super-summary).
///
/// A clean shutdown vouches for the tails, not for the bytes since: a
/// corrupt or torn frame is an error here, and the caller falls back to
/// [`recover_dirty_with_cold`], which truncates at the bad frame and
/// rebuilds the lost summaries from the chunks' records.
pub fn load_summaries(dir: &Path, chunk_tail: u64, cold: &ColdSnap) -> Result<MirrorSnapshot> {
    let mut bytes = std::fs::read(dir.join(LogId::Chunks.file_name()))?;
    bytes.truncate(chunk_tail as usize);
    let mirror = SummaryMirror::default();
    let mut cursor = SummaryCursor::new(&bytes, 0);
    loop {
        let addr = cursor.pos();
        if let Some(slice) = cold.slice_covering(addr).filter(|s| s.pruned) {
            cursor = SummaryCursor::new(&bytes, slice.summary_end);
            continue;
        }
        let Some(summary) = cursor.next()? else { break };
        mirror.append(addr, (cursor.pos() - addr) as usize, &summary);
    }
    if cursor.pos() != chunk_tail {
        return Err(LoomError::CorruptLog {
            log: LogId::Chunks,
            addr: cursor.pos(),
            reason: format!("torn summary frame before the clean-shutdown tail {chunk_tail}"),
        });
    }
    Ok(mirror.capture())
}

/// Verifies the record log entry by entry, chunk by chunk, fixing the
/// recovered record tail at the first invalid entry.
fn scan_record_log(
    dir: &Path,
    config: &Config,
    cold: &ColdSnap,
    state: &mut RecoveredState,
) -> Result<()> {
    let file = File::open(dir.join(LogId::Records.file_name()))?;
    let file_len = file.metadata()?.len();
    let chunk_size = config.chunk_size;
    let mut buf = vec![0u8; chunk_size];
    let (mut frame, mut cold_buf) = (Vec::new(), Vec::new());

    let mut tail = file_len;
    let cut = |state: &mut RecoveredState, tail: &mut u64, addr: u64, reason: String| {
        *tail = addr;
        state.report.truncations.push(TailTruncation {
            log: LogId::Records,
            durable_len: file_len,
            new_tail: addr,
            reason,
        });
    };

    let mut chunk_start = 0u64;
    // Chunks below this address were visited by the scan.
    let mut visited_to = 0u64;
    'chunks: while chunk_start < file_len {
        visited_to = chunk_start + chunk_size as u64;
        let avail = ((file_len - chunk_start) as usize).min(chunk_size);
        let chunk: &[u8] = if cold.read_chunk(chunk_start, &mut frame, &mut cold_buf)? {
            // The cold tier owns this chunk: scan its decompressed bytes
            // (the hot copy may be punched). Cold chunks are whole by
            // construction, so `avail` is a full chunk here.
            state.cold_chunks_inflated += 1;
            &cold_buf[..avail.min(cold_buf.len())]
        } else if chunk_start + chunk_size as u64 <= cold.pruned_below() {
            // Dropped by retention: not torn, just gone. Skip it without
            // reading — the bytes are punched zeros (or a stale copy if
            // the crash beat the punch, which must not be re-counted).
            chunk_start += chunk_size as u64;
            continue;
        } else {
            file.read_exact_at(&mut buf[..avail], chunk_start)?;
            &buf[..avail]
        };
        let avail = chunk.len();
        let complete = avail == chunk_size;
        let mut pos = 0usize;
        while pos + RECORD_HEADER_SIZE <= avail {
            let addr = chunk_start + pos as u64;
            let header_buf = &chunk[pos..pos + RECORD_HEADER_SIZE];
            let header = RecordHeader::decode(header_buf).expect("length checked");
            if header.source == 0 {
                if complete {
                    // Short pad: fewer than a header's worth of bytes
                    // remained, written as raw zeros. Skip to next chunk.
                    break;
                }
                cut(
                    state,
                    &mut tail,
                    addr,
                    "zeroed header in partial tail chunk".into(),
                );
                break 'chunks;
            }
            let entry_end = pos + header.entry_size();
            if entry_end > chunk_size {
                cut(
                    state,
                    &mut tail,
                    addr,
                    format!(
                        "entry overruns chunk boundary ({} > {})",
                        entry_end, chunk_size
                    ),
                );
                break 'chunks;
            }
            if entry_end > avail {
                cut(state, &mut tail, addr, "torn record entry".into());
                break 'chunks;
            }
            let payload = &chunk[pos + RECORD_HEADER_SIZE..entry_end];
            if !RecordHeader::verify(header_buf, payload) {
                cut(state, &mut tail, addr, "record checksum mismatch".into());
                break 'chunks;
            }
            if !header.is_pad() {
                state.report.records_scanned += 1;
                let s = state.sources.entry(header.source).or_default();
                s.prev = addr;
                s.count += 1;
            }
            pos = entry_end;
        }
        if pos < avail && pos + RECORD_HEADER_SIZE > avail && !complete {
            // A partial tail chunk must end exactly at an entry boundary;
            // a sub-header remainder is a torn write.
            cut(
                state,
                &mut tail,
                chunk_start + pos as u64,
                "trailing partial header".into(),
            );
            break;
        }
        chunk_start += chunk_size as u64;
    }
    state.record_tail = tail;

    // The cold tier was opened shallow, so a live cold chunk the scan
    // stopped short of is inflated here: every one is checked, once.
    for addr in cold.chunk_addrs().into_iter().filter(|&a| a >= visited_to) {
        cold.read_chunk(addr, &mut frame, &mut cold_buf)?;
        state.cold_chunks_inflated += 1;
    }
    Ok(())
}

/// Replays chunk-index frames, truncating at the first invalid one, and
/// returns the surviving summaries as `(summary_addr, chunk_addr,
/// chunk_end, ts_max)` in log order; the summaries themselves, minus
/// those of pruned slices, land in `state.summaries`.
fn scan_chunk_log(
    dir: &Path,
    cold: &ColdSnap,
    state: &mut RecoveredState,
) -> Result<Vec<(u64, u64, u64, u64)>> {
    let bytes = std::fs::read(dir.join(LogId::Chunks.file_name()))?;
    let file_len = bytes.len() as u64;
    let mut kept = Vec::new();
    let mirror = SummaryMirror::default();
    let mut pos = 0usize;
    let mut prev_chunk_end = 0u64;
    let mut truncation: Option<String> = None;

    loop {
        match read_frame(&bytes, pos, LogId::Chunks) {
            Ok(None) => break, // torn tail or clean end
            Err(e) => {
                truncation = Some(e.to_string());
                break;
            }
            Ok(Some((_, next))) => {
                let (summary, _) = match ChunkSummary::decode(&bytes[pos..]) {
                    Ok(v) => v,
                    Err(e) => {
                        truncation = Some(e.to_string());
                        break;
                    }
                };
                let chunk_end = summary.chunk_addr + summary.chunk_len as u64;
                if chunk_end > state.record_tail {
                    truncation = Some(format!(
                        "summary for chunk at {} refers past the record tail {}",
                        summary.chunk_addr, state.record_tail
                    ));
                    break;
                }
                if summary.chunk_addr < prev_chunk_end {
                    truncation = Some(format!(
                        "summary for chunk at {} is out of order",
                        summary.chunk_addr
                    ));
                    break;
                }
                prev_chunk_end = chunk_end;
                kept.push((pos as u64, summary.chunk_addr, chunk_end, summary.ts_max));
                if !cold.slice_covering(pos as u64).is_some_and(|s| s.pruned) {
                    mirror.append(pos as u64, next - pos, &summary);
                }
                pos = next;
            }
        }
    }

    state.summaries = mirror.capture();
    state.chunk_tail = pos as u64;
    if state.chunk_tail < file_len {
        state.report.truncations.push(TailTruncation {
            log: LogId::Chunks,
            durable_len: file_len,
            new_tail: state.chunk_tail,
            reason: truncation.unwrap_or_else(|| "torn summary frame".into()),
        });
    }
    Ok(kept)
}

/// Replays timestamp-index entries, truncating at the first invalid or
/// dangling one, and records per-source marks plus the seal chain tail.
fn scan_ts_log(
    dir: &Path,
    state: &mut RecoveredState,
    kept_summaries: &[(u64, u64, u64, u64)],
) -> Result<HashSet<u64>> {
    let bytes = std::fs::read(dir.join(LogId::Ts.file_name()))?;
    let file_len = bytes.len() as u64;
    let summary_addrs: HashSet<u64> = kept_summaries.iter().map(|k| k.0).collect();
    let mut sealed = HashSet::new();
    let entries = bytes.len() / TS_ENTRY_SIZE;
    let mut tail = (entries * TS_ENTRY_SIZE) as u64;
    let mut truncation: Option<String> = if tail < file_len {
        Some("partial trailing entry".into())
    } else {
        None
    };

    for i in 0..entries {
        let addr = (i * TS_ENTRY_SIZE) as u64;
        let entry = match TsEntry::decode(&bytes[i * TS_ENTRY_SIZE..(i + 1) * TS_ENTRY_SIZE]) {
            Ok(e) => e,
            Err(e) => {
                tail = addr;
                truncation = Some(e.to_string());
                break;
            }
        };
        match entry.kind {
            TsKind::RecordMark => {
                if entry.target >= state.record_tail {
                    tail = addr;
                    truncation = Some(format!(
                        "record mark refers past the record tail ({} >= {})",
                        entry.target, state.record_tail
                    ));
                    break;
                }
                state.sources.entry(entry.source).or_default().last_mark = addr;
            }
            TsKind::ChunkSeal => {
                if !summary_addrs.contains(&entry.target) {
                    tail = addr;
                    truncation = Some(format!(
                        "chunk seal refers to a truncated summary at {}",
                        entry.target
                    ));
                    break;
                }
                state.last_seal = addr;
                sealed.insert(entry.target);
            }
        }
        state.last_ts = state.last_ts.max(entry.ts);
    }

    state.ts_tail = tail;
    if state.ts_tail < file_len {
        state.report.truncations.push(TailTruncation {
            log: LogId::Ts,
            durable_len: file_len,
            new_tail: state.ts_tail,
            reason: truncation.unwrap_or_else(|| "torn timestamp entry".into()),
        });
    }
    Ok(sealed)
}

/// Computes the reconciliation plan: complete chunks missing summaries and
/// surviving summaries missing seal entries.
fn reconcile(
    config: &Config,
    state: &mut RecoveredState,
    kept_summaries: &[(u64, u64, u64, u64)],
    sealed: &HashSet<u64>,
) {
    for &(summary_addr, chunk_addr, _, ts_max) in kept_summaries {
        if !sealed.contains(&summary_addr) {
            state.unsealed_summaries.push(UnsealedSummary {
                chunk_addr,
                summary_addr,
                ts_max,
            });
        }
    }

    let chunk_size = config.chunk_size as u64;
    let summarized_upto = kept_summaries.last().map(|k| k.2).unwrap_or(0);
    // Complete chunks start at the first chunk boundary at or after the
    // summarized prefix and end at the last chunk boundary within the
    // record tail; everything in between lost its summary to the crash.
    let complete_upto = state.record_tail - state.record_tail % chunk_size;
    let mut addr = summarized_upto.div_ceil(chunk_size) * chunk_size;
    while addr < complete_upto {
        state.resummarize.push(addr);
        addr += chunk_size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SOURCE_PAD;

    const CHUNK: usize = 256;

    fn test_config(dir: &Path) -> Config {
        let mut c = Config::small(dir);
        c.chunk_size = CHUNK;
        c.block_size = 1024;
        c
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("loom-recovery-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Builds record-log bytes the way the engine does, including chunk
    /// padding, and tracks the resulting addresses.
    struct RecBuilder {
        bytes: Vec<u8>,
        prev: HashMap<u32, u64>,
    }

    impl RecBuilder {
        fn new() -> Self {
            RecBuilder {
                bytes: Vec::new(),
                prev: HashMap::new(),
            }
        }

        fn push(&mut self, source: u32, payload: &[u8], ts: u64) -> u64 {
            let rem = CHUNK - self.bytes.len() % CHUNK;
            if RECORD_HEADER_SIZE + payload.len() > rem {
                if rem >= RECORD_HEADER_SIZE {
                    let pad_payload = vec![0u8; rem - RECORD_HEADER_SIZE];
                    let pad = RecordHeader {
                        source: SOURCE_PAD,
                        len: pad_payload.len() as u32,
                        prev: NIL_ADDR,
                        ts: 0,
                    };
                    self.bytes.extend_from_slice(&pad.encode(&pad_payload));
                    self.bytes.extend_from_slice(&pad_payload);
                } else {
                    self.bytes.extend(std::iter::repeat_n(0u8, rem));
                }
            }
            let addr = self.bytes.len() as u64;
            let header = RecordHeader {
                source,
                len: payload.len() as u32,
                prev: *self.prev.get(&source).unwrap_or(&NIL_ADDR),
                ts,
            };
            self.bytes.extend_from_slice(&header.encode(payload));
            self.bytes.extend_from_slice(payload);
            self.prev.insert(source, addr);
            addr
        }
    }

    fn summary_for(chunk_addr: u64, ts_min: u64, ts_max: u64, count: u64) -> ChunkSummary {
        let mut s = ChunkSummary::new(chunk_addr / CHUNK as u64, chunk_addr, CHUNK as u32);
        for i in 0..count {
            s.observe_record(1, ts_min + i * (ts_max - ts_min).max(1) / count.max(1));
        }
        s.ts_min = ts_min;
        s.ts_max = ts_max;
        s
    }

    /// Lays down a 5-record, 2.5-chunk directory: chunk 0 summarized and
    /// sealed, chunk 1 complete but unsummarized, chunk 2 partial.
    fn build_dir(name: &str) -> (std::path::PathBuf, Config) {
        let dir = tmpdir(name);
        let config = test_config(&dir);
        let mut rb = RecBuilder::new();
        for i in 0..5u64 {
            // 100-byte payloads: 128-byte entries, two per 256-byte chunk.
            rb.push(1, &[i as u8; 100], 1000 + i * 10);
        }
        assert_eq!(rb.bytes.len(), 640);
        std::fs::write(dir.join(LogId::Records.file_name()), &rb.bytes).unwrap();

        let mut chunk_bytes = Vec::new();
        summary_for(0, 1000, 1010, 2).encode(&mut chunk_bytes);
        std::fs::write(dir.join(LogId::Chunks.file_name()), &chunk_bytes).unwrap();

        let mut ts_bytes = Vec::new();
        ts_bytes.extend_from_slice(
            &TsEntry {
                kind: TsKind::RecordMark,
                source: 1,
                ts: 1000,
                target: 0,
                prev: NIL_ADDR,
            }
            .encode(),
        );
        ts_bytes.extend_from_slice(
            &TsEntry {
                kind: TsKind::ChunkSeal,
                source: 0,
                ts: 1010,
                target: 0, // summary frame at chunk-log address 0
                prev: NIL_ADDR,
            }
            .encode(),
        );
        std::fs::write(dir.join(LogId::Ts.file_name()), &ts_bytes).unwrap();
        (dir, config)
    }

    #[test]
    fn reconstructs_consistent_state() {
        let (dir, config) = build_dir("consistent");
        let state = recover_dirty(&dir, &config).unwrap();
        assert_eq!(state.record_tail, 640);
        assert_eq!(state.ts_tail, 80);
        assert!(state.report.truncations.is_empty());
        assert_eq!(state.report.records_scanned, 5);
        let s = &state.sources[&1];
        assert_eq!(s.prev, 512);
        assert_eq!(s.count, 5);
        assert_eq!(s.last_mark, 0);
        assert_eq!(state.last_seal, 40);
        assert_eq!(state.last_ts, 1010);
        // Chunk 1 (at 256) is complete but unsummarized; chunk 2 is the
        // partial active chunk and is not resummarized.
        assert_eq!(state.resummarize, vec![256]);
        assert!(state.unsealed_summaries.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_record_byte_truncates_and_cascades() {
        let (dir, config) = build_dir("flip");
        // Add a summary + seal for chunk 1 so the cascade is visible.
        let rec_path = dir.join(LogId::Records.file_name());
        let chunk_path = dir.join(LogId::Chunks.file_name());
        let ts_path = dir.join(LogId::Ts.file_name());
        let mut chunk_bytes = std::fs::read(&chunk_path).unwrap();
        let summary0_len = chunk_bytes.len() as u64;
        summary_for(256, 1020, 1030, 2).encode(&mut chunk_bytes);
        std::fs::write(&chunk_path, &chunk_bytes).unwrap();
        let mut ts_bytes = std::fs::read(&ts_path).unwrap();
        ts_bytes.extend_from_slice(
            &TsEntry {
                kind: TsKind::ChunkSeal,
                source: 0,
                ts: 1030,
                target: summary0_len,
                prev: 40,
            }
            .encode(),
        );
        std::fs::write(&ts_path, &ts_bytes).unwrap();

        // Sanity: with intact records everything is kept.
        let state = recover_dirty(&dir, &config).unwrap();
        assert!(state.report.truncations.is_empty());
        assert_eq!(state.last_seal, 80);

        // Flip one payload byte of the record at 256 (start of chunk 1).
        let mut rec_bytes = std::fs::read(&rec_path).unwrap();
        rec_bytes[256 + RECORD_HEADER_SIZE + 3] ^= 0x01;
        std::fs::write(&rec_path, &rec_bytes).unwrap();

        let state = recover_dirty(&dir, &config).unwrap();
        assert_eq!(state.record_tail, 256);
        assert_eq!(state.report.records_scanned, 2);
        // Chunk 1's summary now refers past the record tail.
        assert_eq!(state.chunk_tail, summary0_len);
        // And its seal entry dangles.
        assert_eq!(state.ts_tail, 80);
        assert_eq!(state.last_seal, 40);
        assert_eq!(state.sources[&1].count, 2);
        assert_eq!(state.sources[&1].prev, 128);
        assert!(state.resummarize.is_empty());
        let reasons: Vec<_> = state
            .report
            .truncations
            .iter()
            .map(|t| (t.log, t.reason.clone()))
            .collect();
        assert_eq!(state.report.truncations.len(), 3, "{reasons:?}");
        assert!(reasons[0].1.contains("checksum"), "{reasons:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tails_are_cut_in_every_log() {
        let (dir, config) = build_dir("torn");
        for log in [LogId::Records, LogId::Chunks, LogId::Ts] {
            let path = dir.join(log.file_name());
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.extend_from_slice(&[0xAA; 13]);
            std::fs::write(&path, &bytes).unwrap();
        }
        let state = recover_dirty(&dir, &config).unwrap();
        assert_eq!(state.record_tail, 640);
        assert_eq!(state.ts_tail, 80);
        assert_eq!(state.report.truncations.len(), 3);
        assert_eq!(state.report.bytes_truncated(), 39);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dangling_mark_truncates_ts_log() {
        let (dir, config) = build_dir("dangling-mark");
        let ts_path = dir.join(LogId::Ts.file_name());
        let mut ts_bytes = std::fs::read(&ts_path).unwrap();
        ts_bytes.extend_from_slice(
            &TsEntry {
                kind: TsKind::RecordMark,
                source: 1,
                ts: 1040,
                target: 100_000, // far past the record tail
                prev: 0,
            }
            .encode(),
        );
        std::fs::write(&ts_path, &ts_bytes).unwrap();
        let state = recover_dirty(&dir, &config).unwrap();
        assert_eq!(state.ts_tail, 80);
        assert_eq!(state.report.truncations.len(), 1);
        assert!(state.report.truncations[0]
            .reason
            .contains("past the record tail"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lost_seal_is_scheduled_for_reappend() {
        let (dir, config) = build_dir("lost-seal");
        // Drop the seal entry (keep only the first 40-byte mark).
        let ts_path = dir.join(LogId::Ts.file_name());
        let ts_bytes = std::fs::read(&ts_path).unwrap();
        std::fs::write(&ts_path, &ts_bytes[..40]).unwrap();
        let state = recover_dirty(&dir, &config).unwrap();
        assert_eq!(state.last_seal, NIL_ADDR);
        assert_eq!(
            state.unsealed_summaries,
            vec![UnsealedSummary {
                chunk_addr: 0,
                summary_addr: 0,
                ts_max: 1010,
            }]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
