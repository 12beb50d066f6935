//! The timestamp index: a coarse-grained, append-only timeline (§4.2).
//!
//! Loom writes a fixed-size entry into the timestamp index for two kinds
//! of events: (i) periodically, when a source pushes a record, and
//! (ii) whenever Loom fills a chunk and appends its summary to the chunk
//! index. Entries carry the event timestamp, a pointer into the record log
//! or chunk index, and a back pointer to the previous entry of the same
//! stream (same source's marks, or the chain of chunk seals).
//!
//! Because entries are fixed-size (40 bytes) and timestamps increase
//! monotonically, "find the latest event at or before time t" is a binary
//! search over the index — no tree maintenance on the write path.
//!
//! Each entry is self-checksummed: bytes `[32..36]` hold a CRC32 over the
//! first 32 bytes, and the final 4 bytes are reserved (zero). Decoding
//! verifies the checksum, so a torn or bit-flipped entry surfaces as a
//! corruption error instead of a bogus timeline event.

use crate::durability::{crc32, LogId};
use crate::error::{LoomError, Result};
use crate::hybridlog::LogRead;
#[cfg(test)]
use crate::record::NIL_ADDR;

/// Size in bytes of one timestamp-index entry (including CRC + padding).
pub const TS_ENTRY_SIZE: usize = 40;

/// Offset of the CRC32 field inside an encoded entry; the checksum covers
/// `entry[0..TS_ENTRY_CRC_OFFSET]`.
pub const TS_ENTRY_CRC_OFFSET: usize = 32;

/// The kind of event a timestamp-index entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsKind {
    /// A periodic per-source record mark; `target` is a record address.
    RecordMark,
    /// A chunk was sealed; `target` is the summary's chunk-index address.
    ChunkSeal,
}

/// One timestamp-index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsEntry {
    /// Event kind.
    pub kind: TsKind,
    /// Source of the record for [`TsKind::RecordMark`]; 0 for seals.
    pub source: u32,
    /// Event timestamp (nanoseconds, internal clock).
    pub ts: u64,
    /// Record-log address (marks) or chunk-index address (seals).
    pub target: u64,
    /// Address of the previous entry of the same stream, or
    /// [`NIL_ADDR`](crate::record::NIL_ADDR).
    pub prev: u64,
}

impl TsEntry {
    /// Encodes the entry into its fixed-size on-log form, including its
    /// CRC32 checksum.
    pub fn encode(&self) -> [u8; TS_ENTRY_SIZE] {
        let mut buf = [0u8; TS_ENTRY_SIZE];
        let kind: u32 = match self.kind {
            TsKind::RecordMark => 1,
            TsKind::ChunkSeal => 2,
        };
        buf[0..4].copy_from_slice(&kind.to_le_bytes());
        buf[4..8].copy_from_slice(&self.source.to_le_bytes());
        buf[8..16].copy_from_slice(&self.ts.to_le_bytes());
        buf[16..24].copy_from_slice(&self.target.to_le_bytes());
        buf[24..32].copy_from_slice(&self.prev.to_le_bytes());
        let crc = crc32(&buf[..TS_ENTRY_CRC_OFFSET]);
        buf[32..36].copy_from_slice(&crc.to_le_bytes());
        // buf[36..40] reserved, zero.
        buf
    }

    /// Decodes an entry from its fixed-size on-log form, verifying its
    /// checksum.
    pub fn decode(buf: &[u8]) -> Result<TsEntry> {
        if buf.len() < TS_ENTRY_SIZE {
            return Err(LoomError::Corrupt(format!(
                "timestamp entry truncated: {} bytes",
                buf.len()
            )));
        }
        let stored = u32::from_le_bytes(buf[32..36].try_into().expect("len 4"));
        if crc32(&buf[..TS_ENTRY_CRC_OFFSET]) != stored {
            return Err(LoomError::Corrupt(
                "timestamp entry checksum mismatch".into(),
            ));
        }
        // The reserved tail is outside the checksum; a nonzero byte there
        // still means the entry was never written whole.
        if buf[36..TS_ENTRY_SIZE] != [0; 4] {
            return Err(LoomError::Corrupt(
                "timestamp entry reserved bytes not zero".into(),
            ));
        }
        let kind = match u32::from_le_bytes(buf[0..4].try_into().expect("len 4")) {
            1 => TsKind::RecordMark,
            2 => TsKind::ChunkSeal,
            k => {
                return Err(LoomError::Corrupt(format!(
                    "unknown timestamp entry kind {k}"
                )))
            }
        };
        Ok(TsEntry {
            kind,
            source: u32::from_le_bytes(buf[4..8].try_into().expect("len 4")),
            ts: u64::from_le_bytes(buf[8..16].try_into().expect("len 8")),
            target: u64::from_le_bytes(buf[16..24].try_into().expect("len 8")),
            prev: u64::from_le_bytes(buf[24..32].try_into().expect("len 8")),
        })
    }
}

/// Read-side cursor over a timestamp index stored in a hybrid log view.
pub struct TsIndexView<'a, R: LogRead> {
    log: &'a R,
    /// Number of complete entries visible in this view.
    entries: u64,
}

impl<'a, R: LogRead> TsIndexView<'a, R> {
    /// Creates a view over `log`.
    pub fn new(log: &'a R) -> Self {
        let entries = log.limit() / TS_ENTRY_SIZE as u64;
        TsIndexView { log, entries }
    }

    /// Number of entries visible.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Reads entry number `idx` (0-based).
    pub fn entry(&self, idx: u64) -> Result<TsEntry> {
        let addr = idx * TS_ENTRY_SIZE as u64;
        if idx >= self.entries {
            return Err(LoomError::AddressOutOfBounds {
                addr,
                tail: self.entries * TS_ENTRY_SIZE as u64,
            });
        }
        let mut buf = [0u8; TS_ENTRY_SIZE];
        self.log.read_at(addr, &mut buf)?;
        TsEntry::decode(&buf).map_err(|e| match e {
            LoomError::Corrupt(reason) => LoomError::CorruptLog {
                log: LogId::Ts,
                addr,
                reason,
            },
            other => other,
        })
    }

    /// Reads the entry stored at log address `addr` (used to follow `prev`
    /// pointers).
    pub fn entry_at_addr(&self, addr: u64) -> Result<TsEntry> {
        if !addr.is_multiple_of(TS_ENTRY_SIZE as u64) {
            return Err(LoomError::Corrupt(format!(
                "misaligned timestamp entry address {addr}"
            )));
        }
        self.entry(addr / TS_ENTRY_SIZE as u64)
    }

    /// Returns the index of the first entry with `ts > t`, i.e. the number
    /// of entries with `ts <= t`. Binary search; entries are ordered by
    /// timestamp because the writer timestamps them monotonically.
    pub fn partition_by_ts(&self, t: u64) -> Result<u64> {
        let mut lo = 0u64;
        let mut hi = self.entries;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.entry(mid)?.ts <= t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Finds the first entry at or after position `from` that satisfies
    /// `pred`, scanning forward. Returns its position and the entry.
    pub fn find_forward(
        &self,
        from: u64,
        mut pred: impl FnMut(&TsEntry) -> bool,
    ) -> Result<Option<(u64, TsEntry)>> {
        let mut idx = from;
        while idx < self.entries {
            let e = self.entry(idx)?;
            if pred(&e) {
                return Ok(Some((idx, e)));
            }
            idx += 1;
        }
        Ok(None)
    }

    /// Finds the last entry strictly before position `until` that satisfies
    /// `pred`, scanning backward. Returns its position and the entry.
    pub fn find_backward(
        &self,
        until: u64,
        mut pred: impl FnMut(&TsEntry) -> bool,
    ) -> Result<Option<(u64, TsEntry)>> {
        let mut idx = until.min(self.entries);
        while idx > 0 {
            idx -= 1;
            let e = self.entry(idx)?;
            if pred(&e) {
                return Ok(Some((idx, e)));
            }
        }
        Ok(None)
    }

    /// Finds the latest chunk-seal entry with `ts <= t`, if any.
    pub fn last_seal_at_or_before(&self, t: u64) -> Result<Option<TsEntry>> {
        let pos = self.partition_by_ts(t)?;
        // Walk backward from the partition point, entry by entry, to the
        // nearest seal. The walk is bounded by the mark period times the
        // number of sources in the worst case.
        Ok(self
            .find_backward(pos, |e| e.kind == TsKind::ChunkSeal)?
            .map(|(_, e)| e))
    }

    /// Finds the first chunk-seal entry with `ts >= t`, if any.
    pub fn first_seal_at_or_after(&self, t: u64) -> Result<Option<TsEntry>> {
        let pos = self.partition_by_ts(t.saturating_sub(1))?;
        Ok(self
            .find_forward(pos, |e| e.kind == TsKind::ChunkSeal && e.ts >= t)?
            .map(|(_, e)| e))
    }

    /// Finds the first record mark for `source` with `ts > t`, if any.
    ///
    /// Used by raw scans to bound how far back a record-chain walk must
    /// start for a historical time range.
    pub fn first_mark_after(&self, source: u32, t: u64) -> Result<Option<TsEntry>> {
        let pos = self.partition_by_ts(t)?;
        Ok(self
            .find_forward(pos, |e| e.kind == TsKind::RecordMark && e.source == source)?
            .map(|(_, e)| e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory `LogRead` for unit tests.
    struct MemLog(Vec<u8>);

    impl LogRead for MemLog {
        fn read_at(&self, addr: u64, dst: &mut [u8]) -> Result<()> {
            let a = addr as usize;
            if a + dst.len() > self.0.len() {
                return Err(LoomError::AddressOutOfBounds {
                    addr: addr + dst.len() as u64,
                    tail: self.0.len() as u64,
                });
            }
            dst.copy_from_slice(&self.0[a..a + dst.len()]);
            Ok(())
        }

        fn limit(&self) -> u64 {
            self.0.len() as u64
        }
    }

    fn build_index(entries: &[TsEntry]) -> MemLog {
        let mut v = Vec::new();
        for e in entries {
            v.extend_from_slice(&e.encode());
        }
        MemLog(v)
    }

    fn mark(source: u32, ts: u64, target: u64) -> TsEntry {
        TsEntry {
            kind: TsKind::RecordMark,
            source,
            ts,
            target,
            prev: NIL_ADDR,
        }
    }

    fn seal(ts: u64, target: u64) -> TsEntry {
        TsEntry {
            kind: TsKind::ChunkSeal,
            source: 0,
            ts,
            target,
            prev: NIL_ADDR,
        }
    }

    #[test]
    fn entry_round_trips() {
        for e in [mark(3, 100, 4096), seal(222, 88)] {
            assert_eq!(TsEntry::decode(&e.encode()).unwrap(), e);
        }
    }

    #[test]
    fn decode_rejects_bad_kind() {
        let mut buf = mark(1, 2, 3).encode();
        buf[0] = 9;
        // Flipping the kind byte also invalidates the checksum; restamp it
        // so the kind check itself is exercised.
        let crc = crc32(&buf[..TS_ENTRY_CRC_OFFSET]);
        buf[32..36].copy_from_slice(&crc.to_le_bytes());
        assert!(TsEntry::decode(&buf).is_err());
    }

    #[test]
    fn decode_rejects_flipped_byte() {
        let mut buf = mark(1, 2, 3).encode();
        buf[17] ^= 0x01; // corrupt the target field
        let err = TsEntry::decode(&buf).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn decode_rejects_nonzero_reserved_bytes() {
        // The reserved tail sits outside the checksum; a flip there must
        // still be rejected.
        let mut buf = mark(1, 2, 3).encode();
        buf[39] ^= 0xFF;
        let err = TsEntry::decode(&buf).unwrap_err();
        assert!(err.to_string().contains("reserved"), "{err}");
    }

    #[test]
    fn corrupt_entry_read_reports_log_and_address() {
        let mut bytes = build_index(&[mark(1, 10, 0), mark(1, 20, 1)]).0;
        bytes[TS_ENTRY_SIZE + 9] ^= 0x80; // corrupt entry 1's ts field
        let log = MemLog(bytes);
        let v = TsIndexView::new(&log);
        assert!(v.entry(0).is_ok());
        match v.entry(1) {
            Err(LoomError::CorruptLog { log, addr, .. }) => {
                assert_eq!(log, LogId::Ts);
                assert_eq!(addr, TS_ENTRY_SIZE as u64);
            }
            other => panic!("expected CorruptLog, got {other:?}"),
        }
    }

    #[test]
    fn partition_by_ts_is_correct() {
        // Timestamps: 10, 20, 20, 30, 40.
        let log = build_index(&[
            mark(1, 10, 0),
            seal(20, 1),
            mark(2, 20, 2),
            mark(1, 30, 3),
            seal(40, 4),
        ]);
        let v = TsIndexView::new(&log);
        assert_eq!(v.len(), 5);
        assert_eq!(v.partition_by_ts(5).unwrap(), 0);
        assert_eq!(v.partition_by_ts(10).unwrap(), 1);
        assert_eq!(v.partition_by_ts(20).unwrap(), 3);
        assert_eq!(v.partition_by_ts(25).unwrap(), 3);
        assert_eq!(v.partition_by_ts(40).unwrap(), 5);
        assert_eq!(v.partition_by_ts(u64::MAX).unwrap(), 5);
    }

    #[test]
    fn seal_searches_find_neighbours() {
        let log = build_index(&[
            mark(1, 10, 0),
            seal(20, 100),
            mark(2, 25, 2),
            seal(30, 200),
            mark(1, 35, 3),
        ]);
        let v = TsIndexView::new(&log);
        assert_eq!(v.last_seal_at_or_before(19).unwrap(), None);
        assert_eq!(v.last_seal_at_or_before(20).unwrap().unwrap().target, 100);
        assert_eq!(v.last_seal_at_or_before(29).unwrap().unwrap().target, 100);
        assert_eq!(v.last_seal_at_or_before(99).unwrap().unwrap().target, 200);

        assert_eq!(v.first_seal_at_or_after(0).unwrap().unwrap().target, 100);
        assert_eq!(v.first_seal_at_or_after(21).unwrap().unwrap().target, 200);
        assert_eq!(v.first_seal_at_or_after(31).unwrap(), None);
    }

    #[test]
    fn first_mark_after_respects_source() {
        let log = build_index(&[
            mark(1, 10, 11),
            mark(2, 20, 22),
            mark(1, 30, 33),
            mark(2, 40, 44),
        ]);
        let v = TsIndexView::new(&log);
        assert_eq!(v.first_mark_after(1, 10).unwrap().unwrap().target, 33);
        assert_eq!(v.first_mark_after(2, 10).unwrap().unwrap().target, 22);
        assert_eq!(v.first_mark_after(1, 30).unwrap(), None);
        assert_eq!(v.first_mark_after(3, 0).unwrap(), None);
    }

    #[test]
    fn truncated_view_ignores_partial_entry() {
        let mut bytes = build_index(&[mark(1, 10, 0), mark(1, 20, 1)]).0;
        bytes.extend_from_slice(&[0u8; 16]); // less than one entry
        let log = MemLog(bytes);
        let v = TsIndexView::new(&log);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn empty_index_searches_return_none() {
        let log = MemLog(Vec::new());
        let v = TsIndexView::new(&log);
        assert!(v.is_empty());
        assert_eq!(v.last_seal_at_or_before(100).unwrap(), None);
        assert_eq!(v.first_mark_after(1, 0).unwrap(), None);
        assert_eq!(v.partition_by_ts(50).unwrap(), 0);
    }
}
