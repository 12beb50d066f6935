//! The raw scan operator (§4.3).
//!
//! Retrieves all records of a source within a time range, iterating from
//! the most to the least recent record. The operator uses the timestamp
//! index to find the source's first record *after* the range (bounding
//! the chain walk for historical queries), then walks the source's record
//! chain backward via the headers' back pointers.
//!
//! It reads the log by the window, not by the record ([`ChainReader`]
//! holds the rule), and verifies every record it reads — newer than the
//! range, in it, or the older one it stops at: its link, then its `len`
//! against its chunk, then its checksum.

use super::view::{ChainReader, QueryView};
use super::{Record, TimeRange};
use crate::durability::LogId;
use crate::error::{LoomError, Result};
use crate::record::{NIL_ADDR, RECORD_HEADER_SIZE};
use crate::registry::SourceId;
use crate::stats::QueryStats;
use crate::ts_index::TsIndexView;

/// Executes a raw scan over `view`.
pub(crate) fn run<F>(
    view: &QueryView<'_>,
    source: SourceId,
    range: TimeRange,
    mut f: F,
) -> Result<QueryStats>
where
    F: FnMut(Record<'_>),
{
    let mut stats = QueryStats::default();
    let tsv = TsIndexView::new(&view.ts);

    // Start the chain walk at the first record after the range if the
    // timestamp index knows one; otherwise at the source's latest record.
    let start = match tsv.first_mark_after(source.0, range.end)? {
        Some(mark) => mark.target,
        None => view.source_last,
    };
    if start == NIL_ADDR {
        return Ok(stats);
    }

    let mut addr = start;
    let mut reader = ChainReader::new(view);
    loop {
        if addr < view.cold.pruned_below() {
            // The record was dropped by retention, and the chain walks
            // backward in time: everything it still points at is older
            // and dropped too.
            break;
        }
        let header = reader.header(addr)?;
        // The link is checked before anything else the header says is
        // trusted: a chain stays in its source and runs strictly
        // backward, which also bounds the walk.
        if header.source != source.0 || (header.prev != NIL_ADDR && header.prev >= addr) {
            return Err(LoomError::CorruptLog {
                log: LogId::Records,
                addr,
                reason: format!(
                    "record chain of source {} broken: source {}, prev {:#x}",
                    source.0, header.source, header.prev
                ),
            });
        }
        let payload = reader.payload(addr, &header)?;
        stats.records_scanned += 1;
        stats.bytes_read += RECORD_HEADER_SIZE as u64;
        if header.ts < range.start {
            // The chain is ordered by arrival time: everything earlier is
            // older still.
            break;
        }
        if header.ts <= range.end {
            stats.bytes_read += header.len as u64;
            stats.records_matched += 1;
            f(Record {
                addr,
                source,
                ts: header.ts,
                payload,
            });
        }
        if header.prev == NIL_ADDR {
            break;
        }
        addr = header.prev;
    }
    Ok(stats)
}
