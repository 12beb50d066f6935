//! Durable on-disk format and crash recovery.
//!
//! This layer makes a Loom data directory self-describing and reopenable:
//!
//! - [`mod@format`] — the versioned superblock, CRC32 checksums, and the
//!   length+checksum framing shared by the manifest and summary log.
//! - [`manifest`] — the append-only schema/lifecycle journal: source and
//!   index definitions, reopen markers, and clean-shutdown records.
//! - [`shutdown`] — the [`CleanShutdown`] state written by a graceful
//!   close, enabling the scan-free fast reopen path.
//! - [`recovery`] — the dirty-reopen scan: truncates torn log tails at
//!   the first bad checksum and reconciles the three logs against each
//!   other so queries over flushed data behave exactly as before the
//!   crash.

pub mod format;
pub mod manifest;
pub mod recovery;
pub mod shutdown;

pub use format::{
    crc32, crc32_pair, read_frame, write_frame, Crc32, LogId, Superblock, FORMAT_VERSION,
    FRAME_HEADER_SIZE, MANIFEST_FILE, MAX_FRAME_LEN, SUPERBLOCK_FILE,
};
pub use manifest::{AgedChunk, Manifest, ManifestRecord};
pub use recovery::{
    load_summaries, recover_dirty, recover_dirty_with_cold, RecoveredState, RecoveryReport,
    SourceState, TailTruncation,
};
pub use shutdown::{CleanShutdown, SourceTail};
