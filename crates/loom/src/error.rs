//! Error types for the Loom library.

use std::fmt;
use std::io;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LoomError>;

/// Errors returned by Loom operations.
#[derive(Debug)]
pub enum LoomError {
    /// An I/O error from the underlying persistent storage.
    Io(io::Error),
    /// The configuration is invalid (e.g., chunk size does not divide block size).
    InvalidConfig(String),
    /// The given source ID is not registered.
    UnknownSource(u32),
    /// The given index ID is not registered.
    UnknownIndex(u32),
    /// The source has been closed and no longer accepts records.
    SourceClosed(u32),
    /// The index is defined over a different source than the one queried.
    IndexSourceMismatch {
        /// Index that was used.
        index: u32,
        /// Source the index is attached to.
        expected_source: u32,
        /// Source the caller passed.
        got_source: u32,
    },
    /// The record payload is too large to fit in a single chunk.
    RecordTooLarge {
        /// Payload size the caller attempted to write.
        size: usize,
        /// Maximum payload size permitted by the configuration.
        max: usize,
    },
    /// An extractor descriptor reads a field that ends past the largest
    /// payload the configuration can store, so it could never extract a
    /// value from any record.
    ExtractorOutOfBounds {
        /// Byte offset the descriptor reads at.
        offset: u32,
        /// Width of the field in bytes.
        width: u32,
        /// Largest payload a record can carry
        /// ([`Config::max_record_payload`](crate::Config::max_record_payload)).
        max_payload: usize,
    },
    /// The index was defined with a closure extractor
    /// ([`Loom::define_index`](crate::Loom::define_index)) and the engine
    /// has been reopened since: closures are not persisted, so the
    /// index's values can no longer be extracted and queries on it are
    /// refused. Define indexes that must survive a reopen with
    /// [`Loom::define_index_desc`](crate::Loom::define_index_desc).
    ExtractorLost {
        /// The index whose extractor did not survive the reopen.
        index: u32,
    },
    /// A histogram definition is invalid (e.g., unsorted or empty boundaries).
    InvalidHistogram(String),
    /// The requested address lies beyond the end of the log.
    AddressOutOfBounds {
        /// Address that was requested.
        addr: u64,
        /// Current log tail.
        tail: u64,
    },
    /// The ingest side of the log has shut down.
    ShutDown,
    /// The instance is in degraded read-only mode: persistent I/O failed
    /// beyond the retry budget (see
    /// [`Config::io_retry`](crate::Config::io_retry)), so new pushes are
    /// rejected while already-flushed data stays queryable.
    Degraded {
        /// Why the engine went read-only (e.g. the failing file and
        /// underlying I/O error).
        reason: String,
    },
    /// Ingest was rejected by the
    /// [`OverloadPolicy::ErrorFast`](crate::OverloadPolicy::ErrorFast)
    /// backpressure policy: admitting the record would have blocked on
    /// the flusher. The record was not written; retrying later succeeds
    /// once the flusher catches up.
    Overloaded,
    /// An internal invariant was violated — a bug in Loom, not in the
    /// caller. Please report it.
    Internal(String),
    /// A corrupt or truncated entry was encountered while reading a log.
    Corrupt(String),
    /// A checksum or framing violation in a specific durable log.
    ///
    /// Reported by decode paths that know which file and address the bad
    /// entry lives at; recovery turns these into tail truncations.
    CorruptLog {
        /// Which durable structure the corruption was found in.
        log: crate::durability::LogId,
        /// Byte address of the bad entry within that log.
        addr: u64,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// An invalid query parameter (e.g., a percentile outside `[0, 100]`).
    InvalidQuery(String),
    /// The configured shard count does not match the one the data
    /// directory was created with. Shard routing is a pure function of
    /// `hash(source) % shards`, so opening a directory with a different
    /// shard count would route every source to the wrong shard's logs;
    /// reopen refuses instead.
    ShardMismatch {
        /// Shard count recorded in the directory's root superblock.
        on_disk: u64,
        /// Shard count the caller's [`Config`](crate::Config) requested.
        requested: u64,
    },
}

impl fmt::Display for LoomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoomError::Io(e) => write!(f, "I/O error: {e}"),
            LoomError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            LoomError::UnknownSource(id) => write!(f, "unknown source id {id}"),
            LoomError::UnknownIndex(id) => write!(f, "unknown index id {id}"),
            LoomError::SourceClosed(id) => write!(f, "source {id} is closed"),
            LoomError::IndexSourceMismatch {
                index,
                expected_source,
                got_source,
            } => write!(
                f,
                "index {index} is defined over source {expected_source}, not source {got_source}"
            ),
            LoomError::RecordTooLarge { size, max } => {
                write!(f, "record of {size} bytes exceeds maximum of {max} bytes")
            }
            LoomError::ExtractorOutOfBounds {
                offset,
                width,
                max_payload,
            } => write!(
                f,
                "extractor field of {width} bytes at offset {offset} ends past the \
                 maximum record payload of {max_payload} bytes"
            ),
            LoomError::ExtractorLost { index } => write!(
                f,
                "index {index} was defined with a closure extractor, which a reopen cannot \
                 restore; redefine it with define_index_desc to query it"
            ),
            LoomError::InvalidHistogram(msg) => write!(f, "invalid histogram: {msg}"),
            LoomError::AddressOutOfBounds { addr, tail } => {
                write!(f, "address {addr} is beyond log tail {tail}")
            }
            LoomError::ShutDown => write!(f, "log has been shut down"),
            LoomError::Degraded { reason } => {
                write!(f, "engine is in degraded read-only mode: {reason}")
            }
            LoomError::Overloaded => write!(
                f,
                "ingest rejected: flusher backpressure (ErrorFast overload policy)"
            ),
            LoomError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
            LoomError::Corrupt(msg) => write!(f, "corrupt log entry: {msg}"),
            LoomError::CorruptLog { log, addr, reason } => {
                write!(f, "corrupt entry in {log} at address {addr}: {reason}")
            }
            LoomError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            LoomError::ShardMismatch { on_disk, requested } => write!(
                f,
                "config requests {requested} shard(s) but the data directory was created \
                 with {on_disk}; shard routing would misplace every source"
            ),
        }
    }
}

impl std::error::Error for LoomError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoomError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LoomError {
    fn from(e: io::Error) -> Self {
        LoomError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = LoomError::RecordTooLarge {
            size: 70000,
            max: 65512,
        };
        assert!(e.to_string().contains("70000"));
        assert!(e.to_string().contains("65512"));

        let e = LoomError::UnknownSource(7);
        assert!(e.to_string().contains('7'));

        let e = LoomError::IndexSourceMismatch {
            index: 3,
            expected_source: 1,
            got_source: 2,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('1') && s.contains('2'));
    }

    #[test]
    fn corrupt_log_names_file_address_and_reason() {
        let e = LoomError::CorruptLog {
            log: crate::durability::LogId::Records,
            addr: 4096,
            reason: "record checksum mismatch".into(),
        };
        let s = e.to_string();
        assert!(s.contains("records.log"), "{s}");
        assert!(s.contains("4096"), "{s}");
        assert!(s.contains("checksum"), "{s}");
    }

    #[test]
    fn degraded_and_overloaded_are_descriptive() {
        let e = LoomError::Degraded {
            reason: "records.log: ENOSPC".into(),
        };
        let s = e.to_string();
        assert!(s.contains("read-only"), "{s}");
        assert!(s.contains("ENOSPC"), "{s}");
        assert!(LoomError::Overloaded.to_string().contains("backpressure"));
        assert!(LoomError::Internal("oops".into())
            .to_string()
            .contains("oops"));
    }

    #[test]
    fn io_error_round_trips_through_source() {
        let e: LoomError = io::Error::other("boom").into();
        assert!(matches!(e, LoomError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
