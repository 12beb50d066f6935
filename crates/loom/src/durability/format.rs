//! On-disk format primitives shared by every durable structure: the
//! CRC32 checksum, log identifiers for corruption reports, the framed
//! record layout used by the manifest and the chunk index, and the
//! versioned superblock that makes a Loom data directory self-describing.
//!
//! Every entry Loom persists — record-log entries, timestamp-index
//! entries, chunk summaries, manifest records — carries a CRC32 over its
//! contents, so a torn tail or a flipped bit is *detected* during
//! recovery or reads instead of being mis-parsed as data.

use std::io::Read;
use std::path::Path;

use crate::config::Config;
use crate::error::{LoomError, Result};

/// On-disk format version stamped into the superblock. Bumped whenever
/// any persisted encoding changes incompatibly.
///
/// Version 2 added the shard count to the superblock fingerprint.
pub const FORMAT_VERSION: u32 = 2;

/// Magic bytes opening the superblock file.
pub const SUPERBLOCK_MAGIC: &[u8; 8] = b"LOOMSUP\x01";

/// File name of the superblock inside a data directory.
pub const SUPERBLOCK_FILE: &str = "loom.super";

/// File name of the manifest log inside a data directory.
pub const MANIFEST_FILE: &str = "manifest.log";

/// Identifies which durable structure an error or report refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogId {
    /// The record log (`records.log`).
    Records,
    /// The chunk index (`chunks.log`).
    Chunks,
    /// The timestamp index (`ts.log`).
    Ts,
    /// The schema/lifecycle manifest (`manifest.log`).
    Manifest,
    /// The superblock (`loom.super`).
    Superblock,
    /// A compressed cold-tier segment (`cold/<slice>/seg-N.seg`).
    ColdSegment,
}

impl LogId {
    /// The file name this log uses inside the data directory.
    pub fn file_name(&self) -> &'static str {
        match self {
            LogId::Records => "records.log",
            LogId::Chunks => "chunks.log",
            LogId::Ts => "ts.log",
            LogId::Manifest => MANIFEST_FILE,
            LogId::Superblock => SUPERBLOCK_FILE,
            LogId::ColdSegment => "cold segment",
        }
    }
}

impl std::fmt::Display for LogId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.file_name())
    }
}

/// CRC32 (IEEE 802.3, reflected) slice-by-8 lookup tables, built at
/// compile time.
///
/// `CRC32_TABLES[0]` is the classic byte-at-a-time table; table `k`
/// maps a byte to its CRC contribution from `k` positions further back,
/// so eight table lookups retire eight input bytes per iteration. Every
/// table is derived from the same polynomial, so the computed function —
/// and therefore every checksum already on disk — is unchanged.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Folds `bytes` into the CRC register `state` eight bytes per step
/// through the [`CRC32_TABLES`], then byte by byte.
fn slice_by_8(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let (words, rest) = bytes.as_chunks::<8>();
    for word in words {
        let word = u64::from_le_bytes(*word);
        let lo = state ^ (word as u32);
        let hi = (word >> 32) as u32;
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in rest {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// The carry-less-multiply CRC32 kernel (x86_64 PCLMULQDQ): the same
/// function as [`slice_by_8`], at memory speed on long inputs.
///
/// The input is folded 64 bytes per step into four 128-bit lanes
/// (fold-by-4), the lanes are folded into one, the remaining 16-byte
/// blocks are folded into that (fold-by-1), and a Barrett reduction
/// takes the 128-bit remainder down to the 32-bit register. Of the
/// under-16 trailing bytes, an 8-byte word still folds into the lane and
/// the rest finish on slice-by-8. The constants are the standard
/// ones for the bit-reflected IEEE polynomial: each `K` is a power of
/// `x` modulo `P(x)`, bit-reflected, and `MU` is `floor(x^64 / P(x))`
/// (Gopal et al., *Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ*, Intel 2009).
///
/// [`update`] takes one buffer; [`update_pair`] takes a record's header
/// prefix and payload where they lie, without copying them together.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadl_epi64, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128,
        _mm_unpacklo_epi64, _mm_xor_si128,
    };

    /// Shortest single buffer [`update`] takes: one fold-by-4 block. At
    /// 64 B it already takes 15 ns against slice-by-8's 50 ns (Xeon, 2
    /// vCPUs); below, a block has to be assembled from pieces first.
    pub(super) const MIN_LEN: usize = 64;

    /// `x^(4·128+32)` and `x^(4·128−32)` mod `P`: folds a lane 512 bits on.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32)` and `x^(128−32)` mod `P`: folds a lane 128 bits on.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64` mod `P`: the 96 → 64-bit step.
    const K5: i64 = 0x1_63cd_6124;
    /// `P(x)` and `MU = floor(x^64 / P(x))`, both bit-reflected.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU has the instruction (cached by `std` after the
    /// first query).
    #[inline]
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `word` in a lane's low half, the high half zero.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load_word(word: &[u8; 8]) -> __m128i {
        // SAFETY: `word` is 8 readable bytes, and `loadl` reads exactly 8
        // bytes with no alignment requirement.
        unsafe { _mm_loadl_epi64(word.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn lanes(quad: &[u8; 64]) -> [__m128i; 4] {
        let (b, _) = quad.as_chunks::<16>();
        [load(&b[0]), load(&b[1]), load(&b[2]), load(&b[3])]
    }

    /// `lane` with the CRC register `state` added to its first 32 bits:
    /// the first lane of a message.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn seed(lane: __m128i, state: u32) -> __m128i {
        _mm_xor_si128(lane, _mm_cvtsi32_si128(state as i32))
    }

    /// Folds lane `a` forward by the distance `k` encodes and adds `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, k);
        let hi = _mm_clmulepi64_si128::<0x11>(a, k);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Folds `quads` into the four lanes `x` (fold-by-4), then the lanes
    /// into one.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_quads(mut x: [__m128i; 4], quads: &[[u8; 64]]) -> __m128i {
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            let y = lanes(quad);
            for i in 0..4 {
                x[i] = fold(x[i], y[i], k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4)
    }

    /// Folds `rest` onto `acc`, the unreduced remainder of everything
    /// before it: its 16-byte blocks one by one (fold-by-1) and an 8-byte
    /// word after them, then 128 → 96 → 64 bits and Barrett down to the
    /// 32-bit register, then its last under-8 bytes on slice-by-8.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn finish(mut acc: __m128i, rest: &[u8]) -> u32 {
        let k3k4 = _mm_set_epi64x(K4, K3);
        let (blocks, tail) = rest.as_chunks::<16>();
        for block in blocks {
            acc = fold(acc, load(block), k3k4);
        }
        // An 8-byte word of the tail shifts into the lane: `acc`'s high
        // half and the word form the last lane, and its low half, now 8
        // bytes before that lane, folds onto it.
        let tail = match tail.split_first_chunk::<8>() {
            Some((word, tail)) => {
                acc = _mm_xor_si128(
                    _mm_unpacklo_epi64(_mm_srli_si128::<8>(acc), load_word(word)),
                    _mm_clmulepi64_si128::<0x10>(acc, k3k4),
                );
                tail
            }
            None => tail,
        };
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
            _mm_srli_si128::<8>(acc),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        let state = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(acc, t2))) as u32;
        super::slice_by_8(state, tail)
    }

    /// Folds `bytes` into the CRC register `state`.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(state: u32, bytes: &[u8]) -> u32 {
        let (quads, rest) = bytes.as_chunks::<64>();
        let Some((first, quads)) = quads.split_first() else {
            return super::slice_by_8(state, bytes);
        };
        let mut x = lanes(first);
        x[0] = seed(x[0], state);
        finish(fold_quads(x, quads), rest)
    }

    /// Folds `head ++ body` into the CRC register `state` without joining
    /// them: `head`'s whole lanes, then the lane that straddles the two
    /// (`head`'s last 8 bytes and `body`'s first 8), then `body` from
    /// byte 8 on as [`update`] folds a buffer.
    ///
    /// Takes the record layout, `head.len() % 16 == 8` (the 24-byte
    /// header prefix) and `body.len() >= 8`; any other split falls back
    /// to [`update`] on each piece.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update_pair(state: u32, head: &[u8], body: &[u8]) -> u32 {
        let (head_lanes, head_last) = head.as_chunks::<16>();
        let (Ok(head_last), Some((body_first, body))) = (
            <&[u8; 8]>::try_from(head_last),
            body.split_first_chunk::<8>(),
        ) else {
            return update(update(state, head), body);
        };
        let k3k4 = _mm_set_epi64x(K4, K3);
        let straddle = _mm_unpacklo_epi64(load_word(head_last), load_word(body_first));
        let mut acc = match head_lanes.split_first() {
            Some((first, rest)) => {
                let mut acc = seed(load(first), state);
                for lane in rest {
                    acc = fold(acc, load(lane), k3k4);
                }
                fold(acc, straddle, k3k4)
            }
            None => seed(straddle, state),
        };
        let (quads, rest) = body.as_chunks::<64>();
        if let Some((first, quads)) = quads.split_first() {
            let mut x = lanes(first);
            x[0] = fold(acc, x[0], k3k4);
            acc = fold_quads(x, quads);
        }
        finish(acc, rest)
    }
}

/// Incremental CRC32 (IEEE) hasher, for checksums spanning several
/// buffers (e.g., a record header plus its separately stored payload).
///
/// Two kernels compute the one function, so every checksum on disk is
/// the same whichever ran:
///
/// - **carry-less multiply** for a buffer of 64 B or more on an x86_64
///   CPU with PCLMULQDQ (detected at run time): 64 bytes per fold step,
///   an order of magnitude faster than the tables on a cold frame, a
///   `raw_crc` or a summary, manifest or net frame. Record checksums
///   reach it through [`crc32_pair`], which folds the 24 B header prefix
///   and the payload where they lie (a 76 B entry: ~35 → ~10 ns, Xeon);
/// - **slice-by-8** for every other buffer under 64 B (timestamp
///   entries, short frames), for a record whose payload is under 8 B,
///   for the last under-8 bytes the other kernel leaves, and on every
///   other target: eight bytes per step through eight
///   lookup tables, 4–6× the classic byte-at-a-time loop on short
///   inputs.
///
/// Either can carry state into the other, so `update` may be fed a short
/// header and then a long payload.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(mut self, bytes: &[u8]) -> Self {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= clmul::MIN_LEN && clmul::available() {
            // SAFETY: the CPU supports PCLMULQDQ, checked just above.
            self.state = unsafe { clmul::update(self.state, bytes) };
            return self;
        }
        self.state = slice_by_8(self.state, bytes);
        self
    }

    /// Finalizes and returns the checksum value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC32 of one contiguous buffer (the [`Crc32`] kernels: carry-less
/// multiply from 64 B where the CPU has it, slice-by-8 otherwise).
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

/// CRC32 of two logically contiguous buffers (header ++ payload).
///
/// The record layout — `head.len() % 16 == 8` (the 24-byte header
/// prefix) and `body.len() >= 8` — runs the carry-less-multiply kernel
/// on the two pieces where they lie, one 16-byte lane straddling them;
/// every other split runs [`Crc32::update`] on each piece. Either way
/// the value is the CRC32 of the concatenation.
pub fn crc32_pair(head: &[u8], body: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if head.len() % 16 == 8 && body.len() >= 8 && clmul::available() {
        // SAFETY: the CPU supports PCLMULQDQ, checked just above.
        return !unsafe { clmul::update_pair(!0, head, body) };
    }
    Crc32::new().update(head).update(body).finish()
}

/// The superblock: a tiny fixed-size file written once when a data
/// directory is created. It records the format version and the
/// configuration fingerprint — every parameter that shapes the on-disk
/// layout — so a reopen can refuse a mismatched [`Config`] instead of
/// mis-parsing the logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// On-disk format version ([`FORMAT_VERSION`] for new directories).
    pub format_version: u32,
    /// Record-log staging-block size.
    pub block_size: u64,
    /// Chunk-index staging-block size.
    pub index_block_size: u64,
    /// Timestamp-index staging-block size.
    pub ts_block_size: u64,
    /// Record-log chunk size (the unit of sparse indexing).
    pub chunk_size: u64,
    /// Timestamp-mark period.
    pub ts_mark_period: u64,
    /// Number of engine shards this directory is partitioned into
    /// (`1` = the flat single-funnel layout, all logs directly in the
    /// directory; `N > 1` = `shard-0 .. shard-N-1` subdirectories).
    pub shards: u64,
}

/// Encoded size: magic (8) + version (4) + six u64 fields + crc (4).
const SUPERBLOCK_SIZE: usize = 8 + 4 + 6 * 8 + 4;

impl Superblock {
    /// The superblock a fresh directory created with `config` gets.
    pub fn of(config: &Config) -> Self {
        Superblock {
            format_version: FORMAT_VERSION,
            block_size: config.block_size as u64,
            index_block_size: config.index_block_size as u64,
            ts_block_size: config.ts_block_size as u64,
            chunk_size: config.chunk_size as u64,
            ts_mark_period: config.ts_mark_period,
            shards: config.shards as u64,
        }
    }

    /// Encodes the superblock into its fixed-size on-disk form.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(SUPERBLOCK_SIZE);
        buf.extend_from_slice(SUPERBLOCK_MAGIC);
        buf.extend_from_slice(&self.format_version.to_le_bytes());
        buf.extend_from_slice(&self.block_size.to_le_bytes());
        buf.extend_from_slice(&self.index_block_size.to_le_bytes());
        buf.extend_from_slice(&self.ts_block_size.to_le_bytes());
        buf.extend_from_slice(&self.chunk_size.to_le_bytes());
        buf.extend_from_slice(&self.ts_mark_period.to_le_bytes());
        buf.extend_from_slice(&self.shards.to_le_bytes());
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes and verifies a superblock.
    pub fn decode(bytes: &[u8]) -> Result<Superblock> {
        let corrupt = |reason: &str| LoomError::CorruptLog {
            log: LogId::Superblock,
            addr: 0,
            reason: reason.to_string(),
        };
        if bytes.len() < SUPERBLOCK_SIZE {
            return Err(corrupt(&format!(
                "superblock truncated: {} of {} bytes",
                bytes.len(),
                SUPERBLOCK_SIZE
            )));
        }
        if &bytes[0..8] != SUPERBLOCK_MAGIC {
            return Err(corrupt("bad superblock magic"));
        }
        let body = &bytes[..SUPERBLOCK_SIZE - 4];
        let stored = u32::from_le_bytes(
            bytes[SUPERBLOCK_SIZE - 4..SUPERBLOCK_SIZE]
                .try_into()
                .expect("len 4"),
        );
        if crc32(body) != stored {
            return Err(corrupt("superblock checksum mismatch"));
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("len 4"));
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("len 8"));
        let sb = Superblock {
            format_version: u32_at(8),
            block_size: u64_at(12),
            index_block_size: u64_at(20),
            ts_block_size: u64_at(28),
            chunk_size: u64_at(36),
            ts_mark_period: u64_at(44),
            shards: u64_at(52),
        };
        if sb.format_version != FORMAT_VERSION {
            return Err(corrupt(&format!(
                "unsupported format version {} (this build reads {})",
                sb.format_version, FORMAT_VERSION
            )));
        }
        Ok(sb)
    }

    /// Writes the superblock to `dir/loom.super` and syncs it.
    pub fn write_to(&self, dir: &Path) -> Result<()> {
        let path = dir.join(SUPERBLOCK_FILE);
        let bytes = self.encode();
        if let Some(k) = crate::fault::check(crate::fault::SUPERBLOCK_WRITE, "") {
            return Err(crate::error::LoomError::Io(k.to_io_error()));
        }
        let mut f = std::fs::File::create(&path)?;
        std::io::Write::write_all(&mut f, &bytes)?;
        f.sync_all()?;
        Ok(())
    }

    /// Reads and verifies the superblock from `dir/loom.super`.
    pub fn read_from(dir: &Path) -> Result<Superblock> {
        let mut f = std::fs::File::open(dir.join(SUPERBLOCK_FILE))?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        Self::decode(&bytes)
    }

    /// Validates that `config` matches the layout this directory was
    /// created with. A mismatch (e.g., a different chunk size) would make
    /// every address computation wrong, so reopen refuses it.
    pub fn check_config(&self, config: &Config) -> Result<()> {
        let mismatch = |field: &str, disk: u64, cfg: u64| {
            Err(LoomError::InvalidConfig(format!(
                "config does not match existing data directory: \
                 {field} is {cfg} but the directory was created with {disk}"
            )))
        };
        if self.block_size != config.block_size as u64 {
            return mismatch("block_size", self.block_size, config.block_size as u64);
        }
        if self.index_block_size != config.index_block_size as u64 {
            return mismatch(
                "index_block_size",
                self.index_block_size,
                config.index_block_size as u64,
            );
        }
        if self.ts_block_size != config.ts_block_size as u64 {
            return mismatch(
                "ts_block_size",
                self.ts_block_size,
                config.ts_block_size as u64,
            );
        }
        if self.chunk_size != config.chunk_size as u64 {
            return mismatch("chunk_size", self.chunk_size, config.chunk_size as u64);
        }
        if self.ts_mark_period != config.ts_mark_period {
            return mismatch("ts_mark_period", self.ts_mark_period, config.ts_mark_period);
        }
        if self.shards != config.shards as u64 {
            // A dedicated typed error: unlike the layout parameters above
            // this is the mismatch an operator is most likely to hit (a
            // resharding attempt on an existing directory), and callers
            // want to distinguish it.
            return Err(LoomError::ShardMismatch {
                on_disk: self.shards,
                requested: config.shards as u64,
            });
        }
        Ok(())
    }
}

/// Appends one `[len][crc][body]` frame to `out` (the layout used by the
/// manifest and, with the same header shape, the chunk index).
pub fn write_frame(out: &mut Vec<u8>, body: &[u8]) {
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
}

/// Size of a frame header: a u32 length plus a u32 CRC.
pub const FRAME_HEADER_SIZE: usize = 8;

/// Upper bound on a single frame body. Anything larger is treated as a
/// corrupt length prefix rather than attempted as an allocation.
pub const MAX_FRAME_LEN: u64 = 1 << 24;

/// Reads the frame starting at `pos` in `bytes`, verifying its checksum.
///
/// Returns `Ok(None)` when fewer than a whole frame remains (a torn
/// tail), and an error when the frame is present but invalid.
pub fn read_frame(bytes: &[u8], pos: usize, log: LogId) -> Result<Option<(&[u8], usize)>> {
    if pos + FRAME_HEADER_SIZE > bytes.len() {
        return Ok(None);
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("len 4")) as u64;
    if len > MAX_FRAME_LEN {
        return Err(LoomError::CorruptLog {
            log,
            addr: pos as u64,
            reason: format!("frame length {len} exceeds maximum {MAX_FRAME_LEN}"),
        });
    }
    let body_start = pos + FRAME_HEADER_SIZE;
    let body_end = body_start + len as usize;
    if body_end > bytes.len() {
        return Ok(None);
    }
    let stored = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("len 4"));
    let body = &bytes[body_start..body_end];
    if crc32(body) != stored {
        return Err(LoomError::CorruptLog {
            log,
            addr: pos as u64,
            reason: "frame checksum mismatch".into(),
        });
    }
    Ok(Some((body, body_end)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_pair_equals_concatenation() {
        let a = b"hello ";
        let b = b"world";
        assert_eq!(crc32_pair(a, b), crc32(b"hello world"));
    }

    /// The classic byte-at-a-time loop every kernel must agree with.
    fn bytewise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state = (state >> 8) ^ CRC32_TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        state
    }

    /// Pseudo-random test bytes.
    fn test_bytes(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    /// Every kernel must compute the identical function as the classic
    /// byte-at-a-time loop: for every input length (word, block and
    /// fold-step remainders), a long buffer, every start offset (load
    /// alignment), and every split point across an incremental `update`
    /// boundary (carried state enters a kernel mid-stream, including a
    /// 24 B header's state entering a folded payload). Both kernels are
    /// called directly, so a host with PCLMULQDQ checks both.
    #[test]
    fn crc32_slice_by_8_matches_bytewise_reference() {
        fn reference(bytes: &[u8]) -> u32 {
            !bytewise(!0, bytes)
        }
        type Kernel = fn(u32, &[u8]) -> u32;
        #[allow(unused_mut)] // Only x86_64 has a second kernel.
        let mut kernels: Vec<(&str, Kernel)> = vec![("slice-by-8", slice_by_8)];
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            // SAFETY: the CPU supports PCLMULQDQ, checked just above.
            kernels.push(("clmul", |s, b| unsafe { clmul::update(s, b) }));
        }
        let data = test_bytes(64 * 1024 + 7 + 16);
        let check = |bytes: &[u8], what: &str| {
            let want = reference(bytes);
            assert_eq!(crc32(bytes), want, "crc32, {what}");
            for (name, kernel) in &kernels {
                assert_eq!(!kernel(!0, bytes), want, "{name}, {what}");
            }
        };
        for len in 0..=4096 {
            check(&data[..len], &format!("len {len}"));
        }
        for start in 0..16 {
            check(
                &data[start..start + 64 * 1024 + 7],
                &format!("64 KiB+7 at {start}"),
            );
        }
        let whole = &data[..1024];
        let want = reference(whole);
        for split in 0..whole.len() {
            let (a, b) = whole.split_at(split);
            assert_eq!(crc32_pair(a, b), want, "split {split}");
            for (name, kernel) in &kernels {
                assert_eq!(!kernel(kernel(!0, a), b), want, "{name}, split {split}");
            }
        }
    }

    /// `crc32_pair`'s two-piece kernel computes the CRC32 of the
    /// concatenation for a record's 24 B header prefix and every payload
    /// length (the straddling lane, fold-by-1 and fold-by-4 remainders, a
    /// payload under 8 B that falls back), a long payload, and every
    /// payload start offset (load alignment); and every other head length
    /// (whole lanes before the straddle at 8 and 40 B, the fallback
    /// otherwise) is the same function. The kernel is also called
    /// directly, so a host with PCLMULQDQ checks it beside the dispatch.
    #[test]
    fn crc32_pair_matches_bytewise_reference() {
        type Pair = fn(&[u8], &[u8]) -> u32;
        #[allow(unused_mut)] // Only x86_64 has a two-piece kernel.
        let mut kernels: Vec<(&str, Pair)> = vec![("crc32_pair", crc32_pair)];
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            // SAFETY: the CPU supports PCLMULQDQ, checked just above.
            kernels.push(("clmul pair", |h, b| !unsafe {
                clmul::update_pair(!0, h, b)
            }));
        }
        let data = test_bytes(64 * 1024 + 7 + 16 + 48);
        let (heads, payloads) = data.split_at(48);
        let head = &heads[..24];
        for start in 0..16 {
            let payload = &payloads[start..];
            let mut want = bytewise(!0, head);
            for len in 0..=4096 {
                for (name, kernel) in &kernels {
                    assert_eq!(
                        kernel(head, &payload[..len]),
                        !want,
                        "{name}: 24 B head, {len} B payload at {start}"
                    );
                }
                want = bytewise(want, &payload[len..len + 1]);
            }
            let long = &payload[..64 * 1024 + 7];
            let want = !bytewise(bytewise(!0, head), long);
            for (name, kernel) in &kernels {
                assert_eq!(
                    kernel(head, long),
                    want,
                    "{name}: 24 B head, 64 KiB+7 payload at {start}"
                );
            }
        }
        for head_len in 0..=48 {
            let head = &heads[..head_len];
            let mut want = bytewise(!0, head);
            for len in 0..=300 {
                for (name, kernel) in &kernels {
                    assert_eq!(
                        kernel(head, &payloads[..len]),
                        !want,
                        "{name}: {head_len} B head, {len} B payload"
                    );
                }
                want = bytewise(want, &payloads[len..len + 1]);
            }
        }
    }

    #[test]
    fn superblock_round_trips() {
        let cfg = Config::small("/tmp/unused");
        let sb = Superblock::of(&cfg);
        let decoded = Superblock::decode(&sb.encode()).unwrap();
        assert_eq!(decoded, sb);
        assert!(decoded.check_config(&cfg).is_ok());
    }

    #[test]
    fn superblock_rejects_corruption_and_mismatch() {
        let cfg = Config::small("/tmp/unused");
        let sb = Superblock::of(&cfg);
        let mut bytes = sb.encode();
        bytes[10] ^= 0xFF;
        assert!(matches!(
            Superblock::decode(&bytes),
            Err(LoomError::CorruptLog {
                log: LogId::Superblock,
                ..
            })
        ));
        assert!(Superblock::decode(&bytes[..10]).is_err());

        let mut other = cfg.clone();
        other.chunk_size *= 2;
        assert!(matches!(
            sb.check_config(&other),
            Err(LoomError::InvalidConfig(_))
        ));

        let mut resharded = cfg.clone();
        resharded.shards = cfg.shards + 3;
        assert!(matches!(
            sb.check_config(&resharded),
            Err(LoomError::ShardMismatch { .. })
        ));
    }

    #[test]
    fn frames_round_trip_and_detect_corruption() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first");
        write_frame(&mut buf, b"second record");
        let (body, next) = read_frame(&buf, 0, LogId::Manifest).unwrap().unwrap();
        assert_eq!(body, b"first");
        let (body2, next2) = read_frame(&buf, next, LogId::Manifest).unwrap().unwrap();
        assert_eq!(body2, b"second record");
        assert_eq!(next2, buf.len());
        // Torn tail: a partial frame reads as None.
        assert!(read_frame(&buf[..next + 3], next, LogId::Manifest)
            .unwrap()
            .is_none());
        // Flipped body byte: checksum error.
        let mut bad = buf.clone();
        bad[FRAME_HEADER_SIZE + 1] ^= 0x01;
        assert!(matches!(
            read_frame(&bad, 0, LogId::Manifest),
            Err(LoomError::CorruptLog { .. })
        ));
        // Nonsense length prefix: rejected before any allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&[0u8; 12]);
        assert!(matches!(
            read_frame(&huge, 0, LogId::Manifest),
            Err(LoomError::CorruptLog { .. })
        ));
    }
}
