//! The generated data set and the naive reference model every query
//! result is checked against: one flat record list, straight-line
//! filter / max / nearest-rank percentile. It shares no code with the
//! engine's indexes, summaries or extractors (values are decoded with
//! the `telemetry` record types).

use telemetry::{LatencyRecord, PacketRecord};

use crate::gen::{Kind, Stream, ANOMALY_MIN_NS, ANOMALY_OP, LATENCY_MEDIAN, STREAM_DT};

/// The five query classes of the read path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `Max` over the full window on the descriptor index: answered
    /// from chunk summaries alone.
    AggSummary,
    /// `Percentile(99.99)`: bins-as-CDF, then decode of the target bin.
    AggPctl,
    /// Indexed scan, half of the values, descriptor index (columnar).
    ScanWide,
    /// Indexed scan for the slowest ≈0.01 % on the closure index
    /// (record-at-a-time, summary skipping).
    ScanRare,
    /// Raw dump of the packet source over a 5 % time window.
    RawScan,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::AggSummary,
        Class::AggPctl,
        Class::ScanWide,
        Class::ScanRare,
        Class::RawScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::AggSummary => "agg_summary",
            Class::AggPctl => "agg_pctl",
            Class::ScanWide => "scan_wide",
            Class::ScanRare => "scan_rare",
            Class::RawScan => "raw_scan",
        }
    }
}

/// Percentile of the `agg_pctl` class.
pub const PCTL: f64 = 99.99;
/// Lower value bound of `scan_wide`: the latency median.
pub const WIDE_MIN: f64 = LATENCY_MEDIAN;
/// Lower value bound of `scan_rare`: exactly the injected anomalies lie
/// at or above it, and it is a boundary of the latency histogram, so
/// whole chunks are skipped from their summaries.
pub const RARE_MIN: f64 = ANOMALY_MIN_NS as f64;
/// The `op` the closure index keeps: half of the anomalies carry it, so
/// `scan_rare` returns 0.01 % of the app records.
pub const RARE_OP: u32 = ANOMALY_OP;

/// What a query returned, in a form that compares exactly: the bits of
/// an aggregate value, the match count, and an order-independent digest
/// of the matched records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Outcome {
    pub value_bits: Option<u64>,
    pub count: u64,
    pub digest: u64,
}

impl Outcome {
    /// One number for the whole outcome, recorded per run so that runs
    /// (hot against cold, seed against seed) can be compared by eye.
    pub fn fingerprint(&self) -> u64 {
        let mut h = loom::util::Fnv1a::new();
        h.write(&self.value_bits.unwrap_or(u64::MAX).to_le_bytes());
        h.write(&self.count.to_le_bytes());
        h.write(&self.digest.to_le_bytes());
        h.finish()
    }
}

/// Digest of one record: every payload byte and the timestamp enter it.
/// Scan callbacks sum it (wrapping) over the records they are handed,
/// which makes the sum a multiset hash.
#[inline]
pub fn record_digest(ts: u64, payload: &[u8]) -> u64 {
    let mut h = ts.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ payload.len() as u64;
    let mut words = payload.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(23);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[derive(Debug, Clone, Copy)]
struct Rec {
    kind: Kind,
    off: u32,
    len: u32,
}

/// The first `n` records of the standard stream for a seed, held as
/// bytes: the input of every library ingest and the oracle's only data.
pub struct Dataset {
    bytes: Vec<u8>,
    recs: Vec<Rec>,
    counts: [u64; 4],
}

impl Dataset {
    pub fn generate(seed: u64, n: u64) -> Dataset {
        let mut stream = Stream::new(seed);
        let mut bytes = Vec::with_capacity(n as usize * 80);
        let mut recs = Vec::with_capacity(n as usize);
        let mut counts = [0u64; 4];
        for _ in 0..n {
            let (kind, _, payload) = stream.next_record();
            recs.push(Rec {
                kind,
                off: bytes.len() as u32,
                len: payload.len() as u32,
            });
            bytes.extend_from_slice(payload);
            counts[kind.ordinal()] += 1;
        }
        Dataset {
            bytes,
            recs,
            counts,
        }
    }

    pub fn len(&self) -> u64 {
        self.recs.len() as u64
    }

    /// Record `i`: source kind, simulated arrival time, payload.
    #[inline]
    pub fn get(&self, i: usize) -> (Kind, u64, &[u8]) {
        let r = self.recs[i];
        let payload = &self.bytes[r.off as usize..(r.off + r.len) as usize];
        (r.kind, (i as u64 + 1) * STREAM_DT, payload)
    }

    /// Arrival time of the last record.
    pub fn end_ts(&self) -> u64 {
        self.len() * STREAM_DT
    }

    /// Records per source kind.
    pub fn count(&self, kind: Kind) -> u64 {
        self.counts[kind.ordinal()]
    }

    /// Sum of payload lengths: the "user bytes" of the space metric.
    pub fn payload_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// The time window a query class runs over: all of history, except
    /// `raw_scan`, which dumps a 5 % window in the middle of it.
    pub fn window(&self, class: Class) -> (u64, u64) {
        match class {
            Class::RawScan => (self.end_ts() / 100 * 60, self.end_ts() / 100 * 65),
            _ => (0, self.end_ts()),
        }
    }

    fn select(&self, kind: Kind, window: (u64, u64)) -> impl Iterator<Item = (u64, &[u8])> {
        (0..self.recs.len())
            .map(|i| self.get(i))
            .filter(move |(k, ts, _)| *k == kind && *ts >= window.0 && *ts <= window.1)
            .map(|(_, ts, p)| (ts, p))
    }

    /// The reference answer for `class`.
    pub fn expect(&self, class: Class) -> Outcome {
        let window = self.window(class);
        let latencies = || {
            self.select(Kind::App, window).map(|(ts, p)| {
                let r = LatencyRecord::decode(p).expect("generated app record decodes");
                (ts, p, r)
            })
        };
        match class {
            Class::AggSummary => {
                let mut max = f64::NEG_INFINITY;
                let mut count = 0;
                for (_, _, r) in latencies() {
                    max = max.max(r.latency_ns as f64);
                    count += 1;
                }
                Outcome {
                    value_bits: (count > 0).then(|| max.to_bits()),
                    count,
                    digest: 0,
                }
            }
            Class::AggPctl => {
                let mut values: Vec<f64> =
                    latencies().map(|(_, _, r)| r.latency_ns as f64).collect();
                values.sort_by(f64::total_cmp);
                Outcome {
                    value_bits: (!values.is_empty())
                        .then(|| crate::stats::percentile_sorted(&values, PCTL).to_bits()),
                    count: values.len() as u64,
                    digest: 0,
                }
            }
            Class::ScanWide | Class::ScanRare => {
                let mut out = Outcome::default();
                for (ts, p, r) in latencies() {
                    let v = r.latency_ns as f64;
                    let hit = match class {
                        Class::ScanWide => v >= WIDE_MIN,
                        _ => r.op == RARE_OP && v >= RARE_MIN,
                    };
                    if hit {
                        out.count += 1;
                        out.digest = out.digest.wrapping_add(record_digest(ts, p));
                    }
                }
                out
            }
            Class::RawScan => {
                let mut out = Outcome::default();
                for (ts, p) in self.select(Kind::Packet, window) {
                    debug_assert!(PacketRecord::decode(p).is_some());
                    out.count += 1;
                    out.digest = out.digest.wrapping_add(record_digest(ts, p));
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_every_byte_and_the_timestamp() {
        let p = [7u8; 53];
        let base = record_digest(5, &p);
        assert_ne!(base, record_digest(6, &p));
        for i in [0, 8, 47, 48, 52] {
            let mut q = p;
            q[i] ^= 1;
            assert_ne!(base, record_digest(5, &q), "byte {i}");
        }
        assert_ne!(base, record_digest(5, &p[..52]));
    }

    #[test]
    fn classes_select_what_their_names_say() {
        let d = Dataset::generate(0x100F, 80_000);
        let n_app = d.count(Kind::App);
        assert_eq!(n_app, 50_000);
        assert_eq!(d.expect(Class::AggSummary).count, n_app);
        assert_eq!(d.expect(Class::AggPctl).count, n_app);
        let wide = d.expect(Class::ScanWide).count as f64 / n_app as f64;
        assert!((0.47..0.53).contains(&wide), "scan_wide selectivity {wide}");
        // 10 anomalies in 50k app records, every second one with op 0.
        assert_eq!(d.expect(Class::ScanRare).count, 5);
        let raw = d.expect(Class::RawScan).count as f64 / d.count(Kind::Packet) as f64;
        assert!((0.045..0.055).contains(&raw), "raw_scan window share {raw}");
        // The percentile is a member of the sample at or below the max.
        let max = f64::from_bits(d.expect(Class::AggSummary).value_bits.unwrap());
        let p = f64::from_bits(d.expect(Class::AggPctl).value_bits.unwrap());
        assert!(p <= max && p >= RARE_MIN);
    }
}
