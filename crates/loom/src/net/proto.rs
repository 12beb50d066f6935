//! Message vocabulary of the Loom wire protocol.
//!
//! Each [`Message`] encodes to a `(frame_type, body)` pair carried by
//! the framing layer ([`super::frame`]). All integers are little-endian;
//! strings are a `u16` length followed by UTF-8 bytes. The protocol is
//! versioned by [`PROTO_VERSION`], carried in the opening
//! [`Message::Hello`]; a server that cannot speak the client's version
//! answers with a [`NackCode::Version`] NACK and closes.
//!
//! Two connection [`Role`]s keep the conversation strictly
//! request/response per direction:
//!
//! * **Ingest** connections carry `Resolve`/`Resolved` and
//!   `IngestBatch` → `Ack`/`Nack` exchanges. Acks carry a *watermark*:
//!   the highest batch sequence the server has durably ingested for
//!   this client, which is what a client replays from after a
//!   disconnect.
//! * **Subscribe** connections carry one `Subscribe` registration and
//!   then a server-push stream of `SubData`/`SubGap` frames, terminated
//!   by `SubEnd`.

use crate::error::{LoomError, Result};
use crate::extract::{ExtractorDesc, EXTRACTOR_DESC_SIZE};

/// Wire protocol version carried in [`Message::Hello`].
pub const PROTO_VERSION: u32 = 1;

/// What a connection is for, declared in the hello handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The client pushes record batches and receives acks.
    Ingest,
    /// The client registers one standing subscription and receives
    /// incremental results.
    Subscribe,
}

impl Role {
    fn to_wire(self) -> u8 {
        match self {
            Role::Ingest => 0,
            Role::Subscribe => 1,
        }
    }

    fn from_wire(b: u8) -> Result<Role> {
        match b {
            0 => Ok(Role::Ingest),
            1 => Ok(Role::Subscribe),
            other => Err(corrupt(format!("unknown connection role {other}"))),
        }
    }
}

/// Typed reason an ingest frame was refused. NACKs never stall the
/// socket: a Degraded/ReadOnly engine answers immediately with
/// [`NackCode::Degraded`] instead of blocking the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NackCode {
    /// The server does not speak the client's protocol version.
    Version,
    /// Client and server schema fingerprints are both set and differ.
    SchemaMismatch,
    /// The engine is degraded or read-only and rejects ingest.
    Degraded,
    /// Ingest was rejected by the engine's overload policy; retry later.
    Overloaded,
    /// The batch names a source id the registry does not know.
    UnknownSource,
    /// The frame decoded but its body is malformed for its type.
    BadFrame,
    /// A record payload exceeds the engine's per-record cap.
    TooLarge,
    /// The server is draining and no longer accepts new work.
    ShuttingDown,
}

impl NackCode {
    fn to_wire(self) -> u8 {
        match self {
            NackCode::Version => 1,
            NackCode::SchemaMismatch => 2,
            NackCode::Degraded => 3,
            NackCode::Overloaded => 4,
            NackCode::UnknownSource => 5,
            NackCode::BadFrame => 6,
            NackCode::TooLarge => 7,
            NackCode::ShuttingDown => 8,
        }
    }

    fn from_wire(b: u8) -> Result<NackCode> {
        Ok(match b {
            1 => NackCode::Version,
            2 => NackCode::SchemaMismatch,
            3 => NackCode::Degraded,
            4 => NackCode::Overloaded,
            5 => NackCode::UnknownSource,
            6 => NackCode::BadFrame,
            7 => NackCode::TooLarge,
            8 => NackCode::ShuttingDown,
            other => return Err(corrupt(format!("unknown nack code {other}"))),
        })
    }

    /// Stable lower-case name, used in logs and error text.
    pub fn as_str(self) -> &'static str {
        match self {
            NackCode::Version => "version",
            NackCode::SchemaMismatch => "schema-mismatch",
            NackCode::Degraded => "degraded",
            NackCode::Overloaded => "overloaded",
            NackCode::UnknownSource => "unknown-source",
            NackCode::BadFrame => "bad-frame",
            NackCode::TooLarge => "too-large",
            NackCode::ShuttingDown => "shutting-down",
        }
    }
}

/// What the server does when a subscriber's bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowConsumerPolicy {
    /// The delivery pump waits for queue room (applies backpressure to
    /// delivery, never to ingest).
    Block,
    /// Drop the delivery and send a [`Message::SubGap`] counting the
    /// dropped records once the queue drains.
    DropWithGap,
    /// Terminate the subscription with a [`Message::SubEnd`].
    Disconnect,
}

impl SlowConsumerPolicy {
    fn to_wire(self) -> u8 {
        match self {
            SlowConsumerPolicy::Block => 0,
            SlowConsumerPolicy::DropWithGap => 1,
            SlowConsumerPolicy::Disconnect => 2,
        }
    }

    fn from_wire(b: u8) -> Result<SlowConsumerPolicy> {
        match b {
            0 => Ok(SlowConsumerPolicy::Block),
            1 => Ok(SlowConsumerPolicy::DropWithGap),
            2 => Ok(SlowConsumerPolicy::Disconnect),
            other => Err(corrupt(format!("unknown slow-consumer policy {other}"))),
        }
    }
}

/// One standing subscription: a source plus optional time/value
/// predicate, delivered incrementally as data arrives.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscribeSpec {
    /// Client-chosen subscription id, echoed on every delivery frame.
    pub sub_id: u64,
    /// Source *name*; the server resolves (or defines) it.
    pub source: String,
    /// Deliver records with `ts >= start_ts` only.
    pub start_ts: u64,
    /// Optional value predicate: extract with the descriptor, keep
    /// records whose value lies in `[value_min, value_max]`.
    pub extractor: Option<ExtractorDesc>,
    /// Inclusive predicate lower bound (use `f64::NEG_INFINITY` for
    /// no lower bound).
    pub value_min: f64,
    /// Inclusive predicate upper bound (use `f64::INFINITY` for no
    /// upper bound).
    pub value_max: f64,
    /// What the server does when this subscriber falls behind.
    pub policy: SlowConsumerPolicy,
    /// Bound on the per-subscriber delivery queue, in frames. `0` asks
    /// for the server default.
    pub queue_cap: u32,
}

impl SubscribeSpec {
    /// A subscription to every record of `source` from `start_ts` on,
    /// blocking on backpressure.
    pub fn all(sub_id: u64, source: impl Into<String>, start_ts: u64) -> SubscribeSpec {
        SubscribeSpec {
            sub_id,
            source: source.into(),
            start_ts,
            extractor: None,
            value_min: f64::NEG_INFINITY,
            value_max: f64::INFINITY,
            policy: SlowConsumerPolicy::Block,
            queue_cap: 0,
        }
    }

    /// True when `payload` passes this subscription's value predicate.
    pub fn matches(&self, payload: &[u8]) -> bool {
        match &self.extractor {
            None => true,
            Some(desc) => match desc.to_fn()(payload) {
                Some(v) => v >= self.value_min && v <= self.value_max,
                None => false,
            },
        }
    }
}

/// One protocol message; see the module docs for the conversation shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Opens every connection: version, role, a client-chosen id (the
    /// replay key for ingest connections), and an optional schema
    /// fingerprint (`0` skips the check).
    Hello {
        /// The client's [`PROTO_VERSION`].
        version: u32,
        /// What this connection is for.
        role: Role,
        /// Stable client identity; ingest replay is keyed by it.
        client_id: u64,
        /// [`schema_fingerprint`](super::schema_fingerprint) of the
        /// schema the client expects, or `0` to skip the check.
        schema_fingerprint: u64,
    },
    /// The server's handshake answer. `last_acked_seq` is the highest
    /// batch sequence durably ingested for this client id (`0` if
    /// none), from which the client resumes replay.
    HelloAck {
        /// The server's protocol version.
        version: u32,
        /// The server's current schema fingerprint.
        schema_fingerprint: u64,
        /// Highest batch sequence durably ingested for this client.
        last_acked_seq: u64,
    },
    /// Asks the server to resolve (defining if absent) a source name.
    Resolve {
        /// Source name to resolve.
        name: String,
    },
    /// Answer to [`Message::Resolve`].
    Resolved {
        /// The engine-global source id.
        source: u32,
        /// The resolved name, echoed back.
        name: String,
    },
    /// A batch of record payloads for one source. Batches from one
    /// client must carry strictly increasing `batch_seq`; the server
    /// ingests a given `(client_id, batch_seq)` at most once, which is
    /// what makes at-least-once replay exactly-once.
    IngestBatch {
        /// Source id from a prior [`Message::Resolved`].
        source: u32,
        /// Client-assigned batch sequence (1-based, increasing).
        batch_seq: u64,
        /// The record payloads, pushed in order.
        payloads: Vec<Vec<u8>>,
    },
    /// The batch reached the server's logs. `watermark` is the highest
    /// batch sequence ingested for this client — everything at or below
    /// it is safe to drop from the client's replay buffer. The server
    /// acks after a write barrier into the page cache, not an
    /// `fdatasync`, so an acked batch survives a server process kill but
    /// not a power cut.
    Ack {
        /// The batch being acknowledged.
        batch_seq: u64,
        /// Highest ingested batch sequence for this client.
        watermark: u64,
    },
    /// The batch (or handshake, with `batch_seq == 0`) was refused.
    Nack {
        /// The refused batch, or `0` for a handshake refusal.
        batch_seq: u64,
        /// Typed reason.
        code: NackCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Registers the connection's standing subscription.
    Subscribe(SubscribeSpec),
    /// One incremental delivery: `(ts, payload)` records, oldest first.
    SubData {
        /// Subscription id from the [`Message::Subscribe`].
        sub_id: u64,
        /// Matching records, oldest first.
        records: Vec<(u64, Vec<u8>)>,
    },
    /// Marks records dropped by the `DropWithGap` slow-consumer policy.
    SubGap {
        /// Subscription id.
        sub_id: u64,
        /// How many matching records were dropped in the gap.
        dropped: u64,
    },
    /// Terminal frame of a subscription: nothing follows it.
    SubEnd {
        /// Subscription id.
        sub_id: u64,
        /// Why the stream ended (e.g. `"shutdown"`, `"slow consumer"`).
        reason: String,
    },
}

const T_HELLO: u8 = 1;
const T_HELLO_ACK: u8 = 2;
const T_RESOLVE: u8 = 3;
const T_RESOLVED: u8 = 4;
const T_INGEST_BATCH: u8 = 5;
const T_ACK: u8 = 6;
const T_NACK: u8 = 7;
const T_SUBSCRIBE: u8 = 8;
const T_SUB_DATA: u8 = 9;
const T_SUB_GAP: u8 = 10;
const T_SUB_END: u8 = 11;

impl Message {
    /// The frame type byte this message travels under.
    pub fn frame_type(&self) -> u8 {
        match self {
            Message::Hello { .. } => T_HELLO,
            Message::HelloAck { .. } => T_HELLO_ACK,
            Message::Resolve { .. } => T_RESOLVE,
            Message::Resolved { .. } => T_RESOLVED,
            Message::IngestBatch { .. } => T_INGEST_BATCH,
            Message::Ack { .. } => T_ACK,
            Message::Nack { .. } => T_NACK,
            Message::Subscribe(_) => T_SUBSCRIBE,
            Message::SubData { .. } => T_SUB_DATA,
            Message::SubGap { .. } => T_SUB_GAP,
            Message::SubEnd { .. } => T_SUB_END,
        }
    }

    /// Stable name of the frame type, used as the failpoint tag on
    /// writes and in log lines.
    pub fn type_name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::HelloAck { .. } => "hello-ack",
            Message::Resolve { .. } => "resolve",
            Message::Resolved { .. } => "resolved",
            Message::IngestBatch { .. } => "ingest-batch",
            Message::Ack { .. } => "ack",
            Message::Nack { .. } => "nack",
            Message::Subscribe(_) => "subscribe",
            Message::SubData { .. } => "sub-data",
            Message::SubGap { .. } => "sub-gap",
            Message::SubEnd { .. } => "sub-end",
        }
    }

    /// Encodes the message body (everything after the frame type byte).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::Hello {
                version,
                role,
                client_id,
                schema_fingerprint,
            } => {
                put_u32(&mut out, *version);
                out.push(role.to_wire());
                put_u64(&mut out, *client_id);
                put_u64(&mut out, *schema_fingerprint);
            }
            Message::HelloAck {
                version,
                schema_fingerprint,
                last_acked_seq,
            } => {
                put_u32(&mut out, *version);
                put_u64(&mut out, *schema_fingerprint);
                put_u64(&mut out, *last_acked_seq);
            }
            Message::Resolve { name } => put_str(&mut out, name),
            Message::Resolved { source, name } => {
                put_u32(&mut out, *source);
                put_str(&mut out, name);
            }
            Message::IngestBatch {
                source,
                batch_seq,
                payloads,
            } => {
                put_u32(&mut out, *source);
                put_u64(&mut out, *batch_seq);
                put_u32(&mut out, payloads.len() as u32);
                for p in payloads {
                    put_u32(&mut out, p.len() as u32);
                    out.extend_from_slice(p);
                }
            }
            Message::Ack {
                batch_seq,
                watermark,
            } => {
                put_u64(&mut out, *batch_seq);
                put_u64(&mut out, *watermark);
            }
            Message::Nack {
                batch_seq,
                code,
                detail,
            } => {
                put_u64(&mut out, *batch_seq);
                out.push(code.to_wire());
                put_str(&mut out, detail);
            }
            Message::Subscribe(spec) => {
                put_u64(&mut out, spec.sub_id);
                put_str(&mut out, &spec.source);
                put_u64(&mut out, spec.start_ts);
                match &spec.extractor {
                    None => out.push(0),
                    Some(desc) => {
                        out.push(1);
                        desc.encode(&mut out);
                    }
                }
                put_u64(&mut out, spec.value_min.to_bits());
                put_u64(&mut out, spec.value_max.to_bits());
                out.push(spec.policy.to_wire());
                put_u32(&mut out, spec.queue_cap);
            }
            Message::SubData { sub_id, records } => {
                put_u64(&mut out, *sub_id);
                put_u32(&mut out, records.len() as u32);
                for (ts, p) in records {
                    put_u64(&mut out, *ts);
                    put_u32(&mut out, p.len() as u32);
                    out.extend_from_slice(p);
                }
            }
            Message::SubGap { sub_id, dropped } => {
                put_u64(&mut out, *sub_id);
                put_u64(&mut out, *dropped);
            }
            Message::SubEnd { sub_id, reason } => {
                put_u64(&mut out, *sub_id);
                put_str(&mut out, reason);
            }
        }
        out
    }

    /// Decodes a message from its frame type byte and body.
    pub fn decode(ty: u8, body: &[u8]) -> Result<Message> {
        let mut d = Dec { b: body, pos: 0 };
        let msg = match ty {
            T_HELLO => Message::Hello {
                version: d.u32()?,
                role: Role::from_wire(d.u8()?)?,
                client_id: d.u64()?,
                schema_fingerprint: d.u64()?,
            },
            T_HELLO_ACK => Message::HelloAck {
                version: d.u32()?,
                schema_fingerprint: d.u64()?,
                last_acked_seq: d.u64()?,
            },
            T_RESOLVE => Message::Resolve { name: d.str()? },
            T_RESOLVED => Message::Resolved {
                source: d.u32()?,
                name: d.str()?,
            },
            T_INGEST_BATCH => {
                let source = d.u32()?;
                let batch_seq = d.u64()?;
                let n = d.u32()? as usize;
                // Each payload needs at least its 4-byte length, so a
                // lying count cannot force a huge allocation.
                if n > d.remaining() / 4 {
                    return Err(corrupt(format!("batch claims {n} payloads")));
                }
                let mut payloads = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = d.u32()? as usize;
                    payloads.push(d.bytes(len)?.to_vec());
                }
                Message::IngestBatch {
                    source,
                    batch_seq,
                    payloads,
                }
            }
            T_ACK => Message::Ack {
                batch_seq: d.u64()?,
                watermark: d.u64()?,
            },
            T_NACK => Message::Nack {
                batch_seq: d.u64()?,
                code: NackCode::from_wire(d.u8()?)?,
                detail: d.str()?,
            },
            T_SUBSCRIBE => {
                let sub_id = d.u64()?;
                let source = d.str()?;
                let start_ts = d.u64()?;
                let extractor = match d.u8()? {
                    0 => None,
                    1 => Some(ExtractorDesc::decode(d.bytes(EXTRACTOR_DESC_SIZE)?)?),
                    other => return Err(corrupt(format!("bad extractor marker {other}"))),
                };
                Message::Subscribe(SubscribeSpec {
                    sub_id,
                    source,
                    start_ts,
                    extractor,
                    value_min: f64::from_bits(d.u64()?),
                    value_max: f64::from_bits(d.u64()?),
                    policy: SlowConsumerPolicy::from_wire(d.u8()?)?,
                    queue_cap: d.u32()?,
                })
            }
            T_SUB_DATA => {
                let sub_id = d.u64()?;
                let n = d.u32()? as usize;
                if n > d.remaining() / 12 {
                    return Err(corrupt(format!("sub-data claims {n} records")));
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    let ts = d.u64()?;
                    let len = d.u32()? as usize;
                    records.push((ts, d.bytes(len)?.to_vec()));
                }
                Message::SubData { sub_id, records }
            }
            T_SUB_GAP => Message::SubGap {
                sub_id: d.u64()?,
                dropped: d.u64()?,
            },
            T_SUB_END => Message::SubEnd {
                sub_id: d.u64()?,
                reason: d.str()?,
            },
            other => return Err(corrupt(format!("unknown frame type {other}"))),
        };
        if d.pos != body.len() {
            return Err(corrupt(format!(
                "{} bytes of trailing garbage after a {} frame",
                body.len() - d.pos,
                msg.type_name()
            )));
        }
        Ok(msg)
    }
}

fn corrupt(msg: String) -> LoomError {
    LoomError::Corrupt(format!("net protocol: {msg}"))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    debug_assert!(bytes.len() <= u16::MAX as usize);
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Bounds-checked little-endian body reader.
struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "truncated body: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.bytes(2).map(|b| u16::from_le_bytes([b[0], b[1]]))? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string is not UTF-8".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let body = msg.encode_body();
        let back = Message::decode(msg.frame_type(), &body).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(Message::Hello {
            version: PROTO_VERSION,
            role: Role::Ingest,
            client_id: 42,
            schema_fingerprint: 0xDEAD_BEEF,
        });
        round_trip(Message::HelloAck {
            version: PROTO_VERSION,
            schema_fingerprint: 7,
            last_acked_seq: 99,
        });
        round_trip(Message::Resolve {
            name: "app.requests".into(),
        });
        round_trip(Message::Resolved {
            source: 3,
            name: "app.requests".into(),
        });
        round_trip(Message::IngestBatch {
            source: 3,
            batch_seq: 17,
            payloads: vec![vec![1, 2, 3], vec![], vec![9; 100]],
        });
        round_trip(Message::Ack {
            batch_seq: 17,
            watermark: 17,
        });
        round_trip(Message::Nack {
            batch_seq: 18,
            code: NackCode::Degraded,
            detail: "read-only: records.log ENOSPC".into(),
        });
        round_trip(Message::Subscribe(SubscribeSpec {
            sub_id: 5,
            source: "app.requests".into(),
            start_ts: 1_000,
            extractor: Some(ExtractorDesc::U64Le(8)),
            value_min: 10.0,
            value_max: f64::INFINITY,
            policy: SlowConsumerPolicy::DropWithGap,
            queue_cap: 32,
        }));
        round_trip(Message::Subscribe(SubscribeSpec::all(1, "s", 0)));
        round_trip(Message::SubData {
            sub_id: 5,
            records: vec![(1_000, vec![1, 2]), (1_001, vec![])],
        });
        round_trip(Message::SubGap {
            sub_id: 5,
            dropped: 1_234,
        });
        round_trip(Message::SubEnd {
            sub_id: 5,
            reason: "shutdown".into(),
        });
    }

    #[test]
    fn truncated_bodies_are_rejected() {
        let msg = Message::IngestBatch {
            source: 1,
            batch_seq: 2,
            payloads: vec![vec![7; 32]],
        };
        let body = msg.encode_body();
        for cut in [0, 1, body.len() / 2, body.len() - 1] {
            let err = Message::decode(msg.frame_type(), &body[..cut]).unwrap_err();
            assert!(matches!(err, LoomError::Corrupt(_)), "cut={cut}: {err}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let msg = Message::Ack {
            batch_seq: 1,
            watermark: 1,
        };
        let mut body = msg.encode_body();
        body.push(0);
        let err = Message::decode(msg.frame_type(), &body).unwrap_err();
        assert!(matches!(err, LoomError::Corrupt(_)), "{err}");
    }

    #[test]
    fn lying_batch_count_cannot_force_allocation() {
        let mut body = Vec::new();
        put_u32(&mut body, 1); // source
        put_u64(&mut body, 1); // batch_seq
        put_u32(&mut body, u32::MAX); // claimed payload count
        let err = Message::decode(T_INGEST_BATCH, &body).unwrap_err();
        assert!(matches!(err, LoomError::Corrupt(_)), "{err}");
    }

    #[test]
    fn unknown_frame_type_is_rejected() {
        let err = Message::decode(200, &[]).unwrap_err();
        assert!(matches!(err, LoomError::Corrupt(_)), "{err}");
    }

    #[test]
    fn subscribe_spec_value_predicate() {
        let mut spec = SubscribeSpec::all(1, "s", 0);
        assert!(spec.matches(&[0; 16]));
        spec.extractor = Some(ExtractorDesc::U64Le(0));
        spec.value_min = 10.0;
        spec.value_max = 20.0;
        assert!(spec.matches(&15u64.to_le_bytes()));
        assert!(!spec.matches(&25u64.to_le_bytes()));
        assert!(!spec.matches(&[0; 4]), "short payload extracts nothing");
    }
}
