//! Per-layer metrics of a traced run. Three kinds, all taken from
//! outside the engine: values observed on the workload itself (span
//! samples and exact counters read through public accessors; zero where
//! the workload bypasses the layer), standalone probes of a layer's
//! public functions over bytes captured from the workload's data, and
//! stated derivations. Layer names are the repository's modules.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use loom::durability::format::crc32;
use loom::net::{read_frame, write_frame, Message};
use loom::record::{ChunkIter, RecordHeader, NIL_ADDR, RECORD_HEADER_SIZE};
use loom::retention::codec::{compress_chunk, decompress_chunk};
use loom::retention::segment::{read_chunk_frame, SegmentWriter};
use loom::summary::{BinStats, ChunkSummary};
use loom::{Clock, Config, ExtractorDesc, Loom, QueryOptions, TimeRange};

use crate::gen::Kind;
use crate::oracle::{Class, Dataset};
use crate::session::{latency_histogram, Session, Tier, LIVE_BATCH};
use crate::stats::{highest_supported, median, percentile};
use crate::trace::{Tracer, ROOT};
use crate::workloads::{Env, Samples, Workload};

/// `name → (value, samples behind it)`.
pub type Metrics = BTreeMap<String, (f64, usize)>;

/// Insertion helpers for [`Metrics`].
pub trait Put {
    fn put(&mut self, name: &str, value: f64, n: usize);
    /// The median of `samples` (0 for none) with the sample count.
    fn put_median(&mut self, name: &str, samples: &[f64]) {
        self.put(name, median(samples), samples.len());
    }
}

impl Put for Metrics {
    fn put(&mut self, name: &str, value: f64, n: usize) {
        // A ratio over an empty sample is not a number; JSON has none.
        let value = if value.is_finite() { value } else { 0.0 };
        self.insert(name.to_string(), (value, n));
    }
}

/// A printed sum of layer costs against the number they should add up
/// to, with the residual.
#[derive(Debug, Clone)]
pub struct LayerSum {
    pub title: &'static str,
    pub unit: &'static str,
    pub parts: Vec<(String, f64)>,
    pub total_name: &'static str,
    pub total: f64,
}

impl LayerSum {
    pub fn residual(&self) -> f64 {
        self.total - self.parts.iter().map(|p| p.1).sum::<f64>()
    }
}

const CHUNK: usize = 64 * 1024;

/// Mean ns per call of `f` over `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

struct Probe<'a> {
    tr: &'a mut Tracer,
    root: u32,
    out: Metrics,
}

impl Probe<'_> {
    /// Runs one probe inside a `probe.*` span.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tr.timed(name, 0, self.root, f).0
    }
}

/// A scratch single-source engine fed the app records of the data set:
/// the probe bed for push cost by index count, seal cost, and captured
/// chunks.
struct Scratch {
    loom: Loom,
    writer: loom::LoomWriter,
    source: loom::SourceId,
    dir: std::path::PathBuf,
}

impl Scratch {
    fn open(dir: &Path, indexes: usize) -> Scratch {
        let _ = std::fs::remove_dir_all(dir);
        let (loom, writer) =
            Loom::open_with_clock(Config::new(dir), Clock::manual(0)).expect("open scratch engine");
        let source = loom.define_source("probe");
        for _ in 0..indexes {
            loom.define_index_desc(
                source,
                ExtractorDesc::U64Le(telemetry::records::LATENCY_NS_OFFSET as u32),
                latency_histogram(),
            )
            .expect("define probe index");
        }
        Scratch {
            loom,
            writer,
            source,
            dir: dir.to_path_buf(),
        }
    }

    /// Reads sealed chunk `i` back from the record log file.
    fn chunk(&self, i: usize) -> Vec<u8> {
        use std::os::unix::fs::FileExt;
        let file = std::fs::File::open(self.dir.join("records.log")).expect("open record log");
        let mut buf = vec![0u8; CHUNK];
        file.read_exact_at(&mut buf, (i * CHUNK) as u64)
            .expect("read a sealed chunk");
        buf
    }

    fn destroy(self) {
        let Scratch {
            loom, writer, dir, ..
        } = self;
        writer.close().expect("close scratch engine");
        drop(loom);
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn payloads_of(data: &Dataset, kind: Kind, limit: usize) -> Vec<&[u8]> {
    (0..data.len() as usize)
        .map(|i| data.get(i))
        .filter(|(k, _, _)| *k == kind)
        .map(|(_, _, p)| p)
        .take(limit)
        .collect()
}

/// Probes of the write-path layers: `engine` push cost by index count,
/// `coordinator` seal cost, `hybridlog`, `record`, `summary`,
/// `durability.format`. Returns the captured app-only and gauge-only
/// chunks for the retention probes.
fn write_path_probes(p: &mut Probe<'_>, data: &Dataset, scratch: &Path) -> (Vec<Vec<u8>>, Vec<u8>) {
    let app = payloads_of(data, Kind::App, 200_000);
    let n = app.len();

    // engine.push_ns_per_rec.idxN: the same stream into engines with
    // 0, 1 and 5 indexes on the source.
    let mut app_chunks = Vec::new();
    // The first pass only warms memory and the page cache; its number
    // is overwritten by the second.
    for indexes in [0usize, 0, 1, 5] {
        let mut s = Scratch::open(&scratch.join("probe-push"), indexes);
        let ns = p.span("probe.engine.push", || {
            let t = Instant::now();
            for payload in &app {
                s.loom.clock().advance(1_000);
                s.writer.push(s.source, payload).expect("push");
            }
            t.elapsed().as_nanos() as f64 / n as f64
        });
        p.out
            .put(&format!("engine.push_ns_per_rec.idx{indexes}"), ns, n);
        if indexes == 1 {
            s.writer.sync_durable().expect("sync_durable");
            app_chunks = (0..16).map(|i| s.chunk(i)).collect();
        }
        if indexes == 5 {
            // coordinator.seal_us_per_chunk: every push timed on its own;
            // the ones during which a chunk sealed are the seal cost.
            let mut seal_us = Vec::new();
            p.span("probe.coordinator.seal", || {
                let mut sealed = s.loom.ingest_stats().chunks_sealed();
                for payload in app.iter().cycle().take(200 * (CHUNK / 76 + 1)) {
                    s.loom.clock().advance(1_000);
                    let t = Instant::now();
                    s.writer.push(s.source, payload).expect("push");
                    let ns = t.elapsed().as_nanos();
                    let now = s.loom.ingest_stats().chunks_sealed();
                    if now != sealed {
                        sealed = now;
                        seal_us.push(ns as f64 / 1e3);
                    }
                }
            });
            p.out.put(
                "coordinator.seal_us_per_chunk",
                median(&seal_us),
                seal_us.len(),
            );
        }
        s.destroy();
    }

    // A gauge-only engine, for a chunk of the smooth f64 series.
    let gauge_chunk = {
        let mut s = Scratch::open(&scratch.join("probe-gauge"), 0);
        for payload in payloads_of(data, Kind::Gauge, 4_000) {
            s.loom.clock().advance(1_000);
            s.writer.push(s.source, payload).expect("push");
        }
        s.writer.sync_durable().expect("sync_durable");
        let chunk = s.chunk(0);
        s.destroy();
        chunk
    };

    // hybridlog: the bare append the engine does per record (header,
    // payload, publish), flushes, and a snapshot read.
    let dir = scratch.join("probe-hlog");
    let _ = std::fs::remove_dir_all(&dir);
    let header = [0x5Au8; RECORD_HEADER_SIZE];
    // 100k records stay inside one 8 MiB staging block, so no seal and
    // no flusher backpressure enters the append cost.
    const APPENDS: usize = 100_000;
    let mut append_ns = Vec::new();
    for i in 0..3 {
        let mut log = loom::hybridlog::create(&dir.join(format!("append-{i}")), 8 << 20)
            .expect("create hybrid log");
        append_ns.push(p.span("probe.hybridlog.append", || {
            ns_per_call(APPENDS, || {
                log.append(black_box(&header)).expect("append");
                log.append(black_box(app[0])).expect("append");
                log.publish();
            })
        }));
    }
    p.out.put(
        "hybridlog.append_ns_per_rec",
        median(&append_ns),
        3 * APPENDS,
    );
    let mut log = loom::hybridlog::create(&dir.join("log"), 8 << 20).expect("create hybrid log");
    let mut flush_us = Vec::new();
    p.span("probe.hybridlog.flush", || {
        for _ in 0..300 {
            log.append(&[0xA5; 4096]).expect("append");
            log.publish();
            let t = Instant::now();
            log.flush().expect("flush");
            flush_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    });
    p.out
        .put("hybridlog.flush_us_p50", median(&flush_us), flush_us.len());
    let mut durable_ms = Vec::new();
    p.span("probe.hybridlog.flush_durable", || {
        for _ in 0..5 {
            for _ in 0..256 {
                log.append(&[0xA5; 4096]).expect("append");
            }
            log.publish();
            let t = Instant::now();
            log.flush_durable().expect("flush_durable");
            durable_ms.push(t.elapsed().as_nanos() as f64 / 1e6);
        }
    });
    p.out.put(
        "hybridlog.flush_durable_ms",
        median(&durable_ms),
        durable_ms.len(),
    );
    let snap_ns = p.span("probe.hybridlog.snapshot_read", || {
        let shared = log.shared().clone();
        let mut buf = vec![0u8; CHUNK];
        let chunks = (shared.watermark() / CHUNK as u64).min(256);
        let t = Instant::now();
        let snapshot = shared.snapshot().expect("snapshot");
        for i in 0..chunks {
            snapshot.read_at(i * CHUNK as u64, &mut buf).expect("read");
            black_box(&buf);
        }
        t.elapsed().as_nanos() as f64 / (chunks as f64 * 64.0)
    });
    p.out
        .put("hybridlog.snapshot_read_ns_per_kib", snap_ns, 256);
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);

    // record, durability.format: over a captured chunk.
    let chunk = &app_chunks[0];
    let records = ChunkIter::new(chunk, 0).filter(|r| r.is_ok()).count();
    let iter_ns = p.span("probe.record.chunk_iter", || {
        ns_per_call(200, || {
            for r in ChunkIter::new(black_box(chunk), 0) {
                black_box(r.expect("valid chunk"));
            }
        })
    });
    p.out.put(
        "record.chunk_iter_ns_per_rec",
        iter_ns / records as f64,
        records * 200,
    );
    let hdr = RecordHeader {
        source: 1,
        len: 48,
        prev: NIL_ADDR,
        ts: 1,
    };
    let encode_ns = p.span("probe.record.header_encode", || {
        ns_per_call(1_000_000, || {
            black_box(black_box(&hdr).encode(black_box(app[1])));
        })
    });
    p.out.put("record.header_encode_ns", encode_ns, 1_000_000);
    let encoded = hdr.encode(app[1]);
    let verify_ns = p.span("probe.record.verify", || {
        ns_per_call(1_000_000, || {
            black_box(RecordHeader::verify(black_box(&encoded), black_box(app[1])));
        })
    });
    p.out.put("record.verify_ns_per_rec", verify_ns, 1_000_000);
    let crc_ns = p.span("probe.durability.format.crc32", || {
        ns_per_call(2_000, || {
            black_box(crc32(black_box(chunk)));
        })
    });
    p.out
        .put("durability.format.crc32_ns_per_kib", crc_ns / 64.0, 2_000);

    // summary: one chunk's worth of observations, then encode/decode.
    let spec = latency_histogram();
    let values: Vec<f64> = app[..records]
        .iter()
        .map(|p| {
            telemetry::LatencyRecord::decode(p)
                .expect("app record")
                .latency_ns as f64
        })
        .collect();
    let fill = |summary: &mut ChunkSummary| {
        for (i, v) in values.iter().enumerate() {
            summary.observe_record(1, i as u64);
            if let Some(bin) = spec.bin_of(*v) {
                summary.observe_value(1, bin as u32, *v, i as u64);
            }
        }
    };
    // What `push` does per record and index: bin the value and fold it
    // into a dense per-bin array (the `BTreeMap` of `ChunkSummary` is only
    // filled when the chunk seals).
    let observe_ns = p.span("probe.summary.observe", || {
        let mut bins: Vec<Option<BinStats>> = vec![None; spec.bin_count()];
        ns_per_call(2_000, || {
            for (i, v) in values.iter().enumerate() {
                if let Some(bin) = spec.bin_of(*v) {
                    match &mut bins[bin] {
                        Some(stats) => stats.observe(*v, i as u64),
                        slot => *slot = Some(BinStats::of(*v, i as u64)),
                    }
                }
            }
            black_box(&mut bins);
        })
    });
    p.out.put(
        "summary.observe_ns",
        observe_ns / records as f64,
        records * 2_000,
    );
    let mut summary = ChunkSummary::new(0, 0, CHUNK as u32);
    fill(&mut summary);
    let mut bytes = Vec::new();
    summary.encode(&mut bytes);
    p.out.put("summary.bytes_per_chunk", bytes.len() as f64, 1);
    let encode_ns = p.span("probe.summary.encode", || {
        ns_per_call(20_000, || {
            let mut out = Vec::with_capacity(256);
            black_box(&summary).encode(&mut out);
            black_box(out);
        })
    });
    p.out.put("summary.encode_ns_per_chunk", encode_ns, 20_000);
    let decode_ns = p.span("probe.summary.decode", || {
        ns_per_call(20_000, || {
            black_box(ChunkSummary::decode(black_box(&bytes)).expect("decode"));
        })
    });
    p.out.put("summary.decode_ns_per_chunk", decode_ns, 20_000);

    (app_chunks, gauge_chunk)
}

/// Probes of `net.frame` and `net.proto` over one 64-record batch and
/// its ack. Returns the per-batch cost of the wire layers, µs (both
/// directions of the batch frame plus both of the ack frame).
fn net_probes(p: &mut Probe<'_>, data: &Dataset) -> f64 {
    let payloads: Vec<Vec<u8>> = payloads_of(data, Kind::App, LIVE_BATCH)
        .into_iter()
        .map(<[u8]>::to_vec)
        .collect();
    let batch = Message::IngestBatch {
        source: 5,
        batch_seq: 1,
        payloads,
    };
    let ack = Message::Ack {
        batch_seq: 1,
        watermark: 1,
    };
    const ITERS: usize = 5_000;
    let mut wire_us = 0.0;
    for (msg, is_batch) in [(&batch, true), (&ack, false)] {
        let body = msg.encode_body();
        let mut wire = Vec::new();
        write_frame(&mut wire, msg.frame_type(), &body, "probe").expect("write_frame");
        let encode = p.span("probe.net.proto.encode", || {
            ns_per_call(ITERS, || {
                black_box(black_box(msg).encode_body());
            })
        });
        let write = p.span("probe.net.frame.write", || {
            ns_per_call(ITERS, || {
                let mut out = Vec::new();
                write_frame(&mut out, msg.frame_type(), black_box(&body), "probe")
                    .expect("write_frame");
                black_box(out);
            })
        });
        let read = p.span("probe.net.frame.read", || {
            ns_per_call(ITERS, || {
                black_box(
                    read_frame(&mut black_box(wire.as_slice()), "probe").expect("read_frame"),
                );
            })
        });
        let decode = p.span("probe.net.proto.decode", || {
            ns_per_call(ITERS, || {
                black_box(Message::decode(msg.frame_type(), black_box(&body)).expect("decode"));
            })
        });
        wire_us += (encode + write + read + decode) / 1e3;
        if is_batch {
            p.out.put("net.proto.encode_ns_per_batch", encode, ITERS);
            p.out.put("net.frame.write_ns_per_batch", write, ITERS);
            p.out.put("net.frame.read_ns_per_batch", read, ITERS);
            p.out.put("net.proto.decode_ns_per_batch", decode, ITERS);
        }
    }
    wire_us
}

/// Probes of `retention.codec` and `retention.segment` over captured
/// chunks.
fn retention_probes(p: &mut Probe<'_>, app_chunks: &[Vec<u8>], gauge_chunk: &[u8], scratch: &Path) {
    let ratio = |chunk: &[u8]| chunk.len() as f64 / compress_chunk(chunk, 0).1.len() as f64;
    p.out
        .put("retention.codec.ratio_latency48", ratio(&app_chunks[0]), 1);
    p.out
        .put("retention.codec.ratio_gauge", ratio(gauge_chunk), 1);
    let n = app_chunks.len();
    let compress = p.span("probe.retention.codec.compress", || {
        ns_per_call(4, || {
            for (i, c) in app_chunks.iter().enumerate() {
                black_box(compress_chunk(black_box(c), (i * CHUNK) as u64));
            }
        })
    });
    p.out.put(
        "retention.codec.compress_us_per_chunk",
        compress / n as f64 / 1e3,
        4 * n,
    );
    let bodies: Vec<(u8, Vec<u8>)> = app_chunks
        .iter()
        .enumerate()
        .map(|(i, c)| compress_chunk(c, (i * CHUNK) as u64))
        .collect();
    let decompress = p.span("probe.retention.codec.decompress", || {
        let mut out = Vec::with_capacity(CHUNK);
        ns_per_call(16, || {
            for (i, (codec, body)) in bodies.iter().enumerate() {
                decompress_chunk(*codec, black_box(body), (i * CHUNK) as u64, &mut out)
                    .expect("decompress");
                black_box(&out);
            }
        })
    });
    p.out.put(
        "retention.codec.decompress_us_per_chunk",
        decompress / n as f64 / 1e3,
        16 * n,
    );

    let dir = scratch.join("probe-segment");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create segment dir");
    let mut writer = SegmentWriter::create(&dir, 0, 0).expect("create segment");
    let frames: Vec<_> = app_chunks
        .iter()
        .enumerate()
        .map(|(i, c)| {
            writer
                .append_chunk((i * CHUNK) as u64, c)
                .expect("append chunk")
        })
        .collect();
    let file = writer.finish().expect("finish segment");
    let read = p.span("probe.retention.segment.read_frame", || {
        let mut out = Vec::with_capacity(CHUNK);
        ns_per_call(16, || {
            for f in &frames {
                read_chunk_frame(&file, f.offset, f.chunk_addr, &mut out).expect("read frame");
                black_box(&out);
            }
        })
    });
    p.out.put(
        "retention.segment.read_frame_us_per_chunk",
        read / n as f64 / 1e3,
        16 * n,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Probes that run queries on the workload's own session: `ts_index`
/// seek, `query.columnar`, `query.executor`, `obs`.
fn session_probes(p: &mut Probe<'_>, session: &Session, data: &Dataset) {
    // ts_index.seek_us: an indexed scan of a 1 µs window in the middle
    // of history that holds no record (arrival times are multiples of
    // 1 µs; the window sits between two).
    let mid = data.end_ts() / 2 / 1_000 * 1_000 + 1;
    let app = session.schema.stream[Kind::App.ordinal()];
    let seek = p.span("probe.ts_index.seek", || {
        ns_per_call(500, || {
            let stats = session
                .loom
                .query(app)
                .index(session.schema.lat)
                .range(TimeRange::new(mid, mid + 998))
                .scan(|_| unreachable!("the window is empty"))
                .expect("scan");
            black_box(stats);
        })
    });
    p.out.put("ts_index.seek_us", seek / 1e3, 500);

    let wide = |opts: QueryOptions| {
        let mut us = Vec::new();
        let mut stats = loom::QueryStats::default();
        for _ in 0..5 {
            let t = Instant::now();
            stats = session.run_class(data, Class::ScanWide, opts).1;
            us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        (median(&us), stats)
    };
    let defaults = QueryOptions::default();
    let (columnar, stats) = p.span("probe.query.columnar", || wide(defaults));
    let (record, _) = p.span("probe.query.columnar", || {
        wide(defaults.with_columnar(false))
    });
    p.out
        .put("query.columnar.speedup_vs_record", record / columnar, 5);
    p.out
        .put("query.columnar.rows", stats.columnar_rows as f64, 1);
    let (serial, _) = p.span("probe.query.executor", || {
        wide(defaults.with_parallelism(1))
    });
    let (parallel, stats) = p.span("probe.query.executor", || {
        wide(defaults.with_parallelism(2))
    });
    p.out.put("query.executor.speedup_p2", serial / parallel, 5);
    p.out
        .put("query.executor.workers_used", stats.workers_used as f64, 1);

    let snapshot = p.span("probe.obs.snapshot", || {
        ns_per_call(500, || {
            black_box(session.loom.metrics_snapshot());
        })
    });
    p.out.put("obs.snapshot_us", snapshot / 1e3, 500);
}

/// `retention.cold_over_hot.<class>`: the session's own query medians
/// against a twin session of the other tier over the same data.
fn tier_twin_probe(p: &mut Probe<'_>, w: Workload, s: &Samples, data: &Dataset, scratch: &Path) {
    let (twin_tier, own_is_cold) = match w {
        Workload::QueryCold => (Tier::Hot, true),
        _ => (Tier::Cold, false),
    };
    let mut quiet = Tracer::new(false, Instant::now(), 0);
    let twin_run = p.span("probe.retention.tier_twin", || {
        let (twin, _) = Session::build(
            &scratch.join("probe-twin"),
            w.shards(),
            twin_tier,
            data,
            true,
            &mut quiet,
            0,
        );
        let run = twin.run_queries(data, 3, &mut quiet, 0);
        twin.destroy();
        run
    });
    for (c, class) in Class::ALL.into_iter().enumerate() {
        let (own, twin) = (median(&s.queries.us[c]), median(&twin_run.us[c]));
        let (cold, hot) = if own_is_cold {
            (own, twin)
        } else {
            (twin, own)
        };
        p.out.put(
            &format!("retention.cold_over_hot.{}", class.name()),
            cold / hot,
            3,
        );
    }
}

/// Everything a traced run reports per layer, plus the two layer sums.
pub fn collect(
    w: Workload,
    s: &Samples,
    env: &Env,
    scratch: &Path,
    tr: &mut Tracer,
) -> (Metrics, Vec<LayerSum>) {
    let root = tr.begin("probe", 0, ROOT);
    let mut p = Probe {
        tr,
        root,
        out: Metrics::new(),
    };
    let data = &env.data;
    let (app_chunks, gauge_chunk) = write_path_probes(&mut p, data, scratch);
    let wire_us = net_probes(&mut p, data);
    retention_probes(&mut p, &app_chunks, &gauge_chunk, scratch);
    session_probes(&mut p, &env.session, data);
    tier_twin_probe(&mut p, w, s, data, scratch);
    let Probe { tr, mut out, .. } = p;
    tr.end(root);

    // telemetry, engine: observed on the workload.
    out.put_median("telemetry.gen_ns_per_rec", &s.gen_ns_per_rec);
    let push_ns: Vec<f64> = s
        .builds
        .iter()
        .flat_map(|b| b.push_ns.iter().copied())
        .collect();
    out.put("engine.push_ns_p50", median(&push_ns), push_ns.len());
    out.put(
        "engine.push_ns_p999",
        percentile(&push_ns, 99.9),
        push_ns.len(),
    );
    out.put_median("engine.sync_us_p50", &s.sync_us);
    let of_builds = |f: fn(&crate::session::BuildTiming) -> u64, scale: f64| -> Vec<f64> {
        s.builds.iter().map(|b| f(b) as f64 / scale).collect()
    };
    out.put_median(
        "engine.sync_durable_ms_p50",
        &of_builds(|b| b.sync_durable_ns, 1e6),
    );
    out.put_median("engine.open_ms", &of_builds(|b| b.open_ns, 1e6));
    out.put_median("engine.close_ms", &s.reopen.close_ms);

    // net.client, daemon.net: observed; zero on the library workloads.
    let net_ack: &[f64] = &s.send_batch_us;
    out.put_median("net.client.send_batch_us_p50", net_ack);
    // The harness never reconnects, so a replay would be a bug.
    out.put("net.client.replays", 0.0, 1);
    let net = &s.end.snapshot.net;
    out.put("daemon.net.acks", net.acks as f64, 1);
    out.put("daemon.net.nacks", net.nacks as f64, 1);
    out.put("daemon.net.replays_deduped", net.replays as f64, 1);
    // The ack-path sum applies to closed-loop 64-record batches: on the
    // open loop the total is charged from the due time.
    let engine_ack = median(&s.lib_ack_us);
    let ack_sum = LayerSum {
        title: "ack path: shadow pipeline + residual = ack_p50_us",
        unit: "us",
        parts: vec![
            (
                "net.proto + net.frame (batch and ack, both directions)".into(),
                wire_us,
            ),
            (
                "engine: 64 x push + sync (library route)".into(),
                engine_ack,
            ),
        ],
        total_name: "ack_p50_us",
        total: median(net_ack),
    };
    let mut sums = Vec::new();
    let mut residual = 0.0;
    if w == Workload::NetIngest {
        residual = ack_sum.residual();
        sums.push(ack_sum);
    }
    out.put("daemon.net.residual_us_p50", residual, net_ack.len());

    // hybridlog, coordinator, ts_index, obs: exact counters.
    let h = &s.end.snapshot.hybridlog;
    out.put(
        "hybridlog.block_seals",
        s.built.snapshot.hybridlog.block_seals as f64,
        1,
    );
    out.put("hybridlog.flushes", h.flushes as f64, 1);
    out.put(
        "hybridlog.backpressure_waits",
        h.backpressure_waits as f64,
        1,
    );
    out.put("hybridlog.seqlock_retries", h.seqlock_retries as f64, 1);
    out.put("coordinator.chunk_seals", s.built.chunk_seals as f64, 1);
    out.put("coordinator.pad_bytes", s.built.pad_bytes as f64, 1);
    out.put("ts_index.entries", s.built.ts_entries as f64, 1);
    out.put(
        "obs.slow_queries",
        s.end.snapshot.query.slow_queries as f64,
        1,
    );

    // durability.recovery: the engine's own reports of the last reopens.
    let crash = s.reopen.crash_report.as_ref();
    let crash_ms = crash.map_or(0.0, |r| r.duration_nanos as f64 / 1e6);
    // The clean path's report carries no duration; the harness's span
    // around the reopen stands in.
    out.put_median("durability.recovery.clean_ms", &s.reopen.clean_ms);
    out.put("durability.recovery.crash_ms", crash_ms, 1);
    out.put(
        "durability.recovery.records_validated",
        crash.map_or(0.0, |r| r.records_scanned as f64),
        1,
    );
    let log_mib = s.built.chunk_seals as f64 * CHUNK as f64 / (1 << 20) as f64;
    out.put(
        "durability.recovery.crash_mib_per_s",
        log_mib / (crash_ms / 1e3),
        1,
    );

    // query.<class>.*, chunk_index.
    for (c, class) in Class::ALL.into_iter().enumerate() {
        let (us, st) = (&s.queries.us[c], &s.queries.stats[c]);
        let name = class.name();
        let p50 = median(us);
        for (field, v) in [
            ("summaries_scanned", st.summaries_scanned),
            ("chunks_scanned", st.chunks_scanned),
            ("records_scanned", st.records_scanned),
            ("records_matched", st.records_matched),
            ("bytes_read", st.bytes_read),
        ] {
            out.put(&format!("query.{name}.{field}"), v as f64, 1);
        }
        let results = s.queries.outcomes[c].count.max(1);
        out.put(
            &format!("query.{name}.rows_examined_per_result"),
            st.records_scanned as f64 / results as f64,
            1,
        );
        out.put(
            &format!("query.{name}.ns_per_record_scanned"),
            if st.records_scanned > 0 {
                p50 * 1e3 / st.records_scanned as f64
            } else {
                0.0
            },
            us.len(),
        );
        let (pct, hi) = highest_supported(us);
        out.put(&format!("query.{name}.p_hi_us"), hi, us.len());
        out.put(&format!("query.{name}.p_hi_pct"), pct, us.len());
    }
    let summaries = s.queries.stats[0].summaries_scanned.max(1);
    out.put(
        "chunk_index.ns_per_summary",
        median(&s.queries.us[0]) * 1e3 / summaries as f64,
        s.queries.us[0].len(),
    );

    // retention: the compaction of the set-up build (zero when hot).
    let compact_ms: Vec<f64> = s.builds.iter().map(|b| b.compact_ns as f64 / 1e6).collect();
    out.put_median("retention.compact_ms", &compact_ms[..s.setup_s.len()]);
    let cold = s.tier_stats.iter().fold((0, 0, 0), |a, t| {
        (
            a.0 + t.cold.chunks,
            a.1 + t.cold.raw_bytes,
            a.2 + t.cold.comp_bytes,
        )
    });
    out.put("retention.cold_chunks", cold.0 as f64, 1);
    out.put("retention.bytes_rewritten", cold.2 as f64, 1);
    out.put(
        "retention.compression_ratio",
        if cold.2 > 0 {
            cold.1 as f64 / cold.2 as f64
        } else {
            0.0
        },
        1,
    );

    // harness.
    let share = if s.untraced_unit.is_empty() {
        0.0
    } else {
        median(&s.traced_unit) / median(&s.untraced_unit)
    };
    out.put("harness.trace_overhead_share", share, s.traced_unit.len());
    out.put("ack_p99_us", percentile(&s.ack_us, 99.0), s.ack_us.len());
    out.put(
        "harness.gen_late_p99_us",
        percentile(&s.late_us, 99.0),
        s.late_us.len(),
    );
    out.put(
        "harness.late_batches",
        s.late_batches as f64,
        s.late_us.len(),
    );

    // The push-path sum: what the layers under `push` cost on their own
    // against `push` with five indexes.
    let get = |name: &str| out.get(name).map_or(0.0, |v| v.0);
    let clock_ns = {
        let clock = Clock::manual(0);
        ns_per_call(1_000_000, || {
            black_box(clock.advance(1));
            black_box(clock.now());
        })
    };
    let push_sum = LayerSum {
        title: "push path: layer costs + residual = engine.push_ns_per_rec.idx5",
        unit: "ns",
        parts: vec![
            (
                "hybridlog.append_ns_per_rec".into(),
                get("hybridlog.append_ns_per_rec"),
            ),
            (
                "record.header_encode_ns (CRC of header and payload)".into(),
                get("record.header_encode_ns"),
            ),
            ("clock advance + read".into(), clock_ns),
            (
                "summary.observe_ns x 5 indexes".into(),
                5.0 * get("summary.observe_ns"),
            ),
        ],
        total_name: "engine.push_ns_per_rec.idx5",
        total: get("engine.push_ns_per_rec.idx5"),
    };
    out.put("engine.push_residual_ns", push_sum.residual(), 1);
    sums.push(push_sum);
    (out, sums)
}
