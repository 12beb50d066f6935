//! One engine under test: schema, the library ingest of the standard
//! stream, the live (ack) path through the library or the socket, the
//! five query classes, visibility probes, reopen cycles and the space
//! count. Workloads are compositions of these phases; every call into
//! the engine made here is wrapped in a span.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use daemon::{NetOptions, NetServer, WriterSlot};
use loom::net::{BatchOutcome, ClientConfig, IngestClient};
use loom::{
    Aggregate, Clock, Config, ExtractorDesc, HistogramSpec, IndexId, Loom, LoomWriter,
    QueryOptions, QueryStats, RecoveryReport, RetentionConfig, SourceId, TimeRange, ValueRange,
};
use telemetry::records::page_cache_events;
use telemetry::{LatencyRecord, PageCacheRecord};

use crate::gen::{Kind, LatencyGen, STREAM_DT};
use crate::oracle::{record_digest, Class, Dataset, Outcome, PCTL, RARE_MIN, RARE_OP, WIDE_MIN};
use crate::trace::{Tracer, ROOT};

/// Records per batch on the closed-loop live path (library and socket).
pub const LIVE_BATCH: usize = 64;
/// Simulated ns the clock advances per closed-loop batch: 1 µs a record,
/// as in the standard stream.
pub const LIVE_DT: u64 = LIVE_BATCH as u64 * 1_000;

/// Clean reopens per crash reopen in a reopen cycle: the clean path
/// takes milliseconds, so it needs more samples for a steady median.
pub const CLEAN_PER_CYCLE: usize = 3;

/// Which tier serves the sealed history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Retention off: every sealed chunk stays in the hot record log.
    Hot,
    /// `cold_after: 0` and a full `compact()` after the preload: every
    /// sealed chunk is served from compressed cold segments.
    Cold,
}

/// The engine configuration every workload uses (paper-like defaults:
/// 8 MiB blocks, 64 KiB chunks), varying only shard count and tier.
fn engine_config(dir: &Path, shards: usize, tier: Tier) -> Config {
    let config = Config::new(dir).with_shards(shards);
    match tier {
        Tier::Hot => config,
        Tier::Cold => config.with_retention(RetentionConfig {
            enabled: true,
            cold_after: 0,
            slice: 1 << 40,
            drop_after: None,
            interval: None,
            compact_on_seal: false,
        }),
    }
}

/// Latency histogram: exponential bins from 1 µs; 256 µs (`RARE_MIN`) is
/// a boundary.
pub fn latency_histogram() -> HistogramSpec {
    HistogramSpec::exponential(1_000.0, 4.0, 10).expect("valid histogram")
}

/// Source and index ids of the benchmark schema.
#[derive(Debug, Clone, Copy)]
pub struct Schema {
    /// Stream sources, by [`Kind::ordinal`].
    pub stream: [SourceId; 4],
    /// `app` latency, descriptor-defined (columnar path).
    pub lat: IndexId,
    /// `app` latency of records with `op == 0`, closure-defined.
    pub lat_op0: IndexId,
    /// The two live sources (ack path); on different shards when the
    /// engine has more than one.
    pub live: [SourceId; 2],
    /// Descriptor index over each live source's `seq` field.
    pub live_seq: [IndexId; 2],
}

impl Schema {
    /// Defines the schema on a fresh engine: six sources, six indexes
    /// (four descriptor-defined, two closures).
    fn define(loom: &Loom) -> Schema {
        let stream = Kind::ALL.map(|k| loom.define_source(k.name()));
        let app = stream[Kind::App.ordinal()];
        let lat = loom
            .define_index_desc(
                app,
                ExtractorDesc::U64Le(telemetry::records::LATENCY_NS_OFFSET as u32),
                latency_histogram(),
            )
            .expect("define app.lat");
        let lat_op0 = loom
            .define_index(
                app,
                Arc::new(|p: &[u8]| {
                    let r = LatencyRecord::decode(p)?;
                    (r.op == RARE_OP).then_some(r.latency_ns as f64)
                }),
                latency_histogram(),
            )
            .expect("define app.lat_op0");
        loom.define_index(
            stream[Kind::PageCache.ordinal()],
            Arc::new(|p: &[u8]| {
                let r = PageCacheRecord::decode(p)?;
                (r.event_id == page_cache_events::ADD_TO_PAGE_CACHE).then_some(1.0)
            }),
            HistogramSpec::from_bounds(vec![0.5, 1.5]).expect("valid histogram"),
        )
        .expect("define pagecache.add");
        loom.define_index_desc(
            stream[Kind::Gauge.ordinal()],
            ExtractorDesc::F64Le(0),
            HistogramSpec::uniform(0.0, 100.0, 10).expect("valid histogram"),
        )
        .expect("define gauge.value");
        let live0 = loom.define_source("live0");
        // Source ids hash to shards; skip ids until live1 lands on
        // another shard than live0, so two connections never share one.
        let mut live1 = loom.define_source("live1");
        while loom.shard_count() > 1 && loom.home_shard(live1) == loom.home_shard(live0) {
            live1 = loom.define_source(&format!("live1.{}", live1.0));
        }
        let live = [live0, live1];
        let live_seq = live.map(|s| {
            loom.define_index_desc(
                s,
                ExtractorDesc::U64Le(32),
                HistogramSpec::exponential(1_024.0, 4.0, 12).expect("valid histogram"),
            )
            .expect("define live.seq")
        });
        Schema {
            stream,
            lat,
            lat_op0,
            live,
            live_seq,
        }
    }
}

/// How long each step of [`Session::build`] took, plus the individually
/// timed pushes of a traced build.
#[derive(Debug, Default, Clone)]
pub struct BuildTiming {
    pub open_ns: u64,
    pub stream_ns: u64,
    pub sync_durable_ns: u64,
    pub compact_ns: u64,
    /// 1-in-64 pushes timed one by one, ns (traced builds only).
    pub push_ns: Vec<f64>,
}

/// Samples of one [`Session::run_queries`] call.
#[derive(Debug, Default, Clone)]
pub struct QueryRun {
    /// Latency samples per class, µs, in [`Class::ALL`] order.
    pub us: [Vec<f64>; 5],
    /// Engine-reported statistics of each class's last execution.
    pub stats: [QueryStats; 5],
    /// What each class returned (first execution).
    pub outcomes: [Outcome; 5],
    /// Executions whose outcome differed from the class's first one.
    pub unstable: u64,
}

impl QueryRun {
    pub fn rounds(&self) -> usize {
        self.us[0].len()
    }

    /// Appends the samples of a later call; its outcomes must repeat
    /// the first ones.
    pub fn absorb(&mut self, later: QueryRun) {
        if self.rounds() == 0 {
            self.outcomes = later.outcomes;
        } else if later.outcomes != self.outcomes {
            self.unstable += 1;
        }
        for (mine, theirs) in self.us.iter_mut().zip(&later.us) {
            mine.extend(theirs);
        }
        self.stats = later.stats;
        self.unstable += later.unstable;
    }
}

/// Samples of the reopen cycles.
#[derive(Debug, Default, Clone)]
pub struct ReopenRun {
    pub crash_ms: Vec<f64>,
    pub clean_ms: Vec<f64>,
    pub close_ms: Vec<f64>,
    pub sync_durable_ms: Vec<f64>,
    /// The engine's report of the last crash reopen.
    pub crash_report: Option<RecoveryReport>,
    /// Count checks that failed after a reopen.
    pub failed_checks: u64,
    pub checks: u64,
}

/// What the engine must hold: records per stream source and per live
/// source. Checked after every reopen.
#[derive(Debug, Clone, Copy, Default)]
pub struct Expected {
    pub stream: [u64; 4],
    pub live: [u64; 2],
}

/// The live (ack) path: batches of 48-byte latency records on one live
/// source, acknowledged by `LoomWriter::sync()` — called directly on the
/// library path, by the connection handler on the socket path.
pub struct Live {
    pub which: usize,
    batch_size: usize,
    dt: u64,
    gen: LatencyGen,
    batch: Vec<Vec<u8>>,
    /// `LoomWriter::sync()` time of every library-route batch, µs.
    pub sync_us: Vec<f64>,
}

/// The two ways a live batch reaches the engine.
pub enum Route<'a> {
    Lib(&'a mut LoomWriter),
    Net(&'a mut IngestClient),
}

impl Live {
    /// A live source sending closed-loop batches ([`LIVE_BATCH`],
    /// [`LIVE_DT`]).
    pub fn new(seed: u64, which: usize) -> Live {
        Live {
            which,
            batch_size: LIVE_BATCH,
            dt: LIVE_DT,
            gen: LatencyGen::new(seed, 10 + which as u64),
            batch: Vec::new(),
            sync_us: Vec::new(),
        }
    }

    /// Sets the records per batch and the simulated ns the engine clock
    /// advances per batch.
    pub fn shape(&mut self, batch_size: usize, dt: u64) {
        (self.batch_size, self.dt) = (batch_size, dt);
    }

    /// Records generated (= sent) so far.
    pub fn sent(&self) -> u64 {
        self.gen.generated()
    }

    /// Generates the next batch, advances the engine clock by `dt`, sends
    /// the batch and waits for its ack. Returns the ack
    /// latency in ns; generation is outside it. `Err` is a failed
    /// operation (a NACK or an engine error).
    pub fn send(
        &mut self,
        loom: &Loom,
        schema: &Schema,
        route: &mut Route<'_>,
        tr: &mut Tracer,
        op: u64,
        parent: u32,
    ) -> Result<u64, String> {
        let g = tr.begin("telemetry.generate", op, parent);
        let ts = loom.clock().advance(self.dt);
        self.batch.clear();
        for _ in 0..self.batch_size {
            self.batch.push(self.gen.next(ts).to_vec());
        }
        tr.end(g);
        let source = schema.live[self.which];
        match route {
            Route::Lib(writer) => {
                let batch = &self.batch;
                let ack = tr.begin("engine.ack", op, parent);
                let (pushed, push_ns) = tr.timed("engine.push_batch", op, ack, || {
                    batch
                        .iter()
                        .try_for_each(|p| writer.push(source, p).map(drop))
                });
                let (synced, sync_ns) = tr.timed("engine.sync", op, ack, || writer.sync());
                tr.end(ack);
                self.sync_us.push(sync_ns as f64 / 1e3);
                pushed
                    .and(synced)
                    .map(|()| push_ns + sync_ns)
                    .map_err(|e| e.to_string())
            }
            Route::Net(client) => {
                let batch = std::mem::take(&mut self.batch);
                let (res, ns) = tr.timed("net.client.send_batch", op, parent, || {
                    client.send_batch(source.0, batch)
                });
                match res {
                    Ok(BatchOutcome::Acked { .. }) => Ok(ns),
                    Ok(BatchOutcome::Nacked { code, detail }) => {
                        Err(format!("nack {}: {detail}", code.as_str()))
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
        }
    }
}

/// Polls until the live source's newest `seq` is visible to a query:
/// `Max` over the `seq` index in the trailing `trail` ns returns
/// `last_seq`. Returns the number of polls, or `None` if it did not
/// become visible within `patience` (an acked-but-invisible record).
pub fn wait_visible(
    loom: &Loom,
    schema: &Schema,
    which: usize,
    last_seq: u64,
    trail: u64,
    patience: Duration,
) -> Option<u64> {
    let deadline = Instant::now() + patience;
    let mut polls = 0;
    loop {
        polls += 1;
        let now = loom.now();
        let seen = loom
            .query(schema.live[which])
            .index(schema.live_seq[which])
            .range(TimeRange::new(now.saturating_sub(trail), now))
            .aggregate(Aggregate::Max)
            .ok()
            .and_then(|r| r.value);
        if seen.is_some_and(|v| v >= last_seq as f64) {
            return Some(polls);
        }
        if Instant::now() >= deadline {
            return None;
        }
    }
}

/// A running `daemon::NetServer` over the session's engine — the code
/// `loomd --listen` runs, started in-process so the harness keeps the
/// `Loom` handle it needs for visibility probes.
pub struct Server {
    server: NetServer,
    slot: WriterSlot,
    pub addr: String,
}

impl Server {
    pub fn connect(&self, client_id: u64) -> IngestClient {
        IngestClient::connect(ClientConfig::new(self.addr.clone(), client_id))
            .expect("connect to the in-process server")
    }
}

pub struct Session {
    pub dir: PathBuf,
    config: Config,
    pub loom: Loom,
    pub writer: Option<LoomWriter>,
    pub schema: Schema,
}

impl Session {
    /// Opens a fresh engine in `dir`, defines the schema, pushes the
    /// whole data set through the library API on a manual clock, and
    /// makes it durable. With `seal` the active chunk is sealed first,
    /// so all of history is in sealed chunks; the cold tier then
    /// compacts all of it.
    pub fn build(
        dir: &Path,
        shards: usize,
        tier: Tier,
        data: &Dataset,
        seal: bool,
        tr: &mut Tracer,
        op: u64,
    ) -> (Session, BuildTiming) {
        let _ = std::fs::remove_dir_all(dir);
        let config = engine_config(dir, shards, tier);
        let mut timing = BuildTiming::default();
        let root = tr.begin("build", op, ROOT);
        let ((loom, mut writer), open_ns) = tr.timed("engine.open", op, root, || {
            Loom::open_with_clock(config.clone(), Clock::manual(0)).expect("open fresh engine")
        });
        timing.open_ns = open_ns;
        let schema = Schema::define(&loom);
        let sample = tr.enabled();
        if sample {
            timing.push_ns.reserve(data.len() as usize / 64 + 1);
        }
        let stream = tr.begin("engine.push_stream", op, root);
        let t = Instant::now();
        for i in 0..data.len() as usize {
            let (kind, _, payload) = data.get(i);
            loom.clock().advance(STREAM_DT);
            let source = schema.stream[kind.ordinal()];
            if sample && i % 64 == 0 {
                let (res, ns) =
                    tr.timed("engine.push", op, stream, || writer.push(source, payload));
                res.expect("push");
                timing.push_ns.push(ns as f64);
            } else {
                writer.push(source, payload).expect("push");
            }
        }
        timing.stream_ns = t.elapsed().as_nanos() as u64;
        tr.end(stream);
        let ((), ns) = tr.timed("engine.sync_durable", op, root, || {
            if seal {
                writer.seal_active_chunk().expect("seal");
            }
            writer.sync_durable().expect("sync_durable");
        });
        timing.sync_durable_ns = ns;
        if tier == Tier::Cold {
            let (report, ns) = tr.timed("retention.compact", op, root, || {
                loom.compact().expect("compact")
            });
            assert!(report.chunks_aged > 0, "the cold session must age chunks");
            timing.compact_ns = ns;
        }
        tr.end(root);
        let session = Session {
            dir: dir.to_path_buf(),
            config,
            loom,
            writer: Some(writer),
            schema,
        };
        (session, timing)
    }

    /// Bytes on disk per byte of user payload. File lengths are summed
    /// (not allocated blocks, which depend on the filesystem); the hot
    /// bytes the compactor punched out are subtracted, since they are
    /// holes. Exact for a given seed.
    pub fn disk_bytes_per_user_byte(&self, user_bytes: u64) -> f64 {
        fn dir_bytes(dir: &Path) -> u64 {
            let mut total = 0;
            for entry in std::fs::read_dir(dir).expect("read data dir").flatten() {
                let meta = entry.metadata().expect("stat");
                total += if meta.is_dir() {
                    dir_bytes(&entry.path())
                } else {
                    meta.len()
                };
            }
            total
        }
        let punched: u64 = self
            .loom
            .tier_stats()
            .iter()
            .map(|t| t.cold.raw_bytes)
            .sum();
        (dir_bytes(&self.dir) - punched) as f64 / user_bytes as f64
    }

    /// Executes one query class and digests what it returned.
    pub fn run_class(
        &self,
        data: &Dataset,
        class: Class,
        opts: QueryOptions,
    ) -> (Outcome, QueryStats) {
        let (start, end) = data.window(class);
        let range = TimeRange::new(start, end);
        let app = self.schema.stream[Kind::App.ordinal()];
        let aggregate = |agg| {
            let r = self
                .loom
                .query(app)
                .index(self.schema.lat)
                .range(range)
                .options(opts)
                .aggregate(agg)
                .expect("aggregate");
            let outcome = Outcome {
                value_bits: r.value.map(f64::to_bits),
                count: r.count,
                digest: 0,
            };
            (outcome, r.stats)
        };
        let mut out = Outcome::default();
        let mut digest = |r: loom::Record<'_>| {
            out.count += 1;
            out.digest = out.digest.wrapping_add(record_digest(r.ts, r.payload));
        };
        let stats = match class {
            Class::AggSummary => return aggregate(Aggregate::Max),
            Class::AggPctl => return aggregate(Aggregate::Percentile(PCTL)),
            Class::ScanWide => self
                .loom
                .query(app)
                .index(self.schema.lat)
                .range(range)
                .value_range(ValueRange::at_least(WIDE_MIN))
                .options(opts)
                .scan(&mut digest),
            Class::ScanRare => self
                .loom
                .query(app)
                .index(self.schema.lat_op0)
                .range(range)
                .value_range(ValueRange::at_least(RARE_MIN))
                .options(opts)
                .scan(&mut digest),
            Class::RawScan => self.loom.raw_scan(
                self.schema.stream[Kind::Packet.ordinal()],
                range,
                &mut digest,
            ),
        }
        .expect("scan");
        (out, stats)
    }

    /// Runs `rounds` rounds of the five classes in fixed round-robin
    /// order.
    pub fn run_queries(
        &self,
        data: &Dataset,
        rounds: usize,
        tr: &mut Tracer,
        first_op: u64,
    ) -> QueryRun {
        let mut run = QueryRun::default();
        for round in 0..rounds {
            for (c, class) in Class::ALL.into_iter().enumerate() {
                let op = first_op + (round * Class::ALL.len() + c) as u64;
                let name = match class {
                    Class::AggSummary => "query.agg_summary",
                    Class::AggPctl => "query.agg_pctl",
                    Class::ScanWide => "query.scan_wide",
                    Class::ScanRare => "query.scan_rare",
                    Class::RawScan => "query.raw_scan",
                };
                let ((outcome, stats), ns) = tr.timed(name, op, ROOT, || {
                    self.run_class(data, class, QueryOptions::default())
                });
                run.us[c].push(ns as f64 / 1e3);
                run.stats[c] = stats;
                if round == 0 {
                    run.outcomes[c] = outcome;
                } else if outcome != run.outcomes[c] {
                    run.unstable += 1;
                }
            }
        }
        run
    }

    /// Hands the writer to a `NetServer` on an ephemeral loopback port.
    pub fn start_server(&mut self, tr: &mut Tracer, op: u64) -> Server {
        let writer = self.writer.take().expect("the session owns its writer");
        let slot: WriterSlot = Arc::new(parking_lot::Mutex::named(
            "daemon.writer_slot",
            Some(writer),
        ));
        let (server, _) = tr.timed("daemon.net.start", op, ROOT, || {
            NetServer::start(
                self.loom.clone(),
                Arc::clone(&slot),
                "127.0.0.1:0",
                NetOptions::default(),
            )
            .expect("start the net server")
        });
        let addr = server.local_addr().to_string();
        Server { server, slot, addr }
    }

    /// Drains the server and takes the writer back.
    pub fn stop_server(&mut self, server: Server) {
        server
            .server
            .drain(Duration::from_secs(10))
            .expect("server drains");
        self.writer = server.slot.lock().take();
        assert!(self.writer.is_some(), "the writer survives the server");
    }

    /// Cheap count check of what the engine holds: summary-only counts
    /// over the descriptor indexes. Returns `(checks, failed)`.
    fn check_counts(&self, expected: &Expected) -> (u64, u64) {
        let count = |source, index| {
            self.loom
                .query(source)
                .index(index)
                .aggregate(Aggregate::Count)
                .map(|r| r.count)
                .ok()
        };
        let mut results = vec![
            count(self.schema.stream[Kind::App.ordinal()], self.schema.lat)
                == Some(expected.stream[Kind::App.ordinal()]),
        ];
        for w in 0..2 {
            let got = self
                .loom
                .query(self.schema.live[w])
                .index(self.schema.live_seq[w])
                .aggregate(Aggregate::Max)
                .ok();
            let want_max = expected.live[w].checked_sub(1).map(|v| v as f64);
            results.push(got.map(|r| (r.count, r.value)) == Some((expected.live[w], want_max)));
        }
        let failed = results.iter().filter(|ok| !**ok).count() as u64;
        (results.len() as u64, failed)
    }

    /// Counts everything the engine holds: the stream sources by raw
    /// scan, the live sources through their index. Returns
    /// `(checks, failed)`.
    pub fn check_all_records(&self, expected: &Expected) -> (u64, u64) {
        let (mut checks, mut failed) = self.check_counts(expected);
        for (&source, want) in self.schema.stream.iter().zip(expected.stream) {
            let mut n = 0u64;
            let scanned = self
                .loom
                .raw_scan(source, TimeRange::new(0, u64::MAX), |_| n += 1);
            checks += 1;
            failed += u64::from(scanned.is_err() || n != want);
        }
        (checks, failed)
    }

    /// Abandons the writer as a crash would — nothing is flushed beyond
    /// what the acks already forced out — and reopens the directory:
    /// every acknowledged record must still be there.
    pub fn crash_and_reopen(&mut self, tr: &mut Tracer, op: u64) {
        self.writer
            .take()
            .expect("the session owns its writer")
            .simulate_crash();
        self.reopen("durability.recovery.crash", tr, op, ROOT);
    }

    /// Opens the data directory again (the previous handles must have
    /// been closed or crashed) and installs the new handles; returns the
    /// time `Loom::open` took, ns.
    fn reopen(&mut self, name: &'static str, tr: &mut Tracer, op: u64, parent: u32) -> u64 {
        let ((loom, writer), ns) = tr.timed(name, op, parent, || {
            Loom::open_with_clock(self.config.clone(), Clock::manual(0)).expect("reopen")
        });
        self.loom = loom;
        self.writer = Some(writer);
        ns
    }

    /// `cycles` times: `sync_durable`, `simulate_crash`, reopen (full
    /// CRC scan), check counts, then [`CLEAN_PER_CYCLE`] times `close`,
    /// reopen (clean fast path), check counts. The session stays open
    /// afterwards.
    pub fn reopen_cycles(
        &mut self,
        cycles: usize,
        expected: &Expected,
        tr: &mut Tracer,
        first_op: u64,
    ) -> ReopenRun {
        let mut run = ReopenRun::default();
        let tally = |(checks, failed): (u64, u64), run: &mut ReopenRun| {
            run.checks += checks;
            run.failed_checks += failed;
        };
        for cycle in 0..cycles {
            let op = first_op + cycle as u64;
            let root = tr.begin("reopen_cycle", op, ROOT);
            let mut writer = self.writer.take().expect("the session owns its writer");
            let ((), ns) = tr.timed("engine.sync_durable", op, root, || {
                writer.sync_durable().expect("sync_durable")
            });
            run.sync_durable_ms.push(ns as f64 / 1e6);
            writer.simulate_crash();
            let ns = self.reopen("durability.recovery.crash", tr, op, root);
            run.crash_ms.push(ns as f64 / 1e6);
            run.crash_report = self.loom.recovery_report();
            let scanned = run.crash_report.as_ref().is_some_and(|r| !r.clean);
            tally((1, u64::from(!scanned)), &mut run);
            tally(self.check_counts(expected), &mut run);

            for _ in 0..CLEAN_PER_CYCLE {
                let writer = self.writer.take().expect("reopened writer");
                let ((), ns) =
                    tr.timed("engine.close", op, root, || writer.close().expect("close"));
                run.close_ms.push(ns as f64 / 1e6);
                let ns = self.reopen("durability.recovery.clean", tr, op, root);
                run.clean_ms.push(ns as f64 / 1e6);
                let clean = self.loom.recovery_report().is_some_and(|r| r.clean);
                tally((1, u64::from(!clean)), &mut run);
                tally(self.check_counts(expected), &mut run);
            }
            tr.end(root);
        }
        run
    }

    /// Closes the engine and removes its directory.
    pub fn destroy(mut self) {
        if let Some(writer) = self.writer.take() {
            writer.close().expect("close");
        }
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}
