//! The five workloads. Each run is: set-up (several times; the last one
//! is kept), the workload's main phase for 70 % of `--seconds`, then
//! fixed-size companion phases, so that every user-visible metric exists
//! on every workload, and finally verification against the oracle.
//!
//! | workload | main phase | shards | tier |
//! |---|---|---|---|
//! | `lib_ingest` | reps: fresh dir, stream, crash→reopen, close→reopen | 1 | hot |
//! | `net_ingest` | 2 closed-loop `IngestClient`s, 64-record batches | 2 | hot |
//! | `query_hot` | rounds of the five query classes | 1 | hot |
//! | `query_cold` | the same rounds, every sealed chunk compacted | 1 | cold |
//! | `ingest_query_mix` | open-loop client beside a query thread | 2 | hot |

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use loom::net::IngestClient;
use loom::{Loom, MetricsSnapshot};

use crate::gen::Kind;
use crate::host::{pin_current, quiesce, settle_disk, Role};
use crate::openloop::{Schedule, LATE_LIMIT_NS};
use crate::oracle::{Class, Dataset};
use crate::session::{
    wait_visible, BuildTiming, Expected, Live, QueryRun, ReopenRun, Route, Schema, Server, Session,
    Tier, LIVE_BATCH, LIVE_DT,
};
use crate::stats::median;
use crate::trace::{Tracer, ROOT};

/// Batches per second of the open-loop client of `ingest_query_mix`: a
/// literal, set once to about a quarter of the records per second the
/// closed-loop `net_ingest` clients reach on the 2-core reference host
/// (≈0.43 M/s), and never derived at run time.
pub const OPEN_LOOP_BATCHES_PER_S: u64 = 400;
/// Records per open-loop batch.
pub const OPEN_LOOP_BATCH: usize = 256;
/// Share of `--seconds` the main phase runs for; the companion phases
/// are fixed-size and take about the rest on the reference host.
pub const MAIN_SHARE: f64 = 0.7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LibIngest,
    NetIngest,
    QueryHot,
    QueryCold,
    IngestQueryMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::LibIngest,
        Workload::NetIngest,
        Workload::QueryHot,
        Workload::QueryCold,
        Workload::IngestQueryMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LibIngest => "lib_ingest",
            Workload::NetIngest => "net_ingest",
            Workload::QueryHot => "query_hot",
            Workload::QueryCold => "query_cold",
            Workload::IngestQueryMix => "ingest_query_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: what the main phase is and which
    /// layers it leaves idle.
    pub fn why(self) -> &'static str {
        match self {
            Workload::LibIngest => "closed loop, 1 writer, library API, fresh dir per rep, then crash and clean reopen: the paper's headline write path; the socket layers do no work here",
            Workload::NetIngest => "closed loop, 2 IngestClients on 2 shards, 64-record batches: bytes on a socket to durable ack; the per-ack sync and the global writer slot dominate; the query layers idle",
            Workload::QueryHot => "closed loop, 1 query thread, five query classes over 800k preloaded records, every sealed chunk in the hot record log; the write path and retention idle",
            Workload::QueryCold => "the query_hot data, seed and mix with every sealed chunk compacted into compressed cold segments: isolates codec and segment cost; summary-only aggregates predicted flat",
            Workload::IngestQueryMix => "open loop, 1 IngestClient at 400 batches/s of 256 records beside 1 query thread and a visibility probe: writes beside reads, latency charged from the due time",
        }
    }

    pub fn shards(self) -> usize {
        match self {
            Workload::NetIngest | Workload::IngestQueryMix => 2,
            _ => 1,
        }
    }

    fn tier(self) -> Tier {
        match self {
            Workload::QueryCold => Tier::Cold,
            _ => Tier::Hot,
        }
    }

    /// Connections the main phase drives (0: no server is started).
    fn clients(self) -> usize {
        match self {
            Workload::NetIngest => 2,
            Workload::IngestQueryMix => 1,
            _ => 0,
        }
    }
}

/// Fixed operation counts of a run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Records of the standard stream preloaded in set-up.
    pub base_records: u64,
    pub setup_reps: usize,
    /// Query rounds where queries are a companion phase.
    pub companion_rounds: usize,
    /// Library-route batches of the ack companion phase.
    pub ack_batches: usize,
    pub visible_probes: usize,
    pub reopen_cycles: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        base_records: 800_000,
        setup_reps: 5,
        companion_rounds: 40,
        ack_batches: 5_000,
        visible_probes: 1_000,
        reopen_cycles: 3,
    };

    /// Tiny counts for the end-to-end smoke test.
    pub const SMOKE: Sizes = Sizes {
        base_records: 40_000,
        setup_reps: 2,
        companion_rounds: 2,
        ack_batches: 40,
        visible_probes: 5,
        reopen_cycles: 1,
    };
}

/// Exact engine counters read through public accessors.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub chunk_seals: u64,
    pub pad_bytes: u64,
    pub ts_entries: u64,
    pub snapshot: MetricsSnapshot,
}

impl Counters {
    fn capture(loom: &Loom) -> Counters {
        let s = loom.ingest_stats();
        Counters {
            chunk_seals: s.chunks_sealed(),
            pad_bytes: s.pad_bytes(),
            ts_entries: s.ts_entries(),
            snapshot: loom.metrics_snapshot(),
        }
    }
}

/// Everything a run measured, before it is reduced to metrics.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub gen_ns_per_rec: Vec<f64>,
    /// Every library stream of the run: set-ups, then `lib_ingest` reps.
    pub builds: Vec<BuildTiming>,
    /// Records per second, one sample per library stream (library
    /// workloads) or one for the whole socket phase.
    pub ingest_rec_per_s: Vec<f64>,
    /// Ack latency of the workload's own route, µs (open loop: from the
    /// due time).
    pub ack_us: Vec<f64>,
    /// Time inside `IngestClient::send_batch`, µs; empty on the library
    /// workloads.
    pub send_batch_us: Vec<f64>,
    /// Library-route ack latency, µs: measured on every workload, it is
    /// the engine part of a socket ack.
    pub lib_ack_us: Vec<f64>,
    pub sync_us: Vec<f64>,
    /// Open-loop generator lateness, µs.
    pub late_us: Vec<f64>,
    /// Open-loop batches sent more than [`LATE_LIMIT_NS`] after they
    /// were due.
    pub late_batches: u64,
    pub visible_us: Vec<f64>,
    pub queries: QueryRun,
    pub reopen: ReopenRun,
    pub disk_bytes_per_user_byte: f64,
    /// Counters right after the set-up build: exact for a seed.
    pub built: Counters,
    /// Counters at the end of the timed phases (before the reopens).
    pub end: Counters,
    pub tier_stats: Vec<loom::TierStats>,
    /// The main phase's unit cost with spans on and off (traced runs
    /// alternate): ns per record, µs per ack, or µs per query round.
    pub traced_unit: Vec<f64>,
    pub untraced_unit: Vec<f64>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable description of every failed check.
    pub failures: Vec<String>,
}

impl Samples {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 32 {
                self.failures.push(what());
            }
        }
    }

    fn absorb_reopen(&mut self, r: ReopenRun) {
        self.attempted += r.checks;
        self.failed += r.failed_checks;
        if r.failed_checks > 0 {
            self.failures.push(format!(
                "{} count checks failed after a reopen",
                r.failed_checks
            ));
        }
        let acc = &mut self.reopen;
        acc.crash_ms.extend(r.crash_ms);
        acc.clean_ms.extend(r.clean_ms);
        acc.close_ms.extend(r.close_ms);
        acc.sync_durable_ms.extend(r.sync_durable_ms);
        acc.crash_report = r.crash_report.or(acc.crash_report.take());
    }

    fn absorb_unit(&mut self, traced: bool, value: f64) {
        if traced {
            self.traced_unit.push(value);
        } else {
            self.untraced_unit.push(value);
        }
    }
}

/// What set-up leaves for the timed phases.
pub struct Env {
    pub data: Dataset,
    pub session: Session,
    server: Option<Server>,
    clients: Vec<IngestClient>,
}

impl Env {
    pub fn teardown(mut self) {
        drop(std::mem::take(&mut self.clients));
        if let Some(server) = self.server.take() {
            self.session.stop_server(server);
        }
        self.session.destroy();
    }
}

fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up: generate the data set, open a fresh engine, stream the data
/// through the library API, make it durable (cold: compact it), and for
/// the socket workloads start the server and connect the clients. The
/// last set-up is kept.
fn set_up(
    w: Workload,
    seed: u64,
    sizes: &Sizes,
    scratch: &Path,
    tr: &mut Tracer,
    s: &mut Samples,
) -> Env {
    assert!(
        sizes.setup_reps >= 2,
        "the first set-up's engine is used up by the reopen cycles"
    );
    let mut env: Option<Env> = None;
    for rep in 0..sizes.setup_reps {
        if let Some(prev) = env.take() {
            prev.teardown();
        }
        let op = rep as u64;
        quiesce(scratch);
        let t = Instant::now();
        let (data, gen_ns) = tr.timed("telemetry.generate", op, ROOT, || {
            Dataset::generate(seed, sizes.base_records)
        });
        let (mut session, timing) = Session::build(
            &scratch.join("main"),
            w.shards(),
            w.tier(),
            &data,
            true,
            tr,
            op,
        );
        let mut elapsed = t.elapsed();
        if rep == 0 && w != Workload::LibIngest {
            // The reopen cycles run on the first set-up's engine, which is
            // thrown away: on exactly the preloaded state, so that they do
            // not depend on how much the main phase ingests, and away from
            // the kept engine, whose closure indexes a reopen would close.
            let reopen =
                session.reopen_cycles(sizes.reopen_cycles, &expected_base(&data), tr, 50_000);
            s.absorb_reopen(reopen);
        }
        let t = Instant::now();
        let server = (w.clients() > 0).then(|| session.start_server(tr, op));
        let clients = (0..w.clients())
            .map(|c| {
                server
                    .as_ref()
                    .expect("server started")
                    .connect(c as u64 + 1)
            })
            .collect();
        elapsed += t.elapsed();
        s.setup_s.push(elapsed.as_secs_f64());
        s.gen_ns_per_rec.push(gen_ns as f64 / data.len() as f64);
        s.ingest_rec_per_s
            .push(data.len() as f64 / (timing.stream_ns as f64 / 1e9));
        s.builds.push(timing);
        env = Some(Env {
            data,
            session,
            server,
            clients,
        });
    }
    let env = env.expect("at least one set-up");
    // Taken on exactly the preloaded state: exact for a seed.
    s.disk_bytes_per_user_byte = env
        .session
        .disk_bytes_per_user_byte(env.data.payload_bytes());
    s.built = Counters::capture(&env.session.loom);
    s.tier_stats = env.session.loom.tier_stats();
    env
}

fn expected_base(data: &Dataset) -> Expected {
    Expected {
        stream: Kind::ALL.map(|k| data.count(k)),
        live: [0, 0],
    }
}

/// `lib_ingest` main phase: until the deadline (and at least twice), a
/// fresh directory takes the whole stream through the library API, then
/// is crashed and reopened, closed and reopened.
fn lib_ingest_main(
    env: &Env,
    deadline: Instant,
    trace: bool,
    scratch: &Path,
    tr: &mut Tracer,
    s: &mut Samples,
) {
    // Only this phase's streams count: the set-up streams ran before the
    // timed region.
    s.ingest_rec_per_s.clear();
    let expected = expected_base(&env.data);
    // Once: each rep's teardown leaves the next rep's pages warm.
    quiesce(scratch);
    let mut rep = 0u64;
    while rep < 2 || Instant::now() < deadline {
        let traced = trace && rep.is_multiple_of(2);
        tr.set_enabled(traced);
        let op = 1_000 + rep;
        let (mut session, timing) =
            Session::build(&scratch.join("rep"), 1, Tier::Hot, &env.data, false, tr, op);
        s.ingest_rec_per_s
            .push(env.data.len() as f64 / (timing.stream_ns as f64 / 1e9));
        s.absorb_unit(traced, timing.stream_ns as f64 / env.data.len() as f64);
        s.builds.push(timing);
        let reopen = session.reopen_cycles(1, &expected, tr, op);
        s.absorb_reopen(reopen);
        session.destroy();
        rep += 1;
    }
    tr.set_enabled(trace);
}

/// What one closed- or open-loop client thread measured.
#[derive(Default)]
struct ClientResult {
    ack_us: Vec<f64>,
    /// Time inside `send_batch`, µs (equals `ack_us` on a closed loop).
    service_us: Vec<f64>,
    late_us: Vec<f64>,
    /// `(traced, ack µs)` per batch.
    units: Vec<(bool, f64)>,
    errors: Vec<String>,
    late_batches: u64,
}

/// `net_ingest` main phase: every client sends 64-record batches back
/// to back until the deadline, each waiting for its ack.
fn net_closed_loop(
    loom: &Loom,
    schema: &Schema,
    clients: &mut [IngestClient],
    lives: &mut [Live],
    deadline: Instant,
    trace: bool,
    epoch: Instant,
) -> Vec<(ClientResult, Tracer)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lives)
            .map(|(client, live)| {
                scope.spawn(move || {
                    pin_current(Role::Load);
                    let mut tr = Tracer::new(trace, epoch, if trace { 1 << 20 } else { 0 });
                    let mut r = ClientResult::default();
                    let mut k = 0u64;
                    while k < 2 || Instant::now() < deadline {
                        let traced = trace && k.is_multiple_of(2);
                        tr.set_enabled(traced);
                        let op = ((live.which as u64 + 1) << 40) | k;
                        let root = tr.begin("batch", op, ROOT);
                        let res =
                            live.send(loom, schema, &mut Route::Net(client), &mut tr, op, root);
                        tr.end(root);
                        match res {
                            Ok(ns) => {
                                let us = ns as f64 / 1e3;
                                r.ack_us.push(us);
                                r.service_us.push(us);
                                r.units.push((traced, us));
                            }
                            Err(e) => r.errors.push(e),
                        }
                        k += 1;
                    }
                    tr.set_enabled(trace);
                    (r, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// The newest batch the open-loop client is sending, for the visibility
/// probe: `(k, sent_ns, last_seq)` published field by field, `k` last.
#[derive(Default)]
struct Announce {
    k: AtomicU64,
    sent_ns: AtomicU64,
    last_seq: AtomicU64,
}

/// `ingest_query_mix` main phase: the open-loop client runs on its own
/// thread for `seconds`; this thread runs query rounds and, after each
/// round, one visibility probe, until the client is done.
#[allow(clippy::too_many_arguments)]
fn mix_main(
    env: &Env,
    client: &mut IngestClient,
    live: &mut Live,
    seconds: f64,
    trace: bool,
    epoch: Instant,
    tr: &mut Tracer,
    s: &mut Samples,
) -> (ClientResult, Tracer) {
    let schedule = Schedule::per_second(OPEN_LOOP_BATCHES_PER_S);
    let total = schedule.ops_in(seconds);
    let trail = 4 * schedule.interval_ns;
    let announce = Announce::default();
    let done = AtomicBool::new(false);
    let (loom, schema) = (&env.session.loom, &env.session.schema);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            pin_current(Role::Load);
            live.shape(OPEN_LOOP_BATCH, schedule.interval_ns);
            let mut tr = Tracer::new(trace, epoch, if trace { 1 << 18 } else { 0 });
            let mut r = ClientResult::default();
            for k in 0..total {
                let traced = trace && k.is_multiple_of(2);
                tr.set_enabled(traced);
                let sent_ns = schedule.wait_until_due(start, k);
                // ORDERING: `k` is stored last with Release and loaded
                // first with Acquire, so a prober that sees the new `k`
                // sees this batch's `sent_ns` and `last_seq`.
                announce.sent_ns.store(sent_ns, Ordering::Relaxed);
                announce
                    .last_seq
                    .store(live.sent() + OPEN_LOOP_BATCH as u64 - 1, Ordering::Relaxed);
                announce.k.store(k + 1, Ordering::Release);
                let op = (1 << 40) | k;
                let root = tr.begin("batch", op, ROOT);
                let res = live.send(loom, schema, &mut Route::Net(client), &mut tr, op, root);
                tr.end(root);
                let charged = schedule.charge(k, sent_ns, start.elapsed().as_nanos() as u64);
                r.late_us.push(charged.late_ns as f64 / 1e3);
                if charged.late_ns > LATE_LIMIT_NS {
                    r.late_batches += 1;
                }
                match res {
                    Ok(ns) => {
                        r.service_us.push(ns as f64 / 1e3);
                        r.ack_us.push(charged.latency_ns as f64 / 1e3);
                        r.units.push((traced, charged.latency_ns as f64 / 1e3));
                    }
                    Err(e) => r.errors.push(e),
                }
            }
            done.store(true, Ordering::Release);
            tr.set_enabled(trace);
            live.shape(LIVE_BATCH, LIVE_DT);
            (r, tr)
        });

        // This thread is the query thread. Queries run inside the daemon,
        // so it stays on the engine CPUs and competes with the write path
        // for them; the load CPU is the client's alone, which keeps the
        // open-loop schedule exact.
        let mut round = 0u64;
        while !done.load(Ordering::Acquire) {
            let one = env
                .session
                .run_queries(&env.data, 1, tr, 10_000 + round * 5);
            s.queries.absorb(one);
            round += 1;

            // Wait (spinning: a sleep would oversleep the send) for the
            // client to announce the next batch, so that the probe starts
            // as that batch leaves, then poll until its last record is
            // visible.
            let before = announce.k.load(Ordering::Acquire);
            let fresh = loop {
                let k = announce.k.load(Ordering::Acquire);
                if k != before {
                    break Some(k);
                }
                if done.load(Ordering::Acquire) {
                    break None;
                }
                std::hint::spin_loop();
            };
            if let Some(k) = fresh {
                let sent_ns = announce.sent_ns.load(Ordering::Relaxed);
                let last_seq = announce.last_seq.load(Ordering::Relaxed);
                let probe = tr.begin("visible.probe", 20_000 + round, ROOT);
                let seen = wait_visible(loom, schema, 0, last_seq, trail, Duration::from_secs(2));
                tr.end(probe);
                let lag_ns = (start.elapsed().as_nanos() as u64).saturating_sub(sent_ns);
                s.check(seen.is_some(), || {
                    format!("open-loop batch {k} (last seq {last_seq}) never became visible")
                });
                if seen.is_some() {
                    s.visible_us.push(lag_ns as f64 / 1e3);
                }
            }
        }
        handle.join().expect("open-loop client thread")
    })
}

/// Sequential visibility probes: send one batch, and once it is acked
/// poll until its last record is visible; the lag runs from the send.
fn visible_probes(
    env: &mut Env,
    live: &mut Live,
    mut client: Option<&mut IngestClient>,
    probes: usize,
    tr: &mut Tracer,
    s: &mut Samples,
) {
    let mut writer = env.session.writer.take();
    if client.is_some() {
        // As in the main phase, the socket client runs on the load CPU.
        pin_current(Role::Load);
    }
    for i in 0..probes {
        let op = 30_000 + i as u64;
        let root = tr.begin("visible", op, ROOT);
        let t = Instant::now();
        let mut route = match client.as_deref_mut() {
            Some(c) => Route::Net(c),
            None => Route::Lib(writer.as_mut().expect("the session owns its writer")),
        };
        let sent = live.send(
            &env.session.loom,
            &env.session.schema,
            &mut route,
            tr,
            op,
            root,
        );
        let seen = sent.as_ref().ok().and_then(|_| {
            let probe = tr.begin("visible.probe", op, root);
            let seen = wait_visible(
                &env.session.loom,
                &env.session.schema,
                live.which,
                live.sent() - 1,
                8 * LIVE_DT,
                Duration::from_secs(2),
            );
            tr.end(probe);
            seen
        });
        let lag_us = t.elapsed().as_nanos() as f64 / 1e3;
        tr.end(root);
        s.check(seen.is_some(), || match &sent {
            Err(e) => format!("visibility probe {i}: batch failed: {e}"),
            Ok(_) => format!("visibility probe {i}: acked batch never became visible"),
        });
        if seen.is_some() {
            s.visible_us.push(lag_us);
        }
    }
    pin_current(Role::Engine);
    env.session.writer = writer;
}

/// The library-route ack phase: `batches` times 64 pushes and one
/// `sync()`.
fn lib_acks(
    env: &mut Env,
    live: &mut Live,
    batches: usize,
    tr: &mut Tracer,
    s: &mut Samples,
) -> Vec<f64> {
    let mut writer = env
        .session
        .writer
        .take()
        .expect("the session owns its writer");
    let mut acks = Vec::with_capacity(batches);
    for i in 0..batches {
        let op = 40_000 + i as u64;
        let root = tr.begin("batch", op, ROOT);
        let res = live.send(
            &env.session.loom,
            &env.session.schema,
            &mut Route::Lib(&mut writer),
            tr,
            op,
            root,
        );
        tr.end(root);
        s.check(res.is_ok(), || format!("library batch {i} failed: {res:?}"));
        if let Ok(ns) = res {
            acks.push(ns as f64 / 1e3);
        }
    }
    env.session.writer = Some(writer);
    acks
}

fn absorb_clients(results: Vec<(ClientResult, Tracer)>, tr: &mut Tracer, s: &mut Samples) {
    for (r, tracer) in results {
        for e in &r.errors {
            s.check(false, || format!("socket batch failed: {e}"));
        }
        s.attempted += r.ack_us.len() as u64;
        s.late_batches += r.late_batches;
        s.ack_us.extend(r.ack_us);
        s.send_batch_us.extend(r.service_us);
        s.late_us.extend(r.late_us);
        for (traced, us) in r.units {
            s.absorb_unit(traced, us);
        }
        tr.merge(tracer);
    }
}

/// Runs one workload and returns its samples, the set-up environment
/// (still open, for the layer probes) and the data set.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: &Sizes,
    scratch: &Path,
    tr: &mut Tracer,
) -> (Samples, Env) {
    let mut s = Samples::default();
    let epoch = tr.epoch();
    let mut env = set_up(w, seed, sizes, scratch, tr, &mut s);
    let main_seconds = seconds * MAIN_SHARE;
    let deadline = Instant::now() + Duration::from_secs_f64(main_seconds);
    let mut lives = [Live::new(seed, 0), Live::new(seed, 1)];
    let mut clients = std::mem::take(&mut env.clients);
    let mut queries_done = false;

    match w {
        Workload::LibIngest => lib_ingest_main(&env, deadline, trace, scratch, tr, &mut s),
        Workload::NetIngest => {
            let t = Instant::now();
            let results = net_closed_loop(
                &env.session.loom,
                &env.session.schema,
                &mut clients,
                &mut lives,
                deadline,
                trace,
                epoch,
            );
            let wall = t.elapsed().as_secs_f64();
            absorb_clients(results, tr, &mut s);
            let acked = s.ack_us.len() * LIVE_BATCH;
            s.ingest_rec_per_s = vec![acked as f64 / wall];
        }
        Workload::QueryHot | Workload::QueryCold => {
            // Rounds alternate spans on and off in a traced run.
            let mut round = 0u64;
            while round < 2 || Instant::now() < deadline {
                let traced = trace && round.is_multiple_of(2);
                tr.set_enabled(traced);
                let one = env
                    .session
                    .run_queries(&env.data, 1, tr, 10_000 + round * 5);
                s.absorb_unit(traced, one.us.iter().map(|v| v[0]).sum());
                s.queries.absorb(one);
                round += 1;
            }
            tr.set_enabled(trace);
            queries_done = true;
        }
        Workload::IngestQueryMix => {
            let t = Instant::now();
            let result = mix_main(
                &env,
                &mut clients[0],
                &mut lives[0],
                main_seconds,
                trace,
                epoch,
                tr,
                &mut s,
            );
            let wall = t.elapsed().as_secs_f64();
            absorb_clients(vec![result], tr, &mut s);
            let acked = s.ack_us.len() * OPEN_LOOP_BATCH;
            s.ingest_rec_per_s = vec![acked as f64 / wall];
            queries_done = true;
        }
    }

    // Companion phases, fixed-size, once the main phase's writes have
    // reached the disk.
    settle_disk();
    if !queries_done {
        s.queries = env
            .session
            .run_queries(&env.data, sizes.companion_rounds, tr, 10_000);
    }
    let live = &mut lives[0];
    if w == Workload::NetIngest {
        let client = clients.first_mut();
        visible_probes(&mut env, live, client, sizes.visible_probes, tr, &mut s);
    }
    // The server goes away before the library-route phases need the
    // writer back.
    drop(clients);
    if let Some(server) = env.server.take() {
        env.session.stop_server(server);
    }
    s.lib_ack_us = lib_acks(&mut env, live, sizes.ack_batches, tr, &mut s);
    if w.clients() == 0 {
        s.ack_us = s.lib_ack_us.clone();
        visible_probes(&mut env, live, None, sizes.visible_probes, tr, &mut s);
    }
    s.sync_us = std::mem::take(&mut live.sync_us);
    s.end = Counters::capture(&env.session.loom);

    let mut expected = expected_base(&env.data);
    expected.live = [lives[0].sent(), lives[1].sent()];

    // Verification against the oracle.
    let rounds = s.queries.rounds() as u64;
    for (c, class) in Class::ALL.into_iter().enumerate() {
        let want = env.data.expect(class);
        let got = s.queries.outcomes[c];
        s.attempted += rounds.saturating_sub(1);
        s.check(got == want, || {
            format!("{}: engine returned {got:?}, oracle {want:?}", class.name())
        });
    }
    let unstable = s.queries.unstable;
    s.check(unstable == 0, || {
        format!("{unstable} query executions differed from the first of their class")
    });
    // Durability of the acks: crash without a final flush, reopen, count.
    env.session.crash_and_reopen(tr, 60_000);
    let (checks, failed) = env.session.check_all_records(&expected);
    s.attempted += checks;
    s.failed += failed;
    if failed > 0 {
        s.failures.push(format!(
            "{failed} sources hold a wrong number of records after the final crash"
        ));
    }
    s.peak_rss_mb = vm_hwm_mib();
    (s, env)
}

/// The end-to-end metrics of a run: `(name, value, samples behind it)`.
pub fn end_to_end(s: &Samples) -> Vec<(&'static str, f64, usize)> {
    let m = |name, v: &[f64]| (name, median(v), v.len());
    vec![
        m("setup_s", &s.setup_s),
        m("ingest_rec_per_s", &s.ingest_rec_per_s),
        m("ack_p50_us", &s.ack_us),
        m("visible_lag_p50_us", &s.visible_us),
        m("q_agg_summary_p50_us", &s.queries.us[0]),
        m("q_agg_pctl_p50_us", &s.queries.us[1]),
        m("q_scan_wide_p50_us", &s.queries.us[2]),
        m("q_scan_rare_p50_us", &s.queries.us[3]),
        m("q_raw_scan_p50_us", &s.queries.us[4]),
        ("disk_bytes_per_user_byte", s.disk_bytes_per_user_byte, 1),
        m("reopen_crash_ms", &s.reopen.crash_ms),
        ("peak_rss_mb", s.peak_rss_mb, 1),
    ]
}
