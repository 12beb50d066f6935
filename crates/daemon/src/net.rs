//! TCP network service: ingest connections and live subscriptions.
//!
//! This is the server half of the wire protocol defined in
//! [`loom::net`]: a [`NetServer`] accepts connections on a listen
//! address, runs the versioned hello handshake, and then serves either
//! role:
//!
//! * **Ingest** — record batches are pushed through the shared
//!   [`WriterSlot`], synced, and acknowledged with a durable watermark.
//!   Replay after a disconnect is deduplicated by `(client_id,
//!   batch_seq)`, so the client's at-least-once retransmission becomes
//!   exactly-once ingest. A Degraded/ReadOnly engine answers with a
//!   typed NACK immediately instead of stalling the socket.
//! * **Subscribe** — a standing subscription (source + time/value
//!   predicate) is served incrementally from `raw_scan` windows. Each
//!   subscriber gets a bounded delivery queue and chooses what happens
//!   when it falls behind: block the pump, drop with a gap marker, or
//!   disconnect.
//!
//! Every connection runs with read/write timeouts; the read timeout
//! doubles as the poll granularity for the drain flag, so
//! [`NetServer::drain`] can stop the accept loop, let every connection
//! send its terminal frames, and join all handler threads before the
//! process closes the engine. See `DESIGN.md` §13 for the failure
//! model.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use loom::net::{
    read_frame, schema_fingerprint, write_frame, Message, NackCode, Role, SlowConsumerPolicy,
    SubscribeSpec, PROTO_VERSION,
};
use loom::{EngineHealth, Loom, LoomError, NetObs, SourceId, TimeRange};

/// The writer slot shared between the server, the interactive shell,
/// and the shutdown path: taking the writer out closes the instance
/// exactly once, and an emptied slot tells ingest connections the
/// process is shutting down.
pub type WriterSlot = Arc<Mutex<Option<loom::LoomWriter>>>;

/// Tuning knobs for the network service.
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Socket read timeout; also the granularity at which connection
    /// loops notice the drain flag.
    pub read_timeout: Duration,
    /// Socket write timeout. Bounds how long a slow consumer can stall
    /// a subscription writer thread.
    pub write_timeout: Duration,
    /// How often subscription pumps look for newly ingested records.
    pub sub_poll: Duration,
    /// Delivery-queue bound (in frames) used when a subscription asks
    /// for the server default (`queue_cap == 0`).
    pub default_queue_cap: usize,
}

impl Default for NetOptions {
    fn default() -> NetOptions {
        NetOptions {
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(5),
            sub_poll: Duration::from_millis(20),
            default_queue_cap: 64,
        }
    }
}

/// Most records a subscription packs into one `SubData` frame, keeping
/// every frame far below [`loom::net::MAX_FRAME`].
const SUB_DATA_BATCH: usize = 256;

/// State shared by the accept loop and every connection handler.
struct Shared {
    loom: Loom,
    writer: WriterSlot,
    obs: Arc<NetObs>,
    opts: NetOptions,
    /// Drain flag: set once by [`NetServer::drain`], polled everywhere.
    stop: AtomicBool,
    /// Durable watermark per client id: the highest `batch_seq` whose
    /// batch has been ingested and synced. Replayed batches at or below
    /// it are re-acked without touching the engine.
    replay: Mutex<HashMap<u64, u64>>,
    /// Serializes resolve-by-name: `define_source` always allocates, so
    /// two clients racing on the same new name would otherwise mint two
    /// ids and split the stream.
    resolve_lock: Mutex<()>,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// A running network service. Dropping the handle does *not* stop the
/// server; call [`NetServer::drain`] for an orderly stop.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:7600"`, or port `0` to let the OS
    /// pick) and starts the accept loop.
    pub fn start(
        loom: Loom,
        writer: WriterSlot,
        addr: &str,
        opts: NetOptions,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Nonblocking accept so the loop can poll the drain flag.
        listener.set_nonblocking(true)?;
        let obs = loom.net_obs();
        let shared = Arc::new(Shared {
            loom,
            writer,
            obs,
            opts,
            stop: AtomicBool::new(false),
            replay: Mutex::named("daemon.replay", HashMap::new()),
            resolve_lock: Mutex::named("daemon.resolve", ()),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> =
            Arc::new(Mutex::named("daemon.conns", Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(&listener, &shared, &conns))
        };
        Ok(NetServer {
            shared,
            local_addr,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address — what clients dial, useful with port `0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, lets every connection finish its exchange and
    /// send terminal subscription frames, and joins all handler threads.
    ///
    /// Returns `Err` with the number of stuck connections if they do
    /// not drain within `timeout`; the caller should treat that as a
    /// failed shutdown (nonzero exit) but may still close the engine —
    /// ingest handlers cannot touch a writer the slot no longer holds.
    pub fn drain(mut self, timeout: Duration) -> Result<(), String> {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let deadline = Instant::now() + timeout;
        loop {
            let mut conns = self.conns.lock();
            let mut stuck = Vec::new();
            for h in conns.drain(..) {
                if h.is_finished() {
                    let _ = h.join();
                } else {
                    stuck.push(h);
                }
            }
            let remaining = stuck.len();
            *conns = stuck;
            drop(conns);
            if remaining == 0 {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "{remaining} connection(s) did not drain within {timeout:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if shared.stopping() {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                // Chaos site: refuse this connection (the client sees a
                // reset and retries with backoff); keep serving others.
                if loom::fault::check(loom::fault::NET_ACCEPT, &peer.to_string()).is_some() {
                    drop(stream);
                    continue;
                }
                let shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    shared.obs.connection_opened();
                    serve_conn(&shared, stream);
                    shared.obs.connection_closed();
                });
                let mut conns = conns.lock();
                // Reap finished handlers so a long-lived server does not
                // accumulate dead join handles.
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// True for the read-timeout errors the connection loops use as their
/// poll tick.
fn is_timeout(err: &LoomError) -> bool {
    matches!(
        err,
        LoomError::Io(e) if e.kind() == io::ErrorKind::WouldBlock
            || e.kind() == io::ErrorKind::TimedOut
    )
}

/// Reads one message, treating read timeouts as poll ticks until the
/// drain flag is set. `Ok(None)` means the server is draining.
fn recv_poll(
    stream: &mut TcpStream,
    shared: &Shared,
    tag: &str,
) -> Result<Option<Message>, LoomError> {
    loop {
        if shared.stopping() {
            return Ok(None);
        }
        match read_frame(stream, tag) {
            Ok((ty, body)) => {
                shared.obs.frame_read();
                return Message::decode(ty, &body).map(Some);
            }
            Err(e) if is_timeout(&e) => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Sends one message, counting the frame.
fn send(stream: &mut TcpStream, shared: &Shared, msg: &Message) -> Result<(), LoomError> {
    write_frame(
        stream,
        msg.frame_type(),
        &msg.encode_body(),
        msg.type_name(),
    )?;
    shared.obs.frame_written();
    Ok(())
}

/// The current schema fingerprint: open source names only, so closing a
/// source changes the fingerprint just like defining one.
fn current_fingerprint(loom: &Loom) -> u64 {
    schema_fingerprint(
        loom.sources()
            .into_iter()
            .filter(|(_, _, closed)| !closed)
            .map(|(_, name, _)| name)
            .collect(),
    )
}

/// Resolves `name` to a source id, defining it if absent.
/// `define_source` always allocates, so the by-name search must come
/// first — under [`Shared::resolve_lock`] — to keep resolution
/// idempotent across clients and reconnects.
fn resolve_source(shared: &Shared, name: &str) -> SourceId {
    let _guard = shared.resolve_lock.lock();
    for (sid, sname, closed) in shared.loom.sources() {
        if !closed && sname == name {
            return sid;
        }
    }
    shared.loom.define_source(name)
}

/// Runs one connection: handshake, then the role's conversation. All
/// exits (protocol violation, I/O error, drain) funnel here so the
/// disconnect counter stays accurate.
fn serve_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.opts.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.opts.write_timeout));
    let _ = stream.set_nodelay(true);
    let hello = match recv_poll(&mut stream, shared, "server-hello") {
        Ok(Some(m)) => m,
        Ok(None) => return,
        Err(_) => {
            shared.obs.disconnect();
            return;
        }
    };
    let Message::Hello {
        version,
        role,
        client_id,
        schema_fingerprint: client_fp,
    } = hello
    else {
        let _ = send_nack(&mut stream, shared, 0, NackCode::BadFrame, "expected hello");
        shared.obs.disconnect();
        return;
    };
    if version != PROTO_VERSION {
        let detail = format!("server speaks v{PROTO_VERSION}, client sent v{version}");
        let _ = send_nack(&mut stream, shared, 0, NackCode::Version, &detail);
        return;
    }
    let server_fp = current_fingerprint(&shared.loom);
    if client_fp != 0 && client_fp != server_fp {
        let detail = format!("client schema {client_fp:#x}, server {server_fp:#x}");
        let _ = send_nack(&mut stream, shared, 0, NackCode::SchemaMismatch, &detail);
        return;
    }
    let last_acked_seq = {
        let replay = shared.replay.lock();
        replay.get(&client_id).copied().unwrap_or(0)
    };
    let ack = Message::HelloAck {
        version: PROTO_VERSION,
        schema_fingerprint: server_fp,
        last_acked_seq,
    };
    if send(&mut stream, shared, &ack).is_err() {
        shared.obs.disconnect();
        return;
    }
    match role {
        Role::Ingest => serve_ingest(shared, &mut stream, client_id),
        Role::Subscribe => serve_subscribe(shared, &mut stream),
    }
}

fn send_nack(
    stream: &mut TcpStream,
    shared: &Shared,
    batch_seq: u64,
    code: NackCode,
    detail: &str,
) -> Result<(), LoomError> {
    let msg = Message::Nack {
        batch_seq,
        code,
        detail: detail.to_string(),
    };
    send(stream, shared, &msg)?;
    shared.obs.nack_sent();
    Ok(())
}

/// The ingest conversation: `Resolve` and `IngestBatch` requests until
/// the peer hangs up or the server drains.
fn serve_ingest(shared: &Arc<Shared>, stream: &mut TcpStream, client_id: u64) {
    loop {
        let msg = match recv_poll(stream, shared, "server-ingest") {
            Ok(Some(m)) => m,
            Ok(None) => {
                // Draining: tell the peer instead of silently hanging up
                // so its next batch fails fast.
                let _ = send_nack(stream, shared, 0, NackCode::ShuttingDown, "server draining");
                return;
            }
            Err(LoomError::Corrupt(detail)) => {
                let _ = send_nack(stream, shared, 0, NackCode::BadFrame, &detail);
                shared.obs.disconnect();
                return;
            }
            Err(_) => {
                shared.obs.disconnect();
                return;
            }
        };
        let outcome = match msg {
            Message::Resolve { name } => {
                let sid = resolve_source(shared, &name);
                send(
                    stream,
                    shared,
                    &Message::Resolved {
                        source: sid.0,
                        name,
                    },
                )
            }
            Message::IngestBatch {
                source,
                batch_seq,
                payloads,
            } => ingest_batch(shared, stream, client_id, source, batch_seq, payloads),
            other => {
                let detail = format!(
                    "unexpected {} frame on an ingest connection",
                    other.type_name()
                );
                let _ = send_nack(stream, shared, 0, NackCode::BadFrame, &detail);
                shared.obs.disconnect();
                return;
            }
        };
        if outcome.is_err() {
            shared.obs.disconnect();
            return;
        }
    }
}

/// Ingests one batch and answers with an ack or a typed nack. The
/// `Err` return means the *socket* failed and the connection must end;
/// engine-side refusals are `Ok` after a nack.
fn ingest_batch(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    client_id: u64,
    source: u32,
    batch_seq: u64,
    payloads: Vec<Vec<u8>>,
) -> Result<(), LoomError> {
    // Replay dedup: a batch at or below the durable watermark has
    // already been ingested in full — re-ack without touching the
    // engine, making client retransmission idempotent.
    let watermark = {
        let replay = shared.replay.lock();
        replay.get(&client_id).copied().unwrap_or(0)
    };
    if batch_seq <= watermark {
        shared.obs.replay_deduped();
        return send_ack(shared, stream, batch_seq, watermark);
    }
    // Fail fast instead of stalling the socket: a Degraded/ReadOnly
    // engine cannot promise durability, so the batch is refused with a
    // typed code the client can act on.
    match shared.loom.health() {
        EngineHealth::Healthy => {}
        h @ (EngineHealth::Degraded { .. } | EngineHealth::ReadOnly { .. }) => {
            return send_nack(
                stream,
                shared,
                batch_seq,
                NackCode::Degraded,
                &h.to_string(),
            );
        }
    }
    let total = payloads.len() as u64;
    let pushed_result = {
        let mut slot = shared.writer.lock();
        let Some(writer) = slot.as_mut() else {
            return send_nack(
                stream,
                shared,
                batch_seq,
                NackCode::ShuttingDown,
                "writer already closed",
            );
        };
        let mut pushed = 0u64;
        let mut err = None;
        for payload in &payloads {
            match writer.push(SourceId(source), payload) {
                Ok(_) => pushed += 1,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        if err.is_none() {
            // The staged tail must reach the log before the watermark
            // moves. `sync()` is a page-cache write barrier with no
            // `fdatasync`: an acked batch survives a process kill, not a
            // power cut.
            if let Err(e) = writer.sync() {
                err = Some(e);
            }
        }
        (pushed, err)
    };
    match pushed_result {
        (pushed, Some(e)) => {
            let (code, retryable) = nack_code_for(&e);
            if pushed == 0 && retryable {
                // Nothing of the batch is in the log; the client may
                // retry the same sequence later.
                send_nack(stream, shared, batch_seq, code, &e.to_string())
            } else {
                // A prefix (or an unsynced whole) of the batch is in
                // the log. Consuming the sequence keeps replay
                // exactly-once: a retransmission re-acks instead of
                // duplicating the prefix. The nack tells the client the
                // batch is NOT fully durable; `Degraded` is
                // non-retryable, so the client drops it rather than
                // looping forever.
                advance_watermark(shared, client_id, batch_seq);
                let detail =
                    format!("partial batch: {pushed}/{total} records ingested before: {e}");
                send_nack(stream, shared, batch_seq, NackCode::Degraded, &detail)
            }
        }
        (_, None) => {
            let watermark = advance_watermark(shared, client_id, batch_seq);
            shared.obs.batch_ingested(total);
            send_ack(shared, stream, batch_seq, watermark)
        }
    }
}

/// Maps an engine push/sync error to its wire code, and whether the
/// client may retry the same batch sequence.
fn nack_code_for(e: &LoomError) -> (NackCode, bool) {
    match e {
        LoomError::Overloaded => (NackCode::Overloaded, true),
        LoomError::RecordTooLarge { .. } => (NackCode::TooLarge, false),
        LoomError::UnknownSource(_) | LoomError::SourceClosed(_) => {
            (NackCode::UnknownSource, false)
        }
        _ => (NackCode::Degraded, false),
    }
}

fn advance_watermark(shared: &Shared, client_id: u64, batch_seq: u64) -> u64 {
    let mut replay = shared.replay.lock();
    let entry = replay.entry(client_id).or_insert(0);
    *entry = (*entry).max(batch_seq);
    *entry
}

fn send_ack(
    shared: &Shared,
    stream: &mut TcpStream,
    batch_seq: u64,
    watermark: u64,
) -> Result<(), LoomError> {
    // Chaos site: die after the batch is durable but before the client
    // learns so. The client replays on reconnect; the watermark dedups.
    if let Some(kind) = loom::fault::check(loom::fault::NET_ACK_SEND, &batch_seq.to_string()) {
        return Err(LoomError::Io(kind.to_io_error()));
    }
    send(
        stream,
        shared,
        &Message::Ack {
            batch_seq,
            watermark,
        },
    )?;
    shared.obs.ack_sent();
    Ok(())
}

/// One subscriber's bounded delivery queue, shared between the pump
/// (producer) and the socket writer thread (consumer).
struct SubQueue {
    frames: std::collections::VecDeque<Message>,
    /// Records shed under `DropWithGap` that still need a gap marker.
    pending_gap: u64,
    /// No more frames will be enqueued; the writer exits once empty.
    closed: bool,
}

type QueueHandle = Arc<(Mutex<SubQueue>, Condvar)>;

/// The subscribe conversation: one `Subscribe` registration, then a
/// server-push stream until drain, error, or slow-consumer disconnect.
fn serve_subscribe(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let spec = match recv_poll(stream, shared, "server-subscribe") {
        Ok(Some(Message::Subscribe(spec))) => spec,
        Ok(Some(other)) => {
            let detail = format!("expected subscribe, got {}", other.type_name());
            let _ = send_nack(stream, shared, 0, NackCode::BadFrame, &detail);
            shared.obs.disconnect();
            return;
        }
        Ok(None) => {
            return;
        }
        Err(_) => {
            shared.obs.disconnect();
            return;
        }
    };
    let source = resolve_source(shared, &spec.source);
    shared.obs.subscription_opened();
    run_subscription(shared, stream, source, &spec);
    shared.obs.subscription_closed();
}

/// Pumps `raw_scan` windows into the bounded queue while a writer
/// thread drains it to the socket. Returns when the subscription ends.
fn run_subscription(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    source: SourceId,
    spec: &SubscribeSpec,
) {
    let cap = if spec.queue_cap == 0 {
        shared.opts.default_queue_cap
    } else {
        spec.queue_cap as usize
    }
    .max(1);
    let queue: QueueHandle = Arc::new((
        Mutex::named(
            "daemon.sub_queue",
            SubQueue {
                frames: std::collections::VecDeque::new(),
                pending_gap: 0,
                closed: false,
            },
        ),
        Condvar::new(),
    ));
    let writer = {
        let Ok(out) = stream.try_clone() else {
            shared.obs.disconnect();
            return;
        };
        let queue = Arc::clone(&queue);
        let shared = Arc::clone(shared);
        std::thread::spawn(move || sub_writer(&shared, out, &queue))
    };

    // The subscriber never sends another frame after `Subscribe`, so
    // the read side only matters as a liveness probe (below); a short
    // timeout keeps the probe from slowing the pump cadence.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(5)));

    // The pump owns `prev`: the next window starts there. Windows are
    // `[prev, bound - 1]` with `bound` read under the writer lock, so a
    // completed push is always in exactly one window (the engine clock
    // is monotonic and stamps inside `push`).
    let mut prev = spec.start_ts;
    let end_reason = loop {
        if shared.stopping() {
            // Final window so subscribers see everything ingested
            // before the drain began, then the terminal frame.
            let _ = pump_window(shared, source, spec, &mut prev, cap, &queue);
            break "shutdown".to_string();
        }
        // On an idle source nothing is ever enqueued, so the writer
        // thread never touches the socket and a silently-vanished peer
        // would leave this pump polling forever. The read side is
        // otherwise unused: EOF there is the disconnect signal.
        if peer_gone(stream) {
            break "peer gone".to_string();
        }
        std::thread::sleep(shared.opts.sub_poll);
        match pump_window(shared, source, spec, &mut prev, cap, &queue) {
            Ok(()) => {}
            Err(reason) => break reason,
        }
    };
    enqueue_terminal(
        shared,
        &queue,
        spec.sub_id,
        Message::SubEnd {
            sub_id: spec.sub_id,
            reason: end_reason,
        },
    );
    let _ = writer.join();
}

/// Scans one `[prev, bound - 1]` window and enqueues the matches.
/// `Err(reason)` ends the subscription.
fn pump_window(
    shared: &Arc<Shared>,
    source: SourceId,
    spec: &SubscribeSpec,
    prev: &mut u64,
    cap: usize,
    queue: &QueueHandle,
) -> Result<(), String> {
    // Reading the clock under the writer lock means no push is in
    // flight: everything stamped `< bound` is visible to this scan, and
    // later pushes stamp `>= bound`, landing in the next window. That
    // is what makes delivery zero-loss and zero-duplicate.
    let bound = {
        let _guard = shared.writer.lock();
        shared.loom.now()
    };
    if bound <= *prev {
        return flush_gap(shared, spec, cap, queue);
    }
    let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
    let scan = shared
        .loom
        .raw_scan(source, TimeRange::new(*prev, bound - 1), |r| {
            if spec.matches(r.payload) {
                records.push((r.ts, r.payload.to_vec()));
            }
        });
    if let Err(e) = scan {
        return Err(format!("scan failed: {e}"));
    }
    *prev = bound;
    // raw_scan yields newest-first; deliveries are oldest-first.
    records.reverse();
    flush_gap(shared, spec, cap, queue)?;
    for chunk in records.chunks(SUB_DATA_BATCH) {
        let n = chunk.len() as u64;
        let frame = Message::SubData {
            sub_id: spec.sub_id,
            records: chunk.to_vec(),
        };
        enqueue(shared, spec, cap, queue, frame, n)?;
    }
    Ok(())
}

/// True when the subscriber's socket has been closed or reset. `peek`
/// returns 0 on an orderly shutdown; a timeout means the peer is simply
/// quiet (which subscribers always are), and pending bytes mean it is
/// alive (whatever they turn out to be — the protocol ignores them).
fn peer_gone(stream: &TcpStream) -> bool {
    let mut probe = [0u8; 1];
    match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => !matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ),
    }
}

/// Emits the gap marker owed by earlier `DropWithGap` sheds, once there
/// is queue room.
fn flush_gap(
    shared: &Arc<Shared>,
    spec: &SubscribeSpec,
    cap: usize,
    queue: &QueueHandle,
) -> Result<(), String> {
    let (lock, cond) = &**queue;
    let mut q = lock.lock();
    if q.closed {
        return Err("peer gone".to_string());
    }
    if q.pending_gap > 0 && q.frames.len() < cap {
        let dropped = std::mem::take(&mut q.pending_gap);
        q.frames.push_back(Message::SubGap {
            sub_id: spec.sub_id,
            dropped,
        });
        shared.obs.queue_push();
        cond.notify_all();
    }
    Ok(())
}

/// Enqueues one data frame, applying the subscription's slow-consumer
/// policy when the queue is full. `Err(reason)` ends the subscription.
fn enqueue(
    shared: &Arc<Shared>,
    spec: &SubscribeSpec,
    cap: usize,
    queue: &QueueHandle,
    frame: Message,
    n_records: u64,
) -> Result<(), String> {
    let (lock, cond) = &**queue;
    let mut q = lock.lock();
    while q.frames.len() >= cap {
        if q.closed {
            return Err("peer gone".to_string());
        }
        match spec.policy {
            SlowConsumerPolicy::Block => {
                // Backpressure lands on this subscription's pump only;
                // ingest and other subscribers are unaffected. The
                // writer thread's socket timeout bounds the wait.
                let (guard, _timeout) = cond.wait_timeout(q, Duration::from_millis(50));
                q = guard;
            }
            SlowConsumerPolicy::DropWithGap => {
                q.pending_gap += n_records;
                shared.obs.slow_consumer_drop(n_records);
                return Ok(());
            }
            SlowConsumerPolicy::Disconnect => {
                shared.obs.slow_consumer_drop(n_records);
                return Err("slow consumer".to_string());
            }
        }
    }
    if q.closed {
        return Err("peer gone".to_string());
    }
    shared.obs.delivery(n_records);
    shared.obs.queue_push();
    q.frames.push_back(frame);
    cond.notify_all();
    Ok(())
}

/// Enqueues the terminal frame past the cap (it must not be droppable)
/// and closes the queue, releasing the writer thread once it drains.
/// Any gap still owed is flushed first, so a subscriber can always
/// account for every record as delivered-or-gapped.
fn enqueue_terminal(shared: &Arc<Shared>, queue: &QueueHandle, sub_id: u64, frame: Message) {
    let (lock, cond) = &**queue;
    let mut q = lock.lock();
    if !q.closed {
        if q.pending_gap > 0 {
            let dropped = std::mem::take(&mut q.pending_gap);
            q.frames.push_back(Message::SubGap { sub_id, dropped });
            shared.obs.queue_push();
        }
        q.frames.push_back(frame);
        shared.obs.queue_push();
    }
    q.closed = true;
    cond.notify_all();
}

/// The subscription's socket writer: drains the queue until it is
/// closed *and* empty, or the socket dies (which closes the queue so
/// the pump stops promptly).
fn sub_writer(shared: &Arc<Shared>, mut out: TcpStream, queue: &QueueHandle) {
    let (lock, cond) = &**queue;
    loop {
        let frame = {
            let mut q = lock.lock();
            loop {
                if let Some(frame) = q.frames.pop_front() {
                    shared.obs.queue_pop();
                    cond.notify_all();
                    break frame;
                }
                if q.closed {
                    return;
                }
                let (guard, _timeout) = cond.wait_timeout(q, Duration::from_millis(50));
                q = guard;
            }
        };
        if send(&mut out, shared, &frame).is_err() {
            shared.obs.disconnect();
            let mut q = lock.lock();
            q.closed = true;
            // The cleared frames were counted on push; keep the depth
            // gauge exact.
            for _ in 0..q.frames.len() {
                shared.obs.queue_pop();
            }
            q.frames.clear();
            cond.notify_all();
            return;
        }
    }
}
