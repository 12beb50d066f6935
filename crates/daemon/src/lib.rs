//! # Bare-bones monitoring daemon for the Loom reproduction
//!
//! The paper deploys Loom as a library inside a monitoring daemon
//! (Figure 4) — a local collector like the OpenTelemetry Collector that
//! receives events from HFT sources and invokes the backend's API. For
//! evaluation, the authors wrote a 2 k-LoC bare-bones Rust daemon to
//! avoid confounding overheads; this crate is the equivalent.
//!
//! It provides:
//!
//! * [`pipeline::Daemon`] — a bounded channel + collector thread that
//!   decouples source threads from the capture backend;
//! * [`sinks`] — [`telemetry::TelemetrySink`] adapters for Loom,
//!   FishStore, and the TSDB (the raw-file and null sinks live in
//!   `telemetry`), so every experiment pushes the identical event stream
//!   through the identical interface;
//! * [`net`] — the TCP network service (`loomd --listen`): ingest
//!   connections with durable-watermark acks and replay dedup, plus
//!   standing subscriptions with bounded per-subscriber queues.

pub mod net;
pub mod pipeline;
pub mod sinks;

pub use net::{NetOptions, NetServer, WriterSlot};
pub use pipeline::{Daemon, DaemonEvent, DaemonHandle, DaemonStats};
pub use sinks::{FishStoreSink, LoomSink, TsdbSink};
