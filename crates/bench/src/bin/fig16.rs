//! Figure 16: impact of Loom's indexes on query latency (ablation).
//!
//! Loads a RocksDB-phase-2-like syscall stream, then runs the same
//! indexed range scan ("high-latency syscalls within a fixed window")
//! under four configurations: no indexes, timestamp index only, chunk
//! index only, and both. The lookback (how far in the past the window
//! starts) is swept; each measurement repeats and reports the minimum
//! (warm-cache interactive latency).
//!
//! Paper result shape: without indexes, latency grows with lookback
//! (scan back from the tail). The timestamp index alone makes latency
//! flat but high (it still scans the whole window). The chunk index
//! skips chunks inside the window. Both together are flat *and* low —
//! the benefits compose.

use bench::caseload::{min_time, synthesize_syscalls};
use bench::{ms, scratch_dir, Args, Table};
use loom::{extract, Clock, Config, HistogramSpec, Loom, QueryOptions, TimeRange, ValueRange};
use telemetry::records::LATENCY_NS_OFFSET;

fn main() {
    let args = Args::parse();
    let dir = scratch_dir("fig16");
    let (l, mut writer) = Loom::open_with_clock(
        Config::new(&dir).with_chunk_size(64 * 1024),
        Clock::manual(0),
    )
    .expect("open loom");
    let syscalls = l.define_source("syscall");
    let latency_idx = l
        .define_index(
            syscalls,
            extract::u64_le_at(LATENCY_NS_OFFSET),
            HistogramSpec::exponential(1_000.0, 4.0, 12).expect("spec"),
        )
        .expect("index");

    let total_secs = args.phase_secs * 2.0;
    eprintln!(
        "loading ~{:.1}M syscall records ({} s of simulated time)...",
        telemetry::rocksdb::SYSCALL_RATE * args.scale * total_secs / 1e6,
        total_secs
    );
    let loaded = synthesize_syscalls(args.seed, args.scale, total_secs, |ts, bytes| {
        l.clock().set(ts.max(l.now()));
        writer.push(syscalls, bytes).expect("push");
    });
    writer.seal_active_chunk().expect("seal");
    eprintln!("loaded {loaded} records");

    // Window: a fixed slice (paper: 120 s); scaled to 15% of the run.
    let now = l.now();
    let window_ns = (total_secs * 0.15 * 1e9) as u64;
    let threshold = 500_000.0; // "high-latency" syscalls: >0.5 ms
    let configs = [
        (
            "none",
            QueryOptions {
                use_ts_index: false,
                use_chunk_index: false,
                parallelism: None,
            },
        ),
        (
            "ts-only",
            QueryOptions {
                use_ts_index: true,
                use_chunk_index: false,
                parallelism: None,
            },
        ),
        (
            "chunk-only",
            QueryOptions {
                use_ts_index: false,
                use_chunk_index: true,
                parallelism: None,
            },
        ),
        (
            "both",
            QueryOptions {
                use_ts_index: true,
                use_chunk_index: true,
                parallelism: None,
            },
        ),
    ];
    let lookback_fracs: &[f64] = if args.quick {
        &[0.3, 0.9]
    } else {
        &[0.2, 0.4, 0.6, 0.8, 1.0]
    };
    let repeats = if args.quick { 2 } else { 3 };

    // Warm the file cache once with a full-log scan.
    let mut sink = 0u64;
    l.query(syscalls)
        .index(latency_idx)
        .range(TimeRange::new(0, now))
        .value_range(ValueRange::all())
        .options(QueryOptions {
            use_ts_index: false,
            use_chunk_index: false,
            parallelism: None,
        })
        .scan(|_| sink += 1)
        .expect("warmup");
    eprintln!("warmup scanned {sink} records");

    let mut table = Table::new(
        "Figure 16: query latency (ms) vs lookback, by index configuration",
        &[
            "lookback_s",
            "none",
            "ts-only",
            "chunk-only",
            "both",
            "matches",
        ],
    );
    for frac in lookback_fracs {
        let max_lookback = now.saturating_sub(window_ns);
        let lookback_ns = (frac * max_lookback as f64) as u64;
        let start = now - lookback_ns;
        let range = TimeRange::new(start, (start + window_ns).min(now));
        let mut cells = vec![format!("{:.1}", lookback_ns as f64 / 1e9)];
        let mut matches = 0u64;
        for (_, opts) in &configs {
            let elapsed = min_time(repeats, || {
                let mut n = 0u64;
                l.query(syscalls)
                    .index(latency_idx)
                    .range(range)
                    .value_range(ValueRange::at_least(threshold))
                    .options(*opts)
                    .scan(|_| n += 1)
                    .expect("scan");
                matches = n;
            });
            cells.push(ms(elapsed));
        }
        cells.push(format!("{matches}"));
        table.row(&cells);
    }
    drop(writer);
    table.finish(&args);
    bench::cleanup(&dir);
    println!(
        "\nPaper shape: 'none' grows with lookback; 'ts-only' flat but high;\n\
         'chunk-only' reduces scanned data; 'both' is flat and lowest."
    );
}
