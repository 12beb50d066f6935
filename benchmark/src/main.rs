//! `loombench`: one seeded benchmark for Loom's socket → ack → query
//! path, the read path on the hot and the cold tier, and a per-layer
//! cost model. One invocation runs one workload:
//!
//! ```text
//! loombench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints, as the last line of its standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! fuller record (run metadata, sample counts, the layer sums) goes to
//! `benchmark/out/`. See `benchmark/README.md`.

mod catalog;
mod gen;
mod host;
mod layers;
mod openloop;
mod oracle;
mod session;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use catalog::MetricDef;
use layers::{LayerSum, Metrics, Put};
use trace::Tracer;
use workloads::{Sizes, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 0x100F;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

const USAGE: &str =
    "usage: loombench --workload <lib_ingest|net_ingest|query_hot|query_cold|ingest_query_mix>
                 [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out-dir <dir>]
       loombench --emit-benchmark-json | --glossary";

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::LibIngest,
        seed: DEFAULT_SEED,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = parse_u64(v).ok_or(format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Output of a command, or `"unknown"` (the driver's checkout is not a
/// git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir`, from `/proc/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn metrics_json(defs: &[MetricDef], values: &Metrics, with_samples: bool) -> String {
    let mut out = String::from("{");
    for (i, d) in defs.iter().enumerate() {
        let (value, n) = values[&d.name];
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"",
            d.name, d.unit
        );
        if with_samples {
            let _ = write!(out, ", \"samples\": {n}");
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// Checks that a run emitted exactly the catalogued names.
fn check_names(defs: &[MetricDef], values: &Metrics) -> Result<(), String> {
    let want: std::collections::BTreeSet<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    let got: std::collections::BTreeSet<&str> = values.keys().map(String::as_str).collect();
    if want == got {
        return Ok(());
    }
    Err(format!(
        "metric names differ from the catalog: missing {:?}, unexpected {:?}",
        want.difference(&got).collect::<Vec<_>>(),
        got.difference(&want).collect::<Vec<_>>()
    ))
}

struct RunOutcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: Vec<MetricDef>,
    metrics: Metrics,
}

impl RunOutcome {
    /// The result line of the driver's contract.
    fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.defs, &self.metrics, false)
        )
    }
}

fn run(args: &Args) -> Result<RunOutcome, String> {
    let sizes = if args.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {:?}: {e}", args.out_dir))?;
    let scratch = args.out_dir.join(format!("scratch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {scratch:?}: {e}"))?;
    let filesystem = filesystem_of(&scratch);

    let w = args.workload;
    // Before any engine is opened: its threads inherit this mask.
    host::pin_current(host::Role::Engine);
    let mut tr = Tracer::new(args.trace, Instant::now(), 1 << 21);
    let (samples, env) = workloads::run(
        w,
        args.seed,
        args.seconds,
        args.trace,
        &sizes,
        &scratch,
        &mut tr,
    );

    let mut e2e = Metrics::new();
    for (name, value, n) in workloads::end_to_end(&samples) {
        e2e.put(name, value, n);
    }
    let (layers, sums) = if args.trace {
        layers::collect(w, &samples, &env, &scratch, &mut tr)
    } else {
        (Metrics::new(), Vec::new())
    };
    env.teardown();
    let _ = std::fs::remove_dir_all(&scratch);

    let (defs, metrics) = if args.trace {
        (catalog::per_layer(), layers.clone())
    } else {
        (catalog::end_to_end(), e2e.clone())
    };
    check_names(&defs, &metrics)?;

    for f in &samples.failures {
        eprintln!("FAILED: {f}");
    }
    for sum in &sums {
        print_sum(sum);
    }

    let kind = if args.trace { "layers" } else { "e2e" };
    let detail = detail_json(args, &filesystem, &samples, &e2e, &layers, &sums, &tr);
    let path = args.out_dir.join(format!("{}.{kind}.json", w.name()));
    std::fs::write(&path, detail).map_err(|e| format!("write {path:?}: {e}"))?;
    if args.trace {
        let path = args.out_dir.join(format!("trace_{}.jsonl", w.name()));
        tr.write_jsonl(&path)
            .map_err(|e| format!("write {path:?}: {e}"))?;
    }
    Ok(RunOutcome {
        correct: samples.failed == 0,
        attempted: samples.attempted.max(1),
        failed: samples.failed,
        defs,
        metrics,
    })
}

fn print_sum(sum: &LayerSum) {
    eprintln!("{}", sum.title);
    for (name, v) in &sum.parts {
        eprintln!("  {v:12.2} {}  {name}", sum.unit);
    }
    eprintln!("  {:12.2} {}  residual", sum.residual(), sum.unit);
    eprintln!("  {:12.2} {}  {}", sum.total, sum.unit, sum.total_name);
}

/// The fuller record of a run: metadata, both metric sets with their
/// sample counts, the layer sums, and per-span-name totals.
fn detail_json(
    args: &Args,
    filesystem: &str,
    s: &workloads::Samples,
    e2e: &Metrics,
    layers: &Metrics,
    sums: &[LayerSum],
    tr: &Tracer,
) -> String {
    let mut out = String::from("{\n");
    let nproc = host::allowed_cpus();
    let _ = writeln!(out, "  \"workload\": \"{}\",", args.workload.name());
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(out, "  \"trace\": {},", args.trace);
    let _ = writeln!(out, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(out, "  \"nproc\": {nproc},");
    let _ = writeln!(
        out,
        "  \"cpus_engine\": {:?},",
        host::cpus(host::Role::Engine)
    );
    let _ = writeln!(out, "  \"cpus_load\": {:?},", host::cpus(host::Role::Load));
    let _ = writeln!(
        out,
        "  \"commit\": \"{}\",",
        command_line("git", &["rev-parse", "--short", "HEAD"])
    );
    let _ = writeln!(out, "  \"rustc\": \"{}\",", command_line("rustc", &["-V"]));
    let _ = writeln!(out, "  \"features\": \"self-obs\",");
    let _ = writeln!(out, "  \"scratch_filesystem\": \"{filesystem}\",");
    let _ = writeln!(
        out,
        "  \"open_loop_batches_per_s\": {},",
        workloads::OPEN_LOOP_BATCHES_PER_S
    );
    let _ = writeln!(
        out,
        "  \"open_loop_batch_records\": {},",
        workloads::OPEN_LOOP_BATCH
    );
    let _ = writeln!(
        out,
        "  \"stream_hash\": \"{:016x}\",",
        gen::stream_hash(args.seed, 10_000)
    );
    let outcomes = s
        .queries
        .outcomes
        .map(|o| format!("\"{:016x}\"", o.fingerprint()));
    let _ = writeln!(out, "  \"query_outcomes\": [{}],", outcomes.join(", "));
    let _ = writeln!(out, "  \"attempted\": {},", s.attempted);
    let _ = writeln!(out, "  \"failed\": {},", s.failed);
    let _ = writeln!(
        out,
        "  \"end_to_end\": {},",
        metrics_json(&catalog::end_to_end(), e2e, true)
    );
    if args.trace {
        let _ = writeln!(
            out,
            "  \"per_layer\": {},",
            metrics_json(&catalog::per_layer(), layers, true)
        );
        let sums: Vec<String> = sums
            .iter()
            .map(|sum| {
                let parts: Vec<String> = sum
                    .parts
                    .iter()
                    .map(|(n, v)| format!("{{\"part\": \"{n}\", \"value\": {v}}}"))
                    .collect();
                format!(
                    "{{\"title\": \"{}\", \"unit\": \"{}\", \"parts\": [{}], \"residual\": {}, \"total\": {}}}",
                    sum.title,
                    sum.unit,
                    parts.join(", "),
                    sum.residual(),
                    sum.total
                )
            })
            .collect();
        let _ = writeln!(out, "  \"layer_sums\": [{}],", sums.join(", "));
        let spans: Vec<String> = trace::summarize(tr.spans())
            .into_iter()
            .map(|(name, count, total, own)| {
                format!("{{\"name\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}")
            })
            .collect();
        let _ = writeln!(out, "  \"spans\": [{}],", spans.join(", "));
    }
    let _ = writeln!(out, "  \"correct\": {}", s.failed == 0);
    out.push_str("}\n");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--emit-benchmark-json") {
        print!("{}", catalog::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if argv.iter().any(|a| a == "--glossary") {
        print!("{}", catalog::glossary_markdown());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loombench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.result_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("loombench: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload query_cold --seed 0x2A --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::QueryCold, 42, 3.0, true)
        );
        assert!(
            parse_args(&argv("--seed 1")).is_err(),
            "workload is required"
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload lib_ingest --trace 2")).is_err());
        assert!(parse_args(&argv("--workload lib_ingest --seconds 0")).is_err());
    }

    /// Runs every workload end to end with tiny counts, traced and
    /// untraced: the oracle must pass and the output must carry exactly
    /// the catalogued metrics.
    #[test]
    fn smoke_all_workloads_pass_their_oracle() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let out_dir = std::env::temp_dir().join(format!(
                    "loombench-smoke-{}-{}",
                    std::process::id(),
                    w.name()
                ));
                let args = Args {
                    workload: w,
                    seed: 7,
                    seconds: 0.4,
                    trace,
                    smoke: true,
                    out_dir: out_dir.clone(),
                };
                let outcome = run(&args).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert!(
                    outcome.correct,
                    "{} failed {} checks",
                    w.name(),
                    outcome.failed
                );
                assert!(outcome.attempted >= 1);
                let line = outcome.result_line();
                assert!(
                    line.starts_with("{\"correct\": true, \"attempted\": "),
                    "{line}"
                );
                assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
                if !trace {
                    for (name, (value, _)) in &outcome.metrics {
                        assert!(
                            *value > 0.0,
                            "{}: end-to-end metric {name} is {value}",
                            w.name()
                        );
                    }
                }
                let _ = std::fs::remove_dir_all(out_dir);
            }
        }
    }
}
