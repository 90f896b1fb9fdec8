//! The benchmark of the paper-scale campaign and the served query path.
//!
//! ```text
//! # one workload, as BENCHMARK.json's command runs it; the last stdout line is JSON
//! bench --workload campaign_paper --seed 2022 --seconds 10 --trace 0
//! # all four, each in its own process; --trace adds the traced runs
//! bench all --seed 2022 [--trace] [--smoke] [--seconds 10] [--out target/bench]
//! # judge two sets of records against BENCHMARK.json's bounds
//! bench compare <parent-dir> <change-dir> [--benchmark BENCHMARK.json]
//! ```
//!
//! Build and run from the repository root with
//! `cargo run --release --offline --manifest-path examples/bench/Cargo.toml -- …`.
//! See README.md for the workloads, the metrics and how to read them.

mod compare;
mod cpu;
mod load;
mod record;
mod replay;
mod stats;
mod trace;
mod workloads;

use record::{Metric, Record};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Opts, WORKLOADS};

/// Every end-to-end metric (name, unit), in `BENCHMARK.json` order. An
/// untraced run reports all of them, on every workload.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_days_per_s", "days/s"),
    ("query_p50_us", "us"),
    ("queries_per_s", "1/s"),
    ("within_10ms_frac", "ratio"),
];

/// Every per-layer metric (name, unit), in `BENCHMARK.json` order. A
/// traced run reports all of them; a layer the workload does not run
/// reads 0. `_tail` is the highest percentile with ten samples beyond it.
const PER_LAYER: [(&str, &str); 46] = [
    ("campaign.step_ms_p50", "ms"),
    ("campaign.step_ms_tail", "ms"),
    ("campaign.events", "count"),
    ("campaign.jobs_started", "count"),
    ("campaign.residual_s", "s"),
    ("sched.schedule_calls", "count"),
    ("sched.schedule_us_p50", "us"),
    ("sched.schedule_us_tail", "us"),
    ("sched.busy_s", "s"),
    ("sched.pending_mean", "count"),
    ("sched.start_match_frac", "ratio"),
    ("tsdb.append_tick_us_p50", "us"),
    ("tsdb.append_tick_us_tail", "us"),
    ("tsdb.ingest_ns_per_sample", "ns"),
    ("tsdb.ingest_busy_s", "s"),
    ("tsdb.publish_calls", "count"),
    ("tsdb.publish_ms_p50", "ms"),
    ("tsdb.publish_ms_tail", "ms"),
    ("tsdb.publish_busy_s", "s"),
    ("tsdb.compact_s", "s"),
    ("tsdb.chunks_compacted", "count"),
    ("persist.checkpoint_s", "s"),
    ("persist.resume_s", "s"),
    ("persist.snapshot_bytes", "B"),
    ("persist.snapshot_samples", "count"),
    ("persist.bytes_per_sample", "B"),
    ("query.plan_us_p50", "us"),
    ("query.exec_us_p50", "us"),
    ("query.exec_us_tail", "us"),
    ("query.chunks_decoded_per_query", "count"),
    ("query.chunk_cache_hit_ratio", "ratio"),
    ("query.samples_scanned_per_query", "count"),
    ("query.blocks_pruned_per_query", "count"),
    ("query.raw_plan_frac", "ratio"),
    ("serve.serialise_us_p50", "us"),
    ("serve.overhead_us_p50", "us"),
    ("serve.result_cache_hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.server_p99_us", "us"),
    ("serve.request_p50_us", "us"),
    ("serve.request_p99_us", "us"),
    ("loadgen.late_frac", "ratio"),
    ("loadgen.late_ms_tail", "ms"),
    ("trace.span_cost_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
];

const USAGE: &str = "usage:
  bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  bench all [--seed N] [--seconds S] [--trace] [--smoke] [--out DIR]
  bench compare <parent-dir> <change-dir> [--benchmark BENCHMARK.json]
workloads: campaign_paper, campaign_telemetry, serve_live, query_history";

/// Parsed command line.
#[derive(Debug)]
enum Command {
    One {
        workload: String,
        opts: Opts,
    },
    All {
        opts: Opts,
    },
    Compare {
        parent: PathBuf,
        change: PathBuf,
        benchmark: PathBuf,
    },
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut opts = Opts {
        seed: 2022,
        seconds: 10,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/bench"),
    };
    let mut workload = None;
    let mut positional = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--benchmark" => benchmark = PathBuf::from(value("--benchmark")?),
            "--smoke" => opts.smoke = true,
            "--trace" if workload.is_some() => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace" => opts.trace = true,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => positional.push(other.to_string()),
        }
    }
    match (workload, positional.as_slice()) {
        (Some(w), []) if WORKLOADS.contains(&w.as_str()) => Ok(Command::One { workload: w, opts }),
        (Some(w), []) => Err(format!("unknown workload {w:?}")),
        (None, [all]) if all == "all" => Ok(Command::All { opts }),
        (None, [cmp, parent, change]) if cmp == "compare" => Ok(Command::Compare {
            parent: parent.into(),
            change: change.into(),
            benchmark,
        }),
        _ => Err("expected --workload <name>, `all` or `compare <parent> <change>`".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args) {
        Ok(Command::One { workload, opts }) => run_one(&workload, &opts),
        Ok(Command::All { opts }) => run_all(&opts),
        Ok(Command::Compare {
            parent,
            change,
            benchmark,
        }) => compare::main(&parent, &change, &benchmark),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            2
        }
    };
    ExitCode::from(code as u8)
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Run one workload in this process, print its metrics, write its record
/// (and trace), and print the result line last.
fn run_one(workload: &str, opts: &Opts) -> i32 {
    let mode = if opts.trace { "traced" } else { "untraced" };
    let size = if opts.smoke { "smoke" } else { "full" };
    println!(
        "== {workload}: seed {}, {size}, {mode}, {} s, nproc {} ==",
        opts.seed,
        opts.seconds,
        nproc()
    );
    let out = workloads::run(workload, opts);
    let catalog: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<Metric> = catalog
        .iter()
        .map(|&(name, unit)| {
            let value = out.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1);
            assert!(
                opts.trace || value.is_some(),
                "{workload} did not measure {name}"
            );
            Metric {
                name: name.into(),
                value: value.unwrap_or(0.0),
                unit: unit.into(),
            }
        })
        .collect();
    let record = Record {
        workload: workload.into(),
        seed: opts.seed,
        commit: record::commit(),
        nproc: nproc(),
        smoke: opts.smoke,
        trace: opts.trace,
        seconds: opts.seconds,
        correct: out.errors.is_empty(),
        attempted: out.attempted.max(1),
        failed: out.failed,
        digest: format!("{:016x}", out.digest),
        reply_digest: out.reply_digest.map(|d| format!("{d:016x}")),
        errors: out.errors.clone(),
        metrics,
    };
    for m in &record.metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for e in &record.errors {
        println!("  GATE FAILED: {e}");
    }
    match record::write(&opts.out, &record) {
        Ok(path) => println!("  record: {}", path.display()),
        Err(e) => eprintln!("  record not written: {e}"),
    }
    if opts.trace {
        let (from, to) = out.timed_ns;
        let layers = trace::layer_self_s(out.tracer.spans(), 0, from, to);
        let path = opts.out.join(format!("{workload}.trace.json"));
        let json = serde_json::to_string(&trace::to_json(out.tracer.spans(), &layers))
            .expect("spans serialise");
        match std::fs::write(&path, json) {
            Ok(()) => println!(
                "  trace: {} ({} spans)",
                path.display(),
                out.tracer.spans().len()
            ),
            Err(e) => eprintln!("  trace not written: {e}"),
        }
    }
    println!("{}", record.result_line());
    i32::from(!record.correct)
}

/// Run every workload in its own child process (so peak RSS is per
/// workload), then the traced runs if asked; check that a traced run
/// stored the same telemetry as the untraced run of the same seed.
fn run_all(opts: &Opts) -> i32 {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut failed = 0;
    let mut table: Vec<Record> = Vec::new();
    let passes: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    for &trace in passes {
        for w in WORKLOADS {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args([
                "--workload",
                w,
                "--seed",
                &opts.seed.to_string(),
                "--seconds",
                &opts.seconds.to_string(),
            ])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&opts.out);
            if opts.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().expect("the benchmark re-executes itself");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            if !output.status.success() {
                println!("!! {w} exited with {}", output.status);
                failed += 1;
            }
            match latest_record(&opts.out, w, opts.seed, trace) {
                Some(r) => table.push(r),
                None => failed += 1,
            }
        }
    }
    for w in WORKLOADS {
        let pick = |t: bool| {
            table
                .iter()
                .find(|r| r.workload == w && r.trace == t)
                .map(|r| &r.digest)
        };
        if let (Some(a), Some(b)) = (pick(false), pick(true)) {
            let same = a == b;
            println!(
                "{w}: traced telemetry digest {} the untraced run's",
                if same { "matches" } else { "DIFFERS from" }
            );
            failed += usize::from(!same);
        }
    }
    println!(
        "\n{:<20}{}",
        "workload",
        END_TO_END
            .map(|(n, u)| format!("{:>24}", format!("{n} [{u}]")))
            .join("")
    );
    for r in table.iter().filter(|r| !r.trace) {
        let cells: String = END_TO_END
            .map(|(n, _)| format!("{:>24.4}", r.metric(n).unwrap_or(f64::NAN)))
            .join("");
        println!("{:<20}{cells}", r.workload);
    }
    i32::from(failed > 0)
}

/// The record a child just wrote: the highest-numbered one for this
/// workload, seed and mode.
fn latest_record(dir: &Path, workload: &str, seed: u64, trace: bool) -> Option<Record> {
    let records = record::read_dir(dir).ok()?;
    records
        .into_iter()
        .rev()
        .find(|r| r.workload == workload && r.seed == seed && r.trace == trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde::Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
        serde_json::parse_value(&text).expect("BENCHMARK.json parses")
    }

    /// `(entry[a], entry[b])` for every entry of the list under `key`.
    fn list<'a>(v: &'a serde::Value, key: &str, a: &str, b: &str) -> Vec<(&'a str, &'a str)> {
        let get = |m: &'a serde::Value, k: &str| {
            serde::value::map_get(m.as_map().unwrap(), k)
                .and_then(serde::Value::as_str)
                .unwrap_or("")
        };
        serde::value::map_get(v.as_map().unwrap(), key)
            .and_then(serde::Value::as_seq)
            .unwrap()
            .iter()
            .map(|m| (get(m, a), get(m, b)))
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let v = benchmark_json();
        assert_eq!(list(&v, "end_to_end", "name", "unit"), END_TO_END.to_vec());
        assert_eq!(list(&v, "per_layer", "name", "unit"), PER_LAYER.to_vec());
        let names: Vec<&str> = list(&v, "workloads", "name", "why")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, WORKLOADS.to_vec());
        let bounds =
            compare::bounds(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json"))
                .unwrap();
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        assert!(bounds
            .iter()
            .all(|b| b.bound > 0.0 && b.bound <= setup.bound));
    }

    #[test]
    fn command_line() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let Ok(Command::One { workload, opts }) = parse(&args(
            "--workload serve_live --seed 7 --seconds 3 --trace 1",
        )) else {
            panic!("the single-workload form parses")
        };
        assert_eq!(
            (workload.as_str(), opts.seed, opts.seconds, opts.trace),
            ("serve_live", 7, 3, true)
        );
        let Ok(Command::All { opts }) = parse(&args("all --trace --smoke")) else {
            panic!("all parses")
        };
        assert!(opts.trace && opts.smoke && opts.seed == 2022);
        assert!(matches!(
            parse(&args("compare a b")),
            Ok(Command::Compare { .. })
        ));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload serve_live --trace 2")).is_err());
        assert!(parse(&args("")).is_err());
    }

    /// Every workload end to end at 1/40 scale: set-up, timed phase,
    /// gates, and the traced run's replays.
    #[test]
    fn smoke_all_workloads() {
        let out = std::env::temp_dir().join(format!("bench-smoke-{}", std::process::id()));
        let started = std::time::Instant::now();
        for w in WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    seed: 2022,
                    seconds: 1,
                    trace,
                    smoke: true,
                    out: out.clone(),
                };
                let o = workloads::run(w, &opts);
                assert!(
                    o.errors.is_empty(),
                    "{w} (trace {trace}) failed its gates: {:?}",
                    o.errors
                );
                assert!(o.attempted > 0);
                let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                for (name, _) in catalog {
                    if !trace {
                        let v = o.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);
                        assert!(
                            v.is_some_and(|v| v > 0.0 && v.is_finite()),
                            "{w}: {name} = {v:?}"
                        );
                    }
                }
            }
        }
        assert!(
            !out.exists() || std::fs::read_dir(&out).unwrap().next().is_none(),
            "no checkpoint left behind"
        );
        let secs = started.elapsed().as_secs_f64();
        assert!(secs < 10.0, "the smoke pass took {secs:.1} s");
    }
}
