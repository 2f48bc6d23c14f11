//! The Hyperion repo benchmark.
//!
//! ```text
//! hyperion-benchmark run     [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--scale full|tiny] [--out FILE]
//! hyperion-benchmark repeat  --sets N [--vary-seed] [same options as run]
//! hyperion-benchmark compare A.json B.json
//! hyperion-benchmark spec
//! ```
//!
//! `run --workload W` runs one workload in this process and prints, as the
//! last line of standard output, the one-line JSON result the driver reads.
//! `run` without `--workload` runs every workload, each in a child process of
//! its own so that RSS and allocator state do not leak between them.  See
//! `benchmark/README.md`.

mod gen;
mod harness;
mod inproc;
mod json;
mod layers;
mod openloop;
mod report;
mod served;
mod spec;
mod stats;
mod trace;

use harness::{Opts, Outcome, Scale};
use json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Spans written to a trace file (all of them are kept in memory and feed
/// the metrics; the file holds the first ones).
const MAX_FILE_SPANS: usize = 200_000;

/// Runs one workload in this process.
fn run_workload(name: &str, opts: &Opts) -> Option<Outcome> {
    Some(match name {
        "point_get_int" => inproc::point_get_int(opts),
        "batch_get_str" => inproc::batch_get_str(opts),
        "range_scan_int" => inproc::range_scan_int(opts),
        "insert_int" => inproc::insert_int(opts),
        "churn_2t" => inproc::churn_2t(opts),
        "served_pipelined" => served::served_pipelined(opts),
        "served_open" => served::served_open(opts),
        _ => return None,
    })
}

/// Where trace files go: `benchmark/out/` under the checkout root (or `out/`
/// when run from inside `benchmark/`).
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// Writes `trace-<workload>.json` and returns its path.
pub fn write_trace(workload: &str, opts: &Opts, tracer: &trace::Tracer) -> std::io::Result<String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    let doc = tracer.to_json(workload, &harness::stamp(opts), MAX_FILE_SPANS);
    std::fs::write(&path, doc.to_line())?;
    Ok(path.display().to_string())
}

/// Parsed command line shared by `run` and `repeat`.
struct Cli {
    opts: Opts,
    workload: Option<String>,
    out: Option<String>,
    sets: usize,
    vary_seed: bool,
    files: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Opts {
            seed: 1,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
            scale: Scale::Full,
        },
        workload: None,
        out: None,
        sets: 2,
        vary_seed: false,
        files: Vec::new(),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => cli.workload = Some(value(&mut i, flag)?),
            "--seed" => {
                cli.opts.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.opts.seconds = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.opts.seconds > 0.0 && cli.opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // Both `--trace` and the driver's `--trace 0|1`.
                cli.opts.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--scale" => {
                let v = value(&mut i, flag)?;
                cli.opts.scale = Scale::parse(&v).ok_or_else(|| format!("unknown scale {v}"))?;
            }
            "--out" => cli.out = Some(value(&mut i, flag)?),
            "--sets" => {
                cli.sets = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--vary-seed" => cli.vary_seed = true,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            file => cli.files.push(file.to_string()),
        }
        i += 1;
    }
    if let Some(w) = &cli.workload {
        if spec::workload(w).is_none() {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w}; known: {}", names.join(", ")));
        }
    }
    Ok(cli)
}

/// Prints a finished workload: notes, every metric by name with its unit,
/// the counts, and last the result line.
fn print_outcome(name: &str, opts: &Opts, out: &Outcome) {
    println!(
        "== {name} seed={} scale={} seconds={} trace={} ==",
        opts.seed,
        opts.scale.name(),
        opts.seconds,
        opts.trace as u8
    );
    println!("why: {}", spec::workload(name).map_or("", |w| w.why));
    for note in &out.notes {
        println!("  {note}");
    }
    let line = out.result_json();
    if let Some(metrics) = line.get("metrics").and_then(Json::as_obj) {
        for (metric, body) in metrics {
            println!(
                "  {metric:<34} {:>16.4} {}",
                body.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                body.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
    }
    println!(
        "  ops_attempted={} ops_failed={}",
        out.attempted, out.failed
    );
    println!("{}", line.to_line());
}

/// Runs one workload in a child process and returns its result line, parsed.
fn run_child(name: &str, opts: &Opts) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = Command::new(exe)
        .args(["run", "--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .args(["--scale", opts.scale.name()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last)
        .map_err(|e| format!("{name} printed no result line ({e}); exit {}", child.status))?;
    Ok(tagged(result, name, opts))
}

/// A result line with the fields a result file needs to tell runs apart.
fn tagged(mut result: Json, name: &str, opts: &Opts) -> Json {
    if let Json::Obj(pairs) = &mut result {
        pairs.insert(0, ("workload".into(), Json::str(name)));
        pairs.insert(1, ("seed".into(), Json::Num(opts.seed as f64)));
        pairs.insert(2, ("trace".into(), Json::Bool(opts.trace)));
    }
    result
}

/// One full set: every selected workload in a child process of its own.
fn run_set(cli: &Cli, opts: &Opts, set: usize) -> Result<Vec<Json>, String> {
    let mut runs = Vec::new();
    for w in spec::WORKLOADS {
        if cli.workload.as_deref().is_some_and(|only| only != w.name) {
            continue;
        }
        let mut result = run_child(w.name, opts)?;
        if let Json::Obj(pairs) = &mut result {
            pairs.insert(3, ("set".into(), Json::Num(set as f64)));
        }
        runs.push(result);
    }
    Ok(runs)
}

fn write_results(path: &str, opts: &Opts, runs: &[Json]) -> Result<(), String> {
    let doc = Json::obj([
        ("stamp", harness::stamp(opts)),
        ("runs", Json::Arr(runs.to_vec())),
    ]);
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("writing {path}: {e}"))
}

fn failed_total(runs: &[Json]) -> u64 {
    runs.iter()
        .map(|r| r.get("failed").and_then(Json::as_f64).unwrap_or(1.0) as u64)
        .sum()
}

fn cmd_run(cli: &Cli) -> Result<ExitCode, String> {
    if let Some(name) = &cli.workload {
        let out = run_workload(name, &cli.opts).expect("workload name was validated");
        if let Some(path) = &cli.out {
            write_results(
                path,
                &cli.opts,
                &[tagged(out.result_json(), name, &cli.opts)],
            )?;
        }
        print_outcome(name, &cli.opts, &out);
        return Ok(if out.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        });
    }
    let runs = run_set(cli, &cli.opts, 0)?;
    report::print_summary(&runs);
    if let Some(path) = &cli.out {
        write_results(path, &cli.opts, &runs)?;
    }
    let failed = failed_total(&runs);
    println!(
        "{}",
        Json::obj([
            ("workloads", Json::Num(runs.len() as f64)),
            ("failed", Json::Num(failed as f64))
        ])
        .to_line()
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn cmd_repeat(cli: &Cli) -> Result<ExitCode, String> {
    if cli.sets < 2 {
        return Err("repeat needs --sets 2 or more".into());
    }
    let mut runs = Vec::new();
    for set in 0..cli.sets {
        let mut opts = cli.opts.clone();
        if cli.vary_seed {
            opts.seed += set as u64;
        }
        println!(
            "#### set {} of {} (seed {}) ####",
            set + 1,
            cli.sets,
            opts.seed
        );
        runs.extend(run_set(cli, &opts, set)?);
    }
    if let Some(path) = &cli.out {
        write_results(path, &cli.opts, &runs)?;
    }
    let exact = !cli.vary_seed;
    let ok = report::print_repeat(&runs, cli.opts.trace, exact);
    let failed = failed_total(&runs);
    Ok(if ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn cmd_compare(cli: &Cli) -> Result<ExitCode, String> {
    let [a, b] = cli.files.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let load = |path: &String| -> Result<Vec<Json>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        doc.get("runs")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| format!("{path}: no \"runs\" array"))
    };
    let worse = report::print_compare(&load(a)?, &load(b)?);
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("usage: hyperion-benchmark run|repeat|compare|spec [options]   (see benchmark/README.md)");
        return ExitCode::from(64);
    };
    let result = parse_cli(&args[1..]).and_then(|cli| match command.as_str() {
        "run" => cmd_run(&cli),
        "repeat" => cmd_repeat(&cli),
        "compare" => cmd_compare(&cli),
        "spec" => {
            print!("{}", spec::benchmark_json().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other}")),
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let cli = parse_cli(&args(
            "--workload served_open --seed 7 --seconds 8 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("served_open"));
        assert_eq!(
            (cli.opts.seed, cli.opts.seconds, cli.opts.trace),
            (7, 8.0, true)
        );
        let cli = parse_cli(&args("--trace 0 --seed 2")).unwrap();
        assert!(!cli.opts.trace && cli.opts.seed == 2);
        let cli = parse_cli(&args("--trace --scale tiny")).unwrap();
        assert!(cli.opts.trace && cli.opts.scale == Scale::Tiny);
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--seconds 0")).is_err());
        assert!(parse_cli(&args("--bogus")).is_err());
    }

    /// The end-to-end self-test: all seven workloads, untraced and traced, at
    /// tiny scale; every metric `BENCHMARK.json` names is emitted exactly
    /// once per workload with its unit, and nothing fails its oracle.
    #[test]
    fn tiny_pass_emits_every_metric_of_benchmark_json_once() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).unwrap();
        let declared = |section: &str| -> Vec<(String, String)> {
            doc.get(section)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let started = std::time::Instant::now();
        for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
            let name = w.get("name").and_then(Json::as_str).unwrap();
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let opts = Opts {
                    seed: 1,
                    seconds: 0.3,
                    trace,
                    scale: Scale::Tiny,
                };
                let out =
                    run_workload(name, &opts).unwrap_or_else(|| panic!("{name} is not a workload"));
                assert_eq!(out.failed, 0, "{name} trace={trace}: oracle mismatches");
                assert!(out.attempted >= 1, "{name}: nothing attempted");
                let line = Json::parse(&out.result_json().to_line()).unwrap();
                let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
                let want = declared(section);
                assert_eq!(
                    metrics.len(),
                    want.len(),
                    "{name} trace={trace}: metric count"
                );
                for (metric, unit) in &want {
                    let hits: Vec<_> = metrics.iter().filter(|(k, _)| k == metric).collect();
                    assert_eq!(
                        hits.len(),
                        1,
                        "{name}: {metric} emitted {} times",
                        hits.len()
                    );
                    assert_eq!(
                        hits[0].1.get("unit").and_then(Json::as_str),
                        Some(unit.as_str()),
                        "{name}: unit of {metric}"
                    );
                    let value = hits[0].1.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{name}: {metric} = {value:?}"
                    );
                }
                if !trace {
                    for metric in ["ops_per_s", "p50_us", "p99_us", "bytes_per_key", "setup_s"] {
                        assert!(
                            out.get(metric).unwrap() > 0.0,
                            "{name}: {metric} must never be 0"
                        );
                    }
                }
            }
        }
        assert!(
            started.elapsed().as_secs() < 15,
            "tiny pass took {:?}",
            started.elapsed()
        );
    }
}
