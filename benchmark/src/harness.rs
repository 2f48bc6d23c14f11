//! What every workload shares: run options, scale, the result record,
//! failure accounting, RSS sampling, round timing and the environment stamp.

use crate::json::Json;
use crate::spec;
use crate::stats;
use std::process::Command;
use std::time::Instant;

/// Input-size scale.  `Full` is the benchmark; `Tiny` exists so the
/// self-tests and a smoke run finish in seconds.  Only `Full` results may be
/// compared or recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    /// Scales a full-size count down, never below `floor`.
    pub fn of(self, full: usize, floor: usize) -> usize {
        let div = match self {
            Scale::Full => 1,
            Scale::Tiny => 256,
        };
        (full / div).max(floor.min(full))
    }
}

/// Options of one workload run.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Seconds the measured phase should take.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl Opts {
    /// Seconds budgeted for the throughput rounds of one set-up; the rest of
    /// [`Opts::seconds`] goes to the latency sub-rounds.
    pub fn throughput_seconds(&self) -> f64 {
        self.seconds * 0.7 / SETUP_REPEATS as f64
    }
}

/// Set-ups per run.  The measured phase is split evenly over them: the same
/// data rebuilt in the same process runs 5-10 % faster or slower depending on
/// where its memory happens to land, so every timing is a median across
/// set-ups (and `setup_s` is the median of their build times).
pub const SETUP_REPEATS: usize = 3;
/// Latency sub-rounds per run, one per set-up; p50 / p99 are medians over them.
pub const LATENCY_ROUNDS: usize = SETUP_REPEATS;

/// Result of one workload run: the counts and the named metric values.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in emission order; units come from [`spec`].
    pub metrics: Vec<(String, f64)>,
    /// Free-text lines printed above the result (sample counts, ladder
    /// verdicts, decomposition checks).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The finished outcome with the checker's counts filled in.
    pub fn counted(mut self, checker: &Checker) -> Outcome {
        self.attempted = checker.attempted;
        self.failed = checker.failed;
        self
    }

    /// A traced outcome starts with every per-layer metric at 0 ("this
    /// workload never enters that layer"); the workload overwrites the ones
    /// it measures.
    pub fn zeroed_per_layer() -> Outcome {
        Outcome {
            metrics: spec::PER_LAYER
                .iter()
                .map(|m| (m.name.to_string(), 0.0))
                .collect(),
            ..Outcome::default()
        }
    }

    /// The single result line the driver reads.
    pub fn result_json(&self) -> Json {
        let unit = |name: &str| {
            spec::END_TO_END
                .iter()
                .chain(spec::PER_LAYER)
                .find(|m| m.name == name)
                .map_or("", |m| m.unit)
        };
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::str(unit(name))),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Counts attempted and failed operations and prints the first few
/// mismatches with what is needed to reproduce them.
pub struct Checker {
    workload: &'static str,
    seed: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn new(workload: &'static str, seed: u64) -> Checker {
        Checker {
            workload,
            seed,
            attempted: 0,
            failed: 0,
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Records `n` attempted operations.
    #[inline]
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one failed operation.
    #[cold]
    pub fn fail(&mut self, op_index: u64, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failed <= 8 {
            eprintln!(
                "MISMATCH workload={} seed={} op={}: {}",
                self.workload,
                self.seed,
                op_index,
                what()
            );
        }
    }

    /// Records one attempted operation that must satisfy `ok`.
    #[inline]
    pub fn check(&mut self, ok: bool, op_index: u64, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(op_index, what);
        }
    }

    pub fn absorb(&mut self, other: &Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Resident set size of this process in MiB (`VmRSS` of
/// `/proc/self/status`), 0 where the file does not exist.
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The baseline `rss_mb` counts from, sampled just before the first db is
/// built.  Generating the inputs leaves freed chunks in the allocator's heap
/// that are still resident; a db built next reuses them without adding to
/// RSS, by an amount that depends on the seed (12 MiB of 65 on two seeds in
/// ten for `batch_get_str`).  Where glibc is the allocator, those pages are
/// handed back first so that every run starts from the same place.
pub fn rss_baseline_mib() -> f64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` is glibc's own entry point (the program's
        // allocator on this target), takes no pointers, and only releases
        // pages of chunks that are already free.
        unsafe { malloc_trim(0) };
    }
    rss_mib()
}

/// Collects the per-round rates and the latency sub-rounds of one run and
/// turns them into the three timing metrics.
#[derive(Default)]
pub struct Timings {
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    samples: usize,
}

impl Timings {
    /// Adds one throughput round: `ops` completed in `secs`.
    pub fn round(&mut self, ops: u64, secs: f64) {
        self.rate(ops as f64 / secs);
    }

    /// Adds one throughput round by its rate in ops/s.
    pub fn rate(&mut self, rate: f64) {
        self.rates.push(rate);
    }

    /// Adds one latency sub-round (sorted in place).
    pub fn latency_round(&mut self, samples: &mut [u32]) {
        if samples.is_empty() {
            return;
        }
        let (p50, p99) = stats::p50_p99_us(samples);
        self.p50s.push(p50);
        self.p99s.push(p99);
        self.samples += samples.len();
    }

    /// Writes `ops_per_s`, `p50_us`, `p99_us` and the sample-count note.
    pub fn finish(&self, out: &mut Outcome) {
        out.set("ops_per_s", stats::median(&self.rates));
        out.set("p50_us", stats::median(&self.p50s));
        out.set("p99_us", stats::median(&self.p99s));
        let per_round = self.samples / self.p50s.len().max(1);
        out.note(format!("round rates [ops/s]: {:.0?}", self.rates));
        out.note(format!(
            "sub-round p50 [us]: {:.2?}  p99 [us]: {:.2?}",
            self.p50s, self.p99s
        ));
        out.note(format!(
            "rounds={} latency_samples={} ({} per sub-round, {} beyond p99{})",
            self.rates.len(),
            self.samples,
            per_round,
            stats::samples_beyond(per_round, 0.99),
            if stats::percentile_supported(per_round, 0.99) {
                ""
            } else {
                ": TOO FEW, p99 not supported at this scale"
            }
        ));
    }
}

/// Runs `round` (at least once) until one set-up's throughput share of
/// `--seconds` is spent.  `round` returns the operations it completed; only
/// its own wall time is counted.
pub fn throughput_rounds(opts: &Opts, timings: &mut Timings, mut round: impl FnMut() -> u64) {
    let budget = opts.throughput_seconds();
    let mut spent = 0.0;
    loop {
        let t = Instant::now();
        let ops = round();
        let secs = t.elapsed().as_secs_f64();
        timings.round(ops, secs);
        spent += secs;
        // Stop early rather than overshoot by most of a round.
        if spent + secs * 0.5 > budget {
            break;
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The environment stamp written with every result file and trace.
pub fn stamp(opts: &Opts) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        (
            "commit",
            Json::str(
                command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::str(cpu)),
        ("seed", Json::Num(opts.seed as f64)),
        ("scale", Json::str(opts.scale.name())),
        ("seconds", Json::Num(opts.seconds)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_divides_with_a_floor() {
        assert_eq!(Scale::Full.of(2_000_000, 1000), 2_000_000);
        assert_eq!(Scale::Tiny.of(2_000_000, 1000), 7812);
        assert_eq!(Scale::Tiny.of(100_000, 1000), 1000);
        assert_eq!(Scale::Tiny.of(500, 1000), 500);
    }

    #[test]
    fn checker_counts_failures_against_attempts() {
        let mut c = Checker::new("w", 1);
        c.check(true, 0, String::new);
        c.check(false, 1, || "wrong".into());
        c.attempt(3);
        assert_eq!((c.attempted, c.failed), (5, 1));
    }

    #[test]
    fn outcome_result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.set("ops_per_s", 1234.5);
        o.set("ops_per_s", 1235.5);
        let line = o.result_json();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1235.5));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ops/s"));
        assert_eq!(
            Outcome::zeroed_per_layer().metrics.len(),
            spec::PER_LAYER.len()
        );
    }

    #[test]
    fn timings_report_medians() {
        let mut t = Timings::default();
        t.round(100, 1.0);
        t.round(300, 1.0);
        t.round(200, 1.0);
        let mut a: Vec<u32> = (1..=1000).map(|x| x * 1000).collect();
        t.latency_round(&mut a);
        let mut o = Outcome::default();
        t.finish(&mut o);
        assert_eq!(o.get("ops_per_s"), Some(200.0));
        assert_eq!(o.get("p50_us"), Some(500.0));
        assert_eq!(o.get("p99_us"), Some(990.0));
    }

    #[test]
    fn rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss_mib() > 0.0);
        }
    }
}
