//! # hyperion-bench
//!
//! Benchmark harness regenerating every table and figure of the Hyperion
//! evaluation (paper Section 4) at laptop scale.  Each binary prints the same
//! rows / series the paper reports; EXPERIMENTS.md records the measured
//! results next to the paper's values.
//!
//! Binaries (run with `--release`; pass a key count to override the default):
//!
//! | binary   | reproduces |
//! |----------|-----------|
//! | `fig13`  | Figure 13 — keys indexable within a fixed memory budget |
//! | `table1` | Table 1 — string data set KPIs (sequential + randomized) |
//! | `fig14`  | Figure 14 — per-superbin memory characteristics (strings) |
//! | `table2` | Table 2 — integer data set KPIs (sequential + randomized) |
//! | `fig15`  | Figure 15 — throughput vs. index size + memory footprint |
//! | `fig16`  | Figure 16 — Hyperion vs Hyperion_p allocation distribution |
//! | `table3` | Table 3 — full-index range query duration |
//! | `ablation` | Section 4.3/4.4 — effect of each Hyperion feature |
//! | `partitioners` | `HyperionDb` partitioner throughput under key skew |
//!
//! These regenerate the paper's figures; performance claims about this
//! repository are judged by the separate `benchmark/` package.

use hyperion_baselines::{ArtTree, CritBitTree, HatTrie, JudyTrie, OpenHashMap, RedBlackTree};
use hyperion_core::{HyperionConfig, HyperionMap, KvStore, OrderedKvStore};
use hyperion_workloads::Workload;
use std::time::Instant;

pub mod microbench;

/// Expands the shared (name -> ordered structure) construction arms so that
/// [`make_store`] and [`make_ordered_store`] cannot drift apart; only the
/// trailing arms (hash table / panic message) differ per factory.
macro_rules! ordered_store_arms {
    ($name:expr, { $($extra_arm:tt)* }) => {
        match $name {
            "hyperion" => Box::new(HyperionMap::with_config(HyperionConfig::for_strings())),
            "hyperion-int" => Box::new(HyperionMap::with_config(HyperionConfig::for_integers())),
            "hyperion_p" => Box::new(HyperionMap::with_config(
                HyperionConfig::with_preprocessing(),
            )),
            "judy" => Box::new(JudyTrie::new()),
            "hat" => Box::new(HatTrie::new()),
            "art" => Box::new(ArtTree::new()),
            "hot" => Box::new(CritBitTree::new()),
            "rb-tree" => Box::new(RedBlackTree::new()),
            $($extra_arm)*
        }
    };
}

/// Which structures to include in a run (point operations only; the hash
/// table is a [`KvStore`] but not an [`OrderedKvStore`]).
pub fn make_store(name: &str) -> Box<dyn KvStore> {
    ordered_store_arms!(name, {
        "hash" => Box::new(OpenHashMap::new()),
        other => panic!("unknown store {other}"),
    })
}

/// The ordered structures as [`OrderedKvStore`] trait objects, for the
/// range-scan experiments.  Panics for `"hash"`: the trait split makes the
/// missing ordered capability a compile-time property.
pub fn make_ordered_store(name: &str) -> Box<dyn OrderedKvStore> {
    ordered_store_arms!(name, {
        other => panic!("store {other} does not support ordered iteration"),
    })
}

/// All structures compared in the string experiments (Table 1).
pub const STRING_STORES: &[&str] = &["hyperion", "judy", "hat", "art", "hot", "rb-tree", "hash"];
/// All structures compared in the integer experiments (Table 2).
pub const INTEGER_STORES: &[&str] = &[
    "hyperion-int",
    "hyperion_p",
    "judy",
    "hat",
    "art",
    "hot",
    "rb-tree",
    "hash",
];
/// The ordered structures compared in the range-query experiment (Table 3).
pub const ORDERED_STORES: &[&str] = &[
    "hyperion",
    "hyperion_p",
    "judy",
    "hat",
    "art",
    "hot",
    "rb-tree",
];

/// Key performance indicators of one (store, workload) run, mirroring the
/// columns of the paper's Tables 1 and 2.
#[derive(Clone, Debug)]
pub struct Kpi {
    /// Store identifier.
    pub store: String,
    /// Put throughput in million operations per second.
    pub puts_mops: f64,
    /// Get throughput in million operations per second.
    pub gets_mops: f64,
    /// Total logical memory footprint in bytes.
    pub memory_bytes: usize,
    /// Bytes per key (footprint / keys).
    pub bytes_per_key: f64,
    /// Performance-to-memory ratio (Equation 5), unnormalised.
    pub p_over_m: f64,
}

/// Runs the paper's put/get KPI measurement for one store on one workload.
pub fn measure_kpi(store_name: &str, workload: &Workload) -> Kpi {
    let mut store = make_store(store_name);
    let n = workload.len() as f64;
    let start = Instant::now();
    for (k, v) in workload.keys.iter().zip(&workload.values) {
        store.put(k, *v);
    }
    let put_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut hits = 0usize;
    for (k, v) in workload.keys.iter().zip(&workload.values) {
        if store.get(k) == Some(*v) {
            hits += 1;
        }
    }
    let get_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        hits,
        workload.len(),
        "{store_name} lost keys during the benchmark"
    );
    let memory = store.memory_footprint();
    let puts = n / put_secs / 1e6;
    let gets = n / get_secs / 1e6;
    Kpi {
        store: store_name.to_string(),
        puts_mops: puts,
        gets_mops: gets,
        memory_bytes: memory,
        bytes_per_key: memory as f64 / n,
        p_over_m: (n / put_secs + n / get_secs) / memory as f64,
    }
}

/// Prints a KPI table with the P/M column normalised to the first row
/// (Hyperion), exactly like the paper's tables.
pub fn print_kpi_table(title: &str, kpis: &[Kpi]) {
    println!("\n== {title} ==");
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>10} {:>8}",
        "store", "puts MOPS", "gets MOPS", "memory MiB", "B/key", "P/M"
    );
    let reference = kpis.first().map(|k| k.p_over_m).unwrap_or(1.0);
    for k in kpis {
        println!(
            "{:<14} {:>10.3} {:>10.3} {:>12.1} {:>10.2} {:>8.2}",
            k.store,
            k.puts_mops,
            k.gets_mops,
            k.memory_bytes as f64 / (1024.0 * 1024.0),
            k.bytes_per_key,
            k.p_over_m / reference
        );
    }
}

/// Measures a full-index ordered range scan (Table 3); returns the duration in
/// seconds and the number of keys visited.  Uses the allocation-free
/// [`hyperion_core::OrderedRead::for_each_from`] walk so every structure does
/// uniform work inside the timed region (the lazy `iter_from` would be free
/// for Hyperion but a full materialisation for the baselines, biasing the
/// comparison).
pub fn measure_full_scan(store: &dyn OrderedKvStore) -> (f64, usize) {
    let start = Instant::now();
    let mut visited = 0usize;
    store.for_each_from(&[], &mut |_, _| {
        visited += 1;
        true
    });
    (start.elapsed().as_secs_f64(), visited)
}

/// Reads the resident set size from `/proc/self/status` (the paper's memory
/// accounting method).  Returns 0 when unavailable.
pub fn rss_bytes() -> usize {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: usize = rest
                .trim()
                .trim_end_matches(" kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Parses the key-count argument shared by all experiment binaries.
pub fn arg_keys(default: usize) -> usize {
    std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperion_workloads::sequential_integer_keys;

    #[test]
    fn kpi_measurement_runs_for_every_store() {
        let workload = sequential_integer_keys(2_000);
        for name in INTEGER_STORES {
            let kpi = measure_kpi(name, &workload);
            assert!(kpi.puts_mops > 0.0);
            assert!(kpi.gets_mops > 0.0);
            assert!(kpi.memory_bytes > 0);
        }
    }

    #[test]
    fn full_scan_visits_every_key() {
        let workload = sequential_integer_keys(3_000);
        for name in ORDERED_STORES {
            let mut store = make_ordered_store(name);
            for (k, v) in workload.keys.iter().zip(&workload.values) {
                store.put(k, *v);
            }
            let (_, visited) = measure_full_scan(store.as_ref());
            assert_eq!(visited, workload.len(), "store {name}");
        }
    }

    #[test]
    fn ordered_stores_serve_range_and_prefix_iterators() {
        let workload = sequential_integer_keys(2_000);
        let low = 500u64.to_be_bytes();
        let high = 1_500u64.to_be_bytes();
        for name in ORDERED_STORES {
            let mut store = make_ordered_store(name);
            for (k, v) in workload.keys.iter().zip(&workload.values) {
                store.put(k, *v);
            }
            assert_eq!(store.range_count(&low, &high), 1_000, "store {name}");
            // All 2 000 sequential keys share the leading zero byte.
            assert_eq!(store.prefix_iter(&[0]).count(), 2_000, "store {name}");
            assert_eq!(
                store.seek_first(&low),
                Some((low.to_vec(), 500)),
                "store {name}"
            );
        }
    }

    #[test]
    fn rss_is_reported_on_linux() {
        assert!(rss_bytes() > 0);
    }
}
