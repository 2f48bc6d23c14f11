//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics.  `BENCHMARK.json` at the
//! repo root is generated from these tables (`hyperion-benchmark spec`) and a
//! self-test holds the two together.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 8;

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// The seven workloads, in the order `run` executes them.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "point_get_int",
        why: "2M random u64 keys, uniform point gets with 10% absent: cache-missing descents through wide containers; no writes, no network",
    },
    WorkloadSpec {
        name: "batch_get_str",
        why: "1M 2-gram strings, Zipf multi_get of 256 keys: the call shape server workers execute, hot set cached, shortcut hits near 100%",
    },
    WorkloadSpec {
        name: "range_scan_int",
        why: "same int db, 100-entry forward and reverse range scans: cursors and the 8-way shard merge instead of the point-read engine",
    },
    WorkloadSpec {
        name: "insert_int",
        why: "fresh db per round, 1M point puts then overwrites and deletes: the write engine, splits and the allocator; gates bytes per key",
    },
    WorkloadSpec {
        name: "churn_2t",
        why: "one reader and one writer thread on a 500k string db: the only place seqlock retries and reader-writer cache traffic happen",
    },
    WorkloadSpec {
        name: "served_pipelined",
        why: "2 connections with window 64 over loopback TCP, 95% get 5% put: whole-stack throughput with request coalescing in play",
    },
    WorkloadSpec {
        name: "served_open",
        why: "open-loop rate ladder 20k to 320k ops/s, one flush per request: independent arrivals expose wake-up latency, coalescing bypassed",
    },
];

/// One metric: name, unit, which direction is better and (end-to-end only)
/// the share of the parent's median by which it may worsen.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// The six gated end-to-end metrics; every workload reports every one.  One
/// bound per metric (the schema has no per-workload bounds): the widest any
/// workload needs.  The three timing bounds sit at the schema's ceiling
/// because the reference box is a shared 2-vCPU VM whose speed on
/// memory-bound work drifts by 15-30 % for minutes at a time; the spreads
/// measured over ten seeds are in the README.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("ops_per_s", "ops/s", true, 0.25),
    e2e("p50_us", "us", false, 0.25),
    e2e("p99_us", "us", false, 0.25),
    e2e("bytes_per_key", "B", false, 0.03),
    e2e("rss_mb", "MiB", false, 0.05),
    e2e("setup_s", "s", false, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound: 0.0,
    }
}

/// The open-loop ladder: total scheduled rate of each step (ops/s) and the
/// tag its per-step latency metrics carry.
pub const LADDER: &[(u64, &str)] = &[
    (20_000, "r20k"),
    (40_000, "r40k"),
    (80_000, "r80k"),
    (160_000, "r160k"),
    (320_000, "r320k"),
];

/// Per-layer metrics of the traced run.  A traced run prints every one for
/// every workload; a layer a workload never enters reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    // hyperion-workloads
    layer("workloads.gen_s", "s", false),
    // hyperion-mem
    layer("mem.alloc_ns", "ns", false),
    layer("mem.realloc_ns", "ns", false),
    layer("mem.free_ns", "ns", false),
    layer("mem.resolve_ns", "ns", false),
    layer("mem.allocs_per_kop", "count", false),
    layer("mem.frees_per_kop", "count", false),
    layer("mem.segments", "count", false),
    layer("mem.empty_share", "ratio", false),
    layer("mem.heap_overalloc_share", "ratio", false),
    // hyperion-core::keys
    layer("keys.transform_ns", "ns", false),
    // hyperion-core::trie
    layer("trie.get_ns", "ns", false),
    layer("trie.get_miss_ns", "ns", false),
    layer("trie.get_many_ns_per_key", "ns", false),
    layer("trie.put_insert_ns", "ns", false),
    layer("trie.put_update_ns", "ns", false),
    layer("trie.delete_ns", "ns", false),
    layer("trie.put_many_ns_per_key", "ns", false),
    layer("trie.splits_per_kput", "count", false),
    layer("trie.ejections_per_kput", "count", false),
    layer("trie.cjt_rebuilds_per_kput", "count", false),
    layer("trie.containers_per_kkey", "count", false),
    layer("trie.container_fill", "ratio", true),
    layer("trie.embedded_share", "ratio", true),
    layer("trie.delta_share", "ratio", true),
    layer("trie.pc_share", "ratio", true),
    // hyperion-core::iter
    layer("iter.seek_ns", "ns", false),
    layer("iter.next_ns_per_entry", "ns", false),
    layer("iter.pred_ns", "ns", false),
    layer("iter.prev_ns_per_entry", "ns", false),
    // hyperion-core::shortcut
    layer("shortcut.hit_rate", "ratio", true),
    layer("shortcut.occupancy", "ratio", false),
    layer("shortcut.invalidations_per_kput", "count", false),
    // hyperion-core::db
    layer("db.get_ns", "ns", false),
    layer("db.multi_get_ns_per_key", "ns", false),
    layer("db.put_ns", "ns", false),
    layer("db.delete_ns", "ns", false),
    layer("db.apply_ns_per_op", "ns", false),
    layer("db.seek_ns", "ns", false),
    layer("db.next_ns_per_entry", "ns", false),
    layer("db.rev_next_ns_per_entry", "ns", false),
    layer("db.full_scan_ns_per_entry", "ns", false),
    layer("db.load_ops_per_s", "ops/s", true),
    layer("db.read_overhead_ns", "ns", false),
    layer("db.write_overhead_ns", "ns", false),
    layer("db.merge_overhead_ns_per_entry", "ns", false),
    layer("db.shard_skew", "ratio", false),
    layer("db.optimistic_retry_share", "ratio", false),
    layer("db.optimistic_fallback_share", "ratio", false),
    layer("db.writer_ops_per_s", "ops/s", true),
    // hyperion-server::protocol
    layer("proto.encode_request_ns", "ns", false),
    layer("proto.decode_request_ns", "ns", false),
    layer("proto.encode_response_ns", "ns", false),
    layer("proto.decode_response_ns", "ns", false),
    layer("proto.framebuf_ns_per_frame", "ns", false),
    layer("proto.request_bytes", "B", false),
    layer("proto.response_bytes", "B", false),
    // hyperion-server::client
    layer("client.send_ns", "ns", false),
    layer("client.flush_us", "us", false),
    layer("client.recv_wait_us", "us", false),
    // hyperion-server::server (window-1 probes, residuals, counters)
    layer("net.echo_rtt_us", "us", false),
    layer("server.ping_rtt_us", "us", false),
    layer("server.idle_ping_rtt_us", "us", false),
    layer("server.get_rtt_us", "us", false),
    layer("server.put_rtt_us", "us", false),
    layer("server.scan_rtt_us", "us", false),
    layer("server.io_overhead_us", "us", false),
    layer("server.idle_wake_us", "us", false),
    layer("server.handoff_us", "us", false),
    layer("server.read_group_size", "count", true),
    layer("server.write_group_size", "count", true),
    layer("server.shed_share", "ratio", false),
    layer("server.error_share", "ratio", false),
    layer("server.r20k.p50_us", "us", false),
    layer("server.r20k.p99_us", "us", false),
    layer("server.r40k.p50_us", "us", false),
    layer("server.r40k.p99_us", "us", false),
    layer("server.r80k.p50_us", "us", false),
    layer("server.r80k.p99_us", "us", false),
    layer("server.r160k.p50_us", "us", false),
    layer("server.r160k.p99_us", "us", false),
    layer("server.r320k.p50_us", "us", false),
    layer("server.r320k.p99_us", "us", false),
    // generator / harness
    layer("gen.late_share", "ratio", false),
    layer("gen.max_late_us", "us", false),
    layer("trace.overhead_share", "ratio", false),
];

/// Counts that are taken on one thread and must repeat exactly for a fixed
/// seed and scale (the issue's ⓒ marks).
pub const EXACT_COUNTS: &[&str] = &[
    "mem.allocs_per_kop",
    "mem.frees_per_kop",
    "mem.segments",
    "mem.empty_share",
    "mem.heap_overalloc_share",
    "trie.splits_per_kput",
    "trie.ejections_per_kput",
    "trie.cjt_rebuilds_per_kput",
    "trie.containers_per_kkey",
    "trie.container_fill",
    "trie.embedded_share",
    "trie.delta_share",
    "trie.pc_share",
    "db.shard_skew",
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The document `BENCHMARK.json` must hold.
pub fn benchmark_json() -> Json {
    let better = |m: &MetricSpec| {
        Json::str(if m.higher_is_better {
            "higher"
        } else {
            "lower"
        })
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .iter()
                .map(|s| Json::str(*s))
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert_eq!(WORKLOADS.len(), 7);
        assert_eq!(END_TO_END.len(), 6);
        assert!(PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
        }
        for (_, tag) in LADDER {
            for p in ["p50_us", "p99_us"] {
                let name = format!("server.{tag}.{p}");
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
            }
        }
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- spec > BENCHMARK.json`"
        );
    }
}
