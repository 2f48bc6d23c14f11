//! The five in-process workloads.  Each builds its inputs from the seed,
//! loads a db, runs untimed-per-call throughput rounds and per-call-timed
//! latency rounds, checks every answer against its own model, and — with
//! `--trace` — re-runs a slice of its op stream under spans and replays it
//! against the bare-trie mirror.

use crate::gen::{self, IntData, Mix, MixOp, ScanOp, StrData, Verb, SCAN_TAKE};
use crate::harness::{
    rss_baseline_mib, rss_mib, throughput_rounds, Checker, Opts, Outcome, Timings, LATENCY_ROUNDS,
    SETUP_REPEATS,
};
use crate::layers::{db_counters, shortcut_metrics, transform_ns, Mirror, SHARDS};
use crate::stats::{median, sample_ns};
use crate::trace::{Tracer, NO_PARENT};
use hyperion_core::{FibonacciPartitioner, HyperionConfig, HyperionDb, PutOutcome, WriteBatch};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Operations per `WriteBatch` when loading a db.
pub const LOAD_BATCH: usize = 4096;
/// Keys per `multi_get` call in `batch_get_str`.
pub const BATCH_KEYS: usize = 256;

/// The db every workload uses: 8 shards, hashed routing.
pub fn new_db(config: HyperionConfig) -> HyperionDb {
    HyperionDb::builder()
        .shards(SHARDS)
        .config(config)
        .partitioner(FibonacciPartitioner)
        .build()
}

/// Loads distinct `pairs` through `apply` in [`LOAD_BATCH`]-op batches and
/// checks each batch's summary.  `each_batch` sees every batch and the
/// nanoseconds its `apply` took (the traced runs mirror and span it).
pub fn load_db<'k>(
    db: &HyperionDb,
    pairs: impl Iterator<Item = (&'k [u8], u64)>,
    checker: &mut Checker,
    mut each_batch: impl FnMut(&[(&'k [u8], u64)], u64),
) {
    let mut batch = WriteBatch::with_capacity(LOAD_BATCH);
    let mut buf: Vec<(&[u8], u64)> = Vec::with_capacity(LOAD_BATCH);
    let mut pairs = pairs.peekable();
    let mut loaded = 0u64;
    while pairs.peek().is_some() {
        buf.clear();
        buf.extend(pairs.by_ref().take(LOAD_BATCH));
        batch.clear();
        for (key, value) in &buf {
            batch.put(key, *value);
        }
        let t = Instant::now();
        let summary = db.apply(&batch);
        let ns = t.elapsed().as_nanos() as u64;
        checker.attempt(buf.len() as u64);
        if !matches!(&summary, Ok(s) if s.inserted == buf.len()) {
            checker.fail(loaded, || {
                format!("load batch of {} answered {summary:?}", buf.len())
            });
        }
        loaded += buf.len() as u64;
        each_batch(&buf, ns);
    }
}

/// Times the set-ups of one run: generation once, the db load once per
/// set-up.
pub struct SetupClock {
    pub gen_s: f64,
    pub loads: Vec<f64>,
}

impl SetupClock {
    /// Reports `setup_s`: generation plus the median load.
    pub fn finish(&self, out: &mut Outcome) {
        out.set("setup_s", self.gen_s + median(&self.loads));
        out.note(format!(
            "setup: generation {:.3} s + median of loads {:.3?} s",
            self.gen_s, self.loads
        ));
    }
}

/// Builds and loads a db; returns it with the seconds the load took.
pub fn build<'k>(
    config: HyperionConfig,
    pairs: impl Iterator<Item = (&'k [u8], u64)>,
    checker: &mut Checker,
) -> (HyperionDb, f64) {
    let db = new_db(config);
    let t = Instant::now();
    load_db(&db, pairs, checker, |_, _| {});
    (db, t.elapsed().as_secs_f64())
}

/// What a traced build leaves behind besides the db.
pub struct TracedBuild {
    pub mirror: Mirror,
    pub apply_ns_per_op: f64,
    /// Seconds the db's own load took (the mirror's share taken out).
    pub load_s: f64,
}

/// [`build`] with a span around every `apply` and every batch mirrored into
/// bare maps.
pub fn build_traced<'k>(
    config: HyperionConfig,
    pairs: impl Iterator<Item = (&'k [u8], u64)>,
    checker: &mut Checker,
    tracer: &mut Tracer,
) -> (HyperionDb, TracedBuild) {
    let db = new_db(config);
    let name = tracer.name("db.apply");
    let mut mirror = Mirror::new(config);
    let (mut apply_ns, mut ops, mut mirror_s) = (0u64, 0u64, 0.0);
    let t = Instant::now();
    load_db(&db, pairs, checker, |batch, ns| {
        let end = tracer.now();
        tracer.record(
            name,
            end.saturating_sub(ns),
            end,
            NO_PARENT,
            (ops / LOAD_BATCH as u64) as u32,
        );
        apply_ns += ns;
        ops += batch.len() as u64;
        let m = Instant::now();
        mirror.load_batch(&db, batch);
        mirror_s += m.elapsed().as_secs_f64();
    });
    let built = TracedBuild {
        mirror,
        apply_ns_per_op: apply_ns as f64 / ops.max(1) as f64,
        load_s: t.elapsed().as_secs_f64() - mirror_s,
    };
    (db, built)
}

/// The untraced run of a preloaded single-thread workload: per set-up, build
/// the db, run `round` (which returns the operations it completed) for the
/// throughput budget, then fill one latency sub-round through `timed`.
fn measure_setups<'k, P: Iterator<Item = (&'k [u8], u64)>>(
    opts: &Opts,
    config: HyperionConfig,
    pairs: impl Fn() -> P,
    gen_s: f64,
    checker: &mut Checker,
    mut round: impl FnMut(&HyperionDb, &mut Checker) -> u64,
    mut timed: impl FnMut(&HyperionDb, usize, &mut Vec<u32>, &mut Checker),
) -> Outcome {
    let mut out = Outcome::default();
    let mut timings = Timings::default();
    let mut clock = SetupClock {
        gen_s,
        loads: Vec::new(),
    };
    let mut samples: Vec<u32> = Vec::new();
    for phase in 0..SETUP_REPEATS {
        let rss_before = (phase == 0).then(rss_baseline_mib);
        let (db, load_s) = build(config, pairs(), checker);
        clock.loads.push(load_s);
        throughput_rounds(opts, &mut timings, || round(&db, checker));
        if let Some(before) = rss_before {
            memory_metrics(&db, before, &mut out);
        }
        samples.clear();
        timed(&db, phase, &mut samples, checker);
        timings.latency_round(&mut samples);
    }
    timings.finish(&mut out);
    clock.finish(&mut out);
    out.counted(checker)
}

/// Memory metrics at the end of the measured phase.
pub fn memory_metrics(db: &HyperionDb, rss_before: f64, out: &mut Outcome) {
    out.set(
        "bytes_per_key",
        db.footprint_bytes() as f64 / db.len().max(1) as f64,
    );
    out.set("rss_mb", rss_mib() - rss_before);
}

/// Per-layer metrics every traced in-process run with a mirror reports.
pub fn common_layer_metrics(
    out: &mut Outcome,
    opts: &Opts,
    db: &HyperionDb,
    built: &TracedBuild,
    gen_s: f64,
    loaded: usize,
) {
    out.set("workloads.gen_s", gen_s);
    out.set("db.load_ops_per_s", loaded as f64 / built.load_s);
    out.set("db.apply_ns_per_op", built.apply_ns_per_op);
    built.mirror.report(out);
    built.mirror.mem_replay(gen::sub_seed(opts.seed, 20), out);
    db_counters(db, built.mirror.puts, out);
}

/// `1 - traced / untraced` rate.
pub fn overhead_share(untraced_s: f64, traced_s: f64) -> f64 {
    1.0 - untraced_s / traced_s
}

/// Writes the trace file and hands the outcome back.
pub fn finish_trace(workload: &str, opts: &Opts, tracer: &Tracer, out: &mut Outcome) {
    match crate::write_trace(workload, opts, tracer) {
        Ok(path) => out.note(format!("trace: {} spans -> {path}", tracer.spans().len())),
        Err(e) => out.note(format!("trace file not written: {e}")),
    }
}

// =============================================================================
// point_get_int
// =============================================================================

pub fn point_get_int(opts: &Opts) -> Outcome {
    const NAME: &str = "point_get_int";
    let mut checker = Checker::new(NAME, opts.seed);
    let keys_n = opts.scale.of(2_000_000, 2_000);
    // About a second of gets per throughput round on the reference box.
    let round_ops = opts.scale.of(1_500_000, 12_000);
    let lat_ops = round_ops / LATENCY_ROUNDS;

    let t = Instant::now();
    let data = IntData::generate(opts.seed, keys_n);
    let pool = gen::int_get_pool(opts.seed, &data, round_ops);
    let gen_s = t.elapsed().as_secs_f64();
    let config = HyperionConfig::for_integers();
    let pairs = || (0..data.stored).map(|i| (data.key_ref(i as u32), i as u64));

    let run = |db: &HyperionDb, ops: &[u32], checker: &mut Checker| {
        for (n, &i) in ops.iter().enumerate() {
            let got = db.get(&data.key(i));
            checker.check(got == Ok(data.expected(i)), n as u64, || {
                format!("get key#{i} = {got:?}, want {:?}", data.expected(i))
            });
        }
        ops.len() as u64
    };

    if opts.trace {
        let mut tracer = Tracer::new(Instant::now());
        let (db, built) = build_traced(config, pairs(), &mut checker, &mut tracer);
        let mirror = &built.mirror;
        let mut out = Outcome::zeroed_per_layer();
        let ops = &pool[..opts.scale.of(200_000, 4_000).min(pool.len())];
        let t = Instant::now();
        run(&db, ops, &mut checker);
        let untraced_s = t.elapsed().as_secs_f64();

        let (hit, miss) = (tracer.name("db.get"), tracer.name("db.get_miss"));
        let (trie_hit, trie_miss) = (tracer.name("trie.get"), tracer.name("trie.get_miss"));
        let t = Instant::now();
        let first = tracer.spans().len() as u32;
        for (n, &i) in ops.iter().enumerate() {
            let key = data.key(i);
            let want = data.expected(i);
            let (got, _) = tracer.span(
                if want.is_some() { hit } else { miss },
                NO_PARENT,
                n as u32,
                || db.get(&key),
            );
            checker.check(got == Ok(want), n as u64, || {
                format!("traced get key#{i} = {got:?}")
            });
        }
        let traced_s = t.elapsed().as_secs_f64();
        // Replay the same gets against the bare maps: one untimed pass first,
        // so the maps' caches and shortcut tables have seen these keys as
        // often as the db's had when its spans were taken.
        for &i in ops {
            let key = data.key(i);
            std::hint::black_box(mirror.maps[db.shard_of(&key)].get(&key));
        }
        for (n, &i) in ops.iter().enumerate() {
            let key = data.key(i);
            let want = data.expected(i);
            let map = &mirror.maps[db.shard_of(&key)];
            let t = Instant::now();
            let got = map.get(&key);
            let ns = t.elapsed().as_nanos() as u64;
            checker.check(got == want, n as u64, || {
                format!("mirror get key#{i} = {got:?}")
            });
            tracer.replayed_child(
                if want.is_some() { trie_hit } else { trie_miss },
                first + n as u32,
                ns,
            );
        }
        out.set("db.get_ns", tracer.mean_ns("db.get"));
        out.set("trie.get_ns", tracer.mean_ns("trie.get"));
        out.set("trie.get_miss_ns", tracer.mean_ns("trie.get_miss"));
        out.set(
            "db.read_overhead_ns",
            tracer.mean_ns("db.get") - tracer.mean_ns("trie.get"),
        );
        // Contiguous copies: the transform is timed, not the fetch of the key.
        let keys: Vec<[u8; 8]> = ops.iter().map(|&i| data.key(i)).collect();
        out.set(
            "keys.transform_ns",
            transform_ns(keys.iter().map(|k| &k[..]), config.key_preprocessing),
        );
        out.set("trace.overhead_share", overhead_share(untraced_s, traced_s));
        common_layer_metrics(&mut out, opts, &db, &built, gen_s, data.stored);
        out.note(format!(
            "decomposition: trie.get_ns {:.1} + db.read_overhead_ns {:.1} = db.get_ns {:.1} (mean span self time of db.get: {:.1})",
            out.get("trie.get_ns").unwrap(),
            out.get("db.read_overhead_ns").unwrap(),
            out.get("db.get_ns").unwrap(),
            tracer.mean_self_ns("db.get")
        ));
        finish_trace(NAME, opts, &tracer, &mut out);
        return out.counted(&checker);
    }

    measure_setups(
        opts,
        config,
        pairs,
        gen_s,
        &mut checker,
        |db, checker| run(db, &pool, checker),
        |db, phase, samples, checker| {
            for (n, &i) in pool[phase * lat_ops..(phase + 1) * lat_ops]
                .iter()
                .enumerate()
            {
                let key = data.key(i);
                let t = Instant::now();
                let got = db.get(&key);
                samples.push(sample_ns(t.elapsed().as_nanos()));
                checker.check(got == Ok(data.expected(i)), n as u64, || {
                    format!("timed get key#{i} = {got:?}")
                });
            }
        },
    )
}

// =============================================================================
// range_scan_int
// =============================================================================

/// Runs one scan against the db and checks it entry by entry against the
/// sorted oracle.  Returns the entries it yielded.
#[inline]
fn checked_scan(
    db: &HyperionDb,
    op: ScanOp,
    sorted: &[(u64, u32)],
    checker: &mut Checker,
    op_index: u64,
) -> usize {
    let start = op.start.to_be_bytes();
    let at = sorted.partition_point(|e| e.0 < op.start);
    let mut seen = 0usize;
    let mut ok = true;
    if op.reverse {
        for (key, value) in db.range_rev(..start).take(SCAN_TAKE) {
            ok &= at > seen && {
                let want = sorted[at - 1 - seen];
                key == want.0.to_be_bytes() && value == want.1 as u64
            };
            seen += 1;
        }
        ok &= seen == at.min(SCAN_TAKE);
    } else {
        for (key, value) in db.range(start..).take(SCAN_TAKE) {
            ok &= at + seen < sorted.len() && {
                let want = sorted[at + seen];
                key == want.0.to_be_bytes() && value == want.1 as u64
            };
            seen += 1;
        }
        ok &= seen == (sorted.len() - at).min(SCAN_TAKE);
    }
    checker.check(ok, op_index, || {
        format!("scan from {:#018x} reverse={} yielded {seen} entries that differ from the sorted oracle", op.start, op.reverse)
    });
    seen
}

pub fn range_scan_int(opts: &Opts) -> Outcome {
    const NAME: &str = "range_scan_int";
    let mut checker = Checker::new(NAME, opts.seed);
    let keys_n = opts.scale.of(2_000_000, 2_000);
    // One scan costs ~0.45 ms (every shard seeks and refills a 256-entry
    // chunk to yield 100 entries), so a one-second round is ~2 400 scans and
    // the latency sub-rounds are sized for 15 samples beyond p99 each.
    let round_ops = opts.scale.of(2_400, 1_200);
    let lat_ops = 1_500;

    let t = Instant::now();
    let data = IntData::generate(opts.seed, keys_n);
    let sorted = data.sorted();
    let pool = gen::scan_pool(opts.seed, round_ops.max(lat_ops * LATENCY_ROUNDS));
    let gen_s = t.elapsed().as_secs_f64();
    let config = HyperionConfig::for_integers();
    let pairs = || (0..data.stored).map(|i| (data.key_ref(i as u32), i as u64));

    let run = |db: &HyperionDb, ops: &[ScanOp], checker: &mut Checker| {
        for (n, &op) in ops.iter().enumerate() {
            checked_scan(db, op, &sorted, checker, n as u64);
        }
        ops.len() as u64
    };

    if opts.trace {
        let mut tracer = Tracer::new(Instant::now());
        let (db, built) = build_traced(config, pairs(), &mut checker, &mut tracer);
        let mirror = &built.mirror;
        let mut out = Outcome::zeroed_per_layer();
        let ops = &pool[..opts.scale.of(4_000, 1_000).min(pool.len())];
        let t = Instant::now();
        run(&db, ops, &mut checker);
        let untraced_s = t.elapsed().as_secs_f64();

        let names = [
            [tracer.name("db.seek"), tracer.name("db.next")],
            [tracer.name("db.rev_seek"), tracer.name("db.rev_next")],
        ];
        let t = Instant::now();
        let first = tracer.spans().len() as u32;
        // Entries each scan walked after its first: the divisor of the
        // per-entry figures.
        let mut walked = [0u64; 2];
        for (n, &op) in ops.iter().enumerate() {
            let start = op.start.to_be_bytes();
            let [seek, next] = names[op.reverse as usize];
            let t0 = tracer.now();
            let mut scan = if op.reverse {
                db.range_rev(..start)
            } else {
                db.range(start..)
            };
            let head = scan.next();
            let t1 = tracer.now();
            let rest = scan.take(SCAN_TAKE - 1).count();
            let t2 = tracer.now();
            tracer.record(seek, t0, t1, NO_PARENT, n as u32);
            tracer.record(next, t1, t2, NO_PARENT, n as u32);
            walked[op.reverse as usize] += rest as u64;
            checker.check(head.is_some() || rest == 0, n as u64, || {
                "entries after an empty head".into()
            });
        }
        let traced_s = t.elapsed().as_secs_f64();

        // Replay at the cursor layer: the shard owning the start key alone.
        let iter_names = [
            [tracer.name("iter.seek"), tracer.name("iter.next")],
            [tracer.name("iter.pred"), tracer.name("iter.prev")],
        ];
        let mut cursors: Vec<_> = mirror.maps.iter().map(|m| m.cursor()).collect();
        let mut iter_walked = [0u64; 2];
        for (n, &op) in ops.iter().enumerate() {
            let start = op.start.to_be_bytes();
            let cursor = &mut cursors[db.shard_of(&start)];
            let [seek, step] = iter_names[op.reverse as usize];
            let t0 = Instant::now();
            let head = if op.reverse {
                cursor.seek_for_pred(&start);
                cursor.prev()
            } else {
                cursor.seek(&start);
                cursor.next()
            };
            let seek_ns = t0.elapsed().as_nanos() as u64;
            let t1 = Instant::now();
            let mut rest = 0u64;
            while rest < SCAN_TAKE as u64 - 1 {
                let entry = if op.reverse {
                    cursor.prev()
                } else {
                    cursor.next()
                };
                if entry.is_none() {
                    break;
                }
                rest += 1;
            }
            let step_ns = t1.elapsed().as_nanos() as u64;
            std::hint::black_box(head);
            iter_walked[op.reverse as usize] += rest;
            tracer.replayed_child(seek, first + 2 * n as u32, seek_ns);
            tracer.replayed_child(step, first + 2 * n as u32 + 1, step_ns);
        }
        drop(cursors);

        let per_entry = |tracer: &Tracer, name: &str, entries: u64| {
            tracer.mean_ns(name) * tracer.count(name) as f64 / entries.max(1) as f64
        };
        out.set("db.seek_ns", tracer.mean_ns("db.seek"));
        out.set(
            "db.next_ns_per_entry",
            per_entry(&tracer, "db.next", walked[0]),
        );
        out.set(
            "db.rev_next_ns_per_entry",
            per_entry(&tracer, "db.rev_next", walked[1]),
        );
        out.set("iter.seek_ns", tracer.mean_ns("iter.seek"));
        out.set("iter.pred_ns", tracer.mean_ns("iter.pred"));
        out.set(
            "iter.next_ns_per_entry",
            per_entry(&tracer, "iter.next", iter_walked[0]),
        );
        out.set(
            "iter.prev_ns_per_entry",
            per_entry(&tracer, "iter.prev", iter_walked[1]),
        );
        out.set(
            "db.merge_overhead_ns_per_entry",
            out.get("db.next_ns_per_entry").unwrap() - out.get("iter.next_ns_per_entry").unwrap(),
        );

        // Full ordered scan of the whole db against the sorted oracle.
        let t = Instant::now();
        let mut n = 0usize;
        let mut ok = true;
        for (key, value) in db.iter() {
            ok &=
                n < sorted.len() && key == sorted[n].0.to_be_bytes() && value == sorted[n].1 as u64;
            n += 1;
        }
        out.set(
            "db.full_scan_ns_per_entry",
            t.elapsed().as_nanos() as f64 / n.max(1) as f64,
        );
        checker.check(ok && n == sorted.len(), 0, || {
            format!(
                "full scan yielded {n} of {} entries or a wrong one",
                sorted.len()
            )
        });

        out.set("trace.overhead_share", overhead_share(untraced_s, traced_s));
        common_layer_metrics(&mut out, opts, &db, &built, gen_s, data.stored);
        finish_trace(NAME, opts, &tracer, &mut out);
        return out.counted(&checker);
    }

    measure_setups(
        opts,
        config,
        pairs,
        gen_s,
        &mut checker,
        |db, checker| run(db, &pool[..round_ops], checker),
        |db, phase, samples, checker| {
            for (n, &op) in pool[phase * lat_ops..(phase + 1) * lat_ops]
                .iter()
                .enumerate()
            {
                let t = Instant::now();
                checked_scan(db, op, &sorted, checker, n as u64);
                samples.push(sample_ns(t.elapsed().as_nanos()));
            }
        },
    )
}

// =============================================================================
// batch_get_str
// =============================================================================

/// One `multi_get` over the keys at `positions`, checked positionally
/// against the model.  `keys` is scratch, reused across calls.
fn checked_multi_get<'d>(
    db: &HyperionDb,
    data: &'d StrData,
    positions: &[u32],
    keys: &mut Vec<&'d [u8]>,
    op_index: u64,
    checker: &mut Checker,
) {
    keys.clear();
    keys.extend(positions.iter().map(|&p| data.key(p)));
    let got = db.multi_get(keys);
    checker.attempt(positions.len() as u64);
    match got {
        Ok(values) if values.len() == positions.len() => {
            for (j, (&p, v)) in positions.iter().zip(&values).enumerate() {
                if *v != data.expected(p) {
                    checker.fail(op_index + j as u64, || {
                        format!(
                            "multi_get[{j}] pos#{p} = {v:?}, want {:?}",
                            data.expected(p)
                        )
                    });
                }
            }
        }
        other => {
            checker.failed += positions.len() as u64 - 1;
            checker.fail(op_index, || format!("multi_get answered {other:?}"));
        }
    }
}

pub fn batch_get_str(opts: &Opts) -> Outcome {
    const NAME: &str = "batch_get_str";
    let mut checker = Checker::new(NAME, opts.seed);
    let keys_n = opts.scale.of(1_000_000, 2_000);
    // About a second of calls per throughput round; latency sub-rounds of
    // 4 096 calls leave 40 samples beyond p99 each.
    let round_calls = opts.scale.of(6_144, 64);
    let lat_calls = opts.scale.of(4_096, 1_024);

    let t = Instant::now();
    let data = StrData::generate(opts.seed, keys_n, 20);
    let pool_calls = round_calls.max(lat_calls * LATENCY_ROUNDS);
    let pool = gen::zipf_pool(
        opts.seed,
        8,
        data.stored,
        data.absent(),
        20,
        pool_calls * BATCH_KEYS,
    );
    let gen_s = t.elapsed().as_secs_f64();
    let config = HyperionConfig::for_strings();
    let pairs = || (0..data.stored as u32).map(|p| (data.key(p), data.value(p)));

    let run = |db: &HyperionDb, ops: &[u32], checker: &mut Checker| {
        let mut keys: Vec<&[u8]> = Vec::with_capacity(BATCH_KEYS);
        for (c, positions) in ops.chunks(BATCH_KEYS).enumerate() {
            checked_multi_get(
                db,
                &data,
                positions,
                &mut keys,
                (c * BATCH_KEYS) as u64,
                checker,
            );
        }
        ops.len() as u64
    };

    if opts.trace {
        let mut tracer = Tracer::new(Instant::now());
        let (db, built) = build_traced(config, pairs(), &mut checker, &mut tracer);
        let mirror = &built.mirror;
        let mut out = Outcome::zeroed_per_layer();
        let ops = &pool[..(opts.scale.of(2_048, 32) * BATCH_KEYS).min(pool.len())];
        let t = Instant::now();
        run(&db, ops, &mut checker);
        let untraced_s = t.elapsed().as_secs_f64();

        let (db_name, trie_name) = (tracer.name("db.multi_get"), tracer.name("trie.get_many"));
        let first = tracer.spans().len() as u32;
        let mut keys: Vec<&[u8]> = Vec::with_capacity(BATCH_KEYS);
        let t = Instant::now();
        for (c, positions) in ops.chunks(BATCH_KEYS).enumerate() {
            let t0 = tracer.now();
            checked_multi_get(
                &db,
                &data,
                positions,
                &mut keys,
                (c * BATCH_KEYS) as u64,
                &mut checker,
            );
            let t1 = tracer.now();
            tracer.record(db_name, t0, t1, NO_PARENT, c as u32);
        }
        let traced_s = t.elapsed().as_secs_f64();
        // Replay: the same 256 keys, grouped by shard, through get_many.
        let mut trie_ns_total = 0u64;
        let mut groups: Vec<Vec<(&[u8], Option<u64>)>> = vec![Vec::new(); SHARDS];
        for (c, positions) in ops.chunks(BATCH_KEYS).enumerate() {
            for g in &mut groups {
                g.clear();
            }
            for &p in positions {
                groups[db.shard_of(data.key(p))].push((data.key(p), data.expected(p)));
            }
            let mut ns = 0u64;
            for (map, group) in mirror.maps.iter().zip(&groups) {
                keys.clear();
                keys.extend(group.iter().map(|g| g.0));
                let t = Instant::now();
                let got = map.get_many(&keys);
                ns += t.elapsed().as_nanos() as u64;
                let ok = got.iter().zip(group).all(|(v, g)| *v == g.1);
                checker.check(
                    ok && got.len() == group.len(),
                    (c * BATCH_KEYS) as u64,
                    || "mirror get_many differs from the model".into(),
                );
            }
            trie_ns_total += ns;
            tracer.replayed_child(trie_name, first + c as u32, ns);
        }
        let calls = ops.len() / BATCH_KEYS;
        out.set(
            "db.multi_get_ns_per_key",
            tracer.mean_ns("db.multi_get") / BATCH_KEYS as f64,
        );
        out.set(
            "trie.get_many_ns_per_key",
            trie_ns_total as f64 / (calls * BATCH_KEYS).max(1) as f64,
        );
        let refs: Vec<&[u8]> = ops.iter().map(|&p| data.key(p)).collect();
        out.set(
            "keys.transform_ns",
            transform_ns(refs.iter().copied(), config.key_preprocessing),
        );
        out.set("trace.overhead_share", overhead_share(untraced_s, traced_s));
        common_layer_metrics(&mut out, opts, &db, &built, gen_s, data.stored);
        finish_trace(NAME, opts, &tracer, &mut out);
        return out.counted(&checker);
    }

    let round_keys = round_calls * BATCH_KEYS;
    let chunk = lat_calls * BATCH_KEYS;
    let mut keys: Vec<&[u8]> = Vec::with_capacity(BATCH_KEYS);
    measure_setups(
        opts,
        config,
        pairs,
        gen_s,
        &mut checker,
        |db, checker| run(db, &pool[..round_keys], checker),
        |db, phase, samples, checker| {
            for (c, positions) in pool[phase * chunk..(phase + 1) * chunk]
                .chunks(BATCH_KEYS)
                .enumerate()
            {
                let t = Instant::now();
                checked_multi_get(
                    db,
                    &data,
                    positions,
                    &mut keys,
                    (c * BATCH_KEYS) as u64,
                    checker,
                );
                samples.push(sample_ns(t.elapsed().as_nanos()));
            }
        },
    )
}

// =============================================================================
// insert_int
// =============================================================================

/// How one `insert_int` round is observed.
enum Watch<'a> {
    /// Nothing but the round's wall time.
    Untimed,
    /// Every insert `put` timed into `samples`.
    Latency(&'a mut Vec<u32>),
    /// Spans around every call, replayed against the mirror afterwards.
    Trace(&'a mut Tracer),
}

/// One round: fresh db, insert every key by point `put`, overwrite a Zipf
/// quarter, delete a distinct quarter; every return value is checked against
/// the model and a sample of keys is read back.  Returns the db (for the
/// memory metrics, taken by the caller right after the inserts through
/// `after_inserts`) and the seconds the timed part took.
fn insert_round(
    data: &IntData,
    ops: &gen::InsertOps,
    round: u64,
    checker: &mut Checker,
    mut watch: Watch<'_>,
    mut after_inserts: impl FnMut(&HyperionDb),
) -> (HyperionDb, f64) {
    let db = new_db(HyperionConfig::for_integers());
    let n = data.stored as u32;
    let stamp = (round + 1) << 40;
    let span_names = match &mut watch {
        Watch::Trace(t) => [
            t.name("db.put"),
            t.name("db.put_update"),
            t.name("db.delete"),
        ],
        _ => [0; 3],
    };
    let mut secs = 0.0;

    let t = Instant::now();
    for i in 0..n {
        let key = data.key(i);
        let got = match &mut watch {
            Watch::Untimed => db.put(&key, i as u64),
            Watch::Latency(samples) => {
                let t = Instant::now();
                let got = db.put(&key, i as u64);
                samples.push(sample_ns(t.elapsed().as_nanos()));
                got
            }
            Watch::Trace(tracer) => {
                tracer
                    .span(span_names[0], NO_PARENT, i, || db.put(&key, i as u64))
                    .0
            }
        };
        checker.check(got == Ok(PutOutcome::Inserted), i as u64, || {
            format!("insert key#{i} = {got:?}")
        });
    }
    secs += t.elapsed().as_secs_f64();
    after_inserts(&db);

    let t = Instant::now();
    for (j, &i) in ops.overwrites.iter().enumerate() {
        let key = data.key(i);
        let value = stamp | i as u64;
        let got = match &mut watch {
            Watch::Trace(tracer) => {
                tracer
                    .span(span_names[1], NO_PARENT, n + j as u32, || {
                        db.put(&key, value)
                    })
                    .0
            }
            _ => db.put(&key, value),
        };
        checker.check(
            got == Ok(PutOutcome::Updated),
            (n as usize + j) as u64,
            || format!("overwrite key#{i} = {got:?}"),
        );
    }
    for (j, &i) in ops.deletes.iter().enumerate() {
        let key = data.key(i);
        let got = match &mut watch {
            Watch::Trace(tracer) => {
                tracer
                    .span(
                        span_names[2],
                        NO_PARENT,
                        n + (ops.overwrites.len() + j) as u32,
                        || db.delete(&key),
                    )
                    .0
            }
            _ => db.delete(&key),
        };
        checker.check(
            got == Ok(true),
            (n as usize + ops.overwrites.len() + j) as u64,
            || format!("delete key#{i} = {got:?}"),
        );
    }
    secs += t.elapsed().as_secs_f64();

    // Read back every 8th key against the model (untimed).
    let mut overwritten = vec![false; n as usize];
    for &i in &ops.overwrites {
        overwritten[i as usize] = true;
    }
    let mut deleted = vec![false; n as usize];
    for &i in &ops.deletes {
        deleted[i as usize] = true;
    }
    for i in (0..n).step_by(8) {
        let want = if deleted[i as usize] {
            None
        } else if overwritten[i as usize] {
            Some(stamp | i as u64)
        } else {
            Some(i as u64)
        };
        let got = db.get(&data.key(i));
        checker.check(got == Ok(want), i as u64, || {
            format!("read-back key#{i} = {got:?}, want {want:?}")
        });
    }
    let live = n as usize - ops.deletes.len();
    checker.check(db.len() == live, 0, || {
        format!("db holds {} keys, model {live}", db.len())
    });
    (db, secs)
}

pub fn insert_int(opts: &Opts) -> Outcome {
    const NAME: &str = "insert_int";
    let mut checker = Checker::new(NAME, opts.seed);
    let keys_n = opts.scale.of(1_000_000, 4_000);

    // Set-up here is generation alone (every round builds its own db), so it
    // is generation that is repeated and medianed.
    let mut gens = Vec::new();
    let mut made = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        made = Some((
            IntData::generate(opts.seed, keys_n),
            gen::insert_ops(opts.seed, keys_n),
        ));
        gens.push(t.elapsed().as_secs_f64());
    }
    let (data, ops) = made.expect("SETUP_REPEATS > 0");
    let round_ops = (keys_n + ops.overwrites.len() + ops.deletes.len()) as u64;
    let rss_before = rss_baseline_mib();

    if opts.trace {
        let mut out = Outcome::zeroed_per_layer();
        let (db, untraced_s) = insert_round(&data, &ops, 0, &mut checker, Watch::Untimed, |_| {});
        drop(db);
        let mut tracer = Tracer::new(Instant::now());
        let (db, traced_s) = insert_round(
            &data,
            &ops,
            1,
            &mut checker,
            Watch::Trace(&mut tracer),
            |_| {},
        );

        // Replay the same calls, in order, against the bare maps.
        let mut mirror = Mirror::new(HyperionConfig::for_integers());
        let names = [
            tracer.name("trie.put_insert"),
            tracer.name("trie.put_update"),
            tracer.name("trie.delete"),
        ];
        let n = data.stored as u32;
        let (allocs0, frees0) = mirror.alloc_counts();
        for i in 0..n {
            let key = data.key(i);
            let map = &mut mirror.maps[db.shard_of(&key)];
            let t = Instant::now();
            let inserted = map.put(&key, i as u64);
            let ns = t.elapsed().as_nanos() as u64;
            checker.check(inserted, i as u64, || {
                format!("mirror insert key#{i} was an update")
            });
            tracer.replayed_child(names[0], i, ns);
        }
        for (j, &i) in ops.overwrites.iter().enumerate() {
            let key = data.key(i);
            let map = &mut mirror.maps[db.shard_of(&key)];
            let t = Instant::now();
            let inserted = map.put(&key, (2 << 40) | i as u64);
            let ns = t.elapsed().as_nanos() as u64;
            checker.check(!inserted, j as u64, || {
                format!("mirror overwrite key#{i} was an insert")
            });
            tracer.replayed_child(names[1], n + j as u32, ns);
        }
        for (j, &i) in ops.deletes.iter().enumerate() {
            let key = data.key(i);
            let map = &mut mirror.maps[db.shard_of(&key)];
            let t = Instant::now();
            let removed = map.delete(&key);
            let ns = t.elapsed().as_nanos() as u64;
            checker.check(removed, j as u64, || {
                format!("mirror delete key#{i} missed")
            });
            tracer.replayed_child(names[2], n + (ops.overwrites.len() + j) as u32, ns);
        }
        mirror.puts = (n as usize + ops.overwrites.len()) as u64;
        let (allocs1, frees1) = mirror.alloc_counts();
        let kops = round_ops as f64 / 1000.0;
        out.set("mem.allocs_per_kop", (allocs1 - allocs0) as f64 / kops);
        out.set("mem.frees_per_kop", (frees1 - frees0) as f64 / kops);
        out.set("db.put_ns", tracer.mean_ns("db.put"));
        out.set("db.delete_ns", tracer.mean_ns("db.delete"));
        out.set(
            "db.write_overhead_ns",
            tracer.mean_ns("db.put") - tracer.mean_ns("trie.put_insert"),
        );
        out.set("trie.put_insert_ns", tracer.mean_ns("trie.put_insert"));
        out.set("trie.put_update_ns", tracer.mean_ns("trie.put_update"));
        out.set("trie.delete_ns", tracer.mean_ns("trie.delete"));
        let keys: Vec<[u8; 8]> = (0..n).map(|i| data.key(i)).collect();
        out.set(
            "keys.transform_ns",
            transform_ns(keys.iter().map(|k| &k[..]), false),
        );
        out.set("workloads.gen_s", median(&gens));
        out.set("db.load_ops_per_s", round_ops as f64 / untraced_s);
        out.set("trace.overhead_share", overhead_share(untraced_s, traced_s));
        mirror.report(&mut out);
        mirror.mem_replay(gen::sub_seed(opts.seed, 20), &mut out);
        db_counters(&db, mirror.puts, &mut out);
        finish_trace(NAME, opts, &tracer, &mut out);
        return out.counted(&checker);
    }

    let mut out = Outcome::default();
    let mut timings = Timings::default();
    // A round is seconds long and builds its own db, so rounds are this
    // workload's set-ups: two untimed ones for the rate, then one per latency
    // sub-round with every insert timed.  A timed round is taken whole: the
    // put tail sits on a knee (p98 ≈ 4 µs, p99 ≈ 6 µs, p99.5 ≈ 12 µs), and the
    // thirds of a round are different phases of a growing db, not repeats.
    const UNTIMED_ROUNDS: u64 = 2;
    for round in 0..UNTIMED_ROUNDS {
        let (db, secs) = insert_round(&data, &ops, round, &mut checker, Watch::Untimed, |_| {});
        timings.round(round_ops, secs);
        drop(db);
    }
    let mut samples: Vec<u32> = Vec::with_capacity(keys_n);
    for timed in 0..LATENCY_ROUNDS as u64 {
        samples.clear();
        let (db, _) = insert_round(
            &data,
            &ops,
            UNTIMED_ROUNDS + timed,
            &mut checker,
            Watch::Latency(&mut samples),
            |db| {
                if timed == 0 {
                    memory_metrics(db, rss_before, &mut out)
                }
            },
        );
        drop(db);
        timings.latency_round(&mut samples);
    }
    timings.finish(&mut out);
    out.set("setup_s", median(&gens));
    out.counted(&checker)
}

// =============================================================================
// churn_2t
// =============================================================================

/// The writer's exact model of its stripe: which positions are present, the
/// version counter, and the positions it deleted (re-inserted by `Insert`).
struct ChurnModel {
    present: Vec<bool>,
    deleted: Vec<u32>,
    version: u64,
}

/// Value of churn-stripe position `pos` at `version`: the reader checks the
/// high half, whatever version it races with.
#[inline]
fn churn_value(pos: u32, version: u64) -> u64 {
    (pos as u64) << 32 | (version & 0xffff_ffff)
}

pub fn churn_2t(opts: &Opts) -> Outcome {
    const NAME: &str = "churn_2t";
    let mut checker = Checker::new(NAME, opts.seed);
    let keys_n = opts.scale.of(500_000, 2_000);
    let stripe = keys_n / 2;
    let pool_n = opts.scale.of(2_000_000, 20_000);

    let t = Instant::now();
    let data = StrData::generate(opts.seed, keys_n, 20);
    // Reader: Zipf rank within a stripe, stripes alternating.
    let reads = gen::zipf_pool(opts.seed, 11, stripe, 0, 0, pool_n);
    let writes = gen::mix_pool(
        opts.seed,
        9,
        stripe,
        Mix {
            put: 80,
            insert: 10,
            delete: 10,
            scan: 0,
        },
        pool_n,
    );
    let gen_s = t.elapsed().as_secs_f64();
    let mut clock = SetupClock {
        gen_s,
        loads: Vec::new(),
    };
    let config = HyperionConfig::for_strings();
    // Static stripe: positions 0..stripe with corpus values.  Churned stripe:
    // positions stripe..2*stripe with values that carry the position.
    let pairs = || {
        (0..2 * stripe as u32).map(|p| {
            let value = if (p as usize) < stripe {
                data.value(p)
            } else {
                churn_value(p - stripe as u32, 0)
            };
            (data.key(p), value)
        })
    };

    // Where each side is in its op stream; carried across set-ups.
    let (mut read_at, mut write_at) = (0usize, 0usize);

    if opts.trace {
        let mut tracer = Tracer::new(Instant::now());
        let (db, built) = build_traced(config, pairs(), &mut checker, &mut tracer);
        let mirror = &built.mirror;
        let mut out = Outcome::zeroed_per_layer();
        // The mirror saw the load only: concurrent churn cannot be replayed
        // against bare maps, so the structure figures (and the shard balance,
        // which the churn's inserts and deletes would blur) are the load's.
        common_layer_metrics(&mut out, opts, &db, &built, gen_s, 2 * stripe);
        let mut churn = Churn::new(&db, &data, &reads, &writes, opts.seed, 0, 0);
        let secs = (opts.seconds / 4.0).max(0.05);
        let (r0, _, s0) = churn.round(secs, None, None, &mut checker);
        let before = db.stats();
        let (mut rt, mut wt) = (Tracer::new(Instant::now()), Tracer::new(Instant::now()));
        let (r1, w1, s1) = churn.round(secs, None, Some((&mut rt, &mut wt)), &mut checker);
        let after = db.stats();
        tracer.absorb(rt);
        tracer.absorb(wt);
        let (before, after) = (before.optimistic, after.optimistic);
        let reads_done =
            ((after.hits - before.hits) + (after.fallbacks - before.fallbacks)).max(1) as f64;
        out.set(
            "db.optimistic_retry_share",
            (after.retries - before.retries) as f64 / reads_done,
        );
        out.set(
            "db.optimistic_fallback_share",
            (after.fallbacks - before.fallbacks) as f64 / reads_done,
        );
        out.set("db.writer_ops_per_s", w1 as f64 / s1);
        out.set("db.get_ns", tracer.mean_ns("db.get"));
        out.set("db.put_ns", tracer.mean_ns("db.put"));
        out.set("db.delete_ns", tracer.mean_ns("db.delete"));
        out.set(
            "trace.overhead_share",
            overhead_share(s0 / r0.max(1) as f64, s1 / r1.max(1) as f64),
        );
        shortcut_metrics(&db, mirror.puts + churn.model.version, &mut out);
        finish_trace(NAME, opts, &tracer, &mut out);
        return out.counted(&checker);
    }

    let mut out = Outcome::default();
    let mut timings = Timings::default();
    let round_s = opts.throughput_seconds().max(0.05);
    let latency_s = (opts.seconds / SETUP_REPEATS as f64 - round_s).max(0.05);
    let mut samples: Vec<u32> = Vec::new();
    for phase in 0..SETUP_REPEATS {
        let rss_before = (phase == 0).then(rss_baseline_mib);
        let (db, load_s) = build(config, pairs(), &mut checker);
        clock.loads.push(load_s);
        let mut churn = Churn::new(&db, &data, &reads, &writes, opts.seed, read_at, write_at);
        let (reads_done, _, secs) = churn.round(round_s, None, None, &mut checker);
        timings.round(reads_done, secs);
        if let Some(before) = rss_before {
            memory_metrics(&db, before, &mut out);
        }
        samples.clear();
        churn.round(latency_s, Some(&mut samples), None, &mut checker);
        timings.latency_round(&mut samples);
        (read_at, write_at) = (churn.read_at, churn.write_at);
    }
    timings.finish(&mut out);
    clock.finish(&mut out);
    out.counted(&checker)
}

/// One db under churn: the reader's and the writer's positions in their op
/// streams and the writer's model of its stripe.
struct Churn<'a> {
    db: &'a HyperionDb,
    data: &'a StrData,
    reads: &'a [u32],
    writes: &'a [MixOp],
    stripe: usize,
    seed: u64,
    model: ChurnModel,
    read_at: usize,
    write_at: usize,
}

impl<'a> Churn<'a> {
    /// A freshly loaded db: every churn-stripe key present at version 0.
    fn new(
        db: &'a HyperionDb,
        data: &'a StrData,
        reads: &'a [u32],
        writes: &'a [MixOp],
        seed: u64,
        read_at: usize,
        write_at: usize,
    ) -> Churn<'a> {
        let stripe = data.stored / 2;
        Churn {
            db,
            data,
            reads,
            writes,
            stripe,
            seed,
            model: ChurnModel {
                present: vec![true; stripe],
                deleted: Vec::new(),
                version: 0,
            },
            read_at,
            write_at,
        }
    }

    /// One time-boxed round of both threads.  Returns (reads, writes,
    /// seconds); W's call latencies go to `samples` and both sides' spans to
    /// `tracers` if given.
    fn round(
        &mut self,
        secs: f64,
        mut samples: Option<&mut Vec<u32>>,
        tracers: Option<(&mut Tracer, &mut Tracer)>,
        checker: &mut Checker,
    ) -> (u64, u64, f64) {
        const NAME: &str = "churn_2t";
        let stop = AtomicBool::new(false);
        let (db, data, reads, writes, stripe) =
            (self.db, self.data, self.reads, self.writes, self.stripe);
        let model = &mut self.model;
        let (mut r_tracer, mut w_tracer) = match tracers {
            Some((r, w)) => (Some(r), Some(w)),
            None => (None, None),
        };
        let (mut r_check, mut w_check) =
            (Checker::new(NAME, self.seed), Checker::new(NAME, self.seed));
        let (r_from, w_from) = (self.read_at, self.write_at);
        let t = Instant::now();
        let (r_done, w_done) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let name = r_tracer.as_mut().map(|t| t.name("db.get"));
                let mut at = r_from;
                while !stop.load(Ordering::Relaxed) {
                    let rank = reads[at % reads.len()];
                    let churned = at % 2 == 1;
                    let pos = if churned { rank + stripe as u32 } else { rank };
                    let key = data.key(pos);
                    let got = match (&mut r_tracer, name) {
                        (Some(tracer), Some(name)) if tracer.spans().len() < MAX_THREAD_SPANS => {
                            tracer.span(name, NO_PARENT, at as u32, || db.get(key)).0
                        }
                        _ => db.get(key),
                    };
                    let ok = match &got {
                        Ok(Some(v)) if churned => v >> 32 == rank as u64,
                        Ok(None) => churned,
                        Ok(v) => *v == Some(data.value(pos)),
                        Err(_) => false,
                    };
                    r_check.check(ok, at as u64, || {
                        format!("reader pos#{pos} churned={churned} = {got:?}")
                    });
                    at += 1;
                }
                at
            });
            let writer = s.spawn(|| {
                let names = w_tracer
                    .as_mut()
                    .map(|t| [t.name("db.put"), t.name("db.delete")]);
                let mut at = w_from;
                while !stop.load(Ordering::Relaxed) {
                    let MixOp { verb, pos } = writes[at % writes.len()];
                    // `Insert` re-creates a key this writer deleted earlier.
                    let pos = match verb {
                        Verb::Insert => model.deleted.pop().unwrap_or(pos),
                        _ => pos,
                    };
                    let key = data.key(pos + stripe as u32);
                    model.version += 1;
                    let value = churn_value(pos, model.version);
                    let was_present = model.present[pos as usize];
                    let t = samples.is_some().then(Instant::now);
                    let ok = if verb == Verb::Delete {
                        let got = match (&mut w_tracer, names) {
                            (Some(tracer), Some(n)) if tracer.spans().len() < MAX_THREAD_SPANS => {
                                tracer.span(n[1], NO_PARENT, at as u32, || db.delete(key)).0
                            }
                            _ => db.delete(key),
                        };
                        if was_present {
                            model.present[pos as usize] = false;
                            model.deleted.push(pos);
                        }
                        got == Ok(was_present)
                    } else {
                        let got = match (&mut w_tracer, names) {
                            (Some(tracer), Some(n)) if tracer.spans().len() < MAX_THREAD_SPANS => {
                                tracer
                                    .span(n[0], NO_PARENT, at as u32, || db.put(key, value))
                                    .0
                            }
                            _ => db.put(key, value),
                        };
                        model.present[pos as usize] = true;
                        got == Ok(if was_present {
                            PutOutcome::Updated
                        } else {
                            PutOutcome::Inserted
                        })
                    };
                    if let (Some(t), Some(samples)) = (t, samples.as_mut()) {
                        samples.push(sample_ns(t.elapsed().as_nanos()));
                    }
                    w_check.check(ok, at as u64, || {
                        format!(
                            "writer {verb:?} pos#{pos} (present={was_present}) answered otherwise"
                        )
                    });
                    at += 1;
                }
                at
            });
            std::thread::sleep(Duration::from_secs_f64(secs));
            stop.store(true, Ordering::Relaxed);
            (
                reader.join().expect("reader thread"),
                writer.join().expect("writer thread"),
            )
        });
        let elapsed = t.elapsed().as_secs_f64();
        checker.absorb(&r_check);
        checker.absorb(&w_check);
        self.read_at = r_done;
        self.write_at = w_done;
        ((r_done - r_from) as u64, (w_done - w_from) as u64, elapsed)
    }
}

/// Spans each churn thread keeps (the rest of the round runs unspanned).
const MAX_THREAD_SPANS: usize = 100_000;
