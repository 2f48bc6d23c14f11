//! Property-based tests on the core data structures and invariants.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these tests use a small deterministic fuzz harness driven by the
//! workspace's own MT19937-64: each property is checked over many randomly
//! generated cases, and every failure message carries the case seed so a
//! failure reproduces exactly.

use hyperion::workloads::Mt19937_64;
use hyperion::{HyperionConfig, HyperionMap};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Generates a random byte key of length `0..max_len`.
fn random_key(rng: &mut Mt19937_64, max_len: usize) -> Vec<u8> {
    let len = (rng.next_u64() as usize) % max_len;
    (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect()
}

/// Random sequences of put/get/delete must behave exactly like BTreeMap.
#[test]
fn hyperion_matches_btreemap_under_random_ops() {
    for case in 0..64u64 {
        let mut rng = Mt19937_64::new(0xb0b0 + case);
        let ops = 1 + (rng.next_u64() as usize) % 400;
        let mut map = HyperionMap::new();
        let mut reference: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for _ in 0..ops {
            let key = random_key(&mut rng, 24);
            let value = rng.next_u64();
            if rng.next_u64() % 4 == 0 {
                assert_eq!(
                    map.delete(&key),
                    reference.remove(&key).is_some(),
                    "case {case}: delete {key:x?}"
                );
            } else {
                let expected_new = !reference.contains_key(&key);
                assert_eq!(
                    map.put(&key, value),
                    expected_new,
                    "case {case}: put {key:x?}"
                );
                reference.insert(key, value);
            }
        }
        assert_eq!(map.len(), reference.len(), "case {case}: len");
        for (k, v) in &reference {
            assert_eq!(map.get(k), Some(*v), "case {case}: get {k:x?}");
        }
        let collected: Vec<(Vec<u8>, u64)> = map.iter().collect();
        let expected: Vec<(Vec<u8>, u64)> = reference.into_iter().collect();
        assert_eq!(collected, expected, "case {case}: ordered iteration");
    }
}

/// `iter()`, `range()` and `prefix()` agree with `BTreeMap` on 10,000 random
/// byte keys (the acceptance bar for the lazy iterator API).
#[test]
fn iterators_match_btreemap_on_10k_random_keys() {
    let mut rng = Mt19937_64::new(0x17e8);
    let mut map = HyperionMap::new();
    let mut reference: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    while reference.len() < 10_000 {
        let key = random_key(&mut rng, 16);
        let value = rng.next_u64();
        map.put(&key, value);
        reference.insert(key, value);
    }

    // Full iteration.
    let got: Vec<_> = map.iter().collect();
    let expected: Vec<_> = reference.iter().map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(got, expected);

    // 100 random half-open ranges.
    for case in 0..100 {
        let mut a = random_key(&mut rng, 16);
        let mut b = random_key(&mut rng, 16);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let got: Vec<_> = map.range(&a[..]..&b[..]).collect();
        let expected: Vec<_> = reference
            .range(a.clone()..b.clone())
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(got, expected, "case {case}: range {a:x?}..{b:x?}");
    }

    // Random prefixes of random lengths.
    for case in 0..100 {
        let p = random_key(&mut rng, 4);
        let got: Vec<_> = map.prefix(&p).map(|(k, _)| k).collect();
        let expected: Vec<_> = reference
            .keys()
            .filter(|k| k.starts_with(&p))
            .cloned()
            .collect();
        assert_eq!(got, expected, "case {case}: prefix {p:x?}");
    }
}

/// Empty ranges, inverted bounds, exclusive bounds and seeks past the last
/// key all behave like their `BTreeMap` counterparts.
#[test]
fn range_edge_cases_match_btreemap() {
    let mut rng = Mt19937_64::new(0xedfe);
    let mut map = HyperionMap::new();
    let mut reference: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for _ in 0..2_000 {
        let key = random_key(&mut rng, 8);
        let value = rng.next_u64();
        map.put(&key, value);
        reference.insert(key, value);
    }
    let some_key = reference.keys().nth(1_000).unwrap().clone();

    // Empty range: identical bounds.
    assert_eq!(map.range(&some_key[..]..&some_key[..]).count(), 0);

    // Exclusive start bound skips exactly the bound key.
    let got: Vec<_> = map
        .range::<[u8], _>((Bound::Excluded(&some_key[..]), Bound::Unbounded))
        .map(|(k, _)| k)
        .collect();
    let expected: Vec<_> = reference
        .range::<Vec<u8>, _>((Bound::Excluded(&some_key), Bound::Unbounded))
        .map(|(k, _)| k.clone())
        .collect();
    assert_eq!(got, expected);

    // Inclusive end bound includes the bound key.
    assert_eq!(
        map.range(&some_key[..]..=&some_key[..]).count(),
        1,
        "inclusive singleton range"
    );

    // Seek past the largest possible key: exhausted cursor, empty iterators.
    let past_end = vec![0xff; 20];
    let mut cur = map.cursor();
    cur.seek(&past_end);
    assert_eq!(cur.next(), None);
    assert_eq!(map.range(&past_end[..]..).count(), 0);
    assert_eq!(
        reference.range(past_end.clone()..).count(),
        0,
        "reference agrees the tail is empty"
    );

    // An empty map yields empty iterators everywhere.
    let empty = HyperionMap::new();
    assert_eq!(empty.iter().count(), 0);
    assert_eq!(empty.prefix(b"x").count(), 0);
    assert_eq!(empty.range(&b"a"[..]..&b"z"[..]).count(), 0);
    assert_eq!(empty.cursor().next(), None);
}

/// The key pre-processor must be injective, invertible and order preserving.
#[test]
fn preprocessing_is_order_preserving() {
    use hyperion::core::keys::{postprocess_key, preprocess_key};
    for case in 0..32u64 {
        let mut rng = Mt19937_64::new(0x9e37 + case);
        let n = 2 + (rng.next_u64() as usize) % 200;
        let mut values: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        values.sort_unstable();
        values.dedup();
        let keys: Vec<Vec<u8>> = values
            .iter()
            .map(|v| preprocess_key(&v.to_be_bytes()))
            .collect();
        for pair in keys.windows(2) {
            assert!(pair[0] < pair[1], "case {case}: order violated");
        }
        for (v, k) in values.iter().zip(&keys) {
            assert_eq!(
                postprocess_key(k).unwrap(),
                v.to_be_bytes().to_vec(),
                "case {case}: roundtrip"
            );
        }
    }
}

/// Range queries return exactly the keys >= the start key, in order
/// (the callback adapter and the cursor agree by construction; this pins the
/// cursor's seek semantics against BTreeMap).
#[test]
fn range_from_matches_btreemap() {
    for case in 0..64u64 {
        let mut rng = Mt19937_64::new(0x5eed + case);
        let n = 1 + (rng.next_u64() as usize) % 200;
        let mut map = HyperionMap::new();
        let mut reference = BTreeMap::new();
        for i in 0..n {
            let mut key = random_key(&mut rng, 12);
            if key.is_empty() {
                key.push(0);
            }
            map.put(&key, i as u64);
            reference.insert(key, i as u64);
        }
        let start = random_key(&mut rng, 12);
        let mut got = Vec::new();
        map.range_from(&start, &mut |k, v| {
            got.push((k.to_vec(), v));
            true
        });
        let expected: Vec<(Vec<u8>, u64)> = reference
            .range(start.clone()..)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(got, expected, "case {case}: start {start:x?}");
    }
}

/// The single-pass write engine under interleaved point puts, deletes and
/// sorted batch application (`put_many`), in sorted, reverse and random key
/// orders, against a `BTreeMap` oracle — with the full container-invariant
/// check (header sizes, record ordering, jump-successor / jump-table /
/// container-jump-table consistency, value counts) after every structural
/// mutation.
#[test]
fn write_engine_invariants_under_interleaved_ops() {
    #[derive(Clone, Copy)]
    enum Order {
        Sorted,
        Reverse,
        Random,
    }
    for (case, order) in [Order::Sorted, Order::Reverse, Order::Random]
        .into_iter()
        .cycle()
        .take(24)
        .enumerate()
    {
        let case = case as u64;
        let mut rng = Mt19937_64::new(0xeb617 + case);
        let mut map = HyperionMap::new();
        let mut reference: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for round in 0..12 {
            // One batch of puts...
            let n = 1 + (rng.next_u64() as usize) % 120;
            let mut pairs: Vec<(Vec<u8>, u64)> = (0..n)
                .map(|_| (random_key(&mut rng, 18), rng.next_u64()))
                .collect();
            match order {
                Order::Sorted => pairs.sort(),
                Order::Reverse => {
                    pairs.sort();
                    pairs.reverse();
                }
                Order::Random => {}
            }
            let expected_inserted = {
                let unique: std::collections::BTreeMap<&[u8], u64> =
                    pairs.iter().map(|(k, v)| (k.as_slice(), *v)).collect();
                unique
                    .keys()
                    .filter(|k| !reference.contains_key(**k))
                    .count()
            };
            let inserted = map.put_many(pairs.iter().map(|(k, v)| (k.as_slice(), *v)));
            assert_eq!(
                inserted, expected_inserted,
                "case {case} round {round}: batch insert count"
            );
            for (k, v) in &pairs {
                reference.insert(k.clone(), *v);
            }
            map.validate_structure()
                .unwrap_or_else(|e| panic!("case {case} round {round} after batch: {e}"));

            // ... then interleaved point puts and deletes.
            for _ in 0..30 {
                let key = random_key(&mut rng, 18);
                if rng.next_u64() % 3 == 0 {
                    assert_eq!(
                        map.delete(&key),
                        reference.remove(&key).is_some(),
                        "case {case} round {round}: delete {key:x?}"
                    );
                } else {
                    let value = rng.next_u64();
                    assert_eq!(
                        map.put(&key, value),
                        !reference.contains_key(&key),
                        "case {case} round {round}: put {key:x?}"
                    );
                    reference.insert(key, value);
                }
            }
            map.validate_structure()
                .unwrap_or_else(|e| panic!("case {case} round {round} after points: {e}"));
            assert_eq!(map.len(), reference.len(), "case {case} round {round}: len");
        }
        let collected: Vec<(Vec<u8>, u64)> = map.iter().collect();
        let expected: Vec<(Vec<u8>, u64)> = reference.into_iter().collect();
        assert_eq!(collected, expected, "case {case}: final iteration");
    }
}

/// Adversarial keyset for the write engine: object-store style keys
/// (`tenant/NN/bucket/NNN/object-NNNNNN`) share deep prefixes with a fanning
/// tail, forcing path-compressed rewrites, embedded-container growth,
/// ejections and splits, with a delete of an absent sibling under a live
/// prefix after every third put.  `try_put` must never surface an error, and
/// the result must match a `BTreeMap` oracle and pass the container-invariant
/// check.
#[test]
fn write_engine_converges_on_deep_shared_prefixes() {
    let mut rng = Mt19937_64::new(0x7e4a47);
    let mut map = HyperionMap::new();
    let mut reference: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for i in 0..20_000u64 {
        let key = format!(
            "tenant/{:02}/bucket/{:03}/object-{:06}",
            rng.next_u64() % 4,
            rng.next_u64() % 64,
            rng.next_u64() % 50_000
        )
        .into_bytes();
        let value = rng.next_u64();
        let inserted = map
            .try_put(&key, value)
            .unwrap_or_else(|e| panic!("put {i}: write engine failed to converge: {e:?}"));
        assert_eq!(inserted, !reference.contains_key(&key), "put {i}");
        reference.insert(key, value);
        if i % 3 == 0 {
            let dead = format!(
                "tenant/{:02}/bucket/{:03}/x",
                rng.next_u64() % 4,
                rng.next_u64() % 64
            );
            assert_eq!(
                map.delete(dead.as_bytes()),
                reference.remove(dead.as_bytes()).is_some(),
                "delete {dead}"
            );
        }
    }
    assert_eq!(map.len(), reference.len(), "len");
    for (k, v) in &reference {
        assert_eq!(map.get(k), Some(*v), "get {:?}", String::from_utf8_lossy(k));
    }
    map.validate_structure()
        .unwrap_or_else(|e| panic!("container invariants violated: {e}"));
    let counters = map.counters();
    assert!(
        counters.ejections + counters.splits > 0,
        "keyset must exercise structural changes: {counters:?}"
    );
}

/// Batch application must behave exactly like sequential puts — same final
/// state *and* same insert count — when keys collide within the batch
/// (last value wins) and with previously stored keys (update, not insert).
#[test]
fn put_many_matches_sequential_puts() {
    for case in 0..32u64 {
        let mut rng = Mt19937_64::new(0xba7c4 + case);
        let n = 1 + (rng.next_u64() as usize) % 300;
        let pairs: Vec<(Vec<u8>, u64)> = (0..n)
            .map(|_| (random_key(&mut rng, 10), rng.next_u64()))
            .collect();
        let pre: Vec<(Vec<u8>, u64)> = (0..n / 2)
            .map(|_| (random_key(&mut rng, 10), rng.next_u64()))
            .collect();

        let mut batched = HyperionMap::new();
        let mut sequential = HyperionMap::new();
        for (k, v) in &pre {
            batched.put(k, *v);
            sequential.put(k, *v);
        }
        let batch_inserted = batched.put_many(pairs.iter().map(|(k, v)| (k.as_slice(), *v)));
        let mut seq_inserted = 0usize;
        for (k, v) in &pairs {
            if sequential.put(k, *v) {
                seq_inserted += 1;
            }
        }
        // Sequential puts count a key inserted then re-put as one insert +
        // one update; the batch sees it once.  Compare against the number of
        // *distinct* new keys, which both agree on.
        let distinct_new = seq_inserted;
        assert_eq!(batch_inserted, distinct_new, "case {case}: insert count");
        assert_eq!(
            batched.to_vec(),
            sequential.to_vec(),
            "case {case}: final state"
        );
        batched
            .validate_structure()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

/// `WriteBatch` application through `HyperionDb` (which re-orders ops per
/// shard into sorted runs for the write engine) must match a `BTreeMap`
/// oracle applying the ops in batch order, including the per-op summary.
#[test]
fn db_write_batch_matches_oracle() {
    use hyperion::core::db::{FibonacciPartitioner, HyperionDb, WriteBatch};
    for case in 0..16u64 {
        let mut rng = Mt19937_64::new(0xdbba7 + case);
        let db = HyperionDb::builder()
            .shards(5)
            .partitioner(FibonacciPartitioner)
            .build();
        let mut reference: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for round in 0..6 {
            let mut batch = WriteBatch::new();
            let mut expected = hyperion::core::db::BatchSummary::default();
            let n = 1 + (rng.next_u64() as usize) % 150;
            let mut shadow = reference.clone();
            for _ in 0..n {
                let mut key = random_key(&mut rng, 10);
                if key.len() > 1 && rng.next_u64() % 4 == 0 {
                    key.truncate(3); // force duplicate keys within the batch
                }
                if rng.next_u64() % 4 == 0 {
                    batch.delete(&key);
                    if shadow.remove(&key).is_some() {
                        expected.deleted += 1;
                    } else {
                        expected.missing += 1;
                    }
                } else {
                    let value = rng.next_u64();
                    batch.put(&key, value);
                    if shadow.insert(key, value).is_some() {
                        expected.updated += 1;
                    } else {
                        expected.inserted += 1;
                    }
                }
            }
            let summary = db.apply(&batch).unwrap();
            assert_eq!(summary, expected, "case {case} round {round}: summary");
            reference = shadow;
        }
        let got: Vec<(Vec<u8>, u64)> = db.iter().collect();
        let expected: Vec<(Vec<u8>, u64)> = reference.into_iter().collect();
        assert_eq!(got, expected, "case {case}: final state");
    }
}

/// Regression: a batch sharing one 2-byte prefix used to be encoded as a
/// single child body, which could exceed the 19-bit container size field
/// and abort.  The engine must feed the child in bounded chunks (the child
/// upgrades None -> embedded/PC -> pointer along the way).
#[test]
fn huge_shared_prefix_batch_stays_within_container_limits() {
    let mut rng = Mt19937_64::new(0x51ab);
    let mut map = HyperionMap::new();
    map.put(b"ab", 1);
    let pairs: Vec<(Vec<u8>, u64)> = (0..40_000u64)
        .map(|i| {
            let mut key = b"ab".to_vec();
            key.extend((0..16).map(|_| (rng.next_u64() & 0xff) as u8));
            (key, i)
        })
        .collect();
    let inserted = map.put_many(pairs.iter().map(|(k, v)| (k.as_slice(), *v)));
    let mut reference: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    reference.insert(b"ab".to_vec(), 1);
    for (k, v) in &pairs {
        reference.insert(k.clone(), *v);
    }
    assert_eq!(inserted, reference.len() - 1);
    assert_eq!(map.len(), reference.len());
    map.validate_structure()
        .expect("invariants after huge batch");
    for (k, v) in reference.iter().step_by(97) {
        assert_eq!(map.get(k), Some(*v));
    }
    let collected: Vec<(Vec<u8>, u64)> = map.iter().collect();
    let expected: Vec<(Vec<u8>, u64)> = reference.into_iter().collect();
    assert_eq!(collected, expected);
}

/// Interleaved forward/backward cursor walks (`next`/`prev`/`seek`/
/// `seek_exclusive`/`seek_last`/`seek_for_pred`) against a `BTreeMap`-backed
/// model of the cursor contract: the reference point is the last returned
/// key (or the seek target before anything was returned); `next()` returns
/// the smallest key strictly above it, `prev()` the greatest key strictly
/// below it.
#[test]
fn interleaved_cursor_walks_match_model() {
    /// The model cursor: a position in the key space plus whether the
    /// boundary key itself was consumed.
    #[derive(Clone, Debug)]
    enum Model {
        /// Reference point `key`; `next` yields the first key > key if
        /// `above`, else >= key.  `prev` yields the last key < key if
        /// `below`, else <= key.  (`above`/`below` encode in-/exclusivity.)
        At {
            key: Vec<u8>,
            above: bool,
            below: bool,
        },
        /// Past the greatest key (after `seek_last`).
        End,
    }
    for case in 0..48u64 {
        let mut rng = Mt19937_64::new(0xc4a5e + case);
        let mut map = HyperionMap::new();
        let mut reference: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let n = 50 + (rng.next_u64() as usize) % 500;
        for _ in 0..n {
            let key = random_key(&mut rng, 12);
            let value = rng.next_u64();
            map.put(&key, value);
            reference.insert(key, value);
        }
        let mut cursor = map.cursor();
        // Cursor::new == seek(&[]).
        let mut model = Model::At {
            key: Vec::new(),
            above: false,
            below: true,
        };
        for step in 0..200 {
            match rng.next_u64() % 8 {
                0 => {
                    let target = random_key(&mut rng, 12);
                    cursor.seek(&target);
                    model = Model::At {
                        key: target,
                        above: false,
                        below: true,
                    };
                }
                1 => {
                    let target = random_key(&mut rng, 12);
                    cursor.seek_exclusive(&target);
                    model = Model::At {
                        key: target,
                        above: true,
                        below: false,
                    };
                }
                2 => {
                    cursor.seek_last();
                    model = Model::End;
                }
                3 => {
                    let target = random_key(&mut rng, 12);
                    cursor.seek_for_pred(&target);
                    model = Model::At {
                        key: target,
                        above: true,
                        below: false,
                    };
                }
                4 => {
                    let target = random_key(&mut rng, 12);
                    cursor.seek_for_pred_exclusive(&target);
                    model = Model::At {
                        key: target,
                        above: false,
                        below: true,
                    };
                }
                _ => {
                    // Steps are twice as likely as seeks.
                    let forward = rng.next_u64() % 2 == 0;
                    let expected = match (&model, forward) {
                        (Model::End, true) => None,
                        (Model::End, false) => {
                            reference.iter().next_back().map(|(k, v)| (k.clone(), *v))
                        }
                        (Model::At { key, above, .. }, true) => {
                            let bound = if *above {
                                Bound::Excluded(key.clone())
                            } else {
                                Bound::Included(key.clone())
                            };
                            reference
                                .range((bound, Bound::Unbounded))
                                .next()
                                .map(|(k, v)| (k.clone(), *v))
                        }
                        (Model::At { key, below, .. }, false) => {
                            let bound = if *below {
                                Bound::Excluded(key.clone())
                            } else {
                                Bound::Included(key.clone())
                            };
                            reference
                                .range((Bound::Unbounded, bound))
                                .next_back()
                                .map(|(k, v)| (k.clone(), *v))
                        }
                    };
                    let got = if forward {
                        cursor.next()
                    } else {
                        cursor.prev()
                    };
                    assert_eq!(
                        got,
                        expected,
                        "case {case} step {step}: {} from {model:?}",
                        if forward { "next" } else { "prev" }
                    );
                    // A returned key becomes the new reference point; a dry
                    // step leaves the position unchanged.
                    if let Some((key, _)) = got {
                        model = Model::At {
                            key,
                            above: true,
                            below: true,
                        };
                    }
                }
            }
        }
    }
}

/// Reverse iteration (`iter().rev()`, `range(..).rev()`) and the backward
/// queries (`last`/`pred`) stay correct across structural mutations —
/// interleaved batch puts, point puts and deletes in sorted, reverse and
/// random key orders force splits/ejections — with the full container
/// invariant check after every mutation round.
#[test]
fn reverse_iteration_survives_structural_mutations() {
    #[derive(Clone, Copy)]
    enum Order {
        Sorted,
        Reverse,
        Random,
    }
    for (case, order) in [Order::Sorted, Order::Reverse, Order::Random]
        .into_iter()
        .cycle()
        .take(12)
        .enumerate()
    {
        let case = case as u64;
        let mut rng = Mt19937_64::new(0xfeed_beef + case);
        let mut map = HyperionMap::new();
        let mut reference: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for round in 0..8 {
            let n = 1 + (rng.next_u64() as usize) % 200;
            let mut pairs: Vec<(Vec<u8>, u64)> = (0..n)
                .map(|_| (random_key(&mut rng, 16), rng.next_u64()))
                .collect();
            match order {
                Order::Sorted => pairs.sort(),
                Order::Reverse => {
                    pairs.sort();
                    pairs.reverse();
                }
                Order::Random => {}
            }
            map.put_many(pairs.iter().map(|(k, v)| (k.as_slice(), *v)));
            for (k, v) in &pairs {
                reference.insert(k.clone(), *v);
            }
            for _ in 0..25 {
                let key = random_key(&mut rng, 16);
                if rng.next_u64() % 3 == 0 {
                    map.delete(&key);
                    reference.remove(&key);
                } else {
                    let value = rng.next_u64();
                    map.put(&key, value);
                    reference.insert(key, value);
                }
            }
            map.validate_structure()
                .unwrap_or_else(|e| panic!("case {case} round {round}: {e}"));
            // Full reverse iteration after the mutations.
            let got: Vec<(Vec<u8>, u64)> = map.iter().rev().collect();
            let expected: Vec<(Vec<u8>, u64)> = reference
                .iter()
                .rev()
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(got, expected, "case {case} round {round}: reverse iter");
            // Reverse bounded range.
            let mut a = random_key(&mut rng, 16);
            let mut b = random_key(&mut rng, 16);
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            let got: Vec<(Vec<u8>, u64)> = map.range(&a[..]..&b[..]).rev().collect();
            let expected: Vec<(Vec<u8>, u64)> = reference
                .range(a.clone()..b.clone())
                .rev()
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            assert_eq!(got, expected, "case {case} round {round}: reverse range");
            // last/pred agree with the oracle.
            assert_eq!(
                map.last(),
                reference.iter().next_back().map(|(k, v)| (k.clone(), *v)),
                "case {case} round {round}: last"
            );
            let probe = random_key(&mut rng, 16);
            assert_eq!(
                map.pred(&probe),
                reference
                    .range(..probe.clone())
                    .next_back()
                    .map(|(k, v)| (k.clone(), *v)),
                "case {case} round {round}: pred {probe:x?}"
            );
        }
    }
}

/// `get_many` must be order-faithful (`results[i]` answers `keys[i]`) and
/// agree with a `BTreeMap` oracle under interleaved puts and deletes, for
/// batches mixing present keys, never-inserted keys, deleted keys, duplicate
/// probes and the empty key — in sorted, reverse and random probe orders.
#[test]
fn get_many_matches_oracle_under_interleaved_ops() {
    for case in 0..24u64 {
        let mut rng = Mt19937_64::new(0x6e7_3a11 + case);
        let mut map = HyperionMap::new();
        let mut reference: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let mut deleted: Vec<Vec<u8>> = Vec::new();
        let ops = 200 + (rng.next_u64() as usize) % 2000;
        for _ in 0..ops {
            let key = random_key(&mut rng, 18);
            if rng.next_u64() % 5 == 0 {
                map.delete(&key);
                if reference.remove(&key).is_some() {
                    deleted.push(key);
                }
            } else {
                let value = rng.next_u64();
                map.put(&key, value);
                reference.insert(key, value);
            }
        }
        // Probe set: hits, misses, deleted keys, duplicates, the empty key.
        let mut probes: Vec<Vec<u8>> = Vec::new();
        for (k, _) in reference.iter().step_by(3) {
            probes.push(k.clone());
            if rng.next_u64() % 4 == 0 {
                probes.push(k.clone()); // duplicate probe in the same batch
            }
        }
        for _ in 0..probes.len() / 4 + 1 {
            probes.push(random_key(&mut rng, 18)); // likely miss
        }
        probes.extend(deleted.into_iter().take(16));
        probes.push(Vec::new());
        for order in ["sorted", "reverse", "random"] {
            match order {
                "sorted" => probes.sort(),
                "reverse" => probes.reverse(),
                _ => {
                    for i in (1..probes.len()).rev() {
                        let j = (rng.next_u64() as usize) % (i + 1);
                        probes.swap(i, j);
                    }
                }
            }
            let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
            let got = map.get_many(&refs);
            assert_eq!(got.len(), probes.len(), "case {case} {order}: length");
            for (probe, result) in probes.iter().zip(&got) {
                assert_eq!(
                    *result,
                    reference.get(probe).copied(),
                    "case {case} {order}: probe {probe:x?}"
                );
            }
        }
    }
}

/// `HyperionDb::multi_get` must agree with per-key `get` and the oracle for
/// every partitioner, including over-long keys (resolved to `None`, never an
/// error) and batches spanning all shards.
#[test]
fn db_multi_get_matches_oracle() {
    use hyperion::core::db::{
        FibonacciPartitioner, HyperionDb, Partitioner, PrefixHashPartitioner, RangePartitioner,
    };
    use std::sync::Arc;
    let partitioners: Vec<Arc<dyn Partitioner>> = vec![
        Arc::new(FibonacciPartitioner),
        Arc::new(PrefixHashPartitioner::default()),
        Arc::new(RangePartitioner),
    ];
    for partitioner in partitioners {
        let name = partitioner.name();
        let mut rng = Mt19937_64::new(0xdbb);
        let db = HyperionDb::builder()
            .shards(7)
            .partitioner_arc(partitioner)
            .build();
        let mut reference: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for _ in 0..3000 {
            let key = random_key(&mut rng, 12);
            let value = rng.next_u64();
            if rng.next_u64() % 6 == 0 {
                db.delete(&key).unwrap();
                reference.remove(&key);
            } else {
                db.put(&key, value).unwrap();
                reference.insert(key, value);
            }
        }
        let mut probes: Vec<Vec<u8>> = reference.keys().step_by(2).cloned().collect();
        for _ in 0..200 {
            probes.push(random_key(&mut rng, 12));
        }
        probes.push(Vec::new());
        probes.push(vec![0xab; 2000]); // over MAX_KEY_LEN: always None
        for i in (1..probes.len()).rev() {
            let j = (rng.next_u64() as usize) % (i + 1);
            probes.swap(i, j);
        }
        let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
        let got = db.multi_get(&refs).unwrap();
        for (probe, result) in probes.iter().zip(&got) {
            assert_eq!(
                *result,
                reference.get(probe).copied(),
                "{name}: probe {probe:x?}"
            );
            assert_eq!(*result, db.get(probe).unwrap(), "{name}: vs point get");
        }
    }
}

/// Wide-fanout containers (many T records, many S children): random u64
/// keys at volume force splits and chain slots.  After a bulk load, a
/// delete of every seventh key and further point puts, gets, batched gets
/// and seeks must agree with the oracle on a 60 k-key integer map.
#[test]
fn wide_integer_map_matches_oracle_after_churn() {
    let mut rng = Mt19937_64::new(0x51d3);
    let mut map = HyperionMap::with_config(HyperionConfig::for_integers());
    let mut oracle: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let batch: Vec<(Vec<u8>, u64)> = (0..60_000u64)
        .map(|i| (rng.next_u64().to_be_bytes().to_vec(), i))
        .collect();
    map.put_many(batch.iter().map(|(k, v)| (k.as_slice(), *v)));
    oracle.extend(batch);
    map.validate_structure().expect("invariant after bulk load");
    // Interleave deletes and point puts, then re-validate.
    let doomed: Vec<Vec<u8>> = oracle.keys().step_by(7).cloned().collect();
    for k in &doomed {
        assert!(map.delete(k));
        oracle.remove(k);
    }
    for i in 0..5_000u64 {
        let k = rng.next_u64().to_be_bytes().to_vec();
        map.put(&k, i);
        oracle.insert(k, i);
    }
    map.validate_structure().expect("invariant after churn");
    assert_eq!(map.len(), oracle.len());
    let probes: Vec<&[u8]> = oracle.keys().step_by(3).map(|k| k.as_slice()).collect();
    let got = map.get_many(&probes);
    for (probe, got) in probes.iter().zip(&got) {
        assert_eq!(*got, oracle.get(*probe).copied(), "get_many {probe:x?}");
    }
    for (k, v) in oracle.iter().step_by(11) {
        assert_eq!(map.get(k), Some(*v), "get {k:x?}");
    }
    // Seeks across the whole key space.
    for _ in 0..200 {
        let probe = rng.next_u64().to_be_bytes();
        let want = oracle
            .range(probe.to_vec()..)
            .next()
            .map(|(k, v)| (k.clone(), *v));
        let mut cur = map.cursor();
        cur.seek(&probe);
        assert_eq!(cur.next(), want, "seek {probe:x?}");
    }
}
