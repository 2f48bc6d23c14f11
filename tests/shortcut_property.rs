//! Property tests for the hashed shortcut layer: interleaved
//! `put`/`put_many`/`delete` workloads under a deliberately small container
//! configuration that forces splits and ejections (the structural events
//! that invalidate shortcut entries), checked against a `BTreeMap` oracle
//! with the full container invariant check after every mutation, and every
//! read surface (point gets, `get_many`, ordered iteration both ways, seeks,
//! predecessor queries) checked at the end of each case.
//!
//! Like `property_based.rs`, these use a deterministic fuzz harness driven
//! by the workspace MT19937-64 (no crates.io access), so every failure
//! message carries the case seed and reproduces exactly.

use hyperion::workloads::{Mt19937_64, NgramCorpus, NgramCorpusConfig};
use hyperion::{HyperionConfig, HyperionMap};
use std::collections::BTreeMap;

/// Tiny container thresholds so even small workloads force embedded-child
/// ejections and vertical container splits, plus an active shortcut table.
fn stress_config() -> HyperionConfig {
    HyperionConfig {
        eject_threshold: 512,
        split_base: 1024,
        split_increment: 512,
        split_min_part: 64,
        shortcut_capacity: 1 << 10,
        ..HyperionConfig::default()
    }
}

/// Keys over a narrow alphabet so prefixes collide heavily and real
/// containers appear at the shortcut depths (2/4/6 transformed bytes).
fn clustered_key(rng: &mut Mt19937_64, max_len: usize) -> Vec<u8> {
    let len = (rng.next_u64() as usize) % max_len;
    (0..len)
        .map(|_| b'a' + (rng.next_u64() % 4) as u8)
        .collect()
}

/// Draws one key of an input's shape.
type KeyGen = fn(&mut Mt19937_64) -> Vec<u8>;

/// Non-empty keys of up to 10 bytes over the 23 smallest byte values:
/// containers fill fast, T records fan out wider than under
/// [`clustered_key`], and delta-encoded runs are long.
fn alphabet23_key(rng: &mut Mt19937_64) -> Vec<u8> {
    let len = 1 + (rng.next_u64() as usize) % 10;
    (0..len).map(|_| (rng.next_u64() % 23) as u8).collect()
}

/// Interleaved `put_many` batches, point puts and deletes under the stress
/// configuration: the structure invariant holds after *every* mutation, and
/// shortcut-assisted gets never diverge from the oracle — including the
/// second get of each key, which is served from the (possibly just
/// invalidated and repopulated) shortcut table.  Runs over two key shapes:
/// the 4-letter [`clustered_key`] and the 23-symbol [`alphabet23_key`].
#[test]
fn interleaved_mutations_with_forced_splits_match_oracle() {
    let inputs: [(&str, u64, KeyGen); 2] = [
        ("4-letter", 0x5c07, |rng| clustered_key(rng, 14)),
        ("23-symbol", 0x5ca7, alphabet23_key),
    ];
    for (shape, seed, next_key) in inputs {
        for case in 0..12u64 {
            check_interleaved_case(&format!("{shape} case {case}"), seed + case, next_key);
        }
    }
}

/// One case of [`interleaved_mutations_with_forced_splits_match_oracle`]:
/// `case` labels failures, `next_key` draws keys from the input's shape.
fn check_interleaved_case(case: &str, seed: u64, next_key: KeyGen) {
    let mut rng = Mt19937_64::new(seed);
    let mut map = HyperionMap::with_config(stress_config());
    let mut reference: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for round in 0..6 {
        // One batched put per round keeps the bulk-load path (stream
        // builder, splice, shortcut publication) in the mix...
        let n = 50 + (rng.next_u64() as usize) % 300;
        let pairs: Vec<(Vec<u8>, u64)> = (0..n)
            .map(|_| (next_key(&mut rng), rng.next_u64()))
            .collect();
        map.put_many(pairs.iter().map(|(k, v)| (k.as_slice(), *v)));
        for (k, v) in &pairs {
            reference.insert(k.clone(), *v);
        }
        map.validate_structure()
            .unwrap_or_else(|e| panic!("{case} round {round}: put_many: {e}"));
        // ...then interleaved point puts and deletes, validating after
        // every mutation so a failing op is pinpointed exactly.
        for step in 0..40 {
            let key = next_key(&mut rng);
            if rng.next_u64() % 3 == 0 {
                assert_eq!(
                    map.delete(&key),
                    reference.remove(&key).is_some(),
                    "{case} round {round} step {step}: delete {key:x?}"
                );
            } else {
                let value = rng.next_u64();
                assert_eq!(
                    map.put(&key, value),
                    !reference.contains_key(&key),
                    "{case} round {round} step {step}: put {key:x?}"
                );
                reference.insert(key.clone(), value);
            }
            map.validate_structure().unwrap_or_else(|e| {
                panic!("{case} round {round} step {step}: after {key:x?}: {e}")
            });
        }
        assert_eq!(map.len(), reference.len(), "{case} round {round}: len");
        // Shortcut-assisted gets never diverge: every live key twice
        // (cold probe, then a probe that can be shortcut-served) plus
        // random probes mixing present, deleted and absent keys.
        for (k, v) in &reference {
            for pass in 0..2 {
                assert_eq!(
                    map.get(k),
                    Some(*v),
                    "{case} round {round} pass {pass}: get {k:x?}"
                );
            }
        }
        for _ in 0..64 {
            let probe = next_key(&mut rng);
            assert_eq!(
                map.get(&probe),
                reference.get(&probe).copied(),
                "{case} round {round}: probe {probe:x?}"
            );
        }
    }
    // The stress thresholds must actually exercise the shortcut path:
    // probes flowed through the table and deep containers were cached.
    let stats = map.shortcut_stats();
    assert!(
        stats.hits + stats.misses > 0,
        "{case}: shortcut never probed"
    );
    assert!(stats.hits > 0, "{case}: shortcut never hit");

    // Every other read surface agrees with the oracle on the final map:
    // batched gets mixing hits and misses, full iteration in both
    // directions, and seeks and predecessor queries at random keys.
    let mut probes: Vec<Vec<u8>> = reference.keys().cloned().collect();
    probes.extend((0..200).map(|_| next_key(&mut rng)));
    let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
    for (probe, got) in probes.iter().zip(map.get_many(&refs)) {
        assert_eq!(
            got,
            reference.get(probe).copied(),
            "{case}: get_many {probe:x?}"
        );
    }
    let mut expected: Vec<(Vec<u8>, u64)> =
        reference.iter().map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(
        map.iter().collect::<Vec<_>>(),
        expected,
        "{case}: forward iteration"
    );
    expected.reverse();
    assert_eq!(
        map.iter().rev().collect::<Vec<_>>(),
        expected,
        "{case}: reverse iteration"
    );
    for _ in 0..50 {
        let probe = next_key(&mut rng);
        let mut cursor = map.cursor();
        cursor.seek(&probe);
        assert_eq!(
            cursor.next(),
            reference
                .range(probe.clone()..)
                .next()
                .map(|(k, v)| (k.clone(), *v)),
            "{case}: seek {probe:x?}"
        );
        assert_eq!(
            map.pred(&probe),
            reference
                .range(..probe.clone())
                .next_back()
                .map(|(k, v)| (k.clone(), *v)),
            "{case}: pred {probe:x?}"
        );
    }
}

/// Shortcut-seeded cursor seeks (`seek` + the continuation re-seek that
/// covers the key space past the cached prefix, and `seek_for_pred` on the
/// backward side) agree with `BTreeMap` range semantics on maps whose
/// containers were split and ejected under the stress configuration.
#[test]
fn shortcut_seeded_seeks_match_oracle() {
    for case in 0..8u64 {
        let mut rng = Mt19937_64::new(0xceed + case);
        let mut map = HyperionMap::with_config(stress_config());
        let mut reference: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        let n = 400 + (rng.next_u64() as usize) % 1200;
        let pairs: Vec<(Vec<u8>, u64)> = (0..n)
            .map(|_| (clustered_key(&mut rng, 14), rng.next_u64()))
            .collect();
        map.put_many(pairs.iter().map(|(k, v)| (k.as_slice(), *v)));
        for (k, v) in pairs {
            reference.insert(k, v);
        }
        // Point churn so splits/ejections have invalidated some of the
        // entries published during the batch build.
        for _ in 0..150 {
            let key = clustered_key(&mut rng, 14);
            if rng.next_u64() % 4 == 0 {
                map.delete(&key);
                reference.remove(&key);
            } else {
                let value = rng.next_u64();
                map.put(&key, value);
                reference.insert(key, value);
            }
        }
        map.validate_structure()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));

        let mut cursor = map.cursor();
        for probe in 0..200 {
            let target = clustered_key(&mut rng, 14);
            // Forward: first key >= target, then a few successor steps so
            // the one-shot continuation re-seek past the cached prefix's
            // upper bound is exercised too.
            cursor.seek(&target);
            let mut expected = reference.range(target.clone()..);
            for step in 0..4 {
                assert_eq!(
                    cursor.next(),
                    expected.next().map(|(k, v)| (k.clone(), *v)),
                    "case {case} probe {probe} step {step}: seek {target:x?}"
                );
            }
            // Backward: last key <= target, then a few predecessor steps.
            cursor.seek_for_pred(&target);
            let mut expected = reference.range(..=target.clone()).rev();
            for step in 0..4 {
                assert_eq!(
                    cursor.prev(),
                    expected.next().map(|(k, v)| (k.clone(), *v)),
                    "case {case} probe {probe} step {step}: pred seek {target:x?}"
                );
            }
        }
    }
}

/// Regression guard for builder-side jump emission on real string
/// workloads: bulk-loading the shuffled n-gram corpus must produce a
/// structurally valid trie (no jump structures inside embedded bodies —
/// those go stale after byte-shifting edits) and every key must read back.
#[test]
fn bulk_loaded_ngram_corpus_is_structurally_valid() {
    let corpus = NgramCorpus::generate(&NgramCorpusConfig {
        entries: 20_000,
        ..Default::default()
    });
    let workload = corpus.workload.shuffled(0xc0ffee);
    let mut map = HyperionMap::with_config(HyperionConfig::for_strings());
    map.put_many(
        workload
            .keys
            .iter()
            .map(|k| k.as_slice())
            .zip(workload.values.iter().copied()),
    );
    map.validate_structure().expect("ngram bulk load");
    let oracle: BTreeMap<&[u8], u64> = workload
        .keys
        .iter()
        .map(|k| k.as_slice())
        .zip(workload.values.iter().copied())
        .collect();
    assert_eq!(map.len(), oracle.len());
    for (k, v) in &oracle {
        assert_eq!(
            map.get(k),
            Some(*v),
            "ngram get {:?}",
            String::from_utf8_lossy(k)
        );
    }
}
