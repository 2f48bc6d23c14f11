//! Container-scan oracle property: the scalar record-find path under
//! interleaved `put`/`put_many`/`delete` with tiny split/eject thresholds.
//!
//! Each case draws a random order of mutation phases (batched bulk loads
//! through the write engine's splice path, point puts, deletes probing
//! present and absent keys), checks `validate_structure` after every phase,
//! and then asserts every read surface (point gets, `get_many` with misses,
//! ordered iteration in both directions, seeks, predecessor queries) agrees
//! with a `BTreeMap` oracle.  The test name dates from when a SIMD scan
//! backend was checked against the scalar one here; one container layout
//! remains, and it answers to the oracle alone.

use hyperion::workloads::Mt19937_64;
use hyperion::{HyperionConfig, HyperionMap};
use std::collections::BTreeMap;

/// Tiny container thresholds: every few hundred bytes of writes ejects or
/// splits a container, so every structural path runs in every case.
fn tiny_config() -> HyperionConfig {
    HyperionConfig {
        eject_threshold: 512,
        split_base: 1024,
        split_increment: 512,
        split_min_part: 64,
        ..HyperionConfig::default()
    }
}

/// Keys over a narrow alphabet so prefixes collide heavily, containers fill
/// fast and delta-encoded runs are long.
fn clustered_key(rng: &mut Mt19937_64, max_len: usize) -> Vec<u8> {
    let len = 1 + (rng.next_u64() as usize) % max_len;
    (0..len).map(|_| (rng.next_u64() % 23) as u8).collect()
}

#[test]
fn backends_agree_with_oracle_under_interleaved_mutation() {
    for case in 0..24u64 {
        let mut rng = Mt19937_64::new(0x5ca7 + case);
        let mut map = HyperionMap::with_config(tiny_config());
        let mut oracle: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for phase in 0..6 {
            match rng.next_u64() % 3 {
                // A batched bulk load through the write engine's splice path.
                0 => {
                    let n = 50 + (rng.next_u64() as usize) % 400;
                    let batch: Vec<(Vec<u8>, u64)> = (0..n)
                        .map(|_| (clustered_key(&mut rng, 10), rng.next_u64()))
                        .collect();
                    map.put_many(batch.iter().map(|(k, v)| (k.as_slice(), *v)));
                    oracle.extend(batch);
                }
                // Point puts through the single-pass write descent.
                1 => {
                    for _ in 0..100 {
                        let (k, v) = (clustered_key(&mut rng, 10), rng.next_u64());
                        map.put(&k, v);
                        oracle.insert(k, v);
                    }
                }
                // Deletes, probing present and absent keys alike.
                _ => {
                    for _ in 0..80 {
                        let k = clustered_key(&mut rng, 10);
                        let expected = oracle.remove(&k).is_some();
                        assert_eq!(map.delete(&k), expected, "case {case}: delete {k:x?}");
                    }
                }
            }
            map.validate_structure()
                .unwrap_or_else(|e| panic!("case {case} phase {phase}: {e}"));
        }
        assert_eq!(map.len(), oracle.len(), "case {case}: len");

        // Point gets: every stored key plus perturbed misses.
        for (k, v) in &oracle {
            assert_eq!(map.get(k), Some(*v), "case {case}: get {k:x?}");
        }
        let mut probes: Vec<Vec<u8>> = oracle.keys().cloned().collect();
        for _ in 0..200 {
            probes.push(clustered_key(&mut rng, 12));
        }
        let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
        for (probe, got) in probes.iter().zip(map.get_many(&refs)) {
            assert_eq!(
                got,
                oracle.get(probe).copied(),
                "case {case}: get_many {probe:x?}"
            );
        }

        // Ordered iteration, both directions.
        let mut expected: Vec<(Vec<u8>, u64)> =
            oracle.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(
            map.iter().collect::<Vec<_>>(),
            expected,
            "case {case}: forward iteration"
        );
        expected.reverse();
        assert_eq!(
            map.iter().rev().collect::<Vec<_>>(),
            expected,
            "case {case}: reverse iteration"
        );

        // Seeks and predecessor queries at random split points.
        for _ in 0..50 {
            let probe = clustered_key(&mut rng, 10);
            let mut cursor = map.cursor();
            cursor.seek(&probe);
            assert_eq!(
                cursor.next(),
                oracle
                    .range(probe.clone()..)
                    .next()
                    .map(|(k, v)| (k.clone(), *v)),
                "case {case}: seek {probe:x?}"
            );
            assert_eq!(
                map.pred(&probe),
                oracle
                    .range(..probe.clone())
                    .next_back()
                    .map(|(k, v)| (k.clone(), *v)),
                "case {case}: pred {probe:x?}"
            );
        }
    }
}
