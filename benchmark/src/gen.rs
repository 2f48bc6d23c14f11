//! Seeded, input-only generation: key sets and operation streams are pure
//! functions of `--seed` and the scale.  The crates under test only ever see
//! the generated inputs.  Every stream draws from its own sub-seed, so adding
//! a draw to one stream never shifts another.

use hyperion_workloads::{
    random_integer_keys, Mt19937_64, NgramCorpus, NgramCorpusConfig, Workload, Zipf,
};

/// Zipf exponent of every skewed stream (YCSB's default).
pub const ZIPF_S: f64 = 0.99;

/// Derives the seed of stream `stream` from the run seed (splitmix64).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded Fisher-Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = Mt19937_64::new(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    order
}

// -----------------------------------------------------------------------------
// integer data
// -----------------------------------------------------------------------------

/// Random distinct `u64` keys: the first `stored` are loaded, the rest are
/// guaranteed-absent probes.  The value of key `i` is `i`.
pub struct IntData {
    pub keys: Vec<u64>,
    pub stored: usize,
    /// The generator's own allocation, kept alive on purpose: freeing ~100 MB
    /// of small chunks just before the db is built would let the db reuse
    /// pages that the RSS baseline already counted.
    held: Workload,
}

impl IntData {
    pub fn generate(seed: u64, stored: usize) -> IntData {
        let held = random_integer_keys(stored + stored / 10, sub_seed(seed, 1));
        let keys = held
            .keys
            .iter()
            .map(|k| u64::from_be_bytes(k.as_slice().try_into().expect("8-byte key")))
            .collect();
        IntData { keys, stored, held }
    }

    /// Key `i` as stored bytes (for loads, which borrow their keys).
    #[inline]
    pub fn key_ref(&self, i: u32) -> &[u8] {
        &self.held.keys[i as usize]
    }

    #[inline]
    pub fn key(&self, i: u32) -> [u8; 8] {
        self.keys[i as usize].to_be_bytes()
    }

    /// What the store must answer for key `i`.
    #[inline]
    pub fn expected(&self, i: u32) -> Option<u64> {
        ((i as usize) < self.stored).then_some(i as u64)
    }

    /// Stored keys in ascending order with their index: the scan oracle.
    pub fn sorted(&self) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = self.keys[..self.stored]
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, i as u32))
            .collect();
        v.sort_unstable();
        v
    }
}

/// Point-get stream: key indices, uniform over stored keys with a 10% share
/// of absent keys.
pub fn int_get_pool(seed: u64, data: &IntData, n: usize) -> Vec<u32> {
    let mut rng = Mt19937_64::new(sub_seed(seed, 2));
    let stored = data.stored as u64;
    let absent = (data.keys.len() - data.stored) as u64;
    (0..n)
        .map(|_| {
            if absent > 0 && rng.next_below(10) == 0 {
                (stored + rng.next_below(absent)) as u32
            } else {
                rng.next_below(stored) as u32
            }
        })
        .collect()
}

/// One range scan: 100 entries upward from `start`, or downward from just
/// below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanOp {
    pub start: u64,
    pub reverse: bool,
}

/// Entries one scan takes.
pub const SCAN_TAKE: usize = 100;

/// Scan stream: uniform start over the whole key space, 25% reverse.
pub fn scan_pool(seed: u64, n: usize) -> Vec<ScanOp> {
    let mut rng = Mt19937_64::new(sub_seed(seed, 3));
    (0..n)
        .map(|_| ScanOp {
            start: rng.next_u64(),
            reverse: rng.next_below(4) == 0,
        })
        .collect()
}

/// The write stream of one `insert_int` round over `n` keys: insert all in
/// generation order, overwrite `n/4` Zipf-chosen keys, delete `n/4` distinct
/// keys.
pub struct InsertOps {
    pub overwrites: Vec<u32>,
    pub deletes: Vec<u32>,
}

pub fn insert_ops(seed: u64, n: usize) -> InsertOps {
    let zipf = Zipf::new(n, ZIPF_S);
    let mut rng = Mt19937_64::new(sub_seed(seed, 4));
    let overwrites = (0..n / 4).map(|_| zipf.sample(&mut rng) as u32).collect();
    let mut deletes = permutation(n, sub_seed(seed, 5));
    deletes.truncate(n / 4);
    InsertOps {
        overwrites,
        deletes,
    }
}

// -----------------------------------------------------------------------------
// string data
// -----------------------------------------------------------------------------

/// Synthetic 2-gram keys.  `order` is a seeded shuffle of the corpus: its
/// first `stored` entries are loaded (in that order) and double as the Zipf
/// rank order, so hot keys are spread over the key space; the rest are
/// guaranteed-absent probes.
pub struct StrData {
    pub corpus: Workload,
    pub order: Vec<u32>,
    pub stored: usize,
}

impl StrData {
    /// `absent_div`: one absent probe key per this many stored keys.
    pub fn generate(seed: u64, stored: usize, absent_div: usize) -> StrData {
        let entries = stored + stored / absent_div;
        let corpus = NgramCorpus::generate(&NgramCorpusConfig {
            entries,
            // The issue's 50 000 words at 1M keys; never more words than a
            // twentieth of the keys, so small scales keep their prefix sharing.
            vocabulary: 50_000.min(entries / 20).max(50),
            zipf_exponent: 1.0,
            min_n: 2,
            max_n: 2,
            append_year: true,
            seed: sub_seed(seed, 6),
        })
        .workload;
        StrData {
            order: permutation(entries, sub_seed(seed, 7)),
            corpus,
            stored,
        }
    }

    /// Key at position `pos` of the shuffled order (`pos < stored`: stored
    /// key of Zipf rank `pos`; otherwise an absent key).
    #[inline]
    pub fn key(&self, pos: u32) -> &[u8] {
        &self.corpus.keys[self.order[pos as usize] as usize]
    }

    /// The value loaded for position `pos`.
    #[inline]
    pub fn value(&self, pos: u32) -> u64 {
        self.corpus.values[self.order[pos as usize] as usize]
    }

    #[inline]
    pub fn expected(&self, pos: u32) -> Option<u64> {
        ((pos as usize) < self.stored).then(|| self.value(pos))
    }

    pub fn absent(&self) -> usize {
        self.order.len() - self.stored
    }
}

/// Zipf stream of positions in `0..stored`, with one draw in `absent_one_in`
/// replaced by a uniform absent position (0 = never).
pub fn zipf_pool(
    seed: u64,
    stream: u64,
    stored: usize,
    absent: usize,
    absent_one_in: u64,
    n: usize,
) -> Vec<u32> {
    let zipf = Zipf::new(stored, ZIPF_S);
    let mut rng = Mt19937_64::new(sub_seed(seed, stream));
    (0..n)
        .map(|_| {
            if absent_one_in > 0 && absent > 0 && rng.next_below(absent_one_in) == 0 {
                (stored as u64 + rng.next_below(absent as u64)) as u32
            } else {
                zipf.sample(&mut rng) as u32
            }
        })
        .collect()
}

// -----------------------------------------------------------------------------
// mixed request streams (churn writer, served clients)
// -----------------------------------------------------------------------------

/// What one generated request does to key `pos` of its stripe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Get,
    Put,
    Insert,
    Delete,
    Scan,
}

/// One generated request: a verb and a stripe-local key position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MixOp {
    pub verb: Verb,
    pub pos: u32,
}

/// Shares of a request mix in percent; the rest are gets.
#[derive(Clone, Copy)]
pub struct Mix {
    pub put: u64,
    pub insert: u64,
    pub delete: u64,
    pub scan: u64,
}

/// `n` requests over a stripe of `keys` positions, Zipf-skewed.
pub fn mix_pool(seed: u64, stream: u64, keys: usize, mix: Mix, n: usize) -> Vec<MixOp> {
    let zipf = Zipf::new(keys, ZIPF_S);
    let mut rng = Mt19937_64::new(sub_seed(seed, stream));
    (0..n)
        .map(|_| {
            let dice = rng.next_below(100);
            let verb = if dice < mix.put {
                Verb::Put
            } else if dice < mix.put + mix.insert {
                Verb::Insert
            } else if dice < mix.put + mix.insert + mix.delete {
                Verb::Delete
            } else if dice < mix.put + mix.insert + mix.delete + mix.scan {
                Verb::Scan
            } else {
                Verb::Get
            };
            MixOp {
                verb,
                pos: zipf.sample(&mut rng) as u32,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over a stream's words.
    fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    fn mix_fingerprint(ops: &[MixOp]) -> u64 {
        fingerprint(ops.iter().map(|op| (op.verb as u64) << 32 | op.pos as u64))
    }

    /// Fingerprints of the first 10 k operations (and the key material under
    /// them) of every workload's streams at tiny scale.
    fn stream_fingerprints(seed: u64) -> Vec<u64> {
        const N: usize = 10_000;
        let ints = IntData::generate(seed, 8_000);
        let strs = StrData::generate(seed, 4_000, 20);
        let ins = insert_ops(seed, 8_000);
        let all = Mix {
            put: 5,
            insert: 5,
            delete: 5,
            scan: 5,
        };
        vec![
            // point_get_int
            fingerprint(ints.keys.iter().copied()),
            fingerprint(int_get_pool(seed, &ints, N).into_iter().map(u64::from)),
            // batch_get_str
            fingerprint(
                strs.order
                    .iter()
                    .map(|&p| fingerprint(strs.key(p).iter().map(|&b| b as u64))),
            ),
            fingerprint(
                zipf_pool(seed, 8, strs.stored, strs.absent(), 20, N)
                    .into_iter()
                    .map(u64::from),
            ),
            // range_scan_int
            fingerprint(
                scan_pool(seed, N)
                    .into_iter()
                    .map(|s| s.start ^ s.reverse as u64),
            ),
            // insert_int
            fingerprint(ins.overwrites.iter().chain(&ins.deletes).map(|&i| i as u64)),
            // churn_2t, served_pipelined, served_open
            mix_fingerprint(&mix_pool(seed, 9, 4_000, all, N)),
            mix_fingerprint(&mix_pool(seed, 10, 4_000, all, N)),
        ]
    }

    #[test]
    fn same_seed_same_streams_other_seed_other_streams() {
        let a = stream_fingerprints(1);
        assert_eq!(a, stream_fingerprints(1));
        let b = stream_fingerprints(2);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_ne!(x, y, "stream {i} ignores the seed");
        }
    }

    #[test]
    fn int_pool_has_the_absent_share_and_exact_oracle() {
        let data = IntData::generate(3, 10_000);
        assert_eq!(data.keys.len(), 11_000);
        let pool = int_get_pool(3, &data, 50_000);
        let absent = pool.iter().filter(|&&i| data.expected(i).is_none()).count();
        assert!((4_000..6_000).contains(&absent), "absent draws: {absent}");
        assert_eq!(data.expected(9_999), Some(9_999));
        assert_eq!(data.expected(10_000), None);
        let sorted = data.sorted();
        assert!(sorted.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn insert_ops_delete_distinct_keys() {
        let ops = insert_ops(5, 4_000);
        assert_eq!((ops.overwrites.len(), ops.deletes.len()), (1_000, 1_000));
        let mut d = ops.deletes.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 1_000);
    }

    #[test]
    fn str_data_splits_stored_and_absent() {
        let d = StrData::generate(1, 2_000, 20);
        assert_eq!((d.order.len(), d.stored, d.absent()), (2_100, 2_000, 100));
        assert!(d.expected(0).is_some() && d.expected(2_000).is_none());
        let pool = zipf_pool(1, 8, d.stored, d.absent(), 20, 20_000);
        assert!(pool.iter().all(|&p| (p as usize) < d.order.len()));
        let hot = pool.iter().filter(|&&p| p == 0).count();
        assert!(hot > 1_000, "rank 0 drawn {hot} times: not Zipf");
    }

    #[test]
    fn mix_pool_follows_its_shares() {
        let ops = mix_pool(
            1,
            9,
            1_000,
            Mix {
                put: 5,
                insert: 0,
                delete: 0,
                scan: 5,
            },
            40_000,
        );
        let puts = ops.iter().filter(|o| o.verb == Verb::Put).count();
        let scans = ops.iter().filter(|o| o.verb == Verb::Scan).count();
        assert!((1_600..2_400).contains(&puts) && (1_600..2_400).contains(&scans));
        assert!(ops
            .iter()
            .all(|o| o.verb != Verb::Insert && o.verb != Verb::Delete));
    }
}
