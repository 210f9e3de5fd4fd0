//! Fast hashing for kernel hash tables.
//!
//! The kernel's hash joins and group-bys are the hot loops of every query.
//! `std`'s default SipHash is DoS-resistant but ~4× slower than needed for
//! trusted in-process keys; column stores (MonetDB included) use simple
//! multiplicative bucket hashing. This module provides a Fibonacci-style
//! multiply-xor hasher (the `fxhash` construction) and table aliases used
//! throughout the kernel.

use crate::column::ColumnSlice;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// Multiply-xor hasher: `state = (state ^ word) * K` per 8-byte word, with
/// `K` the 64-bit golden-ratio constant. Not DoS-resistant — kernel hash
/// tables are built over in-process data only.
#[derive(Default, Clone, Copy)]
pub struct FastHasher {
    state: u64,
}

pub(crate) const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Word-at-a-time over the input; tail bytes are zero-padded.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.write_word(w);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            self.write_word(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.write_word(v);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_word(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_word(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_word(v as u64);
    }
}

impl FastHasher {
    #[inline]
    fn write_word(&mut self, w: u64) {
        self.state = (self.state ^ w).wrapping_mul(K).rotate_left(20);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with the fast hasher — the kernel's table type.
pub type FastMap<K, V> = HashMap<K, V, FastBuild>;

/// A `FastMap` with reserved capacity.
pub fn fast_map_with_capacity<Key, V>(cap: usize) -> FastMap<Key, V>
where
    Key: std::hash::Hash + Eq,
{
    FastMap::with_capacity_and_hasher(cap, FastBuild::default())
}

/// The canonical key-hash → partition map.
///
/// One definition of "which partition owns this key" shared by every
/// layer that splits data by key: basket staging-shard choice, radix-join
/// partitioning, and aligned grouped-aggregation morsels. Because they
/// all agree, data keyed at ingest lands pre-partitioned for the kernel
/// operators — per-partition partials own disjoint key sets and merges
/// degenerate to concatenation.
///
/// The map takes the *upper* 32 bits of the [`FastHasher`] value modulo
/// the partition count, so it stays uncorrelated with the low bits hash
/// tables use for bucket indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    parts: usize,
}

impl Placement {
    /// A placement over `parts` partitions (clamped to at least 1).
    pub fn new(parts: usize) -> Placement {
        Placement { parts: parts.max(1) }
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Partition owning a precomputed [`FastHasher`] hash.
    #[inline]
    pub fn of_hash(&self, h: u64) -> usize {
        ((h >> 32) as usize) % self.parts
    }

    /// Partition owning `key`. String keys must be hashed as `&str` so
    /// `String` and `&str` forms of the same key agree (both delegate to
    /// `str::hash`); float keys must be hashed by bit pattern
    /// (`f64::to_bits`), matching the group-by's key identity.
    #[inline]
    pub fn of_key<K: std::hash::Hash>(&self, key: K) -> usize {
        self.of_hash(FastBuild::default().hash_one(key))
    }

    /// Scatter a column of keys: position lists per partition, each
    /// ascending, covering every input position exactly once. This is the
    /// one typed hash loop behind keyed basket staging and aligned kernel
    /// partitioning.
    pub fn scatter(&self, keys: &ColumnSlice<'_>) -> Vec<Vec<u32>> {
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); self.parts];
        if self.parts == 1 {
            parts[0] = (0..keys.len() as u32).collect();
            return parts;
        }
        match keys {
            ColumnSlice::Int(v) => {
                for (i, &k) in v.iter().enumerate() {
                    parts[self.of_key(k)].push(i as u32);
                }
            }
            ColumnSlice::Oid(v) => {
                for (i, &k) in v.iter().enumerate() {
                    parts[self.of_key(k)].push(i as u32);
                }
            }
            ColumnSlice::Bool(v) => {
                for (i, &k) in v.iter().enumerate() {
                    parts[self.of_key(k)].push(i as u32);
                }
            }
            ColumnSlice::Str(v) => {
                for (i, k) in v.iter().enumerate() {
                    parts[self.of_key(k.as_str())].push(i as u32);
                }
            }
            ColumnSlice::Float(v) => {
                for (i, &k) in v.iter().enumerate() {
                    parts[self.of_key(k.to_bits())].push(i as u32);
                }
            }
        }
        parts
    }

    /// Run-length-compressed scatter: per partition, maximal runs of
    /// consecutive positions `(start, len)` instead of one entry per row.
    ///
    /// Same single hash pass and same partition-of-each-position answer as
    /// [`Placement::scatter`] (the hash *is* the correctness check — the
    /// caller's alignment claim is never trusted), but on input that keyed
    /// ingest already scatter-ordered, each partition collapses to a
    /// handful of runs and downstream copies become bulk
    /// `extend_from_slice`s ([`crate::Column::gather_ranges`]) rather than
    /// per-element gathers. Unclustered input degrades gracefully to
    /// per-row runs — slower, never wrong.
    pub fn scatter_runs(&self, keys: &ColumnSlice<'_>) -> Vec<Vec<(u32, u32)>> {
        let mut parts: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.parts];
        let len = keys.len() as u32;
        if self.parts == 1 {
            if len > 0 {
                parts[0].push((0, len));
            }
            return parts;
        }
        let push =
            |parts: &mut Vec<Vec<(u32, u32)>>, part: usize, i: u32| match parts[part].last_mut() {
                Some((start, n)) if *start + *n == i => *n += 1,
                _ => parts[part].push((i, 1)),
            };
        match keys {
            ColumnSlice::Int(v) => {
                for (i, &k) in v.iter().enumerate() {
                    push(&mut parts, self.of_key(k), i as u32);
                }
            }
            ColumnSlice::Oid(v) => {
                for (i, &k) in v.iter().enumerate() {
                    push(&mut parts, self.of_key(k), i as u32);
                }
            }
            ColumnSlice::Bool(v) => {
                for (i, &k) in v.iter().enumerate() {
                    push(&mut parts, self.of_key(k), i as u32);
                }
            }
            ColumnSlice::Str(v) => {
                for (i, k) in v.iter().enumerate() {
                    push(&mut parts, self.of_key(k.as_str()), i as u32);
                }
            }
            ColumnSlice::Float(v) => {
                for (i, &k) in v.iter().enumerate() {
                    push(&mut parts, self.of_key(k.to_bits()), i as u32);
                }
            }
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FastBuild::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_distinct() {
        assert_eq!(hash_of(42i64), hash_of(42i64));
        assert_ne!(hash_of(42i64), hash_of(43i64));
        assert_ne!(hash_of("a"), hash_of("b"));
        assert_eq!(hash_of("hello"), hash_of("hello"));
    }

    #[test]
    fn low_bit_diffusion() {
        // Sequential keys must not collide in the low bits the table uses.
        let mut low: std::collections::HashSet<u64> = Default::default();
        for k in 0i64..1000 {
            low.insert(hash_of(k) & 0xFFFF);
        }
        assert!(low.len() > 900, "poor diffusion: {} distinct low words", low.len());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<i64, i64> = fast_map_with_capacity(16);
        for k in 0..100 {
            m.insert(k, k * 2);
        }
        for k in 0..100 {
            assert_eq!(m.get(&k), Some(&(k * 2)));
        }
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn string_keys() {
        let mut m: FastMap<String, usize> = FastMap::default();
        m.insert("x1".into(), 1);
        m.insert("x2".into(), 2);
        assert_eq!(m["x1"], 1);
        assert_eq!(m["x2"], 2);
    }

    #[test]
    fn placement_is_the_upper_half_of_the_fast_hash() {
        // The one formula every layer must agree on: upper 32 bits of the
        // fast hash, modulo the partition count.
        for p in [1usize, 2, 4, 8] {
            let pl = Placement::new(p);
            for k in [0i64, 1, -1, 42, 1 << 40] {
                assert_eq!(pl.of_key(k), ((hash_of(k) >> 32) as usize) % p);
            }
            assert_eq!(pl.of_key("basket"), ((hash_of("basket") >> 32) as usize) % p);
        }
        assert_eq!(Placement::new(0).parts(), 1, "clamps to one partition");
    }

    #[test]
    fn placement_pins_the_key_to_partition_mapping() {
        // Literal pins: if these move, ingest-time shard choice and
        // kernel-partition choice silently diverge across versions.
        let p4 = Placement::new(4);
        let ints: Vec<usize> = (0i64..8).map(|k| p4.of_key(k)).collect();
        assert_eq!(ints, PINNED_INT_P4);
        let strs: Vec<usize> =
            ["a", "b", "c", "stream", "basket"].iter().map(|s| p4.of_key(*s)).collect();
        assert_eq!(strs, PINNED_STR_P4);
    }

    /// `Placement::new(4).of_key(k)` for `k in 0i64..8`.
    const PINNED_INT_P4: [usize; 8] = [0, 3, 3, 3, 3, 2, 2, 2];
    /// `Placement::new(4).of_key(s)` for `["a", "b", "c", "stream", "basket"]`.
    const PINNED_STR_P4: [usize; 5] = [0, 3, 1, 2, 3];

    #[test]
    fn placement_string_and_str_forms_agree() {
        let pl = Placement::new(8);
        for s in ["", "a", "stream-key", "x1"] {
            assert_eq!(pl.of_key(s), pl.of_key(String::from(s).as_str()));
        }
    }

    #[test]
    fn scatter_partitions_every_position_once_in_order() {
        use crate::column::Column;
        let cols = [
            Column::Int((0..100).map(|i| i * 7 - 50).collect()),
            Column::Str((0..100).map(|i| format!("k{}", i % 13)).collect()),
            Column::Float((0..100).map(|i| i as f64 / 3.0).collect()),
            Column::Oid((0..100).collect()),
            Column::Bool((0..100).map(|i| i % 2 == 0).collect()),
        ];
        for col in &cols {
            for p in [1usize, 3, 8] {
                let parts = Placement::new(p).scatter(&col.as_slice());
                assert_eq!(parts.len(), p);
                let mut seen: Vec<u32> = Vec::new();
                for part in &parts {
                    assert!(part.windows(2).all(|w| w[0] < w[1]), "positions ascend");
                    seen.extend_from_slice(part);
                }
                seen.sort_unstable();
                assert_eq!(seen, (0..100u32).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn scatter_runs_agree_with_scatter_everywhere() {
        use crate::column::Column;
        let cols = [
            // Unclustered keys (worst case: mostly length-1 runs).
            Column::Int((0..60).map(|i| i % 7).collect()),
            // Scatter-ordered input: positions grouped by partition, the
            // case ingest alignment produces — runs collapse.
            {
                let pl = Placement::new(4);
                let mut by_part: Vec<Vec<i64>> = vec![Vec::new(); 4];
                for k in 0..60i64 {
                    by_part[pl.of_key(k)].push(k);
                }
                Column::Int(by_part.concat())
            },
            Column::Str((0..60).map(|i| format!("k{}", i % 9)).collect()),
            Column::Float((0..60).map(|i| f64::from(i) * 0.25).collect()),
        ];
        for col in &cols {
            for p in [1usize, 4, 8] {
                let pl = Placement::new(p);
                let runs = pl.scatter_runs(&col.as_slice());
                let expanded: Vec<Vec<u32>> = runs
                    .iter()
                    .map(|rs| rs.iter().flat_map(|&(s, n)| s..s + n).collect())
                    .collect();
                assert_eq!(expanded, pl.scatter(&col.as_slice()), "p={p}");
                // Runs must be maximal: no two adjacent runs touch.
                for rs in &runs {
                    assert!(rs.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0), "non-maximal run");
                }
            }
        }
    }

    #[test]
    fn scatter_runs_collapse_on_aligned_input() {
        // Input laid out partition-by-partition must produce exactly one
        // run per non-empty partition.
        let pl = Placement::new(4);
        let mut by_part: Vec<Vec<i64>> = vec![Vec::new(); 4];
        for k in 0..40i64 {
            by_part[pl.of_key(k)].push(k);
        }
        let col = crate::column::Column::Int(by_part.concat());
        let runs = pl.scatter_runs(&col.as_slice());
        for (part, rs) in runs.iter().enumerate() {
            assert!(rs.len() <= 1, "partition {part} fragmented: {rs:?}");
        }
        assert!(pl.scatter_runs(&crate::column::Column::Int(vec![]).as_slice())[0].is_empty());
    }

    #[test]
    fn scatter_routes_equal_keys_to_one_partition() {
        let col = crate::column::Column::Int(vec![5, 9, 5, 9, 5]);
        let parts = Placement::new(8).scatter(&col.as_slice());
        let home5 = Placement::new(8).of_key(5i64);
        let home9 = Placement::new(8).of_key(9i64);
        assert_eq!(parts[home5], if home5 == home9 { vec![0, 1, 2, 3, 4] } else { vec![0, 2, 4] });
        if home5 != home9 {
            assert_eq!(parts[home9], vec![1, 3]);
        }
    }
}
