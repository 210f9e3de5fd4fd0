//! Hash equi-join over BATs: one sliding hash table, used two ways.
//!
//! A join produces the matching head-oid pairs `(l_oid, r_oid)` as two
//! aligned candidate BATs, the MonetDB `join` result shape: callers then
//! `fetch` whatever attributes they need through either side. Float keys
//! are rejected (bit-exact float equality joins are almost always a
//! modelling error, and MonetDB hashes exact types too).
//!
//! **Layout.** [`JoinIndex`] is MonetDB's `BAThash` made slidable: a
//! power-of-two bucket array of entry links, plus one entry *ring* of
//! `(key tag, run, position)` with the chain links `next` in an array of
//! their own beside it (a walk chases `next` and only glances at the
//! entry) — 16 bytes a ring slot and two 4-byte buckets per slot, so 24
//! bytes per retained row when the retained rows fill the ring (its
//! capacity is their count rounded up to a power of two, and only ever
//! grows). Entries are numbered in insertion order; entry `seq` lives in
//! ring slot `seq mod capacity` and a link is `seq + 1` (0 = none). Keys
//! are not stored: the tag is the top 32 bits of a multiplicative hash,
//! its own top bits pick the bucket, and a tag-equal candidate is
//! confirmed against the key BAT of its run, which the caller lends at
//! probe time — so `Int`/`Oid`/`Bool`/`Str` share one probe loop and no
//! key is copied.
//!
//! **Runs and lazy expiry.** [`JoinIndex::push`] appends one *run* — the
//! join-key BAT of one basic window, of any length, empty included.
//! [`JoinIndex::expire`] drops the oldest run in O(1) by advancing the
//! *horizon* (the oldest live entry number) and deletes nothing: chains
//! are newest-first, so a walk stops at the first link at or below the
//! horizon, and expired ring slots are simply overwritten by later
//! entries.
//!
//! **Order contract.** Pairs come out by probe position, and newest build
//! entry first within one probe tuple's matches. Which side probes is the
//! caller's choice, not a size heuristic: the incremental factory's strip
//! probes each new basic window against the other stream's index
//! ([`JoinIndex::probe`], matching positions grouped by live run, as
//! [`RunHits`]), and the one-shot
//! [`hashjoin`] is "push the smaller input as the only run, probe with the
//! larger".

use crate::column::Column;
use crate::error::KernelError;
use crate::hash::{FastBuild, K};
use crate::par::stats;
use crate::{Bat, Oid, Result};
use std::collections::VecDeque;
use std::hash::BuildHasher;

/// Hash join `l.tail == r.tail`; returns aligned `(left_oids, right_oids)`.
///
/// The smaller input is used as the build side. Output pairs are ordered by
/// the probe side's position (and newest build tuple first within one probe
/// match), which is deterministic for a given pair of inputs.
pub fn hashjoin(l: &Bat, r: &Bat) -> Result<(Bat, Bat)> {
    hashjoin_with(l, r, |build, probe| join_build_probe(build, probe, None))
}

/// The frame around every one-shot hash join: check the key types, hand
/// `join` the smaller input as the build side and the larger as the probe
/// side, and turn its `(build_oids, probe_oids)` back into `(left, right)`
/// BATs.
pub(crate) fn hashjoin_with(
    l: &Bat,
    r: &Bat,
    join: impl FnOnce(&Bat, &Bat) -> Result<(Vec<Oid>, Vec<Oid>)>,
) -> Result<(Bat, Bat)> {
    if l.data_type() != r.data_type() {
        return Err(KernelError::TypeMismatch {
            op: "hashjoin",
            expected: l.data_type(),
            found: r.data_type(),
        });
    }
    let (lo, ro) = if l.len() <= r.len() {
        join(l, r)?
    } else {
        let (ro, lo) = join(r, l)?;
        (lo, ro)
    };
    Ok((oid_bat(lo), oid_bat(ro)))
}

/// Index `build` as one run, probe it with `probe`; returns
/// `(build_oids, probe_oids)`. `parts` restricts the join to one
/// partition's `(build positions, probe positions)`, each ascending;
/// `None` joins the whole inputs.
pub(crate) fn join_build_probe(
    build: &Bat,
    probe: &Bat,
    parts: Option<(&[u32], &[u32])>,
) -> Result<(Vec<Oid>, Vec<Oid>)> {
    let (build_rows, probe_rows) =
        parts.map_or((build.len(), probe.len()), |(b, p)| (b.len(), p.len()));
    let mut index = JoinIndex::with_capacity(build_rows);
    // An equi-join over mostly-unique keys emits about one pair per probe
    // row; starting there skips the doubling cascade of growing from zero.
    let (mut bo, mut po) = (Vec::with_capacity(probe_rows), Vec::with_capacity(probe_rows));
    let (bh, ph) = (build.hseq, probe.hseq);
    let mut emit = |_run: usize, i: u32, j: u32| {
        bo.push(bh + u64::from(i));
        po.push(ph + u64::from(j));
    };
    match parts {
        None => {
            index.insert(build, 0..row_count(build.len())?)?;
            index.walk(&[build], probe, 0..row_count(probe.len())?, &mut emit)?;
        }
        Some((build_pos, probe_pos)) => {
            index.insert(build, build_pos.iter().copied())?;
            index.walk(&[build], probe, probe_pos.iter().copied(), &mut emit)?;
        }
    }
    Ok((bo, po))
}

fn oid_bat(oids: Vec<Oid>) -> Bat {
    Bat::transient(Column::Oid(oids))
}

/// Positions and entry numbers are 32-bit; a longer input is refused.
fn row_count(len: usize) -> Result<u32> {
    u32::try_from(len)
        .ok()
        .filter(|&n| n < NO_ROOM)
        .ok_or_else(|| KernelError::Unsupported(format!("hash join over {len} rows")))
}

fn float_keys() -> KernelError {
    KernelError::Unsupported("hashjoin on float keys".into())
}

/// A key the index can hash. The tag is the *top* half of the Fibonacci
/// product: the multiply pushes entropy upwards, so small integers differ
/// in their top bits and barely in their low ones.
trait JoinKey: PartialEq {
    fn tag(&self) -> u32;
}

fn top_bits(word: u64) -> u32 {
    (word.wrapping_mul(K) >> 32) as u32
}

impl JoinKey for i64 {
    fn tag(&self) -> u32 {
        top_bits(*self as u64)
    }
}

impl JoinKey for Oid {
    fn tag(&self) -> u32 {
        top_bits(*self)
    }
}

impl JoinKey for bool {
    fn tag(&self) -> u32 {
        top_bits(u64::from(*self))
    }
}

impl JoinKey for String {
    fn tag(&self) -> u32 {
        top_bits(FastBuild::default().hash_one(self.as_str()))
    }
}

/// One indexed row: row `pos` of run number `run`.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tag: u32,
    run: u32,
    pos: u32,
}

/// Entry and run numbers stay below this; [`JoinIndex::insert`] renumbers
/// the live entries from zero before either would reach it.
const NO_ROOM: u32 = u32::MAX;

/// A hash index over the join keys of a sliding sequence of runs (see the
/// module docs for the layout and the expiry rule).
#[derive(Debug, Clone, Default)]
pub struct JoinIndex {
    /// Link to the newest entry of each bucket; `2 × entries.len()` long.
    buckets: Vec<u32>,
    /// The entry ring, a power of two long (or empty before the first row).
    entries: Vec<Entry>,
    /// Per ring slot, the link to the previous (older) entry of its bucket.
    next: Vec<u32>,
    /// `tag >> shift` is a tag's bucket.
    shift: u32,
    /// Row counts of the live runs, oldest first.
    runs: VecDeque<u32>,
    /// Number of the oldest live run.
    first_run: u32,
    /// Number of the oldest live entry; links at or below it are dead.
    horizon: u32,
    /// Number the next entry gets.
    head: u32,
}

/// What one [`JoinIndex::probe`] matched, grouped by run: for run `r`, the
/// positions of its matching rows and, aligned with them, the positions of
/// the probe rows they match.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunHits {
    /// One past the last hit of each run, oldest run first.
    ends: Vec<usize>,
    build: Vec<u32>,
    probe: Vec<u32>,
}

impl RunHits {
    /// Runs the probe covered.
    pub fn runs(&self) -> usize {
        self.ends.len()
    }

    /// Pairs over all runs.
    pub fn len(&self) -> usize {
        self.build.len()
    }

    /// Whether nothing matched.
    pub fn is_empty(&self) -> bool {
        self.build.is_empty()
    }

    /// Run `r`'s `(run positions, probe positions)`, aligned.
    pub fn run(&self, r: usize) -> (&[u32], &[u32]) {
        let span = r.checked_sub(1).map_or(0, |p| self.ends[p])..self.ends[r];
        (&self.build[span.clone()], &self.probe[span])
    }
}

impl JoinIndex {
    /// An empty index with room for `rows` retained rows: pushing never
    /// reallocates while the live rows stay within that.
    pub fn with_capacity(rows: usize) -> JoinIndex {
        let mut index = JoinIndex::default();
        if rows > 0 {
            index.rebuild(rows.next_power_of_two());
        }
        index
    }

    /// Live rows.
    pub fn rows(&self) -> usize {
        (self.head - self.horizon) as usize
    }

    /// Append the rows of `keys` as the newest run.
    pub fn push(&mut self, keys: &Bat) -> Result<()> {
        self.insert(keys, 0..row_count(keys.len())?)
    }

    /// Drop the oldest run. Nothing is unlinked: its entries fall below
    /// the horizon, where no walk goes.
    pub fn expire(&mut self) {
        if let Some(rows) = self.runs.pop_front() {
            self.horizon += rows;
            self.first_run += 1;
        }
    }

    /// Join `probe` against every live run: the matching positions grouped
    /// by run, oldest run first, each run's pairs in the module's order
    /// contract. `runs` lends the key BAT of every live run, oldest first,
    /// exactly as they were pushed.
    pub fn probe(&self, runs: &[&Bat], probe: &Bat) -> Result<RunHits> {
        let start = datacell_telemetry::timer();
        let lens = runs.iter().map(|r| r.len());
        if runs.len() != self.runs.len() || !lens.eq(self.runs.iter().map(|&n| n as usize)) {
            return Err(KernelError::LengthMismatch {
                op: "join index probe",
                left: runs.len(),
                right: self.runs.len(),
            });
        }
        // Count, then scatter each hit to its run's place in two flat lists.
        let mut hits: Vec<(u32, u32, u32)> = Vec::with_capacity(probe.len());
        let mut ends = vec![0usize; runs.len()];
        self.walk(runs, probe, 0..row_count(probe.len())?, |run, i, j| {
            hits.push((run as u32, i, j));
            ends[run] += 1;
        })?;
        let (mut next, mut total) = (Vec::with_capacity(runs.len()), 0);
        for end in &mut ends {
            next.push(total);
            total += *end;
            *end = total;
        }
        let (mut build, mut probed) = (vec![0u32; total], vec![0u32; total]);
        for &(run, i, j) in &hits {
            let at = &mut next[run as usize];
            (build[*at], probed[*at]) = (i, j);
            *at += 1;
        }
        stats::record_join(probe.len(), hits.len(), start);
        Ok(RunHits { ends, build, probe: probed })
    }

    /// Index the rows of `keys` at `positions` as the newest run.
    fn insert(&mut self, keys: &Bat, positions: impl ExactSizeIterator<Item = u32>) -> Result<()> {
        let rows = row_count(positions.len())?;
        let live = row_count(self.rows() + rows as usize)? as usize;
        let numbers_left = (NO_ROOM - self.head).min(NO_ROOM - self.first_run) as usize;
        if live > self.entries.len() || numbers_left <= rows as usize + self.runs.len() {
            self.rebuild(live.next_power_of_two().max(self.entries.len()));
        }
        let run = self.first_run + self.runs.len() as u32;
        match &keys.tail {
            Column::Int(k) => self.insert_keys(k, positions, run),
            Column::Oid(k) => self.insert_keys(k, positions, run),
            Column::Bool(k) => self.insert_keys(k, positions, run),
            Column::Str(k) => self.insert_keys(k, positions, run),
            Column::Float(_) => return Err(float_keys()),
        }
        self.runs.push_back(rows);
        Ok(())
    }

    fn insert_keys<T: JoinKey>(
        &mut self,
        keys: &[T],
        positions: impl Iterator<Item = u32>,
        run: u32,
    ) {
        for pos in positions {
            self.link(Entry { tag: keys[pos as usize].tag(), run, pos });
        }
    }

    /// Give `entry` the next number and put it at the head of its bucket's
    /// chain.
    fn link(&mut self, entry: Entry) {
        let bucket = self.bucket(entry.tag);
        let slot = self.head as usize & (self.entries.len() - 1);
        self.entries[slot] = entry;
        self.next[slot] = self.buckets[bucket];
        self.head += 1;
        self.buckets[bucket] = self.head;
    }

    /// The one bucket-index function: the top bits of the tag.
    fn bucket(&self, tag: u32) -> usize {
        (tag >> self.shift) as usize
    }

    /// Move the live entries, oldest first, into a ring of `capacity`
    /// slots, renumbering entries and runs from zero.
    fn rebuild(&mut self, capacity: usize) {
        let old = std::mem::replace(&mut self.entries, vec![Entry::default(); capacity]);
        self.next = vec![0; capacity];
        self.buckets = vec![0; 2 * capacity];
        self.shift = 32 - self.buckets.len().trailing_zeros();
        let live = self.horizon..self.head;
        (self.horizon, self.head) = (0, 0);
        for seq in live {
            let entry = old[seq as usize & (old.len() - 1)];
            self.link(Entry { run: entry.run - self.first_run, ..entry });
        }
        self.first_run = 0;
    }

    /// The one probe loop: for every `probe` row at `positions`, walk its
    /// bucket's chain down to the horizon and `emit(run, build position,
    /// probe position)` for every entry whose key equals the probe key.
    /// `run` counts from the oldest live run, whose key BAT is `runs[0]`.
    fn walk(
        &self,
        runs: &[&Bat],
        probe: &Bat,
        positions: impl Iterator<Item = u32>,
        emit: impl FnMut(usize, u32, u32),
    ) -> Result<()> {
        // A run of another type than the probe's is a `TypeMismatch` here.
        fn typed<'a, T>(
            runs: &[&'a Bat],
            slice: impl Fn(&'a Column) -> Result<&'a [T]>,
        ) -> Result<Vec<&'a [T]>> {
            runs.iter().map(|run| slice(&run.tail)).collect()
        }
        match &probe.tail {
            Column::Int(p) => self.walk_keys(&typed(runs, Column::as_int)?, p, positions, emit),
            Column::Oid(p) => self.walk_keys(&typed(runs, Column::as_oid)?, p, positions, emit),
            Column::Bool(p) => self.walk_keys(&typed(runs, Column::as_bool)?, p, positions, emit),
            Column::Str(p) => self.walk_keys(&typed(runs, Column::as_str)?, p, positions, emit),
            Column::Float(_) => return Err(float_keys()),
        }
        Ok(())
    }

    fn walk_keys<T: JoinKey>(
        &self,
        runs: &[&[T]],
        probe: &[T],
        positions: impl Iterator<Item = u32>,
        mut emit: impl FnMut(usize, u32, u32),
    ) {
        if self.rows() == 0 {
            return;
        }
        let mask = self.entries.len() - 1;
        for j in positions {
            let key = &probe[j as usize];
            let tag = key.tag();
            let mut link = self.buckets[self.bucket(tag)];
            while link > self.horizon {
                let slot = (link - 1) as usize & mask;
                let entry = self.entries[slot];
                let run = (entry.run - self.first_run) as usize;
                if entry.tag == tag && runs[run][entry.pos as usize] == *key {
                    emit(run, entry.pos, j);
                }
                link = self.next[slot];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_int_keys() {
        let l = Bat::new(0, Column::Int(vec![1, 2, 3]));
        let r = Bat::new(10, Column::Int(vec![2, 3, 4, 3]));
        let (lo, ro) = hashjoin(&l, &r).unwrap();
        let pairs: Vec<(u64, u64)> = lo
            .tail
            .as_oid()
            .unwrap()
            .iter()
            .zip(ro.tail.as_oid().unwrap())
            .map(|(&a, &b)| (a, b))
            .collect();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![(1, 10), (2, 11), (2, 13)]);
    }

    #[test]
    fn join_alignment_invariant() {
        let l = Bat::new(0, Column::Int(vec![7, 7]));
        let r = Bat::new(100, Column::Int(vec![7]));
        let (lo, ro) = hashjoin(&l, &r).unwrap();
        assert_eq!(lo.len(), ro.len());
        assert_eq!(lo.len(), 2);
        // Every output pair must actually match.
        for (&a, &b) in lo.tail.as_oid().unwrap().iter().zip(ro.tail.as_oid().unwrap()) {
            assert_eq!(l.value_at((a - l.hseq) as usize), r.value_at((b - r.hseq) as usize));
        }
    }

    #[test]
    fn join_empty_side() {
        let l = Bat::new(0, Column::Int(vec![]));
        let r = Bat::new(0, Column::Int(vec![1, 2]));
        let (lo, ro) = hashjoin(&l, &r).unwrap();
        assert!(lo.is_empty() && ro.is_empty());
    }

    #[test]
    fn join_no_matches() {
        let l = Bat::new(0, Column::Int(vec![1]));
        let r = Bat::new(0, Column::Int(vec![2]));
        let (lo, _) = hashjoin(&l, &r).unwrap();
        assert!(lo.is_empty());
    }

    #[test]
    fn join_str_keys() {
        let l = Bat::new(0, Column::Str(vec!["a".into(), "b".into()]));
        let r = Bat::new(5, Column::Str(vec!["b".into(), "c".into()]));
        let (lo, ro) = hashjoin(&l, &r).unwrap();
        assert_eq!(lo.tail, Column::Oid(vec![1]));
        assert_eq!(ro.tail, Column::Oid(vec![5]));
    }

    #[test]
    fn join_type_mismatch() {
        let l = Bat::new(0, Column::Int(vec![1]));
        let r = Bat::new(0, Column::Str(vec!["1".into()]));
        assert!(hashjoin(&l, &r).is_err());
    }

    #[test]
    fn join_float_keys_rejected() {
        let l = Bat::new(0, Column::Float(vec![1.0]));
        let r = Bat::new(0, Column::Float(vec![1.0]));
        assert!(matches!(hashjoin(&l, &r), Err(KernelError::Unsupported(_))));
    }

    #[test]
    fn join_larger_left_swaps_internally_but_output_is_left_right() {
        let l = Bat::new(0, Column::Int(vec![1, 2, 3, 4, 5]));
        let r = Bat::new(50, Column::Int(vec![3]));
        let (lo, ro) = hashjoin(&l, &r).unwrap();
        assert_eq!(lo.tail, Column::Oid(vec![2]));
        assert_eq!(ro.tail, Column::Oid(vec![50]));
    }

    #[test]
    fn join_cross_product_on_duplicates() {
        let l = Bat::new(0, Column::Int(vec![9, 9]));
        let r = Bat::new(0, Column::Int(vec![9, 9, 9]));
        let (lo, _) = hashjoin(&l, &r).unwrap();
        assert_eq!(lo.len(), 6);
    }

    /// The probe's pairs per run, as `(run oid, probe oid)`.
    fn probe_pairs(index: &JoinIndex, runs: &[&Bat], probe: &Bat) -> Vec<Vec<(u64, u64)>> {
        let hits = index.probe(runs, probe).unwrap();
        assert_eq!(hits.runs(), runs.len());
        let oids =
            |run: &Bat, (i, j): (&u32, &u32)| (run.oid_at(*i as usize), probe.oid_at(*j as usize));
        let pairs = |(r, run): (usize, &&Bat)| {
            let (build, probed) = hits.run(r);
            build.iter().zip(probed).map(|p| oids(run, p)).collect()
        };
        runs.iter().enumerate().map(pairs).collect()
    }

    #[test]
    fn index_slides_runs_in_and_out() {
        let a = Bat::new(10, Column::Int(vec![1, 2, 1]));
        let b = Bat::new(0, Column::Int(vec![]));
        let c = Bat::new(20, Column::Int(vec![2, 1]));
        let probe = Bat::new(100, Column::Int(vec![1, 3, 2]));
        let mut index = JoinIndex::default();
        for run in [&a, &b, &c] {
            index.push(run).unwrap();
        }
        assert_eq!(index.rows(), 5);
        // Per run, by probe position, newest run row first.
        assert_eq!(
            probe_pairs(&index, &[&a, &b, &c], &probe),
            vec![vec![(12, 100), (10, 100), (11, 102)], vec![], vec![(21, 100), (20, 102)]]
        );
        index.expire();
        assert_eq!(index.rows(), 2);
        assert_eq!(
            probe_pairs(&index, &[&b, &c], &probe),
            vec![vec![], vec![(21, 100), (20, 102)]]
        );
        index.expire();
        index.expire();
        index.expire(); // nothing left to drop
        assert_eq!(index.rows(), 0);
        assert_eq!(index.probe(&[], &probe).unwrap(), RunHits::default());
    }

    #[test]
    fn index_probe_checks_the_lent_runs_and_the_key_type() {
        let a = Bat::new(0, Column::Int(vec![1, 2]));
        let mut index = JoinIndex::default();
        index.push(&a).unwrap();
        let probe = Bat::new(0, Column::Int(vec![1]));
        let short = Bat::new(0, Column::Int(vec![1]));
        assert!(matches!(index.probe(&[], &probe), Err(KernelError::LengthMismatch { .. })));
        assert!(matches!(index.probe(&[&short], &probe), Err(KernelError::LengthMismatch { .. })));
        let strs = Bat::new(0, Column::Str(vec!["1".into()]));
        assert!(matches!(index.probe(&[&a], &strs), Err(KernelError::TypeMismatch { .. })));
        let floats = Bat::new(0, Column::Float(vec![1.0]));
        assert!(matches!(index.push(&floats), Err(KernelError::Unsupported(_))));
        assert_eq!(index.rows(), 2, "a refused push leaves the index as it was");
    }

    #[test]
    fn index_renumbers_before_entry_or_run_numbers_run_out() {
        // Start a hair below the 32-bit ceiling on both counters: the
        // pushes below must renumber the live entries, not wrap.
        let start = NO_ROOM - 25;
        let mut index = JoinIndex {
            horizon: start,
            head: start,
            first_run: NO_ROOM - 3,
            ..JoinIndex::default()
        };
        let runs: Vec<Bat> = (0..6u64)
            .map(|r| Bat::new(r * 100, Column::Int((0..10).map(|i| i % 4).collect())))
            .collect();
        let probe = Bat::new(0, Column::Int(vec![3, 0]));
        let mut live: Vec<&Bat> = Vec::new();
        for run in &runs {
            index.push(run).unwrap();
            live.push(run);
            if live.len() > 2 {
                index.expire();
                live.remove(0);
            }
            let mut fresh = JoinIndex::default();
            for run in &live {
                fresh.push(run).unwrap();
            }
            assert_eq!(probe_pairs(&index, &live, &probe), probe_pairs(&fresh, &live, &probe));
        }
        assert!(index.head < start && index.first_run < 6, "counters were renumbered");
    }
}
