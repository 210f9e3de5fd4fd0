//! Chunk-parallel grouped aggregation with partial-result merging.
//!
//! The fused `GroupAgg` MAL node needs more than the single-aggregate
//! helper PR 3 shipped: one grouping pass must feed *several* aggregates
//! (`SELECT k, sum(v), count(*), min(v) ... GROUP BY k` is one node), and
//! `avg` must work without the caller expanding it. This module therefore
//! exposes a partial/merge API:
//!
//! * [`grouped_agg_partials`] — group one piece of the input once and
//!   compute every requested aggregate over that grouping. `avg` is
//!   expanded *internally* into sum + count partial slots (the paper's
//!   expanding replication, Fig. 3c, applied at the kernel level);
//! * [`merge_partials`] — concatenate per-piece partial keys and slots in
//!   piece order, re-group the keys, apply each slot's *compensating
//!   action* (paper §3, Fig. 3d: `count` partials merge with `sum`,
//!   `sum`/`min`/`max` re-apply themselves), then finalize `avg` slots by
//!   dividing merged sums by merged counts;
//! * [`grouped_agg_multi`] — the driver: one partial per morsel, merged
//!   via [`merge_partials`] (or by concatenation under aligned placement);
//!   at `P = 1` the one morsel is the input itself and its partial is the
//!   result;
//! * [`grouped_agg`] — the single-aggregate convenience wrapper the
//!   PR 3 callers keep using.
//!
//! Determinism: morsels are ascending input ranges and group ids are
//! assigned in first-occurrence order, so every key that first appears in
//! morsel `i` precedes every key first appearing in morsel `j > i` — the
//! re-grouped key order is exactly the sequential first-occurrence order,
//! making the merged output byte-identical to the sequential
//! group-then-aggregate at every `P` for integer values, `count`, and
//! `min`/`max` (associative merges). The one carve-out is **float
//! `sum`** (and therefore float `avg`): addition over floats is
//! non-associative, so a partial-sums merge can differ from the
//! sequential left-to-right fold by real rounding error (e.g.
//! `[1e16, 1.0, -1e16, 1.0]` sums to `1.0` sequentially but `0.0` from
//! two-morsel partials). Float-sum output is still deterministic *for a
//! given `P`* — same input, same fan-out, same bytes — just not
//! `P`-invariant.

use super::{carve, run, stats, ParConfig};
use crate::algebra::{self, concat_columns, AggKind, ArithOp, Groups};
use crate::column::Column;
use crate::error::KernelError;
use crate::hash::Placement;
use crate::{Bat, Result};

/// One aggregate request over a shared grouping: the function plus the
/// value column aligned with the keys (`None` for `count`, which needs no
/// values; ignored by `count` when supplied).
pub type AggSpec<'a> = (AggKind, Option<&'a Bat>);

/// The partial state one input piece contributes to a fused grouped
/// aggregation: the piece's distinct keys (first-occurrence order) plus
/// one partial column per internal slot. `avg` specs own *two* slots
/// (sum, count); every other spec owns one, in spec order.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAggPartial {
    /// Distinct keys of the piece, first-occurrence order.
    pub keys: Column,
    /// Per-slot partial aggregates, aligned with `keys`.
    pub slots: Vec<Column>,
}

/// The internal slot layout for a list of user-level aggregate kinds:
/// `avg` expands to a sum slot followed by a count slot, everything else
/// maps to itself.
fn slot_kinds(kinds: &[AggKind]) -> Vec<AggKind> {
    let mut out = Vec::with_capacity(kinds.len());
    for k in kinds {
        match k {
            AggKind::Avg => {
                out.push(AggKind::Sum);
                out.push(AggKind::Count);
            }
            k => out.push(*k),
        }
    }
    out
}

fn req(kind: AggKind, vals: Option<&Bat>) -> Result<&Bat> {
    vals.ok_or_else(|| {
        KernelError::Unsupported(format!("grouped {} requires a value column", kind.sql()))
    })
}

/// Group `keys` once and compute every requested aggregate over that
/// grouping — the per-piece half of the partial/merge API. Returns the
/// piece's distinct keys plus one partial column per internal slot
/// (`avg` expanded to sum + count).
pub fn grouped_agg_partials(keys: &Bat, specs: &[AggSpec]) -> Result<GroupAggPartial> {
    check_lengths(keys, specs)?;
    partial_with_groups(keys, specs).map(|(_, p)| p)
}

/// Every value column must be aligned with the keys.
fn check_lengths(keys: &Bat, specs: &[AggSpec]) -> Result<()> {
    match specs.iter().filter_map(|(_, vals)| *vals).find(|v| v.len() != keys.len()) {
        None => Ok(()),
        Some(v) => Err(KernelError::LengthMismatch {
            op: "par::grouped_agg",
            left: keys.len(),
            right: v.len(),
        }),
    }
}

/// [`grouped_agg_partials`] plus the grouping itself — the aligned merge
/// needs each piece's group extents to recover global first-occurrence
/// positions. Callers have checked the lengths.
fn partial_with_groups(keys: &Bat, specs: &[AggSpec]) -> Result<(Groups, GroupAggPartial)> {
    let groups = algebra::group(keys)?;
    let out_keys = groups.keys(keys)?;
    let mut slots = Vec::with_capacity(specs.len() + 1);
    for &(kind, vals) in specs {
        match kind {
            AggKind::Count => slots.push(algebra::count_grouped(&groups)),
            AggKind::Sum => slots.push(algebra::sum_grouped(req(kind, vals)?, &groups)?),
            AggKind::Min => slots.push(algebra::min_grouped(req(kind, vals)?, &groups)?),
            AggKind::Max => slots.push(algebra::max_grouped(req(kind, vals)?, &groups)?),
            AggKind::Avg => {
                slots.push(algebra::sum_grouped(req(kind, vals)?, &groups)?);
                slots.push(algebra::count_grouped(&groups));
            }
        }
    }
    Ok((groups, GroupAggPartial { keys: out_keys, slots }))
}

/// Merge per-piece partials: concat keys and slots in piece order,
/// re-group, apply each slot's compensating aggregate, finalize `avg`
/// slots by division. Returns the merged keys (first-occurrence order
/// across pieces) and one column per *user-level* spec in `kinds`.
pub fn merge_partials(
    kinds: &[AggKind],
    partials: &[GroupAggPartial],
) -> Result<(Column, Vec<Column>)> {
    if partials.is_empty() {
        return Err(KernelError::Unsupported("merge_partials over zero pieces".into()));
    }
    let slots = slot_kinds(kinds);
    for p in partials {
        if p.slots.len() != slots.len() {
            return Err(KernelError::Unsupported(format!(
                "partial has {} slots, layout wants {}",
                p.slots.len(),
                slots.len()
            )));
        }
    }
    let key_parts: Vec<&Column> = partials.iter().map(|p| &p.keys).collect();
    let merged_keys = Bat::transient(concat_columns(&key_parts)?);
    let regroup = algebra::group(&merged_keys)?;
    let out_keys = regroup.keys(&merged_keys)?;
    let mut merged_slots = Vec::with_capacity(slots.len());
    for (i, slot_kind) in slots.iter().enumerate() {
        let slot_parts: Vec<&Column> = partials.iter().map(|p| &p.slots[i]).collect();
        let all = Bat::transient(concat_columns(&slot_parts)?);
        let comp = slot_kind.compensation().expect("no avg slots after expansion");
        let merged = match comp {
            AggKind::Sum => algebra::sum_grouped(&all, &regroup)?,
            AggKind::Min => algebra::min_grouped(&all, &regroup)?,
            AggKind::Max => algebra::max_grouped(&all, &regroup)?,
            other => unreachable!("no grouped compensation dispatch for {other:?}"),
        };
        merged_slots.push(merged);
    }
    stats::record_merge(false);
    Ok((out_keys, finalize(kinds, merged_slots)?))
}

/// The rows one morsel aggregates, as a selection over the input.
enum Rows {
    /// A contiguous `(offset, size)` range — round-robin placement, and
    /// the whole input at `P = 1`.
    Range(usize, usize),
    /// One partition's ascending positions ([`Placement::scatter`]).
    Positions(Vec<u32>),
    /// One partition's ascending `(start, len)` runs
    /// ([`Placement::scatter_runs`]).
    Runs(Vec<(u32, u32)>),
}

impl Rows {
    fn gather(&self, col: &Column) -> Column {
        match self {
            Rows::Range(off, size) => col.slice_owned(*off, *size),
            Rows::Positions(pos) => col.gather(pos),
            Rows::Runs(runs) => col.gather_ranges(runs),
        }
    }

    /// Map positions local to the gathered rows (ascending group extents)
    /// back to input positions.
    fn to_input_positions(&self, local: &[u32]) -> Vec<u32> {
        match self {
            Rows::Range(off, _) => local.iter().map(|&e| *off as u32 + e).collect(),
            Rows::Positions(pos) => local.iter().map(|&e| pos[e as usize]).collect(),
            Rows::Runs(runs) => {
                // Prefix sums over run lengths: local offsets
                // [cum[r], cum[r] + len_r) came from input run r.
                let mut cum = Vec::with_capacity(runs.len());
                let mut acc = 0u32;
                for &(_, n) in runs {
                    cum.push(acc);
                    acc += n;
                }
                local
                    .iter()
                    .map(|&e| {
                        let r = cum.partition_point(|&c| c <= e) - 1;
                        runs[r].0 + (e - cum[r])
                    })
                    .collect()
            }
        }
    }
}

/// One morsel's partial plus the input position where each of its groups
/// first occurs. A morsel covering the whole input aggregates it in
/// place; any other gathers its rows first (the group/aggregate kernels
/// take owned BATs, so each thread materializes only its own morsel).
fn morsel_partial(
    keys: &Bat,
    specs: &[AggSpec],
    rows: &Rows,
) -> Result<(GroupAggPartial, Vec<u32>)> {
    if matches!(rows, Rows::Range(0, size) if *size == keys.len()) {
        let (groups, partial) = partial_with_groups(keys, specs)?;
        return Ok((partial, groups.extents));
    }
    let kb = Bat::transient(rows.gather(&keys.tail));
    let vbats: Vec<Option<Bat>> =
        specs.iter().map(|(_, vals)| vals.map(|v| Bat::transient(rows.gather(&v.tail)))).collect();
    let morsel_specs: Vec<AggSpec> =
        specs.iter().zip(&vbats).map(|(&(kind, _), v)| (kind, v.as_ref())).collect();
    let (groups, partial) = partial_with_groups(&kb, &morsel_specs)?;
    Ok((partial, rows.to_input_positions(&groups.extents)))
}

/// Merge partials that own disjoint key sets — the aligned placement's
/// pure concatenation: no re-group and no compensating pass. Emitting
/// groups in ascending input first-occurrence position reproduces the
/// sequential key order; the positions are distinct (each is one input
/// row), so the sort is a total order.
fn merge_disjoint(
    kinds: &[AggKind],
    partials: &[(GroupAggPartial, Vec<u32>)],
) -> Result<(Column, Vec<Column>)> {
    let mut ord: Vec<(u32, u32, u32)> = Vec::new();
    for (pi, (_, first)) in partials.iter().enumerate() {
        for (g, &fp) in first.iter().enumerate() {
            ord.push((fp, pi as u32, g as u32));
        }
    }
    ord.sort_unstable();
    let ord: Vec<(u32, u32)> = ord.into_iter().map(|(_, pi, g)| (pi, g)).collect();

    let key_cols: Vec<&Column> = partials.iter().map(|(pp, _)| &pp.keys).collect();
    let out_keys = interleave(&key_cols, &ord)?;
    let nslots = slot_kinds(kinds).len();
    let mut merged_slots = Vec::with_capacity(nslots);
    for i in 0..nslots {
        let cols: Vec<&Column> = partials.iter().map(|(pp, _)| &pp.slots[i]).collect();
        merged_slots.push(interleave(&cols, &ord)?);
    }
    stats::record_merge(true);
    Ok((out_keys, finalize(kinds, merged_slots)?))
}

/// Stitch per-partial columns into one output column following `ord`:
/// each entry names (partial index, row within that partial).
fn interleave(cols: &[&Column], ord: &[(u32, u32)]) -> Result<Column> {
    let dt = cols.first().expect("at least one partial").data_type();
    let mut out = Column::with_capacity(dt, ord.len());
    for &(pi, g) in ord {
        out.push(cols[pi as usize].get(g as usize).expect("group in range"))?;
    }
    Ok(out)
}

/// Collapse internal slots back to one column per user-level spec: `avg`
/// slots divide sum by count (promoting to float, the same `map_arith`
/// division the sequential plan executor applies), others pass through.
fn finalize(kinds: &[AggKind], slots: Vec<Column>) -> Result<Vec<Column>> {
    let mut it = slots.into_iter();
    let mut out = Vec::with_capacity(kinds.len());
    for kind in kinds {
        match kind {
            AggKind::Avg => {
                let sums = it.next().expect("avg sum slot");
                let counts = it.next().expect("avg count slot");
                let div = algebra::map_arith(
                    &Bat::transient(sums),
                    &Bat::transient(counts),
                    ArithOp::Div,
                )?;
                out.push(div.tail);
            }
            _ => out.push(it.next().expect("slot per spec")),
        }
    }
    Ok(out)
}

/// Fused grouped aggregation over `keys`: every aggregate in `specs` is
/// evaluated over one shared grouping pass; returns `(group_keys,
/// aggregates)` in first-occurrence key order with one output column per
/// spec. Each morsel computes a partial; one morsel (`P = 1`, or fewer
/// rows than `P`) is the whole input on the caller's thread and its
/// partial is finalized directly — the sequential group-then-aggregate
/// chain. Round-robin placement carves contiguous morsels and re-groups
/// at the merge (float sums reassociate, see the module docs). Aligned
/// placement scatters rows by the canonical [`Placement`] key-hash, so
/// every occurrence of a key lands in one partition in input order and
/// the merge is a concatenation: byte-identical to sequential at every
/// `P`, float sums included. When the caller also vouched for the input's
/// scatter order ([`ParConfig::input_is_aligned`]) the same hash pass
/// runs (the claim is never trusted) but yields run-compressed ranges
/// ([`Placement::scatter_runs`]) gathered by bulk copies; both scatters
/// visit identical rows per partition in identical order, and mismarked
/// input merely degrades to per-row runs.
pub fn grouped_agg_multi(
    keys: &Bat,
    specs: &[AggSpec],
    cfg: &ParConfig,
) -> Result<(Column, Vec<Column>)> {
    let parallel = carve(keys.len(), cfg.partitions()).len() > 1;
    stats::record_grouped_agg(parallel);
    // Call-granularity morsel timing: one clock pair per kernel call (not
    // per row, not per morsel), so the telemetry overhead stays in the
    // noise; `timer()` is `None` under the DATACELL_TELEMETRY kill switch.
    let start = datacell_telemetry::timer();
    let out = grouped_agg_morsels(keys, specs, cfg, parallel);
    stats::record_grouped_agg_time(parallel, start);
    out
}

fn grouped_agg_morsels(
    keys: &Bat,
    specs: &[AggSpec],
    cfg: &ParConfig,
    parallel: bool,
) -> Result<(Column, Vec<Column>)> {
    // Up front, so a mismatch surfaces before any morsel gathers.
    check_lengths(keys, specs)?;
    let kinds: Vec<AggKind> = specs.iter().map(|&(k, _)| k).collect();
    let aligned = parallel && cfg.is_aligned();
    let partial = |rows: Rows| morsel_partial(keys, specs, &rows);
    let mut partials = if !aligned {
        run(carve(keys.len(), cfg.partitions()).map(|(off, size)| Rows::Range(off, size)), partial)
    } else if cfg.input_is_aligned() {
        stats::record_scatter_elided();
        let runs = Placement::new(cfg.partitions()).scatter_runs(&keys.tail.as_slice());
        run(runs.into_iter().map(Rows::Runs), partial)
    } else {
        let parts = Placement::new(cfg.partitions()).scatter(&keys.tail.as_slice());
        run(parts.into_iter().map(Rows::Positions), partial)
    }?;
    if aligned {
        return merge_disjoint(&kinds, &partials);
    }
    if partials.len() == 1 {
        let (partial, _) = partials.pop().expect("one morsel");
        return Ok((partial.keys, finalize(&kinds, partial.slots)?));
    }
    let partials: Vec<GroupAggPartial> = partials.into_iter().map(|(partial, _)| partial).collect();
    merge_partials(&kinds, &partials)
}

/// Single-aggregate grouped aggregation — the PR 3 entry point, now a
/// thin wrapper over [`grouped_agg_multi`]. `avg` is supported: it is
/// expanded to sum/count partials internally and divided at the merge.
pub fn grouped_agg(
    keys: &Bat,
    vals: Option<&Bat>,
    kind: AggKind,
    cfg: &ParConfig,
) -> Result<(Column, Column)> {
    let (out_keys, mut cols) = grouped_agg_multi(keys, &[(kind, vals)], cfg)?;
    Ok((out_keys, cols.pop().expect("one aggregate in, one column out")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_vals(n: usize) -> (Bat, Bat) {
        let keys = Bat::new(30, Column::Int((0..n as i64).map(|i| (i * 7) % 5).collect()));
        let vals = Bat::new(30, Column::Int((0..n as i64).map(|i| i * 3 + 1).collect()));
        (keys, vals)
    }

    /// The sequential reference: one grouping pass, finalize in place.
    fn seq(keys: &Bat, vals: Option<&Bat>, kind: AggKind) -> (Column, Column) {
        let partial = grouped_agg_partials(keys, &[(kind, vals)]).unwrap();
        let mut cols = finalize(&[kind], partial.slots).unwrap();
        (partial.keys, cols.pop().unwrap())
    }

    #[test]
    fn matches_sequential_for_every_kind_and_p() {
        let (keys, vals) = keys_vals(97);
        for kind in [AggKind::Sum, AggKind::Count, AggKind::Min, AggKind::Max] {
            let vals_arg = (kind != AggKind::Count).then_some(&vals);
            let expect = seq(&keys, vals_arg, kind);
            for p in [1, 2, 3, 8] {
                let par = grouped_agg(&keys, vals_arg, kind, &ParConfig::new(p)).unwrap();
                assert_eq!(par, expect, "kind={kind:?} P={p}");
            }
        }
    }

    #[test]
    fn avg_expands_to_sum_count_and_matches_sequential() {
        // The satellite fix: avg partials are (sum, count) pairs merged by
        // (sum of sums) / (sum of counts) — par ≡ sequential at every P,
        // exactly (integer sums and counts divide identically).
        let (keys, vals) = keys_vals(97);
        let expect = seq(&keys, Some(&vals), AggKind::Avg);
        assert!(matches!(expect.1, Column::Float(_)), "avg promotes to float");
        for p in [1, 2, 8] {
            let par = grouped_agg(&keys, Some(&vals), AggKind::Avg, &ParConfig::new(p)).unwrap();
            assert_eq!(par, expect, "P={p}");
        }
    }

    #[test]
    fn multi_agg_shares_one_grouping_pass() {
        // sum, count(*), min, avg over the same keys in one call: each
        // output column equals its single-aggregate run, keys once.
        let (keys, vals) = keys_vals(64);
        let specs: Vec<AggSpec> = vec![
            (AggKind::Sum, Some(&vals)),
            (AggKind::Count, None),
            (AggKind::Min, Some(&vals)),
            (AggKind::Avg, Some(&vals)),
        ];
        for p in [1, 2, 8] {
            let cfg = ParConfig::new(p);
            let (k, cols) = grouped_agg_multi(&keys, &specs, &cfg).unwrap();
            assert_eq!(cols.len(), 4);
            for (i, &(kind, vals)) in specs.iter().enumerate() {
                let (sk, sc) = grouped_agg(&keys, vals, kind, &cfg).unwrap();
                assert_eq!(k, sk, "keys P={p}");
                assert_eq!(cols[i], sc, "slot {i} kind={kind:?} P={p}");
            }
        }
    }

    #[test]
    fn float_values_and_string_keys() {
        let keys = Bat::transient(Column::Str((0..60).map(|i| format!("g{}", i % 4)).collect()));
        let vals = Bat::transient(Column::Float((0..60).map(|i| i as f64 / 2.0).collect()));
        let expect = seq(&keys, Some(&vals), AggKind::Sum);
        let par = grouped_agg(&keys, Some(&vals), AggKind::Sum, &ParConfig::new(4)).unwrap();
        assert_eq!(par, expect);
    }

    #[test]
    fn float_sum_is_deterministic_per_p_despite_reassociation() {
        // The documented carve-out: catastrophic cancellation makes the
        // two-morsel partial merge differ from the sequential fold, but
        // repeating the same (input, P) pair reproduces the same bytes.
        let keys = Bat::transient(Column::Int(vec![0, 0, 0, 0]));
        let vals = Bat::transient(Column::Float(vec![1e16, 1.0, -1e16, 1.0]));
        let expect = seq(&keys, Some(&vals), AggKind::Sum);
        assert_eq!(expect.1, Column::Float(vec![1.0]));
        let cfg = ParConfig::new(2);
        let par = grouped_agg(&keys, Some(&vals), AggKind::Sum, &cfg).unwrap();
        assert_eq!(par.1, Column::Float(vec![0.0])); // (1e16 + 1.0) lost the 1.0
        assert_eq!(grouped_agg(&keys, Some(&vals), AggKind::Sum, &cfg).unwrap(), par);
    }

    #[test]
    fn value_column_required_for_sum_and_avg() {
        let (keys, _) = keys_vals(16);
        for kind in [AggKind::Sum, AggKind::Min, AggKind::Max, AggKind::Avg] {
            let err = grouped_agg(&keys, None, kind, &ParConfig::new(2));
            assert!(matches!(err, Err(KernelError::Unsupported(_))), "kind={kind:?}");
        }
    }

    #[test]
    fn length_mismatch_rejected_at_every_p() {
        let keys = Bat::transient(Column::Int(vec![1, 2, 3]));
        let vals = Bat::transient(Column::Int(vec![1]));
        for p in [1, 2] {
            assert!(grouped_agg(&keys, Some(&vals), AggKind::Sum, &ParConfig::new(p)).is_err());
        }
    }

    #[test]
    fn empty_input_yields_empty_groups() {
        let keys = Bat::empty(crate::DataType::Int);
        let (k, a) = grouped_agg(&keys, None, AggKind::Count, &ParConfig::new(4)).unwrap();
        assert!(k.is_empty() && a.is_empty());
        let vals = Bat::empty(crate::DataType::Int);
        let (k, cols) =
            grouped_agg_multi(&keys, &[(AggKind::Avg, Some(&vals))], &ParConfig::new(4)).unwrap();
        assert!(k.is_empty() && cols[0].is_empty());
    }

    #[test]
    fn merge_partials_rejects_bad_shapes() {
        assert!(merge_partials(&[AggKind::Sum], &[]).is_err());
        let bad = GroupAggPartial { keys: Column::Int(vec![1]), slots: vec![] };
        assert!(merge_partials(&[AggKind::Sum], &[bad]).is_err());
    }

    fn aligned(p: usize) -> ParConfig {
        ParConfig::new(p).with_placement(super::super::PlacementMode::Aligned)
    }

    #[test]
    fn aligned_matches_sequential_for_every_kind_and_p() {
        let (keys, vals) = keys_vals(97);
        for kind in [AggKind::Sum, AggKind::Count, AggKind::Min, AggKind::Max, AggKind::Avg] {
            let vals_arg = (kind != AggKind::Count).then_some(&vals);
            let expect = seq(&keys, vals_arg, kind);
            for p in [1, 2, 3, 8] {
                let par = grouped_agg(&keys, vals_arg, kind, &aligned(p)).unwrap();
                assert_eq!(par, expect, "kind={kind:?} P={p}");
            }
        }
    }

    #[test]
    fn aligned_string_keys_match_sequential() {
        let keys = Bat::transient(Column::Str((0..60).map(|i| format!("g{}", i % 7)).collect()));
        let vals = Bat::transient(Column::Float((0..60).map(|i| i as f64 / 2.0).collect()));
        for kind in [AggKind::Sum, AggKind::Avg] {
            let expect = seq(&keys, Some(&vals), kind);
            for p in [2, 4, 8] {
                assert_eq!(grouped_agg(&keys, Some(&vals), kind, &aligned(p)).unwrap(), expect);
            }
        }
    }

    #[test]
    fn aligned_float_sum_is_byte_identical_to_sequential() {
        // The round-robin carve-out does not apply: all occurrences of a
        // key fold in input order inside one partition, so even the
        // catastrophic-cancellation input reproduces the sequential fold.
        let keys = Bat::transient(Column::Int(vec![0, 7, 0, 7, 0, 7, 0, 7]));
        let vals = Bat::transient(Column::Float(vec![1e16, 5.0, 1.0, 5.0, -1e16, 5.0, 1.0, 5.0]));
        let expect = seq(&keys, Some(&vals), AggKind::Sum);
        for p in [2, 4, 8] {
            assert_eq!(grouped_agg(&keys, Some(&vals), AggKind::Sum, &aligned(p)).unwrap(), expect);
        }
    }

    #[test]
    fn elision_matches_sequential_even_on_mismarked_input() {
        // keys_vals is NOT scatter-ordered, so marking it aligned-input
        // exercises the degraded (per-row-runs) elision path: the hash
        // pass is the correctness check and the answer must not move.
        let (keys, vals) = keys_vals(97);
        let e0 = stats::scatter_elided();
        for kind in [AggKind::Sum, AggKind::Avg, AggKind::Count] {
            let vals_arg = (kind != AggKind::Count).then_some(&vals);
            let expect = seq(&keys, vals_arg, kind);
            for p in [2, 4, 8] {
                let cfg = aligned(p).with_aligned_input(true);
                assert_eq!(grouped_agg(&keys, vals_arg, kind, &cfg).unwrap(), expect, "P={p}");
            }
        }
        assert!(stats::scatter_elided() >= e0 + 9, "every elided call must be counted");
    }

    #[test]
    fn elision_on_genuinely_aligned_input_matches_roundrobin_and_sequential() {
        // Lay rows out partition-by-partition (what keyed ingest produces
        // when shards == partitions): the elision fast path sees one run
        // per partition and must still agree with every other mode.
        let pl = Placement::new(4);
        let mut by_part: Vec<Vec<(i64, i64)>> = vec![Vec::new(); 4];
        for i in 0..80i64 {
            let k = i % 9;
            by_part[pl.of_key(k)].push((k, i));
        }
        let rows: Vec<(i64, i64)> = by_part.concat();
        let keys = Bat::transient(Column::Int(rows.iter().map(|&(k, _)| k).collect()));
        let vals = Bat::transient(Column::Float(rows.iter().map(|&(_, v)| v as f64).collect()));
        let expect = seq(&keys, Some(&vals), AggKind::Sum);
        let elided = aligned(4).with_aligned_input(true);
        assert_eq!(grouped_agg(&keys, Some(&vals), AggKind::Sum, &elided).unwrap(), expect);
        assert_eq!(grouped_agg(&keys, Some(&vals), AggKind::Sum, &aligned(4)).unwrap(), expect);
        let rr = grouped_agg(&keys, Some(&vals), AggKind::Sum, &ParConfig::new(4)).unwrap();
        assert_eq!(rr.0, expect.0, "round-robin agrees on keys");
    }

    #[test]
    fn aligned_merge_takes_the_concat_fast_path() {
        let (keys, vals) = keys_vals(97);
        let (c0, r0) = (stats::merge_concat_fast_path(), stats::merge_regroup_fallback());
        grouped_agg(&keys, Some(&vals), AggKind::Sum, &aligned(4)).unwrap();
        assert!(stats::merge_concat_fast_path() > c0, "aligned merge must concat");
        grouped_agg(&keys, Some(&vals), AggKind::Sum, &ParConfig::new(4)).unwrap();
        assert!(stats::merge_regroup_fallback() > r0, "round-robin merge must re-group");
    }

    #[test]
    fn stats_counters_observe_fanout() {
        let (keys, vals) = keys_vals(64);
        let (c0, p0) = (stats::grouped_agg_calls(), stats::grouped_agg_par_calls());
        grouped_agg(&keys, Some(&vals), AggKind::Sum, &ParConfig::new(1)).unwrap();
        assert!(stats::grouped_agg_calls() > c0);
        grouped_agg(&keys, Some(&vals), AggKind::Sum, &ParConfig::new(4)).unwrap();
        assert!(stats::grouped_agg_par_calls() > p0);
    }
}
