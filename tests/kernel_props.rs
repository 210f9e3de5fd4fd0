//! Property tests on the column-store kernel: every bulk operator agrees
//! with a naive row-at-a-time reference implementation, and algebraic
//! identities the incremental rewriter relies on actually hold — plus the
//! basket layer's shared-handle law: any append schedule through a
//! `ShardedBasket` drains to the same stream sequential appends to a
//! plain `Basket` produce.

use datacell::basket::{Basket, ShardedBasket};
use datacell::kernel::algebra::{self, AggKind, Predicate};
use datacell::kernel::par::{self, ParConfig, PlacementMode};
use datacell::kernel::{Bat, Column, DataType, Value};
use proptest::prelude::*;

fn int_bat(vals: &[i64], hseq: u64) -> Bat {
    Bat::new(hseq, Column::Int(vals.to_vec()))
}

/// Sorted (left, right) oid pairs of a join result — the pair *set*.
fn pair_set(lo: &Bat, ro: &Bat) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = lo
        .tail
        .as_oid()
        .unwrap()
        .iter()
        .zip(ro.tail.as_oid().unwrap())
        .map(|(&a, &b)| (a, b))
        .collect();
    v.sort_unstable();
    v
}

fn plan_window_int(keys: &[i64], vals: &[i64]) -> datacell::basket::BasicWindow {
    datacell::basket::BasicWindow::new(
        0,
        vec![Column::Int(keys.to_vec()), Column::Int(vals.to_vec())],
        vec![0; keys.len()],
        vec!["k".into(), "v".into()],
    )
}

/// Execute a multi-aggregate `GroupAgg` plan at partition fan-out `p` and
/// compare it with the reference implementation: the direct chain of
/// sequential kernel calls (`algebra::group`, `Groups::keys`, `*_grouped`,
/// avg as sum / count) over the same window. Rows must match exactly.
fn group_agg_vs_kernel_chain(
    w: &datacell::basket::BasicWindow,
    p: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    use datacell::plan::exec::{execute, WindowCtx};
    use datacell::plan::mal::{MalBuilder, MalOp};
    use datacell::plan::ResultSet;
    let mut b = MalBuilder::new();
    let k = b.emit(MalOp::BindStream { stream: "s".into(), attr: "k".into() });
    let v = b.emit(MalOp::BindStream { stream: "s".into(), attr: "v".into() });
    let (gk, ads) = b.emit_group_agg(
        k,
        vec![
            (AggKind::Sum, Some(v)),
            (AggKind::Count, None),
            (AggKind::Max, Some(v)),
            (AggKind::Avg, Some(v)),
        ],
    );
    let names: Vec<String> = ["k", "sum", "n", "max", "avg"].map(String::from).to_vec();
    let plan = b.finish(names.clone(), std::iter::once(gk).chain(ads).collect());

    let (kb, vb) = (w.bat_by_name("k").unwrap(), w.bat_by_name("v").unwrap());
    let g = algebra::group(&kb).unwrap();
    let sums = algebra::sum_grouped(&vb, &g).unwrap();
    let counts = algebra::count_grouped(&g);
    let avgs = algebra::map_arith(
        &Bat::transient(sums.clone()),
        &Bat::transient(counts.clone()),
        algebra::ArithOp::Div,
    )
    .unwrap()
    .tail;
    let maxes = algebra::max_grouped(&vb, &g).unwrap();
    let reference =
        ResultSet::new(names, vec![g.keys(&kb).unwrap(), sums, counts, maxes, avgs]).unwrap();

    let ctx = WindowCtx::new().with_stream("s", w).with_partitions(p);
    let got = execute(&plan, &ctx).unwrap();
    prop_assert_eq!(got.rows(), reference.rows(), "P={}", p);
    Ok(())
}

/// Grouped sum/count/avg over `kb`/`vb` under both placement modes at
/// P ∈ {1, 2, 8} must equal the sequential group-then-aggregate chain
/// *exactly* — values, key order, column layout. Aligned placement
/// scatters rows by the canonical key-hash (merge-free concat); round
/// robin chunks and re-groups; neither may be observable in the result.
fn placement_tri_equivalence(
    kb: &Bat,
    vb: &Bat,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let g = algebra::group(kb).unwrap();
    let seq_keys = g.keys(kb).unwrap();
    let seq_sums = algebra::sum_grouped(vb, &g).unwrap();
    let seq_counts = algebra::count_grouped(&g);
    let seq_avgs = algebra::map_arith(
        &Bat::transient(seq_sums.clone()),
        &Bat::transient(seq_counts.clone()),
        algebra::ArithOp::Div,
    )
    .unwrap()
    .tail;
    let specs: Vec<par::AggSpec> =
        vec![(AggKind::Sum, Some(vb)), (AggKind::Count, None), (AggKind::Avg, Some(vb))];
    for p in [1usize, 2, 8] {
        for mode in [PlacementMode::RoundRobin, PlacementMode::Aligned] {
            let cfg = ParConfig::new(p).with_placement(mode);
            let (pk, cols) = par::grouped_agg_multi(kb, &specs, &cfg).unwrap();
            prop_assert_eq!(&pk, &seq_keys, "keys P={} {:?}", p, mode);
            prop_assert_eq!(&cols[0], &seq_sums, "sums P={} {:?}", p, mode);
            prop_assert_eq!(&cols[1], &seq_counts, "counts P={} {:?}", p, mode);
            prop_assert_eq!(&cols[2], &seq_avgs, "avgs P={} {:?}", p, mode);
        }
    }
    Ok(())
}

/// Nested-loop reference join over generic keys.
fn nested_loop<T: PartialEq>(l: &[T], r: &[T], l_hseq: u64, r_hseq: u64) -> Vec<(u64, u64)> {
    let mut expect = Vec::new();
    for (i, x) in l.iter().enumerate() {
        for (j, y) in r.iter().enumerate() {
            if x == y {
                expect.push((l_hseq + i as u64, r_hseq + j as u64));
            }
        }
    }
    expect.sort_unstable();
    expect
}

/// What the per-bw segments of a plan with every mergeable frontier kind
/// would cache for one part (a basic window, a chunk, a cumulative) over
/// `rows` of `(key, value)`: `X_0` rows, `X_1..=X_4` sum/min/max/count
/// partial scalars, `X_5` distinct rows, `X_6`/`X_7` sorted rows asc/desc,
/// `X_8..=X_12` a cluster of keys + sum/min/max/count partials.
fn frontier_part(rows: &[(i64, i64)]) -> Vec<datacell::plan::MalValue> {
    use datacell::plan::{exec::scalar_agg, MalValue};
    let keys = int_bat(&rows.iter().map(|r| r.0).collect::<Vec<_>>(), 0);
    let vals = int_bat(&rows.iter().map(|r| r.1).collect::<Vec<_>>(), 0);
    let seq = ParConfig::sequential();
    let g = algebra::group(&keys).unwrap();
    let col = |c: Column| MalValue::Bat(Bat::transient(c));
    let mut part = vec![MalValue::Bat(vals.clone())];
    for kind in [AggKind::Sum, AggKind::Min, AggKind::Max, AggKind::Count] {
        part.push(scalar_agg(kind, &vals).unwrap());
    }
    part.push(MalValue::Bat(algebra::distinct(&keys).unwrap()));
    part.push(MalValue::Bat(par::sort(&vals, false, &seq).unwrap()));
    part.push(MalValue::Bat(par::sort(&vals, true, &seq).unwrap()));
    part.push(col(g.keys(&keys).unwrap()));
    part.push(col(algebra::sum_grouped(&vals, &g).unwrap()));
    part.push(col(algebra::min_grouped(&vals, &g).unwrap()));
    part.push(col(algebra::max_grouped(&vals, &g).unwrap()));
    part.push(col(algebra::count_grouped(&g)));
    part
}

/// The frontier-only incremental plan whose parts [`frontier_part`] builds.
fn frontier_plan() -> datacell::core::IncrementalPlan {
    use datacell::core::{Cluster, IncrementalPlan, Stage, VarKind};
    let aggs = [AggKind::Sum, AggKind::Min, AggKind::Max, AggKind::Count];
    let mut kinds = vec![VarKind::Rows];
    kinds.extend(aggs.map(VarKind::PartialScalar));
    kinds.extend([
        VarKind::DistinctRows,
        VarKind::SortedRows { desc: false },
        VarKind::SortedRows { desc: true },
        VarKind::GroupKeysPartial,
    ]);
    kinds.extend(aggs.map(VarKind::GroupedPartial));
    let nvars = kinds.len();
    IncrementalPlan {
        mal: datacell::plan::MalPlan {
            instrs: vec![],
            result_names: vec![],
            result_vars: vec![],
            nvars,
            streams: vec!["s".into()],
        },
        stages: vec![Stage::PerBw(0); nvars],
        kinds,
        static_instrs: vec![],
        perbw_instrs: vec![vec![]],
        matrix_instrs: vec![],
        merge_instrs: vec![],
        frontier: (0..nvars).collect(),
        ring_only: vec![],
        clusters: vec![Cluster {
            keys_var: 8,
            agg_vars: aggs.iter().enumerate().map(|(j, &k)| (9 + j, k)).collect(),
        }],
        matrix_pair: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn select_agrees_with_naive(vals in prop::collection::vec(-100i64..100, 0..200), thr in -100i64..100, hseq in 0u64..1000) {
        let b = int_bat(&vals, hseq);
        let cands = algebra::select(&b, &Predicate::gt(thr)).unwrap();
        let expect: Vec<u64> = vals
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > thr)
            .map(|(i, _)| hseq + i as u64)
            .collect();
        prop_assert_eq!(cands.tail.as_oid().unwrap(), &expect[..]);
    }

    #[test]
    fn select_then_fetch_roundtrips(vals in prop::collection::vec(-50i64..50, 1..100), thr in -50i64..50) {
        // fetch(select(x, p), x) == filter(x, p): the select/fetch pair is
        // exactly row-level filtering.
        let b = int_bat(&vals, 7);
        let cands = algebra::select(&b, &Predicate::gt(thr)).unwrap();
        let fetched = algebra::fetch(&cands, &b).unwrap();
        let expect: Vec<i64> = vals.iter().copied().filter(|&v| v > thr).collect();
        prop_assert_eq!(fetched.tail.as_int().unwrap(), &expect[..]);
    }

    #[test]
    fn split_concat_identity(vals in prop::collection::vec(-50i64..50, 1..120), parts in 1usize..8) {
        // concat(split(x)) == x — the foundation of basic-window splitting.
        let b = int_bat(&vals, 0);
        let n = vals.len();
        let chunk = n.div_ceil(parts);
        let mut pieces = Vec::new();
        let mut off = 0;
        while off < n {
            let len = chunk.min(n - off);
            pieces.push(Bat::new(off as u64, b.tail.slice_owned(off, len)));
            off += len;
        }
        let refs: Vec<&Bat> = pieces.iter().collect();
        let merged = algebra::concat(&refs).unwrap();
        prop_assert_eq!(merged.tail.as_int().unwrap(), &vals[..]);
    }

    #[test]
    fn partial_aggregation_compensates(vals in prop::collection::vec(-100i64..100, 1..200), cut in 0usize..200) {
        // sum(x) == sum(sum(x[..k]), sum(x[k..])) and likewise min/max —
        // the scalar compensation rule.
        let cut = cut.min(vals.len());
        let (a, b) = vals.split_at(cut);
        let whole = int_bat(&vals, 0);
        let pa = int_bat(a, 0);
        let pb = int_bat(b, 0);

        let total = algebra::sum(&whole).unwrap();
        let (sa, sb) = (algebra::sum(&pa).unwrap(), algebra::sum(&pb).unwrap());
        let merged = match (sa, sb) {
            (Value::Int(x), Value::Int(y)) => Value::Int(x + y),
            _ => unreachable!(),
        };
        prop_assert_eq!(total, merged);

        let mins: Vec<Value> = [algebra::min(&pa).unwrap(), algebra::min(&pb).unwrap()]
            .into_iter()
            .flatten()
            .collect();
        let merged_min = mins.iter().cloned().min_by(datacell::prelude::Value::total_cmp);
        prop_assert_eq!(algebra::min(&whole).unwrap(), merged_min);
    }

    #[test]
    fn group_partition_law(keys in prop::collection::vec(0i64..6, 1..120), split in 1usize..119) {
        // Grouped sums computed per part and re-merged equal whole-input
        // grouped sums — Fig 3d's compensation, at kernel level.
        let vals: Vec<i64> = keys.iter().map(|k| k * 3 + 1).collect();
        let split = split.min(keys.len());

        // Whole.
        let kb = int_bat(&keys, 0);
        let vb = int_bat(&vals, 0);
        let g = algebra::group(&kb).unwrap();
        let whole_keys = g.keys(&kb).unwrap();
        let whole_sums = algebra::sum_grouped(&vb, &g).unwrap();
        let mut expect: std::collections::BTreeMap<i64, i64> = Default::default();
        for (i, k) in whole_keys.iter_values().enumerate() {
            if let (Value::Int(k), Some(Value::Int(s))) = (k, whole_sums.get(i)) {
                expect.insert(k, s);
            }
        }

        // Parts, merged via re-group.
        let mut part_keys = Column::Int(vec![]);
        let mut part_sums = Column::Int(vec![]);
        for (ks, vs) in [(&keys[..split], &vals[..split]), (&keys[split..], &vals[split..])] {
            if ks.is_empty() { continue; }
            let kb = int_bat(ks, 0);
            let vb = int_bat(vs, 0);
            let g = algebra::group(&kb).unwrap();
            part_keys.append(&g.keys(&kb).unwrap()).unwrap();
            part_sums.append(&algebra::sum_grouped(&vb, &g).unwrap()).unwrap();
        }
        let g2 = algebra::group(&Bat::transient(part_keys.clone())).unwrap();
        let merged_keys = g2.keys(&Bat::transient(part_keys)).unwrap();
        let merged_sums = algebra::sum_grouped(&Bat::transient(part_sums), &g2).unwrap();
        let mut got: std::collections::BTreeMap<i64, i64> = Default::default();
        for (i, k) in merged_keys.iter_values().enumerate() {
            if let (Value::Int(k), Some(Value::Int(s))) = (k, merged_sums.get(i)) {
                got.insert(k, s);
            }
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn join_agrees_with_nested_loops(
        l in prop::collection::vec(0i64..8, 0..50),
        r in prop::collection::vec(0i64..8, 0..50),
    ) {
        let lb = int_bat(&l, 0);
        let rb = int_bat(&r, 100);
        let (lo, ro) = algebra::hashjoin(&lb, &rb).unwrap();
        let mut got: Vec<(u64, u64)> = lo
            .tail
            .as_oid()
            .unwrap()
            .iter()
            .zip(ro.tail.as_oid().unwrap())
            .map(|(&a, &b)| (a, b))
            .collect();
        got.sort_unstable();
        let mut expect = Vec::new();
        for (i, &x) in l.iter().enumerate() {
            for (j, &y) in r.iter().enumerate() {
                if x == y {
                    expect.push((i as u64, 100 + j as u64));
                }
            }
        }
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn join_block_decomposition(
        l in prop::collection::vec(0i64..5, 2..40),
        r in prop::collection::vec(0i64..5, 2..40),
    ) {
        // |join(L, R)| == Σ |join(Li, Rj)| over any block partitioning —
        // the n×n matrix replication invariant of Fig 3e.
        let lb = int_bat(&l, 0);
        let rb = int_bat(&r, 0);
        let (lo, _) = algebra::hashjoin(&lb, &rb).unwrap();
        let whole = lo.len();

        let lmid = l.len() / 2;
        let rmid = r.len() / 2;
        let mut pieces = 0;
        for (ls, lh) in [(&l[..lmid], 0u64), (&l[lmid..], lmid as u64)] {
            for (rs, rh) in [(&r[..rmid], 0u64), (&r[rmid..], rmid as u64)] {
                let (o, _) = algebra::hashjoin(&int_bat(ls, lh), &int_bat(rs, rh)).unwrap();
                pieces += o.len();
            }
        }
        prop_assert_eq!(whole, pieces);
    }

    #[test]
    fn distinct_of_concat_of_distincts(
        a in prop::collection::vec(0i64..10, 0..60),
        b in prop::collection::vec(0i64..10, 0..60),
    ) {
        // distinct(concat(distinct(a), distinct(b))) == distinct(concat(a, b))
        // as sets — the distinct compensation rule.
        let whole = {
            let mut c = a.clone();
            c.extend_from_slice(&b);
            let d = algebra::distinct(&int_bat(&c, 0)).unwrap();
            let mut v = d.tail.as_int().unwrap().to_vec();
            v.sort_unstable();
            v
        };
        let parts = {
            let da = algebra::distinct(&int_bat(&a, 0)).unwrap();
            let db = algebra::distinct(&int_bat(&b, 0)).unwrap();
            let cc = algebra::concat(&[&da, &db]).unwrap();
            let d = algebra::distinct(&cc).unwrap();
            let mut v = d.tail.as_int().unwrap().to_vec();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(whole, parts);
    }

    #[test]
    fn sort_is_sorted_and_permutation(vals in prop::collection::vec(-100i64..100, 0..100)) {
        let b = int_bat(&vals, 0);
        let s = algebra::sort(&b).unwrap();
        let out = s.tail.as_int().unwrap();
        prop_assert!(out.windows(2).all(|w| w[0] <= w[1]));
        let mut a = vals.clone();
        let mut bb = out.to_vec();
        a.sort_unstable();
        bb.sort_unstable();
        prop_assert_eq!(a, bb);
    }

    #[test]
    fn join_nested_loop_reference_int(
        l in prop::collection::vec(0i64..8, 0..60),
        r in prop::collection::vec(0i64..8, 0..45),
        l_hseq in 0u64..100,
        r_hseq in 100u64..200,
    ) {
        // Duplicate-heavy keys (domain 8), mismatched sizes, empty sides:
        // the sequential join and every partitioned fan-out must produce
        // exactly the nested-loop pair set.
        let lb = Bat::new(l_hseq, Column::Int(l.clone()));
        let rb = Bat::new(r_hseq, Column::Int(r.clone()));
        let expect = nested_loop(&l, &r, l_hseq, r_hseq);
        let (slo, sro) = algebra::hashjoin(&lb, &rb).unwrap();
        prop_assert_eq!(pair_set(&slo, &sro), expect.clone());
        // The sequential pair *order*, from the nested loops too (the
        // join core is shared with `par`, so it is no reference for
        // itself): probe positions ascending over the larger side, and
        // within one probe tuple the newest build tuple first.
        let build_is_left = l.len() <= r.len();
        let (build, probe) = if build_is_left { (&l, &r) } else { (&r, &l) };
        let mut ordered = Vec::new();
        for (j, y) in probe.iter().enumerate() {
            for (i, x) in build.iter().enumerate().rev() {
                if x == y {
                    let (li, ri) = if build_is_left { (i, j) } else { (j, i) };
                    ordered.push((l_hseq + li as u64, r_hseq + ri as u64));
                }
            }
        }
        let in_order = |lo: &Bat, ro: &Bat| -> Vec<(u64, u64)> {
            let (lo, ro) = (lo.tail.as_oid().unwrap(), ro.tail.as_oid().unwrap());
            lo.iter().copied().zip(ro.iter().copied()).collect()
        };
        prop_assert_eq!(in_order(&slo, &sro), ordered.clone());
        for p in [1usize, 2, 8] {
            let (plo, pro) = par::hashjoin(&lb, &rb, &ParConfig::new(p)).unwrap();
            prop_assert_eq!(pair_set(&plo, &pro), expect.clone(), "P={}", p);
            if p == 1 {
                // P=1 is one partition, the whole inputs: byte-identical
                // to sequential, pair order included.
                prop_assert_eq!(in_order(&plo, &pro), ordered.clone());
            }
        }
    }

    #[test]
    fn join_nested_loop_reference_str(
        l in prop::collection::vec(0u8..4, 0..40),
        r in prop::collection::vec(0u8..4, 0..30),
    ) {
        // String keys from a tiny alphabet: many duplicates and collisions.
        let key = |c: u8| ["a", "b", "aa", "ab"][c as usize].to_string();
        let l: Vec<String> = l.into_iter().map(key).collect();
        let r: Vec<String> = r.into_iter().map(key).collect();
        let lb = Bat::new(7, Column::Str(l.clone()));
        let rb = Bat::new(500, Column::Str(r.clone()));
        let expect = nested_loop(&l, &r, 7, 500);
        let (slo, sro) = algebra::hashjoin(&lb, &rb).unwrap();
        prop_assert_eq!(pair_set(&slo, &sro), expect.clone());
        for p in [2usize, 8] {
            let (plo, pro) = par::hashjoin(&lb, &rb, &ParConfig::new(p)).unwrap();
            prop_assert_eq!(pair_set(&plo, &pro), expect.clone(), "P={}", p);
        }
    }

    #[test]
    fn par_select_byte_identical(
        vals in prop::collection::vec(-100i64..100, 0..200),
        thr in -100i64..100,
        hseq in 0u64..1000,
    ) {
        // Morsels are ascending ranges, so chunk-parallel select must be
        // byte-identical to the sequential candidate list at every P.
        let b = int_bat(&vals, hseq);
        let seq = algebra::select(&b, &Predicate::gt(thr)).unwrap();
        for p in [1usize, 2, 8] {
            let par = par::select(&b, &Predicate::gt(thr), &ParConfig::new(p)).unwrap();
            prop_assert_eq!(&par, &seq, "P={}", p);
        }
    }

    #[test]
    fn par_grouped_agg_byte_identical(
        keys in prop::collection::vec(0i64..6, 0..150),
    ) {
        // Partial grouped aggregates merged by re-group reproduce the
        // sequential group-then-aggregate exactly — including the
        // first-occurrence key order.
        let vals: Vec<i64> = keys.iter().map(|k| k * 3 + 1).collect();
        let kb = int_bat(&keys, 0);
        let vb = int_bat(&vals, 0);
        let g = algebra::group(&kb).unwrap();
        let seq_keys = g.keys(&kb).unwrap();
        let seq_sums = algebra::sum_grouped(&vb, &g).unwrap();
        for p in [1usize, 2, 8] {
            let (pk, ps) = par::grouped_agg(&kb, Some(&vb), AggKind::Sum, &ParConfig::new(p)).unwrap();
            prop_assert_eq!(&pk, &seq_keys, "keys P={}", p);
            prop_assert_eq!(&ps, &seq_sums, "sums P={}", p);
        }
    }

    #[test]
    fn par_grouped_agg_multi_matches_sequential_chain(
        keys in prop::collection::vec(0i64..6, 0..150),
    ) {
        // The fused multi-aggregate kernel (one grouping pass for sum,
        // count, min and avg — avg expanded to sum/count internally)
        // reproduces the sequential group-then-aggregate chain exactly
        // at every P, including the division the executor applies for avg.
        let vals: Vec<i64> = keys.iter().map(|k| k * 3 + 1).collect();
        let kb = int_bat(&keys, 0);
        let vb = int_bat(&vals, 0);
        let g = algebra::group(&kb).unwrap();
        let seq_keys = g.keys(&kb).unwrap();
        let seq_sums = algebra::sum_grouped(&vb, &g).unwrap();
        let seq_counts = algebra::count_grouped(&g);
        let seq_mins = algebra::min_grouped(&vb, &g).unwrap();
        let seq_avgs = algebra::map_arith(
            &Bat::transient(seq_sums.clone()),
            &Bat::transient(seq_counts.clone()),
            algebra::ArithOp::Div,
        ).unwrap().tail;
        let specs: Vec<par::AggSpec> = vec![
            (AggKind::Sum, Some(&vb)),
            (AggKind::Count, None),
            (AggKind::Min, Some(&vb)),
            (AggKind::Avg, Some(&vb)),
        ];
        for p in [1usize, 2, 8] {
            let (pk, cols) = par::grouped_agg_multi(&kb, &specs, &ParConfig::new(p)).unwrap();
            prop_assert_eq!(&pk, &seq_keys, "keys P={}", p);
            prop_assert_eq!(&cols[0], &seq_sums, "sums P={}", p);
            prop_assert_eq!(&cols[1], &seq_counts, "counts P={}", p);
            prop_assert_eq!(&cols[2], &seq_mins, "mins P={}", p);
            prop_assert_eq!(&cols[3], &seq_avgs, "avgs P={}", p);
        }
    }

    #[test]
    fn par_grouped_avg_matches_sequential(
        keys in prop::collection::vec(0i64..5, 0..120),
    ) {
        // The satellite fix, property-tested: avg through the single-agg
        // entry point equals (sequential sums) / (sequential counts) at
        // P ∈ {1, 2, 8} — no more Unsupported rejection.
        let vals: Vec<i64> = keys.iter().map(|k| k * 11 + 3).collect();
        let kb = int_bat(&keys, 0);
        let vb = int_bat(&vals, 0);
        let g = algebra::group(&kb).unwrap();
        let expect = algebra::map_arith(
            &Bat::transient(algebra::sum_grouped(&vb, &g).unwrap()),
            &Bat::transient(algebra::count_grouped(&g)),
            algebra::ArithOp::Div,
        ).unwrap().tail;
        for p in [1usize, 2, 8] {
            let (_, avgs) = par::grouped_agg(&kb, Some(&vb), AggKind::Avg, &ParConfig::new(p)).unwrap();
            prop_assert_eq!(&avgs, &expect, "P={}", p);
        }
    }

    #[test]
    fn group_agg_plan_matches_kernel_chain_int_keys(
        keys in prop::collection::vec(0i64..7, 0..120),
        p_idx in 0usize..3,
    ) {
        let vals: Vec<i64> = keys.iter().enumerate().map(|(i, k)| k * 5 + i as i64).collect();
        let w = plan_window_int(&keys, &vals);
        group_agg_vs_kernel_chain(&w, [1usize, 2, 8][p_idx])?;
    }

    #[test]
    fn group_agg_plan_matches_kernel_chain_string_keys(
        keys in prop::collection::vec(0u8..4, 0..100),
        p_idx in 0usize..3,
    ) {
        let names = ["a", "b", "aa", "ab"];
        let ks: Vec<String> = keys.iter().map(|&c| names[c as usize].to_string()).collect();
        let vals: Vec<i64> = (0..ks.len() as i64).collect();
        let n = ks.len();
        let w = datacell::basket::BasicWindow::new(
            0,
            vec![Column::Str(ks), Column::Int(vals)],
            vec![0; n],
            vec!["k".into(), "v".into()],
        );
        group_agg_vs_kernel_chain(&w, [1usize, 2, 8][p_idx])?;
    }

    #[test]
    fn sharded_append_schedule_matches_sequential_reference(
        // A schedule of (batch, clock step, seal?) steps: arbitrary batch
        // shapes (empty batches included), stamps that may step back and
        // seal points, through the shared handle and a plain basket.
        schedule in prop::collection::vec(
            (prop::collection::vec(-50i64..50, 0..5), -1i64..3, any::<bool>()),
            0..40,
        ),
    ) {
        let drained = |b: &Basket| {
            let w = b.snapshot();
            (w.base_oid(), w.col(0).unwrap().as_int().unwrap().to_vec(), w.timestamps().to_vec())
        };
        let shared = ShardedBasket::new(Basket::new("s", &[("x", DataType::Int)]));
        let mut reference = Basket::new("s", &[("x", DataType::Int)]);
        let mut ts = 1u64;
        for (vals, dt, seal) in &schedule {
            ts = ts.saturating_add_signed(*dt);
            let batch = [Column::Int(vals.clone())];
            // A stamp behind the high-water mark is rejected alike on
            // both paths, and consumes no oid.
            prop_assert_eq!(shared.append(&batch, ts), reference.append(&batch, ts));
            if *seal {
                prop_assert_eq!(shared.seal(), reference.end_oid());
            }
        }
        // The handle's stream is *exactly* the sequential stream — same
        // oids, same values, same stamps.
        prop_assert_eq!(shared.with(|b| drained(b)), drained(&reference));
        prop_assert_eq!(shared.end_oid(), reference.end_oid());
    }

    #[test]
    fn sharded_drain_equals_reference_across_expiry(
        schedule in prop::collection::vec(
            (prop::collection::vec(0i64..100, 1..4), any::<bool>()),
            1..30,
        ),
        expire_each in 1u64..6,
    ) {
        // Expiry through the handle's lock between appends: consumed
        // prefixes disappear identically on both paths and the suffix
        // still matches.
        let shared = ShardedBasket::new(Basket::new("s", &[("x", DataType::Int)]));
        let mut reference = Basket::new("s", &[("x", DataType::Int)]);
        for (i, (vals, expire)) in schedule.iter().enumerate() {
            let batch = [Column::Int(vals.clone())];
            shared.append(&batch, i as u64).unwrap();
            reference.append(&batch, i as u64).unwrap();
            if *expire {
                let upto = shared.end_oid().saturating_sub(expire_each);
                shared.with(|b| b.expire_upto(upto));
                reference.expire_upto(upto);
            }
        }
        let suffix = |b: &Basket| {
            let w = b.snapshot();
            (w.base_oid(), w.col(0).unwrap().as_int().unwrap().to_vec())
        };
        prop_assert_eq!(shared.with(|b| suffix(b)), suffix(&reference));
        prop_assert_eq!((shared.base_oid(), shared.len()), (reference.base_oid(), reference.len()));
    }

    #[test]
    fn placement_modes_agree_with_sequential_int_keys(
        keys in prop::collection::vec(-20i64..20, 0..150),
    ) {
        let vals: Vec<i64> = keys.iter().enumerate().map(|(i, k)| k * 7 + i as i64).collect();
        placement_tri_equivalence(&int_bat(&keys, 0), &int_bat(&vals, 0))?;
    }

    #[test]
    fn placement_modes_agree_with_sequential_string_keys(
        keys in prop::collection::vec(0u8..5, 0..120),
    ) {
        let names = ["a", "b", "aa", "stream", "basket"];
        let ks: Vec<String> = keys.iter().map(|&c| names[c as usize].to_string()).collect();
        let vals: Vec<i64> = (0..ks.len() as i64).map(|i| i * 3 - 40).collect();
        placement_tri_equivalence(
            &Bat::transient(Column::Str(ks)),
            &int_bat(&vals, 0),
        )?;
    }

    #[test]
    fn placement_modes_agree_with_sequential_skewed_keys(
        raw in prop::collection::vec(0u8..100, 1..200),
        hot in -5i64..5,
    ) {
        // ~90% of rows share one hot key — every partition map sends them
        // to a single morsel, so the aligned path degenerates toward
        // sequential on one thread while the others starve. Results must
        // not care.
        let keys: Vec<i64> = raw.iter().map(|&r| if r < 90 { hot } else { i64::from(r) }).collect();
        let vals: Vec<i64> = keys.iter().enumerate().map(|(i, k)| k + i as i64).collect();
        placement_tri_equivalence(&int_bat(&keys, 0), &int_bat(&vals, 0))?;
    }

    #[test]
    fn placement_modes_agree_on_join_pair_sets(
        l in prop::collection::vec(0i64..8, 0..50),
        r in prop::collection::vec(0i64..8, 0..40),
    ) {
        // The radix join partitions by the same canonical Placement map in
        // both modes — outputs must be byte-identical across modes and
        // match the nested-loop pair set at every P.
        let lb = int_bat(&l, 0);
        let rb = int_bat(&r, 300);
        let expect = nested_loop(&l, &r, 0, 300);
        for p in [1usize, 2, 8] {
            let (rlo, rro) = par::hashjoin(&lb, &rb, &ParConfig::new(p)).unwrap();
            let (alo, aro) = par::hashjoin(
                &lb,
                &rb,
                &ParConfig::new(p).with_placement(PlacementMode::Aligned),
            ).unwrap();
            prop_assert_eq!(&alo, &rlo, "left P={}", p);
            prop_assert_eq!(&aro, &rro, "right P={}", p);
            prop_assert_eq!(pair_set(&alo, &aro), expect.clone(), "P={}", p);
        }
    }

    #[test]
    fn par_sort_perm_byte_identical_int_keys(
        vals in prop::collection::vec(-10i64..10, 0..200),
        desc in any::<bool>(),
        hseq in 0u64..1000,
    ) {
        // Keys from a tiny domain force heavy duplicates, so any stability
        // break in the partitioned run-sort or the k-way merge would
        // reorder equal keys and diverge from the sequential permutation.
        // Descending is the same reversed permutation on both paths.
        let b = int_bat(&vals, hseq);
        let mut seq = algebra::sort_perm(&b).unwrap();
        if desc {
            seq.reverse();
        }
        for p in [1usize, 2, 8] {
            let perm = par::sort_perm(&b, desc, &ParConfig::new(p)).unwrap();
            prop_assert_eq!(&perm, &seq, "P={} desc={}", p, desc);
        }
    }

    #[test]
    fn par_sort_byte_identical_string_keys(
        raw in prop::collection::vec(0u8..5, 0..150),
        desc in any::<bool>(),
    ) {
        // Value-sort over string keys: the partitioned path must gather
        // through the exact sequential permutation, clones and all.
        let names = ["a", "b", "aa", "stream", "basket"];
        let ks: Vec<String> = raw.iter().map(|&c| names[c as usize].to_string()).collect();
        let b = Bat::transient(Column::Str(ks));
        let seq = algebra::sort(&b).unwrap();
        let seq = if desc { par::reverse_bat(&seq) } else { seq };
        for p in [1usize, 2, 8] {
            let sorted = par::sort(&b, desc, &ParConfig::new(p)).unwrap();
            prop_assert_eq!(&sorted, &seq, "P={} desc={}", p, desc);
        }
    }

    #[test]
    fn par_fetch_byte_identical(
        vals in prop::collection::vec(-100i64..100, 1..200),
        picks in prop::collection::vec(0usize..1000, 0..300),
        hseq in 0u64..1000,
    ) {
        // Morsels are contiguous candidate ranges concatenated in chunk
        // order, so the parallel gather must be byte-identical at every P
        // — including repeated and out-of-order oids.
        let values = int_bat(&vals, hseq);
        let oids: Vec<u64> = picks.iter().map(|&i| hseq + (i % vals.len()) as u64).collect();
        let cands = Bat::transient(Column::Oid(oids));
        let seq = algebra::fetch(&cands, &values).unwrap();
        for p in [1usize, 2, 8] {
            let fetched = par::fetch(&cands, &values, &ParConfig::new(p)).unwrap();
            prop_assert_eq!(&fetched, &seq, "P={}", p);
        }
    }

    #[test]
    fn par_fetch_byte_identical_string_payload(
        raw in prop::collection::vec(0u8..5, 1..120),
        picks in prop::collection::vec(0usize..1000, 0..200),
    ) {
        let names = ["a", "b", "aa", "stream", "basket"];
        let vals: Vec<String> = raw.iter().map(|&c| names[c as usize].to_string()).collect();
        let values = Bat::transient(Column::Str(vals.clone()));
        let oids: Vec<u64> = picks.iter().map(|&i| (i % vals.len()) as u64).collect();
        let cands = Bat::transient(Column::Oid(oids));
        let seq = algebra::fetch(&cands, &values).unwrap();
        for p in [1usize, 2, 8] {
            let fetched = par::fetch(&cands, &values, &ParConfig::new(p)).unwrap();
            prop_assert_eq!(&fetched, &seq, "P={}", p);
        }
    }

    #[test]
    fn sort_perm_fetch_chain_matches_sequential_order_by(
        keys in prop::collection::vec(-20i64..20, 0..150),
        desc in any::<bool>(),
        hseq in 0u64..1000,
    ) {
        // The executor's ORDER BY chain: SortPerm emits head oids, Fetch
        // reconstructs the payload through them. The whole chain must be
        // P-invariant, not just each operator alone.
        let payload: Vec<i64> = keys.iter().enumerate().map(|(i, k)| k * 7 + i as i64).collect();
        let kb = int_bat(&keys, hseq);
        let pb = int_bat(&payload, hseq);
        let mut chain = Vec::new();
        for p in [1usize, 2, 8] {
            let cfg = ParConfig::new(p);
            let perm = par::sort_perm(&kb, desc, &cfg).unwrap();
            let cands =
                Bat::transient(Column::Oid(perm.iter().map(|&i| hseq + i as u64).collect()));
            chain.push(par::fetch(&cands, &pb, &cfg).unwrap());
        }
        prop_assert_eq!(&chain[1], &chain[0], "P=2 desc={}", desc);
        prop_assert_eq!(&chain[2], &chain[0], "P=8 desc={}", desc);
    }

    #[test]
    fn aligned_input_mark_never_changes_grouped_agg(
        keys in prop::collection::vec(-20i64..20, 0..150),
    ) {
        // The elision tri-equivalence: sequential ≡ round robin ≡ aligned
        // ≡ aligned-with-vouched-input — even though the proptest input is
        // arbitrary, i.e. the vouch is usually a *lie*. The kernel still
        // hashes every key, so a mismarked input degrades to per-row runs
        // but can never corrupt the aggregates.
        let vals: Vec<i64> = keys.iter().enumerate().map(|(i, k)| k * 7 + i as i64).collect();
        let kb = int_bat(&keys, 0);
        let vb = int_bat(&vals, 0);
        placement_tri_equivalence(&kb, &vb)?;
        let g = algebra::group(&kb).unwrap();
        let seq_keys = g.keys(&kb).unwrap();
        let seq_sums = algebra::sum_grouped(&vb, &g).unwrap();
        let specs: Vec<par::AggSpec> = vec![(AggKind::Sum, Some(&vb))];
        for p in [1usize, 2, 8] {
            let cfg = ParConfig::new(p)
                .with_placement(PlacementMode::Aligned)
                .with_aligned_input(true);
            let (pk, cols) = par::grouped_agg_multi(&kb, &specs, &cfg).unwrap();
            prop_assert_eq!(&pk, &seq_keys, "elided keys P={}", p);
            prop_assert_eq!(&cols[0], &seq_sums, "elided sums P={}", p);
        }
    }

    #[test]
    fn aligned_input_mark_never_changes_join(
        l in prop::collection::vec(0i64..8, 0..50),
        r in prop::collection::vec(0i64..8, 0..40),
    ) {
        // Same law for the radix join: the elided partitioning walks
        // partition-change boundaries instead of materializing per-row
        // position pushes, but covers the identical positions on any
        // input — marked output is byte-identical to unmarked at every P
        // and both match the nested-loop pair set.
        let lb = int_bat(&l, 0);
        let rb = int_bat(&r, 300);
        let expect = nested_loop(&l, &r, 0, 300);
        for p in [1usize, 2, 8] {
            let aligned = ParConfig::new(p).with_placement(PlacementMode::Aligned);
            let marked = aligned.with_aligned_input(true);
            let (alo, aro) = par::hashjoin(&lb, &rb, &aligned).unwrap();
            let (mlo, mro) = par::hashjoin(&lb, &rb, &marked).unwrap();
            prop_assert_eq!(&mlo, &alo, "left P={}", p);
            prop_assert_eq!(&mro, &aro, "right P={}", p);
            prop_assert_eq!(pair_set(&mlo, &mro), expect.clone(), "P={}", p);
        }
    }

    #[test]
    fn frontier_merge_is_associative_over_parts(
        a in prop::collection::vec((0i64..6, -50i64..50), 0..12),
        b in prop::collection::vec((0i64..6, -50i64..50), 0..12),
        c in prop::collection::vec((0i64..6, -50i64..50), 0..12),
    ) {
        // merge([merge([a, b]), c]) == merge([a, b, c]) for every frontier
        // kind at once — why the ring merge (all slots), the landmark fold
        // ([cumulative, new]) and the chunk fold (chunk partials) can be
        // one function. Empty parts make the scalar partials `Absent`.
        use datacell::core::merge::merge_frontier;
        let plan = frontier_plan();
        let (pa, pb, pc) = (frontier_part(&a), frontier_part(&b), frontier_part(&c));
        let flat = merge_frontier(&plan, |v| vec![&pa[v], &pb[v], &pc[v]]).unwrap();
        let ab: Vec<_> = merge_frontier(&plan, |v| vec![&pa[v], &pb[v]])
            .unwrap()
            .into_iter()
            .map(|m| m.expect("every variable is on the frontier"))
            .collect();
        let nested = merge_frontier(&plan, |v| vec![&ab[v], &pc[v]]).unwrap();
        prop_assert_eq!(nested, flat);
    }

    #[test]
    fn count_compensated_by_sum(vals in prop::collection::vec(-10i64..10, 0..100), cut in 0usize..100) {
        let cut = cut.min(vals.len());
        let whole = algebra::count(&int_bat(&vals, 0));
        let a = algebra::count(&int_bat(&vals[..cut], 0));
        let b = algebra::count(&int_bat(&vals[cut..], 0));
        let merged = match (a, b) {
            (Value::Int(x), Value::Int(y)) => Value::Int(x + y),
            _ => unreachable!(),
        };
        prop_assert_eq!(whole, merged);
        let _ = AggKind::Count; // rule documented in kernel::algebra
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn join_index_agrees_with_nested_loops_over_the_live_runs(
        steps in prop::collection::vec(
            (prop::collection::vec(0i64..6, 0..40), any::<bool>()),
            8..40,
        ),
        probe in prop::collection::vec(0i64..6, 0..40),
        window in 1usize..5,
        strings in any::<bool>(),
    ) {
        // The sliding-window join index against a nested loop over the
        // runs still in the window. Every step pushes a run (0..40 rows,
        // six keys, so chains collide), expires down to `window` runs and
        // sometimes one more, then probes. The fixed first two runs force
        // the ring to grow and the fixed last eight to wrap around it.
        use algebra::JoinIndex;
        let key_bat = |keys: &[i64], hseq: u64| match strings {
            true => Bat::new(hseq, Column::Str(keys.iter().map(|k| format!("key-{k}")).collect())),
            false => int_bat(keys, hseq),
        };
        let fixed = |rows: i64| ((0..rows).map(|i| i % 6).collect::<Vec<i64>>(), false);
        let schedule = [fixed(1), fixed(40)]
            .into_iter()
            .chain(steps)
            .chain((0..8).map(|_| fixed(40)));
        let probe = key_bat(&probe, 7_000);
        let mut index = JoinIndex::default();
        let mut live: std::collections::VecDeque<Bat> = Default::default();
        let (mut pushed, mut max_live) = (0usize, 0usize);
        for (step, (keys, expire_one_more)) in schedule.enumerate() {
            // Transient (`hseq` 0) and stream-positioned runs both occur.
            let hseq = if step % 3 == 0 { 0 } else { 100 * step as u64 };
            index.push(&key_bat(&keys, hseq)).unwrap();
            pushed += keys.len();
            max_live = max_live.max(index.rows());
            live.push_back(key_bat(&keys, hseq));
            while live.len() > window + usize::from(!expire_one_more) {
                index.expire();
                live.pop_front();
            }
            prop_assert_eq!(index.rows(), live.iter().map(Bat::len).sum::<usize>());
            let runs: Vec<&Bat> = live.iter().collect();
            let got = index.probe(&runs, &probe).unwrap();
            prop_assert_eq!(got.len(), live.len());
            for (run, (run_oids, probe_oids)) in live.iter().zip(&got) {
                // The order contract: by probe position, newest run row
                // first within one probe row's matches.
                let mut expect = Vec::new();
                for j in 0..probe.len() {
                    for i in (0..run.len()).rev() {
                        if run.value_at(i) == probe.value_at(j) {
                            expect.push((run.hseq + i as u64, probe.hseq + j as u64));
                        }
                    }
                }
                let oids = |b: &Bat| b.tail.as_oid().unwrap().to_vec();
                let pairs: Vec<(u64, u64)> =
                    oids(run_oids).into_iter().zip(oids(probe_oids)).collect();
                prop_assert_eq!(pairs, expect);
            }
        }
        // The ring is the live-row high-water mark rounded up to a power
        // of two: it grew past its first size (one row), and more rows
        // went through it than it has slots.
        let capacity = max_live.next_power_of_two();
        prop_assert!(capacity > 1 && pushed > capacity, "{pushed} rows through {capacity} slots");
    }
}
