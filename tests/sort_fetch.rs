//! The morsel-parallel fetch & sort paths, end to end: the SortPerm →
//! Fetch head-oid contract pinned through the partitioned executor, a
//! golden ORDER BY / top-k SQL pin through the parallel stack (4 workers
//! × 4 partitions) against the sequential engine, and the fetch/sort
//! telemetry families surfacing in `Engine::telemetry_snapshot()`.

use datacell::core::EngineConfig;
use datacell::plan::exec::{execute, WindowCtx};
use datacell::plan::mal::{MalBuilder, MalOp, MalPlan};
use datacell::prelude::*;
use datacell::telemetry::{parse_text, render_text};

/// `SELECT oids, k, v ORDER BY k [DESC]` as a raw MAL chain, exposing the
/// SortPerm output itself so the head-oid contract is directly visible.
fn order_by_plan(desc: bool) -> MalPlan {
    let mut b = MalBuilder::new();
    let k = b.emit(MalOp::BindStream { stream: "s".into(), attr: "k".into() });
    let v = b.emit(MalOp::BindStream { stream: "s".into(), attr: "v".into() });
    let sp = b.emit(MalOp::SortPerm { input: k, desc });
    let fk = b.emit(MalOp::Fetch { cands: sp, values: k });
    let fv = b.emit(MalOp::Fetch { cands: sp, values: v });
    b.finish(vec!["oid".into(), "k".into(), "v".into()], vec![sp, fk, fv])
}

/// SortPerm must emit *head oids* (window base + sorted position), not
/// bare positions, at every partition fan-out — that contract is what
/// lets a downstream Fetch reconstruct payload columns unchanged. The
/// window deliberately starts at oid 100 so any base/position confusion
/// shows up immediately.
#[test]
fn sort_perm_head_oids_compose_with_fetch_at_every_p() {
    let w = BasicWindow::new(
        100,
        vec![Column::Int(vec![5, 1, 4, 1, 3]), Column::Int(vec![10, 20, 30, 40, 50])],
        vec![0; 5],
        vec!["k".into(), "v".into()],
    );
    // Stable ascending permutation of k = [5,1,4,1,3] is positions
    // [1,3,4,2,0]; descending is its reverse.
    let cases = [
        (false, vec![1u64, 3, 4, 2, 0], vec![1i64, 1, 3, 4, 5], vec![20i64, 40, 50, 30, 10]),
        (true, vec![0u64, 2, 4, 3, 1], vec![5i64, 4, 3, 1, 1], vec![10i64, 30, 50, 40, 20]),
    ];
    for (desc, perm, ks, vs) in &cases {
        let plan = order_by_plan(*desc);
        let expect: Vec<Vec<Value>> = perm
            .iter()
            .zip(ks)
            .zip(vs)
            .map(|((&p, &k), &v)| vec![Value::Oid(100 + p), Value::Int(k), Value::Int(v)])
            .collect();
        let reference = execute(&plan, &WindowCtx::new().with_stream("s", &w)).unwrap();
        assert_eq!(reference.rows(), expect, "sequential drifted, desc={desc}");
        for p in [1usize, 2, 8] {
            let ctx = WindowCtx::new().with_stream("s", &w).with_partitions(p);
            let got = execute(&plan, &ctx).unwrap();
            assert_eq!(got.rows(), expect, "P={p} desc={desc}");
        }
    }
}

/// Golden pin: a SQL ORDER BY ... DESC LIMIT query through the parallel
/// stack — parallel scheduler (4 workers), partitioned kernel (4) — must
/// produce exactly the rows the fully sequential engine produces, in the
/// same order.
#[test]
fn golden_order_by_top_k_through_sharded_parallel_path() {
    let run = |workers: usize, partitions: usize| {
        let config = EngineConfig { workers, partitions, ..EngineConfig::from_env() };
        let mut e = Engine::with_config(config);
        e.create_stream("s", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
        let q = e
            .register_sql("SELECT k, v FROM s ORDER BY v DESC LIMIT 3 WINDOW SIZE 6 SLIDE 3")
            .unwrap();
        e.append(
            "s",
            &[
                Column::Int(vec![1, 2, 1, 2, 3, 1, 3, 2, 1]),
                Column::Int(vec![10, 20, 30, 40, 50, 60, 70, 80, 90]),
            ],
        )
        .unwrap();
        e.run_until_idle().unwrap();
        let out = e.drain_results(q).unwrap();
        out.iter().map(datacell::plan::ResultSet::rows).collect::<Vec<_>>()
    };

    let golden = vec![
        // Window 1 (tuples 1..6): v = 60, 50, 40 on top.
        vec![
            vec![Value::Int(1), Value::Int(60)],
            vec![Value::Int(3), Value::Int(50)],
            vec![Value::Int(2), Value::Int(40)],
        ],
        // Window 2 (tuples 4..9): v = 90, 80, 70 on top.
        vec![
            vec![Value::Int(1), Value::Int(90)],
            vec![Value::Int(2), Value::Int(80)],
            vec![Value::Int(3), Value::Int(70)],
        ],
    ];
    let sequential = run(1, 1);
    assert_eq!(sequential, golden, "sequential run drifted from the golden pin");
    let parallel = run(4, 4);
    assert_eq!(parallel, golden, "parallel run drifted from the golden pin");
}

/// The new kernel fetch/sort telemetry families surface in the engine's
/// unified snapshot once an ORDER BY workload touches them, and the
/// rendered exposition stays parse-clean.
#[test]
fn fetch_sort_families_render_in_engine_snapshot() {
    let mut e =
        Engine::with_config(EngineConfig { workers: 2, partitions: 4, ..EngineConfig::from_env() });
    e.create_stream("s", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
    let q = e
        .register_sql("SELECT k, v FROM s ORDER BY v DESC LIMIT 5 WINDOW SIZE 256 SLIDE 128")
        .unwrap();
    let ks: Vec<i64> = (0..512).map(|i| i % 16).collect();
    let vs: Vec<i64> = (0..512).map(|i| (i * 37) % 501).collect();
    e.append("s", &[Column::Int(ks), Column::Int(vs)]).unwrap();
    e.run_until_idle().unwrap();
    assert!(!e.drain_results(q).unwrap().is_empty());

    let snap = e.telemetry_snapshot();
    let text = render_text(&snap);
    let parsed = parse_text(&text).expect("snapshot must render parse-clean");
    // Counters are process-global, so only monotone/nonzero claims are
    // safe here — but this engine definitely sorted and fetched.
    assert!(parsed.total("datacell_kernel_sort_calls_total") > 0.0, "no sort calls:\n{text}");
    assert!(parsed.total("datacell_kernel_fetch_calls_total") > 0.0, "no fetch calls:\n{text}");
    assert!(
        parsed.total("datacell_kernel_fetch_par_calls_total") > 0.0,
        "partitions=4 ORDER BY never took the parallel fetch path:\n{text}"
    );
    for fam in ["datacell_kernel_sort_seconds", "datacell_kernel_fetch_seconds"] {
        assert!(
            snap.family(fam).is_some(),
            "timing family {fam} missing from engine snapshot (DATACELL_TELEMETRY off?)"
        );
    }
}
