//! The two-stream join's probe work per slide does not depend on how many
//! basic windows the window holds: each slide is two strip probes of one
//! basic window each, whatever `n` is. Kernel counters are process-wide,
//! so this file holds one test and nothing else runs beside it.

use datacell::kernel::par::stats;
use datacell::prelude::*;

#[test]
fn join_probes_two_basic_windows_per_slide_whatever_n() {
    const STEP: usize = 16;
    for n in [4usize, 32] {
        let mut e = Engine::new();
        for s in ["a", "b"] {
            e.create_stream(s, &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
        }
        let sql = format!(
            "SELECT max(a.v), sum(b.v) FROM a, b WHERE a.k = b.k WINDOW SIZE {} SLIDE {STEP}",
            n * STEP
        );
        let q = e.register_sql(&sql).unwrap();
        let slides = n + 3;
        for slide in 0..slides {
            let keys: Vec<i64> = (0..STEP).map(|i| ((slide * 7 + i * 3) % 24) as i64).collect();
            let vals: Vec<i64> = (0..STEP).map(|i| (slide * STEP + i) as i64).collect();
            e.append("a", &[Column::Int(keys.clone()), Column::Int(vals.clone())]).unwrap();
            e.append("b", &[Column::Int(keys), Column::Int(vals)]).unwrap();
            let before = stats::snapshot();
            e.run_until_idle().unwrap();
            let d = stats::snapshot().delta(&before);
            assert_eq!(d.join_calls, 2, "n={n} slide {slide}: one probe per strip side");
            assert_eq!(d.join_probe_rows, 2 * STEP as u64, "n={n} slide {slide}");
            // Both sides carry the same keys, so the new basic windows
            // alone already match each other.
            assert!(d.join_pairs >= STEP as u64, "n={n} slide {slide}");
        }
        assert_eq!(e.drain_results(q).unwrap().len(), slides - n + 1);
    }
}
