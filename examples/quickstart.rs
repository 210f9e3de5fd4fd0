//! Quickstart: register a stream, a continuous query, feed tuples, read
//! window results.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use datacell::prelude::*;

fn main() -> Result<(), DataCellError> {
    // 1. An engine with one input stream: temperature readings
    //    (sensor id, temperature in tenths of a degree).
    let mut engine = Engine::new();
    engine.create_stream("readings", &[("sensor", DataType::Int), ("temp", DataType::Int)])?;

    // 2. A continuous query: per sliding window of 6 readings (sliding by
    //    3), the per-sensor sum of temperatures above 20.0 degrees.
    let q = engine.register_sql(
        "SELECT sensor, sum(temp) FROM readings \
         WHERE temp > 200 \
         GROUP BY sensor \
         WINDOW SIZE 6 SLIDE 3",
    )?;

    // 3. Feed tuples as they "arrive". Batches can be any size; the
    //    scheduler fires the query whenever a window completes.
    engine.append(
        "readings",
        &[Column::Int(vec![1, 2, 1, 2, 1, 2]), Column::Int(vec![195, 210, 220, 199, 230, 240])],
    )?;
    engine.run_until_idle()?;

    engine.append("readings", &[Column::Int(vec![1, 1, 2]), Column::Int(vec![250, 260, 180])])?;
    engine.run_until_idle()?;

    // 4. Drain the produced window results; each comes with the timings
    //    of the slide that produced it.
    let windows = engine.drain_with_metrics(q)?;
    for (i, (window, _)) in windows.iter().enumerate() {
        println!("window {i}:");
        for row in window.rows() {
            println!("  sensor {} -> sum {}", row[0], row[1]);
        }
    }

    println!(
        "\nprocessed {} windows, mean response {:?}",
        windows.len(),
        windows.iter().map(|(_, m)| m.total).sum::<std::time::Duration>()
            / windows.len().max(1) as u32
    );
    Ok(())
}
