//! The re-evaluation factory — "DataCellR".
//!
//! "Complete re-evaluation is the straightforward approach when it comes to
//! continuous queries. [...] every time a window is complete ... we compute
//! the result over all tuples in the window." (paper §3, Algorithm 1)
//!
//! The factory buffers the window's basic windows, re-assembles the full
//! window at every slide and executes the *unmodified* MAL plan over it.
//! This is the baseline DataCell is compared against throughout §4.

use super::{Factory, FireOutcome, SegmentCtx, Step, StreamInput};
use crate::error::DataCellError;
use crate::metrics::SlideMetrics;
use datacell_basket::{BasicWindow, Timestamp};
use datacell_kernel::{Oid, ParConfig, Table};
use datacell_plan::{execute, MalPlan, WindowSpec};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Re-evaluation factory state.
pub struct ReevalFactory {
    label: String,
    plan: MalPlan,
    window: WindowSpec,
    inputs: Vec<StreamInput>,
    tables: HashMap<String, Table>,
    /// Buffered basic windows per stream (the resident window content).
    buffered: Vec<VecDeque<BasicWindow>>,
    /// Intra-operator partition fan-out handed to every plan execution.
    par: ParConfig,
    advances: usize,
    emitted: usize,
}

impl ReevalFactory {
    /// Build a re-evaluation factory. `inputs` must be aligned with
    /// `plan.streams`. `tables` is a snapshot of the persistent tables the
    /// plan binds; `par` is the `kernel::par` configuration every plan
    /// execution runs under.
    pub fn new(
        label: impl Into<String>,
        plan: MalPlan,
        window: WindowSpec,
        inputs: Vec<StreamInput>,
        tables: HashMap<String, Table>,
        par: ParConfig,
    ) -> Result<ReevalFactory, DataCellError> {
        window.validate().map_err(DataCellError::Plan)?;
        if inputs.len() != plan.streams.len() {
            return Err(DataCellError::Unsupported(format!(
                "{} inputs supplied for {} plan streams",
                inputs.len(),
                plan.streams.len()
            )));
        }
        let nstreams = inputs.len();
        Ok(ReevalFactory {
            label: label.into(),
            plan,
            window,
            inputs,
            tables,
            buffered: vec![VecDeque::new(); nstreams],
            par,
            advances: 0,
            emitted: 0,
        })
    }

    /// Evaluate the plan over the currently buffered full window.
    fn evaluate(&mut self) -> Result<FireOutcome, DataCellError> {
        let t0 = Instant::now();
        let whole: Vec<BasicWindow> = self
            .buffered
            .iter()
            .map(|buf| BasicWindow::concat(&buf.iter().collect::<Vec<_>>()))
            .collect::<Result<_, _>>()?;
        let windows: Vec<(&str, &BasicWindow)> =
            self.plan.streams.iter().map(String::as_str).zip(&whole).collect();
        let ctx = SegmentCtx { windows: &windows, tables: Some(&self.tables), par: self.par };
        let result = execute(&self.plan, &ctx)?;
        let total = t0.elapsed();
        let metrics = SlideMetrics {
            window_index: self.emitted,
            total,
            main_plan: total,
            merge: std::time::Duration::ZERO,
            rows: result.len(),
        };
        self.emitted += 1;
        Ok(FireOutcome::Produced { result, metrics })
    }
}

impl Factory for ReevalFactory {
    fn label(&self) -> &str {
        &self.label
    }

    fn ready(&self, clock: Timestamp) -> bool {
        Step::of(&self.window, self.advances).ready(&self.inputs, clock)
    }

    fn fire(&mut self, clock: Timestamp) -> Result<FireOutcome, DataCellError> {
        if !self.ready(clock) {
            return Ok(FireOutcome::NotReady);
        }
        // Ingest one step per stream.
        let step = Step::of(&self.window, self.advances);
        for (input, buf) in self.inputs.iter_mut().zip(&mut self.buffered) {
            buf.push_back(input.take_step(step)?);
        }
        self.advances += 1;

        match self.window.basic_windows() {
            // Sliding: wait for a full window, evaluate, expire the oldest
            // basic window.
            Some(n) => {
                if self.buffered[0].len() < n {
                    return Ok(FireOutcome::Progressed);
                }
                let out = self.evaluate()?;
                for buf in &mut self.buffered {
                    buf.pop_front();
                }
                Ok(out)
            }
            // Landmark: evaluate over everything so far, expire nothing.
            None => self.evaluate(),
        }
    }

    fn consumed_upto(&self, stream: &str) -> Option<Oid> {
        self.inputs.iter().find(|i| i.name == stream).map(|i| i.consumed)
    }

    fn input_streams(&self) -> Vec<String> {
        self.inputs.iter().map(|i| i.name.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_basket::{Basket, ShardedBasket};
    use datacell_kernel::algebra::{AggKind, Predicate};
    use datacell_kernel::{Column, DataType, Value};
    use datacell_plan::{compile, AggExpr, ColumnRef, LogicalPlan};

    fn make(plan: LogicalPlan, window: WindowSpec) -> (ReevalFactory, ShardedBasket) {
        let basket = ShardedBasket::new(
            Basket::new("s", &[("x1", DataType::Int), ("x2", DataType::Int)]),
            1,
        );
        let mal = compile(&plan).unwrap();
        let inputs = vec![StreamInput::new("s", basket.clone())];
        let f =
            ReevalFactory::new("q", mal, window, inputs, HashMap::new(), ParConfig::sequential())
                .unwrap();
        (f, basket)
    }

    fn sum_plan() -> LogicalPlan {
        LogicalPlan::stream("s")
            .filter(ColumnRef::new("s", "x1"), Predicate::gt(10))
            .aggregate(None, vec![AggExpr::new(AggKind::Sum, ColumnRef::new("s", "x2"), "sum")])
    }

    #[test]
    fn sliding_window_reevaluation() {
        let (mut f, basket) = make(sum_plan(), WindowSpec::CountSliding { size: 4, step: 2 });
        // x1: 5,20 | 30,7 | 40,8 ; x2: 1..6
        basket
            .append(
                &[Column::Int(vec![5, 20, 30, 7, 40, 8]), Column::Int(vec![1, 2, 3, 4, 5, 6])],
                0,
            )
            .unwrap();
        // advance 1: preface
        assert!(matches!(f.fire(0).unwrap(), FireOutcome::Progressed));
        // advance 2: first full window [5,20,30,7] -> sum x2 of x1>10 = 2+3 = 5
        match f.fire(0).unwrap() {
            FireOutcome::Produced { result, metrics } => {
                assert_eq!(result.rows(), vec![vec![Value::Int(5)]]);
                assert_eq!((metrics.window_index, metrics.rows), (0, 1));
            }
            other => panic!("expected result, got {other:?}"),
        }
        // advance 3: window [30,7,40,8] -> 3 + 5 = 8
        match f.fire(0).unwrap() {
            FireOutcome::Produced { result, metrics } => {
                assert_eq!(result.rows(), vec![vec![Value::Int(8)]]);
                assert_eq!((metrics.window_index, metrics.rows), (1, 1));
            }
            other => panic!("expected result, got {other:?}"),
        }
        // exhausted
        assert!(matches!(f.fire(0).unwrap(), FireOutcome::NotReady));
        assert_eq!(f.consumed_upto("s"), Some(6));
        assert_eq!(f.consumed_upto("zz"), None);
    }

    #[test]
    fn landmark_reevaluation_grows() {
        let (mut f, basket) = make(sum_plan(), WindowSpec::CountLandmark { step: 2 });
        basket
            .append(&[Column::Int(vec![20, 5, 30, 7]), Column::Int(vec![1, 2, 3, 4])], 0)
            .unwrap();
        match f.fire(0).unwrap() {
            FireOutcome::Produced { result, .. } => {
                assert_eq!(result.rows(), vec![vec![Value::Int(1)]]);
            }
            other => panic!("{other:?}"),
        }
        match f.fire(0).unwrap() {
            FireOutcome::Produced { result, .. } => {
                // cumulative: x1 in {20, 30} -> x2 1 + 3
                assert_eq!(result.rows(), vec![vec![Value::Int(4)]]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn time_window_reevaluation() {
        let (mut f, basket) =
            make(sum_plan(), WindowSpec::TimeSliding { size_ms: 20, step_ms: 10 });
        basket.append(&[Column::Int(vec![20]), Column::Int(vec![1])], 5).unwrap();
        basket.append(&[Column::Int(vec![30]), Column::Int(vec![2])], 15).unwrap();
        // Not ready until the clock passes the first boundary.
        assert!(!f.ready(9));
        assert!(matches!(f.fire(10).unwrap(), FireOutcome::Progressed));
        match f.fire(20).unwrap() {
            FireOutcome::Produced { result, .. } => {
                assert_eq!(result.rows(), vec![vec![Value::Int(3)]]);
            }
            other => panic!("{other:?}"),
        }
        // Next boundary with no new data: window is [10,30) -> only ts 15.
        match f.fire(30).unwrap() {
            FireOutcome::Produced { result, .. } => {
                assert_eq!(result.rows(), vec![vec![Value::Int(2)]]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn input_arity_checked() {
        let plan = compile(
            &LogicalPlan::stream("s").project(vec![(ColumnRef::new("s", "x1"), "a".into())]),
        )
        .unwrap();
        let err = ReevalFactory::new(
            "q",
            plan,
            WindowSpec::CountSliding { size: 2, step: 1 },
            vec![],
            HashMap::new(),
            ParConfig::sequential(),
        );
        assert!(err.is_err());
    }
}
