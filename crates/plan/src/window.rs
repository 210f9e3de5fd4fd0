//! Window specifications for continuous queries.
//!
//! The paper's evaluation covers all three shapes (§3):
//!
//! * **count-based sliding** windows — size and step in tuples; the window
//!   is split into `n = size / step` basic windows;
//! * **time-based sliding** windows — size and step in time units; basic
//!   windows are arrival-time slices and may be unequally filled or empty;
//! * **landmark** windows — a fixed starting point; tuples never expire
//!   (until an explicit landmark reset), results are cumulative.

use crate::PlanError;

/// How a continuous query windows its input stream(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Sliding window of `size` tuples advancing by `step` tuples.
    /// `step == size` is a tumbling window.
    CountSliding {
        /// Window size in tuples (`|W|`).
        size: usize,
        /// Slide step in tuples (`|w|`).
        step: usize,
    },
    /// Sliding window of `size_ms` milliseconds advancing by `step_ms`.
    TimeSliding {
        /// Window length in milliseconds.
        size_ms: u64,
        /// Slide step in milliseconds.
        step_ms: u64,
    },
    /// Landmark window: starts at the landmark (stream start) and grows;
    /// results are produced every `step` tuples.
    CountLandmark {
        /// Result cadence in tuples.
        step: usize,
    },
    /// Landmark window with a time-based result cadence.
    TimeLandmark {
        /// Result cadence in milliseconds.
        step_ms: u64,
    },
}

impl WindowSpec {
    /// Validate the shape: sizes/steps must be positive, the step must
    /// divide a sliding window's size (the paper's `n = |W|/|w|` split
    /// requires it), and the step cannot exceed the size.
    pub fn validate(&self) -> crate::Result<()> {
        match *self {
            WindowSpec::CountSliding { size, step } => {
                if size == 0 || step == 0 {
                    return Err(PlanError::Unsupported("window size/step must be positive".into()));
                }
                if step > size {
                    return Err(PlanError::Unsupported(format!(
                        "window step {step} exceeds size {size} (tuples would be skipped)"
                    )));
                }
                if size % step != 0 {
                    return Err(PlanError::Unsupported(format!(
                        "window size {size} must be a multiple of step {step} \
                         (DataCell splits the window into n = size/step basic windows)"
                    )));
                }
                Ok(())
            }
            WindowSpec::TimeSliding { size_ms, step_ms } => {
                if size_ms == 0 || step_ms == 0 {
                    return Err(PlanError::Unsupported("window size/step must be positive".into()));
                }
                if step_ms > size_ms {
                    return Err(PlanError::Unsupported(format!(
                        "window step {step_ms}ms exceeds size {size_ms}ms"
                    )));
                }
                if size_ms % step_ms != 0 {
                    return Err(PlanError::Unsupported(format!(
                        "window size {size_ms}ms must be a multiple of step {step_ms}ms"
                    )));
                }
                Ok(())
            }
            WindowSpec::CountLandmark { step } => {
                if step == 0 {
                    return Err(PlanError::Unsupported("landmark step must be positive".into()));
                }
                Ok(())
            }
            WindowSpec::TimeLandmark { step_ms } => {
                if step_ms == 0 {
                    return Err(PlanError::Unsupported("landmark step must be positive".into()));
                }
                Ok(())
            }
        }
    }

    /// Number of basic windows `n = |W|/|w|` for sliding windows; `None`
    /// for landmark windows (which keep one cumulative intermediate).
    pub fn basic_windows(&self) -> Option<usize> {
        match *self {
            WindowSpec::CountSliding { size, step } => Some(size / step),
            WindowSpec::TimeSliding { size_ms, step_ms } => Some((size_ms / step_ms) as usize),
            WindowSpec::CountLandmark { .. } | WindowSpec::TimeLandmark { .. } => None,
        }
    }

    /// Slide step in tuples; `None` for time-based windows.
    pub fn step_count(&self) -> Option<usize> {
        match *self {
            WindowSpec::CountSliding { step, .. } | WindowSpec::CountLandmark { step } => {
                Some(step)
            }
            WindowSpec::TimeSliding { .. } | WindowSpec::TimeLandmark { .. } => None,
        }
    }

    /// Slide step in milliseconds; `None` for count-based windows.
    pub fn step_ms(&self) -> Option<u64> {
        match *self {
            WindowSpec::TimeSliding { step_ms, .. } | WindowSpec::TimeLandmark { step_ms } => {
                Some(step_ms)
            }
            WindowSpec::CountSliding { .. } | WindowSpec::CountLandmark { .. } => None,
        }
    }

    /// Is this a landmark window?
    pub fn is_landmark(&self) -> bool {
        matches!(self, WindowSpec::CountLandmark { .. } | WindowSpec::TimeLandmark { .. })
    }

    /// Is this window time-based (vs count-based)?
    pub fn is_time_based(&self) -> bool {
        matches!(self, WindowSpec::TimeSliding { .. } | WindowSpec::TimeLandmark { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sliding_validation() {
        assert!(WindowSpec::CountSliding { size: 100, step: 10 }.validate().is_ok());
        assert!(WindowSpec::CountSliding { size: 100, step: 100 }.validate().is_ok()); // tumbling
        assert!(WindowSpec::CountSliding { size: 100, step: 0 }.validate().is_err());
        assert!(WindowSpec::CountSliding { size: 0, step: 1 }.validate().is_err());
        assert!(WindowSpec::CountSliding { size: 100, step: 30 }.validate().is_err()); // no divide
        assert!(WindowSpec::CountSliding { size: 10, step: 100 }.validate().is_err());
        // step > size
    }

    #[test]
    fn time_sliding_validation() {
        assert!(WindowSpec::TimeSliding { size_ms: 60_000, step_ms: 10_000 }.validate().is_ok());
        assert!(WindowSpec::TimeSliding { size_ms: 60_000, step_ms: 7_000 }.validate().is_err());
        assert!(WindowSpec::TimeSliding { size_ms: 0, step_ms: 1 }.validate().is_err());
    }

    #[test]
    fn landmark_validation() {
        assert!(WindowSpec::CountLandmark { step: 10 }.validate().is_ok());
        assert!(WindowSpec::CountLandmark { step: 0 }.validate().is_err());
        assert!(WindowSpec::TimeLandmark { step_ms: 5 }.validate().is_ok());
        assert!(WindowSpec::TimeLandmark { step_ms: 0 }.validate().is_err());
    }

    #[test]
    fn basic_window_counts() {
        assert_eq!(WindowSpec::CountSliding { size: 100, step: 10 }.basic_windows(), Some(10));
        assert_eq!(WindowSpec::TimeSliding { size_ms: 60, step_ms: 10 }.basic_windows(), Some(6));
        assert_eq!(WindowSpec::CountLandmark { step: 10 }.basic_windows(), None);
    }

    #[test]
    fn steps_by_count_or_by_time() {
        let count =
            [WindowSpec::CountSliding { size: 8, step: 2 }, WindowSpec::CountLandmark { step: 2 }];
        let time = [
            WindowSpec::TimeSliding { size_ms: 60, step_ms: 10 },
            WindowSpec::TimeLandmark { step_ms: 10 },
        ];
        for w in count {
            assert_eq!((w.step_count(), w.step_ms()), (Some(2), None));
        }
        for w in time {
            assert_eq!((w.step_count(), w.step_ms()), (None, Some(10)));
        }
    }

    #[test]
    fn kind_predicates() {
        assert!(WindowSpec::CountLandmark { step: 1 }.is_landmark());
        assert!(!WindowSpec::CountSliding { size: 2, step: 1 }.is_landmark());
        assert!(WindowSpec::TimeSliding { size_ms: 2, step_ms: 1 }.is_time_based());
        assert!(!WindowSpec::CountSliding { size: 2, step: 1 }.is_time_based());
    }
}
