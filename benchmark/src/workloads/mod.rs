//! The four workloads. Each times its set-up with a
//! [`common::SetupClock`], runs one untraced timed phase for `--seconds`
//! (half of it in trace mode), and in trace mode re-runs the same inputs
//! with spans on and replays single layers outside the timed operations.

pub mod common;
pub mod fig3;
pub mod gen;
pub mod paper;
pub mod store;
