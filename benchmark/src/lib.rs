//! Support code of the AL-stack benchmark: order statistics, span
//! recording, host probes and the result line. The workloads themselves
//! live in the `al-benchmark` binary.

pub mod host;
pub mod stats;
pub mod trace;
