//! The repository benchmark for the Darwin serving stack.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload against the real stack (loopback gateway or
//! in-process fleet), checks every answer, and prints one JSON result line
//! with the end-to-end metrics (`--trace 0`) or the per-layer ledger
//! (`--trace 1`). `BENCHMARK.json` at the repository root lists the
//! workloads and metrics.

pub mod client;
pub mod inputs;
pub mod ledger;
pub mod oracle;
pub mod report;
pub mod run;
pub mod spans;
pub mod sys;
pub mod workloads;
