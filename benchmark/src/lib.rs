//! The repo benchmark: four session-level workloads driven through the
//! real `CollaborationSession`, an independent oracle, end-to-end
//! metrics measured with tracing off, and a traced pass that attributes
//! cost to crates from outside (spans around session calls plus
//! isolated replays of each crate's public functions). See README.md.

pub mod harness;
pub mod measure;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod workloads;

#[global_allocator]
static GLOBAL: measure::CountingAlloc = measure::CountingAlloc;
