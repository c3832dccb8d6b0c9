//! `monatt-perf`: the repository's wall-clock benchmark. See
//! `benchmark/README.md` for the metric glossary and workload
//! rationale, and `BENCHMARK.json` at the repository root for the
//! contract the numbers are checked against.
//!
//! Everything here measures the shipped crates from outside, through
//! their public functions; `Instant` lives only in this package.

pub mod alloc;
pub mod compare;
pub mod json;
pub mod layers;
pub mod measure;
pub mod provenance;
pub mod replay;
pub mod run;
pub mod scenario;
pub mod spec;
pub mod trace;
pub mod workloads;

/// Counts every allocation of the process, always on (see [`alloc`]).
#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;
