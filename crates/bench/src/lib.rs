//! # monatt-bench
//!
//! Harnesses that regenerate every table and figure of the CloudMonatt
//! evaluation (Sections 4 and 7 of the paper) and nothing else, bar
//! [`chaos`]: the fleet-1024 (K,N)×MTBF liveness grid, which the
//! wall-clock benchmark (`benchmark/`, `monatt-perf`) does not run.
//! Each `figNN` module exposes a `run()` function returning structured
//! results and a `print()` helper producing the paper-style rows; the
//! `src/bin/` binaries are thin wrappers. The modules' unit tests
//! assert the paper's qualitative claims (who wins, by what factor,
//! where the crossovers are), so `cargo test -p monatt-bench` re-checks
//! the whole reproduction. Every output is a function of the seeds
//! alone: `results/*.txt` and `BENCH_chaos.json` are byte-compared in
//! CI. Host-time numbers live behind `monatt-perf` / `BENCHMARK.json`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod sec722;
pub mod table1;

/// Formats a microsecond duration as seconds with millisecond precision.
pub fn fmt_secs(us: u64) -> String {
    format!("{:.3}s", us as f64 / 1_000_000.0)
}

/// Renders a unit-interval value as a percentage.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(1_234_000), "1.234s");
        assert_eq!(fmt_pct(0.5), "50.0%");
    }
}
