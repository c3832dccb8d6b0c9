//! Turning repeated passes into numbers: [`measure`] runs the
//! repetitions of one configuration, [`Combined`] takes the per-slice
//! minimum over them (see [`crate::spec::REPS`] for why) and derives
//! the end-to-end metrics.

use crate::alloc;
use crate::scenario::{run_pass, PassConfig, PassResult, VIOLATIONS_KEPT};
use crate::spec::{median, percentile};

/// The repetitions of one configuration, combined.
#[derive(Debug)]
pub struct Combined {
    /// The first repetition, whole: every repetition is the same
    /// simulation, so its counters, reports and digest stand for all.
    pub first: PassResult,
    /// Median set-up time over the repetitions, host seconds.
    pub setup_s: f64,
    /// Per slice, the least host nanoseconds any repetition took.
    pub slice_ns: Vec<u64>,
    /// Output-check failures over all repetitions.
    pub violation_count: u64,
    /// The first few of them.
    pub violations: Vec<String>,
    /// Repetitions run.
    pub reps: usize,
}

impl Combined {
    /// Combines repetitions of one `(workload, seed, work)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty list.
    pub fn new(mut reps: Vec<PassResult>) -> Combined {
        let count = reps.len();
        let setup_s = median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>());
        let mut violations = Vec::new();
        let mut violation_count = 0;
        let first_digest = reps[0].sim_digest;
        let first_sessions: Vec<u64> = reps[0].slices.iter().map(|s| s.sessions).collect();
        let mut slice_ns: Vec<u64> = reps[0].slices.iter().map(|s| s.host_ns).collect();
        for (r, rep) in reps.iter().enumerate() {
            violation_count += rep.violation_count;
            violations.extend(rep.violations.iter().map(|v| format!("rep {r}: {v}")));
            // Determinism is what the per-slice minimum rests on.
            let same = rep.sim_digest == first_digest
                && rep
                    .slices
                    .iter()
                    .map(|s| s.sessions)
                    .eq(first_sessions.iter().copied());
            if !same {
                violation_count += 1;
                violations.push(format!(
                    "rep {r}: simulation diverged from rep 0 (digest {:016x} vs {first_digest:016x})",
                    rep.sim_digest
                ));
            }
            for (least, slice) in slice_ns.iter_mut().zip(&rep.slices) {
                *least = (*least).min(slice.host_ns);
            }
        }
        violations.truncate(VIOLATIONS_KEPT);
        Combined {
            first: reps.swap_remove(0),
            setup_s,
            slice_ns,
            violation_count,
            violations,
            reps: count,
        }
    }

    /// Engine sessions one repetition finished.
    pub fn sessions(&self) -> u64 {
        self.first.sessions()
    }

    /// Host seconds of one repetition, every slice at its minimum.
    pub fn host_s(&self) -> f64 {
        self.slice_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Sessions per host second.
    pub fn sessions_per_s(&self) -> f64 {
        self.sessions() as f64 / self.host_s()
    }

    /// Host microseconds per session over the whole repetition.
    pub fn host_us_per_session(&self) -> f64 {
        self.host_s() * 1e6 / self.sessions().max(1) as f64
    }

    /// Host microseconds per session of every slice, ascending.
    pub fn slice_us_per_session(&self) -> Vec<f64> {
        let mut samples: Vec<f64> = self
            .slice_ns
            .iter()
            .zip(&self.first.slices)
            .filter(|(_, slice)| slice.sessions > 0)
            .map(|(ns, slice)| *ns as f64 / 1e3 / slice.sessions as f64)
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
        samples
    }

    /// The eight end-to-end metrics, in `spec::END_TO_END` order.
    pub fn end_to_end(&self) -> [f64; 8] {
        let host = self.slice_us_per_session();
        let latency = &self.first.latencies_us;
        [
            self.setup_s,
            self.sessions_per_s(),
            percentile(&host, 50.0),
            percentile(&host, 90.0),
            alloc::peak_rss_mib().unwrap_or(f64::NAN),
            percentile(latency, 50.0) as f64,
            percentile(latency, 99.0) as f64,
            1.0 - self.first.failed_share(),
        ]
    }
}

/// Runs `reps` repetitions of `config` and combines them.
pub fn measure(config: PassConfig, reps: usize) -> Combined {
    let [combined] = measure_interleaved([config], reps);
    combined
}

/// Runs several configurations `reps` times each, interleaved
/// (`a b c a b c ...`), so that a slow spell of the host falls on all
/// of them alike, and combines each.
pub fn measure_interleaved<const N: usize>(configs: [PassConfig; N], reps: usize) -> [Combined; N] {
    let mut results: [Vec<PassResult>; N] = std::array::from_fn(|_| Vec::with_capacity(reps));
    for _ in 0..reps {
        for (config, into) in configs.iter().zip(results.iter_mut()) {
            into.push(run_pass(*config));
        }
    }
    results.map(Combined::new)
}
