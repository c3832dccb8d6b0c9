//! What the benchmark measures: the four workloads, their work sizes,
//! how `--seed` becomes inputs, and the metric tables (name, unit,
//! clock, direction, bound) that `BENCHMARK.json` mirrors.

/// One of the four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 1000 idle VMs, dormant control plane, one-shot attestations.
    OneshotIdle,
    /// 64 busy guests at 2x oversubscription, windowed properties.
    BusyWindow,
    /// Periodic fleet under faults, outages, replicated control plane.
    FleetRound,
    /// Launch / attest / migrate / suspend / terminate rounds.
    LifecycleMix,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::OneshotIdle,
        Workload::BusyWindow,
        Workload::FleetRound,
        Workload::LifecycleMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotIdle => "oneshot_idle",
            Workload::BusyWindow => "busy_window",
            Workload::FleetRound => "fleet_round",
            Workload::LifecycleMix => "lifecycle_mix",
        }
    }

    /// Why the workload exists, as `BENCHMARK.json` records it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::OneshotIdle => "protocol path alone (crypto, records, codec, interpreter) on 1000 idle VMs, clean network; a hypervisor or timer-wheel optimisation must not move it",
            Workload::BusyWindow => "64 busy guests at 2x oversubscription with 1 s measurement windows, so simulator catch-up is ~96 % of host time; idle-skip and fast-forward work shows here only",
            Workload::FleetRound => "512 concurrent periodic sessions under message faults, server and control-plane outages, msg-4 batching, failover and re-keying; a gain bought with a slower failure path shows",
            Workload::LifecycleMix => "the write side: launch, measured boot, layered and fan-out programs, evidence-cache hit and invalidation, migrate, suspend, terminate among 1024 resident VMs on 96 servers",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Work of one repetition at `scale` x the reference run. Scale
    /// 1.0 is `--seconds 12`: sized on the 2-core reference host so
    /// that the [`REPS`] repetitions together take about twelve
    /// seconds of timed phase. Work is fixed, not timed, so that every
    /// simulated statistic of a `(seed, scale)` pair repeats exactly.
    ///
    /// `fleet_round` scales its slice *count* (a slice is 100 ms of
    /// virtual time plus the drain of what it started, so its length
    /// is part of the dynamics); the others keep the slice count and
    /// scale the calls per slice, down to one.
    pub fn work(self, scale: f64) -> Work {
        let (slices, per_slice) = match self {
            Workload::OneshotIdle => (100, 130),
            Workload::BusyWindow => (120, 4),
            Workload::FleetRound => (100, 100_000),
            Workload::LifecycleMix => (100, 8),
        };
        if self == Workload::FleetRound {
            let slices = ((slices as f64 * scale).round() as usize).max(MIN_SLICES);
            return Work { slices, per_slice };
        }
        let units = slices as f64 * per_slice as f64 * scale;
        let per_slice = ((per_slice as f64 * scale).round() as usize).max(1);
        let slices = ((units / per_slice as f64).round() as usize).clamp(MIN_SLICES, slices);
        Work { slices, per_slice }
    }
}

/// Repetitions of the timed phase in one run, each on a fresh set-up
/// of the same seed. The simulation is deterministic, so repetition
/// `r` does in slice `i` exactly the work every other repetition does
/// there, and the host time of slice `i` is taken as the *minimum*
/// over the repetitions. The sandbox alternates, second by second,
/// between a quiet mode and one about 1.4x slower; five repetitions
/// leave a slice slow in all of them well under 5 % of the time, so
/// the per-slice minimum is the quiet-mode cost and statistics over
/// slices show the workload's own variation, not the host's.
pub const REPS: usize = 5;

/// Fewest slices a pass is cut into, however small the scale.
const MIN_SLICES: usize = 8;

/// The `--seconds` value at which [`Workload::work`] has scale 1.
pub const REFERENCE_SECONDS: f64 = 12.0;

/// How much one pass does: `slices` timed slices of `per_slice` units
/// (API calls, lifecycle rounds, or virtual microseconds of
/// `Cloud::run` for `fleet_round`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Work {
    /// Timed slices; each yields one host-time sample.
    pub slices: usize,
    /// Units of work per slice.
    pub per_slice: usize,
}

/// SplitMix64: the benchmark's own input generator. The program under
/// test never sees it, only the seeds and orders drawn from it.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one `--seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Everything `--seed` derives: the seeds handed to the program's own
/// seeded components, and the generator for guest/property order.
#[derive(Clone, Debug)]
pub struct Seeds {
    /// `CloudBuilder::seed`.
    pub cloud: u64,
    /// `FaultModel::new`.
    pub faults: u64,
    /// `OutageModel::new`.
    pub outages: u64,
    /// Guest placement and call order.
    pub order: SplitMix64,
}

impl Seeds {
    /// Derives the inputs of one run.
    pub fn derive(seed: u64) -> Seeds {
        let mut root = SplitMix64::new(seed);
        Seeds {
            cloud: root.next_u64(),
            faults: root.next_u64(),
            outages: root.next_u64(),
            order: SplitMix64::new(root.next_u64()),
        }
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit. `virt_us` is simulated microseconds, never host time.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
    /// True for simulated-clock metrics: with a fixed `(seed, scale)`
    /// they repeat exactly, and `compare` demands that.
    pub simulated: bool,
}

/// The eight end-to-end metrics, reported for every workload.
///
/// The bounds are set from measured spreads (quartile distance over
/// ten seeds, as a share of the median; see `benchmark/README.md`):
/// three times the widest spread four ten-seed sweeps showed, which
/// was 2-3 % on a quiet sandbox and 6-8 % on a loaded one.
/// The simulated metrics repeat exactly for one seed; their bounds
/// cover the difference between seeds, which is all the driver sees.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("sessions_per_s", "1/s", Better::Higher, 0.20, false),
    e2e("host_us_per_session_p50", "us", Better::Lower, 0.20, false),
    e2e("host_us_per_session_p90", "us", Better::Lower, 0.25, false),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.20, false),
    e2e("virt_latency_us_p50", "virt_us", Better::Lower, 0.02, true),
    e2e("virt_latency_us_p99", "virt_us", Better::Lower, 0.02, true),
    e2e("completed_share", "ratio", Better::Higher, 0.05, true),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    simulated: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        simulated,
    }
}

/// A per-layer metric: `(name, unit, direction)`. No bound.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The per-layer metrics, grouped by the repository's modules.
pub const PER_LAYER: [PerLayer; 88] = [
    ("crypto.schnorr_sign_ns", "ns", Lower),
    ("crypto.schnorr_verify_ns", "ns", Lower),
    ("crypto.batch_verify64_ns_per_sig", "ns", Lower),
    ("crypto.dh_agree_ns", "ns", Lower),
    ("crypto.sha256_ns_per_byte", "ns/B", Lower),
    ("crypto.hmac_64B_ns", "ns", Lower),
    ("crypto.aes_ctr_ns_per_byte", "ns/B", Lower),
    ("crypto.seal_358B_ns", "ns", Lower),
    ("crypto.open_358B_ns", "ns", Lower),
    ("crypto.drbg_32B_ns", "ns", Lower),
    ("crypto.us_per_session", "us", Lower),
    ("tpm.begin_attestation_ns", "ns", Lower),
    ("tpm.quote_ns", "ns", Lower),
    ("tpm.pcr_extend_ns", "ns", Lower),
    ("tpm.us_per_session", "us", Lower),
    ("net.wire.encode_ns_per_session", "ns", Lower),
    ("net.wire.decode_ns_per_session", "ns", Lower),
    ("net.wire.bytes_per_session", "B", Lower),
    ("net.channel.seal_ns_per_session", "ns", Lower),
    ("net.channel.open_ns_per_session", "ns", Lower),
    ("net.channel.records_per_session", "count", Lower),
    ("net.channel.handshake_us", "us", Lower),
    ("net.channel.duplicates_rejected", "count", Lower),
    ("net.sim.transmit_ns_per_msg", "ns", Lower),
    ("net.sim.transmit_faulty_ns_per_msg", "ns", Lower),
    ("net.sim.msgs_per_session", "count", Lower),
    ("net.sim.retries_per_session", "count", Lower),
    ("net.sim.delivered_ratio", "ratio", Higher),
    ("hypervisor.engine.us_per_virt_s_idle", "us/virt_s", Lower),
    ("hypervisor.engine.us_per_virt_s_busy", "us/virt_s", Lower),
    ("hypervisor.engine.us_per_virt_s_mixed", "us/virt_s", Lower),
    ("hypervisor.engine.share", "ratio", Lower),
    ("hypervisor.vm_create_us", "us", Lower),
    ("hypervisor.vm_terminate_us", "us", Lower),
    ("hypervisor.wheel.push_ns", "ns", Lower),
    ("hypervisor.wheel.pop_ns", "ns", Lower),
    ("hypervisor.wheel.cancel_ns", "ns", Lower),
    ("hypervisor.queue.push_ns", "ns", Lower),
    ("hypervisor.queue.pop_ns", "ns", Lower),
    ("core.server.attest_boot_ns", "ns", Lower),
    ("core.server.attest_tasklist_ns", "ns", Lower),
    ("core.server.attest_cpu_ns", "ns", Lower),
    ("core.server.attest_histogram_ns", "ns", Lower),
    ("core.server.launch_vm_us", "us", Lower),
    ("core.attestation.build_request_ns", "ns", Lower),
    ("core.attestation.validate_ns", "ns", Lower),
    ("core.attestation.validate_batch64_ns_per_item", "ns", Lower),
    ("core.attestation.interpret_ns", "ns", Lower),
    ("core.attestation.certify_ns", "ns", Lower),
    ("core.attestation.verify_report_ns", "ns", Lower),
    ("core.attestation.evidence_hit_ratio", "ratio", Higher),
    ("core.attestation.avk_cert_hit_ratio", "ratio", Higher),
    ("core.pca.certify_ns", "ns", Lower),
    ("core.pca.verify_ns", "ns", Lower),
    ("core.controller.select_server_ns", "ns", Lower),
    ("core.controller.certify_customer_ns", "ns", Lower),
    ("core.controller.verify_customer_ns", "ns", Lower),
    ("core.controlplane.route_for_ns", "ns", Lower),
    ("core.controlplane.failovers", "count", Lower),
    ("core.controlplane.shards_adopted", "count", Lower),
    ("core.controlplane.as_reroutes", "count", Lower),
    ("core.controlplane.failover_sessions", "count", Lower),
    ("core.outage.crashes", "count", Lower),
    ("core.outage.evacuations", "count", Lower),
    ("core.outage.rehandshakes", "count", Lower),
    ("core.outage.deferred_rekeys", "count", Lower),
    ("core.outage.node_down_failures", "count", Lower),
    ("core.protocol.compile_figure3_us", "us", Lower),
    ("core.protocol.compile_layered_us", "us", Lower),
    ("core.protocol.compile_fanout4_us", "us", Lower),
    ("core.cloud.api.request_vm_us", "us", Lower),
    ("core.cloud.api.startup_attest_us", "us", Lower),
    ("core.cloud.api.runtime_attest_us", "us", Lower),
    ("core.cloud.api.layered_attest_us", "us", Lower),
    ("core.cloud.api.multi_attest_us", "us", Lower),
    ("core.cloud.api.respond_migration_us", "us", Lower),
    ("core.cloud.api.respond_suspension_us", "us", Lower),
    ("core.cloud.api.respond_termination_us", "us", Lower),
    ("core.cloud.api.run_slice_us", "us", Lower),
    ("core.cloud.unattributed_us_per_session", "us", Lower),
    ("core.cloud.max_in_flight", "count", Lower),
    ("core.cloud.max_queue_depth", "count", Lower),
    ("core.cloud.msg4_flushes", "count", Lower),
    ("core.cloud.msg4_mean_batch", "count", Higher),
    ("core.cloud.deadlines_exceeded", "count", Lower),
    ("core.cloud.allocs_per_session", "count", Lower),
    ("core.cloud.alloc_bytes_per_session", "B", Lower),
    ("trace.overhead_pct", "%", Lower),
];

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 100]` of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_scales_down_without_vanishing() {
        assert_eq!(
            Workload::OneshotIdle.work(1.0),
            Work {
                slices: 100,
                per_slice: 130
            }
        );
        assert_eq!(
            Workload::OneshotIdle.work(0.1),
            Work {
                slices: 100,
                per_slice: 13
            }
        );
        assert_eq!(
            Workload::BusyWindow.work(0.1),
            Work {
                slices: 48,
                per_slice: 1
            }
        );
        assert_eq!(
            Workload::FleetRound.work(0.1),
            Work {
                slices: 10,
                per_slice: 100_000
            }
        );
        assert_eq!(Workload::LifecycleMix.work(0.001).slices, MIN_SLICES);
    }

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&sorted, 50.0), 100);
        assert_eq!(percentile(&sorted, 95.0), 190);
        assert_eq!(percentile(&sorted, 100.0), 200);
    }

    #[test]
    fn seeds_differ_by_seed_and_role() {
        let (a, b) = (Seeds::derive(1), Seeds::derive(2));
        assert_ne!(a.cloud, b.cloud);
        assert_ne!(a.cloud, a.faults);
        assert_eq!(a.cloud, Seeds::derive(1).cloud);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
