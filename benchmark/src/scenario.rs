//! The harness shared by the four workloads: the [`Scenario`] trait a
//! workload implements, the [`Recorder`] every call's result goes
//! through (output checks, latency samples, the simulation digest, API
//! spans when tracing), and [`run_pass`], which sets a scenario up,
//! times its slices and collects a [`PassResult`].

use crate::alloc;
use crate::spec::{Seeds, Work, Workload};
use crate::trace::Tracer;
use crate::workloads;
use monatt_core::{
    AttestationReport, Cloud, CloudError, ControlPlaneStats, HealthStatus, OutageStats,
    ProtocolStats, SecurityProperty,
};
use monatt_net::sim::FaultStats;
use std::time::Instant;

/// A public `Cloud` call the workloads make; each gets a root span in
/// the traced pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Api {
    /// `Cloud::request_vm`
    RequestVm,
    /// `Cloud::startup_attest_current`
    StartupAttest,
    /// `Cloud::runtime_attest_current`
    RuntimeAttest,
    /// `Cloud::layered_attest`
    LayeredAttest,
    /// `Cloud::multi_attest`
    MultiAttest,
    /// `Cloud::respond(Migration)`
    RespondMigration,
    /// `Cloud::respond(Suspension)`
    RespondSuspension,
    /// `Cloud::respond(Termination)`
    RespondTermination,
    /// `Cloud::resume`
    Resume,
    /// `Cloud::run(slice)`
    RunSlice,
}

impl Api {
    /// The span name, `core.cloud.api.<call>`.
    pub fn span_name(self) -> &'static str {
        match self {
            Api::RequestVm => "core.cloud.api.request_vm",
            Api::StartupAttest => "core.cloud.api.startup_attest",
            Api::RuntimeAttest => "core.cloud.api.runtime_attest",
            Api::LayeredAttest => "core.cloud.api.layered_attest",
            Api::MultiAttest => "core.cloud.api.multi_attest",
            Api::RespondMigration => "core.cloud.api.respond_migration",
            Api::RespondSuspension => "core.cloud.api.respond_suspension",
            Api::RespondTermination => "core.cloud.api.respond_termination",
            Api::Resume => "core.cloud.api.resume",
            Api::RunSlice => "core.cloud.api.run_slice",
        }
    }
}

/// A 64-bit fingerprint of everything the simulation produced. Not a
/// cryptographic hash: it only has to change when any fed value does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Feeds one word.
    pub fn word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01B3);
        self.0 ^= self.0 >> 29;
    }

    /// Feeds a byte string, length first.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    /// Feeds one report: vid, property, verdict, both timestamps.
    pub fn report(&mut self, r: &AttestationReport) {
        self.word(r.vid.0);
        self.bytes(r.property.label().as_bytes());
        match &r.status {
            HealthStatus::Healthy => self.word(0),
            HealthStatus::Compromised { reason } => {
                self.word(1);
                self.bytes(reason.as_bytes());
            }
            HealthStatus::Unreachable { missed } => {
                self.word(2);
                self.word(u64::from(*missed));
            }
        }
        self.word(r.elapsed_us);
        self.word(r.issued_at_us);
    }

    /// The fingerprint so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// How many violation messages are kept verbatim (all are counted).
pub const VIOLATIONS_KEPT: usize = 12;

/// Where every result of a pass goes.
#[derive(Debug, Default)]
pub struct Recorder {
    tracer: Option<Tracer>,
    /// `elapsed_us` of every report returned in the timed phase.
    pub latencies_us: Vec<u64>,
    /// Running digest over every report.
    pub digest: Digest,
    /// Public API calls made.
    pub api_calls: u64,
    /// API calls that returned `Err`.
    pub api_errs: u64,
    /// First few output-check failures, verbatim.
    pub violations: Vec<String>,
    /// All output-check failures.
    pub violation_count: u64,
}

impl Recorder {
    /// A recorder; `traced` turns API spans on. `reports` pre-sizes the
    /// latency buffer so the timed phase never grows it (the counting
    /// allocator sees the benchmark's own allocations too).
    pub fn new(traced: bool, reports: usize) -> Self {
        Recorder {
            tracer: traced.then(Tracer::new),
            latencies_us: Vec::with_capacity(reports),
            ..Recorder::default()
        }
    }

    /// Makes one public API call, inside a root span when tracing.
    pub fn call<R>(&mut self, api: Api, f: impl FnOnce() -> R) -> R {
        self.api_calls += 1;
        match self.tracer.as_mut() {
            Some(tracer) => tracer.span(api.span_name(), 0, self.api_calls as u32, f).0,
            None => f(),
        }
    }

    /// Records an output-check failure.
    pub fn violation(&mut self, message: impl FnOnce() -> String) {
        self.violation_count += 1;
        if self.violations.len() < VIOLATIONS_KEPT {
            self.violations.push(message());
        }
    }

    /// Checks `cond`, recording `message` as a violation if it fails.
    pub fn check(&mut self, cond: bool, message: impl FnOnce() -> String) {
        if !cond {
            self.violation(message);
        }
    }

    /// Unwraps an API result every workload expects to be `Ok`.
    pub fn expect_ok<T>(&mut self, what: &str, result: Result<T, CloudError>) -> Option<T> {
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.api_errs += 1;
                self.violation(|| format!("{what}: unexpected error: {e}"));
                None
            }
        }
    }

    /// Records a report returned in the timed phase.
    pub fn report(&mut self, report: &AttestationReport) {
        self.digest.report(report);
        self.latencies_us.push(report.elapsed_us);
    }

    /// Records a report that must be healthy.
    pub fn healthy_report(&mut self, what: &str, result: Result<AttestationReport, CloudError>) {
        if let Some(report) = self.expect_ok(what, result) {
            self.check(report.healthy(), || {
                format!(
                    "{what}: {} {} judged {:?}",
                    report.vid, report.property, report.status
                )
            });
            self.report(&report);
        }
    }
}

/// One workload, set up and ready for its timed phase.
pub trait Scenario {
    /// The cloud under test.
    fn cloud(&mut self) -> &mut Cloud;

    /// Runs timed slice `index`: `work.per_slice` units of work.
    fn run_slice(&mut self, index: usize, work: Work, rec: &mut Recorder);

    /// After the timed phase: collects what the cloud still holds
    /// (subscription reports) and runs the workload's own end checks.
    fn finish(&mut self, _work: Work, _rec: &mut Recorder) {}

    /// Reports the timed phase will record, to pre-size buffers.
    fn expected_reports(&self, work: Work) -> usize {
        work.slices * work.per_slice
    }

    /// Per-(guest kind, property) verdict tallies, where the workload
    /// keeps them: `(kind, property, healthy, unhealthy)`.
    fn verdict_table(&self) -> Vec<(String, SecurityProperty, u64, u64)> {
        Vec::new()
    }
}

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct PassConfig {
    /// The workload.
    pub workload: Workload,
    /// The `--seed`.
    pub seed: u64,
    /// How much work.
    pub work: Work,
    /// Replace every guest by `WorkloadSpec::Idle` (the idle twin that
    /// `hypervisor.engine.share` is measured against).
    pub idle_twin: bool,
    /// Record API spans.
    pub traced: bool,
}

/// One timed slice: host nanoseconds and sessions finished in it.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Host time of the slice.
    pub host_ns: u64,
    /// Engine sessions finished (`completed + failed` delta).
    pub sessions: u64,
}

/// Everything one pass measured.
#[derive(Debug)]
pub struct PassResult {
    /// The configuration that produced it.
    pub config: PassConfig,
    /// Host seconds of the set-up: build cloud, launch fleet,
    /// subscribe, warm up.
    pub setup_s: f64,
    /// The timed slices.
    pub slices: Vec<Slice>,
    /// Host nanoseconds of the whole timed phase.
    pub timed_ns: u64,
    /// `elapsed_us` of every timed-phase report, ascending.
    pub latencies_us: Vec<u64>,
    /// Protocol counters over the timed phase.
    pub stats: ProtocolStats,
    /// Outage counters since build.
    pub outage: OutageStats,
    /// Control-plane counters since build.
    pub control_plane: ControlPlaneStats,
    /// Injected-fault counters over the timed phase.
    pub faults: FaultStats,
    /// Records black-holed at a down node in the timed phase.
    pub blackholed: u64,
    /// Evidence-cache `(hits, misses)` over the timed phase.
    pub evidence: (u64, u64),
    /// Certified-AVK cache `(hits, misses)` over the timed phase.
    pub avk: (u64, u64),
    /// Public API calls made in the timed phase.
    pub api_calls: u64,
    /// API calls that returned `Err`.
    pub api_errs: u64,
    /// First few output-check failures.
    pub violations: Vec<String>,
    /// All output-check failures.
    pub violation_count: u64,
    /// Fingerprint of every simulated output.
    pub sim_digest: u64,
    /// Allocator calls in the timed phase.
    pub allocs: u64,
    /// Bytes requested from the allocator in the timed phase.
    pub alloc_bytes: u64,
    /// Virtual microseconds the timed phase covered.
    pub virt_span_us: u64,
    /// Cloud servers.
    pub servers: usize,
    /// Verdict tallies (see [`Scenario::verdict_table`]).
    pub verdicts: Vec<(String, SecurityProperty, u64, u64)>,
    /// API spans, when traced.
    pub tracer: Option<Tracer>,
}

impl PassResult {
    /// Engine sessions finished in the timed phase.
    pub fn sessions(&self) -> u64 {
        self.slices.iter().map(|s| s.sessions).sum()
    }

    /// Sessions plus refusals plus API errors: the denominator of the
    /// failed share.
    pub fn attempted(&self) -> u64 {
        self.stats.sessions_started + self.stats.sessions_shed + self.api_errs
    }

    /// `(sessions_failed + sessions_shed + API errors) / attempted`.
    pub fn failed_share(&self) -> f64 {
        let failed = self.stats.sessions_failed + self.stats.sessions_shed + self.api_errs;
        failed as f64 / self.attempted().max(1) as f64
    }
}

fn finished(stats: &ProtocolStats) -> u64 {
    stats.sessions_completed + stats.sessions_failed
}

/// Sets the workload up, runs its timed slices and its end checks.
pub fn run_pass(config: PassConfig) -> PassResult {
    let start = Instant::now();
    let mut scenario = workloads::setup(
        config.workload,
        Seeds::derive(config.seed),
        config.idle_twin,
    );
    let setup_s = start.elapsed().as_secs_f64();
    let work = config.work;
    let mut rec = Recorder::new(config.traced, scenario.expected_reports(work));
    let mut slices = Vec::with_capacity(work.slices);

    scenario.cloud().reset_protocol_stats();
    let evidence_before = scenario.cloud().evidence_cache_stats();
    let avk_before = scenario.cloud().avk_cert_cache_stats();
    let virt_start = scenario.cloud().wall_clock_us();
    let faults_before = scenario
        .cloud()
        .network_mut()
        .fault_stats()
        .unwrap_or_default();
    let blackholed_before = scenario.cloud().network_mut().blackholed();
    let allocs_before = alloc::counts();
    let timed = Instant::now();
    let mut done = 0;
    for index in 0..work.slices {
        let start = Instant::now();
        scenario.run_slice(index, work, &mut rec);
        let host_ns = start.elapsed().as_nanos() as u64;
        let now_done = finished(&scenario.cloud().protocol_stats());
        slices.push(Slice {
            host_ns,
            sessions: now_done - done,
        });
        done = now_done;
    }
    let timed_ns = timed.elapsed().as_nanos() as u64;
    let allocs_after = alloc::counts();

    let cloud = scenario.cloud();
    let stats = cloud.protocol_stats();
    let virt_span_us = cloud.wall_clock_us() - virt_start;
    let evidence_after = cloud.evidence_cache_stats();
    let avk_after = cloud.avk_cert_cache_stats();
    scenario.finish(work, &mut rec);

    // The ledgers every workload must balance.
    let cloud = scenario.cloud();
    let in_flight = cloud.sessions_in_flight();
    let outage = cloud.outage_stats();
    let control_plane = cloud.control_plane_stats();
    let servers = cloud.server_count();
    let faults = cloud.network_mut().fault_stats().unwrap_or_default();
    let faults = FaultStats {
        dropped: faults.dropped - faults_before.dropped,
        duplicated: faults.duplicated - faults_before.duplicated,
        corrupted: faults.corrupted - faults_before.corrupted,
        delayed: faults.delayed - faults_before.delayed,
    };
    let blackholed = cloud.network_mut().blackholed() - blackholed_before;
    let probe = cloud.drbg_probe();
    rec.check(stats.sessions_started == finished(&stats), || {
        format!("session ledger out of balance: {stats:?}")
    });
    rec.check(in_flight == 0, || {
        format!("{in_flight} sessions still in flight")
    });
    rec.check(stats.drops_seen == faults.dropped + blackholed, || {
        format!("drop ledger out of balance: {stats:?} {faults:?} blackholed={blackholed}")
    });

    let mut digest = rec.digest;
    for word in [
        stats.messages_sent,
        stats.retries,
        stats.drops_seen,
        stats.timeouts,
        stats.duplicates_rejected,
        stats.auth_failures,
        stats.sessions_started,
        stats.sessions_completed,
        stats.sessions_failed,
        stats.sessions_shed,
        stats.deadlines_exceeded,
        stats.max_in_flight,
        stats.max_queue_depth,
        stats.msg4_flushes,
        stats.msg4_batched,
        outage.crashes,
        outage.recoveries,
        outage.rehandshakes,
        outage.deferred_rekeys,
        outage.node_down_failures,
        outage.evacuations,
        outage.evacuation_failures,
        control_plane.failovers,
        control_plane.shards_adopted,
        control_plane.shards_reclaimed,
        control_plane.as_reroutes,
        control_plane.failover_sessions,
        faults.dropped,
        faults.duplicated,
        faults.corrupted,
        faults.delayed,
        blackholed,
        probe,
    ] {
        digest.word(word);
    }

    let mut latencies_us = std::mem::take(&mut rec.latencies_us);
    latencies_us.sort_unstable();
    PassResult {
        config,
        setup_s,
        slices,
        timed_ns,
        latencies_us,
        stats,
        outage,
        control_plane,
        faults,
        blackholed,
        evidence: (
            evidence_after.0 - evidence_before.0,
            evidence_after.1 - evidence_before.1,
        ),
        avk: (avk_after.0 - avk_before.0, avk_after.1 - avk_before.1),
        api_calls: rec.api_calls,
        api_errs: rec.api_errs,
        violations: rec.violations,
        violation_count: rec.violation_count,
        sim_digest: digest.value(),
        allocs: allocs_after.0 - allocs_before.0,
        alloc_bytes: allocs_after.1 - allocs_before.1,
        virt_span_us,
        servers,
        verdicts: scenario.verdict_table(),
        tracer: rec.tracer,
    }
}
