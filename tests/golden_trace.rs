//! Golden-trace determinism test.
//!
//! A seeded scenario — two launches, a direct attestation, two periodic
//! subscriptions driven through `Cloud::run` — is rendered to a textual
//! trace: every report field, the final wall clock, the protocol
//! counters and an RNG-position fingerprint. The trace is compared
//! byte-for-byte against a committed fixture that was captured from the
//! pre-event-loop implementation, so the discrete-event engine is pinned
//! to the exact clean-path behaviour of the blocking protocol it
//! replaced: same reports, same latencies, same wall clock, same number
//! of DRBG draws.
//!
//! Regenerate (only when a behaviour change is intended and understood):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_trace
//! ```

use cloudmonatt::core::{
    AttestationReport, CloudBuilder, Flavor, Frequency, Image, SecurityProperty, VmRequest,
    WorkloadSpec,
};

const FIXTURE: &str = include_str!("golden/trace_v1.txt");
const FIXTURE_PATH: &str = "tests/golden/trace_v1.txt";

fn push_report(lines: &mut Vec<String>, tag: &str, index: usize, r: &AttestationReport) {
    lines.push(format!(
        "{tag}[{index}]: vid={} property={} status={:?} elapsed_us={} issued_at_us={}",
        r.vid.0,
        r.property.label(),
        r.status,
        r.elapsed_us,
        r.issued_at_us
    ));
}

fn scenario_trace_with(tweak: impl FnOnce(CloudBuilder) -> CloudBuilder) -> String {
    let mut lines = Vec::new();
    let mut c = tweak(CloudBuilder::new().servers(3).seed(2025)).build();

    // Launch 1: runtime-integrity VM with a busy guest.
    let vm1 = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity)
                .workload(WorkloadSpec::Busy),
        )
        .expect("launch vm1");
    let t1 = c.last_launch_timing().expect("timing vm1");
    lines.push(format!(
        "launch1: vid={} attestation_us={} total_us={}",
        vm1.0,
        t1.attestation_us,
        t1.total_us()
    ));

    // Launch 2: a windowed property (CPU availability, 1 s usage window).
    let avail = SecurityProperty::CpuAvailability { min_share_pct: 0 };
    let vm2 = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Ubuntu)
                .require(SecurityProperty::StartupIntegrity)
                .require(avail)
                .workload(WorkloadSpec::Busy),
        )
        .expect("launch vm2");
    let t2 = c.last_launch_timing().expect("timing vm2");
    lines.push(format!(
        "launch2: vid={} attestation_us={} total_us={}",
        vm2.0,
        t2.attestation_us,
        t2.total_us()
    ));

    // One direct Table-1 attestation (quick spec, no window).
    let direct = c
        .runtime_attest_current(vm1, SecurityProperty::RuntimeIntegrity)
        .expect("direct attestation");
    push_report(&mut lines, "direct", 0, &direct);

    // Two periodic subscriptions with staggered periods (their sessions
    // never overlap, so the clean-path trace is implementation-agnostic).
    let sub1 = c
        .runtime_attest_periodic(vm1, SecurityProperty::RuntimeIntegrity, 11_000_000)
        .expect("subscribe vm1");
    let sub2 = c
        .runtime_attest_with_frequency(vm2, avail, Frequency::Fixed(13_000_000))
        .expect("subscribe vm2");
    c.run(40_000_000);

    for (tag, sub) in [("sub1", sub1), ("sub2", sub2)] {
        let health = c.subscription_health(sub).expect("health");
        lines.push(format!(
            "{tag}: delivered={} missed={} consecutive_failures={} escalations={}",
            health.delivered, health.missed, health.consecutive_failures, health.escalations
        ));
        let reports = c.stop_attest_periodic(sub).expect("stop");
        for (i, r) in reports.iter().enumerate() {
            push_report(&mut lines, tag, i, r);
        }
    }

    // Named counter fields only (not Debug of the whole struct), so the
    // fixture survives additive ProtocolStats extensions.
    let stats = c.protocol_stats();
    lines.push(format!(
        "stats: messages_sent={} retries={} drops_seen={} timeouts={} \
         duplicates_rejected={} auth_failures={}",
        stats.messages_sent,
        stats.retries,
        stats.drops_seen,
        stats.timeouts,
        stats.duplicates_rejected,
        stats.auth_failures
    ));
    lines.push(format!("wall_clock_us={}", c.wall_clock_us()));
    // One extra draw fingerprints the DRBG position: it only matches if
    // every preceding draw happened, in the same order.
    lines.push(format!("rng_probe={:#018x}", c.drbg_probe()));
    lines.join("\n") + "\n"
}

fn scenario_trace() -> String {
    scenario_trace_with(|b| b)
}

#[test]
fn seeded_scenario_matches_committed_trace() {
    let trace = scenario_trace();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(FIXTURE_PATH, &trace).expect("write fixture");
        return;
    }
    assert!(
        trace == FIXTURE,
        "golden trace diverged from {FIXTURE_PATH}.\n--- expected ---\n{FIXTURE}\n--- got ---\n{trace}"
    );
}

#[test]
fn trace_is_stable_across_runs_in_process() {
    // The fixture pins cross-version determinism; this pins determinism
    // across two fresh clouds in one process (no hidden global state).
    assert_eq!(scenario_trace(), scenario_trace());
}

#[test]
fn degenerate_msg4_batching_trace_is_byte_identical() {
    // A batch window of zero disables coalescing entirely, and a batch
    // size of one flushes each msg 4 the instant it is parked with a
    // zero wait — both degenerate configurations must reproduce the
    // inline path byte-for-byte: same latency charges, same DRBG draw
    // order, same reports.
    assert_eq!(
        scenario_trace_with(|b| b.as_batch(0, 64)),
        FIXTURE,
        "window=0 trace diverged"
    );
    assert_eq!(
        scenario_trace_with(|b| b.as_batch(500, 1)),
        FIXTURE,
        "max=1 trace diverged"
    );
}

#[test]
fn dormant_control_plane_trace_is_byte_identical() {
    // Explicitly configuring the replicated control plane at its
    // dormant size (one controller instance, one AS replica) must be
    // indistinguishable from never configuring it: no extra key
    // material is drawn, no route tag rides the wire (so the
    // payload-length latency model sees identical bytes), and the
    // control-plane retry ladder defaults to the data-plane one.
    assert_eq!(
        scenario_trace_with(|b| b.control_plane(1, 1)),
        FIXTURE,
        "K=1/N=1 control plane diverged"
    );
}
