//! 64 concurrent periodic attestation subscriptions over a 10% lossy
//! network.
//!
//! All subscriptions share one fixed period, so a whole round of 64
//! Figure-3 sessions comes due at the same virtual instant. The
//! discrete-event engine interleaves every session on one queue: a
//! subscription stuck retransmitting across a lossy hop retries on its
//! own timer while the other 63 keep flowing, so the round completes in
//! roughly one session's latency instead of sixty-four (no head-of-line
//! blocking). The test also reconciles the fault-injection counters
//! against the protocol counters end to end.

use cloudmonatt::core::{CloudBuilder, Flavor, Image, SecurityProperty, VmRequest};
use cloudmonatt::net::sim::FaultModel;

mod support;
use support::audited;

const SUBS: usize = 64;
const PERIOD_US: u64 = 1_000_000;

#[test]
fn sixty_four_lossy_subscriptions_interleave_without_blocking() {
    let mut cloud = audited(
        CloudBuilder::new()
            .servers(4)
            .pcpus_per_server(16)
            .seed(0xC0FFEE),
    );

    let mut vids = Vec::with_capacity(SUBS);
    for _ in 0..SUBS {
        let vid = cloud
            .request_vm(
                VmRequest::new(Flavor::Small, Image::Cirros)
                    .require(SecurityProperty::RuntimeIntegrity),
            )
            .expect("launch on a clean network");
        vids.push(vid);
    }

    // One sample on the still-clean network: the per-session latency a
    // serialized controller would pay 64 times per round.
    let clean = cloud
        .runtime_attest_current(vids[0], SecurityProperty::RuntimeIntegrity)
        .expect("clean-path attestation");
    assert!(clean.healthy());
    let single_us = clean.elapsed_us;
    assert!(single_us > 0);

    let mut subs = Vec::with_capacity(SUBS);
    for &vid in &vids {
        let id = cloud
            .runtime_attest_periodic(vid, SecurityProperty::RuntimeIntegrity, PERIOD_US)
            .expect("subscribe");
        subs.push(id);
    }

    cloud
        .network_mut()
        .set_fault_model(FaultModel::new(0xBAD_CAB1E).drop_prob(0.10));
    cloud.reset_protocol_stats();
    let t0 = cloud.wall_clock_us();

    // Three rounds fit: firings at +1s, then period + session latency
    // per subsequent round.
    cloud.run(4 * PERIOD_US);

    let stats = cloud.protocol_stats();
    let faults = cloud
        .network_mut()
        .fault_stats()
        .expect("fault model installed");

    // --- No head-of-line blocking ------------------------------------
    // Every subscription's first session starts before any completes
    // (the first message arrival is scheduled far after all 64 firings
    // pop), so the in-flight high-water mark is the full fleet.
    assert_eq!(stats.max_in_flight, SUBS as u64);
    assert_eq!(cloud.sessions_in_flight(), 0, "run() drains every session");
    assert!(stats.max_queue_depth >= SUBS as u64);

    // The whole first round lands within a couple of single-session
    // latencies of its due instant, not 64 of them.
    let due = t0 + PERIOD_US;
    let mut slowest_first_report = 0u64;
    for &id in &subs {
        let health = cloud.subscription_health(id).expect("live subscription");
        assert!(
            health.delivered >= 2,
            "subscription {id} starved: {health:?}"
        );
        assert!(health.missed <= 1, "subscription {id} flaky: {health:?}");
        assert_eq!(health.failed_responses, 0);
        let reports = cloud.stop_attest_periodic(id).expect("collect reports");
        let first = reports.first().expect("at least one report");
        assert!(first.healthy());
        assert!(first.issued_at_us >= due);
        slowest_first_report = slowest_first_report.max(first.issued_at_us);
    }
    let round_us = slowest_first_report - due;
    let serialized_us = SUBS as u64 * single_us;
    assert!(
        round_us < 3 * single_us,
        "round took {round_us}us vs single-session {single_us}us"
    );
    assert!(
        8 * round_us < serialized_us,
        "round {round_us}us is not sub-linear vs serialized {serialized_us}us"
    );

    // --- Fault and protocol counters reconcile -----------------------
    // Loss-only injection: every network drop is observed as exactly one
    // protocol-level drop, every drop is charged one retransmit timeout,
    // and nothing fails authentication (records are opened in send
    // order, so the replay window never rejects a clean record).
    assert!(
        stats.drops_seen > 0,
        "10% loss produced no drops: {stats:?}"
    );
    assert_eq!(stats.drops_seen, faults.dropped);
    assert_eq!(stats.timeouts, stats.drops_seen);
    assert_eq!(stats.auth_failures, 0);
    assert_eq!(stats.duplicates_rejected, 0);
    assert!(stats.retries > 0);
    assert!(stats.retries <= stats.drops_seen);
    if stats.sessions_failed == 0 {
        // Every dropped attempt was followed by a retransmission.
        assert_eq!(stats.retries, stats.drops_seen);
    }
    assert_eq!(cloud.audit(), Ok(()));
    assert!(stats.sessions_completed >= 2 * SUBS as u64);
}
