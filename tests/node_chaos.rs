//! Integration tests of node-level chaos: crash/recovery fault
//! injection, session deadlines, and overload shedding — the
//! entity-level failure layer on top of the message-level faults in
//! `fault_tolerance.rs`.

use cloudmonatt::core::{
    CloudBuilder, CloudError, Flavor, Image, NodeId, OutageModel, SecurityProperty, VmRequest,
};
use cloudmonatt::net::sim::FaultModel;

fn chaos_cloud(seed: u64) -> (cloudmonatt::core::Cloud, cloudmonatt::core::Vid) {
    let mut cloud = CloudBuilder::new().servers(3).seed(seed).build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .expect("launch on a healthy fleet");
    (cloud, vid)
}

#[test]
fn server_crash_evacuates_vms_to_live_servers() {
    let (mut cloud, vid) = chaos_cloud(900);
    let home = cloud.server_of(vid).unwrap();
    cloud.crash_node(NodeId::Server(home));
    // The Response Module re-ran Policy Validation and moved the VM.
    let new_home = cloud.server_of(vid).unwrap();
    assert_ne!(new_home, home);
    assert!(!cloud.node_is_down(NodeId::Server(new_home)));
    assert_eq!(cloud.outage_stats().evacuations, 1);
    assert_eq!(cloud.outage_stats().crashes, 1);
    // The evacuated VM is attestable at its new home immediately.
    let report = cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .expect("evacuated VM attests from its new server");
    assert!(report.healthy());
}

#[test]
fn crashed_attestation_server_fails_sessions_fast() {
    let (mut cloud, vid) = chaos_cloud(901);
    cloud.reset_protocol_stats();
    cloud.crash_node(NodeId::AttestationServer(0));
    let err = cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap_err();
    assert!(
        matches!(
            err,
            CloudError::NodeDown {
                node: NodeId::AttestationServer(0)
            }
        ),
        "expected NodeDown, got {err:?}"
    );
    let stats = cloud.protocol_stats();
    // Fail-fast: no retransmission ladder was burned against the dead
    // node — the session aborted the moment its hop needed it.
    assert_eq!(stats.retries, 0, "{stats:?}");
    assert_eq!(stats.sessions_failed, 1, "{stats:?}");
    assert_eq!(cloud.outage_stats().node_down_failures, 1);
}

#[test]
fn recovery_rehandshakes_and_sessions_resume() {
    let (mut cloud, vid) = chaos_cloud(902);
    cloud.crash_node(NodeId::AttestationServer(0));
    assert!(cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .is_err());
    cloud.recover_node(NodeId::AttestationServer(0));
    assert!(!cloud.node_is_down(NodeId::AttestationServer(0)));
    // Recovery marks every channel that terminates at the node stale;
    // the re-handshakes themselves are deferred to each link's first
    // use, so a mass recovery never triggers a synchronized burst.
    let stats = cloud.outage_stats();
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.rehandshakes, 0, "{stats:?}");
    assert!(stats.deferred_rekeys >= 2, "{stats:?}"); // ctrl<->AS + AS<->servers
    cloud.reset_protocol_stats();
    let report = cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .expect("attestation works again after recovery");
    assert!(report.healthy());
    // The links the attestation crossed were re-keyed lazily, exactly
    // at first use — stale pre-crash session keys never resumed.
    let stats = cloud.outage_stats();
    assert!(stats.rehandshakes >= 2, "{stats:?}"); // ctrl<->AS + AS<->server hop
                                                   // Fresh keys authenticate cleanly end to end: a stale key anywhere
                                                   // would surface as an auth failure and a retry storm.
    assert_eq!(cloud.protocol_stats().auth_failures, 0);
}

#[test]
fn crash_and_recovery_are_idempotent() {
    let (mut cloud, _vid) = chaos_cloud(903);
    cloud.crash_node(NodeId::Server(cloudmonatt::core::ServerId(0)));
    cloud.crash_node(NodeId::Server(cloudmonatt::core::ServerId(0)));
    assert_eq!(cloud.outage_stats().crashes, 1);
    cloud.recover_node(NodeId::Server(cloudmonatt::core::ServerId(0)));
    cloud.recover_node(NodeId::Server(cloudmonatt::core::ServerId(0)));
    assert_eq!(cloud.outage_stats().recoveries, 1);
    assert!(cloud.down_nodes().is_empty());
}

#[test]
fn scripted_outage_during_run_heals_and_reconciles() {
    let mut cloud = CloudBuilder::new().servers(3).seed(904).build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    let home = cloud.server_of(vid).unwrap();
    let t0 = cloud.wall_clock_us();
    cloud.set_outage_model(
        OutageModel::new(904)
            .crash_at(t0 + 2_000_000, NodeId::Server(home))
            .recover_at(t0 + 6_000_000, NodeId::Server(home)),
    );
    let sub = cloud
        .runtime_attest_periodic(vid, SecurityProperty::RuntimeIntegrity, 1_000_000)
        .unwrap();
    cloud.run(10_000_000);
    let stats = cloud.outage_stats();
    assert_eq!(stats.crashes, 1, "{stats:?}");
    assert_eq!(stats.recoveries, 1, "{stats:?}");
    assert_eq!(stats.evacuations, 1, "{stats:?}");
    // Liveness: nothing wedged, the VM ended on a live server, and the
    // subscription kept delivering after the evacuation.
    assert_eq!(cloud.sessions_in_flight(), 0);
    assert!(cloud.down_nodes().is_empty());
    let final_home = cloud.server_of(vid).unwrap();
    assert_ne!(final_home, home);
    assert!(!cloud.node_is_down(NodeId::Server(final_home)));
    let health = cloud.subscription_health(sub).unwrap();
    assert!(health.delivered >= 5, "{health:?}");
}

#[test]
fn stochastic_churn_preserves_liveness_invariants() {
    let mut cloud = CloudBuilder::new().servers(4).seed(905).build();
    let mut vids = Vec::new();
    for _ in 0..3 {
        vids.push(
            cloud
                .request_vm(
                    VmRequest::new(Flavor::Small, Image::Cirros)
                        .require(SecurityProperty::RuntimeIntegrity),
                )
                .unwrap(),
        );
    }
    for &vid in &vids {
        cloud
            .runtime_attest_periodic(vid, SecurityProperty::RuntimeIntegrity, 500_000)
            .unwrap();
    }
    // Servers churn with a 4 s MTBF and 1 s MTTR while attestation
    // sessions run every half second.
    cloud.set_outage_model(OutageModel::new(905).mtbf(4_000_000, 1_000_000));
    cloud.run(30_000_000);
    let stats = cloud.protocol_stats();
    let outages = cloud.outage_stats();
    assert!(outages.crashes > 0, "{outages:?}");
    // Every started session terminated and the counters reconcile
    // exactly.
    assert_eq!(cloud.sessions_in_flight(), 0);
    assert_eq!(
        stats.sessions_started,
        stats.sessions_completed + stats.sessions_failed,
        "{stats:?}"
    );
    // Every crash is matched by a recovery or the node is still down.
    assert_eq!(
        outages.crashes,
        outages.recoveries + cloud.down_nodes().len() as u64,
        "{outages:?}"
    );
    // Every VM that survived ended on a live server.
    for &vid in &vids {
        if let Some(server) = cloud.server_of(vid) {
            if cloud.vm_state(vid) != Some(cloudmonatt::core::VmLifecycle::Terminated) {
                assert!(
                    !cloud.node_is_down(NodeId::Server(server)),
                    "vm {vid:?} left stranded on crashed {server:?}"
                );
            }
        }
    }
    // Determinism: the same seeds replay the same chaos.
    let replay = {
        let mut cloud = CloudBuilder::new().servers(4).seed(905).build();
        let mut vids = Vec::new();
        for _ in 0..3 {
            vids.push(
                cloud
                    .request_vm(
                        VmRequest::new(Flavor::Small, Image::Cirros)
                            .require(SecurityProperty::RuntimeIntegrity),
                    )
                    .unwrap(),
            );
        }
        for &vid in &vids {
            cloud
                .runtime_attest_periodic(vid, SecurityProperty::RuntimeIntegrity, 500_000)
                .unwrap();
        }
        cloud.set_outage_model(OutageModel::new(905).mtbf(4_000_000, 1_000_000));
        cloud.run(30_000_000);
        (cloud.protocol_stats(), cloud.outage_stats())
    };
    assert_eq!((stats, outages), replay);
}

#[test]
fn session_deadline_aborts_as_deadline_exceeded() {
    let mut cloud = CloudBuilder::new().servers(3).seed(906).build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    // Tighten the budget only after the launch attestation: 5 ms is
    // tighter than even one clean protocol round.
    cloud.set_session_deadline(Some(5_000));
    cloud
        .network_mut()
        .set_fault_model(FaultModel::new(7).drop_prob(1.0));
    cloud.reset_protocol_stats();
    let err = cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap_err();
    let CloudError::DeadlineExceeded { budget_us, .. } = err else {
        panic!("expected DeadlineExceeded, got {err:?}");
    };
    assert_eq!(budget_us, 5_000);
    let stats = cloud.protocol_stats();
    assert_eq!(stats.deadlines_exceeded, 1, "{stats:?}");
    // The deadline cut the ladder short: fewer sends than the full
    // retry budget would have burned.
    let policy = cloud.retry_policy();
    assert!(
        stats.messages_sent < u64::from(policy.max_attempts),
        "{stats:?}"
    );
}

#[test]
fn generous_deadline_never_fires_on_a_clean_network() {
    let mut cloud = CloudBuilder::new()
        .servers(3)
        .seed(907)
        .session_deadline(60_000_000)
        .build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    for _ in 0..5 {
        let report = cloud
            .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
            .expect("a generous deadline is invisible on the clean path");
        assert!(report.healthy());
    }
    assert_eq!(cloud.protocol_stats().deadlines_exceeded, 0);
}

#[test]
fn admission_gate_sheds_under_burst_load_with_hysteresis() {
    let mut cloud = CloudBuilder::new()
        .servers(3)
        .seed(908)
        .admission_control(1, 0)
        .escalation_threshold(2)
        .build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    // Three subscriptions all fire at the same instant: with a
    // high-water mark of one session, the burst must shed.
    let mut subs = Vec::new();
    for _ in 0..3 {
        subs.push(
            cloud
                .runtime_attest_periodic(vid, SecurityProperty::RuntimeIntegrity, 1_000_000)
                .unwrap(),
        );
    }
    cloud.run(5_500_000);
    let stats = cloud.protocol_stats();
    assert!(stats.sessions_shed > 0, "{stats:?}");
    // Shed sessions never entered the protocol: started/completed/
    // failed reconcile without them.
    assert_eq!(
        stats.sessions_started,
        stats.sessions_completed + stats.sessions_failed,
        "{stats:?}"
    );
    // Hysteresis: once the gate drained below the low-water mark it
    // re-admitted, so samples kept getting through.
    let mut delivered = 0;
    let mut escalations = 0;
    for &sub in &subs {
        let health = cloud.subscription_health(sub).unwrap();
        delivered += health.delivered;
        escalations += health.escalations;
    }
    assert!(delivered > 0);
    // Shedding is the attestation server's own load decision, not
    // evidence the monitored node is unreachable: no escalation fires
    // even with a threshold of two.
    assert_eq!(escalations, 0);
    assert_eq!(cloud.sessions_in_flight(), 0);
}

#[test]
fn delayed_copy_bounces_as_duplicate_and_is_never_double_processed() {
    let (mut cloud, vid) = chaos_cloud(909);
    // Every record is delayed well past the 2 ms loss-detection
    // timeout: the sender retransmits the byte-identical record, the
    // first copy to arrive opens, and every straggler bounces off the
    // receive window as a structural duplicate.
    cloud
        .network_mut()
        .set_fault_model(FaultModel::new(11).delay(1.0, 40_000));
    cloud.reset_protocol_stats();
    for _ in 0..5 {
        let report = cloud
            .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
            .expect("delays are benign however extreme");
        assert!(report.healthy());
    }
    let stats = cloud.protocol_stats();
    assert!(stats.timeouts > 0, "{stats:?}");
    assert!(stats.duplicates_rejected > 0, "{stats:?}");
    // At-most-once processing: every session produced exactly one
    // verdict; late copies were counted, never re-processed.
    assert_eq!(stats.sessions_started, 5, "{stats:?}");
    assert_eq!(stats.sessions_completed, 5, "{stats:?}");
    assert_eq!(stats.auth_failures, 0, "{stats:?}");
    // Nothing was dropped, so every timeout came from a late delivery.
    assert_eq!(stats.drops_seen, 0, "{stats:?}");
}

#[test]
fn subscription_escalates_exactly_at_the_kth_consecutive_failure() {
    let mut cloud = CloudBuilder::new()
        .servers(3)
        .seed(910)
        .escalation_threshold(3)
        .build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    let sub = cloud
        .runtime_attest_periodic(vid, SecurityProperty::RuntimeIntegrity, 1_000_000)
        .unwrap();
    cloud
        .network_mut()
        .set_fault_model(FaultModel::new(13).drop_prob(1.0));
    // Two misses: one short of the threshold, no escalation yet.
    cloud.run(2_500_000);
    let health = cloud.subscription_health(sub).unwrap();
    assert_eq!(health.missed, 2, "{health:?}");
    assert_eq!(health.consecutive_failures, 2, "{health:?}");
    assert_eq!(health.escalations, 0, "{health:?}");
    // The third consecutive miss trips it, and the streak resets.
    cloud.run(1_000_000);
    let health = cloud.subscription_health(sub).unwrap();
    assert_eq!(health.missed, 3, "{health:?}");
    assert_eq!(health.consecutive_failures, 0, "{health:?}");
    assert_eq!(health.escalations, 1, "{health:?}");
    // Three more misses trip it a second time — the counter is a
    // streak, not a lifetime total.
    cloud.run(3_000_000);
    let health = cloud.subscription_health(sub).unwrap();
    assert_eq!(health.missed, 6, "{health:?}");
    assert_eq!(health.escalations, 2, "{health:?}");
}

#[test]
fn clean_path_is_untouched_without_an_outage_model() {
    // The chaos layer is strictly opt-in: a cloud with no outage
    // model, no deadline and no admission gate draws not a single
    // extra random number — same DRBG probe, same stats, same clock.
    let run = |chaos_knobs: bool| {
        let mut builder = CloudBuilder::new().servers(3).seed(911);
        if chaos_knobs {
            builder = builder
                .session_deadline(60_000_000)
                .admission_control(1024, 512);
        }
        let mut cloud = builder.build();
        let vid = cloud
            .request_vm(
                VmRequest::new(Flavor::Small, Image::Cirros)
                    .require(SecurityProperty::RuntimeIntegrity),
            )
            .unwrap();
        for _ in 0..3 {
            cloud
                .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
                .unwrap();
        }
        (
            cloud.wall_clock_us(),
            cloud.protocol_stats(),
            cloud.drbg_probe(),
        )
    };
    let baseline = run(false);
    // Generous knobs that never fire do not perturb time, stats or the
    // RNG stream.
    assert_eq!(baseline, run(true));
}
