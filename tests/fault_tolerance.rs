//! Integration tests of the fault-tolerance layer: benign message loss,
//! duplication and corruption injected under the Figure-3 protocol, with
//! per-hop retransmission recovering what the network loses.

use cloudmonatt::core::{
    CloudBuilder, CloudError, Flavor, HealthStatus, Image, ResponseAction, RetryPolicy,
    SecurityProperty, VmRequest,
};
use cloudmonatt::net::sim::FaultModel;

fn lossy_cloud(seed: u64) -> (cloudmonatt::core::Cloud, cloudmonatt::core::Vid) {
    let mut cloud = CloudBuilder::new().servers(3).seed(seed).build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .expect("launch on a clean network");
    (cloud, vid)
}

#[test]
fn ten_percent_loss_converges_with_retries() {
    let (mut cloud, vid) = lossy_cloud(500);
    cloud
        .network_mut()
        .set_fault_model(FaultModel::new(1234).drop_prob(0.1));
    cloud.reset_protocol_stats();
    for round in 0..25 {
        let report = cloud
            .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert!(report.healthy());
    }
    let stats = cloud.protocol_stats();
    assert!(stats.retries > 0, "10% loss must trigger retransmits");
    assert_eq!(stats.drops_seen, stats.timeouts);
    let faults = cloud.network_mut().fault_stats().unwrap();
    assert!(faults.dropped > 0);
}

#[test]
fn seeded_loss_run_is_deterministic() {
    let run = |fault_seed: u64| {
        let (mut cloud, vid) = lossy_cloud(501);
        cloud.network_mut().set_fault_model(
            FaultModel::new(fault_seed)
                .drop_prob(0.1)
                .duplicate_prob(0.05)
                .corrupt_prob(0.02),
        );
        cloud.reset_protocol_stats();
        let mut latencies = Vec::new();
        for _ in 0..10 {
            if let Ok(r) = cloud.runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity) {
                latencies.push(r.elapsed_us);
            }
        }
        (cloud.protocol_stats(), latencies)
    };
    // Same seed, same fault pattern, same stats and latencies — the
    // whole lossy simulation replays bit-identically.
    assert_eq!(run(77), run(77));
    // A different seed scrambles the fault pattern.
    assert_ne!(run(77), run(78));
}

#[test]
fn mixed_faults_with_duplicates_do_not_desync_channels() {
    let (mut cloud, vid) = lossy_cloud(502);
    cloud.network_mut().set_fault_model(
        FaultModel::new(9)
            .duplicate_prob(0.5)
            .delay(0.3, 40_000)
            .drop_prob(0.05),
    );
    cloud.reset_protocol_stats();
    for _ in 0..15 {
        let report = cloud
            .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
            .expect("duplicates and delays are benign");
        assert!(report.healthy());
    }
    let stats = cloud.protocol_stats();
    assert!(stats.duplicates_rejected > 0, "{stats:?}");
    assert_eq!(stats.auth_failures, 0, "{stats:?}");
}

#[test]
fn corruption_is_rejected_then_retried() {
    let (mut cloud, vid) = lossy_cloud(503);
    cloud
        .network_mut()
        .set_fault_model(FaultModel::new(31).corrupt_prob(0.1));
    cloud.reset_protocol_stats();
    for _ in 0..20 {
        let report = cloud
            .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
            .expect("retries absorb sporadic corruption");
        assert!(report.healthy());
    }
    let stats = cloud.protocol_stats();
    assert!(stats.auth_failures > 0, "{stats:?}");
    assert_eq!(stats.retries, stats.timeouts);
}

#[test]
fn total_blackout_escalates_and_auto_migrates() {
    let mut cloud = CloudBuilder::new()
        .servers(3)
        .seed(504)
        .escalation_threshold(2)
        .auto_response(true)
        .build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    let home = cloud.server_of(vid).unwrap();
    let sub = cloud
        .runtime_attest_periodic(vid, SecurityProperty::RuntimeIntegrity, 4_000_000)
        .unwrap();
    // Silence the network completely.
    cloud
        .network_mut()
        .set_fault_model(FaultModel::new(1).drop_prob(1.0));
    cloud.run(13_000_000);
    let health = cloud.subscription_health(sub).unwrap();
    assert!(health.missed >= 2, "{health:?}");
    assert!(health.escalations >= 1, "{health:?}");
    // The Response Module's unreachable policy migrated the VM — silence
    // is not evidence of compromise, so the VM is moved, not killed.
    assert_ne!(cloud.server_of(vid), Some(home));
    let reports = cloud.stop_attest_periodic(sub).unwrap();
    assert!(reports
        .iter()
        .any(|r| matches!(r.status, HealthStatus::Unreachable { missed } if missed >= 2)));
}

#[test]
fn retry_policy_budget_is_respected() {
    let (mut cloud, vid) = lossy_cloud(505);
    cloud
        .network_mut()
        .set_fault_model(FaultModel::new(2).drop_prob(1.0));
    cloud.reset_protocol_stats();
    let err = cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap_err();
    let CloudError::Unreachable { attempts, .. } = err else {
        panic!("expected Unreachable, got {err:?}");
    };
    let policy = cloud.retry_policy();
    assert_eq!(attempts, policy.max_attempts);
    let stats = cloud.protocol_stats();
    // The first hop burned the whole budget, then the protocol aborted.
    assert_eq!(stats.messages_sent, u64::from(policy.max_attempts));
    assert_eq!(stats.retries, u64::from(policy.max_attempts - 1));
}

#[test]
fn fail_fast_policy_restores_old_behaviour() {
    let mut cloud = CloudBuilder::new()
        .servers(3)
        .seed(506)
        .retry(RetryPolicy::disabled())
        .build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    cloud
        .network_mut()
        .set_fault_model(FaultModel::new(3).drop_prob(1.0));
    let err = cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap_err();
    assert!(matches!(err, CloudError::Unreachable { attempts: 1, .. }));
    assert_eq!(cloud.protocol_stats().retries, 0);
}

#[test]
fn clean_network_is_identical_across_retry_policies() {
    // With no loss the retransmit layer must add nothing: the default
    // and the fail-fast policy give the same reports and zero retries.
    let run = |retry: RetryPolicy| {
        let mut cloud = CloudBuilder::new()
            .servers(3)
            .seed(508)
            .retry(retry)
            .build();
        let vid = cloud
            .request_vm(
                VmRequest::new(Flavor::Small, Image::Cirros)
                    .require(SecurityProperty::RuntimeIntegrity),
            )
            .unwrap();
        let reports: Vec<_> = (0..5)
            .map(|_| {
                cloud
                    .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
                    .unwrap()
            })
            .collect();
        (reports, cloud.protocol_stats())
    };
    let (retrying, stats) = run(RetryPolicy::default());
    assert_eq!((retrying, stats), run(RetryPolicy::disabled()));
    assert_eq!(stats.retries, 0);
}

#[test]
fn unreachable_response_policy_is_migration() {
    use cloudmonatt::core::CloudController;
    use cloudmonatt::crypto::drbg::Drbg;
    let mut rng = Drbg::from_seed(507);
    let controller = CloudController::new(&mut rng);
    // Silence is not evidence of compromise: unknown-health VMs are
    // moved to a monitorable server, never terminated outright.
    assert_eq!(
        controller.choose_unreachable_response(),
        ResponseAction::Migration
    );
}
