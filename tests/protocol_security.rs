//! Integration tests of the protocol's security against live network
//! adversaries (Section 3.3's Dolev-Yao attacker, here actually running
//! against the real implementation rather than the symbolic model).

use cloudmonatt::core::controlplane::CUSTOMER_ENDPOINT;
use cloudmonatt::core::{
    Check, CloudBuilder, CloudError, Flavor, Image, NodeId, SecurityProperty, VmRequest,
};
use cloudmonatt::net::sim::{Eavesdropper, Intercept, NetworkAttacker, Replayer, Tamperer};

fn cloud_with_vm() -> (cloudmonatt::core::Cloud, cloudmonatt::core::Vid) {
    let mut cloud = CloudBuilder::new().servers(2).seed(300).build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .expect("launch");
    (cloud, vid)
}

#[test]
fn tampering_any_hop_is_detected() {
    let (cloud, vid) = cloud_with_vm();
    let host = cloud.server_of(vid).map(NodeId::Server);
    // Each receiver, whose channel check rejects the first record
    // tampered toward it (`None` is the customer).
    let controller = Some(NodeId::Controller(0));
    for end in [controller, Some(NodeId::AttestationServer(0)), host, None] {
        let (mut cloud, vid) = cloud_with_vm();
        let target = end.map_or(CUSTOMER_ENDPOINT.to_owned(), |node| node.to_string());
        cloud
            .network_mut()
            .set_attacker(Box::new(Tamperer::new(&target)));
        let result = cloud.runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity);
        assert!(
            matches!(
                result,
                Err(CloudError::ProtocolFailure {
                    check: Check::Channel { to, .. }
                }) if to == end
            ),
            "tampering toward {target} went undetected there: {result:?}"
        );
    }
}

#[test]
fn replay_is_detected() {
    let (mut cloud, vid) = cloud_with_vm();
    // Let one clean attestation through so the replayer has material.
    cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    cloud
        .network_mut()
        .set_attacker(Box::new(Replayer::new("attserver", 0)));
    let result = cloud.runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity);
    assert!(
        matches!(result, Err(CloudError::ProtocolFailure { .. })),
        "replayed messages should be rejected: {result:?}"
    );
}

#[test]
fn single_drop_is_absorbed_by_retransmission() {
    struct DropOnce {
        dropped: bool,
    }
    impl NetworkAttacker for DropOnce {
        fn intercept(&mut self, _: &str, _: &str, _: &[u8]) -> Intercept {
            if self.dropped {
                Intercept::Pass
            } else {
                self.dropped = true;
                Intercept::Drop
            }
        }
    }
    let (mut cloud, vid) = cloud_with_vm();
    cloud
        .network_mut()
        .set_attacker(Box::new(DropOnce { dropped: false }));
    // One lost record costs a retry, not the attestation.
    let report = cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    assert!(report.healthy());
    let stats = cloud.protocol_stats();
    assert_eq!(stats.drops_seen, 1);
    assert_eq!(stats.retries, 1);
}

#[test]
fn persistent_loss_reports_unreachable_and_recovery_works() {
    struct DropAll;
    impl NetworkAttacker for DropAll {
        fn intercept(&mut self, _: &str, _: &str, _: &[u8]) -> Intercept {
            Intercept::Drop
        }
    }
    let (mut cloud, vid) = cloud_with_vm();
    cloud.network_mut().set_attacker(Box::new(DropAll));
    let result = cloud.runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity);
    let Err(CloudError::Unreachable { attempts, .. }) = result else {
        panic!("expected Unreachable, got {result:?}");
    };
    assert_eq!(attempts, cloud.retry_policy().max_attempts);
    // The channel tolerates the gap: once the network heals, the next
    // attestation succeeds.
    cloud.network_mut().clear_attacker();
    let report = cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    assert!(report.healthy());
}

#[test]
fn eavesdropper_sees_no_plaintext() {
    let (mut cloud, vid) = cloud_with_vm();
    cloud.set_network_logging(true);
    cloud
        .network_mut()
        .set_attacker(Box::new(Eavesdropper::default()));
    cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    // Inspect everything the attacker captured: no protocol keyword may
    // appear in the ciphertext.
    let log = cloud.network_mut().log().to_vec();
    assert!(log.len() >= 6, "expected all six protocol messages");
    for needle in [
        b"init".as_slice(),
        b"sshd".as_slice(),
        b"runtime".as_slice(),
    ] {
        for record in &log {
            let found = record.sent.windows(needle.len()).any(|w| w == needle);
            assert!(
                !found,
                "plaintext {:?} leaked in a network record",
                String::from_utf8_lossy(needle)
            );
        }
    }
}

#[test]
fn symbolic_model_agrees_with_implementation() {
    // The symbolic verifier proves the full protocol secure; the live
    // adversaries above fail against the implementation. Cross-check the
    // verifier's weakened variants find attacks (i.e. the verifier is
    // not vacuously passing).
    use cloudmonatt::core::Protocol;
    use cloudmonatt::verifier::{verify_program, ModelConfig, SearchConfig};
    let verify = |cfg: &ModelConfig| {
        verify_program(&Protocol::figure3_customer(), cfg, SearchConfig::default()).unwrap()
    };
    assert!(verify(&ModelConfig::full())[0].verified());
    let weakened = ModelConfig {
        sign_quotes: false,
        leak_kz: true,
        ..ModelConfig::full()
    };
    assert!(!verify(&weakened)[0].verified());
}
