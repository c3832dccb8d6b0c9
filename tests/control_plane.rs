//! Replicated control-plane behaviour: controller failover, AS-replica
//! rerouting, per-replica cache independence, and total-outage
//! fail-fast. Complements the topology unit tests in
//! `core/src/controlplane.rs` (pure ownership rules) and the
//! differential proptest in `controlplane_chaos_differential.rs`
//! (shard-width invariance under scripted churn) by driving a real
//! cloud through the full six-message protocol on non-dormant routes.

use cloudmonatt::core::{CloudBuilder, Flavor, Image, NodeId, SecurityProperty, Vid, VmRequest};

fn launch(cloud: &mut cloudmonatt::core::Cloud) -> Vid {
    cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .expect("launch")
}

#[test]
fn controller_crash_fails_over_and_recovery_reclaims() {
    let mut cloud = CloudBuilder::new()
        .servers(3)
        .seed(1601)
        .control_plane(3, 1)
        .build();
    let vid = launch(&mut cloud);
    let shard = cloud.control_plane().shard_of(vid);
    let home = cloud
        .control_plane()
        .owner_of_shard(shard)
        .expect("healthy plane has an owner");
    assert_eq!(home, shard, "healthy ownership is the identity map");

    cloud.crash_node(NodeId::Controller(home));
    let adopted = cloud
        .control_plane()
        .owner_of_shard(shard)
        .expect("standbys adopt the dead instance's shards");
    assert_ne!(adopted, home);
    assert!(cloud.control_plane().controller_is_live(adopted));

    // Attestation keeps flowing through the standby: messages 1/2/5/6
    // terminate at the adopting instance, and the session is counted
    // as a failover admission.
    let report = cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .expect("attestation rides the standby");
    assert!(report.elapsed_us > 0);
    let cp = cloud.control_plane_stats();
    assert!(cp.failovers >= 1, "{cp:?}");
    assert!(cp.shards_adopted >= 1, "{cp:?}");
    assert!(cp.failover_sessions >= 1, "{cp:?}");

    cloud.recover_node(NodeId::Controller(home));
    assert_eq!(
        cloud.control_plane().owner_of_shard(shard),
        Some(home),
        "recovered home reclaims its shard"
    );
    assert!(cloud.control_plane_stats().shards_reclaimed >= 1);
    cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .expect("attestation back on the home instance");
}

#[test]
fn total_controller_outage_fails_fast_until_recovery() {
    let mut cloud = CloudBuilder::new()
        .servers(2)
        .seed(1602)
        .control_plane(2, 1)
        .build();
    let vid = launch(&mut cloud);
    cloud.crash_node(NodeId::Controller(0));
    cloud.crash_node(NodeId::Controller(1));
    let shard = cloud.control_plane().shard_of(vid);
    assert_eq!(cloud.control_plane().owner_of_shard(shard), None);
    // With no live instance, admission routes to the dead home and the
    // session fails fast — a typed error, never a hang.
    let err = cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .expect_err("no live controller instance");
    assert!(err.to_string().contains("down"), "{err}");
    assert_eq!(cloud.sessions_in_flight(), 0);

    cloud.recover_node(NodeId::Controller(0));
    cloud.recover_node(NodeId::Controller(1));
    cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .expect("recovered plane serves again");
}

#[test]
fn as_replica_crash_reroutes_and_invalidates_only_its_cache() {
    let mut cloud = CloudBuilder::new()
        .servers(3)
        .seed(1603)
        .control_plane(1, 2)
        .evidence_cache(60_000_000)
        .build();
    // Find one VM preferring each replica (the preference is a stable
    // Vid hash, so a handful of launches covers both).
    let mut on_replica = [None::<Vid>; 2];
    for _ in 0..8 {
        let vid = launch(&mut cloud);
        let pref = cloud.control_plane().preferred_replica(vid) as usize;
        if on_replica[pref].is_none() {
            on_replica[pref] = Some(vid);
        }
        if on_replica.iter().all(Option::is_some) {
            break;
        }
    }
    let (vid0, vid1) = (
        on_replica[0].expect("a VM preferring replica 0"),
        on_replica[1].expect("a VM preferring replica 1"),
    );

    // Warm both replicas' evidence caches independently, then prove
    // the warm hit on each.
    for vid in [vid0, vid1] {
        cloud
            .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
            .expect("warming attestation");
    }
    let hits_before =
        |cloud: &cloudmonatt::core::Cloud, r: u32| cloud.replica_evidence_cache_stats(r).0;
    let (h0, h1) = (hits_before(&cloud, 0), hits_before(&cloud, 1));
    for vid in [vid0, vid1] {
        cloud
            .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
            .expect("cached attestation");
    }
    assert_eq!(hits_before(&cloud, 0), h0 + 1, "replica 0 cache warm");
    assert_eq!(hits_before(&cloud, 1), h1 + 1, "replica 1 cache warm");

    // Crash replica 1: its evidence dies with it, replica 0 keeps its
    // cache, and vid1's sessions reroute to replica 0 — which has no
    // evidence for vid1, so the full protocol runs there.
    cloud.crash_node(NodeId::AttestationServer(1));
    let reroutes_before = cloud.control_plane_stats().as_reroutes;
    let (h0, m0) = cloud.replica_evidence_cache_stats(0);
    cloud
        .runtime_attest_current(vid0, SecurityProperty::RuntimeIntegrity)
        .expect("replica 0 unaffected");
    assert_eq!(
        cloud.replica_evidence_cache_stats(0).0,
        h0 + 1,
        "surviving replica kept its evidence"
    );
    cloud
        .runtime_attest_current(vid1, SecurityProperty::RuntimeIntegrity)
        .expect("rerouted to the live replica");
    let cp = cloud.control_plane_stats();
    assert!(cp.as_reroutes > reroutes_before, "{cp:?}");
    assert!(
        cloud.replica_evidence_cache_stats(0).1 > m0,
        "rerouted VM misses on the cold replica and pays the full protocol"
    );

    // After recovery the preferred replica serves vid1 again, but its
    // cache was invalidated by the crash: first attestation misses,
    // the next one hits the re-warmed cache.
    cloud.recover_node(NodeId::AttestationServer(1));
    let (h1, m1) = cloud.replica_evidence_cache_stats(1);
    cloud
        .runtime_attest_current(vid1, SecurityProperty::RuntimeIntegrity)
        .expect("back on the recovered replica");
    assert_eq!(
        cloud.replica_evidence_cache_stats(1),
        (h1, m1 + 1),
        "crash invalidated the recovered replica's evidence"
    );
    cloud
        .runtime_attest_current(vid1, SecurityProperty::RuntimeIntegrity)
        .expect("re-warmed");
    assert_eq!(
        cloud.replica_evidence_cache_stats(1),
        (h1 + 1, m1 + 1),
        "cache re-warms independently after recovery"
    );
}
