//! Control-plane chaos proptest.
//!
//! Kills controller shards and AS replicas at arbitrary scripted times
//! while a periodic attestation subscription runs, and pins the
//! liveness ledger: once every scripted recovery has been applied, no
//! session is wedged, no control-plane node is down, and the cloud's
//! ledgers hold (`Cloud::audit`) — so every shard is back with its home
//! controller.

use cloudmonatt::core::{
    CloudBuilder, Flavor, Image, NodeId, OutageModel, SecurityProperty, VmRequest,
};
use proptest::prelude::*;

mod support;
use support::audited;

/// Horizon of every run, in µs. Scripted events are quantized onto a
/// coarse grid well inside it so each crash has room to recover.
const HORIZON_US: u64 = 24_000_000;
const SLOT_US: u64 = 1_500_000;

/// A scripted transition: (crash slot, node selector, recovery-delta
/// slots). The selector is reduced mod the control-plane node count so
/// every generated value is valid for any (K, N).
type Event = (u64, u8, u64);

/// Map an arbitrary selector onto the control-plane node set:
/// controller instances first (0..K), then AS replicas (0..N).
fn node_for(selector: u8, k: u32, n: u32) -> NodeId {
    let i = (u64::from(selector) % u64::from(k + n)) as u32;
    if i < k {
        NodeId::Controller(i)
    } else {
        NodeId::AttestationServer(i - k)
    }
}

/// Build the scripted outage model. Each event contributes one crash
/// and one recovery; a node selected twice simply gets a second
/// (idempotent) transition.
fn outage_script(seed: u64, events: &[Event], k: u32, n: u32) -> OutageModel {
    let mut model = OutageModel::new(seed ^ 0xC1A0);
    for &(slot, selector, delta) in events {
        let node = node_for(selector, k, n);
        let crash_at = (1 + slot) * SLOT_US;
        let recover_at = crash_at + delta * SLOT_US;
        model = model.crash_at(crash_at, node).recover_at(recover_at, node);
    }
    model
}

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec((0u64..8, 0u8..=u8::MAX, 1u64..5), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Liveness ledger after the script drains: every crash recovered,
    /// nothing wedged in flight, and the ledgers hold.
    #[test]
    fn control_plane_churn_reconciles_exactly(
        k in 1u32..=3,
        n in 1u32..=3,
        seed in 0u64..500,
        events in arb_events(),
    ) {
        let mut cloud = audited(
            CloudBuilder::new()
                .servers(3)
                .seed(seed)
                .control_plane(k, n)
        );
        let vid = cloud
            .request_vm(
                VmRequest::new(Flavor::Small, Image::Cirros)
                    .require(SecurityProperty::RuntimeIntegrity),
            )
            .expect("launch");
        cloud.set_outage_model(outage_script(seed, &events, k, n));
        let sub = cloud
            .runtime_attest_periodic(vid, SecurityProperty::RuntimeIntegrity, 1_000_000)
            .expect("subscribe");
        cloud.run(HORIZON_US);

        // Every scripted recovery fits inside the horizon (max crash
        // slot 8, max delta 4 → slot 12 of 16), so the ledger must have
        // fully reconciled.
        prop_assert_eq!(cloud.sessions_in_flight(), 0, "wedged sessions");
        prop_assert!(cloud.down_nodes().is_empty(), "nodes still down: {:?}", cloud.down_nodes());
        // With nothing down, the audit's outage ledger is crashes ==
        // recoveries, every replica is live, and each shard's first
        // live instance is its home: every shard was reclaimed.
        prop_assert_eq!(cloud.audit(), Ok(()));
        // The subscription kept delivering: with ≥ 24 periods in the
        // horizon and bounded outages, a healthy majority must land.
        let health = cloud.subscription_health(sub).expect("health");
        prop_assert!(health.delivered >= 8, "starved subscription: {health:?}");
    }
}
