//! Unit tests of the Cloud facade: launch pipeline, Table-1 APIs,
//! periodic attestation, responses, fault handling and the
//! failed-auto-response accounting.

use super::{AttestationReport, Cloud, CloudBuilder, Frequency, VmRequest, WorkloadSpec};
use crate::controller::{ResponseAction, VmLifecycle};
use crate::error::CloudError;
use crate::types::{
    Flavor, HealthStatus, Image, NodeId, ProtocolStats, SecurityProperty, ServerId,
};
use monatt_crypto::drbg::Drbg;

fn cloud() -> Cloud {
    CloudBuilder::new().servers(3).seed(7).build()
}

#[test]
fn launch_and_startup_attest() {
    let mut c = cloud();
    let vid = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::StartupIntegrity),
        )
        .unwrap();
    let timing = c.last_launch_timing().unwrap();
    assert!(timing.attestation_us > 0);
    assert!(timing.total_us() > 0);
    // Attestation overhead is roughly the paper's ~20%.
    let frac = timing.attestation_us as f64 / timing.total_us() as f64;
    assert!((0.05..0.40).contains(&frac), "attestation fraction {frac}");
    let report = c
        .startup_attest_current(vid, SecurityProperty::StartupIntegrity)
        .unwrap();
    assert!(report.healthy());
}

#[test]
fn tampered_image_rejected_at_launch() {
    let mut c = cloud();
    let err = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Ubuntu)
                .require(SecurityProperty::StartupIntegrity)
                .with_tampered_image(),
        )
        .unwrap_err();
    let CloudError::LaunchRejected { reason } = err else {
        panic!("expected rejection, got {err:?}");
    };
    assert!(reason.contains("image"), "{reason}");
    // A rejected launch leaves nothing behind: no VM on any server, no
    // row — neither does a launch forced onto a server that is not there.
    let nowhere = VmRequest::new(Flavor::Small, Image::Ubuntu).on_server(ServerId(99));
    let err = c.request_vm(nowhere).unwrap_err();
    assert!(
        matches!(err, CloudError::UnknownServer(ServerId(99))),
        "{err:?}"
    );
    let hosted: usize = (0..3)
        .map(|i| c.server(ServerId(i)).unwrap().vm_count())
        .sum();
    assert_eq!(hosted, 0);
    assert!(c.fleet.controller.vms().next().is_none());
}

#[test]
fn corrupted_platform_is_avoided() {
    let mut c = CloudBuilder::new()
        .servers(3)
        .seed(8)
        .corrupt_platform(0)
        .build();
    // OpenStack's balance heuristic would pick any server; platform
    // attestation steers the VM away from server 0.
    for _ in 0..3 {
        let vid = c
            .request_vm(
                VmRequest::new(Flavor::Small, Image::Cirros)
                    .require(SecurityProperty::StartupIntegrity),
            )
            .unwrap();
        assert_ne!(c.server_of(vid), Some(ServerId(0)));
    }
}

#[test]
fn launch_without_properties_skips_attestation() {
    let mut c = cloud();
    let _vid = c
        .request_vm(VmRequest::new(Flavor::Small, Image::Cirros))
        .unwrap();
    let timing = c.last_launch_timing().unwrap();
    assert_eq!(timing.attestation_us, 0);
}

#[test]
fn runtime_integrity_detects_rootkit() {
    let mut c = cloud();
    let vid = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Ubuntu)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    let clean = c
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    assert!(clean.healthy());
    c.infect_vm(vid, "cryptominer").unwrap();
    let infected = c
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    assert!(!infected.healthy());
    let HealthStatus::Compromised { reason } = &infected.status else {
        panic!()
    };
    assert!(reason.contains("cryptominer"));
}

#[test]
fn responses_change_lifecycle() {
    let mut c = cloud();
    let vid = c
        .request_vm(VmRequest::new(Flavor::Medium, Image::Fedora))
        .unwrap();
    let original_server = c.server_of(vid).unwrap();
    let t = c.respond(vid, ResponseAction::Suspension).unwrap();
    assert!(t.response_us > 0);
    assert_eq!(c.vm_state(vid), Some(VmLifecycle::Suspended));
    c.resume(vid).unwrap();
    assert_eq!(c.vm_state(vid), Some(VmLifecycle::Active));
    let t = c.respond(vid, ResponseAction::Migration).unwrap();
    assert!(t.response_us > 0);
    assert_ne!(c.server_of(vid), Some(original_server));
    assert_eq!(c.vm_state(vid), Some(VmLifecycle::Active));
    let t = c.respond(vid, ResponseAction::Termination).unwrap();
    assert!(t.response_us > 0);
    assert_eq!(c.vm_state(vid), Some(VmLifecycle::Terminated));
    // A terminated VM cannot be attested.
    assert!(c
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .is_err());
}

#[test]
fn repeated_termination_releases_capacity_once() {
    /// How many more `Small` VMs a one-server, 4-pCPU cloud places
    /// after `terminations` Termination responses on its first VM.
    fn placeable_after(terminations: usize) -> usize {
        let mut c = CloudBuilder::new()
            .servers(1)
            .pcpus_per_server(4)
            .seed(5)
            .build();
        let small = || VmRequest::new(Flavor::Small, Image::Cirros);
        let vid = c.request_vm(small()).unwrap();
        for _ in 0..terminations {
            let _ = c.respond(vid, ResponseAction::Termination);
        }
        std::iter::from_fn(|| c.request_vm(small()).ok()).count()
    }
    // The second and third response used to release the VM's vCPUs
    // again, inflating the server's free capacity past what it has.
    assert_eq!(placeable_after(3), placeable_after(1));
}

#[test]
fn unreachable_escalation_does_not_resurrect_a_terminated_vm() {
    let prop = SecurityProperty::RuntimeIntegrity;
    let mut c = CloudBuilder::new()
        .servers(2)
        .seed(6)
        .auto_response(true)
        .escalation_threshold(2)
        .build();
    let vid = c
        .request_vm(VmRequest::new(Flavor::Small, Image::Cirros).require(prop))
        .unwrap();
    let home = c.server_of(vid);
    let sub = c.runtime_attest_periodic(vid, prop, 5_000_000).unwrap();
    c.respond(vid, ResponseAction::Termination).unwrap();
    // Every sample now misses; each escalation's migration response is
    // refused by the lifecycle gate (it used to relaunch the VM `Active`
    // on the other server) and counted as a failed response.
    c.run(60_000_000);
    assert_eq!(c.vm_state(vid), Some(VmLifecycle::Terminated));
    assert_eq!(c.server_of(vid), home);
    let health = c.subscription_health(sub).unwrap();
    assert!(health.escalations >= 1, "{health:?}");
    assert_eq!(health.failed_responses, u64::from(health.escalations));
    assert_eq!(c.auto_response_failures(), health.failed_responses);
}

#[test]
fn lifecycle_operations_refuse_a_terminated_vm() {
    let mut c = cloud();
    let vid = c
        .request_vm(VmRequest::new(Flavor::Small, Image::Cirros))
        .unwrap();
    c.respond(vid, ResponseAction::Termination).unwrap();
    let gone = |r: Result<(), CloudError>| matches!(r, Err(CloudError::UnknownVm(v)) if v == vid);
    assert!(gone(c.resume(vid)));
    for action in [ResponseAction::Termination, ResponseAction::Suspension] {
        assert!(gone(c.respond(vid, action).map(drop)), "{action}");
    }
    let recheck = c.recheck_and_resume(vid, SecurityProperty::RuntimeIntegrity);
    assert!(gone(recheck.map(drop)));
    assert_eq!(c.vm_state(vid), Some(VmLifecycle::Terminated));
}

#[test]
fn periodic_attestation_accumulates_reports() {
    let mut c = cloud();
    let vid = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity)
                .workload(WorkloadSpec::Busy),
        )
        .unwrap();
    let sub = c
        .runtime_attest_periodic(vid, SecurityProperty::RuntimeIntegrity, 5_000_000)
        .unwrap();
    c.run(21_000_000);
    let reports = c.stop_attest_periodic(sub).unwrap();
    assert!(
        (3..=5).contains(&reports.len()),
        "expected ~4 periodic reports, got {}",
        reports.len()
    );
    assert!(reports.iter().all(|r| r.healthy()));
    assert!(c.stop_attest_periodic(sub).is_err());
}

#[test]
fn cpu_availability_detects_boost_attack() {
    let mut c = CloudBuilder::new().servers(2).seed(9).build();
    let victim = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Ubuntu)
                .require(SecurityProperty::CpuAvailability { min_share_pct: 50 })
                .workload(WorkloadSpec::Busy)
                .on_server(ServerId(0))
                .pin_pcpu(0),
        )
        .unwrap();
    // Healthy before the attack: sole user of the pCPU.
    let before = c
        .runtime_attest_current(
            victim,
            SecurityProperty::CpuAvailability { min_share_pct: 50 },
        )
        .unwrap();
    assert!(before.healthy(), "{:?}", before.status);
    // Co-locate the attacker.
    let _attacker = c
        .request_vm(
            VmRequest::new(Flavor::Medium, Image::Ubuntu)
                .workload(WorkloadSpec::BoostAttack)
                .on_server(ServerId(0))
                .pin_pcpu(0),
        )
        .unwrap();
    c.advance(1_000_000);
    let after = c
        .runtime_attest_current(
            victim,
            SecurityProperty::CpuAvailability { min_share_pct: 50 },
        )
        .unwrap();
    assert!(!after.healthy(), "victim should be starved");
}

#[test]
fn covert_channel_detected_on_sender() {
    let mut c = CloudBuilder::new().servers(2).seed(10).build();
    let sender = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::CovertChannelFreedom)
                .workload(WorkloadSpec::CovertSender)
                .on_server(ServerId(0))
                .pin_pcpu(0),
        )
        .unwrap();
    let _receiver = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .workload(WorkloadSpec::Busy)
                .on_server(ServerId(0))
                .pin_pcpu(0),
        )
        .unwrap();
    c.advance(500_000);
    let report = c
        .runtime_attest_current(sender, SecurityProperty::CovertChannelFreedom)
        .unwrap();
    assert!(!report.healthy(), "covert channel should be detected");
    // A benign busy VM co-resident shows no covert pattern.
    let benign = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::CovertChannelFreedom)
                .workload(WorkloadSpec::Busy)
                .on_server(ServerId(1))
                .pin_pcpu(0),
        )
        .unwrap();
    let report = c
        .runtime_attest_current(benign, SecurityProperty::CovertChannelFreedom)
        .unwrap();
    assert!(report.healthy(), "{:?}", report.status);
}

#[test]
fn network_tampering_is_detected_not_accepted() {
    use monatt_net::sim::Tamperer;
    let mut c = cloud();
    let vid = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    c.network_mut().set_attacker(Box::new(Tamperer::new("")));
    let err = c
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap_err();
    assert!(matches!(err, CloudError::ProtocolFailure { .. }));
    c.network_mut().clear_attacker();
    let ok = c
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    assert!(ok.healthy());
}

#[test]
fn auto_response_migrates_starved_vm() {
    let mut c = CloudBuilder::new()
        .servers(2)
        .seed(12)
        .auto_response(true)
        .build();
    let victim = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::CpuAvailability { min_share_pct: 50 })
                .workload(WorkloadSpec::Busy)
                .on_server(ServerId(0))
                .pin_pcpu(0),
        )
        .unwrap();
    let _attacker = c
        .request_vm(
            VmRequest::new(Flavor::Medium, Image::Cirros)
                .workload(WorkloadSpec::BoostAttack)
                .on_server(ServerId(0))
                .pin_pcpu(0),
        )
        .unwrap();
    c.advance(1_000_000);
    let report = c
        .runtime_attest_current(
            victim,
            SecurityProperty::CpuAvailability { min_share_pct: 50 },
        )
        .unwrap();
    assert!(!report.healthy());
    // The response module migrated the victim away.
    assert_eq!(c.server_of(victim), Some(ServerId(1)));
    // And it now attests healthy again.
    let after = c
        .runtime_attest_current(
            victim,
            SecurityProperty::CpuAvailability { min_share_pct: 50 },
        )
        .unwrap();
    assert!(after.healthy(), "{:?}", after.status);
    // The successful migration left no failed-response residue.
    assert_eq!(c.auto_response_failures(), 0);
}

#[test]
fn failed_auto_response_is_recorded_not_discarded() {
    // One server: a migration response has nowhere to go and fails.
    // That failure used to be `let _ = self.respond(..)` — now it is
    // counted on the cloud and on the owning subscription.
    let prop = SecurityProperty::CpuAvailability { min_share_pct: 50 };
    let mut c = CloudBuilder::new()
        .servers(1)
        .seed(33)
        .auto_response(true)
        .build();
    let victim = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(prop)
                .workload(WorkloadSpec::Busy)
                .on_server(ServerId(0))
                .pin_pcpu(0),
        )
        .unwrap();
    let _attacker = c
        .request_vm(
            VmRequest::new(Flavor::Medium, Image::Cirros)
                .workload(WorkloadSpec::BoostAttack)
                .on_server(ServerId(0))
                .pin_pcpu(0),
        )
        .unwrap();
    c.advance(1_000_000);
    // Direct API path: the failure is recorded on the cloud.
    let report = c.runtime_attest_current(victim, prop).unwrap();
    assert!(!report.healthy());
    assert_eq!(c.server_of(victim), Some(ServerId(0)), "nowhere to migrate");
    assert_eq!(c.auto_response_failures(), 1);
    // Subscription path: the failure is also attributed to the
    // subscription's health counters.
    let sub = c.runtime_attest_periodic(victim, prop, 2_000_000).unwrap();
    c.run(5_000_000);
    let health = c.subscription_health(sub).unwrap();
    assert!(health.delivered >= 1, "{health:?}");
    assert!(health.failed_responses >= 1, "{health:?}");
    assert!(c.auto_response_failures() > 1);
}

#[test]
fn session_gauges_track_protocol_activity() {
    let mut c = cloud();
    let vid = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    c.reset_protocol_stats();
    c.runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    let stats = c.protocol_stats();
    assert_eq!(stats.sessions_started, 1);
    assert_eq!(stats.sessions_completed, 1);
    assert_eq!(stats.sessions_failed, 0);
    assert_eq!(stats.max_in_flight, 1);
    assert!(stats.max_queue_depth >= 1);
    assert_eq!(c.sessions_in_flight(), 0, "no session left behind");
}

#[test]
fn sharded_queue_depths_break_down_the_merged_stat() {
    let mut c = CloudBuilder::new().servers(4).seed(907).shards(4).build();
    let mut vids = Vec::new();
    for _ in 0..4 {
        vids.push(
            c.request_vm(
                VmRequest::new(Flavor::Small, Image::Cirros)
                    .require(SecurityProperty::RuntimeIntegrity),
            )
            .unwrap(),
        );
    }
    c.reset_protocol_stats();
    for &vid in &vids {
        c.runtime_attest_periodic(vid, SecurityProperty::RuntimeIntegrity, 1_000_000)
            .unwrap();
    }
    c.run(2_000_001);
    let stats = c.protocol_stats();
    let depths = c.shard_queue_depths();
    assert_eq!(depths.len(), 4, "one high-water mark per shard");
    // The controller-side shard (0) carries the subscription timers and
    // the controller/attserver hops; the per-server shards carry their
    // own VMs' events. Every shard must have seen traffic, and no
    // single-shard peak can exceed the merged high-water mark.
    assert!(depths.iter().all(|&d| d >= 1), "idle shard in {depths:?}");
    let merged = stats.max_queue_depth as usize;
    assert!(merged >= 1);
    assert!(
        depths.iter().all(|&d| d <= merged),
        "shard peak exceeds merged mark: {depths:?} vs {merged}"
    );
}

#[test]
fn reset_protocol_stats_restarts_the_queue_depth_gauges() {
    let prop = SecurityProperty::RuntimeIntegrity;
    let launch = |c: &mut Cloud| {
        c.request_vm(VmRequest::new(Flavor::Small, Image::Cirros).require(prop))
            .unwrap()
    };
    // What one flat attestation does to the gauges on a cloud that
    // never ran anything deeper.
    let mut fresh = CloudBuilder::new().servers(4).seed(911).shards(4).build();
    let vid = launch(&mut fresh);
    fresh.reset_protocol_stats();
    fresh.runtime_attest_current(vid, prop).unwrap();
    let flat_depth = fresh.protocol_stats().max_queue_depth;
    assert!(flat_depth >= 1);

    // Deep warm-up: eight concurrent subscriptions for a round.
    let mut c = CloudBuilder::new().servers(4).seed(911).shards(4).build();
    let vids: Vec<_> = (0..8).map(|_| launch(&mut c)).collect();
    let subs: Vec<_> = vids
        .iter()
        .map(|&vid| c.runtime_attest_periodic(vid, prop, 1_000_000).unwrap())
        .collect();
    c.run(1_500_000);
    for sub in subs {
        c.stop_attest_periodic(sub).unwrap();
    }
    assert!(c.protocol_stats().max_queue_depth >= 8);

    c.reset_protocol_stats();
    assert!(c.shard_queue_depths().iter().all(|&d| d == 0));
    // Read straight after a reset, the merged gauge is the events
    // pending now — what the shard breakdown says (nothing, here).
    assert_eq!(
        c.protocol_stats().max_queue_depth as usize,
        c.shard_queue_depths().iter().sum::<usize>()
    );
    c.runtime_attest_current(vids[0], prop).unwrap();
    let merged = c.protocol_stats().max_queue_depth as usize;
    assert_eq!(
        merged, flat_depth as usize,
        "the gauge is this session's depth, not the warm-up's"
    );
    let depths = c.shard_queue_depths();
    assert!(depths.iter().all(|&d| d <= merged), "{depths:?}");
    assert!(merged <= depths.iter().sum(), "{depths:?} vs {merged}");
}

#[test]
fn random_interval_periodic_attestation() {
    let mut c = cloud();
    let vid = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity)
                .workload(WorkloadSpec::Busy),
        )
        .unwrap();
    let sub = c
        .runtime_attest_with_frequency(
            vid,
            SecurityProperty::RuntimeIntegrity,
            Frequency::Random {
                min_us: 2_000_000,
                max_us: 8_000_000,
            },
        )
        .unwrap();
    c.run(30_000_000);
    let reports = c.stop_attest_periodic(sub).unwrap();
    // Expected count between 30/8 ≈ 3 and 30/2 = 15.
    assert!(
        (3..=15).contains(&reports.len()),
        "got {} reports",
        reports.len()
    );
    // Intervals actually vary.
    let times: Vec<u64> = reports.iter().map(|r| r.issued_at_us).collect();
    let deltas: Vec<u64> = times.windows(2).map(|w| w[1] - w[0]).collect();
    if deltas.len() >= 2 {
        assert!(
            deltas.iter().any(|&d| d != deltas[0]),
            "intervals should vary: {deltas:?}"
        );
    }
}

#[test]
fn suspension_recheck_resumes_only_when_healthy() {
    let mut c = CloudBuilder::new().servers(2).seed(13).build();
    let prop = SecurityProperty::CpuAvailability { min_share_pct: 50 };
    let victim = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(prop)
                .workload(WorkloadSpec::Busy)
                .on_server(ServerId(0))
                .pin_pcpu(0),
        )
        .unwrap();
    let attacker = c
        .request_vm(
            VmRequest::new(Flavor::Medium, Image::Cirros)
                .workload(WorkloadSpec::BoostAttack)
                .on_server(ServerId(0))
                .pin_pcpu(0),
        )
        .unwrap();
    c.advance(1_000_000);
    c.respond(victim, ResponseAction::Suspension).unwrap();
    // The attacker is still there: the recheck re-suspends.
    let report = c.recheck_and_resume(victim, prop).unwrap();
    assert!(!report.healthy());
    assert_eq!(c.vm_state(victim), Some(VmLifecycle::Suspended));
    // Terminate the attacker; now the recheck resumes the victim.
    c.respond(attacker, ResponseAction::Termination).unwrap();
    c.advance(1_000_000);
    let report = c.recheck_and_resume(victim, prop).unwrap();
    assert!(report.healthy(), "{:?}", report.status);
    assert_eq!(c.vm_state(victim), Some(VmLifecycle::Active));
}

#[test]
fn frequency_degenerate_ranges_clamp() {
    let mut rng = Drbg::from_seed(1);
    // Equal bounds: exactly that interval, not max+something.
    let f = Frequency::Random {
        min_us: 5,
        max_us: 5,
    };
    for _ in 0..8 {
        assert_eq!(f.next_interval(&mut rng), 5);
    }
    // Inverted bounds clamp to min.
    let f = Frequency::Random {
        min_us: 10,
        max_us: 2,
    };
    assert_eq!(f.next_interval(&mut rng), 10);
    // All-zero range floors at 1 so run() always advances.
    let f = Frequency::Random {
        min_us: 0,
        max_us: 0,
    };
    assert_eq!(f.next_interval(&mut rng), 1);
    // A proper range stays within [min, max] inclusive.
    let f = Frequency::Random {
        min_us: 3,
        max_us: 6,
    };
    for _ in 0..64 {
        let v = f.next_interval(&mut rng);
        assert!((3..=6).contains(&v), "{v}");
    }
}

#[test]
fn clean_network_keeps_protocol_counters_quiet() {
    let mut c = cloud();
    let vid = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    c.runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    let stats = c.protocol_stats();
    assert!(stats.messages_sent > 0);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.drops_seen, 0);
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.duplicates_rejected, 0);
    assert_eq!(stats.auth_failures, 0);
    c.reset_protocol_stats();
    assert_eq!(c.protocol_stats(), ProtocolStats::default());
}

#[test]
fn retries_absorb_lossy_network() {
    use monatt_net::sim::FaultModel;
    let mut c = cloud();
    let vid = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    let clean = c
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    c.network_mut()
        .set_fault_model(FaultModel::new(42).drop_prob(0.2));
    let mut lossy_max = 0;
    for _ in 0..10 {
        let report = c
            .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
            .expect("retries should absorb 20% loss");
        assert!(report.healthy());
        lossy_max = lossy_max.max(report.elapsed_us);
    }
    let stats = c.protocol_stats();
    assert!(stats.retries > 0, "{stats:?}");
    assert_eq!(stats.drops_seen, stats.timeouts);
    // Retransmission time is charged into the latency model.
    assert!(lossy_max > clean.elapsed_us, "{lossy_max} vs {clean:?}");
}

#[test]
fn duplicated_records_are_rejected_without_desync() {
    use monatt_net::sim::FaultModel;
    let mut c = cloud();
    let vid = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    c.network_mut()
        .set_fault_model(FaultModel::new(7).duplicate_prob(1.0));
    c.reset_protocol_stats();
    // Every record delivered twice: the window eats each duplicate
    // and the protocol still completes.
    let report = c
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    assert!(report.healthy());
    let stats = c.protocol_stats();
    assert_eq!(stats.duplicates_rejected, stats.messages_sent);
}

#[test]
fn missed_periodic_samples_escalate_to_unreachable() {
    use monatt_net::sim::{Intercept, NetworkAttacker};
    struct DropAll;
    impl NetworkAttacker for DropAll {
        fn intercept(&mut self, _: &str, _: &str, _: &[u8]) -> Intercept {
            Intercept::Drop
        }
    }
    let mut c = CloudBuilder::new()
        .servers(3)
        .seed(21)
        .escalation_threshold(2)
        .build();
    let vid = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    let sub = c
        .runtime_attest_periodic(vid, SecurityProperty::RuntimeIntegrity, 5_000_000)
        .unwrap();
    c.network_mut().set_attacker(Box::new(DropAll));
    c.run(21_000_000);
    let health = c.subscription_health(sub).unwrap();
    assert_eq!(health.delivered, 0);
    assert!(health.missed >= 3, "{health:?}");
    assert!(health.escalations >= 1, "{health:?}");
    // Healing the network resets the failure streak.
    c.network_mut().clear_attacker();
    c.run(6_000_000);
    let health = c.subscription_health(sub).unwrap();
    assert_eq!(health.consecutive_failures, 0);
    assert!(health.delivered >= 1, "{health:?}");
    let reports = c.stop_attest_periodic(sub).unwrap();
    let unreachable = reports.iter().filter(|r| r.status.is_unreachable()).count();
    assert!(unreachable >= 1, "escalation should file a report");
    assert!(c.subscription_health(sub).is_err());
}

#[test]
fn launch_timing_scales_with_image_and_flavor() {
    let mut c = cloud();
    let mut totals = Vec::new();
    for (image, flavor) in [
        (Image::Cirros, Flavor::Small),
        (Image::Ubuntu, Flavor::Large),
    ] {
        c.request_vm(VmRequest::new(flavor, image).require(SecurityProperty::StartupIntegrity))
            .unwrap();
        totals.push(c.last_launch_timing().unwrap().total_us());
    }
    assert!(totals[1] > totals[0], "{totals:?}");
}

#[test]
fn coalesced_msg4_batches_match_serial_verdicts() {
    // Two subscriptions due at the same instant reach AS-validate close
    // together; with a coalescing window their msg 4s are verified in
    // one combined Schnorr check. The verdicts must match the serial
    // run exactly — batching is a throughput optimisation, never a
    // behaviour change.
    fn run(batched: bool) -> (Vec<Vec<AttestationReport>>, ProtocolStats) {
        let mut b = CloudBuilder::new().servers(3).seed(21);
        if batched {
            b = b.as_batch(1_000_000, 8);
        }
        let mut c = b.build();
        // Launch both VMs first (each launch advances the wall clock),
        // then subscribe back-to-back so the two firings share a due
        // time and their msg 4s land inside one coalescing window.
        let vids: Vec<_> = [Image::Cirros, Image::Ubuntu]
            .into_iter()
            .map(|image| {
                c.request_vm(
                    VmRequest::new(Flavor::Small, image)
                        .require(SecurityProperty::RuntimeIntegrity)
                        .workload(WorkloadSpec::Busy),
                )
                .unwrap()
            })
            .collect();
        let subs: Vec<_> = vids
            .iter()
            .map(|vid| {
                c.runtime_attest_periodic(*vid, SecurityProperty::RuntimeIntegrity, 5_000_000)
                    .unwrap()
            })
            .collect();
        let reports = {
            c.run(21_000_000);
            subs.iter()
                .map(|s| c.stop_attest_periodic(*s).unwrap())
                .collect()
        };
        (reports, c.protocol_stats())
    }
    let (serial, serial_stats) = run(false);
    let (batched, batched_stats) = run(true);
    assert_eq!(serial_stats.msg4_flushes, 0, "serial run must stay inline");
    assert!(
        batched_stats.msg4_batched > batched_stats.msg4_flushes,
        "no flush coalesced two sessions: batched={} flushes={}",
        batched_stats.msg4_batched,
        batched_stats.msg4_flushes
    );
    assert_eq!(serial.len(), batched.len());
    for (s, b) in serial.iter().zip(&batched) {
        assert_eq!(s.len(), b.len(), "delivered counts diverged");
        for (sr, br) in s.iter().zip(b) {
            assert_eq!(sr.status, br.status, "verdict diverged under batching");
        }
    }
}

#[test]
fn evidence_cache_serves_fresh_verdicts_and_invalidates() {
    let ttl = 30_000_000;
    let mut c = CloudBuilder::new()
        .servers(3)
        .seed(22)
        .evidence_cache(ttl)
        .build();
    let vid = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Ubuntu)
                .require(SecurityProperty::RuntimeIntegrity)
                .workload(WorkloadSpec::Busy),
        )
        .unwrap();
    let first = c
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    assert!(first.healthy());
    // A verdict inside the validity window is served from the evidence
    // cache: messages 3/4 and the measurement window are skipped, so
    // the cached report is strictly cheaper than the full protocol.
    let (hits_before, _) = c.evidence_cache_stats();
    let second = c
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    let (hits_after, _) = c.evidence_cache_stats();
    assert_eq!(hits_after, hits_before + 1, "second attest must hit");
    assert_eq!(second.status, first.status);
    assert!(
        second.elapsed_us < first.elapsed_us,
        "cached {} vs full {}",
        second.elapsed_us,
        first.elapsed_us
    );
    // Remediation moves the VM to a new host: the cached verdict is
    // about the old trust context and must not be served again.
    c.respond(vid, crate::controller::ResponseAction::Migration)
        .unwrap();
    let (hits_mig, misses_mig) = c.evidence_cache_stats();
    let third = c
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    let (hits_post, misses_post) = c.evidence_cache_stats();
    assert_eq!(hits_post, hits_mig, "post-migration attest must not hit");
    assert!(misses_post > misses_mig);
    assert!(third.elapsed_us > second.elapsed_us);
    // The validity window expires evidence by wall clock: after idling
    // past the TTL the next sample runs the full protocol again.
    c.run(ttl + 1_000_000);
    let (hits_idle, _) = c.evidence_cache_stats();
    let fourth = c
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    let (hits_end, _) = c.evidence_cache_stats();
    assert_eq!(hits_end, hits_idle, "expired evidence must not be served");
    assert!(fourth.elapsed_us > second.elapsed_us);
}

#[test]
fn avk_cert_cache_hits_on_reuse_and_resets_on_rekey() {
    let mut c = CloudBuilder::new()
        .servers(2)
        .seed(23)
        .reuse_avk(true)
        .avk_cert_cache(true)
        .build();
    let vid = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity)
                .workload(WorkloadSpec::Busy),
        )
        .unwrap();
    for _ in 0..2 {
        let r = c
            .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
            .unwrap();
        assert!(r.healthy());
    }
    let (hits, _) = c.avk_cert_cache_stats();
    assert!(
        hits >= 1,
        "a reused attestation session must hit the certified-AVK cache"
    );
    // Crash + recovery re-keys the node's channels, which bumps the
    // pCA epoch: every certificate issued before is stale and the
    // cache is dropped, so the next attestation re-certifies.
    let server = c.server_of(vid).unwrap();
    c.crash_node(NodeId::Server(server));
    c.recover_node(NodeId::Server(server));
    let (_, misses_rekey) = c.avk_cert_cache_stats();
    let r = c
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    assert!(r.healthy(), "attestation must recover at the new epoch");
    let (_, misses_post) = c.avk_cert_cache_stats();
    assert!(
        misses_post > misses_rekey,
        "re-keying must invalidate certified AVKs"
    );
}

#[test]
fn horizon_boundary_event_fires_in_the_next_run() {
    // `Cloud::run` covers the half-open interval [start, end): a
    // subscription firing due exactly at the horizon belongs to the
    // next run, so splitting one run in two at the boundary processes
    // the identical event set (referenced by the `run` doc comment).
    fn build() -> (Cloud, u64) {
        let mut c = CloudBuilder::new().servers(3).seed(24).build();
        let vid = c
            .request_vm(
                VmRequest::new(Flavor::Small, Image::Cirros)
                    .require(SecurityProperty::RuntimeIntegrity)
                    .workload(WorkloadSpec::Busy),
            )
            .unwrap();
        let sub = c
            .runtime_attest_periodic(vid, SecurityProperty::RuntimeIntegrity, 5_000_000)
            .unwrap();
        (c, sub)
    }
    let (mut whole, sub_w) = build();
    whole.run(10_000_000);
    let (mut split, sub_s) = build();
    // The first firing is due exactly at this run's end: carried.
    split.run(5_000_000);
    assert_eq!(
        split.subscription_health(sub_s).unwrap().delivered,
        0,
        "a firing due exactly at the horizon must not fire in this run"
    );
    split.run(5_000_000);
    assert_eq!(
        split.subscription_health(sub_s).unwrap().delivered,
        1,
        "the carried firing must fire first thing in the next run"
    );
    assert_eq!(whole.wall_clock_us(), split.wall_clock_us());
    assert_eq!(whole.drbg_probe(), split.drbg_probe());
    let rw = whole.stop_attest_periodic(sub_w).unwrap();
    let rs = split.stop_attest_periodic(sub_s).unwrap();
    assert_eq!(rw, rs, "split runs must reproduce the whole run's reports");
}

// ---- Protocol-IR programs: layered attestation and fan-out ---------

#[test]
fn layered_attest_healthy_platform_measures_the_vm() {
    let mut c = cloud();
    let vid = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Ubuntu)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    let before = c.protocol_stats();
    let report = c
        .layered_attest(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    assert!(report.healthy(), "clean platform + clean VM: {report:?}");
    let after = c.protocol_stats();
    // One layered call = the parent session plus one delegated
    // platform-appraisal child, both completing.
    assert_eq!(after.sessions_started - before.sessions_started, 2);
    assert_eq!(after.sessions_completed - before.sessions_completed, 2);
    // Clean network: parent walks all six hops (the gate passed and the
    // VM was measured), the child the internal four.
    assert_eq!(after.messages_sent - before.messages_sent, 10);
    // The infected VM still fails through the layered program.
    c.infect_vm(vid, "cryptominer").unwrap();
    let infected = c
        .layered_attest(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    assert!(!infected.healthy());
}

#[test]
fn layered_attest_corrupt_platform_gates_off_the_vm_measurement() {
    // A single corrupt server; the VM requires no property at launch,
    // so placement cannot steer away from it.
    let mut c = CloudBuilder::new()
        .servers(1)
        .seed(9)
        .corrupt_platform(0)
        .build();
    let vid = c
        .request_vm(VmRequest::new(Flavor::Small, Image::Cirros))
        .unwrap();
    let before = c.protocol_stats();
    let report = c
        .layered_attest(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    assert!(
        !report.healthy(),
        "a trojaned platform must fail the layered appraisal: {report:?}"
    );
    assert!(
        matches!(report.status, HealthStatus::Compromised { .. }),
        "{report:?}"
    );
    let after = c.protocol_stats();
    assert_eq!(after.sessions_started - before.sessions_started, 2);
    // The gate skipped messages 3 and 4 of the parent: the VM was never
    // measured. Parent sends 1, 2, 5, 6; the delegated child 2-5.
    assert_eq!(
        after.messages_sent - before.messages_sent,
        8,
        "an unhealthy platform must skip the VM measurement hops"
    );
}

#[test]
fn multi_attest_fans_out_and_combines() {
    let mut c = cloud();
    let vid = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Ubuntu)
                .require(SecurityProperty::RuntimeIntegrity),
        )
        .unwrap();
    let props = [
        SecurityProperty::StartupIntegrity,
        SecurityProperty::RuntimeIntegrity,
    ];
    let before = c.protocol_stats();
    let report = c.multi_attest(vid, &props).unwrap();
    assert!(report.healthy(), "{report:?}");
    assert_eq!(report.property, SecurityProperty::StartupIntegrity);
    let after = c.protocol_stats();
    // Parent plus one measurement child per property.
    assert_eq!(after.sessions_started - before.sessions_started, 3);
    assert_eq!(after.sessions_completed - before.sessions_completed, 3);
    // Parent: 1, 2, 5, 6; each child: 3, 4.
    assert_eq!(after.messages_sent - before.messages_sent, 8);
    // The cost is linear in the fan-out: K = 4 is 1 + 4 sessions and
    // 4 + 2·4 messages, and (more hops) slower than flat Figure 3.
    let four = [
        SecurityProperty::RuntimeIntegrity,
        SecurityProperty::StartupIntegrity,
        SecurityProperty::CovertChannelFreedom,
        SecurityProperty::SchedulerFairness,
    ];
    let wide = c.multi_attest(vid, &four).unwrap();
    let wider = c.protocol_stats();
    assert_eq!(wider.sessions_started - after.sessions_started, 5);
    assert_eq!(wider.sessions_completed - after.sessions_completed, 5);
    assert_eq!(wider.messages_sent - after.messages_sent, 12);
    let flat = c.runtime_attest_current(vid, four[0]).unwrap();
    assert!(wide.elapsed_us > flat.elapsed_us);
    // A violated property poisons the combined report, naming the
    // branch that found it.
    c.infect_vm(vid, "cryptominer").unwrap();
    let infected = c.multi_attest(vid, &props).unwrap();
    let HealthStatus::Compromised { reason } = &infected.status else {
        panic!("expected a combined violation, got {:?}", infected.status);
    };
    assert!(reason.contains("branch 1"), "{reason}");
    assert!(reason.contains("cryptominer"), "{reason}");
}

#[test]
fn registered_protocols_run_like_builtins() {
    use crate::protocol::Protocol;
    let mut c = cloud();
    let vid = c
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::StartupIntegrity),
        )
        .unwrap();
    // Registering the stock customer program by hand must behave
    // exactly like the built-in path.
    let pid = c.register_protocol(&Protocol::figure3_customer()).unwrap();
    let via_program = c
        .attest_with_program(vid, SecurityProperty::StartupIntegrity, pid)
        .unwrap();
    let via_api = c
        .startup_attest_current(vid, SecurityProperty::StartupIntegrity)
        .unwrap();
    assert_eq!(via_program.status, via_api.status);
    assert_eq!(via_program.elapsed_us, via_api.elapsed_us);
    // Ill-formed terms are rejected with a typed error.
    let err = c
        .register_protocol(&Protocol::Seq(vec![Protocol::Complete]))
        .unwrap_err();
    assert!(matches!(err, CloudError::ProtocolFailure { .. }));
}

#[test]
fn layered_and_fanout_reports_are_deterministic_across_shards() {
    fn run(shards: usize) -> (Vec<AttestationReport>, u64) {
        let mut c = CloudBuilder::new()
            .servers(3)
            .seed(41)
            .shards(shards)
            .build();
        let vid = c
            .request_vm(
                VmRequest::new(Flavor::Small, Image::Ubuntu)
                    .require(SecurityProperty::RuntimeIntegrity),
            )
            .unwrap();
        let reports = vec![
            c.layered_attest(vid, SecurityProperty::RuntimeIntegrity)
                .unwrap(),
            c.multi_attest(
                vid,
                &[
                    SecurityProperty::StartupIntegrity,
                    SecurityProperty::RuntimeIntegrity,
                    SecurityProperty::CovertChannelFreedom,
                ],
            )
            .unwrap(),
        ];
        (reports, c.drbg_probe())
    }
    let (r1, d1) = run(1);
    let (r4, d4) = run(4);
    let (r7, d7) = run(7);
    assert_eq!(r1, r4);
    assert_eq!(r1, r7);
    assert_eq!(d1, d4);
    assert_eq!(d1, d7);
}

#[test]
fn deferred_retransmits_during_batch_flushes_are_counted_once() {
    // Regression pin for the msg-4 coalescing hazard: a session parked
    // in the Attestation Server's batch buffer can still receive a
    // deferred retransmit (a duplicate quote the network delayed past
    // the retry timeout). Before the `in_batch` guard, that straggler
    // could re-park or re-advance the session, so one attestation was
    // counted twice in the ledger. With the guard it is rejected as a
    // duplicate and the exactly-once accounting identity holds under
    // every seed: every started session resolves to exactly one
    // completion or one failure, and nothing stays in flight.
    use monatt_net::sim::FaultModel;

    let mut saw_flush = false;
    let mut saw_duplicate = false;
    for seed in 0..6u64 {
        let mut c = CloudBuilder::new()
            .servers(3)
            .seed(300 + seed)
            .as_batch(1_500_000, 4)
            .build();
        let vids: Vec<_> = [Image::Cirros, Image::Ubuntu, Image::Fedora]
            .into_iter()
            .map(|image| {
                c.request_vm(
                    VmRequest::new(Flavor::Small, image)
                        .require(SecurityProperty::RuntimeIntegrity)
                        .workload(WorkloadSpec::Busy),
                )
                .unwrap()
            })
            .collect();
        let subs: Vec<_> = vids
            .iter()
            .map(|vid| {
                c.runtime_attest_periodic(*vid, SecurityProperty::RuntimeIntegrity, 5_000_000)
                    .unwrap()
            })
            .collect();
        // Duplicates plus a delay longer than the 2 ms retry timeout:
        // the original record triggers a retransmit, then the delayed
        // copy lands as a straggler — often while the session sits in
        // the coalescing buffer awaiting a flush.
        c.network_mut().set_fault_model(
            FaultModel::new(seed)
                .drop_prob(0.20)
                .duplicate_prob(0.50)
                .delay(0.40, 2_500),
        );
        c.reset_protocol_stats();
        c.run(31_000_000);
        c.network_mut().clear_fault_model();
        for sub in subs {
            c.stop_attest_periodic(sub).unwrap();
        }
        let stats = c.protocol_stats();
        assert_eq!(
            stats.sessions_started,
            stats.sessions_completed + stats.sessions_failed,
            "seed {seed}: session ledger drifted: {stats:?}"
        );
        assert_eq!(c.sessions_in_flight(), 0, "seed {seed}: stuck session");
        saw_flush |= stats.msg4_flushes > 0;
        saw_duplicate |= stats.duplicates_rejected > 0;
    }
    assert!(saw_flush, "no seed exercised a coalesced msg-4 flush");
    assert!(saw_duplicate, "no seed delivered a straggler duplicate");
}

#[test]
fn reports_verify_only_against_the_anchor_of_the_node_that_signed_them() {
    use crate::attestation::AttestationServer;
    use crate::controller::CloudController;
    use crate::types::Vid;
    use monatt_net::wire::EncodeScratch;

    let mut c = CloudBuilder::new()
        .servers(2)
        .seed(1207)
        .control_plane(3, 2)
        .build();
    let (vid, property, nonce) = (Vid(1), SecurityProperty::RuntimeIntegrity, [7u8; 32]);
    let scratch = &mut EncodeScratch::new();
    // Message 5, signed by replica `signer`, against the key the
    // controller holds for replica `held` — every pairing.
    for (signer, held) in (0..2).flat_map(|s| (0..2).map(move |h| (s, h))) {
        let (attserver, _) = c.appraisers.routed(signer).unwrap();
        let msg5 =
            attserver.certify_report(vid, ServerId(0), property, HealthStatus::Healthy, nonce);
        let anchor = c.fleet.controller.attserver_key(held).unwrap();
        let verdict = AttestationServer::verify_report_msg_with(&msg5, anchor, nonce, scratch);
        assert_eq!(verdict.is_ok(), signer == held, "msg 5: {signer} vs {held}");
        // The bound anchor and the bare key it was built from agree.
        let bare = AttestationServer::verify_report_msg_with(&msg5, &anchor.key(), nonce, scratch);
        assert_eq!(verdict, bare, "msg 5: {signer} vs {held}");
    }
    // Message 6 likewise, across the three controller instances and the
    // keys the customer holds for them.
    for (signer, held) in (0..3).flat_map(|s| (0..3).map(move |h| (s, h))) {
        let key = c.fleet.controller.instance_key(signer).unwrap();
        let msg6 = CloudController::certify_customer_report_keyed(
            key,
            vid,
            property,
            HealthStatus::Healthy,
            nonce,
            scratch,
        );
        let anchor = &c.customer_anchors[held as usize];
        let verdict = CloudController::verify_customer_report_with(&msg6, anchor, nonce, scratch);
        assert_eq!(verdict.is_ok(), signer == held, "msg 6: {signer} vs {held}");
        let bare =
            CloudController::verify_customer_report_with(&msg6, &anchor.key(), nonce, scratch);
        assert_eq!(verdict, bare, "msg 6: {signer} vs {held}");
    }
    // One anchor per node, none beyond the topology.
    assert!(c.fleet.controller.attserver_key(2).is_none());
    assert_eq!(c.customer_anchors.len(), 3);
}

#[test]
fn anchors_outlive_a_crash_of_the_node_they_name() {
    let mut c = CloudBuilder::new()
        .servers(2)
        .seed(1208)
        .control_plane(3, 2)
        .build();
    let property = SecurityProperty::RuntimeIntegrity;
    let vid = c
        .request_vm(VmRequest::new(Flavor::Small, Image::Cirros).require(property))
        .unwrap();
    let replica = c.control_plane().preferred_replica(vid);
    let instance = c.control_plane().shard_of(vid);
    let server = c.server_of(vid).unwrap();
    // A recovery re-keys channels, never long-term identities: the same
    // bound keys verify the next session, through the same nodes.
    for node in [
        NodeId::AttestationServer(replica),
        NodeId::Controller(instance),
        NodeId::Server(server),
    ] {
        c.crash_node(node);
        c.recover_node(node);
        let report = c.runtime_attest_current(vid, property).unwrap();
        assert!(report.healthy(), "after {node}");
    }
    let stats = c.protocol_stats();
    assert_eq!(stats.sessions_failed, 0, "{stats:?}");
    assert!(c.outage_stats().rehandshakes >= 3);
}
