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
fn a_tampered_guest_does_not_touch_its_co_residents_shared_image() {
    use crate::interpret::ReferenceDb;
    use crate::measurements::{Measurement, MeasurementSpec};

    let mut c = cloud();
    let on_zero = || VmRequest::new(Flavor::Small, Image::Fedora).on_server(ServerId(0));
    let before = c.request_vm(on_zero()).unwrap();
    // No property at launch, so the tampered VM is placed rather than
    // rejected.
    let tampered = c.request_vm(on_zero().with_tampered_image()).unwrap();
    let after = c.request_vm(on_zero()).unwrap();

    let report = c
        .startup_attest_current(tampered, SecurityProperty::StartupIntegrity)
        .unwrap();
    assert!(!report.healthy(), "{report:?}");

    let expected = ReferenceDb::new().expected_image_hash(Image::Fedora);
    let node = c.server_mut(ServerId(0)).unwrap();
    for vid in [before, after] {
        let Some(Measurement::BootIntegrity { image_hash, .. }) =
            node.collect(MeasurementSpec::BootIntegrity, vid)
        else {
            panic!("{vid} is not on server 0");
        };
        assert_eq!(image_hash, expected, "{vid}");
        let guest = &node.sim().vm(node.local_vm(vid).unwrap()).unwrap().guest;
        assert!(
            std::ptr::eq(guest.image(), Image::Fedora.pristine()),
            "{vid}"
        );
    }
    let guest = &node
        .sim()
        .vm(node.local_vm(tampered).unwrap())
        .unwrap()
        .guest;
    assert!(!std::ptr::eq(guest.image(), Image::Fedora.pristine()));
    assert_eq!(
        monatt_crypto::sha256::sha256(Image::Fedora.pristine()),
        expected
    );
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
fn periodic_rounds_record_the_queue_depth() {
    let mut c = CloudBuilder::new().servers(4).seed(907).build();
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
    assert!(c.protocol_stats().max_queue_depth >= 1);
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
    let mut fresh = CloudBuilder::new().servers(4).seed(911).build();
    let vid = launch(&mut fresh);
    fresh.reset_protocol_stats();
    fresh.runtime_attest_current(vid, prop).unwrap();
    let flat_depth = fresh.protocol_stats().max_queue_depth;
    assert!(flat_depth >= 1);

    // Deep warm-up: eight concurrent subscriptions for a round.
    let mut c = CloudBuilder::new().servers(4).seed(911).build();
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
    // Read straight after a reset, the gauge is the events pending now
    // (nothing, here).
    assert_eq!(c.protocol_stats().max_queue_depth, 0);
    c.runtime_attest_current(vids[0], prop).unwrap();
    assert_eq!(
        c.protocol_stats().max_queue_depth,
        flat_depth,
        "the gauge is this session's depth, not the warm-up's"
    );
}

#[test]
fn a_past_due_event_fires_now_and_never_moves_the_clock_back() {
    use super::events::Events;
    use crate::session::CloudEvent;

    let mut events = Events::new(None);
    events.advance(1_000);
    events.schedule(2_000, CloudEvent::Msg4Flush);
    events.schedule(400, CloudEvent::Msg4Flush);
    assert!(events.pop().is_some());
    assert_eq!(events.now(), 1_000, "a past-due pop keeps the clock");
    assert!(events.pop().is_some());
    assert_eq!(events.now(), 2_000);
    assert!(events.pop().is_none());
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
fn layered_and_fanout_reports_are_deterministic() {
    fn run() -> (Vec<AttestationReport>, u64) {
        let mut c = CloudBuilder::new().servers(3).seed(41).build();
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
    assert_eq!(run(), run());
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

#[test]
fn a_bound_avk_rejects_exactly_what_the_bare_key_rejects() {
    use crate::measurements::{Measurement, MeasurementSpec};
    use crate::messages::MeasureResponse;

    let property = SecurityProperty::StartupIntegrity;
    // Twins that differ only in whether the pCA caches — and so, on a
    // reused key's second sight, binds — certified AVKs.
    let twin = |cache: bool| {
        let mut c = CloudBuilder::new()
            .servers(2)
            .seed(1209)
            .reuse_avk(true)
            .avk_cert_cache(cache)
            .build();
        // Three sessions: the launch's and two attestations.
        let vid = c
            .request_vm(VmRequest::new(Flavor::Small, Image::Cirros).require(property))
            .unwrap();
        for _ in 0..2 {
            assert!(c.startup_attest_current(vid, property).unwrap().healthy());
        }
        (c, vid)
    };
    // Validates `forge` applied to a genuine, reused-key message 4 at the
    // cloud's one AS replica, returning the verdict as a string.
    fn validate(c: &mut Cloud, vid: crate::types::Vid, forge: fn(&mut MeasureResponse)) -> String {
        let (spec, nonce3) = (MeasurementSpec::BootIntegrity, [5u8; 32]);
        let server = c.server_of(vid).unwrap();
        let node = c.server_mut(server).unwrap();
        let mut response: MeasureResponse = node.attest(vid, spec, nonce3).unwrap().into();
        forge(&mut response);
        let (attserver, scratch) = c.appraisers.routed(0).unwrap();
        match attserver.validate_response_with(&response, vid, spec, nonce3, scratch) {
            Ok(()) => "ok".into(),
            Err(e) => e.to_string(),
        }
    }
    let genuine: fn(&mut MeasureResponse) = |_| {};
    let flipped_s: fn(&mut MeasureResponse) = |r| {
        let mut s = r.quote.signature.s.to_be_bytes();
        s[31] ^= 1;
        r.quote.signature.s = monatt_crypto::bigint::U256::from_be_bytes(&s);
    };
    let tampered: fn(&mut MeasureResponse) = |r| {
        r.measurement = Measurement::BootIntegrity {
            platform_pcr: [0; 32],
            image_hash: [0; 32],
        };
    };
    let (mut bound, vid) = twin(true);
    let (mut bare, bare_vid) = twin(false);
    assert_eq!(bound.avk_cert_cache_stats(), (2, 1));
    assert_eq!(bound.appraisers.routed(0).unwrap().0.cached_avks(), (1, 1));
    assert_eq!(bare.appraisers.routed(0).unwrap().0.cached_avks(), (0, 0));
    for (name, forge) in [
        ("genuine", genuine),
        ("flipped s", flipped_s),
        ("tampered", tampered),
    ] {
        let verdict = validate(&mut bound, vid, forge);
        assert_eq!(verdict, validate(&mut bare, bare_vid, forge), "{name}");
        assert_eq!(verdict == "ok", name == "genuine", "{name}: {verdict}");
    }
    assert_eq!(bound.avk_cert_cache_stats(), (5, 1));
    // A recovery re-keys: the slot empties, the next session is a miss
    // verified bare, and the one after binds the key again.
    let server = bound.server_of(vid).unwrap();
    bound.crash_node(NodeId::Server(server));
    bound.recover_node(NodeId::Server(server));
    assert_eq!(bound.appraisers.routed(0).unwrap().0.cached_avks(), (0, 0));
    for (stats, slots) in [((5, 2), (1, 0)), ((6, 2), (1, 1))] {
        assert!(bound
            .startup_attest_current(vid, property)
            .unwrap()
            .healthy());
        assert_eq!(bound.avk_cert_cache_stats(), stats);
        assert_eq!(bound.appraisers.routed(0).unwrap().0.cached_avks(), slots);
    }
}

/// Every server's simulator clock, in id order.
fn server_clocks(c: &Cloud) -> Vec<u64> {
    c.fleet
        .nodes()
        .values()
        .map(|node| node.sim().now().as_micros())
        .collect()
}

#[test]
fn management_charges_move_only_the_clock() {
    let property = SecurityProperty::CpuAvailability { min_share_pct: 0 };
    let mut c = CloudBuilder::new()
        .servers(3)
        .seed(1210)
        .evidence_cache(2_000_000)
        .build();
    // Runs `call`, which names the servers it involved, then checks that
    // every other server kept its simulator clock and that one of them
    // now lags the wall clock.
    fn lazily(c: &mut Cloud, call: impl FnOnce(&mut Cloud) -> Vec<ServerId>) {
        let before = server_clocks(c);
        let involved = call(c);
        let after = server_clocks(c);
        let mut lagging = 0;
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if !involved.contains(&ServerId(i as u32)) {
                assert_eq!(a, b, "server {i} was caught up");
                lagging += usize::from(*a < c.wall_clock_us());
            }
        }
        assert!(lagging > 0, "no server lags the wall clock");
    }
    let request = VmRequest::new(Flavor::Small, Image::Cirros).require(property);
    let vid = c
        .request_vm(request.clone().on_server(ServerId(0)))
        .unwrap();
    lazily(&mut c, |c| {
        c.request_vm(request.on_server(ServerId(1))).unwrap();
        vec![ServerId(1)]
    });
    c.runtime_attest_current(vid, property).unwrap();
    let (hits, _) = c.evidence_cache_stats();
    // An evidence-cache hit touches no server at all.
    lazily(&mut c, |c| {
        c.runtime_attest_current(vid, property).unwrap();
        vec![]
    });
    assert_eq!(c.evidence_cache_stats().0, hits + 1);
    for action in [
        ResponseAction::Migration,
        ResponseAction::Suspension,
        ResponseAction::Termination,
    ] {
        lazily(&mut c, |c| {
            let from = c.server_of(vid).unwrap();
            c.respond(vid, action).unwrap();
            vec![from, c.server_of(vid).unwrap()]
        });
        if action == ResponseAction::Suspension {
            c.resume(vid).unwrap();
        }
    }
}

#[test]
fn lazy_management_charges_change_nothing() {
    use super::ResponseTiming;
    use crate::types::Vid;

    let runtime = SecurityProperty::CpuAvailability { min_share_pct: 0 };
    let fanout = [
        SecurityProperty::RuntimeIntegrity,
        SecurityProperty::StartupIntegrity,
        SecurityProperty::CovertChannelFreedom,
        SecurityProperty::SchedulerFairness,
    ];
    /// What a run shows: every report and response timing in call order,
    /// the counters, the DRBG position, and each live VM's CPU time.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        reports: Vec<AttestationReport>,
        responses: Vec<ResponseTiming>,
        stats: ProtocolStats,
        caches: [(u64, u64); 2],
        drbg: u64,
        cpu_us: Vec<(Vid, u64)>,
    }
    // `lifecycle_mix`'s round over a small busy fleet; `eager` settles
    // every server after each call, as `Cloud::advance` used to.
    let run = |eager: bool| {
        let mut c = CloudBuilder::new()
            .servers(4)
            .seed(1211)
            .evidence_cache(2_000_000)
            .avk_cert_cache(true)
            .reuse_avk(true)
            .build();
        for i in 0..6 {
            let workload = [WorkloadSpec::Idle, WorkloadSpec::Busy][i % 2];
            let request = VmRequest::new(Flavor::Small, Image::Cirros).workload(workload);
            c.request_vm(request).unwrap();
        }
        let (mut reports, mut responses) = (Vec::new(), Vec::new());
        let settle = |c: &mut Cloud| {
            if eager {
                c.sync_servers();
            }
        };
        for round in 0..3 {
            let request = VmRequest::new(Flavor::ALL[round % 3], Image::ALL[round % 3])
                .require(SecurityProperty::StartupIntegrity);
            let vid = c.request_vm(request).unwrap();
            settle(&mut c);
            let startup = SecurityProperty::StartupIntegrity;
            reports.push(c.startup_attest_current(vid, startup).unwrap());
            settle(&mut c);
            reports.push(
                c.layered_attest(vid, SecurityProperty::RuntimeIntegrity)
                    .unwrap(),
            );
            settle(&mut c);
            reports.push(c.multi_attest(vid, &fanout).unwrap());
            settle(&mut c);
            for _ in 0..2 {
                reports.push(c.runtime_attest_current(vid, runtime).unwrap());
                settle(&mut c);
            }
            responses.push(c.respond(vid, ResponseAction::Migration).unwrap());
            settle(&mut c);
            reports.push(c.runtime_attest_current(vid, runtime).unwrap());
            settle(&mut c);
            responses.push(c.respond(vid, ResponseAction::Suspension).unwrap());
            settle(&mut c);
            c.resume(vid).unwrap();
            settle(&mut c);
            responses.push(c.respond(vid, ResponseAction::Termination).unwrap());
            settle(&mut c);
        }
        c.sync_servers();
        let live: Vec<Vid> = c
            .fleet
            .controller
            .vms()
            .filter(|r| r.state != VmLifecycle::Terminated)
            .map(|r| r.vid)
            .collect();
        let cpu_us = live
            .into_iter()
            .map(|vid| {
                let node = c.server(c.server_of(vid).unwrap()).unwrap();
                let local = node.local_vm(vid).unwrap();
                (vid, node.sim().profile().vm_cpu_time_us(local))
            })
            .collect();
        Outcome {
            reports,
            responses,
            stats: c.protocol_stats(),
            caches: [c.evidence_cache_stats(), c.avk_cert_cache_stats()],
            drbg: c.drbg_probe(),
            cpu_us,
        }
    };
    let lazy = run(false);
    assert_eq!(lazy.caches[0].0, 3, "one evidence hit per round");
    assert!(lazy.cpu_us.iter().any(|&(_, us)| us > 0));
    assert_eq!(lazy, run(true));
}

/// Four servers: 0 and 1 carry a busy loop and a service, 2 and 3 only
/// idle guests. Returns the cloud and the VMs of servers 0 and 1.
fn two_busy_two_idle(seed: u64) -> Result<(Cloud, Vec<crate::types::Vid>), CloudError> {
    use monatt_workloads::services::CloudService;
    let mut c = CloudBuilder::new().servers(4).seed(seed).build();
    let mut busy = Vec::new();
    for server in 0..4 {
        let guests = match server {
            0 => [WorkloadSpec::Busy, WorkloadSpec::Service(CloudService::Web)],
            1 => [
                WorkloadSpec::Service(CloudService::Mail),
                WorkloadSpec::Busy,
            ],
            _ => [WorkloadSpec::Idle; 2],
        };
        for workload in guests {
            let request = VmRequest::new(Flavor::Small, Image::Cirros)
                .workload(workload)
                .on_server(ServerId(server));
            let vid = c.request_vm(request)?;
            if server < 2 {
                busy.push(vid);
            }
        }
    }
    Ok((c, busy))
}

#[test]
fn touching_a_busy_server_catches_up_the_busy_fleet_and_nothing_else() {
    let (mut c, busy) = two_busy_two_idle(1212).unwrap();
    c.sync_servers();
    let synced = c.wall_clock_us();
    c.events.advance(300_000);
    let now = c.wall_clock_us();
    c.server_mut(ServerId(1)).unwrap();
    assert_eq!(server_clocks(&c), [now, now, synced, synced]);
    c.events.advance(300_000);
    let before = server_clocks(&c);
    // A windowed attestation touches server 0 at the window's open and
    // close; each touch brings busy server 1 along.
    let property = SecurityProperty::CpuAvailability { min_share_pct: 10 };
    c.runtime_attest_current(busy[0], property).unwrap();
    let after = server_clocks(&c);
    assert!(after[0] > before[0] + 1_000_000, "{after:?}");
    assert_eq!(after[1], after[0], "the other busy server was left behind");
    assert_eq!(after[2..], before[2..], "an idle server was caught up");
    assert!(after.iter().all(|&t| t < c.wall_clock_us()));
    // Touching an idle server moves nothing else.
    c.events.advance(300_000);
    c.server_mut(ServerId(2)).unwrap();
    let idle_touch = server_clocks(&c);
    assert_eq!(idle_touch[2], c.wall_clock_us());
    assert_eq!(
        [idle_touch[0], idle_touch[1], idle_touch[3]],
        [after[0], after[1], after[3]]
    );
}

#[test]
fn busy_catch_up_changes_nothing() {
    use super::ResponseTiming;
    use crate::types::Vid;

    /// What a run shows: every report and response in call order, the
    /// counters, the DRBG position, and each live VM's CPU time.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        reports: Vec<AttestationReport>,
        responses: Vec<ResponseTiming>,
        stats: ProtocolStats,
        drbg: u64,
        cpu_us: Vec<(Vid, u64)>,
    }
    let windowed = [
        SecurityProperty::CpuAvailability { min_share_pct: 10 },
        SecurityProperty::SchedulerFairness,
        SecurityProperty::CovertChannelFreedom,
    ];
    // `busy_window`'s calls on a small fleet; `eager` settles every
    // server after each call.
    let run = |eager: bool| {
        let (mut c, busy) = two_busy_two_idle(1213).unwrap();
        let (mut reports, mut responses) = (Vec::new(), Vec::new());
        let settle = |c: &mut Cloud| {
            if eager {
                c.sync_servers();
            }
        };
        for (i, &vid) in busy.iter().enumerate() {
            for property in windowed {
                reports.push(c.runtime_attest_current(vid, property).unwrap());
                settle(&mut c);
            }
            // A busy guest moved onto an idle server makes it busy.
            let action = [ResponseAction::Migration, ResponseAction::Suspension][i % 2];
            responses.push(c.respond(vid, action).unwrap());
            settle(&mut c);
            if action == ResponseAction::Suspension {
                c.resume(vid).unwrap();
                settle(&mut c);
            }
            reports.push(c.runtime_attest_current(vid, windowed[i % 3]).unwrap());
            settle(&mut c);
        }
        c.sync_servers();
        let cpu_us = busy
            .iter()
            .map(|&vid| {
                let node = c.server(c.server_of(vid).unwrap()).unwrap();
                let local = node.local_vm(vid).unwrap();
                (vid, node.sim().profile().vm_cpu_time_us(local))
            })
            .collect();
        Outcome {
            reports,
            responses,
            stats: c.protocol_stats(),
            drbg: c.drbg_probe(),
            cpu_us,
        }
    };
    let lazy = run(false);
    assert!(lazy.cpu_us.iter().all(|&(_, us)| us > 0));
    assert_eq!(lazy, run(true));
}

/// How a run verifies signatures: inline on the event loop; with the
/// verification helper; with receivers that await even queued jobs, so
/// every verdict is the helper's; or with a helper slowed until
/// receivers await its running jobs, claim queued ones back and find
/// the ring full.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Helper {
    Inline,
    Serving,
    Patient,
    Lagging,
}

fn with_helper(c: &mut Cloud, helper: Helper) {
    c.fleet.workers = if helper == Helper::Inline { 1 } else { 2 };
    c.offload.patient = helper == Helper::Patient;
    if helper == Helper::Lagging {
        c.offload.lag = std::time::Duration::from_micros(300);
    }
}

#[test]
fn the_verification_helper_changes_nothing() {
    use crate::controlplane::ControlPlaneStats;
    use crate::outage::{OutageModel, OutageStats};
    use crate::types::Vid;
    use monatt_net::sim::{FaultModel, FaultStats};

    /// Everything a run shows: each subscription's reports, every failed
    /// sample's typed error, the four counter sets and the DRBG position.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        reports: Vec<Vec<AttestationReport>>,
        failures: Vec<(Vid, CloudError)>,
        stats: ProtocolStats,
        outages: OutageStats,
        control_plane: ControlPlaneStats,
        faults: Option<FaultStats>,
        drbg: u64,
    }
    let property = SecurityProperty::RuntimeIntegrity;
    // A replicated control plane under message faults and server and
    // control-plane outages, over three runs; returns the outcome and
    // the helper verdicts receivers took and claimed back.
    let run = |batch: bool, reuse: bool, helper: Helper| {
        let mut b = CloudBuilder::new()
            .servers(4)
            .seed(1214)
            .control_plane(3, 2)
            .reuse_avk(reuse)
            .avk_cert_cache(reuse)
            .session_deadline(2_000_000);
        if batch {
            b = b.as_batch(2_000, 4);
        }
        let mut c = b.build();
        with_helper(&mut c, helper);
        let subs: Vec<u64> = (0..12)
            .map(|i| {
                let request = VmRequest::new(Flavor::Small, Image::ALL[i % 3]);
                let vid = c.request_vm(request).unwrap();
                let id = c.runtime_attest_periodic(vid, property, 100_000).unwrap();
                c.advance(10_000);
                id
            })
            .collect();
        let faults = FaultModel::new(1215)
            .drop_prob(0.05)
            .duplicate_prob(0.05)
            .delay(0.05, 20_000);
        c.network_mut().set_fault_model(faults);
        let outages = OutageModel::new(1216)
            .mtbf(3_000_000, 200_000)
            .control_plane_mtbf(3_000_000, 200_000);
        c.set_outage_model(outages);
        for _ in 0..3 {
            c.run(1_500_000);
        }
        let reports = subs
            .iter()
            .map(|&id| c.stop_attest_periodic(id).unwrap())
            .collect();
        let outcome = Outcome {
            reports,
            failures: std::mem::take(&mut c.failures),
            stats: c.protocol_stats(),
            outages: c.outage_stats(),
            control_plane: c.control_plane_stats(),
            faults: c.network_mut().fault_stats(),
            drbg: c.drbg_probe(),
        };
        (outcome, c.offload.taken())
    };
    for (batch, reuse) in [(false, false), (true, false), (false, true), (true, true)] {
        let case = format!("as_batch {batch}, reuse_avk {reuse}");
        let (inline, untouched) = run(batch, reuse, Helper::Inline);
        assert_eq!(untouched, (0, 0), "{case}: one worker built a ring");
        let stats = inline.stats;
        assert!(
            stats.sessions_completed > 2 * stats.sessions_failed,
            "{case}: {stats:?}"
        );
        assert!(!inline.failures.is_empty(), "{case}: nothing failed");
        assert!(inline.outages.crashes > 0, "{case}: no outage");
        assert!(inline.control_plane.failovers > 0, "{case}: no failover");
        assert!(stats.retries > 0, "{case}: no message fault");
        assert_eq!(stats.msg4_flushes > 0, batch, "{case}");
        let (serving, (taken, claimed)) = run(batch, reuse, Helper::Serving);
        assert!(taken + claimed > 0, "{case}: no job was submitted");
        assert_eq!(serving, inline, "{case}: the helper changed the run");
        let (patient, (taken, _)) = run(batch, reuse, Helper::Patient);
        assert!(taken > 0, "{case}: no verdict came from the helper");
        assert_eq!(
            patient, inline,
            "{case}: the helper's verdicts changed the run"
        );
        let (lagging, (_, claimed)) = run(batch, reuse, Helper::Lagging);
        assert!(claimed > 0, "{case}: no job was claimed back");
        assert_eq!(lagging, inline, "{case}: a lagging helper changed the run");
    }
}

/// A network attacker holding a leaked session key of one link: it
/// opens each record sent `from → to` with its twin of the receiving
/// end, rewrites the target VM's message, and re-seals it with its twin
/// of the sending end at the record's own sequence number.
struct Substitute {
    from: String,
    to: String,
    opener: monatt_net::channel::SecureChannel,
    sealer: monatt_net::channel::SecureChannel,
    msg: crate::protocol::MsgKind,
    target: crate::types::Vid,
    /// Re-sign the quote under `key`, or flip one quoted field.
    resign: bool,
    key: monatt_crypto::schnorr::SigningKey,
}

impl Substitute {
    /// Rewrites `plaintext` if it is the target's message.
    fn forge(&self, plaintext: &mut Vec<u8>) -> bool {
        use crate::measurements::Measurement;
        use crate::messages::{AttestationReportMsg, CustomerReportMsg, MeasureResponse};
        use crate::protocol::MsgKind;
        use crate::types::Vid;
        use monatt_net::wire::Wire;
        use monatt_tpm::quote::Quote;

        let resign = |quote: &mut Quote| quote.signature = self.key.sign(&quote.digest);
        let mut forged = Vec::new();
        match self.msg {
            MsgKind::Msg4 => {
                let Ok(mut r) = MeasureResponse::from_wire(plaintext) else {
                    return false;
                };
                if r.vid != self.target {
                    return false;
                }
                match (self.resign, &mut r.measurement) {
                    (true, _) => resign(&mut r.quote),
                    (false, Measurement::BootIntegrity { image_hash, .. }) => image_hash[0] ^= 1,
                    (false, _) => return false,
                }
                r.encode_into(&mut forged);
            }
            MsgKind::Msg5 => {
                let Ok(mut r) = AttestationReportMsg::from_wire(plaintext) else {
                    return false;
                };
                if r.vid != self.target {
                    return false;
                }
                match self.resign {
                    true => resign(&mut r.quote),
                    false => r.vid = Vid(r.vid.0 ^ 1),
                }
                r.encode_into(&mut forged);
            }
            _ => {
                let Ok(mut r) = CustomerReportMsg::from_wire(plaintext) else {
                    return false;
                };
                if r.vid != self.target {
                    return false;
                }
                match self.resign {
                    true => resign(&mut r.quote),
                    false => r.vid = Vid(r.vid.0 ^ 1),
                }
                r.encode_into(&mut forged);
            }
        }
        *plaintext = forged;
        true
    }
}

impl monatt_net::sim::NetworkAttacker for Substitute {
    fn intercept(&mut self, from: &str, to: &str, payload: &[u8]) -> monatt_net::sim::Intercept {
        use monatt_net::sim::Intercept;
        if from != self.from || to != self.to {
            return Intercept::Pass;
        }
        let Some(seq) = payload.first_chunk::<8>().map(|s| u64::from_be_bytes(*s)) else {
            return Intercept::Pass;
        };
        let Ok(mut plaintext) = self.opener.open(b"", payload) else {
            return Intercept::Pass;
        };
        // Keep the sealing twin at the sender's sequence number.
        while self.sealer.records_sent() < seq {
            self.sealer.seal(b"", b"");
        }
        if self.sealer.records_sent() != seq || !self.forge(&mut plaintext) {
            return Intercept::Pass;
        }
        Intercept::Modify(self.sealer.seal(b"", &plaintext))
    }
}

#[test]
fn a_verdict_never_vouches_for_other_bytes() {
    use crate::controlplane::CUSTOMER_ENDPOINT;
    use crate::links::LinkKey;
    use crate::protocol::MsgKind;
    use crate::types::Vid;

    let property = SecurityProperty::StartupIntegrity;
    // Four VMs on server 0 attest on one period, so their messages 4
    // share coalesced batches; the attacker rewrites the first VM's
    // message `msg` only. Returns each subscription's reports, every
    // failed sample's error and the helper verdicts receivers took.
    let run = |msg: MsgKind, resign: bool, helper: Helper| {
        let mut c = CloudBuilder::new()
            .servers(2)
            .seed(1217)
            .as_batch(2_000, 8)
            .build();
        with_helper(&mut c, helper);
        let vids: Vec<Vid> = (0..4)
            .map(|_| {
                let request = VmRequest::new(Flavor::Small, Image::Cirros).require(property);
                c.request_vm(request.on_server(ServerId(0))).unwrap()
            })
            .collect();
        let subs: Vec<u64> = vids
            .iter()
            .map(|&vid| c.runtime_attest_periodic(vid, property, 100_000).unwrap())
            .collect();
        let (controller, attserver) = (NodeId::Controller(0), NodeId::AttestationServer(0));
        let (link, from, to) = match msg {
            MsgKind::Msg4 => (
                LinkKey::AsServer(0, ServerId(0)),
                NodeId::Server(ServerId(0)).endpoint(),
                attserver.endpoint(),
            ),
            MsgKind::Msg5 => (
                LinkKey::CtrlAs(0, 0),
                attserver.endpoint(),
                controller.endpoint(),
            ),
            _ => (
                LinkKey::CustCtrl(0),
                controller.endpoint(),
                CUSTOMER_ENDPOINT.to_owned(),
            ),
        };
        // Every message 4, 5 and 6 is a reply: the link's initiator
        // receives it and its responder sends it.
        let (opener, sealer) = c.links.leak(link, 1218);
        let key = monatt_crypto::schnorr::SigningKey::generate(&mut Drbg::from_seed(1219));
        c.network_mut().set_attacker(Box::new(Substitute {
            from,
            to,
            opener,
            sealer,
            msg,
            target: vids[0],
            resign,
            key,
        }));
        c.run(2_000_000);
        let reports: Vec<_> = subs
            .iter()
            .map(|&id| c.stop_attest_periodic(id).unwrap())
            .collect();
        let failures = std::mem::take(&mut c.failures);
        (vids[0], reports, failures, c.offload.taken().0)
    };
    for (msg, quote) in [
        (MsgKind::Msg4, "Q3"),
        (MsgKind::Msg5, "Q2"),
        (MsgKind::Msg6, "Q1"),
    ] {
        for resign in [true, false] {
            let case = format!("{msg:?}, resign {resign}");
            let (target, reports, failures, untouched) = run(msg, resign, Helper::Inline);
            assert_eq!(untouched, 0, "{case}");
            // Every sample of the target fails on its quote; its
            // batch-mates pass throughout.
            assert!(failures.len() >= 2, "{case}: {failures:?}");
            for (vid, e) in &failures {
                assert_eq!(*vid, target, "{case}: {e}");
                assert!(e.to_string().contains(quote), "{case}: {e}");
            }
            assert!(reports[0].iter().all(|r| !r.healthy()), "{case}");
            for honest in &reports[1..] {
                assert!(honest.len() >= 2, "{case}: {honest:?}");
                assert!(honest.iter().all(AttestationReport::healthy), "{case}");
            }
            // With the helper's verdicts in flight, the same errors.
            for helper in [Helper::Serving, Helper::Patient] {
                let (_, served, served_failures, taken) = run(msg, resign, helper);
                let case = format!("{case}, {helper:?}");
                assert!(
                    helper != Helper::Patient || taken > 0,
                    "{case}: no verdict taken"
                );
                assert_eq!(served_failures, failures, "{case}: errors differ");
                assert_eq!(served, reports, "{case}: reports differ");
            }
        }
    }
}
