//! Schedule pin for the shipped workload drivers: the jittered cloud
//! services and the SPEC-like programs on one oversubscribed server,
//! folded window by window into digests that were generated on the
//! `BinaryHeap`/`BTreeMap` engine (see `monatt-hypervisor`'s
//! `tests/trace_pins.rs`, whose fold this suite shares). The services
//! draw ±20 % jitter per burst from a seeded RNG, so any reordering of
//! driver calls moves every later duration.
//!
//! Each window also holds the profile tool's interval registers to the
//! histogram of the window's logged segments, and the run is repeated
//! with the segment log off: state and registers must be equal window
//! by window.
//!
//! On a mismatch, regenerate only if the schedule was *meant* to move:
//! the failure message prints the digests to paste.

#[path = "../../hypervisor/tests/support/mod.rs"]
mod support;

use monatt_hypervisor::driver::{BusyLoop, WorkloadDriver};
use monatt_hypervisor::engine::ServerSim;
use monatt_hypervisor::scheduler::SchedParams;
use monatt_hypervisor::vm::VmConfig;
use monatt_workloads::programs::SpecProgram;
use monatt_workloads::services::CloudService;
use support::{
    check_registers_against_log, fold_observable, fold_segment, fold_state, Fold, Retired,
};

/// Digest after each 250 ms window.
const PINNED: [u64; 8] = [
    0xe542_5b35_c5c0_0889,
    0x95d0_f65a_ae2e_9b46,
    0x3aa0_5379_61ff_47d6,
    0x1bbd_e007_5e24_1fb4,
    0xa0d5_5649_0644_114a,
    0xe7a9_a95d_15f1_5375,
    0x955f_0383_90b4_866c,
    0x3d19_b8c3_1688_f016,
];

/// Runs the eight windows with the segment log on or off. Returns the
/// digest of segments and state after each window (only meaningful with
/// the log on) and each window's [`fold_observable`].
fn run(logging: bool) -> ([u64; 8], [u64; 8]) {
    // Four pCPUs, round-robin placement, three vCPUs per pCPU: one busy
    // loop, the six services, the three programs, and a two-vCPU VM.
    let mut sim = ServerSim::new(4, SchedParams::default());
    sim.profile_mut().set_logging(logging);
    sim.create_vm(VmConfig::new("busy", vec![Box::new(BusyLoop)]));
    for (i, service) in CloudService::ALL.into_iter().enumerate() {
        sim.create_vm(VmConfig::new(
            service.name(),
            vec![Box::new(service.driver(i as u64 + 1))],
        ));
    }
    for program in SpecProgram::ALL {
        sim.create_vm(VmConfig::new(
            program.name(),
            vec![Box::new(program.driver())],
        ));
    }
    let pair: Vec<Box<dyn WorkloadDriver>> = vec![
        Box::new(CloudService::Web.driver(40)),
        Box::new(CloudService::Mail.driver(41)),
    ];
    sim.create_vm(VmConfig::new("pair", pair).weight(512));

    let mut fold = Fold::new();
    let mut digests = [0_u64; 8];
    let mut observed = [0_u64; 8];
    for (window, (digest, seen)) in digests.iter_mut().zip(&mut observed).enumerate() {
        sim.run_for(250_000);
        if logging {
            check_registers_against_log(&sim, &Retired::default(), &format!("window {window}"));
            for seg in sim.profile().segments() {
                fold_segment(&mut fold, seg);
            }
        }
        fold_state(&mut fold, &sim, &Retired::default());
        *seen = fold_observable(&sim, &Retired::default());
        let now = sim.now();
        sim.profile_mut().reset_window(now);
        *digest = fold.finish();
    }
    (digests, observed)
}

#[test]
fn services_and_programs_reproduce_the_pinned_schedule() {
    let (got, logged) = run(true);
    let first = got.iter().zip(&PINNED).position(|(a, b)| a != b);
    assert!(
        first.is_none(),
        "schedule diverged in window {} (250 ms each); got {got:#018x?}",
        first.unwrap_or(0)
    );
    let (_, quiet) = run(false);
    assert_eq!(
        quiet, logged,
        "with the segment log off, state or interval registers differ"
    );
}
