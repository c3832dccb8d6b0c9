//! Servers advanced together equal servers advanced alone: the cloud
//! catches its busy servers up on scoped helper threads, pulling them
//! from one queue, and that is exact only because each `ServerSim` is a
//! closed value. Four mixed servers — each with `busy_window`'s eight
//! guest kinds, jittered services seeded per server — run through the
//! same seeded deadlines once each on the calling thread and once pulled
//! by two scoped threads; every server's observable state must match at
//! every checkpoint, and so must what its drivers exported.

#[path = "../../hypervisor/tests/support/mod.rs"]
mod support;

use monatt_hypervisor::driver::BusyLoop;
use monatt_hypervisor::engine::ServerSim;
use monatt_hypervisor::scheduler::SchedParams;
use monatt_hypervisor::time::SimTime;
use monatt_hypervisor::vm::VmConfig;
use monatt_workloads::programs::SpecProgram;
use monatt_workloads::services::{CloudService, ServiceStatsHandle};
use proptest::test_runner::TestRng;
use std::sync::{Barrier, Mutex};
use support::{fold_observable, Retired};

const SERVERS: u64 = 4;
const CHECKPOINTS: usize = 24;

/// One server as `busy_window` builds it: four pCPUs, a busy loop, the
/// six services and bzip2, two vCPUs per pCPU. Returns the services'
/// request counters with it.
fn server(seed: u64) -> (ServerSim, Vec<ServiceStatsHandle>) {
    let mut sim = ServerSim::new(4, SchedParams::default());
    sim.create_vm(VmConfig::new("busy", vec![Box::new(BusyLoop)]));
    let mut requests = Vec::new();
    for (i, service) in CloudService::ALL.into_iter().enumerate() {
        let driver = service.driver(seed ^ (i as u64 + 1));
        requests.push(driver.stats());
        sim.create_vm(VmConfig::new(service.name(), vec![Box::new(driver)]));
    }
    let bzip2 = SpecProgram::Bzip2;
    sim.create_vm(VmConfig::new(bzip2.name(), vec![Box::new(bzip2.driver())]));
    (sim, requests)
}

/// The seeded deadlines: uneven steps from a few µs to 400 ms, so some
/// land mid-burst and some after long runs.
fn deadlines() -> Vec<SimTime> {
    let mut rng = TestRng::from_state(0x5eed_ca7c);
    let mut now = 0;
    (0..CHECKPOINTS)
        .map(|_| {
            now += rng.range(3, 400_000);
            SimTime::from_micros(now)
        })
        .collect()
}

/// Each checkpoint's `fold_observable` per server, and every service's
/// request count at the end.
type Run = (Vec<[u64; SERVERS as usize]>, Vec<u64>);

fn run(together: bool) -> Run {
    let (mut sims, stats): (Vec<ServerSim>, Vec<Vec<ServiceStatsHandle>>) =
        (0..SERVERS).map(|s| server(0x9e37 * (s + 1))).unzip();
    let mut observed = Vec::with_capacity(CHECKPOINTS);
    for deadline in deadlines() {
        if together {
            let queue = Mutex::new(sims.iter_mut());
            let pull = || queue.lock().unwrap().next();
            // Each thread takes a server before either runs one, so two
            // servers always run at once, on different threads.
            let both_hold_one = Barrier::new(2);
            let drain = || {
                let mut next = pull();
                both_hold_one.wait();
                while let Some(sim) = next {
                    sim.run_until_lazy(deadline);
                    next = pull();
                }
            };
            std::thread::scope(|scope| {
                scope.spawn(drain);
                scope.spawn(drain);
            });
        } else {
            for sim in &mut sims {
                sim.run_until_lazy(deadline);
            }
        }
        let mut seen = [0; SERVERS as usize];
        for (digest, sim) in seen.iter_mut().zip(&sims) {
            assert_eq!(sim.now(), deadline);
            *digest = fold_observable(sim, &Retired::default());
        }
        observed.push(seen);
    }
    let requests = stats.iter().flatten().map(|s| s.get().requests).collect();
    (observed, requests)
}

#[test]
fn servers_advanced_together_equal_servers_advanced_alone() {
    let (alone, alone_requests) = run(false);
    let (together, together_requests) = run(true);
    for (i, (a, t)) in alone.iter().zip(&together).enumerate() {
        assert_eq!(a, t, "checkpoint {i}: a server's state differs");
    }
    assert_eq!(alone_requests, together_requests);
    assert!(alone_requests.iter().all(|&r| r > 0));
}
