//! The four workloads. Each is a closed loop on one thread: the next
//! call is made when the previous one returned. Sizes and fault rates
//! were probed on the reference host and then frozen; the reasons each
//! workload exists are in `benchmark/README.md` and `BENCHMARK.json`.

use crate::scenario::{Api, Recorder, Scenario};
use crate::spec::{Seeds, Work, Workload};
use monatt_core::{
    Cloud, CloudBuilder, Flavor, Image, OutageModel, ResponseAction, SecurityProperty, Vid,
    VmRequest, WorkloadSpec,
};
use monatt_net::sim::FaultModel;
use monatt_workloads::programs::SpecProgram;
use monatt_workloads::services::CloudService;

/// Builds `workload` from `seeds`, through warm-up, ready for its
/// timed phase. `idle_twin` swaps every guest for an idle one.
pub fn setup(workload: Workload, seeds: Seeds, idle_twin: bool) -> Box<dyn Scenario> {
    match workload {
        Workload::OneshotIdle => Box::new(OneshotIdle::setup(seeds)),
        Workload::BusyWindow => Box::new(BusyWindow::setup(seeds, idle_twin)),
        Workload::FleetRound => Box::new(FleetRound::setup(seeds)),
        Workload::LifecycleMix => Box::new(LifecycleMix::setup(seeds)),
    }
}

/// Launches `count` Small/Cirros VMs requiring `RuntimeIntegrity`, the
/// `i`-th running `guest(i)`.
fn launch_fleet(
    cloud: &mut Cloud,
    count: usize,
    guest: impl Fn(usize) -> WorkloadSpec,
) -> Vec<Vid> {
    (0..count)
        .map(|i| {
            cloud
                .request_vm(
                    VmRequest::new(Flavor::Small, Image::Cirros)
                        .require(SecurityProperty::RuntimeIntegrity)
                        .workload(guest(i)),
                )
                .expect("launch on a healthy, fault-free fleet")
        })
        .collect()
}

// ---- oneshot_idle ------------------------------------------------------

/// VMs in the `oneshot_idle` fleet (the `BENCH_protocol.json` fleet).
pub const ONESHOT_FLEET: usize = 1_000;
/// Untimed calls that warm the session arena, wire buffers and wheel.
const WARMUP_CALLS: usize = 32;

/// The protocol path alone: idle guests, dormant control plane, clean
/// network, one flat Figure-3 session per call.
struct OneshotIdle {
    cloud: Cloud,
    order: Vec<Vid>,
    cursor: usize,
}

impl OneshotIdle {
    fn setup(mut seeds: Seeds) -> Self {
        let mut cloud = CloudBuilder::new()
            .servers(ONESHOT_FLEET.div_ceil(16))
            .pcpus_per_server(16)
            .seed(seeds.cloud)
            .build();
        cloud.set_network_logging(false);
        let mut order = launch_fleet(&mut cloud, ONESHOT_FLEET, |_| WorkloadSpec::Idle);
        seeds.order.shuffle(&mut order);
        for &vid in order.iter().take(WARMUP_CALLS) {
            cloud
                .runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
                .expect("warm-up attestation on a clean network");
        }
        OneshotIdle {
            cloud,
            order,
            cursor: 0,
        }
    }
}

impl Scenario for OneshotIdle {
    fn cloud(&mut self) -> &mut Cloud {
        &mut self.cloud
    }

    fn run_slice(&mut self, _index: usize, work: Work, rec: &mut Recorder) {
        for _ in 0..work.per_slice {
            let vid = self.order[self.cursor % self.order.len()];
            self.cursor += 1;
            let cloud = &mut self.cloud;
            let result = rec.call(Api::RuntimeAttest, || {
                cloud.runtime_attest_current(vid, SecurityProperty::RuntimeIntegrity)
            });
            rec.healthy_report("runtime_attest_current", result);
        }
    }
}

// ---- busy_window -------------------------------------------------------

/// VMs in the `busy_window` fleet: 8 servers x 4 pCPUs, 8 single-vCPU
/// guests each, so every pCPU carries two vCPUs.
pub const BUSY_FLEET: usize = 64;
/// Servers of the `busy_window` fleet.
pub const BUSY_SERVERS: usize = 8;
/// pCPUs per `busy_window` server.
pub const BUSY_PCPUS: usize = 4;

/// The guest kinds the fleet cycles through.
pub const BUSY_GUESTS: [WorkloadSpec; 8] = [
    WorkloadSpec::Busy,
    WorkloadSpec::Service(CloudService::Database),
    WorkloadSpec::Service(CloudService::File),
    WorkloadSpec::Service(CloudService::Web),
    WorkloadSpec::Service(CloudService::App),
    WorkloadSpec::Service(CloudService::Stream),
    WorkloadSpec::Service(CloudService::Mail),
    WorkloadSpec::Program(SpecProgram::Bzip2),
];

/// The properties the calls cycle through; all but
/// `RuntimeIntegrity` open a one-second measurement window.
pub const BUSY_PROPERTIES: [SecurityProperty; 4] = [
    SecurityProperty::CpuAvailability { min_share_pct: 10 },
    SecurityProperty::RuntimeIntegrity,
    SecurityProperty::SchedulerFairness,
    SecurityProperty::CovertChannelFreedom,
];

/// A short name for a guest kind.
pub fn guest_name(guest: WorkloadSpec) -> String {
    match guest {
        WorkloadSpec::Idle => "idle".into(),
        WorkloadSpec::Busy => "busy".into(),
        WorkloadSpec::Service(s) => format!("service-{}", s.name()),
        WorkloadSpec::Program(p) => format!("program-{}", p.name()),
        WorkloadSpec::CovertSender => "covert-sender".into(),
        WorkloadSpec::BoostAttack => "boost-attack".into(),
    }
}

/// Busy guests and measurement windows: every call makes one server's
/// simulator catch up over the virtual time the other calls took.
struct BusyWindow {
    cloud: Cloud,
    /// Per server, its `(vid, index into BUSY_GUESTS)` in the seeded
    /// order they are called in.
    by_server: Vec<Vec<(Vid, usize)>>,
    cursor: usize,
    /// `[guest][property] -> (healthy, unhealthy)`.
    verdicts: [[(u64, u64); 4]; 8],
    idle_twin: bool,
}

impl BusyWindow {
    fn setup(mut seeds: Seeds, idle_twin: bool) -> Self {
        let mut cloud = CloudBuilder::new()
            .servers(BUSY_SERVERS)
            .pcpus_per_server(BUSY_PCPUS)
            .seed(seeds.cloud)
            .build();
        cloud.set_network_logging(false);
        // Placement is emptiest-server-first, so eight consecutive
        // launches land on eight different servers: launching the
        // kinds in runs of eight gives every server one guest of each
        // kind, whatever the seed.
        let kinds: Vec<usize> = (0..BUSY_FLEET).map(|i| i / BUSY_SERVERS).collect();
        let vids = launch_fleet(&mut cloud, BUSY_FLEET, |i| match idle_twin {
            true => WorkloadSpec::Idle,
            false => BUSY_GUESTS[kinds[i]],
        });
        let mut by_server = vec![Vec::new(); BUSY_SERVERS];
        for (vid, kind) in vids.into_iter().zip(kinds) {
            let server = cloud.server_of(vid).expect("launched a moment ago");
            by_server[server.0 as usize].push((vid, kind));
        }
        for guests in &mut by_server {
            seeds.order.shuffle(guests);
        }
        let mut scenario = BusyWindow {
            cloud,
            by_server,
            cursor: 0,
            verdicts: Default::default(),
            idle_twin,
        };
        // One untimed slice-worth of calls warms arena and buffers.
        let mut warm = Recorder::new(false, 16);
        scenario.run_slice(
            0,
            Work {
                slices: 1,
                per_slice: 16,
            },
            &mut warm,
        );
        scenario.cursor = 0;
        scenario.verdicts = Default::default();
        scenario
    }
}

impl Scenario for BusyWindow {
    fn cloud(&mut self) -> &mut Cloud {
        &mut self.cloud
    }

    fn run_slice(&mut self, _index: usize, work: Work, rec: &mut Recorder) {
        for _ in 0..work.per_slice {
            let n = self.cursor;
            self.cursor += 1;
            // Servers take turns, so every call makes its server catch
            // up over the same eight calls' worth of virtual time, and
            // every slice of four calls holds all four properties. A
            // server's guests take turns lap by lap, and the property
            // cycle shifts every lap and every eight, so each guest
            // meets each property.
            let (server, lap) = (n % BUSY_SERVERS, n / BUSY_SERVERS);
            let guests = &self.by_server[server];
            let (vid, guest) = guests[lap % guests.len()];
            let p = (server + lap + lap / guests.len()) % BUSY_PROPERTIES.len();
            let property = BUSY_PROPERTIES[p];
            let cloud = &mut self.cloud;
            let result = rec.call(Api::RuntimeAttest, || {
                cloud.runtime_attest_current(vid, property)
            });
            let Some(report) = rec.expect_ok("runtime_attest_current", result) else {
                continue;
            };
            // Two detectors do fire on this honest fleet, and their
            // verdicts are tallied and pinned, not hidden: co-resident
            // CPU-bound guests at 2x oversubscription trip the
            // covert-channel two-peak test, and I/O-bound or finished
            // guests use less than the 10 % CPU floor. The other two
            // properties, and everything on idle guests bar the CPU
            // floor, must be healthy.
            let may_flag = match property {
                SecurityProperty::CpuAvailability { .. } => true,
                SecurityProperty::CovertChannelFreedom => !self.idle_twin,
                _ => false,
            };
            rec.check(report.healthy() || may_flag, || {
                format!("{vid} {property} judged {:?}", report.status)
            });
            let tally = &mut self.verdicts[guest][p];
            match report.healthy() {
                true => tally.0 += 1,
                false => tally.1 += 1,
            }
            rec.report(&report);
        }
    }

    fn verdict_table(&self) -> Vec<(String, SecurityProperty, u64, u64)> {
        let mut table = Vec::new();
        for (guest, row) in BUSY_GUESTS.iter().zip(self.verdicts) {
            for (property, (healthy, unhealthy)) in BUSY_PROPERTIES.iter().zip(row) {
                table.push((guest_name(*guest), *property, healthy, unhealthy));
            }
        }
        table
    }
}

// ---- fleet_round -------------------------------------------------------

/// Periodic subscriptions in the `fleet_round` fleet. One
/// `Cloud::run` call drains every session it starts, which takes at
/// least one session latency (437 ms) of virtual time, so a slice
/// holds about 0.3 x fleet sessions whatever its length: 512
/// subscriptions give 100 slices of ~150 sessions in the two seconds
/// one repetition has.
pub const ROUND_FLEET: usize = 512;
/// The shared subscription period.
const ROUND_PERIOD_US: u64 = 1_000_000;
/// Virtual warm-up before the timed phase.
const ROUND_WARMUP_US: u64 = 3_000_000;
/// Controller instances and AS replicas.
pub const ROUND_CONTROL_PLANE: (u32, u32) = (3, 2);
/// Msg-4 coalescing window (us) and batch cap.
pub const ROUND_AS_BATCH: (u64, usize) = (2_000, 64);
/// Drop, duplicate and delay probabilities; the delay is 20 ms.
pub const ROUND_FAULTS: (f64, f64, f64, u64) = (0.02, 0.01, 0.01, 20_000);

/// Server MTBF and MTTR, virtual microseconds.
pub const ROUND_SERVER_MTBF: (u64, u64) = (60_000_000, 5_000_000);
/// Control-plane MTBF and MTTR, virtual microseconds.
pub const ROUND_CONTROL_MTBF: (u64, u64) = (30_000_000, 3_000_000);

/// The realistic fleet: concurrent periodic sessions under message
/// faults, server and control-plane outages, msg-4 batching, route
/// pinning, failover and lazy re-keying.
struct FleetRound {
    cloud: Cloud,
    subscriptions: Vec<u64>,
    timed_from_us: u64,
}

impl FleetRound {
    fn setup(mut seeds: Seeds) -> Self {
        let (k, n) = ROUND_CONTROL_PLANE;
        let mut cloud = CloudBuilder::new()
            .servers(ROUND_FLEET.div_ceil(16))
            .pcpus_per_server(16)
            .seed(seeds.cloud)
            .control_plane(k, n)
            .shards(4)
            .as_batch(ROUND_AS_BATCH.0, ROUND_AS_BATCH.1)
            .session_deadline(2_000_000)
            .build();
        cloud.set_network_logging(false);
        let mut vids = launch_fleet(&mut cloud, ROUND_FLEET, |_| WorkloadSpec::Idle);
        seeds.order.shuffle(&mut vids);
        let subscriptions = vids
            .iter()
            .map(|&vid| {
                let id = cloud
                    .runtime_attest_periodic(
                        vid,
                        SecurityProperty::RuntimeIntegrity,
                        ROUND_PERIOD_US,
                    )
                    .expect("subscribe a launched VM");
                // Stagger the phases across one period.
                cloud.advance(ROUND_PERIOD_US / ROUND_FLEET as u64);
                id
            })
            .collect();
        let (drop, duplicate, delay, delay_us) = ROUND_FAULTS;
        cloud.network_mut().set_fault_model(
            FaultModel::new(seeds.faults)
                .drop_prob(drop)
                .duplicate_prob(duplicate)
                .delay(delay, delay_us),
        );
        // The renewal process draws lifetimes within +-50 % of the
        // mean, so of the ~50 virtual seconds a repetition covers the
        // first server crashes fall after 30 and the first
        // control-plane crashes after 15. Tuned once so the failed
        // share sits between 0.02 and 0.06, then frozen.
        cloud.set_outage_model(
            OutageModel::new(seeds.outages)
                .mtbf(ROUND_SERVER_MTBF.0, ROUND_SERVER_MTBF.1)
                .control_plane_mtbf(ROUND_CONTROL_MTBF.0, ROUND_CONTROL_MTBF.1),
        );
        cloud.run(ROUND_WARMUP_US);
        let timed_from_us = cloud.wall_clock_us();
        FleetRound {
            cloud,
            subscriptions,
            timed_from_us,
        }
    }
}

impl Scenario for FleetRound {
    fn cloud(&mut self) -> &mut Cloud {
        &mut self.cloud
    }

    fn run_slice(&mut self, _index: usize, work: Work, rec: &mut Recorder) {
        let cloud = &mut self.cloud;
        rec.call(Api::RunSlice, || cloud.run(work.per_slice as u64));
    }

    fn expected_reports(&self, _work: Work) -> usize {
        // Reports stay inside the cloud until `finish` collects them.
        0
    }

    fn finish(&mut self, _work: Work, rec: &mut Recorder) {
        for &id in &self.subscriptions {
            let reports = self.cloud.stop_attest_periodic(id);
            let Some(reports) = rec.expect_ok("stop_attest_periodic", reports) else {
                continue;
            };
            for report in reports
                .iter()
                .filter(|r| r.issued_at_us > self.timed_from_us)
            {
                match report.status.is_unreachable() {
                    // An escalation marker, not a measured latency.
                    true => rec.digest.report(report),
                    false => rec.report(report),
                }
            }
        }
    }
}

// ---- lifecycle_mix -----------------------------------------------------

/// Resident idle VMs that every launch and response walks past.
pub const LIFECYCLE_RESIDENT: usize = 1_024;
/// Servers of the `lifecycle_mix` fleet (16 pCPUs each).
pub const LIFECYCLE_SERVERS: usize = 96;
/// Engine sessions one lifecycle round runs.
pub const LIFECYCLE_SESSIONS_PER_ROUND: u64 = 11;
/// Reports one lifecycle round returns.
const LIFECYCLE_REPORTS_PER_ROUND: usize = 6;

/// The properties of the fan-out step.
pub const LIFECYCLE_FANOUT: [SecurityProperty; 4] = [
    SecurityProperty::RuntimeIntegrity,
    SecurityProperty::StartupIntegrity,
    SecurityProperty::CovertChannelFreedom,
    SecurityProperty::SchedulerFairness,
];

/// The property of the three plain runtime attestations. No earlier
/// step of the round measures it, so the first is an evidence-cache
/// miss, the second (inside the 2 s window) a hit, and the third a
/// miss again because the migration invalidated the evidence.
const LIFECYCLE_RUNTIME: SecurityProperty = SecurityProperty::CpuAvailability { min_share_pct: 0 };

/// The write side: placement, measured boot, domain create/destroy,
/// fork/join programs, cache fill and invalidation.
struct LifecycleMix {
    cloud: Cloud,
    round: usize,
    /// Seeded offsets into the flavor and image cycles.
    offsets: (usize, usize),
}

impl LifecycleMix {
    fn setup(mut seeds: Seeds) -> Self {
        let mut cloud = CloudBuilder::new()
            .servers(LIFECYCLE_SERVERS)
            .pcpus_per_server(16)
            .seed(seeds.cloud)
            .evidence_cache(2_000_000)
            .avk_cert_cache(true)
            // The certified-AVK cache only ever hits when servers
            // present the same attestation key again.
            .reuse_avk(true)
            .build();
        cloud.set_network_logging(false);
        launch_fleet(&mut cloud, LIFECYCLE_RESIDENT, |_| WorkloadSpec::Idle);
        let offsets = (
            (seeds.order.next_u64() % 3) as usize,
            (seeds.order.next_u64() % 3) as usize,
        );
        let mut scenario = LifecycleMix {
            cloud,
            round: 0,
            offsets,
        };
        let mut warm = Recorder::new(false, 2 * LIFECYCLE_REPORTS_PER_ROUND);
        scenario.run_slice(
            0,
            Work {
                slices: 1,
                per_slice: 2,
            },
            &mut warm,
        );
        assert_eq!(warm.violation_count, 0, "warm-up: {:?}", warm.violations);
        scenario.round = 0;
        scenario
    }

    fn run_round(&mut self, rec: &mut Recorder) {
        let r = self.round;
        self.round += 1;
        let flavor = Flavor::ALL[(r + self.offsets.0) % 3];
        let image = Image::ALL[(r / 3 + self.offsets.1) % 3];
        let cloud = &mut self.cloud;
        let hits_before = cloud.evidence_cache_stats().0;

        let request = VmRequest::new(flavor, image)
            .require(SecurityProperty::StartupIntegrity)
            .workload(WorkloadSpec::Idle);
        let launched = rec.call(Api::RequestVm, || cloud.request_vm(request));
        let Some(vid) = rec.expect_ok("request_vm", launched) else {
            return;
        };
        let result = rec.call(Api::StartupAttest, || {
            cloud.startup_attest_current(vid, SecurityProperty::StartupIntegrity)
        });
        rec.healthy_report("startup_attest_current", result);
        let result = rec.call(Api::LayeredAttest, || {
            cloud.layered_attest(vid, SecurityProperty::RuntimeIntegrity)
        });
        rec.healthy_report("layered_attest", result);
        let result = rec.call(Api::MultiAttest, || {
            cloud.multi_attest(vid, &LIFECYCLE_FANOUT)
        });
        rec.healthy_report("multi_attest", result);
        for _ in 0..2 {
            let result = rec.call(Api::RuntimeAttest, || {
                cloud.runtime_attest_current(vid, LIFECYCLE_RUNTIME)
            });
            rec.healthy_report("runtime_attest_current", result);
        }
        let result = rec.call(Api::RespondMigration, || {
            cloud.respond(vid, ResponseAction::Migration)
        });
        rec.expect_ok("respond(Migration)", result);
        let result = rec.call(Api::RuntimeAttest, || {
            cloud.runtime_attest_current(vid, LIFECYCLE_RUNTIME)
        });
        rec.healthy_report("runtime_attest_current after migration", result);
        let result = rec.call(Api::RespondSuspension, || {
            cloud.respond(vid, ResponseAction::Suspension)
        });
        rec.expect_ok("respond(Suspension)", result);
        let result = rec.call(Api::Resume, || cloud.resume(vid));
        rec.expect_ok("resume", result);
        let result = rec.call(Api::RespondTermination, || {
            cloud.respond(vid, ResponseAction::Termination)
        });
        rec.expect_ok("respond(Termination)", result);

        let hits = cloud.evidence_cache_stats().0 - hits_before;
        rec.check(hits == 1, || {
            format!("round {r}: {hits} evidence-cache hits, expected 1")
        });
    }
}

impl Scenario for LifecycleMix {
    fn cloud(&mut self) -> &mut Cloud {
        &mut self.cloud
    }

    fn run_slice(&mut self, _index: usize, work: Work, rec: &mut Recorder) {
        for _ in 0..work.per_slice {
            self.run_round(rec);
        }
    }

    fn expected_reports(&self, work: Work) -> usize {
        work.slices * work.per_slice * LIFECYCLE_REPORTS_PER_ROUND
    }
}
