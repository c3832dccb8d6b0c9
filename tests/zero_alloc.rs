//! Counting-allocator proof that the warm attestation path is
//! allocation-free, and pins on what the cloud keeps resident.
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! tallies every `alloc`/`realloc` call and the bytes it asked for per
//! thread (the harness runs the tests of this binary in parallel, one
//! thread each), and the thread's live bytes: what it allocated less
//! what it freed. The first test
//! builds a one-server cloud, launches a VM (the network transcript
//! log stays off, its default), and warms the session/arena/queue
//! buffers with a batch of direct attestations. After warm-up, every
//! further attestation round must perform **zero** heap allocations: the slab
//! arena recycles the session slot, `Wire::encode_into` reuses the
//! cloud's plaintext scratch, the channel seals and opens into retained
//! scratch buffers, and the event queue's heap has reached its
//! steady-state capacity.
//!
//! This pins the perf claim structurally: it is impossible for a later
//! change to quietly reintroduce per-round heap traffic without this
//! test failing. `warm_windowed_rounds_do_not_allocate` extends it to
//! the CPU-availability and scheduler-fairness rounds, which open a
//! measurement window, and `warm_covert_channel_rounds_allocate_only_the_bins`
//! holds a covert-channel round to its two usage-interval lists.
//! `busy_server_steady_state_does_not_allocate`
//! makes the same proof for the hypervisor simulator's event path, and
//! `unattested_busy_server_does_not_allocate` for a busy server whose
//! profile window is never reset. `pristine_launch_copies_no_image`
//! bounds the other side, the launch path: a guest booted from an
//! untampered image borrows the image's one shared copy.
//!
//! `rejected_message_4s_do_not_allocate` holds the Attestation Server's
//! rejections of a forged Q3 and of a wrong N3 to the genuine round's
//! zero.
//!
//! The live-byte pins difference two states of one cloud, so everything
//! the cloud holds once (keys, tables, link grids) cancels:
//! `churn_leaves_nothing_resident` holds launch → migrate → terminate
//! cycles to a constant live heap, and `bytes_per_resident_idle_vm`,
//! `bytes_per_in_flight_session` and `bytes_per_delivered_report` cap
//! what one more VM, one more concurrent session and one more held
//! periodic report cost. `a_second_replica_builds_no_second_identity_table`
//! caps what a second Attestation-Server replica costs below one
//! identity-key table per server.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;

use cloudmonatt::core::{
    Cloud, CloudBuilder, Flavor, Frequency, Image, ResponseAction, SecurityProperty, ServerId,
    VmRequest, WorkloadSpec,
};

struct CountingAlloc;

static TRACE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

thread_local! {
    static ALLOC_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static ALLOC_BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static LIVE_BYTES: std::cell::Cell<i64> = const { std::cell::Cell::new(0) };
    static LIVE_PEAK: std::cell::Cell<i64> = const { std::cell::Cell::new(0) };
    static IN_TRACE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count_call(bytes: usize) {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
    let _ = ALLOC_BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

/// Adds `bytes` (negative: frees them) to the calling thread's live
/// bytes. Memory freed on another thread than the one that allocated it
/// is subtracted there.
fn count_live(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = LIVE_PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn maybe_trace() {
    if TRACE.load(Ordering::Relaxed) {
        IN_TRACE.with(|g| {
            if !g.get() {
                g.set(true);
                let bt = std::backtrace::Backtrace::force_capture();
                eprintln!("--- alloc ---\n{bt}");
                g.set(false);
            }
        });
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call(layout.size());
        count_live(layout.size() as i64);
        maybe_trace();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call(new_size);
        count_live(new_size as i64 - layout.size() as i64);
        maybe_trace();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocator calls made by the calling thread so far.
fn alloc_count() -> u64 {
    ALLOC_CALLS.with(|calls| calls.get())
}

/// Bytes the calling thread has asked the allocator for so far (a
/// `realloc` counts its new size).
fn alloc_bytes() -> u64 {
    ALLOC_BYTES.with(|total| total.get())
}

/// The calling thread's live heap bytes: allocated less freed.
fn live_bytes() -> i64 {
    LIVE_BYTES.with(|live| live.get())
}

/// The most [`live_bytes`] has read since [`reset_live_peak`].
fn live_peak() -> i64 {
    LIVE_PEAK.with(|peak| peak.get())
}

fn reset_live_peak() {
    LIVE_PEAK.with(|peak| peak.set(live_bytes()));
}

#[test]
fn warm_attestation_rounds_do_not_allocate() {
    // Two configurations: the default, where every session certifies a
    // fresh attestation key, and a server reusing its key with the pCA
    // caching certificates, where Q3 verifies through the key the pCA
    // bound on the request's second sight (a warm-up allocation). Each
    // names the certified-AVK cache hits its measured rounds make.
    for (name, builder, cache_hits) in [
        ("fresh AVKs", CloudBuilder::new().servers(1).seed(77), 0),
        (
            "reused AVK",
            CloudBuilder::new()
                .servers(1)
                .seed(77)
                .reuse_avk(true)
                .avk_cert_cache(true),
            64,
        ),
    ] {
        let mut cloud = builder.build();

        // StartupIntegrity is the windowless Table-1 property: the whole
        // Msg1–Msg6 exchange runs inline with no usage-window events.
        let vid = cloud
            .request_vm(
                VmRequest::new(Flavor::Small, Image::Cirros)
                    .require(SecurityProperty::StartupIntegrity)
                    .workload(WorkloadSpec::Idle),
            )
            .expect("launch");

        // Warm-up: let every reusable buffer (session sealed/inbox,
        // cloud scratch, the event heap, channel replay windows) reach its
        // steady-state capacity.
        for _ in 0..32 {
            cloud
                .runtime_attest_current(vid, SecurityProperty::StartupIntegrity)
                .expect("warm-up attestation");
        }

        if std::env::var_os("ZERO_ALLOC_TRACE").is_some() {
            TRACE.store(true, Ordering::Relaxed);
            let _ = cloud.runtime_attest_current(vid, SecurityProperty::StartupIntegrity);
            TRACE.store(false, Ordering::Relaxed);
        }

        let (hits_before, _) = cloud.avk_cert_cache_stats();
        let before = alloc_count();
        let rounds = 64u64;
        for _ in 0..rounds {
            let report = cloud
                .runtime_attest_current(vid, SecurityProperty::StartupIntegrity)
                .expect("measured attestation");
            // Touch the report so the round cannot be optimised away.
            assert_eq!(report.vid, vid);
        }
        let delta = alloc_count() - before;
        let (hits_after, _) = cloud.avk_cert_cache_stats();
        assert_eq!(hits_after - hits_before, cache_hits, "{name}");

        assert_eq!(
            delta,
            0,
            "{name}: warm attestation path allocated {delta} times over {rounds} rounds \
             ({:.2} allocs/round); the hot path must be allocation-free",
            delta as f64 / rounds as f64
        );
    }
}

#[test]
fn warm_rounds_of_the_compiled_figure3_program_do_not_allocate() {
    // The same proof, but with the Figure-3 protocol explicitly
    // compiled from its IR term and driven through the program
    // interpreter entry point: the protocol-as-data layer must add no
    // warm-path allocations over the hand-written state machine it
    // replaced. Compilation itself allocates (once, cold) and happens
    // before the warm-up.
    use cloudmonatt::core::Protocol;

    let mut cloud = CloudBuilder::new().servers(1).seed(78).build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::StartupIntegrity)
                .workload(WorkloadSpec::Idle),
        )
        .expect("launch");
    let program = cloud
        .register_protocol(&Protocol::figure3_customer())
        .expect("compile figure 3");

    for _ in 0..32 {
        cloud
            .attest_with_program(vid, SecurityProperty::StartupIntegrity, program)
            .expect("warm-up attestation");
    }

    let before = alloc_count();
    let rounds = 64u64;
    for _ in 0..rounds {
        let report = cloud
            .attest_with_program(vid, SecurityProperty::StartupIntegrity, program)
            .expect("measured attestation");
        assert_eq!(report.vid, vid);
    }
    let delta = alloc_count() - before;

    assert_eq!(
        delta,
        0,
        "the compiled-program interpreter allocated {delta} times over {rounds} \
         warm rounds ({:.2} allocs/round); protocols-as-data must not cost heap \
         traffic on the warm path",
        delta as f64 / rounds as f64
    );
}

#[test]
fn warm_windowed_rounds_do_not_allocate() {
    // The two properties measured over a window whose measurement is a
    // fixed set of counters: opening the window and collecting the
    // VM's CPU time or PMU deltas reads the simulator's row and writes
    // nothing else. (A covert-channel round allocates its `bins` list,
    // one `Vec` per measurement copy.)
    for property in [
        SecurityProperty::CpuAvailability { min_share_pct: 0 },
        SecurityProperty::SchedulerFairness,
    ] {
        let mut cloud = CloudBuilder::new().servers(1).seed(79).build();
        let vid = cloud.request_vm(idle_vm()).expect("launch");
        for _ in 0..32 {
            cloud
                .runtime_attest_current(vid, property)
                .expect("warm-up attestation");
        }

        let before = alloc_count();
        let rounds = 64u64;
        for _ in 0..rounds {
            let report = cloud
                .runtime_attest_current(vid, property)
                .expect("measured attestation");
            assert_eq!(report.vid, vid);
        }
        let delta = alloc_count() - before;

        assert_eq!(
            delta, 0,
            "{property}: warm windowed rounds allocated {delta} times over {rounds} rounds"
        );
    }
}

#[test]
fn warm_covert_channel_rounds_allocate_only_the_bins() {
    // A covert-channel round measures the VM's 30 usage-interval bins.
    // Its warm cost is two allocations of 30 × 8 B each: the list the
    // server collects and the one the Attestation Server decodes from
    // message 4 (each sized once, never grown).
    const CALLS: u64 = 2;
    const BYTES: u64 = 2 * 30 * 8;
    let property = SecurityProperty::CovertChannelFreedom;
    let mut cloud = CloudBuilder::new().servers(1).seed(79).build();
    let vid = cloud.request_vm(idle_vm()).expect("launch");
    for _ in 0..32 {
        cloud
            .runtime_attest_current(vid, property)
            .expect("warm-up attestation");
    }

    let before = (alloc_count(), alloc_bytes());
    let rounds = 64u64;
    for _ in 0..rounds {
        let report = cloud
            .runtime_attest_current(vid, property)
            .expect("measured attestation");
        assert_eq!(report.vid, vid);
    }
    let (calls, bytes) = (alloc_count() - before.0, alloc_bytes() - before.1);

    assert_eq!(
        (
            calls / rounds,
            bytes / rounds,
            calls % rounds,
            bytes % rounds
        ),
        (CALLS, BYTES, 0, 0),
        "a warm covert-channel round made {calls} allocator calls for {bytes} B \
         over {rounds} rounds"
    );
}

#[test]
fn rejected_message_4s_do_not_allocate() {
    // A failed check names itself as a value: rejecting a forged Q3 or a
    // replayed N3 costs the Attestation Server no more heap than
    // accepting a genuine message 4 does.
    use cloudmonatt::core::messages::MeasureResponse;
    use cloudmonatt::core::{AttestationServer, CloudServerNode, ReferenceDb, ServerId, Vid};
    use cloudmonatt::crypto::bigint::U256;
    use cloudmonatt::crypto::drbg::Drbg;
    use cloudmonatt::hypervisor::driver::IdleDriver;
    use cloudmonatt::hypervisor::scheduler::SchedParams;
    use cloudmonatt::net::wire::EncodeScratch;

    let property = SecurityProperty::StartupIntegrity;
    let mut attserver = AttestationServer::new(&mut Drbg::from_seed(79));
    let mut node = CloudServerNode::boot(
        ServerId(0),
        1,
        SchedParams::default(),
        Drbg::from_seed(80),
        ReferenceDb::new().platform_components(),
        &[property],
    );
    attserver.register_cloud_server(node.identity_key());
    let image = Image::Cirros;
    let guest = vec![Box::new(IdleDriver) as _];
    node.launch_vm(Vid(1), image, image.pristine_bytes(), guest, 256);
    let (nonce3, replayed) = ([3u8; 32], [4u8; 32]);
    let request = attserver.build_measure_request(Vid(1), property, nonce3);
    let genuine = node
        .attest(Vid(1), request.spec, nonce3)
        .expect("the VM is hosted");
    // One signature byte flipped; the digest still matches its fields.
    let mut forged = genuine.clone();
    let mut s = forged.quote.signature.s.to_be_bytes();
    s[31] ^= 1;
    forged.quote.signature.s = U256::from_be_bytes(&s);

    let mut scratch = EncodeScratch::new();
    let mut validate = |response: &MeasureResponse, nonce3: [u8; 32]| {
        attserver
            .validate_response_with(response, Vid(1), request.spec, nonce3, &mut scratch)
            .is_ok()
    };
    for _ in 0..8 {
        assert!(validate(&genuine, nonce3), "warm-up");
    }
    let rounds = 16u64;
    for (name, response, nonce3, accepted) in [
        ("genuine", &genuine, nonce3, true),
        ("forged Q3", &forged, nonce3, false),
        ("wrong N3", &genuine, replayed, false),
    ] {
        let before = alloc_count();
        for _ in 0..rounds {
            assert_eq!(validate(response, nonce3), accepted, "{name}");
        }
        let delta = alloc_count() - before;
        assert_eq!(
            delta, 0,
            "{name}: message-4 validation allocated {delta} times over {rounds} rounds"
        );
    }
}

/// The eight guest kinds every `busy_window` server hosts, two vCPUs per
/// pCPU, on a four-pCPU server with the segment log off (its default).
fn busy_server() -> (
    cloudmonatt::hypervisor::engine::ServerSim,
    Vec<cloudmonatt::hypervisor::ids::VmId>,
) {
    use cloudmonatt::hypervisor::driver::{BusyLoop, WorkloadDriver};
    use cloudmonatt::hypervisor::engine::ServerSim;
    use cloudmonatt::hypervisor::scheduler::SchedParams;
    use cloudmonatt::hypervisor::vm::VmConfig;
    use cloudmonatt::workloads::{CloudService, SpecProgram};

    let mut sim = ServerSim::new(4, SchedParams::default());
    let mut guests: Vec<Box<dyn WorkloadDriver>> = vec![Box::new(BusyLoop)];
    for (i, service) in CloudService::ALL.into_iter().enumerate() {
        guests.push(Box::new(service.driver(i as u64 + 1)));
    }
    guests.push(Box::new(SpecProgram::Bzip2.driver()));
    let vms = guests
        .into_iter()
        .enumerate()
        .map(|(i, guest)| sim.create_vm(VmConfig::new(&format!("vm-{i}"), vec![guest])))
        .collect();
    (sim, vms)
}

#[test]
fn busy_server_steady_state_does_not_allocate() {
    // The simulator's half of the claim: a busy server replays its
    // credit-scheduler dynamics — in the measured second some 1 630
    // timer pops, 1 470 driver calls (none of them the busy loop's, which
    // committed once at creation), 675 run segments counted into the
    // interval registers and 34 accounting passes — without touching the
    // allocator.
    let (mut sim, vms) = busy_server();

    // One warm window, twice as long as the measured one: the run queues
    // reach a capacity the jittered second stays inside.
    sim.run_for(2_000_000);
    sim.reset_window();

    let before = alloc_count();
    sim.run_for(1_000_000);
    let delta = alloc_count() - before;

    let segments: u64 = vms.iter().flat_map(|&vm| sim.interval_registers(vm)).sum();
    assert!(
        segments > 500,
        "only {segments} segments: the server was not busy"
    );
    assert_eq!(
        delta, 0,
        "a busy server allocated {delta} times in one virtual second \
         ({segments} run segments); the event path must be allocation-free"
    );
}

#[test]
fn unattested_busy_server_does_not_allocate() {
    // Nobody opens a window on this server, so nothing ever resets its
    // profile: what it keeps per VM must not grow with the run.
    let (mut sim, vms) = busy_server();
    sim.run_for(2_000_000);

    let before = alloc_count();
    sim.run_for(100_000_000);
    let delta = alloc_count() - before;

    let cpu_us: u64 = vms.iter().map(|&vm| sim.window_cpu_time_us(vm)).sum();
    assert!(
        cpu_us > 200_000_000,
        "only {cpu_us} µs of CPU, under half of four pCPUs for 102 s: the server was not busy"
    );
    assert_eq!(
        delta, 0,
        "an unattested busy server allocated {delta} times in 100 virtual seconds; \
         its profile must be a fixed-size row per VM"
    );
}

#[test]
fn pristine_launch_copies_no_image() {
    // Every untampered guest borrows its image's one shared copy of the
    // 4 KiB pristine bytes, so a launch costs less heap than one image.
    // Each VM is terminated again, untimed, so the fleet never fills.
    fn launch(cloud: &mut cloudmonatt::core::Cloud) -> (u64, u64) {
        let before = (alloc_count(), alloc_bytes());
        let vid = cloud
            .request_vm(VmRequest::new(Flavor::Small, Image::Cirros).workload(WorkloadSpec::Idle))
            .expect("launch");
        let cost = (alloc_count() - before.0, alloc_bytes() - before.1);
        cloud
            .respond(vid, ResponseAction::Termination)
            .expect("terminate");
        cost
    }

    let mut cloud = CloudBuilder::new().servers(16).seed(79).build();
    for _ in 0..256 {
        launch(&mut cloud);
    }

    let launches = 256u64;
    let (calls, bytes) = (0..launches)
        .map(|_| launch(&mut cloud))
        .fold((0, 0), |(c, b), (dc, db)| (c + dc, b + db));
    let (calls, bytes) = (calls / launches, bytes / launches);
    assert!(
        bytes < 4096 && calls <= 8,
        "a pristine launch asked for {bytes} B in {calls} allocator calls; \
         its guest must borrow the shared image, not copy it"
    );
}

/// A Small Cirros idle VM that asks for no property: its launch runs no
/// protocol session.
fn idle_vm() -> VmRequest {
    VmRequest::new(Flavor::Small, Image::Cirros).workload(WorkloadSpec::Idle)
}

#[test]
fn churn_leaves_nothing_resident() {
    // Launch, migrate, terminate: the Deployment and Response modules'
    // whole cycle. A terminated VM keeps a tombstone bit in the nova
    // database and nothing else, on the controller or on either server.
    const SLACK_PER_CYCLE: i64 = 64;
    fn cycle(cloud: &mut cloudmonatt::core::Cloud) {
        let vid = cloud.request_vm(idle_vm()).expect("launch");
        cloud
            .respond(vid, ResponseAction::Migration)
            .expect("migrate");
        cloud
            .respond(vid, ResponseAction::Termination)
            .expect("terminate");
    }

    let mut cloud = CloudBuilder::new().servers(16).seed(80).build();
    for _ in 0..1_000 {
        cycle(&mut cloud);
    }
    let after_1000 = live_bytes();
    for _ in 0..3_000 {
        cycle(&mut cloud);
    }
    let per_cycle = (live_bytes() - after_1000) / 3_000;
    assert!(
        per_cycle <= SLACK_PER_CYCLE,
        "each launch/migrate/terminate cycle left {per_cycle} B live (at most \
         {SLACK_PER_CYCLE}): a VM that is gone must leave nothing behind"
    );
}

#[test]
fn bytes_per_resident_idle_vm() {
    // One more resident idle VM costs its controller record, its server's
    // slot (with its window baselines), its simulator rows (one VM row
    // holding its PMU counters and profile window, one row per vCPU) and
    // its workload handles. Ceiling: 1,083 B, the cost measured before a
    // terminated VM's rows were reclaimed, plus 10 %.
    const CEILING: i64 = 1_191;
    const N: i64 = 200;
    let mut cloud = CloudBuilder::new().servers(16).seed(81).build();
    let launch = |cloud: &mut cloudmonatt::core::Cloud| {
        for _ in 0..N {
            cloud.request_vm(idle_vm()).expect("launch");
        }
    };
    launch(&mut cloud);
    let with_n = live_bytes();
    launch(&mut cloud);
    let per_vm = (live_bytes() - with_n) / N;
    assert!(
        per_vm <= CEILING,
        "a resident idle VM costs {per_vm} B live (ceiling {CEILING})"
    );
}

#[test]
fn bytes_per_in_flight_session() {
    // Two clouds alike but for how many of their VMs subscribe to
    // periodic attestation. Every subscription's first session comes due
    // at one instant, so `Cloud::run` holds them all in flight at once;
    // the run's peak live heap over its start is their cost. Ceiling:
    // 1,942 B, the cost measured once a session stopped keeping its hop's
    // plaintext (2,294 B before), plus 10 %.
    const CEILING: i64 = 2_136;
    const VMS: usize = 128;
    let property = SecurityProperty::RuntimeIntegrity;
    let peak_over_start = |subscribed: usize| {
        let mut cloud = CloudBuilder::new().servers(16).seed(82).build();
        let vids: Vec<_> = (0..VMS)
            .map(|_| cloud.request_vm(idle_vm()).expect("launch"))
            .collect();
        for &vid in &vids[..subscribed] {
            cloud
                .runtime_attest_periodic(vid, property, 1_000_000)
                .expect("subscribe");
        }
        let start = live_bytes();
        reset_live_peak();
        cloud.run(1_500_000);
        let stats = cloud.protocol_stats();
        assert_eq!(stats.sessions_completed, subscribed as u64);
        assert_eq!(
            stats.max_in_flight, subscribed as u64,
            "all in flight at once"
        );
        live_peak() - start
    };
    let half = peak_over_start(VMS / 2);
    let full = peak_over_start(VMS);
    let per_session = (full - half) / (VMS / 2) as i64;
    assert!(
        per_session <= CEILING,
        "an in-flight session costs {per_session} B live (ceiling {CEILING})"
    );
}

#[test]
fn a_second_replica_builds_no_second_identity_table() {
    // Two clouds alike but for their Attestation-Server replicas, one or
    // two, each warmed until every server's identity key has been bound
    // by every replica that appraises it: eight VMs a server, each
    // attested three times. The second replica brings its own keys,
    // channels and pCA registrations, but the identity keys' tables are
    // shared: it must cost less than one more 8 KiB table per server.
    // It reads 92,184 B; with a table per replica, 230,168 B.
    const SERVERS: u32 = 16;
    const TABLE: i64 = 8 * 1024;
    let property = SecurityProperty::StartupIntegrity;
    let held = |replicas: u32| {
        let start = live_bytes();
        let builder = CloudBuilder::new().servers(SERVERS as usize).seed(84);
        let mut cloud = builder.control_plane(1, replicas).build();
        for server in (0..SERVERS).cycle().take(8 * SERVERS as usize) {
            let request = idle_vm().require(property).on_server(ServerId(server));
            let vid = cloud.request_vm(request).expect("launch");
            for _ in 0..3 {
                let report = cloud.startup_attest_current(vid, property);
                assert!(report.expect("attest").healthy());
            }
        }
        let held = live_bytes() - start;
        drop(cloud);
        held
    };
    let second = held(2) - held(1);
    assert!(
        second < i64::from(SERVERS) * TABLE,
        "a second replica costs {second} B live: at least one identity table \
         ({TABLE} B) per server ({SERVERS})"
    );
}

#[test]
fn bytes_per_delivered_report() {
    // A subscription holds every report it files until
    // `stop_attest_periodic`. Sixty-four idle VMs subscribe at random
    // intervals, so their logs fill out of step and no chunk boundary
    // lines up; the live heap the second half of the run adds, over the
    // reports it delivers, is what one report costs: a 24-byte record
    // and its share of a chunk. Ceiling: 27 B, the cost measured, plus
    // 10 %. Held as a `Vec<AttestationReport>`, a report cost 84 B here.
    const CEILING: i64 = 29;
    const VMS: usize = 64;
    const HALF_US: u64 = 60_000_000;
    let property = SecurityProperty::RuntimeIntegrity;
    let frequency = Frequency::Random {
        min_us: 500_000,
        max_us: 1_500_000,
    };
    let mut cloud = CloudBuilder::new().servers(16).seed(83).build();
    let subs: Vec<u64> = (0..VMS)
        .map(|_| {
            let vid = cloud.request_vm(idle_vm()).expect("launch");
            cloud
                .runtime_attest_with_frequency(vid, property, frequency)
                .expect("subscribe")
        })
        .collect();
    let delivered = |cloud: &Cloud| -> i64 {
        let health = subs.iter().map(|&s| cloud.subscription_health(s));
        health
            .map(|h| h.expect("subscribed").delivered as i64)
            .sum()
    };
    cloud.run(HALF_US);
    let (live, reports) = (live_bytes(), delivered(&cloud));
    cloud.run(HALF_US);
    let added = delivered(&cloud) - reports;
    assert!(added >= 1_000, "only {added} reports delivered");
    let per_report = (live_bytes() - live) / added;
    assert!(
        per_report <= CEILING,
        "a delivered report costs {per_report} B live (ceiling {CEILING})"
    );
}

#[test]
fn allocator_counter_is_live() {
    // Sanity-check the instrument itself: a boxed allocation must bump
    // the counter, otherwise the zero-delta assertion above proves
    // nothing.
    let before = alloc_count();
    let v: Vec<u64> = Vec::with_capacity(16);
    std::hint::black_box(&v);
    assert!(alloc_count() > before, "counting allocator not active");
}
