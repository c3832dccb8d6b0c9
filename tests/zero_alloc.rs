//! Counting-allocator proof that the warm attestation path is
//! allocation-free.
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! tallies every `alloc`/`realloc` call and the bytes it asked for per
//! thread (the harness runs the tests of this binary in parallel, one
//! thread each). The test
//! builds a one-server cloud, launches a VM (the network transcript
//! log stays off, its default), and warms the session/arena/queue
//! buffers with a batch of direct attestations. After warm-up, every
//! further attestation round must perform **zero** heap allocations: the slab
//! arena recycles the session slot, `Wire::encode_into` reuses the
//! session's wire buffer, the channel seals and opens into retained
//! scratch buffers, and the event queue's heap has reached its
//! steady-state capacity.
//!
//! This pins the perf claim structurally: it is impossible for a later
//! change to quietly reintroduce per-round heap traffic without this
//! test failing. `busy_server_steady_state_does_not_allocate` makes the
//! same proof for the hypervisor simulator's event path, and
//! `unattested_busy_server_does_not_allocate` for a busy server whose
//! profile window is never reset. `pristine_launch_copies_no_image`
//! bounds the other side, the launch path: a guest booted from an
//! untampered image borrows the image's one shared copy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;

use cloudmonatt::core::{
    CloudBuilder, Flavor, Image, ResponseAction, SecurityProperty, VmRequest, WorkloadSpec,
};

struct CountingAlloc;

static TRACE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

thread_local! {
    static ALLOC_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static ALLOC_BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static IN_TRACE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count_call(bytes: usize) {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
    let _ = ALLOC_BYTES.try_with(|total| total.set(total.get() + bytes as u64));
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
        maybe_trace();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call(new_size);
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

#[test]
fn warm_attestation_rounds_do_not_allocate() {
    let mut cloud = CloudBuilder::new().servers(1).seed(77).build();

    // StartupIntegrity is the windowless Table-1 property: the whole
    // Msg1–Msg6 exchange runs inline with no usage-window events.
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::StartupIntegrity)
                .workload(WorkloadSpec::Idle),
        )
        .expect("launch");

    // Warm-up: let every reusable buffer (session wire/sealed/inbox,
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

    assert_eq!(
        delta,
        0,
        "warm attestation path allocated {delta} times over {rounds} rounds \
         ({:.2} allocs/round); the hot path must be allocation-free",
        delta as f64 / rounds as f64
    );
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
    let now = sim.now();
    sim.profile_mut().reset_window(now);

    let before = alloc_count();
    sim.run_for(1_000_000);
    let delta = alloc_count() - before;

    let segments: u64 = vms
        .iter()
        .flat_map(|&vm| sim.profile().interval_registers(vm))
        .sum();
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

    let cpu_us: u64 = vms.iter().map(|&vm| sim.profile().vm_cpu_time_us(vm)).sum();
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
