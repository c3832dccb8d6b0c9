//! Counting-allocator proof that the warm attestation path is
//! allocation-free.
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! tallies every `alloc`/`realloc` call per thread (the harness runs
//! the tests of this binary in parallel, one thread each). The test
//! builds a one-server cloud, launches a VM (the network transcript
//! log stays off, its default), and warms the session/arena/wheel
//! buffers with a batch of direct attestations. After warm-up, every
//! further attestation round must perform **zero** heap allocations: the slab
//! arena recycles the session slot, `Wire::encode_into` reuses the
//! session's wire buffer, the channel seals and opens into retained
//! scratch buffers, and the timer wheel's slot `VecDeque`s have reached
//! their steady-state capacity.
//!
//! This pins the perf claim structurally: it is impossible for a later
//! change to quietly reintroduce per-round heap traffic without this
//! test failing. `busy_server_steady_state_does_not_allocate` makes the
//! same proof for the hypervisor simulator's event path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;

use cloudmonatt::core::{CloudBuilder, Flavor, Image, SecurityProperty, VmRequest, WorkloadSpec};

struct CountingAlloc;

static TRACE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

thread_local! {
    static ALLOC_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static IN_TRACE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count_call() {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
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
        count_call();
        maybe_trace();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
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
    // cloud scratch, wheel slots, channel replay windows) reach its
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

#[test]
fn busy_server_steady_state_does_not_allocate() {
    // The simulator's half of the claim: a busy server replays its
    // credit-scheduler dynamics — some 1 800 timer pops, as many driver
    // calls, ~700 run segments and 33 accounting passes per virtual
    // second — without touching the allocator. The guests are the eight kinds every
    // `busy_window` server hosts, two vCPUs per pCPU.
    use cloudmonatt::hypervisor::driver::{BusyLoop, WorkloadDriver};
    use cloudmonatt::hypervisor::engine::ServerSim;
    use cloudmonatt::hypervisor::scheduler::SchedParams;
    use cloudmonatt::hypervisor::vm::VmConfig;
    use cloudmonatt::workloads::{CloudService, SpecProgram};

    let mut sim = ServerSim::new(4, SchedParams::default());
    let mut guests: Vec<Box<dyn WorkloadDriver>> = vec![Box::new(BusyLoop::default())];
    for (i, service) in CloudService::ALL.into_iter().enumerate() {
        guests.push(Box::new(service.driver(i as u64 + 1)));
    }
    guests.push(Box::new(SpecProgram::Bzip2.driver()));
    for (i, guest) in guests.into_iter().enumerate() {
        sim.create_vm(VmConfig::new(&format!("vm-{i}"), vec![guest]));
    }

    // One warm window, twice as long as the measured one: run queues and
    // the segment log reach a capacity the jittered second stays inside.
    sim.run_for(2_000_000);
    let now = sim.now();
    sim.profile_mut().reset_window(now);

    let before = alloc_count();
    sim.run_for(1_000_000);
    let delta = alloc_count() - before;

    let segments = sim.profile().segments().len();
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
fn allocator_counter_is_live() {
    // Sanity-check the instrument itself: a boxed allocation must bump
    // the counter, otherwise the zero-delta assertion above proves
    // nothing.
    let before = alloc_count();
    let v: Vec<u64> = Vec::with_capacity(16);
    std::hint::black_box(&v);
    assert!(alloc_count() > before, "counting allocator not active");
}
