//! `BusyLoop` commits to its compute once — `Compute { duration_us:
//! u64::MAX }`, for which the engine arms no deadline — where it used to
//! answer `Compute` again after every chunk of CPU. The claim is that
//! the schedule is the same: a re-ask answered by the same compute
//! changes nothing but the draws from the timer stamp counter.
//!
//! The `committed_busy_loop_matches_*` tests hold the committed loop to
//! the chunked one (`support::ChunkedBusy`) at chunks of 1, 37 and
//! 1 000 µs over 64 seeded scenarios: busy loops sharing pCPUs with the
//! pattern drivers of `trace_pins.rs`, busy vCPUs inside multi-vCPU VMs
//! whose siblings IPI them, yields, suspend / resume / terminate /
//! create mid-run, the three scheduler parameter sets, and eager and
//! lazy runs to random, tick-aligned, current and past deadlines. The
//! `fold_segment` / `fold_state` digest must be equal at every
//! checkpoint.
//! `a_busy_vcpu_is_asked_once` pins the speed-up itself: a busy vCPU's
//! driver is asked exactly once.

mod support;

use monatt_hypervisor::driver::{
    shared, BusyLoop, Shared, VcpuAction, VcpuView, WakeReason, WorkloadDriver,
};
use monatt_hypervisor::engine::ServerSim;
use monatt_hypervisor::ids::{PcpuId, VcpuId, VmId};
use monatt_hypervisor::profile::DescheduleReason;
use monatt_hypervisor::scheduler::SchedParams;
use monatt_hypervisor::time::{SimTime, MS, SEC};
use monatt_hypervisor::vm::VmConfig;
use proptest::test_runner::TestRng;
use std::ops::Range;
use support::{
    deadline, fold_segment, fold_state, pattern, reason_code, ChunkedBusy, Fold, Retired,
};

const SCENARIOS: u64 = 64;

/// Builds the busy driver under test: committed or chunked. It draws
/// nothing from the scenario's RNG, so every variant of a scenario
/// builds the same server.
type Busy<'a> = &'a dyn Fn() -> Box<dyn WorkloadDriver>;

/// A busy VM, a VM whose vCPU 0 is busy and whose other vCPUs run
/// patterns that may IPI it, or a VM of patterns only.
fn create(sim: &mut ServerSim, rng: &mut TestRng, sleepy: bool, busy: Busy) -> VmId {
    let kind = rng.below(3);
    let vcpus = if kind == 1 {
        rng.range(2, 3)
    } else {
        rng.range(1, 3)
    } as usize;
    let drivers: Vec<Box<dyn WorkloadDriver>> = (0..vcpus)
        .map(|index| match kind {
            0 => busy(),
            1 if index == 0 => busy(),
            _ => Box::new(pattern(rng, vcpus, sleepy)) as Box<dyn WorkloadDriver>,
        })
        .collect();
    let mut config =
        VmConfig::new("mix", drivers).weight([128, 256, 256, 512][rng.below(4) as usize]);
    if rng.below(2) == 0 {
        let pcpus = sim.pcpu_count() as u64;
        config = config.pin(
            (0..vcpus)
                .map(|_| PcpuId(rng.below(pcpus) as usize))
                .collect(),
        );
    }
    sim.create_vm(config)
}

/// Runs scenario `seed` with `busy` loops; returns the digest at every
/// checkpoint and how often each deschedule reason occurred.
fn run_scenario(seed: u64, busy: Busy) -> (Vec<u64>, [usize; 6]) {
    let mut rng = TestRng::from_state(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xb05e);
    let params = match seed % 3 {
        0 => SchedParams::default(),
        1 => SchedParams::without_boost(),
        _ => SchedParams::with_precise_accounting(),
    };
    let sleepy = seed % 4 == 3;
    // Shorter than `trace_pins`' reach: at a 1 µs chunk every busy
    // microsecond of the oracle is an event.
    let reach = if sleepy { 50_000 } else { 25_000 };
    let mut sim = ServerSim::new(rng.range(1, 4) as usize, params);
    sim.profile_mut().set_logging(true);
    let mut fold = Fold::new();
    let mut digests = Vec::new();
    let mut reasons = [0_usize; 6];
    let mut vms: Vec<VmId> = Vec::new();
    let mut retired = Retired::default();

    if rng.below(2) == 0 {
        sim.run_until_lazy(SimTime::from_micros(rng.below(200_000)));
    }
    for _ in 0..rng.range(1, 5) {
        vms.push(create(&mut sim, &mut rng, sleepy, busy));
    }
    for _ in 0..rng.range(16, 28) {
        let vm = vms[rng.below(vms.len() as u64) as usize];
        match rng.below(20) {
            0 | 1 => sim.suspend_vm(vm),
            2 | 3 => sim.resume_vm(vm),
            4 => retired.terminate(&mut sim, vm),
            5 | 6 => vms.push(create(&mut sim, &mut rng, sleepy, busy)),
            7..=12 => {
                let d = deadline(&sim, &mut rng, reach);
                sim.run_until_lazy(d);
            }
            _ => {
                let d = deadline(&sim, &mut rng, reach);
                sim.run_until(d);
            }
        }
        for seg in sim.profile().segments() {
            fold_segment(&mut fold, seg);
            reasons[reason_code(seg.reason) as usize] += 1;
        }
        fold_state(&mut fold, &sim, &retired);
        digests.push(fold.finish());
        let now = sim.now();
        sim.profile_mut().reset_window(now);
        retired.reset_window();
    }
    (digests, reasons)
}

/// Scenarios `seeds`, committed against a `chunk` µs chunking.
fn committed_matches_chunking(chunk: u64, seeds: Range<u64>) {
    let floor = 15 * (seeds.end - seeds.start) as usize;
    let mut seen = [0_usize; 6];
    for seed in seeds {
        let (committed, reasons) = run_scenario(seed, &|| Box::new(BusyLoop));
        let (chunked, _) = run_scenario(seed, &|| Box::new(ChunkedBusy { chunk }));
        assert_eq!(committed.len(), chunked.len(), "seed {seed}: checkpoints");
        if let Some(i) = committed.iter().zip(&chunked).position(|(a, b)| a != b) {
            panic!(
                "scenario seed {seed}: the committed busy loop differs from a {chunk} µs \
                 chunking from checkpoint {i} of {}",
                committed.len()
            );
        }
        for (total, n) in seen.iter_mut().zip(reasons) {
            *total += n;
        }
    }
    // Only as strong as the scenarios are varied: every deschedule
    // reason occurs and the log is not trivially short.
    assert!(seen.iter().all(|&n| n >= 10), "reasons seen: {seen:?}");
    assert!(seen.iter().sum::<usize>() > floor, "only {seen:?} segments");
}

// Split so the harness runs them side by side: at a 1 µs chunk every
// busy microsecond of the oracle is an event, and that half dominates.

#[test]
fn committed_busy_loop_matches_a_1us_chunking_first_half() {
    committed_matches_chunking(1, 0..SCENARIOS / 2);
}

#[test]
fn committed_busy_loop_matches_a_1us_chunking_second_half() {
    committed_matches_chunking(1, SCENARIOS / 2..SCENARIOS);
}

#[test]
fn committed_busy_loop_matches_a_37us_chunking() {
    committed_matches_chunking(37, 0..SCENARIOS);
}

#[test]
fn committed_busy_loop_matches_a_1000us_chunking() {
    committed_matches_chunking(1_000, 0..SCENARIOS);
}

/// Counts a driver's `next_action` calls.
struct Counting<D> {
    inner: D,
    asked: Shared<u64>,
}

impl<D: WorkloadDriver> WorkloadDriver for Counting<D> {
    fn next_action(&mut self, view: &VcpuView) -> VcpuAction {
        *self.asked.borrow_mut() += 1;
        self.inner.next_action(view)
    }

    fn on_wake(&mut self, view: &VcpuView, reason: WakeReason) {
        self.inner.on_wake(view, reason);
    }
}

/// Computes half a millisecond, sleeps 45: boosted at every wake, it
/// preempts whatever busy loop holds the pCPU, and sleeps long enough
/// for the busy loops to run out 30 ms slices in between.
struct Waker {
    compute_next: bool,
}

impl WorkloadDriver for Waker {
    fn next_action(&mut self, _view: &VcpuView) -> VcpuAction {
        self.compute_next = !self.compute_next;
        if self.compute_next {
            VcpuAction::Compute { duration_us: 500 }
        } else {
            VcpuAction::Block {
                duration_us: Some(45 * MS),
            }
        }
    }
}

/// Ten virtual seconds of one pCPU shared by the counted driver, a
/// second busy loop (slice expiry) and a waker (preemption), with the
/// counted VM suspended for 100 ms of every second. Returns how often
/// the counted driver was asked, its CPU time, its preemptions and its
/// slice expiries.
fn ten_seconds(driver: impl WorkloadDriver + 'static) -> (u64, u64, u64, usize) {
    let asked = shared(0);
    let mut sim = ServerSim::new(1, SchedParams::default());
    sim.profile_mut().set_logging(true);
    let counted = sim.create_vm(
        VmConfig::new(
            "counted",
            vec![Box::new(Counting {
                inner: driver,
                asked: asked.clone(),
            })],
        )
        .pin(vec![PcpuId(0)]),
    );
    sim.create_vm(VmConfig::new("other", vec![Box::new(BusyLoop)]).pin(vec![PcpuId(0)]));
    sim.create_vm(
        VmConfig::new(
            "waker",
            vec![Box::new(Waker {
                compute_next: false,
            })],
        )
        .pin(vec![PcpuId(0)]),
    );
    for second in 0..10 {
        let at = SimTime::from_micros(second * SEC);
        sim.run_until(SimTime::from_micros(at.as_micros() + 450 * MS));
        sim.suspend_vm(counted);
        sim.run_until(SimTime::from_micros(at.as_micros() + 550 * MS));
        sim.resume_vm(counted);
    }
    sim.run_until(SimTime::from_secs(10));
    let slices = sim
        .profile()
        .segments()
        .iter()
        .filter(|seg| seg.vcpu.vm == counted && seg.reason == DescheduleReason::SliceExpired)
        .count();
    let id = VcpuId {
        vm: counted,
        index: 0,
    };
    let asks = *asked.borrow();
    (
        asks,
        sim.vcpu_cpu_time_us(id),
        sim.pmu().counters(counted).preemptions,
        slices,
    )
}

#[test]
fn a_busy_vcpu_is_asked_once() {
    let (asks, cpu_us, preemptions, slices) = ten_seconds(BusyLoop);
    assert!(cpu_us > 2 * SEC, "the busy loop ran only {cpu_us} µs");
    assert!(preemptions > 20, "only {preemptions} preemptions");
    assert!(slices > 20, "only {slices} slice expiries");
    assert_eq!(
        asks, 1,
        "a busy vCPU must commit once and never be asked again"
    );

    // The counter is live: the chunked oracle, on the same schedule, is
    // asked at least once per millisecond of CPU.
    let (chunked_asks, chunked_cpu_us, ..) = ten_seconds(ChunkedBusy { chunk: 1_000 });
    assert_eq!(chunked_cpu_us, cpu_us);
    assert!(chunked_asks >= cpu_us / 1_000, "{chunked_asks} asks");
}
