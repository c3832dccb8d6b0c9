//! Schedule pins: 64 seeded scenarios whose complete observable trace
//! — every run segment, PMU counter, vCPU CPU time and credit balance
//! at every step — is folded into one digest each and compared with
//! `tests/pins/trace_pins.txt`.
//!
//! The constants were generated on the commit *before* `ServerSim`
//! moved from a `BinaryHeap` of generation-stamped events and
//! `BTreeMap`s to timer slots and dense tables, so they are the old
//! engine's schedule: a rewrite of the engine's insides passes only if
//! it pops the same live events in the same order. A scenario draws
//! from everything that can reorder events: scripted
//! compute/block/IPI/yield/halt patterns whose durations depend on the
//! driver's view, multi-vCPU VMs, pinned and round-robin placement,
//! the three scheduler parameter sets, suspend / resume / terminate /
//! create mid-run, and `run_until` interleaved with `run_until_lazy`
//! at random deadlines, at tick-aligned deadlines (a deadline equal to
//! a timer's due time), at `now` and in the past.
//!
//! The same checkpoints hold the profile tool's interval registers to
//! the histogram of the step's logged segments, and
//! `the_segment_log_changes_nothing` re-runs every scenario with the
//! log off: state and registers must be equal at every checkpoint.
//!
//! To regenerate after an *intended* change of schedule:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p monatt-hypervisor --test trace_pins
//! ```

mod support;

use monatt_hypervisor::driver::WorkloadDriver;
use monatt_hypervisor::engine::ServerSim;
use monatt_hypervisor::ids::{PcpuId, VmId};
use monatt_hypervisor::profile::RunSegment;
use monatt_hypervisor::scheduler::SchedParams;
use monatt_hypervisor::time::SimTime;
use monatt_hypervisor::vm::VmConfig;
use proptest::test_runner::TestRng;
use std::fmt::Write as _;
use support::{
    check_registers_against_log, deadline, fold_observable, fold_segment, fold_state, pattern,
    segment_fingerprint, Fold, Retired,
};

const PINS: &str = include_str!("pins/trace_pins.txt");
const PINS_PATH: &str = "tests/pins/trace_pins.txt";
const SCENARIOS: u64 = 64;

fn create(sim: &mut ServerSim, rng: &mut TestRng, sleepy: bool) -> VmId {
    let vcpus = rng.range(1, 3) as usize;
    let drivers: Vec<Box<dyn WorkloadDriver>> = (0..vcpus)
        .map(|_| Box::new(pattern(rng, vcpus, sleepy)) as Box<dyn WorkloadDriver>)
        .collect();
    let mut config =
        VmConfig::new("pin", drivers).weight([128, 256, 256, 512][rng.below(4) as usize]);
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

/// Runs scenario `seed` with the segment log on or off. Returns the
/// digest of segments and state, the full segment log (both only
/// meaningful with the log on), and per checkpoint [`fold_observable`].
fn run_scenario(seed: u64, logging: bool) -> (u64, Vec<RunSegment>, Vec<u64>) {
    let mut rng = TestRng::from_state(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5eed);
    let params = match seed % 3 {
        0 => SchedParams::default(),
        1 => SchedParams::without_boost(),
        _ => SchedParams::with_precise_accounting(),
    };
    let sleepy = seed % 4 == 3;
    let reach = if sleepy { 400_000 } else { 60_000 };
    let mut sim = ServerSim::new(rng.range(1, 4) as usize, params);
    sim.profile_mut().set_logging(logging);
    let mut fold = Fold::new();
    let mut log: Vec<RunSegment> = Vec::new();
    let mut observed = Vec::new();
    let mut vms: Vec<VmId> = Vec::new();
    let mut retired = Retired::default();

    // Half the scenarios start on a server that has already idled.
    if rng.below(2) == 0 {
        sim.run_until_lazy(SimTime::from_micros(rng.below(200_000)));
    }
    for _ in 0..rng.range(1, 5) {
        vms.push(create(&mut sim, &mut rng, sleepy));
    }

    for _ in 0..rng.range(16, 28) {
        let vm = vms[rng.below(vms.len() as u64) as usize];
        match rng.below(20) {
            0 | 1 => sim.suspend_vm(vm),
            2 | 3 => sim.resume_vm(vm),
            4 => retired.terminate(&mut sim, vm),
            5 | 6 => vms.push(create(&mut sim, &mut rng, sleepy)),
            7..=12 => {
                let d = deadline(&sim, &mut rng, reach);
                sim.run_until_lazy(d);
            }
            _ => {
                let d = deadline(&sim, &mut rng, reach);
                sim.run_until(d);
            }
        }
        // Checkpoint: harvest the segments of this step, check the
        // registers against them, fold the whole observable state, and
        // open a new profile window.
        if logging {
            check_registers_against_log(&sim, &retired, &format!("scenario seed {seed}"));
            for seg in sim.profile().segments() {
                fold_segment(&mut fold, seg);
                log.push(*seg);
            }
        }
        fold_state(&mut fold, &sim, &retired);
        observed.push(fold_observable(&sim, &retired));
        let now = sim.now();
        sim.profile_mut().reset_window(now);
        retired.reset_window();
    }
    (fold.finish(), log, observed)
}

fn fingerprints(log: &[RunSegment]) -> String {
    let mut s = String::with_capacity(log.len() * 2);
    for seg in log {
        write!(s, "{:02x}", segment_fingerprint(seg)).expect("write to String");
    }
    s
}

#[test]
fn scenarios_reproduce_the_pinned_schedule() {
    let mut rendered = String::new();
    let runs: Vec<(u64, u64, Vec<RunSegment>)> = (0..SCENARIOS)
        .map(|seed| {
            let (digest, log, _) = run_scenario(seed, true);
            writeln!(rendered, "{seed} {digest:016x} {}", fingerprints(&log)).expect("write");
            (seed, digest, log)
        })
        .collect();

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(PINS_PATH, &rendered).expect("write pins");
        return;
    }

    let mut pinned = PINS.lines();
    for (seed, digest, log) in &runs {
        let line = pinned
            .next()
            .unwrap_or_else(|| panic!("no pin for seed {seed}"));
        let mut fields = line.split(' ');
        assert_eq!(fields.next(), Some(seed.to_string().as_str()), "pin order");
        let want = fields.next().expect("digest field");
        if want == format!("{digest:016x}") {
            continue;
        }
        let want_prints = fields.next().unwrap_or("");
        let got_prints = fingerprints(log);
        let first = want_prints
            .as_bytes()
            .chunks(2)
            .zip(got_prints.as_bytes().chunks(2))
            .position(|(a, b)| a != b)
            .unwrap_or(want_prints.len().min(got_prints.len()) / 2);
        panic!(
            "scenario seed {seed}: digest {digest:016x}, pinned {want}; {} segments, pinned {}; \
             first differing segment is #{first}: {:?} (after {:?})",
            log.len(),
            want_prints.len() / 2,
            log.get(first),
            first.checked_sub(1).and_then(|i| log.get(i)),
        );
    }
    assert_eq!(pinned.next(), None, "more pins than scenarios");

    // The pins are only as strong as the scenarios are varied: across
    // the set, every deschedule reason occurs and the log is not
    // trivially short.
    let mut seen = [0_usize; 6];
    for seg in runs.iter().flat_map(|(_, _, log)| log) {
        seen[support::reason_code(seg.reason) as usize] += 1;
    }
    assert!(seen.iter().all(|&n| n >= 10), "reasons seen: {seen:?}");
    assert!(seen.iter().sum::<usize>() > 5_000, "only {seen:?} segments");
}

#[test]
fn the_segment_log_changes_nothing() {
    for seed in 0..SCENARIOS {
        let (_, _, logged) = run_scenario(seed, true);
        let (_, _, quiet) = run_scenario(seed, false);
        assert_eq!(logged.len(), quiet.len(), "seed {seed}: checkpoints");
        if let Some(i) = logged.iter().zip(&quiet).position(|(a, b)| a != b) {
            panic!(
                "scenario seed {seed}: with the segment log off, state or interval registers \
                 differ from checkpoint {i} of {}",
                logged.len()
            );
        }
    }
}
