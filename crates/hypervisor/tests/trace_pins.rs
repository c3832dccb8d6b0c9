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
//! To regenerate after an *intended* change of schedule:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p monatt-hypervisor --test trace_pins
//! ```

mod support;

use monatt_hypervisor::driver::{VcpuAction, VcpuView, WakeReason, WorkloadDriver};
use monatt_hypervisor::engine::ServerSim;
use monatt_hypervisor::ids::{PcpuId, VmId};
use monatt_hypervisor::profile::RunSegment;
use monatt_hypervisor::scheduler::SchedParams;
use monatt_hypervisor::time::SimTime;
use monatt_hypervisor::vm::VmConfig;
use std::fmt::Write as _;
use support::{fold_segment, fold_state, segment_fingerprint, Fold};

const PINS: &str = include_str!("pins/trace_pins.txt");
const PINS_PATH: &str = "tests/pins/trace_pins.txt";
const SCENARIOS: u64 = 64;

/// splitmix64: the scenarios must not move when the vendored `rand`
/// shim does.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// A scripted pattern, cyclic or one-shot (then `Halt`), whose
/// durations also depend on what the engine shows the driver — a wrong
/// `VcpuView` or a missed `on_wake` moves the trace.
struct PatternDriver {
    actions: Vec<VcpuAction>,
    pos: usize,
    cyclic: bool,
    salt: u64,
}

impl WorkloadDriver for PatternDriver {
    fn next_action(&mut self, view: &VcpuView) -> VcpuAction {
        if self.pos == self.actions.len() {
            if !self.cyclic {
                return VcpuAction::Halt;
            }
            self.pos = 0;
        }
        let action = self.actions[self.pos];
        self.pos += 1;
        let wobble = (view.cpu_time_us + view.now.as_micros()).wrapping_add(self.salt);
        match action {
            VcpuAction::Compute { duration_us } if duration_us > 0 => VcpuAction::Compute {
                duration_us: duration_us + wobble % 97,
            },
            VcpuAction::Block {
                duration_us: Some(d),
            } => VcpuAction::Block {
                duration_us: Some(d + wobble % 13),
            },
            other => other,
        }
    }

    fn on_wake(&mut self, view: &VcpuView, reason: WakeReason) {
        let r = match reason {
            WakeReason::Timer => 1,
            WakeReason::Ipi => 2,
        };
        self.salt = self
            .salt
            .wrapping_mul(31)
            .wrapping_add(r + view.now.as_micros() % 7);
    }
}

/// Scenario-wide tempo: `sleepy` scenarios block long and compute
/// short, so the server goes quiescent and `run_until_lazy` leaps.
fn pattern(rng: &mut Rng, vcpus: usize, sleepy: bool) -> PatternDriver {
    let len = rng.range(1, 10) as usize;
    let (compute_hi, block_lo, block_hi) = if sleepy {
        (600, 15_000, 250_000)
    } else {
        (9_000, 50, 12_000)
    };
    // The first action always consumes time, so no cyclic pattern can
    // exhaust the engine's zero-time action budget.
    let mut actions = vec![VcpuAction::Compute {
        duration_us: rng.range(50, compute_hi),
    }];
    while actions.len() < len {
        let action = match rng.below(16) {
            0..=5 => VcpuAction::Compute {
                duration_us: rng.range(50, compute_hi),
            },
            6..=9 => VcpuAction::Block {
                duration_us: Some(rng.range(block_lo, block_hi)),
            },
            10 => VcpuAction::Block { duration_us: None },
            // One past the end: an IPI to a vCPU that does not exist.
            11..=13 => VcpuAction::SendIpi {
                target_index: rng.below(vcpus as u64 + 1) as usize,
            },
            14 => VcpuAction::Yield,
            _ => VcpuAction::Compute { duration_us: 0 },
        };
        actions.push(action);
        // A woken vCPU always computes before it gives the pCPU up
        // again. The engine these pins were generated on panicked
        // ("driver exists") when an IPI's target took the sender's pCPU
        // and handed it straight back; `ipi_bounce_resumes_the_sender`
        // in the engine's unit tests covers that path instead.
        if matches!(action, VcpuAction::Block { .. }) {
            actions.push(VcpuAction::Compute {
                duration_us: rng.range(50, compute_hi),
            });
        }
    }
    PatternDriver {
        actions,
        pos: 0,
        cyclic: rng.below(4) != 0,
        salt: rng.next(),
    }
}

fn create(sim: &mut ServerSim, rng: &mut Rng, sleepy: bool) -> VmId {
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

/// A deadline for the next run: random, tick-aligned (equal to the due
/// time of every tick timer, and of the accounting timer every third
/// tick), exactly `now`, or in the past.
fn deadline(sim: &ServerSim, rng: &mut Rng, sleepy: bool) -> SimTime {
    let now = sim.now().as_micros();
    let tick = sim.params().tick_us;
    let reach = if sleepy { 400_000 } else { 60_000 };
    SimTime::from_micros(match rng.below(8) {
        0 | 1 => (now / tick + rng.range(1, 4)) * tick,
        2 => now,
        3 => now.saturating_sub(rng.below(5_000)),
        _ => now + rng.below(reach),
    })
}

/// Runs scenario `seed`; returns its digest and the full segment log.
fn run_scenario(seed: u64) -> (u64, Vec<RunSegment>) {
    let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5eed);
    let params = match seed % 3 {
        0 => SchedParams::default(),
        1 => SchedParams::without_boost(),
        _ => SchedParams::with_precise_accounting(),
    };
    let sleepy = seed % 4 == 3;
    let mut sim = ServerSim::new(rng.range(1, 4) as usize, params);
    let mut fold = Fold::new();
    let mut log: Vec<RunSegment> = Vec::new();
    let mut vms: Vec<VmId> = Vec::new();

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
            4 => sim.terminate_vm(vm),
            5 | 6 => vms.push(create(&mut sim, &mut rng, sleepy)),
            7..=12 => {
                let d = deadline(&sim, &mut rng, sleepy);
                sim.run_until_lazy(d);
            }
            _ => {
                let d = deadline(&sim, &mut rng, sleepy);
                sim.run_until(d);
            }
        }
        // Checkpoint: harvest the segments of this step, fold the whole
        // observable state, and sometimes open a new profile window.
        for seg in sim.profile().segments() {
            fold_segment(&mut fold, seg);
            log.push(*seg);
        }
        fold_state(&mut fold, &sim);
        let now = sim.now();
        sim.profile_mut().reset_window(now);
    }
    (fold.finish(), log)
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
            let (digest, log) = run_scenario(seed);
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
