//! One definition of "the same". Several optimisations promise to change
//! how the cloud works, never what its customer receives: the
//! verification helper, lazy catch-up, msg-4 coalescing, retransmission
//! and the dormant chaos knobs. Each promise is one row of [`ROWS`]: two
//! configurations of a drawn [`Scenario`] must fold to equal
//! [`Observables`], up to what the row lets differ, on each of the first
//! [`SWEEP`] scenarios its precondition admits; and what the row exists
//! for must happen on at least one of them. A failure names the row, the
//! scenario's seed and the scenario itself. Every run is also audited
//! ([`Cloud::audit`]) after each event and each scripted step.
//!
//! Scenarios draw through [`TestRng`], so a recording generator can later
//! shrink them without a change here.

use super::{AttestationReport, Cloud, CloudBuilder, ResponseTiming, VmRequest, WorkloadSpec};
use crate::controller::ResponseAction::{self, Migration, Suspension, Termination};
use crate::controlplane::ControlPlaneStats;
use crate::error::{Check, CloudError, EndName};
use crate::latency::RetryPolicy;
use crate::links::LinkKey;
use crate::outage::{OutageModel, OutageStats};
use crate::protocol::MsgKind;
use crate::types::{Flavor, HealthStatus, Image, ProtocolStats, SecurityProperty, ServerId, Vid};
use monatt_crypto::drbg::Drbg;
use monatt_crypto::schnorr::SigningKey;
use monatt_net::channel::SecureChannel;
use monatt_net::sim::{FaultModel, FaultStats, Intercept, NetworkAttacker};
use monatt_workloads::services::CloudService::{File, Mail, Stream, Web};
use proptest::test_runner::TestRng;
use std::panic::AssertUnwindSafe;

/// Scenarios each row sweeps.
const SWEEP: usize = 10;

/// Everything one run shows, after a final `sync_servers`: each Table-1
/// call's result in call order, each subscription's reports, every failed
/// sample's typed error, the counters, both cache stats, the DRBG
/// position, the wall clock, each server's simulator clock and each live
/// VM's host and CPU time.
#[derive(Clone, Debug, Default, PartialEq)]
struct Observables {
    calls: Vec<Call>,
    subscriptions: Vec<Result<Vec<AttestationReport>, CloudError>>,
    failures: Vec<(Vid, CloudError)>,
    stats: ProtocolStats,
    outages: OutageStats,
    control_plane: ControlPlaneStats,
    faults: Option<FaultStats>,
    caches: [(u64, u64); 2],
    drbg: u64,
    clock_us: u64,
    server_clocks_us: Vec<u64>,
    cpu_us: Vec<(Vid, ServerId, u64)>,
}

#[derive(Clone, Debug, PartialEq)]
enum Call {
    Launch(Result<Vid, CloudError>),
    Report(Result<AttestationReport, CloudError>),
    Respond(Result<ResponseTiming, CloudError>),
    Resume(Result<(), CloudError>),
    Subscribe(Result<u64, CloudError>),
}

/// The pretty-printed lines of `a` up to where `b` first differs, and
/// `b`'s line there.
fn first_difference(a: &Observables, b: &Observables) -> String {
    let (a, b) = (format!("{a:#?}"), format!("{b:#?}"));
    let at = a.lines().zip(b.lines()).take_while(|(x, y)| x == y).count();
    let lead = a.lines().skip(at.saturating_sub(8));
    let lead: Vec<&str> = lead.take(at.min(8) + 1).collect();
    format!("{}\nB {}", lead.join("\n"), b.lines().nth(at).unwrap_or(""))
}

/// One scripted step: a launch, a slice of `Cloud::run`, or a Table-1
/// call on a VM named by its index among the VMs launched so far, modulo
/// their number.
#[derive(Clone, Debug)]
enum Step {
    Launch(VmRequest),
    Run(u64),
    Startup(usize, SecurityProperty),
    Runtime(usize, SecurityProperty),
    Layered(usize, SecurityProperty),
    Multi(usize, Vec<SecurityProperty>),
    Respond(usize, ResponseAction),
    Resume(usize),
    Subscribe(usize, SecurityProperty, u64),
}

/// A cloud with drawn knobs, its first guests and a script of Table-1
/// calls that ends in a run slice, so every subscription samples.
/// Message faults and outages arm once the guests run; the
/// attacker (`Substitute`, on message 4, 5 or 6, re-signing or flipping
/// a field) when the script first subscribes, so the helper sees what it
/// forges.
#[derive(Clone, Debug)]
struct Scenario {
    cloud: CloudBuilder,
    /// `reuse_avk` and `avk_cert_cache`, both on or both off.
    reuse: bool,
    guests: Vec<VmRequest>,
    deadline: bool,
    /// Coalescing on or off, and the batch size it uses when on.
    batch: (bool, usize),
    fault_seed: Option<u64>,
    /// Server and control-plane MTBF, and the outage model's seed.
    mtbf: (bool, bool, u64),
    attack: Option<(MsgKind, bool)>,
    steps: Vec<Step>,
}

const PROPERTIES: [SecurityProperty; 6] = [
    SecurityProperty::StartupIntegrity,
    SecurityProperty::RuntimeIntegrity,
    SecurityProperty::CovertChannelFreedom,
    SecurityProperty::CpuAvailability { min_share_pct: 0 },
    SecurityProperty::CpuAvailability { min_share_pct: 10 },
    SecurityProperty::SchedulerFairness,
];

fn coin(rng: &mut TestRng) -> bool {
    rng.below(2) == 0
}

/// An idle, `Busy` or service guest, a third of them each.
fn draw_guest(rng: &mut TestRng) -> VmRequest {
    let services = [Web, Mail, File, Stream];
    let workload = match rng.below(3) {
        0 => WorkloadSpec::Idle,
        1 => WorkloadSpec::Busy,
        _ => WorkloadSpec::Service(rng.pick(&services)),
    };
    let request = VmRequest::new(rng.pick(&Flavor::ALL), rng.pick(&Image::ALL));
    let property = coin(rng).then(|| rng.pick(&PROPERTIES));
    VmRequest {
        properties: property.into_iter().collect(),
        ..request.workload(workload)
    }
}

/// Subscriptions share one period, so those made back to back come due
/// together.
fn draw_step(rng: &mut TestRng, period_us: u64) -> Step {
    let vm = rng.below(8) as usize;
    let property = rng.pick(&PROPERTIES);
    match rng.below(15) {
        0 => Step::Launch(draw_guest(rng)),
        11..=14 => Step::Run(rng.range(100_000, 1_500_000)),
        1 => Step::Startup(vm, property),
        2 => Step::Runtime(vm, property),
        3 => Step::Layered(vm, property),
        4 => Step::Multi(vm, vec![property, rng.pick(&PROPERTIES)]),
        5 => Step::Respond(vm, rng.pick(&[Migration, Suspension, Termination])),
        6 => Step::Resume(vm),
        _ => Step::Subscribe(vm, property, period_us),
    }
}

impl Scenario {
    fn draw(seed: u64) -> Scenario {
        let rng = &mut TestRng::new(seed);
        // A third of the scenarios draw no chaos at all; the rest draw
        // each kind on or off.
        let chaos = rng.below(3) != 0;
        let maybe = |rng: &mut TestRng| chaos && coin(rng);
        let servers = rng.range(2, 4) as usize;
        let mut cloud = CloudBuilder::new().servers(servers).seed(rng.next_u64());
        if coin(rng) {
            cloud = cloud.control_plane(rng.range(2, 3) as u32, rng.range(2, 3) as u32);
        }
        let reuse = coin(rng);
        cloud = cloud.reuse_avk(reuse).avk_cert_cache(reuse);
        if coin(rng) {
            cloud = cloud.evidence_cache(rng.range(1_000_000, 4_000_000));
        }
        let deadline = maybe(rng);
        if deadline {
            cloud = cloud.session_deadline(rng.range(300_000, 3_000_000));
        }
        let period_us = rng.range(50_000, 300_000);
        Scenario {
            cloud,
            reuse,
            guests: (0..rng.range(1, 4)).map(|_| draw_guest(rng)).collect(),
            deadline,
            batch: (coin(rng), rng.range(4, 64) as usize),
            fault_seed: maybe(rng).then(|| rng.next_u64()),
            mtbf: (maybe(rng), maybe(rng), rng.next_u64()),
            attack: coin(rng).then(|| {
                let msg = rng.pick(&[MsgKind::Msg4, MsgKind::Msg5, MsgKind::Msg6]);
                (msg, rng.below(3) != 0)
            }),
            steps: {
                let steps = (0..rng.range(4, 12)).map(|_| draw_step(rng, period_us));
                let mut steps: Vec<Step> = steps.collect();
                steps.push(Step::Run(rng.range(100_000, 1_500_000)));
                steps
            },
        }
    }

    /// No message faults, outages or deadline.
    fn clean(&self) -> bool {
        let (server, control_plane, _) = self.mtbf;
        !(server || control_plane || self.deadline || self.fault_seed.is_some())
    }
}

/// How a run verifies signatures: inline; with the verification helper;
/// with receivers that await even queued jobs, so every verdict is the
/// helper's; or with a helper slowed until receivers await its running
/// jobs, claim queued ones back and find the ring full.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) enum Helper {
    Inline,
    Serving,
    Patient,
    Lagging,
}

/// Forces `helper` on `c`, whatever the host's core count. Two workers
/// also give the busy fleet's catch-up a helper thread.
pub(super) fn with_helper(c: &mut Cloud, helper: Helper) {
    c.fleet.workers = if helper == Helper::Inline { 1 } else { 2 };
    c.offload.patient = helper == Helper::Patient;
    if helper == Helper::Lagging {
        c.offload.lag = std::time::Duration::from_micros(300);
    }
}

/// How a row runs a scenario: as drawn, with the helper serving, or with
/// one knob moved.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum Config {
    #[default]
    Drawn,
    Helper(Helper),
    /// `sync_servers` after every step.
    Eager,
    /// Coalescing off, or on at the drawn batch size.
    Batch(bool),
    FailFast,
    /// A 60 s session deadline and a 1024/512 admission gate.
    Dormant,
}

/// One run of a scenario, and what it did besides what it showed: the
/// helper verdicts receivers took and the jobs they claimed back, the
/// busy catch-ups it shared over threads with a window pending, the VMs
/// it launched, those of them that run `Busy`, and the attacker's
/// target.
#[derive(Default)]
struct Run {
    config: Config,
    seen: Observables,
    taken: (u64, u64),
    shared_windows: u64,
    vids: Vec<Vid>,
    busy: Vec<Vid>,
    target: Option<Vid>,
}

impl Run {
    fn new(s: &Scenario, config: Config) -> Run {
        let mut b = s.cloud.clone();
        if config == Config::Batch(true) || (s.batch.0 && config != Config::Batch(false)) {
            b = b.as_batch(2_000, s.batch.1);
        }
        match config {
            Config::FailFast => b = b.retry(RetryPolicy::disabled()),
            Config::Dormant => b = b.session_deadline(60_000_000).admission_control(1024, 512),
            _ => {}
        }
        let mut c = b.build();
        let helper = match config {
            Config::Helper(helper) => helper,
            _ => Helper::Serving,
        };
        with_helper(&mut c, helper);
        let mut run = Run {
            config,
            ..Run::default()
        };
        let steps = s.guests.iter().cloned().map(Step::Launch);
        for (i, step) in steps.chain(s.steps.iter().cloned()).enumerate() {
            if i == s.guests.len() {
                // The guests run: arm the message faults and outages.
                if let Some(seed) = s.fault_seed {
                    let faults = FaultModel::new(seed)
                        .drop_prob(0.05)
                        .duplicate_prob(0.05)
                        .corrupt_prob(0.02)
                        .delay(0.05, 20_000);
                    c.network_mut().set_fault_model(faults);
                }
                let (server, control_plane, seed) = s.mtbf;
                if server || control_plane {
                    let mut outages = OutageModel::new(seed);
                    if server {
                        outages = outages.mtbf(3_000_000, 200_000);
                    }
                    if control_plane {
                        outages = outages.control_plane_mtbf(3_000_000, 200_000);
                    }
                    c.set_outage_model(outages);
                }
            }
            run.step(s, &mut c, &step);
            if config == Config::Eager {
                c.sync_servers();
            }
            // `respond`, `resume` and a launch without attestation
            // dispatch no event, so `pump` never audits after them.
            assert_eq!(c.audit(), Ok(()), "after {step:?} ({config:?})\n{s:#?}");
        }
        let subs: Vec<u64> = c.subscriptions.keys().copied().collect();
        let o = &mut run.seen;
        o.subscriptions = subs.iter().map(|&id| c.stop_attest_periodic(id)).collect();
        c.sync_servers();
        let cpu_us = c.fleet.controller.vms().filter_map(|r| {
            let host = c.server_of(r.vid)?;
            let node = c.server(host)?;
            let local = node.local_vm(r.vid)?;
            Some((r.vid, host, node.sim().window_cpu_time_us(local)))
        });
        o.cpu_us = cpu_us.collect();
        let server_clocks_us = c.fleet.nodes().values().map(|n| n.sim().now().as_micros());
        o.server_clocks_us = server_clocks_us.collect();
        o.failures = std::mem::take(&mut c.failures);
        o.stats = c.protocol_stats();
        o.outages = c.outage_stats();
        o.control_plane = c.control_plane_stats();
        o.faults = c.network_mut().fault_stats();
        o.caches = [c.evidence_cache_stats(), c.avk_cert_cache_stats()];
        o.drbg = c.drbg_probe();
        o.clock_us = c.wall_clock_us();
        run.taken = c.offload.taken();
        run.shared_windows = c.fleet.shared_windows;
        run
    }

    /// Takes `step`; a call on no VM (none launched yet) is skipped.
    fn step(&mut self, s: &Scenario, c: &mut Cloud, step: &Step) -> Option<()> {
        let vm = |i: usize| self.vids.get(i % self.vids.len().max(1)).copied();
        let call = match *step {
            Step::Launch(ref guest) => {
                let result = c.request_vm(guest.clone());
                self.vids.extend(result.as_ref().ok());
                if guest.workload == WorkloadSpec::Busy {
                    self.busy.extend(result.as_ref().ok());
                }
                Call::Launch(result)
            }
            Step::Run(us) => {
                c.run(us);
                return Some(());
            }
            Step::Startup(i, p) => Call::Report(c.startup_attest_current(vm(i)?, p)),
            Step::Runtime(i, p) => Call::Report(c.runtime_attest_current(vm(i)?, p)),
            Step::Layered(i, p) => Call::Report(c.layered_attest(vm(i)?, p)),
            Step::Multi(i, ref ps) => Call::Report(c.multi_attest(vm(i)?, ps)),
            Step::Respond(i, action) => Call::Respond(c.respond(vm(i)?, action)),
            Step::Resume(i) => Call::Resume(c.resume(vm(i)?)),
            Step::Subscribe(i, p, period_us) => {
                let vid = vm(i)?;
                let result = c.runtime_attest_periodic(vid, p, period_us);
                if let (Ok(_), Some((msg, resign)), None) = (&result, s.attack, self.target) {
                    let installed = Substitute::install(c, msg, vid, resign);
                    self.target = installed.map(|()| vid);
                }
                Call::Subscribe(result)
            }
        };
        self.seen.calls.push(call);
        Some(())
    }

    /// A sample of the attacker's target failed on the quote its message
    /// carries.
    fn target_failed(&self, s: &Scenario) -> bool {
        let quote = s.attack.and_then(|(msg, _)| msg.obligations().0);
        let mut failures = self.seen.failures.iter();
        failures.any(|(vid, e)| match *e {
            CloudError::ProtocolFailure {
                check: Check::Quote(kind, _),
            } => Some(*vid) == self.target && Some(kind) == quote,
            _ => false,
        })
    }

    /// Two `Busy` guests on different servers both ran, so the fleet's
    /// catch-ups had two busy servers to bring up.
    fn busy_apart(&self) -> bool {
        let ran = self.seen.cpu_us.iter();
        let busy = ran.filter(|(vid, _, us)| *us > 0 && self.busy.contains(vid));
        let mut hosts: Vec<ServerId> = busy.map(|&(_, host, _)| host).collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts.len() > 1
    }
}

/// A claim on one scenario's A and B runs.
type Claim = fn(&Scenario, &Run, &Run) -> bool;

/// One "changes nothing" claim: on every scenario `admits` accepts,
/// config `a` and each of `b` show the same, up to what `may_differ`
/// clears in the pair; `always` holds on every pair, and each of
/// `sometimes` on at least one pair of the sweep.
struct Row {
    name: &'static str,
    admits: fn(&Scenario) -> bool,
    a: Config,
    b: &'static [Config],
    may_differ: fn(&mut Observables, &mut Observables),
    always: &'static [(&'static str, Claim)],
    sometimes: &'static [(&'static str, Claim)],
}

/// A row's defaults: every scenario, A as drawn, nothing may differ and
/// nothing need happen.
const ROW: Row = Row {
    name: "",
    admits: |_| true,
    a: Config::Drawn,
    b: &[],
    may_differ: |_, _| {},
    always: &[],
    sometimes: &[],
};

/// Coalescing waits up to its window for batch-mates, so every time may
/// differ: each report's, the clocks and the CPU time the guests ran
/// until the end; so may the figures a windowed verdict quotes, and the
/// flush counters. Verdicts may not.
///
/// A subscription's next sample is due a period after its last one
/// completed, so a run slice may end one sample earlier in one run than
/// in the other: each subscription may show one trailing report more,
/// and then what counts delivered samples (the sessions, their
/// messages, the caches and the DRBG) may differ. A failed sample is not
/// forgiven.
fn coalescing(a: &mut Observables, b: &mut Observables) {
    for o in [&mut *a, &mut *b] {
        let calls = o.calls.iter_mut().filter_map(|call| match call {
            Call::Report(Ok(report)) => Some(report),
            _ => None,
        });
        let subscriptions = o.subscriptions.iter_mut().flatten().flatten();
        for report in calls.chain(subscriptions) {
            (report.elapsed_us, report.issued_at_us) = (0, 0);
            if let HealthStatus::Compromised { reason } = &mut report.status {
                let hide = |c: char| if c.is_ascii_digit() { '#' } else { c };
                *reason = reason.chars().map(hide).collect();
            }
        }
        o.cpu_us.iter_mut().for_each(|(_, _, us)| *us = 0);
        (o.clock_us, o.server_clocks_us) = Default::default();
        (o.stats.msg4_flushes, o.stats.msg4_batched) = (0, 0);
    }
    let mut cut = false;
    for pair in a.subscriptions.iter_mut().zip(&mut b.subscriptions) {
        if let (Ok(x), Ok(y)) = pair {
            if x.len().abs_diff(y.len()) == 1 {
                let n = x.len().min(y.len());
                x.truncate(n);
                y.truncate(n);
                cut = true;
            }
        }
    }
    if cut {
        for o in [a, b] {
            let s = &mut o.stats;
            (s.messages_sent, s.sessions_started, s.sessions_completed) = (0, 0, 0);
            (s.max_in_flight, s.max_queue_depth) = (0, 0);
            (o.caches, o.drbg) = Default::default();
        }
    }
}

const ROWS: [Row; 6] = [
    Row {
        name: "helper",
        a: Config::Helper(Helper::Inline),
        b: &[
            Config::Drawn,
            Config::Helper(Helper::Patient),
            Config::Helper(Helper::Lagging),
        ],
        always: &[("an inline run builds no ring", |_, a, _| a.taken == (0, 0))],
        sometimes: &[
            ("the serving helper took or claimed a verdict", |_, _, b| {
                b.config == Config::Drawn && b.taken != (0, 0)
            }),
            ("a patient receiver took the helper's verdict", |_, _, b| {
                b.config == Config::Helper(Helper::Patient) && b.taken.0 > 0
            }),
            (
                "a receiver claimed a job back from a lagging helper",
                |_, _, b| b.config == Config::Helper(Helper::Lagging) && b.taken.1 > 0,
            ),
            (
                "a catch-up shared two busy servers with a window pending",
                |_, _, b| b.shared_windows > 0,
            ),
            ("a node crashed", |_, a, _| a.seen.outages.crashes > 0),
            ("a failover", |_, a, _| a.seen.control_plane.failovers > 0),
            ("a retransmission", |_, a, _| a.seen.stats.retries > 0),
            ("a sample failed", |_, a, _| !a.seen.failures.is_empty()),
            ("a msg-4 flush", |_, a, _| a.seen.stats.msg4_flushes > 0),
            ("a scenario with reused AVKs", |s, _, _| s.reuse),
            ("the attacker's target failed", |s, a, _| a.target_failed(s)),
        ],
        ..ROW
    },
    Row {
        name: "lazy",
        b: &[Config::Eager],
        always: &[(
            "the final sync leaves every server at the wall clock",
            |_, a, b| {
                [a, b].iter().all(|run| {
                    let o = &run.seen;
                    o.server_clocks_us.iter().all(|&us| us == o.clock_us)
                })
            },
        )],
        sometimes: &[
            ("an evidence-cache hit", |_, a, _| a.seen.caches[0].0 > 0),
            ("busy guests ran on two servers", |_, a, _| a.busy_apart()),
        ],
        ..ROW
    },
    Row {
        name: "batch",
        admits: Scenario::clean,
        a: Config::Batch(false),
        b: &[Config::Batch(true)],
        may_differ: coalescing,
        always: &[("the serial run never flushes", |_, a, _| {
            a.seen.stats.msg4_flushes == 0
        })],
        sometimes: &[
            ("a flush coalesced two sessions", |_, _, b| {
                b.seen.stats.msg4_batched > b.seen.stats.msg4_flushes
            }),
            ("a subscription delivered a report", |_, _, b| {
                let mut subscriptions = b.seen.subscriptions.iter().flatten();
                subscriptions.any(|reports| !reports.is_empty())
            }),
        ],
    },
    Row {
        name: "retry",
        admits: Scenario::clean,
        b: &[Config::FailFast],
        always: &[("no retransmission", |_, a, _| a.seen.stats.retries == 0)],
        ..ROW
    },
    Row {
        name: "twice",
        b: &[Config::Drawn],
        sometimes: &[("another fault seed changes the run", |s, a, _| {
            let mut reseeded = s.clone();
            reseeded.fault_seed = s.fault_seed.map(|seed| seed + 1);
            s.fault_seed.is_some() && Run::new(&reseeded, Config::Drawn).seen != a.seen
        })],
        ..ROW
    },
    Row {
        name: "dormant",
        admits: |s| !s.deadline,
        b: &[Config::Dormant],
        ..ROW
    },
];

/// Runs `row` over the first [`SWEEP`] scenarios it admits.
fn sweep(row: &Row) {
    let name = row.name;
    let mut happened = vec![false; row.sometimes.len()];
    let admitted = (0..).map(|seed| (seed, Scenario::draw(seed)));
    for (seed, s) in admitted.filter(|(_, s)| (row.admits)(s)).take(SWEEP) {
        let failed = |side: &str, config: Config, why: String| {
            format!("row {name}, seed {seed}, {side} {config:?}: {why}\n{s:#?}")
        };
        // A panic inside a run (the audit hook's, say) names the scenario
        // too.
        let run = |side, config| {
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| Run::new(&s, config)));
            run.unwrap_or_else(|panic| {
                eprintln!("{}", failed(side, config, "panicked".to_string()));
                std::panic::resume_unwind(panic)
            })
        };
        let a = run("A", row.a);
        for &config in row.b {
            let b = run("B", config);
            let (mut x, mut y) = (a.seen.clone(), b.seen.clone());
            (row.may_differ)(&mut x, &mut y);
            let failed = |why| failed("B", config, why);
            assert!(x == y, "{}", failed(first_difference(&x, &y)));
            for (what, check) in row.always {
                assert!(check(&s, &a, &b), "{}", failed(format!("not {what}")));
            }
            for (seen, (_, check)) in happened.iter_mut().zip(row.sometimes) {
                *seen = *seen || check(&s, &a, &b);
            }
        }
    }
    for (seen, (what, _)) in happened.iter().zip(row.sometimes) {
        assert!(seen, "row {name}: {what} on none of {SWEEP} scenarios");
    }
}

/// One `#[test]` per row, named after it, so the rows run in parallel.
macro_rules! row_tests {
    ($($row:ident)*) => {$(
        #[test]
        fn $row() {
            sweep(ROWS.iter().find(|row| row.name == stringify!($row)).unwrap());
        }
    )*};
}

row_tests!(helper lazy batch retry twice dormant);

/// A network attacker holding a leaked session key of one link: it
/// opens each record its sending end sends with its twin of the receiving
/// end, rewrites the target VM's message, and re-seals it with its twin
/// of the sending end at the record's own sequence number.
pub(super) struct Substitute {
    /// The link's receiving and sending end.
    ends: [String; 2],
    opener: SecureChannel,
    sealer: SecureChannel,
    msg: MsgKind,
    target: Vid,
    /// Re-sign the quote under this key, or flip one quoted field.
    resign: Option<SigningKey>,
}

impl Substitute {
    /// Leaks the key of the link that carries `target`'s message `msg`
    /// (4, 5 or 6, through the controller instance and AS replica that
    /// serve it now) and sets the attacker on `c`'s network; `None` if
    /// `target` has no host or its shard no owner.
    pub(super) fn install(c: &mut Cloud, msg: MsgKind, target: Vid, resign: bool) -> Option<()> {
        let topology = &c.topology;
        let replica = topology.serving_replica(target);
        let controller = topology.owner_of_shard(topology.shard_of(target))?;
        let link = match msg {
            MsgKind::Msg4 => LinkKey::AsServer(replica, c.server_of(target)?),
            MsgKind::Msg5 => LinkKey::CtrlAs(controller, replica),
            _ => LinkKey::CustCtrl(controller),
        };
        // Every message 4, 5 and 6 is a reply: the link's initiator
        // receives it and its responder sends it.
        let ends = link.ends().map(|end| EndName(end).to_string());
        let (opener, sealer) = c.links.leak(link, 1218);
        let resign = resign.then(|| SigningKey::generate(&mut Drbg::from_seed(1219)));
        c.network_mut().set_attacker(Box::new(Substitute {
            ends,
            opener,
            sealer,
            msg,
            target,
            resign,
        }));
        Some(())
    }

    /// Rewrites `plaintext` if it is the target's message.
    fn forge(&self, plaintext: &mut Vec<u8>) -> bool {
        use crate::measurements::Measurement;
        use crate::messages::{AttestationReportMsg, CustomerReportMsg, MeasureResponse};
        use monatt_net::wire::Wire;

        // Decodes the target's message as `$msg`, re-signs its quote or
        // applies `$flip`, and encodes it again.
        macro_rules! rewrite {
            ($msg:ty, |$r:ident| $flip:expr) => {{
                let Ok(mut $r) = <$msg>::from_wire(plaintext) else {
                    return false;
                };
                if $r.vid != self.target {
                    return false;
                }
                match &self.resign {
                    Some(key) => $r.quote.signature = key.sign(&$r.quote.digest),
                    None => $flip,
                }
                $r.to_wire()
            }};
        }
        *plaintext = match self.msg {
            MsgKind::Msg4 => rewrite!(MeasureResponse, |r| match &mut r.measurement {
                Measurement::BootIntegrity { image_hash, .. } => image_hash[0] ^= 1,
                _ => return false,
            }),
            MsgKind::Msg5 => rewrite!(AttestationReportMsg, |r| r.vid = Vid(r.vid.0 ^ 1)),
            _ => rewrite!(CustomerReportMsg, |r| r.vid = Vid(r.vid.0 ^ 1)),
        };
        true
    }
}

impl NetworkAttacker for Substitute {
    fn intercept(&mut self, from: &str, to: &str, payload: &[u8]) -> Intercept {
        if self.ends != [to, from] {
            return Intercept::Pass;
        }
        let Some(seq) = payload.first_chunk::<8>().map(|s| u64::from_be_bytes(*s)) else {
            return Intercept::Pass;
        };
        let Ok(mut plaintext) = self.opener.open(b"", payload) else {
            return Intercept::Pass;
        };
        // Keep the sealing twin at the sender's sequence number.
        while self.sealer.records_sent() < seq {
            self.sealer.seal(b"", b"");
        }
        if self.sealer.records_sent() != seq || !self.forge(&mut plaintext) {
            return Intercept::Pass;
        }
        Intercept::Modify(self.sealer.seal(b"", &plaintext))
    }
}
