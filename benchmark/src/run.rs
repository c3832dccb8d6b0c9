//! One run of one workload: the untraced run that yields the
//! end-to-end metrics, or the traced run that yields the per-layer
//! ones. Prints every metric by name with its unit, writes a result
//! file, and returns what the final result line needs.

use crate::json::{self, Json};
use crate::layers;
use crate::measure::{measure, measure_interleaved, Combined};
use crate::provenance;
use crate::replay::{replay, ReplayParams};
use crate::scenario::{Api, PassConfig};
use crate::spec::{
    median, percentile, Work, Workload, END_TO_END, PER_LAYER, REFERENCE_SECONDS, REPS,
};
use crate::trace::Tracer;
use crate::workloads::{
    BUSY_GUESTS, BUSY_PCPUS, BUSY_PROPERTIES, LIFECYCLE_RESIDENT, LIFECYCLE_SERVERS, ROUND_FAULTS,
};
use monatt_core::{SecurityProperty, WorkloadSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Repetitions of each pass of a traced run. A pass does the work of
/// one repetition of the untraced run, a fifth of its total: the
/// shortest on which `fleet_round` reliably sees server crashes.
const TRACE_REPS: usize = 3;
/// Sessions the stage replay re-executes at the reference work (fewer,
/// in proportion, for a smaller `--seconds`), in chunks of
/// `REPLAY_CHUNK`, `TRACE_REPS` times over: like a timed slice, a
/// chunk costs what its quietest repetition cost.
const REPLAY_SESSIONS: usize = 1_000;
/// Sessions per replay chunk.
const REPLAY_CHUNK: usize = 50;
/// The committed baseline, relative to the repository root.
const BASELINE: &str = "benchmark/baseline.json";

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: the work, in reference-host seconds.
    pub seconds: f64,
    /// `--trace 1`: the traced run.
    pub trace: bool,
    /// Where result and trace files go.
    pub out_dir: PathBuf,
    /// The command line, for the provenance block.
    pub command: String,
}

/// One reported metric: `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// What a run reports on its last line.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Sessions attempted plus refusals plus API errors.
    pub attempted: u64,
    /// Results that were not the expected one.
    pub failed: u64,
    /// Every metric of the run, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .encode()
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|(name, value, unit)| {
        (
            *name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}

fn print_metrics(metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        println!("metric {name:<46} {value:>18.4} {unit}");
    }
}

/// Announces the run on standard output and returns its provenance
/// block, work sizes included.
fn announce(options: &Options, work: Work, reps: usize) -> Json {
    let kind = if options.trace { "traced" } else { "untraced" };
    let work = format!(
        "{reps} repetitions x {} slices x {} units",
        work.slices, work.per_slice
    );
    println!(
        "# {} seed {} {kind}: {work}",
        options.workload.name(),
        options.seed
    );
    let provenance = provenance::collect(&options.command, options.seed, options.seconds, &work);
    println!("# provenance {}", provenance.encode());
    provenance
}

fn verdicts_json(verdicts: &[(String, SecurityProperty, u64, u64)]) -> Json {
    Json::Arr(
        verdicts
            .iter()
            .map(|(guest, property, healthy, unhealthy)| {
                Json::Arr(vec![
                    Json::str(guest.as_str()),
                    Json::str(property.label()),
                    Json::Num(*healthy as f64),
                    Json::Num(*unhealthy as f64),
                ])
            })
            .collect(),
    )
}

/// The baseline entry for this `(workload, seed, seconds)`, if the
/// committed baseline has one.
fn baseline_entry(options: &Options) -> Option<Json> {
    let doc = json::read(Path::new(BASELINE)).ok()?;
    doc.get("runs")?
        .as_arr()?
        .iter()
        .find(|run| {
            run.get("workload").and_then(Json::as_str) == Some(options.workload.name())
                && run.get("seed").and_then(Json::as_f64) == Some(options.seed as f64)
                && run.get("seconds").and_then(Json::as_f64) == Some(options.seconds)
        })
        .cloned()
}

fn write_file(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn finish(
    options: &Options,
    provenance: Json,
    kind: &str,
    combined: &Combined,
    extra_violations: Vec<String>,
    metrics: Vec<Metric>,
) -> Outcome {
    let mut violations = combined.violations.clone();
    let mut failed = combined.violation_count;
    failed += extra_violations.len() as u64;
    violations.extend(extra_violations);
    let non_finite: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.1.is_finite())
        .map(|m| m.0)
        .collect();
    if !non_finite.is_empty() {
        failed += 1;
        violations.push(format!("metrics not finite: {non_finite:?}"));
    }
    for violation in &violations {
        println!("CHECK FAILED: {violation}");
    }
    let outcome = Outcome {
        correct: failed == 0,
        attempted: combined.first.attempted().max(1),
        failed,
        metrics,
    };
    let first = &combined.first;
    let doc = Json::obj([
        ("workload", Json::str(options.workload.name())),
        ("kind", Json::str(kind)),
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(options.seconds)),
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "sim_digest",
            Json::str(format!("{:#018x}", first.sim_digest)),
        ),
        ("metrics", metrics_json(&outcome.metrics)),
        ("verdicts", verdicts_json(&first.verdicts)),
        ("provenance", provenance),
    ]);
    let suffix = if options.trace { "layers" } else { "result" };
    write_file(
        &options.out_dir,
        &format!("{suffix}-{}.json", options.workload.name()),
        &doc.pretty(),
    );
    outcome
}

/// The untraced run: `REPS` repetitions, the eight end-to-end metrics.
fn run_end_to_end(options: &Options) -> Outcome {
    let workload = options.workload;
    let work = workload.work(options.seconds / REFERENCE_SECONDS);
    let provenance = announce(options, work, REPS);
    let combined = measure(
        PassConfig {
            workload,
            seed: options.seed,
            work,
            idle_twin: false,
            traced: false,
        },
        REPS,
    );
    let first = &combined.first;
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(combined.end_to_end())
        .map(|(spec, value)| (spec.name, value, spec.unit))
        .collect();
    print_metrics(&metrics);
    println!(
        "samples: host time from {} slices (minimum over {} repetitions), {:.3} s of {:.3} s timed; \
         virtual latency from {} reports; {} sessions, {} API calls per repetition",
        combined.slice_ns.len(),
        combined.reps,
        combined.host_s(),
        first.timed_ns as f64 / 1e9,
        first.latencies_us.len(),
        combined.sessions(),
        first.api_calls,
    );
    println!(
        "failed_share {:.6} ({} failed + {} shed + {} API errors of {} attempted)",
        first.failed_share(),
        first.stats.sessions_failed,
        first.stats.sessions_shed,
        first.api_errs,
        first.attempted(),
    );
    println!("sim_digest {:#018x}", first.sim_digest);
    for (guest, property, healthy, unhealthy) in first.verdicts.iter().filter(|v| v.3 > 0) {
        println!(
            "verdicts {guest} {}: {healthy} healthy, {unhealthy} flagged",
            property.label()
        );
    }

    let mut extra = Vec::new();
    match baseline_entry(options) {
        Some(entry) => {
            let digest = format!("{:#018x}", first.sim_digest);
            let same = entry.get("sim_digest").and_then(Json::as_str) == Some(&digest);
            println!(
                "baseline: sim_digest {}",
                if same { "matches" } else { "DIFFERS" }
            );
            // The pinned per-(guest kind, property) verdict counts are an
            // output check; the digest as a whole is only reported, so a
            // change that alters the simulation on purpose still runs.
            if entry.get("verdicts") != Some(&verdicts_json(&first.verdicts)) {
                extra.push(
                    "verdict counts differ from those pinned in benchmark/baseline.json".into(),
                );
            }
        }
        None => println!("baseline: no entry for this (workload, seed, seconds)"),
    }
    finish(options, provenance, "end_to_end", &combined, extra, metrics)
}

/// How `workload`'s sessions look to the stage replay, given what the
/// untraced pass `u` observed.
fn replay_params(workload: Workload, seed: u64, scale: f64, u: &Combined) -> ReplayParams {
    let first = &u.first;
    let touches = (first.api_calls.max(first.sessions()) as f64 / first.servers as f64).max(1.0);
    let gap_us = (first.virt_span_us as f64 / touches) as u64;
    let mean_batch = match first.stats.msg4_flushes {
        0 => 1,
        flushes => (first.stats.msg4_batched as f64 / flushes as f64).round() as usize,
    };
    let idle = |n| vec![WorkloadSpec::Idle; n];
    let mut params = ReplayParams {
        pcpus: 16,
        guests: idle(16),
        properties: vec![SecurityProperty::RuntimeIntegrity],
        routed: false,
        faults: None,
        batch: 1,
        avk_cache: false,
        gap_us,
        sessions: ((REPLAY_SESSIONS as f64 * scale) as usize).clamp(REPLAY_CHUNK, REPLAY_SESSIONS),
        seed,
    };
    match workload {
        Workload::OneshotIdle => {}
        Workload::BusyWindow => {
            params.pcpus = BUSY_PCPUS;
            params.guests = BUSY_GUESTS.to_vec();
            params.properties = BUSY_PROPERTIES.to_vec();
        }
        Workload::FleetRound => {
            params.routed = true;
            params.faults = Some(ROUND_FAULTS);
            params.batch = mean_batch.clamp(1, 64);
        }
        Workload::LifecycleMix => {
            params.guests = idle(LIFECYCLE_RESIDENT.div_ceil(LIFECYCLE_SERVERS));
            params.properties = vec![SecurityProperty::CpuAvailability { min_share_pct: 0 }];
            params.avk_cache = true;
        }
    }
    params
}

/// Per key, the sum over chunks of the least any repetition took.
fn quietest(
    reps: impl Iterator<Item = BTreeMap<&'static str, Vec<i64>>>,
) -> BTreeMap<&'static str, i64> {
    let mut least: BTreeMap<&'static str, Vec<i64>> = BTreeMap::new();
    for rep in reps {
        for (key, chunks) in rep {
            match least.get_mut(key) {
                Some(so_far) => so_far
                    .iter_mut()
                    .zip(chunks)
                    .for_each(|(a, b)| *a = (*a).min(b)),
                None => {
                    least.insert(key, chunks);
                }
            }
        }
    }
    least
        .into_iter()
        .map(|(key, chunks)| (key, chunks.iter().sum()))
        .collect()
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    match denominator {
        0 => 0.0,
        d => numerator as f64 / d as f64,
    }
}

/// The traced run: three interleaved passes (untraced, traced, idle
/// twin), the stage replay, the leaf costs.
fn run_traced(options: &Options) -> Outcome {
    let workload = options.workload;
    let scale = options.seconds / REFERENCE_SECONDS;
    let work = workload.work(scale);
    let provenance = announce(options, work, TRACE_REPS);
    let config = PassConfig {
        workload,
        seed: options.seed,
        work,
        idle_twin: false,
        traced: false,
    };
    let [u, mut t, i] = measure_interleaved(
        [
            config,
            PassConfig {
                traced: true,
                ..config
            },
            PassConfig {
                idle_twin: true,
                ..config
            },
        ],
        TRACE_REPS,
    );
    let mut extra = Vec::new();
    if t.first.sim_digest != u.first.sim_digest {
        extra.push(format!(
            "tracing perturbed the simulation: digest {:#018x} traced, {:#018x} untraced",
            t.first.sim_digest, u.first.sim_digest
        ));
    }
    extra.extend(t.violations.iter().map(|v| format!("traced pass: {v}")));
    extra.extend(i.violations.iter().map(|v| format!("idle twin: {v}")));

    let host = u.slice_us_per_session();
    let p50_untraced = percentile(&host, 50.0);
    let p50_traced = percentile(&t.slice_us_per_session(), 50.0);
    let params = replay_params(workload, options.seed, scale, &u);
    println!(
        "# stage replay: {TRACE_REPS} x {} sessions, batch {}, {} us of virtual time between sessions on a server",
        params.sessions, params.batch, params.gap_us
    );
    let replays: Vec<_> = (0..TRACE_REPS).map(|_| replay(params.clone())).collect();
    let sessions = params.sessions as f64;
    let chunks = params.sessions.div_ceil(REPLAY_CHUNK);
    let by_layer = quietest(
        replays
            .iter()
            .map(|r| r.tracer.chunked_self_ns(REPLAY_CHUNK as u32, chunks)),
    );
    let by_name = quietest(
        replays
            .iter()
            .map(|r| r.tracer.chunked_dur_ns(REPLAY_CHUNK as u32, chunks)),
    );
    let layer_us = |layer: &str| by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e3 / sessions;
    let span_ns = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / sessions;
    let attributed_us: f64 = by_layer.values().sum::<i64>() as f64 / 1e3 / sessions;
    let replayed = replays.into_iter().next_back().expect("TRACE_REPS > 0");

    let leaves = layers::measure(u.first.servers);
    let mut tracer = t.first.tracer.take().unwrap_or_default();
    let api_us = |api: Api| match tracer.durations_of(api.span_name()) {
        durations if durations.is_empty() => 0.0,
        durations => median(&durations) / 1e3,
    };

    let first = &u.first;
    let stats = &first.stats;
    let done = first.sessions();
    let mut values: BTreeMap<&'static str, f64> = leaves;
    values.extend([
        ("crypto.us_per_session", layer_us("crypto")),
        ("tpm.us_per_session", layer_us("tpm")),
        ("net.wire.encode_ns_per_session", span_ns("net.wire.encode")),
        ("net.wire.decode_ns_per_session", span_ns("net.wire.decode")),
        (
            "net.wire.bytes_per_session",
            replayed.wire_bytes as f64 / sessions,
        ),
        (
            "net.channel.seal_ns_per_session",
            span_ns("net.channel.seal"),
        ),
        (
            "net.channel.open_ns_per_session",
            span_ns("net.channel.open"),
        ),
        (
            "net.channel.records_per_session",
            ratio(stats.messages_sent, done),
        ),
        (
            "net.channel.duplicates_rejected",
            stats.duplicates_rejected as f64,
        ),
        ("net.sim.msgs_per_session", ratio(stats.messages_sent, done)),
        ("net.sim.retries_per_session", ratio(stats.retries, done)),
        (
            "net.sim.delivered_ratio",
            1.0 - ratio(stats.drops_seen, stats.messages_sent),
        ),
        (
            "hypervisor.engine.share",
            1.0 - i.host_us_per_session() / u.host_us_per_session(),
        ),
        (
            "core.attestation.evidence_hit_ratio",
            ratio(first.evidence.0, first.evidence.0 + first.evidence.1),
        ),
        (
            "core.attestation.avk_cert_hit_ratio",
            ratio(first.avk.0, first.avk.0 + first.avk.1),
        ),
        (
            "core.controlplane.failovers",
            first.control_plane.failovers as f64,
        ),
        (
            "core.controlplane.shards_adopted",
            first.control_plane.shards_adopted as f64,
        ),
        (
            "core.controlplane.as_reroutes",
            first.control_plane.as_reroutes as f64,
        ),
        (
            "core.controlplane.failover_sessions",
            first.control_plane.failover_sessions as f64,
        ),
        ("core.outage.crashes", first.outage.crashes as f64),
        ("core.outage.evacuations", first.outage.evacuations as f64),
        ("core.outage.rehandshakes", first.outage.rehandshakes as f64),
        (
            "core.outage.deferred_rekeys",
            first.outage.deferred_rekeys as f64,
        ),
        (
            "core.outage.node_down_failures",
            first.outage.node_down_failures as f64,
        ),
        ("core.cloud.api.request_vm_us", api_us(Api::RequestVm)),
        (
            "core.cloud.api.startup_attest_us",
            api_us(Api::StartupAttest),
        ),
        (
            "core.cloud.api.runtime_attest_us",
            api_us(Api::RuntimeAttest),
        ),
        (
            "core.cloud.api.layered_attest_us",
            api_us(Api::LayeredAttest),
        ),
        ("core.cloud.api.multi_attest_us", api_us(Api::MultiAttest)),
        (
            "core.cloud.api.respond_migration_us",
            api_us(Api::RespondMigration),
        ),
        (
            "core.cloud.api.respond_suspension_us",
            api_us(Api::RespondSuspension),
        ),
        (
            "core.cloud.api.respond_termination_us",
            api_us(Api::RespondTermination),
        ),
        ("core.cloud.api.run_slice_us", api_us(Api::RunSlice)),
        (
            "core.cloud.unattributed_us_per_session",
            p50_untraced - attributed_us,
        ),
        ("core.cloud.max_in_flight", stats.max_in_flight as f64),
        ("core.cloud.max_queue_depth", stats.max_queue_depth as f64),
        ("core.cloud.msg4_flushes", stats.msg4_flushes as f64),
        (
            "core.cloud.msg4_mean_batch",
            ratio(stats.msg4_batched, stats.msg4_flushes),
        ),
        (
            "core.cloud.deadlines_exceeded",
            stats.deadlines_exceeded as f64,
        ),
        ("core.cloud.allocs_per_session", ratio(first.allocs, done)),
        (
            "core.cloud.alloc_bytes_per_session",
            ratio(first.alloc_bytes, done),
        ),
        (
            "trace.overhead_pct",
            (p50_traced - p50_untraced) / p50_untraced * 100.0,
        ),
    ]);
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|(name, unit, _)| (*name, values.get(name).copied().unwrap_or(f64::NAN), *unit))
        .collect();
    print_metrics(&metrics);

    println!("# session budget: self time per replayed session, by layer");
    for (layer, ns) in &by_layer {
        println!(
            "budget {layer:<28} {:>10.3} us",
            *ns as f64 / 1e3 / sessions
        );
    }
    println!(
        "budget {:<28} {attributed_us:>10.3} us",
        "(attributed, sum)"
    );
    println!(
        "budget {:<28} {:>10.3} us",
        "core.cloud (unattributed)",
        p50_untraced - attributed_us
    );
    println!("budget {:<28} {p50_untraced:>10.3} us", "untraced host p50");
    println!(
        "samples: untraced and traced p50 over {} slices (minimum of {} interleaved repetitions); \
         traced p50 {p50_traced:.3} us; sim_digest {:#018x} in all three passes' own repetitions",
        host.len(),
        TRACE_REPS,
        first.sim_digest
    );

    tracer.absorb(replayed.tracer);
    write_trace(options, provenance.clone(), &tracer);
    finish(options, provenance, "per_layer", &u, extra, metrics)
}

fn write_trace(options: &Options, provenance: Json, tracer: &Tracer) {
    let header = vec![
        ("workload".to_owned(), Json::str(options.workload.name())),
        (
            "note".to_owned(),
            Json::str(
                "core.cloud.api.* spans are the workload's own public Cloud calls (session = call \
                 number); all other spans belong to the stage replay (session = replayed session); \
                 twin spans were timed alone right after their parent",
            ),
        ),
        ("provenance".to_owned(), provenance),
    ];
    write_file(
        &options.out_dir,
        &format!("trace-{}.json", options.workload.name()),
        &tracer.to_json(header),
    );
}

/// The `BENCHMARK.json` document, generated from the tables in
/// [`crate::spec`] so the contract and the code cannot drift apart.
pub fn manifest() -> Json {
    let metric = |name: &str, unit: &str, better: crate::spec::Better| {
        vec![
            ("name".to_owned(), Json::str(name)),
            ("unit".to_owned(), Json::str(unit)),
            ("better".to_owned(), Json::str(better.word())),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(REFERENCE_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut members = metric(m.name, m.unit, m.better);
                        members.push(("bound".to_owned(), Json::Num(m.bound)));
                        Json::Obj(members)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| Json::Obj(metric(name, unit, *better)))
                    .collect(),
            ),
        ),
    ])
}

/// Runs one workload as `options` say.
pub fn run(options: &Options) -> Outcome {
    match options.trace {
        true => run_traced(options),
        false => run_end_to_end(options),
    }
}
