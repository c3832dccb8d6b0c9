//! Smoke test of the benchmark itself: every workload at a tenth of a
//! repetition (1/50 of a full run's work).
//!
//! Run it optimised — the from-scratch bignum crypto is some thirty
//! times slower in a debug build:
//!
//! ```text
//! cargo test --release --manifest-path benchmark/Cargo.toml
//! ```

use monatt_perf::json::{self, Json};
use monatt_perf::run::{manifest, run, Options};
use monatt_perf::scenario::{run_pass, PassConfig};
use monatt_perf::spec::{Workload, REFERENCE_SECONDS};
use std::path::PathBuf;

/// A tenth of a repetition.
const SCALE: f64 = 0.1;

fn config(workload: Workload, seed: u64, traced: bool) -> PassConfig {
    PassConfig {
        workload,
        seed,
        work: workload.work(SCALE),
        idle_twin: false,
        traced,
    }
}

#[test]
fn digest_repeats_depends_on_the_seed_and_ignores_tracing() {
    for workload in Workload::ALL {
        let first = run_pass(config(workload, 1, false));
        assert_eq!(
            first.violations,
            Vec::<String>::new(),
            "{}",
            workload.name()
        );
        let again = run_pass(config(workload, 1, false));
        assert_eq!(
            first.sim_digest,
            again.sim_digest,
            "{} does not repeat",
            workload.name()
        );
        assert_eq!(
            first.latencies_us,
            again.latencies_us,
            "{} does not repeat",
            workload.name()
        );
        let traced = run_pass(config(workload, 1, true));
        assert_eq!(
            first.sim_digest,
            traced.sim_digest,
            "tracing perturbed {}",
            workload.name()
        );
        assert!(traced.tracer.is_some_and(|t| !t.spans().is_empty()));
        let other = run_pass(config(workload, 2, false));
        assert_ne!(
            first.sim_digest,
            other.sim_digest,
            "{} ignores its seed",
            workload.name()
        );
    }
}

/// The committed `BENCHMARK.json`.
fn committed_manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_is_what_the_tables_generate() {
    assert_eq!(
        committed_manifest(),
        manifest(),
        "regenerate with `monatt-perf manifest`"
    );
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(manifest: &Json, key: &str) -> Vec<(String, String)> {
    let field = |m: &Json, f: &str| {
        m.get(f)
            .and_then(Json::as_str)
            .expect("metric field")
            .to_owned()
    };
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn every_run_reports_exactly_the_declared_metrics() {
    let manifest = committed_manifest();
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    for workload in Workload::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run(&Options {
                workload,
                seed: 3,
                seconds: REFERENCE_SECONDS * SCALE,
                trace,
                out_dir: out_dir.clone(),
                command: "smoke test".into(),
            });
            assert!(
                outcome.correct,
                "{} {key}: output checks failed",
                workload.name()
            );
            assert!(outcome.attempted >= 1 && outcome.failed == 0);
            let reported: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
                .collect();
            assert_eq!(
                reported,
                declared(&manifest, key),
                "{} {key}",
                workload.name()
            );
            for (name, value, _) in &outcome.metrics {
                assert!(value.is_finite(), "{} {name} = {value}", workload.name());
            }
            // The result line is one JSON object with exactly four keys.
            let line = json::parse(&outcome.result_line()).expect("result line parses");
            let keys: Vec<&str> = line
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
        let trace_file = out_dir.join(format!("trace-{}.json", workload.name()));
        let trace = json::parse(&std::fs::read_to_string(trace_file).expect("trace file written"))
            .expect("trace file parses");
        assert!(trace
            .get("spans")
            .and_then(Json::as_arr)
            .is_some_and(|s| !s.is_empty()));
    }
}
