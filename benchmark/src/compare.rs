//! `compare`: two sets of result files against the benchmark's own
//! bounds. Host metrics may differ by their bound; simulated metrics
//! and `sim_digest` of equal `(workload, seed, seconds)` must be equal.
//!
//! A set stands for its *best* run of each host metric. Sandbox noise
//! only ever makes a run slower, and now and then slows a whole run by
//! a quarter; with two runs a set, the mean would carry that into the
//! verdict and the best does not.

use crate::json::{self, Json};
use crate::spec::{Better, Workload, END_TO_END};
use std::path::{Path, PathBuf};

/// One `result-<workload>.json`, as far as `compare` reads it.
struct ResultFile {
    key: (f64, f64),
    digest: String,
    metrics: Json,
}

fn load(dir: &Path, workload: Workload) -> Result<ResultFile, String> {
    let path = dir.join(format!("result-{}.json", workload.name()));
    let doc = json::read(&path)?;
    let field = |name: &str| {
        doc.get(name)
            .ok_or_else(|| format!("{}: no \"{name}\"", path.display()))
    };
    if field("correct")? != &Json::Bool(true) {
        return Err(format!(
            "{}: the run failed its output checks",
            path.display()
        ));
    }
    Ok(ResultFile {
        key: (
            field("seed")?.as_f64().unwrap_or(f64::NAN),
            field("seconds")?.as_f64().unwrap_or(f64::NAN),
        ),
        digest: field("sim_digest")?.as_str().unwrap_or_default().to_owned(),
        metrics: field("metrics")?.clone(),
    })
}

fn value(file: &ResultFile, metric: &str) -> Option<f64> {
    file.metrics.get(metric)?.get("value")?.as_f64()
}

/// The best of a set's values of one metric.
fn best(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values
        .iter()
        .copied()
        .reduce(pick)
        .expect("a set has at least one run")
}

/// Compares set `a` (the reference) with set `b`, printing a markdown
/// table. With `agree` the sets are runs of the same code and must
/// agree within the bound in *both* directions; without it only `b`
/// being worse counts. Returns whether every row passed.
///
/// # Errors
///
/// A message naming the first result file that is missing, malformed
/// or from a failed run.
pub fn compare(a: &[PathBuf], b: &[PathBuf], agree: bool) -> Result<bool, String> {
    let mut ok = true;
    println!("| workload | metric | unit | A | B | B vs A | bound | verdict |");
    println!("|---|---|---|---:|---:|---:|---:|---|");
    for workload in Workload::ALL {
        let load_all = |dirs: &[PathBuf]| -> Result<Vec<ResultFile>, String> {
            dirs.iter().map(|dir| load(dir, workload)).collect()
        };
        let (files_a, files_b) = (load_all(a)?, load_all(b)?);
        let all: Vec<&ResultFile> = files_a.iter().chain(&files_b).collect();
        let same_inputs = all.iter().all(|f| f.key == all[0].key);
        if same_inputs {
            let same = all.iter().all(|f| f.digest == all[0].digest);
            ok &= same;
            println!(
                "| {} | sim_digest | | {} | {} | | exact | {} |",
                workload.name(),
                files_a[0].digest,
                files_b[0].digest,
                if same { "equal" } else { "MISMATCH" }
            );
        }
        for spec in END_TO_END {
            let values = |files: &[ResultFile]| -> Result<Vec<f64>, String> {
                files
                    .iter()
                    .map(|f| {
                        value(f, spec.name)
                            .ok_or_else(|| format!("{}: no metric {}", workload.name(), spec.name))
                    })
                    .collect()
            };
            let (values_a, values_b) = (values(&files_a)?, values(&files_b)?);
            let (best_a, best_b) = (best(&values_a, spec.better), best(&values_b, spec.better));
            // Positive: B is worse than A by this share of A.
            let worse = match spec.better {
                Better::Lower => (best_b - best_a) / best_a,
                Better::Higher => (best_a - best_b) / best_a,
            };
            let (bound, pass) = if spec.simulated && same_inputs {
                let exact = values_a.iter().chain(&values_b).all(|v| *v == values_a[0]);
                ("exact".to_owned(), exact)
            } else {
                let breach = if agree { worse.abs() } else { worse };
                (format!("{:.0} %", spec.bound * 100.0), breach <= spec.bound)
            };
            ok &= pass;
            println!(
                "| {} | {} | {} | {best_a:.4} | {best_b:.4} | {:+.2} % | {bound} | {} |",
                workload.name(),
                spec.name,
                spec.unit,
                worse * 100.0,
                if pass { "ok" } else { "BREACH" }
            );
        }
    }
    Ok(ok)
}

/// Merges the result files of `dirs` into the `benchmark/baseline.json`
/// document: one entry per `(workload, seed, seconds)`.
///
/// # Errors
///
/// A message naming the first unreadable or malformed file.
pub fn baseline(dirs: &[PathBuf]) -> Result<Json, String> {
    let mut runs = Vec::new();
    for dir in dirs {
        for workload in Workload::ALL {
            runs.push(json::read(
                &dir.join(format!("result-{}.json", workload.name())),
            )?);
        }
    }
    Ok(Json::obj([
        (
            "note",
            Json::str(
                "Baseline of monatt-perf: per (workload, seed, seconds) the sim_digest, the pinned \
                 per-(guest kind, property) verdict counts, the end-to-end values and the \
                 provenance of the run that measured them. Regenerate with `monatt-perf baseline <out-dir>...` \
                 over the out-dirs of one `--workload all` run per seed.",
            ),
        ),
        ("runs", Json::Arr(runs)),
    ]))
}
