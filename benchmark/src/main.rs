//! `monatt-perf`: command line of the benchmark.
//!
//! ```text
//! monatt-perf --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>] [--out-dir <dir>]
//! monatt-perf compare --a <dir>[,<dir>] --b <dir>[,<dir>] [--agree]
//! monatt-perf baseline <dir>...     # result files -> benchmark/baseline.json
//! monatt-perf manifest              # the metric tables -> BENCHMARK.json
//! ```

use monatt_perf::compare;
use monatt_perf::json::{self, Json};
use monatt_perf::run::{run, Options};
use monatt_perf::spec::{Workload, REFERENCE_SECONDS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  monatt-perf --workload <oneshot_idle|busy_window|fleet_round|lifecycle_mix|all> --seed <n>
              [--seconds <s>] [--trace <0|1>] [--out-dir <dir>]
  monatt-perf compare --a <dir>[,<dir>] --b <dir>[,<dir>] [--agree]
  monatt-perf baseline <dir>...
  monatt-perf manifest";

fn dirs(list: &str) -> Vec<PathBuf> {
    list.split(',').map(PathBuf::from).collect()
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let (mut a, mut b, mut agree) = (Vec::new(), Vec::new(), false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--a" => a = dirs(it.next().ok_or("--a needs a value")?),
            "--b" => b = dirs(it.next().ok_or("--b needs a value")?),
            "--agree" => agree = true,
            other => return Err(format!("compare: unknown argument {other}")),
        }
    }
    if a.is_empty() || b.is_empty() {
        return Err("compare needs --a and --b".into());
    }
    compare::compare(&a, &b, agree)
}

/// Runs every workload in a fresh child process each, so that peak
/// RSS, allocator state and the thread-local Montgomery cache are per
/// workload, then sums the children's results up.
fn run_all(seed: u64, seconds: f64, trace: bool, out_dir: &PathBuf) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(out_dir)
            .status()
            .map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
        all_correct &= status.success();
        let kind = if trace { "layers" } else { "result" };
        let path = out_dir.join(format!("{kind}-{}.json", workload.name()));
        let doc = json::read(&path)?;
        attempted += doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        for (name, value) in doc
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            metrics.push((format!("{}.{name}", workload.name()), value.clone()));
        }
    }
    let line = Json::obj([
        ("correct", Json::Bool(all_correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.encode());
    Ok(all_correct)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = REFERENCE_SECONDS;
    let mut trace = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1`, or bare `--trace` for the traced run.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out-dir" => out_dir = PathBuf::from(value("--out-dir")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if workload == "all" {
        return run_all(seed, seconds, trace, &out_dir);
    }
    let workload = Workload::from_name(&workload).ok_or(format!("unknown workload {workload}"))?;
    let outcome = run(&Options {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
        command: std::env::args().collect::<Vec<_>>().join(" "),
    });
    println!("{}", outcome.result_line());
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_command(&args[1..]),
        Some("baseline") => {
            let dirs: Vec<PathBuf> = args[1..].iter().map(PathBuf::from).collect();
            compare::baseline(&dirs).map(|doc| {
                print!("{}", doc.pretty());
                true
            })
        }
        Some("manifest") => {
            print!("{}", monatt_perf::run::manifest().pretty());
            Ok(true)
        }
        Some("run") => run_command(&args[1..]),
        Some(_) => run_command(&args),
        None => Err("no arguments".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("monatt-perf: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
