//! Where a number came from: the fields ROADMAP asks every bench row
//! to carry.

use crate::json::Json;
use std::process::Command;

/// First line of a command's standard output, if it ran and succeeded.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    text.lines().next().map(str::to_owned)
}

/// The commit the working directory is at, `-dirty` if it has
/// uncommitted changes. The driver's checkouts are not git
/// repositories; there the commit is unknown.
fn commit() -> String {
    match first_line("git", &["rev-parse", "HEAD"]) {
        Some(head) => match first_line("git", &["status", "--porcelain"]) {
            Some(_) => format!("{head}-dirty"),
            None => head,
        },
        None => "unknown (not a git checkout)".into(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The provenance block of one run.
pub fn collect(command: &str, seed: u64, seconds: f64, work: &str) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("commit", Json::str(commit())),
        ("command", Json::str(command)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("work", Json::str(work)),
        (
            "rustc",
            Json::str(first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("threads", Json::Num(1.0)),
    ])
}
