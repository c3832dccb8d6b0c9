//! Runs the chaos sweep: periodic attestation fleets under seeded
//! crash/recovery churn, message loss, admission shedding and session
//! deadlines, verifying the liveness invariants in every cell.
//!
//! `--smoke` runs a reduced grid for CI; `--control-plane` runs only
//! the replicated control-plane churn grid (sharded controllers + AS
//! replica pool under their own MTBF process); `--json` additionally
//! writes the machine-readable document (see `BENCH_chaos.json`),
//! which always carries both grids — so it cannot be combined with
//! `--control-plane`.

const USAGE: &str = "usage: chaos_sweep [--smoke] [--control-plane | --json <path>]";

#[derive(Debug, Default, PartialEq, Eq)]
struct Args {
    smoke: bool,
    cp_only: bool,
    json_path: Option<String>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--control-plane" => parsed.cp_only = true,
            "--json" => parsed.json_path = Some(args.next().ok_or("--json needs a path")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.cp_only && parsed.json_path.is_some() {
        return Err("--json carries both grids; drop --control-plane".into());
    }
    Ok(parsed)
}

fn main() {
    let Args {
        smoke,
        cp_only,
        json_path,
    } = parse(std::env::args().skip(1)).unwrap_or_else(|why| {
        eprintln!("chaos_sweep: {why}\n{USAGE}");
        std::process::exit(2);
    });
    let cp_rows = if smoke {
        monatt_bench::chaos::run_control_plane(
            &monatt_bench::chaos::CP_SMOKE_FLEETS,
            &monatt_bench::chaos::CP_SMOKE_CONFIGS,
            &monatt_bench::chaos::CP_SMOKE_MTBFS,
        )
    } else {
        monatt_bench::chaos::run_control_plane(
            &monatt_bench::chaos::CP_FLEETS,
            &monatt_bench::chaos::CP_CONFIGS,
            &monatt_bench::chaos::CP_MTBFS,
        )
    };
    if cp_only {
        monatt_bench::chaos::print_control_plane(&cp_rows);
        return;
    }
    let rows = if smoke {
        monatt_bench::chaos::run(
            &monatt_bench::chaos::SMOKE_FLEETS,
            &monatt_bench::chaos::SMOKE_MTBFS,
            &monatt_bench::chaos::SMOKE_LOSSES,
        )
    } else {
        monatt_bench::chaos::run(
            &monatt_bench::chaos::FLEETS,
            &monatt_bench::chaos::MTBFS,
            &monatt_bench::chaos::LOSSES,
        )
    };
    monatt_bench::chaos::print(&rows);
    monatt_bench::chaos::print_control_plane(&cp_rows);
    if let Some(path) = json_path {
        std::fs::write(
            &path,
            monatt_bench::chaos::to_json_with_control_plane(&rows, &cp_rows),
        )
        .expect("write json");
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Args, String> {
        parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parser_accepts_the_documented_forms_and_rejects_the_rest() {
        assert_eq!(
            parse_strs(&["--smoke", "--json", "out.json"]),
            Ok(Args {
                smoke: true,
                cp_only: false,
                json_path: Some("out.json".into()),
            })
        );
        assert!(parse_strs(&["--control-plane", "--json", "out.json"]).is_err());
        assert!(parse_strs(&["--smoke", "--json"]).is_err());
        assert!(parse_strs(&["--smok"]).is_err());
    }
}
