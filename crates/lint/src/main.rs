//! The `monatt-lint` command-line front end.

use std::path::PathBuf;
use std::process::ExitCode;

use monatt_lint::engine::{scan, Allowlist};
use monatt_lint::{diag, find_workspace_root, rules, Config, ALLOWLIST_FILE};

const USAGE: &str = "\
monatt-lint: workspace static analysis (secret hygiene, constant time,
panic freedom, determinism, alloc freedom, secret taint)

USAGE:
    monatt-lint [OPTIONS]

OPTIONS:
    --deny              CI mode: exit 1 on findings over the allowlist
                        budget or on stale allowlist entries
    --json              Emit the report as JSON instead of text
    --explain <RULE>    Print long-form documentation for one rule and exit
    --root <PATH>       Workspace root (default: nearest ancestor with a
                        [workspace] Cargo.toml)
    --allowlist <PATH>  Ratchet file (default: <root>/monatt-lint.allow)
    --secret-type <T>   Add a type to the secret list (repeatable)
    --zeroize-type <T>  Add a type to the must-zeroize list (repeatable)
    --secret-ident <I>  Add an identifier to the format-leak list (repeatable)
    --ct-part <P>       Add a snake_case part to the tag/digest comparison
                        trigger list (repeatable)
    --hot-path <FILE>   Add a workspace-relative file to the crypto
                        hot-path set (repeatable)
    --panic-crate <C>   Add a crate to the panic_freedom scope (repeatable)
    --panic-file <FILE> Add a workspace-relative file to the panic_freedom
                        scope (repeatable)
    --det-crate <C>     Add a crate to the determinism scope (repeatable)
    --warm-file <FILE>  Add a workspace-relative file to the alloc_freedom
                        warm-path set (repeatable)
    --cold-fn <F>       Add a function name treated as cold/setup by
                        alloc_freedom (repeatable)
    --taint-sink <F>    Add a serialization sink function for secret_taint
                        (repeatable)
    --skip-crate <C>    Exclude a crate directory from scanning (repeatable)
    -h, --help          Show this help

EXIT CODES:
    0  clean (or findings within budget without --deny)
    1  --deny failure: over-budget findings or stale allowlist entries
    2  usage or I/O error";

struct Options {
    deny: bool,
    json: bool,
    explain: Option<String>,
    root: Option<PathBuf>,
    allowlist: Option<PathBuf>,
    cfg: Config,
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        deny: false,
        json: false,
        explain: None,
        root: None,
        allowlist: None,
        cfg: Config::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--deny" => opts.deny = true,
            "--json" => opts.json = true,
            "--explain" => opts.explain = Some(value("--explain")?),
            "--root" => opts.root = Some(PathBuf::from(value("--root")?)),
            "--allowlist" => opts.allowlist = Some(PathBuf::from(value("--allowlist")?)),
            "--secret-type" => opts.cfg.secret_types.push(value("--secret-type")?),
            "--zeroize-type" => opts.cfg.zeroize_types.push(value("--zeroize-type")?),
            "--secret-ident" => opts.cfg.secret_idents.push(value("--secret-ident")?),
            "--ct-part" => opts.cfg.ct_ident_parts.push(value("--ct-part")?),
            "--hot-path" => opts.cfg.hot_path_files.push(value("--hot-path")?),
            "--panic-crate" => opts.cfg.panic_crates.push(value("--panic-crate")?),
            "--panic-file" => opts.cfg.panic_files.push(value("--panic-file")?),
            "--det-crate" => opts.cfg.det_crates.push(value("--det-crate")?),
            "--warm-file" => opts.cfg.warm_path_files.push(value("--warm-file")?),
            "--cold-fn" => opts.cfg.alloc_cold_fns.push(value("--cold-fn")?),
            "--taint-sink" => opts.cfg.taint_sink_fns.push(value("--taint-sink")?),
            "--skip-crate" => opts.cfg.skip_crates.push(value("--skip-crate")?),
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown option `{other}` (see --help)")),
        }
    }
    Ok(Some(opts))
}

fn run(opts: Options) -> Result<bool, String> {
    if let Some(rule) = &opts.explain {
        let text = rules::explain(rule).ok_or_else(|| {
            format!(
                "unknown rule `{rule}`; known rules: {}",
                rules::RULE_NAMES.join(", ")
            )
        })?;
        println!("{text}");
        return Ok(true);
    }
    let root = match opts.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no [workspace] Cargo.toml found above the current directory")?
        }
    };
    let allow_path = opts.allowlist.unwrap_or_else(|| root.join(ALLOWLIST_FILE));
    let allow = Allowlist::load(&allow_path)?;
    let report =
        scan(&root, &opts.cfg, &allow).map_err(|e| format!("scanning {}: {e}", root.display()))?;

    if opts.json {
        let violations: Vec<String> = report
            .violations
            .iter()
            .chain(&report.stale)
            .map(|v| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        println!(
            "{{\"findings\":{},\"budgeted\":{},\"violations\":[{}],\"files\":{}}}",
            diag::to_json_array(&report.findings),
            report.budgeted,
            violations.join(","),
            report.files
        );
    } else {
        for d in &report.findings {
            println!("{d}");
        }
        if !report.findings.is_empty() {
            println!();
        }
        println!(
            "monatt-lint: {} file(s), {} finding(s) ({} within allowlist budget)",
            report.files,
            report.findings.len(),
            report.budgeted
        );
        for v in &report.violations {
            println!("DENY: {v}");
        }
        for s in &report.stale {
            println!("DENY: {s}");
        }
    }
    Ok(!(opts.deny && report.deny_failure()))
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(None) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Some(opts)) => match run(opts) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("monatt-lint: error: {e}");
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("monatt-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}
