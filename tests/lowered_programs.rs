//! Every built-in attestation program, as the cloud compiles it, checked
//! by the symbolic verifier on every path through its gates: the full
//! protocol verifies, a stronger adversary learns only what crosses the
//! hop whose key it holds, and dropping the quote signatures lets it
//! forge a measurement. No search may run out of branches.

use cloudmonatt::core::{Protocol, SecurityProperty};
use cloudmonatt::verifier::{lower, verify, Model, ModelConfig, SearchConfig, VerifyOutcome};

/// The programs the cloud registers or builds, with their gate-path
/// counts.
fn programs() -> Vec<(&'static str, Protocol, usize)> {
    let fanout = [
        SecurityProperty::RuntimeIntegrity,
        SecurityProperty::CovertChannelFreedom,
        SecurityProperty::SchedulerFairness,
    ];
    vec![
        ("figure3_customer", Protocol::figure3_customer(), 1),
        ("figure3_internal", Protocol::figure3_internal(), 1),
        (
            "layered",
            Protocol::layered(SecurityProperty::StartupIntegrity),
            2,
        ),
        ("fanout", Protocol::fanout(&fanout), 1),
    ]
}

/// Verifies every path of every program under `cfg`, after `query`
/// narrows each model's queries.
fn verify_all(
    cfg: ModelConfig,
    search: SearchConfig,
    query: impl Fn(&mut Model),
) -> Vec<(String, VerifyOutcome)> {
    let mut out = Vec::new();
    for (name, program, paths) in programs() {
        let models = lower(&program, &cfg).expect("built-in programs compile");
        assert_eq!(models.len(), paths, "{name}: one model per gate edge");
        for (path, mut model) in models.into_iter().enumerate() {
            query(&mut model);
            let outcome = verify(&model.protocol, &model.initial, &model.properties, search);
            assert!(!outcome.truncated, "{name} path {path}: search truncated");
            out.push((format!("{name} path {path}"), outcome));
        }
    }
    out
}

#[test]
fn every_builtin_program_verifies_under_the_full_protocol() {
    for (run, outcome) in verify_all(ModelConfig::full(), SearchConfig::default(), |_| {}) {
        assert!(outcome.verified(), "{run}: {:#?}", outcome.violations);
    }
}

#[test]
fn a_strong_adversary_learns_only_the_measurements_on_the_leaked_kz_hop() {
    let cfg = ModelConfig::full_under_strong_adversary();
    for (run, outcome) in verify_all(cfg, SearchConfig::default(), |_| {}) {
        for v in &outcome.violations {
            assert_eq!(v.property, "secrecy", "{run}: {v:?}");
            assert!(
                v.detail.starts_with("attacker derives measurement_m"),
                "{run}: {v:?}"
            );
        }
    }
}

#[test]
fn unsigned_quotes_over_a_leaked_kz_let_the_attacker_forge_a_measurement() {
    let cfg = ModelConfig {
        sign_quotes: false,
        leak_kz: true,
        ..ModelConfig::full()
    };
    // The authentication queries alone, stopping at the first attack.
    let search = SearchConfig {
        max_violations: 1,
        ..SearchConfig::default()
    };
    for (run, outcome) in verify_all(cfg, search, |m| m.properties.secrets.clear()) {
        let [v] = &outcome.violations[..] else {
            panic!("{run}: expected one forgery, got {:#?}", outcome.violations);
        };
        assert_eq!(v.property, "correspondence", "{run}");
        assert!(
            v.detail.starts_with("attserver_accepts_measurement("),
            "{run}: {v:?}"
        );
    }
}
