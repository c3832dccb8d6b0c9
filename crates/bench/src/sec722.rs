//! **Section 7.2.2** — Protocol verification: re-checks the secrecy,
//! integrity and authentication properties of the attestation protocol
//! with the bounded Dolev-Yao verifier (the paper used ProVerif), and
//! demonstrates attack-finding on weakened variants.

use monatt_core::Protocol;
use monatt_verifier::{verify_program, ModelConfig, SearchConfig, VerifyOutcome};

/// One verification scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name.
    pub name: &'static str,
    /// What the expected verdict means.
    pub expectation: &'static str,
    /// Model configuration.
    pub config: ModelConfig,
    /// Whether the protocol should verify cleanly.
    pub expect_verified: bool,
}

/// The scenario matrix: the deployed protocol plus each weakened variant.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "full protocol",
            expectation: "all properties hold",
            config: ModelConfig::full(),
            expect_verified: true,
        },
        Scenario {
            name: "no quote signatures + compromised host hop",
            expectation: "attacker forges measurements (integrity broken)",
            config: ModelConfig {
                sign_quotes: false,
                leak_kz: true,
                ..ModelConfig::full()
            },
            expect_verified: false,
        },
        Scenario {
            name: "no channel encryption",
            expectation: "P, M, R leak (secrecy broken)",
            config: ModelConfig {
                encrypt_channels: false,
                ..ModelConfig::full()
            },
            expect_verified: false,
        },
        Scenario {
            name: "no nonces + long-term attestation key + recorded session",
            expectation: "stale measurements replayable (freshness broken)",
            config: ModelConfig {
                include_nonces: false,
                fresh_attestation_key: false,
                preload_old_session: true,
                ..ModelConfig::full()
            },
            expect_verified: false,
        },
        Scenario {
            name: "no nonces but fresh per-session attestation keys",
            expectation: "per-session ASKs alone blocks replay (defence in depth)",
            config: ModelConfig {
                include_nonces: false,
                fresh_attestation_key: true,
                preload_old_session: true,
                ..ModelConfig::full()
            },
            expect_verified: true,
        },
    ]
}

/// Verifies Figure 3 as core compiles it (one path: it has no gate)
/// under the scenario's model configuration.
pub fn verify(scenario: &Scenario, search: SearchConfig) -> VerifyOutcome {
    verify_program(&Protocol::figure3_customer(), &scenario.config, search)
        .expect("Figure 3 compiles")
        .remove(0)
}

/// Runs all scenarios.
pub fn run() -> Vec<(Scenario, VerifyOutcome)> {
    scenarios()
        .into_iter()
        .map(|s| {
            let outcome = verify(&s, SearchConfig::default());
            (s, outcome)
        })
        .collect()
}

/// The verdict a run prints: a search that ran out of branches proves
/// nothing either way.
pub fn verdict(outcome: &VerifyOutcome) -> &'static str {
    if outcome.truncated {
        "TRUNCATED"
    } else if outcome.violations.is_empty() {
        "VERIFIED"
    } else {
        "ATTACK FOUND"
    }
}

/// Prints the verification report.
pub fn print(results: &[(Scenario, VerifyOutcome)]) {
    println!("Section 7.2.2: Protocol Verification (bounded Dolev-Yao)");
    for (scenario, outcome) in results {
        println!(
            "\n[{}] {} — {} ({} branches)",
            verdict(outcome),
            scenario.name,
            scenario.expectation,
            outcome.branches
        );
        for v in &outcome.violations {
            println!("  - {}: {}", v.property, v.detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_match_expectations() {
        for (scenario, outcome) in run() {
            assert!(!outcome.truncated, "{}: search truncated", scenario.name);
            assert_eq!(
                outcome.verified(),
                scenario.expect_verified,
                "{}: expected verified={}, got violations {:#?}",
                scenario.name,
                scenario.expect_verified,
                outcome.violations
            );
        }
    }

    #[test]
    fn a_truncated_search_is_not_reported_as_an_attack() {
        let scenario = &scenarios()[0];
        let search = SearchConfig {
            max_branches: 10,
            ..SearchConfig::default()
        };
        let outcome = verify(scenario, search);
        assert!(outcome.truncated && outcome.violations.is_empty());
        assert_eq!(verdict(&outcome), "TRUNCATED");
    }
}
