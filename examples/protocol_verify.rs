//! Section 7.2.2: formal verification of the attestation protocol with
//! the bounded Dolev-Yao verifier, plus attack-finding on the weakened
//! variants that drop each protocol ingredient. The model is Figure 3 as
//! `monatt-core` compiles it, lowered by `monatt_verifier::lower`.
//!
//! ```sh
//! cargo run --example protocol_verify
//! ```

use cloudmonatt::core::Protocol;
use cloudmonatt::verifier::{verify_program, ModelConfig, SearchConfig};

fn check(name: &str, config: &ModelConfig) {
    let figure3 = Protocol::figure3_customer();
    let outcome = verify_program(&figure3, config, SearchConfig::default())
        .expect("Figure 3 compiles")
        .remove(0);
    if outcome.truncated {
        println!(
            "[TRUNCATED]    {name} (search stopped after {} branches)",
            outcome.branches
        );
    } else if outcome.verified() {
        println!(
            "[VERIFIED]     {name} ({} branches explored)",
            outcome.branches
        );
    } else {
        println!("[ATTACK FOUND] {name}:");
        for v in &outcome.violations {
            println!("    {}: {}", v.property, v.detail);
        }
    }
}

fn main() {
    println!("CloudMonatt attestation protocol (Figure 3) under a Dolev-Yao attacker\n");
    check("full protocol", &ModelConfig::full());
    check(
        "full protocol, attacker recorded an old session and knows Kz",
        &ModelConfig::full_under_strong_adversary(),
    );
    check(
        "quotes unsigned + compromised host hop",
        &ModelConfig {
            sign_quotes: false,
            leak_kz: true,
            ..ModelConfig::full()
        },
    );
    check(
        "channels unencrypted",
        &ModelConfig {
            encrypt_channels: false,
            ..ModelConfig::full()
        },
    );
    check(
        "no nonces, long-term signing key, recorded session (replay)",
        &ModelConfig {
            include_nonces: false,
            fresh_attestation_key: false,
            preload_old_session: true,
            ..ModelConfig::full()
        },
    );
}
