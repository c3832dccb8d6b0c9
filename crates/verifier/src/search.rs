//! Bounded state-space exploration against the Dolev-Yao attacker.
//!
//! The attacker controls the network: every `Send` enters its knowledge,
//! and at every `Recv` it may deliver *any term it can derive* that
//! matches the receiver's pattern. Unbound pattern holes are filled from
//! the typed subterm universe of the attacker's knowledge plus a fresh
//! attacker-chosen atom per kind (the standard subterm-property
//! restriction of bounded Dolev-Yao checking); each candidate message is
//! then checked for derivability.
//!
//! Properties:
//! * **Secrecy** — the attacker can never derive a designated term.
//! * **Correspondence (authentication/integrity)** — every `commit` event
//!   is preceded by a `running` event with identical arguments, i.e. the
//!   value a party accepts is the value its peer actually produced.

use crate::knowledge::Knowledge;
use crate::protocol::{Bindings, EventRecord, Pat, Protocol, Step};
use crate::term::{Kind, Term};

/// A property violation found by the search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which property was violated.
    pub property: String,
    /// Human-readable description of the attack.
    pub detail: String,
    /// The attacker's message deliveries along the violating branch.
    pub trace: Vec<String>,
}

/// A correspondence assertion: every `commit` event must be preceded by a
/// `running` event with equal arguments.
#[derive(Clone, Debug)]
pub struct Correspondence {
    /// The committing event label (e.g. `"customer_accepts_report"`).
    pub commit: String,
    /// The required earlier event label (e.g. `"attserver_issues_report"`).
    pub running: String,
}

/// The properties to check.
#[derive(Clone, Debug, Default)]
pub struct Properties {
    /// Terms that must remain underivable forever.
    pub secrets: Vec<Term>,
    /// Correspondence assertions.
    pub correspondences: Vec<Correspondence>,
}

/// Search configuration.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Maximum branches explored before giving up (reported as
    /// `truncated`).
    pub max_branches: u64,
    /// Maximum violations collected before stopping early.
    pub max_violations: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_branches: 500_000,
            max_violations: 8,
        }
    }
}

/// Result of a verification run.
#[derive(Clone, Debug)]
pub struct VerifyOutcome {
    /// Violations found (empty = verified within the bound).
    pub violations: Vec<Violation>,
    /// Branches explored.
    pub branches: u64,
    /// True if the search hit `max_branches` (verification incomplete).
    pub truncated: bool,
}

impl VerifyOutcome {
    /// True if no violations were found and the search completed.
    pub fn verified(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }
}

/// The search in progress: the fixed inputs, the current branch's
/// delivery trace, and what has been found.
struct Search<'a> {
    protocol: &'a Protocol,
    properties: &'a Properties,
    config: SearchConfig,
    trace: Vec<String>,
    violations: Vec<Violation>,
    seen: std::collections::BTreeSet<String>,
    branches: u64,
    truncated: bool,
}

/// Verifies `protocol` against `properties`, starting the attacker with
/// `initial_knowledge`.
pub fn verify(
    protocol: &Protocol,
    initial_knowledge: &[Term],
    properties: &Properties,
    config: SearchConfig,
) -> VerifyOutcome {
    protocol.validate();
    let mut knowledge = Knowledge::from_initial(initial_knowledge.iter().cloned());
    // The attacker can always invent fresh values of each atom kind.
    knowledge.learn(Term::atom("attacker_id", Kind::Id));
    knowledge.learn(Term::atom("attacker_nonce", Kind::Nonce));
    knowledge.learn(Term::atom("attacker_key", Kind::Key));
    knowledge.learn(Term::atom("attacker_data", Kind::Data));
    let bindings: Vec<Bindings> = protocol.roles.iter().map(|r| r.initial.clone()).collect();
    let pcs = vec![0usize; protocol.roles.len()];
    let mut search = Search {
        protocol,
        properties,
        config,
        trace: Vec::new(),
        violations: Vec::new(),
        seen: std::collections::BTreeSet::new(),
        branches: 0,
        truncated: false,
    };
    search.explore(0, pcs, bindings, knowledge, Vec::new());
    VerifyOutcome {
        violations: search.violations,
        branches: search.branches,
        truncated: search.truncated,
    }
}

impl Search<'_> {
    /// Records a violation if it is novel (property + detail).
    fn push(&mut self, property: &str, detail: String) {
        if self.seen.insert(format!("{property}::{detail}")) {
            self.violations.push(Violation {
                property: property.into(),
                detail,
                trace: self.trace.clone(),
            });
        }
    }

    fn stopped(&self) -> bool {
        self.truncated || self.violations.len() >= self.config.max_violations
    }

    fn check_secrets(&mut self, knowledge: &Knowledge) {
        for secret in &self.properties.secrets {
            if knowledge.can_derive(secret) {
                // `secret` is a symbolic term name in the protocol model
                // (e.g. "k_session"), not actual key material.
                self.push("secrecy", format!("attacker derives {secret}")); // #[allow(monatt::secret_hygiene)]
            }
        }
    }

    fn check_correspondences(&mut self, events: &[EventRecord]) {
        for corr in &self.properties.correspondences {
            for (i, ev) in events.iter().enumerate() {
                if ev.label != corr.commit {
                    continue;
                }
                let matched = events[..i]
                    .iter()
                    .any(|prior| prior.label == corr.running && prior.args == ev.args);
                if !matched {
                    let args: Vec<String> = ev.args.iter().map(|t| t.to_string()).collect();
                    let detail = format!(
                        "{}({}) committed without matching {}",
                        corr.commit,
                        args.join(", "),
                        corr.running
                    );
                    self.push("correspondence", detail);
                }
            }
        }
    }

    /// Takes the step at `schedule_pos`, then explores every branch after
    /// it.
    fn explore(
        &mut self,
        schedule_pos: usize,
        mut pcs: Vec<usize>,
        bindings: Vec<Bindings>,
        mut knowledge: Knowledge,
        mut events: Vec<EventRecord>,
    ) {
        if self.stopped() {
            return;
        }
        self.branches += 1;
        if self.branches > self.config.max_branches {
            self.truncated = true;
            return;
        }
        let protocol = self.protocol;
        let Some(&role_idx) = protocol.schedule.get(schedule_pos) else {
            // Branch complete: check end-to-end properties.
            self.check_secrets(&knowledge);
            return self.check_correspondences(&events);
        };
        let role = &protocol.roles[role_idx];
        let step = &role.steps[pcs[role_idx]];
        pcs[role_idx] += 1;
        match step {
            Step::Send(template) => {
                knowledge.learn(template.instantiate(&bindings[role_idx]));
                // Secrecy can break as soon as knowledge grows.
                self.check_secrets(&knowledge);
                self.explore(schedule_pos + 1, pcs, bindings, knowledge, events);
            }
            Step::Event(label, arg_templates) => {
                let args = arg_templates
                    .iter()
                    .map(|p| p.instantiate(&bindings[role_idx]))
                    .collect();
                events.push(EventRecord {
                    role: role.name.clone(),
                    label: label.clone(),
                    args,
                });
                self.explore(schedule_pos + 1, pcs, bindings, knowledge, events);
            }
            Step::Recv(pattern) => {
                for (term, new_bindings) in
                    candidate_deliveries(pattern, &bindings[role_idx], &knowledge)
                {
                    let mut bindings = bindings.clone();
                    bindings[role_idx] = new_bindings;
                    self.trace
                        .push(format!("deliver to {}: {}", role.name, term));
                    let (pcs, knowledge, events) = (pcs.clone(), knowledge.clone(), events.clone());
                    self.explore(schedule_pos + 1, pcs, bindings, knowledge, events);
                    self.trace.pop();
                    if self.stopped() {
                        return;
                    }
                }
            }
        }
    }
}

/// Enumerates the terms the attacker can deliver for `pattern`: every
/// typed instantiation of the unbound holes from the knowledge's subterm
/// universe (plus fresh attacker atoms), filtered by derivability.
fn candidate_deliveries(
    pattern: &Pat,
    bindings: &Bindings,
    knowledge: &Knowledge,
) -> Vec<(Term, Bindings)> {
    let mut holes = Vec::new();
    pattern.unbound_vars(bindings, &mut holes);
    // The universe already contains the fresh attacker atoms, which
    // `verify` seeds into the knowledge.
    let universe: Vec<Term> = knowledge.subterm_universe().into_iter().collect();
    let mut results = Vec::new();
    let mut assignment: Vec<Term> = Vec::new();
    fill_holes(
        pattern,
        bindings,
        knowledge,
        &holes,
        &universe,
        &mut assignment,
        &mut results,
    );
    results
}

fn fill_holes(
    pattern: &Pat,
    bindings: &Bindings,
    knowledge: &Knowledge,
    holes: &[(String, Kind)],
    universe: &[Term],
    assignment: &mut Vec<Term>,
    results: &mut Vec<(Term, Bindings)>,
) {
    if assignment.len() == holes.len() {
        let mut candidate_bindings = bindings.clone();
        for ((name, _), value) in holes.iter().zip(assignment.iter()) {
            candidate_bindings.insert(name.clone(), value.clone());
        }
        let term = pattern.instantiate(&candidate_bindings);
        if !knowledge.can_derive(&term) {
            return;
        }
        // Re-match to confirm (also covers patterns with repeated vars).
        let mut fresh = bindings.clone();
        if pattern.matches(&term, &mut fresh) {
            results.push((term, fresh));
        }
        return;
    }
    let (_, kind) = &holes[assignment.len()];
    for candidate in universe {
        let matches_kind = candidate.kind() == *kind
            || (*kind == Kind::Composite && candidate.kind() == Kind::Composite);
        if !matches_kind {
            continue;
        }
        assignment.push(candidate.clone());
        fill_holes(
            pattern, bindings, knowledge, holes, universe, assignment, results,
        );
        assignment.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Role;

    /// A toy protocol: A sends senc(secret, k); B receives and commits.
    fn toy(encrypted: bool) -> (Protocol, Properties) {
        let payload = if encrypted {
            Pat::senc(Pat::lit(Term::data("secret")), Pat::lit(Term::key("k")))
        } else {
            Pat::lit(Term::data("secret"))
        };
        let recv_pat = if encrypted {
            Pat::senc(Pat::var("x", Kind::Data), Pat::lit(Term::key("k")))
        } else {
            Pat::var("x", Kind::Data)
        };
        let a = Role {
            name: "A".into(),
            initial: Bindings::new(),
            steps: vec![
                Step::Event("a_sends".into(), vec![Pat::lit(Term::data("secret"))]),
                Step::Send(payload),
            ],
        };
        let b = Role {
            name: "B".into(),
            initial: Bindings::new(),
            steps: vec![
                Step::Recv(recv_pat),
                Step::Event("b_accepts".into(), vec![Pat::var("x", Kind::Data)]),
            ],
        };
        let protocol = Protocol {
            roles: vec![a, b],
            schedule: vec![0, 0, 1, 1],
        };
        let properties = Properties {
            secrets: vec![Term::data("secret")],
            correspondences: vec![Correspondence {
                commit: "b_accepts".into(),
                running: "a_sends".into(),
            }],
        };
        (protocol, properties)
    }

    #[test]
    fn encrypted_toy_protocol_verifies() {
        let (protocol, properties) = toy(true);
        let outcome = verify(&protocol, &[], &properties, SearchConfig::default());
        assert!(outcome.verified(), "violations: {:?}", outcome.violations);
        assert!(outcome.branches > 0);
    }

    #[test]
    fn plaintext_toy_protocol_breaks_secrecy_and_integrity() {
        let (protocol, properties) = toy(false);
        let outcome = verify(&protocol, &[], &properties, SearchConfig::default());
        assert!(!outcome.verified());
        assert!(
            outcome.violations.iter().any(|v| v.property == "secrecy"),
            "{:?}",
            outcome.violations
        );
        // The attacker can substitute its own data atom, breaking the
        // correspondence.
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.property == "correspondence"));
    }

    #[test]
    fn leaked_key_breaks_encrypted_variant() {
        let (protocol, properties) = toy(true);
        let outcome = verify(
            &protocol,
            &[Term::key("k")],
            &properties,
            SearchConfig::default(),
        );
        assert!(!outcome.verified());
        assert!(outcome.violations.iter().any(|v| v.property == "secrecy"));
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.property == "correspondence"));
    }

    #[test]
    fn violation_traces_name_the_delivery() {
        let (protocol, properties) = toy(false);
        let outcome = verify(&protocol, &[], &properties, SearchConfig::default());
        let corr = outcome
            .violations
            .iter()
            .find(|v| v.property == "correspondence")
            .expect("found");
        assert!(!corr.trace.is_empty());
        assert!(corr.trace[0].contains("deliver to B"));
    }

    #[test]
    fn branch_limit_reports_truncation() {
        let (protocol, properties) = toy(false);
        let outcome = verify(
            &protocol,
            &[],
            &properties,
            SearchConfig {
                max_branches: 1,
                max_violations: 100,
            },
        );
        assert!(outcome.truncated);
        assert!(!outcome.verified());
    }
}
