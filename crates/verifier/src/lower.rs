//! Lowering: the programs `monatt-core` compiles, as symbolic models.
//!
//! [`lower`] compiles a [`Program`] with the [`compile_into`] the cloud's
//! program registry calls, and turns its op schedule into roles. Two
//! facts come from core, so the model and the runtime share one copy of
//! each: the op list (a `Hop` per Figure-3 record) and the message table
//! ([`MsgKind::row`]: channel, direction and fields; the nonce a request
//! issues and the quote and nonce a reply carries, which the interpreter
//! enforces). `value` names each core
//! [`Field`]'s atom; the one fact only the model has is which end
//! originates a field (`originates`: message 5 names its server).
//!
//! The roles are the ends of the three channels. A hop is a `Send` by
//! one end and a `Recv` by the other. A sender puts in each field the
//! value it holds, else a name of its own; a receiver matches what it
//! holds and binds the rest. Quoted messages append the hash of their
//! fields, signed with the quote's key, and every message is encrypted
//! under its channel's key. Originating the measurement or the report is
//! a running event; accepting one without forwarding it is a commit.
//!
//! * A `Fork` runs each branch as a child instance of the roles. Its
//!   session-fresh names carry the branch suffix (`n3_1`), and so do its
//!   property and measurement spec when the branch attests its own
//!   property. A value the child sends without having received it is
//!   the parent session's.
//! * **Bound:** the branches of a fork run one after another in branch
//!   order, the order the runtime spawns them; no other interleaving is
//!   searched.
//! * Each path through the `Gate`s is its own model: the healthy
//!   fall-through first, then the fail edge to message 5.

use crate::protocol::{Bindings, Pat, Protocol, Role, Step};
use crate::search::{verify, Correspondence, Properties, SearchConfig, VerifyOutcome};
use crate::term::{Kind, Term};
use monatt_core::protocol::compile::{compile_into, CompiledProgram, Op};
use monatt_core::protocol::{CompileError, Field, MsgKind, Protocol as Program, QuoteKind};
use std::collections::BTreeMap;

/// Configuration of the model: the full protocol and its weakened
/// ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelConfig {
    /// Sign the measurement/report messages (quotes) — the unforgeability
    /// ingredient.
    pub sign_quotes: bool,
    /// Encrypt every hop with its session key — the secrecy ingredient.
    pub encrypt_channels: bool,
    /// Echo the nonces in the signed quotes — the freshness ingredient.
    pub include_nonces: bool,
    /// Use a fresh per-session attestation key ASKs (the paper's design)
    /// instead of a long-term server signing key.
    pub fresh_attestation_key: bool,
    /// The attacker has compromised the cloud server's host VM and knows
    /// the session key Kz of the AS↔CS hop.
    pub leak_kz: bool,
    /// The attacker recorded the measurement response of an earlier
    /// session (for replay attacks).
    pub preload_old_session: bool,
}

impl ModelConfig {
    /// The full CloudMonatt protocol as deployed.
    pub fn full() -> Self {
        ModelConfig {
            sign_quotes: true,
            encrypt_channels: true,
            include_nonces: true,
            fresh_attestation_key: true,
            leak_kz: false,
            preload_old_session: false,
        }
    }

    /// Full protocol facing a stronger adversary who recorded an old
    /// session and compromised the server-hop session key.
    pub fn full_under_strong_adversary() -> Self {
        ModelConfig {
            leak_kz: true,
            preload_old_session: true,
            ..Self::full()
        }
    }
}

/// One path of a lowered program, ready for [`verify`].
#[derive(Clone, Debug)]
pub struct Model {
    /// The roles and their schedule.
    pub protocol: Protocol,
    /// The secrecy and correspondence queries.
    pub properties: Properties,
    /// The attacker's initial knowledge.
    pub initial: Vec<Term>,
}

/// Lowers `program` under `cfg`: one model per path through its gates,
/// or the [`CompileError`] of a program the cloud would refuse.
pub fn lower(program: &Program, cfg: &ModelConfig) -> Result<Vec<Model>, CompileError> {
    let mut store = Vec::new();
    let root = compile_into(program, &mut store)?;
    let mut paths = Vec::new();
    walk(&store, &store[root.index()], 0, Vec::new(), &mut paths);
    Ok(paths.iter().map(|path| lower_path(*cfg, path)).collect())
}

/// Lowers `program` and verifies each path, in [`lower`]'s order.
pub fn verify_program(
    program: &Program,
    cfg: &ModelConfig,
    search: SearchConfig,
) -> Result<Vec<VerifyOutcome>, CompileError> {
    let models = lower(program, cfg)?;
    let outcome = |m: &Model| verify(&m.protocol, &m.initial, &m.properties, search);
    Ok(models.iter().map(outcome).collect())
}

/// Channel `c` of a [`MsgKind::row`] runs from role `c` to role `c + 1`.
const ROLES: [&str; 4] = ["customer", "controller", "attserver", "server"];

/// How widely a value is shared: by every session, by the sessions
/// attesting one property, or by none.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scope {
    LongTerm,
    Property,
    Session,
}

/// A value: atom name, kind, scope, and whether it must stay secret.
struct Value(&'static str, Kind, Scope, bool);

const VID: Value = Value("vid", Kind::Id, Scope::LongTerm, false);
const SERVER: Value = Value("server_i", Kind::Id, Scope::LongTerm, false);
/// N1, N2, N3 in `NonceSlot` order.
const NONCES: [Value; 3] = [
    Value("n1", Kind::Nonce, Scope::Session, false),
    Value("n2", Kind::Nonce, Scope::Session, false),
    Value("n3", Kind::Nonce, Scope::Session, false),
];
/// The Q3 signing key: the server's long-term key, or ASKs per session.
const Q3_KEYS: [Value; 2] = [
    Value("sks_longterm", Kind::Key, Scope::LongTerm, true),
    Value("asks_session", Kind::Key, Scope::Session, true),
];

/// The atom a message field is named by.
fn value(f: Field) -> &'static Value {
    match f {
        Field::Vid => &VID,
        Field::Server => &SERVER,
        Field::Property => &Value("prop_p", Kind::Data, Scope::Property, true),
        Field::Spec => &Value("raw_measurement_spec", Kind::Data, Scope::Property, false),
        Field::Measurement => &Value("measurement_m", Kind::Data, Scope::Session, true),
        Field::Report => &Value("report_r", Kind::Data, Scope::Session, true),
    }
}

/// Whether `msg`'s sender always names `f` itself instead of passing on
/// what it holds: message 5 names the server that supplied the
/// measurements.
fn originates(msg: MsgKind, f: Field) -> bool {
    (msg, f) == (MsgKind::Msg5, Field::Server)
}

/// `[field, commit, running]`: accepting the field must follow its
/// originator producing it.
const EVENTS: [[&str; 3]; 2] = [
    [
        "report_r",
        "customer_accepts_report",
        "attserver_issues_report",
    ],
    [
        "measurement_m",
        "attserver_accepts_measurement",
        "server_reports_measurement",
    ],
];

fn event(f: &Value) -> Option<&'static [&'static str; 3]> {
    EVENTS.iter().find(|e| e[0] == f.0)
}

/// The `(sender, receiver)` roles of `msg`: a reply runs back.
fn ends(msg: MsgKind) -> (usize, usize) {
    let row = msg.row();
    let (c, reply) = (row.channel as usize, row.reply);
    (c + usize::from(reply), c + usize::from(!reply))
}

/// `msg`'s channel key and, if it carries a quote, the quote's key.
fn keys(msg: MsgKind, q3: &Term) -> (Term, Option<Term>) {
    let channel = Term::key(["kx", "ky", "kz"][msg.row().channel as usize]);
    let quote = msg.obligations().0.map(|q| match q {
        QuoteKind::Q3 => q3.clone(),
        QuoteKind::Q2 => Term::key("ska"),
        QuoteKind::Q1 => Term::key("skc"),
    });
    (channel, quote)
}

/// Message `msg` as `cfg` shapes it. `cell` resolves each field of its
/// row, then its nonce (issued, or echoed), given whether the sender
/// always names that value itself.
fn message(
    cfg: &ModelConfig,
    msg: MsgKind,
    q3: &Term,
    mut cell: impl FnMut(&Value, bool) -> Pat,
) -> Pat {
    let (issue, echo) = (msg.issues(), msg.obligations().1);
    let fields = msg.row().fields.iter();
    let mut parts: Vec<Pat> = fields
        .map(|&f| cell(value(f), originates(msg, f)))
        .collect();
    if let Some(slot) = issue.or(echo.filter(|_| cfg.include_nonces)) {
        parts.push(cell(&NONCES[slot as usize], issue.is_some()));
    }
    let (channel, quote) = keys(msg, q3);
    if quote.is_some() {
        parts.push(Pat::hash(Pat::tuple(&parts)));
    }
    let mut body = Pat::tuple(&parts);
    if let Some(key) = quote.filter(|_| cfg.sign_quotes) {
        body = Pat::sign(body, Pat::lit(key));
    }
    if cfg.encrypt_channels {
        body = Pat::senc(body, Pat::lit(channel));
    }
    body
}

/// A hop on a path: its instance (0 is the session, `k` the `k`-th fork
/// branch on the path), whether that instance attests its own property,
/// and its record.
#[derive(Clone, Copy)]
struct PathHop {
    inst: usize,
    own_property: bool,
    msg: MsgKind,
}

/// Collects every path from `pc` of `program`; a `Gate` continues on its
/// healthy fall-through, then on its fail edge.
fn walk(
    store: &[CompiledProgram],
    program: &CompiledProgram,
    pc: usize,
    mut path: Vec<PathHop>,
    out: &mut Vec<Vec<PathHop>>,
) {
    for (pc, op) in program.ops.iter().enumerate().skip(pc) {
        let hop = |inst, own_property, op: &Op| match *op {
            Op::Hop { msg, .. } => Some(PathHop {
                inst,
                own_property,
                msg,
            }),
            _ => None,
        };
        match *op {
            Op::Fork {
                first_branch,
                n_branches,
                ..
            } => {
                for branch in &program.branches[first_branch.into()..][..n_branches.into()] {
                    let inst = 1 + path.iter().map(|h| h.inst).max().unwrap_or(0);
                    let ops = &store[branch.program.index()].ops;
                    path.extend(
                        ops.iter()
                            .filter_map(|op| hop(inst, branch.property.is_some(), op)),
                    );
                }
            }
            Op::Gate { fail_pc } => {
                walk(store, program, pc + 1, path.clone(), out);
                return walk(store, program, fail_pc.into(), path, out);
            }
            _ => path.extend(hop(0, false, op)),
        }
    }
    out.push(path);
}

/// Whether `hop`'s instance shares the session's value of `f`.
fn shared(f: &Value, hop: PathHop) -> bool {
    hop.inst == 0 || f.2 == Scope::LongTerm || (f.2 == Scope::Property && !hop.own_property)
}

/// The atom `hop`'s instance names `f` with.
fn atom(f: &Value, hop: PathHop) -> Term {
    if shared(f, hop) {
        Term::atom(f.0, f.1)
    } else {
        Term::atom(&format!("{}_{}", f.0, hop.inst), f.1)
    }
}

/// The names the recorded earlier session gave its fresh values.
fn recorded(f: &Value) -> Term {
    match (f.2, f.0) {
        (Scope::Session, "measurement_m") => Term::data("old_measurement"),
        (Scope::Session, name) => Term::atom(&format!("old_{name}"), f.1),
        (_, name) => Term::atom(name, f.1),
    }
}

/// Lowers one path: per hop, the sender's running events and `Send`,
/// then the receiver's `Recv` and commits.
fn lower_path(cfg: ModelConfig, path: &[PathHop]) -> Model {
    // Every step in schedule order with the role taking it, and what a
    // role holds for a field in an instance.
    let mut steps: Vec<(usize, Step)> = Vec::new();
    let mut held: BTreeMap<(usize, &str, usize), Pat> = BTreeMap::new();
    let mut secrets: Vec<Term> = Vec::new();
    let q3_key = &Q3_KEYS[usize::from(cfg.fresh_attestation_key)];
    let mut secret = |t: Term| {
        if !secrets.contains(&t) {
            secrets.push(t);
        }
    };
    for (i, &hop) in path.iter().enumerate() {
        let ((from, to), inst, msg) = (ends(hop.msg), hop.inst, hop.msg);
        let q3 = atom(q3_key, hop);
        let (channel, quote) = keys(msg, &q3);
        if !(cfg.leak_kz && channel == Term::key("kz")) {
            secret(channel);
        }
        quote.into_iter().for_each(&mut secret);

        let send = message(&cfg, msg, &q3, |f, own| {
            let inherited = || held.get(&(from, f.0, 0)).filter(|_| shared(f, hop));
            let pat = match held.get(&(from, f.0, inst)).or_else(inherited) {
                Some(pat) if !own => pat.clone(),
                _ => {
                    let atom = atom(f, hop);
                    if f.3 {
                        secret(atom.clone());
                    }
                    if let Some(&[_, _, running]) = event(f) {
                        steps.push((
                            from,
                            Step::Event(running.into(), vec![Pat::lit(atom.clone())]),
                        ));
                    }
                    Pat::lit(atom)
                }
            };
            held.insert((from, f.0, inst), pat.clone());
            pat
        });
        steps.push((from, Step::Send(send)));

        let mut commits = Vec::new();
        let recv = message(&cfg, msg, &q3, |f, _| {
            if let Some(pat) = held.get(&(to, f.0, inst)) {
                return pat.clone();
            }
            let var = Pat::var(&format!("{}.{}#{inst}", ROLES[to], f.0), f.1);
            let forwards = |h: &PathHop| {
                h.inst == inst
                    && ends(h.msg).0 == to
                    && h.msg.row().fields.iter().any(|&g| value(g).0 == f.0)
            };
            if let Some(&[_, commit, _]) = event(f).filter(|_| !path[i + 1..].iter().any(forwards))
            {
                commits.push((to, Step::Event(commit.into(), vec![var.clone()])));
            }
            held.insert((to, f.0, inst), var.clone());
            var
        });
        steps.push((to, Step::Recv(recv)));
        steps.append(&mut commits);
    }

    let mut roles: Vec<Role> = ROLES
        .iter()
        .map(|name| Role {
            name: (*name).to_owned(),
            initial: Bindings::new(),
            steps: Vec::new(),
        })
        .collect();
    let mut schedule = Vec::new();
    for (role, step) in steps {
        roles[role].steps.push(step);
        schedule.push(role);
    }
    let mut initial = vec![Term::atom(VID.0, VID.1), Term::atom(SERVER.0, SERVER.1)];
    initial.push(Term::data("forged_report"));
    if cfg.leak_kz {
        initial.push(Term::key("kz"));
    }
    if cfg.preload_old_session {
        let q3 = recorded(q3_key);
        let msg4 = message(&cfg, MsgKind::Msg4, &q3, |f, _| Pat::lit(recorded(f)));
        initial.push(msg4.instantiate(&Bindings::new()));
    }
    let correspondences = EVENTS
        .iter()
        .map(|&[_, commit, running]| Correspondence {
            commit: commit.into(),
            running: running.into(),
        })
        .collect();
    Model {
        protocol: Protocol { roles, schedule },
        properties: Properties {
            secrets,
            correspondences,
        },
        initial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monatt_core::SecurityProperty;

    fn figure3(cfg: ModelConfig) -> VerifyOutcome {
        let figure3 = Program::figure3_customer();
        let mut outcomes = verify_program(&figure3, &cfg, SearchConfig::default()).unwrap();
        assert_eq!(outcomes.len(), 1, "Figure 3 has no gate");
        outcomes.remove(0)
    }

    fn any_detail(outcome: &VerifyOutcome, property: &str, needle: &str) -> bool {
        let found = |v: &crate::Violation| v.property == property && v.detail.contains(needle);
        outcome.violations.iter().any(found)
    }

    #[test]
    fn figure3_takes_its_steps_in_message_order() {
        let model = lower(&Program::figure3_customer(), &ModelConfig::full()).unwrap();
        // C sends 1; CC forwards 2; AS asks 3; CS reports, sends 4; AS
        // accepts, issues, sends 5; CC relays 6; C receives and accepts.
        let order = [0, 1, 1, 2, 2, 3, 3, 3, 2, 2, 2, 2, 1, 1, 0, 0];
        assert_eq!(model[0].protocol.schedule, order);
    }

    #[test]
    fn full_protocol_verifies() {
        let outcome = figure3(ModelConfig::full());
        assert!(outcome.verified(), "{:#?}", outcome.violations);
    }

    #[test]
    fn unencrypted_channels_leak_everything() {
        let outcome = figure3(ModelConfig {
            encrypt_channels: false,
            ..ModelConfig::full()
        });
        for secret in ["prop_p", "measurement_m", "report_r"] {
            assert!(any_detail(&outcome, "secrecy", secret), "{secret}");
        }
    }

    #[test]
    fn replay_needs_both_missing_nonces_and_a_long_term_key() {
        let replay = |include_nonces, fresh_attestation_key| {
            let outcome = figure3(ModelConfig {
                include_nonces,
                fresh_attestation_key,
                preload_old_session: true,
                ..ModelConfig::full()
            });
            any_detail(&outcome, "correspondence", "old_measurement")
        };
        assert!(replay(false, false));
        assert!(!replay(false, true), "per-session ASKs alone block replay");
        assert!(!replay(true, false), "nonces alone block replay");
    }

    #[test]
    fn layered_lowers_both_gate_edges() {
        let program = Program::layered(SecurityProperty::StartupIntegrity);
        let models = lower(&program, &ModelConfig::full()).unwrap();
        // The fail edge skips the VM measurement: one fewer msg-3/4 pair.
        let server_steps = |m: &Model| m.protocol.roles[3].steps.len();
        assert_eq!(models.len(), 2);
        assert_eq!(server_steps(&models[0]), 2 * server_steps(&models[1]));
        // The delegated platform appraisal is a child with its own names.
        let secrets = &models[1].properties.secrets;
        assert!(secrets.contains(&Term::data("measurement_m_1")));
        assert!(secrets.contains(&Term::data("prop_p_1")), "own property");
        assert!(!secrets.contains(&Term::data("measurement_m")));
    }

    #[test]
    fn a_program_core_refuses_does_not_lower() {
        let unfinished = Program(vec![monatt_core::protocol::Step::Hop(MsgKind::Msg2)]);
        assert!(lower(&unfinished, &ModelConfig::full()).is_err());
    }
}
