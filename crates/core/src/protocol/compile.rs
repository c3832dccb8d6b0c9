//! Compiles [`Protocol`] terms to the flat op schedule the session
//! interpreter runs.
//!
//! ## Compilation rules
//!
//! * `Seq` flattens; nesting is free.
//! * `IssueNonce` before a `Hop` and `CheckNonce`/`VerifyQuote` after
//!   one are *claims*: the message table fixes the nonce each request
//!   issues ([`MsgKind::issues`]) and the quote and nonce echo each
//!   reply carries ([`MsgKind::obligations`]). The interpreter always
//!   draws the one (immediately before building the record, the DRBG
//!   order of the hand-written Figure-3 state machine) and enforces
//!   the others on receive. The compiler validates the claims against
//!   the table and rejects a program that declares the wrong one; a
//!   request's `IssueNonce` may not be elided.
//! * Every op carries its *pre-charge* — the processing latency paid
//!   before it runs: the first op charges nothing, an op after
//!   `Hop(msgN)` charges `post_hop_us(N)`, and the op after `Window`
//!   charges the measurement cost (hash + quote + signature), which
//!   depends on the spec and is resolved at run time.
//! * `Par`/`Delegate` branches compile to child programs registered
//!   alongside the parent; the parent gets one `Fork` op that spawns
//!   them as child sessions and parks until all complete. A
//!   fork-with-one-branch followed by `Gate` is a delegation; the
//!   gate's fail edge is patched to the program's message-5 hop so an
//!   unhealthy delegated verdict is still certified and reported.
//! * `Complete` terminates the program (exactly one, at the end).
//!
//! The checks below are the typed-register well-formedness pass: a
//! program that compiles can only read registers (nonces, the
//! measurement request, the verdict) after some earlier op wrote
//! them, so the interpreter's register file never traps on the clean
//! path.

use super::ir::{Branch, MsgKind, NonceSlot, Protocol};
use crate::types::SecurityProperty;

/// Why a [`Protocol`] term failed to compile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    /// Index of the offending atom in the flattened term.
    pub at: usize,
    /// What rule it broke.
    pub reason: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "protocol compile error at step {}: {}",
            self.at, self.reason
        )
    }
}

impl std::error::Error for CompileError {}

/// Handle to a compiled program in the cloud's registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProgramId(pub(crate) u16);

impl ProgramId {
    /// The program's index in the store [`compile_into`] filled.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Processing latency paid before an op runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Charge {
    /// Nothing: the program's first op.
    None,
    /// `post_hop_us(N)`: receive processing of message N.
    PostHop(u8),
    /// Measurement cost (hash + quote generation + signature),
    /// resolved from the spec at run time.
    Measurement,
}

/// One interpreter op. The program counter walks this list; transport
/// events (retries, late arrivals, window timers) happen *within* an
/// op and never move the counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Build and transmit one Figure-3 record (drawing the nonce it
    /// issues first, [`MsgKind::issues`]), then wait for its receive
    /// processing.
    Hop {
        /// The record to put on the wire.
        msg: MsgKind,
        /// Pre-charge (see [`Charge`]).
        pre: Charge,
    },
    /// Open the measurement window on the target server (serialized
    /// per server), wait it out, then fall through to the next op.
    Window {
        /// Pre-charge paid before the window-open is scheduled.
        pre: Charge,
    },
    /// Spawn the branch child sessions and park until all complete;
    /// the join writes the combined verdict to the status register.
    Fork {
        /// First branch index in [`CompiledProgram::branches`].
        first_branch: u16,
        /// Number of branches.
        n_branches: u16,
        /// Pre-charge paid when the fork spawns.
        pre: Charge,
    },
    /// Branch on the status register: healthy falls through,
    /// unhealthy jumps to `fail_pc` (the certification tail).
    Gate {
        /// Jump target for an unhealthy delegated verdict.
        fail_pc: u16,
    },
    /// Deliver the verdict after the pre-charge.
    Complete {
        /// Pre-charge paid before the completion tick.
        pre: Charge,
    },
}

/// One compiled fork branch: which child program to run, under which
/// property.
#[derive(Clone, Copy, Debug)]
pub struct BranchSpec {
    /// Property override; `None` inherits the parent session's.
    pub property: Option<SecurityProperty>,
    /// The child program.
    pub program: ProgramId,
}

/// A compiled protocol: the op schedule plus its fork branches.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The ops the program counter walks.
    pub ops: Vec<Op>,
    /// The branches the `Fork` ops spawn.
    pub branches: Vec<BranchSpec>,
}

impl CompiledProgram {
    pub(crate) fn op(&self, pc: u16) -> Option<Op> {
        self.ops.get(pc as usize).copied()
    }
}

fn err(at: usize, reason: impl Into<String>) -> CompileError {
    CompileError {
        at,
        reason: reason.into(),
    }
}

/// Flattens nested `Seq` terms into one atom list (`Par`/`Delegate`
/// bodies are compiled recursively, not flattened here).
fn flatten<'a>(p: &'a Protocol, out: &mut Vec<&'a Protocol>) {
    match p {
        Protocol::Seq(steps) => {
            for s in steps {
                flatten(s, out);
            }
        }
        other => out.push(other),
    }
}

/// Whether a branch body is appraiser-side: no customer hops, no
/// nested forks. (The one-level depth bound keeps fork/join state a
/// single parent pointer per session.)
fn check_branch_shape(body: &Protocol, at: usize) -> Result<(), CompileError> {
    let mut atoms = Vec::new();
    flatten(body, &mut atoms);
    for a in &atoms {
        match a {
            Protocol::Hop(MsgKind::Msg1) | Protocol::Hop(MsgKind::Msg6) => {
                return Err(err(at, "branch bodies cannot contain customer hops"))
            }
            Protocol::Par(_) | Protocol::Delegate(_) | Protocol::Gate => {
                return Err(err(at, "forks do not nest: branch bodies are flat"))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Compiles `p` into `store`, registering any fork-branch child
/// programs first, and returns the parent's id. The cloud's registry
/// and the symbolic verifier both compile through here.
pub fn compile_into(
    p: &Protocol,
    store: &mut Vec<CompiledProgram>,
) -> Result<ProgramId, CompileError> {
    let mut atoms = Vec::new();
    flatten(p, &mut atoms);
    if atoms.is_empty() {
        return Err(err(0, "empty protocol"));
    }
    let mut ops: Vec<Op> = Vec::new();
    let mut branches: Vec<BranchSpec> = Vec::new();
    // `IssueNonce` claimed for the next hop.
    let mut pending_issue: Option<NonceSlot> = None;
    // Pre-charge owed to the next op (see the module docs).
    let mut next_pre = Charge::None;
    // The hop whose receive obligations subsequent checks claim.
    let mut last_hop: Option<MsgKind> = None;
    // Gate ops awaiting their fail edge.
    let mut open_gates: Vec<usize> = Vec::new();
    let mut completed = false;
    for (at, atom) in atoms.iter().enumerate() {
        if completed {
            return Err(err(at, "steps after Complete"));
        }
        match atom {
            Protocol::Seq(_) => {
                // Flattened away above.
            }
            Protocol::IssueNonce(slot) => {
                if pending_issue.is_some() {
                    return Err(err(at, "two nonce issues before one hop"));
                }
                pending_issue = Some(*slot);
            }
            Protocol::CheckNonce(slot) => {
                let Some(msg) = last_hop else {
                    return Err(err(at, "nonce check before any hop"));
                };
                if msg.obligations().1 != Some(*slot) {
                    return Err(err(at, format!("{msg} does not echo {slot:?}")));
                }
            }
            Protocol::VerifyQuote(quote) => {
                let Some(msg) = last_hop else {
                    return Err(err(at, "quote verify before any hop"));
                };
                if msg.obligations().0 != Some(*quote) {
                    return Err(err(at, format!("{msg} does not carry {quote:?}")));
                }
            }
            Protocol::Hop(msg) => {
                check_hop_position(*msg, &ops, pending_issue, at)?;
                pending_issue = None;
                ops.push(Op::Hop {
                    msg: *msg,
                    pre: next_pre,
                });
                next_pre = Charge::PostHop(msg.number());
                last_hop = Some(*msg);
            }
            Protocol::Window => {
                if !follows(&ops, MsgKind::Msg3) {
                    return Err(err(at, "the window must follow the message-3 hop"));
                }
                ops.push(Op::Window { pre: next_pre });
                next_pre = Charge::Measurement;
                last_hop = None;
            }
            Protocol::Par(list) => {
                if list.is_empty() {
                    return Err(err(at, "empty parallel composition"));
                }
                push_fork(&mut ops, &mut branches, list, store, next_pre, at)?;
                next_pre = Charge::None;
                last_hop = None;
            }
            Protocol::Delegate(branch) => {
                push_fork(
                    &mut ops,
                    &mut branches,
                    std::slice::from_ref(&**branch),
                    store,
                    next_pre,
                    at,
                )?;
                next_pre = Charge::None;
                last_hop = None;
            }
            Protocol::Gate => {
                let delegation = matches!(ops.last(), Some(Op::Fork { n_branches: 1, .. }));
                if !delegation {
                    return Err(err(at, "a gate must follow a single-branch delegation"));
                }
                open_gates.push(ops.len());
                ops.push(Op::Gate { fail_pc: u16::MAX });
                last_hop = None;
            }
            Protocol::Complete => {
                if !status_available(&ops) {
                    return Err(err(at, "nothing produced a verdict to complete with"));
                }
                ops.push(Op::Complete { pre: next_pre });
                completed = true;
            }
        }
        if ops.len() > u16::MAX as usize {
            return Err(err(at, "program too long"));
        }
    }
    if !completed {
        return Err(err(atoms.len(), "program does not end with Complete"));
    }
    if pending_issue.is_some() {
        return Err(err(atoms.len(), "nonce issued but never used by a hop"));
    }
    // Patch every gate's fail edge to the certification tail: the
    // first message-5 hop after it, so an unhealthy delegated verdict
    // is still certified and delivered instead of silently dropping
    // the session.
    for gate_pc in open_gates {
        let target = ops
            .iter()
            .enumerate()
            .skip(gate_pc)
            .find(|(_, op)| {
                matches!(
                    op,
                    Op::Hop {
                        msg: MsgKind::Msg5,
                        ..
                    }
                )
            })
            .map(|(pc, _)| pc);
        let Some(target) = target else {
            return Err(err(
                gate_pc,
                "gate without a later message-5 hop to report on",
            ));
        };
        if let Some(Op::Gate { fail_pc }) = ops.get_mut(gate_pc) {
            *fail_pc = target as u16;
        }
    }
    if store.len() >= u16::MAX as usize {
        return Err(err(0, "program registry full"));
    }
    let id = ProgramId(store.len() as u16);
    store.push(CompiledProgram { ops, branches });
    Ok(id)
}

/// Compiles fork branches into the store and appends the `Fork` op.
fn push_fork(
    ops: &mut Vec<Op>,
    branches: &mut Vec<BranchSpec>,
    list: &[Branch],
    store: &mut Vec<CompiledProgram>,
    pre: Charge,
    at: usize,
) -> Result<(), CompileError> {
    if !follows(ops, MsgKind::Msg2) {
        return Err(err(
            at,
            "forks happen at the appraiser: after the message-2 hop",
        ));
    }
    let first_branch = branches.len();
    if first_branch + list.len() > u16::MAX as usize {
        return Err(err(at, "too many fork branches"));
    }
    for b in list {
        check_branch_shape(&b.body, at)?;
        let program = compile_into(&b.body, store)?;
        branches.push(BranchSpec {
            property: b.property,
            program,
        });
    }
    ops.push(Op::Fork {
        first_branch: first_branch as u16,
        n_branches: list.len() as u16,
        pre,
    });
    Ok(())
}

/// Positional/register preconditions for transmitting each message
/// kind — the "can this hop be built from what earlier ops wrote"
/// check — after the pending `IssueNonce` claim is checked against the
/// nonce the kind issues.
fn check_hop_position(
    msg: MsgKind,
    ops: &[Op],
    pending_issue: Option<NonceSlot>,
    at: usize,
) -> Result<(), CompileError> {
    if pending_issue != msg.issues() {
        return Err(err(
            at,
            match msg.issues() {
                Some(slot) => format!("{msg} requires a fresh {slot:?}"),
                None => format!("the {} issues no nonce", msg.row().noun),
            },
        ));
    }
    let (ok, rule) = match msg {
        MsgKind::Msg1 => (ops.is_empty(), "the customer request opens a program"),
        MsgKind::Msg2 => (
            ops.is_empty() || follows(ops, MsgKind::Msg1),
            "the forward follows the customer request (or opens an internal program)",
        ),
        MsgKind::Msg3 => (
            ops.is_empty()
                || follows(ops, MsgKind::Msg2)
                || matches!(ops.last(), Some(Op::Gate { .. })),
            "the measure request follows the forward (or a passed gate, or opens a branch)",
        ),
        MsgKind::Msg4 => (
            matches!(ops.last(), Some(Op::Window { .. })),
            "the measurement response follows the window",
        ),
        MsgKind::Msg5 => (
            status_available(ops),
            "nothing produced a verdict to certify",
        ),
        MsgKind::Msg6 => (
            follows(ops, MsgKind::Msg5),
            "the customer report follows the property report",
        ),
    };
    if ok {
        Ok(())
    } else {
        Err(err(at, rule))
    }
}

/// Whether the last op is the hop that puts `msg` on the wire.
fn follows(ops: &[Op], msg: MsgKind) -> bool {
    matches!(ops.last(), Some(Op::Hop { msg: last, .. }) if *last == msg)
}

/// Whether the status register is written by the preceding op: a
/// received message 4/5/6 stores the (interpreted or carried) verdict,
/// and a fork join stores the combined branch verdict.
fn status_available(ops: &[Op]) -> bool {
    matches!(
        ops.last(),
        Some(Op::Hop {
            msg: MsgKind::Msg4 | MsgKind::Msg5 | MsgKind::Msg6,
            ..
        }) | Some(Op::Fork { .. })
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ir::Protocol;

    /// Test fixture: an internal exchange missing its `Complete`.
    fn figure3_internal_truncated() -> Protocol {
        Protocol::Seq(vec![
            Protocol::IssueNonce(NonceSlot::N2),
            Protocol::Hop(MsgKind::Msg2),
            Protocol::IssueNonce(NonceSlot::N3),
            Protocol::Hop(MsgKind::Msg3),
            Protocol::Window,
            Protocol::Hop(MsgKind::Msg4),
        ])
    }

    fn compile_one(p: &Protocol) -> Result<(CompiledProgram, Vec<CompiledProgram>), CompileError> {
        let mut store = Vec::new();
        let id = compile_into(p, &mut store)?;
        let parent = store[id.0 as usize].clone();
        Ok((parent, store))
    }

    #[test]
    fn figure3_customer_compiles_to_the_expected_schedule() {
        let (p, _) = compile_one(&Protocol::figure3_customer()).unwrap();
        use Charge::*;
        use MsgKind::*;
        let expect = [
            Op::Hop {
                msg: Msg1,
                pre: None,
            },
            Op::Hop {
                msg: Msg2,
                pre: PostHop(1),
            },
            Op::Hop {
                msg: Msg3,
                pre: PostHop(2),
            },
            Op::Window { pre: PostHop(3) },
            Op::Hop {
                msg: Msg4,
                pre: Measurement,
            },
            Op::Hop {
                msg: Msg5,
                pre: PostHop(4),
            },
            Op::Hop {
                msg: Msg6,
                pre: PostHop(5),
            },
            Op::Complete { pre: PostHop(6) },
        ];
        assert_eq!(p.ops, expect);
        assert!(p.branches.is_empty());
    }

    #[test]
    fn figure3_internal_compiles_to_the_expected_schedule() {
        let (p, _) = compile_one(&Protocol::figure3_internal()).unwrap();
        use Charge::*;
        use MsgKind::*;
        let expect = [
            Op::Hop {
                msg: Msg2,
                pre: None,
            },
            Op::Hop {
                msg: Msg3,
                pre: PostHop(2),
            },
            Op::Window { pre: PostHop(3) },
            Op::Hop {
                msg: Msg4,
                pre: Measurement,
            },
            Op::Hop {
                msg: Msg5,
                pre: PostHop(4),
            },
            Op::Complete { pre: PostHop(5) },
        ];
        assert_eq!(p.ops, expect);
    }

    #[test]
    fn layered_gate_fails_to_the_certification_tail() {
        let (p, store) =
            compile_one(&Protocol::layered(SecurityProperty::StartupIntegrity)).unwrap();
        let gate = p
            .ops
            .iter()
            .copied()
            .find(|op| matches!(op, Op::Gate { .. }))
            .unwrap();
        let Op::Gate { fail_pc } = gate else {
            unreachable!()
        };
        assert!(
            matches!(
                p.op(fail_pc),
                Some(Op::Hop {
                    msg: MsgKind::Msg5,
                    ..
                })
            ),
            "gate must fail onto the message-5 hop, got {:?}",
            p.op(fail_pc)
        );
        assert_eq!(p.branches.len(), 1);
        // The delegated child is the internal exchange.
        let child = &store[p.branches[0].program.0 as usize];
        assert!(matches!(
            child.ops[0],
            Op::Hop {
                msg: MsgKind::Msg2,
                ..
            }
        ));
    }

    #[test]
    fn fanout_branches_share_the_parent_report() {
        let props = [
            SecurityProperty::RuntimeIntegrity,
            SecurityProperty::CpuAvailability { min_share_pct: 50 },
        ];
        let (p, store) = compile_one(&Protocol::fanout(&props)).unwrap();
        assert_eq!(p.branches.len(), 2);
        let fork = p.ops.iter().find(|op| matches!(op, Op::Fork { .. }));
        assert!(matches!(fork, Some(Op::Fork { n_branches: 2, .. })));
        for b in &p.branches {
            let child = &store[b.program.0 as usize];
            // Measurement-only branch: request, window, response, done.
            assert!(matches!(
                child.ops[0],
                Op::Hop {
                    msg: MsgKind::Msg3,
                    ..
                }
            ));
            assert!(matches!(
                child.ops.last(),
                Some(Op::Complete {
                    pre: Charge::PostHop(4)
                })
            ));
        }
    }

    #[test]
    fn wrong_obligation_claims_are_rejected() {
        // Claims N2 on message 4 (which echoes N3).
        let bad = Protocol::Seq(vec![
            Protocol::IssueNonce(NonceSlot::N2),
            Protocol::Hop(MsgKind::Msg2),
            Protocol::IssueNonce(NonceSlot::N3),
            Protocol::Hop(MsgKind::Msg3),
            Protocol::Window,
            Protocol::Hop(MsgKind::Msg4),
            Protocol::CheckNonce(NonceSlot::N2),
            Protocol::Hop(MsgKind::Msg5),
            Protocol::Complete,
        ]);
        assert!(compile_one(&bad).is_err());
    }

    #[test]
    fn structural_violations_are_rejected() {
        // Hop without its nonce.
        assert!(compile_one(&Protocol::Seq(vec![
            Protocol::Hop(MsgKind::Msg2),
            Protocol::Complete,
        ]))
        .is_err());
        // Window without the measure request.
        assert!(compile_one(&Protocol::Seq(vec![
            Protocol::IssueNonce(NonceSlot::N2),
            Protocol::Hop(MsgKind::Msg2),
            Protocol::Window,
            Protocol::Complete,
        ]))
        .is_err());
        // Missing Complete.
        assert!(compile_one(&figure3_internal_truncated()).is_err());
        // Nested forks.
        let nested = Protocol::Seq(vec![
            Protocol::IssueNonce(NonceSlot::N1),
            Protocol::Hop(MsgKind::Msg1),
            Protocol::IssueNonce(NonceSlot::N2),
            Protocol::Hop(MsgKind::Msg2),
            Protocol::Delegate(Box::new(Branch {
                property: None,
                body: Protocol::layered(SecurityProperty::StartupIntegrity),
            })),
            Protocol::Gate,
            Protocol::Hop(MsgKind::Msg5),
            Protocol::Complete,
        ]);
        assert!(compile_one(&nested).is_err());
    }
}
