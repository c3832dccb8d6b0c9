//! Compiles [`Protocol`] terms to the flat op schedule the session
//! interpreter runs.
//!
//! ## Compilation rules
//!
//! A program says only what the message table cannot; the compiler
//! derives the rest.
//!
//! * Each `Hop` becomes an [`Op::Hop`]. The nonce it draws and the
//!   quote and nonce echo it is checked for on receive are the table's
//!   ([`MsgKind::issues`], [`MsgKind::obligations`]): the interpreter
//!   draws the one immediately before building the record (the DRBG
//!   order the golden trace pins) and always enforces the others.
//! * Every message-3 hop is followed by an [`Op::Window`], and the
//!   program ends with one [`Op::Complete`], provided its last op
//!   produced a verdict.
//! * Every op carries its *pre-charge* — the processing latency paid
//!   before it runs: the first op charges nothing, an op after
//!   `Hop(msgN)` charges `post_hop_us(N)`, an op after a fork nothing,
//!   and the op after the window charges the measurement cost (hash +
//!   quote + signature), which depends on the spec and is resolved at
//!   run time.
//! * A `Fork`'s branches compile to child programs registered
//!   alongside the parent; the parent gets one [`Op::Fork`] that spawns
//!   them as child sessions and parks until all complete. A one-branch
//!   fork followed by `Gate` is a delegation; the gate's fail edge is
//!   patched to the program's next message-5 hop so an unhealthy
//!   delegated verdict is still certified and reported.
//!
//! The positional checks below are the typed-register well-formedness
//! pass: a program that compiles can only read registers (nonces, the
//! measurement request, the verdict) after some earlier op wrote them,
//! so the interpreter's register file never traps on the clean path.

use super::ir::{Branch, MsgKind, Protocol, Step};
use crate::types::SecurityProperty;

/// Why a [`Protocol`] term failed to compile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompileError {
    /// Index of the offending step in its program (a branch's own
    /// steps for an error inside a branch body).
    pub at: usize,
    /// What rule it broke.
    pub reason: &'static str,
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

fn err(at: usize, reason: &'static str) -> CompileError {
    CompileError { at, reason }
}

/// Whether a branch body is appraiser-side: no customer hops, no
/// nested forks. (The one-level depth bound keeps fork/join state a
/// single parent pointer per session.)
fn check_branch_shape(body: &Protocol, at: usize) -> Result<(), CompileError> {
    for step in &body.0 {
        match step {
            Step::Hop(MsgKind::Msg1 | MsgKind::Msg6) => {
                return Err(err(at, "branch bodies cannot contain customer hops"))
            }
            Step::Fork(_) => return Err(err(at, "forks do not nest: branch bodies are flat")),
            _ => {}
        }
    }
    Ok(())
}

/// Compiles `p` into `store`, registering any fork-branch child
/// programs first, and returns the parent's id. The cloud's registry
/// and the symbolic verifier both compile through here. A rejected
/// program leaves `store` as it found it, children included.
pub fn compile_into(
    p: &Protocol,
    store: &mut Vec<CompiledProgram>,
) -> Result<ProgramId, CompileError> {
    let entry = store.len();
    let compiled = compile_parent(p, store);
    if compiled.is_err() {
        store.truncate(entry);
    }
    compiled
}

/// [`compile_into`], less the clean-up on error.
fn compile_parent(
    p: &Protocol,
    store: &mut Vec<CompiledProgram>,
) -> Result<ProgramId, CompileError> {
    let mut ops: Vec<Op> = Vec::new();
    let mut branches: Vec<BranchSpec> = Vec::new();
    // Pre-charge owed to the next op (see the module docs).
    let mut next_pre = Charge::None;
    // Gate steps and ops awaiting their fail edge.
    let mut open_gates: Vec<(usize, usize)> = Vec::new();
    for (at, step) in p.0.iter().enumerate() {
        match step {
            Step::Hop(msg) => {
                check_hop_position(*msg, &ops, at)?;
                ops.push(Op::Hop {
                    msg: *msg,
                    pre: next_pre,
                });
                next_pre = Charge::PostHop(msg.number());
                if *msg == MsgKind::Msg3 {
                    ops.push(Op::Window { pre: next_pre });
                    next_pre = Charge::Measurement;
                }
            }
            Step::Fork(list) => {
                push_fork(&mut ops, &mut branches, list, store, next_pre, at)?;
                next_pre = Charge::None;
            }
            Step::Gate => {
                if !matches!(ops.last(), Some(Op::Fork { n_branches: 1, .. })) {
                    return Err(err(at, "a gate must follow a single-branch fork"));
                }
                open_gates.push((at, ops.len()));
                ops.push(Op::Gate { fail_pc: u16::MAX });
            }
        }
        if ops.len() > u16::MAX as usize {
            return Err(err(at, "program too long"));
        }
    }
    if !status_available(&ops) {
        return Err(err(
            p.0.len(),
            "nothing produced a verdict to complete with",
        ));
    }
    ops.push(Op::Complete { pre: next_pre });
    // Patch every gate's fail edge to the certification tail: the
    // first message-5 hop after it, so an unhealthy delegated verdict
    // is still certified and delivered instead of silently dropping
    // the session.
    for (at, gate_pc) in open_gates {
        let target = ops.iter().skip(gate_pc).position(|op| {
            matches!(
                op,
                Op::Hop {
                    msg: MsgKind::Msg5,
                    ..
                }
            )
        });
        let Some(offset) = target else {
            return Err(err(at, "gate without a later message-5 hop to report on"));
        };
        if let Some(Op::Gate { fail_pc }) = ops.get_mut(gate_pc) {
            *fail_pc = (gate_pc + offset) as u16;
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
    if list.is_empty() {
        return Err(err(at, "empty fork"));
    }
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
/// check.
fn check_hop_position(msg: MsgKind, ops: &[Op], at: usize) -> Result<(), CompileError> {
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
    use crate::protocol::ir::{Protocol, Step};

    /// The parent program `p` compiles to.
    fn compile_one(p: &Protocol) -> Result<CompiledProgram, CompileError> {
        let mut store = Vec::new();
        let id = compile_into(p, &mut store)?;
        Ok(store.swap_remove(id.index()))
    }

    #[test]
    fn figure3_customer_compiles_to_the_expected_schedule() {
        let p = compile_one(&Protocol::figure3_customer()).unwrap();
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
        let p = compile_one(&Protocol::figure3_internal()).unwrap();
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

    /// A fork branch over `steps`, inheriting the session's property.
    fn branch(steps: &[Step]) -> Branch {
        Branch {
            property: None,
            body: Protocol(steps.to_vec()),
        }
    }

    #[test]
    fn every_positional_rule_rejects_its_violation() {
        use MsgKind::*;
        use Step::{Fork, Gate, Hop};
        let measure = [Hop(Msg3), Hop(Msg4)];
        let internal = Protocol::figure3_internal().0;
        let customer = Protocol::figure3_customer().0;
        let nested = [Hop(Msg2), Fork(vec![branch(&measure)])];
        // Each program breaks one rule, at step `at`; the reason names it.
        let cases: [(Vec<Step>, usize, &str); 15] = [
            (
                vec![Hop(Msg2), Hop(Msg1)],
                1,
                "the customer request opens a program",
            ),
            (
                vec![Hop(Msg2), Hop(Msg2)],
                1,
                "the forward follows the customer request (or opens an internal program)",
            ),
            (
                vec![Hop(Msg1), Hop(Msg3)],
                1,
                "the measure request follows the forward (or a passed gate, or opens a branch)",
            ),
            (
                vec![Hop(Msg2), Hop(Msg4)],
                1,
                "the measurement response follows the window",
            ),
            (
                vec![Hop(Msg2), Hop(Msg5)],
                1,
                "nothing produced a verdict to certify",
            ),
            (
                vec![Hop(Msg1), Hop(Msg2), Hop(Msg3), Hop(Msg4), Hop(Msg6)],
                4,
                "the customer report follows the property report",
            ),
            (
                vec![Hop(Msg2), Fork(vec![branch(&customer)])],
                1,
                "branch bodies cannot contain customer hops",
            ),
            (
                vec![Hop(Msg2), Fork(vec![branch(&nested)])],
                1,
                "forks do not nest: branch bodies are flat",
            ),
            (vec![Hop(Msg2), Fork(vec![]), Hop(Msg5)], 1, "empty fork"),
            (
                vec![Hop(Msg1), Fork(vec![branch(&measure)])],
                1,
                "forks happen at the appraiser: after the message-2 hop",
            ),
            (
                vec![Hop(Msg2), Hop(Msg3), Hop(Msg4), Gate],
                3,
                "a gate must follow a single-branch fork",
            ),
            (
                vec![
                    Hop(Msg2),
                    Fork(vec![branch(&measure), branch(&measure)]),
                    Gate,
                ],
                2,
                "a gate must follow a single-branch fork",
            ),
            (
                vec![
                    Hop(Msg2),
                    Fork(vec![branch(&internal)]),
                    Gate,
                    Hop(Msg3),
                    Hop(Msg4),
                ],
                2,
                "gate without a later message-5 hop to report on",
            ),
            (vec![], 0, "nothing produced a verdict to complete with"),
            (
                vec![Hop(Msg2), Hop(Msg3)],
                2,
                "nothing produced a verdict to complete with",
            ),
        ];
        for (steps, at, reason) in cases {
            let program = Protocol(steps);
            let got = compile_one(&program).map(|_| ());
            assert_eq!(got, Err(CompileError { at, reason }), "{program:?}");
        }
        // A rejection leaves no fork child behind in the store.
        let gated = Protocol(vec![Hop(Msg2), Fork(vec![branch(&measure)]), Gate]);
        let mut store = Vec::new();
        compile_into(&Protocol::figure3_internal(), &mut store).unwrap();
        for _ in 0..3 {
            let got = compile_into(&gated, &mut store).map(|_| ());
            let reason = "nothing produced a verdict to complete with";
            assert_eq!(got, Err(CompileError { at: 3, reason }));
            assert_eq!(store.len(), 1, "a rejected program left children");
        }
    }
}
