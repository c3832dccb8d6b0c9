//! The op schedules the four built-in programs compile to, pinned in
//! full: every pre-charge, every gate's fail edge, and each fork
//! branch's child program and property. The interpreter, the verifier's
//! lowering and the golden trace all read these lists, so a compiler
//! change that moves one op shows here first, by name.

use cloudmonatt::core::protocol::compile::{compile_into, Charge, CompiledProgram, Op};
use cloudmonatt::core::{MsgKind, Protocol, SecurityProperty};

use Charge::{Measurement, None as Free, PostHop};
use MsgKind::{Msg1, Msg2, Msg3, Msg4, Msg5, Msg6};

/// One compiled program as plain data: its ops, and each branch's
/// property and child-program index.
type Flat = (Vec<Op>, Vec<(Option<SecurityProperty>, usize)>);

fn hop(msg: MsgKind, pre: Charge) -> Op {
    Op::Hop { msg, pre }
}

/// Compiles `p` into a fresh store and returns every program in it, in
/// store order, with the parent's index.
fn compile(p: &Protocol) -> (Vec<Flat>, usize) {
    let mut store: Vec<CompiledProgram> = Vec::new();
    let id = compile_into(p, &mut store).expect("built-in programs compile");
    let flat = store
        .iter()
        .map(|prog| {
            let branches = prog
                .branches
                .iter()
                .map(|b| (b.property, b.program.index()))
                .collect();
            (prog.ops.clone(), branches)
        })
        .collect();
    (flat, id.index())
}

/// Messages 2–5 with the window, from the program's first op.
fn internal_ops() -> Vec<Op> {
    vec![
        hop(Msg2, Free),
        hop(Msg3, PostHop(2)),
        Op::Window { pre: PostHop(3) },
        hop(Msg4, Measurement),
        hop(Msg5, PostHop(4)),
        Op::Complete { pre: PostHop(5) },
    ]
}

/// A measurement-only fan-out branch: messages 3 and 4 with the window.
fn measurement_ops() -> Vec<Op> {
    vec![
        hop(Msg3, Free),
        Op::Window { pre: PostHop(3) },
        hop(Msg4, Measurement),
        Op::Complete { pre: PostHop(4) },
    ]
}

#[test]
fn figure3_customer_is_messages_one_to_six_with_the_window() {
    let ops = vec![
        hop(Msg1, Free),
        hop(Msg2, PostHop(1)),
        hop(Msg3, PostHop(2)),
        Op::Window { pre: PostHop(3) },
        hop(Msg4, Measurement),
        hop(Msg5, PostHop(4)),
        hop(Msg6, PostHop(5)),
        Op::Complete { pre: PostHop(6) },
    ];
    assert_eq!(
        compile(&Protocol::figure3_customer()),
        (vec![(ops, vec![])], 0)
    );
}

#[test]
fn figure3_internal_is_messages_two_to_five_with_the_window() {
    assert_eq!(
        compile(&Protocol::figure3_internal()),
        (vec![(internal_ops(), vec![])], 0)
    );
}

#[test]
fn layered_delegates_the_platform_and_gates_onto_message_five() {
    let platform = SecurityProperty::StartupIntegrity;
    let parent = vec![
        hop(Msg1, Free),
        hop(Msg2, PostHop(1)),
        Op::Fork {
            first_branch: 0,
            n_branches: 1,
            pre: PostHop(2),
        },
        Op::Gate { fail_pc: 7 },
        hop(Msg3, Free),
        Op::Window { pre: PostHop(3) },
        hop(Msg4, Measurement),
        hop(Msg5, PostHop(4)),
        hop(Msg6, PostHop(5)),
        Op::Complete { pre: PostHop(6) },
    ];
    assert_eq!(
        compile(&Protocol::layered(platform)),
        (
            vec![
                (internal_ops(), vec![]),
                (parent, vec![(Some(platform), 0)])
            ],
            1
        )
    );
}

/// Messages 1 and 2, one fork over `n` measurement branches, then the
/// certification tail.
fn fanout_parent(n: u16) -> Vec<Op> {
    vec![
        hop(Msg1, Free),
        hop(Msg2, PostHop(1)),
        Op::Fork {
            first_branch: 0,
            n_branches: n,
            pre: PostHop(2),
        },
        hop(Msg5, Free),
        hop(Msg6, PostHop(5)),
        Op::Complete { pre: PostHop(6) },
    ]
}

#[test]
fn fanout_over_two_properties_forks_two_measurement_branches() {
    let props = [
        SecurityProperty::RuntimeIntegrity,
        SecurityProperty::CpuAvailability { min_share_pct: 50 },
    ];
    let branches = vec![(Some(props[0]), 0), (Some(props[1]), 1)];
    assert_eq!(
        compile(&Protocol::fanout(&props)),
        (
            vec![
                (measurement_ops(), vec![]),
                (measurement_ops(), vec![]),
                (fanout_parent(2), branches),
            ],
            2
        )
    );
}

#[test]
fn fanout_over_four_properties_forks_four_measurement_branches() {
    let props = [
        SecurityProperty::RuntimeIntegrity,
        SecurityProperty::StartupIntegrity,
        SecurityProperty::CovertChannelFreedom,
        SecurityProperty::SchedulerFairness,
    ];
    let branches = props
        .iter()
        .enumerate()
        .map(|(i, &p)| (Some(p), i))
        .collect();
    let mut store = vec![(measurement_ops(), vec![]); 4];
    store.push((fanout_parent(4), branches));
    assert_eq!(compile(&Protocol::fanout(&props)), (store, 4));
}
