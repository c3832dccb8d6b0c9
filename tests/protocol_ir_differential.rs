//! Differential property test of the attestation-protocol IR.
//!
//! Generates arbitrary *well-formed* protocol programs from the family
//! the compiler accepts — an optional customer prologue, a body that is
//! either a flat measurement, a parallel fan-out of 1–4 branches, or a
//! delegated platform appraisal gated by its verdict, and the
//! certification tail. Each generated program must:
//!
//! 1. compile (`Cloud::register_protocol` accepts it) and reach a
//!    verdict on a clean network,
//! 2. terminate under message loss — at 30 % drop, or at a rate that
//!    exhausts the default retry ladder — with a `Done` verdict or a
//!    typed error, never a hang (the synchronous pump returning at all
//!    is the liveness proof in a discrete-event engine), and
//! 3. verify symbolically: lowered by `monatt_verifier::lower`, the full
//!    protocol holds on every gate path without truncating the search.

use cloudmonatt::core::{
    AttestationReport, Branch, CloudBuilder, CloudError, Flavor, Image, MsgKind, Protocol,
    SecurityProperty, Step, VmRequest, WorkloadSpec,
};
use cloudmonatt::net::sim::FaultModel;
use cloudmonatt::verifier::{verify_program, ModelConfig, SearchConfig};
use proptest::prelude::*;

fn arb_property() -> impl Strategy<Value = SecurityProperty> {
    prop_oneof![
        Just(SecurityProperty::StartupIntegrity),
        Just(SecurityProperty::RuntimeIntegrity),
        Just(SecurityProperty::CovertChannelFreedom),
        Just(SecurityProperty::SchedulerFairness),
    ]
}

fn arb_branch_property() -> impl Strategy<Value = Option<SecurityProperty>> {
    prop_oneof![Just(None), arb_property().prop_map(Some)]
}

fn arb_bool() -> impl Strategy<Value = bool> {
    prop_oneof![Just(false), Just(true)]
}

/// A drop rate at which the default retry ladder (five attempts per hop)
/// runs out: most programs end `Unreachable` at it.
const LADDER_EXHAUSTING_DROP: f64 = 0.9;

fn arb_drop_rate() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.30), Just(LADDER_EXHAUSTING_DROP)]
}

/// The generated shape of a program body (between the message-2 hop
/// and the message-5 certification tail).
#[derive(Clone, Debug)]
enum Body {
    /// Flat Figure-3 measurement: msg 3, window, msg 4.
    Flat,
    /// Parallel fan-out: each branch is `(property, full)` where `full`
    /// selects a delegated messages-2–5 appraisal over a
    /// measurement-only messages-3–4 branch.
    Fanout(Vec<(Option<SecurityProperty>, bool)>),
    /// A platform appraisal, run as a one-branch fork, whose verdict
    /// gates a flat measurement.
    Layered(Option<SecurityProperty>),
}

fn arb_body() -> impl Strategy<Value = Body> {
    prop_oneof![
        Just(Body::Flat),
        proptest::collection::vec((arb_branch_property(), arb_bool()), 1..=4)
            .prop_map(Body::Fanout),
        arb_branch_property().prop_map(Body::Layered),
    ]
}

/// The measurement core: msg 3 (the compiler adds the window), msg 4.
const MEASUREMENT: [Step; 2] = [Step::Hop(MsgKind::Msg3), Step::Hop(MsgKind::Msg4)];

/// A fan-out branch body: measurement-only, or a full delegated
/// messages-2–5 appraisal.
fn branch(property: Option<SecurityProperty>, full: bool) -> Branch {
    let body = if full {
        Protocol::figure3_internal()
    } else {
        Protocol(MEASUREMENT.to_vec())
    };
    Branch { property, body }
}

/// Assembles a well-formed program from the generated shape.
fn build_program(customer: bool, body: &Body) -> Protocol {
    let mut steps = Vec::new();
    if customer {
        steps.push(Step::Hop(MsgKind::Msg1));
    }
    steps.push(Step::Hop(MsgKind::Msg2));
    match body {
        Body::Flat => steps.extend(MEASUREMENT),
        Body::Fanout(branches) => steps.push(Step::Fork(
            branches
                .iter()
                .map(|&(property, full)| branch(property, full))
                .collect(),
        )),
        Body::Layered(platform) => {
            steps.push(Step::Fork(vec![branch(*platform, true)]));
            steps.push(Step::Gate);
            steps.extend(MEASUREMENT);
        }
    }
    steps.push(Step::Hop(MsgKind::Msg5));
    if customer {
        steps.push(Step::Hop(MsgKind::Msg6));
    }
    Protocol(steps)
}

/// Compiles and runs `program` on a fresh cloud, dropping each message
/// with probability `drop` (none installed: a clean network), returning
/// the report (or typed error).
fn run_once(
    program: &Protocol,
    property: SecurityProperty,
    seed: u64,
    drop: Option<f64>,
) -> Result<AttestationReport, CloudError> {
    let mut cloud = CloudBuilder::new().servers(2).seed(seed).build();
    let vid = cloud
        .request_vm(
            VmRequest::new(Flavor::Small, Image::Cirros)
                .require(SecurityProperty::RuntimeIntegrity)
                .workload(WorkloadSpec::Busy),
        )
        .expect("clean launch");
    let id = cloud
        .register_protocol(program)
        .expect("well-formed programs compile");
    if let Some(p) = drop {
        cloud
            .network_mut()
            .set_fault_model(FaultModel::new(seed ^ 0xD0).drop_prob(p));
    }
    cloud.attest_with_program(vid, property, id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every well-formed program compiles and reaches a verdict.
    #[test]
    fn programs_compile_and_reach_a_verdict(
        customer in arb_bool(),
        body in arb_body(),
        property in arb_property(),
        seed in 0u64..500,
    ) {
        let program = build_program(customer, &body);
        // A clean-network run of a well-formed program always reaches a
        // verdict (Gate may certify a negative one, never an error).
        let outcome = run_once(&program, property, seed, None);
        prop_assert!(outcome.is_ok(), "clean run failed: {:?}", outcome);
    }

    /// Under loss every program still terminates with a verdict or a
    /// typed error — retry ladders, deadlines and the fork/join ledger
    /// never wedge a session.
    #[test]
    fn programs_terminate_under_loss(
        customer in arb_bool(),
        body in arb_body(),
        property in arb_property(),
        seed in 0u64..500,
        drop in arb_drop_rate(),
    ) {
        let program = build_program(customer, &body);
        // Returning at all is the liveness property. A verdict and the
        // one failure loss causes (a hop out of retransmissions) are the
        // acceptable outcomes; any other error, `Internal` say, is a bug.
        let outcome = run_once(&program, property, seed, Some(drop));
        match outcome {
            Ok(report) => prop_assert!(report.elapsed_us > 0),
            Err(e) => prop_assert!(matches!(e, CloudError::Unreachable { .. }), "{e:?}"),
        }
    }
}

/// The loss property's failure arm is reachable: at the exhausting rate
/// a Figure-3 program runs out of retransmissions on some hop.
#[test]
fn exhausted_retries_end_unreachable() {
    let program = build_program(true, &Body::Flat);
    let property = SecurityProperty::RuntimeIntegrity;
    let outcome = run_once(&program, property, 1, Some(LADDER_EXHAUSTING_DROP));
    assert!(
        matches!(outcome, Err(CloudError::Unreachable { .. })),
        "{outcome:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every well-formed program, lowered, verifies under the full
    /// protocol on every gate path, and no search is truncated.
    #[test]
    fn programs_verify_symbolically(
        customer in arb_bool(),
        body in arb_body(),
    ) {
        let program = build_program(customer, &body);
        let outcomes = verify_program(&program, &ModelConfig::full(), SearchConfig::default())
            .expect("well-formed programs compile");
        for outcome in outcomes {
            prop_assert!(!outcome.truncated, "truncated: {:?}", program);
            prop_assert!(outcome.verified(), "{:?}: {:#?}", program, outcome.violations);
        }
    }
}
