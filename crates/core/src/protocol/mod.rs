//! Attestation protocols as data: the IR, its compiler, and the
//! session-layer interpreter.
//!
//! CloudMonatt's Figure-3 message flow used to be hard-wired as a
//! per-stage state machine. This module turns it into a term language
//! ([`Protocol`]) compiled ([`compile`]) to flat op schedules that the
//! session interpreter (`run`, `fork`) executes on the engine's
//! event queue. Figure 3 ships as the default program — byte-identical
//! to the hand-written machine, pinned by the golden trace — and new
//! scenarios (layered platform-then-VM attestation, multi-property
//! fan-out, delegation) are new *programs*, not new code.

pub mod compile;
pub(crate) mod fork;
pub mod ir;
pub(crate) mod run;

pub use compile::{CompileError, ProgramId};
pub use ir::{Branch, MsgKind, NonceSlot, Protocol, QuoteKind};

use crate::types::SecurityProperty;
use compile::{compile_into, CompiledProgram};
use std::collections::BTreeMap;

/// The cloud's compiled-program store. The three standard programs
/// (Figure 3 customer/internal, layered) are registered at build time;
/// fan-out programs are compiled on first use per property list and
/// cached, and arbitrary terms can be registered through
/// [`crate::cloud::Cloud::register_protocol`].
#[derive(Debug)]
pub(crate) struct ProgramRegistry {
    programs: Vec<CompiledProgram>,
    /// The flat Figure-3 customer exchange (messages 1–6).
    pub(crate) fig3_customer: ProgramId,
    /// The controller-internal exchange (messages 2–5).
    pub(crate) fig3_internal: ProgramId,
    /// Layered platform-then-VM attestation.
    pub(crate) layered: ProgramId,
    /// Fan-out programs already compiled, keyed by property list.
    fanout_cache: BTreeMap<Vec<SecurityProperty>, ProgramId>,
}

impl ProgramRegistry {
    /// Compiles the standard programs. Infallible in practice (the
    /// builders are well-formed by construction; unit tests pin their
    /// schedules), but the error is surfaced rather than swallowed.
    pub(crate) fn standard() -> Result<ProgramRegistry, CompileError> {
        let mut programs = Vec::new();
        let fig3_customer = compile_into(&Protocol::figure3_customer(), &mut programs)?;
        let fig3_internal = compile_into(&Protocol::figure3_internal(), &mut programs)?;
        let layered = compile_into(
            &Protocol::layered(SecurityProperty::StartupIntegrity),
            &mut programs,
        )?;
        Ok(ProgramRegistry {
            programs,
            fig3_customer,
            fig3_internal,
            layered,
            fanout_cache: BTreeMap::new(),
        })
    }

    /// Compiles and registers an arbitrary term.
    pub(crate) fn register(&mut self, p: &Protocol) -> Result<ProgramId, CompileError> {
        compile_into(p, &mut self.programs)
    }

    /// The fan-out program for `properties`, compiled on first use.
    pub(crate) fn fanout_for(
        &mut self,
        properties: &[SecurityProperty],
    ) -> Result<ProgramId, CompileError> {
        if let Some(id) = self.fanout_cache.get(properties) {
            return Ok(*id);
        }
        let id = compile_into(&Protocol::fanout(properties), &mut self.programs)?;
        self.fanout_cache.insert(properties.to_vec(), id);
        Ok(id)
    }

    /// The compiled form behind `id`.
    pub(crate) fn get(&self, id: ProgramId) -> Option<&CompiledProgram> {
        self.programs.get(id.0 as usize)
    }
}
