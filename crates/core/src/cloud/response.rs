//! The Response Module (Section 5.2): remediation actions —
//! termination, suspension, migration — their Figure-11 timings, and
//! the suspension-recheck policy. Every action passes the fleet's
//! lifecycle gate: a terminated VM is [`CloudError::UnknownVm`].

use super::{AttestationReport, Cloud};
use crate::controller::{ResponseAction, VmLifecycle};
use crate::error::CloudError;
use crate::types::{SecurityProperty, ServerId, Vid};

/// Timing of a remediation response (Figure 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResponseTiming {
    /// Which response ran.
    pub action: ResponseAction,
    /// Time the response itself took.
    pub response_us: u64,
}

impl Cloud {
    /// Executes a remediation response (Section 5.2) and reports its
    /// timing (Figure 11).
    ///
    /// The response's time moves only the wall clock: every server,
    /// the ones it acted on included, shows its state as of its last
    /// touch (see [`Cloud::server`]).
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`] (also for a terminated VM) or
    /// [`CloudError::MigrationFailed`].
    pub fn respond(
        &mut self,
        vid: Vid,
        action: ResponseAction,
    ) -> Result<ResponseTiming, CloudError> {
        let now = self.events.now();
        let flavor = self.fleet.live(vid)?.flavor;
        let response_us = match action {
            ResponseAction::Termination => {
                self.fleet.set_state(vid, VmLifecycle::Terminated, now)?;
                self.latency.terminate_us(flavor)
            }
            ResponseAction::Suspension => {
                self.fleet.set_state(vid, VmLifecycle::Suspended, now)?;
                self.latency.suspend_us(flavor)
            }
            ResponseAction::Migration => {
                // Re-run Policy Validation excluding the source and any
                // crashed server.
                let mut excluded = self.topology.down_servers();
                self.fleet
                    .relocate(vid, &mut excluded, now)
                    .map_err(|_| CloudError::MigrationFailed { vid })?;
                self.latency.migrate_us(flavor)
            }
        };
        // Any remediation changes the VM's trust context (new host,
        // suspended state, or gone): cached evidence about it is stale
        // on every replica, not just the one that served it.
        self.appraisers.invalidate_vid(vid);
        self.events.advance(response_us);
        Ok(ResponseTiming {
            action,
            response_us,
        })
    }

    /// Evacuates every VM resident on a crashed server: the Response
    /// Module re-runs Policy Validation per VM and migrates it to a
    /// live server with capacity supporting its properties; a VM with
    /// nowhere to go is terminated (counted as an evacuation failure).
    /// No wall-clock charge — this is crash fallout, not a managed
    /// migration.
    pub(crate) fn evacuate_server(&mut self, crashed: ServerId) {
        let now = self.events.now();
        let mut excluded = self.topology.down_servers();
        for vid in self.fleet.residents(crashed) {
            // Evidence gathered on the crashed host is void for this VM
            // wherever it lands — on every replica.
            self.appraisers.invalidate_vid(vid);
            if self.fleet.relocate(vid, &mut excluded, now).is_ok() {
                self.outage.stats.evacuations += 1;
            } else {
                // Nowhere to go: terminated, which also drops the crashed
                // host's simulator state for it.
                let _ = self.fleet.set_state(vid, VmLifecycle::Terminated, now);
                self.outage.stats.evacuation_failures += 1;
            }
        }
    }

    /// The Section 5.2 suspension recheck: briefly resumes a suspended
    /// VM, re-attests the property, and keeps it running only if the
    /// security health has recovered (re-suspending otherwise). Returns
    /// the recheck report.
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`] or a protocol failure.
    pub fn recheck_and_resume(
        &mut self,
        vid: Vid,
        property: SecurityProperty,
    ) -> Result<AttestationReport, CloudError> {
        if self.vm_state(vid) != Some(VmLifecycle::Suspended) {
            return self.runtime_attest_current(vid, property);
        }
        self.resume(vid)?;
        let report = self.startup_attest_current(vid, property)?;
        if !report.healthy() {
            self.fleet
                .set_state(vid, VmLifecycle::Suspended, self.events.now())?;
        }
        Ok(report)
    }

    /// Resumes a suspended VM (after the platform re-attests healthy).
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`] if the VM does not exist or is
    /// terminated.
    pub fn resume(&mut self, vid: Vid) -> Result<(), CloudError> {
        self.fleet
            .set_state(vid, VmLifecycle::Active, self.events.now())
    }
}
