//! The Response Module (Section 5.2): remediation actions —
//! termination, suspension, migration — their Figure-11 timings, and
//! the suspension-recheck policy.

use super::build::VmMeta;
use super::{AttestationReport, Cloud, WorkloadHandles, WorkloadSpec};
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
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`] or [`CloudError::MigrationFailed`].
    pub fn respond(
        &mut self,
        vid: Vid,
        action: ResponseAction,
    ) -> Result<ResponseTiming, CloudError> {
        let record = self
            .controller
            .vm(vid)
            .ok_or(CloudError::UnknownVm(vid))?
            .clone();
        let response_us = match action {
            ResponseAction::Termination => {
                if let Some(node) = self.touch_server(record.server) {
                    node.remove_vm(vid);
                }
                self.controller.release_capacity(vid);
                if let Some(r) = self.controller.vm_mut(vid) {
                    r.state = VmLifecycle::Terminated;
                }
                self.latency.terminate_us(record.flavor)
            }
            ResponseAction::Suspension => {
                if let Some(node) = self.touch_server(record.server) {
                    node.suspend_vm(vid);
                }
                if let Some(r) = self.controller.vm_mut(vid) {
                    r.state = VmLifecycle::Suspended;
                }
                self.latency.suspend_us(record.flavor)
            }
            ResponseAction::Migration => {
                // Re-run Policy Validation excluding the source and any
                // crashed server.
                let mut excluded = self.down_servers();
                excluded.insert(record.server);
                let destination = self
                    .controller
                    .select_server_excluding(record.flavor, &record.properties, &excluded)
                    .map_err(|_| CloudError::MigrationFailed { vid })?;
                let meta = self.vm_meta.get(&vid).cloned().unwrap_or(VmMeta {
                    workload: WorkloadSpec::Idle,
                    tampered: false,
                    pin_pcpu: None,
                    handles: WorkloadHandles::default(),
                });
                if let Some(node) = self.touch_server(record.server) {
                    node.remove_vm(vid);
                }
                self.controller.release_capacity(vid);
                let mut image_bytes = record.image.pristine_bytes();
                if meta.tampered {
                    image_bytes[0] ^= 0xff;
                }
                let (drivers, handles) = meta
                    .workload
                    .drivers(record.flavor.vcpus(), self.seed ^ vid.0);
                if let Some(m) = self.vm_meta.get_mut(&vid) {
                    m.handles = handles;
                }
                let node = self
                    .touch_server(destination)
                    .ok_or(CloudError::UnknownServer(destination))?;
                node.launch_vm_pinned(vid, record.image, image_bytes, drivers, 256, meta.pin_pcpu);
                if let Some(r) = self.controller.vm_mut(vid) {
                    r.server = destination;
                    r.state = VmLifecycle::Active;
                }
                self.controller.take_capacity(destination, record.flavor);
                self.latency.migrate_us(record.flavor)
            }
        };
        // Any remediation changes the VM's trust context (new host,
        // suspended state, or gone): cached evidence about it is stale
        // on every replica, not just the one that served it.
        for replica in &mut self.attservers {
            replica.invalidate_evidence_for_vid(vid);
        }
        self.advance(response_us);
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
        let vids: Vec<Vid> = self
            .controller
            .vms()
            .filter(|r| r.server == crashed && r.state != VmLifecycle::Terminated)
            .map(|r| r.vid)
            .collect();
        let mut excluded = self.down_servers();
        excluded.insert(crashed);
        for vid in vids {
            let Some(record) = self.controller.vm(vid).cloned() else {
                continue;
            };
            // Evidence gathered on the crashed host is void for this VM
            // wherever it lands — on every replica.
            for replica in &mut self.attservers {
                replica.invalidate_evidence_for_vid(vid);
            }
            // The crashed host's simulator state for this VM is gone
            // either way.
            if let Some(node) = self.touch_server(crashed) {
                node.remove_vm(vid);
            }
            self.controller.release_capacity(vid);
            match self.controller.select_server_excluding(
                record.flavor,
                &record.properties,
                &excluded,
            ) {
                Ok(destination) => {
                    let meta = self.vm_meta.get(&vid).cloned().unwrap_or(VmMeta {
                        workload: WorkloadSpec::Idle,
                        tampered: false,
                        pin_pcpu: None,
                        handles: WorkloadHandles::default(),
                    });
                    let mut image_bytes = record.image.pristine_bytes();
                    if meta.tampered {
                        image_bytes[0] ^= 0xff;
                    }
                    let (drivers, handles) = meta
                        .workload
                        .drivers(record.flavor.vcpus(), self.seed ^ vid.0);
                    if let Some(m) = self.vm_meta.get_mut(&vid) {
                        m.handles = handles;
                    }
                    if let Some(node) = self.touch_server(destination) {
                        node.launch_vm_pinned(
                            vid,
                            record.image,
                            image_bytes,
                            drivers,
                            256,
                            meta.pin_pcpu,
                        );
                    }
                    if let Some(r) = self.controller.vm_mut(vid) {
                        r.server = destination;
                        r.state = VmLifecycle::Active;
                    }
                    self.controller.take_capacity(destination, record.flavor);
                    self.outage_stats.evacuations += 1;
                }
                Err(_) => {
                    if let Some(r) = self.controller.vm_mut(vid) {
                        r.state = VmLifecycle::Terminated;
                    }
                    self.outage_stats.evacuation_failures += 1;
                }
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
            let record = self
                .controller
                .vm(vid)
                .ok_or(CloudError::UnknownVm(vid))?
                .clone();
            if let Some(node) = self.touch_server(record.server) {
                node.suspend_vm(vid);
            }
            if let Some(r) = self.controller.vm_mut(vid) {
                r.state = VmLifecycle::Suspended;
            }
        }
        Ok(report)
    }

    /// Resumes a suspended VM (after the platform re-attests healthy).
    ///
    /// # Errors
    ///
    /// [`CloudError::UnknownVm`] if the VM does not exist.
    pub fn resume(&mut self, vid: Vid) -> Result<(), CloudError> {
        let record = self
            .controller
            .vm(vid)
            .ok_or(CloudError::UnknownVm(vid))?
            .clone();
        if let Some(node) = self.touch_server(record.server) {
            node.resume_vm(vid);
        }
        if let Some(r) = self.controller.vm_mut(vid) {
            r.state = VmLifecycle::Active;
        }
        Ok(())
    }
}
