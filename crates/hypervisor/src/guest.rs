//! The simulated guest operating system: kernel task list, guest-visible
//! process listing (which a rootkit can filter), and the measured VM
//! image.
//!
//! This models exactly the state the paper's Case Studies I and II
//! exercise: startup integrity hashes the VM image; runtime integrity
//! compares the *kernel* task list (extracted by VM introspection from
//! guest memory) against what the possibly-compromised guest OS reports.

use monatt_crypto::sha256::sha256;
use std::borrow::Cow;

/// One process in the guest kernel's task list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuestTask {
    /// Process identifier.
    pub pid: u32,
    /// Process name.
    pub name: String,
    /// Whether a rootkit hides this task from guest-visible queries.
    /// The kernel task list (and hence VM introspection) still sees it.
    pub hidden: bool,
}

/// The simulated guest OS state of one VM.
#[derive(Clone, Debug)]
pub struct GuestOs {
    tasks: Vec<GuestTask>,
    next_pid: u32,
    /// Borrowed from a shared pristine image until something writes to
    /// it through [`GuestOs::image_mut`].
    image: Cow<'static, [u8]>,
}

impl GuestOs {
    /// Boots a guest from a VM image (arbitrary bytes; only its hash
    /// matters to the integrity machinery), with an initial set of system
    /// tasks. A `&'static` image is borrowed, not copied.
    pub fn boot(image: impl Into<Cow<'static, [u8]>>, initial_tasks: &[&str]) -> Self {
        let mut os = GuestOs {
            tasks: Vec::new(),
            next_pid: 1,
            image: image.into(),
        };
        for name in initial_tasks {
            os.spawn_task(name, false);
        }
        os
    }

    /// Spawns a task; returns its pid. `hidden` marks rootkit-concealed
    /// processes.
    pub fn spawn_task(&mut self, name: &str, hidden: bool) -> u32 {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.tasks.push(GuestTask {
            pid,
            name: name.to_owned(),
            hidden,
        });
        pid
    }

    /// Kills a task by pid. Returns true if it existed.
    pub fn kill_task(&mut self, pid: u32) -> bool {
        let before = self.tasks.len();
        self.tasks.retain(|t| t.pid != pid);
        self.tasks.len() != before
    }

    /// What `ps` inside the guest reports: the task list *after* rootkit
    /// filtering. A compromised guest under-reports.
    pub fn visible_tasks(&self) -> Vec<GuestTask> {
        self.tasks.iter().filter(|t| !t.hidden).cloned().collect()
    }

    /// The true kernel task list, as read from guest memory by a VM
    /// introspection tool in the hypervisor.
    pub fn kernel_tasks(&self) -> &[GuestTask] {
        &self.tasks
    }

    /// SHA-256 of the VM image the guest booted from.
    pub fn image_hash(&self) -> [u8; 32] {
        sha256(&self.image)
    }

    /// The raw image bytes.
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// Mutable access to the raw image bytes (used by image-tampering
    /// attack models before boot-time measurement). Copies a borrowed
    /// image first, so the shared bytes stay pristine.
    pub fn image_mut(&mut self) -> &mut Vec<u8> {
        self.image.to_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn os() -> GuestOs {
        GuestOs::boot(b"ubuntu-image".to_vec(), &["init", "sshd", "cron"])
    }

    #[test]
    fn boots_with_initial_tasks() {
        let os = os();
        assert_eq!(os.kernel_tasks().len(), 3);
        assert_eq!(os.visible_tasks().len(), 3);
        assert_eq!(os.kernel_tasks()[0].pid, 1);
        assert_eq!(os.kernel_tasks()[0].name, "init");
    }

    #[test]
    fn hidden_task_visible_only_to_kernel() {
        let mut os = os();
        let pid = os.spawn_task("cryptominer", true);
        assert_eq!(os.kernel_tasks().len(), 4);
        assert_eq!(os.visible_tasks().len(), 3);
        assert!(os.kernel_tasks().iter().any(|t| t.pid == pid && t.hidden));
    }

    #[test]
    fn kill_task_removes() {
        let mut os = os();
        let pid = os.spawn_task("job", false);
        assert!(os.kill_task(pid));
        assert!(!os.kill_task(pid));
        assert_eq!(os.kernel_tasks().len(), 3);
    }

    #[test]
    fn pids_are_unique_and_monotonic() {
        let mut os = os();
        let a = os.spawn_task("a", false);
        let b = os.spawn_task("b", false);
        assert!(b > a);
    }

    #[test]
    fn image_hash_tracks_tampering() {
        let mut os = os();
        let clean = os.image_hash();
        os.image_mut()[0] ^= 0xff;
        assert_ne!(os.image_hash(), clean);
    }

    #[test]
    fn guests_share_a_static_image_until_one_is_tampered() {
        static IMAGE: [u8; 64] = [7; 64];
        let mut a = GuestOs::boot(&IMAGE[..], &["init"]);
        let b = GuestOs::boot(&IMAGE[..], &["init"]);
        assert!(std::ptr::eq(a.image(), b.image()));
        assert!(std::ptr::eq(a.image(), &IMAGE[..]));
        let clean = b.image_hash();
        assert_eq!(a.image_hash(), clean);

        a.image_mut()[0] ^= 0xff;
        assert_ne!(a.image_hash(), clean);
        assert_eq!(b.image_hash(), clean);
        assert!(std::ptr::eq(b.image(), &IMAGE[..]));
        assert!(!std::ptr::eq(a.image(), &IMAGE[..]));
        assert_eq!(IMAGE, [7; 64]);
    }
}
