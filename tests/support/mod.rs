//! What the root tests share.

use cloudmonatt::core::{Audit, Cloud, CloudBuilder};

/// Builds `builder`'s cloud with the [`Audit`] observer attached, so its
/// ledgers are checked after every event it dispatches, not only where
/// a test calls `audit()`. A broken ledger panics naming the test (the
/// harness names each test's thread after it), the event and the
/// invariant.
pub fn audited(builder: CloudBuilder) -> Cloud {
    let mut cloud = builder.build();
    let label = std::thread::current().name().unwrap_or("test").to_owned();
    cloud.set_observer(Some(Box::new(Audit::new(label))));
    cloud
}
