//! A usage-interval measurement is the VM's Trust Evidence Registers as
//! the hypervisor's profile tool counts them
//! (`ServerSim::interval_registers`), whatever window was opened before
//! it, or none.
//!
//! A usage-interval spec with `window_us: 0` opens no window of its own,
//! so it reads the bank as it stands: after another property's window
//! (here a CPU-time one), and on a node where no window was ever begun
//! (the bank then counts from boot).

use monatt_core::server::INTERVAL_BIN_WIDTH_US;
use monatt_core::{
    CloudServerNode, Image, Measurement, MeasurementSpec, ReferenceDb, SecurityProperty, ServerId,
    Vid,
};
use monatt_crypto::drbg::Drbg;
use monatt_hypervisor::driver::{ScriptedDriver, VcpuAction};
use monatt_hypervisor::scheduler::SchedParams;

const VID: Vid = Vid(1);

/// A node hosting one VM that computes 2.5 ms, then sleeps 1.5 ms, a
/// hundred times: every run segment lands in register 2, `(2, 3]` ms.
fn node() -> CloudServerNode {
    let mut node = CloudServerNode::boot(
        ServerId(0),
        1,
        SchedParams::default(),
        Drbg::from_seed(5),
        ReferenceDb::new().platform_components(),
        &[
            SecurityProperty::CovertChannelFreedom,
            SecurityProperty::CpuAvailability { min_share_pct: 0 },
        ],
    );
    let bursts = (0..100).flat_map(|_| {
        [
            VcpuAction::Compute { duration_us: 2_500 },
            VcpuAction::Block {
                duration_us: Some(1_500),
            },
        ]
    });
    let guest = vec![Box::new(ScriptedDriver::new(bursts)) as _];
    let image = Image::Cirros;
    node.launch_vm(VID, image, image.pristine_bytes(), guest, 256);
    node
}

/// Attests the usage intervals with no window of their own and checks
/// that the quoted bins are the simulator's registers.
fn assert_bins_are_the_registers(node: &mut CloudServerNode) {
    let local = node.local_vm(VID).expect("hosted");
    let registers = node.sim().interval_registers(local).to_vec();
    assert!(registers[2] > 0, "the guest ran: {registers:?}");
    let spec = MeasurementSpec::UsageIntervals { window_us: 0 };
    let response = node.attest(VID, spec, [7; 32]).expect("hosted VM");
    let Measurement::UsageIntervals {
        bins,
        bin_width_us,
        window_us,
    } = response.measurement
    else {
        panic!("wrong measurement: {:?}", response.measurement);
    };
    assert_eq!(bins, registers);
    assert_eq!((bin_width_us, window_us), (INTERVAL_BIN_WIDTH_US, 0));
}

#[test]
fn usage_intervals_after_a_cpu_time_window_are_the_registers() {
    let mut node = node();
    let spec = MeasurementSpec::CpuTime { window_us: 200_000 };
    node.begin_window(spec, VID);
    node.advance(spec.window_us());
    let Some(Measurement::CpuTime {
        virtual_time_us, ..
    }) = node.collect(spec, VID)
    else {
        panic!("no CPU-time measurement");
    };
    assert!(virtual_time_us > 0);
    assert_bins_are_the_registers(&mut node);
}

#[test]
fn usage_intervals_with_no_window_ever_begun_are_the_registers() {
    let mut node = node();
    node.advance(200_000);
    assert_bins_are_the_registers(&mut node);
}
