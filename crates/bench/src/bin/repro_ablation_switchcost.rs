//! Ablation: context-switch cost sensitivity.
//!
//! Scales every software-action cycle budget of the coroutine runtime and
//! reports throughput — locating the cliff where a software-defined
//! controller stops keeping the channel fed (the mechanism behind Fig. 10's
//! frequency axis, expressed in cost rather than clock).

use babol::runtime::RuntimeConfig;
use babol::system::Engine;
use babol::workload::{Order, ReadWorkload};
use babol_bench::{build_soft_controller, build_system, render_table, ControllerKind};
use babol_flash::PackageProfile;
use babol_sim::{CostModel, Cpu};

fn main() {
    let profile = PackageProfile::hynix();
    println!("Ablation: software action cost scale (Coro, Hynix, 200 MT/s, 8 LUNs, 1 GHz)\n");
    let mut rows = Vec::new();
    for (num, den) in [(1u64, 4u64), (1, 2), (1, 1), (2, 1), (4, 1), (8, 1)] {
        let mut sys = build_system(&profile, 8, 200, 1000, ControllerKind::Coro);
        // The runtime charges the processor's cost model.
        sys.cpu = Cpu::new(sys.cpu.freq(), CostModel::coroutine().scaled(num, den));
        let mut ctrl =
            build_soft_controller(ControllerKind::Coro, &profile, RuntimeConfig::coroutine());
        let reqs = ReadWorkload {
            luns: 8,
            count: 240,
            order: Order::Sequential,
            len: 16384,
        }
        .generate(&profile.geometry);
        let r = Engine::new(1).run(&mut sys, &mut ctrl, reqs);
        rows.push(vec![
            format!("{num}/{den}x"),
            format!("{:.1}", r.throughput_mbps()),
            format!("{:.2}", sys.cpu.utilization(sys.now)),
        ]);
    }
    println!(
        "{}",
        render_table(&["cost scale", "MB/s", "CPU util"], &rows)
    );
}
