//! The paper's headline result shapes, asserted as tests.
//!
//! These run scaled-down versions of the evaluation (fewer requests, the
//! Hynix profile) and check the qualitative claims — who wins, roughly by
//! what factor, where the trends point — per the reproduction contract in
//! EXPERIMENTS.md.

use babol_bench::{page_transfer_time, read_microbench, ControllerKind};
use babol_flash::PackageProfile;

const N: u64 = 96;

/// Fig. 10: the hardware baseline's throughput does not depend on the CPU.
#[test]
fn hw_baseline_is_flat_across_cpu_frequency() {
    let p = PackageProfile::hynix();
    let slow = read_microbench(&p, 4, 200, 150, ControllerKind::HwAsync, N).throughput_mbps();
    let fast = read_microbench(&p, 4, 200, 1000, ControllerKind::HwAsync, N).throughput_mbps();
    assert!((slow - fast).abs() / fast < 0.01, "{slow} vs {fast}");
}

/// Fig. 10: software controllers speed up with CPU frequency.
#[test]
fn software_controllers_scale_with_cpu() {
    let p = PackageProfile::hynix();
    for kind in [ControllerKind::Rtos, ControllerKind::Coro] {
        let slow = read_microbench(&p, 8, 200, 150, kind, N).throughput_mbps();
        let fast = read_microbench(&p, 8, 200, 1000, kind, N).throughput_mbps();
        assert!(fast > slow * 1.1, "{kind:?}: {slow} -> {fast}");
    }
}

/// Fig. 10: at 1 GHz the RTOS controller performs "very similarly to the
/// baseline hardware" (within a few percent).
#[test]
fn rtos_matches_hw_at_1ghz() {
    let p = PackageProfile::hynix();
    for mts in [100, 200] {
        let hw = read_microbench(&p, 8, mts, 1000, ControllerKind::HwAsync, N).throughput_mbps();
        let rt = read_microbench(&p, 8, mts, 1000, ControllerKind::Rtos, N).throughput_mbps();
        assert!(
            (rt / hw - 1.0).abs() < 0.05,
            "{mts} MT/s: RTOS {rt} vs HW {hw}"
        );
    }
}

/// Fig. 10: the coroutine controller is viable at 1 GHz (within ~10% of the
/// baseline at 8 LUNs) but collapses on the 150 MHz soft-core.
#[test]
fn coro_needs_a_fast_processor() {
    let p = PackageProfile::hynix();
    let hw = read_microbench(&p, 8, 200, 1000, ControllerKind::HwAsync, N).throughput_mbps();
    let coro_fast = read_microbench(&p, 8, 200, 1000, ControllerKind::Coro, N).throughput_mbps();
    let coro_slow = read_microbench(&p, 8, 200, 150, ControllerKind::Coro, N).throughput_mbps();
    assert!(coro_fast > hw * 0.88, "coro@1GHz {coro_fast} vs HW {hw}");
    assert!(
        coro_slow < hw * 0.75,
        "coro@150MHz should lag: {coro_slow} vs {hw}"
    );
}

/// Fig. 10: the coroutine controller's deficit narrows on the busier
/// 100 MT/s channel ("slow channels are busier, giving that controller
/// ample time to schedule commands in advance").
#[test]
fn coro_gap_narrows_on_slow_channels() {
    let p = PackageProfile::hynix();
    let gap = |mts| {
        let hw = read_microbench(&p, 8, mts, 1000, ControllerKind::HwAsync, N).throughput_mbps();
        let co = read_microbench(&p, 8, mts, 1000, ControllerKind::Coro, N).throughput_mbps();
        1.0 - co / hw
    };
    assert!(
        gap(100) < gap(200),
        "gap@100 {} vs gap@200 {}",
        gap(100),
        gap(200)
    );
}

/// Fig. 10: throughput grows with LUN count until channel saturation.
#[test]
fn throughput_scales_with_luns_until_saturation() {
    let p = PackageProfile::hynix();
    let t =
        |luns| read_microbench(&p, luns, 200, 1000, ControllerKind::HwAsync, N).throughput_mbps();
    let (t2, t4, t8) = (t(2), t(4), t(8));
    assert!(t4 > t2 * 0.99, "{t2} -> {t4}");
    // Saturated by 4 LUNs at 200 MT/s with Hynix timings.
    assert!((t8 / t4 - 1.0).abs() < 0.05, "{t4} -> {t8}");
}

/// Table I: the three packages' tR ordering carries through to measured
/// single-LUN latency (Micron < Toshiba < Hynix).
#[test]
fn package_read_times_order_end_to_end() {
    let lat = |p: &PackageProfile| {
        read_microbench(p, 1, 200, 1000, ControllerKind::HwAsync, 24)
            .mean_latency()
            .as_picos()
    };
    let hynix = lat(&PackageProfile::hynix());
    let toshiba = lat(&PackageProfile::toshiba());
    let micron = lat(&PackageProfile::micron());
    assert!(
        micron < toshiba && toshiba < hynix,
        "{micron} {toshiba} {hynix}"
    );
}

/// Table I: page transfer times measured through the μFSM engine.
#[test]
fn page_transfer_times_reproduce_table1() {
    let t200 = page_transfer_time(200).as_micros_f64();
    let t100 = page_transfer_time(100).as_micros_f64();
    assert!((t200 - 100.0).abs() < 3.0, "{t200} vs paper 100 us");
    assert!((t100 - 185.0).abs() < 6.0, "{t100} vs paper 185 us");
}

/// Table II: BABOL operations are the smallest implementations in this
/// very repository.
#[test]
fn loc_ordering_reproduces_table2() {
    for (op, sync, async_, babol) in babol_bench::loc::table2_measured() {
        assert!(
            babol < async_ && babol < sync,
            "{op}: {sync}/{async_}/{babol}"
        );
    }
}

/// Table III: area ordering and closeness to the paper's totals.
#[test]
fn area_reproduces_table3() {
    use babol_ufsm::area;
    for ctrl in [
        area::sync_hw_controller(),
        area::async_hw_controller(),
        area::babol_controller(),
    ] {
        let m = ctrl.total();
        let p = area::paper_table3(ctrl.name).unwrap();
        assert!(
            (m.lut as f64 / p.lut as f64 - 1.0).abs() < 0.05,
            "{} LUT",
            ctrl.name
        );
        assert!(
            (m.ff as f64 / p.ff as f64 - 1.0).abs() < 0.05,
            "{} FF",
            ctrl.name
        );
    }
}

/// Fig. 11: the coroutine polling period is an order of magnitude longer
/// than the RTOS one, and lands near the paper's ~30 µs at 1 GHz.
#[test]
fn polling_periods_reproduce_fig11() {
    use babol::runtime::RuntimeConfig;
    use babol_sim::CostModel;
    let coro = RuntimeConfig::coroutine();
    let rtos = RuntimeConfig::rtos();
    let freq = babol_sim::Freq::from_ghz(1);
    let coro_period = coro.poll_backoff + freq.cycles(CostModel::coroutine().poll_cycle());
    let rtos_period = rtos.poll_backoff + freq.cycles(CostModel::rtos().poll_cycle());
    let c = coro_period.as_micros_f64();
    let r = rtos_period.as_micros_f64();
    assert!((25.0..35.0).contains(&c), "coro period {c} us");
    assert!(r < c / 8.0, "rtos {r} vs coro {c}");
}
