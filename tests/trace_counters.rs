//! The tracer's published counters equal the counts their layers keep.
//!
//! The kernel counts the events it pops (`System::events_popped`) and the
//! channel its transactions (bus segments), phases and bytes
//! (`Channel::stats`), whether or not tracing is on. A traced run gets
//! them in its tracer from `System::publish_counters` at every point where
//! a job ends: `Engine::run`, `Ssd::run` and `Ssd::flush_cache` here, and
//! each shard's finish in `babol_ftl::multi`'s own tests. These tests hold
//! each published counter to its layer's count after every such point, and
//! an `Engine::run` report to its own run.

#[path = "common/devices.rs"]
mod devices;

use babol::workload::{Order, ReadWorkload};
use babol::{Engine, System};
use babol_bench::{build_controller, build_system, read_microbench_traced, ControllerKind};
use babol_flash::PackageProfile;
use babol_trace::{Counter, TraceKind, Tracer};
use devices::{Spec, WRITE_GC_1CH};

/// Asserts that `trace` carries `sys`'s kernel and channel counts.
/// `TxnsIssued` is the channel's segment count for every controller.
fn assert_published(trace: &Tracer, sys: &System, at: &str) {
    let bus = sys.channel.stats();
    assert!(sys.events_popped() > 0 && bus.segments > 0, "{at}: no work");
    assert_eq!(
        [
            Counter::EventsPopped,
            Counter::TxnsIssued,
            Counter::PhasesTransmitted,
            Counter::BytesFromFlash,
            Counter::BytesToFlash,
        ]
        .map(|c| trace.counter_total(c)),
        [
            sys.events_popped(),
            bus.segments,
            bus.phases,
            bus.bytes_out,
            bus.bytes_in,
        ],
        "{at}: published counters differ from the layers' counts"
    );
}

#[test]
fn engine_run_publishes_the_kernel_and_channel_counts() {
    let profile = PackageProfile::hynix();
    for kind in [
        ControllerKind::HwAsync,
        ControllerKind::HwSync,
        ControllerKind::Rtos,
        ControllerKind::Coro,
    ] {
        let (report, tracer) = read_microbench_traced(&profile, 2, 200, 1000, kind, 32, true);
        // The same traced run, with its system kept to read the layers'
        // counts.
        let mut sys = build_system(&profile, 2, 200, 1000, kind);
        sys.trace = Tracer::enabled();
        let mut ctrl = build_controller(kind, &profile, 2);
        let reqs = ReadWorkload {
            luns: 2,
            count: 32,
            order: Order::Sequential,
            len: profile.geometry.page_size,
        }
        .generate(&profile.geometry);
        let again = Engine::new(1).run(&mut sys, ctrl.as_mut(), reqs);
        assert_eq!(format!("{report:?}"), format!("{again:?}"), "{kind:?}");
        assert_published(&tracer, &sys, &format!("{kind:?} Engine::run"));
        // A software controller traces each transaction it issues, so a
        // ring that dropped nothing holds one `TxnIssue` per segment.
        if matches!(kind, ControllerKind::Rtos | ControllerKind::Coro) {
            assert_eq!(tracer.dropped(), 0, "{kind:?}: the ring overflowed");
            let issued = tracer
                .events()
                .filter(|e| e.kind == TraceKind::TxnIssue)
                .count() as u64;
            assert_eq!(
                issued,
                tracer.counter_total(Counter::TxnsIssued),
                "{kind:?}: traced issues differ from the published transactions"
            );
        }
    }
}

/// Bugfix regression: a report's bus time once held the channel's busy
/// time since the system was built, so a second run on one system also
/// reported the first run's.
#[test]
fn a_second_engine_run_reports_only_its_own_bus_time() {
    let profile = PackageProfile::hynix();
    let kind = ControllerKind::Coro;
    let mut sys = build_system(&profile, 2, 200, 1000, kind);
    let mut ctrl = build_controller(kind, &profile, 2);
    let reqs = ReadWorkload {
        luns: 2,
        count: 16,
        order: Order::Sequential,
        len: profile.geometry.page_size,
    }
    .generate(&profile.geometry);
    let first = Engine::new(1).run(&mut sys, ctrl.as_mut(), reqs.clone());
    let before = sys.channel.stats().busy;
    assert_eq!(first.bus_busy, before, "the first run starts at zero");
    let second = Engine::new(1).run(&mut sys, ctrl.as_mut(), reqs);
    assert!(!second.bus_busy.is_zero(), "the second run used the bus");
    assert_eq!(second.bus_busy, sys.channel.stats().busy - before);
}

#[test]
fn ssd_run_and_flush_publish_the_kernel_and_channel_counts() {
    // A one-channel device with the write-back cache, so the closing
    // flush has dirty pages to program.
    let spec = Spec {
        name: "write_cached_1ch",
        cache: true,
        ..WRITE_GC_1CH
    };
    let (mut sys, mut ctrl, mut ssd) = spec.one_channel(true, false);
    for (i, job) in spec.jobs().into_iter().enumerate() {
        ssd.run(&mut sys, &mut ctrl, job);
        assert_published(&sys.trace, &sys, &format!("Ssd::run of job {i}"));
    }
    let before = sys.events_popped();
    ssd.flush_cache(&mut sys, &mut ctrl);
    assert!(sys.events_popped() > before, "the flush programmed nothing");
    assert_published(&sys.trace, &sys, "Ssd::flush_cache");
}
