//! Integration tests for the advanced operation library — the variations
//! the paper's introduction motivates (pSLC, cache reads, multi-plane,
//! suspend/resume, retry, RAIL gang reads), each driven through the full
//! coroutine runtime, μFSM engine, channel, and LUN model.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use babol::ops::{self, Target};
use babol::runtime::coro::{CoroTask, OpCtx};
use babol::runtime::{OpError, RuntimeConfig, SoftController};
use babol::system::{Engine, IoKind, IoRequest, System};
use babol_channel::Channel;
use babol_flash::array::ContentMode;
use babol_flash::ber::CellType;
use babol_flash::lun::LunConfig;
use babol_flash::{Lun, PackageProfile};
use babol_onfi::addr::RowAddr;
use babol_onfi::feature::addr::{DRIVE_STRENGTH, TIMING_MODE};
use babol_sim::{CostModel, Cpu, Freq};
use babol_ufsm::EmitConfig;

fn make_system(luns: u32) -> System {
    let profile = PackageProfile::test_tiny();
    let l = (0..luns)
        .map(|i| {
            Lun::new(LunConfig {
                profile: profile.clone(),
                content: ContentMode::Pristine,
                seed: i as u64 + 1,
                inject_errors: false,
                require_init: false,
            })
        })
        .collect();
    system_of(l)
}

fn system_of(luns: Vec<Lun>) -> System {
    System::new(
        Channel::new(luns),
        EmitConfig::nv_ddr2(200),
        Cpu::new(Freq::from_ghz(1), CostModel::coroutine()),
    )
}

/// Runs one async operation body to completion on `sys`; panics if the
/// operation recorded an error outcome.
fn run_op<F, Fut>(sys: &mut System, body: F)
where
    F: FnOnce(OpCtx, Target) -> Fut + 'static,
    Fut: Future<Output = Result<(), OpError>> + 'static,
{
    let layout = PackageProfile::test_tiny().layout();
    let body = Rc::new(RefCell::new(Some(body)));
    let mut ctrl = SoftController::new("test", RuntimeConfig::coroutine(), move |req| {
        let ctx = OpCtx::new(req.lun, 0);
        let t = Target {
            chip: req.lun,
            layout,
        };
        let c = ctx.clone();
        let body = body.borrow_mut().take().expect("single request");
        let fut = async move {
            match body(c.clone(), t).await {
                Ok(()) => c.set_outcome(Ok(())),
                Err(e) => c.set_outcome(Err(e)),
            }
        };
        Box::new(CoroTask::new(&ctx, fut)) as Box<dyn babol::runtime::SoftTask>
    });
    let req = IoRequest {
        id: 0,
        kind: IoKind::Read,
        lun: 0,
        block: 0,
        page: 0,
        col: 0,
        len: 0,
        dram_addr: 0,
    };
    Engine::new(1).run(sys, &mut ctrl, vec![req]);
    assert!(ctrl.errors.is_empty(), "op failed: {:?}", ctrl.errors);
}

fn row(block: u32, page: u32) -> RowAddr {
    RowAddr {
        lun: 0,
        block,
        page,
    }
}

#[test]
fn pslc_program_and_read_roundtrip() {
    let mut sys = make_system(1);
    sys.dram.write(0x100, b"pslc payload");
    run_op(&mut sys, |ctx, t| async move {
        ops::program_page_pslc(&ctx, &t, row(0, 0), 0x100, 12).await?;
        ops::read_page_pslc(&ctx, &t, row(0, 0), 0, 12, 0x200).await
    });
    assert_eq!(sys.dram.read_vec(0x200, 12), b"pslc payload".to_vec());
    // The array recorded the pSLC mode.
    assert_eq!(
        sys.channel.lun(0).array().page_state(row(0, 0)).unwrap(),
        babol_flash::array::PageState::Programmed { pslc: true }
    );
}

#[test]
fn partial_read_at_offset() {
    let mut sys = make_system(1);
    sys.dram.write(0x100, b"0123456789abcdef");
    run_op(&mut sys, |ctx, t| async move {
        ops::program_page(&ctx, &t, row(0, 0), 0x100, 16).await?;
        // Chunk read: 4 bytes starting at column 6 (Algorithm 2's point).
        ops::read_page(&ctx, &t, row(0, 0), 6, 4, 0x300).await
    });
    assert_eq!(sys.dram.read_vec(0x300, 4), b"6789".to_vec());
}

#[test]
fn cache_read_streams_three_pages() {
    let mut sys = make_system(1);
    for p in 0..3 {
        sys.channel
            .lun_mut(0)
            .array_mut()
            .program_page(row(0, p), &[p as u8; 16], false)
            .unwrap();
    }
    run_op(&mut sys, |ctx, t| async move {
        ops::cache_read_seq(&ctx, &t, row(0, 0), 3, 16, 0x400).await
    });
    for p in 0..3u64 {
        assert_eq!(
            sys.dram.read_vec(0x400 + p * 16, 16),
            vec![p as u8; 16],
            "page {p}"
        );
    }
}

#[test]
fn multi_plane_read_fetches_both_planes() {
    let mut sys = make_system(1);
    // Blocks 0 and 1 sit on planes 0 and 1 of the tiny geometry.
    sys.channel
        .lun_mut(0)
        .array_mut()
        .program_page(row(0, 0), b"plane zero", false)
        .unwrap();
    sys.channel
        .lun_mut(0)
        .array_mut()
        .program_page(row(1, 0), b"plane one!", false)
        .unwrap();
    run_op(&mut sys, |ctx, t| async move {
        ops::multi_plane_read(&ctx, &t, [row(0, 0), row(1, 0)], 10, [0x500, 0x600]).await
    });
    assert_eq!(sys.dram.read_vec(0x500, 10), b"plane zero".to_vec());
    assert_eq!(sys.dram.read_vec(0x600, 10), b"plane one!".to_vec());
}

#[test]
fn erase_suspend_serves_read_then_finishes_erase() {
    let mut sys = make_system(1);
    sys.channel
        .lun_mut(0)
        .array_mut()
        .program_page(row(2, 0), b"urgent", false)
        .unwrap();
    run_op(&mut sys, |ctx, t| async move {
        ops::erase_with_suspended_read(&ctx, &t, row(3, 0), row(2, 0), 6, 0x700).await
    });
    assert_eq!(sys.dram.read_vec(0x700, 6), b"urgent".to_vec());
    assert_eq!(sys.channel.lun(0).array().erase_count(3), 1);
}

#[test]
fn gang_read_latches_all_replicas_and_streams_one() {
    let mut sys = make_system(4);
    // Replicated data on LUNs 1..3 (RAIL-style).
    for lun in 1..4u32 {
        sys.channel
            .lun_mut(lun)
            .array_mut()
            .program_page(
                RowAddr {
                    lun: 0,
                    block: 0,
                    page: 0,
                },
                b"replica!",
                false,
            )
            .unwrap();
    }
    let winner = Rc::new(RefCell::new(None));
    let w = Rc::clone(&winner);
    let layout = PackageProfile::test_tiny().layout();
    run_op(&mut sys, move |ctx, _t| async move {
        let targets: Vec<Target> = (1..4).map(|chip| Target { chip, layout }).collect();
        let chip = ops::gang_read(
            &ctx,
            &targets,
            RowAddr {
                lun: 0,
                block: 0,
                page: 0,
            },
            8,
            0x800,
        )
        .await?;
        w.borrow_mut().replace(chip);
        Ok(())
    });
    assert_eq!(sys.dram.read_vec(0x800, 8), b"replica!".to_vec());
    let chip = winner.borrow().expect("gang read reported a winner");
    assert!((1..4).contains(&chip));
    // Every replica actually performed the array fetch (gang latch worked).
    // The LUN model resolves busy periods lazily, so poke each one first.
    let now = sys.now;
    for lun in 1..4u32 {
        sys.channel.lun_mut(lun).status(now);
        assert_eq!(sys.channel.lun(lun).stats().reads, 1, "lun {lun}");
    }
}

#[test]
fn read_with_retry_steps_levels_until_verified() {
    let mut sys = make_system(1);
    sys.channel
        .lun_mut(0)
        .array_mut()
        .program_page(row(0, 0), b"retryable", false)
        .unwrap();
    let attempts = Rc::new(RefCell::new(0u8));
    let a = Rc::clone(&attempts);
    run_op(&mut sys, move |ctx, t| async move {
        let level = ops::read_with_retry(&ctx, &t, row(0, 0), 9, 0x900, 0xA00, 5, move |lvl| {
            *a.borrow_mut() += 1;
            lvl >= 2 // pretend ECC only passes from level 2 on
        })
        .await?;
        assert_eq!(level, 2);
        Ok(())
    });
    assert_eq!(*attempts.borrow(), 3); // levels 0, 1, 2
    assert_eq!(sys.dram.read_vec(0x900, 9), b"retryable".to_vec());
    // The retry level was restored to default afterwards.
    let lun = sys.channel.lun(0);
    assert_eq!(lun.stats().reads, 3);
}

#[test]
fn features_and_identity_ops() {
    let mut sys = make_system(1);
    run_op(&mut sys, |ctx, t| async move {
        // SET then GET a feature through the bus.
        ops::set_features(
            &ctx,
            &t,
            babol_onfi::feature::addr::DRIVE_STRENGTH,
            [2, 0, 0, 0],
            0xB00,
        )
        .await?;
        let v = ops::get_features(&ctx, &t, babol_onfi::feature::addr::DRIVE_STRENGTH).await;
        assert_eq!(v, [2, 0, 0, 0]);
        // READ ID returns the profile's manufacturer byte.
        let id = ops::read_id(&ctx, &t, 2).await;
        assert_eq!(id[0], 0x01);
        // RESET completes and the LUN is usable again.
        ops::reset(&ctx, &t).await?;
        let st = ops::read_status(&ctx, &t).await;
        assert!(st & 0x40 != 0);
        Ok(())
    });
}

/// Every edge that makes raw page bytes adds exactly one to the system's
/// raw-buffer count, the number simbench reports as
/// `sim.pool.heap_allocs`: SET FEATURES staging, a GET FEATURES and a
/// READ ID readout, a page fetch that takes bit flips, and a high-speed
/// readout before DQS calibration. Described reads add nothing.
#[test]
fn each_raw_byte_edge_makes_one_buffer() {
    fn made(sys: &System) -> u64 {
        sys.pool().stats().heap_allocs()
    }
    let page = PackageProfile::test_tiny().geometry.raw_page_size();

    let mut sys = make_system(1);
    run_op(&mut sys, |ctx, t| async move {
        ops::read_page(&ctx, &t, row(0, 0), 0, 16, 0x100).await
    });
    assert_eq!(made(&sys), 0, "a described read");
    run_op(&mut sys, |ctx, t| async move {
        ops::set_features(&ctx, &t, DRIVE_STRENGTH, [2, 0, 0, 0], 0xB00).await
    });
    assert_eq!(made(&sys), 1, "SET FEATURES staging");
    run_op(&mut sys, |ctx, t| async move {
        assert_eq!(
            ops::get_features(&ctx, &t, DRIVE_STRENGTH).await,
            [2, 0, 0, 0]
        );
        Ok(())
    });
    assert_eq!(made(&sys), 2, "GET FEATURES readout");
    run_op(&mut sys, |ctx, t| async move {
        assert_eq!(ops::read_id(&ctx, &t, 2).await[0], 0x01);
        Ok(())
    });
    assert_eq!(made(&sys), 3, "READ ID readout");

    // Bit flips: a worn QLC page read whole, so the flips land in DRAM.
    let mut profile = PackageProfile::test_tiny();
    profile.cell = CellType::Qlc;
    let mut lun = Lun::new(LunConfig {
        profile,
        content: ContentMode::Pristine,
        seed: 7,
        inject_errors: true,
        require_init: false,
    });
    for _ in 0..3000 {
        lun.array_mut().erase_block(row(0, 0)).unwrap();
    }
    let mut sys = system_of(vec![lun]);
    run_op(&mut sys, move |ctx, t| async move {
        ops::read_page(&ctx, &t, row(0, 0), 0, page, 0x100).await
    });
    let flipped = sys
        .dram
        .read_vec(0x100, page)
        .iter()
        .filter(|&&b| b != 0xFF)
        .count();
    assert!(flipped > 0, "no flips");
    assert_eq!(made(&sys), 1, "a page fetch with bit flips");

    // DQS scrambling: NV-DDR2 is set, the drive phase never calibrated.
    let mut sys = system_of(vec![Lun::new(LunConfig {
        require_init: true,
        ..LunConfig::test_default()
    })]);
    run_op(&mut sys, |ctx, t| async move {
        ops::reset(&ctx, &t).await?;
        ops::set_features(&ctx, &t, TIMING_MODE, [8, 2, 0, 0], 0xB00).await
    });
    assert_eq!(made(&sys), 1, "SET FEATURES staging");
    run_op(&mut sys, |ctx, t| async move {
        ops::read_page(&ctx, &t, row(0, 0), 0, 16, 0x100).await
    });
    assert_ne!(sys.dram.read_vec(0x100, 16), [0xFF; 16], "not scrambled");
    assert_eq!(made(&sys), 2, "an uncalibrated high-speed readout");
}

#[test]
fn program_failure_surfaces_as_op_error() {
    let mut sys = make_system(1);
    sys.dram.write(0x100, &[1u8; 4]);
    // Program the same page twice without erase: the second must FAIL.
    let saw_error = Rc::new(RefCell::new(false));
    let s = Rc::clone(&saw_error);
    run_op(&mut sys, move |ctx, t| async move {
        ops::program_page(&ctx, &t, row(0, 0), 0x100, 4).await?;
        match ops::program_page(&ctx, &t, row(0, 0), 0x100, 4).await {
            Err(OpError::Failed { status }) => {
                assert!(status & 0x01 != 0, "FAIL bit set");
                *s.borrow_mut() = true;
                // Clear the outcome the op recorded so run_op sees success;
                // the error was expected.
                Ok(())
            }
            other => panic!("expected FAIL, got {other:?}"),
        }
    });
    assert!(*saw_error.borrow());
}
