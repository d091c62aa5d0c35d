//! Package bring-up: reset, discovery, timing-mode switch, calibration.
//!
//! "Each package has unique booting, calibration, and initialization steps
//! that are not covered by ONFI. ... some packages boot in SDR data mode and
//! can only be reconfigured to faster data modes through that interface.
//! ... The controller may need to individually adjust the waveform phase
//! for each package" (paper §IV-C). This module is the software-defined
//! boot flow those observations call for:
//!
//! 1. RESET each LUN (in SDR mode 0, the only interface guaranteed after
//!    power-on) and wait for recovery;
//! 2. READ PARAMETER PAGE to discover geometry and supported speeds,
//!    validating the ONFI CRC across the redundant copies;
//! 3. SET FEATURES to raise the interface to NV-DDR2 at the requested rate;
//! 4. run the calibration tool: scan DQS drive phases until the parameter
//!    page reads back with a valid CRC at speed, then lock that phase in
//!    the pad registers.
//!
//! Boot is firmware, not datapath: each step is an operation of the
//! library in [`crate::ops`] (`reset`, `read_param_page`, `set_features`)
//! played on the synchronous op player, [`lintcap::play`], with no
//! scheduler, exactly as init code would run. So boot puts on the bus the
//! very programs `ufsm_lint` captures and lints; the Rust here only checks
//! the rate, picks the timing-mode byte and sets the drive phase.

use std::fmt;
use std::future::Future;

use babol_onfi::feature::addr::TIMING_MODE;
use babol_onfi::param_page::ParamPage;
use babol_ufsm::EmitConfig;

use crate::lintcap;
use crate::ops::{self, Target};
use crate::runtime::coro::OpCtx;
use crate::system::System;

/// The result of bringing up one LUN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LunBootReport {
    /// CE# index.
    pub chip: u32,
    /// Parsed parameter page.
    pub params: ParamPage,
    /// The DQS drive phase the calibration locked in.
    pub phase: u8,
    /// How many phase candidates were tried before locking.
    pub phases_tried: u8,
}

/// Boot failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootError {
    /// The parameter page was unreadable in every redundant copy.
    BadParamPage {
        /// CE# index of the failing LUN.
        chip: u32,
    },
    /// No DQS phase produced a valid high-speed read.
    CalibrationFailed {
        /// CE# index of the failing LUN.
        chip: u32,
    },
    /// The package does not support the requested transfer rate.
    UnsupportedRate {
        /// CE# index of the failing LUN.
        chip: u32,
        /// Requested rate (MT/s).
        requested: u32,
        /// The package's maximum (MT/s).
        supported: u16,
    },
}

impl fmt::Display for BootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootError::BadParamPage { chip } => {
                write!(f, "chip {chip}: no valid parameter page copy")
            }
            BootError::CalibrationFailed { chip } => {
                write!(f, "chip {chip}: no DQS phase yields clean data")
            }
            BootError::UnsupportedRate {
                chip,
                requested,
                supported,
            } => write!(
                f,
                "chip {chip}: {requested} MT/s requested but package supports {supported}"
            ),
        }
    }
}

impl std::error::Error for BootError {}

/// Plays one library operation on `sys` at `emit`, advancing `sys.now`.
fn play<T: 'static, F: Future<Output = T> + 'static>(
    sys: &mut System,
    emit: &EmitConfig,
    op: impl FnOnce(OpCtx) -> F,
) -> T {
    let (channel, dram, trace) = (&mut sys.channel, &mut sys.dram, &mut sys.trace);
    lintcap::play(channel, dram, emit, trace, &mut sys.now, op, drop)
}

/// Brings up one LUN to NV-DDR2 at `mts` and calibrates its DQS phase.
pub fn boot_lun(sys: &mut System, chip: u32, mts: u32) -> Result<LunBootReport, BootError> {
    let t = Target {
        chip,
        layout: sys.channel.lun(chip).profile().layout(),
    };
    let sdr = EmitConfig::sdr();

    // Step 1: RESET in SDR mode 0 and wait for recovery.
    play(sys, &sdr, move |c| async move { ops::reset(&c, &t).await })
        .expect("RESET reports no failure");

    // Step 2: READ PARAMETER PAGE (three redundant copies) over SDR.
    let raw = play(sys, &sdr, move |c| async move {
        ops::read_param_page(&c, &t, 3).await
    });
    let params = raw
        .chunks(256)
        .find_map(|copy| ParamPage::from_bytes(copy).ok())
        .ok_or(BootError::BadParamPage { chip })?;
    if (params.max_mts as u32) < mts {
        return Err(BootError::UnsupportedRate {
            chip,
            requested: mts,
            supported: params.max_mts,
        });
    }

    // Step 3: SET FEATURES to NV-DDR2. Mode 8 = 200 MT/s, mode 5 = 100 MT/s.
    let mode: u8 = match mts {
        200 => 8,
        166 => 7,
        133 => 6,
        100 => 5,
        _ => 5,
    };
    play(sys, &sdr, move |c| async move {
        ops::set_features(&c, &t, TIMING_MODE, [mode, 2, 0, 0], BOOT_SCRATCH).await
    })
    .expect("SET FEATURES reports no failure");

    // Step 4: calibration — scan DQS phases until the parameter page reads
    // back with a valid CRC at full speed.
    let fast = EmitConfig::nv_ddr2(mts);
    let phase = (0..8u8)
        .find(|&phase| {
            sys.channel.lun_mut(chip).set_drive_phase(phase);
            let raw = play(sys, &fast, move |c| async move {
                ops::read_param_page(&c, &t, 1).await
            });
            ParamPage::from_bytes(&raw).is_ok()
        })
        .ok_or(BootError::CalibrationFailed { chip })?;
    Ok(LunBootReport {
        chip,
        params,
        phase,
        phases_tried: phase + 1,
    })
}

/// DRAM scratch address used by boot-time SET FEATURES payloads.
const BOOT_SCRATCH: u64 = 0xB007_0000;

/// Boots every LUN on the channel to NV-DDR2 at `mts`.
pub fn boot_channel(sys: &mut System, mts: u32) -> Result<Vec<LunBootReport>, BootError> {
    (0..sys.channel.lun_count())
        .map(|chip| boot_lun(sys, chip, mts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use babol_channel::Channel;
    use babol_flash::array::ContentMode;
    use babol_flash::lun::LunConfig;
    use babol_flash::{Lun, PackageProfile};
    use babol_sim::{CostModel, Cpu, Freq};

    fn strict_system(n: usize) -> System {
        let luns = (0..n)
            .map(|i| {
                Lun::new(LunConfig {
                    profile: PackageProfile::test_tiny(),
                    content: ContentMode::Pristine,
                    seed: 1000 + i as u64,
                    inject_errors: false,
                    require_init: true, // enforce the full boot contract
                })
            })
            .collect();
        System::new(
            Channel::new(luns),
            EmitConfig::nv_ddr2(200),
            Cpu::new(Freq::from_ghz(1), CostModel::free()),
        )
    }

    #[test]
    fn boot_discovers_and_calibrates_every_lun() {
        let mut sys = strict_system(4);
        let reports = boot_channel(&mut sys, 200).expect("boot succeeds");
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert_eq!(r.params.page_size as usize, 512);
            assert_eq!(
                r.phase,
                sys.channel.lun(r.chip).required_phase_for_tests(),
                "chip {} locked the wrong phase",
                r.chip
            );
        }
        // Phases differ across LUNs (different trace lengths), proving the
        // per-package calibration is doing real work.
        let phases: std::collections::BTreeSet<u8> = reports.iter().map(|r| r.phase).collect();
        assert!(phases.len() > 1, "phases {phases:?}");
    }

    #[test]
    fn boot_rejects_unsupported_rate() {
        let mut sys = strict_system(1);
        let err = boot_lun(&mut sys, 0, 400).unwrap_err();
        assert!(matches!(err, BootError::UnsupportedRate { .. }));
    }

    #[test]
    fn booted_lun_serves_high_speed_reads() {
        let mut sys = strict_system(1);
        boot_lun(&mut sys, 0, 200).unwrap();
        // After boot, the library's READ at NV-DDR2 works and returns clean
        // (unscrambled) data.
        use babol_onfi::addr::RowAddr;
        let row = RowAddr {
            lun: 0,
            block: 0,
            page: 0,
        };
        sys.channel
            .lun_mut(0)
            .array_mut()
            .program_page(row, b"booted!", false)
            .unwrap();
        let t = Target {
            chip: 0,
            layout: sys.channel.lun(0).profile().layout(),
        };
        const DEST: u64 = 0x1000;
        play(&mut sys, &EmitConfig::nv_ddr2(200), move |c| async move {
            ops::read_page(&c, &t, row, 0, 7, DEST).await
        })
        .unwrap();
        assert_eq!(sys.dram.read_vec(DEST, 7), b"booted!");
    }
}
