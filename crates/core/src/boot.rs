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
//! Boot is firmware, not datapath: it runs synchronously over the μFSM
//! engine with no scheduling subtleties, exactly as init code would.

use std::fmt;

use babol_onfi::opcode::op;
use babol_onfi::param_page::ParamPage;
use babol_onfi::status::Status;
use babol_ufsm::{execute, DmaDest, EmitConfig, EmitScratch, Latch, PostWait, Transaction};

use babol_onfi::bus::ChipMask;

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

/// Executes one transaction synchronously, advancing `sys.now` past its end.
fn run_txn(sys: &mut System, emit: &EmitConfig, txn: &Transaction) -> Vec<u8> {
    let start = sys.now.max(sys.channel.busy_until());
    let out = execute(
        &mut sys.channel,
        &mut sys.dram,
        emit,
        start,
        txn,
        0,
        &mut sys.trace,
        &mut EmitScratch::default(),
    )
    .unwrap_or_else(|e| panic!("boot waveform rejected: {e}"));
    sys.now = out.end;
    out.inline
}

/// Polls READ STATUS until ready, advancing simulated time.
fn wait_ready(sys: &mut System, emit: &EmitConfig, chip: u32) {
    loop {
        let txn = Transaction::new(ChipMask::single(chip))
            .ca(vec![Latch::Cmd(op::READ_STATUS)], PostWait::Whr)
            .read(1, DmaDest::Inline);
        let data = run_txn(sys, emit, &txn);
        if data[0] & Status::RDY != 0 {
            return;
        }
        // Idle between polls, as init firmware would.
        sys.now += babol_sim::SimDuration::from_micros(2);
    }
}

/// Brings up one LUN to NV-DDR2 at `mts` and calibrates its DQS phase.
pub fn boot_lun(sys: &mut System, chip: u32, mts: u32) -> Result<LunBootReport, BootError> {
    let sdr = EmitConfig::sdr();

    // Step 1: RESET in SDR mode 0 and wait for recovery.
    let reset =
        Transaction::new(ChipMask::single(chip)).ca(vec![Latch::Cmd(op::RESET)], PostWait::Wb);
    run_txn(sys, &sdr, &reset);
    wait_ready(sys, &sdr, chip);

    // Step 2: READ PARAMETER PAGE (three redundant copies) over SDR.
    let kick = Transaction::new(ChipMask::single(chip)).ca(
        vec![Latch::Cmd(op::READ_PARAM_PAGE), Latch::Addr(vec![0x00])],
        PostWait::Wb,
    );
    run_txn(sys, &sdr, &kick);
    wait_ready(sys, &sdr, chip);
    let restore = Transaction::new(ChipMask::single(chip))
        .ca(vec![Latch::Cmd(op::READ_1)], PostWait::Whr)
        .read(256 * 3, DmaDest::Inline);
    let raw = run_txn(sys, &sdr, &restore);
    let params = (0..3)
        .filter_map(|i| ParamPage::from_bytes(&raw[i * 256..(i + 1) * 256]).ok())
        .next()
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
    sys.dram.write(BOOT_SCRATCH, &[mode, 2, 0, 0]);
    let setf = Transaction::new(ChipMask::single(chip))
        .ca(
            vec![
                Latch::Cmd(op::SET_FEATURES),
                Latch::Addr(vec![babol_onfi::feature::addr::TIMING_MODE]),
            ],
            PostWait::Adl,
        )
        .write(4, BOOT_SCRATCH);
    run_txn(sys, &sdr, &setf);

    // Step 4: calibration — scan DQS phases until the parameter page reads
    // back with a valid CRC at full speed.
    let fast = EmitConfig::nv_ddr2(mts);
    let mut locked = None;
    let mut tried = 0u8;
    for phase in 0..8u8 {
        tried += 1;
        sys.channel.lun_mut(chip).set_drive_phase(phase);
        let kick = Transaction::new(ChipMask::single(chip)).ca(
            vec![Latch::Cmd(op::READ_PARAM_PAGE), Latch::Addr(vec![0x00])],
            PostWait::Wb,
        );
        run_txn(sys, &fast, &kick);
        wait_ready(sys, &fast, chip);
        let fetch = Transaction::new(ChipMask::single(chip))
            .ca(vec![Latch::Cmd(op::READ_1)], PostWait::Whr)
            .read(256, DmaDest::Inline);
        let raw = run_txn(sys, &fast, &fetch);
        if ParamPage::from_bytes(&raw).is_ok() {
            locked = Some(phase);
            break;
        }
    }
    let phase = locked.ok_or(BootError::CalibrationFailed { chip })?;
    Ok(LunBootReport {
        chip,
        params,
        phase,
        phases_tried: tried,
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
        // After boot, a full read sequence at NV-DDR2 works and returns
        // clean (unscrambled) data.
        use babol_onfi::addr::{ColumnAddr, RowAddr};
        let layout = sys.channel.lun(0).profile().geometry.addr_layout(16);
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
        let fast = EmitConfig::nv_ddr2(200);
        let addr = layout.pack_full(ColumnAddr(0), row);
        let latch = Transaction::new(ChipMask::single(0)).ca(
            vec![
                Latch::Cmd(op::READ_1),
                Latch::Addr(addr),
                Latch::Cmd(op::READ_2),
            ],
            PostWait::Wb,
        );
        run_txn(&mut sys, &fast, &latch);
        wait_ready(&mut sys, &fast, 0);
        let fetch = Transaction::new(ChipMask::single(0))
            .ca(
                vec![
                    Latch::Cmd(op::CHANGE_READ_COL_1),
                    Latch::Addr(layout.pack_col(ColumnAddr(0))),
                    Latch::Cmd(op::CHANGE_READ_COL_2),
                ],
                PostWait::Ccs,
            )
            .read(7, DmaDest::Inline);
        let data = run_txn(&mut sys, &fast, &fetch);
        assert_eq!(&data, b"booted!");
    }
}
