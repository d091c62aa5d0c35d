//! A model of the Open NAND Flash Interface (ONFI) protocol.
//!
//! ONFI standardizes how a storage controller talks to NAND flash packages:
//! which pins exist, how command/address/data *latches* are waved onto those
//! pins, which timing parameters must be honoured, and which operations
//! (READ, PROGRAM, ERASE, ...) exist. The BABOL paper builds directly on this
//! vocabulary — its μFSMs are "an instruction set to generate ONFI-like
//! waveforms" — so this crate is the shared language between the flash
//! package substrate (`babol-flash`), the channel model (`babol-channel`),
//! and the programmable hardware (`babol-ufsm`).
//!
//! The crate models:
//!
//! * [`opcode`] — standard and vendor command opcodes (`0x00/0x30` READ,
//!   `0x70` READ STATUS, `0x05/0xE0` CHANGE READ COLUMN, pSLC prefixes, ...).
//! * [`status`] — the status register bits returned by READ STATUS.
//! * [`timing`] — ONFI timing parameter sets (tCS, tCALS, tWB, tADL, tCCS,
//!   tRR, tWHR, ...) for the SDR and NV-DDR2 data interfaces at several
//!   timing modes.
//! * [`addr`] — composing row/column addresses into ONFI address cycles.
//! * [`bus`] — the phase-level waveform vocabulary exchanged on a channel:
//!   command latches, address latches, data-in/out bursts. This is the
//!   "Basic Timing Cycle" (BTC) notion of the standard, §II of the paper.
//! * [`param_page`] — the ONFI parameter page a package reports at
//!   initialization time.
//! * [`feature`] — SET FEATURES / GET FEATURES addresses, including the
//!   vendor-specific ones used by read-retry and pSLC mode.

pub mod addr;
pub mod bus;
pub mod feature;
pub mod opcode;
pub mod param_page;
pub mod status;
pub mod timing;

pub use addr::{AddressCycles, ColumnAddr, RowAddr};
pub use bus::{BusPhase, PhaseKind};
pub use status::Status;
pub use timing::{DataInterface, TimingParams};
