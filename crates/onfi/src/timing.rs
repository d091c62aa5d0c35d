//! ONFI timing parameters and data-interface modes.
//!
//! Every waveform fragment a controller emits must respect dozens of timing
//! parameters — setup/hold times around each latch, mandatory pauses between
//! phases, per-byte transfer cycles. The paper divides responsibility for
//! them in three (§IV-B): delays *inside* a μFSM and delays immediately
//! around it belong to the μFSM implementation; delays *between* μFSMs (like
//! tR) belong to the operation logic. This module supplies the numbers both
//! layers consume.
//!
//! Values follow the ONFI 5.x datasheet ranges for the SDR and NV-DDR2 data
//! interfaces. The three packages used in the paper (Table I) all run
//! NV-DDR2 at 100 or 200 MT/s.

use babol_sim::SimDuration;

/// The ONFI data interface used on a channel.
///
/// # Examples
///
/// ```
/// use babol_onfi::DataInterface;
///
/// let fast = DataInterface::NvDdr2 { mts: 200 };
/// let slow = DataInterface::NvDdr2 { mts: 100 };
/// assert!(fast.data_cycle() < slow.data_cycle());
/// // 200 MT/s moves one byte every 5 ns.
/// assert_eq!(fast.data_cycle().as_picos(), 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataInterface {
    /// Single data rate; `mode` 0–5 selects the cycle time. Packages boot in
    /// SDR mode 0 and are reconfigured upward (paper §IV-C).
    Sdr {
        /// ONFI SDR timing mode, 0 (slowest, 100 ns cycle) to 5 (20 ns).
        mode: u8,
    },
    /// NV-DDR2 source-synchronous DDR; `mts` is megatransfers per second.
    NvDdr2 {
        /// Transfer rate in MT/s (the paper uses 100 and 200).
        mts: u32,
    },
}

impl DataInterface {
    /// SDR write/read cycle times per timing mode (ONFI 5.x Table 77).
    const SDR_CYCLE_NS: [u64; 6] = [100, 45, 35, 30, 25, 20];

    /// Time to move one data byte across the DQ bus.
    pub fn data_cycle(self) -> SimDuration {
        match self {
            DataInterface::Sdr { mode } => {
                SimDuration::from_nanos(Self::SDR_CYCLE_NS[mode as usize % 6])
            }
            DataInterface::NvDdr2 { mts } => {
                // One transfer per strobe edge: 1e6/mts picoseconds per byte.
                SimDuration::from_picos(1_000_000 / mts as u64)
            }
        }
    }

    /// Time of one command/address latch cycle. Command and address cycles
    /// are clocked by WE# even in NV-DDR2 (tCAD-ish pacing).
    pub fn ca_cycle(self) -> SimDuration {
        match self {
            DataInterface::Sdr { mode } => {
                SimDuration::from_nanos(Self::SDR_CYCLE_NS[mode as usize % 6])
            }
            DataInterface::NvDdr2 { .. } => SimDuration::from_nanos(25),
        }
    }

    /// Nominal transfer rate in MT/s (SDR modes expressed as 1/cycle).
    pub fn mts(self) -> u32 {
        match self {
            DataInterface::Sdr { mode } => (1_000 / Self::SDR_CYCLE_NS[mode as usize % 6]) as u32,
            DataInterface::NvDdr2 { mts } => mts,
        }
    }
}

/// The set of ONFI timing parameters the reproduction honours.
///
/// All values are *minimum* waits unless noted. The μFSM implementations in
/// `babol-ufsm` consume these when sizing the waveform segments they emit;
/// the flash LUN model in `babol-flash` uses them to validate that incoming
/// waveforms respect the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// CE# setup before the first latch of a segment.
    pub t_cs: SimDuration,
    /// CE# hold after the last latch of a segment.
    pub t_ch: SimDuration,
    /// CLE/ALE setup before the WE# edge (NV-DDR2 tCALS).
    pub t_cals: SimDuration,
    /// CLE/ALE hold after the WE# edge (tCALH).
    pub t_calh: SimDuration,
    /// WE# high to R/B# low: the package's reaction time after a
    /// confirmation command (tWB, a *maximum*).
    pub t_wb: SimDuration,
    /// Address-cycle-to-data-loading wait inside SET FEATURES / PROGRAM
    /// (tADL).
    pub t_adl: SimDuration,
    /// Change-column setup: wait between a CHANGE READ/WRITE COLUMN and the
    /// first data cycle (tCCS).
    pub t_ccs: SimDuration,
    /// R/B# high to first RE# of data output (tRR).
    pub t_rr: SimDuration,
    /// Command (e.g. READ STATUS) to data-out turnaround (tWHR).
    pub t_whr: SimDuration,
    /// Data-out to next command turnaround (tRHW).
    pub t_rhw: SimDuration,
    /// DQS read preamble before a data-out burst (tRPRE).
    pub t_rpre: SimDuration,
    /// DQS read postamble after a data-out burst (tRPST).
    pub t_rpst: SimDuration,
    /// DQS write preamble before a data-in burst (tWPRE).
    pub t_wpre: SimDuration,
    /// DQS write postamble after a data-in burst (tWPST).
    pub t_wpst: SimDuration,
}

impl TimingParams {
    /// Timing set for the NV-DDR2 interface (any speed grade).
    pub const fn nv_ddr2() -> Self {
        TimingParams {
            t_cs: SimDuration::from_nanos(20),
            t_ch: SimDuration::from_nanos(5),
            t_cals: SimDuration::from_nanos(15),
            t_calh: SimDuration::from_nanos(5),
            t_wb: SimDuration::from_nanos(100),
            t_adl: SimDuration::from_nanos(150),
            t_ccs: SimDuration::from_nanos(300),
            t_rr: SimDuration::from_nanos(20),
            t_whr: SimDuration::from_nanos(80),
            t_rhw: SimDuration::from_nanos(100),
            t_rpre: SimDuration::from_nanos(15),
            t_rpst: SimDuration::from_nanos(8),
            t_wpre: SimDuration::from_nanos(15),
            t_wpst: SimDuration::from_nanos(8),
        }
    }

    /// Timing set for the legacy SDR interface (boot-time communication;
    /// longer, conservative waits).
    pub const fn sdr() -> Self {
        TimingParams {
            t_cs: SimDuration::from_nanos(35),
            t_ch: SimDuration::from_nanos(10),
            t_cals: SimDuration::from_nanos(25),
            t_calh: SimDuration::from_nanos(10),
            t_wb: SimDuration::from_nanos(200),
            t_adl: SimDuration::from_nanos(400),
            t_ccs: SimDuration::from_nanos(500),
            t_rr: SimDuration::from_nanos(40),
            t_whr: SimDuration::from_nanos(120),
            t_rhw: SimDuration::from_nanos(200),
            t_rpre: SimDuration::ZERO,
            t_rpst: SimDuration::ZERO,
            t_wpre: SimDuration::ZERO,
            t_wpst: SimDuration::ZERO,
        }
    }

    /// Duration of a command/address latch segment of `n` latch cycles,
    /// including CE#/CLE/ALE setup and hold (the shaded region of the
    /// paper's Figure 2).
    pub fn ca_segment(&self, iface: DataInterface, n: usize) -> SimDuration {
        self.t_cs + self.t_cals + iface.ca_cycle() * n as u64 + self.t_calh + self.t_ch
    }

    /// Duration of a data burst of `bytes` bytes including DQS preamble and
    /// postamble, in the read direction.
    pub fn data_out_burst(&self, iface: DataInterface, bytes: usize) -> SimDuration {
        self.t_rpre + iface.data_cycle() * bytes as u64 + self.t_rpst
    }

    /// Duration of a data burst of `bytes` bytes including DQS preamble and
    /// postamble, in the write direction.
    pub fn data_in_burst(&self, iface: DataInterface, bytes: usize) -> SimDuration {
        self.t_wpre + iface.data_cycle() * bytes as u64 + self.t_wpst
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::nv_ddr2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nv_ddr2_data_cycles() {
        assert_eq!(
            DataInterface::NvDdr2 { mts: 200 }.data_cycle(),
            SimDuration::from_picos(5_000)
        );
        assert_eq!(
            DataInterface::NvDdr2 { mts: 100 }.data_cycle(),
            SimDuration::from_picos(10_000)
        );
    }

    #[test]
    fn sdr_modes_monotonically_faster() {
        let mut prev = SimDuration::from_secs(1);
        for mode in 0..6 {
            let c = DataInterface::Sdr { mode }.data_cycle();
            assert!(c < prev, "mode {mode}");
            prev = c;
        }
    }

    #[test]
    fn raw_page_burst_time_matches_table1_scale() {
        // Table I: a 16384-byte page at 200 MT/s takes ~82 us of raw bus
        // time (the reported 100 us includes packetization overhead, modelled
        // in babol-ufsm).
        let t = TimingParams::nv_ddr2();
        let burst = t.data_out_burst(DataInterface::NvDdr2 { mts: 200 }, 16384);
        let us = burst.as_micros_f64();
        assert!((81.0..83.0).contains(&us), "burst {us} us");
    }

    #[test]
    fn ca_segment_scales_with_latches() {
        let t = TimingParams::nv_ddr2();
        let iface = DataInterface::NvDdr2 { mts: 200 };
        let one = t.ca_segment(iface, 1);
        let six = t.ca_segment(iface, 6);
        assert_eq!(six - one, iface.ca_cycle() * 5);
    }

    #[test]
    fn sdr_waits_are_longer_than_ddr() {
        let sdr = TimingParams::sdr();
        let ddr = TimingParams::nv_ddr2();
        assert!(sdr.t_adl > ddr.t_adl);
        assert!(sdr.t_ccs > ddr.t_ccs);
        assert!(sdr.t_wb > ddr.t_wb);
    }

    #[test]
    fn mts_reporting() {
        assert_eq!(DataInterface::NvDdr2 { mts: 200 }.mts(), 200);
        assert_eq!(DataInterface::Sdr { mode: 0 }.mts(), 10);
    }
}
