//! SET FEATURES / GET FEATURES addresses and parameter storage.
//!
//! ONFI's SET FEATURES operation (`0xEF` + feature address + 4 parameter
//! bytes after a tADL wait) reconfigures a package at runtime: its timing
//! mode, its data interface, and — crucially for the paper — vendor-specific
//! behaviours such as the read-retry voltage level used by READs with
//! retries (§IV-A, Timer μFSM discussion).

use std::collections::BTreeMap;
use std::fmt;

/// Well-known feature addresses.
#[allow(missing_docs)]
pub mod addr {
    /// Timing mode (ONFI standard).
    pub const TIMING_MODE: u8 = 0x01;
    /// NV-DDR2 configuration (warmup cycles, DQS settings).
    pub const NV_DDR2_CONFIG: u8 = 0x02;
    /// Output drive strength (ONFI standard).
    pub const DRIVE_STRENGTH: u8 = 0x10;
    /// Vendor: read-retry level register. Parameter byte 0 selects the
    /// retry voltage offset step (0 = default read level).
    pub const READ_RETRY_LEVEL: u8 = 0x89;
    /// Vendor: pseudo-SLC mode enable for subsequently addressed blocks.
    pub const PSLC_ENABLE: u8 = 0x91;
    /// Vendor: array operation suspend grant window configuration.
    pub const SUSPEND_CONFIG: u8 = 0x93;
}

/// The four parameter bytes carried by a SET/GET FEATURES operation.
pub type FeatureValue = [u8; 4];

/// A package's feature register file.
///
/// # Examples
///
/// ```
/// use babol_onfi::feature::{addr, FeatureSet};
///
/// let mut f = FeatureSet::new();
/// assert_eq!(f.get(addr::TIMING_MODE)[0], 0); // boots in mode 0
/// f.set(addr::TIMING_MODE, [5, 0, 0, 0]);
/// assert_eq!(f.get(addr::TIMING_MODE)[0], 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FeatureSet {
    values: BTreeMap<u8, FeatureValue>,
}

impl FeatureSet {
    /// Creates a feature set with ONFI boot defaults (all zeros: SDR timing
    /// mode 0, default read level, pSLC off).
    pub fn new() -> Self {
        FeatureSet::default()
    }

    /// Reads a feature; unset features report zeros, per ONFI.
    pub fn get(&self, feature: u8) -> FeatureValue {
        self.values.get(&feature).copied().unwrap_or([0; 4])
    }

    /// Writes a feature.
    pub fn set(&mut self, feature: u8, value: FeatureValue) {
        self.values.insert(feature, value);
    }

    /// Current read-retry level (vendor feature `0x89`, byte 0).
    pub fn read_retry_level(&self) -> u8 {
        self.get(addr::READ_RETRY_LEVEL)[0]
    }

    /// True if pSLC mode is currently latched (vendor feature `0x91`).
    pub fn pslc_enabled(&self) -> bool {
        self.get(addr::PSLC_ENABLE)[0] != 0
    }

    /// Resets all features to boot defaults (the effect of a RESET command).
    pub fn reset(&mut self) {
        self.values.clear();
    }
}

impl fmt::Display for FeatureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "features{{")?;
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k:#04x}={v:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let f = FeatureSet::new();
        assert_eq!(f.get(addr::TIMING_MODE), [0; 4]);
        assert_eq!(f.read_retry_level(), 0);
        assert!(!f.pslc_enabled());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut f = FeatureSet::new();
        f.set(addr::READ_RETRY_LEVEL, [3, 0, 0, 0]);
        assert_eq!(f.read_retry_level(), 3);
        f.set(addr::PSLC_ENABLE, [1, 0, 0, 0]);
        assert!(f.pslc_enabled());
    }

    #[test]
    fn reset_restores_defaults() {
        let mut f = FeatureSet::new();
        f.set(addr::TIMING_MODE, [4, 0, 0, 0]);
        f.reset();
        assert_eq!(f.get(addr::TIMING_MODE), [0; 4]);
    }

    #[test]
    fn overwrite_replaces() {
        let mut f = FeatureSet::new();
        f.set(addr::READ_RETRY_LEVEL, [1, 0, 0, 0]);
        f.set(addr::READ_RETRY_LEVEL, [2, 0, 0, 0]);
        assert_eq!(f.read_retry_level(), 2);
    }
}
