//! Error-correction coding for the flash read path.
//!
//! "Flash packages are a faulty media. ECC techniques are necessary to
//! identify and fix some of the errors" (paper §II). The paper treats ECC as
//! a standard SSD component with accessible hardware implementations (BCH
//! \[7\], LDPC \[12\]); this crate provides the software equivalent so the
//! reproduction's end-to-end read path is realistic and the error-injection
//! experiments have something to exercise:
//!
//! * [`gf`] — arithmetic over GF(2^13) with log/antilog tables.
//! * [`bch`] — a binary BCH encoder/decoder (syndromes, Berlekamp–Massey,
//!   Chien search), the workhorse code of mid-generation SSD controllers.
//! * [`PageCodec`] — sector-based page protection: splits a flash page into
//!   sectors, stores BCH parity in the spare area, corrects on read.

pub mod bch;
pub mod gf;

use std::fmt;

use bch::Bch;

/// Result of decoding a protected page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageVerdict {
    /// No errors were present.
    Clean,
    /// Errors were present and corrected; the count is returned.
    Corrected(u32),
    /// At least one sector had more errors than the code can correct.
    Uncorrectable,
}

/// Errors from the page codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The supplied buffers do not match the configured geometry.
    GeometryMismatch {
        /// What was supplied.
        got: usize,
        /// What the codec expected.
        want: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::GeometryMismatch { got, want } => {
                write!(f, "buffer of {got} bytes where {want} expected")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Sector-based BCH protection for a full flash page.
///
/// A 16 KiB page is split into 512-byte sectors, each protected by a
/// BCH(t) code whose parity lives in the spare area — the standard layout
/// of NAND controllers.
///
/// # Examples
///
/// ```
/// use babol_ecc::{PageCodec, PageVerdict};
///
/// let codec = PageCodec::new(2048, 512, 8);
/// let mut page = vec![0xA5u8; 2048];
/// let parity = codec.encode(&page).unwrap();
///
/// // Flip a few bits, then correct them.
/// page[17] ^= 0x81;
/// page[900] ^= 0x01;
/// let verdict = codec.decode(&mut page, &parity).unwrap();
/// assert_eq!(verdict, PageVerdict::Corrected(3));
/// assert_eq!(page[17], 0xA5);
/// ```
#[derive(Debug, Clone)]
pub struct PageCodec {
    page_size: usize,
    sector_size: usize,
    bch: Bch,
}

impl PageCodec {
    /// Creates a codec for `page_size`-byte pages split into
    /// `sector_size`-byte sectors, each correcting up to `t` bit errors.
    ///
    /// # Panics
    ///
    /// Panics if the page is not a whole number of sectors, or the sector
    /// does not fit the BCH code length.
    pub fn new(page_size: usize, sector_size: usize, t: u32) -> Self {
        assert!(
            page_size % sector_size == 0,
            "page must be a whole number of sectors"
        );
        PageCodec {
            page_size,
            sector_size,
            bch: Bch::new(sector_size * 8, t),
        }
    }

    /// The codec for the paper's 16 KiB pages: 32 sectors of 512 bytes,
    /// 8-bit-correcting BCH.
    pub fn paper_16k() -> Self {
        PageCodec::new(16384, 512, 8)
    }

    /// Bytes of parity per page.
    pub fn parity_len(&self) -> usize {
        self.sectors() * self.bch.parity_bytes()
    }

    /// Number of sectors per page.
    pub fn sectors(&self) -> usize {
        self.page_size / self.sector_size
    }

    /// Maximum correctable bit errors per sector.
    pub fn t(&self) -> u32 {
        self.bch.t()
    }

    /// Computes the parity block for a page.
    pub fn encode(&self, page: &[u8]) -> Result<Vec<u8>, CodecError> {
        if page.len() != self.page_size {
            return Err(CodecError::GeometryMismatch {
                got: page.len(),
                want: self.page_size,
            });
        }
        let mut parity = Vec::with_capacity(self.parity_len());
        for sector in page.chunks(self.sector_size) {
            parity.extend_from_slice(&self.bch.encode(sector));
        }
        Ok(parity)
    }

    /// Corrects `page` in place using `parity`; reports what happened.
    pub fn decode(&self, page: &mut [u8], parity: &[u8]) -> Result<PageVerdict, CodecError> {
        if page.len() != self.page_size {
            return Err(CodecError::GeometryMismatch {
                got: page.len(),
                want: self.page_size,
            });
        }
        if parity.len() != self.parity_len() {
            return Err(CodecError::GeometryMismatch {
                got: parity.len(),
                want: self.parity_len(),
            });
        }
        let pb = self.bch.parity_bytes();
        let mut corrected = 0u32;
        let mut uncorrectable = false;
        for (i, sector) in page.chunks_mut(self.sector_size).enumerate() {
            match self.bch.decode(sector, &parity[i * pb..(i + 1) * pb]) {
                Some(n) => corrected += n,
                None => uncorrectable = true,
            }
        }
        Ok(if uncorrectable {
            PageVerdict::Uncorrectable
        } else if corrected == 0 {
            PageVerdict::Clean
        } else {
            PageVerdict::Corrected(corrected)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use babol_testkit::rng::{Rng, Xoshiro256pp};

    #[test]
    fn clean_page_decodes_clean() {
        let codec = PageCodec::new(1024, 512, 4);
        let page = vec![0x3Cu8; 1024];
        let parity = codec.encode(&page).unwrap();
        let mut copy = page.clone();
        assert_eq!(
            codec.decode(&mut copy, &parity).unwrap(),
            PageVerdict::Clean
        );
        assert_eq!(copy, page);
    }

    #[test]
    fn corrects_up_to_t_per_sector() {
        let codec = PageCodec::new(1024, 512, 4);
        let mut rng = Xoshiro256pp::new(7);
        let mut page = vec![0u8; 1024];
        rng.fill_bytes(&mut page);
        let parity = codec.encode(&page).unwrap();
        let mut corrupted = page.clone();
        // 4 errors in sector 0, 3 in sector 1.
        for bit in [5usize, 100, 2000, 4000] {
            corrupted[bit / 8] ^= 1 << (bit % 8);
        }
        for bit in [4096 + 9, 4096 + 777, 8191] {
            corrupted[bit / 8] ^= 1 << (bit % 8);
        }
        let v = codec.decode(&mut corrupted, &parity).unwrap();
        assert_eq!(v, PageVerdict::Corrected(7));
        assert_eq!(corrupted, page);
    }

    #[test]
    fn too_many_errors_is_uncorrectable() {
        let codec = PageCodec::new(512, 512, 2);
        let page = vec![0u8; 512];
        let parity = codec.encode(&page).unwrap();
        let mut corrupted = page.clone();
        for bit in [1usize, 50, 300, 1000, 2222] {
            corrupted[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(
            codec.decode(&mut corrupted, &parity).unwrap(),
            PageVerdict::Uncorrectable
        );
    }

    #[test]
    fn geometry_mismatches_are_reported() {
        let codec = PageCodec::new(1024, 512, 4);
        assert!(matches!(
            codec.encode(&[0u8; 100]),
            Err(CodecError::GeometryMismatch {
                got: 100,
                want: 1024
            })
        ));
        let mut page = vec![0u8; 1024];
        assert!(codec.decode(&mut page, &[0u8; 3]).is_err());
    }

    #[test]
    fn random_fuzz_roundtrip() {
        let codec = PageCodec::new(2048, 512, 8);
        let mut rng = Xoshiro256pp::new(99);
        for round in 0..10 {
            let mut page = vec![0u8; 2048];
            rng.fill_bytes(&mut page);
            let parity = codec.encode(&page).unwrap();
            let mut corrupted = page.clone();
            // Up to 8 errors in one random sector.
            let sector = rng.gen_range(0..4usize);
            let nerr = rng.gen_range_incl(0..=8u32);
            let mut bits = std::collections::BTreeSet::new();
            while bits.len() < nerr as usize {
                bits.insert(rng.gen_range(0..4096usize));
            }
            for b in &bits {
                let bit = sector * 4096 + b;
                corrupted[bit / 8] ^= 1 << (bit % 8);
            }
            let v = codec.decode(&mut corrupted, &parity).unwrap();
            assert_eq!(corrupted, page, "round {round}");
            match v {
                PageVerdict::Clean => assert_eq!(nerr, 0),
                PageVerdict::Corrected(n) => assert_eq!(n, nerr),
                PageVerdict::Uncorrectable => panic!("round {round} uncorrectable"),
            }
        }
    }

    #[test]
    fn paper_codec_geometry() {
        let codec = PageCodec::paper_16k();
        assert_eq!(codec.sectors(), 32);
        assert_eq!(codec.t(), 8);
        // Parity must fit the paper packages' 1872-byte spare area.
        assert!(codec.parity_len() <= 1872, "parity {}", codec.parity_len());
    }
}
