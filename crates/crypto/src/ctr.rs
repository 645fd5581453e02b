//! AES counter mode with the GuardNN counter-block layout.
//!
//! GuardNN encrypts each 128-bit DRAM block with AES-CTR where the counter
//! block is the concatenation of the block's physical address and a 64-bit
//! version number (VN). Security requires every (address, VN) pair to be
//! used at most once per key — the accelerator guarantees this by deriving
//! VNs from monotonic on-chip counters (see `guardnn-memprot`).
//!
//! # Example
//!
//! ```
//! use guardnn_crypto::ctr::{AesCtr, CounterBlock};
//!
//! let ctr = AesCtr::new(&[0u8; 16]);
//! let mut data = *b"sixteen byte msg";
//! ctr.apply(CounterBlock::new(0x1000, 7), &mut data);
//! ctr.apply(CounterBlock::new(0x1000, 7), &mut data); // XOR twice = identity
//! assert_eq!(&data, b"sixteen byte msg");
//! ```

use crate::aes::Aes128;

/// The 128-bit counter block for one 16-byte memory block:
/// `[ physical block address (64) ‖ version number (64) ]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CounterBlock {
    /// Physical address of the 16-byte block (byte address, must be 16-byte
    /// aligned in the protection engines).
    pub address: u64,
    /// Version number, incremented by the protection engine on each write.
    pub version: u64,
}

impl CounterBlock {
    /// Creates a counter block for `address` at `version`.
    pub fn new(address: u64, version: u64) -> Self {
        Self { address, version }
    }

    /// Serializes as the AES input block.
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.address.to_be_bytes());
        out[8..].copy_from_slice(&self.version.to_be_bytes());
        out
    }
}

/// An AES-CTR pad generator bound to one memory-encryption key.
#[derive(Clone)]
pub struct AesCtr {
    cipher: Aes128,
}

impl std::fmt::Debug for AesCtr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AesCtr")
            .field("key", &"<redacted>")
            .finish()
    }
}

impl AesCtr {
    /// Creates a CTR instance for the memory-encryption key `key`.
    pub fn new(key: &[u8; 16]) -> Self {
        Self {
            cipher: Aes128::new(key),
        }
    }

    /// Produces the 16-byte keystream pad for one counter block.
    pub fn pad(&self, counter: CounterBlock) -> [u8; 16] {
        self.cipher.encrypt_block(&counter.to_bytes())
    }

    /// XORs the pad for `counter` into `block` (encrypts or decrypts a
    /// single 16-byte block; CTR is an involution).
    ///
    /// # Panics
    ///
    /// Panics if `block.len() > 16`.
    pub fn apply(&self, counter: CounterBlock, block: &mut [u8]) {
        assert!(block.len() <= 16, "one counter covers at most 16 bytes");
        let pad = self.pad(counter);
        for (b, p) in block.iter_mut().zip(pad.iter()) {
            *b ^= p;
        }
    }

    /// Encrypts or decrypts a buffer that starts at byte address
    /// `base_address` under version `version`, advancing the block address
    /// by 16 for each 16-byte block, as the memory-protection engine does
    /// for a burst. The whole range counts its blocks in one
    /// `crypto.aes_blocks` update.
    pub fn apply_range(&self, base_address: u64, version: u64, data: &mut [u8]) {
        guardnn_obs::Recorder::global().add("crypto.aes_blocks", data.len().div_ceil(16) as u64);
        for (i, chunk) in data.chunks_mut(16).enumerate() {
            let counter = CounterBlock::new(base_address + 16 * i as u64, version);
            let pad = self.cipher.encrypt_uncounted(&counter.to_bytes());
            for (b, p) in chunk.iter_mut().zip(pad) {
                *b ^= p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn involution() {
        let ctr = AesCtr::new(&[0x42; 16]);
        let original = *b"guardnn ctr test";
        let mut data = original;
        ctr.apply(CounterBlock::new(0x8000, 3), &mut data);
        assert_ne!(data, original);
        ctr.apply(CounterBlock::new(0x8000, 3), &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn distinct_versions_distinct_pads() {
        let ctr = AesCtr::new(&[0x42; 16]);
        let p1 = ctr.pad(CounterBlock::new(0x1000, 1));
        let p2 = ctr.pad(CounterBlock::new(0x1000, 2));
        assert_ne!(p1, p2, "pad must change when the version changes");
    }

    #[test]
    fn distinct_addresses_distinct_pads() {
        let ctr = AesCtr::new(&[0x42; 16]);
        let p1 = ctr.pad(CounterBlock::new(0x1000, 1));
        let p2 = ctr.pad(CounterBlock::new(0x1010, 1));
        assert_ne!(p1, p2, "pad must change when the address changes");
    }

    #[test]
    fn apply_range_block_addressing() {
        let ctr = AesCtr::new(&[7; 16]);
        let mut long = [0xA5u8; 48];
        ctr.apply_range(0x2000, 9, &mut long);
        // Decrypt each 16-byte block individually at its own address.
        for (i, chunk) in long.chunks_mut(16).enumerate() {
            ctr.apply(CounterBlock::new(0x2000 + 16 * i as u64, 9), chunk);
        }
        assert_eq!(long, [0xA5u8; 48]);
    }

    #[test]
    fn counter_block_layout() {
        let cb = CounterBlock::new(0x0102_0304_0506_0708, 0x0A0B_0C0D_0E0F_1011);
        let bytes = cb.to_bytes();
        assert_eq!(&bytes[..8], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(
            &bytes[8..],
            &[0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F, 0x10, 0x11]
        );
    }

    #[test]
    fn partial_block() {
        let ctr = AesCtr::new(&[3; 16]);
        let mut short = *b"abc";
        ctr.apply(CounterBlock::new(0, 0), &mut short);
        ctr.apply(CounterBlock::new(0, 0), &mut short);
        assert_eq!(&short, b"abc");
    }
}
