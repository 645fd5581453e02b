//! AES-CMAC (RFC 4493 / NIST SP 800-38B).
//!
//! GuardNN's integrity-verification (IV) engine computes a MAC over each
//! data chunk written to DRAM together with its address and version number,
//! and checks it on every read. The prototype uses AES-based MACs so the
//! same pipelined AES cores serve both encryption and integrity; this module
//! is the functional model.
//!
//! # Example
//!
//! ```
//! use guardnn_crypto::cmac::Cmac;
//!
//! let mac = Cmac::new(&[0u8; 16]).compute(b"chunk bytes");
//! assert_eq!(mac.len(), 16);
//! ```

use crate::aes::Aes128;

/// An AES-CMAC instance with precomputed subkeys.
#[derive(Clone)]
pub struct Cmac {
    cipher: Aes128,
    k1: [u8; 16],
    k2: [u8; 16],
}

impl std::fmt::Debug for Cmac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cmac")
            .field("subkeys", &"<redacted>")
            .finish()
    }
}

/// Doubles a 128-bit value in GF(2^128) (left shift, conditional xor 0x87).
fn dbl(block: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    let mut carry = 0u8;
    for i in (0..16).rev() {
        out[i] = (block[i] << 1) | carry;
        carry = block[i] >> 7;
    }
    if carry != 0 {
        out[15] ^= 0x87;
    }
    out
}

impl Cmac {
    /// Creates a CMAC instance for the given AES-128 key.
    pub fn new(key: &[u8; 16]) -> Self {
        let cipher = Aes128::new(key);
        let l = cipher.encrypt_block(&[0u8; 16]);
        let k1 = dbl(&l);
        let k2 = dbl(&k1);
        Self { cipher, k1, k2 }
    }

    /// Computes the 16-byte CMAC tag of `message`.
    pub fn compute(&self, message: &[u8]) -> [u8; 16] {
        self.compute_parts(&[message])
    }

    /// Computes the CMAC tag of the concatenation of `parts`, without
    /// building the concatenated message.
    ///
    /// ```
    /// use guardnn_crypto::cmac::Cmac;
    ///
    /// let cmac = Cmac::new(&[5u8; 16]);
    /// let tag = cmac.compute_parts(&[b"ciphertext", &7u64.to_be_bytes()]);
    /// assert_eq!(tag, cmac.compute(b"ciphertext\0\0\0\0\0\0\0\x07"));
    /// ```
    pub fn compute_parts(&self, parts: &[&[u8]]) -> [u8; 16] {
        let mut x = [0u8; 16];
        // Pending message bytes. A full buffer is only chained once more
        // input follows, because the final block is masked with a subkey.
        let mut buf = [0u8; 16];
        let mut fill = 0usize;
        let mut blocks = 1u64;
        for part in parts {
            let mut rest: &[u8] = part;
            while !rest.is_empty() {
                if fill == 16 {
                    xor_into(&mut x, &buf);
                    x = self.cipher.encrypt_uncounted(&x);
                    blocks += 1;
                    fill = 0;
                }
                if fill == 0 {
                    while rest.len() > 16 {
                        let (block, tail) = rest.split_at(16);
                        xor_into(&mut x, block);
                        x = self.cipher.encrypt_uncounted(&x);
                        blocks += 1;
                        rest = tail;
                    }
                }
                let take = rest.len().min(16 - fill);
                buf[fill..fill + take].copy_from_slice(&rest[..take]);
                fill += take;
                rest = &rest[take..];
            }
        }
        let subkey = if fill == 16 {
            &self.k1
        } else {
            buf[fill] = 0x80;
            buf[fill + 1..].fill(0);
            &self.k2
        };
        xor_into(&mut buf, subkey);
        xor_into(&mut x, &buf);
        let rec = guardnn_obs::Recorder::global();
        rec.add("crypto.cmac_tags", 1);
        rec.add("crypto.aes_blocks", blocks);
        self.cipher.encrypt_uncounted(&x)
    }

    /// Verifies a tag in constant time.
    pub fn verify(&self, message: &[u8], tag: &[u8; 16]) -> bool {
        crate::ct_eq(&self.compute(message), tag)
    }
}

/// `x ^= block` for a 16-byte block.
fn xor_into(x: &mut [u8; 16], block: &[u8]) {
    for (xb, b) in x.iter_mut().zip(block) {
        *xb ^= b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    fn msg64() -> Vec<u8> {
        vec![
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac,
            0x45, 0xaf, 0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb,
            0xc1, 0x19, 0x1a, 0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17,
            0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c, 0x37, 0x10,
        ]
    }

    /// RFC 4493 example 1: empty message.
    #[test]
    fn rfc4493_empty() {
        let tag = Cmac::new(&KEY).compute(b"");
        assert_eq!(
            tag,
            [
                0xbb, 0x1d, 0x69, 0x29, 0xe9, 0x59, 0x37, 0x28, 0x7f, 0xa3, 0x7d, 0x12, 0x9b, 0x75,
                0x67, 0x46
            ]
        );
    }

    /// RFC 4493 example 2: 16-byte message.
    #[test]
    fn rfc4493_one_block() {
        let tag = Cmac::new(&KEY).compute(&msg64()[..16]);
        assert_eq!(
            tag,
            [
                0x07, 0x0a, 0x16, 0xb4, 0x6b, 0x4d, 0x41, 0x44, 0xf7, 0x9b, 0xdd, 0x9d, 0xd0, 0x4a,
                0x28, 0x7c
            ]
        );
    }

    /// RFC 4493 example 3: 40-byte message (partial last block).
    #[test]
    fn rfc4493_partial_block() {
        let tag = Cmac::new(&KEY).compute(&msg64()[..40]);
        assert_eq!(
            tag,
            [
                0xdf, 0xa6, 0x67, 0x47, 0xde, 0x9a, 0xe6, 0x30, 0x30, 0xca, 0x32, 0x61, 0x14, 0x97,
                0xc8, 0x27
            ]
        );
    }

    /// RFC 4493 example 4: 64-byte message.
    #[test]
    fn rfc4493_four_blocks() {
        let tag = Cmac::new(&KEY).compute(&msg64());
        assert_eq!(
            tag,
            [
                0x51, 0xf0, 0xbe, 0xbf, 0x7e, 0x3b, 0x9d, 0x92, 0xfc, 0x49, 0x74, 0x17, 0x79, 0x36,
                0x3c, 0xfe
            ]
        );
    }

    #[test]
    fn verify_detects_tamper() {
        let cmac = Cmac::new(&KEY);
        let msg = b"512-byte accelerator chunk stand-in";
        let tag = cmac.compute(msg);
        assert!(cmac.verify(msg, &tag));
        let mut bad = *msg;
        bad[0] ^= 1;
        assert!(!cmac.verify(&bad, &tag));
        let mut bad_tag = tag;
        bad_tag[15] ^= 0x80;
        assert!(!cmac.verify(msg, &bad_tag));
    }

    #[test]
    fn parts_equal_the_concatenated_message() {
        let cmac = Cmac::new(&KEY);
        let msg: Vec<u8> = (0..200u8).map(|i| i.wrapping_mul(37)).collect();
        for len in [0, 1, 15, 16, 17, 32, 40, 64, 200] {
            let msg = &msg[..len];
            let whole = cmac.compute(msg);
            for a in 0..=len.min(48) {
                for b in a..=len.min(a + 33) {
                    let parts: [&[u8]; 4] = [&msg[..a], &[], &msg[a..b], &msg[b..]];
                    assert_eq!(cmac.compute_parts(&parts), whole, "len {len} split {a}/{b}");
                }
            }
        }
    }

    #[test]
    fn different_keys_different_tags() {
        let a = Cmac::new(&[0u8; 16]).compute(b"x");
        let b = Cmac::new(&[1u8; 16]).compute(b"x");
        assert_ne!(a, b);
    }
}
