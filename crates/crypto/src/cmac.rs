//! AES-CMAC (RFC 4493 / NIST SP 800-38B).
//!
//! GuardNN's integrity-verification (IV) engine computes a MAC over each
//! data chunk written to DRAM together with its address and version number,
//! and checks it on every read. The prototype uses AES-based MACs so the
//! same pipelined AES cores serve both encryption and integrity; this module
//! is the functional model.
//!
//! One message's CBC chain is serial: each block's encryption needs the
//! previous one's output. [`Cmac::compute_parts`] runs the chain over a
//! message's whole blocks in one engine call, with the state held in a
//! register on the hardware rounds. [`Cmac::compute_lanes`] takes several
//! messages of one length in lockstep, so their independent chains
//! overlap in the AES pipeline. On CPUs with AES-NI the rounds run in
//! constant time; the table-round fallback keeps the cache-timing caveat
//! in [`crate::aes`].
//!
//! # Example
//!
//! ```
//! use guardnn_crypto::cmac::Cmac;
//!
//! let mac = Cmac::new(&[0u8; 16]).compute(b"chunk bytes");
//! assert_eq!(mac.len(), 16);
//! ```

use crate::aes::{xor_into, Aes128};

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

/// The total length of a message given as parts.
fn message_len(parts: &[&[u8]]) -> usize {
    parts.iter().map(|p| p.len()).sum()
}

/// Reads a message given as parts, front to back.
struct Reader<'a> {
    /// Parts not yet started.
    parts: &'a [&'a [u8]],
    /// The unread rest of the current part.
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(parts: &'a [&'a [u8]]) -> Self {
        Self { parts, rest: &[] }
    }

    /// The unread rest of the current part, moving past finished parts;
    /// empty only at the end of the message.
    fn current(&mut self) -> &'a [u8] {
        while self.rest.is_empty() {
            let Some((first, more)) = self.parts.split_first() else {
                break;
            };
            (self.rest, self.parts) = (first, more);
        }
        self.rest
    }

    /// Takes the next `n` bytes, all from the current part.
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, tail) = self.current().split_at(n);
        self.rest = tail;
        head
    }

    /// Copies the next `out.len()` bytes, across parts.
    fn fill(&mut self, out: &mut [u8]) {
        let mut filled = 0;
        while filled < out.len() {
            let n = self.current().len().min(out.len() - filled);
            if n == 0 {
                break;
            }
            out[filled..filled + n].copy_from_slice(self.take(n));
            filled += n;
        }
    }
}

impl Cmac {
    /// Creates a CMAC instance for the given AES-128 key.
    pub fn new(key: &[u8; 16]) -> Self {
        Self::from_cipher(Aes128::new(key))
    }

    /// A CMAC instance over an expanded key; derives the subkeys.
    fn from_cipher(cipher: Aes128) -> Self {
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
        let [tag] = self.compute_lanes([parts]);
        tag
    }

    /// Computes the CMAC tags of `N` messages of equal length, each given
    /// as parts as in [`Cmac::compute_parts`], in lockstep: the engine
    /// interleaves the `N` chains block by block. The tags and the
    /// `crypto.*` counts equal those of `N` [`Cmac::compute_parts`] calls.
    ///
    /// # Panics
    ///
    /// Panics unless every message has the same length.
    ///
    /// ```
    /// use guardnn_crypto::cmac::Cmac;
    ///
    /// let cmac = Cmac::new(&[5u8; 16]);
    /// let [a, b] = cmac.compute_lanes([&[b"chunk A", b"!"], &[b"chunk B!"]]);
    /// assert_eq!(a, cmac.compute(b"chunk A!"));
    /// assert_eq!(b, cmac.compute(b"chunk B!"));
    /// ```
    pub fn compute_lanes<const N: usize>(&self, messages: [&[&[u8]]; N]) -> [[u8; 16]; N] {
        let len = messages.first().map_or(0, |parts| message_len(parts));
        assert!(
            messages.iter().all(|parts| message_len(parts) == len),
            "CMAC lanes must have equal lengths"
        );
        // Every block but the last is chained as it is. The last one (1 to
        // 16 bytes, none for the empty message) is padded and masked first.
        let chained = len.saturating_sub(1) / 16;
        let mut readers = messages.map(Reader::new);
        let mut x = [[0u8; 16]; N];
        let mut done = 0;
        while done < chained {
            // The whole blocks every lane has left in its current part.
            let run = readers
                .iter_mut()
                .map(|r| r.current().len() / 16)
                .min()
                .unwrap_or(0)
                .min(chained - done);
            if run > 0 {
                let runs = core::array::from_fn(|i| readers[i].take(16 * run));
                self.cipher.cbc_lanes(&mut x, runs);
                done += run;
            } else {
                // A block that straddles parts in some lane.
                let blocks: [[u8; 16]; N] = core::array::from_fn(|i| {
                    let mut block = [0u8; 16];
                    readers[i].fill(&mut block);
                    block
                });
                self.cipher
                    .cbc_lanes(&mut x, blocks.each_ref().map(|b| b.as_slice()));
                done += 1;
            }
        }
        let tail = len - 16 * chained;
        let subkey = if tail == 16 { &self.k1 } else { &self.k2 };
        let last: [[u8; 16]; N] = core::array::from_fn(|i| {
            let mut block = [0u8; 16];
            readers[i].fill(&mut block[..tail]);
            if tail < 16 {
                block[tail] = 0x80;
            }
            xor_into(&mut block, subkey);
            block
        });
        self.cipher
            .cbc_lanes(&mut x, last.each_ref().map(|b| b.as_slice()));
        let rec = guardnn_obs::Recorder::global();
        rec.add("crypto.cmac_tags", N as u64);
        rec.add("crypto.aes_blocks", (N * (chained + 1)) as u64);
        x
    }

    /// Verifies a tag in constant time.
    pub fn verify(&self, message: &[u8], tag: &[u8; 16]) -> bool {
        crate::ct_eq(&self.compute(message), tag)
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

    /// CMAC on the engine [`Aes128::new`] picks and on the table rounds.
    fn both_engines(key: &[u8; 16]) -> [Cmac; 2] {
        [
            Cmac::new(key),
            Cmac::from_cipher(Aes128::with_table_rounds(key)),
        ]
    }

    /// The RFC 4493 tag of the first `len` bytes of [`msg64`], on both
    /// engines and as a one-lane and a four-lane computation.
    fn assert_rfc4493(len: usize, expected: [u8; 16]) {
        let msg = msg64();
        for cmac in both_engines(&KEY) {
            assert_eq!(cmac.compute(&msg[..len]), expected);
            let parts: &[&[u8]] = &[&msg[..len]];
            assert_eq!(cmac.compute_lanes([parts; 4]), [expected; 4]);
        }
    }

    /// RFC 4493 example 1: empty message.
    #[test]
    fn rfc4493_empty() {
        assert_rfc4493(
            0,
            [
                0xbb, 0x1d, 0x69, 0x29, 0xe9, 0x59, 0x37, 0x28, 0x7f, 0xa3, 0x7d, 0x12, 0x9b, 0x75,
                0x67, 0x46,
            ],
        );
    }

    /// RFC 4493 example 2: 16-byte message.
    #[test]
    fn rfc4493_one_block() {
        assert_rfc4493(
            16,
            [
                0x07, 0x0a, 0x16, 0xb4, 0x6b, 0x4d, 0x41, 0x44, 0xf7, 0x9b, 0xdd, 0x9d, 0xd0, 0x4a,
                0x28, 0x7c,
            ],
        );
    }

    /// RFC 4493 example 3: 40-byte message (partial last block).
    #[test]
    fn rfc4493_partial_block() {
        assert_rfc4493(
            40,
            [
                0xdf, 0xa6, 0x67, 0x47, 0xde, 0x9a, 0xe6, 0x30, 0x30, 0xca, 0x32, 0x61, 0x14, 0x97,
                0xc8, 0x27,
            ],
        );
    }

    /// RFC 4493 example 4: 64-byte message.
    #[test]
    fn rfc4493_four_blocks() {
        assert_rfc4493(
            64,
            [
                0x51, 0xf0, 0xbe, 0xbf, 0x7e, 0x3b, 0x9d, 0x92, 0xfc, 0x49, 0x74, 0x17, 0x79, 0x36,
                0x3c, 0xfe,
            ],
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

    /// Four lanes, each split into parts at its own points, against four
    /// `compute_parts` calls and the table rounds.
    #[test]
    fn lanes_match_compute_parts() {
        let [cmac, table] = both_engines(&KEY);
        let msgs: Vec<Vec<u8>> = (0..4u8)
            .map(|lane| {
                (0..600u16)
                    .map(|i| (i as u8).wrapping_mul(31) ^ lane)
                    .collect()
            })
            .collect();
        for len in [0, 1, 15, 16, 17, 31, 32, 33, 100, 512, 528, 600] {
            for split in [0, 1, 16, 17, 250] {
                // Lane i splits at `split + 5 * i`, so the lanes' part
                // boundaries differ while their lengths agree.
                let cuts: [[usize; 2]; 4] = core::array::from_fn(|i| {
                    let a = (split + 5 * i).min(len);
                    [a, (a + 16 * i + 3).min(len)]
                });
                let parts: [[&[u8]; 3]; 4] = core::array::from_fn(|i| {
                    let [a, b] = cuts[i];
                    [&msgs[i][..a], &msgs[i][a..b], &msgs[i][b..len]]
                });
                let lanes = parts.each_ref().map(|p| p.as_slice());
                let expected: [[u8; 16]; 4] =
                    core::array::from_fn(|i| table.compute(&msgs[i][..len]));
                assert_eq!(
                    cmac.compute_lanes(lanes),
                    expected,
                    "len {len} split {split}"
                );
                assert_eq!(
                    table.compute_lanes(lanes),
                    expected,
                    "len {len} split {split}"
                );
                for (lane, tag) in lanes.iter().zip(expected) {
                    assert_eq!(cmac.compute_parts(lane), tag);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn lanes_of_unequal_length_panic() {
        let _ = Cmac::new(&KEY).compute_lanes([&[b"ab".as_slice()], &[b"abc".as_slice()]]);
    }

    #[test]
    fn different_keys_different_tags() {
        let a = Cmac::new(&[0u8; 16]).compute(b"x");
        let b = Cmac::new(&[1u8; 16]).compute(b"x");
        assert_ne!(a, b);
    }
}
