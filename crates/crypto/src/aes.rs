//! AES-128 block cipher (FIPS-197), implemented from scratch.
//!
//! GuardNN instantiates pipelined AES-128 engines next to the memory
//! controller for counter-mode encryption of all off-chip traffic. This
//! module is the functional model of one such engine.
//!
//! Encryption uses the 32-bit table form of the round (Daemen & Rijmen,
//! *The Design of Rijndael*, 2002): the state is four `u32` columns, and
//! each inner round computes a column as four lookups into one 256-entry
//! round table that fuses SubBytes with MixColumns. The other three byte
//! positions reuse the same table through rotations, ShiftRows is the
//! choice of source column, and the last round (no MixColumns) looks up
//! the S-box directly. The table is built from the S-box by a `const fn`.
//!
//! Like the byte-wise S-box lookups they replace, the table lookups are
//! indexed by secret state bytes. The round table is larger, though:
//! 1 KiB spans 16 cache lines where the 256-B S-box spans 4, so a
//! cache-timing observer learns more index bits per lookup. This is the
//! classic T-table attack surface (Osvik, Shamir & Tromer, CT-RSA 2006).
//! It is accepted here because this crate is a functional model of a
//! hardware engine, not a software AES for a shared host. The
//! constant-time alternative is fixslicing (Adomnicai & Peyrin,
//! "Fixslicing AES-like Ciphers", TCHES 2021). It gains only when several
//! independent blocks are encrypted at once, and half of the blocks the
//! serving path encrypts are CMAC, a serial chain, so it is not used.
//! Decryption keeps the byte-wise inverse rounds; only tests, docs and
//! benches call it.
//!
//! # Example
//!
//! ```
//! use guardnn_crypto::aes::Aes128;
//!
//! let cipher = Aes128::new(&[0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
//!                            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c]);
//! let ct = cipher.encrypt_block(b"\x32\x43\xf6\xa8\x88\x5a\x30\x8d\x31\x31\x98\xa2\xe0\x37\x07\x34");
//! assert_eq!(ct[0], 0x39);
//! ```

/// Number of rounds for AES-128.
const ROUNDS: usize = 10;

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The encryption round table: entry `x` is the MixColumns image of the
/// column `(S[x], 0, 0, 0)`, i.e. the bytes `(2·S[x], S[x], S[x], 3·S[x])`
/// packed big-endian (row 0 in the top byte). A byte in row `r` of a
/// column contributes `TE.rotate_right(8 * r)`.
static TE: [u32; 256] = round_table();

const fn round_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        table[i] = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        i += 1;
    }
    table
}

/// The inverse AES S-box (computed lazily from [`SBOX`]).
fn inv_sbox() -> &'static [u8; 256] {
    use std::sync::OnceLock;
    static INV: OnceLock<[u8; 256]> = OnceLock::new();
    INV.get_or_init(|| {
        let mut inv = [0u8; 256];
        for (i, &s) in SBOX.iter().enumerate() {
            inv[s as usize] = i as u8;
        }
        inv
    })
}

/// Multiply by x (i.e. {02}) in GF(2^8) with the AES polynomial.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// General GF(2^8) multiplication.
#[inline]
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// Byte `row` (0 = top) of a big-endian column word, as a table index.
#[inline(always)]
fn row_byte(col: u32, row: u32) -> usize {
    ((col >> (24 - 8 * row)) & 0xff) as usize
}

/// One inner-round output column (SubBytes, ShiftRows and MixColumns)
/// from the four state columns its rows are taken from.
#[inline(always)]
fn round_column(c0: u32, c1: u32, c2: u32, c3: u32) -> u32 {
    TE[row_byte(c0, 0)]
        ^ TE[row_byte(c1, 1)].rotate_right(8)
        ^ TE[row_byte(c2, 2)].rotate_right(16)
        ^ TE[row_byte(c3, 3)].rotate_right(24)
}

/// One last-round output column (SubBytes and ShiftRows only).
#[inline(always)]
fn final_column(c0: u32, c1: u32, c2: u32, c3: u32) -> u32 {
    u32::from_be_bytes([
        SBOX[row_byte(c0, 0)],
        SBOX[row_byte(c1, 1)],
        SBOX[row_byte(c2, 2)],
        SBOX[row_byte(c3, 3)],
    ])
}

/// Applies the S-box to each byte of a key-schedule word.
fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// An expanded AES-128 key schedule.
///
/// Construct once with [`Aes128::new`] and reuse for any number of block
/// operations; key expansion is the expensive step in hardware as well, which
/// is why GuardNN keeps the memory-encryption key (K_MEnc) resident in the
/// engine for a whole session.
#[derive(Clone)]
pub struct Aes128 {
    /// Round keys as big-endian column words: `round_keys[r][c]` is
    /// column `c` of round key `r`.
    round_keys: [[u32; 4]; ROUNDS + 1],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128")
            .field("round_keys", &"<redacted>")
            .finish()
    }
}

impl Aes128 {
    /// Expands `key` into the 11 round keys of AES-128.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 4 * (ROUNDS + 1)];
        for (i, word) in w.iter_mut().take(4).enumerate() {
            *word =
                u32::from_be_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        let mut rcon = 1u8;
        for i in 4..w.len() {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
                rcon = xtime(rcon);
            }
            w[i] = w[i - 4] ^ temp;
        }
        let mut round_keys = [[0u32; 4]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            rk.copy_from_slice(&w[4 * r..4 * r + 4]);
        }
        Self { round_keys }
    }

    /// Encrypts a single 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        guardnn_obs::Recorder::global().add("crypto.aes_blocks", 1);
        self.encrypt_uncounted(block)
    }

    /// [`Aes128::encrypt_block`] without the `crypto.aes_blocks` count:
    /// CTR and CMAC count a whole range or message in one call.
    pub(crate) fn encrypt_uncounted(&self, block: &[u8; 16]) -> [u8; 16] {
        let rk = &self.round_keys;
        let mut s: [u32; 4] = core::array::from_fn(|c| {
            u32::from_be_bytes([
                block[4 * c],
                block[4 * c + 1],
                block[4 * c + 2],
                block[4 * c + 3],
            ]) ^ rk[0][c]
        });
        for k in &rk[1..ROUNDS] {
            s = [
                round_column(s[0], s[1], s[2], s[3]) ^ k[0],
                round_column(s[1], s[2], s[3], s[0]) ^ k[1],
                round_column(s[2], s[3], s[0], s[1]) ^ k[2],
                round_column(s[3], s[0], s[1], s[2]) ^ k[3],
            ];
        }
        let k = &rk[ROUNDS];
        let cols = [
            final_column(s[0], s[1], s[2], s[3]) ^ k[0],
            final_column(s[1], s[2], s[3], s[0]) ^ k[1],
            final_column(s[2], s[3], s[0], s[1]) ^ k[2],
            final_column(s[3], s[0], s[1], s[2]) ^ k[3],
        ];
        let mut out = [0u8; 16];
        for (dst, col) in out.chunks_exact_mut(4).zip(cols) {
            dst.copy_from_slice(&col.to_be_bytes());
        }
        out
    }

    /// Round key `r` as 16 bytes in FIPS-197 column-major order.
    fn round_key_bytes(&self, r: usize) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (dst, col) in out.chunks_exact_mut(4).zip(self.round_keys[r]) {
            dst.copy_from_slice(&col.to_be_bytes());
        }
        out
    }

    /// Decrypts a single 16-byte block.
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        add_round_key(&mut state, &self.round_key_bytes(ROUNDS));
        inv_shift_rows(&mut state);
        inv_sub_bytes(&mut state);
        for round in (1..ROUNDS).rev() {
            add_round_key(&mut state, &self.round_key_bytes(round));
            inv_mix_columns(&mut state);
            inv_shift_rows(&mut state);
            inv_sub_bytes(&mut state);
        }
        add_round_key(&mut state, &self.round_key_bytes(0));
        state
    }
}

// Byte-wise state layout (decryption and the test reference):
// state[4*c + r] is row r, column c (column-major, as FIPS-197).

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    let inv = inv_sbox();
    for s in state.iter_mut() {
        *s = inv[*s as usize];
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    for r in 1..4 {
        let mut row = [0u8; 4];
        for c in 0..4 {
            row[(c + r) % 4] = state[4 * c + r];
        }
        for c in 0..4 {
            state[4 * c + r] = row[c];
        }
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = gf_mul(col[0], 0x0e)
            ^ gf_mul(col[1], 0x0b)
            ^ gf_mul(col[2], 0x0d)
            ^ gf_mul(col[3], 0x09);
        state[4 * c + 1] = gf_mul(col[0], 0x09)
            ^ gf_mul(col[1], 0x0e)
            ^ gf_mul(col[2], 0x0b)
            ^ gf_mul(col[3], 0x0d);
        state[4 * c + 2] = gf_mul(col[0], 0x0d)
            ^ gf_mul(col[1], 0x09)
            ^ gf_mul(col[2], 0x0e)
            ^ gf_mul(col[3], 0x0b);
        state[4 * c + 3] = gf_mul(col[0], 0x0b)
            ^ gf_mul(col[1], 0x0d)
            ^ gf_mul(col[2], 0x09)
            ^ gf_mul(col[3], 0x0e);
    }
}

/// The byte-wise encryption rounds the table form replaced, kept as the
/// differential reference.
#[cfg(test)]
mod bytewise {
    use super::{add_round_key, xtime, ROUNDS, SBOX};

    fn sub_bytes(state: &mut [u8; 16]) {
        for s in state.iter_mut() {
            *s = SBOX[*s as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let mut row = [0u8; 4];
            for c in 0..4 {
                row[c] = state[4 * ((c + r) % 4) + r];
            }
            for c in 0..4 {
                state[4 * c + r] = row[c];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
            state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }

    /// The byte-wise key expansion: 11 round keys in column-major order.
    pub(super) fn expand_key(key: &[u8; 16]) -> [[u8; 16]; ROUNDS + 1] {
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for i in 0..4 {
            w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        let mut rcon = 1u8;
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        round_keys
    }

    /// Byte-wise AES-128 encryption of `block` under `key`.
    pub(super) fn encrypt(key: &[u8; 16], block: &[u8; 16]) -> [u8; 16] {
        let round_keys = expand_key(key);
        let mut state = *block;
        add_round_key(&mut state, &round_keys[0]);
        for rk in &round_keys[1..ROUNDS] {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, rk);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &round_keys[ROUNDS]);
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::splitmix;

    /// FIPS-197 Appendix B example.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let cipher = Aes128::new(&key);
        assert_eq!(cipher.encrypt_block(&pt), expected);
        assert_eq!(cipher.decrypt_block(&expected), pt);
    }

    /// FIPS-197 Appendix C.1 example (sequential key/plaintext).
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let cipher = Aes128::new(&key);
        assert_eq!(cipher.encrypt_block(&pt), expected);
        assert_eq!(cipher.decrypt_block(&expected), pt);
    }

    /// NIST AESAVS KAT: GFSbox vectors (key = 0, varying plaintext).
    #[test]
    fn aesavs_gfsbox() {
        let cipher = Aes128::new(&[0u8; 16]);
        let cases: [(&str, &str); 3] = [
            (
                "f34481ec3cc627bacd5dc3fb08f273e6",
                "0336763e966d92595a567cc9ce537f5e",
            ),
            (
                "9798c4640bad75c7c3227db910174e72",
                "a9a1631bf4996954ebc093957b234589",
            ),
            (
                "96ab5c2ff612d9dfaae8c31f30c42168",
                "ff4f8391a6a40ca5b25d23bedd44a597",
            ),
        ];
        for (pt_hex, ct_hex) in cases {
            let pt: Vec<u8> = (0..16)
                .map(|i| u8::from_str_radix(&pt_hex[2 * i..2 * i + 2], 16).expect("hex"))
                .collect();
            let ct: Vec<u8> = (0..16)
                .map(|i| u8::from_str_radix(&ct_hex[2 * i..2 * i + 2], 16).expect("hex"))
                .collect();
            let pt: [u8; 16] = pt.try_into().expect("16 bytes");
            assert_eq!(cipher.encrypt_block(&pt).to_vec(), ct);
        }
    }

    /// NIST AESAVS KAT: VarKey vectors (plaintext = 0, varying key).
    #[test]
    fn aesavs_varkey() {
        let key1: [u8; 16] = {
            let mut k = [0u8; 16];
            k[0] = 0x80;
            k
        };
        let cipher = Aes128::new(&key1);
        let expected = [
            0x0e, 0xdd, 0x33, 0xd3, 0xc6, 0x21, 0xe5, 0x46, 0x45, 0x5b, 0xd8, 0xba, 0x14, 0x18,
            0xbe, 0xc8,
        ];
        assert_eq!(cipher.encrypt_block(&[0u8; 16]), expected);
    }

    #[test]
    fn round_trip_random_blocks() {
        let cipher = Aes128::new(&[0xA5; 16]);
        let mut block = [0u8; 16];
        for i in 0..64u32 {
            block[0..4].copy_from_slice(&i.to_le_bytes());
            let ct = cipher.encrypt_block(&block);
            assert_ne!(ct, block, "encryption must not be identity");
            assert_eq!(cipher.decrypt_block(&ct), block);
        }
    }

    #[test]
    fn distinct_keys_distinct_ciphertexts() {
        let a = Aes128::new(&[0x00; 16]);
        let b = Aes128::new(&[0x01; 16]);
        assert_ne!(a.encrypt_block(&[0u8; 16]), b.encrypt_block(&[0u8; 16]));
    }

    fn random_block(state: &mut u64) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&splitmix(state).to_le_bytes());
        b[8..].copy_from_slice(&splitmix(state).to_le_bytes());
        b
    }

    #[test]
    fn table_rounds_match_bytewise_reference() {
        let mut seed = 0x00A5_1CE5;
        for _ in 0..64 {
            let key = random_block(&mut seed);
            let cipher = Aes128::new(&key);
            for (r, expected) in bytewise::expand_key(&key).iter().enumerate() {
                assert_eq!(&cipher.round_key_bytes(r), expected, "round key {r}");
            }
            for _ in 0..32 {
                let block = random_block(&mut seed);
                let ct = cipher.encrypt_block(&block);
                assert_eq!(ct, bytewise::encrypt(&key, &block));
                assert_eq!(cipher.decrypt_block(&ct), block);
            }
        }
    }

    #[test]
    fn round_table_entries_are_mixed_sbox_columns() {
        for x in 0..=255u8 {
            let s = SBOX[x as usize];
            let expected = [gf_mul(s, 2), s, s, gf_mul(s, 3)];
            assert_eq!(TE[x as usize].to_be_bytes(), expected, "entry {x:#04x}");
        }
    }

    #[test]
    fn gf_mul_matches_xtime() {
        for b in 0..=255u8 {
            assert_eq!(gf_mul(b, 2), xtime(b));
            assert_eq!(gf_mul(b, 1), b);
        }
    }

    #[test]
    fn debug_redacts_keys() {
        let cipher = Aes128::new(&[7u8; 16]);
        let dbg = format!("{cipher:?}");
        assert!(dbg.contains("redacted"));
        assert!(!dbg.contains("7, 7"));
    }
}
