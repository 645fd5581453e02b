//! AES-128 block cipher (FIPS-197), implemented from scratch.
//!
//! GuardNN instantiates pipelined AES-128 engines next to the memory
//! controller for counter-mode encryption and MACs of all off-chip
//! traffic. [`Aes128`] is the functional model of one such engine. It
//! expands a key once and runs one of two round implementations, chosen
//! at key expansion:
//!
//! * **Hardware rounds.** On x86-64 CPUs that report AES-NI, a block goes
//!   through nine `AESENC` and one `AESENCLAST` with the round keys in
//!   `xmm` registers (Gueron, *Intel Advanced Encryption Standard (AES)
//!   New Instructions Set*, Intel white paper, 2010). The instructions
//!   read no table indexed by secret data, so these rounds run in
//!   constant time. The crate-private multi-block entry points keep
//!   independent blocks in flight, as the prototype's pipelined engines
//!   do: four CTR counter blocks at a time, or the chains of several CMAC
//!   messages in lockstep. That hides the instructions' latency.
//! * **Table rounds**, the one fallback everywhere else: the 32-bit table
//!   form of the round (Daemen & Rijmen, *The Design of Rijndael*, 2002).
//!   The state is four `u32` columns, and each inner round computes a
//!   column as four lookups into one 256-entry round table that fuses
//!   SubBytes with MixColumns. The other three byte positions reuse the
//!   same table through rotations, ShiftRows is the choice of source
//!   column, and the last round (no MixColumns) looks up the S-box
//!   directly. The table is built from the S-box by a `const fn`.
//!
//! The table lookups are indexed by secret state bytes, and the 1-KiB
//! round table spans 16 cache lines where the 256-B S-box spans 4, so a
//! cache-timing observer learns more index bits per lookup. This is the
//! classic T-table attack surface (Osvik, Shamir & Tromer, CT-RSA 2006).
//! It now covers only the fallback, and it is accepted there because this
//! crate is a functional model of a hardware engine, not a software AES
//! for a shared host.
//!
//! Only encryption is implemented: CTR and CMAC, the engine's two modes,
//! never run the inverse cipher.
//!
//! The four calls from plain code into the
//! `#[target_feature(enable = "aes")]` functions are the crate's only
//! `unsafe` code. Each one sits in a method of the private
//! `ni::RoundKeys`, which is built from, and holds, an `AesNi` token that
//! only the runtime CPU check creates. So the instructions run only on a
//! CPU that executes them.
//!
//! # Example
//!
//! ```
//! use guardnn_crypto::aes::Aes128;
//!
//! // FIPS-197 Appendix B.
//! let cipher = Aes128::new(&[0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
//!                            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c]);
//! let ct = cipher.encrypt_block(b"\x32\x43\xf6\xa8\x88\x5a\x30\x8d\x31\x31\x98\xa2\xe0\x37\x07\x34");
//! assert_eq!(ct, *b"\x39\x25\x84\x1d\x02\xdc\x09\xfb\xdc\x11\x85\x97\x19\x6a\x0b\x32");
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

/// Multiply by x (i.e. {02}) in GF(2^8) with the AES polynomial.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
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

/// Round keys as big-endian column words: `words[r][c]` is column `c` of
/// round key `r`.
type RoundWords = [[u32; 4]; ROUNDS + 1];

/// Expands `key` into the 11 round keys of AES-128.
fn expand_key(key: &[u8; 16]) -> RoundWords {
    let mut w = [0u32; 4 * (ROUNDS + 1)];
    for (i, word) in w.iter_mut().take(4).enumerate() {
        *word = u32::from_be_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
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
    round_keys
}

/// A round key as 16 bytes in FIPS-197 column-major order.
fn key_bytes(words: &[u32; 4]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (dst, col) in out.chunks_exact_mut(4).zip(words) {
        dst.copy_from_slice(&col.to_be_bytes());
    }
    out
}

/// Encrypts one block with the table rounds.
fn encrypt_table(rk: &RoundWords, block: &[u8; 16]) -> [u8; 16] {
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
    key_bytes(&cols)
}

/// `x ^= y` over the shorter of the two.
pub(crate) fn xor_into(x: &mut [u8], y: &[u8]) {
    for (a, b) in x.iter_mut().zip(y) {
        *a ^= b;
    }
}

/// An expanded AES-128 key schedule.
///
/// Construct once with [`Aes128::new`] and reuse for any number of block
/// operations; key expansion is the expensive step in hardware as well, which
/// is why GuardNN keeps the memory-encryption key (K_MEnc) resident in the
/// engine for a whole session.
#[derive(Clone)]
pub struct Aes128 {
    rounds: Rounds,
}

/// The round implementation an [`Aes128`] runs.
#[derive(Clone)]
enum Rounds {
    /// The 32-bit table rounds, the portable fallback.
    Table(RoundWords),
    /// The AES-NI rounds, on CPUs that execute them.
    #[cfg(target_arch = "x86_64")]
    Ni(ni::RoundKeys),
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
    /// Expands `key` into the 11 round keys of AES-128, in AES-NI
    /// registers' form when the CPU executes those instructions.
    pub fn new(key: &[u8; 16]) -> Self {
        let words = expand_key(key);
        #[cfg(target_arch = "x86_64")]
        if let Some(cpu) = ni::AesNi::detect() {
            return Self {
                rounds: Rounds::Ni(ni::RoundKeys::new(cpu, &words)),
            };
        }
        Self {
            rounds: Rounds::Table(words),
        }
    }

    /// [`Aes128::new`] on the table rounds whatever the CPU: the reference
    /// the hardware rounds are tested against.
    #[cfg(test)]
    pub(crate) fn with_table_rounds(key: &[u8; 16]) -> Self {
        Self {
            rounds: Rounds::Table(expand_key(key)),
        }
    }

    /// Encrypts a single 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        guardnn_obs::Recorder::global().add("crypto.aes_blocks", 1);
        match &self.rounds {
            Rounds::Table(words) => encrypt_table(words, block),
            #[cfg(target_arch = "x86_64")]
            Rounds::Ni(keys) => keys.encrypt(block),
        }
    }

    /// XORs the CTR keystream into `data`: its 16-byte block `i` (the last
    /// one may be partial) with the encryption of `counter(i)`.
    ///
    /// This and [`Aes128::cbc_lanes`] count no `crypto.aes_blocks`: CTR
    /// and CMAC count a whole range or message in one update.
    pub(crate) fn apply_keystream(&self, data: &mut [u8], counter: impl Fn(u64) -> [u8; 16]) {
        match &self.rounds {
            Rounds::Table(words) => {
                for (i, block) in (0u64..).zip(data.chunks_mut(16)) {
                    xor_into(block, &encrypt_table(words, &counter(i)));
                }
            }
            #[cfg(target_arch = "x86_64")]
            Rounds::Ni(keys) => keys.apply_keystream(data, counter),
        }
    }

    /// Runs `N` CBC-MAC chains in lockstep: for each 16-byte block `b` of
    /// `blocks[i]` in turn, `state[i] = E(state[i] ^ b)`. Every lane's
    /// blocks have the same length, a multiple of 16.
    pub(crate) fn cbc_lanes<const N: usize>(&self, state: &mut [[u8; 16]; N], blocks: [&[u8]; N]) {
        debug_assert!(blocks
            .iter()
            .all(|b| b.len() % 16 == 0 && b.len() == blocks[0].len()));
        match &self.rounds {
            Rounds::Table(words) => {
                for (x, run) in state.iter_mut().zip(blocks) {
                    for block in run.chunks_exact(16) {
                        xor_into(x, block);
                        *x = encrypt_table(words, x);
                    }
                }
            }
            #[cfg(target_arch = "x86_64")]
            Rounds::Ni(keys) => keys.cbc_lanes(state, blocks),
        }
    }
}

/// The AES-NI rounds.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::{key_bytes, xor_into, RoundWords, ROUNDS};
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si64, _mm_set_epi64x,
        _mm_setzero_si128, _mm_unpackhi_epi64, _mm_xor_si128,
    };

    /// Counter blocks a CTR range keeps in flight.
    const IN_FLIGHT: usize = 4;

    /// Proof that the running CPU executes AES-NI. Its field is private
    /// and [`AesNi::detect`], the runtime check, is its only constructor.
    #[derive(Clone, Copy)]
    pub(super) struct AesNi(());

    impl AesNi {
        /// `Some` if the CPU reports AES-NI.
        pub(super) fn detect() -> Option<Self> {
            std::arch::is_x86_feature_detected!("aes").then_some(Self(()))
        }
    }

    /// Round keys in register form, with the token that lets them run.
    #[derive(Clone)]
    pub(super) struct RoundKeys {
        /// Never read: holding it is what lets the methods below run the
        /// instructions.
        _cpu: AesNi,
        keys: [__m128i; ROUNDS + 1],
    }

    impl RoundKeys {
        /// The round keys `words` in register form.
        pub(super) fn new(cpu: AesNi, words: &RoundWords) -> Self {
            // SAFETY: `cpu` exists only if the CPU reported AES-NI.
            let keys = unsafe { load_keys(words) };
            Self { _cpu: cpu, keys }
        }

        pub(super) fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
            // SAFETY: `self._cpu` exists only if the CPU reported AES-NI.
            unsafe { encrypt(&self.keys, block) }
        }

        pub(super) fn apply_keystream(&self, data: &mut [u8], counter: impl Fn(u64) -> [u8; 16]) {
            // SAFETY: `self._cpu` exists only if the CPU reported AES-NI.
            unsafe { apply_keystream(&self.keys, data, counter) }
        }

        pub(super) fn cbc_lanes<const N: usize>(
            &self,
            state: &mut [[u8; 16]; N],
            blocks: [&[u8]; N],
        ) {
            // SAFETY: `self._cpu` exists only if the CPU reported AES-NI.
            unsafe { cbc_lanes(&self.keys, state, blocks) }
        }
    }

    /// A block in register form (byte 0 in the low lane).
    #[inline]
    #[target_feature(enable = "aes")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// The inverse of [`load`].
    #[inline]
    #[target_feature(enable = "aes")]
    fn store(x: __m128i) -> [u8; 16] {
        let lo = _mm_cvtsi128_si64(x) as u64;
        let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)) as u64;
        (u128::from(hi) << 64 | u128::from(lo)).to_le_bytes()
    }

    #[target_feature(enable = "aes")]
    fn load_keys(words: &RoundWords) -> [__m128i; ROUNDS + 1] {
        let mut keys = [_mm_setzero_si128(); ROUNDS + 1];
        for (k, w) in keys.iter_mut().zip(words) {
            *k = load(&key_bytes(w));
        }
        keys
    }

    /// Encrypts `N` independent blocks in place, round by round, so that
    /// each round's `N` instructions overlap in the pipeline.
    #[inline]
    #[target_feature(enable = "aes")]
    fn rounds<const N: usize>(keys: &[__m128i; ROUNDS + 1], s: &mut [__m128i; N]) {
        for x in s.iter_mut() {
            *x = _mm_xor_si128(*x, keys[0]);
        }
        for k in &keys[1..ROUNDS] {
            for x in s.iter_mut() {
                *x = _mm_aesenc_si128(*x, *k);
            }
        }
        for x in s.iter_mut() {
            *x = _mm_aesenclast_si128(*x, keys[ROUNDS]);
        }
    }

    #[target_feature(enable = "aes")]
    fn encrypt(keys: &[__m128i; ROUNDS + 1], block: &[u8; 16]) -> [u8; 16] {
        let mut s = [load(block)];
        rounds(keys, &mut s);
        store(s[0])
    }

    #[target_feature(enable = "aes")]
    fn apply_keystream(
        keys: &[__m128i; ROUNDS + 1],
        data: &mut [u8],
        counter: impl Fn(u64) -> [u8; 16],
    ) {
        let mut next = 0u64;
        let mut groups = data.chunks_exact_mut(16 * IN_FLIGHT);
        for group in &mut groups {
            let mut s = [_mm_setzero_si128(); IN_FLIGHT];
            for (i, x) in (next..).zip(s.iter_mut()) {
                *x = load(&counter(i));
            }
            rounds(keys, &mut s);
            for (block, x) in group.chunks_exact_mut(16).zip(s) {
                xor_into(block, &store(x));
            }
            next += IN_FLIGHT as u64;
        }
        for (i, block) in (next..).zip(groups.into_remainder().chunks_mut(16)) {
            let mut s = [load(&counter(i))];
            rounds(keys, &mut s);
            xor_into(block, &store(s[0]));
        }
    }

    #[target_feature(enable = "aes")]
    fn cbc_lanes<const N: usize>(
        keys: &[__m128i; ROUNDS + 1],
        state: &mut [[u8; 16]; N],
        mut blocks: [&[u8]; N],
    ) {
        let mut s = [_mm_setzero_si128(); N];
        for (x, st) in s.iter_mut().zip(state.iter()) {
            *x = load(st);
        }
        let count = blocks.first().map_or(0, |b| b.len() / 16);
        for _ in 0..count {
            for (x, rest) in s.iter_mut().zip(blocks.iter_mut()) {
                if let Some((block, tail)) = rest.split_first_chunk::<16>() {
                    *x = _mm_xor_si128(*x, load(block));
                    *rest = tail;
                }
            }
            rounds(keys, &mut s);
        }
        for (st, x) in state.iter_mut().zip(s) {
            *st = store(x);
        }
    }
}

/// The byte-wise encryption rounds the table form replaced, kept as the
/// differential reference.
#[cfg(test)]
mod bytewise {
    use super::{xor_into, xtime, ROUNDS, SBOX};

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
        xor_into(&mut state, &round_keys[0]);
        for rk in &round_keys[1..ROUNDS] {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            xor_into(&mut state, rk);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        xor_into(&mut state, &round_keys[ROUNDS]);
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctr::CounterBlock;
    use crate::tests::splitmix;

    /// The engine [`Aes128::new`] picks and the table rounds, for tests
    /// that must pass on both.
    fn both_engines(key: &[u8; 16]) -> [Aes128; 2] {
        [Aes128::new(key), Aes128::with_table_rounds(key)]
    }

    fn hex_block(hex: &str) -> [u8; 16] {
        core::array::from_fn(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex"))
    }

    /// GF(2^8) multiplication by shift-and-add, independent of the table.
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

    fn random_block(state: &mut u64) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&splitmix(state).to_le_bytes());
        b[8..].copy_from_slice(&splitmix(state).to_le_bytes());
        b
    }

    #[test]
    fn new_runs_the_hardware_rounds_where_the_cpu_has_them() {
        let cipher = Aes128::new(&[0; 16]);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            matches!(cipher.rounds, Rounds::Ni(_)),
            std::arch::is_x86_feature_detected!("aes")
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert!(matches!(cipher.rounds, Rounds::Table(_)));
        assert!(matches!(
            Aes128::with_table_rounds(&[0; 16]).rounds,
            Rounds::Table(_)
        ));
    }

    /// FIPS-197 Appendix B example.
    #[test]
    fn fips197_appendix_b() {
        let key = hex_block("2b7e151628aed2a6abf7158809cf4f3c");
        let pt = hex_block("3243f6a8885a308d313198a2e0370734");
        let expected = hex_block("3925841d02dc09fbdc118597196a0b32");
        for cipher in both_engines(&key) {
            assert_eq!(cipher.encrypt_block(&pt), expected);
        }
        assert_eq!(bytewise::encrypt(&key, &pt), expected);
    }

    /// FIPS-197 Appendix C.1 example (sequential key/plaintext).
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expected = hex_block("69c4e0d86a7b0430d8cdb78070b4c55a");
        for cipher in both_engines(&key) {
            assert_eq!(cipher.encrypt_block(&pt), expected);
        }
        assert_eq!(bytewise::encrypt(&key, &pt), expected);
    }

    /// NIST AESAVS KAT: GFSbox vectors (key = 0, varying plaintext).
    #[test]
    fn aesavs_gfsbox() {
        let cases = [
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
        for cipher in both_engines(&[0u8; 16]) {
            for (pt, ct) in cases {
                assert_eq!(cipher.encrypt_block(&hex_block(pt)), hex_block(ct));
            }
        }
    }

    /// NIST AESAVS KAT: VarKey vectors (plaintext = 0, varying key).
    #[test]
    fn aesavs_varkey() {
        let cases = [
            (
                "80000000000000000000000000000000",
                "0edd33d3c621e546455bd8ba1418bec8",
            ),
            (
                "c0000000000000000000000000000000",
                "4bc3f883450c113c64ca42e1112a9e87",
            ),
            (
                "ffffffffffffffffffffffffffffffff",
                "a1f6258c877d5fcd8964484538bfc92c",
            ),
        ];
        for (key, ct) in cases {
            for cipher in both_engines(&hex_block(key)) {
                assert_eq!(cipher.encrypt_block(&[0u8; 16]), hex_block(ct), "key {key}");
            }
        }
    }

    #[test]
    fn distinct_keys_distinct_ciphertexts() {
        let a = Aes128::new(&[0x00; 16]);
        let b = Aes128::new(&[0x01; 16]);
        assert_ne!(a.encrypt_block(&[0u8; 16]), b.encrypt_block(&[0u8; 16]));
    }

    #[test]
    fn table_rounds_match_bytewise_reference() {
        let mut seed = 0x00A5_1CE5;
        for _ in 0..64 {
            let key = random_block(&mut seed);
            for (words, expected) in expand_key(&key).iter().zip(bytewise::expand_key(&key)) {
                assert_eq!(key_bytes(words), expected);
            }
            let cipher = Aes128::with_table_rounds(&key);
            for _ in 0..32 {
                let block = random_block(&mut seed);
                assert_eq!(
                    cipher.encrypt_block(&block),
                    bytewise::encrypt(&key, &block)
                );
            }
        }
    }

    #[test]
    fn hardware_rounds_match_table_and_bytewise() {
        let mut seed = 0x0A35_0001;
        for _ in 0..64 {
            let key = random_block(&mut seed);
            let [hardware, table] = both_engines(&key);
            for _ in 0..32 {
                let block = random_block(&mut seed);
                let expected = bytewise::encrypt(&key, &block);
                assert_eq!(hardware.encrypt_block(&block), expected);
                assert_eq!(table.encrypt_block(&block), expected);
            }
        }
    }

    /// The keystream of `n` bytes from counters `counter(0..)`, one block
    /// at a time through the byte-wise reference.
    fn reference_keystream(key: &[u8; 16], n: usize, counter: impl Fn(u64) -> [u8; 16]) -> Vec<u8> {
        (0..n.div_ceil(16) as u64)
            .flat_map(|i| bytewise::encrypt(key, &counter(i)))
            .take(n)
            .collect()
    }

    #[test]
    fn keystream_matches_per_block_reference() {
        let mut seed = 0x0C7B_0001;
        for _ in 0..8 {
            let key = random_block(&mut seed);
            let (base, version) = (splitmix(&mut seed) & !15, splitmix(&mut seed));
            let counter = |i: u64| CounterBlock::new(base.wrapping_add(16 * i), version).to_bytes();
            for len in (0..=40 * 16).filter(|l| l % 16 == 0 || l % 16 == 7 || l % 16 == 15) {
                let expected = reference_keystream(&key, len, counter);
                for cipher in both_engines(&key) {
                    let mut data = vec![0u8; len];
                    cipher.apply_keystream(&mut data, counter);
                    assert_eq!(data, expected, "{len} bytes");
                }
            }
        }
    }

    #[test]
    fn cbc_lanes_match_one_chain_at_a_time() {
        let mut seed = 0x0CBC_0001;
        for _ in 0..8 {
            let key = random_block(&mut seed);
            let msgs: Vec<Vec<u8>> = (0..4)
                .map(|_| (0..40).flat_map(|_| random_block(&mut seed)).collect())
                .collect();
            let ivs: [[u8; 16]; 4] = core::array::from_fn(|_| random_block(&mut seed));
            for blocks in [0, 1, 2, 5, 33, 40] {
                let expected: Vec<[u8; 16]> = msgs
                    .iter()
                    .zip(ivs)
                    .map(|(msg, mut x)| {
                        for block in msg[..16 * blocks].chunks_exact(16) {
                            xor_into(&mut x, block);
                            x = bytewise::encrypt(&key, &x);
                        }
                        x
                    })
                    .collect();
                for cipher in both_engines(&key) {
                    let mut lanes = ivs;
                    cipher.cbc_lanes(
                        &mut lanes,
                        core::array::from_fn(|i| &msgs[i][..16 * blocks]),
                    );
                    assert_eq!(
                        lanes.as_slice(),
                        expected.as_slice(),
                        "{blocks} blocks, 4 lanes"
                    );
                    let mut one = [ivs[2]];
                    cipher.cbc_lanes(&mut one, [&msgs[2][..16 * blocks]]);
                    assert_eq!(one[0], expected[2], "{blocks} blocks, 1 lane");
                }
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
