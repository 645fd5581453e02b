//! Minimal arbitrary-precision unsigned integers with Montgomery modular
//! exponentiation.
//!
//! The GuardNN microcontroller runs a public-key key exchange
//! (ECDHE–ECDSA in the paper; finite-field DH + Schnorr here — see
//! DESIGN.md §4). That needs 2048-bit modular arithmetic. This module is a
//! deliberately small bignum: little-endian `u64` limbs, schoolbook
//! multiplication, and Montgomery reduction for fast `modpow`, which
//! scans the exponent in fixed 4-bit windows and multiplies into scratch
//! buffers it reuses for the whole exponentiation.
//!
//! About four in five Montgomery operations of such an exponentiation are
//! squarings. They go through their own routine, which forms each cross
//! product `a_i·a_j` once, doubles their sum, adds the diagonal `a_i²` and
//! then reduces the double-width square: about 1.5·w² limb products for a
//! `w`-limb modulus, against 2·w² for the CIOS multiplication (Menezes,
//! van Oorschot & Vanstone, *Handbook of Applied Cryptography*, 1996,
//! ch. 14).
//!
//! A base that is raised again and again, such as a group generator, can
//! have its powers `base^(16^i)` precomputed, one per 4-bit window of the
//! modulus. Exponentiation then needs no squarings (Yao's fixed-base
//! method, as in Brickell, Gordon, McCurley & Wilson, "Fast
//! Exponentiation with Precomputation", EUROCRYPT '92). For each digit
//! value `d` from 15 down to 1, the powers whose window holds `d` are
//! multiplied into a running product, and the running product into the
//! result: one multiplication per nonzero window, plus 15.
//!
//! Both methods choose their multiplications, and the table entries they
//! read, by the exponent's digits, as the square-and-multiply before them
//! did. For a private key or a signature nonce those digits are secret,
//! so the operation count and the memory access pattern depend on
//! secrets, and a timing or cache observer learns about them. That is
//! accepted here because this crate is a functional model of the device's
//! key-exchange firmware, not a library for a shared host. No
//! constant-time ladder is adopted.
//!
//! # Example
//!
//! ```
//! use guardnn_crypto::bigint::BigUint;
//!
//! let p = BigUint::from(23u64);
//! let g = BigUint::from(5u64);
//! assert_eq!(g.modpow(&BigUint::from(6u64), &p), BigUint::from(8u64));
//! ```

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs with no trailing zero limbs (canonical form).
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x")?;
        if self.limbs.is_empty() {
            write!(f, "0")?;
        }
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        write!(f, ")")
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Self { limbs: vec![v] }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        Self { limbs: vec![1] }
    }

    /// Returns `true` when the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Parses a big-endian byte string (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut out = Self { limbs };
        out.normalize();
        out
    }

    /// Parses a hex string; whitespace is ignored.
    ///
    /// # Panics
    ///
    /// Panics if a character is not a hex digit or whitespace (intended for
    /// compile-time constants such as the RFC 3526 moduli).
    pub fn from_hex(s: &str) -> Self {
        let digits: Vec<u8> = s
            .chars()
            .filter(|c| !c.is_whitespace())
            // lint:allow(panic-discipline) — documented `# Panics` contract for const hex inputs
            .map(|c| c.to_digit(16).expect("invalid hex digit") as u8)
            .collect();
        let mut bytes = Vec::with_capacity(digits.len() / 2 + 1);
        let mut rest: &[u8] = &digits;
        if rest.len() % 2 == 1 {
            bytes.push(rest[0]);
            rest = &rest[1..];
        }
        for pair in rest.chunks(2) {
            bytes.push((pair[0] << 4) | pair[1]);
        }
        Self::from_bytes_be(&bytes)
    }

    /// Serializes as big-endian bytes with no leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        while out.first() == Some(&0) {
            out.remove(0);
        }
        out
    }

    /// Serializes as big-endian bytes left-padded with zeros to `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Number of significant bits.
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let n = self.limbs.len().max(other.limbs.len());
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = 0u128;
        for i in 0..n {
            let a = *self.limbs.get(i).unwrap_or(&0) as u128;
            let b = *other.limbs.get(i).unwrap_or(&0) as u128;
            let sum = a + b + carry;
            out.push(sum as u64);
            carry = sum >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &Self) -> Self {
        assert!(self >= other, "bigint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i] as i128;
            let b = *other.limbs.get(i).unwrap_or(&0) as i128;
            let mut diff = a - b - borrow;
            if diff < 0 {
                diff += 1i128 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(diff as u64);
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Schoolbook multiplication `self * other`.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[i + other.limbs.len()] = carry as u64;
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Left shift by one bit.
    pub fn shl1(&self) -> Self {
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u64;
        for &l in &self.limbs {
            out.push((l << 1) | carry);
            carry = l >> 63;
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Right shift by one bit.
    pub fn shr1(&self) -> Self {
        let mut out = self.limbs.clone();
        let mut carry = 0u64;
        for l in out.iter_mut().rev() {
            let new_carry = *l & 1;
            *l = (*l >> 1) | (carry << 63);
            carry = new_carry;
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// `self mod m` by bitwise long reduction.
    ///
    /// O(bits(self) · limbs(m)), shifting one limb buffer in place; fine
    /// for the one-off reductions the key exchange needs (random
    /// exponents, hash outputs). Hot-path modular arithmetic goes through
    /// [`MontgomeryCtx`].
    pub fn rem(&self, m: &Self) -> Self {
        assert!(!m.is_zero(), "modulo by zero");
        if self < m {
            return self.clone();
        }
        // One spare limb holds the bit shifted out of `2r + bit` (< 2m).
        let mut modulus = m.limbs.clone();
        modulus.push(0);
        let mut r = vec![0u64; modulus.len()];
        for i in (0..self.bit_len()).rev() {
            shl1_limbs(&mut r, u64::from(self.bit(i)));
            if ge_limbs(&r, &modulus) {
                sub_limbs(&mut r, &modulus);
            }
        }
        let mut out = Self { limbs: r };
        out.normalize();
        out
    }

    /// Modular addition `(self + other) mod m`; inputs must already be `< m`.
    pub fn add_mod(&self, other: &Self, m: &Self) -> Self {
        let s = self.add(other);
        if &s >= m {
            s.sub(m)
        } else {
            s
        }
    }

    /// Modular exponentiation `self^exp mod m` using Montgomery reduction.
    ///
    /// # Panics
    ///
    /// Panics if `m` is even or zero (Montgomery form needs an odd modulus;
    /// all DH/Schnorr moduli here are odd primes).
    pub fn modpow(&self, exp: &Self, m: &Self) -> Self {
        let ctx = MontgomeryCtx::new(m.clone());
        ctx.pow(self, exp)
    }
}

/// Exponent bits per window, in [`MontgomeryCtx::pow`] and in the
/// fixed-base powers.
const WINDOW_BITS: usize = 4;

/// Window `i` of `exp`: bits `4i .. 4i + 4` as a digit in `0..16` (a
/// window never straddles two limbs).
fn window_digit(exp: &BigUint, i: usize) -> usize {
    let bit = i * WINDOW_BITS;
    exp.limbs.get(bit / 64).map_or(0, |limb| {
        ((limb >> (bit % 64)) & ((1 << WINDOW_BITS) - 1)) as usize
    })
}

/// The powers `base^(16^i)` of one base in Montgomery form, one for every
/// 4-bit window of the modulus: the table [`MontgomeryCtx::pow_fixed`]
/// reads.
pub(crate) struct FixedBase {
    /// `windows` residues of `width` limbs; entry `i` is
    /// `base^(16^i) · R mod n`.
    powers: Vec<u64>,
    /// Exponent windows the table covers.
    windows: usize,
}

impl fmt::Debug for FixedBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FixedBase")
            .field("windows", &self.windows)
            .field("bytes", &(self.powers.len() * 8))
            .finish()
    }
}

/// Precomputed Montgomery context for a fixed odd modulus.
///
/// Used for every hot modular multiplication in the DH key exchange and
/// Schnorr signing. Multiplication is CIOS Montgomery and squaring its own
/// routine, both into a scratch buffer the caller reuses, so an
/// exponentiation allocates only its window table and a few buffers,
/// however long the exponent.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    n: BigUint,
    /// Limb count of the modulus (fixed width of all Montgomery residues).
    width: usize,
    /// `-n^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod n` where `R = 2^(64*width)`, as `width` limbs.
    r2: Vec<u64>,
}

impl MontgomeryCtx {
    /// Builds a context for the odd modulus `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or even.
    pub fn new(n: BigUint) -> Self {
        assert!(!n.is_zero(), "modulus must be nonzero");
        assert!(n.limbs[0] & 1 == 1, "modulus must be odd");
        let width = n.limbs.len();
        // Newton iteration for inverse of n mod 2^64.
        let n0 = n.limbs[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let n0_inv = inv.wrapping_neg();
        // R^2 mod n: start from 1 and double 2*width*64 times mod n, in
        // place. `r < n` before each doubling, so `2r` needs at most one
        // bit beyond `width` limbs and one subtraction brings it back.
        let mut r2 = vec![0u64; width];
        r2[0] = 1;
        for _ in 0..(2 * width * 64) {
            if shl1_limbs(&mut r2, 0) != 0 || ge_limbs(&r2, &n.limbs) {
                sub_limbs(&mut r2, &n.limbs);
            }
        }
        Self {
            n,
            width,
            n0_inv,
            r2,
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// CIOS Montgomery multiplication of two width-limb residues:
    /// `t[..width] = a · b · R^{-1} mod n`, with `t` (`width + 2` limbs) as
    /// the whole working space.
    fn mont_mul(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let w = self.width;
        let (a, b, n) = (&a[..w], &b[..w], &self.n.limbs[..w]);
        let t = &mut t[..w + 2];
        t.fill(0);
        for &ai in a {
            // t += ai * b
            let mut carry = 0u128;
            for (tj, &bj) in t.iter_mut().zip(b) {
                let s = *tj as u128 + (ai as u128) * (bj as u128) + carry;
                *tj = s as u64;
                carry = s >> 64;
            }
            let s = t[w] as u128 + carry;
            t[w] = s as u64;
            t[w + 1] = (s >> 64) as u64;
            // m = t[0] * n0_inv mod 2^64; t += m * n; t >>= 64
            let m = t[0].wrapping_mul(self.n0_inv);
            let s = t[0] as u128 + (m as u128) * (n[0] as u128);
            let mut carry = s >> 64;
            for j in 1..w {
                let s = t[j] as u128 + (m as u128) * (n[j] as u128) + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t[w] as u128 + carry;
            t[w - 1] = s as u64;
            t[w] = t[w + 1] + ((s >> 64) as u64);
            t[w + 1] = 0;
        }
        // Final conditional subtraction.
        if t[w] != 0 || ge_limbs(&t[..w], n) {
            sub_limbs(&mut t[..w], n);
        }
    }

    /// Montgomery squaring in place, `a = a · a · R^{-1} mod n`: the
    /// value [`Self::mont_mul`] gives for `(a, a)`, with `t` (`2 · width`
    /// limbs) as the whole working space. Each cross product `a_i·a_j`
    /// (`i < j`) is formed once; their sum is doubled and the diagonal
    /// `a_i²` added, and the double-width square is then reduced one limb
    /// at a time.
    fn mont_sqr(&self, a: &mut [u64], t: &mut [u64]) {
        let w = self.width;
        let (a, n) = (&mut a[..w], &self.n.limbs[..w]);
        let t = &mut t[..2 * w];
        t.fill(0);
        // t = Σ_{i<j} a_i·a_j·2^(64(i+j)); row i ends at limb i + w.
        for (i, &ai) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (tk, &aj) in t[2 * i + 1..i + w].iter_mut().zip(&a[i + 1..]) {
                let s = *tk as u128 + (ai as u128) * (aj as u128) + carry;
                *tk = s as u64;
                carry = s >> 64;
            }
            t[i + w] = carry as u64;
        }
        // The cross sum is below R²/2, so doubling shifts nothing out, and
        // the full square a² < R² fits the 2·width limbs.
        shl1_limbs(t, 0);
        let mut carry = 0u128;
        for (pair, &ai) in t.chunks_exact_mut(2).zip(a.iter()) {
            let sq = (ai as u128) * (ai as u128);
            let lo = pair[0] as u128 + (sq as u64) as u128 + carry;
            pair[0] = lo as u64;
            let hi = pair[1] as u128 + (sq >> 64) + (lo >> 64);
            pair[1] = hi as u64;
            carry = hi >> 64;
        }
        // Reduction: adding m·n·2^(64i) clears limb i. The carry out of
        // limb i + w waits in `top` and joins limb i + w + 1 in the next
        // round; after the last round it is the bit above the result,
        // which is below 2n.
        let mut top = 0u64;
        for i in 0..w {
            let m = t[i].wrapping_mul(self.n0_inv);
            let mut carry = 0u128;
            for (tk, &nj) in t[i..i + w].iter_mut().zip(n) {
                let s = *tk as u128 + (m as u128) * (nj as u128) + carry;
                *tk = s as u64;
                carry = s >> 64;
            }
            let s = t[i + w] as u128 + carry + top as u128;
            t[i + w] = s as u64;
            top = (s >> 64) as u64;
        }
        a.copy_from_slice(&t[w..]);
        if top != 0 || ge_limbs(a, n) {
            sub_limbs(a, n);
        }
    }

    /// `a` in Montgomery form (`a · R mod n`), using `t` as scratch.
    fn to_mont(&self, a: &BigUint, t: &mut [u64]) -> Vec<u64> {
        self.mont_mul(&self.residue(a), &self.r2, t);
        t[..self.width].to_vec()
    }

    /// `a` reduced mod `n`, as `width` limbs.
    fn residue(&self, a: &BigUint) -> Vec<u64> {
        let mut limbs = if a >= &self.n {
            a.rem(&self.n).limbs
        } else {
            a.limbs.clone()
        };
        limbs.resize(self.width, 0);
        limbs
    }

    /// Converts out of Montgomery form, using `t` as scratch.
    fn reduce_from_mont(&self, a: &[u64], t: &mut [u64]) -> BigUint {
        let mut one = vec![0u64; self.width];
        one[0] = 1;
        self.mont_mul(a, &one, t);
        let mut r = BigUint {
            limbs: t[..self.width].to_vec(),
        };
        r.normalize();
        r
    }

    /// Modular multiplication `(a * b) mod n`: `REDC(REDC(a·b) · R²)`.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let mut t = vec![0u64; self.width + 2];
        self.mont_mul(&self.residue(a), &self.residue(b), &mut t);
        let ab = t[..self.width].to_vec();
        self.mont_mul(&ab, &self.r2, &mut t);
        let mut r = BigUint {
            limbs: t[..self.width].to_vec(),
        };
        r.normalize();
        r
    }

    /// Modular exponentiation `base^exp mod n`, left to right with a fixed
    /// window of four exponent bits per table multiplication; the four
    /// squarings between table multiplications go through the Montgomery
    /// squaring routine.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one().rem(&self.n);
        }
        let w = self.width;
        // Scratch for both `mont_mul` (w + 2 limbs) and `mont_sqr` (2w).
        let mut t = vec![0u64; 2 * w + 2];
        // table[d] = base^d in Montgomery form, for every window digit d.
        let mut table = vec![0u64; (1 << WINDOW_BITS) * w];
        table[w..2 * w].copy_from_slice(&self.to_mont(base, &mut t));
        for d in 2..1 << WINDOW_BITS {
            let (lower, upper) = table.split_at_mut(d * w);
            self.mont_mul(&lower[(d - 1) * w..], &lower[w..2 * w], &mut t);
            upper[..w].copy_from_slice(&t[..w]);
        }
        let windows = exp.bit_len().div_ceil(WINDOW_BITS);
        // The top window holds the top set bit, so its digit is nonzero.
        let top = window_digit(exp, windows - 1);
        let mut acc = table[top * w..(top + 1) * w].to_vec();
        for i in (0..windows - 1).rev() {
            for _ in 0..WINDOW_BITS {
                self.mont_sqr(&mut acc, &mut t);
            }
            let d = window_digit(exp, i);
            if d != 0 {
                self.mont_mul(&acc, &table[d * w..(d + 1) * w], &mut t);
                acc.copy_from_slice(&t[..w]);
            }
        }
        self.reduce_from_mont(&acc, &mut t)
    }

    /// Precomputes the powers `base^(16^i)` for every 4-bit window of the
    /// modulus, four squarings apart.
    pub(crate) fn fixed_base(&self, base: &BigUint) -> FixedBase {
        let w = self.width;
        let windows = self.n.bit_len().div_ceil(WINDOW_BITS);
        let mut t = vec![0u64; 2 * w + 2];
        let mut power = self.to_mont(base, &mut t);
        let mut powers = Vec::with_capacity(windows * w);
        powers.extend_from_slice(&power);
        for _ in 1..windows {
            for _ in 0..WINDOW_BITS {
                self.mont_sqr(&mut power, &mut t);
            }
            powers.extend_from_slice(&power);
        }
        FixedBase { powers, windows }
    }

    /// `base^exp mod n` by Yao's fixed-base method over `table`, the
    /// powers of `base` that [`Self::fixed_base`] built for this modulus:
    /// no squarings, one multiplication per nonzero window of `exp` plus
    /// 15. `None` when `exp` has more windows than the table covers.
    pub(crate) fn pow_fixed(&self, table: &FixedBase, exp: &BigUint) -> Option<BigUint> {
        let windows = exp.bit_len().div_ceil(WINDOW_BITS);
        if windows > table.windows {
            return None;
        }
        let w = self.width;
        let digits: Vec<usize> = (0..windows).map(|i| window_digit(exp, i)).collect();
        let mut t = vec![0u64; w + 2];
        // With b_d the product of the powers whose window digit is d,
        // base^exp = Π_d b_d^d. After digit value d, `run` holds
        // b_15 · … · b_d, so multiplying it into `acc` once per digit
        // value raises each b_d to the power d.
        let mut run = self.to_mont(&BigUint::one(), &mut t);
        let mut acc = run.clone();
        for d in (1..1 << WINDOW_BITS).rev() {
            for (i, _) in digits.iter().enumerate().filter(|&(_, &di)| di == d) {
                self.mont_mul(&run, &table.powers[i * w..(i + 1) * w], &mut t);
                run.copy_from_slice(&t[..w]);
            }
            self.mont_mul(&acc, &run, &mut t);
            acc.copy_from_slice(&t[..w]);
        }
        Some(self.reduce_from_mont(&acc, &mut t))
    }
}

/// `a = 2a + carry_in` in place; returns the bit shifted out of the top.
fn shl1_limbs(a: &mut [u64], carry_in: u64) -> u64 {
    let mut carry = carry_in;
    for limb in a.iter_mut() {
        let out = *limb >> 63;
        *limb = (*limb << 1) | carry;
        carry = out;
    }
    carry
}

/// `a >= b` for equal-width limb slices.
fn ge_limbs(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Greater => return true,
            Ordering::Less => return false,
            Ordering::Equal => {}
        }
    }
    true
}

/// `a -= b` in place for equal-width limb slices (caller ensures `a >= b`).
fn sub_limbs(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0i128;
    for (x, y) in a.iter_mut().zip(b.iter()) {
        let mut diff = *x as i128 - *y as i128 - borrow;
        if diff < 0 {
            diff += 1i128 << 64;
            borrow = 1;
        } else {
            borrow = 0;
        }
        *x = diff as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::splitmix;

    fn n(v: u64) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn bytes_round_trip() {
        let x = BigUint::from_bytes_be(&[0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11]);
        assert_eq!(
            x.to_bytes_be(),
            vec![0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11]
        );
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 5]).to_bytes_be(), vec![5]);
        assert!(BigUint::from_bytes_be(&[]).is_zero());
    }

    #[test]
    fn hex_parsing() {
        assert_eq!(BigUint::from_hex("ff"), n(255));
        assert_eq!(BigUint::from_hex("1 00"), n(256));
        assert_eq!(BigUint::from_hex("DEADBEEF"), n(0xDEAD_BEEF));
        // Odd number of digits.
        assert_eq!(BigUint::from_hex("abc"), n(0xabc));
    }

    #[test]
    fn padded_serialization() {
        assert_eq!(n(0x1234).to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_serialization_too_small() {
        let _ = n(0x123456).to_bytes_be_padded(2);
    }

    #[test]
    fn add_sub_with_carries() {
        let a = BigUint::from_hex("ffffffffffffffff ffffffffffffffff");
        let one = BigUint::one();
        let sum = a.add(&one);
        assert_eq!(sum.bit_len(), 129);
        assert_eq!(sum.sub(&one), a);
    }

    #[test]
    fn mul_known_values() {
        assert_eq!(
            n(0xffff_ffff).mul(&n(0xffff_ffff)),
            n(0xFFFF_FFFE_0000_0001)
        );
        let a = BigUint::from_hex("123456789abcdef0");
        assert_eq!(a.mul(&BigUint::zero()), BigUint::zero());
        assert_eq!(a.mul(&BigUint::one()), a);
    }

    #[test]
    fn rem_small() {
        assert_eq!(n(100).rem(&n(7)), n(2));
        assert_eq!(n(6).rem(&n(7)), n(6));
        assert_eq!(n(7).rem(&n(7)), n(0));
    }

    #[test]
    fn modpow_small_prime() {
        // Fermat: a^(p-1) = 1 mod p for prime p not dividing a.
        let p = n(1_000_000_007);
        for a in [2u64, 3, 12345, 999_999_999] {
            assert_eq!(n(a).modpow(&p.sub(&BigUint::one()), &p), BigUint::one());
        }
    }

    #[test]
    fn modpow_zero_exponent() {
        assert_eq!(n(5).modpow(&BigUint::zero(), &n(7)), BigUint::one());
    }

    #[test]
    fn modpow_matches_naive_multilimb() {
        // 128-bit odd modulus.
        let m = BigUint::from_hex("f0000000000000000000000000000001");
        let base = BigUint::from_hex("123456789abcdef0fedcba9876543210");
        let exp = n(65537);
        assert_eq!(
            base.modpow(&exp, &m),
            pow_reference(&base.rem(&m), &exp, &m)
        );
    }

    #[test]
    fn montgomery_mul_mod_matches_naive() {
        let m = BigUint::from_hex("c90fdaa22168c234c4c6628b80dc1cd129024e088a67cc75");
        let ctx = MontgomeryCtx::new(m.clone());
        let a = BigUint::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef");
        let b = BigUint::from_hex("fedcba9876543210fedcba9876543210fedcba9876543210");
        assert_eq!(ctx.mul_mod(&a, &b), a.mul(&b).rem(&m));
    }

    /// A random value of exactly `bits` bits (0 for `bits == 0`).
    fn random_bits(state: &mut u64, bits: usize) -> BigUint {
        let mut limbs: Vec<u64> = (0..bits.div_ceil(64)).map(|_| splitmix(state)).collect();
        if let Some(top) = limbs.last_mut() {
            let used = bits - 64 * (bits.div_ceil(64) - 1);
            *top &= u64::MAX >> (64 - used);
            *top |= 1 << (used - 1);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// A random odd modulus of exactly `bits` bits (`bits >= 2`).
    fn random_modulus(state: &mut u64, bits: usize) -> BigUint {
        let m = random_bits(state, bits);
        if m.bit(0) {
            m
        } else {
            m.add(&BigUint::one())
        }
    }

    /// The allocating shift-and-subtract reduction `rem` replaced.
    fn rem_reference(a: &BigUint, m: &BigUint) -> BigUint {
        let mut r = BigUint::zero();
        for i in (0..a.bit_len()).rev() {
            r = r.shl1();
            if a.bit(i) {
                r = r.add(&BigUint::one());
            }
            if &r >= m {
                r = r.sub(m);
            }
        }
        r
    }

    /// Binary square-and-multiply with `mul` and `rem`, no Montgomery.
    fn pow_reference(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut acc = BigUint::one().rem(m);
        for i in (0..exp.bit_len()).rev() {
            acc = acc.mul(&acc).rem(m);
            if exp.bit(i) {
                acc = acc.mul(base).rem(m);
            }
        }
        acc
    }

    #[test]
    fn rem_matches_reference() {
        let mut seed = 0x5EED;
        for (a_bits, m_bits) in [
            (1, 1),
            (64, 3),
            (200, 64),
            (256, 768),
            (1030, 767),
            (2056, 2047),
        ] {
            let a = random_bits(&mut seed, a_bits);
            let m = random_bits(&mut seed, m_bits);
            assert_eq!(
                a.rem(&m),
                rem_reference(&a, &m),
                "{a_bits} mod {m_bits} bits"
            );
        }
    }

    #[test]
    fn windowed_pow_matches_square_and_multiply() {
        let mut seed = 0xC0FFEE;
        for (mod_bits, exp_lens) in [
            (
                768,
                &[
                    0usize, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 255, 256, 257, 767, 768,
                ][..],
            ),
            (2048, &[0, 1, 3, 4, 5, 8, 12, 16, 17, 64, 129][..]),
        ] {
            for _ in 0..2 {
                let m = random_modulus(&mut seed, mod_bits);
                let ctx = MontgomeryCtx::new(m.clone());
                let base = random_bits(&mut seed, mod_bits + 5);
                for &len in exp_lens {
                    let exp = random_bits(&mut seed, len);
                    let expected = pow_reference(&base.rem(&m), &exp, &m);
                    assert_eq!(
                        ctx.pow(&base, &exp),
                        expected,
                        "{mod_bits}-bit modulus, {len}-bit exponent"
                    );
                }
                // Exponents of all ones and a single set bit stress every window digit.
                for exp in [
                    BigUint::from(0xFFFF_u64),
                    BigUint::from(0x1_0000_u64),
                    BigUint::one(),
                ] {
                    assert_eq!(ctx.pow(&base, &exp), pow_reference(&base.rem(&m), &exp, &m));
                }
            }
        }
    }

    /// `2^bit`.
    fn pow2(bit: usize) -> BigUint {
        let mut limbs = vec![0; bit / 64 + 1];
        limbs[bit / 64] = 1 << (bit % 64);
        BigUint { limbs }
    }

    /// The primes of the named groups: their top and bottom 64 bits are
    /// all ones, the worst case for carries.
    fn group_primes() -> [BigUint; 2] {
        [
            crate::dh::DhGroup::oakley768().prime().clone(),
            crate::dh::DhGroup::modp2048().prime().clone(),
        ]
    }

    #[test]
    fn mont_sqr_matches_mont_mul() {
        let mut seed = 0x5C_0A7E;
        let mut moduli: Vec<BigUint> = (1..=32)
            .map(|limbs| {
                let bits = 64 * (limbs - 1) + 1 + (splitmix(&mut seed) % 64) as usize;
                random_modulus(&mut seed, bits.max(2))
            })
            .collect();
        moduli.extend(group_primes());
        for m in moduli {
            let ctx = MontgomeryCtx::new(m.clone());
            let w = ctx.width;
            let mut inputs: Vec<Vec<u64>> = (0..4)
                .map(|_| ctx.residue(&random_bits(&mut seed, m.bit_len() + 3)))
                .collect();
            for special in [BigUint::zero(), BigUint::one(), m.sub(&BigUint::one())] {
                inputs.push(ctx.residue(&special));
            }
            inputs.push(vec![u64::MAX; w]);
            let mut t = vec![0u64; 2 * w + 2];
            for a in inputs {
                ctx.mont_mul(&a, &a, &mut t);
                let expected = t[..w].to_vec();
                let mut squared = a.clone();
                ctx.mont_sqr(&mut squared, &mut t);
                assert_eq!(squared, expected, "{w}-limb modulus {m:?}, input {a:x?}");
            }
        }
    }

    #[test]
    fn pow_g_matches_square_and_multiply() {
        let mut seed = 0xF1_BA5E;
        for (group, lens) in [
            (
                crate::dh::DhGroup::oakley768(),
                &[
                    0usize, 1, 3, 4, 5, 8, 63, 64, 65, 255, 256, 257, 766, 767, 768,
                ][..],
            ),
            (
                crate::dh::DhGroup::modp2048(),
                &[0, 1, 4, 65, 256, 2047, 2048][..],
            ),
        ] {
            let (p, g) = (group.prime(), group.generator());
            let bits = p.bit_len();
            let mut exps: Vec<BigUint> = lens
                .iter()
                .map(|&len| random_bits(&mut seed, len))
                .collect();
            // All ones, and single set bits at the bottom, middle and top.
            exps.push(pow2(bits).sub(&BigUint::one()));
            for bit in [0, 1, 4, bits / 2, bits - 1] {
                exps.push(pow2(bit));
            }
            for e in &exps {
                assert_eq!(
                    group.pow_g(e),
                    pow_reference(g, e, p),
                    "{bits}-bit group, {}-bit exponent",
                    e.bit_len()
                );
            }
            // Exponents wider than the table take the generic path.
            for len in [bits + 1, bits + 70] {
                let e = random_bits(&mut seed, len);
                assert_eq!(
                    group.pow_g(&e),
                    pow_reference(g, &e, p),
                    "{len}-bit exponent"
                );
            }
        }
    }

    #[test]
    fn fixed_base_table_covers_the_modulus_width() {
        let mut seed = 0x7AB1E;
        for mod_bits in [2, 64, 65, 130, 767] {
            let m = random_modulus(&mut seed, mod_bits);
            let ctx = MontgomeryCtx::new(m.clone());
            let base = random_bits(&mut seed, mod_bits + 9);
            let table = ctx.fixed_base(&base);
            let covered = mod_bits.div_ceil(WINDOW_BITS) * WINDOW_BITS;
            for len in [0, 1, mod_bits / 2, mod_bits - 1, mod_bits, covered] {
                let e = random_bits(&mut seed, len);
                assert_eq!(
                    ctx.pow_fixed(&table, &e),
                    Some(pow_reference(&base.rem(&m), &e, &m)),
                    "{mod_bits}-bit modulus, {len}-bit exponent"
                );
            }
            let wide = random_bits(&mut seed, covered + 1);
            assert_eq!(ctx.pow_fixed(&table, &wide), None);
        }
    }

    #[test]
    fn ordering() {
        assert!(n(5) < n(6));
        assert!(BigUint::from_hex("10000000000000000") > n(u64::MAX));
        assert_eq!(n(5).cmp(&n(5)), Ordering::Equal);
    }

    #[test]
    fn shifts() {
        assert_eq!(n(5).shl1(), n(10));
        assert_eq!(n(5).shr1(), n(2));
        let big = BigUint::from_hex("8000000000000000");
        assert_eq!(big.shl1(), BigUint::from_hex("10000000000000000"));
    }
}
