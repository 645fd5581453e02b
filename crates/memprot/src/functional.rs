//! Functional model of GuardNN-protected DRAM.
//!
//! Where the sibling modules model *performance*, this module models
//! *behaviour*: a byte-accurate external memory that stores only ciphertext
//! (AES-CTR under the GuardNN counter layout), keeps one CMAC per chunk
//! binding (ciphertext, address, VN), and exposes the raw ciphertext plus
//! tamper/replay hooks so adversary experiments can run against it.
//!
//! Storage is sparse by 4 KiB page, and every operation works on page
//! slices: a write encrypts each page span in place, a chunk MAC is taken
//! straight over the page bytes plus the address and VN (a 512-byte chunk
//! never straddles a page), and a read copies page slices into the buffer
//! it returns and decrypts there. Pages that were never written read as
//! zeros and are not created by reads, so [`ProtectedMemory::page_count`]
//! counts only the pages a write or an adversary hook touched.
//!
//! # Example
//!
//! ```
//! use guardnn_memprot::functional::ProtectedMemory;
//!
//! let mut mem = ProtectedMemory::new(&[7u8; 16], Some([9u8; 16]));
//! mem.write(0x1000, b"secret weights!!", 42);
//! assert_eq!(mem.read(0x1000, 16, 42).unwrap(), b"secret weights!!");
//! assert_ne!(mem.raw(0x1000, 16), b"secret weights!!"); // DRAM holds ciphertext
//! ```

use guardnn_crypto::cmac::Cmac;
use guardnn_crypto::ctr::AesCtr;
use std::collections::HashMap;

/// Chunk granularity of integrity MACs (the prototype accelerator writes
/// 512-byte chunks).
pub const CHUNK_BYTES: u64 = 512;

/// Storage granularity: ciphertext is kept sparse by 4 KiB page.
const PAGE_BYTES: u64 = 4096;

/// Error returned when integrity verification fails on a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyChunkError {
    /// Address of the chunk whose MAC did not verify.
    pub chunk_addr: u64,
}

impl std::fmt::Display for VerifyChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "integrity verification failed for chunk at {:#x}",
            self.chunk_addr
        )
    }
}

impl std::error::Error for VerifyChunkError {}

/// A protected external memory: ciphertext storage plus per-chunk MACs.
pub struct ProtectedMemory {
    ctr: AesCtr,
    cmac: Option<Cmac>,
    /// Ciphertext bytes, sparse by 4 KiB page.
    pages: HashMap<u64, Box<[u8; 4096]>>,
    /// MAC per chunk address (lives in DRAM conceptually; the adversary can
    /// overwrite it via [`ProtectedMemory::tamper_mac`]).
    macs: HashMap<u64, [u8; 16]>,
}

impl std::fmt::Debug for ProtectedMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtectedMemory")
            .field("pages", &self.pages.len())
            .field("macs", &self.macs.len())
            .field("integrity", &self.cmac.is_some())
            .finish()
    }
}

impl ProtectedMemory {
    /// Creates a protected memory with encryption key `k_menc` and, when
    /// `k_mac` is provided, integrity verification.
    pub fn new(k_menc: &[u8; 16], k_mac: Option<[u8; 16]>) -> Self {
        Self {
            ctr: AesCtr::new(k_menc),
            cmac: k_mac.map(|k| Cmac::new(&k)),
            pages: HashMap::new(),
            macs: HashMap::new(),
        }
    }

    /// Whether integrity verification is enabled.
    pub fn verifies_integrity(&self) -> bool {
        self.cmac.is_some()
    }

    /// Number of 4 KiB DRAM pages that have been touched — the physical
    /// footprint an observer can measure. Used by side-channel tests to
    /// show the footprint is value-independent.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The stored bytes of `[addr, addr + len)`, where the range lies
    /// within one page; `None` for a page never written (it reads as
    /// zeros).
    fn page_slice(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let start = (addr % PAGE_BYTES) as usize;
        self.pages
            .get(&(addr / PAGE_BYTES))
            .map(|p| &p[start..start + len])
    }

    /// Splits `[addr, addr + len)` at page boundaries into
    /// `(address, offset into the range, length)` spans.
    fn page_spans(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize)> {
        let mut offset = 0usize;
        std::iter::from_fn(move || {
            if offset >= len {
                return None;
            }
            let a = addr + offset as u64;
            let take = (len - offset).min((PAGE_BYTES - a % PAGE_BYTES) as usize);
            let span = (a, offset, take);
            offset += take;
            Some(span)
        })
    }

    fn raw_write(&mut self, addr: u64, data: &[u8]) {
        for (a, offset, take) in Self::page_spans(addr, data.len()) {
            let start = (a % PAGE_BYTES) as usize;
            page_entry(&mut self.pages, a / PAGE_BYTES)[start..start + take]
                .copy_from_slice(&data[offset..offset + take]);
        }
    }

    /// Raw ciphertext view `[addr, addr + len)` — what a physical attacker
    /// probing the DRAM bus sees.
    pub fn raw(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for (a, offset, take) in Self::page_spans(addr, len) {
            if let Some(stored) = self.page_slice(a, take) {
                out[offset..offset + take].copy_from_slice(stored);
            }
        }
        out
    }

    /// Encrypts `plaintext` with version `vn` and stores it at `addr`,
    /// recomputing the MAC of every chunk it touches.
    ///
    /// # Panics
    ///
    /// Panics unless the write is 16-byte aligned (the AES-CTR block
    /// granularity the engine operates at).
    pub fn write(&mut self, addr: u64, plaintext: &[u8], vn: u64) {
        assert!(addr.is_multiple_of(16), "writes must be 16-byte aligned");
        // Spans start 16-byte aligned (at `addr` or a page boundary), so
        // each one is encrypted in place with its own counter blocks.
        for (a, offset, take) in Self::page_spans(addr, plaintext.len()) {
            let start = (a % PAGE_BYTES) as usize;
            let span = &mut page_entry(&mut self.pages, a / PAGE_BYTES)[start..start + take];
            span.copy_from_slice(&plaintext[offset..offset + take]);
            self.ctr.apply_range(a, vn, span);
        }
        if self.cmac.is_some() {
            let first_chunk = addr / CHUNK_BYTES;
            let last_chunk = (addr + plaintext.len() as u64 - 1) / CHUNK_BYTES;
            for chunk in first_chunk..=last_chunk {
                self.refresh_mac(chunk * CHUNK_BYTES, vn);
            }
        }
    }

    /// The CMAC of the chunk at `chunk_addr` under `vn`: over the chunk's
    /// stored bytes, then the address and the VN (big-endian).
    fn chunk_mac(&self, cmac: &Cmac, chunk_addr: u64, vn: u64) -> [u8; 16] {
        const ZEROS: [u8; CHUNK_BYTES as usize] = [0u8; CHUNK_BYTES as usize];
        let data = self
            .page_slice(chunk_addr, CHUNK_BYTES as usize)
            .unwrap_or(&ZEROS);
        cmac.compute_parts(&[data, &chunk_addr.to_be_bytes(), &vn.to_be_bytes()])
    }

    fn refresh_mac(&mut self, chunk_addr: u64, vn: u64) {
        if let Some(cmac) = &self.cmac {
            let mac = self.chunk_mac(cmac, chunk_addr, vn);
            self.macs.insert(chunk_addr, mac);
        }
    }

    /// Reads and decrypts `[addr, addr + len)` with version `vn`,
    /// verifying chunk MACs when integrity is enabled.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyChunkError`] if any covered chunk's MAC does not
    /// match (tampered data, tampered MAC, or replayed stale content).
    ///
    /// # Panics
    ///
    /// Panics unless the read is 16-byte aligned.
    pub fn read(&self, addr: u64, len: usize, vn: u64) -> Result<Vec<u8>, VerifyChunkError> {
        assert!(addr.is_multiple_of(16), "reads must be 16-byte aligned");
        if let Some(cmac) = &self.cmac {
            let first_chunk = addr / CHUNK_BYTES;
            let last_chunk = (addr + len as u64 - 1) / CHUNK_BYTES;
            for chunk in first_chunk..=last_chunk {
                let chunk_addr = chunk * CHUNK_BYTES;
                let stored = self.macs.get(&chunk_addr).copied().unwrap_or([0u8; 16]);
                if !guardnn_crypto::ct_eq(&self.chunk_mac(cmac, chunk_addr, vn), &stored) {
                    return Err(VerifyChunkError { chunk_addr });
                }
            }
        }
        let mut data = self.raw(addr, len);
        self.ctr.apply_range(addr, vn, &mut data);
        Ok(data)
    }

    /// Adversary hook: flip bits in the stored ciphertext.
    pub fn tamper(&mut self, addr: u64, xor_mask: u8) {
        page_entry(&mut self.pages, addr / PAGE_BYTES)[(addr % PAGE_BYTES) as usize] ^= xor_mask;
    }

    /// Adversary hook: overwrite a chunk's stored MAC.
    pub fn tamper_mac(&mut self, chunk_addr: u64, mac: [u8; 16]) {
        self.macs.insert(chunk_addr, mac);
    }

    /// Adversary hook: snapshot a chunk (ciphertext + MAC) for a replay.
    pub fn snapshot_chunk(&self, chunk_addr: u64) -> (Vec<u8>, Option<[u8; 16]>) {
        (
            self.raw(chunk_addr, CHUNK_BYTES as usize),
            self.macs.get(&chunk_addr).copied(),
        )
    }

    /// Adversary hook: restore a previously snapshotted chunk (the classic
    /// replay attack).
    pub fn replay_chunk(&mut self, chunk_addr: u64, snapshot: (Vec<u8>, Option<[u8; 16]>)) {
        self.raw_write(chunk_addr, &snapshot.0);
        match snapshot.1 {
            Some(mac) => {
                self.macs.insert(chunk_addr, mac);
            }
            None => {
                self.macs.remove(&chunk_addr);
            }
        }
    }
}

/// The page `page` of `pages`, created zeroed on first touch.
fn page_entry(pages: &mut HashMap<u64, Box<[u8; 4096]>>, page: u64) -> &mut [u8; 4096] {
    pages.entry(page).or_insert_with(|| Box::new([0u8; 4096]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_ci() -> ProtectedMemory {
        ProtectedMemory::new(&[1u8; 16], Some([2u8; 16]))
    }

    fn mem_c() -> ProtectedMemory {
        ProtectedMemory::new(&[1u8; 16], None)
    }

    #[test]
    fn round_trip() {
        let mut mem = mem_ci();
        let data: Vec<u8> = (0..=255).cycle().take(2048).collect();
        mem.write(0x4000, &data, 3);
        assert_eq!(mem.read(0x4000, 2048, 3).unwrap(), data);
    }

    #[test]
    fn dram_never_holds_plaintext() {
        let mut mem = mem_c();
        let secret = b"private user input image bytes!!";
        mem.write(0, secret, 1);
        let raw = mem.raw(0, secret.len());
        assert_ne!(raw.as_slice(), secret.as_slice());
        // No window of the ciphertext equals the plaintext.
        assert!(!raw.windows(8).any(|w| secret.windows(8).any(|s| s == w)));
    }

    #[test]
    fn wrong_vn_garbles_but_never_reveals() {
        let mut mem = mem_c();
        let secret = b"confidential!!!!";
        mem.write(0, secret, 5);
        let garbled = mem.read(0, 16, 6).unwrap();
        assert_ne!(
            garbled.as_slice(),
            secret.as_slice(),
            "wrong CTR_F,R must not decrypt"
        );
    }

    #[test]
    fn tamper_detected_with_integrity() {
        let mut mem = mem_ci();
        mem.write(0, &[0xAA; 512], 1);
        mem.tamper(100, 0x01);
        let err = mem.read(0, 512, 1).unwrap_err();
        assert_eq!(err.chunk_addr, 0);
    }

    #[test]
    fn tampered_mac_detected() {
        let mut mem = mem_ci();
        mem.write(0, &[0xAA; 512], 1);
        mem.tamper_mac(0, [0u8; 16]);
        assert!(mem.read(0, 512, 1).is_err());
    }

    #[test]
    fn replay_detected_with_integrity() {
        let mut mem = mem_ci();
        mem.write(0, &[0x11; 512], 1);
        let old = mem.snapshot_chunk(0);
        // The accelerator overwrites the chunk under a newer VN.
        mem.write(0, &[0x22; 512], 2);
        // Adversary replays the stale ciphertext *and* its matching MAC.
        mem.replay_chunk(0, old);
        // The accelerator reads with the current VN → MAC mismatch.
        assert!(mem.read(0, 512, 2).is_err(), "replay must be detected");
    }

    #[test]
    fn confidentiality_only_misses_tampering_but_stays_garbled() {
        let mut mem = mem_c();
        let secret = b"weights weights!";
        mem.write(0, secret, 1);
        mem.tamper(0, 0xFF);
        // No integrity → read "succeeds" ...
        let data = mem.read(0, 16, 1).unwrap();
        // ... but yields corrupted plaintext, never the adversary's choice
        // of plaintext (CTR tamper flips the same bits in plaintext).
        assert_ne!(data.as_slice(), secret.as_slice());
    }

    #[test]
    fn distinct_addresses_distinct_ciphertext() {
        let mut mem = mem_c();
        mem.write(0, &[0x55; 16], 1);
        mem.write(4096, &[0x55; 16], 1);
        assert_ne!(
            mem.raw(0, 16),
            mem.raw(4096, 16),
            "address is in the counter block"
        );
    }

    #[test]
    fn cross_page_write() {
        let mut mem = mem_ci();
        let data = vec![0x77u8; 8192];
        mem.write(4096 - 512, &data, 9);
        assert_eq!(mem.read(4096 - 512, 8192, 9).unwrap(), data);
    }

    #[test]
    fn chunk_mac_covers_stored_bytes_address_and_vn() {
        let mut mem = mem_ci();
        mem.write(4096 + 512, &[0x3C; 700], 4);
        let cmac = Cmac::new(&[2u8; 16]);
        for chunk_addr in [4096 + 512, 4096 + 1024] {
            let mut msg = mem.raw(chunk_addr, CHUNK_BYTES as usize);
            msg.extend_from_slice(&chunk_addr.to_be_bytes());
            msg.extend_from_slice(&4u64.to_be_bytes());
            assert_eq!(mem.macs[&chunk_addr], cmac.compute(&msg));
        }
    }

    #[test]
    fn reads_never_create_pages() {
        let mut mem = mem_ci();
        mem.write(4096, &[1u8; 32], 1);
        assert_eq!(mem.page_count(), 1);
        let raw = mem.raw(0, 3 * 4096);
        assert!(raw[..4096].iter().chain(&raw[4096 + 32..]).all(|&b| b == 0));
        assert_eq!(raw[4096..4096 + 32], mem.raw(4096, 32));
        assert!(
            mem.read(0, 3 * 4096, 1).is_err(),
            "unwritten chunks have no MAC"
        );
        assert_eq!(mem.read(4096, 32, 1).unwrap(), [1u8; 32]);
        assert_eq!(mem.page_count(), 1, "reads and raw views create no page");
    }

    #[test]
    fn unwritten_memory_reads_fail_integrity() {
        let mem = mem_ci();
        assert!(mem.read(0x8000, 512, 0).is_err(), "no MAC on record");
    }
}
