//! The `crypto.*` counts of protected-memory accesses, read through the
//! process-global recorder.
//!
//! Reads and writes take their chunk MACs up to four at a time; the counts
//! must still equal one CTR block per 16 bytes plus, with integrity on,
//! one tag and 33 AES blocks (512 data bytes, address and VN) per chunk
//! covered. This file is its own test process, so installing the global
//! recorder here affects nothing else, and everything runs in one test so
//! no other thread adds to the counts.

use guardnn_memprot::functional::ProtectedMemory;
use guardnn_obs::Recorder;

/// (AES blocks, CMAC tags) counted so far.
fn counts() -> (u64, u64) {
    let counters = Recorder::global().snapshot().counters;
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    (get("crypto.aes_blocks"), get("crypto.cmac_tags"))
}

/// Runs `op` and returns the (AES blocks, CMAC tags) it counted.
fn delta(op: impl FnOnce()) -> (u64, u64) {
    let before = counts();
    op();
    let after = counts();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn accesses_count_ctr_blocks_and_chunk_macs() {
    assert!(Recorder::install_global(Recorder::enabled()));

    // (chunks, start, length, AES blocks and tags with integrity, AES
    // blocks without). The partial ranges start 48 bytes into a chunk and
    // end 96 bytes short of the last one: 9 CTR blocks fewer.
    let base = 0x1_0000;
    let cases = [
        (1, base, 512, (65, 1), 32),
        (1, base + 48, 368, (56, 1), 23),
        (3, base, 3 * 512, (195, 3), 96),
        (3, base + 48, 3 * 512 - 144, (186, 3), 87),
        (4, base, 4 * 512, (260, 4), 128),
        (4, base + 48, 4 * 512 - 144, (251, 4), 119),
        (5, base, 5 * 512, (325, 5), 160),
        (5, base + 48, 5 * 512 - 144, (316, 5), 151),
        (9, base, 9 * 512, (585, 9), 288),
        (9, base + 48, 9 * 512 - 144, (576, 9), 279),
    ];
    for (chunks, start, len, with_integrity, ctr_only) in cases {
        let what = format!("{chunks} chunks from {start:#x}");
        let data = vec![0xC3u8; len];

        let mut mem = ProtectedMemory::new(&[1; 16], Some([2; 16]));
        assert_eq!(
            delta(|| mem.write(start, &data, 5)),
            with_integrity,
            "write {what}"
        );
        let read = delta(|| assert_eq!(mem.read(start, len, 5).unwrap(), data));
        assert_eq!(read, with_integrity, "read {what}");

        let mut mem = ProtectedMemory::new(&[1; 16], None);
        assert_eq!(
            delta(|| mem.write(start, &data, 5)),
            (ctr_only, 0),
            "write {what}"
        );
        let read = delta(|| assert_eq!(mem.read(start, len, 5).unwrap(), data));
        assert_eq!(read, (ctr_only, 0), "read {what}");
    }

    // Empty ranges count nothing.
    let mut mem = ProtectedMemory::new(&[1; 16], Some([2; 16]));
    assert_eq!(delta(|| mem.write(base + 16, &[], 5)), (0, 0));
    assert_eq!(delta(|| assert!(mem.read(base + 16, 0, 5).is_ok())), (0, 0));
}
