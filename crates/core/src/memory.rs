//! The device's protected-DRAM layout and tensor I/O.
//!
//! Wraps [`guardnn_memprot::functional::ProtectedMemory`] with the region
//! layout of a loaded model (per-layer weight regions, per-edge feature
//! regions) and the GuardNN version-number discipline: writes use on-chip
//! counters, feature reads use the host-supplied `CTR_F,R`.

use crate::error::GuardNnError;
use guardnn_memprot::functional::ProtectedMemory;
use guardnn_memprot::vn::VersionCounters;
use guardnn_models::Network;

const ALIGN: u64 = 4096;

fn align_up(x: u64) -> u64 {
    x.div_ceil(ALIGN) * ALIGN
}

/// Byte width of one tensor element in device DRAM.
pub const ELEM_BYTES: u64 = 4;

/// The little-endian bytes of an i32 tensor: the element encoding of
/// both the channel's sealed messages and protected DRAM.
pub(crate) fn encode_i32(data: &[i32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * ELEM_BYTES as usize);
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Inverse of [`encode_i32`]; a trailing partial element is ignored.
pub(crate) fn decode_i32(bytes: &[u8]) -> Vec<i32> {
    bytes
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Protected device memory bound to one model layout.
#[derive(Debug)]
pub struct DeviceMemory {
    mem: ProtectedMemory,
    /// Weight region base per layer.
    wgt_base: Vec<u64>,
    /// VN each layer's weights were last written with (on-chip state).
    wgt_vn: Vec<Option<u64>>,
    /// Feature region base per edge; index 0 is the network input, index
    /// `i + 1` is layer `i`'s output.
    feat_base: Vec<u64>,
    /// Gradient region base per edge (mirrors `feat_base`; Figure 2b's
    /// `g_i` edges live at different addresses than `f_i`).
    grad_base: Vec<u64>,
    /// Weight-gradient region base per layer.
    wgrad_base: Vec<u64>,
    /// On-chip version counters.
    counters: VersionCounters,
}

impl DeviceMemory {
    /// Lays out regions for `network` over a fresh protected memory.
    pub fn new(mem: ProtectedMemory, network: &Network) -> Self {
        let mut cursor = ALIGN;
        let mut wgt_base = Vec::with_capacity(network.layers().len());
        let mut feat_base = Vec::with_capacity(network.layers().len() + 1);
        let input_bytes = network
            .layers()
            .first()
            .map_or(0, |l| l.input_elems() * ELEM_BYTES);
        feat_base.push(cursor);
        cursor += align_up(input_bytes.max(1));
        for layer in network.layers() {
            wgt_base.push(cursor);
            cursor += align_up((layer.weight_elems() * ELEM_BYTES).max(1));
            feat_base.push(cursor);
            cursor += align_up((layer.output_elems() * ELEM_BYTES).max(1));
        }
        // Gradient mirrors for training (Figure 2b).
        let mut grad_base = Vec::with_capacity(feat_base.len());
        let mut wgrad_base = Vec::with_capacity(network.layers().len());
        grad_base.push(cursor);
        cursor += align_up(input_bytes.max(1));
        for layer in network.layers() {
            wgrad_base.push(cursor);
            cursor += align_up((layer.weight_elems() * ELEM_BYTES).max(1));
            grad_base.push(cursor);
            cursor += align_up((layer.output_elems() * ELEM_BYTES).max(1));
        }
        let wgt_vn = vec![None; network.layers().len()];
        Self {
            mem,
            wgt_base,
            wgt_vn,
            feat_base,
            grad_base,
            wgrad_base,
            counters: VersionCounters::new(),
        }
    }

    /// The on-chip counters (the device's instruction handlers drive them).
    pub fn counters(&self) -> &VersionCounters {
        &self.counters
    }

    /// Mutable counter access.
    pub fn counters_mut(&mut self) -> &mut VersionCounters {
        &mut self.counters
    }

    /// Base address of feature region `edge` (0 = network input).
    pub fn feature_region(&self, edge: usize) -> u64 {
        self.feat_base[edge]
    }

    /// Base address of layer `layer`'s weights.
    pub fn weight_region(&self, layer: usize) -> u64 {
        self.wgt_base[layer]
    }

    /// Base address of gradient edge `edge` (mirrors
    /// [`DeviceMemory::feature_region`]).
    pub fn grad_region(&self, edge: usize) -> u64 {
        self.grad_base[edge]
    }

    /// Base address of layer `layer`'s weight-gradient region.
    pub fn wgrad_region(&self, layer: usize) -> u64 {
        self.wgrad_base[layer]
    }

    /// Writes a gradient tensor to `edge` under the current feature-write
    /// VN (gradients use the feature counter scheme at distinct addresses,
    /// §II-D).
    pub fn write_grad(&mut self, edge: usize, data: &[i32]) {
        let vn = self.counters.feature_write_vn();
        self.mem.write(self.grad_base[edge], &to_bytes(data), vn);
    }

    /// Reads a gradient tensor from `edge` using the host-supplied
    /// `CTR_F,R`.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::IntegrityViolation`] on MAC failure.
    pub fn read_grad(&self, edge: usize, elems: usize) -> Result<Vec<i32>, GuardNnError> {
        self.read_region(self.grad_base[edge], elems)
    }

    /// Writes a weight-gradient tensor for `layer` under the current
    /// feature-write VN.
    pub fn write_wgrad(&mut self, layer: usize, data: &[i32]) {
        let vn = self.counters.feature_write_vn();
        self.mem.write(self.wgrad_base[layer], &to_bytes(data), vn);
    }

    /// Reads a weight-gradient tensor using the host-supplied `CTR_F,R`.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::IntegrityViolation`] on MAC failure.
    pub fn read_wgrad(&self, layer: usize, elems: usize) -> Result<Vec<i32>, GuardNnError> {
        self.read_region(self.wgrad_base[layer], elems)
    }

    fn read_region(&self, base: u64, elems: usize) -> Result<Vec<i32>, GuardNnError> {
        if elems == 0 {
            return Ok(Vec::new());
        }
        let vn = self.counters.feature_read_vn(base).unwrap_or(0);
        let bytes = self
            .mem
            .read(base, elems * ELEM_BYTES as usize, vn)
            .map_err(|e| GuardNnError::IntegrityViolation {
                chunk_addr: e.chunk_addr,
            })?;
        Ok(decode_i32(&bytes))
    }

    /// Writes a weight tensor for `layer` under the current weight VN.
    pub fn write_weights(&mut self, layer: usize, data: &[i32]) {
        let vn = self.counters.weight_vn();
        self.mem.write(self.wgt_base[layer], &to_bytes(data), vn);
        self.wgt_vn[layer] = Some(vn);
    }

    /// Reads layer `layer`'s weights back with the VN they were written
    /// under (tracked on chip — weights are read-only during inference).
    ///
    /// # Errors
    ///
    /// [`GuardNnError::InvalidState`] if the weights were never imported;
    /// [`GuardNnError::IntegrityViolation`] on MAC failure.
    pub fn read_weights(&self, layer: usize, elems: usize) -> Result<Vec<i32>, GuardNnError> {
        let vn = self.wgt_vn[layer].ok_or(GuardNnError::InvalidState("weights not loaded"))?;
        if elems == 0 {
            return Ok(Vec::new());
        }
        let bytes = self
            .mem
            .read(self.wgt_base[layer], elems * ELEM_BYTES as usize, vn)
            .map_err(|e| GuardNnError::IntegrityViolation {
                chunk_addr: e.chunk_addr,
            })?;
        Ok(decode_i32(&bytes))
    }

    /// Writes a feature tensor to `edge` under the current feature-write VN.
    pub fn write_features(&mut self, edge: usize, data: &[i32]) {
        let vn = self.counters.feature_write_vn();
        self.mem.write(self.feat_base[edge], &to_bytes(data), vn);
    }

    /// Reads a feature tensor from `edge` using the **host-supplied**
    /// `CTR_F,R` for that address (`SetReadCTR`). A missing or wrong value
    /// garbles the data but never faults confidentiality.
    ///
    /// # Errors
    ///
    /// [`GuardNnError::IntegrityViolation`] when integrity is enabled and
    /// the MAC (which includes the VN) does not verify.
    pub fn read_features(&self, edge: usize, elems: usize) -> Result<Vec<i32>, GuardNnError> {
        if elems == 0 {
            return Ok(Vec::new());
        }
        let base = self.feat_base[edge];
        let vn = self.counters.feature_read_vn(base).unwrap_or(0);
        let bytes = self
            .mem
            .read(base, elems * ELEM_BYTES as usize, vn)
            .map_err(|e| GuardNnError::IntegrityViolation {
                chunk_addr: e.chunk_addr,
            })?;
        Ok(decode_i32(&bytes))
    }

    /// Raw ciphertext view for adversary experiments (physical access).
    pub fn protected_memory(&self) -> &ProtectedMemory {
        &self.mem
    }

    /// Mutable physical access for adversary experiments.
    pub fn protected_memory_mut(&mut self) -> &mut ProtectedMemory {
        &mut self.mem
    }
}

fn to_bytes(data: &[i32]) -> Vec<u8> {
    let mut out = encode_i32(data);
    // Pad to the 16-byte AES block granularity.
    out.resize(out.len().next_multiple_of(16), 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardnn_models::layer::fc;
    use guardnn_models::Network;

    fn setup(integrity: bool) -> (DeviceMemory, Network) {
        let net = Network::new("t", vec![fc("f1", 1, 8, 4), fc("f2", 1, 4, 2)]);
        let mem = ProtectedMemory::new(&[3u8; 16], integrity.then_some([4u8; 16]));
        (DeviceMemory::new(mem, &net), net)
    }

    #[test]
    fn weights_round_trip() {
        let (mut dm, _) = setup(true);
        dm.counters_mut().next_weight().expect("bump");
        let w: Vec<i32> = (0..32).collect();
        dm.write_weights(0, &w);
        assert_eq!(dm.read_weights(0, 32).unwrap(), w);
    }

    #[test]
    fn unloaded_weights_rejected() {
        let (dm, _) = setup(true);
        assert_eq!(
            dm.read_weights(0, 32).unwrap_err(),
            GuardNnError::InvalidState("weights not loaded")
        );
    }

    #[test]
    fn features_need_correct_read_ctr() {
        let (mut dm, _) = setup(false);
        dm.counters_mut().next_input().expect("bump");
        let data: Vec<i32> = (100..108).collect();
        dm.write_features(0, &data);
        let write_vn = dm.counters().feature_write_vn();
        // Correct CTR_F,R → round trip.
        let base = dm.feature_region(0);
        dm.counters_mut().set_read_ctr(base, base + 4096, write_vn);
        assert_eq!(dm.read_features(0, 8).unwrap(), data);
    }

    #[test]
    fn wrong_read_ctr_garbles_without_integrity() {
        let (mut dm, _) = setup(false);
        dm.counters_mut().next_input().expect("bump");
        let data: Vec<i32> = (0..8).collect();
        dm.write_features(0, &data);
        let base = dm.feature_region(0);
        dm.counters_mut().set_read_ctr(base, base + 4096, 0xDEAD);
        let garbled = dm.read_features(0, 8).unwrap();
        assert_ne!(garbled, data, "wrong VN must not decrypt correctly");
    }

    #[test]
    fn wrong_read_ctr_detected_with_integrity() {
        let (mut dm, _) = setup(true);
        dm.counters_mut().next_input().expect("bump");
        dm.write_features(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let base = dm.feature_region(0);
        dm.counters_mut().set_read_ctr(base, base + 4096, 0xDEAD);
        assert!(matches!(
            dm.read_features(0, 8),
            Err(GuardNnError::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn regions_distinct() {
        let (dm, net) = setup(false);
        let mut addrs = vec![dm.feature_region(0)];
        for i in 0..net.layers().len() {
            addrs.push(dm.weight_region(i));
            addrs.push(dm.feature_region(i + 1));
        }
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), addrs.len());
    }

    #[test]
    fn dram_is_ciphertext() {
        let (mut dm, _) = setup(false);
        dm.counters_mut().next_weight().expect("bump");
        let w = vec![0x01020304i32; 8];
        dm.write_weights(0, &w);
        let raw = dm.protected_memory().raw(dm.weight_region(0), 32);
        assert_ne!(raw, to_bytes(&w)[..32].to_vec());
    }
}
