//! Integer tensor kernels for functional DNN execution.
//!
//! The FPGA prototype in the paper demonstrates *functional correctness*:
//! the protected accelerator computes the same outputs as the unprotected
//! one. This module provides the compute kernels the device model uses for
//! that demonstration — straightforward integer implementations of the
//! [`guardnn_models::Op`] operators on i32 values. The GEMMs sum in i64
//! and truncate to i32; `conv2d` accumulates with wrapping i32 arithmetic,
//! which gives the same bits (both reduce mod 2³²).
//!
//! Shapes come from the layer description; data is laid out row-major
//! (features as `[channel][height][width]`, GEMM operands as `[row][col]`).

use crate::error::GuardNnError;
use guardnn_models::{ConvSpec, Layer, Op};

/// Executes one layer: `input` (and `weights` for parameterized layers) →
/// output vector.
///
/// # Errors
///
/// Returns [`GuardNnError::ShapeMismatch`] when the operand lengths do not
/// match the layer description.
pub fn forward_layer(
    layer: &Layer,
    input: &[i32],
    weights: &[i32],
) -> Result<Vec<i32>, GuardNnError> {
    check_len(input, layer.input_elems() as usize)?;
    check_len(weights, layer.weight_elems() as usize)?;
    match &layer.op {
        Op::Conv(spec) => Ok(conv2d(spec, input, weights)),
        Op::Gemm(g) => Ok(gemm(g.m, g.k, g.n, input, weights)),
        Op::AttnMatmul(g) => {
            // Both operands are activations: input = A ‖ B.
            let a_len = g.m * g.k;
            Ok(gemm(g.m, g.k, g.n, &input[..a_len], &input[a_len..]))
        }
        Op::Embedding { rows, dim, lookups } => embedding(*rows, *dim, *lookups, input, weights),
        Op::Eltwise {
            elems,
            reads_per_elem,
        } => Ok(eltwise_max(*elems, *reads_per_elem, input)),
    }
}

fn check_len(data: &[i32], expected: usize) -> Result<(), GuardNnError> {
    if data.len() != expected {
        Err(GuardNnError::ShapeMismatch {
            expected,
            actual: data.len(),
        })
    } else {
        Ok(())
    }
}

/// 2-D convolution (optionally depthwise). Input is `[in_c][in_h][in_w]`,
/// weights `[out_c][in_c][kh][kw]` (or `[c][kh][kw]` when depthwise),
/// output `[out_c][out_h][out_w]`.
///
/// The input is first lowered (im2col): row `(ic, ky, kx)` of the lowered
/// matrix holds, for every output pixel, the input pixel that kernel tap
/// reads, or zero where it reads padding. The rows are filled once per
/// input channel, using the output rows and columns at which each tap
/// lands inside the image, so no tap tests bounds. Each output plane is
/// then a weighted sum of whole lowered rows. Accumulation wraps in `i32`,
/// which is bit-identical to an exact sum truncated to `i32` (both reduce
/// mod 2³²).
pub fn conv2d(spec: &ConvSpec, input: &[i32], weights: &[i32]) -> Vec<i32> {
    let (oh, ow) = (spec.out_h(), spec.out_w());
    let pixels = oh * ow;
    let in_plane = spec.in_h * spec.in_w;
    let taps = spec.kh * spec.kw;
    let rows: Vec<(usize, usize)> = (0..spec.kh)
        .map(|ky| tap_outputs(ky, spec.pad, spec.stride, spec.in_h, oh))
        .collect();
    let cols: Vec<(usize, usize)> = (0..spec.kw)
        .map(|kx| tap_outputs(kx, spec.pad, spec.stride, spec.in_w, ow))
        .collect();
    let mut lowered = vec![0i32; spec.in_c * taps * pixels];
    for (ic, tap_rows) in lowered.chunks_exact_mut(taps * pixels).enumerate() {
        let x = &input[ic * in_plane..(ic + 1) * in_plane];
        for (tap, row) in tap_rows.chunks_exact_mut(pixels).enumerate() {
            let (ky, kx) = (tap / spec.kw, tap % spec.kw);
            let ((oy0, oy1), (ox0, ox1)) = (rows[ky], cols[kx]);
            if ox0 == ox1 {
                continue;
            }
            for oy in oy0..oy1 {
                let iy = oy * spec.stride + ky - spec.pad;
                let ix0 = ox0 * spec.stride + kx - spec.pad;
                let src = x[iy * spec.in_w + ix0..].iter().step_by(spec.stride);
                for (d, &v) in row[oy * ow + ox0..oy * ow + ox1].iter_mut().zip(src) {
                    *d = v;
                }
            }
        }
    }
    // A depthwise kernel reads its own channel's `taps` rows; a full
    // kernel reads every row.
    let per_out = if spec.depthwise {
        taps
    } else {
        spec.in_c * taps
    };
    let mut out = vec![0i32; spec.out_c * pixels];
    for (oc, plane) in out.chunks_exact_mut(pixels).enumerate() {
        let first = if spec.depthwise { oc * taps } else { 0 };
        let kernel = &weights[oc * per_out..(oc + 1) * per_out];
        let inputs = lowered[first * pixels..(first + per_out) * pixels].chunks_exact(pixels);
        for (&w, row) in kernel.iter().zip(inputs) {
            for (d, &v) in plane.iter_mut().zip(row) {
                *d = d.wrapping_add(v.wrapping_mul(w));
            }
        }
    }
    out
}

/// The output positions `[lo, hi)` (of `outputs` along one axis) at which
/// kernel offset `k` reads inside the input of length `len`, i.e. where
/// `0 <= o * stride + k - pad < len`.
fn tap_outputs(k: usize, pad: usize, stride: usize, len: usize, outputs: usize) -> (usize, usize) {
    let hi = if len + pad > k {
        ((len + pad - k - 1) / stride + 1).min(outputs)
    } else {
        0
    };
    let lo = pad.saturating_sub(k).div_ceil(stride).min(hi);
    (lo, hi)
}

/// Row-major GEMM: `C[m×n] = A[m×k] · B[k×n]`.
pub fn gemm(m: usize, k: usize, n: usize, a: &[i32], b: &[i32]) -> Vec<i32> {
    let mut c = vec![0i32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i64;
            for p in 0..k {
                acc += a[i * k + p] as i64 * b[p * n + j] as i64;
            }
            c[i * n + j] = acc as i32;
        }
    }
    c
}

/// Embedding gather: `input` holds `lookups` row indices; output is the
/// concatenation of the gathered rows.
fn embedding(
    rows: usize,
    dim: usize,
    lookups: usize,
    indices: &[i32],
    table: &[i32],
) -> Result<Vec<i32>, GuardNnError> {
    let mut out = Vec::with_capacity(lookups * dim);
    for &idx in indices.iter().take(lookups) {
        let row = idx.rem_euclid(rows as i32) as usize;
        out.extend_from_slice(&table[row * dim..(row + 1) * dim]);
    }
    Ok(out)
}

/// Elementwise group-max: `out[i] = max(in[r·i .. r·i + r])` — models ReLU
/// (r = 1 after clamping below at 0 is *not* applied; pure data movement)
/// and pooling / residual-select (r > 1).
fn eltwise_max(elems: usize, reads_per_elem: usize, input: &[i32]) -> Vec<i32> {
    (0..elems)
        .map(|i| {
            input[i * reads_per_elem..(i + 1) * reads_per_elem]
                .iter()
                .copied()
                .max()
                .unwrap_or(0)
        })
        .collect()
}

/// ReLU helper used by hand-built functional networks.
pub fn relu(data: &mut [i32]) {
    for v in data.iter_mut() {
        *v = (*v).max(0);
    }
}

/// Gradients of one layer: `(d_input, d_weights)`.
pub type LayerGrads = (Vec<i32>, Vec<i32>);

/// Backward pass of one layer: given the stashed forward `input`, the
/// `weights`, and the output gradient `d_out`, computes the input gradient
/// and the weight gradient (Figure 2b of the paper: edges `g_i` and `w*`).
///
/// # Errors
///
/// Returns [`GuardNnError::ShapeMismatch`] when operand lengths do not
/// match the layer description.
pub fn backward_layer(
    layer: &Layer,
    input: &[i32],
    weights: &[i32],
    d_out: &[i32],
) -> Result<LayerGrads, GuardNnError> {
    check_len(input, layer.input_elems() as usize)?;
    check_len(weights, layer.weight_elems() as usize)?;
    check_len(d_out, layer.output_elems() as usize)?;
    match &layer.op {
        Op::Conv(spec) => Ok(conv2d_backward(spec, input, weights, d_out)),
        Op::Gemm(g) => {
            // dA = dC · Bᵀ ; dB = Aᵀ · dC.
            let d_in = gemm_bt(g.m, g.n, g.k, d_out, weights);
            let d_w = gemm_at(g.k, g.m, g.n, input, d_out);
            Ok((d_in, d_w))
        }
        Op::AttnMatmul(g) => {
            let a_len = g.m * g.k;
            let (a, b) = input.split_at(a_len);
            let mut d_in = gemm_bt(g.m, g.n, g.k, d_out, b);
            d_in.extend(gemm_at(g.k, g.m, g.n, a, d_out));
            Ok((d_in, Vec::new()))
        }
        Op::Embedding { rows, dim, lookups } => {
            // Indices get no gradient; the table gets scatter-adds.
            let mut d_table = vec![0i32; rows * dim];
            for (i, &idx) in input.iter().take(*lookups).enumerate() {
                let row = idx.rem_euclid(*rows as i32) as usize;
                for d in 0..*dim {
                    d_table[row * dim + d] =
                        d_table[row * dim + d].wrapping_add(d_out[i * dim + d]);
                }
            }
            Ok((vec![0i32; *lookups], d_table))
        }
        Op::Eltwise {
            elems,
            reads_per_elem,
        } => {
            // Group-max: the gradient routes to the argmax of each group.
            let r = *reads_per_elem;
            let mut d_in = vec![0i32; elems * r];
            for i in 0..*elems {
                let group = &input[i * r..(i + 1) * r];
                let argmax = group
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &v)| v)
                    .map(|(j, _)| j)
                    .unwrap_or(0);
                d_in[i * r + argmax] = d_out[i];
            }
            Ok((d_in, Vec::new()))
        }
    }
}

/// `C[m×k] = A[m×n] · B[k×n]ᵀ` — the `dA = dC·Bᵀ` shape.
fn gemm_bt(m: usize, n: usize, k: usize, a: &[i32], b: &[i32]) -> Vec<i32> {
    let mut c = vec![0i32; m * k];
    for i in 0..m {
        for j in 0..k {
            let mut acc = 0i64;
            for p in 0..n {
                acc += a[i * n + p] as i64 * b[j * n + p] as i64;
            }
            c[i * k + j] = acc as i32;
        }
    }
    c
}

/// `C[k×n] = A[m×k]ᵀ · B[m×n]` — the `dB = Aᵀ·dC` shape.
fn gemm_at(k: usize, m: usize, n: usize, a: &[i32], b: &[i32]) -> Vec<i32> {
    let mut c = vec![0i32; k * n];
    for i in 0..k {
        for j in 0..n {
            let mut acc = 0i64;
            for p in 0..m {
                acc += a[p * k + i] as i64 * b[p * n + j] as i64;
            }
            c[i * n + j] = acc as i32;
        }
    }
    c
}

/// Direct convolution backward: input and weight gradients by accumulation
/// over output positions.
fn conv2d_backward(spec: &ConvSpec, input: &[i32], weights: &[i32], d_out: &[i32]) -> LayerGrads {
    let (oh, ow) = (spec.out_h(), spec.out_w());
    let in_plane = spec.in_h * spec.in_w;
    let mut d_in = vec![0i64; input.len()];
    let mut d_w = vec![0i64; weights.len()];
    for oc in 0..spec.out_c {
        for oy in 0..oh {
            for ox in 0..ow {
                let g = d_out[oc * oh * ow + oy * ow + ox] as i64;
                if g == 0 {
                    continue;
                }
                let channels: Box<dyn Iterator<Item = usize>> = if spec.depthwise {
                    Box::new(std::iter::once(oc))
                } else {
                    Box::new(0..spec.in_c)
                };
                for ic in channels {
                    for ky in 0..spec.kh {
                        for kx in 0..spec.kw {
                            let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if iy < 0
                                || ix < 0
                                || iy >= spec.in_h as isize
                                || ix >= spec.in_w as isize
                            {
                                continue;
                            }
                            let in_idx = ic * in_plane + iy as usize * spec.in_w + ix as usize;
                            let w_idx = if spec.depthwise {
                                oc * spec.kh * spec.kw + ky * spec.kw + kx
                            } else {
                                ((oc * spec.in_c + ic) * spec.kh + ky) * spec.kw + kx
                            };
                            d_in[in_idx] += weights[w_idx] as i64 * g;
                            d_w[w_idx] += input[in_idx] as i64 * g;
                        }
                    }
                }
            }
        }
    }
    (
        d_in.into_iter().map(|v| v as i32).collect(),
        d_w.into_iter().map(|v| v as i32).collect(),
    )
}

/// Integer SGD step: `w ← w − dw / 2^lr_shift`, with division truncating
/// toward zero so that sub-threshold gradients of either sign produce no
/// update (an arithmetic shift would bias negative gradients by −1).
pub fn sgd_step(weights: &mut [i32], d_weights: &[i32], lr_shift: u32) {
    let divisor = 1i32 << lr_shift;
    for (w, dw) in weights.iter_mut().zip(d_weights.iter()) {
        *w = w.wrapping_sub(dw / divisor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardnn_models::layer::{conv, dwconv, fc};
    use guardnn_models::Gemm;

    /// The per-pixel kernel `conv2d` replaced (i64 sums, a bounds test
    /// per tap), kept as its differential reference.
    fn conv2d_direct(spec: &ConvSpec, input: &[i32], weights: &[i32]) -> Vec<i32> {
        let (oh, ow) = (spec.out_h(), spec.out_w());
        let mut out = vec![0i32; spec.out_c * oh * ow];
        let in_plane = spec.in_h * spec.in_w;
        for oc in 0..spec.out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0i64;
                    let channels: Box<dyn Iterator<Item = usize>> = if spec.depthwise {
                        Box::new(std::iter::once(oc))
                    } else {
                        Box::new(0..spec.in_c)
                    };
                    for ic in channels {
                        for ky in 0..spec.kh {
                            for kx in 0..spec.kw {
                                let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                                let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                if iy < 0
                                    || ix < 0
                                    || iy >= spec.in_h as isize
                                    || ix >= spec.in_w as isize
                                {
                                    continue;
                                }
                                let x =
                                    input[ic * in_plane + iy as usize * spec.in_w + ix as usize];
                                let w = if spec.depthwise {
                                    weights[oc * spec.kh * spec.kw + ky * spec.kw + kx]
                                } else {
                                    weights[((oc * spec.in_c + ic) * spec.kh + ky) * spec.kw + kx]
                                };
                                acc += x as i64 * w as i64;
                            }
                        }
                    }
                    out[oc * oh * ow + oy * ow + ox] = acc as i32;
                }
            }
        }
        out
    }

    /// splitmix64, the seeded source of the differential test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn conv2d_matches_direct_reference() {
        let mut seed = 0xC0_4E;
        let mut pick = |n: usize| (splitmix(&mut seed) % n as u64) as usize;
        let mut shapes = vec![
            // 1x1, depthwise, and kernels wider than the input plus one
            // side's padding (some taps reach no output at all).
            (3, 4, 1, 1, 1, 0, 5, 6, false),
            (4, 4, 3, 3, 2, 1, 7, 7, true),
            (2, 3, 4, 5, 1, 1, 2, 3, false),
            (1, 2, 5, 3, 3, 2, 1, 4, false),
            (3, 3, 4, 4, 2, 3, 2, 2, true),
        ];
        for _ in 0..300 {
            let depthwise = pick(4) == 0;
            let in_c = 1 + pick(4);
            let out_c = if depthwise { in_c } else { 1 + pick(4) };
            let (stride, pad) = (1 + pick(3), pick(4));
            let (kh, kw) = (1 + pick(5), 1 + pick(5));
            // Inputs down to 1 pixel, as long as the padded input holds
            // the kernel.
            let in_h = (1 + pick(9)).max(kh.saturating_sub(2 * pad));
            let in_w = (1 + pick(9)).max(kw.saturating_sub(2 * pad));
            shapes.push((in_c, out_c, kh, kw, stride, pad, in_h, in_w, depthwise));
        }
        for (in_c, out_c, kh, kw, stride, pad, in_h, in_w, depthwise) in shapes {
            let spec = ConvSpec {
                in_c,
                out_c,
                kh,
                kw,
                stride,
                pad,
                in_h,
                in_w,
                depthwise,
            };
            let per_out = if depthwise { 1 } else { in_c };
            // Products reach 2^54 and wrap in i32, while the reference's
            // exact i64 sums stay in range.
            let input: Vec<i32> = (0..in_c * in_h * in_w)
                .map(|_| splitmix(&mut seed) as i32 >> 8)
                .collect();
            let weights: Vec<i32> = (0..out_c * per_out * kh * kw)
                .map(|_| splitmix(&mut seed) as i32 >> (splitmix(&mut seed) % 32))
                .collect();
            assert_eq!(
                conv2d(&spec, &input, &weights),
                conv2d_direct(&spec, &input, &weights),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn gemm_identity() {
        // 2x2 identity times arbitrary matrix.
        let a = vec![1, 0, 0, 1];
        let b = vec![5, -3, 7, 9];
        assert_eq!(gemm(2, 2, 2, &a, &b), b);
    }

    #[test]
    fn gemm_known_product() {
        // [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50]
        let a = vec![1, 2, 3, 4];
        let b = vec![5, 6, 7, 8];
        assert_eq!(gemm(2, 2, 2, &a, &b), vec![19, 22, 43, 50]);
    }

    #[test]
    fn conv_1x1_is_channel_mix() {
        // 1x1 conv over a 2x2 image with 2-in 1-out channels = per-pixel dot.
        let spec = ConvSpec {
            in_c: 2,
            out_c: 1,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
            in_h: 2,
            in_w: 2,
            depthwise: false,
        };
        let input = vec![1, 2, 3, 4, 10, 20, 30, 40]; // ch0 then ch1
        let weights = vec![1, 100];
        assert_eq!(
            conv2d(&spec, &input, &weights),
            vec![1001, 2002, 3003, 4004]
        );
    }

    #[test]
    fn conv_3x3_center_tap() {
        // A kernel with only the center tap set copies the image.
        let spec = ConvSpec {
            in_c: 1,
            out_c: 1,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
            in_h: 3,
            in_w: 3,
            depthwise: false,
        };
        let input: Vec<i32> = (1..=9).collect();
        let mut weights = vec![0; 9];
        weights[4] = 1;
        assert_eq!(conv2d(&spec, &input, &weights), input);
    }

    #[test]
    fn conv_stride_and_padding() {
        let l = conv("c", 4, 1, 1, 3, 2, 1);
        let Op::Conv(spec) = &l.op else {
            panic!("conv")
        };
        assert_eq!((spec.out_h(), spec.out_w()), (2, 2));
        let input = vec![1i32; 16];
        let weights = vec![1i32; 9];
        let out = conv2d(spec, &input, &weights);
        assert_eq!(out.len(), 4);
        // Corner output (0,0) covers a 2x2 valid window... kernel centers at
        // (0,0) with pad 1 → 4 valid taps.
        assert_eq!(out[0], 4);
    }

    #[test]
    fn depthwise_channels_independent() {
        let l = dwconv("dw", 2, 2, 1, 1, 0);
        let Op::Conv(spec) = &l.op else {
            panic!("conv")
        };
        let input = vec![1, 1, 1, 1, 2, 2, 2, 2];
        let weights = vec![10, 100]; // per-channel 1x1 taps
        assert_eq!(
            conv2d(spec, &input, &weights),
            vec![10, 10, 10, 10, 200, 200, 200, 200]
        );
    }

    #[test]
    fn forward_layer_validates_shapes() {
        let l = fc("f", 1, 4, 2);
        let err = forward_layer(&l, &[1, 2, 3], &[0; 8]).unwrap_err();
        assert_eq!(
            err,
            GuardNnError::ShapeMismatch {
                expected: 4,
                actual: 3
            }
        );
        let err = forward_layer(&l, &[1, 2, 3, 4], &[0; 7]).unwrap_err();
        assert_eq!(
            err,
            GuardNnError::ShapeMismatch {
                expected: 8,
                actual: 7
            }
        );
    }

    #[test]
    fn eltwise_group_max_pools() {
        let l = Layer::new(
            "pool",
            Op::Eltwise {
                elems: 2,
                reads_per_elem: 2,
            },
        );
        let out = forward_layer(&l, &[1, 5, -3, -7], &[]).expect("eltwise");
        assert_eq!(out, vec![5, -3]);
    }

    #[test]
    fn embedding_gathers_rows() {
        let l = Layer::new(
            "emb",
            Op::Embedding {
                rows: 4,
                dim: 2,
                lookups: 3,
            },
        );
        let table = vec![0, 0, 10, 11, 20, 21, 30, 31];
        let out = forward_layer(&l, &[1, 3, 1], &table).expect("embedding");
        assert_eq!(out, vec![10, 11, 30, 31, 10, 11]);
    }

    #[test]
    fn attn_matmul_splits_input() {
        let l = Layer::new("attn", Op::AttnMatmul(Gemm { m: 2, k: 2, n: 2 }));
        // A = I, B = [[1,2],[3,4]] concatenated in the input operand.
        let input = vec![1, 0, 0, 1, 1, 2, 3, 4];
        assert_eq!(
            forward_layer(&l, &input, &[]).expect("attn"),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn relu_clamps() {
        let mut v = vec![-5, 0, 5];
        relu(&mut v);
        assert_eq!(v, vec![0, 0, 5]);
    }

    #[test]
    fn gemm_backward_matches_finite_difference() {
        // For linear ops, f(x + e_i) - f(x) exactly equals the Jacobian
        // column; check d_in and d_w via that identity on a small FC.
        let l = fc("f", 2, 3, 2);
        let input = vec![1, 2, 3, 4, 5, 6]; // 2x3
        let weights = vec![1, -1, 0, 2, 3, -2]; // 3x2
        let d_out = vec![1, 0, 0, 1]; // select elements (0,0) and (1,1)
        let (d_in, d_w) = backward_layer(&l, &input, &weights, &d_out).expect("backward");
        // d_in = d_out · Wᵀ.
        assert_eq!(d_in, vec![1, 0, 3, -1, 2, -2]);
        // d_w = Xᵀ · d_out.
        assert_eq!(d_w, vec![1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn conv_backward_center_tap_identity() {
        // Center-tap kernel: forward is identity, so d_in == d_out and
        // d_w[center] == <input, d_out>.
        let spec = ConvSpec {
            in_c: 1,
            out_c: 1,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
            in_h: 3,
            in_w: 3,
            depthwise: false,
        };
        let l = Layer::new("c", Op::Conv(spec));
        let input: Vec<i32> = (1..=9).collect();
        let mut weights = vec![0; 9];
        weights[4] = 1;
        let d_out = vec![1, 0, 0, 0, 2, 0, 0, 0, 3];
        let (d_in, d_w) = backward_layer(&l, &input, &weights, &d_out).expect("backward");
        assert_eq!(d_in, d_out);
        assert_eq!(d_w[4], 1 + 2 * 5 + 3 * 9);
    }

    #[test]
    fn eltwise_backward_routes_to_argmax() {
        let l = Layer::new(
            "pool",
            Op::Eltwise {
                elems: 2,
                reads_per_elem: 2,
            },
        );
        let input = vec![1, 5, -3, -7];
        let (d_in, d_w) = backward_layer(&l, &input, &[], &[10, 20]).expect("backward");
        assert_eq!(d_in, vec![0, 10, 20, 0]);
        assert!(d_w.is_empty());
    }

    #[test]
    fn embedding_backward_scatter_adds() {
        let l = Layer::new(
            "emb",
            Op::Embedding {
                rows: 4,
                dim: 2,
                lookups: 3,
            },
        );
        let table = vec![0; 8];
        let indices = vec![1, 3, 1];
        let d_out = vec![1, 2, 3, 4, 5, 6];
        let (_, d_table) = backward_layer(&l, &indices, &table, &d_out).expect("backward");
        // Row 1 accumulates lookups 0 and 2; row 3 gets lookup 1.
        assert_eq!(d_table, vec![0, 0, 6, 8, 0, 0, 3, 4]);
    }

    #[test]
    fn attn_backward_shapes() {
        let l = Layer::new("attn", Op::AttnMatmul(Gemm { m: 2, k: 2, n: 2 }));
        let input = vec![1, 0, 0, 1, 1, 2, 3, 4]; // A = I, B
        let (d_in, d_w) = backward_layer(&l, &input, &[], &[1, 1, 1, 1]).expect("backward");
        assert_eq!(d_in.len(), 8);
        assert!(d_w.is_empty());
        // dA = dC·Bᵀ with B = [[1,2],[3,4]] → each dA row = [3, 7].
        assert_eq!(&d_in[..4], &[3, 7, 3, 7]);
        // dB = Aᵀ·dC with A = I → dB = dC.
        assert_eq!(&d_in[4..], &[1, 1, 1, 1]);
    }

    #[test]
    fn backward_validates_shapes() {
        let l = fc("f", 1, 4, 2);
        let err = backward_layer(&l, &[1, 2, 3, 4], &[0; 8], &[1]).unwrap_err();
        assert_eq!(
            err,
            GuardNnError::ShapeMismatch {
                expected: 2,
                actual: 1
            }
        );
    }

    #[test]
    fn sgd_step_divides() {
        let mut w = vec![100, -100, 7];
        sgd_step(&mut w, &[16, -16, 4], 2);
        assert_eq!(w, vec![96, -96, 6]);
    }

    #[test]
    fn sgd_step_symmetric_for_small_gradients() {
        // Sub-threshold gradients of either sign must yield no update.
        let mut w = vec![10, 10];
        sgd_step(&mut w, &[3, -3], 2);
        assert_eq!(w, vec![10, 10]);
    }
}
