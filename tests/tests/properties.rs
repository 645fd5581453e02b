//! Property-based tests (proptest) over the core invariants.

use guardnn::perf::{evaluate, EvalConfig, Mode, Scheme};
use guardnn_crypto::cmac::Cmac;
use guardnn_crypto::ctr::AesCtr;
use guardnn_crypto::sha256::Sha256;
use guardnn_dram::{DramConfig, DramSink, DramSystem};
use guardnn_memprot::cache::MetaCache;
use guardnn_memprot::functional::ProtectedMemory;
use guardnn_memprot::vn::VersionCounters;
use guardnn_models::graph::ExecutionPlan;
use guardnn_models::layer::{conv, fc};
use guardnn_models::{ConvSpec, Network, Op};
use guardnn_targets::{builtin_targets, registry, HardwareTarget, TargetError};
use proptest::prelude::*;

/// Parses `text` and validates whatever parses: every outcome must be
/// `Ok` or a typed error, never a panic (the caller's test would fail).
fn parse_and_validate(text: &str) -> Result<HardwareTarget, TargetError> {
    let target = HardwareTarget::parse(text)?;
    target.validate()?;
    Ok(target)
}

/// One mutation of a target file, picked by `op`: a byte replaced, a line
/// dropped, duplicated or swapped with its successor, or a line's
/// indentation grown or shrunk.
fn mutate(text: &str, op: u64) -> String {
    let pick = |n: usize| ((op >> 8) % n.max(1) as u64) as usize;
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let i = pick(lines.len());
    match op % 6 {
        0 => {
            let mut bytes = text.as_bytes().to_vec();
            let at = pick(bytes.len());
            bytes[at] = (op >> 40) as u8;
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        1 => {
            lines.remove(i);
        }
        2 => {
            let line = lines[i].clone();
            lines.insert(i, line);
        }
        3 if i + 1 < lines.len() => lines.swap(i, i + 1),
        4 => lines[i].insert_str(0, &" ".repeat(1 + (op >> 40) as usize % 3)),
        _ => {
            let trimmed = lines[i].trim_start().to_string();
            let indent = lines[i].len() - trimmed.len();
            lines[i] = format!(
                "{}{trimmed}",
                " ".repeat(indent.saturating_sub(1 + (op >> 40) as usize % 2))
            );
        }
    }
    lines.join("\n") + "\n"
}

proptest! {
    /// AES-CTR is an involution for any (address, version, data).
    #[test]
    fn ctr_round_trip(addr in 0u64..1 << 40, vn in any::<u64>(), data in proptest::collection::vec(any::<u8>(), 1..256)) {
        let addr = addr & !0xF; // 16-byte aligned
        let ctr = AesCtr::new(&[0x33; 16]);
        let mut buf = data.clone();
        ctr.apply_range(addr, vn, &mut buf);
        ctr.apply_range(addr, vn, &mut buf);
        prop_assert_eq!(buf, data);
    }

    /// Distinct (address, VN) pairs produce distinct keystream pads.
    #[test]
    fn ctr_pads_distinct(a1 in 0u64..1 << 30, a2 in 0u64..1 << 30, v1 in any::<u64>(), v2 in any::<u64>()) {
        prop_assume!((a1, v1) != (a2, v2));
        let ctr = AesCtr::new(&[0x44; 16]);
        let p1 = ctr.pad(guardnn_crypto::ctr::CounterBlock::new(a1, v1));
        let p2 = ctr.pad(guardnn_crypto::ctr::CounterBlock::new(a2, v2));
        prop_assert_ne!(p1, p2);
    }

    /// CMAC verification accepts the genuine tag and rejects any single
    /// bit flip in the message.
    #[test]
    fn cmac_detects_bit_flips(data in proptest::collection::vec(any::<u8>(), 1..128), bit in 0usize..1024) {
        let cmac = Cmac::new(&[0x55; 16]);
        let tag = cmac.compute(&data);
        prop_assert!(cmac.verify(&data, &tag));
        let mut mutated = data.clone();
        let idx = (bit / 8) % mutated.len();
        mutated[idx] ^= 1 << (bit % 8);
        prop_assert!(!cmac.verify(&mutated, &tag));
    }

    /// Streaming SHA-256 equals one-shot for any split point.
    #[test]
    fn sha256_streaming_consistent(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// Protected memory against a flat byte-array model of the DRAM
    /// ciphertext: overlapping aligned writes under one VN, across page
    /// and chunk boundaries, leave exactly the model's bytes in DRAM
    /// (zeros where nothing was written), every written range reads back
    /// its latest plaintext, and only written pages exist.
    #[test]
    fn protected_memory_round_trip(
        base in (0u64..1 << 20).prop_map(|a| a & !0xF),
        vn in any::<u64>(),
        writes in proptest::collection::vec(any::<u64>(), 1..6),
        fill in any::<u8>(),
    ) {
        // A window of three pages plus a chunk, from any aligned start.
        const SPAN: usize = 3 * 4096 + 512;
        let key = [0x66; 16];
        let mut mem = ProtectedMemory::new(&key, Some([0x77; 16]));
        let ctr = AesCtr::new(&key);
        let mut model = vec![0u8; SPAN];
        let mut ranges = Vec::new();
        for (i, w) in writes.iter().enumerate() {
            let offset = (w % (SPAN as u64 - 16)) as usize & !0xF;
            let len = 1 + (w >> 32) as usize % (SPAN - offset).min(2100);
            let data: Vec<u8> = (0..len).map(|j| fill ^ (i * 31 + j) as u8).collect();
            let addr = base + offset as u64;
            mem.write(addr, &data, vn);
            let mut ct = data.clone();
            ctr.apply_range(addr, vn, &mut ct);
            model[offset..offset + len].copy_from_slice(&ct);
            ranges.push((offset, len, data));
        }
        prop_assert_eq!(mem.raw(base, SPAN), model.clone());
        for (offset, len, _) in &ranges {
            let back = mem.read(base + *offset as u64, *len, vn).expect("verified read");
            let mut expected = model[*offset..offset + len].to_vec();
            ctr.apply_range(base + *offset as u64, vn, &mut expected);
            prop_assert_eq!(back, expected);
        }
        let (offset, len, data) = ranges.last().expect("at least one write");
        prop_assert_eq!(&mem.read(base + *offset as u64, *len, vn).expect("verified"), data);
        if *len >= 16 {
            // 16+ bytes of randomized CTR output colliding with plaintext
            // is astronomically unlikely.
            prop_assert_ne!(&mem.raw(base + *offset as u64, *len), data);
        }
        let pages: std::collections::BTreeSet<u64> = ranges
            .iter()
            .flat_map(|(o, l, _)| (base + *o as u64) / 4096..=(base + (o + l - 1) as u64) / 4096)
            .collect();
        prop_assert_eq!(mem.page_count(), pages.len());
    }

    /// Any tamper of any ciphertext byte inside a MACed chunk is detected.
    #[test]
    fn protected_memory_detects_tamper(offset in 0u64..512) {
        let mut mem = ProtectedMemory::new(&[0x66; 16], Some([0x77; 16]));
        mem.write(0, &[0xC3; 512], 9);
        mem.tamper(offset, 0x80);
        prop_assert!(mem.read(0, 512, 9).is_err());
    }

    /// Feature-write VNs never repeat over any interleaving of inputs and
    /// passes.
    #[test]
    fn vn_uniqueness(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let mut vc = VersionCounters::new();
        vc.next_input().expect("far from exhaustion");
        let mut seen = std::collections::HashSet::new();
        seen.insert(vc.feature_write_vn());
        for new_input in ops {
            if new_input {
                vc.next_input().expect("far from exhaustion");
            } else {
                vc.next_feature_write().expect("far from exhaustion");
            }
            prop_assert!(seen.insert(vc.feature_write_vn()), "VN reused");
        }
    }

    /// Cache invariant: the same line never produces two consecutive
    /// misses without an intervening eviction, and flush is idempotent.
    #[test]
    fn cache_no_double_miss(addrs in proptest::collection::vec(0u64..1 << 16, 1..100)) {
        let mut cache = MetaCache::new(64 << 10, 8); // big enough: no evictions
        for &a in &addrs {
            cache.access(a, false);
            let second = cache.access(a, false);
            prop_assert!(second.hit);
        }
        prop_assert!(cache.flush_dirty().is_empty()); // nothing dirty
    }

    /// The im2col GEMM mapping preserves MAC counts for arbitrary convs.
    #[test]
    fn conv_gemm_macs_preserved(
        in_c in 1usize..16, out_c in 1usize..16, k in 1usize..5,
        stride in 1usize..3, hw in 4usize..32, depthwise in any::<bool>(),
    ) {
        let spec = ConvSpec {
            in_c,
            out_c: if depthwise { in_c } else { out_c },
            kh: k, kw: k, stride,
            pad: k / 2,
            in_h: hw, in_w: hw,
            depthwise,
        };
        let layer = guardnn_models::Layer::new("c", Op::Conv(spec));
        let gemm = layer.to_gemm().expect("conv maps");
        prop_assert_eq!(gemm.macs(), layer.macs());
    }

    /// Training plans always run every forward before any backward, and
    /// backward GEMMs preserve the forward MAC count.
    #[test]
    fn training_plan_invariants(batch in 1usize..5, seed in 0i32..100) {
        let _ = seed;
        let net = Network::new("p", vec![conv("c", 8, 2, 4, 3, 1, 1), fc("f", 1, 256, 10)]);
        let plan = ExecutionPlan::training(&net, batch);
        let first_bwd = plan
            .passes()
            .iter()
            .position(|p| p.kind != guardnn_models::graph::PassKind::Forward);
        if let Some(idx) = first_bwd {
            prop_assert!(plan.passes()[..idx]
                .iter()
                .all(|p| p.kind == guardnn_models::graph::PassKind::Forward));
        }
        prop_assert!(plan.total_bytes(1) > 0);
    }

    /// The target parser never panics: arbitrary bytes, and byte, line and
    /// indentation mutations of every built-in target file, parse and
    /// validate to `Ok` or a typed `TargetError`.
    #[test]
    fn target_parser_never_panics(
        noise in proptest::collection::vec(any::<u8>(), 0..400),
        ops in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        let _ = parse_and_validate(&String::from_utf8_lossy(&noise));
        for name in registry::names() {
            let source = registry::source(name).expect("registered target has a source");
            let mut text = source.to_string();
            for &op in &ops {
                text = mutate(&text, op);
                let _ = parse_and_validate(&text);
            }
        }
    }

    /// Whatever geometry and timing `validate` accepts simulates: a short
    /// mixed run of single accesses and block ranges drains without a
    /// panic and counts every request pushed, and a tiny network
    /// evaluates under every scheme, in inference and in training.
    #[test]
    fn validated_targets_simulate(
        geometry in proptest::collection::vec(any::<u64>(), 8),
        timing in proptest::collection::vec(1u64..48, 14),
        accesses in proptest::collection::vec(any::<u64>(), 1..96),
    ) {
        let mut target = builtin_targets()[0].clone();
        let d = &mut target.dram;
        d.channels = 1 + geometry[0] % 4;
        // Geometry and timing are drawn from the ranges `validate`
        // accepts (power-of-two ranks and banks, a window the 128-slot
        // ring holds, ccd_s <= ccd_l), so nearly every case simulates;
        // the target crate's `semantic_violations_name_the_field` and
        // `target_parser_never_panics` above cover rejected inputs.
        d.ranks = [1, 2, 4, 8][(geometry[1] % 4) as usize];
        d.bank_groups = 1 + geometry[2] % 4;
        d.banks_per_group = [1, 2, 4, 8][(geometry[3] % 4) as usize];
        d.access_bytes = [32, 64, 128][(geometry[4] % 3) as usize];
        d.row_bytes = d.access_bytes * (1 + geometry[5] % 64);
        d.sched_window = 1 + geometry[6] % 127;
        let t = &mut d.timing;
        let [cl, rcd, rp, ras, ccd_l, ccd_s, rrd, faw, wr, wtr, rtw, rfc, refi, bl] =
            timing[..] else { unreachable!("14 timing values") };
        let (ccd_s, ccd_l) = (ccd_s.min(ccd_l), ccd_s.max(ccd_l));
        (t.cl, t.rcd, t.rp, t.ras, t.ccd_l, t.ccd_s, t.rrd) = (cl, rcd, rp, ras, ccd_l, ccd_s, rrd);
        (t.faw, t.wr, t.wtr, t.rtw, t.rfc) = (faw, wr, wtr, rtw, rfc);
        t.refi = refi * (1 + geometry[7] % 400);
        t.bl = 2 * (1 + bl % 8);
        match target.validate() {
            Err(TargetError::Invalid { .. }) => return Ok(()),
            Err(other) => prop_assert!(false, "validate returned {other:?}"),
            Ok(()) => {}
        }
        let mut dram = DramSystem::new(DramConfig::from_target(&target));
        let mut pushed = 0u64;
        for &a in &accesses {
            let addr = a % (1 << 34);
            let is_write = a >> 63 == 1;
            if a & 1 == 0 {
                dram.access(addr, is_write);
                pushed += 1;
            } else {
                let blocks = (a >> 40) % 40;
                DramSink::access_range(&mut dram, addr & !63, blocks, is_write);
                pushed += blocks;
            }
        }
        let stats = dram.finish();
        prop_assert_eq!(stats.reads + stats.writes, pushed);

        // Every 64-B block of data and metadata is one DRAM request, and
        // confidentiality alone adds no traffic and no time to NP.
        let cfg = EvalConfig::from_target(&target);
        let net = Network::new("tiny", vec![conv("c", 8, 4, 8, 3, 1, 1), fc("f", 1, 512, 10)]);
        for mode in [Mode::Inference, Mode::Training { batch: 2 }] {
            let runs = Scheme::all().map(|scheme| evaluate(&net, mode, scheme, &cfg));
            for r in &runs {
                let requests = r.dram.reads + r.dram.writes;
                prop_assert!(
                    requests * 64 == r.data_bytes + r.meta_bytes,
                    "{} {:?}: {} requests for {} data and {} metadata bytes",
                    r.scheme,
                    mode,
                    requests,
                    r.data_bytes,
                    r.meta_bytes
                );
            }
            let [np, gc, ..] = &runs;
            prop_assert_eq!((np.scheme, gc.scheme), ("NP", "GuardNN_C"));
            prop_assert_eq!(gc.dram, np.dram);
            prop_assert_eq!(gc.exec_ns.to_bits(), np.exec_ns.to_bits());
        }
    }
}
