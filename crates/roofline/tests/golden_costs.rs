//! Golden values for the Table 3 evaluation: `layer_cost` over a
//! sampled shape grid on three cluster/model pairs must reproduce the
//! recorded bit patterns exactly. Figure and report output depends on
//! every bit, so any refactor of the cost formulas (reordered float
//! ops, hoisted terms) that moves a single ulp fails here.
//!
//! The digests were recorded from the memoized implementation that
//! preceded direct evaluation. To re-record after a deliberate model
//! change, run `cargo test -p seesaw-roofline --test golden_costs --
//! --nocapture` and copy the printed digests.

use seesaw_hw::ClusterSpec;
use seesaw_model::presets;
use seesaw_roofline::{BatchShape, LayerCost, Roofline, Stage};

fn shape_grid() -> Vec<(Stage, BatchShape)> {
    let mut shapes = Vec::new();
    for seqs in [1usize, 2, 8, 32] {
        for len in [16usize, 128, 512, 3000] {
            shapes.push((Stage::Prefill, BatchShape::prefill(&vec![len; seqs])));
            shapes.push((Stage::Decode, BatchShape::decode_uniform(seqs, len)));
        }
    }
    for (chunk, prefix) in [(256, 0), (256, 1024), (512, 4096)] {
        shapes.push((Stage::Prefill, BatchShape::prefill_chunk(chunk, prefix)));
    }
    shapes.push((Stage::Prefill, BatchShape::empty()));
    shapes
}

fn cost_bits(c: &LayerCost) -> [u64; 5] {
    [
        c.linear_dm.to_bits(),
        c.linear_comp.to_bits(),
        c.attn_dm.to_bits(),
        c.attn_comp.to_bits(),
        c.comm.to_bits(),
    ]
}

/// FNV-1a over the little-endian bytes of every word, in order.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of every component's bit pattern over the grid × TP ∈ {1,
/// 2, 4, 8}, plus the bits of one named evaluation for readable
/// failures.
fn grid_digest(rl: &Roofline) -> (u64, [u64; 5]) {
    let mut words = Vec::new();
    for (stage, shape) in shape_grid() {
        for tp in [1usize, 2, 4, 8] {
            words.extend(cost_bits(&rl.layer_cost(stage, &shape, tp)));
        }
    }
    let probe = rl.layer_cost(Stage::Decode, &BatchShape::decode_uniform(8, 512), 2);
    (fnv1a(words), cost_bits(&probe))
}

#[test]
fn layer_cost_bits_match_the_recorded_golden_values() {
    let cases: [(&str, ClusterSpec, _, u64, [u64; 5]); 3] = [
        (
            "a10x8/codellama-34b",
            ClusterSpec::a10x8(),
            presets::codellama_34b(),
            0x3dfa_e161_732a_9a00,
            [
                0x3f56_3b96_f032_42df,
                0x3f15_1c51_ce37_18e1,
                0x3ef1_3f4b_335a_30c5,
                0x3eb6_849b_86a1_2b9b,
                0x3f1e_8342_346b_8bf5,
            ],
        ),
        (
            "l4x8/llama2-13b",
            ClusterSpec::l4x8(),
            presets::llama2_13b(),
            0xf7ac_d279_8efd_f73d,
            [
                0x3f54_614a_5c2e_12a1,
                0x3f03_fdba_12cb_72b6,
                0x3f25_8f1e_0030_bcf7,
                0x3ead_13f7_6127_ecac,
                0x3f1a_ef4d_7418_7ed4,
            ],
        ),
        (
            "a100x8-nvlink/llama2-70b",
            ClusterSpec::a100x8_nvlink(),
            presets::llama2_70b(),
            0x7959_5926_57b1_cc90,
            [
                0x3f45_3662_a9c1_a6fe,
                0x3f04_e9ed_fc08_09bb,
                0x3eda_9e99_ee20_30ef,
                0x3ea2_0b13_982f_1774,
                0x3ef5_9515_880a_5667,
            ],
        ),
    ];
    for (name, cluster, model, digest, probe) in cases {
        let (got_digest, got_probe) = grid_digest(&Roofline::new(cluster, model));
        println!("{name}: 0x{got_digest:016x} {got_probe:#018x?}");
        assert_eq!(got_probe, probe, "{name}: decode 8x512 tp2 component bits");
        assert_eq!(got_digest, digest, "{name}: grid digest");
    }
}

#[test]
fn repeated_evaluation_is_bit_stable() {
    let rl = Roofline::new(ClusterSpec::a10x8(), presets::codellama_34b());
    assert_eq!(grid_digest(&rl), grid_digest(&rl));
}
