//! Prediction identity across GELU kernel changes.
//!
//! `fixtures/gelu_prediction_identity.txt` holds the argmax labels and the
//! exact f32 logits of a seeded random-weight ViT-Base at the trainable scale
//! (32² images) on seeded inputs, recorded while GELU still evaluated `tanh`
//! through libm. Any later GELU kernel must reproduce every label exactly
//! and every logit within [`LOGIT_TOL`] · max(1, |logit|).
//!
//! Each fixture line is `label bits0 bits1 …`, where `bitsK` is the hex
//! `f32::to_bits` of logit K; lines starting with `#` are comments.

use edvit_tensor::init::TensorRng;
use edvit_vit::{ScaleProfile, ViTConfig, VisionTransformer};

const FIXTURE: &str = include_str!("fixtures/gelu_prediction_identity.txt");
const WEIGHT_SEED: u64 = 12;
const INPUT_SEED: u64 = 1012;
const IMAGES: usize = 32;
const CLASSES: usize = 10;
/// Relative logit tolerance. GELU is within 1e-6 · max(1, |x|) of the libm
/// reference; through four blocks and the head the logits moved by at most
/// 7.2e-7 when the rational `tanh` replaced libm, so this leaves 14× slack.
const LOGIT_TOL: f32 = 1e-5;

/// Runs the seeded model on the seeded images; returns `[IMAGES, CLASSES]`
/// logits as rows.
fn seeded_logits() -> Vec<Vec<f32>> {
    let config = ViTConfig::vit_base(CLASSES).scaled_down(&ScaleProfile::default());
    let mut model = VisionTransformer::new(&config, &mut TensorRng::new(WEIGHT_SEED))
        .expect("valid scaled-down config");
    let images = TensorRng::new(INPUT_SEED).randn(
        &[
            IMAGES,
            config.channels,
            config.image_size,
            config.image_size,
        ],
        0.0,
        1.0,
    );
    let logits = model.forward_images(&images).expect("forward");
    assert_eq!(logits.dims(), &[IMAGES, CLASSES]);
    logits.data().chunks(CLASSES).map(<[f32]>::to_vec).collect()
}

fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .fold((0, f32::NEG_INFINITY), |best, (i, &v)| {
            if v > best.1 {
                (i, v)
            } else {
                best
            }
        })
        .0
}

/// Parses the fixture into `(label, logits)` rows.
fn fixture_rows() -> Vec<(usize, Vec<f32>)> {
    FIXTURE
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let mut fields = line.split_whitespace();
            let label = fields
                .next()
                .and_then(|f| f.parse().ok())
                .expect("fixture label");
            let logits = fields
                .map(|f| f32::from_bits(u32::from_str_radix(f, 16).expect("fixture logit bits")))
                .collect();
            (label, logits)
        })
        .collect()
}

#[test]
fn seeded_vit_reproduces_recorded_labels_and_logits() {
    let expected = fixture_rows();
    let actual = seeded_logits();
    assert_eq!(expected.len(), IMAGES, "fixture row count");
    for (i, ((label, want), got)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(want.len(), CLASSES, "fixture row {i} width");
        // The fixture's label is the argmax of its own logits.
        assert_eq!(argmax(want), *label, "fixture row {i} label");
        assert_eq!(argmax(got), *label, "image {i} prediction changed");
        for (k, (&w, &g)) in want.iter().zip(got).enumerate() {
            let bound = LOGIT_TOL * w.abs().max(1.0);
            assert!(
                (w - g).abs() <= bound,
                "image {i} logit {k}: recorded {w}, got {g} (bound {bound})"
            );
        }
    }
}
