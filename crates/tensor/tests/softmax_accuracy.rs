//! Softmax error bounds: `softmax_slice` evaluates `exp` with the
//! polynomial `exp_poly` instead of libm. The helper must stay within 2e-7
//! relative of f64 `exp` on the softmax domain `[-87.3, 0]`, return exactly
//! 0 below `ln(f32::MIN_POSITIVE)`, and softmax rows must stay within 1e-6
//! absolute of an f64 reference.

use edvit_tensor::init::TensorRng;
use edvit_tensor::ops::{exp_poly, softmax_slice};

/// `ln(f32::MIN_POSITIVE)`: below it the true result is subnormal.
const LN_MIN_POSITIVE: f64 = -87.336_544_750_553_1;

#[test]
fn exp_relative_error_is_bounded_on_the_softmax_domain() {
    // Step 1e-4 over [-87.3, 0], plus the 2e4 f32 values just below 0.
    let grid = (0..=873_000).map(|i| -(i as f32) * 1e-4);
    let near_zero = (1..=20_000u32).map(|i| -f32::from_bits(i * 50_000));
    let mut worst = 0.0f64;
    for x in grid.chain(near_zero).filter(|&x| x >= -87.3) {
        let want = f64::from(x).exp();
        let rel = (f64::from(exp_poly(x)) - want).abs() / want;
        assert!(rel <= 2e-7, "exp_poly({x}): relative error {rel:e}");
        worst = worst.max(rel);
    }
    assert!(worst > 0.0);
}

#[test]
fn exp_below_the_domain_is_within_min_positive() {
    // From -87.3 down past the underflow cutoff to -200.
    for i in 0..=1_127_000 {
        let x = -87.3 - i as f32 * 1e-4;
        let err = (f64::from(exp_poly(x)) - f64::from(x).exp()).abs();
        assert!(
            err <= f64::from(f32::MIN_POSITIVE),
            "exp_poly({x}): absolute error {err:e}"
        );
        if f64::from(x) < LN_MIN_POSITIVE {
            assert_eq!(exp_poly(x), 0.0, "exp_poly({x}) must flush to 0");
        }
    }
    for x in [-1e4f32, -1e30, f32::MIN, f32::NEG_INFINITY] {
        assert_eq!(exp_poly(x), 0.0, "exp_poly({x})");
    }
}

#[test]
fn exp_is_exact_at_zero_and_propagates_nan() {
    assert_eq!(exp_poly(0.0), 1.0);
    assert_eq!(exp_poly(-0.0), 1.0);
    assert!(exp_poly(f32::NAN).is_nan());
}

#[test]
fn a_nan_row_stays_nan() {
    let mut all_nan = vec![f32::NAN; 11];
    softmax_slice(&mut all_nan);
    assert!(all_nan.iter().all(|v| v.is_nan()));

    let mut one_nan: Vec<f32> = (0..19).map(|i| i as f32 * 0.1).collect();
    one_nan[7] = f32::NAN;
    softmax_slice(&mut one_nan);
    assert!(one_nan.iter().all(|v| v.is_nan()));
}

/// Softmax in f64 with libm `exp`: the reference.
fn softmax_f64(row: &[f32]) -> Vec<f64> {
    let max = f64::from(row.iter().copied().fold(f32::NEG_INFINITY, f32::max));
    let exps: Vec<f64> = row.iter().map(|&x| (f64::from(x) - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

#[test]
fn softmax_rows_match_an_f64_reference() {
    let mut rng = TensorRng::new(0x5EED_50F7);
    // Lengths straddle the 8-lane blocks; 197 is the attention row.
    for len in [1usize, 2, 7, 8, 9, 16, 31, 197, 1000] {
        for std in [0.5f32, 2.0, 8.0, 40.0] {
            let mut row = rng.randn(&[len], 0.0, std).data().to_vec();
            if len > 2 {
                // A masked entry: exp(-inf) must stay 0.
                row[len / 2] = f32::NEG_INFINITY;
            }
            let want = softmax_f64(&row);
            softmax_slice(&mut row);
            for (i, (&got, &w)) in row.iter().zip(&want).enumerate() {
                let err = (f64::from(got) - w).abs();
                assert!(
                    err <= 1e-6,
                    "len {len} std {std} element {i}: {got} vs {w} (error {err:e})"
                );
            }
        }
    }
}
