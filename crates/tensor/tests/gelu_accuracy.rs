//! GELU error bound: `gelu_scalar` evaluates `tanh` with a clamped rational
//! polynomial; it must stay within 1e-6 · max(1, |x|) of the same formula
//! evaluated in f64 with libm `tanh`, and propagate NaN.

use edvit_tensor::ops::{gelu_grad_scalar, gelu_scalar};

/// The tanh-approximated GELU in f64 with libm `tanh`: the reference.
fn gelu_f64_libm(x: f32) -> f64 {
    let x = f64::from(x);
    let sqrt_2_over_pi = (2.0 / std::f64::consts::PI).sqrt();
    0.5 * x * (1.0 + (sqrt_2_over_pi * (x + 0.044_715 * x * x * x)).tanh())
}

/// Checks the bound at `x`; returns the error relative to the bound.
fn check(x: f32) -> f64 {
    let got = f64::from(gelu_scalar(x));
    let want = gelu_f64_libm(x);
    let bound = 1e-6 * f64::from(x.abs()).max(1.0);
    let err = (got - want).abs();
    assert!(
        err <= bound,
        "gelu({x}) = {got}, reference {want}: error {err:e} > {bound:e}"
    );
    err / bound
}

#[test]
fn gelu_error_is_bounded_on_a_dense_grid() {
    // Step 1e-4 over [-10, 10]: every regime of tanh, including the clamp
    // at |inner| = 7.905 (|x| ≈ 4.84).
    let worst = (-100_000..=100_000)
        .map(|i| check(i as f32 * 1e-4))
        .fold(0.0, f64::max);
    assert!(worst <= 1.0);
}

#[test]
fn gelu_error_is_bounded_at_large_magnitudes() {
    // Geometric grid from 10 to 1e4, both signs.
    let steps = 20_000;
    for i in 0..=steps {
        let x = 10f32 * 1000f32.powf(i as f32 / steps as f32);
        check(x);
        check(-x);
    }
    check(1e4);
    check(-1e4);
}

#[test]
fn gelu_special_values() {
    assert_eq!(gelu_scalar(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(gelu_scalar(-0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(gelu_scalar(f32::INFINITY), f32::INFINITY);
    // 0.5 · (−∞) · (1 + tanh(−∞)) is −∞ · 0: NaN, as in the f64 reference.
    assert!(gelu_f64_libm(f32::NEG_INFINITY).is_nan());
    assert!(gelu_scalar(f32::NEG_INFINITY).is_nan());
    assert!(gelu_scalar(f32::NAN).is_nan());
    assert!(gelu_scalar(-f32::NAN).is_nan());
    assert!(gelu_grad_scalar(f32::NAN).is_nan());
}

#[test]
fn gelu_saturates_exactly() {
    // Past the clamp the rational is exactly ±1, so GELU is exactly x on the
    // right and exactly (negative) zero on the left; x³ may overflow to ∞.
    for x in [5.0f32, 20.0, 1e4, 1e30] {
        assert_eq!(gelu_scalar(x), x);
        assert_eq!(gelu_scalar(-x), 0.0);
    }
}
