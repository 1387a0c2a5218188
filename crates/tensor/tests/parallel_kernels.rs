//! Property tests for the blocked parallel matmul kernels: every parallel /
//! blocked variant must agree with the naive sequential reference, and the
//! thread count must never change the result.
//!
//! The CI workflow runs this suite twice — once with the default thread count
//! and once with `EDVIT_THREADS=1` — so the global-pool paths are exercised
//! both parallel and sequential. The explicit-pool tests below additionally
//! pit 1-thread and 8-thread pools against each other inside one process.

use edvit_parallel::ParallelPool;
use edvit_tensor::{init::TensorRng, kernels, ops};

/// Relative tolerance: the blocked/FMA kernels re-associate sums, so results
/// differ from the naive reference only by rounding.
const TOL: f32 = 1e-5;

fn assert_close(got: &[f32], expected: &[f32], context: &str) {
    assert_eq!(got.len(), expected.len(), "{context}: length mismatch");
    for (i, (x, y)) in got.iter().zip(expected).enumerate() {
        let scale = 1.0 + y.abs();
        assert!(
            (x - y).abs() <= TOL * scale,
            "{context}: element {i} differs: {x} vs {y}"
        );
    }
}

/// Random shapes covering the degenerate (0, 1) dimensions, the remainder
/// paths of the 4-row/8-column register tiles, the packing block edges
/// (`NC` = 128, `KC` = 256) and sizes straddling the parallel threshold
/// (`m·k·n` around 2²⁰).
fn interesting_shapes(rng: &mut TensorRng) -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (0, 3, 4),
        (3, 0, 4),
        (3, 4, 0),
        (1, 1, 1),
        (1, 7, 1),
        (4, 4, 4),
        (5, 3, 9),
        (31, 33, 35),
        (64, 64, 64),
        (4, 257, 129),
        (130, 127, 129),
        // Straddle PAR_WORK_THRESHOLD = 2^20 ≈ 101.6³.
        (101, 101, 101),
        (102, 102, 102),
        (128, 64, 128),
        (96, 300, 64),
        // Attention: Q·Kᵀ and attn·V at ViT-Small 224² (197 tokens, heads
        // of width 32), and a tiny-head shape.
        (197, 32, 197),
        (197, 197, 32),
        (17, 3, 17),
        // Transposed-pack edges: k one past KC, n one past NC.
        (6, 257, 50),
        (10, 33, 129),
    ];
    // A few fuzzed shapes per run (seeded, so reproducible).
    for _ in 0..6 {
        let d = |r: &mut TensorRng| (r.rand_uniform(&[1], 0.0, 1.0).data()[0] * 90.0) as usize + 1;
        shapes.push((d(rng), d(rng), d(rng)));
    }
    shapes
}

#[test]
fn blocked_parallel_matmul_matches_reference() {
    let mut rng = TensorRng::new(0xB10C);
    let pool = ParallelPool::new(8);
    for (m, k, n) in interesting_shapes(&mut rng) {
        let a = rng.rand_uniform(&[(m * k).max(1)], -1.0, 1.0).data()[..m * k].to_vec();
        let b = rng.rand_uniform(&[(k * n).max(1)], -1.0, 1.0).data()[..k * n].to_vec();
        let mut expected = vec![0.0f32; m * n];
        kernels::matmul_reference(&a, &b, &mut expected, m, k, n);
        let mut got = vec![0.0f32; m * n];
        kernels::matmul(&a, &b, &mut got, m, k, n, &pool);
        assert_close(&got, &expected, &format!("matmul {m}x{k}x{n}"));
    }
}

#[test]
fn one_thread_and_eight_threads_agree_bitwise() {
    // The EDVIT_THREADS=1 / EDVIT_THREADS=8 contract, in-process: chunk
    // boundaries move with the thread count but each output row keeps its
    // accumulation order, so results must be bit-identical — not just close.
    let seq_pool = ParallelPool::new(1);
    let par_pool = ParallelPool::new(8);
    let mut rng = TensorRng::new(0x7EAD);
    for (m, k, n) in interesting_shapes(&mut rng) {
        let a = rng.rand_uniform(&[(m * k).max(1)], -1.0, 1.0).data()[..m * k].to_vec();
        let b = rng.rand_uniform(&[(k * n).max(1)], -1.0, 1.0).data()[..k * n].to_vec();

        let mut seq = vec![0.0f32; m * n];
        kernels::matmul(&a, &b, &mut seq, m, k, n, &seq_pool);
        let mut par = vec![0.0f32; m * n];
        kernels::matmul(&a, &b, &mut par, m, k, n, &par_pool);
        assert_eq!(seq, par, "matmul {m}x{k}x{n} differs across thread counts");

        let bt: Vec<f32> = rng.rand_uniform(&[(n * k).max(1)], -1.0, 1.0).data()[..n * k].to_vec();
        let mut seq_t = vec![0.0f32; m * n];
        kernels::matmul_transposed(&a, &bt, &mut seq_t, m, k, n, &seq_pool);
        let mut par_t = vec![0.0f32; m * n];
        kernels::matmul_transposed(&a, &bt, &mut par_t, m, k, n, &par_pool);
        assert_eq!(seq_t, par_t, "matmul_transposed {m}x{k}x{n} differs");
    }
}

#[test]
fn transposed_parallel_matches_reference() {
    let mut rng = TensorRng::new(0x7A43);
    let pool = ParallelPool::new(8);
    for (m, k, n) in interesting_shapes(&mut rng) {
        let a = rng.rand_uniform(&[(m * k).max(1)], -1.0, 1.0).data()[..m * k].to_vec();
        let bt = rng.rand_uniform(&[(n * k).max(1)], -1.0, 1.0).data()[..n * k].to_vec();
        // Materialize B from Bᵀ for the reference.
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut expected = vec![0.0f32; m * n];
        kernels::matmul_reference(&a, &b, &mut expected, m, k, n);
        let mut got = vec![0.0f32; m * n];
        kernels::matmul_transposed(&a, &bt, &mut got, m, k, n, &pool);
        assert_close(&got, &expected, &format!("matmul_transposed {m}x{k}x{n}"));
    }
}

#[test]
fn every_row_equals_its_one_row_product_bitwise() {
    // Row-position invariance: the m % 4 leftover rows run a 1-row kernel
    // with the 4-row kernel's arithmetic, so any row of an m-row product
    // equals the 1-row product of that row alone, for both layouts and at
    // every thread count. Shapes cover m % 4 ∈ {1, 2, 3}, n % 16 tails, the
    // KC/NC block edges and the parallel path.
    let mut rng = TensorRng::new(0x2011);
    for threads in [1, 8] {
        let pool = ParallelPool::new(threads);
        for (m, k, n) in [
            (5usize, 192usize, 192usize),
            (6, 40, 37),
            (7, 300, 145),
            (9, 17, 8),
            (197, 32, 197),
            (103, 101, 101),
        ] {
            let a = rng.rand_uniform(&[m * k], -1.0, 1.0).data().to_vec();
            let b = rng.rand_uniform(&[k * n], -1.0, 1.0).data().to_vec();
            let bt = rng.rand_uniform(&[n * k], -1.0, 1.0).data().to_vec();
            let mut full = vec![0.0f32; m * n];
            kernels::matmul(&a, &b, &mut full, m, k, n, &pool);
            let mut full_t = vec![0.0f32; m * n];
            kernels::matmul_transposed(&a, &bt, &mut full_t, m, k, n, &pool);
            for i in 0..m {
                let row = &a[i * k..(i + 1) * k];
                let mut one = vec![0.0f32; n];
                kernels::matmul(row, &b, &mut one, 1, k, n, &pool);
                assert_eq!(
                    &full[i * n..(i + 1) * n],
                    one.as_slice(),
                    "matmul {m}x{k}x{n} row {i} ({threads} threads)"
                );
                let mut one_t = vec![0.0f32; n];
                kernels::matmul_transposed(row, &bt, &mut one_t, 1, k, n, &pool);
                assert_eq!(
                    &full_t[i * n..(i + 1) * n],
                    one_t.as_slice(),
                    "matmul_transposed {m}x{k}x{n} row {i} ({threads} threads)"
                );
            }
        }
    }
}

#[test]
fn batch_matmul_parallel_matches_reference() {
    let mut rng = TensorRng::new(0xBA7C);
    let pool = ParallelPool::new(8);
    // Shapes chosen to hit all three batch strategies: large per-batch
    // (parallel inside), many small batches (parallel across), and tiny
    // (sequential).
    for (bt, m, k, n) in [(1usize, 128, 80, 128), (24, 24, 24, 24), (3, 4, 5, 6)] {
        let a = rng.rand_uniform(&[bt * m * k], -1.0, 1.0).data().to_vec();
        let b = rng.rand_uniform(&[bt * k * n], -1.0, 1.0).data().to_vec();
        let mut got = vec![0.0f32; bt * m * n];
        kernels::batch_matmul(&a, &b, &mut got, bt, m, k, n, &pool);
        for bi in 0..bt {
            let mut expected = vec![0.0f32; m * n];
            kernels::matmul_reference(
                &a[bi * m * k..(bi + 1) * m * k],
                &b[bi * k * n..(bi + 1) * k * n],
                &mut expected,
                m,
                k,
                n,
            );
            assert_close(
                &got[bi * m * n..(bi + 1) * m * n],
                &expected,
                &format!("batch {bi} of {bt}x{m}x{k}x{n}"),
            );
        }
    }
}

#[test]
fn tensor_level_ops_use_global_pool_and_match_reference() {
    // Tensor::matmul goes through ParallelPool::global() — whatever
    // EDVIT_THREADS says, the result must match the reference (this is the
    // test the CI runs under both EDVIT_THREADS=1 and the default).
    let mut rng = TensorRng::new(0x6E0);
    for (m, k, n) in [(130usize, 127usize, 129usize), (7, 257, 65)] {
        let a = rng.rand_uniform(&[m, k], -1.0, 1.0);
        let b = rng.rand_uniform(&[k, n], -1.0, 1.0);
        let mut expected = vec![0.0f32; m * n];
        kernels::matmul_reference(a.data(), b.data(), &mut expected, m, k, n);
        let got = a.matmul(&b).unwrap();
        assert_close(
            got.data(),
            &expected,
            &format!("Tensor::matmul {m}x{k}x{n}"),
        );

        let got_t = a.matmul_transposed(&b.transpose().unwrap()).unwrap();
        assert_close(
            got_t.data(),
            &expected,
            &format!("Tensor::matmul_transposed {m}x{k}x{n}"),
        );
    }
}

/// Row-op shapes straddling the parallel threshold (2^14 elements) and the
/// rows-per-chunk grouping: tiny rows, huge rows, a single row, ragged counts.
fn row_shapes() -> Vec<(usize, usize)> {
    vec![
        (1, 8),
        (3, 5),
        (16, 16),    // 256 elements: sequential path
        (196, 768),  // ViT-Base token grid: parallel path
        (4096, 8),   // many tiny rows: chunk grouping
        (1, 32_768), // one huge row: single chunk
        (257, 129),  // ragged, threshold-straddling
        (64, 256),   // exactly 2^14: boundary
    ]
}

#[test]
fn softmax_layernorm_gelu_are_bitwise_identical_across_thread_counts() {
    // The EDVIT_THREADS=1 vs EDVIT_THREADS=4 contract for the row-wise
    // activation/normalization kernels: chunk boundaries move with the
    // thread count, but every row (or element, for GELU) is computed by the
    // same sequential code — so the outputs must be bit-identical, not just
    // close.
    let seq_pool = ParallelPool::new(1);
    let par_pool = ParallelPool::new(4);
    let mut rng = TensorRng::new(0x50F7);
    for (rows, cols) in row_shapes() {
        let base = rng.randn(&[rows * cols], 0.0, 2.0).data().to_vec();
        let gamma: Vec<f32> = rng.rand_uniform(&[cols], 0.5, 1.5).data().to_vec();
        let beta: Vec<f32> = rng.rand_uniform(&[cols], -0.5, 0.5).data().to_vec();

        let mut seq = base.clone();
        ops::softmax_rows(&mut seq, cols, &seq_pool);
        let mut par = base.clone();
        ops::softmax_rows(&mut par, cols, &par_pool);
        assert_eq!(
            seq, par,
            "softmax {rows}x{cols} differs across thread counts"
        );
        // Reference: the public per-row slice kernel, row by row.
        let mut reference = base.clone();
        for row in reference.chunks_mut(cols) {
            ops::softmax_slice(row);
        }
        assert_eq!(
            seq, reference,
            "softmax {rows}x{cols} diverged from per-row kernel"
        );

        let mut seq = base.clone();
        ops::layer_norm_rows(&mut seq, cols, &gamma, &beta, &seq_pool);
        let mut par = base.clone();
        ops::layer_norm_rows(&mut par, cols, &gamma, &beta, &par_pool);
        assert_eq!(
            seq, par,
            "layernorm {rows}x{cols} differs across thread counts"
        );
        let mut reference = base.clone();
        for row in reference.chunks_mut(cols) {
            ops::layer_norm_slice(row, &gamma, &beta);
        }
        assert_eq!(
            seq, reference,
            "layernorm {rows}x{cols} diverged from per-row kernel"
        );

        let mut seq = base.clone();
        ops::gelu_map(&mut seq, &seq_pool);
        let mut par = base.clone();
        ops::gelu_map(&mut par, &par_pool);
        assert_eq!(seq, par, "gelu {rows}x{cols} differs across thread counts");
        let reference: Vec<f32> = base.iter().map(|&x| ops::gelu_scalar(x)).collect();
        assert_eq!(
            seq, reference,
            "gelu {rows}x{cols} diverged from scalar kernel"
        );
    }
}

#[test]
fn tensor_row_ops_use_global_pool_and_stay_bitwise_stable() {
    // Tensor::softmax_last_axis / layer_norm_last_axis / gelu go through
    // ParallelPool::global(); whatever EDVIT_THREADS says, they must equal
    // the sequential per-row kernels bit for bit (CI runs this under both
    // EDVIT_THREADS=1 and =4).
    use edvit_tensor::Tensor;
    let mut rng = TensorRng::new(0xB17);
    let x = rng.randn(&[196, 768], 0.0, 1.0);
    let cols = 768;

    let softmax = x.softmax_last_axis().unwrap();
    let mut reference = x.data().to_vec();
    for row in reference.chunks_mut(cols) {
        ops::softmax_slice(row);
    }
    assert_eq!(softmax.data(), reference.as_slice());

    let gamma = rng.rand_uniform(&[cols], 0.5, 1.5);
    let beta = rng.rand_uniform(&[cols], -0.5, 0.5);
    let normed = x.layer_norm_last_axis(&gamma, &beta).unwrap();
    let mut reference = x.data().to_vec();
    for row in reference.chunks_mut(cols) {
        ops::layer_norm_slice(row, gamma.data(), beta.data());
    }
    assert_eq!(normed.data(), reference.as_slice());

    let activated = x.gelu();
    let reference: Vec<f32> = x.data().iter().map(|&v| ops::gelu_scalar(v)).collect();
    assert_eq!(activated.data(), reference.as_slice());
    // Shape-preserving, and empty tensors stay legal.
    assert_eq!(activated.dims(), x.dims());
    assert_eq!(Tensor::zeros(&[0]).gelu().numel(), 0);
}

#[test]
fn matvec_outer_dot_match_naive() {
    let mut rng = TensorRng::new(0xD07);
    let a = rng.rand_uniform(&[37, 53], -1.0, 1.0);
    let v = rng.rand_uniform(&[53], -1.0, 1.0);
    let got = a.matvec(&v).unwrap();
    for i in 0..37 {
        let naive: f32 = (0..53).map(|j| a.data()[i * 53 + j] * v.data()[j]).sum();
        assert!((got.data()[i] - naive).abs() <= TOL * (1.0 + naive.abs()));
    }

    let u = rng.rand_uniform(&[19], -1.0, 1.0);
    let w = rng.rand_uniform(&[23], -1.0, 1.0);
    let outer = u.outer(&w).unwrap();
    for i in 0..19 {
        for j in 0..23 {
            assert_eq!(outer.data()[i * 23 + j], u.data()[i] * w.data()[j]);
        }
    }

    let naive_dot: f32 = v.data().iter().map(|x| x * x).sum();
    assert!((v.dot(&v).unwrap() - naive_dot).abs() <= TOL * (1.0 + naive_dot.abs()));
}

#[test]
fn matvec_and_outer_handle_zero_dims() {
    use edvit_tensor::Tensor;
    // [3, 0] · [0] -> [3] of zeros (empty contraction).
    let a = Tensor::zeros(&[3, 0]);
    let v = Tensor::zeros(&[0]);
    let out = a.matvec(&v).unwrap();
    assert_eq!(out.dims(), &[3]);
    assert_eq!(out.data(), &[0.0, 0.0, 0.0]);
    // [2] ⊗ [0] -> [2, 0] and [0] ⊗ [3] -> [0, 3], both empty.
    let u = Tensor::zeros(&[2]);
    let empty = Tensor::zeros(&[0]);
    assert_eq!(u.outer(&empty).unwrap().dims(), &[2, 0]);
    let w = Tensor::zeros(&[3]);
    assert_eq!(empty.outer(&w).unwrap().dims(), &[0, 3]);
}

#[test]
fn layer_norm_training_kernels_are_bitwise_identical_across_thread_counts() {
    // The forward/backward layer-norm kernels used by `edvit_nn::LayerNorm`:
    // per-row math is identical at every thread count, and the parameter
    // gradients fold fixed row-chunks in a fixed order, so all five outputs
    // (x_hat, out, inv_std, grad_x, grad_gamma/grad_beta) must be
    // bit-identical between a 1-thread and a 4-thread pool.
    let seq_pool = ParallelPool::new(1);
    let par_pool = ParallelPool::new(4);
    let mut rng = TensorRng::new(0x1A7E);
    for (rows, cols) in row_shapes() {
        if cols == 0 || rows == 0 {
            continue;
        }
        let x = rng.randn(&[rows * cols], 0.0, 2.0).data().to_vec();
        let g = rng.randn(&[rows * cols], 0.0, 1.0).data().to_vec();
        let gamma: Vec<f32> = rng.rand_uniform(&[cols], 0.5, 1.5).data().to_vec();
        let beta: Vec<f32> = rng.rand_uniform(&[cols], -0.5, 0.5).data().to_vec();

        let run_forward = |pool: &ParallelPool| {
            let mut x_hat = vec![0.0f32; rows * cols];
            let mut out = vec![0.0f32; rows * cols];
            let mut inv_std = vec![0.0f32; rows];
            ops::layer_norm_forward_rows(
                &x,
                cols,
                &gamma,
                &beta,
                &mut x_hat,
                &mut out,
                &mut inv_std,
                pool,
            );
            (x_hat, out, inv_std)
        };
        let (x_hat, out, inv_std) = run_forward(&seq_pool);
        assert_eq!(
            run_forward(&par_pool),
            (x_hat.clone(), out.clone(), inv_std.clone()),
            "layernorm forward {rows}x{cols} differs across thread counts"
        );
        // The affine output matches the inference kernel up to rounding (it
        // multiplies by 1/std instead of dividing by std).
        let mut reference = x.clone();
        for row in reference.chunks_mut(cols) {
            ops::layer_norm_slice(row, &gamma, &beta);
        }
        assert_close(&out, &reference, &format!("layernorm fwd {rows}x{cols}"));

        let run_backward = |pool: &ParallelPool| {
            let mut grad_x = vec![0.0f32; rows * cols];
            ops::layer_norm_backward_rows(&g, &x_hat, &inv_std, cols, &gamma, &mut grad_x, pool);
            let (gg, gb) = ops::layer_norm_param_grads_rows(&g, &x_hat, cols, pool);
            (grad_x, gg, gb)
        };
        let (grad_x, grad_gamma, grad_beta) = run_backward(&seq_pool);
        assert_eq!(
            run_backward(&par_pool),
            (grad_x, grad_gamma.clone(), grad_beta.clone()),
            "layernorm backward {rows}x{cols} differs across thread counts"
        );
        // Parameter gradients agree with a naive row-order accumulation up
        // to the reassociation introduced by chunked folding.
        let mut naive_gamma = vec![0.0f32; cols];
        let mut naive_beta = vec![0.0f32; cols];
        for r in 0..rows {
            for i in 0..cols {
                naive_gamma[i] += g[r * cols + i] * x_hat[r * cols + i];
                naive_beta[i] += g[r * cols + i];
            }
        }
        assert_close(
            &grad_gamma,
            &naive_gamma,
            &format!("grad_gamma {rows}x{cols}"),
        );
        assert_close(&grad_beta, &naive_beta, &format!("grad_beta {rows}x{cols}"));
    }
}
