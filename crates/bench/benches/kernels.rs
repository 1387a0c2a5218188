//! Criterion micro-benchmarks of the hot kernels underlying every experiment:
//! dense matmul, attention forward, KL divergence scoring and softmax.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edvit_nn::{Layer, MultiHeadSelfAttention};
use edvit_tensor::{init::TensorRng, stats, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    // 1024 is where the row-split parallel path dominates (2^30 MACs, far
    // past the 2^20 threshold): on a multi-core runner it shows the pool's
    // scaling, on a 1-core runner the blocked kernel's single-thread ceiling.
    for &size in &[32usize, 64, 128, 256, 512, 1024] {
        let a = TensorRng::new(0).rand_uniform(&[size, size], -1.0, 1.0);
        let b = TensorRng::new(1).rand_uniform(&[size, size], -1.0, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bench, _| {
            bench.iter(|| a.matmul(&b).unwrap());
        });
    }
    group.finish();
}

fn bench_matmul_transposed(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_transposed");
    for &size in &[128usize, 256, 512] {
        let a = TensorRng::new(0).rand_uniform(&[size, size], -1.0, 1.0);
        let b = TensorRng::new(1).rand_uniform(&[size, size], -1.0, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bench, _| {
            bench.iter(|| a.matmul_transposed(&b).unwrap());
        });
    }
    group.finish();
}

fn bench_batch_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_matmul");
    for &(batch, size) in &[(8usize, 64usize), (8, 128)] {
        let a = TensorRng::new(0).rand_uniform(&[batch, size, size], -1.0, 1.0);
        let b = TensorRng::new(1).rand_uniform(&[batch, size, size], -1.0, 1.0);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{batch}x{size}")),
            &size,
            |bench, _| bench.iter(|| a.batch_matmul(&b).unwrap()),
        );
    }
    group.finish();
}

fn bench_attention_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("mhsa_forward");
    // 197tok_192d_6h is the ViT-Small 224² sub-model shape the end-to-end
    // stream workload runs (six heads of width 32 over 196 patches + CLS).
    for &(tokens, dim, heads) in &[
        (16usize, 64usize, 4usize),
        (64, 64, 8),
        (196, 96, 6),
        (197, 192, 6),
    ] {
        let mut rng = TensorRng::new(2);
        let mut mhsa = MultiHeadSelfAttention::new(dim, heads, dim / heads, &mut rng).unwrap();
        let x = rng.randn(&[tokens, dim], 0.0, 1.0);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{tokens}tok_{dim}d_{heads}h")),
            &tokens,
            |bench, _| bench.iter(|| mhsa.forward(&x).unwrap()),
        );
    }
    // A batched input exercises the per-sample loop on top of the per-head one.
    let mut rng = TensorRng::new(2);
    let mut mhsa = MultiHeadSelfAttention::new(96, 6, 16, &mut rng).unwrap();
    let x = rng.randn(&[8, 64, 96], 0.0, 1.0);
    group.bench_with_input(
        BenchmarkId::from_parameter("8x64tok_96d_6h"),
        &8usize,
        |bench, _| bench.iter(|| mhsa.forward(&x).unwrap()),
    );
    group.finish();
}

fn bench_softmax_and_kl(c: &mut Criterion) {
    let logits = TensorRng::new(3).randn(&[256, 257], 0.0, 2.0);
    c.bench_function("softmax_256x257", |b| {
        b.iter(|| logits.softmax_last_axis().unwrap());
    });
    // One head's attention scores at the ViT-Small 224² token count.
    let scores = TensorRng::new(8).randn(&[197, 197], 0.0, 2.0);
    c.bench_function("softmax_197x197", |b| {
        b.iter(|| scores.softmax_last_axis().unwrap());
    });
    let p = TensorRng::new(4).rand_uniform(&[256, 10], 0.01, 1.0);
    let q = TensorRng::new(5).rand_uniform(&[256, 10], 0.01, 1.0);
    c.bench_function("batch_kl_256x10", |b| {
        b.iter(|| stats::batch_kl_divergence(&p, &q).unwrap());
    });
}

fn bench_layernorm(c: &mut Criterion) {
    let x = TensorRng::new(6).randn(&[196, 768], 0.0, 1.0);
    let gamma = Tensor::ones(&[768]);
    let beta = Tensor::zeros(&[768]);
    c.bench_function("layernorm_196x768", |b| {
        b.iter(|| x.layer_norm_last_axis(&gamma, &beta).unwrap());
    });
}

fn bench_gelu(c: &mut Criterion) {
    // The ViT-Base MLP activation shape: 196 tokens × 3072 hidden units —
    // large enough to cross the row-op parallel threshold.
    let x = TensorRng::new(7).randn(&[196, 3072], 0.0, 1.0);
    c.bench_function("gelu_196x3072", |b| b.iter(|| x.gelu()));
}

criterion_group!(
    kernels,
    bench_matmul,
    bench_matmul_transposed,
    bench_batch_matmul,
    bench_attention_forward,
    bench_softmax_and_kl,
    bench_layernorm,
    bench_gelu
);
criterion_main!(kernels);
