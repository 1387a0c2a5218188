use edvit_parallel::ParallelPool;
use edvit_tensor::{init::TensorRng, ops, Tensor};

use crate::{Layer, Linear, NnError, Parameter, Result};

/// Per-head score/softmax/value work (`tokens² · head_dim` multiply-adds)
/// below which parallelizing across heads is not worth the pool wake-up.
const PAR_HEAD_WORK: usize = 1 << 14;

/// Multi-head self-attention, the MHSA block of a Vision Transformer.
///
/// The layer keeps the number of heads `h` and the per-head projection width
/// `head_dim` as independent knobs. ED-ViT's second pruning stage shrinks the
/// per-head query/key/value width (`d_q = d_k = d_v`) rather than removing
/// whole heads ("without entirely discarding any head", Section IV-C), so a
/// pruned block simply has a smaller `head_dim`.
///
/// Inputs of shape `[tokens, embed]` or `[batch, tokens, embed]` are accepted.
///
/// # Example
///
/// ```
/// use edvit_nn::{Layer, MultiHeadSelfAttention};
/// use edvit_tensor::init::TensorRng;
///
/// # fn main() -> Result<(), edvit_nn::NnError> {
/// let mut rng = TensorRng::new(0);
/// let mut mhsa = MultiHeadSelfAttention::new(16, 4, 4, &mut rng)?;
/// let x = rng.randn(&[5, 16], 0.0, 1.0);
/// assert_eq!(mhsa.forward(&x)?.dims(), &[5, 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MultiHeadSelfAttention {
    q_proj: Linear,
    k_proj: Linear,
    v_proj: Linear,
    out_proj: Linear,
    embed_dim: usize,
    heads: usize,
    head_dim: usize,
    cache: Option<AttentionCache>,
}

#[derive(Debug)]
struct AttentionCache {
    /// Per sample, per head: (q, k, v, attention weights).
    per_sample: Vec<Vec<HeadCache>>,
    batched_input: bool,
    tokens: usize,
}

#[derive(Debug)]
struct HeadCache {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    attn: Tensor,
}

impl Clone for MultiHeadSelfAttention {
    /// Clones the projection weights; the forward cache is backward-pass
    /// scratch, so the clone starts with an empty one.
    fn clone(&self) -> Self {
        MultiHeadSelfAttention {
            q_proj: self.q_proj.clone(),
            k_proj: self.k_proj.clone(),
            v_proj: self.v_proj.clone(),
            out_proj: self.out_proj.clone(),
            embed_dim: self.embed_dim,
            heads: self.heads,
            head_dim: self.head_dim,
            cache: None,
        }
    }
}

impl MultiHeadSelfAttention {
    /// Creates an MHSA layer with `heads` heads of width `head_dim` over an
    /// embedding of size `embed_dim`. The standard ViT configuration uses
    /// `head_dim = embed_dim / heads`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero-sized dimensions.
    pub fn new(
        embed_dim: usize,
        heads: usize,
        head_dim: usize,
        rng: &mut TensorRng,
    ) -> Result<Self> {
        if embed_dim == 0 || heads == 0 || head_dim == 0 {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "invalid MHSA configuration: embed={embed_dim}, heads={heads}, head_dim={head_dim}"
                ),
            });
        }
        let inner = heads * head_dim;
        Ok(MultiHeadSelfAttention {
            q_proj: Linear::new(embed_dim, inner, rng),
            k_proj: Linear::new(embed_dim, inner, rng),
            v_proj: Linear::new(embed_dim, inner, rng),
            out_proj: Linear::new(inner, embed_dim, rng),
            embed_dim,
            heads,
            head_dim,
            cache: None,
        })
    }

    /// Builds an MHSA layer from existing projection layers — used when
    /// slicing pruned sub-models out of a trained model.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when the projections are mutually
    /// inconsistent with `heads`/`head_dim`.
    pub fn from_projections(
        q_proj: Linear,
        k_proj: Linear,
        v_proj: Linear,
        out_proj: Linear,
        heads: usize,
        head_dim: usize,
    ) -> Result<Self> {
        let embed_dim = q_proj.in_features();
        let inner = heads * head_dim;
        if q_proj.out_features() != inner
            || k_proj.out_features() != inner
            || v_proj.out_features() != inner
            || k_proj.in_features() != embed_dim
            || v_proj.in_features() != embed_dim
            || out_proj.in_features() != inner
        {
            return Err(NnError::InvalidConfig {
                message: "inconsistent projection shapes for MHSA".to_string(),
            });
        }
        Ok(MultiHeadSelfAttention {
            q_proj,
            k_proj,
            v_proj,
            out_proj,
            embed_dim,
            heads,
            head_dim,
            cache: None,
        })
    }

    /// Embedding dimension seen at the input and output.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Per-head query/key/value width.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// The query projection (read-only), exposed for pruning.
    pub fn q_proj(&self) -> &Linear {
        &self.q_proj
    }

    /// The key projection (read-only), exposed for pruning.
    pub fn k_proj(&self) -> &Linear {
        &self.k_proj
    }

    /// The value projection (read-only), exposed for pruning.
    pub fn v_proj(&self) -> &Linear {
        &self.v_proj
    }

    /// The output projection (read-only), exposed for pruning.
    pub fn out_proj(&self) -> &Linear {
        &self.out_proj
    }

    /// Returns a pruned copy of this layer that keeps only the given
    /// per-head inner dimensions.
    ///
    /// `keep_per_head[i]` lists the indices (in `0..head_dim`) retained for
    /// head `i`; every head must keep the same number of dimensions so the
    /// pruned layer stays rectangular, mirroring ED-ViT's uniform `s × h`
    /// reduction.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when head counts or kept widths are
    /// inconsistent.
    pub fn prune_head_dims(&self, keep_per_head: &[Vec<usize>]) -> Result<MultiHeadSelfAttention> {
        if keep_per_head.len() != self.heads {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "expected keep lists for {} heads, got {}",
                    self.heads,
                    keep_per_head.len()
                ),
            });
        }
        let kept_width = keep_per_head.first().map_or(0, Vec::len);
        if kept_width == 0 || keep_per_head.iter().any(|k| k.len() != kept_width) {
            return Err(NnError::InvalidConfig {
                message: "every head must keep the same non-zero number of dimensions".to_string(),
            });
        }
        // Translate per-head kept indices into global column indices of the
        // [embed, heads*head_dim] projections.
        let mut columns = Vec::with_capacity(self.heads * kept_width);
        for (h, keep) in keep_per_head.iter().enumerate() {
            for &i in keep {
                if i >= self.head_dim {
                    return Err(NnError::InvalidConfig {
                        message: format!(
                            "kept index {i} out of range for head_dim {}",
                            self.head_dim
                        ),
                    });
                }
                columns.push(h * self.head_dim + i);
            }
        }
        let q = self.q_proj.select_outputs(&columns)?;
        let k = self.k_proj.select_outputs(&columns)?;
        let v = self.v_proj.select_outputs(&columns)?;
        let out = self.out_proj.select_inputs(&columns)?;
        MultiHeadSelfAttention::from_projections(q, k, v, out, self.heads, kept_width)
    }

    /// Returns a copy of this layer whose input/output embedding channels are
    /// restricted to `keep` — the residual-channel pruning stage.
    ///
    /// # Errors
    ///
    /// Returns an error when indices are out of range.
    pub fn prune_embed_channels(&self, keep: &[usize]) -> Result<MultiHeadSelfAttention> {
        let q = self.q_proj.select_inputs(keep)?;
        let k = self.k_proj.select_inputs(keep)?;
        let v = self.v_proj.select_inputs(keep)?;
        let out = self.out_proj.select_outputs(keep)?;
        MultiHeadSelfAttention::from_projections(q, k, v, out, self.heads, self.head_dim)
    }

    /// Scaled-dot-product attention of a single head.
    fn head_forward(&self, q: &Tensor, k: &Tensor, v: &Tensor) -> Result<(Tensor, HeadCache)> {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut attn = q.matmul_transposed(k)?;
        attn.map_inplace(|x| x * scale);
        let tokens = k.dims()[0];
        ops::softmax_rows(attn.data_mut(), tokens, ParallelPool::global());
        let out = attn.matmul(v)?;
        Ok((
            out,
            HeadCache {
                q: q.clone(),
                k: k.clone(),
                v: v.clone(),
                attn,
            },
        ))
    }

    fn forward_sample(
        &self,
        q_all: &Tensor,
        k_all: &Tensor,
        v_all: &Tensor,
    ) -> Result<(Tensor, Vec<HeadCache>)> {
        let tokens = q_all.dims()[0];
        let q_heads = q_all.chunk_last_axis(self.heads)?;
        let k_heads = k_all.chunk_last_axis(self.heads)?;
        let v_heads = v_all.chunk_last_axis(self.heads)?;
        // Heads are independent (DeViT-style decomposition), so they can run
        // on separate threads; below the work threshold the pool wake-up
        // costs more than the heads themselves.
        let pool = ParallelPool::global();
        let per_head_work = tokens * tokens * self.head_dim;
        let results: Vec<Result<(Tensor, HeadCache)>> =
            if self.heads > 1 && per_head_work >= PAR_HEAD_WORK && !pool.is_sequential() {
                pool.map_indexed(self.heads, |h| {
                    self.head_forward(&q_heads[h], &k_heads[h], &v_heads[h])
                })
            } else {
                (0..self.heads)
                    .map(|h| self.head_forward(&q_heads[h], &k_heads[h], &v_heads[h]))
                    .collect()
            };
        let mut head_outputs = Vec::with_capacity(self.heads);
        let mut head_caches = Vec::with_capacity(self.heads);
        for result in results {
            let (out, cache) = result?;
            debug_assert_eq!(out.dims(), &[tokens, self.head_dim]);
            head_outputs.push(out);
            head_caches.push(cache);
        }
        let refs: Vec<&Tensor> = head_outputs.iter().collect();
        Ok((Tensor::concat_last_axis(&refs)?, head_caches))
    }

    fn backward_sample(&self, grad_concat: &Tensor, caches: &[HeadCache]) -> Result<Tensor> {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let grads_per_head = grad_concat.chunk_last_axis(self.heads)?;
        let mut dq_heads = Vec::with_capacity(self.heads);
        let mut dk_heads = Vec::with_capacity(self.heads);
        let mut dv_heads = Vec::with_capacity(self.heads);
        for (h, cache) in caches.iter().enumerate() {
            let d_out = &grads_per_head[h];
            // dV = A^T dOut
            let dv = cache.attn.transpose()?.matmul(d_out)?;
            // dA = dOut V^T
            let da = d_out.matmul_transposed(&cache.v)?;
            // Softmax backward per row: dS = A * (dA - rowsum(dA * A))
            let tokens = da.dims()[0];
            let cols = da.dims()[1];
            let mut ds = vec![0.0f32; tokens * cols];
            for r in 0..tokens {
                let a_row = &cache.attn.data()[r * cols..(r + 1) * cols];
                let da_row = &da.data()[r * cols..(r + 1) * cols];
                let dot: f32 = a_row.iter().zip(da_row).map(|(a, d)| a * d).sum();
                for c in 0..cols {
                    ds[r * cols + c] = a_row[c] * (da_row[c] - dot);
                }
            }
            let ds = Tensor::from_vec(ds, &[tokens, cols])?.scale(scale);
            // dQ = dS K ; dK = dS^T Q
            let dq = ds.matmul(&cache.k)?;
            let dk = ds.transpose()?.matmul(&cache.q)?;
            dq_heads.push(dq);
            dk_heads.push(dk);
            dv_heads.push(dv);
        }
        let dq_refs: Vec<&Tensor> = dq_heads.iter().collect();
        let dk_refs: Vec<&Tensor> = dk_heads.iter().collect();
        let dv_refs: Vec<&Tensor> = dv_heads.iter().collect();
        let dq = Tensor::concat_last_axis(&dq_refs)?;
        let dk = Tensor::concat_last_axis(&dk_refs)?;
        let dv = Tensor::concat_last_axis(&dv_refs)?;
        Ok(Tensor::concat_last_axis(&[&dq, &dk, &dv])?)
    }
}

impl Layer for MultiHeadSelfAttention {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let (batched, batch) = match input.rank() {
            2 => (false, 1),
            3 => (true, input.dims()[0]),
            r => {
                return Err(NnError::InvalidConfig {
                    message: format!("MHSA expects rank 2 or 3 input, got rank {r}"),
                })
            }
        };
        let tokens = if batched {
            input.dims()[1]
        } else {
            input.dims()[0]
        };
        let q_all = self.q_proj.forward(input)?;
        let k_all = self.k_proj.forward(input)?;
        let v_all = self.v_proj.forward(input)?;
        let run_sample = |b: usize| -> Result<(Tensor, Vec<HeadCache>)> {
            let (q, k, v) = if batched {
                (q_all.row(b)?, k_all.row(b)?, v_all.row(b)?)
            } else {
                (q_all.clone(), k_all.clone(), v_all.clone())
            };
            self.forward_sample(&q, &k, &v)
        };
        // Samples are independent; run them across the pool (each sample's
        // per-head loop then executes inline on its worker).
        let pool = ParallelPool::global();
        let results: Vec<Result<(Tensor, Vec<HeadCache>)>> = if batch > 1 && !pool.is_sequential() {
            pool.map_indexed(batch, run_sample)
        } else {
            (0..batch).map(run_sample).collect()
        };
        let mut per_sample = Vec::with_capacity(batch);
        let mut outputs = Vec::with_capacity(batch);
        for result in results {
            let (out, caches) = result?;
            outputs.push(out);
            per_sample.push(caches);
        }
        let concat = if batched {
            let reshaped: Vec<Tensor> = outputs
                .iter()
                .map(|t| t.reshape(&[1, tokens, self.heads * self.head_dim]))
                .collect::<std::result::Result<_, _>>()?;
            let refs: Vec<&Tensor> = reshaped.iter().collect();
            Tensor::concat_first_axis(&refs)?
        } else {
            outputs.pop().expect("batch of one")
        };
        self.cache = Some(AttentionCache {
            per_sample,
            batched_input: batched,
            tokens,
        });
        self.out_proj.forward(&concat)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let grad_concat = self.out_proj.backward(grad_output)?;
        let cache = self.cache.as_ref().ok_or(NnError::MissingForwardCache {
            layer: "MultiHeadSelfAttention",
        })?;
        let batch = cache.per_sample.len();
        let inner = self.heads * self.head_dim;
        let mut dqkv_samples = Vec::with_capacity(batch);
        for (b, caches) in cache.per_sample.iter().enumerate() {
            let g = if cache.batched_input {
                grad_concat.row(b)?
            } else {
                grad_concat.clone()
            };
            let g = g.reshape(&[cache.tokens, inner])?;
            dqkv_samples.push(self.backward_sample(&g, caches)?);
        }
        // Reassemble [batch, tokens, 3*inner] (or [tokens, 3*inner]).
        let dqkv = if cache.batched_input {
            let reshaped: Vec<Tensor> = dqkv_samples
                .iter()
                .map(|t| t.reshape(&[1, cache.tokens, 3 * inner]))
                .collect::<std::result::Result<_, _>>()?;
            let refs: Vec<&Tensor> = reshaped.iter().collect();
            Tensor::concat_first_axis(&refs)?
        } else {
            dqkv_samples.pop().expect("batch of one")
        };
        let parts = dqkv.chunk_last_axis(3)?;
        let dx_q = self.q_proj.backward(&parts[0])?;
        let dx_k = self.k_proj.backward(&parts[1])?;
        let dx_v = self.v_proj.backward(&parts[2])?;
        Ok(dx_q.add(&dx_k)?.add(&dx_v)?)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        let mut params = self.q_proj.parameters_mut();
        params.extend(self.k_proj.parameters_mut());
        params.extend(self.v_proj.parameters_mut());
        params.extend(self.out_proj.parameters_mut());
        params
    }

    fn parameters(&self) -> Vec<&Parameter> {
        let mut params = self.q_proj.parameters();
        params.extend(self.k_proj.parameters());
        params.extend(self.v_proj.parameters());
        params.extend(self.out_proj.parameters());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::finite_difference_check;

    #[test]
    fn forward_shapes_2d_and_3d() {
        let mut rng = TensorRng::new(0);
        let mut mhsa = MultiHeadSelfAttention::new(12, 3, 4, &mut rng).unwrap();
        let x2 = rng.randn(&[7, 12], 0.0, 1.0);
        assert_eq!(mhsa.forward(&x2).unwrap().dims(), &[7, 12]);
        let x3 = rng.randn(&[2, 7, 12], 0.0, 1.0);
        assert_eq!(mhsa.forward(&x3).unwrap().dims(), &[2, 7, 12]);
        assert_eq!(mhsa.heads(), 3);
        assert_eq!(mhsa.head_dim(), 4);
        assert_eq!(mhsa.embed_dim(), 12);
    }

    #[test]
    fn rejects_invalid_configs_and_ranks() {
        let mut rng = TensorRng::new(0);
        assert!(MultiHeadSelfAttention::new(0, 2, 2, &mut rng).is_err());
        assert!(MultiHeadSelfAttention::new(8, 0, 2, &mut rng).is_err());
        let mut mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut rng).unwrap();
        assert!(mhsa.forward(&Tensor::zeros(&[8])).is_err());
        assert!(mhsa.backward(&Tensor::zeros(&[3, 8])).is_err());
    }

    #[test]
    fn parameter_count_matches_formula() {
        let mut rng = TensorRng::new(0);
        let mhsa = MultiHeadSelfAttention::new(16, 4, 4, &mut rng).unwrap();
        // q/k/v: 3*(16*16 + 16), out: 16*16 + 16
        assert_eq!(mhsa.parameter_count(), 4 * (16 * 16 + 16));
        assert_eq!(mhsa.parameters().len(), 8);
    }

    #[test]
    fn prune_head_dims_shrinks_projections() {
        let mut rng = TensorRng::new(1);
        let mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut rng).unwrap();
        let keep = vec![vec![0, 2], vec![1, 3]];
        let pruned = mhsa.prune_head_dims(&keep).unwrap();
        assert_eq!(pruned.head_dim(), 2);
        assert_eq!(pruned.heads(), 2);
        assert_eq!(pruned.q_proj().out_features(), 4);
        assert_eq!(pruned.out_proj().in_features(), 4);
        // embed dim untouched
        assert_eq!(pruned.embed_dim(), 8);
        // invalid keep lists
        assert!(mhsa.prune_head_dims(&[vec![0]]).is_err());
        assert!(mhsa.prune_head_dims(&[vec![0], vec![9]]).is_err());
        assert!(mhsa.prune_head_dims(&[vec![0], vec![]]).is_err());
    }

    #[test]
    fn prune_embed_channels_shrinks_in_out() {
        let mut rng = TensorRng::new(2);
        let mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut rng).unwrap();
        let pruned = mhsa.prune_embed_channels(&[0, 1, 2, 3]).unwrap();
        assert_eq!(pruned.embed_dim(), 4);
        assert_eq!(pruned.out_proj().out_features(), 4);
        let mut pruned = pruned;
        let mut rng2 = TensorRng::new(3);
        let x = rng2.randn(&[5, 4], 0.0, 1.0);
        assert_eq!(pruned.forward(&x).unwrap().dims(), &[5, 4]);
    }

    #[test]
    fn pruned_head_dims_forward_works() {
        let mut rng = TensorRng::new(4);
        let mhsa = MultiHeadSelfAttention::new(6, 3, 2, &mut rng).unwrap();
        let mut pruned = mhsa.prune_head_dims(&[vec![0], vec![1], vec![0]]).unwrap();
        let x = rng.randn(&[4, 6], 0.0, 1.0);
        assert_eq!(pruned.forward(&x).unwrap().dims(), &[4, 6]);
    }

    #[test]
    fn attention_rows_are_distributions() {
        let mut rng = TensorRng::new(5);
        let mut mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut rng).unwrap();
        let x = rng.randn(&[6, 8], 0.0, 1.0);
        mhsa.forward(&x).unwrap();
        let cache = mhsa.cache.as_ref().unwrap();
        for head in &cache.per_sample[0] {
            for row in head.attn.data().chunks(6) {
                let s: f32 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn gradcheck_2d() {
        let mut rng = TensorRng::new(6);
        let mhsa = MultiHeadSelfAttention::new(6, 2, 3, &mut rng).unwrap();
        finite_difference_check(Box::new(mhsa), &[4, 6], 5e-2, 77);
    }

    #[test]
    fn gradcheck_batched() {
        let mut rng = TensorRng::new(7);
        let mhsa = MultiHeadSelfAttention::new(4, 2, 2, &mut rng).unwrap();
        finite_difference_check(Box::new(mhsa), &[2, 3, 4], 5e-2, 78);
    }
}
