//! Seeded random-weight ED-ViT deployments, assembled from the public parts
//! the pipeline uses — `SplitPlanner::plan`, `VisionTransformer::new`, the
//! model's three structured-pruning slicers, `FusionMlp::new`,
//! `ClassSubsetMapping` and `Dataset::new` — without any training. Shapes
//! match what `StructuredPruner` yields for the same plan; only the kept
//! indices are drawn at random instead of ranked by importance.

use edvit::datasets::{ClassSubsetMapping, Dataset, DatasetKind};
use edvit::fusion::{FusionConfig, FusionMlp};
use edvit::partition::{DeviceSpec, PlannerConfig, SplitPlan, SplitPlanner};
use edvit::pipeline::{EdVitDeployment, EvalMetrics, PipelineTimings};
use edvit::pruning::PrunedSubModel;
use edvit::tensor::{init::TensorRng, Tensor};
use edvit::vit::{PrunedViTConfig, ScaleProfile, ViTConfig, VisionTransformer};
use edvit_parallel::ParallelPool;

use crate::Ctx;

/// Classes of the synthetic task (CIFAR-10-like).
pub const CLASSES: usize = 10;
/// Edge devices every workload deploys onto.
pub const DEVICES: usize = 2;

/// Model geometry of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Paper scale: ViT-Small at 224², planned under the paper's 50 MB budget.
    VitSmall224,
    /// The repository's trainable scale: ViT-Base scaled down with
    /// `ScaleProfile::default()` (32² images), planned under 180 MB.
    VitBase32,
    /// A minimal ViT-Small at 32² for the self-test.
    Tiny,
}

impl Shape {
    /// The paper-scale model the planner splits.
    pub fn paper_model(self) -> ViTConfig {
        match self {
            Shape::VitSmall224 | Shape::Tiny => ViTConfig::vit_small(CLASSES),
            Shape::VitBase32 => ViTConfig::vit_base(CLASSES),
        }
    }

    /// The model the devices actually run.
    pub fn model_config(self) -> ViTConfig {
        match self {
            Shape::VitSmall224 => self.paper_model(),
            Shape::VitBase32 => self.paper_model().scaled_down(&ScaleProfile::default()),
            Shape::Tiny => self.paper_model().scaled_down(&ScaleProfile {
                image_size: 16,
                patch_size: 8,
                max_embed_dim: 24,
                max_depth: 1,
            }),
        }
    }

    /// The paper's memory budget for the planned model.
    pub fn planner(self) -> SplitPlanner {
        let memory_budget_bytes = match self {
            Shape::VitSmall224 | Shape::Tiny => 50_000_000,
            Shape::VitBase32 => 180_000_000,
        };
        SplitPlanner::new(PlannerConfig {
            memory_budget_bytes,
            ..PlannerConfig::default()
        })
    }
}

/// A deployment plus everything a workload feeds it.
#[derive(Debug, Clone)]
pub struct Built {
    /// The deployment every facade call consumes a clone of.
    pub deployment: EdVitDeployment,
    /// The devices it was planned for.
    pub devices: Vec<DeviceSpec>,
    /// Seeded input images `[c, H, W]`; every request draws from this pool.
    pub pool: Vec<Tensor>,
}

/// Plans the split of `shape`'s paper model onto the benchmark's devices.
pub fn plan(shape: Shape, seed: u64) -> Result<SplitPlan, String> {
    let devices = DeviceSpec::raspberry_pi_cluster(DEVICES);
    shape
        .planner()
        .plan(&shape.paper_model(), &devices, seed)
        .ctx("split planning")
}

/// `k` distinct indices out of `0..n`, drawn from `rng`, in ascending order.
fn keep(rng: &mut TensorRng, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    for i in 0..k.min(n) {
        let j = i + rng.index(n - i);
        all.swap(i, j);
    }
    let mut kept = all[..k.min(n)].to_vec();
    kept.sort_unstable();
    kept
}

/// Builds the seeded deployment and its `pool_size`-image input pool.
pub fn build(shape: Shape, seed: u64, pool_size: usize) -> Result<Built, String> {
    let started = std::time::Instant::now();
    let devices = DeviceSpec::raspberry_pi_cluster(DEVICES);
    let plan = plan(shape, seed)?;
    let config = shape.model_config();
    let mut rng = TensorRng::new(seed ^ 0xB3_7C);
    let original = VisionTransformer::new(&config, &mut rng).ctx("random-weight model")?;

    let mut sub_models = Vec::with_capacity(plan.sub_models.len());
    for sub_plan in &plan.sub_models {
        let pruned_heads = sub_plan
            .pruned
            .pruned_heads()
            .min(config.heads.saturating_sub(1));
        let pruned = PrunedViTConfig::new(config.clone(), pruned_heads).ctx("pruned config")?;
        let channels = keep(&mut rng, config.embed_dim, pruned.embed_dim());
        let stage1 = original
            .prune_embed_channels(&channels)
            .ctx("prune embed channels")?;
        let per_head: Vec<Vec<usize>> = (0..config.heads)
            .map(|_| keep(&mut rng, config.head_dim(), pruned.head_dim()))
            .collect();
        let stage2 = stage1.prune_head_dims(&per_head).ctx("prune head dims")?;
        let hidden = keep(&mut rng, config.ffn_hidden(), pruned.ffn_hidden());
        let mut model = stage2.prune_ffn_hidden(&hidden).ctx("prune ffn hidden")?;
        let mapping = ClassSubsetMapping {
            subset: sub_plan.classes.clone(),
            other_label: Some(sub_plan.classes.len()),
        };
        model.replace_head(mapping.num_local_labels(), &mut rng);
        sub_models.push(PrunedSubModel {
            model,
            mapping,
            plan: pruned,
            retrain_report: None,
        });
    }

    let feature_dim: usize = sub_models.iter().map(|s| s.model.embed_dim()).sum();
    let fusion =
        FusionMlp::new(&FusionConfig::new(feature_dim, CLASSES), &mut rng).ctx("fusion MLP")?;

    let images = rng.randn(
        &[
            pool_size,
            config.channels,
            config.image_size,
            config.image_size,
        ],
        0.0,
        1.0,
    );
    let labels: Vec<usize> = (0..pool_size).map(|i| i % CLASSES).collect();
    let test_set =
        Dataset::new(DatasetKind::Cifar10Like, images, labels, CLASSES).ctx("input pool")?;
    let pool = (0..pool_size)
        .map(|i| test_set.images().row(i).ctx("pool image"))
        .collect::<Result<Vec<_>, _>>()?;

    // Random weights: there is no accuracy to report and nothing in the
    // inference path reads these fields.
    let metrics = EvalMetrics {
        original_accuracy: 0.0,
        fused_accuracy: 0.0,
        averaged_accuracy: 0.0,
        joint_retrain_accuracy: None,
        total_memory_mb: plan.total_memory_mb(),
        measured_memory_mb: sub_models
            .iter()
            .map(|s| s.memory_bytes() as f64 / 1e6)
            .sum(),
        latency_seconds: 0.0,
        original_latency_seconds: 0.0,
        per_submodel_flops: plan.sub_models.iter().map(|s| s.cost.flops).collect(),
        feature_payload_bytes: Vec::new(),
        frame_bytes: Vec::new(),
        communication_seconds: 0.0,
        throughput_samples_per_second: 0.0,
    };
    let elapsed = started.elapsed().as_secs_f64();
    let timings = PipelineTimings {
        threads: ParallelPool::global().threads(),
        stages: vec![("random_weights", elapsed)],
        total_seconds: elapsed,
    };
    Ok(Built {
        deployment: EdVitDeployment {
            plan,
            sub_models,
            fusion,
            test_set,
            metrics,
            timings,
        },
        devices,
        pool,
    })
}
