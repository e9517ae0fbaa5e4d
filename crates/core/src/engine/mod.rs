//! The real out-of-core fine-tuning engine.
//!
//! This module executes Ratel's algorithms *for real* on a small GPT:
//! model states live as blobs in the SSD tier of a
//! [`ratel_storage::TieredStore`], the "GPU" is a capacity-enforced arena
//! that only ever holds one layer's working set, activations are swapped
//! to host/SSD or recomputed per a planner decision, and a concurrent CPU
//! optimizer consumes each layer's gradient the moment backward produces
//! it (active gradient offloading, §IV-C) while staying fully synchronous:
//! every parameter read by iteration *k+1* reflects every gradient of
//! iteration *k*, with no staleness.
//!
//! Mixed precision is emulated faithfully: the master parameters and Adam
//! moments are f32 blobs (P32/OS32), the compute copies, activations, and
//! gradients move as IEEE-754 binary16 bytes (P16/A16/G16). Because both
//! the offloaded engine and the in-memory [`reference::ReferenceTrainer`]
//! round at the same points, their losses and parameters match *exactly*
//! — the strongest possible check of the paper's "no parameter staleness"
//! claim (§IV-C's footnote distinguishing Ratel from one-step-delayed
//! ZeRO-Offload).

pub mod bpe;
pub mod checkpoint;
pub mod conformance;
mod dag_step;
pub mod data;
pub mod executor;
pub mod lr;
pub mod obs;
pub mod optimizer;
pub(crate) mod prefetch;
pub mod profiler;
pub mod reference;
pub mod scaler;
pub mod telemetry;

use std::sync::Arc;

use ratel_obs::EventKind;
use ratel_storage::telemetry::{FaultStats, SpanCategory, TelemetryRecorder};
use ratel_storage::{Route, StorageError, Tier, TierConfig, TieredStore, TrafficSnapshot};
use ratel_tensor::dtype::{
    decode_f16, decode_f32, encode_f16, encode_f32, round_to_f16, with_f32_mut,
};
use ratel_tensor::{
    block_dropout_spec, AdamParams, BlockSaved, GptConfig, GptModel, KvCache, ParamLayer, Tensor,
};

use crate::error::RatelError;
use dag_step::{fetch_f16, load_staged, offload_f16};
use lr::LrSchedule;
use optimizer::{ActiveOptimizer, GradMessage};
use scaler::{LossScaler, ScalePolicy};
use telemetry::StepTelemetry;

/// How a training step executes: through the schedule-driven executor
/// (the default) or one of the legacy hand-coded stage loops.
///
/// The executor lowers the engine's movement plan into a task DAG
/// (statically verified in debug builds), then dispatches it onto one
/// worker pool per resource class — see [`executor`]. The legacy
/// variants keep the original stage loop with its ad-hoc prefetch
/// threads; they remain as an A/B reference and for workloads that want
/// the old span shapes. All variants are bitwise identical in what they
/// compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionOptions {
    /// Schedule-driven: `train_step` executes the verified movement DAG
    /// on per-resource worker pools.
    Executor(ExecutorOptions),
    /// Legacy stage loop with active gradient offloading (§IV-C): the
    /// optimizer consumes gradients concurrently with backward.
    LegacyOverlapped {
        /// Stage each layer's P16 a window ahead on a dedicated
        /// prefetcher thread (the Fig. 4 `Ratel_hook` pipelining).
        prefetch_params: bool,
    },
    /// Legacy stage loop with the optimizer as a separate stage after
    /// backward — the "Ratel+ZeRO" ablation.
    LegacySeparateStage {
        /// Stage each layer's P16 a window ahead on a dedicated
        /// prefetcher thread.
        prefetch_params: bool,
    },
}

impl Default for ExecutionOptions {
    fn default() -> Self {
        ExecutionOptions::Executor(ExecutorOptions::default())
    }
}

/// Tuning knobs of the schedule-driven executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorOptions {
    /// Worker threads per resource pool. One worker per pool already
    /// overlaps the pipeline across resources (each pool serves a
    /// distinct class); the default of two lets one class run
    /// independent tasks concurrently — an SSD array services a state
    /// read while a state write streams out, which the single-threaded
    /// pool would serialize. Numerics are identical at any count.
    pub workers_per_pool: usize,
    /// The gradient-offloading schedule to lower and execute.
    /// [`crate::offload::GradOffloadMode::OptimizedActive`] is Ratel's
    /// Fig. 3b pipeline; `SeparateStage` runs the optimizer after
    /// backward (the Ratel+ZeRO ablation shape).
    pub offload: crate::offload::GradOffloadMode,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions {
            workers_per_pool: 2,
            offload: crate::offload::GradOffloadMode::OptimizedActive,
        }
    }
}

/// What to do with one transformer block's intra-layer activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActDecision {
    /// Swap the saved-activation blob to main memory.
    SwapToHost,
    /// Swap the saved-activation blob through main memory to the SSDs.
    SwapToSsd,
    /// Discard it and recompute the block's forward during backward.
    Recompute,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The executable model shape.
    pub model: GptConfig,
    /// Seed for parameter initialization.
    pub seed: u64,
    /// Adam hyperparameters.
    pub adam: AdamParams,
    /// Per-block activation decision (length = `model.layers`).
    pub act_decisions: Vec<ActDecision>,
    /// "GPU" arena capacity in bytes (`None` = unbounded).
    pub gpu_capacity: Option<u64>,
    /// Host pool capacity in bytes (`None` = unbounded).
    pub host_capacity: Option<u64>,
    /// How steps execute: the schedule-driven executor (default) or a
    /// legacy stage loop. Replaces the old `active_offload` +
    /// `prefetch_params` boolean knobs.
    pub execution: ExecutionOptions,
    /// Mixed-precision loss scaling policy (see [`scaler`]).
    pub loss_scale: ScalePolicy,
    /// Per-layer gradient-norm clip (None disables clipping).
    pub grad_clip: Option<f32>,
    /// Learning-rate schedule applied on top of `adam.lr`.
    pub lr_schedule: LrSchedule,
    /// Residual dropout probability (None disables). Masks are derived
    /// from the step index and layer id, so swapped and recomputed
    /// backward passes regenerate identical masks.
    pub dropout: Option<f32>,
    /// Layers whose parameters are *frozen* (no gradient offload, no
    /// optimizer handler, no state I/O) — parameter-efficient fine-tuning
    /// such as linear probing. Ids: 0 = embedding, 1..=L = blocks,
    /// L+1 = head. Backpropagation still flows *through* frozen layers.
    pub frozen_layers: Vec<usize>,
}

impl EngineConfig {
    /// Checks the whole configuration and returns *every* violation
    /// found (empty = valid). [`crate::Ratel::build`] calls this and
    /// reports the full list in one [`RatelError::InvalidConfig`], so a
    /// bad config is fixed in one pass instead of one error per run.
    pub fn validate(&self) -> Vec<String> {
        let m = &self.model;
        let mut v = Vec::new();
        if m.layers == 0 {
            v.push("model needs at least one transformer block".to_string());
        }
        if m.heads == 0 {
            v.push("model needs at least one attention head".to_string());
        }
        if m.hidden == 0 {
            v.push("hidden dimension must be non-zero".to_string());
        }
        if m.vocab == 0 {
            v.push("vocabulary must be non-empty".to_string());
        }
        if m.seq == 0 {
            v.push("sequence length must be non-zero".to_string());
        }
        if m.batch == 0 {
            v.push("micro-batch size must be non-zero".to_string());
        }
        if m.heads != 0 && !m.hidden.is_multiple_of(m.heads) {
            v.push(format!(
                "hidden ({}) must be divisible by heads ({})",
                m.hidden, m.heads
            ));
        }
        if self.act_decisions.len() != m.layers {
            v.push(format!(
                "one activation decision per block: got {}, model has {} blocks",
                self.act_decisions.len(),
                m.layers
            ));
        }
        for &layer in &self.frozen_layers {
            if layer >= m.layers + 2 {
                v.push(format!(
                    "frozen layer {layer} out of range (model has layers 0..={})",
                    m.layers + 1
                ));
            }
        }
        if let ExecutionOptions::Executor(opts) = self.execution {
            if opts.workers_per_pool == 0 {
                v.push("executor needs at least one worker per resource pool".to_string());
            }
        }
        // Capacity floors only make sense once the shape itself is sane.
        if v.is_empty() {
            let max_p = m.max_layer_params() as u64;
            if let Some(cap) = self.gpu_capacity {
                let need = 2 * max_p; // one resident layer's P16
                if cap < need {
                    v.push(format!(
                        "gpu capacity {cap} B cannot stage the largest layer's \
                         P16 ({need} B)"
                    ));
                }
            }
            if let Some(cap) = self.host_capacity {
                let need = 14 * max_p; // master (4) + moments (8) + G16 (2)
                if cap < need {
                    v.push(format!(
                        "host capacity {cap} B cannot hold the largest layer's \
                         optimizer working set ({need} B)"
                    ));
                }
            }
        }
        v
    }

    /// A reasonable default: tiny model, everything swapped to host.
    pub fn tiny() -> Self {
        let model = GptConfig::tiny();
        EngineConfig {
            model,
            seed: 42,
            adam: AdamParams::default(),
            act_decisions: vec![ActDecision::SwapToHost; model.layers],
            gpu_capacity: None,
            host_capacity: None,
            execution: ExecutionOptions::default(),
            loss_scale: ScalePolicy::None,
            grad_clip: None,
            lr_schedule: LrSchedule::Constant,
            dropout: None,
            frozen_layers: Vec::new(),
        }
    }

    /// Whether the legacy stage loop should run its parameter-prefetch
    /// thread (executor mode encodes prefetch as graph edges instead).
    fn legacy_prefetch(&self) -> bool {
        matches!(
            self.execution,
            ExecutionOptions::LegacyOverlapped {
                prefetch_params: true
            } | ExecutionOptions::LegacySeparateStage {
                prefetch_params: true
            }
        )
    }

    /// Whether the optimizer overlaps backward (active gradient
    /// offloading) under this execution mode.
    fn active_offload(&self) -> bool {
        match self.execution {
            ExecutionOptions::Executor(opts) => {
                opts.offload != crate::offload::GradOffloadMode::SeparateStage
            }
            ExecutionOptions::LegacyOverlapped { .. } => true,
            ExecutionOptions::LegacySeparateStage { .. } => false,
        }
    }
}

/// Statistics of one engine training step.
#[derive(Debug, Clone)]
pub struct StepStats {
    /// Mean cross-entropy loss of the step.
    pub loss: f32,
    /// Bytes moved per route during the step.
    pub traffic: ratel_storage::TrafficSnapshot,
    /// Wall-clock seconds of the step.
    pub wall_seconds: f64,
    /// Loss scale applied to this step's backward pass.
    pub loss_scale: f32,
    /// Layers whose update was skipped because their (unscaled) gradient
    /// overflowed the f16 range.
    pub skipped_layers: usize,
    /// Robustness-counter deltas for the step (SSD retries/give-ups and
    /// host-pressure spills) — always collected, telemetry on or off.
    pub fault_stats: FaultStats,
    /// Per-task execution breakdown — tasks and busy time per resource
    /// pool plus the measured critical path — when the step ran through
    /// the schedule-driven executor; `None` on the legacy paths.
    pub tasks: Option<executor::TaskBreakdown>,
}

/// Scalar parameters of engine layer `id` (0 = embedding, 1..=L =
/// blocks, L+1 = head), computed from the shape alone so movement plans
/// can be drawn up before any model is materialized.
fn analytic_layer_params(model: &GptConfig, id: usize) -> usize {
    if id == 0 {
        model.embedding_params()
    } else if id <= model.layers {
        model.block_params()
    } else {
        model.head_params()
    }
}

/// Lowers one engine step of `config` into its schedule twin: an
/// [`IterationSpec`](crate::schedule::IterationSpec) planning exactly
/// what the engine moves (the same shape `ratel-bench validate`
/// compares telemetry against). Layer ids follow the engine: 0 =
/// embedding, 1..=L = blocks, L+1 = head. Compute durations are
/// placeholders — the twin exists for dataflow/residency structure,
/// which `ratel-verify` checks statically.
///
/// This is a free function so a [`crate::api::TrainingPlan`] can build
/// and verify the plan *before* an engine (and its model) exists;
/// [`RatelEngine::movement_spec`] delegates here.
pub fn movement_spec_for(config: &EngineConfig) -> crate::schedule::IterationSpec {
    use crate::schedule::{IterationSpec, LayerTask, LinkRates, OptimizerKind, ParamSource};
    let model = config.model;
    let rows = (model.batch * model.seq) as f64;
    let ckpt_bytes = 2.0 * rows * model.hidden as f64;
    let act_bytes = 2.0
        * BlockSaved::element_count_for(model.batch, model.seq, model.hidden, model.heads) as f64;
    let layer_count = model.layers + 2;
    let layers = (0..layer_count)
        .map(|id| {
            let params = analytic_layer_params(&model, id) as f64;
            let is_block = id >= 1 && id <= model.layers;
            let is_head = id == layer_count - 1;
            // Frozen layers move no gradient and run no optimizer
            // handler; backward still flows through them.
            let frozen = config.frozen_layers.contains(&id);
            let (to_host, to_ssd) = if is_block {
                match config.act_decisions[id - 1] {
                    ActDecision::SwapToHost => (ckpt_bytes + act_bytes, 0.0),
                    ActDecision::SwapToSsd => (ckpt_bytes, act_bytes),
                    ActDecision::Recompute => (ckpt_bytes, 0.0),
                }
            } else {
                (0.0, 0.0)
            };
            LayerTask {
                label: if id == 0 {
                    "embedding".into()
                } else if is_head {
                    "head".into()
                } else {
                    format!("block{}", id - 1)
                },
                p16_bytes: 2.0 * params,
                param_source: ParamSource::Ssd,
                fwd_flops: 0.0,
                bwd_flops: 0.0,
                act_to_host_bytes: to_host,
                act_to_ssd_bytes: to_ssd,
                refetch_in_backward: !is_head,
                grad_bytes: if frozen { 0.0 } else { 2.0 * params },
                grad_spill_to_ssd: false,
                optimizer: if frozen {
                    OptimizerKind::None
                } else {
                    OptimizerKind::CpuOutOfCore {
                        read_bytes: 12.0 * params,
                        write_bytes: 14.0 * params,
                        cpu_params: params,
                    }
                },
            }
        })
        .collect();
    IterationSpec {
        layers,
        mode: match config.execution {
            ExecutionOptions::Executor(opts) => opts.offload,
            ExecutionOptions::LegacyOverlapped { .. } => {
                crate::offload::GradOffloadMode::OptimizedActive
            }
            ExecutionOptions::LegacySeparateStage { .. } => {
                crate::offload::GradOffloadMode::SeparateStage
            }
        },
        rates: LinkRates {
            thp_gpu: 1.0,
            bw_g2m: 1.0,
            bw_m2g: 1.0,
            ssd_read: 1.0,
            ssd_write: 1.0,
            cpu_params_per_sec: 1.0,
            state_io_efficiency: 1.0,
        },
        gpus: 1,
        items_per_iteration: model.batch as f64,
        per_layer_overhead_seconds: 0.0,
    }
}

/// The out-of-core engine.
pub struct RatelEngine {
    config: EngineConfig,
    store: Arc<TieredStore>,
    /// Layer skeletons; weights are loaded per use from the P16 blobs.
    model: GptModel,
    /// Monotone step counter (wall steps, including skipped ones).
    step: u64,
    /// Per-layer count of *applied* Adam updates (the bias-correction
    /// clock; overflow-skipped steps do not advance it).
    layer_steps: Vec<u64>,
    /// Mixed-precision loss scaler.
    scaler: LossScaler,
    /// Spans/metrics of the most recent instrumented step (None until a
    /// step runs with telemetry enabled).
    last_telemetry: Option<StepTelemetry>,
    /// Plan-conformance monitor, checked after every instrumented step
    /// once [`RatelEngine::enable_conformance`] is called.
    conformance: Option<conformance::ConformanceMonitor>,
    /// Findings of the most recent conformance-checked step.
    last_findings: Vec<conformance::Finding>,
    /// Cumulative conformance findings across all checked steps.
    total_findings: u64,
    /// The lowered, paced, verified step DAG (executor mode only). The
    /// plan depends only on the config, so it is built once and reused
    /// every step.
    step_dag: Option<Arc<dag_step::StepDag>>,
}

/// Picks a token from `logits` with temperature + top-k filtering;
/// greedy when `temperature <= 0` or `top_k <= 1`.
fn sample_from_logits(
    logits: &[f32],
    temperature: f32,
    top_k: usize,
    rng: &mut impl rand::Rng,
) -> usize {
    let argmax = || {
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty vocabulary")
    };
    if temperature <= 0.0 || top_k <= 1 {
        return argmax();
    }
    // Keep the top-k logits, softmax at the given temperature, sample.
    let mut indexed: Vec<(usize, f32)> = logits.iter().copied().enumerate().collect();
    indexed.sort_by(|a, b| b.1.total_cmp(&a.1));
    indexed.truncate(top_k.min(indexed.len()));
    let max = indexed[0].1;
    let weights: Vec<f32> = indexed
        .iter()
        .map(|(_, v)| ((v - max) / temperature).exp())
        .collect();
    let total: f32 = weights.iter().sum();
    let mut draw = rng.gen::<f32>() * total;
    for ((idx, _), w) in indexed.iter().zip(&weights) {
        draw -= w;
        if draw <= 0.0 {
            return *idx;
        }
    }
    indexed.last().map(|(i, _)| *i).unwrap_or_else(argmax)
}

/// Storage keys for a layer's blobs. Layer ids: 0 = embedding, 1..=L =
/// blocks, L+1 = head.
pub(crate) fn master_key(layer: usize) -> String {
    format!("layer{layer}/master")
}
pub(crate) fn moments_key(layer: usize) -> String {
    format!("layer{layer}/moments")
}
pub(crate) fn p16_key(layer: usize) -> String {
    format!("layer{layer}/p16")
}
fn grad_key(layer: usize) -> String {
    format!("layer{layer}/grad")
}
fn act_key(block: usize) -> String {
    format!("block{block}/acts")
}
fn ckpt_key(layer: usize) -> String {
    format!("layer{layer}/ckpt")
}
fn accum_key(layer: usize) -> String {
    format!("layer{layer}/grad-accum")
}

impl RatelEngine {
    /// Initializes the engine: builds the model, then *moves every model
    /// state to the SSD tier* (P32, OS32, P16 blobs per layer).
    ///
    /// This low-level constructor trusts its config (debug builds assert
    /// the basics); [`crate::Ratel::build`] runs the full
    /// [`EngineConfig::validate`] pass first and reports every violation.
    pub fn new(config: EngineConfig) -> Result<Self, RatelError> {
        debug_assert_eq!(
            config.act_decisions.len(),
            config.model.layers,
            "one activation decision per block"
        );
        let tier_config = TierConfig {
            gpu_capacity: config.gpu_capacity,
            host_capacity: config.host_capacity,
            ssd_capacity: None,
            ssd_dir: TierConfig::unbounded_temp().ssd_dir,
        };
        let store = Arc::new(TieredStore::new(tier_config)?);
        let model = GptModel::new(config.model, config.seed);

        let scaler = LossScaler::new(config.loss_scale);
        let layer_steps = vec![0u64; config.model.layers + 2];
        let mut engine = RatelEngine {
            config,
            store,
            model,
            step: 0,
            layer_steps,
            scaler,
            last_telemetry: None,
            conformance: None,
            last_findings: Vec::new(),
            total_findings: 0,
            step_dag: None,
        };
        engine.init_states()?;
        if matches!(engine.config.execution, ExecutionOptions::Executor(_)) {
            // Executor mode lowers the movement plan once here: the
            // builder self-verifies the schedule in debug builds, and
            // the lowering re-verifies it after pacing edges are added —
            // the DAG `train_step` dispatches is the DAG that passed.
            engine.step_dag = Some(Arc::new(dag_step::StepDag::lower(&engine.movement_spec())?));
        } else {
            // Debug builds statically verify the engine's movement plan
            // at construction: the schedule twin of one step is lowered
            // and built, and the builder's self-check panics on any
            // staleness, use-before-fetch, WAR, or residency violation.
            #[cfg(debug_assertions)]
            {
                let _ = engine.movement_spec().build();
            }
        }
        Ok(engine)
    }

    /// Lowers one engine step into its schedule twin: an
    /// [`IterationSpec`] planning exactly what the engine moves (the
    /// same shape `ratel-bench validate` compares telemetry against).
    /// Layer ids follow the engine: 0 = embedding, 1..=L = blocks,
    /// L+1 = head. Compute durations are placeholders — the twin exists
    /// for dataflow/residency structure, which `ratel-verify` checks
    /// statically; see [`IterationSpec::verify`].
    pub fn movement_spec(&self) -> crate::schedule::IterationSpec {
        debug_assert!(
            (0..self.layer_count())
                .all(|id| analytic_layer_params(&self.config.model, id)
                    == self.layer_param_count(id)),
            "analytic layer param counts diverged from the live model"
        );
        movement_spec_for(&self.config)
    }

    /// Number of schedulable layers (embedding + blocks + head).
    pub fn layer_count(&self) -> usize {
        self.config.model.layers + 2
    }

    /// The model shape the engine was built with.
    pub fn model_config(&self) -> GptConfig {
        self.config.model
    }

    fn layer_params_flat(&self, layer: usize) -> Vec<f32> {
        let l = self.config.model.layers;
        if layer == 0 {
            self.model.embedding.params_flat()
        } else if layer <= l {
            self.model.blocks[layer - 1].params_flat()
        } else {
            self.model.head.params_flat()
        }
    }

    fn init_states(&self) -> Result<(), StorageError> {
        // All initial states stream to the SSD tier in one coalesced
        // batch per layer kind: three sequential segment writes instead of
        // 3 * layer_count random blob writes.
        let mut masters = Vec::new();
        let mut moments = Vec::new();
        let mut p16s = Vec::new();
        for layer in 0..self.layer_count() {
            let master = self.layer_params_flat(layer);
            // P16 is what the GPU computes with: the f16 rounding of the
            // master, exactly what the optimizer will emit after steps.
            p16s.push((p16_key(layer), encode_f16(&master)));
            // Fresh `[m..., v...]` moments: 2n zero f32s.
            moments.push((moments_key(layer), vec![0u8; 8 * master.len()]));
            masters.push((master_key(layer), encode_f32(&master)));
        }
        self.store.put_batch(Tier::Ssd, masters)?;
        self.store.put_batch(Tier::Ssd, moments)?;
        self.store.put_batch(Tier::Ssd, p16s)?;
        Ok(())
    }

    /// Loads a layer's P16 blob into the GPU arena, decodes it into the
    /// layer skeleton, and removes the staged copy (read-only streaming).
    fn stage_params(&mut self, layer: usize) -> Result<(), StorageError> {
        let key = p16_key(layer);
        let staged = format!("{key}#staged");
        self.store.copy_to(&key, &staged, Tier::Gpu)?;
        load_staged(&self.store, &mut self.model, layer, &staged)
    }

    /// Stages a layer either serially or from the prefetch pipeline.
    fn stage_via(
        &mut self,
        layer: usize,
        pf: &mut Option<prefetch::ParamPrefetcher>,
    ) -> Result<(), StorageError> {
        match pf {
            Some(pf) => {
                let staged = pf.next()?;
                load_staged(&self.store, &mut self.model, layer, &staged)
            }
            None => self.stage_params(layer),
        }
    }

    /// The layer touch order of one training step: forward 0..=L+1, then
    /// backward L..=1 and the embedding.
    fn stage_order(&self) -> Vec<usize> {
        let l = self.config.model.layers;
        let mut order: Vec<usize> = (0..=l + 1).collect();
        order.extend((1..=l).rev());
        order.push(0);
        order
    }

    /// Runs one full training step (forward, backward with swapped or
    /// recomputed activations, actively offloaded synchronous optimizer).
    ///
    /// `tokens`/`targets` are `batch * seq` ids, sequence-major.
    pub fn train_step(
        &mut self,
        tokens: &[usize],
        targets: &[usize],
    ) -> Result<StepStats, RatelError> {
        let result = self.train_step_inner(tokens, targets);
        self.seal_step(result)
    }

    fn train_step_inner(
        &mut self,
        tokens: &[usize],
        targets: &[usize],
    ) -> Result<StepStats, RatelError> {
        let t0 = std::time::Instant::now();
        let traffic_before = self.store.traffic();
        let faults_before = self.store.telemetry().fault_stats();
        let step_start = self.begin_step_telemetry();
        self.step += 1;
        ratel_obs::flight().record(EventKind::StepBegin, 0, "step", 0, self.step);

        let scale = self.scaler.current();
        let (loss, skipped, tasks) = if let ExecutionOptions::Executor(opts) = self.config.execution
        {
            // Schedule-driven: dispatch the lowered, verified DAG onto
            // the per-resource worker pools.
            let (loss, skipped, breakdown) = self.run_dag_step(tokens, targets, scale, opts)?;
            (loss, skipped, Some(breakdown))
        } else {
            // Legacy stage loop: start the optimizer threads (state
            // prefetcher + updater), which consume gradient blobs as
            // they land in host memory.
            let optimizer = self.start_optimizer(scale)?;
            let loss = self.forward_backward(tokens, targets, scale, |eng, layer, grads| {
                if eng.is_frozen(layer) {
                    return Ok(());
                }
                eng.emit_gradient(layer, grads, &optimizer)
            })?;
            // Synchronous semantics: the step is not done until every
            // layer's update has been written back to the SSD tier.
            let skipped = optimizer.finish()?;
            (loss, skipped, None)
        };
        self.finish_step(
            skipped,
            tasks,
            t0,
            loss,
            scale,
            traffic_before,
            faults_before,
            step_start,
        )
    }

    /// Runs one step through the schedule-driven executor: builds the
    /// step context over the engine's state and dispatches the lowered
    /// DAG. Returns `(loss, overflow-skipped layers, task breakdown)`.
    fn run_dag_step(
        &mut self,
        tokens: &[usize],
        targets: &[usize],
        scale: f32,
        opts: ExecutorOptions,
    ) -> Result<(f32, Vec<usize>, executor::TaskBreakdown), RatelError> {
        let dag = Arc::clone(self.step_dag.as_ref().ok_or_else(|| {
            RatelError::Runtime(
                "executor step requested but no step DAG was lowered at construction".into(),
            )
        })?);
        let step_seed = self.dropout_step_seed();
        // The LR schedule runs on the wall-step clock (0-based).
        let mut adam = self.config.adam;
        adam.lr *= self.config.lr_schedule.factor(self.step - 1);
        let ctx = dag_step::StepCtx::new(
            &self.store,
            &self.config,
            &dag.actions,
            &mut self.model,
            tokens,
            targets,
            scale,
            step_seed,
            adam,
            &self.layer_steps,
        );
        let breakdown = executor::Executor::new(opts.workers_per_pool).run(&dag.graph, &ctx)?;
        let (loss, skipped) = ctx.into_outcome();
        Ok((loss, skipped, breakdown))
    }

    /// Flight-records the step outcome: an `Error` event plus a
    /// postmortem dump when the step failed (the ring's tail then holds
    /// the failing transfer and its retries), pass-through otherwise.
    fn seal_step(&self, result: Result<StepStats, RatelError>) -> Result<StepStats, RatelError> {
        if let Err(e) = &result {
            ratel_obs::flight().record(EventKind::Error, 0, &e.to_string(), 0, self.step);
            ratel_obs::dump_postmortem("train step failed");
        }
        result
    }

    /// Runs one training step over several micro-batches with gradient
    /// accumulation: each micro-batch's G16 gradients land in host memory
    /// and are summed into f32 accumulators there; only after the final
    /// micro-batch does the (averaged, re-rounded) gradient reach the
    /// optimizer, whose handlers then overlap the final backward's tail.
    ///
    /// Semantics (mirrored exactly by
    /// [`reference::ReferenceTrainer::train_step_accumulated`]): per-layer
    /// gradient = `f16( mean_i( f16(g_i) ) )`; the reported loss is the
    /// mean micro-batch loss.
    pub fn train_step_accumulated(
        &mut self,
        micro_batches: &[(Vec<usize>, Vec<usize>)],
    ) -> Result<StepStats, RatelError> {
        let result = self.train_step_accumulated_inner(micro_batches);
        self.seal_step(result)
    }

    fn train_step_accumulated_inner(
        &mut self,
        micro_batches: &[(Vec<usize>, Vec<usize>)],
    ) -> Result<StepStats, RatelError> {
        assert!(!micro_batches.is_empty(), "need at least one micro-batch");
        let t0 = std::time::Instant::now();
        let traffic_before = self.store.traffic();
        let faults_before = self.store.telemetry().fault_stats();
        let step_start = self.begin_step_telemetry();
        self.step += 1;
        ratel_obs::flight().record(EventKind::StepBegin, 0, "step", 0, self.step);
        let scale = self.scaler.current();
        let n = micro_batches.len();
        let inv_n = 1.0 / n as f32;

        // Accumulation passes: gradients stay in host f32 accumulators.
        let mut loss_sum = 0.0f32;
        for (tokens, targets) in &micro_batches[..n - 1] {
            loss_sum += self.forward_backward(tokens, targets, scale, |eng, layer, grads| {
                if eng.is_frozen(layer) {
                    return Ok(());
                }
                eng.accumulate_gradient(layer, grads)
            })?;
        }

        // Final pass: merge with the accumulators, average, and stream to
        // the active optimizer.
        let optimizer = self.start_optimizer(scale)?;
        let (tokens, targets) = &micro_batches[n - 1];
        loss_sum += self.forward_backward(tokens, targets, scale, |eng, layer, mut grads| {
            if eng.is_frozen(layer) {
                return Ok(());
            }
            let akey = accum_key(layer);
            if eng.store.contains(&akey) {
                let acc = decode_f32(&eng.store.take(&akey)?);
                for (g, a) in grads.iter_mut().zip(&acc) {
                    *g = (round_to_f16(*g) + a) * inv_n;
                }
            } else if n > 1 {
                for g in grads.iter_mut() {
                    *g = round_to_f16(*g) * inv_n;
                }
            }
            eng.emit_gradient(layer, grads, &optimizer)
        })?;
        let skipped = optimizer.finish()?;
        self.finish_step(
            skipped,
            None,
            t0,
            loss_sum * inv_n,
            scale,
            traffic_before,
            faults_before,
            step_start,
        )
    }

    /// Sums a micro-batch's f16-rounded gradient into the layer's host
    /// f32 accumulator (creating it on first use). The f16 blob still
    /// crosses the GPU->host link like any G16 offload.
    fn accumulate_gradient(&self, layer: usize, grads: Vec<f32>) -> Result<(), StorageError> {
        let gkey = format!("layer{layer}/grad-micro");
        offload_f16(&self.store, &gkey, encode_f16(&grads), Tier::Host)?;
        let g16 = decode_f16(&self.store.take(&gkey)?);
        let akey = accum_key(layer);
        if self.store.contains(&akey) {
            optimizer::update_blobs(&self.store, [akey.as_str()], |[acc]| {
                with_f32_mut(acc, |acc| {
                    for (a, g) in acc.iter_mut().zip(&g16) {
                        *a += g;
                    }
                })
            })?;
        } else {
            self.store.put(&akey, Tier::Host, encode_f32(&g16))?;
        }
        Ok(())
    }

    fn start_optimizer(&self, scale: f32) -> Result<ActiveOptimizer, RatelError> {
        // The LR schedule runs on the wall-step clock (0-based).
        let mut adam = self.config.adam;
        adam.lr *= self.config.lr_schedule.factor(self.step - 1);
        ActiveOptimizer::start(
            Arc::clone(&self.store),
            self.backward_layer_order(),
            adam,
            self.layer_steps.clone(),
            self.config.active_offload(),
            scale,
            self.config.grad_clip,
        )
    }

    /// Marks the start of an instrumented step: discards spans left over
    /// from inter-step activity (eval, generation) so the step's record
    /// holds only its own spans. Returns the step's recorder-clock start
    /// and a route-metrics snapshot to delta against, or `None` when
    /// telemetry is off.
    fn begin_step_telemetry(&self) -> Option<(f64, [ratel_storage::RouteMetrics; 4])> {
        let rec = self.store.telemetry();
        rec.enabled().then(|| {
            rec.drain_spans();
            (rec.now(), rec.route_metrics())
        })
    }

    /// Seals one step after every layer's update has been written back:
    /// advances the scaler and per-layer clocks, records the scaler
    /// span, collects telemetry/conformance, and assembles the stats.
    /// `skipped` is the optimizer's overflow-skip list; `tasks` the
    /// executor breakdown (None on the legacy paths).
    #[allow(clippy::too_many_arguments)]
    fn finish_step(
        &mut self,
        skipped: Vec<usize>,
        tasks: Option<executor::TaskBreakdown>,
        t0: std::time::Instant,
        loss: f32,
        scale: f32,
        traffic_before: TrafficSnapshot,
        faults_before: FaultStats,
        step_start: Option<(f64, [ratel_storage::RouteMetrics; 4])>,
    ) -> Result<StepStats, RatelError> {
        let rec = Arc::clone(self.store.telemetry());
        let t_scaler = rec.enabled().then(|| rec.now());
        self.scaler.update(!skipped.is_empty());
        for layer in 0..self.layer_count() {
            if !skipped.contains(&layer) && !self.is_frozen(layer) {
                self.layer_steps[layer] += 1;
            }
        }
        if let Some(t) = t_scaler {
            let label = if skipped.is_empty() {
                format!("scaler ok (scale {scale})")
            } else {
                format!("scaler overflow ({} skipped)", skipped.len())
            };
            rec.record_span("engine", SpanCategory::Other, label, t, rec.now());
        }
        let traffic = self.store.traffic().since(&traffic_before);
        let fault_stats = rec.fault_stats().since(&faults_before);
        let wall_seconds = t0.elapsed().as_secs_f64();
        if let Some((step_start, metrics_before)) = step_start {
            self.last_telemetry = Some(StepTelemetry::collect(
                &rec,
                traffic,
                step_start,
                wall_seconds,
                &metrics_before,
                fault_stats,
            ));
        }
        // Conformance: hold the instrumented step against the movement
        // plan; every divergence becomes a structured finding plus a
        // flight-recorder Drift event.
        self.last_findings.clear();
        if let (Some(monitor), Some(t)) = (&self.conformance, self.last_telemetry.as_ref()) {
            let findings = monitor.check(t);
            for f in &findings {
                ratel_obs::flight().record(
                    EventKind::Drift,
                    f.kind.index() as u8,
                    &f.detail,
                    f.measured.unwrap_or(0),
                    self.step,
                );
            }
            self.total_findings += findings.len() as u64;
            self.last_findings = findings;
        }
        ratel_obs::flight().record(EventKind::StepEnd, 0, "step", traffic.total(), self.step);
        Ok(StepStats {
            loss,
            traffic,
            wall_seconds,
            loss_scale: scale,
            skipped_layers: skipped.len(),
            fault_stats,
            tasks,
        })
    }

    /// The dropout step-seed for the current (1-based) wall step.
    fn dropout_step_seed(&self) -> u64 {
        self.config.seed ^ self.step.wrapping_mul(0x517C_C1B7_2722_0A95)
    }

    /// One forward+backward pass; each layer's raw (scaled) f32 gradient
    /// is handed to `on_grad` in backward order. Returns the loss.
    fn forward_backward(
        &mut self,
        tokens: &[usize],
        targets: &[usize],
        scale: f32,
        mut on_grad: impl FnMut(&RatelEngine, usize, Vec<f32>) -> Result<(), StorageError>,
    ) -> Result<f32, StorageError> {
        let c = self.config.model;
        let l = c.layers;
        let rec = Arc::clone(self.store.telemetry());
        let mut pf = if self.config.legacy_prefetch() {
            Some(prefetch::ParamPrefetcher::start(
                Arc::clone(&self.store),
                self.stage_order(),
            )?)
        } else {
            None
        };

        // ---------------- Forward ----------------
        self.stage_via(0, &mut pf)?;
        let t = rec.enabled().then(|| rec.now());
        let mut x = self
            .model
            .embedding
            .forward(tokens, c.batch, c.seq)
            .quantize_f16();
        if let Some(t) = t {
            rec.record_span("gpu", SpanCategory::Forward, "fwd L0", t, rec.now());
        }
        for b in 0..l {
            // Each block's *input* is its checkpoint (the inter-block A16
            // of the paper), always swapped so backward can run
            // layer-at-a-time without holding the whole graph.
            offload_f16(&self.store, &ckpt_key(b + 1), x.to_f16_bytes(), Tier::Host)?;
            self.stage_via(b + 1, &mut pf)?;
            let spec = self
                .config
                .dropout
                .map(|p| block_dropout_spec(p, self.dropout_step_seed(), b));
            let t = rec.enabled().then(|| rec.now());
            let (y, mut saved) = self.model.blocks[b].forward_with(&x, spec);
            if let Some(t) = t {
                rec.record_span(
                    "gpu",
                    SpanCategory::Forward,
                    format!("fwd L{}", b + 1),
                    t,
                    rec.now(),
                );
            }
            saved.quantize_f16();
            match self.config.act_decisions[b] {
                ActDecision::SwapToHost => {
                    offload_f16(&self.store, &act_key(b), saved.to_f16_bytes(), Tier::Host)?;
                }
                ActDecision::SwapToSsd => {
                    offload_f16(&self.store, &act_key(b), saved.to_f16_bytes(), Tier::Ssd)?;
                }
                ActDecision::Recompute => drop(saved),
            }
            x = y.quantize_f16();
        }

        // ---------------- Loss + head backward ----------------
        self.stage_via(l + 1, &mut pf)?;
        let t = rec.enabled().then(|| rec.now());
        let (loss, head_saved) = self.model.head.forward(&x, targets);
        if let Some(t) = t {
            rec.record_span(
                "gpu",
                SpanCategory::Forward,
                format!("fwd L{}", l + 1),
                t,
                rec.now(),
            );
        }
        let t = rec.enabled().then(|| rec.now());
        let (mut dx, head_grads) = self
            .model
            .head
            .backward_scaled(&x, &head_saved, targets, scale);
        drop(head_saved);
        on_grad(self, l + 1, head_grads)?;
        if let Some(t) = t {
            rec.record_span(
                "gpu",
                SpanCategory::Backward,
                format!("bwd L{}", l + 1),
                t,
                rec.now(),
            );
        }

        // ---------------- Block backward ----------------
        // The per-layer backward spans cover the whole layer turnaround
        // (checkpoint fetch, staging, activation fetch or recompute,
        // backward kernels, gradient hand-off): this is the window the
        // active optimizer gets to hide behind, so the overlap ratio is
        // measured against it.
        for b in (0..l).rev() {
            let t = rec.enabled().then(|| rec.now());
            let rows = c.batch * c.seq;
            let ckpt = fetch_f16(&self.store, &ckpt_key(b + 1))?;
            let input = Tensor::from_f16_bytes(&[rows, c.hidden], &ckpt);
            self.stage_via(b + 1, &mut pf)?;
            let spec = self
                .config
                .dropout
                .map(|p| block_dropout_spec(p, self.dropout_step_seed(), b));
            let saved = match self.config.act_decisions[b] {
                ActDecision::SwapToHost | ActDecision::SwapToSsd => {
                    let bytes = fetch_f16(&self.store, &act_key(b))?;
                    BlockSaved::from_f16_bytes(&bytes, c.batch, c.seq, c.hidden, c.heads)
                }
                ActDecision::Recompute => {
                    // Rematerialization regenerates the *same* dropout
                    // masks from the step/layer-derived seed.
                    let (_, mut s) = self.model.blocks[b].forward_with(&input, spec);
                    s.quantize_f16();
                    s
                }
            };
            let (dprev, grads) = self.model.blocks[b].backward_with(&input, &saved, &dx, spec);
            dx = dprev;
            on_grad(self, b + 1, grads)?;
            if let Some(t) = t {
                rec.record_span(
                    "gpu",
                    SpanCategory::Backward,
                    format!("bwd L{}", b + 1),
                    t,
                    rec.now(),
                );
            }
        }

        // ---------------- Embedding backward ----------------
        let t = rec.enabled().then(|| rec.now());
        self.stage_via(0, &mut pf)?;
        let emb_grads = self.model.embedding.backward(tokens, c.batch, c.seq, &dx);
        on_grad(self, 0, emb_grads)?;
        if let Some(t) = t {
            rec.record_span("gpu", SpanCategory::Backward, "bwd L0", t, rec.now());
        }
        Ok(loss)
    }

    /// The order gradients arrive at the optimizer: head, blocks in
    /// reverse, embedding — minus the frozen layers.
    fn backward_layer_order(&self) -> Vec<usize> {
        let l = self.config.model.layers;
        let mut order = vec![l + 1];
        order.extend((1..=l).rev());
        order.push(0);
        order.retain(|layer| !self.config.frozen_layers.contains(layer));
        order
    }

    /// Whether a layer's parameters are frozen.
    fn is_frozen(&self, layer: usize) -> bool {
        self.config.frozen_layers.contains(&layer)
    }

    /// Quantizes a layer gradient to G16, lands it in host memory (the
    /// active offload), and notifies the optimizer.
    fn emit_gradient(
        &self,
        layer: usize,
        grads: Vec<f32>,
        optimizer: &ActiveOptimizer,
    ) -> Result<(), StorageError> {
        let rec = self.store.telemetry();
        let t = rec.enabled().then(|| rec.now());
        let key = grad_key(layer);
        offload_f16(&self.store, &key, encode_f16(&grads), Tier::Host)?;
        optimizer.submit(GradMessage { layer, key });
        if let Some(t) = t {
            rec.record_span(
                "grad-offload",
                SpanCategory::Other,
                format!("grad L{layer}"),
                t,
                rec.now(),
            );
        }
        Ok(())
    }

    /// Reads the current master (f32) parameters of a layer — for tests
    /// and checkpoint export.
    pub fn master_params(&self, layer: usize) -> Result<Vec<f32>, RatelError> {
        Ok(decode_f32(&self.store.read(&master_key(layer))?))
    }

    /// Reads the current P16 compute copy of a layer (decoded to f32).
    pub fn p16_params(&self, layer: usize) -> Result<Vec<f32>, RatelError> {
        Ok(decode_f16(&self.store.read(&p16_key(layer))?))
    }

    /// The tiered store (for inspection in tests/examples).
    pub fn store(&self) -> &TieredStore {
        &self.store
    }

    /// Evaluates the loss on a batch without training (no state change).
    pub fn eval_loss(&mut self, tokens: &[usize], targets: &[usize]) -> Result<f32, RatelError> {
        let c = self.config.model;
        self.stage_params(0)?;
        let mut x = self
            .model
            .embedding
            .forward(tokens, c.batch, c.seq)
            .quantize_f16();
        for b in 0..c.layers {
            self.stage_params(b + 1)?;
            let (y, _) = self.model.blocks[b].forward(&x);
            x = y.quantize_f16();
        }
        self.stage_params(c.layers + 1)?;
        let (loss, _) = self.model.head.forward(&x, targets);
        Ok(loss)
    }

    /// Greedy autoregressive generation through the tiered engine: the
    /// prompt is extended one token at a time, each step streaming every
    /// layer's P16 from the SSD tier exactly like a training forward.
    ///
    /// The model has a fixed context of `seq` tokens; the window holds
    /// the most recent `seq` tokens (causal attention makes trailing
    /// padding harmless for the positions before it). Returns the
    /// `max_new_tokens` generated ids.
    ///
    /// # Panics
    /// If the prompt is empty or contains out-of-vocabulary ids.
    pub fn generate(
        &mut self,
        prompt: &[usize],
        max_new_tokens: usize,
    ) -> Result<Vec<usize>, RatelError> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        let c = self.config.model;
        assert!(
            prompt.iter().all(|&t| t < c.vocab),
            "prompt token out of vocabulary"
        );
        let mut context: Vec<usize> = prompt.to_vec();
        let mut out = Vec::with_capacity(max_new_tokens);
        for _ in 0..max_new_tokens {
            // Window of the last `seq` tokens, zero-padded at the tail.
            let start = context.len().saturating_sub(c.seq);
            let window = &context[start..];
            let last_pos = window.len() - 1;
            let mut ids = vec![0usize; c.seq];
            ids[..window.len()].copy_from_slice(window);
            // The model runs at its configured micro-batch; replicate the
            // window and read row 0.
            let batch_ids: Vec<usize> = (0..c.batch).flat_map(|_| ids.iter().copied()).collect();

            self.stage_params(0)?;
            let mut x = self
                .model
                .embedding
                .forward(&batch_ids, c.batch, c.seq)
                .quantize_f16();
            for b in 0..c.layers {
                self.stage_params(b + 1)?;
                let (y, _) = self.model.blocks[b].forward(&x);
                x = y.quantize_f16();
            }
            self.stage_params(c.layers + 1)?;
            let logits = self.model.head.logits(&x);
            let row = &logits.data()[last_pos * c.vocab..(last_pos + 1) * c.vocab];
            let next = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("non-empty vocabulary");
            context.push(next);
            out.push(next);
        }
        Ok(out)
    }

    /// KV-cached greedy generation: like [`RatelEngine::generate`], but
    /// each block keeps a key/value cache that is *offloaded to the host
    /// tier between tokens* and fetched back per layer — the
    /// inference-side analogue of activation swapping, with every byte
    /// metered. The total context (prompt + generated) must fit the
    /// model's `seq` positions.
    ///
    /// # Panics
    /// If the prompt is empty, contains out-of-vocabulary ids, or the
    /// total context would exceed `seq`.
    pub fn generate_cached(
        &mut self,
        prompt: &[usize],
        max_new_tokens: usize,
    ) -> Result<Vec<usize>, RatelError> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        let c = self.config.model;
        assert!(
            prompt.len() + max_new_tokens <= c.seq,
            "context {} exceeds the model's {} positions",
            prompt.len() + max_new_tokens,
            c.seq
        );
        let d = c.hidden / c.heads;
        let kv_key = |b: usize| format!("block{b}/kv");

        let mut out = Vec::with_capacity(max_new_tokens);
        let mut next_token: Option<usize> = None;
        for pos in 0..prompt.len() + max_new_tokens {
            let token = match next_token {
                Some(t) => t,
                None => prompt[pos],
            };
            self.stage_params(0)?;
            let mut x_t = self.model.embedding.forward_at(token, pos).quantize_f16();
            for b in 0..c.layers {
                self.stage_params(b + 1)?;
                let mut cache = if pos == 0 {
                    KvCache::new(c.heads, d)
                } else {
                    let bytes = fetch_f16(&self.store, &kv_key(b))?;
                    KvCache::from_f16_bytes(&bytes, c.heads, d, pos)
                };
                let y = self.model.blocks[b].forward_cached(&x_t, &mut cache);
                offload_f16(&self.store, &kv_key(b), cache.to_f16_bytes(), Tier::Host)?;
                x_t = y.quantize_f16();
            }
            if pos + 1 >= prompt.len() && out.len() < max_new_tokens {
                self.stage_params(c.layers + 1)?;
                let logits = self.model.head.logits(&x_t);
                let next = logits
                    .data()
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .expect("non-empty vocabulary");
                assert!(next < c.vocab);
                out.push(next);
                next_token = Some(next);
            }
        }
        // Drop the caches so the tiers drain.
        for b in 0..c.layers {
            self.store.remove(&kv_key(b))?;
        }
        Ok(out)
    }

    /// Samples a continuation with temperature and top-k filtering
    /// (KV-cached path). `temperature <= 0` or `top_k == 1` degenerate to
    /// greedy decoding; sampling is deterministic in `sample_seed`.
    ///
    /// # Panics
    /// Same conditions as [`RatelEngine::generate_cached`].
    pub fn generate_sampled(
        &mut self,
        prompt: &[usize],
        max_new_tokens: usize,
        temperature: f32,
        top_k: usize,
        sample_seed: u64,
    ) -> Result<Vec<usize>, RatelError> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        assert!(!prompt.is_empty(), "prompt must not be empty");
        let c = self.config.model;
        assert!(
            prompt.len() + max_new_tokens <= c.seq,
            "context {} exceeds the model's {} positions",
            prompt.len() + max_new_tokens,
            c.seq
        );
        let mut rng = StdRng::seed_from_u64(sample_seed);
        let d = c.hidden / c.heads;
        let kv_key = |b: usize| format!("block{b}/kv-sample");
        let mut out = Vec::with_capacity(max_new_tokens);
        let mut next_token: Option<usize> = None;
        for pos in 0..prompt.len() + max_new_tokens {
            let token = match next_token {
                Some(t) => t,
                None => prompt[pos],
            };
            self.stage_params(0)?;
            let mut x_t = self.model.embedding.forward_at(token, pos).quantize_f16();
            for b in 0..c.layers {
                self.stage_params(b + 1)?;
                let mut cache = if pos == 0 {
                    KvCache::new(c.heads, d)
                } else {
                    let bytes = fetch_f16(&self.store, &kv_key(b))?;
                    KvCache::from_f16_bytes(&bytes, c.heads, d, pos)
                };
                let y = self.model.blocks[b].forward_cached(&x_t, &mut cache);
                offload_f16(&self.store, &kv_key(b), cache.to_f16_bytes(), Tier::Host)?;
                x_t = y.quantize_f16();
            }
            if pos + 1 >= prompt.len() && out.len() < max_new_tokens {
                self.stage_params(c.layers + 1)?;
                let logits = self.model.head.logits(&x_t);
                let next = sample_from_logits(logits.data(), temperature, top_k, &mut rng);
                out.push(next);
                next_token = Some(next);
            }
        }
        for b in 0..c.layers {
            self.store.remove(&kv_key(b))?;
        }
        Ok(out)
    }

    /// Total SSD-tier bytes currently holding model states.
    pub fn ssd_state_bytes(&self) -> u64 {
        self.store.used(Tier::Ssd)
    }

    /// Total scalar parameters across all layers.
    pub fn total_params(&self) -> usize {
        (0..self.layer_count())
            .map(|l| self.layer_params_flat(l).len())
            .sum()
    }

    /// Scalar parameters of one layer (0 = embedding, 1..=L = blocks,
    /// L+1 = head).
    pub fn layer_param_count(&self, layer: usize) -> usize {
        self.layer_params_flat(layer).len()
    }

    /// Route-level traffic helper: *cumulative* bytes that crossed
    /// `route` since the engine was created (per-step deltas are in
    /// [`StepStats::traffic`]).
    pub fn traffic_bytes(&self, route: Route) -> u64 {
        self.store.traffic().bytes(route)
    }

    /// Turns span/metrics recording on. Subsequent `train_step` calls
    /// populate [`RatelEngine::last_step_telemetry`]; every store
    /// transfer and engine stage is timestamped while enabled.
    pub fn enable_telemetry(&self) {
        self.store.telemetry().set_enabled(true);
    }

    /// The shared telemetry recorder (owned by the store; disabled until
    /// [`RatelEngine::enable_telemetry`]).
    pub fn telemetry(&self) -> &Arc<TelemetryRecorder> {
        self.store.telemetry()
    }

    /// The most recent instrumented step's telemetry: spans, per-route
    /// metrics, stage breakdown, overlap ratio. `None` until a step runs
    /// with telemetry enabled.
    pub fn last_step_telemetry(&self) -> Option<&StepTelemetry> {
        self.last_telemetry.as_ref()
    }

    /// Turns live plan-conformance monitoring on (enabling telemetry,
    /// which it needs): after every subsequent step the drained spans and
    /// traffic are held against the engine's movement plan, and any
    /// divergence lands in [`RatelEngine::conformance_findings`], the
    /// flight recorder (as `Drift` events), and the cumulative
    /// [`RatelEngine::total_findings`] count.
    pub fn enable_conformance(&mut self, config: conformance::ConformanceConfig) {
        self.enable_telemetry();
        self.conformance = Some(conformance::ConformanceMonitor::new(
            &self.movement_spec(),
            config,
        ));
    }

    /// Findings of the most recent conformance-checked step (empty when
    /// the step conformed, or monitoring is off).
    pub fn conformance_findings(&self) -> &[conformance::Finding] {
        &self.last_findings
    }

    /// Cumulative conformance findings across all checked steps.
    pub fn total_findings(&self) -> u64 {
        self.total_findings
    }

    /// Training steps run by this engine (including overflow-skipped
    /// ones).
    pub fn steps_run(&self) -> u64 {
        self.step
    }

    /// Caps an inter-tier route's bandwidth in the underlying store —
    /// used to emulate real link speeds so wall-clock measurements show
    /// scheduling effects (see the overlap integration test).
    pub fn set_route_throttle(&self, route: Route, bytes_per_sec: Option<f64>) {
        self.store.set_throttle(route, bytes_per_sec);
    }

    /// Saves a crash-safe training checkpoint (masters, Adam moments,
    /// step clocks) as a new *generation* in `dir`: every file is written
    /// to a temp sibling, fsynced, and renamed, with a checksummed
    /// manifest committed last — a crash at any point leaves the previous
    /// generation loadable. The two newest generations are kept. The P16
    /// copies are derivable and not stored. See [`checkpoint`] for the
    /// on-disk format.
    pub fn save_checkpoint(&self, dir: &std::path::Path) -> Result<(), RatelError> {
        checkpoint::save(self, dir)
    }

    /// Restores the newest verifiable checkpoint generation from `dir`
    /// into this engine (which must have the same model shape). Every
    /// blob is length- and checksum-verified before any engine state is
    /// touched; a torn or corrupted generation is skipped in favor of the
    /// previous good one. The P16 compute copies are re-derived from the
    /// restored masters.
    ///
    /// # Errors
    /// [`RatelError::CheckpointCorrupt`] when no generation in `dir`
    /// passes verification (the error lists why each one failed).
    pub fn load_checkpoint(&mut self, dir: &std::path::Path) -> Result<(), RatelError> {
        checkpoint::load(self, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::data::{learnable_batch, random_batch};
    use super::reference::ReferenceTrainer;
    use super::*;

    fn assert_bitwise_close(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x == y,
                "{what}: element {i} differs: {x} vs {y} (diff {})",
                (x - y).abs()
            );
        }
    }

    fn run_equivalence(config: EngineConfig, steps: usize) {
        let model = config.model;
        let seed = config.seed;
        let adam = config.adam;
        let mut engine = RatelEngine::new(config).unwrap();
        let mut reference = ReferenceTrainer::new(model, seed, adam);
        for s in 0..steps {
            let (tokens, targets) = random_batch(&model, 100 + s as u64);
            let stats = engine.train_step(&tokens, &targets).unwrap();
            let ref_loss = reference.train_step(&tokens, &targets);
            assert!(
                stats.loss == ref_loss,
                "step {s}: loss diverged: engine {} vs reference {ref_loss}",
                stats.loss
            );
        }
        for layer in 0..engine.layer_count() {
            let e = engine.master_params(layer).unwrap();
            assert_bitwise_close(&e, reference.master_params(layer), "master");
            let p = engine.p16_params(layer).unwrap();
            assert_bitwise_close(&p, &reference.p16_params(layer), "p16");
        }
    }

    #[test]
    fn offloaded_training_is_bitwise_identical_to_in_memory() {
        // The headline correctness claim: active gradient offloading with
        // everything swapped keeps training fully synchronous. The
        // default config runs the schedule-driven executor.
        run_equivalence(EngineConfig::tiny(), 3);
    }

    #[test]
    fn legacy_stage_loop_is_bitwise_identical_too() {
        let mut config = EngineConfig::tiny();
        config.execution = ExecutionOptions::LegacyOverlapped {
            prefetch_params: false,
        };
        run_equivalence(config, 3);
    }

    #[test]
    fn recompute_decisions_do_not_change_the_math() {
        let mut config = EngineConfig::tiny();
        config.act_decisions = vec![
            ActDecision::Recompute,
            ActDecision::SwapToSsd,
            ActDecision::Recompute,
        ];
        run_equivalence(config, 3);
    }

    #[test]
    fn separate_stage_optimizer_gives_the_same_result() {
        // Both the legacy separate-stage loop and the executor running
        // the SeparateStage plan shape.
        let mut config = EngineConfig::tiny();
        config.execution = ExecutionOptions::LegacySeparateStage {
            prefetch_params: false,
        };
        run_equivalence(config, 2);

        let mut config = EngineConfig::tiny();
        config.execution = ExecutionOptions::Executor(ExecutorOptions {
            offload: crate::offload::GradOffloadMode::SeparateStage,
            ..ExecutorOptions::default()
        });
        run_equivalence(config, 2);
    }

    #[test]
    fn executor_steps_report_a_task_breakdown() {
        use ratel_sim::meta::ResourceClass;
        let config = EngineConfig::tiny();
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let (tokens, targets) = random_batch(&model, 21);
        let stats = engine.train_step(&tokens, &targets).unwrap();
        let tasks = stats.tasks.as_ref().expect("executor attaches breakdown");
        assert_eq!(
            tasks.tasks_total,
            engine.step_dag.as_ref().unwrap().graph.len() as u64
        );
        // Every resource class of the plan ran work.
        for class in [
            ResourceClass::GpuCompute,
            ResourceClass::CpuCompute,
            ResourceClass::PcieG2M,
            ResourceClass::PcieM2G,
            ResourceClass::SsdArray,
        ] {
            assert!(
                tasks.pool(class).is_some_and(|p| p.tasks > 0),
                "{class:?} pool idle"
            );
        }
        assert!(tasks.busy_seconds_total() > 0.0);
        assert!(tasks.critical_path_seconds <= tasks.busy_seconds_total() + 1e-9);

        // Legacy steps carry no breakdown.
        let mut legacy = EngineConfig::tiny();
        legacy.execution = ExecutionOptions::LegacyOverlapped {
            prefetch_params: false,
        };
        let mut engine = RatelEngine::new(legacy).unwrap();
        let stats = engine.train_step(&tokens, &targets).unwrap();
        assert!(stats.tasks.is_none());
    }

    #[test]
    fn ssd_swapped_activations_generate_ssd_traffic() {
        let mut config = EngineConfig::tiny();
        config.act_decisions = vec![ActDecision::SwapToSsd; config.model.layers];
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let (tokens, targets) = random_batch(&model, 1);
        let stats = engine.train_step(&tokens, &targets).unwrap();
        // Each block's A16 blob goes host->ssd and comes back.
        let h2s = stats.traffic.bytes(Route::HostToSsd);
        let s2h = stats.traffic.bytes(Route::SsdToHost);
        assert!(h2s > 0 && s2h > 0);

        let mut host_only = EngineConfig::tiny();
        host_only.act_decisions = vec![ActDecision::SwapToHost; host_only.model.layers];
        let mut engine2 = RatelEngine::new(host_only).unwrap();
        let stats2 = engine2.train_step(&tokens, &targets).unwrap();
        assert!(
            stats.traffic.bytes(Route::HostToSsd) > stats2.traffic.bytes(Route::HostToSsd),
            "SSD swapping must add SSD writes"
        );
        // But the GPU<->host traffic of the swap itself is the same.
        assert_eq!(
            stats.traffic.bytes(Route::GpuToHost),
            stats2.traffic.bytes(Route::GpuToHost)
        );
    }

    #[test]
    fn recompute_reduces_offload_traffic() {
        let swap = {
            let mut c = EngineConfig::tiny();
            c.act_decisions = vec![ActDecision::SwapToHost; c.model.layers];
            c
        };
        let rec = {
            let mut c = EngineConfig::tiny();
            c.act_decisions = vec![ActDecision::Recompute; c.model.layers];
            c
        };
        let model = swap.model;
        let (tokens, targets) = random_batch(&model, 2);
        let mut e1 = RatelEngine::new(swap).unwrap();
        let mut e2 = RatelEngine::new(rec).unwrap();
        let t1 = e1.train_step(&tokens, &targets).unwrap().traffic;
        let t2 = e2.train_step(&tokens, &targets).unwrap().traffic;
        assert!(
            t2.bytes(Route::GpuToHost) < t1.bytes(Route::GpuToHost),
            "recompute should shrink G2M traffic: {} vs {}",
            t2.bytes(Route::GpuToHost),
            t1.bytes(Route::GpuToHost)
        );
    }

    #[test]
    fn state_traffic_matches_the_paper_inventory() {
        // Per step the SSD tier must serve at least: P16 forward (2
        // bytes/param) + P16 backward (2) + P32+OS32 reads (12), and
        // absorb P32+OS32+P16 writes (14).
        let config = EngineConfig::tiny();
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let params = engine.total_params() as u64;
        // The head is staged once (its forward and backward are adjacent
        // at the loss); every other layer is staged twice.
        let head_params = engine.layer_param_count(engine.layer_count() - 1) as u64;
        let (tokens, targets) = random_batch(&model, 3);
        let stats = engine.train_step(&tokens, &targets).unwrap();
        let s2h = stats.traffic.bytes(Route::SsdToHost);
        let h2s = stats.traffic.bytes(Route::HostToSsd);
        let expected_reads = params * 12 + (2 * params - head_params) * 2;
        assert_eq!(
            s2h, expected_reads,
            "SSD reads must be exactly P16 stages + 12P state reads"
        );
        assert_eq!(
            h2s,
            params * 14,
            "SSD writes must be exactly the 14P state write-back"
        );
    }

    #[test]
    fn step_stats_traffic_is_a_per_step_delta() {
        // Regression: StepStats.traffic must be a per-step delta taken
        // against a start-of-step snapshot, not a cumulative counter —
        // two identical steps report identical per-route byte counts.
        let config = EngineConfig::tiny();
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let (tokens, targets) = random_batch(&model, 7);
        let first = engine.train_step(&tokens, &targets).unwrap().traffic;
        let second = engine.train_step(&tokens, &targets).unwrap().traffic;
        for route in Route::ALL {
            assert!(first.bytes(route) > 0, "{route:?} should move bytes");
            assert_eq!(
                first.bytes(route),
                second.bytes(route),
                "{route:?}: identical steps must report identical deltas"
            );
        }
        // The store's cumulative counters keep growing underneath.
        for route in Route::ALL {
            assert_eq!(engine.traffic_bytes(route), 2 * first.bytes(route));
        }
    }

    #[test]
    fn telemetry_captures_spans_and_optimizer_overlap() {
        // The overlap assertion is only reliable on the legacy stage loop,
        // where backward spans cover the whole per-layer stage.
        let mut config = EngineConfig::tiny();
        config.execution = ExecutionOptions::LegacyOverlapped {
            prefetch_params: false,
        };
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        engine.enable_telemetry();
        let (tokens, targets) = random_batch(&model, 11);
        let stats = engine.train_step(&tokens, &targets).unwrap();
        let t = engine.last_step_telemetry().expect("telemetry collected");
        assert!(!t.spans.is_empty());
        let tracks: std::collections::HashSet<&str> =
            t.spans.iter().map(|s| s.track.as_str()).collect();
        for track in ["gpu", "cpu-opt", "opt-prefetch", "grad-offload", "engine"] {
            assert!(tracks.contains(track), "missing track {track}");
        }
        // Telemetry's traffic snapshot is the same delta StepStats got.
        for route in Route::ALL {
            assert_eq!(t.traffic.bytes(route), stats.traffic.bytes(route));
        }
        let b = t.stage_breakdown();
        assert!(b.forward > 0.0 && b.backward > 0.0 && b.optimizer > 0.0);
        assert!(b.transfer > 0.0, "store transfers must be spanned");
        // With active offloading on, some optimizer work must hide behind
        // backward (§IV-C). The tiny model still overlaps reliably because
        // each layer's update starts while later layers run backward.
        let overlap = t.optimizer_overlap_ratio();
        assert!(
            overlap > 0.0,
            "active offload should overlap optimizer with backward"
        );
        assert!(overlap <= 1.0 + 1e-9);
        // The timeline view carries every span, rebased to step start.
        let tl = t.timeline("measured");
        assert_eq!(tl.spans.len(), t.spans.len());
        assert!(tl.spans.iter().all(|s| s.start >= -1e-9));
    }

    #[test]
    fn loss_decreases_on_learnable_data() {
        let mut config = EngineConfig::tiny();
        config.adam.lr = 3e-3;
        let model = config.model;
        let mut engine = RatelEngine::new(config).unwrap();
        let (tokens, targets) = learnable_batch(&model, 5);
        let first = engine.train_step(&tokens, &targets).unwrap().loss;
        let mut last = first;
        for _ in 0..30 {
            last = engine.train_step(&tokens, &targets).unwrap().loss;
        }
        assert!(
            last < first * 0.7,
            "loss did not fall enough: {first} -> {last}"
        );
    }

    #[test]
    fn gpu_capacity_is_enforced() {
        let mut config = EngineConfig::tiny();
        config.gpu_capacity = Some(1024); // absurdly small "GPU"
        let err = match RatelEngine::new(config) {
            // Initialization itself doesn't touch the GPU tier...
            Ok(mut engine) => {
                let (tokens, targets) = random_batch(&GptConfig::tiny(), 4);
                engine.train_step(&tokens, &targets).unwrap_err()
            }
            Err(e) => e,
        };
        assert!(
            matches!(
                err,
                RatelError::Storage(StorageError::OutOfMemory {
                    tier: Tier::Gpu,
                    ..
                })
            ),
            "expected GPU OOM, got {err}"
        );
    }

    #[test]
    fn model_states_live_on_the_ssd_tier() {
        let config = EngineConfig::tiny();
        let engine = RatelEngine::new(config).unwrap();
        let params = engine.total_params() as u64;
        // P32 (4) + OS32 (8) + P16 (2) = 14 bytes/param at rest.
        assert_eq!(engine.ssd_state_bytes(), params * 14);
        assert_eq!(engine.store().used(Tier::Gpu), 0);
        assert_eq!(engine.store().used(Tier::Host), 0);
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::data::random_batch;
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ratel-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn checkpoint_resume_equals_uninterrupted_run() {
        let model = GptConfig::tiny();
        let mk = || RatelEngine::new(EngineConfig::tiny()).unwrap();
        let batches: Vec<_> = (0..6).map(|s| random_batch(&model, 400 + s)).collect();

        // Uninterrupted run.
        let mut straight = mk();
        for (t, y) in &batches {
            straight.train_step(t, y).unwrap();
        }

        // Run 3 steps, checkpoint, resume in a fresh engine.
        let dir = temp_dir("resume");
        let mut first = mk();
        for (t, y) in &batches[..3] {
            first.train_step(t, y).unwrap();
        }
        first.save_checkpoint(&dir).unwrap();
        drop(first);
        let mut resumed = mk();
        resumed.load_checkpoint(&dir).unwrap();
        for (t, y) in &batches[3..] {
            resumed.train_step(t, y).unwrap();
        }

        for l in 0..straight.layer_count() {
            assert_eq!(
                straight.master_params(l).unwrap(),
                resumed.master_params(l).unwrap(),
                "layer {l} diverged after resume"
            );
            assert_eq!(
                straight.p16_params(l).unwrap(),
                resumed.p16_params(l).unwrap()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_files_are_complete() {
        let engine = RatelEngine::new(EngineConfig::tiny()).unwrap();
        let dir = temp_dir("files");
        engine.save_checkpoint(&dir).unwrap();
        assert!(dir.join("manifest-g1.txt").exists());
        for l in 0..engine.layer_count() {
            assert!(dir.join(format!("g1-layer{l}.master")).exists());
            assert!(dir.join(format!("g1-layer{l}.moments")).exists());
        }
        // No temp droppings survive a successful save.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generations_accumulate_and_prune_to_two() {
        let engine = RatelEngine::new(EngineConfig::tiny()).unwrap();
        let dir = temp_dir("gens");
        for _ in 0..4 {
            engine.save_checkpoint(&dir).unwrap();
        }
        assert_eq!(checkpoint::generations(&dir), vec![3, 4]);
        // Pruned generations leave no blob files behind.
        assert!(!dir.join("g1-layer0.master").exists());
        assert!(!dir.join("manifest-g2.txt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_latest_generation_falls_back_to_previous() {
        let model = GptConfig::tiny();
        let mk = || RatelEngine::new(EngineConfig::tiny()).unwrap();
        let dir = temp_dir("fallback");
        let mut engine = mk();
        let (t, y) = random_batch(&model, 900);
        engine.train_step(&t, &y).unwrap();
        engine.save_checkpoint(&dir).unwrap(); // generation 1 (good)
        engine.train_step(&t, &y).unwrap();
        engine.save_checkpoint(&dir).unwrap(); // generation 2
        let good_master = engine.master_params(0).unwrap();

        // "Kill mid-checkpoint": generation 2's blob is torn after the
        // manifest committed — truncate it behind the manifest's back.
        let victim = dir.join("g2-layer0.master");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

        let mut resumed = mk();
        resumed.load_checkpoint(&dir).unwrap();
        // Generation 2 fails verification; generation 1 loads.
        assert_eq!(resumed.step, 1, "fell back to the step-1 generation");
        assert_ne!(resumed.master_params(0).unwrap(), good_master);

        // With generation 1 also gone, corruption is an error — never a
        // silently wrong model.
        std::fs::remove_file(dir.join("manifest-g1.txt")).unwrap();
        let mut fresh = mk();
        let err = fresh.load_checkpoint(&dir).unwrap_err();
        assert!(matches!(err, RatelError::CheckpointCorrupt(_)), "{err}");
        assert!(err.to_string().contains("generation 2"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod sampling_tests {
    use super::*;

    #[test]
    fn greedy_degenerate_cases_pick_the_argmax() {
        use rand::SeedableRng;
        let logits = [0.1f32, 2.0, -1.0, 1.9];
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(sample_from_logits(&logits, 0.0, 5, &mut rng), 1);
        assert_eq!(sample_from_logits(&logits, 1.0, 1, &mut rng), 1);
    }

    #[test]
    fn sampling_is_seeded_and_respects_top_k() {
        use rand::SeedableRng;
        let logits = [0.0f32, 0.1, 5.0, 4.9, -3.0];
        // top_k = 2 can only ever return 2 or 3.
        for seed in 0..20u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let pick = sample_from_logits(&logits, 1.0, 2, &mut rng);
            assert!(pick == 2 || pick == 3, "{pick}");
        }
        // Deterministic per seed.
        let mut a = rand::rngs::StdRng::seed_from_u64(7);
        let mut b = rand::rngs::StdRng::seed_from_u64(7);
        assert_eq!(
            sample_from_logits(&logits, 0.8, 3, &mut a),
            sample_from_logits(&logits, 0.8, 3, &mut b)
        );
    }

    #[test]
    fn low_temperature_concentrates_on_the_mode() {
        use rand::SeedableRng;
        let logits = [1.0f32, 1.2, 1.1];
        let mut hits = 0;
        for seed in 0..50u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            if sample_from_logits(&logits, 0.02, 3, &mut rng) == 1 {
                hits += 1;
            }
        }
        assert!(hits >= 48, "{hits}/50");
    }

    #[test]
    fn engine_sampled_generation_runs_and_is_deterministic() {
        use super::data::random_batch;
        let mut engine = RatelEngine::new(EngineConfig::tiny()).unwrap();
        let c = GptConfig::tiny();
        let (tokens, targets) = random_batch(&c, 1);
        engine.train_step(&tokens, &targets).unwrap();
        let prompt = &tokens[..4];
        let a = engine.generate_sampled(prompt, 5, 0.9, 8, 42).unwrap();
        let b = engine.generate_sampled(prompt, 5, 0.9, 8, 42).unwrap();
        let c2 = engine.generate_sampled(prompt, 5, 0.9, 8, 43).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|&t| t < c.vocab));
        let greedy_like = engine.generate_sampled(prompt, 5, 0.0, 8, 1).unwrap();
        let cached = engine.generate_cached(prompt, 5).unwrap();
        assert_eq!(greedy_like, cached);
        let _ = c2;
    }
}
