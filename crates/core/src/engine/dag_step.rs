//! Lowering the engine's movement plan into an executable step DAG.
//!
//! [`StepDag::lower`] takes the engine's schedule twin (the
//! [`IterationSpec`] from [`super::RatelEngine::movement_spec`]), builds
//! the statically verified task graph, parses every task label back into
//! an [`EngineAction`], and adds *pacing* edges that window read-ahead
//! tasks behind compute — the same two-layer windows the legacy
//! prefetcher threads enforced, now explicit edges in the graph instead
//! of bounded channels in the code.
//!
//! [`StepCtx`] then maps each task onto exactly the tiered-store
//! transfers and tensor kernels the hand-coded stage loop performed.
//! The mapping is byte-for-byte: the same blobs cross the same routes,
//! the same f16 rounding happens at the same points, so an executor step
//! is bitwise identical to a legacy step and to the in-memory reference
//! trainer — whatever worker count each pool runs.

use std::sync::Arc;

use ratel_check::sync::Mutex;

use ratel_sim::{TaskGraph, TaskId};
use ratel_storage::telemetry::SpanCategory;
use ratel_storage::{StorageError, Tier, TieredStore};
use ratel_tensor::dtype::{decode_f16, encode_f16};
use ratel_tensor::{
    block_dropout_spec, AdamParams, BlockSaved, GptModel, HeadSaved, ParamLayer, Tensor,
};

use super::executor::TaskAction;
use super::optimizer::{adam_update_in_store, stage_states, write_back};
use super::scaler::prepare_gradient;
use super::{
    act_key, ckpt_key, grad_key, master_key, moments_key, p16_key, ActDecision, EngineConfig,
};
use crate::error::RatelError;
use crate::schedule::IterationSpec;

/// What one task of the lowered step graph does, parsed from the
/// schedule's stable task labels (`fwd-read L3`, `opt-cpu L0`, …). The
/// payload is the engine layer id (0 = embedding, 1..=L = blocks,
/// L+1 = head).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum EngineAction {
    /// Stage a layer's P16 from SSD into host memory for forward.
    FwdRead(usize),
    /// Move the forward-staged P16 from host into the GPU arena.
    FwdFetch(usize),
    /// Decode the staged P16 and run the layer's forward kernels.
    Fwd(usize),
    /// Offload the block's checkpoint (and saved activations) to host.
    ActOff(usize),
    /// Spill the block's saved activations from host to the SSD tier.
    ActSpill(usize),
    /// Stage a layer's P16 from SSD into host memory for backward.
    BwdRead(usize),
    /// Move the backward-staged P16 from host into the GPU arena.
    BwdFetch(usize),
    /// Load the block's spilled activations from SSD back to host.
    ActLoad(usize),
    /// Fetch the block's checkpoint (and activations) back to the GPU.
    ActUp(usize),
    /// Run the layer's backward kernels.
    Bwd(usize),
    /// Offload the layer's G16 gradient to host memory.
    GradOff(usize),
    /// Stage the layer's master + moments from SSD into host memory.
    OptRead(usize),
    /// Decode the gradient and run the f32 Adam update on the CPU.
    OptCpu(usize),
    /// Write the updated P32/OS32/P16 back to the SSD tier.
    OptWrite(usize),
}

fn parse_action(label: &str) -> Option<EngineAction> {
    let (kind, layer) = label.rsplit_once(" L")?;
    let layer: usize = layer.parse().ok()?;
    Some(match kind {
        "fwd-read" => EngineAction::FwdRead(layer),
        "fwd-fetch" => EngineAction::FwdFetch(layer),
        "fwd" => EngineAction::Fwd(layer),
        "act-off" => EngineAction::ActOff(layer),
        "act-spill" => EngineAction::ActSpill(layer),
        "bwd-read" => EngineAction::BwdRead(layer),
        "bwd-fetch" => EngineAction::BwdFetch(layer),
        "act-load" => EngineAction::ActLoad(layer),
        "act-up" => EngineAction::ActUp(layer),
        "bwd" => EngineAction::Bwd(layer),
        "grad-off" => EngineAction::GradOff(layer),
        "opt-read" => EngineAction::OptRead(layer),
        "opt-cpu" => EngineAction::OptCpu(layer),
        "opt-write" => EngineAction::OptWrite(layer),
        _ => return None,
    })
}

/// A lowered, verified, paced step graph plus the action each task maps
/// to (indexed by `TaskId.0`). Built once per engine (the plan depends
/// only on the config) and reused every step.
#[derive(Debug)]
pub(super) struct StepDag {
    /// The executable task graph.
    pub(super) graph: TaskGraph,
    /// `actions[t]` is what task `t` does.
    pub(super) actions: Vec<EngineAction>,
}

/// How many GPU-compute tasks ahead of the consuming kernel a staging
/// read may start — the executor twin of the legacy prefetcher windows
/// (`prefetch::WINDOW` and `optimizer::PREFETCH_WINDOW`, both 2).
const PACE_WINDOW: usize = 2;

impl StepDag {
    /// Lowers a movement plan into an executable DAG: builds the spec's
    /// (self-verified) graph, parses every label into an
    /// [`EngineAction`], and adds pacing edges. Debug builds re-verify
    /// the paced graph before it can reach the executor.
    ///
    /// # Errors
    /// [`RatelError::InvalidConfig`] if any task label does not parse to
    /// an executable action — multi-GPU or multi-iteration plans and
    /// hook/reduce tasks are simulation-only shapes.
    pub(super) fn lower(spec: &IterationSpec) -> Result<StepDag, RatelError> {
        let (mut graph, _resources, _flops) = spec.build();
        let tasks: Vec<TaskId> = graph.task_ids().collect();
        let mut actions = Vec::with_capacity(tasks.len());
        let mut bad = Vec::new();
        for &t in &tasks {
            let label = graph.label(t).unwrap_or("");
            match parse_action(label) {
                Some(a) => actions.push(a),
                None => bad.push(format!(
                    "plan task {} is not executable: label {label:?} has no engine action \
                     (multi-GPU, multi-iteration, and hook tasks are simulation-only)",
                    t.0
                )),
            }
        }
        if !bad.is_empty() {
            return Err(RatelError::InvalidConfig(bad));
        }

        // GPU compute order: fwd L0..L{n-1} then bwd L{n-1}..L0. A
        // staging read for the kernel at position `p` may not start
        // before the kernel at `p - PACE_WINDOW` finished.
        let n = spec.layers.len();
        let mut gpu_seq: Vec<Option<TaskId>> = vec![None; 2 * n];
        for (&t, a) in tasks.iter().zip(&actions) {
            match *a {
                EngineAction::Fwd(li) => gpu_seq[li] = Some(t),
                EngineAction::Bwd(li) => gpu_seq[n + (n - 1 - li)] = Some(t),
                _ => {}
            }
        }
        for (&t, a) in tasks.iter().zip(&actions) {
            let gate = match *a {
                EngineAction::FwdRead(li) => li.checked_sub(PACE_WINDOW),
                EngineAction::BwdRead(li) | EngineAction::ActLoad(li) | EngineAction::ActUp(li) => {
                    Some(n + (n - 1 - li) - PACE_WINDOW)
                }
                _ => None,
            };
            if let Some(pos) = gate {
                let dep = gpu_seq[pos].ok_or_else(|| {
                    RatelError::InvalidConfig(vec![format!(
                        "pacing edge for task {} gates on sequence slot {pos}, which has no \
                         compute task — every layer must have fwd and bwd compute tasks",
                        t.0
                    )])
                })?;
                graph.add_dep(t, dep);
            }
        }
        // Optimizer handlers in gradient-arrival order: handler h's
        // state read waits for handler h-2's CPU compute, bounding the
        // staged-state window exactly like the legacy prefetcher's
        // bounded channel.
        let mut opt_reads = Vec::new();
        let mut opt_cpus = Vec::new();
        for (&t, a) in tasks.iter().zip(&actions) {
            match a {
                EngineAction::OptRead(_) => opt_reads.push(t),
                EngineAction::OptCpu(_) => opt_cpus.push(t),
                _ => {}
            }
        }
        for h in PACE_WINDOW..opt_reads.len() {
            graph.add_dep(opt_reads[h], opt_cpus[h - PACE_WINDOW]);
        }

        // The builder self-verified the plan; re-verify after pacing so
        // no added edge can smuggle in a defect.
        #[cfg(debug_assertions)]
        {
            let report = ratel_verify::verify(&graph, &ratel_verify::Limits::none());
            assert!(
                report.is_clean(),
                "paced step DAG fails static verification:\n{}",
                report.render()
            );
        }

        Ok(StepDag { graph, actions })
    }
}

/// Stores an f16 blob in the GPU tier and swaps it to `target`: the
/// offload leg of checkpoints, activations and gradients.
pub(super) fn offload_f16(
    store: &TieredStore,
    key: &str,
    bytes: Vec<u8>,
    target: Tier,
) -> Result<(), StorageError> {
    store.put(key, Tier::Gpu, bytes)?;
    store.move_to(key, target)?;
    Ok(())
}

/// Fetches an f16 blob back to the GPU tier and takes it out of the
/// store, returning its bytes.
pub(super) fn fetch_f16(store: &TieredStore, key: &str) -> Result<Vec<u8>, StorageError> {
    store.move_to(key, Tier::Gpu)?;
    store.take(key)
}

/// Takes a staged P16 blob out of the store and decodes it into the
/// layer skeleton (0 = embedding, 1..=L = blocks, L+1 = head).
pub(super) fn load_staged(
    store: &TieredStore,
    model: &mut GptModel,
    layer: usize,
    staged: &str,
) -> Result<(), StorageError> {
    let flat = decode_f16(&store.take(staged)?);
    let blocks = model.blocks.len();
    if layer == 0 {
        model.embedding.set_params_flat(&flat);
    } else if layer <= blocks {
        model.blocks[layer - 1].set_params_flat(&flat);
    } else {
        model.head.set_params_flat(&flat);
    }
    Ok(())
}

/// A step-DAG slot protocol violation: a task ran before the dependency
/// that fills the slot it consumes. The verifier proves the plan's edges
/// make this unreachable, so hitting it means executor or lowering bug —
/// surfaced as a typed error so the step fails cleanly instead of
/// panicking a worker.
fn slot_violation(what: &str) -> StorageError {
    StorageError::Io(std::io::Error::other(format!(
        "step-DAG slot protocol violated: expected {what}"
    )))
}

/// The staged-copy key a layer's P16 uses for one pass. Forward and
/// backward stage separately (the head is staged once, in forward).
fn staged_key(layer: usize, pass: char) -> String {
    format!("{}#stage-{pass}", p16_key(layer))
}

/// Shared state of one executing step: the [`TaskAction`] behind
/// [`super::RatelEngine::train_step`] in executor mode.
///
/// Worker threads of different pools run disjoint actions concurrently;
/// every hand-off slot (activation bytes, gradients, Adam updates) is a
/// mutex around an `Option`, filled by the producing task and taken by
/// the consuming one. GPU tasks additionally serialize on the model
/// skeleton's lock — the graph already orders them into a chain, so the
/// lock is never contended, it just satisfies the borrow checker.
pub(super) struct StepCtx<'a> {
    store: &'a Arc<TieredStore>,
    config: &'a EngineConfig,
    actions: &'a [EngineAction],
    model: Mutex<&'a mut GptModel>,
    tokens: &'a [usize],
    targets: &'a [usize],
    scale: f32,
    step_seed: u64,
    adam: AdamParams,
    layer_steps: &'a [u64],
    /// The activation flowing forward between layers.
    flow: Mutex<Option<Tensor>>,
    /// The gradient flowing backward between layers.
    dflow: Mutex<Option<Tensor>>,
    /// The head's forward input and saved state, parked between the
    /// adjacent head forward and backward (the head stages once).
    head: Mutex<Option<(Tensor, HeadSaved)>>,
    /// Per block: checkpoint bytes between forward and act-off.
    pending_ckpt: Vec<Mutex<Option<Vec<u8>>>>,
    /// Per block: saved-activation bytes between forward and act-off.
    pending_act: Vec<Mutex<Option<Vec<u8>>>>,
    /// Per block: checkpoint bytes between act-up and backward.
    fetched_ckpt: Vec<Mutex<Option<Vec<u8>>>>,
    /// Per block: saved-activation bytes between act-up and backward.
    fetched_act: Vec<Mutex<Option<Vec<u8>>>>,
    /// Per layer: raw (scaled) f32 gradient between backward and
    /// grad-off.
    grads: Vec<Mutex<Option<Vec<f32>>>>,
    /// Per layer: whether opt-cpu applied the Adam update in place
    /// (false when the unscaled gradient overflowed and it was skipped),
    /// read by opt-write.
    updates: Vec<Mutex<Option<bool>>>,
    /// Layers whose update was skipped on gradient overflow.
    skipped: Mutex<Vec<usize>>,
    loss: Mutex<f32>,
}

impl<'a> StepCtx<'a> {
    /// Builds the shared context of one step.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn new(
        store: &'a Arc<TieredStore>,
        config: &'a EngineConfig,
        actions: &'a [EngineAction],
        model: &'a mut GptModel,
        tokens: &'a [usize],
        targets: &'a [usize],
        scale: f32,
        step_seed: u64,
        adam: AdamParams,
        layer_steps: &'a [u64],
    ) -> Self {
        let blocks = config.model.layers;
        let layers = blocks + 2;
        fn slots<T>(n: usize) -> Vec<Mutex<Option<T>>> {
            (0..n).map(|_| Mutex::new(None)).collect()
        }
        StepCtx {
            store,
            config,
            actions,
            model: Mutex::new(model),
            tokens,
            targets,
            scale,
            step_seed,
            adam,
            layer_steps,
            flow: Mutex::new(None),
            dflow: Mutex::new(None),
            head: Mutex::new(None),
            pending_ckpt: slots(blocks),
            pending_act: slots(blocks),
            fetched_ckpt: slots(blocks),
            fetched_act: slots(blocks),
            grads: slots(layers),
            updates: slots(layers),
            skipped: Mutex::new(Vec::new()),
            loss: Mutex::new(0.0),
        }
    }

    /// Consumes the context after a successful run, returning the loss
    /// and the overflow-skipped layers (sorted).
    pub(super) fn into_outcome(self) -> (f32, Vec<usize>) {
        debug_assert!(self.flow.lock().is_none(), "forward flow drained");
        debug_assert!(self.dflow.lock().is_none(), "backward flow drained");
        let loss = *self.loss.lock();
        let mut skipped = self.skipped.lock().clone();
        skipped.sort_unstable();
        (loss, skipped)
    }

    fn dropout_spec(&self, block: usize) -> Option<ratel_tensor::DropoutSpec> {
        self.config
            .dropout
            .map(|p| block_dropout_spec(p, self.step_seed, block))
    }

    /// Stage a layer's P16 from SSD into host memory (`pass` selects the
    /// forward or backward staged copy).
    fn param_read(&self, layer: usize, pass: char) -> Result<(), StorageError> {
        self.store
            .copy_to(&p16_key(layer), &staged_key(layer, pass), Tier::Host)
    }

    /// Move a staged P16 into the GPU arena, spanning the prefetch track
    /// like the legacy prefetcher thread did.
    fn param_fetch(&self, layer: usize, pass: char) -> Result<(), StorageError> {
        let rec = self.store.telemetry();
        let t = rec.enabled().then(|| rec.now());
        self.store.move_to(&staged_key(layer, pass), Tier::Gpu)?;
        if let Some(t) = t {
            rec.record_span(
                "param-prefetch",
                SpanCategory::Prefetch,
                format!("pf L{layer}"),
                t,
                rec.now(),
            );
        }
        Ok(())
    }

    /// Decode a staged P16 into the layer skeleton and free the copy.
    /// Caller holds the model lock.
    fn load_params(
        &self,
        model: &mut GptModel,
        layer: usize,
        pass: char,
    ) -> Result<(), StorageError> {
        load_staged(self.store, model, layer, &staged_key(layer, pass))
    }

    /// The layer's forward kernels. The span starts after the staged
    /// P16 decode so GPU spans stay compute-only, exactly like the
    /// legacy stage loop's.
    fn forward(&self, layer: usize) -> Result<(), StorageError> {
        let c = self.config.model;
        let l = c.layers;
        let mut model = self.model.lock();
        self.load_params(&mut model, layer, 'f')?;
        let rec = self.store.telemetry();
        if layer == 0 {
            let t = rec.enabled().then(|| rec.now());
            let x = model
                .embedding
                .forward(self.tokens, c.batch, c.seq)
                .quantize_f16();
            if let Some(t) = t {
                rec.record_span("gpu", SpanCategory::Forward, "fwd L0", t, rec.now());
            }
            *self.flow.lock() = Some(x);
        } else if layer <= l {
            let b = layer - 1;
            let x = self
                .flow
                .lock()
                .take()
                .ok_or_else(|| slot_violation("forward flow produced by the previous layer"))?;
            // The block's input is its checkpoint (the inter-block A16);
            // the act-off task offloads these bytes after this kernel.
            *self.pending_ckpt[b].lock() = Some(x.to_f16_bytes());
            let spec = self.dropout_spec(b);
            let t = rec.enabled().then(|| rec.now());
            let (y, mut saved) = model.blocks[b].forward_with(&x, spec);
            if let Some(t) = t {
                rec.record_span(
                    "gpu",
                    SpanCategory::Forward,
                    format!("fwd L{layer}"),
                    t,
                    rec.now(),
                );
            }
            saved.quantize_f16();
            if self.config.act_decisions[b] != ActDecision::Recompute {
                *self.pending_act[b].lock() = Some(saved.to_f16_bytes());
            }
            *self.flow.lock() = Some(y.quantize_f16());
        } else {
            let x = self
                .flow
                .lock()
                .take()
                .ok_or_else(|| slot_violation("forward flow reaches the head"))?;
            let t = rec.enabled().then(|| rec.now());
            let (loss, head_saved) = model.head.forward(&x, self.targets);
            if let Some(t) = t {
                rec.record_span(
                    "gpu",
                    SpanCategory::Forward,
                    format!("fwd L{layer}"),
                    t,
                    rec.now(),
                );
            }
            *self.loss.lock() = loss;
            *self.head.lock() = Some((x, head_saved));
        }
        Ok(())
    }

    /// Offload the block's checkpoint (and saved activations) to host
    /// memory. Both swap decisions stop at host here; the spill task
    /// carries SSD-bound activations onward.
    fn act_off(&self, layer: usize) -> Result<(), StorageError> {
        let b = layer - 1;
        let ckpt = self.pending_ckpt[b]
            .lock()
            .take()
            .ok_or_else(|| slot_violation("checkpoint pending after block forward"))?;
        offload_f16(self.store, &ckpt_key(layer), ckpt, Tier::Host)?;
        if let Some(act) = self.pending_act[b].lock().take() {
            offload_f16(self.store, &act_key(b), act, Tier::Host)?;
        }
        Ok(())
    }

    /// Fetch the block's checkpoint (and activations) back into the GPU
    /// arena for backward.
    fn act_up(&self, layer: usize) -> Result<(), StorageError> {
        let b = layer - 1;
        *self.fetched_ckpt[b].lock() = Some(fetch_f16(self.store, &ckpt_key(layer))?);
        if self.config.act_decisions[b] != ActDecision::Recompute {
            *self.fetched_act[b].lock() = Some(fetch_f16(self.store, &act_key(b))?);
        }
        Ok(())
    }

    /// The layer's backward kernels. Recompute decisions rerun the
    /// block's forward inside this task (same step-seeded dropout
    /// masks), exactly like the legacy loop.
    fn backward(&self, layer: usize) -> Result<(), StorageError> {
        let c = self.config.model;
        let l = c.layers;
        let frozen = self.config.frozen_layers.contains(&layer);
        let mut model = self.model.lock();
        let rec = self.store.telemetry();
        if layer == l + 1 {
            // Head: parameters are still resident from forward (the plan
            // stages the head once), its input was parked at the loss.
            let (x, head_saved) = self
                .head
                .lock()
                .take()
                .ok_or_else(|| slot_violation("head forward parked its input"))?;
            let t = rec.enabled().then(|| rec.now());
            let (dx, head_grads) =
                model
                    .head
                    .backward_scaled(&x, &head_saved, self.targets, self.scale);
            if let Some(t) = t {
                rec.record_span(
                    "gpu",
                    SpanCategory::Backward,
                    format!("bwd L{layer}"),
                    t,
                    rec.now(),
                );
            }
            *self.dflow.lock() = Some(dx);
            if !frozen {
                *self.grads[layer].lock() = Some(head_grads);
            }
        } else if layer >= 1 {
            let b = layer - 1;
            self.load_params(&mut model, layer, 'b')?;
            let rows = c.batch * c.seq;
            let ckpt = self.fetched_ckpt[b]
                .lock()
                .take()
                .ok_or_else(|| slot_violation("checkpoint fetched before block backward"))?;
            let input = Tensor::from_f16_bytes(&[rows, c.hidden], &ckpt);
            let spec = self.dropout_spec(b);
            let fetched = self.fetched_act[b].lock().take();
            let dx = self
                .dflow
                .lock()
                .take()
                .ok_or_else(|| slot_violation("backward flow from the layer above"))?;
            let t = rec.enabled().then(|| rec.now());
            let saved = match fetched {
                Some(bytes) => {
                    BlockSaved::from_f16_bytes(&bytes, c.batch, c.seq, c.hidden, c.heads)
                }
                None => {
                    // Rematerialization regenerates the same dropout
                    // masks from the step/layer-derived seed.
                    let (_, mut s) = model.blocks[b].forward_with(&input, spec);
                    s.quantize_f16();
                    s
                }
            };
            let (dprev, grads) = model.blocks[b].backward_with(&input, &saved, &dx, spec);
            if let Some(t) = t {
                rec.record_span(
                    "gpu",
                    SpanCategory::Backward,
                    format!("bwd L{layer}"),
                    t,
                    rec.now(),
                );
            }
            *self.dflow.lock() = Some(dprev);
            if !frozen {
                *self.grads[layer].lock() = Some(grads);
            }
        } else {
            self.load_params(&mut model, 0, 'b')?;
            let dx = self
                .dflow
                .lock()
                .take()
                .ok_or_else(|| slot_violation("backward flow reaches the embedding"))?;
            let t = rec.enabled().then(|| rec.now());
            let emb_grads = model.embedding.backward(self.tokens, c.batch, c.seq, &dx);
            if let Some(t) = t {
                rec.record_span("gpu", SpanCategory::Backward, "bwd L0", t, rec.now());
            }
            if !frozen {
                *self.grads[0].lock() = Some(emb_grads);
            }
        }
        Ok(())
    }

    /// Quantize the layer's gradient to G16 and land it in host memory —
    /// the active offload's GPU->host leg.
    fn grad_off(&self, layer: usize) -> Result<(), StorageError> {
        let grads = self.grads[layer]
            .lock()
            .take()
            .ok_or_else(|| slot_violation("backward produced this layer's gradient"))?;
        let rec = self.store.telemetry();
        let t = rec.enabled().then(|| rec.now());
        offload_f16(self.store, &grad_key(layer), encode_f16(&grads), Tier::Host)?;
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

    /// Stage the layer's master + moments from SSD into host memory —
    /// the optimizer prefetcher's SSD->Main leg.
    fn opt_read(&self, layer: usize) -> Result<(), StorageError> {
        let rec = self.store.telemetry();
        let t = rec.enabled().then(|| rec.now());
        stage_states(self.store, layer)?;
        if let Some(t) = t {
            rec.record_span(
                "opt-prefetch",
                SpanCategory::Prefetch,
                format!("opt-pf L{layer}"),
                t,
                rec.now(),
            );
        }
        Ok(())
    }

    /// Decode the G16 gradient and run the f32 Adam step in place on
    /// the staged states — span-for-span the legacy updater's read + cpu
    /// phases.
    fn opt_cpu(&self, layer: usize) -> Result<(), StorageError> {
        let rec = self.store.telemetry();
        let t_read = rec.enabled().then(|| rec.now());
        let mut grads = decode_f16(&self.store.take(&grad_key(layer))?);
        if let Some(t) = t_read {
            rec.record_span(
                "cpu-opt",
                SpanCategory::Optimizer,
                format!("opt-read L{layer}"),
                t,
                rec.now(),
            );
        }
        let t_cpu = rec.enabled().then(|| rec.now());
        let applied = prepare_gradient(&mut grads, self.scale, self.config.grad_clip).is_some();
        if applied {
            adam_update_in_store(
                self.store,
                &master_key(layer),
                &moments_key(layer),
                &grads,
                self.layer_steps[layer] + 1,
                &self.adam,
            )?;
        } else {
            self.skipped.lock().push(layer);
        }
        if let Some(t) = t_cpu {
            let (category, kind) = if applied {
                (SpanCategory::Optimizer, "opt-cpu")
            } else {
                (SpanCategory::Other, "skip")
            };
            rec.record_span(
                "cpu-opt",
                category,
                format!("{kind} L{layer}"),
                t,
                rec.now(),
            );
        }
        *self.updates[layer].lock() = Some(applied);
        Ok(())
    }

    /// Publish the fresh P16 and return P32 + OS32 to the SSD tier — the
    /// legacy updater's Main->SSD leg (or, on a skipped update, just
    /// return the untouched states).
    fn opt_write(&self, layer: usize) -> Result<(), StorageError> {
        let applied = self.updates[layer]
            .lock()
            .take()
            .ok_or_else(|| slot_violation("opt-cpu recorded this layer's update"))?;
        let rec = self.store.telemetry();
        let t = rec.enabled().then(|| rec.now());
        write_back(self.store, layer, applied)?;
        if let (Some(t), true) = (t, applied) {
            rec.record_span(
                "cpu-opt",
                SpanCategory::Optimizer,
                format!("opt-write L{layer}"),
                t,
                rec.now(),
            );
        }
        Ok(())
    }
}

impl TaskAction for StepCtx<'_> {
    fn run(&self, task: TaskId) -> Result<(), RatelError> {
        let result = match self.actions[task.0] {
            EngineAction::FwdRead(li) => self.param_read(li, 'f'),
            EngineAction::FwdFetch(li) => self.param_fetch(li, 'f'),
            EngineAction::Fwd(li) => self.forward(li),
            EngineAction::ActOff(li) => self.act_off(li),
            EngineAction::ActSpill(li) => self.store.move_to(&act_key(li - 1), Tier::Ssd),
            EngineAction::BwdRead(li) => self.param_read(li, 'b'),
            EngineAction::BwdFetch(li) => self.param_fetch(li, 'b'),
            EngineAction::ActLoad(li) => self.store.move_to(&act_key(li - 1), Tier::Host),
            EngineAction::ActUp(li) => self.act_up(li),
            EngineAction::Bwd(li) => self.backward(li),
            EngineAction::GradOff(li) => self.grad_off(li),
            EngineAction::OptRead(li) => self.opt_read(li),
            EngineAction::OptCpu(li) => self.opt_cpu(li),
            EngineAction::OptWrite(li) => self.opt_write(li),
        };
        result.map_err(RatelError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::GradOffloadMode;
    use crate::schedule::{LayerTask, LinkRates, OptimizerKind, ParamSource};

    /// An engine-shaped spec: 1 iteration, 1 GPU, no overhead, CPU
    /// out-of-core optimizer — the shape `movement_spec` emits.
    fn engine_like_spec(blocks: usize, mode: GradOffloadMode) -> IterationSpec {
        let n = blocks + 2;
        let layers = (0..n)
            .map(|id| {
                let is_block = id >= 1 && id <= blocks;
                let is_head = id == n - 1;
                LayerTask {
                    label: format!("layer{id}"),
                    p16_bytes: 64.0,
                    param_source: ParamSource::Ssd,
                    fwd_flops: 0.0,
                    bwd_flops: 0.0,
                    act_to_host_bytes: if is_block { 32.0 } else { 0.0 },
                    act_to_ssd_bytes: if is_block && id == 1 { 16.0 } else { 0.0 },
                    refetch_in_backward: !is_head,
                    grad_bytes: 64.0,
                    grad_spill_to_ssd: false,
                    optimizer: OptimizerKind::CpuOutOfCore {
                        read_bytes: 384.0,
                        write_bytes: 448.0,
                        cpu_params: 32.0,
                    },
                }
            })
            .collect();
        IterationSpec {
            layers,
            mode,
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
            items_per_iteration: 1.0,
            per_layer_overhead_seconds: 0.0,
        }
    }

    #[test]
    fn lower_parses_every_task_and_adds_pacing_edges() {
        for mode in [
            GradOffloadMode::OptimizedActive,
            GradOffloadMode::SeparateStage,
        ] {
            let spec = engine_like_spec(3, mode);
            let dag = StepDag::lower(&spec).unwrap();
            assert_eq!(dag.actions.len(), dag.graph.len());
            // Every layer's compute is present.
            let fwds = dag
                .actions
                .iter()
                .filter(|a| matches!(a, EngineAction::Fwd(_)))
                .count();
            let bwds = dag
                .actions
                .iter()
                .filter(|a| matches!(a, EngineAction::Bwd(_)))
                .count();
            assert_eq!(fwds, 5);
            assert_eq!(bwds, 5);
            // Pacing: fwd-read L2 gained a dep on the fwd L0 kernel.
            let find = |want: EngineAction| {
                dag.graph
                    .task_ids()
                    .find(|t| dag.actions[t.0] == want)
                    .unwrap()
            };
            let read2 = find(EngineAction::FwdRead(2));
            let fwd0 = find(EngineAction::Fwd(0));
            assert!(
                dag.graph.deps(read2).contains(&fwd0),
                "fwd-read L2 is paced behind fwd L0"
            );
            // The spilled block round-trips through act-spill/act-load.
            assert!(dag.actions.contains(&EngineAction::ActSpill(1)));
            assert!(dag.actions.contains(&EngineAction::ActLoad(1)));
        }
    }

    #[test]
    fn optimizer_reads_are_windowed_behind_compute() {
        let spec = engine_like_spec(3, GradOffloadMode::OptimizedActive);
        let dag = StepDag::lower(&spec).unwrap();
        let reads: Vec<TaskId> = dag
            .graph
            .task_ids()
            .filter(|t| matches!(dag.actions[t.0], EngineAction::OptRead(_)))
            .collect();
        let cpus: Vec<TaskId> = dag
            .graph
            .task_ids()
            .filter(|t| matches!(dag.actions[t.0], EngineAction::OptCpu(_)))
            .collect();
        assert_eq!(reads.len(), 5);
        for h in 2..reads.len() {
            assert!(
                dag.graph.deps(reads[h]).contains(&cpus[h - 2]),
                "handler {h}'s state read waits for handler {}'s compute",
                h - 2
            );
        }
    }

    #[test]
    fn simulation_only_shapes_are_rejected() {
        // Multi-GPU plans carry `gN`-suffixed and `reduce` labels that
        // have no engine action.
        let mut spec = engine_like_spec(2, GradOffloadMode::OptimizedActive);
        spec.gpus = 2;
        let err = StepDag::lower(&spec).unwrap_err();
        assert!(matches!(err, RatelError::InvalidConfig(_)), "{err}");

        // Hook tasks (per-layer overhead) are simulation-only too.
        let mut spec = engine_like_spec(2, GradOffloadMode::OptimizedActive);
        spec.per_layer_overhead_seconds = 0.5;
        let err = StepDag::lower(&spec).unwrap_err();
        assert!(matches!(err, RatelError::InvalidConfig(_)), "{err}");
    }
}
