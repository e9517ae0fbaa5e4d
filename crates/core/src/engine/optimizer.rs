//! The active-gradient-offloading CPU optimizer (§IV-C), for real.
//!
//! Two threads implement the optimized handler pipeline of Fig. 3b:
//!
//! * a **prefetcher** walks the known gradient arrival order (backward is
//!   deterministic: head, blocks in reverse, embedding) and stages each
//!   layer's master parameters and Adam moments from the SSD tier into
//!   host memory (`SSD→Main`), at most a small window ahead — so state
//!   reads overlap the updater's CPU compute and write-backs;
//! * an **updater** receives gradient notifications from the training
//!   thread the moment each layer's G16 lands in host memory, performs
//!   the f32 Adam step, and writes the updated P32/OS32 plus the fresh
//!   P16 copy back to the SSD tier (`Main→SSD`).
//!
//! Updates are per-layer independent, so consuming them in arrival order
//! keeps the result bit-identical to a serial optimizer — synchronous
//! semantics with zero staleness, unlike ZeRO-Offload's one-step delayed
//! update.
//!
//! With `active = false` the same updater runs, but only after the
//! training thread has finished backward and closed the channel — the
//! "Ratel+ZeRO" separate-stage ablation.

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use ratel_storage::telemetry::SpanCategory;
use ratel_storage::{StorageError, Tier, TieredStore};

use crate::error::RatelError;
use ratel_tensor::dtype::{decode_f16, encode_f16, with_f32_mut};
use ratel_tensor::{adam_update, AdamParams};

use super::scaler::prepare_gradient;
use super::{master_key, moments_key, p16_key};

/// Notification that a layer's gradient blob is in host memory.
#[derive(Debug, Clone)]
pub struct GradMessage {
    /// Layer id.
    pub layer: usize,
    /// Store key of the G16 blob.
    pub key: String,
}

/// How many layers of master state the prefetcher may stage ahead — the
/// host-side optimizer working window (part of Ratel's main-memory
/// budget, see `RatelMemoryModel::host_bytes_per_param`).
const PREFETCH_WINDOW: usize = 2;

/// Handle to a running per-step optimizer.
///
/// [`ActiveOptimizer::finish`] is the normal teardown; if a step errors
/// mid-iteration and the handle is dropped instead, `Drop` still closes
/// the gradient channel and joins both threads, so no optimizer thread
/// outlives its step.
pub struct ActiveOptimizer {
    grad_tx: Option<Sender<GradMessage>>,
    updater: Option<JoinHandle<Result<Vec<usize>, StorageError>>>,
    prefetcher: Option<JoinHandle<Result<(), StorageError>>>,
}

impl ActiveOptimizer {
    /// Spawns the optimizer threads for one training step.
    ///
    /// `order` is the gradient arrival order (layer ids); `layer_steps`
    /// holds each layer's count of *applied* Adam updates so far (skipped
    /// overflow steps do not advance a layer's bias-correction clock).
    /// Errors with [`RatelError::Runtime`] if a thread cannot be
    /// spawned (any thread spawned before the failure is joined first).
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        store: Arc<TieredStore>,
        order: Vec<usize>,
        adam: AdamParams,
        layer_steps: Vec<u64>,
        active: bool,
        loss_scale: f32,
        grad_clip: Option<f32>,
    ) -> Result<Self, RatelError> {
        let (grad_tx, grad_rx) = unbounded::<GradMessage>();

        let (prefetcher, staged_rx) = if active {
            let (staged_tx, staged_rx) = bounded::<usize>(PREFETCH_WINDOW);
            let store2 = Arc::clone(&store);
            let order2 = order.clone();
            let handle = std::thread::Builder::new()
                .name("ratel-opt-prefetch".into())
                .spawn(move || -> Result<(), StorageError> {
                    for layer in order2 {
                        let rec = store2.telemetry();
                        let t = rec.enabled().then(|| rec.now());
                        stage_states(&store2, layer)?;
                        if let Some(t) = t {
                            let rec = store2.telemetry();
                            rec.record_span(
                                "opt-prefetch",
                                SpanCategory::Prefetch,
                                format!("opt-pf L{layer}"),
                                t,
                                rec.now(),
                            );
                        }
                        if staged_tx.send(layer).is_err() {
                            break; // updater died; its error surfaces on join
                        }
                    }
                    Ok(())
                })
                .map_err(|e| RatelError::Runtime(format!("spawn optimizer prefetcher: {e}")))?;
            (Some(handle), Some(staged_rx))
        } else {
            (None, None)
        };

        let updater = std::thread::Builder::new()
            .name("ratel-opt-update".into())
            .spawn(move || {
                update_loop(
                    store,
                    grad_rx,
                    staged_rx,
                    adam,
                    layer_steps,
                    active,
                    loss_scale,
                    grad_clip,
                )
            });
        let updater = match updater {
            Ok(h) => h,
            Err(e) => {
                // The updater (and its staged_rx) never existed: the
                // prefetcher's bounded send fails once the window fills,
                // so it drains out and can be joined.
                drop(grad_tx);
                if let Some(p) = prefetcher {
                    let _ = p.join();
                }
                return Err(RatelError::Runtime(format!("spawn optimizer updater: {e}")));
            }
        };

        Ok(ActiveOptimizer {
            grad_tx: Some(grad_tx),
            updater: Some(updater),
            prefetcher,
        })
    }

    /// Notifies the optimizer that a gradient blob is ready in host
    /// memory. Never blocks the training thread.
    pub fn submit(&self, msg: GradMessage) {
        // The updater only exits after the channel closes, so a send can
        // only fail if it panicked/errored; that error surfaces in
        // `finish`.
        if let Some(tx) = &self.grad_tx {
            let _ = tx.send(msg);
        }
    }

    /// Closes the gradient stream and waits for every update to be
    /// written back — the synchronization point that keeps training
    /// synchronous. Returns the layers whose update was skipped due to
    /// gradient overflow.
    pub fn finish(mut self) -> Result<Vec<usize>, RatelError> {
        drop(self.grad_tx.take());
        // `finish` consumes self, so the handle is present unless Drop
        // already ran — which cannot happen — but degrade to a typed
        // error rather than panicking on an impossible state.
        let Some(updater) = self.updater.take() else {
            return Err(RatelError::Runtime(
                "optimizer updater handle already taken".into(),
            ));
        };
        let updater_result = updater
            .join()
            .map_err(|_| RatelError::Runtime("optimizer updater thread panicked".into()))?;
        if let Some(p) = self.prefetcher.take() {
            p.join().map_err(|_| {
                RatelError::Runtime("optimizer prefetcher thread panicked".into())
            })??;
        }
        Ok(updater_result?)
    }
}

impl Drop for ActiveOptimizer {
    fn drop(&mut self) {
        // `finish` takes the handles, so this only does work when a step
        // errored mid-iteration and the optimizer is being torn down
        // without its synchronization point. Closing the channel makes
        // both threads exit; their results (likely the same storage
        // error the step already surfaced) are discarded.
        drop(self.grad_tx.take());
        if let Some(u) = self.updater.take() {
            let _ = u.join();
        }
        if let Some(p) = self.prefetcher.take() {
            let _ = p.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn update_loop(
    store: Arc<TieredStore>,
    grad_rx: Receiver<GradMessage>,
    staged_rx: Option<Receiver<usize>>,
    adam: AdamParams,
    layer_steps: Vec<u64>,
    active: bool,
    loss_scale: f32,
    grad_clip: Option<f32>,
) -> Result<Vec<usize>, StorageError> {
    // Spans land on one updater track: per layer a read (state
    // availability + gradient decode), a cpu (Adam math), and a write
    // (state write-back) span — or a `skip` span on overflow.
    let rec = std::sync::Arc::clone(store.telemetry());
    // Returns true if the layer's update was applied, false if skipped.
    let process = |msg: &GradMessage| -> Result<bool, StorageError> {
        let t_read = rec.enabled().then(|| rec.now());
        // Wait for the prefetcher to stage this layer's states. Arrival
        // order matches `order`, so this is the same layer. A `None`
        // means the prefetcher died early (its error surfaces on join);
        // without a prefetcher (separate stage) there is nothing to wait
        // for. Either way the updater stages the states itself.
        let staged = staged_rx.as_ref().and_then(|rx| rx.recv().ok());
        if staged != Some(msg.layer) {
            stage_states(&store, msg.layer)?;
        }

        // CPU compute: f32 Adam over the staged states, consuming the G16
        // gradient that backward just offloaded (unscale, overflow check,
        // optional per-layer clip first — see `scaler`).
        let mut grads = decode_f16(&store.take(&msg.key)?);
        if let Some(t) = t_read {
            rec.record_span(
                "cpu-opt",
                SpanCategory::Optimizer,
                format!("opt-read L{}", msg.layer),
                t,
                rec.now(),
            );
        }
        let t_cpu = rec.enabled().then(|| rec.now());
        let applied = prepare_gradient(&mut grads, loss_scale, grad_clip).is_some();
        if applied {
            adam_update_in_store(
                &store,
                &master_key(msg.layer),
                &moments_key(msg.layer),
                &grads,
                layer_steps[msg.layer] + 1,
                &adam,
            )?;
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
                format!("{kind} L{}", msg.layer),
                t,
                rec.now(),
            );
        }
        // Main→SSD: publish the fresh P16 and return the states (an
        // overflow skip returns them untouched).
        let t_write = rec.enabled().then(|| rec.now());
        write_back(&store, msg.layer, applied)?;
        if let (Some(t), true) = (t_write, applied) {
            rec.record_span(
                "cpu-opt",
                SpanCategory::Optimizer,
                format!("opt-write L{}", msg.layer),
                t,
                rec.now(),
            );
        }
        Ok(applied)
    };

    let mut skipped = Vec::new();
    if active {
        // Consume gradients as they arrive, overlapping GPU backward.
        for msg in grad_rx.iter() {
            if !process(&msg)? {
                skipped.push(msg.layer);
            }
        }
    } else {
        // Separate stage: buffer everything until backward finishes (the
        // channel closes), then run the whole optimizer.
        let all: Vec<GradMessage> = grad_rx.iter().collect();
        for msg in &all {
            if !process(msg)? {
                skipped.push(msg.layer);
            }
        }
    }
    Ok(skipped)
}

/// Stages a layer's master (P32) and moments (OS32) from the SSD tier
/// into host memory — the optimizer handler's SSD→Main leg.
pub(super) fn stage_states(store: &TieredStore, layer: usize) -> Result<(), StorageError> {
    store.move_to(&master_key(layer), Tier::Host)?;
    store.move_to(&moments_key(layer), Tier::Host)
}

/// Runs `f` over the bytes of the blobs `keys` in place
/// ([`TieredStore::with_blobs_mut`]). Blobs that host-pressure spilling
/// left on the SSD tier are read, updated and overwritten there instead,
/// which gives the same bytes and meters the same (no) traffic.
pub(super) fn update_blobs<const N: usize, R>(
    store: &TieredStore,
    keys: [&str; N],
    mut f: impl FnMut([&mut [u8]; N]) -> R,
) -> Result<R, StorageError> {
    match store.with_blobs_mut(keys, &mut f) {
        Err(StorageError::NotInMemory(_)) => {
            let mut blobs: [Vec<u8>; N] = std::array::from_fn(|_| Vec::new());
            for (blob, key) in blobs.iter_mut().zip(keys) {
                *blob = store.read(key)?;
            }
            let result = f(blobs.each_mut().map(|b| b.as_mut_slice()));
            for (blob, key) in blobs.into_iter().zip(keys) {
                store.overwrite(key, blob)?;
            }
            Ok(result)
        }
        other => other,
    }
}

/// Runs one Adam step in place on a layer's staged master (P32) and
/// `[m..., v...]` moments (OS32) blobs: the bytes are borrowed from the
/// store and viewed as `f32`, so the update copies and allocates
/// nothing. `t` is the layer's 1-based update number. Bitwise the same
/// as decoding both blobs, running [`ratel_tensor::Adam::step`] and
/// encoding them back.
///
/// # Errors
/// Storage errors from the borrow, or a typed error if the blob sizes do
/// not match `grads`.
pub fn adam_update_in_store(
    store: &TieredStore,
    master_key: &str,
    moments_key: &str,
    grads: &[f32],
    t: u64,
    hp: &AdamParams,
) -> Result<(), StorageError> {
    update_blobs(store, [master_key, moments_key], |[master, moments]| {
        if master.len() != 4 * grads.len() || moments.len() != 2 * master.len() {
            return Err(StorageError::Io(std::io::Error::other(format!(
                "optimizer state of {master_key:?} does not fit {} gradients: \
                 {} master bytes, {} moment bytes",
                grads.len(),
                master.len(),
                moments.len()
            ))));
        }
        with_f32_mut(master, |params| {
            with_f32_mut(moments, |mv| {
                let (m, v) = mv.split_at_mut(params.len());
                adam_update(params, grads, m, v, t, hp);
            })
        });
        Ok(())
    })?
}

/// Main→SSD leg of the optimizer handler: after an applied update,
/// publishes the fresh P16 (the f16 rounding of the updated master);
/// then returns master and moments to the SSD tier. A skipped update
/// only returns the untouched states.
pub(super) fn write_back(
    store: &TieredStore,
    layer: usize,
    applied: bool,
) -> Result<(), StorageError> {
    let master = master_key(layer);
    if applied {
        let fresh = update_blobs(store, [master.as_str()], |[m]| {
            with_f32_mut(m, |p| encode_f16(p))
        })?;
        let p16 = p16_key(layer);
        store.remove(&p16)?;
        store.put(&p16, Tier::Host, fresh)?;
        store.move_to(&p16, Tier::Ssd)?;
    }
    store.move_to(&master, Tier::Ssd)?;
    store.move_to(&moments_key(layer), Tier::Ssd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratel_storage::TierConfig;
    use ratel_tensor::dtype::{decode_f32, encode_f32};
    use ratel_tensor::Adam;

    fn store_with_layer0() -> Arc<TieredStore> {
        let store = Arc::new(TieredStore::new(TierConfig::unbounded_temp()).unwrap());
        store
            .put(&master_key(0), Tier::Ssd, encode_f32(&[1.0, 2.0]))
            .unwrap();
        store
            .put(&moments_key(0), Tier::Ssd, encode_f32(&[0.0; 4]))
            .unwrap();
        store
            .put(&p16_key(0), Tier::Ssd, encode_f16(&[1.0, 2.0]))
            .unwrap();
        store
    }

    #[test]
    fn drop_without_finish_joins_both_threads() {
        // A step that errors mid-iteration drops the handle instead of
        // calling finish(); both threads must still be joined (the test
        // would hang or leak otherwise).
        let store = store_with_layer0();
        let opt = ActiveOptimizer::start(
            Arc::clone(&store),
            vec![0],
            AdamParams::default(),
            vec![0],
            true,
            1.0,
            None,
        )
        .unwrap();
        drop(opt);
        // Threads are gone; the states are wherever the prefetcher left
        // them but still consistent and movable.
        store.move_to(&master_key(0), Tier::Ssd).unwrap();
        store.move_to(&moments_key(0), Tier::Ssd).unwrap();
    }

    #[test]
    fn dead_prefetcher_falls_back_to_self_staging() {
        // Order lists a layer with no states: the prefetcher errors out
        // immediately and closes its channel. The updater must stage
        // layer 0's states itself and still apply the update; the
        // prefetcher's error then surfaces from finish().
        let store = store_with_layer0();
        let opt = ActiveOptimizer::start(
            Arc::clone(&store),
            vec![99, 0],
            AdamParams::default(),
            vec![0],
            true,
            1.0,
            None,
        )
        .unwrap();
        store
            .put("layer0/grad", Tier::Host, encode_f16(&[0.5, -0.5]))
            .unwrap();
        opt.submit(GradMessage {
            layer: 0,
            key: "layer0/grad".into(),
        });
        let err = opt.finish().unwrap_err();
        assert!(matches!(err, RatelError::Storage(_)), "{err}");
        // The update itself landed despite the dead prefetcher.
        let master = decode_f32(&store.read(&master_key(0)).unwrap());
        assert_ne!(master, vec![1.0, 2.0], "update must have applied");
    }

    #[test]
    fn in_store_update_matches_adam_step_in_memory_and_spilled() {
        let n = 37;
        let master: Vec<f32> = (0..n).map(|i| i as f32 * 0.01 - 0.2).collect();
        let grads: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        let hp = AdamParams::default();
        let mut want_p = master.clone();
        let mut want = Adam::new(n);
        want.step(&mut want_p, &grads, &hp);
        want.step(&mut want_p, &grads, &hp);

        for tier in [Tier::Host, Tier::Ssd] {
            let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
            store.put("m", tier, encode_f32(&master)).unwrap();
            store.put("v", tier, vec![0u8; 8 * n]).unwrap();
            for t in 1..=2 {
                adam_update_in_store(&store, "m", "v", &grads, t, &hp).unwrap();
            }
            assert_eq!(store.tier_of("m").unwrap(), tier);
            assert_eq!(store.read("m").unwrap(), encode_f32(&want_p), "{tier:?}");
            assert_eq!(store.read("v").unwrap(), encode_f32(&want.to_flat()));
            assert_eq!(store.traffic().total(), 0);
        }
        let store = TieredStore::new(TierConfig::unbounded_temp()).unwrap();
        store.put("m", Tier::Host, encode_f32(&master)).unwrap();
        store.put("v", Tier::Host, vec![0u8; 4 * n]).unwrap();
        assert!(adam_update_in_store(&store, "m", "v", &grads, 1, &hp).is_err());
        assert_eq!(store.read("m").unwrap(), encode_f32(&master), "untouched");
    }
}
