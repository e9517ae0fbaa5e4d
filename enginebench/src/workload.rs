//! The benchmark's workloads and their seeded inputs.
//!
//! Each workload pins everything that decides which code path a step
//! takes: the model shape, every block's activation decision, and host
//! and GPU capacities below the state a step keeps (so a change that
//! quietly keeps state in host memory fails instead of speeding up).
//! Token ids come from the benchmark's own generator, never from
//! `ratel::engine::data`, so the program only ever sees the inputs.

use ratel::engine::ActDecision;
use ratel::Ratel;
use ratel_tensor::GptConfig;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

const MIB: u64 = 1 << 20;

/// One fine-tuning workload: a closed loop with one client, issuing the
/// next step only after the previous one returned.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Model shape.
    pub model: GptConfig,
    /// The activation decision pinned for every block.
    pub decision: ActDecision,
    /// Host-pool cap in bytes.
    pub host_capacity: u64,
    /// GPU-arena cap in bytes.
    pub gpu_capacity: u64,
    /// Micro-batches per step: 1 runs `RatelTrainer::step`, more runs
    /// `RatelTrainer::step_accumulated`.
    pub micro_batches: usize,
}

const fn gpt(
    vocab: usize,
    seq: usize,
    hidden: usize,
    heads: usize,
    layers: usize,
    batch: usize,
) -> GptConfig {
    GptConfig {
        vocab,
        seq,
        hidden,
        heads,
        layers,
        batch,
    }
}

/// Every workload, in the order `BENCHMARK.json` lists them. Why each
/// exists is in this directory's README.
pub const WORKLOADS: [Workload; 4] = [
    // Compute-bound: the GPU-compute pool is busy for most of the step.
    Workload {
        name: "dense-gemm",
        model: gpt(512, 128, 384, 6, 4, 4),
        decision: ActDecision::SwapToHost,
        host_capacity: 64 * MIB,
        gpu_capacity: 32 * MIB,
        micro_batches: 1,
    },
    // State-I/O and optimizer-bound: 33.6 M params, 16 tokens per step.
    // At a 160 MiB host cap step 0 can fail for lack of host memory.
    Workload {
        name: "short-seq-state-io",
        model: gpt(8192, 16, 512, 8, 8, 1),
        decision: ActDecision::Recompute,
        host_capacity: 256 * MIB,
        gpu_capacity: 40 * MIB,
        micro_batches: 1,
    },
    // Attention-bound, activations through the SSD route. An 8 MiB GPU
    // or 7 MiB host cap can fail a step, depending on timing.
    Workload {
        name: "long-seq-ssd-acts",
        model: gpt(256, 1024, 128, 4, 4, 1),
        decision: ActDecision::SwapToSsd,
        host_capacity: 11 * MIB,
        gpu_capacity: 11 * MIB,
        micro_batches: 1,
    },
    // The host gradient-accumulation path. Its f32 accumulators (4 bytes
    // per parameter) live in the host tier on top of the optimizer's
    // working set; step 0 fails at 192 MiB.
    Workload {
        name: "grad-accum",
        model: gpt(4096, 32, 512, 8, 4, 1),
        decision: ActDecision::Recompute,
        host_capacity: 240 * MIB,
        gpu_capacity: 40 * MIB,
        micro_batches: 4,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One micro-batch: `batch * seq` token ids and as many targets.
pub type MicroBatch = (Vec<usize>, Vec<usize>);

impl Workload {
    /// The pinned decisions, one per block.
    pub fn decisions(&self) -> Vec<ActDecision> {
        vec![self.decision; self.model.layers]
    }

    /// The trainer builder for this workload. The model is initialised
    /// from the run's seed; executor and kernel thread counts stay at the
    /// program's defaults.
    pub fn builder(&self, seed: u64) -> Ratel {
        self.unpinned_builder(seed)
            .activation_decisions(self.decisions())
    }

    /// The same builder without pinned decisions, so `plan()` runs the
    /// profiling stage and Algorithm 1.
    pub fn unpinned_builder(&self, seed: u64) -> Ratel {
        Ratel::init(self.model)
            .seed(seed)
            .host_capacity(self.host_capacity)
            .gpu_capacity(self.gpu_capacity)
    }

    /// Tokens one step trains on.
    pub fn tokens_per_step(&self) -> usize {
        self.model.batch * self.model.seq * self.micro_batches
    }

    /// The first `micro` micro-batches of step `step` (0-based) under
    /// `seed`; the same seed and step always give the same ids.
    pub fn step_inputs(&self, seed: u64, step: usize, micro: usize) -> Vec<MicroBatch> {
        let n = self.model.batch * self.model.seq;
        (0..micro)
            .map(|micro| {
                let mut rng = SplitMix64::new(
                    seed ^ (step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (micro as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
                );
                let vocab = self.model.vocab as u64;
                let tokens = (0..n).map(|_| (rng.next() % vocab) as usize).collect();
                let targets = (0..n).map(|_| (rng.next() % vocab) as usize).collect();
                (tokens, targets)
            })
            .collect()
    }

    /// Forward FLOPs of one micro-batch, counting GEMMs and dense
    /// attention (`QK^T` and `PV` over the full `s x s` square); the
    /// embedding gather and elementwise ops are left out.
    fn forward_flops(&self) -> f64 {
        let m = self.model;
        let rows = (m.batch * m.seq) as f64;
        let h = m.hidden as f64;
        let block = 24.0 * rows * h * h + 4.0 * (m.batch * m.seq * m.seq) as f64 * h;
        let head = 2.0 * rows * h * m.vocab as f64;
        m.layers as f64 * block + head
    }

    /// Model FLOPs of one step of `micro` micro-batches: forward plus a
    /// backward of twice its cost, per micro-batch. Recomputed forwards
    /// are not counted.
    pub fn model_flops_per_step(&self, micro: usize) -> f64 {
        3.0 * self.forward_flops() * micro as f64
    }
}

/// A small, fast, well-mixed generator (Steele et al., SplitMix64).
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        for w in WORKLOADS {
            let m = w.micro_batches;
            let a = w.step_inputs(7, 3, m);
            assert_eq!(a, w.step_inputs(7, 3, m), "{}", w.name);
            assert_ne!(a, w.step_inputs(8, 3, m), "{}", w.name);
            assert_ne!(a, w.step_inputs(7, 4, m), "{}", w.name);
            assert_eq!(a.len(), m);
            assert_eq!(w.step_inputs(7, 3, 1)[..], a[..1], "{}", w.name);
            for (t, y) in &a {
                assert_eq!(t.len(), w.model.batch * w.model.seq);
                assert!(t.iter().chain(y).all(|&id| id < w.model.vocab));
            }
        }
    }

    #[test]
    fn capacities_sit_below_the_state_a_step_keeps() {
        for w in WORKLOADS {
            // Master f32 plus two f32 Adam moments per parameter, and the
            // f32 gradient accumulator when the step accumulates.
            let per_param = if w.micro_batches > 1 { 16 } else { 12 };
            let state = per_param * w.model.total_params() as u64;
            assert!(w.host_capacity < state, "{}", w.name);
            assert!(w.gpu_capacity < state, "{}", w.name);
        }
    }
}
