//! Public calls into single layers, timed from outside at a workload's
//! own shapes: `ratel-tensor` kernels, `ratel-storage` transfers, the
//! executor's dispatch cost, and the planner.

use std::hint::black_box;
use std::time::Instant;

use ratel::engine::executor::Executor;
use ratel::engine::ExecutorOptions;
use ratel::RatelError;
use ratel_sim::TaskId;
use ratel_storage::{Tier, TierConfig, TieredStore};
use ratel_tensor::dtype::{decode_f16, decode_f32, encode_f16, encode_f32};
use ratel_tensor::ops::matmul;
use ratel_tensor::{Adam, AdamParams, MultiHeadAttention, Tensor, TransformerBlock};

use crate::stats::median;
use crate::trace::SpanLog;
use crate::workload::Workload;

/// Time each microbenchmark keeps calling for, at least [`MIN_CALLS`]
/// times; the median call is reported.
const BUDGET_S: f64 = 0.25;
const MIN_CALLS: usize = 3;
const MAX_CALLS: usize = 1000;

/// Metric name and value pairs.
pub type Metrics = Vec<(String, f64)>;

/// Median seconds of one `call`, each preceded by an untimed `prepare`
/// that hands the call its input. Every timed call is a span.
fn time_calls<S, R>(
    log: &mut SpanLog,
    label: &str,
    mut prepare: impl FnMut() -> Result<S, String>,
    mut call: impl FnMut(S) -> Result<R, String>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_CALLS
        || (times.len() < MAX_CALLS && start.elapsed().as_secs_f64() < BUDGET_S)
    {
        let input = prepare()?;
        let t0 = log.now();
        let out = call(black_box(input))?;
        let t1 = log.now();
        black_box(out);
        log.record("microbench", label, t0, t1, None);
        times.push(t1 - t0);
    }
    Ok(median(&times).expect("at least MIN_CALLS samples"))
}

fn ready() -> Result<(), String> {
    Ok(())
}

/// `TransformerBlock` and `MultiHeadAttention` forward/backward, a GEMM
/// of the MLP's up-projection shape, Adam, and the f16/f32 blob codecs.
pub fn tensor(w: &Workload, seed: u64, log: &mut SpanLog) -> Result<Metrics, String> {
    let m = w.model;
    let rows = m.batch * m.seq;
    let x = Tensor::randn(&[rows, m.hidden], 1.0, seed);
    let dy = Tensor::randn(&[rows, m.hidden], 1.0, seed ^ 1);
    let mut out = Metrics::new();

    let block = TransformerBlock::new(m.batch, m.seq, m.hidden, m.heads, seed);
    let fwd = time_calls(log, "tensor.block_fwd", ready, |()| Ok(block.forward(&x)))?;
    let (_, saved) = block.forward(&x);
    let bwd = time_calls(log, "tensor.block_bwd", ready, |()| {
        Ok(block.backward(&x, &saved, &dy))
    })?;
    out.push(("tensor.block_fwd_s".into(), fwd));
    out.push(("tensor.block_bwd_s".into(), bwd));

    let attn = MultiHeadAttention::new(m.hidden, m.heads, seed);
    let fwd = time_calls(log, "tensor.attn_fwd", ready, |()| {
        Ok(attn.forward(&x, m.batch, m.seq))
    })?;
    let (_, saved) = attn.forward(&x, m.batch, m.seq);
    let bwd = time_calls(log, "tensor.attn_bwd", ready, |()| {
        Ok(attn.backward(&x, &saved, &dy, m.batch, m.seq))
    })?;
    out.push(("tensor.attn_fwd_s".into(), fwd));
    out.push(("tensor.attn_bwd_s".into(), bwd));

    let up = Tensor::randn(&[m.hidden, 4 * m.hidden], 0.02, seed ^ 2);
    let gemm = time_calls(log, "tensor.gemm", ready, |()| Ok(matmul(&x, &up)))?;
    let flops = 2.0 * rows as f64 * m.hidden as f64 * 4.0 * m.hidden as f64;
    out.push(("tensor.gemm_gflops".into(), flops / gemm / 1e9));

    // The largest layer's optimizer working set.
    let n = m.max_layer_params();
    let mut params = Tensor::randn(&[n], 0.02, seed ^ 3).into_vec();
    let grads = Tensor::randn(&[n], 1e-3, seed ^ 4).into_vec();
    let mut adam = Adam::new(n);
    let hp = AdamParams::default();
    let step = time_calls(log, "tensor.adam", ready, |()| {
        adam.step(&mut params, &grads, &hp);
        Ok(())
    })?;
    out.push(("tensor.adam_elems_per_s".into(), n as f64 / step));

    // The P16 blob (n halves) and the moments blob (2n floats).
    let p16 = encode_f16(&params);
    let enc = time_calls(log, "tensor.f16_encode", ready, |()| {
        Ok(encode_f16(&params))
    })?;
    let dec = time_calls(log, "tensor.f16_decode", ready, |()| Ok(decode_f16(&p16)))?;
    out.push((
        "tensor.f16_encode_gbps".into(),
        p16.len() as f64 / enc / 1e9,
    ));
    out.push((
        "tensor.f16_decode_gbps".into(),
        p16.len() as f64 / dec / 1e9,
    ));
    let moments = adam.to_flat();
    let blob = encode_f32(&moments);
    let enc = time_calls(log, "tensor.f32_encode", ready, |()| {
        Ok(encode_f32(&moments))
    })?;
    let dec = time_calls(log, "tensor.f32_decode", ready, |()| Ok(decode_f32(&blob)))?;
    out.push((
        "tensor.f32_encode_gbps".into(),
        blob.len() as f64 / enc / 1e9,
    ));
    out.push((
        "tensor.f32_decode_gbps".into(),
        blob.len() as f64 / dec / 1e9,
    ));
    Ok(out)
}

/// `TieredStore` put, read and `move_to(Host)` of the workload's largest
/// state blob (the largest layer's Adam moments), on a fresh store.
pub fn storage(w: &Workload, log: &mut SpanLog) -> Result<Metrics, String> {
    let store = TieredStore::new(TierConfig::unbounded_temp()).map_err(|e| e.to_string())?;
    let bytes = 8 * w.model.max_layer_params();
    let template: Vec<u8> = (0..bytes).map(|i| (i * 31 % 251) as u8).collect();
    let gbps = |s: f64| bytes as f64 / s / 1e9;
    let err = |e: ratel_storage::StorageError| e.to_string();

    let put = time_calls(
        log,
        "storage.ssd_put",
        || {
            if store.contains("put") {
                store.remove("put").map_err(err)?;
            }
            Ok(template.clone())
        },
        |blob| store.put("put", Tier::Ssd, blob).map_err(err),
    )?;
    store
        .put("blob", Tier::Ssd, template.clone())
        .map_err(err)?;
    let read = time_calls(log, "storage.ssd_read", ready, |()| {
        store.read("blob").map_err(err)
    })?;
    let host_move = time_calls(
        log,
        "storage.host_move",
        || store.move_to("blob", Tier::Ssd).map_err(err),
        |()| store.move_to("blob", Tier::Host).map_err(err),
    )?;
    Ok(vec![
        ("storage.ssd_put_gbps".into(), gbps(put)),
        ("storage.ssd_read_gbps".into(), gbps(read)),
        ("storage.host_move_gbps".into(), gbps(host_move)),
    ])
}

/// `Executor::run` of the workload's own step graph with an action that
/// does nothing: pure dispatch cost.
pub fn executor_noop(w: &Workload, seed: u64, log: &mut SpanLog) -> Result<Metrics, String> {
    let plan = w.builder(seed).plan().map_err(|e| e.to_string())?;
    let (graph, _, _) = plan.spec().build();
    let executor = Executor::new(ExecutorOptions::default().workers_per_pool);
    let noop = |_: TaskId| -> Result<(), RatelError> { Ok(()) };
    let run = time_calls(log, "executor.noop_run", ready, |()| {
        executor.run(&graph, &noop).map_err(|e| e.to_string())
    })?;
    Ok(vec![("executor.noop_run_s".into(), run)])
}

/// `Ratel::init(..).plan()` without pinned decisions (profiling plus
/// Algorithm 1), and how many blocks it decides as the workload pins.
pub fn planner(w: &Workload, seed: u64, log: &mut SpanLog) -> Result<Metrics, String> {
    let mut decisions = Vec::new();
    let plan = time_calls(log, "planner.profile_plan", ready, |()| {
        let plan = w.unpinned_builder(seed).plan().map_err(|e| e.to_string())?;
        decisions = plan.decisions().to_vec();
        Ok(())
    })?;
    let matching = decisions
        .iter()
        .zip(w.decisions())
        .filter(|(planned, pinned)| **planned == *pinned)
        .count();
    Ok(vec![
        ("planner.profile_plan_s".into(), plan),
        ("planner.decisions_match".into(), matching as f64),
    ])
}
