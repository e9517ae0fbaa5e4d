//! The measured process: sets the trainer up, runs the closed training
//! loop, and prints what it measured as lines for the parent to collect:
//!
//! ```text
//! setup <plan seconds> <build seconds>
//! metric <name> <value>
//! absent <name> <reason>
//! step <index> <micro-batches> loss <f32 bits, hex>
//! step <index> <micro-batches> error <message>
//! note <text>
//! ```
//!
//! It runs alone in its own process, so no other workload and not the
//! reference trainer can raise its peak resident memory.

use ratel::engine::telemetry::StepTelemetry;
use ratel::engine::StepStats;
use ratel::{Batch, RatelTrainer};
use ratel_storage::telemetry::FaultStats;

use crate::metrics::{self, POOLS, ROUTES};
use crate::microbench::{self, Metrics};
use crate::stats::median;
use crate::trace::SpanLog;
use crate::workload::Workload;

/// Steps run before measuring, so lazy set-up and caches settle.
const WARMUP_STEPS: usize = 2;
/// The fewest steps a measured phase runs, however short `--seconds`.
const MIN_STEPS: usize = 3;

/// What the run needs to know.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One finished step.
struct Step {
    wall: f64,
    stats: StepStats,
}

/// The steps of one phase, and the telemetry of each if it was traced.
#[derive(Default)]
struct Phase {
    steps: Vec<Step>,
    telemetry: Vec<StepTelemetry>,
}

impl Phase {
    fn median_of(&self, f: impl Fn(&Step) -> f64) -> f64 {
        let xs: Vec<f64> = self.steps.iter().map(f).collect();
        median(&xs).unwrap_or(f64::NAN)
    }

    fn median_tel(&self, f: impl Fn(&StepTelemetry) -> f64) -> f64 {
        let xs: Vec<f64> = self.telemetry.iter().map(f).collect();
        median(&xs).unwrap_or(f64::NAN)
    }
}

/// The trainer, the step counter and the span log of a run.
struct Loop<'a> {
    run: &'a Run,
    trainer: RatelTrainer,
    next_step: usize,
    log: SpanLog,
}

impl Loop<'_> {
    /// Runs steps of `micro` micro-batches each until `seconds` have
    /// passed and at least `min_steps` ran: one micro-batch runs
    /// `RatelTrainer::step`, more run `step_accumulated`. Prints each
    /// step's outcome; stops at the first error.
    fn phase(
        &mut self,
        seconds: f64,
        min_steps: usize,
        micro: usize,
        traced: bool,
    ) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let start = self.log.now();
        while phase.steps.len() < min_steps || self.log.now() - start < seconds {
            let index = self.next_step;
            self.next_step += 1;
            let w = self.run.workload;
            let inputs = w.step_inputs(self.run.seed, index, micro);
            let batches = inputs
                .iter()
                .map(|(t, y)| Batch::new(&w.model, t, y))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("step {index}: bad inputs: {e}"))?;
            let t0 = self.log.now();
            let result = if micro == 1 {
                self.trainer.step(batches[0])
            } else {
                self.trainer.step_accumulated(&batches)
            };
            let t1 = self.log.now();
            self.log
                .record("trainer", "trainer.step", t0, t1, Some(index));
            let stats = match result {
                Ok(stats) => stats,
                Err(e) => {
                    let msg = e.to_string().replace('\n', " ");
                    println!("step {index} {micro} error {msg}");
                    return Err(format!("step {index} failed: {msg}"));
                }
            };
            println!("step {index} {micro} loss {:08x}", stats.loss.to_bits());
            if traced {
                let tel = self
                    .trainer
                    .engine()
                    .last_step_telemetry()
                    .ok_or("telemetry on but no step telemetry")?
                    .clone();
                self.log.add_engine_step(&tel.timeline("engine"), t0);
                phase.telemetry.push(tel);
            }
            phase.steps.push(Step {
                wall: t1 - t0,
                stats,
            });
        }
        Ok(phase)
    }
}

/// Prints one metric line; a non-finite value is printed as absent.
fn emit(name: &str, value: f64) {
    debug_assert!(metrics::unit_of(name).is_some(), "unknown metric {name}");
    if value.is_finite() {
        println!("metric {name} {}", metrics::json_number(value));
    } else {
        println!("absent {name} not a finite number ({value})");
    }
}

fn emit_all(ms: &Metrics) {
    for (name, value) in ms {
        emit(name, *value);
    }
}

/// Peak resident set of this process, in MB (10^6 bytes).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

fn route_bytes(s: &Step, route: ratel_storage::Route) -> f64 {
    s.stats.traffic.bytes(route) as f64
}

/// Plans and builds the run's trainer, records both calls as spans and
/// prints their times as a `setup` line. This is the first build in the
/// process, as it is for a user of the engine.
pub fn build(w: &Workload, seed: u64, log: &mut SpanLog) -> Result<RatelTrainer, String> {
    let t0 = log.now();
    let plan = w.builder(seed).plan().map_err(|e| format!("plan: {e}"))?;
    let t1 = log.now();
    let trainer = plan.build().map_err(|e| format!("build: {e}"))?;
    let t2 = log.now();
    log.record("api", "api.plan", t0, t1, None);
    log.record("api", "api.build", t1, t2, None);
    println!("setup {:?} {:?}", t1 - t0, t2 - t1);
    Ok(trainer)
}

/// Runs the workload and prints its metrics: the end-to-end ones, or
/// with `trace` the per-layer ones and the Chrome trace. The set-up
/// metrics are left to the parent, which pools this build's times with
/// those of its set-up processes.
pub fn main(run: &Run) -> Result<(), String> {
    let w = run.workload;
    let mut log = SpanLog::new();
    let trainer = build(&w, run.seed, &mut log)?;
    let mut lp = Loop {
        run,
        trainer,
        next_step: 0,
        log,
    };
    let micro = w.micro_batches;
    lp.phase(0.0, WARMUP_STEPS, micro, false)?;

    if !run.trace {
        let measured = lp.phase(run.seconds, MIN_STEPS, micro, false)?;
        let wall: f64 = measured.steps.iter().map(|s| s.wall).sum();
        let tokens = (w.tokens_per_step() * measured.steps.len()) as f64;
        use ratel_storage::Route::*;
        emit("tokens_per_s", tokens / wall);
        emit("step_s_p50", measured.median_of(|s| s.wall));
        emit("peak_rss_mb", peak_rss_mb()?);
        emit(
            "ssd_read_bytes_per_step",
            measured.median_of(|s| route_bytes(s, SsdToHost)),
        );
        emit(
            "ssd_write_bytes_per_step",
            measured.median_of(|s| route_bytes(s, HostToSsd)),
        );
        emit(
            "pcie_bytes_per_step",
            measured.median_of(|s| route_bytes(s, GpuToHost) + route_bytes(s, HostToGpu)),
        );
        return Ok(());
    }

    // Traced run: an untraced half for the executor breakdown and the
    // overhead base, then a half with engine telemetry on.
    let plain = lp.phase(run.seconds / 2.0, MIN_STEPS, micro, false)?;
    // Steps that ran outside the executor have no breakdown
    // (`StepStats.tasks` is `None`; today `step_accumulated` does so).
    // The breakdown then comes from single-micro-batch steps of the same
    // trainer, which do run through the executor.
    let (exec_phase, exec_micro) = if plain.steps.iter().all(|s| s.stats.tasks.is_some()) {
        (None, micro)
    } else {
        println!(
            "note executor.* and engine.* from single-micro-batch steps: StepStats.tasks is None"
        );
        (Some(lp.phase(run.seconds / 4.0, MIN_STEPS, 1, false)?), 1)
    };
    lp.trainer.engine().enable_telemetry();
    let traced = lp.phase(run.seconds / 2.0, MIN_STEPS, micro, true)?;
    let mut log = lp.log;

    for (name, route) in ROUTES {
        emit(
            &format!("storage.bytes.{name}"),
            plain.median_of(|s| route_bytes(s, route)),
        );
    }
    let faults = plain
        .steps
        .iter()
        .chain(&traced.steps)
        .fold(FaultStats::default(), |acc, s| FaultStats {
            retries: acc.retries + s.stats.fault_stats.retries,
            give_ups: acc.give_ups + s.stats.fault_stats.give_ups,
            host_spills: acc.host_spills + s.stats.fault_stats.host_spills,
        });
    emit("storage.retries", faults.retries as f64);
    emit("storage.give_ups", faults.give_ups as f64);
    emit("storage.host_spills", faults.host_spills as f64);

    emit(
        "stage.forward_s",
        traced.median_tel(|t| t.stage_breakdown().forward),
    );
    emit(
        "stage.backward_s",
        traced.median_tel(|t| t.stage_breakdown().backward),
    );
    emit(
        "stage.optimizer_s",
        traced.median_tel(|t| t.stage_breakdown().optimizer),
    );
    emit(
        "stage.transfer_s",
        traced.median_tel(|t| t.stage_breakdown().transfer),
    );
    emit(
        "stage.prefetch_s",
        traced.median_tel(|t| t.stage_breakdown().prefetch),
    );
    emit(
        "stage.optimizer_overlap_ratio",
        traced.median_tel(StepTelemetry::optimizer_overlap_ratio),
    );
    for (name, route) in ROUTES {
        let i = route.index();
        emit(
            &format!("storage.{name}.ops"),
            traced.median_tel(|t| t.route_metrics[i].ops as f64),
        );
        emit(
            &format!("storage.{name}.mean_op_s"),
            traced.median_tel(|t| {
                let m = &t.route_metrics[i];
                if m.ops == 0 {
                    0.0
                } else {
                    m.seconds / m.ops as f64
                }
            }),
        );
        emit(
            &format!("storage.{name}.gbps"),
            traced.median_tel(|t| t.route_metrics[i].achieved_bandwidth().unwrap_or(0.0) / 1e9),
        );
    }
    emit(
        "trace.overhead_ratio",
        traced.median_of(|s| s.wall) / plain.median_of(|s| s.wall),
    );

    let tensor = microbench::tensor(&w, run.seed, &mut log)?;
    let storage = microbench::storage(&w, &mut log)?;
    emit_all(&tensor);
    emit_all(&storage);
    emit_all(&microbench::executor_noop(&w, run.seed, &mut log)?);
    emit_all(&microbench::planner(&w, run.seed, &mut log)?);

    executor_metrics(
        &w,
        exec_phase.as_ref().unwrap_or(&plain),
        exec_micro,
        &tensor,
        &storage,
    )?;
    let trace_out = crate::trace_path(w.name, run.seed);
    std::fs::write(&trace_out, log.chrome_trace())
        .map_err(|e| format!("writing {}: {e}", trace_out.display()))?;
    Ok(())
}

fn lookup(ms: &Metrics, name: &str) -> f64 {
    ms.iter()
        .find(|(n, _)| n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// The executor breakdown from `StepStats::tasks` (medians over the
/// untraced steps of `phase`, each of `micro` micro-batches) and the
/// engine attribution ratios built on it. Every step must have run
/// through the executor.
fn executor_metrics(
    w: &Workload,
    phase: &Phase,
    micro: usize,
    tensor: &Metrics,
    storage: &Metrics,
) -> Result<(), String> {
    let breakdowns = phase
        .steps
        .iter()
        .map(|s| s.stats.tasks.as_ref())
        .collect::<Option<Vec<_>>>()
        .ok_or("a step ran outside the executor (StepStats.tasks is None)")?;
    let med = |f: &dyn Fn(&ratel::engine::executor::TaskBreakdown) -> f64| {
        median(&breakdowns.iter().map(|b| f(b)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    emit("executor.wall_s", med(&|b| b.wall_seconds));
    emit(
        "executor.critical_path_s",
        med(&|b| b.critical_path_seconds),
    );
    emit(
        "executor.slack_s",
        med(&|b| b.wall_seconds - b.critical_path_seconds),
    );
    emit("executor.tasks_per_step", med(&|b| b.tasks_total as f64));
    let busy = |class| med(&|b| b.pool(class).map_or(0.0, |p| p.busy_seconds));
    for (name, class) in POOLS {
        emit(&format!("executor.busy_s.{name}"), busy(class));
        emit(
            &format!("executor.util.{name}"),
            med(&|b| {
                b.pool(class).map_or(0.0, |p| {
                    p.busy_seconds / (b.wall_seconds * p.workers as f64)
                })
            }),
        );
    }
    let gpu_gflops = w.model_flops_per_step(micro) / busy(POOLS[0].1) / 1e9;
    emit("engine.gpu_gflops", gpu_gflops);
    emit(
        "engine.gpu_efficiency",
        gpu_gflops / lookup(tensor, "tensor.gemm_gflops"),
    );
    let cpu = w.model.total_params() as f64 / busy(POOLS[1].1);
    emit("engine.cpu_params_per_s", cpu);
    emit(
        "engine.cpu_efficiency",
        cpu / lookup(tensor, "tensor.adam_elems_per_s"),
    );
    use ratel_storage::Route::{HostToSsd, SsdToHost};
    let ssd_bytes = phase.median_of(|s| route_bytes(s, HostToSsd) + route_bytes(s, SsdToHost));
    let ssd = ssd_bytes / busy(POOLS[4].1) / 1e9;
    emit("engine.ssd_gbps", ssd);
    emit(
        "engine.ssd_efficiency",
        ssd / lookup(storage, "storage.ssd_read_gbps"),
    );
    Ok(())
}
