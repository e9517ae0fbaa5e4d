//! End-to-end and per-layer benchmark of the unthrottled Ratel engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path enginebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The command prints, as its last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1` (which also
//! writes a Chrome trace to `enginebench/out/`). The line before it
//! stamps the run with the machine and build it ran on.
//!
//! This process parses the arguments, makes the run's temp directory,
//! and checks the result. Its children measure, one at a time: a few
//! `setup` children each build the trainer once, and then the `engine`
//! child builds it, steps it and measures. Once the engine child has
//! exited, this process replays the same inputs through
//! `ReferenceTrainer`, whose losses every engine step must match bit for
//! bit. Every metric is taken inside a child, so the reference's time
//! and memory are in none of them.

mod engine_run;
mod metrics;
mod microbench;
mod stats;
mod trace;
mod workload;

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use ratel::engine::reference::ReferenceTrainer;
use ratel_tensor::AdamParams;

use stats::StepOutcome;
use workload::Workload;

/// How long the engine child may take at the least, and how much longer
/// the reference replay may go on. The child is killed at its deadline
/// and the replay stops at its own, so the command ends in bounded time
/// even if the engine hangs; at `--seconds 10` the run ends within 165 s.
const ENGINE_DEADLINE_S: f64 = 120.0;
const REPLAY_GRACE_S: f64 = 45.0;

/// `setup` children per run: at least `MIN_SETUP_CHILDREN`, and more
/// while their builds took less than `SETUP_BUDGET_S` in all, up to
/// `MAX_SETUP_CHILDREN`. With the engine child's own build, `setup_s` is
/// the median of 3 to 15 first builds, each in a fresh process: the
/// build time varies more from process to process than within one, and
/// a cheap build gets more samples for the same time.
const MIN_SETUP_CHILDREN: usize = 2;
const MAX_SETUP_CHILDREN: usize = 14;
const SETUP_BUDGET_S: f64 = 3.0;

const USAGE: &str =
    "usage: enginebench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Parsed command line.
#[derive(Debug, Clone)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: workload::WORKLOADS[0],
        seed: workload::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    bad(&format!("unknown workload; one of {}", names.join(", ")))
                })?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("not a positive number"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    opts.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("engine" | "setup")) => (m, &args[1..]),
        _ => ("run", &args[..]),
    };
    let opts = match parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("enginebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        "engine" => engine_run::main(&engine_run::Run {
            workload: opts.workload,
            seed: opts.seed,
            seconds: opts.seconds,
            trace: opts.trace,
        }),
        "setup" => {
            engine_run::build(&opts.workload, opts.seed, &mut trace::SpanLog::new()).map(drop)
        }
        _ => orchestrate(&opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("enginebench {mode}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The directory that holds the runs' temp directories and traces.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Where the traced run of `workload` with `seed` writes its Chrome trace.
pub(crate) fn trace_path(workload: &str, seed: u64) -> PathBuf {
    out_dir().join(format!("trace-{workload}-seed{seed}.json"))
}

/// Replays the run's steps through the in-memory reference trainer, step
/// `i` with `micro[i]` micro-batches, and returns each loss's bits. The
/// replay stops at `deadline`; steps it did not reach have no reference
/// loss.
fn reference_losses(w: &Workload, seed: u64, micro: &[usize], deadline: Instant) -> Vec<u32> {
    let mut trainer = ReferenceTrainer::new(w.model, seed, AdamParams::default());
    let mut losses = Vec::with_capacity(micro.len());
    for (step, &m) in micro.iter().enumerate() {
        if Instant::now() >= deadline {
            eprintln!("enginebench: reference replay stopped at its deadline, step {step}");
            break;
        }
        let inputs = w.step_inputs(seed, step, m);
        let loss = if m == 1 {
            let (tokens, targets) = &inputs[0];
            trainer.train_step(tokens, targets)
        } else {
            trainer.train_step_accumulated(&inputs)
        };
        losses.push(loss.to_bits());
    }
    losses
}

/// Runs `cmd` to completion or until `deadline`, returning its standard
/// output and, if it did not exit cleanly, why. A child still running at
/// the deadline is killed and reaped.
fn run_child(mut cmd: Command, deadline: Instant) -> (String, Option<String>) {
    let mut child: Child = match cmd.stdout(Stdio::piped()).stderr(Stdio::inherit()).spawn() {
        Ok(child) => child,
        Err(e) => return (String::new(), Some(format!("spawning {cmd:?}: {e}"))),
    };
    let Some(mut stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return (String::new(), Some("child has no stdout".into()));
    };
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = stdout.read_to_string(&mut out);
        out
    });
    let problem = loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => break None,
            Ok(Some(status)) => break Some(format!("exited with {status}")),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                break Some("killed at its deadline".into());
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Some(e.to_string());
            }
        }
    };
    let out = reader.join().unwrap_or_default();
    (out, problem)
}

/// What the `engine` child printed.
#[derive(Debug, Default)]
struct EngineOutput {
    /// (plan seconds, build seconds) of each set-up.
    setups: Vec<(f64, f64)>,
    metrics: Vec<(String, f64)>,
    absent: Vec<String>,
    /// How each step ended, in step order.
    steps: Vec<StepOutcome>,
    /// The micro-batches of each step, in step order.
    micro: Vec<usize>,
    notes: Vec<String>,
}

fn parse_engine(out: &str) -> EngineOutput {
    let mut parsed = EngineOutput::default();
    for line in out.lines() {
        if let Some(note) = line.strip_prefix("note ") {
            parsed.notes.push(note.to_string());
            continue;
        }
        if let Some(step) = line.strip_prefix("step ") {
            let mut words = step.splitn(4, ' ');
            let (Some(_), Some(micro), Some(kind), rest) =
                (words.next(), words.next(), words.next(), words.next())
            else {
                continue;
            };
            let outcome = match kind {
                "loss" => StepOutcome::Loss(
                    rest.and_then(|b| u32::from_str_radix(b, 16).ok())
                        .unwrap_or(u32::MAX),
                ),
                "error" => StepOutcome::Error(rest.unwrap_or("").to_string()),
                _ => continue,
            };
            // A step line without a micro-batch count fails its step.
            match micro.parse().ok().filter(|&m: &usize| m >= 1) {
                Some(m) => {
                    parsed.steps.push(outcome);
                    parsed.micro.push(m);
                }
                None => {
                    parsed
                        .steps
                        .push(StepOutcome::Error(format!("malformed step line {line:?}")));
                    parsed.micro.push(1);
                }
            }
            continue;
        }
        let mut words = line.splitn(4, ' ');
        match (words.next(), words.next(), words.next(), words.next()) {
            (Some("metric"), Some(name), Some(value), None) => {
                if let Some(v) = value.parse().ok().filter(|v: &f64| v.is_finite()) {
                    parsed.metrics.push((name.to_string(), v));
                }
            }
            (Some("setup"), Some(plan), Some(build), None) => {
                if let (Ok(p), Ok(b)) = (plan.parse(), build.parse()) {
                    parsed.setups.push((p, b));
                }
            }
            (Some("absent"), Some(name), ..) => parsed.absent.push(name.to_string()),
            _ => {}
        }
    }
    parsed
}

/// Removes temp directories of earlier runs whose process has ended.
fn remove_stale_temp_dirs(out_dir: &Path) {
    let Ok(entries) = std::fs::read_dir(out_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(pid) = name.strip_prefix("tmp-") else {
            continue;
        };
        if !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// The default run: measure in a child, replay the reference once it
/// has exited, and print the stamp and the result line.
fn orchestrate(opts: &Options) -> Result<(), String> {
    let started = Instant::now();
    let w = opts.workload;
    let out_dir = out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    remove_stale_temp_dirs(&out_dir);
    let tmp = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = |mode: &str| {
        let mut cmd = Command::new(&exe);
        cmd.arg(mode)
            .args(["--workload", w.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            // The store's "SSD" files live in the run's own directory.
            .env("TMPDIR", &tmp);
        cmd
    };
    let engine_deadline =
        started + Duration::from_secs_f64(ENGINE_DEADLINE_S.max(60.0 + 4.0 * opts.seconds));
    let mut problems = Vec::new();
    let mut setups = Vec::new();
    while setups.len() < MIN_SETUP_CHILDREN
        || (setups.len() < MAX_SETUP_CHILDREN
            && setups.iter().map(|(p, b)| p + b).sum::<f64>() < SETUP_BUDGET_S)
    {
        let (out, problem) = run_child(child("setup"), engine_deadline);
        let setup = parse_engine(&out).setups;
        match (problem, setup.as_slice()) {
            (None, [one]) => setups.push(*one),
            (problem, _) => {
                problems.push(format!("set-up run failed: {problem:?}"));
                break;
            }
        }
    }
    let (engine_out, engine_problem) = run_child(child("engine"), engine_deadline);
    let _ = std::fs::remove_dir_all(&tmp);
    problems.extend(engine_problem.map(|p| format!("engine run failed: {p}")));
    for p in &problems {
        eprintln!("enginebench: {p}");
    }
    let mut parsed = parse_engine(&engine_out);
    parsed.setups.extend(setups);
    let column = |f: fn(&(f64, f64)) -> f64| {
        stats::median(&parsed.setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let setup_metrics = [
        ("setup_s", column(|(p, b)| p + b)),
        ("api.plan_s", column(|(p, _)| *p)),
        ("api.build_s", column(|(_, b)| *b)),
    ];
    for (name, value) in setup_metrics {
        if value.is_finite() {
            parsed.metrics.push((name.to_string(), value));
        }
    }
    let replay_deadline = engine_deadline + Duration::from_secs_f64(REPLAY_GRACE_S);
    let replay_started = Instant::now();
    let reference = reference_losses(&w, opts.seed, &parsed.micro, replay_deadline);
    let replay_s = replay_started.elapsed().as_secs_f64();

    println!("{}", stamp(opts, &parsed, started, replay_s));
    println!(
        "{}",
        result_line(opts, &parsed, problems.is_empty(), &reference)
    );
    Ok(())
}

/// Checks the engine's losses against the reference and renders the
/// result line. The run is correct only if the engine child exited
/// cleanly, no step failed, and every metric of the mode is there.
fn result_line(
    opts: &Options,
    parsed: &EngineOutput,
    engine_ok: bool,
    reference: &[u32],
) -> String {
    let w = opts.workload;
    let mismatches = stats::check_losses(&parsed.steps, reference);
    for m in &mismatches {
        eprintln!(
            "enginebench: FAILED step: workload={} seed={} step={}: {}",
            w.name, opts.seed, m.step, m.detail
        );
    }
    let attempted = parsed.steps.len().max(1);
    let failed = if parsed.steps.is_empty() {
        1
    } else {
        mismatches.len()
    };
    let mut values = parsed.metrics.clone();
    values.push((
        "passed_step_ratio".into(),
        1.0 - failed as f64 / attempted as f64,
    ));

    let expected: Vec<(String, &str)> = if opts.trace {
        metrics::per_layer()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut complete = engine_ok;
    let mut fields = Vec::new();
    for (name, unit) in &expected {
        match values.iter().find(|(n, _)| n == name) {
            Some((_, v)) => fields.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                metrics::json_string(name),
                metrics::json_number(*v),
                metrics::json_string(unit)
            )),
            None => {
                eprintln!("enginebench: metric {name} was not measured");
                complete = false;
            }
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        complete && failed == 0,
        fields.join(", ")
    )
}

/// The repository commit, or "unknown" where the benchmark runs from a
/// checkout that is not a git repository.
fn commit() -> String {
    // `--git-dir` rather than `-C`, so that a checkout nested inside
    // another repository does not report that repository's commit.
    Command::new("git")
        .arg("--git-dir")
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git"))
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One JSON line describing where and how the run ran.
/// `replay_s` is how long the reference replay took.
fn stamp(opts: &Options, parsed: &EngineOutput, started: Instant, replay_s: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("RATEL_"))
        .collect();
    env.sort();
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", metrics::json_string(k), metrics::json_string(v)))
        .collect();
    let strings = |xs: &[String]| {
        xs.iter()
            .map(|x| metrics::json_string(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let w = opts.workload;
    let m = w.model;
    format!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"model\": \"vocab={} seq={} hidden={} heads={} layers={} batch={}\", \
         \"decision\": \"{:?}\", \"host_capacity\": {}, \"gpu_capacity\": {}, \
         \"micro_batches\": {}, \"setups\": {}, \"steps\": {}, \"nproc\": {nproc}, \"commit\": {}, \
         \"rustc\": {}, \"env\": {{{}}}, \"absent\": [{}], \"notes\": [{}], \"replay_s\": {replay_s:?}, \
         \"run_s\": {:?}}}}}",
        metrics::json_string(w.name),
        opts.seed,
        opts.seconds,
        opts.trace,
        m.vocab,
        m.seq,
        m.hidden,
        m.heads,
        m.layers,
        m.batch,
        w.decision,
        w.host_capacity,
        w.gpu_capacity,
        w.micro_batches,
        parsed.setups.len(),
        parsed.steps.len(),
        metrics::json_string(&commit()),
        metrics::json_string(&rustc),
        env.join(", "),
        strings(&parsed.absent),
        strings(&parsed.notes),
        started.elapsed().as_secs_f64(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOSS: &str = "3f800000";

    fn opts(name: &str, trace: bool) -> Options {
        Options {
            workload: workload::find(name).expect("workload"),
            seed: 1,
            seconds: 1.0,
            trace,
        }
    }

    /// Engine output with one matching step, every metric of the mode
    /// measured except those `skip` marks absent.
    fn engine_output(trace: bool, skip: impl Fn(&str) -> bool) -> EngineOutput {
        let names: Vec<String> = if trace {
            metrics::per_layer().into_iter().map(|(n, _)| n).collect()
        } else {
            metrics::END_TO_END
                .iter()
                .map(|(n, _)| n.to_string())
                .collect()
        };
        let mut out = format!("step 0 1 loss {LOSS}\n");
        for name in names.iter().filter(|n| *n != "passed_step_ratio") {
            if skip(name) {
                out += &format!("absent {name} not a finite number (NaN)\n");
            } else {
                out += &format!("metric {name} 1.5\n");
            }
        }
        parse_engine(&out)
    }

    fn correct(opts: &Options, parsed: &EngineOutput) -> bool {
        let reference = [u32::from_str_radix(LOSS, 16).expect("hex")];
        let line = result_line(opts, parsed, true, &reference);
        assert!(line.contains("\"failed\": 0"), "{line}");
        line.starts_with("{\"correct\": true,")
    }

    #[test]
    fn every_metric_measured_is_correct() {
        for name in ["dense-gemm", "grad-accum"] {
            for trace in [false, true] {
                let parsed = engine_output(trace, |_| false);
                assert!(correct(&opts(name, trace), &parsed), "{name} {trace}");
            }
        }
    }

    #[test]
    fn an_absent_end_to_end_metric_is_not_correct() {
        let parsed = engine_output(false, |n| n == "tokens_per_s");
        assert_eq!(parsed.absent, ["tokens_per_s"]);
        assert!(!correct(&opts("dense-gemm", false), &parsed));
        assert!(!correct(&opts("grad-accum", false), &parsed));
    }

    #[test]
    fn an_absent_per_layer_metric_is_not_correct() {
        for name in [
            "executor.busy_s.gpu",
            "engine.ssd_gbps",
            "tensor.gemm_gflops",
        ] {
            let parsed = engine_output(true, |n| n == name);
            assert!(!correct(&opts("grad-accum", true), &parsed), "{name}");
            assert!(!correct(&opts("dense-gemm", true), &parsed), "{name}");
        }
    }

    #[test]
    fn step_lines_carry_their_micro_batches() {
        let parsed = parse_engine(
            "step 0 4 loss 3f800000\nstep 1 1 loss 40000000\nstep 2 1 error out of memory\nnote n\n",
        );
        assert_eq!(parsed.micro, [4, 1, 1]);
        assert_eq!(
            parsed.steps,
            [
                StepOutcome::Loss(0x3f80_0000),
                StepOutcome::Loss(0x4000_0000),
                StepOutcome::Error("out of memory".into())
            ]
        );
        assert_eq!(parsed.notes, ["n"]);
        let parsed = parse_engine("step 0 0 loss 3f800000\nstep 1 x loss 3f800000\n");
        assert_eq!(parsed.micro, [1, 1]);
        assert!(parsed
            .steps
            .iter()
            .all(|s| matches!(s, StepOutcome::Error(_))));
    }

    #[test]
    fn setup_lines_are_collected() {
        let parsed = parse_engine("setup 0.0 0.5\nsetup 0.25 x\nmetric setup_s 1.0\n");
        assert_eq!(parsed.setups, [(0.0, 0.5)]);
    }

    #[test]
    fn a_failed_engine_child_is_not_correct() {
        let parsed = engine_output(false, |_| false);
        let reference = [u32::from_str_radix(LOSS, 16).expect("hex")];
        let line = result_line(&opts("dense-gemm", false), &parsed, false, &reference);
        assert!(line.starts_with("{\"correct\": false,"), "{line}");
    }
}
