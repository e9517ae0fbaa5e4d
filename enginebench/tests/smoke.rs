//! A few-step run of every workload, untraced and traced: each prints a
//! well-formed result line with every metric `BENCHMARK.json` names, the
//! correctness gate passes, and the traced run writes a Chrome trace that
//! loads as JSON. `python3` validates the JSON.

use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

/// Checks one run's standard output (stdin) against the manifest
/// (argv[1]) for workload argv[2] and trace mode argv[3]; with tracing it
/// also loads the Chrome trace (argv[4]).
const CHECK: &str = r#"
import json, sys
manifest = json.load(open(sys.argv[1]))
workload, traced = sys.argv[2], sys.argv[3] == "1"
lines = sys.stdin.read().strip().splitlines()
result = json.loads(lines[-1])
stamp = json.loads(lines[-2])["stamp"]
assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
assert result["correct"] is True and result["failed"] == 0, result
assert isinstance(result["attempted"], int) and result["attempted"] >= 1
assert isinstance(stamp["nproc"], int) and stamp["nproc"] >= 1 and stamp["rustc"], stamp
want = manifest["per_layer" if traced else "end_to_end"]
assert stamp["absent"] == [], stamp["absent"]
for m in want:
    got = result["metrics"][m["name"]]
    assert got["unit"] == m["unit"], (m, got)
    assert isinstance(got["value"], (int, float)), got
assert len(result["metrics"]) == len(want)
if traced:
    events = json.load(open(sys.argv[4]))["traceEvents"]
    names = {e.get("name") for e in events}
    for span in ["api.plan", "api.build", "trainer.step", "tensor.block_fwd", "storage.ssd_put"]:
        assert span in names, span
    steps = [e for e in events if e.get("name") == "trainer.step"]
    assert all("task" in e["args"] for e in steps), steps[:1]
    engine_pid = [e["pid"] for e in events
                  if e.get("name") == "process_name" and e["args"]["name"] == "engine"]
    assert engine_pid and any(e.get("pid") == engine_pid[0] and e.get("ph") == "X"
                              for e in events), "no engine spans"
"#;

fn workloads(manifest: &str) -> Vec<String> {
    let section = &manifest[manifest.find("\"workloads\"").expect("workloads")..];
    let section = &section[..section.find(']').expect("end of workloads")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn every_workload_prints_every_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let manifest_path = root.join("BENCHMARK.json");
    let manifest = std::fs::read_to_string(&manifest_path).expect("BENCHMARK.json");
    let names = workloads(&manifest);
    assert_eq!(names.len(), 4, "{names:?}");
    for workload in &names {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_enginebench"))
                .args(["--workload", workload, "--seed", "3"])
                .args(["--seconds", "0.5", "--trace", trace])
                .output()
                .expect("run enginebench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let trace_file = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{workload}-seed3.json"));
            let mut check = Command::new("python3")
                .args(["-c", CHECK])
                .arg(&manifest_path)
                .args([workload.as_str(), trace])
                .arg(&trace_file)
                .stdin(Stdio::piped())
                .spawn()
                .expect("python3");
            check
                .stdin
                .take()
                .expect("stdin")
                .write_all(stdout.as_bytes())
                .expect("pipe output");
            let status = check.wait().expect("python3 check");
            assert!(status.success(), "{workload} trace {trace}:\n{stdout}");
        }
    }
}
