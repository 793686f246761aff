//! Self-test of the benchmark: every workload at tiny scale for a
//! few hundred rounds, untraced and traced, checked against the metrics
//! `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use fbs_netsim::WorldScale;
use fbs_types::Round;
use std::path::PathBuf;
use std::process::Command;

const SEED: u64 = 7;
/// Long enough to cross the first month rollover (round 349) and hold
/// four snapshot boundaries.
const ROUNDS: u32 = 400;
const SNAPSHOT_EVERY: u32 = 84;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[body.find('[').unwrap()..body.find(']').unwrap()];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).unwrap() + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').unwrap() + 1;
        let len = rest[open..].find('"').unwrap();
        rest[open..open + len].to_string()
    };
    body.split('}')
        .filter(|obj| obj.contains("\"name\""))
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

struct Output {
    /// `metric <name> <value> <unit>` lines.
    table: Vec<(String, f64, String)>,
    /// The final JSON line.
    json: String,
    info: String,
}

impl Output {
    fn value(&self, name: &str) -> f64 {
        self.table
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} not printed"))
            .1
    }
}

fn run(workload: &str, trace: bool) -> Output {
    let work =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &SEED.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "tiny", "--rounds", &ROUNDS.to_string()])
        .arg("--work-dir")
        .arg(&work)
        .env_remove("FBS_THREADS")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let w: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(w.len(), 3, "{l}");
            (w[0].to_string(), w[1].parse().unwrap(), w[2].to_string())
        })
        .collect();
    let json = stdout.lines().last().unwrap_or_default().to_string();
    let info = stdout.lines().next().unwrap_or_default().to_string();
    Output { table, json, info }
}

/// Every declared metric appears exactly once, with its unit, both in the
/// table and in the JSON line; the JSON line holds nothing else.
fn assert_declared(out: &Output, section: &str) {
    let declared = declared(section);
    assert!(!declared.is_empty());
    assert!(
        out.json.starts_with("{\"correct\": true, \"attempted\": "),
        "{}",
        out.json
    );
    assert!(out.json.contains("\"failed\": 0,"), "{}", out.json);
    for (name, unit) in &declared {
        let rows: Vec<_> = out.table.iter().filter(|(n, _, _)| n == name).collect();
        assert_eq!(rows.len(), 1, "{name} printed {} times", rows.len());
        assert_eq!(&rows[0].2, unit, "{name}");
        assert!(rows[0].1.is_finite());
        let key = format!("\"{name}\": {{\"value\": ");
        assert_eq!(out.json.matches(&key).count(), 1, "{name} in {}", out.json);
        let at = out.json.find(&key).unwrap();
        assert!(out.json[at..].contains(&format!("\"unit\": \"{unit}\"}}")));
    }
    assert_eq!(out.json.matches("\"unit\"").count(), declared.len());
}

/// Month starts per `World::month_index`, and how many fall on a
/// snapshot boundary.
fn month_starts() -> (usize, usize) {
    let world = fbs_scenarios::ukraine_with_rounds(WorldScale::Tiny, SEED, ROUNDS)
        .into_world()
        .unwrap();
    let starts: Vec<u32> = (0..ROUNDS)
        .filter(|&r| r == 0 || world.month_index(Round(r)) != world.month_index(Round(r - 1)))
        .collect();
    let on_snapshot = starts
        .iter()
        .filter(|&&r| (r + 1).is_multiple_of(SNAPSHOT_EVERY))
        .count();
    (starts.len(), on_snapshot)
}

fn check_workload(workload: &str, durable: bool) {
    let plain = run(workload, false);
    assert_declared(&plain, "end_to_end");
    assert_eq!(
        plain.table.iter().any(|(n, _, _)| n == "resume_s"),
        durable,
        "resume_s is printed for the durable workload only"
    );

    let traced = run(workload, true);
    assert_declared(&traced, "per_layer");
    let (months, months_on_snapshot) = month_starts();
    assert!(months >= 2, "{ROUNDS} rounds cross a month rollover");
    let snapshots = if durable {
        (ROUNDS / SNAPSHOT_EVERY) as usize
    } else {
        0
    };
    let month_rounds = months - if durable { months_on_snapshot } else { 0 };
    assert_eq!(traced.value("round.snapshot_count"), snapshots as f64);
    assert_eq!(traced.value("round.month_count"), month_rounds as f64);
    assert_eq!(
        traced.value("round.ordinary_count"),
        (ROUNDS as usize - snapshots - month_rounds) as f64
    );

    let replayed = traced.value("resume.replayed_rounds");
    if durable {
        let crash: u32 = traced
            .info
            .split_whitespace()
            .find_map(|w| w.strip_prefix("crash_at="))
            .and_then(|c| c.parse().ok())
            .expect("durable runs name their crash round");
        assert_ne!(
            crash % SNAPSHOT_EVERY,
            0,
            "crash round {crash} is a snapshot boundary"
        );
        assert_eq!(replayed, f64::from(crash % SNAPSHOT_EVERY));
        assert!(replayed > 0.0);
        assert!(traced.value("resume.rchar_mb") > 0.0);
        assert!(traced.value("persist.wal_bytes_per_round") > 0.0);
        assert!(traced.value("persist.snapshot_bytes") > 0.0);
    } else {
        assert_eq!(replayed, 0.0);
        assert_eq!(traced.value("persist.wal_bytes_per_round"), 0.0);
    }
}

#[test]
fn small_durable_at_tiny_scale() {
    check_workload("small-durable", true);
}

#[test]
fn paper_memory_at_tiny_scale() {
    check_workload("paper-memory", false);
}

#[test]
fn small_roster_at_tiny_scale() {
    check_workload("small-roster", false);
}

#[test]
fn refuses_fbs_threads() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "paper-memory",
            "--seed",
            "1",
            "--seconds",
            "1",
        ])
        .args(["--trace", "0", "--work-dir", env!("CARGO_TARGET_TMPDIR")])
        .env("FBS_THREADS", "1")
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("FBS_THREADS"));
}
