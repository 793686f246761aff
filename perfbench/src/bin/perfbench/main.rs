//! Campaign benchmark: end-to-end and per-layer metrics of the default
//! campaign, measured from outside through `fbs-core`'s public API.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! The process runs campaigns of the workload, each in a child process of
//! its own (so `VmHWM` and the resume RSS lift are per campaign), until
//! `--seconds` is spent, then prints every metric with its unit and, as
//! the last line, one JSON object with the medians. `--trace 1` alternates
//! traced and untraced campaigns and prints the per-layer metrics instead.
//! Checkpoint and export files live under `--work-dir` and are removed
//! after each campaign; span files of traced campaigns are kept in
//! `<work-dir>/traces/`. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod campaign;
mod procfs;
mod stats;
mod trace;
mod workload;

use fbs_netsim::WorldScale;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Plan, Workload};

/// Which output a metric belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Printed by every untraced run (`end_to_end` in `BENCHMARK.json`).
    EndToEnd,
    /// Printed by the durable workload's untraced runs only, beside the
    /// JSON line: the in-memory workloads never resume and keep no
    /// checkpoint.
    Durable,
    /// Printed by every traced run (`per_layer` in `BENCHMARK.json`).
    Layer,
}

/// Every metric the benchmark prints, with its unit.
const CATALOG: &[(&str, &str, Class)] = &[
    ("setup_s", "s", Class::EndToEnd),
    ("campaign_s", "s", Class::EndToEnd),
    ("cpu_s", "s", Class::EndToEnd),
    ("peak_rss_mb", "MB", Class::EndToEnd),
    ("resume_s", "s", Class::Durable),
    ("disk_mb", "MB", Class::Durable),
    ("scenarios.world_build_ms", "ms", Class::Layer),
    ("core.runner_build_ms", "ms", Class::Layer),
    ("round.ordinary_ms.p50", "ms", Class::Layer),
    ("round.ordinary_ms.p90", "ms", Class::Layer),
    ("round.ordinary_count", "count", Class::Layer),
    ("round.month_ms.p50", "ms", Class::Layer),
    ("round.month_count", "count", Class::Layer),
    ("round.snapshot_ms.p50", "ms", Class::Layer),
    ("round.snapshot_count", "count", Class::Layer),
    ("round.ordinary_offcpu_ms.mean", "ms", Class::Layer),
    ("persist.io_wait_s", "s", Class::Layer),
    ("persist.wal_bytes_per_round", "B", Class::Layer),
    ("persist.snapshot_bytes", "B", Class::Layer),
    ("persist.wchar_per_round", "B", Class::Layer),
    ("persist.syscw_per_round", "count", Class::Layer),
    ("resume.wall_s", "s", Class::Layer),
    ("resume.rchar_mb", "MB", Class::Layer),
    ("resume.rss_delta_mb", "MB", Class::Layer),
    ("resume.replayed_rounds", "count", Class::Layer),
    ("exec.cpu_per_wall", "ratio", Class::Layer),
    ("exec.main_rqwait_s", "s", Class::Layer),
    ("finish.ms", "ms", Class::Layer),
    ("export.ms", "ms", Class::Layer),
    ("export.bytes", "B", Class::Layer),
    ("trace.overhead_pct", "%", Class::Layer),
];

/// Layers with no public boundary, reported jointly until the program
/// records spans of its own.
const UNMEASURED: &[&str] = &[
    "measure vs merge vs apply inside step_round: one call, split only by round kind",
    "WAL append vs fsync vs snapshot encode: one call; off-CPU time stands in for fsync",
    "shard executor per-worker time: workers are scoped threads inside step_round",
];

/// Campaigns per run, at least, whatever `--seconds` says: untraced, and
/// traced (half of them traced).
const MIN_CAMPAIGNS: usize = 3;
const MIN_TRACED_CAMPAIGNS: usize = 4;

#[derive(Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    work_dir: Option<PathBuf>,
    scale: Option<WorldScale>,
    rounds: Option<u32>,
    // Child-process options.
    child: bool,
    reference: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            args.child = true;
            continue;
        }
        if flag == "--reference" {
            args.reference = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("not one of {}", names.join(", ")))
                })?)
            }
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("must be positive"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--work-dir" => args.work_dir = Some(PathBuf::from(value)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            "--scale" => {
                args.scale = Some(match value {
                    "tiny" => WorldScale::Tiny,
                    "small" => WorldScale::Small,
                    "paper" => WorldScale::Paper,
                    _ => return Err(bad("not tiny, small or paper")),
                })
            }
            "--rounds" => args.rounds = Some(value.parse().map_err(|_| bad("not a count"))?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| {
        if std::env::var_os("FBS_THREADS").is_some() {
            return Err("FBS_THREADS is set and would override every workload's \
                        fixed worker count: unset it"
                .to_string());
        }
        if args.child {
            child(&args)
        } else {
            parent(&args)
        }
    }) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn required<T: Clone>(v: &Option<T>, flag: &str) -> Result<T, String> {
    v.clone().ok_or_else(|| format!("missing {flag}"))
}

/// One campaign, in a process of its own: prints `metric <name> <value>`
/// lines and the dataset digests for the parent.
fn child(args: &Args) -> Result<(), String> {
    let workload = required(&args.workload, "--workload")?;
    let plan = Plan::new(workload, args.scale, args.rounds)?;
    let dir = required(&args.work_dir, "--work-dir")?;
    let outcome = campaign::run(
        &plan,
        required(&args.seed, "--seed")?,
        &dir,
        args.trace,
        args.reference,
    )?;
    if let Some(path) = &args.trace_out {
        std::fs::write(path, trace::render_jsonl(&outcome.spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    for (name, value) in &outcome.metrics {
        println!("metric {name} {value}");
    }
    println!("digest {:016x}", outcome.digest);
    if let Some(d) = outcome.reference_digest {
        println!("reference {d:016x}");
    }
    Ok(())
}

/// What one child campaign reported.
struct Report {
    traced: bool,
    metrics: BTreeMap<String, f64>,
    digest: Option<String>,
    reference: Option<String>,
}

fn parse_child(stdout: &str, traced: bool) -> Result<Report, String> {
    let mut report = Report {
        traced,
        metrics: BTreeMap::new(),
        digest: None,
        reference: None,
    };
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric", name, value] => {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("bad metric line {line:?}"))?;
                report.metrics.insert((*name).to_string(), v);
            }
            ["digest", d] => report.digest = Some((*d).to_string()),
            ["reference", d] => report.reference = Some((*d).to_string()),
            _ => return Err(format!("unexpected child output {line:?}")),
        }
    }
    report
        .digest
        .is_some()
        .then_some(report)
        .ok_or_else(|| "child printed no digest".to_string())
}

fn run_child(
    args: &Args,
    dir: &Path,
    traced: bool,
    reference: bool,
    trace_out: Option<&Path>,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .args(["--workload", required(&args.workload, "--workload")?.name()])
        .args(["--seed", &required(&args.seed, "--seed")?.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(dir);
    if let Some(scale) = args.scale {
        cmd.args(["--scale", scale_name(scale)]);
    }
    if let Some(rounds) = args.rounds {
        cmd.args(["--rounds", &rounds.to_string()]);
    }
    if reference {
        cmd.arg("--reference");
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a campaign: {e}"))?;
    if !out.status.success() {
        return Err(format!("campaign process failed ({})", out.status));
    }
    parse_child(&String::from_utf8_lossy(&out.stdout), traced)
}

fn scale_name(scale: WorldScale) -> &'static str {
    match scale {
        WorldScale::Tiny => "tiny",
        WorldScale::Small => "small",
        WorldScale::Paper => "paper",
    }
}

/// Runs campaigns until `--seconds` is spent, checks them, and prints the
/// medians.
fn parent(args: &Args) -> Result<(), String> {
    let workload = required(&args.workload, "--workload")?;
    let seed = required(&args.seed, "--seed")?;
    let seconds = required(&args.seconds, "--seconds")?;
    let plan = Plan::new(workload, args.scale, args.rounds)?;
    let root = required(&args.work_dir, "--work-dir")?;
    let runs = root.join(format!(
        "{}-seed{seed}-pid{}",
        workload.name(),
        std::process::id()
    ));
    let traces = root.join("traces");
    for d in [&runs, &traces] {
        std::fs::create_dir_all(d).map_err(|e| format!("creating {}: {e}", d.display()))?;
    }
    let fs = procfs::fs_type(&runs)?;
    let cfg = workload.config();
    println!(
        "# workload={} seed={seed} scale={} rounds={} threads={} nproc={} crash_at={} checkpoint_fs={fs}",
        workload.name(),
        scale_name(plan.scale),
        plan.rounds,
        cfg.threads,
        workload::nproc(),
        plan.crash_at.map_or("none".to_string(), |c| c.to_string()),
    );
    if plan.policy.is_some() && fs == "tmpfs" {
        println!("# warning: checkpoints on tmpfs, where fsync costs nothing");
    }

    let start = Instant::now();
    let mut reports: Vec<Report> = Vec::new();
    let mut failures = 0usize;
    let mut walls: Vec<f64> = Vec::new();
    let min = if args.trace {
        MIN_TRACED_CAMPAIGNS
    } else {
        MIN_CAMPAIGNS
    };
    for i in 0.. {
        let typical = stats::median(&walls).unwrap_or(0.0);
        if i >= min && start.elapsed().as_secs_f64() + typical > seconds {
            break;
        }
        let traced = args.trace && i % 2 == 0;
        let reference = args.trace && i == 0 && plan.policy.is_some();
        let dir = runs.join(format!("campaign-{i}"));
        let trace_out =
            traced.then(|| traces.join(format!("{}-seed{seed}-{i}.jsonl", workload.name())));
        let t = Instant::now();
        let result = run_child(args, &dir, traced, reference, trace_out.as_deref());
        walls.push(t.elapsed().as_secs_f64());
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("removing {}: {e}", dir.display()))?;
        }
        match result {
            Ok(r) => {
                println!(
                    "# campaign {i} traced={traced} campaign_s={} cpu_s={}",
                    r.metrics.get("campaign_s").copied().unwrap_or(f64::NAN),
                    r.metrics.get("cpu_s").copied().unwrap_or(f64::NAN),
                );
                reports.push(r)
            }
            Err(e) => {
                eprintln!("perfbench: campaign {i}: {e}");
                failures += 1;
            }
        }
    }
    std::fs::remove_dir_all(&runs).map_err(|e| format!("removing {}: {e}", runs.display()))?;

    let attempted = u64::from(plan.rounds) * (reports.len() + failures) as u64;
    let mut failed = u64::from(plan.rounds) * failures as u64;
    let check = check_outputs(&reports, args.trace && plan.policy.is_some());
    if let Err(e) = &check {
        eprintln!("perfbench: output check failed: {e}");
        failed = attempted;
    }
    if reports.is_empty() {
        return Err("no campaign completed".to_string());
    }
    println!(
        "# campaigns={} failed_campaigns={failures} blocks={} digest={}",
        reports.len() + failures,
        reports[0]
            .metrics
            .get("world.blocks")
            .copied()
            .unwrap_or(0.0),
        reports[0].digest.as_deref().unwrap_or("-"),
    );
    let metrics = aggregate(&reports, args.trace, plan.policy.is_some());
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    if args.trace {
        for what in UNMEASURED {
            println!("# not measured from outside: {what}");
        }
    }
    let exported: Vec<String> = metrics
        .iter()
        .filter(|(name, _, _)| {
            CATALOG
                .iter()
                .any(|(n, _, c)| n == name && *c != Class::Durable)
        })
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        exported.join(", ")
    );
    Ok(())
}

/// Every campaign of a run used the same world and config, so every
/// exported dataset must be the same; a durable traced run must also
/// match its uninterrupted in-memory reference.
fn check_outputs(reports: &[Report], needs_reference: bool) -> Result<(), String> {
    let Some(first) = reports.first() else {
        return Ok(());
    };
    if let Some(other) = reports.iter().find(|r| r.digest != first.digest) {
        return Err(format!(
            "dataset digests differ between campaigns: {:?} vs {:?}",
            first.digest, other.digest
        ));
    }
    if needs_reference && first.reference != first.digest {
        return Err(format!(
            "crash-resumed dataset {:?} differs from the uninterrupted in-memory run {:?}",
            first.digest, first.reference
        ));
    }
    Ok(())
}

/// Medians over campaigns: untraced ones for end-to-end metrics, traced
/// ones for per-layer metrics, and the traced/untraced `campaign_s` ratio
/// for the tracing overhead.
fn aggregate(
    reports: &[Report],
    trace: bool,
    durable: bool,
) -> Vec<(&'static str, f64, &'static str)> {
    let median_of = |traced: bool, name: &str| -> Option<f64> {
        let values: Vec<f64> = reports
            .iter()
            .filter(|r| r.traced == traced)
            .filter_map(|r| r.metrics.get(name).copied())
            .collect();
        stats::median(&values)
    };
    let mut out = Vec::new();
    for &(name, unit, class) in CATALOG {
        let value = match (class, trace) {
            (Class::EndToEnd, false) => median_of(false, name),
            (Class::Durable, false) if durable => median_of(false, name),
            (Class::Layer, true) if name == "trace.overhead_pct" => {
                match (
                    median_of(true, "campaign_s"),
                    median_of(false, "campaign_s"),
                ) {
                    (Some(t), Some(u)) => Some((t / u - 1.0) * 100.0),
                    _ => None,
                }
            }
            (Class::Layer, true) => median_of(true, name),
            _ => None,
        };
        if let Some(v) = value {
            out.push((name, v, unit));
        }
    }
    out
}
