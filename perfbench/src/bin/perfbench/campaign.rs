//! One measured campaign: set-up, the round loop (with a crash and resume
//! when durable), `finish` and `export_all`, timed from outside through
//! `fbs-core`'s public API.

use crate::procfs::{self, Io, Sched};
use crate::stats::{median, quantile};
use crate::trace::{Span, Tracer};
use crate::workload::{classify, Plan, RoundKind};
use fbs_core::checkpoint::{JOURNAL_FILE, SNAPSHOT_FILE};
use fbs_core::{export_all, Campaign, CampaignRunner};
use std::path::Path;
use std::time::Duration;

/// `(metric name, value)` pairs in catalog units.
pub type Metrics = Vec<(&'static str, f64)>;

/// What one campaign measured and produced.
pub struct Outcome {
    pub metrics: Metrics,
    /// Digest of the exported dataset.
    pub digest: u64,
    /// Digest of an uninterrupted in-memory run of the same world and
    /// config, when asked for.
    pub reference_digest: Option<u64>,
    pub spans: Vec<Span>,
}

const MB: f64 = 1e6;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-ups per campaign process. Set-up takes milliseconds at small
/// scale, so one sample would be mostly noise; the last set-up's runner
/// is the one measured.
const SETUP_REPEATS: usize = 3;

/// Wall times of one set-up.
struct SetupTimes {
    total: Duration,
    world_build: Duration,
    runner_build: Duration,
}

/// Builds the world, the campaign and its runner, timing each, then hands
/// the runner to `then` while the campaign it borrows is alive.
fn set_up<R>(
    plan: &Plan,
    seed: u64,
    ckpt: &Path,
    tr: &mut Tracer,
    then: impl FnOnce(&Campaign, CampaignRunner<'_>, &mut Tracer) -> Result<R, String>,
) -> Result<(SetupTimes, R), String> {
    let setup = tr.begin("setup", None, None)?;
    let sid = setup.id();
    let span = tr.begin("world_build", sid, None)?;
    let world = fbs_scenarios::ukraine_with_rounds(plan.scale, seed, plan.rounds)
        .into_world()
        .map_err(|e| format!("world build: {e}"))?;
    let world_build = tr.end(span)?;
    let span = tr.begin("runner_build", sid, None)?;
    let campaign =
        Campaign::new(world, plan.workload.config()).map_err(|e| format!("Campaign::new: {e}"))?;
    let runner = match plan.policy {
        Some(policy) => campaign.runner_checkpointed(ckpt, policy),
        None => campaign.runner(),
    }
    .map_err(|e| format!("runner: {e}"))?;
    let runner_build = tr.end(span)?;
    let times = SetupTimes {
        total: tr.end(setup)?,
        world_build,
        runner_build,
    };
    Ok((times, then(&campaign, runner, tr)?))
}

/// Runs `plan` on the world of `seed`, keeping checkpoint and export files
/// under `dir`. With `traced`, every call becomes a span; with
/// `reference`, the dataset is also checked against an in-memory run.
pub fn run(
    plan: &Plan,
    seed: u64,
    dir: &Path,
    traced: bool,
    reference: bool,
) -> Result<Outcome, String> {
    let ckpt = dir.join("checkpoint");
    let mut tr = Tracer::new(traced);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        setups.push(set_up(plan, seed, &ckpt, &mut tr, |_, _, _| Ok(()))?.0);
    }
    let (last, (mut metrics, digest)) =
        set_up(plan, seed, &ckpt, &mut tr, |campaign, runner, tr| {
            measure(plan, campaign, runner, tr, dir)
        })?;
    setups.push(last);
    let median_of = |f: fn(&SetupTimes) -> Duration| {
        let samples: Vec<f64> = setups.iter().map(|s| f(s).as_secs_f64()).collect();
        median(&samples).unwrap_or(0.0)
    };
    metrics.extend([
        ("setup_s", median_of(|s| s.total)),
        (
            "scenarios.world_build_ms",
            1e3 * median_of(|s| s.world_build),
        ),
        ("core.runner_build_ms", 1e3 * median_of(|s| s.runner_build)),
    ]);
    if traced {
        metrics.extend(round_metrics(tr.spans()));
    }
    let reference_digest = if reference {
        Some(reference_run(plan, seed, &dir.join("reference"))?)
    } else {
        None
    };
    Ok(Outcome {
        metrics,
        digest,
        reference_digest,
        spans: tr.into_spans(),
    })
}

/// The measured campaign: every round (with the crash and resume of a
/// durable plan), `finish` and `export_all`, then the output check.
fn measure(
    plan: &Plan,
    campaign: &Campaign,
    runner: CampaignRunner<'_>,
    tr: &mut Tracer,
    dir: &Path,
) -> Result<(Metrics, u64), String> {
    let ckpt = dir.join("checkpoint");
    let export = dir.join("export");
    let kinds = classify(campaign.world(), plan.policy.map(|p| p.snapshot_every));
    let rounds = plan.rounds;

    let cpu0 = procfs::process_cpu_s()?;
    let sched0 = Sched::now()?;
    let whole = tr.begin("campaign", None, None)?;
    let cid = whole.id();
    let mut step_io = Io::default();
    let mut resume = None;
    let mut runner = runner;
    if let (Some(crash_at), Some(policy)) = (plan.crash_at, plan.policy) {
        step_io = step_until(&mut runner, crash_at, &kinds, tr, cid)?;
        // The simulated crash: every completed round is already durable.
        drop(runner);
        let rss0 = procfs::status_bytes("VmRSS")?;
        let io0 = Io::now()?;
        let span = tr.begin("runner_resumed", cid, None)?;
        runner = campaign
            .runner_resumed(&ckpt, policy)
            .map_err(|e| format!("runner_resumed: {e}"))?;
        let wall = tr.end(span)?;
        let read = Io::now()?.since(io0);
        let hwm = procfs::status_bytes("VmHWM")?;
        if runner.completed_rounds() != crash_at {
            return Err(format!(
                "resumed at round {} after a crash at {crash_at}",
                runner.completed_rounds()
            ));
        }
        resume = Some((
            wall,
            read.rchar,
            hwm.saturating_sub(rss0),
            runner.diagnostics().replayed_rounds,
        ));
    }
    let io = step_until(&mut runner, rounds, &kinds, tr, cid)?;
    step_io = Io {
        rchar: step_io.rchar + io.rchar,
        wchar: step_io.wchar + io.wchar,
        syscw: step_io.syscw + io.syscw,
    };
    if !runner.is_done() {
        return Err(format!("the campaign is not done after {rounds} rounds"));
    }
    let span = tr.begin("finish", cid, None)?;
    let report = runner.finish().map_err(|e| format!("finish: {e}"))?;
    let finish = tr.end(span)?;
    let span = tr.begin("export_all", cid, None)?;
    export_all(&report, &export).map_err(|e| format!("export_all: {e}"))?;
    let export_wall = tr.end(span)?;
    let campaign_wall = tr.end(whole)?;
    let cpu_s = procfs::process_cpu_s()? - cpu0;
    let sched = Sched::now()?.since(sched0);
    let peak_rss = procfs::status_bytes("VmHWM")?;

    if report.round_quality.len() != rounds as usize {
        return Err(format!(
            "report holds {} round qualities for {rounds} rounds",
            report.round_quality.len()
        ));
    }
    let (digest, export_bytes) = digest_dir(&export)?;
    let wal_bytes = file_len(&ckpt.join(JOURNAL_FILE));
    let snapshot_bytes = file_len(&ckpt.join(SNAPSHOT_FILE));
    let ckpt_bytes = if ckpt.exists() { dir_bytes(&ckpt)? } else { 0 };

    let campaign_s = campaign_wall.as_secs_f64();
    let (resume_wall, resume_rchar, resume_rss, replayed) =
        resume.unwrap_or((Duration::ZERO, 0, 0, 0));
    let per_round = |v: u64| v as f64 / f64::from(rounds);
    let metrics = vec![
        ("world.blocks", campaign.world().blocks().len() as f64),
        ("campaign_s", campaign_s),
        ("cpu_s", cpu_s),
        ("peak_rss_mb", peak_rss as f64 / MB),
        ("disk_mb", ckpt_bytes as f64 / MB),
        ("resume_s", resume_wall.as_secs_f64()),
        (
            "persist.io_wait_s",
            (campaign_wall.as_nanos() as f64 - (sched.cpu_ns + sched.rq_ns) as f64).max(0.0) / 1e9,
        ),
        ("persist.wal_bytes_per_round", per_round(wal_bytes)),
        ("persist.snapshot_bytes", snapshot_bytes as f64),
        ("persist.wchar_per_round", per_round(step_io.wchar)),
        ("persist.syscw_per_round", per_round(step_io.syscw)),
        ("resume.wall_s", resume_wall.as_secs_f64()),
        ("resume.rchar_mb", resume_rchar as f64 / MB),
        ("resume.rss_delta_mb", resume_rss as f64 / MB),
        ("resume.replayed_rounds", f64::from(replayed)),
        ("exec.cpu_per_wall", cpu_s / campaign_s),
        ("exec.main_rqwait_s", sched.rq_ns as f64 / 1e9),
        ("finish.ms", ms(finish)),
        ("export.ms", ms(export_wall)),
        ("export.bytes", export_bytes as f64),
    ];
    Ok((metrics, digest))
}

/// Steps `runner` until `until` rounds are complete, one span per round
/// when tracing. Returns the process I/O counters' growth meanwhile.
fn step_until(
    runner: &mut CampaignRunner<'_>,
    until: u32,
    kinds: &[RoundKind],
    tr: &mut Tracer,
    parent: Option<usize>,
) -> Result<Io, String> {
    let io0 = Io::now()?;
    let span = tr.begin("rounds", parent, None)?;
    let pid = span.id();
    while runner.completed_rounds() < until {
        let round = runner.completed_rounds();
        let kind = kinds[round as usize];
        let open = tr.begin("step_round", pid, Some((round, kind)))?;
        let stepped = runner
            .step_round()
            .map_err(|e| format!("step_round {round}: {e}"))?;
        tr.end(open)?;
        if !stepped {
            return Err(format!("the campaign ended at round {round} of {until}"));
        }
    }
    tr.end(span)?;
    Ok(Io::now()?.since(io0))
}

/// Per-kind round-time percentiles and counts from `step_round` spans.
/// A kind with no rounds reports 0 for its times.
fn round_metrics(spans: &[Span]) -> Metrics {
    let of = |kind: RoundKind, f: fn(&Span) -> u64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.kind == Some(kind))
            .map(|s| f(s) as f64 / 1e6)
            .collect()
    };
    let q = |v: &[f64], p: f64| quantile(v, p).unwrap_or(0.0);
    let ordinary = of(RoundKind::Ordinary, |s| s.dur_ns);
    let month = of(RoundKind::Month, |s| s.dur_ns);
    let snapshot = of(RoundKind::Snapshot, |s| s.dur_ns);
    // Per-round CPU readings are tick-quantized (see `Sched`), so off-CPU
    // time is only meaningful summed over rounds: report its mean.
    let ordinary_spans = || spans.iter().filter(|s| s.kind == Some(RoundKind::Ordinary));
    let wall_ns: u64 = ordinary_spans().map(|s| s.dur_ns).sum();
    let busy_ns: u64 = ordinary_spans().map(|s| s.cpu_ns + s.rq_ns).sum();
    let offcpu_ms = wall_ns.saturating_sub(busy_ns) as f64 / 1e6 / ordinary.len().max(1) as f64;
    vec![
        ("round.ordinary_ms.p50", q(&ordinary, 0.5)),
        ("round.ordinary_ms.p90", q(&ordinary, 0.9)),
        ("round.ordinary_count", ordinary.len() as f64),
        ("round.month_ms.p50", q(&month, 0.5)),
        ("round.month_count", month.len() as f64),
        ("round.snapshot_ms.p50", q(&snapshot, 0.5)),
        ("round.snapshot_count", snapshot.len() as f64),
        ("round.ordinary_offcpu_ms.mean", offcpu_ms),
    ]
}

/// The dataset of an uninterrupted in-memory run of the same world and
/// config, digested.
fn reference_run(plan: &Plan, seed: u64, export: &Path) -> Result<u64, String> {
    let world = fbs_scenarios::ukraine_with_rounds(plan.scale, seed, plan.rounds)
        .into_world()
        .map_err(|e| format!("reference world: {e}"))?;
    let report = Campaign::new(world, plan.workload.config())
        .and_then(|c| c.run())
        .map_err(|e| format!("reference run: {e}"))?;
    export_all(&report, export).map_err(|e| format!("reference export: {e}"))?;
    Ok(digest_dir(export)?.0)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn sorted_files(dir: &Path) -> Result<Vec<std::path::PathBuf>, String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    Ok(sorted_files(dir)?.iter().map(|p| file_len(p)).sum())
}

/// FNV-1a over every file's name, length and bytes, in name order, and
/// the total byte count.
pub fn digest_dir(dir: &Path) -> Result<(u64, u64), String> {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut total = 0u64;
    for path in sorted_files(dir)? {
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        feed(name.unwrap_or_default().as_bytes());
        feed(&(bytes.len() as u64).to_le_bytes());
        feed(&bytes);
        total += bytes.len() as u64;
    }
    Ok((hash, total))
}
