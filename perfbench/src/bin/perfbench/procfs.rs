//! Linux OS counters read from `/proc`, around calls into the program.
//!
//! Every reader returns an error string instead of panicking: a kernel
//! without one of these files makes the benchmark fail, not lie.

use std::path::Path;

/// `/proc/self/stat` reports CPU time in USER_HZ ticks, which Linux fixes
/// at 100 per second for user space on every architecture it supports.
const TICKS_PER_SEC: f64 = 100.0;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// On-CPU and run-queue time of the calling thread. The kernel brings a
/// running thread's counters up to date only at a scheduler tick or a
/// context switch, so a reading is exact to one tick (4 ms at HZ=250):
/// fine over a campaign, too coarse for a single round.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sched {
    /// Nanoseconds spent running on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub rq_ns: u64,
}

impl Sched {
    /// Reads `/proc/thread-self/schedstat`.
    pub fn now() -> Result<Sched, String> {
        let text = read("/proc/thread-self/schedstat")?;
        let mut it = text.split_whitespace().map(str::parse::<u64>);
        match (it.next(), it.next()) {
            (Some(Ok(cpu_ns)), Some(Ok(rq_ns))) => Ok(Sched { cpu_ns, rq_ns }),
            _ => Err(format!("unparseable schedstat {text:?}")),
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            rq_ns: self.rq_ns.saturating_sub(earlier.rq_ns),
        }
    }
}

/// User plus system CPU seconds of the whole process, exited threads
/// included, from `/proc/self/stat` (10 ms resolution).
pub fn process_cpu_s() -> Result<f64, String> {
    let text = read("/proc/self/stat")?;
    // The command name may hold spaces; fields resume after its last ')'.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("unparseable stat {text:?}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("stat field {} missing", i + 3))
    };
    Ok((tick(11)? + tick(12)?) as f64 / TICKS_PER_SEC)
}

/// Byte and call counters of `/proc/self/io`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Io {
    /// Bytes passed to read-like calls.
    pub rchar: u64,
    /// Bytes passed to write-like calls.
    pub wchar: u64,
    /// Write-like system calls.
    pub syscw: u64,
}

impl Io {
    /// Reads `/proc/self/io`.
    pub fn now() -> Result<Io, String> {
        let text = read("/proc/self/io")?;
        let field = |name: &str| -> Result<u64, String> {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| format!("/proc/self/io has no {name}"))
        };
        Ok(Io {
            rchar: field("rchar")?,
            wchar: field("wchar")?,
            syscw: field("syscw")?,
        })
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(self, earlier: Io) -> Io {
        Io {
            rchar: self.rchar.saturating_sub(earlier.rchar),
            wchar: self.wchar.saturating_sub(earlier.wchar),
            syscw: self.syscw.saturating_sub(earlier.syscw),
        }
    }
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in bytes.
pub fn status_bytes(field: &str) -> Result<u64, String> {
    let text = read("/proc/self/status")?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| format!("/proc/self/status has no {field}"))
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/self/mountinfo` (`tmpfs` makes fsync free).
pub fn fs_type(path: &Path) -> Result<String, String> {
    let path = path
        .canonicalize()
        .map_err(|e| format!("resolving {}: {e}", path.display()))?;
    let text = read("/proc/self/mountinfo")?;
    let mut best: Option<(usize, String)> = None;
    for line in text.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (
            left.split_whitespace().nth(4),
            right.split_whitespace().next(),
        ) else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
        .ok_or_else(|| format!("no mount holds {}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_and_grow() {
        let s0 = Sched::now().unwrap();
        let io0 = Io::now().unwrap();
        // The kernel updates a running thread's counter once per tick
        // (4 ms at HZ=250), so spin across several ticks.
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        assert!(Sched::now().unwrap().since(s0).cpu_ns > 0);
        assert!(
            Io::now().unwrap().since(io0).rchar > 0,
            "reading /proc counts"
        );
        assert!(process_cpu_s().unwrap() >= 0.0);
        assert!(status_bytes("VmHWM").unwrap() >= status_bytes("VmRSS").unwrap() / 2);
        assert!(!fs_type(Path::new(".")).unwrap().is_empty());
    }
}
