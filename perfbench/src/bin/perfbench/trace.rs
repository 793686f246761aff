//! Spans around the calls the benchmark makes into the program.
//!
//! A [`Tracer`] always measures the wall time of the calls it wraps (the
//! end-to-end metrics need it); only when tracing is on does it also read
//! the calling thread's scheduler counters and keep a [`Span`] per call.
//! Spans stay in memory until the process renders them at exit.

use crate::procfs::Sched;
use crate::workload::RoundKind;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The campaign round a `step_round` span covers.
    pub round: Option<u32>,
    pub kind: Option<RoundKind>,
    /// Offset from the tracer's creation.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// The calling thread's on-CPU time during the span.
    pub cpu_ns: u64,
    /// The calling thread's run-queue wait during the span.
    pub rq_ns: u64,
}

/// A call in progress.
pub struct Open {
    id: Option<usize>,
    start: Instant,
    sched: Sched,
}

impl Open {
    /// The span's index, to parent the spans inside it (`None` untraced).
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

/// Times calls and, when on, records them as spans.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Starts a span; its index is usable as a parent at once.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        round: Option<(u32, RoundKind)>,
    ) -> Result<Open, String> {
        if !self.on {
            return Ok(Open {
                id: None,
                start: Instant::now(),
                sched: Sched::default(),
            });
        }
        let sched = Sched::now()?;
        let start = Instant::now();
        self.spans.push(Span {
            name,
            parent,
            round: round.map(|(r, _)| r),
            kind: round.map(|(_, k)| k),
            start_ns: nanos(start.duration_since(self.origin)),
            dur_ns: 0,
            cpu_ns: 0,
            rq_ns: 0,
        });
        Ok(Open {
            id: Some(self.spans.len() - 1),
            start,
            sched,
        })
    }

    /// Ends a span and returns its wall time.
    pub fn end(&mut self, open: Open) -> Result<Duration, String> {
        let wall = open.start.elapsed();
        if let Some(id) = open.id {
            let sched = Sched::now()?.since(open.sched);
            let span = &mut self.spans[id];
            span.dur_ns = nanos(wall);
            span.cpu_ns = sched.cpu_ns;
            span.rq_ns = sched.rq_ns;
        }
        Ok(wall)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Renders spans as JSON lines, one object per span.
pub fn render_jsonl(spans: &[Span]) -> String {
    let opt = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"round\":{},\"kind\":{},\"start_ns\":{},\"dur_ns\":{},\"cpu_ns\":{},\"rq_ns\":{}}}",
            opt(s.parent.map(|p| p.to_string())),
            s.name,
            opt(s.round.map(|r| r.to_string())),
            opt(s.kind.map(|k| format!("\"{}\"", k.name()))),
            s.start_ns,
            s.dur_ns,
            s.cpu_ns,
            s.rq_ns,
        );
    }
    out
}
