//! Round-window schedules: the one shape behind every scheduled fault.
//!
//! Wire faults, feed faults, shard faults and darknet outages all say "this
//! payload applies over these rounds". A [`Window`] is one such entry over
//! a half-open, non-empty round range; a [`Schedule`] is an ordered list of
//! windows and owns everything the four kinds share: the null check,
//! validation (range and payload) and active-window lookup. How covering
//! windows combine stays with each payload:
//!
//! * wire faults ([`crate::FaultPlan`]): worst case over every covering
//!   window, on top of the plan's baseline;
//! * feed faults ([`crate::FeedFaultPlan`]): worst case over the covering
//!   windows for the queried feed;
//! * shard faults ([`crate::ShardFaultPlan`]): the first covering window
//!   that strikes wins;
//! * darknet outages ([`crate::IbrConfig::dark_windows`]): any covering
//!   window makes the round dark.

use fbs_types::{FbsError, Round};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// What a [`Window`] carries.
pub trait Payload {
    /// Names the schedule kind in validation errors ("fault window …").
    const KIND: &'static str;

    /// Whether the payload injects nothing. A schedule whose windows all
    /// carry null payloads is itself null.
    fn is_null(&self) -> bool {
        false
    }

    /// Validates the payload's own parameters; the error is the reason,
    /// which the schedule prefixes with the window's name.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Darknet outages carry no parameters: the window alone is the fault.
impl Payload for () {
    const KIND: &'static str = "ibr dark";
}

/// Rejects a probability outside `0..=1` (or not finite), naming it.
pub(crate) fn check_probability(name: &str, p: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(format!("{name}={p} outside 0..=1"))
    }
}

/// One scheduled window: `payload` applies over rounds `start..end`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Window<P> {
    /// Human-readable label ("march-shelling-loss"), named by validation
    /// errors.
    pub name: String,
    /// First covered round (inclusive).
    pub start: u32,
    /// First round past the window (exclusive); must exceed `start`.
    pub end: u32,
    /// What the window applies.
    pub payload: P,
}

impl<P> Window<P> {
    /// Builds a window covering a round range.
    pub fn over_rounds(name: impl Into<String>, rounds: Range<u32>, payload: P) -> Self {
        Window {
            name: name.into(),
            start: rounds.start,
            end: rounds.end,
            payload,
        }
    }

    /// The rounds the window covers (half-open).
    pub fn rounds(&self) -> Range<u32> {
        self.start..self.end
    }

    /// Whether the window covers `round`.
    pub fn covers(&self, round: Round) -> bool {
        self.rounds().contains(&round.0)
    }
}

/// An ordered list of windows; serializes as a plain array of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Schedule<P> {
    /// The windows, in declaration order (first-match payloads rely on it).
    pub windows: Vec<Window<P>>,
}

impl<P> Default for Schedule<P> {
    fn default() -> Self {
        Schedule {
            windows: Vec::new(),
        }
    }
}

impl<P> From<Vec<Window<P>>> for Schedule<P> {
    fn from(windows: Vec<Window<P>>) -> Self {
        Schedule { windows }
    }
}

impl<P> Schedule<P> {
    /// A schedule with no windows.
    pub fn none() -> Self {
        Schedule::default()
    }

    /// The windows covering `round`, in declaration order.
    pub fn active(&self, round: Round) -> impl Iterator<Item = &Window<P>> {
        self.windows.iter().filter(move |w| w.covers(round))
    }

    /// Whether any window covers `round`.
    pub fn covers(&self, round: Round) -> bool {
        self.active(round).next().is_some()
    }
}

impl<P: Payload> Schedule<P> {
    /// Whether the schedule injects nothing anywhere.
    pub fn is_null(&self) -> bool {
        self.windows.iter().all(|w| w.payload.is_null())
    }

    /// Validates every window: a non-empty round range and a valid
    /// payload. Errors name the offending window.
    pub fn validate(&self) -> fbs_types::Result<()> {
        for w in &self.windows {
            let fail =
                |e: String| FbsError::config(format!("{} window {:?}: {e}", P::KIND, w.name));
            if w.rounds().is_empty() {
                return Err(fail(format!(
                    "empty or inverted round range {}..{}",
                    w.start, w.end
                )));
            }
            w.payload.validate().map_err(fail)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        FaultIntensity, FeedFault, FeedFaultIntensity, IbrConfig, ShardFault, ShardFaultKind,
    };
    use fbs_types::FeedKind;

    fn feed(drop: f64) -> FeedFault {
        FeedFault {
            feed: FeedKind::Bgp,
            intensity: FeedFaultIntensity {
                drop,
                ..FeedFaultIntensity::default()
            },
        }
    }

    fn wire(reply_loss: f64) -> FaultIntensity {
        FaultIntensity {
            reply_loss,
            ..FaultIntensity::default()
        }
    }

    /// A one-window schedule over `start..end`, inverted ranges included.
    fn one<P>(name: &str, start: u32, end: u32, payload: P) -> Schedule<P> {
        vec![Window {
            name: name.into(),
            start,
            end,
            payload,
        }]
        .into()
    }

    /// Asserts the schedule fails validation with an error naming `name`.
    fn rejects<P: Payload>(schedule: &Schedule<P>, name: &str) {
        let err = schedule.validate().expect_err("must not validate");
        assert!(err.to_string().contains(&format!("{name:?}")), "{err}");
    }

    #[test]
    fn windows_cover_their_half_open_range() {
        let w = Window::over_rounds("w", 100..140, ());
        assert_eq!(w.rounds(), 100..140);
        assert!(!w.covers(Round(99)));
        assert!(w.covers(Round(100)));
        assert!(w.covers(Round(139)));
        assert!(!w.covers(Round(140)));
        let cfg = IbrConfig::with_dark_windows(vec![w]);
        assert!(!cfg.dark_at(Round(99)) && cfg.dark_at(Round(100)));
        assert!(cfg.dark_at(Round(139)) && !cfg.dark_at(Round(140)));
        assert!(!IbrConfig::default().dark_at(Round(100)));
        // Lookup keeps declaration order.
        let s = Schedule {
            windows: vec![
                Window::over_rounds("b", 5..10, 2),
                Window::over_rounds("a", 0..20, 1),
                Window::over_rounds("c", 12..13, 3),
            ],
        };
        let hits = |r| s.active(Round(r)).map(|w| w.payload).collect::<Vec<u32>>();
        assert_eq!(hits(7), vec![2, 1]);
        assert_eq!(hits(12), vec![1, 3]);
        assert!(hits(20).is_empty() && !s.covers(Round(20)));
    }

    #[test]
    fn every_kind_rejects_empty_or_inverted_ranges_by_name() {
        rejects(&one("inv", 10, 5, wire(0.1)), "inv");
        rejects(&one("empty", 7, 7, feed(0.1)), "empty");
        let panic = ShardFault::scripted(Vec::new(), 1, ShardFaultKind::Panic);
        rejects(&one("shard-empty", 10, 10, panic), "shard-empty");
        rejects(&one("dark-inv", 6, 5, ()), "dark-inv");
        let empty_dark = IbrConfig::with_dark_windows(vec![Window::over_rounds("d", 5..5, ())]);
        assert!(empty_dark.validate().is_err());
    }

    #[test]
    fn payload_errors_name_the_window() {
        rejects(&one("loss", 0, 10, wire(1.5)), "loss");
        rejects(&one("nan", 0, 10, wire(f64::NAN)), "nan");
        rejects(&one("drop", 0, 10, feed(-0.5)), "drop");
        let coin = |probability, attempts| ShardFault {
            probability,
            attempts,
            ..ShardFault::scripted(Vec::new(), 1, ShardFaultKind::Panic)
        };
        assert!(one("ok", 0, 10, coin(1.0, 1)).validate().is_ok());
        rejects(&one("p", 0, 10, coin(1.5, 1)), "p");
        rejects(&one("never", 0, 10, coin(1.0, 0)), "never");
        assert!(check_probability("x", 0.0).is_ok() && check_probability("x", 1.0).is_ok());
        assert!(check_probability("x", f64::INFINITY).is_err());
    }

    #[test]
    fn null_schedules() {
        assert!(Schedule::<FaultIntensity>::none().validate().is_ok());
        assert!(Schedule::<FaultIntensity>::none().is_null());
        assert!(Schedule::<ShardFault>::none().is_null());
        // Windows of null payloads inject nothing; any shard window does.
        assert!(one("calm", 0, 10, wire(0.0)).is_null());
        assert!(!one("rough", 0, 10, wire(0.2)).is_null());
        assert!(one("calm", 0, 10, feed(0.0)).is_null());
        let jitter = ShardFault::scripted(Vec::new(), 1, ShardFaultKind::Jitter { extra_ns: 1 });
        assert!(!one("jitter", 0, 10, jitter).is_null());
    }
}
