//! The open-loop generator: requests leave on a fixed schedule whatever the
//! server does, latency counts from the *scheduled* send time, and the
//! generator reports how late it ran.  One thread drives every connection, so
//! on the 2-core reference box the server keeps a core to itself.  The loop
//! is written against two small traits so the self-tests can drive it with a
//! simulated wire and clock.

/// A send more than this late counts into `gen.late_share`.
pub const LATE_NS: u64 = 100_000;
/// A send more than this late counts against the step's validity.  The
/// reference box cannot wake a thread to within [`LATE_NS`] (a 1 ns sleep
/// returns after 60-150 µs, and a spinning generator is preempted for whole
/// timeslices by the server threads it shares two cores with), so validity is
/// judged at twice the server's own idle sleep instead; lateness is charged
/// to the late requests' latency either way.
pub const VERY_LATE_NS: u64 = 1_000_000;
/// Latency limit a ladder step must meet at its 99th percentile.
pub const P99_LIMIT_US: f64 = 5_000.0;
/// Completions in a step's tail window must reach this share of the
/// arrivals scheduled in it, or the backlog is growing.
pub const TAIL_COMPLETION_SHARE: f64 = 0.98;
/// A step whose generator ran very late on more than this share of its sends
/// is invalid: it did not offer the load it claims.
pub const MAX_LATE_SHARE: f64 = 0.01;
/// Requests in flight per connection at most.
pub const MAX_IN_FLIGHT: usize = 4096;

/// Time source of the loop.
pub trait Clock {
    /// Nanoseconds since the step started.
    fn now_ns(&mut self) -> u64;
    /// Called when there is nothing to do until `until_ns`.
    fn idle(&mut self, until_ns: u64);
}

/// The connection under test.
pub trait Wire {
    /// Sends request number `index` (numbers are dense from 0).
    fn send(&mut self, index: u64);
    /// Collects the numbers of requests that completed since the last call.
    fn poll(&mut self, done: &mut Vec<u64>);
}

/// What one connection saw during one step.
#[derive(Clone, Debug, Default)]
pub struct StepStats {
    pub sent: u64,
    pub completed: u64,
    /// Sends more than [`LATE_NS`] behind their due time.
    pub late: u64,
    /// Sends more than [`VERY_LATE_NS`] behind their due time.
    pub very_late: u64,
    pub max_late_ns: u64,
    /// Arrivals scheduled inside the tail window, and completions observed
    /// inside it.
    pub tail_scheduled: u64,
    pub tail_completed: u64,
    /// Latency of every completed request, from its due time, in ns.
    pub latencies: Vec<u32>,
    /// When the last completion was observed.
    pub end_ns: u64,
}

impl StepStats {
    pub fn late_share(&self) -> f64 {
        self.late as f64 / self.sent.max(1) as f64
    }

    pub fn very_late_share(&self) -> f64 {
        self.very_late as f64 / self.sent.max(1) as f64
    }
}

/// Runs one step from one generator thread over all `wires`: arrival `i` is
/// due at `i * interval_ns` and goes to connection `i % wires.len()`; nothing
/// is sent after `dwell_ns`; in-flight requests are then drained for at most
/// `drain_ns`.  The tail window is the last third of the dwell.
pub fn run_step<W: Wire>(
    wires: &mut [W],
    clock: &mut impl Clock,
    interval_ns: u64,
    dwell_ns: u64,
    drain_ns: u64,
) -> StepStats {
    let scheduled = dwell_ns / interval_ns;
    let tail_from = dwell_ns - dwell_ns / 3;
    let mut stats = StepStats {
        tail_scheduled: scheduled - tail_from.div_ceil(interval_ns),
        ..StepStats::default()
    };
    let conns = wires.len() as u64;
    let mut in_flight = vec![0usize; wires.len()];
    let mut done = Vec::new();
    let mut next = 0u64;
    loop {
        let mut now = clock.now_ns();
        let sending = now < dwell_ns && next < scheduled;
        let mut busy = false;
        while sending
            && next * interval_ns <= now
            && in_flight[(next % conns) as usize] < MAX_IN_FLIGHT
        {
            let late = now - next * interval_ns;
            stats.late += (late > LATE_NS) as u64;
            stats.very_late += (late > VERY_LATE_NS) as u64;
            stats.max_late_ns = stats.max_late_ns.max(late);
            wires[(next % conns) as usize].send(next);
            in_flight[(next % conns) as usize] += 1;
            next += 1;
            stats.sent += 1;
            busy = true;
            now = clock.now_ns();
            if now >= dwell_ns {
                break;
            }
        }
        for (wire, in_flight) in wires.iter_mut().zip(&mut in_flight) {
            done.clear();
            wire.poll(&mut done);
            if done.is_empty() {
                continue;
            }
            busy = true;
            now = clock.now_ns();
            for &index in &done {
                stats
                    .latencies
                    .push(crate::stats::sample_ns((now - index * interval_ns) as u128));
                if (tail_from..dwell_ns).contains(&now) {
                    stats.tail_completed += 1;
                }
            }
            *in_flight -= done.len();
            stats.completed += done.len() as u64;
            stats.end_ns = now;
        }
        if !sending && (stats.sent == stats.completed || now >= dwell_ns + drain_ns) {
            break;
        }
        if !busy {
            clock.idle(if sending {
                next * interval_ns
            } else {
                now + 50_000
            });
        }
    }
    stats
}

/// Verdict on one ladder step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    /// p99 above [`P99_LIMIT_US`].
    Slow,
    /// Tail completions below [`TAIL_COMPLETION_SHARE`] of tail arrivals.
    Backlog,
    /// The generator ran more than [`VERY_LATE_NS`] late on more than
    /// [`MAX_LATE_SHARE`] of its sends.
    Invalid,
    /// Requests failed, timed out or were never answered.
    Failed,
}

/// Judges one step from its merged stats, its p99 and its failure count.
pub fn judge(stats: &StepStats, p99_us: f64, failed: u64) -> Verdict {
    if failed > 0 || stats.completed < stats.sent {
        Verdict::Failed
    } else if (stats.tail_completed as f64) < TAIL_COMPLETION_SHARE * stats.tail_scheduled as f64 {
        Verdict::Backlog
    } else if stats.very_late_share() > MAX_LATE_SHARE {
        Verdict::Invalid
    } else if p99_us > P99_LIMIT_US {
        Verdict::Slow
    } else {
        Verdict::Pass
    }
}

/// The step `ops_per_s` is read from: the highest passing step below the
/// first step that did not pass.
pub fn highest_passing(verdicts: &[Verdict]) -> Option<usize> {
    verdicts
        .iter()
        .take_while(|v| **v == Verdict::Pass)
        .count()
        .checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// Simulated time shared by the wire and the clock.
    #[derive(Clone)]
    struct SimTime(Rc<Cell<u64>>);

    struct SimClock(SimTime);

    impl Clock for SimClock {
        fn now_ns(&mut self) -> u64 {
            // Every look at the clock costs 100 ns, so loops make progress.
            self.0 .0.set(self.0 .0.get() + 100);
            self.0 .0.get()
        }
        fn idle(&mut self, until_ns: u64) {
            // A polite spin: at most 1 µs passes before the loop looks again.
            let now = self.0 .0.get();
            self.0 .0.set(now + until_ns.saturating_sub(now).min(1_000));
        }
    }

    /// A server that answers `service_ns` after a request was sent; sending
    /// request `stall_at` blocks the generator for `stall_ns`.
    struct SimWire {
        time: SimTime,
        service_ns: u64,
        stall_at: u64,
        stall_ns: u64,
        pending: VecDeque<(u64, u64)>,
    }

    impl Wire for SimWire {
        fn send(&mut self, index: u64) {
            if index == self.stall_at {
                self.time.0.set(self.time.0.get() + self.stall_ns);
            }
            self.pending
                .push_back((self.time.0.get() + self.service_ns, index));
        }
        fn poll(&mut self, done: &mut Vec<u64>) {
            while self
                .pending
                .front()
                .is_some_and(|(at, _)| *at <= self.time.0.get())
            {
                done.push(self.pending.pop_front().unwrap().1);
            }
        }
    }

    fn simulate(service_ns: u64, stall_at: u64, stall_ns: u64) -> StepStats {
        let time = SimTime(Rc::new(Cell::new(0)));
        let mut wire = SimWire {
            time: time.clone(),
            service_ns,
            stall_at,
            stall_ns,
            pending: VecDeque::new(),
        };
        // 10 k/s for 100 ms: 1000 arrivals, 100 µs apart.
        run_step(
            std::slice::from_mut(&mut wire),
            &mut SimClock(time),
            100_000,
            100_000_000,
            1_000_000_000,
        )
    }

    #[test]
    fn quiet_step_measures_the_service_time_and_runs_on_time() {
        let stats = simulate(20_000, u64::MAX, 0);
        assert_eq!((stats.sent, stats.completed), (1000, 1000));
        assert_eq!(stats.late, 0);
        assert!(stats.max_late_ns < 1_000);
        let mut lat = stats.latencies.clone();
        let (p50, p99) = crate::stats::p50_p99_us(&mut lat);
        assert!(
            (20.0..22.0).contains(&p50) && (20.0..22.0).contains(&p99),
            "p50 {p50} p99 {p99}"
        );
        // Arrivals 667..1000 are scheduled in the last third and all complete in it
        // but the very last (it completes just after the dwell ends).
        assert_eq!(stats.tail_scheduled, 333);
        assert!(stats.tail_completed >= 332);
        assert_eq!(judge(&stats, p99, 0), Verdict::Pass);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_behind_it() {
        // The generator is held for 5 ms while sending request 200.
        let stats = simulate(20_000, 200, 5_000_000);
        assert_eq!(stats.completed, 1000);
        // Requests due during the stall (about 50 of them) leave late, and
        // their latency is counted from when they were due: the worst one
        // waited the whole stall.
        assert!(
            (40..=60).contains(&stats.late),
            "late sends: {}",
            stats.late
        );
        assert!(
            (4_900_000..5_100_000).contains(&stats.max_late_ns),
            "max late {}",
            stats.max_late_ns
        );
        let worst = *stats.latencies.iter().max().unwrap() as u64;
        assert!(worst >= 5_000_000, "worst latency {worst} hides the stall");
        assert!(stats.late_share() > MAX_LATE_SHARE);
        // About 40 of them were more than 1 ms late: 4% of the sends.
        assert!(
            (30..=50).contains(&stats.very_late),
            "very late sends: {}",
            stats.very_late
        );
        assert_eq!(judge(&stats, 100.0, 0), Verdict::Invalid);
    }

    #[test]
    fn a_server_slower_than_the_schedule_shows_as_backlog() {
        // 30 ms service time never finishes the tail arrivals inside the tail:
        // everything is in flight at once, well under the in-flight cap.
        let stats = simulate(30_000_000, u64::MAX, 0);
        assert_eq!(stats.completed, 1000, "the drain collects them");
        assert!(
            stats.tail_completed < stats.tail_scheduled * 98 / 100 || stats.tail_completed <= 333
        );
        let mut lat = stats.latencies.clone();
        let (_, p99) = crate::stats::p50_p99_us(&mut lat);
        assert!(p99 > P99_LIMIT_US);
        assert_ne!(judge(&stats, p99, 0), Verdict::Pass);
    }

    #[test]
    fn ladder_rule() {
        use Verdict::*;
        let ok = StepStats {
            sent: 1000,
            completed: 1000,
            tail_scheduled: 333,
            tail_completed: 330,
            ..StepStats::default()
        };
        assert_eq!(judge(&ok, 4_999.0, 0), Pass);
        assert_eq!(judge(&ok, 5_001.0, 0), Slow);
        assert_eq!(judge(&ok, 100.0, 1), Failed);
        let backlog = StepStats {
            tail_completed: 320,
            ..ok.clone()
        };
        assert_eq!(judge(&backlog, 100.0, 0), Backlog);
        let unanswered = StepStats {
            completed: 999,
            ..ok.clone()
        };
        assert_eq!(judge(&unanswered, 100.0, 0), Failed);
        let late = StepStats {
            late: 500,
            very_late: 11,
            ..ok.clone()
        };
        assert_eq!(judge(&late, 100.0, 0), Invalid);
        let a_little_late = StepStats {
            late: 500,
            very_late: 10,
            ..ok.clone()
        };
        assert_eq!(judge(&a_little_late, 100.0, 0), Pass);

        assert_eq!(highest_passing(&[Pass, Pass, Pass, Pass, Slow]), Some(3));
        assert_eq!(
            highest_passing(&[Pass, Backlog, Pass]),
            Some(0),
            "a pass above a failure does not count"
        );
        assert_eq!(highest_passing(&[Invalid, Pass]), None);
        assert_eq!(highest_passing(&[Pass; 5]), Some(4));
    }
}
