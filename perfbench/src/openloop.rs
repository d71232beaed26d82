//! Load generators: an open loop that sends on a fixed schedule whatever
//! the replies do, and a closed loop whose clients wait for each reply.

use std::time::{Duration, Instant};

/// When one open-loop request was due, sent and finished, in seconds
/// from the start of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule wanted it sent.
    pub due: f64,
    /// When the generator sent it.
    pub sent: f64,
    /// When its reply was complete.
    pub done: f64,
}

impl Timing {
    /// Latency measured from the due time, so a stall also charges the
    /// wait it imposed on the requests queued behind it.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent the request.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

/// Run an open loop at `rate` requests per second for `duration`.
/// Request `i` is due `i / rate` seconds after the start and goes out on
/// connection `i % states.len()`; each connection sends its requests in
/// order, as soon as they are due or as soon as its previous reply is
/// complete, whichever is later. `send(state, i, due)` performs request
/// `i`. A connection that is still behind `grace` after the schedule
/// ends drops the rest of its requests. Returns the timing of every
/// request sent, ordered by due time, and how many were dropped.
pub fn run_open_loop<S, F>(
    rate: f64,
    states: &mut [S],
    duration: Duration,
    grace: Duration,
    send: F,
) -> (Vec<Timing>, usize)
where
    S: Send,
    F: Fn(&mut S, usize, Instant) + Sync,
{
    let connections = states.len().max(1);
    let total = (rate * duration.as_secs_f64()).floor() as usize;
    let start = Instant::now();
    let secs = |t: Instant| t.duration_since(start).as_secs_f64();
    let cutoff = start + duration + grace;
    let per_connection: Vec<(Vec<Timing>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(c, state)| {
                let send = &send;
                scope.spawn(move || {
                    let mut timings = Vec::new();
                    let mut dropped = 0;
                    for i in (c..total).step_by(connections) {
                        if Instant::now() > cutoff {
                            dropped += 1;
                            continue;
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        send(state, i, due);
                        timings.push(Timing {
                            due: secs(due),
                            sent: secs(sent),
                            done: secs(Instant::now()),
                        });
                    }
                    (timings, dropped)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an open-loop connection thread panicked"))
            .collect()
    });
    let dropped = per_connection.iter().map(|(_, d)| d).sum();
    let mut out: Vec<Timing> = per_connection.into_iter().flat_map(|(t, _)| t).collect();
    out.sort_by(|a, b| a.due.total_cmp(&b.due));
    (out, dropped)
}

/// Run a closed loop: every state's `step` runs back to back on its own
/// thread until `duration` has passed.
pub fn run_closed_loop<S, F>(states: &mut [S], duration: Duration, step: F)
where
    S: Send,
    F: Fn(&mut S) + Sync,
{
    let deadline = Instant::now() + duration;
    std::thread::scope(|scope| {
        for state in states.iter_mut() {
            let step = &step;
            scope.spawn(move || {
                while Instant::now() < deadline {
                    step(state);
                }
            });
        }
    });
}
