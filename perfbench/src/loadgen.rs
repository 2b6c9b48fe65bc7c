//! Open-loop load generator: at most [`CONNS`] requests in flight, each
//! timed from the moment it was due, over `lrgcn_serve::chaos::request`.

use crate::schedule::{Op, Req, Schedule, K};
use lrgcn_serve::chaos::{self, ChaosResponse};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Generator threads, each with one connection in flight.
pub const CONNS: usize = 2;
/// Per-request socket budget; a request past it is a transport error.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// What happened to one scheduled request.
#[derive(Debug)]
pub struct Outcome {
    pub op: Op,
    /// How late the generator sent it, in ns past its due time.
    pub late_ns: u64,
    /// From due time to the last response byte, in ns.
    pub latency_ns: u64,
    pub result: Result<ChaosResponse, String>,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        matches!(&self.result, Ok(r) if r.status == 200)
    }

    pub fn body(&self) -> Option<&str> {
        match &self.result {
            Ok(r) if r.status == 200 => Some(&r.body),
            _ => None,
        }
    }

    pub fn latency_ms(&self) -> f64 {
        self.latency_ns as f64 / 1e6
    }
}

/// Event-batch acknowledgements, so a read can wait for the write it
/// depends on. A failed write is marked too: its dependent read then
/// fails visibly instead of waiting forever.
pub struct Acks {
    done: Mutex<Vec<bool>>,
    cv: Condvar,
}

impl Acks {
    pub fn new(n_batches: usize) -> Acks {
        Acks {
            done: Mutex::new(vec![false; n_batches]),
            cv: Condvar::new(),
        }
    }

    fn mark(&self, id: usize) {
        self.done.lock().expect("ack table poisoned")[id] = true;
        self.cv.notify_all();
    }

    fn wait(&self, id: usize) {
        let mut done = self.done.lock().expect("ack table poisoned");
        while !done[id] {
            done = self.cv.wait(done).expect("ack table poisoned");
        }
    }
}

fn send(addr: SocketAddr, sched: &Schedule, op: Op) -> Result<ChaosResponse, String> {
    match op {
        Op::Recs { user, .. } => chaos::request(
            addr,
            "GET",
            &format!("/recs/{user}?k={K}"),
            &[],
            b"",
            TIMEOUT,
        ),
        Op::Events { id } => chaos::request(
            addr,
            "POST",
            "/events",
            &[],
            sched.events_body(id).as_bytes(),
            TIMEOUT,
        ),
        Op::Healthz => chaos::request(addr, "GET", "/healthz", &[], b"", TIMEOUT),
    }
}

/// Runs `reqs` open-loop: each is sent at its due time (offset from now) or
/// as soon as one of the [`CONNS`] generator threads is free. Returns the
/// outcomes in schedule order and the wall time from start to last reply.
pub fn run(
    addr: SocketAddr,
    sched: &Schedule,
    reqs: &[Req],
    acks: &Acks,
) -> (Vec<Outcome>, Duration) {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let mut slots: Vec<(usize, Outcome)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(req) = reqs.get(i) else { break };
                        let due = start + Duration::from_nanos(req.due_ns);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        if let Op::Recs {
                            after: Some(id), ..
                        } = req.op
                        {
                            acks.wait(id);
                        }
                        let sent = Instant::now();
                        let result = send(addr, sched, req.op);
                        let done = Instant::now();
                        if let Op::Events { id } = req.op {
                            acks.mark(id);
                        }
                        mine.push((
                            i,
                            Outcome {
                                op: req.op,
                                late_ns: sent.saturating_duration_since(due).as_nanos() as u64,
                                latency_ns: done.saturating_duration_since(due).as_nanos() as u64,
                                result,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load generator thread panicked"))
            .collect()
    });
    let wall = Instant::now().saturating_duration_since(start);
    slots.sort_by_key(|(i, _)| *i);
    (slots.into_iter().map(|(_, o)| o).collect(), wall)
}

/// Sequential-per-thread warm-up of `users` (distinct ids, so the two
/// threads never race on one cache key).
pub fn warm(addr: SocketAddr, sched: &Schedule, users: &[u32], acks: &Acks) -> Vec<Outcome> {
    let reqs: Vec<Req> = users
        .iter()
        .map(|&user| Req {
            due_ns: 0,
            op: Op::Recs { user, after: None },
        })
        .collect();
    run(addr, sched, &reqs, acks).0
}

/// Phase request accounting: sent, ok, and failures by kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub shed_503: u64,
    pub client_4xx: u64,
    pub other_status: u64,
    pub transport: u64,
}

impl Tally {
    pub fn of(outcomes: &[Outcome]) -> Tally {
        let mut t = Tally::default();
        for o in outcomes {
            t.sent += 1;
            match &o.result {
                Ok(r) if r.status == 200 => t.ok += 1,
                Ok(r) if r.status == 503 => t.shed_503 += 1,
                Ok(r) if (400..500).contains(&r.status) => t.client_4xx += 1,
                Ok(_) => t.other_status += 1,
                Err(_) => t.transport += 1,
            }
        }
        t
    }

    pub fn failed(&self) -> u64 {
        self.sent - self.ok
    }

    pub fn add(&mut self, o: Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.shed_503 += o.shed_503;
        self.client_4xx += o.client_4xx;
        self.other_status += o.other_status;
        self.transport += o.transport;
    }
}

/// Latencies (ms) of the outcomes whose op matches `pick`.
pub fn latencies_ms(outcomes: &[Outcome], pick: fn(&Op) -> bool) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| pick(&o.op))
        .map(Outcome::latency_ms)
        .collect()
}

pub fn is_recs(op: &Op) -> bool {
    matches!(op, Op::Recs { .. })
}

pub fn is_events(op: &Op) -> bool {
    matches!(op, Op::Events { .. })
}

pub fn is_probe(op: &Op) -> bool {
    matches!(op, Op::Healthz)
}
