//! The serving stage: `lrgcn_serve::serve` over an `Engine` opened from the
//! checkpoint the training stage wrote, driven phase by phase, with the
//! correctness checks and the per-layer replays of the traced run.

use crate::loadgen::{self, is_recs, Acks, Outcome};
use crate::measure::{us, usage, Usage};
use crate::schedule::{Op, Phase, Schedule, K};
use lrgcn_data::Dataset;
use lrgcn_obs::json::{self, Value};
use lrgcn_obs::{registry, Counter};
use lrgcn_serve::chaos;
use lrgcn_serve::{serve, Engine, EngineOptions, Scratch, ServerConfig, ServerHandle};
use lrgcn_stream::{EventLog, StreamEvent};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Server {
    pub engine: Arc<Engine>,
    pub addr: SocketAddr,
    pub events_dir: PathBuf,
    handle: ServerHandle,
}

fn engine_options(events_dir: &Path) -> EngineOptions {
    EngineOptions {
        events_dir: Some(events_dir.to_path_buf()),
        ..EngineOptions::default()
    }
}

/// Opens the engine, starts the server with its default worker count and
/// waits for the first `/healthz` 200. Returns the server and that set-up
/// time. `events_dir` must be empty: every server starts from no events.
pub fn start(ckpt: &Path, ds: &Arc<Dataset>, events_dir: &Path) -> Result<(Server, f64), String> {
    std::fs::create_dir_all(events_dir)
        .map_err(|e| format!("creating {}: {e}", events_dir.display()))?;
    let t = Instant::now();
    let engine = Arc::new(Engine::open(ckpt, ds.clone(), engine_options(events_dir))?);
    let handle = serve(
        engine.clone(),
        ServerConfig {
            events_log: Some(events_dir.to_path_buf()),
            ..ServerConfig::default()
        },
    )?;
    let addr = handle.addr();
    loop {
        match chaos::request(addr, "GET", "/healthz", &[], b"", loadgen::TIMEOUT) {
            Ok(r) if r.status == 200 => break,
            _ if t.elapsed() > loadgen::TIMEOUT => {
                handle.shutdown();
                handle.wait();
                return Err("server never answered /healthz".into());
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    let setup_s = t.elapsed().as_secs_f64();
    let server = Server {
        engine,
        addr,
        events_dir: events_dir.to_path_buf(),
        handle,
    };
    Ok((server, setup_s))
}

impl Server {
    /// Graceful shutdown; returns once every server thread has exited.
    pub fn stop(self) {
        self.handle.shutdown();
        self.handle.wait();
    }
}

/// One executed phase.
pub struct PhaseRun {
    pub name: String,
    pub rate: f64,
    pub warm: Vec<Outcome>,
    pub outcomes: Vec<Outcome>,
    pub wall: Duration,
    pub usage: Usage,
    /// `/recs` answers flagged `"cached":true`.
    pub cached_flags: u64,
    /// `serve.cache.hits` / `serve.cache.misses` registry deltas.
    pub reg_hits: u64,
    pub reg_misses: u64,
}

impl PhaseRun {
    pub fn tally(&self) -> loadgen::Tally {
        let mut t = loadgen::Tally::of(&self.warm);
        t.add(loadgen::Tally::of(&self.outcomes));
        t
    }

    pub fn recs_ms(&self) -> Vec<f64> {
        loadgen::latencies_ms(&self.outcomes, is_recs)
    }

    /// Completed requests per second of wall time.
    pub fn achieved_rps(&self) -> f64 {
        self.outcomes.iter().filter(|o| o.ok()).count() as f64 / self.wall.as_secs_f64()
    }
}

/// Warms the phase's planned users, then runs it open-loop.
pub fn run_phase(server: &Server, sched: &Schedule, phase: &Phase, acks: &Acks) -> PhaseRun {
    let warm = loadgen::warm(server.addr, sched, &phase.warm, acks);
    let (h0, m0) = (
        registry::get(Counter::ServeCacheHits),
        registry::get(Counter::ServeCacheMisses),
    );
    let u0 = usage();
    let (outcomes, wall) = loadgen::run(server.addr, sched, &phase.reqs, acks);
    let usage = usage().since(u0);
    let cached_flags = outcomes
        .iter()
        .filter(|o| is_recs(&o.op) && o.body().is_some_and(|b| b.contains("\"cached\":true")))
        .count() as u64;
    PhaseRun {
        name: phase.name.clone(),
        rate: phase.rate,
        warm,
        outcomes,
        wall,
        usage,
        cached_flags,
        reg_hits: registry::get(Counter::ServeCacheHits) - h0,
        reg_misses: registry::get(Counter::ServeCacheMisses) - m0,
    }
}

/// `GET /admin/obs`, parsed.
pub fn admin_obs(server: &Server) -> Result<Value, String> {
    let r = chaos::request(server.addr, "GET", "/admin/obs", &[], b"", loadgen::TIMEOUT)?;
    if r.status != 200 {
        return Err(format!("/admin/obs answered {}", r.status));
    }
    json::parse(&r.body).map_err(|e| format!("/admin/obs body: {e:?}"))
}

/// The `/recs` body the server must send for `items`, rendered by the same
/// encoder with the same fields.
fn recs_body(user: u32, generation: u64, cached: bool, items: &[(u32, f32)]) -> String {
    let items = Value::Arr(
        items
            .iter()
            .map(|&(it, s)| Value::obj([("item", Value::u64(it as u64)), ("score", Value::num(s))]))
            .collect(),
    );
    Value::obj([
        ("user", Value::u64(user as u64)),
        ("k", Value::u64(K as u64)),
        ("generation", Value::u64(generation)),
        ("cached", Value::Bool(cached)),
        ("items", items),
    ])
    .render()
}

/// Checks every successful `/recs` body in `outcomes` against
/// `EngineState::top_k` on the trained state (no events folded in yet).
/// Returns the number of bodies compared, or the first mismatch.
pub fn check_base_bodies<'a>(
    server: &Server,
    outcomes: impl IntoIterator<Item = &'a Outcome>,
) -> Result<u64, String> {
    let st = server.engine.state();
    let mut expected: BTreeMap<u32, Vec<(u32, f32)>> = BTreeMap::new();
    let mut n = 0;
    for o in outcomes {
        let (Op::Recs { user, .. }, Some(body)) = (o.op, o.body()) else {
            continue;
        };
        let items = match expected.entry(user) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(st.top_k(st.ds(), user, K, true)?),
        };
        let cached = body.contains("\"cached\":true");
        if body != recs_body(user, st.generation, cached, items) {
            return Err(format!("/recs/{user} differs from EngineState::top_k"));
        }
        n += 1;
    }
    Ok(n)
}

/// After the run: `/recs` for each of `users` must match `top_k_stream`
/// under the final delta.
pub fn check_final_recs(server: &Server, users: &BTreeSet<u32>) -> Result<u64, String> {
    let st = server.engine.state();
    let delta = st.delta();
    let mut scratch = Scratch::default();
    for &user in users {
        let items = st.top_k_stream(&delta, user, K, true, &mut scratch)?;
        let r = chaos::request(
            server.addr,
            "GET",
            &format!("/recs/{user}?k={K}"),
            &[],
            b"",
            loadgen::TIMEOUT,
        )?;
        let cached = r.body.contains("\"cached\":true");
        if r.status != 200 || r.body != recs_body(user, st.generation, cached, &items) {
            return Err(format!(
                "/recs/{user} after the run differs from top_k_stream (status {})",
                r.status
            ));
        }
    }
    Ok(users.len() as u64)
}

/// Events acknowledged as accepted, summed over successful `/events` acks.
pub fn acked_events<'a>(outcomes: impl IntoIterator<Item = &'a Outcome>) -> u64 {
    outcomes
        .into_iter()
        .filter(|o| matches!(o.op, Op::Events { .. }))
        .filter_map(|o| o.body())
        .filter_map(|b| json::parse(b).ok()?.get("accepted")?.as_f64())
        .map(|n| n as u64)
        .sum()
}

/// Per-call timings (µs) of the serving layers, replayed on the workload's
/// own inputs outside the server.
pub struct LayerReplay {
    pub topk_us: Vec<f64>,
    pub topk_stream_us: Vec<f64>,
    pub append_us: Vec<f64>,
    pub fold_in_us: Vec<f64>,
}

/// Replays the reads of `reads` through `EngineState::top_k_into` (trained
/// users) and `top_k_stream` (all users, final delta), and the event
/// batches of `writes` through `EventLog::append_batch` (fsync included)
/// and `Engine::fold_in` on fresh logs and a fresh engine.
pub fn replay_layers(
    server: &Server,
    sched: &Schedule,
    reads: &[&Phase],
    writes: &[&Phase],
    ckpt: &Path,
    work: &Path,
) -> Result<LayerReplay, String> {
    let st = server.engine.state();
    let delta = st.delta();
    let mut scratch = Scratch::default();
    let (mut topk_us, mut topk_stream_us) = (Vec::new(), Vec::new());
    for p in reads {
        for r in &p.reqs {
            let Op::Recs { user, .. } = r.op else {
                continue;
            };
            if (user as usize) < st.n_users {
                let t = Instant::now();
                std::hint::black_box(st.top_k_into(st.ds(), user, K, true, &mut scratch)?);
                topk_us.push(us(t.elapsed()));
            }
            let t = Instant::now();
            std::hint::black_box(st.top_k_stream(&delta, user, K, true, &mut scratch)?);
            topk_stream_us.push(us(t.elapsed()));
        }
    }
    let batches: Vec<Vec<StreamEvent>> = writes
        .iter()
        .flat_map(|p| p.reqs.iter())
        .filter_map(|r| match r.op {
            Op::Events { id } => Some(sched.stream_events(id)),
            _ => None,
        })
        .collect();
    let log_dir = work.join("replay-log");
    let mut log = EventLog::open(&log_dir)?;
    let mut append_us = Vec::with_capacity(batches.len());
    for b in &batches {
        let t = Instant::now();
        log.append_batch(b)?;
        append_us.push(us(t.elapsed()));
    }
    drop(log);
    let fold_dir = work.join("replay-fold");
    std::fs::create_dir_all(&fold_dir).map_err(|e| e.to_string())?;
    let engine = Engine::open(
        ckpt,
        server.engine.dataset().clone(),
        engine_options(&fold_dir),
    )?;
    let mut fold_in_us = Vec::with_capacity(batches.len());
    for b in &batches {
        let t = Instant::now();
        std::hint::black_box(engine.fold_in(b));
        fold_in_us.push(us(t.elapsed()));
    }
    Ok(LayerReplay {
        topk_us,
        topk_stream_us,
        append_us,
        fold_in_us,
    })
}
