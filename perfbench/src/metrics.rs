//! One benchmark run: the pipeline, its correctness checks, and the
//! end-to-end (untraced) or per-layer (traced) metrics it reports.

use crate::loadgen::{self, is_events, is_probe, Tally, CONNS};
use crate::measure::{host_ticks, median, ms, peak_rss_mb, quantile, us};
use crate::schedule::{self, Op, PhaseKind, Schedule, Workload};
use crate::serving::{self, PhaseRun, Server};
use crate::train::{self, EpochTrace};
use lrgcn_obs::json::Value;
use lrgcn_serve::ServerConfig;
use lrgcn_stream::EventLog;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

/// Set-ups per run; `setup_s` is the sum of the two stages' medians.
const SETUP_REPS: usize = 15;
/// Refresh + evaluations timed per layer in a traced run.
const EVAL_REPS: usize = 4;
/// Interlude processes (`train::interlude`) run before `low`, after `low`
/// and after `mid`; `epoch_s` and `eval_s` are the medians of all their
/// samples.
const INTERLUDE_PROCS: usize = 2;
/// Trained users whose final `/recs` is checked besides every user an
/// event touched.
const FINAL_SAMPLE: usize = 64;

/// End-to-end metrics (name, unit), reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("recs_p50_ms.low", "ms"),
    ("recs_p95_ms.low", "ms"),
    ("recs_p50_ms.mid", "ms"),
    ("recs_p95_ms.mid", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("events_p50_ms", "ms"),
    ("events_p95_ms", "ms"),
    ("epoch_s", "s"),
    ("eval_s", "s"),
    ("recall_at_20", "ratio"),
];

/// End-to-end metrics the traced run re-measures under tracing; each gets
/// an `overhead.<name>` ratio (traced / untraced).
const OVERHEAD: &[&str] = &[
    "recs_p50_ms.low",
    "recs_p95_ms.low",
    "recs_p50_ms.mid",
    "recs_p95_ms.mid",
    "cpu_ms_per_req",
    "events_p50_ms",
    "events_p95_ms",
    "epoch_s",
    "eval_s",
];

/// Per-layer metrics (name, unit), reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.server.healthz_rtt_p50_ms", "ms"),
    ("serve.server.healthz_rtt_p99_ms", "ms"),
    ("serve.server.window_p50_ms", "ms"),
    ("serve.server.window_p99_ms", "ms"),
    ("serve.server.accept_gap_p50_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.get_p50_us", "us"),
    ("serve.engine.topk_p50_us", "us"),
    ("serve.engine.topk_p99_us", "us"),
    ("serve.engine.topk_stream_p50_us", "us"),
    ("stream.append_p50_us", "us"),
    ("stream.append_p99_us", "us"),
    ("serve.delta.fold_in_p50_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("proc.cpu_s.low", "s"),
    ("proc.cpu_s.mid", "s"),
    ("data.sampler_ms", "ms"),
    ("graph.dropout_ms", "ms"),
    ("graph.adjacency_ms", "ms"),
    ("models.layer1.spmm_ms", "ms"),
    ("models.layer2.spmm_ms", "ms"),
    ("models.layer3.spmm_ms", "ms"),
    ("models.layer4.spmm_ms", "ms"),
    ("models.layer1.refine_ms", "ms"),
    ("models.layer2.refine_ms", "ms"),
    ("models.layer3.refine_ms", "ms"),
    ("models.layer4.refine_ms", "ms"),
    ("models.loss_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("tensor.adam_ms", "ms"),
    ("train.unattributed_ms", "ms"),
    ("train.layer_sum_ratio", "ratio"),
    ("tensor.matrix_allocs", "count"),
    ("proc.minor_faults.epoch", "count"),
    ("proc.cpu_s.epoch", "s"),
    ("tensor.spmm_gflops", "GFLOP/s"),
    ("eval.refresh_ms", "ms"),
    ("eval.rank_ms", "ms"),
    ("overhead.recs_p50_ms.low", "ratio"),
    ("overhead.recs_p95_ms.low", "ratio"),
    ("overhead.recs_p50_ms.mid", "ratio"),
    ("overhead.recs_p95_ms.mid", "ratio"),
    ("overhead.cpu_ms_per_req", "ratio"),
    ("overhead.events_p50_ms", "ratio"),
    ("overhead.events_p95_ms", "ratio"),
    ("overhead.epoch_s", "ratio"),
    ("overhead.eval_s", "ratio"),
];

pub struct Output {
    pub correct: bool,
    pub record: Value,
    pub result: Value,
}

/// Named metric values, restricted to the declared tables.
#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// The result's `metrics` object for `table`; every name must be set.
    fn render(&self, table: &[(&str, &str)]) -> Value {
        Value::Obj(
            table
                .iter()
                .map(|&(name, unit)| {
                    let v = *self
                        .0
                        .get(name)
                        .unwrap_or_else(|| panic!("metric {name} was never measured"));
                    (
                        name.to_string(),
                        Value::obj([("value", Value::num(v)), ("unit", Value::str(unit))]),
                    )
                })
                .collect(),
        )
    }
}

/// Correctness checks: each passes with a detail or fails with a reason.
#[derive(Default)]
struct Checks(Vec<(String, Result<String, String>)>);

impl Checks {
    fn add(&mut self, name: &str, r: Result<String, String>) {
        if let Err(e) = &r {
            eprintln!("perfbench: check {name} FAILED: {e}");
        }
        self.0.push((name.to_string(), r));
    }

    fn expect(&mut self, name: &str, ok: bool, detail: String) {
        self.add(name, if ok { Ok(detail) } else { Err(detail) });
    }

    fn all_pass(&self) -> bool {
        self.0.iter().all(|(_, r)| r.is_ok())
    }

    fn to_json(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|(n, r)| {
                    let v = match r {
                        Ok(d) => Value::obj([("ok", Value::Bool(true)), ("detail", Value::str(d))]),
                        Err(d) => {
                            Value::obj([("ok", Value::Bool(false)), ("detail", Value::str(d))])
                        }
                    };
                    (n.clone(), v)
                })
                .collect(),
        )
    }
}

/// One pass of a schedule over one server.
struct Pass {
    runs: Vec<PhaseRun>,
    /// `GET /admin/obs` read right after the `mid` phase.
    obs_after_mid: Value,
}

impl Pass {
    fn phase(&self, name: &str) -> &PhaseRun {
        self.runs
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("phase {name} did not run"))
    }

    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for r in &self.runs {
            t.add(r.tally());
        }
        t
    }

    /// The end-to-end metrics a serving pass measures.
    fn serving_metrics(&self, workload: Workload, m: &mut Metrics) {
        for p in ["low", "mid"] {
            let recs = self.phase(p).recs_ms();
            m.set(&format!("recs_p50_ms.{p}"), quantile(&recs, 0.5));
            m.set(&format!("recs_p95_ms.{p}"), quantile(&recs, 0.95));
        }
        let event_phases: &[&str] = match workload {
            Workload::Read => &["tail"],
            Workload::WriteMix => &["low", "mid"],
        };
        let events: Vec<f64> = event_phases
            .iter()
            .flat_map(|p| loadgen::latencies_ms(&self.phase(p).outcomes, is_events))
            .collect();
        m.set("events_p50_ms", quantile(&events, 0.5));
        m.set("events_p95_ms", quantile(&events, 0.95));
        let mid = self.phase("mid");
        let done = mid.outcomes.iter().filter(|o| o.ok()).count() as f64;
        m.set("cpu_ms_per_req", mid.usage.cpu_s * 1e3 / done);
    }
}

/// Runs the schedule's phases in order, calling `between` (the server idle)
/// before `low`, after `low` and after `mid`.
fn drive(
    server: &Server,
    sched: &Schedule,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Pass, String> {
    let acks = loadgen::Acks::new(sched.batches.len());
    let mut runs = Vec::new();
    let mut obs_after_mid = Value::Null;
    for p in &sched.phases {
        if p.kind == PhaseKind::Low {
            between()?;
        }
        runs.push(serving::run_phase(server, sched, p, &acks));
        if p.kind == PhaseKind::Mid {
            obs_after_mid = serving::admin_obs(server)?;
        }
        if p.kind != PhaseKind::Tail {
            between()?;
        }
    }
    Ok(Pass {
        runs,
        obs_after_mid,
    })
}

/// The checks every pass must pass, then a graceful stop of its server.
fn check_pass(
    label: &str,
    server: Server,
    sched: &Schedule,
    pass: &Pass,
    checks: &mut Checks,
) -> Result<(), String> {
    let tally = pass.tally();
    checks.expect(
        &format!("{label}.no_failures"),
        tally.failed() == 0,
        format!("{} of {} requests failed", tally.failed(), tally.sent),
    );
    for r in &pass.runs {
        checks.expect(
            &format!("{label}.{}.cache_flags_match_registry", r.name),
            r.cached_flags == r.reg_hits,
            format!(
                "{} cached answers, registry counted {} hits / {} misses",
                r.cached_flags, r.reg_hits, r.reg_misses
            ),
        );
        if let Some(predicted) = sched.phase(&r.name).predicted_hits {
            checks.expect(
                &format!("{label}.{}.hits_as_scheduled", r.name),
                r.cached_flags == predicted,
                format!("{} hits, schedule implies {predicted}", r.cached_flags),
            );
        }
    }
    if sched.workload == Workload::Read {
        let reads = pass
            .runs
            .iter()
            .filter(|r| r.name != "tail")
            .flat_map(|r| r.warm.iter().chain(&r.outcomes));
        checks.add(
            &format!("{label}.recs_equal_top_k"),
            serving::check_base_bodies(&server, reads)
                .map(|n| format!("{n} bodies byte-identical")),
        );
    }
    // Users the acked writes touched, plus a sample of trained users.
    let sent: BTreeSet<usize> = pass
        .runs
        .iter()
        .flat_map(|r| &r.outcomes)
        .filter(|o| o.ok())
        .filter_map(|o| match o.op {
            Op::Events { id } => Some(id),
            _ => None,
        })
        .collect();
    let mut users: BTreeSet<u32> = sent
        .iter()
        .flat_map(|&id| sched.batches[id].iter().map(|e| e.user))
        .collect();
    users.extend(
        sched
            .phase("low")
            .reqs
            .iter()
            .filter_map(|r| match r.op {
                Op::Recs { user, after: None } => Some(user),
                _ => None,
            })
            .take(FINAL_SAMPLE),
    );
    checks.add(
        &format!("{label}.final_recs_equal_top_k_stream"),
        serving::check_final_recs(&server, &users).map(|n| format!("{n} users byte-identical")),
    );
    let sent_events: u64 = sent.iter().map(|&id| sched.batches[id].len() as u64).sum();
    let acked = serving::acked_events(pass.runs.iter().flat_map(|r| &r.outcomes));
    let events_dir = server.events_dir.clone();
    server.stop();
    let log_len = EventLog::replay(&events_dir)?.len() as u64;
    checks.expect(
        &format!("{label}.acked_events_equal_log"),
        acked == sent_events && acked == log_len,
        format!("sent {sent_events}, acked {acked}, log holds {log_len}"),
    );
    Ok(())
}

fn phase_json(sched: &Schedule, r: &PhaseRun) -> Value {
    let t = r.tally();
    let recs = r.recs_ms();
    let late: Vec<f64> = r.outcomes.iter().map(|o| o.late_ns as f64 / 1e6).collect();
    Value::obj([
        ("phase", Value::str(r.name.clone())),
        ("offered_rps", Value::num(r.rate)),
        ("achieved_rps", Value::num(r.achieved_rps())),
        ("wall_s", Value::num(r.wall.as_secs_f64())),
        ("sent", Value::u64(t.sent)),
        ("ok", Value::u64(t.ok)),
        ("failed_503", Value::u64(t.shed_503)),
        ("failed_4xx", Value::u64(t.client_4xx)),
        ("failed_other_status", Value::u64(t.other_status)),
        ("failed_transport", Value::u64(t.transport)),
        ("warm_requests", Value::u64(r.warm.len() as u64)),
        ("recs", Value::u64(recs.len() as u64)),
        ("recs_p50_ms", Value::num(quantile(&recs, 0.5))),
        ("recs_p95_ms", Value::num(quantile(&recs, 0.95))),
        ("recs_p99_ms", Value::num(quantile(&recs, 0.99))),
        (
            "events",
            Value::u64(loadgen::latencies_ms(&r.outcomes, is_events).len() as u64),
        ),
        ("late_p99_ms", Value::num(quantile(&late, 0.99))),
        ("cpu_s", Value::num(r.usage.cpu_s)),
        ("cached_answers", Value::u64(r.cached_flags)),
        (
            "predicted_hits",
            sched
                .phase(&r.name)
                .predicted_hits
                .map_or(Value::Null, Value::u64),
        ),
    ])
}

/// `.git/HEAD` resolved to a commit id (through a loose or a packed ref),
/// or null in a checkout without `.git`.
fn commit() -> Value {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).unwrap_or_default();
    let head = read("HEAD");
    let id = match head.trim().strip_prefix("ref: ") {
        Some(r) => match read(r).trim() {
            "" => read("packed-refs")
                .lines()
                .find_map(|l| Some(l.strip_suffix(r)?.strip_suffix(' ')?.to_string()))
                .unwrap_or_default(),
            loose => loose.to_string(),
        },
        None => head.trim().to_string(),
    };
    if id.is_empty() {
        Value::Null
    } else {
        Value::str(id)
    }
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<Output, String> {
    let host0 = host_ticks();
    let mut checks = Checks::default();
    let mut m = Metrics::default();

    // Training stage.
    let data = train::data();
    let train::Trained {
        ds,
        mut model,
        setup_s: train_setup,
        epoch_s: train_epoch_s,
        losses,
    } = train::train(&data.log, seed, SETUP_REPS);
    let ev = train::evaluate(&ds, &mut model);
    let ds = Arc::new(ds);
    let ckpt = work.join("model.ckpt");
    model
        .save(&ckpt)
        .map_err(|e| format!("saving {}: {e}", ckpt.display()))?;

    // Serving stage: the whole schedule exists before the first server.
    let sched = schedule::build(workload, seed, seconds, ds.n_users(), &data.stream, false);
    let mut serve_setup = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for i in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            Server::stop(s);
        }
        let (s, t) = serving::start(&ckpt, &ds, &work.join(format!("events-{i}")))?;
        serve_setup.push(t);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let workers = lrgcn_tensor::par::effective_threads();
    let mut interludes = Vec::new();
    let pass = drive(&server, &sched, &mut || {
        for _ in 0..INTERLUDE_PROCS {
            interludes.push(train::run_interlude(seed, &ckpt)?);
        }
        Ok(())
    })?;
    check_pass("run", server, &sched, &pass, &mut checks)?;

    let tseed = train::train_seed(seed);
    let recorded = train::golden().get(&tseed).copied();
    checks.expect(
        "recall_at_20_as_recorded",
        recorded.is_some_and(|g| g.to_bits() == ev.recall.to_bits())
            && interludes
                .iter()
                .all(|s| s.recall.to_bits() == ev.recall.to_bits()),
        format!(
            "training seed {tseed}: recall@20 {} (interlude processes {:?}) vs recorded {recorded:?}",
            ev.recall,
            interludes.iter().map(|s| s.recall).collect::<Vec<_>>()
        ),
    );
    let epoch_s: Vec<f64> = interludes.iter().flat_map(|s| s.epoch_s.clone()).collect();
    let eval_s: Vec<f64> = interludes.iter().flat_map(|s| s.eval_s.clone()).collect();

    m.set("setup_s", median(&train_setup) + median(&serve_setup));
    m.set("epoch_s", median(&epoch_s));
    m.set("eval_s", median(&eval_s));
    m.set("recall_at_20", ev.recall);
    pass.serving_metrics(workload, &mut m);

    let mut traced_phases = Vec::new();
    if trace {
        // Traced pass: a fresh server, the same seeded stream with /healthz
        // probes interleaved, and /admin/obs read after `mid`.
        let probed = schedule::build(workload, seed, seconds, ds.n_users(), &data.stream, true);
        let (srv, _) = serving::start(&ckpt, &ds, &work.join("events-traced"))?;
        // The same interludes as the untraced pass, untimed.
        let tpass = drive(&srv, &probed, &mut || {
            for _ in 0..INTERLUDE_PROCS {
                train::run_interlude(seed, &ckpt)?;
            }
            Ok(())
        })?;
        let reads = [probed.phase("low"), probed.phase("mid")];
        let writes = match workload {
            Workload::Read => vec![probed.phase("tail")],
            Workload::WriteMix => reads.to_vec(),
        };
        let replay = serving::replay_layers(&srv, &probed, &reads, &writes, &ckpt, work)?;
        check_pass("traced", srv, &probed, &tpass, &mut checks)?;

        let (low, mid) = (tpass.phase("low"), tpass.phase("mid"));
        let probes: Vec<f64> = low
            .outcomes
            .iter()
            .chain(&mid.outcomes)
            .filter(|o| is_probe(&o.op))
            .map(|o| (o.latency_ns - o.late_ns) as f64 / 1e6)
            .collect();
        m.set("serve.server.healthz_rtt_p50_ms", quantile(&probes, 0.5));
        m.set("serve.server.healthz_rtt_p99_ms", quantile(&probes, 0.99));
        let window = |q: &str| -> Result<f64, String> {
            let obs = &tpass.obs_after_mid;
            (|| {
                obs.get("windows")?
                    .get("10s")?
                    .get("routes")?
                    .get("recs")?
                    .get(q)?
                    .as_f64()
            })()
            .ok_or_else(|| format!("/admin/obs has no 10s /recs {q}"))
        };
        let (window_p50, window_p99) = (window("p50_ms")?, window("p99_ms")?);
        m.set("serve.server.window_p50_ms", window_p50);
        m.set("serve.server.window_p99_ms", window_p99);
        m.set(
            "serve.server.accept_gap_p50_ms",
            quantile(&mid.recs_ms(), 0.5) - window_p50,
        );
        let n_reads = (low.recs_ms().len() + mid.recs_ms().len()) as f64;
        m.set(
            "serve.cache.hit_ratio",
            (low.cached_flags + mid.cached_flags) as f64 / n_reads,
        );
        let keys = probed.cache_keys(&["low", "mid"]);
        let (times, _) =
            schedule::replay_cache(&keys, ServerConfig::default().cache_capacity, workers);
        let times_us: Vec<f64> = times.iter().map(|d| us(*d)).collect();
        m.set("serve.cache.get_p50_us", median(&times_us));
        m.set("serve.engine.topk_p50_us", median(&replay.topk_us));
        m.set("serve.engine.topk_p99_us", quantile(&replay.topk_us, 0.99));
        m.set(
            "serve.engine.topk_stream_p50_us",
            median(&replay.topk_stream_us),
        );
        m.set("stream.append_p50_us", median(&replay.append_us));
        m.set("stream.append_p99_us", quantile(&replay.append_us, 0.99));
        m.set("serve.delta.fold_in_p50_us", median(&replay.fold_in_us));
        let late: Vec<f64> = mid
            .outcomes
            .iter()
            .map(|o| o.late_ns as f64 / 1e6)
            .collect();
        m.set("loadgen.late_p99_ms", quantile(&late, 0.99));
        for r in [low, mid] {
            m.set(&format!("proc.cpu_s.{}", r.name), r.usage.cpu_s);
        }

        // Traced training: the replica from the same seed, then a second
        // refresh + evaluation of the trained model, timed per layer.
        let (rds, mut replica) = train::Replica::new(&data.log, seed);
        let traces: Vec<EpochTrace> = (0..train::EPOCHS).map(|e| replica.epoch(&rds, e)).collect();
        let same_losses = traces
            .iter()
            .zip(&losses)
            .all(|(t, l)| t.loss.to_bits() == l.to_bits());
        let same_table = replica
            .ego()
            .data()
            .iter()
            .zip(model.ego_embeddings().data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        checks.expect(
            "replica_equals_train_epoch",
            same_losses && same_table,
            format!(
                "replica losses {:?} vs train_epoch {:?}; final tables equal: {same_table}",
                traces.iter().map(|t| t.loss).collect::<Vec<_>>(),
                losses
            ),
        );
        let evals2: Vec<train::Evaluated> = (0..EVAL_REPS)
            .map(|_| train::evaluate(&ds, &mut model))
            .collect();
        checks.expect(
            "traced_recall_unchanged",
            evals2
                .iter()
                .all(|e| e.recall.to_bits() == ev.recall.to_bits()),
            format!("{} vs {}", evals2[0].recall, ev.recall),
        );
        let eval_ms =
            |f: fn(&train::Evaluated) -> f64| median(&evals2.iter().map(f).collect::<Vec<_>>());
        let med = |f: fn(&EpochTrace) -> f64| train::median_of(&traces, f);
        m.set("data.sampler_ms", med(|t| t.sampler_ms));
        m.set("graph.dropout_ms", med(|t| t.dropout_ms));
        m.set("graph.adjacency_ms", med(|t| t.adjacency_ms));
        for l in 0..4 {
            m.set(
                &format!("models.layer{}.spmm_ms", l + 1),
                train::median_of(&traces, |t| t.spmm_ms[l]),
            );
            m.set(
                &format!("models.layer{}.refine_ms", l + 1),
                train::median_of(&traces, |t| t.refine_ms[l]),
            );
        }
        m.set("models.loss_ms", med(|t| t.loss_ms));
        m.set("tensor.backward_ms", med(|t| t.backward_ms));
        m.set("tensor.adam_ms", med(|t| t.adam_ms));
        m.set(
            "train.unattributed_ms",
            med(|t| t.epoch_ms - t.attributed_ms()),
        );
        m.set(
            "train.layer_sum_ratio",
            med(|t| t.attributed_ms() / t.epoch_ms),
        );
        m.set("tensor.matrix_allocs", med(|t| t.matrix_allocs as f64));
        m.set("proc.minor_faults.epoch", med(|t| t.minor_faults as f64));
        m.set("proc.cpu_s.epoch", med(|t| t.cpu_s));
        m.set(
            "tensor.spmm_gflops",
            med(|t| t.spmm_flops / (t.spmm_ms.iter().sum::<f64>() * 1e-3) / 1e9),
        );
        m.set("eval.refresh_ms", eval_ms(|e| ms(e.refresh)));
        m.set("eval.rank_ms", eval_ms(|e| ms(e.rank)));

        // Tracing overhead: the traced pass against the untraced one above.
        let mut traced = Metrics::default();
        tpass.serving_metrics(workload, &mut traced);
        traced.set("epoch_s", med(|t| t.epoch_ms) / 1e3);
        traced.set("eval_s", eval_ms(|e| ms(e.refresh + e.rank)) / 1e3);
        for name in OVERHEAD {
            m.set(&format!("overhead.{name}"), traced.get(name) / m.get(name));
        }
        traced_phases = tpass.runs.iter().map(|r| phase_json(&probed, r)).collect();
    }
    m.set("peak_rss_mb", peak_rss_mb());
    let host1 = host_ticks();
    let steal_share = (host1.0 - host0.0) as f64 / (host1.1 - host0.1).max(1) as f64;

    let tally = pass.tally();
    let correct = checks.all_pass();
    let sent_events: Vec<_> = sched.batches.iter().flatten().collect();
    let record = Value::obj([
        ("workload", Value::str(workload.name())),
        ("seed", Value::u64(seed)),
        ("training_seed", Value::u64(tseed)),
        ("seconds", Value::num(seconds)),
        ("trace", Value::Bool(trace)),
        (
            "env",
            Value::obj([
                (
                    "cpus_available",
                    Value::u64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
                ),
                (
                    "threads",
                    Value::u64(lrgcn_tensor::par::configured_threads() as u64),
                ),
                ("server_workers", Value::u64(workers as u64)),
                (
                    "kernel",
                    Value::str(lrgcn_tensor::kernels::active_kernel().name()),
                ),
                (
                    "kernel_env",
                    std::env::var("LRGCN_KERNEL").map_or(Value::Null, Value::str),
                ),
                ("connections", Value::u64(CONNS as u64)),
                ("host_steal_share", Value::num(steal_share)),
                ("commit", commit()),
                ("n_users", Value::u64(ds.n_users() as u64)),
                ("n_items", Value::u64(ds.n_items() as u64)),
            ]),
        ),
        (
            "events",
            Value::obj([
                ("stream_len", Value::u64(data.stream.len() as u64)),
                ("sent", Value::u64(sent_events.len() as u64)),
                ("batches", Value::u64(sched.batches.len() as u64)),
                (
                    "new_user_share",
                    Value::num(
                        sent_events
                            .iter()
                            .filter(|e| e.user as usize >= ds.n_users())
                            .count() as f64
                            / sent_events.len() as f64,
                    ),
                ),
            ]),
        ),
        (
            "training",
            Value::obj([
                ("epochs", Value::u64(train::EPOCHS as u64)),
                (
                    "epoch_s",
                    Value::Arr(train_epoch_s.iter().map(|&s| Value::num(s)).collect()),
                ),
                (
                    "interlude_epoch_s",
                    Value::Arr(epoch_s.iter().map(|&s| Value::num(s)).collect()),
                ),
                (
                    "interlude_eval_s",
                    Value::Arr(eval_s.iter().map(|&s| Value::num(s)).collect()),
                ),
                (
                    "losses",
                    Value::Arr(losses.iter().map(|&l| Value::num(l)).collect()),
                ),
                (
                    "setup_s",
                    Value::Arr(train_setup.iter().map(|&s| Value::num(s)).collect()),
                ),
                (
                    "serve_setup_s",
                    Value::Arr(serve_setup.iter().map(|&s| Value::num(s)).collect()),
                ),
            ]),
        ),
        (
            "phases",
            Value::Arr(pass.runs.iter().map(|r| phase_json(&sched, r)).collect()),
        ),
        ("traced_phases", Value::Arr(traced_phases)),
        ("checks", checks.to_json()),
        (
            "notes",
            Value::str(
                "latency is timed at the client from each request's due time; \
                 /admin/obs window quantiles are log2-bucket upper bounds; \
                 spmm GFLOP/s is computed from sizes (2*nnz*d per forward call); \
                 overhead.* = traced pass / untraced pass of the same run",
            ),
        ),
    ]);
    let table = if trace { PER_LAYER } else { END_TO_END };
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::u64(tally.sent)),
        ("failed", Value::u64(tally.failed())),
        ("metrics", m.render(table)),
    ]);
    Ok(Output {
        correct,
        record,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics a run reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let spec = lrgcn_obs::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Arr(declared)) = spec.get(key) else {
                panic!("{key} is not an array")
            };
            let declared: Vec<(&str, &str)> = declared
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap(),
                        m.get("unit").unwrap().as_str().unwrap(),
                    )
                })
                .collect();
            assert_eq!(declared, table.to_vec(), "{key}");
        }
        assert!(OVERHEAD
            .iter()
            .all(|m| PER_LAYER.iter().any(|(n, _)| *n == format!("overhead.{m}"))));
    }
}
