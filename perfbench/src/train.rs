//! The training stage: LayerGCN with its default configuration, trained
//! through `Recommender::train_epoch`, then refreshed and ranked with
//! `evaluate_ranking_parallel` — plus the traced replica of `train_epoch`
//! assembled from the same public calls, timed per layer.

use crate::measure::{median, ms, usage};
use lrgcn_data::{BprEpoch, Dataset, Interaction, InteractionLog, SplitRatios, SyntheticConfig};
use lrgcn_eval::{evaluate_ranking_parallel, Split};
use lrgcn_models::common::{bpr_loss, full_adjacency, grad_sq_norm, sum_readout};
use lrgcn_models::{LayerGcn, LayerGcnConfig, Recommender};
use lrgcn_obs::json::{self, Value};
use lrgcn_obs::{registry, Counter};
use lrgcn_tensor::tape::{SharedCsr, Tape};
use lrgcn_tensor::{Adam, Matrix, Param};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Seed of the yelp-like interaction log (2480 users × 1411 items).
pub const DATA_SEED: u64 = 2023;
/// Epochs trained per run; the recorded recall values assume this count.
pub const EPOCHS: usize = 10;
/// Training seeds with a recorded recall@20: a run's training seed is its
/// `--seed` modulo this, so every seed has a recorded value to check.
pub const GOLDEN_SEEDS: u64 = 64;
/// Ranking cutoff of the headline quality metric.
pub const RECALL_K: usize = 20;
/// Users scored per evaluation chunk, as in the trainer.
const EVAL_CHUNK: usize = 256;

pub fn train_seed(seed: u64) -> u64 {
    seed % GOLDEN_SEEDS
}

/// The yelp-like log split into what training sees and what is streamed
/// to the server after it.
pub struct Data {
    /// Every interaction of the trained users: the top 10% of user ids are
    /// held out of training, as in the serving crate's streaming-staleness
    /// benchmark, and exist only as events.
    pub log: InteractionLog,
    /// Every interaction the full log records from the training cutoff on,
    /// in timestamp order: the trained users' chronologically held-out
    /// interactions and the held-out users' interactions.
    pub stream: Vec<Interaction>,
}

/// The data every run trains and serves on.
pub fn data() -> Data {
    let full = SyntheticConfig::yelp().generate(DATA_SEED);
    let cut = (full.n_users() * 9).div_ceil(10);
    let trained: Vec<Interaction> = full
        .interactions()
        .iter()
        .filter(|it| (it.user as usize) < cut)
        .copied()
        .collect();
    let log = InteractionLog::new(cut, full.n_items(), trained);
    // The chronological split's training cutoff, as a timestamp.
    let mut times: Vec<i64> = log.interactions().iter().map(|it| it.timestamp).collect();
    times.sort_unstable();
    let train_end = (times.len() as f64 * SplitRatios::default().train).round() as usize;
    let cutoff = times[train_end];
    let mut stream: Vec<Interaction> = full
        .interactions()
        .iter()
        .filter(|it| it.timestamp >= cutoff)
        .copied()
        .collect();
    stream.sort_by_key(|it| it.timestamp);
    Data { log, stream }
}

/// Set-up: chronological split through `LayerGcn::new`. The returned RNG
/// continues the stream `LayerGcn::new` drew the initial table from.
pub fn setup(log: &InteractionLog, seed: u64) -> (Dataset, LayerGcn, StdRng) {
    let ds = Dataset::chronological_split("yelp-like", log, SplitRatios::default());
    let (model, rng) = init(&ds, seed);
    (ds, model, rng)
}

fn init(ds: &Dataset, seed: u64) -> (LayerGcn, StdRng) {
    let mut rng = StdRng::seed_from_u64(train_seed(seed));
    let model = LayerGcn::new(ds, LayerGcnConfig::default(), &mut rng);
    (model, rng)
}

/// Timed epochs per interlude process, after one untimed epoch.
pub const INTERLUDE_EPOCHS: usize = 2;
/// Timed evaluations per interlude process, after one untimed evaluation.
pub const INTERLUDE_EVALS: usize = 3;

/// What one interlude process measured.
pub struct InterludeSamples {
    pub epoch_s: Vec<f64>,
    pub eval_s: Vec<f64>,
    pub recall: f64,
}

/// One interlude process (`--interlude CKPT`): `epoch_s` and `eval_s` are
/// taken in short-lived processes of their own, spread over the run,
/// because the speed of this memory-bound work is set largely per process.
/// On a 2-vCPU virtual machine one process ran every epoch at 0.52 s and
/// the next at 0.37 s, with windows of five epochs within each process
/// within a few percent of one another. The process trains a fresh model
/// from the same seed (repeating the trained model's epochs) and evaluates
/// the trained checkpoint, whose recall must equal the trained model's.
pub fn interlude(seed: u64, ckpt: &Path) -> Result<InterludeSamples, String> {
    let log = data().log;
    let (ds, mut trained, _) = setup(&log, seed);
    trained
        .load(ckpt)
        .map_err(|e| format!("loading {}: {e}", ckpt.display()))?;
    let (mut model, mut rng) = init(&ds, seed);
    // Untimed: a process's first epoch and evaluation fault its heap in.
    model.train_epoch(&ds, 0, &mut rng);
    let recall = evaluate(&ds, &mut trained).recall;
    let epoch_s = (1..=INTERLUDE_EPOCHS)
        .map(|epoch| {
            let t = Instant::now();
            model.train_epoch(&ds, epoch, &mut rng);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let mut eval_s = Vec::with_capacity(INTERLUDE_EVALS);
    for _ in 0..INTERLUDE_EVALS {
        let e = evaluate(&ds, &mut trained);
        if e.recall.to_bits() != recall.to_bits() {
            return Err(format!("recall@{RECALL_K} {} then {recall}", e.recall));
        }
        eval_s.push((e.refresh + e.rank).as_secs_f64());
    }
    Ok(InterludeSamples {
        epoch_s,
        eval_s,
        recall,
    })
}

impl InterludeSamples {
    pub fn to_json(&self) -> Value {
        let arr = |v: &[f64]| Value::Arr(v.iter().map(|&x| Value::num(x)).collect());
        Value::obj([
            ("epoch_s", arr(&self.epoch_s)),
            ("eval_s", arr(&self.eval_s)),
            ("recall", Value::num(self.recall)),
        ])
    }

    fn from_json(v: &Value) -> Option<Self> {
        let arr = |key: &str| match v.get(key)? {
            Value::Arr(items) => items.iter().map(Value::as_f64).collect(),
            _ => None,
        };
        Some(InterludeSamples {
            epoch_s: arr("epoch_s")?,
            eval_s: arr("eval_s")?,
            recall: v.get("recall")?.as_f64()?,
        })
    }
}

/// Runs one interlude process of this benchmark's own executable and waits
/// for it to end.
pub fn run_interlude(seed: u64, ckpt: &Path) -> Result<InterludeSamples, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .arg("--interlude")
        .arg(ckpt)
        .arg("--seed")
        .arg(seed.to_string())
        .output()
        .map_err(|e| format!("starting an interlude process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "interlude process {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    json::parse(stdout.trim())
        .ok()
        .as_ref()
        .and_then(InterludeSamples::from_json)
        .ok_or_else(|| format!("interlude process printed {stdout:?}"))
}

pub struct Trained {
    pub ds: Dataset,
    pub model: LayerGcn,
    pub setup_s: Vec<f64>,
    pub epoch_s: Vec<f64>,
    pub losses: Vec<f64>,
}

/// Sets up `reps` times (keeping the last) and trains [`EPOCHS`] epochs.
pub fn train(log: &InteractionLog, seed: u64, reps: usize) -> Trained {
    let mut setup_s = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let built = setup(log, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    let (ds, mut model, mut rng) = last.expect("at least one set-up");
    let mut epoch_s = Vec::with_capacity(EPOCHS);
    let mut losses = Vec::with_capacity(EPOCHS);
    for epoch in 0..EPOCHS {
        let t = Instant::now();
        let stats = model.train_epoch(&ds, epoch, &mut rng);
        epoch_s.push(t.elapsed().as_secs_f64());
        losses.push(stats.loss);
    }
    Trained {
        ds,
        model,
        setup_s,
        epoch_s,
        losses,
    }
}

/// Refresh plus full-ranking evaluation on the test split.
pub struct Evaluated {
    pub refresh: Duration,
    pub rank: Duration,
    pub recall: f64,
}

pub fn evaluate(ds: &Dataset, model: &mut LayerGcn) -> Evaluated {
    let t = Instant::now();
    model.refresh(ds);
    let refresh = t.elapsed();
    let t = Instant::now();
    let scorer = |users: &[u32]| model.score_users(ds, users);
    let report = evaluate_ranking_parallel(ds, Split::Test, &[RECALL_K], EVAL_CHUNK, &scorer);
    Evaluated {
        refresh,
        rank: t.elapsed(),
        recall: report.recall(RECALL_K),
    }
}

/// The recorded recall@20 of each training seed, from `golden_recall.txt`.
pub fn golden() -> BTreeMap<u64, f64> {
    include_str!("../golden_recall.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut f = l.split_whitespace();
            let seed = f.next().and_then(|s| s.parse().ok());
            let bits = f.next().and_then(|s| u64::from_str_radix(s, 16).ok());
            match (seed, bits) {
                (Some(s), Some(b)) => (s, f64::from_bits(b)),
                _ => panic!("malformed golden_recall.txt line {l:?}"),
            }
        })
        .collect()
}

/// One line of `golden_recall.txt` for training seed `seed`.
pub fn golden_line(log: &InteractionLog, seed: u64) -> String {
    let mut t = train(log, seed, 1);
    let recall = evaluate(&t.ds, &mut t.model).recall;
    format!("{seed}\t{:016x}\t{recall}", recall.to_bits())
}

/// Per-epoch time of each layer of the replica, in ms.
#[derive(Clone, Debug, Default)]
pub struct EpochTrace {
    pub epoch_ms: f64,
    pub loss: f64,
    pub sampler_ms: f64,
    pub dropout_ms: f64,
    pub adjacency_ms: f64,
    pub spmm_ms: Vec<f64>,
    pub refine_ms: Vec<f64>,
    pub loss_ms: f64,
    pub backward_ms: f64,
    pub adam_ms: f64,
    /// Forward spmm FLOPs, computed from sizes as 2·nnz·d per call.
    pub spmm_flops: f64,
    pub matrix_allocs: u64,
    pub minor_faults: u64,
    pub cpu_s: f64,
}

impl EpochTrace {
    pub fn attributed_ms(&self) -> f64 {
        self.sampler_ms
            + self.dropout_ms
            + self.adjacency_ms
            + self.spmm_ms.iter().sum::<f64>()
            + self.refine_ms.iter().sum::<f64>()
            + self.loss_ms
            + self.backward_ms
            + self.adam_ms
    }
}

/// Times `f` into `acc` (ms).
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += ms(t.elapsed());
    out
}

/// `LayerGcn::train_epoch` re-assembled from its public parts (Eq. 5–9 and
/// the BPR step), with a timer around every call into a layer. Starts from
/// the same initial table and RNG stream as [`train`], so its losses must
/// equal `train_epoch`'s bit for bit.
pub struct Replica {
    cfg: LayerGcnConfig,
    ego: Param,
    adam: Adam,
    adj_full: SharedCsr,
    rng: StdRng,
}

impl Replica {
    pub fn new(log: &InteractionLog, seed: u64) -> (Dataset, Replica) {
        let (ds, model, rng) = setup(log, seed);
        let cfg = model.config().clone();
        let replica = Replica {
            ego: Param::new(model.ego_embeddings().clone()),
            adam: Adam::new(cfg.learning_rate),
            adj_full: full_adjacency(&ds),
            cfg,
            rng,
        };
        (ds, replica)
    }

    pub fn ego(&self) -> &Matrix {
        self.ego.value()
    }

    pub fn epoch(&mut self, ds: &Dataset, epoch: usize) -> EpochTrace {
        let cfg = &self.cfg;
        let mut tr = EpochTrace {
            spmm_ms: vec![0.0; cfg.n_layers],
            refine_ms: vec![0.0; cfg.n_layers],
            ..EpochTrace::default()
        };
        let allocs0 = registry::get(Counter::MatrixAllocs);
        let u0 = usage();
        let t0 = Instant::now();
        let rng = &mut self.rng;
        let edges = timed(&mut tr.dropout_ms, || {
            cfg.pruner.sample_edges(ds.train(), epoch, rng)
        });
        let adj = timed(&mut tr.adjacency_ms, || match edges {
            Some(edges) => SharedCsr::new(ds.train().norm_adjacency_of_edges(&edges)),
            None => self.adj_full.clone(),
        });
        let nnz = adj.matrix().nnz() as f64;
        let batches: Vec<_> = timed(&mut tr.sampler_ms, || {
            BprEpoch::new(ds, cfg.batch_size, rng).collect()
        });
        let (mut total, mut n, mut ego_grad_sq) = (0.0f64, 0usize, 0.0f64);
        for batch in batches {
            let mut tape = Tape::new();
            let x0 = tape.leaf(self.ego.value().clone());
            let mut h = x0;
            let mut layers = Vec::with_capacity(cfg.n_layers);
            for l in 0..cfg.n_layers {
                let prop = timed(&mut tr.spmm_ms[l], || tape.spmm(&adj, h));
                tr.spmm_flops += 2.0 * nnz * self.ego.value().cols() as f64;
                h = timed(&mut tr.refine_ms[l], || {
                    let sim = tape.row_cosine(prop, x0, cfg.cosine_eps);
                    let sim_eps = tape.add_scalar(sim, cfg.epsilon);
                    tape.mul_row_broadcast(prop, sim_eps)
                });
                layers.push(h);
            }
            let loss = timed(&mut tr.loss_ms, || {
                let final_x = sum_readout(&mut tape, &layers);
                bpr_loss(&mut tape, final_x, x0, ds.n_users(), &batch, cfg.lambda)
            });
            total += tape.scalar(loss) as f64;
            n += 1;
            timed(&mut tr.backward_ms, || tape.backward(loss));
            let grad = tape.take_grad(x0);
            if let Some(g) = &grad {
                ego_grad_sq += grad_sq_norm(g);
            }
            timed(&mut tr.adam_ms, || {
                self.adam.begin_step();
                if let Some(g) = &grad {
                    self.adam.update(&mut self.ego, g);
                }
            });
        }
        std::hint::black_box(ego_grad_sq);
        tr.epoch_ms = ms(t0.elapsed());
        let du = usage().since(u0);
        tr.loss = if n > 0 { total / n as f64 } else { 0.0 };
        tr.matrix_allocs = registry::get(Counter::MatrixAllocs) - allocs0;
        tr.minor_faults = du.minor_faults;
        tr.cpu_s = du.cpu_s;
        tr
    }
}

/// Median of one per-epoch field across the traced epochs.
pub fn median_of(trace: &[EpochTrace], f: impl Fn(&EpochTrace) -> f64) -> f64 {
    median(&trace.iter().map(f).collect::<Vec<_>>())
}
