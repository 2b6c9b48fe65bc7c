//! Read-path pin: one table over every engine configuration × brownout
//! read override × query kind × K, on a seeded yelp-like fixture with live
//! fold-in events.
//!
//! Three properties hold for every row:
//! - **Exact rescore.** Whatever the candidate generator, every returned
//!   score is bitwise the exact f32 score of that item (dot for `/recs`,
//!   cosine for `/similar`), and the list is sorted score-desc, id-asc.
//! - **Full coverage is exact.** A plan whose candidates cover the whole
//!   catalog (no probe narrowing, and no int8 pre-rank cut, i.e.
//!   `4·K ≥ n_items`) answers bit-for-bit like the exact scan — `/similar`
//!   and streamed `/recs` included.
//! - **Pinned bytes.** A digest over every answer, the build-time recall
//!   guardrails and the `/score` pair kernel must not move: any refactor of
//!   the read path has to keep the narrowed-probe and quantized outputs
//!   byte-identical too, not just the exact ones.

use lrgcn_data::{Dataset, SplitRatios, SyntheticConfig};
use lrgcn_models::{LayerGcn, LayerGcnConfig, Recommender};
use lrgcn_serve::{Engine, EngineOptions, EngineState, ReadOverride, Scratch, StreamDelta};
use lrgcn_stream::{EventLog, StreamEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// FNV-1a over every answer in the table, recorded before the read path
/// was collapsed into one pipeline. Bitwise-stable across `LRGCN_THREADS`
/// and kernel modes by the determinism contract.
const PIN_DIGEST: u64 = 0x7aa1_a28b_6a43_0aed;

/// The engine's first-stage candidate multiplier (`CANDIDATE_FACTOR`).
const CANDIDATE_FACTOR: usize = 4;
const ANN_CELLS: usize = 8;
const ANN_NPROBE: usize = 2;
const KS: [usize; 3] = [1, 20, 100];

#[derive(Clone, Copy, Debug)]
struct Config {
    name: &'static str,
    quant: bool,
    ann: bool,
    standby: bool,
}

const CONFIGS: [Config; 6] = [
    Config {
        name: "exact",
        quant: false,
        ann: false,
        standby: false,
    },
    Config {
        name: "quant",
        quant: true,
        ann: false,
        standby: false,
    },
    Config {
        name: "ann",
        quant: false,
        ann: true,
        standby: false,
    },
    Config {
        name: "ann+quant",
        quant: true,
        ann: true,
        standby: false,
    },
    Config {
        name: "standby",
        quant: false,
        ann: false,
        standby: true,
    },
    Config {
        name: "standby+quant",
        quant: true,
        ann: false,
        standby: true,
    },
];

impl Config {
    fn opts(self, events: &Path) -> EngineOptions {
        EngineOptions {
            n_layers: 2,
            dropout: 0.0,
            quant: self.quant,
            ann: self.ann,
            ann_standby: self.standby,
            ann_cells: ANN_CELLS,
            // A standby index is configured past the cell count, so its
            // configured probe (and its recall guardrail) is a full probe.
            nprobe: if self.standby { 1000 } else { ANN_NPROBE },
            events_dir: Some(events.to_path_buf()),
            ..EngineOptions::default()
        }
    }

    /// True when `ovr` leaves this configuration's candidates covering
    /// the whole catalog, so the answer must equal the exact scan's.
    fn full_coverage(self, ovr: ReadOverride, k: usize, n_items: usize) -> bool {
        let indexed = self.ann || self.standby;
        let ann_used = self.ann || (ovr.force_ann && indexed);
        let configured = if self.standby { ANN_CELLS } else { ANN_NPROBE };
        let nprobe = ovr.nprobe.unwrap_or(configured).clamp(1, ANN_CELLS);
        let probes_all = !ann_used || nprobe == ANN_CELLS;
        probes_all && (!self.quant || CANDIDATE_FACTOR * k >= n_items)
    }
}

/// The brownout overrides: none, forced onto the index at its configured
/// probe, forced with an explicit full probe, forced with one cell.
const OVERRIDES: [(&str, ReadOverride); 4] = [
    (
        "none",
        ReadOverride {
            force_ann: false,
            nprobe: None,
        },
    ),
    (
        "forced",
        ReadOverride {
            force_ann: true,
            nprobe: None,
        },
    ),
    (
        "full",
        ReadOverride {
            force_ann: true,
            nprobe: Some(ANN_CELLS),
        },
    ),
    (
        "narrow",
        ReadOverride {
            force_ann: true,
            nprobe: Some(1),
        },
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Kind {
    Recs { exclude_seen: bool },
    Stream,
    Similar,
}

/// Answers one table row. With no override the default-plan wrappers
/// answer, so they are pinned to the override path too.
fn answer(
    st: &EngineState,
    delta: &StreamDelta,
    kind: Kind,
    id: u32,
    k: usize,
    ovr: ReadOverride,
    scratch: &mut Scratch,
) -> Vec<(u32, f32)> {
    let default = ovr == ReadOverride::default();
    let plan = st.plan(ovr);
    let got = match kind {
        Kind::Recs { exclude_seen } if default => {
            st.top_k_into(st.ds(), id, k, exclude_seen, scratch)
        }
        Kind::Recs { exclude_seen } => {
            st.recommend(&StreamDelta::default(), id, k, exclude_seen, plan, scratch)
        }
        Kind::Stream if default => st.top_k_stream(delta, id, k, true, scratch),
        Kind::Stream => st.recommend(delta, id, k, true, plan, scratch),
        Kind::Similar => st.similar(id, k, plan, scratch),
    };
    got.unwrap_or_else(|e| panic!("{kind:?} {id} k={k}: {e}"))
}

fn ev(user: u32, item: u32, seq: u64) -> StreamEvent {
    StreamEvent {
        user,
        item,
        timestamp: 1_700_000_000 + seq as i64,
        client: "pin".into(),
        seq,
        request_id: String::new(),
    }
}

/// A 1-epoch LayerGCN over the yelp-like preset at quarter scale (the
/// catalog stays under `4·100` items, so K=100 is a full-coverage row for
/// the quantized plans), plus an event log that adds post-training users,
/// post-training items and new edges for trained users.
fn fixture() -> (Arc<Dataset>, PathBuf, PathBuf) {
    let log = SyntheticConfig::yelp().scaled(0.25).generate(2023);
    let ds = Arc::new(Dataset::chronological_split(
        "pin",
        &log,
        SplitRatios::default(),
    ));
    let cfg = LayerGcnConfig {
        embedding_dim: 16,
        n_layers: 2,
        ..LayerGcnConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(11);
    let mut model = LayerGcn::new(&ds, cfg, &mut rng);
    model.train_epoch(&ds, 0, &mut rng);
    let dir = std::env::temp_dir().join("lrgcn_serve_read_paths");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join("model.ckpt");
    model.save(&ckpt).expect("save");

    let (nu, ni) = (ds.n_users() as u32, ds.n_items() as u32);
    let pairs = [
        (nu, 0),
        (nu, 5),
        (nu, 9),
        (nu + 1, 3),
        (nu + 2, 7),
        (nu + 2, 11),
        (0, ni),
        (nu, ni),
        (10, ni + 1),
        (20, ni + 1),
        (1, 50),
        (2, 60),
        (3, 70),
    ];
    let events: Vec<StreamEvent> = pairs
        .iter()
        .enumerate()
        .map(|(s, &(u, i))| ev(u, i, s as u64 + 1))
        .collect();
    let events_dir = dir.join("events");
    EventLog::open(&events_dir)
        .expect("log")
        .append_batch(&events)
        .expect("append");
    (ds, ckpt, events_dir)
}

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn items(&mut self, items: &[(u32, f32)]) {
        self.u64(items.len() as u64);
        for &(it, s) in items {
            self.u64(it as u64);
            self.u64(s.to_bits() as u64);
        }
    }
}

fn bits(items: &[(u32, f32)]) -> Vec<(u32, u32)> {
    items.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

#[test]
fn every_read_path_is_pinned_and_full_coverage_is_exact() {
    let (ds, ckpt, events_dir) = fixture();
    let (nu, ni) = (ds.n_users() as u32, ds.n_items() as u32);
    assert!(
        (ni as usize) < CANDIDATE_FACTOR * 100 && (ni as usize) > CANDIDATE_FACTOR * 20,
        "fixture catalog of {ni} items must make K=100 full coverage and K=20 narrowed"
    );
    let recs_users = [0u32, 1, 37, 100, 250, nu - 1];
    let stream_users = [0u32, 1, 2, 3, 10, 20, 100, nu, nu + 1, nu + 2];
    let sim_items = [0u32, 1, 17, 100, 200, ni - 1];
    let rows: Vec<(Kind, u32)> = recs_users
        .iter()
        .flat_map(|&u| [true, false].map(|exclude_seen| (Kind::Recs { exclude_seen }, u)))
        .chain(stream_users.iter().map(|&u| (Kind::Stream, u)))
        .chain(sim_items.iter().map(|&i| (Kind::Similar, i)))
        .collect();
    let pairs: Vec<(u32, u32)> = vec![(0, 0), (1, 4), (37, 17), (nu - 1, ni - 1)];

    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut scratch = Scratch::default();
    let mut exact_answers: HashMap<(Kind, u32, usize), Vec<(u32, f32)>> = HashMap::new();
    let mut oracle: HashMap<(Kind, u32), HashMap<u32, u32>> = HashMap::new();
    let mut exact_pairs: Vec<f32> = Vec::new();
    for cfg in CONFIGS {
        let eng = Engine::open(&ckpt, ds.clone(), cfg.opts(&events_dir))
            .unwrap_or_else(|e| panic!("{}: open: {e}", cfg.name));
        let st = eng.state();
        let delta = st.delta();
        assert_eq!(delta.events_applied(), 13, "{}: log replay", cfg.name);
        assert_eq!(delta.new_items(), 2);

        // Configuration columns: what was built, what serves by default,
        // and the build-time recall guardrails.
        assert_eq!(st.quant_enabled(), cfg.quant, "{}", cfg.name);
        assert_eq!(st.quant_bytes() > 0, cfg.quant, "{}", cfg.name);
        assert_eq!(st.ann_enabled(), cfg.ann, "{}", cfg.name);
        assert_eq!(st.ann_available(), cfg.ann || cfg.standby, "{}", cfg.name);
        assert_eq!(st.ann_bytes() > 0, cfg.ann || cfg.standby, "{}", cfg.name);
        if cfg.quant {
            assert!(
                st.quant_recall > 0.9,
                "{}: quant recall {}",
                cfg.name,
                st.quant_recall
            );
        } else {
            assert_eq!(st.quant_recall, 1.0, "{}", cfg.name);
        }
        match (cfg.ann, cfg.standby) {
            (false, false) => assert_eq!(st.ann_recall, 1.0, "{}", cfg.name),
            (true, _) => {
                assert_eq!(st.ann_cells(), ANN_CELLS);
                assert_eq!(st.ann_nprobe(), ANN_NPROBE);
                assert!(st.ann_recall > 0.0 && st.ann_recall <= 1.0);
            }
            (false, true) => {
                assert_eq!(st.ann_cells(), ANN_CELLS);
                assert_eq!(
                    st.ann_nprobe(),
                    ANN_CELLS,
                    "nprobe must clamp to the cell count"
                );
                if !cfg.quant {
                    assert_eq!(st.ann_recall, 1.0, "a full-probe standby index is lossless");
                }
            }
        }
        digest.u64(st.quant_recall.to_bits());
        digest.u64(st.ann_recall.to_bits());

        // The /score pair kernel: exact dots, int8-approximated under quant.
        let ps = st.score_pairs(&pairs).expect("pairs");
        if cfg.name == "exact" {
            let offline = st.score_users(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
            for (r, (&(_, i), s)) in pairs.iter().zip(&ps).enumerate() {
                assert_eq!(s.to_bits(), offline[(r, i as usize)].to_bits());
            }
            exact_pairs = ps.clone();
        } else if cfg.quant {
            for (a, b) in exact_pairs.iter().zip(&ps) {
                assert!(
                    (a - b).abs() <= 0.05 * a.abs().max(1.0),
                    "{}: {a} vs {b}",
                    cfg.name
                );
            }
        } else {
            assert_eq!(ps, exact_pairs, "{}: pair scores drifted", cfg.name);
        }
        for s in &ps {
            digest.u64(s.to_bits() as u64);
        }

        if cfg.name == "exact" {
            // The exact-score oracle: every item's exact score per query.
            for &(kind, id) in &rows {
                let all = answer(
                    &st,
                    &delta,
                    kind,
                    id,
                    10_000,
                    ReadOverride::default(),
                    &mut scratch,
                );
                oracle.insert(
                    (kind, id),
                    all.iter().map(|&(i, s)| (i, s.to_bits())).collect(),
                );
            }
            // Served exact scores are the offline evaluator's, bitwise.
            for &u in &recs_users {
                let offline = st.score_users(&[u]);
                let served = st.top_k(st.ds(), u, ni as usize, false).expect("top_k");
                assert_eq!(served.len(), ni as usize);
                for &(it, s) in &served {
                    assert_eq!(
                        s.to_bits(),
                        offline[(0, it as usize)].to_bits(),
                        "user {u} item {it}"
                    );
                }
            }
        }

        for (oname, ovr) in OVERRIDES {
            for &(kind, id) in &rows {
                for k in KS {
                    let tag = format!("{} ovr={oname} {kind:?} {id} k={k}", cfg.name);
                    let got = answer(&st, &delta, kind, id, k, ovr, &mut scratch);
                    digest.items(&got);
                    assert!(got.len() <= k, "{tag}: too long");
                    assert!(
                        got.windows(2)
                            .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)),
                        "{tag}: not score-desc/id-asc"
                    );
                    let exact_scores = &oracle[&(kind, id)];
                    for &(it, s) in &got {
                        assert_eq!(
                            Some(&s.to_bits()),
                            exact_scores.get(&it),
                            "{tag}: item {it} not exactly rescored"
                        );
                    }
                    if ovr == ReadOverride::default() {
                        // Fresh scratch and the allocating wrapper agree
                        // with the reused per-worker scratch.
                        let fresh = answer(&st, &delta, kind, id, k, ovr, &mut Scratch::default());
                        assert_eq!(bits(&fresh), bits(&got), "{tag}: scratch reuse diverged");
                        if let Kind::Recs { exclude_seen } = kind {
                            let alloc = st.top_k(st.ds(), id, k, exclude_seen).expect("top_k");
                            assert_eq!(
                                bits(&alloc),
                                bits(&got),
                                "{tag}: allocating wrapper diverged"
                            );
                        }
                    }
                    // The exact engine's first (wrapper) answer is the
                    // reference; its override rows must match it too.
                    match exact_answers.get(&(kind, id, k)) {
                        None => {
                            assert_eq!(cfg.name, "exact");
                            exact_answers.insert((kind, id, k), got);
                        }
                        Some(exact) if cfg.full_coverage(ovr, k, ni as usize) => assert_eq!(
                            bits(&got),
                            bits(exact),
                            "{tag}: full-coverage plan diverged from the exact scan"
                        ),
                        Some(_) => {}
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(events_dir.parent().expect("fixture dir")).ok();
    assert_eq!(
        digest.0, PIN_DIGEST,
        "read-path digest moved: {:#018x}",
        digest.0
    );
}
