//! Property test for the JSONL sink: randomized multi-run event streams are
//! emitted through the real sink and read back line-by-line. Every
//! line must parse, runs must stay separable by id, epoch indices must be
//! strictly increasing within a run, and numeric payloads (losses, timings)
//! must round-trip bit-exactly through the hand-rolled JSON layer.
//!
//! The crate is intentionally dependency-free, so randomness comes from an
//! inline splitmix64 rather than `rand`.

use lrgcn_obs::json::{self, Value};
use lrgcn_obs::{event, sink};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// splitmix64 — deterministic, seedable, and good enough to shuffle test
/// payloads. Matches the reference constants from Vigna's implementation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1) with 53 bits of mantissa.
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Names deliberately include everything the escaper must survive: quotes,
/// backslashes, control characters, and multi-byte UTF-8.
const NASTY_NAMES: &[&str] = &[
    "layergcn",
    "mooc",
    "quo\"ted",
    "back\\slash",
    "tab\tand\nnewline",
    "ünïcode-模型-🧪",
    "",
    "ctrl-\u{1}\u{1f}-chars",
];

struct ExpectedEpoch {
    epoch: u64,
    loss: f64,
    train_s: f64,
    refresh_s: f64,
    val_s: f64,
}

struct ExpectedRun {
    run: u64,
    model: String,
    dataset: String,
    epochs: Vec<ExpectedEpoch>,
}

/// Emits a randomized run through the installed sink and returns what was
/// sent, for comparison against the parsed-back log.
fn emit_random_run(rng: &mut Rng) -> ExpectedRun {
    let run = sink::next_run_id();
    let model = NASTY_NAMES[rng.below(NASTY_NAMES.len() as u64) as usize].to_string();
    let dataset = NASTY_NAMES[rng.below(NASTY_NAMES.len() as u64) as usize].to_string();
    let threads = 1 + rng.below(16);
    sink::emit(&event::run_start(run, &model, &dataset, threads));

    let n_epochs = 1 + rng.below(9);
    let mut epochs = Vec::new();
    for e in 0..n_epochs {
        // Timings are wall-clock durations, so the generator only produces
        // non-negative values — the parse-back assertions then verify the
        // serialisation layer preserved that invariant.
        let rec = event::EpochRecord {
            run,
            epoch: e,
            loss: rng.f64() * 2.0 - 0.5, // losses may legitimately go negative
            train_s: rng.f64() * 10.0,
            refresh_s: rng.f64() * 0.5,
            val_s: if rng.below(3) == 0 { 0.0 } else { rng.f64() },
            threads,
            matrix_bytes_peak: rng.below(1 << 32),
            counters: vec![
                ("tensor.spmm.calls", rng.below(1000)),
                ("tensor.matmul.calls", rng.below(1000)),
                ("data.sampler.triples", rng.below(1 << 20)),
            ],
            val_metrics: if rng.below(2) == 0 {
                Some(event::metrics_obj(&[("recall@20".to_string(), rng.f64())]))
            } else {
                None
            },
        };
        epochs.push(ExpectedEpoch {
            epoch: e,
            loss: rec.loss,
            train_s: rec.train_s,
            refresh_s: rec.refresh_s,
            val_s: rec.val_s,
        });
        sink::emit(&rec.to_value());
    }
    let snap = lrgcn_obs::registry::snapshot();
    sink::emit(
        &event::run_summary_between(run, n_epochs, rng.f64() * 100.0, &snap, &snap, None)
            .to_value(),
    );
    ExpectedRun {
        run,
        model,
        dataset,
        epochs,
    }
}

fn field_u64(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {key:?} in {}", v.render()))
        as u64
}

fn field_f64(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {key:?} in {}", v.render()))
}

#[test]
fn random_event_streams_roundtrip_through_the_sink() {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let mut rng = Rng(0x1cde_2023);

    sink::install(Box::new(SharedBuf(buf.clone())));
    let expected: Vec<ExpectedRun> = (0..25).map(|_| emit_random_run(&mut rng)).collect();
    sink::uninstall();

    let text = String::from_utf8(buf.lock().unwrap().clone()).expect("sink output is UTF-8");
    let total_events: usize = expected.iter().map(|r| r.epochs.len() + 2).sum();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), total_events, "one line per emitted event");

    // Property 1: every line parses back as a JSON object with event + run.
    let mut by_run: BTreeMap<u64, Vec<Value>> = BTreeMap::new();
    for line in &lines {
        let v = json::parse(line)
            .unwrap_or_else(|e| panic!("unparseable sink line {line:?}: {e}"));
        assert!(
            v.get("event").and_then(Value::as_str).is_some(),
            "line lacks event tag: {line:?}"
        );
        by_run.entry(field_u64(&v, "run")).or_default().push(v);
    }
    assert_eq!(by_run.len(), expected.len(), "runs stay separable by id");

    for exp in &expected {
        let events = &by_run[&exp.run];
        // Property 2: exactly one start and one summary, in order, framing
        // the epochs.
        assert_eq!(
            events.first().unwrap().get("event").unwrap().as_str(),
            Some("run_start")
        );
        assert_eq!(
            events.last().unwrap().get("event").unwrap().as_str(),
            Some("run_summary")
        );
        let start = events.first().unwrap();
        assert_eq!(
            start.get("model").unwrap().as_str(),
            Some(exp.model.as_str()),
            "model name mangled by escaping"
        );
        assert_eq!(
            start.get("dataset").unwrap().as_str(),
            Some(exp.dataset.as_str()),
            "dataset name mangled by escaping"
        );

        let epoch_events: Vec<&Value> = events
            .iter()
            .filter(|v| v.get("event").unwrap().as_str() == Some("epoch"))
            .collect();
        assert_eq!(epoch_events.len(), exp.epochs.len());
        assert_eq!(
            field_u64(events.last().unwrap(), "epochs"),
            exp.epochs.len() as u64
        );

        let mut prev_epoch: Option<u64> = None;
        for (got, want) in epoch_events.iter().zip(&exp.epochs) {
            // Property 3: epoch indices strictly increasing within a run.
            let e = field_u64(got, "epoch");
            assert_eq!(e, want.epoch);
            if let Some(p) = prev_epoch {
                assert!(e > p, "epoch index not strictly increasing: {p} -> {e}");
            }
            prev_epoch = Some(e);

            // Property 4: f64 payloads round-trip bit-exactly.
            assert_eq!(field_f64(got, "loss"), want.loss, "loss drifted in transit");
            let t = got.get("timings_s").expect("timings_s object");
            assert_eq!(field_f64(t, "train"), want.train_s);
            assert_eq!(field_f64(t, "refresh"), want.refresh_s);
            assert_eq!(field_f64(t, "val"), want.val_s);

            // Property 5: all timings non-negative.
            for phase in ["train", "refresh", "val"] {
                assert!(
                    field_f64(t, phase) >= 0.0,
                    "negative {phase} timing in {}",
                    got.render()
                );
            }

            // Property 6: counters parse back as non-negative integers.
            let counters = got.get("counters").expect("counters object");
            for name in [
                "tensor.spmm.calls",
                "tensor.matmul.calls",
                "data.sampler.triples",
            ] {
                let c = field_f64(counters, name);
                assert!(c >= 0.0 && c.fract() == 0.0, "counter {name} not a whole number");
            }
        }
    }
}

#[test]
fn interleaved_runs_remain_separable() {
    // Two "concurrent" runs writing to one sink (the append-mode file case):
    // the run ids must let a reader demultiplex them cleanly.
    let buf = Arc::new(Mutex::new(Vec::new()));
    sink::install(Box::new(SharedBuf(buf.clone())));

    let a = sink::next_run_id();
    let b = sink::next_run_id();
    sink::emit(&event::run_start(a, "layergcn", "mooc", 1));
    sink::emit(&event::run_start(b, "lightgcn", "games", 8));
    for e in 0..3u64 {
        for &(run, loss) in &[(a, 0.5), (b, 0.7)] {
            sink::emit(
                &event::EpochRecord {
                    run,
                    epoch: e,
                    loss,
                    train_s: 0.1,
                    refresh_s: 0.01,
                    val_s: 0.0,
                    threads: 1,
                    matrix_bytes_peak: 0,
                    counters: vec![],
                    val_metrics: None,
                }
                .to_value(),
            );
        }
    }
    let snap = lrgcn_obs::registry::snapshot();
    sink::emit(&event::run_summary_between(b, 3, 1.0, &snap, &snap, None).to_value());
    sink::emit(&event::run_summary_between(a, 3, 1.5, &snap, &snap, None).to_value());
    sink::uninstall();

    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    for run in [a, b] {
        let mut epochs = Vec::new();
        let mut saw_summary = false;
        for line in text.lines() {
            let v = json::parse(line).unwrap();
            if field_u64(&v, "run") != run {
                continue;
            }
            match v.get("event").unwrap().as_str().unwrap() {
                "epoch" => epochs.push(field_u64(&v, "epoch")),
                "run_summary" => saw_summary = true,
                _ => {}
            }
        }
        assert_eq!(epochs, vec![0, 1, 2], "run {run} epochs out of order");
        assert!(saw_summary, "run {run} lost its summary");
    }
}
