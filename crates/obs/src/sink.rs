//! The JSONL event sink.
//!
//! A sink belongs to the thread that installed it (the CLI installs one
//! when `--log-json <path>` or `LRGCN_LOG_JSON` is given), and only that
//! thread's records reach it. A training run emits from the thread that
//! drives it, so two runs in one process — concurrent tests, or an
//! application training several models — can never interleave records in
//! each other's logs. Emitters must guard event *construction* behind
//! [`enabled`] — one thread-local load — so an uninstrumented run pays
//! nothing beyond that load:
//!
//! ```
//! use lrgcn_obs::{event, sink};
//!
//! if sink::enabled() {
//!     sink::emit(&event::run_start(7, "layergcn", "mooc", 8));
//! }
//! ```
//!
//! Each emitted [`Value`](crate::json::Value) is rendered to one line and
//! flushed immediately, so a crashed run still leaves a readable log and
//! `tail -f` works during training.

use crate::json::Value;
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static SINK: RefCell<Option<Box<dyn Write>>> = const { RefCell::new(None) };
}
static NEXT_RUN_ID: AtomicU64 = AtomicU64::new(1);

/// True when the calling thread has a sink installed. The one-load fast
/// path every emitter checks before building an event.
#[inline]
pub fn enabled() -> bool {
    SINK.with(|s| s.try_borrow().is_ok_and(|w| w.is_some()))
}

/// Installs `w` as the calling thread's sink, replacing any previous one
/// (the old writer is flushed and dropped).
pub fn install(w: Box<dyn Write>) {
    SINK.with(|s| {
        if let Some(mut old) = s.borrow_mut().replace(w) {
            let _ = old.flush();
        }
    });
}

/// Opens `path` in append mode and installs it as the sink. Append (rather
/// than truncate) keeps multi-run experiment logs in one file; records carry
/// a `run` id so runs stay separable.
pub fn install_file(path: &str) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    install(Box::new(file));
    Ok(())
}

/// Removes the calling thread's sink, flushing buffered output. Emission
/// reverts to the suppressed fast path.
pub fn uninstall() {
    SINK.with(|s| {
        if let Some(mut old) = s.borrow_mut().take() {
            let _ = old.flush();
        }
    });
}

/// Renders `event` as one JSON line and writes it to the calling thread's
/// sink. A no-op when the thread has none; callers on hot paths should
/// still check [`enabled`] first to skip building the event at all. Write
/// errors are swallowed: observability must never take down training.
pub fn emit(event: &Value) {
    SINK.with(|s| {
        let Ok(mut guard) = s.try_borrow_mut() else {
            return;
        };
        if let Some(w) = guard.as_mut() {
            let mut line = event.render();
            line.push('\n');
            let _ = w.write_all(line.as_bytes());
            let _ = w.flush();
        }
    });
}

/// Allocates a process-unique run id. The trainer stamps every event of one
/// training run with the same id so interleaved or appended runs in a single
/// JSONL file remain separable.
pub fn next_run_id() -> u64 {
    NEXT_RUN_ID.fetch_add(1, Ordering::Relaxed)
}

// Last (run, epoch) the trainer reported, read by the CLI's panic hook to
// stamp its terminal `run_abort` record. Run ids start at 1, so run 0 means
// "no progress noted yet".
static PROGRESS_RUN: AtomicU64 = AtomicU64::new(0);
static PROGRESS_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Records the trainer's current position (called once per epoch; cheap
/// enough to call unconditionally). A panic hook can then attribute the
/// crash to a run and epoch without any access to trainer internals.
#[inline]
pub fn note_progress(run: u64, epoch: u64) {
    PROGRESS_RUN.store(run, Ordering::Relaxed);
    PROGRESS_EPOCH.store(epoch, Ordering::Relaxed);
}

/// The last `(run, epoch)` recorded by [`note_progress`], or `None` when no
/// trainer has reported progress in this process.
pub fn last_progress() -> Option<(u64, u64)> {
    let run = PROGRESS_RUN.load(Ordering::Relaxed);
    if run == 0 {
        return None;
    }
    Some((run, PROGRESS_EPOCH.load(Ordering::Relaxed)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::sync::{Arc, Mutex as StdMutex};

    /// Shared buffer writer for capturing sink output in tests.
    #[derive(Clone)]
    pub struct SharedBuf(pub Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn emit_writes_one_parseable_line_per_event() {
        let buf = Arc::new(StdMutex::new(Vec::new()));
        install(Box::new(SharedBuf(buf.clone())));
        assert!(enabled());
        emit(&Value::obj([("event", Value::str("a")), ("n", Value::u64(1))]));
        emit(&Value::obj([("event", Value::str("b")), ("n", Value::u64(2))]));
        uninstall();
        assert!(!enabled());

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            json::parse(line).expect("every emitted line parses");
        }
    }

    #[test]
    fn emit_without_sink_is_a_noop() {
        uninstall();
        emit(&Value::str("dropped"));
    }

    #[test]
    fn a_sink_receives_only_its_own_threads_records() {
        let buf = Arc::new(StdMutex::new(Vec::new()));
        install(Box::new(SharedBuf(buf.clone())));
        std::thread::spawn(|| {
            assert!(!enabled(), "another thread's sink leaked in");
            emit(&Value::str("other"));
        })
        .join()
        .unwrap();
        emit(&Value::str("mine"));
        uninstall();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text, "\"mine\"\n");
    }

    #[test]
    fn run_ids_are_unique_and_increasing() {
        let a = next_run_id();
        let b = next_run_id();
        assert!(b > a);
    }
}
