//! Seeded workload generation. The whole schedule — due times, Zipf users,
//! event batches and new-user ids — is built from `--seed` before the
//! server starts; the program under test only ever sees these inputs.
//! Events are the log's own post-training interactions, not drawn.

use lrgcn_data::Interaction;
use lrgcn_serve::cache::{Key, TopKCache};
use lrgcn_stream::StreamEvent;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Requested top-K size of every `/recs` call.
pub const K: usize = 20;
/// Offered rate of the idle-server phase.
pub const RATE_LOW: f64 = 50.0;
/// Offered rate of the loaded phase.
pub const RATE_MID: f64 = 200.0;
/// Rate of the events-only tail phase of `serve_read`.
pub const RATE_TAIL: f64 = 100.0;
/// `/healthz` probe rate interleaved into traced phases.
pub const PROBE_RATE: f64 = 10.0;
/// Share of write-mix slots that are `POST /events`.
pub const WRITE_SHARE: f64 = 0.10;
/// Producer id prefix the benchmark stamps on events.
pub const CLIENT: &str = "perfbench";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipf reads of trained users on the exact path with the cache on.
    Read,
    /// The same reads with ~10% event writes interleaved.
    WriteMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_read" => Some(Workload::Read),
            "serve_write_mix" => Some(Workload::WriteMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Read => "serve_read",
            Workload::WriteMix => "serve_write_mix",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `GET /recs/{user}?k=K`; `after` names an event batch whose ack the
    /// client waits for first (read-your-writes; new users exist only then).
    Recs { user: u32, after: Option<usize> },
    /// `POST /events` carrying batch `id` of [`Schedule::batches`].
    Events { id: usize },
    /// `GET /healthz` probe (traced runs only).
    Healthz,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    /// Offset of the request's due time from the phase start, in ns.
    pub due_ns: u64,
    pub op: Op,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseKind {
    Low,
    Mid,
    Tail,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    pub name: String,
    pub kind: PhaseKind,
    pub rate: f64,
    pub reqs: Vec<Req>,
    /// Users requested sequentially, untimed, before the phase starts so
    /// the cache state at the phase start is a function of the schedule.
    pub warm: Vec<u32>,
    /// `/recs` cache hits the schedule implies when run from the documented
    /// start state (`serve_read` only; `None` when events invalidate it).
    pub predicted_hits: Option<u64>,
}

impl Phase {
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.reqs.last().map_or(0, |r| r.due_ns))
    }

    #[cfg(test)]
    pub fn n_recs(&self) -> usize {
        self.reqs
            .iter()
            .filter(|r| matches!(r.op, Op::Recs { .. }))
            .count()
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    pub workload: Workload,
    pub phases: Vec<Phase>,
    /// The body of each `POST /events`, in schedule order.
    pub batches: Vec<Vec<Interaction>>,
}

/// splitmix64: tiny, seedable and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        (self.unit() * n as f64) as u64 % n.max(1)
    }
}

/// Zipf(s) over `n` ids, with ranks mapped to ids by a seeded permutation so
/// the hot users differ between seeds.
pub struct Zipf {
    cdf: Vec<f64>,
    ids: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Zipf { cdf, ids }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let total = *self.cdf.last().expect("Zipf over at least one id");
        let x = rng.unit() * total;
        let rank = self
            .cdf
            .partition_point(|&c| c <= x)
            .min(self.ids.len() - 1);
        self.ids[rank]
    }
}

/// Generator state shared by all phases of one schedule.
struct Gen<'a> {
    rng: Rng,
    zipf: Zipf,
    workload: Workload,
    stream: &'a [Interaction],
    /// Next unsent position in `stream`.
    cursor: usize,
    batches: Vec<Vec<Interaction>>,
    /// The write-mix batch whose user the next read asks for.
    read_back: Option<usize>,
}

impl Gen<'_> {
    /// The stream's next events that share a timestamp: a batch is what
    /// the log records as arriving at once (on the yelp-like log, whose
    /// timestamps are distinct, one event).
    fn event_batch(&mut self) -> usize {
        let rest = &self.stream[self.cursor..];
        let n = rest
            .iter()
            .take_while(|e| e.timestamp == rest[0].timestamp)
            .count();
        self.batches.push(rest[..n].to_vec());
        self.cursor += n;
        self.batches.len() - 1
    }

    fn read(&mut self) -> Op {
        // The first read after a write asks for the user it named, after
        // its ack: a user who acted reloads their recommendations, and a
        // new user can only be read once it exists.
        if let Some(id) = self.read_back.take() {
            return Op::Recs {
                user: self.batches[id][0].user,
                after: Some(id),
            };
        }
        Op::Recs {
            user: self.zipf.sample(&mut self.rng),
            after: None,
        }
    }

    fn phase(&mut self, name: &str, kind: PhaseKind, rate: f64, secs: f64) -> Phase {
        let n = ((rate * secs).round() as usize).max(1);
        let gap = 1e9 / rate;
        let reqs = (0..n)
            .map(|i| {
                let op = match kind {
                    PhaseKind::Tail => Op::Events {
                        id: self.event_batch(),
                    },
                    _ if self.workload == Workload::WriteMix && self.rng.unit() < WRITE_SHARE => {
                        let id = self.event_batch();
                        self.read_back = Some(id);
                        Op::Events { id }
                    }
                    _ => self.read(),
                };
                Req {
                    due_ns: (i as f64 * gap) as u64,
                    op,
                }
            })
            .collect();
        Phase {
            name: name.to_string(),
            kind,
            rate,
            reqs,
            warm: Vec::new(),
            predicted_hits: None,
        }
    }
}

/// Builds the schedule for `workload` at `seed`. Phase lengths are shares
/// of `seconds`: `low` 50%, `mid` 40% and the `serve_read` events tail 20%;
/// at 40 s, `low` and `mid` each hold a thousand requests or more, enough
/// for a p99 with ten samples beyond it. Reads are Zipf over the `n_users`
/// trained users; events are `stream` in order from a seeded start in its
/// first quarter, which leaves enough for `seconds` up to 300. With `probes`,
/// `/healthz` probes are interleaved into `low` and `mid` without touching
/// the seeded stream.
pub fn build(
    workload: Workload,
    seed: u64,
    seconds: f64,
    n_users: usize,
    stream: &[Interaction],
    probes: bool,
) -> Schedule {
    let mut rng = Rng::new(seed);
    let zipf = Zipf::new(n_users, 1.0, &mut rng);
    let cursor = rng.below(stream.len() as u64 / 4) as usize;
    let mut g = Gen {
        rng,
        zipf,
        workload,
        stream,
        cursor,
        batches: Vec::new(),
        read_back: None,
    };
    let mut phases = vec![
        g.phase("low", PhaseKind::Low, RATE_LOW, 0.5 * seconds),
        g.phase("mid", PhaseKind::Mid, RATE_MID, 0.4 * seconds),
    ];
    if workload == Workload::Read {
        phases.push(g.phase("tail", PhaseKind::Tail, RATE_TAIL, 0.2 * seconds));
        plan_cache(&mut phases);
    }
    if probes {
        for p in phases.iter_mut().filter(|p| p.kind != PhaseKind::Tail) {
            interleave_probes(p);
        }
    }
    Schedule {
        workload,
        phases,
        batches: g.batches,
    }
}

/// Fixes the `serve_read` cache state at every phase start: before a phase,
/// each user it requests at least twice and that is not cached yet is
/// fetched once, sequentially. Two concurrent requests can then only race
/// on a user requested once, so the phase's hit count is exactly
/// `predicted_hits` whatever the interleaving. Assumes phases run in order
/// from an empty cache and that nothing is evicted (the default capacity
/// holds every trained user).
fn plan_cache(phases: &mut [Phase]) {
    let mut cached = BTreeSet::new();
    for p in phases.iter_mut() {
        let mut count: BTreeMap<u32, u32> = BTreeMap::new();
        for r in &p.reqs {
            if let Op::Recs { user, .. } = r.op {
                *count.entry(user).or_default() += 1;
            }
        }
        p.warm = count
            .iter()
            .filter(|&(u, &c)| c >= 2 && !cached.contains(u))
            .map(|(&u, _)| u)
            .collect();
        cached.extend(p.warm.iter().copied());
        let mut hits = 0;
        for r in &p.reqs {
            if let Op::Recs { user, .. } = r.op {
                if !cached.insert(user) {
                    hits += 1;
                }
            }
        }
        p.predicted_hits = Some(hits);
    }
}

fn interleave_probes(p: &mut Phase) {
    let end = p.duration().as_nanos() as u64;
    let gap = (1e9 / PROBE_RATE) as u64;
    // Offset by half a request gap so probes never share a due time.
    let offset = (0.5e9 / p.rate) as u64;
    let probes = (0..)
        .map(|i| offset + i * gap)
        .take_while(|&t| t <= end)
        .map(|due_ns| Req {
            due_ns,
            op: Op::Healthz,
        });
    p.reqs.extend(probes);
    p.reqs.sort_by_key(|r| r.due_ns);
}

impl Schedule {
    pub fn phase(&self, name: &str) -> &Phase {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("schedule has no phase {name}"))
    }

    /// Batch `id` as the server logs it. Each batch is its own producer
    /// (`perfbench-<id>`, sequence 1, 2, ...): the log keeps a per-producer
    /// high-water mark, and two connections in flight may deliver batches
    /// out of order.
    pub fn stream_events(&self, id: usize) -> Vec<StreamEvent> {
        self.batches[id]
            .iter()
            .enumerate()
            .map(|(j, e)| StreamEvent {
                user: e.user,
                item: e.item,
                timestamp: e.timestamp,
                client: format!("{CLIENT}-{id}"),
                seq: j as u64 + 1,
                request_id: String::new(),
            })
            .collect()
    }

    /// JSONL body of one `POST /events` batch.
    pub fn events_body(&self, id: usize) -> String {
        self.stream_events(id)
            .iter()
            .map(|e| {
                format!(
                    "{{\"user\":{},\"item\":{},\"ts\":{},\"client\":\"{}\",\"seq\":{}}}\n",
                    e.user, e.item, e.timestamp, e.client, e.seq
                )
            })
            .collect()
    }

    /// The `/recs` cache keys of `phases`, in schedule order, with the
    /// delta version each read sees when every earlier batch has been
    /// folded in (the server bumps it once per accepted batch).
    pub fn cache_keys(&self, phases: &[&str]) -> Vec<Key> {
        let mut version = 0u64;
        let mut keys = Vec::new();
        for p in self.phases.iter() {
            let replay = phases.contains(&p.name.as_str());
            let warm = p.warm.iter().map(|&u| (u, true));
            let ops = p.reqs.iter().filter_map(|r| match r.op {
                Op::Recs { user, .. } => Some((user, true)),
                Op::Events { .. } => Some((0, false)),
                Op::Healthz => None,
            });
            for (user, is_read) in warm.chain(ops) {
                if !is_read {
                    version += 1;
                } else if replay {
                    keys.push(Key {
                        generation: 0,
                        user,
                        k: K,
                        exclude_seen: true,
                        quant: false,
                        nprobe: 0,
                        delta: version,
                    });
                }
            }
        }
        keys
    }
}

/// Replays a key stream through a fresh server-sized [`TopKCache`]: a miss
/// inserts a K-item answer. Returns per-lookup timings (get plus the insert
/// on a miss) and the hit count.
pub fn replay_cache(keys: &[Key], capacity: usize, shards: usize) -> (Vec<Duration>, u64) {
    let cache = TopKCache::new(capacity, shards);
    let answer: Vec<(u32, f32)> = (0..K as u32).map(|i| (i, 1.0 / (i + 1) as f32)).collect();
    let mut times = Vec::with_capacity(keys.len());
    let mut hits = 0;
    for key in keys {
        let t = Instant::now();
        match cache.get(key) {
            Some(v) => {
                hits += 1;
                std::hint::black_box(v);
            }
            None => cache.insert(*key, answer.clone()),
        }
        times.push(t.elapsed());
    }
    (times, hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// `ServerConfig::default().cache_capacity` over the two workers' shards.
    const CAPACITY: usize = 4096;

    /// The trained user count and the event stream of every run.
    fn world() -> &'static (usize, Vec<Interaction>) {
        static WORLD: OnceLock<(usize, Vec<Interaction>)> = OnceLock::new();
        WORLD.get_or_init(|| {
            let d = crate::train::data();
            (d.log.n_users(), d.stream)
        })
    }

    fn build_at(w: Workload, seed: u64, probes: bool) -> Schedule {
        let (users, stream) = world();
        build(w, seed, 30.0, *users, stream, probes)
    }

    #[test]
    fn same_seed_same_schedule_and_hit_ratio() {
        for w in [Workload::Read, Workload::WriteMix] {
            let a = build_at(w, 7, false);
            let b = build_at(w, 7, false);
            assert_eq!(a, b);
            let c = build_at(w, 8, false);
            assert_ne!(a.phases, c.phases);
            let (_, hits_a) = replay_cache(&a.cache_keys(&["low", "mid"]), CAPACITY, 2);
            let (_, hits_b) = replay_cache(&b.cache_keys(&["low", "mid"]), CAPACITY, 2);
            assert_eq!(hits_a, hits_b);
            if w == Workload::Read {
                // The key stream includes the warm-up lookups, which all miss.
                let predicted: u64 = ["low", "mid"]
                    .iter()
                    .map(|p| a.phase(p).predicted_hits.unwrap())
                    .sum();
                assert_eq!(hits_a, predicted);
                let reads = (a.phase("low").n_recs() + a.phase("mid").n_recs()) as f64;
                assert!(hits_a as f64 / reads > 0.5, "Zipf reads are mostly hits");
            }
        }
    }

    #[test]
    fn events_replay_the_stream_in_order() {
        let (users, stream) = world();
        let s = build_at(Workload::Read, 4, false);
        let sent: Vec<Interaction> = s.batches.iter().flatten().copied().collect();
        let start = stream.iter().position(|e| *e == sent[0]).unwrap();
        assert_eq!(sent, stream[start..start + sent.len()]);
        assert!(start < stream.len() / 4);
        // The longest run the command accepts fits after any start.
        for w in [Workload::Read, Workload::WriteMix] {
            let s = build(w, 4, 300.0, *users, stream, false);
            let sent: usize = s.batches.iter().map(Vec::len).sum();
            assert!(sent <= stream.len() * 3 / 4, "{sent} of {}", stream.len());
        }
    }

    #[test]
    fn write_mix_reads_of_new_users_wait_for_their_creation() {
        let users = world().0;
        let s = build_at(Workload::WriteMix, 3, false);
        let mut created = BTreeSet::new();
        let mut writes = 0usize;
        let mut total = 0usize;
        for p in &s.phases {
            for r in &p.reqs {
                total += 1;
                match r.op {
                    Op::Events { id } => {
                        writes += 1;
                        created.extend(s.batches[id].iter().map(|e| e.user));
                    }
                    Op::Recs { user, after } => {
                        if user as usize >= users {
                            let id = after.expect("new-user read has a dependency");
                            assert!(s.batches[..=id].iter().flatten().any(|e| e.user == user));
                        }
                    }
                    Op::Healthz => unreachable!("no probes requested"),
                }
            }
        }
        let share = writes as f64 / total as f64;
        assert!((0.05..0.15).contains(&share), "write share {share}");
        assert!(created.iter().any(|&u| u as usize >= users));
        assert!(created.iter().any(|&u| (u as usize) < users));
    }

    #[test]
    fn probes_leave_the_seeded_stream_alone() {
        let plain = build_at(Workload::Read, 5, false);
        let probed = build_at(Workload::Read, 5, true);
        let strip = |p: &Phase| -> Vec<Req> {
            p.reqs
                .iter()
                .copied()
                .filter(|r| r.op != Op::Healthz)
                .collect()
        };
        for (a, b) in plain.phases.iter().zip(&probed.phases) {
            assert_eq!(strip(a), strip(b));
        }
        assert!(probed.phase("mid").reqs.iter().any(|r| r.op == Op::Healthz));
    }
}
