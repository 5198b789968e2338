//! End-to-end and per-layer benchmark of the placement service.
//!
//! One process runs one workload against the real serving stack,
//! through public calls only: `DynamicEngine::with_attacker` with the
//! certified `ScratchAdversary` ladder, `runtime::serve`,
//! `PlacementProvider::lookup` and `ServiceHandle::{enqueue, quiesce,
//! snapshot}`. Every input (placement seed, churn trace, key stream,
//! burst nodes, pins) is derived from `--seed` and drawn before the
//! set-up clock starts.
//!
//! ```text
//! servebench --workload <lookup_zipf_b100k|churn_b100k|mixed_burst_b100k>
//!            --seed <n> --seconds <s> [--trace 0|1] [--groups <g>] [--trace-out <file>]
//! ```
//!
//! Human-readable lines (each metric with its unit and sample count,
//! attempted and failed operations per kind) come first; the last line
//! of standard output is one JSON object. With `--trace 0` it holds the
//! end-to-end metrics; with `--trace 1` the same end-to-end metrics
//! measured with spans on, under a `traced.` prefix, plus the per-layer
//! metrics. The process exits non-zero when any correctness check fails.

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use wcp_adversary::{AdversaryConfig, ScratchAdversary};
use wcp_core::engine::{AttackOutcome, Attacker};
use wcp_core::{
    ClusterEvent, DynamicConfig, DynamicEngine, Placement, RandomVariant, RepairAction,
    StrategyKind, SystemParams,
};
use wcp_service::runtime::{fan_out, serve};
use wcp_service::{
    CertificateDigest, NodeId, PlacementProvider, ServiceConfig, ServiceEvent, ServiceHandle,
    Snapshot,
};
use wcp_sim::churn::ChurnSpec;
use wcp_sim::workload::ZipfSpec;

/// Initial membership: the paper's n = 71 cluster.
const N: u16 = 71;
/// Node slots; the spares beyond `N` keep `Join` legal.
const CAPACITY: u16 = 75;
/// Replicas per object.
const R: u16 = 3;
/// An object is unavailable once `S` of its replicas are down.
const S: u16 = 2;
/// Nodes the adversary fails.
const K: u16 = 3;
/// Objects in every workload's placement.
const B: u64 = 100_000;
/// Set-up repetitions per run, the measured run's own included.
const SETUP_REPS: usize = 9;
/// Lookups between clock reads on the reader thread.
const CHUNK: usize = 4096;
/// Length of one read-rate slice; the reported rate is the median.
const SLICE: Duration = Duration::from_millis(50);
/// Pre-drawn keys per reader stream: 2^24 u64 keys = 128 MiB, more
/// than the 105 MiB last-level cache of the reference box.
const KEYS: usize = 1 << 24;

// ---------------------------------------------------------------------
// Clock and spans.

fn clock() -> Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    *T0.get_or_init(Instant::now)
}

/// Nanoseconds since the process clock started (one time base for all
/// threads, so spans from the repair thread and the writer compare).
fn now_ns() -> u64 {
    clock().elapsed().as_nanos() as u64
}

/// One traced interval. `event` is the churn event (or burst) it
/// served; `parent` indexes the enclosing span in the same trace.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    event: u64,
    /// Operations the span covers (batched read spans hold many calls).
    ops: u64,
    /// The event kind, on per-event spans.
    tag: &'static str,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The in-memory span store, written out once at exit.
#[derive(Debug, Default)]
struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    fn push(&mut self, name: &'static str, start: u64, end: u64, event: u64, ops: u64) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: None,
            event,
            ops,
            tag: "",
        });
        self.spans.len() - 1
    }

    /// Self time of span `id`: its duration minus what its children cover.
    fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ns)
            .sum();
        self.spans[id].ns().saturating_sub(children)
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"event\":{},\"ops\":{},\"tag\":\"{}\"}}",
                s.name, s.start, s.end, s.event, s.ops, s.tag
            );
        }
        out
    }
}

/// One `Attacker::attack` call as the timing wrapper saw it.
#[derive(Debug, Clone, Copy)]
struct AttackCall {
    start: u64,
    end: u64,
    exact: bool,
}

/// Forwards to `ScratchAdversary` and records each call's interval and
/// exactness; the outcome (certificate included) is returned untouched.
#[derive(Debug)]
struct TimedAttacker {
    inner: ScratchAdversary,
    calls: Arc<Mutex<Vec<AttackCall>>>,
}

impl Attacker for TimedAttacker {
    fn attack(&self, placement: &Placement, s: u16, k: u16) -> AttackOutcome {
        let start = now_ns();
        let outcome = self.inner.attack(placement, s, k);
        let end = now_ns();
        if let Ok(mut calls) = self.calls.lock() {
            calls.push(AttackCall {
                start,
                end,
                exact: outcome.exact,
            });
        }
        outcome
    }
}

/// The attacker a run uses: the bare ladder untraced, the timing
/// wrapper traced. Both run the identical certified ladder.
enum Adversary {
    Plain(ScratchAdversary),
    Timed(TimedAttacker),
}

impl Attacker for Adversary {
    fn attack(&self, placement: &Placement, s: u16, k: u16) -> AttackOutcome {
        match self {
            Adversary::Plain(a) => a.attack(placement, s, k),
            Adversary::Timed(a) => a.attack(placement, s, k),
        }
    }
}

fn adversary(calls: Option<&Arc<Mutex<Vec<AttackCall>>>>) -> Adversary {
    let inner = ScratchAdversary::new(AdversaryConfig::default());
    match calls {
        None => Adversary::Plain(inner),
        Some(calls) => Adversary::Timed(TimedAttacker {
            inner,
            calls: Arc::clone(calls),
        }),
    }
}

fn take_calls(calls: &Arc<Mutex<Vec<AttackCall>>>) -> Vec<AttackCall> {
    calls
        .lock()
        .map(|mut c| std::mem::take(&mut *c))
        .unwrap_or_default()
}

// ---------------------------------------------------------------------
// Seeded inputs.

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeds for the independent generators, all derived from `--seed`.
#[derive(Debug, Clone, Copy)]
struct Seeds {
    placement: u64,
    churn_index: u64,
    zipf: u64,
    uniform: u64,
    bursts: u64,
    pins: u64,
}

impl Seeds {
    fn from(seed: u64) -> Self {
        let at = |tag: u64| splitmix64(seed ^ splitmix64(tag));
        Self {
            placement: at(1),
            churn_index: at(2),
            zipf: at(3),
            uniform: at(4),
            bursts: at(5),
            pins: at(6),
        }
    }
}

/// A splitmix64 stream for the benchmark's own uniform draws.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `0..bound`.
    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
    }
}

fn uniform_keys(seed: u64) -> Vec<u64> {
    let mut rng = Stream(seed);
    (0..KEYS).map(|_| rng.below(B)).collect()
}

// ---------------------------------------------------------------------
// Engine set-up.

fn params() -> SystemParams {
    SystemParams::new(N, B, R, S, K).expect("the benchmark shape is valid")
}

fn kind(seeds: &Seeds) -> StrategyKind {
    StrategyKind::Random {
        seed: seeds.placement,
        variant: RandomVariant::LoadBalanced,
    }
}

fn build_engine(seeds: &Seeds, attacker: Adversary) -> DynamicEngine<Adversary> {
    DynamicEngine::with_attacker(
        params(),
        kind(seeds),
        CAPACITY,
        DynamicConfig::default(),
        attacker,
    )
    .expect("the engine builds at the benchmark shape")
}

/// Set-up timings of one engine construction + serve start.
#[derive(Debug, Clone, Copy)]
struct SetupSample {
    build_s: f64,
    first_snapshot_s: f64,
}

impl SetupSample {
    fn total(&self) -> f64 {
        self.build_s + self.first_snapshot_s
    }
}

/// Builds and starts `reps - 1` throwaway services, timing each from
/// engine construction to the first servable snapshot (the serve body's
/// first instruction), and checks they all serve the same forward map.
/// The measured run's own set-up is the last repetition (see
/// [`run_served`]).
fn setup_reps(seeds: &Seeds, reps: usize, checks: &mut Checks) -> Vec<SetupSample> {
    let mut samples = Vec::new();
    let mut digest = None;
    for _ in 1..reps {
        let t0 = now_ns();
        let engine = build_engine(seeds, adversary(None));
        let t1 = now_ns();
        let ((t2, d), _, _) = serve(engine, &ServiceConfig::default(), |h| {
            (now_ns(), h.snapshot().forward_digest())
        });
        samples.push(SetupSample {
            build_s: secs(t1 - t0),
            first_snapshot_s: secs(t2 - t1),
        });
        checks.expect(
            *digest.get_or_insert(d) == d,
            "set-up repetitions serve the same forward map",
        );
    }
    samples
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

// ---------------------------------------------------------------------
// Correctness bookkeeping.

#[derive(Debug, Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: &str) {
        if !ok && !self.failures.iter().any(|f| f == what) {
            self.failures.push(what.to_string());
        }
    }
}

/// Operation counts, kept apart for lookups and events.
#[derive(Debug, Default, Clone, Copy)]
struct Ops {
    lookups: u64,
    lookups_failed: u64,
    events: u64,
    events_failed: u64,
}

// ---------------------------------------------------------------------
// The reader.

/// What one reader thread measured.
#[derive(Debug, Default)]
struct ReadStats {
    /// Per-slice lookup rates (lookups per second), untraced mode.
    slice_rates: Vec<f64>,
    lookups: u64,
    misses: u64,
    /// Batched read spans, traced mode.
    spans: Vec<Span>,
}

/// One batch of per-call `PlacementProvider::lookup`s. Traced, it is
/// one span, followed by a span of as many bare
/// `ServiceHandle::snapshot()` acquires and a span of `Snapshot::lookup`
/// on one held snapshot over the same keys.
fn read_batch(handle: &ServiceHandle, batch: &[u64], traced: bool, stats: &mut ReadStats) {
    let mut sink = 0u64;
    let t0 = now_ns();
    for &key in batch {
        match handle.lookup(key) {
            Some(node) => sink = sink.wrapping_add(u64::from(node)),
            None => stats.misses += 1,
        }
    }
    stats.lookups += batch.len() as u64;
    if traced {
        let t1 = now_ns();
        stats
            .spans
            .push(read_span("service.lookup", t0, t1, batch.len()));
        for _ in batch {
            sink = sink.wrapping_add(black_box(handle.snapshot()).epoch());
        }
        let t2 = now_ns();
        stats
            .spans
            .push(read_span("service.snapshot_acquire", t1, t2, batch.len()));
        let held = handle.snapshot();
        let t3 = now_ns();
        for &key in batch {
            sink = sink.wrapping_add(held.lookup(key).map_or(0, u64::from));
        }
        let t4 = now_ns();
        stats
            .spans
            .push(read_span("service.snapshot_index", t3, t4, batch.len()));
    }
    black_box(sink);
}

/// Reads `keys` (cycled) in `CHUNK` batches until `stop` is raised.
/// Untraced, the clock is read once per batch to cut rate slices.
fn read_until(handle: &ServiceHandle, keys: &[u64], stop: &AtomicBool, traced: bool) -> ReadStats {
    let mut stats = ReadStats::default();
    let mut at = 0usize;
    let mut slice_start = Instant::now();
    let mut slice_lookups = 0u64;
    while !stop.load(Ordering::SeqCst) {
        read_batch(handle, &keys[at..at + CHUNK], traced, &mut stats);
        at = (at + CHUNK) % keys.len();
        if !traced {
            slice_lookups += CHUNK as u64;
            let elapsed = slice_start.elapsed();
            if elapsed >= SLICE {
                stats
                    .slice_rates
                    .push(slice_lookups as f64 / elapsed.as_secs_f64());
                slice_start = Instant::now();
                slice_lookups = 0;
            }
        }
    }
    stats
}

/// One pass of per-call lookups over `keys`, timed as one rate slice.
fn read_pass(handle: &ServiceHandle, keys: &[u64], traced: bool, stats: &mut ReadStats) {
    let t0 = Instant::now();
    for batch in keys.chunks(CHUNK) {
        read_batch(handle, batch, traced, stats);
    }
    if !traced {
        let rate = keys.len() as f64 / t0.elapsed().as_secs_f64();
        stats.slice_rates.push(rate);
    }
}

fn read_span(name: &'static str, start: u64, end: u64, ops: usize) -> Span {
    Span {
        name,
        start,
        end,
        parent: None,
        event: 0,
        ops: ops as u64,
        tag: "",
    }
}

// ---------------------------------------------------------------------
// Statistics.

fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Linear interpolation between closest ranks.
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median per-call lookup rate over a traced reader's lookup batches.
fn per_call_rate(stats: &ReadStats) -> f64 {
    let rates: Vec<f64> = stats
        .spans
        .iter()
        .filter(|s| s.name == "service.lookup")
        .map(|s| s.ops as f64 * 1e9 / s.ns().max(1) as f64)
        .collect();
    median(&rates)
}

/// A reported metric: name, value, unit and how many samples made it.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

// ---------------------------------------------------------------------
// The write path: served run, then direct replay.

/// One event the writer enqueued, and what the served run showed for it.
#[derive(Debug, Clone)]
struct Delivered {
    event: ServiceEvent,
    /// Group (closed-loop step or burst) the event was enqueued in.
    group: u64,
    enqueued: u64,
    published: u64,
}

/// The served state at the end of one group, after `quiesce`.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// Index one past the group's last event in the delivered list.
    upto: usize,
    epochs: u64,
    certificate: Option<CertificateDigest>,
}

/// Everything the served half of a write workload records.
#[derive(Debug, Default)]
struct WriteLog {
    delivered: Vec<Delivered>,
    checkpoints: Vec<Checkpoint>,
    refused: u64,
}

impl WriteLog {
    /// Enqueues `events` back to back as one group, waits in `quiesce`,
    /// and records each event's enqueue → publish latency plus the
    /// published epoch delta and certificate digest.
    fn group(&mut self, handle: &ServiceHandle, events: &[ServiceEvent]) {
        let group = self.checkpoints.len() as u64;
        let before = handle.published_epoch();
        let first = self.delivered.len();
        for event in events {
            let enqueued = now_ns();
            if !handle.enqueue(event.clone()) {
                self.refused += 1;
                continue;
            }
            self.delivered.push(Delivered {
                event: event.clone(),
                group,
                enqueued,
                published: 0,
            });
        }
        handle.quiesce();
        let published = now_ns();
        for d in &mut self.delivered[first..] {
            d.published = published;
        }
        let snap = handle.snapshot();
        self.checkpoints.push(Checkpoint {
            upto: self.delivered.len(),
            epochs: snap.epoch() - before,
            certificate: snap.certificate().copied(),
        });
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.delivered
            .iter()
            .map(|d| ms(d.published - d.enqueued))
            .collect()
    }
}

/// What the direct replay of a delivered trace measured per event.
#[derive(Debug, Default, Clone, Copy)]
struct ReplayStep {
    apply_ns: u64,
    build_ns: u64,
    digest_ns: u64,
}

/// Replays the delivered events straight through `DynamicEngine::apply`,
/// `Snapshot::from_placement` and `CertificateDigest::of`, checking every
/// adopted certificate with `wcp_verify::verify_node`, every checkpoint's
/// certificate digest, and returning the final forward digest. Traced,
/// each event becomes a `replay.event` span with `dynamic.apply`
/// (attack children), `service.snapshot_build` and
/// `service.cert_digest` beneath it.
fn replay(
    seeds: &Seeds,
    log: &WriteLog,
    trace: Option<&mut Trace>,
    checks: &mut Checks,
    steps_out: &mut Vec<ReplayStep>,
    actions: &mut Vec<(RepairAction, u64)>,
) -> (u64, Placement, Vec<(u64, Vec<NodeId>)>) {
    let calls = trace.as_ref().map(|_| Arc::new(Mutex::new(Vec::new())));
    let mut engine = build_engine(seeds, adversary(calls.as_ref()));
    let mut trace = trace;
    let mut pins: Vec<(u64, Vec<NodeId>)> = Vec::new();
    let mut certificate: Option<CertificateDigest> = None;
    let mut checkpoint = 0usize;
    let mut last = Snapshot::from_placement(0, engine.placement(), &pins, None);
    for (i, d) in log.delivered.iter().enumerate() {
        let t0 = now_ns();
        let mut cert_now = None;
        match &d.event {
            ServiceEvent::Churn(ev) => match engine.apply(*ev) {
                Ok(step) => {
                    actions.push((step.action, step.moved));
                    checks.expect(
                        step.certificate.is_some(),
                        "every applied event is certified",
                    );
                    if let Some(cert) = &step.certificate {
                        checks.expect(
                            wcp_verify::verify_node(cert, engine.placement()).is_ok(),
                            "every adopted certificate passes wcp_verify::verify_node",
                        );
                    }
                    cert_now = step.certificate;
                }
                Err(_) => checks.expect(false, "the direct replay accepts every event"),
            },
            ServiceEvent::Upsert { object, nodes } => {
                match pins.binary_search_by_key(object, |(o, _)| *o) {
                    Ok(at) => pins[at].1.clone_from(nodes),
                    Err(at) => pins.insert(at, (*object, nodes.clone())),
                }
            }
            ServiceEvent::Release { object } => {
                if let Ok(at) = pins.binary_search_by_key(object, |(o, _)| *o) {
                    pins.remove(at);
                }
            }
        }
        let t1 = now_ns();
        let snap = Snapshot::from_placement(i as u64 + 1, engine.placement(), &pins, None);
        let t2 = now_ns();
        let digest = cert_now.as_ref().map(CertificateDigest::of);
        let t3 = now_ns();
        if digest.is_some() {
            certificate = digest;
        }
        last = snap;
        steps_out.push(ReplayStep {
            apply_ns: t1 - t0,
            build_ns: t2 - t1,
            digest_ns: if digest.is_some() { t3 - t2 } else { 0 },
        });
        if let (Some(trace), Some(calls)) = (trace.as_deref_mut(), calls.as_ref()) {
            let root = trace.push("replay.event", t0, t3, d.group, 1);
            trace.spans[root].tag = event_tag(&d.event);
            if matches!(d.event, ServiceEvent::Churn(_)) {
                let apply = trace.push("dynamic.apply", t0, t1, d.group, 1);
                trace.spans[apply].parent = Some(root);
                for call in take_calls(calls) {
                    let name = "adversary.attack";
                    let exact = u64::from(call.exact);
                    let id = trace.push(name, call.start, call.end, d.group, exact);
                    trace.spans[id].parent = Some(apply);
                }
            }
            let build = trace.push("service.snapshot_build", t1, t2, d.group, 1);
            trace.spans[build].parent = Some(root);
            if digest.is_some() {
                let dg = trace.push("service.cert_digest", t2, t3, d.group, 1);
                trace.spans[dg].parent = Some(root);
            }
        }
        // At the end of each served group, the published snapshot must
        // carry the digest of the group's last certificate.
        while checkpoint < log.checkpoints.len() && log.checkpoints[checkpoint].upto == i + 1 {
            let group_certified = log.delivered[..=i]
                .iter()
                .rev()
                .take_while(|x| x.group == d.group)
                .any(|x| matches!(x.event, ServiceEvent::Churn(_)));
            let expected = if group_certified { certificate } else { None };
            checks.expect(
                log.checkpoints[checkpoint].certificate == expected,
                "each published certificate digest equals the replay's",
            );
            checkpoint += 1;
        }
    }
    (last.forward_digest(), engine.placement().clone(), pins)
}

fn event_tag(event: &ServiceEvent) -> &'static str {
    match event {
        ServiceEvent::Churn(ev) => ev.label(),
        ServiceEvent::Upsert { .. } => "upsert",
        ServiceEvent::Release { .. } => "release",
    }
}

/// Checks that every object's per-call lookup returns the replay's
/// primary.
fn check_all(handle: &ServiceHandle, expected: &Snapshot, ops: &mut Ops, checks: &mut Checks) {
    let b = expected.num_objects();
    let wrong = (0..b)
        .filter(|&o| handle.lookup(o) != expected.lookup(o))
        .count() as u64;
    ops.lookups += b;
    ops.lookups_failed += wrong;
    checks.expect(wrong == 0, "every lookup returns the replay's primary");
}

// ---------------------------------------------------------------------
// Workloads.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    LookupZipf,
    Churn,
    MixedBurst,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "lookup_zipf_b100k" => Some(Self::LookupZipf),
            "churn_b100k" => Some(Self::Churn),
            "mixed_burst_b100k" => Some(Self::MixedBurst),
            _ => None,
        }
    }

    /// Write groups per unit the run may stop after.
    fn pairing(self) -> usize {
        match self {
            Self::Churn => 1,
            Self::LookupZipf | Self::MixedBurst => 2,
        }
    }
}

/// Pre-drawn inputs: none of this is inside the set-up clock.
struct Inputs {
    /// Keys a reader thread cycles through for the whole window, or,
    /// without one, the keys read in one pass after every write group.
    keys: Vec<u64>,
    reader: bool,
    /// Groups of events the writer enqueues back to back, in order.
    groups: Vec<Vec<ServiceEvent>>,
}

fn inputs(workload: Workload, seeds: &Seeds, seconds: f64) -> Inputs {
    match workload {
        Workload::LookupZipf => {
            // Pin/release pairs on seeded objects: the only writes.
            let mut rng = Stream(seeds.pins);
            let mut groups = Vec::new();
            for _ in 0..(seconds * 20.0) as usize + 16 {
                let object = rng.below(B);
                let mut nodes: Vec<NodeId> = Vec::new();
                while nodes.len() < usize::from(R) {
                    let v = rng.below(u64::from(N)) as NodeId;
                    if !nodes.contains(&v) {
                        nodes.push(v);
                    }
                }
                groups.push(vec![ServiceEvent::Upsert { object, nodes }]);
                groups.push(vec![ServiceEvent::Release { object }]);
            }
            Inputs {
                keys: ZipfSpec::ycsb(B, seeds.zipf).sampler(0).table(KEYS),
                reader: true,
                groups,
            }
        }
        Workload::Churn => {
            let spec = ChurnSpec {
                label: "servebench-churn".to_string(),
                capacity: CAPACITY,
                initial_active: N,
                min_active: N - 8,
                events: 600,
                seed_index: seeds.churn_index,
            };
            let groups = spec
                .generate()
                .events
                .iter()
                .map(|e| vec![ServiceEvent::Churn(ClusterEvent::from(e))])
                .collect();
            Inputs {
                keys: (0..B).collect(),
                reader: false,
                groups,
            }
        }
        Workload::MixedBurst => {
            // Rack-outage bursts: two distinct initial nodes fail back
            // to back, then recover back to back.
            let mut rng = Stream(seeds.bursts);
            let mut groups = Vec::new();
            for _ in 0..64 {
                let a = rng.below(u64::from(N)) as NodeId;
                let mut c = rng.below(u64::from(N) - 1) as NodeId;
                if c >= a {
                    c += 1;
                }
                let ev = |e| ServiceEvent::Churn(e);
                groups.push(vec![
                    ev(ClusterEvent::Fail { node: a }),
                    ev(ClusterEvent::Fail { node: c }),
                ]);
                groups.push(vec![
                    ev(ClusterEvent::Recover { node: a }),
                    ev(ClusterEvent::Recover { node: c }),
                ]);
            }
            Inputs {
                keys: uniform_keys(seeds.uniform),
                reader: true,
                groups,
            }
        }
    }
}

/// The served half's raw results.
struct Served {
    setup: SetupSample,
    read: ReadStats,
    log: WriteLog,
    rejected: u64,
    applied: u64,
    epochs: u64,
    final_digest: u64,
    handle: ServiceHandle,
    attack_calls: Vec<AttackCall>,
}

/// Builds the engine and runs the served workload for `seconds`.
fn run_served(
    workload: Workload,
    seeds: &Seeds,
    inputs: &Inputs,
    window: Window,
    traced: bool,
) -> Served {
    let calls = traced.then(|| Arc::new(Mutex::new(Vec::new())));
    let t0 = now_ns();
    let engine = build_engine(seeds, adversary(calls.as_ref()));
    let t1 = now_ns();
    let stop = AtomicBool::new(false);
    let ((t2, read, log, final_digest, handle), report, _engine) =
        serve(engine, &ServiceConfig::default(), |handle| {
            let t2 = now_ns();
            let deadline = Instant::now() + Duration::from_secs_f64(window.seconds);
            // Worker 0 writes (and, without a reader, reads between
            // groups); worker 1, when the workload has one, reads.
            let workers = if inputs.reader { 2 } else { 1 };
            let mut results = fan_out(workers, |worker| {
                if worker == 1 {
                    return (None, read_until(handle, &inputs.keys, &stop, traced));
                }
                let mut log = WriteLog::default();
                let mut passes = ReadStats::default();
                for (g, group) in inputs.groups.iter().enumerate() {
                    // Groups come in pairs (pin/release, fail/recover)
                    // where the workload says so; a run stops only
                    // between pairs, so its final state is comparable.
                    let done = match window.groups {
                        Some(groups) => g >= groups,
                        None => g % workload.pairing() == 0 && Instant::now() >= deadline,
                    };
                    if done {
                        break;
                    }
                    log.group(handle, group);
                    if workload == Workload::LookupZipf {
                        // Think time: pins are rare next to reads.
                        thread::sleep(Duration::from_millis(100));
                    }
                    if !inputs.reader {
                        // Without a reader thread, the settled service is
                        // read between events, so read samples spread
                        // over the whole window.
                        read_pass(handle, &inputs.keys, traced, &mut passes);
                    }
                }
                if inputs.reader {
                    // The reader reads for the full window.
                    thread::sleep(deadline.saturating_duration_since(Instant::now()));
                }
                stop.store(true, Ordering::SeqCst);
                (Some(log), passes)
            })
            .into_iter();
            let (log, passes) = results.next().unwrap_or_default();
            let read = results.next().map_or(passes, |(_, r)| r);
            let log = log.unwrap_or_default();
            (
                t2,
                read,
                log,
                handle.snapshot().forward_digest(),
                handle.clone(),
            )
        });
    Served {
        setup: SetupSample {
            build_s: secs(t1 - t0),
            first_snapshot_s: secs(t2 - t1),
        },
        read,
        log,
        rejected: report.rejected,
        applied: report.applied,
        epochs: report.epochs,
        final_digest,
        handle,
        attack_calls: calls.as_ref().map(take_calls).unwrap_or_default(),
    }
}

/// The whole run's report.
struct Outcome {
    metrics: Vec<Metric>,
    ops: Ops,
    checks: Checks,
    trace: Trace,
    notes: Vec<String>,
}

/// How long the served run lasts: `seconds` of wall time, or exactly
/// `groups` write groups when given (so a traced run can replay the
/// same events as an untraced one and compare their forward digests).
#[derive(Debug, Clone, Copy)]
struct Window {
    seconds: f64,
    groups: Option<usize>,
}

fn run(workload: Workload, seed: u64, window: Window, traced: bool) -> Outcome {
    let seeds = Seeds::from(seed);
    let mut checks = Checks::default();
    let mut ops = Ops::default();
    let mut notes = Vec::new();
    let t_start = now_ns();
    let inputs = inputs(workload, &seeds, window.seconds);

    let inputs_s = secs(now_ns() - t_start);

    // Set-up: throwaway repetitions, then the measured run's own.
    let mut setup = setup_reps(&seeds, SETUP_REPS, &mut checks);
    let served = run_served(workload, &seeds, &inputs, window, traced);
    setup.push(served.setup);
    // The high-water mark of the served run, before the replay's own
    // allocations can raise it.
    let rss = wcp_bench::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);

    // Served-run checks.
    ops.events = served.log.delivered.len() as u64 + served.log.refused;
    ops.events_failed = served.log.refused + served.rejected;
    checks.expect(served.log.refused == 0, "no enqueue is refused");
    checks.expect(served.rejected == 0, "no trace event is rejected");
    let churn_events = served
        .log
        .delivered
        .iter()
        .filter(|d| matches!(d.event, ServiceEvent::Churn(_)))
        .count() as u64;
    checks.expect(
        served.applied == churn_events,
        "every churn event is applied",
    );
    for (g, cp) in served.log.checkpoints.iter().enumerate() {
        let size = served
            .log
            .delivered
            .iter()
            .filter(|d| d.group == g as u64)
            .count() as u64;
        // A group of m back-to-back events publishes between 1 and m
        // epochs: at least one because quiesce waited for it, at most
        // one per event because the single drainer publishes per batch.
        checks.expect(
            (1..=size.max(1)).contains(&cp.epochs),
            "every group lands in 1..=size epochs",
        );
    }
    let epochs_per_event = served.epochs as f64 / (served.log.delivered.len().max(1)) as f64;
    let read = &served.read;
    ops.lookups += read.lookups;
    ops.lookups_failed += read.misses;
    checks.expect(read.misses == 0, "every in-range lookup returns Some");
    checks.expect(read.lookups > 0, "the run made lookups");

    // Direct replay: the reference for digests and certificates, and in
    // traced runs the source of apply / snapshot-build / digest spans.
    let mut trace = Trace::default();
    let mut steps = Vec::new();
    let mut actions = Vec::new();
    let t_replay = now_ns();
    let (replay_digest, placement, pins) = replay(
        &seeds,
        &served.log,
        traced.then_some(&mut trace),
        &mut checks,
        &mut steps,
        &mut actions,
    );
    checks.expect(
        served.final_digest == replay_digest,
        "the served forward digest equals the direct replay's",
    );
    let replay_s = secs(now_ns() - t_replay);
    if !traced {
        let q = |p| quantile(&read.slice_rates, p) / 1e6;
        notes.push(format!(
            "read slices p10/p50/p90 = {:.2}/{:.2}/{:.2} M lookups/s",
            q(0.1),
            q(0.5),
            q(0.9)
        ));
    }
    let expected = Snapshot::from_placement(0, &placement, &pins, None);
    check_all(&served.handle, &expected, &mut ops, &mut checks);
    notes.push(format!(
        "groups={} final_forward_digest={:016x} inputs_s={inputs_s:.2} replay_s={replay_s:.2}",
        served.log.checkpoints.len(),
        served.final_digest
    ));

    // End-to-end metrics.
    let prefix = if traced { "traced." } else { "" };
    let mut metrics = Vec::new();
    let (rate, rate_samples) = if traced {
        (per_call_rate(read), read.spans.len() / 3)
    } else {
        (median(&read.slice_rates), read.slice_rates.len())
    };
    metrics.push(metric(
        &format!("{prefix}lookups_per_s"),
        rate,
        "1/s",
        rate_samples,
    ));
    let lat = served.log.latencies_ms();
    metrics.push(metric(
        &format!("{prefix}publish_p50_ms"),
        quantile(&lat, 0.5),
        "ms",
        lat.len(),
    ));
    let totals: Vec<f64> = setup.iter().map(SetupSample::total).collect();
    metrics.push(metric(
        &format!("{prefix}setup_s"),
        median(&totals),
        "s",
        totals.len(),
    ));
    metrics.push(metric(&format!("{prefix}peak_rss_mib"), rss, "MiB", 1));

    if traced {
        trace.spans.extend(read.spans.iter().cloned());
        for d in &served.log.delivered {
            let id = trace.push("service.publish", d.enqueued, d.published, d.group, 1);
            trace.spans[id].tag = event_tag(&d.event);
        }
        for call in &served.attack_calls {
            trace.push(
                "served.attack",
                call.start,
                call.end,
                0,
                u64::from(call.exact),
            );
        }
        metrics.extend(layer_metrics(
            &trace,
            &served,
            &steps,
            &actions,
            &setup,
            epochs_per_event,
        ));
    }
    Outcome {
        metrics,
        ops,
        checks,
        trace,
        notes,
    }
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    trace: &Trace,
    served: &Served,
    steps: &[ReplayStep],
    actions: &[(RepairAction, u64)],
    setup: &[SetupSample],
    epochs_per_event: f64,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let per_call_ns = |name: &str| -> (f64, usize) {
        let v: Vec<f64> = trace
            .named(name)
            .map(|(_, s)| s.ns() as f64 / s.ops.max(1) as f64)
            .collect();
        (median(&v), v.len())
    };
    for (metric_name, span) in [
        ("service.lookup_ns", "service.lookup"),
        ("service.snapshot_acquire_ns", "service.snapshot_acquire"),
        ("service.snapshot_index_ns", "service.snapshot_index"),
    ] {
        let (v, n) = per_call_ns(span);
        out.push(metric(metric_name, v, "ns", n));
    }

    // Served latency minus the replayed work of the same event.
    let waits: Vec<f64> = served
        .log
        .delivered
        .iter()
        .zip(steps)
        .map(|(d, s)| ms(d.published - d.enqueued) - ms(s.apply_ns + s.build_ns + s.digest_ns))
        .collect();
    out.push(metric(
        "service.queue_wait_ms",
        median(&waits),
        "ms",
        waits.len(),
    ));
    out.push(metric(
        "service.epochs_per_event",
        epochs_per_event,
        "epochs",
        served.log.delivered.len(),
    ));
    let col = |f: fn(&ReplayStep) -> u64| -> Vec<f64> {
        steps
            .iter()
            .map(|s| ms(f(s)))
            .filter(|&v| v > 0.0)
            .collect()
    };
    let builds = col(|s| s.build_ns);
    out.push(metric(
        "service.snapshot_build_ms",
        median(&builds),
        "ms",
        builds.len(),
    ));
    let digests = col(|s| s.digest_ns);
    out.push(metric(
        "service.cert_digest_ms",
        median(&digests),
        "ms",
        digests.len(),
    ));

    let applies: Vec<(usize, &Span)> = trace.named("dynamic.apply").collect();
    let apply_ms: Vec<f64> = applies.iter().map(|(_, s)| ms(s.ns())).collect();
    out.push(metric(
        "dynamic.apply_ms",
        median(&apply_ms),
        "ms",
        apply_ms.len(),
    ));
    let self_ms: Vec<f64> = applies
        .iter()
        .map(|(id, _)| ms(trace.self_ns(*id)))
        .collect();
    out.push(metric(
        "dynamic.apply_self_ms",
        median(&self_ms),
        "ms",
        self_ms.len(),
    ));
    let replans = actions
        .iter()
        .filter(|(a, _)| *a == RepairAction::Replanned)
        .count();
    let share = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.push(metric(
        "dynamic.replan_share",
        share(replans, actions.len()),
        "ratio",
        actions.len(),
    ));
    let moved: u64 = actions.iter().map(|(_, m)| m).sum();
    out.push(metric(
        "dynamic.moved_per_event",
        share(moved as usize, actions.len()),
        "objects",
        actions.len(),
    ));

    // Attack calls in order within their apply: adopted, then oracle.
    let mut adopted = Vec::new();
    let mut oracle = Vec::new();
    let mut attacks = 0usize;
    let mut exact = 0usize;
    for (id, _) in &applies {
        let mut children: Vec<&Span> = trace
            .spans
            .iter()
            .filter(|c| c.parent == Some(*id) && c.name == "adversary.attack")
            .collect();
        children.sort_by_key(|c| c.start);
        attacks += children.len();
        exact += children.iter().filter(|c| c.ops == 1).count();
        if let Some(c) = children.first() {
            adopted.push(ms(c.ns()));
        }
        if let Some(c) = children.get(1) {
            oracle.push(ms(c.ns()));
        }
    }
    out.push(metric(
        "adversary.attack_adopted_ms",
        median(&adopted),
        "ms",
        adopted.len(),
    ));
    out.push(metric(
        "adversary.attack_oracle_ms",
        median(&oracle),
        "ms",
        oracle.len(),
    ));
    out.push(metric(
        "adversary.attacks_per_event",
        share(attacks, applies.len()),
        "calls",
        applies.len(),
    ));
    out.push(metric(
        "adversary.exact_share",
        share(exact, attacks),
        "ratio",
        attacks,
    ));

    let builds_s: Vec<f64> = setup.iter().map(|s| s.build_s).collect();
    out.push(metric(
        "setup.engine_build_s",
        median(&builds_s),
        "s",
        builds_s.len(),
    ));
    let first: Vec<f64> = setup.iter().map(|s| s.first_snapshot_s * 1e3).collect();
    out.push(metric(
        "setup.first_snapshot_ms",
        median(&first),
        "ms",
        first.len(),
    ));

    // How much of the traced publish p50 the blocking stages' medians
    // account for: attacks + apply self + snapshot build + digest +
    // queue wait.
    let lat = served.log.latencies_ms();
    out.push(metric(
        "service.publish_p90_ms",
        quantile(&lat, 0.9),
        "ms",
        lat.len(),
    ));
    let p50 = quantile(&lat, 0.5);
    let parts = median(&adopted)
        + median(&oracle)
        + median(&self_ms)
        + median(&builds)
        + median(&digests)
        + median(&waits);
    out.push(metric(
        "trace.publish_accounted_pct",
        if p50 > 0.0 { 100.0 * parts / p50 } else { 0.0 },
        "%",
        lat.len(),
    ));
    out
}

// ---------------------------------------------------------------------
// Command line and output.

struct Args {
    workload: Workload,
    seed: u64,
    window: Window,
    traced: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut trace_out = None;
    let mut groups = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => traced = value()? == "1",
            "--trace-out" => trace_out = Some(value()?),
            "--groups" => groups = Some(value()?.parse().map_err(|e| format!("--groups: {e}"))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        window: Window { seconds, groups },
        traced,
        trace_out,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    clock();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(args.workload, args.seed, args.window, args.traced);
    for m in &out.metrics {
        println!(
            "metric {:<32} {:>16.4} {:<7} samples={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "ops lookups attempted={} failed={}; events attempted={} failed={}",
        out.ops.lookups, out.ops.lookups_failed, out.ops.events, out.ops.events_failed
    );
    for note in &out.notes {
        println!("note {note}");
    }
    for failure in &out.checks.failures {
        println!("CHECK FAILED: {failure}");
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, out.trace.to_jsonl()) {
            eprintln!("servebench: writing {path}: {e}");
        }
    }
    let correct = out.checks.failures.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        (out.ops.lookups + out.ops.events).max(1),
        out.ops.lookups_failed + out.ops.events_failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
