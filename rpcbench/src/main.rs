//! End-to-end and per-layer RPC call benchmark.
//!
//! ```text
//! cargo run --release --manifest-path rpcbench/Cargo.toml -- \
//!     --workload echo-small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Deploys one workload through the public API, then drives a closed
//! loop from one OS thread for `--seconds`, checks every reply, and
//! repeats the cold set-up at intervals through the loop. `--trace 0`
//! reports the end-to-end metrics of the plain deployment; `--trace 1`
//! reports the per-layer split from a traced deployment plus the exact
//! per-call counts. Human-readable lines come first; the last line of
//! standard output is one JSON object. See `rpcbench/README.md`.

mod echo;
mod nfs;
mod probe;
mod stats;
mod trace;
mod wire;

use specrpc_netsim::net::NetworkConfig;
use specrpc_netsim::SimTime;
use specrpc_rpc::{ClntTcp, ClntUdp, CoalesceStats, Transport};
use stats::{median, quantile_of};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use wire::{Plain, Spans, Wrap};

/// Closed-loop steps run inside set-up, before the first timed call.
pub const WARMUP_STEPS: usize = 512;
/// Cold set-ups per run, the first before the timed loop and the rest
/// spread evenly through it.
const SETUP_REPS: usize = 81;
/// The timed loop is cut into slices of this many closed-loop steps, one
/// sync call each; each slice yields a throughput and its own p50/p99
/// latency. Every workload replays the same seeded steps in every slice
/// (see [`Workload::rewind`]), so slices differ only by the host.
pub const SLICE_STEPS: usize = 1024;
/// Share of slices, the fastest by throughput, that the wall metrics are
/// taken over. The host is shared: neighbours slow whole seconds of a
/// run by up to 40% with the thread on-CPU throughout, and contention
/// only ever slows the code, so the quietest slices estimate the
/// program's own speed far more steadily than all of them.
const QUIET_SHARE: f64 = 0.01;
/// Share of the set-ups, the fastest, that `setup_s` is taken over, for
/// the same reason. A set-up is a few milliseconds of cold-cache work and
/// slows by up to half in a contended phase, so the share is small.
const QUIET_SETUPS: f64 = 0.1;
/// Slice records reserved per loop: room for 2M sync calls per second
/// over 30 s before the vector grows.
const SLICES_RESERVED: usize = 1 << 16;
const WORKLOADS: [&str; 4] = ["echo-small", "echo-large", "echo-tcp", "nfs-mix"];

/// Calls at the start of the timed loop over which virtual-time metrics
/// and per-call counts are taken: a fixed count, so they repeat exactly
/// for a seed however fast the host runs the loop.
fn window_calls(workload: &str) -> u64 {
    match workload {
        "echo-small" => 50_000,
        "echo-large" => 20_000,
        "echo-tcp" => 10_000,
        _ => 40_000,
    }
}

fn deploy<W: Wrap>(workload: &str, seed: u64) -> Result<(Box<dyn Workload>, Split), String> {
    use echo::EchoCfg;
    match workload {
        "echo-small" => echo::deploy::<W>(
            EchoCfg {
                n: 20,
                tcp: false,
                legacy: true,
            },
            seed,
        ),
        "echo-large" => echo::deploy::<W>(
            EchoCfg {
                n: 2000,
                tcp: false,
                legacy: false,
            },
            seed,
        ),
        "echo-tcp" => echo::deploy::<W>(
            EchoCfg {
                n: 2000,
                tcp: true,
                legacy: false,
            },
            seed,
        ),
        "nfs-mix" => nfs::deploy::<W>(seed),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Wall time of one set-up, by phase.
pub struct Split {
    pub parse: Duration,
    pub tempo: Duration,
    pub deploy: Duration,
    pub total: Duration,
}

/// Sizes and link of a workload's calls, for the bare-simulator probe.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub link: NetworkConfig,
    pub request_len: usize,
    pub reply_len: usize,
    pub tcp: bool,
}

/// Cumulative counters read from the program's public surfaces.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub client_calls: u64,
    pub oneway_calls: u64,
    pub fast_calls: u64,
    pub raw_dispatches: u64,
    pub raw_fallbacks: u64,
    pub generic_dispatches: u64,
    pub stub_ops: u64,
    pub mem_moves: u64,
    pub heap_allocs: u64,
    pub pool_takes: u64,
    pub pool_misses: u64,
    pub datagrams: u64,
    pub fragments: u64,
    pub bytes: u64,
    pub queue_drops: u64,
    pub retransmits: u64,
    pub coalesce: Option<CoalesceStats>,
    pub vt_ns: u64,
    /// Distinct calls the benchmark issued (set-up included).
    pub issued: u64,
}

impl Counters {
    /// Handler executions beyond the distinct calls issued: every
    /// dispatch (raw, or generic after a guard fallback) runs the handler
    /// once, and the dup cache must absorb every duplicate.
    fn extra_executions(&self) -> i64 {
        (self.raw_dispatches + self.generic_dispatches) as i64 - self.issued as i64
    }
}

/// A deployed workload driven one closed-loop step at a time.
pub trait Workload {
    /// Issue the next operation, wait for it, check it, record it.
    fn step(&mut self, t: &mut Tally);
    fn counters(&mut self) -> Counters;
    /// Restart the seeded steps from the first. A workload plans
    /// [`SLICE_STEPS`] steps and replays them in a cycle, so from the
    /// start of the timed loop each slice runs exactly one cycle.
    fn rewind(&mut self);
    fn probe(&self) -> Probe;
}

/// A client transport whose retransmissions the benchmark reads.
pub trait Client: Transport + 'static {
    fn retransmits(&self) -> u64;
}

impl Client for ClntUdp {
    fn retransmits(&self) -> u64 {
        self.retransmits
    }
}

impl Client for ClntTcp {
    fn retransmits(&self) -> u64 {
        0
    }
}

/// Wall metrics of one slice of the timed loop.
#[derive(Debug, Clone, Copy)]
struct Slice {
    calls_per_s: f64,
    p50_ns: u64,
    p99_ns: u64,
}

/// Outcomes of the calls of one loop.
pub struct Tally {
    pub calls: u64,
    pub failed: u64,
    /// Latency bookkeeping; absent while warming up, so set-up time is
    /// not charged for the measuring machinery.
    lat: Option<Latencies>,
}

struct Latencies {
    /// Virtual latencies of the sync calls in the fixed window.
    vt: Vec<u64>,
    vt_open: bool,
    /// Wall latencies of the slice in progress, and where it began.
    slice: Vec<u64>,
    slice_start: (Instant, u64),
    slices: Vec<Slice>,
}

impl Tally {
    /// A tally that only counts outcomes (warm-up).
    pub fn warmup() -> Self {
        Tally {
            calls: 0,
            failed: 0,
            lat: None,
        }
    }

    fn measuring(vt_capacity: usize) -> Self {
        Tally {
            calls: 0,
            failed: 0,
            lat: Some(Latencies {
                vt: Vec::with_capacity(vt_capacity),
                vt_open: true,
                slice: Vec::with_capacity(SLICE_STEPS),
                slice_start: (Instant::now(), 0),
                // Reserved up front, so the loop's own bookkeeping never
                // reallocates inside the heap the program under test uses
                // (a timing-dependent realloc there shifts its layout and
                // with it the peak RSS).
                slices: Vec::with_capacity(SLICES_RESERVED),
            }),
        }
    }

    /// `calls` calls completed (or failed, when `!ok`); `latency` is the
    /// (wall, virtual) latency of the sync call that completed them.
    pub fn record(&mut self, calls: u64, latency: Option<(Duration, SimTime)>, ok: bool) {
        self.calls += calls;
        if !ok {
            self.failed += calls;
        }
        let (Some(l), Some((wall, vt))) = (self.lat.as_mut(), latency) else {
            return;
        };
        let ns = wall.as_nanos() as u64;
        if l.vt_open {
            l.vt.push(vt.as_nanos());
        }
        l.slice.push(ns);
        if l.slice.len() == SLICE_STEPS {
            let now = Instant::now();
            let (t0, calls0) = l.slice_start;
            l.slices.push(Slice {
                calls_per_s: (self.calls - calls0) as f64 / (now - t0).as_secs_f64(),
                p50_ns: quantile_of(&mut l.slice, 0.5),
                p99_ns: quantile_of(&mut l.slice, 0.99),
            });
            l.slice.clear();
            l.slice_start = (now, self.calls);
        }
    }

    fn lat(&mut self) -> &mut Latencies {
        self.lat.as_mut().expect("a measuring tally")
    }

    /// The quiet slices: the fastest [`QUIET_SHARE`] by throughput.
    fn quiet(&self) -> Vec<Slice> {
        let mut s = self.lat.as_ref().map_or(Vec::new(), |l| l.slices.clone());
        s.sort_by(|a, b| b.calls_per_s.total_cmp(&a.calls_per_s));
        let keep = ((s.len() as f64 * QUIET_SHARE).ceil() as usize).max(1);
        s.truncate(keep);
        s
    }
}

/// One measured closed loop.
struct Loop {
    tally: Tally,
    /// Counters at the loop start and at the end of the fixed window.
    start: Counters,
    window: Counters,
    window_calls: u64,
    /// Loop time, set-ups inside it excluded.
    elapsed: Duration,
    end: Counters,
    /// `VmHWM` when the loop ended, before the report's own allocations.
    peak_rss_mb: f64,
}

/// Cold set-ups of the plain deployment of one workload.
struct Setups<'a> {
    workload: &'a str,
    seed: u64,
    splits: Vec<Split>,
}

impl Setups<'_> {
    /// One cold set-up, timed and torn down again.
    fn once(&mut self) -> Result<(), String> {
        let (w, split) = deploy::<Plain>(self.workload, self.seed)?;
        drop(w);
        self.splits.push(split);
        Ok(())
    }

    /// The split of the set-ups that `setup_s` is taken over: the fastest
    /// [`QUIET_SETUPS`] by total.
    fn quiet(&self) -> Vec<&Split> {
        let mut s: Vec<&Split> = self.splits.iter().collect();
        s.sort_by_key(|s| s.total);
        let keep = ((s.len() as f64 * QUIET_SETUPS).ceil() as usize).max(1);
        s.truncate(keep);
        s
    }
}

/// Drive `w` for `seconds`. With `setups`, the remaining cold set-ups
/// (up to [`SETUP_REPS`]) run between slices at even intervals, so they
/// meet the same host phases as the slices; the slice after a set-up
/// starts afresh, so no slice is charged for one.
fn run_loop(
    w: &mut dyn Workload,
    seconds: f64,
    window: u64,
    mut setups: Option<&mut Setups>,
) -> Result<Loop, String> {
    let mut tally = Tally::measuring(window as usize);
    w.rewind();
    let start = w.counters();
    let mut window_at: Option<(Counters, u64)> = None;
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut in_setup = Duration::ZERO;
    tally.lat().slice_start = (t0, 0);
    let mut slices = 0;
    let mut steps = 0u64;
    loop {
        w.step(&mut tally);
        steps += 1;
        if window_at.is_none() && tally.calls >= window {
            tally.lat().vt_open = false;
            window_at = Some((w.counters(), tally.calls));
        }
        let done = tally.lat().slices.len();
        if done > slices {
            slices = done;
            trace::end_block();
            if let Some(s) = setups.as_deref_mut() {
                let due = budget.mul_f64(s.splits.len() as f64 / SETUP_REPS as f64);
                if s.splits.len() < SETUP_REPS && t0.elapsed() >= due {
                    let t = Instant::now();
                    s.once()?;
                    let now = Instant::now();
                    in_setup += now - t;
                    tally.lat().slice_start = (now, tally.calls);
                }
            }
        }
        if steps.is_multiple_of(16) && t0.elapsed() >= budget && window_at.is_some() {
            break;
        }
    }
    let elapsed = t0.elapsed() - in_setup;
    // A loop too short to reach every interval finishes its set-ups here.
    if let Some(s) = setups {
        while s.splits.len() < SETUP_REPS {
            s.once()?;
        }
    }
    let (window, window_calls) = window_at.expect("loop ends after the window");
    Ok(Loop {
        peak_rss_mb: stats::peak_rss_mb(),
        end: w.counters(),
        tally,
        start,
        window,
        window_calls,
        elapsed,
    })
}

impl Loop {
    /// Median over the quiet slices of a per-slice latency, in us.
    fn quiet_us(&self, f: fn(&Slice) -> u64) -> f64 {
        let quiet = self.tally.quiet();
        median(&quiet.iter().map(|s| f(s) as f64 / 1e3).collect::<Vec<_>>())
    }

    /// Throughput of the quiet slices (median), or of the whole loop when
    /// it was too short to fill one slice.
    fn calls_per_s(&self) -> f64 {
        let quiet = self.tally.quiet();
        if quiet.is_empty() {
            self.tally.calls as f64 / self.elapsed.as_secs_f64()
        } else {
            median(&quiet.iter().map(|s| s.calls_per_s).collect::<Vec<_>>())
        }
    }
}

/// The first cold set-up, kept as the deployment to drive.
fn first_setup(workload: &str, seed: u64) -> Result<(Box<dyn Workload>, Setups<'_>), String> {
    let (w, split) = deploy::<Plain>(workload, seed)?;
    let setups = Setups {
        workload,
        seed,
        splits: vec![split],
    };
    Ok((w, setups))
}

fn median_of(splits: &[&Split], f: impl Fn(&Split) -> Duration) -> f64 {
    median(
        &splits
            .iter()
            .map(|s| f(s).as_secs_f64())
            .collect::<Vec<_>>(),
    )
}

/// Metrics in print order: (name, value, unit, note).
type Metrics = Vec<(&'static str, f64, &'static str, String)>;

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    /// Calls that failed, came back wrong, or ran their handler other
    /// than exactly once.
    failed: u64,
}

fn end_to_end(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (mut w, mut setups) = first_setup(workload, seed)?;
    let mut run = run_loop(
        w.as_mut(),
        seconds,
        window_calls(workload),
        Some(&mut setups),
    )?;
    let quiet_setups = setups.quiet();
    let all_setups: Vec<&Split> = setups.splits.iter().collect();
    let q = run.tally.quiet().len();
    let slices = run.tally.lat().slices.len();
    let all_rate = run.tally.calls as f64 / run.elapsed.as_secs_f64();
    let extra = run.end.extra_executions();
    let failed = run.tally.failed + extra.unsigned_abs();
    // Over every slice, for comparison with the quiet figure.
    let all_us = |f: fn(&Slice) -> u64| {
        let all = &run.tally.lat.as_ref().expect("measured").slices;
        median(&all.iter().map(|s| f(s) as f64 / 1e3).collect::<Vec<_>>())
    };
    let (all_p50, all_p99) = (all_us(|s| s.p50_ns), all_us(|s| s.p99_ns));
    let quiet_note = format!(
        "wall; median over the quietest {q} of {slices} slices of {SLICE_STEPS} sync calls"
    );
    let metrics = vec![
        (
            "calls_per_s",
            run.calls_per_s(),
            "1/s",
            format!(
                "{quiet_note}; all {} calls in {:.2} s: {all_rate:.0}",
                run.tally.calls,
                run.elapsed.as_secs_f64()
            ),
        ),
        (
            "latency_p50_us",
            run.quiet_us(|s| s.p50_ns),
            "us",
            format!("{quiet_note}; all slices: {all_p50:.3}"),
        ),
        (
            "setup_s",
            median_of(&quiet_setups, |s| s.total),
            "s",
            format!(
                "wall; median of the quickest {} of {} cold set-ups; all: {:.4}",
                quiet_setups.len(),
                all_setups.len(),
                median_of(&all_setups, |s| s.total)
            ),
        ),
        (
            "peak_rss_mb",
            run.peak_rss_mb,
            "MB",
            "VmHWM at the end of the loop".to_string(),
        ),
    ];
    let mut text = metrics.clone();
    // Printed, not gated: its run-to-run spread on a shared host is as
    // wide as the largest bound (see README).
    text.insert(
        2,
        (
            "latency_p99_us",
            run.quiet_us(|s| s.p99_ns),
            "us",
            format!("{quiet_note}; all slices: {all_p99:.3}"),
        ),
    );
    text.extend(virtual_time(&mut run));
    let attempted = run.tally.calls;
    text.push((
        "failed_frac",
        failed as f64 / attempted as f64,
        "frac",
        format!("{failed} of {attempted} calls failed, wrong, or re-executed"),
    ));
    print_lines(workload, seed, "untraced (plain deployment)", &text);
    Ok(Outcome {
        metrics,
        attempted,
        failed,
    })
}

/// Virtual-time metrics over the fixed window (deterministic per seed).
fn virtual_time(run: &mut Loop) -> Metrics {
    let vt = &mut run.tally.lat().vt;
    let n = vt.len();
    let p50 = quantile_of(vt, 0.5) as f64 / 1e3;
    let p99 = quantile_of(vt, 0.99) as f64 / 1e3;
    let span_s = (run.window.vt_ns - run.start.vt_ns) as f64 / 1e9;
    vec![
        ("vt_latency_p50_us", p50, "us", format!("virtual; n={n}")),
        ("vt_latency_p99_us", p99, "us", format!("virtual; n={n}")),
        (
            "vt_calls_per_s",
            run.window_calls as f64 / span_s,
            "1/s",
            format!("virtual; first {} calls", run.window_calls),
        ),
    ]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Exact per-call counts over the fixed window.
fn counts(run: &Loop) -> Metrics {
    let (a, b) = (&run.start, &run.window);
    let d = |f: fn(&Counters) -> u64| f(b) - f(a);
    let calls = run.window_calls;
    let client = d(|c| c.client_calls);
    let sync_client = client - d(|c| c.oneway_calls);
    let raw = d(|c| c.raw_dispatches);
    let generic = d(|c| c.generic_dispatches);
    let co = |f: fn(&CoalesceStats) -> u64| match (a.coalesce, b.coalesce) {
        (Some(x), Some(y)) => f(&y) - f(&x),
        _ => 0,
    };
    let envelopes = co(|s| s.flushes_mtu + s.flushes_linger + s.flushes_sync + s.flushes_explicit);
    let per_call = |x: u64| ratio(x, calls);
    let w = format!("exact; first {calls} calls");
    vec![
        (
            "client.fast_path_frac",
            ratio(d(|c| c.fast_calls), sync_client),
            "frac",
            w.clone(),
        ),
        (
            "svc.raw_dispatch_frac",
            ratio(raw, raw + generic),
            "frac",
            w.clone(),
        ),
        (
            "svc.raw_fallbacks_per_call",
            per_call(d(|c| c.raw_fallbacks)),
            "count",
            w.clone(),
        ),
        (
            "xdr.stub_ops_per_call",
            ratio(d(|c| c.stub_ops), client),
            "count",
            w.clone(),
        ),
        (
            "xdr.mem_moves_per_call",
            ratio(d(|c| c.mem_moves), client),
            "B",
            w.clone(),
        ),
        (
            "wire.heap_allocs_per_call",
            ratio(d(|c| c.heap_allocs), client),
            "count",
            w.clone(),
        ),
        (
            "bufpool.miss_frac",
            ratio(d(|c| c.pool_misses), d(|c| c.pool_takes)),
            "frac",
            w.clone(),
        ),
        (
            "netsim.datagrams_per_call",
            per_call(d(|c| c.datagrams)),
            "count",
            w.clone(),
        ),
        (
            "netsim.fragments_per_call",
            per_call(d(|c| c.fragments)),
            "count",
            w.clone(),
        ),
        (
            "netsim.bytes_per_call",
            per_call(d(|c| c.bytes)),
            "B",
            w.clone(),
        ),
        (
            "netsim.queue_drops",
            d(|c| c.queue_drops) as f64,
            "count",
            w.clone(),
        ),
        (
            "rpc.retransmits_per_call",
            per_call(d(|c| c.retransmits)),
            "count",
            w.clone(),
        ),
        (
            "coalesce.calls_per_envelope",
            ratio(co(|s| s.oneways_queued + s.flushes_sync), envelopes),
            "count",
            w.clone(),
        ),
        (
            "coalesce.flush_sync_frac",
            ratio(co(|s| s.flushes_sync), envelopes),
            "frac",
            w,
        ),
    ]
}

fn traced(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    // Untraced half: set-up split, exact counts, the baseline rate.
    let (mut w, mut setups) = first_setup(workload, seed)?;
    let window = window_calls(workload);
    let mut plain = run_loop(w.as_mut(), seconds / 2.0, window, Some(&mut setups))?;
    let splits = setups.quiet();
    let probe = w.probe();
    drop(w);

    // Traced half: the same workload assembled with span wrappers.
    trace::enable(true);
    let (mut w, _) = deploy::<Spans>(workload, seed)?;
    trace::reset();
    let spanned = run_loop(w.as_mut(), seconds / 2.0, window, None)?;
    trace::enable(false);
    let layers = trace::layer_times(QUIET_SHARE);
    let span_file = span_path(workload, seed);
    trace::write_spans(&span_file).map_err(|e| format!("{}: {e}", span_file.display()))?;
    drop(w);

    let udp_rt = probe::udp_rt_ns(probe.link, probe.request_len, probe.reply_len);
    // Record marking adds a 4-byte header each way.
    let tcp_rt = probe::tcp_rt_ns(probe.link, probe.request_len + 4, probe.reply_len + 4);
    let own_rt = if probe.tcp { tcp_rt } else { udp_rt };
    // The layer times are per specialized call, one-way calls included;
    // only sync calls make a round trip (one-way calls ride in the
    // envelope a sync call seals).
    let client = plain.window.client_calls - plain.start.client_calls;
    let oneway = plain.window.oneway_calls - plain.start.oneway_calls;
    let round_trips = ratio(client - oneway, client);
    let (extra_plain, extra_spanned) =
        (plain.end.extra_executions(), spanned.end.extra_executions());
    let extra = extra_plain + extra_spanned;

    let b = format!(
        "wall self time; mean over the quietest {} of {} slices",
        layers.quiet_blocks, layers.blocks
    );
    let probe_note = |t: &str| {
        format!(
            "wall; bare {t} round trip, {} B out / {} B back",
            probe.request_len, probe.reply_len
        )
    };
    let ms = |f: fn(&Split) -> Duration| median_of(&splits, f) * 1e3;
    let mut metrics: Metrics = vec![
        ("core.client.stub_ns", layers.stub, "ns", b.clone()),
        (
            "xdr.generic_call_ns",
            layers.generic,
            "ns",
            format!(
                "wall self time; median of {} legacy calls",
                layers.generic_calls
            ),
        ),
        ("rpc.transport_ns", layers.transport, "ns", b.clone()),
        ("netsim.udp_rt_ns", udp_rt, "ns", probe_note("UDP")),
        ("netsim.tcp_rt_ns", tcp_rt, "ns", probe_note("TCP")),
        (
            "rpc.protocol_ns",
            layers.transport - own_rt * round_trips,
            "ns",
            format!(
                "rpc.transport_ns - {round_trips:.4} round trips per call x netsim.{}_rt_ns",
                if probe.tcp { "tcp" } else { "udp" }
            ),
        ),
        ("rpc.svc.dispatch_ns", layers.dispatch, "ns", b.clone()),
        ("core.service.handler_ns", layers.handler, "ns", b.clone()),
        (
            "trace.call_ns",
            layers.root,
            "ns",
            format!("root span; {b}"),
        ),
        (
            "setup.rpcgen_parse_ms",
            ms(|s| s.parse),
            "ms",
            "wall; median of the quickest set-ups".into(),
        ),
        (
            "setup.tempo_build_ms",
            ms(|s| s.tempo),
            "ms",
            "wall; median of the quickest set-ups".into(),
        ),
        (
            "setup.deploy_ms",
            ms(|s| s.deploy),
            "ms",
            "wall; median of the quickest set-ups".into(),
        ),
    ];
    metrics.extend(counts(&plain));
    metrics.push((
        "svc.extra_executions",
        extra as f64,
        "count",
        "handler runs minus distinct calls issued".into(),
    ));
    metrics.push((
        "latency_p99_us",
        plain.quiet_us(|s| s.p99_ns),
        "us",
        "wall; untraced half, median over the quietest slices".into(),
    ));
    metrics.extend(virtual_time(&mut plain));
    metrics.push((
        "trace.overhead_frac",
        1.0 - spanned.calls_per_s() / plain.calls_per_s(),
        "frac",
        format!(
            "1 - traced/untraced calls_per_s ({:.0} / {:.0})",
            spanned.calls_per_s(),
            plain.calls_per_s()
        ),
    ));
    let mut text = metrics.clone();
    text.push((
        "trace.layer_sum_ns",
        layers.stub + layers.transport + layers.dispatch + layers.handler,
        "ns",
        "sum of the four layers, against trace.call_ns".into(),
    ));
    print_lines(
        workload,
        seed,
        &format!("traced; spans in {}", span_file.display()),
        &text,
    );
    Ok(Outcome {
        metrics,
        attempted: plain.tally.calls + spanned.tally.calls,
        failed: plain.tally.failed
            + spanned.tally.failed
            + extra_plain.unsigned_abs()
            + extra_spanned.unsigned_abs(),
    })
}

/// Where the traced run writes its kept spans: under the build directory.
fn span_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| "rpcbench/target".into());
    dir.join("rpcbench-spans")
        .join(format!("{workload}-seed{seed}.tsv"))
}

fn print_lines(workload: &str, seed: u64, mode: &str, metrics: &Metrics) {
    println!("rpcbench {workload} seed={seed}: {mode}");
    for (name, value, unit, note) in metrics {
        println!("  {name:<30} {value:>16.4} {unit:<6} {note}");
    }
}

fn json(o: &Outcome) -> String {
    let mut m = String::new();
    for (i, (name, value, unit, _)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rpcbench: {e}");
            eprintln!(
                "usage: rpcbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        traced(&args.workload, args.seed, args.seconds)
    } else {
        end_to_end(&args.workload, args.seed, args.seconds)
    };
    match outcome {
        Ok(o) => {
            println!("{}", json(&o));
            std::process::exit(if o.failed == 0 { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("rpcbench: {e}");
            std::process::exit(1);
        }
    }
}
