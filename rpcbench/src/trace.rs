//! Span recorder for the traced run.
//!
//! Spans come only from the benchmark's own wrappers around the public
//! entry points of each layer (see `wire.rs`): the client call (root),
//! the `Transport` exchange, the served registry forwarder, and the
//! handler closures. The whole stack runs on one OS thread, so the
//! recorder is a thread-local with no locking.
//!
//! A layer's self time is its span's duration minus the durations of its
//! direct children; summed over a call's span tree, self times telescope
//! to exactly the root span's duration.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer boundaries a span can mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `SpecClient::call_into` (root of a synchronous specialized call).
    Call,
    /// `SpecClient::call_oneway` (root of a one-way call).
    OneWay,
    /// The legacy client's `ClntUdp::call` (root of a generic call).
    Generic,
    /// `Transport::call` / `call_oneway` / `flush_oneways`.
    Transport,
    /// The served registry forwarding to the inner `SvcRegistry::dispatch`.
    Dispatch,
    /// A service handler closure.
    Handler,
}

const LAYERS: usize = 6;

impl Layer {
    fn index(self) -> usize {
        self as usize
    }

    fn name(self) -> &'static str {
        match self {
            Layer::Call => "call",
            Layer::OneWay => "oneway",
            Layer::Generic => "generic_call",
            Layer::Transport => "transport",
            Layer::Dispatch => "dispatch",
            Layer::Handler => "handler",
        }
    }
}

/// Calls whose raw spans are kept for the span file written at exit.
const KEEP_CALLS: u64 = 2048;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start: u64,
    end: u64,
    parent: u32,
    call: u64,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    /// Spans of the root call in progress.
    cur: Vec<Span>,
    /// Indices (into `cur`) of the open spans.
    stack: Vec<u32>,
    /// Scratch: per-span sum of children's durations.
    child_ns: Vec<u64>,
    next_call: u64,
    kept: Vec<Span>,
    /// Self-time totals per layer for the current block of
    /// specialized (sync or one-way) root calls; a block is one slice of
    /// the timed loop, closed by [`end_block`].
    acc: [u64; LAYERS],
    acc_root: u64,
    acc_calls: u64,
    /// Per-block mean self time per call, per layer.
    blocks: [Vec<f64>; LAYERS],
    block_root: Vec<f64>,
    /// Self time of each generic root call.
    generic_self: Vec<u64>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            on: false,
            epoch: Instant::now(),
            cur: Vec::with_capacity(64),
            stack: Vec::with_capacity(8),
            child_ns: Vec::with_capacity(64),
            next_call: 0,
            kept: Vec::new(),
            acc: [0; LAYERS],
            acc_root: 0,
            acc_calls: 0,
            blocks: Default::default(),
            block_root: Vec::new(),
            generic_self: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, layer: Layer) -> u32 {
        let idx = self.cur.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.cur.push(Span {
            layer,
            start,
            end: start,
            parent,
            call: self.next_call,
        });
        self.stack.push(idx);
        idx
    }

    fn end(&mut self, idx: u32) {
        let end = self.now();
        self.cur[idx as usize].end = end;
        self.stack.pop();
        if self.stack.is_empty() {
            self.finish_root();
        }
    }

    /// Close the finished root call: compute self times, fold them into
    /// the block aggregates, keep the raw spans of early calls.
    fn finish_root(&mut self) {
        self.child_ns.clear();
        self.child_ns.resize(self.cur.len(), 0);
        for s in &self.cur {
            if s.parent != NO_PARENT {
                self.child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let root = self.cur[0];
        let root_ns = root.end - root.start;
        match root.layer {
            Layer::Call | Layer::OneWay => {
                for (s, &child) in self.cur.iter().zip(&self.child_ns) {
                    let layer = if s.layer == Layer::OneWay {
                        Layer::Call
                    } else {
                        s.layer
                    };
                    self.acc[layer.index()] += (s.end - s.start) - child;
                }
                self.acc_root += root_ns;
                self.acc_calls += 1;
            }
            Layer::Generic => self.generic_self.push(root_ns - self.child_ns[0]),
            // A span outside any client call (none in these workloads).
            _ => {}
        }
        if self.next_call < KEEP_CALLS {
            self.kept.extend_from_slice(&self.cur);
        }
        self.next_call += 1;
        self.cur.clear();
    }
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// Turn span recording on or off for this thread.
pub fn enable(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Drop every aggregate and kept span (after warm-up).
pub fn reset() {
    REC.with(|r| {
        let on = r.borrow().on;
        let mut fresh = Recorder::new();
        fresh.on = on;
        *r.borrow_mut() = fresh;
    });
}

/// Close the current block: its mean self time per call, per layer.
/// Every slice of the loop replays the same seeded steps, so blocks
/// differ only by the host.
pub fn end_block() {
    REC.with(|r| {
        let r = &mut *r.borrow_mut();
        if r.acc_calls == 0 {
            return;
        }
        let n = r.acc_calls as f64;
        for (blocks, acc) in r.blocks.iter_mut().zip(r.acc.iter_mut()) {
            blocks.push(*acc as f64 / n);
            *acc = 0;
        }
        r.block_root.push(r.acc_root as f64 / n);
        r.acc_root = 0;
        r.acc_calls = 0;
    });
}

/// Run `f` inside a span for `layer` (when recording is on).
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            Some(r.begin(layer))
        } else {
            None
        }
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| r.borrow_mut().end(idx));
    }
    out
}

/// Per-layer self times (ns per call): means over the quiet blocks, so
/// they add up to the root exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Client stub work: call/one-way root minus its transport child.
    pub stub: f64,
    /// Transport exchange minus the server dispatches inside it.
    pub transport: f64,
    /// Registry dispatch minus the handler inside it.
    pub dispatch: f64,
    /// Handler closures.
    pub handler: f64,
    /// The root span itself.
    pub root: f64,
    /// Median self time of a legacy generic call (0 when none ran).
    pub generic: f64,
    /// Quiet blocks the means were taken over, and all blocks.
    pub quiet_blocks: usize,
    pub blocks: usize,
    /// Generic calls the generic median was taken over.
    pub generic_calls: usize,
}

/// Summarize the recorded spans over the blocks with the shortest root
/// time, the fastest `quiet_share` of them (at least one).
pub fn layer_times(quiet_share: f64) -> LayerTimes {
    REC.with(|r| {
        let r = r.borrow();
        let mut order: Vec<usize> = (0..r.block_root.len()).collect();
        order.sort_by(|&a, &b| r.block_root[a].total_cmp(&r.block_root[b]));
        let keep = ((order.len() as f64 * quiet_share).ceil() as usize).max(1);
        order.truncate(keep);
        let mean = |v: &[f64]| {
            if order.is_empty() {
                0.0
            } else {
                order.iter().map(|&i| v[i]).sum::<f64>() / order.len() as f64
            }
        };
        let generic: Vec<f64> = r.generic_self.iter().map(|&x| x as f64).collect();
        LayerTimes {
            stub: mean(&r.blocks[Layer::Call.index()]),
            transport: mean(&r.blocks[Layer::Transport.index()]),
            dispatch: mean(&r.blocks[Layer::Dispatch.index()]),
            handler: mean(&r.blocks[Layer::Handler.index()]),
            root: mean(&r.block_root),
            generic: crate::stats::median(&generic),
            quiet_blocks: order.len(),
            blocks: r.block_root.len(),
            generic_calls: generic.len(),
        }
    })
}

/// Write the kept spans as tab-separated
/// `call span parent name start_ns end_ns` rows.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<()> {
    let text = REC.with(|r| {
        let r = r.borrow();
        let mut out = String::from("call\tspan\tparent\tname\tstart_ns\tend_ns\n");
        let mut first = 0usize;
        for (i, s) in r.kept.iter().enumerate() {
            if s.parent == NO_PARENT {
                first = i;
            }
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.call,
                i - first,
                parent,
                s.layer.name(),
                s.start,
                s.end
            );
        }
        out
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
