//! Bare-simulator round trips: the same link and payload sizes as a
//! workload's calls, with an identity-sized handler and no RPC layer, so
//! a call's transport time splits into simulator time and protocol time.

use crate::stats::median;
use specrpc_netsim::net::{Network, NetworkConfig, TcpHandler};
use specrpc_netsim::SimTime;
use specrpc_rpc::svc_udp::{default_proc_time, ProcTimeModel};
use specrpc_xdr::rec::RecordIo;
use std::time::Instant;

const SERVER: u32 = 700;
const CLIENT: u32 = 701;
const WARMUP: usize = 256;
const BLOCKS: usize = 64;
const PER_BLOCK: usize = 256;
/// Share of blocks, the fastest, the figure is taken over: like the
/// loop's quiet slices, an estimate of the uncontended cost.
const QUIET_BLOCKS: usize = BLOCKS / 4;

/// Median over the quietest blocks of the mean wall time of one round
/// trip.
fn time_blocks(mut round_trip: impl FnMut()) -> f64 {
    for _ in 0..WARMUP {
        round_trip();
    }
    let mut blocks: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..PER_BLOCK {
                round_trip();
            }
            t0.elapsed().as_nanos() as f64 / PER_BLOCK as f64
        })
        .collect();
    blocks.sort_by(|a, b| a.total_cmp(b));
    median(&blocks[..QUIET_BLOCKS])
}

/// One UDP datagram of `request_len` bytes out, one of `reply_len`
/// bytes back, through `Network::serve_udp`.
pub fn udp_rt_ns(link: NetworkConfig, request_len: usize, reply_len: usize) -> f64 {
    let net = Network::new(link, 0);
    let model = default_proc_time();
    net.serve_udp(
        SERVER,
        Box::new(move |req: &mut Vec<u8>, _from| {
            let mut reply = std::mem::take(req);
            let t = model(reply.len(), reply_len);
            reply.resize(reply_len, 0);
            Some((reply, t))
        }),
    );
    let ep = net.bind_udp(CLIENT);
    let mut buf = vec![0u8; request_len.max(reply_len)];
    time_blocks(|| {
        buf.resize(request_len, 0);
        ep.send_to(SERVER, std::mem::take(&mut buf));
        buf = ep
            .recv_timeout(SimTime::from_millis(1_000))
            .expect("lossless probe link replies")
            .payload;
        assert_eq!(buf.len(), reply_len);
    })
}

struct SizedEcho {
    request_len: usize,
    reply_len: usize,
    pending: usize,
    model: ProcTimeModel,
}

impl TcpHandler for SizedEcho {
    fn on_bytes(&mut self, bytes: &[u8]) -> (Vec<u8>, SimTime) {
        self.pending += bytes.len();
        let mut out = Vec::new();
        let mut time = SimTime::ZERO;
        while self.pending >= self.request_len {
            self.pending -= self.request_len;
            out.resize(out.len() + self.reply_len, 0);
            time += (self.model)(self.request_len, self.reply_len);
        }
        (out, time)
    }
}

/// `request_len` bytes written to a simulated TCP connection, `reply_len`
/// bytes read back.
pub fn tcp_rt_ns(link: NetworkConfig, request_len: usize, reply_len: usize) -> f64 {
    let net = Network::new(link, 0);
    net.serve_tcp(
        SERVER,
        Box::new(move || {
            Box::new(SizedEcho {
                request_len,
                reply_len,
                pending: 0,
                model: default_proc_time(),
            }) as Box<dyn TcpHandler>
        }),
    );
    let mut stream = net.connect_tcp(SERVER).expect("listener installed");
    let request = vec![0u8; request_len];
    let mut reply = vec![0u8; reply_len];
    time_blocks(|| {
        stream.write_all(&request).expect("tcp write");
        stream.read_exact(&mut reply).expect("tcp read");
    })
}
