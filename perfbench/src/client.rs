//! The benchmark's own wire clients, built directly on `wire::encode_get`
//! and `wire::FrameReader` over `std::net::TcpStream` (not on the
//! repository's `loadgen`, so a change there cannot move the benchmark).

use crate::spans::{SpanLog, ROOT};
use darwin_gateway::wire::{encode_get, FrameReader};
use darwin_gateway::Message;
use darwin_trace::Request;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
    buf: Vec<u8>,
    /// Bytes written so far.
    pub bytes_out: u64,
}

impl Conn {
    /// Connects to the gateway at `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A gateway that stops answering fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = FrameReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader, buf: Vec::with_capacity(64 * 1024), bytes_out: 0 })
    }

    /// Bytes read so far.
    pub fn bytes_in(&self) -> u64 {
        self.reader.bytes_read()
    }

    fn flush(&mut self) -> Result<(), String> {
        if !self.buf.is_empty() {
            self.stream.write_all(&self.buf).map_err(|e| format!("write: {e}"))?;
            self.bytes_out += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }

    /// Receives the `VERDICTS` reply to a frame of `expect` records and
    /// appends its verdict bytes to `out`.
    fn recv_verdicts(&mut self, expect: usize, out: &mut Vec<u8>) -> Result<(), String> {
        match self.reader.recv() {
            Ok(Some(Message::Verdicts(vs))) if vs.len() == expect => {
                out.extend(vs.iter().map(|v| v.to_byte()));
                Ok(())
            }
            Ok(Some(Message::Verdicts(vs))) => {
                Err(format!("reply carried {} verdicts for a {expect}-record frame", vs.len()))
            }
            Ok(Some(other)) => Err(format!("unexpected reply {other:?}")),
            Ok(None) => Err("gateway closed the connection".into()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// Closed loop: keeps up to `window` frames in flight and appends every
/// verdict byte to `verdicts` in frame order. Returns each frame's round
/// trip (encode start to reply decoded), ns. With a span log and
/// `(first, stride)`, records `client.encode` / `client.write` /
/// `client.recv` spans for this connection's `k`-th frame under frame id
/// `first + k·stride`.
pub fn closed_loop(
    conn: &mut Conn,
    frames: &[&[Request]],
    window: usize,
    verdicts: &mut Vec<u8>,
    mut spans: Option<(&mut SpanLog, u32, u32)>,
) -> Result<Vec<u64>, String> {
    let mut rtt = Vec::with_capacity(frames.len());
    let mut in_flight: VecDeque<Instant> = VecDeque::with_capacity(window);
    let (mut sent, mut done) = (0usize, 0usize);
    while done < frames.len() {
        while sent < frames.len() && sent - done < window {
            in_flight.push_back(Instant::now());
            match spans.as_mut() {
                Some((log, first, stride)) => {
                    let t = log.now();
                    encode_get(frames[sent], &mut conn.buf);
                    let id = *first + sent as u32 * *stride;
                    log.push("client.encode", t, log.now(), ROOT, id);
                }
                None => encode_get(frames[sent], &mut conn.buf),
            }
            sent += 1;
        }
        match spans.as_mut() {
            Some((log, first, stride)) => {
                let t = log.now();
                conn.flush()?;
                log.push("client.write", t, log.now(), ROOT, *first + (sent as u32 - 1) * *stride);
            }
            None => conn.flush()?,
        }
        match spans.as_mut() {
            Some((log, first, stride)) => {
                let t = log.now();
                conn.recv_verdicts(frames[done].len(), verdicts)?;
                log.push("client.recv", t, log.now(), ROOT, *first + done as u32 * *stride);
            }
            None => conn.recv_verdicts(frames[done].len(), verdicts)?,
        }
        let started = in_flight.pop_front().expect("a frame is in flight");
        rtt.push(started.elapsed().as_nanos() as u64);
        done += 1;
    }
    Ok(rtt)
}

/// What an open-loop run observed.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per frame: reply arrival minus the frame's intended send time, ns.
    pub latency_ns: Vec<u64>,
    /// Per frame: actual send start minus intended send time, ns.
    pub late_ns: Vec<u64>,
    /// Arrival of the last reply, measured from the schedule's start.
    pub elapsed: Duration,
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// `PR_SET_TIMERSLACK`.
const PR_SET_TIMERSLACK: i32 = 29;

/// Lets this thread's sleeps end within a microsecond of their deadline
/// instead of the default 50 µs timer slack.
fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches only
    // the calling thread's timer slack; the unused arguments are ignored.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Open loop: a sender thread writes frame `k` at `start + k·frame/rate`
/// (never earlier) while this thread reads the replies, so a stall delays
/// later frames' measured latency instead of the offered load.
pub fn open_loop(
    conn: &mut Conn,
    frames: &[&[Request]],
    rate: f64,
    verdicts: &mut Vec<u8>,
) -> Result<OpenLoop, String> {
    let mut writer = conn.stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut offsets = Vec::with_capacity(frames.len());
    let mut records = 0usize;
    for f in frames {
        offsets.push(Duration::from_secs_f64(records as f64 / rate));
        records += f.len();
    }
    let start = Instant::now() + Duration::from_millis(2);
    let mut out = OpenLoop { latency_ns: Vec::with_capacity(frames.len()), ..OpenLoop::default() };
    let sent = std::thread::scope(|scope| {
        let offsets = &offsets;
        let sender = scope.spawn(move || -> Result<(Vec<u64>, u64), String> {
            tight_timer_slack();
            let mut buf = Vec::with_capacity(4096);
            let mut late = Vec::with_capacity(frames.len());
            let mut bytes = 0u64;
            for (frame, offset) in frames.iter().zip(offsets) {
                let due = start + *offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
                buf.clear();
                encode_get(frame, &mut buf);
                writer.write_all(&buf).map_err(|e| format!("write: {e}"))?;
                bytes += buf.len() as u64;
            }
            Ok((late, bytes))
        });
        let mut result = Ok(());
        for (frame, offset) in frames.iter().zip(offsets.iter()) {
            if let Err(e) = conn.recv_verdicts(frame.len(), verdicts) {
                result = Err(e);
                break;
            }
            out.latency_ns
                .push(Instant::now().saturating_duration_since(start + *offset).as_nanos() as u64);
        }
        out.elapsed = start.elapsed();
        if result.is_err() {
            // Unblock a sender stuck on a full socket.
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        let sent = sender.join().map_err(|_| "sender thread panicked".to_string())?;
        result.and(sent)
    })?;
    out.late_ns = sent.0;
    conn.bytes_out += sent.1;
    Ok(out)
}

/// Median round trip of a bare `TcpStream` echo of `frame_bytes`-byte
/// messages over loopback, µs: the transport floor under any wire latency.
pub fn echo_p50_us(frame_bytes: usize, rounds: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let server = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut buf = vec![0u8; frame_bytes];
        for _ in 0..rounds {
            s.read_exact(&mut buf)?;
            s.write_all(&buf)?;
        }
        Ok(())
    });
    let mut c = TcpStream::connect(addr)?;
    c.set_nodelay(true)?;
    let msg = vec![0x5Au8; frame_bytes];
    let mut back = vec![0u8; frame_bytes];
    let mut rtt = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        c.write_all(&msg)?;
        c.read_exact(&mut back)?;
        rtt.push(t.elapsed().as_nanos() as u64);
    }
    server.join().map_err(|_| std::io::Error::other("echo server panicked"))??;
    rtt.sort_unstable();
    Ok(crate::sys::percentile_sorted(&rtt, 50.0) as f64 / 1e3)
}
