//! The closed-loop load generator: every connection keeps a fixed window
//! of requests in flight until the deadline.

use crate::client::Conn;
use crate::oracle::{same_modulo_volatile, stable_form};
use crate::workload::KeyOrder;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// How each connection checks the bodies it receives.
pub enum Check<'a> {
    /// Every body must equal `refs[key]` apart from `cached` and
    /// `duration_ns`; a match delivers `answers[key]` answers.
    Reference {
        /// Verified bodies, one per pool key.
        refs: &'a [Vec<u8>],
        /// Answers each reference body carries.
        answers: &'a [u64],
    },
    /// Keep every body for a check after the timed phase.
    Capture,
}

/// Bodies kept for the check after the run: each distinct pair of pool
/// index and body (without its volatile fields), with how many responses
/// carried it.
pub type Captured = HashMap<(u32, Vec<u8>), u64>;

/// A request in flight: its pool key and send time.
type InFlight = (u32, Instant);

/// What the connections saw.
#[derive(Default)]
pub struct ConnStats {
    /// Latency of every answered request, in nanoseconds.
    pub lat_ns: Vec<u64>,
    /// When each answered request completed, ns after the phase began
    /// (parallel to `lat_ns`).
    pub ends: Vec<u64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered `200` (and, for [`Check::Reference`], correctly).
    pub ok: u64,
    /// Requests that failed, were refused, timed out or were wrong.
    pub failed: u64,
    /// `429` answers among the failures.
    pub throttled: u64,
    /// Answers delivered by the correct responses.
    pub answers: u64,
    /// Bodies kept under [`Check::Capture`].
    pub captured: Captured,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl ConnStats {
    fn fail(&mut self, msg: impl FnOnce() -> String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg());
        }
    }

    /// Adds `other`'s counts, captured bodies and failure messages, but
    /// not its latency samples.
    pub fn absorb_counts(&mut self, other: ConnStats) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.throttled += other.throttled;
        self.answers += other.answers;
        for (k, n) in other.captured {
            *self.captured.entry(k).or_default() += n;
        }
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    /// Judges one answer to pool key `key`.
    fn judge(&mut self, check: &Check<'_>, key: u32, status: u16, body: &[u8]) {
        if status != 200 {
            if status == 429 {
                self.throttled += 1;
            }
            let text = String::from_utf8_lossy(body).into_owned();
            return self.fail(|| format!("HTTP {status}: {text}"));
        }
        match check {
            Check::Reference { refs, answers } => {
                if same_modulo_volatile(body, &refs[key as usize]) {
                    self.ok += 1;
                    self.answers += answers[key as usize];
                } else {
                    let text = String::from_utf8_lossy(body).into_owned();
                    self.fail(|| format!("wrong answer for key {key}: {text}"));
                }
            }
            Check::Capture => {
                self.ok += 1;
                *self.captured.entry((key, stable_form(body))).or_default() += 1;
            }
        }
    }
}

/// Drives `conns` connections from the calling thread, each keeping
/// `window` requests in flight, from `start` until `deadline`; then drains
/// what is in flight. The thread serves the connections in turn, so the
/// load adds one busy thread, not one per connection, beside the server.
/// Keys come from `order`: connection `c`'s own sequence, or one order all
/// connections share.
pub fn drive(
    addr: &str,
    wires: &[Vec<u8>],
    order: &KeyOrder,
    conns: usize,
    window: usize,
    (start, deadline): (Instant, Instant),
    check: &Check<'_>,
) -> ConnStats {
    let mut st = ConnStats {
        lat_ns: Vec::with_capacity(1 << 20),
        ends: Vec::with_capacity(1 << 20),
        ..ConnStats::default()
    };
    let mut cs = Vec::with_capacity(conns);
    for _ in 0..conns {
        match Conn::connect(addr) {
            Ok(c) => cs.push(c),
            Err(e) => {
                st.attempted += 1;
                st.fail(|| format!("connect: {e}"));
                return st;
            }
        }
    }
    let mut pos = vec![0usize; conns];
    let mut next_key = |c: usize| -> u32 {
        let (seq, at) = match order {
            KeyOrder::PerConnection(seqs) => (&seqs[c], &mut pos[c]),
            KeyOrder::Shared(keys) => (keys, &mut pos[0]),
        };
        *at += 1;
        seq[(*at - 1) % seq.len()]
    };
    let mut inflight: Vec<VecDeque<InFlight>> = vec![VecDeque::with_capacity(window); conns];
    let mut live = vec![true; conns];
    let mut send = |c: usize, conn: &mut Conn, q: &mut VecDeque<InFlight>, st: &mut ConnStats| {
        let key = next_key(c);
        st.attempted += 1;
        let sent = Instant::now();
        match conn.send(&wires[key as usize]) {
            Ok(()) => {
                q.push_back((key, sent));
                true
            }
            Err(e) => {
                st.fail(|| format!("send: {e}"));
                false
            }
        }
    };
    for c in 0..conns {
        while live[c] && inflight[c].len() < window && Instant::now() < deadline {
            live[c] = send(c, &mut cs[c], &mut inflight[c], &mut st);
        }
    }
    let mut busy = true;
    while busy {
        busy = false;
        for c in 0..conns {
            let Some((key, sent)) = inflight[c].pop_front() else {
                continue;
            };
            busy = true;
            match cs[c].recv() {
                Ok((status, body)) => {
                    st.lat_ns.push(sent.elapsed().as_nanos() as u64);
                    st.ends.push(start.elapsed().as_nanos() as u64);
                    st.judge(check, key, status, body);
                }
                Err(e) => {
                    st.fail(|| format!("recv: {e}"));
                    for _ in inflight[c].drain(..) {
                        st.fail(|| "lost with the connection".to_owned());
                    }
                    live[c] = false;
                }
            }
            if live[c] && Instant::now() < deadline {
                live[c] = send(c, &mut cs[c], &mut inflight[c], &mut st);
            }
        }
    }
    st
}
