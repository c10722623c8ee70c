//! Leader-side publish/subscribe hub for live WAL records.
//!
//! The store mutex already serializes WAL appends with registry writes, so the
//! leader publishes each appended record to the hub *while still holding that
//! lock*. A streaming thread that reads the WAL suffix and subscribes under
//! the same lock therefore observes every record exactly once: anything the
//! suffix missed lands in its queue, in seq order, with no gap and no overlap.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ipe_store::WalRecord;

/// Per-subscriber queue cap. A follower that falls this far behind the live
/// feed is cut off (it reconnects and resumes from its applied seq, which the
/// leader serves from the WAL file or a snapshot instead of leader memory) —
/// bounding leader memory against arbitrarily slow followers.
pub const MAX_QUEUED: usize = 65_536;

struct SubQueue {
    id: u64,
    records: VecDeque<WalRecord>,
    overflowed: bool,
}

struct HubInner {
    next_id: u64,
    subs: Vec<SubQueue>,
    closed: bool,
}

pub struct ReplHub {
    inner: Mutex<HubInner>,
    cond: Condvar,
    last_seq: AtomicU64,
}

/// What a subscriber sees on `pop`.
#[derive(Debug)]
pub enum SubEvent {
    Record(WalRecord),
    /// Nothing arrived within the timeout; send a heartbeat and poll again.
    Timeout,
    /// The hub was closed (leader shutdown); terminate the stream.
    Closed,
    /// This subscriber fell more than `MAX_QUEUED` records behind and its
    /// queue was dropped; terminate the stream and let the follower resume.
    Lagged,
}

impl ReplHub {
    pub fn new(last_seq: u64) -> ReplHub {
        ReplHub {
            inner: Mutex::new(HubInner {
                next_id: 0,
                subs: Vec::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            last_seq: AtomicU64::new(last_seq),
        }
    }

    /// Leader's current last appended seq (updated on every publish).
    pub fn last_seq(&self) -> u64 {
        self.last_seq.load(Ordering::Acquire)
    }

    /// Publish one appended record to all live subscribers. Must be called
    /// under the store mutex so publish order equals WAL seq order.
    pub fn publish(&self, record: &WalRecord) {
        self.last_seq.store(record.seq, Ordering::Release);
        let mut inner = lock_inner(&self.inner);
        for sub in inner.subs.iter_mut() {
            if sub.overflowed {
                continue;
            }
            if sub.records.len() >= MAX_QUEUED {
                sub.overflowed = true;
                sub.records.clear();
                continue;
            }
            sub.records.push_back(record.clone());
        }
        self.cond.notify_all();
    }

    /// Register a new subscriber. Call under the store mutex, after reading
    /// the suffix the subscription should continue from.
    pub fn subscribe(self: &Arc<Self>) -> Subscription {
        let mut inner = lock_inner(&self.inner);
        let id = inner.next_id;
        inner.next_id += 1;
        inner.subs.push(SubQueue {
            id,
            records: VecDeque::new(),
            overflowed: false,
        });
        Subscription {
            hub: Arc::clone(self),
            id,
        }
    }

    /// Close the hub: wakes every subscriber with `SubEvent::Closed`.
    pub fn close(&self) {
        let mut inner = lock_inner(&self.inner);
        inner.closed = true;
        self.cond.notify_all();
    }
}

fn lock_inner<'a>(mutex: &'a Mutex<HubInner>) -> std::sync::MutexGuard<'a, HubInner> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

pub struct Subscription {
    hub: Arc<ReplHub>,
    id: u64,
}

impl Subscription {
    /// Wait up to `timeout` for the next record.
    pub fn pop(&self, timeout: Duration) -> SubEvent {
        let mut inner = lock_inner(&self.hub.inner);
        loop {
            if let Some(sub) = inner.subs.iter_mut().find(|s| s.id == self.id) {
                if sub.overflowed {
                    return SubEvent::Lagged;
                }
                if let Some(record) = sub.records.pop_front() {
                    return SubEvent::Record(record);
                }
            } else {
                return SubEvent::Closed;
            }
            if inner.closed {
                return SubEvent::Closed;
            }
            let (guard, wait) = match self.hub.cond.wait_timeout(inner, timeout) {
                Ok(pair) => pair,
                Err(poisoned) => {
                    let (guard, wait) = poisoned.into_inner();
                    (guard, wait)
                }
            };
            inner = guard;
            if wait.timed_out() {
                // One last look: a publish may have raced the timeout.
                if let Some(sub) = inner.subs.iter_mut().find(|s| s.id == self.id) {
                    if sub.overflowed {
                        return SubEvent::Lagged;
                    }
                    if let Some(record) = sub.records.pop_front() {
                        return SubEvent::Record(record);
                    }
                }
                if inner.closed {
                    return SubEvent::Closed;
                }
                return SubEvent::Timeout;
            }
        }
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let mut inner = lock_inner(&self.hub.inner);
        inner.subs.retain(|s| s.id != self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipe_store::{WalOp, WalRecord};

    fn rec(seq: u64) -> WalRecord {
        WalRecord {
            seq,
            op: WalOp::Put {
                tenant: "default".to_owned(),
                name: format!("s{seq}"),
                id: seq,
                generation: 1,
                schema_json: "{}".to_string(),
            },
        }
    }

    #[test]
    fn publish_pop_in_order() {
        let hub = Arc::new(ReplHub::new(0));
        let sub = hub.subscribe();
        hub.publish(&rec(1));
        hub.publish(&rec(2));
        match sub.pop(Duration::from_millis(10)) {
            SubEvent::Record(r) => assert_eq!(r.seq, 1),
            other => panic!("expected record, got {other:?}"),
        }
        match sub.pop(Duration::from_millis(10)) {
            SubEvent::Record(r) => assert_eq!(r.seq, 2),
            other => panic!("expected record, got {other:?}"),
        }
        assert!(matches!(
            sub.pop(Duration::from_millis(5)),
            SubEvent::Timeout
        ));
        assert_eq!(hub.last_seq(), 2);
    }

    #[test]
    fn close_wakes_blocked_subscriber() {
        let hub = Arc::new(ReplHub::new(0));
        let sub = hub.subscribe();
        let hub2 = Arc::clone(&hub);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            hub2.close();
        });
        assert!(matches!(sub.pop(Duration::from_secs(5)), SubEvent::Closed));
        handle.join().unwrap();
    }

    #[test]
    fn drop_unregisters() {
        let hub = Arc::new(ReplHub::new(0));
        let sub = hub.subscribe();
        let subscribers = || lock_inner(&hub.inner).subs.len();
        assert_eq!(subscribers(), 1);
        drop(sub);
        assert_eq!(subscribers(), 0);
    }

    #[test]
    fn overflow_lags_instead_of_growing() {
        let hub = Arc::new(ReplHub::new(0));
        let sub = hub.subscribe();
        for seq in 1..=(MAX_QUEUED as u64 + 1) {
            hub.publish(&rec(seq));
        }
        assert!(matches!(
            sub.pop(Duration::from_millis(1)),
            SubEvent::Lagged
        ));
    }

    #[test]
    fn concurrent_publisher_drains() {
        let hub = Arc::new(ReplHub::new(0));
        let sub = hub.subscribe();
        let hub2 = Arc::clone(&hub);
        let handle = std::thread::spawn(move || {
            for seq in 1..=100 {
                hub2.publish(&rec(seq));
            }
        });
        let mut next = 1u64;
        while next <= 100 {
            match sub.pop(Duration::from_secs(5)) {
                SubEvent::Record(r) => {
                    assert_eq!(r.seq, next);
                    next += 1;
                }
                SubEvent::Timeout => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        handle.join().unwrap();
    }
}
