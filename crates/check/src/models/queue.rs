//! Model of the bounded admission queue in `isi_serve::service`.
//!
//! Producers enqueue under a mutex, park on a `space` condvar while
//! the queue is at capacity (the `max_delta`-style backpressure), and
//! signal a `work` condvar **conditionally** — only when the queue
//! transitions from empty — exactly like the real `enqueue`. The
//! dispatcher parks only on an empty queue and otherwise drains what
//! is available (the real one in chunks of at most `max_batch`, with
//! no park in between), which is the property that makes the
//! conditional notify sound.
//!
//! The invariants are implicit in the runtime: a lost wakeup or a
//! notify/backpressure cycle shows up as a deadlock (no schedulable
//! thread with live threads remaining), which the checker reports
//! with a replay seed. The explicit asserts check that exactly the
//! produced items are consumed.
//!
//! Two variants:
//! * [`backpressure_no_deadlock`] — capacity 1, two producers: every
//!   producer must block at least somewhere in some interleaving, and
//!   all must still drain.
//! * [`conditional_notify_no_lost_wakeup`] — large capacity, so the
//!   second producer *skips* the notify; the dispatcher's
//!   drain-before-parking loop must still consume both items.

use std::sync::Arc;

use crate::sync::{Condvar, Mutex};
use crate::vt;

struct Queue {
    items: Mutex<Vec<u32>>,
    /// Dispatcher parks here when the queue is empty.
    work: Condvar,
    /// Producers park here when the queue is at capacity.
    space: Condvar,
}

/// Shared body: `producers` × one item each through a queue of
/// `capacity`; the main virtual thread is the dispatcher.
fn queue_model(producers: u32, capacity: usize) {
    let q = Arc::new(Queue {
        items: Mutex::new(Vec::new()),
        work: Condvar::new(),
        space: Condvar::new(),
    });

    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let q = Arc::clone(&q);
            vt::spawn(move || {
                let mut items = q.items.lock();
                while items.len() >= capacity {
                    items = q.space.wait(items);
                }
                items.push(p);
                if items.len() == 1 {
                    // Conditional notify, as in the real enqueue: only
                    // the empty→non-empty transition can have a parked
                    // dispatcher to wake.
                    q.work.notify_one();
                }
            })
        })
        .collect();

    // Dispatcher: drain everything available, then park; repeat until
    // every produced item was consumed.
    let mut consumed = Vec::new();
    let mut items = q.items.lock();
    while (consumed.len() as u32) < producers {
        while items.is_empty() {
            items = q.work.wait(items);
        }
        while let Some(item) = items.pop() {
            consumed.push(item);
            q.space.notify_one();
        }
    }
    drop(items);

    for h in handles {
        h.join();
    }
    consumed.sort_unstable();
    let expect: Vec<u32> = (0..producers).collect();
    assert_eq!(consumed, expect, "items lost or duplicated in the queue");
}

/// Capacity-1 queue with two producers: backpressure engages, nothing
/// deadlocks, both items drain.
pub fn backpressure_no_deadlock() {
    queue_model(2, 1);
}

/// Roomy queue, so the second producer skips its notify; the
/// dispatcher's drain loop must still consume everything (a lost
/// wakeup here would deadlock and be reported).
pub fn conditional_notify_no_lost_wakeup() {
    queue_model(2, 4);
}
