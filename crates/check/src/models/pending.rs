//! Model of the `TieredStore` pending-key condvar protocol.
//!
//! `storage::store` keeps a pending set of keys whose bytes are out of
//! the map: an SSD transfer in flight, or an in-place borrow
//! (`with_blobs_mut`) lending the buffer to an optimizer update. Either
//! way the path marks the key pending, works with the lock *released*,
//! then re-locks, puts the bytes (back) into the map, clears the pending
//! mark, and `notify_all`s waiters. Any other operation on the key waits
//! on the condvar in a loop, so it never sees the map without the bytes.
//!
//! The model is one key with one I/O thread completing a transfer that is
//! already in flight, one borrower that lends the bytes out and puts
//! them back updated, and one reader (a second reader multiplies the
//! schedule tree without adding a state). The invariant is that the
//! reader eventually finds the key's bytes in the map. The mutants turn a rare
//! unlucky interleaving into a thread that sleeps forever (lost notify,
//! reported as a deadlock) or a reader that finds the bytes missing
//! (forgotten re-insert, skipped pending wait).

use std::sync::Arc;

use crate::sync::{thread, Condvar, Mutex};

/// Which pending-key protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The shipped protocol: clearing the pending mark notifies all
    /// waiters, and a borrow puts its bytes back before clearing it.
    Pristine,
    /// Seeded bug: the I/O completion clears the pending mark without
    /// notifying — any thread that started waiting before the clear
    /// sleeps forever.
    LostNotify,
    /// Seeded bug: the borrow clears the pending mark but forgets to put
    /// the bytes back into the map — the key is live with no bytes.
    ForgetReinsert,
    /// Seeded bug: a reader looks the key up without waiting out the
    /// pending mark, so it can land while the bytes are out of the map.
    SkipPendingWait,
}

struct Key {
    state: Mutex<KeyState>,
    cv: Condvar,
}

#[derive(Debug)]
struct KeyState {
    pending: bool,
    /// The key's bytes in the map; `None` while they are out of it (a
    /// transfer in flight or a borrow outstanding).
    bytes: Option<u64>,
}

/// Runs the model once under the current scheduler: the key starts
/// pending with its transfer in flight; one I/O thread completes it, one
/// borrower lends the bytes out and returns them updated, and a reader
/// looks the key up.
pub fn run(variant: Variant) {
    let key = Arc::new(Key {
        state: Mutex::named(
            "store.inner",
            KeyState {
                pending: true,
                bytes: None,
            },
        ),
        cv: Condvar::named("store.pending_cv"),
    });

    let io = {
        let key = Arc::clone(&key);
        thread::spawn_named("io", move || {
            // The transfer itself happens with the lock released; the
            // yield is the schedule point standing in for SSD latency.
            thread::yield_now();
            let mut st = key.state.lock();
            st.bytes = Some(42);
            st.pending = false;
            if variant != Variant::LostNotify {
                key.cv.notify_all();
            }
        })
    };

    let borrower = {
        let key = Arc::clone(&key);
        thread::spawn_named("borrower", move || {
            let mut st = key.state.lock();
            while st.pending {
                key.cv.wait(&mut st);
            }
            st.pending = true;
            let lent = st.bytes.take();
            drop(st);
            // The in-place update runs with the lock released.
            thread::yield_now();
            let mut st = key.state.lock();
            if variant != Variant::ForgetReinsert {
                st.bytes = lent.map(|v| v + 1);
            }
            st.pending = false;
            key.cv.notify_all();
        })
    };

    let reader = {
        let key = Arc::clone(&key);
        thread::spawn_named("reader", move || {
            let mut st = key.state.lock();
            if variant != Variant::SkipPendingWait {
                while st.pending {
                    key.cv.wait(&mut st);
                }
            }
            crate::check(
                matches!(st.bytes, Some(42 | 43)),
                format!(
                    "reader found the key's bytes out of the map (bytes = {:?}, \
                     pending = {}) [store.inner]",
                    st.bytes, st.pending
                ),
            );
        })
    };

    io.join();
    borrower.join();
    reader.join();
}
