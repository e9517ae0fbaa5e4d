//! Small, faithful models of the three core Ratel sync protocols, plus
//! seeded-bug mutants.
//!
//! Each module models one protocol with [`crate::sync`] primitives so it
//! runs under the [`crate::explore::Explorer`]:
//!
//! * [`seqlock`] — the flight-recorder seqlock ring
//!   (`crates/obs/src/flight.rs`): invalidate-stamp / payload / publish-
//!   stamp writer vs. stamp / payload / stamp-recheck reader.
//! * [`pending`] — the `TieredStore` pending-key condvar protocol
//!   (`crates/storage/src/store.rs`): a key's bytes leave the map for
//!   SSD I/O or an in-place borrow with the key marked pending outside
//!   the lock; waiters block on a condvar until the bytes are back.
//! * [`exec`] — the dependency-counted ready queues of the executor
//!   (`crates/core/src/engine/executor.rs`): upstream completions
//!   decrement a dependency counter; the final decrement enqueues.
//! * [`locks`] — a two-lock ordering model for the lock-order tracker
//!   and explorer deadlock detection.
//!
//! Every module has a `Pristine` variant (must pass full bounded
//! exploration) and at least one seeded-bug mutant (must be caught with
//! an interleaving witness); `tests/check_mutations.rs` at the workspace
//! root enforces both directions.

pub mod exec;
pub mod locks;
pub mod pending;
pub mod seqlock;
