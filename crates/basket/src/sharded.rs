//! The shared stream handle: one basket behind the paper's
//! `lock()`/`unlock()` bracket.
//!
//! The paper's receptors append to a basket and its factories read it,
//! each inside one `lock()`/`unlock()` bracket (§2). [`ShardedBasket`] is
//! exactly that: one [`Basket`] behind one mutex, shared by every clone of
//! the handle. [`ShardedBasket::with`] is the bracket (reads, expiry), and
//! [`ShardedBasket::append`] is one append under it, so concurrent writers
//! get dense, monotone oids in the order they take the lock, and a reader
//! that saw `end_oid() == e` can read every resident oid below `e`.
//!
//! ## Lock order
//!
//! There is one lock per stream, the basket's mutex, and no path holds it
//! while taking another basket's, so the handle cannot deadlock against
//! readers, writers or the engine's GC.
//!
//! The lock is a `std::sync::Mutex`, and a poisoned one is recovered with
//! [`PoisonError::into_inner`] at each acquisition, never unwrapped. That
//! is the workspace's one poison policy (the scheduler's work queue and
//! the telemetry registry follow it too), and it is sound here: the only
//! caller code that runs under the lock is a [`ShardedBasket::with`]
//! closure, whose panic the scheduler already turns into a typed error;
//! the basket validates a batch before it mutates anything, so a panic
//! cannot leave it half-written. So a panicking reader costs that reader,
//! not the stream.

use crate::basket::{Basket, Timestamp};
use datacell_kernel::{Column, Oid};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Anything a receptor can deliver batches into. Receptor front-ends
/// (`CsvReceptor::flush_into`, `GeneratorReceptor::pump`) are generic
/// over this, so a bench can time parsing against a sink that discards.
pub trait Ingest {
    /// Append a batch of aligned columns stamped `now`; returns the oid
    /// of the first appended tuple.
    fn ingest(&self, batch: &[Column], now: Timestamp) -> crate::Result<Oid>;
}

impl Ingest for ShardedBasket {
    fn ingest(&self, batch: &[Column], now: Timestamp) -> crate::Result<Oid> {
        self.append(batch, now)
    }
}

struct State {
    name: String,
    merged: Mutex<Basket>,
}

/// A basket behind a mutex — the shared handle receptors and factories
/// use concurrently. Cloning shares the basket.
#[derive(Clone)]
pub struct ShardedBasket {
    state: Arc<State>,
}

impl fmt::Debug for ShardedBasket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedBasket")
            .field("name", &self.state.name)
            .field("resident", &(self.base_oid()..self.end_oid()))
            .finish()
    }
}

impl ShardedBasket {
    /// Share a basket; its oids, stamps and high-water mark carry over.
    pub fn new(basket: Basket) -> ShardedBasket {
        ShardedBasket {
            state: Arc::new(State { name: basket.name().to_owned(), merged: Mutex::new(basket) }),
        }
    }

    /// Stream name.
    pub fn name(&self) -> &str {
        &self.state.name
    }

    /// Run `f` with the basket locked — the paper's lock/unlock bracket.
    pub fn with<R>(&self, f: impl FnOnce(&mut Basket) -> R) -> R {
        let mut guard = self.state.merged.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }

    /// Resident tuple count.
    pub fn len(&self) -> usize {
        self.with(|b| b.len())
    }

    /// True when no tuple is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// First resident oid (the expiry front).
    pub fn base_oid(&self) -> Oid {
        self.with(|b| b.base_oid())
    }

    /// One past the newest oid. Monotonically non-decreasing, so
    /// schedulers poll it as a cheap growth signal.
    pub fn end_oid(&self) -> Oid {
        self.with(|b| b.end_oid())
    }

    /// Append a batch stamped `now` under the lock ([`Basket::append`]:
    /// a stamp below the stream's high-water mark is rejected).
    pub fn append(&self, batch: &[Column], now: Timestamp) -> crate::Result<Oid> {
        self.with(|b| b.append(batch, now))
    }

    /// [`ShardedBasket::end_oid`]: every append is readable when it
    /// returns, so there is nothing to seal. Kept only because the
    /// wire-to-result benchmark's replay (`benchmark/src/replay.rs`)
    /// times a `seal()` per slide.
    pub fn seal(&self) -> Oid {
        self.end_oid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basket::BasketError;
    use datacell_kernel::DataType;

    fn basket() -> Basket {
        Basket::new("s", &[("x", DataType::Int)])
    }

    fn ints(vals: &[i64]) -> Vec<Column> {
        vec![Column::Int(vals.to_vec())]
    }

    fn basket_ints(b: &Basket) -> (Oid, Vec<i64>, Vec<Timestamp>) {
        let w = b.snapshot();
        (w.base_oid(), w.col(0).unwrap().as_int().unwrap().to_vec(), w.timestamps().to_vec())
    }

    fn snapshot_ints(sb: &ShardedBasket) -> (Oid, Vec<i64>, Vec<Timestamp>) {
        sb.with(|b| basket_ints(b))
    }

    #[test]
    fn appends_are_byte_identical_to_a_plain_basket() {
        // The same append sequence — including error cases — through a
        // bare Basket and the shared handle.
        let mut plain = basket();
        let shared = ShardedBasket::new(basket());
        let script: &[(&[i64], Timestamp)] = &[(&[1, 2], 5), (&[3], 5), (&[], 0), (&[4, 5, 6], 9)];
        for (vals, ts) in script {
            assert_eq!(plain.append(&ints(vals), *ts), shared.append(&ints(vals), *ts));
        }
        // A stamp regression and a schema violation error identically
        // and consume no oid.
        let err = shared.append(&ints(&[7]), 3).unwrap_err();
        assert!(matches!(err, BasketError::Malformed(_)));
        assert_eq!(plain.append(&ints(&[7]), 3), Err(err));
        let float = [Column::Float(vec![0.5])];
        assert_eq!(plain.append(&float, 9), shared.append(&float, 9));
        assert_eq!(basket_ints(&plain), snapshot_ints(&shared));
        assert_eq!((shared.seal(), shared.end_oid()), (6, plain.end_oid()));
    }

    #[test]
    fn clones_share_one_basket() {
        let a = ShardedBasket::new(basket());
        let b = a.clone();
        a.append(&ints(&[1]), 0).unwrap();
        b.append(&ints(&[2]), 0).unwrap();
        assert_eq!((a.len(), a.end_oid()), (2, 2));
        b.with(|b| b.expire_upto(1));
        assert_eq!((a.base_oid(), a.len()), (1, 1));
    }

    #[test]
    fn a_basket_with_history_keeps_its_oids_and_stamps_when_shared() {
        let mut b = basket();
        b.append(&ints(&[1]), 7).unwrap();
        let sb = ShardedBasket::new(b);
        assert!(sb.append(&ints(&[2]), 6).is_err(), "high-water mark carried over");
        assert_eq!(sb.ingest(&ints(&[2]), 7).unwrap(), 1);
        assert_eq!(snapshot_ints(&sb), (0, vec![1, 2], vec![7, 7]));
    }

    #[test]
    fn poisoned_locks_are_recovered_at_every_site() {
        // Poison the basket's mutex through a panicking `with` closure:
        // every public path must still see the right oids and values.
        let sb = ShardedBasket::new(basket());
        sb.append(&ints(&[1]), 0).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sb.with(|_| panic!("reader bug"));
        }));
        assert!(caught.is_err());
        assert!(sb.state.merged.is_poisoned());
        assert_eq!(sb.append(&ints(&[2]), 1).unwrap(), 1);
        assert_eq!(sb.ingest(&ints(&[3, 4]), 2).unwrap(), 2);
        assert_eq!(sb.append(&ints(&[]), 0).unwrap(), 4);
        assert_eq!((sb.len(), sb.base_oid(), sb.end_oid(), sb.seal()), (4, 0, 4, 4));
        assert!(!sb.is_empty());
        assert_eq!(snapshot_ints(&sb), (0, vec![1, 2, 3, 4], vec![0, 1, 2, 2]));
        assert!(format!("{sb:?}").contains("resident: 0..4"));
    }
}
