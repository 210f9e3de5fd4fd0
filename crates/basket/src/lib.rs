//! # datacell-basket
//!
//! The stream edges of the DataCell architecture (paper Fig. 1):
//!
//! * [`Basket`] — the "lightweight table" into which receptors drop arriving
//!   stream tuples and out of which factories read windows. Baskets tag every
//!   tuple with an arrival timestamp and a global, monotonically increasing
//!   oid (its position in the stream since the beginning of time), and they
//!   support the paper's primitive operations: `append`, `getLatest`
//!   (here: [`Basket::read_range`]), `delete` of expired prefixes
//!   ([`Basket::expire_upto`]) and `split` into basic windows
//!   ([`BasicWindow::split`]).
//! * [`ShardedBasket`] — the one shared stream handle: a basket behind a
//!   `parking_lot` mutex ([`ShardedBasket::with`] is the `basket.lock()` /
//!   `basket.unlock()` bracket of the paper's Algorithms 1–2), fronted by N
//!   independently-locked staging shards plus a global oid/clock allocator
//!   so many receptors append without contending on that mutex; a seal
//!   step merges shards into the ordered view factories read. One shard
//!   stages nothing: appends write the view directly, byte-identical to a
//!   bare [`Basket`].
//! * [`receptor`] — CSV and synthetic-generator receptors, including the
//!   full parse-and-load path measured by the paper's loading-cost breakdown.

pub mod basket;
pub mod receptor;
pub mod sharded;
pub mod threaded;
pub mod window;

pub use basket::{Basket, BasketError, Timestamp};
pub use receptor::{CsvError, CsvReceptor, GeneratorReceptor, MalformedPolicy, ParseOutcome};
pub use sharded::{Ingest, ShardStats, ShardedBasket};
pub use threaded::ReceptorHandle;
pub use window::BasicWindow;

/// Result alias for basket operations.
pub type Result<T> = std::result::Result<T, BasketError>;
