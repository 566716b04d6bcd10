//! Content-addressed sweep results store (ROADMAP item 3).
//!
//! A 10k-point sweep grid is an overnight job once each cell streams
//! millions of requests; this crate makes completed work durable. Each
//! finished cell is persisted as `results/<hash>.json`, keyed by the SHA-256
//! of its canonical cell spec plus a semantic epoch, so an interrupted or
//! edited sweep re-runs exactly the cells whose inputs changed and nothing
//! else. The mergeable-etcd evaluation framework is the model: "avoids
//! re-running configurations that have already completed".
//!
//! Three layers, smallest first:
//! - [`sha256`]: self-contained FIPS 180-4 digest (the build is offline; no
//!   crypto crate exists to depend on).
//! - [`atomic`]: temp-file + rename writes, shared by the store and every
//!   `--out`/perf-history artefact in the workspace.
//! - [`store`]: the content-addressed directory itself, with strict
//!   read-back validation so corruption is a loud error, never a silent
//!   cache miss.

pub mod atomic;
pub mod sha256;
pub mod store;

pub use atomic::write_atomic;
pub use sha256::sha256_hex;
pub use store::{ResultsStore, StoredCell, STORE_FORMAT};
