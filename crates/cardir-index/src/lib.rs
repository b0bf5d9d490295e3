//! Closed-interval plane-sweep stabbing over region MBB intervals.
//!
//! Whether Compute-CDR needs edge work for a pair `(a, b)` is a pure
//! function of the two MBBs: the pair is box-decided unless a grid
//! coordinate of `mbb(b)` lies in `mbb(a)`'s closed interval on some
//! axis. The spatial join answers that question for every pair at once
//! with one sweep per axis ([`sweep_stabs`]) instead of `n²` box tests.
//!
//! # Example
//!
//! ```
//! use cardir_index::{sweep_stabs, Interval};
//!
//! // Three regions' x-intervals and the grid lines x = 2 and x = 9.
//! let intervals = [Interval::new(0.0, 4.0), Interval::new(2.0, 3.0), Interval::new(5.0, 8.0)];
//! let mut hits = Vec::new();
//! sweep_stabs(&intervals, &[2.0, 9.0], &mut |i, p| hits.push((i, p)));
//! hits.sort_unstable();
//! // x = 2 stabs the first interval and touches the second's closed end;
//! // nothing contains x = 9.
//! assert_eq!(hits, [(0, 0), (1, 0)]);
//! ```

mod sweep;

pub use sweep::{sweep_stabs, Interval};
