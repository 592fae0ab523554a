//! # iiot-aggregate — in-network aggregation for the sensing and actuation layer
//!
//! Implements TAG/TinyDB-style acquisitional query processing (paper
//! §IV-B): continuous `SELECT agg(attr) SAMPLE PERIOD e` queries are
//! disseminated down a collection tree, and each node sends a single
//! mergeable *partial state record* per epoch instead of forwarding
//! every raw reading — alleviating the traffic funnel at border
//! routers. A raw-forwarding baseline is included for experiment E3.
//!
//! * [`query`] — the query language and its wire codec;
//! * [`partial`] — mergeable partial state records (MIN/MAX/SUM/COUNT/AVG);
//! * [`tree`] — the epoch-scheduled collection protocol, generic over
//!   the [`Mac`](iiot_mac::Mac), with aggregate and raw modes.
//!
//! # Examples
//!
//! One partial state record per subtree carries every aggregate at
//! once; merging is how a parent folds its children in:
//!
//! ```
//! use iiot_aggregate::{Agg, Partial};
//!
//! let mut subtree = Partial::of(20.5);       // own reading
//! subtree.merge(&Partial::of(23.0));         // child A
//! subtree.merge(&Partial::of(19.0));         // child B
//! assert_eq!(subtree.count, 3);
//! assert_eq!(subtree.finalize(Agg::Max), Some(23.0));
//! assert_eq!(subtree.finalize(Agg::Avg), Some(62.5 / 3.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod partial;
pub mod query;
pub mod tree;

pub use partial::Partial;
pub use query::{Agg, Query};
pub use tree::{AggConfig, AggregationNode, EpochResult, Mode};
