//! # flowtab — flow reconstruction for the measurement pipeline
//!
//! Turns a stream of captured packets (parsed with [`netpkt`]) into
//! *flow records*: one record per transport connection, carrying the fields
//! the HIDS feature extractor needs — initiator/responder endpoints,
//! transport protocol, whether a SYN was seen from the initiator, packet and
//! byte counts, timestamps, and an application-protocol label.
//!
//! The paper's data pipeline ran `windump` on each end host and post-
//! processed with Bro; this crate is the equivalent of that post-processing
//! stage. The same [`FlowRecord`] type is also produced directly by the
//! synthetic trace generator, which is what makes the fast (flow-level) and
//! faithful (packet-level) experiment paths comparable.
//!
//! ```
//! use flowtab::{FlowExtractor, AppProtocol};
//! use netpkt::testutil::{build_tcp_frame, FrameSpec};
//! use netpkt::TcpFlags;
//!
//! let mut ex = FlowExtractor::new(Default::default());
//! let spec = FrameSpec::default(); // TCP to port 80
//! ex.push_frame(0.0, &build_tcp_frame(&spec, TcpFlags::syn_only(), 1, &[])).unwrap();
//! ex.push_frame(0.2, &build_tcp_frame(&spec, TcpFlags(TcpFlags::ACK), 2, b"GET /")).unwrap();
//! let records = ex.finish();
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].app, AppProtocol::Http);
//! assert!(records[0].initiator_syn);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod connlog;
pub mod dnstrack;
pub mod extract;
pub mod features;
pub mod record;
pub mod table;
pub mod tuple;

pub use conn::{TcpConnState, TcpTracker};
pub use dnstrack::{DnsStats, DnsTracker, DnsTransaction};
pub use extract::{ExtractError, ExtractStats, FlowExtractor};
pub use features::{
    extract_features, CountColumns, FeatureColumns, FeatureCounts, FeatureKind, FeatureSeries,
    FeatureWeek, Windowing,
};
pub use record::{total_order_key, AppProtocol, FlowRecord};
pub use table::{FlowTable, FlowTableConfig};
pub use tuple::{Endpoint, FiveTuple, FlowDirection, Transport};
