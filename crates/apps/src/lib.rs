//! Application workloads for the TreeSLS evaluation.
//!
//! From-scratch equivalents of the paper's §7 applications, with every
//! data structure generic over [`treesls_extsync::MemIo`] so the same
//! code runs transparently persisted inside TreeSLS and unprotected on
//! the baseline backends:
//!
//! * [`hashkv`] — open-addressing hash KV (the Memcached/Redis stand-in).
//! * [`lsm`] — log-structured merge tree with optional WAL (RocksDB /
//!   LevelDB stand-in, §7.5.2).
//! * [`btree`] — page-based B+ tree (SQLite stand-in).
//! * [`phoenix`] — WordCount / KMeans / PCA compute kernels (Phoenix-2.0
//!   stand-ins, Table 2 / Figure 10).
//! * [`server`] — in-SLS server and client *programs* (re-entrant step
//!   machines) for both network-port and IPC deployments.
//! * [`client`] — host-side (external) closed-loop clients with latency
//!   histograms.
//! * [`workload`] — YCSB generators (zipfian, mixes A/B/C, 100 % update /
//!   insert) and the Facebook `Prefix_dist` distribution.
//! * [`ycsb`] — transactional YCSB A–F over the `treesls-txn` wire
//!   protocol: choosers, working-set churn, per-tenant frame plans with
//!   paired two-frame RMW transactions.
//! * [`hist`] — log-bucketed latency histograms (P50/P95/P99).
//! * [`wire`] — the KV wire protocol shared by servers and clients.
//!
//! The flat host-memory backend the baselines and unit tests run these
//! structures on is [`treesls_extsync::HeapMem`].

#![deny(missing_docs)]

pub mod btree;
pub mod client;
pub mod hashkv;
pub mod hist;
pub mod lsm;
pub mod phoenix;
pub mod server;
pub mod wire;
pub mod workload;
pub mod ycsb;

pub use hashkv::HashKv;
pub use hist::Histogram;
pub use lsm::{Lsm, LsmConfig};
pub use wire::{KvOp, KvResp};
