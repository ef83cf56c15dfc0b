//! # experiments — regenerating every table and figure of the paper
//!
//! One module per evaluation artifact (DESIGN.md §5 maps each to the
//! modules it exercises). Every experiment:
//!
//! * is fully deterministic given a `u64` seed;
//! * returns a typed result struct (consumed by `repro` and the
//!   integration tests);
//! * can print the same rows/series the paper reports and write CSVs via
//!   [`common`].
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig1`] | Fig. 1 — carbon intensity across three grid regions |
//! | [`fig4`] | Fig. 4a/4b — carbon & runtime under §5.1 policies; Fig. 5 multi-tenancy series |
//! | [`fig6`] | Fig. 6/7 — web SLOs under carbon budgeting policies |
//! | [`fig8`] | Fig. 8/9 — virtual-battery policies for Spark + web |
//! | [`fig10`] | Fig. 10/11 — solar vertical scaling & straggler replicas |
//!
//! The `repro` binary dispatches: `repro fig4a`, `repro all`, ...

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod fig1;
pub mod fig10;
pub mod fig4;
pub mod fig6;
pub mod fig8;
