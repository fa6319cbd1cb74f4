//! The four workloads, each chosen to load a different set of layers.

pub mod encode_bound;
pub mod history_dashboard;
pub mod sim_line;
pub mod station_ingest;
