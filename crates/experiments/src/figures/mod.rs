//! One module per reproduced paper figure/table. Each exposes functions
//! returning structured data plus a rendered [`crate::table::Table`].
//!
//! See `DESIGN.md` for the experiment index mapping figures to modules, and
//! `EXPERIMENTS.md` for paper-vs-measured results.

pub mod ablations;
pub mod calibrate;
pub mod comparisons;
pub mod config_table;
pub mod context;
pub mod debug_dump;
pub mod mechanism;
pub mod motivation;
pub mod occupancy;
pub mod overhead;
pub mod prediction;
pub mod robustness;
pub mod sensitivity;
pub mod slack;
pub mod timeseries;

pub use ablations::ablation_tables;
pub use calibrate::{calibration_report, calibration_report_from};
pub use comparisons::{
    fig11_progress_illustration, fig19_vs_private, fig20_vs_shared, fig21_vs_throughput,
    fig22_eight_core, improvement_chart,
};
pub use config_table::fig02_config;
pub use context::SuiteData;
pub use debug_dump::interval_dump;
pub use mechanism::{mechanism_banked_table, mechanism_table};
pub use occupancy::{occupancy_chart, occupancy_series, occupancy_table};
pub use overhead::overhead_table;
pub use motivation::{
    fig03_thread_performance, fig04_thread_misses, fig05_cpi_miss_correlation,
    fig08_interthread_interaction, fig09_interaction_breakdown,
};
pub use prediction::{prediction_error_table, prediction_errors, PredictionErrors};
pub use robustness::{robustness_outcomes, robustness_table};
pub use sensitivity::{fig10_way_sensitivity, fig15_chart, fig15_cpi_models};
pub use slack::{critical_cpi_distribution, slack_fraction, slack_table};
pub use timeseries::{fig06_chart, fig06_swim_cpi_timeline, fig07_swim_miss_timeline, fig18_cg_snapshot};
