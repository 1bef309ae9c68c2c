//! The SDN controller kernel and isolation architecture for the SDNShield
//! reproduction (paper §VI, §VIII).
//!
//! Two controller builds share one kernel and one [`app::App`] programming
//! model:
//!
//! * [`isolation::ShieldedController`] — the SDNShield architecture: apps on
//!   unprivileged threads, every API call marshalled over channels to a pool
//!   of Kernel Service Deputy threads that permission-check and execute it;
//! * [`monolithic::MonolithicController`] — the unmodified-controller
//!   baseline: direct calls, no checks, no isolation.
//!
//! Supporting modules: [`kernel`] (the state owner and check/execute choke
//! point), [`api`] (typed call/response surface), [`events`], [`hostsys`]
//! (the simulated host OS that Class-2 attacks exfiltrate through),
//! [`audit`] (forensic activity log), [`fault`] (the fault-injection harness
//! driving the crash-containment tests), [`command`] (the serializable
//! command vocabulary and kernel snapshot format), [`journal`]
//! (the durable CRC-framed command log behind crash recovery, record/replay
//! debugging, and warm-standby failover — DESIGN.md §12).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod app;
pub(crate) mod arena;
pub mod audit;
pub mod command;
pub mod events;
pub mod fault;
pub mod hostsys;
pub mod isolation;
pub mod journal;
pub mod kernel;
pub mod monolithic;
pub mod southbound;

pub use api::{ApiError, ApiResponse, FlowOp, TopologyView};
pub use app::{App, AppCtx, BurstOutput};
pub use command::{Command, CommandOutcome, KernelSnapshot};
pub use events::Event;
pub use fault::FaultPlan;
pub use isolation::{
    AppState, ControllerConfig, KernelCell, RegisterError, RestartPolicy, ShieldedController,
    WarmStandby,
};
pub use journal::{Journal, JournalFaults, JournalRecord};
pub use kernel::Kernel;
pub use monolithic::MonolithicController;
