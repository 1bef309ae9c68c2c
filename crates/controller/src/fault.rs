//! Fault-injection harness for the crash-containment tests.
//!
//! The supervision subsystem (app reaping, deputy watchdog, overload
//! shedding) is only trustworthy if it can be exercised deterministically.
//! A [`FaultPlan`] describes *where* and *when* a component should
//! misbehave:
//!
//! * app-side faults (`panic_on_start`, `panic_on_nth_event`,
//!   `stall_on_nth_event`) are interpreted by the app under test itself —
//!   see `CrasherApp` in `sdnshield-apps` — because only the app thread can
//!   panic "inside `on_event`";
//! * deputy-side faults (`panic_in_deputy_on_nth_call`,
//!   `drop_reply_on_nth_call`, `kill_deputy_on_nth_call`) are armed on the
//!   controller with `ShieldedController::arm_faults` and consulted by the
//!   deputy loop per mediated call, keyed by the calling app. Every
//!   command an app submits runs under the deputy's unwind guard, but
//!   only `Command::Call` counts towards N: transactions, batches, host
//!   sends and topic subscriptions never consult the plan. The app
//!   runtime also applies the output a burst handler returns
//!   (`App::on_events`) and counts those applies on a counter of their
//!   own; it consults only the panic fault, which fires on whichever path
//!   reaches N first.
//!
//! Counters are 1-based: `panic_on_nth_event = Some(2)` crashes while
//! handling the second delivered event. Each deputy fault fires exactly
//! once, then disarms, so a respawned deputy (or retried call) proceeds
//! normally.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use sdnshield_core::api::AppId;

/// A declarative fault schedule for one app.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Panic inside `on_start` (registration-time crash).
    pub panic_on_start: bool,
    /// Panic while handling the Nth delivered event (1-based).
    pub panic_on_nth_event: Option<u32>,
    /// Sleep for the given duration while handling the Nth event (1-based).
    pub stall_on_nth_event: Option<(u32, Duration)>,
    /// Panic inside the deputy executing the app's Nth mediated call, or
    /// inside the runtime applying the app's Nth returned burst output,
    /// whichever comes first (the two are counted apart).
    pub panic_in_deputy_on_nth_call: Option<u32>,
    /// Execute the app's Nth call but never send the reply (the sender is
    /// parked alive, so the app's per-call timeout — not channel disconnect
    /// — is what unblocks it).
    pub drop_reply_on_nth_call: Option<u32>,
    /// Kill the whole deputy thread on the app's Nth call (exercises the
    /// watchdog respawn path).
    pub kill_deputy_on_nth_call: Option<u32>,
    /// Journal fault: tear the command-journal write that crosses this file
    /// byte offset, then die (see [`crate::journal::JournalFaults`]).
    pub torn_journal_write_at_byte: Option<u64>,
    /// Journal fault: corrupt the stored CRC of the journal record with
    /// this commit sequence.
    pub corrupt_journal_crc_on_record: Option<u64>,
    /// Journal fault: die between applying and appending the record with
    /// this commit sequence.
    pub crash_before_journal_append_on_record: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Panic inside `on_start`.
    pub fn panic_on_start(mut self) -> Self {
        self.panic_on_start = true;
        self
    }

    /// Panic while handling the `n`th event (1-based).
    pub fn panic_on_event(mut self, n: u32) -> Self {
        self.panic_on_nth_event = Some(n);
        self
    }

    /// Stall for `d` while handling the `n`th event (1-based).
    pub fn stall_on_event(mut self, n: u32, d: Duration) -> Self {
        self.stall_on_nth_event = Some((n, d));
        self
    }

    /// Panic inside the deputy on the `n`th mediated call (1-based).
    pub fn panic_in_deputy(mut self, n: u32) -> Self {
        self.panic_in_deputy_on_nth_call = Some(n);
        self
    }

    /// Swallow the reply to the `n`th mediated call (1-based).
    pub fn drop_reply(mut self, n: u32) -> Self {
        self.drop_reply_on_nth_call = Some(n);
        self
    }

    /// Kill the deputy thread serving the `n`th mediated call (1-based).
    pub fn kill_deputy(mut self, n: u32) -> Self {
        self.kill_deputy_on_nth_call = Some(n);
        self
    }

    /// Tear the journal write that crosses file byte offset `at`.
    pub fn torn_journal_write_at_byte(mut self, at: u64) -> Self {
        self.torn_journal_write_at_byte = Some(at);
        self
    }

    /// Corrupt the stored CRC of journal record `seq`.
    pub fn corrupt_journal_crc_on_record(mut self, seq: u64) -> Self {
        self.corrupt_journal_crc_on_record = Some(seq);
        self
    }

    /// Die between applying and appending journal record `seq`.
    pub fn crash_before_journal_append(mut self, seq: u64) -> Self {
        self.crash_before_journal_append_on_record = Some(seq);
        self
    }

    /// The journal-level faults in this plan, ready to arm on a
    /// [`crate::journal::Journal`].
    pub fn journal_faults(&self) -> crate::journal::JournalFaults {
        crate::journal::JournalFaults {
            torn_write_at_byte: self.torn_journal_write_at_byte,
            corrupt_crc_on_record: self.corrupt_journal_crc_on_record,
            crash_before_append_on_record: self.crash_before_journal_append_on_record,
        }
    }
}

/// What a deputy should do with the call it is about to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeputyFault {
    /// Execute normally.
    None,
    /// Panic mid-execution (caught by the deputy's unwind guard).
    Panic,
    /// Execute, then discard the reply without sending it.
    DropReply,
    /// Die: panic outside the unwind guard, taking the deputy thread down.
    KillDeputy,
}

struct ArmedPlan {
    plan: FaultPlan,
    /// Mediated `Call`s seen (every deputy fault).
    calls_seen: u32,
    /// Returned burst outputs applied (the panic fault only).
    outputs_seen: u32,
}

/// Per-app armed fault plans, shared between the controller front-end (which
/// arms them) and the deputy pool (which consults them).
#[derive(Default)]
pub(crate) struct FaultRegistry {
    plans: Mutex<HashMap<AppId, ArmedPlan>>,
    /// Reply senders deliberately kept alive by `DropReply` so the caller
    /// sees a timeout rather than a disconnect.
    parked: Mutex<Vec<Box<dyn std::any::Any + Send>>>,
}

impl FaultRegistry {
    /// Arms (or replaces) the plan for an app. Counters restart at zero.
    pub(crate) fn arm(&self, app: AppId, plan: FaultPlan) {
        self.plans.lock().unwrap_or_else(|p| p.into_inner()).insert(
            app,
            ArmedPlan {
                plan,
                calls_seen: 0,
                outputs_seen: 0,
            },
        );
    }

    /// Called by a deputy once per mediated call from `app`; returns the
    /// fault (if any) scheduled for this call. Each fault fires once.
    pub(crate) fn deputy_action(&self, app: AppId) -> DeputyFault {
        let mut plans = self.plans.lock().unwrap_or_else(|p| p.into_inner());
        let Some(armed) = plans.get_mut(&app) else {
            return DeputyFault::None;
        };
        armed.calls_seen += 1;
        let nth = armed.calls_seen;
        if armed.plan.kill_deputy_on_nth_call == Some(nth) {
            armed.plan.kill_deputy_on_nth_call = None;
            return DeputyFault::KillDeputy;
        }
        if armed.plan.panic_in_deputy_on_nth_call == Some(nth) {
            armed.plan.panic_in_deputy_on_nth_call = None;
            return DeputyFault::Panic;
        }
        if armed.plan.drop_reply_on_nth_call == Some(nth) {
            armed.plan.drop_reply_on_nth_call = None;
            return DeputyFault::DropReply;
        }
        DeputyFault::None
    }

    /// Called by the app runtime once per burst output it applies for
    /// `app`; true when the panic fault is scheduled for this apply. The
    /// kill and drop-reply faults have no target here and are left armed.
    pub(crate) fn output_panic(&self, app: AppId) -> bool {
        let mut plans = self.plans.lock().unwrap_or_else(|p| p.into_inner());
        let Some(armed) = plans.get_mut(&app) else {
            return false;
        };
        armed.outputs_seen += 1;
        if armed.plan.panic_in_deputy_on_nth_call == Some(armed.outputs_seen) {
            armed.plan.panic_in_deputy_on_nth_call = None;
            return true;
        }
        false
    }

    /// Keeps a reply sender alive for the rest of the controller's lifetime.
    pub(crate) fn park(&self, sender: Box<dyn std::any::Any + Send>) {
        self.parked
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(sender);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deputy_faults_fire_once_at_the_scheduled_call() {
        let reg = FaultRegistry::default();
        reg.arm(AppId(1), FaultPlan::none().panic_in_deputy(2));
        assert_eq!(reg.deputy_action(AppId(1)), DeputyFault::None);
        assert_eq!(reg.deputy_action(AppId(1)), DeputyFault::Panic);
        assert_eq!(reg.deputy_action(AppId(1)), DeputyFault::None);
        // Unarmed apps are never faulted.
        assert_eq!(reg.deputy_action(AppId(2)), DeputyFault::None);
    }

    #[test]
    fn kill_takes_precedence_and_counters_are_per_app() {
        let reg = FaultRegistry::default();
        let plan = FaultPlan::none().kill_deputy(1).drop_reply(1);
        reg.arm(AppId(3), plan);
        assert_eq!(reg.deputy_action(AppId(3)), DeputyFault::KillDeputy);
        // Drop-reply was scheduled for call 1 as well; it missed its slot.
        assert_eq!(reg.deputy_action(AppId(3)), DeputyFault::None);
    }

    #[test]
    fn output_applies_count_apart_and_fire_only_the_panic() {
        let reg = FaultRegistry::default();
        let plan = FaultPlan::none().panic_in_deputy(2).kill_deputy(1);
        reg.arm(AppId(4), plan);
        assert!(!reg.output_panic(AppId(4)));
        assert!(reg.output_panic(AppId(4)), "second apply panics");
        assert!(!reg.output_panic(AppId(4)), "the panic fired once");
        // The applies left the call counter and the kill fault alone.
        assert_eq!(reg.deputy_action(AppId(4)), DeputyFault::KillDeputy);
        assert_eq!(reg.deputy_action(AppId(4)), DeputyFault::None);
        assert!(
            !reg.output_panic(AppId(5)),
            "unarmed apps are never faulted"
        );
    }
}
