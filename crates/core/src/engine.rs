//! The runtime permission engine (paper §VI-B).
//!
//! When an app is loaded, its reconciled manifest is *compiled* into a
//! per-token checking structure; every API call the app issues is then
//! checked in two steps:
//!
//! 1. **token gate** — O(1) lookup: is the required token granted at all?
//! 2. **filter evaluation** — the compiled filter for that token is
//!    evaluated against the call's attributes (short-circuit DNF when the
//!    filter normalizes compactly, AST interpretation otherwise).
//!
//! Checking is stateless per call — the stateful inputs (ownership,
//! quotas, packet-in provenance) come from a [`CheckContext`] the kernel
//! maintains — so engines scale out across deputy threads (paper §IX-B2).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use bytes::Bytes;

use crate::algebra::{to_dnf, Literal};
use crate::api::{ApiCall, ApiCallKind, AppId};
use crate::eval::{
    classify, cost_rank, eval, eval_singleton, stats_level_of, CheckContext, EpochContext,
    LiteralClass,
};
use crate::filter::{FilterExpr, Ownership, SingletonFilter, StatsLevel};
use crate::perm::PermissionSet;
use crate::token::PermissionToken;
use sdnshield_openflow::actions::ActionList;
use sdnshield_openflow::flow_match::FlowMatch;
use sdnshield_openflow::flow_table::FlowEntry;
use sdnshield_openflow::messages::{FlowMod, FlowModCommand};
use sdnshield_openflow::types::{DatapathId, Priority};

/// The outcome of a permission check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// The call may proceed.
    Allowed,
    /// The call is denied.
    Denied {
        /// The token the call required.
        token: PermissionToken,
        /// Why it was denied.
        reason: DenyReason,
    },
}

impl Decision {
    /// Is the decision an allow?
    pub fn is_allowed(&self) -> bool {
        matches!(self, Decision::Allowed)
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Allowed => write!(f, "allowed"),
            Decision::Denied { token, reason } => write!(f, "denied {token}: {reason}"),
        }
    }
}

/// Why a call was denied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DenyReason {
    /// The token is not granted at all (loading-time check catches most of
    /// these; runtime re-checks defensively).
    MissingToken,
    /// The token is granted but the filter rejected the call's attributes.
    FilterRejected,
    /// The manifest still carries an unexpanded stub macro. The name is
    /// shared out of the compiled entry — denying is allocation-free.
    UnexpandedStub(Arc<str>),
}

impl fmt::Display for DenyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenyReason::MissingToken => write!(f, "permission token not granted"),
            DenyReason::FilterRejected => write!(f, "permission filter rejected the call"),
            DenyReason::UnexpandedStub(s) => write!(f, "unexpanded stub macro `{s}`"),
        }
    }
}

/// One token's compiled checker.
#[derive(Debug, Clone)]
struct CompiledEntry {
    /// The original expression (kept for interpretation and visibility
    /// filtering).
    original: FilterExpr,
    /// Short-circuit DNF, when the filter normalizes within bounds: the call
    /// passes if all literals of any term pass.
    dnf: Option<Vec<Vec<Literal>>>,
    /// The check plan compiled from the DNF: static literals folded out,
    /// terms and literals ordered cheapest-first. `None` when the DNF blew
    /// up (checking falls back to AST interpretation).
    plan: Option<CheckPlan>,
    /// Unexpanded stub names (deny-fast with a useful reason, shared into
    /// the decision without allocating).
    stubs: Vec<Arc<str>>,
}

/// One literal of a plan term, with its class precomputed.
#[derive(Debug, Clone)]
struct PlanLiteral {
    filter: SingletonFilter,
    negated: bool,
    /// Reads the [`CheckContext`]; evaluated last and never cached.
    stateful: bool,
}

impl PlanLiteral {
    fn eval(&self, call: &ApiCall, ctx: &dyn CheckContext) -> bool {
        eval_singleton(&self.filter, call, ctx) != self.negated
    }
}

/// A compiled check plan (DESIGN.md §5): the token's filter in DNF with
/// every *static* literal — one that evaluates to a constant for all calls
/// and contexts — folded out at compile time, and the surviving terms and
/// literals sorted cheapest-first so short-circuiting does the least work.
#[derive(Debug, Clone)]
struct CheckPlan {
    /// `Some(v)` when folding decided the whole filter: a term emptied by
    /// folding makes it constant-true, all terms dying makes it
    /// constant-false.
    constant: Option<bool>,
    /// Surviving DNF terms, cheapest first; a call passes if every literal
    /// of any term passes.
    terms: Vec<Vec<PlanLiteral>>,
    /// No stateful literal survives anywhere: the outcome is a pure
    /// function of the call shape, so decisions may be cached.
    call_only: bool,
}

impl CheckPlan {
    /// Compiles the plan from a DNF clause set.
    fn compile(dnf: &[Vec<Literal>]) -> CheckPlan {
        let mut terms: Vec<Vec<PlanLiteral>> = Vec::new();
        for term in dnf {
            let mut lits = Vec::new();
            let mut term_dead = false;
            for lit in term {
                match classify(&lit.filter) {
                    LiteralClass::Static(v) => {
                        if v == lit.negated {
                            // The literal fails every call: the whole
                            // conjunction is unsatisfiable.
                            term_dead = true;
                            break;
                        }
                        // Always passes: fold it out.
                    }
                    class => lits.push(PlanLiteral {
                        filter: lit.filter.clone(),
                        negated: lit.negated,
                        stateful: class == LiteralClass::Stateful,
                    }),
                }
            }
            if term_dead {
                continue;
            }
            if lits.is_empty() {
                // A term true for every call and context (also covers a DNF
                // that normalized to `true`, i.e. contains an empty term).
                return CheckPlan {
                    constant: Some(true),
                    terms: Vec::new(),
                    call_only: true,
                };
            }
            lits.sort_by_key(|l| (l.stateful, cost_rank(&l.filter)));
            terms.push(lits);
        }
        if terms.is_empty() {
            return CheckPlan {
                constant: Some(false),
                terms: Vec::new(),
                call_only: true,
            };
        }
        let call_only = terms.iter().all(|t| t.iter().all(|l| !l.stateful));
        terms.sort_by_key(|t| {
            (
                t.iter().any(|l| l.stateful),
                t.iter()
                    .map(|l| 1 + cost_rank(&l.filter) as u32)
                    .sum::<u32>(),
            )
        });
        CheckPlan {
            constant: None,
            terms,
            call_only,
        }
    }

    /// Evaluates the plan against a call.
    fn eval(&self, call: &ApiCall, ctx: &dyn CheckContext) -> bool {
        match self.constant {
            Some(v) => v,
            None => self
                .terms
                .iter()
                .any(|term| term.iter().all(|lit| lit.eval(call, ctx))),
        }
    }
}

/// Canonical shape of a call for the decision cache: the token plus every
/// call attribute a *call-only* literal can observe (flow space, priority,
/// dpid, actions, statistics granularity). Two calls with equal shapes get
/// the same answer from any call-only plan, so shape equality — not a lossy
/// hash — is the cache key; a 64-bit fingerprint collision can therefore
/// never change a decision (the fingerprint only picks the slot, and the
/// stored shape is compared field-exactly on every probe).
#[derive(Debug, Clone, PartialEq, Eq)]
struct CallShape {
    token: usize,
    kind: u8,
    dpid: Option<DatapathId>,
    priority: Option<Priority>,
    command: Option<FlowModCommand>,
    flow_space: Option<FlowMatch>,
    actions: Option<ActionList>,
    stats: Option<StatsLevel>,
}

/// Discriminant tag of the call kind (the shape must distinguish, say, an
/// insert from a delete with identical attributes).
fn kind_tag(kind: &ApiCallKind) -> u8 {
    match kind {
        ApiCallKind::ReadFlowTable { .. } => 0,
        ApiCallKind::InsertFlow { .. } => 1,
        ApiCallKind::DeleteFlow { .. } => 2,
        ApiCallKind::ReadTopology => 3,
        ApiCallKind::ModifyTopology { .. } => 4,
        ApiCallKind::ReadStatistics { .. } => 5,
        ApiCallKind::ReadPayload { .. } => 6,
        ApiCallKind::SendPacketOut { .. } => 7,
        ApiCallKind::Subscribe { .. } => 8,
        ApiCallKind::HostConnect { .. } => 9,
        ApiCallKind::HostSend { .. } => 10,
        ApiCallKind::FileOpen { .. } => 11,
        ApiCallKind::ProcessExec { .. } => 12,
    }
}

/// The flow-mod command and a *borrowed* action list, when present — the
/// hot lookup path must not clone the actions vector.
fn shape_parts(kind: &ApiCallKind) -> (Option<FlowModCommand>, Option<&ActionList>) {
    match kind {
        ApiCallKind::InsertFlow { flow_mod, .. } | ApiCallKind::DeleteFlow { flow_mod, .. } => {
            (Some(flow_mod.command), Some(&flow_mod.actions))
        }
        ApiCallKind::SendPacketOut { packet_out, .. } => (None, Some(&packet_out.actions)),
        _ => (None, None),
    }
}

impl CallShape {
    /// Materializes the shape (cloning the actions) — paid only when a miss
    /// installs a new cache entry.
    fn of(token: usize, call: &ApiCall) -> CallShape {
        let (command, actions) = shape_parts(&call.kind);
        CallShape {
            token,
            kind: kind_tag(&call.kind),
            dpid: call.kind.dpid(),
            priority: call.kind.priority(),
            command,
            flow_space: call.kind.flow_space(),
            actions: actions.cloned(),
            stats: stats_level_of(&call.kind),
        }
    }

    /// Field-exact comparison against a borrowed call — no allocation.
    fn matches(&self, token: usize, call: &ApiCall) -> bool {
        let (command, actions) = shape_parts(&call.kind);
        self.token == token
            && self.kind == kind_tag(&call.kind)
            && self.dpid == call.kind.dpid()
            && self.priority == call.kind.priority()
            && self.command == command
            && self.actions.as_ref() == actions
            && self.stats == stats_level_of(&call.kind)
            && self.flow_space == call.kind.flow_space()
    }
}

/// FxHash-style multiply-xor hasher for shape fingerprints. Quality only
/// affects slot distribution, never decisions (probes compare shapes
/// field-exactly), so the cheapest adequate mix wins.
struct ShapeHasher(u64);

impl ShapeHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for ShapeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if !bytes.is_empty() {
            let mut buf = [0u8; 8];
            buf[..bytes.len()].copy_from_slice(bytes);
            self.add(u64::from_le_bytes(buf));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// The canonical shape fingerprint, computed from borrowed call attributes
/// (no `CallShape` is built on the lookup path). Must hash exactly the
/// attributes [`CallShape::matches`] compares.
fn shape_hash(token: usize, call: &ApiCall) -> u64 {
    let (command, actions) = shape_parts(&call.kind);
    let mut h = ShapeHasher(ShapeHasher::SEED);
    token.hash(&mut h);
    kind_tag(&call.kind).hash(&mut h);
    call.kind.dpid().hash(&mut h);
    call.kind.priority().hash(&mut h);
    command.hash(&mut h);
    actions.hash(&mut h);
    stats_level_of(&call.kind).hash(&mut h);
    call.kind.flow_space().hash(&mut h);
    h.finish()
}

const CACHE_SHARDS: usize = 8;
/// Direct-mapped slots per shard (power of two: low fingerprint bits pick
/// the slot). Collisions overwrite — bounded memory with no eviction scans.
const CACHE_SLOTS: usize = 1024;
/// Misses before the admission heuristic considers bypassing the cache.
const BYPASS_PROBE_MISSES: u64 = 4096;
/// Checks served cache-free after the heuristic trips, before re-probing.
const BYPASS_WINDOW: u64 = 65_536;

/// The per-app decision cache: call-only filter outcomes in a sharded,
/// direct-mapped table keyed by canonical call shape, each entry stamped
/// with the context epoch it was computed under. An epoch mismatch is a
/// miss (defense in depth — call-only decisions cannot actually go stale,
/// and stateful literals are never cached, so the accepted staleness bound
/// is zero).
///
/// An admission heuristic guards the miss cost: when shapes are not
/// repeating (hit rate under 1/8 after [`BYPASS_PROBE_MISSES`] misses), the
/// cache steps aside for [`BYPASS_WINDOW`] checks — unique-shape floods pay
/// two relaxed atomic ops per check instead of hash + install, then the
/// cache probes again in case the workload turned repetitive.
#[derive(Debug, Default)]
struct DecisionCache {
    shards: [Mutex<Vec<Option<Slot>>>; CACHE_SHARDS],
    /// Checks issued (fingerprint for bypass windows, all relaxed — the
    /// counters are a heuristic; correctness never reads them).
    checks: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Bypass active while `checks < bypass_until`.
    bypass_until: AtomicU64,
}

#[derive(Debug)]
struct Slot {
    hash: u64,
    shape: CallShape,
    outcome: CachedOutcome,
}

#[derive(Debug, Clone, Copy)]
struct CachedOutcome {
    epoch: u64,
    passed: bool,
}

/// Outcome of a cache probe.
enum CacheQuery {
    /// Cached decision for an identical shape at the current epoch.
    Hit(bool),
    /// Not cached; carries the shape fingerprint so the caller's insert
    /// doesn't rehash.
    Miss(u64),
    /// The admission heuristic is holding the cache out of the hot path.
    Bypass,
}

impl DecisionCache {
    fn shard_of(hash: u64) -> usize {
        (hash >> 32) as usize & (CACHE_SHARDS - 1)
    }

    fn slot_of(hash: u64) -> usize {
        hash as usize & (CACHE_SLOTS - 1)
    }

    fn query(&self, token: usize, call: &ApiCall, epoch: u64) -> CacheQuery {
        let n = self.checks.fetch_add(1, Ordering::Relaxed);
        let until = self.bypass_until.load(Ordering::Relaxed);
        if n < until {
            return CacheQuery::Bypass;
        }
        if until != 0 && n == until {
            // A bypass window just ended: fresh counters for the re-probe.
            self.hits.store(0, Ordering::Relaxed);
            self.misses.store(0, Ordering::Relaxed);
        }
        let hash = shape_hash(token, call);
        let shard = self.shards[Self::shard_of(hash)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(Some(slot)) = shard.get(Self::slot_of(hash)) {
            if slot.hash == hash && slot.outcome.epoch == epoch && slot.shape.matches(token, call) {
                let passed = slot.outcome.passed;
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return CacheQuery::Hit(passed);
            }
        }
        drop(shard);
        let m = self.misses.fetch_add(1, Ordering::Relaxed) + 1;
        if m >= BYPASS_PROBE_MISSES && self.hits.load(Ordering::Relaxed) * 8 < m {
            self.bypass_until
                .store(n.wrapping_add(BYPASS_WINDOW), Ordering::Relaxed);
        }
        CacheQuery::Miss(hash)
    }

    fn insert(&self, token: usize, call: &ApiCall, hash: u64, epoch: u64, passed: bool) {
        let mut shard = self.shards[Self::shard_of(hash)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if shard.is_empty() {
            // Slots allocate lazily: engines whose plans never cache (or
            // that stay bypassed) pay nothing.
            shard.resize_with(CACHE_SLOTS, || None);
        }
        shard[Self::slot_of(hash)] = Some(Slot {
            hash,
            shape: CallShape::of(token, call),
            outcome: CachedOutcome { epoch, passed },
        });
    }
}

/// A compiled per-app permission checker.
///
/// # Examples
///
/// ```
/// use sdnshield_core::api::{ApiCall, ApiCallKind, AppId};
/// use sdnshield_core::engine::PermissionEngine;
/// use sdnshield_core::eval::NullContext;
/// use sdnshield_core::lang::parse_manifest;
///
/// let manifest = parse_manifest("PERM read_topology")?;
/// let engine = PermissionEngine::compile(&manifest);
/// let call = ApiCall::new(AppId(1), ApiCallKind::ReadTopology);
/// assert!(engine.check(&call, &NullContext).is_allowed());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PermissionEngine {
    entries: [Option<CompiledEntry>; PermissionToken::ALL.len()],
    cache: DecisionCache,
}

impl Clone for PermissionEngine {
    /// Clones the compiled entries; the clone starts with a cold cache.
    fn clone(&self) -> Self {
        PermissionEngine {
            entries: self.entries.clone(),
            cache: DecisionCache::default(),
        }
    }
}

impl PermissionEngine {
    /// Compiles a manifest into a runtime checker.
    pub fn compile(manifest: &PermissionSet) -> Self {
        const NONE: Option<CompiledEntry> = None;
        let mut entries = [NONE; PermissionToken::ALL.len()];
        for (token, filter) in manifest.iter() {
            let stubs = filter.stub_names().iter().map(|s| Arc::from(*s)).collect();
            let dnf = to_dnf(filter);
            let plan = dnf.as_deref().map(CheckPlan::compile);
            entries[token_index(token)] = Some(CompiledEntry {
                original: filter.clone(),
                dnf,
                plan,
                stubs,
            });
        }
        PermissionEngine {
            entries,
            cache: DecisionCache::default(),
        }
    }

    /// The granted filter for a token, if any.
    pub fn filter_for(&self, token: PermissionToken) -> Option<&FilterExpr> {
        self.entries[token_index(token)]
            .as_ref()
            .map(|e| &e.original)
    }

    /// Is the token granted at all (the loading-time check, paper §VIII-B:
    /// OSGi-level gating when "the app does not have the required permission
    /// tokens at all")?
    pub fn has_token(&self, token: PermissionToken) -> bool {
        self.entries[token_index(token)].is_some()
    }

    /// Token gate + stub gate shared by every checking tier.
    fn gate(&self, token: PermissionToken) -> Result<&CompiledEntry, Decision> {
        let Some(entry) = self.entries[token_index(token)].as_ref() else {
            return Err(Decision::Denied {
                token,
                reason: DenyReason::MissingToken,
            });
        };
        if let Some(stub) = entry.stubs.first() {
            return Err(Decision::Denied {
                token,
                reason: DenyReason::UnexpandedStub(Arc::clone(stub)),
            });
        }
        Ok(entry)
    }

    fn verdict(token: PermissionToken, passed: bool) -> Decision {
        if passed {
            Decision::Allowed
        } else {
            Decision::Denied {
                token,
                reason: DenyReason::FilterRejected,
            }
        }
    }

    /// Checks a call on the fast path: compiled plan plus the epoch-keyed
    /// decision cache for call-only plans. This is the production entry
    /// point; the other tiers exist as ablation baselines (DESIGN.md §5).
    pub fn check(&self, call: &ApiCall, ctx: &dyn CheckContext) -> Decision {
        let token = call.required_token();
        let entry = match self.gate(token) {
            Ok(e) => e,
            Err(d) => return d,
        };
        let passed = match &entry.plan {
            Some(plan) if plan.constant.is_some() => plan.constant.unwrap_or(false),
            Some(plan) if plan.call_only => {
                let token_idx = token.index();
                let epoch = ctx.epoch();
                match self.cache.query(token_idx, call, epoch) {
                    CacheQuery::Hit(p) => p,
                    CacheQuery::Miss(hash) => {
                        let p = plan.eval(call, ctx);
                        self.cache.insert(token_idx, call, hash, epoch, p);
                        p
                    }
                    CacheQuery::Bypass => plan.eval(call, ctx),
                }
            }
            Some(plan) => plan.eval(call, ctx),
            None => eval(&entry.original, call, ctx),
        };
        Self::verdict(token, passed)
    }

    /// Checks a call *only when* the decision is a pure function of the
    /// call: token gate, stub gate, constant-folded plans, and call-only
    /// plans (through the same epoch-keyed decision cache as
    /// [`PermissionEngine::check`]). Returns `None` whenever the granted
    /// filter retains a stateful literal after folding (or its DNF blew
    /// up), i.e. whenever the decision could depend on tracker state beyond
    /// what the epoch fingerprints — the caller must then route the call
    /// through a context that can answer stateful queries.
    ///
    /// This is the app-side read fast path's entry point: the app thread
    /// passes the kernel's observed context epoch, and a `Some` decision is
    /// identical to what [`PermissionEngine::check`] would return against a
    /// tracker context at that epoch.
    pub fn check_call_only(&self, call: &ApiCall, epoch: u64) -> Option<Decision> {
        let token = call.required_token();
        let entry = match self.gate(token) {
            Ok(e) => e,
            Err(d) => return Some(d),
        };
        let plan = entry.plan.as_ref()?;
        if let Some(constant) = plan.constant {
            return Some(Self::verdict(token, constant));
        }
        if !plan.call_only {
            return None;
        }
        let ctx = EpochContext(epoch);
        let token_idx = token.index();
        let passed = match self.cache.query(token_idx, call, epoch) {
            CacheQuery::Hit(p) => p,
            CacheQuery::Miss(hash) => {
                let p = plan.eval(call, &ctx);
                self.cache.insert(token_idx, call, hash, epoch, p);
                p
            }
            CacheQuery::Bypass => plan.eval(call, &ctx),
        };
        Some(Self::verdict(token, passed))
    }

    /// Two-phase check against a pinned epoch: resolves the decision
    /// lock-free via [`PermissionEngine::check_call_only`] whenever it is a
    /// pure function of the call, and only materializes a stateful context
    /// (by invoking `stateful`, which typically takes the tracker's read
    /// lock) when the granted filter retains a stateful literal.
    ///
    /// Equivalent to [`PermissionEngine::check`] against a tracker at
    /// `epoch`: for call-only plans both paths consult the same epoch-keyed
    /// cache, and for stateful plans this delegates to `check` outright.
    pub fn check_with<C, G>(&self, call: &ApiCall, epoch: u64, stateful: G) -> Decision
    where
        C: std::ops::Deref,
        C::Target: CheckContext + Sized,
        G: FnOnce() -> C,
    {
        match self.check_call_only(call, epoch) {
            Some(decision) => decision,
            None => self.check(call, &*stateful()),
        }
    }

    /// Checks a call through the compiled plan without consulting the
    /// decision cache — the "plan" ablation tier.
    pub fn check_uncached(&self, call: &ApiCall, ctx: &dyn CheckContext) -> Decision {
        let token = call.required_token();
        let entry = match self.gate(token) {
            Ok(e) => e,
            Err(d) => return d,
        };
        let passed = match &entry.plan {
            Some(plan) => plan.eval(call, ctx),
            None => eval(&entry.original, call, ctx),
        };
        Self::verdict(token, passed)
    }

    /// Checks a call using the raw DNF short-circuit (the pre-plan compiled
    /// path) — the "dnf" ablation tier.
    pub fn check_dnf(&self, call: &ApiCall, ctx: &dyn CheckContext) -> Decision {
        let token = call.required_token();
        let entry = match self.gate(token) {
            Ok(e) => e,
            Err(d) => return d,
        };
        let passed = match &entry.dnf {
            Some(terms) => terms.iter().any(|term| {
                term.iter().all(|lit| {
                    let v = eval_singleton(&lit.filter, call, ctx);
                    v != lit.negated
                })
            }),
            None => eval(&entry.original, call, ctx),
        };
        Self::verdict(token, passed)
    }

    /// Checks a call by interpreting the original AST — the ablation
    /// baseline for the compiled paths (DESIGN.md §5).
    pub fn check_interpreted(&self, call: &ApiCall, ctx: &dyn CheckContext) -> Decision {
        let token = call.required_token();
        let entry = match self.gate(token) {
            Ok(e) => e,
            Err(d) => return d,
        };
        Self::verdict(token, eval(&entry.original, call, ctx))
    }

    /// Is the token's compiled plan a pure function of the call (no
    /// stateful literal survived folding)? `false` when the token is not
    /// granted or its DNF blew up. Exposed for tests and benches.
    pub fn plan_cacheable(&self, token: PermissionToken) -> bool {
        self.entries[token_index(token)]
            .as_ref()
            .and_then(|e| e.plan.as_ref())
            .is_some_and(|p| p.call_only)
    }

    /// Visibility filtering for read results (paper §IV: a predicate on
    /// `read_flow_table` "allows the app to see the flow entries targeting
    /// the subnet"): is a concrete flow entry inside the granted space?
    ///
    /// `caller_owns` states whether the entry was installed by the caller
    /// (for `OWN_FLOWS` visibility).
    pub fn entry_visible(
        &self,
        token: PermissionToken,
        entry_match: &FlowMatch,
        dpid: DatapathId,
        caller_owns: bool,
    ) -> bool {
        match self.filter_for(token) {
            None => false,
            Some(filter) => visible(filter, entry_match, dpid, caller_owns),
        }
    }
}

/// Constant-time token slot: the discriminant cast, which agrees with the
/// position in `PermissionToken::ALL` (asserted by `token_index_agrees`).
fn token_index(t: PermissionToken) -> usize {
    t.index()
}

/// Structural visibility walk: which atoms constrain what an entry looks
/// like, as opposed to how a call behaves.
fn visible(filter: &FilterExpr, m: &FlowMatch, dpid: DatapathId, caller_owns: bool) -> bool {
    match filter {
        FilterExpr::True => true,
        FilterExpr::And(xs) => xs.iter().all(|x| visible(x, m, dpid, caller_owns)),
        FilterExpr::Or(xs) => xs.iter().any(|x| visible(x, m, dpid, caller_owns)),
        FilterExpr::Not(x) => !visible(x, m, dpid, caller_owns),
        FilterExpr::Atom(a) => match a {
            SingletonFilter::Pred(granted) => granted.subsumes(m),
            SingletonFilter::Ownership(Ownership::OwnFlows) => caller_owns,
            SingletonFilter::Ownership(Ownership::AllFlows) => true,
            SingletonFilter::PhysTopo(t) => t.contains_switch(dpid),
            SingletonFilter::Stub(_) => false,
            // Behavioral filters do not constrain entry visibility.
            _ => true,
        },
    }
}

/// A record of one installed rule and its owner.
#[derive(Debug, Clone, PartialEq)]
struct RuleRecord {
    app: AppId,
    flow_match: FlowMatch,
    priority: Priority,
}

/// The exact identity OpenFlow gives a rule: Add-replace, `ModifyStrict`,
/// `DeleteStrict` and expiry all name a rule by it.
type RuleKey = (FlowMatch, Priority);

/// One switch's rule records, in insertion order, plus an index from each
/// rule's [`RuleKey`] to its position. Keys are unique, so every
/// exact-identity operation is one index probe. A removal leaves a hole
/// rather than shifting the tail; once holes outnumber live records the
/// vector is compacted, which keeps the live records' relative order.
#[derive(Debug, Default)]
struct SwitchRules {
    records: Vec<Option<RuleRecord>>,
    index: HashMap<RuleKey, usize>,
    live: usize,
}

impl SwitchRules {
    /// The live records, in insertion order.
    fn iter(&self) -> impl Iterator<Item = &RuleRecord> + '_ {
        self.records.iter().flatten()
    }

    fn get(&self, flow_match: &FlowMatch, priority: Priority) -> Option<&RuleRecord> {
        let &at = self.index.get(&(flow_match.clone(), priority))?;
        self.records[at].as_ref()
    }

    /// Hands the rule `(flow_match, priority)` to `app`, appending it when
    /// no such rule is recorded.
    fn upsert(&mut self, app: AppId, flow_match: &FlowMatch, priority: Priority) {
        match self.index.entry((flow_match.clone(), priority)) {
            Entry::Occupied(at) => {
                let record = self.records[*at.get()].as_mut();
                record.expect("indexed record is live").app = app;
            }
            Entry::Vacant(slot) => {
                slot.insert(self.records.len());
                self.records.push(Some(RuleRecord {
                    app,
                    flow_match: flow_match.clone(),
                    priority,
                }));
                self.live += 1;
            }
        }
    }

    fn remove(&mut self, flow_match: &FlowMatch, priority: Priority) {
        if let Some(at) = self.index.remove(&(flow_match.clone(), priority)) {
            self.records[at] = None;
            self.live -= 1;
            self.compact_if_sparse();
        }
    }

    /// Removes every live record `pred` selects (a scan: subsumption has no
    /// index).
    fn remove_where(&mut self, mut pred: impl FnMut(&RuleRecord) -> bool) {
        for slot in &mut self.records {
            if slot.as_ref().is_some_and(&mut pred) {
                let r = slot.take().expect("checked live");
                self.index.remove(&(r.flow_match, r.priority));
                self.live -= 1;
            }
        }
        self.compact_if_sparse();
    }

    /// Closes the holes once they outnumber the live records, so the
    /// vector stays within twice the live count and compaction costs O(1)
    /// amortized per removal.
    fn compact_if_sparse(&mut self) {
        if self.records.len() - self.live <= self.live {
            return;
        }
        self.records.retain(Option::is_some);
        for (at, r) in self.records.iter().enumerate() {
            let r = r.as_ref().expect("retained records are live");
            *self
                .index
                .get_mut(&(r.flow_match.clone(), r.priority))
                .expect("live record is indexed") = at;
        }
    }
}

/// Kernel-side book-keeping backing the stateful filters: rule ownership,
/// per-app rule quotas, and packet-in provenance (paper §IV-B "Ownership
/// filter inspects and keeps track of the issuers of all the existing
/// flows").
#[derive(Debug, Default)]
pub struct OwnershipTracker {
    /// dpid → installed rules with owners.
    rules: BTreeMap<DatapathId, SwitchRules>,
    /// Recent packet-in payload hashes delivered to each app.
    pkt_in_seen: HashMap<AppId, VecDeque<u64>>,
    /// How many packet-in hashes to remember per app.
    pkt_in_window: usize,
    /// Context epoch: advances on every mutation so engine decision caches
    /// keyed on it invalidate (see [`CheckContext::epoch`]). The kernel
    /// routes all tracker mutations through the `record_*` methods, which
    /// bump it unconditionally.
    epoch: u64,
}

impl OwnershipTracker {
    /// Creates a tracker remembering the default window of 1024 packet-in
    /// payloads per app.
    pub fn new() -> Self {
        OwnershipTracker {
            rules: BTreeMap::new(),
            pkt_in_seen: HashMap::new(),
            pkt_in_window: 1024,
            epoch: 0,
        }
    }

    /// The current context epoch (see [`CheckContext::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Records a successful flow-mod by `app` on `dpid`, mirroring what the
    /// switch's flow table did with it.
    pub fn record_flow_mod(&mut self, app: AppId, dpid: DatapathId, fm: &FlowMod) {
        self.bump_epoch();
        let rules = self.rules.entry(dpid).or_default();
        match fm.command {
            FlowModCommand::Add | FlowModCommand::ModifyStrict => {
                // Replace an identical rule's owner, else append.
                rules.upsert(app, &fm.flow_match, fm.priority);
            }
            FlowModCommand::Modify => {
                // The table rewrote every entry the match subsumes, at any
                // priority, stamping the modifier's cookie; with none, the
                // modify acted as an add.
                let mut modified = false;
                for r in rules.records.iter_mut().flatten() {
                    if fm.flow_match.subsumes(&r.flow_match) {
                        r.app = app;
                        modified = true;
                    }
                }
                if !modified {
                    rules.upsert(app, &fm.flow_match, fm.priority);
                }
            }
            FlowModCommand::Delete => {
                rules.remove_where(|r| fm.flow_match.subsumes(&r.flow_match));
            }
            FlowModCommand::DeleteStrict => rules.remove(&fm.flow_match, fm.priority),
        }
    }

    /// Records a rule expiry (flow-removed from the switch).
    pub fn record_expiry(&mut self, dpid: DatapathId, flow_match: &FlowMatch, priority: Priority) {
        self.bump_epoch();
        if let Some(rules) = self.rules.get_mut(&dpid) {
            rules.remove(flow_match, priority);
        }
    }

    /// Records a packet-in payload delivered to an app.
    pub fn record_pkt_in(&mut self, app: AppId, payload: &Bytes) {
        self.bump_epoch();
        let window = self.pkt_in_window;
        let seen = self.pkt_in_seen.entry(app).or_default();
        seen.push_back(hash_payload(payload));
        while seen.len() > window {
            seen.pop_front();
        }
    }

    /// Does `app` own the rule `(flow_match, priority)` on `dpid`?
    pub fn owns(
        &self,
        app: AppId,
        dpid: DatapathId,
        flow_match: &FlowMatch,
        priority: Priority,
    ) -> bool {
        self.rules
            .get(&dpid)
            .and_then(|rules| rules.get(flow_match, priority))
            .is_some_and(|r| r.app == app)
    }

    /// Number of rules recorded for `(app, dpid)`.
    pub fn count(&self, app: AppId, dpid: DatapathId) -> u32 {
        self.rules
            .get(&dpid)
            .map(|rules| rules.iter().filter(|r| r.app == app).count() as u32)
            .unwrap_or(0)
    }

    /// Captures the full tracker state in a plain-data form a durability
    /// layer can serialize and later hand back to
    /// [`OwnershipTracker::restore`]. Rule records keep their insertion
    /// order; packet-in windows are sorted by app so two snapshots of
    /// identical state compare equal.
    pub fn snapshot(&self) -> TrackerSnapshot {
        let rules = self
            .rules
            .iter()
            .map(|(dpid, records)| {
                (
                    *dpid,
                    records
                        .iter()
                        .map(|r| (r.app, r.flow_match.clone(), r.priority))
                        .collect(),
                )
            })
            .collect();
        let mut pkt_in_seen: Vec<(AppId, Vec<u64>)> = self
            .pkt_in_seen
            .iter()
            .map(|(app, seen)| (*app, seen.iter().copied().collect()))
            .collect();
        pkt_in_seen.sort_by_key(|(app, _)| *app);
        TrackerSnapshot {
            epoch: self.epoch,
            pkt_in_window: self.pkt_in_window,
            rules,
            pkt_in_seen,
        }
    }

    /// Rebuilds a tracker from a snapshot, restoring the epoch exactly so
    /// decision caches keyed on it behave identically after recovery.
    pub fn restore(snapshot: &TrackerSnapshot) -> Self {
        OwnershipTracker {
            rules: snapshot
                .rules
                .iter()
                .map(|(dpid, records)| {
                    let mut rules = SwitchRules::default();
                    for (app, flow_match, priority) in records {
                        rules.upsert(*app, flow_match, *priority);
                    }
                    (*dpid, rules)
                })
                .collect(),
            pkt_in_seen: snapshot
                .pkt_in_seen
                .iter()
                .map(|(app, seen)| (*app, seen.iter().copied().collect()))
                .collect(),
            pkt_in_window: snapshot.pkt_in_window,
            epoch: snapshot.epoch,
        }
    }
}

/// One switch's tracker-recorded rules: `(owner, match, priority)` per
/// entry, in tracker order.
pub type TrackedRules = Vec<(AppId, FlowMatch, Priority)>;

/// Serializable image of an [`OwnershipTracker`] (see
/// [`OwnershipTracker::snapshot`]). Doubles as an equivalence digest: two
/// trackers with equal snapshots are observationally identical to every
/// stateful filter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrackerSnapshot {
    /// The context epoch at capture time.
    pub epoch: u64,
    /// Packet-in window size.
    pub pkt_in_window: usize,
    /// Per-switch rule records in tracker order.
    pub rules: Vec<(DatapathId, TrackedRules)>,
    /// Per-app packet-in payload hashes, oldest first, sorted by app.
    pub pkt_in_seen: Vec<(AppId, Vec<u64>)>,
}

fn hash_payload(payload: &Bytes) -> u64 {
    // FNV-1a: cheap, deterministic, adequate for replay matching.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in payload {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl CheckContext for OwnershipTracker {
    fn touches_foreign_flows(&self, call: &ApiCall) -> bool {
        match &call.kind {
            // Reads are visibility-filtered by the kernel, not denied here.
            ApiCallKind::ReadFlowTable { .. } => false,
            ApiCallKind::InsertFlow { dpid, flow_mod } => {
                let Some(rules) = self.rules.get(dpid) else {
                    return false;
                };
                let foreign = |r: &RuleRecord| r.app != call.app;
                match flow_mod.command {
                    // A modify rewrites (and takes over) every rule it
                    // names; naming none, it acts as an add.
                    FlowModCommand::Modify => {
                        let mut targets = rules
                            .iter()
                            .filter(|r| flow_mod.flow_match.subsumes(&r.flow_match))
                            .peekable();
                        if targets.peek().is_some() {
                            return targets.any(foreign);
                        }
                    }
                    FlowModCommand::ModifyStrict => {
                        if let Some(r) = rules.get(&flow_mod.flow_match, flow_mod.priority) {
                            return foreign(r);
                        }
                    }
                    _ => {}
                }
                // Inserting a rule that could shadow a foreign rule counts
                // as touching it: overlapping match at >= priority.
                rules.iter().any(|r| {
                    foreign(r)
                        && flow_mod.priority >= r.priority
                        && flow_mod.flow_match.overlaps(&r.flow_match)
                })
            }
            ApiCallKind::DeleteFlow { dpid, flow_mod } => {
                self.rules
                    .get(dpid)
                    .is_some_and(|rules| match flow_mod.command {
                        FlowModCommand::DeleteStrict => rules
                            .get(&flow_mod.flow_match, flow_mod.priority)
                            .is_some_and(|r| r.app != call.app),
                        _ => rules.iter().any(|r| {
                            r.app != call.app && flow_mod.flow_match.subsumes(&r.flow_match)
                        }),
                    })
            }
            _ => false,
        }
    }

    fn rule_count(&self, app: AppId, dpid: DatapathId) -> u32 {
        self.count(app, dpid)
    }

    fn is_from_pkt_in(&self, app: AppId, payload: &Bytes) -> bool {
        self.pkt_in_seen
            .get(&app)
            .is_some_and(|seen| seen.contains(&hash_payload(payload)))
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Convenience: check whether a flow entry (from the switch) is owned by an
/// app according to the cookie convention.
pub fn entry_owned_by(entry: &FlowEntry, app: AppId) -> bool {
    entry.cookie.owner() == app.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::NullContext;
    use crate::lang::parse_manifest;
    use sdnshield_openflow::actions::ActionList;
    use sdnshield_openflow::types::{Ipv4, PortNo};

    fn insert_call(app: u16, dst: Ipv4, prefix: u8, prio: u16) -> ApiCall {
        ApiCall::new(
            AppId(app),
            ApiCallKind::InsertFlow {
                dpid: DatapathId(1),
                flow_mod: FlowMod::add(
                    FlowMatch {
                        ip_dst: Some(sdnshield_openflow::flow_match::MaskedIpv4::prefix(
                            dst, prefix,
                        )),
                        ..FlowMatch::default()
                    },
                    Priority(prio),
                    ActionList::output(PortNo(2)),
                ),
            },
        )
    }

    #[test]
    fn missing_token_denied() {
        let engine = PermissionEngine::compile(&parse_manifest("PERM read_statistics").unwrap());
        let d = engine.check(&insert_call(1, Ipv4::new(10, 0, 0, 0), 8, 1), &NullContext);
        assert_eq!(
            d,
            Decision::Denied {
                token: PermissionToken::InsertFlow,
                reason: DenyReason::MissingToken,
            }
        );
        assert!(!engine.has_token(PermissionToken::InsertFlow));
        assert!(engine.has_token(PermissionToken::ReadStatistics));
    }

    #[test]
    fn filter_allows_and_denies() {
        let engine = PermissionEngine::compile(
            &parse_manifest("PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0").unwrap(),
        );
        assert!(engine
            .check(
                &insert_call(1, Ipv4::new(10, 13, 7, 0), 24, 1),
                &NullContext
            )
            .is_allowed());
        let d = engine.check(
            &insert_call(1, Ipv4::new(10, 14, 0, 0), 24, 1),
            &NullContext,
        );
        assert_eq!(
            d,
            Decision::Denied {
                token: PermissionToken::InsertFlow,
                reason: DenyReason::FilterRejected,
            }
        );
    }

    #[test]
    fn compiled_and_interpreted_agree() {
        let manifest = parse_manifest(
            "PERM insert_flow LIMITING ( IP_DST 10.13.0.0 MASK 255.255.0.0 AND MAX_PRIORITY 100 ) \
             OR ( IP_DST 10.14.0.0 MASK 255.255.0.0 AND NOT MIN_PRIORITY 50 )",
        )
        .unwrap();
        let engine = PermissionEngine::compile(&manifest);
        let calls = [
            insert_call(1, Ipv4::new(10, 13, 0, 0), 24, 10),
            insert_call(1, Ipv4::new(10, 13, 0, 0), 24, 200),
            insert_call(1, Ipv4::new(10, 14, 0, 0), 24, 10),
            insert_call(1, Ipv4::new(10, 14, 0, 0), 24, 60),
            insert_call(1, Ipv4::new(10, 15, 0, 0), 24, 10),
        ];
        for call in &calls {
            assert_eq!(
                engine.check(call, &NullContext),
                engine.check_interpreted(call, &NullContext),
                "paths disagree on {call}"
            );
        }
        // Sanity on expected outcomes.
        assert!(engine.check(&calls[0], &NullContext).is_allowed());
        assert!(!engine.check(&calls[1], &NullContext).is_allowed());
        assert!(engine.check(&calls[2], &NullContext).is_allowed());
        assert!(!engine.check(&calls[3], &NullContext).is_allowed());
        assert!(!engine.check(&calls[4], &NullContext).is_allowed());
    }

    #[test]
    fn stub_denied_with_reason() {
        let engine = PermissionEngine::compile(
            &parse_manifest("PERM network_access LIMITING AdminRange").unwrap(),
        );
        let call = ApiCall::new(
            AppId(1),
            ApiCallKind::HostConnect {
                dst_ip: Ipv4::new(10, 1, 0, 1),
                dst_port: 80,
            },
        );
        match engine.check(&call, &NullContext) {
            Decision::Denied {
                reason: DenyReason::UnexpandedStub(s),
                ..
            } => assert_eq!(&*s, "AdminRange"),
            other => panic!("expected stub denial, got {other:?}"),
        }
    }

    #[test]
    fn ownership_tracking_blocks_foreign_overrides() {
        let engine = PermissionEngine::compile(
            &parse_manifest("PERM insert_flow LIMITING OWN_FLOWS").unwrap(),
        );
        let mut tracker = OwnershipTracker::new();
        // App 2 installs a rule on dpid 1 at priority 50.
        let foreign = insert_call(2, Ipv4::new(10, 13, 0, 0), 16, 50);
        if let ApiCallKind::InsertFlow { dpid, flow_mod } = &foreign.kind {
            tracker.record_flow_mod(AppId(2), *dpid, flow_mod);
        }
        // App 1 overlapping at higher priority → denied.
        let shadowing = insert_call(1, Ipv4::new(10, 13, 7, 0), 24, 60);
        assert!(!engine.check(&shadowing, &tracker).is_allowed());
        // App 1 at lower priority (cannot shadow) → allowed.
        let lower = insert_call(1, Ipv4::new(10, 13, 7, 0), 24, 10);
        assert!(engine.check(&lower, &tracker).is_allowed());
        // Disjoint space → allowed.
        let disjoint = insert_call(1, Ipv4::new(10, 99, 0, 0), 16, 60);
        assert!(engine.check(&disjoint, &tracker).is_allowed());
    }

    #[test]
    fn delete_ownership_semantics() {
        let engine = PermissionEngine::compile(
            &parse_manifest("PERM delete_flow LIMITING OWN_FLOWS").unwrap(),
        );
        let mut tracker = OwnershipTracker::new();
        let own_rule = FlowMod::add(
            FlowMatch::default().with_tp_dst(80),
            Priority(5),
            ActionList::drop(),
        );
        let foreign_rule = FlowMod::add(
            FlowMatch::default().with_tp_dst(443),
            Priority(5),
            ActionList::drop(),
        );
        tracker.record_flow_mod(AppId(1), DatapathId(1), &own_rule);
        tracker.record_flow_mod(AppId(2), DatapathId(1), &foreign_rule);
        // Deleting own flows is fine.
        let del_own = ApiCall::new(
            AppId(1),
            ApiCallKind::DeleteFlow {
                dpid: DatapathId(1),
                flow_mod: FlowMod::delete(FlowMatch::default().with_tp_dst(80)),
            },
        );
        assert!(engine.check(&del_own, &tracker).is_allowed());
        // A wildcard delete would hit app 2's rule → denied.
        let del_all = ApiCall::new(
            AppId(1),
            ApiCallKind::DeleteFlow {
                dpid: DatapathId(1),
                flow_mod: FlowMod::delete(FlowMatch::any()),
            },
        );
        assert!(!engine.check(&del_all, &tracker).is_allowed());
    }

    #[test]
    fn quota_enforced_through_tracker() {
        let engine = PermissionEngine::compile(
            &parse_manifest("PERM insert_flow LIMITING MAX_RULE_COUNT 2").unwrap(),
        );
        let mut tracker = OwnershipTracker::new();
        for port in [1u16, 2] {
            let call = ApiCall::new(
                AppId(1),
                ApiCallKind::InsertFlow {
                    dpid: DatapathId(1),
                    flow_mod: FlowMod::add(
                        FlowMatch::default().with_tp_dst(port),
                        Priority(5),
                        ActionList::drop(),
                    ),
                },
            );
            assert!(engine.check(&call, &tracker).is_allowed());
            if let ApiCallKind::InsertFlow { dpid, flow_mod } = &call.kind {
                tracker.record_flow_mod(AppId(1), *dpid, flow_mod);
            }
        }
        assert_eq!(tracker.count(AppId(1), DatapathId(1)), 2);
        let third = insert_call(1, Ipv4::new(10, 0, 0, 0), 8, 5);
        assert!(!engine.check(&third, &tracker).is_allowed());
        // Deleting frees quota.
        tracker.record_flow_mod(
            AppId(1),
            DatapathId(1),
            &FlowMod::delete(FlowMatch::default().with_tp_dst(1)),
        );
        assert!(engine.check(&third, &tracker).is_allowed());
    }

    #[test]
    fn pkt_in_provenance_window() {
        let mut tracker = OwnershipTracker::new();
        let payload = Bytes::from_static(b"the packet");
        assert!(!tracker.is_from_pkt_in(AppId(1), &payload));
        tracker.record_pkt_in(AppId(1), &payload);
        assert!(tracker.is_from_pkt_in(AppId(1), &payload));
        // Another app did not see it.
        assert!(!tracker.is_from_pkt_in(AppId(2), &payload));
    }

    #[test]
    fn expiry_removes_records() {
        let mut tracker = OwnershipTracker::new();
        let fm = FlowMod::add(
            FlowMatch::default().with_tp_dst(80),
            Priority(5),
            ActionList::drop(),
        );
        tracker.record_flow_mod(AppId(1), DatapathId(1), &fm);
        assert_eq!(tracker.count(AppId(1), DatapathId(1)), 1);
        tracker.record_expiry(DatapathId(1), &fm.flow_match, fm.priority);
        assert_eq!(tracker.count(AppId(1), DatapathId(1)), 0);
    }

    #[test]
    fn visibility_filtering() {
        let engine = PermissionEngine::compile(
            &parse_manifest(
                "PERM read_flow_table LIMITING OWN_FLOWS OR IP_DST 10.13.0.0 MASK 255.255.0.0",
            )
            .unwrap(),
        );
        let inside = FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 13, 7, 0), 24);
        let outside = FlowMatch::default().with_ip_dst_prefix(Ipv4::new(10, 14, 0, 0), 24);
        // Inside the subnet: visible regardless of ownership.
        assert!(engine.entry_visible(
            PermissionToken::ReadFlowTable,
            &inside,
            DatapathId(1),
            false
        ));
        // Outside: visible only when owned.
        assert!(!engine.entry_visible(
            PermissionToken::ReadFlowTable,
            &outside,
            DatapathId(1),
            false
        ));
        assert!(engine.entry_visible(
            PermissionToken::ReadFlowTable,
            &outside,
            DatapathId(1),
            true
        ));
        // No grant at all: nothing visible.
        assert!(!engine.entry_visible(
            PermissionToken::ReadStatistics,
            &inside,
            DatapathId(1),
            false
        ));
    }

    #[test]
    fn cookie_ownership_convention() {
        use sdnshield_openflow::types::Cookie;
        let entry = FlowEntry {
            flow_match: FlowMatch::any(),
            priority: Priority(1),
            actions: ActionList::drop(),
            cookie: Cookie::with_owner(7, 0),
            idle_timeout: 0,
            hard_timeout: 0,
            notify_when_removed: false,
            installed_at: 0,
            last_hit_at: 0,
            packet_count: 0,
            byte_count: 0,
        };
        assert!(entry_owned_by(&entry, AppId(7)));
        assert!(!entry_owned_by(&entry, AppId(8)));
    }

    #[test]
    fn token_index_agrees() {
        for (pos, &token) in PermissionToken::ALL.iter().enumerate() {
            assert_eq!(
                token.index(),
                pos,
                "{token:?} discriminant disagrees with its position in ALL"
            );
            assert_eq!(PermissionToken::ALL[token.index()], token);
            assert_eq!(token_index(token), pos);
        }
    }

    #[test]
    fn plan_folds_static_literals_to_constants() {
        // ALL_FLOWS is static-true: the whole filter folds to constant-true
        // and the plan stays cacheable.
        let engine = PermissionEngine::compile(
            &parse_manifest("PERM insert_flow LIMITING ALL_FLOWS").unwrap(),
        );
        assert!(engine.plan_cacheable(PermissionToken::InsertFlow));
        assert!(engine
            .check(&insert_call(1, Ipv4::new(1, 2, 3, 4), 32, 1), &NullContext)
            .is_allowed());

        // NOT ALL_FLOWS kills its only term: constant-false.
        let engine = PermissionEngine::compile(
            &parse_manifest("PERM insert_flow LIMITING NOT ALL_FLOWS").unwrap(),
        );
        assert!(engine.plan_cacheable(PermissionToken::InsertFlow));
        let call = insert_call(1, Ipv4::new(1, 2, 3, 4), 32, 1);
        assert!(!engine.check(&call, &NullContext).is_allowed());
        assert_eq!(
            engine.check(&call, &NullContext),
            engine.check_interpreted(&call, &NullContext)
        );
    }

    #[test]
    fn stateful_plans_are_not_cacheable() {
        let engine = PermissionEngine::compile(
            &parse_manifest(
                "PERM insert_flow LIMITING OWN_FLOWS OR IP_DST 10.13.0.0 MASK 255.255.0.0",
            )
            .unwrap(),
        );
        assert!(!engine.plan_cacheable(PermissionToken::InsertFlow));
        let engine = PermissionEngine::compile(
            &parse_manifest("PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0").unwrap(),
        );
        assert!(engine.plan_cacheable(PermissionToken::InsertFlow));
    }

    /// A context whose epoch the test can bump, to observe invalidation.
    struct EpochCtx(u64);
    impl CheckContext for EpochCtx {
        fn epoch(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn decision_cache_hits_and_epoch_invalidation() {
        let engine = PermissionEngine::compile(
            &parse_manifest("PERM insert_flow LIMITING IP_DST 10.13.0.0 MASK 255.255.0.0").unwrap(),
        );
        let hit = insert_call(1, Ipv4::new(10, 13, 7, 0), 24, 5);
        let miss = insert_call(1, Ipv4::new(10, 99, 0, 0), 24, 5);
        for epoch in [0u64, 1, 2, u64::MAX] {
            let ctx = EpochCtx(epoch);
            // First call populates, second must hit and agree; every answer
            // must match the uncached tiers regardless of epoch churn.
            for call in [&hit, &miss] {
                let first = engine.check(call, &ctx);
                let second = engine.check(call, &ctx);
                assert_eq!(first, second);
                assert_eq!(first, engine.check_uncached(call, &ctx));
                assert_eq!(first, engine.check_dnf(call, &ctx));
                assert_eq!(first, engine.check_interpreted(call, &ctx));
            }
            assert!(engine.check(&hit, &ctx).is_allowed());
            assert!(!engine.check(&miss, &ctx).is_allowed());
        }
    }

    #[test]
    fn tracker_epoch_advances_on_every_mutation() {
        let mut tracker = OwnershipTracker::new();
        let e0 = tracker.epoch();
        let fm = FlowMod::add(FlowMatch::any(), Priority(1), ActionList::drop());
        tracker.record_flow_mod(AppId(1), DatapathId(1), &fm);
        let e1 = tracker.epoch();
        assert_ne!(e0, e1);
        tracker.record_expiry(DatapathId(1), &fm.flow_match, fm.priority);
        let e2 = tracker.epoch();
        assert_ne!(e1, e2);
        tracker.record_pkt_in(AppId(1), &Bytes::from_static(b"pkt"));
        assert_ne!(e2, tracker.epoch());
        // The trait surface exposes the same counter.
        let ctx: &dyn CheckContext = &tracker;
        assert_eq!(ctx.epoch(), tracker.epoch());
    }
}
