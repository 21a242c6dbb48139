//! Ratio policies: how the server decides every client's sparse ratio.
//!
//! The paper contrasts FedLPS's adaptive P-UCBV decision with the rigid rules
//! used by prior work: fixed uniform ratios (FedSpa / CS), the
//! Resource-Controlled Ratio rule that sets `s_k = z_k` (HeteroFL / Fjord /
//! FedRolex, "RCR" in Table II) and FedMP's discrete UCB. The
//! [`RatioController`] wraps the per-client agents behind one interface so
//! both the FedLPS core and the baselines can share the plumbing.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use fedlps_tensor::{rng_from_seed, split_seed};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::pucbv::{PUcbv, PUcbvConfig, PUcbvFeedback};
use crate::ucb::DiscreteUcb;

/// The ratio-decision rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RatioPolicy {
    /// Every client always uses the same ratio (capped by capability).
    Fixed(f64),
    /// Resource-Controlled Ratio: `s_k = z_k`, the rigid capability rule.
    ResourceControlled,
    /// FedLPS's P-UCBV bandit.
    PUcbv(PUcbvConfig),
    /// FedMP-style discrete UCB1 over a fixed ratio grid.
    DiscreteUcb,
}

impl RatioPolicy {
    /// Short name used in experiment tables.
    pub fn name(&self) -> String {
        match self {
            RatioPolicy::Fixed(r) => format!("fixed({r})"),
            RatioPolicy::ResourceControlled => "rcr".to_string(),
            RatioPolicy::PUcbv(_) => "p-ucbv".to_string(),
            RatioPolicy::DiscreteUcb => "ucb".to_string(),
        }
    }
}

/// Per-round feedback forwarded to the learning policies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RatioFeedback {
    /// The ratio that was actually used (after capability capping).
    pub ratio: f64,
    /// Local cost of the round in seconds.
    pub local_cost: f64,
    /// Average local training accuracy in `[0, 1]`.
    pub accuracy: f64,
}

#[derive(Debug)]
enum AgentState {
    Stateless,
    PUcbv(Box<PUcbv>),
    Ucb(DiscreteUcb),
}

/// What an agent needs to know about its client when it is built:
/// capability cap `z_k` and the `a^{-1}` accuracy baseline.
///
/// A lazy controller's provider builds it under the controller lock on the
/// client's first touch, so the provider must be pure and cheap: memoize
/// anything expensive, such as the baseline's evaluation pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientInit {
    /// Capability fraction `z_k` of the client's device tier.
    pub capability: f64,
    /// Accuracy of the initial global model on the client's local training
    /// data (Algorithm 2's bandit baseline). Only policies whose
    /// [`RatioPolicy::reads_initial_accuracy`] is true read it; callers pass
    /// `0.0` for the rest.
    pub initial_accuracy: f64,
}

/// One client's agent, its current proposal and capability cap.
struct Client {
    agent: AgentState,
    proposal: f64,
    capability: f64,
    /// The client's private RNG stream, or `None` to draw from the
    /// controller's shared stream.
    rng: Option<StdRng>,
}

impl Client {
    /// The proposal capped at the client's capability (`s_k ≤ z_k`).
    fn ratio(&self) -> f64 {
        self.proposal.min(self.capability).max(0.0)
    }
}

/// The agents materialized so far, keyed by client id (`clippy.toml` rule D1).
struct Agents {
    clients: BTreeMap<usize, Client>,
    /// The sequential stream every agent built by [`RatioController::new`]
    /// draws from, in the order the agents are built and advanced.
    shared_rng: Option<StdRng>,
}

/// Per-client ratio decision state for a whole federation.
///
/// One store holds the agents; a client's agent is built from the
/// `provider`'s [`ClientInit`] on first touch. Which RNG an agent draws from
/// is data: [`RatioController::new`] builds every agent up front on one
/// shared sequential stream, while [`RatioController::lazy`] builds an agent
/// on its client's first participation, on a stream keyed by the client id —
/// memory stays `O(participants)` at registry scale, and no agent's draws
/// depend on which other clients participated first.
pub struct RatioController {
    policy: RatioPolicy,
    num_clients: usize,
    provider: Box<dyn Fn(usize) -> ClientInit + Send + Sync>,
    units_per_layer: Option<Vec<usize>>,
    /// The `Mutex` exists because `ratio_for` takes `&self` but may
    /// materialize; agents are pure functions of `(seed, id, provider)` plus
    /// their own feedback, so lock order never influences a value.
    agents: Mutex<Agents>,
    seed: u64,
    /// Feedback absorbed this round, applied at aggregation so in-flight
    /// steps see a stable policy.
    deferred: Vec<(usize, RatioFeedback)>,
}

impl std::fmt::Debug for RatioController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RatioController")
            .field("policy", &self.policy)
            .field("registered", &self.num_clients)
            .field("materialized", &self.materialized())
            .finish_non_exhaustive()
    }
}

impl RatioPolicy {
    /// Whether an agent of this policy reads
    /// [`ClientInit::initial_accuracy`]: only P-UCBV seeds its `a^{-1}`
    /// baseline with it. For every other policy the value is dead, so callers
    /// skip the evaluation pass behind it.
    pub fn reads_initial_accuracy(&self) -> bool {
        matches!(self, RatioPolicy::PUcbv(_))
    }
}

/// Builds one client's agent and initial proposal from the stream it draws
/// on (shared or private).
fn build_agent(policy: &RatioPolicy, init: ClientInit, rng: &mut StdRng) -> (AgentState, f64) {
    let z = init.capability;
    match policy {
        RatioPolicy::Fixed(r) => (AgentState::Stateless, r.min(z)),
        RatioPolicy::ResourceControlled => (AgentState::Stateless, z),
        RatioPolicy::PUcbv(cfg) => {
            let agent = PUcbv::new(*cfg, z, init.initial_accuracy);
            let ratio = agent.initial_ratio(rng);
            (AgentState::PUcbv(Box::new(agent)), ratio.min(z))
        }
        RatioPolicy::DiscreteUcb => {
            let ucb = DiscreteUcb::new(DiscreteUcb::default_grid(z));
            let arm = ucb.select(rng);
            let ratio = ucb.ratio_of(arm);
            (AgentState::Ucb(ucb), ratio.min(z))
        }
    }
}

/// Advances one agent on a round report; returns the next proposal, or
/// `None` for stateless rules.
fn advance_agent(agent: &mut AgentState, feedback: RatioFeedback, rng: &mut StdRng) -> Option<f64> {
    match agent {
        AgentState::Stateless => None,
        AgentState::PUcbv(agent) => Some(agent.update(
            PUcbvFeedback {
                ratio: feedback.ratio,
                local_cost: feedback.local_cost,
                accuracy: feedback.accuracy,
            },
            rng,
        )),
        AgentState::Ucb(ucb) => {
            let arm = ucb.nearest_arm(feedback.ratio);
            ucb.record(
                arm,
                crate::reward::reward(feedback.accuracy, 0.0, feedback.local_cost),
            );
            let next_arm = ucb.select(rng);
            Some(ucb.ratio_of(next_arm))
        }
    }
}

impl RatioController {
    /// Creates the controller for `capabilities.len()` clients, every agent
    /// built up front, in client order, on one shared sequential RNG stream.
    ///
    /// `initial_accuracy` seeds the bandits' `a^{−1}` baseline (the accuracy of
    /// the initial global model on local data, as Algorithm 2 prescribes).
    pub fn new(
        policy: RatioPolicy,
        capabilities: &[f64],
        initial_accuracy: &[f64],
        seed: u64,
    ) -> Self {
        assert_eq!(capabilities.len(), initial_accuracy.len());
        let inits: Vec<ClientInit> = capabilities
            .iter()
            .zip(initial_accuracy)
            .map(|(&capability, &initial_accuracy)| ClientInit {
                capability,
                initial_accuracy,
            })
            .collect();
        let controller = Self::lazy(policy, inits.len(), Box::new(move |k| inits[k]), seed);
        let mut agents = controller.lock();
        agents.shared_rng = Some(rng_from_seed(split_seed(seed, 0xBAD17)));
        for k in 0..controller.num_clients {
            controller.materialize(&mut agents, k);
        }
        drop(agents);
        controller
    }

    /// Creates a controller for `num_clients` registered clients without
    /// building any agent: a client's agent materializes on its first
    /// [`ratio_for`](Self::ratio_for) / [`report`](Self::report), seeded from
    /// `provider(client)` and a private per-client RNG stream.
    ///
    /// `provider` runs under the controller lock, once per materialized
    /// agent, so it must be pure (agents must not depend on touch order) and
    /// cheap (every concurrent first touch waits on it).
    ///
    /// Draws are **not** bit-identical to [`RatioController::new`] — its
    /// shared sequential stream has no participation-order-independent
    /// equivalent. Population-scale runs are their own (deterministic) trace.
    pub fn lazy(
        policy: RatioPolicy,
        num_clients: usize,
        provider: Box<dyn Fn(usize) -> ClientInit + Send + Sync>,
        seed: u64,
    ) -> Self {
        Self {
            policy,
            num_clients,
            provider,
            units_per_layer: None,
            agents: Mutex::new(Agents {
                clients: BTreeMap::new(),
                shared_rng: None,
            }),
            seed,
            deferred: Vec::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Agents> {
        self.agents.lock().expect("ratio controller lock")
    }

    /// Number of clients holding materialized agent state. The
    /// population-scale bench asserts on this to pin the `O(active
    /// participants)` memory contract.
    pub fn materialized(&self) -> usize {
        self.lock().clients.len()
    }

    /// Quantizes every P-UCBV agent's arm space at the model's shape
    /// resolution (`units_per_layer` = sparsifiable units per layer): ratios
    /// extracting equal per-layer retained-unit counts collapse to one arm,
    /// and current proposals snap to their canonical representatives. A
    /// no-op for the stateless and discrete policies, whose arm spaces are
    /// already coarse. The resolution also applies to every agent
    /// materialized later.
    pub fn with_shape_resolution(mut self, units_per_layer: &[usize]) -> Self {
        self.units_per_layer = Some(units_per_layer.to_vec());
        for client in self.lock().clients.values_mut() {
            if let AgentState::PUcbv(a) = &mut client.agent {
                a.set_shape_resolution(units_per_layer.to_vec());
                client.proposal = a.quantize(client.proposal);
            }
        }
        self
    }

    /// The sparse ratio to use for `client` this round. Always capped at the
    /// client's capability (`s_k ≤ z_k`), which mirrors the client-side reset
    /// in the paper's "Client-side Update". First touch of a client
    /// materializes its agent.
    pub fn ratio_for(&self, client: usize) -> f64 {
        self.materialize(&mut self.lock(), client).0.ratio()
    }

    /// Materializes (or fetches) one agent, next to the shared stream if
    /// there is one; callers hold the lock. A new agent draws from the shared
    /// stream, or else from a fresh stream keyed by its client id.
    fn materialize<'m>(
        &self,
        agents: &'m mut Agents,
        client: usize,
    ) -> (&'m mut Client, Option<&'m mut StdRng>) {
        assert!(client < self.num_clients, "client {client} out of range");
        let shared_rng = &mut agents.shared_rng;
        let c = agents.clients.entry(client).or_insert_with(|| {
            let init = (self.provider)(client);
            let mut rng = shared_rng
                .is_none()
                .then(|| rng_from_seed(split_seed(self.seed, 0xBAD17 ^ ((client as u64) << 16))));
            let stream = rng.as_mut().or(shared_rng.as_mut()).expect("a stream");
            let (mut agent, mut proposal) = build_agent(&self.policy, init, stream);
            if let (Some(units), AgentState::PUcbv(a)) = (&self.units_per_layer, &mut agent) {
                a.set_shape_resolution(units.clone());
                proposal = a.quantize(proposal);
            }
            Client {
                agent,
                proposal,
                capability: init.capability,
                rng,
            }
        });
        (c, shared_rng.as_mut())
    }

    /// Reports a finished round for `client`; learning policies use it to
    /// propose the next ratio (Algorithm 1 lines 9-15).
    pub fn report(&mut self, client: usize, feedback: RatioFeedback) {
        let mut agents = self.lock();
        let (c, shared_rng) = self.materialize(&mut agents, client);
        let stream = c.rng.as_mut().or(shared_rng).expect("a stream");
        if let Some(next) = advance_agent(&mut c.agent, feedback, stream) {
            c.proposal = next;
        }
    }

    /// Holds a round's feedback for `client` until
    /// [`apply_deferred`](Self::apply_deferred).
    pub fn defer(&mut self, client: usize, feedback: RatioFeedback) {
        self.deferred.push((client, feedback));
    }

    /// [`report`](Self::report)s every deferred feedback, in the order it was
    /// deferred.
    pub fn apply_deferred(&mut self) {
        for (client, feedback) in std::mem::take(&mut self.deferred) {
            self.report(client, feedback);
        }
    }

    /// Current proposals for every client (used by analyses / examples).
    /// Refuses to run unless every agent is materialized, as it always is
    /// after [`RatioController::new`] — iterate
    /// [`ratio_for`](Self::ratio_for) over the ids you need instead.
    pub fn proposals(&self) -> Vec<f64> {
        let agents = self.lock();
        assert_eq!(
            agents.clients.len(),
            self.num_clients,
            "RatioController::proposals() would materialize {} agents; \
             iterate ratio_for(k) instead",
            self.num_clients
        );
        agents.clients.values().map(Client::ratio).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> Vec<f64> {
        vec![1.0, 0.5, 0.25, 0.0625]
    }

    #[test]
    fn fixed_policy_caps_at_capability() {
        let ctrl = RatioController::new(RatioPolicy::Fixed(0.5), &caps(), &[0.0; 4], 1);
        assert_eq!(ctrl.ratio_for(0), 0.5);
        assert_eq!(ctrl.ratio_for(1), 0.5);
        assert_eq!(ctrl.ratio_for(2), 0.25);
        assert_eq!(ctrl.ratio_for(3), 0.0625);
    }

    #[test]
    fn rcr_policy_matches_capability() {
        let ctrl = RatioController::new(RatioPolicy::ResourceControlled, &caps(), &[0.0; 4], 1);
        for (k, &z) in caps().iter().enumerate() {
            assert_eq!(ctrl.ratio_for(k), z);
        }
    }

    #[test]
    fn dense_policy_ignores_capability_cap_only_via_explicit_one() {
        // No policy escapes the capability cap: a dense ratio must be asked
        // for explicitly (`Fixed(1.0)`), and even then the controller reports
        // the capability-capped value used for submodel extraction — which on
        // weak clients is the capability itself, exactly what RCR proposes.
        let ctrl = RatioController::new(RatioPolicy::Fixed(1.0), &caps(), &[0.0; 4], 1);
        let rcr = RatioController::new(RatioPolicy::ResourceControlled, &caps(), &[0.0; 4], 1);
        assert_eq!(ctrl.ratio_for(0), 1.0);
        assert_eq!(ctrl.ratio_for(3), 0.0625);
        for k in 0..4 {
            assert_eq!(ctrl.ratio_for(k), rcr.ratio_for(k), "client {k}");
        }
    }

    #[test]
    fn pucbv_policy_adapts_over_reports() {
        let mut ctrl = RatioController::new(
            RatioPolicy::PUcbv(PUcbvConfig::default()),
            &caps(),
            &[0.1; 4],
            7,
        );
        let first = ctrl.ratio_for(0);
        assert!(first > 0.0 && first <= 1.0);
        for round in 0..20 {
            let r = ctrl.ratio_for(0);
            ctrl.report(
                0,
                RatioFeedback {
                    ratio: r,
                    local_cost: 1.0 + r,
                    accuracy: 0.1 + 0.03 * round as f64,
                },
            );
            assert!(ctrl.ratio_for(0) <= 1.0 && ctrl.ratio_for(0) > 0.0);
        }
    }

    #[test]
    fn ucb_policy_stays_on_grid_and_under_cap() {
        let mut ctrl = RatioController::new(RatioPolicy::DiscreteUcb, &caps(), &[0.1; 4], 9);
        for _ in 0..10 {
            let r = ctrl.ratio_for(2);
            assert!(r <= 0.25 + 1e-9);
            ctrl.report(
                2,
                RatioFeedback {
                    ratio: r,
                    local_cost: 1.0,
                    accuracy: 0.2,
                },
            );
        }
    }

    #[test]
    fn shape_resolution_quantizes_pucbv_proposals_only() {
        let units = vec![10, 8];
        let mut ctrl = RatioController::new(
            RatioPolicy::PUcbv(PUcbvConfig::default()),
            &caps(),
            &[0.1; 4],
            7,
        )
        .with_shape_resolution(&units);
        for k in 0..4 {
            let r = ctrl.ratio_for(k);
            assert!(r <= caps()[k] + 1e-9);
            for _ in 0..5 {
                ctrl.report(
                    k,
                    RatioFeedback {
                        ratio: ctrl.ratio_for(k),
                        local_cost: 1.0,
                        accuracy: 0.3,
                    },
                );
            }
        }
        // Stateless rules are untouched by the builder: RCR still proposes
        // exactly the capability.
        let rcr = RatioController::new(RatioPolicy::ResourceControlled, &caps(), &[0.0; 4], 1)
            .with_shape_resolution(&units);
        for (k, &z) in caps().iter().enumerate() {
            assert_eq!(rcr.ratio_for(k), z);
        }
    }

    fn tier_init(k: usize) -> ClientInit {
        ClientInit {
            capability: [1.0, 0.5, 0.25, 0.0625][k % 4],
            initial_accuracy: 0.1,
        }
    }

    #[test]
    fn lazy_controller_materializes_on_first_touch_only() {
        let ctrl = RatioController::lazy(
            RatioPolicy::PUcbv(PUcbvConfig::default()),
            1_000_000,
            Box::new(tier_init),
            7,
        );
        assert_eq!(ctrl.materialized(), 0);
        let r = ctrl.ratio_for(999_999);
        assert!(r > 0.0 && r <= 1.0);
        let _ = ctrl.ratio_for(5);
        let _ = ctrl.ratio_for(999_999); // repeat touch: no new entry
        assert_eq!(ctrl.materialized(), 2);
    }

    #[test]
    fn lazy_agents_are_independent_of_participation_order() {
        let mk = || {
            RatioController::lazy(
                RatioPolicy::PUcbv(PUcbvConfig::default()),
                1000,
                Box::new(tier_init),
                7,
            )
        };
        let forward = mk();
        let reverse = mk();
        let ids = [3usize, 17, 512, 900];
        let a: Vec<f64> = ids.iter().map(|&k| forward.ratio_for(k)).collect();
        let b: Vec<f64> = ids.iter().rev().map(|&k| reverse.ratio_for(k)).collect();
        let b: Vec<f64> = b.into_iter().rev().collect();
        assert_eq!(a, b, "first-touch order must not change any proposal");
    }

    #[test]
    fn lazy_controller_learns_and_respects_caps() {
        let mut ctrl = RatioController::lazy(
            RatioPolicy::PUcbv(PUcbvConfig::default()),
            1_000_000,
            Box::new(tier_init),
            9,
        )
        .with_shape_resolution(&[10, 8]);
        for round in 0..10 {
            // Client 2 has capability 0.25.
            let r = ctrl.ratio_for(2);
            assert!(r > 0.0 && r <= 0.25 + 1e-9, "round {round}: {r}");
            ctrl.report(
                2,
                RatioFeedback {
                    ratio: r,
                    local_cost: 1.0 + r,
                    accuracy: 0.1 + 0.05 * round as f64,
                },
            );
        }
        assert_eq!(ctrl.materialized(), 1);
    }

    #[test]
    fn lazy_stateless_rules_match_their_dense_counterparts() {
        let caps = caps();
        let init = |k: usize| ClientInit {
            capability: [1.0, 0.5, 0.25, 0.0625][k],
            initial_accuracy: 0.0,
        };
        for policy in [
            RatioPolicy::Fixed(0.5),
            RatioPolicy::Fixed(1.0),
            RatioPolicy::ResourceControlled,
        ] {
            let dense = RatioController::new(policy.clone(), &caps, &[0.0; 4], 1);
            let lazy = RatioController::lazy(policy.clone(), 4, Box::new(init), 1);
            for k in 0..4 {
                assert_eq!(
                    dense.ratio_for(k),
                    lazy.ratio_for(k),
                    "{} client {k}",
                    policy.name()
                );
            }
        }
    }

    /// Every proposal a controller makes over a fixed `ratio_for` /
    /// `report` sequence on four clients, as bit patterns.
    fn proposal_trace(mut ctrl: RatioController) -> Vec<u64> {
        let mut trace = Vec::new();
        for round in 0..12 {
            for k in 0..4 {
                let ratio = ctrl.ratio_for(k);
                trace.push(ratio.to_bits());
                ctrl.report(
                    k,
                    RatioFeedback {
                        ratio,
                        local_cost: 1.0 + ratio,
                        accuracy: 0.2 + 0.04 * ((round + k) % 7) as f64,
                    },
                );
            }
        }
        trace
    }

    #[test]
    fn only_policies_that_read_the_baseline_depend_on_it() {
        let policies = [
            RatioPolicy::Fixed(0.5),
            RatioPolicy::Fixed(1.0),
            RatioPolicy::ResourceControlled,
            RatioPolicy::DiscreteUcb,
            RatioPolicy::PUcbv(PUcbvConfig::default()),
        ];
        for policy in policies {
            let dense =
                |accuracy: f64| RatioController::new(policy.clone(), &caps(), &[accuracy; 4], 7);
            let lazy = |accuracy: f64| {
                let init = move |k: usize| ClientInit {
                    capability: caps()[k],
                    initial_accuracy: accuracy,
                };
                RatioController::lazy(policy.clone(), 4, Box::new(init), 7)
            };
            for (ctor, build) in [("new", &dense as &dyn Fn(f64) -> _), ("lazy", &lazy)] {
                let (zero, seeded) = (proposal_trace(build(0.0)), proposal_trace(build(0.7)));
                if policy.reads_initial_accuracy() {
                    assert_ne!(zero, seeded, "{} via {ctor} ignores it", policy.name());
                } else {
                    assert_eq!(zero, seeded, "{} via {ctor} reads it", policy.name());
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn lazy_proposals_refuse_to_materialize_the_population() {
        RatioController::lazy(
            RatioPolicy::ResourceControlled,
            1_000_000,
            Box::new(tier_init),
            1,
        )
        .proposals();
    }

    #[test]
    fn deferred_feedback_applies_at_once_in_deferral_order() {
        let mk = || {
            RatioController::new(
                RatioPolicy::PUcbv(PUcbvConfig::default()),
                &caps(),
                &[0.1; 4],
                7,
            )
        };
        let feedback = |accuracy| RatioFeedback {
            ratio: 0.25,
            local_cost: 1.0,
            accuracy,
        };
        let reports = [(1, feedback(0.3)), (0, feedback(0.4)), (1, feedback(0.2))];
        let (mut deferred, mut direct) = (mk(), mk());
        let before = deferred.proposals();
        for &(client, fb) in &reports {
            deferred.defer(client, fb);
            direct.report(client, fb);
        }
        assert_eq!(
            deferred.proposals(),
            before,
            "nothing applies before aggregation"
        );
        deferred.apply_deferred();
        assert_eq!(deferred.proposals(), direct.proposals());
        deferred.apply_deferred();
        assert_eq!(
            deferred.proposals(),
            direct.proposals(),
            "applied only once"
        );
    }

    #[test]
    fn policy_names() {
        assert_eq!(RatioPolicy::ResourceControlled.name(), "rcr");
        assert_eq!(RatioPolicy::Fixed(1.0).name(), "fixed(1)");
        assert!(RatioPolicy::Fixed(0.5).name().starts_with("fixed"));
    }
}
