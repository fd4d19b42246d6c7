//! The abstract first pass — ACORN-style route nondeterminism.
//!
//! Before a family pays for an exact conditioned simulation, this module
//! runs a cheap over/under-approximation sandwich over the BGP session
//! graph and tries to *prove* the family's reachability results outright:
//!
//! 1. **OA closure** (over-approximation): propagate *condition-free*
//!    route states — concrete attribute vectors with the topology BDDs
//!    dropped — until fixpoint. Every route the exact simulation could
//!    deliver under *some* failure scenario is covered by a state, so the
//!    closure over-approximates the set of RIB entries ("route
//!    nondeterminism": all candidate routes exist at once, none is
//!    selected). Crucially the states are exact per derivation, so policy
//!    evaluation reuses the device behavior model verbatim — the abstract
//!    pass cannot disagree with the exact simulator about what a
//!    route-map does.
//! 2. **UA fixpoint** (under-approximation): a per-node BDD `ua[n]` such
//!    that `ua[n] ⇒ reach(n)` on every scenario within the `≤ k`-failure
//!    ball. `ua` flows only over edges whose delivery is *guaranteed*:
//!    every abstract state at the sender either definitely survives
//!    advertisement + egress + ingress toward the receiver, or already
//!    carries the receiver on its path (in which case the receiver holds
//!    the covering ancestor entry whenever that state is live — the
//!    loop-prevention exemption).
//! 3. **OB fixpoint** (over-approximation): the same flow over every
//!    edge that could *possibly* deliver, giving `reach(n) ⇒ ob[n]`
//!    within the ball.
//!
//! If `gap(n) = ob[n] ∧ ¬ua[n]` is unsatisfiable within the failure ball
//! at every node, the sandwich is tight: `ua` *is* the exact reachability
//! condition on every scenario the verifier quantifies over, and the
//! family's scope and fragile sets are read off `ua` without running the
//! exact simulation. Otherwise the family falls through to the exact
//! path — the abstraction only ever proves, never refutes.
//!
//! ## Shadow discard
//!
//! Reflection topologies produce dominated duplicates: the same route
//! arriving both directly from a client and re-reflected over the mesh.
//! A new state is discarded when an existing state (a) ranks strictly
//! better under the exact decision process
//! ([`hoyan_device::cmp_candidates`] with concrete all-alive IGP metrics)
//! and (b) has a within-ball liveness condition implied by the new
//! state's. Such a route is never best in any scenario inside the ball,
//! is therefore never advertised by the exact simulator, and contributes
//! nothing to any reachability condition. The implication check uses a
//! *requirement signature*: the set of eBGP links plus the endpoints of
//! each maximal iBGP run along the derivation — consecutive iBGP session
//! conditions compose transitively (IS-IS reachability is transitive
//! within one IGP domain), so only run endpoints matter.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use hoyan_device::{cmp_candidates, Candidate, LearnedFrom, SessionKind};
use hoyan_logic::{Bdd, BddManager, BudgetBreach};
use hoyan_nettypes::{Ipv4Prefix, NodeId, RouteAttrs};

use crate::network::{BgpSession, NetworkModel};
use crate::propagate::{AttachedBase, LOCAL_WEIGHT};

/// Per-node abstract state cap: beyond this the closure is declared blown
/// up and the family falls through to the exact path.
const MAX_STATES_PER_NODE: usize = 64;

/// One conjunct of a derivation's within-ball liveness condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Req {
    /// An eBGP hop: this link must be alive.
    Link(u32),
    /// A completed iBGP run: these endpoints must be IGP-reachable
    /// (normalized `(min, max)` node ids).
    Conn(u32, u32),
}

fn conn(a: u32, b: u32) -> Req {
    if a < b {
        Req::Conn(a, b)
    } else {
        Req::Conn(b, a)
    }
}

/// A condition-free route state: one concrete derivation of a RIB entry
/// with its topology condition dropped. All attribute fields mirror
/// [`crate::propagate::Entry`] exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
struct AbsState {
    /// How the route entered the holding device.
    learned: LearnedFrom,
    /// Exact attributes (the device model's own ingress output).
    attrs: RouteAttrs,
    /// BGP next hop (`None` = the holder originated the route).
    next_hop: Option<NodeId>,
    /// iBGP reflection hops taken (cluster-list proxy).
    ibgp_hops: u32,
    /// Advertising peer (`None` for local seeds).
    from: Option<NodeId>,
    /// Every device on the derivation path, including the holder
    /// (mirrors `Entry::path` as a set — loop prevention).
    nodes: BTreeSet<u32>,
    /// Completed requirement items of the derivation.
    reqs: BTreeSet<Req>,
    /// Origin of the currently open iBGP run, if any.
    run_start: Option<u32>,
}

impl AbsState {
    fn local(origin_node: NodeId, attrs: RouteAttrs) -> Self {
        let mut nodes = BTreeSet::new();
        nodes.insert(origin_node.0);
        AbsState {
            learned: LearnedFrom::Local,
            attrs,
            next_hop: None,
            ibgp_hops: 0,
            from: None,
            nodes,
            reqs: BTreeSet::new(),
            run_start: None,
        }
    }

    /// The full requirement set, closing the open iBGP run at `at`.
    fn req_all(&self, at: u32) -> BTreeSet<Req> {
        let mut r = self.reqs.clone();
        if let Some(start) = self.run_start {
            if start != at {
                r.insert(conn(start, at));
            }
        }
        r
    }

    /// The exact decision-process candidate this state corresponds to at
    /// `holder`, with the concrete all-alive IGP metric (mirrors
    /// `Entry::candidate` plus the `deliver`-side metric rule).
    fn candidate(&self, holder: NodeId, igp_dist: &[Vec<Option<u64>>]) -> Candidate {
        let igp_metric = match self.next_hop {
            Some(nh) if nh != holder => igp_dist[holder.0 as usize][nh.0 as usize].unwrap_or(0),
            _ => 0,
        };
        Candidate {
            attrs: self.attrs.clone(),
            from_ebgp: matches!(self.learned, LearnedFrom::Ebgp | LearnedFrom::Local),
            igp_metric,
            ibgp_hops: self.ibgp_hops,
            peer_router_id: 0, // compared separately (needs device lookup)
        }
    }
}

/// `true` when `better` definitely shadows `worse` at `holder`: in every
/// ball scenario where `worse`'s entry is live, `better`'s is live too
/// and ranks strictly higher — so `worse` is never best, never
/// advertised, and its reachability contribution is subsumed.
fn shadows(
    better: &AbsState,
    worse: &AbsState,
    holder: NodeId,
    igp_dist: &[Vec<Option<u64>>],
    router_id: &impl Fn(Option<NodeId>) -> u32,
) -> bool {
    // Liveness implication: every requirement of `better` is literally a
    // requirement of `worse` (iBGP runs already endpoint-collapsed).
    if !better
        .req_all(holder.0)
        .is_subset(&worse.req_all(holder.0))
    {
        return false;
    }
    let mut b = better.candidate(holder, igp_dist);
    let mut w = worse.candidate(holder, igp_dist);
    b.peer_router_id = router_id(better.from);
    w.peer_router_id = router_id(worse.from);
    cmp_candidates(&b, &w) == Ordering::Less
}

/// The result of pushing a sender's abstract states over one session.
struct EdgeTransfer {
    /// States the receiver gains (over-approximation side).
    outputs: Vec<AbsState>,
    /// At least one state could be delivered.
    possible: bool,
    /// Delivery is guaranteed whenever the sender is reached and the
    /// session is alive: every sender state either definitely survives
    /// the full advertise → egress → ingress chain, or already carries
    /// the receiver on its path (loop-prevention exemption — the
    /// receiver then holds the covering ancestor entry).
    guaranteed: bool,
}

/// Mirrors one `emit` + `deliver` round of the exact engine for every
/// abstract state at `u`, over session `s`.
fn edge_transfer(
    net: &NetworkModel,
    u: NodeId,
    s: &BgpSession,
    prefix: Ipv4Prefix,
    states: &[AbsState],
) -> EdgeTransfer {
    let v = s.peer;
    let dev = net.device(u);
    let rdev = net.device(v);
    let mut out = EdgeTransfer {
        outputs: Vec::new(),
        possible: false,
        guaranteed: !states.is_empty(),
    };
    let Some(bgp) = dev.config.bgp.as_ref() else {
        out.guaranteed = false;
        return out;
    };
    let neighbor = &bgp.neighbors[s.neighbor_idx];
    let from_name = net.topology.name(u);
    for st in states {
        // Split horizon + loop prevention (`path.contains(&peer)`): the
        // exact engine never offers this entry to `v`, and whenever the
        // entry is live `v` already holds its ancestor — exempt from the
        // guarantee quantification.
        if st.nodes.contains(&v.0) {
            continue;
        }
        if !dev.may_advertise(st.learned, s.kind, neighbor) {
            out.guaranteed = false;
            continue;
        }
        let Some(egress) = dev.control_egress(neighbor, s.kind, prefix, &st.attrs) else {
            out.guaranteed = false;
            continue;
        };
        let next_hop = if egress.next_hop_self {
            Some(u)
        } else {
            st.next_hop.or(Some(u))
        };
        let Some(rneigh) = rdev.config.bgp.as_ref().and_then(|b| b.neighbor(from_name)) else {
            out.guaranteed = false;
            continue;
        };
        let Some(attrs_in) = rdev.control_ingress(rneigh, s.kind, prefix, &egress.attrs) else {
            out.guaranteed = false;
            continue;
        };
        let learned = match s.kind {
            SessionKind::Ebgp => LearnedFrom::Ebgp,
            SessionKind::Ibgp => {
                if rneigh.rr_client {
                    LearnedFrom::IbgpClient
                } else {
                    LearnedFrom::IbgpNonClient
                }
            }
        };
        let (reqs, run_start, ibgp_hops) = match s.kind {
            SessionKind::Ebgp => {
                let mut r = st.req_all(u.0);
                if let Some(link) = s.link {
                    r.insert(Req::Link(link.0));
                }
                (r, None, 0)
            }
            SessionKind::Ibgp => (
                st.reqs.clone(),
                Some(st.run_start.unwrap_or(u.0)),
                st.ibgp_hops + 1,
            ),
        };
        let mut nodes = st.nodes.clone();
        nodes.insert(v.0);
        out.outputs.push(AbsState {
            learned,
            attrs: attrs_in,
            next_hop,
            ibgp_hops,
            from: Some(u),
            nodes,
            reqs,
            run_start,
        });
        out.possible = true;
    }
    out
}

/// The local seed states for `prefix`, mirroring the exact engine's
/// seeding (network statements and redistributed statics).
fn seed_states(net: &NetworkModel, prefix: Ipv4Prefix) -> Vec<(NodeId, AbsState)> {
    let mut seeds = Vec::new();
    for n in net.topology.nodes() {
        let dev = net.device(n);
        let Some(bgp) = dev.config.bgp.as_ref() else {
            continue;
        };
        if bgp.networks.contains(&prefix) {
            let mut attrs = RouteAttrs::originated();
            attrs.weight = LOCAL_WEIGHT;
            seeds.push((n, AbsState::local(n, attrs)));
        }
        let redist = bgp
            .redistribute
            .iter()
            .any(|r| *r == hoyan_config::RedistSource::Static);
        if redist
            && dev.config.static_routes.iter().any(|s| s.prefix == prefix)
            && dev.redistribution_admits(prefix)
        {
            let mut attrs = RouteAttrs::originated();
            attrs.weight = LOCAL_WEIGHT;
            attrs.origin = hoyan_nettypes::Origin::Incomplete;
            seeds.push((n, AbsState::local(n, attrs)));
        }
    }
    seeds
}

/// Runs the OA closure for `prefix` over the session graph, returning the
/// per-node abstract state sets, or `None` when a node blows past
/// [`MAX_STATES_PER_NODE`].
fn oa_closure(net: &NetworkModel, prefix: Ipv4Prefix) -> Option<Vec<Vec<AbsState>>> {
    let n = net.topology.node_count();
    let igp_dist: Vec<Vec<Option<u64>>> = net
        .topology
        .nodes()
        .map(|src| net.igp_distances(src))
        .collect();
    let router_id = |from: Option<NodeId>| from.map_or(0, |f| net.device(f).config.router_id);
    let mut states: Vec<Vec<AbsState>> = vec![Vec::new(); n];
    let mut dirty: BTreeSet<u32> = BTreeSet::new();
    for (node, st) in seed_states(net, prefix) {
        states[node.0 as usize].push(st);
        dirty.insert(node.0);
    }
    while let Some(u) = dirty.pop_first() {
        let u = NodeId(u);
        for s in net.sessions_of(u) {
            let transfer = edge_transfer(net, u, s, prefix, &states[u.0 as usize]);
            let v = s.peer;
            let mut changed = false;
            for cand in transfer.outputs {
                let set = &mut states[v.0 as usize];
                if set.contains(&cand) {
                    continue;
                }
                if set
                    .iter()
                    .any(|ex| shadows(ex, &cand, v, &igp_dist, &router_id))
                {
                    continue;
                }
                // Reverse discard: states the newcomer dominates can no
                // longer be best either — drop them to keep sets small.
                set.retain(|ex| !shadows(&cand, ex, v, &igp_dist, &router_id));
                set.push(cand);
                if set.len() > MAX_STATES_PER_NODE {
                    return None;
                }
                changed = true;
            }
            if changed {
                dirty.insert(v.0);
            }
        }
    }
    Some(states)
}

struct CondEdge {
    u: u32,
    v: u32,
    cond: Bdd,
    guaranteed: bool,
}

/// Gauss–Seidel reachability fixpoint: `val[v] ∨= val[u] ∧ cond(u→v)`.
/// Returns `Ok(None)` if the round cap is hit (the flow is monotone so
/// this shouldn't happen; the cap guards non-termination regardless).
fn bdd_fixpoint(
    mgr: &mut BddManager,
    n: usize,
    seeds: &[NodeId],
    edges: &[CondEdge],
) -> Result<Option<Vec<Bdd>>, BudgetBreach> {
    let mut val = vec![Bdd::FALSE; n];
    for s in seeds {
        val[s.0 as usize] = Bdd::TRUE;
    }
    for _ in 0..n + 2 {
        let mut changed = false;
        for e in edges {
            let inflow = mgr.and(val[e.u as usize], e.cond);
            let joined = mgr.or(val[e.v as usize], inflow);
            if joined != val[e.v as usize] {
                val[e.v as usize] = joined;
                changed = true;
            }
        }
        if let Some(breach) = mgr.budget_exceeded() {
            return Err(breach);
        }
        if !changed {
            return Ok(Some(val));
        }
    }
    Ok(None)
}

/// What the abstract pass proved about one prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixProof {
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// Nodes that hold a route with all links alive (sorted by id).
    pub scope: Vec<NodeId>,
    /// Scope nodes whose reachability `≤ k` failures can break.
    pub fragile: Vec<NodeId>,
    /// Size of the largest per-node reachability BDD.
    pub max_reach_formula_len: usize,
}

/// Outcome of the abstract pass over one family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbstractOutcome {
    /// The sandwich is tight: these results are exact within the ball.
    Proved(Vec<PrefixProof>),
    /// The abstraction couldn't settle the family; fall through to the
    /// exact simulation (the reason is flight-recorder provenance).
    Inconclusive(&'static str),
}

/// `true` when `prefix` participates in any aggregation on any device —
/// aggregation couples prefixes within a family, which the per-prefix
/// abstract pass does not model.
fn aggregates_interact(net: &NetworkModel, prefix: Ipv4Prefix) -> bool {
    net.topology.nodes().any(|n| {
        net.device(n)
            .config
            .bgp
            .as_ref()
            .map(|b| {
                b.aggregates
                    .iter()
                    .any(|a| a.prefix == prefix || a.prefix.contains(prefix))
            })
            .unwrap_or(false)
    })
}

/// Attempts to prove `family`'s reachability results without an exact
/// simulation. Sound within the `≤ k`-failure ball: `Proved` scope and
/// fragile sets are byte-identical to what the exact pass would report;
/// `Inconclusive` means "run the exact pass", never "the check fails".
/// iBGP session conditions come from the sweep's shared base, attached to
/// `mgr`: the same conditions the exact simulation uses, so both stages
/// price sessions alike.
pub fn prove_family(
    net: &NetworkModel,
    base: &AttachedBase,
    mgr: &mut BddManager,
    family: &[Ipv4Prefix],
    k: u32,
) -> Result<AbstractOutcome, BudgetBreach> {
    let n = net.topology.node_count();
    let mut proofs = Vec::with_capacity(family.len());
    for &prefix in family {
        if aggregates_interact(net, prefix) {
            return Ok(AbstractOutcome::Inconclusive("aggregation in play"));
        }
        let Some(states) = oa_closure(net, prefix) else {
            return Ok(AbstractOutcome::Inconclusive("abstract state blow-up"));
        };
        let seeds: Vec<NodeId> = net
            .topology
            .nodes()
            .filter(|v| states[v.0 as usize].iter().any(|s| s.from.is_none()))
            .collect();
        let mut edges = Vec::new();
        for u in net.topology.nodes() {
            for s in net.sessions_of(u) {
                let t = edge_transfer(net, u, s, prefix, &states[u.0 as usize]);
                if !t.possible && !t.guaranteed {
                    continue;
                }
                let cond = match s.kind {
                    SessionKind::Ebgp => match s.link {
                        Some(link) => mgr.var(net.link_var(link)),
                        None => {
                            return Ok(AbstractOutcome::Inconclusive("linkless ebgp session"))
                        }
                    },
                    SessionKind::Ibgp => {
                        let key = if u.0 < s.peer.0 {
                            (u.0, s.peer.0)
                        } else {
                            (s.peer.0, u.0)
                        };
                        match base.session(key) {
                            Some(c) => c,
                            None if !net.runs_isis(u) || !net.runs_isis(s.peer) => Bdd::TRUE,
                            None => {
                                return Ok(AbstractOutcome::Inconclusive(
                                    "missing session condition",
                                ))
                            }
                        }
                    }
                };
                edges.push(CondEdge {
                    u: u.0,
                    v: s.peer.0,
                    cond,
                    guaranteed: t.guaranteed,
                });
            }
        }
        if let Some(breach) = mgr.budget_exceeded() {
            return Err(breach);
        }
        let ua_edges: Vec<CondEdge> = edges
            .iter()
            .filter(|e| e.guaranteed)
            .map(|e| CondEdge {
                u: e.u,
                v: e.v,
                cond: e.cond,
                guaranteed: true,
            })
            .collect();
        let Some(ua) = bdd_fixpoint(mgr, n, &seeds, &ua_edges)? else {
            return Ok(AbstractOutcome::Inconclusive("fixpoint divergence"));
        };
        let Some(ob) = bdd_fixpoint(mgr, n, &seeds, &edges)? else {
            return Ok(AbstractOutcome::Inconclusive("fixpoint divergence"));
        };
        for i in 0..n {
            let gap = mgr.and_not(ob[i], ua[i]);
            if !gap.is_false() && mgr.min_failures_to_satisfy(gap) <= k {
                return Ok(AbstractOutcome::Inconclusive("abstraction gap"));
            }
            if let Some(breach) = mgr.budget_exceeded() {
                return Err(breach);
            }
        }
        let mut scope = Vec::new();
        let mut fragile = Vec::new();
        let mut max_len = 0usize;
        for (i, &v) in ua.iter().enumerate() {
            if v.is_false() {
                continue;
            }
            max_len = max_len.max(mgr.size(v));
            if mgr.eval(v, &[]) {
                scope.push(NodeId(i as u32));
                if mgr.min_failures_to_falsify(v) <= k {
                    fragile.push(NodeId(i as u32));
                }
            }
        }
        if let Some(breach) = mgr.budget_exceeded() {
            return Err(breach);
        }
        proofs.push(PrefixProof {
            prefix,
            scope,
            fragile,
            max_reach_formula_len: max_len,
        });
    }
    Ok(AbstractOutcome::Proved(proofs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isis::IsisDb;
    use crate::propagate::SharedBase;
    use hoyan_config::parse_config;
    use hoyan_device::VsbProfile;
    use hoyan_nettypes::pfx;

    fn build(texts: &[&str]) -> NetworkModel {
        let configs = texts.iter().map(|t| parse_config(t).unwrap()).collect();
        NetworkModel::from_configs(configs, VsbProfile::ground_truth).unwrap()
    }

    /// Proves `10.0.0.0/24` the way a sweep does: against a shared base
    /// built from the fixture's IS-IS database and attached to `mgr`.
    fn prove(
        net: &NetworkModel,
        mgr: &mut BddManager,
        k: u32,
    ) -> Result<AbstractOutcome, BudgetBreach> {
        let isis = IsisDb::build(net, Some(3)).expect("IS-IS converges");
        let base = SharedBase::build(net, Some(&isis)).attach(mgr);
        prove_family(net, &base, mgr, &[pfx("10.0.0.0/24")], k)
    }

    /// A 3-node eBGP chain with plain policies settles: UA == OB, and the
    /// proof's scope is the whole chain.
    #[test]
    fn plain_chain_is_proved() {
        let net = build(&[
            "hostname A\ninterface e0\n peer B\nrouter bgp 100\n network 10.0.0.0/24\n neighbor B remote-as 200\n",
            "hostname B\ninterface e0\n peer A\ninterface e1\n peer C\nrouter bgp 200\n neighbor A remote-as 100\n neighbor C remote-as 300\n",
            "hostname C\ninterface e0\n peer B\nrouter bgp 300\n neighbor B remote-as 200\n",
        ]);
        let mut mgr = BddManager::new();
        let out = prove(&net, &mut mgr, 1).expect("no budget");
        let AbstractOutcome::Proved(proofs) = out else {
            panic!("expected Proved, got {out:?}");
        };
        assert_eq!(proofs.len(), 1);
        let names: Vec<&str> = proofs[0]
            .scope
            .iter()
            .map(|n| net.topology.name(*n))
            .collect();
        assert_eq!(names, vec!["A", "B", "C"]);
        // B and C lose the route under single-link failures.
        let fragile: Vec<&str> = proofs[0]
            .fragile
            .iter()
            .map(|n| net.topology.name(*n))
            .collect();
        assert_eq!(fragile, vec!["B", "C"]);
    }

    /// B hears the prefix from both A1 and A2; routes via A2 are tagged
    /// and denied toward C. Whether C gets the route depends on which
    /// entry is best at B — genuinely selection-dependent, so the
    /// abstraction must hand the family to the exact pass.
    #[test]
    fn selection_dependent_policy_is_inconclusive() {
        let net = build(&[
            "hostname A1\ninterface e0\n peer B\nrouter bgp 100\n network 10.0.0.0/24\n neighbor B remote-as 300\n",
            "hostname A2\ninterface e0\n peer B\nrouter bgp 200\n network 10.0.0.0/24\n neighbor B remote-as 300\n",
            concat!(
                "hostname B\ninterface e0\n peer A1\ninterface e1\n peer A2\ninterface e2\n peer C\n",
                "route-map TAG permit 10\n set community 65000:2\n",
                "route-map NO2 deny 10\n match community 65000:2\nroute-map NO2 permit 20\n",
                "router bgp 300\n neighbor A1 remote-as 100\n neighbor A2 remote-as 200\n",
                " neighbor A2 route-map TAG in\n neighbor C remote-as 400\n neighbor C route-map NO2 out\n",
            ),
            "hostname C\ninterface e0\n peer B\nrouter bgp 400\n neighbor B remote-as 300\n",
        ]);
        let mut mgr = BddManager::new();
        let out = prove(&net, &mut mgr, 1).expect("no budget");
        assert_eq!(out, AbstractOutcome::Inconclusive("abstraction gap"));
    }

    /// DC originates over eBGP into PE; PE is an rr-client of both core
    /// reflectors CR1/CR2, which mesh as non-clients. The re-reflected
    /// copies are dominated duplicates; without shadow discard they
    /// poison the mesh-edge guarantees and the family would (wrongly)
    /// look unsettleable.
    #[test]
    fn reflected_route_is_shadow_discarded_and_proved() {
        let net = build(&[
            "hostname DC\ninterface e0\n peer PE\nrouter bgp 65001\n network 10.0.0.0/24\n neighbor PE remote-as 64500\n",
            concat!(
                "hostname PE\ninterface e0\n peer DC\ninterface e1\n peer CR1\ninterface e2\n peer CR2\n",
                "router isis\n area 1\nrouter bgp 64500\n neighbor DC remote-as 65001\n",
                " neighbor CR1 remote-as 64500\n neighbor CR2 remote-as 64500\n",
            ),
            concat!(
                "hostname CR1\ninterface e0\n peer PE\ninterface e1\n peer CR2\n",
                "router isis\n area 1\nrouter bgp 64500\n neighbor PE remote-as 64500\n",
                " neighbor PE route-reflector-client\n neighbor CR2 remote-as 64500\n",
            ),
            concat!(
                "hostname CR2\ninterface e0\n peer PE\ninterface e1\n peer CR1\n",
                "router isis\n area 1\nrouter bgp 64500\n neighbor PE remote-as 64500\n",
                " neighbor PE route-reflector-client\n neighbor CR1 remote-as 64500\n",
            ),
        ]);
        let states = oa_closure(&net, pfx("10.0.0.0/24")).expect("no blow-up");
        let cr1 = net.topology.node("CR1").expect("CR1 exists");
        // Shadow discard keeps exactly one state at the reflector: the
        // direct client copy (the re-reflected one is dominated).
        assert_eq!(states[cr1.0 as usize].len(), 1);
        assert_eq!(states[cr1.0 as usize][0].learned, LearnedFrom::IbgpClient);
        let mut mgr = BddManager::new();
        let out = prove(&net, &mut mgr, 1).expect("no budget");
        assert!(
            matches!(out, AbstractOutcome::Proved(_)),
            "expected Proved, got {out:?}"
        );
    }

    /// C shares A's AS number: standard eBGP loop prevention drops the
    /// route at C's ingress in every scenario, so the abstraction still
    /// settles the family — with C outside the scope.
    #[test]
    fn as_loop_excludes_node_but_proves() {
        let net = build(&[
            "hostname A\ninterface e0\n peer B\nrouter bgp 100\n network 10.0.0.0/24\n neighbor B remote-as 200\n",
            "hostname B\ninterface e0\n peer A\ninterface e1\n peer C\nrouter bgp 200\n neighbor A remote-as 100\n neighbor C remote-as 100\n",
            "hostname C\ninterface e0\n peer B\nrouter bgp 100\n neighbor B remote-as 200\n",
        ]);
        let mut mgr = BddManager::new();
        let out = prove(&net, &mut mgr, 1).expect("no budget");
        let AbstractOutcome::Proved(proofs) = out else {
            panic!("expected Proved, got {out:?}");
        };
        let names: Vec<&str> = proofs[0]
            .scope
            .iter()
            .map(|n| net.topology.name(*n))
            .collect();
        assert_eq!(names, vec!["A", "B"]);
    }

    #[test]
    fn aggregates_bail_to_exact() {
        let net = build(&[
            concat!(
                "hostname A\ninterface e0\n peer B\nrouter bgp 100\n network 10.0.0.0/24\n",
                " aggregate-address 10.0.0.0/16\n neighbor B remote-as 200\n",
            ),
            "hostname B\ninterface e0\n peer A\nrouter bgp 200\n neighbor A remote-as 100\n",
        ]);
        let mut mgr = BddManager::new();
        let out = prove(&net, &mut mgr, 1).expect("no budget");
        assert_eq!(out, AbstractOutcome::Inconclusive("aggregation in play"));
    }

    #[test]
    fn budget_breach_surfaces_as_err() {
        let net = build(&[
            "hostname A\ninterface e0\n peer B\nrouter bgp 100\n network 10.0.0.0/24\n neighbor B remote-as 200\n",
            "hostname B\ninterface e0\n peer A\ninterface e1\n peer C\nrouter bgp 200\n neighbor A remote-as 100\n neighbor C remote-as 300\n",
            "hostname C\ninterface e0\n peer B\nrouter bgp 300\n neighbor B remote-as 200\n",
        ]);
        let mut mgr = BddManager::new();
        mgr.set_budget(hoyan_logic::BddBudget {
            max_live_nodes: None,
            max_ops: Some(0),
        });
        assert!(prove(&net, &mut mgr, 1).is_err());
    }
}
