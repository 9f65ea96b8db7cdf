// Parameterized benchmark models — reconstructions of the four Table-1
// families (NSDP, ASAT, OVER, RW), the two motivating figure nets (Fig 1
// diamond, Fig 2 conflict chain), and the Section-3 walkthrough nets
// (Figs 3/5/7). The original SPIN/Corbett sources are unavailable, so each
// family is rebuilt as a safe Petri net from its published description; see
// DESIGN.md ("Baseline substitutions") for what each preserves.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "petri/net.hpp"

namespace gpo::models {

/// Fig. 1: n fully concurrent transitions (independent source/sink pairs).
/// Full reachability graph: 2^n markings with n! interleavings; partial-order
/// methods need n+1 states; GPO needs 2.
[[nodiscard]] petri::PetriNet make_diamond(std::size_t n);

/// Fig. 2: n concurrently marked conflict places, pair (A_i, B_i) each.
/// Full graph: 3^n states. Classical partial-order analysis: 2^{n+1}-1
/// (the binary anticipation tree of the paper). GPO: 2 states.
[[nodiscard]] petri::PetriNet make_conflict_chain(std::size_t n);

/// NSDP(n): non-serialized dining philosophers — each philosopher may pick
/// either fork first, so the classic "everybody holds one fork" deadlock is
/// reachable. Places per philosopher: think/hasL/hasR/eat + one fork place
/// between neighbours.
[[nodiscard]] petri::PetriNet make_nsdp(std::size_t n);

/// ASAT(n): asynchronous arbiter tree serving n clients (n a power of two)
/// through a binary tree of arbiter cells; each cell arbitrates between its
/// two children (one structural conflict per cell), the root grants.
/// Deadlock-free.
[[nodiscard]] petri::PetriNet make_arbiter_tree(std::size_t n);

/// OVER(n): overtake protocol — n cars in a row; car i may request to
/// overtake car i+1, which acks when driving or nacks when itself engaged in
/// an overtake. Conditional behaviour on every channel.
[[nodiscard]] petri::PetriNet make_overtake(std::size_t n);

/// RW(n): readers/writers over a shared object — reader i takes its own
/// read token, writer i must collect every read token. All start transitions
/// form one conflict clique through the shared tokens, which is why
/// classical partial-order reduction degenerates to the full graph here
/// (the paper's RW observation) while GPO stays constant.
[[nodiscard]] petri::PetriNet make_readers_writers(std::size_t n);

/// Fig. 3 walkthrough net: conflict pair (A, B) on p1; C joins A's two
/// outputs; D joins one output of A with B's output (blocked by conflicting
/// colors).
[[nodiscard]] petri::PetriNet make_fig3();

/// Fig. 5 walkthrough net: A: {p0,p1}->p3, B: {p0,p2}->p4 (conflict on p0).
[[nodiscard]] petri::PetriNet make_fig5();

/// Fig. 7 walkthrough net: conflict pairs {A,B} (on p0) and {C,D} (on p3);
/// firing {C,D} after {A,B} induces the "extended conflict" r2 =
/// {{A,C},{B,D}} of the paper.
[[nodiscard]] petri::PetriNet make_fig7();

/// Milner's cyclic scheduler for n tasks: scheduler cell i starts task i,
/// passes the token to cell i+1, and may only restart task i once it both
/// holds the token again and task i finished. A classic POR benchmark with
/// much concurrency and little conflict; deadlock-free.
[[nodiscard]] petri::PetriNet make_cyclic_scheduler(std::size_t n);

/// Slotted ring protocol with n nodes: one message slot circulates; each
/// node may fill a free slot passing by or consume a full slot addressed to
/// it (a conflict at every node between "use" and "forward"). Deadlock-free.
[[nodiscard]] petri::PetriNet make_slotted_ring(std::size_t n);

struct RandomNetParams {
  std::size_t machines = 3;
  std::size_t states_per_machine = 4;
  std::size_t transitions = 12;
  /// Probability (percent) that a transition synchronizes two machines.
  std::uint32_t sync_percent = 50;
  std::uint64_t seed = 1;
};

/// Random 1-safe net: a product of state machines with one token each and
/// fused (synchronizing) transitions; safe by construction. Used by the
/// cross-engine property tests.
[[nodiscard]] petri::PetriNet make_random_net(const RandomNetParams& params);

/// Builds a model from a "name:size" spec ("nsdp:8", "rw:12", "fig7") — the
/// shared lookup behind `julie --model`, batch manifests and the server's
/// CHECK command. Names: nsdp, asat, over, rw, diamond, chain, cyclic, ring,
/// fig3, fig5, fig7. Returns std::nullopt for an unknown name; throws
/// std::invalid_argument on a malformed size or one the family rejects (see
/// spec_size).
[[nodiscard]] std::optional<petri::PetriNet> make_by_spec(
    const std::string& spec);

/// The size of a "name:size" spec, 0 when there is no ':'. Throws
/// std::invalid_argument unless the name is a known family, the size is a
/// positive decimal, and the family builds a net of that size: nsdp, over,
/// cyclic and ring need >= 2, rw, diamond and chain >= 1, asat a power of
/// two >= 2, and each has an upper bound (nsdp:1260, rw:123, ...: a net of
/// about 2^15 places, transitions and arcs). The figure nets ignore the
/// size. Cheap, and builds nothing, so manifests and the server check every
/// job line with it before accepting the job.
[[nodiscard]] std::size_t spec_size(const std::string& spec);

}  // namespace gpo::models
