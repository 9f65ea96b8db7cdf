#include "por/stubborn.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

#include "reach/search.hpp"

namespace gpo::por {

using petri::Marking;
using petri::PlaceId;
using petri::TransitionId;

namespace {

/// The stubborn closure with its scratch, reused across the markings of one
/// search. Membership (`in_set_`) and enabledness (`is_enabled_`) are epoch
/// stamps, so neither a new closure nor a new marking clears an array; the
/// work, out and best vectors keep their capacity. An instance belongs to
/// one search frame and is never shared between threads.
class StubbornClosure {
 public:
  StubbornClosure(const petri::PetriNet& net,
                  const petri::ConflictInfo& conflicts)
      : net_(net),
        conflicts_(conflicts),
        in_set_(net.transition_count(), 0),
        is_enabled_(net.transition_count(), 0) {
    // Conflict neighbours as flat lists: a closure visits each member once,
    // and scanning its neighbour bitset would cost |T|/64 words per visit.
    const std::size_t nt = net.transition_count();
    neighbor_begin_.reserve(nt + 1);
    for (std::size_t t = 0; t < nt; ++t) {
      neighbor_begin_.push_back(neighbors_.size());
      const util::Bitset& nb =
          conflicts.neighbors(static_cast<TransitionId>(t));
      for (std::size_t u = nb.find_first(); u < nt; u = nb.find_next(u + 1))
        neighbors_.push_back(static_cast<TransitionId>(u));
    }
    neighbor_begin_.push_back(neighbors_.size());
  }

  /// Starts a new marking `m` whose enabled transitions are `enabled`.
  void set_marking(const Marking& m, const std::vector<TransitionId>& enabled) {
    m_ = &m;
    marking_epoch_ = next_epoch(marking_epoch_, is_enabled_);
    for (TransitionId t : enabled) is_enabled_[t] = marking_epoch_;
  }

  /// Closes `seeds` under (D1)/(D2) at the current marking and collects the
  /// closure's enabled members into out(), in discovery order. Gives up as
  /// soon as `limit` enabled members are in: the enabled count only grows.
  /// Returns true when the closure completed below `limit`.
  bool close(std::span<const TransitionId> seeds, std::size_t limit) {
    set_epoch_ = next_epoch(set_epoch_, in_set_);
    work_.clear();
    out_.clear();
    for (TransitionId t : seeds) add(t);
    while (!work_.empty()) {
      if (out_.size() >= limit) return false;
      const TransitionId t = work_.back();
      work_.pop_back();
      if (is_enabled_[t] == marking_epoch_) {
        // (D2) everything that could steal a token from •t must be inside.
        for (std::size_t i = neighbor_begin_[t]; i < neighbor_begin_[t + 1];
             ++i)
          add(neighbors_[i]);
      } else {
        // (D1) pick the unmarked input place with the fewest producers as
        // the scapegoat; all its producers join the set.
        PlaceId scapegoat = petri::kInvalidPlace;
        std::size_t best = SIZE_MAX;
        for (PlaceId p : net_.transition(t).pre) {
          if (m_->test(p)) continue;
          if (net_.place(p).pre.size() < best) {
            best = net_.place(p).pre.size();
            scapegoat = p;
          }
        }
        // `t` is disabled, so an unmarked input place exists.
        for (TransitionId producer : net_.place(scapegoat).pre) add(producer);
      }
    }
    return out_.size() < limit;
  }

  /// The enabled members of the last closure.
  [[nodiscard]] std::vector<TransitionId>& out() { return out_; }

  /// The enabled transitions of the stubborn set `strategy` selects at `m`,
  /// ascending; `enabled` are m's enabled transitions, ascending.
  const std::vector<TransitionId>& ample_set(
      const Marking& m, const std::vector<TransitionId>& enabled,
      SeedStrategy strategy) {
    if (enabled.empty()) return enabled;
    set_marking(m, enabled);
    switch (strategy) {
      case SeedStrategy::kFirstEnabled:
        close({&enabled.front(), 1}, SIZE_MAX);
        best_.swap(out_);
        break;
      case SeedStrategy::kWholeConflictSet:
        close(conflicts_.components()[conflicts_.component_of(
                  enabled.front())],
              SIZE_MAX);
        best_.swap(out_);
        break;
      case SeedStrategy::kBestOverSeeds:
        // The first seed whose set has strictly the fewest enabled
        // transitions wins, so a seed's closure can stop once it ties the
        // best so far: it can no longer win.
        best_.clear();
        for (const TransitionId& seed : enabled) {
          if (close({&seed, 1}, best_.empty() ? SIZE_MAX : best_.size()))
            best_.swap(out_);
          if (best_.size() == 1) break;  // cannot do better
        }
        break;
    }
    std::sort(best_.begin(), best_.end());
    return best_;
  }

 private:
  void add(TransitionId t) {
    if (in_set_[t] == set_epoch_) return;
    in_set_[t] = set_epoch_;
    work_.push_back(t);
    if (is_enabled_[t] == marking_epoch_) out_.push_back(t);
  }

  /// The epoch after `epoch`; on wrap-around the stamps are cleared so no
  /// stale stamp can equal a fresh epoch.
  static std::uint32_t next_epoch(std::uint32_t epoch,
                                  std::vector<std::uint32_t>& stamps) {
    if (++epoch == 0) {
      std::fill(stamps.begin(), stamps.end(), 0);
      epoch = 1;
    }
    return epoch;
  }

  const petri::PetriNet& net_;
  const petri::ConflictInfo& conflicts_;
  std::vector<std::size_t> neighbor_begin_;  // CSR offsets into neighbors_
  std::vector<TransitionId> neighbors_;
  const Marking* m_ = nullptr;
  std::uint32_t set_epoch_ = 0;
  std::uint32_t marking_epoch_ = 0;
  std::vector<std::uint32_t> in_set_;      // == set_epoch_: in the closure
  std::vector<std::uint32_t> is_enabled_;  // == marking_epoch_: enabled at m_
  std::vector<TransitionId> work_;
  std::vector<TransitionId> out_;
  std::vector<TransitionId> best_;
};

}  // namespace

std::vector<TransitionId> stubborn_enabled_set(
    const petri::PetriNet& net, const petri::ConflictInfo& conflicts,
    const Marking& m, const std::vector<TransitionId>& seeds) {
  StubbornClosure closure(net, conflicts);
  closure.set_marking(m, net.enabled_transitions(m));
  closure.close(seeds, SIZE_MAX);
  std::vector<TransitionId> enabled = std::move(closure.out());
  std::sort(enabled.begin(), enabled.end());
  return enabled;
}

StubbornExplorer::StubbornExplorer(const petri::PetriNet& net,
                                   StubbornOptions options)
    : net_(net), conflicts_(net), options_(options) {}

reach::ExplorerResult StubbornExplorer::explore() const {
  StubbornClosure closure(net_, conflicts_);
  return reach::breadth_first_search(
      net_, {net_.initial_marking()}, options_, "reduced-search",
      [this, &closure](const Marking& m,
                       const std::vector<TransitionId>& enabled)
          -> const std::vector<TransitionId>& {
        return closure.ample_set(m, enabled, options_.strategy);
      },
      [this](const Marking& m) {
        return net_.is_deadlocked(m) &&
               (!options_.deadlock_filter || options_.deadlock_filter(m));
      });
}

}  // namespace gpo::por
