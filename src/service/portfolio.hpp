// Engine portfolio: the pluggable racer set behind the verification service.
//
// Each engine of the engine table (src/engine/) is wrapped as an
// EngineRunner — a uniform "net in, deadlock verdict out" closure that
// honours the job's budget, polls its CancelToken and publishes its counters
// into the job's MetricsRegistry under "engine.<name>.". The scheduler races
// several runners per job and cancels
// the rest the moment the first conclusive outcome lands (SMPT-style
// portfolio with early cancellation; the registry keeps the engine set
// pluggable the way LTSmin's frontend/backend split does).
//
// Runners are sequential engines: the service's parallelism comes from
// racing engines and multiplexing jobs over one global pool.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "petri/net.hpp"

namespace gpo::service {

/// Outcome of one racer: the engine table's outcome. `conclusive` is the
/// race-deciding bit.
using engine::EngineOutcome;

/// One engine wrapped for racing. The scheduler fills the request per job:
/// budget, family store, the job's CancelToken and MetricsRegistry, and
/// stop_at_first_deadlock.
using EngineRunner = std::function<EngineOutcome(
    const petri::PetriNet& net, const engine::EngineRequest& request)>;

/// Name -> runner map. The real engines live in the engine table; the map
/// exists so tests can extend the default set with synthetic racers (e.g. a
/// deliberately slow engine for cancellation tests).
class EngineRegistry {
 public:
  /// Registers (or replaces) a runner.
  void add(const std::string& name, EngineRunner runner);
  /// nullptr when `name` is not registered.
  [[nodiscard]] const EngineRunner* find(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::vector<std::pair<std::string, EngineRunner>> entries_;
};

/// Every engine of the engine table (engine::names()), each forwarding to
/// engine::run.
[[nodiscard]] const EngineRegistry& default_engine_registry();

}  // namespace gpo::service
