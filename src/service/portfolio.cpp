#include "service/portfolio.hpp"

#include <utility>

namespace gpo::service {

void EngineRegistry::add(const std::string& name, EngineRunner runner) {
  for (auto& [n, r] : entries_) {
    if (n == name) {
      r = std::move(runner);
      return;
    }
  }
  entries_.emplace_back(name, std::move(runner));
}

const EngineRunner* EngineRegistry::find(const std::string& name) const {
  for (const auto& [n, r] : entries_)
    if (n == name) return &r;
  return nullptr;
}

std::vector<std::string> EngineRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [n, r] : entries_) out.push_back(n);
  return out;
}

const EngineRegistry& default_engine_registry() {
  static const EngineRegistry kRegistry = [] {
    EngineRegistry reg;
    for (const std::string& name : engine::names())
      reg.add(name, [name](const petri::PetriNet& net,
                           const engine::EngineRequest& request) {
        return engine::run(name, net, request);
      });
    return reg;
  }();
  return kRegistry;
}

}  // namespace gpo::service
