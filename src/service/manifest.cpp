#include "service/manifest.hpp"

#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "engine/engine.hpp"
#include "models/models.hpp"
#include "reduce/reduce.hpp"
#include "util/parse_number.hpp"

namespace gpo::service {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) pos = s.size();
    if (pos > start) out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

/// "line N: what"; parse_manifest() puts "manifest " in front, so a serve
/// CHECK reply names its session line and a manifest error its file line.
[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  if (line_no == 0) throw ManifestError(what);
  throw ManifestError("line " + std::to_string(line_no) + ": " + what);
}

}  // namespace

const std::vector<std::string>& default_portfolio() {
  static const std::vector<std::string> kDefault = {"por", "gpo-intern", "bdd",
                                                    "unfold"};
  return kDefault;
}

JobSpec parse_job_line(const std::string& line, std::size_t line_no) {
  std::istringstream in(line);
  JobSpec spec;
  spec.line = line_no;
  if (!(in >> spec.model)) fail(line_no, "missing model");
  // A built-in spec's name and size are checked here, without building the
  // net, so an unknown family or a size it rejects is a parse error (ERR on
  // serve, exit 2 for a manifest) rather than a failed job; net files load
  // later.
  if (!spec.model.ends_with(".net") && !spec.model.ends_with(".pnml")) {
    try {
      (void)models::spec_size(spec.model);
    } catch (const std::invalid_argument& e) {
      fail(line_no, e.what());
    }
  }
  std::string field;
  while (in >> field) {
    std::size_t eq = field.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= field.size())
      fail(line_no, "malformed field '" + field + "' (want key=value)");
    std::string key = field.substr(0, eq);
    std::string value = field.substr(eq + 1);
    if (key == "engines") {
      spec.engines = split(value, ',');
      if (spec.engines.empty()) fail(line_no, "engines= names no engine");
      for (const std::string& e : spec.engines)
        if (!engine::is_engine(e))
          fail(line_no, "unknown engine '" + e + "'");
    } else if (key == "max-seconds") {
      auto secs = util::parse_number<double>(value);
      if (!secs || *secs == 0)
        fail(line_no, "max-seconds must be a positive number, got '" +
                          value + "'");
      spec.max_seconds = *secs;
    } else if (key == "max-states") {
      auto n = util::parse_number<std::size_t>(value);
      if (!n || *n == 0)
        fail(line_no, "max-states must be a positive decimal, got '" +
                          value + "'");
      spec.max_states = *n;
    } else if (key == "family-store") {
      if (value != "explicit" && value != "zdd")
        fail(line_no,
             "family-store must be explicit or zdd, got '" + value + "'");
      spec.family_store = value;
    } else if (key == "reduce") {
      if (!reduce::parse_reduce_level(value))
        fail(line_no, "reduce must be off, safe or aggressive, got '" +
                          value + "'");
      spec.reduce = value;
    } else if (key == "expect") {
      if (value != "deadlock" && value != "no-deadlock")
        fail(line_no, "expect must be deadlock or no-deadlock, got '" +
                          value + "'");
      spec.expect = value;
    } else {
      fail(line_no, "unknown key '" + key + "'");
    }
  }
  return spec;
}

Manifest parse_manifest(std::istream& in) {
  Manifest m;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    std::size_t last = line.find_last_not_of(" \t\r");
    std::string trimmed = line.substr(first, last - first + 1);
    try {
      // Manifest-level directive, not a job: the event-log destination.
      if (trimmed.compare(0, 7, "events=") == 0) {
        if (trimmed.size() == 7) fail(line_no, "events= names no file");
        m.events_path = trimmed.substr(7);
        continue;
      }
      m.jobs.push_back(parse_job_line(line, line_no));
    } catch (const ManifestError& e) {
      throw ManifestError(std::string("manifest ") + e.what());
    }
  }
  return m;
}

Manifest parse_manifest_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ManifestError("cannot read manifest '" + path + "'");
  return parse_manifest(in);
}

}  // namespace gpo::service
