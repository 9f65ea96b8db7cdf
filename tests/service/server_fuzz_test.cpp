// Line fuzzer for the serve protocol: fixed-seed mutations of valid CHECK
// lines (dropped, duplicated and swapped tokens, empty keys, huge and
// negative numbers, NUL and 0xFF bytes, specs no family builds, sizes up to
// 64), mixed with STATS/JOBS/HEALTH, driven through the in-process server
// with an engine that answers at once. Whatever the bytes, the session must
// keep the protocol: exactly one reply per non-blank request line, one
// VERDICT per JOB, and a BYE that counts the JOBs.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "service/portfolio.hpp"
#include "service/server.hpp"

namespace gpo::service {
namespace {

/// Every engine of the engine table, each answering "no-deadlock" at once:
/// the fuzzer exercises the protocol and the scheduler, not the search.
EngineRegistry instant_engines() {
  EngineRegistry reg;
  for (const std::string& name : engine::names())
    reg.add(name, [](const petri::PetriNet&, const engine::EngineRequest&) {
      EngineOutcome out;
      out.verdict = "no-deadlock";
      out.conclusive = true;
      return out;
    });
  return reg;
}

const std::vector<std::string> kValidChecks = {
    "CHECK fig7",
    "CHECK nsdp:3 engines=por,bdd expect=deadlock",
    "CHECK rw:4 max-seconds=5 max-states=1000",
    "CHECK asat:4 engines=gpo family-store=zdd",
    "CHECK over:3 reduce=safe expect=no-deadlock",
    "CHECK ring:3 engines=gpo-intern,unfold family-store=explicit",
    "CHECK missing.net engines=por",
};

const std::vector<std::string> kOddTokens = {
    "asat:3", "over:1", "nsdp:1", "foo:3", ":5", "", "=", "engines=", "=5",
    "max-states=99999999999999999999999", "max-seconds=-5",
    "max-states=-1", "max-seconds=1e309", "nsdp:0",
    "nsdp:99999999999999999999", "x.pnml", "expect=", "reduce=aggressive",
    std::string("fig\0" "7", 5), "\xff", "\xff\xfe", "CHECK", "STATS",
    "QUITE", "engines=por,,bdd", "family-store=bdd",
};

const std::vector<std::string> kFamilies = {
    "nsdp", "asat", "over", "rw", "ring", "cyclic", "diamond", "chain"};

class LineMutator {
 public:
  explicit LineMutator(std::uint64_t seed) : rng_(seed) {}

  /// The next request line of the session.
  std::string next() {
    const std::size_t roll = pick(100);
    if (roll < 5) return pick(2) == 0 ? "" : "  \t ";
    if (roll < 20) {
      static const char* kVerbs[] = {"STATS", "JOBS", "HEALTH"};
      return kVerbs[pick(3)];
    }
    std::vector<std::string> tokens =
        split(kValidChecks[pick(kValidChecks.size())]);
    if (roll >= 30) {
      const std::size_t ops = 1 + pick(3);
      for (std::size_t k = 0; k < ops; ++k) mutate(tokens);
    }
    std::string line;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (i > 0) line += pick(8) == 0 ? "\t " : " ";
      line += tokens[i];
    }
    return line;
  }

 private:
  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

  static std::vector<std::string> split(const std::string& line) {
    std::vector<std::string> out;
    std::istringstream words(line);
    for (std::string w; words >> w;) out.push_back(w);
    return out;
  }

  void mutate(std::vector<std::string>& tokens) {
    if (tokens.empty()) {
      tokens.push_back(kOddTokens[pick(kOddTokens.size())]);
      return;
    }
    std::string& t = tokens[pick(tokens.size())];
    switch (pick(9)) {
      case 0:  // drop a token
        tokens.erase(tokens.begin() +
                     static_cast<std::ptrdiff_t>(pick(tokens.size())));
        break;
      case 1: {  // duplicate a token
        std::string copy = t;
        tokens.insert(tokens.begin() +
                          static_cast<std::ptrdiff_t>(pick(tokens.size())),
                      copy);
        break;
      }
      case 2:  // swap two tokens
        std::swap(t, tokens[pick(tokens.size())]);
        break;
      case 3:
        t = kOddTokens[pick(kOddTokens.size())];
        break;
      case 4:
        tokens.insert(tokens.begin() +
                          static_cast<std::ptrdiff_t>(pick(tokens.size() + 1)),
                      kOddTokens[pick(kOddTokens.size())]);
        break;
      case 5:  // a built-in spec of size <= 64, valid or not for its family
        if (tokens.size() > 1)
          tokens[1] = kFamilies[pick(kFamilies.size())] + ":" +
                      std::to_string(pick(65));
        break;
      case 6:  // empty key
        if (auto eq = t.find('='); eq != std::string::npos) t.erase(0, eq);
        break;
      case 7: {  // a NUL or 0xFF byte inside a token
        const char byte = pick(2) == 0 ? '\0' : '\xff';
        t.insert(t.begin() + static_cast<std::ptrdiff_t>(pick(t.size() + 1)),
                 byte);
        break;
      }
      case 8:  // a huge or negative number after the '=' or ':'
        if (auto cut = t.find_first_of("=:"); cut != std::string::npos)
          t = t.substr(0, cut + 1) +
              (pick(2) == 0 ? "184467440737095516160" : "-7");
        break;
    }
  }

  std::mt19937_64 rng_;
};

bool is_blank(const std::string& line) {
  return line.find_first_not_of(" \t\r\v\f") == std::string::npos;
}

/// The reply prefix a request line must get: the first word picks it, and a
/// CHECK gets "JOB " or "ERR " (an empty result means either).
std::string expected_reply(const std::string& line) {
  std::istringstream words(line);
  std::string verb;
  words >> verb;
  if (verb == "STATS" || verb == "JOBS" || verb == "HEALTH")
    return verb + " ";
  if (verb == "CHECK") return "";
  return "ERR ";
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

TEST(ServerFuzz, MutatedLinesKeepTheProtocol) {
  const EngineRegistry engines = instant_engines();
  std::size_t total_jobs = 0, total_errs = 0;
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    LineMutator mutator(seed);
    std::vector<std::string> requests;
    for (int i = 0; i < 200; ++i) requests.push_back(mutator.next());
    std::string input;
    for (const std::string& r : requests) input += r + "\n";

    std::istringstream in(input);
    std::ostringstream out;
    ServerOptions options;
    options.registry = &engines;
    options.pool_threads = 2;
    const std::size_t served = serve(in, out, options);

    std::vector<std::string> replies;  // every line but READY/VERDICT/BYE
    std::map<std::size_t, int> verdicts_per_job;
    std::vector<std::size_t> job_ids;
    std::string bye;
    std::istringstream reader(out.str());
    std::string line;
    bool first = true;
    while (std::getline(reader, line)) {
      if (first) {
        EXPECT_TRUE(starts_with(line, "READY ")) << line;
        first = false;
      } else if (starts_with(line, "VERDICT ")) {
        ++verdicts_per_job[std::stoul(line.substr(8))];
      } else if (starts_with(line, "BYE ")) {
        EXPECT_TRUE(bye.empty()) << "a second BYE";
        bye = line;
      } else {
        EXPECT_TRUE(bye.empty()) << "a reply after BYE: " << line;
        replies.push_back(line);
        if (starts_with(line, "JOB "))
          job_ids.push_back(std::stoul(line.substr(4)));
      }
    }

    std::vector<const std::string*> asked;
    for (const std::string& r : requests)
      if (!is_blank(r)) asked.push_back(&r);
    ASSERT_EQ(replies.size(), asked.size()) << "seed " << seed;
    for (std::size_t i = 0; i < asked.size(); ++i) {
      const std::string want = expected_reply(*asked[i]);
      const std::string& got = replies[i];
      if (want.empty())
        EXPECT_TRUE(starts_with(got, "JOB ") || starts_with(got, "ERR "))
            << "seed " << seed << " request '" << *asked[i] << "' -> " << got;
      else
        EXPECT_TRUE(starts_with(got, want))
            << "seed " << seed << " request '" << *asked[i] << "' -> " << got;
    }

    for (std::size_t i = 0; i < job_ids.size(); ++i) {
      EXPECT_EQ(job_ids[i], i) << "job ids are dense, in submission order";
      EXPECT_EQ(verdicts_per_job[job_ids[i]], 1) << "seed " << seed
                                                  << " job " << job_ids[i];
    }
    EXPECT_EQ(verdicts_per_job.size(), job_ids.size())
        << "seed " << seed << ": a VERDICT for a job never acked";
    EXPECT_EQ(bye, "BYE " + std::to_string(job_ids.size())) << "seed " << seed;
    EXPECT_EQ(served, job_ids.size());
    total_jobs += job_ids.size();
    for (const std::string& r : replies) total_errs += starts_with(r, "ERR ");
  }
  // The mix must reach both sides of the parser to mean anything.
  EXPECT_GT(total_jobs, 50u);
  EXPECT_GT(total_errs, 50u);
}

}  // namespace
}  // namespace gpo::service
