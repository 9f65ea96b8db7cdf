#include "models/models.hpp"

#include <optional>
#include <random>
#include <stdexcept>
#include <string>

#include "petri/builder.hpp"
#include "util/parse_number.hpp"

namespace gpo::models {

using petri::NetBuilder;
using petri::PetriNet;
using petri::PlaceId;
using petri::TransitionId;

namespace {
std::string idx(const std::string& base, std::size_t i) {
  return base + "_" + std::to_string(i);
}
}  // namespace

PetriNet make_diamond(std::size_t n) {
  NetBuilder b("diamond" + std::to_string(n));
  for (std::size_t i = 0; i < n; ++i) {
    PlaceId src = b.add_place(idx("src", i), /*marked=*/true);
    PlaceId dst = b.add_place(idx("dst", i));
    TransitionId t = b.add_transition(idx("t", i));
    b.connect(t, {src}, {dst});
  }
  return b.build();
}

PetriNet make_conflict_chain(std::size_t n) {
  NetBuilder b("conflict_chain" + std::to_string(n));
  for (std::size_t i = 0; i < n; ++i) {
    PlaceId p = b.add_place(idx("p", i), /*marked=*/true);
    PlaceId qa = b.add_place(idx("qa", i));
    PlaceId qb = b.add_place(idx("qb", i));
    TransitionId a = b.add_transition(idx("A", i));
    TransitionId t = b.add_transition(idx("B", i));
    b.connect(a, {p}, {qa});
    b.connect(t, {p}, {qb});
  }
  return b.build();
}

PetriNet make_nsdp(std::size_t n) {
  if (n < 2) throw std::invalid_argument("NSDP needs at least 2 philosophers");
  NetBuilder b("nsdp" + std::to_string(n));
  std::vector<PlaceId> think(n), has_l(n), has_r(n), eat(n), fork(n);
  for (std::size_t i = 0; i < n; ++i) {
    think[i] = b.add_place(idx("think", i), /*marked=*/true);
    has_l[i] = b.add_place(idx("hasL", i));
    has_r[i] = b.add_place(idx("hasR", i));
    eat[i] = b.add_place(idx("eat", i));
    fork[i] = b.add_place(idx("fork", i), /*marked=*/true);
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t right = (i + 1) % n;  // philosopher i uses fork[i], fork[i+1]
    TransitionId take_l = b.add_transition(idx("takeL", i));
    b.connect(take_l, {think[i], fork[i]}, {has_l[i]});
    TransitionId take_r = b.add_transition(idx("takeR", i));
    b.connect(take_r, {think[i], fork[right]}, {has_r[i]});
    TransitionId grab_r = b.add_transition(idx("grabR", i));
    b.connect(grab_r, {has_l[i], fork[right]}, {eat[i]});
    TransitionId grab_l = b.add_transition(idx("grabL", i));
    b.connect(grab_l, {has_r[i], fork[i]}, {eat[i]});
    TransitionId release = b.add_transition(idx("release", i));
    b.connect(release, {eat[i]}, {think[i], fork[i], fork[right]});
  }
  return b.build();
}

PetriNet make_arbiter_tree(std::size_t n) {
  if (n < 2 || (n & (n - 1)) != 0)
    throw std::invalid_argument("ASAT needs a power-of-two client count >= 2");
  NetBuilder b("asat" + std::to_string(n));

  // Each tree node k (1-based heap indexing, leaves carry clients) exposes
  // three places towards its parent: req_k, grant_k, done_k.
  std::size_t total = 2 * n - 1;  // internal cells: 1..n-1, leaves: n..2n-1
  std::vector<PlaceId> req(total + 1), grant(total + 1), done(total + 1);
  for (std::size_t k = 1; k <= total; ++k) {
    req[k] = b.add_place(idx("req", k));
    grant[k] = b.add_place(idx("grant", k));
    done[k] = b.add_place(idx("done", k));
  }

  // Clients at the leaves.
  for (std::size_t k = n; k <= total; ++k) {
    PlaceId cl_idle = b.add_place(idx("idle", k), /*marked=*/true);
    PlaceId cl_wait = b.add_place(idx("wait", k));
    PlaceId cl_crit = b.add_place(idx("crit", k));
    TransitionId request = b.add_transition(idx("request", k));
    b.connect(request, {cl_idle}, {cl_wait, req[k]});
    TransitionId enter = b.add_transition(idx("enter", k));
    b.connect(enter, {cl_wait, grant[k]}, {cl_crit});
    TransitionId leave = b.add_transition(idx("leave", k));
    b.connect(leave, {cl_crit}, {cl_idle, done[k]});
  }

  // Internal arbiter cells: forward one child request at a time, remember
  // which child is being served, pass the grant down and the release up.
  for (std::size_t k = 1; k < n; ++k) {
    std::size_t left = 2 * k, right = 2 * k + 1;
    PlaceId cell_idle = b.add_place(idx("cellidle", k), /*marked=*/true);
    PlaceId serv_l = b.add_place(idx("servL", k));
    PlaceId serv_r = b.add_place(idx("servR", k));
    PlaceId hold_l = b.add_place(idx("holdL", k));
    PlaceId hold_r = b.add_place(idx("holdR", k));
    TransitionId fwd_l = b.add_transition(idx("fwdL", k));
    b.connect(fwd_l, {req[left], cell_idle}, {req[k], serv_l});
    TransitionId fwd_r = b.add_transition(idx("fwdR", k));
    b.connect(fwd_r, {req[right], cell_idle}, {req[k], serv_r});
    TransitionId gr_l = b.add_transition(idx("grantL", k));
    b.connect(gr_l, {grant[k], serv_l}, {grant[left], hold_l});
    TransitionId gr_r = b.add_transition(idx("grantR", k));
    b.connect(gr_r, {grant[k], serv_r}, {grant[right], hold_r});
    TransitionId rel_l = b.add_transition(idx("relL", k));
    b.connect(rel_l, {done[left], hold_l}, {done[k], cell_idle});
    TransitionId rel_r = b.add_transition(idx("relR", k));
    b.connect(rel_r, {done[right], hold_r}, {done[k], cell_idle});
  }

  // Root: grants the single token of the shared resource.
  PlaceId root_free = b.add_place("root_free", /*marked=*/true);
  TransitionId root_grant = b.add_transition("root_grant");
  b.connect(root_grant, {req[1], root_free}, {grant[1]});
  TransitionId root_done = b.add_transition("root_done");
  b.connect(root_done, {done[1]}, {root_free});
  return b.build();
}

PetriNet make_overtake(std::size_t n) {
  if (n < 2) throw std::invalid_argument("OVER needs at least 2 cars");
  NetBuilder b("over" + std::to_string(n));
  // One overtake session per car: car i (i < n-1) asks the car ahead for
  // permission to pass; the car ahead acks while driving, nacks while itself
  // asking or when already done. A nacked car retries; a successful pass
  // retires the car to `done`. The bug the protocol exhibits: once the car
  // ahead retires, a pending ack can never come, so a whole chain retiring
  // front-to-back strands the asker — a genuine reachable deadlock.
  std::vector<PlaceId> drive(n), asking(n), passing(n), done(n);
  for (std::size_t i = 0; i < n; ++i) {
    drive[i] = b.add_place(idx("drive", i), /*marked=*/true);
    asking[i] = b.add_place(idx("asking", i));
    passing[i] = b.add_place(idx("passing", i));
    done[i] = b.add_place(idx("done", i));
  }
  // The last car never overtakes; it retires directly.
  TransitionId retire_last = b.add_transition(idx("retire", n - 1));
  b.connect(retire_last, {drive[n - 1]}, {done[n - 1]});

  for (std::size_t i = 0; i + 1 < n; ++i) {
    // Channels between car i and the car ahead of it, i+1.
    PlaceId req = b.add_place(idx("req", i));
    PlaceId ack = b.add_place(idx("ack", i));
    PlaceId nack = b.add_place(idx("nack", i));
    PlaceId busy = b.add_place(idx("busy", i));  // car i+1 held by the pass

    TransitionId ask = b.add_transition(idx("ask", i));
    b.connect(ask, {drive[i]}, {asking[i], req});
    // Car i+1 acks when simply driving; nacks while itself engaged.
    TransitionId do_ack = b.add_transition(idx("ackRsp", i));
    b.connect(do_ack, {req, drive[i + 1]}, {ack, busy});
    TransitionId nack_ask = b.add_transition(idx("nackAsk", i));
    b.connect(nack_ask, {req, asking[i + 1]}, {nack, asking[i + 1]});
    TransitionId pass = b.add_transition(idx("pass", i));
    b.connect(pass, {asking[i], ack}, {passing[i]});
    TransitionId finish = b.add_transition(idx("finish", i));
    b.connect(finish, {passing[i], busy}, {done[i], drive[i + 1]});
    TransitionId retry = b.add_transition(idx("retry", i));
    b.connect(retry, {asking[i], nack}, {drive[i]});
  }
  return b.build();
}

PetriNet make_readers_writers(std::size_t n) {
  if (n < 1) throw std::invalid_argument("RW needs at least 1 process");
  NetBuilder b("rw" + std::to_string(n));
  std::vector<PlaceId> idle(n), reading(n), writing(n), rtok(n);
  for (std::size_t i = 0; i < n; ++i) {
    idle[i] = b.add_place(idx("idle", i), /*marked=*/true);
    reading[i] = b.add_place(idx("reading", i));
    writing[i] = b.add_place(idx("writing", i));
    rtok[i] = b.add_place(idx("rtok", i), /*marked=*/true);
  }
  for (std::size_t i = 0; i < n; ++i) {
    TransitionId start_read = b.add_transition(idx("startR", i));
    b.connect(start_read, {idle[i], rtok[i]}, {reading[i]});
    TransitionId end_read = b.add_transition(idx("endR", i));
    b.connect(end_read, {reading[i]}, {idle[i], rtok[i]});
    TransitionId start_write = b.add_transition(idx("startW", i));
    std::vector<PlaceId> pre{idle[i]};
    for (std::size_t j = 0; j < n; ++j) pre.push_back(rtok[j]);
    b.connect(start_write, pre, {writing[i]});
    TransitionId end_write = b.add_transition(idx("endW", i));
    std::vector<PlaceId> post{idle[i]};
    for (std::size_t j = 0; j < n; ++j) post.push_back(rtok[j]);
    b.connect(end_write, {writing[i]}, post);
  }
  return b.build();
}

PetriNet make_fig3() {
  NetBuilder b("fig3");
  PlaceId p1 = b.add_place("p1", /*marked=*/true);
  PlaceId p2 = b.add_place("p2");
  PlaceId p3 = b.add_place("p3");
  PlaceId p4 = b.add_place("p4");
  PlaceId p5 = b.add_place("p5");
  PlaceId p6 = b.add_place("p6");
  TransitionId a = b.add_transition("A");
  b.connect(a, {p1}, {p2, p3});
  TransitionId t = b.add_transition("B");
  b.connect(t, {p1}, {p4});
  TransitionId c = b.add_transition("C");
  b.connect(c, {p2, p3}, {p5});
  TransitionId d = b.add_transition("D");
  b.connect(d, {p3, p4}, {p6});
  return b.build();
}

PetriNet make_fig5() {
  NetBuilder b("fig5");
  PlaceId p0 = b.add_place("p0", /*marked=*/true);
  PlaceId p1 = b.add_place("p1", /*marked=*/true);
  PlaceId p2 = b.add_place("p2");
  PlaceId p3 = b.add_place("p3");
  PlaceId p4 = b.add_place("p4");
  TransitionId a = b.add_transition("A");
  b.connect(a, {p0, p1}, {p3});
  TransitionId t = b.add_transition("B");
  b.connect(t, {p0, p2}, {p4});
  return b.build();
}

PetriNet make_fig7() {
  NetBuilder b("fig7");
  PlaceId p0 = b.add_place("p0", /*marked=*/true);
  PlaceId p1 = b.add_place("p1");
  PlaceId p2 = b.add_place("p2");
  PlaceId p3 = b.add_place("p3", /*marked=*/true);
  PlaceId p4 = b.add_place("p4");
  PlaceId p5 = b.add_place("p5");
  TransitionId a = b.add_transition("A");
  b.connect(a, {p0}, {p1});
  TransitionId t = b.add_transition("B");
  b.connect(t, {p0}, {p2});
  TransitionId c = b.add_transition("C");
  b.connect(c, {p1, p3}, {p4});
  TransitionId d = b.add_transition("D");
  b.connect(d, {p2, p3}, {p5});
  return b.build();
}

PetriNet make_cyclic_scheduler(std::size_t n) {
  if (n < 2) throw std::invalid_argument("scheduler needs at least 2 cells");
  NetBuilder b("cysched" + std::to_string(n));
  std::vector<PlaceId> tok(n), idle(n), busy(n);
  for (std::size_t i = 0; i < n; ++i) {
    tok[i] = b.add_place(idx("tok", i), /*marked=*/i == 0);
    idle[i] = b.add_place(idx("idle", i), /*marked=*/true);
    busy[i] = b.add_place(idx("busy", i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    TransitionId start = b.add_transition(idx("start", i));
    b.connect(start, {tok[i], idle[i]}, {busy[i], tok[(i + 1) % n]});
    TransitionId finish = b.add_transition(idx("finish", i));
    b.connect(finish, {busy[i]}, {idle[i]});
  }
  return b.build();
}

PetriNet make_slotted_ring(std::size_t n) {
  if (n < 2) throw std::invalid_argument("ring needs at least 2 nodes");
  NetBuilder b("ring" + std::to_string(n));
  // Position i holds exactly one of: no slot (empty), an empty slot (free),
  // a slot carrying a message (full). Node i is ready to send or waiting
  // for its message to come back around.
  std::vector<PlaceId> empty(n), free_slot(n), full(n), ready(n), waiting(n);
  for (std::size_t i = 0; i < n; ++i) {
    bool has_slot = i % 2 == 0;  // ceil(n/2) slots, the rest empty
    empty[i] = b.add_place(idx("empty", i), /*marked=*/!has_slot);
    free_slot[i] = b.add_place(idx("free", i), /*marked=*/has_slot);
    full[i] = b.add_place(idx("full", i));
    ready[i] = b.add_place(idx("ready", i), /*marked=*/true);
    waiting[i] = b.add_place(idx("waiting", i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t next = (i + 1) % n;
    TransitionId move_free = b.add_transition(idx("moveF", i));
    b.connect(move_free, {free_slot[i], empty[next]},
              {empty[i], free_slot[next]});
    TransitionId fill = b.add_transition(idx("fill", i));
    b.connect(fill, {free_slot[i], empty[next], ready[i]},
              {empty[i], full[next], waiting[i]});
    TransitionId move_full = b.add_transition(idx("moveM", i));
    b.connect(move_full, {full[i], empty[next]}, {empty[i], full[next]});
    TransitionId receive = b.add_transition(idx("recv", i));
    b.connect(receive, {full[i], waiting[i]}, {free_slot[i], ready[i]});
  }
  return b.build();
}

PetriNet make_random_net(const RandomNetParams& params) {
  std::mt19937_64 rng(params.seed);
  NetBuilder b("random_" + std::to_string(params.seed));
  std::vector<std::vector<PlaceId>> state(params.machines);
  for (std::size_t m = 0; m < params.machines; ++m) {
    state[m].resize(params.states_per_machine);
    for (std::size_t j = 0; j < params.states_per_machine; ++j) {
      // Built with += (not operator+ chains): GCC 12's -Wrestrict fires a
      // bogus overlap warning on `const char* + std::string&&` at -O3.
      std::string name = "m";
      name += std::to_string(m);
      name += 's';
      name += std::to_string(j);
      state[m][j] = b.add_place(name, /*marked=*/j == 0);
    }
  }
  auto rand_below = [&](std::size_t bound) {
    return std::uniform_int_distribution<std::size_t>(0, bound - 1)(rng);
  };
  for (std::size_t t = 0; t < params.transitions; ++t) {
    bool sync = params.machines >= 2 &&
                rand_below(100) < params.sync_percent;
    std::size_t m1 = rand_below(params.machines);
    std::vector<PlaceId> pre{state[m1][rand_below(params.states_per_machine)]};
    std::vector<PlaceId> post{
        state[m1][rand_below(params.states_per_machine)]};
    if (sync) {
      std::size_t m2 = rand_below(params.machines - 1);
      if (m2 >= m1) ++m2;
      pre.push_back(state[m2][rand_below(params.states_per_machine)]);
      post.push_back(state[m2][rand_below(params.states_per_machine)]);
    }
    // Skip degenerate duplicates (same pre twice etc. cannot occur since the
    // two machines are distinct; identical pre/post self-loops are fine).
    std::string tname = "t";
    tname += std::to_string(t);
    TransitionId tr = b.add_transition(tname);
    b.connect(tr, pre, post);
  }
  return b.build();
}

std::size_t spec_size(const std::string& spec) {
  auto colon = spec.find(':');
  if (colon == std::string::npos) return 0;
  auto n = util::parse_number<std::size_t>(
      std::string_view(spec).substr(colon + 1));
  if (!n || *n == 0)
    throw std::invalid_argument("model '" + spec +
                                "': size must be a positive decimal");
  return *n;
}

std::optional<petri::PetriNet> make_by_spec(const std::string& spec) {
  std::string name = spec.substr(0, spec.find(':'));
  std::size_t n = spec_size(spec);
  if (name == "nsdp") return make_nsdp(n);
  if (name == "asat") return make_arbiter_tree(n);
  if (name == "over") return make_overtake(n);
  if (name == "rw") return make_readers_writers(n);
  if (name == "diamond") return make_diamond(n);
  if (name == "chain") return make_conflict_chain(n);
  if (name == "cyclic") return make_cyclic_scheduler(n);
  if (name == "ring") return make_slotted_ring(n);
  if (name == "fig3") return make_fig3();
  if (name == "fig5") return make_fig5();
  if (name == "fig7") return make_fig7();
  return std::nullopt;
}

}  // namespace gpo::models
