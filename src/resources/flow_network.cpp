#include "resources/flow_network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace rcmp::res {

namespace detail {
void hop_list_overflow() {
  throw InvariantError("hop list overflow: a path may cross at most " +
                       std::to_string(kMaxHops) + " links");
}
}  // namespace detail

namespace {
// A flow is considered drained when fewer than this many bytes remain;
// absorbs floating-point drift from repeated rate changes.
constexpr double kDrainEpsilon = 1e-3;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr LinkId kNoLink = 0xffffffffu;
}  // namespace

LinkId FlowNetwork::add_link(LinkSpec spec) {
  RCMP_CHECK_MSG(spec.capacity > 0.0, "link capacity must be positive");
  RCMP_CHECK(spec.contention_alpha >= 0.0);
  links_.push_back(Link{std::move(spec), {}});
  links_.back().flows.reserve(4);
  comp_mask_.resize((links_.size() + 63) / 64);
  return static_cast<LinkId>(links_.size() - 1);
}

void FlowNetwork::reserve(std::size_t links, std::size_t flows) {
  links_.reserve(links);
  flows_.reserve(flows);
  hot_.reserve(flows);
  cand_heap_.reserve(flows);
  scratch_rem_.reserve(links);
  scratch_unfrozen_.reserve(links);
  comp_links_.reserve(links);
  round_.reserve(flows);
  dirty_links_.reserve(links);
  batch_.reserve(flows);
  drained_now_.reserve(flows);
  seed_links_.reserve(links);
}

void FlowNetwork::set_link_capacity(LinkId id, Rate capacity) {
  RCMP_CHECK(id < links_.size());
  RCMP_CHECK(capacity > 0.0);
  links_[id].spec.capacity = capacity;
  // Component flows advance at their pre-change rates inside the
  // reallocation before the new capacity takes effect (both happen at
  // this instant, so the deferred flush is exact).
  mark_dirty(&id, 1);
}

Rate FlowNetwork::link_capacity(LinkId id) const {
  RCMP_CHECK(id < links_.size());
  return links_[id].spec.capacity;
}

Rate FlowNetwork::link_effective_capacity(LinkId id) const {
  RCMP_CHECK(id < links_.size());
  const Link& l = links_[id];
  const double k = l.weighted_streams;
  if (k <= 1.0 || l.spec.contention_alpha == 0.0) return l.spec.capacity;
  const double threshold = std::max(1.0, l.spec.contention_threshold);
  const double excess = k / threshold;
  if (excess <= 1.0) return l.spec.capacity;
  return l.spec.capacity /
         (1.0 + l.spec.contention_alpha * std::log(excess));
}

Rate FlowNetwork::effective_capacity(LinkId l) {
  Link& link = links_[l];
  if (link.eff_streams != link.weighted_streams ||
      link.eff_base != link.spec.capacity) {
    link.eff_streams = link.weighted_streams;
    link.eff_base = link.spec.capacity;
    link.eff = link_effective_capacity(l);
  }
  return link.eff;
}

double FlowNetwork::link_pressure(LinkId id) const {
  RCMP_CHECK(id < links_.size());
  const double streams = links_[id].weighted_streams + 1.0;
  return streams / link_effective_capacity(id);
}

std::uint32_t FlowNetwork::decode(FlowId id) const {
  if (id == kInvalidFlow || (id & kEphemeralBit) != 0) return kNoSlot;
  const auto low = static_cast<std::uint32_t>(id);
  if (low == 0) return kNoSlot;
  const std::uint32_t slot = low - 1;
  if (slot >= flows_.size()) return kNoSlot;
  const Flow& f = flows_[slot];
  const auto gen = static_cast<std::uint32_t>(id >> 32) & 0x7fffffffu;
  if (!f.active || (f.gen & 0x7fffffffu) != gen) return kNoSlot;
  return slot;
}

std::uint32_t FlowNetwork::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = flows_[slot].next_free;
    return slot;
  }
  flows_.emplace_back();
  hot_.emplace_back();
  return static_cast<std::uint32_t>(flows_.size() - 1);
}

void FlowNetwork::release_slot(std::uint32_t slot) {
  Flow& f = flows_[slot];
  f.active = false;
  ++f.gen;  // invalidate outstanding FlowIds and completion candidates
  f.on_complete = nullptr;
  f.hops.clear();
  f.next_free = free_head_;
  free_head_ = slot;
  --active_count_;
}

FlowId FlowNetwork::start_flow(FlowSpec spec) {
  for (LinkId l : spec.path) RCMP_CHECK(l < links_.size());
  RCMP_CHECK_MSG(spec.weights.empty() ||
                     spec.weights.size() == spec.path.size(),
                 "weights must align with path");
  for (double w : spec.weights) RCMP_CHECK(w > 0.0);

  if (spec.bytes == 0 || spec.path.empty()) {
    // Nothing to transfer through the network (zero bytes, or a pure
    // latency flow with no links): complete after the tail latency
    // alone, via the event queue so callbacks never reenter the caller.
    if (spec.on_complete) {
      sim_.schedule_after(spec.tail_latency, std::move(spec.on_complete));
    }
    return kEphemeralBit | next_ephemeral_++;
  }

  const std::uint32_t slot = acquire_slot();
  Flow& f = flows_[slot];
  FlowHot& h = hot_[slot];
  f.active = true;
  f.tail_latency = spec.tail_latency;
  f.start_seq = next_start_seq_++;
  f.on_complete = std::move(spec.on_complete);
  h.remaining = static_cast<double>(spec.bytes);
  h.rate = 0.0;
  h.updated_at = sim_.now();
  h.stamp = 0;
  h.visit_epoch = 0;
  for (std::size_t i = 0; i < spec.path.size(); ++i) {
    const LinkId l = spec.path[i];
    const double weight = spec.weights.empty() ? 1.0 : spec.weights[i];
    Link& link = links_[l];
    f.hops.push_back(
        Hop{l, static_cast<std::uint32_t>(link.flows.size()), weight});
    link.flows.push_back(LinkRef{slot, static_cast<std::uint32_t>(i)});
    link.weighted_streams += weight;
  }
  ++active_count_;
  // The flow connects every link on its path, so this is one component.
  mark_dirty(spec.path.data(), spec.path.size());
  return make_id(slot, f.gen);
}

void FlowNetwork::cancel_flow(FlowId id) {
  const std::uint32_t slot = decode(id);
  if (slot == kNoSlot) return;
  Flow& f = flows_[slot];
  for (const Hop& hp : f.hops) dirty_links_.push_back(hp.link);
  mark_dirty(nullptr, 0);  // ensure the flush is queued
  detach_from_links(slot);
  release_slot(slot);  // generation bump voids any completion candidate
}

Rate FlowNetwork::flow_rate(FlowId id) const {
  // Deferred reallocations must land before rates are observed.
  const_cast<FlowNetwork*>(this)->flush_dirty();
  const std::uint32_t slot = decode(id);
  return slot == kNoSlot ? 0.0 : hot_[slot].rate;
}

double FlowNetwork::flow_remaining(FlowId id) const {
  const_cast<FlowNetwork*>(this)->flush_dirty();
  const std::uint32_t slot = decode(id);
  // Exact mid-interval: progress since the last rate change is applied.
  return slot == kNoSlot ? 0.0 : remaining_at(hot_[slot], sim_.now());
}

std::vector<std::string> FlowNetwork::audit() {
  flush_dirty();  // rates must be committed before they are judged
  std::vector<std::string> out;
  const SimTime now = sim_.now();
  // Relative slack for rate comparisons: rates come out of one
  // progressive-filling division each, so drift is tiny; the slack only
  // absorbs the capacity-subtraction arithmetic of multi-round fills.
  constexpr double kRel = 1e-6;
  constexpr double kAbs = 1e-3;  // bytes/s; rates are O(1e8)

  for (LinkId l = 0; l < static_cast<LinkId>(links_.size()); ++l) {
    const Link& link = links_[l];
    double streams = 0.0;
    double load = 0.0;
    for (const LinkRef& r : link.flows) {
      if (!flows_[r.flow_slot].active) {
        std::ostringstream os;
        os << "link " << link.spec.name << ": stale occurrence of "
           << "inactive flow slot " << r.flow_slot;
        out.push_back(os.str());
        continue;
      }
      const Hop& hp = flows_[r.flow_slot].hops[r.path_pos];
      streams += hp.weight;
      load += hp.weight * std::max(0.0, hot_[r.flow_slot].rate);
    }
    if (std::abs(streams - link.weighted_streams) > 1e-6) {
      std::ostringstream os;
      os << "link " << link.spec.name << ": weighted stream count drifted: "
         << "incremental=" << link.weighted_streams
         << " recount=" << streams;
      out.push_back(os.str());
    }
    const double cap = link_effective_capacity(l);
    if (load > cap * (1.0 + kRel) + kAbs) {
      std::ostringstream os;
      os << "link " << link.spec.name << ": oversubscribed: allocated "
         << load << " B/s > effective capacity " << cap << " B/s";
      out.push_back(os.str());
    }
  }

  // Max-min (progressive filling) certificate: every flow still moving
  // bytes is frozen on a bottleneck link — one that is fully subscribed
  // and on which it receives the maximal rate.
  for (std::uint32_t slot = 0;
       slot < static_cast<std::uint32_t>(flows_.size()); ++slot) {
    const Flow& f = flows_[slot];
    if (!f.active) continue;
    const FlowHot& h = hot_[slot];
    if (remaining_at(h, now) <= kDrainEpsilon) continue;  // completing
    if (!(h.rate > 0.0)) {
      std::ostringstream os;
      os << "flow slot " << slot << ": active with "
         << remaining_at(h, now) << " bytes left but rate " << h.rate;
      out.push_back(os.str());
      continue;
    }
    bool bottleneck_found = false;
    for (const Hop& hp : f.hops) {
      const Link& link = links_[hp.link];
      double load = 0.0;
      double max_rate = 0.0;
      for (const LinkRef& r : link.flows) {
        const Hop& other = flows_[r.flow_slot].hops[r.path_pos];
        const double rate = std::max(0.0, hot_[r.flow_slot].rate);
        load += other.weight * rate;
        if (rate > max_rate) max_rate = rate;
      }
      const double cap = link_effective_capacity(hp.link);
      const bool saturated = load >= cap * (1.0 - kRel) - kAbs;
      const bool maximal = h.rate >= max_rate * (1.0 - kRel) - kAbs;
      if (saturated && maximal) {
        bottleneck_found = true;
        break;
      }
    }
    if (!bottleneck_found) {
      std::ostringstream os;
      os << "flow slot " << slot << ": rate " << h.rate
         << " B/s is not max-min fair: no fully-subscribed link on its "
         << "path gives it the maximal share";
      out.push_back(os.str());
    }
  }
  return out;
}

void FlowNetwork::mark_dirty(const LinkId* ids, std::size_t n) {
  dirty_links_.insert(dirty_links_.end(), ids, ids + n);
  if (flush_event_ == sim::kInvalidEvent) {
    // Fires at this very instant, after every mutation already queued
    // for it (FIFO within an instant), and before time advances — so
    // rates and the completion target are fixed exactly once per
    // instant no matter how many flows start or finish in it.
    flush_event_ = sim_.schedule_at(sim_.now(), [this] {
      flush_event_ = sim::kInvalidEvent;
      flush_dirty();
    });
  }
}

void FlowNetwork::apply_dirty() {
  if (dirty_links_.empty()) return;
  if (flush_event_ != sim::kInvalidEvent) {
    sim_.cancel(flush_event_);
    flush_event_ = sim::kInvalidEvent;
  }
  reallocate(dirty_links_);
  dirty_links_.clear();
}

void FlowNetwork::flush_dirty() {
  if (dirty_links_.empty()) return;
  apply_dirty();
  reschedule_completion();
}

void FlowNetwork::detach_from_links(std::uint32_t slot) {
  Flow& f = flows_[slot];
  for (std::size_t i = 0; i < f.hops.size(); ++i) {
    const Hop& hp = f.hops[i];
    Link& link = links_[hp.link];
    const std::uint32_t pos = hp.pos;
    RCMP_CHECK(pos < link.flows.size() &&
               link.flows[pos].flow_slot == slot);
    const LinkRef moved = link.flows.back();
    link.flows[pos] = moved;
    link.flows.pop_back();
    if (moved.flow_slot != slot || moved.path_pos != i) {
      // Keep the displaced occurrence's back-pointer accurate (it may
      // be another hop of this same flow — a double-crossing).
      flows_[moved.flow_slot].hops[moved.path_pos].pos = pos;
    }
    link.weighted_streams =
        std::max(0.0, link.weighted_streams - hp.weight);
  }
}

void FlowNetwork::reallocate(const std::vector<LinkId>& seeds) {
  drained_now_.clear();
  if (++epoch_ == 0) {  // wrapped: clear stale marks once
    for (auto& l : links_) l.visit_epoch = 0;
    for (auto& h : hot_) h.visit_epoch = 0;
    epoch_ = 1;
  }
  // Seeds may span several disjoint components (a completion batch
  // frees capacity on unrelated links). Each component gets its own
  // pass — and its own completion candidate, so no component's earliest
  // finish is shadowed by a neighbour's.
  for (LinkId l : seeds) {
    if (links_[l].visit_epoch != epoch_) reallocate_one_component(l);
  }
}

void FlowNetwork::reallocate_one_component(LinkId seed) {
  ++reallocations_;
  const SimTime now = sim_.now();

  // BFS over the link-sharing graph: alternately expand links -> flows
  // crossing them -> links on those flows' paths. Everything outside
  // this component shares no link with it, so its max-min rates are
  // unaffected and stay untouched (bit-for-bit).
  comp_links_.clear();
  std::size_t comp_flow_count = 0;
  links_[seed].visit_epoch = epoch_;
  comp_links_.push_back(seed);
  comp_mask_[seed / 64] |= std::uint64_t{1} << (seed % 64);
  for (std::size_t qi = 0; qi < comp_links_.size(); ++qi) {
    // Note: comp_links_ grows during iteration (it is the BFS queue).
    const Link& link = links_[comp_links_[qi]];
    for (const LinkRef& r : link.flows) {
      FlowHot& h = hot_[r.flow_slot];
      if (h.visit_epoch == epoch_) continue;
      h.visit_epoch = epoch_;
      ++comp_flow_count;
      // Advance lazily tracked progress to `now` at the old rate
      // (reallocations within one instant skip the arithmetic).
      if (now != h.updated_at) {
        h.remaining = remaining_at(h, now);
        h.updated_at = now;
      }
      h.rate = -1.0;  // -1 == unfrozen for the filling below
      // Once the component spans every link there is nothing left to
      // discover; skip the per-flow path walk (it is the only cold
      // access in this loop, and whole-network components are common).
      if (comp_links_.size() == links_.size()) continue;
      for (const Hop& hp : flows_[r.flow_slot].hops) {
        if (links_[hp.link].visit_epoch != epoch_) {
          links_[hp.link].visit_epoch = epoch_;
          comp_links_.push_back(hp.link);
          comp_mask_[hp.link / 64] |= std::uint64_t{1} << (hp.link % 64);
        }
      }
    }
  }
  flows_reallocated_ += comp_flow_count;

  // Ascending link order keeps bottleneck tie-breaking identical to a
  // full recompute (which scans links 0..n-1). Reading the BFS's mask
  // back also clears it for the next pass.
  comp_links_.clear();
  for (std::size_t w = 0; w < comp_mask_.size(); ++w) {
    for (std::uint64_t bits = std::exchange(comp_mask_[w], 0); bits != 0;
         bits &= bits - 1) {
      comp_links_.push_back(
          static_cast<LinkId>(w * 64 + std::countr_zero(bits)));
    }
  }
  if (comp_flow_count == 0) return;

  if (scratch_rem_.size() < links_.size()) {
    scratch_rem_.resize(links_.size());
    scratch_unfrozen_.resize(links_.size());
  }
  for (LinkId l : comp_links_) {
    scratch_rem_[l] = effective_capacity(l);
    scratch_unfrozen_[l] = links_[l].weighted_streams;
  }

  // Progressive filling restricted to the component: repeatedly find
  // the most constrained link (smallest fair share per unit weight),
  // freeze its flows at that share, subtract their consumption.
  //
  // The commit work is fused into the freeze: each flow gets its new
  // rate and pass stamp the moment it freezes, drained flows are
  // collected, and the component's earliest projected finish is tracked
  // by cross-multiplication (rem_a/rate_a < rem_b/rate_b iff
  // rem_a*rate_b < rem_b*rate_a for positive rates), so the whole pass
  // performs a single division — for the one candidate it pushes —
  // instead of one per flow.
  const std::uint64_t stamp = cand_seq_;
  const std::size_t drained_before = drained_now_.size();
  std::uint32_t best_slot = kNoSlot;  // earliest finite-rate finisher
  double best_rem = 0.0;
  double best_rate = 0.0;
  std::uint32_t first_slot = kNoSlot;  // fallback if all flows stalled
  std::size_t frozen = 0;
  constexpr double kWeightEps = 1e-9;
  for (;;) {
    double best_share = kInf;
    LinkId best_link = kNoLink;
    for (LinkId l : comp_links_) {
      if (scratch_unfrozen_[l] <= kWeightEps) continue;
      const double share =
          std::max(0.0, scratch_rem_[l]) / scratch_unfrozen_[l];
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    if (best_link == kNoLink) break;  // all component flows frozen

    round_.clear();
    for (const LinkRef& r : links_[best_link].flows) {
      FlowHot& h = hot_[r.flow_slot];
      if (h.rate >= 0.0) continue;  // already frozen via another link
      h.rate = best_share;
      h.stamp = stamp;
      if (first_slot == kNoSlot) first_slot = r.flow_slot;
      if (h.remaining <= kDrainEpsilon) {
        drained_now_.push_back(r.flow_slot);
      } else if (best_share > 0.0 &&
                 (best_slot == kNoSlot ||
                  h.remaining * best_rate < best_rem * best_share)) {
        best_slot = r.flow_slot;
        best_rem = h.remaining;
        best_rate = best_share;
      }
      round_.push_back(r.flow_slot);
    }
    frozen += round_.size();
    // Subtracting the frozen flows' consumption only serves to find the
    // next bottleneck; when this round froze the whole component (the
    // overwhelmingly common single-bottleneck case) skip it entirely.
    if (frozen == comp_flow_count) break;
    for (std::uint32_t slot : round_) {
      for (const Hop& hp : flows_[slot].hops) {
        scratch_rem_[hp.link] -= best_share * hp.weight;
        scratch_unfrozen_[hp.link] -= hp.weight;
      }
    }
    RCMP_CHECK(scratch_unfrozen_[best_link] <= 1e-6);
    scratch_unfrozen_[best_link] = 0.0;
  }

  // One completion candidate per pass: a drained flow completes at this
  // very instant and beats any finite projection; otherwise the
  // earliest finite finisher; otherwise the component is stalled and
  // the candidate carries infinity (reschedule_completion rejects it if
  // it ever becomes the global minimum).
  std::uint32_t cand_slot;
  SimTime cand_finish;
  if (drained_now_.size() > drained_before) {
    cand_slot = drained_now_[drained_before];
    cand_finish = now;
  } else if (best_slot != kNoSlot) {
    cand_slot = best_slot;
    cand_finish = now + best_rem / best_rate;
  } else {
    cand_slot = first_slot;
    cand_finish = kInf;
  }
  cand_heap_.push(
      CandEntry{cand_finish, cand_seq_++, cand_slot, flows_[cand_slot].gen});
}

void FlowNetwork::reschedule_completion() {
  // Discard candidates voided since they were pushed (flow completed or
  // cancelled, or its component was reallocated by a newer pass).
  while (!cand_heap_.empty() && !cand_valid(cand_heap_.top())) {
    cand_heap_.pop();
  }
  if (cand_heap_.empty()) {
    RCMP_CHECK_MSG(active_count_ == 0,
                   "active flows but no completion candidate");
    if (completion_event_ != sim::kInvalidEvent) {
      sim_.cancel(completion_event_);
      completion_event_ = sim::kInvalidEvent;
    }
    return;
  }
  const SimTime finish = cand_heap_.top().finish;
  RCMP_CHECK_MSG(finish < kInf,
                 "active flows exist but none can make progress");
  if (completion_event_ != sim::kInvalidEvent) {
    if (scheduled_finish_ == finish) return;  // already on target
    sim_.cancel(completion_event_);
  }
  scheduled_finish_ = finish;
  completion_event_ = sim_.schedule_at(finish, [this] { on_timer(); });
}

void FlowNetwork::on_timer() {
  completion_event_ = sim::kInvalidEvent;
  // Same-instant mutations queued before this event may not have
  // flushed yet (their flush event sits behind this one in the FIFO);
  // apply them first so candidates reflect current rates. The final
  // reschedule_completion below retargets the timer.
  apply_dirty();
  const SimTime now = sim_.now();

  // Pop every candidate due now (at most one per component); each names
  // a flow whose stored projection still holds, i.e. it has drained.
  batch_.clear();
  while (!cand_heap_.empty()) {
    const CandEntry c = cand_heap_.top();
    if (!cand_valid(c)) {
      cand_heap_.pop();
      continue;
    }
    if (c.finish > now) break;
    cand_heap_.pop();
    batch_.push_back(c.slot);
  }
  if (batch_.empty()) {
    // The flush above re-rated the component this timer was aimed at
    // (e.g. a same-instant start slowed everyone down); nothing is due.
    reschedule_completion();
    return;
  }

  // Draining a batch frees capacity, which can reveal same-instant
  // completions among surviving component peers (their remaining was
  // already ~0). Iterate — detach, reallocate, collect — until no flow
  // drains; all complete at `now`, so no progress is lost between
  // passes.
  finish_cbs_.clear();
  finish_order_.clear();
  while (!batch_.empty()) {
    seed_links_.clear();
    for (std::uint32_t slot : batch_) {
      Flow& f = flows_[slot];
      for (const Hop& hp : f.hops) seed_links_.push_back(hp.link);
      detach_from_links(slot);
      finish_order_.emplace_back(
          f.start_seq, static_cast<std::uint32_t>(finish_cbs_.size()));
      finish_cbs_.push_back(
          FinishCb{f.tail_latency, std::move(f.on_complete)});
      release_slot(slot);
    }
    reallocate(seed_links_);
    batch_.swap(drained_now_);
  }

  // Deterministic callback order: flow start order, regardless of the
  // order completions were discovered in. Start sequence numbers are
  // unique, so sorting the keys alone fixes the order.
  std::sort(finish_order_.begin(), finish_order_.end());
  for (const auto& entry : finish_order_) {
    FinishCb& fc = finish_cbs_[entry.second];
    if (fc.cb) sim_.schedule_after(fc.tail, std::move(fc.cb));
  }
  finish_cbs_.clear();
  reschedule_completion();
}

}  // namespace rcmp::res
