#include "dist/reliable_link.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcds::dist {

std::size_t reliable_delivery_bound(const ReliableLinkParams& params) noexcept {
  std::size_t total = 1;  // the successful copy's delivery round
  std::size_t rto = params.rto;
  for (std::size_t i = 0; i < params.max_retries; ++i) {
    total += rto;
    rto = std::min(rto * 2, params.max_rto);
  }
  // A TTL abandons the payload after ttl_rounds unacked rounds, so the
  // last transmission that can still land is the one the round before;
  // its copy delivers one round later.
  if (params.ttl_rounds > 0) total = std::min(total, params.ttl_rounds + 1);
  return total;
}

ReliableLink::ReliableLink(Runtime& rt, const ReliableLinkParams& params,
                           const obs::Obs& obs)
    : rt_(rt), params_(params) {
  if (params_.rto == 0 || params_.max_rto < params_.rto) {
    throw std::invalid_argument(
        "ReliableLink: need 1 <= rto <= max_rto");
  }
  const std::size_t n = rt.topology().num_nodes();
  acked_.resize(n);
  next_seq_.resize(n);
  delivered_.resize(n);
  c_retx_ = obs.counter("reliable_link.retransmissions");
  c_expired_ = obs.counter("reliable_link.expired");
  c_dedup_ = obs.counter("reliable_link.dedup_hits");
  c_failed_ = obs.counter("reliable_link.delivery_failed");
}

void ReliableLink::post(NodeId from, NodeId to, const Message& payload) {
  const std::uint32_t seq = ++next_seq_[from][to];
  Message wire = payload;
  wire.link = kLinkData;
  wire.seq = seq;
  rt_.send(from, to, wire);
  pending_.push_back(Pending{from, to, payload, seq, params_.rto, params_.rto,
                             params_.max_retries, /*age=*/0, rt_.context()});
}

void ReliableLink::send(NodeId from, NodeId to, Message m) {
  if (!rt_.topology().has_edge(from, to)) {
    throw std::invalid_argument(
        "ReliableLink::send: nodes are not one-hop neighbors");
  }
  m.from = from;
  post(from, to, m);
}

void ReliableLink::broadcast(NodeId from, Message m) {
  // Reliable broadcast = per-neighbor reliable unicast (each copy is
  // acked independently, exactly like the lossless runtime's fan-out).
  m.from = from;
  for (const NodeId to : rt_.topology().neighbors(from)) {
    post(from, to, m);
  }
}

void ReliableLink::start(NodeId self) {
  if (inner_) inner_->start(self);
}

void ReliableLink::on_round_begin() {
  if (inner_) inner_->on_round_begin();
  // Tick retransmission timers. Sends from here land in next round's
  // inboxes, exactly like sends from step(). Crashed senders keep their
  // queue but the clock stops (fail-stop with stable storage).
  std::size_t expired_now = 0;
  const auto abandon = [&](Pending& p, DeliveryFailureReason reason) {
    failures_.push_back(DeliveryFailure{
        p.from, p.to, p.seq, p.payload,
        params_.max_retries - p.retries_left, reason});
    p.seq = 0;  // tombstone, collected below (seq 0 is never assigned)
    ++expired_now;
  };
  for (Pending& p : pending_) {
    if (!rt_.is_up(p.from)) continue;
    ++p.age;
    // TTL first: a payload past its lifetime is abandoned even if
    // retries remain, so a dead peer costs at most ttl_rounds of
    // traffic per payload.
    if (params_.ttl_rounds > 0 && p.age >= params_.ttl_rounds) {
      abandon(p, DeliveryFailureReason::kTtlExpired);
      continue;
    }
    if (--p.timer > 0) continue;
    if (p.retries_left == 0) {
      abandon(p, DeliveryFailureReason::kRetryBudget);
      continue;
    }
    Message wire = p.payload;
    wire.link = kLinkData;
    wire.seq = p.seq;
    // Retransmit under the context captured at post() — without this,
    // every retry under faults would become a depth-1 root and the
    // critical path of lossy runs would be systematically understated.
    rt_.set_context(p.ctx);
    rt_.send(p.from, p.to, wire);
    ++retransmissions_;
    if (c_retx_) c_retx_->add();
    --p.retries_left;
    p.rto = std::min(p.rto * 2, params_.max_rto);
    p.timer = p.rto;
  }
  rt_.set_context({});  // back to the root context between steps
  if (expired_now > 0) {
    expired_ += expired_now;
    if (c_expired_) c_expired_->add(expired_now);
    if (c_failed_) c_failed_->add(expired_now);
    std::erase_if(pending_, [](const Pending& p) { return p.seq == 0; });
  }
}

void ReliableLink::step(NodeId self, std::span<const Message> inbox) {
  std::vector<Message> payloads;
  for (const Message& m : inbox) {
    if (m.link == kLinkAck) {
      // Ack for our link self -> m.from, applied at the end of the
      // round; duplicates erase nothing there.
      if (acked_[self].empty()) ackers_.push_back(self);
      acked_[self].emplace_back(m.from, m.seq);
    } else if (m.link == kLinkData) {
      // Always re-ack (the previous ack may have been lost); deliver
      // each sequence number once.
      rt_.send(self, m.from, Message{0, 0, 0, 0, kLinkAck, m.seq});
      if (delivered_[self][m.from].insert(m.seq).second) {
        Message p = m;
        p.link = 0;
        p.seq = 0;
        payloads.push_back(p);
      } else {
        ++dedup_hits_;
        if (c_dedup_) c_dedup_->add();
      }
    } else {
      payloads.push_back(m);  // raw traffic passes through
    }
  }
  if (inner_) inner_->step(self, payloads);
}

void ReliableLink::on_round_end() {
  if (!ackers_.empty()) {
    // A round's acks name seqs sent in earlier rounds, never one posted
    // this round, so erasing after the round's posts were appended
    // removes exactly what an erase at each ack would have.
    std::erase_if(pending_, [&](const Pending& p) {
      const auto& acks = acked_[p.from];
      return std::find(acks.begin(), acks.end(),
                       std::make_pair(p.to, p.seq)) != acks.end();
    });
    for (const NodeId v : ackers_) acked_[v].clear();
    ackers_.clear();
  }
  if (inner_) inner_->on_round_end();
}

bool ReliableLink::idle() const {
  if (inner_ && !inner_->idle()) return false;
  for (const Pending& p : pending_) {
    if (rt_.is_up(p.from)) return false;
  }
  return true;
}

}  // namespace mcds::dist
