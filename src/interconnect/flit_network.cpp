#include "interconnect/flit_network.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/log.h"
#include "fault/injector.h"
#include "interconnect/routing.h"

namespace dresar {

namespace {
/// Same fixed routing-policy seed as the message-level Network.
constexpr std::uint64_t kRoutingSeed = 0xC0A9E5710B15ull;
}  // namespace

FlitNetwork::FlitNetwork(const NetworkConfig& cfg, std::uint32_t numNodes,
                         std::uint32_t lineBytes, SimKernel& kernel,
                         const NetworkHooks& hooks)
    : cfg_(cfg),
      numNodes_(numNodes),
      lineBytes_(lineBytes),
      vcs_(std::max(1u, cfg.virtualChannels)),
      sched_(kernel.scheduler()),
      topo_(numNodes, cfg.switchRadix),
      hooks_(hooks),
      routing_(makeRoutingPolicy(cfg.routing, kRoutingSeed)) {
  if (cfg_.bufferFlits == 0) throw std::invalid_argument("FlitNetwork: bufferFlits must be >= 1");
  if (hooks_.fault != nullptr && hooks_.fault->linkStall().active()) {
    const LinkStallSpec& s = hooks_.fault->linkStall();
    faultStallFlat_ = topo_.flat(SwitchId{s.stage, s.index});
  }
  StatRegistry& stats = kernel.registry();
  switches_.resize(topo_.totalSwitches());
  endpoints_.resize(2ull * numNodes_);
  activeNi_.assign((endpoints_.size() + 63) / 64, 0);
  buildLinks();
  for (std::size_t t = 0; t < kMsgTypeCount; ++t) {
    msgCounters_[t] =
        stats.counterHandle(std::string("net.msgs.") + toString(static_cast<MsgType>(t)));
  }
  flitsTransmitted_ = stats.counterHandle("flit.transmitted");
  flitGrants_ = stats.counterHandle("flit.grants");
  switchInjected_ = stats.counterHandle("net.switch_injected");
  sunkCounter_ = stats.counterHandle("net.sunk");
  latency_ = stats.samplerHandle("net.latency");
  // Telemetry geometry: occupancy tops out around radix * VCs * bufferFlits
  // per switch; lock holds can span a long wormhole chain under saturation.
  cong_.perSwitchCreditStalls.assign(topo_.totalSwitches(), 0);
  cong_.stageOccupancy.assign(topo_.numStages(), Sampler{});
  cong_.stageOccupancyHist.assign(topo_.numStages(),
                                  Histogram(Histogram::LogSpaced{1.0, 16}));
  cong_.lockHoldHist = Histogram(Histogram::LogSpaced{1.0, 24});
}

FlitNetwork::~FlitNetwork() = default;

void FlitNetwork::buildLinks() {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  const auto connect = [&edges](std::uint32_t a, std::uint32_t b) {
    edges.emplace_back(a, b);
    edges.emplace_back(b, a);
  };
  for (NodeId n = 0; n < numNodes_; ++n) {
    connect(vertexOf(procEp(n)), vertexOf(topo_.procSwitch(n)));
    connect(vertexOf(memEp(n)), vertexOf(topo_.memSwitch(n)));
  }
  const std::uint32_t stages = topo_.numStages();
  const std::uint32_t half = topo_.half();
  const std::uint32_t perStage = topo_.switchesPerStage();
  for (std::uint32_t j = 0; j + 1 < stages; ++j) {
    std::uint32_t weight = 1;  // of digit position k-2-j
    for (std::uint32_t e = 0; e + 2 + j < stages; ++e) weight *= half;
    for (std::uint32_t c = 0; c < perStage; ++c) {
      const std::uint32_t rest = c - (c / weight) % half * weight;
      for (std::uint32_t d = 0; d < half; ++d) {
        const std::uint32_t up = rest + d * weight;
        if (up < perStage) connect(vertexOf(SwitchId{j, c}), vertexOf(SwitchId{j + 1, up}));
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  const std::uint32_t vertices = 2 * numNodes_ + topo_.totalSwitches();
  outBegin_.assign(vertices + 1, 0);
  links_.reserve(edges.size());
  credits_.reserve(edges.size() * vcs_);
  for (const auto& [from, to] : edges) {
    links_.push_back(Link{to});
    ++outBegin_[from + 1];
    // Credits only matter toward switch input buffers; endpoints sink freely.
    credits_.insert(credits_.end(), vcs_, isSwitchVertex(to) ? cfg_.bufferFlits : 0xFFFFFFu);
  }
  for (std::uint32_t v = 0; v < vertices; ++v) outBegin_[v + 1] += outBegin_[v];

  // Input buffers per switch, one per (incoming link, vc), upstream-major:
  // links_ is sorted by sender, so each switch sees its upstreams in order.
  std::vector<std::vector<std::uint32_t>> incoming(switches_.size());
  for (std::uint32_t l = 0; l < links_.size(); ++l) {
    if (isSwitchVertex(links_[l].to)) incoming[links_[l].to - 2 * numNodes_].push_back(l);
  }
  std::uint32_t maxOutputs = 0;
  for (std::uint32_t flat = 0; flat < switches_.size(); ++flat) {
    SwitchState& s = switches_[flat];
    const std::uint32_t v = 2 * numNodes_ + flat;
    s.stage = topo_.unflat(flat).stage;
    s.firstOutput = outBegin_[v];
    maxOutputs = std::max(maxOutputs, outBegin_[v + 1] - outBegin_[v]);
    s.firstInput = static_cast<std::uint32_t>(inputs_.size());
    for (const std::uint32_t l : incoming[flat]) {
      links_[l].input = static_cast<std::uint32_t>(inputs_.size());
      for (std::uint32_t vc = 0; vc < vcs_; ++vc) inputs_.push_back(InputVc{l, vc});
    }
    s.numInputs = static_cast<std::uint32_t>(inputs_.size()) - s.firstInput;
  }
  fifos_.resize(inputs_.size() * cfg_.bufferFlits);
  wants_.assign(maxOutputs, Candidate{});
  wanted_.reserve(maxOutputs);
}

std::uint32_t FlitNetwork::findLink(std::uint32_t from, std::uint32_t to) const {
  for (std::uint32_t l = outBegin_[from]; l < outBegin_[from + 1]; ++l) {
    if (links_[l].to == to) return l;
  }
  return kNone;
}

std::uint32_t FlitNetwork::linkTo(std::uint32_t from, std::uint32_t to) const {
  const std::uint32_t l = findLink(from, to);
  if (l == kNone) throw std::logic_error("FlitNetwork: route uses a link the topology lacks");
  return l;
}

void FlitNetwork::pushBack(SwitchState& s, std::uint32_t input, const Flit& f) {
  InputVc& in = inputs_[input];
  std::uint32_t i = in.front + in.size;
  if (i >= cfg_.bufferFlits) i -= cfg_.bufferFlits;
  fifos_[static_cast<std::size_t>(input) * cfg_.bufferFlits + i] = f;
  ++in.size;
  ++s.buffered;
}

FlitNetwork::Flit FlitNetwork::popFront(SwitchState& s, std::uint32_t input) {
  const Flit f = front(input);
  InputVc& in = inputs_[input];
  if (++in.front == cfg_.bufferFlits) in.front = 0;
  --in.size;
  --s.buffered;
  ++credit(in.link, in.vc);
  return f;
}

FlitNetwork::MsgState* FlitNetwork::newMsg(Message m, Route route) {
  MsgState* ms;
  if (freeMsgs_.empty()) {
    ms = &msgPool_.emplace_back();
  } else {
    ms = freeMsgs_.back();
    freeMsgs_.pop_back();
  }
  ms->route = std::move(route);
  ms->totalFlits = flitsOf(m);
  ms->hop = 0;
  ms->outLink = kNone;
  ms->snoopedMask = 0;
  ms->sunkFlat = kNone;
  ms->drained = 0;
  ms->birth = sched_.now();
  ms->msg = std::move(m);
  ++sent_;
  ++live_;
  ++msgCounters_[static_cast<std::size_t>(ms->msg.type)];
  return ms;
}

void FlitNetwork::send(Message m) {
  if (m.id == 0) m.id = nextMsgId_++;
  m.birth = sched_.now();
  const std::uint32_t srcVertex = vertexOf(m.src);
  Route route = routeOf(m);
  MsgState* ms = newMsg(std::move(m), std::move(route));
  EndpointNi& ni = endpoints_.at(srcVertex);
  if (ni.sendQueue.empty()) activeNi_[srcVertex / 64] |= 1ull << (srcVertex % 64);
  ni.sendQueue.push_back(ms);
  ensureTicking();
}

void FlitNetwork::ensureTicking() {
  if (ticking_) return;
  ticking_ = true;
  sched_.scheduleIn(1, [this] { tick(); });
}

void FlitNetwork::tick() {
  // Deterministic order: source NIs by vertex (only those with something to
  // send), then switches by flat id.
  for (std::size_t w = 0; w < activeNi_.size(); ++w) {
    for (std::uint64_t bits = activeNi_[w]; bits != 0; bits &= bits - 1) {
      tickSourceNi(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }
  for (std::uint32_t s = 0; s < switches_.size(); ++s) tickSwitch(s);
  if (live_ > 0) {
    sched_.scheduleIn(1, [this] { tick(); });
  } else {
    ticking_ = false;
  }
}

void FlitNetwork::tickSourceNi(std::uint32_t ev) {
  EndpointNi& ni = endpoints_[ev];
  MsgState* ms = ni.sendQueue.front();
  const std::uint32_t link = outBegin_[ev];  // an endpoint's only link
  if (links_[link].nextFree > sched_.now() || credit(link, vcOf(ms->msg)) == 0) {
    ++cong_.sourceCreditStalls;
    return;
  }
  transmit(link, Flit{ms, ni.flitsSent}, /*extraDelay=*/0);
  if (++ni.flitsSent == ms->totalFlits) {
    ni.sendQueue.pop_front();
    ni.flitsSent = 0;
    if (ni.sendQueue.empty()) activeNi_[ev / 64] &= ~(1ull << (ev % 64));
  }
}

void FlitNetwork::transmit(std::uint32_t link, const Flit& f, Cycle extraDelay) {
  Link& l = links_[link];
  l.nextFree = sched_.now() + cfg_.linkCyclesPerFlit;
  if (l.input != kNone) {
    std::uint32_t& c = credit(link, vcOf(f.ms->msg));
    if (c == 0) throw std::logic_error("FlitNetwork: transmit without credit");
    --c;
  }
  ++flitsTransmitted_;
  sched_.scheduleIn(cfg_.linkCyclesPerFlit + extraDelay,
                    [this, link, f] { arrive(link, f); });
}

void FlitNetwork::arrive(std::uint32_t link, Flit f) {
  const Link& l = links_[link];
  if (l.input == kNone) {
    deliver(l.to, f);
    return;
  }
  const std::uint32_t flat = l.to - 2 * numNodes_;
  MsgState& ms = *f.ms;
  if (f.head()) {
    // The head flit reaches each switch exactly once; that is the hop event.
    if (hooks_.tracer != nullptr && ms.msg.txn != 0) {
      hooks_.tracer->record(ms.msg.txn, TxnEvent::SwitchHop, txnLegOf(ms.msg.type),
                            txnAtSwitch(flat), sched_.now());
    }
    ms.outLink = linkTo(l.to, vertexOf(ms.route[ms.hop + 1]));
  }
  pushBack(switches_[flat], l.input + vcOf(ms.msg), f);
}

void FlitNetwork::deliver(std::uint32_t epVertex, const Flit& f) {
  if (!f.tail()) return;  // wormhole per-VC ordering: tail implies complete
  --live_;
  MsgState* ms = f.ms;
  if (hooks_.fault != nullptr && FaultInjector::eligible(ms->msg)) {
    if (hooks_.fault->shouldDrop(ms->msg)) {
      DRESAR_LOG_TRACE("flit: fault drop %s", ms->msg.describe().c_str());
      freeMsg(ms);
      return;
    }
    if (const Cycle d = hooks_.fault->deliveryDelay(ms->msg); d > 0) {
      sched_.scheduleIn(d, [this, epVertex, m = ms->msg] { deliverMsg(epVertex, m); });
      freeMsg(ms);
      return;
    }
  }
  deliverMsg(epVertex, ms->msg);
  freeMsg(ms);
}

void FlitNetwork::deliverMsg(std::uint32_t epVertex, const Message& m) {
  latency_.add(static_cast<double>(sched_.now() - m.birth));
  if (hooks_.sink == nullptr)
    throw std::logic_error("FlitNetwork: no delivery sink");
  const Endpoint ep =
      epVertex < numNodes_ ? procEp(epVertex) : memEp(epVertex - numNodes_);
  hooks_.sink->deliver(ep, m);
}

Route FlitNetwork::routeOf(const Message& m) {
  if (!routing_->adaptive()) return topo_.route(m.src, m.dst);
  const TurnaroundChoices tc = topo_.turnaround(m.src, m.dst);
  if (tc.width <= 1) return topo_.route(m.src, m.dst);
  const std::uint32_t srcVertex = vertexOf(m.src);
  const std::uint32_t vc = vcOf(m);
  const std::uint32_t f = routing_->choose(tc.width, tc.baseline, [&](std::uint32_t d) {
    return routeCongestion(topo_.routeChoice(m.src, m.dst, d), srcVertex, vc);
  });
  return topo_.routeChoice(m.src, m.dst, f);
}

Route FlitNetwork::spawnRouteOf(SwitchId from, const Message& m) {
  if (!routing_->adaptive()) return topo_.routeFromSwitch(from, m.dst);
  const TurnaroundChoices tc = topo_.turnaroundFromSwitch(from, m.dst);
  if (tc.width <= 1) return topo_.routeFromSwitch(from, m.dst);
  const std::uint32_t srcVertex = vertexOf(from);
  const std::uint32_t vc = vcOf(m);
  const std::uint32_t f = routing_->choose(tc.width, tc.baseline, [&](std::uint32_t d) {
    return routeCongestion(topo_.routeFromSwitchChoice(from, m.dst, d), srcVertex, vc);
  });
  return topo_.routeFromSwitchChoice(from, m.dst, f);
}

std::uint64_t FlitNetwork::routeCongestion(const Route& r, std::uint32_t srcVertex,
                                           std::uint32_t vc) const {
  // Credit debt (flits parked in the downstream buffer) plus residual link
  // serialization along the candidate — the queueing an injected head flit
  // would stream into right now. An untouched link (free, full credits)
  // costs nothing.
  std::uint64_t cost = 0;
  const Cycle now = sched_.now();
  std::uint32_t from = srcVertex;
  for (const Hop& h : r) {
    const std::uint32_t to = vertexOf(h);
    if (const std::uint32_t l = findLink(from, to); l != kNone) {
      if (links_[l].nextFree > now) cost += links_[l].nextFree - now;
      if (links_[l].input != kNone) {
        cost += cfg_.bufferFlits -
                std::min(cfg_.bufferFlits, credits_[static_cast<std::size_t>(l) * vcs_ + vc]);
      }
    }
    from = to;
  }
  return cost;
}

void FlitNetwork::grabLock(Link& out, std::uint32_t owner) {
  if (out.lockOwner == kNone) out.lockSince = sched_.now();
  out.lockOwner = owner;
}

void FlitNetwork::releaseLock(Link& out) {
  if (out.lockOwner != kNone) {
    const auto held = static_cast<double>(sched_.now() - out.lockSince);
    cong_.lockHold.add(held);
    cong_.lockHoldHist.add(held);
  }
  out.lockOwner = kNone;
}

bool FlitNetwork::maybeSnoop(std::uint32_t flat, std::uint32_t input) {
  const Flit& f = front(input);
  MsgState& ms = *f.ms;
  // Flits sunk here were drained before the snoop pass; a body flit of a
  // message sunk downstream streams on.
  if (!f.head() || hooks_.snoop == nullptr) return true;
  // Key the mask by this switch's hop index on the route (a route never
  // revisits a switch), so 64 bits cover any geometry's switch count.
  const std::uint64_t bit = 1ull << ms.hop;
  if (ms.snoopedMask & bit) return true;
  ms.snoopedMask |= bit;
  const SwitchId sw = topo_.unflat(flat);
  spawn_.clear();
  const SnoopOutcome out = hooks_.snoop->onMessage(sw, sched_.now(), ms.msg, spawn_);
  for (Message& m : spawn_) {
    if (m.id == 0) m.id = nextMsgId_++;
    m.birth = sched_.now();
    Route route = spawnRouteOf(sw, m);
    switches_[flat].injectQueue.push_back(newMsg(std::move(m), std::move(route)));
    ++switchInjected_;
  }
  if (!out.pass) {
    ms.sunkFlat = flat;
    ++sunk_;
    ++sunkCounter_;
    return false;
  }
  return true;
}

void FlitNetwork::consider(const SwitchState& s, std::uint32_t output, std::uint32_t owner,
                           Cycle age) {
  // Wormhole: a locked output only accepts its owner.
  const std::uint32_t lock = links_[s.firstOutput + output].lockOwner;
  if (lock != kNone && lock != owner) return;
  Candidate& c = wants_[output];
  if (c.owner == kNone) {
    wanted_.push_back(output);
    c = Candidate{owner, age};
  } else if (age < c.age || (age == c.age && owner < c.owner)) {
    c = Candidate{owner, age};
  }
}

void FlitNetwork::tickSwitch(std::uint32_t flat) {
  SwitchState& s = switches_[flat];

  // Occupancy sample first, on every tick: idle and frozen switches too. A
  // frozen switch's filling buffers are exactly what the saturation
  // telemetry should show.
  cong_.stageOccupancy[s.stage].add(static_cast<double>(s.buffered));
  cong_.stageOccupancyHist[s.stage].add(static_cast<double>(s.buffered));

  // A stalled switch freezes entirely for the window: no snoops, no grants.
  // Input buffers fill and credit backpressure propagates upstream, exactly
  // the transient a misbehaving physical switch would cause. The check runs
  // before the idle return: every stalled cycle is counted.
  if (flat == faultStallFlat_ && hooks_.fault->stallTickSkipped(sched_.now())) return;

  if (s.buffered == 0 && s.injectQueue.empty()) return;  // idle: nothing to arbitrate

  // Pass 1: drain flits of sunk messages and run pending head snoops; then
  // collect, per requested output, the oldest eligible candidate.
  for (const std::uint32_t o : wanted_) wants_[o] = Candidate{};
  wanted_.clear();
  for (std::uint32_t input = s.firstInput; input < s.firstInput + s.numInputs; ++input) {
    InputVc& in = inputs_[input];
    // Drain the flits of a message this switch sank (credits flow back
    // upstream).
    while (in.size != 0 && front(input).ms->sunkFlat == flat) {
      const Flit f = popFront(s, input);
      if (f.tail()) --live_;  // the whole message has now been consumed
      if (++f.ms->drained == f.ms->totalFlits) freeMsg(f.ms);
    }
    if (in.size == 0) continue;
    if (!maybeSnoop(flat, input)) continue;  // sunk this cycle; drained next
    const Flit& f = front(input);
    const std::uint32_t output = f.head() ? f.ms->outLink : in.lockedOutput;
    consider(s, output - s.firstOutput, input, f.ms->birth);
  }

  // The injection port competes like any other input.
  if (!s.injectQueue.empty()) {
    const MsgState& ms = *s.injectQueue.front();
    if (s.injectFlitsSent == 0) {
      s.injectLink = linkTo(2 * numNodes_ + flat, vertexOf(ms.route.front()));
    }
    consider(s, s.injectLink - s.firstOutput, kInjectOwner + vcOf(ms.msg), ms.birth);
  }

  // Pass 2: grant up to four outputs this cycle, oldest first (paper 4.1).
  // Output ports are in downstream-vertex order, which breaks age ties.
  std::sort(wanted_.begin(), wanted_.end(), [this](std::uint32_t a, std::uint32_t b) {
    if (wants_[a].age != wants_[b].age) return wants_[a].age < wants_[b].age;
    return a < b;
  });
  std::uint32_t granted = 0;
  for (const std::uint32_t output : wanted_) {
    if (granted >= 4) break;
    const Candidate& cand = wants_[output];
    const std::uint32_t link = s.firstOutput + output;
    Link& out = links_[link];
    // Link and credit availability.
    if (out.nextFree > sched_.now()) {
      ++cong_.linkBusySkips;
      continue;
    }

    if (cand.owner >= kInjectOwner) {
      MsgState* ms = s.injectQueue.front();
      if (out.input != kNone && credit(link, vcOf(ms->msg)) == 0) {
        ++cong_.creditStallCycles;
        ++cong_.perSwitchCreditStalls[flat];
        continue;
      }
      const Flit f{ms, s.injectFlitsSent};
      // Lock while the message streams out.
      if (f.head()) grabLock(out, cand.owner);
      transmit(link, f, cfg_.coreDelay);
      ++s.injectFlitsSent;
      ++granted;
      if (f.tail()) {
        releaseLock(out);
        s.injectQueue.pop_front();
        s.injectFlitsSent = 0;
      }
      continue;
    }

    InputVc& in = inputs_[cand.owner];
    if (in.size == 0) continue;
    if (out.input != kNone && credit(link, in.vc) == 0) {
      ++cong_.creditStallCycles;
      ++cong_.perSwitchCreditStalls[flat];
      continue;
    }
    const Flit f = popFront(s, cand.owner);
    if (f.head()) {
      grabLock(out, cand.owner);
      in.lockedOutput = link;
      ++f.ms->hop;
    }
    const bool tail = f.tail();
    transmit(link, f, cfg_.coreDelay);
    ++granted;
    ++flitGrants_;
    if (tail) {
      releaseLock(out);
      in.lockedOutput = kNone;
    }
  }
}

}  // namespace dresar
