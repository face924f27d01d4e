// Flit-level wormhole interconnect (paper Section 4.1): 8-byte flits over
// 16-bit links (4 link cycles per flit), 4-cycle switch core, input-buffered
// virtual channels with credit-based backpressure, and age-based arbitration
// granting at most four flits per switch per cycle — the SGI SPIDER scheme
// the paper adopts. Virtual channels are partitioned by destination node so
// messages between one source/destination pair can never be reordered.
//
// The switch-directory snoop fires when a message's head flit first reaches
// the front of an input buffer at a switch, in parallel with arbitration,
// exactly as DRESAR is specified to operate; a sunk message's remaining
// flits stream up to that switch and are drained there, and switch-generated
// messages enter the crossbar through the extra injection port (the paper's
// 10x4 crossbar).
//
// The model ticks every cycle while anything is in flight, and a tick's cost
// follows the flits that move: port state is flat and idle switches return
// after their occupancy sample. Measured with perfbench on a 4-core VM
// (RelWithDebInfo, GCC 12.2), FFT 16K with sd-1024 costs about 1250 ns of
// host time per reference here against 465 ns on the message-level Network
// (flit.overhead_ns_per_ref: about 840 ns). The full system can run on
// either (SystemConfig::net.flitLevel), and bench/validation_flit_vs_message
// quantifies how close the two are.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/config.h"
#include "common/scheduler.h"
#include "common/stats.h"
#include "interconnect/inetwork.h"

namespace dresar {

class RoutingPolicy;

class FlitNetwork final : public INetwork {
 public:
  /// `hooks` is the complete observer wiring (see NetworkHooks). The fault
  /// injector applies request-leg drop/delay at delivery; a link stall
  /// freezes the chosen switch's whole grant pass for the window (credits
  /// provide the backpressure upstream).
  FlitNetwork(const NetworkConfig& cfg, std::uint32_t numNodes, std::uint32_t lineBytes,
              SimKernel& kernel, const NetworkHooks& hooks);

  ~FlitNetwork() override;  // out-of-line: RoutingPolicy is forward-declared

  FlitNetwork(const FlitNetwork&) = delete;
  FlitNetwork& operator=(const FlitNetwork&) = delete;

  [[nodiscard]] const Butterfly& topology() const override { return topo_; }
  void send(Message m) override;
  [[nodiscard]] std::uint64_t messagesSent() const override { return sent_; }
  [[nodiscard]] std::uint64_t messagesSunk() const override { return sunk_; }
  /// The flit model always collects saturation telemetry: credit state and
  /// buffer occupancy exist as first-class simulation state here, unlike
  /// the message-level model's unbounded queues.
  [[nodiscard]] const CongestionTelemetry* congestion() const override { return &cong_; }

  /// Live flits + undelivered messages; zero when the network is idle.
  [[nodiscard]] std::uint64_t inFlight() const { return live_; }

 private:
  // Vertices: procs [0,N), mems [N,2N), switches [2N, 2N+S).
  [[nodiscard]] std::uint32_t vertexOf(Endpoint ep) const {
    return ep.kind == EndpointKind::Proc ? ep.node : numNodes_ + ep.node;
  }
  [[nodiscard]] std::uint32_t vertexOf(SwitchId sw) const {
    return 2 * numNodes_ + topo_.flat(sw);
  }
  [[nodiscard]] std::uint32_t vertexOf(const Hop& h) const {
    return h.kind == Hop::Kind::Switch ? vertexOf(h.sw) : vertexOf(h.ep);
  }
  [[nodiscard]] bool isSwitchVertex(std::uint32_t v) const { return v >= 2 * numNodes_; }

  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// One in-flight message, shared by all of its flits. Owned by the
  /// network's message pool from send (or spawn) until its last flit is
  /// delivered or drained.
  struct MsgState {
    Message msg;
    Route route;
    std::uint32_t totalFlits = 1;
    /// Route index of the hop the head flit occupies or is travelling to.
    std::uint32_t hop = 0;
    /// Link the head flit leaves its current switch by (resolved when the
    /// head arrives there).
    std::uint32_t outLink = kNone;
    std::uint64_t snoopedMask = 0; ///< route hop indices whose snoop has run
                                   ///< (a route never revisits a switch, so
                                   ///< this fits any geometry in 64 bits)
    /// Flat id of the switch whose snoop sank the message; kNone while it
    /// travels. Its flits drain there only: upstream switches stream body
    /// and tail as usual, so the tail still releases their output locks.
    std::uint32_t sunkFlat = kNone;
    std::uint32_t drained = 0;     ///< flits of a sunk message consumed so far
    Cycle birth = 0;               ///< age for arbitration
  };

  struct Flit {
    MsgState* ms = nullptr;
    std::uint32_t seq = 0;  ///< 0 = head; totalFlits-1 = tail
    [[nodiscard]] bool head() const { return seq == 0; }
    [[nodiscard]] bool tail() const { return seq + 1 == ms->totalFlits; }
  };

  /// One directed link, built once from the topology. The transmitter state
  /// lives at the sender; a link leaving a switch is also that switch's
  /// output port and carries its wormhole lock.
  struct Link {
    std::uint32_t to = 0;
    /// First input buffer (vc 0) this link feeds at switch `to`; kNone when
    /// `to` is an endpoint.
    std::uint32_t input = kNone;
    Cycle nextFree = 0;               ///< one flit per linkCyclesPerFlit
    std::uint32_t lockOwner = kNone;  ///< input (or injection VC) streaming out
    Cycle lockSince = 0;              ///< cycle the held lock was taken
  };

  /// Input buffer at a switch for one (upstream link, virtual channel): a
  /// ring of bufferFlits flits, which credits guarantee is never exceeded.
  struct InputVc {
    std::uint32_t link = 0;            ///< the upstream link feeding this buffer
    std::uint32_t vc = 0;
    std::uint32_t front = 0;           ///< ring index of the oldest flit
    std::uint32_t size = 0;
    std::uint32_t lockedOutput = kNone;  ///< wormhole: link held by the current msg
  };

  struct SwitchState {
    /// Input buffers [firstInput, firstInput + numInputs) of inputs_, in
    /// (upstream vertex, vc) order: the deterministic arbitration order.
    std::uint32_t firstInput = 0;
    std::uint32_t numInputs = 0;
    /// First of the switch's output links in links_ (they are contiguous,
    /// in downstream-vertex order); an output's port index is its offset.
    std::uint32_t firstOutput = 0;
    std::uint32_t stage = 0;
    std::uint64_t buffered = 0;         ///< flits across all input buffers
    std::deque<MsgState*> injectQueue;  ///< switch-directory generated messages
    std::uint32_t injectFlitsSent = 0;  ///< progress within injectQueue.front()
    std::uint32_t injectLink = 0;       ///< output of injectQueue.front()
  };

  struct EndpointNi {
    std::deque<MsgState*> sendQueue;
    std::uint32_t flitsSent = 0;
  };

  /// Lock owner ids of the injection port, one per VC: above every input
  /// index, so an input wins an age tie against the injection port.
  static constexpr std::uint32_t kInjectOwner = 0xFFFF0000u;

  /// Best request for one output port in the current grant pass.
  struct Candidate {
    std::uint32_t owner = kNone;  ///< input index, or kInjectOwner + vc
    Cycle age = kNoCycle;
  };

  [[nodiscard]] std::uint32_t vcOf(const Message& m) const {
    return cfg_.virtualChannels == 0 ? 0 : m.dst.node % cfg_.virtualChannels;
  }

  [[nodiscard]] std::uint32_t flitsOf(const Message& m) const {
    const std::uint32_t bytes = m.sizeBytes(cfg_.headerBytes, lineBytes_);
    return (bytes + cfg_.flitBytes - 1) / cfg_.flitBytes;
  }

  /// Build links_, inputs_ and the per-vertex link ranges from the butterfly
  /// wiring: stage j and j+1 switches connect when their indices differ
  /// only in the digit at position k-2-j (see topology.h).
  void buildLinks();
  /// Index of the link from -> to, or kNone when the topology has none.
  [[nodiscard]] std::uint32_t findLink(std::uint32_t from, std::uint32_t to) const;
  /// findLink that treats a missing link as a routing defect.
  [[nodiscard]] std::uint32_t linkTo(std::uint32_t from, std::uint32_t to) const;
  [[nodiscard]] std::uint32_t& credit(std::uint32_t link, std::uint32_t vc) {
    return credits_[static_cast<std::size_t>(link) * vcs_ + vc];
  }
  [[nodiscard]] Flit& front(std::uint32_t input) {
    return fifos_[static_cast<std::size_t>(input) * cfg_.bufferFlits + inputs_[input].front];
  }
  void pushBack(SwitchState& s, std::uint32_t input, const Flit& f);
  /// Pop the oldest flit of `input` and return its credit upstream.
  Flit popFront(SwitchState& s, std::uint32_t input);

  MsgState* newMsg(Message m, Route route);
  void freeMsg(MsgState* ms) { freeMsgs_.push_back(ms); }

  void ensureTicking();
  void tick();
  void tickSwitch(std::uint32_t flat);
  void tickSourceNi(std::uint32_t ev);
  /// Emit one flit onto `link`; schedules its arrival (buffer insert or
  /// delivery).
  void transmit(std::uint32_t link, const Flit& f, Cycle extraDelay);
  void arrive(std::uint32_t link, Flit f);
  void deliver(std::uint32_t epVertex, const Flit& f);
  /// Hand a completed message to the endpoint (post fault filtering).
  void deliverMsg(std::uint32_t epVertex, const Message& m);

  /// Run the snoop for the head flit at the front of `input` at switch
  /// `flat` if it has not run there yet. Returns false if the message was
  /// sunk.
  bool maybeSnoop(std::uint32_t flat, std::uint32_t input);
  /// Offer `output` (a port index of switch `s`) to a requester; the oldest
  /// wins, ties to the lower owner id, and a locked output admits only its
  /// owner.
  void consider(const SwitchState& s, std::uint32_t output, std::uint32_t owner, Cycle age);

  /// Route for an endpoint-injected message: the unique LCA route, or the
  /// policy's pick among the turnaround candidates (adaptive).
  [[nodiscard]] Route routeOf(const Message& m);
  /// Same for a switch-injected (snoop-spawned) message.
  [[nodiscard]] Route spawnRouteOf(SwitchId from, const Message& m);
  /// Credit debt + link backlog along `r` from `srcVertex`: the congestion
  /// an injected message would stream into right now.
  [[nodiscard]] std::uint64_t routeCongestion(const Route& r, std::uint32_t srcVertex,
                                              std::uint32_t vc) const;

  /// Lock bookkeeping wrappers so every grab/release feeds hold-time
  /// telemetry exactly once.
  void grabLock(Link& out, std::uint32_t owner);
  void releaseLock(Link& out);

  NetworkConfig cfg_;
  std::uint32_t numNodes_;
  std::uint32_t lineBytes_;
  std::uint32_t vcs_;  ///< buffers per (link): max(1, virtualChannels)
  Scheduler& sched_;
  Butterfly topo_;
  /// Hot-path counters, resolved once at construction.
  std::array<CounterHandle, kMsgTypeCount> msgCounters_;  ///< "net.msgs.<type>"
  CounterHandle flitsTransmitted_, flitGrants_, switchInjected_, sunkCounter_;
  SamplerHandle latency_;
  NetworkHooks hooks_;
  std::unique_ptr<RoutingPolicy> routing_;
  CongestionTelemetry cong_;
  /// Flat id of the switch the fault plan stalls; UINT32_MAX = none.
  std::uint32_t faultStallFlat_ = 0xFFFFFFFFu;

  std::vector<Link> links_;             ///< grouped by sender, sorted by receiver
  std::vector<std::uint32_t> outBegin_; ///< per vertex: its first link; size V+1
  std::vector<std::uint32_t> credits_;  ///< per (link, vc): space downstream
  std::vector<InputVc> inputs_;         ///< all switches' input buffers
  std::vector<Flit> fifos_;             ///< bufferFlits ring slots per input
  std::vector<SwitchState> switches_;   ///< by flat switch id
  std::vector<EndpointNi> endpoints_;   ///< by vertex (procs + mems)
  /// Endpoints with a non-empty sendQueue, one bit per vertex: a tick
  /// visits only these, in vertex order.
  std::vector<std::uint64_t> activeNi_;

  /// Grant-pass scratch, reused every switch tick: the best candidate per
  /// output port and the ports that have one.
  std::vector<Candidate> wants_;
  std::vector<std::uint32_t> wanted_;
  std::vector<Message> spawn_;  ///< snoop output scratch

  /// Message pool. Stable addresses (deque) so flits and event closures hold
  /// raw MsgState pointers; a state is recycled once its tail is consumed,
  /// and every state is destroyed with the network. Closures capture `this`
  /// raw as well, so none may run after the network is gone.
  std::deque<MsgState> msgPool_;
  std::vector<MsgState*> freeMsgs_;

  bool ticking_ = false;
  std::uint64_t live_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t sunk_ = 0;
  std::uint64_t nextMsgId_ = 1;
};

}  // namespace dresar
