#include "nocmap/sim/simulator.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace nocmap::sim {

Simulator::Simulator(const graph::Cdcg& cdcg, const noc::Topology& topo,
                     const energy::Technology& tech, SimOptions options)
    : cdcg_(cdcg),
      topo_(topo),
      tech_(tech),
      options_(options),
      routes_(topo, options.routing),
      lambda_(tech.clock_period_ns),
      tr_(static_cast<double>(tech.tr_cycles) * tech.clock_period_ns),
      tl_(static_cast<double>(tech.tl_cycles) * tech.clock_period_ns) {
  tech_.validate();
  cdcg_.validate(/*require_connected=*/false);

  if (options_.backend == SimBackend::kFlit && options_.buffer_depth == 0) {
    throw std::invalid_argument(
        "simulate: the flit backend needs buffer_depth >= 1");
  }

  const std::size_t num_packets = cdcg_.num_packets();
  const std::size_t num_cores = cdcg_.num_cores();
  hot_.resize(num_packets);
  flits_.reserve(num_packets);
  comp_ns_.reserve(num_packets);
  num_preds_.reserve(num_packets);
  for (graph::PacketId p = 0; p < num_packets; ++p) {
    const graph::Packet& pk = cdcg_.packet(p);
    const double flits = static_cast<double>(tech_.flits(pk.bits));
    flits_.push_back(flits);
    comp_ns_.push_back(static_cast<double>(pk.comp_time) * lambda_);
    num_preds_.push_back(
        static_cast<std::uint32_t>(cdcg_.predecessors(p).size()));
    HotPacket& hp = hot_[p];
    hp.n_tl = flits * tl_;
    const std::vector<graph::PacketId>& succ = cdcg_.successors(p);
    hp.succ_begin = static_cast<std::uint32_t>(succ_list_.size());
    succ_list_.insert(succ_list_.end(), succ.begin(), succ.end());
    hp.succ_end = static_cast<std::uint32_t>(succ_list_.size());
  }

  // Packets incident to each core — counting sort into CSR. A packet shows
  // up in both its endpoints' lists (src != dst is a CDCG invariant).
  core_pkt_off_.assign(num_cores + 1, 0);
  for (graph::PacketId p = 0; p < num_packets; ++p) {
    const graph::Packet& pk = cdcg_.packet(p);
    ++core_pkt_off_[pk.src + 1];
    ++core_pkt_off_[pk.dst + 1];
  }
  for (std::size_t c = 1; c <= num_cores; ++c) {
    core_pkt_off_[c] += core_pkt_off_[c - 1];
  }
  core_pkt_list_.resize(core_pkt_off_[num_cores]);
  std::vector<std::uint32_t> fill(core_pkt_off_.begin(),
                                  core_pkt_off_.end() - 1);
  for (graph::PacketId p = 0; p < num_packets; ++p) {
    const graph::Packet& pk = cdcg_.packet(p);
    core_pkt_list_[fill[pk.src]++] = p;
    core_pkt_list_[fill[pk.dst]++] = p;
  }

  local_in_.reserve(topo_.num_tiles());
  local_out_.reserve(topo_.num_tiles());
  for (noc::TileId t = 0; t < topo_.num_tiles(); ++t) {
    local_in_.push_back(topo_.local_in_resource(t));
    local_out_.push_back(topo_.local_out_resource(t));
  }

  bound_tiles_.resize(num_cores);
  route_routers_.resize(num_packets);
  src_local_in_.resize(num_packets);
  dst_local_out_.resize(num_packets);
  dyn_energy_.resize(num_packets);
  rebind_stamp_.assign(num_packets, 0);
  moved_scratch_.reserve(num_cores);

  pending_.resize(num_packets);
  ready_.resize(num_packets);
  contention_.resize(num_packets);
  contended_down_.resize(num_packets);
  link_free_.resize(topo_.num_resources(), 0.0);
  queue_.reserve(num_packets + 1);

  // --- Integer-time fast-path eligibility ----------------------------------
  // Exact checks, not preset assumptions: every timing constant must be an
  // exact non-negative integer number of nanoseconds (then all event times
  // are integer-valued doubles and double arithmetic is exact), ids must
  // fit the packed bucket-entry format, routes must fit the dense arena
  // rows, and the worst-case schedule horizon must be small enough that
  // bucket count stays sane.
  const auto integral = [](double v) {
    return v >= 0.0 && v < 9.0e15 &&
           static_cast<double>(static_cast<std::uint64_t>(v)) == v;
  };
  bool eligible = options_.backend == SimBackend::kLinkClaim &&
                  num_packets > 0 &&
                  num_packets < detail::BucketQueue::kMaxPackets &&
                  integral(tr_) && integral(tl_);
  for (graph::PacketId p = 0; eligible && p < num_packets; ++p) {
    eligible = integral(comp_ns_[p]) && integral(hot_[p].n_tl);
  }
  std::uint32_t max_links = 0;
  if (eligible) {
    const std::uint32_t tiles = topo_.num_tiles();
    for (noc::TileId s = 0; s < tiles; ++s) {
      for (noc::TileId d = 0; d < tiles; ++d) {
        max_links = std::max(max_links, routes_.hops(s, d) - 1);
      }
    }
    eligible = max_links > 0 && max_links + 1 < detail::BucketQueue::kMaxHops;
  }
  if (eligible) {
    // Horizon bound: each of a packet's events advances the latest time by
    // at most tr + tl + n_tl, so the schedule ends below this sum for any
    // mapping (16.7M buckets is the cutoff before memory gets silly).
    double horizon = 0.0;
    for (graph::PacketId p = 0; p < num_packets; ++p) {
      horizon += comp_ns_[p] + static_cast<double>(max_links + 2) *
                                   (tr_ + tl_ + hot_[p].n_tl);
    }
    eligible = horizon <= static_cast<double>(1u << 24);
  }
  std::size_t stride = 1;
  while (stride < max_links) stride <<= 1;
  if (eligible && stride <= 64) {
    bucket_mode_ = true;
    arena_stride_ = stride;
    links_arena_.resize(num_packets * stride);
    bucket_.init(num_packets);
  }

  // --- Checkpointed incremental evaluation ---------------------------------
  // Eligibility is exact, not assumed: the restore argument needs strictly
  // sorted pops (tr > 0 and tl > 0 make every pushed key strictly future);
  // the flit backend's port-state arenas are not snapshotted. Ineligible
  // bindings silently run in full, so results never depend on this flag.
  ckpt_active_ = options_.checkpoints &&
                 options_.backend == SimBackend::kLinkClaim && tr_ > 0.0 &&
                 tl_ > 0.0 && num_packets > 0;
  if (ckpt_active_) {
    // Auto cadence: about 16 snapshots over the ~6 pops a packet's route
    // contributes on the shipped meshes, floored so tiny graphs do not
    // snapshot every other pop.
    ckpt_interval_res_ =
        options_.checkpoint_interval != 0
            ? options_.checkpoint_interval
            : std::max<std::uint64_t>(32, (num_packets * 6) / 16);
    ev_time_.resize(num_packets);
    ev_hop_.resize(num_packets);
    ev_state_.resize(num_packets);
  }

  // --- Flit-backend arenas --------------------------------------------------
  if (options_.backend == SimBackend::kFlit) {
    double max_flits = 0.0;
    for (graph::PacketId p = 0; p < num_packets; ++p) {
      max_flits = std::max(max_flits, flits_[p]);
    }
    if (options_.switching == Switching::kVirtualCutThrough &&
        static_cast<double>(options_.buffer_depth) < max_flits) {
      throw std::invalid_argument(
          "simulate: virtual cut-through stores whole packets, so "
          "buffer_depth must be >= the largest packet's flit count (" +
          std::to_string(static_cast<std::uint64_t>(max_flits)) + ")");
    }
    flit_.onoff = options_.flow_control == FlowControl::kOnOff;
    flit_.vct = options_.switching == Switching::kVirtualCutThrough;
    flit_.depth = static_cast<double>(options_.buffer_depth);
    // Body slots one input buffer offers a *stalled* worm. On/off raises the
    // stop signal one slot early to cover the flit in flight.
    flit_.stage_slots =
        flit_.onoff && flit_.depth > 1.0 ? flit_.depth - 1.0 : flit_.depth;
    // Longest possible route (in inter-router links) over every tile pair:
    // the header-out history rows must fit any mapping.
    std::uint32_t flit_links = 1;
    const std::uint32_t tiles = topo_.num_tiles();
    for (noc::TileId s = 0; s < tiles; ++s) {
      for (noc::TileId d = 0; d < tiles; ++d) {
        if (s == d) continue;
        flit_links = std::max(flit_links, routes_.hops(s, d) - 1);
      }
    }
    flit_stride_ = flit_links;
    hout_arena_.resize(num_packets * flit_stride_);
    port_slot_free_.resize(topo_.num_resources(), 0.0);
    port_clear_.resize(topo_.num_resources(), 0.0);
  }
}

void Simulator::rebind_packet(graph::PacketId p) {
  const graph::Packet& pk = cdcg_.packet(p);
  const noc::TileId src = bound_tiles_[pk.src];
  const noc::TileId dst = bound_tiles_[pk.dst];
  const noc::RouteSpan<noc::TileId> routers = routes_.routers(src, dst);
  const noc::RouteSpan<noc::ResourceId> links = routes_.links(src, dst);
  route_routers_[p] = routers.data;
  hot_[p].links = links.data;
  hot_[p].len = routers.size;
  src_local_in_[p] = local_in_[src];
  dst_local_out_[p] = local_out_[dst];
  if (bucket_mode_) {
    std::memcpy(&links_arena_[p * arena_stride_], links.data,
                links.size * sizeof(noc::ResourceId));
  }
  // Dynamic energy depends only on volume and hop count (Equation 4).
  dyn_energy_[p] = energy::dynamic_packet_energy(tech_, pk.bits, routers.size);
}

void Simulator::sync_bind(const mapping::Mapping& mapping) {
  // The one-time shape validation: two integer compares per run, and the
  // event loop below never re-checks anything.
  if (mapping.num_cores() != cdcg_.num_cores()) {
    throw std::invalid_argument(
        "simulate: mapping and CDCG disagree on the number of cores");
  }
  if (mapping.num_tiles() != topo_.num_tiles()) {
    throw std::invalid_argument(
        "simulate: mapping built for another topology");
  }

  const std::size_t num_cores = cdcg_.num_cores();
  full_rebind_run_ = false;
  if (!bound_) {
    for (graph::CoreId c = 0; c < num_cores; ++c) {
      bound_tiles_[c] = mapping.tile_of(c);
    }
    for (graph::PacketId p = 0; p < cdcg_.num_packets(); ++p) {
      rebind_packet(p);
    }
    bound_ = true;
    full_rebind_run_ = true;
    return;
  }

  // Diff against the bound mapping: after a search swap move at most two
  // cores differ, so rebinding touches only their incident packets.
  moved_scratch_.clear();
  for (graph::CoreId c = 0; c < num_cores; ++c) {
    const noc::TileId t = mapping.tile_of(c);
    if (bound_tiles_[c] != t) {
      bound_tiles_[c] = t;
      moved_scratch_.push_back(c);
    }
  }
  if (moved_scratch_.empty()) return;
  ++stamp_;
  for (const graph::CoreId c : moved_scratch_) {
    const std::uint32_t begin = core_pkt_off_[c];
    const std::uint32_t end = core_pkt_off_[c + 1];
    for (std::uint32_t i = begin; i < end; ++i) {
      const graph::PacketId p = core_pkt_list_[i];
      if (rebind_stamp_[p] == stamp_) continue;  // Both endpoints moved.
      rebind_stamp_[p] = stamp_;
      rebind_packet(p);
    }
  }
}

void Simulator::record_hop(graph::PacketId p, std::uint32_t hop,
                           noc::ResourceId exit, double arrival,
                           double header_out, SimulationResult& out) {
  // Router occupancy: header arrival until the tail flit is forwarded.
  // Exit occupancy: header-out until the tail has crossed it.
  const noc::ResourceId router = topo_.router_resource(route_routers_[p][hop]);
  const double tail_out = header_out + (flits_[p] - 1.0) * tl_;
  const double exit_end = header_out + hot_[p].n_tl;
  const bool contended = contended_down_[p] != 0;
  auto& hops = out.packets[p].hops;
  hops.push_back(HopRecord{router, arrival, tail_out});
  hops.push_back(HopRecord{exit, header_out, exit_end});
  out.occupancy[router].push_back(Occupancy{p, arrival, tail_out, contended});
  out.occupancy[exit].push_back(
      Occupancy{p, header_out, exit_end, contended});
}

template <bool Full, bool Bucket>
void Simulator::inject(graph::PacketId p, SimulationResult& out) {
  const double start = ready_[p] + comp_ns_[p];
  if constexpr (Full) {
    PacketTrace& trace = out.packets[p];
    trace.packet = p;
    trace.ready_ns = ready_[p];
    trace.inject_ns = start;
    if (options_.record_traces) {
      const noc::ResourceId local_in = src_local_in_[p];
      const double end = start + hot_[p].n_tl;
      trace.hops.push_back(HopRecord{local_in, start, end});
      out.occupancy[local_in].push_back(Occupancy{p, start, end, false});
    }
  }
  if constexpr (Bucket) {
    bucket_.push(static_cast<std::size_t>(start + tl_), p, 0);
  } else {
    if (ckpt_recording_) {
      ev_time_[p] = start + tl_;
      ev_hop_[p] = 0;
      ev_state_[p] = 1;
    }
    queue_.push(detail::QueuedEvent::make(start + tl_, p, 0));
  }
}

template <bool Full, bool Bucket>
inline void Simulator::deliver(graph::PacketId p, double delivered,
                               std::size_t& delivered_count, double& texec,
                               SimulationResult& out) {
  ++delivered_count;
  texec = std::max(texec, delivered);
  if (contention_[p] > 0) ++out.num_contended_packets;
  if constexpr (Full) {
    PacketTrace& trace = out.packets[p];
    trace.delivered_ns = delivered;
    trace.contention_ns = contention_[p];
  }
  const std::uint32_t succ_end = hot_[p].succ_end;
  for (std::uint32_t i = hot_[p].succ_begin; i < succ_end; ++i) {
    const graph::PacketId succ = succ_list_[i];
    ready_[succ] = std::max(ready_[succ], delivered);
    if (--pending_[succ] == 0) inject<Full, Bucket>(succ, out);
  }
}

inline void Simulator::drain_port(graph::PacketId p, std::uint32_t hop,
                                  double header_out, SimulationResult& out) {
  // Flits enter the input port at the far end of links[hop-1] from the
  // previous hop's header-out and leave from this one's, one per tl each
  // way.
  const noc::ResourceId inport = hot_[p].links[hop - 1];
  const double hout_prev = hout_arena_[p * flit_stride_ + hop - 1];
  const double occ = std::min(
      flits_[p], std::min((header_out - hout_prev) / tl_, flit_.depth));
  if (occ > out.flit_max_occupancy) out.flit_max_occupancy = occ;
  // The whole buffer is clear of this worm once its tail has been
  // forwarded (VCT admission reads this).
  port_clear_[inport] =
      std::max(port_clear_[inport], header_out + hot_[p].n_tl);
  // A following head finds a free slot once at most stage_slots - 1 of this
  // worm's flits can still be queued here. Worms shorter than the buffer can
  // never fill it: no update, the gate stays at its prior value (0.0 when no
  // worm ever filled this port).
  const double excess = flits_[p] - (flit_.stage_slots - 1.0);
  if (excess > 0.0) {
    port_slot_free_[inport] =
        std::max(port_slot_free_[inport], header_out + excess * tl_);
  }
}

const SimulationResult& Simulator::run(const mapping::Mapping& mapping) {
  run_impl<false>(mapping, scalar_result_);
  return scalar_result_;
}

SimulationResult Simulator::run_traced(const mapping::Mapping& mapping) {
  SimulationResult out;
  run_impl<true>(mapping, out);
  return out;
}

template <bool Full>
void Simulator::run_impl(const mapping::Mapping& mapping,
                         SimulationResult& out) {
  sync_bind(mapping);

  const std::size_t num_packets = cdcg_.num_packets();
  out.texec_ns = 0.0;
  out.energy = energy::EnergyBreakdown{};
  out.total_contention_ns = 0.0;
  out.num_contended_packets = 0;
  out.flit_stall_ns = 0.0;
  out.flit_backpressure_ns = 0.0;
  out.flit_max_occupancy = 0.0;
  if constexpr (Full) {
    out.packets.assign(num_packets, PacketTrace{});
    for (graph::PacketId p = 0; p < num_packets; ++p) {
      out.packets[p].num_routers = hot_[p].len;
    }
    if (options_.record_traces) {
      out.occupancy.assign(topo_.num_resources(), {});
    }
  }

  // Dynamic energy is a pure function of the bindings; re-accumulate it in
  // packet order so the sum is byte-identical to a full rebind.
  double dynamic_j = 0.0;
  for (graph::PacketId p = 0; p < num_packets; ++p) {
    dynamic_j += dyn_energy_[p];
  }
  out.energy.dynamic_j = dynamic_j;

  // Checkpointing and the bucket calendar are link-claim only (both are
  // off under the flit backend; see the constructor).
  if (!Full && ckpt_active_) {
    run_ckpt(out);
  } else if (!Full && bucket_mode_) {
    ckpt_valid_ = false;
    reset_arena<Full>();
    bucket_.begin_run();
    for (graph::PacketId p = 0; p < num_packets; ++p) {
      if (pending_[p] == 0) inject<false, true>(p, out);
    }
    run_bucket_loop(out);
    bucket_.finish_run();
  } else {
    // Traced runs leave the arena in a state the snapshots no longer
    // describe; the next checkpointed run re-records from scratch.
    ckpt_valid_ = false;
    reset_arena<Full>();
    for (graph::PacketId p = 0; p < num_packets; ++p) {
      if (pending_[p] == 0) inject<Full, false>(p, out);
    }
    if (options_.backend == SimBackend::kFlit) {
      run_flit<Full>(out);
    } else {
      run_heap_loop<Full>(out);
    }
  }

  if constexpr (Full) {
    if (options_.record_traces) {
      for (auto& list : out.occupancy) {
        std::sort(list.begin(), list.end(),
                  [](const Occupancy& a, const Occupancy& b) {
                    if (a.start_ns != b.start_ns) {
                      return a.start_ns < b.start_ns;
                    }
                    return a.packet < b.packet;
                  });
      }
    }
  }

  out.energy.static_j =
      energy::static_noc_energy(tech_, topo_.num_tiles(), out.texec_ns);
}

template <bool Full>
void Simulator::run_flit(SimulationResult& out) {
  std::fill(port_slot_free_.begin(), port_slot_free_.end(), 0.0);
  std::fill(port_clear_.begin(), port_clear_.end(), 0.0);
  run_heap_loop<Full, false, true>(out);
}

template <bool Full>
void Simulator::reset_arena() {
  const std::size_t num_packets = cdcg_.num_packets();
  if (num_packets != 0) {
    std::memcpy(pending_.data(), num_preds_.data(),
                num_packets * sizeof(std::uint32_t));
  }
  std::fill(ready_.begin(), ready_.end(), 0.0);
  std::fill(contention_.begin(), contention_.end(), 0.0);
  if constexpr (Full) {
    std::fill(contended_down_.begin(), contended_down_.end(),
              std::uint8_t{0});
  }
  std::fill(link_free_.begin(), link_free_.end(), 0.0);
  queue_.clear();
}

void Simulator::record_ckpt(std::uint64_t pops, std::size_t delivered,
                            double texec, const SimulationResult& out) {
  if (ckpt_count_ >= kMaxCkptSlots) return;
  if (ckpts_.size() == ckpt_count_) ckpts_.emplace_back();
  Ckpt& c = ckpts_[ckpt_count_++];
  c.pops = pops;
  c.has_next = !queue_.empty();
  c.next = c.has_next ? queue_.min() : detail::QueuedEvent{};
  c.delivered = delivered;
  c.texec = texec;
  c.total_contention = out.total_contention_ns;
  c.num_contended = out.num_contended_packets;
  c.pending.assign(pending_.begin(), pending_.end());
  c.ready.assign(ready_.begin(), ready_.end());
  c.contention.assign(contention_.begin(), contention_.end());
  c.link_free.assign(link_free_.begin(), link_free_.end());
  c.ev_time.assign(ev_time_.begin(), ev_time_.end());
  c.ev_hop.assign(ev_hop_.begin(), ev_hop_.end());
  c.ev_state.assign(ev_state_.begin(), ev_state_.end());
}

/// The checkpointed scalar path. Correctness rests on two facts, spelled
/// out in docs/simulation.md:
///
///  * Pops are strictly sorted in (time, packet, hop) order (every pushed
///    key is strictly in the future when tr > 0 and tl > 0), so the pop
///    prefix before any key is the same for every queue implementation.
///  * The first pop whose processing can differ between the old and new
///    bindings is the earliest first-event key K* over the rebound (dirty)
///    packets: earlier pops touch no dirty packet and read no state a
///    dirty packet wrote (injection writes no shared state), so any
///    snapshot whose next pop key is <= K* restores a state the new run
///    shares bitwise.
void Simulator::run_ckpt(SimulationResult& out) {
  const std::size_t num_packets = cdcg_.num_packets();
  ++ckpt_stats_.runs;
  ckpt_recording_ = true;

  std::size_t slot = static_cast<std::size_t>(-1);
  if (ckpt_valid_ && !full_rebind_run_ && ckpt_count_ > 0) {
    // The earliest affected instant: min first-event key over the packets
    // incident to the moved cores. ready_ still holds the previous run's
    // final values, and a packet's final ready equals its value at
    // injection (no predecessor delivers after it injects), so the key is
    // the same for the old and new bindings.
    bool have_kstar = false;
    detail::QueuedEvent kstar{};
    for (const graph::CoreId c : moved_scratch_) {
      const std::uint32_t begin = core_pkt_off_[c];
      const std::uint32_t end = core_pkt_off_[c + 1];
      for (std::uint32_t i = begin; i < end; ++i) {
        const graph::PacketId p = core_pkt_list_[i];
        const detail::QueuedEvent key =
            detail::QueuedEvent::make(ready_[p] + comp_ns_[p] + tl_, p, 0);
        if (!have_kstar || key < kstar) {
          kstar = key;
          have_kstar = true;
        }
      }
    }
    // Latest snapshot whose next pop is not past the affected instant. A
    // snapshot with no next pop (end of run) only serves identity rebinds.
    for (std::size_t s = ckpt_count_; s-- > 0;) {
      const Ckpt& c = ckpts_[s];
      if (!have_kstar || (c.has_next && !(kstar < c.next))) {
        slot = s;
        break;
      }
    }
  }

  if (slot == static_cast<std::size_t>(-1)) {
    // Cold path: full run, recording snapshots as it goes.
    reset_arena<false>();
    std::fill(ev_state_.begin(), ev_state_.end(), std::uint8_t{0});
    ckpt_count_ = 0;
    for (graph::PacketId p = 0; p < num_packets; ++p) {
      if (pending_[p] == 0) inject<false, false>(p, out);
    }
    record_ckpt(0, 0, 0.0, out);
    run_heap_loop<false, true>(out, 0, 0.0, 0);
    ckpt_stats_.pops_replayed += ckpt_run_pops_;
    ckpt_replays_since_refresh_ = 0;
  } else {
    const Ckpt& c = ckpts_[slot];
    std::memcpy(pending_.data(), c.pending.data(),
                num_packets * sizeof(std::uint32_t));
    std::memcpy(ready_.data(), c.ready.data(), num_packets * sizeof(double));
    std::memcpy(contention_.data(), c.contention.data(),
                num_packets * sizeof(double));
    std::memcpy(link_free_.data(), c.link_free.data(),
                link_free_.size() * sizeof(double));
    std::memcpy(ev_time_.data(), c.ev_time.data(),
                num_packets * sizeof(double));
    std::memcpy(ev_hop_.data(), c.ev_hop.data(),
                num_packets * sizeof(std::uint32_t));
    std::memcpy(ev_state_.data(), c.ev_state.data(), num_packets);
    out.total_contention_ns = c.total_contention;
    out.num_contended_packets = c.num_contended;
    // Snapshots past the restore point describe a future this run rewrites.
    ckpt_count_ = slot + 1;
    if (c.pops > 0) ++ckpt_stats_.restored_runs;
    // Copy out the resume point: record_ckpt during a heap replay can grow
    // ckpts_ and invalidate `c`.
    const std::uint64_t resume_pops = c.pops;
    const std::size_t resume_delivered = c.delivered;
    const double resume_texec = c.texec;
    // Replay the suffix through the bucket fast path when it is available:
    // its pops are ~2-3x cheaper than the heap's, and the whole point of a
    // restore is that the suffix dominates neither loop. The heap loop is
    // kept for (a) ineligible bindings, (b) full replays (pops == 0 — the
    // ladder collapsed, so rebuild it while paying the full cost anyway),
    // and (c) a periodic refresh, because bucket mid-run states cannot be
    // snapshotted (kCkptRefreshPeriod above ckpt_replays_since_refresh_).
    const bool heap_replay = !bucket_mode_ || resume_pops == 0 ||
                             ++ckpt_replays_since_refresh_ >=
                                 kCkptRefreshPeriod;
    if (heap_replay) {
      ckpt_replays_since_refresh_ = 0;
      // Rebuild the queue from the per-packet shadow; the push order is
      // irrelevant because keys are unique and pops are totally ordered.
      queue_.clear();
      for (graph::PacketId p = 0; p < num_packets; ++p) {
        if (ev_state_[p] == 1) {
          queue_.push(detail::QueuedEvent::make(ev_time_[p], p, ev_hop_[p]));
        }
      }
      run_heap_loop<false, true>(out, resume_delivered, resume_texec,
                                 resume_pops);
      ckpt_stats_.pops_replayed += ckpt_run_pops_ - resume_pops;
    } else {
      std::size_t delivered_count = resume_delivered;
      double texec = resume_texec;
      bucket_.begin_run();
      for (graph::PacketId p = 0; p < num_packets; ++p) {
        if (ev_state_[p] != 1) continue;
        const HotPacket& hp = hot_[p];
        if (ev_hop_[p] + 1 == hp.len) {
          // A pending ejection: apply it at seed time. Ejections touch no
          // links and every effect commutes (max-merges and counters) —
          // exactly the reordering the fused bucket loop performs anyway.
          deliver<false, true>(p, ev_time_[p] + tr_ + hp.n_tl,
                               delivered_count, texec, out);
        } else {
          bucket_.push(static_cast<std::size_t>(ev_time_[p]), p, ev_hop_[p]);
        }
      }
      run_bucket_loop(out, delivered_count, texec);
      bucket_.finish_run();
      // Heap-equivalent accounting (the bucket loop fuses ejections, so
      // its own pop count undercounts): every packet pops once per router.
      std::uint64_t total_pops = 0;
      for (graph::PacketId p = 0; p < num_packets; ++p) {
        total_pops += hot_[p].len;
      }
      ckpt_run_pops_ = total_pops;
      ckpt_stats_.pops_replayed += total_pops - resume_pops;
      // End-of-run snapshot: it serves identity rebinds. The mid-run
      // ladder stays as truncated — only heap replays regrow it.
      queue_.clear();
      std::fill(ev_state_.begin(), ev_state_.end(), std::uint8_t{2});
      if (ckpts_[ckpt_count_ - 1].pops != total_pops) {
        record_ckpt(total_pops, num_packets, out.texec_ns, out);
      }
    }
  }
  ckpt_stats_.pops_total += ckpt_run_pops_;
  ckpt_recording_ = false;
  ckpt_valid_ = true;
}

/// The one general loop, for both backends. Keys are unique ((time,
/// packet, hop) — a packet has one in-flight event), so the pop order is a
/// total order regardless of push order or heap internals. Contention
/// accounting is branchless: the uncontended case adds an exact +0.0, which
/// leaves every accumulator byte-identical.
///
/// The flit backend is a policy of this loop (Flit = true), not a second
/// loop. Its three `if constexpr (Flit)` hooks each contribute an exact
/// +0.0 when their constraint does not bind, so at a never-binding depth
/// every accumulator matches the link-claim instantiation bit for bit:
///  (a) downstream admission — after winning the link, the head also waits
///      for buffer space at its far end: one slot under wormhole (credit /
///      on-off), the whole buffer under virtual cut-through;
///  (b) port drain — the closed-form drain schedule (one flit per tl) of
///      the input port a worm leaves, read by the next head's admission;
///  (c) backpressure — a stalled worm's body parks across the input buffers
///      along its path; whatever a buffer cannot absorb keeps the link
///      feeding it busy past its nominal tail time.
///
/// Every instantiation but Ckpt keeps the event it processes out of the
/// heap: a header's next hop goes back through push_pop(), which hands it
/// straight back when it precedes every queued key (most pops on the large
/// boards) instead of sifting it in and out. Scalar link-claim runs also
/// fuse the final ejection into the last link claim, as the bucket loop
/// does. Neither changes a pop: every key pushed while processing an event
/// is strictly later than it (tl > 0 is validated), so the processed events
/// still come out in global key order. The Ckpt instantiation keeps every
/// queued event in the heap, because its snapshots read queue_.min().
template <bool Full, bool Ckpt, bool Flit>
void Simulator::run_heap_loop(SimulationResult& out, std::size_t delivered0,
                              double texec0, std::uint64_t pops0) {
  static_assert(!(Flit && Ckpt),
                "the flit backend's port state is not snapshotted");
  const std::size_t num_packets = cdcg_.num_packets();
  const double tr = tr_;
  const double tl = tl_;
  const FlitParams flit = flit_;
  std::size_t delivered_count = delivered0;
  double texec = texec0;

  // Router `hop` of `p`'s route claims links[hop] for the header arriving
  // at `arrival`; returns the header-out time.
  const auto claim_link = [&](graph::PacketId p, std::uint32_t hop,
                              double arrival) {
    const HotPacket& hp = hot_[p];
    const double n_tl = hp.n_tl;
    const noc::ResourceId link = hp.links[hop];
    const double free_at = link_free_[link];
    double wait = arrival < free_at ? free_at - arrival : 0.0;
    if constexpr (Flit) {
      // (a) Downstream admission. port_slot_free_/port_clear_ stay 0.0
      // for ports no worm could have filled, so the gate is +0.0 then.
      const double slot = port_slot_free_[link];
      const double gate = flit.vct ? port_clear_[link]
                                   : (flit.onoff && slot > 0.0 ? slot + tl
                                                               : slot);
      const double granted = arrival + wait;
      const double admit_wait = granted < gate ? gate - granted : 0.0;
      out.flit_stall_ns += admit_wait;
      wait += admit_wait;
    }
    contention_[p] += wait;
    out.total_contention_ns += wait;
    if constexpr (Full) {
      if (wait > 0.0) contended_down_[p] = 1;
    }
    const double header_out = arrival + wait + tr;
    link_free_[link] = header_out + n_tl;
    if constexpr (Flit) {
      hout_arena_[p * flit_stride_ + hop] = header_out;
      if (hop > 0) {
        drain_port(p, hop, header_out, out);  // (b)
        // (c) Backpressure cascade. The head stalled `wait`; its body
        // backs up into the buffers behind it, each stage absorbing what
        // fits, and any leftover keeps the link feeding that stage busy.
        // Under VCT the downstream buffer holds the whole worm (depth >=
        // flits, validated), so upstream links are never held.
        if (wait > 0.0 && !flit.vct) {
          const double* hout_row = &hout_arena_[p * flit_stride_];
          double remaining = wait;
          double body = flits_[p] - 1.0;  // Flits behind the head.
          double cap = flit.stage_slots - 1.0;  // The head holds one slot.
          std::uint32_t k = hop;
          while (k > 0 && body > 0.0) {
            const double park = std::min(body, cap > 0.0 ? cap : 0.0);
            remaining -= park * tl;
            body -= park;
            if (remaining <= 0.0 || body <= 0.0) break;
            const noc::ResourceId up = hp.links[k - 1];
            const double tail_done = hout_row[k - 1] + n_tl + remaining;
            if (tail_done > link_free_[up]) {
              out.flit_backpressure_ns += tail_done - link_free_[up];
              link_free_[up] = tail_done;
            }
            --k;
            cap = flit.stage_slots;
          }
        }
      }
    }
    if constexpr (Full) {
      if (options_.record_traces) {
        record_hop(p, hop, link, arrival, header_out, out);
      }
    }
    return header_out;
  };

  // Ejection from the last router to the destination core: never blocks
  // (the destination NI always accepts flits). Under the flit policy the
  // final router's input port still drains at flit rate, so following
  // worms see its slot-free / all-clear times.
  const auto eject = [&](graph::PacketId p, std::uint32_t hop,
                         double arrival) {
    const double header_out = arrival + tr;
    if constexpr (Flit) drain_port(p, hop, header_out, out);
    if constexpr (Full) {
      if (options_.record_traces) {
        record_hop(p, hop, dst_local_out_[p], arrival, header_out, out);
      }
    }
    deliver<Full, false>(p, header_out + hot_[p].n_tl, delivered_count,
                         texec, out);
  };

  if constexpr (Ckpt) {
    std::uint64_t pops = pops0;
    std::uint64_t next_rec =
        (pops0 / ckpt_interval_res_ + 1) * ckpt_interval_res_;
    while (!queue_.empty()) {
      if (pops == next_rec) {
        record_ckpt(pops, delivered_count, texec, out);
        next_rec += ckpt_interval_res_;
      }
      const detail::QueuedEvent ev = queue_.min();
      const graph::PacketId p = ev.packet();
      const std::uint32_t hop = ev.hop();
      if (hop + 1 != hot_[p].len) {
        const double header_out = claim_link(p, hop, ev.time_ns());
        ev_time_[p] = header_out + tl;
        ev_hop_[p] = hop + 1;
        // The header's next arrival replaces this event in one sift-down.
        queue_.replace_min(
            detail::QueuedEvent::make(header_out + tl, p, hop + 1));
      } else {
        queue_.pop_min();
        ev_state_[p] = 2;
        eject(p, hop, ev.time_ns());
      }
      ++pops;
    }
    ckpt_run_pops_ = pops;
    // End-of-run snapshot: it serves identity rebinds (re-evaluating the
    // same mapping restores it and replays nothing).
    if (ckpt_count_ == 0 || ckpts_[ckpt_count_ - 1].pops != pops) {
      record_ckpt(pops, delivered_count, texec, out);
    }
  } else if (!queue_.empty()) {
    // A delivery only releases successors, so a scalar link-claim run needs
    // no ejection event (the flit policy drains the last port, and traced
    // runs record the ejection hop).
    constexpr bool kFuseEjection = !Full && !Flit;
    detail::QueuedEvent ev = queue_.pop_min();
    for (;;) {
      const graph::PacketId p = ev.packet();
      const std::uint32_t hop = ev.hop();
      const HotPacket& hp = hot_[p];
      if (hop + 1 != hp.len) {
        const double header_out = claim_link(p, hop, ev.time_ns());
        if (!kFuseEjection || hop + 2 != hp.len) {
          ev = queue_.push_pop(
              detail::QueuedEvent::make(header_out + tl, p, hop + 1));
          continue;
        }
        // The association of the unfused ejection event: its arrival is
        // header_out + tl, then + tr, then + n_tl.
        deliver<false, false>(p, ((header_out + tl) + tr) + hp.n_tl,
                              delivered_count, texec, out);
      } else {
        eject(p, hop, ev.time_ns());
      }
      if (queue_.empty()) break;
      ev = queue_.pop_min();
    }
  }
  out.texec_ns = texec;

  if (delivered_count != num_packets) {
    throw std::logic_error("simulate: not all packets were delivered");
  }
}

/// The integer-time fast path. Same pop order and — because every quantity
/// is an exact integer-valued double — bit-for-bit the same arithmetic as
/// the general loop, minus work that cannot be observed in a scalar result:
/// the final ejection is fused into the last link claim (a delivery only
/// produces successor updates, and max(arrival, free_at) + tr equals
/// arrival + wait + tr exactly in integer arithmetic).
void Simulator::run_bucket_loop(SimulationResult& out,
                                std::size_t delivered0, double texec0) {
  const std::size_t num_packets = cdcg_.num_packets();
  const std::size_t stride = arena_stride_;
  const double tr = tr_;
  const double tl = tl_;
  std::size_t delivered_count = delivered0;
  double texec = texec0;
  while (delivered_count != num_packets) {
    std::size_t bucket;
    std::uint32_t p;
    std::uint32_t hop;
    bucket_.pop_min(bucket, p, hop);
    const double arrival = static_cast<double>(bucket);
    const HotPacket& hp = hot_[p];

    // Every queued event claims a link: routes have K >= 2 routers (cores
    // on distinct tiles), and the hop that would claim the last router is
    // fused into its predecessor below.
    const noc::ResourceId link = links_arena_[p * stride + hop];
    const double free_at = link_free_[link];
    const double wait = arrival < free_at ? free_at - arrival : 0.0;
    contention_[p] += wait;
    out.total_contention_ns += wait;
    const double header_out = std::max(arrival, free_at) + tr;
    link_free_[link] = header_out + hp.n_tl;

    if (hop + 2 == hp.len) {
      // This was the final link: eject without a further event. The
      // association matches the general loop: ((header_out + tl) + tr)
      // + n_tl.
      deliver<false, true>(p, ((header_out + tl) + tr) + hp.n_tl,
                           delivered_count, texec, out);
    } else {
      bucket_.push(static_cast<std::size_t>(header_out + tl), p, hop + 1);
    }
  }
  out.texec_ns = texec;
}

}  // namespace nocmap::sim
