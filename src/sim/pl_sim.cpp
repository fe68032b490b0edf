#include "sim/pl_sim.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "fault/injector.hpp"
#include "plogic/pl_schedule.hpp"
#include "sim/errors.hpp"

namespace plee::sim {

namespace {

/// The deposit count at which a max_events budget trips (saturating, so a
/// budget of UINT64_MAX never trips).
std::uint64_t over_budget(std::uint64_t max_events) {
    return max_events == std::numeric_limits<std::uint64_t>::max()
               ? max_events
               : max_events + 1;
}

}  // namespace

const char* to_string(queue_kind kind) {
    switch (kind) {
        case queue_kind::binary_heap: return "heap";
        case queue_kind::sweep: return "sweep";
    }
    return "?";
}

queue_kind queue_kind_from_string(const std::string& name) {
    if (name == "heap" || name == "binary_heap") return queue_kind::binary_heap;
    if (name == "sweep" || name == "calendar") return queue_kind::sweep;
    throw std::invalid_argument("unknown queue kind: '" + name +
                                "' (expected sweep | heap | binary_heap)");
}

pl_simulator::pl_simulator(const pl::pl_netlist& pl, sim_options options)
    : pl_(pl),
      options_(options),
      topo_(pl),
      schedule_(pl::make_firing_schedule(pl, topo_)),
      unsafe_(pl::find_unsafe_edge(pl, topo_, schedule_)) {
    const std::size_t num_gates = pl.num_gates();
    if (num_gates > (std::numeric_limits<std::uint32_t>::max() >> k_ref_pos_shift)) {
        throw std::length_error("pl_simulator: too many gates for the sweep");
    }
    // Sweep positions: the firing order, then the gates off it (they never
    // fire, but keep a record for the heap engine and the diagnostics).
    std::vector<pl::gate_id> gate_at(schedule_.order);
    std::vector<std::uint8_t> placed(num_gates, 0);
    for (const pl::gate_id g : gate_at) placed[g] = 1;
    for (pl::gate_id g = 0; g < num_gates; ++g) {
        if (placed[g] == 0) gate_at.push_back(g);
    }
    pos_.resize(num_gates);
    for (std::size_t i = 0; i < num_gates; ++i) {
        pos_[gate_at[i]] = static_cast<std::uint32_t>(i);
    }
    const auto ref_of = [&](pl::edge_id e) {
        const pl::pl_edge& edge = pl.edge(e);
        return pos_[edge.from] << k_ref_pos_shift |
               (edge.kind == pl::edge_kind::ack ? k_ref_ack : 0u) |
               (edge.init_token && edge.init_value ? k_ref_init : 0u) |
               (edge.init_token ? k_ref_marked : 0u);
    };

    desc_.resize(num_gates);
    in_count_.resize(num_gates);
    refs_.reserve(topo_.in_flat.size());
    for (std::size_t i = 0; i < num_gates; ++i) {
        const pl::gate_id g = gate_at[i];
        const pl::pl_gate& gate = pl.gate(g);
        gate_desc& d = desc_[i];
        d.kind = gate.kind;
        d.gate = g;
        d.num_data = static_cast<std::uint8_t>(gate.data_in.size());
        d.const_value = gate.const_value;
        d.num_out = static_cast<std::uint32_t>(gate.out_edges.size());
        d.master = gate.efire_in != pl::k_invalid_edge;
        if (d.master) d.efire = ref_of(gate.efire_in);
        d.ref_begin = static_cast<std::uint32_t>(refs_.size());
        for (const pl::edge_id e : gate.data_in) refs_.push_back(ref_of(e));
        for (const pl::edge_id e : gate.in_edges) {
            // Every in-edge that is not a pin: acks, efire, pinless data.
            const pl::pl_edge& edge = pl.edge(e);
            if (edge.kind == pl::edge_kind::ack || edge.to_pin < 0) {
                refs_.push_back(ref_of(e));
            }
        }
        d.ref_end = static_cast<std::uint32_t>(refs_.size());
        for (const pl::edge_id e : gate.out_edges) {
            const pl::pl_edge& edge = pl.edge(e);
            if (edge.init_token) continue;
            (edge.kind == pl::edge_kind::ack ? d.free_ack_out : d.free_data_out) = true;
        }
        d.fn_bits = gate.function.words();
        in_count_[g] = static_cast<std::uint32_t>(gate.in_edges.size());
        if (gate.trigger != pl::k_invalid_gate) {
            // Master of an EE pair: bake the trigger function and its
            // pin-packing map in, so no engine allocates at fire time.
            const pl::pl_gate& trig = pl.gate(gate.trigger);
            d.trig_fn_bits = trig.function.words();
            std::uint8_t count = 0;
            for (std::uint8_t v = 0; v < 32; ++v) {
                if ((trig.trigger_support >> v) & 1u) {
                    if (count >= sizeof(d.trig_pins)) {
                        throw std::logic_error(
                            "pl_simulator: trigger support wider than the "
                            "LUT pin limit");
                    }
                    d.trig_pins[count++] = v;
                }
            }
            d.trig_pin_count = count;
        }
    }
    for (std::size_t i = 0; i < pl.sources().size(); ++i) {
        desc_[pos_[pl.sources()[i]]].env_slot = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = 0; i < pl.sinks().size(); ++i) {
        desc_[pos_[pl.sinks()[i]]].env_slot = static_cast<std::uint32_t>(i);
    }
}

void pl_simulator::reset() {
    stats_ = {};
    trace_.clear();
    next_seq_ = 0;
    pending_ = in_count_;
    fired_waves_.assign(pl_.num_gates(), 0);
}

// ---------------------------------------------------------------------------
// Reference engine: binary heap over AoS token slots (the seed's hot path).
// ---------------------------------------------------------------------------

void pl_simulator::schedule(pl::edge_id edge, bool value, double time) {
    heap_.push_back({time, next_seq_++, edge, value});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

void pl_simulator::place(pl::edge_id edge, bool value, double time) {
    token_slot& slot = tokens_[edge];
    if (slot.present) {
        throw invariant_violation(
            "token deposited onto an occupied edge " + std::to_string(edge) +
                " (marked-graph safety violation)",
            options_.label, stats_.events, "heap");
    }
    slot = {true, value, time};
    const pl::pl_edge& e = pl_.edge(edge);
    if (options_.collect_trace && e.kind == pl::edge_kind::data) {
        trace_.push_back({time, edge, value});
    }
    if (--pending_[e.to] == 0) try_fire(e.to);
}

void pl_simulator::fire_source(pl::gate_id g) {
    const pl::pl_gate& gate = pl_.gate(g);
    // A source with acknowledge inputs fires once per enabling; a source with
    // no feedback constraints (all its acks were shared away, or it is being
    // abused in a hand-built netlist) free-runs through every released wave —
    // which is exactly how an over-eager environment overruns an unsafe
    // design, and the dynamic safety check then reports it.
    while (pending_[g] == 0) {
        const std::size_t wave = fired_waves_[g];
        if (wave >= num_waves_ || wave >= released_waves_) return;

        double t_ready = release_time_[wave];
        for (pl::edge_id e : gate.in_edges) t_ready = std::max(t_ready, tokens_[e].time);
        for (pl::edge_id e : gate.in_edges) {
            tokens_[e].present = false;
            ++pending_[g];
        }
        ++fired_waves_[g];
        ++stats_.firings;

        const bool value = stim_bit(wave, desc_[pos_[g]].env_slot);
        const double t_out = t_ready + options_.delays.d_source;
        input_stable_[wave] = std::max(input_stable_[wave], t_out);
        for (pl::edge_id e : gate.out_edges) schedule(e, value, t_out);
    }
}

void pl_simulator::record_sink(pl::gate_id g) {
    const pl::pl_gate& gate = pl_.gate(g);
    const pl::edge_id data_edge = gate.data_in.front();
    const token_slot tok = tokens_[data_edge];
    const std::size_t wave = fired_waves_[g];

    for (pl::edge_id e : gate.in_edges) {
        tokens_[e].present = false;
        ++pending_[g];
    }
    ++fired_waves_[g];
    ++stats_.firings;

    double t_ready = tok.time;
    for (pl::edge_id e : gate.in_edges) t_ready = std::max(t_ready, tokens_[e].time);
    for (pl::edge_id e : gate.out_edges) {
        schedule(e, false, t_ready + options_.delays.ack_delay());
    }

    if (wave >= num_waves_) return;  // drain beyond the measured horizon
    wave_outputs_[wave][desc_[pos_[g]].env_slot] = tok.value;
    output_stable_[wave] = std::max(output_stable_[wave], tok.time);
    if (--sinks_pending_[wave] == 0) {
        ++waves_stable_;
        if (options_.non_pipelined && wave + 1 < num_waves_) {
            release_time_[wave + 1] = output_stable_[wave];
            ++released_waves_;
            for (pl::gate_id src : pl_.sources()) {
                if (pending_[src] == 0) fire_source(src);
            }
        }
    }
}

void pl_simulator::try_fire(pl::gate_id g) {
    if (pending_[g] != 0) return;
    // Wave horizon: a live marked graph fires every gate exactly once per
    // wave, so an enabling past num_waves_ firings is post-completion drain
    // (tokens circulating a feedback loop after the last sink recorded).
    // Refusing it makes firings, events, and the EE hit/miss/win counters
    // order-independent — identical across queue disciplines and lane
    // policies — instead of depending on the race between loop circulation
    // and the final sink record popping.
    if (fired_waves_[g] >= num_waves_) return;
    const pl::pl_gate& gate = pl_.gate(g);

    switch (gate.kind) {
        case pl::gate_kind::source:
            fire_source(g);
            return;
        case pl::gate_kind::sink:
            record_sink(g);
            return;
        default:
            break;
    }

    // Common firing: compute readiness, consume, emit.
    double t_ready = 0.0;
    for (pl::edge_id e : gate.in_edges) t_ready = std::max(t_ready, tokens_[e].time);

    // Gather the LUT operand values before consuming.
    std::uint32_t minterm = 0;
    for (std::size_t pin = 0; pin < gate.data_in.size(); ++pin) {
        if (tokens_[gate.data_in[pin]].value) minterm |= 1u << pin;
    }
    double efire_time = 0.0;
    bool efire_value = false;
    const bool has_trigger = gate.efire_in != pl::k_invalid_edge;
    if (has_trigger) {
        efire_time = tokens_[gate.efire_in].time;
        efire_value = tokens_[gate.efire_in].value;
    }
    double t_data = 0.0;
    for (pl::edge_id e : gate.data_in) t_data = std::max(t_data, tokens_[e].time);

    for (pl::edge_id e : gate.in_edges) {
        tokens_[e].present = false;
        ++pending_[g];
    }
    ++fired_waves_[g];
    ++stats_.firings;

    bool value = false;
    double t_out = 0.0;
    switch (gate.kind) {
        case pl::gate_kind::const_source:
            value = gate.const_value;
            t_out = t_ready + options_.delays.d_source;
            break;
        case pl::gate_kind::through:
            value = (minterm & 1u) != 0;  // identity on the D token
            t_out = t_ready + options_.delays.through_delay();
            break;
        case pl::gate_kind::trigger:
            value = gate.function.eval(minterm);
            t_out = t_ready + options_.delays.gate_delay();
            break;
        case pl::gate_kind::compute: {
            value = gate.function.eval(minterm);
            if (!has_trigger) {
                t_out = t_ready + options_.delays.gate_delay();
                break;
            }
            // EE master: normal completion pays the extra C-element; a
            // 1-valued efire token opens the output latch early.
            const double normal =
                t_data + options_.delays.gate_delay() + options_.delays.d_ee_penalty;
            if (efire_value) {
                const double early = efire_time + options_.delays.efire_delay();
                t_out = std::min(early, normal);
                ++stats_.ee_hits;
                if (early < normal) ++stats_.ee_wins;
            } else {
                t_out = normal;
                ++stats_.ee_misses;
            }
            if (options_.check_early_value) {
                // Recompute the trigger from the master's consumed operands
                // through the precomputed pin-packing map.
                const gate_desc& d = desc_[pos_[g]];
                std::uint32_t packed = 0;
                for (std::uint8_t i = 0; i < d.trig_pin_count; ++i) {
                    packed |= ((minterm >> d.trig_pins[i]) & 1u) << i;
                }
                const bool trig_value =
                    (d.trig_fn_bits[packed >> 6] >> (packed & 63)) & 1u;
                if (trig_value != efire_value) {
                    throw invariant_violation(
                        "efire token disagrees with the trigger function (EE "
                        "invariant violated)",
                        options_.label, stats_.events, "heap");
                }
            }
            break;
        }
        default:
            throw invariant_violation("unexpected gate kind in firing",
                                      options_.label, stats_.events, "heap");
    }

    const double t_ack = t_ready + options_.delays.ack_delay();
    for (pl::edge_id e : gate.out_edges) {
        const pl::pl_edge& edge = pl_.edge(e);
        schedule(e, value, edge.kind == pl::edge_kind::ack ? t_ack : t_out);
    }
}

void pl_simulator::run_heap() {
    tokens_.assign(pl_.num_edges(), {});
    heap_.clear();
    // Initial marking: tokens in place at t = 0.
    for (pl::edge_id e = 0; e < pl_.num_edges(); ++e) {
        const pl::pl_edge& edge = pl_.edge(e);
        if (edge.init_token) {
            tokens_[e] = {true, edge.init_value, 0.0};
            --pending_[edge.to];
        }
    }

    // Kick off every gate enabled by the initial marking.
    for (pl::gate_id g = 0; g < pl_.num_gates(); ++g) {
        if (pending_[g] == 0 && !pl_.gate(g).in_edges.empty()) try_fire(g);
        // Sources with no acknowledge inputs (no consumers needing them) may
        // also be enabled with zero in-edges.
        if (pending_[g] == 0 && pl_.gate(g).in_edges.empty() &&
            pl_.gate(g).kind == pl::gate_kind::source &&
            !pl_.gate(g).out_edges.empty()) {
            try_fire(g);
        }
    }

    // Drain to quiescence: the wave-horizon cap in try_fire bounds the event
    // stream, and popping it fully (rather than stopping at stability) keeps
    // every stat independent of where the last sink record lands in the
    // queue's pop order.
    while (!heap_.empty()) {
        if (++stats_.events > options_.max_events) {
            throw budget_exhausted(options_.label, stats_.events, "heap");
        }
        if ((stats_.events & (k_cancel_check_events - 1)) == 0) {
            if (options_.cancel != nullptr && options_.cancel->expired()) {
                throw job_timeout("sim.events", options_.label, stats_.events);
            }
            fault::injector::instance().check("sim.fire", stats_.events);
            if (options_.recorder != nullptr) {
                options_.recorder->record("sim.progress", stats_.events,
                                          waves_stable_);
            }
        }
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        const deposit d = heap_.back();
        heap_.pop_back();
        place(d.edge, d.value, d.time);
    }
}

// ---------------------------------------------------------------------------
// Throughput engine: a static max-plus sweep, one topological pass per wave.
//
// Gate g's w-th firing consumes, on each in-edge, the token its consumption
// index w needs: the producer's w-th deposit on a token-free edge, the
// initial token (w = 0) or the producer's (w-1)-th deposit on a marked edge.
// Walking the gates in a token-free topological order, wave by wave, visits
// every producer's deposit before its consumer needs it, so each firing is
// the event loop's arithmetic applied to tokens already in place.
//
// A firing deposits one token per out-edge, but every data out-edge gets the
// same (time, value) and every ack out-edge the same time, so the sweep
// stores one slot per firing: gate slot p = k & 1 for firing k.  A consumer
// in wave w reads its producer's slot w & 1 over a token-free edge and
// (w - 1) & 1 over a marked one, i.e. parity p ^ marked.  Firing k + 2,
// which overwrites that slot, comes in wave k + 2, after every read of
// firing k (wave k or k + 1).  At wave 0 a marked edge hands over its
// initial token: time 0 (the zeroed slot of parity 1) and the value its
// ref carries, since one producer's marked edges may start with different
// values.
// ---------------------------------------------------------------------------

/// Checked mode only: may the gate at sweep position `pos` make its
/// wave-th firing?  Gates that die (miss a firing) stay dead, exactly as in
/// the event loop, where a gate whose input never arrives is never enabled
/// again.
bool pl_simulator::sweep_ready(std::uint32_t pos, std::size_t wave) const {
    const gate_desc& d = desc_[pos];
    if (schedule_.never_fires[d.gate] || fired_waves_[d.gate] != wave) return false;
    for (std::uint32_t i = d.ref_begin; i < d.ref_end; ++i) {
        const std::uint32_t ref = refs_[i];
        const pl::gate_id from = desc_[ref_pos(ref)].gate;
        if (fired_waves_[from] + (ref & k_ref_marked) <= wave) return false;
    }
    // Non-pipelined sources wait for the previous wave's outputs.
    return d.kind != pl::gate_kind::source || !options_.non_pipelined ||
           wave == 0 || sinks_pending_[wave - 1] == 0;
}

/// Slow path of the per-firing event count: runs the cancel poll, the
/// sim.fire fault point and the progress beat at every multiple of
/// k_cancel_check_events deposits up to `after` (the event loop's cadence),
/// then raises budget_exhausted at deposit max_events + 1.
void pl_simulator::sweep_poll(std::uint64_t& events, std::uint64_t after,
                              std::uint64_t& next_check, const char* engine) {
    const std::uint64_t max_events = options_.max_events;
    for (std::uint64_t m = (events / k_cancel_check_events + 1) *
                           k_cancel_check_events;
         m <= after && m <= max_events; m += k_cancel_check_events) {
        events = m;
        if (options_.cancel != nullptr && options_.cancel->expired()) {
            throw job_timeout("sim.events", options_.label, events);
        }
        fault::injector::instance().check("sim.fire", events);
        if (options_.recorder != nullptr) {
            options_.recorder->record("sim.progress", events, waves_stable_);
        }
    }
    if (after > max_events) {
        events = over_budget(max_events);
        throw budget_exhausted(options_.label, events, engine);
    }
    events = after;
    next_check = std::min(
        (after / k_cancel_check_events + 1) * k_cancel_check_events,
        over_budget(max_events));
}

void pl_simulator::run_sweep() {
    gate_slots_.assign(2 * desc_.size(), {});

    const delay_model& dm = options_.delays;
    const double d_gate = dm.gate_delay();
    const double d_through = dm.through_delay();
    const double d_ack = dm.ack_delay();
    const double d_efire = dm.efire_delay();
    const bool checked = schedule_.any_never_fires;
    const bool trace = options_.collect_trace;
    const std::uint32_t num_order = static_cast<std::uint32_t>(schedule_.order.size());
    const gate_desc* const desc = desc_.data();
    const std::uint32_t* const refs = refs_.data();
    gate_slot* const slots = gate_slots_.data();

    // Counters live in registers for the sweep and are written back on
    // every exit path.
    std::uint64_t events = 0, firings = 0, hits = 0, misses = 0, wins = 0;
    std::uint64_t next_check =
        std::min(k_cancel_check_events, over_budget(options_.max_events));
    const auto flush = [&] {
        stats_.events = events;
        stats_.firings = firings;
        stats_.ee_hits = hits;
        stats_.ee_misses = misses;
        stats_.ee_wins = wins;
    };
    try {
        for (std::size_t w = 0; w < num_waves_; ++w) {
            const std::uint32_t p = w & 1u;
            const bool first = w == 0;
            // The slot a ref reads in this wave, and the value it hands over.
            const auto slot = [&](std::uint32_t ref) -> const gate_slot& {
                return slots[(ref_pos(ref) << 1) | ((ref ^ p) & k_ref_marked)];
            };
            const auto value_of = [&](std::uint32_t ref, const gate_slot& s) {
                return first && (ref & k_ref_marked) ? (ref & k_ref_init) != 0
                                                     : s.value;
            };
            for (std::uint32_t pos = 0; pos < num_order; ++pos) {
                if (checked && !sweep_ready(pos, w)) continue;
                const gate_desc& d = desc[pos];
                const std::uint32_t* const data = refs + d.ref_begin;
                double t_data = 0.0;
                std::uint32_t minterm = 0;
                for (std::uint8_t pin = 0; pin < d.num_data; ++pin) {
                    const gate_slot& s = slot(data[pin]);
                    minterm |= static_cast<std::uint32_t>(value_of(data[pin], s)) << pin;
                    t_data = std::max(t_data, s.time[0]);
                }
                double t_ready = d.kind == pl::gate_kind::source
                                     ? std::max(release_time_[w], t_data)
                                     : t_data;
                for (std::uint32_t i = d.ref_begin + d.num_data; i < d.ref_end; ++i) {
                    const std::uint32_t ref = refs[i];
                    t_ready = std::max(t_ready, slot(ref).time[(ref & k_ref_ack) != 0]);
                }
                bool value = false;
                double t_out = 0.0;
                double t_ack = t_ready + d_ack;
                switch (d.kind) {
                    case pl::gate_kind::source:
                        value = stim_bit(w, d.env_slot);
                        t_out = t_ack = t_ready + dm.d_source;
                        input_stable_[w] = std::max(input_stable_[w], t_out);
                        break;
                    case pl::gate_kind::sink:  // one data pin
                        wave_outputs_[w][d.env_slot] = (minterm & 1u) != 0;
                        output_stable_[w] = std::max(output_stable_[w], t_data);
                        --sinks_pending_[w];
                        t_out = t_ack;
                        break;
                    case pl::gate_kind::const_source:
                        value = d.const_value;
                        t_out = t_ready + dm.d_source;
                        break;
                    case pl::gate_kind::through:
                        value = (minterm & 1u) != 0;
                        t_out = t_ready + d_through;
                        break;
                    case pl::gate_kind::trigger:
                    case pl::gate_kind::compute: {
                        value = (d.fn_bits[minterm >> 6] >> (minterm & 63)) & 1u;
                        if (!d.master) {
                            t_out = t_ready + d_gate;
                            break;
                        }
                        // EE master: normal completion pays the extra
                        // C-element; a 1-valued efire token opens the output
                        // latch early.
                        const gate_slot& ef = slot(d.efire);
                        const bool efire = value_of(d.efire, ef);
                        const double normal = t_data + d_gate + dm.d_ee_penalty;
                        if (efire) {
                            const double early = ef.time[0] + d_efire;
                            t_out = std::min(early, normal);
                            ++hits;
                            if (early < normal) ++wins;
                        } else {
                            t_out = normal;
                            ++misses;
                        }
                        if (options_.check_early_value) {
                            std::uint32_t packed = 0;
                            for (std::uint8_t i = 0; i < d.trig_pin_count; ++i) {
                                packed |= ((minterm >> d.trig_pins[i]) & 1u) << i;
                            }
                            const bool trig_value =
                                (d.trig_fn_bits[packed >> 6] >> (packed & 63)) & 1u;
                            if (trig_value != efire) {
                                throw invariant_violation(
                                    "efire token disagrees with the trigger "
                                    "function (EE invariant violated)",
                                    options_.label, events, "sweep");
                            }
                        }
                        break;
                    }
                }
                ++firings;
                const std::uint64_t after = events + d.num_out;
                if (after >= next_check) {
                    sweep_poll(events, after, next_check, "sweep");
                } else {
                    events = after;
                }
                gate_slot& out = slots[(pos << 1) | p];
                out.time[0] = t_out;
                out.time[1] = t_ack;
                out.value = value;
                if (trace) {
                    for (std::uint32_t i = topo_.out_off[d.gate];
                         i < topo_.out_off[d.gate + 1]; ++i) {
                        const pl::edge_id e = topo_.out_flat[i];
                        if (pl_.edge(e).kind == pl::edge_kind::data) {
                            trace_.push_back({t_out, e, value});
                        }
                    }
                }
                if (checked) ++fired_waves_[d.gate];
            }
            if (sinks_pending_[w] == 0) {
                ++waves_stable_;
                if (options_.non_pipelined && w + 1 < num_waves_) {
                    release_time_[w + 1] = output_stable_[w];
                }
            }
        }
    } catch (...) {
        flush();
        throw;
    }
    flush();
    if (trace) {
        std::stable_sort(trace_.begin(), trace_.end(), trace_order);
    }
}

// ---------------------------------------------------------------------------
// Engine-independent driver.
// ---------------------------------------------------------------------------

std::vector<wave_record> pl_simulator::run(
    const std::vector<std::vector<bool>>& vectors) {
    for (const auto& v : vectors) {
        if (v.size() != pl_.sources().size()) {
            throw std::invalid_argument("pl_simulator::run: vector width mismatch");
        }
    }
    // Transpose into the packed layout every engine reads from.
    const std::size_t width = pl_.sources().size();
    packed_stim_.assign((vectors.size() + k_lanes - 1) / k_lanes, {});
    for (auto& block : packed_stim_) {
        block.width = width;
        block.words.assign(width, 0);
    }
    for (std::size_t w = 0; w < vectors.size(); ++w) {
        stimulus_block& block = packed_stim_[w / k_lanes];
        block.num_vectors = w % k_lanes + 1;
        const std::uint64_t lane_bit = std::uint64_t{1} << (w % k_lanes);
        for (std::size_t i = 0; i < width; ++i) {
            if (vectors[w][i]) block.words[i] |= lane_bit;
        }
    }
    return run_packed(packed_stim_);
}

std::vector<wave_record> pl_simulator::run_packed(
    const std::vector<stimulus_block>& blocks) {
    std::size_t count = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        if (blocks[b].width != pl_.sources().size()) {
            throw std::invalid_argument("pl_simulator::run: vector width mismatch");
        }
        if (blocks[b].num_vectors == 0 || blocks[b].num_vectors > k_lanes ||
            (b + 1 < blocks.size() && blocks[b].num_vectors != k_lanes)) {
            throw std::invalid_argument(
                "pl_simulator::run: every stimulus block except the last "
                "must hold exactly 64 vectors");
        }
        count += blocks[b].num_vectors;
    }
    if (pl_.sinks().empty()) {
        throw std::invalid_argument("pl_simulator::run: netlist has no outputs");
    }

    reset();
    stim_ = blocks.data();
    num_waves_ = count;
    released_waves_ = options_.non_pipelined ? 1 : num_waves_;
    release_time_.assign(num_waves_, 0.0);
    input_stable_.assign(num_waves_, 0.0);
    output_stable_.assign(num_waves_, 0.0);
    sinks_pending_.assign(num_waves_, pl_.sinks().size());
    waves_stable_ = 0;
    wave_outputs_.assign(num_waves_, std::vector<bool>(pl_.sinks().size(), false));
    if (options_.collect_trace) {
        // One data token per data edge per wave in the common case.
        trace_.reserve(std::min<std::size_t>(num_waves_ * topo_.num_data_edges,
                                             std::size_t{1} << 20));
    }

    const bool use_heap = options_.queue == queue_kind::binary_heap;
    if (!unsafe_.empty()) {
        throw invariant_violation(unsafe_, options_.label, 0,
                                  use_heap ? "heap" : "sweep");
    }
    if (use_heap) {
        run_heap();
    } else {
        run_sweep();
    }
    if (waves_stable_ < num_waves_) {
        throw deadlock_error(options_.label, deadlock_diagnostic(),
                             stats_.events, use_heap ? "heap" : "sweep");
    }

    std::vector<wave_record> records;
    records.reserve(num_waves_);
    for (std::size_t w = 0; w < num_waves_; ++w) {
        wave_record rec;
        rec.outputs = wave_outputs_[w];
        rec.release_time = release_time_[w];
        rec.input_stable = input_stable_[w];
        rec.output_stable = output_stable_[w];
        records.push_back(std::move(rec));
    }
    return records;
}

// ---------------------------------------------------------------------------
// Lane sweep: 64 independent single-vector runs in one one-wave sweep.
//
// The wave sweep with num_waves_ = 1, over 64-bit value words.  A one-wave
// run reads, over a token-free edge, its producer's only firing, and over a
// marked edge the initial token: every marked ref points at one of two
// constant slots past the positions (initial value 0 or 1), and a deposit
// onto a marked edge lands behind that token and is never read.  So each
// firing writes one lane slot and no per-edge state exists.  Token times
// follow the max/min recurrence lane by lane.  A slot keeps one shared time
// per output kind until an EE master's mixed efire word lets the early path
// win on some lanes only; from there, a firing whose lanes disagree writes
// its 64 times once into a slab (one for its data outputs, one for its
// acks), and its slot points to that slab.
// ---------------------------------------------------------------------------

namespace {

/// True when the 64 lane times are not all bit-identical.  Elementwise
/// XOR/OR over the bit patterns, not a min/max or compare reduction: this
/// vectorizes.
bool lanes_differ(const double* t) {
    const std::uint64_t first = std::bit_cast<std::uint64_t>(t[0]);
    std::uint64_t diff = 0;
    for (std::size_t l = 0; l < k_lanes; ++l) {
        diff |= std::bit_cast<std::uint64_t>(t[l]) ^ first;
    }
    return diff != 0;
}

}  // namespace

void pl_simulator::gather_lane_times(const std::uint32_t* refs,
                                     std::uint32_t begin, std::uint32_t end,
                                     double floor, double* out) const {
    std::uint32_t last = 0;
    for (std::uint32_t i = begin; i < end; ++i) {
        const std::uint32_t ref = refs[i];
        const std::uint32_t slab =
            lane_slots_[lane_index(ref)].slab[(ref & k_ref_ack) != 0];
        if (slab == 0 || slab == last) continue;
        const double* const t = lane_times(slab);
        if (last == 0) {
            for (std::size_t l = 0; l < k_lanes; ++l) out[l] = std::max(floor, t[l]);
        } else {
            for (std::size_t l = 0; l < k_lanes; ++l) out[l] = std::max(out[l], t[l]);
        }
        last = slab;
    }
    if (last == 0) {
        for (std::size_t l = 0; l < k_lanes; ++l) out[l] = floor;
    }
}

double* pl_simulator::next_lane_slabs() {
    if (lane_slabs_.size() < lane_slab_end_ + 2 * k_lanes) {
        lane_slabs_.resize(std::max(2 * lane_slabs_.size(),
                                    lane_slab_end_ + 2 * k_lanes));
    }
    return lane_slabs_.data() + lane_slab_end_;
}

void pl_simulator::run_lane_sweep(const stimulus_block& block,
                                  lane_block_result& result) {
    // Position slots are written before they are read, and the two initial
    // tokens never change, so the slots need setting up only once per
    // simulator.
    const std::size_t num_pos = desc_.size();
    if (lane_slots_.size() != num_pos + 2) {
        lane_slots_.assign(num_pos + 2, {});
        lane_slots_[num_pos + 1].word = ~std::uint64_t{0};
    }
    lane_slab_end_ = 0;
    num_waves_ = 1;
    sinks_pending_.assign(1, pl_.sinks().size());
    waves_stable_ = 0;

    const std::uint64_t mask = block.lane_mask();
    const delay_model& dm = options_.delays;
    const double d_gate = dm.gate_delay();
    const double d_through = dm.through_delay();
    const double d_ack = dm.ack_delay();
    const double d_efire = dm.efire_delay();
    const bool checked = schedule_.any_never_fires;
    const std::uint32_t num_order = static_cast<std::uint32_t>(schedule_.order.size());
    const std::uint32_t* const refs = refs_.data();
    lane_slot* const slots = lane_slots_.data();

    std::uint64_t events = 0, firings = 0, hits = 0, misses = 0, wins = 0,
                  splits = 0;
    std::uint64_t next_check =
        std::min(k_cancel_check_events, over_budget(options_.max_events));
    const auto flush = [&] {
        stats_.events = events;
        stats_.firings = firings;
        stats_.ee_hits = hits;
        stats_.ee_misses = misses;
        stats_.ee_wins = wins;
        stats_.lane_splits = splits;
    };
    // Stable times: a shared part, plus a per-lane part from slab tokens.
    double in_shared = 0.0, out_shared = 0.0;
    std::array<double, k_lanes> in_lane{}, out_lane{};
    try {
        for (std::uint32_t pos = 0; pos < num_order; ++pos) {
            if (checked && !sweep_ready(pos, 0)) continue;
            const gate_desc& d = desc_[pos];
            // Shared times (a slab token's time is 0, which adds nothing
            // to a max from 0), and whether any input's lanes disagree.
            std::uint64_t ins[bf::k_max_vars];
            double t_data = 0.0;
            bool vary = false;
            for (std::uint8_t pin = 0; pin < d.num_data; ++pin) {
                const lane_slot& t = slots[lane_index(refs[d.ref_begin + pin])];
                ins[pin] = t.word;
                t_data = std::max(t_data, t.time[0]);
                vary |= t.slab[0] != 0;
            }
            double t_ready = t_data;
            for (std::uint32_t i = d.ref_begin + d.num_data; i < d.ref_end; ++i) {
                const std::uint32_t ref = refs[i];
                const unsigned kind = (ref & k_ref_ack) != 0;
                const lane_slot& t = slots[lane_index(ref)];
                t_ready = std::max(t_ready, t.time[kind]);
                vary |= t.slab[kind] != 0;
            }

            // Values: timing-independent, one word for all lanes.
            std::uint64_t word = 0;
            std::uint64_t hit = 0;
            switch (d.kind) {
                case pl::gate_kind::source:
                    word = block.words[d.env_slot];
                    break;
                case pl::gate_kind::sink:
                    result.outputs[d.env_slot] = ins[0] & mask;
                    if (--sinks_pending_[0] == 0) ++waves_stable_;
                    break;
                case pl::gate_kind::const_source:
                    word = d.const_value ? ~std::uint64_t{0} : 0;
                    break;
                case pl::gate_kind::through:
                    word = d.num_data != 0 ? ins[0] : 0;
                    break;
                case pl::gate_kind::trigger:
                case pl::gate_kind::compute:
                    word = bf::truth_table::eval_word_lanes(d.fn_bits.data(),
                                                            d.num_data, ins);
                    break;
            }
            const lane_slot* const efire_slot =
                d.master ? &slots[lane_index(d.efire)] : nullptr;
            if (d.master) {
                const std::uint64_t efire = efire_slot->word;
                if (options_.check_early_value) {
                    std::uint64_t tins[bf::k_max_vars];
                    for (std::uint8_t i = 0; i < d.trig_pin_count; ++i) {
                        tins[i] = ins[d.trig_pins[i]];
                    }
                    const std::uint64_t trig = bf::truth_table::eval_word_lanes(
                        d.trig_fn_bits.data(), d.trig_pin_count, tins);
                    if ((trig ^ efire) & mask) {
                        throw invariant_violation(
                            "efire token disagrees with the trigger function "
                            "(EE invariant violated)",
                            options_.label, events, "lanes");
                    }
                }
                hit = efire & mask;
                hits += static_cast<std::uint64_t>(std::popcount(hit));
                misses += static_cast<std::uint64_t>(std::popcount(mask & ~efire));
            }

            // Times: the sweep's arithmetic, shared while every input has
            // one time, per lane once some input's lanes disagree.  Per-lane
            // times are computed in place at the slab arena's end (data
            // outputs, then acks) and kept only if the lanes disagree and
            // some token-free out-edge will read them.
            double t_out = 0.0;
            double t_ack = t_ready + d_ack;
            std::uint32_t out_slab = 0;
            std::uint32_t ack_slab = 0;
            if (!vary) {
                switch (d.kind) {
                    case pl::gate_kind::source:
                        t_out = t_ack = t_ready + dm.d_source;
                        in_shared = std::max(in_shared, t_out);
                        break;
                    case pl::gate_kind::sink:
                        out_shared = std::max(out_shared, t_data);
                        break;
                    case pl::gate_kind::const_source:
                        t_out = t_ready + dm.d_source;
                        break;
                    case pl::gate_kind::through:
                        t_out = t_ready + d_through;
                        break;
                    case pl::gate_kind::trigger:
                    case pl::gate_kind::compute: {
                        if (!d.master) {
                            t_out = t_ready + d_gate;
                            break;
                        }
                        const double normal = t_data + d_gate + dm.d_ee_penalty;
                        const double early = efire_slot->time[0] + d_efire;
                        t_out = hit == mask ? std::min(early, normal) : normal;
                        if (early < normal) {
                            wins += static_cast<std::uint64_t>(std::popcount(hit));
                            if (hit != 0 && hit != mask) {
                                // The lanes diverge here: hits take the
                                // early path, misses the normal one.
                                ++splits;
                                if (d.free_data_out) {
                                    double* const to = next_lane_slabs();
                                    for (std::size_t l = 0; l < k_lanes; ++l) {
                                        to[l] = (hit >> l) & 1u ? early : normal;
                                    }
                                    lane_slab_end_ += k_lanes;
                                    out_slab = static_cast<std::uint32_t>(
                                        lane_slab_end_ / k_lanes);
                                    t_out = 0.0;
                                }
                            }
                        }
                        break;
                    }
                }
            } else {
                double* const to = next_lane_slabs();
                double* const ta = to + k_lanes;
                alignas(64) double tr[k_lanes];
                gather_lane_times(refs, d.ref_begin, d.ref_end, t_ready, tr);
                switch (d.kind) {
                    case pl::gate_kind::source:
                        for (std::size_t l = 0; l < k_lanes; ++l) {
                            to[l] = tr[l] + dm.d_source;
                            in_lane[l] = std::max(in_lane[l], to[l]);
                        }
                        break;
                    case pl::gate_kind::sink: {
                        const lane_slot& t = slots[lane_index(refs[d.ref_begin])];
                        if (t.slab[0] == 0) {
                            out_shared = std::max(out_shared, t.time[0]);
                        } else {
                            const double* const tv = lane_times(t.slab[0]);
                            for (std::size_t l = 0; l < k_lanes; ++l) {
                                out_lane[l] = std::max(out_lane[l], tv[l]);
                            }
                        }
                        break;
                    }
                    case pl::gate_kind::const_source:
                        for (std::size_t l = 0; l < k_lanes; ++l) to[l] = tr[l] + dm.d_source;
                        break;
                    case pl::gate_kind::through:
                        for (std::size_t l = 0; l < k_lanes; ++l) to[l] = tr[l] + d_through;
                        break;
                    case pl::gate_kind::trigger:
                    case pl::gate_kind::compute: {
                        if (!d.master) {
                            for (std::size_t l = 0; l < k_lanes; ++l) to[l] = tr[l] + d_gate;
                            break;
                        }
                        alignas(64) double td[k_lanes];
                        alignas(64) double ef[k_lanes];
                        gather_lane_times(refs, d.ref_begin,
                                          d.ref_begin + d.num_data, t_data, td);
                        gather_lane_times(&d.efire, 0, 1, efire_slot->time[0], ef);
                        std::uint64_t divergent = 0;
                        for (std::size_t l = 0; l < k_lanes; ++l) {
                            const double normal = td[l] + d_gate + dm.d_ee_penalty;
                            const double early = ef[l] + d_efire;
                            const bool h = (hit >> l) & 1u;
                            to[l] = h ? std::min(early, normal) : normal;
                            divergent |= static_cast<std::uint64_t>(h && early < normal) << l;
                        }
                        wins += static_cast<std::uint64_t>(std::popcount(divergent));
                        if (hit != 0 && hit != mask && divergent != 0) ++splits;
                        break;
                    }
                }
                const std::size_t base = lane_slab_end_ / k_lanes;
                if (d.free_data_out) {
                    if (lanes_differ(to)) {
                        out_slab = static_cast<std::uint32_t>(base + 1);
                        lane_slab_end_ = (base + 1) * k_lanes;
                    } else {
                        t_out = to[0];
                    }
                }
                if (d.free_ack_out) {
                    if (d.kind == pl::gate_kind::source) {
                        std::copy(to, to + k_lanes, ta);  // acks leave with the data
                    } else {
                        for (std::size_t l = 0; l < k_lanes; ++l) ta[l] = tr[l] + d_ack;
                    }
                    if (lanes_differ(ta)) {
                        ack_slab = static_cast<std::uint32_t>(base + 2);
                        lane_slab_end_ = (base + 2) * k_lanes;
                        t_ack = 0.0;
                    } else {
                        t_ack = ta[0];
                    }
                }
            }

            ++firings;
            const std::uint64_t after = events + d.num_out;
            if (after >= next_check) {
                sweep_poll(events, after, next_check, "lanes");
            } else {
                events = after;
            }
            slots[pos] = {word, {t_out, t_ack}, {out_slab, ack_slab}};
            if (checked) ++fired_waves_[d.gate];
        }
    } catch (...) {
        flush();
        throw;
    }
    flush();
    if (waves_stable_ < num_waves_) {
        throw deadlock_error(options_.label, deadlock_diagnostic(), events,
                             "lanes");
    }
    stats_.lane_runs = 1;
    for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1) {
        const std::size_t lane = static_cast<std::size_t>(std::countr_zero(rest));
        result.input_stable[lane] = std::max(in_shared, in_lane[lane]);
        result.output_stable[lane] = std::max(out_shared, out_lane[lane]);
    }
}

lane_block_result pl_simulator::run_lanes(const stimulus_block& block) {
    if (block.width != pl_.sources().size()) {
        throw std::invalid_argument("pl_simulator::run_lanes: width mismatch");
    }
    if (block.num_vectors == 0 || block.num_vectors > k_lanes) {
        throw std::invalid_argument(
            "pl_simulator::run_lanes: block must hold 1..64 vectors");
    }
    if (pl_.sinks().empty()) {
        throw std::invalid_argument(
            "pl_simulator::run_lanes: netlist has no outputs");
    }
    if (options_.collect_trace) {
        throw std::invalid_argument(
            "pl_simulator::run_lanes: waveform tracing requires the scalar "
            "engine (lane tokens have no single trace value)");
    }

    lane_block_result result;
    result.num_vectors = block.num_vectors;
    result.outputs.assign(pl_.sinks().size(), 0);

    const bool use_heap = options_.queue == queue_kind::binary_heap;
    if (schedule_.order.size() < pl_.num_gates()) {
        // A token-free cycle: its gates never fire.  Behind a register it
        // starves only the waves after the first, which a one-wave run never
        // reaches, so both lane engines reject it before any firing.
        reset();
        stats_.lane_blocks = 1;
        stats_.lane_vectors = block.num_vectors;
        const pl::gate_id g = desc_[schedule_.order.size()].gate;
        throw deadlock_error(
            options_.label,
            "0/1 waves stable, gate " + std::to_string(g) + " '" +
                pl_.gate(g).name + "' is on or behind a token-free cycle",
            0, use_heap ? "heap" : "lanes");
    }
    if (use_heap) {
        // The lane oracle: one serial run per lane.  Stats are summed so
        // callers see block totals, and the running total is committed
        // before a rethrow so a lane that throws mid-loop leaves
        // block-consistent counters behind (its own partial stats included).
        sim_run_stats total{};
        total.lane_blocks = 1;
        total.lane_vectors = block.num_vectors;
        std::vector<std::vector<bool>> one(1);
        for (std::size_t lane = 0; lane < block.num_vectors; ++lane) {
            block.extract(lane, one.front());
            std::vector<wave_record> recs;
            try {
                recs = run(one);
            } catch (...) {
                total += stats_;
                stats_ = total;
                throw;
            }
            total += stats_;
            ++total.lane_runs;
            const wave_record& rec = recs.front();
            for (std::size_t j = 0; j < rec.outputs.size(); ++j) {
                if (rec.outputs[j]) {
                    result.outputs[j] |= std::uint64_t{1} << lane;
                }
            }
            result.input_stable[lane] = rec.input_stable;
            result.output_stable[lane] = rec.output_stable;
            result.release[lane] = rec.release_time;
        }
        stats_ = total;
        return result;
    }

    reset();
    stats_.lane_blocks = 1;
    stats_.lane_vectors = block.num_vectors;
    if (!unsafe_.empty()) {
        throw invariant_violation(unsafe_, options_.label, 0, "lanes");
    }
    run_lane_sweep(block, result);
    return result;
}

std::string pl_simulator::deadlock_diagnostic() const {
    // At quiescence an in-edge is empty exactly when its producer's deposits
    // plus its marking are all consumed — the same end state for every
    // engine, whether it tracked tokens (event loops) or not (the sweep).
    const auto missing = [&](pl::gate_id g) {
        std::uint32_t count = 0;
        for (std::uint32_t i = topo_.in_off[g]; i < topo_.in_off[g + 1]; ++i) {
            const pl::pl_edge& e = pl_.edge(topo_.in_flat[i]);
            count += fired_waves_[e.from] + (e.init_token ? 1u : 0u) <= fired_waves_[g];
        }
        return count;
    };
    std::size_t starving = 0;
    pl::gate_id example = pl::k_invalid_gate;
    for (pl::gate_id g = 0; g < pl_.num_gates(); ++g) {
        if (missing(g) > 0) {
            ++starving;
            if (example == pl::k_invalid_gate) example = g;
        }
    }
    std::string msg = std::to_string(waves_stable_) + "/" +
                      std::to_string(num_waves_) + " waves stable, " +
                      std::to_string(starving) + " gates waiting";
    if (example != pl::k_invalid_gate) {
        msg += " (first: gate " + std::to_string(example) + " '" +
               pl_.gate(example).name + "' missing " +
               std::to_string(missing(example)) + " tokens)";
    }
    return msg;
}

}  // namespace plee::sim
