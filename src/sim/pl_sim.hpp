// pl_sim.hpp — token-level simulator for Phased Logic netlists.
//
// Simulates the marked-graph semantics of a PL circuit with valued tokens and
// the delay model of delay_model.hpp.  A gate fires the moment a token is
// present on every input edge (the Muller-C completion rule); firing consumes
// one token per input edge and deposits tokens on every output edge at
// analytically computed times.  Early Evaluation masters fire their *output*
// early when the efire token carries 1, while handshaking (acknowledges,
// token consumption) still waits for full completion — exactly the decoupling
// of Figure 2.
//
// The measurement protocol matches Section 4: "we determined the average
// delay time between the presence of a stable input vector and a stable
// output word. In a PL circuit, new values cannot be presented to the inputs
// until a stable output is generated for the current input values."  In the
// default non-pipelined mode the environment releases input vector k+1 when
// all primary outputs of vector k have arrived.  A pipelined mode (tokens
// streamed as fast as the acknowledges allow) is provided as an extension.
//
// The simulator doubles as a checker of the marked-graph theory: an edge
// that can hold two tokens (safety violation) or a deadlock before the run
// completes (liveness violation) raises an error.
//
// ## Two engines
//
// The simulator is the dominant per-circuit cost of a fleet job (the measure
// phase dwarfs the EE phase), so every entry point exists twice behind
// sim_options::queue:
//
//  * queue_kind::sweep (default) — the throughput engine, a static max-plus
//    wave sweep with no event queue at all.  In a live marked graph every
//    gate fires exactly once per wave, and each firing's time and value are
//    a max/min recurrence over the tokens it consumes, so wave w is one pass
//    over the gates in a topological order of the token-free edges (like a
//    static timing analysis).  A token-free edge hands the consumer the
//    producer's w-th deposit; a marked edge hands it the initial token at
//    w = 0 and the (w-1)-th deposit after that.  A firing deposits the same
//    (time, value) on all its data out-edges and the same time on all its
//    acks, so each gate keeps one {output time, ack time, value} slot per
//    firing parity, laid out in firing order.  A consumer reads its
//    producer's slot at parity (w & 1) ^ marked through a precomputed ref;
//    at w = 0 a marked ref supplies its edge's initial value itself.  A
//    firing costs one read per in-edge and one write.  Gates that can
//    never fire (a token-free cycle, or no inputs and no stimulus) switch
//    the sweep to per-firing readiness checks so the run stops at exactly
//    the firings the event loop would have reached.
//
//  * queue_kind::binary_heap — the seed's std::push_heap event loop over
//    array-of-structs token slots, kept as the independent oracle; it also
//    checks safety dynamically as deposits land.
//
// Under both engines, every run first checks safety structurally (every
// edge on a cycle carrying exactly one token; the environment's release
// hand-off is no token): the pipeline's only marked-graph check.
//
// Both engines produce bit-identical wave records and stats (events =
// deposits, firings, EE hits/misses/wins) — asserted over the ITC99 suite,
// every workload preset, plain and EE'd, under four delay models, and over
// random live and checked-mode marked graphs by tests/test_sim_queue.cpp,
// and at bench time by bench_sim_queue.  Traces hold the same token
// arrivals; the heap's are in pop order, the sweep's in (time, edge) order.
//
// ## Lane-parallel mode (run_lanes)
//
// run_lanes packs 64 independent single-vector simulations into one pass:
// every data token carries a 64-bit value word (bit L = lane L's value), and
// LUT and trigger evaluation run through the mux-tree word kernel
// bf::truth_table::eval_word_lanes.  Under queue_kind::sweep the pass is
// the wave sweep with one wave: each gate fires once, in the same firing
// order, over the same refs, with the same structural safety check and the
// same budget, cancel and deadlock handling.  A one-wave run reads a
// producer's only firing over a token-free edge and the initial token over
// a marked one, so each firing writes one lane slot, and marked refs read
// one of two constant initial-token slots.  Token values are
// timing-independent, so the value words are right for every lane.  Token
// times obey the same max/min recurrence per lane; they stay one shared
// scalar until an EE master's mixed efire word lets some lanes take the
// early path, and from there a firing whose per-lane times differ writes
// them once into a 64-double slab (one for its data outputs, one for its
// acks) that its slot points to.  A token-free cycle (a gate off the firing
// order) raises deadlock_error before any firing: behind a register it
// starves only later waves, which a one-wave run never reaches.  Lane L of
// the result is bit-identical to a serial run({vector L}) (asserted by
// tests/test_lane_sim.cpp over every workload preset and ITC99 b01-b10,
// plain and EE'd, under four delay models).  Under queue_kind::binary_heap
// run_lanes makes 64 serial run() calls instead: the lane oracle.  See
// src/sim/README.md.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bool/truth_table.hpp"

#include "obs/flight_recorder.hpp"
#include "plogic/pl_flat.hpp"
#include "plogic/pl_netlist.hpp"
#include "plogic/pl_schedule.hpp"
#include "rt/cancel.hpp"
#include "sim/delay_model.hpp"
#include "sim/stimulus.hpp"

namespace plee::sim {

/// Which engine runs the simulation.  Results are bit-identical either way;
/// only throughput differs.
enum class queue_kind : std::uint8_t {
    binary_heap,  ///< oracle: std::push_heap event loop over deposit structs
    /// The throughput engine (default): the wave sweep, over every wave for
    /// run/run_packed and over one wave of 64-bit words for run_lanes.
    sweep,
};

struct sim_options {
    delay_model delays{};
    /// Environment mode: true = vector-at-a-time (the paper's measurement),
    /// false = streaming tokens limited only by the handshakes.
    bool non_pipelined = true;
    /// Verify the EE invariant on every early fire: the trigger value
    /// recomputed from the master's consumed inputs must match the efire
    /// token, and a 1 trigger implies the subset determines the output.
    /// Affordable by default: the per-master pin-packing map is precomputed,
    /// so the check is a handful of shifts per EE firing.
    bool check_early_value = true;
    /// Record every data-token arrival for waveform (VCD) export.
    bool collect_trace = false;
    /// Hard limit on token deposits (runaway guard).  The (max_events + 1)-th
    /// deposit raises sim::budget_exhausted (see sim/errors.hpp).
    std::uint64_t max_events = 100'000'000;
    /// Engine selection (see queue_kind).
    queue_kind queue = queue_kind::sweep;
    /// Circuit/job label embedded in every typed simulator failure, so fleet
    /// logs can attribute a throw to its job ("b05", "datapath-like/3").
    std::string label;
    /// Cooperative cancellation: every engine polls the token once per
    /// k_cancel_check_events deposits and raises plee::job_timeout
    /// (with a partial event-count snapshot) when it has expired.  Not
    /// owned; null = never cancelled.
    cancel_token* cancel = nullptr;
    /// Flight recorder for progress beats: every engine records a
    /// "sim.progress" event (events, waves-stable) at the same
    /// k_cancel_check_events cadence as the cancel poll, so a post-mortem of
    /// a dead job shows how far the simulation got.  Not owned; null = off.
    obs::flight_recorder* recorder = nullptr;
};

const char* to_string(queue_kind kind);
/// Accepts "heap" / "binary_heap" and "sweep" (alias "calendar", the
/// engine's former name); throws std::invalid_argument for anything else.
queue_kind queue_kind_from_string(const std::string& name);

/// One recorded token arrival (collect_trace mode).
struct trace_event {
    double time = 0.0;
    pl::edge_id edge = pl::k_invalid_edge;
    bool value = false;
};

/// The sweep's trace order: by time, then edge.  A stable sort by it puts a
/// heap-engine trace in the same order (arrivals on one edge at one time
/// keep their wave order under both engines).
inline bool trace_order(const trace_event& a, const trace_event& b) {
    return a.time != b.time ? a.time < b.time : a.edge < b.edge;
}

struct wave_record {
    std::vector<bool> outputs;   ///< primary output values, sink order
    double release_time = 0.0;   ///< when the environment could present inputs
                                 ///< (= previous wave's output_stable)
    double input_stable = 0.0;   ///< last input token deposit for this wave
    double output_stable = 0.0;  ///< last primary output token arrival

    /// The paper's per-vector delay: "the presence of a stable input vector"
    /// (the environment may drive inputs the moment the previous outputs are
    /// stable) to "a stable output word".  For combinational circuits this
    /// is the settle time; for sequential circuits it is the self-timed
    /// cycle time, including the register-update wave.  Meaningful in
    /// non-pipelined mode (in pipelined mode release_time is 0 and this is
    /// the absolute stabilization time).
    double delay() const { return output_stable - release_time; }
};

struct sim_run_stats {
    /// events and firings count engine work (one word-firing serves up to 64
    /// lanes in lane mode); the ee_* counters count per-lane semantics (a
    /// lane-pass firing contributes once per lane the pass retains), so EE
    /// hit rates agree with the equivalent serial runs.
    std::uint64_t events = 0;
    std::uint64_t firings = 0;
    std::uint64_t ee_hits = 0;    ///< master firings with efire == 1
    std::uint64_t ee_misses = 0;  ///< master firings with efire == 0
    std::uint64_t ee_wins = 0;    ///< hits where the efire path strictly won
    // Lane-engine telemetry (zero for scalar runs).
    std::uint64_t lane_blocks = 0;   ///< stimulus blocks simulated
    std::uint64_t lane_vectors = 0;  ///< vectors (occupied lanes) simulated
    /// Engine passes: 1 per block for the lane sweep, one per vector for
    /// the serial fallback.
    std::uint64_t lane_runs = 0;
    /// EE master firings whose mixed efire word made lane times diverge
    /// (the early path won on some lanes but not all).
    std::uint64_t lane_splits = 0;

    /// Field-by-field accumulation: every counter a run produces is added,
    /// so nothing is silently dropped when summing runs into totals.
    sim_run_stats& operator+=(const sim_run_stats& s) {
        events += s.events;
        firings += s.firings;
        ee_hits += s.ee_hits;
        ee_misses += s.ee_misses;
        ee_wins += s.ee_wins;
        lane_blocks += s.lane_blocks;
        lane_vectors += s.lane_vectors;
        lane_runs += s.lane_runs;
        lane_splits += s.lane_splits;
        return *this;
    }
    bool operator==(const sim_run_stats&) const = default;
};

/// Result of one lane-parallel block run: per-lane measurements plus the
/// primary output values in lane-packed form (bit L of outputs[j] = lane L's
/// value of sink j).  Lane L reproduces run({vector L}) bit for bit.
struct lane_block_result {
    std::size_t num_vectors = 0;  ///< occupied lanes (== block.num_vectors)
    std::vector<std::uint64_t> outputs;       ///< per sink, lane-packed
    std::array<double, k_lanes> input_stable{};   ///< per lane
    std::array<double, k_lanes> output_stable{};  ///< per lane
    /// Per-lane release time — when the environment could present the
    /// lane's inputs.  Every lane is an independent single-vector run from
    /// reset, so this is 0.0 today, but delay() subtracts it (mirroring
    /// wave_record::delay) rather than assuming it, so a future nonzero
    /// release epoch cannot silently inflate the reported delay.
    std::array<double, k_lanes> release{};
    /// The paper's per-vector delay for lane L, measured exactly like the
    /// scalar wave_record::delay(): stable output minus release.
    double delay(std::size_t lane) const {
        return output_stable[lane] - release[lane];
    }
};

class pl_simulator {
public:
    explicit pl_simulator(const pl::pl_netlist& pl, sim_options options = {});

    /// Runs `vectors.size()` waves; vectors[k] holds the wave-k value of each
    /// primary input in pl.sources() order.  Throws the typed failures of
    /// sim/errors.hpp: deadlock_error, budget_exhausted,
    /// invariant_violation (safety / EE invariant), and plee::job_timeout
    /// when options.cancel expires mid-run.  Packs the vectors and delegates
    /// to run_packed.
    std::vector<wave_record> run(const std::vector<std::vector<bool>>& vectors);

    /// The same sequential-wave protocol over bit-packed stimulus: wave k is
    /// lane (k % 64) of blocks[k / 64].  Every block except the last must be
    /// full (64 vectors).  This is the allocation-light path measure uses.
    std::vector<wave_record> run_packed(const std::vector<stimulus_block>& blocks);

    /// Lane-parallel mode: simulates every occupied lane of `block` as an
    /// independent single-vector run from reset, all lanes in one one-wave
    /// sweep (see the header comment).  Lane L of the result is
    /// bit-identical to run({vector L}); output bits of unoccupied lanes are
    /// 0.  stats() afterwards covers the whole block: events/firings count
    /// engine work, ee_* count per-lane semantics.  Throws the typed
    /// failures of run(), and deadlock_error with 0 events, under both
    /// engines, when a token-free cycle keeps some gate off the firing
    /// order.  Requires options.collect_trace == false (throws
    /// std::invalid_argument — per-lane waveforms would need 64 scalar runs
    /// anyway).  The binary_heap engine selection runs 64 serial run()
    /// calls instead (the lane oracle).
    lane_block_result run_lanes(const stimulus_block& block);

    const sim_run_stats& stats() const { return stats_; }

    /// Data-token arrivals recorded by the last run (empty unless
    /// options.collect_trace): in pop order under the heap engine, in
    /// (time, edge) order under the sweep.
    const std::vector<trace_event>& trace() const { return trace_; }

private:
    struct token_slot {
        bool present = false;
        bool value = false;
        double time = 0.0;
    };
    /// Precomputed per-gate firing metadata, stored by sweep position (see
    /// pos_): everything a firing needs, gathered from pl_gate / trigger
    /// gate / source-sink indices into one flat record so the sweep streams
    /// through a single array.  Cache-line aligned: the scalar fields and
    /// the low function word share the first line; only >6-input gates (and
    /// wide triggers) reach into the second.
    struct alignas(64) gate_desc {
        pl::gate_kind kind = pl::gate_kind::compute;
        std::uint8_t num_data = 0;        ///< LUT operand count (<= 8)
        std::uint8_t trig_pin_count = 0;  ///< master: trigger support size
        bool const_value = false;
        /// Has a token-free data / ack out-edge: one a one-wave lane sweep
        /// reads (a marked edge hands over its initial token instead).
        bool free_data_out = false;
        bool free_ack_out = false;
        bool master = false;  ///< has an efire input (an EE master)
        pl::gate_id gate = pl::k_invalid_gate;
        /// refs_[ref_begin, ref_begin + num_data): the pin-ordered data
        /// refs; [ref_begin + num_data, ref_end): the time-only refs (acks,
        /// efire, any other non-pin in-edge).
        std::uint32_t ref_begin = 0, ref_end = 0;
        std::uint32_t num_out = 0;    ///< out-degree: deposits per firing
        std::uint32_t efire = 0;      ///< master: the efire edge's ref
        std::uint32_t env_slot = 0;   ///< position in sources() / sinks()
        /// Master: trigger pin i taps master data pin trig_pins[i] — the
        /// pin-packing map that replaces bf::support_members at fire time.
        std::uint8_t trig_pins[bf::k_max_vars] = {};
        /// LUT truth-table words; minterm m is bit (m & 63) of word (m >> 6).
        std::array<std::uint64_t, bf::k_num_words> fn_bits{};
        /// Master: trigger function words, same layout over the packed pins.
        std::array<std::uint64_t, bf::k_num_words> trig_fn_bits{};
    };

    void reset();
    std::string deadlock_diagnostic() const;

    // --- Reference engine (binary heap, AoS token slots) -------------------
    /// One scheduled token deposit, ordered by (time, seq).
    struct deposit {
        double time = 0.0;
        std::uint64_t seq = 0;
        pl::edge_id edge = pl::k_invalid_edge;
        bool value = false;
        /// Heap comparator: std::greater<> over (time, seq).
        bool operator>(const deposit& o) const {
            return time != o.time ? time > o.time : seq > o.seq;
        }
    };
    void run_heap();
    void schedule(pl::edge_id edge, bool value, double time);
    void place(pl::edge_id edge, bool value, double time);
    void try_fire(pl::gate_id g);
    void fire_source(pl::gate_id g);
    void record_sink(pl::gate_id g);

    // --- Throughput engine (static max-plus wave sweep) -------------------
    /// A ref is one in-edge as its consumer sees it: the producer's sweep
    /// position, whether the edge is marked, the value of its initial token
    /// and whether it carries the producer's ack time or its output time.
    static constexpr std::uint32_t k_ref_marked = 1u;
    static constexpr std::uint32_t k_ref_init = 2u;
    static constexpr std::uint32_t k_ref_ack = 4u;
    static constexpr unsigned k_ref_pos_shift = 3;
    static std::uint32_t ref_pos(std::uint32_t ref) { return ref >> k_ref_pos_shift; }
    /// One firing's tokens: slot 2 * pos + (k & 1) holds the k-th firing of
    /// the gate at sweep position pos.  All its data out-edges carry time[0]
    /// and value, all its ack out-edges time[1].
    struct gate_slot {
        double time[2] = {0.0, 0.0};
        bool value = false;
    };
    void run_sweep();
    bool sweep_ready(std::uint32_t pos, std::size_t wave) const;
    void sweep_poll(std::uint64_t& events, std::uint64_t after,
                    std::uint64_t& next_check, const char* engine);

    // --- Lane sweep (one wave, 64-bit value words per token) --------------
    /// One firing of the lane sweep.  A one-wave run reads each producer's
    /// only firing on a token-free edge and the initial token on a marked
    /// one, so one slot per position suffices, plus two constant slots
    /// holding the initial tokens of value 0 and 1.
    struct lane_slot {
        std::uint64_t word = 0;  ///< bit L = lane L's value
        /// Per output kind (data, ack): every lane's time when slab == 0;
        /// 0 otherwise, so a max from 0 over token times yields the shared
        /// part.
        double time[2] = {0.0, 0.0};
        /// 0 = one shared time; else lane_times(slab) holds the 64 times.
        std::uint32_t slab[2] = {0, 0};
    };
    /// The lane slot a ref reads: its producer's, or an initial token.
    std::uint32_t lane_index(std::uint32_t ref) const {
        return ref & k_ref_marked
                   ? static_cast<std::uint32_t>(desc_.size()) +
                         ((ref & k_ref_init) ? 1u : 0u)
                   : ref_pos(ref);
    }
    void run_lane_sweep(const stimulus_block& block, lane_block_result& result);
    const double* lane_times(std::uint32_t slab) const {
        return lane_slabs_.data() + std::size_t{slab - 1} * k_lanes;
    }
    /// out[L] = the max of `floor` and lane L's time on every slab token of
    /// refs[begin, end).
    void gather_lane_times(const std::uint32_t* refs, std::uint32_t begin,
                           std::uint32_t end, double floor, double* out) const;
    /// Room for two slabs at the arena's end; returns the first.
    double* next_lane_slabs();

    /// Wave k's value of source slot `slot`: lane (k & 63) of block (k >> 6).
    bool stim_bit(std::size_t wave, std::uint32_t slot) const {
        return (stim_[wave >> 6].words[slot] >> (wave & 63)) & 1u;
    }

    const pl::pl_netlist& pl_;
    sim_options options_;
    sim_run_stats stats_;

    // Static structure (built once per netlist).
    pl::flat_topology topo_;
    /// Firing order and never-firing gates; any of the latter put the
    /// sweep in checked mode (readiness tested per firing).
    pl::firing_schedule schedule_;
    /// Non-empty when the netlist is structurally unsafe: the violation.
    std::string unsafe_;
    /// Per gate: its sweep position — schedule_.order first, then the gates
    /// off the order.
    std::vector<std::uint32_t> pos_;
    std::vector<gate_desc> desc_;       ///< per position
    std::vector<std::uint32_t> refs_;   ///< per position: see gate_desc
    std::vector<std::uint32_t> in_count_;  ///< per gate: |in_edges|

    // Per-run state — reference engine.
    std::vector<token_slot> tokens_;  ///< per edge (AoS)
    std::vector<deposit> heap_;       ///< min-heap via std::push_heap

    // Per-run state — throughput engine.
    std::vector<gate_slot> gate_slots_;  ///< per position x firing parity

    // Per-run state — shared.
    std::vector<std::uint32_t> pending_;      ///< per gate: inputs without tokens
    std::vector<std::uint32_t> fired_waves_;  ///< per gate: completed firings
    std::uint64_t next_seq_ = 0;

    // Per-run state — lane sweep.
    std::vector<lane_slot> lane_slots_;  ///< per position, then the two initial tokens
    /// Slab arena: 64 times per slab, at most one data and one ack slab per
    /// firing; lane_slab_end_ marks its used part.
    std::vector<double> lane_slabs_;
    std::size_t lane_slab_end_ = 0;

    std::vector<trace_event> trace_;
    const stimulus_block* stim_ = nullptr;  ///< sequential-wave stimulus
    std::vector<stimulus_block> packed_stim_;  ///< run(vectors) pack buffer
    std::size_t num_waves_ = 0;
    std::size_t released_waves_ = 0;
    std::vector<double> release_time_;        ///< per wave
    std::vector<double> input_stable_;        ///< per wave
    std::vector<double> output_stable_;       ///< per wave
    std::vector<std::size_t> sinks_pending_;  ///< per wave: sinks not yet arrived
    std::size_t waves_stable_ = 0;
    std::vector<std::vector<bool>> wave_outputs_;
};

}  // namespace plee::sim
