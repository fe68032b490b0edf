// Tests for the table renderer, the JSON serializer behind the BENCH_*.json
// artifacts, and the end-to-end Table 3 experiment row.

#include "report/experiment.hpp"
#include "report/json.hpp"
#include "report/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "bench_circuits/itc99.hpp"
#include "synth/rtl.hpp"
#include "workload/workload.hpp"

namespace plee::report {
namespace {

TEST(TextTable, RendersAlignedColumns) {
    text_table t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"b", "123456"});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("| name "), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("123456"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("|---"), std::string::npos);
    EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, CsvOutput) {
    text_table t({"a", "b"});
    t.add_row({"1", "2"});
    EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(TextTable, RejectsRaggedRows) {
    text_table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Formatting, FixedAndPercent) {
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_EQ(fmt_pct(36.4), "+36%");
    EXPECT_EQ(fmt_pct(-2.3), "-2%");
}

TEST(Experiment, AdderRowHasPaperShape) {
    // An 8-bit registered adder: EE must win, area must grow, and the row's
    // derived columns must be mutually consistent.
    syn::module_builder m("rowtest");
    const syn::bus a = m.input_bus("a", 8);
    const syn::bus b = m.input_bus("b", 8);
    const syn::bus acc = m.new_register("acc", 8, 0);
    m.connect_register(acc, m.add(acc, m.add(a, b).sum).sum);
    m.output_bus("acc", acc);
    m.output("cout", m.add(a, b).carry);
    const nl::netlist n = m.build();

    experiment_options opts;
    opts.measure.num_vectors = 60;
    const experiment_row row = run_ee_experiment("registered adder", n, opts);

    EXPECT_GT(row.pl_gates, 0u);
    EXPECT_GT(row.ee_gates, 0u);
    EXPECT_GT(row.delay_no_ee, 0.0);
    EXPECT_GT(row.delay_ee, 0.0);
    EXPECT_NEAR(row.delay_diff, row.delay_no_ee - row.delay_ee, 1e-9);
    EXPECT_NEAR(row.area_increase_pct,
                100.0 * static_cast<double>(row.ee_gates) /
                    static_cast<double>(row.pl_gates),
                1e-9);
    EXPECT_NEAR(row.delay_decrease_pct, 100.0 * row.delay_diff / row.delay_no_ee,
                1e-9);
    // The headline claim on an arithmetic circuit: EE reduces delay.
    EXPECT_GT(row.delay_decrease_pct, 0.0);
    EXPECT_EQ(row.ee_detail.triggers_added, row.ee_gates);
}

TEST(Experiment, ThresholdSuppressesEe) {
    syn::module_builder m("supp");
    const syn::bus a = m.input_bus("a", 4);
    const syn::bus b = m.input_bus("b", 4);
    m.output_bus("s", m.add(a, b).sum);
    const nl::netlist n = m.build();

    experiment_options opts;
    opts.measure.num_vectors = 10;
    opts.ee.search.cost_threshold = 1e12;
    const experiment_row row = run_ee_experiment("suppressed", n, opts);
    EXPECT_EQ(row.ee_gates, 0u);
    EXPECT_EQ(row.area_increase_pct, 0.0);
}

/// The row against the pipeline composed stage by stage from the public
/// API, each measurement with its own mapping, stimulus and golden run:
/// map -> measure -> map -> EE -> measure.
void expect_row_matches_composition(const std::string& name, const nl::netlist& n,
                                    const experiment_options& opts) {
    const std::string where = name + " lanes=" + std::to_string(opts.measure.lanes);
    const experiment_row row = run_ee_experiment(name, n, opts);

    const pl::map_result plain = pl::map_to_phased_logic(n, opts.map);
    const sim::measure_result base =
        sim::measure_average_delay(plain.pl, &n, opts.measure);
    pl::map_result with_ee = pl::map_to_phased_logic(n, opts.map);
    const ee::ee_stats es = ee::apply_early_evaluation(with_ee.pl, opts.ee);
    const sim::measure_result early =
        sim::measure_average_delay(with_ee.pl, &n, opts.measure);

    EXPECT_EQ(row.description, name);
    EXPECT_EQ(row.pl_gates, plain.pl.num_pl_gates()) << where;
    EXPECT_EQ(row.ee_gates, with_ee.pl.num_trigger_gates()) << where;
    EXPECT_EQ(row.delay_no_ee, base.avg_delay) << where;
    EXPECT_EQ(row.delay_ee, early.avg_delay) << where;
    EXPECT_EQ(row.delay_diff, base.avg_delay - early.avg_delay) << where;
    EXPECT_EQ(row.area_increase_pct,
              100.0 * static_cast<double>(row.ee_gates) /
                  static_cast<double>(row.pl_gates))
        << where;
    EXPECT_EQ(row.delay_decrease_pct,
              base.avg_delay == 0.0 ? 0.0 : 100.0 * row.delay_diff / base.avg_delay)
        << where;
    EXPECT_EQ(row.stats_no_ee, base.stats) << where;
    EXPECT_EQ(row.stats_ee, early.stats) << where;
    EXPECT_EQ(row.ee_detail.masters_considered, es.masters_considered) << where;
    EXPECT_EQ(row.ee_detail.triggers_added, es.triggers_added) << where;
    ASSERT_EQ(row.ee_detail.applied.size(), es.applied.size()) << where;
    for (std::size_t i = 0; i < es.applied.size(); ++i) {
        EXPECT_EQ(row.ee_detail.applied[i].master, es.applied[i].master) << where;
        EXPECT_EQ(row.ee_detail.applied[i].trigger, es.applied[i].trigger) << where;
        EXPECT_EQ(row.ee_detail.applied[i].candidate.function,
                  es.applied[i].candidate.function)
            << where;
    }
    EXPECT_EQ(row.lanes, opts.measure.lanes) << where;
    EXPECT_EQ(row.vectors_measured, base.delays.size() + early.delays.size())
        << where;
    EXPECT_EQ(row.delay_hist_no_ee, base.delay_hist) << where;
    EXPECT_EQ(row.delay_hist_ee, early.delay_hist) << where;
}

TEST(Experiment, RowsMatchTheStageByStageCompositionOnEveryPreset) {
    for (const std::size_t lanes : {std::size_t{1}, sim::k_lanes}) {
        for (const wl::scenario kind : wl::all_scenarios()) {
            experiment_options opts;
            opts.measure.lanes = lanes;
            opts.measure.num_vectors = lanes == 1 ? 100 : 128;
            expect_row_matches_composition(
                wl::to_string(kind),
                wl::generate(wl::scenario_params(kind, 120, 3)), opts);
        }
    }
}

TEST(Experiment, RowsMatchTheStageByStageCompositionOnItc99) {
    experiment_options opts;
    for (const bench::benchmark_info& b : bench::itc99_suite()) {
        expect_row_matches_composition(b.id, b.build(), opts);
    }
}

TEST(Experiment, EachStageRunsOncePerRow) {
    obs::trace trace;
    experiment_options opts;
    opts.trace = &trace;
    run_ee_experiment("b05", bench::build_benchmark("b05"), opts);
    const auto count = [&](const std::string& name) {
        return std::count_if(trace.spans().begin(), trace.spans().end(),
                             [&](const obs::span_record& s) { return s.name == name; });
    };
    EXPECT_EQ(count("map_to_pl.plain"), 1);
    EXPECT_EQ(count("sim.golden"), 1);
    EXPECT_EQ(count("sim.run"), 2);
    EXPECT_EQ(count("ee.search"), 1);
    EXPECT_EQ(trace.spans().size(), 7u);  // + measure.plain, measure.ee
}

TEST(Json, SerializesNestedValuesDeterministically) {
    json root = json::object();
    root.set("name", json::str("trigger"));
    root.set("speedup", json::number(5.25));
    root.set("count", json::number(14));
    root.set("ok", json::boolean(true));
    json arr = json::array();
    arr.push(json::number(1));
    arr.push(json::str("two\n\"quoted\""));
    arr.push(json::number(2));
    root.set("items", std::move(arr));
    root.set("empty_obj", json::object());
    root.set("empty_arr", json::array());

    const std::string s = root.dump();
    EXPECT_EQ(s,
              "{\n"
              "  \"name\": \"trigger\",\n"
              "  \"speedup\": 5.25,\n"
              "  \"count\": 14,\n"
              "  \"ok\": true,\n"
              "  \"items\": [\n"
              "    1,\n"
              "    \"two\\n\\\"quoted\\\"\",\n"
              "    2\n"
              "  ],\n"
              "  \"empty_obj\": {},\n"
              "  \"empty_arr\": []\n"
              "}\n");
}

TEST(Json, RejectsKindMisuse) {
    json arr = json::array();
    EXPECT_THROW(arr.set("k", json::number(1)), std::logic_error);
    json obj = json::object();
    EXPECT_THROW(obj.push(json::number(1)), std::logic_error);
}

TEST(Json, ExperimentRowRoundTripsAllColumns) {
    experiment_row row;
    row.description = "demo";
    row.pl_gates = 10;
    row.ee_gates = 4;
    row.delay_no_ee = 12.5;
    row.delay_ee = 10.0;
    row.delay_diff = 2.5;
    row.area_increase_pct = 40.0;
    row.delay_decrease_pct = 20.0;
    const std::string s = to_json(row).dump();
    EXPECT_NE(s.find("\"description\": \"demo\""), std::string::npos);
    EXPECT_NE(s.find("\"pl_gates\": 10"), std::string::npos);
    EXPECT_NE(s.find("\"ee_gates\": 4"), std::string::npos);
    EXPECT_NE(s.find("\"delay_no_ee_ns\": 12.5"), std::string::npos);
    EXPECT_NE(s.find("\"area_increase_pct\": 40"), std::string::npos);
}

}  // namespace
}  // namespace plee::report
