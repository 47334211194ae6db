// Ablation — compression of the score exchange (the paper's Section 4.5 /
// Conclusions future work: "Some techniques can be adopted to reduce
// convergence time, i.e. compression").
//
// Two independent levers, both measured here:
//   1. *Wire encoding*: the paper budgets 100 bytes per <url_from, url_to,
//      score> record. Varint + URL front-coding (+ optional lossy score
//      quantization) shrinks real record batches taken from an actual
//      partition's cut edges by several times, which scales Table 1's
//      iteration interval down proportionally (T >= h·l·W / bisection).
//   2. *Delta thresholds*: near convergence most scores barely change;
//      sending only entries that moved >= threshold cuts records per round
//      at the price of a bounded relative-error floor.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "cost/capacity_model.hpp"
#include "engine/distributed.hpp"
#include "engine/reference.hpp"
#include "partition/partitioner.hpp"
#include "transport/wire.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {
constexpr double kAlpha = 0.85;
}

int main(int argc, char** argv) {
  using namespace p2prank;
  util::Flags flags(argc, argv,
                    "usage: ablation_compression [--pages=20000] [--k=32] [--seed=42]\n");
  const auto k = flags.get<std::uint32_t>("k", 32);
  const auto seed = flags.get<std::uint64_t>("seed", 42);
  const auto g = bench::experiment_graph(flags, 20000);
  auto& pool = util::ThreadPool::shared();

  std::cout << "compression ablation (future work of Sections 4.5/7)\n"
            << "graph: " << g.num_pages() << " pages, " << g.num_links()
            << " internal links; K=" << k << "\n\n";

  const auto assignment = partition::make_hash_site_partitioner()->partition(g, k);
  const auto reference = engine::open_system_reference(g, kAlpha, pool);

  // ---- Part 1: wire encoding of one real exchange round ---------------------
  // Materialize every cut-edge record with its actual URLs and score.
  std::vector<transport::ScoreRecord> records;
  for (graph::PageId u = 0; u < g.num_pages(); ++u) {
    const auto d = g.out_degree(u);
    if (d == 0) continue;
    for (const graph::PageId v : g.out_links(u)) {
      if (assignment[u] == assignment[v]) continue;
      records.push_back({g.url(u), g.url(v),
                         kAlpha * reference[u] / static_cast<double>(d)});
    }
  }

  struct Encoding {
    const char* label;
    transport::WireOptions opts;
    bool lossless;
  };
  const Encoding encodings[] = {
      {"plain varint (no front-coding)", {.front_coding = false, .quantize_bits = 0}, true},
      {"front-coded URLs", {.front_coding = true, .quantize_bits = 0}, true},
      {"front-coded + 20-bit scores", {.front_coding = true, .quantize_bits = 20}, false},
      {"front-coded + 12-bit scores", {.front_coding = true, .quantize_bits = 12}, false},
  };

  util::Table wire_table({"encoding", "bytes/record", "vs paper's 100 B",
                          "lossless", "Table-1 T @ N=1000"});
  cost::CostParameters cp;  // W = 3e9
  wire_table.row()
      .cell("paper estimate (l = 100 B)")
      .cell(transport::kNaiveRecordBytes, 1)
      .cell("1.00x")
      .cell("yes")
      .cell(util::format_seconds(cost::min_iteration_interval(2.5, cp)));
  for (const auto& enc : encodings) {
    const auto bytes = transport::encode_records(records, enc.opts);
    const double per_record =
        static_cast<double>(bytes.size()) / static_cast<double>(records.size());
    cost::CostParameters scaled = cp;
    scaled.record_bytes = per_record;
    wire_table.row()
        .cell(enc.label)
        .cell(per_record, 1)
        .cell(util::format_double(transport::kNaiveRecordBytes / per_record, 2) + "x")
        .cell(enc.lossless ? "yes" : "~5e-7 abs err")
        .cell(util::format_seconds(cost::min_iteration_interval(2.5, scaled)));
  }
  wire_table.print(std::cout,
                   "Wire encoding of " + std::to_string(records.size()) +
                       " real cut-edge records");

  // ---- Part 2: delta-send thresholds -----------------------------------------
  util::Table delta_table({"send threshold", "records sent", "vs full",
                           "messages", "final rel err"});
  std::uint64_t full_records = 0;
  for (const double threshold : {0.0, 1e-8, 1e-6, 1e-4}) {
    engine::EngineOptions opts;
    opts.algorithm = engine::Algorithm::kDPR1;
    opts.alpha = kAlpha;
    opts.t1 = 0.0;
    opts.t2 = 6.0;
    opts.send_threshold = threshold;
    opts.seed = seed;
    engine::DistributedRanking sim(g, assignment, k, opts, pool);
    sim.set_reference(reference);
    (void)sim.run(60.0, 60.0);
    const engine::EngineCounters c = sim.counters();
    if (threshold == 0.0) full_records = c.records_sent;
    delta_table.row()
        .cell(threshold == 0.0 ? std::string("0 (paper's algorithms)")
                               : util::format_double(threshold, 8))
        .cell(c.records_sent)
        .cell(util::format_double(100.0 * static_cast<double>(c.records_sent) /
                                      static_cast<double>(full_records),
                                  1) +
              "%")
        .cell(c.messages_sent)
        .cell(sim.relative_error_now(), 8);
  }
  delta_table.print(std::cout, "Delta-send thresholds after 60 time units (DPR1)");

  std::cout << "\nshape check: encoding beats the 100 B estimate several-fold;\n"
               "thresholds trade a bounded error floor for most of the traffic.\n";
  return 0;
}
