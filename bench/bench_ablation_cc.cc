// Ablation (DESIGN.md §5): connected-components kernel choice for the
// repair hypergraph — BSP label propagation on the dataflow engine (the
// GraphX path of §5.1) vs sequential union-find. Both produce identical
// components; this bench shows their cost over violation graphs of growing
// size, produced by real detection runs on TaxA.
#include <cstdio>

#include "bench_util.h"
#include "core/rule_engine.h"
#include "datagen/datagen.h"
#include "repair/connected_components.h"
#include "repair/hypergraph.h"
#include "rules/parser.h"

namespace bigdansing {
namespace {

using bench::ResultTable;
using bench::ScaledRows;
using bench::Secs;
using bench::TimeSeconds;

void Run() {
  ResultTable table(
      "Ablation: connected components over the violation hypergraph",
      {"rows", "edges", "nodes", "BSP (s)", "union-find (s)", "components"});
  for (size_t base : {10000u, 50000u, 100000u}) {
    size_t rows = ScaledRows(base);
    auto data = GenerateTaxA(rows, 0.1, /*seed=*/rows);
    ExecutionContext ctx(16);
    RuleEngine engine(&ctx);
    auto detection =
        engine.Detect(data.dirty, *ParseRule("phi1: FD: zipcode -> city"));
    if (!detection.ok()) continue;
    const ViolationBuffer buffer =
        ViolationBuffer::FromObjects(detection->violations);
    ViolationHypergraph graph(buffer, &ctx);
    const size_t nodes = graph.num_nodes();
    const auto edges = graph.StarEdges();

    ComponentLabels bsp_labels;
    double bsp = TimeSeconds(
        [&] { bsp_labels = BspConnectedComponents(&ctx, nodes, edges); });
    ComponentLabels uf_labels;
    double uf = TimeSeconds(
        [&] { uf_labels = UnionFindConnectedComponents(nodes, edges); });

    // Count components (each is labelled by its smallest node) and check
    // agreement as a sanity check.
    size_t components = 0;
    size_t mismatches = 0;
    for (uint64_t node = 0; node < nodes; ++node) {
      if (uf_labels[node] == node) ++components;
      if (bsp_labels[node] != uf_labels[node]) ++mismatches;
    }
    if (mismatches != 0) {
      std::fprintf(stderr, "BSP/union-find mismatch on %zu nodes!\n",
                   mismatches);
    }
    bench::BenchRecord record("ablation_cc", "rows=" + std::to_string(rows));
    record.AddConfig("rows", static_cast<uint64_t>(rows));
    record.AddConfig("workers", static_cast<uint64_t>(16));
    record.AddMetric("wall_seconds", bsp);
    record.AddMetric("union_find_seconds", uf);
    record.AddMetric("violations",
                     static_cast<uint64_t>(detection->violations.size()));
    record.AddMetric("components", static_cast<uint64_t>(components));
    record.CaptureMetrics(ctx.metrics());
    record.Emit();
    table.AddRow({bench::WithCommas(rows), bench::WithCommas(edges.size()),
                  bench::WithCommas(nodes), Secs(bsp), Secs(uf),
                  bench::WithCommas(components)});
  }
  table.Print();
  std::printf(
      "Expected shape: identical components; union-find is cheaper on one "
      "node (BigDansing uses the BSP path because components must be found "
      "on data too large for one machine — the cost here is the price of "
      "distribution).\n");
}

}  // namespace
}  // namespace bigdansing

int main() {
  bigdansing::Run();
  return 0;
}
