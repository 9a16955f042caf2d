// Pricing an evaluation on a remote crowdsourcing platform.
//
// OASIS's premise is that oracle labels are the scarce resource — yet a local
// GroundTruthOracle answers in nanoseconds and for free. This example wraps
// the oracle in a RemoteOracle that prices every query like a crowd platform
// (30 s to post a task batch, 12 s of annotator time per pair, $0.05 per
// label, 20% service-time jitter) and walks the whole cost stack:
//
//   1. per-query vs batched labelling for a static sampler — the round-trip
//      economy of LabelCache::QueryBatch (and why OASIS cannot batch);
//   2. RunErrorCurve with a cost model: error curves priced in simulated
//      hours and dollars, with and without cross-repeat label sharing.
//
// Build & run:  ./build/crowdsourced_evaluation
// (Every clock below is simulated — the example itself runs in seconds.)

#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/oasis.h"
#include "eval/confusion.h"
#include "eval/measures.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/remote_oracle.h"
#include "sampling/importance.h"
#include "strata/csf.h"

using namespace oasis;

namespace {

/// The crowd platform's price sheet used throughout the example.
RemoteOracleOptions CrowdPlatform() {
  RemoteOracleOptions options;
  options.round_trip_seconds = 30.0;  // Posting a task page + pickup.
  options.per_item_seconds = 12.0;    // One annotator judging one pair.
  options.cost_per_label = 0.05;      // $ per judged pair.
  options.jitter_fraction = 0.2;      // Annotator service-time spread.
  options.max_items_per_round_trip = 100;  // Platform page size.
  return options;
}

std::string Hours(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f h", seconds / 3600.0);
  return buf;
}

std::string Dollars(double cost) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "$%.2f", cost);
  return buf;
}

/// Steps `sampler` in batches of at most `batch` until exactly `budget`
/// labels are consumed. Batches are capped at the label deficit (a step
/// consumes at most one label), so every batch size stops at the same
/// iteration with the same draw sequence — the comparison below changes ONLY
/// how the identical queries are packed into round trips.
void RunToBudget(Sampler& sampler, const LabelCache& labels, int64_t budget,
                 int64_t batch) {
  while (labels.labels_consumed() < budget) {
    const int64_t deficit = budget - labels.labels_consumed();
    OASIS_CHECK_OK(sampler.StepBatch(std::min(batch, deficit)));
  }
}

}  // namespace

int main() {
  // Synthetic evaluation pool: 40k record pairs, ~2% true matches, a decent
  // but imperfect classifier — the regime of the paper's Table 2 pools.
  const int64_t pool_size = 40000;
  Rng data_rng(23);
  ScoredPool pool;
  std::vector<uint8_t> truth;
  for (int64_t i = 0; i < pool_size; ++i) {
    const bool match = data_rng.NextBernoulli(0.02);
    const double margin = (match ? 1.0 : -1.0) + 0.7 * data_rng.NextGaussian();
    truth.push_back(match ? 1 : 0);
    pool.scores.push_back(margin);
    pool.predictions.push_back(margin >= 0.0 ? 1 : 0);
  }
  auto counts = CountConfusion(truth, pool.predictions);
  if (!counts.ok()) {
    std::fprintf(stderr, "confusion count failed: %s\n",
                 counts.status().ToString().c_str());
    return 1;
  }
  const Measures exact = ComputeMeasures(counts.ValueOrDie(), 0.5);
  std::printf("pool: %lld pairs, true F = %.4f\n\n",
              static_cast<long long>(pool_size), exact.f_alpha);

  GroundTruthOracle expert(truth);

  // ------------------------------------------------------------------------
  // 1. The round-trip economy: per-query vs batched labelling.
  // ------------------------------------------------------------------------
  std::printf("1. importance sampling, 2000 labels, per-query vs batched:\n\n");
  experiments::TextTable table(
      {"labelling", "round trips", "sim. time", "crowd cost", "F-hat"});
  for (const int64_t batch : {int64_t{1}, int64_t{64}, int64_t{512}}) {
    RemoteOracle remote(&expert, CrowdPlatform());
    LabelCache labels(&remote);
    auto sampler_result =
        ImportanceSampler::Create(&pool, &labels, ImportanceOptions{}, Rng(4));
    if (!sampler_result.ok()) {
      std::fprintf(stderr, "sampler creation failed: %s\n",
                   sampler_result.status().ToString().c_str());
      return 1;
    }
    auto sampler = std::move(sampler_result).ValueOrDie();
    RunToBudget(*sampler, labels, 2000, batch);
    const RemoteOracleStats stats = remote.stats();
    table.AddRow({batch == 1 ? "per-query" : "batch=" + std::to_string(batch),
                  experiments::FormatCount(stats.round_trips),
                  Hours(stats.simulated_seconds()), Dollars(stats.label_cost),
                  experiments::FormatDouble(sampler->Estimate().f_alpha)});
  }
  table.Print(std::cout);
  std::printf(
      "\nSame labels, same estimate, same dollars — batching only collapses\n"
      "round trips (platform pages hold %lld pairs). OASIS itself cannot\n"
      "batch: its next draw depends on the last label (docs/ORACLES.md).\n\n",
      static_cast<long long>(CrowdPlatform().max_items_per_round_trip));

  // ------------------------------------------------------------------------
  // 2. Error curves priced in hours and dollars.
  // ------------------------------------------------------------------------
  std::printf("2. error-vs-cost curves (Passive, 20 repeats, budget 1500):\n\n");
  experiments::RunnerOptions options;
  options.repeats = 20;
  options.trajectory.budget = 1500;
  options.trajectory.checkpoint_every = 300;
  options.stack.remote = CrowdPlatform();

  experiments::TextTable curve_table({"labels", "|err| (solo)", "cost (solo)",
                                      "|err| (shared)", "cost (shared)",
                                      "round trips (shared)"});
  const experiments::MethodSpec method = experiments::MakePassiveSpec(0.5);
  auto solo_result =
      experiments::RunErrorCurve(method, pool, expert, exact.f_alpha, options);
  if (!solo_result.ok()) {
    std::fprintf(stderr, "solo curve failed: %s\n",
                 solo_result.status().ToString().c_str());
    return 1;
  }
  const experiments::ErrorCurve solo = std::move(solo_result).ValueOrDie();
  options.stack.share_labels = true;
  auto shared_result =
      experiments::RunErrorCurve(method, pool, expert, exact.f_alpha, options);
  if (!shared_result.ok()) {
    std::fprintf(stderr, "shared curve failed: %s\n",
                 shared_result.status().ToString().c_str());
    return 1;
  }
  const experiments::ErrorCurve shared = std::move(shared_result).ValueOrDie();
  for (size_t i = 0; i < solo.budgets.size(); ++i) {
    curve_table.AddRow(
        {experiments::FormatCount(solo.budgets[i]),
         experiments::FormatDouble(solo.mean_abs_error[i]),
         Dollars(solo.mean_label_cost[i]),
         experiments::FormatDouble(shared.mean_abs_error[i]),
         Dollars(shared.mean_label_cost[i]),
         experiments::FormatDouble(shared.mean_round_trips[i], 1)});
  }
  curve_table.Print(std::cout);
  std::printf(
      "\nWith stack.share_labels the repeats pool their fetches through one\n"
      "SharedLabelStore: an item labelled in any repeat is never re-bought,\n"
      "so the per-repeat cost of the SAME error curve drops (the error\n"
      "columns agree bit-for-bit — sharing changes who pays, never what is\n"
      "measured). Plot |err| against cost or round trips instead of labels\n"
      "to compare samplers under real crowdsourcing economics.\n");
  return 0;
}
