// Tests of the benchmark's built-in correctness check (CheckIteration in
// e2e.h): a healthy iteration passes, including at another thread count,
// and a tampered estimate, a label shortfall or another seed's estimates
// fail it. Run from the build directory; exit status 0 means every
// expectation held.

#include <cstdio>

#include "perfbench/e2e.h"
#include "telemetry/telemetry.h"

namespace oasis {
namespace perfbench {
namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  std::printf("%s: %s\n", condition ? "ok  " : "FAIL", what);
  if (!condition) ++failures;
}

Workload SmallBatch() {
  const experiments::ConfigMap config =
      experiments::ConfigMap::Parse(
          "scenario = stripe-f90\nmethod = oasis\nbudget = 1000\n"
          "checkpoint_every = 250\nrepeats = 8\n")
          .ValueOrDie();
  return Workload::FromConfig("check", config).ValueOrDie();
}

int Main() {
  const Workload workload = SmallBatch();
  const std::string prefix = "perfbench_check_test";
  const Iteration healthy = [&] {
    telemetry::ScopedEnable enable(true);  // The registry counts the labels.
    return RunIteration(workload, 7, 2, prefix).ValueOrDie();
  }();
  const uint64_t hash = FinalEstimatesHash(healthy.result.summary);
  Expect(healthy.charged_labels == 8 * 1000,
         "charged labels are counted with telemetry on");
  Expect(CheckIteration(healthy, hash).passed, "a healthy iteration passes");

  const Iteration one_thread =
      RunIteration(workload, 7, 1, prefix).ValueOrDie();
  Expect(one_thread.charged_labels == -1,
         "charged labels are not observable with telemetry off");
  Expect(CheckIteration(one_thread, hash).passed,
         "the estimates hash identically at one thread");

  Iteration tampered = healthy;
  tampered.result.summary.final_estimates[3] += 0.01;
  const CheckReport tampered_check = CheckIteration(tampered, hash);
  Expect(!tampered_check.passed, "a tampered estimate fails");
  Expect(tampered_check.failures.size() >= 2,
         "the aggregate audit and the hash both catch the tampering");

  Iteration shortfall = healthy;
  shortfall.charged_labels -= 1;
  Expect(!CheckIteration(shortfall, hash).passed, "a label shortfall fails");

  const Iteration other_seed =
      RunIteration(workload, 8, 2, prefix).ValueOrDie();
  Expect(CheckIteration(other_seed, std::nullopt).passed,
         "another seed's iteration is healthy on its own");
  Expect(!CheckIteration(other_seed, hash).passed,
         "another seed's estimates fail the hash check");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace oasis

int main() { return oasis::perfbench::Main(); }
